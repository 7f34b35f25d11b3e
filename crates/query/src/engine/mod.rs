//! The compiled CQ/UCQ evaluation engine.
//!
//! Naïve evaluation is the paper's central positive result (for UCQs it
//! computes certain answers), so it is this repo's hottest query path.
//! The engine replaces the reference evaluator's nested-loop rescans
//! with three layers:
//!
//! 1. **plan compilation** ([`plan`]) — each CQ compiles once into a
//!    join plan: atom ordering priced by a [`CostModel`] (the greedy
//!    bound-variable order under the uninformed default), constants and
//!    repeated variables pushed into per-atom matchers, variables
//!    resolved to dense slots, schema errors rejected with a typed
//!    [`PlanError`];
//! 2. **columnar indexed execution** ([`index`]) — plans execute over
//!    the workspace columnar store (`ca_core::store`): the inner join
//!    loop reads interned `u32` ids straight from column pages (no tuple
//!    cloning, no `Value` hashing), with per-relation posting tables
//!    (CSR or hash) keyed by each atom's bound-position signature, built
//!    lazily on first probe and cached across the disjuncts of a UCQ and
//!    across repeated evaluations on the same store. Head rows leave the
//!    join as ids too: every dedup of join output — UCQ answers here,
//!    chase triggers in `ca_exchange` — goes through the one id-level
//!    [`RowSet`] ([`rowset`]), and rows are decoded to `Value`s once per
//!    distinct row, where they cross the API boundary;
//! 3. **parallel completion sweep** ([`sweep`]) — brute-force certain
//!    answers sweep the `|pool|^#nulls` completion grid (one completion
//!    per fresh-constant orbit) in parallel (`ca_core::exec`), grounding
//!    each completion by remapping null ids over shared column pages,
//!    with early exit once the intersection empties and
//!    thread-count-independent results.
//!
//! The old evaluator survives unchanged as [`crate::reference`] and
//! serves as the differential-testing oracle (`tests/eval_differential.rs`),
//! mirroring the `ca_hom::csp` / `ca_hom::reference` kernel pattern.

pub mod cache;
pub mod cost;
pub mod index;
pub mod par;
pub mod plan;
pub mod rowset;
pub mod sweep;

use std::collections::BTreeSet;

use ca_core::store::ValueId;
use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;

use crate::ast::{ConjunctiveQuery, UnionQuery};

pub use cache::PlanCache;
pub use cost::CostModel;
pub use index::DbIndex;
pub use par::{eval_ucq_gated, eval_ucq_partitioned, PART_MIN_ROWS, PART_MIN_WORK};
pub use plan::{CompiledCq, CompiledUcq, PlanError};
pub use rowset::RowSet;
pub use sweep::CompletionSpace;

/// An id-level head-row sink: sees each binding's head row as interned
/// value ids (with duplicates); returning `false` stops the enumeration.
pub type IdEmit<'e> = dyn FnMut(&[ValueId]) -> bool + 'e;

/// A decoded head-row sink: the [`IdEmit`] contract over `Value`s.
pub type ValueEmit<'e> = dyn FnMut(&[Value]) -> bool + 'e;

/// Reusable per-evaluation buffers threaded through [`exec`]: the
/// variable-slot assignment (interned value ids), one probe-key scratch
/// buffer per join depth, and the head-row buffer handed to `emit`.
struct ExecBufs {
    slots: Vec<ValueId>,
    scratch: Vec<Vec<ValueId>>,
    head_buf: Vec<ValueId>,
}

impl ExecBufs {
    fn new(cq: &CompiledCq) -> Self {
        ExecBufs {
            slots: vec![0; cq.n_slots],
            scratch: vec![Vec::new(); cq.atoms.len()],
            head_buf: Vec::with_capacity(cq.head_slots.len()),
        }
    }
}

/// Execute the plan suffix from `depth`, with `access` naming each
/// atom's posting table and id-resolved key. The join loop compares
/// interned `u32` ids read straight from the store's column pages, and
/// head rows leave it as ids too. Returns `false` iff `emit` requested
/// a stop.
fn exec(
    cq: &CompiledCq,
    access: &[index::AtomAccess],
    idx: &DbIndex<'_>,
    depth: usize,
    bufs: &mut ExecBufs,
    emit: &mut IdEmit<'_>,
) -> bool {
    if depth == cq.atoms.len() {
        // One reused buffer for every head row: `emit` sees a borrow, so
        // no per-row allocation on the hot path.
        bufs.head_buf.clear();
        for &s in &cq.head_slots {
            bufs.head_buf.push(bufs.slots[s]);
        }
        return emit(&bufs.head_buf);
    }
    let atom = &cq.atoms[depth];
    let acc = &access[depth];
    let cols = idx.cols(atom.rel);
    let scanning = acc.handle == index::SCAN;
    // Borrow this depth's scratch buffer by taking it out of the slice
    // (and restoring it below), so the recursive call can borrow the rest.
    let mut key_buf = std::mem::take(&mut bufs.scratch[depth]);
    let candidates: &[u32] = if scanning {
        // Full scan: bound positions (if any) are verified per candidate.
        idx.rows(atom.rel)
    } else {
        // Reuse this depth's scratch buffer for the probe key.
        key_buf.clear();
        key_buf.extend(acc.key.iter().map(|kp| match kp {
            index::IdKey::Const(id) => *id,
            index::IdKey::Slot(s) => bufs.slots[*s],
        }));
        idx.probe(acc.handle, &key_buf)
    };
    let mut keep_going = true;
    'cand: for &row in candidates {
        let r = row as usize;
        if scanning {
            // The index did not filter on the signature; do it here.
            for (&pos, kp) in atom.sig.iter().zip(&acc.key) {
                let expected = match kp {
                    index::IdKey::Const(id) => *id,
                    index::IdKey::Slot(s) => bufs.slots[*s],
                };
                if cols[pos][r] != expected {
                    continue 'cand;
                }
            }
        }
        for &(pos, slot) in &atom.binds {
            bufs.slots[slot] = cols[pos][r];
        }
        for &(pos, slot) in &atom.checks {
            if cols[pos][r] != bufs.slots[slot] {
                continue 'cand;
            }
        }
        if !exec(cq, access, idx, depth + 1, bufs, emit) {
            keep_going = false;
            break;
        }
    }
    bufs.scratch[depth] = key_buf;
    keep_going
}

/// Run `eval` with a [`ValueEmit`] adapted to the id-level join: each
/// head row is decoded through the index's interner into one reused
/// buffer. The `&[Value]` entry points are this adapter over their
/// id-level twins.
fn decoding(idx: &DbIndex<'_>, emit: &mut ValueEmit<'_>, eval: impl FnOnce(&mut IdEmit<'_>)) {
    let mut buf: Vec<Value> = Vec::new();
    eval(&mut |row| {
        buf.clear();
        buf.extend(row.iter().map(|&id| idx.value(id)));
        emit(&buf)
    });
}

/// The access paths of a one-off evaluation. A single-atom plan scans:
/// with one atom there is no join to accelerate, so building (or even
/// resolving) a posting table can never amortize against the one scan
/// that replaces it — measurably so on small relations (`e02_ucq_edge`).
/// Every other plan resolves its posting tables ([`prepare_cq`]).
fn prepare_once(cq: &CompiledCq, idx: &mut DbIndex<'_>) -> PreparedCq {
    match cq.atoms.as_slice() {
        [atom] => PreparedCq {
            access: vec![index::AtomAccess {
                handle: index::SCAN,
                key: idx.resolve_key(&atom.key),
            }],
        },
        _ => prepare_cq(cq, idx),
    }
}

/// Evaluate a compiled CQ, calling `emit` on every head row as value
/// ids (with duplicates; `emit` returning `false` stops the enumeration
/// early). The ids come from `idx`'s store.
pub fn eval_cq_ids(cq: &CompiledCq, idx: &mut DbIndex<'_>, emit: &mut IdEmit<'_>) {
    let prep = prepare_once(cq, idx);
    eval_prepared_ids(cq, &prep, idx, emit);
}

/// [`eval_cq_ids`] with every head row decoded to `Value`s.
pub fn eval_cq_into(cq: &CompiledCq, idx: &mut DbIndex<'_>, emit: &mut ValueEmit<'_>) {
    let prep = prepare_once(cq, idx);
    eval_prepared_into(cq, &prep, idx, emit);
}

/// Minimum live rows of the leading relation before semijoin reduction
/// pays: below this, one posting probe per lead row costs more than the
/// dead enumerations it prunes.
pub(crate) const SEMIJOIN_MIN_ROWS: usize = 1024;

/// Semijoin-reduce the leading atom of a chain/star plan: keep only the
/// lead rows whose join-key values have a non-empty posting in some
/// later atom's single-column table. Sound because an empty posting for
/// the key value means that atom (hence the whole conjunction) cannot
/// match once the lead row binds it — pruned rows contribute no answers,
/// kept rows are evaluated in full, so the answer set is untouched.
///
/// Applies only when the plan has ≥ 3 atoms (on a two-atom join the
/// probe that filters *is* the join step — nothing is saved), the lead
/// relation has ≥ [`SEMIJOIN_MIN_ROWS`] live rows, and at least one
/// later atom probes a built (non-scan) single-column table keyed by a
/// slot the lead atom binds. Returns `None` when inapplicable; callers
/// then run the unreduced plan.
pub(crate) fn semijoin_filter_lead(
    cq: &CompiledCq,
    prep: &PreparedCq,
    idx: &DbIndex<'_>,
) -> Option<Vec<u32>> {
    let lead = cq.atoms.first()?;
    let rows = idx.rows(lead.rel);
    if cq.atoms.len() < 3 || rows.len() < SEMIJOIN_MIN_ROWS {
        return None;
    }
    // `(lead column, posting handle)` per eligible later atom.
    let mut filters: Vec<(usize, usize)> = Vec::new();
    for (atom, acc) in cq.atoms.iter().zip(&prep.access).skip(1) {
        if acc.handle == index::SCAN {
            continue;
        }
        if let (&[_], &[index::IdKey::Slot(s)]) = (atom.sig.as_slice(), acc.key.as_slice()) {
            if let Some(&(lead_pos, _)) = lead.binds.iter().find(|&&(_, slot)| slot == s) {
                filters.push((lead_pos, acc.handle));
            }
        }
    }
    if filters.is_empty() {
        return None;
    }
    let cols = idx.cols(lead.rel);
    let mut kept = Vec::with_capacity(rows.len());
    'row: for &r in rows {
        for &(pos, h) in &filters {
            if idx.probe(h, &[cols[pos][r as usize]]).is_empty() {
                continue 'row;
            }
        }
        kept.push(r);
    }
    Some(kept)
}

/// The resolved access paths of one compiled CQ on one [`DbIndex`],
/// resolved once by [`prepare_cq`]: per atom, a posting-table handle and
/// the key with plan constants interned to value ids. Keeping them
/// outside the index lets many evaluations (and many threads) share one
/// immutably borrowed index afterwards — the access pattern of the
/// semi-naive chase, which prepares every rule plan up front and then
/// runs the match phase in parallel.
pub struct PreparedCq {
    access: Vec<index::AtomAccess>,
}

/// Resolve a compiled CQ's posting tables on `idx` (building any missing
/// ones). The returned access paths are only meaningful for this (plan,
/// index) pair.
pub fn prepare_cq(cq: &CompiledCq, idx: &mut DbIndex<'_>) -> PreparedCq {
    PreparedCq {
        access: idx.ensure_cq(cq),
    }
}

/// Evaluate a prepared CQ against an immutably borrowed index, calling
/// `emit` on every head row as value ids (with duplicates; returning
/// `false` stops early). `prep` must come from [`prepare_cq`] for the
/// same plan and index.
pub fn eval_prepared_ids(
    cq: &CompiledCq,
    prep: &PreparedCq,
    idx: &DbIndex<'_>,
    emit: &mut IdEmit<'_>,
) {
    debug_assert_eq!(prep.access.len(), cq.atoms.len());
    exec(cq, &prep.access, idx, 0, &mut ExecBufs::new(cq), emit);
}

/// [`eval_prepared_ids`] with every head row decoded to `Value`s.
pub fn eval_prepared_into(
    cq: &CompiledCq,
    prep: &PreparedCq,
    idx: &DbIndex<'_>,
    emit: &mut ValueEmit<'_>,
) {
    decoding(idx, emit, |e| eval_prepared_ids(cq, prep, idx, e));
}

/// Semi-naive evaluation of a prepared CQ, emitting head rows as value
/// ids: the **first** atom of the plan ranges over `seed` — an explicit
/// list of live *row ids of its relation* (a fact id translates via
/// `FactStore::fact_row`), typically a delta set — instead of the whole
/// relation, and the remaining atoms join as usual. Compile the plan with a `pin` on the atom to be seeded
/// ([`CompiledCq::compile_costed`]) so it leads the join order; nothing
/// precedes it, so its key parts are all constants, verified inline per
/// candidate here (a `Slot` part is treated as unmatched rather than
/// trusted). A plan with no atoms emits nothing: there is no atom to
/// seed.
pub fn eval_seeded_ids(
    cq: &CompiledCq,
    prep: &PreparedCq,
    idx: &DbIndex<'_>,
    seed: &[u32],
    emit: &mut IdEmit<'_>,
) {
    let Some(atom) = cq.atoms.first() else {
        return;
    };
    debug_assert_eq!(prep.access.len(), cq.atoms.len());
    let Some(acc) = prep.access.first() else {
        return;
    };
    let cols = idx.cols(atom.rel);
    let mut bufs = ExecBufs::new(cq);
    'cand: for &row in seed {
        let r = row as usize;
        for (&pos, kp) in atom.sig.iter().zip(&acc.key) {
            let expected = match kp {
                index::IdKey::Const(id) => *id,
                index::IdKey::Slot(_) => continue 'cand,
            };
            if cols[pos][r] != expected {
                continue 'cand;
            }
        }
        for &(pos, slot) in &atom.binds {
            bufs.slots[slot] = cols[pos][r];
        }
        for &(pos, slot) in &atom.checks {
            if cols[pos][r] != bufs.slots[slot] {
                continue 'cand;
            }
        }
        if !exec(cq, &prep.access, idx, 1, &mut bufs, emit) {
            return;
        }
    }
}

/// Boolean evaluation of a compiled UCQ on a prepared index, with early
/// exit on the first witness.
pub fn eval_ucq_bool_on(ucq: &CompiledUcq, idx: &mut DbIndex<'_>) -> bool {
    ucq.disjuncts.iter().any(|d| {
        let mut hit = false;
        eval_cq_ids(d, idx, &mut |_| {
            hit = true;
            false
        });
        hit
    })
}

/// Compile and evaluate a UCQ over a database (nulls as values) at
/// `width` (see [`eval_ucq_gated`]). The plan is cost-based: ordered by
/// the index's statistics model (falling back to the greedy order out
/// of the DP's reach) — plan choice, never answers, depends on the
/// statistics, and the width moves wall time only.
pub fn eval_ucq(
    q: &UnionQuery,
    db: &NaiveDatabase,
    width: usize,
) -> Result<BTreeSet<Vec<Value>>, PlanError> {
    let mut idx = DbIndex::new(db);
    let plan = CompiledUcq::compile_costed(q, &db.schema, idx.model())?;
    Ok(eval_ucq_gated(&plan, &mut idx, width))
}

/// Compile (cost-based) and evaluate a CQ over a database (nulls as
/// values) at `width`: [`eval_ucq`] on the one-disjunct union.
pub fn eval_cq(
    q: &ConjunctiveQuery,
    db: &NaiveDatabase,
    width: usize,
) -> Result<BTreeSet<Vec<Value>>, PlanError> {
    eval_ucq(&UnionQuery::single(q.clone()), db, width)
}

/// Compile (cost-based) and evaluate a Boolean UCQ over a database.
/// Takes no width: Boolean evaluation exits on the first witness and
/// never partitions.
pub fn eval_ucq_bool(q: &UnionQuery, db: &NaiveDatabase) -> Result<bool, PlanError> {
    let mut idx = DbIndex::new(db);
    let plan = CompiledUcq::compile_costed(q, &db.schema, idx.model())?;
    Ok(eval_ucq_bool_on(&plan, &mut idx))
}

/// Brute-force certain answers of a compiled UCQ: intersect the answer
/// tables over every completion in `space`, sweeping the completion
/// grid with `threads` workers and early exit. Over an adequate space
/// only one completion per fresh-constant orbit is evaluated and rows
/// naming a fresh constant are dropped (see [`CompletionSpace`]). Price
/// the plan off [`CompletionSpace::model`]: every completion shares the
/// base instance's shape.
///
/// The sweep never nests fan-outs: each completion evaluates at width 1,
/// except on a one-completion grid (no nulls), where the sweep has
/// nothing to split and the lone evaluation gets the whole `threads`.
///
/// Semantics at the corners (unit-tested below): when the completion
/// space is **empty** (nulls present but an empty pool) the intersection
/// over no completions is vacuous — the table form returns the **empty
/// table** (there is no finite "all rows"), while the Boolean form
/// returns **true**. With no nulls the sole completion is `db` itself.
pub fn certain_table_over(
    plan: &CompiledUcq,
    space: &CompletionSpace<'_>,
    threads: usize,
) -> BTreeSet<Vec<Value>> {
    let width = if space.len() == 1 { threads } else { 1 };
    space
        .intersect(threads, |i| {
            eval_ucq_gated(
                plan,
                &mut DbIndex::from_store(space.completion_store(i)),
                width,
            )
        })
        .unwrap_or_default()
}

/// Brute-force Boolean certain answer of a compiled UCQ over a
/// completion space: true iff every completion satisfies the query
/// (one per fresh-constant orbit is evaluated, see [`CompletionSpace`]).
/// Vacuously true when the completion space is empty.
pub fn certain_bool_over(plan: &CompiledUcq, space: &CompletionSpace<'_>, threads: usize) -> bool {
    space.all(threads, |i| {
        eval_ucq_bool_on(plan, &mut DbIndex::from_store(space.completion_store(i)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term};
    use crate::reference;
    use ca_relational::database::build::{c, n, table};
    use Term::{Const as C, Var as V};

    #[test]
    fn engine_matches_reference_on_basic_joins() {
        let q = UnionQuery::new(vec![
            ConjunctiveQuery::with_head(
                vec![0, 2],
                vec![
                    Atom::new("R", vec![V(0), V(1)]),
                    Atom::new("R", vec![V(1), V(2)]),
                ],
            ),
            ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("R", vec![C(1), V(0)])]),
        ]);
        let db = table(
            "R",
            2,
            &[&[c(1), n(1)], &[n(1), c(2)], &[c(3), c(9)], &[n(2), c(9)]],
        );
        assert_eq!(eval_ucq(&q, &db, 1).unwrap(), reference::eval_ucq(&q, &db));
    }

    #[test]
    fn repeated_head_and_within_atom_vars() {
        // Q(x, x) ← R(x, x): both the check path and head repetition.
        let q = ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("R", vec![V(0), V(0)])]);
        let db = table("R", 2, &[&[n(1), n(1)], &[n(1), n(2)], &[c(4), c(4)]]);
        let ans = eval_cq(&q, &db, 1).unwrap();
        assert_eq!(ans, reference::eval_cq(&q, &db));
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![n(1), n(1)]));
        assert!(ans.contains(&vec![c(4), c(4)]));
    }

    // ----- satellite: unknown relation / arity mismatch regression -----

    #[test]
    fn unknown_relation_engine_errors_reference_is_empty() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("S", vec![V(0)])]);
        let db = table("R", 1, &[&[c(1)]]);
        // Engine: typed error at plan-compile time.
        assert_eq!(
            eval_cq(&q, &db, 1).unwrap_err(),
            PlanError::UnknownRelation { rel: "S".into() }
        );
        // Reference oracle: silently no matches (pinned legacy quirk).
        assert!(reference::eval_cq(&q, &db).is_empty());
        // Legacy eval entry point routes through the engine leniently and
        // keeps the old observable behaviour.
        assert!(crate::eval::eval_cq(&q, &db).is_empty());
    }

    #[test]
    fn arity_mismatch_engine_errors_reference_is_empty() {
        let q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(1), V(2)])]);
        let db = table("R", 2, &[&[c(1), c(2)]]);
        assert_eq!(
            eval_cq(&q, &db, 1).unwrap_err(),
            PlanError::ArityMismatch {
                rel: "R".into(),
                declared: 2,
                used: 3
            }
        );
        assert!(reference::eval_cq(&q, &db).is_empty());
        assert!(crate::eval::eval_cq(&q, &db).is_empty());
    }

    // ----- satellite: empty-query / empty-database corners -----

    #[test]
    fn boolean_cq_with_zero_atoms_is_true() {
        // The empty conjunction holds vacuously: {()} — on any database,
        // including the empty one. Engine and reference agree.
        let q = ConjunctiveQuery::boolean(vec![]);
        let db = table("R", 1, &[]);
        assert_eq!(eval_cq(&q, &db, 1).unwrap(), BTreeSet::from([vec![]]));
        assert_eq!(reference::eval_cq(&q, &db), BTreeSet::from([vec![]]));
        let nonempty = table("R", 1, &[&[c(1)]]);
        assert_eq!(eval_cq(&q, &nonempty, 1).unwrap(), BTreeSet::from([vec![]]));
    }

    #[test]
    fn ucq_with_no_disjuncts_is_false() {
        // The empty disjunction is false: no rows, Boolean false.
        let q = UnionQuery::new(vec![]);
        let db = table("R", 1, &[&[c(1)]]);
        assert!(eval_ucq(&q, &db, 1).unwrap().is_empty());
        assert!(!eval_ucq_bool(&q, &db).unwrap());
        assert!(reference::eval_ucq(&q, &db).is_empty());
    }

    #[test]
    fn empty_completion_space_semantics() {
        // D = {R(⊥1)} with an empty pool: completions_over would have
        // nothing to enumerate. The chosen semantics, documented here:
        // the Boolean certain answer is vacuously TRUE (a conjunction
        // over no completions), while the table form returns the EMPTY
        // table (the vacuous intersection "all rows" has no finite
        // representation). This asymmetry mirrors the legacy
        // `certain_table`, which returned an empty accumulator.
        let db = table("R", 1, &[&[n(1)]]);
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0],
            vec![Atom::new("R", vec![V(0)])],
        ));
        let space = CompletionSpace::new(&db, &[]);
        let plan = CompiledUcq::compile_costed(&q, &db.schema, &space.model()).unwrap();
        for threads in [1, 4] {
            assert!(certain_table_over(&plan, &space, threads).is_empty());
            assert!(certain_bool_over(&plan, &space, threads));
        }
    }

    #[test]
    fn seeded_eval_finds_exactly_the_delta_joins() {
        // R(x,y) ∧ R(y,z) with the first atom seeded by the last fact
        // only: answers must use that fact in position one.
        let q = ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ],
        );
        let db = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)], &[c(3), c(4)]]);
        let plan =
            CompiledCq::compile_costed(&q, &db.schema, Some(0), &CostModel::default()).unwrap();
        let mut idx = DbIndex::new(&db);
        let prep = prepare_cq(&plan, &mut idx);
        let seed_id = db
            .facts()
            .iter()
            .position(|f| f.args == vec![c(2), c(3)])
            .unwrap() as u32;
        let seeded = |seed: &[u32]| {
            let mut rows = RowSet::new(plan.head_arity());
            eval_seeded_ids(&plan, &prep, &idx, seed, &mut |row| {
                rows.insert(row);
                true
            });
            rows.decode(|id| idx.value(id))
        };
        assert_eq!(seeded(&[seed_id]), BTreeSet::from([vec![c(2), c(4)]]));
        // Seeding with every fact recovers the full answer set.
        let all: Vec<u32> = (0..db.facts().len() as u32).collect();
        assert_eq!(seeded(&all), eval_cq(&q, &db, 1).unwrap());
    }

    #[test]
    fn store_backed_index_matches_database_index() {
        let db = table("R", 2, &[&[c(1), c(2)], &[c(2), c(3)], &[c(2), c(4)]]);
        let store = ca_relational::to_store(&db);
        let mut idx = DbIndex::over(&store);
        let q = ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ],
        );
        let plan = CompiledCq::compile_costed(&q, &db.schema, None, idx.model()).unwrap();
        let mut out = BTreeSet::new();
        eval_cq_into(&plan, &mut idx, &mut |row| {
            out.insert(row.to_vec());
            true
        });
        assert_eq!(out, eval_cq(&q, &db, 1).unwrap());
    }

    #[test]
    fn certain_sweep_matches_legacy_bruteforce() {
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ],
        ));
        let db = table("R", 2, &[&[c(1), n(1)], &[n(1), c(2)], &[n(2), c(5)]]);
        let pool = [1, 2, 5, 6, 7];
        let space = CompletionSpace::new(&db, &pool);
        let plan = CompiledUcq::compile_costed(&q, &db.schema, &space.model()).unwrap();
        // Legacy: materialize all completions, intersect reference answers.
        let mut legacy: Option<BTreeSet<Vec<Value>>> = None;
        for r in db.completions_over(&pool) {
            let ans = reference::eval_ucq(&q, &r);
            legacy = Some(match legacy {
                None => ans,
                Some(acc) => acc.intersection(&ans).cloned().collect(),
            });
        }
        let legacy = legacy.unwrap();
        for threads in [1, 3, 4] {
            assert_eq!(certain_table_over(&plan, &space, threads), legacy);
        }
    }
}
