//! Morsel-driven partitioned CQ evaluation.
//!
//! The completion sweep parallelizes *across* completions, but each join
//! itself ran single-threaded: on one large instance the engine used one
//! core. This module splits a compiled plan's **leading atom** into
//! disjoint row partitions (hash-partitioned on its first bound column
//! via `ca_core::store::partition`, or on row ids when the atom binds
//! nothing) and evaluates each partition as an independent seeded join
//! ([`super::eval_seeded_ids`]) as its own [`ca_core::exec::map`] task.
//!
//! Correctness is the partition layer's completeness property: the
//! partitions disjointly cover the leading atom's live rows, and every
//! answer of the unpartitioned join extends a match of the leading atom,
//! so the per-partition answer sets union to exactly the unpartitioned
//! answer set. The union is a set merge folded in **partition-index
//! order** — commutative and duplicate-free — so the result is
//! byte-identical at every worker count and under every scheduling, the
//! same contract the sweep and the chase pin.
//!
//! [`eval_ucq_gated`] is the one table runner: every UCQ evaluation
//! hands it an explicit width, and a disjunct takes the partitioned path
//! only when that width is above one **and** the cost model says the
//! join can amortize the fan-out (a leading relation of at least
//! [`PART_MIN_ROWS`] live rows and [`PART_MIN_WORK`] estimated work).
//! Nothing here reads the process default width. Boolean evaluation
//! never partitions — it early-exits on the first witness, which a
//! fan-out would only delay.

use std::collections::BTreeSet;

use ca_core::exec;
use ca_core::store::partition::{partition_ids, partition_rows};
use ca_core::value::Value;

use super::{eval_cq_ids, eval_seeded_ids, prepare_cq, CompiledCq, CompiledUcq, DbIndex, RowSet};

/// Minimum live rows of the leading relation before the automatic path
/// partitions: under this, fixed spawn/merge overhead dominates the join
/// itself (a few thousand probes run in tens of microseconds).
pub const PART_MIN_ROWS: usize = 4096;

/// Minimum estimated plan work (the cost model's `card × (1 + est)`
/// accumulation, roughly "rows enumerated") before partitioning pays.
/// Chosen off `BENCH_query.json`: two-atom chains at 1024 lead rows
/// (≈ 6k estimated work) lose to spawn/merge overhead, the same chains
/// at 4096 rows (≈ 25k) win.
pub const PART_MIN_WORK: f64 = 16384.0;

/// Should this plan take the partitioned path at all? Requires a real
/// join (≥ 2 atoms — a single-atom scan has no work to split), a lead
/// relation worth splitting, and an estimated total work above
/// [`PART_MIN_WORK`] so coordination cannot dominate. Decisions move
/// wall time only; both paths produce identical contents.
fn worth_partitioning(cq: &CompiledCq, idx: &DbIndex<'_>) -> bool {
    cq.atoms.len() >= 2
        && cq
            .atoms
            .first()
            .is_some_and(|a| idx.rows(a.rel).len() >= PART_MIN_ROWS)
        && idx.model().plan_work(cq) >= PART_MIN_WORK
}

/// Sequential evaluation with semijoin reduction where it applies (see
/// [`super::semijoin_filter_lead`]): chain/star plans over a large lead
/// relation pre-filter the lead rows through later atoms' postings, then
/// run the reduced seeded join; everything else takes the plain engine.
fn eval_cq_seq_into(cq: &CompiledCq, idx: &mut DbIndex<'_>, out: &mut RowSet) {
    let reducible = cq.atoms.len() >= 3
        && cq
            .atoms
            .first()
            .is_some_and(|a| idx.rows(a.rel).len() >= super::SEMIJOIN_MIN_ROWS);
    if reducible {
        let prep = prepare_cq(cq, idx);
        if let Some(kept) = super::semijoin_filter_lead(cq, &prep, idx) {
            eval_seeded_ids(cq, &prep, idx, &kept, &mut |row| {
                out.insert(row);
                true
            });
            return;
        }
    }
    eval_cq_ids(cq, idx, &mut |row| {
        out.insert(row);
        true
    });
}

/// Evaluate a compiled CQ with its leading atom split into `parts`
/// hash partitions on separate workers, inserting every head row into
/// `out`. Result contents are identical to [`eval_cq_seq_into`] for
/// every `parts`, including `parts == 1`.
fn eval_cq_partitioned_into(
    cq: &CompiledCq,
    idx: &mut DbIndex<'_>,
    parts: usize,
    out: &mut RowSet,
) {
    let Some(lead) = cq.atoms.first() else {
        // The empty conjunction has no atom to partition; its one
        // (empty) row comes from the sequential path.
        eval_cq_seq_into(cq, idx, out);
        return;
    };
    let parts = parts.max(1);
    // Resolve posting tables while the index is still borrowed mutably;
    // afterwards the workers share it immutably.
    let prep = prepare_cq(cq, idx);
    // Semijoin-reduce the lead rows before splitting them: pruned rows
    // are pruned on every worker at once.
    let reduced = super::semijoin_filter_lead(cq, &prep, idx);
    let rows = match &reduced {
        Some(kept) => kept.as_slice(),
        None => idx.rows(lead.rel),
    };
    // Partition on the first column the leading atom binds — rows
    // sharing a join key land on one worker — else on row ids.
    let partitions = match lead.binds.first() {
        Some(&(pos, _)) => partition_rows(&idx.cols(lead.rel)[pos], rows, parts),
        None => partition_ids(rows, parts),
    };
    let idx = &*idx;
    let prep = &prep;
    let sets = exec::map(partitions.len(), parts, |p, _| {
        let mut local = RowSet::new(cq.head_arity());
        eval_seeded_ids(cq, prep, idx, &partitions[p], &mut |row| {
            local.insert(row);
            true
        });
        local
    });
    // Deterministic merge: fold the per-partition row sets in
    // partition-index order. Set union is order-insensitive, so the
    // partition count can never leak into the decoded result.
    sets.iter().fold(&mut *out, |acc, set| {
        acc.extend(set);
        acc
    });
}

/// Evaluate a compiled UCQ with every disjunct forced onto the
/// partitioned path, cost gate or not: the union of the disjuncts'
/// partitioned answer sets. Identical contents to [`eval_ucq_gated`] at
/// every `parts`; the width pins and benches use it to exercise the
/// partitioned path on inputs the gate would keep sequential.
pub fn eval_ucq_partitioned(
    ucq: &CompiledUcq,
    idx: &mut DbIndex<'_>,
    parts: usize,
) -> BTreeSet<Vec<Value>> {
    let mut out = RowSet::new(ucq.head_arity());
    for d in &ucq.disjuncts {
        eval_cq_partitioned_into(d, idx, parts, &mut out);
    }
    out.decode(|id| idx.value(id))
}

/// Evaluate a compiled UCQ: the union of the disjuncts' answer sets.
/// The one table runner — every UCQ evaluation comes through here with
/// its width. Each disjunct partitions only when `width > 1` and
/// `worth_partitioning` says the join can amortize the fan-out, at
/// `width` honoured verbatim; otherwise it runs the sequential engine.
/// Every branch dedups bindings as id rows into one [`RowSet`], decoded
/// to `Value`s once per distinct answer. Contents are identical at
/// every width.
pub fn eval_ucq_gated(
    ucq: &CompiledUcq,
    idx: &mut DbIndex<'_>,
    width: usize,
) -> BTreeSet<Vec<Value>> {
    let mut out = RowSet::new(ucq.head_arity());
    for d in &ucq.disjuncts {
        if width > 1 && worth_partitioning(d, idx) {
            eval_cq_partitioned_into(d, idx, width, &mut out);
        } else {
            eval_cq_seq_into(d, idx, &mut out);
        }
    }
    out.decode(|id| idx.value(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, ConjunctiveQuery, Term, UnionQuery};
    use crate::engine::{CompiledUcq, CostModel};
    use ca_relational::database::build::{c, n};
    use ca_relational::database::NaiveDatabase;
    use Term::{Const as C, Var as V};

    /// A two-relation instance big enough to exercise real partitioning.
    fn chain_db(rows: i64) -> NaiveDatabase {
        let schema = ca_relational::schema::Schema::from_relations(&[("R", 2), ("S", 2)]);
        let mut db = NaiveDatabase::new(schema);
        for i in 0..rows {
            db.add("R", vec![c(i % 257), c((i * 31) % 257)]);
            if i % 3 == 0 {
                db.add("S", vec![c((i * 31) % 257), n((i % 11) as u32)]);
            }
        }
        db
    }

    fn plan_of(q: &ConjunctiveQuery, db: &NaiveDatabase) -> CompiledCq {
        CompiledCq::compile_costed(q, &db.schema, None, &CostModel::default()).unwrap()
    }

    fn partitioned(cq: &CompiledCq, db: &NaiveDatabase, parts: usize) -> BTreeSet<Vec<Value>> {
        let mut idx = DbIndex::new(db);
        let mut out = RowSet::new(cq.head_arity());
        eval_cq_partitioned_into(cq, &mut idx, parts, &mut out);
        out.decode(|id| idx.value(id))
    }

    #[test]
    fn partitioned_matches_sequential_at_every_width() {
        let db = chain_db(600);
        let q = ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("S", vec![V(1), V(2)]),
            ],
        );
        let plan = plan_of(&q, &db);
        let seq = crate::engine::eval_cq(&q, &db, 1).unwrap();
        assert!(!seq.is_empty());
        for parts in [1, 2, 4, 7] {
            assert_eq!(partitioned(&plan, &db, parts), seq, "width {parts}");
        }
    }

    #[test]
    fn constant_only_and_empty_plans_partition_correctly() {
        let db = chain_db(100);
        // Leading atom binds nothing: all-constant atom → row-id fallback.
        let q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![C(0), C(0)])]);
        let plan = plan_of(&q, &db);
        let seq = crate::engine::eval_cq(&q, &db, 1).unwrap();
        for parts in [1, 3] {
            assert_eq!(partitioned(&plan, &db, parts), seq);
        }
        // Empty conjunction: the vacuous row survives partitioning.
        let empty = plan_of(&ConjunctiveQuery::boolean(vec![]), &db);
        assert_eq!(partitioned(&empty, &db, 4), BTreeSet::from([vec![]]));
    }

    #[test]
    fn ucq_partitioned_matches_gated() {
        let db = chain_db(400);
        let q = UnionQuery::new(vec![
            ConjunctiveQuery::with_head(
                vec![0, 2],
                vec![
                    Atom::new("R", vec![V(0), V(1)]),
                    Atom::new("R", vec![V(1), V(2)]),
                ],
            ),
            ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("S", vec![C(2), V(0)])]),
        ]);
        let plan = CompiledUcq::compile_costed(&q, &db.schema, &CostModel::default()).unwrap();
        let seq = eval_ucq_gated(&plan, &mut DbIndex::new(&db), 1);
        for parts in [2, 5] {
            assert_eq!(
                eval_ucq_partitioned(&plan, &mut DbIndex::new(&db), parts),
                seq
            );
        }
    }
}
