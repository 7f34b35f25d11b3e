//! The semi-naive, delta-driven chase engine.
//!
//! Purely relational inputs (`σ = ∅` — every data-exchange target in
//! this crate) chase on the compiled join machinery of
//! [`ca_query::engine`] instead of re-running the reference loop's CSP
//! matcher over the whole instance after every single firing:
//!
//! * each rule body is validated once up front and then planned through
//!   a revision-keyed [`PlanCache`]: a round evaluates one *pinned*
//!   cost-based join plan per body atom
//!   ([`CompiledCq::compile_costed`] under the store's live
//!   statistics), with the pinned atom ranging over the **delta** — the
//!   facts added or rewritten since the previous round — so any match
//!   using at least one new fact is found exactly through the plan
//!   pinned at that fact's position, and quiet regions are never
//!   re-derived (semi-naive evaluation). Plans are re-costed only when
//!   the store's revision counter moves; quiet fixpoint passes and the
//!   per-round satisfaction evaluations hit the cache;
//! * a *trigger* is a valuation of the rule's frontier (sorted body∩head
//!   nulls). The state lives in the **workspace columnar fact store**
//!   ([`ca_core::store::FactStore`] — interned values, column-major
//!   tuples, a live bitmap, and a store-level null-occurrence index), and
//!   triggers never leave its id space: the join emits frontier rows as
//!   interned `ValueId`s, and the round's trigger set, the satisfied set
//!   and the per-rule fired set are id-level [`RowSet`]s, so a binding
//!   costs one hash probe and only a trigger that actually fires is
//!   decoded to `Value`s. No trigger ever fires twice; head satisfaction
//!   is decided set-at-a-time by evaluating the head pattern as a query
//!   whose answers are precisely the satisfied frontier valuations,
//!   instead of one satisfiability probe per match;
//! * egd equalities accumulate in a **union-find** over values (constant
//!   roots win; two distinct constant roots fail the chase) and rewrite
//!   only the facts that mention a merged null, via a null-occurrence
//!   index — never the whole instance;
//! * the match phase runs in parallel over the round's (rule, pinned
//!   plan) tasks ([`exec::map`] at `ChaseConfig::threads`, honoured
//!   verbatim; the phase stays sequential unless the cost model prices
//!   the round's seeded joins above the spawn/merge overhead); large
//!   seed lists are hash-partitioned on the pinned atom's leading bound
//!   column (`ca_core::store::partition`) so rows sharing a join key
//!   stay on one worker, and
//!   firing applies the collected triggers in (rule index, frontier
//!   valuation) order — lowest trigger wins — with fresh existential
//!   nulls drawn in that same order, so the chased instance is
//!   byte-identical at every thread count;
//! * egds and tgds share one match routine, and certification
//!   ([`ChaseConfig::certify`]) is a mode of it: bodies compile with every
//!   body variable in the head, each row is projected onto its trigger
//!   (or egd pair), and the value-order-least full assignment stays
//!   beside that row as value ids, decoded only for recorded steps.
//!
//! Differences from the reference loop, all benign up to
//! hom-equivalence (the differential suite compares with `gdm_equiv`):
//! facts are interned, so duplicate nodes collapse; triggers fire per
//! distinct frontier valuation rather than per body match (the extra
//! matches the reference enumerates are satisfied the moment the first
//! one fires); and rounds fire every round-start-active trigger where
//! the reference restarts after each firing, so step budgets are spent
//! in a different order — outcome agreement on terminating inputs is
//! unaffected, since chase failure and success are order-independent.

use std::collections::BTreeMap;
use std::sync::Arc;

use ca_cert::{
    CertAtom, CertEgd, CertFact, CertRule, CertTerm, ChaseCert, ChaseCertOutcome, ChaseStep,
};
use ca_core::exec;
use ca_core::fxhash::FxHashMap;
use ca_core::store::{partition, FactId, FactStore, ValueId};
use ca_core::symbol::Symbol;
use ca_core::value::{Null, NullGen, Value};
use ca_gdm::database::GenDb;
use ca_query::ast::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_query::engine::{
    eval_prepared_ids, eval_seeded_ids, prepare_cq, CompiledCq, CompiledUcq, CostModel, DbIndex,
    IdEmit, PlanCache, PreparedCq, RowSet, PART_MIN_WORK,
};
use ca_relational::schema::Schema;

use super::{ChaseConfig, ChaseOutcome, Egd};
use crate::mapping::Rule;

/// The atoms of a purely relational pattern: one atom per node, the
/// node's label as the relation, nulls as variables (by null id),
/// constants as constants. Shared with the mapping layer's compiled
/// body-match fast path.
pub(crate) fn pattern_atoms(d: &GenDb) -> Vec<Atom> {
    d.labels
        .iter()
        .zip(&d.data)
        .map(|(&label, row)| {
            let args = row
                .iter()
                .map(|v| match v {
                    Value::Null(nl) => Term::Var(nl.0),
                    Value::Const(c) => Term::Const(*c),
                })
                .collect();
            Atom::new(d.schema.label_name(label), args)
        })
        .collect()
}

/// One position of a head-fact template, resolved at firing time.
enum HeadTerm {
    /// A constant from the rule head.
    Const(Value),
    /// The value of the trigger row at this frontier index.
    Frontier(usize),
    /// An existential null: fresh per firing, shared across the head
    /// instantiation by its rule-local null id.
    Existential(Null),
}

/// A head fact to instantiate when a trigger fires.
struct HeadFact {
    rel: Symbol,
    template: Vec<HeadTerm>,
}

/// The witness shape of a certified body: every body variable, sorted
/// (the column order of the full-assignment head), and the positions in
/// it of the match key (a rule's frontier, an egd's equated pair).
struct Witnessed {
    vars: Vec<u32>,
    proj: Vec<usize>,
}

/// One rule or egd body as the match phase evaluates it. The body is
/// kept as a query (validated once up front): the round loop resolves it
/// into cost-based pinned plans through the run's [`PlanCache`], so the
/// join orders track the store's live statistics while compile errors
/// stay impossible after construction (plan errors are independent of
/// join order and pin — they depend only on the query and the schema).
struct MatchBody {
    /// The body as a single-disjunct union (the plan cache's key type),
    /// headed by the match key — or, certify mode, by every body variable.
    body_u: UnionQuery,
    /// The pinned relation of each body atom, in atom order.
    rels: Vec<Symbol>,
    /// The witness shape (certify mode only).
    cert: Option<Witnessed>,
}

impl MatchBody {
    /// Compile `atoms` with the match key `key` as head (every body
    /// variable under `certify`). `None` when the body does not compile
    /// against `schema` — including a key variable the body does not bind
    /// (or an empty egd body): the caller falls back to the reference,
    /// which owns the semantics of such malformed constraints.
    fn compile(atoms: Vec<Atom>, key: Vec<u32>, schema: &Schema, certify: bool) -> Option<Self> {
        let q = ConjunctiveQuery::with_head(key, atoms);
        // Validate once: a body that compiles unpinned compiles under every
        // pin and every join order.
        CompiledCq::compile_costed(&q, schema, None, &CostModel::default()).ok()?;
        let rels = q
            .atoms
            .iter()
            .map(|a| schema.relation(&a.rel))
            .collect::<Option<Vec<_>>>()?;
        let (q, cert) = if certify {
            let mut vars: Vec<u32> = q.atoms.iter().flat_map(Atom::vars).collect();
            vars.sort_unstable();
            vars.dedup();
            let proj = q
                .head
                .iter()
                .map(|v| vars.binary_search(v).ok())
                .collect::<Option<Vec<_>>>()?;
            let full = ConjunctiveQuery::with_head(vars.clone(), q.atoms);
            (full, Some(Witnessed { vars, proj }))
        } else {
            (q, None)
        };
        Some(MatchBody {
            body_u: UnionQuery::single(q),
            rels,
            cert,
        })
    }

    /// A witness of this body in step vocabulary.
    fn assignment(&self, witness: &[ValueId], store: &FactStore) -> Assignment {
        self.cert
            .iter()
            .flat_map(|w| w.vars.iter().copied())
            .zip(witness.iter().map(|&id| store.value(id)))
            .collect()
    }
}

/// One tgd compiled against the instance schema.
struct CompiledRule {
    /// The body, keyed by the sorted frontier.
    body: MatchBody,
    /// The head pattern as a query over the frontier head: its answer
    /// set is exactly the set of satisfied frontier valuations.
    head_u: UnionQuery,
    /// The head facts to instantiate on firing.
    head_facts: Vec<HeadFact>,
}

fn compile_rule(rule: &Rule, schema: &Schema, certify: bool) -> Option<CompiledRule> {
    let frontier: Vec<Null> = rule.frontier().into_iter().collect();
    let head_vars: Vec<u32> = frontier.iter().map(|nl| nl.0).collect();
    let body = MatchBody::compile(
        pattern_atoms(&rule.body),
        head_vars.clone(),
        schema,
        certify,
    )?;
    let head_q = ConjunctiveQuery::with_head(head_vars, pattern_atoms(&rule.head));
    CompiledCq::compile_costed(&head_q, schema, None, &CostModel::default()).ok()?;
    let mut head_facts = Vec::with_capacity(rule.head.n_nodes());
    for (label, row) in rule.head.labels.iter().zip(&rule.head.data) {
        let rel = schema.relation(rule.head.schema.label_name(*label))?;
        let template = row
            .iter()
            .map(|v| match v {
                Value::Const(_) => HeadTerm::Const(*v),
                // `frontier` is sorted (built from a BTreeSet).
                Value::Null(nl) => match frontier.binary_search(nl) {
                    Ok(i) => HeadTerm::Frontier(i),
                    Err(_) => HeadTerm::Existential(*nl),
                },
            })
            .collect();
        head_facts.push(HeadFact { rel, template });
    }
    Some(CompiledRule {
        body,
        head_u: UnionQuery::single(head_q),
        head_facts,
    })
}

/// Union-find over values. Constants are always roots; between two null
/// roots the smaller null id wins, so the representative choice is
/// deterministic.
#[derive(Default)]
struct UnionFind {
    parent: FxHashMap<Null, Value>,
}

impl UnionFind {
    fn find(&self, v: Value) -> Value {
        let mut cur = v;
        while let Value::Null(nl) = cur {
            match self.parent.get(&nl) {
                Some(&p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// Union the classes of `a` and `b`. `Err(())` on a constant clash,
    /// `Ok(Some(n))` when null `n` was merged away, `Ok(None)` when the
    /// classes already coincided.
    fn union(&mut self, a: Value, b: Value) -> Result<Option<Null>, ()> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(None);
        }
        match (ra, rb) {
            (Value::Const(_), Value::Const(_)) => Err(()),
            (Value::Null(nl), root @ Value::Const(_))
            | (root @ Value::Const(_), Value::Null(nl)) => {
                self.parent.insert(nl, root);
                Ok(Some(nl))
            }
            (Value::Null(x), Value::Null(y)) => {
                let (loser, root) = if x.0 < y.0 { (y, x) } else { (x, y) };
                self.parent.insert(loser, Value::Null(root));
                Ok(Some(loser))
            }
        }
    }
}

/// A pattern body/head in checker vocabulary: the exact mirror of
/// [`pattern_atoms`] (nulls as variables by id, constants literal).
fn cert_atoms(d: &GenDb) -> Vec<CertAtom> {
    d.labels
        .iter()
        .zip(&d.data)
        .map(|(&label, row)| CertAtom {
            rel: d.schema.label_name(label).to_owned(),
            args: row
                .iter()
                .map(|v| match v {
                    Value::Null(nl) => CertTerm::Var(nl.0),
                    Value::Const(c) => CertTerm::Const(*c),
                })
                .collect(),
        })
        .collect()
}

/// The in-flight derivation log of a certified run: the constraint set
/// and initial instance, built up front, and the steps [`run`] appends.
struct Recorder {
    rules: Vec<CertRule>,
    egds: Vec<CertEgd>,
    initial: Vec<CertFact>,
    steps: Vec<ChaseStep>,
}

fn recorder(instance: &GenDb, tgds: &[Rule], egds: &[Egd]) -> Recorder {
    Recorder {
        rules: tgds
            .iter()
            .map(|r| CertRule {
                body: cert_atoms(&r.body),
                head: cert_atoms(&r.head),
            })
            .collect(),
        egds: egds
            .iter()
            .map(|e| CertEgd {
                body: cert_atoms(&e.body),
                equal: (e.equal.0 .0, e.equal.1 .0),
            })
            .collect(),
        // Canonicalized (sorted, deduplicated): the certificate's bytes
        // must not depend on the caller's node insertion order.
        initial: {
            let mut facts: Vec<CertFact> = instance
                .labels
                .iter()
                .zip(&instance.data)
                .map(|(&label, row)| (instance.schema.label_name(label).to_owned(), row.clone()))
                .collect();
            facts.sort();
            facts.dedup();
            facts
        },
        steps: Vec::new(),
    }
}

/// Try to run the engine. `None` (caller falls back to the reference
/// chase) when any structural tuples are present or a pattern does not
/// compile against the instance schema. The second component is the
/// derivation log, present exactly when [`ChaseConfig::certify`] is set.
pub(super) fn try_chase(
    instance: &GenDb,
    tgds: &[Rule],
    egds: &[Egd],
    cfg: &ChaseConfig,
) -> Option<(ChaseOutcome, Option<ChaseCert>)> {
    if !instance.tuples.is_empty()
        || tgds
            .iter()
            .any(|r| !r.body.tuples.is_empty() || !r.head.tuples.is_empty())
        || egds.iter().any(|e| !e.body.tuples.is_empty())
    {
        return None;
    }
    // The instance schema's labels as a relational schema. Pattern labels
    // resolve against it by *name*, since each pattern carries its own
    // interner.
    let mut schema = Schema::new();
    let mut rel_of_label: Vec<Symbol> = Vec::new();
    for sym in instance.schema.label_symbols() {
        let rel = schema.add_relation(
            instance.schema.label_name(sym),
            instance.schema.label_arity(sym),
        );
        rel_of_label.push(rel);
    }
    let rules: Vec<CompiledRule> = tgds
        .iter()
        .map(|r| compile_rule(r, &schema, cfg.certify))
        .collect::<Option<_>>()?;
    let cegds: Vec<MatchBody> = egds
        .iter()
        .map(|e| {
            let pair = vec![e.equal.0 .0, e.equal.1 .0];
            MatchBody::compile(pattern_atoms(&e.body), pair, &schema, cfg.certify)
        })
        .collect::<Option<_>>()?;
    // Fresh existentials avoid every null in sight, as in the reference.
    let gen = NullGen::avoiding(
        instance.nulls().into_iter().chain(
            tgds.iter()
                .flat_map(|r| r.body.nulls().into_iter().chain(r.head.nulls())),
        ),
    );
    let rec = cfg.certify.then(|| recorder(instance, tgds, egds));
    Some(run(
        &schema,
        &rules,
        &cegds,
        instance,
        &rel_of_label,
        gen,
        cfg,
        rec,
    ))
}

/// A satisfied or fired set for one rule: frontier valuations as
/// interned value-id rows of the chase store. Value ids are stable for
/// the whole run (the store's interner only grows), so these sets persist
/// across rounds; egd merges re-map `fired` explicitly.
type TriggerSet = RowSet;

/// A body assignment in step vocabulary: sorted `(variable, value)` pairs.
type Assignment = Vec<(u32, Value)>;

/// One body's distinct match keys over a round — a rule's triggers, an
/// egd's equated pairs — as value-id rows of the chase store. In certify
/// mode each key row `i` also keeps the value-order-least full body
/// assignment projecting to it, as value ids at `witness[i * stride..]`.
#[derive(Default)]
struct Matches {
    keys: RowSet,
    witness: Vec<ValueId>,
    /// The witness stride (certify mode only).
    stride: Option<usize>,
}

impl Matches {
    fn new(body: &MatchBody) -> Self {
        match &body.cert {
            None => Matches {
                keys: RowSet::new(body.body_u.head_arity()),
                ..Matches::default()
            },
            Some(w) => Matches {
                keys: RowSet::indexed(w.proj.len()),
                witness: Vec::new(),
                stride: Some(w.vars.len()),
            },
        }
    }

    /// The witness of key row `i` (empty outside certify mode).
    fn witness(&self, i: usize) -> &[ValueId] {
        let stride = self.stride.unwrap_or(0);
        &self.witness[i * stride..(i + 1) * stride]
    }

    /// Add `key`, witnessed by the full assignment `full`; `true` iff the
    /// key is new. A known key keeps the value-order-lesser witness.
    fn add(&mut self, key: &[ValueId], full: &[ValueId], store: &FactStore) -> bool {
        let Some(stride) = self.stride else {
            return self.keys.insert(key);
        };
        let (i, new) = self.keys.insert_at(key);
        if new {
            self.witness.extend_from_slice(full);
        } else {
            let best = &mut self.witness[i * stride..(i + 1) * stride];
            if value_less(store, full, best) {
                best.copy_from_slice(full);
            }
        }
        new
    }

    /// Merge another task's matches of the same body into this one.
    fn merge(&mut self, other: &Matches, store: &FactStore) {
        for (i, key) in other.keys.rows().enumerate() {
            self.add(key, other.witness(i), store);
        }
    }
}

/// Whether the id row `a` precedes `b` (same length) in the value order
/// of their decoded rows: only the first differing ids are decoded.
fn value_less(store: &FactStore, a: &[ValueId], b: &[ValueId]) -> bool {
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .is_some_and(|(&x, &y)| store.value(x) < store.value(y))
}

/// The live store facts, union-find-resolved, in checker vocabulary.
/// (`rewrite` lags the union-find mid-merge-batch, so resolution is
/// applied here rather than trusting the store to be current.)
fn resolved_facts(schema: &Schema, store: &FactStore, uf: &UnionFind) -> Vec<CertFact> {
    let mut facts: Vec<CertFact> = store
        .iter_live()
        .map(|id| {
            (
                schema.name(store.fact_rel(id)).to_owned(),
                store.fact_values(id).iter().map(|&v| uf.find(v)).collect(),
            )
        })
        .collect();
    // Canonicalized: store fact ids follow insertion order, which must
    // not leak into certificate bytes.
    facts.sort();
    facts.dedup();
    facts
}

/// How a run ends.
enum End {
    Done,
    Failed,
    Aborted,
    Overflow,
}

/// The outcome of a run ending as `end`, and its certificate when the
/// run records one. `Done` and `Overflow` carry the store's instance.
fn end_run(
    end: End,
    schema: &Schema,
    store: &FactStore,
    instance: &GenDb,
    uf: &UnionFind,
    rec: Option<Recorder>,
) -> (ChaseOutcome, Option<ChaseCert>) {
    let db = || Box::new(rebuild(schema, store, instance, uf));
    let facts = || resolved_facts(schema, store, uf);
    let cert = rec.map(|r| ChaseCert {
        rules: r.rules,
        egds: r.egds,
        initial: r.initial,
        steps: r.steps,
        outcome: match end {
            End::Done => ChaseCertOutcome::Done {
                final_facts: facts(),
            },
            End::Failed => ChaseCertOutcome::Failed,
            End::Aborted => ChaseCertOutcome::Aborted { partial: facts() },
            End::Overflow => ChaseCertOutcome::Overflow { partial: facts() },
        },
    });
    let outcome = match end {
        End::Done => ChaseOutcome::Done(db()),
        End::Failed => ChaseOutcome::Failed,
        End::Aborted => ChaseOutcome::Aborted,
        End::Overflow => ChaseOutcome::Overflow(db()),
    };
    (outcome, cert)
}

#[allow(clippy::too_many_arguments)]
fn run(
    schema: &Schema,
    rules: &[CompiledRule],
    egds: &[MatchBody],
    instance: &GenDb,
    rel_of_label: &[Symbol],
    mut gen: NullGen,
    cfg: &ChaseConfig,
    mut rec: Option<Recorder>,
) -> (ChaseOutcome, Option<ChaseCert>) {
    // The chase state lives in the workspace columnar store; relations
    // are registered in schema order, so store symbols coincide with the
    // schema symbols the plans were compiled against.
    let mut store = FactStore::new();
    for sym in schema.symbols() {
        let reg = store.add_relation(schema.name(sym), schema.arity(sym));
        debug_assert_eq!(reg, sym, "store symbols mirror schema symbols");
    }
    let mut uf = UnionFind::default();
    // Cost-based plans keyed by (query, pin, store revision): quiet
    // fixpoint passes reuse plans; any store mutation re-costs them
    // against fresh statistics.
    let mut cache = PlanCache::new();
    let mut fired: Vec<TriggerSet> = rules
        .iter()
        .map(|r| RowSet::new(r.head_u.head_arity()))
        .collect();
    let mut steps = 0usize;
    // Load the instance; duplicate nodes intern to one fact.
    let mut delta: Vec<FactId> = Vec::new();
    for (label, row) in instance.labels.iter().zip(&instance.data) {
        let rel = rel_of_label.get(label.index()).copied().unwrap_or(*label); // unreachable: every instance label is in its schema
        if let Some(id) = store.insert(rel, row) {
            delta.push(id);
        }
    }
    let mut first_round = true;
    loop {
        // Budget semantics mirror the reference's `for _ in 0..max_steps`
        // loop: the pass that *observes* the fixpoint needs a step too,
        // so a round may only begin while budget remains (in particular,
        // `max_steps == 0` aborts immediately).
        if steps >= cfg.max_steps {
            return end_run(End::Aborted, schema, &store, instance, &uf, rec);
        }
        let round_start_steps = steps;

        // ---- egd phase: fixpoint over this round's delta ----
        let mut rewritten_all: Vec<u32> = Vec::new();
        if !egds.is_empty() {
            let mut egd_delta: Vec<u32> = delta.clone();
            while !egd_delta.is_empty() {
                let matched = {
                    let mut idx = DbIndex::over(&store);
                    let seeds = seeds_by_rel(schema, &store, &egd_delta);
                    egd_matches(schema, &store, egds, &seeds, cfg, &mut cache, &mut idx)
                };
                let Ok((pairs, per_egd)) = matched else {
                    return end_run(End::Overflow, schema, &store, instance, &uf, rec);
                };
                let mut merged: Vec<Null> = Vec::new();
                for (a, b, (e, i)) in pairs {
                    if uf.find(a) == uf.find(b) {
                        continue;
                    }
                    if steps >= cfg.max_steps {
                        return end_run(End::Aborted, schema, &store, instance, &uf, rec);
                    }
                    let merged_entry = match uf.union(a, b) {
                        Err(()) => None,
                        Ok(Some(loser)) => Some((loser, uf.find(Value::Null(loser)))),
                        // Unreachable: the roots were just found distinct.
                        Ok(None) => continue,
                    };
                    if let Some(recd) = rec.as_mut() {
                        recd.steps.push(ChaseStep::Merge {
                            egd: e,
                            assignment: egds[e].assignment(per_egd[e].witness(i), &store),
                            merged: merged_entry,
                        });
                    }
                    let Some((loser, _)) = merged_entry else {
                        return end_run(End::Failed, schema, &store, instance, &uf, rec);
                    };
                    steps += 1;
                    merged.push(loser);
                }
                if merged.is_empty() {
                    break;
                }
                let changed = store.rewrite(&merged, |v| uf.find(v));
                // Keep the dedup keys aligned with the rewritten
                // instance: fired valuations go through the same merge
                // substitution as the facts (order-independent — the set
                // is rebuilt, not iterated into anything ordered).
                let mut buf: Vec<_> = Vec::new();
                for set in fired.iter_mut() {
                    let mut next = RowSet::new(set.arity());
                    for row in set.rows() {
                        buf.clear();
                        for &id in row {
                            buf.push(store.intern_value(uf.find(store.value(id))));
                        }
                        next.insert(&buf);
                    }
                    *set = next;
                }
                egd_delta = changed.clone();
                rewritten_all.extend(changed);
            }
        }

        // ---- tgd phase: collect round-start triggers, then fire ----
        let mut tgd_seed: Vec<u32> = delta
            .iter()
            .chain(rewritten_all.iter())
            .copied()
            .filter(|&id| store.is_live(id))
            .collect();
        tgd_seed.sort_unstable();
        tgd_seed.dedup();
        // As in the egd phase: one index and one seed partition for the
        // trigger match and the satisfaction check.
        let matched = {
            let mut idx = DbIndex::over(&store);
            let seeds = seeds_by_rel(schema, &store, &tgd_seed);
            tgd_matches(
                schema,
                &store,
                rules,
                &fired,
                &seeds,
                first_round,
                cfg,
                &mut cache,
                &mut idx,
            )
        };
        let Ok((triggers, satisfied)) = matched else {
            return end_run(End::Overflow, schema, &store, instance, &uf, rec);
        };
        let mut inserted: Vec<u32> = Vec::new();
        for (r, rule) in rules.iter().enumerate() {
            // Mark every new trigger fired, even when already satisfied:
            // satisfaction is monotone under fact addition, and egd
            // merges rewrite the fired rows together with the facts, so
            // a satisfied trigger can never need firing later. Only the
            // triggers that do fire are decoded, once each, and they fire
            // in frontier-valuation order.
            let mut due: Vec<(Vec<Value>, usize)> = Vec::new();
            for (i, row) in triggers[r].keys.rows().enumerate() {
                if fired[r].insert(row) && !satisfied[r].contains(row) {
                    due.push((row.iter().map(|&id| store.value(id)).collect(), i));
                }
            }
            due.sort_unstable();
            for (row, i) in &due {
                if steps >= cfg.max_steps {
                    return end_run(End::Aborted, schema, &store, instance, &uf, rec);
                }
                steps += 1;
                let mut fresh: FxHashMap<Null, Value> = FxHashMap::default();
                for hf in &rule.head_facts {
                    let tuple: Vec<Value> = hf
                        .template
                        .iter()
                        .map(|t| match t {
                            HeadTerm::Const(v) => *v,
                            HeadTerm::Frontier(i) => row[*i],
                            HeadTerm::Existential(nl) => {
                                *fresh.entry(*nl).or_insert_with(|| Value::Null(gen.fresh()))
                            }
                        })
                        .collect();
                    if let Some(id) = store.insert(hf.rel, &tuple) {
                        inserted.push(id);
                    }
                }
                if let Some(recd) = rec.as_mut() {
                    let mut ledger: Vec<(u32, Null)> = fresh
                        .iter()
                        .filter_map(|(k, v)| v.as_null().map(|n| (k.0, n)))
                        .collect();
                    ledger.sort_unstable();
                    recd.steps.push(ChaseStep::Fire {
                        rule: r,
                        assignment: rule.body.assignment(triggers[r].witness(*i), &store),
                        fresh: ledger,
                    });
                }
            }
        }

        delta = inserted;
        first_round = false;
        if steps == round_start_steps {
            // No merge and no firing: every trigger is satisfied or
            // fired, the instance is a fixpoint.
            return end_run(End::Done, schema, &store, instance, &uf, rec);
        }
    }
}

/// Partition delta fact ids into per-relation row-id seed lists (the
/// seeded evaluator pins plans on rows of the pinned relation's column
/// pages). Dead facts are skipped — a fact can die between the delta
/// being recorded and the match phase that consumes it.
fn seeds_by_rel(schema: &Schema, store: &FactStore, seed: &[FactId]) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); schema.len()];
    for &id in seed {
        if store.is_live(id) {
            out[store.fact_rel(id).index()].push(store.fact_row(id));
        }
    }
    out
}

/// The sole disjunct of a rule-body/head plan. Compiled rule queries
/// are built with `UnionQuery::single` (see `compile_rule`), so the
/// compiled plan has exactly one disjunct by construction.
fn sole(plan: &CompiledUcq) -> &CompiledCq {
    // ca-lint: allow(L002, reason = "single-disjunct by construction: every chase rule query is wrapped via UnionQuery::single at compile_rule time")
    plan.disjuncts().first().expect("UnionQuery::single")
}

/// Parallelism pays only when the match phase has real work: below this
/// many seed facts summed over the round's tasks, the thread-scope spawn
/// dominates the joins and the phase stays sequential (mirrors
/// `PAR_MIN_COMPLETIONS` in `ca_query::engine::sweep`).
const PAR_MIN_SEED: usize = 512;

fn effective_threads(threads: usize, total_seed: usize, est_work: f64) -> usize {
    // The configured width is honoured verbatim (the determinism suite
    // pins widths wider than the host). Two gates, both advisory (results
    // are width-independent): enough seed facts to split, and enough
    // *estimated join work* — a round seeding thousands of single-atom
    // bodies has nothing to probe, and the thread-scope spawn would
    // dominate it.
    if threads <= 1 || total_seed < PAR_MIN_SEED || est_work < PART_MIN_WORK {
        1
    } else {
        threads
    }
}

/// A unit of match work: one `(body index, pinned-plan index)` pair
/// restricted to an owned list of the pinned relation's seed rows.
/// Large seed lists are **hash-partitioned** on the pinned atom's first
/// bound column (`ca_core::store::partition`) so delta rows sharing a
/// join key stay on one worker and each worker's probe working set is a
/// fraction of the posting tables; each task dedups its own output so
/// workers share the set-building cost too.
struct MatchTask {
    body: usize,
    pin: usize,
    rows: Vec<u32>,
}

/// Build the round's match tasks: every nonempty (body, pin) seed list
/// becomes one task when small (or `threads <= 1`), else `threads`
/// hash partitions — keyed by the pinned plan's leading bound column via
/// `key_col`, falling back to row-id partitioning for plans that bind
/// nothing. Partitions are deterministic in the store contents
/// (seed-independent of the worker count only in *which rows group
/// together*, and the per-body merges are order-insensitive), so results
/// stay byte-identical at every width.
fn partition_tasks(
    store: &FactStore,
    seeds: &[Vec<u32>],
    plan_seeds: &[(usize, usize, Symbol)],
    key_col: impl Fn(usize, usize) -> Option<usize>,
    threads: usize,
) -> Vec<MatchTask> {
    let mut tasks = Vec::new();
    for &(body, pin, rel) in plan_seeds {
        let rows = &seeds[rel.index()];
        if threads <= 1 || rows.len() < PAR_MIN_SEED {
            tasks.push(MatchTask {
                body,
                pin,
                rows: rows.clone(),
            });
            continue;
        }
        let parts = match key_col(body, pin).and_then(|pos| store.table(rel).cols().get(pos)) {
            Some(col) => partition::partition_rows(col, rows, threads),
            None => partition::partition_ids(rows, threads),
        };
        for rows in parts {
            if !rows.is_empty() {
                tasks.push(MatchTask { body, pin, rows });
            }
        }
    }
    tasks
}

/// Resolve the cost-based pinned plan of every `(body, pin)` pair in
/// `plan_seeds` through the cache, prepare it against the shared index,
/// and sum the model's estimate of the seeded join work. The `BTreeMap`
/// keeps worker lookups deterministic and ca-lint-clean.
type PlanTable = BTreeMap<(usize, usize), (Arc<CompiledUcq>, PreparedCq)>;

/// The one match routine of the egd and the tgd phase, certified or
/// not: evaluate every body's pinned plans over the per-relation seeds
/// and return each body's merged [`Matches`], in body order, with the
/// width the phase ran at. Tasks merge in task order; certify-mode
/// witnesses merge by value-order minimum, so the result is
/// width-independent. `Err(())` = match budget exceeded.
fn match_bodies(
    schema: &Schema,
    store: &FactStore,
    bodies: &[&MatchBody],
    seeds: &[Vec<u32>],
    cfg: &ChaseConfig,
    cache: &mut PlanCache,
    idx: &mut DbIndex,
) -> Result<(Vec<Matches>, usize), ()> {
    let mut plan_seeds: Vec<(usize, usize, Symbol)> = Vec::new();
    let mut total_seed = 0usize;
    for (b, body) in bodies.iter().enumerate() {
        for (p, &rel) in body.rels.iter().enumerate() {
            let n = seeds[rel.index()].len();
            if n > 0 {
                plan_seeds.push((b, p, rel));
                total_seed += n;
            }
        }
    }
    // Resolve and prepare the seeded plans up front (mutably), so the
    // parallel phase below can share the index immutably.
    let mut plans: PlanTable = BTreeMap::new();
    let mut est_work = 0.0f64;
    for &(b, p, rel) in &plan_seeds {
        let plan = cache
            .get_or_compile(&bodies[b].body_u, Some(p), schema, store)
            // ca-lint: allow(L002, reason = "MatchBody::compile validated this body against the schema; plan errors are independent of pin and statistics")
            .expect("match bodies are validated at compile time");
        let cq = sole(&plan);
        let prepared = prepare_cq(cq, idx);
        est_work += idx.model().seeded_work(cq, seeds[rel.index()].len());
        plans.insert((b, p), (plan, prepared));
    }
    let threads = effective_threads(cfg.threads, total_seed, est_work);
    let tasks = partition_tasks(
        store,
        seeds,
        &plan_seeds,
        |b, p| sole(&plans[&(b, p)].0).lead_bind_pos(),
        threads,
    );
    let limit = cfg.match_limit;
    let shared = &*idx;
    let results: Vec<(Matches, bool)> = exec::map(tasks.len(), threads, |t, _| {
        let MatchTask { body, pin, rows } = &tasks[t];
        let (plan, prepared) = &plans[&(*body, *pin)];
        budgeted_matches(bodies[*body], sole(plan), limit, store, |emit| {
            eval_seeded_ids(sole(plan), prepared, shared, rows, emit);
        })
    });
    let mut out: Vec<Matches> = bodies.iter().map(|b| Matches::new(b)).collect();
    for (task, (matches, over)) in tasks.iter().zip(results) {
        let acc = &mut out[task.body];
        if acc.keys.is_empty() {
            *acc = matches;
        } else {
            acc.merge(&matches, store);
        }
        if over || acc.keys.len() > limit {
            return Err(());
        }
    }
    Ok((out, threads))
}

/// An egd pair, decoded, with its witness's `(egd index, key row in
/// that egd's matches)`.
type EgdPair = (Value, Value, (usize, usize));

/// The egd phase's match pass: the distinct equality pairs over all
/// egds in value order, each owned by the lowest egd that produced it,
/// and the per-egd matches holding the witnesses. `Err(())` = match
/// budget exceeded.
fn egd_matches(
    schema: &Schema,
    store: &FactStore,
    egds: &[MatchBody],
    seeds: &[Vec<u32>],
    cfg: &ChaseConfig,
    cache: &mut PlanCache,
    idx: &mut DbIndex,
) -> Result<(Vec<EgdPair>, Vec<Matches>), ()> {
    let bodies: Vec<&MatchBody> = egds.iter().collect();
    let (per_egd, _) = match_bodies(schema, store, &bodies, seeds, cfg, cache, idx)?;
    // The API boundary: decode each egd's distinct pairs once and sort
    // them by value; of a pair several egds produced, the sort puts the
    // lowest egd first and the dedup keeps it.
    let mut pairs: Vec<EgdPair> = per_egd
        .iter()
        .enumerate()
        .flat_map(|(e, matches)| {
            matches
                .keys
                .rows()
                .enumerate()
                .filter_map(move |(i, row)| match row {
                    &[a, b] => Some((store.value(a), store.value(b), (e, i))),
                    _ => None,
                })
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup_by_key(|&mut (a, b, _)| (a, b));
    if pairs.len() > cfg.match_limit {
        return Err(());
    }
    Ok((pairs, per_egd))
}

/// Dedup one match task's bindings into a [`RowSet`] under the match
/// budget: the flag is set (and the enumeration stopped) as soon as the
/// task finds more than `limit` *distinct* rows — duplicate bindings of
/// a row already found never count against the budget.
fn budgeted_rows(
    plan: &CompiledCq,
    limit: usize,
    eval: impl FnOnce(&mut IdEmit<'_>),
) -> (RowSet, bool) {
    let mut set = RowSet::new(plan.head_arity());
    let mut over = false;
    eval(&mut |row| {
        if set.insert(row) && set.len() > limit {
            over = true;
            return false;
        }
        true
    });
    (set, over)
}

/// [`budgeted_rows`] for one match task of `body`. In certify mode each
/// full-assignment row is projected onto the match key, and the budget
/// counts distinct keys.
fn budgeted_matches(
    body: &MatchBody,
    plan: &CompiledCq,
    limit: usize,
    store: &FactStore,
    eval: impl FnOnce(&mut IdEmit<'_>),
) -> (Matches, bool) {
    let Some(w) = &body.cert else {
        let (keys, over) = budgeted_rows(plan, limit, eval);
        return (
            Matches {
                keys,
                ..Matches::default()
            },
            over,
        );
    };
    let mut matches = Matches::new(body);
    let mut over = false;
    let mut key: Vec<ValueId> = Vec::with_capacity(w.proj.len());
    eval(&mut |row| {
        key.clear();
        key.extend(w.proj.iter().map(|&p| row[p]));
        if matches.add(&key, row, store) && matches.keys.len() > limit {
            over = true;
            return false;
        }
        true
    });
    (matches, over)
}

/// The tgd phase's match pass: per rule, the round's triggers (with
/// their witnesses in certify mode) and — for rules with unfired
/// triggers — the satisfied frontier valuations. `Err(())` = match
/// budget exceeded.
#[allow(clippy::too_many_arguments)]
fn tgd_matches(
    schema: &Schema,
    store: &FactStore,
    rules: &[CompiledRule],
    fired: &[TriggerSet],
    seeds: &[Vec<u32>],
    first_round: bool,
    cfg: &ChaseConfig,
    cache: &mut PlanCache,
    idx: &mut DbIndex,
) -> Result<(Vec<Matches>, Vec<TriggerSet>), ()> {
    let bodies: Vec<&MatchBody> = rules.iter().map(|r| &r.body).collect();
    let (mut triggers, threads) = match_bodies(schema, store, &bodies, seeds, cfg, cache, idx)?;
    // A rule with an empty body has no atom to seed: its single trigger
    // (the empty valuation, witnessed by the empty assignment) exists
    // from round one.
    if first_round {
        for (r, rule) in rules.iter().enumerate() {
            if rule.body.rels.is_empty() {
                triggers[r].add(&[], &[], store);
            }
        }
    }
    // Head satisfaction, set-at-a-time, for rules with unfired
    // candidates. Head plans go through the cache too: a quiet store
    // serves them for free, a mutated one re-costs them.
    let mut satisfied: Vec<TriggerSet> = rules
        .iter()
        .map(|r| RowSet::new(r.head_u.head_arity()))
        .collect();
    let needy: Vec<usize> = (0..rules.len())
        .filter(|&r| triggers[r].keys.rows().any(|row| !fired[r].contains(row)))
        .collect();
    let head_plans: Vec<(Arc<CompiledUcq>, PreparedCq)> = needy
        .iter()
        .map(|&r| {
            let plan = cache
                .get_or_compile(&rules[r].head_u, None, schema, store)
                // ca-lint: allow(L002, reason = "compile_rule validated this head against the schema; plan errors are independent of statistics")
                .expect("rule heads are validated at compile time");
            let prepared = prepare_cq(sole(&plan), idx);
            (plan, prepared)
        })
        .collect();
    let shared = &*idx;
    let limit = cfg.match_limit;
    let head_results: Vec<(TriggerSet, bool)> = exec::map(needy.len(), threads, |i, _| {
        let (plan, prepared) = &head_plans[i];
        budgeted_rows(sole(plan), limit, |emit| {
            eval_prepared_ids(sole(plan), prepared, shared, emit);
        })
    });
    for (i, (set, over)) in head_results.into_iter().enumerate() {
        if over {
            return Err(());
        }
        satisfied[needy[i]] = set;
    }
    Ok((triggers, satisfied))
}

/// The chased (or partially chased) instance: one node per live fact, in
/// store-id (= creation) order, over the original generalized schema.
/// Values go through the union-find — a no-op after a completed rewrite,
/// load-bearing on the partial-progress paths where `rewrite` may lag the
/// merges already recorded.
fn rebuild(schema: &Schema, store: &FactStore, instance: &GenDb, uf: &UnionFind) -> GenDb {
    let mut out = GenDb::new(instance.schema.clone());
    for id in store.iter_live() {
        let row: Vec<Value> = store.fact_values(id).iter().map(|&v| uf.find(v)).collect();
        out.add_node(schema.name(store.fact_rel(id)), row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn nl(id: u32) -> Null {
        Null(id)
    }

    #[test]
    fn union_find_merges_deterministically() {
        let mut uf = UnionFind::default();
        // Null-null: the smaller id becomes the root.
        assert_eq!(uf.union(Value::null(7), Value::null(3)), Ok(Some(nl(7))));
        assert_eq!(uf.find(Value::null(7)), Value::null(3));
        // Null-const: the constant wins.
        assert_eq!(uf.union(Value::null(3), c(5)), Ok(Some(nl(3))));
        assert_eq!(uf.find(Value::null(7)), c(5));
        // Same class: no-op.
        assert_eq!(uf.union(Value::null(7), c(5)), Ok(None));
        // Const-const through the classes: clash.
        assert_eq!(uf.union(c(6), Value::null(7)), Err(()));
    }

    /// The engine's usage contract with the workspace columnar store:
    /// union-find substitutions applied via `rewrite` collapse duplicates
    /// silently and leave unrelated facts untouched.
    #[test]
    fn store_rewrite_touches_only_affected_facts_and_collapses_duplicates() {
        let mut store = FactStore::new();
        let rel = store.add_relation("R", 2);
        let a = store.insert(rel, &[c(1), Value::null(9)]).unwrap();
        let b = store.insert(rel, &[c(1), c(5)]).unwrap();
        let other = store.insert(rel, &[c(2), c(2)]).unwrap();
        // Duplicate insert interns to the existing fact.
        assert_eq!(store.insert(rel, &[c(1), c(5)]), None);
        let mut uf = UnionFind::default();
        assert_eq!(uf.union(Value::null(9), c(5)), Ok(Some(nl(9))));
        let changed = store.rewrite(&[nl(9)], |v| uf.find(v));
        // Fact `a` rewrote into `b`'s tuple: it collapses (goes dead)
        // rather than duplicating, and nothing is reported as changed.
        assert!(changed.is_empty());
        assert!(!store.is_live(a));
        assert!(store.is_live(b) && store.is_live(other));
        assert_eq!(store.fact_values(other), vec![c(2), c(2)]);
    }
}
