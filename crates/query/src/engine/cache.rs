//! A revision-keyed cache of compiled (U)CQ plans.
//!
//! The chase compiles every rule body once per round and the bench
//! harness recompiles each query per evaluation; both rebuilds are pure
//! waste when the store has not changed. A [`PlanCache`] keys compiled
//! plans by the query **and** the store's revision counter
//! ([`ca_core::store::FactStore::version`]): a hit requires the exact
//! query (structural equality, not just the fingerprint) at the exact
//! revision, so a mutated store can never serve a plan priced on stale
//! statistics. Invalidation is exact and free — the revision bump *is*
//! the invalidation.
//!
//! A stale plan would still be **correct** (compiled plans hold no row
//! references, only relation symbols), so invalidation here is about
//! re-optimizing against fresh statistics, not soundness. The cache
//! still refuses to serve stale entries: the contract "a cached plan is
//! the plan cold compilation would produce right now" is what the
//! determinism pins rely on.
//!
//! Determinism: buckets live in a `BTreeMap` and fingerprints come from
//! the workspace Fx hasher (`ca_core::fxhash::FxHasher` — fixed seed,
//! stable across runs and processes, and an order of magnitude cheaper
//! than SipHash on the hit path, which is the whole point of a cache),
//! so cache behaviour is reproducible and ca-lint's L007 hash-iteration
//! rule has nothing to flag. Entries whose pin or query collide on the
//! fingerprint fall back to structural equality within the bucket.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ca_core::fxhash::FxHasher;
use ca_core::store::FactStore;
use ca_relational::schema::Schema;

use crate::ast::UnionQuery;

use super::cost::CostModel;
use super::plan::{CompiledUcq, PlanError};

/// One cached compilation: the query it came from (for exact matching
/// under fingerprint collisions), the store revision it was priced at,
/// and the shared plan.
struct Entry {
    query: UnionQuery,
    pin: Option<usize>,
    version: u64,
    plan: Arc<CompiledUcq>,
}

/// A cache of cost-based compiled plans for **one** store's lifetime.
/// Create one per pipeline that repeatedly evaluates over the same
/// evolving store (the chase engine owns one); do not share a cache
/// across unrelated stores — revisions of different stores are not
/// comparable.
#[derive(Default)]
pub struct PlanCache {
    buckets: BTreeMap<u64, Vec<Entry>>,
    hits: u64,
    misses: u64,
}

/// A shape-level fingerprint: disjunct/atom counts, relation names,
/// arities, head widths, and the pin. Deliberately does **not** hash
/// the terms — the fingerprint only routes to a bucket, structural
/// equality inside the bucket decides the hit, so a coarser (and much
/// cheaper) hash trades a vanishingly rare extra comparison for less
/// work on every single hit.
fn fingerprint(q: &UnionQuery, pin: Option<usize>) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(q.disjuncts.len());
    for d in &q.disjuncts {
        h.write_usize(d.head.len());
        h.write_usize(d.atoms.len());
        for a in &d.atoms {
            h.write(a.rel.as_bytes());
            h.write_usize(a.args.len());
        }
    }
    pin.hash(&mut h);
    h.finish()
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The plan for `q` against `store`'s schema-compatible contents:
    /// served from cache when `q` was already compiled with this `pin`
    /// at the store's current revision, else compiled cost-based from
    /// the store's statistics and cached. With `pin`, every disjunct is
    /// compiled with that atom forced to the front (the seeded-evaluation
    /// contract of [`super::plan::CompiledCq::compile_costed`]); the pin
    /// is part of the cache key. Identical to a cold compile in every
    /// observable way.
    pub fn get_or_compile(
        &mut self,
        q: &UnionQuery,
        pin: Option<usize>,
        schema: &Schema,
        store: &FactStore,
    ) -> Result<Arc<CompiledUcq>, PlanError> {
        let fp = fingerprint(q, pin);
        let version = store.version();
        if let Some(entries) = self.buckets.get(&fp) {
            if let Some(e) = entries
                .iter()
                .find(|e| e.version == version && e.pin == pin && e.query == *q)
            {
                self.hits += 1;
                return Ok(Arc::clone(&e.plan));
            }
        }
        self.misses += 1;
        let model = CostModel::from_store(store);
        let plan = Arc::new(CompiledUcq::compile_each(q, schema, pin, &model)?);
        let entries = self.buckets.entry(fp).or_default();
        // One entry per (query, pin): a revision bump replaces, so the
        // cache stays bounded by the number of distinct queries.
        entries.retain(|e| e.pin != pin || e.query != *q);
        entries.push(Entry {
            query: q.clone(),
            pin,
            version,
            plan: Arc::clone(&plan),
        });
        Ok(plan)
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Compilations performed (cold misses and revision-bump recompiles).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, ConjunctiveQuery, Term::Var as V};
    use ca_core::value::Value;

    fn setup() -> (FactStore, Schema, UnionQuery) {
        let mut s = FactStore::new();
        let r = s.add_relation("R", 2);
        for i in 0..20 {
            s.insert(r, &[Value::Const(i), Value::Const(i + 1)]);
        }
        let schema = Schema::from_relations(&[("R", 2)]);
        let q = UnionQuery::single(ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ],
        ));
        (s, schema, q)
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_plan() {
        let (s, schema, q) = setup();
        let mut cache = PlanCache::new();
        let a = cache.get_or_compile(&q, None, &schema, &s).unwrap();
        let b = cache.get_or_compile(&q, None, &schema, &s).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the compiled plan");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn store_mutation_invalidates_exactly() {
        let (mut s, schema, q) = setup();
        let mut cache = PlanCache::new();
        let a = cache.get_or_compile(&q, None, &schema, &s).unwrap();
        let r = s.relation("R").unwrap();
        assert!(s
            .insert(r, &[Value::Const(100), Value::Const(101)])
            .is_some());
        let b = cache.get_or_compile(&q, None, &schema, &s).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "revision bump must recompile");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1, "the stale entry is replaced, not kept");
        // A duplicate insert does not bump the revision: still a hit.
        assert!(s
            .insert(r, &[Value::Const(100), Value::Const(101)])
            .is_none());
        let c = cache.get_or_compile(&q, None, &schema, &s).unwrap();
        assert!(Arc::ptr_eq(&b, &c));
    }

    #[test]
    fn pinned_and_unpinned_plans_are_distinct_entries() {
        let (s, schema, q) = setup();
        let mut cache = PlanCache::new();
        let plain = cache.get_or_compile(&q, None, &schema, &s).unwrap();
        let pinned = cache.get_or_compile(&q, Some(1), &schema, &s).unwrap();
        assert!(!Arc::ptr_eq(&plain, &pinned));
        assert_eq!(cache.len(), 2);
        assert!(Arc::ptr_eq(
            &pinned,
            &cache.get_or_compile(&q, Some(1), &schema, &s).unwrap()
        ));
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let (s, schema, _) = setup();
        let bad = UnionQuery::single(ConjunctiveQuery::boolean(vec![Atom::new(
            "Nope",
            vec![V(0)],
        )]));
        let mut cache = PlanCache::new();
        assert!(cache.get_or_compile(&bad, None, &schema, &s).is_err());
        assert!(cache.is_empty());
    }
}
