//! Bridge between the `Vec<Value>`-based [`NaiveDatabase`] API surface
//! and the workspace columnar store ([`ca_core::store::FactStore`]).
//!
//! The naïve-database types stay the interface for tests, the parser,
//! and the differential oracles; the engines evaluate over the columnar
//! store. [`to_store`] is the O(facts) bulk ingest (the database is
//! already deduplicated and sorted, so it uses the store's unchecked
//! append path); [`from_store`] resolves live facts back to values and
//! builds the database with one bulk sort ([`NaiveDatabase::from_facts`]).
//!
//! Relation symbols are registered in schema declaration order, so a
//! bridged store's symbols are *identical* (same indices) to the
//! schema's — engines can use one symbol space for both.

use ca_core::store::{FactStore, ValueId};

use crate::database::{Fact, NaiveDatabase};
use crate::schema::Schema;

/// Load a naïve database into a fresh columnar store.
pub fn to_store(db: &NaiveDatabase) -> FactStore {
    let mut s = FactStore::new();
    for sym in db.schema.symbols() {
        let reg = s.add_relation(db.schema.name(sym), db.schema.arity(sym));
        debug_assert_eq!(reg, sym, "store symbols mirror schema symbols");
    }
    // Facts are sorted, so each relation's tuples are one consecutive
    // run: intern a whole run into one flat id buffer and bulk-append it
    // with `extend_ids` (columns reserve once per run instead of growing
    // per fact). This is the bulk path behind every `DbIndex::new`, so
    // per-fact overhead matters; run-by-run appends assign the same fact
    // ids as the per-fact path did.
    let mut ids: Vec<ValueId> = Vec::new();
    let mut run_rel = None;
    let mut run_len: u32 = 0;
    for f in db.facts() {
        if run_rel != Some(f.rel) {
            if let Some(rel) = run_rel {
                s.extend_ids(rel, run_len, &ids);
            }
            ids.clear();
            run_rel = Some(f.rel);
            run_len = 0;
        }
        ids.extend(f.args.iter().map(|&v| s.intern_value(v)));
        run_len += 1;
    }
    if let Some(rel) = run_rel {
        s.extend_ids(rel, run_len, &ids);
    }
    s
}

/// Materialize the live facts of a store as a naïve database.
pub fn from_store(s: &FactStore) -> NaiveDatabase {
    let mut schema = Schema::new();
    for rel in s.relations() {
        schema.add_relation(s.rel_name(rel), s.arity(rel));
    }
    let mut facts = Vec::with_capacity(s.n_live() as usize);
    facts.extend(s.iter_live().map(|f| Fact {
        rel: s.fact_rel(f),
        args: s.fact_values(f),
    }));
    NaiveDatabase::from_facts(schema, facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::build::{c, n};

    fn sample() -> NaiveDatabase {
        let schema = Schema::from_relations(&[("R", 2), ("S", 1)]);
        let mut db = NaiveDatabase::new(schema);
        db.add("R", vec![c(1), n(1)]);
        db.add("R", vec![n(1), c(2)]);
        db.add("R", vec![c(1), c(2)]);
        db.add("S", vec![n(2)]);
        db.add("S", vec![c(3)]);
        db
    }

    #[test]
    fn roundtrip_is_identity() {
        let db = sample();
        let s = to_store(&db);
        assert_eq!(s.n_live(), db.len() as u32);
        assert_eq!(from_store(&s), db);
    }

    #[test]
    fn store_symbols_mirror_schema_symbols() {
        let db = sample();
        let s = to_store(&db);
        for sym in db.schema.symbols() {
            assert_eq!(s.relation(db.schema.name(sym)), Some(sym));
            assert_eq!(s.arity(sym), db.schema.arity(sym));
        }
    }

    #[test]
    fn snapshot_roundtrip_through_bytes_preserves_database() {
        let db = sample();
        let bytes = to_store(&db).to_bytes();
        let loaded = FactStore::from_bytes(&bytes).expect("snapshot loads");
        assert_eq!(from_store(&loaded), db);
    }
}
