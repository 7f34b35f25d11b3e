//! Property-based tests inside the relational crate: homomorphism
//! verification, glb laws with the fresh-null discipline, parsing
//! round-trips, and the Codd/CWA algorithms.

use proptest::prelude::*;

use ca_core::preorder::Preorder;
use ca_core::value::Value;
use ca_relational::database::{Fact, NaiveDatabase};
use ca_relational::generate::{random_codd_db, random_naive_db, random_schema, DbParams, Rng};
use ca_relational::glb::glb_databases;
use ca_relational::hom::{find_hom, is_hom};
use ca_relational::ordering::InfoOrder;
use ca_relational::parse::parse_database;
use ca_relational::schema::Schema;
use ca_relational::tuplewise::{cwa_leq_codd, hoare_leq};

fn arb_db() -> impl Strategy<Value = NaiveDatabase> {
    any::<u64>().prop_map(|seed| {
        random_naive_db(
            &mut Rng::new(seed),
            DbParams {
                n_facts: 4,
                arity: 2,
                n_constants: 3,
                n_nulls: 2,
                null_pct: 40,
            },
        )
    })
}

fn arb_codd() -> impl Strategy<Value = NaiveDatabase> {
    any::<u64>().prop_map(|seed| random_codd_db(&mut Rng::new(seed), 3, 2, 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn found_homs_verify(a in arb_db(), b in arb_db()) {
        if let Some(h) = find_hom(&a, &b) {
            prop_assert!(is_hom(&a, &b, &h));
        }
    }

    /// The glb's projection homomorphisms exist in both directions of the
    /// construction (lower bound), and the glb of `a` with itself is
    /// equivalent to `a`.
    #[test]
    fn glb_self_is_identity_up_to_equivalence(a in arb_db()) {
        let meet = glb_databases(&a, &a);
        prop_assert!(InfoOrder.leq(&meet, &a));
        prop_assert!(InfoOrder.leq(&a, &meet));
    }

    /// Monotonicity of glb: if a ⊑ a′ then a ∧ b ⊑ a′ ∧ b.
    #[test]
    fn glb_is_monotone(a in arb_db(), b in arb_db()) {
        let (a_grounded, _) = a.freeze(&std::collections::BTreeSet::new());
        let m1 = glb_databases(&a, &b);
        let m2 = glb_databases(&a_grounded, &b);
        prop_assert!(InfoOrder.leq(&m1, &m2));
    }

    /// Proposition 4 and Proposition 8 as properties (Codd pairs).
    #[test]
    fn codd_orderings(a in arb_codd(), b in arb_codd()) {
        prop_assert_eq!(InfoOrder.leq(&a, &b), hoare_leq(&a, &b));
        // Prop 8 implies ⊑_cwa ⇒ ⊑ (an onto hom is a hom).
        if cwa_leq_codd(&a, &b) {
            prop_assert!(InfoOrder.leq(&a, &b));
        }
    }

    /// Print-and-reparse round trip: rendering a database in the text
    /// syntax and parsing it back yields an isomorphic instance (equal up
    /// to null renaming — we check hom-equivalence plus size).
    #[test]
    fn parse_roundtrip(a in arb_db()) {
        let mut text = String::new();
        for f in a.facts() {
            text.push_str(a.schema.name(f.rel));
            text.push('(');
            for (i, v) in f.args.iter().enumerate() {
                if i > 0 {
                    text.push(',');
                }
                match v {
                    Value::Const(c) => text.push_str(&c.to_string()),
                    Value::Null(n) => text.push_str(&format!("?n{}", n.0)),
                }
            }
            text.push_str(")\n");
        }
        if a.is_empty() {
            return Ok(()); // the empty text parses to an empty schema
        }
        let parsed = parse_database(&text).unwrap();
        prop_assert_eq!(parsed.len(), a.len());
        prop_assert!(find_hom(&a, &parsed).is_some());
        prop_assert!(find_hom(&parsed, &a).is_some());
    }

    /// Completions are models: every completion over a pool is in [[D]].
    #[test]
    fn completions_are_members(a in arb_codd()) {
        for r in a.completions_over(&[0, 1]) {
            prop_assert!(ca_relational::hom::in_semantics(&r, &a));
        }
    }
}

/// A random fact list over a random schema: a small value domain so
/// duplicates are common, plus explicit repeats, in shuffled order.
fn raw_facts(seed: u64) -> (Schema, Vec<Fact>) {
    let mut rng = Rng::new(seed);
    let n_relations = 1 + rng.below(3) as usize;
    let schema = random_schema(&mut rng, n_relations, 3);
    let symbols: Vec<_> = schema.symbols().collect();
    let mut facts: Vec<Fact> = (0..rng.below(40))
        .map(|_| {
            let rel = symbols[rng.below(symbols.len() as u64) as usize];
            let args = (0..schema.arity(rel))
                .map(|_| match rng.below(3) {
                    0 => Value::null(rng.below(3) as u32),
                    _ => Value::Const(rng.below(3) as i64),
                })
                .collect();
            Fact { rel, args }
        })
        .collect();
    for _ in 0..rng.below(10).min(facts.len() as u64) {
        let dup = facts[rng.below(facts.len() as u64) as usize].clone();
        facts.push(dup);
    }
    for i in (1..facts.len()).rev() {
        facts.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (schema, facts)
}

/// The panic message of `f`, if it panics.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
    std::panic::catch_unwind(f)
        .err()
        .map(|e| match e.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e
                .downcast::<&str>()
                .map_or_else(|_| String::new(), |s| s.to_string()),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bulk build equals the per-fact `add_fact` build on shuffled
    /// input with duplicates, and answers `relation`/`contains` alike.
    #[test]
    fn from_facts_equals_per_fact_build(seed in any::<u64>()) {
        let (schema, facts) = raw_facts(seed);
        let mut oracle = NaiveDatabase::new(schema.clone());
        for f in facts.clone() {
            oracle.add_fact(f.rel, f.args);
        }
        let bulk = NaiveDatabase::from_facts(schema.clone(), facts.clone());
        prop_assert_eq!(bulk.facts(), oracle.facts());
        prop_assert!(bulk == oracle);
        for sym in schema.symbols() {
            let by_filter: Vec<&Fact> = oracle.facts().iter().filter(|f| f.rel == sym).collect();
            prop_assert_eq!(bulk.relation(sym).collect::<Vec<_>>(), by_filter);
        }
        for f in &facts {
            prop_assert!(bulk.contains(f.rel, &f.args));
            let mut other = f.args.clone();
            other.push(Value::Const(0));
            prop_assert!(!bulk.contains(f.rel, &other));
        }
    }
}

proptest! {
    // Few cases: each one prints two expected panic messages.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A wrong arity panics in the bulk build exactly as in `add_fact`.
    #[test]
    fn from_facts_rejects_arity_like_add_fact(seed in any::<u64>()) {
        let (schema, mut facts) = raw_facts(seed);
        if facts.is_empty() {
            return Ok(());
        }
        let bad = (seed % facts.len() as u64) as usize;
        facts[bad].args.push(Value::Const(7));
        let (s1, f1) = (schema.clone(), facts.clone());
        let per_fact = panic_message(move || {
            let mut db = NaiveDatabase::new(s1);
            for f in f1 {
                db.add_fact(f.rel, f.args);
            }
        });
        let bulk = panic_message(move || {
            NaiveDatabase::from_facts(schema, facts);
        });
        prop_assert!(per_fact.as_deref().is_some_and(|m| m.contains("arity mismatch")));
        prop_assert_eq!(bulk, per_fact);
    }
}

/// Deterministic regression: schema compatibility is reflexive/symmetric
/// on generated schemas.
#[test]
fn schema_compat_laws() {
    let schemas = [
        Schema::from_relations(&[("R", 2)]),
        Schema::from_relations(&[("R", 2), ("S", 1)]),
        Schema::from_relations(&[("S", 1), ("R", 2)]),
    ];
    for a in &schemas {
        assert!(a.compatible_with(a));
    }
    assert!(schemas[1].compatible_with(&schemas[2]));
    assert!(schemas[2].compatible_with(&schemas[1]));
    assert!(!schemas[0].compatible_with(&schemas[1]));
}
