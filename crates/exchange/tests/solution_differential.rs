//! Differential test: `canonical_solution`, which appends each rule
//! application in place, against the fold `out = out ⊔ app` it replaced,
//! kept here verbatim as the oracle (one clone of the growing solution
//! per application). Random source instances, random rule subsets, and
//! a head with a structural tuple so node-id shifting is exercised.

use proptest::prelude::*;

use ca_core::value::Value;
use ca_exchange::mapping::{Mapping, Rule};
use ca_exchange::solution::canonical_solution;
use ca_gdm::database::GenDb;
use ca_gdm::schema::GenSchema;
use ca_relational::generate::{random_naive_db, DbParams, Rng};

fn n(id: u32) -> Value {
    Value::null(id)
}

fn source() -> GenSchema {
    GenSchema::from_parts(&[("R", 2)], &[])
}

fn target() -> GenSchema {
    GenSchema::from_parts(&[("T", 2), ("U", 1)], &[("e", 2)])
}

fn gen_source(seed: u64, n_facts: usize) -> GenDb {
    let db = random_naive_db(
        &mut Rng::new(seed),
        DbParams {
            n_facts,
            arity: 2,
            n_constants: 4,
            n_nulls: 3,
            null_pct: 30,
        },
    );
    let mut out = GenDb::new(source());
    for fact in db.facts() {
        out.add_node("R", fact.args.clone());
    }
    out
}

/// Rule pool selected by `bits`: a copy rule R(x,y) → T(x,y); an
/// existential R(x,y) → ∃z T(x,z), T(z,y), e(0,1); a projection
/// R(x,y) → U(y).
fn mapping(bits: u8) -> Mapping {
    let body = || {
        let mut b = GenDb::new(source());
        b.add_node("R", vec![n(1), n(2)]);
        b
    };
    let mut rules = Vec::new();
    if bits & 1 != 0 {
        let mut head = GenDb::new(target());
        head.add_node("T", vec![n(1), n(2)]);
        rules.push(Rule { body: body(), head });
    }
    if bits & 2 != 0 {
        let mut head = GenDb::new(target());
        let a = head.add_node("T", vec![n(1), n(3)]);
        let b = head.add_node("T", vec![n(3), n(2)]);
        head.add_tuple("e", vec![a, b]);
        rules.push(Rule { body: body(), head });
    }
    if bits & 4 != 0 {
        let mut head = GenDb::new(target());
        head.add_node("U", vec![n(2)]);
        rules.push(Rule { body: body(), head });
    }
    Mapping::new(rules)
}

/// The replaced disjoint union: clone `a`, then copy `b` after it with
/// shifted structural tuples.
fn old_disjoint_union(a: &GenDb, b: &GenDb) -> GenDb {
    assert_eq!(a.schema, b.schema, "same schema required");
    let shift = a.n_nodes() as u32;
    let mut out = a.clone();
    out.labels.extend(b.labels.iter().copied());
    out.data.extend(b.data.iter().cloned());
    for (rel, nodes) in &b.tuples {
        out.tuples
            .push((*rel, nodes.iter().map(|&x| x + shift).collect()));
    }
    out
}

/// The replaced canonical solution: a fold of [`old_disjoint_union`].
fn fold_oracle(m: &Mapping, d: &GenDb, tgt: &GenSchema) -> GenDb {
    let mut out = GenDb::new(tgt.clone());
    for app in m.applications(d) {
        out = old_disjoint_union(&out, &app);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_solution_equals_disjoint_union_fold(
        seed in 0u64..10_000,
        facts in 0usize..9,
        bits in 0u8..8,
    ) {
        let d = gen_source(seed, facts);
        let m = mapping(bits);
        let got = canonical_solution(&m, &d, &target());
        prop_assert_eq!(&got, &fold_oracle(&m, &d, &target()));
        // `disjoint_union` shares the `append` path: folding it gives the
        // same database too.
        let mut via_union = GenDb::new(target());
        for app in m.applications(&d) {
            via_union = via_union.disjoint_union(&app);
        }
        prop_assert_eq!(&got, &via_union);
    }
}
