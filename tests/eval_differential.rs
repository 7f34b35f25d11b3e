//! Differential tests: the compiled query engine (`ca_query::engine`)
//! against the retained nested-loop evaluator (`ca_query::reference`) on
//! random multi-relation schemas, naïve databases, and UCQs.
//!
//! The reference evaluator is the exact pre-engine code, so any
//! disagreement here is a regression in the engine. Agreement is asserted
//! on full answer *tables* (ordered sets of rows), not just Booleans, and
//! the parallel certain-answer sweep must be byte-identical at every
//! thread count.

use proptest::prelude::*;

use std::collections::BTreeSet;

use ca_core::exec;
use ca_core::value::Value;
use ca_query::certain::{
    adequate_pool, certain_answer_bool_with, certain_answer_fo, certain_table_with,
    naive_eval_table, ucq_constants,
};
use ca_query::certify;
use ca_query::engine::{self, sweep, CompiledUcq, CompletionSpace, CostModel, DbIndex};
use ca_query::eval::eval_fo;
use ca_query::generate::{random_cq_over, random_ucq_over, QueryParams};
use ca_query::reference;
use ca_query::{Atom, ConjunctiveQuery, Fo, Term, UnionQuery};
use ca_relational::database::NaiveDatabase;
use ca_relational::generate::{random_naive_db_over, random_schema, DbParams, Rng};
use ca_relational::schema::Schema;

/// One random instance: a schema of 1–3 relations (arity ≤ 3), a naïve
/// database over it, and a UCQ with a random head arity.
fn instance(seed: u64) -> (Schema, NaiveDatabase, UnionQuery) {
    let mut rng = Rng::new(seed);
    let schema = random_schema(&mut rng, 1 + (seed % 3) as usize, 3);
    let db = random_naive_db_over(
        &mut rng,
        &schema,
        DbParams {
            n_facts: 6,
            arity: 0, // ignored: arities come from the schema
            n_constants: 3,
            n_nulls: 3,
            null_pct: 35,
        },
    );
    let head_arity = rng.below(3) as usize;
    let params = QueryParams {
        n_disjuncts: 1 + rng.below(2) as usize,
        n_atoms: 1 + rng.below(3) as usize,
        n_vars: 4,
        arity: 0,
        n_constants: 3,
        const_pct: 25,
    };
    let q = random_ucq_over(&mut rng, &schema, head_arity, params);
    (schema, db, q)
}

/// A small random sweep instance — 1–2 relations of arity ≤ 2, 4 facts,
/// `n_nulls` nulls filling `null_pct`% of positions — and a 2-disjunct
/// UCQ with `const_pct`% constant terms, cheap enough to brute-force the
/// full `|pool|^#nulls` grid.
fn sweep_instance(
    seed: u64,
    n_nulls: u32,
    null_pct: u64,
    const_pct: u64,
) -> (NaiveDatabase, UnionQuery) {
    let mut rng = Rng::new(seed);
    let schema = random_schema(&mut rng, 2, 2);
    let db = random_naive_db_over(
        &mut rng,
        &schema,
        DbParams {
            n_facts: 4,
            arity: 0,
            n_constants: 2,
            n_nulls,
            null_pct,
        },
    );
    let head_arity = rng.below(2) as usize;
    let q = random_ucq_over(
        &mut rng,
        &schema,
        head_arity,
        QueryParams {
            n_disjuncts: 2,
            n_atoms: 2,
            n_vars: 3,
            arity: 0,
            n_constants: 2,
            const_pct,
        },
    );
    (db, q)
}

/// An instance for the id-level table runner: 1–3 relations of arity
/// ≤ 3, 40 facts over 6 constants and 4 nulls, and a UCQ of 1–3
/// disjuncts of differing shapes (1–3 atoms, 1–4 variables each) with a
/// head arity of 0–3 — so answer rows take both the packed (≤ 2) and
/// the general (3) dedup key. Head variables are drawn with
/// replacement, and one disjunct in three repeats a single variable in
/// every head column, `(x, x, …)`.
fn runner_instance(seed: u64) -> (NaiveDatabase, UnionQuery) {
    let mut rng = Rng::new(seed);
    let schema = random_schema(&mut rng, 1 + (seed % 3) as usize, 3);
    let db = random_naive_db_over(
        &mut rng,
        &schema,
        DbParams {
            n_facts: 40,
            arity: 0,
            n_constants: 6,
            n_nulls: 4,
            null_pct: 30,
        },
    );
    let head_arity = rng.below(4) as usize;
    let disjuncts = (0..1 + rng.below(3))
        .map(|_| {
            let params = QueryParams {
                n_disjuncts: 1,
                n_atoms: 1 + rng.below(3) as usize,
                n_vars: 1 + rng.below(4) as u32,
                arity: 0,
                n_constants: 6,
                const_pct: 15,
            };
            let mut cq = random_cq_over(&mut rng, &schema, head_arity, params);
            if head_arity > 1 && rng.chance(1, 3) {
                cq.head = vec![cq.head[0]; head_arity];
            }
            cq
        })
        .collect();
    (db, UnionQuery::new(disjuncts))
}

/// `eval_ucq_gated` and `eval_ucq_partitioned` against the reference at
/// widths 1, 2, 4 and 7, under the uninformed (greedy-order) plan and
/// the index's cost-based plan.
fn assert_runners_match_reference(
    db: &NaiveDatabase,
    q: &UnionQuery,
) -> Result<(), proptest::TestCaseError> {
    let want = reference::eval_ucq(q, db);
    let idx = DbIndex::new(db);
    let plans = [
        CompiledUcq::compile_costed(q, &db.schema, &CostModel::default()),
        CompiledUcq::compile_costed(q, &db.schema, idx.model()),
    ];
    for plan in plans {
        let plan = plan.expect("generated over the schema");
        for width in [1, 2, 4, 7] {
            prop_assert_eq!(
                &engine::eval_ucq_gated(&plan, &mut DbIndex::new(db), width),
                &want,
                "gated at width {} on {:?}",
                width,
                q
            );
            prop_assert_eq!(
                &engine::eval_ucq_partitioned(&plan, &mut DbIndex::new(db), width),
                &want,
                "partitioned at width {} on {:?}",
                width,
                q
            );
        }
    }
    Ok(())
}

/// The gated runner's size-gated branches against the reference, over
/// a lead relation `R` of over 4,096 distinct rows (`PART_MIN_ROWS`): at width 1 the
/// three-atom chain runs semijoin-reduced (`S`'s first column covers
/// only part of `R`'s join column, so reduction prunes), and at every
/// wider width both queries partition their lead rows. Heads of arity
/// 2 and 3 cover both dedup keys; nulls cover tagged ids.
#[test]
fn gated_runner_size_branches_agree_with_reference() {
    let mut rng = Rng::new(0x1d5);
    let mut facts: Vec<String> = Vec::new();
    let mut value = |domain: u64| {
        if rng.chance(5, 100) {
            format!("?n{}", rng.below(8))
        } else {
            rng.below(domain).to_string()
        }
    };
    for (rel, rows, (da, db)) in [
        ("R", 4400, (1000, 64)),
        ("S", 300, (40, 64)),
        ("T", 40, (64, 1000)),
    ] {
        for _ in 0..rows {
            let (a, b) = (value(da), value(db));
            facts.push(format!("{rel}({a}, {b})"));
        }
    }
    let db =
        ca_relational::parse::parse_database(&facts.join("; ")).expect("generated database parses");
    let lead = db.schema.relation("R").expect("R is declared");
    assert!(db.relation(lead).count() >= engine::PART_MIN_ROWS);
    for q in [
        "(x, w) :- R(x, y), S(y, z), T(z, w)",
        "(x, z, z) :- R(x, y), S(y, z), T(z, w)",
        "(x, z) :- R(x, y), S(y, z)",
        "(x, y, z) :- R(x, y), S(y, z)",
    ] {
        let q = ca_query::parse::parse_ucq(q).expect("fixed query parses");
        assert_runners_match_reference(&db, &q).unwrap();
    }
}

/// `rows` minus every row naming one of the `fresh` constants.
fn without_fresh(rows: BTreeSet<Vec<Value>>, fresh: &[i64]) -> BTreeSet<Vec<Value>> {
    rows.into_iter()
        .filter(|row| {
            !row.iter()
                .any(|v| matches!(v, Value::Const(k) if fresh.contains(k)))
        })
        .collect()
}

/// Generic FO sentences derived from a Boolean UCQ, beyond the UCQ
/// fragment: the UCQ itself, its negation, one disjunct without the
/// other, and the first disjunct with two of its variables forced apart
/// (where identifying fresh constants matters).
fn fo_sentences(bq: &UnionQuery) -> Vec<Fo> {
    let first = &bq.disjuncts[0];
    let last = &bq.disjuncts[bq.disjuncts.len() - 1];
    let mut out = vec![
        Fo::from_ucq(bq),
        Fo::from_ucq(bq).not(),
        Fo::And(vec![Fo::from_cq(first), Fo::from_cq(last).not()]),
    ];
    let vars = first.body_vars();
    if let [a, b, ..] = vars[..] {
        let mut body: Vec<Fo> = first.atoms.iter().cloned().map(Fo::Atom).collect();
        body.push(Fo::Eq(Term::Var(a), Term::Var(b)).not());
        out.push(
            vars.iter()
                .rev()
                .fold(Fo::And(body), |acc, &v| Fo::exists(v, acc)),
        );
    }
    out
}

/// The reduced sweep (one completion per fresh-constant orbit over
/// [`CompletionSpace::adequate`]) against the full grid over the same
/// pool with every constant fixed, minus fresh-constant rows: tables,
/// Booleans and FO sentences, at widths 1, 2, 4 and 7. The full grid is
/// swept once, sequentially.
fn assert_reduced_matches_full(
    db: &NaiveDatabase,
    q: &UnionQuery,
) -> Result<(), proptest::TestCaseError> {
    let bq = certify::boolean_form(q);
    let reduced = CompletionSpace::adequate(db, &ucq_constants(q));
    let full = CompletionSpace::new(db, reduced.pool());
    let fresh = &reduced.pool()[reduced.pool().len() - db.nulls().len()..];
    let plan = CompiledUcq::compile_lenient(q, &db.schema, &reduced.model());
    let bplan = CompiledUcq::compile_lenient(&bq, &db.schema, &reduced.model());
    let table = without_fresh(engine::certain_table_over(&plan, &full, 1), fresh);
    let verdict = engine::certain_bool_over(&bplan, &full, 1);
    let phis = fo_sentences(&bq);
    let fo: Vec<bool> = phis
        .iter()
        .map(|phi| sweep::parallel_all(full.len(), 1, |i| eval_fo(phi, &full.completion(i))))
        .collect();
    for width in [1, 2, 4, 7] {
        prop_assert_eq!(
            &engine::certain_table_over(&plan, &reduced, width),
            &table,
            "table at width {} on {:?} over {:?}",
            width,
            q,
            db
        );
        prop_assert_eq!(
            engine::certain_bool_over(&bplan, &reduced, width),
            verdict,
            "Boolean at width {}",
            width
        );
        for (phi, &want) in phis.iter().zip(&fo) {
            prop_assert_eq!(
                reduced.all(width, |i| eval_fo(phi, &reduced.completion(i))),
                want,
                "FO {:?} at width {}",
                phi,
                width
            );
        }
    }
    prop_assert_eq!(certain_table_with(q, db, 1), table);
    prop_assert_eq!(certain_answer_bool_with(&bq, db, 1), verdict);
    for (phi, &want) in phis.iter().zip(&fo) {
        prop_assert_eq!(certain_answer_fo(phi, db), want);
    }
    Ok(())
}

/// Every grid so far stays below the sweep's parallel threshold (20,000
/// completions), so none runs chunked: this one has 3 constants and 5
/// nulls (8⁵ = 32,768 completions, 1,915 orbits, all in the first half
/// of the index range — the later chunks skip every index). The 2-path
/// query's certain table stays non-empty, so no chunk exits early; the
/// self-loop query's empties, so the chunks cut each other.
#[test]
fn reduced_sweep_matches_full_grid_past_the_parallel_threshold() {
    let db = ca_relational::parse::parse_database(
        "R(0, 1); R(1, 2); R(2, 0); R(0, ?a); R(?a, ?b); R(?b, ?c); R(?c, ?d); R(?d, ?e); R(?e, 1)",
    )
    .expect("fixed database parses");
    for q in ["(x, z) :- R(x, y), R(y, z)", "(x) :- R(x, x)"] {
        let q = ca_query::parse::parse_ucq(q).expect("fixed query parses");
        let space = CompletionSpace::adequate(&db, &ucq_constants(&q));
        assert_eq!(space.len(), 32_768);
        assert_eq!(
            (0..space.len()).filter(|&i| space.is_canonical(i)).count(),
            1_915
        );
        assert_reduced_matches_full(&db, &q).unwrap();
    }
}

proptest! {
    /// The headline invariant: the engine's UCQ answer table equals the
    /// reference evaluator's, row for row (both are BTreeSets, so equality
    /// is order-insensitive but content-exact, nulls included).
    #[test]
    fn engine_tables_agree_with_reference(seed in any::<u64>()) {
        let (_, db, q) = instance(seed);
        prop_assert_eq!(
            engine::eval_ucq(&q, &db, exec::width()).expect("generated over the schema"),
            reference::eval_ucq(&q, &db),
            "on {:?} over {:?}", &q, &db
        );
    }

    /// The id-level table runners dedup exactly like the reference
    /// evaluator: gated and partitioned, at widths 1, 2, 4 and 7, over
    /// head arities 0–3, repeated head variables and mixed disjuncts.
    #[test]
    fn id_level_runners_agree_with_reference(seed in any::<u64>()) {
        let (db, q) = runner_instance(seed);
        assert_runners_match_reference(&db, &q)?;
    }

    /// Boolean evaluation (early-exit path) agrees with the reference.
    #[test]
    fn engine_bools_agree_with_reference(seed in any::<u64>()) {
        let (_, db, q) = instance(seed);
        // Rebuild as a Boolean query: drop the heads.
        let bq = UnionQuery::new(
            q.disjuncts
                .iter()
                .map(|d| ConjunctiveQuery::boolean(d.atoms.clone()))
                .collect(),
        );
        prop_assert_eq!(
            engine::eval_ucq_bool(&bq, &db).expect("generated over the schema"),
            reference::eval_ucq_bool(&bq, &db)
        );
    }

    /// Per-disjunct agreement too (exercises the CQ entry point and the
    /// head-projection machinery disjunct by disjunct).
    #[test]
    fn engine_cqs_agree_with_reference(seed in any::<u64>()) {
        let (_, db, q) = instance(seed);
        for d in &q.disjuncts {
            prop_assert_eq!(
                engine::eval_cq(d, &db, exec::width()).expect("generated over the schema"),
                reference::eval_cq(d, &db)
            );
        }
    }

    /// The parallel certain-answer sweep is deterministic: threads=1 and
    /// threads=4 produce identical tables and Booleans. (Kept to modest
    /// null counts so the |pool|^#nulls sweep stays small.)
    #[test]
    fn sweep_is_thread_count_invariant(seed in any::<u64>()) {
        let (db, q) = sweep_instance(seed ^ 0x5eed, 2, 40, 25);
        let seq = certain_table_with(&q, &db, 1);
        let par = certain_table_with(&q, &db, 4);
        prop_assert_eq!(&seq, &par, "certain_table differs across thread counts");
        // Boolean driver: also thread-count invariant, and consistent with
        // the table for Boolean queries.
        let bq = certify::boolean_form(&q);
        prop_assert_eq!(
            certain_answer_bool_with(&bq, &db, 1),
            certain_answer_bool_with(&bq, &db, 4)
        );
    }

    /// Certificate round-trip: every verdict the certified drivers emit
    /// must replay through the engine-blind checker — engine, reference,
    /// and certificate all agree. (Same small instances as the sweep
    /// invariant so the |pool|^#nulls grid stays cheap.)
    #[test]
    fn certified_verdicts_round_trip(seed in any::<u64>()) {
        use ca_cert::{check_certain_row, check_non_certain, CertainVerdictCert};

        let (db, q) = sweep_instance(seed ^ 0xce47, 2, 40, 25);
        let facts = certify::db_facts(&db);

        // Boolean verdict: agrees with the uncertified driver, and the
        // certificate (either polarity) passes the checker.
        let (verdict, cert) = certify::certain_bool_certified(&q, &db, 1);
        prop_assert_eq!(verdict, certain_answer_bool_with(&q, &db, 1));
        let bq = certify::cert_query(&certify::boolean_form(&q));
        match cert {
            Some(CertainVerdictCert::Certain(m)) => {
                prop_assert!(verdict, "certain cert on a non-certain verdict");
                prop_assert_eq!(check_certain_row(&bq, &facts, &m), Ok(()));
            }
            Some(CertainVerdictCert::NonCertain(nc)) => {
                prop_assert!(!verdict, "non-certain cert on a certain verdict");
                prop_assert_eq!(check_non_certain(&bq, &facts, &nc), Ok(()));
            }
            None => prop_assert!(
                db.nulls().is_empty() || !verdict,
                "cert withheld outside the vacuous corner"
            ),
        }

        // Table: agrees with the uncertified driver, every row carries a
        // checkable naïve match, and a fabricated non-row is refutable
        // with a checkable completion.
        let (table, certs) = certify::certain_table_certified(&q, &db, 1);
        prop_assert_eq!(&table, &certain_table_with(&q, &db, 1));
        prop_assert_eq!(certs.len(), table.len(), "uncertified certain row");
        let cq = certify::cert_query(&q);
        for (row, m) in &certs {
            prop_assert!(table.contains(row));
            prop_assert_eq!(check_certain_row(&cq, &facts, m), Ok(()));
        }
        let bogus = vec![ca_core::value::Value::Const(987_654); q.head_arity()];
        if !table.contains(&bogus) && !db.nulls().is_empty() {
            let nc = certify::refute_row(&q, &db, &bogus)
                .expect("a non-certain row must have a falsifying completion");
            prop_assert_eq!(check_non_certain(&cq, &facts, &nc), Ok(()));
        }
    }

    /// Lenient compilation matches the reference evaluator even when the
    /// query mentions relations outside the schema: the broken disjunct
    /// contributes nothing, the others still answer.
    #[test]
    fn lenient_path_agrees_on_broken_queries(seed in any::<u64>()) {
        let (schema, db, q) = instance(seed);
        // Inject a disjunct over an unknown relation, same head arity.
        let head_arity = q.head_arity();
        let broken = ConjunctiveQuery::with_head(
            vec![0; head_arity],
            vec![Atom::new("NO_SUCH_REL", vec![Term::Var(0)])],
        );
        let mut disjuncts = q.disjuncts.clone();
        disjuncts.push(broken);
        let mixed = UnionQuery::new(disjuncts);
        // Strict compilation refuses...
        prop_assert!(CompiledUcq::compile_costed(&mixed, &schema, &CostModel::default()).is_err());
        // ...while the legacy entry point (lenient) matches the reference.
        prop_assert_eq!(
            ca_query::eval::eval_ucq(&mixed, &db),
            reference::eval_ucq(&mixed, &db)
        );
    }

    /// Orbit reduction is exact on random instances: see
    /// [`assert_reduced_matches_full`].
    #[test]
    fn reduced_sweep_matches_full_grid(seed in any::<u64>()) {
        let (db, q) = sweep_instance(seed ^ 0x0b17, 2, 40, 25);
        assert_reduced_matches_full(&db, &q)?;
    }

    /// Theorem 2 on constant-free instances: every database value is a
    /// null and the query names no constant, so the adequate pool is all
    /// fresh constants — and still the brute-force certain table equals
    /// naive evaluation (nothing non-Boolean is certain).
    #[test]
    fn certain_table_is_naive_on_constant_free_databases(seed in any::<u64>()) {
        let (db, q) = sweep_instance(seed ^ 0xf4e5, 3, 100, 0);
        prop_assert!(db.constants().is_empty() && ucq_constants(&q).is_empty());
        prop_assert_eq!(
            certain_table_with(&q, &db, 1),
            naive_eval_table(&q, &db),
            "on {:?} over {:?}", &q, &db
        );
    }

    /// The emitted non-certain certificate is the one a full-grid
    /// sequential scan finds first: the lowest falsifying index is an
    /// orbit minimum, so skipping non-canonical indices cannot move it.
    /// Every other case is constant-free, where falsifying completions
    /// tend to need several distinct fresh constants (so the orbit's
    /// representative matters).
    #[test]
    fn non_certain_certificate_matches_full_grid_scan(seed in any::<u64>()) {
        use ca_cert::CertainVerdictCert;

        let constant_free = seed.is_multiple_of(2);
        let (db, q) = if constant_free {
            sweep_instance(seed ^ 0xfa15, 3, 100, 0)
        } else {
            sweep_instance(seed ^ 0xfa15, 3, 60, 25)
        };
        let q = certify::boolean_form(&q);
        let (verdict, cert) = certify::certain_bool_certified(&q, &db, 1);
        if verdict {
            return Ok(());
        }
        let full = CompletionSpace::new(&db, &adequate_pool(&db, &ucq_constants(&q)));
        let first = (0..full.len())
            .find(|&i| !reference::eval_ucq_bool(&q, &full.completion(i)))
            .expect("a non-certain verdict has a falsifying completion");
        match cert {
            Some(CertainVerdictCert::NonCertain(nc)) => {
                prop_assert_eq!(nc.valuation, full.valuation(first));
            }
            other => prop_assert!(false, "expected a non-certain cert, got {:?}", other),
        }
    }
}
