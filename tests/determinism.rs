//! Determinism regression suite: certain-answer *tuple order* must be a
//! pure function of the logical database, never of physical layout.
//!
//! Rust seeds each `HashMap`'s hasher independently (`RandomState::new`
//! draws fresh keys per instance), so two runs of the same binary lay
//! hash tables out differently (`RUST_HASHMAP_SEED`-style variation,
//! which std does not expose). The in-process proxy with the same
//! failure power: *rebuild* the database and its indices several times,
//! inserting facts in different orders. Every rebuild allocates fresh
//! hash tables with fresh per-instance seeds (the engine's lazy indices
//! hash `Vec<Value>` keys), so any place where map iteration order leaks
//! into a result boundary produces different tuple orders across
//! rebuilds — exactly what the `ca-lint` L007 rule guards statically,
//! checked here dynamically. The paper's
//! semantics require this (certain answers are an intersection over
//! completions — Libkin, PODS 2011, Thm 5): evaluation order is an
//! implementation detail and must never be observable.

use ca_core::exec;
use ca_core::value::Value;
use ca_query::engine::{self, CompiledUcq, CompletionSpace, CostModel};
use ca_query::{Atom, ConjunctiveQuery, Term, UnionQuery};
use ca_relational::database::build::{c, n};
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;
use Term::{Const as C, Var as V};

/// The fixed logical content: a two-relation database with enough facts
/// (> INDEX_THRESHOLD = 16 per relation) that the engine actually builds
/// hash indices instead of scanning.
fn facts() -> (Schema, Vec<(&'static str, Vec<Value>)>) {
    let schema = Schema::from_relations(&[("R", 2), ("S", 1)]);
    let mut facts: Vec<(&'static str, Vec<Value>)> = Vec::new();
    for i in 0..18 {
        facts.push(("R", vec![c(i), c(i + 1)]));
        facts.push(("S", vec![c(i)]));
    }
    facts.push(("R", vec![c(1), n(1)]));
    facts.push(("R", vec![n(1), c(3)]));
    facts.push(("R", vec![n(2), c(5)]));
    facts.push(("S", vec![n(1)]));
    (schema, facts)
}

/// Build the database with facts inserted in a permuted order. The
/// store canonicalizes (facts stay sorted), so the logical database is
/// identical; what varies per rebuild is every hash table the engine
/// derives from it — each gets a fresh per-instance `RandomState` seed.
fn build_permuted(rotation: usize) -> NaiveDatabase {
    let (schema, mut fs) = facts();
    let mid = rotation % fs.len();
    fs.rotate_left(mid);
    if rotation % 2 == 1 {
        fs.reverse();
    }
    let mut db = NaiveDatabase::new(schema);
    for (rel, args) in fs {
        db.add(rel, args);
    }
    db
}

fn query() -> UnionQuery {
    UnionQuery::new(vec![
        // Q(x, z) ← R(x, y) ∧ R(y, z) ∧ S(x)
        ConjunctiveQuery::with_head(
            vec![0, 2],
            vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
                Atom::new("S", vec![V(0)]),
            ],
        ),
        // Q(x, x) ← R(1, x)
        ConjunctiveQuery::with_head(vec![0, 0], vec![Atom::new("R", vec![C(1), V(0)])]),
    ])
}

/// Naïve evaluation: identical ordered tuple sequences across rebuilds.
#[test]
fn naive_eval_order_is_layout_independent() {
    let baseline: Vec<Vec<Value>> = engine::eval_ucq(&query(), &build_permuted(0), exec::width())
        .expect("query fits schema")
        .into_iter()
        .collect();
    assert!(!baseline.is_empty(), "fixture query must have answers");
    for rotation in 1..6 {
        let run: Vec<Vec<Value>> =
            engine::eval_ucq(&query(), &build_permuted(rotation), exec::width())
                .expect("query fits schema")
                .into_iter()
                .collect();
        assert_eq!(
            baseline, run,
            "answer tuple order diverged on rebuild #{rotation}: map layout leaked"
        );
    }
}

/// The brute-force certain-answer sweep: identical ordered tuple
/// sequences across rebuilds *and* across thread counts — both knobs
/// vary physical evaluation order, neither may vary the result.
#[test]
fn certain_sweep_order_is_layout_and_thread_independent() {
    let pool = [1, 2, 3, 5];
    let sweep = |db: &NaiveDatabase, threads: usize| -> Vec<Vec<Value>> {
        let space = CompletionSpace::new(db, &pool);
        let plan = CompiledUcq::compile_costed(&query(), &db.schema, &space.model())
            .expect("query fits schema");
        engine::certain_table_over(&plan, &space, threads)
            .into_iter()
            .collect()
    };
    let baseline = sweep(&build_permuted(0), 1);
    for rotation in 0..4 {
        for threads in [1, 2, 3, 7] {
            let run = sweep(&build_permuted(rotation), threads);
            assert_eq!(
                baseline, run,
                "certain-answer order diverged (rebuild #{rotation}, {threads} threads)"
            );
        }
    }
}

/// The incremental retraction engine: the kept vertex set, the induced
/// core, and the witness-derived numbering must be identical at every
/// probe-thread width (lowest-candidate-wins makes the parallel probe
/// sweep order-insensitive). Pinned on a graph large enough that several
/// probes race: core(C3 × C4) ⊔ C2 ⊔ C6 retracts nontrivially.
#[test]
fn retraction_is_thread_width_independent() {
    use ca_graph::{core_of_with, Digraph};
    let g = Digraph::cycle(12)
        .disjoint_union(&Digraph::cycle(2))
        .disjoint_union(&Digraph::cycle(6))
        .disjoint_union(&Digraph::path(3));
    let (base_core, base_kept) = core_of_with(&g, 1);
    for threads in [2usize, 4, 8] {
        let (core, kept) = core_of_with(&g, threads);
        assert_eq!(base_kept, kept, "kept set diverged at {threads} threads");
        assert_eq!(base_core.edges, core.edges);
        assert_eq!(base_core.n, core.n);
    }
}

/// Same pin for generalized-database cores: node-for-node identical
/// output at every thread width.
#[test]
fn gendb_core_is_thread_width_independent() {
    use ca_exchange::solution::core_of_gendb_with;
    use ca_gdm::database::GenDb;
    use ca_gdm::schema::GenSchema;
    let schema = GenSchema::from_parts(&[("T", 2)], &[]);
    let mut d = GenDb::new(schema);
    // Three parallel chains x →⊥ᵢ→ y plus one grounded chain: the core
    // keeps a single chain, so several nodes compete for removal.
    for i in 1..=3u32 {
        d.add_node("T", vec![c(1), n(i)]);
        d.add_node("T", vec![n(i), c(2)]);
    }
    d.add_node("T", vec![c(1), c(7)]);
    d.add_node("T", vec![c(7), c(2)]);
    let base = core_of_gendb_with(&d, 1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            base,
            core_of_gendb_with(&d, threads),
            "gendb core diverged at {threads} threads"
        );
    }
}

/// The columnar store: two *independently built* stores over the same
/// logical database must agree on everything order-sensitive — the fact
/// scan sequence (`iter_live` + `fact_values`), the interner's constant
/// and null tables, and the serialized snapshot, which is byte-identical
/// exactly when every column, bitmap, and directory entry matches.
#[test]
fn store_scan_order_is_build_independent() {
    use ca_relational::store_bridge::to_store;
    let scan = |s: &ca_core::store::FactStore| -> Vec<(String, Vec<Value>)> {
        s.iter_live()
            .map(|f| (s.rel_name(s.fact_rel(f)).to_string(), s.fact_values(f)))
            .collect()
    };
    let base = to_store(&build_permuted(0));
    let base_scan = scan(&base);
    assert!(!base_scan.is_empty(), "fixture store must have facts");
    let base_bytes = base.to_bytes();
    for rotation in 1..6 {
        let other = to_store(&build_permuted(rotation));
        assert_eq!(
            base_scan,
            scan(&other),
            "fact scan order diverged on rebuild #{rotation}"
        );
        assert_eq!(
            base.values().n_consts(),
            other.values().n_consts(),
            "interner constant table diverged on rebuild #{rotation}"
        );
        assert_eq!(
            base_bytes,
            other.to_bytes(),
            "snapshot bytes diverged on rebuild #{rotation}: column or bitmap layout leaked"
        );
    }
}

/// Store-backed evaluation: the lazily built posting tables (CSR or
/// hash) are the only order-sensitive index structure left; answers
/// drawn through them must be identical across independently built
/// stores and across evaluation widths 1 vs 4 (the `CA_THREADS` knob —
/// `certain_table_over` takes the resolved width explicitly, so this
/// pins exactly what varying the env var varies). The fixture
/// exceeds `INDEX_THRESHOLD`, so postings are genuinely probed.
#[test]
fn store_backed_postings_are_layout_and_thread_independent() {
    use ca_query::engine::DbIndex;
    use ca_relational::store_bridge::to_store;
    let pool = [1, 2, 3, 5];
    let db0 = build_permuted(0);
    let plan = CompiledUcq::compile_costed(&query(), &db0.schema, &CostModel::default())
        .expect("query fits schema");
    let store0 = to_store(&db0);
    let mut idx0 = DbIndex::over(&store0);
    let baseline: Vec<Vec<Value>> = engine::eval_ucq_gated(&plan, &mut idx0, exec::width())
        .into_iter()
        .collect();
    assert!(!baseline.is_empty(), "fixture query must have answers");
    let certain_base: Vec<Vec<Value>> =
        engine::certain_table_over(&plan, &CompletionSpace::new(&db0, &pool), 1)
            .into_iter()
            .collect();
    for rotation in 1..4 {
        let db = build_permuted(rotation);
        let store = to_store(&db);
        let mut idx = DbIndex::over(&store);
        let run: Vec<Vec<Value>> = engine::eval_ucq_gated(&plan, &mut idx, exec::width())
            .into_iter()
            .collect();
        assert_eq!(
            baseline, run,
            "store-backed answers diverged on rebuild #{rotation}: posting order leaked"
        );
        for threads in [1usize, 4] {
            let certain: Vec<Vec<Value>> =
                engine::certain_table_over(&plan, &CompletionSpace::new(&db, &pool), threads)
                    .into_iter()
                    .collect();
            assert_eq!(
                certain_base, certain,
                "certain answers diverged (rebuild #{rotation}, width {threads})"
            );
        }
    }
}

/// Certificates are part of the result boundary, so the same pin
/// discipline applies to their canonical bytes: the certified
/// certain-answer drivers must emit byte-identical certificates across
/// independently rebuilt databases (fresh hash-table seeds everywhere)
/// and across sweep widths 1 vs 4.
#[test]
fn query_certificates_are_layout_and_thread_independent() {
    use ca_query::certify;
    let q = query();
    let baseline = {
        let db = build_permuted(0);
        let (verdict, cert) = certify::certain_bool_certified(&q, &db, 1);
        let (table, certs) = certify::certain_table_certified(&q, &db, 1);
        assert!(!table.is_empty(), "fixture query must have certain rows");
        assert_eq!(certs.len(), table.len(), "every certain row certifies");
        (
            verdict,
            cert.map(|c| c.to_bytes()),
            certs
                .iter()
                .flat_map(|(_, m)| m.to_bytes())
                .collect::<Vec<u8>>(),
        )
    };
    for rotation in 0..4 {
        for threads in [1usize, 4] {
            let db = build_permuted(rotation);
            let (verdict, cert) = certify::certain_bool_certified(&q, &db, threads);
            let (_, certs) = certify::certain_table_certified(&q, &db, threads);
            let run = (
                verdict,
                cert.map(|c| c.to_bytes()),
                certs
                    .iter()
                    .flat_map(|(_, m)| m.to_bytes())
                    .collect::<Vec<u8>>(),
            );
            assert_eq!(
                baseline, run,
                "certificate bytes diverged (rebuild #{rotation}, {threads} threads)"
            );
        }
    }
}

/// Chase derivation logs: byte-identical certificates across chase
/// thread widths 1 vs 4 and across independently rebuilt instances.
#[test]
fn chase_certificates_are_layout_and_thread_independent() {
    use ca_exchange::chase::{chase_certified, ChaseConfig};
    use ca_exchange::mapping::Rule;
    use ca_gdm::database::GenDb;
    use ca_gdm::schema::GenSchema;

    let schema = || GenSchema::from_parts(&[("T", 2)], &[]);
    // Permuted insertion order: the logical instance is identical, the
    // interner and every derived hash table is rebuilt from scratch.
    let instance = |rotation: usize| {
        let mut facts = vec![
            ("T", vec![c(1), c(2)]),
            ("T", vec![c(2), n(4)]),
            ("T", vec![n(4), c(3)]),
            ("T", vec![c(3), n(5)]),
        ];
        let mid = rotation % facts.len();
        facts.rotate_left(mid);
        let mut d = GenDb::new(schema());
        for (rel, args) in facts {
            d.add_node(rel, args);
        }
        d
    };
    // Transitivity keeps the chase multi-round without diverging.
    let transitivity = {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(1), n(2)]);
        body.add_node("T", vec![n(2), n(3)]);
        let mut head = GenDb::new(schema());
        head.add_node("T", vec![n(1), n(3)]);
        Rule { body, head }
    };
    let tgds = [transitivity];
    let baseline = {
        let (_, cert) = chase_certified(
            &instance(0),
            &tgds,
            &[],
            &ChaseConfig::with_threads(10_000, 1),
        );
        cert.expect("engine certifies the fixture chase").to_bytes()
    };
    for rotation in 0..4 {
        for threads in [1usize, 4] {
            let cfg = ChaseConfig::with_threads(10_000, threads);
            let (_, cert) = chase_certified(&instance(rotation), &tgds, &[], &cfg);
            let run = cert.expect("engine certifies the fixture chase").to_bytes();
            assert_eq!(
                baseline, run,
                "chase certificate bytes diverged (rebuild #{rotation}, {threads} threads)"
            );
        }
    }
}

/// Core-retraction certificates: byte-identical fold/endomorphism chains
/// at every probe-thread width.
#[test]
fn core_certificates_are_thread_width_independent() {
    use ca_hom::retract::retract_core_certified;
    use ca_hom::structure::RelStructure;

    // C6 ⊔ C2 ⊔ a pendant path: several probes race for removal.
    let mut s = RelStructure::new(11);
    for i in 0..6u32 {
        s.add_tuple(0, vec![i, (i + 1) % 6]);
    }
    s.add_tuple(0, vec![6, 7]);
    s.add_tuple(0, vec![7, 6]);
    s.add_tuple(0, vec![8, 9]);
    s.add_tuple(0, vec![9, 10]);
    s.add_tuple(0, vec![10, 8]);
    let probe: Vec<u32> = (0..11).collect();
    let (base_r, base_cert) = retract_core_certified(&s, &probe, 1);
    assert_eq!(ca_cert::check_core(&base_cert), Ok(()));
    let base_bytes = base_cert.to_bytes();
    for threads in [2usize, 4, 8] {
        let (r, cert) = retract_core_certified(&s, &probe, threads);
        assert_eq!(
            base_r.kept, r.kept,
            "kept set diverged at {threads} threads"
        );
        assert_eq!(
            base_bytes,
            cert.to_bytes(),
            "core certificate bytes diverged at {threads} threads"
        );
    }
}

/// The hash-partitioned join path: answers must be byte-identical (same
/// tuples, same order) at every partition count — {1, 2, 4, 7} covers
/// the degenerate, even, and prime-width cases, 7 exceeding any CI
/// host's requested width — and across independently built stores. The
/// partitioning is a disjoint order-preserving cover of the leading
/// atom's rows and the merge is a `BTreeSet` union, so nothing physical
/// may leak.
#[test]
fn partitioned_answers_are_partition_count_independent() {
    use ca_query::engine::DbIndex;
    use ca_relational::store_bridge::to_store;
    let db0 = build_permuted(0);
    let plan = CompiledUcq::compile_costed(&query(), &db0.schema, &CostModel::default())
        .expect("query fits schema");
    let store0 = to_store(&db0);
    let baseline: Vec<Vec<Value>> = engine::eval_ucq_gated(&plan, &mut DbIndex::over(&store0), 1)
        .into_iter()
        .collect();
    assert!(!baseline.is_empty(), "fixture query must have answers");
    for rotation in 0..4 {
        let store = to_store(&build_permuted(rotation));
        for parts in [1usize, 2, 4, 7] {
            let run: Vec<Vec<Value>> =
                engine::eval_ucq_partitioned(&plan, &mut DbIndex::over(&store), parts)
                    .into_iter()
                    .collect();
            assert_eq!(
                baseline, run,
                "partitioned answers diverged (rebuild #{rotation}, {parts} partitions)"
            );
        }
    }
}

/// The chase's partitioned match phase: certificates byte-identical at
/// widths {1, 2, 4, 7}, each honoured verbatim whatever the host's core
/// count. The fixture clears both gates of the match-phase fan-out: it
/// seeds 600+ `T` facts (past `PAR_MIN_SEED = 512`), and the join
/// `T(x, y), S(y, z)` probes a 40-fold `S` fan-out, so the cost model
/// prices the round above `PART_MIN_WORK`. Widths > 1 therefore
/// genuinely hash-partition the seed lists into per-worker tasks
/// (smaller fixtures would pass vacuously through the sequential path).
/// A second fixture does the same for an egd whose merges succeed, so the
/// certified merge witnesses, too, come out of partitioned tasks.
#[test]
fn chase_partition_tasks_are_width_independent() {
    use ca_core::value::Null;
    use ca_exchange::chase::{chase_certified, ChaseConfig, ChaseOutcome, Egd};
    use ca_exchange::mapping::Rule;
    use ca_gdm::database::GenDb;
    use ca_gdm::schema::GenSchema;

    let schema = || GenSchema::from_parts(&[("T", 2), ("S", 2), ("U", 2)], &[]);
    let instance = |rotation: usize| {
        let mut facts: Vec<(&str, Vec<Value>)> =
            (0..600i64).map(|i| ("T", vec![c(i), c(i + 1)])).collect();
        facts.push(("T", vec![c(0), n(1)]));
        facts.push(("T", vec![n(1), c(7)]));
        // 16 join keys spread over the T path, 40 S facts each.
        for k in 1..=16i64 {
            facts.extend((0..40i64).map(|j| ("S", vec![c(37 * k), c(1000 + j)])));
        }
        let mid = rotation % facts.len();
        facts.rotate_left(mid);
        let mut d = GenDb::new(schema());
        for (rel, args) in facts {
            d.add_node(rel, args);
        }
        d
    };
    // Join rule T(x, y), S(y, z) → U(x, z): every T and S fact is a
    // seed, one extra round, cheap deterministic closure.
    let project = {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(90), n(91)]);
        body.add_node("S", vec![n(91), n(92)]);
        let mut head = GenDb::new(schema());
        head.add_node("U", vec![n(90), n(92)]);
        Rule { body, head }
    };
    let tgds = [project];
    let baseline = {
        let (_, cert) = chase_certified(
            &instance(0),
            &tgds,
            &[],
            &ChaseConfig::with_threads(10_000, 1),
        );
        cert.expect("engine certifies the fixture chase").to_bytes()
    };
    for rotation in 0..3 {
        for threads in [1usize, 2, 4, 7] {
            let cfg = ChaseConfig::with_threads(10_000, threads);
            let (_, cert) = chase_certified(&instance(rotation), &tgds, &[], &cfg);
            let run = cert.expect("engine certifies the fixture chase").to_bytes();
            assert_eq!(
                baseline, run,
                "chase certificate bytes diverged (rebuild #{rotation}, width {threads})"
            );
        }
    }

    // An egd whose merges succeed, through the same fan-out: functionality
    // T(x, y), T(x, z) → y = z over 250 keys, each with one constant and
    // seven null successors. Both pins seed all 2,000 `T` facts, and the
    // eight-fold fan-out per key prices the round past `PART_MIN_WORK`,
    // so the merge witnesses come out of hash-partitioned tasks. Keys `k`
    // and `k + 125` share their successors, so every equated pair has two
    // witnesses, which partitioning may split across tasks: the recorded
    // one must be the least whatever the width.
    let keyed = |rotation: usize| {
        let mut facts: Vec<Vec<Value>> = Vec::new();
        for k in 0..250i64 {
            let g = k % 125;
            facts.push(vec![c(k), c(10_000 + g)]);
            facts.extend((0..7u32).map(|j| vec![c(k), n(100 + 7 * g as u32 + j)]));
        }
        let mid = rotation % facts.len();
        facts.rotate_left(mid);
        let mut d = GenDb::new(schema());
        for args in facts {
            d.add_node("T", args);
        }
        d
    };
    let functional = {
        let mut body = GenDb::new(schema());
        body.add_node("T", vec![n(90), n(91)]);
        body.add_node("T", vec![n(90), n(92)]);
        Egd {
            body,
            equal: (Null(91), Null(92)),
        }
    };
    let egds = [functional];
    let certify = |rotation: usize, threads: usize| {
        let cfg = ChaseConfig::with_threads(10_000, threads);
        let (outcome, cert) = chase_certified(&keyed(rotation), &[], &egds, &cfg);
        assert!(
            matches!(outcome, ChaseOutcome::Done(_)),
            "the fixture's merges all succeed"
        );
        cert.expect("engine certifies the fixture chase")
    };
    let baseline = certify(0, 1);
    assert_eq!(ca_cert::check_chase(&baseline), Ok(()));
    assert_eq!(baseline.steps.len(), 125 * 7, "one merge per null");
    let baseline = baseline.to_bytes();
    for rotation in 0..3 {
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(
                baseline,
                certify(rotation, threads).to_bytes(),
                "egd certificate bytes diverged (rebuild #{rotation}, width {threads})"
            );
        }
    }
}

/// Certain answers through the chase: identical tables at every
/// `ChaseConfig::threads`, which the evaluation after the chase honours
/// too. The copy mapping puts 4500 distinct constant `T` facts and the
/// existential rule 4500 more with fresh nulls, so the lead relation of
/// `T(x, y), T(y, z)` is past `PART_MIN_ROWS` and the estimated join work
/// past `PART_MIN_WORK`: widths > 1 genuinely take the partitioned path.
#[test]
fn chase_certain_answers_are_width_independent() {
    use ca_exchange::chase::ChaseConfig;
    use ca_exchange::mapping::{Mapping, Rule};
    use ca_exchange::{certain_answers_via_chase, CertainAnswers};
    use ca_gdm::database::GenDb;
    use ca_gdm::schema::GenSchema;

    let source_schema = GenSchema::from_parts(&[("S", 2)], &[]);
    let target_schema = GenSchema::from_parts(&[("T", 2)], &[]);
    let rule = |head_args: Vec<Value>| {
        let mut body = GenDb::new(source_schema.clone());
        body.add_node("S", vec![n(1), n(2)]);
        let mut head = GenDb::new(target_schema.clone());
        head.add_node("T", head_args);
        Rule { body, head }
    };
    // S(x, y) → T(x, y) and S(x, y) → ∃z T(y, z).
    let mapping = Mapping::new(vec![rule(vec![n(1), n(2)]), rule(vec![n(2), n(3)])]);
    let mut source = GenDb::new(source_schema.clone());
    for i in 0..4500i64 {
        // A permutation of 0..4500 (31 is a unit mod 4500): distinct rows,
        // out-degree one, so the join stays cheap.
        source.add_node("S", vec![c(i), c((31 * i + 7) % 4500)]);
    }
    let q = UnionQuery::single(ConjunctiveQuery::with_head(
        vec![0, 2],
        vec![
            Atom::new("T", vec![V(0), V(1)]),
            Atom::new("T", vec![V(1), V(2)]),
        ],
    ));
    let run = |threads: usize| {
        let cfg = ChaseConfig::with_threads(10_000, threads);
        match certain_answers_via_chase(&mapping, &source, &target_schema, &[], &[], &q, &cfg) {
            CertainAnswers::Table(t) => t.into_iter().collect::<Vec<_>>(),
            other => panic!("expected a table: {other:?}"),
        }
    };
    let baseline = run(1);
    assert!(!baseline.is_empty(), "fixture query must have answers");
    for threads in [2usize, 4, 7] {
        assert_eq!(
            baseline,
            run(threads),
            "chase certain answers diverged at width {threads}"
        );
    }
}

/// The streaming CSV loader: loaded stores byte-identical at every parse
/// width, and malformed input surfaces the *same typed error at the same
/// line* at every width — the reorder buffer applies batches in sequence
/// order, so neither data nor diagnostics may depend on worker racing.
#[test]
fn csv_ingest_is_width_independent_and_errors_are_typed() {
    use ca_core::store::ingest::{load_csv_bytes, IngestError};
    use ca_core::store::FactStore;

    let mut csv = String::from("# edge list\n");
    for i in 0..40 {
        csv.push_str(&format!("E,{},{}\nL,{},?{}\n", i, i + 1, i, i % 5));
    }
    let mut base = FactStore::new();
    let loaded = load_csv_bytes(csv.as_bytes(), &mut base, 1).expect("clean csv loads");
    assert_eq!(loaded, 80, "loader ingests every row");
    let base_bytes = base.to_bytes();
    for width in [2usize, 4, 7] {
        let mut s = FactStore::new();
        load_csv_bytes(csv.as_bytes(), &mut s, width).expect("clean csv loads");
        assert_eq!(
            s.to_bytes(),
            base_bytes,
            "loaded store diverged at parse width {width}"
        );
    }

    // Truncated row: arity declared 2 by line 2, line 3 has 1 field.
    let truncated = "# header\nE,1,2\nE,3\nE,4,5\n";
    // Unparseable field on line 2.
    let bad_value = "E,1,2\nE,x7,3\n";
    // Line 2 is not UTF-8 (lone 0xFF inside the row).
    let non_utf8: &[u8] = b"E,1,2\nE,\xff,3\n";
    for width in [1usize, 2, 4, 7] {
        let err = |bytes: &[u8]| {
            let mut s = FactStore::new();
            load_csv_bytes(bytes, &mut s, width).expect_err("malformed csv must not load")
        };
        assert_eq!(
            err(truncated.as_bytes()),
            IngestError::BadArity {
                line: 3,
                rel: "E".into(),
                declared: 2,
                got: 1
            },
            "truncated-row error diverged at width {width}"
        );
        assert_eq!(
            err(bad_value.as_bytes()),
            IngestError::BadValue {
                line: 2,
                token: "x7".into()
            },
            "bad-value error diverged at width {width}"
        );
        assert_eq!(
            err(non_utf8),
            IngestError::NonUtf8 { line: 2 },
            "non-utf8 error diverged at width {width}"
        );
    }
}

/// Sanity for the proxy itself: permuted insertion is canonicalized
/// away by the sorted fact store, so every rebuild is the *same*
/// logical database — any divergence the tests above could observe
/// would therefore be pure layout leakage, never a data difference.
#[test]
fn rebuilds_agree_logically() {
    let a = build_permuted(0);
    for rotation in 1..6 {
        let b = build_permuted(rotation);
        assert_eq!(a.facts(), b.facts(), "rebuild #{rotation} changed the data");
        assert_eq!(a.nulls(), b.nulls());
        assert_eq!(a.constants(), b.constants());
    }
}
