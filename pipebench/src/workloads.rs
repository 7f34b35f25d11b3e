//! The four workloads. Each one generates its input bytes from a seed,
//! computes the expected answers by a route independent of the timed
//! one, and runs one pipeline pass at a time through the library's
//! public API, with a span around every call into a layer.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;

use ca_cert::{check_certain_row, check_chase, ChaseCert, ChaseStep};
use ca_core::store::ingest::load_bytes;
use ca_core::value::{Null, Value};
use ca_exchange::chase::{chase_certified, chase_with, ChaseConfig, ChaseOutcome, Egd};
use ca_exchange::mapping::{Mapping, Rule};
use ca_exchange::solution::canonical_solution;
use ca_gdm::database::GenDb;
use ca_gdm::encode::{encode_relational, relational_view};
use ca_gdm::schema::GenSchema;
use ca_query::ast::UnionQuery;
use ca_query::certain::{adequate_pool, certain_table_with, naive_eval_table, ucq_constants};
use ca_query::certify::{cert_query, certain_table_certified, db_facts};
use ca_query::engine::par::eval_ucq_gated;
use ca_query::engine::{eval_cq_into, CompiledUcq, DbIndex};
use ca_query::parse::parse_ucq;
use ca_relational::database::NaiveDatabase;
use ca_relational::parse::parse_database;
use ca_relational::store_bridge::from_store;

use crate::rng::{mix, Rng};
use crate::trace::Tracer;

/// The width passed to every stage that takes one: one thread each.
pub const WIDTH: usize = 1;

/// Chase budgets far above what any workload needs, so that an
/// `Aborted` or `Overflow` verdict always means a defect.
const CHASE_STEPS: usize = 10_000_000;
const CHASE_MATCHES: usize = 100_000_000;

pub const NAMES: [&str; 4] = [
    "xchg_closure",
    "xchg_egd_cert",
    "naive_bulk",
    "naive_certify",
];

pub type Table = BTreeSet<Vec<Value>>;

/// Deterministic counts recorded by one pass, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

pub struct Outcome {
    pub answers: Table,
    pub counts: Counts,
}

pub trait Workload {
    /// One pipeline pass, from input bytes to checked answers. Typed
    /// errors, non-`Table` verdicts and checker rejections are `Err`.
    fn pass(&self, t: &mut Tracer) -> Result<Outcome, String>;
    /// Compare a pass's answers with the expectation made at set-up.
    fn gate(&self, answers: &Table) -> Result<(), String>;
}

/// Generate a workload's inputs and expectation (the set-up).
pub fn prepare(name: &str, seed: u64, small: bool) -> Option<Box<dyn Workload>> {
    let mut rng = Rng::new(seed);
    Some(match name {
        "xchg_closure" => Box::new(XchgClosure::new(&mut rng, if small { 24 } else { 144 })),
        "xchg_egd_cert" => {
            let (k, m) = if small { (3, 6) } else { (25, 32) };
            Box::new(XchgEgdCert::new(&mut rng, k, m))
        }
        "naive_bulk" => {
            let (r, s) = if small { (2_000, 200) } else { (36_000, 3_600) };
            Box::new(NaiveBulk::new(&mut rng, r, s))
        }
        "naive_certify" => {
            let (consts, nulls, facts) = if small { (5, 2, 14) } else { (6, 4, 32) };
            Box::new(NaiveCertify::new(&mut rng, consts, nulls, facts))
        }
        _ => return None,
    })
}

/// An order-independent digest of a table.
pub fn digest(rows: impl IntoIterator<Item = impl AsRef<[Value]>>) -> u64 {
    rows.into_iter().fold(0u64, |acc, row| {
        let h = row.as_ref().iter().fold(0x243F_6A88_85A3_08D3u64, |h, v| {
            mix(h ^ match *v {
                Value::Const(c) => c as u64,
                Value::Null(Null(n)) => (1 << 63) | u64::from(n),
            })
        });
        acc.wrapping_add(h)
    })
}

fn gate_table(got: &Table, want: &Table) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.difference(got).count();
    let extra = got.difference(want).count();
    Err(format!(
        "wrong answers: {} rows, want {}; {missing} missing, {extra} extra",
        got.len(),
        want.len()
    ))
}

/// A size that must match exactly. On the canonical solution this is
/// what catches the match cap of `Mapping::applications`, which
/// truncates silently.
pub fn expect_size(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} has {got} facts, want {want}"))
    }
}

fn add(c: &mut Counts, name: &'static str, v: usize) {
    *c.entry(name).or_default() += v as f64;
}

fn nv(id: u32) -> Value {
    Value::null(id)
}

fn pattern(schema: &GenSchema, atoms: &[(&str, [u32; 2])]) -> GenDb {
    let mut d = GenDb::new(schema.clone());
    for (rel, [a, b]) in atoms {
        d.add_node(rel, vec![nv(*a), nv(*b)]);
    }
    d
}

fn csv_line(out: &mut String, rel: &str, a: Value, b: Value) {
    let field = |v: Value| match v {
        Value::Const(c) => c.to_string(),
        Value::Null(Null(n)) => format!("?{n}"),
    };
    let _ = writeln!(out, "{rel},{},{}", field(a), field(b));
}

fn chase_config() -> ChaseConfig {
    ChaseConfig {
        match_limit: CHASE_MATCHES,
        ..ChaseConfig::with_threads(CHASE_STEPS, WIDTH)
    }
}

fn done(outcome: ChaseOutcome) -> Result<GenDb, String> {
    match outcome {
        ChaseOutcome::Done(db) => Ok(*db),
        ChaseOutcome::Failed => Err("chase failed: no solution".into()),
        ChaseOutcome::Aborted => Err("chase aborted: step budget".into()),
        ChaseOutcome::Overflow(_) => Err("chase overflowed: match budget".into()),
    }
}

/// Firings and merges, from a chase certificate's derivation.
fn count_steps(c: &mut Counts, cert: &ChaseCert) {
    for step in &cert.steps {
        match step {
            ChaseStep::Fire { .. } => add(c, "chase.firings", 1),
            ChaseStep::Merge { .. } => add(c, "chase.merges", 1),
        }
    }
}

/// ingest → bridge: source CSV bytes to a generalized database.
fn ingest_source(t: &mut Tracer, csv: &[u8], c: &mut Counts) -> Result<GenDb, String> {
    let store = t
        .span("ingest", || load_bytes(csv, WIDTH))
        .map_err(|e| format!("ingest: {e:?}"))?;
    add(c, "ingest.facts", store.n_live() as usize);
    let src = t.span("bridge", || encode_relational(&from_store(&store)));
    add(c, "bridge.facts_copied", 2 * src.n_nodes());
    Ok(src)
}

fn parse_query(t: &mut Tracer, text: &str) -> Result<UnionQuery, String> {
    t.span("parse", || parse_ucq(text))
        .map_err(|e| format!("query: {e:?}"))
}

/// index → plan → eval → nulls: naive evaluation with nulls dropped. A
/// traced pass also enumerates the bindings once more, counting only.
fn answer(
    t: &mut Tracer,
    db: &NaiveDatabase,
    q: &UnionQuery,
    c: &mut Counts,
) -> Result<Table, String> {
    let mut idx = t.span("index", || {
        let idx = DbIndex::new(db);
        idx.model();
        idx
    });
    let plan = t
        .span("plan", || {
            CompiledUcq::compile_costed(q, &db.schema, idx.model())
        })
        .map_err(|e| format!("plan: {e}"))?;
    let raw = t.span("eval", || eval_ucq_gated(&plan, &mut idx, WIDTH));
    if t.is_on() {
        let bindings = t.span("side:enum", || {
            let mut n = 0usize;
            for d in plan.disjuncts() {
                eval_cq_into(d, &mut idx, &mut |_| {
                    n += 1;
                    true
                });
            }
            n
        });
        add(c, "eval.bindings", bindings);
    }
    add(c, "eval.answers", raw.len());
    let before = raw.len();
    let answers: Table = t.span("nulls", || {
        raw.into_iter()
            .filter(|row| row.iter().all(|v| v.is_const()))
            .collect()
    });
    add(c, "nulls.dropped", before - answers.len());
    Ok(answers)
}

/// `xchg_closure`: the copy mapping `S → T` over a shuffled path, the
/// target tgd `T(x,y), T(y,z) → T(x,z)`, and the query
/// `(x,z) :- T(x,y), T(y,z)`.
struct XchgClosure {
    csv: String,
    mapping: Mapping,
    target: GenSchema,
    tgds: Vec<Rule>,
    edges: usize,
    want_rows: usize,
    want_digest: u64,
}

impl XchgClosure {
    fn new(rng: &mut Rng, n: usize) -> Self {
        // Path vertices get distinct, shuffled constants.
        let mut labels: Vec<i64> = (0..=n as i64).map(|i| 7 * i + 11).collect();
        rng.shuffle(&mut labels);
        let mut edges: Vec<(i64, i64)> = labels.windows(2).map(|w| (w[0], w[1])).collect();
        rng.shuffle(&mut edges);
        let mut csv = String::new();
        for &(a, b) in &edges {
            csv_line(&mut csv, "S", Value::Const(a), Value::Const(b));
        }
        // The closure holds (vᵢ, vⱼ) for i < j; the query keeps j ≥ i + 2.
        let mut want: Vec<[Value; 2]> = Vec::new();
        for i in 0..=n {
            for j in i + 2..=n {
                want.push([Value::Const(labels[i]), Value::Const(labels[j])]);
            }
        }
        let source = GenSchema::from_parts(&[("S", 2)], &[]);
        let target = GenSchema::from_parts(&[("T", 2)], &[]);
        let copy = Rule {
            body: pattern(&source, &[("S", [1, 2])]),
            head: pattern(&target, &[("T", [1, 2])]),
        };
        let trans = Rule {
            body: pattern(&target, &[("T", [1, 2]), ("T", [2, 3])]),
            head: pattern(&target, &[("T", [1, 3])]),
        };
        XchgClosure {
            csv,
            mapping: Mapping::new(vec![copy]),
            target,
            tgds: vec![trans],
            edges: n,
            want_rows: (n + 1) * n / 2 - n,
            want_digest: digest(&want),
        }
    }
}

impl Workload for XchgClosure {
    fn pass(&self, t: &mut Tracer) -> Result<Outcome, String> {
        let mut c = Counts::new();
        let src = ingest_source(t, self.csv.as_bytes(), &mut c)?;
        let q = parse_query(t, "(x, z) :- T(x, y), T(y, z)")?;
        let canon = t.span("solution", || {
            canonical_solution(&self.mapping, &src, &self.target)
        });
        add(&mut c, "solution.facts_out", canon.n_nodes());
        expect_size("canonical solution", canon.n_nodes(), self.edges)?;
        let cfg = chase_config();
        let universal = done(t.span("chase", || chase_with(&canon, &self.tgds, &[], &cfg)))?;
        add(&mut c, "chase.facts_out", universal.n_nodes());
        if t.is_on() {
            // Firings are counted from a certificate; the pipeline's own
            // chase is uncertified.
            let (_, cert) = t.span("side:chase_certified", || {
                chase_certified(&canon, &self.tgds, &[], &cfg)
            });
            count_steps(
                &mut c,
                &cert.ok_or("certified chase returned no certificate")?,
            );
        }
        let rel = t
            .span("bridge", || relational_view(&universal))
            .ok_or("chased solution is not relational")?;
        add(&mut c, "bridge.facts_copied", rel.len());
        let answers = answer(t, &rel, &q, &mut c)?;
        Ok(Outcome { answers, counts: c })
    }

    fn gate(&self, answers: &Table) -> Result<(), String> {
        let digest_ok = digest(answers) == self.want_digest;
        if answers.len() == self.want_rows && digest_ok {
            return Ok(());
        }
        Err(format!(
            "wrong closure answers: {} rows, want {}; digest {}",
            answers.len(),
            self.want_rows,
            if digest_ok { "matches" } else { "differs" }
        ))
    }
}

/// `xchg_egd_cert`: `S(x,y) → ∃z T(x,z), U(z,y)` over `k` groups of `m`
/// source facts, the egd "T is functional", a chase certificate that is
/// checked, and the query `(x,y) :- T(x,z), U(z,y)`.
struct XchgEgdCert {
    csv: String,
    mapping: Mapping,
    target: GenSchema,
    egds: Vec<Egd>,
    source_facts: usize,
    groups: usize,
    want: Table,
}

impl XchgEgdCert {
    fn new(rng: &mut Rng, k: usize, m: usize) -> Self {
        // Group keys and member values are distinct constants, so the
        // certain answers are exactly the source pairs.
        let mut pairs: Vec<(i64, i64)> = Vec::with_capacity(k * m);
        let mut seen: HashSet<i64> = HashSet::new();
        for g in (0..k as i64).map(|g| 1_000 + 13 * g) {
            let mut members = 0;
            while members < m {
                let y = 100_000 + rng.below(1_000_000) as i64;
                if seen.insert(y) {
                    pairs.push((g, y));
                    members += 1;
                }
            }
        }
        rng.shuffle(&mut pairs);
        let mut csv = String::new();
        for &(g, y) in &pairs {
            csv_line(&mut csv, "S", Value::Const(g), Value::Const(y));
        }
        let source = GenSchema::from_parts(&[("S", 2)], &[]);
        let target = GenSchema::from_parts(&[("T", 2), ("U", 2)], &[]);
        let rule = Rule {
            body: pattern(&source, &[("S", [1, 2])]),
            head: pattern(&target, &[("T", [1, 3]), ("U", [3, 2])]),
        };
        let functional = Egd {
            body: pattern(&target, &[("T", [1, 2]), ("T", [1, 3])]),
            equal: (Null(2), Null(3)),
        };
        XchgEgdCert {
            csv,
            mapping: Mapping::new(vec![rule]),
            target,
            egds: vec![functional],
            source_facts: pairs.len(),
            groups: k,
            want: pairs
                .iter()
                .map(|&(g, y)| vec![Value::Const(g), Value::Const(y)])
                .collect(),
        }
    }
}

impl Workload for XchgEgdCert {
    fn pass(&self, t: &mut Tracer) -> Result<Outcome, String> {
        let mut c = Counts::new();
        let src = ingest_source(t, self.csv.as_bytes(), &mut c)?;
        let q = parse_query(t, "(x, y) :- T(x, z), U(z, y)")?;
        let canon = t.span("solution", || {
            canonical_solution(&self.mapping, &src, &self.target)
        });
        add(&mut c, "solution.facts_out", canon.n_nodes());
        expect_size("canonical solution", canon.n_nodes(), 2 * self.source_facts)?;
        let cfg = chase_config();
        let (outcome, cert) = t.span("certify", || chase_certified(&canon, &[], &self.egds, &cfg));
        if t.is_on() {
            // The uncertified chase on the same input: the base of
            // `certify.overhead`.
            done(t.span("side:chase", || chase_with(&canon, &[], &self.egds, &cfg)))?;
        }
        let universal = done(outcome)?;
        let cert = cert.ok_or("certified chase returned no certificate")?;
        add(&mut c, "certify.certs", 1);
        add(&mut c, "chase.facts_out", universal.n_nodes());
        // One T-fact per group survives the merges, beside every U-fact.
        expect_size(
            "chased solution",
            universal.n_nodes(),
            self.groups + self.source_facts,
        )?;
        count_steps(&mut c, &cert);
        t.span("check", || check_chase(&cert))
            .map_err(|r| format!("check_chase rejected: {r:?}"))?;
        add(&mut c, "check.steps", cert.steps.len());
        let rel = t
            .span("bridge", || relational_view(&universal))
            .ok_or("chased solution is not relational")?;
        add(&mut c, "bridge.facts_copied", rel.len());
        let answers = answer(t, &rel, &q, &mut c)?;
        Ok(Outcome { answers, counts: c })
    }

    fn gate(&self, answers: &Table) -> Result<(), String> {
        gate_table(answers, &self.want)
    }
}

/// `naive_bulk`: a naive database of `R` facts (one in ten carrying a
/// null) and constant `S` facts, shipped as CSV, evaluated naively with
/// `(x,z) :- R(x,y), R(y,z), S(z)`. No constraints, so no chase.
struct NaiveBulk {
    csv: String,
    want: Table,
}

impl NaiveBulk {
    fn new(rng: &mut Rng, n_r: usize, n_s: usize) -> Self {
        let domain = (n_r / 2).max(1) as u64;
        let nulls = (n_r / 20).max(1) as u64;
        let mut csv = String::new();
        let mut r: HashSet<(Value, Value)> = HashSet::new();
        for _ in 0..n_r {
            let mut a = Value::Const(rng.below(domain) as i64);
            let mut b = Value::Const(rng.below(domain) as i64);
            if rng.chance(1, 10) {
                let null = nv(rng.below(nulls) as u32);
                if rng.chance(1, 2) {
                    a = null;
                } else {
                    b = null;
                }
            }
            csv_line(&mut csv, "R", a, b);
            r.insert((a, b));
        }
        let mut s: HashSet<Value> = HashSet::new();
        for _ in 0..n_s {
            let z = Value::Const(rng.below(domain) as i64);
            let _ = writeln!(csv, "S,{}", z.as_const().unwrap_or(0));
            s.insert(z);
        }
        // The expectation, by a hash join written here: no library code.
        let mut succ: HashMap<Value, Vec<Value>> = HashMap::new();
        for &(a, b) in &r {
            succ.entry(a).or_default().push(b);
        }
        let mut want = Table::new();
        for &(x, y) in &r {
            if !x.is_const() {
                continue;
            }
            for &z in succ.get(&y).into_iter().flatten() {
                if s.contains(&z) {
                    want.insert(vec![x, z]);
                }
            }
        }
        NaiveBulk { csv, want }
    }
}

impl Workload for NaiveBulk {
    fn pass(&self, t: &mut Tracer) -> Result<Outcome, String> {
        let mut c = Counts::new();
        let store = t
            .span("ingest", || load_bytes(self.csv.as_bytes(), WIDTH))
            .map_err(|e| format!("ingest: {e:?}"))?;
        add(&mut c, "ingest.facts", store.n_live() as usize);
        let db = t.span("bridge", || from_store(&store));
        add(&mut c, "bridge.facts_copied", db.len());
        let q = parse_query(t, "(x, z) :- R(x, y), R(y, z), S(z)")?;
        let answers = answer(t, &db, &q, &mut c)?;
        Ok(Outcome { answers, counts: c })
    }

    fn gate(&self, answers: &Table) -> Result<(), String> {
        gate_table(answers, &self.want)
    }
}

/// `naive_certify`: a small naive database in text syntax whose certain
/// answers come from the certified completion sweep, every row's
/// certificate checked.
struct NaiveCertify {
    text: String,
    completions: usize,
    want: Table,
}

const CERTIFY_QUERY: &str = "(x, z) :- R(x, y), R(y, z)";

impl NaiveCertify {
    fn new(rng: &mut Rng, n_consts: usize, n_nulls: usize, n_facts: usize) -> Self {
        // The cost of a completion depends on the database's join sizes,
        // so the shape is the same for every seed: the seed renames the
        // constants and orders the facts.
        let mut consts: Vec<String> = (0..n_consts).map(|i| (3 * i + 2).to_string()).collect();
        rng.shuffle(&mut consts);
        let mut shape = Rng::new(0);
        let mut pick = || consts[shape.below(n_consts as u64) as usize].clone();
        let mut facts: BTreeSet<(String, String)> = BTreeSet::new();
        // A cycle over every constant: every constant is in the pool and
        // the certain table is never empty, so the sweep cannot stop early.
        for i in 0..n_consts {
            facts.insert((consts[i].clone(), consts[(i + 1) % n_consts].clone()));
        }
        for j in 0..n_nulls {
            facts.insert((pick(), format!("?n{j}")));
            facts.insert((format!("?n{j}"), pick()));
        }
        while facts.len() < n_facts {
            let a = pick();
            let b = pick();
            facts.insert((a, b));
        }
        let mut facts: Vec<_> = facts.into_iter().collect();
        rng.shuffle(&mut facts);
        let text = facts
            .iter()
            .map(|(a, b)| format!("R({a}, {b})"))
            .collect::<Vec<_>>()
            .join("; ");
        let db = parse_database(&text).expect("generated database parses");
        let q = parse_ucq(CERTIFY_QUERY).expect("fixed query parses");
        let pool = adequate_pool(&db, &ucq_constants(&q));
        NaiveCertify {
            completions: pool.len().pow(db.nulls().len() as u32),
            // Theorem 2: naive evaluation gives the certain answers.
            want: naive_eval_table(&q, &db),
            text,
        }
    }
}

impl Workload for NaiveCertify {
    fn pass(&self, t: &mut Tracer) -> Result<Outcome, String> {
        let mut c = Counts::new();
        let db = t
            .span("parse", || parse_database(&self.text))
            .map_err(|e| format!("database: {e:?}"))?;
        let q = parse_query(t, CERTIFY_QUERY)?;
        if t.is_on() {
            // The bare sweep: the base of `certify.overhead`.
            let bare = t.span("side:sweep", || certain_table_with(&q, &db, WIDTH));
            gate_table(&bare, &self.want)?;
            add(&mut c, "sweep.completions", self.completions);
        }
        let (table, certs) = t.span("certify", || certain_table_certified(&q, &db, WIDTH));
        add(&mut c, "certify.certs", certs.len());
        t.span("check", || {
            let cq = cert_query(&q);
            let facts = db_facts(&db);
            certs.iter().try_for_each(|(row, cert)| {
                check_certain_row(&cq, &facts, cert)
                    .map_err(|r| format!("check_certain_row rejected: {r:?}"))?;
                if &cert.row != row || !table.contains(row) {
                    return Err("certificate names another row".to_string());
                }
                Ok(())
            })
        })?;
        expect_size("certificate list", certs.len(), table.len())?;
        add(&mut c, "check.steps", certs.len());
        Ok(Outcome {
            answers: table,
            counts: c,
        })
    }

    fn gate(&self, answers: &Table) -> Result<(), String> {
        gate_table(answers, &self.want)
    }
}
