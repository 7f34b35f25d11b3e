//! Golden pin for the certified chase: one digest over the certificate
//! bytes and the canonical outcome of a fixed corpus.
//!
//! The corpus chases small random instances over two binary relations
//! (`R`, `S`) under every nonempty subset of five constraints —
//! transitivity and symmetry on `R`, the existential tgd
//! `R(x, y) → ∃z S(y, z)`, and a functionality egd on each relation — at
//! sizes 0–16, widths 1 and 4, under a generous budget, a small step
//! budget (`Aborted`) and a small match budget (`Overflow`). One larger
//! instance clears the match phase's fan-out gates (`PAR_MIN_SEED` seed
//! facts, `PART_MIN_WORK` estimated join work) and merges through both
//! egds; it runs at widths 1, 2, 4 and 7.
//!
//! Outcomes are hashed as sorted fact lists, never through `Debug`: a
//! `GenDb`'s `Debug` output is not stable across processes. The pinned
//! constant changes only when a certificate or a chase outcome does.

use ca_core::value::{Null, Value};
use ca_exchange::chase::{chase_certified, ChaseConfig, ChaseOutcome, Egd};
use ca_exchange::mapping::Rule;
use ca_gdm::database::GenDb;
use ca_gdm::schema::GenSchema;
use ca_relational::generate::Rng;

/// FNV-1a, 64-bit: a stable, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Const(c) => {
                self.bytes(&[0]);
                self.bytes(&c.to_le_bytes());
            }
            Value::Null(Null(id)) => {
                self.bytes(&[1]);
                self.bytes(&id.to_le_bytes());
            }
        }
    }
}

fn n(id: u32) -> Value {
    Value::null(id)
}

fn schema() -> GenSchema {
    GenSchema::from_parts(&[("R", 2), ("S", 2)], &[])
}

fn pattern(atoms: &[(&str, [u32; 2])]) -> GenDb {
    let mut d = GenDb::new(schema());
    for (rel, [a, b]) in atoms {
        d.add_node(rel, vec![n(*a), n(*b)]);
    }
    d
}

fn rule(body: &[(&str, [u32; 2])], head: &[(&str, [u32; 2])]) -> Rule {
    Rule {
        body: pattern(body),
        head: pattern(head),
    }
}

fn functionality(rel: &str) -> Egd {
    Egd {
        body: pattern(&[(rel, [1, 2]), (rel, [1, 3])]),
        equal: (Null(2), Null(3)),
    }
}

/// The constraint subset named by the low five bits of `bits`.
fn pool(bits: u8) -> (Vec<Rule>, Vec<Egd>) {
    let tgds = [
        rule(&[("R", [1, 2]), ("R", [2, 3])], &[("R", [1, 3])]),
        rule(&[("R", [1, 2])], &[("R", [2, 1])]),
        rule(&[("R", [1, 2])], &[("S", [2, 9])]),
    ];
    let egds = [functionality("R"), functionality("S")];
    let pick = |i: usize| bits & (1 << i) != 0;
    (
        tgds.into_iter()
            .enumerate()
            .filter(|&(i, _)| pick(i))
            .map(|(_, r)| r)
            .collect(),
        egds.into_iter()
            .enumerate()
            .filter(|&(i, _)| pick(3 + i))
            .map(|(_, e)| e)
            .collect(),
    )
}

/// `size` random facts over `R` and `S`: constants `0..4`, nulls from a
/// pool of four, 40% nulls.
fn instance(seed: u64, size: usize) -> GenDb {
    let mut rng = Rng::new(seed);
    let mut d = GenDb::new(schema());
    for _ in 0..size {
        let rel = if rng.chance(1, 3) { "S" } else { "R" };
        let row = (0..2)
            .map(|_| {
                if rng.chance(40, 100) {
                    n(rng.below(4) as u32 + 1)
                } else {
                    Value::Const(rng.below(4) as i64)
                }
            })
            .collect();
        d.add_node(rel, row);
    }
    d
}

/// 250 keys with one constant and seven null `R` successors each (the
/// nulls merge into the constant), plus 600 `S` facts whose keys carry
/// a null and a constant (the null merges away): 2,600 seed facts, and
/// an eight-fold `R` fan-out that prices the egd join past
/// `PART_MIN_WORK`.
fn wide_instance() -> GenDb {
    let mut d = GenDb::new(schema());
    let mut next_null = 100;
    for k in 0..250i64 {
        d.add_node("R", vec![Value::Const(k), Value::Const(10_000 + k)]);
        for _ in 0..7 {
            d.add_node("R", vec![Value::Const(k), n(next_null)]);
            next_null += 1;
        }
    }
    for k in 0..300i64 {
        d.add_node("S", vec![Value::Const(20_000 + k), n(next_null)]);
        d.add_node("S", vec![Value::Const(20_000 + k), Value::Const(k % 5)]);
        next_null += 1;
    }
    d
}

/// Feed one certified run into the digest: certificate bytes, outcome
/// variant, and the outcome instance as a sorted fact list.
fn digest_run(h: &mut Fnv, d: &GenDb, tgds: &[Rule], egds: &[Egd], cfg: &ChaseConfig) -> Vec<u8> {
    let (outcome, cert) = chase_certified(d, tgds, egds, cfg);
    let bytes = cert
        .expect("the compiled engine certifies relational inputs")
        .to_bytes();
    h.bytes(&(bytes.len() as u64).to_le_bytes());
    h.bytes(&bytes);
    let (tag, db) = match &outcome {
        ChaseOutcome::Done(db) => (0u8, Some(db)),
        ChaseOutcome::Failed => (1, None),
        ChaseOutcome::Aborted => (2, None),
        ChaseOutcome::Overflow(db) => (3, Some(db)),
    };
    h.bytes(&[tag]);
    if let Some(db) = db {
        let mut facts: Vec<(&str, &[Value])> = db
            .labels
            .iter()
            .zip(&db.data)
            .map(|(&label, row)| (db.schema.label_name(label), row.as_slice()))
            .collect();
        facts.sort();
        h.bytes(&(facts.len() as u64).to_le_bytes());
        for (rel, row) in facts {
            h.bytes(rel.as_bytes());
            row.iter().for_each(|&v| h.value(v));
        }
    }
    bytes
}

/// The corpus digest. Any change to a certificate's bytes or to a chase
/// outcome changes it.
const GOLDEN: u64 = 0xf974_e49d_8a5a_1c67;

#[test]
fn certified_chase_golden_digest() {
    let mut h = Fnv::new();
    for bits in 1u8..32 {
        let (tgds, egds) = pool(bits);
        for size in 0..=16usize {
            let d = instance(u64::from(bits) * 100 + size as u64, size);
            for (max_steps, match_limit) in [(10_000, 100_000), (5, 100_000), (10_000, 3)] {
                let mut first: Option<Vec<u8>> = None;
                for threads in [1usize, 4] {
                    let cfg = ChaseConfig {
                        match_limit,
                        ..ChaseConfig::with_threads(max_steps, threads)
                    };
                    let bytes = digest_run(&mut h, &d, &tgds, &egds, &cfg);
                    match &first {
                        None => first = Some(bytes),
                        Some(b) => assert_eq!(b, &bytes, "width changed the certificate"),
                    }
                }
            }
        }
    }
    let (tgds, egds) = pool(0b11100);
    let wide = wide_instance();
    for threads in [1usize, 2, 4, 7] {
        digest_run(
            &mut h,
            &wide,
            &tgds,
            &egds,
            &ChaseConfig::with_threads(100_000, threads),
        );
    }
    assert_eq!(h.0, GOLDEN, "certified chase digest: {:#018x}", h.0);
}
