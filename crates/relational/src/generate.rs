//! Deterministic random-instance generators for tests and experiments.
//!
//! A tiny splitmix64-based RNG keeps the crate dependency-free and the
//! workloads reproducible across runs (seeds appear in EXPERIMENTS.md).

use ca_core::value::{NullGen, Value};

use crate::database::{Fact, NaiveDatabase};
use crate::schema::Schema;

/// A deterministic splitmix64 RNG.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded construction.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9e3779b97f4a7c15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Bernoulli with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Parameters for random naïve databases.
#[derive(Clone, Copy, Debug)]
pub struct DbParams {
    /// Number of facts.
    pub n_facts: usize,
    /// Arity of the single relation `R`.
    pub arity: usize,
    /// Constants are drawn from `0..n_constants`.
    pub n_constants: i64,
    /// Nulls are drawn from a pool of this size (reuse possible).
    pub n_nulls: u32,
    /// Probability (out of 100) that a position holds a null.
    pub null_pct: u64,
}

/// A random naïve database over one relation `R` with the given parameters.
pub fn random_naive_db(rng: &mut Rng, p: DbParams) -> NaiveDatabase {
    let schema = Schema::from_relations(&[("R", p.arity)]);
    let facts = (0..p.n_facts).map(|_| {
        let row: Vec<Value> = (0..p.arity)
            .map(|_| {
                if p.n_nulls > 0 && rng.chance(p.null_pct, 100) {
                    Value::null(rng.below(p.n_nulls as u64) as u32)
                } else {
                    Value::Const(rng.below(p.n_constants as u64) as i64)
                }
            })
            .collect();
        ("R", row)
    });
    NaiveDatabase::from_named(schema, facts)
}

/// A random multi-relation schema: `n_relations` relations named
/// `R0, R1, …`, each with an arity drawn uniformly from `1..=max_arity`.
pub fn random_schema(rng: &mut Rng, n_relations: usize, max_arity: usize) -> Schema {
    let rels: Vec<(String, usize)> = (0..n_relations)
        .map(|i| (format!("R{i}"), rng.below(max_arity as u64) as usize + 1))
        .collect();
    let refs: Vec<(&str, usize)> = rels.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    Schema::from_relations(&refs)
}

/// A random naïve database over an arbitrary schema: `n_facts` facts, each
/// over a uniformly-chosen relation, with positions filled like
/// [`random_naive_db`] (`p.arity` is ignored — arities come from the
/// schema).
pub fn random_naive_db_over(rng: &mut Rng, schema: &Schema, p: DbParams) -> NaiveDatabase {
    let symbols: Vec<_> = schema.symbols().collect();
    let facts = (0..p.n_facts)
        .map(|_| {
            let rel = symbols[rng.below(symbols.len() as u64) as usize];
            let args: Vec<Value> = (0..schema.arity(rel))
                .map(|_| {
                    if p.n_nulls > 0 && rng.chance(p.null_pct, 100) {
                        Value::null(rng.below(p.n_nulls as u64) as u32)
                    } else {
                        Value::Const(rng.below(p.n_constants as u64) as i64)
                    }
                })
                .collect();
            Fact { rel, args }
        })
        .collect();
    NaiveDatabase::from_facts(schema.clone(), facts)
}

/// A random *Codd* database: every null occurrence is globally fresh.
pub fn random_codd_db(
    rng: &mut Rng,
    n_facts: usize,
    arity: usize,
    n_constants: i64,
) -> NaiveDatabase {
    let schema = Schema::from_relations(&[("R", arity)]);
    let mut gen = NullGen::new();
    let facts = (0..n_facts).map(|_| {
        let row: Vec<Value> = (0..arity)
            .map(|_| {
                if rng.chance(30, 100) {
                    gen.fresh_value()
                } else {
                    Value::Const(rng.below(n_constants as u64) as i64)
                }
            })
            .collect();
        ("R", row)
    });
    NaiveDatabase::from_named(schema, facts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn naive_db_has_requested_shape() {
        let mut rng = Rng::new(1);
        let db = random_naive_db(
            &mut rng,
            DbParams {
                n_facts: 20,
                arity: 3,
                n_constants: 5,
                n_nulls: 4,
                null_pct: 50,
            },
        );
        assert!(db.len() <= 20); // set semantics may dedup
        for f in db.facts() {
            assert_eq!(f.args.len(), 3);
        }
        for c in db.constants() {
            assert!((0..5).contains(&c));
        }
        for n in db.nulls() {
            assert!(n.0 < 4);
        }
    }

    #[test]
    fn codd_db_is_codd() {
        let mut rng = Rng::new(2);
        for _ in 0..20 {
            let db = random_codd_db(&mut rng, 10, 2, 4);
            assert!(db.is_codd());
        }
    }

    #[test]
    fn zero_null_pct_gives_complete_db() {
        let mut rng = Rng::new(3);
        let db = random_naive_db(
            &mut rng,
            DbParams {
                n_facts: 10,
                arity: 2,
                n_constants: 3,
                n_nulls: 4,
                null_pct: 0,
            },
        );
        assert!(db.is_complete());
    }
}
