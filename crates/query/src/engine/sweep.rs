//! Parallel sweeps over completion spaces.
//!
//! Brute-force certain answers intersect (or conjoin) a query's result
//! over every completion of a naïve database into an adequate constant
//! pool. That space is a `|pool|^#nulls` grid; this module addresses it
//! by linear index, splits it into contiguous chunks, one
//! [`ca_core::exec::map`] task each, and sweeps with early exit: once any
//! chunk's partial intersection is empty (or any completion falsifies a
//! Boolean query), the chunk cuts every task (`keep_below(0)`) — the
//! global answer is already determined.
//!
//! Determinism: per-chunk partial results are sets, set intersection is
//! commutative and associative, and the final merge folds them in chunk
//! order, so the answer is byte-identical for every width (asserted by
//! `tests/eval_differential.rs`).

use std::collections::BTreeSet;

use ca_core::exec;
use ca_core::store::{null_index, FactStore, ValueId};
use ca_core::value::{Null, Value};
use ca_relational::database::{NaiveDatabase, Valuation};
use ca_relational::store_bridge::to_store;

use super::cost::CostModel;

/// The space of completions of `db` into a constant pool, addressable by
/// linear index: completion `i` grounds null `j` (in sorted null order)
/// to `pool[d_j]` where `d_0 d_1 …` are the base-`|pool|` digits of `i`.
pub struct CompletionSpace<'a> {
    db: &'a NaiveDatabase,
    nulls: Vec<Null>,
    pool: &'a [i64],
    /// The database loaded once into the columnar store; completions are
    /// stamped out of it by [`FactStore::clone_remapped`] without
    /// re-interning or re-hashing anything per completion.
    base: FactStore,
    /// Pool constants pre-interned in `base` (parallel to `pool`).
    pool_ids: Vec<ValueId>,
    /// Dense null index in `base` → position in the sorted `nulls` list
    /// (the digit position in the linear completion index).
    digit_of_dense: Vec<usize>,
}

impl<'a> CompletionSpace<'a> {
    /// Set up the space. The pool may be empty only if the database has
    /// no nulls (otherwise the space is empty — see [`Self::len`]).
    pub fn new(db: &'a NaiveDatabase, pool: &'a [i64]) -> Self {
        let nulls: Vec<Null> = db.nulls().into_iter().collect();
        let mut base = to_store(db);
        let pool_ids = pool
            .iter()
            .map(|&k| base.intern_value(Value::Const(k)))
            .collect();
        // Every null in `nulls` occurs in some fact, so it is already
        // interned; map its dense store index back to its digit position.
        let mut digit_of_dense = vec![0usize; nulls.len()];
        for (pos, &n) in nulls.iter().enumerate() {
            if let Some(id) = base.lookup_value(Value::Null(n)) {
                digit_of_dense[null_index(id) as usize] = pos;
            } else {
                debug_assert!(false, "database nulls are interned by to_store");
            }
        }
        CompletionSpace {
            nulls,
            db,
            pool,
            base,
            pool_ids,
            digit_of_dense,
        }
    }

    /// Number of completions: `|pool|^#nulls` (1 when there are no nulls
    /// — the database is its own sole completion — and 0 when there are
    /// nulls but nothing to ground them to).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u128`; such a sweep could never
    /// finish anyway.
    pub fn len(&self) -> u128 {
        // A null count past u32 saturates the exponent; checked_pow then
        // overflows (pool ≥ 2 in that regime) and the documented panic
        // below fires, same as any other hopeless sweep.
        let exp = u32::try_from(self.nulls.len()).unwrap_or(u32::MAX);
        (self.pool.len() as u128)
            .checked_pow(exp)
            // ca-lint: allow(L002, reason = "deliberate documented panic (see # Panics): a sweep past u128 completions can never terminate, so failing fast beats a wrong answer")
            .expect("completion space exceeds u128 — brute force is hopeless here")
    }

    /// The cost model priced off the base instance — the one store the
    /// space holds. Every completion shares its shape, so plans for the
    /// sweep compile against this model once.
    pub fn model(&self) -> CostModel {
        CostModel::from_store(&self.base)
    }

    /// Is the space empty (nulls present but an empty pool)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize completion `i`.
    pub fn completion(&self, i: u128) -> NaiveDatabase {
        let mut h = Valuation::new();
        let mut rest = i;
        let base = self.pool.len() as u128;
        for &n in &self.nulls {
            h.bind(n, Value::Const(self.pool[(rest % base) as usize]));
            rest /= base;
        }
        self.db.apply(&h)
    }

    /// Materialize completion `i` directly in the columnar store: clone
    /// the base column pages with each null's id overwritten by its pool
    /// constant's id. Same digit convention as [`Self::completion`], no
    /// per-completion interning or hashing.
    pub fn completion_store(&self, i: u128) -> FactStore {
        let base = self.pool.len() as u128;
        let mut digits: Vec<ValueId> = Vec::with_capacity(self.nulls.len());
        let mut rest = i;
        for _ in &self.nulls {
            digits.push(self.pool_ids[(rest % base) as usize]);
            rest /= base;
        }
        self.base
            .clone_remapped(|dense| digits[self.digit_of_dense[dense as usize]])
    }
}

/// Below this many completions the sweeps stay sequential regardless of
/// the requested thread count: spawning a scope and merging per-thread
/// sets costs more than the whole sweep on small grids (mirrors
/// `auto_config()` in `ca_hom::csp`, which gates the solver's pool the
/// same way). Measured on `BENCH_query.json`: the 1296-completion
/// `phi0_C4` grid ran at 0.16× under a forced pool; grids past ~20k
/// amortize it.
const PAR_MIN_COMPLETIONS: u128 = 20_000;

/// The thread count actually used for a sweep of `count` completions.
fn effective_threads(count: u128, threads: usize) -> usize {
    if count < PAR_MIN_COMPLETIONS {
        1
    } else {
        threads.max(1)
    }
}

/// Split `0..count` into at most `threads` contiguous non-empty chunks.
fn chunks(count: u128, threads: usize) -> Vec<(u128, u128)> {
    let threads = (threads.max(1) as u128).min(count.max(1));
    let per = count.div_ceil(threads.max(1)).max(1);
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < count {
        let hi = (lo + per).min(count);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Does `check(i)` hold for every `i` in `0..count`? Sweeps in parallel
/// with early exit on the first failure. Vacuously true for `count == 0`
/// (the usual convention for an intersection over an empty family).
pub fn parallel_all(count: u128, threads: usize, check: impl Fn(u128) -> bool + Sync) -> bool {
    let parts = chunks(count, effective_threads(count, threads));
    // A chunk is true only if it checked its whole range; only a failure
    // cuts, so a cancelled or skipped chunk is false for a good reason.
    exec::map(parts.len(), threads, |t, stop| {
        let (lo, hi) = parts[t];
        for i in lo..hi {
            if stop.cancelled(t) {
                return false;
            }
            if !check(i) {
                stop.keep_below(0);
                return false;
            }
        }
        true
    })
    .into_iter()
    .all(|ok| ok)
}

/// Intersect `eval(i)` over every `i` in `0..count`, in parallel with
/// early exit once the intersection is known to be empty. Returns `None`
/// for `count == 0` — the intersection over no sets is "everything",
/// which has no finite representation; callers choose their semantics
/// (brute-force certain answers return the empty table, documented at
/// the call site).
pub fn parallel_intersect(
    count: u128,
    threads: usize,
    eval: impl Fn(u128) -> BTreeSet<Vec<Value>> + Sync,
) -> Option<BTreeSet<Vec<Value>>> {
    if count == 0 {
        return None;
    }
    let parts = chunks(count, effective_threads(count, threads));
    let partials = exec::map(parts.len(), threads, |t, stop| {
        let (lo, hi) = parts[t];
        let mut acc = eval(lo);
        for i in lo + 1..hi {
            if acc.is_empty() || stop.cancelled(t) {
                break;
            }
            let next = eval(i);
            acc.retain(|row| next.contains(row));
        }
        if acc.is_empty() {
            stop.keep_below(0);
        }
        acc
    });
    // Only an empty partial cuts, and it stays in the fold, so cancelled
    // (superset) and skipped (empty) chunks cannot change the result.
    partials.into_iter().reduce(|mut acc, next| {
        acc.retain(|row| next.contains(row));
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_relational::database::build::{c, n, table};

    #[test]
    fn completion_space_counts() {
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), c(0)]]);
        let pool = [0, 1];
        let space = CompletionSpace::new(&db, &pool);
        assert_eq!(space.len(), 4);
        for i in 0..4 {
            assert!(space.completion(i).is_complete());
        }
        // No nulls: exactly one completion, the database itself.
        let complete = table("R", 1, &[&[c(7)]]);
        let space = CompletionSpace::new(&complete, &[]);
        assert_eq!(space.len(), 1);
        assert_eq!(space.completion(0), complete);
        // Nulls but empty pool: the space is empty.
        let stuck = table("R", 1, &[&[n(1)]]);
        let space = CompletionSpace::new(&stuck, &[]);
        assert!(space.is_empty());
    }

    #[test]
    fn completion_space_matches_completions_over() {
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), n(1)]]);
        let pool = [0, 1, 2];
        let space = CompletionSpace::new(&db, &pool);
        let mut by_index: Vec<NaiveDatabase> =
            (0..space.len()).map(|i| space.completion(i)).collect();
        let mut legacy = db.completions_over(&pool);
        assert_eq!(by_index.len(), legacy.len());
        by_index.sort_by(|a, b| a.facts().cmp(b.facts()));
        legacy.sort_by(|a, b| a.facts().cmp(b.facts()));
        assert_eq!(by_index, legacy);
    }

    /// The columnar completion path grounds every null exactly as the
    /// legacy `Valuation`-based one, at every linear index — including
    /// when grounding collapses distinct facts into duplicates.
    #[test]
    fn completion_store_matches_completion() {
        use ca_relational::store_bridge::from_store;
        let db = table("R", 2, &[&[c(0), n(1)], &[n(2), n(1)], &[n(2), c(0)]]);
        let pool = [0, 1, 5];
        let space = CompletionSpace::new(&db, &pool);
        assert_eq!(space.len(), 9);
        for i in 0..space.len() {
            let store = space.completion_store(i);
            assert_eq!(from_store(&store), space.completion(i), "index {i}");
        }
        // No nulls: the sole completion is the database itself.
        let complete = table("R", 1, &[&[c(7)]]);
        let space = CompletionSpace::new(&complete, &[]);
        assert_eq!(from_store(&space.completion_store(0)), complete);
    }

    #[test]
    fn parallel_all_agrees_across_thread_counts() {
        for threads in [1, 2, 4, 7] {
            assert!(parallel_all(100, threads, |i| i < 1000));
            assert!(!parallel_all(100, threads, |i| i != 63));
            assert!(parallel_all(0, threads, |_| false), "vacuous truth");
        }
    }

    /// Counts below [`PAR_MIN_COMPLETIONS`] must stay sequential (pool
    /// spawn would dominate); above it the requested width applies.
    #[test]
    fn small_grids_stay_sequential() {
        assert_eq!(effective_threads(PAR_MIN_COMPLETIONS - 1, 8), 1);
        assert_eq!(effective_threads(PAR_MIN_COMPLETIONS, 8), 8);
        assert_eq!(effective_threads(0, 8), 1);
        assert_eq!(effective_threads(PAR_MIN_COMPLETIONS, 0), 1);
    }

    /// The genuinely parallel path (count past the threshold) agrees
    /// with sequential on both sweeps.
    #[test]
    fn parallel_path_agrees_past_threshold() {
        let count = PAR_MIN_COMPLETIONS + 5_000;
        assert!(parallel_all(count, 4, |i| i < count));
        assert!(!parallel_all(count, 4, |i| i != PAR_MIN_COMPLETIONS + 63));
        let eval = |i: u128| -> BTreeSet<Vec<Value>> {
            (0..4u8)
                .filter(|&j| u128::from(j) != i % 97)
                .map(|j| vec![c(i64::from(j))])
                .collect()
        };
        let expected = parallel_intersect(count, 1, eval).unwrap();
        assert_eq!(parallel_intersect(count, 4, eval).unwrap(), expected);
    }

    #[test]
    fn parallel_intersect_agrees_across_thread_counts() {
        let eval = |i: u128| -> BTreeSet<Vec<Value>> {
            // Row {c(j)} survives completion i iff j divides 60... use a
            // simple shrinking family: completion i keeps rows >= i/8.
            (0..8u8)
                .filter(|&j| u128::from(j) >= i / 8)
                .map(|j| vec![c(i64::from(j))])
                .collect()
        };
        let expected = parallel_intersect(20, 1, eval).unwrap();
        for threads in [2, 3, 4, 9] {
            assert_eq!(parallel_intersect(20, threads, eval).unwrap(), expected);
        }
        assert!(parallel_intersect(0, 4, eval).is_none());
        // A family that empties early.
        let empty = parallel_intersect(64, 4, |i| {
            if i == 5 {
                BTreeSet::new()
            } else {
                BTreeSet::from([vec![c(1)]])
            }
        });
        assert_eq!(empty, Some(BTreeSet::new()));
    }
}
