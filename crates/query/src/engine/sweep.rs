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
//! Orbit reduction: an adequate pool ([`CompletionSpace::adequate`]) ends
//! in one fresh constant per null. A generic query cannot tell two
//! completions apart that differ by a permutation of the fresh constants,
//! so [`CompletionSpace::all`] and [`CompletionSpace::intersect`] evaluate
//! only the least index of each such orbit ([`CompletionSpace::is_canonical`],
//! an O(#nulls) digit scan) and drop answer rows that name a fresh
//! constant (no certain answer can). The orbit minimum is canonical, so
//! the lowest index failing an orbit-invariant test is still found. A
//! space built by [`CompletionSpace::new`] treats every pool constant as
//! fixed and sweeps the full grid.
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
use crate::certain::adequate_pool;

/// The space of completions of `db` into a constant pool, addressable by
/// linear index: completion `i` grounds null `j` (in sorted null order)
/// to `pool[d_j]` where `d_0 d_1 …` are the base-`|pool|` digits of `i`.
/// Pool positions `fixed..` hold fresh constants (see [`Self::adequate`]).
pub struct CompletionSpace<'a> {
    db: &'a NaiveDatabase,
    nulls: Vec<Null>,
    pool: Vec<i64>,
    /// Pool positions below this are fixed constants; the rest are fresh
    /// and interchangeable.
    fixed: usize,
    /// `|pool|^(#nulls − 1)`: the weight of the most significant digit
    /// (saturated when it overflows — such a space cannot be swept).
    top: u128,
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
    /// Set up the full grid over an explicit pool, every constant fixed.
    /// The pool may be empty only if the database has no nulls
    /// (otherwise the space is empty — see [`Self::len`]).
    pub fn new(db: &'a NaiveDatabase, pool: &[i64]) -> Self {
        Self::with_fixed(db, pool.to_vec(), pool.len())
    }

    /// The space over [`adequate_pool`]`(db, query_constants)`, whose
    /// trailing one-per-null constants are fresh: sweeps visit one
    /// completion per fresh-constant orbit. Exact for queries that are
    /// generic over the constants of `db` and `query_constants`.
    pub fn adequate(db: &'a NaiveDatabase, query_constants: &BTreeSet<i64>) -> Self {
        let pool = adequate_pool(db, query_constants);
        let fixed = pool.len() - db.nulls().len();
        Self::with_fixed(db, pool, fixed)
    }

    fn with_fixed(db: &'a NaiveDatabase, pool: Vec<i64>, fixed: usize) -> Self {
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
        let exp = u32::try_from(nulls.len().saturating_sub(1)).unwrap_or(u32::MAX);
        let top = (pool.len() as u128).checked_pow(exp).unwrap_or(u128::MAX);
        CompletionSpace {
            nulls,
            db,
            pool,
            fixed,
            top,
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

    /// The constant pool (fixed constants first for [`Self::adequate`]).
    pub fn pool(&self) -> &[i64] {
        &self.pool
    }

    /// Is completion `i` the least index of its orbit under permutations
    /// of the fresh constants? Reading the digits from the most
    /// significant one, fresh labels must first appear in increasing
    /// order; that relabelling is the orbit's numeric minimum. O(#nulls),
    /// allocation-free; always true when no constant is fresh.
    pub fn is_canonical(&self, i: u128) -> bool {
        if self.fixed == self.pool.len() {
            return true;
        }
        let base = self.pool.len() as u128;
        let mut next_fresh = self.fixed;
        let mut weight = self.top;
        for _ in &self.nulls {
            let digit = ((i / weight) % base) as usize;
            if digit > next_fresh {
                return false;
            }
            if digit == next_fresh {
                next_fresh += 1;
            }
            weight /= base;
        }
        true
    }

    /// Does `check(i)` hold for every completion, testing one index per
    /// fresh-constant orbit? See [`parallel_all`].
    pub fn all(&self, threads: usize, check: impl Fn(u128) -> bool + Sync) -> bool {
        parallel_all(self.len(), threads, |i| !self.is_canonical(i) || check(i))
    }

    /// Intersect `eval(i)` over every completion, evaluating one index
    /// per fresh-constant orbit and dropping the rows that name a fresh
    /// constant (a generic query's certain answers mention only constants
    /// of the database and the query). See [`parallel_intersect`] (`None`
    /// only for an empty space).
    pub fn intersect(
        &self,
        threads: usize,
        eval: impl Fn(u128) -> BTreeSet<Vec<Value>> + Sync,
    ) -> Option<BTreeSet<Vec<Value>>> {
        let fresh = &self.pool[self.fixed..];
        parallel_intersect(self.len(), threads, |i| {
            self.is_canonical(i).then(|| {
                let mut rows = eval(i);
                if !fresh.is_empty() {
                    rows.retain(|row| {
                        !row.iter()
                            .any(|v| matches!(v, Value::Const(k) if fresh.contains(k)))
                    });
                }
                rows
            })
        })
    }

    /// Completion `i` as an explicit valuation, in sorted null order.
    pub fn valuation(&self, i: u128) -> Vec<(Null, i64)> {
        let base = self.pool.len() as u128;
        let mut rest = i;
        self.nulls
            .iter()
            .map(|&n| {
                let c = self.pool[(rest % base) as usize];
                rest /= base;
                (n, c)
            })
            .collect()
    }

    /// Materialize completion `i`.
    pub fn completion(&self, i: u128) -> NaiveDatabase {
        let mut h = Valuation::new();
        for (n, c) in self.valuation(i) {
            h.bind(n, Value::Const(c));
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
/// early exit once the intersection is known to be empty. An index whose
/// `eval` is `None` is skipped: it constrains nothing. Returns `None`
/// when nothing was intersected (`count == 0`, or every index skipped) —
/// the intersection over no sets is "everything", which has no finite
/// representation; callers choose their semantics (brute-force certain
/// answers return the empty table, documented at the call site).
pub fn parallel_intersect(
    count: u128,
    threads: usize,
    eval: impl Fn(u128) -> Option<BTreeSet<Vec<Value>>> + Sync,
) -> Option<BTreeSet<Vec<Value>>> {
    let parts = chunks(count, effective_threads(count, threads));
    let partials = exec::map(parts.len(), threads, |t, stop| {
        let (lo, hi) = parts[t];
        let mut acc: Option<BTreeSet<Vec<Value>>> = None;
        for i in lo..hi {
            if stop.cancelled(t) {
                break;
            }
            let Some(next) = eval(i) else { continue };
            match &mut acc {
                None => acc = Some(next),
                Some(rows) => rows.retain(|row| next.contains(row)),
            }
            if acc.as_ref().is_some_and(BTreeSet::is_empty) {
                stop.keep_below(0);
                break;
            }
        }
        acc
    });
    // Only an empty partial cuts, and it stays in the fold, so cancelled
    // (superset) and skipped (`None`) chunks cannot change the result.
    partials.into_iter().flatten().reduce(|mut acc, next| {
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
        let eval = |i: u128| -> Option<BTreeSet<Vec<Value>>> {
            Some(
                (0..4u8)
                    .filter(|&j| u128::from(j) != i % 97)
                    .map(|j| vec![c(i64::from(j))])
                    .collect(),
            )
        };
        let expected = parallel_intersect(count, 1, eval).unwrap();
        assert_eq!(parallel_intersect(count, 4, eval).unwrap(), expected);
    }

    #[test]
    fn parallel_intersect_agrees_across_thread_counts() {
        let eval = |i: u128| -> Option<BTreeSet<Vec<Value>>> {
            // Row {c(j)} survives completion i iff j divides 60... use a
            // simple shrinking family: completion i keeps rows >= i/8.
            Some(
                (0..8u8)
                    .filter(|&j| u128::from(j) >= i / 8)
                    .map(|j| vec![c(i64::from(j))])
                    .collect(),
            )
        };
        let expected = parallel_intersect(20, 1, eval).unwrap();
        for threads in [2, 3, 4, 9] {
            assert_eq!(parallel_intersect(20, threads, eval).unwrap(), expected);
        }
        assert!(parallel_intersect(0, 4, eval).is_none());
        // A family that empties early.
        let empty = parallel_intersect(64, 4, |i| {
            if i == 5 {
                Some(BTreeSet::new())
            } else {
                Some(BTreeSet::from([vec![c(1)]]))
            }
        });
        assert_eq!(empty, Some(BTreeSet::new()));
    }

    /// Skipped indices constrain nothing, in any chunk layout; a sweep
    /// that skips everything intersected no sets.
    #[test]
    fn parallel_intersect_skips_none() {
        // Only multiples of 7 constrain; index 35 removes row 1.
        let eval = |i: u128| {
            i.is_multiple_of(7).then(|| {
                (0..3u8)
                    .filter(|&j| !(i == 35 && j == 1))
                    .map(|j| vec![c(i64::from(j))])
                    .collect()
            })
        };
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                parallel_intersect(50, threads, eval),
                Some(BTreeSet::from([vec![c(0)], vec![c(2)]]))
            );
            assert_eq!(parallel_intersect(50, threads, |_| None), None);
        }
    }

    /// All permutations of `0..k`.
    fn permutations(k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(k - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, k - 1);
                out.push(q);
            }
        }
        out
    }

    /// `R(0) … R(fixed − 1)` plus `R(⊥1) … R(⊥k)`: an adequate pool of
    /// `fixed` fixed and `k` fresh constants.
    fn unary_db(fixed: usize, k: usize) -> NaiveDatabase {
        let rows: Vec<Vec<Value>> = (0..fixed)
            .map(|j| vec![c(j as i64)])
            .chain((1..=k).map(|j| vec![n(j as u32)]))
            .collect();
        let refs: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
        table("R", 1, &refs)
    }

    /// Index `i` of a `k = perm.len()`-null grid with fresh digit
    /// `fixed + f` relabelled to `fixed + perm[f]`.
    fn relabel(i: u128, fixed: usize, base: u128, perm: &[usize]) -> u128 {
        let mut rest = i;
        let mut image = 0;
        let mut weight = 1;
        for _ in perm {
            let d = (rest % base) as usize;
            let d = if d < fixed {
                d
            } else {
                fixed + perm[d - fixed]
            };
            image += d as u128 * weight;
            weight *= base;
            rest /= base;
        }
        image
    }

    /// `|orbits|` = Σₛ C(k,s)·fixed^(k−s)·Bell(s): choose the `s` nulls
    /// grounded to fresh constants, ground the rest to fixed ones, and
    /// partition the `s` into same-constant blocks.
    fn orbit_count(fixed: u128, k: u32) -> u128 {
        const BELL: [u128; 5] = [1, 1, 2, 5, 15];
        let binom = |n: u128, r: u128| (0..r).fold(1, |acc, j| acc * (n - j) / (j + 1));
        (0..=k)
            .map(|s| binom(k.into(), s.into()) * fixed.pow(k - s) * BELL[s as usize])
            .sum()
    }

    /// Over every grid with `fixed ≤ 3` and `#nulls ≤ 4` (one fresh
    /// constant per null), orbits under fresh-constant permutations are
    /// grouped by brute force: exactly one index per orbit is canonical,
    /// it is the orbit minimum, and the canonical count matches the
    /// closed form.
    #[test]
    fn canonical_index_is_the_orbit_minimum() {
        for fixed in 0..=3usize {
            for k in 0..=4usize {
                let db = unary_db(fixed, k);
                let space = CompletionSpace::adequate(&db, &BTreeSet::new());
                assert_eq!(space.pool().len(), fixed + k);
                let base = (fixed + k) as u128;
                let perms = permutations(k);
                let mut minima = BTreeSet::new();
                let mut canonical = 0u128;
                for i in 0..space.len() {
                    let orbit_min = perms
                        .iter()
                        .map(|perm| relabel(i, fixed, base, perm))
                        .min()
                        .unwrap_or(i);
                    minima.insert(orbit_min);
                    assert_eq!(
                        space.is_canonical(i),
                        i == orbit_min,
                        "fixed={fixed} k={k} i={i} orbit min {orbit_min}"
                    );
                    canonical += u128::from(space.is_canonical(i));
                }
                assert_eq!(canonical, minima.len() as u128, "one per orbit");
                assert_eq!(canonical, orbit_count(fixed as u128, k as u32));
            }
        }
        // The `naive_certify` pipeline shape: 6 fixed constants, 4 nulls.
        assert_eq!(orbit_count(6, 4), 2727);
        let db = unary_db(6, 4);
        let space = CompletionSpace::adequate(&db, &BTreeSet::new());
        assert_eq!(space.len(), 10_000);
        let canonical = (0..space.len()).filter(|&i| space.is_canonical(i)).count();
        assert_eq!(canonical, 2727);
        // An explicit pool keeps every constant fixed: the full grid.
        let full = CompletionSpace::new(&db, space.pool());
        assert!((0..full.len()).all(|i| full.is_canonical(i)));
    }
}
