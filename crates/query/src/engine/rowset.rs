//! The one id-level row dedup set.
//!
//! A join emits one head row per *binding*, and most consumers want the
//! distinct rows: UCQ answers, chase triggers, satisfied frontier
//! valuations, fired triggers, egd pairs. On join-heavy inputs bindings
//! outnumber distinct rows by tens (the closure query on a 144-edge path
//! enumerates ≈ 48 bindings per answer), so the per-binding cost of the
//! dedup is the pipeline's unit cost. [`RowSet`] keeps that cost at one
//! hash probe over interned `ValueId`s — no allocation, no `Value`
//! decoding, no ordered-tree walk:
//!
//! * rows have a fixed arity and live in one flat `ValueId` buffer, in
//!   first-insertion order;
//! * the open-addressed probe table holds, for arity ≤ 2, the row itself
//!   packed into one `u64` (so a probe compares one word), and for wider
//!   rows the row's index into the flat buffer; an
//!   [`indexed`](RowSet::indexed) set holds row indices at every arity,
//!   so [`RowSet::insert_at`] can name the row a duplicate hit (the
//!   certified chase keeps a witness beside each row that way);
//! * hashing is the workspace Fx mix ([`ca_core::fxhash`]), addressed by
//!   the hash's *high* bits — a multiplicative hash's low bits depend
//!   only on the key's low bits, which for a packed pair is the second
//!   column alone.
//!
//! Rows cross the API boundary as `Value`s only through
//! [`RowSet::decode`], once per distinct row. Iteration order is
//! insertion order, so a set's contents never depend on hash layout;
//! every consumer that needs an order decodes into a `BTreeSet` or
//! sorts.

use std::collections::BTreeSet;
use std::hash::Hasher;

use ca_core::fxhash::FxHasher;
use ca_core::store::ValueId;
use ca_core::value::Value;

/// The empty probe slot. No packed row equals it (that would need two
/// `INVALID_ID` columns, and stored ids are always below it) and no row
/// index reaches it.
const EMPTY: u64 = u64::MAX;

/// Widest arity whose rows pack into one `u64` probe key.
const PACKED_MAX_ARITY: usize = 2;

/// Smallest probe table: sixteen slots.
const MIN_BITS: u32 = 4;

/// A set of fixed-arity `ValueId` rows (see the module docs). The
/// default is the empty indexed set of arity 0.
#[derive(Clone, Debug, Default)]
pub struct RowSet {
    arity: usize,
    /// Whether probe slots hold packed rows rather than row indices.
    packed: bool,
    len: usize,
    /// The distinct rows, `arity` ids each, in first-insertion order.
    flat: Vec<ValueId>,
    /// Open-addressed probe table of `2^bits` slots, at most half full:
    /// packed rows or row indices, else [`EMPTY`].
    slots: Vec<u64>,
    bits: u32,
}

/// A row of arity ≤ 2 as one word: the first column in the high half.
#[inline]
fn pack(row: &[ValueId]) -> u64 {
    row.iter().fold(0u64, |k, &id| (k << 32) | u64::from(id))
}

impl RowSet {
    /// An empty set of `arity`-column rows.
    pub fn new(arity: usize) -> Self {
        RowSet {
            packed: arity <= PACKED_MAX_ARITY,
            ..Self::indexed(arity)
        }
    }

    /// An empty set of `arity`-column rows whose probe slots hold row
    /// indices at every arity, for [`Self::insert_at`].
    pub fn indexed(arity: usize) -> Self {
        RowSet {
            arity,
            packed: false,
            len: 0,
            flat: Vec::new(),
            slots: Vec::new(),
            bits: 0,
        }
    }

    /// The row width.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The probe-table entry for `row` stored as row number `r`.
    #[inline]
    fn entry(&self, row: &[ValueId], r: usize) -> u64 {
        if self.packed {
            pack(row)
        } else {
            r as u64
        }
    }

    /// Row `r` of the flat buffer.
    #[inline]
    fn row(&self, r: usize) -> &[ValueId] {
        let start = r * self.arity;
        &self.flat[start..start + self.arity]
    }

    /// The slot holding `row`, or the empty slot where it would go. The
    /// probe starts at the high `bits` bits of the row's Fx hash.
    #[inline]
    fn find(&self, row: &[ValueId]) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let key = self.packed.then(|| pack(row));
        let mut h = FxHasher::default();
        match key {
            Some(k) => h.write_u64(k),
            None => row.iter().for_each(|&id| h.write_u32(id)),
        }
        let mut i = (h.finish() >> (64 - self.bits)) as usize;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return (i, false);
            }
            let hit = match key {
                Some(k) => s == k,
                None => self.row(s as usize) == row,
            };
            if hit {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `row` (of length [`Self::arity`]); `true` iff it was new.
    pub fn insert(&mut self, row: &[ValueId]) -> bool {
        self.insert_slot(row).1
    }

    /// Insert `row` into an [`indexed`](Self::indexed) set: the row's
    /// index in first-insertion order, and `true` iff it was new.
    pub fn insert_at(&mut self, row: &[ValueId]) -> (usize, bool) {
        debug_assert!(!self.packed, "insert_at needs an indexed set");
        let (slot, new) = self.insert_slot(row);
        (self.slots[slot] as usize, new)
    }

    /// Insert `row`: the probe slot now holding it, and `true` iff it
    /// was new.
    #[inline]
    fn insert_slot(&mut self, row: &[ValueId]) -> (usize, bool) {
        debug_assert_eq!(row.len(), self.arity, "row arity");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let (slot, present) = self.find(row);
        if present {
            return (slot, false);
        }
        let entry = self.entry(row, self.len);
        debug_assert_ne!(entry, EMPTY, "a stored row packs to the empty slot");
        self.slots[slot] = entry;
        self.flat.extend_from_slice(row);
        self.len += 1;
        (slot, true)
    }

    /// Whether `row` is in the set.
    pub fn contains(&self, row: &[ValueId]) -> bool {
        debug_assert_eq!(row.len(), self.arity, "row arity");
        !self.slots.is_empty() && self.find(row).1
    }

    /// Double the probe table and re-seat every row.
    fn grow(&mut self) {
        self.bits = (self.bits + 1).max(MIN_BITS);
        self.slots = vec![EMPTY; 1 << self.bits];
        for r in 0..self.len {
            let (slot, _) = self.find(self.row(r));
            self.slots[slot] = self.entry(self.row(r), r);
        }
    }

    /// The distinct rows, in first-insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[ValueId]> + '_ {
        (0..self.len).map(move |r| self.row(r))
    }

    /// Insert every row of `other` (same arity).
    pub fn extend(&mut self, other: &RowSet) {
        debug_assert_eq!(other.arity, self.arity, "row arity");
        for row in other.rows() {
            self.insert(row);
        }
    }

    /// Decode every distinct row to `Value`s through `value` (the
    /// interner the ids came from) — the API boundary, paid once per
    /// distinct row.
    pub fn decode(&self, value: impl Fn(ValueId) -> Value) -> BTreeSet<Vec<Value>> {
        self.rows()
            .map(|row| row.iter().map(|&id| value(id)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::store::NULL_TAG;

    /// Rows at every arity from 0 to 4 dedup exactly like a `BTreeSet`,
    /// through several table growths, including ids that differ only in
    /// their high bits (the packed key must keep both halves) — in both
    /// the default and the [`RowSet::indexed`] layout, where `insert_at`
    /// must name each row by its first-insertion index.
    #[test]
    fn dedups_like_a_btreeset_at_every_arity() {
        use std::collections::BTreeMap;
        for arity in 0..=4usize {
            for indexed in [false, true] {
                let mut set = if indexed {
                    RowSet::indexed(arity)
                } else {
                    RowSet::new(arity)
                };
                let mut oracle: BTreeMap<Vec<ValueId>, usize> = BTreeMap::new();
                for i in 0..3000u32 {
                    let row: Vec<ValueId> = (0..arity)
                        .map(|c| {
                            let v = (i * 7 + c as u32 * 13) % 97;
                            if (i + c as u32).is_multiple_of(3) {
                                NULL_TAG | v
                            } else {
                                v
                            }
                        })
                        .collect();
                    let next = oracle.len();
                    let at = *oracle.entry(row.clone()).or_insert(next);
                    let new = at == next;
                    if indexed {
                        assert_eq!(set.insert_at(&row), (at, new), "arity {arity}");
                    } else {
                        assert_eq!(set.insert(&row), new, "arity {arity}");
                    }
                    assert!(set.contains(&row));
                }
                assert_eq!(set.len(), oracle.len());
                let mut by_index: Vec<(usize, Vec<ValueId>)> =
                    oracle.into_iter().map(|(row, at)| (at, row)).collect();
                by_index.sort();
                let want: Vec<Vec<ValueId>> = by_index.into_iter().map(|(_, row)| row).collect();
                let got: Vec<Vec<ValueId>> = set.rows().map(<[ValueId]>::to_vec).collect();
                assert_eq!(got, want, "arity {arity}, indexed {indexed}");
            }
        }
    }

    #[test]
    fn packed_rows_keep_both_halves() {
        let mut set = RowSet::new(2);
        assert!(set.insert(&[1, 5]));
        assert!(set.insert(&[2, 5]));
        assert!(set.insert(&[5, 1]));
        assert!(!set.insert(&[1, 5]));
        assert!(!set.contains(&[3, 5]));
        assert_eq!(set.len(), 3);
        // The empty row is the one row of arity 0.
        let mut unit = RowSet::new(0);
        assert!(!unit.contains(&[]));
        assert!(unit.insert(&[]));
        assert!(!unit.insert(&[]));
        assert_eq!(unit.rows().count(), 1);
    }

    #[test]
    fn extend_unions_and_decode_orders() {
        let mut a = RowSet::new(3);
        a.insert(&[3, 2, 1]);
        a.insert(&[1, 2, 3]);
        let mut b = RowSet::new(3);
        b.insert(&[1, 2, 3]);
        b.insert(&[0, 0, 0]);
        a.extend(&b);
        assert_eq!(a.len(), 3);
        let decoded = a.decode(|id| Value::Const(i64::from(id)));
        let want: Vec<Vec<Value>> = vec![vec![0, 0, 0], vec![1, 2, 3], vec![3, 2, 1]]
            .into_iter()
            .map(|r: Vec<i64>| r.into_iter().map(Value::Const).collect())
            .collect();
        assert_eq!(decoded.into_iter().collect::<Vec<_>>(), want);
    }
}
