//! Sort specifications and the one sort kernel, shared by the planner,
//! the mediator executor and the source adapters.
//!
//! A [`SortKey`] names a column ordinal plus direction and null
//! placement. The mediator pushes sort keys to capable sources and
//! sorts at the mediator what a source cannot, so both the spec and the
//! kernel live here, below `gis-adapters` and `gis-core`.
//!
//! ## The kernel
//!
//! [`RowOrder`] encodes each row's keys **once** into an
//! order-preserving, byte-comparable form and sorts [`SortEntry`]
//! `(prefix, row)` pairs — never a [`crate::Value`] per comparison:
//!
//! | key part               | bytes | encoding                                   |
//! |------------------------|-------|--------------------------------------------|
//! | NULL placement         | 0 / 1 | only when the column holds a NULL; `0`/`1` so NULLs sort first or last whatever the direction |
//! | `Boolean`              | 1     | `0` / `1`                                  |
//! | `Int32`, `Date`        | 4     | big-endian, sign bit flipped               |
//! | `Int64`, `Timestamp`   | 8     | big-endian, sign bit flipped               |
//! | `Float64`              | 8     | `total_cmp` bit trick: negative → all bits flipped, else sign bit flipped |
//! | `Utf8`                 | rest  | the string's leading bytes, zero padded; ends the prefix |
//! | `DESC`                 | —     | bitwise NOT of the value bytes             |
//!
//! The parts are concatenated most-significant first into one `u128`.
//! When every part fits (≤ 16 bytes, no `Utf8`) the prefix *is* the key
//! and entries sort with a plain `sort_unstable`; otherwise entries
//! whose prefixes tie fall back to a typed column comparator over the
//! remaining parts (`&str` slices for `Utf8`). The row index is the
//! last component of every comparison, so the order is total and an
//! unstable sort reproduces exactly what a stable sort of the rows
//! would — which is also why a bounded selection (`fetch`) returns
//! precisely the first `k` rows of the full sort.
//!
//! [`sorted_indices`] / [`compare_rows`] are the `Value`-per-comparison
//! reference the kernel is differentially tested against.

use crate::array::Array;
use crate::batch::Batch;
use crate::bitmap::Bitmap;
use std::cmp::Ordering;
use std::ops::Range;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortOrder {
    /// Ascending (default).
    #[default]
    Ascending,
    /// Descending.
    Descending,
}

impl SortOrder {
    /// Applies the direction to a base ordering.
    #[inline]
    pub fn apply(self, ord: Ordering) -> Ordering {
        match self {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        }
    }
}

/// One sort key: a column ordinal, direction, and null placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// Column ordinal in the batch being sorted.
    pub column: usize,
    /// Direction.
    pub order: SortOrder,
    /// When true, NULLs sort before all values regardless of direction.
    pub nulls_first: bool,
}

impl SortKey {
    /// A key from the `(column, ascending?, NULLs first?)` triple the
    /// SQL layers and the source protocol carry.
    pub fn new(column: usize, asc: bool, nulls_first: bool) -> Self {
        SortKey {
            column,
            order: if asc {
                SortOrder::Ascending
            } else {
                SortOrder::Descending
            },
            nulls_first,
        }
    }

    /// Ascending key with NULLs first (the engine default, matching
    /// `Value::total_cmp`).
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            order: SortOrder::Ascending,
            nulls_first: true,
        }
    }

    /// Descending key with NULLs first.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            order: SortOrder::Descending,
            nulls_first: true,
        }
    }

    /// Returns the key with the given null placement.
    pub fn with_nulls_first(mut self, nulls_first: bool) -> Self {
        self.nulls_first = nulls_first;
        self
    }

    /// Compares rows `a` of `ba` and `b` of `bb` under this key.
    pub fn compare(&self, ba: &Batch, a: usize, bb: &Batch, b: usize) -> Ordering {
        let ca = ba.column(self.column);
        let cb = bb.column(self.column);
        match (ca.is_valid(a), cb.is_valid(b)) {
            (false, false) => Ordering::Equal,
            (false, true) => {
                if self.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (true, false) => {
                if self.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (true, true) => self.order.apply(ca.value_at(a).total_cmp(&cb.value_at(b))),
        }
    }
}

/// Compares two rows under a compound key (lexicographic), one
/// [`crate::Value`] per side per key: the reference semantics.
pub fn compare_rows(keys: &[SortKey], ba: &Batch, a: usize, bb: &Batch, b: usize) -> Ordering {
    for k in keys {
        let ord = k.compare(ba, a, bb, b);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Reference sort: the row indices of `batch` under `keys`, by a
/// stable comparison sort over [`compare_rows`]. Kept as the oracle
/// [`sort_indices`] is differentially tested against; nothing on a
/// query path calls it.
pub fn sorted_indices(batch: &Batch, keys: &[SortKey]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..batch.num_rows()).collect();
    idx.sort_by(|&a, &b| compare_rows(keys, batch, a, batch, b));
    idx
}

/// True when the rows of `batch` are already ordered under `keys`
/// (reference semantics; used to validate emitted sequences).
pub fn is_sorted(batch: &Batch, keys: &[SortKey]) -> bool {
    (1..batch.num_rows()).all(|i| compare_rows(keys, batch, i - 1, batch, i) != Ordering::Greater)
}

/// Width of the byte-comparable prefix.
const PREFIX_BYTES: usize = 16;

/// One row of a sort: the leading 16 bytes of its encoded keys and its
/// index in the input. The derived order — prefix, then row —
/// is the whole order when the prefix is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SortEntry {
    /// Order-preserving encoding of the row's leading key bytes.
    pub prefix: u128,
    /// Row index in the sorted input.
    pub row: u32,
}

/// Bytes one [`SortEntry`] occupies in a sort buffer.
pub const SORT_ENTRY_BYTES: u64 = std::mem::size_of::<SortEntry>() as u64;

/// The typed values of one key column.
enum KeyValues<'a> {
    Boolean(&'a [bool]),
    Int32(&'a [i32]),
    Int64(&'a [i64]),
    Float64(&'a [f64]),
    Utf8(&'a [String]),
}

impl KeyValues<'_> {
    /// Encoded width in bytes; `None` for variable-width strings.
    fn width(&self) -> Option<usize> {
        match self {
            KeyValues::Boolean(_) => Some(1),
            KeyValues::Int32(_) => Some(4),
            KeyValues::Int64(_) | KeyValues::Float64(_) => Some(8),
            KeyValues::Utf8(_) => None,
        }
    }
}

/// One key of a [`RowOrder`]: a typed column view plus its placement.
struct KeyPart<'a> {
    values: KeyValues<'a>,
    validity: &'a Bitmap,
    has_nulls: bool,
    descending: bool,
    nulls_first: bool,
}

impl KeyPart<'_> {
    /// Compares rows `a` and `b` under this key without boxing either.
    fn compare(&self, a: usize, b: usize) -> Ordering {
        if self.has_nulls {
            match (self.validity.get(a), self.validity.get(b)) {
                (false, false) => return Ordering::Equal,
                (false, true) => return self.null_vs_valid(),
                (true, false) => return self.null_vs_valid().reverse(),
                (true, true) => {}
            }
        }
        let ord = match &self.values {
            KeyValues::Boolean(v) => v[a].cmp(&v[b]),
            KeyValues::Int32(v) => v[a].cmp(&v[b]),
            KeyValues::Int64(v) => v[a].cmp(&v[b]),
            KeyValues::Float64(v) => v[a].total_cmp(&v[b]),
            KeyValues::Utf8(v) => v[a].as_str().cmp(v[b].as_str()),
        };
        if self.descending {
            ord.reverse()
        } else {
            ord
        }
    }

    fn null_vs_valid(&self) -> Ordering {
        if self.nulls_first {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// ORs this key's bytes into the prefixes of rows `lo..`, starting
    /// `pos` bytes into the prefix; returns the position after it.
    /// Bytes past [`PREFIX_BYTES`] are dropped, which keeps a tie on
    /// the prefix meaning "not decided yet", never a wrong order.
    fn encode(&self, lo: usize, out: &mut [SortEntry], mut pos: usize) -> usize {
        let valid = |i: usize| !self.has_nulls || self.validity.get(lo + i);
        if self.has_nulls {
            let shift = (PREFIX_BYTES - 1 - pos) * 8;
            let (null_byte, valid_byte) = if self.nulls_first { (0, 1) } else { (1, 0) };
            for (i, e) in out.iter_mut().enumerate() {
                let byte: u128 = if valid(i) { valid_byte } else { null_byte };
                e.prefix |= byte << shift;
            }
            pos += 1;
            if pos == PREFIX_BYTES {
                return pos;
            }
        }
        // NULL slots keep zero value bytes: they tie with each other
        // and the placement byte already ordered them against values.
        macro_rules! fixed {
            ($vals:expr, $width:expr, $enc:expr) => {{
                let end = pos + $width;
                let mask = u64::MAX >> (64 - 8 * $width);
                for (i, e) in out.iter_mut().enumerate() {
                    if valid(i) {
                        let raw: u64 = $enc($vals[lo + i]);
                        let enc = if self.descending { !raw & mask } else { raw };
                        e.prefix |= if end <= PREFIX_BYTES {
                            u128::from(enc) << ((PREFIX_BYTES - end) * 8)
                        } else {
                            u128::from(enc) >> ((end - PREFIX_BYTES) * 8)
                        };
                    }
                }
                end.min(PREFIX_BYTES)
            }};
        }
        match &self.values {
            KeyValues::Boolean(v) => fixed!(v, 1, u64::from),
            KeyValues::Int32(v) => fixed!(v, 4, |x: i32| u64::from(x as u32 ^ (1 << 31))),
            KeyValues::Int64(v) => fixed!(v, 8, |x: i64| x as u64 ^ (1 << 63)),
            KeyValues::Float64(v) => fixed!(v, 8, |x: f64| {
                let bits = x.to_bits();
                bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
            }),
            KeyValues::Utf8(v) => {
                let room = PREFIX_BYTES - pos;
                let flip = u128::MAX >> (pos * 8);
                for (i, e) in out.iter_mut().enumerate() {
                    if valid(i) {
                        let bytes = v[lo + i].as_bytes();
                        let take = bytes.len().min(room);
                        let mut buf = [0u8; PREFIX_BYTES];
                        buf[pos..pos + take].copy_from_slice(&bytes[..take]);
                        let enc = u128::from_be_bytes(buf);
                        e.prefix |= if self.descending { enc ^ flip } else { enc };
                    }
                }
                PREFIX_BYTES
            }
        }
    }
}

/// The sort kernel over one set of key columns: encodes rows into
/// [`SortEntry`]s, orders them (fully or top-`k`), and compares
/// entries for merging. See the module docs for the encoding.
pub struct RowOrder<'a> {
    parts: Vec<KeyPart<'a>>,
    /// First key the prefix does not cover completely; prefix ties are
    /// resolved from here on. `parts.len()` when the prefix is exact.
    tail_from: usize,
    num_rows: usize,
}

impl<'a> RowOrder<'a> {
    /// Plans the order of `num_rows` rows under `keys`, whose `column`
    /// ordinals index `columns`.
    pub fn new(columns: &'a [Array], num_rows: usize, keys: &[SortKey]) -> RowOrder<'a> {
        let mut parts = Vec::with_capacity(keys.len());
        let mut pos = 0usize;
        let mut tail_from = None;
        for (i, key) in keys.iter().enumerate() {
            let column = &columns[key.column];
            let validity = column.validity();
            let values = match column {
                Array::Boolean(v, _) => KeyValues::Boolean(v),
                Array::Int32(v, _) | Array::Date(v, _) => KeyValues::Int32(v),
                Array::Int64(v, _) | Array::Timestamp(v, _) => KeyValues::Int64(v),
                Array::Float64(v, _) => KeyValues::Float64(v),
                Array::Utf8(v, _) => KeyValues::Utf8(v),
            };
            let has_nulls = !validity.all_set();
            pos += usize::from(has_nulls);
            let covered = values.width().is_some_and(|w| pos + w <= PREFIX_BYTES);
            pos = values.width().map_or(PREFIX_BYTES, |w| pos + w);
            if !covered && tail_from.is_none() {
                tail_from = Some(i);
            }
            parts.push(KeyPart {
                values,
                validity,
                has_nulls,
                descending: key.order == SortOrder::Descending,
                nulls_first: key.nulls_first,
            });
        }
        RowOrder {
            tail_from: tail_from.unwrap_or(parts.len()),
            parts,
            num_rows,
        }
    }

    /// Rows this order ranges over.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// True when the prefix is the whole key: entries compare by their
    /// derived order alone.
    pub fn is_exact(&self) -> bool {
        self.tail_from == self.parts.len()
    }

    /// Encodes the rows of `rows` (one pass per key column).
    pub fn entries(&self, rows: Range<usize>) -> Vec<SortEntry> {
        let lo = rows.start;
        let mut out: Vec<SortEntry> = rows
            .map(|r| SortEntry {
                prefix: 0,
                row: r as u32,
            })
            .collect();
        let mut pos = 0;
        for part in &self.parts {
            if pos == PREFIX_BYTES {
                break;
            }
            pos = part.encode(lo, &mut out, pos);
        }
        out
    }

    /// Total order of two entries: prefix, then the keys the prefix
    /// does not cover, then the row index.
    pub fn compare(&self, a: &SortEntry, b: &SortEntry) -> Ordering {
        a.prefix
            .cmp(&b.prefix)
            .then_with(|| {
                for part in &self.parts[self.tail_from..] {
                    let ord = part.compare(a.row as usize, b.row as usize);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            })
            .then(a.row.cmp(&b.row))
    }

    /// Sorts `entries`; with `fetch = Some(k)` keeps only the first
    /// `k` of the sorted order, found by selection before sorting.
    pub fn sort(&self, entries: &mut Vec<SortEntry>, fetch: Option<usize>) {
        let k = fetch.unwrap_or(usize::MAX);
        if k == 0 {
            entries.clear();
            return;
        }
        if self.is_exact() {
            if k < entries.len() {
                entries.select_nth_unstable(k - 1);
                entries.truncate(k);
            }
            entries.sort_unstable();
        } else {
            if k < entries.len() {
                entries.select_nth_unstable_by(k - 1, |a, b| self.compare(a, b));
                entries.truncate(k);
            }
            entries.sort_unstable_by(|a, b| self.compare(a, b));
        }
    }
}

/// The sort kernel, in memory: the row indices of `columns` (all
/// `num_rows` long) ordered under `keys` — ties in input order — cut
/// to the first `fetch` when given.
pub fn sort_indices(
    columns: &[Array],
    num_rows: usize,
    keys: &[SortKey],
    fetch: Option<usize>,
) -> Vec<usize> {
    let order = RowOrder::new(columns, num_rows, keys);
    let mut entries = order.entries(0..num_rows);
    order.sort(&mut entries, fetch);
    entries.iter().map(|e| e.row as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::{Field, Schema};
    use crate::value::Value;

    fn batch() -> Batch {
        Batch::from_rows(
            Schema::new(vec![
                Field::new("g", DataType::Int64),
                Field::new("v", DataType::Utf8),
            ])
            .into_ref(),
            &[
                vec![Value::Int64(2), Value::Utf8("b".into())],
                vec![Value::Null, Value::Utf8("n".into())],
                vec![Value::Int64(1), Value::Utf8("a".into())],
                vec![Value::Int64(2), Value::Utf8("a".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn ascending_nulls_first() {
        let idx = sorted_indices(&batch(), &[SortKey::asc(0)]);
        assert_eq!(idx, vec![1, 2, 0, 3]);
    }

    #[test]
    fn descending_nulls_last() {
        let idx = sorted_indices(&batch(), &[SortKey::desc(0).with_nulls_first(false)]);
        // 2,2,1 then NULL last; stable within equal keys
        assert_eq!(idx, vec![0, 3, 2, 1]);
    }

    #[test]
    fn compound_keys_break_ties() {
        let idx = sorted_indices(&batch(), &[SortKey::asc(0), SortKey::asc(1)]);
        assert_eq!(idx, vec![1, 2, 3, 0]);
    }

    #[test]
    fn is_sorted_detects_order() {
        let b = batch();
        let sorted = b.take(&sorted_indices(&b, &[SortKey::asc(0)]));
        assert!(is_sorted(&sorted, &[SortKey::asc(0)]));
        assert!(!is_sorted(&b, &[SortKey::asc(0)]));
    }

    fn kernel(b: &Batch, keys: &[SortKey], fetch: Option<usize>) -> Vec<usize> {
        sort_indices(b.columns(), b.num_rows(), keys, fetch)
    }

    #[test]
    fn kernel_matches_reference_and_keeps_ties_in_input_order() {
        let b = batch();
        for keys in [
            vec![SortKey::asc(0)],
            vec![SortKey::desc(0).with_nulls_first(false)],
            vec![SortKey::desc(1), SortKey::asc(0)],
            vec![],
        ] {
            assert_eq!(kernel(&b, &keys, None), sorted_indices(&b, &keys));
        }
        // Rows 0 and 3 tie on g = 2: input order decides, both ways.
        assert_eq!(kernel(&b, &[SortKey::desc(0)], None), vec![1, 0, 3, 2]);
    }

    #[test]
    fn float_keys_follow_the_total_order() {
        let vals = [
            f64::NAN,
            0.0,
            f64::NEG_INFINITY,
            -0.0,
            -f64::NAN,
            1.5,
            f64::INFINITY,
        ];
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Float64(v)]).collect();
        let b = Batch::from_rows(
            Schema::new(vec![Field::new("f", DataType::Float64)]).into_ref(),
            &rows,
        )
        .unwrap();
        // -NaN < -inf < -0.0 < 0.0 < 1.5 < inf < NaN
        assert_eq!(
            kernel(&b, &[SortKey::asc(0)], None),
            vec![4, 2, 3, 1, 5, 6, 0]
        );
        assert_eq!(
            kernel(&b, &[SortKey::desc(0)], None),
            vec![0, 6, 5, 1, 3, 2, 4]
        );
    }

    #[test]
    fn keys_past_the_prefix_are_compared_from_the_columns() {
        // 8 + 8 + 8 bytes: the third key is outside the 16-byte
        // prefix, the strings tie on their first 16 bytes.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ])
        .into_ref();
        let row = |c: i64, s: &str| {
            vec![
                Value::Int64(1),
                Value::Int64(2),
                Value::Int64(c),
                Value::Utf8(s.into()),
            ]
        };
        let b = Batch::from_rows(
            schema,
            &[
                row(3, "0123456789abcdef-z"),
                row(1, "0123456789abcdef-a"),
                row(2, "0123456789abcdef"),
            ],
        )
        .unwrap();
        let wide = [SortKey::asc(0), SortKey::asc(1), SortKey::desc(2)];
        assert!(!RowOrder::new(b.columns(), 3, &wide).is_exact());
        assert_eq!(kernel(&b, &wide, None), vec![0, 2, 1]);
        assert_eq!(kernel(&b, &[SortKey::asc(3)], None), vec![2, 1, 0]);
        assert_eq!(kernel(&b, &[SortKey::desc(3)], None), vec![0, 1, 2]);
    }

    #[test]
    fn fetch_is_a_prefix_of_the_full_sort() {
        let b = batch();
        let keys = [SortKey::asc(0), SortKey::asc(1)];
        let full = kernel(&b, &keys, None);
        for k in [0, 1, 3, 4, 9] {
            assert_eq!(kernel(&b, &keys, Some(k)), full[..k.min(4)]);
        }
    }
}
