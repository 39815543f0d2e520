//! Vectorized key kernels: hashing, equality and fixed-width encoding
//! over [`Array`] buffers.
//!
//! The mediator's hottest loops — hash-join build/probe, GROUP BY and
//! DISTINCT — all reduce to the same three primitives over key
//! columns:
//!
//! 1. [`hash_column`] — fold a per-column hash into a per-row `u64`
//!    accumulator, straight over the typed buffer (validity-aware, no
//!    [`Value`](crate::Value) materialization, multi-column keys via
//!    hash-combine).
//! 2. [`eq_at`] / [`rows_eq`] — columnar equality of two row positions,
//!    used to verify hash-bucket candidates instead of comparing boxed
//!    row keys.
//! 3. [`FixedKeyLayout`] / [`encode_fixed`] — pack narrow key tuples
//!    (ints, dates, timestamps, bools, short strings) into one `u128`
//!    so the hash table can key on the encoding directly, with **no**
//!    collision verification at all.
//!
//! ## Pinned float semantics
//!
//! Grouping equality follows the engine's total order
//! ([`Value::total_cmp`](crate::Value::total_cmp)) with one explicit
//! extension: **every NaN is equal to every other NaN** for key
//! purposes, regardless of payload or sign — the GROUP BY/DISTINCT
//! behavior of mainstream SQL engines. `-0.0` and `0.0` remain two
//! distinct keys (they are distinct under the total order). All three
//! primitives implement these semantics consistently: NaNs hash and
//! encode to one canonical bit pattern, and [`eq_at`] short-circuits
//! the NaN class before falling back to `total_cmp`.

use crate::array::Array;
use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Seed for per-row hash accumulators. Callers initialize their hash
/// vector with this before folding columns in with [`hash_column`].
pub const HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The value folded in for a NULL slot. NULL hashes like any other
/// key value; whether NULL *equals* NULL is the caller's policy
/// (GROUP BY says yes, join keys are filtered out beforehand).
const NULL_SALT: u64 = 0xf0_e4_d2_c6_a8_9b_3d_71;

/// Canonical bit pattern all NaNs hash/encode to (the positive quiet
/// NaN), so NaN keys land in one group.
const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;

/// SplitMix64 finalizer: the scrambler applied to every column value
/// before it is combined into the row hash.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash-combine: folds one column's scrambled value into the row
/// accumulator. Order-sensitive, so `(a, b)` and `(b, a)` keys differ.
#[inline]
pub fn combine_hash(acc: u64, v: u64) -> u64 {
    mix(acc.rotate_left(5) ^ v)
}

/// FNV-1a over a byte slice (strings), then scrambled by the combiner.
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical payload bits for a float: all NaNs collapse to one
/// pattern; `-0.0` keeps its own bits (it is a distinct key under the
/// total order, and distinct hashes for distinct keys are fine).
#[inline]
fn float_bits(v: f64) -> u64 {
    if v.is_nan() {
        CANONICAL_NAN
    } else {
        v.to_bits()
    }
}

/// Folds a per-column hash into `hashes[i]` for every row `i`,
/// reading the typed buffer directly (no `Value` materialization).
/// NULL slots fold in a fixed salt. Panics when `hashes.len()` does
/// not match the column length.
pub fn hash_column(array: &Array, hashes: &mut [u64]) {
    assert_eq!(hashes.len(), array.len(), "hash buffer length mismatch");
    macro_rules! fold {
        ($vals:expr, $valid:expr, $conv:expr) => {
            for (i, h) in hashes.iter_mut().enumerate() {
                let v = if $valid.get(i) {
                    #[allow(clippy::redundant_closure_call)]
                    $conv(&$vals[i])
                } else {
                    NULL_SALT
                };
                *h = combine_hash(*h, v);
            }
        };
    }
    match array {
        Array::Boolean(v, m) => fold!(v, m, |x: &bool| u64::from(*x) + 1),
        Array::Int32(v, m) => fold!(v, m, |x: &i32| *x as i64 as u64),
        Array::Int64(v, m) => fold!(v, m, |x: &i64| *x as u64),
        Array::Date(v, m) => fold!(v, m, |x: &i32| *x as i64 as u64),
        Array::Timestamp(v, m) => fold!(v, m, |x: &i64| *x as u64),
        Array::Float64(v, m) => fold!(v, m, |x: &f64| float_bits(*x)),
        Array::Utf8(v, m) => fold!(v, m, |x: &String| hash_bytes(x.as_bytes())),
    }
}

/// Hashes all `cols` of an `n`-row key into one `Vec<u64>`
/// (seeded accumulator, one [`hash_column`] fold per column).
pub fn hash_rows(cols: &[&Array], n: usize) -> Vec<u64> {
    let mut hashes = vec![HASH_SEED; n];
    for c in cols {
        hash_column(c, &mut hashes);
    }
    hashes
}

/// Columnar equality of `a[i]` and `b[j]` under grouping semantics:
/// NULL equals NULL, NaN equals NaN, everything else follows the
/// engine's total order. Same-typed arrays compare directly over
/// their buffers; mismatched types fall back to `Value::total_cmp`
/// (the caller normally casts key columns to a common type first).
pub fn eq_at(a: &Array, i: usize, b: &Array, j: usize) -> bool {
    match (a.is_valid(i), b.is_valid(j)) {
        (false, false) => return true,
        (true, true) => {}
        _ => return false,
    }
    match (a, b) {
        (Array::Boolean(x, _), Array::Boolean(y, _)) => x[i] == y[j],
        (Array::Int32(x, _), Array::Int32(y, _)) => x[i] == y[j],
        (Array::Int64(x, _), Array::Int64(y, _)) => x[i] == y[j],
        (Array::Date(x, _), Array::Date(y, _)) => x[i] == y[j],
        (Array::Timestamp(x, _), Array::Timestamp(y, _)) => x[i] == y[j],
        (Array::Utf8(x, _), Array::Utf8(y, _)) => x[i] == y[j],
        (Array::Float64(x, _), Array::Float64(y, _)) => {
            (x[i].is_nan() && y[j].is_nan()) || x[i].total_cmp(&y[j]) == Ordering::Equal
        }
        _ => a.value_at(i).total_cmp(&b.value_at(j)) == Ordering::Equal,
    }
}

/// Multi-column [`eq_at`]: true when every key column agrees.
pub fn rows_eq(a: &[&Array], i: usize, b: &[&Array], j: usize) -> bool {
    a.iter().zip(b).all(|(ca, cb)| eq_at(ca, i, cb, j))
}

/// Bytes one value of `dt` occupies in a fixed-width key encoding,
/// or `None` for variable-width types.
fn fixed_key_width(dt: DataType) -> Option<usize> {
    match dt {
        DataType::Boolean => Some(1),
        DataType::Int32 | DataType::Date => Some(4),
        DataType::Int64 | DataType::Timestamp | DataType::Float64 => Some(8),
        _ => None,
    }
}

/// Byte layout for packing one key tuple into a `u128`.
///
/// Byte 0 is a per-column null mask (bit `c` set ⇒ column `c` is
/// NULL; its payload bytes stay zero), followed by each column's
/// payload at a fixed offset. `Utf8` columns are encodable when every
/// string in every participating array fits the remaining budget:
/// they pack as one length byte plus the zero-padded bytes. The
/// encoding is **exact**: two rows encode to the same `u128` iff they
/// are equal keys under the grouping semantics (NaNs are normalized
/// to one pattern before packing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedKeyLayout {
    types: Vec<DataType>,
    /// Payload width in bytes per column (strings: 1 + max length).
    widths: Vec<usize>,
}

/// Payload budget: 16 bytes minus the null-mask byte.
const FIXED_KEY_BUDGET: usize = 15;

impl FixedKeyLayout {
    /// Plans a fixed-width layout covering every array set in
    /// `sides` (e.g. both join sides), or `None` when the key is too
    /// wide, has more than 8 columns, or the sides' types disagree.
    pub fn plan(sides: &[&[&Array]]) -> Option<FixedKeyLayout> {
        let first = sides.first()?;
        if first.is_empty() || first.len() > 8 {
            return None;
        }
        let types: Vec<DataType> = first.iter().map(|a| a.data_type()).collect();
        for side in sides {
            if side.len() != types.len()
                || side.iter().zip(&types).any(|(a, &t)| a.data_type() != t)
            {
                return None;
            }
        }
        let mut widths = Vec::with_capacity(types.len());
        let mut total = 0usize;
        for (c, &dt) in types.iter().enumerate() {
            let w = match fixed_key_width(dt) {
                Some(w) => w,
                None if dt == DataType::Utf8 => {
                    // Strings qualify when the longest valid value over
                    // every side fits the remaining budget.
                    let max_len = sides
                        .iter()
                        .map(|side| utf8_max_len(side[c]))
                        .max()
                        .unwrap_or(0);
                    1 + max_len
                }
                None => return None,
            };
            total += w;
            if total > FIXED_KEY_BUDGET {
                return None;
            }
            widths.push(w);
        }
        Some(FixedKeyLayout { types, widths })
    }
}

fn utf8_max_len(a: &Array) -> usize {
    match a {
        Array::Utf8(v, m) => (0..v.len())
            .filter(|&i| m.get(i))
            .map(|i| v[i].len())
            .max()
            .unwrap_or(0),
        _ => 0,
    }
}

/// Encodes every row of `cols` into its exact `u128` key per
/// `layout`. Panics when `cols` does not match the layout's types
/// (the caller planned the layout over these very arrays).
pub fn encode_fixed(cols: &[&Array], n: usize, layout: &FixedKeyLayout) -> Vec<u128> {
    assert_eq!(cols.len(), layout.types.len(), "layout column mismatch");
    let mut keys = vec![0u128; n];
    let mut bit = 8; // byte 0 is the null mask
    for (c, col) in cols.iter().enumerate() {
        let width_bits = layout.widths[c] * 8;
        macro_rules! pack {
            ($vals:expr, $valid:expr, $conv:expr) => {
                for (i, k) in keys.iter_mut().enumerate() {
                    if $valid.get(i) {
                        #[allow(clippy::redundant_closure_call)]
                        let payload: u128 = $conv(&$vals[i]);
                        *k |= payload << bit;
                    } else {
                        *k |= 1u128 << c; // null-mask bit
                    }
                }
            };
        }
        match col {
            Array::Boolean(v, m) => pack!(v, m, |x: &bool| u128::from(*x)),
            Array::Int32(v, m) => pack!(v, m, |x: &i32| u128::from(*x as u32)),
            Array::Date(v, m) => pack!(v, m, |x: &i32| u128::from(*x as u32)),
            Array::Int64(v, m) => pack!(v, m, |x: &i64| u128::from(*x as u64)),
            Array::Timestamp(v, m) => pack!(v, m, |x: &i64| u128::from(*x as u64)),
            Array::Float64(v, m) => pack!(v, m, |x: &f64| u128::from(float_bits(*x))),
            Array::Utf8(v, m) => {
                for (i, k) in keys.iter_mut().enumerate() {
                    if m.get(i) {
                        let s = v[i].as_bytes();
                        let mut payload: u128 = s.len() as u128;
                        for (p, &byte) in s.iter().enumerate() {
                            payload |= u128::from(byte) << (8 + p * 8);
                        }
                        *k |= payload << bit;
                    } else {
                        *k |= 1u128 << c;
                    }
                }
            }
        }
        bit += width_bits;
    }
    keys
}

/// [`encode_fixed`] for a key too wide as it stands: every `Utf8`
/// column is first replaced by a four-byte dictionary code, numbered
/// per call in first-occurrence order, so two rows still encode to the
/// same `u128` iff they are equal keys. `None` when there is no string
/// column to shrink or the tuple does not fit even so.
pub fn encode_fixed_coded(cols: &[&Array], n: usize) -> Option<Vec<u128>> {
    let coded_width = |a: &&Array| match a {
        Array::Utf8(..) => Some(4),
        other => fixed_key_width(other.data_type()),
    };
    let total = cols.iter().map(coded_width).sum::<Option<usize>>()?;
    if total > FIXED_KEY_BUDGET || !cols.iter().any(|a| matches!(a, Array::Utf8(..))) {
        return None;
    }
    let coded: Vec<Array> = cols
        .iter()
        .map(|a| match a {
            Array::Utf8(v, m) => Array::Int32(Arc::new(dictionary_codes(v, m)), m.clone()),
            other => (*other).clone(),
        })
        .collect();
    let refs: Vec<&Array> = coded.iter().collect();
    let layout = FixedKeyLayout::plan(&[&refs])?;
    Some(encode_fixed(&refs, n, &layout))
}

/// A code per slot such that two valid slots share a code iff their
/// strings are equal; NULL slots get 0 (their validity bit tells them
/// apart).
fn dictionary_codes(values: &[String], validity: &Bitmap) -> Vec<i32> {
    let mut codes: HashMap<&str, i32, BuildWordHasher> = HashMap::default();
    values
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if !validity.get(i) {
                return 0;
            }
            let next = codes.len() as i32;
            *codes.entry(s.as_str()).or_insert(next)
        })
        .collect()
}

/// Folds `bytes` into `state` eight bytes a step (multiply-rotate),
/// ending with the length: the string hash of the per-call key
/// dictionary here and of the wire codec's column dictionary, where
/// SipHash — or FNV's byte-at-a-time loop — would cost more than the
/// rest of the pass. Tails are read as overlapping fixed-width loads:
/// copying a variable number of bytes into a word costs more than the
/// hash itself on the short strings keys are. Callers take the top
/// bits of a multiply, or [`std::hash::Hasher::finish`]'s scramble.
#[inline]
pub fn fold_bytes(state: u64, bytes: &[u8]) -> u64 {
    let eat = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let n = bytes.len();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("four bytes"),
        ))
    };
    let mut h = state;
    if n >= 8 {
        let mut at = 0;
        while at + 8 <= n {
            h = eat(h, word(at));
            at += 8;
        }
        if at < n {
            h = eat(h, word(n - 8));
        }
    } else if n >= 4 {
        h = eat(h, half(0) | half(n - 4) << 32);
    } else if n > 0 {
        let (first, mid, last) = (bytes[0], bytes[n / 2], bytes[n - 1]);
        h = eat(
            h,
            u64::from(first) | u64::from(mid) << 8 | u64::from(last) << 16,
        );
    }
    eat(h, n as u64)
}

/// [`fold_bytes`] as a [`std::hash::Hasher`], for the key dictionary's
/// `HashMap`.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

type BuildWordHasher = std::hash::BuildHasherDefault<WordHasher>;

impl std::hash::Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_bytes(self.0, bytes);
    }
}

/// Scrambles a `u128` fixed key down to a partitioning hash.
#[inline]
pub fn hash_u128(k: u128) -> u64 {
    mix((k as u64) ^ mix((k >> 64) as u64))
}

/// A pass-through [`std::hash::Hasher`] for table keys that are
/// *already* mixed hashes produced by this module (the per-row `u64`
/// hashes and `u128` fixed encodings). Feeding them through SipHash
/// again would only burn cycles on the kernels' hottest loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrehashedHasher(u64);

impl std::hash::Hasher for PrehashedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only fixed-width integer keys are expected; keep a correct
        // (FNV-1a) fallback anyway so arbitrary keys still work.
        self.0 = combine_hash(self.0, hash_bytes(bytes));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.0 = hash_u128(v);
    }
}

/// [`std::hash::BuildHasher`] for [`PrehashedHasher`]; plug into
/// `HashMap::with_capacity_and_hasher` on pre-hashed key tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildPrehashed;

impl std::hash::BuildHasher for BuildPrehashed {
    type Hasher = PrehashedHasher;

    #[inline]
    fn build_hasher(&self) -> PrehashedHasher {
        PrehashedHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayBuilder;
    use crate::value::Value;

    fn arr(dt: DataType, vals: &[Option<Value>]) -> Array {
        let mut b = ArrayBuilder::new(dt);
        for v in vals {
            match v {
                Some(v) => b.push_value(v).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    }

    #[test]
    fn equal_rows_hash_equal() {
        let a = arr(
            DataType::Int64,
            &[Some(Value::Int64(7)), Some(Value::Int64(7)), None, None],
        );
        let s = arr(
            DataType::Utf8,
            &[
                Some(Value::Utf8("x".into())),
                Some(Value::Utf8("x".into())),
                Some(Value::Utf8("x".into())),
                Some(Value::Utf8("y".into())),
            ],
        );
        let h = hash_rows(&[&a, &s], 4);
        assert_eq!(h[0], h[1]);
        assert_ne!(h[2], h[3], "different second column should split");
        assert!(rows_eq(&[&a, &s], 0, &[&a, &s], 1));
        assert!(!rows_eq(&[&a, &s], 2, &[&a, &s], 3));
    }

    #[test]
    fn nan_is_one_key_but_zero_signs_are_two() {
        let f = arr(
            DataType::Float64,
            &[
                Some(Value::Float64(f64::NAN)),
                Some(Value::Float64(-f64::NAN)),
                Some(Value::Float64(0.0)),
                Some(Value::Float64(-0.0)),
            ],
        );
        let h = hash_rows(&[&f], 4);
        assert_eq!(h[0], h[1], "all NaNs hash alike");
        assert!(eq_at(&f, 0, &f, 1), "all NaNs are one key");
        assert!(!eq_at(&f, 2, &f, 3), "-0.0 is a distinct key (total order)");
        // Fixed encoding agrees with both calls.
        let layout = FixedKeyLayout::plan(&[&[&f]]).unwrap();
        let keys = encode_fixed(&[&f], 4, &layout);
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[2], keys[3]);
    }

    #[test]
    fn null_equals_null_and_hashes_stably() {
        let a = arr(DataType::Int32, &[None, None, Some(Value::Int32(0))]);
        assert!(eq_at(&a, 0, &a, 1));
        assert!(!eq_at(&a, 0, &a, 2), "NULL is not the zero value");
        let h = hash_rows(&[&a], 3);
        assert_eq!(h[0], h[1]);
        let layout = FixedKeyLayout::plan(&[&[&a]]).unwrap();
        let keys = encode_fixed(&[&a], 3, &layout);
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2], "null mask separates NULL from zero");
    }

    #[test]
    fn fixed_layout_covers_narrow_keys_and_rejects_wide() {
        let i = arr(DataType::Int64, &[Some(Value::Int64(1))]);
        let d = arr(DataType::Date, &[Some(Value::Date(10))]);
        let b = arr(DataType::Boolean, &[Some(Value::Boolean(true))]);
        assert!(FixedKeyLayout::plan(&[&[&i, &d, &b]]).is_some()); // 13 bytes
        assert!(FixedKeyLayout::plan(&[&[&i, &i]]).is_none()); // 16 > 15
        let t = arr(DataType::Timestamp, &[Some(Value::Timestamp(5))]);
        assert!(FixedKeyLayout::plan(&[&[&i, &d, &t]]).is_none()); // 20 > 15
    }

    #[test]
    fn fixed_layout_strings_fit_by_observed_length() {
        let short = arr(
            DataType::Utf8,
            &[
                Some(Value::Utf8("abc".into())),
                Some(Value::Utf8("".into())),
            ],
        );
        let long = arr(
            DataType::Utf8,
            &[Some(Value::Utf8("a very long key string".into()))],
        );
        let layout = FixedKeyLayout::plan(&[&[&short]]).unwrap();
        let keys = encode_fixed(&[&short], 2, &layout);
        assert_ne!(keys[0], keys[1]);
        assert!(FixedKeyLayout::plan(&[&[&long]]).is_none());
        // Planning over both sides takes the worst case.
        assert!(FixedKeyLayout::plan(&[&[&short], &[&long]]).is_none());
    }

    #[test]
    fn fixed_encoding_is_exact_for_prefix_sharing_strings() {
        let s = arr(
            DataType::Utf8,
            &[
                Some(Value::Utf8("ab".into())),
                Some(Value::Utf8("ab\0".into())),
                Some(Value::Utf8("ab".into())),
            ],
        );
        let layout = FixedKeyLayout::plan(&[&[&s]]).unwrap();
        let keys = encode_fixed(&[&s], 3, &layout);
        assert_ne!(keys[0], keys[1], "length byte separates zero padding");
        assert_eq!(keys[0], keys[2]);
    }

    #[test]
    fn coded_encoding_fits_wide_strings_and_stays_exact() {
        let wide = |vals: &[Option<&str>]| {
            arr(
                DataType::Utf8,
                &vals
                    .iter()
                    .map(|v| v.map(|s| Value::Utf8(format!("{s}-padded-well-past-the-budget"))))
                    .collect::<Vec<_>>(),
            )
        };
        let a = wide(&[Some("x"), Some("y"), Some("x"), None, Some(""), None]);
        let b = wide(&[Some("p"), Some("p"), Some("p"), Some("q"), None, Some("q")]);
        let i = arr(
            DataType::Int32,
            &[1, 1, 1, 2, 2, 2].map(|v| Some(Value::Int32(v))),
        );
        assert!(FixedKeyLayout::plan(&[&[&a, &b, &i]]).is_none());
        let keys = encode_fixed_coded(&[&a, &b, &i], 6).expect("4 + 4 + 4 bytes fit");
        for r in 0..6 {
            for q in 0..6 {
                assert_eq!(
                    keys[r] == keys[q],
                    rows_eq(&[&a, &b, &i], r, &[&a, &b, &i], q),
                    "rows {r} and {q}"
                );
            }
        }
        assert_eq!(keys[0], keys[2]);
        // Nothing to shrink, or too wide even at four bytes a string.
        assert!(encode_fixed_coded(&[&i, &i], 6).is_none());
        assert!(encode_fixed_coded(&[&a, &b, &a, &b], 6).is_none());
    }

    #[test]
    fn layout_rejects_mismatched_sides() {
        let i32s = arr(DataType::Int32, &[Some(Value::Int32(1))]);
        let i64s = arr(DataType::Int64, &[Some(Value::Int64(1))]);
        assert!(FixedKeyLayout::plan(&[&[&i32s], &[&i64s]]).is_none());
        assert!(FixedKeyLayout::plan(&[&[]]).is_none());
    }
}
