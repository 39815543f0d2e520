//! Compact Bloom filters for semijoin key shipping.
//!
//! Instead of shipping every distinct outer join key to a source, the
//! mediator can ship a [`KeyBloom`] sized from catalog statistics:
//! `m = ceil(-n·ln p / (ln 2)²)` bits and `k = round((m/n)·ln 2)`
//! probes for `n` expected keys at false-positive rate `p`. False
//! positives only cost extra shipped rows — the mediator's exact hash
//! join re-checks every key — so correctness never depends on `p`.
//!
//! Probes use double hashing (`h1 + i·h2`, `h2` forced odd) over one
//! 64-bit stable hash, the standard Kirsch–Mitzenmacher construction,
//! so a key hashes once no matter how many probes the filter uses.
//! The key hash itself is FNV-1a over the tagged wire bytes of the
//! key values, making it stable across processes and platforms — the
//! filter crosses the (simulated) wire.

use crate::wire::{get_uvarint, put_uvarint, truncated, type_tag};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gis_types::{Array, DataType, GisError, Result, Value};

/// Hard ceiling on filter size: a filter this large (16 MiB) has lost
/// to shipping the keys outright long before, and the bound keeps a
/// hostile frame from sizing a huge allocation.
pub const MAX_BLOOM_BYTES: usize = 16 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash fed the pieces of the wire encoding.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    #[inline]
    fn byte(self, b: u8) -> Fnv {
        Fnv((self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    #[inline]
    fn bytes(self, bytes: &[u8]) -> Fnv {
        bytes.iter().fold(self, |h, &b| h.byte(b))
    }

    /// The bytes of [`put_uvarint`].
    #[inline]
    fn uvarint(mut self, mut v: u64) -> Fnv {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                return self.byte(byte);
            }
            self = self.byte(byte | 0x80);
        }
    }

    /// The bytes of `put_ivarint` (zigzag, then varint).
    #[inline]
    fn ivarint(self, v: i64) -> Fnv {
        self.uvarint(((v << 1) ^ (v >> 63)) as u64)
    }

    /// The bytes of `put_str` (length prefix, then UTF-8).
    #[inline]
    fn str(self, s: &str) -> Fnv {
        self.uvarint(s.len() as u64).bytes(s.as_bytes())
    }

    /// The bytes of [`crate::wire::encode_value`]: type tag, then payload.
    fn value(self, v: &Value) -> Fnv {
        let h = self.byte(type_tag(v.data_type()));
        match v {
            Value::Null => h,
            Value::Boolean(b) => h.byte(u8::from(*b)),
            Value::Int32(x) => h.ivarint(i64::from(*x)),
            Value::Int64(x) => h.ivarint(*x),
            Value::Float64(x) => h.bytes(&x.to_le_bytes()),
            Value::Utf8(s) => h.str(s),
            Value::Date(d) => h.ivarint(i64::from(*d)),
            Value::Timestamp(us) => h.ivarint(*us),
        }
    }
}

/// A Bloom filter over join-key hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBloom {
    bits: Vec<u8>,
    n_bits: u64,
    k: u32,
}

impl KeyBloom {
    /// A filter sized for `n` expected keys at false-positive rate
    /// `p` (clamped to sane bounds).
    pub fn sized_for(n: usize, p: f64) -> KeyBloom {
        let n = n.max(1) as f64;
        let p = p.clamp(1e-6, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let m_bits = (-n * p.ln() / (ln2 * ln2)).ceil() as u64;
        let m_bits = m_bits.clamp(64, (MAX_BLOOM_BYTES as u64) * 8);
        let k = ((m_bits as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        KeyBloom {
            bits: vec![0u8; (m_bits as usize).div_ceil(8)],
            n_bits: m_bits,
            k,
        }
    }

    /// Stable 64-bit hash of a composite key: FNV-1a over the tagged
    /// wire encoding of each value ([`crate::wire::encode_value`]'s bytes, streamed
    /// into the hash instead of into a buffer).
    pub fn hash_key(key: &[Value]) -> u64 {
        key.iter().fold(Fnv::new(), Fnv::value).0
    }

    /// [`KeyBloom::hash_key`] of every row of a set of key columns at
    /// once: entry `r` is the hash of the tuple `columns[..][r]`, with
    /// a NULL slot hashed as [`Value::Null`] (callers that give NULL
    /// keys their own meaning consult the validity bitmaps). The
    /// columns must be of equal length.
    pub fn hash_columns(columns: &[&Array]) -> Vec<u64> {
        let rows = columns.first().map_or(0, |c| c.len());
        let mut hashes = vec![FNV_OFFSET; rows];
        for column in columns {
            macro_rules! fold {
                ($vals:expr, $valid:expr, $tag:expr, $feed:expr) => {
                    for (i, h) in hashes.iter_mut().enumerate() {
                        *h = if $valid.get(i) {
                            $feed(Fnv(*h).byte($tag), &$vals[i]).0
                        } else {
                            Fnv(*h).byte(type_tag(DataType::Null)).0
                        };
                    }
                };
            }
            let tag = type_tag(column.data_type());
            match column {
                Array::Boolean(v, m) => fold!(v, m, tag, |h: Fnv, x: &bool| h.byte(u8::from(*x))),
                Array::Int32(v, m) | Array::Date(v, m) => {
                    fold!(v, m, tag, |h: Fnv, x: &i32| h.ivarint(i64::from(*x)))
                }
                Array::Int64(v, m) | Array::Timestamp(v, m) => {
                    fold!(v, m, tag, |h: Fnv, x: &i64| h.ivarint(*x))
                }
                Array::Float64(v, m) => {
                    fold!(v, m, tag, |h: Fnv, x: &f64| h.bytes(&x.to_le_bytes()))
                }
                Array::Utf8(v, m) => fold!(v, m, tag, |h: Fnv, x: &String| h.str(x)),
            }
        }
        hashes
    }

    /// The `k` bit positions of a key hash: `(h1 + i·h2) mod 2^64 mod
    /// n_bits`. While that sum stays below 2^64 — every hash but about
    /// one in 2^28 — the positions step by `h2 mod n_bits` from
    /// `h1 mod n_bits`, so a key costs two divisions, not `k`; a sum
    /// that wraps takes the division per probe. Either way the
    /// positions are the formula's, bit for bit: filters built by an
    /// older peer probe identically.
    fn probes(&self, h: u64) -> impl Iterator<Item = u64> {
        let (n_bits, k) = (self.n_bits, u64::from(self.k));
        let h2 = (h >> 32) | 1; // odd, so probes cycle the whole table
        let steps = h.checked_add((k - 1) * h2).is_some();
        let (step, mut at) = (h2 % n_bits, h % n_bits);
        (0..k).map(move |i| {
            if !steps {
                return h.wrapping_add(i.wrapping_mul(h2)) % n_bits;
            }
            let bit = at;
            at += step;
            if at >= n_bits {
                at -= n_bits;
            }
            bit
        })
    }

    /// Inserts a key hash.
    pub fn insert(&mut self, h: u64) {
        for bit in self.probes(h) {
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    /// True when the key hash may have been inserted (false positives
    /// possible, false negatives not).
    pub fn contains(&self, h: u64) -> bool {
        self.probes(h)
            .all(|bit| self.bits[(bit / 8) as usize] & (1 << (bit % 8)) != 0)
    }

    /// Filter size in bytes (what shipping it costs).
    pub fn size_bytes(&self) -> usize {
        self.bits.len()
    }

    /// Number of probe functions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Predicted filter bytes for `n` keys at rate `p` without
    /// building the filter — the planner's cost input.
    pub fn predicted_bytes(n: usize, p: f64) -> usize {
        let n = n.max(1) as f64;
        let p = p.clamp(1e-6, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let m_bits = (-n * p.ln() / (ln2 * ln2)).ceil() as u64;
        (m_bits.clamp(64, (MAX_BLOOM_BYTES as u64) * 8) as usize).div_ceil(8)
    }

    /// Serializes the filter (bit count, probe count, bit bytes).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.bits.len() + 12);
        put_uvarint(&mut buf, self.n_bits);
        put_uvarint(&mut buf, u64::from(self.k));
        buf.put_slice(&self.bits);
        buf.freeze()
    }

    /// Decodes a filter, bounding the claimed size by the bytes
    /// remaining before allocating.
    pub fn decode(buf: &mut Bytes) -> Result<KeyBloom> {
        let n_bits = get_uvarint(buf)?;
        if n_bits == 0 || n_bits > (MAX_BLOOM_BYTES as u64) * 8 {
            return Err(GisError::Network(format!(
                "bloom filter claims {n_bits} bits"
            )));
        }
        let k = u32::try_from(get_uvarint(buf)?)
            .map_err(|_| GisError::Network("bloom probe count overflow".into()))?;
        if k == 0 || k > 16 {
            return Err(GisError::Network(format!("bloom filter claims {k} probes")));
        }
        let n_bytes = (n_bits as usize).div_ceil(8);
        if buf.remaining() < n_bytes {
            return Err(truncated());
        }
        let bits = buf.copy_to_bytes(n_bytes).to_vec();
        Ok(KeyBloom { bits, n_bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: i64) -> Vec<Value> {
        vec![Value::Int64(i), Value::Utf8(format!("k{i}"))]
    }

    #[test]
    fn no_false_negatives_and_low_false_positives() {
        let n = 5_000;
        let mut bloom = KeyBloom::sized_for(n, 0.01);
        for i in 0..n as i64 {
            bloom.insert(KeyBloom::hash_key(&key(i)));
        }
        // Every inserted key is found.
        for i in 0..n as i64 {
            assert!(bloom.contains(KeyBloom::hash_key(&key(i))), "lost key {i}");
        }
        // Non-members come back mostly negative.
        let fp = (n as i64..2 * n as i64)
            .filter(|&i| bloom.contains(KeyBloom::hash_key(&key(i))))
            .count();
        let rate = fp as f64 / n as f64;
        assert!(rate < 0.03, "false-positive rate {rate} way over target");
    }

    #[test]
    fn probe_positions_are_the_formulas() {
        // Stepping residues must land where a division per probe did,
        // also when `h1 + i·h2` wraps past 2^64.
        let mut hashes = vec![0, 1, u64::MAX, u64::MAX - 3, u64::MAX << 32, 0xFFFF_FFFF];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hashes.push(x);
            hashes.push(u64::MAX - (x >> 30));
        }
        for n in [1usize, 7, 100, 10_000, 1_000_000] {
            let bloom = KeyBloom::sized_for(n, 0.01);
            for &h in &hashes {
                let h2 = (h >> 32) | 1;
                let want: Vec<u64> = (0..u64::from(bloom.k))
                    .map(|i| h.wrapping_add(i.wrapping_mul(h2)) % bloom.n_bits)
                    .collect();
                assert_eq!(bloom.probes(h).collect::<Vec<_>>(), want, "h={h:#x} n={n}");
            }
        }
    }

    #[test]
    fn sizing_follows_the_math() {
        // 1% at n keys needs ~9.59 bits/key.
        let bloom = KeyBloom::sized_for(10_000, 0.01);
        let bits_per_key = (bloom.size_bytes() * 8) as f64 / 10_000.0;
        assert!(
            (9.0..11.0).contains(&bits_per_key),
            "bits/key {bits_per_key}"
        );
        assert!((6..=8).contains(&bloom.k()), "k {}", bloom.k());
        assert_eq!(
            KeyBloom::predicted_bytes(10_000, 0.01),
            bloom.size_bytes(),
            "prediction matches construction"
        );
        // Tiny inputs still make a usable filter.
        let tiny = KeyBloom::sized_for(0, 0.01);
        assert!(tiny.size_bytes() >= 8);
        assert!(tiny.k() >= 1);
    }

    #[test]
    fn hash_is_stable_and_distinguishes_types() {
        assert_eq!(
            KeyBloom::hash_key(&[Value::Int64(7)]),
            KeyBloom::hash_key(&[Value::Int64(7)])
        );
        assert_ne!(
            KeyBloom::hash_key(&[Value::Int64(7)]),
            KeyBloom::hash_key(&[Value::Int32(7)])
        );
        assert_ne!(
            KeyBloom::hash_key(&[Value::Utf8("ab".into()), Value::Utf8("c".into())]),
            KeyBloom::hash_key(&[Value::Utf8("a".into()), Value::Utf8("bc".into())]),
            "length prefixes keep concatenations apart"
        );
    }

    /// The hash crosses the wire inside the filter, so its values are
    /// part of the protocol: these were produced by the implementation
    /// that hashed a materialized `encode_value` buffer, and a filter
    /// built by either side must keep answering for the other.
    #[test]
    fn hash_values_are_pinned() {
        let golden: [(Vec<Value>, u64); 9] = [
            (vec![Value::Null], 0xaf63_bd4c_8601_b7df),
            (vec![Value::Boolean(true)], 0x082f_2307_b4e8_8e77),
            (vec![Value::Int32(-7)], 0x0839_5707_b4f1_3b58),
            (vec![Value::Int64(1_234_567_890_123)], 0x2fb7_3c9d_836b_8767),
            (vec![Value::Float64(-0.0)], 0x985b_acc3_d225_2af3),
            (vec![Value::Utf8("fédéré".into())], 0x6013_904f_a722_ee59),
            (vec![Value::Date(18_140)], 0x7b02_5670_5110_e70e),
            (vec![Value::Timestamp(-1)], 0x0828_5707_b4e2_c825),
            (
                vec![Value::Int64(42), Value::Utf8("k42".into())],
                0x1219_32d3_ab6f_b52d,
            ),
        ];
        for (key, want) in &golden {
            assert_eq!(KeyBloom::hash_key(key), *want, "{key:?}");
            // The streamed hash is the hash of the encoded bytes.
            let mut buf = BytesMut::new();
            key.iter()
                .for_each(|v| crate::wire::encode_value(&mut buf, v));
            assert_eq!(Fnv::new().bytes(&buf).0, *want, "{key:?}");
        }
    }

    #[test]
    fn hash_columns_agrees_with_hash_key_row_by_row() {
        let rows: Vec<Vec<Value>> = vec![
            vec![
                Value::Int32(1),
                Value::Utf8("a".into()),
                Value::Float64(f64::NAN),
            ],
            vec![
                Value::Null,
                Value::Utf8(String::new()),
                Value::Float64(-0.0),
            ],
            vec![Value::Int32(i32::MIN), Value::Null, Value::Null],
        ];
        let types = [DataType::Int32, DataType::Utf8, DataType::Float64];
        let columns: Vec<Array> = (0..3)
            .map(|c| {
                let cells: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                Array::from_values(types[c], &cells).unwrap()
            })
            .collect();
        let refs: Vec<&Array> = columns.iter().collect();
        let want: Vec<u64> = rows.iter().map(|r| KeyBloom::hash_key(r)).collect();
        assert_eq!(KeyBloom::hash_columns(&refs), want);
        assert!(KeyBloom::hash_columns(&[]).is_empty());
    }

    #[test]
    fn roundtrips_and_rejects_hostile_frames() {
        let mut bloom = KeyBloom::sized_for(100, 0.01);
        for i in 0..100 {
            bloom.insert(KeyBloom::hash_key(&key(i)));
        }
        let mut buf = bloom.encode();
        let back = KeyBloom::decode(&mut buf).unwrap();
        assert_eq!(back, bloom);
        assert!(!buf.has_remaining());

        // Truncations error, never panic.
        let frame = bloom.encode();
        for cut in 0..frame.len() {
            assert!(KeyBloom::decode(&mut frame.slice(0..cut)).is_err());
        }

        // Absurd bit counts are bounded before allocation.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, u64::MAX / 2);
        put_uvarint(&mut buf, 4);
        assert!(KeyBloom::decode(&mut buf.freeze()).is_err());

        // Zero probes / absurd probes rejected.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 64);
        put_uvarint(&mut buf, 0);
        buf.put_slice(&[0u8; 8]);
        assert!(KeyBloom::decode(&mut buf.freeze()).is_err());
    }
}
