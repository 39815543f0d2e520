//! Synthetic batches for the mediator-kernel experiments (F8 and the
//! `mediator_kernels` Criterion bench): deterministic pseudo-random
//! key/value columns with controlled key cardinality, built directly
//! as batches — no federation, no wire, so the measurements isolate
//! the kernels themselves.

use gis_types::{Array, Batch, Bitmap, DataType, Field, Schema, SchemaRef};

/// A tiny xorshift generator — deterministic across platforms, no
/// dependency on the `rand` shim (which is dev-only here).
#[derive(Debug, Clone)]
pub struct Xorshift(u64);

impl Xorshift {
    /// Seeded generator (seed 0 is remapped to a fixed constant).
    pub fn new(seed: u64) -> Xorshift {
        Xorshift(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform draw in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

fn all_valid(n: usize) -> Bitmap {
    let mut m = Bitmap::with_capacity(n);
    for _ in 0..n {
        m.push(true);
    }
    m
}

/// `n` Int64 keys uniformly drawn from `0..cardinality`, no NULLs.
pub fn int64_keys(n: usize, cardinality: u64, seed: u64) -> Array {
    let mut rng = Xorshift::new(seed);
    let vals: Vec<i64> = (0..n).map(|_| rng.below(cardinality) as i64).collect();
    Array::Int64(vals.into(), all_valid(n).into())
}

/// `n` Utf8 keys over `cardinality` distinct strings. `long` pads
/// keys past the fixed-width budget, forcing the hashed+verified
/// kernel path.
pub fn utf8_keys(n: usize, cardinality: u64, long: bool, seed: u64) -> Array {
    let mut rng = Xorshift::new(seed);
    let vals: Vec<String> = (0..n)
        .map(|_| {
            let k = rng.below(cardinality);
            if long {
                format!("key-{k:+060}")
            } else {
                format!("k{k}")
            }
        })
        .collect();
    Array::Utf8(vals.into(), all_valid(n).into())
}

/// Schema of a two-column `(k, v)` batch.
pub fn kv_schema(key_type: DataType) -> SchemaRef {
    Schema::new(vec![
        Field::new("k", key_type),
        Field::new("v", DataType::Int64),
    ])
    .into_ref()
}

/// A `(k, v)` batch: `n` rows, keys of `cardinality` distinct values
/// (Int64 or long-Utf8), Int64 payloads.
pub fn kv_batch(n: usize, cardinality: u64, long_utf8_keys: bool, seed: u64) -> Batch {
    let key = if long_utf8_keys {
        utf8_keys(n, cardinality, true, seed)
    } else {
        int64_keys(n, cardinality, seed)
    };
    let mut rng = Xorshift::new(seed ^ 0xabcd_ef01_2345_6789);
    let vals: Vec<i64> = (0..n).map(|_| rng.below(1_000) as i64).collect();
    let payload = Array::Int64(vals.into(), all_valid(n).into());
    Batch::try_new(kv_schema(key.data_type()), vec![key, payload]).expect("kv batch")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_bounded() {
        let a = kv_batch(100, 10, false, 7);
        let b = kv_batch(100, 10, false, 7);
        assert_eq!(a.to_rows(), b.to_rows());
        for v in a.column(0).iter_values() {
            match v {
                gis_types::Value::Int64(x) => assert!((0..10).contains(&x)),
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = kv_batch(50, 5, true, 3);
        assert_eq!(s.column(0).data_type(), DataType::Utf8);
    }
}
