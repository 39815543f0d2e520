//! Answer verification against the all-optimisations-off oracle.
//!
//! Every timed answer is compared with the reference the oracle twin
//! computed at set-up. The fast path is a digest over the typed column
//! buffers (no row materialisation, so a 100k-row answer costs about a
//! millisecond to check); only when digests differ — float sums added
//! in another order, or a real divergence — are both sides turned into
//! rows and compared value by value with a 1e-9 relative tolerance on
//! floats, the rule `gis-qa` uses.

use gis::prelude::*;
use gis::types::Array;

/// Relative tolerance for floats (re-associated aggregation).
const FLOAT_REL_EPS: f64 = 1e-9;

/// What the oracle answered for one statement.
pub struct Reference {
    batch: Batch,
    digest: u64,
    /// The statement's `ORDER BY` is total, so row order is part of
    /// the answer; otherwise rows compare as a multiset.
    ordered: bool,
}

impl Reference {
    pub fn new(batch: Batch, ordered: bool) -> Reference {
        Reference {
            digest: digest(&batch, ordered),
            batch,
            ordered,
        }
    }

    /// `Err` carries a one-line description of the first difference.
    pub fn check(&self, got: &Batch) -> std::result::Result<(), String> {
        if got.num_rows() != self.batch.num_rows() {
            return Err(format!(
                "row count: oracle {} vs {}",
                self.batch.num_rows(),
                got.num_rows()
            ));
        }
        if digest(got, self.ordered) == self.digest {
            return Ok(());
        }
        let mut want = self.batch.to_rows();
        let mut have = got.to_rows();
        if !self.ordered {
            want.sort();
            have.sort();
        }
        for (i, (a, b)) in want.iter().zip(&have).enumerate() {
            if a.len() != b.len() || !a.iter().zip(b).all(|(x, y)| value_equal(x, y)) {
                return Err(format!("row {i}: oracle {a:?} vs {b:?}"));
            }
        }
        Ok(())
    }
}

fn value_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            (x.is_nan() && y.is_nan())
                || x == y
                || (x - y).abs() <= FLOAT_REL_EPS * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exact digest of a batch: per-row hashes folded column by column,
/// then summed (multiset) or chained (sequence).
fn digest(batch: &Batch, ordered: bool) -> u64 {
    let mut rows = vec![0x9e37_79b9_7f4a_7c15u64; batch.num_rows()];
    for column in batch.columns() {
        macro_rules! fold {
            ($vals:expr, $valid:expr, $bits:expr) => {
                for (i, h) in rows.iter_mut().enumerate() {
                    let v: u64 = if $valid.get(i) {
                        $bits(&$vals[i])
                    } else {
                        0x6e75_6c6c
                    };
                    *h = mix(h.rotate_left(7) ^ v);
                }
            };
        }
        match column {
            Array::Boolean(v, m) => fold!(v, m, |x: &bool| u64::from(*x) + 1),
            Array::Int32(v, m) | Array::Date(v, m) => fold!(v, m, |x: &i32| *x as i64 as u64),
            Array::Int64(v, m) | Array::Timestamp(v, m) => fold!(v, m, |x: &i64| *x as u64),
            Array::Float64(v, m) => fold!(v, m, |x: &f64| x.to_bits()),
            Array::Utf8(v, m) => fold!(v, m, |x: &String| x
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b))
                    .wrapping_mul(0x0000_0100_0000_01b3))),
        }
    }
    if ordered {
        rows.iter().fold(0, |acc, h| mix(acc ^ h))
    } else {
        rows.iter().fold(0, |acc: u64, h| acc.wrapping_add(mix(*h)))
    }
}
