//! The wire exchange's two shortcuts, checked against the long way
//! round.
//!
//! * **Range encode.** A response chunk is encoded from its row range
//!   of the source's batch; the frame must equal, byte for byte, the
//!   frame of a `slice` copy of those rows — compressed and legacy.
//! * **Append decode.** The frames of one response are decoded onto
//!   the end of one set of column builders; the result must equal the
//!   concatenation of the frames decoded one by one — for every type
//!   and every codec — and a frame that fails to decode must leave the
//!   builders exactly as they were.

use gis::net::{decode_frame, encode_frame, encode_range_into, ColumnCodec, FrameSink};
use gis::prelude::*;
use gis::types::{Array, ArrayBuilder};
use proptest::prelude::*;

/// Deterministic draws for the batch generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const TYPES: [DataType; 7] = [
    DataType::Boolean,
    DataType::Int32,
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Date,
    DataType::Timestamp,
];

/// One column of `rows` slots whose *shape* (constant, few distinct
/// values, sorted walk, high entropy, mostly NULL) is drawn too, so
/// that across seeds every codec wins somewhere.
fn column(dt: DataType, rows: usize, rng: &mut Lcg) -> Array {
    let shape = rng.below(5);
    // Shape 4 is two-thirds NULL; the others have none or one in nine.
    let sparse = shape == 4;
    let sprinkled = rng.below(3) == 0;
    let base = rng.next() as i64;
    let mut b = ArrayBuilder::new(dt);
    for i in 0..rows as i64 {
        if (sparse && rng.below(3) != 0) || (sprinkled && rng.below(9) == 0) {
            b.push_null();
            continue;
        }
        let v = match shape {
            0 => 7,
            1 => rng.below(4) as i64,
            2 => base % 1_000_000 + 3 * i,
            3 => (rng.next() << 31 ^ rng.next()) as i64,
            _ => i / 5,
        };
        let value = match dt {
            DataType::Boolean => Value::Boolean(v % 2 == 0),
            DataType::Int32 => Value::Int32(v as i32),
            DataType::Int64 => Value::Int64(if shape == 3 { v } else { base / 4 + v }),
            DataType::Float64 => Value::Float64(match v % 11 {
                0 if shape == 3 => f64::NAN,
                1 if shape == 3 => -0.0,
                _ => v as f64 * 0.25,
            }),
            DataType::Utf8 => Value::Utf8(match shape {
                3 => format!("row-{v:x}"),
                _ => "v".repeat((v % 6) as usize),
            }),
            DataType::Date => Value::Date(18_000 + (v % 4_000) as i32),
            _ => Value::Timestamp(v.wrapping_mul(1_000_003)),
        };
        b.push_value(&value).expect("typed value");
    }
    b.finish()
}

/// A batch with one column of every type.
fn batch(seed: u64, rows: usize) -> Batch {
    let mut rng = Lcg(seed);
    let fields = TYPES
        .iter()
        .map(|dt| Field::new(format!("c_{dt}"), *dt))
        .collect();
    let columns = TYPES.iter().map(|&dt| column(dt, rows, &mut rng)).collect();
    Batch::try_new(Schema::new(fields).into_ref(), columns).expect("generated batch")
}

/// Bitwise batch equality (`NaN == NaN` by payload, `-0.0 != 0.0`).
fn same_bits(a: &Batch, b: &Batch) -> bool {
    a.schema() == b.schema()
        && a.num_rows() == b.num_rows()
        && format!("{:?}", a.columns()) == format!("{:?}", b.columns())
}

/// The `(offset, len)` chunks a response of `rows` rows ships in.
fn chunks(rows: usize, chunk: usize) -> Vec<(usize, usize)> {
    let mut out = vec![];
    let mut offset = 0;
    loop {
        let len = chunk.min(rows - offset);
        out.push((offset, len));
        offset += len;
        if offset >= rows {
            return out;
        }
    }
}

fn check_range_encode(b: &Batch, chunk: usize) -> Result<(), TestCaseError> {
    for (offset, len) in chunks(b.num_rows(), chunk) {
        for compress in [true, false] {
            let mut ranged = Default::default();
            let ranged_stats = encode_range_into(&mut ranged, b, offset, len, compress);
            let copy = b.slice(offset, len);
            let mut sliced = Default::default();
            let sliced_stats = encode_range_into(&mut sliced, &copy, 0, len, compress);
            prop_assert_eq!(
                &ranged[..],
                &sliced[..],
                "rows {}..+{} compress={}",
                offset,
                len,
                compress
            );
            prop_assert_eq!(ranged_stats, sliced_stats);
            prop_assert_eq!(ranged_stats.wire, ranged.len());
            prop_assert_eq!(ranged_stats.frames, 1);
        }
    }
    Ok(())
}

fn check_append_decode(b: &Batch, chunk: usize, compress: bool) -> Result<(), TestCaseError> {
    let mut sink = FrameSink::new(b.schema().clone());
    let mut parts = Vec::new();
    for (offset, len) in chunks(b.num_rows(), chunk) {
        let mut frame = Default::default();
        encode_range_into(&mut frame, b, offset, len, compress);
        let frame = frame.freeze();
        prop_assert_eq!(sink.append(&frame).expect("append"), len);
        parts.push(decode_frame(frame).expect("decode"));
    }
    prop_assert_eq!(sink.num_rows(), b.num_rows());
    let appended = sink.finish().expect("finish");
    let concatenated = Batch::concat(b.schema().clone(), &parts).expect("concat");
    prop_assert!(
        same_bits(&appended, &concatenated),
        "append != concat, chunk {}",
        chunk
    );
    prop_assert!(same_bits(&appended, b), "round trip lost something");
    Ok(())
}

#[test]
fn the_generator_reaches_every_codec() {
    let mut seen = [0u32; 5];
    for seed in 0..40 {
        let (_, stats) = encode_frame(&batch(seed, 150));
        for (total, n) in seen.iter_mut().zip(stats.codecs) {
            *total += n;
        }
    }
    for codec in ColumnCodec::all() {
        assert!(seen[codec as usize] > 0, "{} never chosen", codec.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn range_encode_is_slice_then_encode(
        seed in any::<u64>(),
        rows in 0usize..160,
        chunk in 1usize..70,
    ) {
        check_range_encode(&batch(seed, rows), chunk)?;
    }

    #[test]
    fn append_decode_is_decode_then_concat(
        seed in any::<u64>(),
        rows in 0usize..160,
        chunk in 1usize..70,
    ) {
        let b = batch(seed, rows);
        check_append_decode(&b, chunk, true)?;
        check_append_decode(&b, chunk, false)?;
    }

    /// Corrupted frames (a byte overwritten, a cut, bytes spliced in)
    /// against a sink that already holds rows: a typed network error
    /// or a clean append, never a panic — and after an error the sink
    /// holds exactly what it held before.
    #[test]
    fn a_rejected_frame_leaves_the_sink_untouched(
        seed in any::<u64>(),
        rows in 1usize..80,
        edits in proptest::collection::vec((any::<u16>(), any::<u8>(), 0u8..3), 1..24),
    ) {
        let b = batch(seed, rows);
        let (good, _) = encode_frame(&b);
        let mut sink = FrameSink::new(b.schema().clone());
        sink.append(&good).expect("valid frame");
        let mut expected = vec![b.clone()];
        for (at, byte, kind) in edits {
            let at = usize::from(at) % good.len();
            let mut frame = good.to_vec();
            match kind {
                0 => frame[at] = byte,
                1 => frame.truncate(at),
                _ => frame.insert(at, byte),
            }
            let held = sink.num_rows();
            match sink.append(&frame) {
                Ok(_) => expected.push(
                    decode_frame(frame.into()).expect("appendable frames decode alone too"),
                ),
                Err(e) => {
                    prop_assert_eq!(e.code(), "NETWORK", "{}", e);
                    prop_assert_eq!(sink.num_rows(), held);
                }
            }
        }
        let appended = sink.finish().expect("finish");
        let concatenated = Batch::concat(b.schema().clone(), &expected).expect("concat");
        prop_assert!(same_bits(&appended, &concatenated));
    }
}

#[test]
fn a_frame_of_another_shape_is_refused_whole() {
    let b = batch(3, 20);
    let mut sink = FrameSink::new(b.schema().clone());
    sink.append(&encode_frame(&b).0).unwrap();
    // Fewer columns, and the same count with one type swapped.
    let narrow = b.project(&[0, 1]).unwrap();
    let swapped = b.project(&[0, 1, 2, 3, 4, 6, 5]).unwrap();
    for other in [narrow, swapped] {
        let err = sink.append(&encode_frame(&other).0).unwrap_err();
        assert_eq!(err.code(), "NETWORK", "{err}");
        assert_eq!(sink.num_rows(), 20);
    }
    assert!(same_bits(&sink.finish().unwrap(), &b));
}
