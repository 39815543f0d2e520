//! Every compressed frame, pinned byte for byte.
//!
//! The wire codec's planner may be rebuilt for speed, but the frames
//! it emits are a protocol: the benchmark gates `wire_bytes_per_query`
//! exactly, and a peer built from an older commit must decode what
//! this one ships. Each literal below is an FNV-1a digest over *all
//! the bytes of all the frames* of one input (every frame's length is
//! folded in ahead of its bytes), captured from the encoder as it
//! stood before the planner was touched. A planner that picks another
//! codec for any column of any chunk, breaks a tie the other way, or
//! packs one bit differently moves a digest.
//!
//! Inputs: FedMart `tiny()`'s five global tables in 1 024- and 7-row
//! chunks, plus hand-built edge columns.

use gis::net::encode_frame;
use gis::prelude::*;
use gis::types::{Array, ArrayBuilder};
use std::sync::Arc;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of the frames of `batch` cut into `chunk`-row pieces (an
/// empty batch still ships one frame), plus the frame count and the
/// total wire bytes so a mismatch says how far off it is.
fn frames_digest(batch: &Batch, chunk: usize) -> (u64, usize, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut frames, mut bytes) = (0, 0);
    let mut offset = 0;
    loop {
        let (frame, stats) = encode_frame(&batch.slice(offset, chunk));
        assert_eq!(stats.wire, frame.len());
        fnv1a(&mut h, &(frame.len() as u64).to_le_bytes());
        fnv1a(&mut h, &frame);
        frames += 1;
        bytes += frame.len();
        offset = offset.saturating_add(chunk);
        if offset >= batch.num_rows() {
            return (h, frames, bytes);
        }
    }
}

/// `(table, chunk rows, digest, frames, wire bytes)`.
const TABLES: [(&str, usize, u64, usize, usize); 10] = [
    ("customers", 1024, 0xbb94_7502_eb74_b830, 1, 2588),
    ("customers", 7, 0x6e10_2c69_460e_09f6, 15, 4574),
    ("regions", 1024, 0x733d_6dac_d84e_244a, 1, 193),
    ("regions", 7, 0x4f79_88ee_83eb_3e01, 2, 223),
    ("orders", 1024, 0x75e1_a66e_06ae_4232, 1, 12481),
    ("orders", 7, 0xf26f_96e5_4ee9_bf2f, 143, 27325),
    ("products", 1024, 0xa9af_ca0f_b33e_1f06, 1, 540),
    ("products", 7, 0xa1e2_ba0d_c8f7_46b9, 3, 707),
    ("stock", 1024, 0xc5b9_60e5_6520_f77a, 1, 213),
    ("stock", 7, 0x5bdb_6f4c_3b60_ae6c, 12, 803),
];

#[test]
fn fedmart_table_frames_are_byte_identical() {
    let fed = build_fedmart(FedMartConfig::tiny())
        .expect("fedmart")
        .federation;
    let mut report = String::new();
    let mut ok = true;
    for (table, chunk, digest, frames, bytes) in TABLES {
        let batch = fed
            .query(&format!("SELECT * FROM {table}"))
            .unwrap_or_else(|e| panic!("{table}: {e}"))
            .batch;
        let got = frames_digest(&batch, chunk);
        ok &= got == (digest, frames, bytes);
        report.push_str(&format!(
            "    (\"{table}\", {chunk}, {:#018x}, {}, {}),\n",
            got.0, got.1, got.2
        ));
    }
    assert!(ok, "frames moved; the encoder now produces:\n{report}");
}

fn column(dt: DataType, values: impl IntoIterator<Item = Value>) -> Array {
    let mut b = ArrayBuilder::new(dt);
    for v in values {
        b.push_value(&v)
            .expect("edge value matches its column type");
    }
    b.finish()
}

fn one_column(name: &str, array: Array) -> Batch {
    let schema = Schema::new(vec![Field::new(name, array.data_type())]).into_ref();
    Batch::try_new(schema, vec![array]).expect("edge batch")
}

/// A fixed pseudo-random permutation source (the digests must not
/// depend on a `rand` version).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

fn edge_batches() -> Vec<(&'static str, Batch)> {
    let all_types = [
        DataType::Boolean,
        DataType::Int32,
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Date,
        DataType::Timestamp,
    ];
    let mut out: Vec<(&'static str, Batch)> = Vec::new();
    // All-NULL columns of every type, side by side.
    let fields: Vec<Field> = all_types
        .iter()
        .map(|dt| Field::new(format!("n_{dt}"), *dt))
        .collect();
    let nulls = all_types.iter().map(|dt| Array::nulls(*dt, 50)).collect();
    out.push((
        "all_null",
        Batch::try_new(Schema::new(fields.clone()).into_ref(), nulls).unwrap(),
    ));
    // One repeated value of every type.
    let constant = |dt: DataType| match dt {
        DataType::Boolean => Value::Boolean(true),
        DataType::Int32 => Value::Int32(7),
        DataType::Int64 => Value::Int64(-7),
        DataType::Float64 => Value::Float64(9.99),
        DataType::Utf8 => Value::Utf8("constant-padding-string".into()),
        DataType::Date => Value::Date(18_500),
        _ => Value::Timestamp(1_700_000_000_000_000),
    };
    let constants = all_types
        .iter()
        .map(|&dt| column(dt, (0..300).map(|_| constant(dt))))
        .collect();
    out.push((
        "one_value",
        Batch::try_new(Schema::new(fields).into_ref(), constants).unwrap(),
    ));
    // Strings: at, under and over the dictionary cap; empty strings.
    let strings = |distinct: usize, rows: usize| {
        one_column(
            "s",
            column(
                DataType::Utf8,
                (0..rows).map(|i| Value::Utf8(format!("key-{:04}", (i * 7) % distinct))),
            ),
        )
    };
    out.push(("strings_4_distinct", strings(4, 1000)));
    out.push(("strings_256_distinct", strings(256, 1000)));
    out.push(("strings_257_distinct", strings(257, 1000)));
    out.push(("strings_all_distinct", strings(1000, 1000)));
    out.push((
        "strings_empty_and_null",
        one_column(
            "s",
            column(
                DataType::Utf8,
                (0..200).map(|i| match i % 5 {
                    0 => Value::Null,
                    1 | 2 => Value::Utf8(String::new()),
                    _ => Value::Utf8("x".repeat(i % 3)),
                }),
            ),
        ),
    ));
    // Floats: every special value, bitwise.
    let specials = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        1.5,
    ];
    out.push((
        "float_specials",
        one_column(
            "f",
            column(
                DataType::Float64,
                (0..160).map(|i| {
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(specials[(i * 3) % specials.len()])
                    }
                }),
            ),
        ),
    ));
    out.push((
        "float_high_entropy",
        one_column(
            "f",
            column(
                DataType::Float64,
                (0..500).map(|i| Value::Float64(i as f64 * 1.37 + 0.001)),
            ),
        ),
    ));
    out.push((
        "float_mostly_null",
        one_column(
            "f",
            column(
                DataType::Float64,
                (0..300).map(|i| {
                    if i % 29 == 0 {
                        Value::Float64(i as f64 * 1.7)
                    } else {
                        Value::Null
                    }
                }),
            ),
        ),
    ));
    // Integers: extremes, sorted, shuffled, NULL runs.
    out.push((
        "int_extremes",
        one_column(
            "i",
            column(
                DataType::Int64,
                [
                    Value::Int64(i64::MIN),
                    Value::Int64(i64::MAX),
                    Value::Null,
                    Value::Int64(0),
                    Value::Int64(-1),
                    Value::Int64(i64::MAX),
                    Value::Int64(i64::MIN),
                ],
            ),
        ),
    ));
    out.push((
        "int_sorted_big_base",
        one_column(
            "i",
            column(
                DataType::Int64,
                (0..400).map(|i| Value::Int64(1_700_000_000_000_000 + 37 * i)),
            ),
        ),
    ));
    let mut state = 42u64;
    let mut shuffled: Vec<i64> = (0..1000).collect();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, lcg(&mut state) as usize % (i + 1));
    }
    out.push((
        "int_shuffled",
        one_column(
            "i",
            column(DataType::Int64, shuffled.iter().map(|&v| Value::Int64(v))),
        ),
    ));
    out.push((
        "int_high_entropy",
        one_column(
            "i",
            column(
                DataType::Int64,
                (0..300i64).map(|i| Value::Int64(i.wrapping_mul(-0x61c8_8646_80b5_83eb))),
            ),
        ),
    ));
    out.push((
        "int32_null_runs",
        one_column(
            "i",
            column(
                DataType::Int32,
                (0..600).map(|i| {
                    if (i / 40) % 2 == 0 {
                        Value::Null
                    } else {
                        Value::Int32((i / 7) % 9)
                    }
                }),
            ),
        ),
    ));
    out.push((
        "date_small_domain",
        one_column(
            "d",
            column(
                DataType::Date,
                (0..900).map(|i| Value::Date(18_000 + ((i * 31) % 17))),
            ),
        ),
    ));
    out.push((
        "timestamp_steps_with_nulls",
        one_column(
            "t",
            column(
                DataType::Timestamp,
                (0..500i64).map(|i| {
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::Timestamp(1_600_000_000_000_000 + i * 1_000_003)
                    }
                }),
            ),
        ),
    ));
    out.push((
        "bool_mixed",
        one_column(
            "b",
            column(
                DataType::Boolean,
                (0..333).map(|i| match i % 7 {
                    0 => Value::Null,
                    1..=3 => Value::Boolean(true),
                    _ => Value::Boolean(false),
                }),
            ),
        ),
    ));
    // Degenerate shapes.
    let two = Schema::new(vec![
        Field::required("id", DataType::Int64).with_qualifier("t"),
        Field::new("name", DataType::Utf8),
    ])
    .into_ref();
    out.push(("zero_rows", Batch::empty(two.clone())));
    out.push((
        "one_row",
        Batch::from_rows(two, &[vec![Value::Int64(41), Value::Utf8("solo".into())]]).unwrap(),
    ));
    out.push(("zero_columns", Batch::placeholder(3)));
    out
}

/// `(name, digest whole, digest in 7-row chunks)`.
const EDGES: [(&str, u64, u64); 22] = [
    ("all_null", 0x01b0_54b2_27bf_b01d, 0x2560_5774_9ea4_eb3b),
    ("one_value", 0x167b_862f_2d1a_d67b, 0xdde0_8d39_de9d_5a99),
    (
        "strings_4_distinct",
        0x4de3_91d5_2668_4ad9,
        0xaacc_e41f_d731_6e44,
    ),
    (
        "strings_256_distinct",
        0x5245_ea58_3cd4_99bf,
        0x107c_d2b3_1f84_157e,
    ),
    (
        "strings_257_distinct",
        0xf7d4_abdf_1d70_37f5,
        0xdf14_2616_c8cd_b43c,
    ),
    (
        "strings_all_distinct",
        0x6b99_ad22_261a_bf9a,
        0x0eb1_77e5_b322_5cd3,
    ),
    (
        "strings_empty_and_null",
        0x7869_c711_baa3_b246,
        0x3b3a_d830_cda5_a787,
    ),
    (
        "float_specials",
        0x4047_dfac_8325_79e3,
        0x438d_b452_b2e9_fae8,
    ),
    (
        "float_high_entropy",
        0x7dcc_b5e6_7328_9ab9,
        0x39c2_8d85_131c_b521,
    ),
    (
        "float_mostly_null",
        0xb46d_76bb_5022_a933,
        0x8f69_537b_c425_8ce9,
    ),
    ("int_extremes", 0xb5cf_8fe2_e791_c18c, 0xb5cf_8fe2_e791_c18c),
    (
        "int_sorted_big_base",
        0xd97a_8984_0a07_06ad,
        0x74e2_2b0b_dd5c_15dd,
    ),
    ("int_shuffled", 0x84bb_731d_744c_7d16, 0x72fb_437a_4c7a_205a),
    (
        "int_high_entropy",
        0xcd23_18ce_b89d_88ea,
        0xcefd_4f84_cfb8_8161,
    ),
    (
        "int32_null_runs",
        0x3107_3614_88a4_334b,
        0x29e4_0e26_08f6_35ab,
    ),
    (
        "date_small_domain",
        0xf22b_9bd3_e97e_b7ed,
        0xcc7b_85b3_691d_1ded,
    ),
    (
        "timestamp_steps_with_nulls",
        0xa83b_0b34_1eb1_638b,
        0x8bca_2da7_60a2_e912,
    ),
    ("bool_mixed", 0x8ef5_fa4b_28d5_bcdf, 0x0db3_03a1_e723_8cc9),
    ("zero_rows", 0xdbd5_3721_5b4e_2aff, 0xdbd5_3721_5b4e_2aff),
    ("one_row", 0x6eb3_6134_b50c_9fc1, 0x6eb3_6134_b50c_9fc1),
    ("zero_columns", 0x353b_34a0_3fa1_17e5, 0x353b_34a0_3fa1_17e5),
    (
        "shared_buffers",
        0x66a6_f4a5_0266_da37,
        0x6ac4_b063_a392_6f0f,
    ),
];

#[test]
fn edge_column_frames_are_byte_identical() {
    let mut batches = edge_batches();
    // A column whose buffers are shared with another batch encodes
    // like any other (the encoder only reads).
    let shared = batches[12].1.clone();
    let both = Batch::try_new(
        Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])),
        vec![shared.column(0).clone(), shared.column(0).clone()],
    )
    .unwrap();
    batches.push(("shared_buffers", both));
    let mut report = String::new();
    let mut ok = batches.len() == EDGES.len();
    for ((name, batch), (want_name, whole, chunked)) in batches.iter().zip(EDGES) {
        let got = (
            frames_digest(batch, usize::MAX).0,
            frames_digest(batch, 7).0,
        );
        ok &= *name == want_name && got == (whole, chunked);
        report.push_str(&format!(
            "    (\"{name}\", {:#018x}, {:#018x}),\n",
            got.0, got.1
        ));
    }
    assert!(ok, "frames moved; the encoder now produces:\n{report}");
}
