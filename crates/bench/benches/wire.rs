//! Wire-format throughput: encode/decode of batches and requests.
//! The wire is on every fragment's critical path; these benches keep
//! its cost visible.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gis_adapters::{wire_req, SourceRequest};
use gis_net::codec::{decode_frame, encode_frame_into, encode_range_into, FrameSink};
use gis_net::wire::{decode_batch, encode_batch};
use gis_net::ColumnCodec;
use gis_storage::{CmpOp, ScanPredicate};
use gis_types::{Batch, DataType, Field, Schema, Value};
use std::hint::black_box;

fn sample_batch(rows: usize) -> Batch {
    let schema = Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("score", DataType::Float64),
        Field::new("day", DataType::Date),
    ])
    .into_ref();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int64(i as i64),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Utf8(format!("name-{i}"))
                },
                Value::Float64(i as f64 / 3.0),
                Value::Date(i as i32),
            ]
        })
        .collect();
    Batch::from_rows(schema, &data).unwrap()
}

/// A single-column batch whose data reliably selects `codec` under
/// the exact size-based selection rule (asserted at bench setup).
fn codec_batch(codec: ColumnCodec, rows: usize) -> Batch {
    let (field, gen): (Field, Box<dyn Fn(usize) -> Value>) = match codec {
        // High-entropy wide integers: ~10-byte zigzag varints lose
        // to the flat layout and nothing repeats or deltas.
        ColumnCodec::Raw => (
            Field::new("v", DataType::Int64),
            Box::new(|i| Value::Int64((i as i64).wrapping_mul(-0x61c8_8646_80b5_83eb))),
        ),
        // Eight distinct strings cycling row-by-row: runs of one kill
        // RLE, the dictionary packs each row into a byte.
        ColumnCodec::Dict => (
            Field::new("v", DataType::Utf8),
            Box::new(|i| Value::Utf8(format!("category-{:02}", i % 8))),
        ),
        // Long runs of identical values.
        ColumnCodec::Rle => (
            Field::new("v", DataType::Int64),
            Box::new(|i| Value::Int64((i / 512) as i64)),
        ),
        // A sorted sequence: one-byte deltas.
        ColumnCodec::Delta => (
            Field::new("v", DataType::Int64),
            Box::new(|i| Value::Int64(1_000_000 + i as i64 * 3)),
        ),
        // Sparse: null suppression beats everything.
        ColumnCodec::NullSup => (
            Field::new("v", DataType::Int64),
            Box::new(|i| {
                if i % 17 == 0 {
                    Value::Int64(i as i64 * 7919)
                } else {
                    Value::Null
                }
            }),
        ),
    };
    let schema = Schema::new(vec![field]).into_ref();
    let data: Vec<Vec<Value>> = (0..rows).map(|i| vec![gen(i)]).collect();
    Batch::from_rows(schema, &data).unwrap()
}

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    const ROWS: usize = 4096;
    for codec in ColumnCodec::all() {
        let batch = codec_batch(codec, ROWS);
        let mut buf = BytesMut::new();
        let stats = encode_frame_into(&mut buf, &batch);
        assert_eq!(
            stats.codecs[codec as usize],
            1,
            "{} batch selected {} instead",
            codec.name(),
            stats.codec_summary()
        );
        let encoded = buf.freeze();
        // Throughput in *decoded* bytes: what the codec moves per
        // second of CPU, comparable across codecs.
        group.throughput(Throughput::Bytes(stats.raw as u64));
        group.bench_with_input(
            BenchmarkId::new("encode", codec.name()),
            &batch,
            |b, batch| {
                let mut scratch = BytesMut::new();
                b.iter(|| {
                    scratch.clear();
                    black_box(encode_frame_into(&mut scratch, batch).wire)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decode", codec.name()),
            &encoded,
            |b, encoded| b.iter(|| black_box(decode_frame(encoded.clone()).unwrap().num_rows())),
        );
    }
    group.finish();
}

/// FedMart's `orders` shape: a sequential id, a skewed foreign key, a
/// uniform one, a clustered date, a small integer, a float amount.
fn orders_batch(rows: usize) -> Batch {
    let schema = Schema::new(vec![
        Field::required("order_id", DataType::Int64),
        Field::new("cust_id", DataType::Int64),
        Field::new("product_id", DataType::Int64),
        Field::new("order_day", DataType::Date),
        Field::new("quantity", DataType::Int64),
        Field::new("amount", DataType::Float64),
    ])
    .into_ref();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % n
    };
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let qty = 1 + draw(19) as i64;
            vec![
                Value::Int64(i as i64),
                Value::Int64((draw(100) * draw(100)) as i64),
                Value::Int64(draw(2000) as i64),
                Value::Date(18_000 + draw(1000) as i32),
                Value::Int64(qty),
                Value::Float64(qty as f64 * (50 + draw(9950)) as f64 / 100.0),
            ]
        })
        .collect();
    Batch::from_rows(schema, &data).unwrap()
}

/// The exchange as `RemoteSource` runs it: a chunk encoded from its
/// row range of the source's batch, frames appended into one set of
/// builders — and the one-row frame `serving_hot`-style point lookups
/// ship, which must not pay for any of it.
fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_exchange");
    const CHUNK: usize = 1024;
    let orders = orders_batch(4 * CHUNK);
    let mut frames = Vec::new();
    let mut raw = 0;
    for chunk in 0..4 {
        let mut buf = BytesMut::new();
        raw += encode_range_into(&mut buf, &orders, chunk * CHUNK, CHUNK, true).raw;
        frames.push(buf.freeze());
    }
    group.throughput(Throughput::Bytes(raw as u64 / 4));
    group.bench_function("encode_range/orders_1024", |b| {
        let mut scratch = BytesMut::new();
        b.iter(|| {
            scratch.clear();
            black_box(encode_range_into(&mut scratch, &orders, 2 * CHUNK, CHUNK, true).wire)
        })
    });
    group.throughput(Throughput::Bytes(raw as u64));
    group.bench_function("decode_append/orders_1024", |b| {
        b.iter(|| {
            let mut sink = FrameSink::new(orders.schema().clone());
            for frame in &frames {
                sink.append(frame).unwrap();
            }
            black_box(sink.finish().unwrap().num_rows())
        })
    });
    let tiny = Batch::from_rows(
        Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("region", DataType::Utf8),
            Field::new("balance", DataType::Float64),
            Field::new("since", DataType::Date),
        ])
        .into_ref(),
        &[vec![
            Value::Int64(4711),
            Value::Utf8("cust-4711".into()),
            Value::Utf8("north".into()),
            Value::Float64(1234.5),
            Value::Date(17_000),
        ]],
    )
    .unwrap();
    group.throughput(Throughput::Elements(1));
    group.bench_function("encode/tiny_1row", |b| {
        let mut scratch = BytesMut::new();
        b.iter(|| {
            scratch.clear();
            black_box(encode_frame_into(&mut scratch, &tiny).wire)
        })
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for rows in [128usize, 4096] {
        let batch = sample_batch(rows);
        let encoded = encode_batch(&batch);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("encode_batch", rows),
            &batch,
            |b, batch| b.iter(|| black_box(encode_batch(batch).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_batch", rows),
            &encoded,
            |b, encoded| b.iter(|| black_box(decode_batch(encoded.clone()).unwrap().num_rows())),
        );
    }
    let lookup = SourceRequest::Lookup {
        table: "t".into(),
        key_columns: vec![0],
        keys: (0..1000i64).map(|i| vec![Value::Int64(i)]).collect(),
        projection: vec![0, 2],
    };
    group.bench_function("encode_lookup_1k_keys", |b| {
        b.iter(|| black_box(wire_req::encode_request(&lookup).len()))
    });
    let scan = SourceRequest::Scan {
        table: "t".into(),
        predicates: vec![
            ScanPredicate::new(0, CmpOp::GtEq, Value::Int64(10)),
            ScanPredicate::new(1, CmpOp::Eq, Value::Utf8("x".into())),
        ],
        projection: vec![0, 1, 2],
        sort: vec![],
        limit: Some(100),
    };
    group.bench_function("request_roundtrip", |b| {
        b.iter(|| {
            let bytes = wire_req::encode_request(&scan);
            black_box(wire_req::decode_request(bytes).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_wire, bench_codecs, bench_exchange);
criterion_main!(benches);
