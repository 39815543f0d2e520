//! Component-engine microbenchmarks: access-path costs inside each
//! autonomous store, plus the ablation knob of experiment design
//! decision #1 (zone-map pruning on/off is approximated by
//! pruning-friendly vs pruning-hostile predicates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gis_adapters::{ColumnarAdapter, SourceAdapter, SourceRequest};
use gis_net::KeyBloom;
use gis_storage::{CmpOp, ColumnStore, KvStore, RowStore, ScanPredicate};
use gis_types::{DataType, Field, Schema, SchemaRef, Value};
use std::hint::black_box;

const ROWS: i64 = 50_000;

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("bucket", DataType::Int64),
        Field::new("score", DataType::Float64),
    ])
    .into_ref()
}

fn row(i: i64) -> Vec<Value> {
    vec![
        Value::Int64(i),
        Value::Int64(i % 100),
        Value::Float64((i % 1000) as f64),
    ]
}

fn bench_row_store(c: &mut Criterion) {
    let mut store = RowStore::new("t", schema(), Some(0)).unwrap();
    for i in 0..ROWS {
        store.insert(row(i)).unwrap();
    }
    store.create_index(1).unwrap();
    let mut group = c.benchmark_group("row_store");
    group.bench_function("pk_point", |b| {
        b.iter(|| {
            black_box(
                store
                    .scan(
                        &[ScanPredicate::new(0, CmpOp::Eq, Value::Int64(ROWS / 2))],
                        &[],
                        None,
                    )
                    .unwrap()
                    .batch
                    .num_rows(),
            )
        })
    });
    group.bench_function("pk_range_1pct", |b| {
        b.iter(|| {
            black_box(
                store
                    .scan(
                        &[
                            ScanPredicate::new(0, CmpOp::GtEq, Value::Int64(0)),
                            ScanPredicate::new(0, CmpOp::Lt, Value::Int64(ROWS / 100)),
                        ],
                        &[],
                        None,
                    )
                    .unwrap()
                    .batch
                    .num_rows(),
            )
        })
    });
    group.bench_function("secondary_eq", |b| {
        b.iter(|| {
            black_box(
                store
                    .scan(
                        &[ScanPredicate::new(1, CmpOp::Eq, Value::Int64(7))],
                        &[],
                        None,
                    )
                    .unwrap()
                    .batch
                    .num_rows(),
            )
        })
    });
    group.bench_function("full_scan_filter", |b| {
        b.iter(|| {
            black_box(
                store
                    .scan(
                        &[ScanPredicate::new(2, CmpOp::Lt, Value::Float64(10.0))],
                        &[],
                        None,
                    )
                    .unwrap()
                    .batch
                    .num_rows(),
            )
        })
    });
    group.finish();
}

fn bench_column_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("column_store");
    for segment in [1024usize, 8192] {
        let mut store = ColumnStore::with_segment_rows("t", schema(), segment);
        for i in 0..ROWS {
            store.append(row(i)).unwrap();
        }
        store.seal().unwrap();
        // id is clustered → zone maps prune; bucket is not → no
        // pruning. The pair shows what zone maps buy.
        group.bench_with_input(
            BenchmarkId::new("clustered_range", segment),
            &(),
            |b, ()| {
                b.iter(|| {
                    let (batch, _) = store
                        .scan(
                            &[
                                ScanPredicate::new(0, CmpOp::GtEq, Value::Int64(1000)),
                                ScanPredicate::new(0, CmpOp::Lt, Value::Int64(1500)),
                            ],
                            &[0],
                            None,
                        )
                        .unwrap();
                    black_box(batch.num_rows())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("unclustered_eq", segment), &(), |b, ()| {
            b.iter(|| {
                let (batch, _) = store
                    .scan(
                        &[ScanPredicate::new(1, CmpOp::Eq, Value::Int64(7))],
                        &[0],
                        None,
                    )
                    .unwrap();
                black_box(batch.num_rows())
            })
        });
    }
    group.finish();
}

fn bench_kv_store(c: &mut Criterion) {
    let mut store = KvStore::new("t", schema(), 1).unwrap();
    for i in 0..ROWS {
        store.put(row(i)).unwrap();
    }
    let mut group = c.benchmark_group("kv_store");
    group.bench_function("point_get", |b| {
        b.iter(|| {
            black_box(
                store
                    .get(&[Value::Int64(ROWS / 3)])
                    .unwrap()
                    .map(|r| r.len()),
            )
        })
    });
    group.bench_function("range_1pct", |b| {
        b.iter(|| {
            black_box(
                store
                    .scan_range(
                        Some(&Value::Int64(0)),
                        Some(&Value::Int64(ROWS / 100)),
                        None,
                    )
                    .unwrap()
                    .num_rows(),
            )
        })
    });
    group.finish();
}

/// Keyed access on the column store as the semijoin path drives it:
/// 100k rows, ten per key, the key column unclustered (every zone map
/// spans the whole key domain, so nothing prunes and each lookup is
/// one full probe pass).
fn bench_keyed_access(c: &mut Criterion) {
    const KEYED_ROWS: i64 = 100_000;
    const DISTINCT: i64 = 10_000;
    let rows = || {
        (0..KEYED_ROWS).map(|i| {
            vec![
                Value::Int64(i),
                Value::Int64(i * 7919 % DISTINCT),
                Value::Float64((i % 1000) as f64),
            ]
        })
    };
    let key = |k: i64| vec![Value::Int64(k * 37 % DISTINCT)];

    let mut store = ColumnStore::new("t", schema());
    store.append_many(rows()).unwrap();
    store.seal().unwrap();
    let mut group = c.benchmark_group("columnar_lookup");
    for n in [16i64, 128, 1024] {
        let keys: Vec<Vec<Value>> = (0..n).map(key).collect();
        group.bench_function(format!("{n}_keys"), |b| {
            b.iter(|| {
                let (batch, _) = store.lookup_sealed(&[1], &keys, &[0, 2]).unwrap();
                black_box(batch.num_rows())
            })
        });
    }
    group.finish();

    let adapter = ColumnarAdapter::new("sales");
    adapter.add_table(ColumnStore::new("t", schema()));
    adapter.load("t", rows()).unwrap();
    let mut bloom = KeyBloom::sized_for(128, 0.01);
    for k in 0..128 {
        bloom.insert(KeyBloom::hash_key(&key(k)));
    }
    let request = SourceRequest::LookupFilter {
        table: "t".into(),
        key_columns: vec![1],
        bloom,
        projection: vec![0, 2],
    };
    let mut group = c.benchmark_group("bloom_filter");
    group.bench_function("100k_rows", |b| {
        b.iter(|| black_box(adapter.execute(&request).unwrap()[0].num_rows()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_row_store,
    bench_column_store,
    bench_kv_store,
    bench_keyed_access
);
criterion_main!(benches);
