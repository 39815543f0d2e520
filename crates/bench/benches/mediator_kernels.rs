//! Criterion micro-benchmarks for the vectorized mediator kernels:
//! hash join, GROUP BY, and DISTINCT on synthetic key/value batches,
//! comparing the retained `Vec<Value>` reference path against the
//! vectorized pipeline. Int64 keys take the fixed-width u128 path;
//! long Utf8 keys force the hashed+verified path. The sort kernel
//! (full sort and top-k) is compared against the `compare_rows`
//! reference sort it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gis_adapters::AggFunc;
use gis_bench::synth::{kv_batch, Xorshift};
use gis_core::exec::aggregate::{distinct, distinct_ref, hash_aggregate, hash_aggregate_ref};
use gis_core::exec::join::{hash_join, hash_join_ref};
use gis_core::exec::keys::{KernelGov, KernelOptions};
use gis_core::expr::ScalarExpr;
use gis_core::plan::logical::{AggregateExpr, JoinNode};
use gis_sql::ast::JoinKind;
use gis_types::ordering::{sort_indices, sorted_indices};
use gis_types::{Batch, DataType, Field, Schema, SortKey, Value};

const ROWS: usize = 100_000;
const CARDINALITY: u64 = 1_000;

fn bench_group_by(c: &mut Criterion) {
    let aggs = vec![
        AggregateExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        },
        AggregateExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::col(1)),
            distinct: false,
        },
    ];
    let groups = [ScalarExpr::col(0)];
    let mut g = c.benchmark_group("group_by_100k");
    g.throughput(Throughput::Elements(ROWS as u64));
    for (key, long) in [("int64", false), ("utf8_long", true)] {
        let input = kv_batch(ROWS, CARDINALITY, long, 11);
        let mut fields = vec![Field::new("k", input.column(0).data_type())];
        for a in &aggs {
            fields.push(Field::new(a.display_name(), DataType::Int64));
        }
        let schema = Schema::new(fields).into_ref();
        g.bench_function(BenchmarkId::new("reference", key), |b| {
            b.iter(|| {
                hash_aggregate_ref(&input, &groups, &aggs, schema.clone())
                    .expect("ref agg")
                    .num_rows()
            })
        });
        g.bench_function(BenchmarkId::new("serial", key), |b| {
            b.iter(|| {
                hash_aggregate(
                    &input,
                    &groups,
                    &aggs,
                    schema.clone(),
                    &KernelOptions::default(),
                    &KernelGov::unbounded(),
                )
                .expect("kernel agg")
                .0
                .num_rows()
            })
        });
    }
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let side = ROWS / 2;
    let card = (side as u64 / 4).max(8);
    let mut g = c.benchmark_group("hash_join_100k");
    g.throughput(Throughput::Elements(ROWS as u64));
    for (key, long) in [("int64", false), ("utf8_long", true)] {
        let left = kv_batch(side, card, long, 21);
        let right = kv_batch(side, card, long, 22);
        let schema = JoinNode::compute_schema(left.schema(), right.schema(), JoinKind::Inner);
        g.bench_function(BenchmarkId::new("reference", key), |b| {
            b.iter(|| {
                hash_join_ref(
                    &left,
                    &right,
                    &[0],
                    &[0],
                    JoinKind::Inner,
                    None,
                    schema.clone(),
                )
                .expect("ref join")
                .num_rows()
            })
        });
        g.bench_function(BenchmarkId::new("serial", key), |b| {
            b.iter(|| {
                hash_join(
                    &left,
                    &right,
                    &[0],
                    &[0],
                    JoinKind::Inner,
                    None,
                    None,
                    schema.clone(),
                    &KernelOptions::default(),
                    &KernelGov::unbounded(),
                )
                .expect("kernel join")
                .0
                .num_rows()
            })
        });
    }
    g.finish();
}

fn bench_distinct(c: &mut Criterion) {
    let mut g = c.benchmark_group("distinct_100k");
    g.throughput(Throughput::Elements(ROWS as u64));
    for (key, long) in [("int64", false), ("utf8_long", true)] {
        let input = kv_batch(ROWS, CARDINALITY, long, 31);
        g.bench_function(BenchmarkId::new("reference", key), |b| {
            b.iter(|| distinct_ref(&input).num_rows())
        });
        g.bench_function(BenchmarkId::new("serial", key), |b| {
            b.iter(|| {
                distinct(&input, &KernelOptions::default(), &KernelGov::unbounded())
                    .expect("kernel distinct")
                    .0
                    .num_rows()
            })
        });
    }
    g.finish();
}

/// `(amount f64, id i64, name utf8)`: amounts repeat (so the second
/// key decides), ids are unique, names share a 5-byte prefix.
fn sort_input() -> Batch {
    let mut rng = Xorshift::new(41);
    let rows: Vec<Vec<Value>> = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Float64(rng.below(50_000) as f64 / 100.0),
                Value::Int64(i ^ 0x2a5a5),
                Value::Utf8(format!("cust-{:07}", rng.below(1_000_000))),
            ]
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("amount", DataType::Float64),
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ]);
    Batch::from_rows(schema.into_ref(), &rows).expect("sort input")
}

fn bench_sort(c: &mut Criterion) {
    let input = sort_input();
    let cases = [
        ("f64_desc+i64", vec![SortKey::desc(0), SortKey::asc(1)]),
        ("i64", vec![SortKey::asc(1)]),
        ("utf8", vec![SortKey::asc(2)]),
    ];
    let mut g = c.benchmark_group("sort_100k");
    g.throughput(Throughput::Elements(ROWS as u64));
    for (name, keys) in &cases {
        g.bench_function(BenchmarkId::new("reference", name), |b| {
            b.iter(|| sorted_indices(&input, keys).len())
        });
        g.bench_function(BenchmarkId::new("kernel", name), |b| {
            b.iter(|| sort_indices(input.columns(), ROWS, keys, None).len())
        });
    }
    g.finish();
    // ORDER BY amount DESC, id LIMIT 20: the reference sorts all rows
    // and cuts, the kernel selects.
    let keys = &cases[0].1;
    let mut g = c.benchmark_group("topk_100k");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function(BenchmarkId::new("reference", "k20"), |b| {
        b.iter(|| {
            let mut idx = sorted_indices(&input, keys);
            idx.truncate(20);
            idx
        })
    });
    g.bench_function(BenchmarkId::new("kernel", "k20"), |b| {
        b.iter(|| sort_indices(input.columns(), ROWS, keys, Some(20)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_group_by,
    bench_join,
    bench_distinct,
    bench_sort
);
criterion_main!(benches);
