//! F8 — mediator kernel throughput (vectorized key pipeline).
//!
//! Direct kernel-level measurement of the three mediator integration
//! kernels — hash join, GROUP BY, DISTINCT — at 10^4..10^6 rows,
//! on two paths each:
//!
//! * `reference` — the retained `Vec<Value>`-per-row implementations
//!   (the pre-vectorization kernels, also the differential oracle),
//! * `serial`    — the vectorized key pipeline.
//!
//! Rows/sec counts *input* rows (build+probe for joins). The run
//! emits `BENCH_kernels.json` so later PRs can track the perf
//! trajectory, and (full mode only) asserts the PR's acceptance
//! floor: ≥3x over the reference on the 10^6-row group-by and join.
//! `--smoke` runs the two smaller sizes only, for CI.

use gis_adapters::AggFunc;
use gis_bench::synth::kv_batch;
use gis_bench::{fmt_ratio, json_str, Report};
use gis_core::exec::aggregate::{distinct, distinct_ref, hash_aggregate, hash_aggregate_ref};
use gis_core::exec::join::{hash_join, hash_join_ref};
use gis_core::exec::keys::{KernelGov, KernelOptions};
use gis_core::expr::ScalarExpr;
use gis_core::plan::logical::{AggregateExpr, JoinNode};
use gis_sql::ast::JoinKind;
use gis_types::{DataType, Field, Schema, SchemaRef};
use std::time::Instant;

/// Distinct keys for an `n`-row group-by/distinct input: group count
/// scales with the data (one group per ~10 rows), mirroring how the
/// join sides scale key cardinality with size.
fn cardinality(n: usize) -> u64 {
    (n as u64 / 10).max(16)
}

struct Sample {
    kernel: &'static str,
    rows: usize,
    path: &'static str,
    rows_per_sec: f64,
}

/// The two measured paths of one kernel: label + boxed runner
/// returning the output row count (the observable sink).
type Runs<'a> = [(&'static str, Box<dyn FnMut() -> usize + 'a>); 2];

fn time_rows_per_sec(input_rows: usize, mut f: impl FnMut() -> usize) -> f64 {
    // One warmup, then best of two timed runs (the kernels are
    // single-shot batch calls; best-of damps scheduler noise).
    let sink = f();
    assert!(sink < usize::MAX, "keep the call observable");
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        assert!(out < usize::MAX);
        best = best.min(secs);
    }
    input_rows as f64 / best
}

fn agg_schema(aggs: &[AggregateExpr]) -> SchemaRef {
    let mut fields = vec![Field::new("k", DataType::Int64)];
    for a in aggs {
        fields.push(Field::new(a.display_name(), DataType::Int64));
    }
    Schema::new(fields).into_ref()
}

fn bench_group_by(n: usize, samples: &mut Vec<Sample>) {
    let input = kv_batch(n, cardinality(n), false, 11);
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
    let schema = agg_schema(&aggs);
    let groups = [ScalarExpr::col(0)];
    let runs: Runs = [
        (
            "reference",
            Box::new(|| {
                hash_aggregate_ref(&input, &groups, &aggs, schema.clone())
                    .expect("ref agg")
                    .num_rows()
            }),
        ),
        (
            "serial",
            Box::new(|| {
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
            }),
        ),
    ];
    for (path, mut f) in runs {
        samples.push(Sample {
            kernel: "group-by",
            rows: n,
            path,
            rows_per_sec: time_rows_per_sec(n, &mut *f),
        });
    }
}

fn bench_join(n: usize, samples: &mut Vec<Sample>) {
    // Build and probe sides of n/2 rows each: input = n rows total.
    // Key cardinality equals the side size, so each probe row matches
    // ~1 build row and the output stays ~n/2 rows — the measurement
    // follows the key pipeline, not output materialization.
    let side = n / 2;
    let card = (side as u64).max(8);
    let left = kv_batch(side, card, false, 21);
    let right = kv_batch(side, card, false, 22);
    let schema = JoinNode::compute_schema(left.schema(), right.schema(), JoinKind::Inner);
    let runs: Runs = [
        (
            "reference",
            Box::new(|| {
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
            }),
        ),
        (
            "serial",
            Box::new(|| {
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
            }),
        ),
    ];
    for (path, mut f) in runs {
        samples.push(Sample {
            kernel: "hash-join",
            rows: n,
            path,
            rows_per_sec: time_rows_per_sec(n, &mut *f),
        });
    }
}

fn bench_distinct(n: usize, samples: &mut Vec<Sample>) {
    let input = kv_batch(n, cardinality(n), false, 31);
    let runs: Runs = [
        ("reference", Box::new(|| distinct_ref(&input).num_rows())),
        (
            "serial",
            Box::new(|| {
                distinct(&input, &KernelOptions::default(), &KernelGov::unbounded())
                    .expect("kernel distinct")
                    .0
                    .num_rows()
            }),
        ),
    ];
    for (path, mut f) in runs {
        samples.push(Sample {
            kernel: "distinct",
            rows: n,
            path,
            rows_per_sec: time_rows_per_sec(n, &mut *f),
        });
    }
}

fn rate(samples: &[Sample], kernel: &str, rows: usize, path: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.kernel == kernel && s.rows == rows && s.path == path)
        .map(|s| s.rows_per_sec)
        .unwrap_or(0.0)
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else {
        format!("{:.0}k", r / 1e3)
    }
}

fn write_json(samples: &[Sample], smoke: bool) {
    let items: Vec<_> = samples
        .iter()
        .map(|s| {
            vec![
                ("kernel", json_str(s.kernel)),
                ("rows", s.rows.to_string()),
                ("path", json_str(s.path)),
                ("rows_per_sec", format!("{:.0}", s.rows_per_sec)),
            ]
        })
        .collect();
    Report::write_json(
        "BENCH_kernels.json",
        "f8_mediator_throughput",
        smoke,
        &[("cardinality", json_str("n/10"))],
        "results",
        &items,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut samples: Vec<Sample> = Vec::new();
    for &n in sizes {
        bench_group_by(n, &mut samples);
        bench_join(n, &mut samples);
        bench_distinct(n, &mut samples);
    }

    let mut report = Report::new(
        "F8: mediator kernel throughput (rows/sec; speedup vs the retained Vec<Value> reference)",
        &["kernel", "rows", "reference", "serial", "serial_x"],
    );
    for kernel in ["group-by", "hash-join", "distinct"] {
        for &n in sizes {
            let rref = rate(&samples, kernel, n, "reference");
            let rser = rate(&samples, kernel, n, "serial");
            report.row(&[
                &kernel,
                &n,
                &fmt_rate(rref),
                &fmt_rate(rser),
                &fmt_ratio(rser, rref),
            ]);
        }
    }
    report.note(
        "Acceptance: >=3x rows/sec over the reference on the 10^6-row group-by and hash-join \
         (asserted in full mode).",
    );
    report.note("Join rows = build + probe combined; joins run Inner on Int64 keys.");
    report.print();
    write_json(&samples, smoke);
    println!("wrote BENCH_kernels.json ({} samples)", samples.len());

    if !smoke {
        for kernel in ["group-by", "hash-join"] {
            let rref = rate(&samples, kernel, 1_000_000, "reference");
            let rser = rate(&samples, kernel, 1_000_000, "serial");
            assert!(
                rser >= 3.0 * rref,
                "{kernel} 10^6: vectorized {rser:.0} rows/s < 3x reference {rref:.0} rows/s"
            );
        }
        println!("acceptance: 10^6-row group-by and hash-join >= 3x reference ✓");
    }
}
