//! F10 — the memory governor under pressure (sf=1).
//!
//! Three claims, three tables:
//!
//! 1. **Spilling preserves answers.** The hash-heavy workload run
//!    ungoverned vs under a budget that forces every hash kernel
//!    through the grace-hash disk path: rows are bit-identical, the
//!    cost is wall time and spill I/O (both reported).
//! 2. **Runaway queries die; the runtime survives.** A storm of
//!    concurrent clients mixing well-behaved point/aggregate queries
//!    with memory-hungry multi-join group-bys, under a per-query
//!    hard limit with spilling disabled. Every runaway is killed
//!    with `MEM`; every well-behaved query completes; nothing
//!    deadlocks and the pool drains back to zero.
//! 3. **The governor is observable.** The run ends by printing the
//!    `gis_mem_*` / `gis_spill_*` gauge lines scraped from
//!    `Runtime::render_text()`.
//!
//! `--smoke` shrinks the federation and the storm for CI.

use gis_bench::{fmt_bytes, Report};
use gis_core::{ExecOptions, Federation};
use gis_datagen::{build_fedmart, FedMartConfig};
use gis_observe::Span;
use gis_runtime::{Runtime, RuntimeConfig};
use gis_types::Value;
use std::sync::Arc;
use std::time::Instant;

/// Hash-heavy: three-source join, group-by, order-by — every
/// governed kernel (join build, group table, sort buffer) fires.
const RUNAWAY_SQL: &str = "SELECT c.region, p.category, sum(o.amount) AS revenue \
     FROM customers c \
     JOIN orders o ON c.id = o.cust_id \
     JOIN products p ON o.product_id = p.product_id \
     GROUP BY c.region, p.category ORDER BY revenue DESC";

fn well_behaved() -> Vec<String> {
    vec![
        "SELECT name, region FROM customers WHERE id = 7".into(),
        "SELECT count(*) FROM orders".into(),
        "SELECT count(*) FROM products WHERE price > 100".into(),
    ]
}

fn build(smoke: bool) -> Arc<Federation> {
    let cfg = if smoke {
        FedMartConfig::tiny()
    } else {
        FedMartConfig::default()
    };
    Arc::new(build_fedmart(cfg).expect("build fedmart").federation)
}

fn canon(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// The operators of a span tree whose kernel spilled (those with a
/// `spill[kernel]` annotation), by operator name, in plan order.
fn spilled_kernels(span: &Span, out: &mut Vec<&'static str>) {
    if span
        .children
        .iter()
        .any(|c| c.label.starts_with("spill[kernel]"))
    {
        out.push(match span.label.split([':', '[']).next().unwrap_or("") {
            "Sort" => "order-by sort",
            "HashAggregate" => "group-by",
            "Distinct" => "distinct",
            _ => "join",
        });
    }
    for child in &span.children {
        spilled_kernels(child, out);
    }
}

/// F10a: the same workload with and without forced spilling. Returns
/// the kernels that spilled in the spill-everything run.
fn spill_fidelity(report: &mut Report, smoke: bool) -> Vec<&'static str> {
    let mut unbounded_digest: Option<Vec<String>> = None;
    let mut spilled = Vec::new();
    for (label, limit) in [("unbounded", u64::MAX), ("spill-everything", 1u64)] {
        let fed = build(smoke);
        let runtime = Runtime::new(
            fed,
            RuntimeConfig::default()
                .with_workers(2)
                .with_result_cache_bytes(0) // every run must execute
                .with_query_mem_limit(limit),
        );
        let session = runtime.session();
        let started = Instant::now();
        let mut digest = Vec::new();
        let rounds = if smoke { 2 } else { 5 };
        for _ in 0..rounds {
            let r = session.query(RUNAWAY_SQL).expect("governed query");
            digest = canon(r.batch.to_rows());
        }
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let stats = runtime.stats();
        match &unbounded_digest {
            None => unbounded_digest = Some(digest.clone()),
            Some(reference) => {
                assert_eq!(
                    reference, &digest,
                    "spilled rows diverged from unbounded rows"
                );
                assert!(stats.spill_events > 0, "1-byte budget must force spilling");
                let mut traced = runtime.session();
                traced.set_exec_options(ExecOptions {
                    tracing: true,
                    ..traced.exec_options()
                });
                let r = traced.query(RUNAWAY_SQL).expect("traced governed query");
                spilled_kernels(
                    r.metrics.trace.as_ref().expect("tracing is on"),
                    &mut spilled,
                );
            }
        }
        report.row(&[
            &label,
            &rounds,
            &format!("{elapsed_ms:.1}"),
            &stats.spill_events,
            &fmt_bytes(stats.spilled_bytes),
            &digest.len(),
        ]);
    }
    spilled
}

/// F10b: the storm. Returns the governed runtime's exposition so the
/// caller can print the governor gauges (claim 3).
fn runaway_storm(report: &mut Report, smoke: bool) -> String {
    let clients = if smoke { 4 } else { 8 };
    let rounds = if smoke { 2 } else { 4 };
    let fed = build(smoke);
    let runtime = Runtime::new(
        fed,
        RuntimeConfig::default()
            .with_workers(4)
            .with_queue_depth(4096)
            .with_query_mem_limit(64 * 1024) // runaways blow this
            .with_spill_cap(0) // no mercy: excess is fatal
            // Caches off so the drained pool reads exactly zero —
            // resident cache entries hold pool bytes by design.
            .with_plan_cache_capacity(0)
            .with_result_cache_bytes(0),
    );
    let benign = well_behaved();
    let started = Instant::now();
    let mut ok = 0u64;
    let mut killed = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let runtime = &runtime;
            let benign = &benign;
            handles.push(scope.spawn(move || {
                let mut session = runtime.session();
                session.set_result_cache(false);
                let mut ok = 0u64;
                let mut killed = 0u64;
                for _ in 0..rounds {
                    if c % 2 == 0 {
                        // Runaway client: must die with MEM, nothing else.
                        let err = session.query(RUNAWAY_SQL).expect_err("runaway survived");
                        assert_eq!(err.code(), "MEM", "unexpected: {err}");
                        killed += 1;
                    } else {
                        for sql in benign {
                            session.query(sql).expect("well-behaved query");
                            ok += 1;
                        }
                    }
                }
                (ok, killed)
            }));
        }
        for h in handles {
            let (o, k) = h.join().unwrap();
            ok += o;
            killed += k;
        }
    });
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = runtime.stats();
    assert_eq!(stats.mem_killed, killed, "every kill is counted");
    assert_eq!(stats.failed, 0, "no error besides MEM");
    assert_eq!(stats.mem_pool_used, 0, "pool drains after the storm");
    report.row(&[
        &clients,
        &(ok + killed),
        &ok,
        &killed,
        &stats.mem_killed,
        &format!("{elapsed_ms:.0}"),
    ]);
    runtime.render_text()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let mut a = Report::new(
        "F10a: hash-heavy 3-way join+group+order, unbounded vs 1-byte budget (grace-hash spill)",
        &[
            "config",
            "rounds",
            "elapsed_ms",
            "spill_events",
            "spill_bytes",
            "rows",
        ],
    );
    let spilled = spill_fidelity(&mut a, smoke);
    assert!(
        spilled.contains(&"order-by sort"),
        "the ORDER BY sort must spill under a 1-byte budget: {spilled:?}"
    );
    a.note("Row digests are bit-identical across configs (asserted per run); spilling trades wall time for bounded memory.");
    a.note(format!(
        "Kernels that spilled under spill-everything, in plan order: {}.",
        spilled.join(", ")
    ));
    a.print();

    let mut b = Report::new(
        "F10b: runaway storm, per-query limit 64KB / spill off — kills vs completions",
        &[
            "clients",
            "queries",
            "completed",
            "runaways_killed",
            "stat_mem_killed",
            "elapsed_ms",
        ],
    );
    let expo = runaway_storm(&mut b, smoke);
    b.note("Every runaway dies with MEM; every well-behaved query completes; the pool is fully reclaimed.");
    b.print();

    println!("## F10c: governor gauges scraped from render_text()\n");
    for line in expo
        .lines()
        .filter(|l| l.contains("gis_mem_") || l.contains("gis_spill_") || l.contains("mem_killed"))
    {
        println!("{line}");
    }
}
