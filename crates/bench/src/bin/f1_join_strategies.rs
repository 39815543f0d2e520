//! F1 — distributed join strategy crossover.
//!
//! `customers ⋈ orders` with a selectivity dial on the customer side
//! (`c.id < k`). For each selectivity the three strategies run
//! forced; Auto's pick is shown alongside. Expected shape: key
//! shipping (semijoin/bind) wins at low selectivity, ship-whole wins
//! as the key set approaches the full table (keys + matches exceed
//! the relation itself).

use gis_bench::{fmt_bytes, Report};
use gis_core::{ExecOptions, JoinStrategy};
use gis_datagen::{build_fedmart, FedMartConfig};

/// Bytes, summed link time and critical path (both virtual ms).
fn run(fed: &gis_core::Federation, sql: &str, strategy: JoinStrategy) -> (u64, f64, f64) {
    fed.set_exec_options(ExecOptions {
        join_strategy: strategy,
        bind_batch_size: 256,
        ..ExecOptions::default()
    });
    let r = fed.query(sql).expect("query");
    (
        r.metrics.bytes_shipped,
        r.metrics.virtual_network_ms(),
        r.metrics.virtual_elapsed_ms(),
    )
}

fn main() {
    let fm = build_fedmart(FedMartConfig::default()).expect("build");
    let fed = &fm.federation;
    let customers = fm.sizes.customers as f64;
    let mut report = Report::new(
        "F1: join strategy crossover, customers(σ) ⋈ orders",
        &[
            "sel",
            "ship_bytes",
            "ship_ms",
            "ship_path_ms",
            "semi_bytes",
            "semi_ms",
            "bind_bytes",
            "bind_ms",
            "auto_pick",
        ],
    );
    for selectivity in [0.0001, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0] {
        let k = ((customers * selectivity).round() as i64).max(1);
        let sql = format!(
            "SELECT c.name, o.amount FROM customers c \
             JOIN orders o ON c.id = o.cust_id WHERE c.id < {k}"
        );
        let (ship_b, ship_ms, ship_path) = run(fed, &sql, JoinStrategy::ShipWhole);
        let (semi_b, semi_ms, _) = run(fed, &sql, JoinStrategy::SemiJoin);
        let (bind_b, bind_ms, _) = run(fed, &sql, JoinStrategy::BindJoin);
        // What does Auto pick?
        fed.set_exec_options(ExecOptions::default());
        let plan = fed.explain(&sql).expect("explain");
        let pick = if plan.contains("BindJoin[semijoin") {
            "semijoin"
        } else if plan.contains("BindJoin[bind-join") {
            "bind-join"
        } else {
            "ship-whole"
        };
        report.row(&[
            &format!("{selectivity:.4}"),
            &fmt_bytes(ship_b),
            &format!("{ship_ms:.0}"),
            &format!("{ship_path:.0}"),
            &fmt_bytes(semi_b),
            &format!("{semi_ms:.0}"),
            &fmt_bytes(bind_b),
            &format!("{bind_ms:.0}"),
            &pick,
        ]);
    }
    report.note("bind_batch_size=256; WAN 40 ms / 1 MB/s; FedMart sf=1, Zipf-skewed orders.");
    report.note("ship_path_ms: ship-whole's critical path — both sides fetch together, so it waits for the longer one. Key shipping waits for its outer keys first: its path is its summed time.");
    report.note("Expected shape: semi/bind ∝ selectivity, ship flat; crossover where key+match bytes ≈ table bytes.");
    report.print();
}
