//! F9 — materialized views vs re-shipping a repeated workload.
//!
//! The FedMart analytic workload (three join/aggregate queries) runs
//! repeatedly, the way a dashboard polls a mediator. Phase A answers
//! every repetition from the sources; phase B creates one
//! materialized view per query and re-runs the same workload, so
//! repetitions are answered from mediator-resident rows and ship
//! nothing. The views total *includes* the initial materialization —
//! the comparison is end-to-end bytes for the whole workload, not
//! just the steady state.
//!
//! The second table forces a refresh of each view: refresh cost is
//! the view's own fragment (a few aggregate rows), not the workload,
//! which is why the ratio grows with repetition count.
//!
//! Emits `BENCH_views.json`. Full mode asserts the PR's acceptance
//! floor: >=5x total-byte reduction. `--smoke` runs 3 repetitions.

use gis_bench::{fmt_bytes, fmt_ratio, json_str, Report};
use gis_core::Federation;
use gis_datagen::{build_fedmart, FedMartConfig};

/// The repeated analytic workload: (view name, SQL). View definitions
/// are the exact query texts, so the optimized plans meet the matcher
/// as structurally equal.
const WORKLOAD: &[(&str, &str)] = &[
    (
        "rev_by_region",
        "SELECT c.region, count(*) AS orders, sum(o.amount) AS revenue \
         FROM customers c JOIN orders o ON c.id = o.cust_id \
         GROUP BY c.region ORDER BY revenue DESC",
    ),
    (
        "units_by_category",
        "SELECT p.category, sum(o.quantity) AS units \
         FROM products p JOIN orders o ON p.product_id = o.product_id \
         GROUP BY p.category ORDER BY p.category",
    ),
    (
        "customers_by_region",
        "SELECT region, count(*) AS n FROM customers GROUP BY region ORDER BY region",
    ),
];

/// Runs the whole workload once, returning bytes shipped.
fn run_workload(fed: &Federation) -> u64 {
    WORKLOAD
        .iter()
        .map(|(_, sql)| {
            fed.query(sql)
                .expect("workload query")
                .metrics
                .bytes_shipped
        })
        .sum()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 3 } else { 20 };

    // Phase A: every repetition re-ships from the sources.
    let fm = build_fedmart(FedMartConfig::tiny()).expect("fedmart");
    let baseline_per_rep = run_workload(&fm.federation);
    let baseline_total = baseline_per_rep * reps;

    // Phase B: a fresh, identical federation with one view per query.
    let fm = build_fedmart(FedMartConfig::tiny()).expect("fedmart");
    let fed = &fm.federation;
    let mut create_bytes = Vec::new();
    for (name, sql) in WORKLOAD {
        let r = fed
            .create_materialized_view(name, sql)
            .expect("create view");
        create_bytes.push(r.metrics.bytes_shipped);
    }
    let mut steady_total = 0u64;
    let mut hits = 0usize;
    for _ in 0..reps {
        for (name, sql) in WORKLOAD {
            let r = fed.query(sql).expect("workload query");
            if r.metrics.views_used.contains(&name.to_string()) {
                hits += 1;
            }
            steady_total += r.metrics.bytes_shipped;
        }
    }
    assert_eq!(
        hits,
        WORKLOAD.len() * reps as usize,
        "every repetition must be answered from its view"
    );
    let views_total: u64 = create_bytes.iter().sum::<u64>() + steady_total;

    let mut report = Report::new(
        format!("F9: materialized views vs re-shipping ({reps} repetitions, FedMart tiny)"),
        &["view", "create_bytes", "steady_bytes", "refresh_bytes"],
    );
    let mut refresh_bytes = Vec::new();
    for (i, (name, _)) in WORKLOAD.iter().enumerate() {
        // A forced refresh re-ships exactly the view's fragment.
        let r = fed.refresh_materialized_view(name).expect("refresh");
        refresh_bytes.push(r.metrics.bytes_shipped);
        report.row(&[
            name,
            &fmt_bytes(create_bytes[i]),
            &fmt_bytes(0u64),
            &fmt_bytes(r.metrics.bytes_shipped),
        ]);
    }
    report.note(format!(
        "workload total: sources {} vs views {} (create + {} zero-byte repetitions) = {} reduction",
        fmt_bytes(baseline_total),
        fmt_bytes(views_total),
        reps,
        fmt_ratio(baseline_total as f64, views_total as f64),
    ));
    report.note(
        "Refresh cost is the view's own fragment, independent of how often the workload repeats.",
    );
    report.print();

    let items: Vec<_> = WORKLOAD
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            vec![
                ("view", json_str(name)),
                ("create_bytes", create_bytes[i].to_string()),
                ("refresh_bytes", refresh_bytes[i].to_string()),
            ]
        })
        .collect();
    Report::write_json(
        "BENCH_views.json",
        "f9_materialized_views",
        smoke,
        &[
            ("repetitions", reps.to_string()),
            ("baseline_bytes", baseline_total.to_string()),
            ("views_bytes", views_total.to_string()),
            (
                "reduction",
                format!("{:.2}", baseline_total as f64 / views_total as f64),
            ),
        ],
        "views",
        &items,
    );
    println!("wrote BENCH_views.json ({} views)", WORKLOAD.len());

    if !smoke {
        let ratio = baseline_total as f64 / views_total as f64;
        assert!(
            ratio >= 5.0,
            "views must cut workload bytes >=5x; got {ratio:.2}x \
             ({baseline_total} vs {views_total})"
        );
    }
}
