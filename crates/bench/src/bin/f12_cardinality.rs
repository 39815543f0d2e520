//! F12 — sketch-based statistics vs System-R magic constants.
//!
//! Two identical FedMart federations answer the same join/filter
//! workload. The *baseline* has its catalog statistics cleared, so
//! every selectivity comes from the cost model's last-resort magic
//! constants (eq 0.1, range 0.3, table rows 1000). The *analyzed*
//! federation ran `ANALYZE` first: per-column HyperLogLog NDV
//! sketches, equi-depth histograms and MCV lists collected over the
//! priced wire. Per query we assert the rows are bit-identical and
//! read the q-error (max(est/actual, actual/est)) the federation's
//! own feedback ring recorded for the run.
//!
//! Emits `BENCH_stats.json`. Full mode asserts the PR's acceptance
//! floor: median q-error improves >=5x with statistics, and at least
//! one query's plan gets measurably cheaper (strictly fewer wire
//! bytes). `--smoke` runs the tiny federation and skips the floors.

use gis_bench::{fmt_bytes, fmt_ratio, json_str, Report};
use gis_core::Federation;
use gis_datagen::{build_fedmart, FedMartConfig};
use gis_types::Value;

/// Join/filter queries whose cardinality the magic constants get
/// wrong: FedMart's orders table is 10x the default row guess, its
/// products table 5x smaller, and the filters have selectivities far
/// from 0.1/0.3.
const WORKLOAD: &[(&str, &str)] = &[
    (
        "region_eq",
        "SELECT id, name FROM customers WHERE region = 'east'",
    ),
    (
        "qty_range",
        "SELECT order_id, amount FROM orders WHERE quantity >= 16",
    ),
    (
        "amount_band",
        "SELECT order_id FROM orders WHERE amount >= 100.0 AND amount < 400.0",
    ),
    (
        "category_eq",
        "SELECT product_id, pname FROM products WHERE category = 'toys'",
    ),
    (
        "name_prefix",
        "SELECT id FROM customers WHERE name LIKE 'cust-1%'",
    ),
    (
        "toys_orders",
        "SELECT o.order_id, p.pname FROM orders o \
         JOIN products p ON o.product_id = p.product_id \
         WHERE p.category = 'toys'",
    ),
    (
        "stock_join",
        "SELECT p.pname, s.qty FROM products p \
         JOIN stock s ON p.product_id = s.product_id \
         WHERE p.category = 'garden' AND s.qty < 50",
    ),
    (
        "east_toys",
        "SELECT o.order_id FROM customers c \
         JOIN orders o ON c.id = o.cust_id \
         JOIN products p ON o.product_id = p.product_id \
         WHERE c.region = 'east' AND p.category = 'toys'",
    ),
];

fn build(smoke: bool) -> Federation {
    let cfg = if smoke {
        FedMartConfig::tiny()
    } else {
        FedMartConfig::default()
    };
    build_fedmart(cfg).expect("build fedmart").federation
}

// A multiset compare: statistics legitimately change plans, and an
// unordered query's row order with them — the *rows* must not move.
fn canon(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    rows.sort();
    rows.into_iter().map(|r| format!("{r:?}")).collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if v.is_empty() {
        return 1.0;
    }
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // The baseline federation plans from magic constants only:
    // registration-time statistics are wiped from the catalog.
    let baseline = build(smoke);
    baseline.catalog().clear_stats();
    // The analyzed federation collects sketches over the priced wire
    // before the workload runs.
    let analyzed = build(smoke);
    analyzed.catalog().clear_stats();
    let analyze_result = analyzed.query("ANALYZE").expect("ANALYZE");
    let analyze_bytes = analyzed.stats_gauges().analyze_bytes;

    let mut report = Report::new(
        format!(
            "F12: cardinality estimation with ANALYZE sketches vs magic constants (FedMart {})",
            if smoke { "tiny" } else { "default" }
        ),
        &[
            "query",
            "actual",
            "magic_est",
            "magic_q",
            "stats_est",
            "stats_q",
            "magic_bytes",
            "stats_bytes",
        ],
    );
    let mut rows_json = Vec::new();
    let mut magic_qs = Vec::new();
    let mut stats_qs = Vec::new();
    let mut cheaper_plans = 0usize;
    for (name, sql) in WORKLOAD {
        let b = baseline.query(sql).expect("baseline query");
        let a = analyzed.query(sql).expect("analyzed query");
        assert_eq!(
            canon(b.batch.to_rows()),
            canon(a.batch.to_rows()),
            "statistics changed results for {name}"
        );
        let bq = baseline
            .feedback()
            .ring()
            .last()
            .cloned()
            .expect("baseline feedback sample");
        let aq = analyzed
            .feedback()
            .ring()
            .last()
            .cloned()
            .expect("analyzed feedback sample");
        magic_qs.push(bq.q_error);
        stats_qs.push(aq.q_error);
        if a.metrics.bytes_shipped < b.metrics.bytes_shipped {
            cheaper_plans += 1;
        }
        report.row(&[
            name,
            &bq.actual_rows,
            &format!("{:.0}", bq.est_rows),
            &format!("{:.2}", bq.q_error),
            &format!("{:.0}", aq.est_rows),
            &format!("{:.2}", aq.q_error),
            &fmt_bytes(b.metrics.bytes_shipped),
            &fmt_bytes(a.metrics.bytes_shipped),
        ]);
        rows_json.push(vec![
            ("query", json_str(name)),
            ("actual", bq.actual_rows.to_string()),
            ("magic_est", format!("{:.1}", bq.est_rows)),
            ("magic_q", format!("{:.3}", bq.q_error)),
            ("stats_est", format!("{:.1}", aq.est_rows)),
            ("stats_q", format!("{:.3}", aq.q_error)),
            ("magic_bytes", b.metrics.bytes_shipped.to_string()),
            ("stats_bytes", a.metrics.bytes_shipped.to_string()),
        ]);
    }
    let magic_median = median(magic_qs.clone());
    let stats_median = median(stats_qs.clone());
    let improvement = magic_median / stats_median;
    report.note(format!(
        "median q-error: magic constants {:.2} vs analyzed {:.2} = {} improvement",
        magic_median,
        stats_median,
        fmt_ratio(magic_median, stats_median),
    ));
    report.note(format!(
        "{} of {} queries picked a strictly cheaper plan (fewer wire bytes) with statistics",
        cheaper_plans,
        WORKLOAD.len(),
    ));
    report.note(format!(
        "ANALYZE cost: {} over the priced wire ({})",
        fmt_bytes(analyze_bytes),
        analyze_result.batch.row_values(0)[0],
    ));
    report
        .note("Rows are asserted bit-identical per query: statistics change plans, never answers.");
    report.print();

    Report::write_json(
        "BENCH_stats.json",
        "f12_cardinality",
        smoke,
        &[
            ("magic_median_q", format!("{magic_median:.3}")),
            ("stats_median_q", format!("{stats_median:.3}")),
            ("improvement", format!("{improvement:.2}")),
            ("cheaper_plans", cheaper_plans.to_string()),
            ("analyze_wire_bytes", analyze_bytes.to_string()),
        ],
        "queries",
        &rows_json,
    );
    println!("wrote BENCH_stats.json ({} queries)", WORKLOAD.len());

    assert!(
        analyze_bytes > 0,
        "ANALYZE traffic must be metered on the priced wire"
    );
    if !smoke {
        assert!(
            improvement >= 5.0,
            "ANALYZE statistics must cut median q-error >=5x; got {improvement:.2}x \
             ({magic_median:.2} vs {stats_median:.2})"
        );
        assert!(
            cheaper_plans >= 1,
            "at least one plan must get strictly cheaper (fewer wire bytes) with statistics"
        );
    }
}
