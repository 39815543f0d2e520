//! F11 — the compressed wire protocol vs raw legacy frames.
//!
//! The FedMart fragment-shipping workload (full-table scans plus the
//! three-source revenue rollup) runs twice over identical
//! federations: once with adaptive per-column codecs on (the
//! default), once with `set_wire_compression(false)` so every frame
//! ships in the legacy raw layout. Per query we assert the rows are
//! bit-identical and report shipped bytes plus the metered network
//! time on both sides — on a WAN priced `latency + bytes/bandwidth`,
//! every byte the codecs remove is virtual wall clock returned.
//!
//! The second table breaks the compressed run down by codec: how many
//! shipped columns picked dict/RLE/delta/null-suppression, scraped
//! from the federation's `WireStats` accumulator.
//!
//! Emits `BENCH_wire.json`. Full mode asserts the PR's acceptance
//! floor: >=3x total byte reduction on the workload. `--smoke` runs
//! the tiny federation and skips the floor assert.

use gis_bench::{fmt_bytes, fmt_ratio, json_members, json_str, Report};
use gis_core::Federation;
use gis_datagen::{build_fedmart, FedMartConfig};
use gis_net::ColumnCodec;
use gis_types::Value;

/// The fragment-shipping workload: every FedMart source ships whole
/// fragments (scans) and the rollup exercises multi-source joins.
const WORKLOAD: &[(&str, &str)] = &[
    ("customers_scan", "SELECT * FROM customers ORDER BY id"),
    ("orders_scan", "SELECT * FROM orders ORDER BY order_id"),
    (
        "products_scan",
        "SELECT * FROM products ORDER BY product_id",
    ),
    (
        "stock_scan",
        "SELECT * FROM stock ORDER BY product_id, warehouse",
    ),
    (
        "revenue_rollup",
        "SELECT c.region, p.category, sum(o.amount) AS revenue \
         FROM customers c \
         JOIN orders o ON c.id = o.cust_id \
         JOIN products p ON o.product_id = p.product_id \
         GROUP BY c.region, p.category ORDER BY revenue DESC",
    ),
    (
        "region_counts",
        "SELECT region, count(*) AS n FROM customers GROUP BY region ORDER BY region",
    ),
    (
        "order_keys",
        "SELECT order_id, cust_id, product_id, quantity FROM orders ORDER BY order_id",
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

fn canon(rows: Vec<Vec<Value>>) -> Vec<String> {
    rows.into_iter().map(|r| format!("{r:?}")).collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Identical federations (same deterministic seed); one ships raw.
    let compressed = build(smoke);
    let raw = build(smoke);
    raw.set_wire_compression(false);

    let mut report = Report::new(
        format!(
            "F11: adaptive wire codecs vs raw frames (FedMart {})",
            if smoke { "tiny" } else { "default" }
        ),
        &[
            "query",
            "raw_bytes",
            "wire_bytes",
            "reduction",
            "raw_net_ms",
            "comp_net_ms",
            "net_speedup",
        ],
    );
    let mut rows_json = Vec::new();
    let mut total_raw = 0u64;
    let mut total_wire = 0u64;
    for (name, sql) in WORKLOAD {
        let c = compressed.query(sql).expect("compressed query");
        let r = raw.query(sql).expect("raw query");
        assert_eq!(
            canon(c.batch.to_rows()),
            canon(r.batch.to_rows()),
            "compression changed results for {name}"
        );
        total_raw += r.metrics.bytes_shipped;
        total_wire += c.metrics.bytes_shipped;
        report.row(&[
            name,
            &fmt_bytes(r.metrics.bytes_shipped),
            &fmt_bytes(c.metrics.bytes_shipped),
            &fmt_ratio(
                r.metrics.bytes_shipped as f64,
                c.metrics.bytes_shipped as f64,
            ),
            &format!("{:.1}", r.metrics.virtual_network_us as f64 / 1e3),
            &format!("{:.1}", c.metrics.virtual_network_us as f64 / 1e3),
            &fmt_ratio(
                r.metrics.virtual_network_us as f64,
                c.metrics.virtual_network_us as f64,
            ),
        ]);
        rows_json.push(vec![
            ("query", json_str(name)),
            ("raw_bytes", r.metrics.bytes_shipped.to_string()),
            ("wire_bytes", c.metrics.bytes_shipped.to_string()),
            ("raw_net_us", r.metrics.virtual_network_us.to_string()),
            ("comp_net_us", c.metrics.virtual_network_us.to_string()),
        ]);
    }
    let ratio = total_raw as f64 / total_wire as f64;
    report.note(format!(
        "workload total: raw {} vs compressed {} = {} reduction (rows bit-identical per query, asserted)",
        fmt_bytes(total_raw),
        fmt_bytes(total_wire),
        fmt_ratio(total_raw as f64, total_wire as f64),
    ));
    report.note(
        "Network time is the metered WAN clock (latency + bytes/bandwidth): \
         bytes removed convert directly into virtual wall clock.",
    );
    report.print();

    // Codec census for the compressed run, from the federation-wide
    // accumulator every remote exchange feeds.
    let ws = compressed.wire_stats();
    let mut census = Report::new(
        "F11b: codec census (compressed run, all shipped columns)",
        &["codec", "columns"],
    );
    for codec in ColumnCodec::all() {
        census.row(&[&codec.name(), &ws.columns(codec)]);
    }
    census.note(format!(
        "{} frames; accumulator raw {} vs wire {}",
        ws.frames(),
        fmt_bytes(ws.raw_bytes()),
        fmt_bytes(ws.wire_bytes()),
    ));
    census.print();
    assert!(
        ColumnCodec::all()
            .into_iter()
            .any(|c| c != ColumnCodec::Raw && ws.columns(c) > 0),
        "no adaptive codec fired on the workload"
    );

    let codecs: Vec<_> = ColumnCodec::all()
        .into_iter()
        .map(|c| (c.name(), ws.columns(c).to_string()))
        .collect();
    Report::write_json(
        "BENCH_wire.json",
        "f11_wire_compression",
        smoke,
        &[
            ("raw_bytes", total_raw.to_string()),
            ("wire_bytes", total_wire.to_string()),
            ("reduction", format!("{ratio:.2}")),
            ("codec_columns", format!("{{{}}}", json_members(&codecs))),
        ],
        "queries",
        &rows_json,
    );
    println!("wrote BENCH_wire.json ({} queries)", WORKLOAD.len());

    if !smoke {
        assert!(
            ratio >= 3.0,
            "adaptive codecs must cut workload bytes >=3x; got {ratio:.2}x \
             ({total_raw} vs {total_wire})"
        );
    }
}
