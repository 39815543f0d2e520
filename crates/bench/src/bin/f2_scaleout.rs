//! F2 — scale-out across component sources.
//!
//! The same `orders` data horizontally partitioned over 1–16 columnar
//! sources; the query is a filtered aggregate over the UNION of the
//! partitions. Expected shape: total bytes ~constant (the data is the
//! data), per-source bytes ∝ 1/N, message count grows linearly (one
//! fragment per source) — the mediator's integration overhead is the
//! per-source fixed cost. The partitions are fetched together (each
//! union branch reads its own source), so the query waits about as
//! long as its busiest link. The binary asserts both shapes.

use gis_bench::{fmt_bytes, Report};
use gis_datagen::{build_fedmart, FedMartConfig};

/// Slack on both asserted shapes: max source bytes against total / N,
/// and elapsed virtual time against the busiest link's.
const SLACK: f64 = 1.10;

fn main() {
    let mut report = Report::new(
        "F2: scale-out, SELECT count(*), sum(amount) over partitioned orders (day filter)",
        &[
            "sources",
            "rows",
            "total_bytes",
            "max_source_bytes",
            "msgs",
            "seq_net_ms",
            "elapsed_ms",
            "busiest_ms",
            "wall_ms",
        ],
    );
    for parts in [1usize, 2, 4, 8, 16] {
        let fm = build_fedmart(FedMartConfig {
            sales_partitions: parts,
            ..FedMartConfig::default()
        })
        .expect("build");
        let fed = &fm.federation;
        let sql = format!(
            "SELECT count(*) AS n, sum(amount) AS total FROM {} \
             WHERE order_day >= DATE '2020-01-01'",
            fm.orders_from_clause()
        );
        let r = fed.query(&sql).expect("query");
        let max_source = r
            .metrics
            .per_source
            .values()
            .map(|t| t.bytes)
            .max()
            .unwrap_or(0);
        report.row(&[
            &parts,
            &r.batch.row_values(0)[0],
            &fmt_bytes(r.metrics.bytes_shipped),
            &fmt_bytes(max_source),
            &r.metrics.messages,
            &format!("{:.0}", r.metrics.virtual_network_ms()),
            &format!("{:.0}", r.metrics.virtual_elapsed_ms()),
            &format!("{:.0}", r.metrics.virtual_parallel_ms()),
            &format!("{:.1}", r.metrics.wall_us as f64 / 1e3),
        ]);
        let even_share = r.metrics.bytes_shipped as f64 / parts as f64;
        assert!(
            max_source as f64 <= even_share * SLACK,
            "{parts} sources: the busiest ships {max_source} B, more than 10% over total / N = {even_share:.0} B"
        );
        let busiest = r.metrics.virtual_parallel_us() as f64;
        assert!(
            r.metrics.virtual_elapsed_us as f64 <= busiest * SLACK,
            "{parts} sources: elapsed {} µs, more than 10% over the busiest link's {busiest:.0} µs",
            r.metrics.virtual_elapsed_us
        );
    }
    report.note("seq_net_ms = shared-clock sum (total work); elapsed_ms = the query's critical path (partitions fetched together); busiest_ms = the busiest link's time.");
    report.note("Expected shape: total_bytes flat, max_source_bytes and elapsed_ms ∝ 1/N (plus per-source fixed latency), msgs ∝ N.");
    report.print();
    println!("shape ok: max source bytes within 10% of total / N; elapsed within 10% of the busiest link");
}
