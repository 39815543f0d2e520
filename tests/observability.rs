//! Observability end to end: EXPLAIN ANALYZE span stitching across
//! remote sources, the slow-query log, and the metrics exposition.

use gis::prelude::*;
use std::sync::Arc;

fn fedmart() -> FedMart {
    build_fedmart(FedMartConfig::tiny()).expect("fedmart")
}

/// The acceptance query: a join spanning all three FedMart sources
/// (customers on `crm`, orders on `sales`, products on `inventory`).
const THREE_SOURCE_JOIN: &str = "SELECT c.region, p.category, sum(o.amount) AS revenue \
     FROM customers c \
     JOIN orders o ON c.id = o.cust_id \
     JOIN products p ON o.product_id = p.product_id \
     GROUP BY c.region, p.category \
     ORDER BY revenue DESC";

#[test]
fn explain_analyze_stitches_remote_operator_spans() {
    let fm = fedmart();
    let r = fm
        .federation
        .query(&format!("EXPLAIN ANALYZE {THREE_SOURCE_JOIN}"))
        .unwrap();
    let text: String = r
        .batch
        .to_rows()
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    // Mediator operators, annotated.
    assert!(text.contains("HashAggregate"), "{text}");
    assert!(
        text.contains("HashJoin") || text.contains("BindJoin"),
        "{text}"
    );
    assert!(text.contains("rows="), "{text}");
    assert!(text.contains("time="), "{text}");
    // Every source's fragment appears, each with the operator span
    // the source itself reported over the wire, and the wire
    // exchange that carried it (with its byte count).
    for source in ["crm", "sales", "inventory"] {
        assert!(
            text.contains(&format!("recv[{source}]")),
            "missing recv[{source}]:\n{text}"
        );
    }
    assert!(text.contains("remote:scan["), "{text}");
    assert!(text.contains("bytes="), "{text}");
    // The executed-summary trailer survives from the classic form.
    assert!(text.contains("executed:"), "{text}");
}

#[test]
fn tracing_preserves_results_and_meters_its_own_traffic() {
    let fm = fedmart();
    let plain = fm.federation.query(THREE_SOURCE_JOIN).unwrap();
    assert!(plain.metrics.trace.is_none());

    let mut exec = fm.federation.exec_options();
    exec.tracing = true;
    fm.federation.set_exec_options(exec);
    let traced = fm.federation.query(THREE_SOURCE_JOIN).unwrap();

    assert_eq!(
        plain.batch.to_rows(),
        traced.batch.to_rows(),
        "tracing must not change results"
    );
    let trace = traced
        .metrics
        .trace
        .expect("traced run produces a span tree");
    assert!(trace.node_count() >= 5, "{}", trace.render());
    // Remote fragments reported rows; the recv spans carried bytes.
    assert!(trace.find("recv[crm]").is_some(), "{}", trace.render());
    assert!(trace.total_bytes() > 0, "{}", trace.render());
    // The span frames crossed the metered links: the traced run
    // ships strictly more bytes and messages than the plain one.
    assert!(traced.metrics.bytes_shipped > plain.metrics.bytes_shipped);
    assert!(traced.metrics.messages > plain.metrics.messages);
}

/// `tests/fetch_path_pinned.rs`'s first three statements, each with
/// the span tree a traced run renders — every label, row count and
/// nesting level, with wall times (and the kernel phase timings inside
/// `kernel[…]` labels) left out. Three kinds of label moved when the
/// joins learned to build only what their parent reads: a join under
/// a column-only `Project` names the columns it keeps (`out=[…]`),
/// that `Project` addresses them by their new positions, and the
/// two-string `GROUP BY` runs `kernel[fixed-dict]` (was `hashed`).
///
/// Since the planner prices the critical path, all three ship their
/// inner tables whole at this scale (fetched beside the outer side), so
/// their trees hold one `Fragment` per table. The first two trees from
/// before — a 4-key `Lookup` and a 100-key Bloom filter — stay pinned
/// with the semijoin forced, so the key-shipping spans keep their
/// literal too.
const TRACED_SHAPES: [(JoinStrategy, &str, &str); 5] = [
    (
        JoinStrategy::Auto,
        "SELECT c.name, o.order_id, o.amount FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE c.balance > 45000.00",
        r"Project: #0, #1, #2 rows_in=45 rows=45
  Project: #0, #1, #2 rows_in=45 rows=45
    HashJoin[INNER JOIN]: left[0] = right[1] out=[1, 2, 4] rows_in=1004 rows=45
      Fragment[crm] rows_in=4 rows=4
        recv[crm] rows_in=0 rows=4
          remote:scan[customers] rows_in=0 rows=4
          wire[codec=nullsup*2 raw=93 sent=84] rows_in=0 rows=0
      Fragment[sales] rows_in=1000 rows=1000
        recv[sales] rows_in=0 rows=1000
          remote:scan[orders] rows_in=0 rows=1000
          wire[codec=delta*2,nullsup*1 raw=24420 sent=9550] rows_in=0 rows=0
      kernel[fixed]: partitions=1 rows_in=0 rows=0
",
    ),
    (
        JoinStrategy::Auto,
        "SELECT c.region, count(*) AS n, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE o.order_day >= DATE '2019-07-20' \
         GROUP BY c.region",
        r"Project: #0, #1, #2 rows_in=8 rows=8
  HashAggregate: group=[#0] aggs=[count(*), sum(#1)] rows_in=933 rows=8
    Project: #0, #1 rows_in=933 rows=933
      HashJoin[INNER JOIN]: left[0] = right[0] out=[1, 3] rows_in=1033 rows=933
        Fragment[crm] rows_in=100 rows=100
          recv[crm] rows_in=0 rows=100
            remote:scan[customers] rows_in=0 rows=100
            wire[codec=dict*1,delta*1 raw=1195 sent=189] rows_in=0 rows=0
        Fragment[sales] rows_in=933 rows=933
          recv[sales] rows_in=0 rows=933
            remote:scan[orders] rows_in=0 rows=933
            wire[codec=delta*1,nullsup*1 raw=15192 sent=8548] rows_in=0 rows=0
        kernel[fixed]: partitions=1 rows_in=0 rows=0
    kernel[fixed]: partitions=1 rows_in=0 rows=0
",
    ),
    (
        JoinStrategy::Auto,
        "SELECT c.region, p.category, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id JOIN products p ON o.product_id = p.product_id \
         WHERE o.order_day >= DATE '2019-06-01' GROUP BY c.region, p.category",
        r"Project: #0, #1, #2 rows_in=48 rows=48
  HashAggregate: group=[#0, #2] aggs=[sum(#1)] rows_in=967 rows=48
    Project: #0, #1, #2 rows_in=967 rows=967
      HashJoin[INNER JOIN]: left[3] = right[0] out=[1, 4, 6] rows_in=987 rows=967
        HashJoin[INNER JOIN]: left[0] = right[0] rows_in=1067 rows=967
          Fragment[crm] rows_in=100 rows=100
            recv[crm] rows_in=0 rows=100
              remote:scan[customers] rows_in=0 rows=100
              wire[codec=dict*1,delta*1 raw=1195 sent=189] rows_in=0 rows=0
          Fragment[sales] rows_in=967 rows=967
            recv[sales] rows_in=0 rows=967
              remote:scan[orders] rows_in=0 rows=967
              wire[codec=delta*2,nullsup*1 raw=23618 sent=9603] rows_in=0 rows=0
          kernel[fixed]: partitions=1 rows_in=0 rows=0
        Fragment[inventory] rows_in=20 rows=20
          recv[inventory] rows_in=0 rows=20
            remote:scan[products] rows_in=0 rows=20
            wire[codec=dict*1,delta*2,nullsup*1 raw=777 sent=425] rows_in=0 rows=0
        kernel[fixed]: partitions=1 rows_in=0 rows=0
    kernel[fixed-dict]: partitions=1 rows_in=0 rows=0
",
    ),
    (
        JoinStrategy::SemiJoin,
        "SELECT c.name, o.order_id, o.amount FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE c.balance > 45000.00",
        r"Project: #0, #1, #2 rows_in=45 rows=45
  Project: #0, #1, #2 rows_in=45 rows=45
    BindJoin[semijoin→sales INNER JOIN] out=[1, 2, 4] rows_in=49 rows=45
      Fragment[crm] rows_in=4 rows=4
        recv[crm] rows_in=0 rows=4
          remote:scan[customers] rows_in=0 rows=4
          wire[codec=nullsup*2 raw=93 sent=84] rows_in=0 rows=0
      keyship[mode=keys n=4] rows_in=0 rows=0
      recv[sales] rows_in=0 rows=45
        remote:lookup[orders keys=4] rows_in=0 rows=45
        wire[codec=rle*1,delta*1,nullsup*1 raw=1139 sent=490] rows_in=0 rows=0
      kernel[fixed]: partitions=1 rows_in=0 rows=0
",
    ),
    (
        JoinStrategy::SemiJoin,
        "SELECT c.region, count(*) AS n, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE o.order_day >= DATE '2019-07-20' \
         GROUP BY c.region",
        r"Project: #0, #1, #2 rows_in=8 rows=8
  HashAggregate: group=[#0] aggs=[count(*), sum(#1)] rows_in=933 rows=8
    Project: #0, #1 rows_in=933 rows=933
      BindJoin[semijoin→sales INNER JOIN] out=[1, 3] rows_in=1100 rows=933
        Fragment[crm] rows_in=100 rows=100
          recv[crm] rows_in=0 rows=100
            remote:scan[customers] rows_in=0 rows=100
            wire[codec=dict*1,delta*1 raw=1195 sent=189] rows_in=0 rows=0
        keyship[mode=bloom n=100 filter=120B keys=336B] rows_in=0 rows=0
        recv[sales] rows_in=0 rows=1000
          remote:filter[orders bloom=120B] rows_in=0 rows=1000
          wire[codec=delta*2,nullsup*1 raw=20421 sent=10553] rows_in=0 rows=0
        kernel[fixed]: partitions=1 rows_in=0 rows=0
    kernel[fixed]: partitions=1 rows_in=0 rows=0
",
    ),
];

/// One line per span: label (cut before the kernel phase timings),
/// rows in and rows out.
fn span_shape(span: &Span, depth: usize, out: &mut String) {
    let label = span.label.split(" build=").next().unwrap_or_default();
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "{label} rows_in={} rows={}\n",
        span.rows_in, span.rows_out
    ));
    for child in &span.children {
        span_shape(child, depth + 1, out);
    }
}

/// The wire size of every source-reported span below `span`: each
/// `recv[…]` exchange carried its `remote:` child back as one frame.
fn span_frames(span: &Span, frames: &mut Vec<u64>) {
    if span.label.starts_with("recv[") {
        let reported = &span.children[0];
        assert!(reported.label.starts_with("remote:"), "{}", span.render());
        frames.push(gis::net::wire::encode_span(reported).len() as u64);
    }
    for child in &span.children {
        span_frames(child, frames);
    }
}

/// There is one fetch path, and tracing is a flag on it, not a fork:
/// a traced run returns the untraced run's rows, puts exactly one more
/// frame on the wire per exchange — the span the source reported —
/// and stitches the same tree, label for label, as before the
/// wrappers' traced and untraced variants were merged.
#[test]
fn tracing_costs_exactly_the_span_frames_and_keeps_the_tree() {
    let fed = fedmart().federation;
    for (join_strategy, sql, shape) in TRACED_SHAPES {
        let mut ctx = fed.ctx();
        ctx.exec.join_strategy = join_strategy;
        let plain = fed.run(sql, &ctx).unwrap();
        ctx.exec.tracing = true;
        let traced = fed.run(sql, &ctx).unwrap();
        assert_eq!(plain.batch.to_rows(), traced.batch.to_rows(), "{sql}");

        let trace = traced.metrics.trace.as_ref().expect("traced run");
        let mut frames = Vec::new();
        span_frames(trace, &mut frames);
        assert_eq!(
            traced.metrics.messages - plain.metrics.messages,
            frames.len() as u64,
            "{sql}"
        );
        assert_eq!(
            traced.metrics.bytes_wire - plain.metrics.bytes_wire,
            frames.iter().sum::<u64>(),
            "{sql}"
        );
        assert_eq!(trace.total_bytes(), traced.metrics.bytes_wire, "{sql}");

        let mut got = String::new();
        span_shape(trace, 0, &mut got);
        assert_eq!(got, shape, "{sql}");
    }
}

#[test]
fn slow_query_log_captures_plan_and_spans() {
    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default()
            .with_workers(2)
            .with_slow_query_us(Some(0)) // every query is "slow"
            .with_slow_log_capacity(4),
    );
    let mut session = runtime.session();
    // Cache hits return in microseconds with no trace; disable them
    // so every run executes (and traces) for real.
    session.set_caching(false);
    for _ in 0..6 {
        session.query(THREE_SOURCE_JOIN).unwrap();
    }
    let entries = runtime.slow_queries();
    assert_eq!(entries.len(), 4, "ring buffer caps residency");
    assert_eq!(runtime.stats().slow_queries, 6, "but counts every offender");
    let last = entries.last().unwrap();
    assert_eq!(last.sql, THREE_SOURCE_JOIN);
    let trace = last.trace.as_ref().expect("slow entries carry span trees");
    assert!(trace.find("recv[sales]").is_some(), "{}", trace.render());
    let rendered = last.render();
    assert!(rendered.contains("slow query id="), "{rendered}");
    assert!(rendered.contains("rows="), "{rendered}");
    runtime.shutdown();
}

#[test]
fn result_cache_serves_traced_queries_without_rerunning() {
    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default()
            .with_workers(1)
            .with_slow_query_us(Some(u64::MAX)), // tracing on, log empty
    );
    let session = runtime.session();
    session.query(THREE_SOURCE_JOIN).unwrap();
    let second = session.query(THREE_SOURCE_JOIN).unwrap();
    assert!(second.metrics.result_cache_hit);
    assert_eq!(runtime.stats().slow_queries, 0);
    runtime.shutdown();
}

#[test]
fn render_text_exposes_runtime_cache_and_link_counters() {
    let fm = fedmart();
    let runtime = Runtime::new(Arc::new(fm.federation), RuntimeConfig::default());
    let session = runtime.session();
    session.query(THREE_SOURCE_JOIN).unwrap();
    session.query(THREE_SOURCE_JOIN).unwrap();
    let text = runtime.render_text();
    assert!(text.contains("# TYPE gis_queries_total counter"), "{text}");
    assert!(
        text.contains("gis_queries_total{state=\"completed\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("gis_result_cache_total{event=\"hit\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("gis_result_cache_total{event=\"collision\"} 0"),
        "{text}"
    );
    // Per-link counters for each registered source, with real traffic.
    for source in ["crm", "sales", "inventory"] {
        let needle = format!("gis_link_bytes_total{{source=\"{source}\"}}");
        let line = text
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("missing {needle} in:\n{text}"));
        let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value > 0, "{line}");
    }
    assert!(
        text.contains("gis_source_data_version{source=\"crm\"}"),
        "{text}"
    );
    // Wire-compression counters: raw strictly exceeds compressed on
    // FedMart's regular data, and at least one non-raw codec fired.
    let series = |needle: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(needle))
            .unwrap_or_else(|| panic!("missing {needle} in:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let raw = series("gis_wire_bytes{kind=\"raw\"}");
    let compressed = series("gis_wire_bytes{kind=\"compressed\"}");
    assert!(raw > compressed, "raw={raw} compressed={compressed}");
    assert!(series("gis_wire_frames_total") > 0);
    let non_raw: u64 = ["dict", "rle", "delta", "nullsup"]
        .iter()
        .map(|c| series(&format!("gis_wire_columns_total{{codec=\"{c}\"}}")))
        .sum();
    assert!(non_raw > 0, "no adaptive codec selected:\n{text}");
    runtime.shutdown();
}

#[test]
fn render_text_exposes_resilience_counters_per_replica() {
    let fm = fedmart();
    let fed = Arc::new(fm.federation);
    let replica = fed
        .add_source_replica("crm", gis::net::NetworkConditions::wan())
        .unwrap();
    fed.configure_breaker(gis::net::BreakerConfig {
        failure_threshold: 3,
        cooldown_us: 60_000_000,
    });
    // Transient loss on the replica that routing prefers (the replica
    // shares the primary's WAN conditions; the primary wins the
    // registration-order tiebreak) — retries absorb it.
    fed.link("crm").unwrap().faults().fail_next(2);
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let mut session = runtime.session();
    // Cache hits would skip the network entirely; every query here
    // must actually exercise the faulted links.
    session.set_caching(false);
    session.query("SELECT count(*) FROM customers").unwrap();
    // Now partition the primary and trip its breaker; the replica
    // picks the query up.
    fed.link("crm").unwrap().faults().partition();
    session.query("SELECT count(*) FROM customers").unwrap();

    let text = runtime.render_text();
    // Retry attempts surfaced per link.
    assert!(
        text.contains("# TYPE gis_link_retries_total counter"),
        "{text}"
    );
    let retries_line = text
        .lines()
        .find(|l| l.starts_with("gis_link_retries_total{source=\"crm\"}"))
        .unwrap_or_else(|| panic!("missing crm retries in:\n{text}"));
    let retries: u64 = retries_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(retries >= 2, "{retries_line}");
    // Breaker state gauge: the partitioned primary is open (2), the
    // healthy replica closed (0).
    assert!(
        text.contains("gis_link_breaker_state{source=\"crm\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("gis_link_breaker_state{source=\"crm@r1\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("gis_link_breaker_opens_total{source=\"crm\"} 1"),
        "{text}"
    );
    // Every replica link reports its own traffic series.
    assert!(
        text.contains("gis_link_bytes_total{source=\"crm@r1\"}"),
        "{text}"
    );
    // The replica actually served the partitioned-primary query.
    assert!(replica.metrics().messages() > 0);

    // Take the replica down as well: the next query exhausts it, then
    // hits the primary's open breaker — which fails fast without
    // touching the wire, and the counter proves it.
    replica.faults().partition();
    let err = session.query("SELECT count(*) FROM customers").unwrap_err();
    assert_eq!(err.code(), "UNAVAILABLE");
    let text = runtime.render_text();
    let ff_line = text
        .lines()
        .find(|l| l.starts_with("gis_link_fast_failures_total{source=\"crm\"}"))
        .unwrap_or_else(|| panic!("missing fast failures in:\n{text}"));
    let fast: u64 = ff_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(fast >= 1, "{ff_line}");
    runtime.shutdown();
}
