//! Differential tests for federated materialized views: every query a
//! view answers must return *bit-identical* rows to the same query
//! answered from the sources, across the staleness edges (pre-refresh,
//! post-write, mid-refresh) and under partial results. The source path
//! is obtained by re-running the same SQL with
//! [`ExecOptions::view_matching`] off — same plan, same federation,
//! only the rewrite disabled.

use gis::prelude::*;
use std::sync::Arc;

/// A two-source federation: `crm.customers` (20 rows) and
/// `mkt.orders` (60 rows, 3 per customer), joinable on id.
fn fed_with_adapters() -> (
    Arc<Federation>,
    Arc<RelationalAdapter>,
    Arc<RelationalAdapter>,
) {
    let fed = Federation::new();
    let crm = Arc::new(RelationalAdapter::new("crm"));
    let customers = Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("region", DataType::Utf8),
    ])
    .into_ref();
    crm.add_table(RowStore::new("customers", customers, Some(0)).unwrap());
    crm.load(
        "customers",
        (0..20i64).map(|i| {
            vec![
                Value::Int64(i),
                Value::Utf8(if i % 2 == 0 { "east" } else { "west" }.into()),
            ]
        }),
    )
    .unwrap();
    let mkt = Arc::new(RelationalAdapter::new("mkt"));
    let orders = Schema::new(vec![
        Field::required("cust_id", DataType::Int64),
        Field::new("amount", DataType::Int64),
    ])
    .into_ref();
    mkt.add_table(RowStore::new("orders", orders, None).unwrap());
    mkt.load(
        "orders",
        (0..60i64).map(|i| vec![Value::Int64(i % 20), Value::Int64(10 + i)]),
    )
    .unwrap();
    fed.add_source(
        crm.clone() as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed.add_source(
        mkt.clone() as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed.add_global_identity("customers", "crm", "customers")
        .unwrap();
    fed.add_global_identity("orders", "mkt", "orders").unwrap();
    (Arc::new(fed), crm, mkt)
}

/// Runs `sql` with view matching disabled — the source-answered
/// baseline every view-answered result is diffed against.
fn source_path(fed: &Federation, sql: &str) -> QueryResult {
    let mut ctx = fed.ctx();
    ctx.exec.view_matching = false;
    fed.run(sql, &ctx).unwrap()
}

const JOIN_SQL: &str = "SELECT c.region, sum(o.amount) AS revenue \
     FROM customers c JOIN orders o ON c.id = o.cust_id \
     GROUP BY c.region ORDER BY c.region";

#[test]
fn fresh_view_answers_bit_identical_with_zero_traffic() {
    let (fed, _crm, _mkt) = fed_with_adapters();
    let baseline = source_path(&fed, JOIN_SQL);
    assert!(baseline.metrics.bytes_shipped > 0);

    fed.create_materialized_view("rev_by_region", JOIN_SQL)
        .unwrap();

    let hit = fed.query(JOIN_SQL).unwrap();
    assert_eq!(hit.metrics.views_used, vec!["rev_by_region".to_string()]);
    assert_eq!(
        hit.metrics.bytes_shipped, 0,
        "a fresh exact match ships nothing"
    );
    assert_eq!(hit.batch.to_rows(), baseline.batch.to_rows());
    // The counters saw the hit.
    let (hits, _, refreshes, _) = fed.views().get("rev_by_region").unwrap().counters();
    assert_eq!(hits, 1);
    assert_eq!(refreshes, 1);
}

#[test]
fn subsumed_scan_is_compensated_bit_identically() {
    let (fed, _crm, _mkt) = fed_with_adapters();
    // The view is *wider* than the query: all customer columns, no
    // filter. The matcher must compensate with a residual filter and
    // projection over the materialized rows.
    fed.create_materialized_view("cust_all", "SELECT id, region FROM customers")
        .unwrap();
    for sql in [
        "SELECT region FROM customers WHERE id < 7 ORDER BY region",
        "SELECT id FROM customers WHERE region = 'east' ORDER BY id",
        "SELECT id, region FROM customers ORDER BY id LIMIT 5",
    ] {
        let baseline = source_path(&fed, sql);
        let via_view = fed.query(sql).unwrap();
        assert_eq!(
            via_view.metrics.views_used,
            vec!["cust_all".to_string()],
            "query should match the view: {sql}"
        );
        assert_eq!(
            via_view.batch.to_rows(),
            baseline.batch.to_rows(),
            "differential mismatch for: {sql}"
        );
        assert_eq!(via_view.metrics.bytes_shipped, 0);
    }
}

#[test]
fn post_write_staleness_falls_back_then_refresh_restores_the_hit() {
    let (fed, crm, _mkt) = fed_with_adapters();
    let sql = "SELECT region, count(*) AS n FROM customers GROUP BY region ORDER BY region";
    fed.create_materialized_view("cust_by_region", sql).unwrap();
    assert!(fed.query(sql).unwrap().metrics.bytes_shipped == 0);

    // A write behind the mediator's back: the view is now stale and a
    // Manual-policy view must NOT answer — rows come from the source
    // and reflect the write.
    crm.load(
        "customers",
        vec![vec![Value::Int64(100), Value::Utf8("east".into())]],
    )
    .unwrap();
    let after_write = fed.query(sql).unwrap();
    assert!(
        after_write.metrics.views_used.is_empty(),
        "stale view must not answer"
    );
    assert!(after_write.metrics.bytes_shipped > 0);
    assert_eq!(
        after_write.batch.to_rows(),
        source_path(&fed, sql).batch.to_rows()
    );
    let (_, stale_skips, _, _) = fed.views().get("cust_by_region").unwrap().counters();
    assert!(stale_skips >= 1);

    // REFRESH re-ships only this view's fragment and restores hits.
    fed.query("REFRESH MATERIALIZED VIEW cust_by_region")
        .unwrap();
    let warm = fed.query(sql).unwrap();
    assert_eq!(warm.metrics.bytes_shipped, 0);
    assert_eq!(warm.batch.to_rows(), after_write.batch.to_rows());
}

#[test]
fn on_query_if_stale_refreshes_lazily_and_stays_identical() {
    let (fed, crm, _mkt) = fed_with_adapters();
    let sql = "SELECT count(*) AS n FROM customers";
    fed.create_materialized_view_with("cust_count", sql, RefreshPolicy::OnQueryIfStale)
        .unwrap();
    crm.load(
        "customers",
        vec![vec![Value::Int64(200), Value::Utf8("west".into())]],
    )
    .unwrap();

    // The stale view refreshes synchronously, then answers — rows
    // must match the post-write source truth, not the stale snapshot.
    let r = fed.query(sql).unwrap();
    assert_eq!(r.metrics.views_used, vec!["cust_count".to_string()]);
    assert_eq!(r.batch.row_values(0)[0], Value::Int64(21));
    assert_eq!(r.batch.to_rows(), source_path(&fed, sql).batch.to_rows());
    let (_, _, refreshes, _) = fed.views().get("cust_count").unwrap().counters();
    assert_eq!(refreshes, 2, "create + lazy refresh");

    // An unrelated query must not trigger a refresh of this view.
    crm.load(
        "customers",
        vec![vec![Value::Int64(201), Value::Utf8("west".into())]],
    )
    .unwrap();
    fed.query("SELECT cust_id FROM orders WHERE cust_id = 0")
        .unwrap();
    let (_, _, refreshes, _) = fed.views().get("cust_count").unwrap().counters();
    assert_eq!(refreshes, 2, "non-matching query must not refresh");
}

#[test]
fn mid_refresh_queries_always_see_a_consistent_snapshot() {
    let (fed, crm, _mkt) = fed_with_adapters();
    // Snapshot counts are 20, 30, 40, …: every valid answer is a
    // multiple of 10 (each load is one atomic chunk of 10 rows).
    let sql = "SELECT count(*) AS n FROM customers";
    fed.create_materialized_view_with("cc", sql, RefreshPolicy::Manual)
        .unwrap();

    let writer_fed = fed.clone();
    let writer = std::thread::spawn(move || {
        for chunk in 0..8i64 {
            let base = 1_000 + chunk * 10;
            crm.load(
                "customers",
                (base..base + 10).map(|i| vec![Value::Int64(i), Value::Utf8("east".into())]),
            )
            .unwrap();
            // Refresh racing the queries below: the swap is atomic, so
            // readers see the old rows or the new rows, never a mix.
            writer_fed.refresh_materialized_view("cc").unwrap();
        }
    });
    for _ in 0..24 {
        let n = match &fed.query(sql).unwrap().batch.row_values(0)[0] {
            Value::Int64(n) => *n,
            other => panic!("unexpected count value {other:?}"),
        };
        assert!(
            (20..=100).contains(&n) && n % 10 == 0,
            "count {n} is not a valid snapshot"
        );
    }
    writer.join().unwrap();
    // Settled: the view answers with the final snapshot, identically
    // to the sources.
    fed.refresh_materialized_view("cc").unwrap();
    let settled = fed.query(sql).unwrap();
    assert_eq!(settled.batch.row_values(0)[0], Value::Int64(100));
    assert_eq!(
        settled.batch.to_rows(),
        source_path(&fed, sql).batch.to_rows()
    );
}

#[test]
fn fresh_view_answers_completely_through_a_source_outage() {
    let (fed, crm, _mkt) = fed_with_adapters();
    fed.configure_breaker(gis::net::BreakerConfig::disabled());
    let sql = "SELECT region, count(*) AS n FROM customers GROUP BY region ORDER BY region";
    fed.create_materialized_view("cbr", sql).unwrap();
    let baseline = fed.query(sql).unwrap();

    // The source goes dark. The fresh view still answers — complete,
    // not degraded, zero traffic.
    fed.link("crm").unwrap().faults().partition();
    let mut exec = fed.exec_options();
    exec.partial_results = true;
    fed.set_exec_options(exec);
    let r = fed.query(sql).unwrap();
    assert!(!r.is_degraded(), "a fresh view is a complete answer");
    assert_eq!(r.metrics.bytes_shipped, 0);
    assert_eq!(r.batch.to_rows(), baseline.batch.to_rows());

    // A write makes the view stale; with the source still down the
    // fallback degrades (and the stale view must not silently answer).
    fed.link("crm").unwrap().faults().heal();
    crm.load(
        "customers",
        vec![vec![Value::Int64(300), Value::Utf8("east".into())]],
    )
    .unwrap();
    fed.link("crm").unwrap().faults().partition();
    let degraded = fed.query(sql).unwrap();
    assert!(degraded.is_degraded());
    assert!(degraded.metrics.views_used.is_empty());
}

#[test]
fn explain_analyze_names_the_view_span() {
    let (fed, _crm, _mkt) = fed_with_adapters();
    fed.create_materialized_view("rev", JOIN_SQL).unwrap();
    let rendered = fed
        .query(&format!("EXPLAIN ANALYZE {JOIN_SQL}"))
        .unwrap()
        .batch
        .to_table();
    assert!(
        rendered.contains("view[rev]"),
        "missing view span in:\n{rendered}"
    );
}

#[test]
fn ddl_round_trips_through_sql_and_sessions() {
    let (fed, _crm, _mkt) = fed_with_adapters();
    let created = fed
        .query(
            "CREATE MATERIALIZED VIEW east_ids AS SELECT id FROM customers WHERE region = 'east'",
        )
        .unwrap();
    assert!(created
        .batch
        .to_table()
        .contains("created materialized view east_ids"));
    assert_eq!(fed.views().len(), 1);

    // Errors: duplicate name, global-table shadowing, unknown view,
    // and a malformed statement with a byte-offset span.
    assert!(fed
        .query("CREATE MATERIALIZED VIEW east_ids AS SELECT id FROM customers")
        .is_err());
    assert!(fed
        .query("CREATE MATERIALIZED VIEW customers AS SELECT id FROM customers")
        .is_err());
    assert!(fed.query("REFRESH MATERIALIZED VIEW nope").is_err());
    let err = fed
        .query("CREATE MATERIALIZED VIEW x SELECT 1")
        .unwrap_err();
    assert!(err.to_string().contains("near byte"), "got: {err}");

    // The runtime session routes the same DDL.
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let session = runtime.session();
    session.query("REFRESH MATERIALIZED VIEW east_ids").unwrap();
    let dropped = session.query("DROP MATERIALIZED VIEW east_ids").unwrap();
    assert!(dropped
        .batch
        .to_table()
        .contains("dropped materialized view east_ids"));
    assert_eq!(fed.views().len(), 0);
}

#[test]
fn interval_policy_refreshes_on_the_virtual_clock() {
    let (fed, crm, _mkt) = fed_with_adapters();
    let sql = "SELECT count(*) AS n FROM customers";
    fed.create_materialized_view_with("cc_interval", sql, RefreshPolicy::Interval { every_us: 1 })
        .unwrap();
    crm.load(
        "customers",
        vec![vec![Value::Int64(400), Value::Utf8("east".into())]],
    )
    .unwrap();

    // The runtime's workers run maintenance between jobs; WAN traffic
    // advances the virtual clock past the interval.
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let session = runtime.session();
    session
        .query("SELECT cust_id FROM orders WHERE cust_id = 1")
        .unwrap();
    let r = session.query(sql).unwrap();
    assert_eq!(r.batch.row_values(0)[0], Value::Int64(21));
    let (_, _, refreshes, _) = fed.views().get("cc_interval").unwrap().counters();
    assert!(refreshes >= 2, "create + interval maintenance");
}

#[test]
fn runtime_renders_view_gauges() {
    let (fed, crm, _mkt) = fed_with_adapters();
    fed.create_materialized_view("gauge_view", "SELECT id FROM customers")
        .unwrap();
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let session = runtime.session();
    session
        .query("SELECT id FROM customers ORDER BY id LIMIT 3")
        .unwrap();

    let text = runtime.render_text();
    assert!(
        text.contains("gis_view_fresh{view=\"gauge_view\""),
        "{text}"
    );
    assert!(text.contains("gis_view_hits_total{view=\"gauge_view\"}"));
    assert!(text.contains("gis_view_rows{view=\"gauge_view\"}"));
    assert!(text.contains("gis_view_refreshes_total{view=\"gauge_view\"} 1"));

    // Staleness shows up as fresh=0 with a lagging-source count.
    crm.load(
        "customers",
        vec![vec![Value::Int64(500), Value::Utf8("east".into())]],
    )
    .unwrap();
    let text = runtime.render_text();
    assert!(
        text.contains("gis_view_lagging_sources{view=\"gauge_view\"} 1"),
        "{text}"
    );
}

#[test]
fn view_matching_is_invisible_to_the_result_cache() {
    // The result cache pins the *source* versions a plan reads; a
    // view answering the same plan must not change those semantics.
    let (fed, crm, _mkt) = fed_with_adapters();
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let session = runtime.session();
    let sql = "SELECT region, count(*) AS n FROM customers GROUP BY region ORDER BY region";

    fed.create_materialized_view("cbr2", sql).unwrap();
    let cold = session.query(sql).unwrap();
    assert_eq!(cold.metrics.bytes_shipped, 0, "view answered");
    assert!(session.query(sql).unwrap().metrics.result_cache_hit);

    // A write invalidates the cached result AND staleness-gates the
    // view: rows must come back from the source, reflecting the write.
    crm.load(
        "customers",
        vec![vec![Value::Int64(600), Value::Utf8("west".into())]],
    )
    .unwrap();
    let after = session.query(sql).unwrap();
    assert!(!after.metrics.result_cache_hit);
    assert!(after.metrics.views_used.is_empty());
    assert_eq!(
        after.batch.to_rows(),
        source_path(&fed, sql).batch.to_rows()
    );
}
