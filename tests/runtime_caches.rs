//! Cache semantics of the serving runtime: plan-cache hits, result
//! reuse with zero traffic, invalidation on source loads and mapping
//! changes, and session-scoped ablation.

use gis::prelude::*;
use std::sync::Arc;

/// A one-source federation where the test keeps a handle on the
/// adapter, so it can load data *behind the runtime's back* the way
/// an autonomous source would.
fn fed_with_adapter() -> (Arc<Federation>, Arc<RelationalAdapter>) {
    let fed = Federation::new();
    let crm = Arc::new(RelationalAdapter::new("crm"));
    let schema = Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("region", DataType::Utf8),
    ])
    .into_ref();
    crm.add_table(RowStore::new("customers", schema, Some(0)).unwrap());
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
    fed.add_source(
        crm.clone() as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed.add_global_identity("customers", "crm", "customers")
        .unwrap();
    (Arc::new(fed), crm)
}

#[test]
fn repeated_queries_hit_both_caches_with_zero_traffic() {
    let (fed, _crm) = fed_with_adapter();
    let runtime = Runtime::new(fed, RuntimeConfig::default());
    let session = runtime.session();
    let sql = "SELECT region, count(*) FROM customers GROUP BY region ORDER BY region";

    let cold = session.query(sql).unwrap();
    assert!(!cold.metrics.plan_cache_hit);
    assert!(!cold.metrics.result_cache_hit);
    assert!(cold.metrics.bytes_shipped > 0);

    // Same query again — whitespace changes must not matter.
    let warm = session
        .query("SELECT region,  count(*)\n FROM customers GROUP BY region ORDER BY region")
        .unwrap();
    assert!(warm.metrics.plan_cache_hit);
    assert!(warm.metrics.result_cache_hit);
    assert_eq!(warm.metrics.bytes_shipped, 0, "a result hit ships nothing");
    assert_eq!(warm.metrics.messages, 0);
    assert_eq!(warm.batch.to_rows(), cold.batch.to_rows());

    let stats = runtime.stats();
    assert_eq!(stats.plan_cache_hits, 1);
    assert_eq!(stats.result_cache_hits, 1);
    assert!(stats.result_cache_bytes > 0);
}

#[test]
fn result_cache_invalidates_on_source_load() {
    let (fed, crm) = fed_with_adapter();
    let runtime = Runtime::new(fed, RuntimeConfig::default());
    let session = runtime.session();
    let sql = "SELECT count(*) FROM customers";

    let before = session.query(sql).unwrap();
    assert_eq!(before.batch.row_values(0)[0], Value::Int64(20));
    assert!(session.query(sql).unwrap().metrics.result_cache_hit);

    // The source loads new rows — the cached result is now a lie.
    crm.load(
        "customers",
        (20..25i64).map(|i| vec![Value::Int64(i), Value::Utf8("east".into())]),
    )
    .unwrap();

    let after = session.query(sql).unwrap();
    assert!(
        !after.metrics.result_cache_hit,
        "load must invalidate the cached result"
    );
    // The plan is still valid — only the data moved.
    assert!(after.metrics.plan_cache_hit);
    assert_eq!(after.batch.row_values(0)[0], Value::Int64(25));
    // And the refreshed result is cached again.
    let again = session.query(sql).unwrap();
    assert!(again.metrics.result_cache_hit);
    assert_eq!(again.batch.row_values(0)[0], Value::Int64(25));
}

#[test]
fn caches_invalidate_on_mapping_change() {
    let (fed, _crm) = fed_with_adapter();
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let session = runtime.session();
    let sql = "SELECT count(*) FROM customers";

    session.query(sql).unwrap();
    assert!(session.query(sql).unwrap().metrics.plan_cache_hit);

    // Any catalog mutation (here: redefining the global mapping) bumps
    // the catalog version, orphaning cached plans and results.
    fed.add_global_identity("customers", "crm", "customers")
        .unwrap();
    let after = session.query(sql).unwrap();
    assert!(
        !after.metrics.plan_cache_hit,
        "mapping change must invalidate cached plans"
    );
    assert!(
        !after.metrics.result_cache_hit,
        "mapping change must invalidate cached results"
    );
}

#[test]
fn analyze_bumps_catalog_version_and_reoptimizes_cached_plans() {
    let (fed, _crm) = fed_with_adapter();
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let session = runtime.session();
    let sql = "SELECT id, region FROM customers WHERE id = 7";

    session.query(sql).unwrap();
    assert!(session.query(sql).unwrap().metrics.plan_cache_hit);

    // ANALYZE refreshes statistics through Catalog::update_stats,
    // which bumps the catalog version — orphaning every cached plan,
    // because those plans were costed against the old picture.
    let before = fed.catalog_version();
    let analyzed = session.query("ANALYZE crm.customers").unwrap();
    assert_eq!(analyzed.metrics.rows_returned, 1);
    assert!(
        fed.catalog_version() > before,
        "ANALYZE must bump the catalog version"
    );

    let after = session.query(sql).unwrap();
    assert!(
        !after.metrics.plan_cache_hit,
        "post-ANALYZE query must re-optimize against the new stats"
    );
    // The re-optimized plan answers identically, and is cached anew.
    assert!(session.query(sql).unwrap().metrics.plan_cache_hit);
}

#[test]
fn session_scoped_ablation_disables_caching() {
    let (fed, _crm) = fed_with_adapter();
    let runtime = Runtime::new(fed, RuntimeConfig::default());
    let mut cold_session = runtime.session();
    cold_session.set_caching(false);
    let sql = "SELECT count(*) FROM customers";

    for _ in 0..3 {
        let r = cold_session.query(sql).unwrap();
        assert!(!r.metrics.plan_cache_hit);
        assert!(!r.metrics.result_cache_hit);
        assert!(r.metrics.bytes_shipped > 0, "ablated queries re-execute");
    }
    let stats = runtime.stats();
    assert_eq!(stats.plan_cache_hits, 0);
    assert_eq!(stats.result_cache_hits, 0);

    // A caching session on the same runtime is unaffected by the
    // ablated one — and vice versa.
    let warm_session = runtime.session();
    warm_session.query(sql).unwrap();
    assert!(warm_session.query(sql).unwrap().metrics.result_cache_hit);
    let r = cold_session.query(sql).unwrap();
    assert!(!r.metrics.result_cache_hit);
}

#[test]
fn session_options_do_not_leak_into_shared_state() {
    let (fed, _crm) = fed_with_adapter();
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let shared_before = fed.optimizer_options();

    let mut naive = runtime.session();
    naive.set_optimizer_options(OptimizerOptions::naive());
    naive.set_exec_options(ExecOptions::naive());
    let default_session = runtime.session();

    let sql = "SELECT region, count(*) FROM customers WHERE id >= 4 \
               GROUP BY region ORDER BY region";
    let a = naive.query(sql).unwrap();
    let b = default_session.query(sql).unwrap();
    assert_eq!(a.batch.to_rows(), b.batch.to_rows());
    // The naive plan ships more (no pushdown) — different plans really ran.
    assert!(a.metrics.bytes_shipped > b.metrics.bytes_shipped);
    // Federation-wide options are untouched by session overrides.
    assert_eq!(
        format!("{:?}", fed.optimizer_options()),
        format!("{shared_before:?}")
    );
}

/// The result-cache key covers the execution options a job actually
/// ran under, `tracing` included: a traced and an untraced session
/// never share a slot, so neither is served the other's answer.
#[test]
fn traced_and_untraced_sessions_never_share_a_result_slot() {
    let (fed, _crm) = fed_with_adapter();
    let runtime = Runtime::new(fed.clone(), RuntimeConfig::default());
    let mut traced = runtime.session();
    traced.set_exec_options(ExecOptions {
        tracing: true,
        ..fed.exec_options()
    });
    let plain = runtime.session();

    let sql = "SELECT region, count(*) FROM customers GROUP BY region ORDER BY region";
    let first = traced.query(sql).unwrap();
    assert!(first.metrics.trace.is_some());
    let other = plain.query(sql).unwrap();
    assert!(other.metrics.plan_cache_hit, "the plan is shared");
    assert!(!other.metrics.result_cache_hit, "the result slot is not");
    assert!(other.metrics.trace.is_none());
    assert_eq!(first.batch.to_rows(), other.batch.to_rows());
    // Each session's repeat is served from its own slot.
    assert!(traced.query(sql).unwrap().metrics.result_cache_hit);
    assert!(plain.query(sql).unwrap().metrics.result_cache_hit);
    assert_eq!(runtime.stats().result_cache_hits, 2);
}

#[test]
fn explain_bypasses_caches() {
    let (fed, _crm) = fed_with_adapter();
    let runtime = Runtime::new(fed, RuntimeConfig::default());
    let session = runtime.session();
    let sql = "EXPLAIN SELECT count(*) FROM customers";
    let a = session.query(sql).unwrap();
    let b = session.query(sql).unwrap();
    assert!(!b.metrics.result_cache_hit);
    assert_eq!(a.batch.to_rows(), b.batch.to_rows());
    assert!(b.metrics.query_id > a.metrics.query_id);
}
