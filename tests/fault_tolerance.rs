//! Integration tests for autonomy failures: transient loss,
//! partitions, and the retry policy — exercised through the public
//! API with the fault hooks the simulated network exposes.

use gis::adapters::RemoteSource;
use gis::net::Link;
use gis::net::SimClock;
use gis::prelude::*;
use gis::storage::RowStore;
use std::sync::Arc;

fn one_source_fed() -> (Federation, String) {
    let fed = Federation::new();
    let adapter = RelationalAdapter::new("crm");
    let schema = Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
    .into_ref();
    adapter.add_table(RowStore::new("t", schema, Some(0)).unwrap());
    adapter
        .load(
            "t",
            (0..100i64).map(|i| vec![Value::Int64(i), Value::Int64(i * i)]),
        )
        .unwrap();
    fed.add_source(
        Arc::new(adapter) as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    (fed, "crm".into())
}

/// Builds a standalone remote source for adapter-level fault
/// scripting. Federation-level tests script the same faults through
/// [`Federation::link`] instead.
fn standalone_remote() -> RemoteSource {
    let adapter = RelationalAdapter::new("crm");
    let schema = Schema::new(vec![Field::required("id", DataType::Int64)]).into_ref();
    adapter.add_table(RowStore::new("t", schema, Some(0)).unwrap());
    adapter
        .load("t", (0..10i64).map(|i| vec![Value::Int64(i)]))
        .unwrap();
    RemoteSource::new(
        Arc::new(adapter),
        Link::new("crm", NetworkConditions::wan(), SimClock::new()),
    )
}

#[test]
fn queries_survive_transient_failures() {
    let remote = standalone_remote();
    remote.link().faults().fail_next(2);
    let req = gis::adapters::SourceRequest::Scan {
        table: "t".into(),
        predicates: vec![],
        projection: vec![],
        sort: vec![],
        limit: None,
    };
    let schema = remote.adapter().table_schema("t").unwrap();
    let (batch, _) = remote.fetch(&req, &schema, false, None).unwrap();
    assert_eq!(batch.num_rows(), 10);
    assert_eq!(remote.link().metrics().failures(), 2);
}

#[test]
fn partition_fails_after_retries_with_retryable_error() {
    let remote = standalone_remote();
    remote.link().faults().partition();
    let req = gis::adapters::SourceRequest::Scan {
        table: "t".into(),
        predicates: vec![],
        projection: vec![],
        sort: vec![],
        limit: None,
    };
    let schema = remote.adapter().table_schema("t").unwrap();
    let err = remote.fetch(&req, &schema, false, None).unwrap_err();
    assert!(err.is_retryable());
    remote.link().faults().heal();
    assert!(remote.fetch(&req, &schema, false, None).is_ok());
}

#[test]
fn periodic_faults_slow_but_do_not_break() {
    let remote = standalone_remote();
    remote.link().faults().fail_every(5);
    let req = gis::adapters::SourceRequest::Scan {
        table: "t".into(),
        predicates: vec![],
        projection: vec![],
        sort: vec![],
        limit: None,
    };
    // Several queries in a row: retries absorb the periodic faults.
    let schema = remote.adapter().table_schema("t").unwrap();
    for _ in 0..10 {
        let (batch, _) = remote.fetch(&req, &schema, false, None).unwrap();
        assert_eq!(batch.num_rows(), 10);
    }
    assert!(remote.link().metrics().failures() > 0);
}

#[test]
fn federation_link_scripts_faults_through_public_api() {
    let (fed, src) = one_source_fed();
    let link = fed.link(&src).unwrap();
    // Transient loss: the retry policy absorbs it, the counters see it.
    link.faults().fail_next(2);
    let r = fed.query("SELECT count(*) FROM crm.t").unwrap();
    assert_eq!(r.batch.row_values(0)[0], Value::Int64(100));
    assert_eq!(link.metrics().failures(), 2);
    assert_eq!(r.metrics.failures, 2);
    // Partition: retries exhaust, the error is retryable, healing fixes it.
    link.faults().partition();
    let err = fed.query("SELECT count(*) FROM crm.t").unwrap_err();
    assert!(err.is_retryable());
    link.faults().heal();
    assert!(fed.query("SELECT count(*) FROM crm.t").is_ok());
    // Unknown sources error instead of returning a dead link.
    assert!(fed.link("ghost").is_err());
}

#[test]
fn federation_queries_fail_loudly_on_unknown_source_tables() {
    let (fed, _) = one_source_fed();
    assert!(fed.query("SELECT * FROM crm.nope").is_err());
    assert!(fed.query("SELECT * FROM ghost.t").is_err());
}

#[test]
fn stats_refresh_reflects_new_data() {
    let (fed, src) = one_source_fed();
    let before = fed
        .catalog()
        .resolve(Some(&src), "t")
        .unwrap()
        .table
        .stats
        .unwrap()
        .row_count;
    assert_eq!(before, 100);
    fed.refresh_stats(&src, "t").unwrap();
    let after = fed
        .catalog()
        .resolve(Some(&src), "t")
        .unwrap()
        .table
        .stats
        .unwrap()
        .row_count;
    assert_eq!(after, 100);
    assert!(fed.refresh_stats("ghost", "t").is_err());
}

#[test]
fn virtual_clock_isolates_queries_from_host_speed() {
    let (fed, _) = one_source_fed();
    let r1 = fed.query("SELECT count(*) FROM crm.t").unwrap();
    let r2 = fed.query("SELECT count(*) FROM crm.t").unwrap();
    // Same query, same plan → identical virtual time, whatever the
    // host was doing.
    assert_eq!(r1.metrics.virtual_network_us, r2.metrics.virtual_network_us);
    assert_eq!(r1.metrics.bytes_shipped, r2.metrics.bytes_shipped);
}
