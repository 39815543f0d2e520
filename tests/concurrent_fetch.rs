//! Fetches that run together fail together. The two sides of a join
//! over disjoint sources fetch at once; when one side fails while the
//! other is still on the wire, the query ends with a typed error only
//! after both sides are joined, and leaves nothing behind: no traffic
//! after it returns, no pool bytes, no spill files.
//!
//! The clock is paced at 1 000 ‰, so virtual link time is host time
//! and "still on the wire" is a real interval: `far`'s fetch takes
//! 300 ms, `near`'s 60 ms.

use gis::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `near.t` (30 ms away) and `far.u` (150 ms away), both `(id, v)`
/// with 200 rows, on a clock paced at 1 000 ‰.
fn fed() -> Federation {
    let fed = Federation::new();
    for (name, table, latency_ms) in [("near", "t", 30), ("far", "u", 150)] {
        let adapter = RelationalAdapter::new(name);
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
        .into_ref();
        adapter.add_table(RowStore::new(table, schema, Some(0)).unwrap());
        adapter
            .load(
                table,
                (0..200i64).map(|i| vec![Value::Int64(i), Value::Int64(i * 3)]),
            )
            .unwrap();
        fed.add_source(
            Arc::new(adapter) as Arc<dyn SourceAdapter>,
            NetworkConditions::with_latency_ms(latency_ms),
        )
        .unwrap();
    }
    fed.clock().set_pace_permille(1_000);
    fed
}

/// `near.t` joined to itself — two fetches, one after the other on
/// `near`'s link — beside one fetch of `far.u`.
const SELF_JOIN_BESIDE_FAR: &str = "SELECT x.id, y.v, z.v FROM near.t x \
     JOIN near.t y ON x.id = y.id JOIN far.u z ON x.id = z.id";

/// Written join order, every join shipped whole, nothing pushed as a
/// co-located join: the plan is `(near ⋈ near) ⋈ far`, and its top
/// join runs its two sides together.
fn options() -> (OptimizerOptions, ExecOptions) {
    let optimizer = OptimizerOptions {
        join_reorder: false,
        ..OptimizerOptions::default()
    };
    let exec = ExecOptions {
        join_strategy: JoinStrategy::ShipWhole,
        colocated_join: false,
        ..ExecOptions::default()
    };
    (optimizer, exec)
}

fn messages(fed: &Federation, source: &str) -> u64 {
    fed.link(source).unwrap().metrics().messages()
}

/// No link moves once the query has returned: nothing it started is
/// still running.
fn assert_quiet_after_return(fed: &Federation) {
    let before = (messages(fed, "near"), messages(fed, "far"));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!((messages(fed, "near"), messages(fed, "far")), before);
}

#[test]
fn the_plan_runs_its_sides_together() {
    let fed = fed();
    fed.clock().set_pace_permille(0);
    let (optimizer, exec) = options();
    fed.set_optimizer_options(optimizer);
    fed.set_exec_options(exec);
    let plan = fed.explain(SELF_JOIN_BESIDE_FAR).unwrap();
    assert!(plan.contains("Fragment[far]"), "{plan}");
    let r = fed.query(SELF_JOIN_BESIDE_FAR).unwrap();
    assert_eq!(r.batch.num_rows(), 200);
    // far's fetch (300 ms) overlaps both of near's (60 ms each).
    let m = &r.metrics;
    assert_eq!(m.virtual_elapsed_us, m.per_source["far"].busy_us, "{m}");
    assert!(m.virtual_elapsed_us < m.virtual_network_us);
}

/// The deadline passes while `near`'s first fetch is on the wire; its
/// second fragment refuses to start (`DEADLINE`) while `far` is still
/// fetching. The query returns only once `far`'s fetch is done.
#[test]
fn an_expired_deadline_on_one_side_joins_the_other() {
    let fed = fed();
    let (optimizer, exec) = options();
    let started = Instant::now();
    let ctx = QueryCtx {
        optimizer,
        exec,
        deadline: Some(started + Duration::from_millis(40)),
        ..fed.ctx()
    };
    let err = fed.run(SELF_JOIN_BESIDE_FAR, &ctx).unwrap_err();
    assert_eq!(err.code(), "DEADLINE", "{err}");
    assert_eq!(
        messages(&fed, "near"),
        2,
        "near's second fetch never started"
    );
    assert_eq!(messages(&fed, "far"), 2, "far's fetch ran to its end");
    assert!(started.elapsed() >= Duration::from_millis(300));
    assert_quiet_after_return(&fed);
}

/// With spilling off, a 1-byte budget kills `near`'s self-join in its
/// hash kernel (`MEM`) while `far` is still fetching; the pool drains
/// to zero and the spill directory stays empty.
#[test]
fn a_memory_kill_on_one_side_joins_the_other() {
    let spill_dir =
        std::env::temp_dir().join(format!("gis-concurrent-spill-{}", std::process::id()));
    let fed = Arc::new(fed());
    let runtime = Runtime::new(
        fed.clone(),
        RuntimeConfig::default()
            .with_query_mem_limit(1)
            .with_spill_cap(0)
            .with_spill_dir(Some(spill_dir.clone()))
            // Resident cache entries hold pool bytes by design.
            .with_plan_cache_capacity(0)
            .with_result_cache_bytes(0),
    );
    let (optimizer, exec) = options();
    let session = runtime.session_with(optimizer, exec);
    let err = session.query(SELF_JOIN_BESIDE_FAR).unwrap_err();
    assert_eq!(err.code(), "MEM", "{err}");
    assert_eq!(messages(&fed, "far"), 2, "far's fetch ran to its end");
    let stats = runtime.stats();
    assert_eq!(stats.mem_killed, 1);
    assert_eq!(stats.mem_pool_used, 0, "pool drained");
    let left_over = std::fs::read_dir(&spill_dir).map_or(0, |d| d.count());
    assert_eq!(left_over, 0, "no spill files");
    let _ = std::fs::remove_dir(&spill_dir);
    assert_quiet_after_return(&fed);
}

/// `near` is partitioned and its breaker opens after two dropped
/// messages, so its fetch ends `UNAVAILABLE` while `far` is still
/// fetching. With `partial_results` the same query answers with
/// `far`'s rows and names `near` as missing.
#[test]
fn a_partitioned_source_on_one_side_joins_the_other() {
    const SQL: &str = "SELECT z.id, x.v FROM far.u z LEFT JOIN near.t x ON z.id = x.id";
    let fed = fed();
    fed.configure_breaker(gis::net::BreakerConfig {
        failure_threshold: 2,
        cooldown_us: 10_000_000,
    });
    fed.link("near").unwrap().faults().partition();
    let (optimizer, exec) = options();
    fed.set_optimizer_options(optimizer);
    fed.set_exec_options(exec);

    let err = fed.query(SQL).unwrap_err();
    assert_eq!(err.code(), "UNAVAILABLE", "{err}");
    assert_eq!(messages(&fed, "far"), 2, "far's fetch ran to its end");
    assert_quiet_after_return(&fed);

    fed.set_exec_options(ExecOptions {
        partial_results: true,
        ..exec
    });
    let r = fed.query(SQL).unwrap();
    assert_eq!(r.batch.num_rows(), 200, "far's rows still arrive");
    assert_eq!(r.degraded.as_ref().unwrap().sources(), vec!["near"]);
    assert_quiet_after_return(&fed);
}
