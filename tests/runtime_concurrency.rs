//! Concurrency stress tests for the serving runtime: many threads,
//! mixed queries, exact traffic accounting, admission control, and
//! deadlines — all through the public `Runtime`/`Session` API.

use gis::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The mixed workload: aggregates, cross-source joins, filters with
/// varying literals, and point lookups.
fn workload() -> Vec<String> {
    let mut queries = vec![
        "SELECT count(*) FROM customers".to_string(),
        "SELECT count(*), sum(amount) FROM orders".to_string(),
        "SELECT region, count(*) FROM customers GROUP BY region ORDER BY region".to_string(),
        "SELECT c.tier, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id GROUP BY c.tier ORDER BY rev DESC"
            .to_string(),
        "SELECT category, count(*) FROM products GROUP BY category ORDER BY category".to_string(),
    ];
    for day in ["2019-09-01", "2020-06-15", "2021-03-01"] {
        queries.push(format!(
            "SELECT count(*) FROM orders WHERE order_day >= DATE '{day}'"
        ));
    }
    for id in [1, 7, 42] {
        queries.push(format!(
            "SELECT name, region FROM customers WHERE id = {id}"
        ));
    }
    queries
}

/// Canonical, order-insensitive rendering of a result batch.
fn canon(batch: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = batch
        .to_rows()
        .into_iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

fn link_totals(fed: &Federation) -> Vec<(String, u64, u64)> {
    fed.source_names()
        .into_iter()
        .map(|s| {
            let link = fed.link(&s).unwrap();
            let (bytes, messages) = (link.metrics().bytes(), link.metrics().messages());
            (s, bytes, messages)
        })
        .collect()
}

/// N threads × M mixed queries: per-query results match a
/// single-threaded run of the identical federation, and the
/// *aggregate* per-source traffic is exactly equal — concurrency must
/// not lose or double-count a single byte or message.
#[test]
fn stress_matches_single_threaded_results_and_traffic() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    let queries = workload();

    // Sequential baseline on one deterministic federation build.
    let baseline = gis::datagen::build_fedmart(FedMartConfig::tiny()).unwrap();
    let mut expected = Vec::new();
    for sql in &queries {
        expected.push(canon(&baseline.federation.query(sql).unwrap().batch));
    }
    // The concurrent run repeats the workload THREADS×ROUNDS times, so
    // scale the sequential traffic accordingly before comparing.
    let seq_base = link_totals(&baseline.federation);
    for sql in &queries {
        for _ in 1..THREADS * ROUNDS {
            baseline.federation.query(sql).unwrap();
        }
    }
    let seq_totals = link_totals(&baseline.federation);

    // Concurrent run on an identical build. The result cache is off:
    // every query must actually execute for traffic to be comparable.
    let fm = gis::datagen::build_fedmart(FedMartConfig::tiny()).unwrap();
    let fed = Arc::new(fm.federation);
    let runtime = Runtime::new(
        fed.clone(),
        RuntimeConfig::default()
            .with_workers(THREADS)
            .with_queue_depth(1024),
    );
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let runtime = &runtime;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let mut session = runtime.session();
                session.set_result_cache(false);
                if t % 2 == 0 {
                    session.set_priority(Priority::High);
                }
                for round in 0..ROUNDS {
                    for (i, sql) in queries.iter().enumerate() {
                        let result = session.query(sql).unwrap();
                        assert_eq!(
                            canon(&result.batch),
                            expected[i],
                            "thread {t} round {round} query {i} diverged"
                        );
                        assert!(result.metrics.query_id > 0);
                        assert!(!result.metrics.result_cache_hit);
                    }
                }
            });
        }
    });
    let stats = runtime.stats();
    assert_eq!(stats.completed as usize, THREADS * ROUNDS * queries.len());
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);

    // Aggregate accounting: exactly the sequential totals, per source.
    let conc_totals = link_totals(&fed);
    for ((src, seq_bytes, seq_msgs), (csrc, cbytes, cmsgs)) in seq_totals.iter().zip(&conc_totals) {
        assert_eq!(src, csrc);
        assert_eq!(seq_bytes, cbytes, "byte totals diverged on '{src}'");
        assert_eq!(seq_msgs, cmsgs, "message totals diverged on '{src}'");
    }
    // Sanity: the workload really did touch every source.
    for ((_, bytes, _), (_, base_bytes, _)) in seq_totals.iter().zip(&seq_base) {
        assert!(bytes > base_bytes);
    }
}

/// Overload: a single slow worker and a tiny queue. Excess load is
/// rejected with `OVERLOADED` fast — never deadlocked — and every
/// admitted query still completes correctly.
#[test]
fn admission_control_rejects_excess_load_without_deadlock() {
    let fm = gis::datagen::build_fedmart(FedMartConfig::tiny()).unwrap();
    let fed = Arc::new(fm.federation);
    let runtime = Runtime::new(
        fed,
        RuntimeConfig::default().with_workers(1).with_queue_depth(2),
    );
    let mut session = runtime.session();
    session.set_result_cache(false); // every query must occupy the worker
    let sql = "SELECT c.region, sum(o.amount) FROM customers c \
               JOIN orders o ON c.id = o.cust_id GROUP BY c.region";
    let mut pending = Vec::new();
    let mut rejected = 0;
    for _ in 0..50 {
        match session.submit(sql) {
            Ok(p) => pending.push(p),
            Err(e) => {
                assert_eq!(e.code(), "OVERLOADED");
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "50 rapid submits must overflow depth 2");
    assert!(!pending.is_empty());
    for p in pending {
        let result = p.wait().unwrap();
        assert!(result.batch.num_rows() > 0);
    }
    let stats = runtime.stats();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.failed, 0);
}

/// Deadlines cancel queries with `DEADLINE` instead of hanging.
#[test]
fn deadlines_cancel_queries() {
    let fm = gis::datagen::build_fedmart(FedMartConfig::tiny()).unwrap();
    let runtime = Runtime::new(Arc::new(fm.federation), RuntimeConfig::default());
    let mut session = runtime.session();
    session.set_deadline(Some(Duration::ZERO));
    let err = session.query("SELECT count(*) FROM orders").unwrap_err();
    assert_eq!(err.code(), "DEADLINE");
    assert_eq!(runtime.stats().deadline_expired, 1);
    // Clearing the deadline restores normal service.
    session.set_deadline(None);
    assert!(session.query("SELECT count(*) FROM orders").is_ok());
}

const EXPLAIN_ANALYZE_JOIN: &str = "EXPLAIN ANALYZE SELECT c.region, count(*) AS n \
     FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.region";

/// `EXPLAIN ANALYZE` executes, so the envelope's deadline governs it
/// like any query. It used to run with no deadline at all.
#[test]
fn explain_analyze_honours_the_callers_deadline() {
    let fm = gis::datagen::build_fedmart(FedMartConfig::tiny()).unwrap();
    let fed = fm.federation;
    let expired = QueryCtx {
        deadline: Some(std::time::Instant::now()),
        ..fed.ctx()
    };
    let err = fed.run(EXPLAIN_ANALYZE_JOIN, &expired).unwrap_err();
    assert!(matches!(err, GisError::Deadline(_)), "{err}");
    assert!(fed.run(EXPLAIN_ANALYZE_JOIN, &fed.ctx()).is_ok());
}

/// The same through a session: a deadline that outlives the queue but
/// not the first paced WAN fetch cancels the statement at the next
/// operator, under the session's query id, and is counted.
#[test]
fn session_deadline_and_query_id_govern_explain_analyze() {
    let fm = gis::datagen::build_fedmart(FedMartConfig {
        conditions: NetworkConditions {
            latency_us: 100_000,
            bandwidth_bytes_per_sec: 0,
        },
        ..FedMartConfig::tiny()
    })
    .unwrap();
    // Every virtual microsecond costs a host one: the first 100 ms
    // message already outlasts the deadline below.
    fm.federation.clock().set_pace_permille(1_000);
    let runtime = Runtime::new(Arc::new(fm.federation), RuntimeConfig::default());
    let mut session = runtime.session();
    session.set_deadline(Some(Duration::from_millis(50)));
    let pending = session.submit(EXPLAIN_ANALYZE_JOIN).unwrap();
    let id = pending.query_id();
    let err = pending.wait().unwrap_err();
    assert_eq!(err.code(), "DEADLINE", "{err}");
    assert!(
        err.to_string()
            .contains(&format!("query {id} exceeded its deadline")),
        "cancelled under another id: {err}"
    );
    assert_eq!(runtime.stats().deadline_expired, 1);
}

/// Shutdown completes in-flight queries and fails queued ones loudly.
#[test]
fn shutdown_drains_cleanly() {
    let fm = gis::datagen::build_fedmart(FedMartConfig::tiny()).unwrap();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default().with_workers(2),
    );
    let session = runtime.session();
    let pending: Vec<_> = (0..4)
        .map(|_| session.submit("SELECT count(*) FROM customers").unwrap())
        .collect();
    runtime.shutdown();
    // Every pending query resolves: either a result (it was in flight)
    // or an OVERLOADED shutdown error (it was still queued).
    for p in pending {
        match p.wait() {
            Ok(r) => assert_eq!(r.batch.num_rows(), 1),
            Err(e) => assert_eq!(e.code(), "OVERLOADED"),
        }
    }
}
