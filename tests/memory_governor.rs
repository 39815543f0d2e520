//! The memory governor end to end: per-query budgets spilling hash
//! and sort kernels to disk with bit-identical answers, hard-limit kills that
//! leave concurrent queries untouched, pool-level admission control,
//! and the governor's observability surface (EXPLAIN ANALYZE spans,
//! runtime stats, metrics exposition).

use gis::prelude::*;
use std::sync::Arc;

fn fedmart() -> FedMart {
    build_fedmart(FedMartConfig::tiny()).expect("fedmart")
}

/// A query that exercises every governed kernel: hash join build,
/// group-by table, and an ORDER BY sort buffer.
const HASH_HEAVY: &str = "SELECT c.region, sum(o.amount) AS revenue \
     FROM customers c JOIN orders o ON c.id = o.cust_id \
     GROUP BY c.region ORDER BY revenue DESC";

/// A point lookup that needs no tracked reservations at all — it must
/// survive even a 1-byte budget with spilling disabled.
const POINT_LOOKUP: &str = "SELECT name, region FROM customers WHERE id = 7";

fn canon(batch: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = batch
        .to_rows()
        .into_iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// Forced spilling is invisible in the answer: a runtime whose every
/// hash kernel degrades to disk returns bit-identical rows, and the
/// degradation shows up in the runtime counters instead.
#[test]
fn spilling_runtime_matches_unbounded_results() {
    let expected = {
        let fm = fedmart();
        canon(&fm.federation.query(HASH_HEAVY).unwrap().batch)
    };

    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default()
            .with_workers(2)
            .with_query_mem_limit(1), // everything spills
    );
    let session = runtime.session();
    let got = session.query(HASH_HEAVY).unwrap();
    assert_eq!(canon(&got.batch), expected);

    let stats = runtime.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.mem_killed, 0);
    assert!(stats.spill_events > 0, "1-byte budget must force spills");
    assert!(stats.spilled_bytes > 0);
    // The exposition carries the same story for scrapers.
    let text = runtime.render_text();
    assert!(text.contains("gis_spill_events_total"), "{text}");
    assert!(text.contains("gis_mem_pool_bytes"), "{text}");
    assert!(
        text.contains("gis_queries_total{state=\"mem_killed\"} 0"),
        "{text}"
    );
}

/// ORDER BY is governed like the hash kernels. Its sort buffer used to
/// be one forced reservation (40 bytes a row here: 40 000 B), which a
/// 24 KiB pool refused — `MEM` — although spilling was on. Now the sort
/// degrades to 8 KiB runs on disk and merges them: same rows in the
/// same sequence, no kill, and nothing left in the pool or on disk.
#[test]
fn order_by_over_a_small_pool_spills_instead_of_dying() {
    const SORTED: &str = "SELECT order_id, cust_id, amount FROM orders \
         ORDER BY amount DESC, order_id";
    let expected = fedmart().federation.query(SORTED).unwrap().batch.to_rows();
    assert_eq!(expected.len(), 1000);

    let spill_dir = std::env::temp_dir().join(format!("gis-sort-spill-{}", std::process::id()));
    let runtime = Runtime::new(
        Arc::new(fedmart().federation),
        RuntimeConfig::default()
            .with_query_mem_limit(8 * 1024)
            .with_total_mem_pool(24 * 1024)
            .with_spill_dir(Some(spill_dir.clone()))
            // Resident cache entries hold pool bytes by design.
            .with_plan_cache_capacity(0)
            .with_result_cache_bytes(0),
    );
    let session = runtime.session();
    for sql in [SORTED.to_string(), format!("{SORTED} LIMIT 7 OFFSET 3")] {
        let got = session.query(&sql).unwrap().batch.to_rows();
        let want = if sql.ends_with("OFFSET 3") {
            &expected[3..10]
        } else {
            &expected[..]
        };
        assert_eq!(got, want, "{sql}");
    }

    let stats = runtime.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.mem_killed + stats.mem_rejected, 0);
    assert_eq!(stats.spill_events, 2, "one spilled sort per query");
    assert!(stats.spilled_bytes > 0);
    assert!(
        stats.mem_pool_peak <= 24 * 1024,
        "peak {}",
        stats.mem_pool_peak
    );
    assert_eq!(stats.mem_pool_used, 0, "pool drained");
    let left_over = std::fs::read_dir(&spill_dir).map_or(0, |d| d.count());
    assert_eq!(left_over, 0, "run files deleted");
    let _ = std::fs::remove_dir(&spill_dir);

    let r = session.query(&format!("EXPLAIN ANALYZE {SORTED}")).unwrap();
    let text = format!("{:?}", r.batch.to_rows());
    assert!(text.contains("kernel[sort-spill]: partitions=4"), "{text}");
    assert!(text.contains("spill[kernel]: parts=4"), "{text}");
}

/// With spilling disabled, the same budget kills the query with a
/// clean `MEM` error — while in-budget queries on the same runtime
/// keep completing, and the pool is fully reclaimed afterwards.
#[test]
fn hard_limit_kills_one_query_not_the_runtime() {
    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default()
            .with_workers(4)
            .with_query_mem_limit(1)
            .with_spill_cap(0) // degradation off: excess is fatal
            .with_plan_cache_capacity(0)
            .with_result_cache_bytes(0),
    );

    std::thread::scope(|scope| {
        for t in 0..4 {
            let runtime = &runtime;
            scope.spawn(move || {
                for _ in 0..3 {
                    let session = runtime.session();
                    if t % 2 == 0 {
                        let err = session.query(HASH_HEAVY).unwrap_err();
                        assert_eq!(err.code(), "MEM", "{err}");
                    } else {
                        let r = session.query(POINT_LOOKUP).unwrap();
                        assert_eq!(r.batch.num_rows(), 1);
                    }
                }
            });
        }
    });

    let stats = runtime.stats();
    assert_eq!(stats.mem_killed, 6, "every hash query dies");
    assert_eq!(stats.completed, 6, "every point lookup survives");
    assert_eq!(stats.failed, 0, "kills are MEM, not generic failures");
    // Every budget was dropped: nothing may linger in the pool.
    assert_eq!(stats.mem_pool_used, 0, "pool must be fully reclaimed");
}

/// Concurrent queries racing for the last pool bytes: with a pool far
/// smaller than the aggregate demand, some queries are killed (or
/// refused at admission) with `MEM` — but nothing deadlocks, nothing
/// fails with any other error, and the pool drains back to zero.
#[test]
fn pool_contention_kills_cleanly_and_reclaims() {
    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default()
            .with_workers(4)
            .with_queue_depth(256)
            .with_total_mem_pool(192 * 1024) // ~one hash build's worth
            .with_spill_cap(0)
            .with_plan_cache_capacity(0)
            .with_result_cache_bytes(0),
    );

    let mut ok = 0u64;
    let mut mem = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let runtime = &runtime;
            handles.push(scope.spawn(move || {
                let mut ok = 0u64;
                let mut mem = 0u64;
                let session = runtime.session();
                for _ in 0..4 {
                    match session.query(HASH_HEAVY) {
                        Ok(r) => {
                            assert!(r.batch.num_rows() > 0);
                            ok += 1;
                        }
                        Err(e) => {
                            assert_eq!(e.code(), "MEM", "{e}");
                            mem += 1;
                        }
                    }
                }
                (ok, mem)
            }));
        }
        for h in handles {
            let (o, m) = h.join().unwrap();
            ok += o;
            mem += m;
        }
    });

    assert_eq!(ok + mem, 32, "every query resolves, none hang");
    assert!(ok > 0, "queries within the pool must still complete");
    let stats = runtime.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.mem_killed + stats.mem_rejected, mem);
    assert_eq!(
        stats.mem_pool_used, 0,
        "pool fully reclaimed after the race"
    );
    assert!(stats.mem_pool_peak > 0, "the race must have used the pool");
}

/// A `ResourceExhausted` query leaves nothing behind in the result
/// cache: the next attempt re-executes (and dies again) instead of
/// serving a phantom cached answer.
#[test]
fn killed_queries_never_enter_the_result_cache() {
    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default()
            .with_query_mem_limit(1)
            .with_spill_cap(0),
    );
    let session = runtime.session();
    for _ in 0..2 {
        let err = session.query(HASH_HEAVY).unwrap_err();
        assert_eq!(err.code(), "MEM", "{err}");
    }
    let stats = runtime.stats();
    assert_eq!(stats.mem_killed, 2, "second run re-executed and died too");
    assert_eq!(stats.result_cache_bytes, 0, "no partial result was cached");
    assert_eq!(stats.result_cache_hits, 0);
}

/// `EXPLAIN ANALYZE` executes under the session's budget like the
/// query it wraps: with spilling off, a 1-byte hard limit kills it
/// with `MEM`, it is counted as a kill, and the pool drains to zero.
#[test]
fn explain_analyze_dies_under_a_killed_budget() {
    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default()
            .with_query_mem_limit(1)
            .with_spill_cap(0),
    );
    let err = runtime
        .session()
        .query(&format!("EXPLAIN ANALYZE {HASH_HEAVY}"))
        .unwrap_err();
    assert_eq!(err.code(), "MEM", "{err}");
    let stats = runtime.stats();
    assert_eq!(stats.mem_killed, 1);
    assert_eq!(stats.mem_pool_used, 0, "pool must be fully reclaimed");
}

/// EXPLAIN ANALYZE on a governed runtime annotates spilling kernels
/// with `mem[...]` and `spill[...]` spans.
#[test]
fn explain_analyze_shows_governor_spans() {
    let fm = fedmart();
    let runtime = Runtime::new(
        Arc::new(fm.federation),
        RuntimeConfig::default().with_query_mem_limit(1),
    );
    let session = runtime.session();
    let r = session
        .query(&format!("EXPLAIN ANALYZE {HASH_HEAVY}"))
        .unwrap();
    let text: String = r
        .batch
        .to_rows()
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("mem["), "missing mem span:\n{text}");
    assert!(text.contains("spill["), "missing spill span:\n{text}");
    assert!(text.contains("reserved_peak_bytes="), "{text}");
}

/// The governor defaults to off: an untouched `RuntimeConfig` tracks
/// nothing, spills nothing, and kills nothing.
#[test]
fn default_config_is_ungoverned() {
    let fm = fedmart();
    let runtime = Runtime::new(Arc::new(fm.federation), RuntimeConfig::default());
    let session = runtime.session();
    session.query(HASH_HEAVY).unwrap();
    let stats = runtime.stats();
    assert_eq!(stats.spill_events, 0);
    assert_eq!(stats.mem_killed, 0);
    assert_eq!(stats.mem_rejected, 0);
    assert_eq!(stats.mem_pool_capacity, u64::MAX);
}
