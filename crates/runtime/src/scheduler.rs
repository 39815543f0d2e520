//! The query scheduler: a bounded two-lane queue and a worker pool.
//!
//! Admission control is deliberately *fail-fast*: when the queue is
//! full, `submit` returns [`GisError::Overloaded`] immediately rather
//! than blocking the client — in a federation the client is often
//! another mediator, and blocking propagates congestion upstream.
//! Two lanes (high, normal) give interactive queries a way past bulk
//! work without a full priority queue.

use crate::plan_cache::{debug_fingerprint, PlanCache, PlanKey};
use crate::result_cache::{ResultCache, ResultKey};
use crate::slow_log::{SlowLog, SlowQueryEntry};
use crate::stats::RuntimeStats;
use crate::RuntimeConfig;
use gis_core::{ExecOptions, Federation, OptimizerOptions, QueryCtx, QueryMetrics, QueryResult};
use gis_sql::ast::Statement;
use gis_types::mem::{MemBudget, MemPool};
use gis_types::{GisError, Result};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Which lane a session's queries enter the queue through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before any normal-lane work.
    High,
    /// The default lane.
    #[default]
    Normal,
}

/// One admitted query, waiting for (or on) a worker.
pub(crate) struct Job {
    pub sql: String,
    pub optimizer: OptimizerOptions,
    pub exec: ExecOptions,
    pub use_plan_cache: bool,
    pub use_result_cache: bool,
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    pub query_id: u64,
    pub reply: mpsc::SyncSender<Result<QueryResult>>,
}

struct QueueInner {
    high: VecDeque<Job>,
    normal: VecDeque<Job>,
    closed: bool,
}

impl QueueInner {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }
}

/// The bounded two-lane admission queue.
pub(crate) struct JobQueue {
    inner: Mutex<QueueInner>,
    available: Condvar,
    depth: usize,
}

impl JobQueue {
    pub fn new(depth: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            depth,
        }
    }

    /// Admits a job or fails fast with [`GisError::Overloaded`].
    pub fn push(&self, job: Job, priority: Priority) -> Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(GisError::Overloaded("runtime is shutting down".into()));
        }
        if inner.len() >= self.depth {
            return Err(GisError::Overloaded(format!(
                "admission queue full ({} queued); back off and retry",
                self.depth
            )));
        }
        match priority {
            Priority::High => inner.high.push_back(job),
            Priority::Normal => inner.normal.push_back(job),
        }
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job (high lane first). `None` once the
    /// queue is closed and drained.
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = inner.high.pop_front() {
                return Some(job);
            }
            if let Some(job) = inner.normal.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue and returns any jobs still waiting, so the
    /// caller can reply to them.
    pub fn close(&self) -> Vec<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        let mut drained: Vec<Job> = inner.high.drain(..).collect();
        drained.extend(inner.normal.drain(..));
        drop(inner);
        self.available.notify_all();
        drained
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Everything a worker needs; shared between the [`crate::Runtime`],
/// its [`crate::Session`]s, and the worker threads.
pub(crate) struct Shared {
    pub federation: Arc<Federation>,
    pub config: RuntimeConfig,
    pub queue: JobQueue,
    pub plan_cache: PlanCache,
    pub result_cache: ResultCache,
    pub stats: RuntimeStats,
    pub slow_log: SlowLog,
    /// The process-wide memory pool every per-query budget draws from.
    pub mem_pool: Arc<MemPool>,
}

/// The worker loop: pop, account queue wait, execute, reply.
pub(crate) fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        // Interval view refreshes ride the worker loop: the virtual
        // clock only advances with query activity, so a wall-clock
        // timer thread could never pace it. Cheap when nothing is due.
        shared.federation.maintain_views();
        // Likewise for statistics: re-ANALYZE tables whose cardinality
        // feedback shows persistent drift, paced by the same virtual
        // clock and its cooldown.
        shared.federation.maintain_stats();
        let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
        let result = run_job(shared, &job, queue_wait_us);
        match &result {
            Ok(_) => RuntimeStats::bump(&shared.stats.completed),
            Err(GisError::Deadline(_)) => RuntimeStats::bump(&shared.stats.deadline_expired),
            Err(GisError::ResourceExhausted(_)) => RuntimeStats::bump(&shared.stats.mem_killed),
            Err(_) => RuntimeStats::bump(&shared.stats.failed),
        }
        if let (Some(threshold), Ok(r)) = (shared.config.slow_query_us, &result) {
            let wall_us = r.metrics.wall_us as u64;
            if wall_us >= threshold {
                shared.slow_log.record(SlowQueryEntry {
                    query_id: job.query_id,
                    sql: job.sql.clone(),
                    wall_us,
                    queue_wait_us,
                    summary: r.metrics.summary(),
                    trace: r.metrics.trace.clone(),
                });
            }
        }
        // A dropped receiver just means the client stopped waiting.
        let _ = job.reply.send(result);
    }
}

/// Executes one job through the cache hierarchy:
/// result cache → plan cache → full parse→bind→optimize→execute.
fn run_job(shared: &Shared, job: &Job, queue_wait_us: u64) -> Result<QueryResult> {
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            return Err(GisError::Deadline(format!(
                "query {} expired after {:.1} ms in the queue",
                job.query_id,
                queue_wait_us as f64 / 1_000.0
            )));
        }
    }
    let started = Instant::now();
    // Every job executes under its own memory budget drawing on the
    // shared pool; dropping the budget (any exit path) releases the
    // pool bytes it charged.
    let budget = MemBudget::new(
        shared.config.query_mem_limit,
        Some(shared.mem_pool.clone()),
        shared.config.spill_dir.clone(),
        shared.config.spill_cap,
    );
    // The job's envelope, built once: the session's options, the
    // query id and deadline it was admitted under, and its budget.
    let mut ctx = QueryCtx {
        optimizer: job.optimizer,
        exec: job.exec,
        query_id: job.query_id,
        deadline: job.deadline,
        budget: &budget,
    };
    // With the slow log armed, every query traces: the span tree must
    // already exist by the time a query turns out to be slow. Applied
    // before the exec fingerprint, so traced and untraced runs never
    // share a result-cache slot.
    if shared.config.slow_query_us.is_some() {
        ctx.exec.tracing = true;
    }
    let stmt = gis_sql::parse(&job.sql)?;
    if !matches!(stmt, Statement::Query(_)) {
        // EXPLAIN and friends bypass both caches: they are about the
        // *current* plan, and their output is cheap.
        let outcome = shared.federation.run_statement(&stmt, &ctx);
        note_spills(shared, &budget);
        let mut result = outcome?;
        result.metrics.queue_wait_us = queue_wait_us;
        return Ok(result);
    }

    // Frontend: plan cache, or parse→bind→optimize on miss.
    let catalog_version = shared.federation.catalog_version();
    let key = PlanKey::new(&job.sql, catalog_version, &ctx.optimizer);
    // Kept past the plan-cache insert (which consumes `key`): the
    // result cache verifies it on every hit, since its fingerprints
    // alone can collide.
    let normalized_sql = key.sql.clone();
    let (plan, plan_fp, plan_cache_hit) = if job.use_plan_cache {
        match shared.plan_cache.get(&key) {
            Some((plan, fp)) => (plan, fp, true),
            None => {
                let plan = Arc::new(
                    shared
                        .federation
                        .plan_statement_with(&stmt, &ctx.optimizer)?,
                );
                let fp = plan_fingerprint(&key);
                shared.plan_cache.put(key, plan.clone(), fp);
                (plan, fp, false)
            }
        }
    } else {
        shared.plan_cache.count_bypass();
        let plan = Arc::new(
            shared
                .federation
                .plan_statement_with(&stmt, &ctx.optimizer)?,
        );
        (plan, plan_fingerprint(&key), false)
    };

    // Result cache: keyed on plan + exec options, valid only while
    // every source still reports the versions pinned at execution.
    let result_key = ResultKey {
        plan_fp,
        exec_fp: debug_fingerprint(&ctx.exec),
    };
    // Pin only the sources this plan actually reads: a write to an
    // unrelated source must not evict (or block reuse of) the entry.
    // Get and put use the same plan-derived set, so the map compares
    // exactly.
    let versions = shared.federation.data_versions_for(&plan.source_names());
    if job.use_result_cache {
        if let Some(batch) = shared
            .result_cache
            .get(&result_key, &normalized_sql, &versions)
        {
            let metrics = QueryMetrics {
                rows_returned: batch.num_rows(),
                query_id: job.query_id,
                plan_cache_hit,
                result_cache_hit: true,
                queue_wait_us,
                wall_us: started.elapsed().as_micros(),
                ..QueryMetrics::default()
            };
            // Only complete results are ever cached, so a hit is by
            // construction not degraded.
            return Ok(QueryResult {
                batch,
                metrics,
                degraded: None,
            });
        }
    } else {
        shared.result_cache.count_bypass();
    }

    // Backend: execute under the job's deadline, query id and budget.
    let outcome = shared.federation.execute(&plan, &ctx);
    note_spills(shared, &budget);
    let mut result = outcome?;
    result.metrics.plan_cache_hit = plan_cache_hit;
    result.metrics.queue_wait_us = queue_wait_us;
    result.metrics.wall_us = started.elapsed().as_micros();
    // A degraded (partial) result must never enter the result cache:
    // it is a lower bound on the true answer, and serving it after the
    // missing source heals would silently return wrong rows.
    if job.use_result_cache && result.degraded.is_none() {
        shared
            .result_cache
            .put(result_key, normalized_sql, result.batch.clone(), versions);
    }
    Ok(result)
}

/// Folds a finished (or killed) query's spill accounting into the
/// runtime counters — charged on success *and* failure, since a query
/// can spill plenty before its budget finally kills it.
fn note_spills(shared: &Shared, budget: &MemBudget) {
    let bytes = budget.spilled();
    let events = budget.spill_events();
    if bytes > 0 {
        shared
            .stats
            .spilled_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }
    if events > 0 {
        shared
            .stats
            .spill_events
            .fetch_add(events, Ordering::Relaxed);
    }
}

/// The plan fingerprint used as the result-cache key component. The
/// [`PlanKey`] already encodes normalized SQL, catalog version and
/// optimizer options, so hashing it is both stable and collision-safe
/// across catalog changes.
fn plan_fingerprint(key: &PlanKey) -> u64 {
    debug_fingerprint(&(&key.sql, key.catalog_version, key.optimizer_fp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_job(id: u64) -> (Job, mpsc::Receiver<Result<QueryResult>>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (
            Job {
                sql: "SELECT 1".into(),
                optimizer: OptimizerOptions::default(),
                exec: ExecOptions::default(),
                use_plan_cache: true,
                use_result_cache: true,
                deadline: None,
                enqueued: Instant::now(),
                query_id: id,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn queue_rejects_when_full() {
        let q = JobQueue::new(2);
        let (j1, _r1) = dummy_job(1);
        let (j2, _r2) = dummy_job(2);
        let (j3, _r3) = dummy_job(3);
        q.push(j1, Priority::Normal).unwrap();
        q.push(j2, Priority::Normal).unwrap();
        let err = q.push(j3, Priority::Normal).unwrap_err();
        assert_eq!(err.code(), "OVERLOADED");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn high_lane_pops_first() {
        let q = JobQueue::new(8);
        let (j1, _r1) = dummy_job(1);
        let (j2, _r2) = dummy_job(2);
        q.push(j1, Priority::Normal).unwrap();
        q.push(j2, Priority::High).unwrap();
        assert_eq!(q.pop().unwrap().query_id, 2);
        assert_eq!(q.pop().unwrap().query_id, 1);
    }

    #[test]
    fn close_drains_and_rejects() {
        let q = JobQueue::new(8);
        let (j1, _r1) = dummy_job(1);
        q.push(j1, Priority::Normal).unwrap();
        let drained = q.close();
        assert_eq!(drained.len(), 1);
        assert!(q.pop().is_none());
        let (j2, _r2) = dummy_job(2);
        assert!(q.push(j2, Priority::Normal).is_err());
    }
}
