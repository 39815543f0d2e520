//! # gis-runtime — the serving layer over a [`Federation`]
//!
//! The core crates answer *how* to run one federated query well; this
//! crate answers what a mediator actually deploys: many concurrent
//! clients, repeated query shapes, and sources whose data moves under
//! it. It wraps a [`Federation`] in four cooperating pieces:
//!
//! * **Sessions** ([`Session`]) — per-client handles carrying scoped
//!   [`OptimizerOptions`]/[`ExecOptions`] overrides, deadlines, an
//!   admission priority, and cache-ablation switches. Options travel
//!   with each job, so sessions never mutate shared federation state.
//! * **Scheduler** — a fixed worker pool fed by a bounded two-lane
//!   queue. Admission control fails fast: a full queue returns
//!   [`gis_types::GisError::Overloaded`] instead of blocking, and
//!   queries whose deadline passes are cancelled — in the queue or
//!   mid-execution via the engine's deadline checks.
//! * **Plan cache** — memoized parse→bind→optimize keyed on
//!   normalized SQL + catalog version + optimizer options. Skips the
//!   frontend entirely on repeated query shapes.
//! * **Result cache** — whole results for read-only queries, keyed on
//!   plan fingerprint + execution options, pinned to per-source data
//!   versions. A hit ships zero bytes over any link; any source load
//!   or mapping change invalidates affected entries.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use gis_core::Federation;
//! # use gis_runtime::{Runtime, RuntimeConfig};
//! let fed = Arc::new(Federation::new());
//! let runtime = Runtime::new(fed, RuntimeConfig::default());
//! let session = runtime.session();
//! let result = session.query("SELECT 1 AS x")?;
//! assert_eq!(result.metrics.query_id, 1);
//! # Ok::<(), gis_types::GisError>(())
//! ```

mod config;
mod plan_cache;
mod result_cache;
mod scheduler;
mod session;
mod slow_log;
mod stats;

pub use config::RuntimeConfig;
pub use scheduler::Priority;
pub use session::{PendingQuery, Session};
pub use slow_log::SlowQueryEntry;
pub use stats::StatsSnapshot;

use gis_core::{ExecOptions, Federation, OptimizerOptions};
use gis_observe::TextExposition;
use gis_types::mem::MemPool;
use plan_cache::PlanCache;
use result_cache::ResultCache;
use scheduler::{worker_loop, JobQueue, Shared};
use slow_log::SlowLog;
use stats::RuntimeStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The serving runtime: a worker pool plus caches over a federation.
pub struct Runtime {
    shared: Arc<Shared>,
    next_session: AtomicU64,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Starts a runtime with `config.workers` worker threads.
    pub fn new(federation: Arc<Federation>, config: RuntimeConfig) -> Runtime {
        let worker_count = config.workers.max(1);
        // One process-wide pool: per-query budgets, the result cache,
        // and resident views all draw from (or overcommit against) it.
        let mem_pool = Arc::new(MemPool::new(config.total_mem_pool));
        federation.views().set_mem_pool(mem_pool.clone());
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_depth),
            plan_cache: PlanCache::new(config.plan_cache_capacity, mem_pool.clone()),
            result_cache: ResultCache::new(config.result_cache_bytes, mem_pool.clone()),
            stats: RuntimeStats::default(),
            slow_log: SlowLog::new(config.slow_log_capacity),
            federation,
            config,
            mem_pool,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("gis-runtime-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime {
            shared,
            next_session: AtomicU64::new(1),
            workers,
        }
    }

    /// The federation this runtime serves.
    pub fn federation(&self) -> &Arc<Federation> {
        &self.shared.federation
    }

    /// The configuration the runtime was started with.
    pub fn config(&self) -> RuntimeConfig {
        self.shared.config.clone()
    }

    /// Opens a new session with the federation's current options.
    pub fn session(&self) -> Session {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        Session::new(self.shared.clone(), id)
    }

    /// Opens a session with explicit option overrides.
    pub fn session_with(&self, optimizer: OptimizerOptions, exec: ExecOptions) -> Session {
        let mut session = self.session();
        session.set_optimizer_options(optimizer);
        session.set_exec_options(exec);
        session
    }

    /// Queries currently waiting for a worker.
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// A snapshot of every runtime counter.
    pub fn stats(&self) -> StatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let s = &self.shared.stats;
        StatsSnapshot {
            submitted: s.submitted.load(Relaxed),
            completed: s.completed.load(Relaxed),
            failed: s.failed.load(Relaxed),
            rejected: s.rejected.load(Relaxed),
            deadline_expired: s.deadline_expired.load(Relaxed),
            plan_cache_hits: self.shared.plan_cache.hits(),
            plan_cache_misses: self.shared.plan_cache.misses(),
            plan_cache_entries: self.shared.plan_cache.len() as u64,
            result_cache_hits: self.shared.result_cache.hits(),
            result_cache_misses: self.shared.result_cache.misses(),
            result_cache_collisions: self.shared.result_cache.collisions(),
            result_cache_bytes: self.shared.result_cache.bytes(),
            slow_queries: self.shared.slow_log.recorded(),
            slow_log_dropped: self.shared.slow_log.dropped(),
            mem_rejected: s.mem_rejected.load(Relaxed),
            mem_killed: s.mem_killed.load(Relaxed),
            spilled_bytes: s.spilled_bytes.load(Relaxed),
            spill_events: s.spill_events.load(Relaxed),
            mem_pool_used: self.shared.mem_pool.used(),
            mem_pool_peak: self.shared.mem_pool.peak(),
            mem_pool_capacity: self.shared.mem_pool.capacity(),
        }
    }

    /// Resident slow-query log entries, oldest first. Empty unless
    /// [`RuntimeConfig::slow_query_us`] is set.
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.shared.slow_log.entries()
    }

    /// Renders every runtime, cache, per-link, and per-source counter
    /// in the Prometheus text exposition format — the scrape surface a
    /// deployment wires to its monitoring.
    pub fn render_text(&self) -> String {
        let stats = self.stats();
        let mut expo = TextExposition::new();
        expo.header("gis_queries_total", "counter", "Queries by final state");
        for (state, value) in [
            ("submitted", stats.submitted),
            ("completed", stats.completed),
            ("failed", stats.failed),
            ("rejected", stats.rejected),
            ("deadline_expired", stats.deadline_expired),
            ("mem_rejected", stats.mem_rejected),
            ("mem_killed", stats.mem_killed),
        ] {
            expo.sample("gis_queries_total", &[("state", state)], value);
        }
        expo.header(
            "gis_mem_pool_bytes",
            "gauge",
            "Process memory pool (used may overcommit capacity via resident views)",
        );
        for (state, value) in [
            ("used", stats.mem_pool_used),
            ("peak", stats.mem_pool_peak),
            ("capacity", stats.mem_pool_capacity),
        ] {
            expo.sample("gis_mem_pool_bytes", &[("state", state)], value);
        }
        expo.header(
            "gis_spill_bytes_total",
            "counter",
            "Bytes hash and sort kernels spilled to disk under memory pressure",
        );
        expo.sample("gis_spill_bytes_total", &[], stats.spilled_bytes);
        expo.header(
            "gis_spill_events_total",
            "counter",
            "Kernel degradations to spilled execution",
        );
        expo.sample("gis_spill_events_total", &[], stats.spill_events);
        expo.header("gis_queue_depth", "gauge", "Queries waiting for a worker");
        expo.sample("gis_queue_depth", &[], self.queued() as u64);
        expo.header("gis_plan_cache_total", "counter", "Plan cache outcomes");
        expo.sample(
            "gis_plan_cache_total",
            &[("event", "hit")],
            stats.plan_cache_hits,
        );
        expo.sample(
            "gis_plan_cache_total",
            &[("event", "miss")],
            stats.plan_cache_misses,
        );
        expo.header("gis_plan_cache_entries", "gauge", "Resident cached plans");
        expo.sample("gis_plan_cache_entries", &[], stats.plan_cache_entries);
        expo.header("gis_result_cache_total", "counter", "Result cache outcomes");
        expo.sample(
            "gis_result_cache_total",
            &[("event", "hit")],
            stats.result_cache_hits,
        );
        expo.sample(
            "gis_result_cache_total",
            &[("event", "miss")],
            stats.result_cache_misses,
        );
        expo.sample(
            "gis_result_cache_total",
            &[("event", "collision")],
            stats.result_cache_collisions,
        );
        expo.header("gis_result_cache_bytes", "gauge", "Resident result bytes");
        expo.sample("gis_result_cache_bytes", &[], stats.result_cache_bytes);
        expo.header(
            "gis_slow_queries_total",
            "counter",
            "Queries recorded in the slow-query log",
        );
        expo.sample("gis_slow_queries_total", &[], stats.slow_queries);
        expo.header(
            "gis_slow_log_dropped_total",
            "counter",
            "Slow-log entries evicted because the ring was full",
        );
        expo.sample("gis_slow_log_dropped_total", &[], stats.slow_log_dropped);
        let fed = &self.shared.federation;
        expo.header(
            "gis_wire_bytes",
            "counter",
            "Response payload bytes before (raw) and after (compressed) wire encoding",
        );
        let wire = fed.wire_stats();
        expo.sample("gis_wire_bytes", &[("kind", "raw")], wire.raw_bytes());
        expo.sample(
            "gis_wire_bytes",
            &[("kind", "compressed")],
            wire.wire_bytes(),
        );
        expo.header(
            "gis_wire_frames_total",
            "counter",
            "Response frames encoded for the wire",
        );
        expo.sample("gis_wire_frames_total", &[], wire.frames());
        expo.header(
            "gis_wire_columns_total",
            "counter",
            "Encoded columns by the codec each one selected",
        );
        for codec in gis_net::ColumnCodec::all() {
            expo.sample(
                "gis_wire_columns_total",
                &[("codec", codec.name())],
                wire.columns(codec),
            );
        }
        expo.header("gis_link_bytes_total", "counter", "Bytes shipped per link");
        // One series per *link*, not per logical source: every replica
        // reports under its own link name (`crm`, `crm@r1`, …).
        let links: Vec<_> = fed
            .all_links()
            .into_iter()
            .map(|l| (l.name().to_string(), l))
            .collect();
        for (name, link) in &links {
            expo.sample(
                "gis_link_bytes_total",
                &[("source", name)],
                link.metrics().bytes(),
            );
        }
        expo.header("gis_link_messages_total", "counter", "Messages per link");
        for (name, link) in &links {
            expo.sample(
                "gis_link_messages_total",
                &[("source", name)],
                link.metrics().messages(),
            );
        }
        expo.header(
            "gis_link_failures_total",
            "counter",
            "Transient link failures (including retried)",
        );
        for (name, link) in &links {
            expo.sample(
                "gis_link_failures_total",
                &[("source", name)],
                link.metrics().failures(),
            );
        }
        expo.header(
            "gis_link_busy_us_total",
            "counter",
            "Virtual microseconds each link was busy",
        );
        for (name, link) in &links {
            expo.sample(
                "gis_link_busy_us_total",
                &[("source", name)],
                link.metrics().busy_us(),
            );
        }
        expo.header(
            "gis_link_retries_total",
            "counter",
            "Retry attempts per link",
        );
        for (name, link) in &links {
            expo.sample(
                "gis_link_retries_total",
                &[("source", name)],
                link.metrics().retries(),
            );
        }
        expo.header(
            "gis_link_breaker_state",
            "gauge",
            "Circuit-breaker state per link (0=closed, 1=half-open, 2=open)",
        );
        for (name, link) in &links {
            expo.sample(
                "gis_link_breaker_state",
                &[("source", name)],
                link.breaker_state().as_gauge(),
            );
        }
        expo.header(
            "gis_link_breaker_opens_total",
            "counter",
            "Closed-to-open breaker transitions per link",
        );
        for (name, link) in &links {
            expo.sample(
                "gis_link_breaker_opens_total",
                &[("source", name)],
                link.breaker().opens(),
            );
        }
        expo.header(
            "gis_link_fast_failures_total",
            "counter",
            "Requests failed fast by an open breaker (no wire latency paid)",
        );
        for (name, link) in &links {
            expo.sample(
                "gis_link_fast_failures_total",
                &[("source", name)],
                link.breaker().fast_failures(),
            );
        }
        expo.header(
            "gis_source_data_version",
            "gauge",
            "Per-source data version (bumps invalidate cached results)",
        );
        for (name, version) in fed.data_versions() {
            expo.sample("gis_source_data_version", &[("source", &name)], version);
        }
        let views = fed.view_gauges();
        if !views.is_empty() {
            expo.header(
                "gis_view_fresh",
                "gauge",
                "1 when the materialized view is fresh, 0 when stale or empty",
            );
            for v in &views {
                expo.sample(
                    "gis_view_fresh",
                    &[("view", &v.name), ("policy", &v.policy)],
                    v.fresh,
                );
            }
            expo.header(
                "gis_view_lagging_sources",
                "gauge",
                "Sources whose data_version moved past the view's pinned snapshot",
            );
            for v in &views {
                expo.sample(
                    "gis_view_lagging_sources",
                    &[("view", &v.name)],
                    v.lagging_sources,
                );
            }
            expo.header("gis_view_rows", "gauge", "Materialized rows per view");
            for v in &views {
                expo.sample("gis_view_rows", &[("view", &v.name)], v.rows);
            }
            expo.header(
                "gis_view_bytes",
                "gauge",
                "Materialized wire bytes per view",
            );
            for v in &views {
                expo.sample("gis_view_bytes", &[("view", &v.name)], v.bytes);
            }
            expo.header(
                "gis_view_hits_total",
                "counter",
                "Queries answered (in part) from this view",
            );
            for v in &views {
                expo.sample("gis_view_hits_total", &[("view", &v.name)], v.hits);
            }
            expo.header(
                "gis_view_stale_skips_total",
                "counter",
                "Matches the rewriter declined because the view was stale",
            );
            for v in &views {
                expo.sample(
                    "gis_view_stale_skips_total",
                    &[("view", &v.name)],
                    v.stale_skips,
                );
            }
            expo.header(
                "gis_view_refreshes_total",
                "counter",
                "Completed (re-)materializations per view",
            );
            for v in &views {
                expo.sample(
                    "gis_view_refreshes_total",
                    &[("view", &v.name)],
                    v.refreshes,
                );
            }
            expo.header(
                "gis_view_refresh_rows_total",
                "counter",
                "Cumulative rows shipped by refreshes (the refresh cost)",
            );
            for v in &views {
                expo.sample(
                    "gis_view_refresh_rows_total",
                    &[("view", &v.name)],
                    v.refresh_rows,
                );
            }
        }
        let stats = fed.stats_gauges();
        expo.header(
            "gis_stats_tables_analyzed_total",
            "counter",
            "Tables ANALYZE has collected statistics for (counting repeats)",
        );
        expo.sample(
            "gis_stats_tables_analyzed_total",
            &[],
            stats.tables_analyzed,
        );
        expo.header(
            "gis_stats_analyze_bytes_total",
            "counter",
            "Wire bytes shipped by ANALYZE traffic (priced on the virtual clock)",
        );
        expo.sample("gis_stats_analyze_bytes_total", &[], stats.analyze_bytes);
        expo.header(
            "gis_stats_reanalyze_scheduled_total",
            "counter",
            "Re-ANALYZEs the cardinality-feedback loop has scheduled",
        );
        expo.sample(
            "gis_stats_reanalyze_scheduled_total",
            &[],
            stats.reanalyze_scheduled,
        );
        expo.header(
            "gis_stats_feedback_samples_total",
            "counter",
            "Estimated-vs-actual cardinality samples recorded",
        );
        expo.sample(
            "gis_stats_feedback_samples_total",
            &[],
            stats.samples_recorded,
        );
        expo.header(
            "gis_stats_qerror_median_milli",
            "gauge",
            "Median q-error over the feedback ring, scaled by 1000 (1000 = perfect)",
        );
        expo.sample(
            "gis_stats_qerror_median_milli",
            &[],
            (stats.qerror_median * 1_000.0).round() as u64,
        );
        expo.header(
            "gis_stats_qerror_max_milli",
            "gauge",
            "Maximum q-error over the feedback ring, scaled by 1000",
        );
        expo.sample(
            "gis_stats_qerror_max_milli",
            &[],
            (stats.qerror_max * 1_000.0).round() as u64,
        );
        if !stats.tables.is_empty() {
            expo.header(
                "gis_stats_table_drift_milli",
                "gauge",
                "Per-table median q-error over the recent window, scaled by 1000",
            );
            for t in &stats.tables {
                expo.sample(
                    "gis_stats_table_drift_milli",
                    &[("source", &t.source), ("table", &t.table)],
                    (t.median_q * 1_000.0).round() as u64,
                );
            }
            expo.header(
                "gis_stats_table_analyzed_total",
                "counter",
                "ANALYZE runs that have covered this table",
            );
            for t in &stats.tables {
                expo.sample(
                    "gis_stats_table_analyzed_total",
                    &[("source", &t.source), ("table", &t.table)],
                    t.analyzed,
                );
            }
        }
        expo.render()
    }

    /// Stops accepting work, fails queued queries with
    /// [`gis_types::GisError::Overloaded`], and joins the workers.
    /// In-flight queries run to completion first.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for job in self.shared.queue.close() {
            let _ = job.reply.send(Err(gis_types::GisError::Overloaded(
                "runtime is shutting down".into(),
            )));
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
