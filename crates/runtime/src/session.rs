//! Sessions: per-client handles with scoped option overrides.

use crate::scheduler::{Job, Priority, Shared};
use crate::stats::RuntimeStats;
use gis_core::{ExecOptions, OptimizerOptions, QueryResult};
use gis_types::{GisError, Result};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A client handle onto a [`crate::Runtime`].
///
/// Sessions are cheap and thread-confined (`&mut self` setters); the
/// runtime behind them is shared. Every knob is session-scoped — two
/// sessions on one runtime can run with different optimizer settings,
/// deadlines and cache policies without touching each other, because
/// options travel with each submitted job instead of mutating
/// federation state.
pub struct Session {
    pub(crate) shared: Arc<Shared>,
    pub(crate) id: u64,
    optimizer: OptimizerOptions,
    exec: ExecOptions,
    plan_cache_enabled: bool,
    result_cache_enabled: bool,
    deadline: Option<Duration>,
    priority: Priority,
}

impl Session {
    pub(crate) fn new(shared: Arc<Shared>, id: u64) -> Self {
        let deadline = shared.config.default_deadline;
        Session {
            optimizer: shared.federation.optimizer_options(),
            exec: shared.federation.exec_options(),
            shared,
            id,
            plan_cache_enabled: true,
            result_cache_enabled: true,
            deadline,
            priority: Priority::Normal,
        }
    }

    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Overrides the optimizer options for this session only.
    pub fn set_optimizer_options(&mut self, options: OptimizerOptions) -> &mut Self {
        self.optimizer = options;
        self
    }

    /// Current session optimizer options.
    pub fn optimizer_options(&self) -> OptimizerOptions {
        self.optimizer
    }

    /// Overrides the execution options for this session only.
    pub fn set_exec_options(&mut self, options: ExecOptions) -> &mut Self {
        self.exec = options;
        self
    }

    /// Current session execution options.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    /// Enables or disables the plan cache for this session (ablation).
    pub fn set_plan_cache(&mut self, enabled: bool) -> &mut Self {
        self.plan_cache_enabled = enabled;
        self
    }

    /// Enables or disables the result cache for this session.
    pub fn set_result_cache(&mut self, enabled: bool) -> &mut Self {
        self.result_cache_enabled = enabled;
        self
    }

    /// Disables both caches — the cold-path baseline for ablations.
    pub fn set_caching(&mut self, enabled: bool) -> &mut Self {
        self.plan_cache_enabled = enabled;
        self.result_cache_enabled = enabled;
        self
    }

    /// Sets the per-query deadline (`None` = run to completion),
    /// overriding the runtime default.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> &mut Self {
        self.deadline = deadline;
        self
    }

    /// Sets the admission lane for this session's queries.
    pub fn set_priority(&mut self, priority: Priority) -> &mut Self {
        self.priority = priority;
        self
    }

    /// Submits `sql` and blocks for the result.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.submit(sql)?.wait()
    }

    /// Submits `sql` without waiting. Fails fast with
    /// [`GisError::Overloaded`] when the admission queue is full, or
    /// [`GisError::ResourceExhausted`] when the process memory pool
    /// has no headroom for another query.
    pub fn submit(&self, sql: &str) -> Result<PendingQuery> {
        // Admission control for memory, distinct from queue pressure:
        // dispatching into an exhausted pool would just burn a worker
        // until the budget kills the query anyway.
        if self.shared.mem_pool.available() == 0 {
            RuntimeStats::bump(&self.shared.stats.mem_rejected);
            return Err(GisError::ResourceExhausted(
                "process memory pool exhausted; admission refused".into(),
            ));
        }
        let query_id = self.shared.federation.next_query_id();
        let (reply, rx) = mpsc::sync_channel(1);
        let job = Job {
            sql: sql.to_string(),
            optimizer: self.optimizer,
            exec: self.exec,
            use_plan_cache: self.plan_cache_enabled,
            use_result_cache: self.result_cache_enabled,
            deadline: self.deadline.map(|d| Instant::now() + d),
            enqueued: Instant::now(),
            query_id,
            reply,
        };
        match self.shared.queue.push(job, self.priority) {
            Ok(()) => {
                RuntimeStats::bump(&self.shared.stats.submitted);
                Ok(PendingQuery { rx, query_id })
            }
            Err(e) => {
                RuntimeStats::bump(&self.shared.stats.rejected);
                Err(e)
            }
        }
    }
}

/// A submitted query that has not been waited on yet.
pub struct PendingQuery {
    rx: mpsc::Receiver<Result<QueryResult>>,
    query_id: u64,
}

impl PendingQuery {
    /// The runtime-assigned query id (also in the result's metrics).
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Blocks until the query finishes.
    pub fn wait(self) -> Result<QueryResult> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(GisError::Overloaded(
                "runtime shut down before the query completed".into(),
            ))
        })
    }

    /// Returns the result if it is ready, `None` otherwise.
    pub fn try_wait(&self) -> Option<Result<QueryResult>> {
        self.rx.try_recv().ok()
    }
}
