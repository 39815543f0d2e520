//! Aggregate runtime counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters the scheduler and caches bump as they work.
#[derive(Debug, Default)]
pub(crate) struct RuntimeStats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub mem_rejected: AtomicU64,
    pub mem_killed: AtomicU64,
    pub spilled_bytes: AtomicU64,
    pub spill_events: AtomicU64,
}

impl RuntimeStats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of every runtime counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries admitted to the queue.
    pub submitted: u64,
    /// Queries that produced a result (ok).
    pub completed: u64,
    /// Queries that produced an error (excluding rejections and
    /// deadline expiries, which have their own counters).
    pub failed: u64,
    /// Submissions refused at admission (queue full).
    pub rejected: u64,
    /// Queries cancelled because their deadline passed — in the queue
    /// or mid-execution.
    pub deadline_expired: u64,
    /// Plan cache hits.
    pub plan_cache_hits: u64,
    /// Plan cache misses (includes bypasses with the cache disabled).
    pub plan_cache_misses: u64,
    /// Plan cache entries currently resident.
    pub plan_cache_entries: u64,
    /// Result cache hits.
    pub result_cache_hits: u64,
    /// Result cache misses (includes bypasses and invalidations).
    pub result_cache_misses: u64,
    /// Result cache lookups whose fingerprints matched an entry built
    /// from different SQL — verified and counted as misses.
    pub result_cache_collisions: u64,
    /// Result cache bytes currently resident.
    pub result_cache_bytes: u64,
    /// Queries recorded in the slow-query log so far.
    pub slow_queries: u64,
    /// Slow-query log entries evicted because the ring was full.
    pub slow_log_dropped: u64,
    /// Submissions refused at admission because the memory pool was
    /// exhausted (distinct from queue-full rejections).
    pub mem_rejected: u64,
    /// Queries cancelled mid-execution with `ResourceExhausted`.
    pub mem_killed: u64,
    /// Cumulative bytes hash and sort kernels spilled to disk.
    pub spilled_bytes: u64,
    /// Spill degradations (kernels that fell back to disk).
    pub spill_events: u64,
    /// Memory pool bytes currently reserved.
    pub mem_pool_used: u64,
    /// Memory pool high-water mark since startup.
    pub mem_pool_peak: u64,
    /// Memory pool configured capacity.
    pub mem_pool_capacity: u64,
}

impl StatsSnapshot {
    /// A two-column table rendering, mirroring
    /// `QueryMetrics::to_table` for report binaries.
    pub fn to_table(&self) -> String {
        let rows = [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("rejected", self.rejected),
            ("deadline_expired", self.deadline_expired),
            ("plan_cache_hits", self.plan_cache_hits),
            ("plan_cache_misses", self.plan_cache_misses),
            ("plan_cache_entries", self.plan_cache_entries),
            ("result_cache_hits", self.result_cache_hits),
            ("result_cache_misses", self.result_cache_misses),
            ("result_cache_collisions", self.result_cache_collisions),
            ("result_cache_bytes", self.result_cache_bytes),
            ("slow_queries", self.slow_queries),
            ("slow_log_dropped", self.slow_log_dropped),
            ("mem_rejected", self.mem_rejected),
            ("mem_killed", self.mem_killed),
            ("spilled_bytes", self.spilled_bytes),
            ("spill_events", self.spill_events),
            ("mem_pool_used", self.mem_pool_used),
            ("mem_pool_peak", self.mem_pool_peak),
        ];
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }
}
