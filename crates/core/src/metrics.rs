//! Per-query execution metrics.
//!
//! The currency of a federated engine is traffic, not CPU: every
//! experiment in EXPERIMENTS.md reports bytes, messages and virtual
//! network time per query. Metrics are computed by snapshotting each
//! link's counters before and after execution and diffing, so
//! concurrent accounting stays exact without threading a context
//! through every operator.

use gis_net::Link;
use gis_observe::Span;
use std::collections::BTreeMap;
use std::fmt;

/// Traffic attributed to one source during one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceTraffic {
    /// Bytes over the link (both directions), as priced by the
    /// simulated network — i.e. *after* wire compression.
    pub bytes: u64,
    /// The same traffic before compression (decoded payload size).
    /// Equal to `bytes` when compression is off; the gap between the
    /// two is what the adaptive codecs saved on this link.
    pub raw_bytes: u64,
    /// Messages over the link.
    pub messages: u64,
    /// Transient failures observed (including retried ones).
    pub failures: u64,
    /// Retry attempts the adapter made against the link.
    pub retries: u64,
    /// Virtual time the link was busy, microseconds.
    pub busy_us: u64,
}

/// Everything measured about one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Total bytes shipped over all links — the *wire* size the
    /// simulated network actually charged for (post-compression).
    pub bytes_shipped: u64,
    /// Total payload bytes before compression. `bytes_raw -
    /// bytes_wire` is what the codecs saved this query; the two are
    /// equal when compression is off.
    pub bytes_raw: u64,
    /// Alias of [`QueryMetrics::bytes_shipped`], kept as a separate
    /// counter so report code can print the raw/wire pair without
    /// knowing which legacy name carries the wire meaning.
    pub bytes_wire: u64,
    /// Total messages.
    pub messages: u64,
    /// Total transient failures (retried or fatal).
    pub failures: u64,
    /// Total retry attempts across all links.
    pub retries: u64,
    /// Virtual network time elapsed on the shared clock, µs: every
    /// link's time summed, whether or not fetches overlapped — the
    /// query's total network work.
    pub virtual_network_us: u64,
    /// The query's longest chain of virtual link time, µs: each fetch
    /// counts the time it paid (retries and backoff included), fetches
    /// that ran together count the longest of them, and dependent steps
    /// add up. What the query waited on the network; equals
    /// `virtual_network_us` when nothing overlapped.
    pub virtual_elapsed_us: u64,
    /// Rows in the final result.
    pub rows_returned: usize,
    /// Host wall-clock time, µs (CPU + simulated accounting overhead;
    /// *not* comparable across machines — use `virtual_network_us`).
    pub wall_us: u128,
    /// Per-source traffic breakdown.
    pub per_source: BTreeMap<String, SourceTraffic>,
    /// Number of source fragments the plan shipped.
    pub fragments: usize,
    /// Runtime-assigned query id (0 for ad-hoc `Federation::query`
    /// calls outside a runtime session).
    pub query_id: u64,
    /// True when the frontend (parse→bind→optimize) was skipped
    /// because the runtime's plan cache already held the plan.
    pub plan_cache_hit: bool,
    /// True when the whole result came from the runtime's result
    /// cache (no planning, no execution, no traffic).
    pub result_cache_hit: bool,
    /// Host time the query spent waiting in the scheduler queue
    /// before a worker picked it up, µs.
    pub queue_wait_us: u64,
    /// Per-operator span tree, present when the query ran with
    /// [`crate::ExecOptions::tracing`] on (`EXPLAIN ANALYZE`, the
    /// slow-query log). Remote-fragment subtrees were reported by the
    /// sources themselves over the wire.
    pub trace: Option<Span>,
    /// Names of the materialized views that answered (parts of) this
    /// query, in match order; a view appears once per subtree it
    /// replaced. Empty when the plan ran entirely from sources.
    pub views_used: Vec<String>,
}

impl QueryMetrics {
    /// Virtual network time in milliseconds.
    pub fn virtual_network_ms(&self) -> f64 {
        self.virtual_network_us as f64 / 1_000.0
    }

    /// The busiest single link's time, µs: a lower bound on
    /// [`QueryMetrics::virtual_elapsed_us`], reached only when every
    /// other link's fetches overlap the busiest one's.
    pub fn virtual_parallel_us(&self) -> u64 {
        self.per_source
            .values()
            .map(|t| t.busy_us)
            .max()
            .unwrap_or(0)
    }

    /// [`QueryMetrics::virtual_elapsed_us`] in milliseconds.
    pub fn virtual_elapsed_ms(&self) -> f64 {
        self.virtual_elapsed_us as f64 / 1_000.0
    }

    /// [`QueryMetrics::virtual_parallel_us`] in milliseconds.
    pub fn virtual_parallel_ms(&self) -> f64 {
        self.virtual_parallel_us() as f64 / 1_000.0
    }

    /// A compact single-line summary for reports. Runtime-tier fields
    /// (query id, cache hits, queue wait) appear only when set, so
    /// ad-hoc queries keep the short classic form.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "rows={} bytes={} msgs={} net_ms={:.2} fragments={}",
            self.rows_returned,
            self.bytes_shipped,
            self.messages,
            self.virtual_network_ms(),
            self.fragments
        );
        if self.bytes_raw != self.bytes_wire {
            s.push_str(&format!(" raw_bytes={}", self.bytes_raw));
        }
        if self.query_id != 0 {
            s.push_str(&format!(" qid={}", self.query_id));
        }
        if self.plan_cache_hit {
            s.push_str(" plan_cache=hit");
        }
        if self.result_cache_hit {
            s.push_str(" result_cache=hit");
        }
        if self.queue_wait_us != 0 {
            s.push_str(&format!(
                " queue_wait_ms={:.2}",
                self.queue_wait_us as f64 / 1_000.0
            ));
        }
        if !self.views_used.is_empty() {
            s.push_str(&format!(" views=[{}]", self.views_used.join(", ")));
        }
        s
    }

    /// A two-column table rendering of every counter — what report
    /// binaries print when they want the full picture without
    /// hand-rolled formatting.
    pub fn to_table(&self) -> String {
        let mut rows: Vec<(String, String)> = vec![
            ("rows_returned".into(), self.rows_returned.to_string()),
            ("bytes_shipped".into(), self.bytes_shipped.to_string()),
            ("bytes_raw".into(), self.bytes_raw.to_string()),
            ("messages".into(), self.messages.to_string()),
            ("failures".into(), self.failures.to_string()),
            ("retries".into(), self.retries.to_string()),
            ("fragments".into(), self.fragments.to_string()),
            (
                "virtual_network_ms".into(),
                format!("{:.3}", self.virtual_network_ms()),
            ),
            (
                "virtual_elapsed_ms".into(),
                format!("{:.3}", self.virtual_elapsed_ms()),
            ),
            (
                "virtual_parallel_ms".into(),
                format!("{:.3}", self.virtual_parallel_ms()),
            ),
            (
                "wall_ms".into(),
                format!("{:.3}", self.wall_us as f64 / 1_000.0),
            ),
            ("query_id".into(), self.query_id.to_string()),
            (
                "plan_cache".into(),
                if self.plan_cache_hit { "hit" } else { "miss" }.into(),
            ),
            (
                "result_cache".into(),
                if self.result_cache_hit { "hit" } else { "miss" }.into(),
            ),
            (
                "queue_wait_ms".into(),
                format!("{:.3}", self.queue_wait_us as f64 / 1_000.0),
            ),
        ];
        for (src, t) in &self.per_source {
            rows.push((
                format!("source[{src}]"),
                format!(
                    "bytes={} msgs={} busy_us={}",
                    t.bytes, t.messages, t.busy_us
                ),
            ));
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }
}

impl fmt::Display for QueryMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for (src, t) in &self.per_source {
            writeln!(
                f,
                "  {src}: bytes={} msgs={} busy_ms={:.2}{}",
                t.bytes,
                t.messages,
                t.busy_us as f64 / 1_000.0,
                if t.failures > 0 || t.retries > 0 {
                    format!(" failures={} retries={}", t.failures, t.retries)
                } else {
                    String::new()
                }
            )?;
        }
        Ok(())
    }
}

/// One source a degraded query could not reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedSource {
    /// The logical source name.
    pub source: String,
    /// The availability error that exhausted every replica,
    /// rendered (`CODE: message`).
    pub error: String,
}

/// What a partial result is missing.
///
/// Produced only under [`crate::ExecOptions::partial_results`]: when a
/// source (and every replica of it) is unreachable, its fragments
/// contribute zero rows and the query *succeeds* with this report
/// attached to [`crate::QueryResult::degraded`]. A degraded result is
/// an explicit lower bound on the true answer — callers must treat it
/// as incomplete, and caches must never store it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedReport {
    /// The unreachable sources, sorted by name, one entry per source.
    pub missing: Vec<DegradedSource>,
}

impl DegradedReport {
    /// Names of the missing sources, in report order.
    pub fn sources(&self) -> Vec<&str> {
        self.missing.iter().map(|d| d.source.as_str()).collect()
    }

    /// One-line rendering: `missing=[a, b]`.
    pub fn summary(&self) -> String {
        format!("missing=[{}]", self.sources().join(", "))
    }
}

/// A point-in-time snapshot of a set of links' counters.
#[derive(Debug, Clone)]
pub struct TrafficSnapshot {
    per_link: BTreeMap<String, SourceTraffic>,
    clock_us: u64,
}

impl TrafficSnapshot {
    /// Captures the counters of `links` and the shared clock.
    pub fn capture<'a>(
        links: impl IntoIterator<Item = &'a Link>,
        clock: &gis_net::SimClock,
    ) -> Self {
        let per_link = links
            .into_iter()
            .map(|l| {
                let m = l.metrics();
                (
                    l.name().to_string(),
                    SourceTraffic {
                        bytes: m.bytes(),
                        raw_bytes: m.raw_bytes(),
                        messages: m.messages(),
                        failures: m.failures(),
                        retries: m.retries(),
                        busy_us: m.busy_us(),
                    },
                )
            })
            .collect();
        TrafficSnapshot {
            per_link,
            clock_us: clock.now_us(),
        }
    }

    /// Traffic since `self`, per source and total.
    pub fn diff_against<'a>(
        &self,
        links: impl IntoIterator<Item = &'a Link>,
        clock: &gis_net::SimClock,
    ) -> QueryMetrics {
        let now = TrafficSnapshot::capture(links, clock);
        let mut m = QueryMetrics {
            virtual_network_us: now.clock_us.saturating_sub(self.clock_us),
            ..QueryMetrics::default()
        };
        for (name, after) in &now.per_link {
            let before = self.per_link.get(name).copied().unwrap_or_default();
            let d = SourceTraffic {
                bytes: after.bytes - before.bytes,
                raw_bytes: after.raw_bytes - before.raw_bytes,
                messages: after.messages - before.messages,
                failures: after.failures - before.failures,
                retries: after.retries - before.retries,
                busy_us: after.busy_us - before.busy_us,
            };
            m.bytes_shipped += d.bytes;
            m.bytes_raw += d.raw_bytes;
            m.bytes_wire += d.bytes;
            m.messages += d.messages;
            m.failures += d.failures;
            m.retries += d.retries;
            if d.messages > 0 || d.bytes > 0 || d.failures > 0 {
                m.per_source.insert(name.clone(), d);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_net::{NetworkConditions, SimClock};

    #[test]
    fn snapshot_diff_isolates_a_query() {
        let clock = SimClock::new();
        let a = Link::new(
            "a",
            NetworkConditions {
                latency_us: 10,
                bandwidth_bytes_per_sec: 0,
            },
            clock.clone(),
        );
        let b = Link::new("b", NetworkConditions::instant(), clock.clone());
        // pre-query noise
        a.transfer(100).unwrap();
        let snap = TrafficSnapshot::capture([&a, &b], &clock);
        a.transfer(50).unwrap();
        a.transfer(50).unwrap();
        b.transfer(7).unwrap();
        let m = snap.diff_against([&a, &b], &clock);
        assert_eq!(m.bytes_shipped, 107);
        assert_eq!(m.bytes_raw, 107); // transfer() prices raw == wire
        assert_eq!(m.bytes_wire, 107);
        assert_eq!(m.messages, 3);
        assert_eq!(m.virtual_network_us, 20);
        assert_eq!(m.per_source["a"].bytes, 100);
        assert_eq!(m.per_source["b"].messages, 1);
    }

    #[test]
    fn display_formats() {
        let mut m = QueryMetrics {
            rows_returned: 3,
            bytes_shipped: 1024,
            ..QueryMetrics::default()
        };
        m.per_source.insert(
            "crm".into(),
            SourceTraffic {
                bytes: 1024,
                messages: 2,
                failures: 1,
                busy_us: 1500,
                ..SourceTraffic::default()
            },
        );
        let s = m.to_string();
        assert!(s.contains("rows=3"));
        assert!(s.contains("crm"));
        assert!(s.contains("failures=1"));
    }
}
