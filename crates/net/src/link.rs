//! Metered point-to-point links.
//!
//! A [`Link`] models the mediator's connection to one component
//! system: every message pays `latency + bytes/bandwidth` on the
//! shared [`SimClock`], increments per-link counters, and consults the
//! link's [`FaultPlan`]. The executor treats `transfer` failures as
//! retryable network errors.
//!
//! Response frames are sized from the link too
//! ([`NetworkConditions::frame_rows`]), the one place that decides a
//! frame's rows: the wrappers cut their frames with it, over the row
//! bytes they measure, and the planner counts the frames it prices
//! with it, over the row bytes it estimates.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::clock::SimClock;
use crate::codec::MAX_FRAME_ROWS;
use crate::fault::{FaultPlan, FaultVerdict};
use gis_types::{GisError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A response frame carries this many times the link's
/// bandwidth-delay product: its bytes take at least 8 latencies to
/// cross, so latency is at most 1/9 of what the frame costs.
pub const FRAME_BDP_MULTIPLE: u64 = 8;

/// Fewest rows a response frame carries: the frame on a link with no
/// latency, and the size a response must exceed before the wrapper
/// measures its rows at all.
pub const MIN_FRAME_ROWS: usize = 1024;

/// Static link characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConditions {
    /// One-way latency per message, microseconds.
    pub latency_us: u64,
    /// Bandwidth in bytes per second (0 = infinite).
    pub bandwidth_bytes_per_sec: u64,
}

impl NetworkConditions {
    /// A local (in-datacenter) link: 100 µs, ~10 Gbit/s.
    pub fn lan() -> Self {
        NetworkConditions {
            latency_us: 100,
            bandwidth_bytes_per_sec: 1_250_000_000,
        }
    }

    /// A wide-area link of the paper's era flavor: 40 ms one-way,
    /// ~1 MB/s.
    pub fn wan() -> Self {
        NetworkConditions {
            latency_us: 40_000,
            bandwidth_bytes_per_sec: 1_000_000,
        }
    }

    /// An idealized free network (used to isolate CPU costs).
    pub fn instant() -> Self {
        NetworkConditions {
            latency_us: 0,
            bandwidth_bytes_per_sec: 0,
        }
    }

    /// Conditions with the given one-way latency in milliseconds and
    /// WAN-class bandwidth.
    pub fn with_latency_ms(ms: u64) -> Self {
        NetworkConditions {
            latency_us: ms * 1_000,
            ..NetworkConditions::wan()
        }
    }

    /// Virtual microseconds one message of `bytes` costs.
    pub fn message_cost_us(&self, bytes: usize) -> u64 {
        self.messages_cost_us(1, bytes as u64)
    }

    /// Virtual microseconds `messages` messages carrying `bytes` in
    /// all cost: each message pays the latency, every byte the
    /// bandwidth once. Saturates instead of overflowing.
    pub fn messages_cost_us(&self, messages: u64, bytes: u64) -> u64 {
        let transfer = if self.bandwidth_bytes_per_sec == 0 {
            0
        } else {
            let us = u128::from(bytes) * 1_000_000 / u128::from(self.bandwidth_bytes_per_sec);
            u64::try_from(us).unwrap_or(u64::MAX)
        };
        messages
            .saturating_mul(self.latency_us)
            .saturating_add(transfer)
    }

    /// Rows per response frame for rows of `row_bytes` raw bytes each:
    /// ⌈[`FRAME_BDP_MULTIPLE`] × latency × bandwidth ÷ `row_bytes`⌉,
    /// at least [`MIN_FRAME_ROWS`] and at most [`MAX_FRAME_ROWS`], so a
    /// frame's latency is at most 1/9 of what the frame costs. A link
    /// without latency takes the floor; one with latency but no
    /// transfer cost takes the cap. The wrappers cut their frames with
    /// it and the planner counts the frames it prices with it.
    pub fn frame_rows(&self, row_bytes: usize) -> usize {
        if self.latency_us == 0 {
            return MIN_FRAME_ROWS;
        }
        if self.bandwidth_bytes_per_sec == 0 {
            return MAX_FRAME_ROWS;
        }
        let frame_bytes = u128::from(FRAME_BDP_MULTIPLE)
            .saturating_mul(u128::from(self.latency_us))
            .saturating_mul(u128::from(self.bandwidth_bytes_per_sec));
        let per_row = row_bytes.max(1) as u128 * 1_000_000;
        frame_bytes
            .div_ceil(per_row)
            .clamp(MIN_FRAME_ROWS as u128, MAX_FRAME_ROWS as u128) as usize
    }
}

/// Cumulative traffic counters for one link.
#[derive(Debug, Default)]
pub struct LinkMetrics {
    messages: AtomicU64,
    bytes: AtomicU64,
    raw_bytes: AtomicU64,
    busy_us: AtomicU64,
    failures: AtomicU64,
    retries: AtomicU64,
}

impl LinkMetrics {
    /// Messages transferred (both directions).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total bytes transferred — what actually crossed the wire (the
    /// compressed size when wire compression is on).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total pre-compression bytes the transferred messages represent.
    /// Equal to [`bytes`](Self::bytes) when nothing was compressed.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes.load(Ordering::Relaxed)
    }

    /// Total virtual time spent on the wire, microseconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us.load(Ordering::Relaxed)
    }

    /// Injected/observed failures.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Retry attempts made against this link (recorded by the
    /// adapter's retry policy, one per backed-off re-attempt).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Records one retry attempt.
    pub fn add_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes all counters (between experiment trials).
    pub fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.raw_bytes.store(0, Ordering::Relaxed);
        self.busy_us.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
    }
}

/// A metered, fault-injectable link between mediator and one source.
#[derive(Debug, Clone)]
pub struct Link {
    name: String,
    conditions: NetworkConditions,
    clock: SimClock,
    metrics: Arc<LinkMetrics>,
    faults: Arc<FaultPlan>,
    breaker: Arc<CircuitBreaker>,
}

impl Link {
    /// A link named `name` with the given conditions, advancing `clock`.
    pub fn new(name: impl Into<String>, conditions: NetworkConditions, clock: SimClock) -> Self {
        Link {
            name: name.into(),
            conditions,
            clock,
            metrics: Arc::new(LinkMetrics::default()),
            faults: Arc::new(FaultPlan::none()),
            breaker: Arc::new(CircuitBreaker::default()),
        }
    }

    /// A zero-cost link for unit tests.
    pub fn loopback() -> Self {
        Link::new("loopback", NetworkConditions::instant(), SimClock::new())
    }

    /// The link's name (usually the source name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The link's conditions.
    pub fn conditions(&self) -> NetworkConditions {
        self.conditions
    }

    /// The traffic counters.
    pub fn metrics(&self) -> &LinkMetrics {
        &self.metrics
    }

    /// The fault plan (script failures through this handle).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The link's circuit breaker (configure or inspect through this
    /// handle; shared by all clones).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The breaker's current state at the clock's current time.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state(self.clock.now_us())
    }

    /// The clock this link advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Transfers one message of `bytes` bytes across the link,
    /// advancing the virtual clock and counters. Fails (without
    /// advancing time past the latency already spent) when the fault
    /// plan injects a failure. While the circuit breaker is open the
    /// message fails fast — [`GisError::Unavailable`], zero clock
    /// advance, zero wire latency.
    pub fn transfer(&self, bytes: usize) -> Result<()> {
        self.transfer_sized(bytes, bytes)
    }

    /// [`transfer`](Self::transfer) for a message that was compressed
    /// before shipping: the wire pays (and the clock advances by)
    /// `wire_bytes`, while `raw_bytes` — the pre-compression size —
    /// is recorded separately so reports can state the savings.
    pub fn transfer_sized(&self, wire_bytes: usize, raw_bytes: usize) -> Result<()> {
        if let Err(remaining_us) = self.breaker.admit(self.clock.now_us()) {
            return Err(GisError::Unavailable(format!(
                "link '{}': circuit open, probe in {remaining_us}us",
                self.name
            )));
        }
        match self.faults.verdict() {
            FaultVerdict::Drop(reason) => {
                self.metrics.failures.fetch_add(1, Ordering::Relaxed);
                // A failed message still wastes its latency.
                self.clock.advance(self.conditions.latency_us);
                self.metrics
                    .busy_us
                    .fetch_add(self.conditions.latency_us, Ordering::Relaxed);
                self.breaker.on_failure(self.clock.now_us());
                Err(GisError::Network(format!("link '{}': {reason}", self.name)))
            }
            FaultVerdict::Deliver { cost_factor } => {
                let cost = self
                    .conditions
                    .message_cost_us(wire_bytes)
                    .saturating_mul(u64::from(cost_factor));
                self.clock.advance(cost);
                self.metrics.messages.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .bytes
                    .fetch_add(wire_bytes as u64, Ordering::Relaxed);
                self.metrics
                    .raw_bytes
                    .fetch_add(raw_bytes as u64, Ordering::Relaxed);
                self.metrics.busy_us.fetch_add(cost, Ordering::Relaxed);
                self.breaker.on_success();
                Ok(())
            }
        }
    }

    /// Accounts a request/response exchange: `req` bytes out, `resp`
    /// bytes back — two messages, two latencies.
    pub fn round_trip(&self, req: usize, resp: usize) -> Result<()> {
        self.transfer(req)?;
        self.transfer(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_includes_latency_and_transfer() {
        let c = NetworkConditions {
            latency_us: 1_000,
            bandwidth_bytes_per_sec: 1_000_000, // 1 byte/µs
        };
        assert_eq!(c.message_cost_us(0), 1_000);
        assert_eq!(c.message_cost_us(500), 1_500);
        assert_eq!(NetworkConditions::instant().message_cost_us(1 << 30), 0);
        // Many messages pay the latency each, the bytes once.
        assert_eq!(c.messages_cost_us(3, 500), 3_500);
        let huge = NetworkConditions {
            latency_us: u64::MAX,
            bandwidth_bytes_per_sec: 1,
        };
        assert_eq!(huge.messages_cost_us(u64::MAX, u64::MAX), u64::MAX);
    }

    /// WAN: 8 × 40 ms × 1 MB/s = 320 000 bytes a frame; LAN: 8 ×
    /// 100 µs × 1.25 GB/s = 1 000 000 bytes. Rounded up, so a frame
    /// never holds less than its share.
    #[test]
    fn frame_rows_carry_eight_bandwidth_delay_products() {
        let wan = NetworkConditions::wan();
        assert_eq!(wan.frame_rows(16), 20_000);
        assert_eq!(wan.frame_rows(3), 106_667);
        assert_eq!(NetworkConditions::lan().frame_rows(16), 62_500);
        // A frame of them spends at most 1/9 of its cost on latency.
        let rows = wan.frame_rows(100);
        let cost = wan.message_cost_us(rows * 100);
        assert!(wan.latency_us * 9 <= cost, "{rows} rows cost {cost}us");
    }

    #[test]
    fn frame_rows_without_latency_take_the_floor() {
        assert_eq!(NetworkConditions::instant().frame_rows(16), MIN_FRAME_ROWS);
        let free_latency = NetworkConditions {
            latency_us: 0,
            bandwidth_bytes_per_sec: 1_000_000,
        };
        assert_eq!(free_latency.frame_rows(1), MIN_FRAME_ROWS);
        assert_eq!(free_latency.frame_rows(0), MIN_FRAME_ROWS);
    }

    #[test]
    fn frame_rows_without_transfer_cost_take_the_cap() {
        let c = NetworkConditions {
            latency_us: 1_000,
            bandwidth_bytes_per_sec: 0,
        };
        assert_eq!(c.frame_rows(16), MAX_FRAME_ROWS);
        assert_eq!(c.frame_rows(usize::MAX), MAX_FRAME_ROWS);
    }

    #[test]
    fn very_wide_rows_fall_to_the_floor() {
        let wan = NetworkConditions::wan();
        // 320 000-byte frames: 1 MB rows still ship 1 024 a frame.
        assert_eq!(wan.frame_rows(1 << 20), MIN_FRAME_ROWS);
        assert_eq!(wan.frame_rows(usize::MAX), MIN_FRAME_ROWS);
        // The floor starts where 1 024 rows fill the frame.
        assert_eq!(wan.frame_rows(312), MIN_FRAME_ROWS + 2);
        assert_eq!(wan.frame_rows(313), MIN_FRAME_ROWS);
    }

    #[test]
    fn extreme_links_and_empty_rows_stay_in_range_without_overflow() {
        let wan = NetworkConditions::wan();
        // Zero-byte rows (a zero-column batch) count as one byte.
        assert_eq!(wan.frame_rows(0), wan.frame_rows(1));
        assert_eq!(wan.frame_rows(1), 320_000);
        let fast = NetworkConditions {
            latency_us: 1_000_000,
            bandwidth_bytes_per_sec: 1_000_000_000,
        };
        assert_eq!(fast.frame_rows(1), MAX_FRAME_ROWS);
        let extreme = NetworkConditions {
            latency_us: u64::MAX,
            bandwidth_bytes_per_sec: u64::MAX,
        };
        assert_eq!(extreme.frame_rows(0), MAX_FRAME_ROWS);
        assert_eq!(extreme.frame_rows(usize::MAX), MAX_FRAME_ROWS);
        let slow = NetworkConditions {
            latency_us: u64::MAX,
            bandwidth_bytes_per_sec: 1,
        };
        assert_eq!(slow.frame_rows(0), MAX_FRAME_ROWS);
        assert_eq!(slow.frame_rows(usize::MAX), MIN_FRAME_ROWS);
    }

    #[test]
    fn transfer_advances_clock_and_counters() {
        let clock = SimClock::new();
        let link = Link::new(
            "src",
            NetworkConditions {
                latency_us: 10,
                bandwidth_bytes_per_sec: 1_000_000,
            },
            clock.clone(),
        );
        link.transfer(100).unwrap();
        assert_eq!(clock.now_us(), 110);
        assert_eq!(link.metrics().messages(), 1);
        assert_eq!(link.metrics().bytes(), 100);
        link.round_trip(50, 200).unwrap();
        assert_eq!(link.metrics().messages(), 3);
        assert_eq!(link.metrics().bytes(), 350);
    }

    #[test]
    fn injected_failure_counts_and_wastes_latency() {
        let clock = SimClock::new();
        let link = Link::new(
            "flaky",
            NetworkConditions {
                latency_us: 7,
                bandwidth_bytes_per_sec: 0,
            },
            clock.clone(),
        );
        link.faults().fail_next(1);
        let err = link.transfer(10).unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(link.metrics().failures(), 1);
        assert_eq!(link.metrics().bytes(), 0);
        assert_eq!(clock.now_us(), 7);
        // retry succeeds
        assert!(link.transfer(10).is_ok());
    }

    #[test]
    fn transfer_sized_prices_the_wire_size_but_remembers_raw() {
        let clock = SimClock::new();
        let link = Link::new(
            "compressed",
            NetworkConditions {
                latency_us: 10,
                bandwidth_bytes_per_sec: 1_000_000, // 1 byte/µs
            },
            clock.clone(),
        );
        link.transfer_sized(100, 400).unwrap();
        assert_eq!(clock.now_us(), 110, "clock pays the compressed size");
        assert_eq!(link.metrics().bytes(), 100);
        assert_eq!(link.metrics().raw_bytes(), 400);
        // Plain transfer keeps the two in lockstep.
        link.transfer(50).unwrap();
        assert_eq!(link.metrics().bytes(), 150);
        assert_eq!(link.metrics().raw_bytes(), 450);
        link.metrics().reset();
        assert_eq!(link.metrics().raw_bytes(), 0);
    }

    #[test]
    fn clones_share_metrics() {
        let link = Link::loopback();
        let clone = link.clone();
        clone.transfer(5).unwrap();
        assert_eq!(link.metrics().messages(), 1);
    }

    #[test]
    fn open_breaker_fails_fast_with_zero_wire_latency() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let clock = SimClock::new();
        let link = Link::new(
            "dead",
            NetworkConditions {
                latency_us: 1_000,
                bandwidth_bytes_per_sec: 0,
            },
            clock.clone(),
        );
        link.breaker().set_config(BreakerConfig {
            failure_threshold: 2,
            cooldown_us: 10_000,
        });
        link.faults().partition();
        assert!(link.transfer(10).unwrap_err().is_retryable());
        assert!(link.transfer(10).unwrap_err().is_retryable());
        assert_eq!(link.breaker_state(), BreakerState::Open);
        assert_eq!(clock.now_us(), 2_000, "two failures paid latency");

        // Open: fail fast, no latency, distinct error domain.
        let err = link.transfer(10).unwrap_err();
        assert_eq!(err.code(), "UNAVAILABLE");
        assert!(!err.is_retryable());
        assert_eq!(clock.now_us(), 2_000, "fail-fast pays no wire latency");
        assert_eq!(link.breaker().fast_failures(), 1);
        assert_eq!(
            link.metrics().failures(),
            2,
            "fast failures are not wire failures"
        );

        // After the cooldown a probe goes through; success closes.
        link.faults().heal();
        clock.advance(10_000);
        assert!(link.transfer(10).is_ok());
        assert_eq!(link.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn slow_next_charges_multiplied_cost() {
        let clock = SimClock::new();
        let link = Link::new(
            "brownout",
            NetworkConditions {
                latency_us: 100,
                bandwidth_bytes_per_sec: 0,
            },
            clock.clone(),
        );
        link.faults().slow_next(1, 7);
        link.transfer(10).unwrap();
        assert_eq!(clock.now_us(), 700, "spike multiplies the message cost");
        link.transfer(10).unwrap();
        assert_eq!(clock.now_us(), 800, "then costs return to nominal");
        assert_eq!(link.metrics().busy_us(), 800);
    }
}
