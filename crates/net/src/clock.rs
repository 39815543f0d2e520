//! Shared virtual clock.
//!
//! All links of a federation advance one [`SimClock`]; because the
//! mediator's executor is a pull-based pipeline, message costs
//! accumulate sequentially exactly as a single-client query would
//! experience them. Experiments read virtual elapsed time instead of
//! wall time, so results are independent of host speed.
//!
//! For *concurrency* experiments the purely-virtual model is not
//! enough: a simulated 40 ms WAN wait costs zero host time, so
//! overlapping many in-flight queries shows no wall-clock benefit.
//! [`SimClock::set_pace_permille`] turns on **pacing**: advancing the
//! clock also sleeps for a configured fraction of the virtual delta,
//! making network waits occupy real time that concurrent workers can
//! overlap. Pacing is off by default and never affects virtual
//! timekeeping or traffic accounting.
//!
//! The shared clock sums every message, so it reads total work even
//! when a query's fetches overlap. What the query *waits* is a path:
//! [`SimClock::thread_elapsed_us`] counts the virtual time the calling
//! thread advanced, and an executor that ran two pieces of work as
//! overlapping resets it to the longer one's
//! ([`SimClock::set_thread_elapsed_us`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Virtual µs on the calling thread's path (any clock).
    static THREAD_ELAPSED_US: Cell<u64> = const { Cell::new(0) };
}

/// A monotonically-advancing virtual clock, in microseconds.
///
/// Cloning yields a handle to the *same* clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
    pace_permille: Arc<AtomicU64>,
}

impl SimClock {
    /// A new clock at t = 0.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }

    /// Current virtual time in milliseconds (convenience for reports).
    pub fn now_ms(&self) -> f64 {
        self.now_us() as f64 / 1_000.0
    }

    /// Sets the pacing factor in permille of virtual time: `0` (the
    /// default) disables pacing, `1000` makes every virtual
    /// microsecond cost one host microsecond, `100` costs 10%.
    /// Shared by all clones of this clock.
    pub fn set_pace_permille(&self, permille: u64) {
        self.pace_permille.store(permille, Ordering::Relaxed);
    }

    /// The current pacing factor in permille (0 = pacing off).
    pub fn pace_permille(&self) -> u64 {
        self.pace_permille.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta_us` and returns the new time.
    /// When pacing is enabled, also sleeps for the paced fraction of
    /// `delta_us` so virtual waits occupy host time.
    pub fn advance(&self, delta_us: u64) -> u64 {
        let now = self.micros.fetch_add(delta_us, Ordering::Relaxed) + delta_us;
        THREAD_ELAPSED_US.with(|t| t.set(t.get().saturating_add(delta_us)));
        let pace = self.pace_permille.load(Ordering::Relaxed);
        if pace > 0 && delta_us > 0 {
            let host_us = delta_us.saturating_mul(pace) / 1_000;
            if host_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(host_us));
            }
        }
        now
    }

    /// Virtual microseconds on the calling thread's path so far: every
    /// advance it made on any clock, as adjusted by
    /// [`SimClock::set_thread_elapsed_us`]. Only the difference between
    /// two reads on one thread means anything.
    pub fn thread_elapsed_us() -> u64 {
        THREAD_ELAPSED_US.with(Cell::get)
    }

    /// Sets the calling thread's path: after two pieces of work that
    /// overlap (on two threads, or in order on this one), it is their
    /// start plus the longer of the two.
    pub fn set_thread_elapsed_us(us: u64) {
        THREAD_ELAPSED_US.with(|t| t.set(us));
    }

    /// Resets to zero (used between experiment trials).
    pub fn reset(&self) {
        self.micros.store(0, Ordering::Relaxed);
    }

    /// True when two handles refer to the same underlying clock.
    pub fn same_clock(&self, other: &SimClock) -> bool {
        Arc::ptr_eq(&self.micros, &other.micros)
    }
}

/// A scoped timer measuring virtual time elapsed between construction
/// and [`VirtualSpan::elapsed_us`].
#[derive(Debug)]
pub struct VirtualSpan {
    clock: SimClock,
    start_us: u64,
}

impl VirtualSpan {
    /// Starts a span at the clock's current time.
    pub fn start(clock: &SimClock) -> Self {
        VirtualSpan {
            clock: clock.clone(),
            start_us: clock.now_us(),
        }
    }

    /// Virtual microseconds elapsed since the span started.
    pub fn elapsed_us(&self) -> u64 {
        self.clock.now_us().saturating_sub(self.start_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.advance(100), 100);
        assert_eq!(c.advance(50), 150);
        assert_eq!(c.now_ms(), 0.15);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now_us(), 42);
        assert!(a.same_clock(&b));
        assert!(!a.same_clock(&SimClock::new()));
    }

    #[test]
    fn each_thread_counts_its_own_path() {
        let c = SimClock::new();
        let start = SimClock::thread_elapsed_us();
        c.advance(30);
        let other = std::thread::scope(|s| {
            s.spawn(|| {
                let t0 = SimClock::thread_elapsed_us();
                c.advance(70);
                SimClock::thread_elapsed_us() - t0
            })
            .join()
            .unwrap()
        });
        assert_eq!(other, 70);
        assert_eq!(SimClock::thread_elapsed_us() - start, 30);
        SimClock::set_thread_elapsed_us(start + 70);
        assert_eq!(SimClock::thread_elapsed_us() - start, 70);
        assert_eq!(c.now_us(), 100, "the shared clock sums both threads");
    }

    #[test]
    fn reset_zeroes() {
        let c = SimClock::new();
        c.advance(10);
        c.reset();
        assert_eq!(c.now_us(), 0);
    }

    #[test]
    fn pacing_occupies_host_time_without_touching_virtual_time() {
        let c = SimClock::new();
        let handle = c.clone();
        assert_eq!(c.pace_permille(), 0);
        c.set_pace_permille(100);
        assert_eq!(handle.pace_permille(), 100, "clones share the pace");
        let started = std::time::Instant::now();
        c.advance(50_000); // 50 ms virtual → ≥5 ms host at 10%
        assert!(started.elapsed() >= std::time::Duration::from_millis(5));
        assert_eq!(c.now_us(), 50_000, "pacing never skews virtual time");
        c.set_pace_permille(0);
        let started = std::time::Instant::now();
        c.advance(1_000_000);
        assert!(started.elapsed() < std::time::Duration::from_millis(100));
    }

    #[test]
    fn spans_measure_elapsed() {
        let c = SimClock::new();
        c.advance(5);
        let span = VirtualSpan::start(&c);
        c.advance(37);
        assert_eq!(span.elapsed_us(), 37);
    }
}
