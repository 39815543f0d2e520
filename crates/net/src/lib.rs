//! # gis-net — the simulated wide-area network substrate
//!
//! Kameny-era global information systems federate sources over slow,
//! expensive networks; the dominant cost of a distributed plan is what
//! it ships. This crate substitutes a real WAN with a *metered,
//! virtual-time* network so experiments can report exactly:
//!
//! * **bytes** sent/received per link (the wire format in [`wire`] is
//!   hand-rolled so every byte is accounted for),
//! * **messages** (each paying a configurable one-way latency),
//! * **virtual elapsed time** accumulated on a [`SimClock`]
//!   (`latency + bytes/bandwidth` per message), independent of how
//!   fast the host machine is.
//!
//! Faults (timeouts, partitions, probabilistic drops) are injectable
//! per link, letting tests exercise the mediator's retry policy
//! without a flaky real network.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bloom;
pub mod breaker;
pub mod clock;
pub mod codec;
pub mod fault;
pub mod link;
pub mod retry;
pub mod wire;

pub use bloom::KeyBloom;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use clock::SimClock;
pub use codec::{
    decode_frame, encode_frame, encode_frame_into, encode_range_into, is_compressed_frame,
    raw_frame_size, ColumnCodec, FrameSink, FrameStats, WireStats,
};
pub use fault::{FaultPlan, FaultVerdict};
pub use link::{Link, LinkMetrics, NetworkConditions, MIN_FRAME_ROWS};
pub use retry::RetryPolicy;
