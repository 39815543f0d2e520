//! # gis-qa — differential query fuzzing for the GIS mediator
//!
//! The mediator's defining correctness property is that *every*
//! decomposition strategy returns the answer the component systems
//! would: six independently-toggled execution paths (pushdown,
//! semijoin/bind-join shipping, threaded fetch, result cache,
//! materialized views, fault retry) must agree bit-for-bit. This
//! crate enforces that property generatively:
//!
//! * [`generator`] — a deterministic, seed-driven SQL generator over
//!   the FedMart catalog. One `u64` seed ⇒ one well-typed query.
//! * [`config`] — the engine-configuration matrix: a fully-naive
//!   reference oracle plus seven configurations that each enable a
//!   different slice of the stack (including a fault-injected run).
//! * [`runner`] — executes a query through the whole matrix and
//!   compares order-normalized results against the oracle.
//! * [`shrink`] — greedily minimizes any diverging query while it
//!   keeps diverging.
//! * [`corpus`] — the checked-in regression corpus (`tests/corpus/`):
//!   shrunk reproducers with optionally pinned expected rows,
//!   replayed in tier-1 forever.
//!
//! The `gis-qa` binary ties it together for CI:
//!
//! ```text
//! cargo run --release -p gis-qa -- --seeds 500 --corpus tests/corpus
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod corpus;
pub mod generator;
pub mod runner;
pub mod schema;
pub mod shrink;

pub use config::{matrix, oracle, EngineConfig, Mode};
pub use corpus::{load_dir, replay, CorpusCase, Expectation};
pub use generator::QueryGen;
pub use runner::{DiffReport, Divergence, Harness, RunReport};
pub use shrink::shrink_query;
