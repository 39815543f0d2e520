//! Physical planning and execution.
//!
//! The physical plan is a tree of materializing operators: each
//! `execute` returns one [`gis_types::Batch`]. Streaming/chunking
//! happens at the network boundary (the metered `RemoteSource` ships
//! response chunks as separate messages); mediator-side operators
//! work on whole relations, which keeps the byte accounting — the
//! quantity the experiments measure — unaffected.

pub mod aggregate;
pub mod fragment;
pub mod join;
pub mod keys;
pub mod options;
pub mod physical;
pub mod planner;
pub mod sort;

pub use options::{ExecOptions, JoinStrategy, QueryCtx};
pub use physical::{ExecContext, PhysicalPlan};
pub use planner::create_physical_plan;
