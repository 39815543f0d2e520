//! # gis-core — the GIS mediator
//!
//! The paper's primary contribution: one engine that presents the
//! catalog's global schema, decomposes SQL into per-source fragments
//! each component system can execute, and integrates the results —
//! minimizing what crosses the (simulated) wide-area network.
//!
//! Pipeline:
//!
//! ```text
//! SQL ──parse──▶ AST ──bind──▶ LogicalPlan ──optimize──▶ LogicalPlan
//!     ──physical──▶ PhysicalPlan (fragments + mediator operators)
//!     ──execute──▶ Batch + QueryMetrics
//! ```
//!
//! * [`expr`] — resolved, ordinal-based scalar expressions with a
//!   vectorized evaluator.
//! * [`plan`] — the logical algebra and the binder from SQL ASTs.
//! * [`optimizer`] — rewrite rules: constant folding, predicate
//!   pushdown, projection pruning, cost-based join ordering.
//! * [`cost`] — cardinality estimation over catalog statistics.
//! * [`exec`] — the physical operators, including the three
//!   distributed join strategies (ship-whole, semijoin reduction,
//!   bind-join) whose crossover the evaluation reproduces.
//! * [`federation`] — the façade a downstream user touches:
//!   register adapters, run SQL, read metrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod exec;
// Expression evaluation runs row-at-a-time over untrusted remote data,
// so a stray `unwrap` is a mediator panic: lint it (tests and the few
// vetted null-checked sites carry explicit allows). CI runs clippy
// with `-D warnings`, which makes this a hard gate.
#[warn(clippy::unwrap_used)]
pub mod expr;
pub mod federation;
pub mod metrics;
pub mod optimizer;
pub mod plan;

pub use exec::options::{ExecOptions, JoinStrategy, QueryCtx};
pub use federation::{Federation, QueryResult};
pub use gis_views::{RefreshPolicy, Staleness, ViewGauges};
pub use metrics::{DegradedReport, DegradedSource, QueryMetrics};
pub use optimizer::OptimizerOptions;
pub use plan::logical::LogicalPlan;
