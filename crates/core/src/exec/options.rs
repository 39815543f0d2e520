//! Execution options: the distributed-strategy knobs the experiments
//! sweep.

/// How a mediator-side join against a remote table fetches the
/// remote side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Cost-based choice among the three below (default).
    #[default]
    Auto,
    /// Fetch the whole remote relation and hash-join at the mediator.
    ShipWhole,
    /// Ship the distinct join-key set in one message, fetch only
    /// matching rows (SDD-1-style semijoin reduction).
    SemiJoin,
    /// Ship keys in batches of `bind_batch_size`, fetching matches
    /// incrementally (R*-style bind join / fetch-matches).
    BindJoin,
}

impl JoinStrategy {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            JoinStrategy::Auto => "auto",
            JoinStrategy::ShipWhole => "ship-whole",
            JoinStrategy::SemiJoin => "semijoin",
            JoinStrategy::BindJoin => "bind-join",
        }
    }
}

/// Knobs for physical planning and execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Remote join strategy.
    pub join_strategy: JoinStrategy,
    /// Keys per message for [`JoinStrategy::BindJoin`].
    pub bind_batch_size: usize,
    /// Push whole-aggregate fragments to capable sources.
    pub aggregate_pushdown: bool,
    /// Push ORDER BY into capable sources when the sort sits directly
    /// over a scan.
    pub sort_pushdown: bool,
    /// Push inner equi-joins of two tables on the *same* source down
    /// as one join fragment (the source joins; only results ship).
    pub colocated_join: bool,
    /// Collect a per-operator span tree (rows, bytes, wall time)
    /// during execution. Remote sources report their own spans back
    /// over the wire — the extra frame is metered like any other
    /// message. Off by default: `EXPLAIN ANALYZE` and the slow-query
    /// log turn it on.
    pub tracing: bool,
    /// Graceful degradation: when a source (and every replica of it)
    /// is unreachable, substitute zero rows for its fragments and
    /// succeed with a [`crate::metrics::DegradedReport`] naming the
    /// missing sources, instead of failing the whole query. Off by
    /// default — partial answers are opt-in, flagged on
    /// [`crate::QueryResult::degraded`], and never cached.
    pub partial_results: bool,
    /// Answer queries (or their fragments) from fresh materialized
    /// views when a registered view subsumes the plan. Disable to
    /// force shipping from sources (baselines, differential tests).
    pub view_matching: bool,
    /// Allow the classic-semijoin path to ship a compact Bloom filter
    /// of the outer key set instead of the explicit key list when the
    /// inner source can evaluate one ([`filter_lookup`] capability)
    /// and the filter plus expected false-positive rows is cheaper
    /// than the keys. False positives are removed by the mediator's
    /// residual hash join, so results are identical either way.
    ///
    /// [`filter_lookup`]: gis_catalog::CapabilityProfile::filter_lookup
    pub bloom_semijoin: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            join_strategy: JoinStrategy::Auto,
            bind_batch_size: 1024,
            aggregate_pushdown: true,
            sort_pushdown: true,
            colocated_join: true,
            tracing: false,
            partial_results: false,
            view_matching: true,
            bloom_semijoin: true,
        }
    }
}

impl ExecOptions {
    /// The naive baseline: ship everything, push nothing.
    pub fn naive() -> Self {
        ExecOptions {
            join_strategy: JoinStrategy::ShipWhole,
            aggregate_pushdown: false,
            sort_pushdown: false,
            colocated_join: false,
            ..ExecOptions::default()
        }
    }
}

/// One query's envelope: everything a caller may set for a single
/// statement, handed down once from the client tier
/// ([`crate::Federation::run`]) through planning and execution
/// ([`crate::exec::ExecContext`]) to the wrappers.
///
/// `Copy`, with every field public, so an override is struct-update
/// syntax: `QueryCtx { deadline: Some(t), ..fed.ctx() }`.
#[derive(Debug, Clone, Copy)]
pub struct QueryCtx<'a> {
    /// Which rewrite rules run (bind → optimize).
    pub optimizer: crate::optimizer::OptimizerOptions,
    /// Physical planning and execution knobs, `tracing` among them.
    pub exec: ExecOptions,
    /// Runtime-assigned id stamped on metrics and errors (0 = ad hoc,
    /// outside the runtime).
    pub query_id: u64,
    /// Host-time deadline. Operators poll it on entry, hash kernels
    /// inside their loops, and the wrappers before every retry and
    /// failover; past it the query ends with
    /// [`gis_types::GisError::Deadline`].
    pub deadline: Option<std::time::Instant>,
    /// The memory budget hash kernels and sort buffers account
    /// against: they spill at its soft limit and the query ends with
    /// [`gis_types::GisError::ResourceExhausted`] past its hard one.
    pub budget: &'a gis_types::MemBudget,
}

impl QueryCtx<'static> {
    /// An ad-hoc envelope: query id 0, no deadline, the process-wide
    /// unlimited budget.
    pub fn new(optimizer: crate::optimizer::OptimizerOptions, exec: ExecOptions) -> Self {
        QueryCtx {
            optimizer,
            exec,
            query_id: 0,
            deadline: None,
            budget: &gis_types::mem::UNLIMITED,
        }
    }
}
