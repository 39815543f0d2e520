//! The federation façade — the public face of the GIS.
//!
//! A [`Federation`] owns the catalog, the registry of metered remote
//! sources, the shared virtual clock, and the option sets. Downstream
//! users do three things: register component systems, optionally
//! declare global-schema mappings, and run SQL.
//!
//! ```no_run
//! # use gis_core::Federation;
//! # use gis_net::NetworkConditions;
//! let fed = Federation::new();
//! // fed.add_source(adapter, NetworkConditions::wan())?;
//! let result = fed.query("SELECT 1 AS x")?;
//! println!("{}", result.batch.to_table());
//! # Ok::<(), gis_types::GisError>(())
//! ```

use crate::exec::{create_physical_plan, ExecContext, ExecOptions, QueryCtx};
use crate::metrics::{DegradedReport, QueryMetrics, TrafficSnapshot};
use crate::optimizer::view_match::{rewrite_with_views, would_match, ViewCandidate};
use crate::optimizer::{optimize, OptimizerOptions};
use crate::plan::binder::{check_duplicate_aliases, Binder};
use crate::plan::logical::LogicalPlan;
use gis_adapters::{register_adapter, RemoteSource, SourceAdapter, SourceGroup};
use gis_catalog::{Catalog, CatalogRef, TableMapping};
use gis_net::{BreakerConfig, Link, NetworkConditions, RetryPolicy, SimClock, WireStats};
use gis_sql::ast::Statement;
use gis_stats::{
    plan_fingerprint, FeedbackRegistry, SampleMode, SampleSpec, StatsGauges, StatsPolicy,
};
use gis_types::{Batch, GisError, Result};
use gis_views::{CompiledView, MaterializedView, RefreshPolicy, ViewGauges, ViewRegistry};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A query result: data plus everything measured about getting it.
#[derive(Debug)]
pub struct QueryResult {
    /// The result rows.
    pub batch: Batch,
    /// Traffic and timing.
    pub metrics: QueryMetrics,
    /// Present when the query ran under
    /// [`ExecOptions::partial_results`] and one or more sources were
    /// unreachable: the rows above are a lower bound on the true
    /// answer, and this report names what is missing. `None` means
    /// the result is complete. Degraded results are never cached.
    pub degraded: Option<DegradedReport>,
}

impl QueryResult {
    /// True when the result is partial (some sources unreachable).
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// A one-row `status` batch carrying `metrics` — the result shape of
/// materialized-view DDL statements.
fn status_result(text: String, metrics: QueryMetrics) -> Result<QueryResult> {
    let schema = gis_types::Schema::new(vec![gis_types::Field::required(
        "status",
        gis_types::DataType::Utf8,
    )])
    .into_ref();
    let rows = vec![vec![gis_types::Value::Utf8(text)]];
    Ok(QueryResult {
        batch: Batch::from_rows(schema, &rows)?,
        metrics,
        degraded: None,
    })
}

/// A Global Information System instance.
pub struct Federation {
    catalog: CatalogRef,
    sources: RwLock<HashMap<String, SourceGroup>>,
    clock: SimClock,
    optimizer_options: RwLock<OptimizerOptions>,
    exec_options: RwLock<ExecOptions>,
    next_query_id: AtomicU64,
    views: ViewRegistry<LogicalPlan>,
    /// Shared switch every registered link's [`RemoteSource`] watches:
    /// when set, fragment results and bind-join chunks ship as
    /// compressed v1 frames; when clear, as legacy raw frames.
    wire_compression: Arc<AtomicBool>,
    /// Federation-wide raw/compressed byte accumulator, fed by every
    /// [`RemoteSource`] as frames are encoded.
    wire_stats: Arc<WireStats>,
    /// Estimated-vs-actual cardinality feedback: the q-error ring,
    /// per-table drift windows, and the re-ANALYZE scheduler's state.
    feedback: Arc<FeedbackRegistry>,
}

impl Default for Federation {
    fn default() -> Self {
        Federation::new()
    }
}

impl Federation {
    /// An empty federation with default options.
    pub fn new() -> Self {
        Federation {
            catalog: Catalog::new(),
            sources: RwLock::new(HashMap::new()),
            clock: SimClock::new(),
            optimizer_options: RwLock::new(OptimizerOptions::default()),
            exec_options: RwLock::new(ExecOptions::default()),
            next_query_id: AtomicU64::new(1),
            views: ViewRegistry::new(),
            wire_compression: Arc::new(AtomicBool::new(true)),
            wire_stats: WireStats::shared(),
            feedback: Arc::new(FeedbackRegistry::default()),
        }
    }

    /// Turns adaptive wire compression on or off for every source
    /// (current and future). Default is on; turning it off ships
    /// legacy raw frames — the ablation baseline for byte counts.
    pub fn set_wire_compression(&self, on: bool) {
        self.wire_compression.store(on, Ordering::Relaxed);
    }

    /// Whether fragment results currently ship compressed.
    pub fn wire_compression(&self) -> bool {
        self.wire_compression.load(Ordering::Relaxed)
    }

    /// Cumulative raw-vs-wire byte counters across all sources.
    pub fn wire_stats(&self) -> &Arc<WireStats> {
        &self.wire_stats
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &CatalogRef {
        &self.catalog
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Replaces the optimizer options (ablation knobs).
    pub fn set_optimizer_options(&self, options: OptimizerOptions) {
        *self.optimizer_options.write() = options;
    }

    /// Current optimizer options.
    pub fn optimizer_options(&self) -> OptimizerOptions {
        *self.optimizer_options.read()
    }

    /// Replaces the execution options (strategy knobs).
    pub fn set_exec_options(&self, options: ExecOptions) {
        *self.exec_options.write() = options;
    }

    /// Current execution options.
    pub fn exec_options(&self) -> ExecOptions {
        *self.exec_options.read()
    }

    /// Registers a component system behind a simulated link with the
    /// given conditions. Export schemas and statistics flow into the
    /// catalog; the adapter becomes reachable to query plans.
    pub fn add_source(
        &self,
        adapter: Arc<dyn SourceAdapter>,
        conditions: NetworkConditions,
    ) -> Result<()> {
        register_adapter(&self.catalog, &adapter)?;
        let name = adapter.name().to_ascii_lowercase();
        let link = Link::new(adapter.name(), conditions, self.clock.clone());
        let remote = RemoteSource::new(adapter, link)
            .with_compression_flag(self.wire_compression.clone())
            .with_wire_stats(self.wire_stats.clone());
        self.sources.write().insert(name, SourceGroup::new(remote));
        Ok(())
    }

    /// Registers an additional replica of an already-registered
    /// source, behind its own [`Link`] (own conditions, fault script,
    /// breaker). The replica serves the same adapter — same tables,
    /// same data, same capabilities — so the catalog is untouched;
    /// only routing changes. Returns the replica's link so tests and
    /// chaos experiments can script its faults directly.
    ///
    /// Fragments route to the cheapest healthy replica and fail over
    /// to the next one when every retry against the current choice is
    /// exhausted.
    pub fn add_source_replica(&self, source: &str, conditions: NetworkConditions) -> Result<Link> {
        let mut sources = self.sources.write();
        let group = sources
            .get_mut(&source.to_ascii_lowercase())
            .ok_or_else(|| GisError::Catalog(format!("unknown source '{source}'")))?;
        let link = Link::new(
            format!("{}@r{}", group.name(), group.replica_count()),
            conditions,
            self.clock.clone(),
        );
        let replica = RemoteSource::new(group.adapter().clone(), link.clone())
            .with_retry_policy(group.primary().retry_policy())
            .with_compression_flag(self.wire_compression.clone())
            .with_wire_stats(self.wire_stats.clone());
        group.push_replica(replica);
        Ok(link)
    }

    /// Applies one retry policy to every replica of every source.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        for group in self.sources.write().values_mut() {
            group.set_retry_policy(policy);
        }
    }

    /// Applies one circuit-breaker configuration to every link.
    pub fn configure_breaker(&self, config: BreakerConfig) {
        for group in self.sources.read().values() {
            for replica in group.replicas() {
                replica.link().breaker().set_config(config);
            }
        }
    }

    /// Declares a global table over a registered source table.
    pub fn add_global_mapping(&self, mapping: TableMapping) -> Result<()> {
        self.catalog.register_global(mapping)
    }

    /// Declares `global` as an identity view of `source.table`.
    pub fn add_global_identity(&self, global: &str, source: &str, table: &str) -> Result<()> {
        self.catalog.register_global_identity(global, source, table)
    }

    /// The link to a registered source — the handle for scripting
    /// faults (partitions, transient loss) and reading raw traffic
    /// counters in tests and chaos experiments.
    pub fn source_link(&self, source: &str) -> Option<Link> {
        self.sources
            .read()
            .get(&source.to_ascii_lowercase())
            .map(|r| r.link().clone())
    }

    /// Every replica link of one source, primary first.
    pub fn replica_links(&self, source: &str) -> Vec<Link> {
        self.sources
            .read()
            .get(&source.to_ascii_lowercase())
            .map(|g| g.replicas().iter().map(|r| r.link().clone()).collect())
            .unwrap_or_default()
    }

    /// Every link in the federation — one per replica, across all
    /// sources, sorted by link name. The observability tier iterates
    /// this for per-link metric series.
    pub fn all_links(&self) -> Vec<Link> {
        let mut links: Vec<Link> = self
            .sources
            .read()
            .values()
            .flat_map(|g| g.replicas().iter().map(|r| r.link().clone()))
            .collect();
        links.sort_by(|a, b| a.name().cmp(b.name()));
        links
    }

    /// Like [`Federation::source_link`], but errors on unknown names —
    /// the form fault-injection tests want: `fed.link("crm")?` hands
    /// back the metered link whose `faults()` handle scripts
    /// partitions and transient failures.
    pub fn link(&self, source: &str) -> Result<Link> {
        self.source_link(source)
            .ok_or_else(|| GisError::Catalog(format!("unknown source '{source}'")))
    }

    /// The catalog's metadata version. Plan caches key on this: any
    /// registration or mapping change invalidates cached plans.
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// Per-source data versions, as reported by each adapter. Result
    /// caches pin this map: a bump on any source a cached result read
    /// from invalidates the entry.
    pub fn data_versions(&self) -> BTreeMap<String, u64> {
        self.sources
            .read()
            .values()
            .map(|s| (s.name().to_string(), s.adapter().data_version()))
            .collect()
    }

    /// Per-source data versions restricted to the given (lowercase)
    /// source names — the pin set for anything built from a plan that
    /// reads only those sources. Unknown names are silently absent.
    pub fn data_versions_for(&self, names: &[String]) -> BTreeMap<String, u64> {
        let sources = self.sources.read();
        names
            .iter()
            .filter_map(|n| {
                sources
                    .get(n)
                    .map(|s| (n.clone(), s.adapter().data_version()))
            })
            .collect()
    }

    /// Allocates a fresh query id (monotonic, starts at 1; id 0 is
    /// reserved for ad-hoc queries outside the runtime).
    pub fn next_query_id(&self) -> u64 {
        self.next_query_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Names of all registered sources.
    pub fn source_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .sources
            .read()
            .values()
            .map(|s| s.name().to_string())
            .collect();
        names.sort();
        names
    }

    /// Refreshes catalog statistics for one table from its source.
    pub fn refresh_stats(&self, source: &str, table: &str) -> Result<()> {
        let sources = self.sources.read();
        let remote = sources
            .get(&source.to_ascii_lowercase())
            .ok_or_else(|| GisError::Catalog(format!("unknown source '{source}'")))?;
        let stats = remote.adapter().collect_stats(table)?;
        self.catalog.update_stats(source, table, stats)
    }

    /// The cardinality-feedback registry (q-error ring, drift windows,
    /// re-ANALYZE scheduling state).
    pub fn feedback(&self) -> &Arc<FeedbackRegistry> {
        &self.feedback
    }

    /// Replaces the adaptive statistics policy (thresholds, cooldown,
    /// auto-re-ANALYZE switch).
    pub fn set_stats_policy(&self, policy: StatsPolicy) {
        self.feedback.set_policy(policy);
    }

    /// Observability snapshot of the statistics subsystem, rendered by
    /// the runtime as `gis_stats_*` series.
    pub fn stats_gauges(&self) -> StatsGauges {
        self.feedback.gauges()
    }

    /// The sampling instruction for one table of one source: a
    /// relational engine evaluates pushdown over every row anyway, so
    /// ANALYZE scans fully; a columnar engine samples whole segments;
    /// a KV store strides its ordered key space. The seed folds in the
    /// catalog version so repeated ANALYZEs are deterministic yet
    /// don't resample identically forever.
    fn sample_spec_for(&self, kind: &str) -> SampleSpec {
        let seed = 0x5ca1e ^ self.catalog.version();
        match kind {
            "relational" => SampleSpec::full(),
            "kv" => SampleSpec::sampled(SampleMode::Range, seed),
            _ => SampleSpec::sampled(SampleMode::Page, seed),
        }
    }

    /// ANALYZEs one table: ships the request and the statistics frame
    /// across the table's metered link, installs the result in the
    /// catalog (bumping the catalog version, so cached plans
    /// re-optimize), and resets the table's drift window. Returns the
    /// wire bytes the exchange cost.
    pub fn analyze_table(&self, source: &str, table: &str) -> Result<u64> {
        let sources = self.sources.read();
        let group = sources
            .get(&source.to_ascii_lowercase())
            .ok_or_else(|| GisError::Catalog(format!("unknown source '{source}'")))?;
        let spec = self.sample_spec_for(group.adapter().kind());
        let (stats, wire_bytes) = group.primary().analyze(table, &spec)?;
        drop(sources);
        self.catalog.update_stats(source, table, stats)?;
        self.feedback
            .note_analyzed(source, table, self.clock.now_us(), wire_bytes);
        Ok(wire_bytes)
    }

    /// Runs an `ANALYZE [source[.table]]` statement: no target means
    /// every table of every source; a bare source means all its
    /// tables. Returns a one-row status batch whose metrics carry the
    /// collection traffic, priced on the virtual clock like any query.
    pub fn run_analyze(&self, source: Option<&str>, table: Option<&str>) -> Result<QueryResult> {
        let started = Instant::now();
        let targets: Vec<(String, String)> = match (source, table) {
            (Some(s), Some(t)) => vec![(s.to_string(), t.to_string())],
            (Some(s), None) => {
                let tables = self.catalog.tables_of(s);
                if tables.is_empty() {
                    return Err(GisError::Catalog(format!(
                        "unknown source '{s}' (or it exports no tables)"
                    )));
                }
                tables.into_iter().map(|t| (s.to_string(), t)).collect()
            }
            _ => self
                .catalog
                .sources()
                .into_iter()
                .flat_map(|s| {
                    self.catalog
                        .tables_of(&s.name)
                        .into_iter()
                        .map(move |t| (s.name.clone(), t))
                })
                .collect(),
        };
        let sources = self.sources.read();
        let links: Vec<Link> = sources
            .values()
            .flat_map(|g| g.replicas().iter().map(|r| r.link().clone()))
            .collect();
        drop(sources);
        let snapshot = TrafficSnapshot::capture(links.iter(), &self.clock);
        let mut wire_bytes = 0u64;
        for (s, t) in &targets {
            wire_bytes += self.analyze_table(s, t)?;
        }
        let mut metrics = snapshot.diff_against(links.iter(), &self.clock);
        // One table after another: nothing overlaps.
        metrics.virtual_elapsed_us = metrics.virtual_network_us;
        metrics.rows_returned = 1;
        metrics.wall_us = started.elapsed().as_micros();
        status_result(
            format!(
                "ANALYZE: {} table(s), {wire_bytes} wire bytes",
                targets.len()
            ),
            metrics,
        )
    }

    /// Re-ANALYZEs every table whose recent q-errors say the
    /// optimizer's picture has rotted (threshold, window, and cooldown
    /// per [`StatsPolicy`]), on the virtual clock. The runtime's workers
    /// call this between jobs, next to [`Federation::maintain_views`].
    /// Returns the number of tables re-analyzed.
    pub fn maintain_stats(&self) -> usize {
        let due = self.feedback.due_for_reanalyze(self.clock.now_us());
        let mut done = 0;
        for (source, table) in due {
            if self.analyze_table(&source, &table).is_ok() {
                done += 1;
            }
        }
        done
    }

    /// The materialized-view registry (inspection, tests, gauges).
    pub fn views(&self) -> &ViewRegistry<LogicalPlan> {
        &self.views
    }

    /// Observability snapshot of every view, judged against current
    /// source versions. The runtime renders these as `gis_view_*`
    /// series.
    pub fn view_gauges(&self) -> Vec<ViewGauges> {
        self.views.gauges(&self.data_versions())
    }

    /// Creates a materialized view named `name` defined by the SELECT
    /// text `sql`, materializes it immediately, and registers it for
    /// [`RefreshPolicy::Manual`] refreshes.
    pub fn create_materialized_view(&self, name: &str, sql: &str) -> Result<QueryResult> {
        self.create_materialized_view_with(name, sql, RefreshPolicy::Manual)
    }

    /// Like [`Federation::create_materialized_view`], with an explicit
    /// refresh policy.
    pub fn create_materialized_view_with(
        &self,
        name: &str,
        sql: &str,
        policy: RefreshPolicy,
    ) -> Result<QueryResult> {
        if name.is_empty() {
            return Err(GisError::Analysis("materialized view name is empty".into()));
        }
        // A view shadowing a global table would make `FROM name`
        // ambiguous between catalog resolution and view matching.
        if self
            .catalog
            .global_tables()
            .iter()
            .any(|t| t.eq_ignore_ascii_case(name))
        {
            return Err(GisError::Catalog(format!(
                "cannot create materialized view '{name}': a global table with that name exists"
            )));
        }
        let stmt = gis_sql::parse(sql)?;
        if !matches!(stmt, Statement::Query(_)) {
            return Err(GisError::Analysis(
                "materialized view definition must be a SELECT query".into(),
            ));
        }
        let compiled = self.compile_view(&stmt)?;
        let view = self.views.insert(MaterializedView::new(
            name.to_ascii_lowercase(),
            sql,
            policy,
            compiled,
        ))?;
        let metrics = match self.run_refresh(&view) {
            Ok(m) => m,
            Err(e) => {
                // Creation is atomic: a failed initial materialization
                // leaves no half-registered view behind.
                let _ = self.views.remove(name);
                return Err(e);
            }
        };
        let rows = view.data().map(|d| d.batch.num_rows()).unwrap_or(0);
        status_result(
            format!(
                "created materialized view {} ({} rows, {} bytes shipped, policy {})",
                view.name(),
                rows,
                metrics.bytes_shipped,
                policy.label()
            ),
            metrics,
        )
    }

    /// Re-runs a view's plan and replaces its materialized rows.
    pub fn refresh_materialized_view(&self, name: &str) -> Result<QueryResult> {
        let view = self
            .views
            .get(name)
            .ok_or_else(|| GisError::Catalog(format!("unknown materialized view '{name}'")))?;
        let metrics = self.run_refresh(&view)?;
        let rows = view.data().map(|d| d.batch.num_rows()).unwrap_or(0);
        status_result(
            format!(
                "refreshed materialized view {} ({} rows, {} bytes shipped)",
                view.name(),
                rows,
                metrics.bytes_shipped
            ),
            metrics,
        )
    }

    /// Drops a view (definition and materialized rows).
    pub fn drop_materialized_view(&self, name: &str) -> Result<QueryResult> {
        let view = self.views.remove(name)?;
        status_result(
            format!("dropped materialized view {}", view.name()),
            QueryMetrics::default(),
        )
    }

    /// Runs every due [`RefreshPolicy::Interval`] refresh against the
    /// virtual clock. The runtime's workers call this between jobs (a
    /// wall-clock thread cannot pace a virtual clock). When an
    /// interval elapses but no pinned source version moved, the timer
    /// is re-armed without shipping anything — refresh cost tracks
    /// actual change, not time. Returns the number of refreshes run.
    pub fn maintain_views(&self) -> usize {
        let mut refreshed = 0;
        for view in self.views.all() {
            if !view.interval_due(self.clock.now_us()) {
                continue;
            }
            let compiled = view.compiled();
            let plan_current = compiled.catalog_version == self.catalog.version();
            let current = self.data_versions_for(&compiled.sources);
            if plan_current && view.staleness(&current).is_fresh() {
                view.touch(self.clock.now_us());
            } else if self.run_refresh(&view).is_ok() {
                refreshed += 1;
            }
        }
        refreshed
    }

    /// Binds and optimizes a view definition, recording what it reads.
    fn compile_view(&self, stmt: &Statement) -> Result<CompiledView<LogicalPlan>> {
        // Capture the catalog version *before* binding: a concurrent
        // catalog change then marks the plan stale, never fresh.
        let catalog_version = self.catalog.version();
        let plan = self.plan_statement_with(stmt, &self.optimizer_options())?;
        let schema = plan.schema().clone();
        let sources = plan.source_names();
        Ok(CompiledView {
            plan: Arc::new(plan),
            schema,
            sources,
            catalog_version,
        })
    }

    /// Re-materializes one view: re-binds if the catalog moved, pins
    /// source versions, executes the stored plan (with view matching
    /// off — a view must never be refreshed from itself), installs
    /// the result.
    fn run_refresh(&self, view: &MaterializedView<LogicalPlan>) -> Result<QueryMetrics> {
        let mut compiled = view.compiled();
        if compiled.catalog_version != self.catalog.version() {
            let stmt = gis_sql::parse(view.sql())?;
            compiled = self.compile_view(&stmt)?;
            view.recompile(compiled.clone());
        }
        // Pin versions BEFORE executing: a write racing the refresh
        // leaves the view stale, never falsely fresh.
        let versions = self.data_versions_for(&compiled.sources);
        let mut ctx = self.ctx();
        ctx.exec.view_matching = false;
        let result = self.execute(&compiled.plan, &ctx)?;
        if result.degraded.is_some() {
            return Err(GisError::Unavailable(format!(
                "refresh of materialized view '{}' degraded; refusing to materialize a partial result",
                view.name()
            )));
        }
        view.install(result.batch, versions, self.clock.now_us());
        Ok(result.metrics)
    }

    /// Offers every usable view to the matcher and rewrites `plan`
    /// where one subsumes a subtree. A stale on-query-if-stale view
    /// that *would* match is refreshed first (synchronously); stale
    /// views under other policies are skipped and counted.
    fn apply_view_matching(&self, plan: &LogicalPlan) -> Option<(LogicalPlan, Vec<String>)> {
        let catalog_version = self.catalog.version();
        let mut candidates = Vec::new();
        for view in self.views.all() {
            let compiled = view.compiled();
            let plan_current = compiled.catalog_version == catalog_version;
            let fresh = plan_current
                && view
                    .staleness(&self.data_versions_for(&compiled.sources))
                    .is_fresh();
            if fresh {
                if let Some(d) = view.data() {
                    candidates.push(ViewCandidate {
                        name: view.name().to_string(),
                        plan: compiled.plan.clone(),
                        batch: d.batch,
                    });
                }
                continue;
            }
            // Stale rows (or a stale plan). Only worth acting on when
            // the view could answer part of *this* query.
            if !would_match(plan, &compiled.plan) {
                continue;
            }
            if view.policy() == RefreshPolicy::OnQueryIfStale && self.run_refresh(&view).is_ok() {
                let compiled = view.compiled();
                if let Some(d) = view.data() {
                    candidates.push(ViewCandidate {
                        name: view.name().to_string(),
                        plan: compiled.plan.clone(),
                        batch: d.batch,
                    });
                }
            } else {
                view.record_stale_skip();
            }
        }
        let outcome = rewrite_with_views(plan, &candidates);
        if let Some((_, used)) = &outcome {
            for name in used {
                if let Some(v) = self.views.get(name) {
                    v.record_hit();
                }
            }
        }
        outcome
    }

    /// The federation-wide defaults as a query envelope: current
    /// optimizer and execution options, query id 0, no deadline, the
    /// unlimited budget. Override fields with struct-update syntax.
    pub fn ctx(&self) -> QueryCtx<'static> {
        QueryCtx::new(self.optimizer_options(), self.exec_options())
    }

    /// Runs `sql` under the federation-wide defaults and returns rows
    /// plus metrics. `EXPLAIN` statements return the plan rendering as
    /// a one-column batch; materialized-view DDL and `ANALYZE` return
    /// a one-row status batch.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql, &self.ctx())
    }

    /// Like [`Federation::query`], but under the caller's envelope
    /// instead of the federation-wide defaults. This is the session
    /// path: a runtime session carries its own overrides and must not
    /// mutate shared state to apply them.
    pub fn run(&self, sql: &str, ctx: &QueryCtx<'_>) -> Result<QueryResult> {
        self.run_statement(&gis_sql::parse(sql)?, ctx)
    }

    /// Runs one parsed statement under `ctx` — the single statement
    /// dispatch. Queries and `EXPLAIN [ANALYZE]` honour every field of
    /// the envelope; the other statements only carry its query id.
    pub fn run_statement(&self, stmt: &Statement, ctx: &QueryCtx<'_>) -> Result<QueryResult> {
        let mut result = match stmt {
            Statement::Query(_) => self.plan_and_execute(stmt, ctx),
            Statement::Explain { analyze, statement } => {
                self.explain_statement(statement, *analyze, ctx)
            }
            // View DDL mutates federation-wide state; session option
            // overrides don't apply, so route to the shared APIs.
            Statement::CreateMaterializedView { name, query } => {
                self.create_materialized_view(name, &gis_sql::unparse::query_to_sql(query))
            }
            Statement::RefreshMaterializedView { name } => self.refresh_materialized_view(name),
            Statement::DropMaterializedView { name } => self.drop_materialized_view(name),
            // ANALYZE mutates shared catalog state; session overrides
            // don't apply.
            Statement::Analyze { source, table } => {
                self.run_analyze(source.as_deref(), table.as_deref())
            }
        }?;
        result.metrics.query_id = ctx.query_id;
        Ok(result)
    }

    /// `EXPLAIN` renders the plans; `EXPLAIN ANALYZE` runs the statement
    /// under `ctx` and renders the span tree it produced.
    fn explain_statement(
        &self,
        statement: &Statement,
        analyze: bool,
        ctx: &QueryCtx<'_>,
    ) -> Result<QueryResult> {
        let mut degraded = None;
        let rendered = if analyze {
            // Execute with tracing forced on: the annotated tree is
            // the point, whatever the session's normal settings are.
            let mut traced = *ctx;
            traced.exec.tracing = true;
            let result = self.plan_and_execute(statement, &traced)?;
            let trace = result.metrics.trace.as_ref();
            let mut rendered = trace.map(|span| span.render()).unwrap_or_default();
            rendered.push_str(&format!("-- executed: {}\n", result.metrics.summary()));
            if let Some(report) = &result.degraded {
                rendered.push_str(&format!("-- degraded: {}\n", report.summary()));
            }
            degraded = result.degraded;
            rendered
        } else {
            let plan = self.plan_statement_with(statement, &ctx.optimizer)?;
            self.render_plans(&plan, &ctx.exec)?
        };
        let schema = gis_types::Schema::new(vec![gis_types::Field::required(
            "plan",
            gis_types::DataType::Utf8,
        )])
        .into_ref();
        let rows: Vec<Vec<gis_types::Value>> = rendered
            .lines()
            .map(|l| vec![gis_types::Value::Utf8(l.to_string())])
            .collect();
        Ok(QueryResult {
            batch: Batch::from_rows(schema, &rows)?,
            metrics: QueryMetrics::default(),
            degraded,
        })
    }

    /// Frontend then backend for one query statement; `wall_us` covers
    /// both.
    fn plan_and_execute(&self, stmt: &Statement, ctx: &QueryCtx<'_>) -> Result<QueryResult> {
        let started = Instant::now();
        let plan = self.plan_statement_with(stmt, &ctx.optimizer)?;
        let mut result = self.execute(&plan, ctx)?;
        result.metrics.wall_us = started.elapsed().as_micros();
        Ok(result)
    }

    /// Binds and optimizes `sql` without executing (inspection/tests).
    pub fn logical_plan(&self, sql: &str) -> Result<LogicalPlan> {
        self.plan_statement_with(&gis_sql::parse(sql)?, &self.optimizer_options())
    }

    /// Renders the optimized logical and physical plans — what an
    /// `EXPLAIN` of `sql` under the federation-wide defaults shows.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let ctx = self.ctx();
        let plan = self.plan_statement_with(&gis_sql::parse(sql)?, &ctx.optimizer)?;
        self.render_plans(&plan, &ctx.exec)
    }

    fn render_plans(&self, plan: &LogicalPlan, exec: &ExecOptions) -> Result<String> {
        let physical = create_physical_plan(plan, &self.sources.read(), exec)?;
        Ok(format!(
            "== Logical plan ==\n{plan}== Physical plan ==\n{}",
            physical.display()
        ))
    }

    /// Binds and optimizes a parsed statement under explicit optimizer
    /// options. The frontend half of the query path; the runtime's
    /// plan cache wraps exactly this call.
    pub fn plan_statement_with(
        &self,
        stmt: &Statement,
        options: &OptimizerOptions,
    ) -> Result<LogicalPlan> {
        if let Statement::Query(q) = stmt {
            if let gis_sql::ast::SetExpr::Select(s) = &q.body {
                if let Some(from) = &s.from {
                    let mut seen = std::collections::HashSet::new();
                    check_duplicate_aliases(from, &mut seen)?;
                }
            }
        }
        let binder = Binder::new(self.catalog.clone());
        let bound = binder.bind(stmt)?;
        optimize(bound, options)
    }

    /// [`Federation::execute`] with the envelope spelled positionally.
    /// Kept only because `examples/bench_e2e/src/trace.rs` calls it and
    /// a PR may not touch the benchmark and the engine together: the
    /// next `benchmark` PR moves `trace.rs` to `execute` and deletes
    /// this wrapper.
    pub fn execute_logical(
        &self,
        plan: &LogicalPlan,
        exec: &ExecOptions,
        query_id: u64,
        deadline: Option<Instant>,
    ) -> Result<QueryResult> {
        let ctx = QueryCtx {
            exec: *exec,
            query_id,
            deadline,
            ..self.ctx()
        };
        self.execute(plan, &ctx)
    }

    /// Executes an already-optimized logical plan under `ctx` — the
    /// backend half of the query path: its execution options shape the
    /// physical plan, traffic and errors carry its query id, the query
    /// is cancelled (with [`GisError::Deadline`]) once its deadline
    /// passes, and kernels account against its budget. The runtime
    /// scheduler builds one budget per admitted query, charged against
    /// the process pool.
    pub fn execute(&self, plan: &LogicalPlan, ctx: &QueryCtx<'_>) -> Result<QueryResult> {
        let started = Instant::now();
        // View matching runs here — after optimization, at execution
        // time — because freshness is only knowable now, and because
        // the runtime's plan cache must never store a view decision
        // that could outlive the view's freshness.
        let rewritten = if ctx.exec.view_matching && !self.views.is_empty() {
            self.apply_view_matching(plan)
        } else {
            None
        };
        let (plan, views_used) = match &rewritten {
            Some((p, used)) => (p, used.clone()),
            None => (plan, Vec::new()),
        };
        let sources = self.sources.read();
        let physical = create_physical_plan(plan, &sources, &ctx.exec)?;
        // Traffic is accounted over *every* replica link: a failover
        // charges the replica that actually carried (or dropped) the
        // messages, not the logical source's primary.
        let links: Vec<&Link> = sources
            .values()
            .flat_map(|g| g.replicas().iter().map(|r| r.link()))
            .collect();
        let snapshot = TrafficSnapshot::capture(links.iter().copied(), &self.clock);
        let elapsed_from = SimClock::thread_elapsed_us();
        let exec = ExecContext::new(&sources, ctx);
        let (batch, trace) = physical.execute(&exec)?;
        let mut metrics = snapshot.diff_against(links.iter().copied(), &self.clock);
        metrics.virtual_elapsed_us = SimClock::thread_elapsed_us() - elapsed_from;
        metrics.rows_returned = batch.num_rows();
        metrics.fragments = physical.fragment_count();
        metrics.query_id = ctx.query_id;
        metrics.wall_us = started.elapsed().as_micros();
        metrics.trace = trace;
        metrics.views_used = views_used;
        // Stamp the root span with the optimizer's estimate so
        // `EXPLAIN ANALYZE` shows est-vs-actual at the top of the tree
        // (fragments carry their own scan-level estimates).
        if let Some(span) = &mut metrics.trace {
            span.est_rows = crate::cost::estimate(plan).rows.round().max(1.0) as u64;
        }
        let degraded = exec.take_degraded();
        // Cardinality feedback: compare the optimizer's root estimate
        // against the observed row count, attributed to every base
        // table the plan read. Degraded (partial) results are skipped
        // — a missing source, not a bad estimate.
        if degraded.is_none() {
            let tables: Vec<(String, String)> = plan
                .scans()
                .iter()
                .map(|s| {
                    (
                        s.resolved.source.name.clone(),
                        s.resolved.mapping.source_table.clone(),
                    )
                })
                .collect();
            if !tables.is_empty() {
                let est = crate::cost::estimate(plan).rows;
                self.feedback.record(
                    plan_fingerprint(&plan.to_string()),
                    &tables,
                    est,
                    batch.num_rows() as u64,
                    self.clock.now_us(),
                );
            }
        }
        Ok(QueryResult {
            batch,
            metrics,
            degraded,
        })
    }
}
