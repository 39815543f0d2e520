//! The physical operator tree.

use crate::exec::aggregate::{distinct, hash_aggregate};
use crate::exec::fragment::FragmentExec;
use crate::exec::join::{hash_join, nested_loop_join};
use crate::exec::keys::{group_rows, KernelGov, KernelOptions};
use crate::exec::options::{ExecOptions, QueryCtx};
use crate::exec::sort::sort_batch;
use crate::expr::eval::{evaluate, evaluate_predicate};
use crate::expr::ScalarExpr;
use crate::metrics::{DegradedReport, DegradedSource};
use crate::plan::logical::AggregateExpr;
use gis_adapters::{is_availability_error, SourceGroup, SourceRequest};
use gis_catalog::TableMapping;
use gis_net::KeyBloom;
use gis_observe::Span;
use gis_sql::ast::JoinKind;
use gis_types::mem::MemBudget;
use gis_types::{Array, Batch, GisError, Result, Schema, SchemaRef, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Everything execution needs: the registry of metered source groups
/// and the query's envelope (options, query id, deadline, budget),
/// plus the collector for degraded-source reports when
/// `partial_results` is on.
pub struct ExecContext<'a> {
    sources: &'a HashMap<String, SourceGroup>,
    query: QueryCtx<'a>,
    degraded: Mutex<Vec<DegradedSource>>,
}

impl<'a> ExecContext<'a> {
    /// A context running `query` over a source registry.
    pub fn new(sources: &'a HashMap<String, SourceGroup>, query: &QueryCtx<'a>) -> Self {
        ExecContext {
            sources,
            query: *query,
            degraded: Mutex::new(Vec::new()),
        }
    }

    /// The query's memory budget.
    pub fn budget(&self) -> &'a MemBudget {
        self.query.budget
    }

    /// The kernel governor for this query: budget + deadline +
    /// query id, handed to every hash kernel so cancellation checks
    /// fire *inside* partitioned loops, not only between operators.
    pub fn kernel_gov(&self) -> KernelGov<'a> {
        KernelGov::new(self.query.budget, self.query.deadline, self.query.query_id)
    }

    /// The runtime-assigned query id (0 when ad-hoc).
    pub fn query_id(&self) -> u64 {
        self.query.query_id
    }

    /// Errors with [`GisError::Deadline`] when past the deadline.
    pub fn check_deadline(&self) -> Result<()> {
        match self.query.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(GisError::Deadline(format!(
                "query {} exceeded its deadline; fragment fetches cancelled",
                self.query.query_id
            ))),
            _ => Ok(()),
        }
    }

    /// The execution options.
    pub fn options(&self) -> &ExecOptions {
        &self.query.exec
    }

    /// The query deadline, if any (threaded into fragment retries so
    /// an expired query stops burning round trips).
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.query.deadline
    }

    /// Looks up a source group by name.
    pub fn source(&self, name: &str) -> Result<&SourceGroup> {
        self.sources
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| GisError::Internal(format!("no adapter registered for source '{name}'")))
    }

    /// Records that `source` could not be reached and its fragments
    /// were answered with zero rows (partial-results mode). One entry
    /// per source, whichever fragment hit it first.
    pub fn record_degraded(&self, source: &str, error: &GisError) {
        let mut degraded = self.degraded.lock();
        if degraded.iter().all(|d| d.source != source) {
            degraded.push(DegradedSource {
                source: source.to_string(),
                error: error.to_string(),
            });
        }
    }

    /// The degraded-source report accumulated during execution, if
    /// any — sorted by source name for stable output.
    pub fn take_degraded(&self) -> Option<DegradedReport> {
        let mut missing = std::mem::take(&mut *self.degraded.lock());
        if missing.is_empty() {
            return None;
        }
        missing.sort_by(|a, b| a.source.cmp(&b.source));
        Some(DegradedReport { missing })
    }
}

/// Applies partial-results degradation to a remote operator's
/// outcome: an availability failure (every replica unreachable, or
/// fail-fast from an open breaker) becomes an empty batch plus a
/// degraded-source record — but only when the session opted in; any
/// other error propagates untouched.
fn degrade_on_unavailable(
    result: Result<(Batch, Option<Span>)>,
    ctx: &ExecContext<'_>,
    source: &str,
    schema: &SchemaRef,
) -> Result<(Batch, Option<Span>)> {
    match result {
        Err(e) if ctx.options().partial_results && is_availability_error(&e) => {
            ctx.record_degraded(source, &e);
            let span = ctx
                .options()
                .tracing
                .then(|| Span::leaf(format!("degraded[{source}]: {}", e.code())));
            Ok((Batch::empty(schema.clone()), span))
        }
        other => other,
    }
}

/// A pushed-down whole aggregation executed at the source.
#[derive(Debug, Clone)]
pub struct RemoteAggExec {
    /// Source name.
    pub source: String,
    /// The aggregate request.
    pub request: SourceRequest,
    /// Full export schema of the table.
    pub export_schema: SchemaRef,
    /// Export→global mapping (for group-column transforms).
    pub mapping: TableMapping,
    /// Global ordinals of the group columns, in request order.
    pub group_global: Vec<usize>,
    /// Output schema (matches the logical Aggregate node).
    pub schema: SchemaRef,
}

/// A co-located join evaluated entirely at one source: both tables
/// live there, only the joined (filtered, projected) result ships.
#[derive(Debug, Clone)]
pub struct RemoteJoinExec {
    /// Source name.
    pub source: String,
    /// The [`SourceRequest::Join`] shipped.
    pub request: SourceRequest,
    /// Full export schema of the left table.
    pub left_export: SchemaRef,
    /// Full export schema of the right table.
    pub right_export: SchemaRef,
    /// Positional mapping columns: `columns[i]` transforms response
    /// column `i` to its global form.
    pub columns: Vec<gis_catalog::ColumnMapping>,
    /// Mediator-side residual over the transformed response layout.
    pub residual: Option<ScalarExpr>,
    /// Positions into the transformed response forming the output.
    pub output_positions: Vec<usize>,
    /// Final output schema (the logical join's schema).
    pub schema: SchemaRef,
}

impl RemoteJoinExec {
    fn execute(&self, ctx: &ExecContext<'_>) -> Result<(Batch, Option<Span>)> {
        let trace = ctx.options().tracing;
        let started = trace.then(std::time::Instant::now);
        let resp_schema = self
            .request
            .join_output_schema(&self.left_export, &self.right_export)?;
        let (raw, recv) =
            ctx.source(&self.source)?
                .fetch(&self.request, &resp_schema, trace, ctx.deadline())?;
        let rows_in = raw.num_rows() as u64;
        // Apply per-column transforms positionally.
        let mut cols = Vec::with_capacity(self.columns.len());
        let mut fields = Vec::with_capacity(self.columns.len());
        for (i, cm) in self.columns.iter().enumerate() {
            let transformed = cm.transform.apply_array(raw.column(i))?;
            cols.push(transformed.cast_to(cm.global.data_type)?);
            fields.push(cm.global.clone());
        }
        let mapped = Batch::try_new(Arc::new(Schema::new(fields)), cols)?;
        let filtered = match &self.residual {
            Some(pred) => {
                let keep = evaluate_predicate(pred, &mapped)?;
                mapped.filter(&keep)?
            }
            None => mapped,
        };
        let projected = filtered.project(&self.output_positions)?;
        let batch = projected.with_schema(self.schema.clone())?;
        let span = started.map(|t| {
            let mut s = Span::leaf(format!("RemoteJoin[{}]", self.source))
                .with_rows_in(rows_in)
                .with_rows_out(batch.num_rows() as u64)
                .with_wall_us(t.elapsed().as_micros() as u64);
            s.children.extend(recv);
            s
        });
        Ok((batch, span))
    }
}

/// A bind-join: outer rows' keys shipped to the inner source, which
/// returns only matching rows.
#[derive(Debug, Clone)]
pub struct BindJoinExec {
    /// Mediator-side (outer) input.
    pub outer: Box<PhysicalPlan>,
    /// Key ordinals in the outer output.
    pub outer_keys: Vec<usize>,
    /// The inner fragment (request field holds the Lookup template).
    pub inner: FragmentExec,
    /// Positions of the key columns within the inner fragment output.
    pub inner_key_positions: Vec<usize>,
    /// Join kind (Inner, Left, Semi or Anti).
    pub kind: JoinKind,
    /// Residual join condition over `outer ++ inner` layout.
    pub residual: Option<ScalarExpr>,
    /// The columns of the join's natural output that `schema` keeps
    /// (`None` = all of them): what a column-only `Project` parent
    /// reads. Nothing else is gathered.
    pub output: Option<Vec<usize>>,
    /// Keys per Lookup message (`usize::MAX` = classic semijoin:
    /// one message with the whole distinct key set).
    pub batch_size: usize,
    /// Output schema.
    pub schema: SchemaRef,
    /// Strategy label for EXPLAIN (`semijoin` / `bind-join`).
    pub label: &'static str,
    /// The inner source can evaluate a shipped Bloom filter
    /// (capability `filter_lookup`), making the bloom-semijoin wire
    /// format an option on the classic-semijoin path.
    pub filter_capable: bool,
    /// Planner's estimate of the inner table's row count — prices the
    /// false-positive rows a Bloom filter would fetch back.
    pub inner_rows_est: u64,
    /// Planner's estimate of the inner table's wire bytes per row.
    pub inner_row_bytes: u64,
}

/// One resolved sort key.
#[derive(Debug, Clone)]
pub struct PhysicalSortKey {
    /// Key expression over the input.
    pub expr: ScalarExpr,
    /// Ascending?
    pub asc: bool,
    /// NULLs first?
    pub nulls_first: bool,
}

/// The physical plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Remote scan fragment.
    Fragment(FragmentExec),
    /// Remote aggregation fragment.
    RemoteAggregate(RemoteAggExec),
    /// Co-located join fragment.
    RemoteJoin(RemoteJoinExec),
    /// Mediator filter.
    Filter {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Predicate.
        predicate: ScalarExpr,
    },
    /// Mediator projection.
    Project {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Output expressions.
        exprs: Vec<ScalarExpr>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Mediator hash join.
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Probe key ordinals.
        left_keys: Vec<usize>,
        /// Build key ordinals.
        right_keys: Vec<usize>,
        /// Join kind.
        kind: JoinKind,
        /// Residual ON condition over `left ++ right`.
        residual: Option<ScalarExpr>,
        /// The columns of the natural output (`left ++ right`; `left`
        /// for semi and anti joins) that `schema` keeps, `None` = all:
        /// what a column-only `Project` parent reads.
        output: Option<Vec<usize>>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Mediator nested-loop join (cross / non-equi).
    NestedLoop {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// Condition over `left ++ right`.
        condition: Option<ScalarExpr>,
        /// Kept columns of the natural output, as for `HashJoin`.
        output: Option<Vec<usize>>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Bind-join / semijoin reduction.
    BindJoin(BindJoinExec),
    /// Mediator hash aggregation.
    HashAggregate {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Group expressions.
        group_exprs: Vec<ScalarExpr>,
        /// Aggregates.
        aggregates: Vec<AggregateExpr>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Mediator sort.
    Sort {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Keys.
        keys: Vec<PhysicalSortKey>,
        /// Rows a `Limit` above needs (its skip + fetch): the sort
        /// keeps only that many, selected before ordering.
        fetch: Option<usize>,
    },
    /// Skip/fetch.
    Limit {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Rows to skip.
        skip: usize,
        /// Max rows.
        fetch: Option<usize>,
    },
    /// Bag union.
    Union {
        /// Inputs.
        inputs: Vec<PhysicalPlan>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input.
        input: Box<PhysicalPlan>,
    },
    /// Constant rows.
    Values {
        /// Output schema.
        schema: SchemaRef,
        /// Rows.
        rows: Vec<Vec<Value>>,
    },
    /// Rows served from a mediator-side materialized view: zero wire
    /// traffic, zero source work.
    ViewScan {
        /// The view's name (shown as `view[name]` in span trees).
        name: String,
        /// Output schema (from the replaced logical subtree).
        schema: SchemaRef,
        /// The materialized rows.
        batch: Batch,
    },
}

impl PhysicalPlan {
    /// Output schema.
    pub fn schema(&self) -> &SchemaRef {
        match self {
            PhysicalPlan::Fragment(f) => &f.schema,
            PhysicalPlan::RemoteAggregate(r) => &r.schema,
            PhysicalPlan::RemoteJoin(r) => &r.schema,
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { schema, .. } => schema,
            PhysicalPlan::HashJoin { schema, .. } => schema,
            PhysicalPlan::NestedLoop { schema, .. } => schema,
            PhysicalPlan::BindJoin(b) => &b.schema,
            PhysicalPlan::HashAggregate { schema, .. } => schema,
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
            PhysicalPlan::Union { schema, .. } => schema,
            PhysicalPlan::Distinct { input } => input.schema(),
            PhysicalPlan::Values { schema, .. } => schema,
            PhysicalPlan::ViewScan { schema, .. } => schema,
        }
    }

    /// Number of source fragments in the tree (shipped requests).
    pub fn fragment_count(&self) -> usize {
        let own = match self {
            PhysicalPlan::Fragment(_)
            | PhysicalPlan::RemoteAggregate(_)
            | PhysicalPlan::RemoteJoin(_) => 1,
            PhysicalPlan::BindJoin(_) => 1,
            _ => 0,
        };
        own + self
            .children()
            .iter()
            .map(|c| c.fragment_count())
            .sum::<usize>()
    }

    fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Fragment(_)
            | PhysicalPlan::RemoteAggregate(_)
            | PhysicalPlan::RemoteJoin(_)
            | PhysicalPlan::Values { .. }
            | PhysicalPlan::ViewScan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoop { left, right, .. } => vec![left, right],
            PhysicalPlan::BindJoin(b) => vec![&b.outer],
            PhysicalPlan::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Executes the plan to a single batch, additionally producing a
    /// per-operator [`Span`] tree when `ctx.options().tracing` is on.
    /// Every node records rows in/out and wall time; remote exchanges
    /// add bytes and messages plus the span the *source itself*
    /// reported over the wire — the mediator stitches, it never
    /// guesses.
    pub fn execute(&self, ctx: &ExecContext<'_>) -> Result<(Batch, Option<Span>)> {
        // One choke point cancels the whole tree: every operator
        // (including each fragment fetch and bind-join batch, which
        // recurse through here) re-checks the deadline on entry.
        ctx.check_deadline()?;
        let trace = ctx.options().tracing;
        // Remote operators build their own spans: they know the wire
        // bytes and carry the source-reported subtree.
        match self {
            PhysicalPlan::Fragment(f) => {
                return degrade_on_unavailable(f.execute(ctx), ctx, &f.source, &f.schema);
            }
            PhysicalPlan::RemoteAggregate(r) => {
                let result = execute_remote_agg(r, ctx);
                return degrade_on_unavailable(result, ctx, &r.source, &r.schema);
            }
            PhysicalPlan::RemoteJoin(r) => {
                return degrade_on_unavailable(r.execute(ctx), ctx, &r.source, &r.schema);
            }
            // Bind joins degrade *inside* the operator (at the lookup
            // loop) so a left join keeps its reachable outer rows.
            PhysicalPlan::BindJoin(b) => return execute_bind_join(b, ctx),
            _ => {}
        }
        // Mediator operators share the generic wrap-up below: run the
        // children (collecting their spans and row counts), produce
        // the output, then stamp one span for this node.
        let started = trace.then(std::time::Instant::now);
        let mut children: Vec<Span> = Vec::new();
        let mut rows_in: u64 = 0;
        let batch = match self {
            PhysicalPlan::Fragment(_)
            | PhysicalPlan::RemoteAggregate(_)
            | PhysicalPlan::RemoteJoin(_)
            | PhysicalPlan::BindJoin(_) => unreachable!("remote operators returned above"),
            PhysicalPlan::Filter { input, predicate } => {
                let batch = run_child(input, ctx, &mut children, &mut rows_in)?;
                let keep = evaluate_predicate(predicate, &batch)?;
                batch.filter(&keep)?
            }
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let batch = run_child(input, ctx, &mut children, &mut rows_in)?;
                let mut columns = Vec::with_capacity(exprs.len());
                for (e, f) in exprs.iter().zip(schema.fields()) {
                    let col = evaluate(e, &batch)?;
                    columns.push(col.cast_to(f.data_type)?);
                }
                Batch::try_new(schema.clone(), columns)?
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                residual,
                output,
                schema,
            } => {
                let ((l, ls), (r, rs)) = execute_pair(left, right, ctx)?;
                rows_in += (l.num_rows() + r.num_rows()) as u64;
                children.extend(ls);
                children.extend(rs);
                let (batch, kstats) = hash_join(
                    &l,
                    &r,
                    left_keys,
                    right_keys,
                    *kind,
                    residual.as_ref(),
                    output.as_deref(),
                    schema.clone(),
                    &KernelOptions::default(),
                    &ctx.kernel_gov(),
                )?;
                if trace {
                    children.push(kstats.to_span());
                    children.extend(kstats.governor_spans());
                }
                batch
            }
            PhysicalPlan::NestedLoop {
                left,
                right,
                kind,
                condition,
                output,
                schema,
            } => {
                let ((l, ls), (r, rs)) = execute_pair(left, right, ctx)?;
                rows_in += (l.num_rows() + r.num_rows()) as u64;
                children.extend(ls);
                children.extend(rs);
                nested_loop_join(
                    &l,
                    &r,
                    *kind,
                    condition.as_ref(),
                    output.as_deref(),
                    schema.clone(),
                )?
            }
            PhysicalPlan::HashAggregate {
                input,
                group_exprs,
                aggregates,
                schema,
            } => {
                let batch = run_child(input, ctx, &mut children, &mut rows_in)?;
                let (out, kstats) = hash_aggregate(
                    &batch,
                    group_exprs,
                    aggregates,
                    schema.clone(),
                    &KernelOptions::default(),
                    &ctx.kernel_gov(),
                )?;
                if trace {
                    children.push(kstats.to_span());
                    children.extend(kstats.governor_spans());
                }
                out
            }
            PhysicalPlan::Sort { input, keys, fetch } => {
                let batch = run_child(input, ctx, &mut children, &mut rows_in)?;
                let (out, kstats) = sort_batch(&batch, keys, *fetch, &ctx.kernel_gov())?;
                if trace {
                    children.push(kstats.to_span());
                    children.extend(kstats.governor_spans());
                }
                out
            }
            PhysicalPlan::Limit { input, skip, fetch } => {
                let batch = run_child(input, ctx, &mut children, &mut rows_in)?;
                let start = (*skip).min(batch.num_rows());
                let len = fetch.unwrap_or(usize::MAX);
                batch.slice(start, len)
            }
            PhysicalPlan::Union { inputs, schema } => {
                let raw: Vec<Batch> = if ctx.options().parallel_fetch && inputs.len() > 1 {
                    let parts = execute_all_parallel(inputs, ctx)?;
                    let mut raw = Vec::with_capacity(parts.len());
                    for (b, s) in parts {
                        rows_in += b.num_rows() as u64;
                        children.extend(s);
                        raw.push(b);
                    }
                    raw
                } else {
                    inputs
                        .iter()
                        .map(|i| run_child(i, ctx, &mut children, &mut rows_in))
                        .collect::<Result<_>>()?
                };
                // Re-install the union schema (names may differ).
                let parts: Vec<Batch> = raw
                    .into_iter()
                    .map(|b| b.with_schema(schema.clone()))
                    .collect::<Result<_>>()?;
                Batch::concat(schema.clone(), &parts)?
            }
            PhysicalPlan::Distinct { input } => {
                let batch = run_child(input, ctx, &mut children, &mut rows_in)?;
                let (out, kstats) = distinct(&batch, &KernelOptions::default(), &ctx.kernel_gov())?;
                if trace {
                    children.push(kstats.to_span());
                    children.extend(kstats.governor_spans());
                }
                out
            }
            PhysicalPlan::Values { schema, rows } => {
                if schema.is_empty() {
                    // Zero-column relations still carry a row count
                    // (`SELECT 1` evaluates over one empty row).
                    Batch::placeholder(rows.len())
                } else {
                    Batch::from_rows(schema.clone(), rows)?
                }
            }
            // The rows live at the mediator; re-stamp them with the
            // consumer-side schema (names positionally match).
            PhysicalPlan::ViewScan { schema, batch, .. } => batch.with_schema(schema.clone())?,
        };
        let span = started.map(|t| {
            let mut s = Span::leaf(self.span_label())
                .with_rows_in(rows_in)
                .with_rows_out(batch.num_rows() as u64)
                .with_wall_us(t.elapsed().as_micros() as u64);
            s.children = children;
            s
        });
        Ok((batch, span))
    }

    /// One-line operator label used for span trees; matches the
    /// head line `EXPLAIN` renders for the same node.
    fn span_label(&self) -> String {
        match self {
            PhysicalPlan::Fragment(f) => format!("Fragment[{}]", f.source),
            PhysicalPlan::RemoteAggregate(r) => format!("RemoteAggregate[{}]", r.source),
            PhysicalPlan::RemoteJoin(r) => format!("RemoteJoin[{}]", r.source),
            PhysicalPlan::BindJoin(b) => b.span_label(),
            PhysicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            PhysicalPlan::Project { exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Project: {}", items.join(", "))
            }
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                kind,
                output,
                ..
            } => format!(
                "HashJoin[{kind}]: left{left_keys:?} = right{right_keys:?}{}",
                kept_columns(output)
            ),
            PhysicalPlan::NestedLoop { kind, output, .. } => {
                format!("NestedLoop[{kind}]{}", kept_columns(output))
            }
            PhysicalPlan::HashAggregate {
                group_exprs,
                aggregates,
                ..
            } => {
                let gs: Vec<String> = group_exprs.iter().map(|g| g.to_string()).collect();
                let asx: Vec<String> = aggregates.iter().map(|a| a.display_name()).collect();
                format!(
                    "HashAggregate: group=[{}] aggs=[{}]",
                    gs.join(", "),
                    asx.join(", ")
                )
            }
            PhysicalPlan::Sort { keys, fetch, .. } => sort_label(keys, *fetch),
            PhysicalPlan::Limit { skip, fetch, .. } => {
                format!("Limit: skip={skip} fetch={fetch:?}")
            }
            PhysicalPlan::Union { .. } => "UnionAll".into(),
            PhysicalPlan::Distinct { .. } => "Distinct".into(),
            PhysicalPlan::Values { rows, .. } => format!("Values: {} row(s)", rows.len()),
            PhysicalPlan::ViewScan { name, .. } => format!("view[{name}]"),
        }
    }

    /// Renders the physical tree for `EXPLAIN`.
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.render(0, &mut out);
        out
    }

    fn render(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::Fragment(f) => {
                let _ = writeln!(
                    out,
                    "{pad}Fragment[{}]: {:?} residual={}",
                    f.source,
                    request_summary(&f.request),
                    f.residual
                        .as_ref()
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| "none".into()),
                );
            }
            PhysicalPlan::RemoteAggregate(r) => {
                let _ = writeln!(
                    out,
                    "{pad}RemoteAggregate[{}]: {:?}",
                    r.source,
                    request_summary(&r.request)
                );
            }
            PhysicalPlan::RemoteJoin(r) => {
                let _ = writeln!(
                    out,
                    "{pad}RemoteJoin[{}]: {:?}",
                    r.source,
                    request_summary(&r.request)
                );
            }
            PhysicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter: {predicate}");
                input.render(depth + 1, out);
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                let _ = writeln!(out, "{pad}Project: {}", items.join(", "));
                input.render(depth + 1, out);
            }
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoop { left, right, .. } => {
                let _ = writeln!(out, "{pad}{}", self.span_label());
                left.render(depth + 1, out);
                right.render(depth + 1, out);
            }
            PhysicalPlan::BindJoin(b) => {
                let _ = writeln!(
                    out,
                    "{pad}{}: outer{:?}, batch={}{}",
                    b.head(),
                    b.outer_keys,
                    if b.batch_size == usize::MAX {
                        "all".to_string()
                    } else {
                        b.batch_size.to_string()
                    },
                    kept_columns(&b.output)
                );
                b.outer.render(depth + 1, out);
            }
            PhysicalPlan::HashAggregate {
                input,
                group_exprs,
                aggregates,
                ..
            } => {
                let gs: Vec<String> = group_exprs.iter().map(|g| g.to_string()).collect();
                let asx: Vec<String> = aggregates.iter().map(|a| a.display_name()).collect();
                let _ = writeln!(
                    out,
                    "{pad}HashAggregate: group=[{}] aggs=[{}]",
                    gs.join(", "),
                    asx.join(", ")
                );
                input.render(depth + 1, out);
            }
            PhysicalPlan::Sort { input, keys, fetch } => {
                let _ = writeln!(out, "{pad}{}", sort_label(keys, *fetch));
                input.render(depth + 1, out);
            }
            PhysicalPlan::Limit { input, skip, fetch } => {
                let _ = writeln!(out, "{pad}Limit: skip={skip} fetch={fetch:?}");
                input.render(depth + 1, out);
            }
            PhysicalPlan::Union { inputs, .. } => {
                let _ = writeln!(out, "{pad}UnionAll");
                for i in inputs {
                    i.render(depth + 1, out);
                }
            }
            PhysicalPlan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.render(depth + 1, out);
            }
            PhysicalPlan::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}Values: {} row(s)", rows.len());
            }
            PhysicalPlan::ViewScan { name, batch, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}view[{name}]: {} materialized row(s)",
                    batch.num_rows()
                );
            }
        }
    }
}

/// Executes one child, folding its span and row count into the
/// parent's accumulators.
fn run_child(
    child: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    children: &mut Vec<Span>,
    rows_in: &mut u64,
) -> Result<Batch> {
    let (batch, span) = child.execute(ctx)?;
    *rows_in += batch.num_rows() as u64;
    children.extend(span);
    Ok(batch)
}

type TracedBatch = (Batch, Option<Span>);

/// A panic on a fetch thread fails the query, not the mediator.
fn fetch_thread_panicked<E>(_payload: E) -> GisError {
    GisError::Internal("fetch thread panicked".into())
}

/// Executes two subplans, concurrently when `parallel_fetch` is on.
fn execute_pair(
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    ctx: &ExecContext<'_>,
) -> Result<(TracedBatch, TracedBatch)> {
    if !ctx.options().parallel_fetch {
        return Ok((left.execute(ctx)?, right.execute(ctx)?));
    }
    std::thread::scope(|s| {
        let lh = s.spawn(|| left.execute(ctx));
        let r = right.execute(ctx);
        let l = lh.join().map_err(fetch_thread_panicked)?;
        Ok((l?, r?))
    })
}

/// Executes many subplans on one thread each.
fn execute_all_parallel(plans: &[PhysicalPlan], ctx: &ExecContext<'_>) -> Result<Vec<TracedBatch>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|p| s.spawn(move || p.execute(ctx)))
            .collect();
        // Join every handle before reading any outcome: the scope
        // re-raises the panic of a thread it had to join itself, so
        // stopping at the first failure would turn a second panicked
        // branch into a mediator panic.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .map(|j| j.map_err(fetch_thread_panicked)?)
            .collect()
    })
}

/// ` out=[1, 4, 6]` on a join that builds only those columns of its
/// natural output; nothing on one that builds them all.
fn kept_columns(output: &Option<Vec<usize>>) -> String {
    output
        .as_ref()
        .map_or_else(String::new, |o| format!(" out={o:?}"))
}

/// `Sort: amount DESC, order_id ASC fetch=20` — the head line of a
/// sort in `EXPLAIN` and in span trees.
fn sort_label(keys: &[PhysicalSortKey], fetch: Option<usize>) -> String {
    let ks: Vec<String> = keys
        .iter()
        .map(|k| format!("{} {}", k.expr, if k.asc { "ASC" } else { "DESC" }))
        .collect();
    match fetch {
        Some(k) => format!("Sort: {} fetch={k}", ks.join(", ")),
        None => format!("Sort: {}", ks.join(", ")),
    }
}

fn request_summary(req: &SourceRequest) -> String {
    match req {
        SourceRequest::Scan {
            table,
            predicates,
            projection,
            sort,
            limit,
        } => format!(
            "scan {table} preds={} proj={} sort={} limit={limit:?}",
            predicates.len(),
            projection.len(),
            sort.len()
        ),
        SourceRequest::Aggregate {
            table,
            group_by,
            aggregates,
            ..
        } => format!(
            "agg {table} groups={} aggs={}",
            group_by.len(),
            aggregates.len()
        ),
        SourceRequest::Lookup {
            table,
            key_columns,
            keys,
            ..
        } => format!("lookup {table} keycols={key_columns:?} keys={}", keys.len()),
        SourceRequest::LookupFilter {
            table,
            key_columns,
            bloom,
            ..
        } => format!(
            "filter {table} keycols={key_columns:?} bloom={}B",
            bloom.size_bytes()
        ),
        SourceRequest::Join {
            left_table,
            right_table,
            left_keys,
            right_keys,
            left_predicates,
            right_predicates,
            ..
        } => format!(
            "join {left_table}{left_keys:?} = {right_table}{right_keys:?} preds={}+{}",
            left_predicates.len(),
            right_predicates.len()
        ),
    }
}

fn execute_remote_agg(r: &RemoteAggExec, ctx: &ExecContext<'_>) -> Result<(Batch, Option<Span>)> {
    let trace = ctx.options().tracing;
    let started = trace.then(std::time::Instant::now);
    let resp_schema = r.request.output_schema(&r.export_schema)?;
    let (raw, recv) =
        ctx.source(&r.source)?
            .fetch(&r.request, &resp_schema, trace, ctx.deadline())?;
    // Group columns go through their mapping transforms; aggregate
    // outputs are cast to the declared output types.
    let mut columns = Vec::with_capacity(r.schema.len());
    for (i, field) in r.schema.fields().iter().enumerate() {
        let col = if i < r.group_global.len() {
            let cm = &r.mapping.columns[r.group_global[i]];
            cm.transform.apply_array(raw.column(i))?
        } else {
            raw.column(i).clone()
        };
        columns.push(col.cast_to(field.data_type)?);
    }
    let batch = Batch::try_new(r.schema.clone(), columns)?;
    let span = started.map(|t| {
        let mut s = Span::leaf(format!("RemoteAggregate[{}]", r.source))
            .with_rows_in(raw.num_rows() as u64)
            .with_rows_out(batch.num_rows() as u64)
            .with_wall_us(t.elapsed().as_micros() as u64);
        s.children.extend(recv);
        s
    });
    Ok((batch, span))
}

fn execute_bind_join(b: &BindJoinExec, ctx: &ExecContext<'_>) -> Result<(Batch, Option<Span>)> {
    let trace = ctx.options().tracing;
    let started = trace.then(std::time::Instant::now);
    let mut children: Vec<Span> = Vec::new();
    let (outer, outer_span) = b.outer.execute(ctx)?;
    children.extend(outer_span);
    let remote = ctx.source(&b.inner.source)?;
    // Distinct non-null outer key tuples, inverted to export values.
    let SourceRequest::Lookup {
        table,
        key_columns,
        projection,
        ..
    } = &b.inner.request
    else {
        return Err(GisError::Internal(
            "bind join inner request must be a Lookup".into(),
        ));
    };
    // Bind joins push one receive span per key batch; a pathological
    // outer (millions of distinct keys at batch_size=1) must not turn
    // the trace itself into a memory hog. Spans past the cap are
    // dropped and summarized in one overflow leaf.
    const BIND_RECV_SPAN_CAP: usize = 64;
    let mut recv_spans: usize = 0;
    let mut recv_dropped: u64 = 0;
    // One representative row per distinct outer key tuple (the
    // grouping kernel, column at a time); only representatives are
    // inverted through the mapping transform of their inner key
    // column. A NULL component never joins and a non-invertible value
    // matches nothing, so neither ships.
    let key_cols: Vec<&Array> = b.outer_keys.iter().map(|&k| outer.column(k)).collect();
    let (distinct, _) = group_rows(
        &key_cols,
        outer.num_rows(),
        &KernelOptions::default(),
        &ctx.kernel_gov(),
    )?;
    let mut inverters = Vec::with_capacity(key_cols.len());
    for (k, &kexp) in key_columns.iter().enumerate().take(key_cols.len()) {
        let export_type = b.inner.export_schema.field(kexp).data_type;
        inverters.push((b.inner_key_mapping(k)?, export_type));
    }
    let mut export_keys: Vec<Vec<Value>> = Vec::with_capacity(distinct.num_groups());
    'keys: for &row in &distinct.representatives {
        let mut export_key = Vec::with_capacity(inverters.len());
        for (col, (cm, export_type)) in key_cols.iter().zip(&inverters) {
            let component = col.value_at(row as usize);
            let inverted = match component {
                Value::Null => None,
                v => cm.transform.invert_literal(&v, *export_type),
            };
            match inverted {
                Some(v) => export_key.push(v),
                None => continue 'keys,
            }
        }
        export_keys.push(export_key);
    }
    // A sorted, deduplicated key list is cheaper on the wire — the
    // request codec delta-compresses sorted integer key columns, and
    // distinct pre-image keys can invert to one export value, so
    // duplicates may exist here. Join results don't depend on order.
    export_keys.sort();
    export_keys.dedup();
    // Ship keys in batches, collect matching inner rows.
    let resp_schema = b.inner.request.output_schema(&b.inner.export_schema)?;
    let mut inner_rows: u64 = 0;
    let mut inner_parts: Vec<Batch> = Vec::new();
    // The classic-semijoin path (whole key set in one message) may
    // ship a Bloom filter of the keys instead of the keys themselves,
    // when the source can evaluate one and the filter plus its
    // expected false-positive rows prices below the explicit list.
    // False positives come back as extra inner rows and are dropped
    // by the mediator hash join below — both modes return identical
    // rows, only the bytes differ.
    const BLOOM_FPP: f64 = 0.01;
    let mut keyship = format!("keyship[mode=keys n={}]", export_keys.len());
    let mut requests: Vec<SourceRequest> = Vec::new();
    if b.batch_size == usize::MAX
        && ctx.options().bloom_semijoin
        && b.filter_capable
        && !export_keys.is_empty()
    {
        let key_list_bytes: usize = export_keys
            .iter()
            .map(|k| gis_net::wire::values_wire_size(k))
            .sum();
        let bloom_bytes = KeyBloom::predicted_bytes(export_keys.len(), BLOOM_FPP);
        let fp_bytes =
            (BLOOM_FPP * b.inner_rows_est as f64 * b.inner_row_bytes as f64).ceil() as usize;
        if bloom_bytes.saturating_add(fp_bytes) < key_list_bytes {
            let mut bloom = KeyBloom::sized_for(export_keys.len(), BLOOM_FPP);
            for key in &export_keys {
                bloom.insert(KeyBloom::hash_key(key));
            }
            keyship = format!(
                "keyship[mode=bloom n={} filter={}B keys={}B]",
                export_keys.len(),
                bloom.size_bytes(),
                key_list_bytes
            );
            requests.push(SourceRequest::LookupFilter {
                table: table.clone(),
                key_columns: key_columns.clone(),
                bloom,
                projection: projection.clone(),
            });
        }
    }
    if requests.is_empty() {
        let chunk = b.batch_size.max(1);
        let mut rest = export_keys;
        while !rest.is_empty() {
            let tail = rest.split_off(chunk.min(rest.len()));
            requests.push(SourceRequest::Lookup {
                table: table.clone(),
                key_columns: key_columns.clone(),
                keys: rest,
                projection: projection.clone(),
            });
            rest = tail;
        }
    }
    if trace {
        children.push(Span::leaf(keyship));
    }
    for request in requests {
        // A bind join is the longest-running fragment shape (one
        // round trip per key batch) — poll the deadline per batch.
        ctx.check_deadline()?;
        let raw = match remote.fetch(&request, &resp_schema, trace, ctx.deadline()) {
            Ok((raw, recv)) => {
                if let Some(recv) = recv {
                    if recv_spans < BIND_RECV_SPAN_CAP {
                        recv_spans += 1;
                        children.push(recv);
                    } else {
                        recv_dropped += 1;
                    }
                }
                raw
            }
            // Partial results: the inner source (every replica) is
            // unreachable — stop looking up, join against what we
            // have, and report the source as missing. Left joins keep
            // their outer rows this way.
            Err(e) if ctx.options().partial_results && is_availability_error(&e) => {
                ctx.record_degraded(&b.inner.source, &e);
                if trace {
                    children.push(Span::leaf(format!(
                        "degraded[{}]: {}",
                        b.inner.source,
                        e.code()
                    )));
                }
                break;
            }
            Err(e) => return Err(e),
        };
        inner_rows += raw.num_rows() as u64;
        let mapped = b.inner.map_response(&raw)?;
        let projected = mapped.project(&b.inner.output_positions)?;
        inner_parts.push(match &b.inner.residual {
            Some(pred) => projected.filter(&evaluate_predicate(pred, &mapped)?)?,
            None => projected,
        });
    }
    if recv_dropped > 0 {
        children.push(Span::leaf(format!(
            "recv-overflow: capacity={BIND_RECV_SPAN_CAP} dropped={recv_dropped}"
        )));
    }
    let inner_all = if inner_parts.is_empty() {
        Batch::empty(b.inner.schema.clone())
    } else {
        let s = inner_parts[0].schema().clone();
        Batch::concat(s, &inner_parts)?.with_schema(b.inner.schema.clone())?
    };
    let (batch, kstats) = hash_join(
        &outer,
        &inner_all,
        &b.outer_keys,
        &b.inner_key_positions_output()?,
        b.kind,
        b.residual.as_ref(),
        b.output.as_deref(),
        b.schema.clone(),
        &KernelOptions::default(),
        &ctx.kernel_gov(),
    )?;
    if trace {
        children.push(kstats.to_span());
        children.extend(kstats.governor_spans());
    }
    let span = started.map(|t| {
        let mut s = Span::leaf(b.span_label())
            .with_rows_in(outer.num_rows() as u64 + inner_rows)
            .with_rows_out(batch.num_rows() as u64)
            .with_wall_us(t.elapsed().as_micros() as u64);
        s.children = children;
        s
    });
    Ok((batch, span))
}

impl BindJoinExec {
    /// `BindJoin[semijoin→sales INNER JOIN]`.
    fn head(&self) -> String {
        format!(
            "BindJoin[{}→{} {}]",
            self.label, self.inner.source, self.kind
        )
    }

    fn span_label(&self) -> String {
        format!("{}{}", self.head(), kept_columns(&self.output))
    }

    /// The mapping column that feeds inner key component `k`: the
    /// planner stores, per key, its position in the fragment's
    /// fetched-global layout. A plan whose positions are short or out
    /// of range is a planner bug, reported as such rather than
    /// inverting the key through some other column's transform.
    fn inner_key_mapping(&self, k: usize) -> Result<&gis_catalog::ColumnMapping> {
        self.inner_key_positions
            .get(k)
            .and_then(|&pos| self.inner.fetched_global.get(pos))
            .and_then(|&g| self.inner.mapping.columns.get(g))
            .ok_or_else(|| {
                GisError::Internal(format!(
                    "bind join has no inner mapping column for key component {k}"
                ))
            })
    }

    /// Key positions within the inner fragment's *output* layout.
    fn inner_key_positions_output(&self) -> Result<Vec<usize>> {
        self.inner_key_positions
            .iter()
            .map(|&fetched_pos| {
                self.inner
                    .output_positions
                    .iter()
                    .position(|&p| p == fetched_pos)
                    .ok_or_else(|| {
                        GisError::Internal(format!(
                            "bind join key at fetched position {fetched_pos} is not part of the inner output"
                        ))
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerOptions;
    use gis_types::{DataType, Field};

    fn adhoc(exec: ExecOptions) -> QueryCtx<'static> {
        QueryCtx::new(OptimizerOptions::default(), exec)
    }

    fn one_row() -> PhysicalPlan {
        PhysicalPlan::Values {
            schema: Schema::new(vec![Field::new("k", DataType::Int64)]).into_ref(),
            rows: vec![vec![Value::Int64(1)]],
        }
    }

    /// A hash join keyed on ordinal 7 of a one-column input: looking
    /// the key column up indexes out of bounds and panics.
    fn panicking() -> PhysicalPlan {
        PhysicalPlan::HashJoin {
            left: Box::new(one_row()),
            right: Box::new(one_row()),
            left_keys: vec![7],
            right_keys: vec![0],
            kind: JoinKind::Semi,
            residual: None,
            output: None,
            schema: one_row().schema().clone(),
        }
    }

    /// A one-source registry (`sales.orders(k, v)`, 8 rows) and a
    /// semijoin of `one_row()` against it whose plan the tests corrupt.
    fn bind_join_fixture() -> (HashMap<String, SourceGroup>, BindJoinExec) {
        use gis_adapters::{ColumnarAdapter, RemoteSource};
        use gis_net::{Link, NetworkConditions, SimClock};
        let export = Schema::new(vec![
            Field::required("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
        .into_ref();
        let adapter = ColumnarAdapter::new("sales");
        adapter.add_table(gis_storage::ColumnStore::new("orders", export.clone()));
        adapter
            .load(
                "orders",
                (0..8).map(|i| vec![Value::Int64(i % 2), Value::Int64(i)]),
            )
            .unwrap();
        let link = Link::new("sales", NetworkConditions::instant(), SimClock::new());
        let group = SourceGroup::new(RemoteSource::new(Arc::new(adapter), link));
        let inner = FragmentExec {
            source: "sales".into(),
            request: SourceRequest::Lookup {
                table: "orders".into(),
                key_columns: vec![0],
                keys: vec![],
                projection: vec![],
            },
            export_schema: export.clone(),
            mapping: TableMapping::identity("orders", "sales", "orders", &export),
            fetched_global: vec![0, 1],
            residual: None,
            output_positions: vec![0, 1],
            post_fetch: None,
            schema: export.clone(),
            rows_est: 0,
        };
        let join = BindJoinExec {
            outer: Box::new(one_row()),
            outer_keys: vec![0],
            inner,
            inner_key_positions: vec![0],
            kind: JoinKind::Semi,
            residual: None,
            output: None,
            batch_size: usize::MAX,
            schema: one_row().schema().clone(),
            label: "semijoin",
            filter_capable: false,
            inner_rows_est: 8,
            inner_row_bytes: 16,
        };
        (HashMap::from([("sales".to_string(), group)]), join)
    }

    #[test]
    fn bind_join_fixture_is_sound() {
        let (sources, join) = bind_join_fixture();
        let ctx = ExecContext::new(&sources, &adhoc(ExecOptions::default()));
        let (out, _) = PhysicalPlan::BindJoin(join).execute(&ctx).unwrap();
        assert_eq!(out.to_rows(), vec![vec![Value::Int64(1)]]);
    }

    /// Key positions shorter than the key list used to fall back to
    /// position 0 — some other column's transform. Now the plan is
    /// refused before a single key ships.
    #[test]
    fn short_inner_key_positions_are_a_typed_error() {
        let (sources, mut join) = bind_join_fixture();
        join.inner_key_positions.clear();
        let ctx = ExecContext::new(&sources, &adhoc(ExecOptions::default()));
        let err = PhysicalPlan::BindJoin(join).execute(&ctx).unwrap_err();
        assert_eq!(
            err,
            GisError::Internal("bind join has no inner mapping column for key component 0".into())
        );
        assert_eq!(sources["sales"].link().metrics().messages(), 0);
    }

    /// A key column the inner fragment does not output used to panic
    /// (`expect`) after the lookups had run.
    #[test]
    fn inner_key_missing_from_the_output_is_a_typed_error() {
        let (sources, mut join) = bind_join_fixture();
        join.inner.output_positions = vec![1];
        join.inner.schema = Schema::new(vec![Field::new("v", DataType::Int64)]).into_ref();
        let ctx = ExecContext::new(&sources, &adhoc(ExecOptions::default()));
        let err = PhysicalPlan::BindJoin(join).execute(&ctx).unwrap_err();
        assert_eq!(
            err,
            GisError::Internal(
                "bind join key at fetched position 0 is not part of the inner output".into()
            )
        );
    }

    #[test]
    fn panicking_fetch_thread_is_a_typed_error() {
        let sources = HashMap::new();
        let options = ExecOptions {
            parallel_fetch: true,
            ..ExecOptions::default()
        };
        let ctx = ExecContext::new(&sources, &adhoc(options));
        let schema = one_row().schema().clone();
        let join = PhysicalPlan::NestedLoop {
            left: Box::new(panicking()),
            right: Box::new(one_row()),
            kind: JoinKind::Cross,
            condition: None,
            output: None,
            schema: schema.clone(),
        };
        let union = PhysicalPlan::Union {
            inputs: vec![one_row(), panicking(), panicking()],
            schema,
        };
        for plan in [join, union] {
            let err = plan.execute(&ctx).unwrap_err();
            assert_eq!(err, GisError::Internal("fetch thread panicked".into()));
        }
    }
}
