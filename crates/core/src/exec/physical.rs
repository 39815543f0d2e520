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
use gis_net::{KeyBloom, SimClock};
use gis_observe::Span;
use gis_sql::ast::JoinKind;
use gis_types::mem::MemBudget;
use gis_types::{Array, Batch, GisError, Result, Schema, SchemaRef, Value};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
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
    /// Link waits occupy host time (the clock is paced), so fetches
    /// that run together go on two threads and their waits overlap.
    /// Otherwise a thread would overlap nothing but CPU work: the pair
    /// runs in order on one thread, its virtual time still the longer
    /// side's.
    threaded: bool,
}

impl<'a> ExecContext<'a> {
    /// A context running `query` over a source registry.
    pub fn new(sources: &'a HashMap<String, SourceGroup>, query: &QueryCtx<'a>) -> Self {
        ExecContext {
            sources,
            query: *query,
            degraded: Mutex::new(Vec::new()),
            threaded: sources
                .values()
                .any(|g| g.link().clock().pace_permille() > 0),
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
                let mut raw = Vec::with_capacity(inputs.len());
                for (b, s) in execute_branches(inputs, ctx)? {
                    rows_in += b.num_rows() as u64;
                    children.extend(s);
                    raw.push(b);
                }
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

/// The concurrency rule: two independent subplans (the sides of a
/// mediator join, or union branches) run together only if each
/// fetches from some source and no source is fetched by both. Fetches
/// on one link thus keep their order — the link charges a message's
/// bytes at its full bandwidth, and its fault script stays
/// deterministic — and the threads one query holds at once number
/// fewer than the sources it reads, whatever the shape or size of its
/// plan. A plan with a single fetch never spawns.
fn run_together(left: &[PhysicalPlan], right: &[PhysicalPlan]) -> bool {
    let (l, r) = (fetched_sources(left), fetched_sources(right));
    !l.is_empty() && !r.is_empty() && l.is_disjoint(&r)
}

/// The sources `plans` fetch from.
fn fetched_sources(plans: &[PhysicalPlan]) -> BTreeSet<&str> {
    fn walk<'p>(plan: &'p PhysicalPlan, out: &mut BTreeSet<&'p str>) {
        match plan {
            PhysicalPlan::Fragment(f) => {
                out.insert(&f.source);
            }
            PhysicalPlan::RemoteAggregate(r) => {
                out.insert(&r.source);
            }
            PhysicalPlan::RemoteJoin(r) => {
                out.insert(&r.source);
            }
            PhysicalPlan::BindJoin(b) => {
                out.insert(&b.inner.source);
            }
            _ => {}
        }
        for child in plan.children() {
            walk(child, out);
        }
    }
    let mut out = BTreeSet::new();
    for plan in plans {
        walk(plan, &mut out);
    }
    out
}

/// Executes the two sides of a join, together when [`run_together`]
/// allows.
fn execute_pair(
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    ctx: &ExecContext<'_>,
) -> Result<(TracedBatch, TracedBatch)> {
    let together = run_together(std::slice::from_ref(left), std::slice::from_ref(right));
    run_pair(together, ctx, || left.execute(ctx), || right.execute(ctx))
}

/// Executes union branches as the binder nests them, left-deep: the
/// last branch runs beside all the ones before it when
/// [`run_together`] allows.
fn execute_branches(plans: &[PhysicalPlan], ctx: &ExecContext<'_>) -> Result<Vec<TracedBatch>> {
    let Some((last, head)) = plans.split_last() else {
        return Ok(Vec::new());
    };
    if head.is_empty() {
        return Ok(vec![last.execute(ctx)?]);
    }
    let together = run_together(head, std::slice::from_ref(last));
    let (mut parts, last) = run_pair(
        together,
        ctx,
        || execute_branches(head, ctx),
        || last.execute(ctx),
    )?;
    parts.push(last);
    Ok(parts)
}

/// Runs `left` then `right`. When `together`, the two overlap: their
/// virtual time ([`SimClock::thread_elapsed_us`]) is the longer
/// side's, not the sum, and — when the context is threaded — `left`
/// runs on a scoped thread beside `right`, both joined before either
/// outcome is read, a panic on either side a typed error.
fn run_pair<A: Send, B>(
    together: bool,
    ctx: &ExecContext<'_>,
    left: impl FnOnce() -> Result<A> + Send,
    right: impl FnOnce() -> Result<B>,
) -> Result<(A, B)> {
    if !together {
        return Ok((left()?, right()?));
    }
    let started = SimClock::thread_elapsed_us();
    let (left, left_us, right, right_us) = if ctx.threaded {
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let started = SimClock::thread_elapsed_us();
                let out = left();
                (out, SimClock::thread_elapsed_us() - started)
            });
            let right = std::panic::catch_unwind(std::panic::AssertUnwindSafe(right))
                .map_err(fetch_thread_panicked)
                .and_then(|r| r);
            let right_us = SimClock::thread_elapsed_us() - started;
            let (left, left_us) = handle.join().map_err(fetch_thread_panicked)?;
            Ok::<_, GisError>((left, left_us, right, right_us))
        })?
    } else {
        let left = left()?;
        let left_us = SimClock::thread_elapsed_us() - started;
        let right = right()?;
        let right_us = SimClock::thread_elapsed_us() - started - left_us;
        (Ok(left), left_us, Ok(right), right_us)
    };
    SimClock::set_thread_elapsed_us(started + left_us.max(right_us));
    Ok((left?, right?))
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

    /// A hash join keyed on ordinal 7 of a two-column scan of
    /// `source`: looking the key column up indexes out of bounds and
    /// panics.
    fn panicking(source: &str) -> PhysicalPlan {
        PhysicalPlan::HashJoin {
            left: Box::new(scan(source)),
            right: Box::new(one_row()),
            left_keys: vec![7],
            right_keys: vec![0],
            kind: JoinKind::Semi,
            residual: None,
            output: None,
            schema: orders_schema(),
        }
    }

    fn orders_schema() -> SchemaRef {
        Schema::new(vec![
            Field::required("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
        .into_ref()
    }

    /// A source `name` exporting `orders(k, v)`, 8 rows, on a free link.
    fn source(name: &str) -> (String, SourceGroup) {
        use gis_adapters::{ColumnarAdapter, RemoteSource};
        use gis_net::{Link, NetworkConditions};
        let adapter = ColumnarAdapter::new(name);
        adapter.add_table(gis_storage::ColumnStore::new("orders", orders_schema()));
        adapter
            .load(
                "orders",
                (0..8).map(|i| vec![Value::Int64(i % 2), Value::Int64(i)]),
            )
            .unwrap();
        let link = Link::new(name, NetworkConditions::instant(), SimClock::new());
        let group = SourceGroup::new(RemoteSource::new(Arc::new(adapter), link));
        (name.to_string(), group)
    }

    /// A fragment fetching `request` from `source`'s `orders`.
    fn fragment(source: &str, request: SourceRequest) -> FragmentExec {
        let export = orders_schema();
        FragmentExec {
            source: source.into(),
            request,
            export_schema: export.clone(),
            mapping: TableMapping::identity("orders", source, "orders", &export),
            fetched_global: vec![0, 1],
            residual: None,
            output_positions: vec![0, 1],
            post_fetch: None,
            schema: export,
            rows_est: 0,
        }
    }

    /// A whole scan of `source`'s `orders`.
    fn scan(source: &str) -> PhysicalPlan {
        PhysicalPlan::Fragment(fragment(
            source,
            SourceRequest::Scan {
                table: "orders".into(),
                predicates: vec![],
                projection: vec![],
                sort: vec![],
                limit: None,
            },
        ))
    }

    /// A one-source registry (`sales.orders(k, v)`, 8 rows) and a
    /// semijoin of `one_row()` against it whose plan the tests corrupt.
    fn bind_join_fixture() -> (HashMap<String, SourceGroup>, BindJoinExec) {
        let inner = fragment(
            "sales",
            SourceRequest::Lookup {
                table: "orders".into(),
                key_columns: vec![0],
                keys: vec![],
                projection: vec![],
            },
        );
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
        (HashMap::from([source("sales")]), join)
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

    /// A panic on either of two sides fetching together — on the
    /// spawned thread or on the one that spawned it — fails the query
    /// with a typed error once both are joined. (Paced clocks: the
    /// sides run on threads only when link waits take host time.)
    #[test]
    fn panicking_fetch_thread_is_a_typed_error() {
        let sources = HashMap::from([source("a"), source("b")]);
        for group in sources.values() {
            group.link().clock().set_pace_permille(1);
        }
        let ctx = ExecContext::new(&sources, &adhoc(ExecOptions::default()));
        let nested = |left, right| PhysicalPlan::NestedLoop {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Cross,
            condition: None,
            output: None,
            schema: orders_schema(),
        };
        let union = |inputs| PhysicalPlan::Union {
            inputs,
            schema: orders_schema(),
        };
        for plan in [
            nested(panicking("a"), scan("b")),
            nested(scan("a"), panicking("b")),
            union(vec![panicking("a"), panicking("b")]),
            union(vec![scan("a"), panicking("b"), panicking("a")]),
        ] {
            assert_eq!(splits(&plan), 1);
            let err = plan.execute(&ctx).unwrap_err();
            assert_eq!(err, GisError::Internal("fetch thread panicked".into()));
        }
    }

    /// How many pairs of subplans in `plan` the executor runs together:
    /// the sides of every join and, for a union, each branch beside
    /// the ones before it — the places `execute` asks [`run_together`].
    fn splits(plan: &PhysicalPlan) -> usize {
        let own = match plan {
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoop { left, right, .. } => usize::from(run_together(
                std::slice::from_ref(left),
                std::slice::from_ref(right),
            )),
            PhysicalPlan::Union { inputs, .. } => (1..inputs.len())
                .filter(|&i| run_together(&inputs[..i], &inputs[i..=i]))
                .count(),
            _ => 0,
        };
        own + plan.children().into_iter().map(splits).sum::<usize>()
    }

    fn hash_join(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
            output: Some(vec![0, 1]),
            schema: orders_schema(),
        }
    }

    /// The concurrency rule, checked on plans (none executes, so a
    /// broken rule cannot start a thread here): a left-deep `UNION
    /// ALL` of 200 branches over two sources runs at most one pair
    /// together, a join over three sources two, a self-join and a
    /// plan with a single fetch none.
    #[test]
    fn concurrent_splits_are_bounded_by_the_sources_read() {
        let mut union = scan("a");
        for i in 1..200 {
            union = PhysicalPlan::Union {
                inputs: vec![union, scan(if i % 2 == 0 { "a" } else { "b" })],
                schema: orders_schema(),
            };
        }
        assert_eq!(splits(&union), 1);
        let flat = PhysicalPlan::Union {
            inputs: (0..200)
                .map(|i| scan(if i % 2 == 0 { "a" } else { "b" }))
                .collect(),
            schema: orders_schema(),
        };
        assert_eq!(splits(&flat), 1);
        let three = hash_join(hash_join(scan("a"), scan("b")), scan("c"));
        assert_eq!(splits(&three), 2);
        assert_eq!(splits(&hash_join(scan("a"), scan("a"))), 0);
        assert_eq!(splits(&hash_join(scan("a"), one_row())), 0);
        assert_eq!(splits(&hash_join(one_row(), one_row())), 0);
        // A bind join's inner source counts: its outer cannot run
        // beside another read of that source.
        let (_, mut semi) = bind_join_fixture();
        semi.outer = Box::new(scan("a"));
        let semi = PhysicalPlan::BindJoin(semi);
        assert_eq!(splits(&hash_join(semi.clone(), scan("sales"))), 0);
        assert_eq!(splits(&hash_join(semi, scan("b"))), 1);
    }

    /// Fetches that run together count once on the query's path: the
    /// pair's virtual time is the longer side's, while the shared
    /// clock sums both — on two threads (paced clock) or in order on
    /// one (unpaced).
    #[test]
    fn overlapping_sides_cost_the_longer_one() {
        for pace_permille in [0, 1] {
            overlapping_sides_cost_the_longer_one_at(pace_permille);
        }
    }

    fn overlapping_sides_cost_the_longer_one_at(pace_permille: u64) {
        use gis_adapters::{ColumnarAdapter, RemoteSource};
        use gis_net::{Link, NetworkConditions};
        let clock = SimClock::new();
        clock.set_pace_permille(pace_permille);
        let group = |name: &str, latency_us: u64| {
            let adapter = ColumnarAdapter::new(name);
            adapter.add_table(gis_storage::ColumnStore::new("orders", orders_schema()));
            let conditions = NetworkConditions {
                latency_us,
                bandwidth_bytes_per_sec: 0,
            };
            let link = Link::new(name, conditions, clock.clone());
            let remote = RemoteSource::new(Arc::new(adapter), link);
            (name.to_string(), SourceGroup::new(remote))
        };
        let sources = HashMap::from([group("a", 1_000), group("b", 3_000)]);
        let ctx = ExecContext::new(&sources, &adhoc(ExecOptions::default()));
        assert_eq!(ctx.threaded, pace_permille > 0);
        let started = SimClock::thread_elapsed_us();
        hash_join(scan("a"), scan("b")).execute(&ctx).unwrap();
        assert_eq!(SimClock::thread_elapsed_us() - started, 6_000);
        assert_eq!(clock.now_us(), 8_000);
    }
}
