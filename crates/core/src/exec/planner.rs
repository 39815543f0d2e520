//! Physical planning: logical plan → operator tree.
//!
//! This is where federation strategy is decided:
//!
//! * every `TableScan` becomes a [`FragmentExec`] scoped to what its
//!   source can run (predicates re-checked against the adapter's
//!   structural pushability),
//! * an `Aggregate` directly over a scan of a capable source becomes
//!   a [`RemoteAggExec`] — the whole aggregation runs remotely,
//! * an equi-join whose inner side is a remote scan picks among
//!   **ship-whole**, **semijoin** and **bind-join** by estimated
//!   virtual network time on the actual link conditions (the F1/F3
//!   crossover experiments sweep exactly this decision),
//! * `ORDER BY`/`LIMIT` directly over a fully-pushed scan ride along
//!   in the fragment when the source is capable.

use crate::cost::{estimate, Estimate};
use crate::exec::fragment::{
    build_fragment, build_lookup_fragment, key_export_ordinals, FragmentExec,
};
use crate::exec::options::{ExecOptions, JoinStrategy};
use crate::exec::physical::{
    BindJoinExec, PhysicalPlan, PhysicalSortKey, RemoteAggExec, RemoteJoinExec,
};
use crate::expr::ScalarExpr;
use crate::plan::logical::{LogicalPlan, TableScanNode};
use gis_adapters::{AggSpec, SortSpec, SourceGroup, SourceRequest};
use gis_catalog::Transform;
use gis_net::NetworkConditions;
use gis_sql::ast::JoinKind;
use gis_types::{GisError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Compiles an optimized logical plan into a physical plan.
pub fn create_physical_plan(
    plan: &LogicalPlan,
    sources: &HashMap<String, SourceGroup>,
    options: &ExecOptions,
) -> Result<PhysicalPlan> {
    let planner = Planner { sources, options };
    planner.create(plan)
}

struct Planner<'a> {
    sources: &'a HashMap<String, SourceGroup>,
    options: &'a ExecOptions,
}

impl Planner<'_> {
    fn remote(&self, source: &str) -> Result<&SourceGroup> {
        self.sources
            .get(&source.to_ascii_lowercase())
            .ok_or_else(|| {
                GisError::Internal(format!("no adapter registered for source '{source}'"))
            })
    }

    fn create(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        self.create_bounded(plan, None)
    }

    /// `bound` is how many leading rows of this node's output the
    /// parent reads (a `Limit`'s skip + fetch, passed through the
    /// row-preserving projections between it and a `Sort`).
    fn create_bounded(&self, plan: &LogicalPlan, bound: Option<usize>) -> Result<PhysicalPlan> {
        match plan {
            LogicalPlan::TableScan(t) => {
                let remote = self.remote(&t.resolved.source.name)?;
                Ok(PhysicalPlan::Fragment(build_fragment(t, remote)?))
            }
            LogicalPlan::Filter { input, predicate } => Ok(PhysicalPlan::Filter {
                input: Box::new(self.create(input)?),
                predicate: predicate.clone(),
            }),
            LogicalPlan::Projection {
                input,
                exprs,
                schema,
            } => {
                // Bare columns over a join: the join builds only the
                // columns read here, and this node re-addresses them.
                if let (LogicalPlan::Join(j), Some((kept, exprs))) = (
                    input.as_ref(),
                    kept_join_columns(exprs, input.schema().len()),
                ) {
                    return Ok(PhysicalPlan::Project {
                        input: Box::new(self.create_join(j, Some(&kept))?),
                        exprs,
                        schema: schema.clone(),
                    });
                }
                Ok(PhysicalPlan::Project {
                    input: Box::new(self.create_bounded(input, bound)?),
                    exprs: exprs.clone(),
                    schema: schema.clone(),
                })
            }
            LogicalPlan::Join(j) => self.create_join(j, None),
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                schema,
            } => {
                if self.options.aggregate_pushdown {
                    if let LogicalPlan::TableScan(t) = input.as_ref() {
                        if let Some(remote_agg) =
                            self.try_remote_aggregate(t, group_exprs, aggregates, schema)?
                        {
                            return Ok(PhysicalPlan::RemoteAggregate(remote_agg));
                        }
                    }
                }
                Ok(PhysicalPlan::HashAggregate {
                    input: Box::new(self.create(input)?),
                    group_exprs: group_exprs.clone(),
                    aggregates: aggregates.clone(),
                    schema: schema.clone(),
                })
            }
            LogicalPlan::Sort { input, keys } => {
                // Sort pushdown: Sort directly over a fully-pushed
                // scan of a sort-capable source rides in the fragment.
                if self.options.sort_pushdown {
                    if let LogicalPlan::TableScan(t) = input.as_ref() {
                        if let Some(frag) = self.try_pushed_sort(t, keys)? {
                            return Ok(PhysicalPlan::Fragment(frag));
                        }
                    }
                }
                Ok(PhysicalPlan::Sort {
                    input: Box::new(self.create(input)?),
                    keys: keys
                        .iter()
                        .map(|k| PhysicalSortKey {
                            expr: k.expr.clone(),
                            asc: k.asc,
                            nulls_first: k.nulls_first,
                        })
                        .collect(),
                    // What no source could do: the mediator keeps
                    // only the rows the Limit above will read.
                    fetch: bound,
                })
            }
            LogicalPlan::Limit { input, skip, fetch } => {
                // Top-k pushdown: Limit(Sort(scan)) on a sort-capable
                // source ships only skip+fetch rows, pre-sorted.
                if self.options.sort_pushdown {
                    if let (
                        Some(f),
                        LogicalPlan::Sort {
                            input: sort_in,
                            keys,
                        },
                    ) = (fetch, input.as_ref())
                    {
                        if let LogicalPlan::TableScan(t) = sort_in.as_ref() {
                            let bound = f.saturating_add(*skip);
                            if let Some(frag) =
                                self.try_pushed_sort_with_limit(t, keys, Some(bound))?
                            {
                                return Ok(PhysicalPlan::Limit {
                                    input: Box::new(PhysicalPlan::Fragment(frag)),
                                    skip: *skip,
                                    fetch: *fetch,
                                });
                            }
                        }
                    }
                }
                // Of its input this Limit reads the skipped rows plus
                // as many as it and its parent both let through.
                let passed = match (bound, *fetch) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let needed = passed.map(|p| p.saturating_add(*skip));
                Ok(PhysicalPlan::Limit {
                    input: Box::new(self.create_bounded(input, needed)?),
                    skip: *skip,
                    fetch: *fetch,
                })
            }
            LogicalPlan::Union { inputs, schema } => Ok(PhysicalPlan::Union {
                inputs: inputs
                    .iter()
                    .map(|i| self.create(i))
                    .collect::<Result<_>>()?,
                schema: schema.clone(),
            }),
            LogicalPlan::Distinct { input } => Ok(PhysicalPlan::Distinct {
                input: Box::new(self.create(input)?),
            }),
            LogicalPlan::Values { schema, rows } => Ok(PhysicalPlan::Values {
                schema: schema.clone(),
                rows: rows.clone(),
            }),
            LogicalPlan::ViewScan {
                name,
                schema,
                batch,
            } => Ok(PhysicalPlan::ViewScan {
                name: name.clone(),
                schema: schema.clone(),
                batch: batch.clone(),
            }),
        }
    }

    /// `output` lists the columns of `j`'s schema a column-only
    /// projection above reads (ascending, distinct); the join operator
    /// then builds exactly those, under the schema narrowed to them.
    fn create_join(
        &self,
        j: &crate::plan::logical::JoinNode,
        output: Option<&[usize]>,
    ) -> Result<PhysicalPlan> {
        let (left_keys, right_keys, residual) = j.equi_keys();
        let schema = match output {
            Some(kept) => Arc::new(j.schema.project(kept)),
            None => j.schema.clone(),
        };
        let output = output.map(<[usize]>::to_vec);
        // Co-located inner equi-join: both sides scan tables on the
        // same source, which can join natively — the whole join ships
        // as one fragment.
        if self.options.colocated_join && j.kind == JoinKind::Inner && !left_keys.is_empty() {
            if let (LogicalPlan::TableScan(l), LogicalPlan::TableScan(r)) =
                (j.left.as_ref(), j.right.as_ref())
            {
                if let Some(mut join) =
                    self.try_colocated_join(j, l, r, &left_keys, &right_keys, residual.as_ref())?
                {
                    if let Some(kept) = &output {
                        join.output_positions =
                            kept.iter().map(|&o| join.output_positions[o]).collect();
                        join.schema = schema;
                    }
                    return Ok(PhysicalPlan::RemoteJoin(join));
                }
            }
        }
        // Candidate for a key-shipping strategy: equi-join whose
        // right side is a remote scan, with a kind where the right
        // side only needs matching rows.
        let bindable_kind = matches!(
            j.kind,
            JoinKind::Inner | JoinKind::Left | JoinKind::Semi | JoinKind::Anti
        );
        if !left_keys.is_empty() && bindable_kind {
            if let LogicalPlan::TableScan(t) = j.right.as_ref() {
                if let Some(mut join) =
                    self.try_key_shipping(j, t, &left_keys, &right_keys, residual.as_ref())?
                {
                    join.output = output;
                    join.schema = schema;
                    return Ok(PhysicalPlan::BindJoin(join));
                }
            }
        }
        let left = Box::new(self.create(&j.left)?);
        let right = Box::new(self.create(&j.right)?);
        if left_keys.is_empty() {
            return Ok(PhysicalPlan::NestedLoop {
                left,
                right,
                kind: j.kind,
                condition: j.on.clone(),
                output,
                schema,
            });
        }
        Ok(PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind: j.kind,
            residual,
            output,
            schema,
        })
    }

    /// Attempts to push the whole inner equi-join to the common
    /// source. `None` when the sources differ, the source cannot
    /// join, key transforms are not passthrough, or a scan carries a
    /// fetch limit (limit-then-join differs from join-then-limit).
    fn try_colocated_join(
        &self,
        j: &crate::plan::logical::JoinNode,
        left: &TableScanNode,
        right: &TableScanNode,
        left_keys: &[usize],
        right_keys: &[usize],
        on_residual: Option<&ScalarExpr>,
    ) -> Result<Option<RemoteJoinExec>> {
        if left.resolved.source.name != right.resolved.source.name
            || !left.resolved.source.capabilities.join
            || left.fetch.is_some()
            || right.fetch.is_some()
        {
            return Ok(None);
        }
        let remote = self.remote(&left.resolved.source.name)?;
        // Cost gate: joining at the source ships the join *output*;
        // declining ships both (filtered, projected) inputs and joins
        // at the mediator. A fan-out join can make the output larger
        // than the inputs — measured in experiment F5 — so push only
        // when the estimate favors it.
        let out_est = estimate(&LogicalPlan::Join(j.clone()));
        let in_est = estimate(&j.left).total_bytes() + estimate(&j.right).total_bytes();
        if out_est.total_bytes() > in_est {
            return Ok(None);
        }
        // Key transforms must be passthrough so export-side equality
        // coincides with global equality.
        let passthrough = |scan: &TableScanNode, out_ord: usize| -> Option<usize> {
            let g = scan.output_ordinals()[out_ord];
            match scan.resolved.mapping.columns[g].transform {
                Transform::Identity | Transform::Cast(_) => Some(g),
                _ => None,
            }
        };
        let mut lk_export = Vec::with_capacity(left_keys.len());
        let mut rk_export = Vec::with_capacity(right_keys.len());
        for (&lo, &ro) in left_keys.iter().zip(right_keys) {
            let (Some(lg), Some(rg)) = (passthrough(left, lo), passthrough(right, ro)) else {
                return Ok(None);
            };
            lk_export.push(
                left.resolved
                    .table
                    .export_schema
                    .index_of(None, &left.resolved.mapping.columns[lg].source_column)?,
            );
            rk_export.push(
                right
                    .resolved
                    .table
                    .export_schema
                    .index_of(None, &right.resolved.mapping.columns[rg].source_column)?,
            );
        }
        // Per-side fragments give us the predicate split and fetch
        // sets; reuse the scan fragment builder.
        let lf = build_fragment(left, remote)?;
        let rf = build_fragment(right, remote)?;
        let (
            SourceRequest::Scan {
                predicates: lpreds, ..
            },
            SourceRequest::Scan {
                predicates: rpreds, ..
            },
        ) = (&lf.request, &rf.request)
        else {
            return Ok(None);
        };
        // Response layout: left fetched globals then right fetched
        // globals, each shipped 1:1 (duplicates allowed) so transforms
        // apply positionally.
        let side_projection = |scan: &TableScanNode, fetched: &[usize]| -> Result<Vec<usize>> {
            fetched
                .iter()
                .map(|&g| {
                    scan.resolved
                        .table
                        .export_schema
                        .index_of(None, &scan.resolved.mapping.columns[g].source_column)
                })
                .collect()
        };
        let left_projection = side_projection(left, &lf.fetched_global)?;
        let right_projection = side_projection(right, &rf.fetched_global)?;
        let request = SourceRequest::Join {
            left_table: left.resolved.mapping.source_table.clone(),
            right_table: right.resolved.mapping.source_table.clone(),
            left_keys: lk_export,
            right_keys: rk_export,
            left_predicates: lpreds.clone(),
            right_predicates: rpreds.clone(),
            left_projection,
            right_projection,
        };
        if request
            .check_capabilities(&left.resolved.source.capabilities)
            .is_err()
        {
            return Ok(None);
        }
        // Positional transform columns.
        let mut columns: Vec<gis_catalog::ColumnMapping> = lf
            .fetched_global
            .iter()
            .map(|&g| left.resolved.mapping.columns[g].clone())
            .collect();
        columns.extend(
            rf.fetched_global
                .iter()
                .map(|&g| right.resolved.mapping.columns[g].clone()),
        );
        // Residuals: per-side scan residuals are already remapped to
        // their fetched layouts; shift the right side. The ON
        // residual is over the logical combined schema (left output
        // ++ right output) and needs remapping to fetched positions.
        let left_width = lf.fetched_global.len();
        let mut residuals: Vec<ScalarExpr> = Vec::new();
        if let Some(rsd) = &lf.residual {
            residuals.push(rsd.clone());
        }
        if let Some(rsd) = &rf.residual {
            let map: HashMap<usize, usize> = (0..rf.fetched_global.len())
                .map(|i| (i, left_width + i))
                .collect();
            residuals.push(rsd.clone().remap_columns(&map)?);
        }
        let left_pos = fetched_positions(&lf, &left.output_ordinals(), "output")?;
        let right_pos = fetched_positions(&rf, &right.output_ordinals(), "output")?;
        if let Some(on) = on_residual {
            let map: HashMap<usize, usize> = left_pos
                .iter()
                .copied()
                .chain(right_pos.iter().map(|pos| left_width + pos))
                .enumerate()
                .collect();
            residuals.push(on.clone().remap_columns(&map)?);
        }
        // Output positions: left scan output then right scan output.
        let mut output_positions = left_pos;
        output_positions.extend(right_pos.iter().map(|pos| left_width + pos));
        Ok(Some(RemoteJoinExec {
            source: left.resolved.source.name.clone(),
            request,
            left_export: left.resolved.table.export_schema.clone(),
            right_export: right.resolved.table.export_schema.clone(),
            columns,
            residual: ScalarExpr::conjunction(residuals),
            output_positions,
            schema: j.schema.clone(),
        }))
    }

    /// Attempts a semijoin / bind-join against the remote inner scan;
    /// `None` means ship-whole (plain hash join) wins or the strategy
    /// is inapplicable.
    fn try_key_shipping(
        &self,
        j: &crate::plan::logical::JoinNode,
        inner: &TableScanNode,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&ScalarExpr>,
    ) -> Result<Option<BindJoinExec>> {
        let remote = self.remote(&inner.resolved.source.name)?;
        let caps = inner.resolved.source.capabilities;
        if !caps.bind_lookup {
            return Ok(None);
        }
        // The right-side key ordinals are over the scan's *output*;
        // convert to global ordinals of the table.
        let out_ords = inner.output_ordinals();
        let key_global: Vec<usize> = right_keys.iter().map(|&k| out_ords[k]).collect();
        // Key transforms must be invertible kinds.
        for &g in &key_global {
            match &inner.resolved.mapping.columns[g].transform {
                Transform::Identity | Transform::Cast(_) => {}
                _ => return Ok(None),
            }
        }
        // KV sources only serve lookups on a key prefix.
        let key_export = key_export_ordinals(
            &inner.resolved.mapping,
            &inner.resolved.table.export_schema,
            &key_global,
        )?;
        if inner.resolved.source.kind == "kv" {
            let is_prefix = key_export.iter().enumerate().all(|(i, &c)| c == i);
            if !is_prefix || key_export.is_empty() {
                return Ok(None);
            }
        }
        // Cost the strategies on the actual link conditions.
        let outer_est = estimate(&j.left);
        let inner_est = estimate(&j.right);
        let conditions = remote.best_conditions();
        let outer = Side {
            est: outer_est,
            us: self.critical_path_us(&j.left)?,
            together: disjoint_fetches(&j.left.source_names(), &j.right.source_names()),
        };
        let chosen = self.choose_strategy(&outer, &inner_est, left_keys.len(), conditions);
        let (batch_size, label) = match chosen {
            JoinStrategy::ShipWhole => return Ok(None),
            JoinStrategy::SemiJoin => (usize::MAX, "semijoin"),
            JoinStrategy::BindJoin => (self.options.bind_batch_size, "bind-join"),
            JoinStrategy::Auto => unreachable!("choose_strategy resolves Auto"),
        };
        let fragment = build_lookup_fragment(inner, &key_global)?;
        // Positions of key globals within the fetched layout.
        let inner_key_positions = fetched_positions(&fragment, &key_global, "join-key")?;
        let outer_plan = self.create(&j.left)?;
        Ok(Some(BindJoinExec {
            outer: Box::new(outer_plan),
            outer_keys: left_keys.to_vec(),
            inner: fragment,
            inner_key_positions,
            kind: j.kind,
            residual: residual.cloned(),
            output: None,
            batch_size,
            schema: j.schema.clone(),
            label,
            filter_capable: caps.filter_lookup,
            inner_rows_est: inner_est.rows.max(0.0) as u64,
            inner_row_bytes: inner_est.row_bytes.max(0.0) as u64,
        }))
    }

    /// Picks a strategy from estimates and link conditions (resolving
    /// `Auto` to a concrete choice) by the critical path each one
    /// leaves the join: shipping the inner relation whole runs beside
    /// the outer side when the executor's concurrency rule lets it
    /// (the longer of the two), after it otherwise (the sum); a
    /// semijoin or bind join waits for the outer keys, then fetches.
    /// Each fetch costs its requests plus the response frames the
    /// wrappers will ship ([`response_frames`]), priced by the link's
    /// own formula ([`NetworkConditions::messages_cost_us`]). Ties go
    /// to ship-whole.
    fn choose_strategy(
        &self,
        outer: &Side,
        inner: &Estimate,
        key_width: usize,
        conditions: NetworkConditions,
    ) -> JoinStrategy {
        match self.options.join_strategy {
            JoinStrategy::Auto => {}
            forced => return forced,
        }
        let key_bytes_per_row = 9.0 * key_width as f64;
        // Ship-whole: fetch the entire inner relation.
        let ship_msgs = 1 + response_frames(conditions, inner);
        let ship_fetch = conditions.messages_cost_us(ship_msgs, inner.total_bytes() as u64);
        let ship_cost = if outer.together {
            outer.us.max(ship_fetch)
        } else {
            outer.us.saturating_add(ship_fetch)
        };
        // Key shipping: distinct outer keys out, matching rows back.
        let keys = outer.est.rows;
        let matched = Estimate {
            rows: outer.est.rows.min(inner.rows),
            ..*inner
        };
        let fetch_bytes = (keys * key_bytes_per_row + matched.total_bytes()) as u64;
        let matched_frames = response_frames(conditions, &matched);
        // Semijoin: one lookup message (plus response frames).
        let semi_cost = outer
            .us
            .saturating_add(conditions.messages_cost_us(1 + matched_frames, fetch_bytes));
        // Bind-join: one message pair per key batch.
        let bind_batches =
            ((keys / self.options.bind_batch_size.max(1) as f64).ceil() as u64).max(1);
        let bind_msgs = bind_batches + matched_frames.max(bind_batches);
        let bind_cost = outer
            .us
            .saturating_add(conditions.messages_cost_us(bind_msgs, fetch_bytes));
        let min = ship_cost.min(semi_cost).min(bind_cost);
        if min == ship_cost {
            JoinStrategy::ShipWhole
        } else if min == semi_cost {
            JoinStrategy::SemiJoin
        } else {
            JoinStrategy::BindJoin
        }
    }

    /// Predicted virtual µs on `plan`'s critical path, by the rule the
    /// executor runs it with: a scan costs one request plus its
    /// response frames over its own source's link; join sides and
    /// union branches cost the longer of the two when they may run
    /// together ([`disjoint_fetches`]), the sum otherwise.
    fn critical_path_us(&self, plan: &LogicalPlan) -> Result<u64> {
        if let LogicalPlan::TableScan(t) = plan {
            let conditions = self.remote(&t.resolved.source.name)?.best_conditions();
            let est = estimate(plan);
            let msgs = 1 + response_frames(conditions, &est);
            return Ok(conditions.messages_cost_us(msgs, est.total_bytes() as u64));
        }
        // Fold the children left-deep, as the executor runs union
        // branches: each beside all the ones before it, or after them.
        let mut us = 0u64;
        let mut before: Vec<String> = Vec::new();
        for child in plan.children() {
            let child_us = self.critical_path_us(child)?;
            let sources = child.source_names();
            us = if disjoint_fetches(&before, &sources) {
                us.max(child_us)
            } else {
                us.saturating_add(child_us)
            };
            before.extend(sources);
            before.sort();
            before.dedup();
        }
        Ok(us)
    }

    fn try_remote_aggregate(
        &self,
        scan: &TableScanNode,
        group_exprs: &[ScalarExpr],
        aggregates: &[crate::plan::logical::AggregateExpr],
        schema: &gis_types::SchemaRef,
    ) -> Result<Option<RemoteAggExec>> {
        let caps = scan.resolved.source.capabilities;
        if !caps.aggregate || scan.fetch.is_some() {
            return Ok(None);
        }
        let mapping = &scan.resolved.mapping;
        let export = &scan.resolved.table.export_schema;
        let out_ords = scan.output_ordinals();
        // Group keys and aggregate args must be bare columns with
        // passthrough transforms (Identity / lossless Cast).
        let passthrough = |g: usize| {
            matches!(
                mapping.columns[g].transform,
                Transform::Identity | Transform::Cast(_)
            )
        };
        let mut group_global = Vec::with_capacity(group_exprs.len());
        for g in group_exprs {
            let ScalarExpr::Column(c) = g else {
                return Ok(None);
            };
            let global = out_ords[*c];
            if !passthrough(global) {
                return Ok(None);
            }
            group_global.push(global);
        }
        let mut specs = Vec::with_capacity(aggregates.len());
        for a in aggregates {
            if a.distinct {
                return Ok(None);
            }
            let column = match &a.arg {
                None => None,
                Some(ScalarExpr::Column(c)) => {
                    let global = out_ords[*c];
                    if !matches!(mapping.columns[global].transform, Transform::Identity) {
                        return Ok(None);
                    }
                    Some(export.index_of(None, &mapping.columns[global].source_column)?)
                }
                Some(_) => return Ok(None),
            };
            specs.push(AggSpec {
                func: a.func,
                column,
            });
        }
        // Every scan filter must ship (no residual allowed — the
        // aggregate would otherwise see unfiltered rows).
        let remote = self.remote(&scan.resolved.source.name)?;
        let probe = build_fragment(scan, remote)?;
        let SourceRequest::Scan { predicates, .. } = &probe.request else {
            return Ok(None);
        };
        if probe.residual.is_some() {
            return Ok(None);
        }
        let group_by: Vec<usize> = group_global
            .iter()
            .map(|&g| export.index_of(None, &mapping.columns[g].source_column))
            .collect::<Result<_>>()?;
        let request = SourceRequest::Aggregate {
            table: mapping.source_table.clone(),
            predicates: predicates.clone(),
            group_by,
            aggregates: specs,
        };
        // Dry-run the capability check so planning errors early.
        if request.check_capabilities(&caps).is_err() {
            return Ok(None);
        }
        Ok(Some(RemoteAggExec {
            source: scan.resolved.source.name.clone(),
            request,
            export_schema: export.clone(),
            mapping: mapping.clone(),
            group_global,
            schema: schema.clone(),
        }))
    }

    /// Sort over a scan: push when the source sorts and nothing stays
    /// residual.
    fn try_pushed_sort(
        &self,
        scan: &TableScanNode,
        keys: &[crate::plan::logical::SortExpr],
    ) -> Result<Option<FragmentExec>> {
        self.try_pushed_sort_with_limit(scan, keys, None)
    }

    /// Like [`Planner::try_pushed_sort`], optionally installing a
    /// top-k row bound in the same request (the source sorts, then
    /// limits).
    fn try_pushed_sort_with_limit(
        &self,
        scan: &TableScanNode,
        keys: &[crate::plan::logical::SortExpr],
        top_k: Option<usize>,
    ) -> Result<Option<FragmentExec>> {
        let caps = scan.resolved.source.capabilities;
        if !caps.sort {
            return Ok(None);
        }
        // Keys must be bare output columns with monotonic transforms.
        let out_ords = scan.output_ordinals();
        let mut specs = Vec::with_capacity(keys.len());
        for k in keys {
            let ScalarExpr::Column(c) = &k.expr else {
                return Ok(None);
            };
            let global = out_ords[*c];
            if !scan.resolved.mapping.columns[global]
                .transform
                .is_monotonic()
            {
                return Ok(None);
            }
            specs.push(SortSpec {
                column: *c,
                asc: k.asc,
                nulls_first: k.nulls_first,
            });
        }
        let remote = self.remote(&scan.resolved.source.name)?;
        let mut fragment = build_fragment(scan, remote)?;
        if fragment.residual.is_some() {
            // Residual filtering would destroy the source order's
            // completeness guarantee with a fetch limit; keep simple:
            // only push sorts over fully-shipped scans.
            return Ok(None);
        }
        // The SortSpec ordinals refer to the request's output schema;
        // fragment output ordering equals scan output ordering only
        // when projection kept all key columns — they are output
        // columns by construction (bare Column over scan output).
        // However the *request* projection is in export order; map
        // output ordinal -> position in the request's response.
        let SourceRequest::Scan {
            table,
            predicates,
            projection,
            limit,
            ..
        } = &fragment.request
        else {
            return Ok(None);
        };
        let mapping = &scan.resolved.mapping;
        let export = &scan.resolved.table.export_schema;
        let mut remapped = Vec::with_capacity(specs.len());
        for s in &specs {
            let global = out_ords[s.column];
            let export_ord = export.index_of(None, &mapping.columns[global].source_column)?;
            let resp_pos = if projection.is_empty() {
                export_ord
            } else {
                match projection.iter().position(|&p| p == export_ord) {
                    Some(p) => p,
                    None => return Ok(None),
                }
            };
            remapped.push(SortSpec {
                column: resp_pos,
                ..*s
            });
        }
        let effective_limit = match (top_k, *limit) {
            (Some(k), Some(l)) => Some((k as u64).min(l)),
            (Some(k), None) => Some(k as u64),
            (None, l) => l,
        };
        if top_k.is_some() && !caps.limit {
            return Ok(None);
        }
        fragment.request = SourceRequest::Scan {
            table: table.clone(),
            predicates: predicates.clone(),
            projection: projection.clone(),
            sort: remapped,
            limit: effective_limit,
        };
        if fragment.request.check_capabilities(&caps).is_err() {
            return Ok(None);
        }
        Ok(Some(fragment))
    }
}

/// The outer side of a key-shipping candidate, as `choose_strategy`
/// prices it.
struct Side {
    /// Its rows and bytes.
    est: Estimate,
    /// Its predicted critical path, virtual µs.
    us: u64,
    /// It may run beside a ship-whole fetch of the inner side.
    together: bool,
}

/// Whether the executor runs two subplans reading these (sorted)
/// sources together: each reads some source and none reads the same
/// one — its concurrency rule, over the logical plan.
fn disjoint_fetches(left: &[String], right: &[String]) -> bool {
    !left.is_empty() && !right.is_empty() && left.iter().all(|s| right.binary_search(s).is_err())
}

/// For a projection of bare columns over a `width`-column join: the
/// distinct columns it reads (ascending) and the same projection
/// re-addressed to a join output holding just those. `None` when an
/// expression computes something, or when nothing would be dropped.
fn kept_join_columns(exprs: &[ScalarExpr], width: usize) -> Option<(Vec<usize>, Vec<ScalarExpr>)> {
    let read: Vec<usize> = exprs
        .iter()
        .map(|e| match e {
            ScalarExpr::Column(c) => Some(*c),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let mut kept = read.clone();
    kept.sort_unstable();
    kept.dedup();
    if kept.is_empty() || kept.len() == width {
        return None;
    }
    let exprs = read
        .iter()
        .map(|c| ScalarExpr::Column(kept.partition_point(|k| k < c)))
        .collect();
    Some((kept, exprs))
}

/// Positions of `globals` within a fragment's fetched layout. The
/// fragment builders fetch every output column and every join key, so
/// a missing one is a planner bug — reported, not panicked on. `role`
/// names what the columns are for in that report.
fn fetched_positions(fragment: &FragmentExec, globals: &[usize], role: &str) -> Result<Vec<usize>> {
    globals
        .iter()
        .map(|g| {
            fragment
                .fetched_global
                .iter()
                .position(|f| f == g)
                .ok_or_else(|| {
                    GisError::Internal(format!(
                        "fragment on '{}' does not fetch {role} column {g}",
                        fragment.source
                    ))
                })
        })
        .collect()
}

/// Response frames a fetch of `relation` ships over a link of
/// `conditions`: the wrappers' frame rule
/// ([`NetworkConditions::frame_rows`]) over the estimated rows and
/// bytes per row — at least one, as an empty response still ships a
/// frame. The wrappers apply the same rule to the row bytes they
/// measure (`raw_frame_size / rows`), the planner to the row bytes it
/// estimates from column statistics, so the two counts can differ by
/// a frame when a response sits near a frame boundary.
pub(crate) fn response_frames(conditions: NetworkConditions, relation: &Estimate) -> u64 {
    let frame_rows = conditions.frame_rows(relation.row_bytes as usize) as f64;
    ((relation.rows / frame_rows).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_catalog::TableMapping;
    use gis_types::{DataType, Field, Schema, Value};

    fn lookup_fragment(fetched_global: Vec<usize>) -> FragmentExec {
        let export = Schema::new(vec![
            Field::required("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
        .into_ref();
        FragmentExec {
            source: "sales".into(),
            request: SourceRequest::Lookup {
                table: "orders".into(),
                key_columns: vec![0],
                keys: vec![],
                projection: vec![],
            },
            export_schema: export.clone(),
            mapping: TableMapping::identity("orders", "sales", "orders", &export),
            output_positions: (0..fetched_global.len()).collect(),
            fetched_global,
            residual: None,
            post_fetch: None,
            schema: export,
            rows_est: 0,
        }
    }

    /// The planner prices the frames the wrappers ship. For a fetch
    /// below and above the 1 024-row floor, on a free, a LAN and a WAN
    /// link, the response frames the planner expects of a ship-whole
    /// fetch are the response messages that fetch sends. The row
    /// counts sit well inside a frame count: the planner's
    /// estimated bytes a row are not the wrapper's measured ones, so a
    /// response near a frame boundary may be priced one frame off.
    #[test]
    fn the_planner_counts_the_frames_the_wrapper_ships() {
        use gis_adapters::{RelationalAdapter, SourceAdapter};
        use gis_storage::RowStore;
        for conditions in [
            NetworkConditions::instant(),
            NetworkConditions::lan(),
            NetworkConditions::wan(),
        ] {
            for rows in [500i64, 3_000, 30_000] {
                let crm = RelationalAdapter::new("crm");
                let schema = Schema::new(vec![
                    Field::required("id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                ])
                .into_ref();
                crm.add_table(RowStore::new("t", schema, Some(0)).unwrap());
                crm.load(
                    "t",
                    (0..rows).map(|i| vec![Value::Int64(i), Value::Utf8(format!("c{i}"))]),
                )
                .unwrap();
                let fed = crate::Federation::new();
                fed.add_source(Arc::new(crm) as Arc<dyn SourceAdapter>, conditions)
                    .unwrap();
                let sql = "SELECT * FROM crm.t";
                let planned =
                    response_frames(conditions, &estimate(&fed.logical_plan(sql).unwrap()));
                let r = fed.query(sql).unwrap();
                assert_eq!(r.metrics.fragments, 1);
                assert_eq!(
                    planned,
                    r.metrics.messages - 1,
                    "{rows} rows over {conditions:?}"
                );
            }
        }
    }

    /// A lookup fragment that does not fetch a join key used to panic
    /// the planner (`expect("keys are fetched")`).
    #[test]
    fn unfetched_join_key_is_a_typed_error() {
        assert_eq!(
            fetched_positions(&lookup_fragment(vec![0, 1]), &[1, 0], "join-key").unwrap(),
            vec![1, 0]
        );
        let err = fetched_positions(&lookup_fragment(vec![1]), &[0], "join-key").unwrap_err();
        assert_eq!(
            err,
            GisError::Internal("fragment on 'sales' does not fetch join-key column 0".into())
        );
    }

    /// A co-located join lays its response out from a pair of scan
    /// fragments; a side whose fetched list lacks one of its output
    /// columns used to panic the planner (`expect("output is fetched")`).
    #[test]
    fn unfetched_output_column_is_a_typed_error() {
        let (left, right) = (lookup_fragment(vec![0, 1]), lookup_fragment(vec![1]));
        assert_eq!(
            fetched_positions(&left, &[0, 1], "output").unwrap(),
            vec![0, 1]
        );
        let err = fetched_positions(&right, &[0, 1], "output").unwrap_err();
        assert_eq!(
            err,
            GisError::Internal("fragment on 'sales' does not fetch output column 0".into())
        );
    }

    fn values(n: i64) -> LogicalPlan {
        LogicalPlan::Values {
            schema: Schema::new(vec![Field::new("x", DataType::Int64)]).into_ref(),
            rows: (0..n).map(|i| vec![Value::Int64((i * 5) % 7)]).collect(),
        }
    }

    fn sorted(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(input),
            keys: vec![crate::plan::logical::SortExpr {
                expr: ScalarExpr::col(0),
                asc: true,
                nulls_first: true,
            }],
        }
    }

    fn limit(input: LogicalPlan, skip: usize, fetch: Option<usize>) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(input),
            skip,
            fetch,
        }
    }

    fn plan(logical: &LogicalPlan) -> PhysicalPlan {
        create_physical_plan(logical, &HashMap::new(), &ExecOptions::default()).unwrap()
    }

    fn run(logical: &LogicalPlan) -> Vec<i64> {
        let sources = HashMap::new();
        let query = crate::exec::QueryCtx::new(Default::default(), ExecOptions::default());
        let ctx = crate::exec::ExecContext::new(&sources, &query);
        plan(logical)
            .execute(&ctx)
            .unwrap()
            .0
            .to_rows()
            .into_iter()
            .map(|r| match r[0] {
                Value::Int64(v) => v,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// The Sort below a Limit keeps skip + fetch rows, whatever the
    /// arithmetic: zero fetch, a skip past the input, saturating sums,
    /// and a Limit over a Limit (the inner skip is *added* to what the
    /// outer one reads, never capped by it).
    #[test]
    fn limit_folds_into_sort_as_skip_plus_fetch() {
        let fetch_of = |l: &LogicalPlan| {
            let mut node = &plan(l);
            loop {
                match node {
                    PhysicalPlan::Limit { input, .. } => node = input,
                    PhysicalPlan::Sort { fetch, .. } => return *fetch,
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        // 7 rows, x = 0 5 3 1 6 4 2
        let base = || sorted(values(7));
        assert_eq!(fetch_of(&limit(base(), 2, Some(3))), Some(5));
        assert_eq!(run(&limit(base(), 2, Some(3))), vec![2, 3, 4]);
        assert_eq!(fetch_of(&limit(base(), 0, Some(0))), Some(0));
        assert_eq!(run(&limit(base(), 0, Some(0))), Vec::<i64>::new());
        assert_eq!(fetch_of(&limit(base(), 3, Some(0))), Some(3));
        assert_eq!(run(&limit(base(), 3, Some(0))), Vec::<i64>::new());
        assert_eq!(fetch_of(&limit(base(), 100, Some(5))), Some(105));
        assert_eq!(run(&limit(base(), 100, Some(5))), Vec::<i64>::new());
        assert_eq!(
            fetch_of(&limit(base(), 6, Some(usize::MAX))),
            Some(usize::MAX)
        );
        assert_eq!(run(&limit(base(), 6, Some(usize::MAX))), vec![6]);
        assert_eq!(fetch_of(&limit(base(), 4, None)), None);
        assert_eq!(run(&limit(base(), 4, None)), vec![4, 5, 6]);
        let nested = limit(limit(base(), 4, Some(10)), 1, Some(1));
        assert_eq!(fetch_of(&nested), Some(6));
        assert_eq!(run(&nested), vec![5]);
        assert!(plan(&limit(base(), 2, Some(3)))
            .display()
            .contains("Sort: #0 ASC fetch=5"));
    }
}
