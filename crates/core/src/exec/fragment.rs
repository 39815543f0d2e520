//! Source fragments: the unit of work shipped to a component system.
//!
//! `FragmentExec` is the physical form of a `TableScan` after the
//! planner has decided what the source runs natively (predicates,
//! projection, limit — within its capability profile) and what stays
//! at the mediator (`residual`). It also owns the *mapping
//! application*: component systems answer in their export
//! representation; the fragment converts each returned column to its
//! global form (renames, casts, unit conversions) before the rest of
//! the plan sees it.

use crate::exec::physical::ExecContext;
use crate::expr::{eval::evaluate_predicate, ScalarExpr};
use crate::plan::logical::TableScanNode;
use gis_adapters::{SourceGroup, SourceRequest};
use gis_catalog::TableMapping;
use gis_observe::Span;
use gis_sql::ast::BinaryOp;
use gis_storage::{CmpOp, ScanPredicate};
use gis_types::{Batch, Field, GisError, Result, Schema, SchemaRef, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A fragment executed at one source.
#[derive(Debug, Clone)]
pub struct FragmentExec {
    /// Source name (keys into the federation's adapter registry).
    pub source: String,
    /// The request shipped to the source.
    pub request: SourceRequest,
    /// Full export schema of the target table.
    pub export_schema: SchemaRef,
    /// Export→global mapping.
    pub mapping: TableMapping,
    /// Global ordinals present after mapping the response (sorted).
    pub fetched_global: Vec<usize>,
    /// Mediator-side filter over the fetched-global layout.
    pub residual: Option<ScalarExpr>,
    /// Positions within `fetched_global` forming the final output.
    pub output_positions: Vec<usize>,
    /// Limit to apply after residual filtering (when the source
    /// could not apply it exactly).
    pub post_fetch: Option<usize>,
    /// Final output schema (alias-qualified).
    pub schema: SchemaRef,
    /// Optimizer's row estimate for this scan (0 = none), surfaced as
    /// `est=…` in the fragment's `EXPLAIN ANALYZE` span.
    pub rows_est: u64,
}

impl FragmentExec {
    /// Ships the fragment, maps the response to global form, applies
    /// residual filters, and projects the output. When the query
    /// traces, also builds the fragment's span: rows received vs. rows
    /// surviving the residual filter, with the wire exchange (and the
    /// source's own reported span) as a child. The query's deadline
    /// bounds retries and replica failover inside the group.
    pub fn execute(&self, ctx: &ExecContext<'_>) -> Result<(Batch, Option<Span>)> {
        let trace = ctx.options().tracing;
        let started = trace.then(std::time::Instant::now);
        let resp_schema = self.request.output_schema(&self.export_schema)?;
        let (raw, recv) =
            ctx.source(&self.source)?
                .fetch(&self.request, &resp_schema, trace, ctx.deadline())?;
        let rows_in = raw.num_rows() as u64;
        let mapped = self.map_response(&raw)?;
        // Project before filtering: a column only the residual reads
        // is not gathered.
        let projected = match &self.residual {
            Some(pred) => {
                let keep = evaluate_predicate(pred, &mapped)?;
                mapped.project(&self.output_positions)?.filter(&keep)?
            }
            None => mapped.project(&self.output_positions)?,
        };
        let limited = match self.post_fetch {
            Some(n) if projected.num_rows() > n => projected.slice(0, n),
            _ => projected,
        };
        // Install the alias-qualified output schema.
        let batch = limited.with_schema(self.schema.clone())?;
        let span = started.map(|t| {
            let mut s = Span::leaf(format!("Fragment[{}]", self.source))
                .with_rows_in(rows_in)
                .with_rows_out(batch.num_rows() as u64)
                .with_est_rows(self.rows_est)
                .with_wall_us(t.elapsed().as_micros() as u64);
            s.children.extend(recv);
            s
        });
        Ok((batch, span))
    }

    /// Converts a response batch (export layout) into the
    /// fetched-global layout, applying per-column transforms.
    pub fn map_response(&self, raw: &Batch) -> Result<Batch> {
        let mut columns = Vec::with_capacity(self.fetched_global.len());
        let mut fields = Vec::with_capacity(self.fetched_global.len());
        for &g in &self.fetched_global {
            let cm = self
                .mapping
                .columns
                .get(g)
                .ok_or_else(|| GisError::Internal(format!("mapping has no column {g}")))?;
            let pos = raw.schema().index_of(None, &cm.source_column)?;
            let transformed = cm.transform.apply_array(raw.column(pos))?;
            let cast = transformed.cast_to(cm.global.data_type)?;
            columns.push(cast);
            fields.push(cm.global.clone());
        }
        Batch::try_new(Arc::new(Schema::new(fields)), columns)
    }
}

/// Builds a fragment from an optimized `TableScan`, consulting the
/// adapter's capability profile and structural pushability.
pub fn build_fragment(scan: &TableScanNode, remote: &SourceGroup) -> Result<FragmentExec> {
    let caps = scan.resolved.source.capabilities;
    let mapping = &scan.resolved.mapping;
    let export = &scan.resolved.table.export_schema;
    // 1. Translate global filters into native predicates.
    let mut candidates: Vec<(usize, ScanPredicate)> = Vec::new();
    let mut residual_idx: Vec<usize> = Vec::new();
    for (i, f) in scan.filters.iter().enumerate() {
        match (caps.filter, translate_predicate(f, mapping, export)?) {
            (true, Some(p)) => candidates.push((i, p)),
            _ => residual_idx.push(i),
        }
    }
    // Range filters need the capability.
    if !caps.range_filter {
        candidates.retain(|(i, p)| {
            if p.op == CmpOp::Eq {
                true
            } else {
                residual_idx.push(*i);
                false
            }
        });
    }
    // 2. Structural acceptance by the adapter.
    let preds: Vec<ScanPredicate> = candidates.iter().map(|(_, p)| p.clone()).collect();
    let accepted = remote
        .adapter()
        .pushable_predicates(&mapping.source_table, &preds);
    let mut pushed: Vec<ScanPredicate> = Vec::new();
    for ((i, p), ok) in candidates.into_iter().zip(accepted) {
        if ok {
            pushed.push(p);
        } else {
            residual_idx.push(i);
        }
    }
    residual_idx.sort_unstable();
    let residual_filters: Vec<ScalarExpr> = residual_idx
        .iter()
        .map(|&i| scan.filters[i].clone())
        .collect();
    // 3. Columns to fetch: the scan's output plus residual inputs.
    let output_global = scan.output_ordinals();
    let mut fetched_global: Vec<usize> = output_global.clone();
    for f in &residual_filters {
        fetched_global.extend(f.referenced_columns());
    }
    fetched_global.sort_unstable();
    fetched_global.dedup();
    // 4. Export projection (when the source can project).
    let projection: Vec<usize> = if caps.project {
        let mut ords: Vec<usize> = fetched_global
            .iter()
            .map(|&g| export.index_of(None, &mapping.columns[g].source_column))
            .collect::<Result<_>>()?;
        ords.sort_unstable();
        ords.dedup();
        ords
    } else {
        vec![]
    };
    // 5. Limit: exact at the source only when nothing is residual.
    let (request_limit, post_fetch) = match scan.fetch {
        Some(n) if residual_filters.is_empty() && caps.limit => (Some(n as u64), None),
        Some(n) => (None, Some(n)),
        None => (None, None),
    };
    // 6. Remap residuals from full-global ordinals to fetched layout.
    let global_to_fetched: HashMap<usize, usize> = fetched_global
        .iter()
        .enumerate()
        .map(|(pos, &g)| (g, pos))
        .collect();
    let residual = ScalarExpr::conjunction(
        residual_filters
            .into_iter()
            .map(|f| f.remap_columns(&global_to_fetched))
            .collect::<Result<Vec<_>>>()?,
    );
    let output_positions: Vec<usize> = output_global.iter().map(|g| global_to_fetched[g]).collect();
    let request = SourceRequest::Scan {
        table: mapping.source_table.clone(),
        predicates: pushed,
        projection,
        sort: vec![],
        limit: request_limit,
    };
    Ok(FragmentExec {
        source: scan.resolved.source.name.clone(),
        request,
        export_schema: export.clone(),
        mapping: mapping.clone(),
        fetched_global,
        residual,
        output_positions,
        post_fetch,
        schema: scan.schema.clone(),
        rows_est: crate::cost::estimate_scan(scan).rows.round().max(1.0) as u64,
    })
}

/// Builds the *bind-join* variant of a fragment: all filters stay
/// residual (the Lookup protocol carries keys, not predicates) and
/// the key columns are always fetched.
pub fn build_lookup_fragment(scan: &TableScanNode, key_global: &[usize]) -> Result<FragmentExec> {
    let caps = scan.resolved.source.capabilities;
    let mapping = &scan.resolved.mapping;
    let export = &scan.resolved.table.export_schema;
    let output_global = scan.output_ordinals();
    let mut fetched_global: Vec<usize> = output_global.clone();
    for f in &scan.filters {
        fetched_global.extend(f.referenced_columns());
    }
    fetched_global.extend(key_global.iter().copied());
    fetched_global.sort_unstable();
    fetched_global.dedup();
    let projection: Vec<usize> = if caps.project {
        let mut ords: Vec<usize> = fetched_global
            .iter()
            .map(|&g| export.index_of(None, &mapping.columns[g].source_column))
            .collect::<Result<_>>()?;
        ords.sort_unstable();
        ords.dedup();
        ords
    } else {
        vec![]
    };
    let global_to_fetched: HashMap<usize, usize> = fetched_global
        .iter()
        .enumerate()
        .map(|(pos, &g)| (g, pos))
        .collect();
    let residual = ScalarExpr::conjunction(
        scan.filters
            .iter()
            .cloned()
            .map(|f| f.remap_columns(&global_to_fetched))
            .collect::<Result<Vec<_>>>()?,
    );
    let output_positions: Vec<usize> = output_global.iter().map(|g| global_to_fetched[g]).collect();
    // Placeholder request; the bind-join operator swaps in Lookups
    // with actual key sets at run time.
    let request = SourceRequest::Lookup {
        table: mapping.source_table.clone(),
        key_columns: key_export_ordinals(mapping, export, key_global)?,
        keys: vec![],
        projection,
    };
    Ok(FragmentExec {
        source: scan.resolved.source.name.clone(),
        request,
        export_schema: export.clone(),
        mapping: mapping.clone(),
        fetched_global,
        residual,
        output_positions,
        post_fetch: scan.fetch,
        schema: scan.schema.clone(),
        // Lookup row counts depend on the keys bound at run time, so
        // the planner makes no claim here.
        rows_est: 0,
    })
}

/// Export-side ordinals of the given global key columns.
pub fn key_export_ordinals(
    mapping: &TableMapping,
    export: &Schema,
    key_global: &[usize],
) -> Result<Vec<usize>> {
    key_global
        .iter()
        .map(|&g| export.index_of(None, &mapping.columns[g].source_column))
        .collect()
}

/// Translates one global-schema conjunct into a native predicate, if
/// its shape and the column's transform allow.
fn translate_predicate(
    f: &ScalarExpr,
    mapping: &TableMapping,
    export: &Schema,
) -> Result<Option<ScanPredicate>> {
    let (col, op, value) = match f {
        ScalarExpr::Binary { left, op, right } => match (left.as_ref(), right.as_ref()) {
            (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => (*c, *op, v.clone()),
            (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => match op.swap() {
                Some(sw) => (*c, sw, v.clone()),
                None => return Ok(None),
            },
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let cmp = match op {
        BinaryOp::Eq => CmpOp::Eq,
        BinaryOp::NotEq => CmpOp::NotEq,
        BinaryOp::Lt => CmpOp::Lt,
        BinaryOp::LtEq => CmpOp::LtEq,
        BinaryOp::Gt => CmpOp::Gt,
        BinaryOp::GtEq => CmpOp::GtEq,
        _ => return Ok(None),
    };
    let Some(cm) = mapping.columns.get(col) else {
        return Ok(None);
    };
    let export_idx = export.index_of(None, &cm.source_column)?;
    let export_type = export.field(export_idx).data_type;
    // Range predicates only survive order-preserving transforms.
    if cmp != CmpOp::Eq && cmp != CmpOp::NotEq && !cm.transform.is_monotonic() {
        return Ok(None);
    }
    // Comparing against NULL never matches; leave it to the mediator
    // (the residual evaluates to no rows, preserving semantics).
    if value.is_null() {
        return Ok(None);
    }
    let Some(inverted) = cm.transform.invert_literal(&value, export_type) else {
        // Non-invertible for equality means the global literal has no
        // exact source counterpart. For Eq the predicate can still be
        // decided: no source value maps to it, so nothing matches —
        // but a ValueMap could map *unmatched* source values to NULL,
        // never to a non-null global literal, so "no rows" is only
        // right for Eq. Keep it conservative: mediator-side.
        return Ok(None);
    };
    Ok(Some(ScanPredicate::new(export_idx, cmp, inverted)))
}

/// Builds a `Values` batch (constant relations execute locally).
pub fn values_batch(schema: &SchemaRef, rows: &[Vec<Value>]) -> Result<Batch> {
    Batch::from_rows(schema.clone(), rows)
}

/// Requalifies `fields` under an alias (helper shared with planner).
pub fn requalified(schema: &Schema, alias: &str) -> Vec<Field> {
    schema.requalify(alias).fields().to_vec()
}
