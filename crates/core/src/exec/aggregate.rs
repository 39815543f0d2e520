//! Mediator-side hash aggregation (with DISTINCT support).
//!
//! The adapters have their own small aggregate evaluator (a component
//! system is a separate engine); this one is the mediator's and adds
//! what the sources never see: `DISTINCT` aggregates and arbitrary
//! expressions as arguments and group keys.

use crate::exec::keys::{group_rows, KernelGov, KernelOptions, KernelStats};
use crate::expr::eval::evaluate;
use crate::expr::ScalarExpr;
use crate::plan::logical::AggregateExpr;
use gis_adapters::AggFunc;
use gis_types::{Array, Batch, GisError, Result, SchemaRef, Value};
use std::collections::{HashMap, HashSet};

#[derive(Debug)]
struct Acc {
    count: i64,
    sum_i: Option<i64>,
    sum_f: Option<f64>,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Option<HashSet<Value>>,
    int_input: bool,
}

impl Acc {
    fn new(distinct: bool, int_input: bool) -> Acc {
        Acc {
            count: 0,
            sum_i: None,
            sum_f: None,
            min: None,
            max: None,
            distinct: distinct.then(HashSet::new),
            int_input,
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        // v = None means COUNT(*): count unconditionally.
        let Some(v) = v else {
            self.count += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        if let Some(set) = &mut self.distinct {
            if !set.insert(v.clone()) {
                return Ok(());
            }
        }
        self.count += 1;
        if self.int_input {
            if let Ok(Some(i)) = v.as_i64() {
                self.sum_i = Some(self.sum_i.unwrap_or(0).wrapping_add(i));
            }
        }
        if let Ok(Some(f)) = v.as_f64() {
            self.sum_f = Some(self.sum_f.unwrap_or(0.0) + f);
        }
        match &self.min {
            Some(m) if m.total_cmp(v).is_le() => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m.total_cmp(v).is_ge() => {}
            _ => self.max = Some(v.clone()),
        }
        Ok(())
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int64(self.count),
            AggFunc::Sum => {
                if self.int_input {
                    self.sum_i.map_or(Value::Null, Value::Int64)
                } else {
                    self.sum_f.map_or(Value::Null, Value::Float64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg => match (self.sum_f, self.count) {
                (Some(s), n) if n > 0 => Value::Float64(s / n as f64),
                _ => Value::Null,
            },
        }
    }
}

/// Evaluates group keys and aggregate arguments once, vectorized,
/// and resolves which aggregates take integer inputs.
#[allow(clippy::type_complexity)]
fn evaluate_inputs(
    input: &Batch,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggregateExpr],
) -> Result<(Vec<Array>, Vec<Option<Array>>, Vec<bool>)> {
    let group_arrays: Vec<Array> = group_exprs
        .iter()
        .map(|g| evaluate(g, input))
        .collect::<Result<_>>()?;
    let arg_arrays: Vec<Option<Array>> = aggregates
        .iter()
        .map(|a| a.arg.as_ref().map(|e| evaluate(e, input)).transpose())
        .collect::<Result<_>>()?;
    let int_inputs: Vec<bool> = aggregates
        .iter()
        .map(|a| {
            a.arg
                .as_ref()
                .and_then(|e| e.data_type(input.schema()).ok())
                .map(|t| t.is_integer())
                .unwrap_or(false)
        })
        .collect();
    Ok((group_arrays, arg_arrays, int_inputs))
}

/// Executes a grouped aggregation over one input batch: group ids
/// come from the vectorized key pipeline (no `Vec<Value>` key per
/// row), then accumulators run column-at-a-time over dense group ids.
pub fn hash_aggregate(
    input: &Batch,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggregateExpr],
    out_schema: SchemaRef,
    opts: &KernelOptions,
    gov: &KernelGov<'_>,
) -> Result<(Batch, KernelStats)> {
    let (group_arrays, arg_arrays, int_inputs) = evaluate_inputs(input, group_exprs, aggregates)?;
    let n = input.num_rows();
    let group_refs: Vec<&Array> = group_arrays.iter().collect();
    let (grouping, stats) = group_rows(&group_refs, n, opts, gov)?;
    let mut num_groups = grouping.num_groups();
    // A global aggregate over zero rows still yields one output row.
    let empty_global = group_exprs.is_empty() && num_groups == 0;
    if empty_global {
        num_groups = 1;
    }
    // Key columns: gather group representatives, cast to the declared
    // output type. Aggregate columns: one columnar accumulation pass
    // per aggregate over the dense group ids.
    let reps: Vec<usize> = grouping
        .representatives
        .iter()
        .map(|&r| r as usize)
        .collect();
    let mut columns: Vec<Array> = Vec::with_capacity(out_schema.len());
    for (k, garr) in group_arrays.iter().enumerate() {
        let target = out_schema.field(k).data_type;
        let col = garr
            .take(&reps)
            .cast_to(target)
            .map_err(|e| GisError::Execution(format!("aggregate output coercion: {e}")))?;
        columns.push(col);
    }
    for (j, a) in aggregates.iter().enumerate() {
        let target = out_schema.field(group_arrays.len() + j).data_type;
        let vals = accumulate_one(
            a,
            int_inputs[j],
            arg_arrays[j].as_ref(),
            &grouping.group_of_row,
            num_groups,
        )?;
        let col = Array::from_values(target, &vals)
            .map_err(|e| GisError::Execution(format!("aggregate output coercion: {e}")))?;
        columns.push(col);
    }
    let batch = Batch::try_new(out_schema, columns)?;
    Ok((batch, stats))
}

/// Accumulates one aggregate over all rows, returning its per-group
/// finished values. Non-DISTINCT aggregates over numeric columns run
/// typed columnar loops — no `Value` per row; everything else falls
/// back to the generic [`Acc`] machinery (identical semantics).
fn accumulate_one(
    a: &AggregateExpr,
    int_input: bool,
    arg: Option<&Array>,
    group_of_row: &[u32],
    num_groups: usize,
) -> Result<Vec<Value>> {
    if !a.distinct {
        if let Some(vals) = accumulate_fast(a.func, int_input, arg, group_of_row, num_groups) {
            return Ok(vals);
        }
    }
    let mut accs: Vec<Acc> = (0..num_groups)
        .map(|_| Acc::new(a.distinct, int_input))
        .collect();
    match arg {
        Some(arr) => {
            for (row, &g) in group_of_row.iter().enumerate() {
                accs[g as usize].update(Some(&arr.value_at(row)))?;
            }
        }
        None => {
            for &g in group_of_row {
                accs[g as usize].update(None)?;
            }
        }
    }
    Ok(accs.iter().map(|acc| acc.finish(a.func)).collect())
}

/// The typed columnar fast paths. Returns `None` when this
/// (function, column type) combination has no specialization.
///
/// Every loop reproduces [`Acc`] exactly: NULL inputs are skipped,
/// integer sums wrap, float sums add in row order, float min/max use
/// `f64::total_cmp` with first-wins ties — so the fast and generic
/// paths are bit-identical (the differential suite checks this
/// against the `Vec<Value>` reference).
fn accumulate_fast(
    func: AggFunc,
    int_input: bool,
    arg: Option<&Array>,
    group_of_row: &[u32],
    num_groups: usize,
) -> Option<Vec<Value>> {
    let ng = num_groups;
    // COUNT(*): every row counts, no argument involved.
    if arg.is_none() {
        if func != AggFunc::Count {
            return None;
        }
        let mut counts = vec![0i64; ng];
        for &g in group_of_row {
            counts[g as usize] += 1;
        }
        return Some(counts.into_iter().map(Value::Int64).collect());
    }
    let arr = arg?;
    // COUNT(col): non-null rows count, any column type.
    if func == AggFunc::Count {
        let mut counts = vec![0i64; ng];
        for (row, &g) in group_of_row.iter().enumerate() {
            if arr.is_valid(row) {
                counts[g as usize] += 1;
            }
        }
        return Some(counts.into_iter().map(Value::Int64).collect());
    }
    // Generic skeleton: fold valid slots into per-group state, then
    // finish groups that saw at least one value.
    macro_rules! fold {
        ($vals:expr, $m:expr, $init:expr, $step:expr, $fin:expr) => {{
            let mut state = vec![$init; ng];
            let mut seen = vec![false; ng];
            for (row, &g) in group_of_row.iter().enumerate() {
                if $m.get(row) {
                    let g = g as usize;
                    $step(&mut state[g], $vals[row], seen[g]);
                    seen[g] = true;
                }
            }
            Some(
                state
                    .into_iter()
                    .zip(seen)
                    .map(|(s, ok)| if ok { $fin(s) } else { Value::Null })
                    .collect(),
            )
        }};
    }
    match (func, arr) {
        (AggFunc::Sum, Array::Int64(v, m)) if int_input => fold!(
            v,
            m,
            0i64,
            |s: &mut i64, x: i64, _| *s = s.wrapping_add(x),
            Value::Int64
        ),
        (AggFunc::Sum, Array::Int32(v, m)) if int_input => fold!(
            v,
            m,
            0i64,
            |s: &mut i64, x: i32, _| *s = s.wrapping_add(x as i64),
            Value::Int64
        ),
        (AggFunc::Sum, Array::Float64(v, m)) if !int_input => fold!(
            v,
            m,
            0.0f64,
            |s: &mut f64, x: f64, _| *s += x,
            Value::Float64
        ),
        (AggFunc::Min, Array::Int64(v, m)) => fold!(
            v,
            m,
            i64::MAX,
            |s: &mut i64, x: i64, _| *s = (*s).min(x),
            Value::Int64
        ),
        (AggFunc::Max, Array::Int64(v, m)) => fold!(
            v,
            m,
            i64::MIN,
            |s: &mut i64, x: i64, _| *s = (*s).max(x),
            Value::Int64
        ),
        (AggFunc::Min, Array::Int32(v, m)) => fold!(
            v,
            m,
            i32::MAX,
            |s: &mut i32, x: i32, _| *s = (*s).min(x),
            Value::Int32
        ),
        (AggFunc::Max, Array::Int32(v, m)) => fold!(
            v,
            m,
            i32::MIN,
            |s: &mut i32, x: i32, _| *s = (*s).max(x),
            Value::Int32
        ),
        (AggFunc::Min, Array::Float64(v, m)) => fold!(
            v,
            m,
            f64::NAN,
            |s: &mut f64, x: f64, first_done: bool| {
                if !first_done || x.total_cmp(s) == std::cmp::Ordering::Less {
                    *s = x;
                }
            },
            Value::Float64
        ),
        (AggFunc::Max, Array::Float64(v, m)) => fold!(
            v,
            m,
            f64::NAN,
            |s: &mut f64, x: f64, first_done: bool| {
                if !first_done || x.total_cmp(s) == std::cmp::Ordering::Greater {
                    *s = x;
                }
            },
            Value::Float64
        ),
        // AVG sums as f64 in row order for ints and floats alike.
        (AggFunc::Avg, Array::Int64(v, m)) => {
            avg_fold(v.iter().map(|&x| x as f64), m, group_of_row, ng)
        }
        (AggFunc::Avg, Array::Int32(v, m)) => {
            avg_fold(v.iter().map(|&x| x as f64), m, group_of_row, ng)
        }
        (AggFunc::Avg, Array::Float64(v, m)) => avg_fold(v.iter().copied(), m, group_of_row, ng),
        _ => None,
    }
}

/// AVG fast path: per-group `(sum, count)` over an f64 view of the
/// column, additions in row order (matching the generic path).
fn avg_fold(
    vals: impl Iterator<Item = f64>,
    validity: &gis_types::Bitmap,
    group_of_row: &[u32],
    num_groups: usize,
) -> Option<Vec<Value>> {
    let mut sum = vec![0.0f64; num_groups];
    let mut count = vec![0i64; num_groups];
    for ((row, &g), x) in group_of_row.iter().enumerate().zip(vals) {
        if validity.get(row) {
            sum[g as usize] += x;
            count[g as usize] += 1;
        }
    }
    Some(
        sum.into_iter()
            .zip(count)
            .map(|(s, n)| {
                if n > 0 {
                    Value::Float64(s / n as f64)
                } else {
                    Value::Null
                }
            })
            .collect(),
    )
}

/// The retained `Vec<Value>`-keyed aggregation, kept as the oracle
/// for the differential suite and the F8 baseline.
pub fn hash_aggregate_ref(
    input: &Batch,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggregateExpr],
    out_schema: SchemaRef,
) -> Result<Batch> {
    let (group_arrays, arg_arrays, int_inputs) = evaluate_inputs(input, group_exprs, aggregates)?;
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for row in 0..input.num_rows() {
        let key: Vec<Value> = group_arrays.iter().map(|a| a.value_at(row)).collect();
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            aggregates
                .iter()
                .zip(&int_inputs)
                .map(|(a, &ii)| Acc::new(a.distinct, ii))
                .collect()
        });
        for ((acc, a), arg) in accs.iter_mut().zip(aggregates).zip(&arg_arrays) {
            let v = arg.as_ref().map(|arr| arr.value_at(row));
            if a.arg.is_some() {
                acc.update(Some(&v.expect("arg evaluated")))?;
            } else {
                acc.update(None)?;
            }
        }
    }
    if group_exprs.is_empty() && order.is_empty() {
        let accs: Vec<Acc> = aggregates
            .iter()
            .zip(&int_inputs)
            .map(|(a, &ii)| Acc::new(a.distinct, ii))
            .collect();
        order.push(vec![]);
        groups.insert(vec![], accs);
    }
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(order.len());
    for key in &order {
        let accs = &groups[key];
        let mut row = key.clone();
        for (acc, a) in accs.iter().zip(aggregates) {
            let v = acc.finish(a.func);
            // Coerce to the declared output type.
            let target = out_schema.field(row.len()).data_type;
            row.push(
                v.cast_to(target)
                    .map_err(|e| GisError::Execution(format!("aggregate output coercion: {e}")))?,
            );
        }
        rows.push(row);
    }
    Batch::from_rows(out_schema, &rows)
}

/// Duplicate elimination over all columns (DISTINCT): the key
/// pipeline's group representatives *are* the distinct rows, so each
/// row group's first occurrence is kept, in input order.
pub fn distinct(
    input: &Batch,
    opts: &KernelOptions,
    gov: &KernelGov<'_>,
) -> Result<(Batch, KernelStats)> {
    let cols: Vec<&Array> = input.columns().iter().collect();
    let (grouping, stats) = group_rows(&cols, input.num_rows(), opts, gov)?;
    let keep: Vec<usize> = grouping
        .representatives
        .iter()
        .map(|&r| r as usize)
        .collect();
    Ok((input.take(&keep), stats))
}

/// The retained `Vec<Value>`-keyed DISTINCT, kept as the oracle for
/// the differential suite and the F8 baseline.
pub fn distinct_ref(input: &Batch) -> Batch {
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut keep: Vec<usize> = Vec::new();
    for r in 0..input.num_rows() {
        let key = input.row_values(r);
        if seen.insert(key) {
            keep.push(r);
        }
    }
    input.take(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_types::{DataType, Field, Schema};

    fn batch() -> Batch {
        Batch::from_rows(
            Schema::new(vec![
                Field::new("g", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ])
            .into_ref(),
            &[
                vec![Value::Utf8("a".into()), Value::Int64(1)],
                vec![Value::Utf8("a".into()), Value::Int64(1)],
                vec![Value::Utf8("a".into()), Value::Int64(2)],
                vec![Value::Utf8("b".into()), Value::Null],
            ],
        )
        .unwrap()
    }

    fn out_schema(aggs: &[AggregateExpr], groups: usize) -> SchemaRef {
        let mut fields = vec![Field::new("g", DataType::Utf8)];
        fields.truncate(groups);
        for a in aggs {
            let t = match a.func {
                AggFunc::Avg => DataType::Float64,
                AggFunc::Min | AggFunc::Max | AggFunc::Sum => DataType::Int64,
                AggFunc::Count => DataType::Int64,
            };
            fields.push(Field::new(a.display_name(), t));
        }
        Schema::new(fields).into_ref()
    }

    /// Ungoverned aggregation.
    fn aggregate(
        input: &Batch,
        groups: &[ScalarExpr],
        aggs: &[AggregateExpr],
        schema: SchemaRef,
    ) -> Batch {
        let (opts, gov) = (KernelOptions::default(), KernelGov::unbounded());
        hash_aggregate(input, groups, aggs, schema, &opts, &gov)
            .unwrap()
            .0
    }

    /// Ungoverned DISTINCT.
    fn dedup(input: &Batch) -> Batch {
        distinct(input, &KernelOptions::default(), &KernelGov::unbounded())
            .unwrap()
            .0
    }

    #[test]
    fn distinct_aggregates() {
        let aggs = vec![
            AggregateExpr {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::col(1)),
                distinct: true,
            },
            AggregateExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::col(1)),
                distinct: true,
            },
            AggregateExpr {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::col(1)),
                distinct: false,
            },
        ];
        let schema = out_schema(&aggs, 1);
        let out = aggregate(&batch(), &[ScalarExpr::col(0)], &aggs, schema);
        let rows = out.to_rows();
        let a = rows
            .iter()
            .find(|r| r[0] == Value::Utf8("a".into()))
            .unwrap();
        assert_eq!(a[1], Value::Int64(2)); // distinct {1,2}
        assert_eq!(a[2], Value::Int64(3)); // 1+2
        assert_eq!(a[3], Value::Int64(3)); // plain count
        let b = rows
            .iter()
            .find(|r| r[0] == Value::Utf8("b".into()))
            .unwrap();
        assert_eq!(b[1], Value::Int64(0));
        assert_eq!(b[2], Value::Null);
    }

    #[test]
    fn global_aggregate_on_empty() {
        let aggs = vec![AggregateExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }];
        let schema = out_schema(&aggs, 0);
        let empty = batch().slice(0, 0);
        let out = aggregate(&empty, &[], &aggs, schema);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row_values(0)[0], Value::Int64(0));
    }

    #[test]
    fn distinct_rows() {
        let b = batch();
        let d = dedup(&b);
        assert_eq!(d.num_rows(), 3); // (a,1) appears twice
    }

    #[test]
    fn nan_group_keys_group_together() {
        // Pinned semantics (per SQL engines): every NaN belongs to
        // one group in GROUP BY and DISTINCT, regardless of payload
        // or sign bit. -0.0 and 0.0 stay distinct groups (the
        // engine's float total order separates them).
        let b = Batch::from_rows(
            Schema::new(vec![
                Field::new("g", DataType::Float64),
                Field::new("v", DataType::Int64),
            ])
            .into_ref(),
            &[
                vec![Value::Float64(f64::NAN), Value::Int64(1)],
                vec![Value::Float64(-f64::NAN), Value::Int64(2)],
                vec![Value::Float64(0.0), Value::Int64(3)],
                vec![Value::Float64(-0.0), Value::Int64(4)],
                vec![Value::Float64(f64::NAN), Value::Int64(5)],
            ],
        )
        .unwrap();
        let aggs = vec![AggregateExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }];
        let fields = vec![
            Field::new("g", DataType::Float64),
            Field::new("count(*)", DataType::Int64),
        ];
        let out = aggregate(
            &b,
            &[ScalarExpr::col(0)],
            &aggs,
            Schema::new(fields).into_ref(),
        );
        // Groups: {NaN x3}, {0.0}, {-0.0}
        assert_eq!(out.num_rows(), 3);
        let nan_count = out
            .to_rows()
            .iter()
            .find_map(|r| match (&r[0], &r[1]) {
                (Value::Float64(f), Value::Int64(c)) if f.is_nan() => Some(*c),
                _ => None,
            })
            .expect("NaN group present");
        assert_eq!(nan_count, 3);
        // DISTINCT agrees: one NaN row survives.
        let d = dedup(&b.project(&[0]).unwrap());
        assert_eq!(d.num_rows(), 3);
    }

    #[test]
    fn kernel_matches_reference_on_mixed_groups() {
        let b = batch();
        let aggs = vec![
            AggregateExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::col(1)),
                distinct: false,
            },
            AggregateExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
        ];
        let schema = out_schema(&aggs, 1);
        let fast = aggregate(&b, &[ScalarExpr::col(0)], &aggs, schema.clone());
        let slow = hash_aggregate_ref(&b, &[ScalarExpr::col(0)], &aggs, schema).unwrap();
        assert_eq!(fast.to_rows(), slow.to_rows());
        assert_eq!(dedup(&b).to_rows(), distinct_ref(&b).to_rows());
    }

    #[test]
    fn null_group_keys_group_together() {
        let b = Batch::from_rows(
            Schema::new(vec![
                Field::new("g", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ])
            .into_ref(),
            &[
                vec![Value::Null, Value::Int64(1)],
                vec![Value::Null, Value::Int64(2)],
            ],
        )
        .unwrap();
        let aggs = vec![AggregateExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }];
        let mut fields = vec![Field::new("g", DataType::Utf8)];
        fields.push(Field::new("count(*)", DataType::Int64));
        let out = aggregate(
            &b,
            &[ScalarExpr::col(0)],
            &aggs,
            Schema::new(fields).into_ref(),
        );
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row_values(0)[1], Value::Int64(2));
    }
}
