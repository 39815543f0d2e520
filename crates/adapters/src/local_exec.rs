//! Local (inside-the-source) evaluation helpers.
//!
//! Component systems that advertise sort/aggregate capabilities need
//! their own tiny evaluator — a real autonomous DBMS would; these
//! helpers play that role for the adapters. They are intentionally
//! independent of the mediator's executor in `gis-core`: the source
//! side of the federation is a different system.

use crate::request::{AggFunc, AggSpec, SortSpec};
use gis_types::ordering::sort_indices;
use gis_types::{Batch, GisError, Result, Row, SchemaRef, SortKey, Value};
use std::collections::HashMap;

/// Sorts a batch under the given sort specs, keeping the first
/// `limit` rows when given (top-k by selection, not sort-then-cut).
pub fn sort_batch(batch: &Batch, sort: &[SortSpec], limit: Option<u64>) -> Batch {
    let keys: Vec<SortKey> = sort
        .iter()
        .map(|s| SortKey::new(s.column, s.asc, s.nulls_first))
        .collect();
    let fetch = limit.map(|l| usize::try_from(l).unwrap_or(usize::MAX));
    batch.take(&sort_indices(
        batch.columns(),
        batch.num_rows(),
        &keys,
        fetch,
    ))
}

/// Applies a row limit.
pub fn limit_batch(batch: Batch, limit: Option<u64>) -> Batch {
    match limit {
        Some(n) if (batch.num_rows() as u64) > n => batch.slice(0, n as usize),
        _ => batch,
    }
}

/// A running aggregate accumulator.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// COUNT: non-null (or any, for `COUNT(*)`) rows seen.
    Count(i64),
    /// SUM over integers.
    SumInt(Option<i64>),
    /// SUM over floats.
    SumFloat(Option<f64>),
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
    /// AVG: (sum, count).
    Avg(f64, i64),
}

impl Accumulator {
    /// A fresh accumulator for `spec` with input type taken from the
    /// argument column (integer sums stay exact).
    pub fn new(spec: &AggSpec, input_is_integer: bool) -> Accumulator {
        match spec.func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum if input_is_integer => Accumulator::SumInt(None),
            AggFunc::Sum => Accumulator::SumFloat(None),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg(0.0, 0),
        }
    }

    /// Folds one value in. `None` argument means `COUNT(*)` (count
    /// the row unconditionally).
    pub fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Accumulator::Count(n) => match v {
                None => *n += 1,
                Some(x) if !x.is_null() => *n += 1,
                Some(_) => {}
            },
            Accumulator::SumInt(acc) => {
                if let Some(x) = v.filter(|x| !x.is_null()) {
                    let i = x
                        .as_i64()?
                        .ok_or_else(|| GisError::Execution("sum over non-integer".into()))?;
                    *acc = Some(acc.unwrap_or(0).wrapping_add(i));
                }
            }
            Accumulator::SumFloat(acc) => {
                if let Some(x) = v.filter(|x| !x.is_null()) {
                    let f = x
                        .as_f64()?
                        .ok_or_else(|| GisError::Execution("sum over non-numeric".into()))?;
                    *acc = Some(acc.unwrap_or(0.0) + f);
                }
            }
            Accumulator::Min(acc) => {
                if let Some(x) = v.filter(|x| !x.is_null()) {
                    match acc {
                        Some(m) if m.total_cmp(x).is_le() => {}
                        _ => *acc = Some(x.clone()),
                    }
                }
            }
            Accumulator::Max(acc) => {
                if let Some(x) = v.filter(|x| !x.is_null()) {
                    match acc {
                        Some(m) if m.total_cmp(x).is_ge() => {}
                        _ => *acc = Some(x.clone()),
                    }
                }
            }
            Accumulator::Avg(sum, n) => {
                if let Some(x) = v.filter(|x| !x.is_null()) {
                    let f = x
                        .as_f64()?
                        .ok_or_else(|| GisError::Execution("avg over non-numeric".into()))?;
                    *sum += f;
                    *n += 1;
                }
            }
        }
        Ok(())
    }

    /// Final value (SQL semantics: empty SUM/MIN/MAX/AVG are NULL,
    /// empty COUNT is 0).
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int64(*n),
            Accumulator::SumInt(v) => v.map_or(Value::Null, Value::Int64),
            Accumulator::SumFloat(v) => v.map_or(Value::Null, Value::Float64),
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
            Accumulator::Avg(sum, n) => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *n as f64)
                }
            }
        }
    }
}

/// Source-side inner equi-join: builds a hash table on the right,
/// probes with the left, NULL keys never match. Output layout is
/// `left columns ++ right columns` (pre-projection).
pub fn inner_hash_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<Batch> {
    if left_keys.is_empty() || left_keys.len() != right_keys.len() {
        return Err(GisError::Internal(
            "local join requires matching non-empty key lists".into(),
        ));
    }
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for r in 0..right.num_rows() {
        let key = Row::new(right, r).key(right_keys);
        if key.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(r);
    }
    let mut li = Vec::new();
    let mut ri = Vec::new();
    for l in 0..left.num_rows() {
        let key = Row::new(left, l).key(left_keys);
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for &r in matches {
                li.push(l);
                ri.push(r);
            }
        }
    }
    left.take(&li).hstack(&right.take(&ri))
}

/// Evaluates grouped aggregation over batches (the source-side hash
/// aggregate). `output_schema` must come from
/// [`crate::request::SourceRequest::output_schema`].
pub fn hash_aggregate(
    batches: &[Batch],
    group_by: &[usize],
    aggregates: &[AggSpec],
    output_schema: SchemaRef,
) -> Result<Batch> {
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for batch in batches {
        for r in 0..batch.num_rows() {
            let row = Row::new(batch, r);
            let key = row.key(group_by);
            let accs = match groups.get_mut(&key) {
                Some(a) => a,
                None => {
                    let fresh: Vec<Accumulator> = aggregates
                        .iter()
                        .map(|spec| {
                            let is_int = spec
                                .column
                                .map(|c| batch.schema().field(c).data_type.is_integer())
                                .unwrap_or(false);
                            Accumulator::new(spec, is_int)
                        })
                        .collect();
                    order.push(key.clone());
                    groups.entry(key.clone()).or_insert(fresh)
                }
            };
            for (acc, spec) in accs.iter_mut().zip(aggregates) {
                let arg = spec.column.map(|c| row.value(c));
                acc.update(arg.as_ref())?;
            }
        }
    }
    // A global aggregate (no GROUP BY) over zero rows still yields
    // one output row.
    if group_by.is_empty() && order.is_empty() {
        let accs: Vec<Accumulator> = aggregates
            .iter()
            .map(|s| Accumulator::new(s, false))
            .collect();
        order.push(vec![]);
        groups.insert(vec![], accs);
    }
    let rows: Vec<Vec<Value>> = order
        .iter()
        .map(|key| {
            let mut row = key.clone();
            row.extend(groups[key].iter().map(Accumulator::finish));
            row
        })
        .collect();
    Batch::from_rows(output_schema, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SourceRequest;
    use gis_types::{DataType, Field, Schema};

    fn batch() -> Batch {
        Batch::from_rows(
            Schema::new(vec![
                Field::new("g", DataType::Utf8),
                Field::new("v", DataType::Int64),
                Field::new("f", DataType::Float64),
            ])
            .into_ref(),
            &[
                vec![
                    Value::Utf8("a".into()),
                    Value::Int64(1),
                    Value::Float64(1.0),
                ],
                vec![
                    Value::Utf8("b".into()),
                    Value::Int64(2),
                    Value::Float64(2.0),
                ],
                vec![Value::Utf8("a".into()), Value::Int64(3), Value::Null],
                vec![Value::Utf8("a".into()), Value::Null, Value::Float64(5.0)],
            ],
        )
        .unwrap()
    }

    fn agg_schema(group_by: Vec<usize>, aggregates: Vec<AggSpec>) -> SchemaRef {
        let req = SourceRequest::Aggregate {
            table: "t".into(),
            predicates: vec![],
            group_by: group_by.clone(),
            aggregates,
        };
        let export = Schema::new(vec![
            Field::new("g", DataType::Utf8),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        req.output_schema(&export).unwrap()
    }

    #[test]
    fn grouped_aggregates() {
        let aggs = vec![
            AggSpec {
                func: AggFunc::Count,
                column: None,
            },
            AggSpec {
                func: AggFunc::Count,
                column: Some(1),
            },
            AggSpec {
                func: AggFunc::Sum,
                column: Some(1),
            },
            AggSpec {
                func: AggFunc::Avg,
                column: Some(2),
            },
        ];
        let schema = agg_schema(vec![0], aggs.clone());
        let out = hash_aggregate(&[batch()], &[0], &aggs, schema).unwrap();
        assert_eq!(out.num_rows(), 2);
        // group "a": count(*)=3, count(v)=2, sum(v)=4, avg(f)=(1+5)/2
        let a = out.row_values(0);
        assert_eq!(a[0], Value::Utf8("a".into()));
        assert_eq!(a[1], Value::Int64(3));
        assert_eq!(a[2], Value::Int64(2));
        assert_eq!(a[3], Value::Int64(4));
        assert_eq!(a[4], Value::Float64(3.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let aggs = vec![
            AggSpec {
                func: AggFunc::Count,
                column: None,
            },
            AggSpec {
                func: AggFunc::Sum,
                column: Some(1),
            },
            AggSpec {
                func: AggFunc::Min,
                column: Some(1),
            },
        ];
        let schema = agg_schema(vec![], aggs.clone());
        let empty = batch().slice(0, 0);
        let out = hash_aggregate(&[empty], &[], &aggs, schema).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row_values(0)[0], Value::Int64(0));
        assert_eq!(out.row_values(0)[1], Value::Null);
        assert_eq!(out.row_values(0)[2], Value::Null);
    }

    #[test]
    fn min_max_respect_total_order() {
        let aggs = vec![
            AggSpec {
                func: AggFunc::Min,
                column: Some(1),
            },
            AggSpec {
                func: AggFunc::Max,
                column: Some(1),
            },
        ];
        let schema = agg_schema(vec![], aggs.clone());
        let out = hash_aggregate(&[batch()], &[], &aggs, schema).unwrap();
        assert_eq!(out.row_values(0)[0], Value::Int64(1));
        assert_eq!(out.row_values(0)[1], Value::Int64(3));
    }

    #[test]
    fn sort_and_limit() {
        let b = batch();
        let by_v_desc = [SortSpec {
            column: 1,
            asc: false,
            nulls_first: false,
        }];
        let sorted = sort_batch(&b, &by_v_desc, None);
        assert_eq!(sorted.row_values(0)[1], Value::Int64(3));
        assert_eq!(sorted.row_values(3)[1], Value::Null);
        assert_eq!(sort_batch(&b, &by_v_desc, Some(2)), sorted.slice(0, 2));
        let limited = limit_batch(sorted, Some(2));
        assert_eq!(limited.num_rows(), 2);
        let untouched = limit_batch(b.clone(), None);
        assert_eq!(untouched.num_rows(), 4);
    }
}
