//! Limit pushdown.
//!
//! A `LIMIT` at the mediator still ships every row unless the fetch
//! bound travels into the scan fragment. The rule pushes a combined
//! `skip + fetch` bound through order-preserving, row-count-preserving
//! operators (projections) into `TableScan.fetch`; the original
//! `Limit` node stays in place to apply the exact skip/fetch
//! semantics. Filters above a scan block the push only logically —
//! the bound lands in the scan *after* predicate pushdown has moved
//! the filters inside it, and the fragment builder re-checks whether
//! the source may apply the limit exactly (no residual) or the
//! mediator must re-limit.

use crate::plan::logical::LogicalPlan;
use gis_types::Result;

/// Pushes row-count bounds into scans.
pub fn push_limits(plan: LogicalPlan) -> Result<LogicalPlan> {
    walk(plan, None)
}

/// `bound` is the number of input rows the parent provably needs
/// (skip + fetch), or `None` when unbounded.
fn walk(plan: LogicalPlan, bound: Option<usize>) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Limit { input, skip, fetch } => {
            // The input must supply the skipped rows *plus* what this
            // node and its parent both let through: an enclosing bound
            // caps the fetch, never the skip.
            let passed = match (bound, fetch) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            LogicalPlan::Limit {
                input: Box::new(walk(*input, passed.map(|p| p.saturating_add(skip)))?),
                skip,
                fetch,
            }
        }
        // Projections preserve row count and order: the bound passes.
        LogicalPlan::Projection {
            input,
            exprs,
            schema,
        } => LogicalPlan::Projection {
            input: Box::new(walk(*input, bound)?),
            exprs,
            schema,
        },
        LogicalPlan::TableScan(mut t) => {
            if let Some(b) = bound {
                // A scan with filters may still take the bound: the
                // source applies predicates *before* the limit, so
                // `LIMIT n` over a filtered scan is exact whenever the
                // whole filter ships. The fragment builder demotes the
                // limit to a mediator-side `post_fetch` when any
                // filter stays residual... which would be WRONG for a
                // partially-filtered scan (the first n source rows may
                // not contain all matches). So: only push when the
                // scan carries no filters at all; filtered scans keep
                // their full results and the Limit node above trims.
                if t.filters.is_empty() {
                    t.fetch = Some(t.fetch.map_or(b, |f| f.min(b)));
                }
            }
            LogicalPlan::TableScan(t)
        }
        // Everything else (filters, joins, aggregates, sorts, unions,
        // distinct) either changes cardinality or needs all input
        // rows: the bound stops, children are walked unbounded.
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(walk(*input, None)?),
            predicate,
        },
        LogicalPlan::Join(mut j) => {
            j.left = Box::new(walk(*j.left, None)?);
            j.right = Box::new(walk(*j.right, None)?);
            LogicalPlan::Join(j)
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(walk(*input, None)?),
            group_exprs,
            aggregates,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(walk(*input, None)?),
            keys,
        },
        LogicalPlan::Union { inputs, schema } => LogicalPlan::Union {
            // Each UNION ALL branch individually needs at most the
            // bound (the union concatenates).
            inputs: inputs
                .into_iter()
                .map(|i| walk(i, bound))
                .collect::<Result<_>>()?,
            schema,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(walk(*input, None)?),
        },
        leaf @ (LogicalPlan::Values { .. } | LogicalPlan::ViewScan { .. }) => leaf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans in a plan tree with their fetch bounds.
    fn scan_fetches(plan: &LogicalPlan) -> Vec<Option<usize>> {
        plan.scans().iter().map(|s| s.fetch).collect()
    }

    // Plan construction needs a catalog; the integration tests in
    // `core/tests/optimizer_rules.rs` exercise the rule end-to-end.
    // Here we only check the bound arithmetic on synthetic nodes.
    #[test]
    fn bound_combination() {
        let v = LogicalPlan::Values {
            schema: std::sync::Arc::new(gis_types::Schema::new(vec![gis_types::Field::new(
                "x",
                gis_types::DataType::Int64,
            )])),
            rows: vec![],
        };
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Limit {
                input: Box::new(v),
                skip: 0,
                fetch: Some(100),
            }),
            skip: 5,
            fetch: Some(10),
        };
        // No scans: rule is a structural no-op but must not error.
        let out = push_limits(plan).unwrap();
        assert_eq!(scan_fetches(&out), Vec::<Option<usize>>::new());
        assert!(matches!(out, LogicalPlan::Limit { .. }));
    }
}
