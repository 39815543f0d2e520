//! Mediator-side join algorithms.
//!
//! [`hash_join`] covers every join kind over equi-keys (with an
//! optional residual condition); [`nested_loop_join`] covers the
//! rest. Both operate on materialized batches — the federation's
//! costs are on the wire, not here.

use crate::exec::keys::{equi_join_pairs, KernelGov, KernelOptions, KernelStats};
use crate::expr::eval::evaluate_predicate;
use crate::expr::ScalarExpr;
use gis_sql::ast::JoinKind;
use gis_types::{Array, Batch, DataType, GisError, Result, Row, SchemaRef, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Key columns of both sides cast to a common type per position so
/// the vectorized hash/equality kernels see identical layouts. Only
/// numeric mismatches are reconcilable (matching the `Value` total
/// order, which widens cross-width numerics to f64 and never equates
/// any other cross-type pair); `None` means no key pair can ever
/// match.
#[allow(clippy::type_complexity)]
fn common_key_columns<'a>(
    left: &'a Batch,
    right: &'a Batch,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<Option<(Vec<Cow<'a, Array>>, Vec<Cow<'a, Array>>)>> {
    let mut lcols = Vec::with_capacity(left_keys.len());
    let mut rcols = Vec::with_capacity(right_keys.len());
    for (&lk, &rk) in left_keys.iter().zip(right_keys) {
        let lc = left.column(lk);
        let rc = right.column(rk);
        let (lt, rt) = (lc.data_type(), rc.data_type());
        if lt == rt {
            lcols.push(Cow::Borrowed(lc));
            rcols.push(Cow::Borrowed(rc));
        } else if lt.is_numeric() && rt.is_numeric() {
            let common = if lt == DataType::Float64 || rt == DataType::Float64 {
                DataType::Float64
            } else {
                DataType::Int64
            };
            lcols.push(Cow::Owned(lc.cast_to(common)?));
            rcols.push(Cow::Owned(rc.cast_to(common)?));
        } else {
            // Distinct non-numeric types are never equal under the
            // engine's total order: the join produces no matches.
            return Ok(None);
        }
    }
    Ok(Some((lcols, rcols)))
}

/// Hash join on equi-keys under a memory governor, reporting what
/// the key kernel did (mode, partitions, build/probe time, spill) for
/// EXPLAIN ANALYZE.
///
/// `residual` (if any) is evaluated over the combined
/// `left ++ right` layout and participates in *match* semantics
/// (i.e. it is part of the ON condition, which matters for outer
/// kinds).
///
/// `output` names the columns to build, as ordinals into the join's
/// natural output (`left ++ right`; `left` alone for semi and anti
/// joins), in the order `out_schema` lists them; `None` builds every
/// column. Only the listed columns are gathered.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
    kind: JoinKind,
    residual: Option<&ScalarExpr>,
    output: Option<&[usize]>,
    out_schema: SchemaRef,
    opts: &KernelOptions,
    gov: &KernelGov<'_>,
) -> Result<(Batch, KernelStats)> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(GisError::Internal(
            "hash join requires at least one key pair".into(),
        ));
    }
    let (mut pairs, stats) = match common_key_columns(left, right, left_keys, right_keys)? {
        Some((lcols, rcols)) => {
            let lrefs: Vec<&Array> = lcols.iter().map(Cow::as_ref).collect();
            let rrefs: Vec<&Array> = rcols.iter().map(Cow::as_ref).collect();
            equi_join_pairs(&lrefs, &rrefs, opts, gov)?
        }
        None => (
            Vec::new(),
            KernelStats {
                mode: "type-mismatch",
                partitions: 1,
                build_us: 0,
                probe_us: 0,
                mem_bytes: 0,
                spill_bytes: 0,
                spill_parts: 0,
            },
        ),
    };
    filter_pairs(left, right, &mut pairs, residual)?;
    let batch = assemble(left, right, &pairs, kind, output, out_schema)?;
    Ok((batch, stats))
}

/// The retained `Vec<Value>`-per-row hash join, kept as the oracle
/// for the differential suite and the baseline the F8 experiment
/// measures speedups against.
pub fn hash_join_ref(
    left: &Batch,
    right: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
    kind: JoinKind,
    residual: Option<&ScalarExpr>,
    out_schema: SchemaRef,
) -> Result<Batch> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(GisError::Internal(
            "hash join requires at least one key pair".into(),
        ));
    }
    // Build side: right.
    let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
    for r in 0..right.num_rows() {
        let key = Row::new(right, r).key(right_keys);
        if key.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(r as u32);
    }
    // Probe: collect candidate pairs.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for l in 0..left.num_rows() {
        let key = Row::new(left, l).key(left_keys);
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for &r in matches {
                pairs.push((l as u32, r));
            }
        }
    }
    filter_pairs(left, right, &mut pairs, residual)?;
    assemble(left, right, &pairs, kind, None, out_schema)
}

/// Checked, capped preallocation for a cross-product pair vector:
/// `l * r` when it is small, else a fixed cap the vector grows past
/// on demand. Never overflows and never overcommits on huge inputs.
fn cross_capacity(l: usize, r: usize) -> usize {
    const CAP: usize = 1 << 20;
    l.checked_mul(r).map_or(CAP, |n| n.min(CAP))
}

/// Nested-loop join for joins without usable equi-keys (cross joins,
/// pure inequality conditions). `output` is as for [`hash_join`].
pub fn nested_loop_join(
    left: &Batch,
    right: &Batch,
    kind: JoinKind,
    condition: Option<&ScalarExpr>,
    output: Option<&[usize]>,
    out_schema: SchemaRef,
) -> Result<Batch> {
    let (ln, rn) = (left.num_rows(), right.num_rows());
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(cross_capacity(ln, rn));
    for l in 0..ln as u32 {
        for r in 0..rn as u32 {
            pairs.push((l, r));
        }
    }
    filter_pairs(left, right, &mut pairs, condition)?;
    assemble(left, right, &pairs, kind, output, out_schema)
}

/// Gathers `left`'s rows of `pairs` beside `right`'s.
fn gather_pairs(left: &Batch, right: &Batch, pairs: &[(u32, u32)]) -> Vec<Array> {
    let l = pairs.iter().map(|p| p.0 as usize);
    let r = pairs.iter().map(|p| p.1 as usize);
    left.columns()
        .iter()
        .map(|c| c.take_by(l.clone()))
        .chain(right.columns().iter().map(|c| c.take_by(r.clone())))
        .collect()
}

/// Keeps the candidate pairs whose combined `left ++ right` row
/// satisfies `condition`.
fn filter_pairs(
    left: &Batch,
    right: &Batch,
    pairs: &mut Vec<(u32, u32)>,
    condition: Option<&ScalarExpr>,
) -> Result<()> {
    let Some(cond) = condition else {
        return Ok(());
    };
    if pairs.is_empty() {
        return Ok(());
    }
    let schema = Arc::new(left.schema().join(right.schema()));
    let combined = Batch::try_new(schema, gather_pairs(left, right, pairs))?;
    let mut keep = evaluate_predicate(cond, &combined)?.into_iter();
    pairs.retain(|_| keep.next().unwrap_or(false));
    Ok(())
}

/// Turns matched `(left, right)` row pairs into the output batch for
/// each join kind, gathering only the `output` columns of the kind's
/// natural layout.
fn assemble(
    left: &Batch,
    right: &Batch,
    pairs: &[(u32, u32)],
    kind: JoinKind,
    output: Option<&[usize]>,
    out_schema: SchemaRef,
) -> Result<Batch> {
    let left_width = left.num_columns();
    let natural = match kind {
        JoinKind::Semi | JoinKind::Anti => left_width,
        _ => left_width + right.num_columns(),
    };
    let every: Vec<usize>;
    let output = match output {
        Some(o) => o,
        None => {
            every = (0..natural).collect();
            &every
        }
    };
    if let Some(&o) = output.iter().find(|&&o| o >= natural) {
        return Err(GisError::Internal(format!(
            "join output column {o} out of range ({natural} columns)"
        )));
    }
    // One gather per output column: `pick(true, c)` builds left
    // column `c`'s share of the output, `pick(false, c)` a right one's.
    let columns_of = |pick: &dyn Fn(bool, &Array) -> Array| -> Vec<Array> {
        output
            .iter()
            .map(|&o| match o.checked_sub(left_width) {
                None => pick(true, left.column(o)),
                Some(r) => pick(false, right.column(r)),
            })
            .collect()
    };
    let matched = |side: fn(&(u32, u32)) -> u32, rows: usize| {
        let mut hit = vec![false; rows];
        for p in pairs {
            hit[side(p) as usize] = true;
        }
        hit
    };
    let columns = match kind {
        JoinKind::Inner | JoinKind::Cross => {
            // Every left row matched exactly once, in order (a foreign
            // key into a dimension): the left columns *are* the output
            // columns, shared instead of gathered cell by cell.
            let left_as_is = pairs.len() == left.num_rows()
                && pairs.iter().enumerate().all(|(i, p)| p.0 as usize == i);
            columns_of(&|is_left, c| match (is_left, left_as_is) {
                (true, true) => c.clone(),
                (true, false) => c.take_by(pairs.iter().map(|p| p.0 as usize)),
                (false, _) => c.take_by(pairs.iter().map(|p| p.1 as usize)),
            })
        }
        JoinKind::Semi | JoinKind::Anti => {
            let want = kind == JoinKind::Semi;
            let hit = matched(|p| p.0, left.num_rows());
            let keep: Vec<usize> = (0..left.num_rows()).filter(|&l| hit[l] == want).collect();
            columns_of(&|_, c| c.take(&keep))
        }
        JoinKind::Left | JoinKind::Right | JoinKind::Full => {
            // Matched pairs, then unmatched left rows padded with a
            // NULL right side, then unmatched right rows padded with
            // a NULL left side.
            let mut lidx: Vec<Option<usize>> = pairs.iter().map(|p| Some(p.0 as usize)).collect();
            let mut ridx: Vec<Option<usize>> = pairs.iter().map(|p| Some(p.1 as usize)).collect();
            if matches!(kind, JoinKind::Left | JoinKind::Full) {
                let hit = matched(|p| p.0, left.num_rows());
                for l in (0..left.num_rows()).filter(|&l| !hit[l]) {
                    lidx.push(Some(l));
                    ridx.push(None);
                }
            }
            if matches!(kind, JoinKind::Right | JoinKind::Full) {
                let hit = matched(|p| p.1, right.num_rows());
                for r in (0..right.num_rows()).filter(|&r| !hit[r]) {
                    lidx.push(None);
                    ridx.push(Some(r));
                }
            }
            columns_of(&|is_left, c| {
                c.take_opt(if is_left { &lidx } else { &ridx }.iter().copied())
            })
        }
    };
    Batch::try_new(out_schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::logical::JoinNode;
    use gis_types::{DataType, Field, Schema};

    fn left() -> Batch {
        Batch::from_rows(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ])
            .into_ref(),
            &[
                vec![Value::Int64(1), Value::Utf8("a".into())],
                vec![Value::Int64(2), Value::Utf8("b".into())],
                vec![Value::Int64(3), Value::Utf8("c".into())],
                vec![Value::Null, Value::Utf8("n".into())],
            ],
        )
        .unwrap()
    }

    fn right() -> Batch {
        Batch::from_rows(
            Schema::new(vec![
                Field::new("rid", DataType::Int64),
                Field::new("amount", DataType::Float64),
            ])
            .into_ref(),
            &[
                vec![Value::Int64(1), Value::Float64(10.0)],
                vec![Value::Int64(1), Value::Float64(11.0)],
                vec![Value::Int64(3), Value::Float64(30.0)],
                vec![Value::Int64(9), Value::Float64(90.0)],
                vec![Value::Null, Value::Float64(0.0)],
            ],
        )
        .unwrap()
    }

    fn schema_for(kind: JoinKind) -> SchemaRef {
        JoinNode::compute_schema(left().schema(), right().schema(), kind)
    }

    /// Ungoverned hash join on column 0 of both sides.
    fn join(
        l: &Batch,
        r: &Batch,
        kind: JoinKind,
        residual: Option<&ScalarExpr>,
        schema: SchemaRef,
    ) -> Batch {
        let (opts, gov) = (KernelOptions::default(), KernelGov::unbounded());
        hash_join(l, r, &[0], &[0], kind, residual, None, schema, &opts, &gov)
            .unwrap()
            .0
    }

    #[test]
    fn inner_join_matches_and_skips_nulls() {
        let out = join(
            &left(),
            &right(),
            JoinKind::Inner,
            None,
            schema_for(JoinKind::Inner),
        );
        assert_eq!(out.num_rows(), 3); // 1x2 + 3x1; NULLs never match
    }

    #[test]
    fn left_join_pads_unmatched() {
        let out = join(
            &left(),
            &right(),
            JoinKind::Left,
            None,
            schema_for(JoinKind::Left),
        );
        // 3 matches + unmatched rows 2 and NULL
        assert_eq!(out.num_rows(), 5);
        let rows = out.to_rows();
        let padded: Vec<_> = rows.iter().filter(|r| r[2] == Value::Null).collect();
        assert_eq!(padded.len(), 2);
    }

    #[test]
    fn right_and_full_joins() {
        let out = join(
            &left(),
            &right(),
            JoinKind::Right,
            None,
            schema_for(JoinKind::Right),
        );
        // 3 matches + unmatched right rows (9 and NULL)
        assert_eq!(out.num_rows(), 5);
        let full = join(
            &left(),
            &right(),
            JoinKind::Full,
            None,
            schema_for(JoinKind::Full),
        );
        // 3 matches + 2 left-unmatched + 2 right-unmatched
        assert_eq!(full.num_rows(), 7);
    }

    #[test]
    fn semi_and_anti() {
        let semi = join(
            &left(),
            &right(),
            JoinKind::Semi,
            None,
            schema_for(JoinKind::Semi),
        );
        assert_eq!(semi.num_rows(), 2); // ids 1 and 3
        let anti = join(
            &left(),
            &right(),
            JoinKind::Anti,
            None,
            schema_for(JoinKind::Anti),
        );
        assert_eq!(anti.num_rows(), 2); // id 2 and the NULL row
    }

    #[test]
    fn residual_condition_affects_matching() {
        // ON id = rid AND amount > 10.0
        let residual = ScalarExpr::col(3).binary(
            gis_sql::ast::BinaryOp::Gt,
            ScalarExpr::lit(Value::Float64(10.0)),
        );
        let inner = join(
            &left(),
            &right(),
            JoinKind::Inner,
            Some(&residual),
            schema_for(JoinKind::Inner),
        );
        assert_eq!(inner.num_rows(), 2); // (1,11.0) and (3,30.0)
                                         // LEFT: non-matching due to residual still padded
        let left_join = join(
            &left(),
            &right(),
            JoinKind::Left,
            Some(&residual),
            schema_for(JoinKind::Left),
        );
        assert_eq!(left_join.num_rows(), 2 + 2); // 2 matches + ids 2, NULL... and id 1? id1 matched (11.0) so not padded; id3 matched; id2+null padded
    }

    #[test]
    fn nested_loop_cross_and_inequality() {
        let cross = nested_loop_join(
            &left(),
            &right(),
            JoinKind::Cross,
            None,
            None,
            schema_for(JoinKind::Cross),
        )
        .unwrap();
        assert_eq!(cross.num_rows(), 20);
        let cond = ScalarExpr::col(0).binary(gis_sql::ast::BinaryOp::Lt, ScalarExpr::col(2));
        let ineq = nested_loop_join(
            &left(),
            &right(),
            JoinKind::Inner,
            Some(&cond),
            None,
            schema_for(JoinKind::Inner),
        )
        .unwrap();
        // id < rid pairs: 1<3, 1<9, 2<3, 2<9, 3<9 (x multiplicities: rid1 twice but 1<1 false)
        assert_eq!(ineq.num_rows(), 5);
    }

    #[test]
    fn cross_capacity_is_checked_and_capped() {
        assert_eq!(cross_capacity(3, 4), 12);
        assert_eq!(cross_capacity(0, usize::MAX), 0);
        // Overflowing product: fall back to the cap, don't panic.
        assert_eq!(cross_capacity(usize::MAX, usize::MAX), 1 << 20);
        assert_eq!(cross_capacity(usize::MAX, 2), 1 << 20);
        // Large but representable product: capped, not overcommitted.
        assert_eq!(cross_capacity(1 << 30, 1 << 30), 1 << 20);
    }

    #[test]
    fn large_cross_product_regression() {
        // 1500 x 1500 = 2.25M pairs: big enough that the old
        // uncapped `l * r.min(16)` preallocation was the only thing
        // standing between this test and an overcommit, small enough
        // to run in CI. Row count must be exact.
        let n = 1500;
        let mk = |name: &str| {
            let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int64(i as i64)]).collect();
            Batch::from_rows(
                Schema::new(vec![Field::new(name, DataType::Int64)]).into_ref(),
                &rows,
            )
            .unwrap()
        };
        let l = mk("a");
        let r = mk("b");
        let schema = JoinNode::compute_schema(l.schema(), r.schema(), JoinKind::Cross);
        let out = nested_loop_join(&l, &r, JoinKind::Cross, None, None, schema).unwrap();
        assert_eq!(out.num_rows(), n * n);
    }

    #[test]
    fn foreign_key_join_shares_the_left_columns() {
        // Each fact row finds its one dimension row: the fact columns
        // pass through by reference, the dimension's are gathered.
        let mk = |name: &str, vals: &[i64]| {
            let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Int64(v)]).collect();
            Batch::from_rows(
                Schema::new(vec![Field::new(name, DataType::Int64)]).into_ref(),
                &rows,
            )
            .unwrap()
        };
        let facts = mk("fk", &[2, 0, 1, 2, 2]);
        let dims = mk("pk", &[0, 1, 2]);
        let schema = JoinNode::compute_schema(facts.schema(), dims.schema(), JoinKind::Inner);
        let out = join(&facts, &dims, JoinKind::Inner, None, schema.clone());
        let same_buffer = |a: &Array, b: &Array| match (a, b) {
            (Array::Int64(x, _), Array::Int64(y, _)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        assert!(same_buffer(out.column(0), facts.column(0)));
        assert_eq!(out.column(1), facts.column(0));
        // One unmatched fact row and the shortcut is off; rows still right.
        let facts = mk("fk", &[2, 7, 1]);
        let out = join(&facts, &dims, JoinKind::Inner, None, schema.clone());
        assert!(!same_buffer(out.column(0), facts.column(0)));
        let want = hash_join_ref(&facts, &dims, &[0], &[0], JoinKind::Inner, None, schema).unwrap();
        assert_eq!(out, want);
    }

    #[test]
    fn nan_join_keys_match_like_sql_groups() {
        // Pinned semantics: NaN == NaN for key matching (consistent
        // with GROUP BY), NULL never matches.
        let mk = |vals: &[Value]| {
            let rows: Vec<Vec<Value>> = vals.iter().map(|v| vec![v.clone()]).collect();
            Batch::from_rows(
                Schema::new(vec![Field::new("k", DataType::Float64)]).into_ref(),
                &rows,
            )
            .unwrap()
        };
        let l = mk(&[Value::Float64(f64::NAN), Value::Float64(1.0), Value::Null]);
        let r = mk(&[Value::Float64(-f64::NAN), Value::Null, Value::Float64(1.0)]);
        let schema = JoinNode::compute_schema(l.schema(), r.schema(), JoinKind::Inner);
        let out = join(&l, &r, JoinKind::Inner, None, schema);
        // NaN matches (either payload/sign), 1.0 matches, NULLs don't.
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn kernel_matches_reference_with_mixed_key_types() {
        // Int64 probe keys against Float64 build keys: the kernel
        // casts to a common type; the reference widens via the Value
        // total order. Same rows either way.
        let l = left(); // Int64 ids
        let rows: Vec<Vec<Value>> = [1.0, 1.0, 3.0, 9.5]
            .iter()
            .map(|&f| vec![Value::Float64(f)])
            .collect();
        let r = Batch::from_rows(
            Schema::new(vec![Field::new("fk", DataType::Float64)]).into_ref(),
            &rows,
        )
        .unwrap();
        let schema = JoinNode::compute_schema(l.schema(), r.schema(), JoinKind::Inner);
        let fast = join(&l, &r, JoinKind::Inner, None, schema.clone());
        let slow = hash_join_ref(&l, &r, &[0], &[0], JoinKind::Inner, None, schema).unwrap();
        assert_eq!(fast.to_rows(), slow.to_rows());
        assert_eq!(fast.num_rows(), 3); // id 1 twice, id 3 once
    }

    #[test]
    fn empty_inputs() {
        let l = left().slice(0, 0);
        let out = join(
            &l,
            &right(),
            JoinKind::Left,
            None,
            schema_for(JoinKind::Left),
        );
        assert_eq!(out.num_rows(), 0);
        let anti = join(
            &left(),
            &right().slice(0, 0),
            JoinKind::Anti,
            None,
            schema_for(JoinKind::Anti),
        );
        assert_eq!(anti.num_rows(), 4);
    }
}
