//! Vectorized expression evaluation over batches.
//!
//! Comparisons and arithmetic over numeric columns run as typed
//! column kernels; everything else falls back to row-at-a-time value
//! evaluation. Three-valued logic is observed throughout: a NULL
//! predicate result filters a row out (it is not an error).

use crate::expr::like::like_match;
use crate::expr::ScalarExpr;
use gis_sql::ast::{BinaryOp, UnaryOp};
use gis_types::{Array, ArrayBuilder, Batch, Bitmap, DataType, GisError, Result, Value};
use std::sync::Arc;

/// Evaluates `expr` over every row of `batch`, producing a column.
pub fn evaluate(expr: &ScalarExpr, batch: &Batch) -> Result<Array> {
    let out_type = expr.data_type(batch.schema())?;
    match expr {
        ScalarExpr::Column(i) => Ok(batch.column(*i).clone()),
        ScalarExpr::Literal(v) => {
            let dt = if v.is_null() {
                DataType::Int32
            } else {
                out_type
            };
            Array::from_scalar(v, batch.num_rows(), dt)
        }
        ScalarExpr::Binary { left, op, right } => {
            let l = evaluate(left, batch)?;
            let r = evaluate(right, batch)?;
            eval_binary(&l, *op, &r, out_type)
        }
        ScalarExpr::Unary { op, expr } => {
            let input = evaluate(expr, batch)?;
            eval_unary(*op, &input)
        }
        ScalarExpr::Cast { expr, to } => {
            let input = evaluate(expr, batch)?;
            input.cast_to(*to)
        }
        ScalarExpr::Func { func, args } => {
            let arg_arrays: Vec<Array> = args
                .iter()
                .map(|a| evaluate(a, batch))
                .collect::<Result<_>>()?;
            let mut b = ArrayBuilder::with_capacity(out_type, batch.num_rows());
            let mut row: Vec<Value> = Vec::with_capacity(arg_arrays.len());
            for i in 0..batch.num_rows() {
                row.clear();
                row.extend(arg_arrays.iter().map(|a| a.value_at(i)));
                let v = func.eval(&row)?;
                b.push_value(&v.cast_to(out_type)?)?;
            }
            Ok(b.finish())
        }
        ScalarExpr::Case {
            branches,
            else_expr,
        } => {
            let mut b = ArrayBuilder::with_capacity(out_type, batch.num_rows());
            let conds: Vec<Array> = branches
                .iter()
                .map(|(w, _)| evaluate(w, batch))
                .collect::<Result<_>>()?;
            let results: Vec<Array> = branches
                .iter()
                .map(|(_, t)| evaluate(t, batch))
                .collect::<Result<_>>()?;
            let else_arr = else_expr.as_ref().map(|e| evaluate(e, batch)).transpose()?;
            for i in 0..batch.num_rows() {
                let mut out = Value::Null;
                let mut matched = false;
                for (c, r) in conds.iter().zip(&results) {
                    if c.value_at(i).as_bool()?.unwrap_or(false) {
                        out = r.value_at(i);
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    if let Some(e) = &else_arr {
                        out = e.value_at(i);
                    }
                }
                b.push_value(&out.cast_to(out_type)?)?;
            }
            Ok(b.finish())
        }
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = evaluate(expr, batch)?;
            let members: Vec<Array> = list
                .iter()
                .map(|e| evaluate(e, batch))
                .collect::<Result<_>>()?;
            let mut b = ArrayBuilder::with_capacity(DataType::Boolean, batch.num_rows());
            for i in 0..batch.num_rows() {
                let v = needle.value_at(i);
                if v.is_null() {
                    b.push_null();
                    continue;
                }
                let mut found = false;
                let mut saw_null = false;
                for m in &members {
                    let mv = m.value_at(i);
                    match v.sql_eq(&mv) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                // SQL three-valued IN: unknown when not found but a
                // NULL member was present.
                if found {
                    b.push_bool(!negated)?;
                } else if saw_null {
                    b.push_null();
                } else {
                    b.push_bool(*negated)?;
                }
            }
            Ok(b.finish())
        }
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let s = evaluate(expr, batch)?;
            let p = evaluate(pattern, batch)?;
            let mut b = ArrayBuilder::with_capacity(DataType::Boolean, batch.num_rows());
            for i in 0..batch.num_rows() {
                match (s.value_at(i), p.value_at(i)) {
                    (Value::Null, _) | (_, Value::Null) => b.push_null(),
                    (Value::Utf8(text), Value::Utf8(pat)) => {
                        b.push_bool(like_match(&text, &pat) != *negated)?
                    }
                    (a, _) => {
                        return Err(GisError::Execution(format!(
                            "LIKE requires strings, got {}",
                            a.data_type()
                        )))
                    }
                }
            }
            Ok(b.finish())
        }
        ScalarExpr::IsNull { expr, negated } => {
            let input = evaluate(expr, batch)?;
            let mut b = ArrayBuilder::with_capacity(DataType::Boolean, batch.num_rows());
            for i in 0..batch.num_rows() {
                let is_null = !input.is_valid(i);
                b.push_bool(is_null != *negated)?;
            }
            Ok(b.finish())
        }
    }
}

/// Evaluates a predicate into a keep-mask: NULL → false.
pub fn evaluate_predicate(expr: &ScalarExpr, batch: &Batch) -> Result<Vec<bool>> {
    let arr = evaluate(expr, batch)?;
    if arr.data_type() != DataType::Boolean {
        return Err(GisError::Execution(format!(
            "predicate evaluated to {}, expected boolean",
            arr.data_type()
        )));
    }
    let Array::Boolean(values, validity) = &arr else {
        unreachable!("checked to be boolean above");
    };
    if validity.all_set() {
        return Ok(values.to_vec());
    }
    Ok((0..values.len())
        .map(|i| values[i] && validity.get(i))
        .collect())
}

/// Evaluates a constant expression without any input rows.
pub fn evaluate_constant(expr: &ScalarExpr) -> Result<Value> {
    let batch = Batch::placeholder(1);
    let arr = evaluate(expr, &batch)?;
    Ok(arr.value_at(0))
}

fn eval_unary(op: UnaryOp, input: &Array) -> Result<Array> {
    match op {
        UnaryOp::Pos => Ok(input.clone()),
        UnaryOp::Not => {
            let mut b = ArrayBuilder::with_capacity(DataType::Boolean, input.len());
            for i in 0..input.len() {
                match input.value_at(i).as_bool()? {
                    Some(v) => b.push_bool(!v)?,
                    None => b.push_null(),
                }
            }
            Ok(b.finish())
        }
        UnaryOp::Neg => match input {
            Array::Int32(v, m) => Ok(Array::Int32(
                Arc::new(v.iter().map(|x| x.wrapping_neg()).collect()),
                m.clone(),
            )),
            Array::Int64(v, m) => Ok(Array::Int64(
                Arc::new(v.iter().map(|x| x.wrapping_neg()).collect()),
                m.clone(),
            )),
            Array::Float64(v, m) => Ok(Array::Float64(
                Arc::new(v.iter().map(|x| -x).collect()),
                m.clone(),
            )),
            other => Err(GisError::Execution(format!(
                "cannot negate {}",
                other.data_type()
            ))),
        },
    }
}

fn eval_binary(l: &Array, op: BinaryOp, r: &Array, out_type: DataType) -> Result<Array> {
    use BinaryOp::*;
    match op {
        And | Or => eval_logical(l, op, r),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => eval_comparison(l, op, r),
        Plus | Minus | Multiply | Divide | Modulo => eval_arithmetic(l, op, r, out_type),
        Concat => {
            let mut b = ArrayBuilder::with_capacity(DataType::Utf8, l.len());
            for i in 0..l.len() {
                let (a, c) = (l.value_at(i), r.value_at(i));
                if a.is_null() || c.is_null() {
                    b.push_null();
                } else {
                    b.push_value(&Value::Utf8(format!("{a}{c}")))?;
                }
            }
            Ok(b.finish())
        }
    }
}

/// Kleene AND/OR.
fn eval_logical(l: &Array, op: BinaryOp, r: &Array) -> Result<Array> {
    let mut b = ArrayBuilder::with_capacity(DataType::Boolean, l.len());
    for i in 0..l.len() {
        let lv = l.value_at(i).as_bool()?;
        let rv = r.value_at(i).as_bool()?;
        let out = match op {
            BinaryOp::And => match (lv, rv) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            _ => match (lv, rv) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        };
        match out {
            Some(v) => b.push_bool(v)?,
            None => b.push_null(),
        }
    }
    Ok(b.finish())
}

/// Same-typed buffers compared slot by slot under `cmp` — the order
/// [`Value::total_cmp`] gives that type — with no `Value` per row. A
/// NULL on either side yields NULL (stored as `false`).
fn compare_typed<T>(
    (lv, lm): (&[T], &Bitmap),
    (rv, rm): (&[T], &Bitmap),
    op: BinaryOp,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
) -> Array {
    let outcome = |i: usize| cmp_outcome(cmp(&lv[i], &rv[i]), op);
    if lm.all_set() && rm.all_set() {
        let values: Vec<bool> = (0..lv.len()).map(outcome).collect();
        return Array::Boolean(Arc::new(values), Arc::new(lm.clone()));
    }
    let valid = lm.and(rm);
    let values: Vec<bool> = (0..lv.len()).map(|i| valid.get(i) && outcome(i)).collect();
    Array::Boolean(Arc::new(values), Arc::new(valid))
}

fn eval_comparison(l: &Array, op: BinaryOp, r: &Array) -> Result<Array> {
    // Typed paths for same-typed operands — keys, dates and amounts
    // against a broadcast literal are the residual filters joins run
    // over every fetched row.
    match (l, r) {
        (Array::Int64(lv, lm), Array::Int64(rv, rm))
        | (Array::Timestamp(lv, lm), Array::Timestamp(rv, rm)) => {
            return Ok(compare_typed((lv, lm), (rv, rm), op, i64::cmp))
        }
        (Array::Int32(lv, lm), Array::Int32(rv, rm))
        | (Array::Date(lv, lm), Array::Date(rv, rm)) => {
            return Ok(compare_typed((lv, lm), (rv, rm), op, i32::cmp))
        }
        (Array::Float64(lv, lm), Array::Float64(rv, rm)) => {
            return Ok(compare_typed((lv, lm), (rv, rm), op, f64::total_cmp))
        }
        (Array::Utf8(lv, lm), Array::Utf8(rv, rm)) => {
            return Ok(compare_typed((lv, lm), (rv, rm), op, String::cmp))
        }
        _ => {}
    }
    let mut b = ArrayBuilder::with_capacity(DataType::Boolean, l.len());
    for i in 0..l.len() {
        let (a, c) = (l.value_at(i), r.value_at(i));
        if a.is_null() || c.is_null() {
            b.push_null();
        } else {
            b.push_bool(cmp_outcome(a.total_cmp(&c), op))?;
        }
    }
    Ok(b.finish())
}

fn cmp_outcome(ord: std::cmp::Ordering, op: BinaryOp) -> bool {
    match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => ord.is_ne(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!("not a comparison"),
    }
}

fn eval_arithmetic(l: &Array, op: BinaryOp, r: &Array, out_type: DataType) -> Result<Array> {
    // Date ± integer.
    if out_type == DataType::Date {
        let mut b = ArrayBuilder::with_capacity(DataType::Date, l.len());
        for i in 0..l.len() {
            match (l.value_at(i), r.value_at(i)) {
                (Value::Null, _) | (_, Value::Null) => b.push_null(),
                (Value::Date(d), delta) => {
                    let k = delta.as_i64()?.unwrap_or(0);
                    let shifted = if op == BinaryOp::Plus {
                        d as i64 + k
                    } else {
                        d as i64 - k
                    };
                    b.push_value(&Value::Date(shifted as i32))?;
                }
                (a, _) => {
                    return Err(GisError::Execution(format!(
                        "date arithmetic on {}",
                        a.data_type()
                    )))
                }
            }
        }
        return Ok(b.finish());
    }
    // Integer-preserving fast path.
    if out_type == DataType::Int64 {
        let mut b = ArrayBuilder::with_capacity(DataType::Int64, l.len());
        for i in 0..l.len() {
            let lv = l.as_i64_lossy(i);
            let rv = r.as_i64_lossy(i);
            match (lv, rv) {
                (Some(a), Some(c)) => {
                    let out = match op {
                        BinaryOp::Plus => a.checked_add(c),
                        BinaryOp::Minus => a.checked_sub(c),
                        BinaryOp::Multiply => a.checked_mul(c),
                        BinaryOp::Modulo => {
                            if c == 0 {
                                return Err(GisError::Execution("integer modulo by zero".into()));
                            }
                            a.checked_rem(c)
                        }
                        _ => unreachable!(),
                    }
                    .ok_or_else(|| {
                        GisError::Execution(format!("integer overflow evaluating {a} {op} {c}"))
                    })?;
                    b.push_value(&Value::Int64(out))?;
                }
                _ => b.push_null(),
            }
        }
        return Ok(b.finish());
    }
    // Float path (covers Divide and mixed numeric).
    let mut b = ArrayBuilder::with_capacity(out_type, l.len());
    for i in 0..l.len() {
        let (a, c) = (l.value_at(i), r.value_at(i));
        if a.is_null() || c.is_null() {
            b.push_null();
            continue;
        }
        // Vetted: both sides were null-checked two lines up, so
        // `as_f64` can only return `Some` here (or error on type).
        #[allow(clippy::unwrap_used)]
        let (x, y) = (a.as_f64()?.unwrap(), c.as_f64()?.unwrap());
        let out = match op {
            BinaryOp::Plus => x + y,
            BinaryOp::Minus => x - y,
            BinaryOp::Multiply => x * y,
            BinaryOp::Divide => {
                if y == 0.0 {
                    // SQL engines typically error; we yield NULL to
                    // keep scans robust and document it.
                    b.push_null();
                    continue;
                }
                x / y
            }
            BinaryOp::Modulo => {
                if y == 0.0 {
                    b.push_null();
                    continue;
                }
                x % y
            }
            _ => unreachable!(),
        };
        b.push_value(&Value::Float64(out).cast_to(out_type)?)?;
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use gis_types::{Field, Schema};

    fn batch() -> Batch {
        Batch::from_rows(
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Float64),
                Field::new("s", DataType::Utf8),
                Field::new("d", DataType::Date),
            ])
            .into_ref(),
            &[
                vec![
                    Value::Int64(1),
                    Value::Float64(0.5),
                    Value::Utf8("apple".into()),
                    Value::Date(10),
                ],
                vec![
                    Value::Int64(2),
                    Value::Null,
                    Value::Utf8("banana".into()),
                    Value::Date(20),
                ],
                vec![Value::Null, Value::Float64(2.5), Value::Null, Value::Null],
            ],
        )
        .unwrap()
    }

    fn vals(a: Array) -> Vec<Value> {
        a.iter_values().collect()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        assert_eq!(
            vals(evaluate(&ScalarExpr::col(0), &b).unwrap()),
            vec![Value::Int64(1), Value::Int64(2), Value::Null]
        );
        let lit = evaluate(&ScalarExpr::lit(Value::Int64(7)), &b).unwrap();
        assert_eq!(lit.len(), 3);
        assert!(vals(lit).iter().all(|v| *v == Value::Int64(7)));
    }

    #[test]
    fn arithmetic_with_nulls() {
        let b = batch();
        let e = ScalarExpr::col(0).binary(BinaryOp::Plus, ScalarExpr::lit(Value::Int64(10)));
        assert_eq!(
            vals(evaluate(&e, &b).unwrap()),
            vec![Value::Int64(11), Value::Int64(12), Value::Null]
        );
        let f = ScalarExpr::col(0).binary(BinaryOp::Multiply, ScalarExpr::col(1));
        assert_eq!(
            vals(evaluate(&f, &b).unwrap()),
            vec![Value::Float64(0.5), Value::Null, Value::Null]
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let b = batch();
        let e = ScalarExpr::col(0).binary(BinaryOp::Divide, ScalarExpr::lit(Value::Int64(0)));
        assert_eq!(
            vals(evaluate(&e, &b).unwrap()),
            vec![Value::Null, Value::Null, Value::Null]
        );
    }

    #[test]
    fn integer_overflow_errors() {
        let b = batch();
        let e = ScalarExpr::lit(Value::Int64(i64::MAX)).binary(BinaryOp::Plus, ScalarExpr::col(0));
        assert!(evaluate(&e, &b).is_err());
        let m = ScalarExpr::col(0).binary(BinaryOp::Modulo, ScalarExpr::lit(Value::Int64(0)));
        assert!(evaluate(&m, &b).is_err());
    }

    #[test]
    fn comparisons_three_valued() {
        let b = batch();
        let e = ScalarExpr::col(0).binary(BinaryOp::GtEq, ScalarExpr::lit(Value::Int64(2)));
        assert_eq!(
            vals(evaluate(&e, &b).unwrap()),
            vec![Value::Boolean(false), Value::Boolean(true), Value::Null]
        );
        assert_eq!(
            evaluate_predicate(&e, &b).unwrap(),
            vec![false, true, false]
        );
    }

    #[test]
    fn kleene_logic() {
        let b = batch();
        // (a >= 2) AND (b < 1): row2 has b NULL but a>=2 true -> NULL
        let left = ScalarExpr::col(0).binary(BinaryOp::GtEq, ScalarExpr::lit(Value::Int64(2)));
        let right = ScalarExpr::col(1).binary(BinaryOp::Lt, ScalarExpr::lit(Value::Float64(1.0)));
        let e = left.clone().and(right.clone());
        // row3: a is NULL (so a>=2 is NULL) but b<1 is false -> false
        assert_eq!(
            vals(evaluate(&e, &b).unwrap()),
            vec![Value::Boolean(false), Value::Null, Value::Boolean(false)]
        );
        // OR: false|true = true; true|NULL = true; NULL|false = NULL
        let o = left.binary(BinaryOp::Or, right);
        assert_eq!(
            vals(evaluate(&o, &b).unwrap()),
            vec![Value::Boolean(true), Value::Boolean(true), Value::Null]
        );
    }

    #[test]
    fn like_and_isnull() {
        let b = batch();
        let like = ScalarExpr::Like {
            expr: Box::new(ScalarExpr::col(2)),
            pattern: Box::new(ScalarExpr::lit(Value::Utf8("%an%".into()))),
            negated: false,
        };
        assert_eq!(
            vals(evaluate(&like, &b).unwrap()),
            vec![Value::Boolean(false), Value::Boolean(true), Value::Null]
        );
        let isnull = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::col(2)),
            negated: false,
        };
        assert_eq!(
            vals(evaluate(&isnull, &b).unwrap()),
            vec![
                Value::Boolean(false),
                Value::Boolean(false),
                Value::Boolean(true)
            ]
        );
    }

    #[test]
    fn in_list_three_valued() {
        let b = batch();
        let e = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::col(0)),
            list: vec![
                ScalarExpr::lit(Value::Int64(1)),
                ScalarExpr::lit(Value::Null),
            ],
            negated: false,
        };
        // 1 IN (1, NULL) = true; 2 IN (1, NULL) = NULL; NULL IN ... = NULL
        assert_eq!(
            vals(evaluate(&e, &b).unwrap()),
            vec![Value::Boolean(true), Value::Null, Value::Null]
        );
        let no_null = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::col(0)),
            list: vec![ScalarExpr::lit(Value::Int64(1))],
            negated: true,
        };
        assert_eq!(
            vals(evaluate(&no_null, &b).unwrap()),
            vec![Value::Boolean(false), Value::Boolean(true), Value::Null]
        );
    }

    #[test]
    fn case_evaluation() {
        let b = batch();
        let e = ScalarExpr::Case {
            branches: vec![(
                ScalarExpr::col(0).binary(BinaryOp::Eq, ScalarExpr::lit(Value::Int64(1))),
                ScalarExpr::lit(Value::Utf8("one".into())),
            )],
            else_expr: Some(Box::new(ScalarExpr::lit(Value::Utf8("other".into())))),
        };
        assert_eq!(
            vals(evaluate(&e, &b).unwrap()),
            vec![
                Value::Utf8("one".into()),
                Value::Utf8("other".into()),
                Value::Utf8("other".into())
            ]
        );
    }

    #[test]
    fn date_arithmetic() {
        let b = batch();
        let e = ScalarExpr::col(3).binary(BinaryOp::Plus, ScalarExpr::lit(Value::Int64(5)));
        assert_eq!(
            vals(evaluate(&e, &b).unwrap()),
            vec![Value::Date(15), Value::Date(25), Value::Null]
        );
    }

    #[test]
    fn constant_evaluation() {
        let e = ScalarExpr::lit(Value::Int64(6))
            .binary(BinaryOp::Multiply, ScalarExpr::lit(Value::Int64(7)));
        assert_eq!(evaluate_constant(&e).unwrap(), Value::Int64(42));
    }
}
