//! Deterministic, seed-driven SQL query generator.
//!
//! [`QueryGen::generate`] maps a `u64` seed to one well-typed query
//! AST over the FedMart global schema: the same seed always produces
//! the same query, so a failing seed is a complete reproduction
//! recipe. Coverage targets the engine's decomposition surface —
//! multi-source equi-joins, predicate shapes the pushdown rule moves
//! (LIKE with Unicode/NUL patterns, arithmetic, scalar functions,
//! BETWEEN/IN/IS NULL), GROUP BY with aggregates and HAVING, DISTINCT,
//! UNION \[ALL\], derived tables, IN-subqueries, and ORDER BY with
//! LIMIT/OFFSET.
//!
//! Two generation rules keep every query *comparable across plans*:
//!
//! 1. `LIMIT`/`OFFSET` are only emitted when `ORDER BY` covers every
//!    output ordinal. A limited query without a total order has many
//!    correct answers, and different-but-correct prefixes across
//!    configs would be indistinguishable from wrong results.
//! 2. Divisors and modulus operands are non-zero literals, so no
//!    config-dependent evaluation order can dodge (or hit) a
//!    division-by-zero error that another config misses.

use crate::schema::{Col, Ty, JOIN_EDGES, TABLES};
use gis_sql::ast::{
    BinaryOp, Expr, JoinConstraint, JoinKind, OrderByExpr, Query, Select, SelectItem, SetExpr,
    TableRef, UnaryOp,
};
use gis_types::{DataType, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// LIKE patterns exercised by the fuzzer: wildcards in every
/// position, escaped wildcards, raw NUL/SOH characters (the pre-fix
/// sentinel collision), multibyte Unicode, and a trailing backslash.
const LIKE_PATTERNS: &[&str] = &[
    "%",
    "cust%",
    "%_7%",
    "c_st%",
    "%語%",
    "центр",
    "%о%",
    "cust\\_1%",
    "",
    "_%",
    "\u{0}%",
    "a\u{1}",
    "%\\",
    "gold",
];

/// String literals: empty, quoted quote, backslash, NUL-bearing,
/// Unicode, and plausible FedMart data values.
const STR_LITERALS: &[&str] = &[
    "",
    "a",
    "cust_17",
    "центр",
    "it's",
    "back\\slash",
    "x\u{0}y",
    "日本",
    "gold",
    "silver",
    "bronze",
    "north",
    " padded ",
];

/// A deterministic query generator (one RNG stream per seed).
pub struct QueryGen {
    rng: StdRng,
}

impl QueryGen {
    /// Creates a generator for one seed.
    pub fn new(seed: u64) -> QueryGen {
        QueryGen {
            // Decorrelate from other users of the same seed space.
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The query for `seed`.
    pub fn generate(seed: u64) -> Query {
        QueryGen::new(seed).query()
    }

    fn pct(&mut self, p: u32) -> bool {
        self.rng.random_range(0..100u32) < p
    }

    fn upto(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        let i = self.upto(xs.len());
        &xs[i]
    }

    // ---- top level ---------------------------------------------------

    fn query(&mut self) -> Query {
        let roll = self.rng.random_range(0..100u32);
        if roll < 10 {
            self.union_query()
        } else if roll < 22 {
            self.derived_table_query()
        } else {
            let (from, cols) = self.relation();
            let (body, out) = if self.pct(35) {
                self.aggregate_select(from, &cols)
            } else {
                self.plain_select(from, &cols)
            };
            self.wrap(SetExpr::Select(Box::new(body)), out.len())
        }
    }

    /// Adds ORDER BY / LIMIT / OFFSET around a finished body.
    fn wrap(&mut self, body: SetExpr, arity: usize) -> Query {
        let mut order_by = Vec::new();
        if arity > 0 && self.pct(55) {
            // A shuffled prefix of the output ordinals.
            let mut ords: Vec<usize> = (1..=arity).collect();
            for i in (1..ords.len()).rev() {
                let j = self.rng.random_range(0..=i);
                ords.swap(i, j);
            }
            let keep = if self.pct(60) {
                ords.len()
            } else {
                1 + self.upto(ords.len())
            };
            ords.truncate(keep);
            for k in &ords {
                order_by.push(OrderByExpr {
                    expr: Expr::Literal(Value::Int64(*k as i64)),
                    asc: self.pct(70),
                    nulls_first: if self.pct(30) {
                        Some(self.pct(50))
                    } else {
                        None
                    },
                });
            }
        }
        // LIMIT without a total order is nondeterministic across
        // plans; only emit it when every ordinal is a sort key.
        let total_order = order_by.len() == arity && arity > 0;
        let (limit, offset) = if total_order && self.pct(55) {
            (
                Some(1 + self.rng.random_range(0..50u64)),
                if self.pct(35) {
                    Some(self.rng.random_range(0..10u64))
                } else {
                    None
                },
            )
        } else {
            (None, None)
        };
        Query {
            body,
            order_by,
            limit,
            offset,
        }
    }

    // ---- FROM clauses ------------------------------------------------

    /// A join tree along schema edges. Returns the table reference and
    /// the columns in scope, qualified by alias.
    fn relation(&mut self) -> (TableRef, Vec<Col>) {
        let n_tables = match self.rng.random_range(0..100u32) {
            0..=49 => 1,
            50..=79 => 2,
            80..=94 => 3,
            _ => 4,
        };
        let first = self.upto(TABLES.len());
        let mut used: Vec<(usize, String)> = vec![(first, "t0".to_string())];
        let mut tref = TableRef::Table {
            source: None,
            name: TABLES[first].name.to_string(),
            alias: Some("t0".to_string()),
        };
        while used.len() < n_tables {
            // Edges touching the used set on exactly one side.
            let candidates: Vec<(usize, bool)> = JOIN_EDGES
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    let l = used.iter().find(|(t, _)| *t == e.lt);
                    let r = used.iter().find(|(t, _)| *t == e.rt);
                    match (l, r) {
                        (Some(_), None) => Some((i, false)),
                        (None, Some(_)) => Some((i, true)),
                        _ => None,
                    }
                })
                .collect();
            let Some(&(ei, flipped)) = candidates.get(self.upto(candidates.len().max(1))) else {
                break;
            };
            let e = &JOIN_EDGES[ei];
            let (new_t, new_c, old_t, old_c) = if flipped {
                (e.lt, e.lc, e.rt, e.rc)
            } else {
                (e.rt, e.rc, e.lt, e.lc)
            };
            let alias = format!("t{}", used.len());
            let old_alias = used
                .iter()
                .find(|(t, _)| *t == old_t)
                .map(|(_, a)| a.clone())
                .unwrap_or_default();
            let kind = if self.pct(20) {
                JoinKind::Left
            } else {
                JoinKind::Inner
            };
            let on = Expr::qcol(old_alias, old_c).eq(Expr::qcol(alias.clone(), new_c));
            tref = TableRef::Join {
                left: Box::new(tref),
                right: Box::new(TableRef::Table {
                    source: None,
                    name: TABLES[new_t].name.to_string(),
                    alias: Some(alias.clone()),
                }),
                kind,
                constraint: JoinConstraint::On(on),
            };
            used.push((new_t, alias));
        }
        let mut cols = Vec::new();
        for (t, alias) in &used {
            for (name, ty) in TABLES[*t].cols {
                cols.push(Col {
                    qualifier: alias.clone(),
                    name: (*name).to_string(),
                    ty: *ty,
                });
            }
        }
        (tref, cols)
    }

    /// `(SELECT ... FROM one_table) AS sub` with a shaped outer query.
    fn derived_table_query(&mut self) -> Query {
        let t = self.upto(TABLES.len());
        let from = TableRef::Table {
            source: None,
            name: TABLES[t].name.to_string(),
            alias: Some("t0".to_string()),
        };
        let inner_cols: Vec<Col> = TABLES[t]
            .cols
            .iter()
            .map(|(name, ty)| Col {
                qualifier: "t0".to_string(),
                name: (*name).to_string(),
                ty: *ty,
            })
            .collect();
        // Inner: plain projection with forced aliases, no ORDER/LIMIT
        // (inner ordering is not observable and would add noise).
        let n = 1 + self.upto(3.min(inner_cols.len()));
        let mut projection = Vec::new();
        let mut out_cols = Vec::new();
        for i in 0..n {
            let ty = *self.pick(&[Ty::Int, Ty::Float, Ty::Str, Ty::Date]);
            let expr = self.scalar(&inner_cols, ty, 1);
            projection.push(SelectItem::Expr {
                expr,
                alias: Some(format!("c{i}")),
            });
            out_cols.push(Col {
                qualifier: "sub".to_string(),
                name: format!("c{i}"),
                ty,
            });
        }
        let selection = if self.pct(50) {
            Some(self.predicate_conj(&inner_cols))
        } else {
            None
        };
        let inner = Query {
            body: SetExpr::Select(Box::new(Select {
                distinct: self.pct(20),
                projection,
                from: Some(from),
                selection,
                group_by: vec![],
                having: None,
            })),
            order_by: vec![],
            limit: None,
            offset: None,
        };
        let sub = TableRef::Subquery {
            query: Box::new(inner),
            alias: "sub".to_string(),
        };
        let (body, out) = if self.pct(30) {
            self.aggregate_select(sub, &out_cols)
        } else {
            self.plain_select(sub, &out_cols)
        };
        self.wrap(SetExpr::Select(Box::new(body)), out.len())
    }

    /// `left UNION [ALL] right` over type-compatible projections.
    fn union_query(&mut self) -> Query {
        let arity = 1 + self.upto(3);
        let tys: Vec<Ty> = (0..arity)
            .map(|_| *self.pick(&[Ty::Int, Ty::Float, Ty::Str]))
            .collect();
        let left = self.union_side(&tys);
        let right = self.union_side(&tys);
        let body = SetExpr::Union {
            left: Box::new(left),
            right: Box::new(right),
            all: self.pct(50),
        };
        self.wrap(body, arity)
    }

    fn union_side(&mut self, tys: &[Ty]) -> SetExpr {
        let t = self.upto(TABLES.len());
        let cols: Vec<Col> = TABLES[t]
            .cols
            .iter()
            .map(|(name, ty)| Col {
                qualifier: "t0".to_string(),
                name: (*name).to_string(),
                ty: *ty,
            })
            .collect();
        let projection = tys
            .iter()
            .enumerate()
            .map(|(i, ty)| SelectItem::Expr {
                expr: self.scalar(&cols, *ty, 1),
                alias: Some(format!("c{i}")),
            })
            .collect();
        let selection = if self.pct(55) {
            Some(self.predicate_conj(&cols))
        } else {
            None
        };
        SetExpr::Select(Box::new(Select {
            distinct: false,
            projection,
            from: Some(TableRef::Table {
                source: None,
                name: TABLES[t].name.to_string(),
                alias: Some("t0".to_string()),
            }),
            selection,
            group_by: vec![],
            having: None,
        }))
    }

    // ---- SELECT bodies -----------------------------------------------

    fn plain_select(&mut self, from: TableRef, cols: &[Col]) -> (Select, Vec<Ty>) {
        let (projection, out) = if self.pct(15) {
            (
                vec![SelectItem::Wildcard],
                cols.iter().map(|c| c.ty).collect(),
            )
        } else {
            let n = 1 + self.upto(4);
            let mut items = Vec::new();
            let mut out = Vec::new();
            for i in 0..n {
                let ty = *self.pick(&[Ty::Int, Ty::Float, Ty::Str, Ty::Date]);
                items.push(SelectItem::Expr {
                    expr: self.scalar(cols, ty, 2),
                    alias: Some(format!("c{i}")),
                });
                out.push(ty);
            }
            (items, out)
        };
        let selection = if self.pct(65) {
            Some(self.predicate_conj(cols))
        } else {
            None
        };
        (
            Select {
                distinct: self.pct(20),
                projection,
                from: Some(from),
                selection,
                group_by: vec![],
                having: None,
            },
            out,
        )
    }

    fn aggregate_select(&mut self, from: TableRef, cols: &[Col]) -> (Select, Vec<Ty>) {
        let n_keys = self.upto(3);
        let mut keys = Vec::new();
        for _ in 0..n_keys {
            let c = self.pick(cols).clone();
            let e = Expr::qcol(c.qualifier.clone(), c.name.clone());
            if !keys.iter().any(|(k, _)| *k == e) {
                keys.push((e, c.ty));
            }
        }
        let want_having = self.pct(30);
        let mut projection = Vec::new();
        let mut out = Vec::new();
        for (i, (k, ty)) in keys.iter().enumerate() {
            projection.push(SelectItem::Expr {
                expr: k.clone(),
                alias: Some(format!("k{i}")),
            });
            out.push(*ty);
        }
        // HAVING compares COUNT(*), which is then also projected so
        // the predicate is checkable against the visible output.
        let count_star = Expr::Function {
            name: "count".to_string(),
            args: vec![Expr::Wildcard],
            distinct: false,
        };
        let n_aggs = 1 + self.upto(3);
        for i in 0..n_aggs {
            let (agg, ty) = if i == 0 && want_having {
                (count_star.clone(), Ty::Int)
            } else {
                self.aggregate(cols)
            };
            projection.push(SelectItem::Expr {
                expr: agg,
                alias: Some(format!("a{i}")),
            });
            out.push(ty);
        }
        let having = if want_having {
            Some(Expr::BinaryOp {
                left: Box::new(count_star),
                op: *self.pick(&[BinaryOp::Gt, BinaryOp::GtEq, BinaryOp::Lt]),
                right: Box::new(Expr::Literal(Value::Int64(1 + self.upto(5) as i64))),
            })
        } else {
            None
        };
        let selection = if self.pct(50) {
            Some(self.predicate_conj(cols))
        } else {
            None
        };
        (
            Select {
                distinct: false,
                projection,
                from: Some(from),
                selection,
                group_by: keys.into_iter().map(|(k, _)| k).collect(),
                having,
            },
            out,
        )
    }

    fn aggregate(&mut self, cols: &[Col]) -> (Expr, Ty) {
        let c = self.pick(cols).clone();
        let col = Expr::qcol(c.qualifier.clone(), c.name.clone());
        match self.rng.random_range(0..100u32) {
            0..=14 => (
                Expr::Function {
                    name: "count".to_string(),
                    args: vec![Expr::Wildcard],
                    distinct: false,
                },
                Ty::Int,
            ),
            15..=29 => (
                Expr::Function {
                    name: "count".to_string(),
                    args: vec![col],
                    distinct: self.pct(40),
                },
                Ty::Int,
            ),
            30..=54 => {
                // SUM over a numeric column (or quantity arithmetic).
                let (arg, ty) = match c.ty {
                    Ty::Int => (col, Ty::Int),
                    Ty::Float => (col, Ty::Float),
                    _ => {
                        let d = self.int_col_expr(cols);
                        (d, Ty::Int)
                    }
                };
                (
                    Expr::Function {
                        name: "sum".to_string(),
                        args: vec![arg],
                        distinct: false,
                    },
                    ty,
                )
            }
            55..=69 => {
                let arg = match c.ty {
                    Ty::Int | Ty::Float => col,
                    _ => self.int_col_expr(cols),
                };
                (
                    Expr::Function {
                        name: "avg".to_string(),
                        args: vec![arg],
                        distinct: false,
                    },
                    Ty::Float,
                )
            }
            _ => (
                Expr::Function {
                    name: if self.pct(50) { "min" } else { "max" }.to_string(),
                    args: vec![col],
                    distinct: false,
                },
                c.ty,
            ),
        }
    }

    /// Some integer column, or a small literal when none exists.
    fn int_col_expr(&mut self, cols: &[Col]) -> Expr {
        let ints: Vec<&Col> = cols.iter().filter(|c| c.ty == Ty::Int).collect();
        if ints.is_empty() {
            Expr::Literal(Value::Int64(self.rng.random_range(0..10i64)))
        } else {
            let c = ints[self.upto(ints.len())];
            Expr::qcol(c.qualifier.clone(), c.name.clone())
        }
    }

    // ---- predicates --------------------------------------------------

    /// 1–3 predicates joined with AND (the unit pushdown moves).
    /// `IN (SELECT ...)` only binds as a top-level WHERE conjunct, so
    /// subquery membership tests are appended here — never nested
    /// under OR/NOT/CASE by [`Self::predicate`].
    fn predicate_conj(&mut self, cols: &[Col]) -> Expr {
        let n = 1 + self.upto(3);
        let mut e = self.predicate(cols, 2);
        for _ in 1..n {
            let next = self.predicate(cols, 2);
            e = if self.pct(80) {
                e.and(next)
            } else {
                Expr::BinaryOp {
                    left: Box::new(e),
                    op: BinaryOp::Or,
                    right: Box::new(next),
                }
            };
        }
        if self.pct(18) {
            let sub = self.in_subquery(cols);
            e = if self.pct(25) { sub } else { e.and(sub) };
        }
        e
    }

    fn predicate(&mut self, cols: &[Col], d: usize) -> Expr {
        let c = self.pick(cols).clone();
        let col = Expr::qcol(c.qualifier.clone(), c.name.clone());
        let roll = self.rng.random_range(0..100u32);
        match roll {
            // Comparison against a same-type scalar.
            0..=34 => {
                let rhs = self.scalar(cols, c.ty, d.saturating_sub(1));
                Expr::BinaryOp {
                    left: Box::new(col),
                    op: *self.pick(&[
                        BinaryOp::Eq,
                        BinaryOp::NotEq,
                        BinaryOp::Lt,
                        BinaryOp::LtEq,
                        BinaryOp::Gt,
                        BinaryOp::GtEq,
                    ]),
                    right: Box::new(rhs),
                }
            }
            // LIKE over a string expression.
            35..=54 => {
                let target = match c.ty {
                    Ty::Str => col,
                    _ => self.str_col_expr(cols),
                };
                Expr::Like {
                    negated: self.pct(25),
                    expr: Box::new(target),
                    pattern: Box::new(Expr::Literal(Value::Utf8(
                        (*self.pick(LIKE_PATTERNS)).to_string(),
                    ))),
                }
            }
            55..=64 => Expr::Between {
                expr: Box::new(col),
                negated: self.pct(25),
                low: Box::new(self.literal(c.ty)),
                high: Box::new(self.literal(c.ty)),
            },
            65..=74 => {
                let n = 1 + self.upto(4);
                let mut list: Vec<Expr> = (0..n).map(|_| self.literal(c.ty)).collect();
                if self.pct(20) {
                    list.push(Expr::Literal(Value::Null));
                }
                Expr::InList {
                    expr: Box::new(col),
                    negated: self.pct(30),
                    list,
                }
            }
            75..=82 => Expr::IsNull {
                expr: Box::new(col),
                negated: self.pct(50),
            },
            83..=95 if d > 0 => Expr::UnaryOp {
                op: UnaryOp::Not,
                expr: Box::new(self.predicate(cols, d - 1)),
            },
            _ if d > 0 => {
                let l = self.predicate(cols, d - 1);
                let r = self.predicate(cols, d - 1);
                Expr::BinaryOp {
                    left: Box::new(l),
                    op: if self.pct(50) {
                        BinaryOp::And
                    } else {
                        BinaryOp::Or
                    },
                    right: Box::new(r),
                }
            }
            _ => Expr::IsNull {
                expr: Box::new(col),
                negated: true,
            },
        }
    }

    /// `col [NOT] IN (SELECT key FROM dim [WHERE ...])` along a real
    /// key relationship, falling back to a plain comparison when the
    /// scope has no subquery-able column.
    fn in_subquery(&mut self, cols: &[Col]) -> Expr {
        let target = cols.iter().find_map(|c| match c.name.as_str() {
            "cust_id" => Some((c.clone(), "customers", "id")),
            "product_id" => Some((c.clone(), "products", "product_id")),
            "region" => Some((c.clone(), "regions", "region")),
            _ => None,
        });
        let Some((c, table, key)) = target else {
            let c = self.pick(cols).clone();
            let lit = self.literal(c.ty);
            return Expr::BinaryOp {
                left: Box::new(Expr::qcol(c.qualifier, c.name)),
                op: BinaryOp::NotEq,
                right: Box::new(lit),
            };
        };
        let inner_cols: Vec<Col> = TABLES
            .iter()
            .find(|t| t.name == table)
            .map(|t| {
                t.cols
                    .iter()
                    .map(|(name, ty)| Col {
                        qualifier: table.to_string(),
                        name: (*name).to_string(),
                        ty: *ty,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let selection = if self.pct(60) {
            Some(self.predicate(&inner_cols, 0))
        } else {
            None
        };
        let inner = Query {
            body: SetExpr::Select(Box::new(Select {
                distinct: false,
                projection: vec![SelectItem::Expr {
                    expr: Expr::qcol(table, key),
                    alias: None,
                }],
                from: Some(TableRef::Table {
                    source: None,
                    name: table.to_string(),
                    alias: None,
                }),
                selection,
                group_by: vec![],
                having: None,
            })),
            order_by: vec![],
            limit: None,
            offset: None,
        };
        Expr::InSubquery {
            expr: Box::new(Expr::qcol(c.qualifier, c.name)),
            negated: self.pct(30),
            query: Box::new(inner),
        }
    }

    // ---- scalar expressions ------------------------------------------

    /// Some string column, or a literal when none is in scope.
    fn str_col_expr(&mut self, cols: &[Col]) -> Expr {
        let strs: Vec<&Col> = cols.iter().filter(|c| c.ty == Ty::Str).collect();
        if strs.is_empty() {
            Expr::Literal(Value::Utf8((*self.pick(STR_LITERALS)).to_string()))
        } else {
            let c = strs[self.upto(strs.len())];
            Expr::qcol(c.qualifier.clone(), c.name.clone())
        }
    }

    /// A literal, shaped the way the parser shapes it: negatives are
    /// `Neg(positive literal)`, so generate → unparse → parse is a
    /// fixpoint (the shrinker and corpus round-trip rely on this).
    fn int_lit(v: i64) -> Expr {
        if v < 0 {
            Expr::UnaryOp {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::Literal(Value::Int64(-v))),
            }
        } else {
            Expr::Literal(Value::Int64(v))
        }
    }

    fn literal(&mut self, ty: Ty) -> Expr {
        match ty {
            Ty::Int => {
                let magnitude = match self.rng.random_range(0..10u32) {
                    0 => 0,
                    1 | 2 => 1,
                    _ => self.rng.random_range(0..1000i64),
                };
                let sign = if self.pct(30) { -1 } else { 1 };
                Self::int_lit(sign * magnitude)
            }
            Ty::Float => {
                let lit = Expr::Literal(Value::Float64(
                    *self.pick(&[0.0, 1.5, 2.25, 99.99, 1000.0, 0.001, 250.0, 0.5, 42.42]),
                ));
                if self.pct(25) {
                    Expr::UnaryOp {
                        op: UnaryOp::Neg,
                        expr: Box::new(lit),
                    }
                } else {
                    lit
                }
            }
            Ty::Str => Expr::Literal(Value::Utf8((*self.pick(STR_LITERALS)).to_string())),
            // 1989-2023-ish, matching FedMart's date ranges.
            Ty::Date => Expr::Literal(Value::Date(self.rng.random_range(7000..19500i32))),
        }
    }

    fn col_of(&mut self, cols: &[Col], ty: Ty) -> Option<Expr> {
        let matching: Vec<&Col> = cols.iter().filter(|c| c.ty == ty).collect();
        if matching.is_empty() {
            None
        } else {
            let c = matching[self.upto(matching.len())];
            Some(Expr::qcol(c.qualifier.clone(), c.name.clone()))
        }
    }

    /// A scalar expression of type `ty`; `d` bounds recursion depth.
    fn scalar(&mut self, cols: &[Col], ty: Ty, d: usize) -> Expr {
        if d == 0 || self.pct(35) {
            return match self.col_of(cols, ty) {
                Some(c) if self.pct(75) => c,
                _ => self.literal(ty),
            };
        }
        match ty {
            Ty::Int => self.int_expr(cols, d),
            Ty::Float => self.float_expr(cols, d),
            Ty::Str => self.str_expr(cols, d),
            Ty::Date => self
                .col_of(cols, Ty::Date)
                .unwrap_or_else(|| self.literal(Ty::Date)),
        }
    }

    fn int_expr(&mut self, cols: &[Col], d: usize) -> Expr {
        match self.rng.random_range(0..100u32) {
            0..=29 => {
                let l = self.scalar(cols, Ty::Int, d - 1);
                let r = self.scalar(cols, Ty::Int, d - 1);
                Expr::BinaryOp {
                    left: Box::new(l),
                    op: *self.pick(&[BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Multiply]),
                    right: Box::new(r),
                }
            }
            // Divide / modulo by a non-zero literal only: a zero
            // divisor reached in one plan but folded or filtered away
            // in another would create spurious divergences.
            30..=44 => {
                let l = self.scalar(cols, Ty::Int, d - 1);
                Expr::BinaryOp {
                    left: Box::new(l),
                    op: if self.pct(50) {
                        BinaryOp::Divide
                    } else {
                        BinaryOp::Modulo
                    },
                    right: Box::new(Expr::Literal(Value::Int64(self.rng.random_range(2..9i64)))),
                }
            }
            45..=59 => Expr::Function {
                name: "length".to_string(),
                args: vec![self.str_expr(cols, d - 1)],
                distinct: false,
            },
            60..=69 => Expr::Function {
                name: "abs".to_string(),
                args: vec![self.scalar(cols, Ty::Int, d - 1)],
                distinct: false,
            },
            70..=79 => Expr::Function {
                name: (*self.pick(&["year", "month", "day"])).to_string(),
                args: vec![self
                    .col_of(cols, Ty::Date)
                    .unwrap_or_else(|| self.literal(Ty::Date))],
                distinct: false,
            },
            80..=89 => Expr::Function {
                name: if self.pct(50) { "floor" } else { "ceil" }.to_string(),
                args: vec![self.scalar(cols, Ty::Float, d - 1)],
                distinct: false,
            },
            90..=94 => self.case_expr(cols, Ty::Int, d),
            _ => Expr::UnaryOp {
                op: UnaryOp::Neg,
                expr: Box::new(self.scalar(cols, Ty::Int, d - 1)),
            },
        }
    }

    fn float_expr(&mut self, cols: &[Col], d: usize) -> Expr {
        match self.rng.random_range(0..100u32) {
            0..=29 => {
                let l = self.scalar(cols, Ty::Float, d - 1);
                let r = self.scalar(cols, Ty::Float, d - 1);
                Expr::BinaryOp {
                    left: Box::new(l),
                    op: *self.pick(&[BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Multiply]),
                    right: Box::new(r),
                }
            }
            30..=39 => Expr::BinaryOp {
                left: Box::new(self.scalar(cols, Ty::Float, d - 1)),
                op: BinaryOp::Divide,
                right: Box::new(Expr::Literal(Value::Float64(
                    *self.pick(&[2.0, 4.0, 0.5, 8.0, 3.0]),
                ))),
            },
            40..=54 => {
                let digits = self.rng.random_range(-2..4i64);
                Expr::Function {
                    name: "round".to_string(),
                    args: vec![self.scalar(cols, Ty::Float, d - 1), Self::int_lit(digits)],
                    distinct: false,
                }
            }
            55..=64 => Expr::Function {
                name: "sqrt".to_string(),
                args: vec![Expr::Function {
                    name: "abs".to_string(),
                    args: vec![self.scalar(cols, Ty::Float, d - 1)],
                    distinct: false,
                }],
                distinct: false,
            },
            65..=74 => Expr::Cast {
                expr: Box::new(self.scalar(cols, Ty::Int, d - 1)),
                to: DataType::Float64,
            },
            75..=84 => Expr::Function {
                name: "coalesce".to_string(),
                args: vec![
                    self.col_of(cols, Ty::Float)
                        .unwrap_or(Expr::Literal(Value::Null)),
                    self.literal(Ty::Float),
                ],
                distinct: false,
            },
            85..=92 => self.case_expr(cols, Ty::Float, d),
            _ => Expr::Function {
                name: "nullif".to_string(),
                args: vec![self.scalar(cols, Ty::Float, d - 1), self.literal(Ty::Float)],
                distinct: false,
            },
        }
    }

    fn str_expr(&mut self, cols: &[Col], d: usize) -> Expr {
        match self.rng.random_range(0..100u32) {
            0..=24 => Expr::Function {
                name: if self.pct(50) { "upper" } else { "lower" }.to_string(),
                args: vec![self.str_expr(cols, d.saturating_sub(1))],
                distinct: false,
            },
            // SUBSTR with negative / zero / past-the-end starts — the
            // satellite-fix surface.
            25..=49 => {
                let start = self.rng.random_range(-4..8i64);
                let mut args = vec![
                    self.str_expr(cols, d.saturating_sub(1)),
                    Self::int_lit(start),
                ];
                if self.pct(70) {
                    args.push(Expr::Literal(Value::Int64(self.rng.random_range(0..7i64))));
                }
                Expr::Function {
                    name: "substr".to_string(),
                    args,
                    distinct: false,
                }
            }
            50..=64 => Expr::BinaryOp {
                left: Box::new(self.str_expr(cols, d.saturating_sub(1))),
                op: BinaryOp::Concat,
                right: Box::new(self.str_expr(cols, d.saturating_sub(1))),
            },
            65..=74 => Expr::Function {
                name: "trim".to_string(),
                args: vec![self.str_expr(cols, d.saturating_sub(1))],
                distinct: false,
            },
            75..=84 => Expr::Function {
                name: "coalesce".to_string(),
                args: vec![
                    self.col_of(cols, Ty::Str)
                        .unwrap_or(Expr::Literal(Value::Null)),
                    self.literal(Ty::Str),
                ],
                distinct: false,
            },
            _ => match self.col_of(cols, Ty::Str) {
                Some(c) => c,
                None => self.literal(Ty::Str),
            },
        }
    }

    fn case_expr(&mut self, cols: &[Col], ty: Ty, d: usize) -> Expr {
        let n = 1 + self.upto(2);
        let branches = (0..n)
            .map(|_| {
                (
                    self.predicate(cols, 0),
                    self.scalar(cols, ty, d.saturating_sub(1)),
                )
            })
            .collect();
        Expr::Case {
            operand: None,
            branches,
            else_expr: if self.pct(70) {
                Some(Box::new(self.scalar(cols, ty, d.saturating_sub(1))))
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_sql::{parse, unparse};

    #[test]
    fn deterministic_per_seed() {
        for seed in 0..50 {
            assert_eq!(QueryGen::generate(seed), QueryGen::generate(seed));
        }
        // Different seeds should (essentially always) differ.
        assert_ne!(QueryGen::generate(1), QueryGen::generate(2));
    }

    #[test]
    fn generated_queries_unparse_and_reparse() {
        for seed in 0..300 {
            let q = QueryGen::generate(seed);
            let sql = unparse::query_to_sql(&q);
            let stmt = parse(&sql).unwrap_or_else(|e| {
                panic!("seed {seed}: unparse output failed to parse: {e}\n{sql}")
            });
            // Round-trip fixpoint: unparse(parse(unparse(q))) is stable.
            if let gis_sql::ast::Statement::Query(q2) = stmt {
                assert_eq!(
                    unparse::query_to_sql(&q2),
                    sql,
                    "seed {seed}: unparse not a fixpoint"
                );
            } else {
                panic!("seed {seed}: not a query");
            }
        }
    }

    #[test]
    fn limit_only_under_total_order() {
        for seed in 0..500 {
            let q = QueryGen::generate(seed);
            if q.limit.is_some() || q.offset.is_some() {
                assert!(
                    !q.order_by.is_empty(),
                    "seed {seed}: LIMIT without ORDER BY"
                );
            }
        }
    }
}
