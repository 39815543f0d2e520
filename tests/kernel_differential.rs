//! Differential property suite for the vectorized key kernels.
//!
//! Randomized batches — every key type, NULLs, heavy duplicates, and
//! collision-prone configurations — must produce **row-identical**
//! results (content *and* order) from the new hashed/fixed kernels
//! and the retained `Vec<Value>` reference implementations, for every
//! `JoinKind`, GROUP BY, and DISTINCT. Each comparison runs two
//! kernel configurations: production hashing, and a 3-bit hash mask
//! that crams every row into 8 buckets so the columnar
//! collision-verification path does real work.
//!
//! Float keys only ever generate the positive quiet NaN: the pinned
//! kernel semantics ("any NaN equals any NaN") and the reference's
//! total-order equality agree on that payload, so the oracle stays
//! valid while NaN grouping is still exercised.
//!
//! The sort kernel gets the same treatment against the
//! `Value`-per-comparison reference `ordering::sorted_indices`: the
//! index vector itself is compared, which pins stability, NULL
//! placement and the float total order (`-NaN < -inf < -0.0 < 0.0 <
//! inf < NaN`) together with top-k, spilled runs and the source-side
//! `sort` + `limit` scan.

use gis::adapters::{AggFunc, RelationalAdapter, SortSpec, SourceAdapter, SourceRequest};
use gis::core::exec::aggregate::{distinct, distinct_ref, hash_aggregate, hash_aggregate_ref};
use gis::core::exec::join::{hash_join, hash_join_ref};
use gis::core::exec::keys::{KernelGov, KernelOptions};
use gis::core::exec::physical::PhysicalSortKey;
use gis::core::exec::sort::sort_batch;
use gis::core::expr::ScalarExpr;
use gis::core::plan::logical::{AggregateExpr, JoinNode};
use gis::sql::ast::{BinaryOp, JoinKind};
use gis::storage::RowStore;
use gis::types::ordering::{sort_indices, sorted_indices};
use gis::types::{Batch, DataType, Field, MemBudget, Schema, SchemaRef, SortKey, Value};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Key-column flavors. Small value domains force duplicates (the
/// interesting case for grouping and joins).
#[derive(Debug, Clone, Copy)]
enum KeyKind {
    Int64,
    Int32,
    Float64,
    Utf8Short,
    Utf8Long,
    Date,
    Boolean,
    Timestamp,
}

const KINDS: [KeyKind; 8] = [
    KeyKind::Int64,
    KeyKind::Int32,
    KeyKind::Float64,
    KeyKind::Utf8Short,
    KeyKind::Utf8Long,
    KeyKind::Date,
    KeyKind::Boolean,
    KeyKind::Timestamp,
];

impl KeyKind {
    fn data_type(self) -> DataType {
        match self {
            KeyKind::Int64 => DataType::Int64,
            KeyKind::Int32 => DataType::Int32,
            KeyKind::Float64 => DataType::Float64,
            KeyKind::Utf8Short | KeyKind::Utf8Long => DataType::Utf8,
            KeyKind::Date => DataType::Date,
            KeyKind::Boolean => DataType::Boolean,
            KeyKind::Timestamp => DataType::Timestamp,
        }
    }

    /// Materializes raw draw `v` (a small non-negative domain value)
    /// as a key of this kind.
    fn value(self, v: i64) -> Value {
        match self {
            KeyKind::Int64 => Value::Int64(v),
            KeyKind::Int32 => Value::Int32(v as i32),
            KeyKind::Float64 => match v % 5 {
                // One NaN payload only: see module docs.
                0 => Value::Float64(f64::NAN),
                1 => Value::Float64(0.0),
                2 => Value::Float64(-0.0),
                _ => Value::Float64(v as f64 / 2.0),
            },
            KeyKind::Utf8Short => Value::Utf8(format!("k{v}")),
            // Long enough to defeat the u128 fixed-key layout (beside
            // the empty string).
            KeyKind::Utf8Long if v == 0 => Value::Utf8(String::new()),
            KeyKind::Utf8Long => Value::Utf8(format!("key-{v:+060}")),
            KeyKind::Date => Value::Date(v as i32 - 3),
            KeyKind::Boolean => Value::Boolean(v % 2 == 0),
            KeyKind::Timestamp => Value::Timestamp(v * 1_000_003),
        }
    }
}

/// A raw column draw: `(null, domain_value)` per row.
type RawCol = Vec<(bool, i64)>;

/// The two kernel configurations every comparison sweeps.
fn kernel_modes() -> [(&'static str, KernelOptions); 2] {
    [
        ("serial", KernelOptions::default()),
        ("collide", KernelOptions { hash_mask: 0x7 }),
    ]
}

/// Governor flavors: unbounded (the pre-governor behavior) and a
/// one-byte soft limit with a large spill cap, which forces every
/// hash table through the radix spill path. Spilled execution must
/// stay row-identical to the reference too.
fn budgets() -> [(&'static str, Option<MemBudget>); 2] {
    [
        ("unbounded", None),
        ("spill", Some(MemBudget::standalone(1, 1 << 30))),
    ]
}

/// Builds a batch with `raw` key columns of `kinds` plus one Int64
/// payload column drawn from a small domain (so full-row duplicates
/// occur for DISTINCT).
fn build_batch(kinds: &[KeyKind], raw: &[RawCol], payload: &RawCol) -> Batch {
    let n = payload.len();
    let mut fields: Vec<Field> = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| Field::new(format!("k{i}"), k.data_type()).with_nullable(true))
        .collect();
    fields.push(Field::new("payload", DataType::Int64).with_nullable(true));
    let schema = Schema::new(fields).into_ref();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|r| {
            let mut row: Vec<Value> = kinds
                .iter()
                .zip(raw)
                .map(|(k, col)| {
                    let (null, v) = col[r];
                    if null {
                        Value::Null
                    } else {
                        k.value(v)
                    }
                })
                .collect();
            let (null, v) = payload[r];
            row.push(if null { Value::Null } else { Value::Int64(v) });
            row
        })
        .collect();
    Batch::from_rows(schema, &rows).expect("batch")
}

/// Raw rows for one side: every key column plus the payload share the
/// row count, values in `0..domain`, ~1 in 8 NULL.
fn side(
    columns: usize,
    domain: i64,
    rows: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = Vec<RawCol>> {
    pvec(
        pvec((proptest::arbitrary::any::<u8>(), 0..domain), rows),
        columns + 1,
    )
    .prop_map(|cols| {
        // Equalize lengths (vec-of-vec draws may differ): truncate to
        // the shortest, then split nulls off the u8 draw.
        let n = cols.iter().map(Vec::len).min().unwrap_or(0);
        cols.into_iter()
            .map(|c| {
                c.into_iter()
                    .take(n)
                    .map(|(b, v)| (b % 8 == 0, v))
                    .collect()
            })
            .collect()
    })
}

fn all_join_kinds() -> [JoinKind; 6] {
    [
        JoinKind::Inner,
        JoinKind::Left,
        JoinKind::Right,
        JoinKind::Full,
        JoinKind::Semi,
        JoinKind::Anti,
    ]
}

fn join_schema(l: &Batch, r: &Batch, kind: JoinKind) -> SchemaRef {
    JoinNode::compute_schema(l.schema(), r.schema(), kind)
}

/// Output lists for a `width`-column join: everything, a strict
/// subset, and a reordered list that repeats a column.
fn output_lists(width: usize) -> [Option<Vec<usize>>; 3] {
    let reordered = (0..width).rev().chain([0]).collect();
    [None, Some((0..width).step_by(2).collect()), Some(reordered)]
}

fn check_join(kinds: &[KeyKind], left: &Batch, right: &Batch) -> Result<(), TestCaseError> {
    let key_cols: Vec<usize> = (0..kinds.len()).collect();
    // ON … AND left.payload <= right.payload, over `left ++ right`.
    let residual = ScalarExpr::col(kinds.len()).binary(
        BinaryOp::LtEq,
        ScalarExpr::col(left.num_columns() + kinds.len()),
    );
    for jk in all_join_kinds() {
        let schema = join_schema(left, right, jk);
        for residual in [None, Some(&residual)] {
            let want = hash_join_ref(
                left,
                right,
                &key_cols,
                &key_cols,
                jk,
                residual,
                schema.clone(),
            )
            .expect("reference join");
            for output in output_lists(schema.len()) {
                // The pruned join must equal the full join projected.
                let (want, out_schema) = match &output {
                    Some(kept) => (
                        want.project(kept).expect("project").to_rows(),
                        Schema::new(schema.project(kept).fields().to_vec()).into_ref(),
                    ),
                    None => (want.to_rows(), schema.clone()),
                };
                for (mode, opts) in kernel_modes() {
                    for (bmode, budget) in budgets() {
                        let gov = match &budget {
                            Some(b) => KernelGov::new(b, None, 0),
                            None => KernelGov::unbounded(),
                        };
                        let (got, _) = hash_join(
                            left,
                            right,
                            &key_cols,
                            &key_cols,
                            jk,
                            residual,
                            output.as_deref(),
                            out_schema.clone(),
                            &opts,
                            &gov,
                        )
                        .expect("kernel join");
                        prop_assert_eq!(got.schema(), &out_schema);
                        prop_assert_eq!(
                            got.to_rows(),
                            want.clone(),
                            "join kind {:?}, residual {}, output {:?}, kernel mode {}, budget {}, kinds {:?}",
                            jk,
                            residual.is_some(),
                            output,
                            mode,
                            bmode,
                            kinds
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// Every aggregate shape over column `arg_col`.
fn agg_exprs(arg_col: usize) -> Vec<AggregateExpr> {
    let arg = || Some(ScalarExpr::col(arg_col));
    vec![
        AggregateExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        },
        AggregateExpr {
            func: AggFunc::Count,
            arg: arg(),
            distinct: true,
        },
        AggregateExpr {
            func: AggFunc::Sum,
            arg: arg(),
            distinct: false,
        },
        AggregateExpr {
            func: AggFunc::Min,
            arg: arg(),
            distinct: false,
        },
        AggregateExpr {
            func: AggFunc::Max,
            arg: arg(),
            distinct: false,
        },
        AggregateExpr {
            func: AggFunc::Avg,
            arg: arg(),
            distinct: false,
        },
        AggregateExpr {
            func: AggFunc::Sum,
            arg: arg(),
            distinct: true,
        },
    ]
}

fn agg_schema(keys: &[KeyKind], aggs: &[AggregateExpr]) -> SchemaRef {
    let mut fields: Vec<Field> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| Field::new(format!("k{i}"), k.data_type()).with_nullable(true))
        .collect();
    for a in aggs {
        let t = match a.func {
            AggFunc::Avg => DataType::Float64,
            _ => DataType::Int64,
        };
        fields.push(Field::new(a.display_name(), t).with_nullable(true));
    }
    Schema::new(fields).into_ref()
}

/// Groups by the leading `kinds.len()` columns and aggregates the
/// Int64 payload that follows them; `mode` (when given) is the key
/// representation the unbounded production kernel must report.
fn check_group_by(
    kinds: &[KeyKind],
    input: &Batch,
    aggs: &[AggregateExpr],
    mode: Option<&str>,
) -> Result<(), TestCaseError> {
    let schema = agg_schema(kinds, aggs);
    let groups: Vec<ScalarExpr> = (0..kinds.len()).map(ScalarExpr::col).collect();
    let want = hash_aggregate_ref(input, &groups, aggs, schema.clone())
        .expect("reference aggregate")
        .to_rows();
    for (kmode, opts) in kernel_modes() {
        for (bmode, budget) in budgets() {
            let gov = match &budget {
                Some(b) => KernelGov::new(b, None, 0),
                None => KernelGov::unbounded(),
            };
            let (got, stats) = hash_aggregate(input, &groups, aggs, schema.clone(), &opts, &gov)
                .expect("kernel aggregate");
            prop_assert_eq!(
                got.to_rows(),
                want.clone(),
                "group-by kernel mode {}, budget {}, key kinds {:?}",
                kmode,
                bmode,
                kinds
            );
            if let (Some(mode), "serial") = (mode, kmode) {
                let spilled = if budget.is_some() { "-spill" } else { "" };
                prop_assert_eq!(stats.mode.to_string(), format!("{mode}{spilled}"));
            }
        }
    }
    Ok(())
}

fn check_distinct(input: &Batch) -> Result<(), TestCaseError> {
    let want = distinct_ref(input).to_rows();
    for (mode, opts) in kernel_modes() {
        for (bmode, budget) in budgets() {
            let gov = match &budget {
                Some(b) => KernelGov::new(b, None, 0),
                None => KernelGov::unbounded(),
            };
            let (got, _) = distinct(input, &opts, &gov).expect("kernel distinct");
            prop_assert_eq!(
                got.to_rows(),
                want.clone(),
                "distinct kernel mode {}, budget {}",
                mode,
                bmode
            );
        }
    }
    Ok(())
}

/// Sort-key values: unlike the grouping kernels the sort has one
/// pinned order for *every* float payload, so both NaN signs, both
/// zeros and both infinities are drawn; integers straddle zero (the
/// sign-flip), strings share prefixes up to and past the 16-byte key
/// prefix, include the empty string and an embedded NUL.
fn sort_value(kind: KeyKind, v: i64) -> Value {
    match kind {
        KeyKind::Float64 => Value::Float64(match v % 9 {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => 0.0,
            3 => -0.0,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            _ => (v - 7) as f64 / 2.0,
        }),
        KeyKind::Utf8Short => Value::Utf8(
            match v % 6 {
                0 => "",
                1 => "a",
                2 => "ab",
                3 => "ab\0",
                4 => "b",
                _ => "ab\u{1}",
            }
            .into(),
        ),
        KeyKind::Utf8Long => Value::Utf8(match v % 4 {
            0 => "sixteen-byte-pfx".into(),
            _ => format!("sixteen-byte-pfx{}", "z".repeat((v % 4) as usize - 1)),
        }),
        KeyKind::Int64 => Value::Int64(if v == 0 { i64::MIN } else { v - 4 }),
        KeyKind::Int32 => Value::Int32(if v == 0 { i32::MAX } else { v as i32 - 4 }),
        other => other.value(v),
    }
}

/// One drawn ORDER BY key: kind, descending?, NULLS LAST?, all-NULL
/// column?
type KeyDraw = (usize, bool, bool, u8);

fn key_draws(
    keys: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = Vec<KeyDraw>> {
    pvec(
        (
            0usize..8,
            proptest::arbitrary::any::<bool>(),
            proptest::arbitrary::any::<bool>(),
            proptest::arbitrary::any::<u8>(),
        ),
        keys,
    )
}

/// The batch (key columns, then a row-id payload) and its sort keys.
fn build_sort_case(draws: &[KeyDraw], raw: &[RawCol]) -> (Batch, Vec<SortKey>) {
    let n = raw.iter().map(Vec::len).min().unwrap_or(0);
    let mut fields: Vec<Field> = draws
        .iter()
        .enumerate()
        .map(|(i, d)| Field::new(format!("k{i}"), KINDS[d.0].data_type()).with_nullable(true))
        .collect();
    fields.push(Field::new("id", DataType::Int64));
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|r| {
            let mut row: Vec<Value> = draws
                .iter()
                .zip(raw)
                .map(|(d, col)| {
                    let (null, v) = col[r];
                    // ~1 column in 16 is NULL throughout.
                    if null || d.3 % 16 == 0 {
                        Value::Null
                    } else {
                        sort_value(KINDS[d.0], v)
                    }
                })
                .collect();
            row.push(Value::Int64(r as i64));
            row
        })
        .collect();
    let batch = Batch::from_rows(Schema::new(fields).into_ref(), &rows).expect("batch");
    let keys = draws
        .iter()
        .enumerate()
        .map(|(i, d)| SortKey::new(i, !d.1, !d.2))
        .collect();
    (batch, keys)
}

fn physical_keys(keys: &[SortKey]) -> Vec<PhysicalSortKey> {
    keys.iter()
        .map(|k| PhysicalSortKey {
            expr: ScalarExpr::col(k.column),
            asc: k.order == gis::types::SortOrder::Ascending,
            nulls_first: k.nulls_first,
        })
        .collect()
}

/// No cut, and cuts at the `k` values around the row count where
/// top-k arithmetic can go wrong.
fn fetches(n: usize) -> Vec<Option<usize>> {
    let mut cuts: Vec<Option<usize>> = [0, 1, n.saturating_sub(1), n, n + 5].map(Some).into();
    cuts.push(None);
    cuts
}

/// Kernel index vector == oracle; top-k == prefix of the full sort;
/// the governed mediator operator agrees in memory and spilled.
fn check_sort(batch: &Batch, keys: &[SortKey], min_runs: usize) -> Result<(), TestCaseError> {
    let n = batch.num_rows();
    let want = sorted_indices(batch, keys);
    let got = sort_indices(batch.columns(), n, keys, None);
    prop_assert_eq!(&got, &want, "full sort, keys {:?}", keys);
    let phys = physical_keys(keys);
    for fetch in fetches(n) {
        let k = fetch.unwrap_or(n).min(n);
        let top = sort_indices(batch.columns(), n, keys, fetch);
        prop_assert_eq!(&top[..], &want[..k], "top-{:?}, keys {:?}", fetch, keys);
        // Rows, not batches: `Value` equality is total (NaN == NaN).
        let expected = batch.take(&want[..k]).to_rows();
        let (mem, _) = sort_batch(batch, &phys, fetch, &KernelGov::unbounded()).expect("sort");
        prop_assert_eq!(
            mem.to_rows(),
            expected.clone(),
            "mediator sort, fetch {:?}",
            fetch
        );
        let budget = MemBudget::standalone(1, 1 << 30);
        let gov = KernelGov::new(&budget, None, 0);
        let (spilled, stats) = sort_batch(batch, &phys, fetch, &gov).expect("spilled sort");
        prop_assert_eq!(
            spilled.to_rows(),
            expected,
            "spilled sort, fetch {:?}",
            fetch
        );
        if n > 0 {
            prop_assert!(stats.spill_parts >= min_runs, "runs: {}", stats.spill_parts);
            // `fetch = 0` writes its runs empty.
            prop_assert_eq!(stats.spill_bytes > 0, k > 0);
        }
        prop_assert_eq!(budget.used(), 0, "spilled sort leaked a reservation");
    }
    Ok(())
}

/// The relational source's `sort` + `limit` scan returns what the
/// mediator's Sort + Limit would over the same rows.
fn check_source_sort(batch: &Batch, keys: &[SortKey]) -> Result<(), TestCaseError> {
    let source = RelationalAdapter::new("rel");
    source.add_table(RowStore::new("t", batch.schema().clone(), None).expect("row store"));
    source.load("t", batch.to_rows()).expect("load");
    let sort: Vec<SortSpec> = keys
        .iter()
        .map(|k| SortSpec {
            column: k.column,
            asc: k.order == gis::types::SortOrder::Ascending,
            nulls_first: k.nulls_first,
        })
        .collect();
    let phys = physical_keys(keys);
    let n = batch.num_rows();
    for fetch in fetches(n) {
        let request = SourceRequest::Scan {
            table: "t".into(),
            predicates: vec![],
            projection: vec![],
            sort: sort.clone(),
            limit: fetch.map(|k| k as u64),
        };
        let parts = source.execute(&request).expect("source scan");
        prop_assert_eq!(parts.len(), 1);
        let (want, _) = sort_batch(batch, &phys, fetch, &KernelGov::unbounded()).expect("sort");
        prop_assert_eq!(parts[0].to_rows(), want.to_rows(), "limit {:?}", fetch);
    }
    Ok(())
}

/// More distinct strings than a 16-bit code could number: the
/// per-call dictionary keeps numbering, in memory and spilled.
#[test]
fn dictionary_coded_group_keys_past_65536_distinct_values() {
    let kinds = [KeyKind::Utf8Long, KeyKind::Utf8Long];
    let n = 70_000i64;
    let distinct: RawCol = (0..n).map(|i| (i % 997 == 0, i % 66_000 + 1)).collect();
    let few: RawCol = (0..n).map(|i| (i % 31 == 0, i % 3)).collect();
    let payload: RawCol = (0..n).map(|i| (false, i % 11)).collect();
    let input = build_batch(&kinds, &[distinct, few], &payload);
    let aggs = [
        AggregateExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        },
        AggregateExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::col(2)),
            distinct: false,
        },
    ];
    let schema = agg_schema(&kinds, &aggs);
    let groups = [ScalarExpr::col(0), ScalarExpr::col(1)];
    let want = hash_aggregate_ref(&input, &groups, &aggs, schema.clone()).expect("reference");
    assert!(want.num_rows() > 1 << 16);
    // Production hashing only: eight collision buckets would chain
    // every row through 66 000 groups.
    let opts = KernelOptions::default();
    for (mode, budget) in budgets() {
        let gov = match &budget {
            Some(b) => KernelGov::new(b, None, 0),
            None => KernelGov::unbounded(),
        };
        let (got, stats) =
            hash_aggregate(&input, &groups, &aggs, schema.clone(), &opts, &gov).expect("kernel");
        assert!(
            stats.mode.starts_with("fixed-dict"),
            "{mode}: {}",
            stats.mode
        );
        assert_eq!(budget.is_some(), stats.mode.ends_with("-spill"), "{mode}");
        assert_eq!(got, want, "budget {mode}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn single_key_joins_match_reference(
        kind_ix in 0usize..8,
        lraw in side(1, 6, 0..60usize),
        rraw in side(1, 6, 0..60usize),
    ) {
        let kinds = [KINDS[kind_ix]];
        let left = build_batch(&kinds, &lraw[..1], &lraw[1]);
        let right = build_batch(&kinds, &rraw[..1], &rraw[1]);
        check_join(&kinds, &left, &right)?;
    }

    #[test]
    fn two_key_joins_match_reference(
        ka in 0usize..8,
        kb in 0usize..8,
        lraw in side(2, 4, 0..50usize),
        rraw in side(2, 4, 0..50usize),
    ) {
        let kinds = [KINDS[ka], KINDS[kb]];
        let left = build_batch(&kinds, &lraw[..2], &lraw[2]);
        let right = build_batch(&kinds, &rraw[..2], &rraw[2]);
        check_join(&kinds, &left, &right)?;
    }

    #[test]
    fn group_by_matches_reference(
        kind_ix in 0usize..8,
        raw in side(1, 5, 0..80usize),
    ) {
        let kind = KINDS[kind_ix];
        let input = build_batch(&[kind], &raw[..1], &raw[1]);
        check_group_by(&[kind], &input, &agg_exprs(1), None)?;
    }

    // Two or three wide string columns (NULLs and empty strings among
    // them) fit the fixed layout only as dictionary codes; a second
    // integer beside two of them overflows it again.
    #[test]
    fn wide_string_group_keys_match_reference(
        extra in 0usize..3,
        raw in side(3, 4, 0..90usize),
    ) {
        let kinds: &[KeyKind] = match extra {
            0 => &[KeyKind::Utf8Long, KeyKind::Utf8Long],
            1 => &[KeyKind::Utf8Long, KeyKind::Int32, KeyKind::Utf8Long],
            _ => &[KeyKind::Utf8Long, KeyKind::Utf8Short, KeyKind::Utf8Long],
        };
        let input = build_batch(kinds, &raw[..kinds.len()], &raw[3]);
        // Draw 0 is the empty string: a column of nothing else fits as
        // it is.
        let wide = kinds.iter().zip(&raw).any(|(k, col)| {
            matches!(k, KeyKind::Utf8Long) && col.iter().any(|&(null, v)| !null && v != 0)
        });
        let mode = wide.then_some("fixed-dict");
        check_group_by(kinds, &input, &agg_exprs(kinds.len()), mode)?;
    }

    #[test]
    fn distinct_matches_reference(
        ka in 0usize..8,
        kb in 0usize..8,
        raw in side(2, 3, 0..80usize),
    ) {
        let kinds = [KINDS[ka], KINDS[kb]];
        let input = build_batch(&kinds, &raw[..2], &raw[2]);
        check_distinct(&input)?;
    }

    #[test]
    fn sort_matches_reference(
        draws in key_draws(1..4usize),
        raw in side(2, 12, 0..70usize),
    ) {
        let (batch, keys) = build_sort_case(&draws, &raw);
        check_sort(&batch, &keys, 1)?;
        check_source_sort(&batch, &keys)?;
    }

    // Long enough for several 256-row runs, domain small enough that
    // equal keys straddle every run boundary.
    #[test]
    fn spilled_sort_merges_several_runs(
        draws in key_draws(1..3usize),
        raw in side(1, 9, 600..1100usize),
    ) {
        let (batch, keys) = build_sort_case(&draws, &raw);
        check_sort(&batch, &keys, 3)?;
    }
}
