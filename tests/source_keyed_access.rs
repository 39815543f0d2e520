//! Single-pass keyed access at the sources, checked against what it
//! replaced.
//!
//! * `ColumnStore::lookup_sealed` must return what one equality scan
//!   per distinct key, concatenated in request order, returns — the
//!   same rows **in the same order** (the wire codecs are
//!   order-sensitive, so order is part of the contract).
//! * A `LookupFilter` evaluated column at a time must keep exactly the
//!   rows the row-at-a-time evaluation keeps, in scan order, on both
//!   adapters that advertise it — and never lose a row whose key was
//!   inserted into the filter.

use gis::adapters::{ColumnarAdapter, RelationalAdapter, SourceAdapter, SourceRequest};
use gis::net::KeyBloom;
use gis::storage::{CmpOp, ColumnStore, RowStore, ScanPredicate};
use gis::types::{Batch, DataType, Field, Schema, SchemaRef, Value};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::HashSet;

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("a", DataType::Int32),
        Field::new("b", DataType::Float64),
        Field::new("s", DataType::Utf8),
        Field::required("id", DataType::Int64),
    ])
    .into_ref()
}

/// One row from raw draws: ~1 in 8 cells NULL, small domains so keys
/// repeat, and the float column visits `NaN`, `0.0` and `-0.0`.
fn row(id: usize, (a, b, s): (u8, u8, u8)) -> Vec<Value> {
    let cell = |draw: u8, v: Value| if draw % 8 == 7 { Value::Null } else { v };
    vec![
        cell(a, Value::Int32(i32::from(a % 6))),
        cell(
            b,
            match b % 6 {
                0 => Value::Float64(f64::NAN),
                1 => Value::Float64(0.0),
                2 => Value::Float64(-0.0),
                v => Value::Float64(f64::from(v) / 2.0),
            },
        ),
        cell(s, Value::Utf8(format!("s{}", s % 5))),
        Value::Int64(id as i64),
    ]
}

/// A probe value for `column` from a raw draw: in-domain values of
/// the column's own type, the same number in another numeric type,
/// NULL, values outside every zone map, and a value of a type that
/// can never be equal.
fn probe(column: usize, draw: u8) -> Value {
    let v = draw % 6;
    match (column, draw / 6 % 7) {
        (_, 0) => Value::Null,
        (0, 1) => Value::Int64(i64::from(v)),
        (0, 2) => Value::Float64(f64::from(v)),
        (0, 3) => Value::Int64(1_000 + i64::from(v)),
        (0, _) => Value::Int32(i32::from(v)),
        (1, 1) => Value::Float64(f64::NAN),
        (1, 2) => Value::Float64(-0.0),
        (1, 3) => Value::Int64(i64::from(v)),
        (1, 4) => Value::Float64(-7.5),
        (1, _) => Value::Float64(f64::from(v) / 2.0),
        (2, 1) => Value::Int64(i64::from(v)),
        (2, 2) => Value::Utf8("zz".into()),
        (2, _) => Value::Utf8(format!("s{}", v % 5)),
        (_, 1) => Value::Int64(-1),
        (_, _) => Value::Int64(i64::from(draw)),
    }
}

const KEY_SETS: [&[usize]; 7] = [&[0], &[1], &[2], &[3], &[0, 2], &[1, 0], &[2, 2]];
const PROJECTIONS: [&[usize]; 5] = [&[], &[3], &[3, 0], &[2, 1, 0, 3], &[1]];

/// What the columnar adapter did before the keyed probe existed.
fn repeated_scans(
    store: &ColumnStore,
    key_columns: &[usize],
    keys: &[Vec<Value>],
    projection: &[usize],
) -> Batch {
    let mut parts = Vec::new();
    let mut seen = HashSet::new();
    for key in keys {
        if !seen.insert(key.clone()) || key.iter().any(Value::is_null) {
            continue;
        }
        let preds: Vec<ScanPredicate> = key_columns
            .iter()
            .zip(key)
            .map(|(&c, v)| ScanPredicate::new(c, CmpOp::Eq, v.clone()))
            .collect();
        let (batch, _) = store.scan_sealed(&preds, projection, None).expect("scan");
        parts.push(batch);
    }
    let out_schema = if projection.is_empty() {
        store.schema().clone()
    } else {
        store.schema().project(projection).into_ref()
    };
    Batch::concat(out_schema, &parts).expect("concat")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn keyed_lookup_equals_repeated_eq_scans_rows_and_order(
        cells in pvec((any::<u8>(), any::<u8>(), any::<u8>()), 0..160),
        segment_rows in 1usize..48,
        shape in any::<u8>(),
        key_draws in pvec((any::<u8>(), any::<u8>()), 0..24),
    ) {
        let mut rows: Vec<Vec<Value>> =
            cells.iter().enumerate().map(|(id, &c)| row(id, c)).collect();
        // Sorted data run-length-encodes and gives tight zone maps;
        // unsorted data leaves every zone wide open.
        if shape & 1 == 0 {
            rows.sort_by(|x, y| x[0].cmp(&y[0]));
        }
        let mut store = ColumnStore::with_segment_rows("t", schema(), segment_rows);
        store.append_many(rows).expect("append");
        // Sometimes leave the tail unsealed: a sealed-only read must
        // not see it on either path.
        if shape & 2 == 0 {
            store.seal().expect("seal");
        }
        let key_columns = KEY_SETS[usize::from(shape / 4) % KEY_SETS.len()];
        let projection = PROJECTIONS[usize::from(shape / 32) % PROJECTIONS.len()];
        let keys: Vec<Vec<Value>> = key_draws
            .iter()
            .map(|&(x, y)| {
                key_columns
                    .iter()
                    .zip([x, y])
                    .map(|(&c, draw)| probe(c, draw))
                    .collect()
            })
            .collect();

        let want = repeated_scans(&store, key_columns, &keys, projection);
        let (got, metrics) = store
            .lookup_sealed(key_columns, &keys, projection)
            .expect("lookup");
        prop_assert_eq!(got.schema(), want.schema());
        // `Value` equality is `total_cmp` equality: NaN == NaN and
        // -0.0 != 0.0, so this compares bit patterns, and order.
        prop_assert_eq!(got.to_rows(), want.to_rows());
        prop_assert_eq!(
            metrics.segments_pruned + metrics.segments_scanned,
            store.segment_count()
        );
    }

    #[test]
    fn column_at_a_time_bloom_filter_equals_the_row_reference(
        cells in pvec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
        inserted in pvec(any::<u8>(), 0..40),
        shape in any::<u8>(),
    ) {
        let rows: Vec<Vec<Value>> =
            cells.iter().enumerate().map(|(id, &c)| row(id, c)).collect();
        let key_columns = KEY_SETS[usize::from(shape) % KEY_SETS.len()].to_vec();
        let projection = PROJECTIONS[usize::from(shape / 8) % PROJECTIONS.len()].to_vec();
        // The filter holds the keys of some of the rows (so there are
        // true positives to lose) — whatever else it lets through is
        // a false positive both evaluations must agree on.
        let mut bloom = KeyBloom::sized_for(inserted.len().max(1), 0.05);
        let mut members: HashSet<i64> = HashSet::new();
        for pick in &inserted {
            if rows.is_empty() {
                break;
            }
            let r = &rows[usize::from(*pick) % rows.len()];
            let key: Vec<Value> = key_columns.iter().map(|&c| r[c].clone()).collect();
            if !key.iter().any(Value::is_null) {
                bloom.insert(KeyBloom::hash_key(&key));
                for other in &rows {
                    if key_columns.iter().zip(&key).all(|(&c, k)| other[c] == *k) {
                        if let Value::Int64(id) = other[3] {
                            members.insert(id);
                        }
                    }
                }
            }
        }
        // The row-at-a-time evaluation this replaced.
        let ords: Vec<usize> = if projection.is_empty() {
            (0..4).collect()
        } else {
            projection.clone()
        };
        let want: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| {
                let key: Vec<Value> = key_columns.iter().map(|&c| r[c].clone()).collect();
                !key.iter().any(Value::is_null) && bloom.contains(KeyBloom::hash_key(&key))
            })
            .map(|r| ords.iter().map(|&c| r[c].clone()).collect())
            .collect();

        let columnar = ColumnarAdapter::new("col");
        columnar.add_table(ColumnStore::with_segment_rows("t", schema(), 16));
        columnar.load("t", rows.clone()).expect("load");
        let relational = RelationalAdapter::new("rel");
        relational.add_table(RowStore::new("t", schema(), None).expect("row store"));
        relational.load("t", rows.clone()).expect("load");
        let request = SourceRequest::LookupFilter {
            table: "t".into(),
            key_columns: key_columns.clone(),
            bloom,
            projection: projection.clone(),
        };
        let adapters: [&dyn SourceAdapter; 2] = [&columnar, &relational];
        for adapter in adapters {
            let batches = adapter.execute(&request).expect("filter");
            prop_assert_eq!(batches.len(), 1);
            let got = &batches[0];
            prop_assert_eq!(
                got.schema(),
                &request.output_schema(&schema()).expect("schema"),
                "{}",
                adapter.kind()
            );
            prop_assert_eq!(got.to_rows(), want.clone(), "{}", adapter.kind());
            // No false negatives: every row whose key went into the
            // filter came back (checked where `id` is projected).
            if let Some(pos) = ords.iter().position(|&c| c == 3) {
                let ids: HashSet<i64> = got
                    .column(pos)
                    .iter_values()
                    .filter_map(|v| v.as_i64().ok().flatten())
                    .collect();
                prop_assert!(members.is_subset(&ids), "{}", adapter.kind());
            }
        }
    }
}

#[test]
fn lookup_rejects_malformed_requests_and_answers_empty_ones() {
    let mut store = ColumnStore::with_segment_rows("t", schema(), 4);
    store
        .append_many((0..10).map(|id| row(id, (id as u8, id as u8, id as u8))))
        .expect("append");
    store.seal().expect("seal");
    // No keys, or only NULL keys: an empty batch of the right shape.
    for keys in [vec![], vec![vec![Value::Null]]] {
        let (batch, _) = store.lookup_sealed(&[0], &keys, &[3]).expect("lookup");
        assert_eq!(batch.num_rows(), 0);
        assert_eq!(batch.schema().field(0).name, "id");
    }
    // A key narrower than the key columns, and ordinals out of range.
    assert!(store
        .lookup_sealed(&[0, 2], &[vec![Value::Int32(1)]], &[])
        .is_err());
    assert!(store
        .lookup_sealed(&[9], &[vec![Value::Int32(1)]], &[])
        .is_err());
    assert!(store
        .lookup_sealed(&[0], &[vec![Value::Int32(1)]], &[9])
        .is_err());
}
