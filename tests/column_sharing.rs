//! Data-plane ownership: a column is a shared immutable buffer.
//!
//! Handing a column on — `clone`, projection, `hstack`, re-stamping a
//! schema, an identity cast or transform, a one-part concat — must
//! share its buffers (reference counts, not copies), and the
//! operations that compute new cells — `take`, `filter`, `slice`,
//! multi-part `concat`, a real cast — must return buffers of their
//! own, whatever the indices. A builder never lets go of a buffer it
//! could still write to.

use gis::catalog::Transform;
use gis::types::{Array, ArrayBuilder, Batch, DataType, Field, Schema, SchemaRef, Value};
use std::sync::Arc;

/// True when both halves (values and validity) of two arrays are the
/// same allocations.
fn shares(a: &Array, b: &Array) -> bool {
    use Array::*;
    match (a, b) {
        (Boolean(x, m), Boolean(y, n)) => Arc::ptr_eq(x, y) && Arc::ptr_eq(m, n),
        (Int32(x, m), Int32(y, n)) | (Date(x, m), Date(y, n)) => {
            Arc::ptr_eq(x, y) && Arc::ptr_eq(m, n)
        }
        (Int64(x, m), Int64(y, n)) | (Timestamp(x, m), Timestamp(y, n)) => {
            Arc::ptr_eq(x, y) && Arc::ptr_eq(m, n)
        }
        (Float64(x, m), Float64(y, n)) => Arc::ptr_eq(x, y) && Arc::ptr_eq(m, n),
        (Utf8(x, m), Utf8(y, n)) => Arc::ptr_eq(x, y) && Arc::ptr_eq(m, n),
        _ => false,
    }
}

/// True when the two arrays have no allocation in common.
fn disjoint(a: &Array, b: &Array) -> bool {
    let values = |x: &Array| -> *const () {
        match x {
            Array::Boolean(v, _) => Arc::as_ptr(v).cast(),
            Array::Int32(v, _) | Array::Date(v, _) => Arc::as_ptr(v).cast(),
            Array::Int64(v, _) | Array::Timestamp(v, _) => Arc::as_ptr(v).cast(),
            Array::Float64(v, _) => Arc::as_ptr(v).cast(),
            Array::Utf8(v, _) => Arc::as_ptr(v).cast(),
        }
    };
    values(a) != values(b) && !std::ptr::eq(a.validity(), b.validity())
}

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("score", DataType::Float64),
    ])
    .into_ref()
}

fn sample() -> Batch {
    let rows: Vec<Vec<Value>> = (0..20i64)
        .map(|i| {
            vec![
                Value::Int64(i),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Utf8(format!("n{i}"))
                },
                Value::Float64(i as f64 / 4.0),
            ]
        })
        .collect();
    Batch::from_rows(schema(), &rows).unwrap()
}

#[test]
fn handing_a_column_on_shares_its_buffers() {
    let batch = sample();
    for c in 0..batch.num_columns() {
        let col = batch.column(c);
        assert!(shares(col, &col.clone()), "Array::clone, column {c}");
        assert!(
            shares(col, &col.cast_to(col.data_type()).unwrap()),
            "identity cast, column {c}"
        );
        assert!(
            shares(col, &Transform::Identity.apply_array(col).unwrap()),
            "identity transform, column {c}"
        );
        assert!(
            shares(col, &Array::concat(std::slice::from_ref(col)).unwrap()),
            "one-part Array::concat, column {c}"
        );
    }
    let projected = batch.project(&[2, 0]).unwrap();
    assert!(shares(projected.column(0), batch.column(2)));
    assert!(shares(projected.column(1), batch.column(0)));
    let stacked = batch.hstack(&projected).unwrap();
    assert!(shares(stacked.column(1), batch.column(1)));
    assert!(shares(stacked.column(3), batch.column(2)));
    let renamed = Schema::new(
        schema()
            .fields()
            .iter()
            .map(|f| Field::new(format!("x_{}", f.name), f.data_type))
            .collect(),
    )
    .into_ref();
    let restamped = batch.with_schema(renamed.clone()).unwrap();
    assert_eq!(restamped.schema(), &renamed);
    let one_part = Batch::concat(renamed, std::slice::from_ref(&batch)).unwrap();
    for c in 0..batch.num_columns() {
        assert!(shares(batch.column(c), &batch.clone().columns()[c]));
        assert!(shares(batch.column(c), restamped.column(c)));
        assert!(shares(batch.column(c), one_part.column(c)));
    }
    // Re-stamping still validates shape.
    assert!(batch
        .with_schema(Schema::new(vec![Field::new("only", DataType::Int64)]).into_ref())
        .is_err());
}

#[test]
fn computing_new_cells_never_aliases_the_input() {
    let batch = sample();
    let n = batch.num_rows();
    let identity: Vec<usize> = (0..n).collect();
    for c in 0..batch.num_columns() {
        let col = batch.column(c);
        // Even the gathers that reproduce the input cell for cell.
        let outputs = [
            ("take", col.take(&identity)),
            ("filter", col.filter(&vec![true; n])),
            ("slice", col.slice(0, n)),
            (
                "concat",
                Array::concat(&[col.clone(), col.slice(0, 0)]).unwrap(),
            ),
        ];
        for (what, out) in &outputs {
            assert_eq!(out, col, "{what}, column {c}");
            assert!(disjoint(out, col), "{what} aliases column {c}");
        }
        let doubled = Array::concat(&[col.clone(), col.clone()]).unwrap();
        assert_eq!(doubled.len(), 2 * n);
        assert!(disjoint(&doubled, col));
    }
    let widened = batch.column(0).cast_to(DataType::Float64).unwrap();
    assert_eq!(widened.value_at(3), Value::Float64(3.0));
    // The input is untouched by all of the above.
    assert_eq!(batch, sample());
}

#[test]
fn a_finished_array_is_the_only_owner_of_its_buffers() {
    let mut b = ArrayBuilder::with_capacity(DataType::Utf8, 4);
    b.push_value(&Value::Utf8("a".into())).unwrap();
    b.push_null();
    // `finish` consumes the builder, so no handle that could still
    // push survives it; the counts show nothing else kept one either.
    let a = b.finish();
    let Array::Utf8(values, validity) = &a else {
        panic!("builder changed type");
    };
    assert_eq!(Arc::strong_count(values), 1);
    assert_eq!(Arc::strong_count(validity), 1);
    // A second array from a fresh builder shares nothing with it.
    let mut b2 = ArrayBuilder::new(DataType::Utf8);
    b2.push_value(&Value::Utf8("a".into())).unwrap();
    b2.push_null();
    let a2 = b2.finish();
    assert_eq!(a, a2);
    assert!(disjoint(&a, &a2));
    // Sharing is visible in the counts, and ends with the clone.
    let shared = a.clone();
    assert_eq!(Arc::strong_count(values), 2);
    drop(shared);
    assert_eq!(Arc::strong_count(values), 1);
}
