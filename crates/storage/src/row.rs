//! The row store: an OLTP-style component engine.
//!
//! Tuples live in a heap with tombstones; a B-tree primary-key index
//! and optional secondary B-tree indexes provide point and range
//! access paths. `scan` chooses its own access path from the pushed
//! predicates (index equality, index range, or full scan) — the
//! engine is autonomous; the mediator only sees which predicates it
//! *accepted* and how many rows came back.

use crate::predicate::{CmpOp, ScanPredicate};
use crate::stats::{StatsCollector, TableStats};
use gis_types::{ArrayBuilder, Batch, GisError, Result, SchemaRef, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// Result of a scan: the matching rows plus how many tuples the
/// engine had to examine (shows access-path quality in experiments).
#[derive(Debug)]
pub struct ScanResult {
    /// Matching rows, projected.
    pub batch: Batch,
    /// Tuples examined to produce the batch.
    pub rows_examined: usize,
    /// Which access path the engine chose.
    pub access_path: AccessPath,
}

/// Access path chosen by the row store for a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Full heap scan.
    FullScan,
    /// Primary-key point/range access.
    Primary,
    /// Secondary index on the named column.
    Secondary(String),
}

/// An OLTP-style row store with B-tree indexes.
#[derive(Debug)]
pub struct RowStore {
    name: String,
    schema: SchemaRef,
    pk_column: Option<usize>,
    rows: Vec<Option<Vec<Value>>>,
    primary: BTreeMap<Value, usize>,
    secondary: HashMap<usize, BTreeMap<Value, Vec<usize>>>,
    live: usize,
}

impl RowStore {
    /// Creates an empty table. `pk_column` (if given) must be a
    /// non-nullable column; inserts enforce uniqueness on it.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        pk_column: Option<usize>,
    ) -> Result<Self> {
        if let Some(pk) = pk_column {
            if pk >= schema.len() {
                return Err(GisError::Storage(format!(
                    "primary key ordinal {pk} out of range"
                )));
            }
        }
        Ok(RowStore {
            name: name.into(),
            schema,
            pk_column,
            rows: Vec::new(),
            primary: BTreeMap::new(),
            secondary: HashMap::new(),
            live: 0,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Declares a secondary index on `column`, indexing existing rows.
    pub fn create_index(&mut self, column: usize) -> Result<()> {
        if column >= self.schema.len() {
            return Err(GisError::Storage(format!(
                "index column {column} out of range"
            )));
        }
        let mut index: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (rid, row) in self.rows.iter().enumerate() {
            if let Some(r) = row {
                index.entry(r[column].clone()).or_default().push(rid);
            }
        }
        self.secondary.insert(column, index);
        Ok(())
    }

    /// True when `column` has a secondary index.
    pub fn has_index(&self, column: usize) -> bool {
        self.secondary.contains_key(&column)
    }

    /// Inserts one row (schema-width values, coercion is the caller's
    /// job). Enforces primary-key uniqueness and non-null.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(GisError::Storage(format!(
                "row width {} does not match schema width {}",
                row.len(),
                self.schema.len()
            )));
        }
        if let Some(pk) = self.pk_column {
            let key = &row[pk];
            if key.is_null() {
                return Err(GisError::Storage(format!(
                    "NULL primary key in table '{}'",
                    self.name
                )));
            }
            if self.primary.contains_key(key) {
                return Err(GisError::Storage(format!(
                    "duplicate primary key {key} in table '{}'",
                    self.name
                )));
            }
        }
        let rid = self.rows.len();
        if let Some(pk) = self.pk_column {
            self.primary.insert(row[pk].clone(), rid);
        }
        for (&col, index) in self.secondary.iter_mut() {
            index.entry(row[col].clone()).or_default().push(rid);
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(())
    }

    /// Bulk insert.
    pub fn insert_many(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Point lookup by primary key.
    pub fn get(&self, key: &Value) -> Option<&[Value]> {
        let rid = *self.primary.get(key)?;
        self.rows[rid].as_deref()
    }

    /// Deletes by primary key; returns whether a row was removed.
    pub fn delete(&mut self, key: &Value) -> Result<bool> {
        let Some(pk) = self.pk_column else {
            return Err(GisError::Storage(format!(
                "table '{}' has no primary key; delete unsupported",
                self.name
            )));
        };
        let Some(rid) = self.primary.remove(key) else {
            return Ok(false);
        };
        let row = self.rows[rid].take().expect("index points at live row");
        debug_assert_eq!(&row[pk], key);
        for (&col, index) in self.secondary.iter_mut() {
            if let Some(rids) = index.get_mut(&row[col]) {
                rids.retain(|&r| r != rid);
                if rids.is_empty() {
                    index.remove(&row[col]);
                }
            }
        }
        self.live -= 1;
        Ok(true)
    }

    /// Replaces the row with primary key `key`; returns whether a row
    /// was updated.
    pub fn update(&mut self, key: &Value, new_row: Vec<Value>) -> Result<bool> {
        if !self.delete(key)? {
            return Ok(false);
        }
        self.insert(new_row)?;
        Ok(true)
    }

    /// Scans the table with native predicates, projecting `projection`
    /// ordinals (empty = all columns), returning at most `limit` rows
    /// (`None` = unbounded). The engine picks the access path itself.
    pub fn scan(
        &self,
        predicates: &[ScanPredicate],
        projection: &[usize],
        limit: Option<usize>,
    ) -> Result<ScanResult> {
        let (candidates, access_path, prechecked) = self.choose_access_path(predicates);
        let limit = limit.unwrap_or(usize::MAX);
        let mut matched: Vec<&Vec<Value>> = Vec::new();
        let mut examined = 0usize;
        // The index may have already guaranteed some predicates.
        let needs_check: Vec<&ScanPredicate> = predicates
            .iter()
            .enumerate()
            .filter(|(i, _)| !prechecked.contains(i))
            .map(|(_, p)| p)
            .collect();
        for rid in candidates {
            let Some(row) = self.rows[rid].as_ref() else {
                continue;
            };
            examined += 1;
            if needs_check.iter().all(|p| p.matches_row(row)) {
                matched.push(row);
                if matched.len() >= limit {
                    break;
                }
            }
        }
        let out_schema = if projection.is_empty() {
            self.schema.clone()
        } else {
            self.schema.project(projection).into_ref()
        };
        let cols: Vec<usize> = if projection.is_empty() {
            (0..self.schema.len()).collect()
        } else {
            projection.to_vec()
        };
        // Row → column pivot, one builder per projected column: each
        // matched cell is copied once, straight into its column
        // (coerced first only when the stored value is not of the
        // column's type — inserts do not coerce).
        let mut builders: Vec<ArrayBuilder> = out_schema
            .fields()
            .iter()
            .map(|f| ArrayBuilder::with_capacity(f.data_type, matched.len()))
            .collect();
        for row in &matched {
            for (b, &c) in builders.iter_mut().zip(&cols) {
                let v = &row[c];
                if v.is_null() || v.data_type() == b.data_type() {
                    b.push_value(v)?;
                } else {
                    b.push_value(&v.cast_to(b.data_type())?)?;
                }
            }
        }
        let columns = builders.into_iter().map(ArrayBuilder::finish).collect();
        let batch = Batch::try_new(out_schema, columns)?;
        Ok(ScanResult {
            batch,
            rows_examined: examined,
            access_path,
        })
    }

    /// Chooses the cheapest access path for the given predicates.
    /// Returns (candidate row ids, path, indexes of predicates the
    /// path already guarantees).
    fn choose_access_path(
        &self,
        predicates: &[ScanPredicate],
    ) -> (Vec<usize>, AccessPath, Vec<usize>) {
        // 1. Primary-key equality.
        if let Some(pk) = self.pk_column {
            if let Some((i, p)) = predicates
                .iter()
                .enumerate()
                .find(|(_, p)| p.column == pk && p.op == CmpOp::Eq)
            {
                let rids = self
                    .primary
                    .get(&p.value)
                    .map(|&r| vec![r])
                    .unwrap_or_default();
                return (rids, AccessPath::Primary, vec![i]);
            }
        }
        // 2. Secondary-index equality.
        for (i, p) in predicates.iter().enumerate() {
            if p.op == CmpOp::Eq {
                if let Some(index) = self.secondary.get(&p.column) {
                    let rids = index.get(&p.value).cloned().unwrap_or_default();
                    let name = self.schema.field(p.column).name.clone();
                    return (rids, AccessPath::Secondary(name), vec![i]);
                }
            }
        }
        // 3. Primary-key range.
        if let Some(pk) = self.pk_column {
            let range_preds: Vec<(usize, &ScanPredicate)> = predicates
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    p.column == pk
                        && matches!(p.op, CmpOp::Lt | CmpOp::LtEq | CmpOp::Gt | CmpOp::GtEq)
                })
                .collect();
            if !range_preds.is_empty() {
                let (lo, hi) = bounds_of(&range_preds);
                let rids: Vec<usize> = if range_is_empty(&lo, &hi) {
                    vec![]
                } else {
                    self.primary.range((lo, hi)).map(|(_, &rid)| rid).collect()
                };
                let covered = range_preds.iter().map(|(i, _)| *i).collect();
                return (rids, AccessPath::Primary, covered);
            }
        }
        // 4. Secondary-index range.
        for (i, p) in predicates.iter().enumerate() {
            if matches!(p.op, CmpOp::Lt | CmpOp::LtEq | CmpOp::Gt | CmpOp::GtEq) {
                if let Some(index) = self.secondary.get(&p.column) {
                    let (lo, hi) = bounds_of(&[(i, p)]);
                    let rids: Vec<usize> = if range_is_empty(&lo, &hi) {
                        vec![]
                    } else {
                        index
                            .range((lo, hi))
                            .flat_map(|(_, rids)| rids.iter().copied())
                            .collect()
                    };
                    let name = self.schema.field(p.column).name.clone();
                    return (rids, AccessPath::Secondary(name), vec![i]);
                }
            }
        }
        // 5. Full scan.
        ((0..self.rows.len()).collect(), AccessPath::FullScan, vec![])
    }

    /// Collects fresh statistics over live rows.
    pub fn collect_stats(&self) -> TableStats {
        let mut c = StatsCollector::new(self.schema.len());
        for row in self.rows.iter().flatten() {
            c.observe_row(row);
        }
        c.finish()
    }
}

/// True when a `(lo, hi)` bound pair denotes an empty range (the
/// B-tree `range` API panics on inverted bounds).
fn range_is_empty(lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    let (l, l_excl) = match lo {
        Bound::Unbounded => return false,
        Bound::Included(v) => (v, false),
        Bound::Excluded(v) => (v, true),
    };
    let (h, h_excl) = match hi {
        Bound::Unbounded => return false,
        Bound::Included(v) => (v, false),
        Bound::Excluded(v) => (v, true),
    };
    match l.total_cmp(h) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Equal => l_excl || h_excl,
        std::cmp::Ordering::Less => false,
    }
}

/// Converts conjunctive range predicates over one column into B-tree
/// range bounds.
fn bounds_of(preds: &[(usize, &ScanPredicate)]) -> (Bound<Value>, Bound<Value>) {
    let mut lo = Bound::Unbounded;
    let mut hi = Bound::Unbounded;
    for (_, p) in preds {
        match p.op {
            CmpOp::Gt => lo = tighter_low(lo, Bound::Excluded(p.value.clone())),
            CmpOp::GtEq => lo = tighter_low(lo, Bound::Included(p.value.clone())),
            CmpOp::Lt => hi = tighter_high(hi, Bound::Excluded(p.value.clone())),
            CmpOp::LtEq => hi = tighter_high(hi, Bound::Included(p.value.clone())),
            _ => {}
        }
    }
    (lo, hi)
}

fn tighter_low(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.total_cmp(y) {
                std::cmp::Ordering::Less => b,
                std::cmp::Ordering::Greater => a,
                std::cmp::Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn tighter_high(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.total_cmp(y) {
                std::cmp::Ordering::Greater => b,
                std::cmp::Ordering::Less => a,
                std::cmp::Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_types::{DataType, Field, Schema};

    fn store() -> RowStore {
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("city", DataType::Utf8),
            Field::new("balance", DataType::Float64),
        ])
        .into_ref();
        let mut s = RowStore::new("customers", schema, Some(0)).unwrap();
        for i in 0..100i64 {
            s.insert(vec![
                Value::Int64(i),
                Value::Utf8(if i % 10 == 0 { "oslo" } else { "pune" }.into()),
                Value::Float64(i as f64 * 1.5),
            ])
            .unwrap();
        }
        s
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut s = store();
        assert_eq!(s.len(), 100);
        assert_eq!(s.get(&Value::Int64(5)).unwrap()[2], Value::Float64(7.5));
        assert!(s.delete(&Value::Int64(5)).unwrap());
        assert!(!s.delete(&Value::Int64(5)).unwrap());
        assert!(s.get(&Value::Int64(5)).is_none());
        assert_eq!(s.len(), 99);
    }

    #[test]
    fn duplicate_and_null_pk_rejected() {
        let mut s = store();
        assert!(s
            .insert(vec![Value::Int64(1), Value::Null, Value::Null])
            .is_err());
        assert!(s
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .is_err());
    }

    #[test]
    fn pk_point_lookup_examines_one_row() {
        let s = store();
        let r = s
            .scan(
                &[ScanPredicate::new(0, CmpOp::Eq, Value::Int64(42))],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(r.batch.num_rows(), 1);
        assert_eq!(r.rows_examined, 1);
        assert_eq!(r.access_path, AccessPath::Primary);
    }

    #[test]
    fn pk_range_uses_btree() {
        let s = store();
        let r = s
            .scan(
                &[
                    ScanPredicate::new(0, CmpOp::GtEq, Value::Int64(10)),
                    ScanPredicate::new(0, CmpOp::Lt, Value::Int64(20)),
                ],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(r.batch.num_rows(), 10);
        assert_eq!(r.rows_examined, 10);
        assert_eq!(r.access_path, AccessPath::Primary);
    }

    #[test]
    fn secondary_index_equality() {
        let mut s = store();
        s.create_index(1).unwrap();
        let r = s
            .scan(
                &[ScanPredicate::new(1, CmpOp::Eq, Value::Utf8("oslo".into()))],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(r.batch.num_rows(), 10);
        assert_eq!(r.rows_examined, 10);
        assert_eq!(r.access_path, AccessPath::Secondary("city".into()));
    }

    #[test]
    fn full_scan_without_usable_index() {
        let s = store();
        let r = s
            .scan(
                &[ScanPredicate::new(1, CmpOp::Eq, Value::Utf8("oslo".into()))],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(r.batch.num_rows(), 10);
        assert_eq!(r.rows_examined, 100);
        assert_eq!(r.access_path, AccessPath::FullScan);
    }

    #[test]
    fn projection_and_limit() {
        let s = store();
        let r = s.scan(&[], &[2, 0], Some(5)).unwrap();
        assert_eq!(r.batch.num_rows(), 5);
        assert_eq!(r.batch.num_columns(), 2);
        assert_eq!(r.batch.schema().field(0).name, "balance");
    }

    /// Inserts do not coerce, so a scan meets cells that are not of
    /// their column's type: it casts those on the way into the column
    /// and rejects the ones that cannot be.
    #[test]
    fn scan_coerces_stored_values_to_the_schema() {
        let mut s = store();
        s.insert(vec![Value::Int32(500), Value::Null, Value::Int64(7)])
            .unwrap();
        let r = s
            .scan(
                &[ScanPredicate::new(0, CmpOp::Eq, Value::Int64(500))],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(
            format!("{:?}", r.batch.to_rows()),
            format!(
                "{:?}",
                vec![vec![Value::Int64(500), Value::Null, Value::Float64(7.0)]]
            )
        );
        s.insert(vec![
            Value::Int64(501),
            Value::Null,
            Value::Utf8("n/a".into()),
        ])
        .unwrap();
        assert!(s.scan(&[], &[2], None).is_err());
    }

    #[test]
    fn update_replaces_and_reindexes() {
        let mut s = store();
        s.create_index(1).unwrap();
        assert!(s
            .update(
                &Value::Int64(3),
                vec![
                    Value::Int64(3),
                    Value::Utf8("oslo".into()),
                    Value::Float64(0.0)
                ],
            )
            .unwrap());
        let r = s
            .scan(
                &[ScanPredicate::new(1, CmpOp::Eq, Value::Utf8("oslo".into()))],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(r.batch.num_rows(), 11);
        assert!(!s
            .update(
                &Value::Int64(999),
                vec![Value::Int64(999), Value::Null, Value::Null]
            )
            .unwrap());
    }

    #[test]
    fn deleted_rows_skipped_by_scan() {
        let mut s = store();
        s.delete(&Value::Int64(0)).unwrap();
        let r = s.scan(&[], &[], None).unwrap();
        assert_eq!(r.batch.num_rows(), 99);
    }

    #[test]
    fn stats_reflect_live_rows() {
        let mut s = store();
        s.delete(&Value::Int64(99)).unwrap();
        let stats = s.collect_stats();
        assert_eq!(stats.row_count, 99);
        assert_eq!(stats.columns[0].max, Some(Value::Int64(98)));
        assert!(stats.columns[1].ndv <= 2);
    }

    #[test]
    fn conflicting_range_is_empty() {
        let s = store();
        let r = s
            .scan(
                &[
                    ScanPredicate::new(0, CmpOp::Gt, Value::Int64(50)),
                    ScanPredicate::new(0, CmpOp::Lt, Value::Int64(10)),
                ],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(r.batch.num_rows(), 0);
    }
}
