//! The relational adapter: wraps a set of [`RowStore`] tables.
//!
//! Models a full SQL component system (the DB2/Oracle of the
//! federation): filters, projections, sorts, limits, grouped
//! aggregates and parameterized lookups all run at the source, using
//! the row store's own access-path selection.

use crate::local_exec::{hash_aggregate, limit_batch, sort_batch};
use crate::request::{SourceAdapter, SourceRequest};
use gis_catalog::CapabilityProfile;
use gis_net::KeyBloom;
use gis_storage::{CmpOp, RowStore, ScanPredicate, TableStats};
use gis_types::{Array, Batch, GisError, Result, SchemaRef, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// A full-SQL component system backed by row stores.
pub struct RelationalAdapter {
    name: String,
    tables: RwLock<BTreeMap<String, RowStore>>,
    data_version: std::sync::atomic::AtomicU64,
}

impl RelationalAdapter {
    /// An empty source named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        RelationalAdapter {
            name: name.into(),
            tables: RwLock::new(BTreeMap::new()),
            data_version: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&self, store: RowStore) {
        let key = store.name().to_ascii_lowercase();
        self.tables.write().insert(key, store);
        self.bump_data_version();
    }

    /// Runs `f` with mutable access to a table (loading, index DDL).
    pub fn with_table_mut<T>(
        &self,
        table: &str,
        f: impl FnOnce(&mut RowStore) -> Result<T>,
    ) -> Result<T> {
        let mut tables = self.tables.write();
        let store = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| self.no_table(table))?;
        let out = f(store);
        drop(tables);
        // Mutable access is assumed to have mutated: loads and index
        // DDL both change what a cached result would return.
        self.bump_data_version();
        out
    }

    /// Inserts rows into a table.
    pub fn load(&self, table: &str, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<usize> {
        self.with_table_mut(table, |t| t.insert_many(rows))
    }

    fn bump_data_version(&self) {
        self.data_version
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    fn no_table(&self, table: &str) -> GisError {
        GisError::Storage(format!("source '{}' has no table '{table}'", self.name))
    }
}

impl SourceAdapter for RelationalAdapter {
    fn name(&self) -> &str {
        &self.name
    }

    fn data_version(&self) -> u64 {
        self.data_version.load(std::sync::atomic::Ordering::Acquire)
    }

    fn kind(&self) -> &'static str {
        "relational"
    }

    fn capabilities(&self) -> CapabilityProfile {
        CapabilityProfile::full_sql()
    }

    fn tables(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    fn table_schema(&self, table: &str) -> Result<SchemaRef> {
        let tables = self.tables.read();
        tables
            .get(&table.to_ascii_lowercase())
            .map(|t| t.schema().clone())
            .ok_or_else(|| self.no_table(table))
    }

    fn collect_stats(&self, table: &str) -> Result<TableStats> {
        let tables = self.tables.read();
        tables
            .get(&table.to_ascii_lowercase())
            .map(RowStore::collect_stats)
            .ok_or_else(|| self.no_table(table))
    }

    fn execute(&self, request: &SourceRequest) -> Result<Vec<Batch>> {
        request.check_capabilities(&self.capabilities())?;
        let tables = self.tables.read();
        // Co-located join: both tables live here; join locally and
        // ship only the result.
        if let SourceRequest::Join {
            left_table,
            right_table,
            left_keys,
            right_keys,
            left_predicates,
            right_predicates,
            left_projection,
            right_projection,
        } = request
        {
            let left_store = tables
                .get(&left_table.to_ascii_lowercase())
                .ok_or_else(|| self.no_table(left_table))?;
            let right_store = tables
                .get(&right_table.to_ascii_lowercase())
                .ok_or_else(|| self.no_table(right_table))?;
            let left = left_store.scan(left_predicates, &[], None)?.batch;
            let right = right_store.scan(right_predicates, &[], None)?.batch;
            let joined = crate::local_exec::inner_hash_join(&left, &right, left_keys, right_keys)?;
            // Project to the requested columns of each side.
            let left_width = left_store.schema().len();
            let mut ords: Vec<usize> = if left_projection.is_empty() {
                (0..left_width).collect()
            } else {
                left_projection.clone()
            };
            let right_ords: Vec<usize> = if right_projection.is_empty() {
                (0..right_store.schema().len()).collect()
            } else {
                right_projection.clone()
            };
            ords.extend(right_ords.iter().map(|&o| left_width + o));
            let projected = joined.project(&ords)?;
            let out_schema =
                request.join_output_schema(left_store.schema(), right_store.schema())?;
            return Ok(vec![projected.with_schema(out_schema)?]);
        }
        let store = tables
            .get(&request.table().to_ascii_lowercase())
            .ok_or_else(|| self.no_table(request.table()))?;
        match request {
            SourceRequest::Scan {
                predicates,
                projection,
                sort,
                limit,
                ..
            } => {
                // A sort invalidates early limiting inside the scan.
                let scan_limit = if sort.is_empty() {
                    limit.map(|l| l as usize)
                } else {
                    None
                };
                let batch = store.scan(predicates, projection, scan_limit)?.batch;
                Ok(vec![if sort.is_empty() {
                    limit_batch(batch, *limit)
                } else {
                    sort_batch(&batch, sort, *limit)
                }])
            }
            SourceRequest::Aggregate {
                predicates,
                group_by,
                aggregates,
                ..
            } => {
                let input = store.scan(predicates, &[], None)?.batch;
                let out_schema = request.output_schema(store.schema())?;
                let out = hash_aggregate(&[input], group_by, aggregates, out_schema)?;
                Ok(vec![out])
            }
            SourceRequest::Join { .. } => unreachable!("handled above"),
            SourceRequest::Lookup {
                key_columns,
                keys,
                projection,
                ..
            } => {
                let mut parts = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for key in keys {
                    if key.len() != key_columns.len() {
                        return Err(GisError::Internal("lookup key width mismatch".into()));
                    }
                    if !seen.insert(key.clone()) {
                        continue; // duplicate key tuples fetched once
                    }
                    if key.iter().any(Value::is_null) {
                        continue; // NULL keys match nothing
                    }
                    let preds: Vec<ScanPredicate> = key_columns
                        .iter()
                        .zip(key)
                        .map(|(&c, v)| ScanPredicate::new(c, CmpOp::Eq, v.clone()))
                        .collect();
                    let r = store.scan(&preds, projection, None)?;
                    if r.batch.num_rows() > 0 {
                        parts.push(r.batch);
                    }
                }
                let out_schema = request.output_schema(store.schema())?;
                Ok(vec![Batch::concat(out_schema, &parts)?])
            }
            SourceRequest::LookupFilter {
                key_columns,
                bloom,
                projection,
                ..
            } => filter_by_bloom(store.schema(), key_columns, bloom, projection, |columns| {
                Ok(store.scan(&[], columns, None)?.batch)
            }),
        }
    }
}

/// Shared semijoin-filter evaluation: keep rows whose key tuple may
/// be in the Bloom filter (NULL keys match nothing, like `Lookup`),
/// then project. Used by every adapter whose profile advertises
/// `filter_lookup`.
///
/// Works a column at a time: `scan` is asked for the key and projected
/// columns only (ascending table ordinals, no predicates), the key
/// columns are hashed into one `u64` per row exactly as
/// [`KeyBloom::hash_key`] would hash the row's key tuple, and one keep
/// mask filters the projected columns.
pub(crate) fn filter_by_bloom(
    table: &SchemaRef,
    key_columns: &[usize],
    bloom: &KeyBloom,
    projection: &[usize],
    scan: impl FnOnce(&[usize]) -> Result<Batch>,
) -> Result<Vec<Batch>> {
    let width = table.len();
    if let Some(c) = key_columns.iter().find(|&&c| c >= width) {
        return Err(GisError::Internal(format!(
            "filter key ordinal {c} out of range for {width}-column table"
        )));
    }
    let mut needed: Vec<usize> = if projection.is_empty() {
        (0..width).collect()
    } else {
        projection.iter().chain(key_columns).copied().collect()
    };
    needed.sort_unstable();
    needed.dedup();
    let scanned = scan(&needed)?;
    let at = |c: usize| {
        needed
            .binary_search(&c)
            .map_err(|_| GisError::Internal(format!("filter scan is missing column {c}")))
    };
    let keys: Vec<&Array> = key_columns
        .iter()
        .map(|&c| Ok(scanned.column(at(c)?)))
        .collect::<Result<_>>()?;
    let keep: Vec<bool> = KeyBloom::hash_columns(&keys)
        .iter()
        .enumerate()
        .map(|(r, &h)| keys.iter().all(|k| k.is_valid(r)) && bloom.contains(h))
        .collect();
    let output: Vec<usize> = if projection.is_empty() {
        (0..width).collect()
    } else {
        projection.iter().map(|&c| at(c)).collect::<Result<_>>()?
    };
    Ok(vec![scanned.project(&output)?.filter(&keep)?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AggFunc, AggSpec, SortSpec};
    use gis_types::{DataType, Field, Schema};

    fn adapter() -> RelationalAdapter {
        let a = RelationalAdapter::new("crm");
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("region", DataType::Utf8),
            Field::new("balance", DataType::Float64),
        ])
        .into_ref();
        a.add_table(RowStore::new("customers", schema, Some(0)).unwrap());
        a.load(
            "customers",
            (0..50i64).map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Utf8(if i % 2 == 0 { "east" } else { "west" }.into()),
                    Value::Float64(i as f64),
                ]
            }),
        )
        .unwrap();
        a
    }

    #[test]
    fn metadata() {
        let a = adapter();
        assert_eq!(a.tables(), vec!["customers"]);
        assert_eq!(a.table_schema("customers").unwrap().len(), 3);
        assert!(a.table_schema("nope").is_err());
        let stats = a.collect_stats("customers").unwrap();
        assert_eq!(stats.row_count, 50);
    }

    #[test]
    fn scan_with_sort_and_limit() {
        let a = adapter();
        let req = SourceRequest::Scan {
            table: "customers".into(),
            predicates: vec![ScanPredicate::new(1, CmpOp::Eq, Value::Utf8("east".into()))],
            projection: vec![0, 2],
            sort: vec![SortSpec {
                column: 1, // post-projection ordinal: balance
                asc: false,
                nulls_first: false,
            }],
            limit: Some(3),
        };
        let batches = a.execute(&req).unwrap();
        assert_eq!(batches.len(), 1);
        let b = &batches[0];
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row_values(0)[1], Value::Float64(48.0));
        assert_eq!(b.row_values(1)[1], Value::Float64(46.0));
    }

    #[test]
    fn aggregate_pushdown() {
        let a = adapter();
        let req = SourceRequest::Aggregate {
            table: "customers".into(),
            predicates: vec![],
            group_by: vec![1],
            aggregates: vec![
                AggSpec {
                    func: AggFunc::Count,
                    column: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    column: Some(2),
                },
            ],
        };
        let b = &a.execute(&req).unwrap()[0];
        assert_eq!(b.num_rows(), 2);
        let east = b
            .to_rows()
            .into_iter()
            .find(|r| r[0] == Value::Utf8("east".into()))
            .unwrap();
        assert_eq!(east[1], Value::Int64(25));
        assert_eq!(
            east[2],
            Value::Float64((0..50).step_by(2).sum::<i64>() as f64)
        );
    }

    #[test]
    fn lookup_dedups_and_skips_nulls() {
        let a = adapter();
        let req = SourceRequest::Lookup {
            table: "customers".into(),
            key_columns: vec![0],
            keys: vec![
                vec![Value::Int64(7)],
                vec![Value::Int64(7)],
                vec![Value::Null],
                vec![Value::Int64(999)],
                vec![Value::Int64(3)],
            ],
            projection: vec![0],
        };
        let b = &a.execute(&req).unwrap()[0];
        assert_eq!(b.num_rows(), 2);
        let mut ids: Vec<Value> = b.column(0).iter_values().collect();
        ids.sort();
        assert_eq!(ids, vec![Value::Int64(3), Value::Int64(7)]);
    }

    #[test]
    fn unknown_table_errors() {
        let a = adapter();
        let req = SourceRequest::Scan {
            table: "ghost".into(),
            predicates: vec![],
            projection: vec![],
            sort: vec![],
            limit: None,
        };
        assert!(a.execute(&req).is_err());
    }

    #[test]
    fn default_pushable_predicates_accept_everything() {
        let a = adapter();
        let preds = vec![
            ScanPredicate::new(0, CmpOp::Eq, Value::Int64(1)),
            ScanPredicate::new(2, CmpOp::Lt, Value::Float64(5.0)),
        ];
        assert_eq!(a.pushable_predicates("customers", &preds), vec![true, true]);
    }
}
