//! The columnar adapter: wraps a set of [`ColumnStore`] tables.
//!
//! Models a scan-oriented analytics engine: filters (accelerated by
//! zone maps), projections and limits execute at the source, but
//! joins, aggregates and sorts do not — the mediator must do those.
//! A parameterized lookup is one keyed pass over the table
//! ([`ColumnStore::lookup_sealed`]): zone maps skip the segments no
//! key can be in, and only the key columns of the rest are decoded
//! until a row hits. A shipped Bloom filter is evaluated column at a
//! time over the key and projected columns only.

use crate::request::{SourceAdapter, SourceRequest};
use gis_catalog::CapabilityProfile;
use gis_storage::{ColumnStore, TableStats};
use gis_types::{Batch, GisError, Result, SchemaRef, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// A scan-only analytics component system backed by column stores.
pub struct ColumnarAdapter {
    name: String,
    tables: RwLock<BTreeMap<String, ColumnStore>>,
    data_version: std::sync::atomic::AtomicU64,
}

impl ColumnarAdapter {
    /// An empty source named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ColumnarAdapter {
            name: name.into(),
            tables: RwLock::new(BTreeMap::new()),
            data_version: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&self, store: ColumnStore) {
        let key = store.name().to_ascii_lowercase();
        self.tables.write().insert(key, store);
        self.bump_data_version();
    }

    /// Appends rows to a table.
    pub fn load(&self, table: &str, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<usize> {
        let mut tables = self.tables.write();
        let store = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| self.no_table(table))?;
        let n = store.append_many(rows)?;
        drop(tables);
        self.bump_data_version();
        Ok(n)
    }

    fn bump_data_version(&self) {
        self.data_version
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    fn no_table(&self, table: &str) -> GisError {
        GisError::Storage(format!("source '{}' has no table '{table}'", self.name))
    }
}

impl SourceAdapter for ColumnarAdapter {
    fn name(&self) -> &str {
        &self.name
    }

    fn data_version(&self) -> u64 {
        self.data_version.load(std::sync::atomic::Ordering::Acquire)
    }

    fn kind(&self) -> &'static str {
        "columnar"
    }

    fn capabilities(&self) -> CapabilityProfile {
        CapabilityProfile::scan_only()
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
        let mut tables = self.tables.write();
        tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| self.no_table(table))?
            .collect_stats()
    }

    fn collect_stats_sampled(
        &self,
        table: &str,
        spec: &gis_stats::SampleSpec,
    ) -> Result<TableStats> {
        let mut tables = self.tables.write();
        tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| self.no_table(table))?
            .collect_stats_sampled(spec)
    }

    fn execute(&self, request: &SourceRequest) -> Result<Vec<Batch>> {
        request.check_capabilities(&self.capabilities())?;
        let key = request.table().to_ascii_lowercase();
        // Seal any append buffer under a short exclusive lock, then
        // scan under shared access — concurrent queries against one
        // column store must not serialize on a write lock.
        {
            let tables = self.tables.read();
            let store = tables
                .get(&key)
                .ok_or_else(|| self.no_table(request.table()))?;
            if store.unsealed_rows() > 0 {
                drop(tables);
                let mut tables = self.tables.write();
                if let Some(store) = tables.get_mut(&key) {
                    store.seal()?;
                }
            }
        }
        let tables = self.tables.read();
        let store = tables
            .get(&key)
            .ok_or_else(|| self.no_table(request.table()))?;
        match request {
            SourceRequest::Scan {
                predicates,
                projection,
                limit,
                ..
            } => {
                let (batch, _metrics) =
                    store.scan_sealed(predicates, projection, limit.map(|l| l as usize))?;
                Ok(vec![batch])
            }
            SourceRequest::Aggregate { .. } => Err(GisError::Unsupported(format!(
                "columnar source '{}' cannot aggregate",
                self.name
            ))),
            SourceRequest::Join { .. } => Err(GisError::Unsupported(format!(
                "columnar source '{}' cannot join",
                self.name
            ))),
            SourceRequest::Lookup {
                key_columns,
                keys,
                projection,
                ..
            } => {
                let (batch, _metrics) = store.lookup_sealed(key_columns, keys, projection)?;
                Ok(vec![batch])
            }
            SourceRequest::LookupFilter {
                key_columns,
                bloom,
                projection,
                ..
            } => crate::relational::filter_by_bloom(
                store.schema(),
                key_columns,
                bloom,
                projection,
                |columns| Ok(store.scan_sealed(&[], columns, None)?.0),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_storage::{CmpOp, ScanPredicate};
    use gis_types::{DataType, Field, Schema};

    fn adapter() -> ColumnarAdapter {
        let a = ColumnarAdapter::new("sales");
        let schema = Schema::new(vec![
            Field::required("order_id", DataType::Int64),
            Field::new("day", DataType::Int64),
            Field::new("amount", DataType::Float64),
        ])
        .into_ref();
        a.add_table(ColumnStore::with_segment_rows("orders", schema, 64));
        a.load(
            "orders",
            (0..512i64).map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Int64(i / 8),
                    Value::Float64((i % 100) as f64),
                ]
            }),
        )
        .unwrap();
        a
    }

    #[test]
    fn scan_filters_and_projects() {
        let a = adapter();
        let req = SourceRequest::Scan {
            table: "orders".into(),
            predicates: vec![
                ScanPredicate::new(1, CmpOp::GtEq, Value::Int64(10)),
                ScanPredicate::new(1, CmpOp::Lt, Value::Int64(12)),
            ],
            projection: vec![0],
            sort: vec![],
            limit: None,
        };
        let b = &a.execute(&req).unwrap()[0];
        assert_eq!(b.num_rows(), 16);
        assert_eq!(b.num_columns(), 1);
    }

    #[test]
    fn aggregates_rejected() {
        let a = adapter();
        let req = SourceRequest::Aggregate {
            table: "orders".into(),
            predicates: vec![],
            group_by: vec![],
            aggregates: vec![],
        };
        let err = a.execute(&req).unwrap_err();
        assert_eq!(err.code(), "UNSUPPORTED");
    }

    #[test]
    fn sorts_rejected_by_capability_check() {
        let a = adapter();
        let req = SourceRequest::Scan {
            table: "orders".into(),
            predicates: vec![],
            projection: vec![],
            sort: vec![crate::request::SortSpec {
                column: 0,
                asc: true,
                nulls_first: true,
            }],
            limit: None,
        };
        assert!(a.execute(&req).is_err());
    }

    #[test]
    fn lookup_returns_rows_key_major() {
        let a = adapter();
        let req = SourceRequest::Lookup {
            table: "orders".into(),
            key_columns: vec![0],
            keys: vec![vec![Value::Int64(5)], vec![Value::Int64(400)]],
            projection: vec![],
        };
        let b = &a.execute(&req).unwrap()[0];
        assert_eq!(b.num_rows(), 2);
    }

    #[test]
    fn stats_and_schema() {
        let a = adapter();
        let s = a.collect_stats("orders").unwrap();
        assert_eq!(s.row_count, 512);
        assert_eq!(a.table_schema("orders").unwrap().len(), 3);
    }
}
