//! The fragment protocol: what the mediator may ask a source.
//!
//! Requests reference the source's **export schema** by column
//! ordinal — the mediator translates global names source-ward before
//! shipping (see `gis-core`'s decomposer). A request that exceeds the
//! adapter's capability profile is answered with
//! [`GisError::Unsupported`]; the optimizer is responsible for never
//! generating one.

use gis_catalog::CapabilityProfile;
use gis_net::KeyBloom;
use gis_storage::{ScanPredicate, TableStats};
use gis_types::{Batch, DataType, Field, GisError, Result, Schema, SchemaRef, Value};

/// Aggregate functions a capable source can evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl AggFunc {
    /// Result type given the input column type.
    pub fn output_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int64,
            AggFunc::Sum => {
                if input.is_integer() {
                    DataType::Int64
                } else {
                    DataType::Float64
                }
            }
            AggFunc::Min | AggFunc::Max => input,
            AggFunc::Avg => DataType::Float64,
        }
    }

    /// Lowercase SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate in a pushed-down aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column ordinal in the export schema; `None` means
    /// `COUNT(*)`.
    pub column: Option<usize>,
}

/// One sort key in a pushed-down sort. The ordinal refers to the
/// request's **output schema** (i.e. after projection), since the
/// source sorts what it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortSpec {
    /// Output-schema column ordinal.
    pub column: usize,
    /// Ascending when true.
    pub asc: bool,
    /// NULLs before values when true.
    pub nulls_first: bool,
}

/// A request the mediator ships to a source adapter.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceRequest {
    /// Scan a table with optional native filtering, projection,
    /// ordering and row limit.
    Scan {
        /// Table name within the source.
        table: String,
        /// Conjunctive predicates over export ordinals.
        predicates: Vec<ScanPredicate>,
        /// Export ordinals to return (empty = all).
        projection: Vec<usize>,
        /// Pushed sort keys (empty = unordered).
        sort: Vec<SortSpec>,
        /// Row limit.
        limit: Option<u64>,
    },
    /// Grouped aggregation, fully evaluated at the source.
    Aggregate {
        /// Table name within the source.
        table: String,
        /// Pre-aggregation filter.
        predicates: Vec<ScanPredicate>,
        /// Group-by export ordinals.
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggregates: Vec<AggSpec>,
    },
    /// Batched parameterized lookup (the bind-join protocol): return
    /// rows whose `key_columns` tuple equals any of `keys`.
    Lookup {
        /// Table name within the source.
        table: String,
        /// Export ordinals forming the lookup key.
        key_columns: Vec<usize>,
        /// Key tuples to match.
        keys: Vec<Vec<Value>>,
        /// Export ordinals to return (empty = all).
        projection: Vec<usize>,
    },
    /// Bloom-filtered semijoin lookup: return rows whose
    /// `key_columns` tuple *may* be in the shipped filter. The source
    /// probes the filter instead of receiving explicit keys, so the
    /// request stays small no matter how many distinct keys the
    /// mediator holds; false positives ship extra rows that the
    /// mediator's residual join discards.
    LookupFilter {
        /// Table name within the source.
        table: String,
        /// Export ordinals forming the lookup key.
        key_columns: Vec<usize>,
        /// Bloom filter over key-tuple hashes
        /// ([`KeyBloom::hash_key`]).
        bloom: KeyBloom,
        /// Export ordinals to return (empty = all).
        projection: Vec<usize>,
    },
    /// An inner equi-join of two **co-located** tables, evaluated
    /// entirely at the source; only the joined result ships.
    Join {
        /// Left table name.
        left_table: String,
        /// Right table name.
        right_table: String,
        /// Join keys: export ordinals into the left table.
        left_keys: Vec<usize>,
        /// Join keys: export ordinals into the right table.
        right_keys: Vec<usize>,
        /// Pre-join filter on the left table.
        left_predicates: Vec<ScanPredicate>,
        /// Pre-join filter on the right table.
        right_predicates: Vec<ScanPredicate>,
        /// Left export ordinals to return (empty = all).
        left_projection: Vec<usize>,
        /// Right export ordinals to return (empty = all).
        right_projection: Vec<usize>,
    },
}

impl SourceRequest {
    /// Short operator label for spans and plan trees, e.g.
    /// `scan[customers]` or `join[orders+items]`.
    pub fn label(&self) -> String {
        match self {
            SourceRequest::Scan { table, .. } => format!("scan[{table}]"),
            SourceRequest::Aggregate { table, .. } => format!("agg[{table}]"),
            SourceRequest::Lookup { table, keys, .. } => {
                format!("lookup[{table} keys={}]", keys.len())
            }
            SourceRequest::LookupFilter { table, bloom, .. } => {
                format!("filter[{table} bloom={}B]", bloom.size_bytes())
            }
            SourceRequest::Join {
                left_table,
                right_table,
                ..
            } => format!("join[{left_table}+{right_table}]"),
        }
    }

    /// The (primary) table this request targets; the left table for
    /// co-located joins.
    pub fn table(&self) -> &str {
        match self {
            SourceRequest::Scan { table, .. }
            | SourceRequest::Aggregate { table, .. }
            | SourceRequest::Lookup { table, .. }
            | SourceRequest::LookupFilter { table, .. } => table,
            SourceRequest::Join { left_table, .. } => left_table,
        }
    }

    /// The schema of the batches this request returns, given the
    /// table's export schema. Both mediator and adapter derive it
    /// from this single function so they can never disagree.
    pub fn output_schema(&self, export: &Schema) -> Result<SchemaRef> {
        match self {
            SourceRequest::Scan { projection, .. }
            | SourceRequest::Lookup { projection, .. }
            | SourceRequest::LookupFilter { projection, .. } => {
                if projection.is_empty() {
                    Ok(Schema::new(export.fields().to_vec()).into_ref())
                } else {
                    check_ordinals(projection, export.len())?;
                    Ok(export.project(projection).into_ref())
                }
            }
            SourceRequest::Join { .. } => Err(GisError::Internal(
                "join requests derive their schema via join_output_schema".into(),
            )),
            SourceRequest::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                check_ordinals(group_by, export.len())?;
                let mut fields: Vec<Field> =
                    group_by.iter().map(|&g| export.field(g).clone()).collect();
                for (i, a) in aggregates.iter().enumerate() {
                    let in_type = match a.column {
                        Some(c) => {
                            check_ordinals(&[c], export.len())?;
                            export.field(c).data_type
                        }
                        None => DataType::Int64,
                    };
                    fields.push(Field::new(
                        format!("{}_{i}", a.func.name()),
                        a.func.output_type(in_type),
                    ));
                }
                Ok(Schema::new(fields).into_ref())
            }
        }
    }

    /// Validates this request against a capability profile,
    /// returning `Unsupported` on the first violation.
    pub fn check_capabilities(&self, caps: &CapabilityProfile) -> Result<()> {
        let unsupported = |what: &str| Err(GisError::Unsupported(format!("source cannot {what}")));
        match self {
            SourceRequest::Scan {
                predicates,
                projection,
                sort,
                limit,
                ..
            } => {
                if !predicates.is_empty() && !caps.filter {
                    return unsupported("filter");
                }
                if !caps.range_filter && predicates.iter().any(|p| p.op != gis_storage::CmpOp::Eq) {
                    return unsupported("evaluate non-equality filters");
                }
                if !projection.is_empty() && !caps.project {
                    return unsupported("project");
                }
                if !sort.is_empty() && !caps.sort {
                    return unsupported("sort");
                }
                if limit.is_some() && !caps.limit {
                    return unsupported("limit");
                }
                Ok(())
            }
            SourceRequest::Aggregate { .. } => {
                if caps.aggregate {
                    Ok(())
                } else {
                    unsupported("aggregate")
                }
            }
            SourceRequest::Lookup { projection, .. } => {
                if !caps.bind_lookup {
                    return unsupported("serve parameterized lookups");
                }
                if !projection.is_empty() && !caps.project {
                    return unsupported("project");
                }
                Ok(())
            }
            SourceRequest::LookupFilter { projection, .. } => {
                if !caps.filter_lookup {
                    return unsupported("probe semijoin filters");
                }
                if !projection.is_empty() && !caps.project {
                    return unsupported("project");
                }
                Ok(())
            }
            SourceRequest::Join {
                left_keys,
                right_keys,
                ..
            } => {
                if !caps.join {
                    return unsupported("join co-located tables");
                }
                if left_keys.is_empty() || left_keys.len() != right_keys.len() {
                    return Err(GisError::Internal(
                        "co-located join needs matching non-empty key lists".into(),
                    ));
                }
                Ok(())
            }
        }
    }

    /// Output schema of a co-located [`SourceRequest::Join`]: the
    /// projected left fields followed by the projected right fields
    /// (right-side fields re-qualified by table name to keep lookups
    /// unambiguous).
    pub fn join_output_schema(
        &self,
        left_export: &Schema,
        right_export: &Schema,
    ) -> Result<SchemaRef> {
        let SourceRequest::Join {
            left_table,
            right_table,
            left_projection,
            right_projection,
            ..
        } = self
        else {
            return Err(GisError::Internal(
                "join_output_schema on a non-join request".into(),
            ));
        };
        let side = |export: &Schema, proj: &[usize], table: &str| -> Result<Vec<Field>> {
            let ords: Vec<usize> = if proj.is_empty() {
                (0..export.len()).collect()
            } else {
                check_ordinals(proj, export.len())?;
                proj.to_vec()
            };
            Ok(ords
                .iter()
                .map(|&o| export.field(o).clone().with_qualifier(table))
                .collect())
        };
        let mut fields = side(left_export, left_projection, left_table)?;
        fields.extend(side(right_export, right_projection, right_table)?);
        Ok(Schema::new(fields).into_ref())
    }
}

fn check_ordinals(ordinals: &[usize], width: usize) -> Result<()> {
    for &o in ordinals {
        if o >= width {
            return Err(GisError::Internal(format!(
                "request ordinal {o} out of range for {width}-column export schema"
            )));
        }
    }
    Ok(())
}

/// The wrapper interface every component system implements.
///
/// `execute` runs entirely inside the source (no network); byte and
/// latency accounting happens in [`crate::remote::RemoteSource`],
/// which serializes requests and responses across a metered link.
pub trait SourceAdapter: Send + Sync {
    /// Source name (unique within a federation).
    fn name(&self) -> &str;

    /// Human-readable engine kind (`"relational"`, `"columnar"`,
    /// `"kv"`).
    fn kind(&self) -> &'static str;

    /// What this source can execute natively.
    fn capabilities(&self) -> CapabilityProfile;

    /// Tables this source exports.
    fn tables(&self) -> Vec<String>;

    /// Export schema of a table.
    fn table_schema(&self, table: &str) -> Result<SchemaRef>;

    /// Collects fresh statistics for a table (run at registration).
    fn collect_stats(&self, table: &str) -> Result<TableStats>;

    /// Collects statistics under a sampling instruction (ANALYZE).
    /// The default ignores the spec and scans everything — correct for
    /// relational sources, whose pushdown machinery touches every row
    /// anyway; engines with a cheaper native sampling unit (columnar
    /// segments, ordered KV ranges) override this.
    fn collect_stats_sampled(
        &self,
        table: &str,
        spec: &gis_stats::SampleSpec,
    ) -> Result<TableStats> {
        let _ = spec;
        self.collect_stats(table)
    }

    /// Executes a fragment request, returning result batches in
    /// [`SourceRequest::output_schema`] layout.
    fn execute(&self, request: &SourceRequest) -> Result<Vec<Batch>>;

    /// A monotonically increasing counter the adapter bumps on every
    /// data mutation (loads, table replacement, in-place edits).
    /// Result caches pin the versions they read; a bumped version
    /// invalidates the cached rows. Sources that cannot detect their
    /// own mutations may keep the default `0`, which marks their data
    /// uncacheable-but-consistent (version never changes, so stale
    /// reads are indistinguishable from autonomy).
    fn data_version(&self) -> u64 {
        0
    }

    /// Which of `predicates` this source would evaluate natively in a
    /// scan of `table`. The default derives from the capability
    /// profile alone; adapters with *structural* limits (e.g. a KV
    /// store that only filters on key-prefix columns) override it.
    /// The mediator keeps unpushable predicates on its side.
    fn pushable_predicates(&self, table: &str, predicates: &[ScanPredicate]) -> Vec<bool> {
        let _ = table;
        let caps = self.capabilities();
        predicates
            .iter()
            .map(|p| caps.filter && (caps.range_filter || p.op == gis_storage::CmpOp::Eq))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_storage::CmpOp;

    fn export() -> Schema {
        Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Float64),
        ])
    }

    #[test]
    fn scan_output_schema_projects() {
        let req = SourceRequest::Scan {
            table: "t".into(),
            predicates: vec![],
            projection: vec![2, 0],
            sort: vec![],
            limit: None,
        };
        let s = req.output_schema(&export()).unwrap();
        assert_eq!(s.field(0).name, "amount");
        assert_eq!(s.field(1).name, "id");
        let bad = SourceRequest::Scan {
            table: "t".into(),
            predicates: vec![],
            projection: vec![9],
            sort: vec![],
            limit: None,
        };
        assert!(bad.output_schema(&export()).is_err());
    }

    #[test]
    fn aggregate_output_schema_types() {
        let req = SourceRequest::Aggregate {
            table: "t".into(),
            predicates: vec![],
            group_by: vec![1],
            aggregates: vec![
                AggSpec {
                    func: AggFunc::Count,
                    column: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    column: Some(0),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    column: Some(2),
                },
                AggSpec {
                    func: AggFunc::Min,
                    column: Some(2),
                },
            ],
        };
        let s = req.output_schema(&export()).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.field(0).name, "region");
        assert_eq!(s.field(1).data_type, DataType::Int64); // count
        assert_eq!(s.field(2).data_type, DataType::Int64); // sum of int
        assert_eq!(s.field(3).data_type, DataType::Float64); // avg
        assert_eq!(s.field(4).data_type, DataType::Float64); // min of float
    }

    #[test]
    fn capability_checks() {
        let scan = SourceRequest::Scan {
            table: "t".into(),
            predicates: vec![ScanPredicate::new(0, CmpOp::Lt, Value::Int64(5))],
            projection: vec![0],
            sort: vec![],
            limit: Some(1),
        };
        assert!(scan
            .check_capabilities(&CapabilityProfile::full_sql())
            .is_ok());
        assert!(scan
            .check_capabilities(&CapabilityProfile::dump_only())
            .is_err());
        // kv: no projection
        let e = scan
            .check_capabilities(&CapabilityProfile::key_value())
            .unwrap_err();
        assert!(e.to_string().contains("project"));
        let agg = SourceRequest::Aggregate {
            table: "t".into(),
            predicates: vec![],
            group_by: vec![],
            aggregates: vec![],
        };
        assert!(agg
            .check_capabilities(&CapabilityProfile::scan_only())
            .is_err());
    }

    #[test]
    fn equality_only_sources_reject_ranges() {
        let mut caps = CapabilityProfile::key_value();
        caps.range_filter = false;
        let range_scan = SourceRequest::Scan {
            table: "t".into(),
            predicates: vec![ScanPredicate::new(0, CmpOp::Lt, Value::Int64(5))],
            projection: vec![],
            sort: vec![],
            limit: None,
        };
        assert!(range_scan.check_capabilities(&caps).is_err());
        let eq_scan = SourceRequest::Scan {
            table: "t".into(),
            predicates: vec![ScanPredicate::new(0, CmpOp::Eq, Value::Int64(5))],
            projection: vec![],
            sort: vec![],
            limit: None,
        };
        assert!(eq_scan.check_capabilities(&caps).is_ok());
    }
}
