//! The column store: an analytics-style component engine.
//!
//! Data is append-only and organized as *segments* of up to
//! `segment_rows` rows; within a segment each column is stored in one
//! of three encodings chosen automatically:
//!
//! * **Plain** — the raw array,
//! * **RLE** — run-length (wins on sorted / low-churn columns),
//! * **Dict** — dictionary (wins on low-cardinality strings).
//!
//! Every segment keeps a **zone map** (min/max/null-count per column);
//! scans prune whole segments whose zone map refutes a pushed
//! predicate — the mechanism that makes selective pushed filters
//! nearly free on this engine, which experiment T4 contrasts with the
//! other engines.

use crate::predicate::{CmpOp, ScanPredicate};
use crate::stats::{StatsCollector, TableStats};
use gis_stats::SampleSpec;
use gis_types::{Array, ArrayBuilder, Batch, DataType, GisError, Result, SchemaRef, Value};
use std::collections::HashMap;

/// Default rows per segment.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// One encoded column within a segment.
#[derive(Debug, Clone)]
enum ColumnChunk {
    /// Uncompressed array.
    Plain(Array),
    /// Run-length encoded: (value, run length) pairs.
    Rle {
        dtype: DataType,
        runs: Vec<(Value, u32)>,
        len: usize,
    },
    /// Dictionary encoded: codes index into `dict`; `u32::MAX` = NULL.
    Dict {
        dtype: DataType,
        dict: Vec<Value>,
        codes: Vec<u32>,
    },
}

impl ColumnChunk {
    /// Decodes back to a plain array.
    fn decode(&self) -> Result<Array> {
        match self {
            ColumnChunk::Plain(a) => Ok(a.clone()),
            ColumnChunk::Rle { dtype, runs, len } => {
                let mut b = ArrayBuilder::with_capacity(*dtype, *len);
                for (v, n) in runs {
                    for _ in 0..*n {
                        b.push_value(v)?;
                    }
                }
                Ok(b.finish())
            }
            ColumnChunk::Dict { dtype, dict, codes } => {
                let mut b = ArrayBuilder::with_capacity(*dtype, codes.len());
                for &c in codes {
                    if c == u32::MAX {
                        b.push_null();
                    } else {
                        b.push_value(&dict[c as usize])?;
                    }
                }
                Ok(b.finish())
            }
        }
    }

    /// The encoding name (exposed in engine metrics / tests).
    fn encoding(&self) -> &'static str {
        match self {
            ColumnChunk::Plain(_) => "plain",
            ColumnChunk::Rle { .. } => "rle",
            ColumnChunk::Dict { .. } => "dict",
        }
    }

    /// Approximate in-memory footprint used to pick an encoding.
    fn size_score(&self) -> usize {
        match self {
            ColumnChunk::Plain(a) => a.wire_size(),
            ColumnChunk::Rle { runs, .. } => runs.iter().map(|(v, _)| v.wire_size() + 4).sum(),
            ColumnChunk::Dict { dict, codes, .. } => {
                dict.iter().map(Value::wire_size).sum::<usize>() + codes.len() * 4
            }
        }
    }
}

/// Encodes an array, choosing the smallest of the three encodings.
fn encode_column(array: &Array) -> Result<ColumnChunk> {
    let plain = ColumnChunk::Plain(array.clone());
    // Build RLE.
    let mut runs: Vec<(Value, u32)> = Vec::new();
    for i in 0..array.len() {
        let v = array.value_at(i);
        match runs.last_mut() {
            Some((last, n)) if *last == v && !v.is_null() || (last.is_null() && v.is_null()) => {
                *n += 1
            }
            _ => runs.push((v, 1)),
        }
    }
    let rle = ColumnChunk::Rle {
        dtype: array.data_type(),
        runs,
        len: array.len(),
    };
    // Build dictionary (worth it only for low cardinality).
    let mut dict: Vec<Value> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(array.len());
    let mut ok = true;
    for i in 0..array.len() {
        let v = array.value_at(i);
        if v.is_null() {
            codes.push(u32::MAX);
            continue;
        }
        match dict.iter().position(|d| *d == v) {
            Some(p) => codes.push(p as u32),
            None => {
                if dict.len() >= 1024 {
                    ok = false;
                    break;
                }
                dict.push(v);
                codes.push((dict.len() - 1) as u32);
            }
        }
    }
    let mut candidates = vec![plain, rle];
    if ok {
        candidates.push(ColumnChunk::Dict {
            dtype: array.data_type(),
            dict,
            codes,
        });
    }
    candidates
        .into_iter()
        .min_by_key(ColumnChunk::size_score)
        .ok_or_else(|| GisError::Internal("no encoding candidates".into()))
}

/// The integer a key value probes an integer-class column with, when
/// `Value::total_cmp` equality between the two is plain integer
/// equality: same type, or `Int32` against `Int64` (the f64 widening
/// `total_cmp` applies there is exact whenever one side fits 32 bits).
fn int_key(column: DataType, key: &Value) -> Option<i64> {
    match (column, key) {
        (DataType::Int32 | DataType::Int64, Value::Int32(k)) => Some(i64::from(*k)),
        (DataType::Int32 | DataType::Int64, Value::Int64(k)) => Some(*k),
        (DataType::Date, Value::Date(k)) => Some(i64::from(*k)),
        (DataType::Timestamp, Value::Timestamp(k)) => Some(*k),
        _ => None,
    }
}

/// Zone-map entry for one column of one segment.
#[derive(Debug, Clone)]
struct ZoneEntry {
    min: Value,
    max: Value,
    null_count: usize,
}

/// One immutable segment.
#[derive(Debug)]
struct Segment {
    chunks: Vec<ColumnChunk>,
    zones: Vec<ZoneEntry>,
    rows: usize,
}

/// Scan counters exposed for experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ColumnScanMetrics {
    /// Segments whose zone maps refuted the predicates.
    pub segments_pruned: usize,
    /// Segments actually decoded and scanned.
    pub segments_scanned: usize,
    /// Rows examined after pruning.
    pub rows_examined: usize,
}

/// An append-only, compressed, zone-mapped column store.
#[derive(Debug)]
pub struct ColumnStore {
    name: String,
    schema: SchemaRef,
    segments: Vec<Segment>,
    /// Rows buffered but not yet sealed into a segment.
    buffer: Vec<Vec<Value>>,
    segment_rows: usize,
    rows: usize,
}

impl ColumnStore {
    /// An empty store with the default segment size.
    pub fn new(name: impl Into<String>, schema: SchemaRef) -> Self {
        ColumnStore::with_segment_rows(name, schema, DEFAULT_SEGMENT_ROWS)
    }

    /// An empty store with a custom segment size (tests use small
    /// segments to exercise pruning).
    pub fn with_segment_rows(
        name: impl Into<String>,
        schema: SchemaRef,
        segment_rows: usize,
    ) -> Self {
        ColumnStore {
            name: name.into(),
            schema,
            segments: Vec::new(),
            buffer: Vec::new(),
            segment_rows: segment_rows.max(1),
            rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Total rows (sealed + buffered).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Appends one row.
    pub fn append(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(GisError::Storage(format!(
                "row width {} does not match schema width {}",
                row.len(),
                self.schema.len()
            )));
        }
        self.buffer.push(row);
        self.rows += 1;
        if self.buffer.len() >= self.segment_rows {
            self.seal()?;
        }
        Ok(())
    }

    /// Appends many rows.
    pub fn append_many(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<usize> {
        let mut n = 0;
        for r in rows {
            self.append(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Seals the buffer into an immutable segment.
    pub fn seal(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.buffer);
        let batch = Batch::from_rows(self.schema.clone(), &rows)?;
        let mut chunks = Vec::with_capacity(self.schema.len());
        let mut zones = Vec::with_capacity(self.schema.len());
        for c in 0..self.schema.len() {
            let array = batch.column(c);
            chunks.push(encode_column(array)?);
            let mut min = Value::Null;
            let mut max = Value::Null;
            let mut nulls = 0;
            for i in 0..array.len() {
                let v = array.value_at(i);
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                if min.is_null() || v.total_cmp(&min).is_lt() {
                    min = v.clone();
                }
                if max.is_null() || v.total_cmp(&max).is_gt() {
                    max = v.clone();
                }
            }
            zones.push(ZoneEntry {
                min,
                max,
                null_count: nulls,
            });
        }
        self.segments.push(Segment {
            chunks,
            zones,
            rows: batch.num_rows(),
        });
        Ok(())
    }

    /// The encodings chosen for segment `seg` (test/metrics hook).
    pub fn segment_encodings(&self, seg: usize) -> Vec<&'static str> {
        self.segments[seg]
            .chunks
            .iter()
            .map(ColumnChunk::encoding)
            .collect()
    }

    /// Rows appended but not yet sealed into a segment. A scan only
    /// sees sealed segments, so callers holding shared access seal
    /// first when this is non-zero.
    pub fn unsealed_rows(&self) -> usize {
        self.buffer.len()
    }

    /// Scans with native predicates and projection; seals the buffer
    /// first so results are complete. Returns matching rows and scan
    /// metrics (pruning effectiveness).
    pub fn scan(
        &mut self,
        predicates: &[ScanPredicate],
        projection: &[usize],
        limit: Option<usize>,
    ) -> Result<(Batch, ColumnScanMetrics)> {
        self.seal()?;
        self.scan_sealed(predicates, projection, limit)
    }

    /// The read-only scan over sealed segments. Rows still in the
    /// append buffer are invisible — use [`ColumnStore::scan`] or
    /// seal explicitly when [`ColumnStore::unsealed_rows`] is
    /// non-zero. Shared access means concurrent scans over one store
    /// run in parallel.
    pub fn scan_sealed(
        &self,
        predicates: &[ScanPredicate],
        projection: &[usize],
        limit: Option<usize>,
    ) -> Result<(Batch, ColumnScanMetrics)> {
        let (cols, out_schema) = self.projected(projection)?;
        let mut metrics = ColumnScanMetrics::default();
        let limit = limit.unwrap_or(usize::MAX);
        let mut parts: Vec<Batch> = Vec::new();
        let mut emitted = 0usize;
        for seg in &self.segments {
            if emitted >= limit {
                break;
            }
            // Zone-map pruning.
            let refuted = predicates.iter().any(|p| {
                let z = &seg.zones[p.column];
                // A segment that is entirely NULL in the predicate
                // column can never match.
                if z.null_count == seg.rows {
                    return true;
                }
                !p.op.range_may_match(&z.min, &z.max, &p.value)
            });
            if refuted {
                metrics.segments_pruned += 1;
                continue;
            }
            metrics.segments_scanned += 1;
            metrics.rows_examined += seg.rows;
            // Decode only the columns the scan touches.
            let needed: Vec<usize> = {
                let mut n: Vec<usize> = cols.clone();
                n.extend(predicates.iter().map(|p| p.column));
                n.sort_unstable();
                n.dedup();
                n
            };
            let mut decoded: Vec<Option<Array>> = vec![None; self.schema.len()];
            for &c in &needed {
                decoded[c] = Some(seg.chunks[c].decode()?);
            }
            // Vectorized predicate evaluation over the segment.
            let mut keep = vec![true; seg.rows];
            for p in predicates {
                let arr = decoded[p.column].as_ref().expect("decoded");
                for (i, k) in keep.iter_mut().enumerate() {
                    if *k {
                        *k = p.op.eval(&arr.value_at(i), &p.value).unwrap_or(false);
                    }
                }
            }
            let out_cols: Vec<Array> = cols
                .iter()
                .map(|&c| decoded[c].clone().expect("decoded"))
                .collect();
            let mut part = Batch::try_new(out_schema.clone(), out_cols)?;
            // Without predicates every row survives: the decoded
            // columns are the output, shared rather than copied.
            if !predicates.is_empty() {
                part = part.filter(&keep)?;
            }
            if emitted + part.num_rows() > limit {
                part = part.slice(0, limit - emitted);
            }
            emitted += part.num_rows();
            if part.num_rows() > 0 {
                parts.push(part);
            }
        }
        let batch = Batch::concat(out_schema, &parts)?;
        Ok((batch, metrics))
    }

    /// Validates a projection and resolves it to the ordinals and
    /// schema a scan or lookup emits (empty = every column).
    fn projected(&self, projection: &[usize]) -> Result<(Vec<usize>, SchemaRef)> {
        if let Some(c) = projection.iter().find(|&&c| c >= self.schema.len()) {
            return Err(GisError::Storage(format!(
                "projection ordinal {c} out of range"
            )));
        }
        Ok(if projection.is_empty() {
            ((0..self.schema.len()).collect(), self.schema.clone())
        } else {
            (
                projection.to_vec(),
                self.schema.project(projection).into_ref(),
            )
        })
    }

    /// The keyed probe: every sealed row whose `key_columns` equal one
    /// of `keys`, projected, in **key-major order** — keys in request
    /// order (a repeated key counts once, a key holding NULL matches
    /// nothing), and under each key its rows in storage order. That is
    /// exactly what one equality scan per key, concatenated, returns,
    /// and wire frames depend on row order, so the order is part of
    /// the contract.
    ///
    /// It is answered in one pass: a segment is skipped when no key
    /// falls inside its zone maps, only the key columns of the others
    /// are decoded and probed against a hash table of the keys, and
    /// the projected columns are decoded and gathered only where a row
    /// hit. Equality is [`CmpOp::Eq`]'s, i.e. [`Value::total_cmp`]:
    /// `Int32` and `Int64` meet by value, `NaN` equals `NaN`, `-0.0`
    /// does not equal `0.0`. A single integer-class key column is
    /// probed as plain `i64`s; everything else goes through `Value`
    /// hashing, which agrees with `total_cmp` except between an
    /// `Int64` and a `Float64` at magnitudes of 2^53 and beyond.
    pub fn lookup_sealed(
        &self,
        key_columns: &[usize],
        keys: &[Vec<Value>],
        projection: &[usize],
    ) -> Result<(Batch, ColumnScanMetrics)> {
        if let Some(c) = key_columns.iter().find(|&&c| c >= self.schema.len()) {
            return Err(GisError::Storage(format!(
                "lookup key ordinal {c} out of range"
            )));
        }
        let (cols, out_schema) = self.projected(projection)?;
        // Distinct non-NULL keys, numbered in first-occurrence order.
        let mut ordinal_of: HashMap<&[Value], usize> = HashMap::with_capacity(keys.len());
        for key in keys {
            if key.len() != key_columns.len() {
                return Err(GisError::Internal("lookup key width mismatch".into()));
            }
            if !key.iter().any(Value::is_null) {
                let next = ordinal_of.len();
                ordinal_of.entry(key.as_slice()).or_insert(next);
            }
        }
        let int_ordinal_of: Option<HashMap<i64, usize>> = match key_columns {
            [c] => {
                let column_type = self.schema.field(*c).data_type;
                ordinal_of
                    .iter()
                    .map(|(key, &ord)| int_key(column_type, &key[0]).map(|k| (k, ord)))
                    .collect()
            }
            _ => None,
        };

        let mut metrics = ColumnScanMetrics::default();
        // Per hit, in storage order: the ordinal of the key it matched.
        let mut hit_keys: Vec<usize> = Vec::new();
        let mut parts: Vec<Batch> = Vec::new();
        let mut rows_hit: Vec<usize> = Vec::new();
        let mut row_key: Vec<Value> = Vec::with_capacity(key_columns.len());
        for seg in &self.segments {
            let in_zone = |key: &[Value]| {
                key_columns.iter().zip(key).all(|(&c, v)| {
                    let z = &seg.zones[c];
                    z.null_count != seg.rows && CmpOp::Eq.range_may_match(&z.min, &z.max, v)
                })
            };
            if !ordinal_of.keys().any(|key| in_zone(key)) {
                metrics.segments_pruned += 1;
                continue;
            }
            metrics.segments_scanned += 1;
            metrics.rows_examined += seg.rows;
            let key_arrays: Vec<Array> = key_columns
                .iter()
                .map(|&c| seg.chunks[c].decode())
                .collect::<Result<_>>()?;
            rows_hit.clear();
            match (&int_ordinal_of, key_arrays.as_slice()) {
                (Some(ints), [column]) => {
                    for i in 0..seg.rows {
                        if let Some(&ord) = column.as_i64_lossy(i).and_then(|k| ints.get(&k)) {
                            rows_hit.push(i);
                            hit_keys.push(ord);
                        }
                    }
                }
                _ => {
                    for i in 0..seg.rows {
                        row_key.clear();
                        row_key.extend(key_arrays.iter().map(|a| a.value_at(i)));
                        // A NULL component is in no key, so the probe
                        // misses without a separate validity test.
                        if let Some(&ord) = ordinal_of.get(row_key.as_slice()) {
                            rows_hit.push(i);
                            hit_keys.push(ord);
                        }
                    }
                }
            }
            if rows_hit.is_empty() {
                continue;
            }
            let decoded: Vec<Array> = cols
                .iter()
                .map(|&c| match key_columns.iter().position(|&k| k == c) {
                    Some(k) => Ok(key_arrays[k].clone()),
                    None => seg.chunks[c].decode(),
                })
                .collect::<Result<_>>()?;
            parts.push(Batch::try_new(out_schema.clone(), decoded)?.take(&rows_hit));
        }
        let batch = Batch::concat(out_schema, &parts)?;
        // Storage order → key-major order (stable: storage order
        // survives within a key).
        if hit_keys.windows(2).all(|w| w[0] <= w[1]) {
            return Ok((batch, metrics));
        }
        let mut order: Vec<usize> = (0..hit_keys.len()).collect();
        order.sort_by_key(|&i| hit_keys[i]);
        Ok((batch.take(&order), metrics))
    }

    /// Collects fresh statistics (seals first).
    pub fn collect_stats(&mut self) -> Result<TableStats> {
        self.seal()?;
        let mut c = StatsCollector::new(self.schema.len());
        for seg in &self.segments {
            let arrays: Vec<Array> = seg
                .chunks
                .iter()
                .map(ColumnChunk::decode)
                .collect::<Result<_>>()?;
            let batch = Batch::try_new(self.schema.clone(), arrays)?;
            c.observe_batch(&batch);
        }
        Ok(c.finish())
    }

    /// Collects statistics from a page sample: whole segments are the
    /// unit a column store reads anyway, so the sample decodes every
    /// `stride`-th segment and extrapolates to the full row count.
    pub fn collect_stats_sampled(&mut self, spec: &SampleSpec) -> Result<TableStats> {
        self.seal()?;
        let total = self.len() as u64;
        let stride = spec.stride(total) as usize;
        if stride <= 1 {
            return self.collect_stats();
        }
        let offset = (spec.seed as usize) % stride;
        let mut c = StatsCollector::with_seed(self.schema.len(), spec.seed);
        for seg in self.segments.iter().skip(offset).step_by(stride) {
            let arrays: Vec<Array> = seg
                .chunks
                .iter()
                .map(ColumnChunk::decode)
                .collect::<Result<_>>()?;
            let batch = Batch::try_new(self.schema.clone(), arrays)?;
            c.observe_batch(&batch);
        }
        Ok(c.finish().scaled_to(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_types::{DataType, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::required("day", DataType::Int64),
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Float64),
        ])
        .into_ref()
    }

    /// 1000 rows, day ascending 0..1000, region in {n,s,e,w},
    /// segments of 100 rows.
    fn store() -> ColumnStore {
        let mut s = ColumnStore::with_segment_rows("sales", schema(), 100);
        let regions = ["n", "s", "e", "w"];
        for i in 0..1000i64 {
            s.append(vec![
                Value::Int64(i),
                Value::Utf8(regions[(i % 4) as usize].into()),
                Value::Float64(i as f64 / 10.0),
            ])
            .unwrap();
        }
        s
    }

    #[test]
    fn append_and_full_scan() {
        let mut s = store();
        let (batch, m) = s.scan(&[], &[], None).unwrap();
        assert_eq!(batch.num_rows(), 1000);
        assert_eq!(m.segments_scanned, 10);
        assert_eq!(m.segments_pruned, 0);
    }

    #[test]
    fn zone_maps_prune_segments() {
        let mut s = store();
        // day in [150, 250): only segments 1 and 2 can match
        let (batch, m) = s
            .scan(
                &[
                    ScanPredicate::new(0, CmpOp::GtEq, Value::Int64(150)),
                    ScanPredicate::new(0, CmpOp::Lt, Value::Int64(250)),
                ],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(batch.num_rows(), 100);
        assert_eq!(m.segments_scanned, 2);
        assert_eq!(m.segments_pruned, 8);
        assert_eq!(m.rows_examined, 200);
    }

    #[test]
    fn equality_prunes_to_single_segment() {
        let mut s = store();
        let (batch, m) = s
            .scan(
                &[ScanPredicate::new(0, CmpOp::Eq, Value::Int64(555))],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(m.segments_scanned, 1);
    }

    #[test]
    fn sorted_int_column_uses_rle_or_plain_and_strings_dict() {
        let mut s = store();
        s.seal().unwrap();
        let encodings = s.segment_encodings(0);
        // region has 4 distinct values over 100 rows: dict must win
        assert_eq!(encodings[1], "dict");
    }

    #[test]
    fn constant_column_uses_rle() {
        let mut s = ColumnStore::with_segment_rows(
            "t",
            Schema::new(vec![Field::new("c", DataType::Int64)]).into_ref(),
            100,
        );
        for _ in 0..100 {
            s.append(vec![Value::Int64(7)]).unwrap();
        }
        s.seal().unwrap();
        assert_eq!(s.segment_encodings(0), vec!["rle"]);
        let (batch, _) = s.scan(&[], &[], None).unwrap();
        assert_eq!(batch.num_rows(), 100);
        assert!(batch.column(0).iter_values().all(|v| v == Value::Int64(7)));
    }

    #[test]
    fn nulls_roundtrip_through_encodings() {
        let mut s = ColumnStore::with_segment_rows(
            "t",
            Schema::new(vec![Field::new("c", DataType::Utf8)]).into_ref(),
            10,
        );
        for i in 0..10 {
            s.append(vec![if i % 2 == 0 {
                Value::Null
            } else {
                Value::Utf8("x".into())
            }])
            .unwrap();
        }
        let (batch, _) = s.scan(&[], &[], None).unwrap();
        assert_eq!(batch.column(0).null_count(), 5);
    }

    #[test]
    fn all_null_segment_pruned_for_any_predicate() {
        let mut s = ColumnStore::with_segment_rows(
            "t",
            Schema::new(vec![Field::new("c", DataType::Int64)]).into_ref(),
            10,
        );
        for _ in 0..10 {
            s.append(vec![Value::Null]).unwrap();
        }
        let (batch, m) = s
            .scan(
                &[ScanPredicate::new(0, CmpOp::Eq, Value::Int64(1))],
                &[],
                None,
            )
            .unwrap();
        assert_eq!(batch.num_rows(), 0);
        assert_eq!(m.segments_pruned, 1);
    }

    #[test]
    fn projection_and_limit() {
        let mut s = store();
        let (batch, _) = s.scan(&[], &[1], Some(42)).unwrap();
        assert_eq!(batch.num_rows(), 42);
        assert_eq!(batch.num_columns(), 1);
        assert_eq!(batch.schema().field(0).name, "region");
    }

    #[test]
    fn buffered_rows_visible_to_scan() {
        let mut s = ColumnStore::with_segment_rows("t", schema(), 1000);
        s.append(vec![
            Value::Int64(1),
            Value::Utf8("n".into()),
            Value::Float64(0.1),
        ])
        .unwrap();
        // Not sealed yet (segment_rows = 1000), scan must still see it.
        let (batch, _) = s.scan(&[], &[], None).unwrap();
        assert_eq!(batch.num_rows(), 1);
    }

    #[test]
    fn stats_collection() {
        let mut s = store();
        let stats = s.collect_stats().unwrap();
        assert_eq!(stats.row_count, 1000);
        assert_eq!(stats.columns[0].min, Some(Value::Int64(0)));
        assert_eq!(stats.columns[0].max, Some(Value::Int64(999)));
        assert!(stats.columns[1].ndv <= 4);
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut s = store();
        assert!(s.append(vec![Value::Int64(1)]).is_err());
    }
}
