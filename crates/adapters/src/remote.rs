//! A source behind a metered network link.
//!
//! `RemoteSource` is what the mediator actually holds: an adapter
//! plus the [`Link`] to it. Every [`RemoteSource::fetch`] call:
//!
//! 1. serializes the request (counted as request bytes + one message),
//! 2. runs the adapter *at the source*,
//! 3. ships the result in frames sized to the link
//!    ([`NetworkConditions::frame_rows`]), one message each (counted
//!    as response bytes), each frame encoded from the adapter's batch
//!    where it lies and decoded onto the end of the one batch the
//!    fetch returns,
//! 4. retries transient network failures under a [`RetryPolicy`] —
//!    re-paying the request cost each time, as a real mediator would,
//!    charging exponential backoff to the virtual clock, and giving up
//!    early when the query deadline or the policy's virtual-time
//!    budget is exhausted.
//!
//! Decode-after-encode is performed on both directions so tests
//! exercise the full wire path, not a shortcut.

use crate::request::{SourceAdapter, SourceRequest};
use crate::wire_req::{decode_request, encode_request};
use bytes::BytesMut;
use gis_net::codec::{encode_range_into, raw_frame_size, FrameSink, FrameStats};
use gis_net::wire::{decode_span, encode_span};
use gis_net::{Link, NetworkConditions, RetryPolicy, WireStats, MIN_FRAME_ROWS};
use gis_observe::Span;
use gis_types::{Batch, GisError, Result, SchemaRef};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An adapter reachable only through a metered link.
#[derive(Clone)]
pub struct RemoteSource {
    adapter: Arc<dyn SourceAdapter>,
    link: Link,
    retry: RetryPolicy,
    compress: Arc<AtomicBool>,
    wire_stats: Arc<WireStats>,
}

impl RemoteSource {
    /// Wraps `adapter` behind `link`. Response frames ship compressed
    /// by default; see [`RemoteSource::with_compression_flag`].
    pub fn new(adapter: Arc<dyn SourceAdapter>, link: Link) -> Self {
        RemoteSource {
            adapter,
            link,
            retry: RetryPolicy::default(),
            compress: Arc::new(AtomicBool::new(true)),
            wire_stats: WireStats::shared(),
        }
    }

    /// Sets how many times transient failures are retried (keeps the
    /// rest of the retry policy). `retries` excludes the first
    /// attempt.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.retry.max_attempts = retries.saturating_add(1);
        self
    }

    /// Replaces the whole retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Shares a compression toggle with the federation: when the flag
    /// is false, response frames take the legacy raw layout (and any
    /// peer that never learned the codecs still decodes them).
    pub fn with_compression_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.compress = flag;
        self
    }

    /// Shares a federation-wide [`WireStats`] accumulator, so
    /// `Runtime::render_text()` can report raw-vs-wire bytes and
    /// per-codec column counts across all sources.
    pub fn with_wire_stats(mut self, stats: Arc<WireStats>) -> Self {
        self.wire_stats = stats;
        self
    }

    /// The wire-compression statistics this source records into.
    pub fn wire_stats(&self) -> &Arc<WireStats> {
        &self.wire_stats
    }

    /// Whether response frames currently ship compressed.
    pub fn compression_enabled(&self) -> bool {
        self.compress.load(Ordering::Relaxed)
    }

    /// Replaces the retry policy in place.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The source name.
    pub fn name(&self) -> &str {
        self.adapter.name()
    }

    /// The wrapped adapter (metadata access does not cross the wire
    /// at query time; schemas were fetched at registration).
    pub fn adapter(&self) -> &Arc<dyn SourceAdapter> {
        &self.adapter
    }

    /// The link (for metrics and fault scripting).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Ships `request`, executes it at the source, and returns the
    /// response — every message of it, as one batch of `schema`, the
    /// layout the caller expects back
    /// ([`SourceRequest::output_schema`]) — accounting all traffic on
    /// the link. A frame of other column types fails the attempt.
    ///
    /// `traced` asks for a `recv` span for the exchange: bytes and
    /// messages on the wire, rows received, host-side wall time, and —
    /// as a child — the span the *source* reported for its own work.
    /// The source span travels back as one extra wire frame, so
    /// tracing's network cost is metered honestly rather than conjured
    /// for free. `deadline` bounds retrying — once it passes, no
    /// further attempt is made and the last error is returned.
    pub fn fetch(
        &self,
        request: &SourceRequest,
        schema: &SchemaRef,
        traced: bool,
        deadline: Option<Instant>,
    ) -> Result<(Batch, Option<Span>)> {
        let clock = self.link.clock();
        let started_us = clock.now_us();
        let max_attempts = self.retry.max_attempts.max(1);
        let mut retry_events: Vec<Span> = Vec::new();
        let mut attempt = 1u32;
        loop {
            match self.try_execute(request, schema, traced) {
                Ok((batch, span)) => {
                    // Retry events ride on the recv span so EXPLAIN
                    // ANALYZE shows what the exchange survived.
                    let span = span.map(|mut s| {
                        s.children.append(&mut retry_events);
                        s
                    });
                    return Ok((batch, span));
                }
                Err(e) if e.is_retryable() => {
                    if attempt >= max_attempts {
                        return Err(e);
                    }
                    // A query past its deadline must not burn more
                    // round trips; the executor surfaces the deadline
                    // at its next check.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(e);
                    }
                    let backoff = self.retry.backoff_us(attempt);
                    let spent = clock.now_us().saturating_sub(started_us);
                    if spent.saturating_add(backoff) > self.retry.budget_us {
                        return Err(e);
                    }
                    clock.advance(backoff);
                    self.link.metrics().add_retry();
                    if traced {
                        retry_events.push(Span::leaf(format!(
                            "event:retry[{} attempt={} backoff={backoff}us]",
                            self.name(),
                            attempt + 1,
                        )));
                    }
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// One attempt: its frames land in builders of its own, so a
    /// retried attempt starts from nothing.
    fn try_execute(
        &self,
        request: &SourceRequest,
        schema: &SchemaRef,
        traced: bool,
    ) -> Result<(Batch, Option<Span>)> {
        let started = traced.then(Instant::now);
        let compress = self.compress.load(Ordering::Relaxed);
        let mut wire_bytes = 0u64;
        let mut exchange = FrameStats::default();
        // Ship the request.
        let frame = encode_request(request);
        wire_bytes += frame.len() as u64;
        self.link.transfer(frame.len())?;
        // The source decodes it (full wire path).
        let decoded = decode_request(frame)?;
        // When tracing, the source describes its own work in a
        // `remote:` span that ships back over the wire — the mediator
        // never guesses.
        let source_started = traced.then(Instant::now);
        let results = self.adapter.execute(&decoded)?;
        let source_span = source_started.map(|t| {
            let rows: u64 = results.iter().map(|b| b.num_rows() as u64).sum();
            Span::leaf(format!("remote:{}", decoded.label()))
                .with_rows_out(rows)
                .with_wall_us(t.elapsed().as_micros() as u64)
        });
        // Ship results back in frames sized to the link, one scratch
        // buffer for the whole stream (split().freeze() hands each
        // frame off without reallocating the encoder's working space).
        // The link is charged the frame as it actually crossed the
        // wire, with the raw (legacy-layout) size recorded alongside.
        // Each frame is encoded from its row range of the source's
        // batch and decoded onto the end of `received`: no per-frame
        // copy on either side of the wire.
        let conditions = self.link.conditions();
        let mut received = FrameSink::new(schema.clone());
        let mut scratch = BytesMut::new();
        for batch in &results {
            let frame_rows = rows_per_frame(conditions, batch);
            let mut offset = 0;
            loop {
                // An empty result still ships one (small) message.
                let rows = frame_rows.min(batch.num_rows() - offset);
                let stats = encode_range_into(&mut scratch, batch, offset, rows, compress);
                let frame = scratch.split().freeze();
                wire_bytes += frame.len() as u64;
                exchange.absorb(&stats);
                self.link.transfer_sized(frame.len(), stats.raw)?;
                received.append(&frame)?;
                offset += rows;
                if offset >= batch.num_rows() {
                    break;
                }
            }
        }
        self.wire_stats.record(&exchange);
        let span = match source_span {
            Some(source_span) => {
                // The source's own span rides back as one more frame.
                let frame = encode_span(&source_span);
                wire_bytes += frame.len() as u64;
                self.link.transfer(frame.len())?;
                let source_span = decode_span(frame)?;
                Some(
                    Span::leaf(format!("recv[{}]", self.name()))
                        .with_rows_out(received.num_rows() as u64)
                        .with_bytes(wire_bytes)
                        .with_wall_us(started.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0))
                        .with_child(source_span)
                        .with_child(Span::leaf(format!(
                            "wire[codec={} raw={} sent={}]",
                            exchange.codec_summary(),
                            exchange.raw,
                            exchange.wire,
                        ))),
                )
            }
            None => None,
        };
        Ok((received.finish()?, span))
    }

    /// Fetches a table's export schema *across the link* (used at
    /// registration; costs one small round trip).
    pub fn fetch_schema(&self, table: &str) -> Result<SchemaRef> {
        self.link.round_trip(2 + table.len(), 64)?;
        self.adapter.table_schema(table)
    }

    /// Runs `ANALYZE table` at the source under the given sampling
    /// instruction, shipping the request and the statistics frame
    /// across the metered link. Returns the collected stats and the
    /// total wire bytes the exchange cost.
    pub fn analyze(
        &self,
        table: &str,
        spec: &gis_stats::SampleSpec,
    ) -> Result<(gis_storage::TableStats, u64)> {
        let frame = crate::wire_stats::encode_analyze_request(table, spec);
        let mut wire_bytes = frame.len() as u64;
        self.link.transfer(frame.len())?;
        // The source decodes the request (full wire path), samples its
        // own storage, and ships the summary back as one frame.
        let (table, spec) = crate::wire_stats::decode_analyze_request(frame)?;
        let stats = self.adapter.collect_stats_sampled(&table, &spec)?;
        let frame = crate::wire_stats::encode_stats_frame(&stats);
        wire_bytes += frame.len() as u64;
        self.link.transfer(frame.len())?;
        let stats = crate::wire_stats::decode_stats_frame(frame)?;
        Ok((stats, wire_bytes))
    }
}

/// Rows per response frame for `batch` over a link of `conditions`:
/// the link's frame rule over the batch's raw bytes per row. A batch
/// of at most [`MIN_FRAME_ROWS`] rows ships as one frame on every
/// link, so its rows are not measured.
fn rows_per_frame(conditions: NetworkConditions, batch: &Batch) -> usize {
    let rows = batch.num_rows();
    if rows <= MIN_FRAME_ROWS {
        return MIN_FRAME_ROWS;
    }
    conditions.frame_rows(raw_frame_size(batch) / rows)
}

impl std::fmt::Debug for RemoteSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSource")
            .field("name", &self.adapter.name())
            .field("kind", &self.adapter.kind())
            .field("conditions", &self.link.conditions())
            .finish()
    }
}

/// Builds an error for a source that is unreachable after retries
/// (used by the executor's error paths; kept here so wording is
/// consistent).
pub fn unreachable_source(name: &str, cause: &GisError) -> GisError {
    GisError::Network(format!(
        "source '{name}' unreachable after retries: {cause}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::RelationalAdapter;
    use gis_net::SimClock;
    use gis_storage::RowStore;
    use gis_types::{DataType, Field, Schema, Value};

    /// Rows of the `customers` fixture: three frames at the
    /// [`MIN_FRAME_ROWS`] floor (1 024 + 1 024 + 52).
    const ROWS: usize = 2 * MIN_FRAME_ROWS + 52;

    fn remote(conditions: NetworkConditions, clock: SimClock) -> RemoteSource {
        let a = RelationalAdapter::new("crm");
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .into_ref();
        a.add_table(RowStore::new("customers", schema, Some(0)).unwrap());
        a.load(
            "customers",
            (0..ROWS as i64).map(|i| vec![Value::Int64(i), Value::Utf8(format!("c{i}"))]),
        )
        .unwrap();
        RemoteSource::new(Arc::new(a), Link::new("crm", conditions, clock))
    }

    /// [`RemoteSource::fetch`] of `request` into the `customers`
    /// layout.
    fn fetch(
        r: &RemoteSource,
        request: &SourceRequest,
        traced: bool,
        deadline: Option<Instant>,
    ) -> Result<(Batch, Option<Span>)> {
        let schema = r.adapter().table_schema("customers")?;
        r.fetch(request, &schema, traced, deadline)
    }

    fn scan_all() -> SourceRequest {
        SourceRequest::Scan {
            table: "customers".into(),
            predicates: vec![],
            projection: vec![],
            sort: vec![],
            limit: None,
        }
    }

    #[test]
    fn execute_chunks_and_meters() {
        let clock = SimClock::new();
        let r = remote(NetworkConditions::instant(), clock);
        let (batch, span) = fetch(&r, &scan_all(), false, None).unwrap();
        assert!(span.is_none(), "an untraced fetch builds no span");
        // 2 100 rows in frames of 1 024 (the floor, on a link without
        // latency) => 3 response messages, one batch
        assert_eq!(batch.num_rows(), ROWS);
        assert_eq!(batch.row(ROWS - 1).value(0), Value::Int64(ROWS as i64 - 1));
        // 1 request + 3 responses
        assert_eq!(r.link().metrics().messages(), 4);
        assert_eq!(r.wire_stats().frames(), 3, "one count per frame");
        // The pre-compression ledger still reflects the full payload;
        // what crossed the wire is smaller.
        assert!(r.link().metrics().raw_bytes() > ROWS as u64 * 8);
        assert!(r.link().metrics().bytes() < r.link().metrics().raw_bytes());
    }

    /// The same response is three frames on a link without latency
    /// and one on the LAN and the WAN, where a frame carries eight
    /// bandwidth-delay products.
    #[test]
    fn frames_are_sized_to_the_link() {
        for (conditions, frames) in [
            (NetworkConditions::instant(), 3),
            (NetworkConditions::lan(), 1),
            (NetworkConditions::wan(), 1),
        ] {
            let r = remote(conditions, SimClock::new());
            let (batch, _) = fetch(&r, &scan_all(), false, None).unwrap();
            assert_eq!(batch.num_rows(), ROWS);
            assert_eq!(r.link().metrics().messages(), 1 + frames, "{conditions:?}");
            assert_eq!(r.wire_stats().frames(), frames, "{conditions:?}");
        }
    }

    /// Only a batch past the floor is measured; a zero-row batch
    /// ships whole, and a zero-column one counts its rows as one byte.
    #[test]
    fn rows_per_frame_measures_only_batches_past_the_floor() {
        let r = remote(NetworkConditions::instant(), SimClock::new());
        let (batch, _) = fetch(&r, &scan_all(), false, None).unwrap();
        let wan = NetworkConditions::wan();
        let measured = wan.frame_rows(raw_frame_size(&batch) / ROWS);
        assert_eq!(rows_per_frame(wan, &batch), measured);
        assert!(measured > ROWS, "one WAN frame holds the response");
        assert_eq!(
            rows_per_frame(NetworkConditions::instant(), &batch),
            MIN_FRAME_ROWS
        );
        let small = batch.slice(0, MIN_FRAME_ROWS);
        assert_eq!(rows_per_frame(wan, &small), MIN_FRAME_ROWS);
        let empty = Batch::empty(batch.schema().clone());
        assert_eq!(rows_per_frame(wan, &empty), MIN_FRAME_ROWS);
        let no_columns = Batch::placeholder(ROWS);
        assert_eq!(rows_per_frame(wan, &no_columns), wan.frame_rows(1));
    }

    #[test]
    fn latency_accumulates_per_message() {
        let clock = SimClock::new();
        let conditions = NetworkConditions {
            latency_us: 1_000,
            bandwidth_bytes_per_sec: 0,
        };
        let r = remote(conditions, clock.clone());
        fetch(&r, &scan_all(), false, None).unwrap();
        // Without transfer cost a frame takes the cap, so the whole
        // response is one frame: 2 messages x 1ms
        assert_eq!(r.link().metrics().messages(), 2);
        assert_eq!(clock.now_us(), 2_000);
    }

    #[test]
    fn transient_failures_retried() {
        let clock = SimClock::new();
        let r = remote(NetworkConditions::instant(), clock);
        r.link().faults().fail_next(2);
        let (batch, _) = fetch(&r, &scan_all(), false, None).unwrap();
        // The two failed attempts left nothing behind.
        assert_eq!(batch.num_rows(), ROWS);
        assert_eq!(r.link().metrics().failures(), 2);
    }

    /// A three-frame response whose second frame is lost: the retry
    /// starts from an empty sink, so its rows are a clean fetch's, and
    /// the link counts both attempts.
    #[test]
    fn a_lost_middle_frame_retries_the_whole_response() {
        let r = remote(NetworkConditions::instant(), SimClock::new());
        let (clean, _) = fetch(&r, &scan_all(), false, None).unwrap();
        assert_eq!(r.link().metrics().messages(), 4, "1 request + 3 frames");
        r.link().metrics().reset();
        // The fault plan has seen those 4 messages, so the 7th is the
        // next attempt's second frame (request 5, frames 6 and 7); the
        // retry's messages 8 to 11 all pass.
        r.link().faults().fail_every(7);
        let (batch, _) = fetch(&r, &scan_all(), false, None).unwrap();
        assert_eq!(batch, clean);
        let m = r.link().metrics();
        assert_eq!(m.failures(), 1);
        assert_eq!(m.retries(), 1);
        // Delivered: the lost attempt's request and first frame, then
        // the retry's request and three frames.
        assert_eq!(m.messages(), 2 + 4);
        // Only delivered responses count their frames.
        assert_eq!(r.wire_stats().frames(), 3 + 3);
    }

    #[test]
    fn retries_exhaust_on_partition() {
        let clock = SimClock::new();
        let r = remote(NetworkConditions::instant(), clock);
        r.link().faults().partition();
        let err = fetch(&r, &scan_all(), false, None).unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(r.link().metrics().failures(), 3); // 1 + 2 retries
    }

    #[test]
    fn empty_results_still_ship_a_frame() {
        let clock = SimClock::new();
        let r = remote(NetworkConditions::instant(), clock);
        let req = SourceRequest::Scan {
            table: "customers".into(),
            predicates: vec![gis_storage::ScanPredicate::new(
                0,
                gis_storage::CmpOp::Eq,
                Value::Int64(-1),
            )],
            projection: vec![],
            sort: vec![],
            limit: None,
        };
        let (batch, _) = fetch(&r, &req, false, None).unwrap();
        assert_eq!(batch.num_rows(), 0);
        assert_eq!(batch.num_columns(), 2);
        assert_eq!(r.link().metrics().messages(), 2);
    }

    #[test]
    fn traced_execute_meters_the_span_frame_and_reports_source_work() {
        let clock = SimClock::new();
        let r = remote(NetworkConditions::instant(), clock);
        let (batch, span) = fetch(&r, &scan_all(), true, None).unwrap();
        let span = span.expect("a traced fetch reports a recv span");
        assert_eq!(batch.num_rows(), ROWS);
        // 1 request + 3 responses + 1 span frame
        assert_eq!(r.link().metrics().messages(), 5);
        assert_eq!(span.label, "recv[crm]");
        assert_eq!(span.rows_out, ROWS as u64);
        assert_eq!(span.bytes, r.link().metrics().bytes());
        // The source reported its own operator subtree, and the wire
        // span reports what compression did to the exchange.
        assert_eq!(span.children.len(), 2);
        assert_eq!(span.children[0].label, "remote:scan[customers]");
        assert_eq!(span.children[0].rows_out, ROWS as u64);
        let wire = &span.children[1].label;
        assert!(wire.starts_with("wire[codec="), "unexpected {wire}");
        assert!(wire.contains("raw=") && wire.contains("sent="));
    }

    #[test]
    fn compressed_shipping_cuts_bytes_and_keeps_rows_identical() {
        let off = Arc::new(AtomicBool::new(false));
        let clock = SimClock::new();
        let raw =
            remote(NetworkConditions::instant(), clock.clone()).with_compression_flag(off.clone());
        let (raw_batch, _) = fetch(&raw, &scan_all(), false, None).unwrap();
        let raw_bytes = raw.link().metrics().bytes();
        assert_eq!(
            raw.link().metrics().raw_bytes(),
            raw_bytes,
            "legacy mode ships raw == wire"
        );

        let compressed = remote(NetworkConditions::instant(), clock);
        assert!(
            compressed.compression_enabled(),
            "compression is the default"
        );
        let (comp_batch, _) = fetch(&compressed, &scan_all(), false, None).unwrap();
        let comp_bytes = compressed.link().metrics().bytes();

        // Bit-identical rows, strictly fewer wire bytes.
        assert_eq!(raw_batch, comp_batch);
        assert!(
            comp_bytes < raw_bytes,
            "compressed {comp_bytes} >= raw {raw_bytes}"
        );
        // The honest ledger: raw_bytes preserves the uncompressed size.
        assert!(compressed.link().metrics().raw_bytes() > comp_bytes);
        let ws = compressed.wire_stats();
        assert_eq!(
            ws.wire_bytes(),
            comp_bytes - encode_request(&scan_all()).len() as u64
        );
        assert!(ws.raw_bytes() > ws.wire_bytes());

        // Flipping the shared flag switches an existing source to the
        // legacy layout mid-flight (the negotiation path).
        let toggled = remote(NetworkConditions::instant(), SimClock::new())
            .with_compression_flag(off.clone());
        off.store(true, Ordering::Relaxed);
        assert!(toggled.compression_enabled());
        off.store(false, Ordering::Relaxed);
        let (legacy_batch, _) = fetch(&toggled, &scan_all(), false, None).unwrap();
        assert_eq!(legacy_batch, raw_batch);
    }

    #[test]
    fn a_response_of_other_column_types_fails_the_fetch() {
        let r = remote(NetworkConditions::instant(), SimClock::new());
        let wrong = Schema::new(vec![
            Field::required("id", DataType::Utf8),
            Field::new("name", DataType::Utf8),
        ])
        .into_ref();
        let err = r.fetch(&scan_all(), &wrong, false, None).unwrap_err();
        assert_eq!(err.code(), "NETWORK", "{err}");
        let narrow = Schema::new(vec![Field::required("id", DataType::Int64)]).into_ref();
        assert!(r.fetch(&scan_all(), &narrow, false, None).is_err());
    }

    #[test]
    fn backoff_is_charged_to_the_virtual_clock() {
        let clock = SimClock::new();
        let r =
            remote(NetworkConditions::instant(), clock.clone()).with_retry_policy(RetryPolicy {
                jitter_permille: 0,
                ..RetryPolicy::default()
            });
        r.link().faults().fail_next(2);
        fetch(&r, &scan_all(), false, None).unwrap();
        // Two backoffs on an otherwise-free network: 1 ms + 2 ms.
        assert_eq!(clock.now_us(), 3_000);
        assert_eq!(r.link().metrics().retries(), 2);
    }

    #[test]
    fn expired_deadline_stops_retries_with_last_error() {
        let clock = SimClock::new();
        let r = remote(NetworkConditions::instant(), clock);
        r.link().faults().partition();
        let deadline = Instant::now() - std::time::Duration::from_millis(1);
        let err = fetch(&r, &scan_all(), false, Some(deadline)).unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(
            r.link().metrics().failures(),
            1,
            "no retries once the deadline has passed"
        );
        assert_eq!(r.link().metrics().retries(), 0);
    }

    #[test]
    fn virtual_budget_bounds_retrying() {
        let clock = SimClock::new();
        let conditions = NetworkConditions {
            latency_us: 1_000,
            bandwidth_bytes_per_sec: 0,
        };
        let r = remote(conditions, clock).with_retry_policy(RetryPolicy {
            max_attempts: 10,
            jitter_permille: 0,
            budget_us: 2_500,
            ..RetryPolicy::default()
        });
        r.link().faults().partition();
        let err = fetch(&r, &scan_all(), false, None).unwrap_err();
        assert!(err.is_retryable());
        // Attempt 1 burns 1 ms latency, backs off 1 ms (2 ms spent);
        // attempt 2 burns another 1 ms, and the next 2 ms backoff
        // would blow the 2.5 ms budget — stop at two attempts, not 10.
        assert_eq!(r.link().metrics().failures(), 2);
        assert_eq!(r.link().metrics().retries(), 1);
    }

    #[test]
    fn traced_retries_annotate_the_recv_span() {
        let clock = SimClock::new();
        let r = remote(NetworkConditions::instant(), clock);
        r.link().faults().fail_next(1);
        let (batch, span) = fetch(&r, &scan_all(), true, None).unwrap();
        let span = span.expect("a traced fetch reports a recv span");
        assert_eq!(batch.num_rows(), ROWS);
        assert!(span.find("event:retry[crm attempt=2").is_some());
    }
}
