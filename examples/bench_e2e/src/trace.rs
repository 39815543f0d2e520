//! The traced run: per-layer attribution from outside the engine.
//!
//! End-to-end metrics are measured with tracing off. This run
//! re-executes the first fifth of the first client's op list on one
//! thread, *in pieces*, and wraps each public call in a benchmark-side
//! span — `query` > `sql.parse`, `core.bind`, `core.optimize`,
//! `core.execute` — then grafts the span tree the engine already
//! returns under `ExecOptions::tracing` below `core.execute`. No
//! instrumentation is added to the engine. Spans stay in memory and
//! are written out when the workload ends.
//!
//! The engine's `Span` records a duration, not a start: grafted spans
//! keep their measured duration and are laid end to end from their
//! parent's start (the root operator is aligned to the end of
//! `core.execute`, since planning comes first). They are marked
//! `laid_out` in the trace file. A span's self time is its duration
//! minus what its children cover.
//!
//! Each statement runs twice, back to back: once in the same pieces
//! with every kind of tracing off, once traced, in alternating order.
//! The median ratio of the two is the tracing overhead.

use crate::json::{obj, Json};
use crate::run::{median, World};
use crate::workload::Op;
use gis::core::optimizer::optimize;
use gis::core::plan::binder::{check_duplicate_aliases, Binder};
use gis::observe::Span;
use gis::prelude::*;
use gis::sql::ast::{SetExpr, Statement};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Ticket ids of the traced run's writes start here, clear of the ids
/// the timed run appended.
const TRACED_WRITE_OFFSET: i64 = 1 << 40;
/// Tables the codec replay encodes and decodes.
const CODEC_TABLES: [&str; 5] = ["customers", "regions", "orders", "products", "stock"];
const CODEC_CHUNK_ROWS: usize = 1024;
const CODEC_REPS: usize = 5;

struct SpanRec {
    parent: Option<usize>,
    query: usize,
    name: Cow<'static, str>,
    /// The engine's own label and row count, for grafted spans.
    label: String,
    rows_out: u64,
    start_ns: u64,
    end_ns: u64,
    laid_out: bool,
    /// Filled in once the run is over.
    self_ns: u64,
}

impl SpanRec {
    fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, query: usize) -> usize {
        let now = self.now();
        self.spans.push(SpanRec {
            parent,
            query,
            name: Cow::Borrowed(name),
            label: String::new(),
            rows_out: 0,
            start_ns: now,
            end_ns: now,
            laid_out: false,
            self_ns: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Grafts an engine span tree below `parent`, starting at
    /// `start_ns`, clipped to `limit_ns`.
    fn graft(&mut self, span: &Span, parent: usize, start_ns: u64, limit_ns: u64) {
        let end_ns = (start_ns + span.wall_us * 1_000).min(limit_ns);
        self.spans.push(SpanRec {
            parent: Some(parent),
            query: self.spans[parent].query,
            name: Cow::Owned(engine_name(&span.label)),
            label: span.label.clone(),
            rows_out: span.rows_out,
            start_ns,
            end_ns,
            laid_out: true,
            self_ns: 0,
        });
        let id = self.spans.len() - 1;
        let mut cursor = start_ns;
        for child in &span.children {
            // Annotations (`kernel[..]`, `wire[..]`, `event:..`) carry
            // their message in the label and no time.
            if child.wall_us == 0 && child.children.is_empty() {
                continue;
            }
            self.graft(child, id, cursor, end_ns);
            cursor = (cursor + child.wall_us * 1_000).min(end_ns);
        }
    }

    /// Self time = duration minus the part of it the children cover.
    /// Children of one span never overlap (the pieces run one after
    /// another), so their clipped lengths simply add.
    fn fill_self_times(&mut self) {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        for (s, c) in self.spans.iter_mut().zip(covered) {
            s.self_ns = (s.end_ns - s.start_ns).saturating_sub(c);
        }
    }
}

/// Maps an engine span label to a layer-qualified name:
/// `recv[crm]` -> `adapters.recv[crm]`, `remote:scan[orders]` ->
/// `adapters.source.scan`, `HashJoin[inner]: ...` -> `core.exec.hashjoin`.
fn engine_name(label: &str) -> String {
    if label.starts_with("recv[") {
        return format!("adapters.{label}");
    }
    let head = |s: &str| -> String {
        s.chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase()
    };
    match label.strip_prefix("remote:") {
        Some(kind) => format!("adapters.source.{}", head(kind)),
        None => format!("core.exec.{}", head(label)),
    }
}

/// One statement through the engine's public pieces. With a recorder,
/// every piece is a span below a `query` span and the engine's own
/// trace is grafted in; without, the same calls run bare.
fn run_pieces(
    fed: &Federation,
    sql: &str,
    exec: &ExecOptions,
    query: usize,
    mut rec: Option<&mut Recorder>,
) -> Result<QueryResult> {
    let root = rec.as_mut().map(|r| r.open("query", None, query));
    // Times `f` as a child of the `query` span, if spans are wanted.
    macro_rules! piece {
        ($name:expr, $f:expr) => {{
            let id = rec.as_mut().map(|r| r.open($name, root, query));
            let out = $f;
            if let (Some(r), Some(id)) = (rec.as_mut(), id) {
                r.close(id);
            }
            (out, id)
        }};
    }
    let (statement, _) = piece!("sql.parse", gis::sql::parse(sql));
    let outcome = statement.and_then(|statement| match &statement {
        Statement::Query(query_ast) => {
            let (bound, _) = piece!("core.bind", {
                // What `Federation::plan_statement_with` does first.
                let aliases = match &query_ast.body {
                    SetExpr::Select(select) => select.from.as_ref().map_or(Ok(()), |from| {
                        check_duplicate_aliases(from, &mut HashSet::new())
                    }),
                    _ => Ok(()),
                };
                aliases.and_then(|()| Binder::new(fed.catalog().clone()).bind(&statement))
            });
            let optimizer = fed.optimizer_options();
            let (plan, _) = piece!("core.optimize", bound.and_then(|b| optimize(b, &optimizer)));
            let plan = plan?;
            let (result, execute) = piece!(
                "core.execute",
                fed.execute_logical(&plan, exec, query as u64, None)
            );
            let result = result?;
            Ok((result, execute))
        }
        Statement::Analyze { source, table } => {
            let (result, _) = piece!(
                "stats.analyze",
                fed.run_analyze(source.as_deref(), table.as_deref())
            );
            Ok((result?, None))
        }
        other => Err(GisError::Internal(format!(
            "the workloads send no such statement: {other:?}"
        ))),
    });
    if let (Some(r), Some(root)) = (rec.as_mut(), root) {
        r.close(root);
    }
    // Grafting allocates; it happens after the `query` span closed so
    // that it is not charged to the query.
    let (result, execute) = outcome?;
    if let (Some(r), Some(execute), Some(tree)) = (rec, execute, &result.metrics.trace) {
        let (start, end) = (r.spans[execute].start_ns, r.spans[execute].end_ns);
        // Planning comes first: the root operator ends with `execute`.
        let root_start = end.saturating_sub(tree.wall_us * 1_000).max(start);
        r.graft(tree, execute, root_start, end);
    }
    Ok(result)
}

/// What the traced run yields: per-layer metrics by catalogue name,
/// and the span file.
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub file: Json,
}

pub fn traced_run(world: &World<'_>) -> Traced {
    let fed = &world.main.fed;
    let ops = &world.plan.timed[0];
    let plain = fed.exec_options();
    let tracing = ExecOptions {
        tracing: true,
        ..plain
    };
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut overhead_ratio = Vec::new();
    let mut rows_returned = 0u64;
    let mut fragments = 0u64;
    let mut failed = 0u64;
    let mut queries = 0usize;
    let mut buf = String::new();

    for op in &ops[..ops.len() / 5] {
        let (stmt, nonce) = match *op {
            Op::Write { first_id } => {
                world.apply_write(first_id + TRACED_WRITE_OFFSET);
                continue;
            }
            Op::Read { stmt, nonce } => (stmt, nonce),
        };
        if queries == world.shape.trace_cap {
            break;
        }
        let sql = world.plan.sql(stmt, nonce, &mut buf);
        let mut bare_ns = 0;
        let mut bare = || {
            let started = Instant::now();
            let _ = std::hint::black_box(run_pieces(fed, sql, &plain, queries, None));
            bare_ns = started.elapsed().as_nanos() as u64;
        };
        // Alternate which of the two goes first, so that neither always
        // finds the caches warmed by the other.
        let bare_first = queries & 1 == 0;
        if bare_first {
            bare();
        }
        let outcome = run_pieces(fed, sql, &tracing, queries, Some(&mut rec));
        if !bare_first {
            bare();
        }
        let root = rec
            .spans
            .iter()
            .rposition(|s| s.parent.is_none())
            .expect("a query span");
        overhead_ratio
            .push((rec.spans[root].end_ns - rec.spans[root].start_ns) as f64 / bare_ns as f64);
        queries += 1;
        match outcome
            .map_err(|e| e.to_string())
            .and_then(|r| world.verify(stmt, &r.batch).map(|()| r))
        {
            Ok(r) => {
                rows_returned += r.batch.num_rows() as u64;
                fragments += r.metrics.fragments as u64;
            }
            Err(why) => {
                failed += 1;
                eprintln!("FAILED (traced)  {sql}\n        {why}");
            }
        }
    }
    rec.fill_self_times();

    // Fold spans into per-piece samples and per-layer totals (µs).
    let mut piece: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut total: BTreeMap<&str, f64> = BTreeMap::new();
    let mut rows_fetched = 0u64;
    for s in &rec.spans {
        let mut add = |key: &'static str, us: f64| *total.entry(key).or_default() += us;
        let self_us = s.self_ns as f64 / 1e3;
        let name = s.name.as_ref();
        match name {
            "query" => {
                add("query", s.dur_us());
                add("query.self", self_us);
            }
            "sql.parse" | "core.bind" | "core.optimize" => {
                add("frontend", s.dur_us());
                piece.entry(name).or_default().push(s.dur_us());
            }
            "core.execute" | "stats.analyze" => piece.entry(name).or_default().push(s.dur_us()),
            _ => {}
        }
        if name.starts_with("adapters.recv") {
            add("recv", s.dur_us());
            add("recv.self", self_us);
            rows_fetched += s.rows_out;
        } else if let Some(kind) = name.strip_prefix("adapters.source.") {
            add("source", s.dur_us());
            match kind {
                "scan" => add("source.scan", s.dur_us()),
                "agg" => add("source.agg", s.dur_us()),
                "lookup" | "filter" => add("source.lookup", s.dur_us()),
                "join" => add("source.join", s.dur_us()),
                _ => {}
            }
        } else if let Some(operator) = name.strip_prefix("core.exec.") {
            add("operator.self", self_us);
            match operator {
                "hashjoin" | "nestedloop" | "bindjoin" => add("join.self", self_us),
                "hashaggregate" | "distinct" => add("aggregate.self", self_us),
                "sort" => add("sort.self", self_us),
                _ => {}
            }
            // The root operator: what `execute` adds around it is
            // view matching, physical planning, snapshots, feedback.
            let parent = &rec.spans[s.parent.expect("grafted spans have a parent")];
            if parent.name == "core.execute" {
                piece
                    .entry("exec_overhead")
                    .or_default()
                    .push(parent.dur_us() - s.dur_us());
            }
        }
    }

    let get = |key: &str| total.get(key).copied().unwrap_or(0.0);
    let mut p50 = |key: &str| median(piece.remove(key).unwrap_or_default());
    let n = queries.max(1) as f64;
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    };
    put("sql.parse_us_p50", p50("sql.parse"));
    put("core.bind_us_p50", p50("core.bind"));
    put("core.optimize_us_p50", p50("core.optimize"));
    put("core.frontend_share", get("frontend") / get("query"));
    put("core.execute_us_p50", p50("core.execute"));
    put("core.exec_overhead_us_p50", p50("exec_overhead"));
    put("core.operator_self_us_per_query", get("operator.self") / n);
    put("core.join_self_us_per_query", get("join.self") / n);
    put(
        "core.aggregate_self_us_per_query",
        get("aggregate.self") / n,
    );
    put("core.sort_self_us_per_query", get("sort.self") / n);
    put(
        "core.rows_fetched_per_row_returned",
        rows_fetched as f64 / rows_returned.max(1) as f64,
    );
    put("adapters.fragments_per_query", fragments as f64 / n);
    put("adapters.recv_us_per_query", get("recv") / n);
    put("adapters.source_us_per_query", get("source") / n);
    put("adapters.source_scan_us_per_query", get("source.scan") / n);
    put("adapters.source_agg_us_per_query", get("source.agg") / n);
    put(
        "adapters.source_lookup_us_per_query",
        get("source.lookup") / n,
    );
    put("adapters.source_join_us_per_query", get("source.join") / n);
    put("adapters.exchange_self_us_per_query", get("recv.self") / n);
    put("stats.analyze_us_p50", p50("stats.analyze"));
    put("bench.trace_overhead_share", median(overhead_ratio) - 1.0);
    put(
        "bench.trace_self_coverage",
        1.0 - get("query.self") / get("query"),
    );
    let (encode, decode) = codec_replay(fed);
    put("net.codec_encode_mb_s", encode);
    put("net.codec_decode_mb_s", decode);

    let spans = rec
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            obj([
                ("id", id.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("query", s.query.into()),
                ("name", s.name.as_ref().into()),
                ("label", s.label.as_str().into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("self_ns", s.self_ns.into()),
                ("laid_out", s.laid_out.into()),
            ])
        })
        .collect();
    Traced {
        metrics,
        file: obj([
            ("workload", world.shape.name.into()),
            ("queries", queries.into()),
            ("failed", failed.into()),
            ("spans", Json::Arr(spans)),
        ]),
    }
}

/// Encode and decode throughput of `gis::net::codec` over the
/// federation's own tables, in raw MB per second (median of
/// `CODEC_REPS`).
fn codec_replay(fed: &Federation) -> (f64, f64) {
    let mut chunks = Vec::new();
    for table in CODEC_TABLES {
        let batch = fed
            .query(&format!("SELECT * FROM {table}"))
            .expect("read a FedMart table for the codec replay")
            .batch;
        let mut offset = 0;
        while offset < batch.num_rows() {
            chunks.push(batch.slice(offset, CODEC_CHUNK_ROWS));
            offset += CODEC_CHUNK_ROWS;
        }
    }
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..CODEC_REPS {
        let started = Instant::now();
        let frames: Vec<_> = chunks.iter().map(gis::net::encode_frame).collect();
        let encode_s = started.elapsed().as_secs_f64();
        let raw_mb = frames.iter().map(|(_, stats)| stats.raw).sum::<usize>() as f64 / 1e6;
        let started = Instant::now();
        for (frame, _) in frames {
            std::hint::black_box(gis::net::decode_frame(frame).expect("decode an encoded frame"));
        }
        let decode_s = started.elapsed().as_secs_f64();
        encode.push(raw_mb / encode_s);
        decode.push(raw_mb / decode_s);
    }
    (median(encode), median(decode))
}
