//! The benchmark's catalogue: every workload, end-to-end metric and
//! per-layer metric by name, with unit, direction, regression bound
//! and the engine call it is read from. `--list` prints it,
//! `--compare` applies it, `BENCHMARK.json` repeats it.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before `--compare` (and the driver) call it a regression. The
    /// timing bounds are what the 2-core reference VM can resolve: ten
    /// seeds spread by 3-7% (quartile distance over median) while the
    /// host is quiet and by 10-18% while it is not, and the host drifts
    /// by as much within an hour. A change that claims a gain pairs and
    /// alternates its runs instead of leaning on these.
    pub bound: f64,
    /// A count the engine makes, not a time: with one client and the
    /// same seed it repeats exactly, and `--compare` demands that.
    pub deterministic: bool,
    pub source: &'static str,
}

/// `failed_share` is the tenth metric of every result file, but it is
/// 0 at HEAD and `BENCHMARK.json` admits no metric that can be 0: the
/// driver reads it from `failed` / `attempted` instead.
pub const FAILED_SHARE: &str = "failed_share";

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        source: "median of the set-up repetitions: build federations + oracle answers + warm-up pass",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        source: "median client-observed statement latency (Instant around Session::query / Federation::query), tracing off",
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        source: "90th percentile of the same samples (>=100 samples, so >=10 lie beyond)",
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        deterministic: false,
        source: "verified-OK statements / timed seconds (sum of latencies with one client, wall with two)",
    },
    EndToEnd {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        source: "process CPU time (CLOCK_PROCESS_CPUTIME_ID) over the timed window, minus benchmark-side writes and oracle re-derivation, / statements",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
        source: "VmHWM at the end of the timed run (watermark reset after set-up)",
    },
    EndToEnd {
        name: "wire_bytes_per_query",
        unit: "B",
        better: Better::Lower,
        bound: 0.06,
        deterministic: true,
        source: "mean QueryMetrics::bytes_wire (serving_hot: Federation::all_links() byte delta / statements)",
    },
    EndToEnd {
        name: "messages_per_query",
        unit: "count",
        better: Better::Lower,
        bound: 0.06,
        deterministic: true,
        source: "mean QueryMetrics::messages (serving_hot: link message delta / statements)",
    },
    EndToEnd {
        name: "virtual_net_ms_per_query",
        unit: "ms",
        better: Better::Lower,
        bound: 0.06,
        deterministic: true,
        source: "mean QueryMetrics::virtual_network_us / 1000 (serving_hot: SimClock delta / statements)",
    },
    EndToEnd {
        name: FAILED_SHARE,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        deterministic: true,
        source: "(errors + refusals + answers that differ from the oracle) / attempted",
    },
];

#[derive(Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The engine module the number belongs to.
    pub layer: &'static str,
    /// From the traced run (`--trace 1` only); otherwise a count read
    /// in the untraced run.
    pub traced: bool,
    pub source: &'static str,
}

const fn traced(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    source: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        layer,
        traced: true,
        source,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    source: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        traced: false,
        source,
    }
}

use Better::{Higher, Lower};

/// Statement classes, in the order their workloads introduce them.
pub const CLASSES: [&str; 20] = [
    "filter_scan",
    "full_scan_sort",
    "topk",
    "distinct",
    "agg_mediator",
    "agg_pushdown",
    "join2_agg",
    "join3_rollup",
    "semijoin_selective",
    "kv_join",
    "point_pk",
    "kv_get",
    "cust_orders_agg",
    "tier_rollup",
    "dash_fedmart",
    "dash_support",
    "view_fresh",
    "view_stale",
    "write_load",
    "analyze",
];

pub const LINK_SOURCES: [&str; 4] = ["crm", "sales", "inventory", "support"];

/// Every per-layer metric except the per-class, per-link and
/// per-codec families, which `per_layer()` appends.
const PER_LAYER_FIXED: &[PerLayer] = &[
    traced("sql.parse_us_p50", "us", "sql", "gis::sql::parse"),
    traced(
        "core.bind_us_p50",
        "us",
        "core::plan",
        "check_duplicate_aliases + Binder::new(catalog).bind",
    ),
    traced(
        "core.optimize_us_p50",
        "us",
        "core::optimizer",
        "optimizer::optimize",
    ),
    traced(
        "core.frontend_share",
        "ratio",
        "core::plan",
        "(parse + bind + optimize) / traced query time",
    ),
    traced(
        "core.execute_us_p50",
        "us",
        "core::exec",
        "Federation::execute_logical with ExecOptions::tracing",
    ),
    traced(
        "core.exec_overhead_us_p50",
        "us",
        "core::exec",
        "execute - root operator span: view match, physical planning, snapshots, feedback",
    ),
    traced(
        "core.operator_self_us_per_query",
        "us",
        "core::exec",
        "self time of every mediator operator span in QueryMetrics::trace",
    ),
    traced(
        "core.join_self_us_per_query",
        "us",
        "core::exec",
        "self time of HashJoin / NestedLoop / BindJoin spans",
    ),
    traced(
        "core.aggregate_self_us_per_query",
        "us",
        "core::exec",
        "self time of HashAggregate / Distinct spans",
    ),
    traced(
        "core.sort_self_us_per_query",
        "us",
        "core::exec",
        "self time of Sort spans",
    ),
    traced(
        "core.rows_fetched_per_row_returned",
        "ratio",
        "core::exec",
        "rows_out of recv[src] spans / rows returned",
    ),
    traced(
        "adapters.fragments_per_query",
        "count",
        "adapters",
        "QueryMetrics::fragments",
    ),
    traced(
        "adapters.recv_us_per_query",
        "us",
        "adapters",
        "recv[src] spans: request, source execution, frames, link accounting",
    ),
    traced(
        "adapters.source_us_per_query",
        "us",
        "adapters",
        "source-reported remote:* spans",
    ),
    traced(
        "adapters.source_scan_us_per_query",
        "us",
        "adapters",
        "remote:scan spans (storage scans behind the adapter)",
    ),
    traced(
        "adapters.source_agg_us_per_query",
        "us",
        "adapters",
        "remote:agg spans",
    ),
    traced(
        "adapters.source_lookup_us_per_query",
        "us",
        "adapters",
        "remote:lookup and remote:filter (Bloom) spans",
    ),
    traced(
        "adapters.source_join_us_per_query",
        "us",
        "adapters",
        "remote:join spans",
    ),
    traced(
        "adapters.exchange_self_us_per_query",
        "us",
        "adapters",
        "recv - source: request + frame encode/decode, link accounting",
    ),
    count(
        "adapters.retries_per_query",
        "count",
        Lower,
        "adapters",
        "QueryMetrics::retries",
    ),
    count(
        "adapters.failures_per_query",
        "count",
        Lower,
        "adapters",
        "QueryMetrics::failures",
    ),
    count(
        "net.raw_bytes_per_query",
        "B",
        Lower,
        "net",
        "QueryMetrics::bytes_raw",
    ),
    count(
        "net.codec_ratio",
        "ratio",
        Higher,
        "net",
        "bytes_raw / bytes_wire",
    ),
    count(
        "net.virtual_parallel_ms_per_query",
        "ms",
        Lower,
        "net",
        "QueryMetrics::virtual_parallel_us: the busiest link's time",
    ),
    count(
        "net.overlap_headroom",
        "ratio",
        Higher,
        "net",
        "1 - virtual_parallel / virtual_network: what pipelined fetch could save at most",
    ),
    count(
        "net.paced_wait_share",
        "ratio",
        Lower,
        "net",
        "virtual time x pace / client latency",
    ),
    traced(
        "net.codec_encode_mb_s",
        "MB/s",
        "net",
        "gis::net::encode_frame over the federation's tables in 1024-row chunks, raw MB per second",
    ),
    traced(
        "net.codec_decode_mb_s",
        "MB/s",
        "net",
        "gis::net::decode_frame over the same frames",
    ),
    count(
        "runtime.queue_wait_us_p50",
        "us",
        Lower,
        "runtime",
        "QueryMetrics::queue_wait_us",
    ),
    count(
        "runtime.queue_wait_us_p99",
        "us",
        Lower,
        "runtime",
        "QueryMetrics::queue_wait_us",
    ),
    count(
        "runtime.handoff_us_p50",
        "us",
        Lower,
        "runtime",
        "client latency - QueryMetrics::wall_us - queue wait",
    ),
    count(
        "runtime.latency_us_p99",
        "us",
        Lower,
        "runtime",
        "client-observed latency",
    ),
    count(
        "runtime.hit_latency_us_p50",
        "us",
        Lower,
        "runtime",
        "client latency where QueryMetrics::result_cache_hit",
    ),
    count(
        "runtime.miss_latency_us_p50",
        "us",
        Lower,
        "runtime",
        "client latency where not",
    ),
    count(
        "runtime.plan_cache_hit_share",
        "ratio",
        Higher,
        "runtime",
        "Runtime::stats() plan_cache_hits / (hits + misses) over the timed run",
    ),
    count(
        "runtime.result_cache_hit_share",
        "ratio",
        Higher,
        "runtime",
        "Runtime::stats() result_cache_hits / (hits + misses) over the timed run",
    ),
    count(
        "runtime.plan_cache_entries",
        "count",
        Lower,
        "runtime",
        "Runtime::stats().plan_cache_entries at the end",
    ),
    count(
        "runtime.result_cache_bytes",
        "B",
        Lower,
        "runtime",
        "Runtime::stats().result_cache_bytes at the end",
    ),
    count(
        "runtime.rejected",
        "count",
        Lower,
        "runtime",
        "Runtime::stats().rejected + mem_rejected over the timed run",
    ),
    count(
        "views.hit_share",
        "ratio",
        Higher,
        "views",
        "statements with non-empty QueryMetrics::views_used / statements",
    ),
    count(
        "views.refreshes",
        "count",
        Lower,
        "views",
        "Federation::view_gauges() refreshes over the timed run",
    ),
    count(
        "views.refresh_rows",
        "count",
        Lower,
        "views",
        "view_gauges() refresh_rows over the timed run",
    ),
    count(
        "views.stale_skips",
        "count",
        Lower,
        "views",
        "view_gauges() stale_skips over the timed run",
    ),
    traced(
        "stats.analyze_us_p50",
        "us",
        "stats",
        "Federation::run_analyze",
    ),
    count(
        "stats.analyze_wire_bytes",
        "B",
        Lower,
        "stats",
        "mean bytes_wire of the ANALYZE statements",
    ),
    count(
        "mem.pool_peak_bytes",
        "B",
        Lower,
        "types::mem",
        "Runtime::stats().mem_pool_peak",
    ),
    count(
        "mem.spilled_bytes",
        "B",
        Lower,
        "types::mem",
        "Runtime::stats().spilled_bytes over the timed run",
    ),
    count(
        "mem.spill_events",
        "count",
        Lower,
        "types::mem",
        "Runtime::stats().spill_events over the timed run",
    ),
    count(
        "setup.build_s",
        "s",
        Lower,
        "datagen/catalog",
        "build the federation, its oracle twin, the runtime and views",
    ),
    count(
        "setup.oracle_s",
        "s",
        Lower,
        "datagen/catalog",
        "reference answers for every distinct statement",
    ),
    count(
        "setup.warmup_s",
        "s",
        Lower,
        "datagen/catalog",
        "untimed warm-up pass",
    ),
    traced(
        "bench.trace_overhead_share",
        "ratio",
        "benchmark",
        "median over traced statements of (traced pieces / the same pieces untraced) - 1",
    ),
];

const PER_LAYER_TAIL: &[PerLayer] = &[
    traced(
        "bench.trace_self_coverage",
        "ratio",
        "benchmark",
        "self time of all non-root spans / traced query time",
    ),
    count(
        "bench.samples",
        "count",
        Higher,
        "benchmark",
        "statements timed",
    ),
    count("bench.timed_s", "s", Lower, "benchmark", "timed seconds"),
];

/// Leaks a formatted name: the catalogue is built once per process.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The whole per-layer catalogue, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut all = PER_LAYER_FIXED.to_vec();
    for src in LINK_SOURCES {
        all.push(count(
            leak(format!("net.link_busy_ms.{src}")),
            "ms",
            Lower,
            "net",
            "Link::metrics().busy_us over the timed run",
        ));
    }
    for codec in gis::net::ColumnCodec::all() {
        all.push(count(
            leak(format!("net.codec_columns.{}", codec.name())),
            "count",
            Lower,
            "net",
            "Federation::wire_stats().columns(codec) over the timed run",
        ));
    }
    for class in CLASSES {
        all.push(count(
            leak(format!("class.{class}.p50_ms")),
            "ms",
            Lower,
            "benchmark",
            "median client latency of the class, untraced run (0 where the workload has none)",
        ));
    }
    all.extend_from_slice(PER_LAYER_TAIL);
    all
}

/// `--list`: every metric, without running anything.
pub fn print_list() {
    println!("workloads:");
    for w in &crate::workload::SHAPES {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (same names on every workload):");
    println!(
        "  {:<26} {:<6} {:<7} {:>6}  source",
        "name", "unit", "better", "bound"
    );
    for m in &END_TO_END {
        let bound = match (m.name, m.deterministic) {
            (FAILED_SHARE, _) => "none".to_string(),
            (_, true) => format!("{:.0}%*", m.bound * 100.0),
            _ => format!("{:.0}%", m.bound * 100.0),
        };
        println!(
            "  {:<26} {:<6} {:<7} {:>6}  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.source
        );
    }
    println!("  (* exact between runs of one seed on the single-client workloads)");
    println!("\nper-layer metrics (no bound; [t] = from the traced run):");
    println!(
        "  {:<40} {:<6} {:<7} {:<16} source",
        "name", "unit", "better", "layer"
    );
    for m in per_layer() {
        println!(
            "  {:<40} {:<6} {:<7} {:<16} {}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            if m.traced { "[t] " } else { "" },
            m.source
        );
    }
}
