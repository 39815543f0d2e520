//! One workload, end to end: set-up (repeated, for a steady
//! `setup_s`), warm-up, the timed untraced run, and the counts every
//! layer already keeps. The engine is driven only through its public
//! API and sees only the generated statements.

use crate::spec::{CLASSES, LINK_SOURCES};
use crate::sys;
use crate::verify::Reference;
use crate::workload::{build_instance, ticket_row, Instance, Op, Plan, Shape, WRITE_ROWS};
use gis::prelude::*;
use gis::runtime::StatsSnapshot;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Barrier, RwLock};
use std::time::Instant;

/// How a client reaches the engine.
pub enum Client<'a> {
    Session(Session),
    Direct(&'a Federation),
}

impl Client<'_> {
    fn query(&self, sql: &str) -> Result<QueryResult> {
        match self {
            Client::Session(s) => s.query(sql),
            Client::Direct(f) => f.query(sql),
        }
    }
}

pub const OK: u8 = 1;
pub const PLAN_HIT: u8 = 2;
pub const RESULT_HIT: u8 = 4;
pub const VIEW_USED: u8 = 8;

/// One timed statement.
#[derive(Clone, Copy)]
pub struct Sample {
    pub class: u8,
    pub flags: u8,
    pub wall_us: u32,
    pub queue_wait_us: u32,
    pub latency_ns: u64,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// What one client saw. Sums are of per-query `QueryMetrics`.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub bytes_wire: u64,
    pub bytes_raw: u64,
    pub messages: u64,
    pub virtual_us: u64,
    pub virtual_parallel_us: u64,
    pub analyze_bytes: u64,
    pub analyzes: u64,
    pub write_ns: Vec<u64>,
    /// Thread CPU spent in source writes and oracle re-derivation.
    pub excluded_cpu_ms: f64,
    pub failed: u64,
}

/// Everything a set-up builds.
pub struct World<'a> {
    pub shape: &'a Shape,
    pub plan: &'a Plan,
    pub main: Instance,
    /// Kept past set-up only where writes re-derive references.
    pub twin: Option<Instance>,
    pub runtime: Option<Runtime>,
    refs: RwLock<Vec<Option<Reference>>>,
    pub build_s: f64,
    pub oracle_s: f64,
    pub warmup_s: f64,
}

fn oracle_answer(twin: &Instance, plan: &Plan, stmt: usize) -> Result<Option<Reference>> {
    let s = &plan.stmts[stmt];
    if s.status_only {
        return Ok(None);
    }
    let answer = twin.fed.query(&s.sql)?;
    Ok(Some(Reference::new(answer.batch, s.ordered)))
}

impl<'a> World<'a> {
    /// One full set-up: federations, oracle answers, warm-up.
    pub fn set_up(shape: &'a Shape, plan: &'a Plan, smoke: bool, out: &Path) -> Result<World<'a>> {
        let started = Instant::now();
        let main = build_instance(shape, smoke, false)?;
        let twin = build_instance(shape, smoke, true)?;
        let runtime = (shape.workers > 0).then(|| {
            let mut config = RuntimeConfig::default()
                .with_workers(shape.workers)
                // Spills, should a later change cause any, stay inside
                // the benchmark's output directory.
                .with_spill_dir(Some(out.to_path_buf()));
            if let Some(bytes) = shape.result_cache_bytes {
                config = config.with_result_cache_bytes(bytes);
            }
            if let Some(bytes) = shape.query_mem_limit {
                config = config
                    .with_query_mem_limit(bytes)
                    .with_total_mem_pool(4 * bytes);
            }
            Runtime::new(main.fed.clone(), config)
        });
        let build_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut used = vec![false; plan.stmts.len()];
        for op in plan.warmup.iter().chain(&plan.timed).flatten() {
            if let Op::Read { stmt, .. } = op {
                used[*stmt as usize] = true;
            }
        }
        let mut refs = Vec::with_capacity(used.len());
        for (stmt, used) in used.iter().enumerate() {
            refs.push(if *used {
                oracle_answer(&twin, plan, stmt)?
            } else {
                None
            });
        }
        // The never-repeating tail borrows its base statement's
        // reference (`LIMIT` beyond the row count changes no answer);
        // have the oracle confirm that on a few of them.
        let mut buf = String::new();
        let nonced = plan.timed.iter().flatten().filter_map(|op| match op {
            Op::Read { stmt, nonce } if *nonce != 0 => Some((*stmt, *nonce)),
            _ => None,
        });
        for (stmt, nonce) in nonced.take(16) {
            let sql = plan.sql(stmt, nonce, &mut buf);
            let answer = twin.fed.query(sql)?;
            if let Some(Err(diff)) = refs[stmt as usize].as_ref().map(|r| r.check(&answer.batch)) {
                return Err(GisError::Internal(format!(
                    "benchmark premise broken: oracle answers `{sql}` unlike its base statement: {diff}"
                )));
            }
        }
        let oracle_s = started.elapsed().as_secs_f64();

        let needs_twin = main.support.is_some();
        let mut world = World {
            shape,
            plan,
            main,
            twin: Some(twin),
            runtime,
            refs: RwLock::new(refs),
            build_s,
            oracle_s,
            warmup_s: 0.0,
        };
        let started = Instant::now();
        world
            .main
            .fed
            .clock()
            .set_pace_permille(shape.pace_permille);
        let logs = world.run_clients(&plan.warmup);
        if let Some(failed) = logs.iter().map(|l| l.failed).find(|f| *f > 0) {
            return Err(GisError::Internal(format!(
                "{failed} warm-up statement(s) failed"
            )));
        }
        world.warmup_s = started.elapsed().as_secs_f64();
        if !needs_twin {
            world.twin = None;
        }
        Ok(world)
    }

    pub fn setup_s(&self) -> f64 {
        self.build_s + self.oracle_s + self.warmup_s
    }

    pub fn client(&self) -> Client<'_> {
        match &self.runtime {
            Some(rt) => {
                let mut session = rt.session();
                session.set_caching(self.shape.caching);
                Client::Session(session)
            }
            None => Client::Direct(&self.main.fed),
        }
    }

    /// Runs one op list per client, closed loop, all starting together.
    pub fn run_clients(&self, lists: &[Vec<Op>]) -> Vec<ClientLog> {
        if let [ops] = lists {
            return vec![self.run_ops(ops, &self.client())];
        }
        let barrier = Barrier::new(lists.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = lists
                .iter()
                .map(|ops| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let client = self.client();
                        barrier.wait();
                        self.run_ops(ops, &client)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    fn run_ops(&self, ops: &[Op], client: &Client<'_>) -> ClientLog {
        let mut log = ClientLog {
            samples: Vec::with_capacity(ops.len()),
            ..ClientLog::default()
        };
        let mut buf = String::new();
        for op in ops {
            match *op {
                Op::Write { first_id } => {
                    let cpu = sys::thread_cpu_ms();
                    log.write_ns.push(self.apply_write(first_id));
                    log.excluded_cpu_ms += sys::thread_cpu_ms() - cpu;
                }
                Op::Read { stmt, nonce } => {
                    let sql = self.plan.sql(stmt, nonce, &mut buf);
                    let started = Instant::now();
                    let outcome = client.query(sql);
                    let latency_ns = started.elapsed().as_nanos() as u64;
                    let class = self.plan.stmts[stmt as usize].class;
                    let mut sample = Sample {
                        class: class as u8,
                        flags: 0,
                        wall_us: 0,
                        queue_wait_us: 0,
                        latency_ns,
                    };
                    match outcome.map_err(|e| e.to_string()).and_then(|r| {
                        self.verify(stmt, &r.batch)?;
                        Ok(r)
                    }) {
                        Ok(r) => {
                            let m = &r.metrics;
                            sample.flags = OK
                                | if m.plan_cache_hit { PLAN_HIT } else { 0 }
                                | if m.result_cache_hit { RESULT_HIT } else { 0 }
                                | if m.views_used.is_empty() {
                                    0
                                } else {
                                    VIEW_USED
                                };
                            sample.wall_us = m.wall_us.min(u32::MAX as u128) as u32;
                            sample.queue_wait_us = m.queue_wait_us.min(u32::MAX as u64) as u32;
                            log.bytes_wire += m.bytes_wire;
                            log.bytes_raw += m.bytes_raw;
                            log.messages += m.messages;
                            log.virtual_us += m.virtual_network_us;
                            log.virtual_parallel_us += m.virtual_parallel_us();
                            if CLASSES[class] == "analyze" {
                                log.analyze_bytes += m.bytes_wire;
                                log.analyzes += 1;
                            }
                        }
                        Err(why) => {
                            log.failed += 1;
                            if log.failed <= 5 {
                                eprintln!("FAILED  {sql}\n        {why}");
                            }
                        }
                    }
                    log.samples.push(sample);
                }
            }
        }
        log
    }

    /// Compares an answer with the oracle's.
    pub fn verify(&self, stmt: u32, got: &Batch) -> std::result::Result<(), String> {
        let refs = self
            .refs
            .read()
            .expect("no client panicked while verifying");
        match &refs[stmt as usize] {
            Some(reference) => reference.check(got),
            // ANALYZE: a one-row status is all there is to check.
            None if got.num_rows() == 1 => Ok(()),
            None => Err(format!("status statement returned {} rows", got.num_rows())),
        }
    }

    /// Appends `WRITE_ROWS` tickets at the source (the returned time),
    /// then brings the oracle twin and the references of every
    /// statement that reads `support` up to date, untimed.
    pub fn apply_write(&self, first_id: i64) -> u64 {
        let rows = |customers: i64| {
            (first_id..first_id + WRITE_ROWS as i64).map(move |id| ticket_row(id, customers))
        };
        let support = self
            .main
            .support
            .as_ref()
            .expect("workload has a writable source");
        let started = Instant::now();
        support
            .load("tickets", rows(self.main.customers))
            .expect("load into support.tickets");
        let elapsed = started.elapsed().as_nanos() as u64;
        let twin = self.twin.as_ref().expect("writes keep the oracle twin");
        twin.support
            .as_ref()
            .expect("twin has the writable source")
            .load("tickets", rows(twin.customers))
            .expect("load into the twin's support.tickets");
        let mut refs = self
            .refs
            .write()
            .expect("no client panicked while verifying");
        for (stmt, s) in self.plan.stmts.iter().enumerate() {
            if s.reads_support && refs[stmt].is_some() {
                refs[stmt] = oracle_answer(twin, self.plan, stmt).expect("oracle re-derivation");
            }
        }
        elapsed
    }
}

/// Nearest-rank quantile of unsorted values (0 when empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

#[derive(Clone, Copy, Default)]
struct LinkCounts {
    bytes: u64,
    raw_bytes: u64,
    messages: u64,
    busy_us: u64,
    failures: u64,
    retries: u64,
}

/// Counter state of the engine, read before and after the timed run.
struct Counters {
    links: BTreeMap<String, LinkCounts>,
    clock_us: u64,
    codec_columns: Vec<u64>,
    runtime: Option<StatsSnapshot>,
    view_refreshes: u64,
    view_refresh_rows: u64,
    view_stale_skips: u64,
}

impl Counters {
    fn read(world: &World<'_>) -> Counters {
        let fed = &world.main.fed;
        let links = fed
            .all_links()
            .iter()
            .map(|l| {
                let m = l.metrics();
                let counts = LinkCounts {
                    bytes: m.bytes(),
                    raw_bytes: m.raw_bytes(),
                    messages: m.messages(),
                    busy_us: m.busy_us(),
                    failures: m.failures(),
                    retries: m.retries(),
                };
                (l.name().to_string(), counts)
            })
            .collect();
        let gauges = fed.view_gauges();
        Counters {
            links,
            clock_us: fed.clock().now_us(),
            codec_columns: gis::net::ColumnCodec::all()
                .iter()
                .map(|c| fed.wire_stats().columns(*c))
                .collect(),
            runtime: world.runtime.as_ref().map(Runtime::stats),
            view_refreshes: gauges.iter().map(|g| g.refreshes).sum(),
            view_refresh_rows: gauges.iter().map(|g| g.refresh_rows).sum(),
            view_stale_skips: gauges.iter().map(|g| g.stale_skips).sum(),
        }
    }

    /// One counter of every link, since `before`.
    fn link_deltas<'a>(
        &'a self,
        before: &'a Counters,
        field: fn(&LinkCounts) -> u64,
    ) -> impl Iterator<Item = u64> + 'a {
        self.links
            .iter()
            .map(move |(name, now)| field(now) - before.links.get(name).map_or(0, field))
    }
}

/// A property that makes a workload what it is.
pub struct Guard {
    pub name: String,
    pub value: f64,
    pub rule: String,
    pub ok: bool,
}

fn guard(name: &str, value: f64, min: f64, max: f64) -> Guard {
    Guard {
        name: name.to_string(),
        value,
        rule: match (min.is_finite(), max.is_finite()) {
            (true, true) => format!("in [{min}, {max}]"),
            (true, false) => format!(">= {min}"),
            _ => format!("<= {max}"),
        },
        ok: value >= min && value <= max,
    }
}

/// One row of the class table.
pub struct ClassRow {
    pub name: &'static str,
    pub count: usize,
    pub p50_ms: f64,
    pub time_share: f64,
}

/// The untraced run's outcome.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics and the per-layer counts, by catalogue
    /// name.
    pub values: BTreeMap<String, f64>,
    pub guards: Vec<Guard>,
    pub classes: Vec<ClassRow>,
}

/// The timed, untraced run and everything read off it.
pub fn measure(world: &World<'_>, setup_s: f64, setup_parts: [f64; 3]) -> Measured {
    let shape = world.shape;
    let before = Counters::read(world);
    sys::reset_peak_rss();
    let cpu_before = sys::process_cpu_ms();
    let started = Instant::now();
    let logs = world.run_clients(&world.plan.timed);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = sys::process_cpu_ms() - cpu_before;
    let peak_rss_mb = sys::peak_rss_mb();
    let after = Counters::read(world);

    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let attempted = samples.len() as u64;
    let n = attempted.max(1) as f64;
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let sum = |f: fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>() as f64;
    let latency_s: f64 = samples.iter().map(|s| s.latency_ns as f64 / 1e9).sum();
    let timed_s = if shape.clients == 1 {
        latency_s
    } else {
        wall_s
    };
    let excluded_cpu_ms: f64 = logs.iter().map(|l| l.excluded_cpu_ms).sum();
    let mut latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();

    // With one client the per-query metrics are exact; with two, each
    // query's snapshot diff also sees the other client's traffic, so
    // the window's link and clock deltas are used instead.
    let (bytes_wire, bytes_raw, messages, virtual_us, virtual_parallel_us) = if shape.clients == 1 {
        (
            sum(|l| l.bytes_wire),
            sum(|l| l.bytes_raw),
            sum(|l| l.messages),
            sum(|l| l.virtual_us),
            sum(|l| l.virtual_parallel_us),
        )
    } else {
        (
            after.link_deltas(&before, |c| c.bytes).sum::<u64>() as f64,
            after.link_deltas(&before, |c| c.raw_bytes).sum::<u64>() as f64,
            after.link_deltas(&before, |c| c.messages).sum::<u64>() as f64,
            (after.clock_us - before.clock_us) as f64,
            after.link_deltas(&before, |c| c.busy_us).max().unwrap_or(0) as f64,
        )
    };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    };
    put("setup_s", setup_s);
    put("latency_p50_ms", quantile(&mut latencies, 0.5));
    put("latency_p90_ms", quantile(&mut latencies, 0.9));
    put("throughput_qps", (attempted - failed) as f64 / timed_s);
    put("cpu_ms_per_query", (cpu_ms - excluded_cpu_ms) / n);
    put("peak_rss_mb", peak_rss_mb);
    put("wire_bytes_per_query", bytes_wire / n);
    put("messages_per_query", messages / n);
    put("virtual_net_ms_per_query", virtual_us / 1e3 / n);
    put("failed_share", failed as f64 / n);

    put(
        "adapters.retries_per_query",
        after.link_deltas(&before, |c| c.retries).sum::<u64>() as f64 / n,
    );
    put(
        "adapters.failures_per_query",
        after.link_deltas(&before, |c| c.failures).sum::<u64>() as f64 / n,
    );
    put("net.raw_bytes_per_query", bytes_raw / n);
    put("net.codec_ratio", bytes_raw / bytes_wire);
    put(
        "net.virtual_parallel_ms_per_query",
        virtual_parallel_us / 1e3 / n,
    );
    put(
        "net.overlap_headroom",
        1.0 - virtual_parallel_us / virtual_us,
    );
    let paced_wait_share = virtual_us * shape.pace_permille as f64 / 1e3 / (latency_s * 1e6);
    put("net.paced_wait_share", paced_wait_share);
    for src in LINK_SOURCES {
        let busy = |c: &Counters| c.links.get(src).map_or(0, |l| l.busy_us);
        put(
            &format!("net.link_busy_ms.{src}"),
            (busy(&after) - busy(&before)) as f64 / 1e3,
        );
    }
    for (i, codec) in gis::net::ColumnCodec::all().iter().enumerate() {
        put(
            &format!("net.codec_columns.{}", codec.name()),
            (after.codec_columns[i] - before.codec_columns[i]) as f64,
        );
    }

    let by = |keep: fn(&Sample) -> bool, value: fn(&Sample) -> f64| -> Vec<f64> {
        samples.iter().filter(|s| keep(s)).map(value).collect()
    };
    let all = |_: &Sample| true;
    let latency_us = |s: &Sample| s.latency_ns as f64 / 1e3;
    let through_runtime = world.runtime.is_some();
    let rt = |v: f64| if through_runtime { v } else { 0.0 };
    put(
        "runtime.queue_wait_us_p50",
        rt(quantile(&mut by(all, |s| s.queue_wait_us as f64), 0.5)),
    );
    put(
        "runtime.queue_wait_us_p99",
        rt(quantile(&mut by(all, |s| s.queue_wait_us as f64), 0.99)),
    );
    put(
        "runtime.handoff_us_p50",
        rt(quantile(
            &mut by(all, |s| {
                s.latency_ns as f64 / 1e3 - s.wall_us as f64 - s.queue_wait_us as f64
            }),
            0.5,
        )),
    );
    put(
        "runtime.latency_us_p99",
        rt(quantile(&mut by(all, latency_us), 0.99)),
    );
    put(
        "runtime.hit_latency_us_p50",
        rt(quantile(&mut by(|s| s.has(RESULT_HIT), latency_us), 0.5)),
    );
    put(
        "runtime.miss_latency_us_p50",
        rt(quantile(&mut by(|s| !s.has(RESULT_HIT), latency_us), 0.5)),
    );
    let share = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let (rb, ra) = (
        before.runtime.unwrap_or_default(),
        after.runtime.unwrap_or_default(),
    );
    let plan_misses = ra.plan_cache_misses - rb.plan_cache_misses;
    put(
        "runtime.plan_cache_hit_share",
        share(ra.plan_cache_hits - rb.plan_cache_hits, plan_misses),
    );
    let result_hit_share = share(
        ra.result_cache_hits - rb.result_cache_hits,
        ra.result_cache_misses - rb.result_cache_misses,
    );
    put("runtime.result_cache_hit_share", result_hit_share);
    put("runtime.plan_cache_entries", ra.plan_cache_entries as f64);
    put("runtime.result_cache_bytes", ra.result_cache_bytes as f64);
    put(
        "runtime.rejected",
        (ra.rejected + ra.mem_rejected - rb.rejected - rb.mem_rejected) as f64,
    );
    put(
        "views.hit_share",
        by(|s| s.has(VIEW_USED), |_| 1.0).len() as f64 / n,
    );
    let refreshes = (after.view_refreshes - before.view_refreshes) as f64;
    put("views.refreshes", refreshes);
    put(
        "views.refresh_rows",
        (after.view_refresh_rows - before.view_refresh_rows) as f64,
    );
    put(
        "views.stale_skips",
        (after.view_stale_skips - before.view_stale_skips) as f64,
    );
    put(
        "stats.analyze_wire_bytes",
        sum(|l| l.analyze_bytes) / sum(|l| l.analyzes).max(1.0),
    );
    put("mem.pool_peak_bytes", ra.mem_pool_peak as f64);
    put(
        "mem.spilled_bytes",
        (ra.spilled_bytes - rb.spilled_bytes) as f64,
    );
    put(
        "mem.spill_events",
        (ra.spill_events - rb.spill_events) as f64,
    );
    put("setup.build_s", setup_parts[0]);
    put("setup.oracle_s", setup_parts[1]);
    put("setup.warmup_s", setup_parts[2]);
    put("bench.samples", attempted as f64);
    put("bench.timed_s", timed_s);

    // Per class: count, median, share of the timed seconds.
    let mut classes = Vec::new();
    for (id, name) in CLASSES.iter().enumerate() {
        let mut lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.class as usize == id)
            .map(Sample::latency_ms)
            .collect();
        if *name == "write_load" {
            lat = logs
                .iter()
                .flat_map(|l| &l.write_ns)
                .map(|ns| *ns as f64 / 1e6)
                .collect();
        }
        let p50 = quantile(&mut lat, 0.5);
        put(&format!("class.{name}.p50_ms"), p50);
        if !lat.is_empty() && *name != "write_load" {
            classes.push(ClassRow {
                name,
                count: lat.len(),
                p50_ms: p50,
                time_share: lat.iter().sum::<f64>() / 1e3 / latency_s,
            });
        }
    }

    // Shape guards: what makes this workload this workload.
    let inf = f64::INFINITY;
    let mut guards = vec![guard("samples", attempted as f64, 100.0, inf)];
    let max_share = classes.iter().map(|c| c.time_share).fold(0.0, f64::max);
    guards.push(guard("mix.max_class_time_share", max_share, 0.0, 0.35));
    guards.push(guard(
        "mix.boundary_distance_from_p50_p90",
        boundary_distance(&samples),
        3.0,
        inf,
    ));
    match shape.name {
        "analytic_lan" => {
            guards.push(guard("net.paced_wait_share", paced_wait_share, 0.0, 0.05));
            // One client, one worker: the host CPU is the latency.
            guards.push(guard(
                "host_cpu_share_of_latency",
                (cpu_ms - excluded_cpu_ms) / 1e3 / latency_s,
                0.85,
                inf,
            ));
        }
        "wan_paced" => guards.push(guard("net.paced_wait_share", paced_wait_share, 0.85, inf)),
        "serving_hot" => {
            guards.push(guard(
                "runtime.result_cache_hit_share",
                result_hit_share,
                0.4,
                0.7,
            ));
            // Every plan-cache miss past capacity evicts an entry.
            let evictions = plan_misses.saturating_sub(ra.plan_cache_entries);
            guards.push(guard(
                "runtime.plan_cache_evictions",
                evictions as f64,
                1.0,
                inf,
            ));
        }
        "serving_churn" => {
            let writes = logs.iter().map(|l| l.write_ns.len()).sum::<usize>().max(1) as f64;
            guards.push(guard(
                "views.refreshes_per_write",
                refreshes / writes,
                1.0,
                inf,
            ));
            let id = CLASSES
                .iter()
                .position(|c| *c == "dash_fedmart")
                .expect("class exists");
            let fedmart: Vec<&Sample> = samples.iter().filter(|s| s.class as usize == id).collect();
            let hits = fedmart.iter().filter(|s| s.has(RESULT_HIT)).count();
            guards.push(guard(
                "dash_fedmart.result_cache_hit_share",
                hits as f64 / fedmart.len().max(1) as f64,
                0.9,
                inf,
            ));
        }
        other => unreachable!("no guards for workload {other}"),
    }

    Measured {
        attempted,
        failed,
        values,
        guards,
        classes,
    }
}

/// The mix rule's second half: p50 and p90 must not sit on a cliff
/// between two populations of statements, or a small shift in the mix
/// flips the percentile across it. Populations are (class, plan cache
/// hit or miss, result cache hit or miss); ordered by median latency, their cumulative
/// shares are the boundaries. Returns the smallest distance, in
/// percentile points, from p50 or p90 to a boundary between two
/// populations whose medians differ by more than a quarter.
fn boundary_distance(samples: &[Sample]) -> f64 {
    let mut groups: BTreeMap<(u8, u8), Vec<f64>> = BTreeMap::new();
    for s in samples {
        groups
            .entry((s.class, s.flags & (PLAN_HIT | RESULT_HIT)))
            .or_default()
            .push(s.latency_ms());
    }
    let mut pops: Vec<(f64, usize)> = groups
        .into_values()
        .map(|mut lat| (quantile(&mut lat, 0.5), lat.len()))
        .collect();
    pops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = samples.len().max(1) as f64;
    let mut seen = 0usize;
    let mut closest = f64::INFINITY;
    for pair in pops.windows(2) {
        seen += pair[0].1;
        if pair[1].0 > pair[0].0 * 1.25 {
            let boundary = 100.0 * seen as f64 / total;
            closest = closest
                .min((boundary - 50.0).abs())
                .min((boundary - 90.0).abs());
        }
    }
    closest.min(50.0)
}
