//! The four workloads: what each federation looks like and which
//! statements, in which order, each client sends.
//!
//! A run is count-bounded. `--seconds` chooses how many *units* (a
//! shuffled pass, a block of short statements, a dashboard cycle) the
//! op list holds, through a per-workload constant calibrated once at
//! the commit that introduced the benchmark; from there on a given
//! (workload, seed, seconds) is the same work on every commit, and the
//! engine's own counts repeat exactly.

use crate::rng::{Rng, Zipf};
use crate::spec::CLASSES;
use gis::prelude::*;
use gis::storage::RowStore;
use std::sync::Arc;

/// The fixed properties of one workload.
pub struct Shape {
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json` repeats it).
    pub why: &'static str,
    /// FedMart scale factor (1.0 = 1 000 customers / 10 000 orders).
    pub scale: f64,
    pub conditions: fn() -> NetworkConditions,
    /// Host microseconds slept per 1 000 virtual microseconds.
    pub pace_permille: u64,
    pub clients: usize,
    /// Runtime workers; 0 = no runtime, `Federation::query` directly.
    /// A constant per workload, never derived from the core count.
    pub workers: usize,
    /// Plan and result caches on for the sessions.
    pub caching: bool,
    pub result_cache_bytes: Option<u64>,
    pub query_mem_limit: Option<u64>,
    /// Units of work per requested second, measured at the benchmark's
    /// first commit on the 2-core reference box. Not to be re-tuned by
    /// a change that claims a gain.
    pub units_per_second: f64,
    /// Statements the traced run executes at most.
    pub trace_cap: usize,
    /// Confine the process to one core. With one closed-loop client at
    /// most one thread has work at any moment, so nothing is lost; and
    /// on the reference VM a hand-off between two cores costs 15 to
    /// 150 us depending on the host's halt-polling state — ten times
    /// the cache-hit path `serving_churn` times, and bimodal.
    pub one_core: bool,
}

pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "analytic_lan",
        why: "FedMart sf=10 on an unpaced LAN, caches off: host CPU is the whole latency, so source scans, codec and mediator kernels must show here",
        scale: 10.0,
        conditions: NetworkConditions::lan,
        pace_permille: 0,
        clients: 1,
        workers: 1,
        caching: false,
        result_cache_bytes: None,
        // Ample, but finite: the governor accounts every kernel
        // allocation without ever spilling.
        query_mem_limit: Some(1 << 30),
        units_per_second: 1.0,
        trace_cap: 400,
        one_core: false,
    },
    Shape {
        name: "wan_paced",
        why: "FedMart sf=1 on a paced 40 ms / 1 MB/s WAN: network wait is >=85% of latency, so bytes, messages and fetch overlap show 1:1 and CPU work does not",
        scale: 1.0,
        conditions: NetworkConditions::wan,
        // Half of virtual time is slept: the time cap on a whole
        // benchmark run leaves ~12 s per run, and at full pace that is
        // 60 statements, too few for a 90th percentile. Waiting is
        // still ~90% of latency (guarded at 85%).
        pace_permille: 500,
        clients: 1,
        workers: 0,
        caching: false,
        result_cache_bytes: None,
        query_mem_limit: None,
        units_per_second: 0.67,
        trace_cap: 400,
        one_core: false,
    },
    Shape {
        name: "serving_hot",
        why: "2 clients, ~100k short statements, Zipf-hot plus a never-repeating tail: per-query fixed cost (parse, plan-cache misses, hand-off, cache probes) dominates",
        scale: 1.0,
        conditions: NetworkConditions::lan,
        pace_permille: 0,
        clients: 2,
        workers: 2,
        caching: true,
        // The never-repeating tail inserts one entry per miss, so the
        // result cache fills and then evicts on every insert. At the
        // 8 MiB default that takes ~100k misses, i.e. a run would time
        // two regimes; at 256 KiB the warm-up pass fills it and the
        // timed run is all steady state.
        result_cache_bytes: Some(256 * 1024),
        query_mem_limit: None,
        units_per_second: 4.0,
        trace_cap: 4000,
        one_core: false,
    },
    Shape {
        name: "serving_churn",
        why: "dashboard reads interleaved with source writes and ANALYZE: the same caches and views used the other way (invalidation, refresh, catalog flushes)",
        scale: 2.0,
        conditions: NetworkConditions::lan,
        pace_permille: 0,
        clients: 1,
        workers: 2,
        caching: true,
        result_cache_bytes: None,
        query_mem_limit: None,
        units_per_second: 18.0,
        trace_cap: 2000,
        one_core: true,
    },
];

impl Shape {
    /// A smoke run is sf=0.1 whatever the workload.
    pub fn scale_for(&self, smoke: bool) -> f64 {
        if smoke {
            0.1
        } else {
            self.scale
        }
    }
}

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

/// Rows of `support.tickets` before the first write, per customer.
const TICKETS_PER_CUSTOMER: usize = 1;
/// Rows one `write_load` appends.
pub const WRITE_ROWS: usize = 50;
/// Reads between two writes, and writes between two `ANALYZE`s.
const READS_PER_WRITE: usize = 40;
const WRITES_PER_ANALYZE: usize = 4;
/// Share of `serving_hot` statements drawn from the Zipf-hot set; the
/// rest never repeat.
const HOT_SHARE: f64 = 0.6;
const HOT_ZIPF_ALPHA: f64 = 1.0;
/// Statements per client in one `serving_hot` unit.
const HOT_BLOCK: usize = 1000;

fn class_id(name: &str) -> usize {
    CLASSES
        .iter()
        .position(|c| *c == name)
        .expect("class is in the catalogue")
}

/// One distinct statement.
pub struct Stmt {
    pub class: usize,
    pub sql: String,
    /// `ORDER BY` is total: compare answers as a sequence.
    pub ordered: bool,
    /// Reads `support.tickets`: its reference is re-derived after
    /// every write.
    pub reads_support: bool,
    /// `ANALYZE`: the answer is a status line whose byte count is not
    /// the oracle's business; only success is checked.
    pub status_only: bool,
}

#[derive(Clone, Copy)]
pub enum Op {
    /// Send statement `stmt`. A non-zero `nonce` appends `LIMIT
    /// 1000+nonce`: a different text (so both caches miss) with the
    /// same answer as the base statement, whose reference it shares.
    Read { stmt: u32, nonce: u32 },
    /// Append `WRITE_ROWS` rows starting at this ticket id to
    /// `support.tickets` — a source-side event, not a client statement.
    Write { first_id: i64 },
}

pub struct Plan {
    pub stmts: Vec<Stmt>,
    /// One untimed op list per client.
    pub warmup: Vec<Vec<Op>>,
    /// One timed op list per client.
    pub timed: Vec<Vec<Op>>,
}

impl Plan {
    /// The text client code sends for a read.
    pub fn sql<'a>(&'a self, stmt: u32, nonce: u32, buf: &'a mut String) -> &'a str {
        let base = &self.stmts[stmt as usize].sql;
        if nonce == 0 {
            return base;
        }
        buf.clear();
        buf.push_str(base);
        buf.push_str(" LIMIT ");
        buf.push_str(&(1000 + u64::from(nonce)).to_string());
        buf
    }
}

/// `days` since 1970-01-01 as `YYYY-MM-DD` (Hinnant's civil_from_days).
fn iso_date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

struct Sizes {
    customers: i64,
    orders: i64,
    products: i64,
}

impl Sizes {
    fn of(scale: f64) -> Sizes {
        let s = FedMartConfig {
            scale,
            ..FedMartConfig::default()
        }
        .sizes();
        Sizes {
            customers: s.customers as i64,
            orders: s.orders as i64,
            products: s.products as i64,
        }
    }
}

/// One statement of an analytic class with seed-drawn literals;
/// returns the text and whether its `ORDER BY` is total. Literal ranges
/// are narrow on purpose: the seed changes the text (and with it every
/// cache key and a few rows of every answer), but a class costs the
/// same within ~2% on every seed, so that the spread between seeds is
/// the machine's and not the generator's.
fn analytic_sql(class: &str, rng: &mut Rng, sz: &Sizes) -> (String, bool) {
    match class {
        "filter_scan" => (
            format!(
                "SELECT order_id, cust_id, amount FROM orders WHERE amount > {}.0",
                rng.between(1590, 1610)
            ),
            false,
        ),
        "full_scan_sort" => (
            format!(
                "SELECT order_id, cust_id, product_id, order_day, quantity, amount FROM orders \
                 WHERE order_id >= {} ORDER BY amount DESC, order_id",
                rng.between(0, sz.orders / 200)
            ),
            true,
        ),
        "topk" => (
            format!(
                "SELECT order_id, amount FROM orders WHERE order_id >= {} \
                 ORDER BY amount DESC, order_id LIMIT 20",
                rng.between(0, sz.orders / 200)
            ),
            true,
        ),
        "distinct" => (
            format!(
                "SELECT DISTINCT cust_id, product_id FROM orders WHERE order_day >= DATE '{}'",
                iso_date(rng.between(18_490, 18_510))
            ),
            false,
        ),
        // The columnar source cannot aggregate: rows ship, the
        // mediator groups.
        "agg_mediator" => (
            format!(
                "SELECT product_id, count(*) AS n, sum(amount) AS rev FROM orders \
                 WHERE order_day < DATE '{}' GROUP BY product_id",
                iso_date(rng.between(18_890, 18_910))
            ),
            false,
        ),
        // The relational source can: one small frame ships.
        "agg_pushdown" => (
            format!(
                "SELECT region, count(*) AS n FROM customers WHERE id >= {} GROUP BY region",
                rng.between(0, sz.customers / 50)
            ),
            false,
        ),
        "join2_agg" => (
            format!(
                "SELECT c.region, count(*) AS n, sum(o.amount) AS rev FROM customers c \
                 JOIN orders o ON c.id = o.cust_id WHERE o.order_day >= DATE '{}' GROUP BY c.region",
                iso_date(rng.between(18_090, 18_110))
            ),
            false,
        ),
        "join3_rollup" => (
            format!(
                "SELECT c.region, p.category, sum(o.amount) AS rev FROM customers c \
                 JOIN orders o ON c.id = o.cust_id JOIN products p ON o.product_id = p.product_id \
                 WHERE o.order_day >= DATE '{}' GROUP BY c.region, p.category",
                iso_date(rng.between(18_040, 18_060))
            ),
            false,
        ),
        // ~100 outer keys whatever the scale: balances are uniform
        // over (-500, 50 000).
        "semijoin_selective" => {
            let share = (100.0 + rng.between(-1, 1) as f64) / sz.customers as f64;
            (
                format!(
                    "SELECT c.name, o.order_id, o.amount FROM customers c \
                     JOIN orders o ON c.id = o.cust_id WHERE c.balance > {:.2}",
                    50_000.0 - share * 50_500.0
                ),
                false,
            )
        }
        "kv_join" => (
            format!(
                "SELECT o.order_id, p.pname, p.price FROM orders o \
                 JOIN products p ON o.product_id = p.product_id WHERE o.amount > {}.0",
                rng.between(1790, 1810)
            ),
            false,
        ),
        "point_pk" => (point_pk(rng.between(0, sz.customers - 1)), false),
        other => unreachable!("no analytic template for class {other}"),
    }
}

fn point_pk(id: i64) -> String {
    format!("SELECT id, name, region, tier, balance FROM customers WHERE id = {id}")
}

fn read(stmt: usize) -> Op {
    Op::Read {
        stmt: stmt as u32,
        nonce: 0,
    }
}

/// Literal variants per class and seed. The oracle answers each
/// distinct statement at set-up, which at sf=10 costs up to 0.3 s.
const VARIANTS: usize = 2;

/// `VARIANTS` statements per class; a pass sends each class `weight`
/// times in a seed-shuffled order, each time one of its variants.
fn passes_plan(mix: &[(&str, usize)], passes: usize, seed: u64, sz: &Sizes) -> Plan {
    let mut lits = Rng::stream(seed, 1);
    let mut stmts = Vec::new();
    let mut by_class: Vec<Vec<usize>> = Vec::new();
    for (class, _) in mix {
        let mut ids = Vec::new();
        for _ in 0..VARIANTS {
            let (sql, ordered) = analytic_sql(class, &mut lits, sz);
            ids.push(stmts.len());
            stmts.push(Stmt {
                class: class_id(class),
                sql,
                ordered,
                reads_support: false,
                status_only: false,
            });
        }
        by_class.push(ids);
    }
    let mut order = Rng::stream(seed, 2);
    let pass = |rng: &mut Rng| -> Vec<Op> {
        let mut ops: Vec<Op> = mix
            .iter()
            .enumerate()
            .flat_map(|(c, (_, weight))| vec![c; *weight])
            .map(|c| read(by_class[c][rng.below(VARIANTS)]))
            .collect();
        rng.shuffle(&mut ops);
        ops
    };
    // Warm-up touches every statement once, so no timed op is the
    // first to fault in a code path or a literal's pages.
    let warmup: Vec<Op> = (0..stmts.len()).map(read).collect();
    let timed: Vec<Op> = (0..passes).flat_map(|_| pass(&mut order)).collect();
    Plan {
        stmts,
        warmup: vec![warmup],
        timed: vec![timed],
    }
}

fn hot_plan(units: usize, clients: usize, seed: u64, sz: &Sizes, smoke: bool) -> Plan {
    // (class, weight, domain of base statements). The domains add up
    // to ~680 distinct statements: well past the 256-entry plan cache,
    // few enough for the oracle to answer each at set-up.
    let regions = gis::datagen::fedmart::REGIONS;
    let mut pick = Rng::stream(seed, 1);
    let mut stmts = Vec::new();
    let mut domains: Vec<(f64, Vec<usize>)> = Vec::new();
    let mut add = |weight: f64, class: &str, sqls: Vec<String>| {
        let ids = sqls
            .into_iter()
            .map(|sql| {
                stmts.push(Stmt {
                    class: class_id(class),
                    sql,
                    ordered: false,
                    reads_support: false,
                    status_only: false,
                });
                stmts.len() - 1
            })
            .collect();
        domains.push((weight, ids));
    };
    // Which ids are in a domain, and which of them are hot, is the
    // seed's choice: `shuffle` then Zipf by position.
    let mut sample = |from: i64, n: i64, take: usize| -> Vec<i64> {
        let mut all: Vec<i64> = (from..n).collect();
        pick.shuffle(&mut all);
        all.truncate(take);
        all
    };
    let shrink = if smoke { 10 } else { 1 };
    add(
        0.32,
        "point_pk",
        sample(0, sz.customers, 300 / shrink)
            .into_iter()
            .map(point_pk)
            .collect(),
    );
    add(
        0.32,
        "kv_get",
        sample(0, sz.products, 150 / shrink)
            .into_iter()
            .map(|k| {
                format!("SELECT product_id, pname, category, price FROM products WHERE product_id = {k}")
            })
            .collect(),
    );
    add(
        0.16,
        "cust_orders_agg",
        // FedMart's orders are Zipf over customer ids: the first
        // hundred own most of them. Drawing from the rest keeps the
        // rows behind this class (1 to 8 per customer) alike on every
        // seed.
        sample(sz.customers / 10, sz.customers, 150 / shrink)
            .into_iter()
            .map(|k| {
                format!(
                    "SELECT count(*) AS n, sum(amount) AS total FROM orders WHERE cust_id = {k}"
                )
            })
            .collect(),
    );
    add(
        0.20,
        "tier_rollup",
        sample(0, 80, 80 / shrink)
            .into_iter()
            .map(|i| {
                format!(
                    "SELECT tier, count(*) AS n FROM customers WHERE region = '{}' AND id < {} GROUP BY tier",
                    regions[(i % 8) as usize],
                    (i / 8 + 1) * sz.customers / 10
                )
            })
            .collect(),
    );
    let zipfs: Vec<Zipf> = domains
        .iter()
        .map(|(_, ids)| Zipf::new(ids.len(), HOT_ZIPF_ALPHA))
        .collect();
    let mut nonce = 0u32;
    let mut draw = |rng: &mut Rng, n: usize| -> Vec<Op> {
        (0..n)
            .map(|_| {
                let mut u = rng.unit();
                let c = domains
                    .iter()
                    .position(|(w, _)| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(domains.len() - 1);
                let ids = &domains[c].1;
                if rng.unit() < HOT_SHARE {
                    read(ids[zipfs[c].sample(rng)])
                } else {
                    nonce += 1;
                    Op::Read {
                        stmt: ids[rng.below(ids.len())] as u32,
                        nonce,
                    }
                }
            })
            .collect()
    };
    // The warm-up has to fill the result cache (see the shape).
    let warm_ops = if smoke { 200 } else { 5000 };
    let warmup = (0..clients)
        .map(|c| draw(&mut Rng::stream(seed, 100 + c as u64), warm_ops))
        .collect();
    let timed = (0..clients)
        .map(|c| draw(&mut Rng::stream(seed, 200 + c as u64), units * HOT_BLOCK))
        .collect();
    Plan {
        stmts,
        warmup,
        timed,
    }
}

pub const VIEW_REGION_ROLLUP: &str = "SELECT c.region, count(*) AS n, sum(o.amount) AS rev \
     FROM customers c JOIN orders o ON c.id = o.cust_id GROUP BY c.region";
pub const VIEW_TICKET_LOAD: &str = "SELECT c.tier, count(*) AS n, sum(t.minutes) AS mins \
     FROM customers c JOIN tickets t ON c.id = t.cust_id WHERE t.severity >= 4 GROUP BY c.tier";

fn churn_plan(cycles: usize, seed: u64, sz: &Sizes) -> Plan {
    let mut lits = Rng::stream(seed, 1);
    let mut stmts = Vec::new();
    let mut add = |class: &str, sql: String, ordered: bool| -> usize {
        let reads_support = sql.contains("tickets");
        stmts.push(Stmt {
            class: class_id(class),
            status_only: class == "analyze",
            sql,
            ordered,
            reads_support,
        });
        stmts.len() - 1
    };
    let fedmart = [
        add(
            "dash_fedmart",
            format!(
                "SELECT region, count(*) AS n FROM customers WHERE id >= {} GROUP BY region",
                lits.between(0, sz.customers / 10)
            ),
            false,
        ),
        add(
            "dash_fedmart",
            format!(
                "SELECT product_id, pname, price FROM products WHERE product_id = {}",
                lits.between(0, sz.products - 1)
            ),
            false,
        ),
        add(
            "dash_fedmart",
            format!(
                "SELECT count(*) AS n, sum(amount) AS total FROM orders WHERE cust_id = {}",
                lits.between(sz.customers / 10, sz.customers - 1)
            ),
            false,
        ),
        // All three FedMart sources in one statement: it must keep
        // hitting the result cache while `support` is written to.
        add(
            "dash_fedmart",
            format!(
                "SELECT c.region, p.category, sum(o.amount) AS rev FROM customers c \
                 JOIN orders o ON c.id = o.cust_id JOIN products p ON o.product_id = p.product_id \
                 WHERE o.order_day >= DATE '{}' GROUP BY c.region, p.category",
                iso_date(lits.between(18_040, 18_060))
            ),
            false,
        ),
    ];
    let support = [
        add(
            "dash_support",
            "SELECT status, count(*) AS n FROM tickets GROUP BY status".into(),
            false,
        ),
        add(
            "dash_support",
            format!(
                "SELECT c.region, count(*) AS n, sum(t.minutes) AS mins FROM customers c \
                 JOIN tickets t ON c.id = t.cust_id WHERE t.minutes >= {} GROUP BY c.region",
                lits.between(300, 310)
            ),
            false,
        ),
        add(
            "dash_support",
            "SELECT ticket_id, cust_id, minutes FROM tickets WHERE status = 'open' \
             ORDER BY minutes DESC, ticket_id LIMIT 10"
                .into(),
            true,
        ),
        add(
            "dash_support",
            "SELECT count(*) AS n, max(ticket_id) AS latest FROM tickets".into(),
            false,
        ),
    ];
    let view_fresh = [
        add("view_fresh", VIEW_REGION_ROLLUP.into(), false),
        add(
            "view_fresh",
            format!(
                "{VIEW_REGION_ROLLUP} ORDER BY c.region LIMIT {}",
                lits.between(3, 6)
            ),
            true,
        ),
    ];
    let view_stale = [
        add("view_stale", VIEW_TICKET_LOAD.into(), false),
        add(
            "view_stale",
            format!(
                "{VIEW_TICKET_LOAD} ORDER BY c.tier LIMIT {}",
                lits.between(1, 2)
            ),
            true,
        ),
    ];
    let analyze = add("analyze", "ANALYZE support.tickets".into(), false);

    // The dashboard: 16 reads, every FedMart statement twice.
    let dashboard: Vec<usize> = fedmart
        .iter()
        .chain(&fedmart)
        .chain(&support)
        .chain(&view_fresh)
        .chain(&view_stale)
        .copied()
        .collect();
    let mut next_ticket = sz.customers * TICKETS_PER_CUSTOMER as i64;
    let mut reads_since_write = 0;
    let mut writes_since_analyze = 0;
    let mut build = |rng: &mut Rng, cycles: usize| -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..cycles {
            let mut cycle = dashboard.clone();
            rng.shuffle(&mut cycle);
            for stmt in cycle {
                ops.push(read(stmt));
                reads_since_write += 1;
                if reads_since_write == READS_PER_WRITE {
                    reads_since_write = 0;
                    ops.push(Op::Write {
                        first_id: next_ticket,
                    });
                    next_ticket += WRITE_ROWS as i64;
                    writes_since_analyze += 1;
                    if writes_since_analyze == WRITES_PER_ANALYZE {
                        writes_since_analyze = 0;
                        ops.push(read(analyze));
                    }
                }
            }
        }
        ops
    };
    // Warm-up: ten cycles, i.e. four writes and then one ANALYZE, so
    // every invalidation path has run once, and an eleventh to fill
    // the caches that ANALYZE flushed.
    let warmup = build(&mut Rng::stream(seed, 100), 11);
    let timed = build(&mut Rng::stream(seed, 200), cycles);
    Plan {
        stmts,
        warmup: vec![warmup],
        timed: vec![timed],
    }
}

/// The op lists of one (workload, seed, seconds).
pub fn plan(shape: &Shape, seed: u64, seconds: u64, smoke: bool) -> Plan {
    let sz = Sizes::of(shape.scale_for(smoke));
    let units = shape.units_per_second * seconds as f64;
    // A smoke run is 1% of the ops, for a functional check only.
    let units = (if smoke { units / 100.0 } else { units }).round().max(1.0) as usize;
    match shape.name {
        // 15 statements per pass: percentile boundaries between classes
        // then fall on multiples of 6.67%, i.e. 3.33 points away from
        // both p50 and p90 whatever the classes' order by latency.
        "analytic_lan" => passes_plan(
            &[
                ("filter_scan", 2),
                ("full_scan_sort", 1),
                ("topk", 1),
                ("distinct", 2),
                ("agg_mediator", 2),
                ("agg_pushdown", 1),
                ("join2_agg", 1),
                ("join3_rollup", 1),
                ("semijoin_selective", 1),
                ("kv_join", 2),
                ("point_pk", 1),
            ],
            units,
            seed,
            &sz,
        ),
        "wan_paced" => passes_plan(
            &[
                ("join2_agg", 1),
                ("join3_rollup", 1),
                ("semijoin_selective", 3),
                ("kv_join", 3),
                ("filter_scan", 2),
                ("agg_pushdown", 2),
                ("point_pk", 3),
            ],
            units,
            seed,
            &sz,
        ),
        "serving_hot" => hot_plan(units, shape.clients, seed, &sz, smoke),
        "serving_churn" => churn_plan(units, seed, &sz),
        other => unreachable!("no plan for workload {other}"),
    }
}

/// Row `id` of `support.tickets`: a pure function of the id, so the
/// federation, its oracle twin and every write agree without sharing
/// state. Like FedMart's, this data does not depend on `--seed`.
pub fn ticket_row(id: i64, customers: i64) -> Vec<Value> {
    let mut r = Rng::stream(0x7_1c4e7, id as u64);
    vec![
        Value::Int64(id),
        Value::Int64(r.between(0, customers - 1)),
        Value::Date(r.between(18_000, 18_999) as i32),
        Value::Int64(r.between(1, 5)),
        Value::Utf8(["open", "pending", "closed"][r.below(3)].to_string()),
        Value::Int64(r.between(5, 600)),
    ]
}

/// A federation as one workload sees it.
pub struct Instance {
    pub fed: Arc<Federation>,
    /// The benchmark keeps the handle of the writable source.
    pub support: Option<Arc<RelationalAdapter>>,
    pub customers: i64,
}

/// Builds FedMart at the shape's scale (fixed datagen seed, so byte
/// counts compare across benchmark seeds), plus `support.tickets` for
/// `serving_churn`. `oracle` builds the twin instead: free links, raw
/// frames, every optimisation off.
pub fn build_instance(shape: &Shape, smoke: bool, oracle: bool) -> Result<Instance> {
    let conditions = if oracle {
        NetworkConditions::instant()
    } else {
        (shape.conditions)()
    };
    let fm = build_fedmart(FedMartConfig {
        scale: shape.scale_for(smoke),
        conditions,
        ..FedMartConfig::default()
    })?;
    let fed = fm.federation;
    let customers = fm.sizes.customers as i64;
    let mut support = None;
    if shape.name == "serving_churn" {
        let schema = Schema::new(vec![
            Field::required("ticket_id", DataType::Int64),
            Field::new("cust_id", DataType::Int64),
            Field::new("opened", DataType::Date),
            Field::new("severity", DataType::Int64),
            Field::new("status", DataType::Utf8),
            Field::new("minutes", DataType::Int64),
        ])
        .into_ref();
        let mut tickets = RowStore::new("tickets", schema, Some(0))?;
        for id in 0..customers * TICKETS_PER_CUSTOMER as i64 {
            tickets.insert(ticket_row(id, customers))?;
        }
        let adapter = Arc::new(RelationalAdapter::new("support"));
        adapter.add_table(tickets);
        fed.add_source(adapter.clone() as Arc<dyn SourceAdapter>, conditions)?;
        fed.add_global_identity("tickets", "support", "tickets")?;
        support = Some(adapter);
    }
    if oracle {
        let (optimizer, exec) = gis_qa::config::oracle();
        fed.set_optimizer_options(optimizer);
        fed.set_exec_options(exec);
        fed.set_wire_compression(false);
    } else if shape.name == "serving_churn" {
        // Both refresh on demand: `ANALYZE` moves the catalog version,
        // which marks every compiled view plan stale, and a view that
        // only refreshes manually would never be used again.
        for (name, sql) in [
            ("mv_region_rollup", VIEW_REGION_ROLLUP),
            ("mv_ticket_load", VIEW_TICKET_LOAD),
        ] {
            fed.create_materialized_view_with(name, sql, RefreshPolicy::OnQueryIfStale)?;
        }
    }
    Ok(Instance {
        fed: Arc::new(fed),
        support,
        customers,
    })
}
