//! The differential runner: one query, every configuration, one
//! verdict.
//!
//! The reference answer comes from the fully-naive oracle (no
//! rewrites, ship-whole joins, no caches or views).
//! Each matrix configuration must reproduce it bit-for-bit after
//! order normalization (rows sorted by [`Value`]'s total order).
//! Float aggregates are the one sanctioned exception: join-strategy
//! changes reorder additions, so two floats compare equal within one
//! part in 10⁹ — everything else, including NaN and string bytes,
//! must match exactly.
//!
//! Order normalization would hide a wrong `ORDER BY` whenever no
//! `LIMIT` cuts the answer, so every answer — the oracle's included —
//! is first checked as *emitted*: its sequence must be non-decreasing
//! under the statement's sort keys
//! ([`gis_types::ordering::is_sorted`], the reference comparison, not
//! the kernel under test).

use crate::config::{matrix, oracle, EngineConfig, Mode};
use crate::generator::QueryGen;
use crate::shrink;
use gis_core::{Federation, QueryCtx};
use gis_datagen::{build_fedmart, FedMart, FedMartConfig};
use gis_net::BreakerConfig;
use gis_runtime::{Runtime, RuntimeConfig, Session};
use gis_sql::ast::{Expr, OrderByExpr, Query, Statement};
use gis_sql::unparse::query_to_sql;
use gis_types::mem::MemBudget;
use gis_types::ordering::is_sorted;
use gis_types::{Batch, Schema, SortKey, Value};
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-message drop probability used by the `flaky` configuration.
/// With the default 3-attempt retry policy almost every query still
/// succeeds — and then must be exact — while a handful per thousand
/// exhaust retries and must fail cleanly instead of degrading.
const FLAKY_DROP_P: f64 = 0.1;

/// The per-query soft limit used by the memory-pressure
/// configurations: one byte, so every tracked reservation exceeds it
/// immediately — `mem_tight` then spills everything, `mem_starved`
/// (spill cap 0) kills everything that needs real memory.
const TIGHT_BUDGET: u64 = 1;

/// `mem_tight`'s spill headroom — generous, so the only degradation
/// in play is memory→disk, never disk exhaustion.
const TIGHT_SPILL_CAP: u64 = 1 << 30;

/// Outcome of running one query under one configuration: sorted rows
/// or an error string.
pub type RunRows = Result<Vec<Vec<Value>>, String>;

/// Error prefix of an answer emitted out of `ORDER BY` sequence. Never
/// excused: not as an oracle error (the query is fine, the sort is
/// not), not as a fault or a governor kill.
const MISORDERED: &str = "ORDER BY sequence violated";

/// One configuration's result for one query.
#[derive(Debug)]
pub struct ConfigRun {
    /// Configuration name.
    pub config: &'static str,
    /// Whether the run was fault-injected.
    pub faulted: bool,
    /// Whether the run executed under a kill-on-excess memory budget,
    /// making `MEM` errors expected rather than divergences.
    pub starved: bool,
    /// Sorted rows, or the error.
    pub outcome: RunRows,
}

/// Everything observed for one query across the matrix.
#[derive(Debug)]
pub struct RunReport {
    /// The SQL that was executed.
    pub sql: String,
    /// The oracle's sorted rows (or its error).
    pub oracle: RunRows,
    /// One entry per matrix configuration.
    pub runs: Vec<ConfigRun>,
}

/// A confirmed divergence between the oracle and one configuration.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The diverging configuration.
    pub config: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// A divergence found during a fuzz run, with its shrunk reproducer.
#[derive(Debug)]
pub struct FoundDivergence {
    /// Generator seed that produced the query.
    pub seed: u64,
    /// First diverging configuration.
    pub config: &'static str,
    /// The original generated SQL.
    pub sql: String,
    /// The auto-shrunk SQL (equal to `sql` when shrinking is off).
    pub shrunk_sql: String,
    /// Mismatch description from the shrunk query.
    pub detail: String,
}

/// Aggregated results of a seed-range fuzz run.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Queries generated and executed.
    pub queries_run: u64,
    /// Queries skipped because the oracle itself errored.
    pub oracle_errors: u64,
    /// Fault-injected runs that failed cleanly (not divergences).
    pub fault_errors: u64,
    /// Memory-starved runs the governor killed with a `MEM` error
    /// (expected under `mem_starved`, not divergences).
    pub mem_kills: u64,
    /// Queries whose *oracle* answer was emitted out of `ORDER BY`
    /// sequence (divergences no configuration column can hold).
    pub oracle_misordered: u64,
    /// `(config name, runs, divergences)` per configuration.
    pub per_config: Vec<(&'static str, u64, u64)>,
    /// Every divergence found, shrunk.
    pub divergences: Vec<FoundDivergence>,
}

impl DiffReport {
    /// Total divergences across all configurations.
    pub fn total_divergences(&self) -> u64 {
        self.oracle_misordered + self.per_config.iter().map(|(_, _, d)| d).sum::<u64>()
    }

    /// Multi-line textual report for CI logs.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "gis-qa: {} queries, {} oracle errors (skipped), {} fault-absorbed failures, {} governor kills",
            self.queries_run, self.oracle_errors, self.fault_errors, self.mem_kills
        );
        let _ = writeln!(s, "{:<12} {:>8} {:>12}", "config", "runs", "divergences");
        for (name, runs, div) in &self.per_config {
            let _ = writeln!(s, "{name:<12} {runs:>8} {div:>12}");
        }
        if self.oracle_misordered > 0 {
            let _ = writeln!(
                s,
                "{:<12} {:>8} {:>12}",
                "oracle", self.queries_run, self.oracle_misordered
            );
        }
        for d in self.divergences.iter().take(10) {
            let _ = writeln!(
                s,
                "\ndivergence seed={} config={}\n  sql:    {}\n  shrunk: {}\n  detail: {}",
                d.seed, d.config, d.sql, d.shrunk_sql, d.detail
            );
        }
        if self.divergences.len() > 10 {
            let _ = writeln!(s, "... and {} more", self.divergences.len() - 10);
        }
        s
    }
}

/// Relative tolerance for float compares (reassociated aggregation).
const FLOAT_REL_EPS: f64 = 1e-9;

fn value_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            (x.is_nan() && y.is_nan())
                || x == y
                || (x - y).abs() <= FLOAT_REL_EPS * x.abs().max(y.abs())
        }
        // Value's PartialEq is a total order (NaN == NaN), fine here.
        _ => a == b,
    }
}

fn rows_diff(oracle: &[Vec<Value>], got: &[Vec<Value>]) -> Option<String> {
    if oracle.len() != got.len() {
        return Some(format!(
            "row count: oracle {} vs {} rows",
            oracle.len(),
            got.len()
        ));
    }
    for (i, (a, b)) in oracle.iter().zip(got.iter()).enumerate() {
        let same = a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| value_equal(x, y));
        if !same {
            return Some(format!("row {i}: oracle {a:?} vs {b:?}"));
        }
    }
    None
}

/// The differential harness: a seeded FedMart federation, a runtime
/// for the cached configuration, and the configuration matrix.
pub struct Harness {
    fed: Arc<Federation>,
    /// A twin federation (same seeded data) that ran `ANALYZE` over
    /// every source up front: the `analyzed` configuration plans from
    /// collected statistics while the oracle keeps magic constants.
    analyzed_fed: Arc<Federation>,
    cached_session: Session,
    configs: Vec<EngineConfig>,
    // Keep the runtime alive for the session's lifetime.
    _runtime: Runtime,
}

impl Harness {
    /// Builds the harness on a `FedMartConfig::tiny()` federation:
    /// breakers disabled (fault state must not leak across runs) and
    /// three full-table materialized views registered for the `views`
    /// configuration.
    pub fn new() -> Result<Harness, String> {
        let FedMart { federation, .. } =
            build_fedmart(FedMartConfig::tiny()).map_err(|e| e.to_string())?;
        // A breaker opened by the flaky configuration would make the
        // *next* query fail for reasons unrelated to its plan.
        federation.configure_breaker(BreakerConfig::disabled());
        for (view, sql) in [
            ("mv_customers", "SELECT * FROM customers"),
            ("mv_orders", "SELECT * FROM orders"),
            ("mv_products", "SELECT * FROM products"),
        ] {
            federation
                .create_materialized_view(view, sql)
                .map_err(|e| format!("creating {view}: {e}"))?;
        }
        let fed = Arc::new(federation);
        // The twin: FedMart's generator is seed-deterministic, so the
        // analyzed federation holds bit-identical data — only its
        // catalog statistics (and therefore its plans) differ.
        let FedMart {
            federation: analyzed,
            ..
        } = build_fedmart(FedMartConfig::tiny()).map_err(|e| e.to_string())?;
        analyzed.configure_breaker(BreakerConfig::disabled());
        analyzed
            .query("ANALYZE")
            .map_err(|e| format!("pre-sweep ANALYZE: {e}"))?;
        let analyzed_fed = Arc::new(analyzed);
        let runtime = Runtime::new(fed.clone(), RuntimeConfig::default().with_workers(2));
        let cached = matrix()
            .into_iter()
            .find(|c| c.mode == Mode::Cached)
            .expect("matrix always has a cached config");
        let mut cached_session = runtime.session_with(cached.optimizer, cached.exec);
        cached_session.set_caching(true);
        Ok(Harness {
            fed,
            analyzed_fed,
            cached_session,
            configs: matrix(),
            _runtime: runtime,
        })
    }

    /// The configuration matrix this harness sweeps.
    pub fn configs(&self) -> &[EngineConfig] {
        &self.configs
    }

    /// The underlying federation (corpus tests use it directly).
    pub fn federation(&self) -> &Arc<Federation> {
        &self.fed
    }

    fn run_direct(&self, sql: &str, cfg: &EngineConfig, order: &[OrderByExpr]) -> RunRows {
        run_rows(&self.fed, sql, &cfg.ctx(), order)
    }

    fn run_cached(&self, sql: &str, order: &[OrderByExpr]) -> RunRows {
        // Miss, then hit: both paths must return the same rows.
        let miss = self
            .cached_session
            .query(sql)
            .map_err(|e| e.to_string())
            .and_then(|r| checked_rows(&r.batch, order))?;
        let hit = self
            .cached_session
            .query(sql)
            .map_err(|e| e.to_string())
            .and_then(|r| checked_rows(&r.batch, order))?;
        if let Some(d) = rows_diff(&miss, &hit) {
            return Err(format!("cache hit disagrees with miss: {d}"));
        }
        Ok(hit)
    }

    fn run_budgeted(
        &self,
        sql: &str,
        cfg: &EngineConfig,
        spill_cap: u64,
        order: &[OrderByExpr],
    ) -> RunRows {
        let budget = MemBudget::standalone(TIGHT_BUDGET, spill_cap);
        let ctx = QueryCtx {
            budget: &budget,
            ..cfg.ctx()
        };
        run_rows(&self.fed, sql, &ctx, order)
    }

    fn run_faulted(
        &self,
        sql: &str,
        cfg: &EngineConfig,
        seed: u64,
        order: &[OrderByExpr],
    ) -> RunRows {
        for (i, link) in self.fed.all_links().iter().enumerate() {
            link.faults()
                .flaky(seed.wrapping_mul(31).wrapping_add(i as u64), FLAKY_DROP_P);
        }
        let out = self.run_direct(sql, cfg, order);
        for link in self.fed.all_links() {
            link.faults().flaky(0, 0.0);
        }
        out
    }

    /// Runs `sql` through the oracle and every configuration.
    /// `fault_seed` deterministically seeds the flaky run.
    pub fn run_matrix(&self, sql: &str, fault_seed: u64) -> RunReport {
        let (opt, exec) = oracle();
        let order = match gis_sql::parse(sql) {
            Ok(Statement::Query(q)) => q.order_by,
            _ => Vec::new(),
        };
        let order = order.as_slice();
        // The oracle ships raw legacy frames: every matrix run (the
        // federation default is compression on) then differentials
        // the adaptive wire codecs for free, on every query.
        self.fed.set_wire_compression(false);
        let oracle_rows = run_rows(&self.fed, sql, &QueryCtx::new(opt, exec), order);
        self.fed.set_wire_compression(true);
        let runs = self
            .configs
            .iter()
            .map(|cfg| ConfigRun {
                config: cfg.name,
                faulted: cfg.mode == Mode::Faulted,
                starved: cfg.mode == Mode::MemStarved,
                outcome: match cfg.mode {
                    Mode::Direct => self.run_direct(sql, cfg, order),
                    Mode::Cached => self.run_cached(sql, order),
                    Mode::Faulted => self.run_faulted(sql, cfg, fault_seed, order),
                    Mode::MemTight => self.run_budgeted(sql, cfg, TIGHT_SPILL_CAP, order),
                    Mode::MemStarved => self.run_budgeted(sql, cfg, 0, order),
                    Mode::Compressed => {
                        // The federation default, asserted explicitly:
                        // the oracle above toggled it off and back on.
                        self.fed.set_wire_compression(true);
                        self.run_direct(sql, cfg, order)
                    }
                    Mode::Analyzed => run_rows(&self.analyzed_fed, sql, &cfg.ctx(), order),
                },
            })
            .collect();
        RunReport {
            sql: sql.to_string(),
            oracle: oracle_rows,
            runs,
        }
    }

    /// Divergence policy over a matrix report:
    /// * oracle error → the query is skipped (nothing to compare);
    /// * fault-injected error → clean failure, not a divergence;
    /// * `MEM` error in a starved run → expected governor kill;
    /// * an answer out of `ORDER BY` sequence — the oracle's too —,
    ///   any other error, or any row mismatch → divergence.
    pub fn divergences(report: &RunReport) -> Vec<Divergence> {
        let expected = match &report.oracle {
            Ok(rows) => rows,
            Err(e) if e.starts_with(MISORDERED) => {
                return vec![Divergence {
                    config: "oracle",
                    detail: e.clone(),
                }]
            }
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        for run in &report.runs {
            match &run.outcome {
                Err(e) if run.faulted && !e.starts_with(MISORDERED) => {}
                Err(e) if run.starved && e.starts_with("MEM:") => {}
                Err(e) => out.push(Divergence {
                    config: run.config,
                    detail: format!("errored where oracle succeeded: {e}"),
                }),
                Ok(rows) => {
                    if let Some(d) = rows_diff(expected, rows) {
                        out.push(Divergence {
                            config: run.config,
                            detail: d,
                        });
                    }
                }
            }
        }
        out
    }

    /// True when `q` still diverges somewhere — the shrinker's
    /// "still failing" predicate.
    fn query_diverges(&self, q: &Query, fault_seed: u64) -> bool {
        let report = self.run_matrix(&query_to_sql(q), fault_seed);
        !Self::divergences(&report).is_empty()
    }

    /// Fuzzes seeds `start..start + count`, shrinking any divergence
    /// when `do_shrink` is set.
    pub fn run_seeds(&self, start: u64, count: u64, do_shrink: bool) -> DiffReport {
        let mut report = DiffReport {
            per_config: self.configs.iter().map(|c| (c.name, 0, 0)).collect(),
            ..DiffReport::default()
        };
        for seed in start..start.saturating_add(count) {
            let q = QueryGen::generate(seed);
            let sql = query_to_sql(&q);
            let run = self.run_matrix(&sql, seed);
            report.queries_run += 1;
            let divs = Self::divergences(&run);
            if run.oracle.is_err() && divs.is_empty() {
                report.oracle_errors += 1;
                continue;
            }
            report.oracle_misordered += divs.iter().filter(|d| d.config == "oracle").count() as u64;
            report.fault_errors += run
                .runs
                .iter()
                .filter(|r| r.faulted && r.outcome.is_err())
                .count() as u64;
            report.mem_kills += run
                .runs
                .iter()
                .filter(|r| r.starved && matches!(&r.outcome, Err(e) if e.starts_with("MEM:")))
                .count() as u64;
            for (name, runs, d) in report.per_config.iter_mut() {
                *runs += 1;
                if divs.iter().any(|dv| dv.config == *name) {
                    *d += 1;
                }
            }
            if let Some(first) = divs.first() {
                let shrunk = if do_shrink {
                    shrink::shrink_query(&q, &mut |cand| self.query_diverges(cand, seed))
                } else {
                    q.clone()
                };
                let shrunk_sql = query_to_sql(&shrunk);
                let detail = Self::divergences(&self.run_matrix(&shrunk_sql, seed))
                    .first()
                    .map(|d| d.detail.clone())
                    .unwrap_or_else(|| first.detail.clone());
                report.divergences.push(FoundDivergence {
                    seed,
                    config: first.config,
                    sql,
                    shrunk_sql,
                    detail,
                });
            }
        }
        report
    }
}

/// The leading `ORDER BY` keys that name an output column, by ordinal
/// or by unqualified output name (the binder resolves both against the
/// output first). A sequence sorted under the whole key list is sorted
/// under any prefix of it, so stopping at the first key that is an
/// expression or an input-only column loses strength, not soundness.
fn output_sort_keys(order: &[OrderByExpr], schema: &Schema) -> Vec<SortKey> {
    order
        .iter()
        .map_while(|o| {
            let column = match &o.expr {
                Expr::Literal(Value::Int64(k)) => {
                    let c = usize::try_from(k.checked_sub(1)?).ok()?;
                    (c < schema.len()).then_some(c)
                }
                Expr::Column {
                    qualifier: None,
                    name,
                } => schema.index_of(None, name).ok(),
                _ => None,
            }?;
            Some(SortKey::new(column, o.asc, o.nulls_first.unwrap_or(true)))
        })
        .collect()
}

/// One statement through `fed` under `ctx`, as checked canonical rows.
fn run_rows(fed: &Federation, sql: &str, ctx: &QueryCtx<'_>, order: &[OrderByExpr]) -> RunRows {
    fed.run(sql, ctx)
        .map_err(|e| e.to_string())
        .and_then(|r| checked_rows(&r.batch, order))
}

/// The emitted answer in canonical (sorted) form — after checking that
/// it was emitted in `ORDER BY` sequence.
fn checked_rows(batch: &Batch, order: &[OrderByExpr]) -> RunRows {
    let keys = output_sort_keys(order, batch.schema());
    if !is_sorted(batch, &keys) {
        return Err(format!(
            "{MISORDERED}: rows are not non-decreasing under {keys:?}"
        ));
    }
    Ok(sorted_rows(batch.to_rows()))
}

fn sorted_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    // Value implements a total order (NaN sorts deterministically),
    // so sorting gives a canonical form for multiset comparison.
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_tolerance_is_tight() {
        assert!(value_equal(
            &Value::Float64(1.0),
            &Value::Float64(1.0 + 1e-13)
        ));
        assert!(!value_equal(&Value::Float64(1.0), &Value::Float64(1.0001)));
        assert!(value_equal(
            &Value::Float64(f64::NAN),
            &Value::Float64(f64::NAN)
        ));
        assert!(value_equal(&Value::Float64(0.0), &Value::Float64(-0.0)));
        assert!(!value_equal(
            &Value::Utf8("a".into()),
            &Value::Utf8("b".into())
        ));
    }

    #[test]
    fn rows_diff_reports_first_mismatch() {
        let a = vec![vec![Value::Int64(1)], vec![Value::Int64(2)]];
        let b = vec![vec![Value::Int64(1)], vec![Value::Int64(3)]];
        assert!(rows_diff(&a, &a.clone()).is_none());
        let d = rows_diff(&a, &b).unwrap();
        assert!(d.contains("row 1"), "{d}");
        assert!(rows_diff(&a, &a[..1]).unwrap().contains("row count"));
    }

    fn order_by(sql: &str) -> Vec<OrderByExpr> {
        match gis_sql::parse(sql).unwrap() {
            Statement::Query(q) => q.order_by,
            other => panic!("not a query: {other:?}"),
        }
    }

    fn answer(rows: &[(i64, Option<f64>)]) -> Batch {
        use gis_types::{DataType, Field};
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(id, r)| vec![Value::Int64(id), r.map_or(Value::Null, Value::Float64)])
            .collect();
        Batch::from_rows(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("r", DataType::Float64),
            ])
            .into_ref(),
            &rows,
        )
        .unwrap()
    }

    #[test]
    fn sequence_check_sees_what_the_multiset_compare_cannot() {
        let order = order_by("SELECT id, r FROM t ORDER BY r DESC NULLS LAST, 1");
        let good = answer(&[
            (2, Some(f64::NAN)),
            (1, Some(2.0)),
            (3, Some(2.0)),
            (0, None),
        ]);
        let swapped = answer(&[
            (2, Some(f64::NAN)),
            (3, Some(2.0)),
            (1, Some(2.0)),
            (0, None),
        ]);
        let rows = checked_rows(&good, &order).unwrap();
        // Same multiset, wrong sequence: only the new check objects.
        assert_eq!(sorted_rows(swapped.to_rows()), rows);
        let err = checked_rows(&swapped, &order).unwrap_err();
        assert!(err.starts_with(MISORDERED), "{err}");
        // No ORDER BY, nothing to check.
        assert!(checked_rows(&swapped, &[]).is_ok());
    }

    #[test]
    fn sort_keys_stop_at_the_first_non_output_key() {
        let schema = answer(&[]).schema().clone();
        let keys = |sql: &str| output_sort_keys(&order_by(sql), &schema);
        assert_eq!(
            keys("SELECT id, r FROM t ORDER BY 2 DESC, id"),
            vec![SortKey::desc(1), SortKey::asc(0)]
        );
        assert_eq!(
            keys("SELECT id, r FROM t ORDER BY r NULLS LAST, t.id, 1"),
            vec![SortKey::asc(1).with_nulls_first(false)]
        );
        assert_eq!(keys("SELECT id, r FROM t ORDER BY id + 1, r"), vec![]);
        assert_eq!(keys("SELECT id, r FROM t ORDER BY 3, 0"), vec![]);
    }

    #[test]
    fn a_misordered_oracle_is_a_divergence_not_a_skip() {
        let report = RunReport {
            sql: String::new(),
            oracle: Err(format!("{MISORDERED}: test")),
            runs: Vec::new(),
        };
        let divs = Harness::divergences(&report);
        assert_eq!(divs.len(), 1);
        assert_eq!(divs[0].config, "oracle");
        let skipped = RunReport {
            oracle: Err("ANALYSIS: unknown column".into()),
            ..report
        };
        assert!(Harness::divergences(&skipped).is_empty());
    }
}
