//! The engine-configuration matrix the differential runner sweeps.

use gis_core::{ExecOptions, JoinStrategy, OptimizerOptions, QueryCtx};

/// How a configuration is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `Federation::run` call over a clean network.
    Direct,
    /// Through a runtime session with plan + result caching on; the
    /// query runs twice so both the cache-miss and cache-hit paths
    /// are checked.
    Cached,
    /// One call with every network link made flaky (`partial_results`
    /// stays off, so retries either absorb the faults — and the
    /// answer must still be exact — or the query fails cleanly).
    Faulted,
    /// One call under a deliberately tiny per-query memory budget
    /// with a generous spill cap: every hash kernel degrades to its
    /// spilled path, and the answer must still be bit-identical to
    /// the in-memory oracle.
    MemTight,
    /// Tiny budget with spilling disabled (`spill_cap` 0): queries
    /// the governor kills fail cleanly with a `MEM` error (absorbed
    /// like fault-injected failures); any query that survives must
    /// still be exact.
    MemStarved,
    /// One call with wire compression explicitly forced on (the
    /// oracle always runs over raw legacy frames, so every run in
    /// this mode differentials the adaptive codecs and the
    /// Bloom-semijoin protocol against uncompressed shipping).
    Compressed,
    /// One call against a twin federation that ran `ANALYZE` over
    /// every source before the sweep: the optimizer plans from real
    /// histograms/NDV sketches instead of magic constants. Plans may
    /// change; answers must stay bit-identical to the oracle.
    Analyzed,
}

/// One engine configuration under test.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Short name used in reports and corpus annotations.
    pub name: &'static str,
    /// Optimizer rewrites for this configuration.
    pub optimizer: OptimizerOptions,
    /// Execution knobs for this configuration.
    pub exec: ExecOptions,
    /// Drive mode.
    pub mode: Mode,
}

impl EngineConfig {
    /// This configuration's options as an ad-hoc query envelope.
    pub fn ctx(&self) -> QueryCtx<'static> {
        QueryCtx::new(self.optimizer, self.exec)
    }
}

/// The reference oracle: every optimization off, ship-whole joins,
/// no caches, no view matching.
pub fn oracle() -> (OptimizerOptions, ExecOptions) {
    let exec = ExecOptions {
        view_matching: false,
        ..ExecOptions::naive()
    };
    (OptimizerOptions::naive(), exec)
}

/// The full differential matrix: each configuration turns on a
/// different slice of the stack, so a divergence's config name points
/// at the guilty subsystem.
pub fn matrix() -> Vec<EngineConfig> {
    let base = ExecOptions {
        view_matching: false,
        ..ExecOptions::default()
    };
    vec![
        // All logical rewrites + source pushdown, simplest join path.
        EngineConfig {
            name: "pushdown",
            optimizer: OptimizerOptions::default(),
            exec: ExecOptions {
                join_strategy: JoinStrategy::ShipWhole,
                ..base
            },
            mode: Mode::Direct,
        },
        // SDD-1-style semijoin reduction.
        EngineConfig {
            name: "semijoin",
            optimizer: OptimizerOptions::default(),
            exec: ExecOptions {
                join_strategy: JoinStrategy::SemiJoin,
                ..base
            },
            mode: Mode::Direct,
        },
        // R*-style bind join with a deliberately awkward batch size.
        EngineConfig {
            name: "bindjoin",
            optimizer: OptimizerOptions::default(),
            exec: ExecOptions {
                join_strategy: JoinStrategy::BindJoin,
                bind_batch_size: 7,
                ..base
            },
            mode: Mode::Direct,
        },
        // Runtime result cache: miss then hit must both be exact.
        EngineConfig {
            name: "cache",
            optimizer: OptimizerOptions::default(),
            exec: base,
            mode: Mode::Cached,
        },
        // Materialized-view matching against full-table views.
        EngineConfig {
            name: "views",
            optimizer: OptimizerOptions::default(),
            exec: ExecOptions {
                view_matching: true,
                ..base
            },
            mode: Mode::Direct,
        },
        // Full default stack under a flaky network.
        EngineConfig {
            name: "flaky",
            optimizer: OptimizerOptions::default(),
            exec: ExecOptions {
                partial_results: false,
                ..base
            },
            mode: Mode::Faulted,
        },
        // Spill-everything: a 1-byte budget forces every hash kernel
        // through the grace-hash disk path. Divergence policy is the
        // strict one.
        EngineConfig {
            name: "mem_tight",
            optimizer: OptimizerOptions::default(),
            exec: base,
            mode: Mode::MemTight,
        },
        // Starvation: same 1-byte budget, spilling disabled, so the
        // governor kills anything that needs real memory. Kills are
        // expected; survivors must be exact.
        EngineConfig {
            name: "mem_starved",
            optimizer: OptimizerOptions::default(),
            exec: base,
            mode: Mode::MemStarved,
        },
        // Adaptive per-column wire codecs + Bloom-filter semijoins,
        // checked against the raw-frame oracle: every byte-saving
        // layer must be bit-transparent. Semijoin forced so the
        // filter-vs-keys choice actually fires on capable sources.
        EngineConfig {
            name: "compressed",
            optimizer: OptimizerOptions::default(),
            exec: ExecOptions {
                join_strategy: JoinStrategy::SemiJoin,
                ..base
            },
            mode: Mode::Compressed,
        },
        // Stats-driven planning: the harness ANALYZEs a twin
        // federation up front, so selectivity and join cardinality
        // come from collected sketches. Whatever plan the richer cost
        // model picks, the rows must not move.
        EngineConfig {
            name: "analyzed",
            optimizer: OptimizerOptions::default(),
            exec: base,
            mode: Mode::Analyzed,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_required_configs() {
        let m = matrix();
        assert!(m.len() >= 6, "issue requires >= 6 engine configs");
        assert!(m.iter().any(|c| c.mode == Mode::Faulted));
        assert!(m.iter().any(|c| c.mode == Mode::Cached));
        assert!(m.iter().any(|c| c.exec.view_matching));
        assert!(m.iter().any(|c| c.mode == Mode::MemTight));
        assert!(m.iter().any(|c| c.mode == Mode::MemStarved));
        assert!(m.iter().any(|c| c.mode == Mode::Compressed));
        assert!(m.iter().any(|c| c.name == "compressed"));
        assert!(m.iter().any(|c| c.mode == Mode::Analyzed));
        assert!(m.iter().any(|c| c.name == "analyzed"));
    }

    #[test]
    fn oracle_is_fully_naive() {
        let (opt, exec) = oracle();
        assert!(!opt.predicate_pushdown);
        assert!(!exec.view_matching);
    }
}
