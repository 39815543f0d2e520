//! `bench_e2e` — the repository's measurement spine.
//!
//! One command generates four seeded workloads, drives the engine only
//! through its public API, verifies every answer against an
//! all-optimisations-off oracle, and prints ten end-to-end metrics per
//! workload plus, from a separate traced run, the per-layer numbers.
//! See `README.md` in this directory.

mod compare;
mod json;
mod rng;
mod run;
mod spec;
mod sys;
mod trace;
mod verify;
mod workload;

use json::{obj, Json};
use run::{median, World};
use spec::{END_TO_END, FAILED_SHARE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::SHAPES;

/// What `--seconds` defaults to, and what `BENCHMARK.json` passes.
const DEFAULT_SECONDS: u64 = 12;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str = "\
usage: bench_e2e [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
                 [--out <dir>] [--smoke]
       bench_e2e --list
       bench_e2e --compare <dir-a> <dir-b>

Without --workload every workload runs, each in a process of its own.
The last line of standard output is one JSON object: the end-to-end
metrics with --trace 0 (the default), the per-layer metrics with --trace 1.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

enum Command {
    Run(Args),
    List,
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        // Inside the build directory: git-ignored, and inside the
        // checkout wherever the benchmark is run from.
        out: Path::new(&std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
            .join("bench_e2e"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--workload" => {
                let name = value()?;
                if workload::shape(name).is_none() {
                    return Err(format!("unknown workload '{name}' (see --list)"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out = value()?.into(),
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Command::Run(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Err(why) => {
            if !why.is_empty() {
                eprintln!("bench_e2e: {why}\n");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::List) => {
            spec::print_list();
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(a, b)) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(why) => {
                eprintln!("bench_e2e: {why}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(args)) => {
            // EXPERIMENTS.md's wall-clock tables were captured in
            // debug builds; this benchmark refuses to add to them.
            if cfg!(debug_assertions) {
                eprintln!("bench_e2e: refusing to measure a debug build; use --release");
                return ExitCode::from(2);
            }
            match &args.workload {
                Some(name) => match run_workload(name, &args) {
                    Ok(code) => code,
                    Err(why) => {
                        eprintln!("bench_e2e: {why}");
                        ExitCode::from(2)
                    }
                },
                None => run_all(&argv),
            }
        }
    }
}

/// One process per workload, so that peak RSS, CPU time and set-up
/// time belong to one workload each.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut worst = ExitCode::SUCCESS;
    for w in &SHAPES {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", w.name])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            worst = ExitCode::from(1);
        }
    }
    worst
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

fn run_workload(name: &str, args: &Args) -> Result<ExitCode, String> {
    let shape = workload::shape(name).expect("workload names are checked on entry");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let pinned = shape.one_core && sys::pin_to_first_core();
    let plan = workload::plan(shape, args.seed, args.seconds, args.smoke);

    // Set up several times and report the median: one set-up is one
    // sample, and `setup_s` has a bound like every other metric.
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut totals = Vec::new();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut world = None;
    for _ in 0..reps {
        drop(world.take());
        let w = World::set_up(shape, &plan, args.smoke, &args.out).map_err(|e| e.to_string())?;
        totals.push(w.setup_s());
        for (part, v) in parts.iter_mut().zip([w.build_s, w.oracle_s, w.warmup_s]) {
            part.push(v);
        }
        world = Some(w);
    }
    let world = world.expect("at least one set-up");
    let measured = run::measure(&world, median(totals), parts.map(median));

    let catalogue = spec::per_layer();
    let mut values = measured.values;
    if args.trace {
        let traced = trace::traced_run(&world);
        values.extend(traced.metrics);
        let path = args.out.join(format!("{name}.trace.json"));
        std::fs::write(&path, traced.file.pretty(2))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    drop(world);

    // ---- the report ----------------------------------------------------
    let ops_by_class: Vec<(String, Json)> = measured
        .classes
        .iter()
        .map(|c| (c.name.to_string(), c.count.into()))
        .collect();
    println!(
        "bench_e2e  workload={name} seed={} seconds={} samples={} smoke={} nproc={} {}",
        args.seed,
        args.seconds,
        measured.attempted,
        args.smoke,
        sys::nproc(),
        env!("BENCH_RUSTC_VERSION"),
    );
    println!("\nend-to-end (tracing off):");
    for m in &END_TO_END {
        println!("  {:<28} {:>16.6} {}", m.name, values[m.name], m.unit);
    }
    println!(
        "\nper-layer{}:",
        if args.trace {
            ""
        } else {
            " (counts only; --trace 1 adds the timed ones)"
        }
    );
    for m in &catalogue {
        if let Some(value) = values.get(m.name) {
            println!("  {:<40} {:>16.6} {}", m.name, value, m.unit);
        }
    }
    println!("\nclasses (share of timed seconds):");
    for c in &measured.classes {
        println!(
            "  {:<20} n={:<7} p50={:>10.4} ms  share={:.3}",
            c.name, c.count, c.p50_ms, c.time_share
        );
    }
    println!("\nshape guards:");
    for g in &measured.guards {
        println!(
            "  {:<40} {:>12.4}  {:<16} {}",
            g.name,
            g.value,
            g.rule,
            if g.ok { "ok" } else { "VIOLATED" }
        );
    }

    let end_to_end: Vec<(String, Json)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), metric(values[m.name], m.unit)))
        .collect();
    let layers: Vec<(String, Json)> = catalogue
        .iter()
        .filter_map(|m| Some((m.name.to_string(), metric(*values.get(m.name)?, m.unit))))
        .collect();
    let file = obj([
        ("benchmark", "bench_e2e".into()),
        ("workload", name.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("smoke", args.smoke.into()),
        ("traced", args.trace.into()),
        (
            "env",
            obj([
                ("nproc", sys::nproc().into()),
                ("rustc", env!("BENCH_RUSTC_VERSION").into()),
            ]),
        ),
        (
            "config",
            obj([
                ("scale_factor", shape.scale_for(args.smoke).into()),
                ("clients", shape.clients.into()),
                ("runtime_workers", shape.workers.into()),
                ("pace_permille", shape.pace_permille.into()),
                ("pinned_to_one_core", pinned.into()),
                ("distinct_statements", plan.stmts.len().into()),
                ("ops", plan.timed.iter().map(Vec::len).sum::<usize>().into()),
                ("ops_by_class", Json::Obj(ops_by_class)),
                ("setup_repetitions", reps.into()),
            ]),
        ),
        ("attempted", measured.attempted.into()),
        ("failed", measured.failed.into()),
        ("end_to_end", Json::Obj(end_to_end.clone())),
        ("per_layer", Json::Obj(layers.clone())),
        (
            "guards",
            Json::Arr(
                measured
                    .guards
                    .iter()
                    .map(|g| {
                        obj([
                            ("name", g.name.as_str().into()),
                            ("value", g.value.into()),
                            ("rule", g.rule.as_str().into()),
                            ("ok", g.ok.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join(format!("{name}.json"));
    std::fs::write(&path, file.pretty(3)).map_err(|e| format!("{}: {e}", path.display()))?;

    // ---- the driver's line ---------------------------------------------
    // `failed_share` can be 0 and so is not among BENCHMARK.json's
    // metrics; `failed` / `attempted` carry it.
    let reported = if args.trace {
        layers
    } else {
        end_to_end
            .into_iter()
            .filter(|(k, _)| k != FAILED_SHARE)
            .collect()
    };
    let guards_hold = measured.guards.iter().all(|g| g.ok);
    let line = obj([
        ("correct", (measured.failed == 0).into()),
        ("attempted", measured.attempted.into()),
        ("failed", measured.failed.into()),
        ("metrics", Json::Obj(reported)),
    ]);
    println!("\n{}", line.compact());
    // A smoke run is too short for its shape to mean anything.
    Ok(if measured.failed > 0 || (!guards_hold && !args.smoke) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
