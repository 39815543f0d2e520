//! Shape-guard headroom of an end-to-end benchmark run.
//!
//! `bench_e2e` exits 1 when a workload's shape guard is violated, and
//! the pipeline that pairs a change with its parent then reports only
//! `run_failed`. A guard that *passes* with almost nothing to spare is
//! the warning that comes before: one noisy run away from failing.
//! This reads the result files of a full-length run
//! (`target/bench_e2e/<workload>.json` unless a directory is given),
//! prints every guard with its distance to the nearer limit as a share
//! of that limit, and exits 1 when a guard is violated or closer than
//! [`MIN_HEADROOM`] to its limit.
//!
//! A bound of exactly 0 on a range rule (`in [0, 0.35]`) is the edge of
//! the quantity's domain — a share cannot go negative — not a limit,
//! and is not measured against.

use gis_bench::{json_array_objects, json_field, Report};
use std::path::Path;
use std::process::ExitCode;

/// Closest a passing guard may come to its limit: 2 % of the limit.
const MIN_HEADROOM: f64 = 0.02;

/// The limits of a guard rule as `bench_e2e` words them:
/// `>= min`, `<= max` or `in [min, max]`.
fn limits(rule: &str) -> Option<(Option<f64>, Option<f64>)> {
    let number = |s: &str| s.trim().parse::<f64>().ok();
    if let Some(min) = rule.strip_prefix(">=") {
        return Some((Some(number(min)?), None));
    }
    if let Some(max) = rule.strip_prefix("<=") {
        return Some((None, Some(number(max)?)));
    }
    let (min, max) = rule
        .strip_prefix("in [")?
        .strip_suffix(']')?
        .split_once(',')?;
    Some((Some(number(min)?), Some(number(max)?)))
}

/// Distance from `value` to the nearer non-zero limit, as a share of
/// that limit; negative when the limit is crossed, infinite when there
/// is no limit to measure against.
fn headroom(value: f64, (min, max): (Option<f64>, Option<f64>)) -> f64 {
    let below = min.filter(|m| *m != 0.0).map(|m| (value - m) / m.abs());
    let above = max.filter(|m| *m != 0.0).map(|m| (m - value) / m.abs());
    below.into_iter().chain(above).fold(f64::INFINITY, f64::min)
}

fn main() -> ExitCode {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/bench_e2e".into());
    let mut files: Vec<_> = match std::fs::read_dir(Path::new(&dir)) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                name.ends_with(".json") && !name.ends_with(".trace.json")
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    files.sort();
    let mut report = Report::new(
        "Shape guards: distance to the limit",
        &["workload", "guard", "value", "rule", "headroom", ""],
    );
    let mut thin = 0;
    let mut guards = 0;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let workload = file.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        for guard in json_array_objects(&text, "guards") {
            let field = |key| json_field(guard, key).unwrap_or_default();
            let (name, rule) = (field("name"), field("rule"));
            let parsed = field("value").parse::<f64>().ok().zip(limits(rule));
            let Some((value, limits)) = parsed else {
                eprintln!("{workload}: cannot read guard '{name}' ({rule})");
                return ExitCode::from(2);
            };
            let room = headroom(value, limits);
            let verdict = if field("ok") != "true" || room < 0.0 {
                "VIOLATED"
            } else if room < MIN_HEADROOM {
                "THIN"
            } else {
                "ok"
            };
            thin += usize::from(verdict != "ok");
            guards += 1;
            let room = if room.is_finite() {
                format!("{:.1}%", 100.0 * room)
            } else {
                "-".into()
            };
            report.row(&[
                &workload,
                &name,
                &format!("{value:.4}"),
                &rule,
                &room,
                &verdict,
            ]);
        }
    }
    report.note(format!(
        "{guards} guards in {} result files under {dir}; {thin} violated or within {:.0}% of a limit",
        files.len(),
        100.0 * MIN_HEADROOM
    ));
    println!("{}", report.render());
    if guards == 0 || thin > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_and_headroom() {
        assert_eq!(limits(">= 3"), Some((Some(3.0), None)));
        assert_eq!(limits("<= 0.5"), Some((None, Some(0.5))));
        assert_eq!(limits("in [0, 0.35]"), Some((Some(0.0), Some(0.35))));
        assert_eq!(limits("about 3"), None);
        // 3.15 against >= 3 is 5 % clear; 0.345 against 0.35 is 1.4 %.
        assert!((headroom(3.15, (Some(3.0), None)) - 0.05).abs() < 1e-9);
        assert!(headroom(0.345, (Some(0.0), Some(0.35))) < MIN_HEADROOM);
        assert!(headroom(0.36, (Some(0.0), Some(0.35))) < 0.0);
        // The domain's zero edge is not a limit.
        assert!(headroom(0.0, (Some(0.0), Some(0.05))) > MIN_HEADROOM);
        assert_eq!(headroom(7.0, (Some(0.0), None)), f64::INFINITY);
    }
}
