//! `--compare <a> <b>`: two result directories, one verdict per
//! workload and metric.

use crate::json::Json;
use crate::run::median;
use crate::spec::{Better, END_TO_END, FAILED_SHARE};
use crate::workload::SHAPES;
use std::collections::BTreeMap;
use std::path::Path;

struct Run {
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Every result file under `dir` (one level of sub-directories deep,
/// so several runs can sit side by side), by workload.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut files = Vec::new();
    let mut pending = vec![(dir.to_path_buf(), 0)];
    while let Some((d, depth)) = pending.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() && depth == 0 {
                pending.push((path, 1));
            } else if name.ends_with(".json") && !name.ends_with(".trace.json") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut runs: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("benchmark").and_then(Json::as_str) != Some("bench_e2e") {
            continue;
        }
        if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{}: a smoke run's numbers cannot be compared",
                path.display()
            ));
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let metrics = doc
            .get("end_to_end")
            .map(Json::entries)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload).or_default().push(Run {
            seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            metrics,
        });
    }
    Ok(runs)
}

/// Distance between the first and third quartile as a share of the
/// median; quartiles as Python's `statistics.quantiles(v, n=4)`.
/// Fewer than two values have no spread.
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(v.clone());
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid
    }
}

/// Prints the table; `Ok(true)` when nothing regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<26} {:<6} {:>14} {:>14} {:>22}  verdict",
        "workload", "metric", "unit", "a (median)", "b (median)", "b/a (base a)"
    );
    let mut clean = true;
    let mut rows = 0;
    for w in &SHAPES {
        let (Some(ra), Some(rb)) = (runs_a.get(w.name), runs_b.get(w.name)) else {
            continue;
        };
        let seeds = |runs: &[Run]| {
            let mut s: Vec<u64> = runs.iter().map(|r| r.seed).collect();
            s.sort_unstable();
            s
        };
        // The engine's counts repeat exactly only for the same op
        // list driven by one client.
        let exact = seeds(ra) == seeds(rb) && w.clients == 1;
        for m in &END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            let worse_by = match m.better {
                Better::Lower => mb - ma,
                Better::Higher => ma - mb,
            };
            let verdict = if m.name == FAILED_SHARE || (m.deterministic && exact) {
                if worse_by > 0.0 {
                    "regressed"
                } else {
                    "ok"
                }
            } else if spread(&va).max(spread(&vb)) > m.bound {
                "unresolved"
            } else if worse_by > m.bound * ma.abs() {
                "regressed"
            } else {
                "ok"
            };
            clean &= verdict != "regressed";
            rows += 1;
            let ratio = if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4} ({ma:.6})", mb / ma)
            };
            println!(
                "{:<14} {:<26} {:<6} {:>14.6} {:>14.6} {:>22}  {}{}",
                w.name,
                m.name,
                m.unit,
                ma,
                mb,
                ratio,
                verdict,
                if m.deterministic && exact && m.name != FAILED_SHARE {
                    " (exact)"
                } else {
                    ""
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two directories share no workload".into());
    }
    Ok(clean)
}
