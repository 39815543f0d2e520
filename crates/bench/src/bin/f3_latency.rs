//! F3 — sensitivity to WAN latency.
//!
//! The same moderately-selective federated join executed under
//! increasing one-way latency; all three strategies forced, plus
//! Auto's pick. Expected shape: at low latency the byte-minimizing
//! strategy wins; as latency grows, message count dominates and the
//! few-message strategies (semijoin, then ship-whole with its big
//! but few messages) close the gap; Auto tracks the winner. Each
//! strategy reports the shared clock's sum of link time and the
//! query's critical path — a ship-whole join fetches its two sides
//! together, so it waits for the longer one only. The binary asserts
//! the shape on summed link time: bind-join's time grows the most
//! from the lowest latency to the highest, and Auto is within 10 % of
//! the fastest strategy at every latency. Auto's critical path is
//! reported against the fastest one's, not asserted: the planner
//! prices ship-whole on raw row bytes (~2.2x the wire's) and a
//! semijoin's matches without their fan-out, so at 40 ms it keeps a
//! semijoin that waits longer than shipping whole.

use gis_bench::Report;
use gis_core::{ExecOptions, JoinStrategy};
use gis_datagen::{build_fedmart, FedMartConfig};
use gis_net::NetworkConditions;

/// Auto may cost at most this much more than the fastest strategy.
const AUTO_SLACK: f64 = 1.10;

fn main() {
    let mut report = Report::new(
        "F3: virtual latency (ms) per strategy, customers(5%) ⋈ orders — summed link time / critical path",
        &[
            "rtt_ms",
            "ship_ms",
            "semi_ms",
            "bind_ms",
            "auto_ms",
            "auto_pick",
        ],
    );
    // `[ship, semi, bind, auto]` virtual ms per latency: summed link
    // time, then critical path.
    let mut rows: Vec<(u64, [f64; 4], [f64; 4])> = Vec::new();
    for latency_ms in [0u64, 1, 10, 40, 100, 400] {
        let conditions = if latency_ms == 0 {
            NetworkConditions {
                latency_us: 0,
                bandwidth_bytes_per_sec: 1_000_000,
            }
        } else {
            NetworkConditions::with_latency_ms(latency_ms)
        };
        let fm = build_fedmart(FedMartConfig {
            conditions,
            ..FedMartConfig::default()
        })
        .expect("build");
        let fed = &fm.federation;
        let k = fm.sizes.customers as i64 / 20; // 5%
        let sql = format!(
            "SELECT c.name, o.amount FROM customers c \
             JOIN orders o ON c.id = o.cust_id WHERE c.id < {k}"
        );
        let mut times = [0.0; 4];
        let mut paths = [0.0; 4];
        for ((t, p), strategy) in times.iter_mut().zip(paths.iter_mut()).zip([
            JoinStrategy::ShipWhole,
            JoinStrategy::SemiJoin,
            JoinStrategy::BindJoin,
            JoinStrategy::Auto,
        ]) {
            fed.set_exec_options(ExecOptions {
                join_strategy: strategy,
                bind_batch_size: 8,
                ..ExecOptions::default()
            });
            let m = fed.query(&sql).expect("query").metrics;
            (*t, *p) = (m.virtual_network_ms(), m.virtual_elapsed_ms());
        }
        fed.set_exec_options(ExecOptions::default());
        let plan = fed.explain(&sql).expect("explain");
        let pick = if plan.contains("BindJoin[semijoin") {
            "semijoin"
        } else if plan.contains("BindJoin[bind-join") {
            "bind-join"
        } else {
            "ship-whole"
        };
        let cell = |i: usize| format!("{:.0} / {:.0}", times[i], paths[i]);
        report.row(&[&latency_ms, &cell(0), &cell(1), &cell(2), &cell(3), &pick]);
        rows.push((latency_ms, times, paths));
    }
    report.note(
        "bind_batch_size=8 to make bind-join's chattiness visible; bandwidth fixed at 1 MB/s.",
    );
    report.note("Each cell: summed link time / critical path. Ship-whole fetches both sides together, so its critical path is the longer side's; key shipping waits for the outer keys first.");
    report.note("Expected shape: bind-join degrades fastest with RTT; Auto stays within ~10% of the per-row winner.");
    report.print();

    let (first, last) = (rows[0].1, rows[rows.len() - 1].1);
    let growth = |s: usize| last[s] - first[s];
    assert!(
        growth(2) > growth(0) && growth(2) > growth(1),
        "bind-join must degrade fastest with latency: ship +{:.0} ms, semi +{:.0} ms, bind +{:.0} ms",
        growth(0),
        growth(1),
        growth(2)
    );
    for (latency_ms, t, p) in &rows {
        let best = t[..3].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            t[3] <= best * AUTO_SLACK,
            "Auto at {latency_ms} ms costs {:.0} ms, more than 10% over the best {best:.0} ms",
            t[3]
        );
        let best_path = p[..3].iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "critical path at {latency_ms} ms: Auto {:.0} ms, fastest {best_path:.0} ms ({:+.0}%)",
            p[3],
            (p[3] / best_path - 1.0) * 100.0
        );
    }
    println!(
        "shape ok: bind-join degrades fastest; Auto within 10% of the winner at every latency"
    );
}
