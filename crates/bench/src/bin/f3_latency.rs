//! F3 — sensitivity to WAN latency.
//!
//! The same moderately-selective federated join executed under
//! increasing one-way latency; all three strategies forced, plus
//! Auto's pick. Expected shape: at low latency the byte-minimizing
//! strategy wins; as latency grows, message count dominates and the
//! few-message strategies (semijoin, then ship-whole with its big
//! but few messages) close the gap; Auto tracks the winner. The
//! binary asserts the shape: bind-join's time grows the most from the
//! lowest latency to the highest, and Auto is within 10 % of the
//! fastest strategy at every latency.

use gis_bench::Report;
use gis_core::{ExecOptions, JoinStrategy};
use gis_datagen::{build_fedmart, FedMartConfig};
use gis_net::NetworkConditions;

/// Auto may cost at most this much more than the fastest strategy.
const AUTO_SLACK: f64 = 1.10;

fn main() {
    let mut report = Report::new(
        "F3: virtual latency (ms) per strategy, customers(5%) ⋈ orders",
        &[
            "rtt_ms",
            "ship_ms",
            "semi_ms",
            "bind_ms",
            "auto_ms",
            "auto_pick",
        ],
    );
    // `[ship, semi, bind, auto]` virtual ms per latency.
    let mut rows: Vec<(u64, [f64; 4])> = Vec::new();
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
        for (t, strategy) in times.iter_mut().zip([
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
            *t = fed.query(&sql).expect("query").metrics.virtual_network_ms();
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
        report.row(&[
            &latency_ms,
            &format!("{:.0}", times[0]),
            &format!("{:.0}", times[1]),
            &format!("{:.0}", times[2]),
            &format!("{:.0}", times[3]),
            &pick,
        ]);
        rows.push((latency_ms, times));
    }
    report.note(
        "bind_batch_size=8 to make bind-join's chattiness visible; bandwidth fixed at 1 MB/s.",
    );
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
    for (latency_ms, t) in &rows {
        let best = t[..3].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            t[3] <= best * AUTO_SLACK,
            "Auto at {latency_ms} ms costs {:.0} ms, more than 10% over the best {best:.0} ms",
            t[3]
        );
    }
    println!(
        "shape ok: bind-join degrades fastest; Auto within 10% of the winner at every latency"
    );
}
