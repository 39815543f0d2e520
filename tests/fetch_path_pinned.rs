//! The fetch→join path, pinned from outside: the four join shapes
//! the end-to-end benchmark leans on must return the oracle's rows
//! *and* put exactly the bytes and messages on the wire that they did
//! before the sources answered `Lookup` in one keyed pass.
//!
//! The frame codecs are order-sensitive (a key column that arrives
//! key-major run-length-encodes; the same rows in storage order do
//! not), so a lookup that returns the right rows in another order
//! passes every row comparison and still moves `bytes_wire`. The
//! literals below were captured on the commit that still served a
//! lookup as one equality scan per key. At sf = 1 over the WAN three
//! of the shapes still ship keys (`Lookup`, `LookupFilter`); at
//! `tiny()` every shape ships its inner table whole.

use gis::prelude::*;

/// `(class, statement, bytes_wire, messages)`; the classes and
/// statement shapes are `bench_e2e`'s, the literals sized for
/// FedMart `tiny()` (100 customers / 1 000 orders, the default WAN).
///
/// The planner prices each strategy by the critical path it leaves
/// the join, and a ship-whole join fetches its two sides (on disjoint
/// sources) together. At this scale the inner tables are a few KB, so
/// shipping them whole beside the outer fetch waits one round trip
/// where key shipping waits two, and every shape ships whole. While
/// the planner summed both sides' link time the first three kept
/// their key-shipping plans: 617 B (a 4-key `Lookup`), 10 896 B (a
/// 100-key Bloom filter, `LookupFilter`) and 11 376 B (a 100-key
/// `Lookup`, its key column run-length encoded coming back), and
/// `kv_join` shipped 223 B.
const PINNED: [(&str, &str, u64, u64); 4] = [
    (
        "semijoin_selective",
        "SELECT c.name, o.order_id, o.amount FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE c.balance > 45000.00",
        9_673,
        4,
    ),
    (
        "join2_agg",
        "SELECT c.region, count(*) AS n, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE o.order_day >= DATE '2019-07-20' \
         GROUP BY c.region",
        8_774,
        4,
    ),
    (
        "join3_rollup",
        "SELECT c.region, p.category, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id JOIN products p ON o.product_id = p.product_id \
         WHERE o.order_day >= DATE '2019-06-01' GROUP BY c.region, p.category",
        10_269,
        6,
    ),
    (
        "kv_join",
        "SELECT o.order_id, p.pname, p.price FROM orders o \
         JOIN products p ON o.product_id = p.product_id WHERE o.amount > 1800.0",
        512,
        4,
    ),
];

/// `(class, bytes_wire, messages, virtual_network_us,
/// virtual_elapsed_us)` of `PINNED`'s statements on FedMart sf = 1
/// over its default WAN (40 ms, 1 MB/s), where a response frame is
/// sized to the link: eight bandwidth-delay products, ~320 KB raw.
/// With 1 024-row frames on every link the first three read, in the
/// same order: 7 818 B / 4 / 167 818 µs (its responses are under
/// 1 024 rows), 111 489 B / 13 / 631 489 µs and 126 180 B / 15 /
/// 726 180 µs.
///
/// The elapsed column is the query's critical path. The first two
/// keep their semijoins, one step after the other, so it equals the
/// summed clock. `join3_rollup` keeps its plan and bytes too, but its
/// `products` fetch now runs beside the `customers ⋈ orders` subtree.
/// `kv_join` flips from a semijoin (639 B, 160 639 µs on both clocks)
/// to shipping `products` whole beside the `orders` fetch.
const PINNED_WAN: [(&str, u64, u64, u64, u64); 4] = [
    ("semijoin_selective", 7_818, 4, 167_818, 167_818),
    ("join2_agg", 111_012, 4, 271_012, 271_012),
    ("join3_rollup", 125_532, 6, 365_532, 282_282),
    ("kv_join", 3_380, 4, 163_380, 83_250),
];

fn oracle_twin(config: FedMartConfig) -> Federation {
    let fed = build_fedmart(config).expect("fedmart").federation;
    let (optimizer, exec) = gis_qa::config::oracle();
    fed.set_optimizer_options(optimizer);
    fed.set_exec_options(exec);
    fed.set_wire_compression(false);
    fed
}

fn sorted_rows(batch: &Batch) -> Vec<Vec<Value>> {
    let mut rows = batch.to_rows();
    rows.sort();
    rows
}

fn rows_match(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(a, b)| match (a, b) {
                    // Sums may be added in another order.
                    (Value::Float64(x), Value::Float64(y)) => {
                        x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
                    }
                    _ => a == b,
                })
        })
}

#[test]
fn benchmark_join_shapes_keep_their_rows_and_their_wire_bytes() {
    let fed = build_fedmart(FedMartConfig::tiny())
        .expect("fedmart")
        .federation;
    let oracle = oracle_twin(FedMartConfig::tiny());
    for (class, sql, bytes_wire, messages) in PINNED {
        let got = fed.query(sql).unwrap_or_else(|e| panic!("{class}: {e}"));
        let want = oracle.query(sql).unwrap_or_else(|e| panic!("{class}: {e}"));
        assert!(want.batch.num_rows() > 0, "{class}: vacuous statement");
        assert!(
            rows_match(&sorted_rows(&got.batch), &sorted_rows(&want.batch)),
            "{class}: rows differ from the oracle's"
        );
        assert_eq!(
            (got.metrics.bytes_wire, got.metrics.messages),
            (bytes_wire, messages),
            "{class}: wire traffic moved (same rows in another order?)"
        );
    }
}

/// The same shapes at sf = 1 over the WAN: the oracle's rows, the
/// bytes, messages and virtual time of link-sized frames, and the
/// critical path of fetches that run together.
#[test]
fn benchmark_join_shapes_over_the_wan_ship_link_sized_frames() {
    let fed = build_fedmart(FedMartConfig::default())
        .expect("fedmart")
        .federation;
    let oracle = oracle_twin(FedMartConfig::default());
    for ((class, sql, ..), (wan_class, bytes_wire, messages, virtual_us, elapsed_us)) in
        PINNED.into_iter().zip(PINNED_WAN)
    {
        assert_eq!(class, wan_class);
        let got = fed.query(sql).unwrap_or_else(|e| panic!("{class}: {e}"));
        let want = oracle.query(sql).unwrap_or_else(|e| panic!("{class}: {e}"));
        assert!(want.batch.num_rows() > 0, "{class}: vacuous statement");
        assert!(
            rows_match(&sorted_rows(&got.batch), &sorted_rows(&want.batch)),
            "{class}: rows differ from the oracle's"
        );
        let m = &got.metrics;
        assert_eq!(
            (m.bytes_wire, m.messages, m.virtual_network_us),
            (bytes_wire, messages, virtual_us),
            "{class}: wire traffic moved"
        );
        assert_eq!(
            m.virtual_elapsed_us, elapsed_us,
            "{class}: critical path moved"
        );
    }
}
