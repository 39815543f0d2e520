//! The fetch→join path, pinned from outside: the three join shapes
//! the end-to-end benchmark leans on must return the oracle's rows
//! *and* put exactly the bytes and messages on the wire that they did
//! before the sources answered `Lookup` in one keyed pass.
//!
//! The frame codecs are order-sensitive (a key column that arrives
//! key-major run-length-encodes; the same rows in storage order do
//! not), so a lookup that returns the right rows in another order
//! passes every row comparison and still moves `bytes_wire`. The
//! literals below were captured on the commit that still served a
//! lookup as one equality scan per key.

use gis::prelude::*;

/// `(class, statement, bytes_wire, messages)`; the classes and
/// statement shapes are `bench_e2e`'s, the literals sized for
/// FedMart `tiny()` (100 customers / 1 000 orders).
const PINNED: [(&str, &str, u64, u64); 3] = [
    // 4 outer keys shipped as a key list -> `Lookup`.
    (
        "semijoin_selective",
        "SELECT c.name, o.order_id, o.amount FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE c.balance > 45000.00",
        617,
        4,
    ),
    // 100 outer keys shipped as a Bloom filter -> `LookupFilter`.
    (
        "join2_agg",
        "SELECT c.region, count(*) AS n, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id WHERE o.order_day >= DATE '2019-07-20' \
         GROUP BY c.region",
        10_896,
        4,
    ),
    // 100 outer keys as a key list (the projection is wider, so the
    // filter's false positives would cost more) -> `Lookup`, and the
    // key column comes back run-length encoded.
    (
        "join3_rollup",
        "SELECT c.region, p.category, sum(o.amount) AS rev FROM customers c \
         JOIN orders o ON c.id = o.cust_id JOIN products p ON o.product_id = p.product_id \
         WHERE o.order_day >= DATE '2019-06-01' GROUP BY c.region, p.category",
        11_376,
        6,
    ),
];

/// `(class, bytes_wire, messages, virtual_network_us)` of `PINNED`'s
/// statements on FedMart sf = 1 over its default WAN (40 ms, 1 MB/s),
/// where a response frame is sized to the link: eight bandwidth-delay
/// products, ~320 KB raw. With 1 024-row frames on every link the
/// same statements read, in the same order: 7 818 B / 4 / 167 818 µs
/// (its responses are under 1 024 rows), 111 489 B / 13 / 631 489 µs
/// and 126 180 B / 15 / 726 180 µs.
const PINNED_WAN: [(&str, u64, u64, u64); 3] = [
    ("semijoin_selective", 7_818, 4, 167_818),
    ("join2_agg", 111_012, 4, 271_012),
    ("join3_rollup", 125_532, 6, 365_532),
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

/// The same shapes at sf = 1 over the WAN: the oracle's rows, and the
/// bytes, messages and virtual time of link-sized frames.
#[test]
fn benchmark_join_shapes_over_the_wan_ship_link_sized_frames() {
    let fed = build_fedmart(FedMartConfig::default())
        .expect("fedmart")
        .federation;
    let oracle = oracle_twin(FedMartConfig::default());
    for ((class, sql, ..), (wan_class, bytes_wire, messages, virtual_us)) in
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
    }
}
