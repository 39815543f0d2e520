//! The compressed wire protocol end to end: adaptive per-column
//! codecs cut shipped bytes without changing any result, Bloom-filter
//! semijoins beat explicit key lists when the cost model says so, and
//! mediator-side memory accounting stays pinned to decoded sizes.

use gis::prelude::*;
use std::sync::Arc;

fn fedmart() -> FedMart {
    build_fedmart(FedMartConfig::tiny()).expect("fedmart")
}

const JOIN_SQL: &str = "SELECT c.region, p.category, sum(o.amount) AS revenue \
     FROM customers c \
     JOIN orders o ON c.id = o.cust_id \
     JOIN products p ON o.product_id = p.product_id \
     GROUP BY c.region, p.category \
     ORDER BY revenue DESC, c.region, p.category";

#[test]
fn compression_cuts_bytes_and_keeps_results_bit_identical() {
    // Two identical federations (same seed), one with compression
    // forced off — the raw-frame baseline.
    let comp = fedmart().federation;
    let raw = fedmart().federation;
    raw.set_wire_compression(false);
    assert!(comp.wire_compression());
    assert!(!raw.wire_compression());

    let queries = [
        "SELECT * FROM customers ORDER BY id",
        "SELECT * FROM orders ORDER BY order_id",
        JOIN_SQL,
        "SELECT region, count(*) AS n FROM customers GROUP BY region ORDER BY region",
    ];
    for sql in queries {
        let c = comp.query(sql).unwrap();
        let r = raw.query(sql).unwrap();
        assert_eq!(
            format!("{:?}", c.batch.to_rows()),
            format!("{:?}", r.batch.to_rows()),
            "compression changed results for {sql}"
        );
        // Raw frames price raw == wire; compressed frames are charged
        // at their (smaller) encoded size.
        assert_eq!(r.metrics.bytes_raw, r.metrics.bytes_wire, "{sql}");
        assert!(
            c.metrics.bytes_raw > c.metrics.bytes_wire,
            "{sql}: raw={} wire={}",
            c.metrics.bytes_raw,
            c.metrics.bytes_wire
        );
        assert!(
            c.metrics.bytes_shipped < r.metrics.bytes_shipped,
            "{sql}: compressed={} raw={}",
            c.metrics.bytes_shipped,
            r.metrics.bytes_shipped
        );
    }
    // The federation-wide accumulator saw every compressed frame.
    let ws = comp.wire_stats();
    assert!(ws.frames() > 0);
    assert!(ws.raw_bytes() > ws.wire_bytes());
    // The raw federation still encodes (legacy) frames and records
    // them with raw == wire.
    let ws = raw.wire_stats();
    assert_eq!(ws.raw_bytes(), ws.wire_bytes());
}

/// `gis_wire_frames_total` counts frames: one per response message,
/// not one per exchange (a 10-frame response used to count as 1).
#[test]
fn the_frame_counter_counts_response_messages() {
    // sf=1 over links without latency, where frames keep the 1 024-row
    // floor: 10 000 orders ship as ten frames.
    let fed = build_fedmart(FedMartConfig {
        conditions: NetworkConditions::instant(),
        ..FedMartConfig::default()
    })
    .expect("fedmart")
    .federation;
    let mut frames = 0;
    for sql in [
        "SELECT order_id, amount FROM orders",
        "SELECT * FROM customers",
        "SELECT region FROM regions",
    ] {
        let r = fed.query(sql).unwrap();
        // One fragment = one request message; the rest are frames.
        assert_eq!(r.metrics.fragments, 1, "{sql}");
        frames += r.metrics.messages - 1;
        assert_eq!(fed.wire_stats().frames(), frames, "{sql}");
    }
    assert!(frames >= 12, "several frames per exchange: {frames}");
}

#[test]
fn compression_also_prices_the_virtual_network_cheaper() {
    let comp = fedmart().federation;
    let raw = fedmart().federation;
    raw.set_wire_compression(false);
    let c = comp
        .query("SELECT * FROM orders ORDER BY order_id")
        .unwrap();
    let r = raw.query("SELECT * FROM orders ORDER BY order_id").unwrap();
    // Fewer bytes through the metered link = less virtual time: the
    // whole point of compressing on a WAN.
    assert!(
        c.metrics.virtual_network_us < r.metrics.virtual_network_us,
        "compressed={}us raw={}us",
        c.metrics.virtual_network_us,
        r.metrics.virtual_network_us
    );
}

#[test]
fn explain_analyze_surfaces_wire_spans() {
    let fed = fedmart().federation;
    let r = fed
        .query("EXPLAIN ANALYZE SELECT * FROM customers ORDER BY id")
        .unwrap();
    let text: String = r
        .batch
        .to_rows()
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("wire[codec="), "{text}");
    assert!(text.contains("raw="), "{text}");
    assert!(text.contains("sent="), "{text}");
}

/// A two-source federation with a *string* join key: the shape where
/// an explicit semijoin key list is expensive (strings don't
/// delta-compress in the request codec) and a Bloom filter shines.
fn string_key_federation() -> (Federation, usize) {
    let fed = Federation::new();
    let users = RelationalAdapter::new("dim");
    let user_schema = Schema::new(vec![
        Field::required("uid", DataType::Utf8),
        Field::new("tier", DataType::Int64),
    ])
    .into_ref();
    users.add_table(RowStore::new("users", user_schema, Some(0)).unwrap());
    let n_users = 300i64;
    users
        .load(
            "users",
            (0..n_users).map(|i| {
                vec![
                    Value::Utf8(format!("user-{i:05}-of-dim")),
                    Value::Int64(i % 5),
                ]
            }),
        )
        .unwrap();

    let facts = RelationalAdapter::new("fact");
    let event_schema = Schema::new(vec![
        Field::required("eid", DataType::Int64),
        Field::new("user", DataType::Utf8),
        Field::new("v", DataType::Int64),
    ])
    .into_ref();
    facts.add_table(RowStore::new("events", event_schema, Some(0)).unwrap());
    // Events are clustered by user: a lookup response (grouped by
    // probe key) and a filter response (table order) then compress
    // identically, so the byte comparison isolates the request side.
    facts
        .load(
            "events",
            (0..2_000i64).map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Utf8(format!("user-{:05}-of-dim", i * n_users / 2_000)),
                    Value::Int64(i * 3),
                ]
            }),
        )
        .unwrap();

    fed.add_source(
        Arc::new(users) as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed.add_source(
        Arc::new(facts) as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed.add_global_identity("users", "dim", "users").unwrap();
    fed.add_global_identity("events", "fact", "events").unwrap();
    (fed, n_users as usize)
}

#[test]
fn bloom_semijoin_agrees_with_key_list_and_ships_fewer_bytes() {
    let (fed, _) = string_key_federation();
    let sql = "SELECT u.tier, count(*) AS n FROM users u JOIN events e ON u.uid = e.user \
               GROUP BY u.tier ORDER BY u.tier";
    let semijoin = |bloom: bool| {
        fed.set_exec_options(ExecOptions {
            join_strategy: JoinStrategy::SemiJoin,
            bloom_semijoin: bloom,
            ..ExecOptions::default()
        });
        fed.query(sql).unwrap()
    };
    let keys = semijoin(false);
    let bloom = semijoin(true);
    assert_eq!(
        keys.batch.to_rows(),
        bloom.batch.to_rows(),
        "bloom semijoin changed results"
    );
    // 300 distinct ~17-byte string keys ship as ~5KB of explicit
    // list; the Bloom filter is a few hundred bytes and the cost
    // model picks it.
    assert!(
        bloom.metrics.bytes_shipped < keys.metrics.bytes_shipped,
        "bloom={} keys={}",
        bloom.metrics.bytes_shipped,
        keys.metrics.bytes_shipped
    );

    // The trace names the mode each run used.
    for (on, needle) in [(true, "keyship[mode=bloom"), (false, "keyship[mode=keys")] {
        fed.set_exec_options(ExecOptions {
            join_strategy: JoinStrategy::SemiJoin,
            bloom_semijoin: on,
            ..ExecOptions::default()
        });
        let r = fed.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let text: String = r
            .batch
            .to_rows()
            .iter()
            .map(|row| row[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn bloom_semijoin_false_positives_are_filtered_by_the_join() {
    // Only a sliver of users appears in events: most event rows must
    // NOT come back, and any Bloom false positives that do must be
    // dropped by the mediator join.
    let fed = Federation::new();
    let users = RelationalAdapter::new("dim");
    let user_schema = Schema::new(vec![Field::required("uid", DataType::Utf8)]).into_ref();
    users.add_table(RowStore::new("users", user_schema, Some(0)).unwrap());
    users
        .load(
            "users",
            (0..200i64).map(|i| vec![Value::Utf8(format!("u{i}"))]),
        )
        .unwrap();
    let facts = RelationalAdapter::new("fact");
    let event_schema = Schema::new(vec![
        Field::required("eid", DataType::Int64),
        Field::new("user", DataType::Utf8),
    ])
    .into_ref();
    facts.add_table(RowStore::new("events", event_schema, Some(0)).unwrap());
    // Event users u0..u9999: only u0..u199 exist in `users`.
    facts
        .load(
            "events",
            (0..10_000i64).map(|i| vec![Value::Int64(i), Value::Utf8(format!("u{i}"))]),
        )
        .unwrap();
    fed.add_source(
        Arc::new(users) as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed.add_source(
        Arc::new(facts) as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed.add_global_identity("users", "dim", "users").unwrap();
    fed.add_global_identity("events", "fact", "events").unwrap();
    fed.set_exec_options(ExecOptions {
        join_strategy: JoinStrategy::SemiJoin,
        ..ExecOptions::default()
    });
    let r = fed
        .query("SELECT count(*) AS n FROM users u JOIN events e ON u.uid = e.user")
        .unwrap();
    assert_eq!(r.batch.row_values(0)[0], Value::Int64(200));
}

#[test]
fn result_cache_charges_decoded_size_whatever_the_codec() {
    // Identical federations, one compressed and one raw: the result
    // cache and memory pool account for *decoded* batches, so their
    // gauges must not move with the wire codec.
    let charge = |compress: bool| {
        let fed = fedmart().federation;
        fed.set_wire_compression(compress);
        let runtime = Runtime::new(Arc::new(fed), RuntimeConfig::default());
        let session = runtime.session();
        session.query(JOIN_SQL).unwrap();
        session
            .query("SELECT * FROM customers ORDER BY id")
            .unwrap();
        let stats = runtime.stats();
        runtime.shutdown();
        (
            stats.result_cache_bytes,
            stats.mem_pool_used,
            stats.mem_pool_peak,
        )
    };
    let compressed = charge(true);
    let raw = charge(false);
    assert!(compressed.0 > 0, "result cache holds something");
    assert_eq!(
        compressed, raw,
        "wire codec leaked into memory accounting (compressed={compressed:?} raw={raw:?})"
    );
}
