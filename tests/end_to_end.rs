//! Workspace-level integration tests: the full stack through the
//! umbrella crate's public API, on the FedMart workload.

use gis::prelude::*;

fn fed() -> FedMart {
    build_fedmart(FedMartConfig::tiny()).expect("fedmart")
}

#[test]
fn counts_match_generator_sizes() {
    let fm = fed();
    let f = &fm.federation;
    let count = |sql: &str| -> i64 {
        match f.query(sql).unwrap().batch.row_values(0)[0] {
            Value::Int64(n) => n,
            ref other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(
        count("SELECT count(*) FROM customers"),
        fm.sizes.customers as i64
    );
    assert_eq!(count("SELECT count(*) FROM orders"), fm.sizes.orders as i64);
    assert_eq!(
        count("SELECT count(*) FROM products"),
        fm.sizes.products as i64
    );
    assert_eq!(
        count("SELECT count(*) FROM stock"),
        (fm.sizes.products * fm.sizes.warehouses) as i64
    );
    assert_eq!(count("SELECT count(*) FROM regions"), 8);
}

#[test]
fn referential_integrity_via_anti_join() {
    let fm = fed();
    // Every order's customer exists: ANTI join must be empty.
    let r = fm
        .federation
        .query("SELECT o.order_id FROM orders o ANTI JOIN customers c ON o.cust_id = c.id")
        .unwrap();
    assert_eq!(r.batch.num_rows(), 0);
    // And every order's product exists.
    let r2 = fm
        .federation
        .query(
            "SELECT o.order_id FROM orders o ANTI JOIN products p ON o.product_id = p.product_id",
        )
        .unwrap();
    assert_eq!(r2.batch.num_rows(), 0);
}

#[test]
fn aggregate_decomposition_consistency() {
    // sum over a join grouped one way must total the same as grouped
    // another way and as the ungrouped sum.
    let fm = fed();
    let f = &fm.federation;
    let total = match f
        .query("SELECT sum(amount) FROM orders")
        .unwrap()
        .batch
        .row_values(0)[0]
    {
        Value::Float64(v) => v,
        ref other => panic!("unexpected {other:?}"),
    };
    for group_col in ["c.region", "c.tier"] {
        let sql = format!(
            "SELECT {group_col}, sum(o.amount) FROM customers c \
             JOIN orders o ON c.id = o.cust_id GROUP BY {group_col}"
        );
        let r = f.query(&sql).unwrap();
        let grouped: f64 = r
            .batch
            .to_rows()
            .iter()
            .map(|row| match &row[1] {
                Value::Float64(v) => *v,
                _ => 0.0,
            })
            .sum();
        assert!(
            (grouped - total).abs() < 1e-6 * total.abs().max(1.0),
            "{group_col}: {grouped} != {total}"
        );
    }
}

#[test]
fn subqueries_and_unions_compose() {
    let fm = fed();
    let r = fm
        .federation
        .query(
            "SELECT region, n FROM \
             (SELECT region, count(*) AS n FROM customers GROUP BY region) AS per_region \
             WHERE n > 0 ORDER BY n DESC, region LIMIT 3",
        )
        .unwrap();
    assert_eq!(r.batch.num_rows(), 3);
    let union = fm
        .federation
        .query(
            "SELECT id FROM customers WHERE id < 2 \
             UNION ALL SELECT product_id FROM products WHERE product_id < 2 \
             ORDER BY 1",
        )
        .unwrap();
    assert_eq!(union.batch.num_rows(), 4);
}

#[test]
fn scalar_functions_over_federated_data() {
    let fm = fed();
    let r = fm
        .federation
        .query(
            "SELECT upper(substr(name, 1, 4)) AS prefix, length(name) AS len \
             FROM customers WHERE id = 0",
        )
        .unwrap();
    let row = r.batch.row_values(0);
    assert_eq!(row[0], Value::Utf8("CUST".into()));
    assert!(matches!(row[1], Value::Int64(n) if n > 4));
    let r2 = fm
        .federation
        .query("SELECT year(since) AS y FROM customers WHERE id = 0")
        .unwrap();
    assert!(matches!(r2.batch.row_values(0)[0], Value::Int64(y) if (1989..=2022).contains(&y)));
}

#[test]
fn case_and_distinct_aggregates() {
    let fm = fed();
    let r = fm
        .federation
        .query(
            "SELECT count(DISTINCT cust_id) AS buyers, \
                    sum(CASE WHEN amount > 500.0 THEN 1 ELSE 0 END) AS big \
             FROM orders",
        )
        .unwrap();
    let row = r.batch.row_values(0);
    let buyers = match row[0] {
        Value::Int64(n) => n,
        ref o => panic!("{o:?}"),
    };
    assert!(buyers > 0 && buyers <= fm.sizes.customers as i64);
    assert!(matches!(row[1], Value::Int64(b) if b > 0));
}

#[test]
fn strategy_forcing_is_result_invariant_on_fedmart() {
    let fm = fed();
    let f = &fm.federation;
    let sql = "SELECT c.tier, count(*) AS n FROM customers c \
               JOIN orders o ON c.id = o.cust_id \
               WHERE c.balance > 0.0 GROUP BY c.tier ORDER BY c.tier";
    let mut reference = None;
    for strategy in [
        JoinStrategy::ShipWhole,
        JoinStrategy::SemiJoin,
        JoinStrategy::BindJoin,
    ] {
        f.set_exec_options(ExecOptions {
            join_strategy: strategy,
            bind_batch_size: 17, // deliberately odd chunking
            ..ExecOptions::default()
        });
        let rows = f.query(sql).unwrap().batch.to_rows();
        match &reference {
            None => reference = Some(rows),
            Some(want) => assert_eq!(&rows, want),
        }
    }
}

#[test]
fn optimizer_ablations_are_result_invariant() {
    let fm = fed();
    let f = &fm.federation;
    let sql = "SELECT c.region, sum(o.amount) AS rev FROM customers c \
               JOIN orders o ON c.id = o.cust_id \
               WHERE o.quantity >= 10 AND c.balance > -100.0 \
               GROUP BY c.region ORDER BY rev DESC";
    let reference = f.query(sql).unwrap().batch.to_rows();
    for opts in [
        OptimizerOptions::naive(),
        OptimizerOptions {
            predicate_pushdown: false,
            ..OptimizerOptions::default()
        },
        OptimizerOptions {
            projection_pruning: false,
            ..OptimizerOptions::default()
        },
        OptimizerOptions {
            join_reorder: false,
            ..OptimizerOptions::default()
        },
        OptimizerOptions {
            fold_constants: false,
            ..OptimizerOptions::default()
        },
    ] {
        f.set_optimizer_options(opts);
        let rows = f.query(sql).unwrap().batch.to_rows();
        assert_eq!(rows, reference, "ablation {opts:?} changed results");
    }
}

/// The two sides of a cross-source ship-whole join read disjoint
/// sources, so they fetch together: the oracle's rows, the same
/// bytes, and a query that waits on the network only as long as its
/// longer side — while the shared clock still sums both.
#[test]
fn cross_source_fetches_overlap_and_keep_the_oracles_rows() {
    let fm = fed();
    let f = &fm.federation;
    let sql = "SELECT c.name, o.order_id, o.amount FROM customers c \
               JOIN orders o ON c.id = o.cust_id WHERE o.amount > 1500.0";
    f.set_exec_options(ExecOptions {
        join_strategy: JoinStrategy::ShipWhole,
        ..ExecOptions::default()
    });
    let r = f.query(sql).unwrap();
    assert!(f.explain(sql).unwrap().contains("HashJoin"));
    let oracle = fed();
    let (optimizer, exec) = gis_qa::config::oracle();
    oracle.federation.set_optimizer_options(optimizer);
    oracle.federation.set_exec_options(exec);
    let want = oracle.federation.query(sql).unwrap();
    let sorted = |b: &Batch| {
        let mut rows = b.to_rows();
        rows.sort();
        rows
    };
    assert!(want.batch.num_rows() > 0);
    assert_eq!(sorted(&r.batch), sorted(&want.batch));
    let m = &r.metrics;
    assert_eq!(m.per_source.len(), 2, "{m}");
    let longer = m.per_source.values().map(|t| t.busy_us).max().unwrap();
    let both: u64 = m.per_source.values().map(|t| t.busy_us).sum();
    assert_eq!(m.virtual_network_us, both);
    assert_eq!(m.virtual_elapsed_us, longer, "{m}");
    assert!(m.virtual_elapsed_us < m.virtual_network_us);
}

#[test]
fn metrics_are_consistent() {
    let fm = fed();
    let r = fm
        .federation
        .query("SELECT name FROM customers WHERE id < 5")
        .unwrap();
    let per_source_bytes: u64 = r.metrics.per_source.values().map(|t| t.bytes).sum();
    assert_eq!(per_source_bytes, r.metrics.bytes_shipped);
    let per_source_msgs: u64 = r.metrics.per_source.values().map(|t| t.messages).sum();
    assert_eq!(per_source_msgs, r.metrics.messages);
    assert_eq!(r.metrics.rows_returned, 5);
    assert!(r.metrics.virtual_network_us > 0);
}

#[test]
fn explain_mentions_every_source_used() {
    let fm = fed();
    let plan = fm
        .federation
        .explain(
            "SELECT c.name, p.pname FROM customers c \
             JOIN orders o ON c.id = o.cust_id \
             JOIN products p ON o.product_id = p.product_id \
             WHERE c.id = 1",
        )
        .unwrap();
    assert!(plan.contains("crm"), "{plan}");
    assert!(plan.contains("sales"), "{plan}");
    assert!(plan.contains("inventory"), "{plan}");
}

#[test]
fn order_by_with_nulls_and_offsets() {
    let fm = fed();
    let r = fm
        .federation
        .query("SELECT id, balance FROM customers ORDER BY balance DESC LIMIT 5 OFFSET 2")
        .unwrap();
    assert_eq!(r.batch.num_rows(), 5);
    let balances: Vec<f64> = r
        .batch
        .to_rows()
        .iter()
        .map(|row| match row[1] {
            Value::Float64(v) => v,
            _ => f64::NAN,
        })
        .collect();
    for w in balances.windows(2) {
        assert!(w[0] >= w[1], "not descending: {balances:?}");
    }
}

/// `orders` lives on a source that cannot sort, so the mediator's Sort
/// takes the Limit's skip + fetch as its own bound: the answers must be
/// the same slices of the full ORDER BY, including the empty ones (a
/// zero fetch, a skip past the last row).
#[test]
fn limit_folded_into_the_mediator_sort_slices_the_full_order() {
    let fm = fed();
    let f = &fm.federation;
    const ORDERED: &str = "SELECT order_id, amount FROM orders ORDER BY amount DESC, order_id";
    let full = f.query(ORDERED).unwrap().batch.to_rows();
    assert_eq!(full.len(), fm.sizes.orders);
    for (limit, offset) in [(20, 0), (5, 3), (0, 0), (0, 7), (5, 5000), (5000, 990)] {
        let sql = format!("{ORDERED} LIMIT {limit} OFFSET {offset}");
        let lo = offset.min(full.len());
        let hi = (offset + limit).min(full.len());
        assert_eq!(
            f.query(&sql).unwrap().batch.to_rows(),
            full[lo..hi],
            "{sql}"
        );
    }
    let plan = f
        .query(&format!("EXPLAIN {ORDERED} LIMIT 5 OFFSET 3"))
        .unwrap();
    let text = format!("{:?}", plan.batch.to_rows());
    assert!(text.contains("Sort: #1 DESC, #0 ASC fetch=8"), "{text}");
}
