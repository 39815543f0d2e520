//! Direct tests of the optimizer rules: plan-shape assertions over a
//! fixed catalog, plus traffic assertions that each rule actually
//! pays off on the wire.

use gis_adapters::{RelationalAdapter, SourceAdapter};
use gis_core::plan::logical::LogicalPlan;
use gis_core::{ExecOptions, Federation, OptimizerOptions};
use gis_net::NetworkConditions;
use gis_storage::RowStore;
use gis_types::{DataType, Field, Schema, Value};
use std::sync::Arc;

fn fed() -> Federation {
    let fed = Federation::new();
    let crm = RelationalAdapter::new("crm");
    let t1 = Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("payload", DataType::Utf8),
    ])
    .into_ref();
    crm.add_table(RowStore::new("t1", t1, Some(0)).unwrap());
    crm.load(
        "t1",
        (0..1000i64).map(|i| {
            vec![
                Value::Int64(i),
                Value::Int64(i % 10),
                Value::Utf8(format!("payload-{i:05}-{}", "x".repeat(40))),
            ]
        }),
    )
    .unwrap();
    let t2 = Schema::new(vec![
        Field::required("id", DataType::Int64),
        Field::new("ref_id", DataType::Int64),
    ])
    .into_ref();
    crm.add_table(RowStore::new("t2", t2, Some(0)).unwrap());
    crm.load(
        "t2",
        (0..5000i64).map(|i| vec![Value::Int64(i), Value::Int64(i % 1000)]),
    )
    .unwrap();
    fed.add_source(
        Arc::new(crm) as Arc<dyn SourceAdapter>,
        NetworkConditions::wan(),
    )
    .unwrap();
    fed
}

/// Collects (filters_count, projection, fetch) per scan.
fn scan_shapes(plan: &LogicalPlan) -> Vec<(usize, Option<Vec<usize>>, Option<usize>)> {
    plan.scans()
        .iter()
        .map(|s| (s.filters.len(), s.projection.clone(), s.fetch))
        .collect()
}

#[test]
fn predicates_land_in_scans() {
    let f = fed();
    let plan = f
        .logical_plan("SELECT id FROM crm.t1 WHERE grp = 3 AND id > 100")
        .unwrap();
    let shapes = scan_shapes(&plan);
    assert_eq!(shapes.len(), 1);
    assert_eq!(shapes[0].0, 2, "both conjuncts pushed: {plan}");
}

#[test]
fn projection_pruning_narrows_scans() {
    let f = fed();
    let plan = f.logical_plan("SELECT grp FROM crm.t1").unwrap();
    let shapes = scan_shapes(&plan);
    assert_eq!(shapes[0].1, Some(vec![1]), "{plan}");
    // Filter columns do not widen the scan's *output* projection:
    // filters are expressed over the full global schema and the
    // fragment builder fetches their inputs only when they stay
    // residual at the mediator.
    let plan2 = f
        .logical_plan("SELECT grp FROM crm.t1 WHERE id < 10")
        .unwrap();
    let shapes2 = scan_shapes(&plan2);
    assert_eq!(shapes2[0].1, Some(vec![1]), "{plan2}");
    assert_eq!(shapes2[0].0, 1, "{plan2}");
}

#[test]
fn limit_bound_reaches_unfiltered_scan() {
    let f = fed();
    let plan = f
        .logical_plan("SELECT payload FROM crm.t1 LIMIT 7 OFFSET 3")
        .unwrap();
    let shapes = scan_shapes(&plan);
    assert_eq!(shapes[0].2, Some(10), "skip+fetch pushed: {plan}");
    // Filtered scans must NOT take the bound (wrong results risk).
    let plan2 = f
        .logical_plan("SELECT payload FROM crm.t1 WHERE grp = 3 LIMIT 7")
        .unwrap();
    let shapes2 = scan_shapes(&plan2);
    assert_eq!(shapes2[0].2, None, "{plan2}");
}

/// An outer bound used to cap the inner Limit's skip + fetch, so the
/// scan shipped 2 rows, the inner OFFSET 4 dropped both and the
/// answer was empty.
#[test]
fn nested_limits_add_the_inner_skip() {
    let f = fed();
    let sql = "SELECT id FROM (SELECT id FROM crm.t1 LIMIT 10 OFFSET 4) t LIMIT 1 OFFSET 1";
    let plan = f.logical_plan(sql).unwrap();
    assert_eq!(
        scan_shapes(&plan)[0].2,
        Some(6),
        "4 + min(1 + 1, 10): {plan}"
    );
    assert_eq!(f.query(sql).unwrap().batch.num_rows(), 1);
}

#[test]
fn limit_pushdown_cuts_traffic() {
    let f = fed();
    let sql = "SELECT payload FROM crm.t1 LIMIT 5";
    let with = f.query(sql).unwrap();
    f.set_optimizer_options(OptimizerOptions {
        limit_pushdown: false,
        ..OptimizerOptions::default()
    });
    let without = f.query(sql).unwrap();
    assert_eq!(with.batch.num_rows(), 5);
    assert_eq!(without.batch.num_rows(), 5);
    assert!(
        with.metrics.bytes_shipped * 10 < without.metrics.bytes_shipped,
        "limit pushdown should slash traffic: {} vs {}",
        with.metrics.bytes_shipped,
        without.metrics.bytes_shipped
    );
}

#[test]
fn constant_folding_eliminates_contradictions() {
    let f = fed();
    let r = f
        .query("SELECT id FROM crm.t1 WHERE 1 = 2 AND grp = 3")
        .unwrap();
    assert_eq!(r.batch.num_rows(), 0);
    // Nothing should cross the wire for a contradiction.
    assert_eq!(r.metrics.bytes_shipped, 0, "{:?}", r.metrics);
    // Tautologies vanish, leaving a plain scan.
    let plan = f.logical_plan("SELECT id FROM crm.t1 WHERE 1 = 1").unwrap();
    assert_eq!(scan_shapes(&plan)[0].0, 0, "{plan}");
}

#[test]
fn join_region_reordered_by_selectivity() {
    let f = fed();
    // Written with the big table first; DP should drive from the
    // filtered t1 side. We check it indirectly: results match the
    // no-reorder plan, and the reordered plan still contains both
    // scans.
    let sql = "SELECT count(*) FROM crm.t2 b JOIN crm.t1 a ON b.ref_id = a.id WHERE a.grp = 0";
    let with = f.query(sql).unwrap();
    f.set_optimizer_options(OptimizerOptions {
        join_reorder: false,
        ..OptimizerOptions::default()
    });
    let without = f.query(sql).unwrap();
    assert_eq!(with.batch.to_rows(), without.batch.to_rows());
    assert_eq!(with.batch.row_values(0)[0], Value::Int64(500));
}

#[test]
fn pushdown_respects_outer_join_semantics() {
    let f = fed();
    // A right-side predicate on a LEFT JOIN must not be pushed below
    // the join as a filter (it must stay in match semantics or above).
    let r = f
        .query(
            "SELECT a.id, b.id FROM crm.t1 a \
             LEFT JOIN crm.t2 b ON a.id = b.id AND b.ref_id = 999999 \
             WHERE a.id < 3 ORDER BY a.id",
        )
        .unwrap();
    // No t2 row has ref_id 999999: all three rows survive, padded.
    assert_eq!(r.batch.num_rows(), 3);
    assert!(r.batch.to_rows().iter().all(|row| row[1] == Value::Null));
    // WHERE on the right side of a LEFT JOIN *after* the join:
    // filters out padded rows (standard semantics).
    let r2 = f
        .query(
            "SELECT a.id, b.id FROM crm.t1 a \
             LEFT JOIN crm.t2 b ON a.id = b.id AND b.ref_id = 999999 \
             WHERE b.id IS NOT NULL",
        )
        .unwrap();
    assert_eq!(r2.batch.num_rows(), 0);
}

#[test]
fn ablations_never_change_results() {
    let f = fed();
    let sql = "SELECT a.grp, count(*) AS n, max(b.id) AS m \
               FROM crm.t1 a JOIN crm.t2 b ON a.id = b.ref_id \
               WHERE a.id BETWEEN 100 AND 400 AND b.id % 2 = 0 \
               GROUP BY a.grp HAVING count(*) > 1 ORDER BY a.grp LIMIT 20";
    f.set_optimizer_options(OptimizerOptions::default());
    let reference = f.query(sql).unwrap().batch.to_rows();
    assert!(!reference.is_empty());
    // Toggle each rule off individually and all off together.
    let mut variants = vec![OptimizerOptions::naive()];
    for i in 0..5 {
        let mut o = OptimizerOptions::default();
        match i {
            0 => o.fold_constants = false,
            1 => o.predicate_pushdown = false,
            2 => o.projection_pruning = false,
            3 => o.join_reorder = false,
            _ => o.limit_pushdown = false,
        }
        variants.push(o);
    }
    for o in variants {
        f.set_optimizer_options(o);
        f.set_exec_options(ExecOptions::default());
        let rows = f.query(sql).unwrap().batch.to_rows();
        assert_eq!(rows, reference, "{o:?} changed results");
    }
}

#[test]
fn fault_scripting_through_federation_links() {
    let f = fed();
    let link = f.source_link("crm").expect("link");
    link.faults().partition();
    let err = f.query("SELECT count(*) FROM crm.t1").unwrap_err();
    assert!(err.is_retryable(), "{err}");
    link.faults().heal();
    let ok = f.query("SELECT count(*) FROM crm.t1").unwrap();
    assert_eq!(ok.batch.row_values(0)[0], Value::Int64(1000));
    assert_eq!(f.source_names(), vec!["crm"]);
    assert!(f.source_link("ghost").is_none());
}
