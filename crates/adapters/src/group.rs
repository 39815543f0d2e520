//! Replica groups: one logical source, N physical replicas.
//!
//! Kameny's component systems are autonomous — the mediator cannot
//! keep a source alive, but it *can* hold connections to more than one
//! replica of it and route around the dead ones. A [`SourceGroup`]
//! owns every [`RemoteSource`] serving the same logical source (same
//! exported tables, same adapter capabilities), each behind its own
//! [`Link`] with its own conditions, fault script, and breaker.
//!
//! Routing policy:
//!
//! * requests go to the **cheapest healthy** replica first — healthy
//!   meaning its breaker is not open, cheapest by nominal
//!   [`NetworkConditions`] message cost (the same signal the
//!   optimizer's cost model uses);
//! * on an availability failure (retry-exhausted transient loss,
//!   partition, or breaker fail-fast) execution **fails over** to the
//!   next replica in preference order;
//! * logical errors (bad request, storage corruption, unsupported
//!   operation) do **not** fail over — every replica would answer the
//!   same, and masking them behind a replica switch would hide bugs.

use crate::remote::RemoteSource;
use crate::request::SourceAdapter;
use gis_net::{BreakerState, Link, NetworkConditions, RetryPolicy};
use gis_observe::Span;
use gis_types::{Batch, GisError, Result, SchemaRef};

use crate::request::SourceRequest;
use std::sync::Arc;
use std::time::Instant;

/// A logical source backed by one or more physical replicas.
#[derive(Debug, Clone)]
pub struct SourceGroup {
    replicas: Vec<RemoteSource>,
}

impl SourceGroup {
    /// A group with a single (primary) replica.
    pub fn new(primary: RemoteSource) -> Self {
        SourceGroup {
            replicas: vec![primary],
        }
    }

    /// Registers an additional replica.
    pub fn push_replica(&mut self, replica: RemoteSource) {
        self.replicas.push(replica);
    }

    /// The logical source name (the primary adapter's name).
    pub fn name(&self) -> &str {
        self.replicas[0].name()
    }

    /// The primary replica's adapter — capability and schema metadata
    /// is identical across replicas by construction.
    pub fn adapter(&self) -> &Arc<dyn SourceAdapter> {
        self.replicas[0].adapter()
    }

    /// The primary replica's link (fault scripting, metrics).
    pub fn link(&self) -> &Link {
        self.replicas[0].link()
    }

    /// The primary replica.
    pub fn primary(&self) -> &RemoteSource {
        &self.replicas[0]
    }

    /// All replicas, primary first.
    pub fn replicas(&self) -> &[RemoteSource] {
        &self.replicas
    }

    /// Number of replicas in the group.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The current data version (replicas serve the same data).
    pub fn data_version(&self) -> u64 {
        self.adapter().data_version()
    }

    /// Applies one retry policy to every replica.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        for replica in &mut self.replicas {
            replica.set_retry_policy(policy);
        }
    }

    /// Replica indices in routing order: healthy (breaker not open)
    /// before open-breaker ones, cheaper nominal message cost first,
    /// registration order as the deterministic tiebreak.
    fn preference_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.replicas.len()).collect();
        order.sort_by_key(|&i| {
            let link = self.replicas[i].link();
            let open = link.breaker_state() == BreakerState::Open;
            (open, link.conditions().message_cost_us(1024), i)
        });
        order
    }

    /// The conditions of the replica a request would be routed to
    /// right now — what the optimizer's cost model should price
    /// shipping against.
    pub fn best_conditions(&self) -> NetworkConditions {
        let idx = self.preference_order()[0];
        self.replicas[idx].link().conditions()
    }

    /// Ships `request` with failover across replicas in preference
    /// order. Availability failures (`NETWORK`, `UNAVAILABLE`) move to
    /// the next replica; anything else returns immediately. When every
    /// replica fails, the last availability error is returned.
    /// `schema`, `traced` and `deadline` are as for
    /// [`RemoteSource::fetch`]; the deadline also stops the walk over
    /// replicas.
    pub fn fetch(
        &self,
        request: &SourceRequest,
        schema: &SchemaRef,
        traced: bool,
        deadline: Option<Instant>,
    ) -> Result<(Batch, Option<Span>)> {
        let mut failover_events: Vec<Span> = Vec::new();
        let mut last_err: Option<GisError> = None;
        for idx in self.preference_order() {
            let replica = &self.replicas[idx];
            match replica.fetch(request, schema, traced, deadline) {
                Ok((batch, span)) => {
                    // Failover events ride on the winning replica's
                    // recv span, so EXPLAIN ANALYZE names the replicas
                    // that were skipped over.
                    let span = span.map(|mut s| {
                        s.children.append(&mut failover_events);
                        s
                    });
                    return Ok((batch, span));
                }
                Err(e) if is_availability_error(&e) => {
                    if traced {
                        failover_events.push(Span::leaf(format!(
                            "event:failover[{} {}]",
                            replica.link().name(),
                            e.code()
                        )));
                    }
                    last_err = Some(e);
                    // A query past its deadline must not probe more
                    // replicas.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| GisError::Internal("source group has no replicas".into())))
    }
}

/// True for failures that mean "this replica is unreachable right
/// now" rather than "this request is wrong".
pub fn is_availability_error(e: &GisError) -> bool {
    matches!(e, GisError::Network(_) | GisError::Unavailable(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::RelationalAdapter;
    use gis_net::{BreakerConfig, SimClock, MIN_FRAME_ROWS};
    use gis_storage::RowStore;
    use gis_types::{DataType, Field, Schema, Value};

    fn adapter(rows: i64) -> Arc<RelationalAdapter> {
        let a = RelationalAdapter::new("crm");
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .into_ref();
        a.add_table(RowStore::new("customers", schema, Some(0)).unwrap());
        a.load(
            "customers",
            (0..rows).map(|i| vec![Value::Int64(i), Value::Utf8(format!("c{i}"))]),
        )
        .unwrap();
        Arc::new(a)
    }

    fn group(clock: &SimClock, conditions: &[NetworkConditions]) -> SourceGroup {
        let a = adapter(50);
        let mut replicas = conditions.iter().enumerate().map(|(i, c)| {
            let name = if i == 0 {
                "crm".to_string()
            } else {
                format!("crm@r{i}")
            };
            RemoteSource::new(a.clone(), Link::new(name, *c, clock.clone()))
        });
        let mut g = SourceGroup::new(replicas.next().unwrap());
        for r in replicas {
            g.push_replica(r);
        }
        g
    }

    fn scan_all() -> SourceRequest {
        SourceRequest::Scan {
            table: "customers".into(),
            predicates: vec![],
            projection: vec![],
            sort: vec![],
            limit: None,
        }
    }

    #[test]
    fn routes_to_cheapest_replica() {
        let clock = SimClock::new();
        let g = group(
            &clock,
            &[NetworkConditions::wan(), NetworkConditions::lan()],
        );
        assert_eq!(g.best_conditions(), NetworkConditions::lan());
        let schema = g.adapter().table_schema("customers").unwrap();
        let (batch, span) = g.fetch(&scan_all(), &schema, false, None).unwrap();
        assert!(span.is_none(), "an untraced fetch builds no span");
        assert_eq!(batch.num_rows(), 50);
        assert_eq!(g.replicas()[0].link().metrics().messages(), 0);
        assert!(g.replicas()[1].link().metrics().messages() > 0);
    }

    #[test]
    fn fetch_returns_one_batch_of_every_chunk() {
        let rows = 2 * MIN_FRAME_ROWS as i64 + 2;
        let link = Link::new("crm", NetworkConditions::instant(), SimClock::new());
        let g = SourceGroup::new(RemoteSource::new(adapter(rows), link));
        let schema = g.adapter().table_schema("customers").unwrap();
        let (batch, _) = g.fetch(&scan_all(), &schema, false, None).unwrap();
        // 1 024-row frames on a link without latency: one request,
        // three response messages.
        assert_eq!(g.link().metrics().messages(), 4);
        assert_eq!(batch.num_rows(), rows as usize);
        assert_eq!(batch.schema(), &schema);
        assert_eq!(
            batch.row(rows as usize - 1).value(0),
            Value::Int64(rows - 1)
        );
    }

    #[test]
    fn fails_over_when_preferred_replica_is_partitioned() {
        let clock = SimClock::new();
        let g = group(
            &clock,
            &[NetworkConditions::lan(), NetworkConditions::wan()],
        );
        g.replicas()[0].link().faults().partition();
        let schema = g.adapter().table_schema("customers").unwrap();
        let (batch, span) = g.fetch(&scan_all(), &schema, true, None).unwrap();
        let span = span.expect("a traced fetch reports a recv span");
        assert_eq!(batch.num_rows(), 50, "answered by the surviving replica");
        assert!(span.find("event:failover[crm NETWORK]").is_some());
        assert_eq!(g.replicas()[0].link().metrics().failures(), 3);
    }

    #[test]
    fn open_breaker_demotes_a_replica_in_routing_order() {
        let clock = SimClock::new();
        let g = group(
            &clock,
            &[NetworkConditions::lan(), NetworkConditions::wan()],
        );
        g.replicas()[0].link().breaker().set_config(BreakerConfig {
            failure_threshold: 1,
            cooldown_us: 1_000_000,
        });
        g.replicas()[0].link().faults().partition();
        // Trip the breaker on the fast replica.
        let schema = g.adapter().table_schema("customers").unwrap();
        g.fetch(&scan_all(), &schema, false, None).unwrap();
        assert_eq!(g.replicas()[0].link().breaker_state(), BreakerState::Open);
        // Now the wan replica is preferred — the partitioned lan one
        // is not even probed (zero additional failures).
        let before = g.replicas()[0].link().metrics().failures();
        assert_eq!(g.best_conditions(), NetworkConditions::wan());
        g.fetch(&scan_all(), &schema, false, None).unwrap();
        assert_eq!(g.replicas()[0].link().metrics().failures(), before);
    }

    #[test]
    fn all_replicas_down_returns_last_availability_error() {
        let clock = SimClock::new();
        let g = group(
            &clock,
            &[NetworkConditions::instant(), NetworkConditions::instant()],
        );
        for r in g.replicas() {
            r.link().faults().partition();
        }
        let schema = g.adapter().table_schema("customers").unwrap();
        let err = g.fetch(&scan_all(), &schema, false, None).unwrap_err();
        assert!(is_availability_error(&err));
        assert_eq!(g.replicas()[0].link().metrics().failures(), 3);
        assert_eq!(g.replicas()[1].link().metrics().failures(), 3);
    }

    #[test]
    fn logical_errors_do_not_fail_over() {
        let clock = SimClock::new();
        let g = group(
            &clock,
            &[NetworkConditions::instant(), NetworkConditions::instant()],
        );
        let bad = SourceRequest::Scan {
            table: "no_such_table".into(),
            predicates: vec![],
            projection: vec![],
            sort: vec![],
            limit: None,
        };
        let schema = g.adapter().table_schema("customers").unwrap();
        let err = g.fetch(&bad, &schema, false, None).unwrap_err();
        assert!(!is_availability_error(&err));
        // The second replica never saw the request.
        assert_eq!(g.replicas()[1].link().metrics().messages(), 0);
        assert_eq!(g.replicas()[1].link().metrics().failures(), 0);
    }
}
