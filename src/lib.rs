//! # gis — a Global Information System
//!
//! A from-scratch Rust federated query engine in the spirit of
//! Kameny's ICDE 1989 vision paper *Global Information System
//! Issues*: one **global schema**, many **autonomous component
//! information systems**, and a mediator that decomposes SQL into
//! per-source fragments, ships as little as possible across a (here:
//! simulated, metered) wide-area network, and integrates the results.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`types`] | `gis-types` | values, arrays, schemas, batches |
//! | [`sql`] | `gis-sql` | lexer, parser, AST, unparser |
//! | [`catalog`] | `gis-catalog` | global schema, mappings, capabilities |
//! | [`storage`] | `gis-storage` | row store, column store, KV store |
//! | [`net`] | `gis-net` | simulated WAN, wire format, fault injection |
//! | [`observe`] | `gis-observe` | operator spans, EXPLAIN ANALYZE trees, metrics text |
//! | [`adapters`] | `gis-adapters` | source wrappers + fragment protocol |
//! | [`core`] | `gis-core` | binder, optimizer, executor, federation façade |
//! | [`views`] | `gis-views` | materialized views, staleness tracking, refresh policies |
//! | [`runtime`] | `gis-runtime` | sessions, scheduling, plan/result caches |
//! | [`datagen`] | `gis-datagen` | deterministic FedMart workloads |
//!
//! ## Quickstart
//!
//! ```
//! use gis::prelude::*;
//!
//! // A ready-made three-source federation with a retail workload.
//! let fm = gis::datagen::build_fedmart(FedMartConfig::tiny()).unwrap();
//! let result = fm
//!     .federation
//!     .query(
//!         "SELECT c.region, count(*) AS orders, sum(o.amount) AS revenue \
//!          FROM customers c JOIN orders o ON c.id = o.cust_id \
//!          GROUP BY c.region ORDER BY revenue DESC LIMIT 3",
//!     )
//!     .unwrap();
//! println!("{}", result.batch.to_table());
//! println!("shipped {} bytes in {} messages", result.metrics.bytes_shipped,
//!          result.metrics.messages);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gis_adapters as adapters;
pub use gis_catalog as catalog;
pub use gis_core as core;
pub use gis_datagen as datagen;
pub use gis_net as net;
pub use gis_observe as observe;
pub use gis_runtime as runtime;
pub use gis_sql as sql;
pub use gis_storage as storage;
pub use gis_types as types;
pub use gis_views as views;

/// The most common imports for downstream users.
pub mod prelude {
    pub use gis_adapters::{
        ColumnarAdapter, KvAdapter, RelationalAdapter, SourceAdapter, SourceGroup,
    };
    pub use gis_catalog::{CapabilityProfile, ColumnMapping, TableMapping, Transform};
    pub use gis_core::{
        DegradedReport, ExecOptions, Federation, JoinStrategy, OptimizerOptions, QueryCtx,
        QueryMetrics, QueryResult,
    };
    pub use gis_datagen::{build_fedmart, FedMart, FedMartConfig};
    pub use gis_net::{BreakerConfig, BreakerState, NetworkConditions, RetryPolicy};
    pub use gis_observe::Span;
    pub use gis_runtime::{Priority, Runtime, RuntimeConfig, Session};
    pub use gis_storage::{ColumnStore, KvStore, RowStore};
    pub use gis_types::{Batch, DataType, Field, GisError, Result, Schema, Value};
    pub use gis_views::{RefreshPolicy, Staleness, ViewGauges};
}
