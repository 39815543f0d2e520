//! # gis-types — shared data representation for the GIS federated engine
//!
//! This crate defines the data model every other crate speaks:
//!
//! * [`DataType`] — the logical type lattice of the global schema, with
//!   the coercion rules the mediator uses to reconcile heterogeneous
//!   component schemas.
//! * [`Value`] — a single dynamically-typed scalar (used at plan time,
//!   for literals, keys and parameter binding).
//! * [`Array`] — a columnar, null-bitmap-backed vector of values (used
//!   at execution time; operators are vectorized over arrays).
//! * [`Schema`] / [`Field`] — named, typed, nullable column metadata.
//! * [`Batch`] — a schema plus equal-length arrays: the unit of data
//!   flow between operators and across the simulated network.
//!
//! The representation is deliberately self-contained (no Arrow
//! dependency): the federation experiments need exact control over the
//! wire size of every batch, which a hand-rolled layout makes auditable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod array;
pub mod batch;
pub mod bitmap;
pub mod datatype;
pub mod error;
pub mod keys;
pub mod mem;
pub mod ordering;
pub mod row;
pub mod schema;
pub mod value;

pub use array::{Array, ArrayBuilder, Buffer, ValuesMut};
pub use batch::Batch;
pub use bitmap::Bitmap;
pub use datatype::DataType;
pub use error::{GisError, Result};
pub use mem::{MemBudget, MemPool, MemPressure};
pub use ordering::{SortKey, SortOrder};
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use value::Value;
