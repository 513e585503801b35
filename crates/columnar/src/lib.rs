//! `columnar` — an Arrow-like in-memory columnar data representation.
//!
//! This crate is the substrate playing the role Apache Arrow plays in the
//! paper *Integrating Distributed SQL Query Engines with Object-Based
//! Computational Storage*: a typed, nullable, schema-carrying columnar
//! format used both for vectorized query execution and for serializing
//! result sets across the storage/compute network boundary.
//!
//! # Layout
//!
//! * [`datatype`] — the logical type system ([`DataType`], [`Scalar`]).
//! * [`bitmap`] — packed validity/selection bitmaps.
//! * [`array`](mod@array) — immutable typed arrays and the [`Array`] enum.
//! * [`dict`] — dictionary-coded strings ([`DictArray`]), what a `parq`
//!   dictionary page decodes to; expanded only where bytes leave.
//! * [`builder`] — incremental array construction.
//! * [`schema`] — [`Field`] / [`Schema`].
//! * [`batch`] — [`RecordBatch`], the unit of vectorized execution
//!   (Presto would call this a *Page*).
//! * [`kernels`] — vectorized compute: comparisons, arithmetic, boolean
//!   logic, selection (filter/take), casting and hashing.
//! * [`agg`] — aggregate functions and type-specialized columnar
//!   accumulators (`SUM`/`MIN`/`MAX`/`AVG`/`COUNT`).
//! * [`groupby`] — the vectorized group-id kernel and
//!   [`groupby::GroupedAggregator`], the single grouped-aggregation engine
//!   shared by the query engine and the OCS storage executor.
//! * [`expr`] — the one expression walker (evaluation, cost weight,
//!   referenced columns) shared by the engine's and the storage executor's
//!   expression IRs.
//! * [`ops`] — the one operator layer over that walker: the batch-level
//!   bodies of filter, project, grouped aggregation, sort, top-N and fetch
//!   that both sides of the pushdown boundary call.
//! * [`sort`] — multi-key lexicographic sorting and top-N selection.
//! * [`ipc`] — a compact IPC-style wire format for shipping batches
//!   (the "Arrow flight" of this reproduction).
//!
//! # Example
//!
//! ```
//! use columnar::prelude::*;
//!
//! let schema = Schema::new(vec![
//!     Field::new("x", DataType::Float64, false),
//!     Field::new("id", DataType::Int64, false),
//! ]);
//! let batch = RecordBatch::try_new(
//!     schema.into(),
//!     vec![
//!         Array::from_f64(vec![0.5, 1.5, 2.5]).into(),
//!         Array::from_i64(vec![1, 2, 3]).into(),
//!     ],
//! )
//! .unwrap();
//!
//! // keep rows where x > 1.0
//! let mask = columnar::kernels::cmp::gt_scalar(batch.column(0), &Scalar::Float64(1.0)).unwrap();
//! let filtered = columnar::kernels::selection::filter_batch(&batch, &mask).unwrap();
//! assert_eq!(filtered.num_rows(), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod agg;
pub mod array;
pub mod batch;
pub mod bitmap;
pub mod builder;
pub mod datatype;
pub mod dict;
pub mod error;
pub mod expr;
pub mod groupby;
pub mod ipc;
pub mod kernels;
pub mod ops;
pub mod schema;
pub mod sort;

pub use array::{Array, ArrayRef, BooleanArray, Float64Array, Int64Array, Utf8Array};
pub use batch::RecordBatch;
pub use bitmap::Bitmap;
pub use datatype::{DataType, Scalar};
pub use dict::DictArray;
pub use error::{ColumnarError, Result};
pub use schema::{Field, Schema, SchemaRef};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::array::{Array, ArrayRef};
    pub use crate::batch::RecordBatch;
    pub use crate::bitmap::Bitmap;
    pub use crate::builder::ArrayBuilder;
    pub use crate::datatype::{DataType, Scalar};
    pub use crate::error::{ColumnarError, Result};
    pub use crate::schema::{Field, Schema, SchemaRef};
}
