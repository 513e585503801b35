//! `substrait-ir` — a Substrait-like relational plan intermediate
//! representation.
//!
//! In the paper, Substrait is the engine-neutral contract between the
//! Presto-OCS connector and OCS: the connector serializes the pushed-down
//! operator chain into Substrait IR, ships it over gRPC, and OCS's embedded
//! engine executes it. This crate provides the same contract:
//!
//! * a typed expression tree ([`Expr`]) — field references, literals,
//!   comparisons, arithmetic, boolean logic, `BETWEEN`, casts;
//! * relational operators ([`Rel`]) — `Read` (with projection), `Filter`,
//!   `Project`, `Aggregate`, `Sort`, `Fetch` (limit / top-N when stacked on
//!   `Sort`);
//! * [`planck`], the one typer: it infers every operator's output schema
//!   and rejects an ill-typed or ill-shaped plan with a coded
//!   [`Diagnostic`];
//! * a compact tag-length binary serialization ([`encode()`](fn@encode) /
//!   [`decode`]) playing the role of protobuf on the wire;
//! * a pretty-printer for plan debugging.
//!
//! # Example
//!
//! ```
//! use substrait_ir::{Expr, Plan, Rel};
//! use columnar::{DataType, Field, Scalar, Schema};
//! use columnar::kernels::cmp::CmpOp;
//!
//! let schema = Schema::new(vec![
//!     Field::new("x", DataType::Float64, false),
//!     Field::new("id", DataType::Int64, false),
//! ]);
//! let plan = Plan::new(Rel::Filter {
//!     input: Box::new(Rel::read("points", schema, None)),
//!     predicate: Expr::cmp(CmpOp::Gt, Expr::field(0), Expr::lit(Scalar::Float64(1.0))),
//! });
//! let verified = substrait_ir::planck::verify_untrusted(&plan).unwrap();
//! assert_eq!(verified.schema().names(), vec!["x", "id"]);
//!
//! let bytes = substrait_ir::encode(&plan);
//! let back = substrait_ir::decode(&bytes).unwrap();
//! assert_eq!(back, plan);
//! ```

#![warn(missing_docs)]

pub mod encode;
pub mod expr;
pub mod planck;
pub mod rel;

pub use encode::{decode, encode};
pub use expr::{Expr, Measure, SortField};
pub use planck::{DiagCode, Diagnostic, VerifiedPlan};
pub use rel::{Plan, Rel};

use std::fmt;

/// Errors from decoding plan bytes. Typing a plan is [`planck`]'s, whose
/// findings are [`Diagnostic`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// Malformed bytes.
    Corrupt(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let IrError::Corrupt(m) = self;
        write!(f, "corrupt plan bytes: {m}")
    }
}

impl std::error::Error for IrError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, IrError>;
