//! Vectorized compute kernels operating on whole arrays.
//!
//! Kernels are NULL-propagating: any NULL input produces a NULL output slot
//! (SQL three-valued logic lives in [`boolean`]).

pub mod arith;
pub mod boolean;
pub mod cast;
pub mod cmp;
#[cfg(test)]
mod differential;
pub mod hash;
pub mod selection;
