//! Sparse Boolean matrix storage formats.
//!
//! * [`csr::CsrBool`] — compressed sparse row, the cuBool format:
//!   `(m + 1 + nnz) · sizeof(Index)` bytes;
//! * [`coo::CooBool`] — coordinate list, the clBool format:
//!   `2 · nnz · sizeof(Index)` bytes, better for hypersparse matrices with
//!   many empty rows;
//! * [`dense::DenseBool`] — a bit matrix used as the testing oracle.
//!
//! The sequential operations on `CsrBool` double as the CPU reference
//! backend: every simulated-GPU kernel is tested against them.

pub mod convert;
pub mod coo;
pub mod csr;
pub mod dense;
