//! # spbla-core — sparse Boolean linear algebra
//!
//! Rust reproduction of **SPbLA** (Orachev et al., 2021): a library of
//! sparse *Boolean* matrix operations in the style of GraphBLAS, with the
//! two GPGPU backends of the paper mapped onto a simulated device:
//!
//! * [`Backend::CudaSim`] — the *cuBool* design: CSR storage,
//!   Nsparse-style hash SpGEMM with row binning, two-pass merge-path
//!   addition;
//! * [`Backend::ClSim`] — the *clBool* design: COO storage, one-pass
//!   merge addition, ESC (expand–sort–compact) SpGEMM;
//! * [`Backend::Cpu`] — a sequential host reference used as the oracle.
//!
//! The library operates on the Boolean semiring `({0,1}, ∨, ∧)`: `+` is
//! logical *or*, `×` is logical *and*, and matrices store no values at all
//! — a `true` cell is encoded purely by its `(i, j)` coordinates. This is
//! the specialisation the paper benchmarks against generic (valued)
//! sparse libraries.
//!
//! ## Quickstart
//!
//! ```
//! use spbla_core::{Instance, Matrix};
//!
//! let inst = Instance::cuda_sim();
//! let a = Matrix::from_pairs(&inst, 3, 3, &[(0, 1), (1, 2)]).unwrap();
//! let b = Matrix::from_pairs(&inst, 3, 3, &[(1, 2), (2, 0)]).unwrap();
//!
//! // C = A · B over the Boolean semiring.
//! let c = a.mxm(&b).unwrap();
//! assert_eq!(c.read(), vec![(0, 2), (1, 0)]);
//!
//! // K = A ⊗ B (Kronecker product), E = A + B (element-wise or).
//! let k = a.kron(&b).unwrap();
//! assert_eq!(k.nnz(), a.nnz() * b.nnz());
//! let e = a.ewise_add(&b).unwrap();
//! assert_eq!(e.nnz(), 3); // (1, 2) is in both operands
//! ```

pub mod backend;
pub mod block;
pub mod error;
pub mod format;
pub mod index;
pub mod instance;
pub mod matrix;
pub mod vector;

pub use block::{BlockMatrix, K2Tree, TileFormat};
pub use error::{Result, SpblaError};
pub use format::coo::CooBool;
pub use format::csr::CsrBool;
pub use format::dense::DenseBool;
pub use index::{Index, Pair};
pub use instance::{Backend, Instance};
pub use matrix::{FusedProduct, Matrix};
pub use vector::Vector;
