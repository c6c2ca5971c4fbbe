//! The `Matrix` handle — the library's main primitive.

use std::sync::OnceLock;

use spbla_gpu_sim::with_kernel_label;
use spbla_obs::{labeled, metrics_global, trace_global};

use crate::backend::cl_sim::{self, DeviceCoo};
use crate::backend::cuda_sim::{self, DeviceCsr};
use crate::backend::dispatch::KernelDispatch;
use crate::block::BlockMatrix;
use crate::error::{Result, SpblaError};
use crate::format::coo::CooBool;
use crate::format::csr::CsrBool;
use crate::index::{Index, Pair};
use crate::instance::{Backend, Instance};
use crate::vector::Vector;

#[derive(Debug)]
enum Repr {
    Cpu(CsrBool),
    Cuda(DeviceCsr),
    Cl(DeviceCoo),
    /// Adaptive tiled block storage (any backend, [`Instance::is_blocked`]).
    Block(BlockMatrix),
}

/// Dispatch a same-backend binary kernel through [`KernelDispatch`]: one
/// arm per representation, each calling the *same* trait expression, so
/// every `Matrix` op is written once instead of four times.
macro_rules! dispatch2 {
    ($lhs:expr, $rhs:expr, |$a:ident, $b:ident| $body:expr) => {
        match (&$lhs.repr, &$rhs.repr) {
            (Repr::Cpu($a), Repr::Cpu($b)) => Ok(Repr::Cpu($body?)),
            (Repr::Cuda($a), Repr::Cuda($b)) => Ok(Repr::Cuda($body?)),
            (Repr::Cl($a), Repr::Cl($b)) => Ok(Repr::Cl($body?)),
            (Repr::Block($a), Repr::Block($b)) => Ok(Repr::Block($body?)),
            _ => Err(SpblaError::BackendMismatch),
        }
    };
}

/// Ternary (masked) variant of [`dispatch2!`].
macro_rules! dispatch3 {
    ($lhs:expr, $rhs:expr, $third:expr, |$a:ident, $b:ident, $c:ident| $body:expr) => {
        match (&$lhs.repr, &$rhs.repr, &$third.repr) {
            (Repr::Cpu($a), Repr::Cpu($b), Repr::Cpu($c)) => Ok(Repr::Cpu($body?)),
            (Repr::Cuda($a), Repr::Cuda($b), Repr::Cuda($c)) => Ok(Repr::Cuda($body?)),
            (Repr::Cl($a), Repr::Cl($b), Repr::Cl($c)) => Ok(Repr::Cl($body?)),
            (Repr::Block($a), Repr::Block($b), Repr::Block($c)) => Ok(Repr::Block($body?)),
            _ => Err(SpblaError::BackendMismatch),
        }
    };
}

/// Unary variant: dispatch a kernel over a single representation.
macro_rules! dispatch1 {
    ($m:expr, |$a:ident| $body:expr) => {
        match &$m.repr {
            Repr::Cpu($a) => $body,
            Repr::Cuda($a) => $body,
            Repr::Cl($a) => $body,
            Repr::Block($a) => $body,
        }
    };
}

/// Run one kernel-level op under observability: an `"op"` trace span on
/// the owning device's track, a kernel label (so device launch spans
/// emitted inside carry the op's name rather than a generic one), and
/// per-backend per-kernel histograms — rows, nnz in/out, accumulator
/// insertions — in the global [`MetricsRegistry`](spbla_obs::MetricsRegistry).
///
/// When tracing is disabled the span is skipped entirely (one relaxed
/// atomic load); histograms are always on but amortise to a handful of
/// atomic adds per *operation*, not per element.
fn observe_op<R>(
    instance: &Instance,
    kernel: &'static str,
    rows: u64,
    nnz_in: u64,
    f: impl FnOnce() -> Result<R>,
    nnz_out: impl FnOnce(&R) -> u64,
) -> Result<R> {
    let device = instance.device();
    let track = device.map_or(0, |d| d.ordinal());
    let mut span = trace_global().span(kernel, "op", track);
    let insertions_before = device.map_or(0, |d| d.stats().accum_insertions);
    let out = with_kernel_label(kernel, f)?;
    let produced = nnz_out(&out);
    let inserted = device
        .map_or(0, |d| d.stats().accum_insertions)
        .saturating_sub(insertions_before);
    if let Some(span) = span.as_mut() {
        span.arg("rows", rows);
        span.arg("nnz_in", nnz_in);
        span.arg("nnz_out", produced);
        span.arg("insertions", inserted);
    }
    let labels = [("backend", instance.backend().label()), ("kernel", kernel)];
    let reg = metrics_global();
    reg.histogram(&labeled("spbla_kernel_rows", &labels))
        .observe(rows);
    reg.histogram(&labeled("spbla_kernel_nnz_in", &labels))
        .observe(nnz_in);
    reg.histogram(&labeled("spbla_kernel_nnz_out", &labels))
        .observe(produced);
    reg.histogram(&labeled("spbla_kernel_insertions", &labels))
        .observe(inserted);
    Ok(out)
}

/// A sparse Boolean matrix owned by an [`Instance`].
///
/// Operations follow the paper's list: create/fill/read, transpose,
/// sub-matrix extraction, reduce-to-vector, matrix multiplication
/// (`mxm`, plus the multiply-add form `mxm_acc`), element-wise addition,
/// and Kronecker product.
#[derive(Debug)]
pub struct Matrix {
    instance: Instance,
    repr: Repr,
    /// Cached `nnz`. A `Matrix` is immutable — every operation returns a
    /// new handle — so set-once caching *is* mutation invalidation: the
    /// only way to change the structure is to make a new handle with an
    /// empty cache. Ops that know their output count (the fused
    /// accumulate kernel, constructors) prime it at wrap time, making
    /// the fixpoint loops' `nnz()` termination checks free of kernel
    /// launches and host syncs.
    nnz_cache: OnceLock<usize>,
}

/// Result of [`Matrix::mxm_accum_compmask`] — the accumulated matrix,
/// the fresh-entry count (the fixpoint termination signal), and, when
/// requested, the fresh entries themselves (the next round's delta).
#[derive(Debug)]
pub struct FusedProduct {
    /// `C ∪ ((A · B) ∧ ¬C)`.
    pub acc: Matrix,
    /// `nnz((A · B) ∧ ¬C)` — zero means the fixpoint converged.
    pub fresh_nnz: usize,
    /// The fresh entries, materialised only when requested.
    pub fresh: Option<Matrix>,
}

impl Matrix {
    fn wrap(instance: &Instance, repr: Repr) -> Matrix {
        Matrix {
            instance: instance.clone(),
            repr,
            nnz_cache: OnceLock::new(),
        }
    }

    /// Wrap with a known `nnz`, priming the cache so later `nnz()` calls
    /// cost nothing.
    fn wrap_with_nnz(instance: &Instance, repr: Repr, nnz: usize) -> Matrix {
        let m = Matrix::wrap(instance, repr);
        let _ = m.nnz_cache.set(nnz);
        m
    }

    fn from_csr_host(instance: &Instance, host: CsrBool) -> Result<Matrix> {
        if instance.is_blocked() {
            return Ok(Matrix::wrap(
                instance,
                Repr::Block(BlockMatrix::from_csr(&host)),
            ));
        }
        let repr = match instance.backend() {
            Backend::Cpu => Repr::Cpu(host),
            Backend::CudaSim => {
                let dev = instance.device().expect("cuda-sim instance has a device");
                Repr::Cuda(DeviceCsr::upload(dev, &host)?)
            }
            Backend::ClSim => {
                let dev = instance.device().expect("cl-sim instance has a device");
                Repr::Cl(DeviceCoo::upload(dev, &CooBool::from(&host))?)
            }
        };
        Ok(Matrix::wrap(instance, repr))
    }

    /// An empty `nrows × ncols` matrix.
    pub fn zeros(instance: &Instance, nrows: Index, ncols: Index) -> Result<Matrix> {
        Matrix::from_csr_host(instance, CsrBool::zeros(nrows, ncols))
    }

    /// The identity matrix of order `n`.
    pub fn identity(instance: &Instance, n: Index) -> Result<Matrix> {
        Matrix::from_csr_host(instance, CsrBool::identity(n))
    }

    /// Build from coordinate pairs (the paper's "fill matrix with
    /// values"); duplicates collapse, out-of-bounds coordinates error.
    pub fn from_pairs(
        instance: &Instance,
        nrows: Index,
        ncols: Index,
        pairs: &[Pair],
    ) -> Result<Matrix> {
        Matrix::from_csr_host(instance, CsrBool::from_pairs(nrows, ncols, pairs)?)
    }

    /// Adopt a host CSR matrix.
    pub fn from_csr(instance: &Instance, host: CsrBool) -> Result<Matrix> {
        Matrix::from_csr_host(instance, host)
    }

    /// The owning instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        match &self.repr {
            Repr::Cpu(m) => m.nrows(),
            Repr::Cuda(m) => m.nrows(),
            Repr::Cl(m) => m.nrows(),
            Repr::Block(m) => m.nrows(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        match &self.repr {
            Repr::Cpu(m) => m.ncols(),
            Repr::Cuda(m) => m.ncols(),
            Repr::Cl(m) => m.ncols(),
            Repr::Block(m) => m.ncols(),
        }
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (Index, Index) {
        (self.nrows(), self.ncols())
    }

    /// Number of `true` cells. Cached on the handle after the first call
    /// (the handle is immutable, so the count can never go stale); ops
    /// that already know their output count prime the cache, so fixpoint
    /// termination checks never launch a reduction.
    pub fn nnz(&self) -> usize {
        *self.nnz_cache.get_or_init(|| match &self.repr {
            Repr::Cpu(m) => m.nnz(),
            Repr::Cuda(m) => m.nnz(),
            Repr::Cl(m) => m.nnz(),
            Repr::Block(m) => m.nnz(),
        })
    }

    /// Whether the matrix has no `true` cells.
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// Storage footprint in bytes under the backend's format.
    pub fn memory_bytes(&self) -> usize {
        match &self.repr {
            Repr::Cpu(m) => m.memory_bytes(),
            Repr::Cuda(m) => m.memory_bytes(),
            Repr::Cl(m) => m.memory_bytes(),
            Repr::Block(m) => m.memory_bytes(),
        }
    }

    /// `(dense, csr, coo)` tile counts when this matrix uses tiled
    /// block storage; `None` on flat representations.
    pub fn block_format_census(&self) -> Option<(usize, usize, usize)> {
        match &self.repr {
            Repr::Block(m) => Some(m.format_census()),
            _ => None,
        }
    }

    /// Read all `true` coordinates, row-major (the paper's "read matrix
    /// values").
    pub fn read(&self) -> Vec<Pair> {
        match &self.repr {
            Repr::Cpu(m) => m.to_pairs(),
            Repr::Cuda(m) => m.download().to_pairs(),
            Repr::Cl(m) => m.download().to_pairs(),
            Repr::Block(m) => m.to_pairs(),
        }
    }

    /// Materialise as a host CSR matrix.
    pub fn to_csr(&self) -> CsrBool {
        match &self.repr {
            Repr::Cpu(m) => m.clone(),
            Repr::Cuda(m) => m.download(),
            Repr::Cl(m) => CsrBool::from(&m.download()),
            Repr::Block(m) => m.to_csr(),
        }
    }

    /// Test one cell (downloads the row on device backends; intended for
    /// small matrices and tests).
    pub fn get(&self, i: Index, j: Index) -> bool {
        match &self.repr {
            Repr::Cpu(m) => m.get(i, j),
            Repr::Cuda(m) => i < m.nrows() && m.row(i).binary_search(&j).is_ok(),
            Repr::Cl(m) => m
                .rows()
                .iter()
                .zip(m.cols())
                .any(|(&r, &c)| r == i && c == j),
            Repr::Block(m) => m.get(i, j),
        }
    }

    /// Move the matrix to another instance (re-uploading as needed).
    pub fn to_instance(&self, instance: &Instance) -> Result<Matrix> {
        Matrix::from_csr_host(instance, self.to_csr())
    }

    /// Open a parent `"op"` span for a composite operation (fixpoints,
    /// powers); the leaf ops it calls nest underneath automatically.
    fn composite_span(&self, name: &'static str) -> Option<spbla_obs::SpanGuard<'static>> {
        let track = self.instance.device().map_or(0, |d| d.ordinal());
        trace_global().span(name, "op", track)
    }

    fn check_same_instance(&self, other: &Matrix) -> Result<()> {
        if !self.instance.same_as(&other.instance) {
            return Err(SpblaError::BackendMismatch);
        }
        Ok(())
    }

    fn check_mul_dims(&self, other: &Matrix) -> Result<()> {
        if self.ncols() != other.nrows() {
            return Err(SpblaError::DimensionMismatch {
                op: "mxm",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }

    fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(SpblaError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }

    /// `C = A · B` over the Boolean semiring.
    ///
    /// ```
    /// use spbla_core::{Instance, Matrix};
    /// let inst = Instance::cl_sim();
    /// let a = Matrix::from_pairs(&inst, 2, 2, &[(0, 0), (0, 1)]).unwrap();
    /// let b = Matrix::from_pairs(&inst, 2, 2, &[(1, 1)]).unwrap();
    /// assert_eq!(a.mxm(&b).unwrap().read(), vec![(0, 1)]);
    /// ```
    pub fn mxm(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_instance(other)?;
        self.check_mul_dims(other)?;
        let nnz_in = (self.nnz() + other.nnz()) as u64;
        observe_op(
            &self.instance,
            "mxm",
            self.nrows() as u64,
            nnz_in,
            || {
                let repr = dispatch2!(self, other, |a, b| a.k_mxm(b))?;
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// Multiply-add `C = self + A · B` — the paper's `C += M × N` form.
    pub fn mxm_acc(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        let product = a.mxm(b)?;
        self.check_same_shape(&product, "mxm_acc")?;
        self.ewise_add(&product)
    }

    /// Element-wise Boolean sum `C = A + B` (set union).
    pub fn ewise_add(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_instance(other)?;
        self.check_same_shape(other, "ewise_add")?;
        let nnz_in = (self.nnz() + other.nnz()) as u64;
        observe_op(
            &self.instance,
            "ewise_add",
            self.nrows() as u64,
            nnz_in,
            || {
                let repr = dispatch2!(self, other, |a, b| a.k_ewise_add(b))?;
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// Element-wise Boolean product `C = A ∧ B` (set intersection).
    pub fn ewise_mult(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_instance(other)?;
        self.check_same_shape(other, "ewise_mult")?;
        let nnz_in = (self.nnz() + other.nnz()) as u64;
        observe_op(
            &self.instance,
            "ewise_mult",
            self.nrows() as u64,
            nnz_in,
            || {
                let repr = dispatch2!(self, other, |a, b| a.k_ewise_mult(b))?;
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// Element-wise Boolean difference `C = A ∧ ¬B` (set difference).
    /// No backend ships a dedicated and-not kernel, so this rides the
    /// complement-masked SpGEMM with an identity right operand:
    /// `(A · I) ∧ ¬B` — one launch, same metering as the fixpoint
    /// primitive it is usually paired with.
    pub fn ewise_andnot(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "ewise_andnot")?;
        let identity = Matrix::identity(&self.instance, self.ncols())?;
        self.mxm_compmask(&identity, other)
    }

    /// Kronecker product `K = A ⊗ B`.
    pub fn kron(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_instance(other)?;
        let nnz_in = (self.nnz() + other.nnz()) as u64;
        observe_op(
            &self.instance,
            "kron",
            self.nrows() as u64,
            nnz_in,
            || {
                let repr = match (&self.repr, &other.repr) {
                    (Repr::Cpu(a), Repr::Cpu(b)) => Repr::Cpu(a.kron(b)?),
                    (Repr::Cuda(a), Repr::Cuda(b)) => Repr::Cuda(cuda_sim::kron::kron(a, b)?),
                    (Repr::Cl(a), Repr::Cl(b)) => Repr::Cl(cl_sim::structure::kron(a, b)?),
                    (Repr::Block(a), Repr::Block(b)) => Repr::Block(a.kron(b)?),
                    _ => return Err(SpblaError::BackendMismatch),
                };
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// Transpose `Mᵀ`.
    pub fn transpose(&self) -> Result<Matrix> {
        observe_op(
            &self.instance,
            "transpose",
            self.nrows() as u64,
            self.nnz() as u64,
            || {
                let repr = match &self.repr {
                    Repr::Cpu(m) => Repr::Cpu(m.transpose()),
                    Repr::Cuda(m) => Repr::Cuda(cuda_sim::structure::transpose(m)?),
                    Repr::Cl(m) => Repr::Cl(cl_sim::structure::transpose(m)?),
                    Repr::Block(m) => Repr::Block(m.transpose()),
                };
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// Extract `M[i0 .. i0+nrows, j0 .. j0+ncols]`.
    pub fn submatrix(&self, i0: Index, j0: Index, nrows: Index, ncols: Index) -> Result<Matrix> {
        observe_op(
            &self.instance,
            "submatrix",
            nrows as u64,
            self.nnz() as u64,
            || {
                let repr = match &self.repr {
                    Repr::Cpu(m) => Repr::Cpu(m.submatrix(i0, j0, nrows, ncols)?),
                    Repr::Cuda(m) => {
                        Repr::Cuda(cuda_sim::structure::submatrix(m, i0, j0, nrows, ncols)?)
                    }
                    Repr::Cl(m) => Repr::Cl(cl_sim::structure::submatrix(m, i0, j0, nrows, ncols)?),
                    Repr::Block(m) => Repr::Block(m.submatrix(i0, j0, nrows, ncols)?),
                };
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// `V = reduceToColumn(M)`: the Boolean or along each row.
    pub fn reduce_to_column(&self) -> Result<Vector> {
        observe_op(
            &self.instance,
            "reduce_to_column",
            self.nrows() as u64,
            self.nnz() as u64,
            || {
                let indices = dispatch1!(self, |m| m.k_reduce_to_column())?;
                Vector::from_sorted_indices(&self.instance, self.nrows(), indices)
            },
            |v| v.indices().len() as u64,
        )
    }

    /// The Boolean or along each column.
    pub fn reduce_to_row(&self) -> Result<Vector> {
        observe_op(
            &self.instance,
            "reduce_to_row",
            self.nrows() as u64,
            self.nnz() as u64,
            || {
                let indices = dispatch1!(self, |m| m.k_reduce_to_row())?;
                Vector::from_sorted_indices(&self.instance, self.ncols(), indices)
            },
            |v| v.indices().len() as u64,
        )
    }

    /// Sparse-vector × matrix product `out = v · M` (frontier push).
    pub fn vxm(&self, v: &Vector) -> Result<Vector> {
        if v.len() != self.nrows() {
            return Err(SpblaError::DimensionMismatch {
                op: "vxm",
                lhs: (1, v.len()),
                rhs: self.shape(),
            });
        }
        observe_op(
            &self.instance,
            "vxm",
            self.nrows() as u64,
            (self.nnz() + v.indices().len()) as u64,
            || {
                let out = dispatch1!(self, |m| m.k_vxm(v.indices()))?;
                Vector::from_sorted_indices(&self.instance, self.ncols(), out)
            },
            |v| v.indices().len() as u64,
        )
    }

    /// Matrix × sparse-vector product `out = M · v` (pull direction):
    /// `out[i] = ⋁_j M[i,j] ∧ v[j]`.
    pub fn mxv(&self, v: &Vector) -> Result<Vector> {
        if v.len() != self.ncols() {
            return Err(SpblaError::DimensionMismatch {
                op: "mxv",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        observe_op(
            &self.instance,
            "mxv",
            self.nrows() as u64,
            (self.nnz() + v.indices().len()) as u64,
            || {
                let out: Vec<Index> = match &self.repr {
                    Repr::Cpu(m) => (0..m.nrows())
                        .filter(|&i| m.row(i).iter().any(|j| v.get(*j)))
                        .collect(),
                    Repr::Cuda(m) => (0..m.nrows())
                        .filter(|&i| m.row(i).iter().any(|j| v.get(*j)))
                        .collect(),
                    Repr::Cl(m) => {
                        let offs = m.row_offsets();
                        let cols = m.cols();
                        (0..m.nrows())
                            .filter(|&i| {
                                cols[offs[i as usize]..offs[i as usize + 1]]
                                    .iter()
                                    .any(|j| v.get(*j))
                            })
                            .collect()
                    }
                    Repr::Block(m) => m.mxv_indices(v.indices()),
                };
                Vector::from_sorted_indices(&self.instance, self.nrows(), out)
            },
            |v| v.indices().len() as u64,
        )
    }

    /// Direction-optimised frontier step `out = v · M`.
    ///
    /// Sparse frontiers go **push** (row-gather SpMSpV: gather the
    /// selected rows, sort, unique — work proportional to the gathered
    /// multiset); dense frontiers go **pull** (one sweep accumulating
    /// into a `⌈n/64⌉`-word bitmap — work proportional to nnz touched,
    /// no sort). The crossover is [`Matrix::FRONTIER_PULL_DENSITY`]:
    /// PR 5's `spbla_kernel_nnz_in` histograms for `vxm` on the LUBM BFS
    /// ladder put the push path's sort ahead of the bitmap sweep until
    /// roughly one frontier vertex per 32 rows, after which gather+sort
    /// dominates. Each decision is counted in
    /// `spbla_frontier_{push,pull}_total` so the threshold stays
    /// observable in `spbla trace` and `report obs`.
    pub fn frontier_step(&self, v: &Vector) -> Result<Vector> {
        if v.len() != self.nrows() {
            return Err(SpblaError::DimensionMismatch {
                op: "frontier_step",
                lhs: (1, v.len()),
                rhs: self.shape(),
            });
        }
        let frontier_nnz = v.indices().len();
        let pull = frontier_nnz * Matrix::FRONTIER_PULL_DENSITY >= self.nrows() as usize
            && frontier_nnz > 0;
        let kernel = if pull {
            "frontier_pull"
        } else {
            "frontier_push"
        };
        let counter = if pull {
            "spbla_frontier_pull_total"
        } else {
            "spbla_frontier_push_total"
        };
        let labels = [("backend", self.instance.backend().label())];
        metrics_global().counter(&labeled(counter, &labels)).inc(1);
        observe_op(
            &self.instance,
            kernel,
            self.nrows() as u64,
            (self.nnz() + frontier_nnz) as u64,
            || {
                let out = if pull {
                    let words = (self.nrows() as usize).div_ceil(64);
                    let mut frontier_words = vec![0u64; words];
                    for &i in v.indices() {
                        frontier_words[i as usize / 64] |= 1u64 << (i % 64);
                    }
                    dispatch1!(self, |m| m.k_vxm_pull(&frontier_words))?
                } else {
                    dispatch1!(self, |m| m.k_vxm(v.indices()))?
                };
                Vector::from_sorted_indices(&self.instance, self.ncols(), out)
            },
            |v| v.indices().len() as u64,
        )
    }

    /// Pull-direction denominator: the frontier goes pull once it holds
    /// at least one vertex per `FRONTIER_PULL_DENSITY` rows (density
    /// ≥ 1/32), calibrated against PR 5's `spbla_kernel_*` histograms.
    pub const FRONTIER_PULL_DENSITY: usize = 32;

    /// The transitive closure `M⁺` of a square Boolean matrix, computed
    /// semi-naïvely: each round multiplies only the *delta* (pairs found
    /// last round) against the closure, `N = (C·Δ) ∧ ¬C`, and stops when
    /// the delta is empty. Equivalent to the naive `C += C·C` loop — a
    /// shortest path's suffix half is always a last-round discovery, so
    /// doubling is preserved — but each round's SpGEMM rejects
    /// already-known pairs inside the kernel instead of recomputing the
    /// whole product.
    ///
    /// ```
    /// use spbla_core::{Instance, Matrix};
    /// let inst = Instance::cpu();
    /// let path = Matrix::from_pairs(&inst, 3, 3, &[(0, 1), (1, 2)]).unwrap();
    /// let closure = path.transitive_closure().unwrap();
    /// assert_eq!(closure.read(), vec![(0, 1), (0, 2), (1, 2)]);
    /// ```
    pub fn transitive_closure(&self) -> Result<Matrix> {
        if self.nrows() != self.ncols() {
            return Err(SpblaError::DimensionMismatch {
                op: "transitive_closure",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        let _span = self.composite_span("transitive_closure");
        let mut closure = Matrix::wrap(&self.instance, self.clone_repr()?);
        let mut delta = closure.duplicate()?;
        while delta.nnz() > 0 {
            let step = closure.mxm_accum_compmask(&closure, &delta, true)?;
            if step.fresh_nnz == 0 {
                break;
            }
            closure = step.acc;
            delta = step.fresh.expect("fresh requested");
        }
        Ok(closure)
    }

    fn clone_repr(&self) -> Result<Repr> {
        Ok(match &self.repr {
            Repr::Cpu(m) => Repr::Cpu(m.clone()),
            Repr::Cuda(m) => {
                let dev = m.device().clone();
                Repr::Cuda(DeviceCsr::upload(&dev, &m.download())?)
            }
            Repr::Cl(m) => {
                let dev = m.device().clone();
                Repr::Cl(DeviceCoo::upload(&dev, &m.download())?)
            }
            Repr::Block(m) => Repr::Block(m.clone()),
        })
    }

    /// Deep copy (duplicate the paper's "matrix duplicate" utility).
    pub fn duplicate(&self) -> Result<Matrix> {
        Ok(Matrix::wrap(&self.instance, self.clone_repr()?))
    }

    /// `Aᵏ` by exponentiation by squaring (`A⁰ = I`). Square matrices
    /// only — the k-hop reachability building block.
    pub fn power(&self, k: u32) -> Result<Matrix> {
        if self.nrows() != self.ncols() {
            return Err(SpblaError::DimensionMismatch {
                op: "power",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        let _span = self.composite_span("power");
        let mut result = Matrix::identity(&self.instance, self.nrows())?;
        let mut base = self.duplicate()?;
        let mut e = k;
        while e > 0 {
            if e & 1 == 1 {
                result = result.mxm(&base)?;
            }
            e >>= 1;
            if e > 0 {
                base = base.mxm(&base)?;
            }
        }
        Ok(result)
    }

    /// Masked product `C = (A · B) ∧ M` — the GraphBLAS-style masked
    /// `mxm` applications use to restrict results to a pattern (e.g.
    /// triangle counting masks by the adjacency itself).
    ///
    /// Every backend applies the mask *inside* its SpGEMM kernel —
    /// candidates outside the mask row are rejected before they reach
    /// the accumulator, so no full product is ever materialised.
    pub fn mxm_masked(&self, other: &Matrix, mask: &Matrix) -> Result<Matrix> {
        self.check_masked_args(other, mask)?;
        let nnz_in = (self.nnz() + other.nnz() + mask.nnz()) as u64;
        observe_op(
            &self.instance,
            "mxm_masked",
            self.nrows() as u64,
            nnz_in,
            || {
                let repr = dispatch3!(self, other, mask, |a, b, m| a.k_mxm_masked(b, m))?;
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// Complemented-mask product `C = (A · B) ∧ ¬M` — only entries of the
    /// product *not* already present in `M`. This is the semi-naïve
    /// fixpoint primitive: with `M` the frontier accumulated so far, the
    /// result is exactly the new discoveries, and the kernel rejects
    /// already-known candidates before they cost accumulator space.
    pub fn mxm_compmask(&self, other: &Matrix, mask: &Matrix) -> Result<Matrix> {
        self.check_masked_args(other, mask)?;
        let nnz_in = (self.nnz() + other.nnz() + mask.nnz()) as u64;
        observe_op(
            &self.instance,
            "mxm_compmask",
            self.nrows() as u64,
            nnz_in,
            || {
                let repr = dispatch3!(self, other, mask, |a, b, m| a.k_mxm_compmask(b, m))?;
                Ok(Matrix::wrap(&self.instance, repr))
            },
            |m| m.nnz() as u64,
        )
    }

    /// Fused semi-naïve step with `self` the accumulator:
    /// `fresh = (a · b) ∧ ¬self`, `acc = self ∪ fresh`, plus the fresh
    /// count — one kernel chain per backend. The intermediate product is
    /// never materialised as a standalone matrix (candidates are
    /// rejected against `self` inside the SpGEMM), the union skips the
    /// duplicate-detection work of a general `ewise_add` (the operands
    /// are disjoint by construction), and the returned count makes the
    /// fixpoint termination check free — replacing the three-op
    /// `mxm_compmask → ewise_add → nnz` composition. Both result
    /// matrices carry primed `nnz` caches.
    ///
    /// Set `want_fresh` when the caller needs the delta for the next
    /// round; with it `false` the fresh matrix is dropped inside the
    /// kernel wrapper.
    pub fn mxm_accum_compmask(
        &self,
        a: &Matrix,
        b: &Matrix,
        want_fresh: bool,
    ) -> Result<FusedProduct> {
        a.check_masked_args(b, self)?;
        let self_nnz = self.nnz();
        let nnz_in = (self_nnz + a.nnz() + b.nnz()) as u64;
        observe_op(
            &self.instance,
            "mxm_accum_compmask",
            self.nrows() as u64,
            nnz_in,
            || {
                let (acc, fresh_nnz, fresh) = match (&self.repr, &a.repr, &b.repr) {
                    (Repr::Cpu(c), Repr::Cpu(ra), Repr::Cpu(rb)) => {
                        let r = c.k_mxm_accum_compmask(ra, rb, want_fresh)?;
                        (Repr::Cpu(r.acc), r.fresh_nnz, r.fresh.map(Repr::Cpu))
                    }
                    (Repr::Cuda(c), Repr::Cuda(ra), Repr::Cuda(rb)) => {
                        let r = c.k_mxm_accum_compmask(ra, rb, want_fresh)?;
                        (Repr::Cuda(r.acc), r.fresh_nnz, r.fresh.map(Repr::Cuda))
                    }
                    (Repr::Cl(c), Repr::Cl(ra), Repr::Cl(rb)) => {
                        let r = c.k_mxm_accum_compmask(ra, rb, want_fresh)?;
                        (Repr::Cl(r.acc), r.fresh_nnz, r.fresh.map(Repr::Cl))
                    }
                    (Repr::Block(c), Repr::Block(ra), Repr::Block(rb)) => {
                        let r = c.k_mxm_accum_compmask(ra, rb, want_fresh)?;
                        (Repr::Block(r.acc), r.fresh_nnz, r.fresh.map(Repr::Block))
                    }
                    _ => return Err(SpblaError::BackendMismatch),
                };
                Ok(FusedProduct {
                    acc: Matrix::wrap_with_nnz(&self.instance, acc, self_nnz + fresh_nnz),
                    fresh_nnz,
                    fresh: fresh.map(|f| Matrix::wrap_with_nnz(&self.instance, f, fresh_nnz)),
                })
            },
            |r| r.fresh_nnz as u64,
        )
    }

    fn check_masked_args(&self, other: &Matrix, mask: &Matrix) -> Result<()> {
        self.check_same_instance(other)?;
        self.check_same_instance(mask)?;
        self.check_mul_dims(other)?;
        if (self.nrows(), other.ncols()) != mask.shape() {
            return Err(SpblaError::DimensionMismatch {
                op: "mxm_masked",
                lhs: (self.nrows(), other.ncols()),
                rhs: mask.shape(),
            });
        }
        Ok(())
    }

    /// Pairs reachable in 1 ..= k steps: `A + A² + … + Aᵏ`.
    pub fn reachable_within(&self, k: u32) -> Result<Matrix> {
        if self.nrows() != self.ncols() {
            return Err(SpblaError::DimensionMismatch {
                op: "reachable_within",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        let _span = self.composite_span("reachable_within");
        let mut acc = self.duplicate()?;
        let mut walk = self.duplicate()?;
        for _ in 1..k {
            walk = walk.mxm(self)?;
            let next = acc.ewise_add(&walk)?;
            if next.nnz() == acc.nnz() {
                return Ok(next); // saturated early
            }
            acc = next;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instances() -> Vec<Instance> {
        vec![Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()]
    }

    #[test]
    fn roundtrip_on_all_backends() {
        for inst in instances() {
            let m = Matrix::from_pairs(&inst, 3, 4, &[(0, 1), (2, 3)]).unwrap();
            assert_eq!(m.shape(), (3, 4));
            assert_eq!(m.nnz(), 2);
            assert_eq!(m.read(), vec![(0, 1), (2, 3)]);
            assert!(m.get(0, 1) && !m.get(1, 1));
        }
    }

    #[test]
    fn mxm_identical_across_backends() {
        let a_pairs = [(0u32, 1u32), (1, 2), (2, 0), (2, 2)];
        let b_pairs = [(0u32, 0u32), (1, 2), (2, 1)];
        let mut results = Vec::new();
        for inst in instances() {
            let a = Matrix::from_pairs(&inst, 3, 3, &a_pairs).unwrap();
            let b = Matrix::from_pairs(&inst, 3, 3, &b_pairs).unwrap();
            results.push(a.mxm(&b).unwrap().read());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn ewise_andnot_is_set_difference() {
        for inst in instances() {
            let a = Matrix::from_pairs(&inst, 3, 4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
            let b = Matrix::from_pairs(&inst, 3, 4, &[(1, 2), (2, 0)]).unwrap();
            let c = a.ewise_andnot(&b).unwrap();
            assert_eq!(c.read(), vec![(0, 1), (2, 3)]);
            // Subtracting a disjoint set is the identity.
            let d = c.ewise_andnot(&b).unwrap();
            assert_eq!(d.read(), c.read());
        }
        // Shape mismatch is rejected before any kernel runs.
        let inst = Instance::cpu();
        let a = Matrix::from_pairs(&inst, 2, 2, &[(0, 0)]).unwrap();
        let b = Matrix::from_pairs(&inst, 2, 3, &[(0, 0)]).unwrap();
        assert!(matches!(
            a.ewise_andnot(&b),
            Err(SpblaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mxm_acc_accumulates() {
        for inst in instances() {
            let c = Matrix::from_pairs(&inst, 2, 2, &[(1, 1)]).unwrap();
            let a = Matrix::from_pairs(&inst, 2, 2, &[(0, 0)]).unwrap();
            let b = Matrix::from_pairs(&inst, 2, 2, &[(0, 1)]).unwrap();
            let r = c.mxm_acc(&a, &b).unwrap();
            assert_eq!(r.read(), vec![(0, 1), (1, 1)]);
        }
    }

    #[test]
    fn ops_record_kernel_histograms() {
        for inst in instances() {
            let labels = [("backend", inst.backend().label()), ("kernel", "mxm")];
            let h = metrics_global().histogram(&labeled("spbla_kernel_nnz_out", &labels));
            let before = h.count();
            let a = Matrix::from_pairs(&inst, 2, 2, &[(0, 0), (0, 1)]).unwrap();
            let b = Matrix::from_pairs(&inst, 2, 2, &[(1, 1)]).unwrap();
            assert_eq!(a.mxm(&b).unwrap().nnz(), 1);
            // Other tests may run mxm concurrently; ours adds at least one.
            assert!(h.count() > before);
        }
    }

    #[test]
    fn cross_instance_rejected() {
        let a = Matrix::from_pairs(&Instance::cpu(), 2, 2, &[(0, 0)]).unwrap();
        let b = Matrix::from_pairs(&Instance::cuda_sim(), 2, 2, &[(0, 0)]).unwrap();
        assert!(matches!(a.mxm(&b), Err(SpblaError::BackendMismatch)));
        // Even same backend, different instance.
        let c = Matrix::from_pairs(&Instance::cpu(), 2, 2, &[(0, 0)]).unwrap();
        assert!(matches!(a.ewise_add(&c), Err(SpblaError::BackendMismatch)));
    }

    #[test]
    fn transitive_closure_of_path() {
        for inst in instances() {
            let p = Matrix::from_pairs(&inst, 4, 4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
            let c = p.transitive_closure().unwrap();
            let expect = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
            assert_eq!(c.read(), expect);
        }
    }

    #[test]
    fn reduce_and_vxm() {
        for inst in instances() {
            let m = Matrix::from_pairs(&inst, 3, 3, &[(0, 1), (2, 0)]).unwrap();
            assert_eq!(m.reduce_to_column().unwrap().indices(), &[0, 2]);
            assert_eq!(m.reduce_to_row().unwrap().indices(), &[0, 1]);
            let v = Vector::from_indices(&inst, 3, &[0]).unwrap();
            assert_eq!(m.vxm(&v).unwrap().indices(), &[1]);
        }
    }

    #[test]
    fn mxv_is_vxm_of_transpose() {
        for inst in instances() {
            let m = Matrix::from_pairs(&inst, 4, 4, &[(0, 1), (1, 2), (3, 1)]).unwrap();
            let v = Vector::from_indices(&inst, 4, &[1, 2]).unwrap();
            let pull = m.mxv(&v).unwrap();
            let push = m.transpose().unwrap().vxm(&v).unwrap();
            assert_eq!(pull.indices(), push.indices(), "{:?}", inst.backend());
            assert_eq!(pull.indices(), &[0, 1, 3]);
        }
    }

    #[test]
    fn power_and_reachability() {
        for inst in instances() {
            // Path 0→1→2→3.
            let p = Matrix::from_pairs(&inst, 4, 4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
            assert_eq!(
                p.power(0).unwrap().read(),
                Matrix::identity(&inst, 4).unwrap().read()
            );
            assert_eq!(p.power(2).unwrap().read(), vec![(0, 2), (1, 3)]);
            assert_eq!(p.power(3).unwrap().read(), vec![(0, 3)]);
            assert_eq!(p.power(4).unwrap().nnz(), 0);
            let within2 = p.reachable_within(2).unwrap();
            assert_eq!(within2.read(), vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
            // Saturation: k beyond the diameter equals the closure.
            assert_eq!(
                p.reachable_within(10).unwrap().read(),
                p.transitive_closure().unwrap().read()
            );
        }
    }

    #[test]
    fn masked_product() {
        let inst = Instance::cpu();
        let a = Matrix::from_pairs(&inst, 3, 3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mask = Matrix::from_pairs(&inst, 3, 3, &[(0, 2)]).unwrap();
        // A² = {(0,2)}; mask keeps it. A different mask drops it.
        assert_eq!(a.mxm_masked(&a, &mask).unwrap().read(), vec![(0, 2)]);
        let empty_mask = Matrix::zeros(&inst, 3, 3).unwrap();
        assert_eq!(a.mxm_masked(&a, &empty_mask).unwrap().nnz(), 0);
    }

    #[test]
    fn masked_and_compmask_native_on_all_backends() {
        let pairs_a: Vec<(u32, u32)> = (0..30).map(|i| (i % 8, (i * 3 + 1) % 8)).collect();
        let pairs_b: Vec<(u32, u32)> = (0..30).map(|i| (i % 8, (i * 5 + 2) % 8)).collect();
        let pairs_m: Vec<(u32, u32)> = (0..20).map(|i| (i % 8, (i * 7 + 3) % 8)).collect();
        let cpu = Instance::cpu();
        let ca = Matrix::from_pairs(&cpu, 8, 8, &pairs_a).unwrap();
        let cb = Matrix::from_pairs(&cpu, 8, 8, &pairs_b).unwrap();
        let product = ca.mxm(&cb).unwrap().read();
        let in_mask: std::collections::HashSet<(u32, u32)> = pairs_m.iter().copied().collect();
        let expect_kept: Vec<(u32, u32)> = product
            .iter()
            .copied()
            .filter(|p| in_mask.contains(p))
            .collect();
        let expect_new: Vec<(u32, u32)> = product
            .iter()
            .copied()
            .filter(|p| !in_mask.contains(p))
            .collect();
        for inst in instances() {
            let a = Matrix::from_pairs(&inst, 8, 8, &pairs_a).unwrap();
            let b = Matrix::from_pairs(&inst, 8, 8, &pairs_b).unwrap();
            let m = Matrix::from_pairs(&inst, 8, 8, &pairs_m).unwrap();
            assert_eq!(a.mxm_masked(&b, &m).unwrap().read(), expect_kept);
            assert_eq!(a.mxm_compmask(&b, &m).unwrap().read(), expect_new);
            // Empty mask: masked yields nothing, compmask the full product.
            let zero = Matrix::zeros(&inst, 8, 8).unwrap();
            assert_eq!(a.mxm_masked(&b, &zero).unwrap().nnz(), 0);
            assert_eq!(a.mxm_compmask(&b, &zero).unwrap().read(), product);
        }
    }

    #[test]
    fn compmask_rejects_bad_shapes() {
        let inst = Instance::cpu();
        let a = Matrix::from_pairs(&inst, 3, 3, &[(0, 1)]).unwrap();
        let bad_mask = Matrix::zeros(&inst, 3, 4).unwrap();
        assert!(a.mxm_compmask(&a, &bad_mask).is_err());
    }

    #[test]
    fn structural_ops_match_cpu() {
        let pairs = [(0u32, 1u32), (1, 3), (2, 0), (2, 2), (3, 3)];
        let cpu_inst = Instance::cpu();
        let cpu = Matrix::from_pairs(&cpu_inst, 4, 4, &pairs).unwrap();
        for inst in [Instance::cuda_sim(), Instance::cl_sim()] {
            let m = Matrix::from_pairs(&inst, 4, 4, &pairs).unwrap();
            assert_eq!(
                m.transpose().unwrap().read(),
                cpu.transpose().unwrap().read()
            );
            assert_eq!(
                m.submatrix(1, 1, 3, 3).unwrap().read(),
                cpu.submatrix(1, 1, 3, 3).unwrap().read()
            );
            let other = Matrix::from_pairs(&inst, 4, 4, &[(0, 1), (3, 0)]).unwrap();
            let cpu_other = Matrix::from_pairs(&cpu_inst, 4, 4, &[(0, 1), (3, 0)]).unwrap();
            assert_eq!(
                m.ewise_mult(&other).unwrap().read(),
                cpu.ewise_mult(&cpu_other).unwrap().read()
            );
            let k = m.kron(&other).unwrap();
            assert_eq!(k.read(), cpu.kron(&cpu_other).unwrap().read());
        }
    }
}
