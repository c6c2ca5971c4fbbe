//! The `extern "C"` surface.

use spbla_core::{Backend, Instance, Matrix, Result};

use crate::handles::{Registry, SpblaInstance, SpblaMatrix};
use crate::status::SpblaStatus;

/// Backend selector for [`spbla_Initialize`].
#[repr(i32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpblaBackend {
    /// Sequential CPU reference.
    Cpu = 0,
    /// cuBool-style CSR backend on the simulated device.
    CudaSim = 1,
    /// clBool-style COO backend on the simulated device.
    ClSim = 2,
}

/// The raw selector a C caller passed, checked before any `match` on
/// it: an out-of-range enum value must never reach Rust as a
/// `SpblaBackend`, where it would be undefined behaviour.
impl TryFrom<i32> for SpblaBackend {
    type Error = SpblaStatus;

    fn try_from(value: i32) -> std::result::Result<Self, SpblaStatus> {
        match value {
            0 => Ok(SpblaBackend::Cpu),
            1 => Ok(SpblaBackend::CudaSim),
            2 => Ok(SpblaBackend::ClSim),
            _ => Err(SpblaStatus::InvalidValue),
        }
    }
}

fn store_result(out: *mut SpblaMatrix, r: Result<Matrix>) -> SpblaStatus {
    match r {
        Ok(m) => {
            // SAFETY: caller contract — `out` checked non-null by callers.
            unsafe { *out = Registry::global().insert_matrix(m) };
            SpblaStatus::Ok
        }
        Err(e) => SpblaStatus::from(&e),
    }
}

/// Create a library instance for `backend` (a `spbla_Backend` value).
/// An unknown value returns [`SpblaStatus::InvalidValue`] and leaves
/// `*out` unwritten.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Initialize(backend: i32, out: *mut SpblaInstance) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let inst = match SpblaBackend::try_from(backend) {
        Ok(SpblaBackend::Cpu) => Instance::cpu(),
        Ok(SpblaBackend::CudaSim) => Instance::cuda_sim(),
        Ok(SpblaBackend::ClSim) => Instance::cl_sim(),
        Err(status) => return status,
    };
    *out = Registry::global().insert_instance(inst);
    SpblaStatus::Ok
}

/// Destroy an instance (matrices created from it stay valid — they hold
/// their own reference, as in cuBool's reference-counted contexts).
#[no_mangle]
pub extern "C" fn spbla_Finalize(instance: SpblaInstance) -> SpblaStatus {
    if Registry::global().remove_instance(instance) {
        SpblaStatus::Ok
    } else {
        SpblaStatus::InvalidHandle
    }
}

/// Create an empty `nrows × ncols` matrix.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_New(
    instance: SpblaInstance,
    nrows: u32,
    ncols: u32,
    out: *mut SpblaMatrix,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let Some(inst) = Registry::global().instance(instance) else {
        return SpblaStatus::InvalidHandle;
    };
    store_result(out, Matrix::zeros(&inst, nrows, ncols))
}

/// Fill a matrix with `nvals` coordinate pairs (replaces its contents —
/// the paper's "fill matrix with values `{(i,j)}`" operation).
///
/// # Safety
/// `rows` and `cols` must point to `nvals` readable elements.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_Build(
    matrix: SpblaMatrix,
    rows: *const u32,
    cols: *const u32,
    nvals: usize,
) -> SpblaStatus {
    if nvals > 0 && (rows.is_null() || cols.is_null()) {
        return SpblaStatus::NullPointer;
    }
    let reg = Registry::global();
    let Some((inst, shape)) = reg.with_matrix(matrix, |m| (m.instance().clone(), m.shape())) else {
        return SpblaStatus::InvalidHandle;
    };
    let rows = std::slice::from_raw_parts(rows, nvals);
    let cols = std::slice::from_raw_parts(cols, nvals);
    let pairs: Vec<(u32, u32)> = rows.iter().copied().zip(cols.iter().copied()).collect();
    match Matrix::from_pairs(&inst, shape.0, shape.1, &pairs) {
        Ok(m) => {
            reg.matrices.lock().insert(matrix, m);
            SpblaStatus::Ok
        }
        Err(e) => SpblaStatus::from(&e),
    }
}

/// Number of stored values.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_Nvals(matrix: SpblaMatrix, out: *mut usize) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_matrix(matrix, Matrix::nnz) {
        Some(n) => {
            *out = n;
            SpblaStatus::Ok
        }
        None => SpblaStatus::InvalidHandle,
    }
}

/// Extract the stored coordinates. Two-call protocol: pass null buffers
/// to query the required capacity via `nvals`; pass buffers of that
/// capacity to receive the data.
///
/// # Safety
/// `nvals` must be valid; `rows`/`cols`, when non-null, must have
/// `*nvals` writable elements.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_ExtractPairs(
    matrix: SpblaMatrix,
    rows: *mut u32,
    cols: *mut u32,
    nvals: *mut usize,
) -> SpblaStatus {
    if nvals.is_null() {
        return SpblaStatus::NullPointer;
    }
    let Some(pairs) = Registry::global().with_matrix(matrix, Matrix::read) else {
        return SpblaStatus::InvalidHandle;
    };
    if rows.is_null() || cols.is_null() {
        *nvals = pairs.len();
        return SpblaStatus::Ok;
    }
    if *nvals < pairs.len() {
        return SpblaStatus::Error;
    }
    for (k, (i, j)) in pairs.iter().enumerate() {
        *rows.add(k) = *i;
        *cols.add(k) = *j;
    }
    *nvals = pairs.len();
    SpblaStatus::Ok
}

macro_rules! binary_op {
    ($(#[$doc:meta])* $name:ident, $method:ident) => {
        $(#[$doc])*
        ///
        /// # Safety
        /// `out` must be a valid pointer.
        #[no_mangle]
        pub unsafe extern "C" fn $name(
            a: SpblaMatrix,
            b: SpblaMatrix,
            out: *mut SpblaMatrix,
        ) -> SpblaStatus {
            if out.is_null() {
                return SpblaStatus::NullPointer;
            }
            match Registry::global().with_two_matrices(a, b, |ma, mb| ma.$method(mb)) {
                Some(r) => store_result(out, r),
                None => SpblaStatus::InvalidHandle,
            }
        }
    };
}

binary_op!(
    /// `C = A · B` over the Boolean semiring.
    spbla_MxM,
    mxm
);
binary_op!(
    /// `C = A + B` element-wise.
    spbla_EWiseAdd,
    ewise_add
);
binary_op!(
    /// `C = A ∧ B` element-wise.
    spbla_EWiseMult,
    ewise_mult
);
binary_op!(
    /// `C = A ⊗ B` (Kronecker product).
    spbla_Kronecker,
    kron
);

/// `C = (A · B) ∧ M` — masked product; the mask is applied inside the
/// SpGEMM kernel, so no unmasked intermediate product is materialised.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_MxM_Masked(
    a: SpblaMatrix,
    b: SpblaMatrix,
    mask: SpblaMatrix,
    out: *mut SpblaMatrix,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_three_matrices(a, b, mask, |ma, mb, mm| ma.mxm_masked(mb, mm)) {
        Some(r) => store_result(out, r),
        None => SpblaStatus::InvalidHandle,
    }
}

/// `C = (A · B) ∧ ¬M` — complemented-mask product: only entries of the
/// product *not* already present in `M`. The primitive behind the
/// semi-naïve fixpoint schedules; already-known candidates are rejected
/// inside the SpGEMM kernel before they cost accumulator space.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_MxM_CompMasked(
    a: SpblaMatrix,
    b: SpblaMatrix,
    mask: SpblaMatrix,
    out: *mut SpblaMatrix,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_three_matrices(a, b, mask, |ma, mb, mm| ma.mxm_compmask(mb, mm)) {
        Some(r) => store_result(out, r),
        None => SpblaStatus::InvalidHandle,
    }
}

/// `C = Aᵀ`.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Transpose(a: SpblaMatrix, out: *mut SpblaMatrix) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_matrix(a, Matrix::transpose) {
        Some(r) => store_result(out, r),
        None => SpblaStatus::InvalidHandle,
    }
}

/// `C = A[i .. i+nrows, j .. j+ncols]`.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_SubMatrix(
    a: SpblaMatrix,
    i: u32,
    j: u32,
    nrows: u32,
    ncols: u32,
    out: *mut SpblaMatrix,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_matrix(a, |m| m.submatrix(i, j, nrows, ncols)) {
        Some(r) => store_result(out, r),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Release a matrix.
#[no_mangle]
pub extern "C" fn spbla_Matrix_Free(matrix: SpblaMatrix) -> SpblaStatus {
    if Registry::global().remove_matrix(matrix) {
        SpblaStatus::Ok
    } else {
        SpblaStatus::InvalidHandle
    }
}

/// Which backend the instance runs on.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Instance_Backend(
    instance: SpblaInstance,
    out: *mut SpblaBackend,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().instance(instance) {
        Some(i) => {
            *out = match i.backend() {
                Backend::Cpu => SpblaBackend::Cpu,
                Backend::CudaSim => SpblaBackend::CudaSim,
                Backend::ClSim => SpblaBackend::ClSim,
            };
            SpblaStatus::Ok
        }
        None => SpblaStatus::InvalidHandle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init(backend: SpblaBackend) -> SpblaInstance {
        let mut h: SpblaInstance = 0;
        assert_eq!(
            unsafe { spbla_Initialize(backend as i32, &mut h) },
            SpblaStatus::Ok
        );
        h
    }

    fn build(inst: SpblaInstance, m: u32, n: u32, pairs: &[(u32, u32)]) -> SpblaMatrix {
        let mut h: SpblaMatrix = 0;
        assert_eq!(
            unsafe { spbla_Matrix_New(inst, m, n, &mut h) },
            SpblaStatus::Ok
        );
        let rows: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let cols: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        assert_eq!(
            unsafe { spbla_Matrix_Build(h, rows.as_ptr(), cols.as_ptr(), pairs.len()) },
            SpblaStatus::Ok
        );
        h
    }

    fn extract(h: SpblaMatrix) -> Vec<(u32, u32)> {
        let mut n: usize = 0;
        assert_eq!(
            unsafe {
                spbla_Matrix_ExtractPairs(h, std::ptr::null_mut(), std::ptr::null_mut(), &mut n)
            },
            SpblaStatus::Ok
        );
        let mut rows = vec![0u32; n];
        let mut cols = vec![0u32; n];
        assert_eq!(
            unsafe { spbla_Matrix_ExtractPairs(h, rows.as_mut_ptr(), cols.as_mut_ptr(), &mut n) },
            SpblaStatus::Ok
        );
        rows.into_iter().zip(cols).collect()
    }

    #[test]
    fn initialize_rejects_unknown_backend_values() {
        for raw in [3, 4, -1, i32::MIN] {
            let mut h: SpblaInstance = 0xDEAD;
            assert_eq!(
                unsafe { spbla_Initialize(raw, &mut h) },
                SpblaStatus::InvalidValue,
                "backend value {raw}"
            );
            assert_eq!(h, 0xDEAD, "*out written for backend value {raw}");
        }
        for raw in [0, 1, 2] {
            let mut h: SpblaInstance = 0;
            assert_eq!(unsafe { spbla_Initialize(raw, &mut h) }, SpblaStatus::Ok);
            assert_eq!(spbla_Finalize(h), SpblaStatus::Ok);
        }
    }

    #[test]
    fn full_c_workflow() {
        for backend in [
            SpblaBackend::Cpu,
            SpblaBackend::CudaSim,
            SpblaBackend::ClSim,
        ] {
            let inst = init(backend);
            let a = build(inst, 3, 3, &[(0, 1), (1, 2)]);
            let b = build(inst, 3, 3, &[(1, 2), (2, 0)]);
            let mut c: SpblaMatrix = 0;
            assert_eq!(unsafe { spbla_MxM(a, b, &mut c) }, SpblaStatus::Ok);
            assert_eq!(extract(c), vec![(0, 2), (1, 0)]);

            let mut nv = 0usize;
            assert_eq!(unsafe { spbla_Matrix_Nvals(c, &mut nv) }, SpblaStatus::Ok);
            assert_eq!(nv, 2);

            let mut k: SpblaMatrix = 0;
            assert_eq!(unsafe { spbla_Kronecker(a, b, &mut k) }, SpblaStatus::Ok);
            let mut kn = 0usize;
            assert_eq!(unsafe { spbla_Matrix_Nvals(k, &mut kn) }, SpblaStatus::Ok);
            assert_eq!(kn, 4);

            for h in [a, b, c, k] {
                assert_eq!(spbla_Matrix_Free(h), SpblaStatus::Ok);
            }
            assert_eq!(spbla_Finalize(inst), SpblaStatus::Ok);
        }
    }

    #[test]
    fn masked_products_via_c() {
        for backend in [
            SpblaBackend::Cpu,
            SpblaBackend::CudaSim,
            SpblaBackend::ClSim,
        ] {
            let inst = init(backend);
            let a = build(inst, 3, 3, &[(0, 1), (1, 2), (0, 2)]);
            let mask = build(inst, 3, 3, &[(0, 2)]);
            // A² = {(0,2)}: the mask keeps it, its complement drops it.
            let mut kept: SpblaMatrix = 0;
            assert_eq!(
                unsafe { spbla_Matrix_MxM_Masked(a, a, mask, &mut kept) },
                SpblaStatus::Ok
            );
            assert_eq!(extract(kept), vec![(0, 2)]);
            let mut fresh: SpblaMatrix = 0;
            assert_eq!(
                unsafe { spbla_Matrix_MxM_CompMasked(a, a, mask, &mut fresh) },
                SpblaStatus::Ok
            );
            assert_eq!(extract(fresh), vec![]);
            let mut bad: SpblaMatrix = 0;
            assert_eq!(
                unsafe { spbla_Matrix_MxM_CompMasked(a, a, 999_999, &mut bad) },
                SpblaStatus::InvalidHandle
            );
            for h in [a, mask, kept, fresh] {
                assert_eq!(spbla_Matrix_Free(h), SpblaStatus::Ok);
            }
            assert_eq!(spbla_Finalize(inst), SpblaStatus::Ok);
        }
    }

    #[test]
    fn error_statuses() {
        let inst = init(SpblaBackend::Cpu);
        let a = build(inst, 2, 3, &[]);
        let b = build(inst, 2, 3, &[]);
        let mut c: SpblaMatrix = 0;
        assert_eq!(
            unsafe { spbla_MxM(a, b, &mut c) },
            SpblaStatus::DimensionMismatch
        );
        assert_eq!(
            unsafe { spbla_MxM(a, 999_999, &mut c) },
            SpblaStatus::InvalidHandle
        );
        assert_eq!(
            unsafe { spbla_MxM(a, b, std::ptr::null_mut()) },
            SpblaStatus::NullPointer
        );
        // Out-of-bounds build.
        let rows = [5u32];
        let cols = [0u32];
        assert_eq!(
            unsafe { spbla_Matrix_Build(a, rows.as_ptr(), cols.as_ptr(), 1) },
            SpblaStatus::IndexOutOfBounds
        );
        assert_eq!(spbla_Matrix_Free(a), SpblaStatus::Ok);
        assert_eq!(spbla_Matrix_Free(b), SpblaStatus::Ok);
        assert_eq!(spbla_Finalize(inst), SpblaStatus::Ok);
        assert_eq!(spbla_Finalize(inst), SpblaStatus::InvalidHandle);
    }

    #[test]
    fn transpose_and_submatrix_via_c() {
        let inst = init(SpblaBackend::CudaSim);
        let a = build(inst, 3, 4, &[(0, 3), (2, 1)]);
        let mut t: SpblaMatrix = 0;
        assert_eq!(unsafe { spbla_Transpose(a, &mut t) }, SpblaStatus::Ok);
        assert_eq!(extract(t), vec![(1, 2), (3, 0)]);
        let mut s: SpblaMatrix = 0;
        assert_eq!(
            unsafe { spbla_SubMatrix(a, 0, 1, 3, 3, &mut s) },
            SpblaStatus::Ok
        );
        assert_eq!(extract(s), vec![(0, 2), (2, 0)]);
        for h in [a, t, s] {
            spbla_Matrix_Free(h);
        }
        spbla_Finalize(inst);
    }
}
