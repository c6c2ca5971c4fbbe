//! Supplementary `extern "C"` surface: library metadata, reductions,
//! transitive closure, and sparse-vector queries — the pieces pyspbla
//! exposes beyond the core matrix ops.

use spbla_core::Matrix;

use crate::handles::{Registry, SpblaMatrix};
use crate::status::SpblaStatus;

/// Library version as `major·10000 + minor·100 + patch`.
#[no_mangle]
pub extern "C" fn spbla_Version() -> u32 {
    const MAJOR: u32 = 0;
    const MINOR: u32 = 1;
    const PATCH: u32 = 0;
    MAJOR * 10_000 + MINOR * 100 + PATCH
}

/// Matrix dimensions.
///
/// # Safety
/// `nrows` and `ncols` must be valid pointers.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_Dims(
    matrix: SpblaMatrix,
    nrows: *mut u32,
    ncols: *mut u32,
) -> SpblaStatus {
    if nrows.is_null() || ncols.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_matrix(matrix, Matrix::shape) {
        Some((m, n)) => {
            *nrows = m;
            *ncols = n;
            SpblaStatus::Ok
        }
        None => SpblaStatus::InvalidHandle,
    }
}

/// Duplicate a matrix.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_Duplicate(
    matrix: SpblaMatrix,
    out: *mut SpblaMatrix,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_matrix(matrix, Matrix::duplicate) {
        Some(Ok(m)) => {
            *out = Registry::global().insert_matrix(m);
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Transitive closure `C = A⁺` of a square matrix.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_TransitiveClosure(
    matrix: SpblaMatrix,
    out: *mut SpblaMatrix,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_matrix(matrix, Matrix::transitive_closure) {
        Some(Ok(m)) => {
            *out = Registry::global().insert_matrix(m);
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Transitive closure `C = A⁺` via SCC condensation: the fixpoint runs
/// on the strongly-connected-component DAG and the result is expanded
/// back through the component map. Bit-identical to
/// [`spbla_TransitiveClosure`] — the condensation is a schedule, not an
/// approximation.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_TransitiveClosureCondensed(
    matrix: SpblaMatrix,
    out: *mut SpblaMatrix,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let result = Registry::global().with_matrix(matrix, |m| {
        if m.nrows() != m.ncols() {
            return Err(spbla_core::SpblaError::DimensionMismatch {
                op: "transitive_closure_condensed",
                lhs: m.shape(),
                rhs: m.shape(),
            });
        }
        spbla_prep::condensed_closure(m.instance(), m.nrows(), &m.read()).map(|(c, _)| c)
    });
    match result {
        Some(Ok(m)) => {
            *out = Registry::global().insert_matrix(m);
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Reduce along rows (`reduceToColumn`): writes the indices of non-empty
/// rows using the two-call protocol of `spbla_Matrix_ExtractPairs`.
///
/// # Safety
/// `count` must be valid; `indices`, when non-null, must have `*count`
/// writable elements.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_ReduceToColumn(
    matrix: SpblaMatrix,
    indices: *mut u32,
    count: *mut usize,
) -> SpblaStatus {
    if count.is_null() {
        return SpblaStatus::NullPointer;
    }
    let result = Registry::global().with_matrix(matrix, |m| m.reduce_to_column());
    let Some(result) = result else {
        return SpblaStatus::InvalidHandle;
    };
    match result {
        Ok(v) => {
            if indices.is_null() {
                *count = v.nnz();
                return SpblaStatus::Ok;
            }
            if *count < v.nnz() {
                return SpblaStatus::Error;
            }
            for (k, &i) in v.indices().iter().enumerate() {
                *indices.add(k) = i;
            }
            *count = v.nnz();
            SpblaStatus::Ok
        }
        Err(e) => SpblaStatus::from(&e),
    }
}

/// The matrix's storage footprint in bytes under its backend's format.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Matrix_MemoryBytes(
    matrix: SpblaMatrix,
    out: *mut usize,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_matrix(matrix, Matrix::memory_bytes) {
        Some(b) => {
            *out = b;
            SpblaStatus::Ok
        }
        None => SpblaStatus::InvalidHandle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_api::{
        spbla_Finalize, spbla_Initialize, spbla_Matrix_Build, spbla_Matrix_Free, spbla_Matrix_New,
        SpblaBackend,
    };

    fn make(backend: SpblaBackend, pairs: &[(u32, u32)], n: u32) -> (u64, u64) {
        let mut inst = 0u64;
        unsafe { spbla_Initialize(backend as i32, &mut inst) };
        let mut m = 0u64;
        unsafe { spbla_Matrix_New(inst, n, n, &mut m) };
        let rows: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let cols: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        unsafe { spbla_Matrix_Build(m, rows.as_ptr(), cols.as_ptr(), pairs.len()) };
        (inst, m)
    }

    #[test]
    fn version_is_encoded() {
        assert_eq!(spbla_Version(), 100);
    }

    #[test]
    fn dims_duplicate_memory() {
        let (inst, m) = make(SpblaBackend::CudaSim, &[(0, 1), (2, 3)], 4);
        let (mut r, mut c) = (0u32, 0u32);
        assert_eq!(
            unsafe { spbla_Matrix_Dims(m, &mut r, &mut c) },
            SpblaStatus::Ok
        );
        assert_eq!((r, c), (4, 4));
        let mut dup = 0u64;
        assert_eq!(
            unsafe { spbla_Matrix_Duplicate(m, &mut dup) },
            SpblaStatus::Ok
        );
        let mut bytes = 0usize;
        assert_eq!(
            unsafe { spbla_Matrix_MemoryBytes(dup, &mut bytes) },
            SpblaStatus::Ok
        );
        assert_eq!(bytes, (4 + 1 + 2) * 4);
        spbla_Matrix_Free(m);
        spbla_Matrix_Free(dup);
        spbla_Finalize(inst);
    }

    #[test]
    fn closure_and_reduce_via_c() {
        let (inst, m) = make(SpblaBackend::Cpu, &[(0, 1), (1, 2)], 3);
        let mut c = 0u64;
        assert_eq!(
            unsafe { spbla_TransitiveClosure(m, &mut c) },
            SpblaStatus::Ok
        );
        let mut count = 0usize;
        assert_eq!(
            unsafe { spbla_Matrix_ReduceToColumn(c, std::ptr::null_mut(), &mut count) },
            SpblaStatus::Ok
        );
        assert_eq!(count, 2); // rows 0 and 1 reach something
        let mut idx = vec![0u32; count];
        assert_eq!(
            unsafe { spbla_Matrix_ReduceToColumn(c, idx.as_mut_ptr(), &mut count) },
            SpblaStatus::Ok
        );
        assert_eq!(idx, vec![0, 1]);
        spbla_Matrix_Free(m);
        spbla_Matrix_Free(c);
        spbla_Finalize(inst);
    }

    #[test]
    fn condensed_closure_matches_direct_via_c() {
        use crate::matrix_api::spbla_Matrix_ExtractPairs;
        // A 3-cycle feeding a tail: one SCC plus a DAG vertex.
        let (inst, m) = make(SpblaBackend::CudaSim, &[(0, 1), (1, 2), (2, 0), (2, 3)], 4);
        let (mut direct, mut condensed) = (0u64, 0u64);
        assert_eq!(
            unsafe { spbla_TransitiveClosure(m, &mut direct) },
            SpblaStatus::Ok
        );
        assert_eq!(
            unsafe { spbla_Matrix_TransitiveClosureCondensed(m, &mut condensed) },
            SpblaStatus::Ok
        );
        let read = |h: u64| {
            let mut count = 0usize;
            unsafe {
                spbla_Matrix_ExtractPairs(h, std::ptr::null_mut(), std::ptr::null_mut(), &mut count)
            };
            let mut rows = vec![0u32; count];
            let mut cols = vec![0u32; count];
            unsafe {
                spbla_Matrix_ExtractPairs(h, rows.as_mut_ptr(), cols.as_mut_ptr(), &mut count)
            };
            rows.into_iter().zip(cols).collect::<Vec<_>>()
        };
        assert_eq!(read(direct), read(condensed));
        spbla_Matrix_Free(m);
        spbla_Matrix_Free(direct);
        spbla_Matrix_Free(condensed);
        spbla_Finalize(inst);
    }

    #[test]
    fn invalid_handles_rejected() {
        let mut out = 0u64;
        assert_eq!(
            unsafe { spbla_Matrix_Duplicate(987_654_321, &mut out) },
            SpblaStatus::InvalidHandle
        );
        let mut count = 0usize;
        assert_eq!(
            unsafe { spbla_Matrix_ReduceToColumn(987_654_321, std::ptr::null_mut(), &mut count) },
            SpblaStatus::InvalidHandle
        );
    }
}
