//! The C API's global registry must be thread-safe: concurrent handle
//! creation, use, and destruction from many threads, with no lost or
//! cross-contaminated results (embedders call from arbitrary threads).

use spbla_capi::matrix_api::{
    spbla_EWiseAdd, spbla_Finalize, spbla_Initialize, spbla_Matrix_Build, spbla_Matrix_Free,
    spbla_Matrix_New, spbla_Matrix_Nvals, spbla_MxM, SpblaBackend,
};
use spbla_capi::SpblaStatus;

#[test]
fn concurrent_workflows_do_not_interfere() {
    let handles: Vec<_> = (0..8u32)
        .map(|t| {
            std::thread::spawn(move || {
                let backend = match t % 3 {
                    0 => SpblaBackend::Cpu,
                    1 => SpblaBackend::CudaSim,
                    _ => SpblaBackend::ClSim,
                };
                let mut inst = 0u64;
                assert_eq!(
                    unsafe { spbla_Initialize(backend as i32, &mut inst) },
                    SpblaStatus::Ok
                );
                // Per-thread distinctive matrix: a cycle of length t+3.
                let n = t + 3;
                let rows: Vec<u32> = (0..n).collect();
                let cols: Vec<u32> = (0..n).map(|i| (i + 1) % n).collect();
                let mut a = 0u64;
                unsafe { spbla_Matrix_New(inst, n, n, &mut a) };
                assert_eq!(
                    unsafe { spbla_Matrix_Build(a, rows.as_ptr(), cols.as_ptr(), n as usize) },
                    SpblaStatus::Ok
                );
                for _ in 0..20 {
                    let mut sq = 0u64;
                    assert_eq!(unsafe { spbla_MxM(a, a, &mut sq) }, SpblaStatus::Ok);
                    let mut un = 0u64;
                    assert_eq!(unsafe { spbla_EWiseAdd(a, sq, &mut un) }, SpblaStatus::Ok);
                    let mut nv = 0usize;
                    assert_eq!(unsafe { spbla_Matrix_Nvals(un, &mut nv) }, SpblaStatus::Ok);
                    // Cycle ∪ cycle² has exactly 2n entries (n ≥ 3).
                    assert_eq!(nv, 2 * n as usize, "thread {t}");
                    assert_eq!(spbla_Matrix_Free(sq), SpblaStatus::Ok);
                    assert_eq!(spbla_Matrix_Free(un), SpblaStatus::Ok);
                }
                assert_eq!(spbla_Matrix_Free(a), SpblaStatus::Ok);
                assert_eq!(spbla_Finalize(inst), SpblaStatus::Ok);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked");
    }
}

#[test]
fn double_free_from_other_thread_is_invalid_handle() {
    let mut inst = 0u64;
    unsafe { spbla_Initialize(SpblaBackend::Cpu as i32, &mut inst) };
    let mut m = 0u64;
    unsafe { spbla_Matrix_New(inst, 2, 2, &mut m) };
    let t = std::thread::spawn(move || spbla_Matrix_Free(m));
    assert_eq!(t.join().unwrap(), SpblaStatus::Ok);
    assert_eq!(spbla_Matrix_Free(m), SpblaStatus::InvalidHandle);
    spbla_Finalize(inst);
}
