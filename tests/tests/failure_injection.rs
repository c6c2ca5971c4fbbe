//! Failure injection: device OOM, dimension mismatches, bounds errors —
//! everything must surface as typed errors, never panics or corruption.

use spbla_core::{Backend, CsrBool, Instance, Matrix, SpblaError};
use spbla_gpu_sim::{Device, DeviceConfig};
use spbla_multidev::{DeviceGrid, DistMatrix};

#[test]
fn device_oom_surfaces_as_error() {
    // 4 KiB device: uploading a few hundred entries must fail cleanly.
    let dev = Device::with_memory_limit(4 << 10);
    let inst = Instance::cuda_sim_on(dev.clone());
    let pairs: Vec<(u32, u32)> = (0..2000).map(|i| (i, (i * 7) % 2000)).collect();
    let err = Matrix::from_pairs(&inst, 2000, 2000, &pairs).unwrap_err();
    assert!(matches!(err, SpblaError::Device(_)), "got {err}");
    // The failed allocation must not leak accounting.
    assert_eq!(dev.stats().bytes_in_use, 0);
}

#[test]
fn oom_midway_through_mxm_releases_memory() {
    // Enough memory for the operands but not for the product temporaries.
    let dev = Device::with_memory_limit(64 << 10);
    let inst = Instance::cuda_sim_on(dev.clone());
    let n = 600u32;
    // Dense-ish band matrix: product of the band with itself needs room.
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| (0..12).map(move |d| (i, (i + d) % n)))
        .collect();
    let a = match Matrix::from_pairs(&inst, n, n, &pairs) {
        Ok(a) => a,
        Err(_) => return, // operands alone may not fit; acceptable
    };
    let before = dev.stats().bytes_in_use;
    match a.mxm(&a) {
        Ok(c) => {
            // If it fit, accounting must balance with the new matrix.
            assert!(dev.stats().bytes_in_use >= before);
            drop(c);
        }
        Err(e) => {
            assert!(matches!(e, SpblaError::Device(_)));
            // All temporaries must have been released on failure.
            assert_eq!(dev.stats().bytes_in_use, before);
        }
    }
}

#[test]
fn oom_in_clbool_merge_buffer() {
    let dev = Device::with_memory_limit(24 << 10);
    let inst = Instance::cl_sim_on(dev.clone());
    let pairs: Vec<(u32, u32)> = (0..1200).map(|i| (i % 300, (i * 13) % 300)).collect();
    let a = match Matrix::from_pairs(&inst, 300, 300, &pairs) {
        Ok(a) => a,
        Err(_) => return,
    };
    let b = match Matrix::from_pairs(&inst, 300, 300, &pairs) {
        Ok(b) => b,
        Err(_) => return,
    };
    let before = dev.stats().bytes_in_use;
    if let Err(e) = a.ewise_add(&b) {
        assert!(matches!(e, SpblaError::Device(_)));
        assert_eq!(dev.stats().bytes_in_use, before, "leaked temporaries");
    }
}

#[test]
fn dimension_errors_are_typed() {
    let inst = Instance::cuda_sim();
    let a = Matrix::zeros(&inst, 2, 3).unwrap();
    let b = Matrix::zeros(&inst, 2, 3).unwrap();
    assert!(matches!(
        a.mxm(&b),
        Err(SpblaError::DimensionMismatch { op: "mxm", .. })
    ));
    let c = Matrix::zeros(&inst, 3, 3).unwrap();
    assert!(matches!(
        a.ewise_add(&c),
        Err(SpblaError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        a.submatrix(0, 0, 3, 3),
        Err(SpblaError::InvalidDimension(_))
    ));
    assert!(matches!(
        a.transitive_closure(),
        Err(SpblaError::DimensionMismatch { .. })
    ));
}

#[test]
fn out_of_bounds_fill_rejected_on_all_backends() {
    for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
        let err = Matrix::from_pairs(&inst, 4, 4, &[(4, 0)]).unwrap_err();
        assert!(matches!(err, SpblaError::IndexOutOfBounds { row: 4, .. }));
    }
}

#[test]
fn kron_overflow_rejected() {
    let inst = Instance::cpu();
    let big = Matrix::zeros(&inst, 1 << 17, 1 << 17).unwrap();
    assert!(matches!(
        big.kron(&big),
        Err(SpblaError::InvalidDimension(_))
    ));
}

/// A grid where one device is far too small: sharding a matrix over it
/// must fail with the typed device error, and every shard uploaded
/// before the failure must be freed — no poisoned partial state.
#[test]
fn undersized_device_in_grid_fails_cleanly() {
    let grid = DeviceGrid::with_configs(
        Backend::CudaSim,
        vec![
            DeviceConfig::default(),
            DeviceConfig {
                memory_capacity: 256, // a few dozen entries at most
                ..DeviceConfig::default()
            },
            DeviceConfig::default(),
        ],
    )
    .unwrap();
    let n = 900u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i * 7) % n)])
        .collect();
    let err = DistMatrix::from_pairs(&grid, n, n, &pairs).unwrap_err();
    assert!(matches!(err, SpblaError::Device(_)), "got {err}");
    for (i, s) in grid.stats().iter().enumerate() {
        assert_eq!(s.bytes_in_use, 0, "device {i} holds a poisoned shard");
    }
}

/// The operands fit the small device but the distributed closure's
/// intermediates do not: the error is typed, and afterwards each device
/// holds exactly what it held before the failed operation.
#[test]
fn grid_oom_mid_closure_releases_temporaries() {
    let grid = DeviceGrid::with_configs(
        Backend::CudaSim,
        vec![
            DeviceConfig::default(),
            DeviceConfig {
                memory_capacity: 24 << 10,
                ..DeviceConfig::default()
            },
        ],
    )
    .unwrap();
    // Dense-ish band: the closure is much denser than the input.
    let n = 700u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| (1..6u32).map(move |d| (i, (i + d) % n)))
        .collect();
    let csr = CsrBool::from_pairs(n, n, &pairs).unwrap();
    let d = match DistMatrix::from_csr(&grid, &csr) {
        Ok(d) => d,
        Err(_) => return, // the shard alone may not fit; acceptable
    };
    let before: Vec<usize> = grid.stats().iter().map(|s| s.bytes_in_use).collect();
    match d.closure_delta() {
        Ok(c) => drop(c),
        Err(e) => {
            assert!(matches!(e, SpblaError::Device(_)), "got {e}");
            let after: Vec<usize> = grid.stats().iter().map(|s| s.bytes_in_use).collect();
            assert_eq!(after, before, "leaked distributed temporaries");
        }
    }
}

/// Cancellation mid-closure: arm a stop token, cancel it from another
/// thread partway through a fixpoint, and assert the typed error
/// surfaces, every temporary is released, and the device keeps serving
/// new work afterwards — the serving layer relies on exactly this.
#[test]
fn cancellation_mid_closure_leaves_device_usable() {
    use spbla_gpu_sim::StopToken;

    let dev = Device::new(DeviceConfig::default());
    let inst = Instance::cuda_sim_on(dev.clone());
    // A circular four-diagonal band: its closure is all n² pairs and
    // takes several rounds, which is all the final assertion needs.
    let n = 96u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| (1..5u32).map(move |d| (i, (i + d) % n)))
        .collect();
    let a = Matrix::from_pairs(&inst, n, n, &pairs).unwrap();
    let before = dev.stats().bytes_in_use;

    let token = StopToken::new();
    token.cancel(); // trip at the very first launch boundary
    dev.install_stop_token(token);
    let err = a.transitive_closure().unwrap_err();
    assert!(
        matches!(
            err,
            SpblaError::Device(spbla_gpu_sim::DeviceError::Cancelled)
        ),
        "got {err}"
    );
    assert_eq!(
        dev.stats().bytes_in_use,
        before,
        "cancelled closure leaked temporaries"
    );

    // Disarm and verify the device pool is not poisoned: the same
    // operation now runs to completion.
    dev.clear_stop_token();
    let c = a.transitive_closure().unwrap();
    assert!(c.nnz() >= a.nnz());
}

/// An already-expired deadline surfaces the typed `DeadlineExceeded`
/// error and, like cancellation, leaves accounting balanced.
#[test]
fn expired_deadline_surfaces_typed_error() {
    use spbla_gpu_sim::StopToken;
    use std::time::Duration;

    let dev = Device::new(DeviceConfig::default());
    let inst = Instance::cl_sim_on(dev.clone());
    let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i, (i + 1) % 400)).collect();
    let a = Matrix::from_pairs(&inst, 400, 400, &pairs).unwrap();
    let before = dev.stats().bytes_in_use;

    let token = StopToken::with_deadline(Duration::from_millis(0));
    std::thread::sleep(Duration::from_millis(2));
    dev.install_stop_token(token);
    let err = a.mxm(&a).unwrap_err();
    assert!(
        matches!(
            err,
            SpblaError::Device(spbla_gpu_sim::DeviceError::DeadlineExceeded { .. })
        ),
        "got {err}"
    );
    assert_eq!(dev.stats().bytes_in_use, before);
    dev.clear_stop_token();
    assert!(a.mxm(&a).is_ok());
}

#[test]
fn shared_device_across_instances_accumulates_stats() {
    let dev = Device::default();
    let i1 = Instance::cuda_sim_on(dev.clone());
    let i2 = Instance::cl_sim_on(dev.clone());
    let a = Matrix::from_pairs(&i1, 10, 10, &[(0, 1)]).unwrap();
    let b = Matrix::from_pairs(&i2, 10, 10, &[(1, 2)]).unwrap();
    assert!(dev.stats().bytes_in_use >= a.memory_bytes() + b.memory_bytes());
    // Cross-instance ops still rejected even on the same device.
    assert!(matches!(a.mxm(&b), Err(SpblaError::BackendMismatch)));
}
