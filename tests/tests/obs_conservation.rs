//! Metrics-conservation properties of the observability layer.
//!
//! The registry and the trace are two views of the same execution; they
//! must agree with each other and with the `DeviceStats` snapshot view:
//!
//! - every counted kernel launch on a device appears as exactly one
//!   `kernel` span on that device's trace track;
//! - the h2d/d2h byte counters equal the sum of the `bytes` args of the
//!   `xfer` spans on that track;
//! - the per-kernel profile histograms advance by exactly one
//!   observation per instrumented op, with sums matching actual shapes,
//!   on all three backends.
//!
//! The trace and registry are process-global, so every test here
//! serialises on one mutex — tests within this binary otherwise run on
//! parallel threads and would bleed spans into each other's windows.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use spbla_core::{Instance, Matrix};
use spbla_obs::{labeled, metrics_global, trace_global};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic sparse pair set (xorshift), `n`×`n`, ~`nnz` entries.
fn random_pairs(n: u32, nnz: usize, mut seed: u64) -> Vec<(u32, u32)> {
    seed |= 1;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    (0..nnz)
        .map(|_| ((next() % n as u64) as u32, (next() % n as u64) as u32))
        .collect()
}

/// A mixed workload touching SpGEMM, element-wise ops, transpose,
/// Kronecker and reductions — enough to exercise every primitive
/// (sort, scan, compaction, histogram) behind the launch counter.
fn run_workload(inst: &Instance, n: u32, seed: u64) {
    let a = Matrix::from_pairs(inst, n, n, &random_pairs(n, n as usize * 4, seed)).unwrap();
    let b =
        Matrix::from_pairs(inst, n, n, &random_pairs(n, n as usize * 4, seed ^ 0xABCD)).unwrap();
    let c = a.mxm(&b).unwrap();
    let d = a.ewise_add(&b).unwrap();
    let _ = d.ewise_mult(&c).unwrap();
    let _ = a.transpose().unwrap();
    let small = Matrix::from_pairs(inst, 4, 4, &[(0, 1), (1, 2), (3, 0)]).unwrap();
    let _ = small.kron(&small).unwrap();
    let _ = d.reduce_to_column().unwrap();
    let _ = a.mxm_compmask(&b, &d).unwrap();
    let _ = c.to_csr();
}

#[test]
fn every_launch_appears_as_one_kernel_span_on_its_track() {
    let _guard = obs_lock();
    let trace = trace_global();
    for inst in [Instance::cuda_sim(), Instance::cl_sim()] {
        trace.enable(1 << 18);
        run_workload(&inst, 96, 0xFEED);
        let device = inst.device().expect("device-backed backend");
        let stats = device.stats();
        let snap = trace.snapshot();
        trace.disable();
        assert_eq!(snap.dropped, 0, "ring sized for the workload");

        let track = device.ordinal();
        let kernel_spans = snap
            .spans
            .iter()
            .filter(|s| s.cat == "kernel" && s.track == track)
            .count() as u64;
        assert_eq!(
            kernel_spans,
            stats.launches,
            "{}: kernel spans vs launch counter",
            inst.backend()
        );

        // Transfer conservation: the byte counters are exactly the sums
        // of the spans' `bytes` args, per direction.
        let xfer_sum = |name: &str| -> u64 {
            snap.spans
                .iter()
                .filter(|s| s.cat == "xfer" && s.track == track && s.name == name)
                .map(|s| {
                    s.args
                        .iter()
                        .find(|(k, _)| *k == "bytes")
                        .map_or(0, |&(_, v)| v)
                })
                .sum()
        };
        assert_eq!(xfer_sum("h2d"), stats.h2d_bytes, "{}", inst.backend());
        assert_eq!(xfer_sum("d2h"), stats.d2h_bytes, "{}", inst.backend());
        assert_eq!(xfer_sum("d2d"), stats.d2d_bytes, "{}", inst.backend());
    }
}

#[test]
fn device_stats_view_equals_registry_cells() {
    let _guard = obs_lock();
    let inst = Instance::cuda_sim();
    run_workload(&inst, 64, 0xBEEF);
    let device = inst.device().expect("device-backed backend");
    let stats = device.stats();
    let dev = device.ordinal().to_string();
    let reg = metrics_global();
    let counter = |family: &str| reg.counter(&labeled(family, &[("dev", &dev)])).get();
    assert_eq!(stats.launches, counter("spbla_dev_launches_total"));
    assert_eq!(
        stats.blocks_executed,
        counter("spbla_dev_blocks_executed_total")
    );
    assert_eq!(stats.h2d_bytes, counter("spbla_dev_h2d_bytes_total"));
    assert_eq!(stats.d2h_bytes, counter("spbla_dev_d2h_bytes_total"));
    assert_eq!(stats.d2d_bytes, counter("spbla_dev_d2d_bytes_total"));
    assert_eq!(
        stats.accum_insertions,
        counter("spbla_dev_accum_insertions_total")
    );
    assert!(stats.launches > 0, "workload actually launched kernels");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On all three backends, each instrumented op adds exactly one
    /// observation to its kernel histograms, and the observed `rows` /
    /// `nnz_out` sums advance by the true matrix shapes.
    #[test]
    fn kernel_histograms_conserve_on_all_backends(
        n in 8u32..64,
        density in 1usize..6,
        seed in any::<u64>(),
    ) {
        let _guard = obs_lock();
        let reg = metrics_global();
        for inst in [
            Instance::cpu(),
            Instance::cuda_sim(),
            Instance::cl_sim(),
        ] {
            let labels = [("backend", inst.backend().label()), ("kernel", "mxm")];
            let rows_h = reg.histogram(&labeled("spbla_kernel_rows", &labels));
            let out_h = reg.histogram(&labeled("spbla_kernel_nnz_out", &labels));
            let (count0, rows_sum0, out_sum0) =
                (rows_h.count(), rows_h.sum(), out_h.sum());

            let a = Matrix::from_pairs(
                &inst, n, n, &random_pairs(n, n as usize * density, seed),
            ).unwrap();
            let b = Matrix::from_pairs(
                &inst, n, n, &random_pairs(n, n as usize * density, seed ^ 0x5A5A),
            ).unwrap();
            let c = a.mxm(&b).unwrap();

            prop_assert_eq!(rows_h.count(), count0 + 1, "{}", inst.backend());
            prop_assert_eq!(out_h.count(), count0 + 1, "{}", inst.backend());
            prop_assert_eq!(
                rows_h.sum(), rows_sum0 + n as u64, "{}", inst.backend()
            );
            prop_assert_eq!(
                out_h.sum(), out_sum0 + c.nnz() as u64, "{}", inst.backend()
            );
        }
    }
}
