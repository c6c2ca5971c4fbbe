//! Property tests: every distributed kernel on a [`DeviceGrid`] returns
//! results bit-identical to the same operation on one device, for every
//! grid size — including ragged partitions and grids with more devices
//! than matrix rows (all-empty trailing shards).

use proptest::prelude::*;

use spbla_core::{CsrBool, Instance, Matrix};
use spbla_graph::closure::{closure_delta, closure_delta_dist};
use spbla_lang::SymbolTable;
use spbla_multidev::{DeviceGrid, DistMatrix};

const GRIDS: [usize; 4] = [1, 2, 3, 7];

fn pairs_strategy(n: u32, max_nnz: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_nnz)
}

fn single(n: u32, pairs: &[(u32, u32)]) -> Matrix {
    let inst = Instance::cuda_sim();
    Matrix::from_pairs(&inst, n, n, pairs).expect("in bounds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dist_mxm_equivalent(pa in pairs_strategy(11, 40), pb in pairs_strategy(11, 40)) {
        let inst = Instance::cuda_sim();
        let a = Matrix::from_pairs(&inst, 11, 11, &pa).unwrap();
        let b = Matrix::from_pairs(&inst, 11, 11, &pb).unwrap();
        let expect = a.mxm(&b).unwrap().read();
        for devices in GRIDS {
            let grid = DeviceGrid::new(devices);
            let da = DistMatrix::from_pairs(&grid, 11, 11, &pa).unwrap();
            let db = DistMatrix::from_pairs(&grid, 11, 11, &pb).unwrap();
            prop_assert_eq!(
                da.mxm(&db).unwrap().gather().to_pairs(),
                expect.clone(),
                "{} devices", devices
            );
        }
    }

    #[test]
    fn dist_masked_mxm_equivalent(
        pa in pairs_strategy(9, 30),
        pb in pairs_strategy(9, 30),
        pm in pairs_strategy(9, 25),
    ) {
        let inst = Instance::cuda_sim();
        let a = Matrix::from_pairs(&inst, 9, 9, &pa).unwrap();
        let b = Matrix::from_pairs(&inst, 9, 9, &pb).unwrap();
        let m = Matrix::from_pairs(&inst, 9, 9, &pm).unwrap();
        let expect_keep = a.mxm_masked(&b, &m).unwrap().read();
        let expect_drop = a.mxm_compmask(&b, &m).unwrap().read();
        for devices in GRIDS {
            let grid = DeviceGrid::new(devices);
            let da = DistMatrix::from_pairs(&grid, 9, 9, &pa).unwrap();
            let db = DistMatrix::from_pairs(&grid, 9, 9, &pb).unwrap();
            let dm = DistMatrix::from_pairs(&grid, 9, 9, &pm).unwrap();
            prop_assert_eq!(
                da.mxm_masked(&db, &dm).unwrap().gather().to_pairs(),
                expect_keep.clone(), "{} devices", devices);
            prop_assert_eq!(
                da.mxm_compmask(&db, &dm).unwrap().gather().to_pairs(),
                expect_drop.clone(), "{} devices", devices);
        }
    }

    #[test]
    fn dist_ewise_equivalent_across_ragged_partitions(
        pa in pairs_strategy(10, 40),
        pb in pairs_strategy(10, 40),
        cut in 0u32..=10,
    ) {
        let inst = Instance::cuda_sim();
        let a = Matrix::from_pairs(&inst, 10, 10, &pa).unwrap();
        let b = Matrix::from_pairs(&inst, 10, 10, &pb).unwrap();
        let expect_add = a.ewise_add(&b).unwrap().read();
        let expect_mult = a.ewise_mult(&b).unwrap().read();
        let grid = DeviceGrid::new(2);
        let da = DistMatrix::from_pairs(&grid, 10, 10, &pa).unwrap();
        // Deliberately misaligned partition: forces a metered reshard.
        let csr_b = CsrBool::from_pairs(10, 10, &pb).unwrap();
        let db = DistMatrix::from_csr_with_offsets(&grid, &csr_b, vec![0, cut, 10]).unwrap();
        prop_assert_eq!(da.ewise_add(&db).unwrap().gather().to_pairs(), expect_add);
        prop_assert_eq!(da.ewise_mult(&db).unwrap().gather().to_pairs(), expect_mult);
    }

    #[test]
    fn dist_kron_equivalent(pa in pairs_strategy(5, 10), pb in pairs_strategy(6, 12)) {
        let inst = Instance::cuda_sim();
        let a = Matrix::from_pairs(&inst, 5, 5, &pa).unwrap();
        let b = Matrix::from_pairs(&inst, 6, 6, &pb).unwrap();
        let expect = a.kron(&b).unwrap().read();
        for devices in GRIDS {
            let grid = DeviceGrid::new(devices);
            let da = DistMatrix::from_pairs(&grid, 5, 5, &pa).unwrap();
            let db = DistMatrix::from_pairs(&grid, 6, 6, &pb).unwrap();
            prop_assert_eq!(
                da.kron(&db).unwrap().gather().to_pairs(),
                expect.clone(), "{} devices", devices);
        }
    }

    #[test]
    fn dist_reductions_equivalent(pairs in pairs_strategy(13, 50)) {
        let csr = CsrBool::from_pairs(13, 13, &pairs).unwrap();
        for devices in GRIDS {
            let grid = DeviceGrid::new(devices);
            let d = DistMatrix::from_csr(&grid, &csr).unwrap();
            prop_assert_eq!(d.reduce_to_column().unwrap(), csr.reduce_to_column());
            prop_assert_eq!(d.reduce_to_row().unwrap(), csr.reduce_to_row());
        }
    }

    #[test]
    fn dist_closure_equivalent(pairs in pairs_strategy(10, 30)) {
        let a = single(10, &pairs);
        let expect = closure_delta(&a).unwrap().read();
        for devices in GRIDS {
            let grid = DeviceGrid::new(devices);
            let d = DistMatrix::from_pairs(&grid, 10, 10, &pairs).unwrap();
            prop_assert_eq!(
                d.closure_delta().unwrap().gather().to_pairs(),
                expect.clone(), "{} devices", devices);
        }
    }
}

/// More devices than rows: the trailing shards own zero rows and every
/// kernel must still agree with the single-device result.
#[test]
fn more_devices_than_rows() {
    let pairs = [(0u32, 1u32), (1, 2), (2, 0), (3, 3)];
    let inst = Instance::cuda_sim();
    let a = Matrix::from_pairs(&inst, 4, 4, &pairs).unwrap();
    let grid = DeviceGrid::new(7);
    let d = DistMatrix::from_pairs(&grid, 4, 4, &pairs).unwrap();
    assert_eq!(d.shards()[6].nrows(), 0);
    assert_eq!(
        d.mxm(&d.duplicate().unwrap()).unwrap().gather().to_pairs(),
        a.mxm(&a).unwrap().read()
    );
    assert_eq!(
        d.closure_delta().unwrap().gather().to_pairs(),
        closure_delta(&a).unwrap().read()
    );
}

/// An all-empty matrix distributes, multiplies and closes without any
/// special-casing — and pays zero communication (nothing to fetch).
#[test]
fn all_empty_shards() {
    for devices in GRIDS {
        let grid = DeviceGrid::new(devices);
        let d = DistMatrix::zeros(&grid, 6, 6).unwrap();
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.mxm(&d.duplicate().unwrap()).unwrap().nnz(), 0);
        assert_eq!(d.closure_delta().unwrap().nnz(), 0);
        assert_eq!(d.gather(), CsrBool::zeros(6, 6));
        assert_eq!(
            grid.total_stats().d2d_bytes,
            0,
            "empty shards must never be fetched ({devices} devices)"
        );
    }
}

/// Zero-dimension matrices shard cleanly (the `LaunchCfg::cover(0, ..)`
/// regression surface, end to end).
#[test]
fn zero_row_matrix_distributes() {
    let grid = DeviceGrid::new(3);
    let d = DistMatrix::zeros(&grid, 0, 5).unwrap();
    assert_eq!(d.nrows(), 0);
    assert_eq!(d.gather(), CsrBool::zeros(0, 5));
}

/// The acceptance gate: distributed delta closure on the LUBM fixture is
/// bit-identical to the single-device schedule on 1, 2, 4 and 8 devices.
#[test]
fn lubm_closure_identical_on_1_2_4_8_devices() {
    let mut table = SymbolTable::new();
    let lubm = spbla_data::lubm::lubm_like(
        2,
        &spbla_data::lubm::LubmConfig::default(),
        &mut table,
        0xC0FFEE,
    );
    let csr = lubm.adjacency_csr();
    let inst = Instance::cuda_sim();
    let a = Matrix::from_csr(&inst, csr.clone()).unwrap();
    let expect = closure_delta(&a).unwrap().read();
    for devices in [1usize, 2, 4, 8] {
        let grid = DeviceGrid::new(devices);
        let closure = closure_delta_dist(&csr, &grid).unwrap();
        assert_eq!(closure.to_pairs(), expect, "{devices} devices");
        if devices > 1 {
            assert!(grid.total_stats().d2d_bytes > 0, "rounds were not metered");
        }
    }
}
