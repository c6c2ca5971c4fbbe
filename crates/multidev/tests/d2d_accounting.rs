//! Regression tests for sender-side `d2d_bytes` accounting.
//!
//! The invariant: a device "sending" to itself is free, so the grid's
//! total d2d volume on a 1-device grid must be exactly 0 no matter what
//! schedule runs — every self-copy leg (broadcast root, all-gather's
//! local shard, reshard's diagonal) must go unmetered. On wider grids
//! the collectives charge exactly `(participants - 1)` legs.

use spbla_core::Pair;
use spbla_multidev::grid::block_row_offsets;
use spbla_multidev::{DeviceGrid, DistMatrix};

fn ring(n: u32) -> Vec<Pair> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

/// Every collective and schedule on a single device: nothing crosses a
/// device boundary, so the metered peer traffic must be exactly zero.
#[test]
fn one_device_grid_total_d2d_is_zero() {
    let grid = DeviceGrid::new(1);
    let n = 24u32;
    let a = DistMatrix::from_pairs(&grid, n, n, &ring(n)).unwrap();
    let b = a.duplicate().unwrap();
    let mask = DistMatrix::identity(&grid, n).unwrap();

    // SpGEMM family (round-robin schedules degenerate to local work).
    let prod = a.mxm(&b).unwrap();
    a.mxm_masked(&b, &mask).unwrap();
    a.mxm_compmask(&b, &prod).unwrap();

    // Element-wise family.
    a.ewise_add(&b).unwrap();
    a.ewise_mult(&b).unwrap();

    // Structure ops and reductions.
    a.kron(&mask).unwrap();
    a.reduce_to_column().unwrap();
    a.reduce_to_row().unwrap();

    // Fixpoints.
    a.closure_delta().unwrap();
    a.closure_squaring().unwrap();

    // Explicit communication: every leg is a self-copy.
    let comm = grid.comm();
    let shard = a.shards()[0].duplicate().unwrap();
    comm.broadcast(&shard, 0).unwrap();
    comm.all_gather(&a, 0).unwrap();
    comm.peer_copy(&shard, 0, 0).unwrap();
    comm.merge_reduce(&[(0, &shard)], 0).unwrap();

    // Resharding onto the same single block row.
    a.reshard(block_row_offsets(n, 1)).unwrap();

    // Streaming updates are shard-local.
    a.apply_updates(&[(0, 5)], &[(0, 1)]).unwrap();

    assert_eq!(
        grid.total_stats().d2d_bytes,
        0,
        "a 1-device grid moved bytes across a device boundary"
    );
}

/// Broadcast meters exactly `p - 1` copies on the root; the root's own
/// copy is free.
#[test]
fn broadcast_meters_exactly_remote_legs() {
    let grid = DeviceGrid::new(4);
    let m = spbla_core::Matrix::from_pairs(grid.instance(2), 6, 6, &ring(6)).unwrap();
    let before = grid.total_stats().d2d_bytes;
    grid.comm().broadcast(&m, 2).unwrap();
    let moved = grid.total_stats().d2d_bytes - before;
    assert_eq!(moved, 3 * m.memory_bytes() as u64);
    // All of it charged to the sender.
    assert_eq!(grid.device(2).stats().d2d_bytes, moved);
}

/// All-gather meters every shard except the destination's own, each
/// charged to its owner.
#[test]
fn all_gather_skips_the_local_shard() {
    let grid = DeviceGrid::new(3);
    let n = 12u32;
    let a = DistMatrix::from_pairs(&grid, n, n, &ring(n)).unwrap();
    let before: Vec<u64> = (0..3).map(|i| grid.device(i).stats().d2d_bytes).collect();
    grid.comm().all_gather(&a, 1).unwrap();
    let moved: Vec<u64> = (0..3)
        .map(|i| grid.device(i).stats().d2d_bytes - before[i])
        .collect();
    assert_eq!(moved[1], 0, "destination's own shard must not be metered");
    assert_eq!(moved[0], a.shards()[0].memory_bytes() as u64);
    assert_eq!(moved[2], a.shards()[2].memory_bytes() as u64);
}
