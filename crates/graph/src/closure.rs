//! Transitive closure.
//!
//! The paper singles out *incremental transitive closure* as the
//! bottleneck between the tensor CFPQ algorithm and a truly subcubic
//! solution; the CFPQ fixpoint recomputes a closure after each batch of
//! new edges, so how that recomputation is scheduled dominates runtime.
//! [`closure_delta`] — semi-naïve iteration over the frontier with a
//! complemented-mask SpGEMM — is the one production schedule;
//! [`closure_incremental`] extends an existing closure by a batch of
//! edges; [`closure_squaring`] is the naive oracle tests compare them
//! against.

use spbla_core::{CsrBool, Matrix, Result};
use spbla_multidev::{DeviceGrid, DistMatrix};

/// Closure by repeated squaring: `C ← C + C·C` until fixpoint —
/// O(log diameter) multiplications of growing density. The naive test
/// oracle; production callers use [`closure_delta`].
pub fn closure_squaring(adjacency: &Matrix) -> Result<Matrix> {
    let mut c = adjacency.duplicate()?;
    loop {
        let before = c.nnz();
        c = c.mxm_acc(&c, &c)?;
        if c.nnz() == before {
            return Ok(c);
        }
    }
}

/// Semi-naïve closure ([`Matrix::transitive_closure`]): track the
/// frontier Δ of pairs discovered last round and compute only
/// `N = (C·Δ) ∧ ¬C` each round, stopping when Δ is empty. One
/// delta-sided multiply per round preserves the doubling of
/// [`closure_squaring`]: a shortest path of length `m ∈ (2ᵏ, 2ᵏ⁺¹]`
/// splits into a prefix of `⌊m/2⌋ ≤ 2ᵏ` (already in `C`) and a suffix
/// of `⌈m/2⌉ ∈ (2ᵏ⁻¹, 2ᵏ]` (discovered exactly last round, so in `Δ`).
/// The complemented-mask SpGEMM rejects already-known pairs inside the
/// kernel, so per-round cost is proportional to the product touching
/// *new* pairs rather than the full `C·C`.
pub fn closure_delta(adjacency: &Matrix) -> Result<Matrix> {
    adjacency.transitive_closure()
}

/// Distributed semi-naïve closure: shard the adjacency by block-rows
/// over `grid` and run the [`closure_delta`] schedule with distributed
/// kernels — each round's complement-masked SpGEMM all-gathers only the
/// round's *frontier* shards (never the dense closure), and the union
/// into `C` stays shard-local. The gathered result is bit-identical to
/// the single-device [`closure_delta`] on any device count.
pub fn closure_delta_dist(adjacency: &CsrBool, grid: &DeviceGrid) -> Result<CsrBool> {
    let sharded = DistMatrix::from_csr(grid, adjacency)?;
    Ok(sharded.closure_delta()?.gather())
}

/// Incremental closure: given the closure `t` of some graph and a batch
/// of new edges `delta`, compute the closure of the union.
///
/// New reachability can only arise from paths alternating old-closure
/// segments and Δ-edges, so each round multiplies by the *sparse* Δ:
/// `N ← ((T + I)·Δ·(T + I)) ∧ ¬T`, `T ← T + N`, until `N` is empty.
/// Every round's multiplier is the original Δ — never the (possibly
/// dense) pairs it uncovered — so per-round cost stays proportional to
/// `nnz(Δ)`; paths through several Δ-edges are still found because `T`
/// grows between rounds. The identity is built once per call and reused
/// across rounds, and the trailing multiply is a complemented-mask
/// SpGEMM so already-known pairs are rejected inside the kernel and the
/// empty-`N` termination check is free. When `nnz(Δ)` is small this
/// does asymptotically less work than re-running [`closure_delta`] from
/// scratch — and this is the schedule the CFPQ loop uses between
/// iterations.
pub fn closure_incremental(t: &Matrix, delta: &Matrix) -> Result<Matrix> {
    let n = t.nrows();
    let identity = Matrix::identity(t.instance(), n)?;
    let mut closure = t.ewise_add(delta)?;
    loop {
        let reach = closure.ewise_add(&identity)?;
        let left = reach.mxm(delta)?;
        // Fused `((T+I)·Δ·(T+I)) ∧ ¬T` + accumulate: the trailing
        // multiply lands straight in the accumulator and the empty-`N`
        // check is the kernel's own fresh count.
        let step = closure.mxm_accum_compmask(&left, &reach, false)?;
        if step.fresh_nnz == 0 {
            return Ok(closure);
        }
        closure = step.acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spbla_core::Instance;

    fn path_graph(inst: &Instance, n: u32) -> Matrix {
        let pairs: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Matrix::from_pairs(inst, n, n, &pairs).unwrap()
    }

    #[test]
    fn schedules_agree_on_path() {
        for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
            let a = path_graph(&inst, 12);
            let sq = closure_squaring(&a).unwrap().read();
            let dl = closure_delta(&a).unwrap().read();
            assert_eq!(sq, dl);
            assert_eq!(sq.len(), (11 * 12) / 2);
        }
    }

    #[test]
    fn delta_matches_squaring_on_random_graphs() {
        for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
            for seed in 0u32..4 {
                let pairs: Vec<(u32, u32)> = (0..80u32)
                    .map(|i| {
                        let x = i.wrapping_mul(2654435761).wrapping_add(seed * 97);
                        (x % 25, (x / 25) % 25)
                    })
                    .collect();
                let a = Matrix::from_pairs(&inst, 25, 25, &pairs).unwrap();
                let naive = closure_squaring(&a).unwrap().read();
                assert_eq!(closure_delta(&a).unwrap().read(), naive);
            }
        }
    }

    #[test]
    fn distributed_closure_matches_single_device() {
        let pairs: Vec<(u32, u32)> = (0..90u32)
            .map(|i| {
                let x = i.wrapping_mul(2654435761).wrapping_add(17);
                (x % 30, (x / 30) % 30)
            })
            .collect();
        let inst = Instance::cuda_sim();
        let a = Matrix::from_pairs(&inst, 30, 30, &pairs).unwrap();
        let single = closure_delta(&a).unwrap().read();
        let csr = spbla_core::CsrBool::from_pairs(30, 30, &pairs).unwrap();
        for devices in [1, 2, 4, 8] {
            let grid = DeviceGrid::new(devices);
            let dist = closure_delta_dist(&csr, &grid).unwrap();
            assert_eq!(dist.to_pairs(), single, "{devices} devices");
            if devices > 1 {
                assert!(grid.total_stats().d2d_bytes > 0);
            }
        }
    }

    #[test]
    fn closure_of_cycle_is_complete() {
        let inst = Instance::cpu();
        let a = Matrix::from_pairs(&inst, 4, 4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let c = closure_squaring(&a).unwrap();
        assert_eq!(c.nnz(), 16);
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let inst = Instance::cpu();
        // Base: two disjoint paths 0→1→2 and 3→4→5.
        let base = Matrix::from_pairs(&inst, 6, 6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let t = closure_squaring(&base).unwrap();
        // Delta: bridge 2→3.
        let delta = Matrix::from_pairs(&inst, 6, 6, &[(2, 3)]).unwrap();
        let inc = closure_incremental(&t, &delta).unwrap();
        let full = closure_squaring(&base.ewise_add(&delta).unwrap()).unwrap();
        assert_eq!(inc.read(), full.read());
        // The bridge must connect the components transitively.
        assert!(inc.get(0, 5));
    }

    #[test]
    fn incremental_with_empty_delta_is_identity() {
        let inst = Instance::cpu();
        let base = Matrix::from_pairs(&inst, 4, 4, &[(0, 1), (1, 2)]).unwrap();
        let t = closure_squaring(&base).unwrap();
        let delta = Matrix::zeros(&inst, 4, 4).unwrap();
        let inc = closure_incremental(&t, &delta).unwrap();
        assert_eq!(inc.read(), t.read());
    }
}
