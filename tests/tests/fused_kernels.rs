//! Equivalence gate for the fused kernels: on every backend,
//! `mxm_accum_compmask` must be bit-identical to the unfused
//! `mxm_compmask` + `ewise_add` composition it replaces (and
//! `frontier_step`'s push/pull selection to plain `vxm`), and the
//! nnz cache must answer fixpoint termination probes without a single
//! extra device launch.

use proptest::prelude::*;

use spbla_core::{Instance, Matrix, Vector};
use spbla_integration::{all_backends, pseudo_pairs};

/// Clamp raw pairs into an `nr × nc` shape.
fn clamp(pairs: &[(u32, u32)], nr: u32, nc: u32) -> Vec<(u32, u32)> {
    pairs.iter().map(|&(r, c)| (r % nr, c % nc)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `C.mxm_accum_compmask(A, B)` ≡ `fresh = (A·B) ∧ ¬C; acc = C ∪ fresh`
    /// on all three backends, including ragged `A: m×k, B: k×n, C: m×n`
    /// shapes.
    #[test]
    fn fused_matches_unfused_composition(
        m in 1..12u32, k in 1..12u32, n in 1..12u32,
        ra in proptest::collection::vec((0..12u32, 0..12u32), 0..40),
        rb in proptest::collection::vec((0..12u32, 0..12u32), 0..40),
        rc in proptest::collection::vec((0..12u32, 0..12u32), 0..40)
    ) {
        let pa = clamp(&ra, m, k);
        let pb = clamp(&rb, k, n);
        let pc = clamp(&rc, m, n);
        for inst in all_backends() {
            let a = Matrix::from_pairs(&inst, m, k, &pa).unwrap();
            let b = Matrix::from_pairs(&inst, k, n, &pb).unwrap();
            let c = Matrix::from_pairs(&inst, m, n, &pc).unwrap();
            let fresh_ref = a.mxm_compmask(&b, &c).unwrap();
            let acc_ref = c.ewise_add(&fresh_ref).unwrap();
            let step = c.mxm_accum_compmask(&a, &b, true).unwrap();
            prop_assert_eq!(step.acc.read(), acc_ref.read(),
                "acc diverges on {:?}", inst.backend());
            let fresh = step.fresh.expect("fresh requested");
            prop_assert_eq!(fresh.read(), fresh_ref.read(),
                "fresh diverges on {:?}", inst.backend());
            prop_assert_eq!(step.fresh_nnz, fresh_ref.nnz());
            // The skip-fresh variant agrees on the accumulator and the
            // termination signal.
            let lean = c.mxm_accum_compmask(&a, &b, false).unwrap();
            prop_assert_eq!(lean.acc.read(), step.acc.read());
            prop_assert_eq!(lean.fresh_nnz, step.fresh_nnz);
            prop_assert!(lean.fresh.is_none());
        }
    }

    /// Direction-optimised `frontier_step` answers exactly like the push
    /// `vxm`, whichever side of the density crossover the frontier is on.
    #[test]
    fn frontier_step_matches_vxm(
        pairs in proptest::collection::vec((0..24u32, 0..24u32), 0..90),
        raw_frontier in proptest::collection::vec(0..24u32, 0..24)
    ) {
        let mut support: Vec<u32> = raw_frontier;
        support.sort_unstable();
        support.dedup();
        for inst in all_backends() {
            let m = Matrix::from_pairs(&inst, 24, 24, &pairs).unwrap();
            let v = Vector::from_indices(&inst, 24, &support).unwrap();
            let push = m.vxm(&v).unwrap();
            let stepped = m.frontier_step(&v).unwrap();
            prop_assert_eq!(stepped.indices(), push.indices(),
                "direction mismatch on {:?}", inst.backend());
        }
    }
}

/// Empty delta: the fused step reports zero fresh and hands back a
/// bit-identical accumulator.
#[test]
fn empty_delta_is_a_noop_with_zero_signal() {
    for inst in all_backends() {
        let c = Matrix::from_pairs(&inst, 6, 6, &pseudo_pairs(6, 12, 3)).unwrap();
        let empty = Matrix::zeros(&inst, 6, 6).unwrap();
        let step = c.mxm_accum_compmask(&c, &empty, true).unwrap();
        assert_eq!(step.fresh_nnz, 0, "{:?}", inst.backend());
        assert_eq!(step.acc.read(), c.read());
        assert_eq!(step.fresh.expect("fresh requested").nnz(), 0);
    }
}

/// All-dense accumulator: nothing can be fresh no matter the product.
#[test]
fn dense_accumulator_rejects_everything() {
    let full: Vec<(u32, u32)> = (0..5u32)
        .flat_map(|i| (0..5u32).map(move |j| (i, j)))
        .collect();
    for inst in all_backends() {
        let a = Matrix::from_pairs(&inst, 5, 5, &pseudo_pairs(5, 10, 5)).unwrap();
        let c = Matrix::from_pairs(&inst, 5, 5, &full).unwrap();
        let step = c.mxm_accum_compmask(&a, &a, true).unwrap();
        assert_eq!(step.fresh_nnz, 0, "{:?}", inst.backend());
        assert_eq!(step.acc.read(), full);
        assert_eq!(step.fresh.expect("fresh requested").nnz(), 0);
    }
}

/// The fused entry points prime the handle's nnz cache, so fixpoint
/// termination probes (`acc.nnz()`, `fresh.nnz()`, repeated) cost zero
/// device launches — the regression this pins down is the old
/// per-round `nnz` reduction kernel sneaking back in.
#[test]
fn nnz_probes_after_fused_ops_launch_nothing() {
    for inst in [Instance::cuda_sim(), Instance::cl_sim()] {
        let m = Matrix::from_pairs(&inst, 32, 32, &pseudo_pairs(32, 100, 9)).unwrap();
        let c = m.transitive_closure().unwrap();
        let step = c.mxm_accum_compmask(&c, &c, true).unwrap();
        let device = inst.device().expect("sim backends have a device");
        let before = device.stats().launches;
        for _ in 0..16 {
            assert_eq!(step.acc.nnz(), c.nnz());
            assert_eq!(step.fresh_nnz, 0);
            assert_eq!(step.fresh.as_ref().expect("fresh requested").nnz(), 0);
        }
        assert_eq!(
            device.stats().launches,
            before,
            "nnz probes must be cache hits on {:?}",
            inst.backend()
        );
    }
}

/// Push/pull decisions land in the `spbla_frontier_{push,pull}_total`
/// counters, one per `frontier_step` call.
#[test]
fn frontier_direction_counters_advance() {
    let inst = Instance::cpu();
    let n = 128u32;
    let chain: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let m = Matrix::from_pairs(&inst, n, n, &chain).unwrap();
    let read = |name: &str| {
        spbla_obs::metrics_global()
            .counter(&spbla_obs::labeled(name, &[("backend", "cpu")]))
            .get()
    };
    let (push0, pull0) = (
        read("spbla_frontier_push_total"),
        read("spbla_frontier_pull_total"),
    );
    // One vertex out of 128 is far under the 1/32 crossover: push.
    let sparse = Vector::from_indices(&inst, n, &[0]).unwrap();
    m.frontier_step(&sparse).unwrap();
    // Every vertex is far over it: pull.
    let all: Vec<u32> = (0..n).collect();
    let dense = Vector::from_indices(&inst, n, &all).unwrap();
    m.frontier_step(&dense).unwrap();
    assert!(read("spbla_frontier_push_total") > push0);
    assert!(read("spbla_frontier_pull_total") > pull0);
}

/// On a LUBM adjacency the fused delta closure launches at least 25 %
/// fewer kernels than the unfused loop it replaces — a standalone
/// complement-masked product, a separate union and an nnz probe per
/// round — and answers identically.
#[test]
fn fused_closure_launches_a_quarter_fewer_kernels_on_lubm() {
    use spbla_data::lubm::{lubm_like, LubmConfig};

    let mut table = spbla_lang::SymbolTable::new();
    let graph = lubm_like(2, &LubmConfig::default(), &mut table, 0xCAFE);
    let n = graph.n_vertices();
    let inst = Instance::cuda_sim();
    let device = inst.device().expect("cuda-sim has a device");
    let m = Matrix::from_pairs(&inst, n, n, &graph.adjacency_csr().to_pairs()).unwrap();

    let s0 = device.stats().launches;
    let mut unfused = m.duplicate().unwrap();
    let mut delta = m.duplicate().unwrap();
    loop {
        let fresh = unfused.mxm_compmask(&delta, &unfused).unwrap();
        if fresh.nnz() == 0 {
            break;
        }
        unfused = unfused.ewise_add(&fresh).unwrap();
        delta = fresh;
    }
    let s1 = device.stats().launches;
    let fused = m.transitive_closure().unwrap();
    let s2 = device.stats().launches;

    assert_eq!(fused.read(), unfused.read());
    let (unfused_launches, fused_launches) = (s1 - s0, s2 - s1);
    assert!(
        fused_launches * 4 <= unfused_launches * 3,
        "fused {fused_launches} launches vs unfused {unfused_launches}: need >= 25% fewer"
    );
}
