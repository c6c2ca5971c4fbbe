//! Bit-identity of the adaptive tiled block storage (`Repr::Block`)
//! against the flat formats: closure, CFPQ, and RPQ must answer
//! identically — witnessed by FNV checksums — beneath every backend,
//! including runs whose fixpoint rounds densify tiles past the format
//! crossover and trigger mid-closure dense/CSR/COO switches.

use proptest::prelude::*;

use spbla_core::{Instance, Matrix};
use spbla_graph::cfpq::azimov::{AzimovIndex, AzimovOptions};
use spbla_graph::closure::closure_delta;
use spbla_graph::rpq_bfs::rpq_from_sources;
use spbla_graph::LabeledGraph;
use spbla_integration::{all_backends, pseudo_pairs};
use spbla_lang::{CnfGrammar, Grammar, Regex, SymbolTable};

/// FNV-1a over a sorted pair list — the cross-storage identity witness.
fn fnv(pairs: &[(u32, u32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(r, c) in pairs {
        for b in r.to_le_bytes().into_iter().chain(c.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Each flat backend paired with a blocked-storage instance on the
/// same backend (and same simulated device, where there is one).
fn flat_and_blocked() -> Vec<(Instance, Instance)> {
    all_backends()
        .into_iter()
        .map(|flat| {
            let blocked = Instance::blocked_on(flat.backend(), flat.device().cloned());
            (flat, blocked)
        })
        .collect()
}

/// A ring through `0..ring` grafted onto random pairs: the ring's
/// closure saturates its vertex block to all-pairs, marching tiles
/// from COO through CSR to dense across the fixpoint rounds.
fn ring_plus_noise(n: u32, ring: u32, nnz: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(ring <= n);
    let mut pairs = pseudo_pairs(n, nnz, seed);
    for v in 0..ring {
        pairs.push((v, (v + 1) % ring));
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta-fixpoint closure: blocked storage answers bit-identically
    /// to the flat format on every backend, ring sizes chosen so the
    /// closure densifies across tile boundaries mid-run.
    #[test]
    fn closure_checksums_match_flat(seed in 0u64..256, ring in 1u32..130) {
        let n = 160u32;
        let pairs = ring_plus_noise(n, ring, 60, seed);
        let mut reference: Option<u64> = None;
        for (flat, blocked) in flat_and_blocked() {
            let mf = Matrix::from_pairs(&flat, n, n, &pairs).unwrap();
            let mb = Matrix::from_pairs(&blocked, n, n, &pairs).unwrap();
            prop_assert!(blocked.is_blocked() && mb.block_format_census().is_some());
            let cf = closure_delta(&mf).unwrap().read();
            let cb = closure_delta(&mb).unwrap().read();
            let (hf, hb) = (fnv(&cf), fnv(&cb));
            prop_assert_eq!(hf, hb, "blocked closure diverged on {:?}", flat.backend());
            match reference {
                None => reference = Some(hf),
                Some(expect) => prop_assert_eq!(hf, expect, "backends disagree"),
            }
        }
    }

    /// Fused accumulate + fresh extraction — the kernel the closure is
    /// made of — agrees entry-for-entry under mixed-format operands.
    #[test]
    fn fused_accum_matches_flat(pa in proptest::collection::vec((0..96u32, 0..96u32), 0..200),
                                pb in proptest::collection::vec((0..96u32, 0..96u32), 0..200)) {
        for (flat, blocked) in flat_and_blocked() {
            let af = Matrix::from_pairs(&flat, 96, 96, &pa).unwrap();
            let bf = Matrix::from_pairs(&flat, 96, 96, &pb).unwrap();
            let ab = Matrix::from_pairs(&blocked, 96, 96, &pa).unwrap();
            let bb = Matrix::from_pairs(&blocked, 96, 96, &pb).unwrap();
            let sf = bf.mxm_accum_compmask(&af, &bf, true).unwrap();
            let sb = bb.mxm_accum_compmask(&ab, &bb, true).unwrap();
            prop_assert_eq!(sf.fresh_nnz, sb.fresh_nnz);
            prop_assert_eq!(sf.acc.read(), sb.acc.read());
            prop_assert_eq!(
                sf.fresh.map(|m| m.read()),
                sb.fresh.map(|m| m.read())
            );
        }
    }
}

/// CFPQ: Azimov's semi-naive fixpoint uploads all its nonterminal
/// matrices through the instance, so a blocked instance runs the whole
/// grammar iteration on tiled storage. Answers must not move.
#[test]
fn cfpq_checksums_match_flat() {
    let mut table = SymbolTable::new();
    let grammar = Grammar::parse("S -> a S b | a b", &mut table).unwrap();
    let cnf = CnfGrammar::from_grammar(&grammar);
    let a = table.get("a").unwrap();
    let b = table.get("b").unwrap();
    for seed in 0..4u64 {
        let n = 80;
        let mut g = LabeledGraph::new(n);
        for &(u, v) in &ring_plus_noise(n, 40, 50, seed * 2 + 1) {
            g.add_edge(u, a, v);
        }
        for &(u, v) in &pseudo_pairs(n, 50, seed * 2 + 2) {
            g.add_edge(u, b, v);
        }
        for (flat, blocked) in flat_and_blocked() {
            let idx_f = AzimovIndex::build(&g, &cnf, &flat, &AzimovOptions::default()).unwrap();
            let idx_b = AzimovIndex::build(&g, &cnf, &blocked, &AzimovOptions::default()).unwrap();
            assert_eq!(
                fnv(&idx_f.reachable_pairs()),
                fnv(&idx_b.reachable_pairs()),
                "CFPQ diverged on {:?} (seed {seed})",
                flat.backend()
            );
        }
    }
}

/// RPQ: the frontier BFS over the labeled matrices, flat vs blocked,
/// same sources, same sorted answer sets.
#[test]
fn rpq_checksums_match_flat() {
    let mut table = SymbolTable::new();
    let a = table.intern("a");
    let b = table.intern("b");
    let regex = Regex::parse("a . b*", &mut table).unwrap();
    for seed in 0..4u64 {
        let n = 96;
        let mut g = LabeledGraph::new(n);
        for &(u, v) in &pseudo_pairs(n, 120, seed * 2 + 1) {
            g.add_edge(u, a, v);
        }
        for &(u, v) in &ring_plus_noise(n, 64, 40, seed * 2 + 2) {
            g.add_edge(u, b, v);
        }
        let sources: Vec<u32> = (0..8).map(|i| i * 11 % n).collect();
        for (flat, blocked) in flat_and_blocked() {
            let rf = rpq_from_sources(&g, &regex, &sources, &flat).unwrap();
            let rb = rpq_from_sources(&g, &regex, &sources, &blocked).unwrap();
            assert_eq!(rf, rb, "RPQ diverged on {:?} (seed {seed})", flat.backend());
        }
    }
}

/// The delta closure loop of `closure_delta`, returning the closure
/// and its peak working set: accumulator plus delta, sampled after
/// every fixpoint round.
fn closure_with_peak(inst: &Instance, n: u32, pairs: &[(u32, u32)]) -> (Vec<(u32, u32)>, usize) {
    let mut closure = Matrix::from_pairs(inst, n, n, pairs).unwrap();
    let mut delta = closure.duplicate().unwrap();
    let mut peak = closure.memory_bytes() + delta.memory_bytes();
    loop {
        let step = closure.mxm_accum_compmask(&closure, &delta, true).unwrap();
        if step.fresh_nnz == 0 {
            break;
        }
        closure = step.acc;
        delta = step.fresh.expect("fresh requested");
        peak = peak.max(closure.memory_bytes() + delta.memory_bytes());
    }
    (closure.read(), peak)
}

/// Blocked storage on a real LUBM adjacency answers the closure
/// bit-identically to a flat instance on the same backend: tiling is a
/// layout decision, never a semantic one. It also holds the closure in
/// at least 2x fewer peak bytes than flat CSR, and a catalog budget
/// keeps at least 1.5x more graphs resident.
#[test]
fn blocked_closure_matches_flat_on_lubm() {
    use spbla_data::lubm::{lubm_like, LubmConfig};
    use spbla_engine::Catalog;

    let mut table = SymbolTable::new();
    // Scale 4: enough universities that the adjacency spans many
    // 64-row tile rows. A citation thread through the tail of the
    // vertex range densifies round over round, which the shallow
    // ontology hierarchy alone never does.
    const CHAIN: u32 = 192;
    let mut graph = lubm_like(4, &LubmConfig::default(), &mut table, 0xCAFE);
    let n = graph.n_vertices();
    let cites = table.intern("cites");
    for v in n - CHAIN..n - 1 {
        graph.add_edge(v, cites, v + 1);
    }
    let pairs = graph.adjacency_csr().to_pairs();

    let flat = Instance::cuda_sim();
    let blocked = Instance::blocked(spbla_core::Backend::CudaSim);
    let (cf, flat_peak) = closure_with_peak(&flat, n, &pairs);
    let (cb, blocked_peak) = closure_with_peak(&blocked, n, &pairs);
    assert_eq!(fnv(&cf), fnv(&cb), "blocked storage diverged");
    assert!(
        blocked_peak * 2 <= flat_peak,
        "blocked peak {blocked_peak} B vs flat CSR {flat_peak} B: need >= 2x below"
    );

    // Same budget, same LRU policy, same touch order: only the storage
    // beneath `Matrix::from_csr` differs.
    const GRAPHS: usize = 12;
    let probe = Catalog::new(1, usize::MAX);
    probe.add("probe", graph.clone());
    let flat_bytes = probe.resident("probe", 0, &flat).unwrap().bytes;
    let budget = flat_bytes * 4 + flat_bytes / 2;
    let resident = |inst: &Instance| {
        let catalog = Catalog::new(1, budget);
        for i in 0..GRAPHS {
            catalog.add(&format!("g{i}"), graph.clone());
        }
        for i in 0..GRAPHS {
            catalog.resident(&format!("g{i}"), 0, inst).unwrap();
        }
        catalog.resident_count(0)
    };
    let (flat_resident, blocked_resident) = (resident(&flat), resident(&blocked));
    assert!(
        blocked_resident * 2 >= flat_resident * 3,
        "blocked keeps {blocked_resident} graphs vs flat {flat_resident}: need >= 1.5x"
    );
}

/// A densifying closure must actually exercise the re-choosing path:
/// the global switch counter advances while the answers stay pinned to
/// the flat reference.
#[test]
fn mid_closure_format_switches_happen_and_preserve_answers() {
    let n = 128u32;
    let ring: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let counter = spbla_obs::metrics_global().counter("spbla_block_format_switches_total");
    let before = counter.get();
    let flat = Instance::cuda_sim();
    let blocked = Instance::blocked_on(flat.backend(), flat.device().cloned());
    let cf = closure_delta(&Matrix::from_pairs(&flat, n, n, &ring).unwrap())
        .unwrap()
        .read();
    let cb_mat = closure_delta(&Matrix::from_pairs(&blocked, n, n, &ring).unwrap()).unwrap();
    assert_eq!(fnv(&cf), fnv(&cb_mat.read()));
    // The ring's closure is all-pairs: every tile of the 128×128 block
    // square ends dense.
    assert_eq!(cb_mat.block_format_census(), Some((4, 0, 0)));
    assert!(
        counter.get() > before,
        "densifying closure re-chose no tile formats"
    );
}
