//! The tentpole invariants of the semi-naïve rework: complemented-mask
//! SpGEMM must equal product-then-filter on every backend, and every
//! delta-driven fixpoint schedule must be bit-identical to the naive
//! schedule it replaces — on random inputs and on the bundled LUBM/RDF
//! fixtures — while doing strictly less kernel work.

use proptest::prelude::*;

use spbla_core::{Instance, Matrix};
use spbla_data::lubm::{lubm_like, LubmConfig};
use spbla_data::rdf;
use spbla_gpu_sim::Device;
use spbla_graph::cfpq::azimov::{AzimovIndex, AzimovOptions};
use spbla_graph::closure::{closure_delta, closure_squaring};
use spbla_graph::LabeledGraph;
use spbla_integration::{all_backends, pseudo_pairs};
use spbla_lang::{CnfGrammar, Grammar, SymbolTable};

fn pairs(n: u32, max_nnz: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_nnz)
}

/// Reference semantics: the unmasked product filtered on the host.
fn filtered_product(
    inst: &Instance,
    pa: &[(u32, u32)],
    pb: &[(u32, u32)],
    pm: &[(u32, u32)],
    keep_present: bool,
) -> Vec<(u32, u32)> {
    let a = Matrix::from_pairs(inst, 10, 10, pa).unwrap();
    let b = Matrix::from_pairs(inst, 10, 10, pb).unwrap();
    let in_mask: std::collections::HashSet<(u32, u32)> = pm.iter().copied().collect();
    a.mxm(&b)
        .unwrap()
        .read()
        .into_iter()
        .filter(|p| in_mask.contains(p) == keep_present)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `mxm_compmask(A,B,M)` ≡ `mxm(A,B)` followed by dropping entries
    /// of `M`, and `mxm_masked` ≡ keeping them — identically on the
    /// CSR, COO and CPU backends.
    #[test]
    fn compmask_equals_product_then_filter(
        pa in pairs(10, 40), pb in pairs(10, 40), pm in pairs(10, 40)
    ) {
        for inst in all_backends() {
            let a = Matrix::from_pairs(&inst, 10, 10, &pa).unwrap();
            let b = Matrix::from_pairs(&inst, 10, 10, &pb).unwrap();
            let m = Matrix::from_pairs(&inst, 10, 10, &pm).unwrap();
            prop_assert_eq!(
                a.mxm_compmask(&b, &m).unwrap().read(),
                filtered_product(&inst, &pa, &pb, &pm, false)
            );
            prop_assert_eq!(
                a.mxm_masked(&b, &m).unwrap().read(),
                filtered_product(&inst, &pa, &pb, &pm, true)
            );
        }
    }

    /// The masked and complement-masked products partition the plain
    /// product, on every backend.
    #[test]
    fn masked_and_compmask_partition(
        pa in pairs(10, 40), pb in pairs(10, 40), pm in pairs(10, 40)
    ) {
        for inst in all_backends() {
            let a = Matrix::from_pairs(&inst, 10, 10, &pa).unwrap();
            let b = Matrix::from_pairs(&inst, 10, 10, &pb).unwrap();
            let m = Matrix::from_pairs(&inst, 10, 10, &pm).unwrap();
            let kept = a.mxm_masked(&b, &m).unwrap();
            let dropped = a.mxm_compmask(&b, &m).unwrap();
            let merged = kept.ewise_add(&dropped).unwrap();
            prop_assert_eq!(merged.read(), a.mxm(&b).unwrap().read());
            prop_assert_eq!(kept.ewise_mult(&dropped).unwrap().nnz(), 0);
        }
    }

    /// The delta-driven closure is bit-identical to naive squaring on
    /// random graphs, on every backend.
    #[test]
    fn delta_closure_matches_naive_on_random_graphs(p in pairs(14, 60)) {
        for inst in all_backends() {
            let a = Matrix::from_pairs(&inst, 14, 14, &p).unwrap();
            let naive = closure_squaring(&a).unwrap().read();
            prop_assert_eq!(closure_delta(&a).unwrap().read(), naive);
        }
    }
}

/// The LUBM rung `report` uses (same generator, same seed).
fn lubm_fixture(table: &mut SymbolTable) -> LabeledGraph {
    lubm_like(2, &LubmConfig::default(), table, 0xCAFE)
}

#[test]
fn delta_closure_matches_naive_on_lubm_and_rdf_fixtures() {
    let mut table = SymbolTable::new();
    let fixtures: Vec<(&str, LabeledGraph)> = vec![
        ("lubm", lubm_fixture(&mut table)),
        ("geospecies", rdf::geospecies_like(0.01, &mut table, 4)),
        ("go", rdf::go_like(0.01, &mut table, 14)),
    ];
    for (name, graph) in &fixtures {
        let pairs = graph.adjacency_csr().to_pairs();
        let n = graph.n_vertices();
        for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
            let a = Matrix::from_pairs(&inst, n, n, &pairs).unwrap();
            let naive = closure_squaring(&a).unwrap().read();
            assert_eq!(
                closure_delta(&a).unwrap().read(),
                naive,
                "delta vs naive closure diverged on {name}"
            );
        }
    }
}

/// Naive Azimov fixpoint (the pre-rework schedule): full products, no
/// masks, Gauss–Seidel updates — the ground truth the semi-naïve loop
/// must reproduce exactly.
fn naive_azimov(graph: &LabeledGraph, cnf: &CnfGrammar, inst: &Instance) -> Vec<Vec<(u32, u32)>> {
    let n = graph.n_vertices();
    let nnt = cnf.n_nonterminals();
    let mut matrices: Vec<Matrix> = Vec::with_capacity(nnt);
    for a in 0..nnt {
        let a_id = spbla_lang::cfg::NtId(a as u32);
        let mut m = Matrix::zeros(inst, n, n).unwrap();
        for &(lhs, t) in cnf.terminal_rules() {
            if lhs == a_id && graph.label_count(t) > 0 {
                m = m.ewise_add(&graph.label_matrix(inst, t).unwrap()).unwrap();
            }
        }
        if a_id == cnf.start() && cnf.start_nullable() {
            m = m.ewise_add(&Matrix::identity(inst, n).unwrap()).unwrap();
        }
        matrices.push(m);
    }
    loop {
        let mut changed = false;
        for &(a, b, c) in cnf.binary_rules() {
            let product = matrices[b.id()].mxm(&matrices[c.id()]).unwrap();
            let updated = matrices[a.id()].ewise_add(&product).unwrap();
            if updated.nnz() != matrices[a.id()].nnz() {
                changed = true;
                matrices[a.id()] = updated;
            }
        }
        if !changed {
            return matrices.iter().map(Matrix::read).collect();
        }
    }
}

#[test]
fn semi_naive_azimov_matches_naive_fixpoint() {
    let mut table = SymbolTable::new();
    let grammar = Grammar::parse("S -> a S b | a b", &mut table).unwrap();
    let cnf = CnfGrammar::from_grammar(&grammar);
    let a = table.get("a").unwrap();
    let b = table.get("b").unwrap();
    // Random bipartite-ish labeled graphs plus the two-cycles worst case.
    for seed in 0..3u64 {
        let n = 12;
        let ea = pseudo_pairs(n, 20, seed * 2 + 1);
        let eb = pseudo_pairs(n, 20, seed * 2 + 2);
        let mut g = LabeledGraph::new(n);
        for &(u, v) in &ea {
            g.add_edge(u, a, v);
        }
        for &(u, v) in &eb {
            g.add_edge(u, b, v);
        }
        for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
            let idx = AzimovIndex::build(&g, &cnf, &inst, &AzimovOptions::default()).unwrap();
            let naive = naive_azimov(&g, &cnf, &inst);
            for (nt, expected) in naive.iter().enumerate() {
                assert_eq!(
                    &idx.matrix(spbla_lang::cfg::NtId(nt as u32)).read(),
                    expected,
                    "nonterminal {nt} diverged (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn semi_naive_azimov_matches_naive_on_lubm_fixture() {
    let mut table = SymbolTable::new();
    let graph = lubm_fixture(&mut table);
    // A transitive query over the LUBM hierarchy labels.
    let grammar =
        Grammar::parse("S -> subOrganizationOf | subOrganizationOf S", &mut table).unwrap();
    let cnf = CnfGrammar::from_grammar(&grammar);
    for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
        let idx = AzimovIndex::build(&graph, &cnf, &inst, &AzimovOptions::default()).unwrap();
        let naive = naive_azimov(&graph, &cnf, &inst);
        assert_eq!(idx.matrix(cnf.start()).read(), naive[cnf.start().id()]);
    }
}

#[test]
fn delta_schedule_does_strictly_less_kernel_work_on_lubm() {
    let mut table = SymbolTable::new();
    let graph = lubm_fixture(&mut table);
    let pairs = graph.adjacency_csr().to_pairs();
    let n = graph.n_vertices();

    let run = |schedule: fn(&Matrix) -> spbla_core::Result<Matrix>| -> (Vec<(u32, u32)>, u64, u64) {
        let dev = Device::default();
        let inst = Instance::cuda_sim_on(dev.clone());
        let a = Matrix::from_pairs(&inst, n, n, &pairs).unwrap();
        let before = dev.stats();
        let closure = schedule(&a).unwrap().read();
        let after = dev.stats();
        (
            closure,
            after.launches - before.launches,
            after.accum_insertions - before.accum_insertions,
        )
    };

    let (naive, naive_launches, naive_insertions) = run(closure_squaring);
    let (delta, delta_launches, delta_insertions) = run(closure_delta);
    assert_eq!(delta, naive, "schedules must agree before comparing cost");
    assert!(
        delta_launches < naive_launches,
        "delta schedule must launch strictly fewer kernels ({delta_launches} vs {naive_launches})"
    );
    assert!(
        delta_insertions < naive_insertions,
        "delta schedule must perform strictly fewer accumulator insertions \
         ({delta_insertions} vs {naive_insertions})"
    );

    // The ESC backend saves expansion slots the same way.
    let run_cl = |schedule: fn(&Matrix) -> spbla_core::Result<Matrix>| -> (u64, u64) {
        let dev = Device::default();
        let inst = Instance::cl_sim_on(dev.clone());
        let a = Matrix::from_pairs(&inst, n, n, &pairs).unwrap();
        let before = dev.stats();
        schedule(&a).unwrap();
        let after = dev.stats();
        (
            after.launches - before.launches,
            after.accum_insertions - before.accum_insertions,
        )
    };
    let (cl_naive_launches, cl_naive_insertions) = run_cl(closure_squaring);
    let (cl_delta_launches, cl_delta_insertions) = run_cl(closure_delta);
    assert!(cl_delta_launches < cl_naive_launches);
    assert!(cl_delta_insertions < cl_naive_insertions);
}
