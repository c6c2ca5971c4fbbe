//! `cfpq_index` — Table IV: `TnsIndex::build` and `AzimovIndex::build`
//! on go-hierarchy × {G1, G2}, taxonomy with inverse edges × G1 and the
//! drivers alias graph × MA. Thousands of small launches per second, so
//! the simulated device's launch cost and the host-side orchestration
//! do most of the work — the opposite corner from `rpq_index`.
//!
//! Graph structure is frozen and `--seed` relabels the vertices, as in
//! `rpq_index`: the fixpoints' round counts move with the generator
//! seed, and a round here is hundreds of launches.

use std::collections::BTreeMap;
use std::time::Instant;

use spbla_core::Instance;
use spbla_data::alias::kernel_module_like;
use spbla_data::{grammar_g1, grammar_g2, grammar_ma, rdf};
use spbla_gpu_sim::Device;
use spbla_graph::cfpq::azimov::{AzimovIndex, AzimovOptions};
use spbla_graph::cfpq::tensor::{TnsIndex, TnsOptions};
use spbla_graph::LabeledGraph;
use spbla_lang::{CnfGrammar, Grammar, SymbolTable};

use crate::harness::{digest_pairs, Digests, Recorder, Size, Verdict, Workload};
use crate::inputs::{group_permutation, relabel, Rng};

/// `(go-hierarchy, taxonomy, drivers)` scales.
const FULL: (f64, f64, f64) = (0.006, 0.002, 0.2);
const QUICK: (f64, f64, f64) = (0.002, 0.0002, 0.03);
/// Generator seeds, as `report table4` uses them.
const GOH_SEED: u64 = 15;
const TAX_SEED: u64 = 17;
const DRV_SEED: u64 = 21;

struct Case {
    /// `gohier`, `taxonomy` or `drivers`: the `<g>` of the metric names.
    graph_name: &'static str,
    graph: usize,
    grammar: Grammar,
    cnf: CnfGrammar,
}

pub struct CfpqIndexBuilds {
    inst: Instance,
    graphs: Vec<LabeledGraph>,
    cases: Vec<Case>,
    digests: Digests,
}

pub fn setup(seed: u64, size: Size, detail: &mut BTreeMap<String, f64>) -> CfpqIndexBuilds {
    let (goh, tax, drv) = if size == Size::Full { FULL } else { QUICK };
    let mut rng = Rng::new(seed, 0xcf9);
    let mut table = SymbolTable::new();
    let grammars = [
        ("gohier", 0, grammar_g1(&mut table)),
        ("gohier", 0, grammar_g2(&mut table)),
        ("taxonomy", 1, grammar_g1(&mut table)),
        ("drivers", 2, grammar_ma(&mut table)),
    ];
    let t0 = Instant::now();
    let graphs: Vec<LabeledGraph> = [
        rdf::go_hierarchy_like(goh, &mut table, GOH_SEED),
        rdf::taxonomy_like(tax, &mut table, TAX_SEED),
        kernel_module_like("drivers", drv, &mut table, DRV_SEED),
    ]
    .into_iter()
    .map(|g| {
        let g = g.with_inverses(&mut table);
        relabel(&g, &group_permutation(g.n_vertices(), &mut rng))
    })
    .collect();
    detail.insert("data.generate_s".into(), t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let cases = grammars
        .into_iter()
        .map(|(graph_name, graph, grammar)| Case {
            graph_name,
            graph,
            cnf: CnfGrammar::from_grammar(&grammar),
            grammar,
        })
        .collect();
    detail.insert("lang.cnf_s".into(), t0.elapsed().as_secs_f64());
    CfpqIndexBuilds {
        inst: Instance::cuda_sim(),
        graphs,
        cases,
        digests: Digests::default(),
    }
}

impl Workload for CfpqIndexBuilds {
    fn devices(&self) -> Vec<Device> {
        self.inst.device().cloned().into_iter().collect()
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let (mut tns_rounds, mut mtx_rounds) = (0, 0);
        for (i, case) in self.cases.iter().enumerate() {
            let graph = &self.graphs[case.graph];
            let tns = rec.item(&format!("graph.tns_s.{}", case.graph_name), "graph", || {
                TnsIndex::build(graph, &case.grammar, &self.inst, &TnsOptions::default())
                    .expect("tensor index builds")
            });
            tns_rounds += tns.iterations();
            self.digests
                .note(rec, &format!("tns.{i}"), || tns.reachable_pairs());
            drop(tns);
            let mtx = rec.item(&format!("graph.mtx_s.{}", case.graph_name), "graph", || {
                AzimovIndex::build(graph, &case.cnf, &self.inst, &AzimovOptions::default())
                    .expect("matrix index builds")
            });
            mtx_rounds += mtx.iterations();
            self.digests
                .note(rec, &format!("mtx.{i}"), || mtx.reachable_pairs());
        }
        rec.set("graph.tns_iterations", tns_rounds as f64);
        rec.set("graph.mtx_iterations", mtx_rounds as f64);
    }

    /// Both algorithms against the matrix algorithm on the CPU backend.
    fn verify(&mut self) -> Verdict {
        let cpu = Instance::cpu();
        let mut verdict = Verdict::default();
        for (i, case) in self.cases.iter().enumerate() {
            let graph = &self.graphs[case.graph];
            let reference = AzimovIndex::build(graph, &case.cnf, &cpu, &AzimovOptions::default())
                .expect("reference builds");
            let want = digest_pairs(reference.reachable_pairs());
            for algorithm in ["tns", "mtx"] {
                self.digests.check(
                    &mut verdict,
                    "cfpq_index",
                    &format!("{algorithm}.{i}"),
                    want,
                );
            }
        }
        verdict
    }
}
