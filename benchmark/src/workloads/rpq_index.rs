//! `rpq_index` — Fig. 3: `RpqIndex::build` for five heavy templates on a
//! geospecies-like graph and all 28 templates on a taxonomy-like graph.
//! The closures are few long fused-SpGEMM rounds, so the hash-probe
//! redundancy of `mxm_accum_compmask` dominates and launch overhead
//! does not.
//!
//! Graph structure and query labels are frozen: the closure of a random
//! hierarchy varies by tens of percent from one generator seed to the
//! next, which would drown every other effect. `--seed` relabels the
//! vertices instead (see `inputs::group_permutation`).

use std::collections::BTreeMap;
use std::time::Instant;

use spbla_core::Instance;
use spbla_data::queries::{generate_queries, instantiate_template, template};
use spbla_data::rdf;
use spbla_gpu_sim::Device;
use spbla_graph::{LabeledGraph, RpqIndex, RpqOptions};
use spbla_lang::{Regex, SymbolTable};

use crate::harness::{digest_pairs, Digests, Recorder, Size, Verdict, Workload};
use crate::inputs::{group_permutation, relabel, Rng};

/// `(geospecies scale, taxonomy scale)`.
const FULL: (f64, f64) = (0.03, 0.0006);
const QUICK: (f64, f64) = (0.004, 0.0001);
/// Generator and query-sampler seeds, as `report fig3` uses them.
const GEO_SEED: u64 = 4;
const TAX_SEED: u64 = 3;
const QUERY_SEED: u64 = 0xBEEF;

/// One timed item: a metric name and the queries built under it.
struct Item {
    metric: &'static str,
    on_taxonomy: bool,
    queries: Vec<(String, Regex)>,
}

pub struct RpqIndexBuilds {
    inst: Instance,
    geo: LabeledGraph,
    tax: LabeledGraph,
    items: Vec<Item>,
    digests: Digests,
}

pub fn setup(seed: u64, size: Size, detail: &mut BTreeMap<String, f64>) -> RpqIndexBuilds {
    let (geo_scale, tax_scale) = if size == Size::Full { FULL } else { QUICK };
    let mut rng = Rng::new(seed, 0x29c);
    let mut table = SymbolTable::new();
    let t0 = Instant::now();
    let geo = rdf::geospecies_like(geo_scale, &mut table, GEO_SEED);
    let geo = relabel(&geo, &group_permutation(geo.n_vertices(), &mut rng));
    let tax = rdf::taxonomy_like(tax_scale, &mut table, TAX_SEED);
    let tax = relabel(&tax, &group_permutation(tax.n_vertices(), &mut rng));
    detail.insert("data.generate_s".into(), t0.elapsed().as_secs_f64());

    // Hierarchy labels under the stars; `isExpectedNear` is kept out of
    // them because with the hierarchy it closes a supercritical loop.
    let t0 = Instant::now();
    let mut geo_query = |name: &str, labels: &[&str]| {
        let regex =
            instantiate_template(template(name).expect("Table II name"), labels, &mut table);
        (name.to_string(), regex)
    };
    let (bt, ty, name, near) = ("broaderTransitive", "type", "hasName", "isExpectedNear");
    let mut items = vec![
        Item {
            metric: "graph.rpq_heavy_s",
            on_taxonomy: false,
            queries: vec![geo_query("Q4^3", &[bt, ty, name])],
        },
        Item {
            metric: "graph.rpq_q9_s",
            on_taxonomy: false,
            queries: vec![geo_query("Q9^3", &[bt, ty, name])],
        },
        Item {
            metric: "graph.rpq_q15_s",
            on_taxonomy: false,
            queries: vec![geo_query("Q15", &[bt, ty, name, near])],
        },
        Item {
            metric: "graph.rpq_chain_s",
            on_taxonomy: false,
            queries: vec![
                geo_query("Q2", &[ty, bt]),
                geo_query("Q11^3", &[ty, bt, bt]),
                geo_query("Q2", &[near, name]),
                geo_query("Q11^3", &[near, ty, bt]),
            ],
        },
    ];
    items.push(Item {
        metric: "graph.rpq_taxonomy_s",
        on_taxonomy: true,
        queries: generate_queries(&tax, &mut table, 5, 1, QUERY_SEED),
    });
    detail.insert("lang.regex_compile_s".into(), t0.elapsed().as_secs_f64());
    RpqIndexBuilds {
        inst: Instance::cuda_sim(),
        geo,
        tax,
        items,
        digests: Digests::default(),
    }
}

impl RpqIndexBuilds {
    fn graph(&self, item: &Item) -> &LabeledGraph {
        if item.on_taxonomy {
            &self.tax
        } else {
            &self.geo
        }
    }
}

impl Workload for RpqIndexBuilds {
    fn devices(&self) -> Vec<Device> {
        self.inst.device().cloned().into_iter().collect()
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let mut index_nnz = 0;
        for (i, item) in self.items.iter().enumerate() {
            let graph = self.graph(item);
            let built: Vec<RpqIndex> = rec.item(item.metric, "graph", || {
                item.queries
                    .iter()
                    .map(|(_, regex)| {
                        RpqIndex::build(graph, regex, &self.inst, &RpqOptions::default())
                            .expect("index builds")
                    })
                    .collect()
            });
            for (j, index) in built.iter().enumerate() {
                index_nnz += index.index_nnz();
                self.digests.note(rec, &format!("{i}.{j}"), || {
                    index.reachable_pairs().expect("pairs extract")
                });
            }
        }
        rec.set("graph.rpq_index_nnz", index_nnz as f64);
        rec.set("output_nnz", index_nnz as f64);
    }

    /// Every query's answer against the same build on the CPU backend.
    fn verify(&mut self) -> Verdict {
        let cpu = Instance::cpu();
        let mut verdict = Verdict::default();
        for (i, item) in self.items.iter().enumerate() {
            for (j, (_, regex)) in item.queries.iter().enumerate() {
                let reference =
                    RpqIndex::build(self.graph(item), regex, &cpu, &RpqOptions::default())
                        .and_then(|index| index.reachable_pairs())
                        .expect("reference builds");
                let want = digest_pairs(reference);
                self.digests
                    .check(&mut verdict, "rpq_index", &format!("{i}.{j}"), want);
            }
        }
        verdict
    }
}
