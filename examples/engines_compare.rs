//! Compare all RPQ evaluation strategies and all three backends on one
//! workload — the "unified library" story: one query, many execution
//! plans, identical answers.
//!
//! Strategies: all-pairs Kronecker index (the paper's algorithm),
//! single-source frontier BFS, and derivative-based propagation (the
//! related-work baseline). Backends: cpu, cuda-sim, cl-sim.
//!
//! Run: `cargo run -p spbla-examples --bin engines_compare`

use std::time::Instant;

use spbla_core::Instance;
use spbla_data::lubm::{lubm_like, LubmConfig};
use spbla_data::queries::{instantiate_template, template};
use spbla_graph::rpq::{RpqIndex, RpqOptions};
use spbla_graph::rpq_bfs::rpq_from_sources;
use spbla_graph::rpq_derivative::rpq_by_derivatives;
use spbla_lang::SymbolTable;

fn main() {
    let mut table = SymbolTable::new();
    let graph = lubm_like(3, &LubmConfig::default(), &mut table, 99);
    let regex = instantiate_template(
        template("Q2").expect("known template"),
        &["memberOf", "subOrganizationOf"],
        &mut table,
    );
    println!(
        "graph: {} vertices, {} edges; query Q2 = memberOf . subOrganizationOf*",
        graph.n_vertices(),
        graph.n_edges()
    );

    // Strategy 1: all-pairs index, on every backend.
    let mut reference: Option<Vec<(u32, u32)>> = None;
    for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
        let t0 = Instant::now();
        let idx =
            RpqIndex::build(&graph, &regex, &inst, &RpqOptions::default()).expect("index builds");
        let pairs = idx.reachable_pairs().expect("pairs");
        println!(
            "  index [{:<9}] {:>6} pairs, nnz {:>7}, {:>9.2?}",
            inst.backend().to_string(),
            pairs.len(),
            idx.index_nnz(),
            t0.elapsed()
        );
        match &reference {
            None => reference = Some(pairs),
            Some(r) => assert_eq!(r, &pairs, "backend disagreement"),
        }
    }
    let reference = reference.expect("at least one backend ran");

    // Strategy 2: single-source BFS for a handful of sources.
    let inst = Instance::cpu();
    let t0 = Instant::now();
    let mut bfs_pairs = Vec::new();
    for src in 0..graph.n_vertices() {
        for v in rpq_from_sources(&graph, &regex, &[src], &inst).expect("bfs") {
            bfs_pairs.push((src, v));
        }
    }
    bfs_pairs.sort_unstable();
    println!(
        "  frontier BFS (all sources, one at a time): {} pairs, {:?}",
        bfs_pairs.len(),
        t0.elapsed()
    );
    assert_eq!(bfs_pairs, reference);

    // Strategy 3: derivative propagation (no matrices at all).
    let t0 = Instant::now();
    let deriv = rpq_by_derivatives(&graph, &regex);
    println!(
        "  Brzozowski derivatives:                    {} pairs, {:?}",
        deriv.len(),
        t0.elapsed()
    );
    assert_eq!(deriv, reference);

    println!("engines_compare: all strategies agree — done");
}
