//! Reachability on a taxonomy: transitive closure and matrix BFS — the
//! "reduce graph analysis to linear algebra" pitch of the introduction,
//! plus a format comparison (CSR vs COO memory) on a hypersparse matrix.
//!
//! Run: `cargo run -p spbla-examples --bin reachability_closure`

use spbla_core::{CooBool, CsrBool, Instance, Matrix};
use spbla_data::rdf::geospecies_like;
use spbla_graph::bfs::{bfs_levels, reachable_set};
use spbla_graph::closure::closure_delta;
use spbla_lang::SymbolTable;

fn main() {
    let mut table = SymbolTable::new();
    let graph = geospecies_like(0.002, &mut table, 11);
    let bt = table
        .get("broaderTransitive")
        .expect("generator interns bt");
    println!(
        "geospecies-like graph: {} vertices, {} edges, {} broaderTransitive",
        graph.n_vertices(),
        graph.n_edges(),
        graph.label_count(bt)
    );

    // Closure of the taxonomy hierarchy: ancestor relation.
    let inst = Instance::cuda_sim();
    let hierarchy = graph.label_matrix(&inst, bt).expect("upload");
    let t0 = std::time::Instant::now();
    let ancestors = closure_delta(&hierarchy).expect("closure");
    println!(
        "broaderTransitive closure: {} → {} pairs in {:.2?}",
        hierarchy.nnz(),
        ancestors.nnz(),
        t0.elapsed()
    );

    // Matrix BFS over the full adjacency.
    let adjacency = Matrix::from_csr(&inst, graph.adjacency_csr()).expect("upload");
    let levels = bfs_levels(&adjacency, 0, &inst).expect("bfs");
    let reached = reachable_set(&adjacency, 0, &inst).expect("bfs");
    let max_level = levels.iter().flatten().max().copied().unwrap_or(0);
    println!(
        "BFS from vertex 0: {} reachable, eccentricity {}",
        reached.len(),
        max_level
    );

    // Format memory comparison on the hypersparse hierarchy matrix:
    // the paper's reason clBool chose COO.
    let csr: CsrBool = graph.label_csr(bt);
    let coo = CooBool::from(&csr);
    println!(
        "hierarchy matrix ({} rows, {} nnz): CSR {} B vs COO {} B — {}",
        csr.nrows(),
        csr.nnz(),
        csr.memory_bytes(),
        coo.memory_bytes(),
        if coo.memory_bytes() < csr.memory_bytes() {
            "COO wins on hypersparse data, as §IV argues"
        } else {
            "CSR wins at this density"
        }
    );
    println!("reachability_closure: done");
}
