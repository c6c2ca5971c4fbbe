//! Semiring swap demo: the same sparse-matrix machinery, three algebras.
//!
//! The paper's future work calls for "custom semirings such as Min-Plus";
//! the generic comparator library already supports them, so this example
//! runs (1) Boolean reachability on `spbla-core`, (2) min-plus
//! Bellman–Ford, and (3) plus-times path counting on `spbla-generic`,
//! over one road-network-like graph.
//!
//! Run: `cargo run -p spbla-examples --bin shortest_paths`

use spbla_core::{Instance, Matrix};
use spbla_generic::spmv::min_plus_sssp;
use spbla_generic::{spgemm, CsrMatrix, MinPlusU32, PlusTimesU64};
use spbla_graph::closure::closure_delta;

fn main() {
    // A small weighted road network: (from, to, minutes).
    let roads: &[(u32, u32, u32)] = &[
        (0, 1, 4),
        (0, 2, 2),
        (1, 3, 5),
        (2, 1, 1),
        (2, 3, 8),
        (3, 4, 3),
        (1, 4, 11),
    ];
    let n = 5u32;

    // 1. Boolean reachability (structure only).
    let inst = Instance::cuda_sim();
    let pattern: Vec<(u32, u32)> = roads.iter().map(|&(u, v, _)| (u, v)).collect();
    let adj = Matrix::from_pairs(&inst, n, n, &pattern).expect("adjacency");
    let closure = closure_delta(&adj).expect("closure");
    println!("reachable pairs (Boolean semiring): {:?}", closure.read());

    // 2. Min-plus shortest paths.
    let weighted = CsrMatrix::<MinPlusU32>::from_triples(n, n, roads);
    let dist = min_plus_sssp(&weighted, 0);
    println!("shortest minutes from 0 (min-plus): {dist:?}");
    assert_eq!(dist[4], 11); // 0→2(2)→1(1)→3(5)→4(3)

    // 3. Path counting over (+,×).
    let ones: Vec<(u32, u32, u64)> = roads.iter().map(|&(u, v, _)| (u, v, 1)).collect();
    let counted = CsrMatrix::<PlusTimesU64>::from_triples(n, n, &ones);
    let two_hop = spgemm::mxm(&counted, &counted);
    let three_hop = spgemm::mxm(&two_hop, &counted);
    println!(
        "number of 2-hop routes 0→3: {}, 3-hop routes 0→4: {}",
        two_hop.get(0, 3),
        three_hop.get(0, 4)
    );
    println!("shortest_paths: done");
}
