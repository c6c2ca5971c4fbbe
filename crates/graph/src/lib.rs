//! # spbla-graph — language-constrained path querying on SPbLA
//!
//! The application layer whose experiments form the paper's evaluation:
//!
//! * [`graph`] — edge-labeled graphs as one Boolean adjacency matrix per
//!   label;
//! * [`closure`] — transitive closure: the semi-naïve production
//!   schedule, the *incremental* closure the paper identifies as the
//!   CFPQ bottleneck, and the naive squaring oracle;
//! * [`rpq`] — regular path querying: Glushkov automaton ⊗ graph
//!   (Kronecker product), closure, reachability index, path extraction;
//! * [`cfpq::tensor`] — the `Tns` algorithm: RSM ⊗ graph fixpoint with
//!   all-paths index;
//! * [`cfpq::azimov`] — the `Mtx` baseline: CNF matrix fixpoint with
//!   single-path extraction;
//! * [`cfpq::oracle`] — worklist graph-CYK, the correctness oracle;
//! * [`bfs`] — matrix BFS, a library showcase used by the examples.

pub mod bfs;
pub mod cfpq;
pub mod closure;
pub mod graph;
pub mod paths;
pub mod rpq;
pub mod rpq_bfs;
pub mod rpq_derivative;

pub use graph::LabeledGraph;
pub use paths::PathEdge;
pub use rpq::{RpqIndex, RpqOptions};
