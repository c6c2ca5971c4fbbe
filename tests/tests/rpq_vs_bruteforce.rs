//! RPQ correctness: the Kronecker-index answers must equal a brute-force
//! product-automaton BFS that shares no code with the matrix pipeline.

use proptest::prelude::*;
use std::collections::HashSet;

use spbla_core::{Backend, Instance, Matrix};
use spbla_graph::rpq::{rpq_pairs_from_mats, AutomatonKind, RpqIndex, RpqOptions};
use spbla_graph::LabeledGraph;
use spbla_integration::all_backends;
use spbla_lang::glushkov::glushkov;
use spbla_lang::{Nfa, Regex, Symbol, SymbolTable};

/// Brute force: for every source vertex, BFS over (automaton state,
/// vertex) pairs reachable through ≥ 1 edge; plus the ε diagonal. This
/// matches the matrix index semantics (transitive closure = paths of
/// length ≥ 1, ε handled separately).
fn brute_force_pairs(graph: &LabeledGraph, nfa: &Nfa) -> Vec<(u32, u32)> {
    let mut result: HashSet<(u32, u32)> = HashSet::new();
    if nfa.accepts_epsilon() {
        for v in 0..graph.n_vertices() {
            result.insert((v, v));
        }
    }
    for src in 0..graph.n_vertices() {
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let push_steps =
            |q: u32, v: u32, seen: &mut HashSet<(u32, u32)>, stack: &mut Vec<(u32, u32)>| {
                for &(f, sym, t) in nfa.transitions() {
                    if f != q {
                        continue;
                    }
                    for &(a, b) in graph.edges_of(sym) {
                        if a == v && seen.insert((t, b)) {
                            stack.push((t, b));
                        }
                    }
                }
            };
        for &q0 in nfa.start_states() {
            push_steps(q0, src, &mut seen, &mut stack);
        }
        while let Some((q, v)) = stack.pop() {
            push_steps(q, v, &mut seen, &mut stack);
        }
        for (q, v) in seen {
            if nfa.final_states().binary_search(&q).is_ok() {
                result.insert((src, v));
            }
        }
    }
    let mut out: Vec<(u32, u32)> = result.into_iter().collect();
    out.sort_unstable();
    out
}

fn small_regex(table: &mut SymbolTable, which: u8) -> Regex {
    let texts = [
        "a*",
        "a . b*",
        "(a | b)+",
        "a . b* . c",
        "a? . b*",
        "(a . b)+ | (c . a)+",
        "(a | b)* . c",
        "a . (b | c)",
    ];
    Regex::parse(texts[which as usize % texts.len()], table).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn rpq_matches_bruteforce(
        edges in proptest::collection::vec((0u32..8, 0u8..3, 0u32..8), 0..24),
        which in 0u8..8,
        automaton_kind in 0u8..4,
    ) {
        let mut table = SymbolTable::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|l| table.intern(l)).collect();
        let regex = small_regex(&mut table, which);
        let graph = LabeledGraph::from_triples(
            8,
            edges.iter().map(|&(u, l, v)| (u, syms[l as usize], v)),
        );
        let nfa = glushkov(&regex);
        let expect = brute_force_pairs(&graph, &nfa);
        let options = RpqOptions {
            automaton: match automaton_kind {
                0 => AutomatonKind::Glushkov,
                1 => AutomatonKind::Thompson,
                2 => AutomatonKind::DerivativeDfa,
                _ => AutomatonKind::MinimizedDfa,
            },
        };
        for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
            let idx = RpqIndex::build(&graph, &regex, &inst, &options).unwrap();
            prop_assert_eq!(
                idx.reachable_pairs().unwrap(),
                expect.clone(),
                "query {:?} backend {:?}",
                which,
                inst.backend()
            );
        }
    }

    /// The host-graph entry and the resident-matrices entry assemble
    /// the same index: pair-for-pair agreement on every backend and on
    /// blocked storage. The graph never has a `c` edge, so four of the
    /// eight regexes name a label the graph lacks (absent from the
    /// resident map, or present with an empty matrix), and `a*` and
    /// `a? . b*` accept ε.
    #[test]
    fn host_and_resident_entries_agree(
        edges in proptest::collection::vec((0u32..8, 0u8..2, 0u32..8), 0..24),
        which in 0u8..8,
        empty_c_resident in any::<bool>(),
    ) {
        let mut table = SymbolTable::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|l| table.intern(l)).collect();
        let regex = small_regex(&mut table, which);
        let graph = LabeledGraph::from_triples(
            8,
            edges.iter().map(|&(u, l, v)| (u, syms[l as usize], v)),
        );
        let nfa = glushkov(&regex);
        let mut instances = all_backends();
        instances.push(Instance::blocked(Backend::CudaSim));
        for inst in instances {
            let host = RpqIndex::build(&graph, &regex, &inst, &RpqOptions::default())
                .unwrap()
                .reachable_pairs()
                .unwrap();
            let mut mats = graph.matrices(&inst).unwrap();
            if empty_c_resident {
                mats.insert(syms[2], Matrix::zeros(&inst, 8, 8).unwrap());
            }
            let resident = rpq_pairs_from_mats(&mats, 8, &nfa, &inst).unwrap();
            prop_assert_eq!(
                resident,
                host,
                "query {:?} backend {:?} blocked {}",
                which,
                inst.backend(),
                inst.is_blocked()
            );
        }
    }

    #[test]
    fn extracted_paths_always_match_query(
        edges in proptest::collection::vec((0u32..6, 0u8..2, 0u32..6), 1..16),
        which in 0u8..8,
    ) {
        let mut table = SymbolTable::new();
        let syms: Vec<Symbol> = ["a", "b"].iter().map(|l| table.intern(l)).collect();
        let regex = small_regex(&mut table, which);
        let graph = LabeledGraph::from_triples(
            6,
            edges.iter().map(|&(u, l, v)| (u, syms[l as usize], v)),
        );
        let inst = Instance::cpu();
        let idx = RpqIndex::build(&graph, &regex, &inst, &RpqOptions::default()).unwrap();
        for (u, v) in idx.reachable_pairs().unwrap().into_iter().take(6) {
            for p in idx.extract_paths(u, v, 6, 4) {
                prop_assert!(spbla_graph::paths::is_well_formed(&p));
                let word = spbla_graph::paths::word_of(&p);
                prop_assert!(regex.matches(&word), "word {word:?} for query {which}");
            }
        }
    }
}
