//! Single-source RPQ by multi-frontier BFS over the product machine.
//!
//! Graph-database engines rarely need the all-pairs index: a query has a
//! bound source (or small source set). This engine keeps one sparse
//! Boolean [`Vector`] per automaton state and pushes frontiers with
//! `vxm` — linear in the touched edges, no Kronecker product, no
//! closure. Complements [`crate::rpq::RpqIndex`] the way `vxm`-BFS
//! complements all-pairs transitive closure.

use rustc_hash::FxHashMap;
use spbla_core::{Instance, Matrix, Result, Vector};
use spbla_lang::glushkov::glushkov;
use spbla_lang::{Nfa, Regex, Symbol};

use crate::graph::LabeledGraph;

/// Vertices reachable from any vertex in `sources` along a word of the
/// query language (ε makes every source an answer).
pub fn rpq_from_sources(
    graph: &LabeledGraph,
    regex: &Regex,
    sources: &[u32],
    inst: &Instance,
) -> Result<Vec<u32>> {
    let nfa = glushkov(regex);
    rpq_from_sources_nfa(graph, &nfa, sources, inst)
}

/// [`rpq_from_sources`] with an explicit ε-free NFA.
pub fn rpq_from_sources_nfa(
    graph: &LabeledGraph,
    nfa: &Nfa,
    sources: &[u32],
    inst: &Instance,
) -> Result<Vec<u32>> {
    let by_symbol = nfa.transitions_by_symbol();
    let mut mats: FxHashMap<Symbol, Matrix> = FxHashMap::default();
    for &sym in by_symbol.keys() {
        if graph.label_count(sym) > 0 {
            mats.insert(sym, graph.label_matrix(inst, sym)?);
        }
    }
    rpq_from_sources_mats(&mats, graph.n_vertices(), nfa, sources, inst)
}

/// [`rpq_from_sources_nfa`] over label matrices already resident on
/// `inst`'s device — the entry point the engine runs every
/// single-source request through. Frontier pushes go through
/// [`Matrix::frontier_step`], which picks push or pull per round from
/// the frontier's measured density.
pub fn rpq_from_sources_mats(
    mats: &FxHashMap<Symbol, Matrix>,
    n: u32,
    nfa: &Nfa,
    sources: &[u32],
    inst: &Instance,
) -> Result<Vec<u32>> {
    let k = nfa.n_states() as usize;
    let by_symbol = nfa.transitions_by_symbol();
    let matrices: Vec<(Symbol, &Matrix)> = by_symbol
        .keys()
        .filter_map(|&sym| mats.get(&sym).map(|m| (sym, m)))
        .collect();

    // visited[q] = vertices ever reached in automaton state q.
    let mut visited: Vec<Vector> = vec![Vector::zeros(inst, n); k];
    let mut frontier: Vec<Vector> = vec![Vector::zeros(inst, n); k];
    let src = Vector::from_indices(inst, n, sources)?;
    for &q0 in nfa.start_states() {
        visited[q0 as usize] = src.clone();
        frontier[q0 as usize] = src.clone();
    }

    let mut answers = Vector::zeros(inst, n);
    if nfa.accepts_epsilon() {
        answers = answers.ewise_add(&src)?;
    }

    loop {
        let mut next: Vec<Vector> = vec![Vector::zeros(inst, n); k];
        let mut any = false;
        for (sym, mat) in &matrices {
            for &(f, t) in &by_symbol[sym] {
                if frontier[f as usize].nnz() == 0 {
                    continue;
                }
                let pushed = mat.frontier_step(&frontier[f as usize])?;
                if pushed.nnz() > 0 {
                    next[t as usize] = next[t as usize].ewise_add(&pushed)?;
                }
            }
        }
        for q in 0..k {
            let fresh = next[q].difference(&visited[q])?;
            if fresh.nnz() > 0 {
                any = true;
                visited[q] = visited[q].ewise_add(&fresh)?;
                if nfa.final_states().binary_search(&(q as u32)).is_ok() {
                    answers = answers.ewise_add(&fresh)?;
                }
            }
            frontier[q] = fresh;
        }
        if !any {
            break;
        }
    }

    Ok(answers.indices().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpq::{RpqIndex, RpqOptions};
    use spbla_lang::SymbolTable;

    fn setup() -> (SymbolTable, LabeledGraph) {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let g = LabeledGraph::from_triples(
            6,
            [
                (0, a, 1),
                (1, b, 2),
                (2, b, 3),
                (1, a, 3),
                (3, a, 4),
                (5, b, 0),
            ],
        );
        (t, g)
    }

    #[test]
    fn agrees_with_all_pairs_index() {
        let (mut t, g) = setup();
        for q in ["a . b*", "(a | b)+", "a*", "a? . b*"] {
            let r = Regex::parse(q, &mut t).unwrap();
            for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
                let idx = RpqIndex::build(&g, &r, &inst, &RpqOptions::default()).unwrap();
                let all = idx.reachable_pairs().unwrap();
                for src in 0..g.n_vertices() {
                    let expect: Vec<u32> = all
                        .iter()
                        .filter(|&&(u, _)| u == src)
                        .map(|&(_, v)| v)
                        .collect();
                    let got = rpq_from_sources(&g, &r, &[src], &inst).unwrap();
                    assert_eq!(got, expect, "query {q} source {src}");
                }
            }
        }
    }

    #[test]
    fn multi_source_union() {
        let (mut t, g) = setup();
        let r = Regex::parse("a . b", &mut t).unwrap();
        let inst = Instance::cpu();
        let from0 = rpq_from_sources(&g, &r, &[0], &inst).unwrap();
        let from5 = rpq_from_sources(&g, &r, &[5], &inst).unwrap();
        let both = rpq_from_sources(&g, &r, &[0, 5], &inst).unwrap();
        let mut expect = [from0, from5].concat();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(both, expect);
    }

    #[test]
    fn empty_sources_and_cycles_terminate() {
        let (mut t, g) = setup();
        let r = Regex::parse("(a | b)*", &mut t).unwrap();
        let inst = Instance::cpu();
        assert!(rpq_from_sources(&g, &r, &[], &inst).unwrap().is_empty());
        // Star query on a graph with cycles must terminate.
        let reached = rpq_from_sources(&g, &r, &[5], &inst).unwrap();
        assert!(reached.contains(&5)); // ε
        assert!(reached.contains(&3));
    }
}
