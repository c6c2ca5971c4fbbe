//! Derivative-based RPQ evaluation — the competing style the paper's
//! related work cites (Nolé & Sartiani's Pregel evaluator): propagate
//! `(source, residual-regex)` facts along edges, taking Brzozowski
//! derivatives, instead of building a matrix index. Serves as an
//! independent baseline for correctness tests (index-based vs
//! automaton-free evaluation).

use rustc_hash::{FxHashMap, FxHashSet};

use spbla_lang::derivative::derivative;
use spbla_lang::{Regex, Symbol};

use crate::graph::LabeledGraph;

/// Interned residual-regex states discovered during evaluation.
struct RegexSpace {
    states: Vec<Regex>,
    ids: FxHashMap<Regex, u32>,
    /// Memoised transitions `(state, symbol) → state` (`None` = ∅).
    delta: FxHashMap<(u32, Symbol), Option<u32>>,
}

impl RegexSpace {
    fn new(start: Regex) -> (Self, u32) {
        let mut space = RegexSpace {
            states: Vec::new(),
            ids: FxHashMap::default(),
            delta: FxHashMap::default(),
        };
        let id = space.intern(start);
        (space, id)
    }

    fn intern(&mut self, r: Regex) -> u32 {
        if let Some(&id) = self.ids.get(&r) {
            return id;
        }
        let id = self.states.len() as u32;
        self.ids.insert(r.clone(), id);
        self.states.push(r);
        id
    }

    fn step(&mut self, state: u32, sym: Symbol) -> Option<u32> {
        if let Some(&cached) = self.delta.get(&(state, sym)) {
            return cached;
        }
        let d = derivative(&self.states[state as usize], sym);
        let result = if d == Regex::Empty {
            None
        } else {
            Some(self.intern(d))
        };
        self.delta.insert((state, sym), result);
        result
    }

    fn nullable(&self, state: u32) -> bool {
        self.states[state as usize].nullable()
    }
}

/// All `(u, v)` pairs connected by a word of `regex`'s language
/// (ε contributes the diagonal) — evaluated by derivative propagation,
/// no matrices involved.
pub fn rpq_by_derivatives(graph: &LabeledGraph, regex: &Regex) -> Vec<(u32, u32)> {
    let (mut space, start) = RegexSpace::new(regex.clone());
    let labels = graph.labels();
    let mut result: FxHashSet<(u32, u32)> = FxHashSet::default();
    if regex.nullable() {
        for v in 0..graph.n_vertices() {
            result.insert((v, v));
        }
    }

    // Pre-group edges by source for O(out-degree) expansion.
    let mut out_edges: FxHashMap<u32, Vec<(Symbol, u32)>> = FxHashMap::default();
    for &l in &labels {
        for &(u, v) in graph.edges_of(l) {
            out_edges.entry(u).or_default().push((l, v));
        }
    }

    for src in 0..graph.n_vertices() {
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default(); // (state, vertex)
        let mut stack: Vec<(u32, u32)> = vec![(start, src)];
        seen.insert((start, src));
        while let Some((state, v)) = stack.pop() {
            let Some(edges) = out_edges.get(&v) else {
                continue;
            };
            for &(sym, to) in edges.clone().iter() {
                if let Some(next) = space.step(state, sym) {
                    if seen.insert((next, to)) {
                        if space.nullable(next) {
                            result.insert((src, to));
                        }
                        stack.push((next, to));
                    } else if space.nullable(next) {
                        result.insert((src, to));
                    }
                }
            }
        }
    }

    let mut out: Vec<(u32, u32)> = result.into_iter().collect();
    out.sort_unstable();
    out
}

/// Number of distinct residual regexes materialised while evaluating —
/// the derivative analogue of the automaton state count (reported by the
/// ablation bench).
pub fn derivative_state_count(graph: &LabeledGraph, regex: &Regex) -> usize {
    let (mut space, start) = RegexSpace::new(regex.clone());
    // Drive the same exploration, counting states.
    let labels = graph.labels();
    let mut seen_states: FxHashSet<u32> = FxHashSet::default();
    seen_states.insert(start);
    let mut frontier = vec![start];
    while let Some(s) = frontier.pop() {
        for &l in &labels {
            if let Some(next) = space.step(s, l) {
                if seen_states.insert(next) {
                    frontier.push(next);
                }
            }
        }
    }
    seen_states.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpq::{RpqIndex, RpqOptions};
    use spbla_core::Instance;
    use spbla_lang::SymbolTable;

    fn setup() -> (SymbolTable, LabeledGraph) {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let g =
            LabeledGraph::from_triples(5, [(0, a, 1), (1, b, 2), (2, b, 3), (1, a, 3), (3, a, 0)]);
        (t, g)
    }

    #[test]
    fn matches_matrix_index() {
        let (mut t, g) = setup();
        for q in ["a . b*", "(a | b)+", "a*", "a? . b*", "(a . b)+"] {
            let r = Regex::parse(q, &mut t).unwrap();
            let by_deriv = rpq_by_derivatives(&g, &r);
            let idx = RpqIndex::build(&g, &r, &Instance::cpu(), &RpqOptions::default()).unwrap();
            assert_eq!(by_deriv, idx.reachable_pairs().unwrap(), "query {q}");
        }
    }

    #[test]
    fn state_space_is_finite() {
        let (mut t, g) = setup();
        let r = Regex::parse("(a | b)* . a . (a | b)", &mut t).unwrap();
        let states = derivative_state_count(&g, &r);
        assert!(states >= 2);
        assert!(
            states < 64,
            "derivative space should stay small, got {states}"
        );
    }

    #[test]
    fn empty_graph_and_query() {
        let mut t = SymbolTable::new();
        let r = Regex::parse("a", &mut t).unwrap();
        let g = LabeledGraph::new(3);
        assert!(rpq_by_derivatives(&g, &r).is_empty());
        let eps = Regex::Epsilon;
        assert_eq!(rpq_by_derivatives(&g, &eps).len(), 3); // diagonal
    }
}
