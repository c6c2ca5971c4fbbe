//! Regular path querying by Kronecker product.
//!
//! The unified algorithm of the paper, specialised to a regular query:
//! build the query's Glushkov automaton, form the intersection machine
//! `M = Σ_s A_s ⊗ G_s` with one Kronecker product per shared label, and
//! take the transitive closure of `M` — that closure *is* the index the
//! evaluation times (Figures 2 and 3). A pair `(v, u)` is an answer iff
//! some `(q₀·n + v, q_f·n + u)` is in the closure.

use std::borrow::Borrow;

use rustc_hash::FxHashMap;

use spbla_core::{CsrBool, Instance, Matrix, Result};
use spbla_lang::glushkov::glushkov;
use spbla_lang::{Nfa, Regex, Symbol};

use crate::closure::closure_delta;
use crate::graph::LabeledGraph;
use crate::paths::PathEdge;

/// Automaton construction used for the query's Kronecker factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AutomatonKind {
    /// Glushkov's position automaton (ε-free, `positions + 1` states) —
    /// the default, as in the provenance-aware RPQ work the paper cites.
    #[default]
    Glushkov,
    /// Thompson construction followed by ε-elimination (larger; kept for
    /// the automaton-size ablation).
    Thompson,
    /// Brzozowski derivative automaton (deterministic).
    DerivativeDfa,
    /// Subset construction + Hopcroft minimisation (smallest DFA).
    MinimizedDfa,
}

/// Options for [`RpqIndex::build`].
#[derive(Debug, Clone, Default)]
pub struct RpqOptions {
    /// Automaton construction (E10-adjacent ablation: the automaton's
    /// state count is the Kronecker factor size).
    pub automaton: AutomatonKind,
}

/// The index itself: `M = Σ_s A_s ⊗ G_s` over the given factor pairs
/// on a `k`-state automaton and `n` vertices, then the closure of `M`.
/// Graph factors are owned by the host-graph entry (uploaded per label,
/// dropped after their product) and borrowed by the resident entry.
fn product_closure<G: Borrow<Matrix>>(
    inst: &Instance,
    k: u32,
    n: u32,
    factors: impl IntoIterator<Item = Result<(CsrBool, G)>>,
) -> Result<Matrix> {
    let mut m = Matrix::zeros(inst, k * n, k * n)?;
    for factor in factors {
        let (a, g) = factor?;
        let a = Matrix::from_csr(inst, a)?;
        m = m.ewise_add(&a.kron(g.borrow())?)?;
    }
    closure_delta(&m)
}

/// Read the answer out of an index closure: the union of its
/// `(q₀, q_f)` blocks, plus every `(v, v)` under ε-acceptance.
fn answer_pairs(
    closure: &Matrix,
    n: u32,
    starts: &[u32],
    finals: &[u32],
    accepts_epsilon: bool,
) -> Result<Vec<(u32, u32)>> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &q0 in starts {
        for &qf in finals {
            out.extend(closure.submatrix(q0 * n, qf * n, n, n)?.read());
        }
    }
    if accepts_epsilon {
        out.extend((0..n).map(|v| (v, v)));
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// All-pairs RPQ over label matrices already resident on `inst`'s
/// device — the entry the engine catalog uses, so a cache-resident
/// graph is never re-uploaded per request. Same answers as
/// [`RpqIndex::reachable_pairs`] by construction: both run the same
/// assembly and read-out.
pub fn rpq_pairs_from_mats(
    mats: &FxHashMap<Symbol, Matrix>,
    n: u32,
    nfa: &Nfa,
    inst: &Instance,
) -> Result<Vec<(u32, u32)>> {
    let k = nfa.n_states();
    let factors = nfa
        .transitions_by_symbol()
        .into_iter()
        .filter_map(|(sym, edges)| {
            // Label absent from the graph or empty: A_s ⊗ 0 = 0.
            let g = mats.get(&sym).filter(|g| g.nnz() > 0)?;
            Some(CsrBool::from_pairs(k, k, &edges).map(|a| (a, g)))
        });
    let closure = product_closure(inst, k, n, factors)?;
    answer_pairs(
        &closure,
        n,
        nfa.start_states(),
        nfa.final_states(),
        nfa.accepts_epsilon(),
    )
}

/// The reachability index of one RPQ over one graph.
#[derive(Debug)]
pub struct RpqIndex {
    k: u32,
    n: u32,
    starts: Vec<u32>,
    finals: Vec<u32>,
    accepts_epsilon: bool,
    closure: Matrix,
    /// Per-symbol automaton matrices (host, for path extraction).
    automaton: FxHashMap<Symbol, CsrBool>,
    /// Per-symbol graph matrices (host, for path extraction).
    graph: FxHashMap<Symbol, CsrBool>,
}

impl RpqIndex {
    /// Build the index for `regex` over `graph` on `inst`.
    ///
    /// ```
    /// use spbla_core::Instance;
    /// use spbla_graph::{LabeledGraph, RpqIndex, RpqOptions};
    /// use spbla_lang::{Regex, SymbolTable};
    ///
    /// let mut table = SymbolTable::new();
    /// let follows = table.intern("follows");
    /// let graph = LabeledGraph::from_triples(3, [(0, follows, 1), (1, follows, 2)]);
    /// let query = Regex::parse("follows . follows", &mut table).unwrap();
    /// let idx = RpqIndex::build(&graph, &query, &Instance::cpu(), &RpqOptions::default()).unwrap();
    /// assert_eq!(idx.reachable_pairs().unwrap(), vec![(0, 2)]);
    /// ```
    pub fn build(
        graph: &LabeledGraph,
        regex: &Regex,
        inst: &Instance,
        options: &RpqOptions,
    ) -> Result<RpqIndex> {
        let nfa = match options.automaton {
            AutomatonKind::Glushkov => glushkov(regex),
            AutomatonKind::Thompson => spbla_lang::thompson::thompson(regex),
            AutomatonKind::DerivativeDfa => {
                spbla_lang::derivative::derivative_automaton(regex, &regex.symbols())
            }
            AutomatonKind::MinimizedDfa => {
                let dfa = spbla_lang::Dfa::from_nfa(&glushkov(regex));
                spbla_lang::minimize::minimize(&dfa)
            }
        };
        Self::build_from_nfa(graph, &nfa, inst)
    }

    /// Build from an explicit ε-free NFA.
    pub fn build_from_nfa(graph: &LabeledGraph, nfa: &Nfa, inst: &Instance) -> Result<RpqIndex> {
        let k = nfa.n_states();
        let n = graph.n_vertices();

        // Automaton and graph matrices per shared symbol.
        let mut automaton: FxHashMap<Symbol, CsrBool> = FxHashMap::default();
        let mut graph_mats: FxHashMap<Symbol, CsrBool> = FxHashMap::default();
        for (sym, edges) in nfa.transitions_by_symbol() {
            if graph.label_count(sym) == 0 {
                continue; // label absent from the graph: A_s ⊗ 0 = 0
            }
            let a = CsrBool::from_pairs(k, k, &edges).expect("automaton states in bounds");
            automaton.insert(sym, a);
            graph_mats.insert(sym, graph.label_csr(sym));
        }

        let factors = automaton.iter().map(|(sym, a)| {
            let g = Matrix::from_csr(inst, graph_mats[sym].clone())?;
            Ok((a.clone(), g))
        });
        let closure = product_closure(inst, k, n, factors)?;

        Ok(RpqIndex {
            k,
            n,
            starts: nfa.start_states().to_vec(),
            finals: nfa.final_states().to_vec(),
            accepts_epsilon: nfa.accepts_epsilon(),
            closure,
            automaton,
            graph: graph_mats,
        })
    }

    /// Automaton state count (the Kronecker factor size).
    pub fn automaton_states(&self) -> u32 {
        self.k
    }

    /// Index size: nnz of the closure matrix.
    pub fn index_nnz(&self) -> usize {
        self.closure.nnz()
    }

    /// All reachable pairs `(v, u)` (vertices connected by a word of the
    /// language). ε-acceptance contributes every `(v, v)`.
    pub fn reachable_pairs(&self) -> Result<Vec<(u32, u32)>> {
        answer_pairs(
            &self.closure,
            self.n,
            &self.starts,
            &self.finals,
            self.accepts_epsilon,
        )
    }

    /// Whether `u` reaches `v` under the query.
    pub fn is_reachable(&self, u: u32, v: u32) -> bool {
        if self.accepts_epsilon && u == v {
            return true;
        }
        self.starts.iter().any(|&q0| {
            self.finals
                .iter()
                .any(|&qf| self.closure.get(q0 * self.n + u, qf * self.n + v))
        })
    }

    /// Extract up to `max_count` matching paths from `u` to `v` of length
    /// ≤ `max_len`, by budgeted DFS over the intersection machine (see
    /// [`RpqIndex::extract_paths_budgeted`]).
    pub fn extract_paths(
        &self,
        u: u32,
        v: u32,
        max_len: usize,
        max_count: usize,
    ) -> Vec<Vec<PathEdge>> {
        self.extract_paths_budgeted(u, v, max_len, max_count, 200_000)
    }

    /// Like [`RpqIndex::extract_paths`], giving up after `budget`
    /// product-graph steps so a path-dense region cannot wander
    /// exponentially.
    pub fn extract_paths_budgeted(
        &self,
        u: u32,
        v: u32,
        max_len: usize,
        max_count: usize,
        budget: usize,
    ) -> Vec<Vec<PathEdge>> {
        let mut results = Vec::new();
        if self.accepts_epsilon && u == v && max_count > 0 {
            results.push(Vec::new());
        }
        let mut stack: Vec<PathEdge> = Vec::new();
        let mut steps = budget;
        for &q0 in &self.starts.clone() {
            self.dfs(
                q0,
                u,
                v,
                max_len,
                max_count,
                &mut steps,
                &mut stack,
                &mut results,
            );
            if results.len() >= max_count {
                break;
            }
        }
        results.truncate(max_count);
        results
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        q: u32,
        x: u32,
        target: u32,
        max_len: usize,
        max_count: usize,
        steps: &mut usize,
        stack: &mut Vec<PathEdge>,
        results: &mut Vec<Vec<PathEdge>>,
    ) {
        if results.len() >= max_count || stack.len() >= max_len || *steps == 0 {
            return;
        }
        *steps -= 1;
        for (&sym, a) in &self.automaton {
            let g = &self.graph[&sym];
            for &q2 in a.row(q) {
                for &x2 in g.row(x) {
                    if results.len() >= max_count || *steps == 0 {
                        return;
                    }
                    stack.push(PathEdge {
                        from: x,
                        label: sym,
                        to: x2,
                    });
                    if x2 == target && self.finals.binary_search(&q2).is_ok() {
                        results.push(stack.clone());
                    }
                    self.dfs(q2, x2, target, max_len, max_count, steps, stack, results);
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{is_well_formed, word_of};
    use spbla_lang::SymbolTable;

    fn setup() -> (SymbolTable, LabeledGraph) {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        // 0 -a-> 1 -b-> 2 -b-> 3, 1 -a-> 3
        let g = LabeledGraph::from_triples(4, [(0, a, 1), (1, b, 2), (2, b, 3), (1, a, 3)]);
        (t, g)
    }

    #[test]
    fn simple_query_all_backends() {
        let (mut t, g) = setup();
        let r = Regex::parse("a . b*", &mut t).unwrap();
        let mut per_backend = Vec::new();
        for inst in [Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()] {
            let idx = RpqIndex::build(&g, &r, &inst, &RpqOptions::default()).unwrap();
            per_backend.push(idx.reachable_pairs().unwrap());
        }
        assert_eq!(per_backend[0], per_backend[1]);
        assert_eq!(per_backend[0], per_backend[2]);
        // a.b*: 0→1 (a), 0→2 (ab), 0→3 (abb), 1→3 (a).
        assert_eq!(per_backend[0], vec![(0, 1), (0, 2), (0, 3), (1, 3)]);
    }

    #[test]
    fn epsilon_query_includes_diagonal() {
        let (mut t, g) = setup();
        let r = Regex::parse("a*", &mut t).unwrap();
        let idx = RpqIndex::build(&g, &r, &Instance::cpu(), &RpqOptions::default()).unwrap();
        let pairs = idx.reachable_pairs().unwrap();
        for v in 0..4 {
            assert!(pairs.contains(&(v, v)), "missing ({v},{v})");
        }
        assert!(pairs.contains(&(0, 3))); // a a via 1
        assert!(idx.is_reachable(0, 1));
        assert!(!idx.is_reachable(2, 1));
    }

    #[test]
    fn all_automaton_kinds_agree() {
        let (mut t, g) = setup();
        let inst = Instance::cpu();
        for q in ["a . b*", "(a | b)+", "a*", "a? . b*"] {
            let r = Regex::parse(q, &mut t).unwrap();
            let mut answers = Vec::new();
            let mut states = Vec::new();
            for kind in [
                AutomatonKind::Glushkov,
                AutomatonKind::Thompson,
                AutomatonKind::DerivativeDfa,
                AutomatonKind::MinimizedDfa,
            ] {
                let idx = RpqIndex::build(&g, &r, &inst, &RpqOptions { automaton: kind }).unwrap();
                states.push(idx.automaton_states());
                answers.push(idx.reachable_pairs().unwrap());
            }
            for a in &answers[1..] {
                assert_eq!(a, &answers[0], "query {q}");
            }
            // Size ordering: minimised <= Glushkov <= Thompson.
            assert!(
                states[3] <= states[0],
                "minimised bigger than Glushkov on {q}"
            );
            assert!(
                states[0] <= states[1],
                "Glushkov bigger than Thompson on {q}"
            );
        }
    }

    #[test]
    fn extracted_paths_match_query() {
        let (mut t, g) = setup();
        let r = Regex::parse("a . b*", &mut t).unwrap();
        let idx = RpqIndex::build(&g, &r, &Instance::cpu(), &RpqOptions::default()).unwrap();
        let paths = idx.extract_paths(0, 3, 10, 10);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(is_well_formed(p));
            assert_eq!(p.first().unwrap().from, 0);
            assert_eq!(p.last().unwrap().to, 3);
            assert!(r.matches(&word_of(p)), "word {:?}", word_of(p));
        }
    }

    #[test]
    fn absent_labels_yield_empty_index() {
        let (mut t, g) = setup();
        let r = Regex::parse("zzz", &mut t).unwrap();
        let idx = RpqIndex::build(&g, &r, &Instance::cpu(), &RpqOptions::default()).unwrap();
        assert!(idx.reachable_pairs().unwrap().is_empty());
        assert_eq!(idx.index_nnz(), 0);
    }
}
