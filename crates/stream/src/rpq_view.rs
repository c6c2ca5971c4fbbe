//! Incrementally maintained RPQ answer sets.
//!
//! An [`RpqView`] fixes one regular query (as an ε-free NFA) and keeps
//! the reflexive closure of the intersection machine
//! `M = Σ_s A_s ⊗ G_s` maintained under graph updates, delegating the
//! closure repair to [`ClosureView`] on the `k·n`-sized product space.
//!
//! Update translation is per label and exact: a graph edge `(u, ℓ, v)`
//! materialises the `M`-edge `(q·n+u, q'·n+v)` for every automaton
//! transition `(q, ℓ, q')`. Because several labels can share a
//! transition endpoint pair `(q, q')`, an `M`-edge may be multiply
//! derived — the view consults the *snapshots* (host-side, zero
//! launches) so an `M`-edge is inserted only when it was underivable
//! before, and deleted only when no label still derives it.
//!
//! Answers come from the reflexive product closure directly: pair
//! `(v, u)` is an answer iff some `(q₀·n+v, q_f·n+u)` is in the
//! closure. The reflexive diagonal lands only in `(q, q)` blocks, and a
//! start-equals-final block exists exactly when the NFA accepts ε — so
//! the ε special-casing of `RpqIndex::reachable_pairs` is subsumed by
//! the diagonal.

use rustc_hash::{FxHashMap, FxHashSet};

use spbla_core::{Pair, Result, SpblaError};
use spbla_lang::{Nfa, Symbol};
use spbla_multidev::DeviceGrid;

use crate::{AppliedBatch, ClosureView, GraphSnapshot, MaintainConfig, MaintainStats};

/// An incrementally maintained answer set for one RPQ over a
/// [`crate::VersionedGraph`]'s update stream.
#[derive(Debug)]
pub struct RpqView {
    k: u32,
    n: u32,
    starts: Vec<u32>,
    finals: Vec<u32>,
    /// Per symbol: the automaton transitions carrying it.
    transitions: FxHashMap<Symbol, Vec<(u32, u32)>>,
    /// Per transition endpoint pair `(q, q')`: every symbol with such a
    /// transition — the derivation alternatives of one `M`-edge family.
    pair_symbols: FxHashMap<(u32, u32), Vec<Symbol>>,
    view: ClosureView,
}

impl RpqView {
    /// Build the view for `nfa` over the graph version in `snapshot`.
    pub fn new(
        grid: &DeviceGrid,
        nfa: &Nfa,
        snapshot: &GraphSnapshot,
        config: MaintainConfig,
    ) -> Result<RpqView> {
        let k = nfa.n_states();
        let n = snapshot.n_vertices();
        let side = u64::from(k) * u64::from(n);
        if k == 0 || n == 0 || side > u64::from(u32::MAX) {
            return Err(SpblaError::InvalidDimension(format!(
                "product machine side {k}·{n} out of range"
            )));
        }

        let transitions = nfa.transitions_by_symbol();
        let mut pair_symbols: FxHashMap<(u32, u32), Vec<Symbol>> = FxHashMap::default();
        for (&sym, edges) in &transitions {
            for &qq in edges {
                pair_symbols.entry(qq).or_default().push(sym);
            }
        }

        // M-pairs of the base version.
        let mut m_pairs: FxHashSet<Pair> = FxHashSet::default();
        for (&sym, edges) in &transitions {
            if let Some(csr) = snapshot.label_host(sym) {
                for (u, v) in csr.iter() {
                    for &(q, q2) in edges {
                        m_pairs.insert((q * n + u, q2 * n + v));
                    }
                }
            }
        }
        let mut m_pairs: Vec<Pair> = m_pairs.into_iter().collect();
        m_pairs.sort_unstable();

        Ok(RpqView {
            k,
            n,
            starts: nfa.start_states().to_vec(),
            finals: nfa.final_states().to_vec(),
            transitions,
            pair_symbols,
            view: ClosureView::new(grid, side as u32, &m_pairs, config)?,
        })
    }

    /// Automaton state count (the Kronecker factor size).
    pub fn automaton_states(&self) -> u32 {
        self.k
    }

    /// Maintenance counters of the underlying closure view.
    pub fn stats(&self) -> MaintainStats {
        self.view.stats()
    }

    /// Absorb one applied batch. `prev` must be the snapshot the batch
    /// was applied *to* (version `applied.version - 1`); the post-state
    /// is read from `applied.snapshot`.
    pub fn apply(&mut self, prev: &GraphSnapshot, applied: &AppliedBatch) -> Result<()> {
        let next = &applied.snapshot;
        let n = self.n;
        let mut m_ins: FxHashSet<Pair> = FxHashSet::default();
        let mut m_del: FxHashSet<Pair> = FxHashSet::default();

        for (label, real_ins, real_del) in &applied.label_deltas {
            let Some(edges) = self.transitions.get(label) else {
                continue; // label not in the query: M unaffected
            };
            for &(q, q2) in edges {
                let alternatives = &self.pair_symbols[&(q, q2)];
                for &(u, v) in real_ins {
                    // New M-edge only if NO label derived it before.
                    let derived_before = alternatives.iter().any(|&sym| prev.has_edge(u, sym, v));
                    if !derived_before {
                        m_ins.insert((q * n + u, q2 * n + v));
                    }
                }
                for &(u, v) in real_del {
                    // M-edge gone only if NO label still derives it.
                    let derived_after = alternatives.iter().any(|&sym| next.has_edge(u, sym, v));
                    if !derived_after {
                        m_del.insert((q * n + u, q2 * n + v));
                    }
                }
            }
        }

        if m_ins.is_empty() && m_del.is_empty() {
            return Ok(());
        }
        let mut ins: Vec<Pair> = m_ins.into_iter().collect();
        let mut del: Vec<Pair> = m_del.into_iter().collect();
        ins.sort_unstable();
        del.sort_unstable();
        self.view.apply(&ins, &del)
    }

    /// All reachable pairs `(v, u)` of the query at the maintained
    /// version, sorted — semantics identical to
    /// `RpqIndex::reachable_pairs`.
    pub fn pairs(&self) -> Vec<Pair> {
        let n = self.n;
        let closure = self.view.closure().gather();
        let mut out: Vec<Pair> = Vec::new();
        for &q0 in &self.starts {
            for &qf in &self.finals {
                let (lo, hi) = (q0 * n, q0 * n + n);
                for row in lo..hi {
                    for &col in closure.row(row) {
                        if col >= qf * n && col < qf * n + n {
                            out.push((row - lo, col - qf * n));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// FNV-1a checksum of the sorted answer pairs.
    pub fn checksum(&self) -> u64 {
        crate::checksum_pairs(&self.pairs())
    }

    /// Vertices reachable from `source` under the query, at the
    /// maintained version — semantics identical to re-running the
    /// single-source query from scratch.
    ///
    /// This is the streaming re-evaluation path: the insert/delete
    /// frontier seeded from the changed edges already repaired the
    /// product closure in [`RpqView::apply`], so answering is a
    /// host-side row extraction over the maintained closure — zero
    /// kernel launches, versus the full fixpoint a fresh re-query pays.
    pub fn reachable_from(&self, source: u32) -> Vec<u32> {
        let n = self.n;
        if source >= n {
            return Vec::new();
        }
        let closure = self.view.closure().gather();
        let mut out: Vec<u32> = Vec::new();
        for &q0 in &self.starts {
            let row = q0 * n + source;
            for &col in closure.row(row) {
                for &qf in &self.finals {
                    if col >= qf * n && col < qf * n + n {
                        out.push(col - qf * n);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UpdateBatch, VersionedGraph};
    use spbla_core::Instance;
    use spbla_graph::{LabeledGraph, RpqIndex};
    use spbla_lang::glushkov::glushkov;
    use spbla_lang::{Regex, SymbolTable};

    fn grid(n: usize) -> DeviceGrid {
        DeviceGrid::new(n)
    }

    /// Oracle: rebuild an RpqIndex from scratch at the current version.
    fn oracle(graph: &LabeledGraph, nfa: &spbla_lang::Nfa) -> Vec<Pair> {
        RpqIndex::build_from_nfa(graph, nfa, &Instance::cuda_sim())
            .unwrap()
            .reachable_pairs()
            .unwrap()
    }

    #[test]
    fn maintained_answers_track_rebuilds() {
        for devices in [1, 2] {
            let grid = grid(devices);
            let mut t = SymbolTable::new();
            let a = t.intern("a");
            let b = t.intern("b");
            let g = LabeledGraph::from_triples(4, [(0, a, 1), (1, b, 2), (1, a, 3)]);
            let regex = Regex::parse("a . b*", &mut t).unwrap();
            let nfa = glushkov(&regex);

            let store = VersionedGraph::new(&grid, &g).unwrap();
            let cfg = MaintainConfig {
                fallback_fraction: 10.0,
                ..MaintainConfig::default()
            };
            let mut view = RpqView::new(&grid, &nfa, &store.pin(), cfg).unwrap();
            assert_eq!(view.pairs(), oracle(&g, &nfa));

            let steps: Vec<UpdateBatch> = {
                let mut s = Vec::new();
                let mut b1 = UpdateBatch::new();
                b1.insert(2, b, 3).insert(3, a, 0);
                s.push(b1);
                let mut b2 = UpdateBatch::new();
                b2.delete(1, b, 2).insert(2, a, 1);
                s.push(b2);
                let mut b3 = UpdateBatch::new();
                b3.delete(0, a, 1);
                s.push(b3);
                s
            };
            for batch in steps {
                let prev = store.pin();
                let applied = store.apply(&batch).unwrap();
                view.apply(&prev, &applied).unwrap();
                let truth = oracle(&applied.snapshot.to_labeled_graph(), &nfa);
                assert_eq!(view.pairs(), truth, "devices={devices}");
            }
            // The insert-only batch stays incremental; each of the two
            // deleting batches recomputes once.
            assert_eq!(view.stats().recomputes, 2);
        }
    }

    #[test]
    fn epsilon_acceptance_comes_from_the_diagonal() {
        let grid = grid(1);
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let g = LabeledGraph::from_triples(3, [(0, a, 1)]);
        let regex = Regex::parse("a*", &mut t).unwrap();
        let nfa = glushkov(&regex);
        assert!(nfa.accepts_epsilon());

        let store = VersionedGraph::new(&grid, &g).unwrap();
        let view = RpqView::new(&grid, &nfa, &store.pin(), MaintainConfig::default()).unwrap();
        let pairs = view.pairs();
        for v in 0..3 {
            assert!(pairs.contains(&(v, v)), "missing ε pair ({v},{v})");
        }
        assert_eq!(pairs, oracle(&g, &nfa));
    }

    #[test]
    fn shared_transition_pairs_disambiguate_deletes() {
        let grid = grid(1);
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        // Query (a | b): one transition endpoint pair carries two labels.
        let regex = Regex::parse("a | b", &mut t).unwrap();
        let nfa = glushkov(&regex);
        // Edge (0,1) under both labels.
        let g = LabeledGraph::from_triples(3, [(0, a, 1), (0, b, 1)]);
        let store = VersionedGraph::new(&grid, &g).unwrap();
        let cfg = MaintainConfig {
            fallback_fraction: 10.0,
            ..MaintainConfig::default()
        };
        let mut view = RpqView::new(&grid, &nfa, &store.pin(), cfg).unwrap();
        assert!(view.pairs().contains(&(0, 1)));

        // Deleting the `a` copy must NOT drop the answer: `b` derives it.
        let prev = store.pin();
        let mut batch = UpdateBatch::new();
        batch.delete(0, a, 1);
        let applied = store.apply(&batch).unwrap();
        view.apply(&prev, &applied).unwrap();
        assert!(view.pairs().contains(&(0, 1)));

        // Deleting the `b` copy too drops it.
        let prev = store.pin();
        let mut batch = UpdateBatch::new();
        batch.delete(0, b, 1);
        let applied = store.apply(&batch).unwrap();
        view.apply(&prev, &applied).unwrap();
        assert!(!view.pairs().contains(&(0, 1)));
        assert_eq!(
            view.pairs(),
            oracle(&applied.snapshot.to_labeled_graph(), &nfa)
        );
    }

    #[test]
    fn reachable_from_agrees_with_pairs() {
        let grid = grid(2);
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let g = LabeledGraph::from_triples(5, [(0, a, 1), (1, b, 2), (2, b, 3), (1, a, 4)]);
        let regex = Regex::parse("a . b*", &mut t).unwrap();
        let nfa = glushkov(&regex);
        let store = VersionedGraph::new(&grid, &g).unwrap();
        let mut view = RpqView::new(&grid, &nfa, &store.pin(), MaintainConfig::default()).unwrap();
        let prev = store.pin();
        let mut batch = UpdateBatch::new();
        batch.insert(3, b, 0).delete(1, a, 4);
        let applied = store.apply(&batch).unwrap();
        view.apply(&prev, &applied).unwrap();
        let pairs = view.pairs();
        for source in 0..6 {
            let want: Vec<u32> = pairs
                .iter()
                .filter(|&&(u, _)| u == source)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(view.reachable_from(source), want, "source {source}");
        }
    }

    #[test]
    fn oversized_product_is_rejected() {
        let grid = grid(1);
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let g = LabeledGraph::from_triples(3, [(0, a, 1)]);
        let store = VersionedGraph::new(&grid, &g).unwrap();
        let nfa = Nfa::new(u32::MAX / 2, vec![0], vec![1], vec![(0, a, 1)]);
        assert!(matches!(
            RpqView::new(&grid, &nfa, &store.pin(), MaintainConfig::default()),
            Err(SpblaError::InvalidDimension(_))
        ));
    }
}
