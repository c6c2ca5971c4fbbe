//! Incrementally maintained SCC condensation over a graph stream.
//!
//! The planner's condensed-closure preprocessing wants the current
//! [`Condensation`] at every version without re-running Tarjan over the
//! whole vertex set per batch. The maintenance rule mirrors the
//! insert/delete asymmetry of the closure view:
//!
//! * **Inserts** can only *merge* components — the new partition is the
//!   SCC partition of the component graph, so
//!   [`Condensation::merge_with_edges`] refreshes the view with a
//!   Tarjan run over `n_components` nodes instead of `n_vertices`.
//!   Deletes of *inter*-component edges ride the same cheap path (they
//!   cannot split anything).
//! * **Deletes inside a component** may split it; there is no cheap
//!   certificate, so the view falls back to a full recompute — the
//!   escape hatch, counted in [`SccStats::recomputes`].
//!
//! Either path must land on a condensation whose [canonical
//! form](Condensation::canonical) is bit-identical to a fresh Tarjan
//! run — `report condense` gates on exactly that under a LUBM
//! insert/delete stream.

use rustc_hash::FxHashSet;

use spbla_core::Pair;
use spbla_prep::Condensation;

use crate::checksum_pairs;
use crate::closure_view::MaintainMode;

/// Maintenance counters for one [`SccView`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SccStats {
    /// Batches applied.
    pub batches: u64,
    /// Batches absorbed on the cheap component-graph path.
    pub incremental: u64,
    /// Components merged away by inserts, summed over batches.
    pub merges: u64,
    /// Full vertex-level recomputes (intra-component deletes, or the
    /// view pinned to [`MaintainMode::Recompute`]).
    pub recomputes: u64,
}

/// The current condensation of a streamed graph, maintained per batch.
#[derive(Debug)]
pub struct SccView {
    n_vertices: u32,
    edges: FxHashSet<Pair>,
    cond: Condensation,
    mode: MaintainMode,
    stats: SccStats,
}

impl SccView {
    /// Build the view at the stream's current adjacency.
    pub fn new(n_vertices: u32, pairs: &[Pair], mode: MaintainMode) -> SccView {
        let edges: FxHashSet<Pair> = pairs.iter().copied().collect();
        let cond = Condensation::build(n_vertices, pairs);
        SccView {
            n_vertices,
            edges,
            cond,
            mode,
            stats: SccStats::default(),
        }
    }

    /// The maintained condensation.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// Maintenance counters so far.
    pub fn stats(&self) -> SccStats {
        self.stats
    }

    /// Current edge count (label-union adjacency).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Apply one batch's adjacency delta (edges actually inserted /
    /// actually deleted, as reported by the versioned store).
    pub fn apply(&mut self, inserted: &[Pair], deleted: &[Pair]) {
        self.stats.batches += 1;
        // A delete inside a component can split it — detect against the
        // *pre-batch* partition, where every deleted edge's endpoints
        // still carry their old component ids.
        let splitting = deleted
            .iter()
            .any(|&(u, v)| self.cond.comp_of[u as usize] == self.cond.comp_of[v as usize]);
        for e in deleted {
            self.edges.remove(e);
        }
        for &e in inserted {
            self.edges.insert(e);
        }
        if self.mode == MaintainMode::Recompute || splitting {
            self.stats.recomputes += 1;
            self.recompute();
            return;
        }
        let edges: Vec<Pair> = self.sorted_edges();
        let before = self.cond.n_components();
        self.cond = self.cond.merge_with_edges(&edges);
        self.stats.incremental += 1;
        self.stats.merges += u64::from(before - self.cond.n_components());
    }

    /// Rebuild from scratch (vertex-level Tarjan).
    pub fn recompute(&mut self) {
        let edges = self.sorted_edges();
        self.cond = Condensation::build(self.n_vertices, &edges);
    }

    /// Checksum of the canonical form — the bit-identity witness used
    /// by `report condense` to compare incremental against recompute.
    pub fn checksum(&self) -> u64 {
        let (parts, dag) = self.cond.canonical();
        let membership: Vec<Pair> = parts
            .iter()
            .flat_map(|m| {
                let rep = m[0];
                m.iter().map(move |&v| (rep, v))
            })
            .collect();
        checksum_pairs(&membership) ^ checksum_pairs(&dag).rotate_left(17)
    }

    fn sorted_edges(&self) -> Vec<Pair> {
        let mut edges: Vec<Pair> = self.edges.iter().copied().collect();
        edges.sort_unstable();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_checksum(n: u32, edges: &FxHashSet<Pair>) -> u64 {
        let mut pairs: Vec<Pair> = edges.iter().copied().collect();
        pairs.sort_unstable();
        let mut view = SccView::new(n, &pairs, MaintainMode::Recompute);
        view.recompute();
        view.checksum()
    }

    #[test]
    fn inserts_merge_cheaply_and_match_recompute() {
        let n = 8u32;
        let mut view = SccView::new(n, &[(0, 1), (1, 2), (3, 4)], MaintainMode::Incremental);
        assert_eq!(view.condensation().n_components(), 8);
        // Close 0→1→2→0: merge into one SCC, no recompute.
        view.apply(&[(2, 0)], &[]);
        assert_eq!(view.condensation().n_components(), 6);
        assert_eq!(view.stats().recomputes, 0);
        assert_eq!(view.stats().incremental, 1);
        assert_eq!(view.stats().merges, 2);
        assert_eq!(view.checksum(), fresh_checksum(n, &view.edges));
    }

    #[test]
    fn inter_component_delete_stays_incremental() {
        let mut view = SccView::new(5, &[(0, 1), (1, 0), (1, 2)], MaintainMode::Incremental);
        view.apply(&[], &[(1, 2)]);
        assert_eq!(view.stats().recomputes, 0);
        assert_eq!(view.checksum(), fresh_checksum(5, &view.edges));
    }

    #[test]
    fn intra_component_delete_falls_back() {
        let mut view = SccView::new(3, &[(0, 1), (1, 0)], MaintainMode::Incremental);
        assert_eq!(view.condensation().n_components(), 2);
        view.apply(&[], &[(1, 0)]);
        assert_eq!(view.stats().recomputes, 1);
        assert_eq!(view.condensation().n_components(), 3);
        assert_eq!(view.checksum(), fresh_checksum(3, &view.edges));
    }

    #[test]
    fn mixed_stream_is_bit_identical_to_recompute_at_every_version() {
        let n = 16u32;
        let mut view = SccView::new(n, &[], MaintainMode::Incremental);
        let mut state = 7u64;
        let mut present: Vec<Pair> = Vec::new();
        for step in 0..60 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) % u64::from(n)) as u32;
            let v = ((state >> 13) % u64::from(n)) as u32;
            if step % 5 == 4 && !present.is_empty() {
                let victim = present.remove((state >> 7) as usize % present.len());
                view.apply(&[], &[victim]);
            } else if !view.edges.contains(&(u, v)) {
                present.push((u, v));
                view.apply(&[(u, v)], &[]);
            }
            assert_eq!(
                view.checksum(),
                fresh_checksum(n, &view.edges),
                "diverged at step {step}"
            );
        }
        assert!(view.stats().incremental > 0, "cheap path exercised");
    }
}
