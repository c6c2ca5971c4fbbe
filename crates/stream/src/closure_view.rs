//! Incrementally maintained reflexive-transitive closure.
//!
//! The view keeps `R = A⁺ ∪ I` — the *reflexive* closure of an
//! adjacency matrix `A` — device-resident, and repairs it as edge
//! batches arrive. Reflexivity buys the insert path its one-shot
//! structure: with `R·R = R`, **insertions** `D` change the closure by
//! exactly `(R·D·R)⁺`, and every genuinely new pair in that set is a
//! chain through the frontier `F = (R·D·R) ∧ ¬R`, so the repair is
//! `R ← R ∪ F⁺` — two launches when the batch creates nothing new, a
//! short semi-naïve fixpoint over the (small) frontier when it does.
//! When the frontier exceeds a configurable fraction of `R`, the view
//! abandons the incremental path and recomputes from scratch — a
//! big-enough batch makes recompute the cheaper schedule.
//!
//! A batch with any **deletion** recomputes once from the updated
//! adjacency: finding which pairs lost their last derivation (DRed's
//! over-delete and rederive) measured slower and larger than the
//! recompute it often fell back to anyway (EXPERIMENTS.md, lever
//! verdicts).

use spbla_core::{Pair, Result};
use spbla_multidev::{DeviceGrid, DistMatrix};

/// How the view reacts to an update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintainMode {
    /// Semi-naïve frontier restart for insert-only batches with
    /// automatic fallback, one recompute for a batch that deletes
    /// (default).
    #[default]
    Incremental,
    /// Recompute the closure from the updated adjacency every batch
    /// (the ablation baseline).
    Recompute,
}

/// Maintenance tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MaintainConfig {
    /// Maintenance strategy.
    pub mode: MaintainMode,
    /// Incremental-path escape hatch: when the insert frontier grows
    /// past `fallback_fraction · nnz(R)`, fall back to a full recompute
    /// for that batch.
    pub fallback_fraction: f64,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig {
            mode: MaintainMode::Incremental,
            fallback_fraction: 0.25,
        }
    }
}

/// Counters describing how batches were absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Batches applied.
    pub batches: u64,
    /// Batches absorbed by the incremental insert path.
    pub incremental_inserts: u64,
    /// Incremental attempts abandoned for a full recompute because the
    /// touched frontier exceeded the threshold.
    pub fallbacks: u64,
    /// Full recomputes (mode, deleting batch, or fallback).
    pub recomputes: u64,
}

/// A reflexive-transitive-closure view over a device-resident
/// adjacency matrix, maintained under edge insert/delete batches.
#[derive(Debug)]
pub struct ClosureView {
    adjacency: DistMatrix,
    closure: DistMatrix,
    identity: DistMatrix,
    config: MaintainConfig,
    stats: MaintainStats,
}

impl ClosureView {
    /// Build the view over `n`×`n` adjacency `pairs`, computing the
    /// initial closure with the full schedule.
    pub fn new(
        grid: &DeviceGrid,
        n: u32,
        pairs: &[Pair],
        config: MaintainConfig,
    ) -> Result<ClosureView> {
        let adjacency = DistMatrix::from_pairs(grid, n, n, pairs)?;
        let identity = DistMatrix::identity(grid, n)?;
        let mut view = ClosureView {
            closure: identity.duplicate()?,
            adjacency,
            identity,
            config,
            stats: MaintainStats::default(),
        };
        view.recompute()?;
        view.stats = MaintainStats::default();
        Ok(view)
    }

    /// The maintained adjacency matrix.
    pub fn adjacency(&self) -> &DistMatrix {
        &self.adjacency
    }

    /// The maintained reflexive closure `R = A⁺ ∪ I`.
    pub fn closure(&self) -> &DistMatrix {
        &self.closure
    }

    /// Maintenance counters so far.
    pub fn stats(&self) -> MaintainStats {
        self.stats
    }

    /// Sorted host pairs of the reflexive closure.
    pub fn pairs(&self) -> Vec<Pair> {
        self.closure.gather().to_pairs()
    }

    /// FNV-1a checksum of the closure's sorted pairs — the currency of
    /// bit-identical equivalence checks across maintenance modes.
    pub fn checksum(&self) -> u64 {
        crate::checksum_pairs(&self.pairs())
    }

    /// Apply one batch of adjacency-level edge changes. `inserted` and
    /// `deleted` must be disjoint and *real* (inserted edges absent
    /// from, deleted edges present in, the current adjacency) — exactly
    /// what [`crate::AppliedBatch`] reports for the label union.
    pub fn apply(&mut self, inserted: &[Pair], deleted: &[Pair]) -> Result<()> {
        self.stats.batches += 1;
        let recompute = self.config.mode == MaintainMode::Recompute || !deleted.is_empty();
        if !recompute && inserted.is_empty() {
            return Ok(());
        }
        self.adjacency = self.adjacency.apply_updates(inserted, deleted)?;
        if recompute {
            self.recompute()
        } else {
            self.insert_pass(inserted)
        }
    }

    /// Full rebuild: `R = A⁺ ∪ I` from the current adjacency.
    fn recompute(&mut self) -> Result<()> {
        self.stats.recomputes += 1;
        let plus = self.adjacency.closure_delta()?;
        self.closure = plus.ewise_add(&self.identity)?;
        Ok(())
    }

    /// Semi-naïve restart from the new-edge frontier.
    fn insert_pass(&mut self, inserted: &[Pair]) -> Result<()> {
        let grid = self.closure.grid().clone();
        let (n, _) = self.closure.shape();
        let d = DistMatrix::from_pairs(&grid, n, n, inserted)?;
        // F = (R·D·R) ∧ ¬R: every closure pair the batch creates is a
        // chain of F edges (in-R hops collapse into their neighbours).
        // The fused kernel lands F in the closure in the same launch as
        // the masked product and reports its size for free — the old
        // compmask + `is_empty` probe + `ewise_add` trio is one call.
        let l = self.closure.mxm(&d)?;
        let step = self.closure.mxm_accum_compmask(&l, &self.closure, true)?;
        if step.fresh_nnz == 0 {
            // The new edges were already implied: 2 launches, done.
            self.stats.incremental_inserts += 1;
            return Ok(());
        }
        if self.exceeds_fallback(step.fresh_nnz) {
            self.stats.fallbacks += 1;
            return self.recompute();
        }
        let mut c = step.acc;
        // Single-edge batches skip the frontier fixpoint: with one new
        // edge `(u,v)`, `F = (R⁻¹u × vR) ∧ ¬R` and composing two F-pairs
        // `(a,b)·(b,d)` gives `a→u→v→b→u→v→d`, whose endpoints still lie
        // in `R⁻¹u × vR` — so F-chains never leave `F ∪ R`, and
        // `R' = R ∪ F` exactly. Multi-edge batches can chain *different*
        // new edges (`R·D·R·D·R` pairs) and need the fixpoint — run
        // semi-naïvely from the already-accumulated `R ∪ F` with F as
        // the delta (`R·F ∪ F·R ⊆ R ∪ F`, so right-appending the delta
        // reaches every F-chain).
        if inserted.len() > 1 {
            let mut delta = step.fresh.expect("fresh requested");
            loop {
                let round = c.mxm_accum_compmask(&c, &delta, true)?;
                if round.fresh_nnz == 0 {
                    break;
                }
                c = round.acc;
                delta = round.fresh.expect("fresh requested");
            }
        }
        self.closure = c;
        self.stats.incremental_inserts += 1;
        Ok(())
    }

    fn exceeds_fallback(&self, touched: usize) -> bool {
        let budget = self.config.fallback_fraction * self.closure.nnz() as f64;
        (touched as f64) > budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashSet;

    fn grid(n: usize) -> DeviceGrid {
        DeviceGrid::new(n)
    }

    /// Host oracle: reflexive-transitive closure by saturation.
    fn oracle(n: u32, edges: &FxHashSet<Pair>) -> Vec<Pair> {
        let mut reach: FxHashSet<Pair> = (0..n).map(|v| (v, v)).collect();
        reach.extend(edges.iter().copied());
        loop {
            let mut grew = false;
            let snapshot: Vec<Pair> = reach.iter().copied().collect();
            for &(a, b) in &snapshot {
                for &(c, d) in &snapshot {
                    if b == c && reach.insert((a, d)) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let mut out: Vec<Pair> = reach.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn check_against_oracle(view: &ClosureView, n: u32, edges: &FxHashSet<Pair>) {
        assert_eq!(view.pairs(), oracle(n, edges));
        let mut adj: Vec<Pair> = edges.iter().copied().collect();
        adj.sort_unstable();
        assert_eq!(view.adjacency().gather().to_pairs(), adj);
    }

    #[test]
    fn insert_path_matches_oracle() {
        for devices in [1, 2] {
            let grid = grid(devices);
            let n = 7;
            let mut edges: FxHashSet<Pair> = [(0, 1), (1, 2), (4, 5)].into_iter().collect();
            let pairs: Vec<Pair> = {
                let mut p: Vec<Pair> = edges.iter().copied().collect();
                p.sort_unstable();
                p
            };
            // A large budget keeps the small test graph on the
            // incremental path (the bridging batch below touches a big
            // fraction of a tiny closure).
            let cfg = MaintainConfig {
                fallback_fraction: 10.0,
                ..MaintainConfig::default()
            };
            let mut view = ClosureView::new(&grid, n, &pairs, cfg).unwrap();
            check_against_oracle(&view, n, &edges);

            // A bridging edge creates many new closure pairs.
            view.apply(&[(2, 3), (3, 4)], &[]).unwrap();
            edges.extend([(2, 3), (3, 4)]);
            check_against_oracle(&view, n, &edges);
            // An already-implied edge creates nothing new.
            view.apply(&[(0, 2)], &[]).unwrap();
            edges.insert((0, 2));
            check_against_oracle(&view, n, &edges);
            let stats = view.stats();
            assert_eq!(stats.incremental_inserts, 2);
            assert_eq!(stats.recomputes, 0);
        }
    }

    #[test]
    fn delete_batch_recomputes_once_and_matches_oracle() {
        for devices in [1, 2] {
            let grid = grid(devices);
            let n = 6;
            // A cycle plus a chord: deleting one cycle edge must keep the
            // pairs still derivable the long way round.
            let mut edges: FxHashSet<Pair> = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
                .into_iter()
                .collect();
            let pairs: Vec<Pair> = {
                let mut p: Vec<Pair> = edges.iter().copied().collect();
                p.sort_unstable();
                p
            };
            let mut view = ClosureView::new(&grid, n, &pairs, MaintainConfig::default()).unwrap();

            view.apply(&[], &[(1, 2)]).unwrap();
            edges.remove(&(1, 2));
            check_against_oracle(&view, n, &edges);
            assert_eq!(view.stats().recomputes, 1);

            // Now cut the cycle for real.
            view.apply(&[], &[(3, 0)]).unwrap();
            edges.remove(&(3, 0));
            check_against_oracle(&view, n, &edges);
            let stats = view.stats();
            assert_eq!(stats.recomputes, 2);
            assert_eq!(stats.fallbacks, 0);
            assert_eq!(stats.incremental_inserts, 0);
        }
    }

    #[test]
    fn mixed_batch_and_self_loop_delete() {
        for devices in [1, 2] {
            let grid = grid(devices);
            let n = 5;
            let mut edges: FxHashSet<Pair> = [(0, 0), (0, 1), (1, 2)].into_iter().collect();
            let pairs: Vec<Pair> = {
                let mut p: Vec<Pair> = edges.iter().copied().collect();
                p.sort_unstable();
                p
            };
            let mut view = ClosureView::new(&grid, n, &pairs, MaintainConfig::default()).unwrap();
            // Delete a self-loop (the diagonal must survive — closure is
            // reflexive by definition) and insert elsewhere, same batch:
            // the whole batch lands in the adjacency, then one recompute.
            view.apply(&[(2, 3)], &[(0, 0)]).unwrap();
            edges.remove(&(0, 0));
            edges.insert((2, 3));
            check_against_oracle(&view, n, &edges);
            let stats = view.stats();
            assert_eq!(stats.recomputes, 1);
            assert_eq!(stats.incremental_inserts, 0);
        }
    }

    #[test]
    fn fallback_and_recompute_modes_agree_with_incremental() {
        let grid = grid(1);
        let n = 8;
        let base: Vec<Pair> = vec![(0, 1), (2, 3), (5, 6)];
        let batches: Vec<(Vec<Pair>, Vec<Pair>)> = vec![
            (vec![(1, 2), (3, 4)], vec![]),
            (vec![(4, 5)], vec![(2, 3)]),
            (vec![(6, 7), (7, 0)], vec![]),
        ];
        let mut results = Vec::new();
        for cfg in [
            MaintainConfig::default(),
            // Zero budget: every non-trivial batch falls back.
            MaintainConfig {
                fallback_fraction: 0.0,
                ..MaintainConfig::default()
            },
            MaintainConfig {
                mode: MaintainMode::Recompute,
                ..MaintainConfig::default()
            },
        ] {
            let mut view = ClosureView::new(&grid, n, &base, cfg).unwrap();
            let mut sums = Vec::new();
            for (ins, del) in &batches {
                view.apply(ins, del).unwrap();
                sums.push(view.checksum());
            }
            results.push((sums, view.stats()));
        }
        assert_eq!(results[0].0, results[1].0);
        assert_eq!(results[0].0, results[2].0);
        // The zero-budget run really exercised the fallback path…
        assert!(results[1].1.fallbacks > 0);
        // …and the recompute run never took an incremental path.
        assert_eq!(results[2].1.incremental_inserts, 0);
        assert_eq!(results[2].1.recomputes, batches.len() as u64);
    }

    #[test]
    fn implied_insert_is_cheaper_than_recompute() {
        // Separate grids so launch meters don't mix.
        let base: Vec<Pair> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        let n = 8;
        let mut spent = Vec::new();
        for mode in [MaintainMode::Incremental, MaintainMode::Recompute] {
            let grid = grid(1);
            let cfg = MaintainConfig {
                mode,
                ..MaintainConfig::default()
            };
            let mut view = ClosureView::new(&grid, n, &base, cfg).unwrap();
            let before = grid.total_stats().launches;
            // (0,2) is already implied: the incremental path stops after
            // the adjacency update, L, and the empty frontier test,
            // while recompute re-runs the whole fixpoint.
            view.apply(&[(0, 2)], &[]).unwrap();
            spent.push(grid.total_stats().launches - before);
        }
        assert!(
            spent[0] < spent[1],
            "implied insert: incremental {} vs recompute {} launches",
            spent[0],
            spent[1]
        );
    }
}
