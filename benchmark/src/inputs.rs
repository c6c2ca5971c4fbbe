//! Everything a workload derives from `--seed`: the random stream, the
//! vertex relabelling, the open-loop arrival schedule and the update
//! stream. The same seed always gives the same inputs; any `u64` is a
//! valid seed.

use spbla_graph::LabeledGraph;
use spbla_lang::Symbol;
use spbla_stream::{UpdateBatch, UpdateOp};

/// SplitMix64: a full-period 64-bit generator that is well mixed from
/// any seed (including 0), so nearby seeds give unrelated streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent uses of one
    /// seed (arrival schedule vs update stream vs relabelling).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Vertices are moved in aligned groups of this many, the tile edge of
/// the blocked storage format.
pub const RELABEL_GROUP: u32 = 64;

/// A seeded bijection on `0..n` that shuffles whole aligned groups of
/// [`RELABEL_GROUP`] vertices and keeps the order inside a group (a
/// short last group stays in place). The graph stays isomorphic, so
/// every exact count — nnz, fixpoint rounds, launches — is the same for
/// every seed and only layout-dependent time differs; tile contents are
/// preserved, so blocked storage keeps the locality the generator gave
/// it, while block-row shards of a device grid get a seeded mix of rows.
pub fn group_permutation(n: u32, rng: &mut Rng) -> Vec<u32> {
    let groups = n / RELABEL_GROUP;
    let mut order: Vec<u32> = (0..groups).collect();
    for i in (1..groups as usize).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    (0..n)
        .map(|v| match order.get((v / RELABEL_GROUP) as usize) {
            Some(&g) => g * RELABEL_GROUP + v % RELABEL_GROUP,
            None => v,
        })
        .collect()
}

/// A seeded bijection on `0..n` that shuffles the vertices inside each
/// segment `bounds[i]..bounds[i + 1]` and leaves everything outside the
/// segments in place. With the bounds at the block-row shard boundaries
/// of a device grid every vertex stays on its device, so per-device
/// memory is the same for every seed.
pub fn segment_permutation(n: u32, bounds: &[u32], rng: &mut Rng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n).collect();
    for pair in bounds.windows(2) {
        let segment = &mut perm[pair[0] as usize..pair[1] as usize];
        for i in (1..segment.len()).rev() {
            segment.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    perm
}

/// `graph` with every vertex `v` renamed `perm[v]`.
pub fn relabel(graph: &LabeledGraph, perm: &[u32]) -> LabeledGraph {
    let mut triples = Vec::with_capacity(graph.n_edges());
    for label in graph.labels() {
        for &(u, v) in graph.edges_of(label) {
            triples.push((perm[u as usize], label, perm[v as usize]));
        }
    }
    LabeledGraph::from_triples(graph.n_vertices(), triples)
}

/// Relabel a bare edge list the same way.
pub fn relabel_pairs(pairs: &[(u32, u32)], perm: &[u32]) -> Vec<(u32, u32)> {
    pairs
        .iter()
        .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
        .collect()
}

/// Relabel an update batch the same way.
pub fn relabel_batch(batch: &UpdateBatch, perm: &[u32]) -> UpdateBatch {
    let mut out = UpdateBatch::new();
    for op in batch.ops() {
        match *op {
            UpdateOp::Insert(u, l, v) => out.insert(perm[u as usize], l, perm[v as usize]),
            UpdateOp::Delete(u, l, v) => out.delete(perm[u as usize], l, perm[v as usize]),
        };
    }
    out
}

/// Due times, in seconds from the start of the phase, of `count`
/// Poisson arrivals at `rate` per second.
pub fn poisson_schedule(count: usize, rate: f64, rng: &mut Rng) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -rng.unit().ln() / rate;
            t
        })
        .collect()
}

/// The `stream_durable` update stream over `graph`: `count` batches,
/// every fifth a delete of two existing edges, the others an insert of
/// one to four absent edges between vertices at or above `first_vertex`
/// (below it sit the ontology hubs, which real streams do not rewire).
/// No batch is a no-op, so batch `i` always produces version `i + 1`.
/// Returns the batches and the graph after the last one.
pub fn update_stream(
    graph: &LabeledGraph,
    labels: &[Symbol],
    first_vertex: u32,
    count: usize,
    rng: &mut Rng,
) -> (Vec<UpdateBatch>, LabeledGraph) {
    let n = graph.n_vertices();
    let span = u64::from(n - first_vertex);
    let mut mirror = graph.clone();
    let mut batches = Vec::with_capacity(count);
    for i in 0..count {
        let mut batch = UpdateBatch::new();
        if i % 5 == 4 {
            let mut chosen: Vec<(u32, Symbol, u32)> = Vec::new();
            while chosen.len() < 2 {
                let label = labels[rng.below(labels.len() as u64) as usize];
                let edges = mirror.edges_of(label);
                if edges.is_empty() {
                    continue;
                }
                let (u, v) = edges[rng.below(edges.len() as u64) as usize];
                if !chosen.contains(&(u, label, v)) {
                    chosen.push((u, label, v));
                    batch.delete(u, label, v);
                }
            }
        } else {
            let want = 1 + rng.below(4) as usize;
            let mut chosen: Vec<(u32, Symbol, u32)> = Vec::new();
            while chosen.len() < want {
                let label = labels[rng.below(labels.len() as u64) as usize];
                let u = first_vertex + rng.below(span) as u32;
                let v = first_vertex + rng.below(span) as u32;
                if u != v
                    && !mirror.edges_of(label).contains(&(u, v))
                    && !chosen.contains(&(u, label, v))
                {
                    chosen.push((u, label, v));
                    batch.insert(u, label, v);
                }
            }
        }
        batch.apply_to(&mut mirror);
        batches.push(batch);
    }
    (batches, mirror)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spbla_lang::SymbolTable;

    fn toy_graph() -> (LabeledGraph, Vec<Symbol>) {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let b = table.intern("b");
        let triples = (0..199u32).flat_map(|v| [(v, a, v + 1), (v + 1, b, v / 2)]);
        (LabeledGraph::from_triples(200, triples), vec![a, b])
    }

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let s1 = poisson_schedule(500, 1000.0, &mut Rng::new(42, 1));
        let s2 = poisson_schedule(500, 1000.0, &mut Rng::new(42, 1));
        let s3 = poisson_schedule(500, 1000.0, &mut Rng::new(43, 1));
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert!(s1.windows(2).all(|w| w[0] < w[1]), "due times increase");
        // 500 arrivals at 1000/s take about half a second.
        assert!((0.35..0.65).contains(s1.last().unwrap()));
    }

    #[test]
    fn same_seed_same_update_stream_and_no_noops() {
        let (g, labels) = toy_graph();
        let (b1, end1) = update_stream(&g, &labels, 16, 40, &mut Rng::new(7, 2));
        let (b2, end2) = update_stream(&g, &labels, 16, 40, &mut Rng::new(7, 2));
        let (b3, _) = update_stream(&g, &labels, 16, 40, &mut Rng::new(8, 2));
        let ops = |bs: &[UpdateBatch]| -> Vec<Vec<UpdateOp>> {
            bs.iter().map(|b| b.ops().to_vec()).collect()
        };
        assert_eq!(ops(&b1), ops(&b2));
        assert_ne!(ops(&b1), ops(&b3));
        assert_eq!(end1.n_edges(), end2.n_edges());
        // Replaying on a fresh mirror changes the edge count by exactly
        // the batch size every time: nothing is a no-op.
        let mut mirror = g.clone();
        for (i, b) in b1.iter().enumerate() {
            let before = mirror.n_edges();
            b.apply_to(&mut mirror);
            let delta = mirror.n_edges() as i64 - before as i64;
            if i % 5 == 4 {
                assert_eq!(delta, -2);
            } else {
                assert_eq!(delta, b.len() as i64);
                assert!((1..=4).contains(&b.len()));
            }
        }
    }

    #[test]
    fn any_seed_is_accepted() {
        for seed in [0, 1, u64::MAX, 0xdead_beef] {
            let mut r = Rng::new(seed, 0);
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn group_permutation_is_a_tile_preserving_bijection() {
        let n = 64 * 5 + 17;
        let p = group_permutation(n, &mut Rng::new(3, 0));
        let mut seen = vec![false; n as usize];
        for (v, &w) in p.iter().enumerate() {
            assert!(!std::mem::replace(&mut seen[w as usize], true));
            assert_eq!(w % RELABEL_GROUP, v as u32 % RELABEL_GROUP);
        }
        // The short last group stays put.
        assert!((64 * 5..n).all(|v| p[v as usize] == v));
        let (g, _) = toy_graph();
        let q = group_permutation(200, &mut Rng::new(3, 0));
        let r = relabel(&g, &q);
        assert_eq!(r.n_edges(), g.n_edges());
    }

    #[test]
    fn segment_permutation_stays_inside_segments_and_relabels_batches() {
        let bounds = [16, 100, 200];
        let p = segment_permutation(200, &bounds, &mut Rng::new(9, 0));
        assert!((0..16).all(|v| p[v as usize] == v));
        assert!((16..100).all(|v| (16..100).contains(&p[v as usize])));
        assert!((100..200).all(|v| (100..200).contains(&p[v as usize])));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..200));
        assert_ne!(p, segment_permutation(200, &bounds, &mut Rng::new(10, 0)));
        // Relabelling the graph and the stream together commutes with
        // applying the stream.
        let (g, labels) = toy_graph();
        let (batches, end) = update_stream(&g, &labels, 16, 20, &mut Rng::new(1, 2));
        let mut moved = relabel(&g, &p);
        for b in &batches {
            relabel_batch(b, &p).apply_to(&mut moved);
        }
        let sorted_edges = |g: &LabeledGraph| {
            let mut all: Vec<_> = labels
                .iter()
                .flat_map(|&l| g.edges_of(l).iter().map(move |&e| (l, e)))
                .collect();
            all.sort_unstable();
            all
        };
        assert_eq!(sorted_edges(&moved), sorted_edges(&relabel(&end, &p)));
    }
}
