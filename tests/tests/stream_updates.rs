//! Randomized update-stream equivalence: for random insert/delete batch
//! sequences — on random graphs and on LUBM — the incrementally
//! maintained closure and RPQ views must be bit-identical (checksummed)
//! to per-batch from-scratch recomputation at every version, on 1- and
//! 2-device grids. Maintenance-path coverage is steered through
//! `fallback_fraction`: a huge budget forces the semi-naïve insert
//! path proper, a zero budget forces the fallback escape hatch on every
//! non-trivial insert batch, and both must agree with the recompute
//! baseline version by version. A batch that deletes recomputes once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spbla_data::lubm::{lubm_like, LubmConfig};
use spbla_graph::LabeledGraph;
use spbla_lang::glushkov::glushkov;
use spbla_lang::{Nfa, Regex, Symbol, SymbolTable};
use spbla_multidev::DeviceGrid;
use spbla_stream::{GraphStream, MaintainConfig, MaintainMode, UpdateBatch};

/// Per-version (closure checksum, rpq checksum) trace of one replay.
fn replay(
    devices: usize,
    graph: &LabeledGraph,
    nfa: &Nfa,
    batches: &[UpdateBatch],
    config: MaintainConfig,
) -> (Vec<(u64, u64)>, spbla_stream::MaintainStats) {
    let grid = DeviceGrid::new(devices);
    let mut stream = GraphStream::new(&grid, graph).expect("store builds");
    stream.track_closure(config).expect("closure view builds");
    stream.track_rpq("q", nfa, config).expect("rpq view builds");
    let mut trace = Vec::with_capacity(batches.len());
    for batch in batches {
        stream.apply(batch.clone()).expect("batch applies");
        trace.push((
            stream.closure_view().expect("tracked").checksum(),
            stream.rpq_view("q").expect("tracked").checksum(),
        ));
    }
    (trace, stream.closure_view().expect("tracked").stats())
}

/// Random batch stream over `graph`'s vertex/label universe; deletes
/// target edges that exist at their version (tracked by a host mirror).
fn random_batches(
    graph: &LabeledGraph,
    labels: &[Symbol],
    count: usize,
    rng: &mut StdRng,
) -> Vec<UpdateBatch> {
    let n = graph.n_vertices();
    let mut mirror = graph.clone();
    let mut batches = Vec::with_capacity(count);
    for _ in 0..count {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1usize..=3) {
            let label = labels[rng.gen_range(0..labels.len())];
            let existing = mirror.edges_of(label);
            if !existing.is_empty() && rng.gen_bool(0.4) {
                let (u, v) = existing[rng.gen_range(0..existing.len())];
                batch.delete(u, label, v);
            } else {
                batch.insert(rng.gen_range(0..n), label, rng.gen_range(0..n));
            }
        }
        batch.apply_to(&mut mirror);
        batches.push(batch);
    }
    batches
}

fn configs() -> [(MaintainConfig, &'static str); 3] {
    [
        (
            // Huge budget: the incremental insert path proper, never
            // the fallback.
            MaintainConfig {
                mode: MaintainMode::Incremental,
                fallback_fraction: 10.0,
            },
            "incremental",
        ),
        (
            // Zero budget: every insert batch with a non-empty frontier
            // falls back to a full recompute.
            MaintainConfig {
                mode: MaintainMode::Incremental,
                fallback_fraction: 0.0,
            },
            "fallback",
        ),
        (
            MaintainConfig {
                mode: MaintainMode::Recompute,
                fallback_fraction: 0.25,
            },
            "recompute",
        ),
    ]
}

#[test]
fn random_streams_match_recompute_at_every_version() {
    for seed in [7u64, 21, 1984] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let b = table.intern("b");
        let labels = [a, b];

        let n = 14;
        let mut graph = LabeledGraph::new(n);
        for _ in 0..22 {
            let label = labels[rng.gen_range(0usize..2)];
            graph.add_edge(rng.gen_range(0..n), label, rng.gen_range(0..n));
        }
        let regex = Regex::parse("a . b*", &mut table).unwrap();
        let nfa = glushkov(&regex);
        let batches = random_batches(&graph, &labels, 12, &mut rng);

        for devices in [1, 2] {
            let runs: Vec<_> = configs()
                .iter()
                .map(|(cfg, name)| {
                    let (trace, stats) = replay(devices, &graph, &nfa, &batches, *cfg);
                    (trace, stats, *name)
                })
                .collect();
            let (baseline, _, _) = &runs[runs.len() - 1];
            for (trace, _, name) in &runs {
                assert_eq!(
                    trace, baseline,
                    "{name} diverged from recompute (seed {seed}, {devices} devices)"
                );
            }
            // The steering knobs really selected distinct paths.
            let forced = &runs[0].1;
            assert_eq!(forced.fallbacks, 0, "huge budget must never fall back");
            let escape = &runs[1].1;
            assert!(
                escape.fallbacks > 0,
                "zero budget must fall back on some batch (seed {seed})"
            );
            let recompute = &runs[2].1;
            assert_eq!(recompute.incremental_inserts, 0);
        }
    }
}

/// Host oracle: sorted pairs of the reflexive-transitive closure of
/// `graph`'s label union, by one DFS per source.
fn host_reflexive_closure(graph: &LabeledGraph, labels: &[Symbol]) -> Vec<(u32, u32)> {
    let n = graph.n_vertices();
    let mut succ = vec![Vec::new(); n as usize];
    for &label in labels {
        for &(u, v) in graph.edges_of(label) {
            succ[u as usize].push(v);
        }
    }
    let mut out = Vec::new();
    for source in 0..n {
        let mut seen = vec![false; n as usize];
        seen[source as usize] = true;
        let mut stack = vec![source];
        while let Some(u) = stack.pop() {
            for &v in &succ[u as usize] {
                if !std::mem::replace(&mut seen[v as usize], true) {
                    stack.push(v);
                }
            }
        }
        out.extend((0..n).filter(|&v| seen[v as usize]).map(|v| (source, v)));
    }
    out
}

#[test]
fn delete_batches_recompute_once_and_match_the_host_oracle() {
    // A delete-heavy stream on a dense-ish graph: every batch removes
    // an existing edge, so every batch is absorbed by exactly one
    // recompute — even under a budget that would keep any insert
    // frontier incremental — and lands on the host closure.
    let mut rng = StdRng::seed_from_u64(0xD12ED);
    let mut table = SymbolTable::new();
    let a = table.intern("a");
    let n = 10;
    let mut graph = LabeledGraph::new(n);
    for u in 0..n {
        for d in 1..=3 {
            graph.add_edge(u, a, (u + d) % n);
        }
    }
    let regex = Regex::parse("a . a*", &mut table).unwrap();
    let nfa = glushkov(&regex);

    let mut mirror = graph.clone();
    let mut batches = Vec::new();
    let mut oracle = Vec::new();
    for _ in 0..8 {
        let mut batch = UpdateBatch::new();
        let edges = mirror.edges_of(a);
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        batch.delete(u, a, v);
        batch.apply_to(&mut mirror);
        batches.push(batch);
        oracle.push(host_reflexive_closure(&mirror, &[a]));
    }

    for devices in [1, 2] {
        let forced = MaintainConfig {
            mode: MaintainMode::Incremental,
            fallback_fraction: 10.0,
        };
        let grid = DeviceGrid::new(devices);
        let mut stream = GraphStream::new(&grid, &graph).expect("store builds");
        stream.track_closure(forced).expect("closure view builds");
        for (i, batch) in batches.iter().enumerate() {
            stream.apply(batch.clone()).expect("batch applies");
            let view = stream.closure_view().expect("tracked");
            assert_eq!(view.pairs(), oracle[i], "version {i}, {devices} devices");
            assert_eq!(view.stats().recomputes, i as u64 + 1);
        }
        let stats = stream.closure_view().expect("tracked").stats();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.incremental_inserts, 0);

        // The RPQ view rides the same rule on the product space.
        let baseline = MaintainConfig {
            mode: MaintainMode::Recompute,
            fallback_fraction: 0.25,
        };
        let (inc, _) = replay(devices, &graph, &nfa, &batches, forced);
        let (rec, _) = replay(devices, &graph, &nfa, &batches, baseline);
        assert_eq!(inc, rec, "views diverged on {devices} devices");
    }
}

/// Satellite gate (ROADMAP item 1 remainder): re-answering a
/// single-source RPQ after a small update through the maintained view
/// — frontier seeded from the changed edges, answers extracted
/// host-side — must launch strictly fewer kernels than re-running the
/// full query from scratch, while agreeing answer-for-answer.
#[test]
fn seed_frontier_reanswer_launches_less_than_full_requery() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut table = SymbolTable::new();
    let a = table.intern("a");
    let b = table.intern("b");
    let labels = [a, b];
    let n = 14;
    let mut graph = LabeledGraph::new(n);
    for _ in 0..26 {
        let label = labels[rng.gen_range(0usize..2)];
        graph.add_edge(rng.gen_range(0..n), label, rng.gen_range(0..n));
    }
    let regex = Regex::parse("a . b*", &mut table).unwrap();
    let nfa = glushkov(&regex);

    // Maintained path: build once, then absorb one small batch and
    // re-answer every source.
    let grid = DeviceGrid::new(1);
    let mut stream = GraphStream::new(&grid, &graph).expect("store builds");
    stream
        .track_rpq(
            "q",
            &nfa,
            MaintainConfig {
                mode: MaintainMode::Incremental,
                fallback_fraction: 10.0,
            },
        )
        .expect("rpq view builds");
    let mut batch = UpdateBatch::new();
    batch.insert(rng.gen_range(0..n), a, rng.gen_range(0..n));
    let before = grid.total_stats().launches;
    stream.apply(batch.clone()).expect("batch applies");
    let view = stream.rpq_view("q").expect("tracked");
    let answers: Vec<Vec<u32>> = (0..n).map(|s| view.reachable_from(s)).collect();
    let incremental_launches = grid.total_stats().launches - before;

    // Full re-query at the same version, on a fresh device.
    let mut mirror = graph.clone();
    batch.apply_to(&mut mirror);
    let grid2 = DeviceGrid::new(1);
    let before2 = grid2.total_stats().launches;
    let index = spbla_graph::RpqIndex::build_from_nfa(&mirror, &nfa, grid2.instance(0))
        .expect("full re-query builds");
    let full_pairs = index.reachable_pairs().expect("pairs extract");
    let full_launches = grid2.total_stats().launches - before2;

    for (source, got) in answers.iter().enumerate() {
        let want: Vec<u32> = full_pairs
            .iter()
            .filter(|&&(u, _)| u == source as u32)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(got, &want, "source {source}");
    }
    assert!(
        incremental_launches < full_launches,
        "seed-frontier re-answer must beat the full re-query: \
         {incremental_launches} vs {full_launches} launches"
    );
}

#[test]
fn lubm_stream_matches_recompute_at_every_version() {
    let mut table = SymbolTable::new();
    let config = LubmConfig {
        departments: 1,
        faculty: 3,
        students: 8,
        courses: 3,
        publications: 1,
    };
    let graph = lubm_like(1, &config, &mut table, 0xBEEF);
    let labels = graph.labels();
    let regex = Regex::parse("memberOf . subOrganizationOf*", &mut table).unwrap();
    let nfa = glushkov(&regex);

    let mut rng = StdRng::seed_from_u64(0x10B);
    let batches = random_batches(&graph, &labels, 10, &mut rng);

    for devices in [1, 2] {
        let traces: Vec<_> = configs()
            .iter()
            .map(|(cfg, name)| (replay(devices, &graph, &nfa, &batches, *cfg).0, *name))
            .collect();
        let (baseline, _) = &traces[traces.len() - 1];
        for (trace, name) in &traces {
            assert_eq!(
                trace, baseline,
                "{name} diverged from recompute on LUBM ({devices} devices)"
            );
        }
    }

    // Single-edge inserts on the default LUBM plus a 60-deep citation
    // thread: recompute re-derives the thread's closure at every
    // version, incremental maintenance touches only each batch's
    // frontier, so it pays at most a third of recompute's launches
    // and accumulator insertions.
    const CHAIN: u32 = 60;
    let mut table = SymbolTable::new();
    let mut graph = lubm_like(1, &LubmConfig::default(), &mut table, 0xCAFE);
    let cites = table.intern("cites");
    let n = graph.n_vertices();
    for v in n - CHAIN..n - 1 {
        graph.add_edge(v, cites, v + 1);
    }
    let labels: Vec<Symbol> = graph.labels().into_iter().filter(|&l| l != cites).collect();
    // Instance-level endpoints only: the 16 ontology classes come
    // first. A xorshift stream, so the fixture is fixed by its seed.
    let mut state: u64 = 0xE13 | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut mirror = graph.clone();
    let mut inserts = Vec::new();
    while inserts.len() < 24 {
        let label = labels[(next() % labels.len() as u64) as usize];
        let u = (16 + next() % (u64::from(n) - 16)) as u32;
        let v = (16 + next() % (u64::from(n) - 16)) as u32;
        if u != v && !mirror.edges_of(label).contains(&(u, v)) {
            let mut batch = UpdateBatch::new();
            batch.insert(u, label, v);
            batch.apply_to(&mut mirror);
            inserts.push(batch);
        }
    }
    for devices in [1, 2] {
        let run = |mode| {
            let grid = DeviceGrid::new(devices);
            let mut stream = GraphStream::new(&grid, &graph).expect("store builds");
            let config = MaintainConfig {
                mode,
                ..MaintainConfig::default()
            };
            stream.track_closure(config).expect("closure view builds");
            let before = grid.total_stats();
            let checksums: Vec<u64> = inserts
                .iter()
                .map(|batch| {
                    stream.apply(batch.clone()).expect("batch applies");
                    stream.closure_view().expect("tracked").checksum()
                })
                .collect();
            let after = grid.total_stats();
            let launches = after.launches - before.launches;
            (
                checksums,
                launches,
                after.accum_insertions - before.accum_insertions,
            )
        };
        let (inc, inc_launches, inc_insertions) = run(MaintainMode::Incremental);
        let (rec, rec_launches, rec_insertions) = run(MaintainMode::Recompute);
        assert_eq!(inc, rec, "insert stream diverged ({devices} devices)");
        assert!(
            inc_launches * 3 <= rec_launches,
            "{inc_launches} incremental vs {rec_launches} recompute launches ({devices} devices)"
        );
        assert!(
            inc_insertions * 3 <= rec_insertions,
            "{inc_insertions} incremental vs {rec_insertions} recompute insertions ({devices} devices)"
        );
    }
}
