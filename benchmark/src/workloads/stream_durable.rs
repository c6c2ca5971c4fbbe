//! `stream_durable` — writes beside reads: a LUBM graph with a deep
//! `cites` chain takes a stream of small insert batches, every fifth a
//! two-edge delete. Each batch is appended to the `DurableLog` (default
//! config: fsync per append, checkpoint every 8) and then applied to a
//! `GraphStream` that maintains a closure view and one RPQ view; the
//! closure's checksum is read every tenth batch; then the directory is
//! recovered. The same fused kernel and `DistMatrix` as the bulk
//! workloads, on tiny deltas — plus fsync and DRed deletes that nothing
//! else touches, so a bulk-kernel change that taxes small launches
//! shows here.
//!
//! Every pass replays the same stream on a fresh store and a fresh
//! directory, so passes are comparable and `wall_s` is a median.
//!
//! The graph and the stream are frozen and `--seed` relabels the
//! vertices (hubs excepted, and each vertex within its device's shard):
//! whether a delete batch is absorbed by DRed or falls back to an 80 ms
//! recompute depends on which edge it hits, and twenty such coin flips
//! per pass do not average out.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spbla_core::{Instance, Matrix};
use spbla_data::lubm::{lubm_like, LubmConfig};
use spbla_durable::{recover, DurabilityConfig, DurableLog};
use spbla_gpu_sim::Device;
use spbla_graph::closure::closure_delta;
use spbla_graph::{LabeledGraph, RpqIndex, RpqOptions};
use spbla_lang::glushkov::glushkov;
use spbla_lang::{Nfa, Regex, SymbolTable};
use spbla_multidev::grid::block_row_offsets;
use spbla_multidev::DeviceGrid;
use spbla_obs::metrics_global;
use spbla_stream::{GraphStream, MaintainConfig, UpdateBatch};

use crate::harness::{digest_pairs, Recorder, Size, Verdict, Workload};
use crate::inputs::{relabel, relabel_batch, segment_permutation, update_stream, Rng};
use crate::spans::{now_ns, Span};
use crate::stats::{median, percentile};

const RPQ: &str = "memberOf . subOrganizationOf*";
/// LUBM's ontology-class hubs sit at the front of the vertex range;
/// the stream never rewires them.
const ONTOLOGY_HUBS: u32 = 16;
/// Bytes of one user update: two vertices and a label.
const UPDATE_BYTES: f64 = 12.0;
/// The closure view's checksum is read after every this many batches.
const READ_EVERY: usize = 10;
/// Seeds of the frozen graph and stream.
const LUBM_SEED: u64 = 0xCAFE;
const STREAM_SEED: u64 = 0xE13;

struct Sizes {
    universities: usize,
    chain: u32,
    batches: usize,
}

const FULL: Sizes = Sizes {
    universities: 1,
    chain: 60,
    batches: 100,
};

const QUICK: Sizes = Sizes {
    universities: 1,
    chain: 20,
    batches: 15,
};

/// A durability directory that is removed when the pass ends, however
/// it ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Unique per process, per directory and per seed: passes, repeats
    /// and concurrent runs never share a path.
    fn new(seed: u64) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "durable-{}-{}-{seed}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let dir = super::out_dir().join(name);
        std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct StreamDurable {
    seed: u64,
    grid: DeviceGrid,
    table: SymbolTable,
    base: LabeledGraph,
    batches: Vec<UpdateBatch>,
    final_graph: LabeledGraph,
    regex: Regex,
    nfa: Nfa,
    /// From the warm-up pass: closure checksum per read version, the RPQ
    /// view's final checksum, and whether recovery rebuilt the final
    /// graph.
    closure_checksums: Vec<(usize, u64)>,
    rpq_checksum: u64,
    recovered_matches: bool,
}

pub fn setup(seed: u64, size: Size, detail: &mut BTreeMap<String, f64>) -> StreamDurable {
    let sizes = if size == Size::Full { &FULL } else { &QUICK };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut table = SymbolTable::new();
    let t0 = Instant::now();
    let regex = Regex::parse(RPQ, &mut table).expect("query parses");
    let nfa = glushkov(&regex);
    detail.insert("lang.regex_compile_s".into(), t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let mut base = lubm_like(
        sizes.universities,
        &LubmConfig::default(),
        &mut table,
        LUBM_SEED,
    );
    // The chain threads the tail of the vertex range (the last
    // department's students and publications), never the hubs.
    let cites = table.intern("cites");
    let n = base.n_vertices();
    for v in n - sizes.chain..n - 1 {
        base.add_edge(v, cites, v + 1);
    }
    let labels: Vec<_> = base.labels().into_iter().filter(|&l| l != cites).collect();
    let mut stream_rng = Rng::new(STREAM_SEED, 0);
    let (batches, final_graph) = update_stream(
        &base,
        &labels,
        ONTOLOGY_HUBS,
        sizes.batches,
        &mut stream_rng,
    );
    // Shuffle vertices only between the points where a shard boundary
    // of the closure view (n rows) or of the RPQ view's product machine
    // (states · n rows) cuts the vertex range.
    let mut bounds = block_row_offsets(n, nproc);
    bounds.extend(
        block_row_offsets(nfa.n_states() * n, nproc)
            .iter()
            .map(|row| row % n),
    );
    bounds.extend([ONTOLOGY_HUBS, n]);
    bounds.retain(|&b| b >= ONTOLOGY_HUBS);
    bounds.sort_unstable();
    bounds.dedup();
    let perm = segment_permutation(n, &bounds, &mut Rng::new(seed, 0x57d));
    let base = relabel(&base, &perm);
    let final_graph = relabel(&final_graph, &perm);
    let batches: Vec<UpdateBatch> = batches.iter().map(|b| relabel_batch(b, &perm)).collect();
    detail.insert("data.generate_s".into(), t0.elapsed().as_secs_f64());
    StreamDurable {
        seed,
        grid: DeviceGrid::new(nproc),
        table,
        base,
        batches,
        final_graph,
        regex,
        nfa,
        closure_checksums: Vec::new(),
        rpq_checksum: 0,
        recovered_matches: false,
    }
}

/// Edges per label *name*, sorted: equality of two graphs whose symbol
/// tables interned the labels in different orders.
fn edges_by_name(graph: &LabeledGraph, table: &SymbolTable) -> BTreeMap<String, Vec<(u32, u32)>> {
    graph
        .labels()
        .into_iter()
        .map(|label| {
            let mut edges = graph.edges_of(label).to_vec();
            edges.sort_unstable();
            edges.dedup();
            (table.name(label).to_string(), edges)
        })
        .collect()
}

impl Workload for StreamDurable {
    fn devices(&self) -> Vec<Device> {
        (0..self.grid.len())
            .map(|i| self.grid.device(i).clone())
            .collect()
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let dir = ScratchDir::new(self.seed);
        let mut stream = GraphStream::new(&self.grid, &self.base).expect("store builds");
        stream
            .track_closure(MaintainConfig::default())
            .expect("closure view builds");
        stream
            .track_rpq("rpq", &self.nfa, MaintainConfig::default())
            .expect("rpq view builds");
        let mut log = DurableLog::open(
            &dir.0,
            DurabilityConfig::default(),
            &self.base,
            0,
            &self.table,
        )
        .expect("log opens");
        let registry = metrics_global();
        let written = || {
            (
                registry.counter("spbla_wal_bytes_total").get(),
                registry.counter("spbla_wal_checkpoint_bytes_total").get(),
            )
        };
        let (wal0, ckpt0) = written();
        let launches0 = self.grid.total_stats().launches;

        let mut host = self.base.clone();
        let (mut appends, mut applies, mut reads) = (Vec::new(), Vec::new(), Vec::new());
        let (mut insert_applies, mut delete_applies) = (Vec::new(), Vec::new());
        let mut checksums = Vec::new();
        let mut user_bytes = 0.0;
        let tracing = rec.tracing();
        // Time one call; in the traced pass also record its span under
        // the batch's root.
        let timed = |rec: &mut Recorder,
                     name: &str,
                     layer,
                     root: Option<usize>,
                     id: u64,
                     f: &mut dyn FnMut()| {
            let start_ns = now_ns();
            let t0 = Instant::now();
            f();
            let secs = t0.elapsed().as_secs_f64();
            rec.add_wall(secs);
            if tracing {
                rec.span_log().push(Span {
                    name: name.into(),
                    layer,
                    start_ns,
                    end_ns: start_ns + (secs * 1e9) as u64,
                    parent: root,
                    id,
                    device: None,
                });
            }
            secs * 1e3
        };
        for (i, batch) in self.batches.iter().enumerate() {
            let version = i as u64 + 1;
            batch.apply_to(&mut host);
            user_bytes += UPDATE_BYTES * batch.len() as f64;
            let root_start = now_ns();
            let root = tracing.then(|| {
                rec.span_log().push(Span {
                    name: "batch".into(),
                    layer: "bench",
                    start_ns: root_start,
                    end_ns: root_start,
                    parent: None,
                    id: version,
                    device: None,
                })
            });
            let append_ms = timed(rec, "durable.append", "durable", root, version, &mut || {
                log.append(version, batch, &host, &self.table)
                    .expect("append is durable");
            });
            let apply_ms = timed(rec, "stream.apply", "stream", root, version, &mut || {
                let applied = stream.apply(batch.clone()).expect("batch applies");
                assert_eq!(applied.version, version, "the stream has no no-op batches");
            });
            appends.push(append_ms);
            applies.push(apply_ms);
            if i % 5 == 4 {
                delete_applies.push(apply_ms);
            } else {
                insert_applies.push(apply_ms);
            }
            rec.latency_ms(append_ms + apply_ms);
            if (i + 1) % READ_EVERY == 0 {
                reads.push(timed(
                    rec,
                    "stream.view_read",
                    "stream",
                    root,
                    version,
                    &mut || {
                        let view = stream.closure_view().expect("tracked");
                        checksums.push((i + 1, view.checksum()));
                    },
                ));
            }
            if let Some(root) = root {
                rec.span_log().spans[root].end_ns = now_ns();
            }
        }
        let batches = self.batches.len() as f64;
        rec.attempted += self.batches.len() as u64;
        let stream_ms: f64 = appends.iter().chain(&applies).chain(&reads).sum();
        rec.set("req_per_s", batches / (stream_ms / 1e3));
        let (wal1, ckpt1) = written();
        rec.set("durable.wal_bytes", (wal1 - wal0) as f64);
        rec.set("durable.checkpoint_bytes", (ckpt1 - ckpt0) as f64);
        rec.set(
            "wal_amp",
            ((wal1 - wal0) + (ckpt1 - ckpt0)) as f64 / user_bytes,
        );
        rec.set("durable.fsyncs", log.fsyncs() as f64);
        rec.set("durable.append_p50_ms", percentile(&appends, 50.0));
        rec.set("durable.append_p99_ms", percentile(&appends, 99.0));
        rec.set("stream.apply_p50_ms", percentile(&applies, 50.0));
        rec.set("stream.apply_p99_ms", percentile(&applies, 99.0));
        rec.set("stream.insert_apply_ms", median(&insert_applies));
        rec.set("stream.delete_apply_ms", median(&delete_applies));
        rec.set("stream.view_read_ms", median(&reads));
        let launches = self.grid.total_stats().launches - launches0;
        rec.set("stream.launches_per_batch", launches as f64 / batches);
        let closure = stream.closure_view().expect("tracked");
        let rpq = stream.rpq_view("rpq").expect("tracked");
        let (c, r) = (closure.stats(), rpq.stats());
        rec.set("stream.fallbacks", (c.fallbacks + r.fallbacks) as f64);
        rec.set("stream.recomputes", (c.recomputes + r.recomputes) as f64);
        rec.set("output_nnz", closure.closure().nnz() as f64);

        // Recovery, from nothing but the directory.
        let mut fresh = SymbolTable::new();
        let recovered = rec.sub("recover_s", "durable", || {
            recover(&dir.0, &mut fresh).expect("directory recovers")
        });
        rec.set("durable.replayed_batches", recovered.tail.len() as f64);
        rec.sub("durable.checkpoint_s", "durable", || {
            log.checkpoint_now(self.batches.len() as u64, &host, &self.table)
                .expect("checkpoint writes")
        });

        if rec.collecting() {
            let mut rebuilt = recovered.graph;
            for (_, batch) in &recovered.tail {
                batch.apply_to(&mut rebuilt);
            }
            self.recovered_matches = recovered.head_version == self.batches.len() as u64
                && edges_by_name(&rebuilt, &fresh) == edges_by_name(&self.final_graph, &self.table);
            self.rpq_checksum = rpq.checksum();
            self.closure_checksums = checksums;
        } else if checksums != self.closure_checksums {
            // The same stream on a fresh store must read the same.
            eprintln!(
                "stream_durable: pass {} read different checksums",
                rec.pass_no()
            );
            rec.failed += 1;
        }
    }

    /// The view checksums against from-scratch closures of the host
    /// mirror on the CPU backend, the RPQ view against a from-scratch
    /// index, and the recovered graph against the final version.
    fn verify(&mut self) -> Verdict {
        let cpu = Instance::cpu();
        let n = self.base.n_vertices();
        let mut verdict = Verdict::default();
        let mut check = |what: &str, ok: bool| {
            verdict.attempted += 1;
            if !ok {
                eprintln!("stream_durable: {what} does not match its reference");
                verdict.failed += 1;
            }
        };
        let mut mirror = self.base.clone();
        let mut reads = self.closure_checksums.iter().peekable();
        for (i, batch) in self.batches.iter().enumerate() {
            batch.apply_to(&mut mirror);
            if let Some(&&(_, got)) = reads.peek().filter(|r| r.0 == i + 1) {
                reads.next();
                let adjacency =
                    Matrix::from_csr(&cpu, mirror.adjacency_csr()).expect("mirror uploads");
                let reflexive = closure_delta(&adjacency)
                    .and_then(|plus| plus.ewise_add(&Matrix::identity(&cpu, n)?))
                    .expect("reference closure");
                check(
                    &format!("closure view at version {}", i + 1),
                    digest_pairs(reflexive.read()).1 == got,
                );
            }
        }
        check(
            "number of view reads",
            self.closure_checksums.len() == self.batches.len() / READ_EVERY,
        );
        let index = RpqIndex::build(&mirror, &self.regex, &cpu, &RpqOptions::default())
            .and_then(|index| index.reachable_pairs())
            .expect("reference index");
        check(
            "rpq view at the final version",
            digest_pairs(index).1 == self.rpq_checksum,
        );
        check("recovered graph", self.recovered_matches);
        verdict
    }
}
