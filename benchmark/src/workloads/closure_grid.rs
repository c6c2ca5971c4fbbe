//! `closure_grid` — bulk transitive closure of a taxonomy-like DAG: the
//! fused delta fixpoint flat and on blocked storage on one device, the
//! distributed fixpoint on a grid of `nproc` devices (with its upload
//! and its gather), and the condensed closure of an SCC-heavy graph.
//! The only bulk user of `multidev` and `prep`.
//!
//! Graph structure is frozen and `--seed` relabels the vertices in
//! aligned groups of 64, so blocked storage sees the same tiles for
//! every seed while the grid's block-row shards get a seeded mix.

use std::collections::BTreeMap;
use std::time::Instant;

use spbla_core::{Backend, CsrBool, Instance, Matrix};
use spbla_data::rdf;
use spbla_gpu_sim::Device;
use spbla_graph::closure::closure_delta;
use spbla_lang::SymbolTable;
use spbla_multidev::{DeviceGrid, DistMatrix};
use spbla_prep::condensed_closure;

use crate::harness::{digest_pairs, Digests, Recorder, Size, Verdict, Workload};
use crate::inputs::{group_permutation, relabel_pairs, Rng};

/// Taxonomy scale, and `(cycles, cycle length)` of the SCC-heavy graph:
/// a chain of directed cycles, each one strongly connected component.
const FULL: (f64, (u32, u32)) = (0.004, (40, 48));
const QUICK: (f64, (u32, u32)) = (0.0004, (8, 12));
const TAX_SEED: u64 = 3;

pub struct ClosureGrid {
    cuda: Instance,
    blocked: Instance,
    grid: DeviceGrid,
    n: u32,
    pairs: Vec<(u32, u32)>,
    csr: CsrBool,
    flat: Matrix,
    tiled: Matrix,
    scc_n: u32,
    scc_pairs: Vec<(u32, u32)>,
    /// The SCC graph's closure, enumerated from its construction.
    scc_closure: Vec<(u32, u32)>,
    digests: Digests,
}

pub fn setup(seed: u64, size: Size, detail: &mut BTreeMap<String, f64>) -> ClosureGrid {
    let (scale, (cycles, len)) = if size == Size::Full { FULL } else { QUICK };
    let mut rng = Rng::new(seed, 0xc105);
    let t0 = Instant::now();
    let tax = rdf::taxonomy_like(scale, &mut SymbolTable::new(), TAX_SEED);
    let n = tax.n_vertices();
    let perm = group_permutation(n, &mut rng);
    let pairs = relabel_pairs(&tax.adjacency_csr().to_pairs(), &perm);

    // Cycle c holds vertices c·len .. (c+1)·len and has one edge on to
    // cycle c + 1, so a vertex reaches its own and every later cycle.
    let scc_n = cycles * len;
    let perm = group_permutation(scc_n, &mut rng);
    let (mut scc_pairs, mut scc_closure) = (Vec::new(), Vec::new());
    for c in 0..cycles {
        let base = c * len;
        for k in 0..len {
            scc_pairs.push((base + k, base + (k + 1) % len));
            scc_closure.extend((base..scc_n).map(|v| (base + k, v)));
        }
        if c + 1 < cycles {
            scc_pairs.push((base, base + len));
        }
    }
    let scc_pairs = relabel_pairs(&scc_pairs, &perm);
    let scc_closure = relabel_pairs(&scc_closure, &perm);
    detail.insert("data.generate_s".into(), t0.elapsed().as_secs_f64());

    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cuda = Instance::cuda_sim();
    let blocked = Instance::blocked(Backend::CudaSim);
    ClosureGrid {
        flat: Matrix::from_pairs(&cuda, n, n, &pairs).expect("pairs in bounds"),
        tiled: Matrix::from_pairs(&blocked, n, n, &pairs).expect("pairs in bounds"),
        csr: CsrBool::from_pairs(n, n, &pairs).expect("pairs in bounds"),
        grid: DeviceGrid::new(nproc),
        cuda,
        blocked,
        n,
        pairs,
        scc_n,
        scc_pairs,
        scc_closure,
        digests: Digests::default(),
    }
}

impl Workload for ClosureGrid {
    fn devices(&self) -> Vec<Device> {
        let mut devices: Vec<Device> = [&self.cuda, &self.blocked]
            .iter()
            .filter_map(|i| i.device().cloned())
            .collect();
        devices.extend((0..self.grid.len()).map(|i| self.grid.device(i).clone()));
        devices
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let c = rec.item("graph.closure_1dev_s", "graph", || {
            closure_delta(&self.flat).expect("flat closure")
        });
        let mut out_nnz = c.nnz();
        self.digests.note(rec, "flat", || c.read());
        drop(c);
        let c = rec.item("graph.closure_blocked_s", "graph", || {
            closure_delta(&self.tiled).expect("blocked closure")
        });
        out_nnz += c.nnz();
        self.digests.note(rec, "blocked", || c.read());
        drop(c);

        let a = rec.sub("multidev.from_csr_s", "multidev", || {
            DistMatrix::from_csr(&self.grid, &self.csr).expect("shards fit")
        });
        let c = rec.item("multidev.closure_grid_s", "multidev", || {
            a.closure_delta().expect("distributed closure")
        });
        out_nnz += c.nnz();
        let gathered = rec.sub("multidev.all_gather_s", "multidev", || {
            self.grid.comm().all_gather(&c, 0).expect("gather fits")
        });
        rec.set(
            "multidev.max_dev_peak_bytes",
            self.grid.max_peak_bytes() as f64,
        );
        self.digests.note(rec, "grid", || c.gather().to_pairs());
        self.digests.note(rec, "gathered", || gathered.read());
        drop((a, c, gathered));

        let (c, stats) = rec.item("prep.condensed_closure_s", "prep", || {
            condensed_closure(&self.cuda, self.scc_n, &self.scc_pairs).expect("condensed closure")
        });
        out_nnz += c.nnz();
        rec.set("prep.condensation_ratio", stats.condensation_ratio);
        self.digests.note(rec, "condensed", || c.read());
        rec.set("output_nnz", out_nnz as f64);
        let devices = self.grid.len() as f64;
        rec.set(
            "scale_eff",
            rec.get("graph.closure_1dev_s") / (devices * rec.get("multidev.closure_grid_s")),
        );
    }

    /// The DAG's closure against the CPU backend; the SCC graph's
    /// against the enumeration of its construction.
    fn verify(&mut self) -> Verdict {
        let cpu = Instance::cpu();
        let host = Matrix::from_pairs(&cpu, self.n, self.n, &self.pairs).expect("pairs in bounds");
        let dag = digest_pairs(closure_delta(&host).expect("reference closure").read());
        let scc = digest_pairs(std::mem::take(&mut self.scc_closure));
        let mut verdict = Verdict::default();
        for item in ["flat", "blocked", "grid", "gathered"] {
            self.digests.check(&mut verdict, "closure_grid", item, dag);
        }
        self.digests
            .check(&mut verdict, "closure_grid", "condensed", scc);
        verdict
    }
}
