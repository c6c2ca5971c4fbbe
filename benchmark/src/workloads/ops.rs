//! `ops` — the abstract's claim: Boolean primitives on the simulated
//! CUDA device against the same operations on the generic-semiring
//! library, plus `mxm`/`add` on the OpenCL-style backend and on blocked
//! storage. Each timed call has its own operand size, chosen so the
//! call lasts at least 50 ms; `core` kernels take nearly all the time
//! and `graph`/`engine`/`stream`/`durable` are never entered.

use std::collections::BTreeMap;
use std::time::Instant;

use spbla_core::{Backend, Instance, Matrix};
use spbla_data::random::{power_law_pairs, uniform_row_degree};
use spbla_generic::{add, kron, spgemm, CsrMatrix, PlusTimesF32, PlusTimesF64, Semiring};
use spbla_gpu_sim::primitives::{compact_flagged, exclusive_scan, sort_u64};
use spbla_gpu_sim::{Device, LaunchCfg};

use crate::harness::{digest_pairs, Digest, Digests, Recorder, Size, Verdict, Workload};
use crate::inputs::Rng;
use crate::stats::median;

type Pairs = Vec<(u32, u32)>;

/// Frozen operand sizes (vertices; every uniform matrix has 16 entries
/// per row, the Kronecker factors 8).
struct Sizes {
    mxm: u32,
    transpose: u32,
    add: u32,
    powerlaw: (u32, usize),
    kron: (u32, u32),
    cl_mxm: u32,
    cl_add: u32,
    blocked_mxm: u32,
    blocked_add: u32,
    probe: usize,
}

const FULL: Sizes = Sizes {
    mxm: 12_000,
    transpose: 60_000,
    add: 160_000,
    powerlaw: (150_000, 3_000_000),
    kron: (150, 2_000),
    cl_mxm: 8_000,
    cl_add: 100_000,
    blocked_mxm: 8_000,
    blocked_add: 40_000,
    probe: 4_000_000,
};

const QUICK: Sizes = Sizes {
    mxm: 1_500,
    transpose: 4_000,
    add: 8_000,
    powerlaw: (6_000, 60_000),
    kron: (20, 200),
    cl_mxm: 1_000,
    cl_add: 4_000,
    blocked_mxm: 1_000,
    blocked_add: 2_000,
    probe: 100_000,
};

/// Two uniform operands of one size, as pair lists.
struct Operands {
    n: u32,
    a: Pairs,
    b: Pairs,
}

impl Operands {
    fn uniform(n: u32, degree: usize, rng: &mut Rng) -> Operands {
        Operands {
            n,
            a: uniform_row_degree(n, degree, rng.next_u64()),
            b: uniform_row_degree(n, degree, rng.next_u64()),
        }
    }

    fn upload(&self, inst: &Instance) -> (Matrix, Matrix) {
        let up = |p: &Pairs| Matrix::from_pairs(inst, self.n, self.n, p).expect("pairs in bounds");
        (up(&self.a), up(&self.b))
    }

    fn generic<S: Semiring>(&self) -> (CsrMatrix<S>, CsrMatrix<S>) {
        let lift = |p: &Pairs| {
            let triples: Vec<_> = p.iter().map(|&(i, j)| (i, j, S::one())).collect();
            CsrMatrix::<S>::from_triples(self.n, self.n, &triples)
        };
        (lift(&self.a), lift(&self.b))
    }
}

pub struct Ops {
    sizes: &'static Sizes,
    cuda: Instance,
    cl: Instance,
    blocked: Instance,
    // Host copies, for the timed upload and the reference answers.
    mxm_ops: Operands,
    add_ops: Operands,
    transpose_ops: Operands,
    powerlaw: Pairs,
    kron_ops: (Operands, Operands),
    cl_mxm_ops: Operands,
    cl_add_ops: Operands,
    blocked_mxm_ops: Operands,
    blocked_add_ops: Operands,
    // Device operands.
    mxm: (Matrix, Matrix),
    add: (Matrix, Matrix),
    transpose: Matrix,
    power: Matrix,
    kron: (Matrix, Matrix),
    cl_mxm: (Matrix, Matrix),
    cl_add: (Matrix, Matrix),
    blocked_mxm: (Matrix, Matrix),
    blocked_add: (Matrix, Matrix),
    // Generic operands.
    g_mxm32: (CsrMatrix<PlusTimesF32>, CsrMatrix<PlusTimesF32>),
    g_mxm64: (CsrMatrix<PlusTimesF64>, CsrMatrix<PlusTimesF64>),
    g_add: (CsrMatrix<PlusTimesF32>, CsrMatrix<PlusTimesF32>),
    g_kron: (CsrMatrix<PlusTimesF32>, CsrMatrix<PlusTimesF32>),
    digests: Digests,
}

pub fn setup(seed: u64, size: Size, detail: &mut BTreeMap<String, f64>) -> Ops {
    let sizes = if size == Size::Full { &FULL } else { &QUICK };
    let mut rng = Rng::new(seed, 0x0b5);
    let t0 = Instant::now();
    let mxm_ops = Operands::uniform(sizes.mxm, 16, &mut rng);
    let add_ops = Operands::uniform(sizes.add, 16, &mut rng);
    let transpose_ops = Operands::uniform(sizes.transpose, 16, &mut rng);
    let powerlaw = power_law_pairs(sizes.powerlaw.0, sizes.powerlaw.1, 2.1, rng.next_u64());
    let kron_ops = (
        Operands::uniform(sizes.kron.0, 8, &mut rng),
        Operands::uniform(sizes.kron.1, 8, &mut rng),
    );
    let cl_mxm_ops = Operands::uniform(sizes.cl_mxm, 16, &mut rng);
    let cl_add_ops = Operands::uniform(sizes.cl_add, 16, &mut rng);
    let blocked_mxm_ops = Operands::uniform(sizes.blocked_mxm, 16, &mut rng);
    let blocked_add_ops = Operands::uniform(sizes.blocked_add, 16, &mut rng);
    detail.insert("data.generate_s".into(), t0.elapsed().as_secs_f64());

    let cuda = Instance::cuda_sim();
    let cl = Instance::cl_sim();
    let blocked = Instance::blocked(Backend::CudaSim);
    let power = Matrix::from_pairs(&cuda, sizes.powerlaw.0, sizes.powerlaw.0, &powerlaw)
        .expect("pairs in bounds");
    Ops {
        sizes,
        mxm: mxm_ops.upload(&cuda),
        add: add_ops.upload(&cuda),
        transpose: transpose_ops.upload(&cuda).0,
        power,
        kron: (kron_ops.0.upload(&cuda).0, kron_ops.1.upload(&cuda).0),
        cl_mxm: cl_mxm_ops.upload(&cl),
        cl_add: cl_add_ops.upload(&cl),
        blocked_mxm: blocked_mxm_ops.upload(&blocked),
        blocked_add: blocked_add_ops.upload(&blocked),
        g_mxm32: mxm_ops.generic(),
        g_mxm64: mxm_ops.generic(),
        g_add: add_ops.generic(),
        g_kron: (kron_ops.0.generic().0, kron_ops.1.generic().0),
        cuda,
        cl,
        blocked,
        mxm_ops,
        add_ops,
        transpose_ops,
        powerlaw,
        kron_ops,
        cl_mxm_ops,
        cl_add_ops,
        blocked_mxm_ops,
        blocked_add_ops,
        digests: Digests::default(),
    }
}

impl Workload for Ops {
    fn devices(&self) -> Vec<Device> {
        [&self.cuda, &self.cl, &self.blocked]
            .iter()
            .filter_map(|i| i.device().cloned())
            .collect()
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let mut out_nnz = 0usize;
        // Boolean, CSR + hash SpGEMM backend.
        let c = rec.item("core.mxm_s", "core", || {
            self.mxm.0.mxm(&self.mxm.1).expect("mxm")
        });
        out_nnz += c.nnz();
        self.digests.note(rec, "mxm", || c.read());
        let bool_product_bytes = c.memory_bytes();
        drop(c);
        let t = rec.item("core.transpose_s", "core", || {
            self.transpose.transpose().expect("transpose")
        });
        self.digests.note(rec, "transpose", || t.read());
        drop(t);
        let s = rec.item("core.add_s", "core", || {
            self.add.0.ewise_add(&self.add.1).expect("add")
        });
        let pairs = rec.item("core.read_s", "core", || s.read());
        self.digests.note(rec, "add", || pairs);
        drop(s);
        let p = rec.item("core.mxm_powerlaw_s", "core", || {
            self.power.mxm(&self.power).expect("mxm power-law")
        });
        out_nnz += p.nnz();
        self.digests.note(rec, "mxm_powerlaw", || p.read());
        drop(p);
        let k = rec.item("core.kron_s", "core", || {
            self.kron.0.kron(&self.kron.1).expect("kron")
        });
        self.digests.note(rec, "kron", || k.read());
        drop(k);
        let f = rec.item("core.fused_round_s", "core", || {
            (self.mxm.0)
                .mxm_accum_compmask(&self.mxm.0, &self.mxm.1, true)
                .expect("fused round")
        });
        out_nnz += f.fresh_nnz;
        self.digests.note(rec, "fused_acc", || f.acc.read());
        self.digests.note(rec, "fused_fresh", || {
            f.fresh.as_ref().expect("asked for").read()
        });
        drop(f);
        let u = rec.item("core.upload_s", "core", || {
            let n = self.add_ops.n;
            Matrix::from_pairs(&self.cuda, n, n, &self.add_ops.a).expect("upload")
        });
        self.digests.note(rec, "upload", || u.read());
        drop(u);

        // The same operations on the generic-semiring library.
        let g = rec.item("generic.mxm_f32_s", "generic", || {
            spgemm::mxm(&self.g_mxm32.0, &self.g_mxm32.1)
        });
        rec.set("generic.product_bytes", g.memory_bytes() as f64);
        rec.set("bool_product_bytes", bool_product_bytes as f64);
        self.digests.note(rec, "g_mxm_f32", || g.pattern());
        drop(g);
        let g = rec.item("generic.mxm_f64_s", "generic", || {
            spgemm::mxm(&self.g_mxm64.0, &self.g_mxm64.1)
        });
        self.digests.note(rec, "g_mxm_f64", || g.pattern());
        drop(g);
        let g = rec.item("generic.add_s", "generic", || {
            add::ewise_add(&self.g_add.0, &self.g_add.1)
        });
        self.digests.note(rec, "g_add", || g.pattern());
        drop(g);
        let g = rec.item("generic.kron_s", "generic", || {
            kron::kron(&self.g_kron.0, &self.g_kron.1)
        });
        self.digests.note(rec, "g_kron", || g.pattern());
        drop(g);

        // COO + ESC backend, and blocked storage.
        let c = rec.item("core.mxm_s.cl_sim", "core", || {
            self.cl_mxm.0.mxm(&self.cl_mxm.1).expect("cl mxm")
        });
        out_nnz += c.nnz();
        self.digests.note(rec, "cl_mxm", || c.read());
        drop(c);
        let c = rec.item("core.add_s.cl_sim", "core", || {
            self.cl_add.0.ewise_add(&self.cl_add.1).expect("cl add")
        });
        self.digests.note(rec, "cl_add", || c.read());
        drop(c);
        let c = rec.item("core.mxm_s.blocked", "core", || {
            self.blocked_mxm
                .0
                .mxm(&self.blocked_mxm.1)
                .expect("blocked mxm")
        });
        out_nnz += c.nnz();
        self.digests.note(rec, "blocked_mxm", || c.read());
        drop(c);
        let c = rec.item("core.add_s.blocked", "core", || {
            self.blocked_add
                .0
                .ewise_add(&self.blocked_add.1)
                .expect("blocked add")
        });
        self.digests.note(rec, "blocked_add", || c.read());
        drop(c);

        rec.set("output_nnz", out_nnz as f64);
        rec.set(
            "bool_speedup_mxm",
            rec.get("generic.mxm_f32_s") / rec.get("core.mxm_s"),
        );
        rec.set(
            "bool_speedup_add",
            rec.get("generic.add_s") / rec.get("core.add_s"),
        );
    }

    /// Micro-probes of the simulated device itself: the cost of an empty
    /// multi-block launch and of the three primitives every backend
    /// leans on.
    fn probe(&mut self, rec: &mut Recorder) {
        let device: &Device = self.cuda.device().expect("cuda-sim has a device");
        let cfg = LaunchCfg::grid(device, 4 * device.config().sm_count.max(1));
        let launches: Vec<f64> = (0..1000)
            .map(|_| {
                let t0 = Instant::now();
                device.launch_read(cfg, |_| {}).expect("empty launch");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        rec.set("gpu-sim.launch_us", median(&launches));
        let n = self.sizes.probe;
        let mut rng = Rng::new(n as u64, 0x9a0be);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let timed = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let mut counts: Vec<usize> = keys.iter().map(|k| (k & 7) as usize).collect();
        rec.set(
            "gpu-sim.scan_s",
            timed(&mut || {
                exclusive_scan(device, &mut counts).expect("scan");
            }),
        );
        let mut sorted = keys.clone();
        rec.set(
            "gpu-sim.sort_s",
            timed(&mut || sort_u64(device, &mut sorted)),
        );
        let flags: Vec<u8> = keys.iter().map(|k| (k & 1) as u8).collect();
        rec.set(
            "gpu-sim.compact_s",
            timed(&mut || {
                std::hint::black_box(compact_flagged(device, &keys, &flags).expect("compact"));
            }),
        );
    }

    /// Every output against the sequential CPU backend.
    fn verify(&mut self) -> Verdict {
        let cpu = Instance::cpu();
        let mut expect: BTreeMap<&'static str, Digest> = BTreeMap::new();
        // The generic library computes the same patterns as the Boolean
        // one, so one reference serves both.
        let mut put = |items: &[&'static str], m: Matrix| {
            let digest = digest_pairs(m.read());
            expect.extend(items.iter().map(|&item| (item, digest)));
        };
        let (a, b) = self.mxm_ops.upload(&cpu);
        let fused = a
            .mxm_accum_compmask(&a, &b, true)
            .expect("reference fused round");
        put(&["fused_acc"], fused.acc);
        put(&["fused_fresh"], fused.fresh.expect("asked for"));
        put(
            &["mxm", "g_mxm_f32", "g_mxm_f64"],
            a.mxm(&b).expect("reference mxm"),
        );
        put(
            &["transpose"],
            self.transpose_ops
                .upload(&cpu)
                .0
                .transpose()
                .expect("reference"),
        );
        let (a, b) = self.add_ops.upload(&cpu);
        put(&["add", "g_add"], a.ewise_add(&b).expect("reference add"));
        put(&["upload"], a);
        let n = self.sizes.powerlaw.0;
        let p = Matrix::from_pairs(&cpu, n, n, &self.powerlaw).expect("pairs in bounds");
        put(&["mxm_powerlaw"], p.mxm(&p).expect("reference mxm"));
        let (k0, k1) = (
            self.kron_ops.0.upload(&cpu).0,
            self.kron_ops.1.upload(&cpu).0,
        );
        put(&["kron", "g_kron"], k0.kron(&k1).expect("reference kron"));
        let (a, b) = self.cl_mxm_ops.upload(&cpu);
        put(&["cl_mxm"], a.mxm(&b).expect("reference mxm"));
        let (a, b) = self.cl_add_ops.upload(&cpu);
        put(&["cl_add"], a.ewise_add(&b).expect("reference add"));
        let (a, b) = self.blocked_mxm_ops.upload(&cpu);
        put(&["blocked_mxm"], a.mxm(&b).expect("reference mxm"));
        let (a, b) = self.blocked_add_ops.upload(&cpu);
        put(&["blocked_add"], a.ewise_add(&b).expect("reference add"));

        let mut verdict = Verdict::default();
        for (item, want) in expect {
            self.digests.check(&mut verdict, "ops", item, want);
        }
        verdict
    }
}
