//! The pass loop shared by the six workloads: repeated set-up, one
//! discarded warm-up pass, timed passes for the run's duration, an
//! optional traced pass, then the correctness check — and the recorder
//! the workloads report into.

use std::collections::BTreeMap;
use std::time::Instant;

use spbla_gpu_sim::{Device, DeviceStats};
use spbla_obs::trace_global;

use crate::spans::{now_ns, Span, SpanLog, LAYERS};
use crate::stats::{median, percentile};

/// How large a workload is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The frozen benchmark sizes.
    Full,
    /// Shrunk so that all six workloads finish in a few seconds; for
    /// checking the harness, never for numbers.
    Quick,
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// First pass: timings discarded, outputs digested for `verify`.
    WarmUp,
    Timed,
    Traced,
}

/// `(nnz, FNV-1a checksum of the sorted pairs)` of one output.
pub type Digest = (usize, u64);

/// Digest of a pair list (sorted first unless it already is).
pub fn digest_pairs(mut pairs: Vec<(u32, u32)>) -> Digest {
    if !pairs.windows(2).all(|w| w[0] <= w[1]) {
        pairs.sort_unstable();
    }
    (pairs.len(), spbla_stream::checksum_pairs(&pairs))
}

/// Outcome of a workload's correctness check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

/// The digests of a workload's outputs, taken in the warm-up pass and
/// held against the reference answers after all timing.
#[derive(Debug, Default)]
pub struct Digests(BTreeMap<String, Digest>);

impl Digests {
    /// In the warm-up pass, digest `pairs()` as the output of `item`;
    /// in every other pass do nothing (`pairs` is not called).
    pub fn note(&mut self, rec: &Recorder, item: &str, pairs: impl FnOnce() -> Vec<(u32, u32)>) {
        if rec.collecting() {
            self.0.insert(item.to_string(), digest_pairs(pairs()));
        }
    }

    /// Count `item` into `verdict`: correct if its digest is `want`.
    pub fn check(&self, verdict: &mut Verdict, workload: &str, item: &str, want: Digest) {
        let got = self.0.get(item);
        verdict.attempted += 1;
        if got != Some(&want) {
            eprintln!("{workload}: {item} is {got:?}, reference {want:?}");
            verdict.failed += 1;
        }
    }
}

/// One benchmark workload, built by its module's `setup`.
pub trait Workload {
    /// The simulated devices whose counters and peaks belong to it.
    fn devices(&self) -> Vec<Device>;
    /// One pass over the fixed work list, reported into `rec`.
    fn pass(&mut self, rec: &mut Recorder);
    /// Compare what the warm-up pass digested with the reference
    /// answers; runs after all timing.
    fn verify(&mut self) -> Verdict;
    /// Layer micro-probes of a traced run, taken after the traced pass
    /// with tracing off again; reported through [`Recorder::set`].
    fn probe(&mut self, _rec: &mut Recorder) {}
}

/// Collects one pass at a time; `end_pass` folds the pass into per-name
/// series, and the run reports the median of each series.
pub struct Recorder {
    devices: Vec<Device>,
    kind: PassKind,
    pass_no: u64,
    wall_s: f64,
    items: u64,
    latencies_ms: Vec<f64>,
    values: BTreeMap<String, f64>,
    before: Vec<DeviceStats>,
    series: BTreeMap<String, Vec<f64>>,
    /// Operations attempted and failed over all passes.
    pub attempted: u64,
    pub failed: u64,
    log: SpanLog,
    root: Option<usize>,
    traced: BTreeMap<String, f64>,
}

impl Recorder {
    pub fn new(devices: Vec<Device>) -> Recorder {
        Recorder {
            devices,
            kind: PassKind::WarmUp,
            pass_no: 0,
            wall_s: 0.0,
            items: 0,
            latencies_ms: Vec::new(),
            values: BTreeMap::new(),
            before: Vec::new(),
            series: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            log: SpanLog::default(),
            root: None,
            traced: BTreeMap::new(),
        }
    }

    /// Whether outputs should be digested in this pass.
    pub fn collecting(&self) -> bool {
        self.kind == PassKind::WarmUp
    }

    /// Whether this pass records spans.
    pub fn tracing(&self) -> bool {
        self.kind == PassKind::Traced
    }

    pub fn pass_no(&self) -> u64 {
        self.pass_no
    }

    fn begin_pass(&mut self, kind: PassKind, rooted: bool) {
        self.kind = kind;
        self.pass_no += 1;
        self.wall_s = 0.0;
        self.items = 0;
        self.latencies_ms.clear();
        self.values.clear();
        for d in &self.devices {
            d.reset_peak();
        }
        self.before = self.devices.iter().map(Device::stats).collect();
        if kind == PassKind::Traced {
            self.log = SpanLog::default();
            trace_global().enable(1 << 21);
            let start_ns = now_ns();
            self.root = rooted.then(|| {
                self.log.push(Span {
                    name: "pass".into(),
                    layer: "bench",
                    start_ns,
                    end_ns: start_ns,
                    parent: None,
                    id: self.pass_no,
                    device: None,
                })
            });
        }
    }

    /// Time one work item: its duration counts towards the pass's wall
    /// time, is one latency sample, and is this pass's value of
    /// `metric` (summed if the metric is timed twice in a pass).
    pub fn item<R>(&mut self, metric: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, secs) = self.timed(metric, layer, f);
        self.latencies_ms.push(secs * 1e3);
        self.items += 1;
        self.attempted += 1;
        out
    }

    /// Like [`Recorder::item`] for a call too short to be a work item
    /// of its own: wall time and metric, but no latency sample.
    pub fn sub<R>(&mut self, metric: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(metric, layer, f).0
    }

    fn timed<R>(&mut self, metric: &str, layer: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start_ns = now_ns();
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let secs = t0.elapsed().as_secs_f64();
        self.wall_s += secs;
        *self.values.entry(metric.to_string()).or_insert(0.0) += secs;
        if self.tracing() {
            self.log.push(Span {
                name: metric.to_string(),
                layer,
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
                parent: self.root,
                id: self.pass_no,
                device: None,
            });
        }
        (out, secs)
    }

    /// This pass's value of `metric`.
    pub fn set(&mut self, metric: &str, value: f64) {
        self.values.insert(metric.to_string(), value);
    }

    /// This pass's value of `metric` so far (`NaN` if never set).
    pub fn get(&self, metric: &str) -> f64 {
        self.values.get(metric).copied().unwrap_or(f64::NAN)
    }

    /// One latency sample that was not timed through [`Recorder::item`].
    pub fn latency_ms(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
    }

    /// Wall time of the pass spent outside [`Recorder::item`].
    pub fn add_wall(&mut self, secs: f64) {
        self.wall_s += secs;
    }

    /// The span store of the traced pass, for workloads that record
    /// request spans themselves.
    pub fn span_log(&mut self) -> &mut SpanLog {
        &mut self.log
    }

    fn end_pass(&mut self) {
        let after: Vec<DeviceStats> = self.devices.iter().map(Device::stats).collect();
        let delta = |f: fn(&DeviceStats) -> u64| -> f64 {
            after
                .iter()
                .zip(&self.before)
                .map(|(a, b)| f(a) - f(b))
                .sum::<u64>() as f64
        };
        let peak = after.iter().map(|s| s.peak_bytes).max().unwrap_or(0) as f64;
        // A workload without device handles (the engine owns its grid)
        // reports these itself.
        if !self.devices.is_empty() {
            for (name, value) in [
                ("gpu-sim.launches", delta(|s| s.launches)),
                ("gpu-sim.blocks", delta(|s| s.blocks_executed)),
                ("gpu-sim.allocations", delta(|s| s.allocations)),
                ("gpu-sim.h2d_bytes", delta(|s| s.h2d_bytes)),
                ("gpu-sim.d2h_bytes", delta(|s| s.d2h_bytes)),
                ("gpu-sim.d2d_bytes", delta(|s| s.d2d_bytes)),
                ("gpu-sim.peak_bytes", peak),
                ("peak_dev_bytes", peak),
                ("core.accum_insertions", delta(|s| s.accum_insertions)),
            ] {
                self.values.insert(name.to_string(), value);
            }
        }
        let insertions = self.get("core.accum_insertions");
        for (name, value) in [
            ("wall_s", self.wall_s),
            ("lat_p50_ms", percentile(&self.latencies_ms, 50.0)),
            ("lat_p99_ms", percentile(&self.latencies_ms, 99.0)),
            ("lat_samples", self.latencies_ms.len() as f64),
        ] {
            self.values.insert(name.to_string(), value);
        }
        if let Some(nnz) = self.values.get("output_nnz").copied().filter(|&n| n > 0.0) {
            self.set("core.insert_per_nnz", insertions / nnz);
        }
        if !self.values.contains_key("req_per_s") {
            self.set("req_per_s", self.items as f64 / self.wall_s);
        }
        match self.kind {
            PassKind::WarmUp => {}
            PassKind::Timed => {
                for (name, value) in std::mem::take(&mut self.values) {
                    self.series.entry(name).or_default().push(value);
                }
            }
            PassKind::Traced => self.end_traced_pass(),
        }
    }

    /// Close the traced pass: adopt the program's spans, attribute self
    /// time per layer, and hold the sum to the root time.
    fn end_traced_pass(&mut self) {
        let end_ns = now_ns();
        trace_global().disable();
        if let Some(root) = self.root {
            self.log.spans[root].end_ns = end_ns;
        }
        let (_, dropped) = self.log.harvest_program_spans();
        let (by_layer, by_kernel) = self.log.self_time_by_layer();
        let total: f64 = by_layer.values().sum();
        let roots = self.log.root_seconds();
        assert!(
            (total - roots).abs() <= 0.03 * roots,
            "self times sum to {total} s but the root spans last {roots} s"
        );
        let t = &mut self.traced;
        for layer in LAYERS {
            let secs = by_layer.get(layer).copied().unwrap_or(0.0);
            t.insert(format!("obs.self_s.{layer}"), secs);
        }
        let mut other = 0.0;
        for (kernel, secs) in &by_kernel {
            let name = format!("obs.kernel_s.{kernel}");
            if crate::catalog::lookup(&name).is_some() {
                t.insert(name, *secs);
            } else {
                other += secs;
            }
        }
        t.insert("obs.kernel_s.other".into(), other);
        t.insert("obs.spans".into(), self.log.spans.len() as f64);
        t.insert("obs.spans_dropped".into(), dropped as f64);
        t.insert("obs.unparented".into(), self.log.unparented as f64);
        t.insert("traced_wall_s".into(), self.wall_s);
        t.insert("traced_root_s".into(), roots);
        let mut top: Vec<(&String, &f64)> = by_kernel.iter().collect();
        top.sort_by(|a, b| b.1.total_cmp(a.1));
        for (kernel, secs) in top.into_iter().take(12) {
            t.insert(format!("top_kernel_s.{kernel}"), *secs);
        }
    }
}

/// `(user seconds, system seconds, peak resident bytes)` of this
/// process, from `/proc/self`. Linux reports times in ticks of 1/100 s.
fn proc_usage() -> (f64, f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0);
    (ticks(11) / 100.0, ticks(12) / 100.0, hwm_kb * 1024.0)
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Catalogue metrics by name (median over the timed passes).
    pub metrics: BTreeMap<String, f64>,
    /// Uncatalogued detail for the human-readable report.
    pub extra: BTreeMap<String, f64>,
    /// Chrome trace of the traced pass, if one ran.
    pub trace_json: Option<String>,
}

/// Timed passes a run never goes below, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Set-up is repeated at least this often, and further (up to
/// [`MAX_SETUPS`]) while the repeats together take under
/// [`SETUP_BUDGET_S`]: a millisecond set-up needs many samples for a
/// steady median, a one-second set-up cannot afford them. `setup_s` is
/// the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_S: f64 = 0.5;

/// Run one workload: `build` is its `setup`, called repeatedly.
/// Workloads with `own_roots` make each request or batch a root span
/// of the traced pass instead of hanging everything off one pass span.
pub fn run<W: Workload>(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    own_roots: bool,
    mut build: impl FnMut(&mut BTreeMap<String, f64>) -> W,
) -> RunResult {
    let mut setup_samples = Vec::new();
    let mut setup_detail = BTreeMap::new();
    let mut built = None;
    let setting_up = Instant::now();
    while setup_samples.len() < MIN_SETUPS
        || (setup_samples.len() < MAX_SETUPS && setting_up.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(built.take());
        setup_detail.clear();
        let t0 = Instant::now();
        built = Some(build(&mut setup_detail));
        setup_samples.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.expect("set-up ran");
    let mut rec = Recorder::new(w.devices());
    let usage0 = proc_usage();

    rec.begin_pass(PassKind::WarmUp, true);
    w.pass(&mut rec);
    rec.end_pass();
    let started = Instant::now();
    let mut passes = 0;
    loop {
        let t0 = Instant::now();
        rec.begin_pass(PassKind::Timed, true);
        w.pass(&mut rec);
        rec.end_pass();
        let last_pass_s = t0.elapsed().as_secs_f64();
        passes += 1;
        // Start another pass only if most of it fits: an untraced run
        // measures for `seconds`, a traced run keeps the last slice for
        // its traced pass, so both kinds of run take the same time.
        let needed = if trace {
            2.0 * last_pass_s
        } else {
            0.5 * last_pass_s
        };
        if passes >= MIN_PASSES && started.elapsed().as_secs_f64() + needed >= seconds {
            break;
        }
    }
    let usage1 = proc_usage();
    let timed_s = started.elapsed().as_secs_f64();
    let mut trace_json = None;
    if trace {
        rec.begin_pass(PassKind::Traced, !own_roots);
        w.pass(&mut rec);
        rec.end_pass();
        trace_json = Some(rec.log.chrome_json());
        rec.values.clear();
        w.probe(&mut rec);
        let probed = std::mem::take(&mut rec.values);
        rec.traced.extend(probed);
    }
    let traced_s = started.elapsed().as_secs_f64() - timed_s;
    let t0 = Instant::now();
    let verdict = w.verify();
    drop(w);
    let verify_s = t0.elapsed().as_secs_f64();

    let mut all: BTreeMap<String, f64> = rec
        .series
        .iter()
        .map(|(k, v)| (k.clone(), median(v)))
        .collect();
    all.extend(setup_detail);
    all.insert("setup_s".into(), median(&setup_samples));
    all.insert("passes".into(), passes as f64);
    all.insert("phase_s.setups".into(), setup_samples.iter().sum());
    all.insert("phase_s.timed".into(), timed_s);
    all.insert("phase_s.traced".into(), traced_s);
    all.insert("phase_s.verify".into(), verify_s);
    all.insert("proc.user_s".into(), usage1.0 - usage0.0);
    all.insert("proc.sys_s".into(), usage1.1 - usage0.1);
    all.insert("proc.max_rss_bytes".into(), usage1.2);
    if let Some(traced_wall) = rec.traced.get("traced_wall_s").copied() {
        all.insert(
            "obs.trace_overhead_frac".into(),
            traced_wall / all["wall_s"] - 1.0,
        );
    }
    all.extend(std::mem::take(&mut rec.traced));
    let attempted = rec.attempted + verdict.attempted;
    let failed = rec.failed + verdict.failed;
    all.insert(
        "failed_frac".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    let (metrics, extra) = all
        .into_iter()
        .partition(|(name, _)| crate::catalog::lookup(name).is_some());
    RunResult {
        workload,
        seed,
        attempted,
        failed,
        metrics,
        extra,
        trace_json,
    }
}
