//! `serve_mixed` — the engine on a grid of `nproc` devices under a
//! read-only mix: 6/8 same-plan single-source RPQs (the form the
//! scheduler batches), 1/8 all-pairs RPQ, 1/8 CFPQ. Phase A is a closed
//! loop with `nproc` clients and gives `req_per_s`; phase B is an open
//! loop, Poisson arrivals drawn from the seed, at two frozen rates, and
//! gives latency from the due time. The engine's queue, plan cache,
//! residency and batching do the work; kernels do little.
//!
//! Open loop because independent users do not wait for each other: E12's
//! batching halved launches and halved throughput, and only an arrival
//! schedule that keeps coming shows what that does to latency.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spbla_core::Instance;
use spbla_data::lubm::{lubm_like, LubmConfig};
use spbla_engine::{Completed, Engine, EngineConfig, Query, QueryResult, RequestMetrics, Ticket};
use spbla_gpu_sim::Device;
use spbla_graph::cfpq::azimov::{AzimovIndex, AzimovOptions};
use spbla_graph::{RpqIndex, RpqOptions};
use spbla_lang::{CnfGrammar, Grammar, Regex};
use spbla_multidev::DeviceGrid;

use crate::harness::{digest_pairs, Recorder, Size, Verdict, Workload};
use crate::inputs::{poisson_schedule, Rng};
use crate::spans::{now_ns, Span};
use crate::stats::{median, percentile};

const GRAPH: &str = "lubm";
const SOURCE_QUERY: &str = "memberOf . subOrganizationOf*";
const PAIRS_QUERY: &str = "headOf . subOrganizationOf";
const GRAMMAR: &str = "S -> subOrganizationOf S | subOrganizationOf";

/// Frozen sizes and rates. Phase A reaches 900 to 2 200 requests per
/// second on the 2-core reference machine, depending on the minute: a
/// request is a dozen launches and two thread hand-offs, and the
/// machine's wake-up cost drifts. The open-loop rates are therefore set
/// low — about a fifth and two fifths of the slowest closed-loop rate
/// seen — so that the phase measures latency under light load whatever
/// the machine's mood. Closer to saturation the scheduler's batching
/// feeds on itself (a coalesced multi-source run is slower than the
/// requests it replaces, which lengthens the queue, which coalesces
/// more) and the median latency moves by a factor of four from run to
/// run. The limit is what `ok_within_limit_frac` holds each phase-B
/// request to.
struct Sizes {
    universities: usize,
    closed_requests: usize,
    /// `(arrivals per second, requests)` of the two open-loop phases.
    low: (f64, usize),
    high: (f64, usize),
    limit_ms: f64,
    /// Distinct sources the single-source requests draw from.
    sources: usize,
}

const FULL: Sizes = Sizes {
    universities: 16,
    closed_requests: 300,
    low: (200.0, 60),
    high: (400.0, 700),
    limit_ms: 20.0,
    sources: 64,
};

const QUICK: Sizes = Sizes {
    universities: 2,
    closed_requests: 120,
    low: (200.0, 30),
    high: (400.0, 60),
    limit_ms: 20.0,
    sources: 16,
};

/// What a request asks, for matching answers to references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Source(u32),
    Pairs,
    Cfpq,
}

impl Key {
    fn query(self) -> Query {
        match self {
            Key::Source(source) => Query::RpqFromSource {
                text: SOURCE_QUERY.into(),
                source,
            },
            Key::Pairs => Query::Rpq(PAIRS_QUERY.into()),
            Key::Cfpq => Query::Cfpq(GRAMMAR.into()),
        }
    }
}

/// One finished (or refused) request, as its client saw it.
struct Outcome {
    /// Seconds after the phase start the request was due (its submit
    /// time, in the closed loop).
    due_s: f64,
    submit_start_s: f64,
    submit_s: f64,
    /// `None` when the engine refused or failed the request.
    metrics: Option<RequestMetrics>,
}

impl Outcome {
    /// How late the generator submitted it.
    fn late_ms(&self) -> f64 {
        (self.submit_start_s - self.due_s).max(0.0) * 1e3
    }

    /// Latency from the due time: a stall costs every request queued
    /// behind it, not only the one that stalled.
    fn latency_ms(&self) -> Option<f64> {
        self.metrics
            .as_ref()
            .map(|m| self.late_ms() + m.latency.as_secs_f64() * 1e3)
    }
}

pub struct ServeMixed {
    sizes: &'static Sizes,
    engine: Arc<Engine>,
    ordinals: Vec<u64>,
    clients: usize,
    closed: Vec<Key>,
    seed: u64,
    low: Vec<Key>,
    high: Vec<Key>,
    /// `(request, answer digest) → times seen`, over every pass.
    answers: Arc<Mutex<BTreeMap<(Key, u64), u64>>>,
}

pub fn setup(seed: u64, size: Size, detail: &mut BTreeMap<String, f64>) -> ServeMixed {
    let sizes = if size == Size::Full { &FULL } else { &QUICK };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rng = Rng::new(seed, 0x5e7);
    // The queue is deep enough that a stall shows as latency, not as
    // refusals: the workloads are chosen so that no operation fails.
    let engine = Engine::new(
        DeviceGrid::new(nproc),
        EngineConfig {
            queue_capacity: 8192,
            ..EngineConfig::default()
        },
    );
    let t0 = Instant::now();
    let graph = engine.with_symbols(|table| {
        lubm_like(
            sizes.universities,
            &LubmConfig::default(),
            table,
            rng.next_u64(),
        )
    });
    detail.insert("data.generate_s".into(), t0.elapsed().as_secs_f64());
    let n = graph.n_vertices();
    engine.add_graph(GRAPH, graph);

    let pool: Vec<u32> = (0..sizes.sources)
        .map(|_| rng.below(u64::from(n)) as u32)
        .collect();
    let mut mix = |i: usize| match i % 8 {
        3 => Key::Pairs,
        7 => Key::Cfpq,
        _ => Key::Source(pool[rng.below(pool.len() as u64) as usize]),
    };
    let closed = (0..sizes.closed_requests).map(&mut mix).collect();
    let low = (0..sizes.low.1).map(&mut mix).collect();
    let high = (0..sizes.high.1).map(&mut mix).collect();

    // Compile: one request of each shape plans its query and makes the
    // graph resident, so the first timed pass meets a warm engine.
    let t0 = Instant::now();
    for key in [Key::Source(pool[0]), Key::Pairs, Key::Cfpq] {
        let done = engine
            .submit(GRAPH, key.query())
            .expect("empty queue admits")
            .wait();
        done.result.expect("warm-up request completes");
    }
    detail.insert("lang.regex_compile_s".into(), t0.elapsed().as_secs_f64());
    ServeMixed {
        sizes,
        ordinals: engine.device_ordinals(),
        engine: Arc::new(engine),
        clients: nproc,
        closed,
        seed,
        low,
        high,
        answers: Arc::default(),
    }
}

/// Digest a completed request's answer into `answers`.
fn note_answer(answers: &Mutex<BTreeMap<(Key, u64), u64>>, key: Key, done: &Completed) -> bool {
    let digest = match &done.result {
        Ok(QueryResult::Pairs(pairs)) => digest_pairs(pairs.clone()).1,
        Ok(QueryResult::Reachable(targets)) => {
            let source = match key {
                Key::Source(s) => s,
                _ => u32::MAX,
            };
            digest_pairs(targets.iter().map(|&v| (source, v)).collect()).1
        }
        Ok(QueryResult::Applied(_)) | Err(_) => return false,
    };
    *answers
        .lock()
        .expect("no client panicked")
        .entry((key, digest))
        .or_insert(0) += 1;
    true
}

impl ServeMixed {
    /// Closed loop: each client submits its share of the list, one
    /// request at a time. Returns the outcomes and the phase's seconds.
    fn closed_loop(&self) -> (Vec<Outcome>, f64) {
        let started = Instant::now();
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for &key in self.closed.iter().skip(c).step_by(self.clients) {
                            let t0 = started.elapsed().as_secs_f64();
                            let ticket = self.engine.submit(GRAPH, key.query());
                            let submit_s = started.elapsed().as_secs_f64() - t0;
                            let done = ticket.ok().map(Ticket::wait);
                            let ok = done
                                .as_ref()
                                .is_some_and(|d| note_answer(&self.answers, key, d));
                            mine.push(Outcome {
                                due_s: t0,
                                submit_start_s: t0,
                                submit_s,
                                metrics: done.filter(|_| ok).map(|d| d.metrics),
                            });
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        (outcomes, started.elapsed().as_secs_f64())
    }

    /// Open loop: one generator submits each request when it is due and
    /// hands the ticket to a collector, so a slow answer never delays
    /// the next arrival.
    ///
    /// Every pass draws its own arrival times (from the seed and the
    /// pass number): how often two heavy requests collide is the luck of
    /// the schedule, and one schedule replayed every pass would carry
    /// the same luck into every sample of the run.
    fn open_loop(&self, keys: &[Key], rate: f64, pass: u64) -> (Vec<Outcome>, f64) {
        let mut rng = Rng::new(self.seed, pass << 8 | rate as u64 & 0xff);
        let due = poisson_schedule(keys.len(), rate, &mut rng);
        let schedule: Vec<(f64, Key)> = due.into_iter().zip(keys.iter().copied()).collect();
        let schedule = &schedule[..];
        let started = Instant::now();
        let (tx, rx) = mpsc::channel::<(Key, Outcome, Option<Ticket>)>();
        let outcomes = std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let mut seen = Vec::with_capacity(schedule.len());
                for (key, mut outcome, ticket) in rx {
                    let done = ticket.map(Ticket::wait);
                    let ok = done
                        .as_ref()
                        .is_some_and(|d| note_answer(&self.answers, key, d));
                    outcome.metrics = done.filter(|_| ok).map(|d| d.metrics);
                    seen.push(outcome);
                }
                seen
            });
            for &(due_s, key) in schedule {
                let now = started.elapsed().as_secs_f64();
                if due_s > now {
                    std::thread::sleep(Duration::from_secs_f64(due_s - now));
                }
                let t0 = started.elapsed().as_secs_f64();
                let ticket = self.engine.submit(GRAPH, key.query()).ok();
                let outcome = Outcome {
                    due_s,
                    submit_start_s: t0,
                    submit_s: started.elapsed().as_secs_f64() - t0,
                    metrics: None,
                };
                tx.send((key, outcome, ticket))
                    .expect("collector is running");
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        (outcomes, started.elapsed().as_secs_f64())
    }

    /// Spans of one phase's requests: each request is a root (the phase
    /// is concurrent), split into submit, queue wait and service; the
    /// service span names its device so the harvest can hand it the
    /// kernels that ran there.
    fn record_spans(&self, rec: &mut Recorder, phase_start_ns: u64, outcomes: &[Outcome]) {
        for (i, o) in outcomes.iter().enumerate() {
            let Some(m) = &o.metrics else { continue };
            let at = |secs: f64| phase_start_ns + (secs * 1e9) as u64;
            let submitted = at(o.submit_start_s);
            let end = submitted + m.latency.as_nanos() as u64;
            let span = |name: &str, layer, start_ns, end_ns, parent, device| Span {
                name: name.into(),
                layer,
                start_ns,
                end_ns,
                parent,
                id: i as u64,
                device,
            };
            let log = rec.span_log();
            let root = log.push(span(
                "request",
                "bench",
                at(o.due_s.min(o.submit_start_s)),
                end,
                None,
                None,
            ));
            let submit_end = (submitted + (o.submit_s * 1e9) as u64).min(end);
            let dequeued = (submitted + m.queue_wait.as_nanos() as u64).clamp(submit_end, end);
            log.push(span(
                "engine.submit",
                "engine",
                submitted,
                submit_end,
                Some(root),
                None,
            ));
            log.push(span(
                "engine.queue",
                "engine",
                submit_end,
                dequeued,
                Some(root),
                None,
            ));
            let device = self.ordinals.get(m.device).copied();
            log.push(span(
                "engine.service",
                "engine",
                dequeued,
                end,
                Some(root),
                device,
            ));
        }
    }
}

impl Workload for ServeMixed {
    fn devices(&self) -> Vec<Device> {
        // The engine owns its grid; its counters come from `EngineStats`.
        Vec::new()
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let before = self.engine.stats();
        let t_closed = now_ns();
        let (closed, closed_s) = self.closed_loop();
        let t_low = now_ns();
        let (low, low_s) = self.open_loop(&self.low, self.sizes.low.0, rec.pass_no());
        let t_high = now_ns();
        let (high, high_s) = self.open_loop(&self.high, self.sizes.high.0, rec.pass_no());
        let after = self.engine.stats();
        if rec.tracing() {
            self.record_spans(rec, t_closed, &closed);
            self.record_spans(rec, t_low, &low);
            self.record_spans(rec, t_high, &high);
        }

        rec.add_wall(closed_s + low_s + high_s);
        rec.set("req_per_s", closed.len() as f64 / closed_s);
        let latencies = |outcomes: &[Outcome]| -> Vec<f64> {
            outcomes.iter().filter_map(Outcome::latency_ms).collect()
        };
        rec.set("closed_lat_p50_ms", median(&latencies(&closed)));
        rec.set("low_rate_lat_p50_ms", median(&latencies(&low)));
        // A request the generator itself submitted late (the machine
        // stalled the generator thread) measures the generator, not the
        // engine: it counts in `ok_within_limit_frac` and
        // `gen_late_p99_ms` but gives no latency sample.
        let tolerated_late_ms = 0.1 * self.sizes.limit_ms;
        for o in high.iter().filter(|o| o.late_ms() <= tolerated_late_ms) {
            if let Some(ms) = o.latency_ms() {
                rec.latency_ms(ms);
            }
        }
        let open: Vec<&Outcome> = low.iter().chain(&high).collect();
        let within = open
            .iter()
            .filter(|o| o.latency_ms().is_some_and(|ms| ms <= self.sizes.limit_ms));
        rec.set(
            "ok_within_limit_frac",
            within.count() as f64 / open.len() as f64,
        );
        let late: Vec<f64> = open.iter().map(|o| o.late_ms()).collect();
        let late_p99 = percentile(&late, 99.0);
        rec.set("gen_late_p99_ms", late_p99);
        rec.set(
            "open_loop_invalid",
            f64::from(u8::from(late_p99 > tolerated_late_ms)),
        );

        let all: Vec<&Outcome> = closed.iter().chain(&low).chain(&high).collect();
        rec.attempted += all.len() as u64;
        rec.failed += all.iter().filter(|o| o.metrics.is_none()).count() as u64;
        let served: Vec<&RequestMetrics> = high.iter().filter_map(|o| o.metrics.as_ref()).collect();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let waits: Vec<f64> = served.iter().map(|m| ms(m.queue_wait)).collect();
        let service: Vec<f64> = served
            .iter()
            .map(|m| ms(m.latency) - ms(m.queue_wait))
            .collect();
        rec.set("engine.queue_wait_p50_ms", percentile(&waits, 50.0));
        rec.set("engine.queue_wait_p99_ms", percentile(&waits, 99.0));
        rec.set("engine.service_p50_ms", percentile(&service, 50.0));
        rec.set(
            "engine.submit_us",
            median(&all.iter().map(|o| o.submit_s * 1e6).collect::<Vec<_>>()),
        );
        let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        rec.set(
            "engine.plan_hit_rate",
            rate(
                after.plan_hits - before.plan_hits,
                after.plan_misses - before.plan_misses,
            ),
        );
        rec.set(
            "engine.residency_hit_rate",
            rate(
                after.residency_hits - before.residency_hits,
                after.residency_misses - before.residency_misses,
            ),
        );
        let completed = (after.completed - before.completed).max(1) as f64;
        rec.set(
            "engine.evictions",
            (after.residency_evictions - before.residency_evictions) as f64,
        );
        rec.set(
            "engine.batched_frac",
            (after.batched_requests - before.batched_requests) as f64 / completed,
        );
        rec.set("engine.rejected", (after.rejected - before.rejected) as f64);
        rec.set("engine.queue_depth_hwm", after.queue_depth_hwm as f64);
        let sum = |f: fn(&spbla_gpu_sim::DeviceStats) -> u64| -> f64 {
            let total = |s: &spbla_engine::EngineStats| s.devices.iter().map(f).sum::<u64>();
            (total(&after) - total(&before)) as f64
        };
        let launches = sum(|d| d.launches);
        rec.set("engine.launches_per_req", launches / completed);
        // The engine's devices are not the harness's to reset, so their
        // counters are reported from the engine's own snapshot.
        rec.set("gpu-sim.launches", launches);
        rec.set("gpu-sim.blocks", sum(|d| d.blocks_executed));
        rec.set("gpu-sim.allocations", sum(|d| d.allocations));
        rec.set("gpu-sim.h2d_bytes", sum(|d| d.h2d_bytes));
        rec.set("gpu-sim.d2h_bytes", sum(|d| d.d2h_bytes));
        rec.set("gpu-sim.d2d_bytes", sum(|d| d.d2d_bytes));
        rec.set("core.accum_insertions", sum(|d| d.accum_insertions));
        let peak = after
            .devices
            .iter()
            .map(|d| d.peak_bytes)
            .max()
            .unwrap_or(0) as f64;
        rec.set("peak_dev_bytes", peak);
        rec.set("gpu-sim.peak_bytes", peak);
    }

    /// Every answer of every pass against the CPU backend: the
    /// single-source answers against the rows of the all-pairs index.
    fn verify(&mut self) -> Verdict {
        let graph = self.engine.host_graph(GRAPH).expect("graph is registered");
        let cpu = Instance::cpu();
        let (source_query, pairs_query, grammar) = self.engine.with_symbols(|table| {
            (
                Regex::parse(SOURCE_QUERY, table).expect("query parses"),
                Regex::parse(PAIRS_QUERY, table).expect("query parses"),
                Grammar::parse(GRAMMAR, table).expect("grammar parses"),
            )
        });
        let rpq = |regex: &Regex| {
            RpqIndex::build(&graph, regex, &cpu, &RpqOptions::default())
                .and_then(|index| index.reachable_pairs())
                .expect("reference builds")
        };
        let by_source = rpq(&source_query);
        let pairs = digest_pairs(rpq(&pairs_query)).1;
        let cnf = CnfGrammar::from_grammar(&grammar);
        let cfpq = AzimovIndex::build(&graph, &cnf, &cpu, &AzimovOptions::default())
            .expect("reference builds");
        let cfpq = digest_pairs(cfpq.reachable_pairs()).1;
        let mut verdict = Verdict::default();
        for (&(key, digest), &times) in self.answers.lock().expect("clients are done").iter() {
            let want = match key {
                Key::Source(s) => {
                    digest_pairs(by_source.iter().copied().filter(|p| p.0 == s).collect()).1
                }
                Key::Pairs => pairs,
                Key::Cfpq => cfpq,
            };
            verdict.attempted += 1;
            if digest != want {
                eprintln!(
                    "serve_mixed: {times} answers to {key:?} are {digest:#x}, reference {want:#x}"
                );
                verdict.failed += times;
            }
        }
        verdict
    }
}
