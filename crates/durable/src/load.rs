//! Open-loop load generation against the serving engine.
//!
//! The closed-loop driver everyone writes first (submit, wait, repeat)
//! cannot see queueing collapse: when the server slows down, the driver
//! slows down with it, and the measured latencies silently exclude the
//! waiting the server *caused* — coordinated omission. This harness is
//! open-loop: arrival times are drawn up front from a seeded Poisson
//! process, every request is submitted at its scheduled instant
//! whether or not earlier ones finished, and a rejected admission is
//! *counted*, never retried or waited on. Latency is charged from the
//! scheduled arrival (schedule slip included), so a backed-up engine
//! pays for the backlog it created.
//!
//! Requests are split across the engine's two QoS admission tiers
//! ([`QosTier::Interactive`] / [`QosTier::Batch`]) with independent
//! deadlines, and [`saturation_sweep`] walks an offered-rate ladder
//! until the engine stops keeping up.
//!
//! A run can mix writes into the arrival stream
//! ([`LoadConfig::write_fraction`], [`run_open_loop_mixed`]): write
//! arrivals are [`Query::Update`] batches submitted under the batch
//! tier on the same open-loop schedule, and their outcomes are
//! reported as a third stats bucket ([`LoadReport::writes`]) so read
//! SLOs and write throughput are visible separately.

use std::time::{Duration, Instant};

use spbla_engine::{Engine, EngineError, QosTier, Query, Ticket};
use spbla_lang::Symbol;
use spbla_stream::UpdateBatch;

/// Knobs for one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Total arrivals to schedule.
    pub requests: usize,
    /// RNG seed: the whole arrival schedule (times, tiers, query
    /// choices) is a pure function of this.
    pub seed: u64,
    /// Fraction of arrivals submitted under the interactive tier.
    pub interactive_fraction: f64,
    /// Deadline for interactive requests, if any.
    pub interactive_deadline_ms: Option<u64>,
    /// Deadline for batch requests, if any.
    pub batch_deadline_ms: Option<u64>,
    /// Fraction of arrivals that are write batches instead of reads.
    /// Writes ride the batch admission tier (they mutate shared state,
    /// so they never preempt interactive reads) and are reported in
    /// [`LoadReport::writes`]. 0 keeps the run read-only and the
    /// schedule bit-identical to earlier versions of the harness.
    pub write_fraction: f64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            rate_per_sec: 200.0,
            requests: 200,
            seed: 0x5eed_10ad,
            interactive_fraction: 0.3,
            interactive_deadline_ms: Some(250),
            batch_deadline_ms: None,
            write_fraction: 0.0,
        }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Offset from the run's start.
    pub at: Duration,
    /// Admission tier.
    pub tier: QosTier,
    /// Index into the caller's query template list — the read templates
    /// for a read arrival, the write templates for a write arrival.
    pub query: usize,
    /// Whether this arrival submits a write batch.
    pub write: bool,
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        self.0 = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in (0, 1] — the open end at 0 keeps `ln` finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// The deterministic arrival schedule for a config: exponential
/// inter-arrival gaps (inverse-CDF over the seeded generator), tier and
/// query choice drawn per arrival. Pure in `config` — two calls always
/// agree, which is what makes runs reproducible and comparable.
pub fn arrival_schedule(config: &LoadConfig, n_queries: usize) -> Vec<Arrival> {
    arrival_schedule_mixed(config, n_queries, 0)
}

/// [`arrival_schedule`] with write arrivals mixed in: when
/// [`LoadConfig::write_fraction`] is positive and `n_writes > 0`, each
/// arrival first draws read-vs-write; writes are pinned to the batch
/// tier and index the write template list. With the mix disabled the
/// generator consumes exactly the historical draw sequence, so
/// read-only schedules stay bit-identical across versions.
pub fn arrival_schedule_mixed(
    config: &LoadConfig,
    n_queries: usize,
    n_writes: usize,
) -> Vec<Arrival> {
    assert!(config.rate_per_sec > 0.0, "arrival rate must be positive");
    assert!(n_queries > 0, "need at least one query template");
    let mix = config.write_fraction > 0.0 && n_writes > 0;
    let mut rng = XorShift::new(config.seed);
    let mut at = 0.0f64;
    (0..config.requests)
        .map(|_| {
            at += -rng.next_unit().ln() / config.rate_per_sec;
            let write = mix && rng.next_unit() <= config.write_fraction;
            if write {
                Arrival {
                    at: Duration::from_secs_f64(at),
                    tier: QosTier::Batch,
                    query: (rng.next_u64() % n_writes as u64) as usize,
                    write: true,
                }
            } else {
                let tier = if rng.next_unit() <= config.interactive_fraction {
                    QosTier::Interactive
                } else {
                    QosTier::Batch
                };
                let query = (rng.next_u64() % n_queries as u64) as usize;
                Arrival {
                    at: Duration::from_secs_f64(at),
                    tier,
                    query,
                    write: false,
                }
            }
        })
        .collect()
}

/// Deterministic write templates for a mixed run: `count` update
/// batches of `ops_per_batch` operations each over `n_vertices`
/// vertices under one `label`, drawn from `seed`. Roughly 3:1
/// inserts to deletes so the graph churns without emptying; every
/// endpoint stays in bounds, so the only way a write fails is the
/// serving path itself.
pub fn write_query_templates(
    label: Symbol,
    n_vertices: u32,
    ops_per_batch: usize,
    count: usize,
    seed: u64,
) -> Vec<Query> {
    assert!(
        n_vertices >= 2,
        "write templates need at least two vertices"
    );
    let mut rng = XorShift::new(seed);
    (0..count)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for _ in 0..ops_per_batch.max(1) {
                let u = (rng.next_u64() % n_vertices as u64) as u32;
                let v = (rng.next_u64() % n_vertices as u64) as u32;
                if rng.next_u64().is_multiple_of(4) {
                    batch.delete(u, label, v);
                } else {
                    batch.insert(u, label, v);
                }
            }
            Query::Update(batch)
        })
        .collect()
}

/// Per-tier outcome counts and latency percentiles (microseconds).
#[derive(Debug, Clone, Default)]
pub struct TierStats {
    /// Arrivals scheduled under this tier.
    pub offered: u64,
    /// Arrivals the engine admitted.
    pub admitted: u64,
    /// Admitted requests that completed with an answer.
    pub completed: u64,
    /// Arrivals bounced by admission control.
    pub rejected: u64,
    /// Admitted requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Admitted requests that failed any other way.
    pub failed: u64,
    /// Median completion latency, µs (scheduled arrival → completion).
    pub p50_us: u64,
    /// 95th-percentile latency, µs.
    pub p95_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Worst observed latency, µs.
    pub max_us: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

impl TierStats {
    fn finish(&mut self, mut samples: Vec<u64>) {
        samples.sort_unstable();
        self.p50_us = percentile(&samples, 0.50);
        self.p95_us = percentile(&samples, 0.95);
        self.p99_us = percentile(&samples, 0.99);
        self.max_us = samples.last().copied().unwrap_or(0);
    }
}

/// Outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Offered rate the schedule was drawn at, req/s.
    pub offered_rate: f64,
    /// Completions per second of wall time.
    pub achieved_rate: f64,
    /// Wall time from first scheduled arrival to last completion.
    pub wall_ms: u64,
    /// Interactive-tier read outcomes.
    pub interactive: TierStats,
    /// Batch-tier read outcomes.
    pub batch: TierStats,
    /// Write-batch outcomes (submitted under the batch tier, tracked
    /// separately so the read SLOs are not diluted by write latency).
    pub writes: TierStats,
}

impl LoadReport {
    /// Total arrivals across tiers, writes included.
    pub fn offered(&self) -> u64 {
        self.interactive.offered + self.batch.offered + self.writes.offered
    }

    /// Total rejections across tiers, writes included.
    pub fn rejected(&self) -> u64 {
        self.interactive.rejected + self.batch.rejected + self.writes.rejected
    }

    /// Total completions across tiers, writes included.
    pub fn completed(&self) -> u64 {
        self.interactive.completed + self.batch.completed + self.writes.completed
    }

    /// Whether this run shows the engine failing to keep up with the
    /// offered rate. In an open loop the collapse signals are requests
    /// that *arrived* but never produced an answer — bounced by
    /// admission, dead on deadline, or failed — so saturation is
    /// declared when completions fall more than 5 % short of arrivals.
    pub fn saturated(&self) -> bool {
        let total = self.offered().max(1);
        (self.completed() as f64) < 0.95 * total as f64
    }
}

/// Run one open-loop schedule against `engine`. `queries` are the
/// templates arrivals draw from (cloned per submission); all target the
/// named catalog graph.
pub fn run_open_loop(
    engine: &Engine,
    graph: &str,
    queries: &[Query],
    config: &LoadConfig,
) -> LoadReport {
    run_open_loop_mixed(engine, graph, queries, &[], config)
}

/// [`run_open_loop`] with write templates mixed in on the same
/// schedule: write arrivals (see [`LoadConfig::write_fraction`]) clone
/// from `writes` and are submitted under the batch tier; their
/// outcomes land in [`LoadReport::writes`]. An empty `writes` slice
/// degenerates to the read-only run.
pub fn run_open_loop_mixed(
    engine: &Engine,
    graph: &str,
    queries: &[Query],
    writes: &[Query],
    config: &LoadConfig,
) -> LoadReport {
    let schedule = arrival_schedule_mixed(config, queries.len(), writes.len());
    let mut interactive = TierStats::default();
    let mut batch = TierStats::default();
    let mut write_stats = TierStats::default();
    let start = Instant::now();
    // Dispatch phase: submit on schedule, never block on completions.
    let mut pending: Vec<(usize, Ticket, Duration)> = Vec::with_capacity(schedule.len());
    for (i, arrival) in schedule.iter().enumerate() {
        let now = start.elapsed();
        if now < arrival.at {
            std::thread::sleep(arrival.at - now);
        }
        let slip = start.elapsed().saturating_sub(arrival.at);
        let deadline = match arrival.tier {
            QosTier::Interactive => config.interactive_deadline_ms,
            QosTier::Batch => config.batch_deadline_ms,
        }
        .map(Duration::from_millis);
        let query = if arrival.write {
            writes[arrival.query].clone()
        } else {
            queries[arrival.query].clone()
        };
        let stats = if arrival.write {
            &mut write_stats
        } else {
            match arrival.tier {
                QosTier::Interactive => &mut interactive,
                QosTier::Batch => &mut batch,
            }
        };
        stats.offered += 1;
        match engine.submit_tiered(graph, query, arrival.tier, deadline) {
            Ok(ticket) => {
                stats.admitted += 1;
                pending.push((i, ticket, slip));
            }
            Err(EngineError::Overloaded { .. }) => stats.rejected += 1,
            Err(_) => stats.failed += 1,
        }
    }
    // Collection phase: harvest every admitted request.
    let mut interactive_samples = Vec::new();
    let mut batch_samples = Vec::new();
    let mut write_samples = Vec::new();
    for (i, ticket, slip) in pending {
        let done = ticket.wait();
        let arrival = &schedule[i];
        let (stats, samples) = if arrival.write {
            (&mut write_stats, &mut write_samples)
        } else {
            match arrival.tier {
                QosTier::Interactive => (&mut interactive, &mut interactive_samples),
                QosTier::Batch => (&mut batch, &mut batch_samples),
            }
        };
        match done.result {
            Ok(_) => {
                stats.completed += 1;
                let latency = slip + done.metrics.latency;
                samples.push(latency.as_micros() as u64);
            }
            Err(EngineError::DeadlineExceeded { .. }) => stats.deadline_exceeded += 1,
            Err(_) => stats.failed += 1,
        }
    }
    let wall = start.elapsed();
    interactive.finish(interactive_samples);
    batch.finish(batch_samples);
    write_stats.finish(write_samples);
    let completed = interactive.completed + batch.completed + write_stats.completed;
    LoadReport {
        offered_rate: config.rate_per_sec,
        achieved_rate: completed as f64 / wall.as_secs_f64().max(1e-9),
        wall_ms: wall.as_millis() as u64,
        interactive,
        batch,
        writes: write_stats,
    }
}

/// One rung of a saturation sweep.
#[derive(Debug)]
pub struct SweepPoint {
    /// Offered rate at this rung, req/s.
    pub rate: f64,
    /// The run's report.
    pub report: LoadReport,
}

/// Walk an increasing offered-rate ladder and report the first rate the
/// engine could not keep up with ([`LoadReport::saturated`]), if any.
/// Each rung reuses `base` with its rate and a rung-specific seed.
/// `writes` are the update templates for a mixed run (empty for
/// read-only, see [`run_open_loop_mixed`]).
pub fn saturation_sweep(
    engine: &Engine,
    graph: &str,
    queries: &[Query],
    writes: &[Query],
    base: &LoadConfig,
    rates: &[f64],
) -> (Vec<SweepPoint>, Option<f64>) {
    let mut points = Vec::with_capacity(rates.len());
    let mut saturation = None;
    for (i, &rate) in rates.iter().enumerate() {
        let config = LoadConfig {
            rate_per_sec: rate,
            seed: base.seed.wrapping_add(i as u64),
            ..base.clone()
        };
        let report = run_open_loop_mixed(engine, graph, queries, writes, &config);
        if saturation.is_none() && report.saturated() {
            saturation = Some(rate);
        }
        points.push(SweepPoint { rate, report });
    }
    (points, saturation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spbla_engine::EngineConfig;
    use spbla_graph::LabeledGraph;
    use spbla_multidev::DeviceGrid;

    #[test]
    fn schedule_is_deterministic_and_open_ended() {
        let config = LoadConfig {
            rate_per_sec: 500.0,
            requests: 64,
            ..LoadConfig::default()
        };
        let a = arrival_schedule(&config, 3);
        let b = arrival_schedule(&config, 3);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().any(|x| x.tier == QosTier::Interactive));
        assert!(a.iter().any(|x| x.tier == QosTier::Batch));
        assert!(a.iter().any(|x| x.query != a[0].query));
        // A different seed draws a different schedule.
        let other = arrival_schedule(
            &LoadConfig {
                seed: config.seed + 1,
                ..config.clone()
            },
            3,
        );
        assert_ne!(a, other);
    }

    #[test]
    fn open_loop_counts_every_arrival() {
        let mut table = spbla_lang::SymbolTable::new();
        let a = table.intern("a");
        let graph = LabeledGraph::from_triples(32, (0..31).map(|k| (k, a, k + 1)));
        let engine = Engine::new(
            DeviceGrid::new(2),
            EngineConfig {
                queue_capacity: 8,
                ..EngineConfig::default()
            },
        );
        engine.with_symbols(|t| {
            t.intern("a");
        });
        engine.add_graph("g", graph);
        let config = LoadConfig {
            rate_per_sec: 2000.0,
            requests: 60,
            interactive_fraction: 0.5,
            interactive_deadline_ms: Some(5_000),
            batch_deadline_ms: None,
            ..LoadConfig::default()
        };
        let report = run_open_loop(&engine, "g", &[Query::Closure], &config);
        assert_eq!(report.offered(), 60);
        for tier in [&report.interactive, &report.batch] {
            assert_eq!(
                tier.admitted,
                tier.completed + tier.deadline_exceeded + tier.failed
            );
            assert_eq!(tier.offered, tier.admitted + tier.rejected);
        }
        assert!(report.achieved_rate > 0.0);
        let done = report.interactive.completed + report.batch.completed;
        assert!(done > 0);
        engine.shutdown();
    }

    #[test]
    fn write_mix_rides_the_batch_tier_and_reports_separately() {
        let mut table = spbla_lang::SymbolTable::new();
        let a = table.intern("a");
        let graph = LabeledGraph::from_triples(32, (0..31).map(|k| (k, a, k + 1)));
        let engine = Engine::new(DeviceGrid::new(2), EngineConfig::default());
        let a = engine.with_symbols(|t| t.intern("a"));
        engine.add_graph("g", graph);
        let config = LoadConfig {
            rate_per_sec: 2000.0,
            requests: 80,
            write_fraction: 0.4,
            interactive_deadline_ms: Some(5_000),
            ..LoadConfig::default()
        };
        // The mixed schedule is deterministic and routes every write to
        // the batch tier.
        let schedule = arrival_schedule_mixed(&config, 1, 4);
        assert_eq!(schedule, arrival_schedule_mixed(&config, 1, 4));
        assert!(schedule.iter().any(|x| x.write));
        assert!(schedule.iter().any(|x| !x.write));
        assert!(schedule
            .iter()
            .filter(|x| x.write)
            .all(|x| x.tier == QosTier::Batch && x.query < 4));
        // write_fraction 0 must reproduce the historical read-only
        // schedule draw-for-draw.
        let read_only = LoadConfig {
            write_fraction: 0.0,
            ..config.clone()
        };
        assert_eq!(
            arrival_schedule_mixed(&read_only, 1, 4),
            arrival_schedule(&read_only, 1)
        );

        let writes = write_query_templates(a, 32, 4, 4, config.seed);
        assert_eq!(writes.len(), 4);
        let report = run_open_loop_mixed(&engine, "g", &[Query::Closure], &writes, &config);
        assert_eq!(report.offered(), 80);
        for tier in [&report.interactive, &report.batch, &report.writes] {
            assert_eq!(
                tier.admitted,
                tier.completed + tier.deadline_exceeded + tier.failed
            );
            assert_eq!(tier.offered, tier.admitted + tier.rejected);
        }
        assert!(report.writes.offered > 0, "the mix must schedule writes");
        assert!(report.writes.completed > 0, "writes must execute");
        assert!(engine.stats().updates_applied > 0);
        engine.shutdown();
    }
}
