//! The engine: admission queue, device-pinned workers, tickets.
//!
//! One worker thread per grid device pulls from a single bounded
//! admission queue (work-stealing degenerate case: the queue *is* the
//! shared pool; a device is never idle while requests wait). Admission
//! is non-blocking — a full queue rejects with
//! [`EngineError::Overloaded`] instead of applying back-pressure by
//! blocking, so a closed-loop client can implement its own retry
//! policy. Deadlines ride on [`StopToken`]s armed on the worker's
//! device for the duration of one request: fixpoint loops observe the
//! token between kernel launches and unwind with a typed error, buffer
//! RAII releasing device memory on the way out.
//!
//! A worker pops one request and runs it: every request arms its own
//! token and owns the device counters between its dequeue and its
//! completion, so per-request launch and byte deltas are additive.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spbla_core::Instance;
use spbla_gpu_sim::{DeviceStats, StopToken};
use spbla_graph::cfpq::azimov::{AzimovIndex, AzimovOptions};
use spbla_graph::closure::closure_delta;
use spbla_graph::rpq::rpq_pairs_from_mats;
use spbla_graph::rpq_bfs::rpq_from_sources_mats;
use spbla_graph::LabeledGraph;
use spbla_lang::SymbolTable;
use spbla_multidev::DeviceGrid;
use spbla_obs::{labeled, metrics_global, trace_global, Counter, Gauge, Histogram};
use spbla_stream::UpdateBatch;

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::planner::{Plan, PlanKind, Planner};

/// Admission tier of a request: where it bounces off the bounded queue
/// and which rejection counter it lands in.
///
/// Interactive requests may fill the whole queue; batch requests are
/// rejected once the queue passes
/// [`EngineConfig::batch_admission_fraction`] of capacity, so a
/// saturating batch workload cannot starve interactive admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosTier {
    /// Latency-sensitive tier: admitted up to full queue capacity.
    Interactive,
    /// Throughput tier: admitted only while the queue is below the
    /// batch fraction of capacity.
    Batch,
}

impl QosTier {
    /// Stable lowercase name, used as the `tier` metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            QosTier::Interactive => "interactive",
            QosTier::Batch => "batch",
        }
    }
}

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bounded admission-queue capacity; a full queue rejects
    /// ([`EngineError::Overloaded`]) without blocking.
    pub queue_capacity: usize,
    /// Fraction of `queue_capacity` open to [`QosTier::Batch`]
    /// requests; the headroom above it is reserved for interactive
    /// traffic. Clamped to at least one slot.
    pub batch_admission_fraction: f64,
    /// Per-device catalog residency budget in bytes. `None` defaults to
    /// half the smallest device's memory capacity.
    pub residency_budget: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 256,
            batch_admission_fraction: 0.75,
            residency_budget: None,
        }
    }
}

/// A query against a named catalog graph.
#[derive(Debug, Clone)]
pub enum Query {
    /// All-pairs RPQ: every `(u, v)` connected by a word of the regex.
    Rpq(String),
    /// Single-source RPQ: vertices reachable from `source`.
    RpqFromSource {
        /// Regex text.
        text: String,
        /// Bound source vertex.
        source: u32,
    },
    /// CFPQ (Azimov's matrix algorithm): every `(u, v)` connected by a
    /// path deriving the grammar's start nonterminal.
    Cfpq(String),
    /// Transitive closure of the unlabeled adjacency.
    Closure,
    /// Transitive closure via SCC condensation: the planner fetches the
    /// pinned version's cached condensation from the catalog, runs the
    /// fused fixpoint on the component DAG, and expands back through
    /// the component map. Answers are bit-identical to
    /// [`Query::Closure`]; the device only ever runs the DAG-sized
    /// fixpoint.
    ClosureCondensed,
    /// Graph mutation: apply an edge-update batch, producing the next
    /// version. Rides the same admission queue as queries; admitted
    /// reads keep their pinned version regardless of interleaving.
    Update(UpdateBatch),
}

/// A completed query's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Vertex pairs (all-pairs forms).
    Pairs(Vec<(u32, u32)>),
    /// Reachable vertices (single-source form).
    Reachable(Vec<u32>),
    /// The version an update batch produced.
    Applied(u64),
}

/// Per-request observability, measured by the serving worker.
#[derive(Debug, Clone, Default)]
pub struct RequestMetrics {
    /// Submit → dequeue.
    pub queue_wait: Duration,
    /// Submit → completion.
    pub latency: Duration,
    /// Kernel launches this request's execution performed.
    pub launches: u64,
    /// Host→device bytes moved during execution.
    pub h2d_bytes: u64,
    /// Grid slot of the device that served the request.
    pub device: usize,
    /// Graph version the request observed: the version pinned at
    /// submission for reads, the version produced for updates (0 when
    /// an update fails before producing one).
    pub version: u64,
}

/// Result + metrics handed to the ticket holder.
#[derive(Debug)]
pub struct Completed {
    /// The answer, or the typed failure.
    pub result: Result<QueryResult, EngineError>,
    /// Serving measurements.
    pub metrics: RequestMetrics,
}

struct TicketSlot {
    done: Mutex<Option<Completed>>,
    cv: Condvar,
}

/// Handle to an admitted request. Await with [`Ticket::wait`]; drop to
/// fire-and-forget (the request still runs).
pub struct Ticket {
    slot: Arc<TicketSlot>,
    token: StopToken,
}

impl Ticket {
    /// Block until the request completes.
    pub fn wait(self) -> Completed {
        let mut done = self.slot.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(completed) = done.take() {
                return completed;
            }
            done = self.slot.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Request cooperative cancellation: takes effect before execution
    /// starts, or at the next kernel-launch boundary mid-execution.
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

enum Payload {
    RpqAllPairs,
    RpqFromSource(u32),
    Cfpq,
    Closure,
    ClosureCondensed,
    Update(UpdateBatch),
}

/// Stable name for span labels.
fn payload_name(p: &Payload) -> &'static str {
    match p {
        Payload::RpqAllPairs => "rpq",
        Payload::RpqFromSource(_) => "rpq_from_source",
        Payload::Cfpq => "cfpq",
        Payload::Closure => "closure",
        Payload::ClosureCondensed => "closure_condensed",
        Payload::Update(_) => "update",
    }
}

struct PendingRequest {
    graph: String,
    plan: Arc<Plan>,
    payload: Payload,
    token: StopToken,
    submitted: Instant,
    slot: Arc<TicketSlot>,
    /// Version pinned at submission — `Some` for reads (released in
    /// `finish`), `None` for updates (they act on the latest version).
    version: Option<u64>,
}

struct SchedState {
    queue: VecDeque<PendingRequest>,
    shutdown: bool,
    depth_hwm: usize,
}

/// Registry-owned engine accounting: every cell lives in the global
/// [`spbla_obs::MetricsRegistry`] under
/// `spbla_engine_*{engine="<id>"}`, so `EngineStats` is a *view* over
/// the same values Prometheus/JSON exports see — no parallel
/// bookkeeping that can drift. Each engine gets a process-unique id so
/// engines constructed back-to-back (the E12 sweep) never alias.
struct EngineMetrics {
    submitted: Counter,
    completed: Counter,
    rejected_interactive: Counter,
    rejected_batch: Counter,
    deadline_exceeded: Counter,
    cancelled: Counter,
    failed: Counter,
    updates_applied: Counter,
    queue_depth_hwm: Gauge,
    queue_wait_us: Histogram,
    latency_us: Histogram,
    request_launches: Histogram,
    plan_hits: Counter,
    plan_misses: Counter,
    residency_hits: Counter,
    residency_misses: Counter,
    residency_evictions: Counter,
}

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

impl EngineMetrics {
    fn register() -> EngineMetrics {
        let id = NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed).to_string();
        let reg = metrics_global();
        let labels = [("engine", id.as_str())];
        let counter = |family: &str| reg.counter(&labeled(family, &labels));
        EngineMetrics {
            submitted: counter("spbla_engine_submitted_total"),
            completed: counter("spbla_engine_completed_total"),
            rejected_interactive: reg.counter(&labeled(
                "spbla_engine_rejections_total",
                &[("engine", id.as_str()), ("tier", "interactive")],
            )),
            rejected_batch: reg.counter(&labeled(
                "spbla_engine_rejections_total",
                &[("engine", id.as_str()), ("tier", "batch")],
            )),
            deadline_exceeded: counter("spbla_engine_deadline_exceeded_total"),
            cancelled: counter("spbla_engine_cancelled_total"),
            failed: counter("spbla_engine_failed_total"),
            updates_applied: counter("spbla_engine_updates_total"),
            queue_depth_hwm: reg.gauge(&labeled("spbla_engine_queue_depth_hwm", &labels)),
            queue_wait_us: reg.histogram(&labeled("spbla_engine_queue_wait_us", &labels)),
            latency_us: reg.histogram(&labeled("spbla_engine_latency_us", &labels)),
            request_launches: reg.histogram(&labeled("spbla_engine_request_launches", &labels)),
            plan_hits: counter("spbla_engine_plan_hits_total"),
            plan_misses: counter("spbla_engine_plan_misses_total"),
            residency_hits: counter("spbla_engine_residency_hits_total"),
            residency_misses: counter("spbla_engine_residency_misses_total"),
            residency_evictions: counter("spbla_engine_residency_evictions_total"),
        }
    }
}

struct EngineInner {
    grid: DeviceGrid,
    catalog: Catalog,
    planner: Planner,
    table: Mutex<SymbolTable>,
    config: EngineConfig,
    state: Mutex<SchedState>,
    available: Condvar,
    metrics: EngineMetrics,
}

/// Engine-wide observability snapshot.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests bounced by admission control
    /// ([`EngineError::Overloaded`]): the sum of the two tiers below.
    pub rejected: u64,
    /// Rejections of interactive-tier requests.
    pub rejected_interactive: u64,
    /// Rejections of batch-tier requests (fires earlier: the batch
    /// tier's admission limit is a fraction of the queue).
    pub rejected_batch: u64,
    /// Requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Requests cancelled by their ticket holder.
    pub cancelled: u64,
    /// Requests that failed in execution.
    pub failed: u64,
    /// Update batches applied through the serving path (each produced
    /// a new graph version).
    pub updates_applied: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (compilations).
    pub plan_misses: u64,
    /// Catalog residency hits.
    pub residency_hits: u64,
    /// Catalog residency misses (uploads).
    pub residency_misses: u64,
    /// Catalog LRU evictions.
    pub residency_evictions: u64,
    /// High-water mark of the admission-queue depth.
    pub queue_depth_hwm: usize,
    /// Always 0: requests are never coalesced (kept for API stability).
    pub batches: u64,
    /// Always 0: requests are never coalesced (kept for API stability).
    pub batched_requests: u64,
    /// Per-device counters, in grid-slot order.
    pub devices: Vec<DeviceStats>,
}

/// The multi-tenant query engine. Owns a [`DeviceGrid`] and serves
/// RPQ / CFPQ / closure requests concurrently; see the module docs.
pub struct Engine {
    inner: Arc<EngineInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Spin up one worker per grid device.
    pub fn new(grid: DeviceGrid, config: EngineConfig) -> Engine {
        let budget = config.residency_budget.unwrap_or_else(|| {
            (0..grid.len())
                .map(|i| grid.device(i).config().memory_capacity / 2)
                .min()
                .unwrap_or(4 << 30)
        });
        let n = grid.len();
        let metrics = EngineMetrics::register();
        let inner = Arc::new(EngineInner {
            catalog: Catalog::with_counters(
                n,
                budget,
                metrics.residency_hits.clone(),
                metrics.residency_misses.clone(),
                metrics.residency_evictions.clone(),
            ),
            planner: Planner::with_counters(metrics.plan_hits.clone(), metrics.plan_misses.clone()),
            table: Mutex::new(SymbolTable::new()),
            config,
            grid,
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                shutdown: false,
                depth_hwm: 0,
            }),
            available: Condvar::new(),
            metrics,
        });
        let workers = (0..n)
            .map(|dev| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("spbla-engine-{dev}"))
                    .spawn(move || worker_loop(&inner, dev))
                    .expect("engine worker spawns")
            })
            .collect();
        Engine { inner, workers }
    }

    /// Register a named graph, building it against the engine's shared
    /// symbol table so query labels and graph labels agree.
    pub fn add_graph_with(&self, name: &str, build: impl FnOnce(&mut SymbolTable) -> LabeledGraph) {
        let graph = {
            let mut table = self.inner.table.lock().unwrap_or_else(|e| e.into_inner());
            build(&mut table)
        };
        self.add_graph(name, graph);
    }

    /// Register a named graph built elsewhere. The graph's labels must
    /// have been interned through this engine's symbol table (see
    /// [`Engine::with_symbols`]) or queries will not match them.
    pub fn add_graph(&self, name: &str, graph: LabeledGraph) {
        self.inner.catalog.add(name, graph);
    }

    /// Register a graph whose version history starts at `version`
    /// instead of 0 — the recovery path: a restored checkpoint resumes
    /// numbering where the crashed process stopped, so replayed tail
    /// batches reproduce the exact pre-crash version sequence.
    pub fn add_graph_at_version(&self, name: &str, graph: LabeledGraph, version: u64) {
        self.inner.catalog.add_at_version(name, graph, version);
    }

    /// The latest host-resident state of a registered graph (the
    /// durability layer checkpoints from this).
    pub fn host_graph(&self, name: &str) -> Result<Arc<LabeledGraph>, EngineError> {
        self.inner.catalog.host_graph(name)
    }

    /// Run `f` against the engine's symbol table (e.g. to pre-intern or
    /// resolve label names).
    pub fn with_symbols<R>(&self, f: impl FnOnce(&mut SymbolTable) -> R) -> R {
        let mut table = self.inner.table.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut table)
    }

    /// Registered graph names.
    pub fn graph_names(&self) -> Vec<String> {
        self.inner.catalog.names()
    }

    /// Submit a query with no deadline.
    pub fn submit(&self, graph: &str, query: Query) -> Result<Ticket, EngineError> {
        self.submit_with_deadline(graph, query, None)
    }

    /// Submit a query; with `Some(budget)` the request fails typed
    /// ([`EngineError::DeadlineExceeded`]) once `budget` elapses,
    /// whether it is still queued or between kernel launches.
    /// Non-blocking: planning happens on the caller thread, then the
    /// request is enqueued or rejected immediately.
    pub fn submit_with_deadline(
        &self,
        graph: &str,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<Ticket, EngineError> {
        self.submit_tiered(graph, query, QosTier::Interactive, deadline)
    }

    /// Submit under an explicit QoS tier: interactive requests may fill
    /// the whole admission queue, batch requests bounce once the queue
    /// passes [`EngineConfig::batch_admission_fraction`] of capacity.
    pub fn submit_tiered(
        &self,
        graph: &str,
        query: Query,
        tier: QosTier,
        deadline: Option<Duration>,
    ) -> Result<Ticket, EngineError> {
        let inner = &self.inner;
        // Fail fast on unknown graphs — before planning or queueing.
        inner.catalog.host_graph(graph)?;
        let trace = trace_global();
        let plan_start = trace.now_ns();
        let (plan, payload) = match query {
            Query::Rpq(ref text) => (
                inner.planner.plan_rpq(text, &inner.table)?,
                Payload::RpqAllPairs,
            ),
            Query::RpqFromSource { ref text, source } => (
                inner.planner.plan_rpq(text, &inner.table)?,
                Payload::RpqFromSource(source),
            ),
            Query::Cfpq(ref grammar) => (
                inner.planner.plan_cfpq(grammar, &inner.table)?,
                Payload::Cfpq,
            ),
            Query::Closure => (inner.planner.plan_closure()?, Payload::Closure),
            Query::ClosureCondensed => (
                inner.planner.plan_closure_condensed()?,
                Payload::ClosureCondensed,
            ),
            Query::Update(batch) => (inner.planner.plan_update()?, Payload::Update(batch)),
        };
        trace.leaf(
            format!("plan:{}", payload_name(&payload)),
            "phase",
            0,
            plan_start,
            trace.now_ns().saturating_sub(plan_start),
            &[],
        );
        // Reads pin the version current at admission: however many
        // update batches land while this request queues, it reads a
        // consistent snapshot. Updates act on whatever is latest when
        // they execute, so they pin nothing.
        let version = match payload {
            Payload::Update(_) => None,
            _ => Some(inner.catalog.pin_latest(graph)?),
        };
        let unpin = |inner: &EngineInner| {
            if let Some(v) = version {
                inner.catalog.unpin(graph, v);
            }
        };
        let token = match deadline {
            Some(budget) => StopToken::with_deadline(budget),
            None => StopToken::new(),
        };
        let slot = Arc::new(TicketSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        let request = PendingRequest {
            graph: graph.to_string(),
            plan,
            payload,
            token: token.clone(),
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
            version,
        };
        {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.shutdown {
                drop(st);
                unpin(inner);
                return Err(EngineError::ShuttingDown);
            }
            let capacity = inner.config.queue_capacity;
            let limit = match tier {
                QosTier::Interactive => capacity,
                QosTier::Batch => ((capacity as f64
                    * inner.config.batch_admission_fraction.clamp(0.0, 1.0))
                    as usize)
                    .max(1),
            };
            if st.queue.len() >= limit {
                let depth = st.queue.len();
                match tier {
                    QosTier::Interactive => inner.metrics.rejected_interactive.inc(1),
                    QosTier::Batch => inner.metrics.rejected_batch.inc(1),
                }
                drop(st);
                unpin(inner);
                return Err(EngineError::Overloaded {
                    depth,
                    capacity: limit,
                    tier,
                });
            }
            st.queue.push_back(request);
            st.depth_hwm = st.depth_hwm.max(st.queue.len());
            inner.metrics.queue_depth_hwm.fetch_max(st.depth_hwm as u64);
            inner.metrics.submitted.inc(1);
        }
        inner.available.notify_one();
        Ok(Ticket { slot, token })
    }

    /// The latest version number of a registered graph.
    pub fn graph_version(&self, name: &str) -> Result<u64, EngineError> {
        self.inner.catalog.current_version(name)
    }

    /// Apply an update batch and block until it lands, returning the
    /// version it produced. Convenience over
    /// `submit(name, Query::Update(batch))` + [`Ticket::wait`].
    pub fn apply_batch(&self, name: &str, batch: UpdateBatch) -> Result<u64, EngineError> {
        let ticket = self.submit(name, Query::Update(batch))?;
        match ticket.wait().result? {
            QueryResult::Applied(v) => Ok(v),
            other => Err(EngineError::PlanError(format!(
                "update produced an unexpected result: {other:?}"
            ))),
        }
    }

    /// Engine-wide counters plus per-device stats. A thin view over the
    /// engine's registry-owned cells: every number here equals what the
    /// global metrics exporters report for this engine's label.
    pub fn stats(&self) -> EngineStats {
        let inner = &self.inner;
        let m = &inner.metrics;
        EngineStats {
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            rejected: m.rejected_interactive.get() + m.rejected_batch.get(),
            rejected_interactive: m.rejected_interactive.get(),
            rejected_batch: m.rejected_batch.get(),
            deadline_exceeded: m.deadline_exceeded.get(),
            cancelled: m.cancelled.get(),
            failed: m.failed.get(),
            updates_applied: m.updates_applied.get(),
            plan_hits: m.plan_hits.get(),
            plan_misses: m.plan_misses.get(),
            residency_hits: m.residency_hits.get(),
            residency_misses: m.residency_misses.get(),
            residency_evictions: m.residency_evictions.get(),
            queue_depth_hwm: m.queue_depth_hwm.get() as usize,
            batches: 0,
            batched_requests: 0,
            devices: inner.grid.stats(),
        }
    }

    /// Process-wide device ordinals of this engine's grid, in slot
    /// order — the keys under which the devices' counters appear in the
    /// global metrics registry (`spbla_dev_*{dev="<ordinal>"}`).
    pub fn device_ordinals(&self) -> Vec<u64> {
        (0..self.inner.grid.len())
            .map(|i| self.inner.grid.device(i).ordinal())
            .collect()
    }

    /// Number of devices the engine serves over.
    pub fn n_devices(&self) -> usize {
        self.inner.grid.len()
    }

    /// Drain the queue, stop the workers, and return the final stats.
    /// Every admitted request is served before shutdown completes.
    pub fn shutdown(mut self) -> EngineStats {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.shutdown = true;
        drop(st);
        self.inner.available.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Arc<EngineInner>, dev: usize) {
    loop {
        let req = {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(req) = st.queue.pop_front() {
                    break req;
                }
                if st.shutdown {
                    return;
                }
                st = inner.available.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        execute(inner, dev, req);
    }
}

fn execute(inner: &EngineInner, dev: usize, req: PendingRequest) {
    let dequeued = Instant::now();
    let device = inner.grid.device(dev).clone();
    let inst = inner.grid.instance(dev).clone();
    let before = device.stats();

    // A request cancelled (or expired) while queued finishes without
    // touching the device.
    if let Some(e) = req.token.should_stop() {
        let result = Err(EngineError::from_exec(e.into()));
        finish(inner, &req, result, &before, &before, dequeued, dev);
        return;
    }

    let mut span = trace_global().span(
        format!("request:{}", payload_name(&req.payload)),
        "request",
        device.ordinal(),
    );
    if let Some(span) = span.as_mut() {
        span.arg(
            "queue_wait_us",
            dequeued.duration_since(req.submitted).as_micros() as u64,
        );
    }
    // Arm the request's token for the duration of execution: fixpoints
    // observe it between launches. Cleared before the ticket fires so
    // the device returns to the pool unarmed.
    device.install_stop_token(req.token.clone());
    let result = run_one(inner, dev, &inst, &req);
    device.clear_stop_token();
    let after = device.stats();
    drop(span);
    finish(inner, &req, result, &before, &after, dequeued, dev);
}

fn run_one(
    inner: &EngineInner,
    dev: usize,
    inst: &Instance,
    req: &PendingRequest,
) -> Result<QueryResult, EngineError> {
    let version = req.version;
    let pinned = || version.expect("reads always pin a version");
    match (&req.plan.kind, &req.payload) {
        (PlanKind::Rpq(nfa), Payload::RpqAllPairs) => {
            let resident = inner.catalog.resident_at(&req.graph, pinned(), dev, inst)?;
            rpq_pairs_from_mats(&resident.labels, resident.n_vertices, nfa, inst)
                .map(QueryResult::Pairs)
                .map_err(EngineError::from_exec)
        }
        (PlanKind::Rpq(nfa), Payload::RpqFromSource(source)) => {
            // One source is a frontier × automaton vector walk, not the
            // product machine.
            let resident = inner.catalog.resident_at(&req.graph, pinned(), dev, inst)?;
            rpq_from_sources_mats(&resident.labels, resident.n_vertices, nfa, &[*source], inst)
                .map(QueryResult::Reachable)
                .map_err(EngineError::from_exec)
        }
        (PlanKind::Cfpq(cnf), Payload::Cfpq) => {
            // Azimov's fixpoint uploads its nonterminal matrices itself;
            // it runs from the pinned host version, not the residency.
            let host = inner.catalog.host_graph_at(&req.graph, pinned())?;
            AzimovIndex::build(&host, cnf, inst, &AzimovOptions::default())
                .map(|idx| {
                    let mut pairs = idx.reachable_pairs();
                    pairs.sort_unstable();
                    pairs.dedup();
                    QueryResult::Pairs(pairs)
                })
                .map_err(EngineError::from_exec)
        }
        (PlanKind::Closure, Payload::Closure) => {
            let resident = inner.catalog.resident_at(&req.graph, pinned(), dev, inst)?;
            closure_delta(&resident.adjacency)
                .map(|c| {
                    let mut pairs = c.read();
                    pairs.sort_unstable();
                    QueryResult::Pairs(pairs)
                })
                .map_err(EngineError::from_exec)
        }
        (PlanKind::ClosureCondensed, Payload::ClosureCondensed) => {
            // Preprocessing stage: the condensation is computed once
            // per (graph, version) and cached in the catalog; the
            // DAG-sized fixpoint runs on this worker's device.
            let cond = inner.catalog.condensation_at(&req.graph, pinned())?;
            spbla_prep::condensed_closure_with(inst, &cond)
                .map(|(c, _)| {
                    let mut pairs = c.read();
                    pairs.sort_unstable();
                    QueryResult::Pairs(pairs)
                })
                .map_err(EngineError::from_exec)
        }
        (PlanKind::Update, Payload::Update(batch)) => {
            // Serialised by the catalog's host lock: concurrent workers
            // can both be here and neither loses its batch.
            inner
                .catalog
                .apply_batch(&req.graph, batch)
                .map(QueryResult::Applied)
                .inspect(|_| inner.metrics.updates_applied.inc(1))
        }
        _ => unreachable!("payload always matches its plan kind"),
    }
}

fn finish(
    inner: &EngineInner,
    req: &PendingRequest,
    result: Result<QueryResult, EngineError>,
    before: &DeviceStats,
    after: &DeviceStats,
    dequeued: Instant,
    dev: usize,
) {
    match &result {
        Ok(_) => inner.metrics.completed.inc(1),
        Err(EngineError::DeadlineExceeded { .. }) => inner.metrics.deadline_exceeded.inc(1),
        Err(EngineError::Cancelled) => inner.metrics.cancelled.inc(1),
        Err(_) => inner.metrics.failed.inc(1),
    };
    // The request is done with its snapshot: release the pin so pruning
    // and eviction can reclaim the version. Updates pinned nothing.
    if let Some(v) = req.version {
        inner.catalog.unpin(&req.graph, v);
    }
    let version = match (&result, req.version) {
        (_, Some(v)) => v,
        (Ok(QueryResult::Applied(v)), None) => *v,
        _ => 0,
    };
    let queue_wait = dequeued.duration_since(req.submitted);
    let latency = req.submitted.elapsed();
    let launches = after.launches - before.launches;
    inner
        .metrics
        .queue_wait_us
        .observe(queue_wait.as_micros() as u64);
    inner.metrics.latency_us.observe(latency.as_micros() as u64);
    inner.metrics.request_launches.observe(launches);
    let completed = Completed {
        result,
        metrics: RequestMetrics {
            queue_wait,
            latency,
            launches,
            h2d_bytes: after.h2d_bytes - before.h2d_bytes,
            device: dev,
            version,
        },
    };
    let mut done = req.slot.done.lock().unwrap_or_else(|e| e.into_inner());
    *done = Some(completed);
    req.slot.cv.notify_all();
}
