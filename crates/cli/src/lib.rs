//! Implementation of the `spbla` command-line tool.
//!
//! ```text
//! spbla generate <shape> [--scale S] [--seed N] [--out FILE]
//! spbla stats <graph.triples>
//! spbla rpq <graph.triples> <regex> [--backend B] [--source V] [--limit K]
//! spbla cfpq <graph.triples> <grammar-file|@G1|@G2|@Geo|@MA> [--engine tns|mtx] [--backend B]
//! spbla closure <graph.triples> [--backend B] [--devices N]
//! spbla bfs <graph.triples> <source>
//! spbla engine [graph.triples] [--devices N] [--clients C] [--requests R]
//! spbla recover <dir> [--graph NAME] [--devices N]
//! ```
//!
//! The logic lives in this library crate so it is unit-testable; the
//! binary is a thin `main` that maps the exit code.

use std::io::Write;

use spbla_core::Instance;
use spbla_data::grammars;
use spbla_data::io::{load_graph, save_graph};
use spbla_data::stats::GraphStats;
use spbla_graph::bfs::bfs_levels;
use spbla_graph::cfpq::azimov::{AzimovIndex, AzimovOptions};
use spbla_graph::cfpq::tensor::{TnsIndex, TnsOptions};
use spbla_graph::closure::{closure_delta, closure_delta_dist};
use spbla_graph::rpq::{RpqIndex, RpqOptions};
use spbla_graph::rpq_bfs::rpq_from_sources;
use spbla_graph::LabeledGraph;
use spbla_lang::{Grammar, Regex, SymbolTable};

/// Errors surfaced to the user (message + suggested exit code).
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    fn run(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }
}

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> CliError {
        CliError::run(e.to_string())
    }
}

/// Tiny flag parser: positionals plus `--key value` options.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, CliError> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("--{key} requires a value")))?;
                options.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn backend_instance(name: Option<&str>) -> Result<Instance, CliError> {
    Ok(match name.unwrap_or("cuda") {
        "cpu" => Instance::cpu(),
        "cuda" => Instance::cuda_sim(),
        "cl" => Instance::cl_sim(),
        other => {
            return Err(CliError::usage(format!(
                "unknown backend '{other}' (cpu | cuda | cl)"
            )))
        }
    })
}

/// Run the CLI with `args` (excluding the program name), writing to
/// `out`. Returns the exit code via `CliError` on failure.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage(USAGE));
    };
    let rest = Args::parse(&args[1..])?;
    match command.as_str() {
        "generate" => cmd_generate(&rest, out),
        "stats" => cmd_stats(&rest, out),
        "rpq" => cmd_rpq(&rest, out),
        "cfpq" => cmd_cfpq(&rest, out),
        "closure" => cmd_closure(&rest, out),
        "bfs" => cmd_bfs(&rest, out),
        "engine" => cmd_engine(&rest, out),
        "stream" => cmd_stream(&rest, out),
        "recover" => cmd_recover(&rest, out),
        "trace" => cmd_trace(&rest, out),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(CliError::from),
        other => Err(CliError::usage(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    }
}

/// Usage text.
pub const USAGE: &str = "usage: spbla <command>\n\
  generate <lubm|taxonomy|geospecies|go|go-hierarchy|eclass|enzyme|alias> \n\
           [--scale S] [--seed N] [--out FILE] [--inverses yes]\n\
  stats    <graph.triples>\n\
  rpq      <graph.triples> <regex> [--backend cpu|cuda|cl] [--source V] [--limit K]\n\
  cfpq     <graph.triples> <grammar-file|@G1|@G2|@Geo|@MA> [--engine tns|mtx] [--backend B] [--limit K]\n\
  closure  <graph.triples> [--backend B] [--devices N] [--condense on|off]\n\
           (N>1 shards over a device grid; --condense on runs the fixpoint on the\n\
            SCC condensation DAG and expands back — bit-identical, fewer launches)\n\
  bfs      <graph.triples> <source>\n\
  engine   [graph.triples] [--devices N] [--clients C] [--requests R] [--seed S]\n\
           [--queue CAP] [--deadline-ms MS]\n\
           (closed-loop mixed RPQ/CFPQ serving; generates a LUBM fixture if no graph given)\n\
  stream   [graph.triples] [--devices N] [--batches B] [--batch-size K] [--deletes on|off]\n\
           [--seed S] [--mode incremental|recompute|both] [--wal DIR]\n\
           (replay a random update stream through the versioned store; --mode both\n\
            cross-checks incremental maintenance against per-batch recompute;\n\
            --wal durably logs the stream for `spbla recover`)\n\
  recover  <dir> [--graph NAME] [--devices N]\n\
           (rebuild an engine from a durability directory: latest good checkpoint\n\
            plus write-ahead-log tail replay, then serve a closure query from the\n\
            recovered state)\n\
  trace    [graph.triples] [--regex R] [--backend cuda|cl] [--out FILE] [--capacity N]\n\
           [--seed S]\n\
           (run an RPQ with kernel tracing on and write a chrome://tracing JSON\n\
            timeline; cross-checks span count against the device launch counter)";

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let shape = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("generate: missing shape"))?;
    let scale: f64 = args
        .opt("scale")
        .unwrap_or("0.01")
        .parse()
        .map_err(|e| CliError::usage(format!("bad --scale: {e}")))?;
    let seed: u64 = args
        .opt("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| CliError::usage(format!("bad --seed: {e}")))?;
    let mut table = SymbolTable::new();
    let mut graph = match shape.as_str() {
        "lubm" => spbla_data::lubm::lubm_like(
            (scale * 200.0).max(1.0) as usize,
            &spbla_data::lubm::LubmConfig::default(),
            &mut table,
            seed,
        ),
        "taxonomy" => spbla_data::rdf::taxonomy_like(scale, &mut table, seed),
        "geospecies" => spbla_data::rdf::geospecies_like(scale, &mut table, seed),
        "go" => spbla_data::rdf::go_like(scale, &mut table, seed),
        "go-hierarchy" => spbla_data::rdf::go_hierarchy_like(scale, &mut table, seed),
        "eclass" => spbla_data::rdf::eclass_like(scale, &mut table, seed),
        "enzyme" => spbla_data::rdf::enzyme_like(scale, &mut table, seed),
        "alias" => spbla_data::alias::kernel_module_like("arch", scale * 10.0, &mut table, seed),
        other => return Err(CliError::usage(format!("unknown shape '{other}'"))),
    };
    if args.opt("inverses") == Some("yes") {
        graph = graph.with_inverses(&mut table);
    }
    match args.opt("out") {
        Some(path) => {
            save_graph(&graph, &table, path)?;
            writeln!(
                out,
                "wrote {} vertices / {} edges to {path}",
                graph.n_vertices(),
                graph.n_edges()
            )?;
        }
        None => spbla_data::io::write_triples(&graph, &table, &mut *out)?,
    }
    Ok(())
}

fn load(args: &Args, table: &mut SymbolTable) -> Result<LabeledGraph, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("missing graph file"))?;
    Ok(load_graph(path, table)?)
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut table = SymbolTable::new();
    let graph = load(args, &mut table)?;
    let stats = GraphStats::of(
        args.positional
            .first()
            .map(String::as_str)
            .unwrap_or("graph"),
        &graph,
        &table,
    );
    writeln!(out, "{stats}")?;
    for (label, count) in &stats.label_counts {
        writeln!(out, "  {label:<30} {count}")?;
    }
    Ok(())
}

fn cmd_rpq(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut table = SymbolTable::new();
    let graph = load(args, &mut table)?;
    let pattern = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("rpq: missing regex"))?;
    let regex = Regex::parse(pattern, &mut table).map_err(CliError::run)?;
    let inst = backend_instance(args.opt("backend"))?;
    let limit: usize = args
        .opt("limit")
        .unwrap_or("10")
        .parse()
        .map_err(|e| CliError::usage(format!("bad --limit: {e}")))?;

    if let Some(src) = args.opt("source") {
        let src: u32 = src
            .parse()
            .map_err(|e| CliError::usage(format!("bad --source: {e}")))?;
        let reached = rpq_from_sources(&graph, &regex, &[src], &inst)?;
        writeln!(out, "{} vertices reachable from {src}", reached.len())?;
        for v in reached.iter().take(limit) {
            writeln!(out, "  {src} -> {v}")?;
        }
        return Ok(());
    }
    let idx = RpqIndex::build(&graph, &regex, &inst, &RpqOptions::default())?;
    let pairs = idx.reachable_pairs()?;
    writeln!(
        out,
        "{} pairs (index nnz {}, {} automaton states)",
        pairs.len(),
        idx.index_nnz(),
        idx.automaton_states()
    )?;
    for (u, v) in pairs.iter().take(limit) {
        writeln!(out, "  {u} -> {v}")?;
    }
    Ok(())
}

fn cmd_cfpq(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut table = SymbolTable::new();
    let graph = load(args, &mut table)?;
    let gref = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("cfpq: missing grammar"))?;
    let grammar = match gref.as_str() {
        "@G1" => grammars::grammar_g1(&mut table),
        "@G2" => grammars::grammar_g2(&mut table),
        "@Geo" => grammars::grammar_geo(&mut table),
        "@MA" => grammars::grammar_ma(&mut table),
        path => {
            let text = std::fs::read_to_string(path)?;
            Grammar::parse(&text, &mut table).map_err(CliError::run)?
        }
    };
    let inst = backend_instance(args.opt("backend"))?;
    let limit: usize = args
        .opt("limit")
        .unwrap_or("10")
        .parse()
        .map_err(|e| CliError::usage(format!("bad --limit: {e}")))?;
    let pairs = match args.opt("engine").unwrap_or("tns") {
        "tns" => {
            let idx = TnsIndex::build(&graph, &grammar, &inst, &TnsOptions::default())?;
            writeln!(
                out,
                "tensor index: nnz {}, {} iterations",
                idx.index_nnz(),
                idx.iterations()
            )?;
            idx.reachable_pairs()
        }
        "mtx" => {
            let cnf = spbla_lang::CnfGrammar::from_grammar(&grammar);
            let idx = AzimovIndex::build(&graph, &cnf, &inst, &AzimovOptions::default())?;
            writeln!(out, "matrix index: {} iterations", idx.iterations())?;
            idx.reachable_pairs()
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown engine '{other}' (tns | mtx)"
            )))
        }
    };
    writeln!(out, "{} pairs", pairs.len())?;
    for (u, v) in pairs.iter().take(limit) {
        writeln!(out, "  {u} -> {v}")?;
    }
    Ok(())
}

fn cmd_closure(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut table = SymbolTable::new();
    let graph = load(args, &mut table)?;
    let condense = opt_on_off(args, "condense", false)?;
    if condense && args.opt("devices").is_some() {
        return Err(CliError::usage(
            "--condense runs on a single instance; drop --devices",
        ));
    }
    if let Some(devices) = args.opt("devices") {
        let devices: usize = devices
            .parse()
            .map_err(|e| CliError::usage(format!("bad --devices: {e}")))?;
        if devices == 0 {
            return Err(CliError::usage("--devices must be at least 1"));
        }
        let backend = match args.opt("backend").unwrap_or("cuda") {
            "cuda" => spbla_core::Backend::CudaSim,
            "cl" => spbla_core::Backend::ClSim,
            other => {
                return Err(CliError::usage(format!(
                    "backend '{other}' has no device; --devices needs cuda or cl"
                )))
            }
        };
        let grid = spbla_multidev::DeviceGrid::uniform(
            devices,
            backend,
            spbla_multidev::DeviceConfig::default(),
        )?;
        let csr = graph.adjacency_csr();
        let closure = closure_delta_dist(&csr, &grid)?;
        let stats = grid.total_stats();
        writeln!(
            out,
            "closure: {} -> {} pairs on {devices} devices \
             (max per-device peak {} bytes, d2d {} bytes)",
            csr.nnz(),
            closure.nnz(),
            grid.max_peak_bytes(),
            stats.d2d_bytes
        )?;
        return Ok(());
    }
    let inst = backend_instance(args.opt("backend"))?;
    if condense {
        let csr = graph.adjacency_csr();
        let (closure, stats) =
            spbla_prep::condensed_closure(&inst, graph.n_vertices(), &csr.to_pairs())?;
        writeln!(
            out,
            "closure (condensed): {} -> {} pairs; {} SCCs of {} vertices \
             ({} levels, {} rounds on the DAG)",
            csr.nnz(),
            closure.nnz(),
            stats.n_components,
            stats.n_vertices,
            stats.levels,
            stats.rounds
        )?;
        return Ok(());
    }
    let adjacency = spbla_core::Matrix::from_csr(&inst, graph.adjacency_csr())?;
    let closure = closure_delta(&adjacency)?;
    writeln!(
        out,
        "closure: {} -> {} pairs ({} bytes)",
        adjacency.nnz(),
        closure.nnz(),
        closure.memory_bytes()
    )?;
    Ok(())
}

fn cmd_bfs(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut table = SymbolTable::new();
    let graph = load(args, &mut table)?;
    let src: u32 = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("bfs: missing source vertex"))?
        .parse()
        .map_err(|e| CliError::usage(format!("bad source: {e}")))?;
    let inst = Instance::cuda_sim();
    let adjacency = spbla_core::Matrix::from_csr(&inst, graph.adjacency_csr())?;
    let levels = bfs_levels(&adjacency, src, &inst)?;
    let reached = levels.iter().flatten().count();
    let depth = levels.iter().flatten().max().copied().unwrap_or(0);
    writeln!(out, "reached {reached} vertices, eccentricity {depth}")?;
    Ok(())
}

fn opt_parse<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    match args.opt(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| CliError::usage(format!("bad --{key}: {e}"))),
    }
}

fn opt_on_off(args: &Args, key: &str, default: bool) -> Result<bool, CliError> {
    match args.opt(key) {
        None => Ok(default),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(CliError::usage(format!("bad --{key} '{other}' (on | off)"))),
    }
}

fn cmd_engine(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use spbla_engine::{Engine, EngineConfig, Query};

    let devices: usize = opt_parse(args, "devices", 2)?;
    if devices == 0 {
        return Err(CliError::usage("--devices must be at least 1"));
    }
    let clients: usize = opt_parse(args, "clients", 4)?;
    if clients == 0 {
        return Err(CliError::usage("--clients must be at least 1"));
    }
    let requests: usize = opt_parse(args, "requests", 64)?;
    let seed: u64 = opt_parse(args, "seed", 1)?;
    let queue_capacity: usize = opt_parse(args, "queue", 256)?;
    let deadline = args
        .opt("deadline-ms")
        .map(|v| {
            v.parse::<u64>()
                .map(std::time::Duration::from_millis)
                .map_err(|e| CliError::usage(format!("bad --deadline-ms: {e}")))
        })
        .transpose()?;

    let engine = Engine::new(
        spbla_multidev::DeviceGrid::new(devices),
        EngineConfig {
            queue_capacity,
            ..EngineConfig::default()
        },
    );
    let graph = match args.positional.first() {
        Some(path) => engine.with_symbols(|table| load_graph(path, table))?,
        None => engine.with_symbols(|table| {
            spbla_data::lubm::lubm_like(1, &spbla_data::lubm::LubmConfig::default(), table, seed)
        }),
    };
    let n_vertices = graph.n_vertices();
    // The two busiest labels drive the query templates, so the workload
    // adapts to whatever graph was loaded.
    let (l1, l2) = engine.with_symbols(|table| {
        let mut labels: Vec<(usize, String)> = graph
            .labels()
            .into_iter()
            .map(|s| (graph.label_count(s), table.name(s).to_string()))
            .collect();
        labels.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let l1 = labels
            .first()
            .map(|(_, n)| n.clone())
            .ok_or_else(|| CliError::run("graph has no labelled edges"))?;
        let l2 = labels.get(1).map_or_else(|| l1.clone(), |(_, n)| n.clone());
        Ok::<_, CliError>((l1, l2))
    })?;
    engine.add_graph("g", graph);

    // Mixed closed-loop workload: mostly single-source RPQs, with
    // all-pairs RPQ and CFPQ requests sprinkled in.
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let workload: Vec<Query> = (0..requests)
        .map(|i| match i % 8 {
            3 => Query::Rpq(format!("{l1} . {l2}")),
            7 => Query::Cfpq(format!("S -> {l1} S | {l1}")),
            _ => Query::RpqFromSource {
                text: format!("{l1}*"),
                source: (next() % u64::from(n_vertices.max(1))) as u32,
            },
        })
        .collect();

    let engine = std::sync::Arc::new(engine);
    let workload = std::sync::Arc::new(workload);
    let started = std::time::Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = std::sync::Arc::clone(&engine);
            let workload = std::sync::Arc::clone(&workload);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut errors = 0u64;
                let mut lat_sum = std::time::Duration::ZERO;
                let mut lat_max = std::time::Duration::ZERO;
                for (i, query) in workload.iter().enumerate() {
                    if i % clients != c {
                        continue;
                    }
                    // Closed loop: submit, await, then move on; retry
                    // briefly when admission control pushes back.
                    let ticket = loop {
                        match engine.submit_with_deadline("g", query.clone(), deadline) {
                            Ok(t) => break Some(t),
                            Err(spbla_engine::EngineError::Overloaded { .. }) => {
                                std::thread::yield_now();
                            }
                            Err(_) => break None,
                        }
                    };
                    let Some(ticket) = ticket else {
                        errors += 1;
                        continue;
                    };
                    let done = ticket.wait();
                    match done.result {
                        Ok(_) => {
                            ok += 1;
                            lat_sum += done.metrics.latency;
                            lat_max = lat_max.max(done.metrics.latency);
                        }
                        Err(_) => errors += 1,
                    }
                }
                (ok, errors, lat_sum, lat_max)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut lat_sum = std::time::Duration::ZERO;
    let mut lat_max = std::time::Duration::ZERO;
    for h in handles {
        let (o, e, s, m) = h.join().expect("client thread survives");
        ok += o;
        errors += e;
        lat_sum += s;
        lat_max = lat_max.max(m);
    }
    let wall = started.elapsed();
    let engine =
        std::sync::Arc::try_unwrap(engine).unwrap_or_else(|_| unreachable!("all clients joined"));
    let stats = engine.shutdown();

    writeln!(
        out,
        "served {requests} requests from {clients} clients on {devices} devices in {:.2}s \
         ({:.1} req/s)",
        wall.as_secs_f64(),
        ok as f64 / wall.as_secs_f64().max(1e-9)
    )?;
    writeln!(
        out,
        "  completed {ok}, errors {errors} (deadline-exceeded {}, cancelled {}, failed {})",
        stats.deadline_exceeded, stats.cancelled, stats.failed
    )?;
    if ok > 0 {
        writeln!(
            out,
            "  latency mean {:.2} ms, max {:.2} ms",
            lat_sum.as_secs_f64() * 1000.0 / ok as f64,
            lat_max.as_secs_f64() * 1000.0
        )?;
    }
    writeln!(
        out,
        "  plan cache {} hits / {} misses; residency {} hits / {} misses / {} evictions",
        stats.plan_hits,
        stats.plan_misses,
        stats.residency_hits,
        stats.residency_misses,
        stats.residency_evictions
    )?;
    let launches: u64 = stats.devices.iter().map(|d| d.launches).sum();
    writeln!(
        out,
        "  queue depth high-water {}, {} kernel launches",
        stats.queue_depth_hwm, launches
    )?;
    Ok(())
}

fn cmd_trace(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let out_path = args.opt("out").unwrap_or("trace.json").to_string();
    let capacity: usize = opt_parse(args, "capacity", 65_536)?;
    if capacity == 0 {
        return Err(CliError::usage("--capacity must be at least 1"));
    }
    let seed: u64 = opt_parse(args, "seed", 1)?;
    let inst = match args.opt("backend").unwrap_or("cuda") {
        "cuda" => Instance::cuda_sim(),
        "cl" => Instance::cl_sim(),
        other => {
            return Err(CliError::usage(format!(
                "backend '{other}' has no launch counter to cross-check; \
                 trace needs cuda or cl"
            )))
        }
    };
    let device = inst.device().expect("device-backed backend");

    let mut table = SymbolTable::new();
    let graph = match args.positional.first() {
        Some(path) => load_graph(path, &mut table)?,
        None => spbla_data::lubm::lubm_like(
            1,
            &spbla_data::lubm::LubmConfig::default(),
            &mut table,
            seed,
        ),
    };
    let pattern = match args.opt("regex") {
        Some(r) => r.to_string(),
        // The LUBM fixture always has these labels; for a user graph
        // fall back to a star over its busiest label.
        None if args.positional.is_empty() => "memberOf . subOrganizationOf*".to_string(),
        None => {
            let busiest = graph
                .labels()
                .into_iter()
                .max_by_key(|&s| graph.label_count(s))
                .ok_or_else(|| CliError::run("graph has no labelled edges"))?;
            format!("{}*", table.name(busiest))
        }
    };
    let regex = Regex::parse(&pattern, &mut table).map_err(CliError::run)?;

    let trace = spbla_obs::trace_global();
    trace.enable(capacity);
    let launches_before = device.stats().launches;
    let result: Result<_, CliError> = (|| {
        let idx = RpqIndex::build(&graph, &regex, &inst, &RpqOptions::default())?;
        Ok((idx.reachable_pairs()?.len(), idx.index_nnz()))
    })();
    let launches = device.stats().launches - launches_before;
    let snapshot = trace.snapshot();
    let chrome_json = trace.render_chrome_json();
    trace.disable();
    let (pairs, nnz) = result?;

    // Every counted launch on this device must appear as a kernel span
    // on its track — the trace is only useful if it is complete.
    let kernel_spans = snapshot
        .spans
        .iter()
        .filter(|s| s.cat == "kernel" && s.track == device.ordinal())
        .count() as u64;
    std::fs::write(&out_path, chrome_json)
        .map_err(|e| CliError::run(format!("writing {out_path}: {e}")))?;
    writeln!(
        out,
        "rpq '{pattern}': {pairs} pairs (index nnz {nnz})\n\
         traced {} spans ({} dropped) -> {out_path}\n\
         kernel spans {kernel_spans} / device launches {launches}",
        snapshot.spans.len(),
        snapshot.dropped,
    )?;
    if snapshot.dropped > 0 {
        writeln!(
            out,
            "warning: ring overflowed; raise --capacity for a complete timeline"
        )?;
    } else if kernel_spans != launches {
        return Err(CliError::run(format!(
            "trace incomplete: {kernel_spans} kernel spans but {launches} launches"
        )));
    }
    Ok(())
}

fn cmd_stream(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use spbla_lang::Symbol;
    use spbla_multidev::DeviceGrid;
    use spbla_stream::{GraphStream, MaintainConfig, MaintainMode, UpdateBatch};

    let devices: usize = opt_parse(args, "devices", 2)?;
    if devices == 0 {
        return Err(CliError::usage("--devices must be at least 1"));
    }
    let batches: usize = opt_parse(args, "batches", 20)?;
    let batch_size: usize = opt_parse(args, "batch-size", 4)?;
    let seed: u64 = opt_parse(args, "seed", 1)?;
    let deletes = opt_on_off(args, "deletes", true)?;
    let mode = args.opt("mode").unwrap_or("both");
    if !matches!(mode, "incremental" | "recompute" | "both") {
        return Err(CliError::usage(format!(
            "bad --mode '{mode}' (incremental | recompute | both)"
        )));
    }

    let mut table = SymbolTable::new();
    let graph = match args.positional.first() {
        Some(path) => load_graph(path, &mut table)?,
        None => spbla_data::lubm::lubm_like(
            1,
            &spbla_data::lubm::LubmConfig::default(),
            &mut table,
            seed,
        ),
    };
    let labels: Vec<Symbol> = graph.labels();
    if labels.is_empty() {
        return Err(CliError::run("graph has no labelled edges"));
    }
    let n = graph.n_vertices();

    // Pre-generate the whole stream so every mode replays the identical
    // batches: mostly inserts, with deletes of existing edges mixed in
    // when enabled. A host mirror tracks the evolving edge set so
    // deletes target edges that actually exist.
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut mirror = graph.clone();
    let stream_batches: Vec<UpdateBatch> = (0..batches)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for _ in 0..batch_size {
                let delete = deletes && next() % 4 == 0;
                if delete {
                    // Delete a random existing edge of a random label.
                    let l = labels[(next() % labels.len() as u64) as usize];
                    let edges = mirror.edges_of(l);
                    if !edges.is_empty() {
                        let (u, v) = edges[(next() % edges.len() as u64) as usize];
                        batch.delete(u, l, v);
                        continue;
                    }
                }
                let l = labels[(next() % labels.len() as u64) as usize];
                let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
                batch.insert(u, l, v);
            }
            batch.apply_to(&mut mirror);
            batch
        })
        .collect();

    // Durably log the stream so `spbla recover` can rebuild it.
    if let Some(dir) = args.opt("wal") {
        use spbla_durable::{DurabilityConfig, DurableLog};
        let dir = std::path::Path::new(dir);
        let mut wal_mirror = graph.clone();
        let mut log = DurableLog::open(dir, DurabilityConfig::default(), &graph, 0, &table)?;
        for (k, batch) in stream_batches.iter().enumerate() {
            batch.apply_to(&mut wal_mirror);
            log.append(k as u64 + 1, batch, &wal_mirror, &table)?;
        }
        writeln!(
            out,
            "  wal: {} batches durably logged to {}",
            stream_batches.len(),
            dir.display()
        )?;
    }

    // One grid per replayed mode so launch meters don't mix.
    let run_mode =
        |maintain: MaintainMode| -> Result<(Vec<u64>, u64, spbla_stream::MaintainStats), CliError> {
            let grid = DeviceGrid::new(devices);
            let mut stream = GraphStream::new(&grid, &graph)?;
            stream.track_closure(MaintainConfig {
                mode: maintain,
                ..MaintainConfig::default()
            })?;
            let base = grid.total_stats().launches;
            let mut checksums = Vec::with_capacity(stream_batches.len());
            for batch in &stream_batches {
                stream.apply(batch.clone())?;
                checksums.push(stream.closure_view().expect("tracked").checksum());
            }
            let launches = grid.total_stats().launches - base;
            let stats = stream.closure_view().expect("tracked").stats();
            Ok((checksums, launches, stats))
        };

    writeln!(
        out,
        "stream: {} vertices / {} edges, {batches} batches of {batch_size} ops on {devices} devices",
        n,
        graph.n_edges()
    )?;
    let incremental = (mode != "recompute")
        .then(|| run_mode(MaintainMode::Incremental))
        .transpose()?;
    let recompute = (mode != "incremental")
        .then(|| run_mode(MaintainMode::Recompute))
        .transpose()?;
    if let Some((_, launches, stats)) = &incremental {
        writeln!(
            out,
            "  incremental: {launches} launches ({} insert batches, {} fallbacks, \
             {} recomputes)",
            stats.incremental_inserts, stats.fallbacks, stats.recomputes
        )?;
    }
    if let Some((_, launches, stats)) = &recompute {
        writeln!(
            out,
            "  recompute:   {launches} launches ({} recomputes)",
            stats.recomputes
        )?;
    }
    if let (Some((a, la, _)), Some((b, lb, _))) = (&incremental, &recompute) {
        if a != b {
            return Err(CliError::run(
                "checksum mismatch: incremental maintenance diverged from recompute",
            ));
        }
        writeln!(
            out,
            "  checksums identical at every version; launch ratio {:.2}",
            *la as f64 / (*lb).max(1) as f64
        )?;
    }
    Ok(())
}

fn cmd_recover(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use spbla_engine::{Engine, EngineConfig, Query, QueryResult};

    let Some(dir) = args.positional.first() else {
        return Err(CliError::usage("recover needs a durability directory"));
    };
    let devices: usize = opt_parse(args, "devices", 2)?;
    if devices == 0 {
        return Err(CliError::usage("--devices must be at least 1"));
    }
    let name = args.opt("graph").unwrap_or("g").to_string();

    let engine = Engine::new(
        spbla_multidev::DeviceGrid::new(devices),
        EngineConfig::default(),
    );
    let summary = spbla_durable::recover_into_engine(&engine, &name, std::path::Path::new(dir))?;
    writeln!(
        out,
        "recovered '{name}' from {dir}: checkpoint v{}, replayed {} wal records to v{}{}",
        summary.checkpoint_version,
        summary.replayed,
        summary.head_version,
        if summary.torn_tail {
            " (torn record at the log tail discarded)"
        } else {
            ""
        }
    )?;
    let host = engine.host_graph(&name)?;
    writeln!(
        out,
        "  graph: {} vertices, {} edges, {} labels",
        host.n_vertices(),
        host.n_edges(),
        host.labels().len()
    )?;
    // Serve one closure query from the recovered state: proof the
    // catalog is live, plus the bit-identity witness for scripting.
    let done = engine.submit(&name, Query::Closure)?.wait();
    match done.result {
        Ok(QueryResult::Pairs(pairs)) => writeln!(
            out,
            "  closure: {} reachable pairs, checksum {:016x}",
            pairs.len(),
            spbla_stream::checksum_pairs(&pairs)
        )?,
        Ok(other) => return Err(CliError::run(format!("unexpected result {other:?}"))),
        Err(e) => return Err(CliError::run(format!("recovered engine failed: {e}"))),
    }
    engine.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    /// A temp path no other test (thread or process) shares: tests run
    /// on parallel threads and each removes its files on exit.
    fn temp_path(stem: &str, ext: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "spbla_cli_{stem}_{}_{}{ext}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn temp_graph() -> std::path::PathBuf {
        let path = temp_path("test", ".triples");
        std::fs::write(&path, "# vertices 4\n0 a 1\n1 a 2\n2 b 3\n").unwrap();
        path
    }

    #[test]
    fn generate_then_stats_roundtrip() {
        let out_path = temp_path("gen", ".triples");
        let msg = run_str(&[
            "generate",
            "enzyme",
            "--scale",
            "0.01",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("wrote"));
        let stats = run_str(&["stats", out_path.to_str().unwrap()]).unwrap();
        assert!(stats.contains("subClassOf"));
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn rpq_all_pairs_and_single_source() {
        let path = temp_graph();
        let p = path.to_str().unwrap();
        let all = run_str(&["rpq", p, "a . b?"]).unwrap();
        assert!(all.contains("pairs"), "{all}");
        let single = run_str(&["rpq", p, "a*", "--source", "0", "--backend", "cpu"]).unwrap();
        assert!(single.contains("reachable from 0"), "{single}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cfpq_builtin_grammars() {
        let path = temp_graph();
        let p = path.to_str().unwrap();
        // a^n b^n style grammar from a file.
        let gpath = temp_path("g", ".cfg");
        std::fs::write(&gpath, "S -> a S b | a b\n").unwrap();
        for engine in ["tns", "mtx"] {
            let out = run_str(&["cfpq", p, gpath.to_str().unwrap(), "--engine", engine]).unwrap();
            assert!(out.contains("pairs"), "{out}");
        }
        std::fs::remove_file(&gpath).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_wal_then_recover_round_trips() {
        let path = temp_graph();
        let dir = temp_path("wal", "");
        let _ = std::fs::remove_dir_all(&dir);
        let streamed = run_str(&[
            "stream",
            path.to_str().unwrap(),
            "--batches",
            "6",
            "--batch-size",
            "2",
            "--devices",
            "1",
            "--mode",
            "incremental",
            "--wal",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(streamed.contains("durably logged"), "{streamed}");
        let recovered = run_str(&["recover", dir.to_str().unwrap(), "--devices", "1"]).unwrap();
        assert!(
            recovered.contains("replayed 6 wal records to v6"),
            "{recovered}"
        );
        assert!(recovered.contains("checksum"), "{recovered}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn closure_and_bfs() {
        let path = temp_graph();
        let p = path.to_str().unwrap();
        let c = run_str(&["closure", p]).unwrap();
        assert!(c.contains("closure: 3 -> 6 pairs"), "{c}");
        // Distributed run reports the same pair count plus grid counters.
        let d = run_str(&["closure", p, "--devices", "2"]).unwrap();
        assert!(d.contains("closure: 3 -> 6 pairs on 2 devices"), "{d}");
        assert!(d.contains("d2d"), "{d}");
        assert_eq!(
            run_str(&["closure", p, "--devices", "0"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run_str(&["closure", p, "--devices", "2", "--backend", "cpu"])
                .unwrap_err()
                .code,
            2
        );
        // Condensed closure answers identically (pair count) and
        // reports the SCC structure; it refuses the grid path.
        let cc = run_str(&["closure", p, "--condense", "on"]).unwrap();
        assert!(cc.contains("closure (condensed): 3 -> 6 pairs"), "{cc}");
        assert!(cc.contains("SCCs"), "{cc}");
        assert_eq!(
            run_str(&["closure", p, "--condense", "on", "--devices", "2"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["closure", p, "--condense", "maybe"])
                .unwrap_err()
                .code,
            2
        );
        let b = run_str(&["bfs", p, "0"]).unwrap();
        assert!(b.contains("reached 4 vertices, eccentricity 3"), "{b}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_serves_closed_loop() {
        let path = temp_graph();
        let p = path.to_str().unwrap();
        let out = run_str(&[
            "engine",
            p,
            "--devices",
            "2",
            "--clients",
            "2",
            "--requests",
            "8",
        ])
        .unwrap();
        assert!(
            out.contains("served 8 requests from 2 clients on 2 devices"),
            "{out}"
        );
        assert!(out.contains("completed 8, errors 0"), "{out}");
        assert!(out.contains("plan cache"), "{out}");
        assert!(out.contains("queue depth high-water"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_flags_are_validated() {
        let path = temp_graph();
        let p = path.to_str().unwrap();
        assert_eq!(
            run_str(&["engine", p, "--devices", "0"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run_str(&["engine", p, "--clients", "0"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run_str(&["engine", "/nonexistent/file"]).unwrap_err().code,
            1
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_replays_and_cross_checks() {
        let path = temp_graph();
        let p = path.to_str().unwrap();
        let out = run_str(&[
            "stream",
            p,
            "--devices",
            "2",
            "--batches",
            "6",
            "--batch-size",
            "3",
        ])
        .unwrap();
        assert!(out.contains("6 batches of 3 ops on 2 devices"), "{out}");
        assert!(out.contains("incremental:"), "{out}");
        assert!(out.contains("recompute:"), "{out}");
        assert!(
            out.contains("checksums identical at every version"),
            "{out}"
        );
        // Single-mode runs skip the cross-check.
        let inc = run_str(&[
            "stream",
            p,
            "--batches",
            "3",
            "--mode",
            "incremental",
            "--deletes",
            "off",
        ])
        .unwrap();
        assert!(inc.contains("incremental:"), "{inc}");
        assert!(!inc.contains("recompute:"), "{inc}");
        // Flag validation.
        assert_eq!(
            run_str(&["stream", p, "--mode", "telepathy"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["stream", p, "--devices", "0"]).unwrap_err().code,
            2
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_writes_chrome_json_and_cross_checks_launches() {
        let path = temp_graph();
        let p = path.to_str().unwrap();
        let trace_path = temp_path("trace", ".json");
        let out = run_str(&["trace", p, "--out", trace_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("kernel spans"), "{out}");
        let json = std::fs::read_to_string(&trace_path).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"cat\":\"kernel\""), "{json}");
        // Flag validation: cpu backends have no launch counter.
        assert_eq!(
            run_str(&["trace", p, "--backend", "cpu"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run_str(&["trace", p, "--capacity", "0"]).unwrap_err().code,
            2
        );
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_usage_shaped() {
        assert_eq!(run_str(&[]).unwrap_err().code, 2);
        assert_eq!(run_str(&["frobnicate"]).unwrap_err().code, 2);
        assert_eq!(run_str(&["rpq"]).unwrap_err().code, 2);
        assert_eq!(
            run_str(&["rpq", "/nonexistent/file", "a"])
                .unwrap_err()
                .code,
            1
        );
        let path = temp_graph();
        for backend in ["gpu9000", "dense"] {
            let err =
                run_str(&["rpq", path.to_str().unwrap(), "a", "--backend", backend]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("(cpu | cuda | cl)"), "{}", err.message);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn help_prints_usage() {
        let h = run_str(&["help"]).unwrap();
        assert!(h.contains("usage: spbla"));
    }
}
