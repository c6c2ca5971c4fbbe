//! The repo's benchmark. `run` measures the six workloads and prints
//! every metric by name with its unit; `compare` judges two result
//! files against the catalogue's bounds. See `README.md` beside this
//! package for the metric catalogue and the frozen sizes.

mod catalog;
mod compare;
mod harness;
mod inputs;
mod json;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use harness::{RunResult, Size};
use json::{object, Json};

const USAGE: &str = "\
usage: spbla-benchmark [run] [--workload NAME|all] [--seed N] [--seconds N]
                       [--trace [0|1]] [--quick] [--repeat N] [--out FILE]
       spbla-benchmark compare A.json B.json
       spbla-benchmark manifest

run       measure the named workload (default: all six, one after the
          other), print every metric, and end with one JSON line holding
          the end-to-end metrics (--trace 0) or the per-layer metrics
          (--trace 1, which adds one traced pass and writes
          trace-<workload>.json)
--quick   shrunk sizes and a one-second run: checks the harness in a few
          seconds, records nothing
--repeat  run N times; --out FILE collects every run for `compare`
compare   verdict per end-to-end metric and workload; exit 1 on `worse`
manifest  print BENCHMARK.json as the catalogue defines it

Traces and durability directories go to $SPBLA_BENCHMARK_OUT (run.sh sets it
to benchmark/out beside itself; default benchmark/out under the current
directory).";

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    repeat: usize,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().map(|w| w.0).collect(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        size: Size::Full,
        repeat: 1,
        out: None,
        out_dir: std::env::var_os("SPBLA_BENCHMARK_OUT")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        if flag == "--quick" {
            o.size = Size::Quick;
            o.seconds = 1.0;
            continue;
        }
        if flag == "--trace" {
            // Bare `--trace` means on; `--trace 0|1` is the driver's form.
            o.trace = match args.get(i).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    false
                }
                Some("1") => {
                    i += 1;
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = args.get(i).ok_or_else(|| format!("{flag} needs a value"))?;
        i += 1;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag {
            "--workload" if value == "all" => {}
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| w.0 == value);
                o.workloads = vec![
                    known
                        .ok_or_else(|| format!("unknown workload {value:?}"))?
                        .0,
                ];
            }
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.max(1) as f64,
            "--repeat" => o.repeat = number()?.max(1) as usize,
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(o)
}

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 15;

fn run_one(name: &'static str, o: &Options) -> RunResult {
    let (seed, seconds, trace, size) = (o.seed, o.seconds, o.trace, o.size);
    macro_rules! go {
        ($module:ident, $own_roots:expr) => {
            harness::run(name, seed, seconds, trace, $own_roots, |detail| {
                workloads::$module::setup(seed, size, detail)
            })
        };
    }
    match name {
        "ops" => go!(ops, false),
        "rpq_index" => go!(rpq_index, false),
        "cfpq_index" => go!(cfpq_index, false),
        "closure_grid" => go!(closure_grid, false),
        "serve_mixed" => go!(serve_mixed, true),
        "stream_durable" => go!(stream_durable, true),
        other => unreachable!("{other} is not in the catalogue"),
    }
}

/// Nproc, CPU model, compiler and commit: what a number was measured on.
fn fingerprint() -> Json {
    let run = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(run("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(run("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

fn print_report(r: &RunResult, trace: bool) {
    println!("\n== {} (seed {}) ==", r.workload, r.seed);
    let line = |metric: &Metric, value: f64| {
        println!("  {:<44} {:>16.6} {}", metric.name, value, metric.unit);
    };
    println!(" end to end:");
    for metric in END_TO_END {
        line(metric, r.metrics.get(metric.name).copied().unwrap_or(0.0));
    }
    println!(" per layer:");
    for metric in PER_LAYER {
        // Layers this workload never entered read 0; say so once per
        // layer instead of once per metric.
        match r.metrics.get(metric.name) {
            Some(&v) if v != 0.0 || !metric.name.contains('.') => line(metric, v),
            _ => {}
        }
    }
    let idle: Vec<&str> = spans::LAYERS
        .iter()
        .copied()
        .filter(|layer| {
            let prefix = format!("{layer}.");
            !r.metrics
                .iter()
                .any(|(k, &v)| k.starts_with(&prefix) && v != 0.0)
        })
        .collect();
    println!(" layers with zero calls or counts: {}", idle.join(" "));
    if trace {
        println!(" costliest kernels of the traced pass (self seconds):");
        let mut top: Vec<_> = r
            .extra
            .iter()
            .filter(|(k, _)| k.starts_with("top_kernel_s."))
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, secs) in top {
            println!("  {:<44} {:>16.6} s", &name["top_kernel_s.".len()..], secs);
        }
    }
    for (name, value) in r
        .extra
        .iter()
        .filter(|(k, _)| !k.starts_with("top_kernel_s."))
    {
        println!("  ({name} = {value})");
    }
}

/// The one-line result the driver reads.
fn contract_line(r: &RunResult, trace: bool) -> String {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let metrics = list.iter().map(|metric| {
        let value = r.metrics.get(metric.name).copied().unwrap_or(0.0);
        let entry = object([
            ("value", Json::Num(value)),
            ("unit", Json::Str(metric.unit.into())),
        ]);
        (metric.name, entry)
    });
    object([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", object(metrics)),
    ])
    .render()
}

fn run_json(r: &RunResult) -> Json {
    let metrics = r.metrics.iter().map(|(k, &v)| (k.clone(), Json::Num(v)));
    object([
        ("workload", Json::Str(r.workload.into())),
        ("seed", Json::Num(r.seed as f64)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", object(metrics)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_run(args)?;
    workloads::set_out_dir(&o.out_dir);
    let mut runs = Vec::new();
    let mut failed = 0;
    let mut last = String::new();
    for _ in 0..o.repeat {
        for &name in &o.workloads {
            let result = run_one(name, &o);
            print_report(&result, o.trace);
            if let (Some(trace), Size::Full) = (&result.trace_json, o.size) {
                write_file(&o.out_dir.join(format!("trace-{name}.json")), trace)?;
            }
            failed += result.failed;
            last = contract_line(&result, o.trace);
            runs.push(run_json(&result));
        }
    }
    if let (Some(path), Size::Full) = (&o.out, o.size) {
        let doc = object([("fingerprint", fingerprint()), ("runs", Json::Arr(runs))]);
        write_file(path, &(doc.render() + "\n"))?;
    }
    println!("{last}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, from the catalogue.
fn manifest() -> String {
    let entry = |metric: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name", Json::Str(metric.name.into())),
            ("unit", Json::Str(metric.unit.into())),
            ("better", Json::Str(metric.better.as_str().into())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(metric.bound)));
        }
        // Key order as in the contract's example, not alphabetical.
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}: {}", json::quote(k), v.render()))
            .collect();
        format!("    {{{}}}", body.join(", "))
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(name),
                json::quote(why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|metric| entry(metric, true))
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|metric| entry(metric, false))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("spbla-benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
