//! `compare A.json B.json`: for every workload and every bounded metric,
//! is B better, worse, the same, or can the runs not tell?

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::catalog::{Better, Metric, END_TO_END, PER_LAYER};
use crate::json::{self, Json};
use crate::stats::{median, spread};

/// The runs of a result file: workload → metric → one value per run.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// of runs overlap, so neither "same" nor a change can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the baseline `a` for `metric`. Returns the verdict
/// and by how much B's median is worse, as a share of A's (negative:
/// better).
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let is_better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let separated = |winner: &[f64], loser: &[f64]| {
        winner
            .iter()
            .all(|&w| loser.iter().all(|&l| is_better(w, l)))
    };
    let noisy = spread(a).max(spread(b)) > metric.bound;
    let verdict = if noisy && separated(b, a) {
        Verdict::Better
    } else if noisy && !separated(a, b) {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no \"runs\" list"))?;
    let mut results = Results::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without a workload"))?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{path}: run without metrics"))?;
        let entry = results.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            if let Some(v) = value.as_f64() {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(results)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounded: Vec<&Metric> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .filter(|m| m.bound > 0.0)
        .collect();
    let mut worse = 0;
    let mut unresolved = 0;
    println!("baseline {a_path}, candidate {b_path}; +x% means the candidate's median is x% worse");
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload}: missing from {b_path}");
            worse += 1;
            continue;
        };
        let mut cells = Vec::new();
        for metric in &bounded {
            let (Some(av), Some(bv)) = (a_metrics.get(metric.name), b_metrics.get(metric.name))
            else {
                continue;
            };
            // 0 on both sides: the workload does not measure it.
            if median(av) == 0.0 && median(bv) == 0.0 {
                continue;
            }
            let (verdict, worse_by) = judge(metric, av, bv);
            worse += u32::from(verdict == Verdict::Worse);
            unresolved += u32::from(verdict == Verdict::Unresolved);
            cells.push(format!(
                "{} {} {:+.1}%",
                metric.name,
                verdict.as_str(),
                worse_by * 100.0
            ));
        }
        println!("{workload}: {}", cells.join(" | "));
        // Counts explain a time delta; they should repeat exactly.
        let moved: Vec<String> = PER_LAYER
            .iter()
            .filter(|m| (m.unit == "count" || m.unit == "bytes") && !m.name.starts_with("proc."))
            .filter_map(|m| {
                let (x, y) = (
                    median(a_metrics.get(m.name)?),
                    median(b_metrics.get(m.name)?),
                );
                (x != y).then(|| format!("{} {x} -> {y}", m.name))
            })
            .collect();
        if !moved.is_empty() {
            println!("  counts that differ: {}", moved.join(", "));
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Better;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let metric = |better| Metric {
            name: "m",
            unit: "s",
            better,
            bound: 0.10,
        };
        let wall = &metric(Better::Lower);
        assert_eq!(judge(wall, &[1.0], &[1.05]).0, Verdict::Same);
        assert_eq!(judge(wall, &[1.0], &[1.2]).0, Verdict::Worse);
        assert_eq!(judge(wall, &[1.0], &[0.8]).0, Verdict::Better);
        // Tight runs on both sides, 20 % apart: worse.
        assert_eq!(
            judge(wall, &[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19]).0,
            Verdict::Worse
        );
        // Spread wider than the bound and overlapping: unresolved, even
        // though the medians agree.
        let noisy_a = [0.7, 1.0, 1.3, 0.8, 1.2];
        let noisy_b = [0.75, 1.0, 1.25, 0.85, 1.15];
        assert_eq!(judge(wall, &noisy_a, &noisy_b).0, Verdict::Unresolved);
        // Noisy, but every candidate run beats every baseline run.
        assert_eq!(judge(wall, &noisy_a, &[0.5, 0.6, 0.4]).0, Verdict::Better);
        // Noisy, and every candidate run loses to every baseline run.
        assert_eq!(judge(wall, &noisy_a, &[2.0, 2.5, 1.9]).0, Verdict::Worse);
        let rate = &metric(Better::Higher);
        assert_eq!(judge(rate, &[1000.0], &[800.0]).0, Verdict::Worse);
        assert_eq!(judge(rate, &[1000.0], &[1300.0]).0, Verdict::Better);
    }
}
