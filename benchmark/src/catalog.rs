//! The metric catalogue: every name the benchmark prints, with its
//! unit, the direction that is better, and the regression bound. The
//! README explains each entry; `BENCHMARK.json` must list exactly these
//! names (a test holds it to that).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it worse; 0 for metrics that explain a
    /// change instead of judging it.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The six workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "ops",
        "library primitives, Boolean vs generic: core kernels take nearly all the time, launches are few, graph/engine/stream/durable are bypassed",
    ),
    (
        "rpq_index",
        "RPQ index builds (Fig. 3): few long fused-SpGEMM rounds, so hash-probe redundancy dominates and launch overhead does not",
    ),
    (
        "cfpq_index",
        "Tns and Mtx CFPQ index builds (Table IV): thousands of small launches, so launch cost and host orchestration dominate",
    ),
    (
        "closure_grid",
        "bulk transitive closure flat, blocked, on a device grid and condensed: the only bulk user of multidev and prep",
    ),
    (
        "serve_mixed",
        "engine under a read-only request mix, closed loop then open loop at two fixed rates: queue, plan cache, residency and batching do the work",
    ),
    (
        "stream_durable",
        "update batches through WAL append then incremental views, then recovery: tiny-delta kernels, fsync and DRed deletes no other workload touches",
    ),
];

/// Metrics every workload measures, reported by an untraced run. These
/// are the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, 0.25),
    m("wall_s", "s", Lower, 0.25),
    m("peak_dev_bytes", "bytes", Lower, 0.05),
    m("req_per_s", "1/s", Higher, 0.25),
    m("lat_p50_ms", "ms", Lower, 0.25),
    m("lat_p99_ms", "ms", Lower, 0.25),
];

/// End-to-end metrics that only one workload has (0 elsewhere, so they
/// cannot sit in the contract's `end_to_end` list, whose entries must
/// never be 0), `failed_frac`, and the per-layer metrics. Together the
/// `per_layer` list of `BENCHMARK.json`; `compare` judges the ones with
/// a bound on the workloads that measure them.
pub const PER_LAYER: &[Metric] = &[
    // Workload-specific end-to-end metrics.
    m("bool_speedup_mxm", "ratio", Higher, 0.07),
    m("bool_speedup_add", "ratio", Higher, 0.07),
    m("scale_eff", "ratio", Higher, 0.07),
    m("ok_within_limit_frac", "frac", Higher, 0.02),
    m("gen_late_p99_ms", "ms", Lower, 0.0),
    m("recover_s", "s", Lower, 0.25),
    m("wal_amp", "ratio", Lower, 0.01),
    m("failed_frac", "frac", Lower, 0.0),
    m("passes", "count", Higher, 0.0),
    m("lat_samples", "count", Higher, 0.0),
    // gpu-sim
    m("gpu-sim.launches", "count", Lower, 0.0),
    m("gpu-sim.blocks", "count", Lower, 0.0),
    m("gpu-sim.allocations", "count", Lower, 0.0),
    m("gpu-sim.h2d_bytes", "bytes", Lower, 0.0),
    m("gpu-sim.d2h_bytes", "bytes", Lower, 0.0),
    m("gpu-sim.d2d_bytes", "bytes", Lower, 0.0),
    m("gpu-sim.peak_bytes", "bytes", Lower, 0.0),
    m("gpu-sim.launch_us", "us", Lower, 0.0),
    m("gpu-sim.scan_s", "s", Lower, 0.0),
    m("gpu-sim.sort_s", "s", Lower, 0.0),
    m("gpu-sim.compact_s", "s", Lower, 0.0),
    // proc
    m("proc.user_s", "s", Lower, 0.0),
    m("proc.sys_s", "s", Lower, 0.0),
    m("proc.max_rss_bytes", "bytes", Lower, 0.0),
    // core
    m("core.mxm_s", "s", Lower, 0.0),
    m("core.mxm_powerlaw_s", "s", Lower, 0.0),
    m("core.add_s", "s", Lower, 0.0),
    m("core.kron_s", "s", Lower, 0.0),
    m("core.transpose_s", "s", Lower, 0.0),
    m("core.fused_round_s", "s", Lower, 0.0),
    m("core.upload_s", "s", Lower, 0.0),
    m("core.read_s", "s", Lower, 0.0),
    m("core.mxm_s.cl_sim", "s", Lower, 0.0),
    m("core.add_s.cl_sim", "s", Lower, 0.0),
    m("core.mxm_s.blocked", "s", Lower, 0.0),
    m("core.add_s.blocked", "s", Lower, 0.0),
    m("core.accum_insertions", "count", Lower, 0.0),
    m("core.insert_per_nnz", "ratio", Lower, 0.0),
    // generic
    m("generic.mxm_f32_s", "s", Lower, 0.0),
    m("generic.mxm_f64_s", "s", Lower, 0.0),
    m("generic.add_s", "s", Lower, 0.0),
    m("generic.kron_s", "s", Lower, 0.0),
    m("generic.product_bytes", "bytes", Lower, 0.0),
    // lang, data
    m("lang.regex_compile_s", "s", Lower, 0.0),
    m("lang.cnf_s", "s", Lower, 0.0),
    m("data.generate_s", "s", Lower, 0.0),
    // graph
    m("graph.rpq_heavy_s", "s", Lower, 0.0),
    m("graph.rpq_q9_s", "s", Lower, 0.0),
    m("graph.rpq_q15_s", "s", Lower, 0.0),
    m("graph.rpq_chain_s", "s", Lower, 0.0),
    m("graph.rpq_taxonomy_s", "s", Lower, 0.0),
    m("graph.rpq_index_nnz", "count", Lower, 0.0),
    m("graph.tns_s.gohier", "s", Lower, 0.0),
    m("graph.tns_s.taxonomy", "s", Lower, 0.0),
    m("graph.tns_s.drivers", "s", Lower, 0.0),
    m("graph.mtx_s.gohier", "s", Lower, 0.0),
    m("graph.mtx_s.taxonomy", "s", Lower, 0.0),
    m("graph.mtx_s.drivers", "s", Lower, 0.0),
    m("graph.tns_iterations", "count", Lower, 0.0),
    m("graph.mtx_iterations", "count", Lower, 0.0),
    m("graph.closure_1dev_s", "s", Lower, 0.0),
    m("graph.closure_blocked_s", "s", Lower, 0.0),
    // prep, multidev
    m("prep.condensed_closure_s", "s", Lower, 0.0),
    m("prep.condensation_ratio", "ratio", Lower, 0.0),
    m("multidev.closure_grid_s", "s", Lower, 0.0),
    m("multidev.from_csr_s", "s", Lower, 0.0),
    m("multidev.all_gather_s", "s", Lower, 0.0),
    m("multidev.max_dev_peak_bytes", "bytes", Lower, 0.0),
    // engine
    m("engine.queue_wait_p50_ms", "ms", Lower, 0.0),
    m("engine.queue_wait_p99_ms", "ms", Lower, 0.0),
    m("engine.service_p50_ms", "ms", Lower, 0.0),
    m("engine.submit_us", "us", Lower, 0.0),
    m("engine.plan_hit_rate", "frac", Higher, 0.0),
    m("engine.residency_hit_rate", "frac", Higher, 0.0),
    m("engine.evictions", "count", Lower, 0.0),
    m("engine.batched_frac", "frac", Higher, 0.0),
    m("engine.launches_per_req", "ratio", Lower, 0.0),
    m("engine.rejected", "count", Lower, 0.0),
    m("engine.queue_depth_hwm", "count", Lower, 0.0),
    // stream
    m("stream.apply_p50_ms", "ms", Lower, 0.0),
    m("stream.apply_p99_ms", "ms", Lower, 0.0),
    m("stream.insert_apply_ms", "ms", Lower, 0.0),
    m("stream.delete_apply_ms", "ms", Lower, 0.0),
    m("stream.view_read_ms", "ms", Lower, 0.0),
    m("stream.fallbacks", "count", Lower, 0.0),
    m("stream.recomputes", "count", Lower, 0.0),
    m("stream.launches_per_batch", "ratio", Lower, 0.0),
    // durable
    m("durable.append_p50_ms", "ms", Lower, 0.0),
    m("durable.append_p99_ms", "ms", Lower, 0.0),
    m("durable.fsyncs", "count", Lower, 0.0),
    m("durable.wal_bytes", "bytes", Lower, 0.0),
    m("durable.checkpoint_s", "s", Lower, 0.0),
    m("durable.checkpoint_bytes", "bytes", Lower, 0.0),
    m("durable.replayed_batches", "count", Lower, 0.0),
    // obs: traced pass only
    m("obs.trace_overhead_frac", "frac", Lower, 0.0),
    m("obs.spans", "count", Lower, 0.0),
    m("obs.spans_dropped", "count", Lower, 0.0),
    m("obs.self_s.bench", "s", Lower, 0.0),
    m("obs.self_s.gpu-sim", "s", Lower, 0.0),
    m("obs.self_s.core", "s", Lower, 0.0),
    m("obs.self_s.generic", "s", Lower, 0.0),
    m("obs.self_s.graph", "s", Lower, 0.0),
    m("obs.self_s.prep", "s", Lower, 0.0),
    m("obs.self_s.multidev", "s", Lower, 0.0),
    m("obs.self_s.engine", "s", Lower, 0.0),
    m("obs.self_s.stream", "s", Lower, 0.0),
    m("obs.self_s.durable", "s", Lower, 0.0),
    m("obs.kernel_s.mxm_accum_compmask", "s", Lower, 0.0),
    m("obs.kernel_s.ewise_add", "s", Lower, 0.0),
    m("obs.kernel_s.mxm", "s", Lower, 0.0),
    m("obs.kernel_s.kron", "s", Lower, 0.0),
    m("obs.kernel_s.submatrix", "s", Lower, 0.0),
    m("obs.kernel_s.sort_pass", "s", Lower, 0.0),
    m("obs.kernel_s.frontier_push", "s", Lower, 0.0),
    m("obs.kernel_s.transpose", "s", Lower, 0.0),
    m("obs.kernel_s.scan_apply", "s", Lower, 0.0),
    m("obs.kernel_s.scan_partials", "s", Lower, 0.0),
    m("obs.kernel_s.compact_scatter", "s", Lower, 0.0),
    m("obs.kernel_s.mxm_compmask", "s", Lower, 0.0),
    m("obs.kernel_s.other", "s", Lower, 0.0),
];

/// The catalogue entry for `name`, from either list.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!((0.0..=0.25).contains(&metric.bound));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    /// `BENCHMARK.json` at the repo root is written by hand; it must say
    /// what the catalogue says.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names("workloads"), workloads);
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), list.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(list) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(metric.better.as_str())
                );
                if key == "end_to_end" {
                    assert_eq!(
                        entry.get("bound").and_then(Json::as_f64),
                        Some(metric.bound)
                    );
                }
            }
        }
    }
}
