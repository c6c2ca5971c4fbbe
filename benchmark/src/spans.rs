//! The benchmark's own spans, recorded around every call into a layer
//! during the traced pass, plus the harvest of the program's
//! `kernel`/`xfer` spans from `spbla_obs::trace_global()` and the
//! self-time attribution over the resulting tree.
//!
//! All timestamps are nanoseconds on the global trace's clock, so the
//! benchmark's spans and the program's spans share one time axis.

use std::collections::BTreeMap;

use spbla_obs::trace_global;

/// The layers time is attributed to: the crates a pass calls into, plus
/// `bench` for the harness's own time inside a pass (checks,
/// bookkeeping, idle gaps). `lang` and `data` only run during set-up.
pub const LAYERS: [&str; 10] = [
    "bench", "gpu-sim", "core", "generic", "graph", "prep", "multidev", "engine", "stream",
    "durable",
];

/// One span. `parent == None` marks a root; `device` is the simulated
/// device ordinal the work ran on, when the caller knows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Pass number for bulk workloads, request or batch number otherwise.
    pub id: u64,
    pub device: Option<u64>,
}

/// In-memory span store for one traced pass.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    /// Program spans that no benchmark span contained.
    pub unparented: u64,
}

/// Now, on the shared clock.
pub fn now_ns() -> u64 {
    trace_global().now_ns()
}

impl SpanLog {
    /// Record a finished span and return its index (for `parent`).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Adopt the program's `kernel` and `xfer` spans as `gpu-sim`
    /// children of the benchmark spans that contain them in time: the
    /// innermost containing span, and when several unrelated spans
    /// contain it (concurrent requests) every innermost one whose
    /// device matches — a coalesced batch serves all its requests with
    /// one kernel chain. Returns `(harvested, dropped)`.
    pub fn harvest_program_spans(&mut self) -> (u64, u64) {
        let snap = trace_global().snapshot();
        let own = self.spans.len();
        // A span is a leaf candidate if no other benchmark span names it
        // as parent.
        let mut has_child = vec![false; own];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let mut leaves: Vec<usize> = (0..own).filter(|&i| !has_child[i]).collect();
        leaves.sort_by_key(|&i| self.spans[i].start_ns);
        let length = |s: &Span| s.end_ns - s.start_ns;
        let longest = leaves
            .iter()
            .map(|&i| length(&self.spans[i]))
            .max()
            .unwrap_or(0);
        let mut harvested = 0;
        for rec in snap
            .spans
            .iter()
            .filter(|r| r.cat == "kernel" || r.cat == "xfer")
        {
            let (start, end) = (rec.start_ns, rec.start_ns + rec.dur_ns);
            // Leaves starting at or before `start`; scan back over the
            // ones that are long enough to still contain it.
            let upto = leaves.partition_point(|&i| self.spans[i].start_ns <= start);
            let mut parents: Vec<usize> = leaves[..upto]
                .iter()
                .rev()
                .copied()
                .take_while(|&i| self.spans[i].start_ns + longest >= end)
                .filter(|&i| self.spans[i].end_ns >= end)
                .collect();
            if parents
                .iter()
                .any(|&i| self.spans[i].device == Some(rec.track))
            {
                parents.retain(|&i| self.spans[i].device == Some(rec.track));
            } else {
                parents.truncate(1);
            }
            if parents.is_empty() {
                // Not inside a leaf: fall back to the innermost
                // containing span of any depth.
                let inner = (0..own)
                    .filter(|&i| self.spans[i].start_ns <= start && self.spans[i].end_ns >= end)
                    .min_by_key(|&i| length(&self.spans[i]));
                match inner {
                    Some(i) => parents.push(i),
                    None => {
                        self.unparented += 1;
                        continue;
                    }
                }
            }
            harvested += 1;
            for p in parents {
                self.spans.push(Span {
                    name: format!("{}:{}", rec.cat, rec.name),
                    layer: "gpu-sim",
                    start_ns: start,
                    end_ns: end,
                    parent: Some(p),
                    id: self.spans[p].id,
                    device: Some(rec.track),
                });
            }
        }
        (harvested, snap.dropped)
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children are clipped to the parent and
    /// overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Seconds of self time per layer, and per `gpu-sim` span name.
    pub fn self_time_by_layer(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<String, f64>) {
        let mut by_layer = BTreeMap::new();
        let mut by_kernel = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let secs = own as f64 / 1e9;
            *by_layer.entry(s.layer).or_insert(0.0) += secs;
            if let Some(kernel) = s.name.strip_prefix("kernel:") {
                *by_kernel.entry(kernel.to_string()).or_insert(0.0) += secs;
            }
        }
        (by_layer, by_kernel)
    }

    /// Total duration of the root spans, in seconds: what the self
    /// times must add up to.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Chrome "Trace Event Format" JSON (complete events, microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                crate::json::quote(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.device.unwrap_or(0),
                s.id,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            device: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let mut log = SpanLog::default();
        let root = log.push(span("bench", 0, 1000, None));
        let call = log.push(span("core", 100, 700, Some(root)));
        // Two overlapping kernels (two devices) and one that overruns
        // its parent: union inside the parent is [150, 400) ∪ [600, 700).
        log.push(span("gpu-sim", 150, 300, Some(call)));
        log.push(span("gpu-sim", 250, 400, Some(call)));
        log.push(span("gpu-sim", 600, 900, Some(call)));
        let own = log.self_times_ns();
        assert_eq!(own[root], 1000 - 600);
        assert_eq!(own[call], 600 - 250 - 100);
        let (by_layer, _) = log.self_time_by_layer();
        assert_eq!(by_layer["bench"], 400e-9);
        assert_eq!(by_layer["core"], 250e-9);
        assert_eq!(log.root_seconds(), 1000e-9);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let mut log = SpanLog::default();
        let root = log.push(span("bench", 0, 10_000, None));
        let mut at = 0;
        for i in 0..20u64 {
            let call = log.push(span("graph", at + 10, at + 400, Some(root)));
            log.push(span("gpu-sim", at + 20, at + 100 + i, Some(call)));
            log.push(span("gpu-sim", at + 200, at + 390, Some(call)));
            at += 500;
        }
        let total: u64 = log.self_times_ns().iter().sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn chrome_json_lists_every_span() {
        let mut log = SpanLog::default();
        let root = log.push(span("bench", 0, 2_000, None));
        log.push(span("core", 500, 1_500, Some(root)));
        let json = log.chrome_json();
        let parsed = crate::json::parse(&json).expect("well-formed");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
    }
}
