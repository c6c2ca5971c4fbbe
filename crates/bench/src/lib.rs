//! Shared harness for the paper-reproduction benchmarks: scaled dataset
//! suite, timing helpers, and table formatting used by the `report`
//! binary (regenerates every table/figure).

use std::time::{Duration, Instant};

use spbla_core::{Instance, Matrix};
use spbla_data::alias::kernel_module_like;
use spbla_data::lubm::{lubm_like, LubmConfig};
use spbla_data::rdf;
use spbla_graph::LabeledGraph;
use spbla_lang::SymbolTable;

/// Run `f` once, returning its wall time.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Average wall time over `runs` runs (the paper averages over 5).
pub fn time_avg(runs: usize, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    t0.elapsed() / runs as u32
}

/// Default dataset scale for the report binary: small enough that the
/// whole `report all` run finishes in minutes on a laptop, large enough
/// that the relative shapes of the paper survive. Overridable with the
/// `SPBLA_BENCH_SCALE` environment variable (e.g. `=0.05` for a longer,
/// closer-to-paper run).
pub fn bench_scale() -> f64 {
    std::env::var("SPBLA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01)
}

/// The LUBM ladder of Table I / Figure 2, as university counts chosen to
/// grow linearly like the paper's 1k → 2.3M vertex ladder.
pub fn lubm_ladder() -> Vec<(&'static str, usize)> {
    vec![
        ("LUBM1k", 2),
        ("LUBM3.5k", 6),
        ("LUBM5.9k", 10),
        ("LUBM1M", 20),
        ("LUBM1.7M", 34),
        ("LUBM2.3M", 46),
    ]
}

/// Generate one LUBM ladder rung.
pub fn lubm_rung(universities: usize, table: &mut SymbolTable) -> LabeledGraph {
    lubm_like(universities, &LubmConfig::default(), table, 0xCAFE)
}

/// The real-world RDF suite of Table I (Figure 3's x-axis), scaled.
/// Per-graph factors keep the laptop run bounded: taxonomy's deep
/// `subClassOf` hierarchy makes its star queries disproportionately
/// expensive (visible in the paper's Figure 3 too — it is the slowest
/// graph despite not being the largest), so its rung is kept smaller.
pub fn rpq_rdf_suite(table: &mut SymbolTable, scale: f64) -> Vec<(String, LabeledGraph)> {
    vec![
        (
            "uniprotkb".into(),
            rdf::uniprotkb_like(scale * 0.6, table, 1),
        ),
        (
            "proteomes".into(),
            rdf::proteomes_like(scale * 0.6, table, 2),
        ),
        (
            "taxonomy".into(),
            rdf::taxonomy_like(scale * 0.12, table, 3),
        ),
        (
            "geospecies".into(),
            rdf::geospecies_like(scale * 3.0, table, 4),
        ),
        (
            "mappingbased".into(),
            rdf::dbpedia_like(scale * 0.6, table, 5),
        ),
    ]
}

/// The CFPQ RDF suite of Table III (top half), scaled. Inverse edges are
/// added because the same-generation queries consume `label_r` symbols.
pub fn cfpq_rdf_suite(table: &mut SymbolTable, scale: f64) -> Vec<(String, LabeledGraph)> {
    let raw: Vec<(String, LabeledGraph)> = vec![
        ("eclass_514en".into(), rdf::eclass_like(scale, table, 11)),
        ("enzyme".into(), rdf::enzyme_like(scale * 2.0, table, 12)),
        ("geospecies".into(), rdf::geospecies_like(scale, table, 13)),
        ("go".into(), rdf::go_like(scale, table, 14)),
        // go-hierarchy is a dense DAG whose same-generation relation is
        // near-quadratic; keep its rung smaller so `report all` stays
        // laptop-sized (its *relative* cost still dominates, as in the
        // paper, where it is Mtx's worst RDF case).
        (
            "go-hierarchy".into(),
            rdf::go_hierarchy_like(scale * 0.5, table, 15),
        ),
        ("pathways".into(), rdf::pathways_like(1.0, table, 16)),
        (
            "taxonomy".into(),
            rdf::taxonomy_like(scale * 0.2, table, 17),
        ),
    ];
    raw.into_iter()
        .map(|(n, g)| {
            let gi = g.with_inverses(table);
            (n, gi)
        })
        .collect()
}

/// The kernel-module alias suite of Table III (bottom half), scaled,
/// with inverses.
pub fn alias_suite(table: &mut SymbolTable, scale: f64) -> Vec<(String, LabeledGraph)> {
    ["arch", "crypto", "drivers", "fs"]
        .iter()
        .map(|name| {
            let g = kernel_module_like(name, scale, table, 21).with_inverses(table);
            (name.to_string(), g)
        })
        .collect()
}

/// Upload a pair-list as a Boolean matrix on `inst`.
pub fn upload(inst: &Instance, n: u32, pairs: &[(u32, u32)]) -> Matrix {
    Matrix::from_pairs(inst, n, n, pairs).expect("bench pairs in bounds")
}

/// Format a duration as seconds with 3 decimals (paper style).
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_generate() {
        let mut t = SymbolTable::new();
        let rungs = lubm_ladder();
        assert_eq!(rungs.len(), 6);
        let g = lubm_rung(rungs[0].1, &mut t);
        assert!(g.n_edges() > 0);
        let cfpq = cfpq_rdf_suite(&mut t, 0.002);
        assert_eq!(cfpq.len(), 7);
        // Inverses present for the same-generation queries.
        assert!(t.get("subClassOf_r").is_some());
        let alias = alias_suite(&mut t, 0.2);
        assert_eq!(alias.len(), 4);
        assert!(t.get("d_r").is_some());
    }

    #[test]
    fn timing_helpers() {
        let (d, v) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let avg = time_avg(3, || {
            std::hint::black_box(1 + 1);
        });
        let _ = secs(avg);
    }
}
