//! Serving-layer stress: concurrent mixed RPQ/CFPQ workloads over
//! 1/2/4-device grids must return answers bit-identical to sequential
//! library execution, admission control must reject cleanly, deadlines
//! and cancellation must surface typed errors without poisoning the
//! device pool, and the whole thing must not deadlock (the tests
//! finishing *is* the deadlock check).

use std::sync::Arc;
use std::time::Duration;

use spbla_core::Instance;
use spbla_data::lubm::{lubm_like, LubmConfig};
use spbla_engine::{Engine, EngineConfig, EngineError, Query, QueryResult};
use spbla_graph::cfpq::azimov::{AzimovIndex, AzimovOptions};
use spbla_graph::closure::closure_delta;
use spbla_graph::rpq_bfs::rpq_from_sources_nfa;
use spbla_graph::{LabeledGraph, RpqIndex, RpqOptions};
use spbla_lang::dfa::Dfa;
use spbla_lang::glushkov::glushkov;
use spbla_lang::minimize::minimize;
use spbla_lang::{CnfGrammar, Grammar, Regex, SymbolTable};
use spbla_multidev::DeviceGrid;

const RPQ_TEMPLATES: [&str; 3] = [
    "memberOf . subOrganizationOf",
    "headOf . subOrganizationOf | worksFor . subOrganizationOf",
    "advisor . worksFor",
];
const SRC_TEMPLATE: &str = "memberOf . subOrganizationOf*";
const CFPQ_GRAMMAR: &str =
    "S -> subOrganizationOf_r S subOrganizationOf | subOrganizationOf_r subOrganizationOf";

fn lubm_fixture(table: &mut SymbolTable) -> LabeledGraph {
    lubm_like(1, &LubmConfig::default(), table, 0xCAFE).with_inverses(table)
}

/// Sequential oracle: the same queries executed one at a time with the
/// plain library API on a fresh single instance.
struct Expected {
    rpq: Vec<Vec<(u32, u32)>>,
    reachable: Vec<Vec<u32>>,
    cfpq: Vec<(u32, u32)>,
    closure: Vec<(u32, u32)>,
    sources: Vec<u32>,
}

fn sequential_oracle() -> Expected {
    let mut table = SymbolTable::new();
    let graph = lubm_fixture(&mut table);
    let inst = Instance::cuda_sim();
    let rpq = RPQ_TEMPLATES
        .iter()
        .map(|q| {
            let r = Regex::parse(q, &mut table).unwrap();
            RpqIndex::build(&graph, &r, &inst, &RpqOptions::default())
                .unwrap()
                .reachable_pairs()
                .unwrap()
        })
        .collect();
    let sources: Vec<u32> = (0..24).map(|i| (i * 17) % graph.n_vertices()).collect();
    let r = Regex::parse(SRC_TEMPLATE, &mut table).unwrap();
    let nfa = minimize(&Dfa::from_nfa(&glushkov(&r)));
    let reachable = sources
        .iter()
        .map(|&s| rpq_from_sources_nfa(&graph, &nfa, &[s], &inst).unwrap())
        .collect();
    let g = Grammar::parse(CFPQ_GRAMMAR, &mut table).unwrap();
    let idx = AzimovIndex::build(
        &graph,
        &CnfGrammar::from_grammar(&g),
        &inst,
        &AzimovOptions::default(),
    )
    .unwrap();
    let mut cfpq = idx.reachable_pairs();
    cfpq.sort_unstable();
    cfpq.dedup();
    let adj = spbla_core::Matrix::from_csr(&inst, graph.adjacency_csr()).unwrap();
    let mut closure = closure_delta(&adj).unwrap().read();
    closure.sort_unstable();
    Expected {
        rpq,
        reachable,
        cfpq,
        closure,
        sources,
    }
}

fn engine_on(n_devices: usize, config: EngineConfig) -> Engine {
    let engine = Engine::new(DeviceGrid::new(n_devices), config);
    engine.add_graph_with("lubm", lubm_fixture);
    engine
}

/// ≥ 64 concurrent mixed requests from 8 client threads, on 1-, 2- and
/// 4-device grids, answers compared element-for-element against the
/// sequential oracle.
#[test]
fn concurrent_mixed_load_is_bit_identical_to_sequential() {
    let expected = Arc::new(sequential_oracle());
    for n_devices in [1usize, 2, 4] {
        let engine = Arc::new(engine_on(
            n_devices,
            EngineConfig {
                queue_capacity: 1024,
                ..EngineConfig::default()
            },
        ));

        // The workload: (query, expected result), ≥64 entries.
        let mut workload: Vec<(Query, QueryResult)> = Vec::new();
        for (i, src) in expected.sources.iter().enumerate() {
            workload.push((
                Query::RpqFromSource {
                    text: SRC_TEMPLATE.into(),
                    source: *src,
                },
                QueryResult::Reachable(expected.reachable[i].clone()),
            ));
        }
        for round in 0..10 {
            for (qi, q) in RPQ_TEMPLATES.iter().enumerate() {
                workload.push((
                    Query::Rpq((*q).into()),
                    QueryResult::Pairs(expected.rpq[qi].clone()),
                ));
            }
            workload.push((
                Query::Cfpq(CFPQ_GRAMMAR.into()),
                QueryResult::Pairs(expected.cfpq.clone()),
            ));
            if round % 2 == 0 {
                workload.push((Query::Closure, QueryResult::Pairs(expected.closure.clone())));
            }
        }
        assert!(workload.len() >= 64, "workload has {}", workload.len());

        let workload = Arc::new(workload);
        let n_clients = 8usize;
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                let engine = Arc::clone(&engine);
                let workload = Arc::clone(&workload);
                std::thread::spawn(move || {
                    // Client c serves workload indices ≡ c (mod n_clients).
                    for (i, (query, want)) in workload.iter().enumerate() {
                        if i % n_clients != c {
                            continue;
                        }
                        let ticket = engine.submit("lubm", query.clone()).unwrap();
                        let done = ticket.wait();
                        let got = done
                            .result
                            .unwrap_or_else(|e| panic!("request {i} on {c} failed: {e}"));
                        assert_eq!(&got, want, "request {i} diverged from sequential");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread survives");
        }

        let stats = Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("all clients done"))
            .shutdown();
        assert_eq!(
            stats.completed,
            workload.len() as u64,
            "on {n_devices} devices"
        );
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 0);
        assert!(stats.queue_depth_hwm >= 1);
    }
}

/// `Query::ClosureCondensed` is a schedule, not a different answer: on
/// every grid width it must return exactly the pairs `Query::Closure`
/// returns, end to end through planner, catalog condensation cache and
/// worker execution.
#[test]
fn condensed_closure_serves_identical_answers() {
    for n_devices in [1usize, 2, 4] {
        let engine = engine_on(n_devices, EngineConfig::default());
        let read = |q: Query| {
            let done = engine.submit("lubm", q).unwrap().wait();
            match done.result.unwrap() {
                QueryResult::Pairs(p) => p,
                other => panic!("unexpected result {other:?}"),
            }
        };
        let direct = read(Query::Closure);
        let condensed = read(Query::ClosureCondensed);
        assert_eq!(
            direct, condensed,
            "condensed closure diverged on {n_devices} devices"
        );
        // A second condensed run hits the catalog's condensation cache.
        let again = read(Query::ClosureCondensed);
        assert_eq!(again, direct);
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.completed, 3);
    }
}

/// Tiered admission at its exact boundaries: with
/// `batch_admission_fraction` 0.75 the batch tier bounces at
/// ⌊0.75·capacity⌋ while interactive fills the whole queue; 0.0 clamps
/// to the documented one-slot floor; 1.0 makes the tiers identical.
/// Each rejection lands in its tier's
/// `spbla_engine_rejections_total{tier}` cell, which `EngineStats`
/// mirrors.
#[test]
fn tiered_admission_boundaries_are_exact() {
    use spbla_engine::QosTier;

    let launches =
        |engine: &Engine| -> u64 { engine.stats().devices.iter().map(|d| d.launches).sum() };
    // Submit a closure and wait until the single worker is provably
    // inside it (its first kernel launch landed): from then on the
    // queue holds exactly the requests submitted below, because every
    // filler is itself a slow closure.
    let occupy_worker = |engine: &Engine| {
        let before = launches(engine);
        let busy = engine.submit("lubm", Query::Closure).unwrap();
        while launches(engine) == before {
            std::thread::yield_now();
        }
        busy
    };
    let overloaded = |r: Result<spbla_engine::Ticket, EngineError>| match r {
        Err(EngineError::Overloaded {
            depth,
            capacity,
            tier,
        }) => (depth, capacity, tier),
        Ok(_) => panic!("expected Overloaded, request was admitted"),
        Err(other) => panic!("expected Overloaded, got {other}"),
    };

    // fraction 0.75, capacity 8: batch limit is 6.
    let engine = engine_on(
        1,
        EngineConfig {
            queue_capacity: 8,
            batch_admission_fraction: 0.75,
            ..EngineConfig::default()
        },
    );
    let mut tickets = vec![occupy_worker(&engine)];
    for _ in 0..5 {
        tickets.push(engine.submit("lubm", Query::Closure).unwrap());
    }
    // Depth 5 < 6: the batch tier's last slot is still open.
    tickets.push(
        engine
            .submit_tiered("lubm", Query::Closure, QosTier::Batch, None)
            .unwrap(),
    );
    // Depth 6 = the batch limit: batch bounces, interactive continues.
    assert_eq!(
        overloaded(engine.submit_tiered("lubm", Query::Closure, QosTier::Batch, None)),
        (6, 6, QosTier::Batch)
    );
    tickets.push(engine.submit("lubm", Query::Closure).unwrap());
    tickets.push(engine.submit("lubm", Query::Closure).unwrap());
    // Depth 8 = full queue: now interactive bounces too.
    assert_eq!(
        overloaded(engine.submit("lubm", Query::Closure)),
        (8, 8, QosTier::Interactive)
    );
    for t in tickets {
        t.wait().result.expect("admitted requests complete");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.rejected_interactive, 1);
    assert_eq!(stats.rejected_batch, 1);
    assert_eq!(
        stats.rejected,
        stats.rejected_interactive + stats.rejected_batch
    );
    assert_eq!(stats.completed, 9);

    // fraction 0.0: clamped to one batch slot, so an idle engine still
    // admits a lone batch request, and any queued work shuts the tier.
    let engine = engine_on(
        1,
        EngineConfig {
            queue_capacity: 4,
            batch_admission_fraction: 0.0,
            ..EngineConfig::default()
        },
    );
    let lone = engine
        .submit_tiered("lubm", Query::Closure, QosTier::Batch, None)
        .expect("empty queue admits one batch request even at fraction 0.0");
    while launches(&engine) == 0 {
        std::thread::yield_now();
    }
    let filler = engine.submit("lubm", Query::Closure).unwrap();
    assert_eq!(
        overloaded(engine.submit_tiered("lubm", Query::Closure, QosTier::Batch, None)),
        (1, 1, QosTier::Batch)
    );
    lone.wait().result.unwrap();
    filler.wait().result.unwrap();
    let stats = engine.shutdown();
    assert_eq!(stats.rejected_batch, 1);
    assert_eq!(stats.rejected_interactive, 0);

    // fraction 1.0: the tiers are indistinguishable — batch fills the
    // queue to capacity and bounces exactly where interactive does.
    let engine = engine_on(
        1,
        EngineConfig {
            queue_capacity: 2,
            batch_admission_fraction: 1.0,
            ..EngineConfig::default()
        },
    );
    let busy = occupy_worker(&engine);
    let t1 = engine
        .submit_tiered("lubm", Query::Closure, QosTier::Batch, None)
        .unwrap();
    let t2 = engine
        .submit_tiered("lubm", Query::Closure, QosTier::Batch, None)
        .unwrap();
    assert_eq!(
        overloaded(engine.submit_tiered("lubm", Query::Closure, QosTier::Batch, None)),
        (2, 2, QosTier::Batch)
    );
    assert_eq!(
        overloaded(engine.submit("lubm", Query::Closure)),
        (2, 2, QosTier::Interactive)
    );
    for t in [busy, t1, t2] {
        t.wait().result.unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!(stats.rejected_batch, 1);
    assert_eq!(stats.rejected_interactive, 1);
}

/// A full admission queue rejects with typed `Overloaded`, nothing
/// blocks, and every admitted request still completes.
#[test]
fn overload_rejects_cleanly() {
    let engine = engine_on(
        1,
        EngineConfig {
            queue_capacity: 2,
            ..EngineConfig::default()
        },
    );
    // Occupy the single worker with a slow request, then flood.
    let slow = engine.submit("lubm", Query::Closure).unwrap();
    let mut accepted = vec![slow];
    let mut rejected = 0u32;
    for i in 0..32 {
        match engine.submit(
            "lubm",
            Query::RpqFromSource {
                text: SRC_TEMPLATE.into(),
                source: i,
            },
        ) {
            Ok(t) => accepted.push(t),
            Err(EngineError::Overloaded {
                depth,
                capacity,
                tier,
            }) => {
                assert_eq!(capacity, 2);
                assert_eq!(depth, 2);
                assert_eq!(tier, spbla_engine::QosTier::Interactive);
                rejected += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(rejected > 0, "queue of 2 never overflowed under 32 submits");
    for t in accepted {
        t.wait().result.expect("admitted requests complete");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.rejected as u32, rejected);
    assert_eq!(stats.failed, 0);
}

/// An expired deadline surfaces the typed error and the engine keeps
/// serving — the device pool is not poisoned.
#[test]
fn deadline_exceeded_is_typed_and_pool_survives() {
    let engine = engine_on(2, EngineConfig::default());
    let doomed = engine
        .submit_with_deadline("lubm", Query::Closure, Some(Duration::ZERO))
        .unwrap();
    match doomed.wait().result {
        Err(EngineError::DeadlineExceeded { budget_ms, .. }) => assert_eq!(budget_ms, 0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Same engine, same devices: a normal request succeeds afterwards.
    let ok = engine.submit("lubm", Query::Closure).unwrap();
    assert!(ok.wait().result.is_ok());
    let stats = engine.shutdown();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 1);
}

/// Cancelling a queued ticket yields typed `Cancelled`; later requests
/// are unaffected.
#[test]
fn cancellation_is_typed() {
    let engine = engine_on(
        1,
        EngineConfig {
            ..EngineConfig::default()
        },
    );
    // Keep the only worker busy so the victim stays queued.
    let busy = engine.submit("lubm", Query::Closure).unwrap();
    let victim = engine
        .submit(
            "lubm",
            Query::RpqFromSource {
                text: SRC_TEMPLATE.into(),
                source: 0,
            },
        )
        .unwrap();
    victim.cancel();
    assert!(matches!(victim.wait().result, Err(EngineError::Cancelled)));
    assert!(busy.wait().result.is_ok());
    let after = engine.submit("lubm", Query::Closure).unwrap();
    assert!(after.wait().result.is_ok());
    let stats = engine.shutdown();
    assert_eq!(stats.cancelled, 1);
}

fn submit_src(engine: &Engine, source: u32) -> spbla_engine::Ticket {
    engine
        .submit(
            "lubm",
            Query::RpqFromSource {
                text: SRC_TEMPLATE.into(),
                source,
            },
        )
        .unwrap()
}

/// Launches each of `sources` costs when served strictly solo on one
/// device, residency warmed by a closure first.
fn solo_launches(sources: &[u32]) -> Vec<u64> {
    let engine = engine_on(1, EngineConfig::default());
    engine
        .submit("lubm", Query::Closure)
        .unwrap()
        .wait()
        .result
        .unwrap();
    let launches = sources
        .iter()
        .map(|&s| {
            let done = submit_src(&engine, s).wait();
            done.result.unwrap();
            done.metrics.launches
        })
        .collect();
    engine.shutdown();
    launches
}

/// Two clients submit same-plan single-source RPQs behind a busy
/// worker; one cancels while queued. The cancelled ticket must finish
/// typed `Cancelled` with *zero* launch/byte deltas, and the surviving
/// ticket's `RequestMetrics` must equal a solo reference run.
#[test]
fn cancelled_queued_request_does_not_skew_survivors() {
    let reference = solo_launches(&[3])[0];
    assert!(reference > 0, "solo reference run launched nothing");

    let engine = engine_on(1, EngineConfig::default());
    let busy = engine.submit("lubm", Query::Closure).unwrap();
    let survivor = submit_src(&engine, 3); // client A
    let victim = submit_src(&engine, 7); // client B
    victim.cancel();

    assert!(busy.wait().result.is_ok());
    let cancelled = victim.wait();
    assert!(matches!(cancelled.result, Err(EngineError::Cancelled)));
    assert_eq!(
        cancelled.metrics.launches, 0,
        "cancelled request was charged for work"
    );
    assert_eq!(cancelled.metrics.h2d_bytes, 0);

    let served = survivor.wait();
    assert!(served.result.is_ok());
    assert_eq!(
        served.metrics.launches, reference,
        "survivor's metrics skewed by a cancelled neighbour"
    );

    let stats = engine.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 2); // busy + survivor
}

/// Per-request accounting is additive: same-plan single-source requests
/// queued together behind a busy worker each report exactly a solo
/// run's launches, and all requests' launches sum to the device's.
#[test]
fn queued_same_plan_requests_account_like_solo_runs() {
    let sources: Vec<u32> = (0..6).map(|i| i * 17).collect();
    let solo = solo_launches(&sources);

    let engine = engine_on(1, EngineConfig::default());
    let busy = engine.submit("lubm", Query::Closure).unwrap();
    let tickets: Vec<_> = sources.iter().map(|&s| submit_src(&engine, s)).collect();

    let busy = busy.wait();
    busy.result.expect("closure completes");
    let mut total = busy.metrics.launches;
    for (ticket, want) in tickets.into_iter().zip(&solo) {
        let done = ticket.wait();
        done.result.expect("single-source RPQ completes");
        assert_eq!(done.metrics.launches, *want);
        total += done.metrics.launches;
    }
    let stats = engine.shutdown();
    assert_eq!(stats.devices[0].launches, total);
    assert_eq!(stats.batched_requests, 0);
}

/// Unknown graphs and malformed queries fail fast at submit.
#[test]
fn submit_time_errors_are_typed() {
    let engine = engine_on(1, EngineConfig::default());
    assert!(matches!(
        engine.submit("nope", Query::Closure),
        Err(EngineError::UnknownGraph(_))
    ));
    assert!(matches!(
        engine.submit("lubm", Query::Rpq("((".into())),
        Err(EngineError::PlanError(_))
    ));
    assert!(matches!(
        engine.submit("lubm", Query::Cfpq("no arrow".into())),
        Err(EngineError::PlanError(_))
    ));
    engine.shutdown();
}
