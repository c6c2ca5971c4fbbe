//! # spbla-engine — the concurrent query-serving subsystem
//!
//! The crates below this one are a *library*: you hold an [`Instance`],
//! build matrices, run one algorithm at a time. A graph database serves
//! differently — many clients, repeated query templates, a fleet of
//! devices, and latency budgets. This crate is that serving layer over
//! the SPbLA reproduction:
//!
//! * [`catalog`] — named graphs, host-resident in decomposed Boolean
//!   matrix form, with per-device LRU residency bounded by a byte
//!   budget (evictions metered through `DeviceStats`);
//! * [`planner`] — query text → executable plan (regex → minimised
//!   automaton, grammar → CNF), memoised under the *canonical* query
//!   rendering so respelled queries hit;
//! * [`engine`] — a bounded admission queue feeding one worker per
//!   [`DeviceGrid`](spbla_multidev::DeviceGrid) device, typed
//!   [`Overloaded`](EngineError::Overloaded) rejection, and per-request
//!   deadlines via cooperative [`StopToken`](spbla_gpu_sim::StopToken)
//!   cancellation between kernel launches.
//!
//! ```
//! use spbla_engine::{Engine, EngineConfig, Query, QueryResult};
//! use spbla_graph::LabeledGraph;
//! use spbla_multidev::DeviceGrid;
//!
//! let engine = Engine::new(DeviceGrid::new(2), EngineConfig::default());
//! engine.add_graph_with("social", |table| {
//!     let follows = table.intern("follows");
//!     LabeledGraph::from_triples(3, [(0, follows, 1), (1, follows, 2)])
//! });
//! let ticket = engine
//!     .submit("social", Query::Rpq("follows . follows".into()))
//!     .unwrap();
//! let done = ticket.wait();
//! assert_eq!(done.result.unwrap(), QueryResult::Pairs(vec![(0, 2)]));
//! let stats = engine.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```
//!
//! [`Instance`]: spbla_core::Instance

pub mod catalog;
pub mod engine;
pub mod error;
pub mod planner;

pub use catalog::{Catalog, Resident};
pub use engine::{
    Completed, Engine, EngineConfig, EngineStats, QosTier, Query, QueryResult, RequestMetrics,
    Ticket,
};
pub use error::EngineError;
pub use planner::{Plan, PlanKind, Planner};
