//! # spbla-prep — planner preprocessing: condense, expand
//!
//! The structure-aware preprocessing stage the engine's planner runs in
//! front of closure-shaped fixpoints (ROADMAP open item 3):
//!
//! * [`scc`] — iterative (explicit-stack) Tarjan SCC, producing a
//!   [`Condensation`] with a topologically-numbered component DAG;
//! * [`condense`] — transitive closure *via* the condensation: the
//!   fused semi-naïve fixpoint runs on the DAG (rounds bounded by the
//!   DAG's level count), and a blocked host expansion
//!   `R = P·R_dag·Pᵀ` fills each cyclic component's all-pairs block
//!   without a single SpGEMM accumulator insertion — bit-identical to
//!   the direct closure by construction.
//!
//! Everything is observable: `spbla_prep_condense_total`,
//! `spbla_prep_scc_count`, `spbla_prep_condensation_ratio_pct` and
//! `spbla_prep_live_levels` land in the global [`spbla_obs`] registry.

pub mod condense;
pub mod scc;

pub use condense::{condensed_closure, condensed_closure_with, CondenseStats};
pub use scc::Condensation;
