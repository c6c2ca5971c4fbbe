//! Streaming graph updates over the SPbLA device grid.
//!
//! This crate makes the library's static pipelines — reachability
//! closures and Kronecker-product RPQ indices over device-resident
//! Boolean matrices — *dynamic*:
//!
//! * [`UpdateBatch`] / [`UpdateLog`]: edge insert/delete batches with
//!   `(G ∪ inserts) \ deletes` semantics and a replayable history;
//! * [`VersionedGraph`] / [`GraphSnapshot`]: a copy-on-write snapshot
//!   store — readers pin a consistent version while a writer applies
//!   batches, label matrices are rebuilt shard-locally and shared
//!   across versions when untouched, and unpinned history is pruned;
//! * [`ClosureView`] / [`RpqView`]: incrementally maintained answers.
//!   Insert-only batches seed a semi-naïve restart from the new-edge
//!   frontier, falling back to a full recompute when the touched
//!   frontier outgrows a threshold ([`MaintainConfig`]); a batch that
//!   deletes recomputes once;
//! * [`SccView`]: an incrementally maintained SCC condensation for the
//!   planner's condensed-closure preprocessing — inserts merge
//!   components via a component-graph Tarjan, intra-component deletes
//!   fall back to a full recompute;
//! * [`GraphStream`]: the session façade wiring store, log, and views
//!   together.

mod batch;
mod closure_view;
mod rpq_view;
mod scc_view;
mod session;
mod store;

pub use batch::{UpdateBatch, UpdateLog, UpdateOp};
pub use closure_view::{ClosureView, MaintainConfig, MaintainMode, MaintainStats};
pub use rpq_view::RpqView;
pub use scc_view::{SccStats, SccView};
pub use session::GraphStream;
pub use store::{AppliedBatch, GraphSnapshot, VersionedGraph};

/// FNV-1a over a pair list: the order-sensitive 64-bit checksum used
/// everywhere two result sets must be certified bit-identical (sort
/// before hashing — every producer in this crate already does).
pub fn checksum_pairs(pairs: &[spbla_core::Pair]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(r, c) in pairs {
        eat(r);
        eat(c);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_and_content_sensitive() {
        let a = checksum_pairs(&[(0, 1), (1, 2)]);
        let b = checksum_pairs(&[(1, 2), (0, 1)]);
        let c = checksum_pairs(&[(0, 1), (1, 2)]);
        let d = checksum_pairs(&[(0, 1), (1, 3)]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_ne!(a, d);
        assert_ne!(checksum_pairs(&[]), 0);
    }
}
