//! Durability and replication for the SPbLA serving engine.
//!
//! Two cooperating subsystems, both downstream of the same insight:
//! a serving engine over Boolean linear algebra is only a *system*
//! once it survives restarts and scales reads.
//!
//! * **Write-ahead durability** ([`wal`], [`checkpoint`], [`store`]):
//!   every applied [`UpdateBatch`] is flushed to a segmented,
//!   checksummed log before the apply is acknowledged; periodic
//!   checkpoints serialize the label matrices through the k²-tree
//!   codec; [`recover`] = newest readable checkpoint + tail replay,
//!   reconstructing every live version bit-identically. A torn record
//!   at the log tail is a clean crash artifact; anything else is a
//!   typed [`DurableError`].
//! * **Replication** ([`replica`]): a [`ReplicaSet`] of R device grids
//!   behind one write path. Versioned reads route round-robin to any
//!   replica whose applied version covers the pin, skipping laggards;
//!   update fan-out is metered through the `Comm` layer like every
//!   other cross-device transfer.
//!
//! [`UpdateBatch`]: spbla_stream::UpdateBatch

pub mod checkpoint;
pub mod error;
pub mod replica;
pub mod store;
pub mod wal;

pub use checkpoint::{list_checkpoints, read_checkpoint, write_checkpoint, Checkpoint};
pub use error::{DurableError, Result};
pub use replica::{RejoinStats, ReplicaSet, RoutedRead};
pub use store::{
    recover, recover_into_engine, DurabilityConfig, DurableLog, EngineRecovery, Recovered,
};
pub use wal::{replay, DecodedRecord, Replayed, Wal};
