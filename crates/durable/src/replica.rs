//! Replica sets: R copies of a versioned graph, each on its own
//! [`DeviceGrid`], behind one write path.
//!
//! ## Routing rule
//!
//! A versioned read names the minimum version it was pinned at; it may
//! be served by *any* replica whose applied version is ≥ that pin.
//! [`ReplicaSet::route`] walks replicas round-robin from a rotating
//! cursor and takes the first live replica that qualifies; every
//! candidate skipped on the way — lagging *or* failed — is counted in
//! `spbla_replica_lag_fallbacks_total`, including all `R` of them when
//! nothing qualifies and the read falls back to the primary. Replica 0
//! is the primary and is always synced first, so the fallback always
//! holds every acknowledged version.
//!
//! ## Write fan-out and the replication log
//!
//! [`ReplicaSet::apply`] appends the batch to a bounded in-set log and
//! replays it on every live replica. Each follower delivery is metered
//! through the primary grid's [`Comm`] layer (`send_bytes`) at the
//! batch's wire size, so replication traffic shows up in the same
//! per-device d2d accounting as every other cross-device transfer.
//!
//! The log is a ring with a retention *base*: once every replica that
//! can still catch up from the log has applied a prefix, that prefix is
//! dropped. A replica failed by injection ([`ReplicaSet::fail`]) pins
//! retention at its applied index, so [`ReplicaSet::revive`] replays
//! exactly the batches it missed — catch-up, not a fresh full copy.
//! Only a *poisoned* replica (one whose apply path panicked) is
//! excluded from the retention horizon: its state is untrusted, so
//! revival rebuilds it from the primary's snapshot at the primary's
//! version and the log needs no history for it.
//!
//! ## Failure containment
//!
//! A panic inside a replica's apply path is caught, the replica is
//! marked failed + poisoned, and the set keeps serving: the write is
//! still acknowledged by the primary (degraded fan-out, counted in
//! `spbla_replica_degraded_writes_total`), routing skips the casualty,
//! and reads pinned to it surface a typed
//! [`DurableError::ReplicaFailed`] instead of propagating the panic.
//!
//! [`Comm`]: spbla_multidev::Comm

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use spbla_core::{CsrBool, Pair};
use spbla_graph::closure::closure_delta_dist;
use spbla_graph::LabeledGraph;
use spbla_multidev::DeviceGrid;
use spbla_obs::{labeled, metrics_global};
use spbla_stream::{checksum_pairs, UpdateBatch, VersionedGraph};

use crate::error::{DurableError, Result};

/// Wire-size model for one fanned-out update record: op tag + label
/// index + two endpoints, plus a fixed record header — matching the
/// WAL's record encoding, which is what a real follower link would
/// carry.
const FANOUT_HEADER_BYTES: u64 = 16;
const FANOUT_BYTES_PER_OP: u64 = 13;

/// The bounded replication log: entries carry absolute indices
/// `base..base + entries.len()`, and truncation advances `base` once a
/// prefix has been applied by every replica that still catches up from
/// the log.
struct SetLog {
    base: usize,
    entries: VecDeque<UpdateBatch>,
}

impl SetLog {
    /// Absolute index one past the newest entry.
    fn head(&self) -> usize {
        self.base + self.entries.len()
    }

    /// Clone the tail starting at absolute index `at`. The retention
    /// invariant (no replica's applied index ever drops below `base`
    /// while it can still replay) makes `at < base` unreachable.
    fn tail_from(&self, at: usize) -> Vec<UpdateBatch> {
        debug_assert!(
            at >= self.base,
            "replica applied index {at} fell below the log base {}",
            self.base
        );
        self.entries
            .iter()
            .skip(at.saturating_sub(self.base))
            .cloned()
            .collect()
    }

    /// Drop every entry below the absolute index `horizon`.
    fn truncate_to(&mut self, horizon: usize) {
        while self.base < horizon && self.entries.pop_front().is_some() {
            self.base += 1;
        }
    }
}

struct Replica {
    /// The store sits behind an `RwLock` so a poisoned replica can be
    /// *replaced* wholesale on revival; normal applies and reads only
    /// ever take the read side ([`VersionedGraph`] serialises its own
    /// writers internally).
    store: RwLock<VersionedGraph>,
    /// Absolute log index this replica has applied up to. A mutex, not
    /// an atomic: holding it across the whole catch-up loop serializes
    /// application per replica, so concurrent `apply`/`sync` callers
    /// cannot both claim the same log index and apply a batch twice.
    applied: Mutex<usize>,
    /// Out of service: skipped by routing and fan-out until revived.
    failed: AtomicBool,
    /// The apply path panicked (or diverged) on this replica: its state
    /// is untrusted and revival must rebuild from the primary instead
    /// of replaying the log tail.
    poisoned: AtomicBool,
    /// Failpoint: the next apply on this replica panics. Test-only
    /// plumbing for exercising the containment path — the store itself
    /// has no natural panic.
    fail_next_apply: AtomicBool,
}

impl Replica {
    /// Lock the applied counter, absorbing poison: the counter is plain
    /// data and the catch-up loop's invariant (only advanced past
    /// successfully applied entries) holds even if a past holder
    /// panicked between applies.
    fn lock_applied(&self) -> std::sync::MutexGuard<'_, usize> {
        self.applied.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One answer from a routed read.
#[derive(Debug)]
pub struct RoutedRead {
    /// Replica index that served the read.
    pub replica: usize,
    /// Version of the snapshot the answer was computed on.
    pub version: u64,
    /// Transitive-closure pairs of the union adjacency, sorted.
    pub pairs: Vec<Pair>,
    /// FNV-1a checksum of `pairs` — the bit-identity currency.
    pub checksum: u64,
}

/// What [`ReplicaSet::revive`] did to bring a replica back.
#[derive(Debug, Clone, Copy)]
pub struct RejoinStats {
    /// The replica that rejoined.
    pub replica: usize,
    /// Log entries replayed to catch up (0 on a full resync).
    pub replayed: u64,
    /// Whether the replica's state had to be rebuilt from the primary
    /// (only after a poisoning failure) instead of replaying its lag.
    pub full_resync: bool,
    /// The replica's applied version after rejoining.
    pub version: u64,
}

/// R replicas of one graph behind a single write path.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    log: Mutex<SetLog>,
    cursor: AtomicUsize,
    devices_per_replica: usize,
}

impl ReplicaSet {
    /// Stand up `replicas` copies of `graph`, each sharded over its own
    /// fresh grid of `devices_per_replica` simulated devices.
    pub fn new(
        graph: &LabeledGraph,
        replicas: usize,
        devices_per_replica: usize,
    ) -> Result<ReplicaSet> {
        assert!(replicas >= 1, "a replica set needs at least the primary");
        let devices_per_replica = devices_per_replica.max(1);
        let replicas = (0..replicas)
            .map(|_| {
                let grid = DeviceGrid::new(devices_per_replica);
                Ok(Replica {
                    store: RwLock::new(VersionedGraph::new(&grid, graph)?),
                    applied: Mutex::new(0),
                    failed: AtomicBool::new(false),
                    poisoned: AtomicBool::new(false),
                    fail_next_apply: AtomicBool::new(false),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ReplicaSet {
            replicas,
            log: Mutex::new(SetLog {
                base: 0,
                entries: VecDeque::new(),
            }),
            cursor: AtomicUsize::new(0),
            devices_per_replica,
        })
    }

    /// Number of replicas (primary included).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true: the primary always exists).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Version the write path has acknowledged (primary's version).
    pub fn version(&self) -> u64 {
        self.applied_version(0)
    }

    /// Applied version of replica `r` (0 if its store is unreadable
    /// after a poisoning failure — use [`ReplicaSet::is_failed`] to
    /// distinguish).
    pub fn applied_version(&self, r: usize) -> u64 {
        self.store_version(r).unwrap_or(0)
    }

    /// Whether replica `r` is out of service (failed by injection or
    /// poisoned by a panic).
    pub fn is_failed(&self, r: usize) -> bool {
        self.replicas[r].failed.load(Ordering::Acquire)
    }

    /// Entries currently retained by the in-set replication log. Stays
    /// bounded (≈0 after each write) while every replica is live;
    /// grows only by a failed replica's lag, and drains again once it
    /// rejoins.
    pub fn log_entries(&self) -> usize {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// Version of replica `r`, or `None` when its store lock is
    /// poisoned — in which case the replica is auto-marked failed so
    /// routing stops considering it.
    fn store_version(&self, r: usize) -> Option<u64> {
        match self.replicas[r].store.read() {
            Ok(store) => Some(store.version()),
            Err(_) => {
                self.mark_failed(r, true);
                None
            }
        }
    }

    fn mark_failed(&self, r: usize, poisoned: bool) {
        let replica = &self.replicas[r];
        let newly = !replica.failed.swap(true, Ordering::AcqRel);
        if poisoned {
            replica.poisoned.store(true, Ordering::Release);
        }
        if newly {
            metrics_global()
                .counter("spbla_replica_failures_total")
                .inc(1);
        }
    }

    /// Take replica `r` out of service: routing skips it, fan-out stops
    /// delivering to it, and its applied index pins log retention so
    /// [`ReplicaSet::revive`] replays exactly the batches it missed.
    /// The primary (replica 0) anchors the write path and cannot be
    /// failed.
    pub fn fail(&self, r: usize) -> Result<()> {
        if r == 0 {
            return Err(DurableError::ReplicaFailed {
                replica: 0,
                reason: "the primary anchors the write path and cannot be failed".into(),
            });
        }
        self.mark_failed(r, false);
        Ok(())
    }

    /// Bring replica `r` back into service. A replica failed by
    /// injection rejoins by replaying only the log tail past its
    /// applied index; a poisoned replica (apply-path panic) is rebuilt
    /// from the primary's current snapshot at the primary's version.
    pub fn revive(&self, r: usize) -> Result<RejoinStats> {
        let replica = &self.replicas[r];
        if replica.poisoned.load(Ordering::Acquire) {
            return self.resync_from_primary(r);
        }
        let missed = {
            let at = replica.lock_applied();
            let log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
            (log.head() - *at) as u64
        };
        replica.failed.store(false, Ordering::Release);
        let version = self.sync_one(r)?;
        self.truncate_log();
        metrics_global()
            .counter("spbla_replica_rejoins_total")
            .inc(1);
        Ok(RejoinStats {
            replica: r,
            replayed: missed,
            full_resync: false,
            version,
        })
    }

    /// Rebuild a poisoned replica from the primary: fresh grid, fresh
    /// store loaded from the primary's pinned snapshot at the primary's
    /// version, applied index fast-forwarded to the log head.
    fn resync_from_primary(&self, r: usize) -> Result<RejoinStats> {
        let (graph, version) = {
            let primary =
                self.replicas[0]
                    .store
                    .read()
                    .map_err(|_| DurableError::ReplicaFailed {
                        replica: 0,
                        reason: "primary store is poisoned; the set cannot be recovered in place"
                            .into(),
                    })?;
            let snapshot = primary.pin();
            (snapshot.to_labeled_graph(), snapshot.version())
        };
        let grid = DeviceGrid::new(self.devices_per_replica);
        let fresh = VersionedGraph::new_at_version(&grid, &graph, version)?;

        let replica = &self.replicas[r];
        // Hold `applied` across the store swap so no catch-up loop can
        // interleave with the replacement, and fast-forward it to the
        // log head the snapshot already covers (the primary has applied
        // every entry in the log before this runs).
        let mut at = replica.lock_applied();
        {
            let mut store = replica
                .store
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *store = fresh;
        }
        replica.store.clear_poison();
        replica.applied.clear_poison();
        *at = self
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .head();
        drop(at);
        replica.poisoned.store(false, Ordering::Release);
        replica.failed.store(false, Ordering::Release);
        self.truncate_log();
        metrics_global()
            .counter("spbla_replica_resyncs_total")
            .inc(1);
        metrics_global()
            .gauge(&labeled(
                "spbla_replica_applied_version",
                &[("replica", &r.to_string())],
            ))
            .set(version);
        Ok(RejoinStats {
            replica: r,
            replayed: 0,
            full_resync: true,
            version,
        })
    }

    fn wire_bytes(batch: &UpdateBatch) -> u64 {
        FANOUT_HEADER_BYTES + FANOUT_BYTES_PER_OP * batch.len() as u64
    }

    /// Replay every unapplied log entry on replica `r`. Panics inside
    /// the apply path are contained: the replica is marked failed +
    /// poisoned and a typed [`DurableError::ReplicaFailed`] comes back
    /// instead of the unwind.
    fn sync_one(&self, r: usize) -> Result<u64> {
        let replica = &self.replicas[r];
        if replica.failed.load(Ordering::Acquire) {
            return Err(DurableError::ReplicaFailed {
                replica: r,
                reason: "out of service; revive() to rejoin".into(),
            });
        }
        let mut at = replica.lock_applied();
        let tail = {
            let log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
            log.tail_from(*at)
        };
        for batch in &tail {
            if r != 0 {
                // Follower delivery: meter the batch leaving the
                // primary's device 0 for a peer grid.
                if let Ok(primary) = self.replicas[0].store.read() {
                    primary.grid().comm().send_bytes(0, Self::wire_bytes(batch));
                }
                metrics_global()
                    .counter("spbla_replica_fanout_bytes_total")
                    .inc(Self::wire_bytes(batch));
            }
            let inject = replica.fail_next_apply.swap(false, Ordering::AcqRel);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inject {
                    panic!("injected apply failure on replica {r}");
                }
                let store = replica
                    .store
                    .read()
                    .unwrap_or_else(|_| panic!("replica {r} store lock poisoned"));
                store.apply(batch).map(|_| ())
            }));
            match outcome {
                Ok(Ok(())) => *at += 1,
                Ok(Err(e)) => {
                    if r == 0 {
                        // The primary rejecting a batch is the caller's
                        // error (e.g. out-of-bounds); the replica is fine.
                        return Err(e.into());
                    }
                    // A follower rejecting what the primary accepted is
                    // divergence: quarantine it for a full resync.
                    self.mark_failed(r, true);
                    return Err(DurableError::ReplicaFailed {
                        replica: r,
                        reason: format!("diverged from the primary while applying a batch: {e}"),
                    });
                }
                Err(_) => {
                    self.mark_failed(r, true);
                    return Err(DurableError::ReplicaFailed {
                        replica: r,
                        reason: "panicked while applying a batch; poisoned — revive() rebuilds it from the primary"
                            .into(),
                    });
                }
            }
        }
        drop(at);
        let version = self
            .store_version(r)
            .ok_or_else(|| DurableError::ReplicaFailed {
                replica: r,
                reason: "store unreadable after catch-up".into(),
            })?;
        metrics_global()
            .gauge(&labeled(
                "spbla_replica_applied_version",
                &[("replica", &r.to_string())],
            ))
            .set(version);
        Ok(version)
    }

    /// Drop the log prefix every catch-up-capable replica has applied.
    /// Failed-but-healthy replicas pin retention at their applied index
    /// (their lag must stay replayable for [`ReplicaSet::revive`]);
    /// poisoned replicas are excluded — they rejoin via full resync and
    /// need no history.
    fn truncate_log(&self) {
        let mut horizon = usize::MAX;
        for replica in &self.replicas {
            if replica.poisoned.load(Ordering::Acquire) {
                continue;
            }
            horizon = horizon.min(*replica.lock_applied());
        }
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if horizon == usize::MAX {
            return;
        }
        let horizon = horizon.min(log.head());
        log.truncate_to(horizon);
        metrics_global()
            .gauge("spbla_replica_log_entries")
            .set(log.entries.len() as u64);
    }

    /// Apply `batch` through the whole set: primary first, then every
    /// live follower, with fan-out metered per delivery. Returns the
    /// new acknowledged version. A follower failing mid-delivery does
    /// not fail the write — the set degrades (counted in
    /// `spbla_replica_degraded_writes_total`) and keeps acknowledging
    /// on the primary.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<u64> {
        self.apply_lagging(batch, &[])
    }

    /// Apply `batch` but leave the listed replicas behind (lag
    /// injection for routing tests and the replication ablation). The
    /// laggards catch up on their next [`ReplicaSet::sync`] or on the
    /// next full [`ReplicaSet::apply`].
    pub fn apply_lagging(&self, batch: &UpdateBatch, laggards: &[usize]) -> Result<u64> {
        {
            let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
            log.entries.push_back(batch.clone());
        }
        // The primary validates the batch; a rejection retracts it so
        // no follower ever replays an entry the primary refused.
        let acked = match self.sync_one(0) {
            Ok(v) => v,
            Err(e) => {
                let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
                log.entries.pop_back();
                return Err(e);
            }
        };
        for r in 1..self.replicas.len() {
            if laggards.contains(&r) || self.replicas[r].failed.load(Ordering::Acquire) {
                continue;
            }
            if self.sync_one(r).is_err() {
                // The replica marked itself failed; the write is still
                // acknowledged with degraded fan-out.
                metrics_global()
                    .counter("spbla_replica_degraded_writes_total")
                    .inc(1);
            }
        }
        self.truncate_log();
        Ok(acked)
    }

    /// Replay any missed log entries on replica `r`.
    pub fn sync(&self, r: usize) -> Result<u64> {
        let version = self.sync_one(r)?;
        self.truncate_log();
        Ok(version)
    }

    /// Arm the failpoint: the next batch applied on replica `r` panics
    /// inside the apply path, exercising the containment machinery
    /// (caught, marked failed + poisoned, typed error). Test and
    /// harness plumbing — the store has no natural panic of its own.
    pub fn fail_next_apply(&self, r: usize) {
        self.replicas[r]
            .fail_next_apply
            .store(true, Ordering::Release);
    }

    /// Pick a replica whose applied version is ≥ `min_version`:
    /// round-robin from a rotating cursor, skipping failed and lagging
    /// replicas. Every skipped candidate counts one lag fallback —
    /// including all of them when nothing qualifies and the read falls
    /// back to the primary, which by construction holds every
    /// acknowledged version.
    pub fn route(&self, min_version: u64) -> usize {
        let n = self.replicas.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut skipped = 0u64;
        for k in 0..n {
            let r = (start + k) % n;
            if self.replicas[r].failed.load(Ordering::Acquire) {
                skipped += 1;
                continue;
            }
            match self.store_version(r) {
                Some(v) if v >= min_version => {
                    if skipped > 0 {
                        metrics_global()
                            .counter("spbla_replica_lag_fallbacks_total")
                            .inc(skipped);
                    }
                    return r;
                }
                _ => skipped += 1,
            }
        }
        // Nothing qualified: every walked candidate was a skip, and the
        // primary absorbs the read.
        metrics_global()
            .counter("spbla_replica_lag_fallbacks_total")
            .inc(skipped);
        0
    }

    /// Serve a versioned closure read: route to a replica at or past
    /// `min_version`, compute the transitive closure of its current
    /// union adjacency on that replica's grid, and return the sorted
    /// pairs with their checksum.
    pub fn read_closure(&self, min_version: u64) -> Result<RoutedRead> {
        let r = self.route(min_version);
        self.read_closure_on(r)
    }

    /// The closure read, pinned to a specific replica (the ablation
    /// path measures each replica directly). A failed or poisoned
    /// replica answers with a typed [`DurableError::ReplicaFailed`],
    /// never a panic.
    pub fn read_closure_on(&self, r: usize) -> Result<RoutedRead> {
        let replica = &self.replicas[r];
        if replica.failed.load(Ordering::Acquire) {
            return Err(DurableError::ReplicaFailed {
                replica: r,
                reason: "out of service; route() around it or revive() it".into(),
            });
        }
        let store = replica.store.read().map_err(|_| {
            self.mark_failed(r, true);
            DurableError::ReplicaFailed {
                replica: r,
                reason: "store lock poisoned by a failed apply".into(),
            }
        })?;
        let snapshot = store.pin();
        let n = snapshot.n_vertices();
        let adjacency = CsrBool::from_pairs(n, n, &snapshot.adjacency_pairs())?;
        let closure = closure_delta_dist(&adjacency, store.grid())?;
        let pairs = closure.to_pairs();
        let checksum = checksum_pairs(&pairs);
        metrics_global()
            .counter(&labeled(
                "spbla_replica_reads_total",
                &[("replica", &r.to_string())],
            ))
            .inc(1);
        Ok(RoutedRead {
            replica: r,
            version: snapshot.version(),
            pairs,
            checksum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spbla_lang::SymbolTable;

    fn chain(table: &mut SymbolTable, n: u32) -> LabeledGraph {
        let a = table.intern("a");
        LabeledGraph::from_triples(n, (0..n - 1).map(|k| (k, a, k + 1)))
    }

    #[test]
    fn replicas_stay_bit_identical_under_updates() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let graph = chain(&mut table, 12);
        let set = ReplicaSet::new(&graph, 3, 2).unwrap();
        for k in 0..4u32 {
            let mut batch = UpdateBatch::new();
            batch.insert(11, a, k).delete(k, a, k + 1);
            set.apply(&batch).unwrap();
        }
        let reads: Vec<RoutedRead> = (0..3).map(|r| set.read_closure_on(r).unwrap()).collect();
        assert!(reads.windows(2).all(|w| w[0].checksum == w[1].checksum));
        assert!(reads.windows(2).all(|w| w[0].version == w[1].version));
        assert_eq!(set.version(), 4);
        // Routed reads rotate over every replica.
        let mut served = [0usize; 3];
        for _ in 0..12 {
            served[set.read_closure(4).unwrap().replica] += 1;
        }
        assert!(
            served.iter().all(|&c| c > 0),
            "a replica starved: {served:?}"
        );
    }

    #[test]
    fn routing_skips_lagging_replicas() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let graph = chain(&mut table, 8);
        let set = ReplicaSet::new(&graph, 3, 1).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(7, a, 0);
        set.apply_lagging(&batch, &[2]).unwrap();
        assert_eq!(set.applied_version(0), 1);
        assert_eq!(set.applied_version(1), 1);
        assert_eq!(set.applied_version(2), 0);
        // A read pinned at version 1 never lands on the laggard.
        for _ in 0..8 {
            assert_ne!(set.route(1), 2);
        }
        // A version-0 read may use any replica, including the laggard.
        let hit_laggard = (0..8).any(|_| set.route(0) == 2);
        assert!(hit_laggard);
        // A pin nobody holds falls back to the primary — and counts
        // every skipped candidate, not zero (the historical bug).
        let fallbacks = metrics_global().counter("spbla_replica_lag_fallbacks_total");
        let before = fallbacks.get();
        assert_eq!(set.route(u64::MAX), 0);
        assert!(
            fallbacks.get() - before >= set.len() as u64,
            "a full-walk fallback must count all {} skipped candidates",
            set.len()
        );
        // After catch-up the laggard serves the same answer.
        set.sync(2).unwrap();
        assert_eq!(set.applied_version(2), 1);
        let a0 = set.read_closure_on(0).unwrap();
        let a2 = set.read_closure_on(2).unwrap();
        assert_eq!(a0.checksum, a2.checksum);
    }

    #[test]
    fn fanout_is_metered_on_the_primary_grid() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let graph = chain(&mut table, 6);
        let set = ReplicaSet::new(&graph, 2, 1).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(5, a, 0).insert(4, a, 0);
        set.apply(&batch).unwrap();
        let primary = set.replicas[0].store.read().unwrap();
        let d2d = primary.grid().total_stats().d2d_bytes;
        assert_eq!(
            d2d,
            FANOUT_HEADER_BYTES + 2 * FANOUT_BYTES_PER_OP,
            "one follower delivery of a two-op batch"
        );
    }

    #[test]
    fn failed_replica_rejoins_by_replaying_only_its_lag() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let graph = chain(&mut table, 10);
        let set = ReplicaSet::new(&graph, 3, 1).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(9, a, 0);
        set.apply(&batch).unwrap();

        set.fail(1).unwrap();
        assert!(set.is_failed(1));
        // Writes keep acknowledging with degraded fan-out.
        for k in 0..3u32 {
            let mut batch = UpdateBatch::new();
            batch.insert(9, a, k + 1);
            assert_eq!(set.apply(&batch).unwrap(), (k + 2) as u64);
        }
        // Routing never lands on the casualty; reads stay error-free.
        for _ in 0..8 {
            let read = set.read_closure(set.version()).unwrap();
            assert_ne!(read.replica, 1);
        }
        assert!(matches!(
            set.read_closure_on(1),
            Err(DurableError::ReplicaFailed { replica: 1, .. })
        ));
        // Its lag pins the log: exactly the 3 missed batches retained.
        assert_eq!(set.log_entries(), 3);

        let stats = set.revive(1).unwrap();
        assert_eq!(stats.replayed, 3, "rejoin replays exactly the lag");
        assert!(!stats.full_resync);
        assert_eq!(stats.version, set.version());
        assert!(!set.is_failed(1));
        // Drained log, bit-identical answers.
        assert_eq!(set.log_entries(), 0);
        let a0 = set.read_closure_on(0).unwrap();
        let a1 = set.read_closure_on(1).unwrap();
        assert_eq!(a0.checksum, a1.checksum);
    }

    #[test]
    fn primary_cannot_be_failed() {
        let mut table = SymbolTable::new();
        let graph = chain(&mut table, 4);
        let set = ReplicaSet::new(&graph, 2, 1).unwrap();
        assert!(matches!(
            set.fail(0),
            Err(DurableError::ReplicaFailed { replica: 0, .. })
        ));
        assert!(!set.is_failed(0));
    }

    #[test]
    fn log_memory_stays_flat_over_a_long_stream() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let graph = chain(&mut table, 16);
        let set = ReplicaSet::new(&graph, 3, 1).unwrap();
        for k in 0..1000u32 {
            let mut batch = UpdateBatch::new();
            let u = k % 16;
            let v = (k + 7) % 16;
            if k % 2 == 0 {
                batch.insert(u, a, v);
            } else {
                batch.delete(u, a, v);
            }
            set.apply(&batch).unwrap();
            assert!(
                set.log_entries() <= 1,
                "live set must truncate the log every write, had {} after batch {k}",
                set.log_entries()
            );
        }
        assert_eq!(set.log_entries(), 0);
        let reads: Vec<RoutedRead> = (0..3).map(|r| set.read_closure_on(r).unwrap()).collect();
        assert!(reads.windows(2).all(|w| w[0].checksum == w[1].checksum));
    }

    #[test]
    fn panicking_replica_does_not_take_down_the_set() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let graph = chain(&mut table, 8);
        let set = ReplicaSet::new(&graph, 3, 1).unwrap();
        set.fail_next_apply(2);

        // The write still acknowledges; the casualty is quarantined.
        let mut batch = UpdateBatch::new();
        batch.insert(7, a, 0);
        assert_eq!(set.apply(&batch).unwrap(), 1);
        assert!(set.is_failed(2));

        // Healthy replicas keep serving typed answers, no panics.
        let read = set.read_closure(1).unwrap();
        assert_ne!(read.replica, 2);
        assert!(matches!(
            set.read_closure_on(2),
            Err(DurableError::ReplicaFailed { replica: 2, .. })
        ));

        // Poisoned state rejoins through a full resync from the primary.
        let stats = set.revive(2).unwrap();
        assert!(stats.full_resync);
        assert_eq!(stats.replayed, 0);
        assert_eq!(stats.version, set.version());
        let a0 = set.read_closure_on(0).unwrap();
        let a2 = set.read_closure_on(2).unwrap();
        assert_eq!(a0.checksum, a2.checksum);

        // And the revived replica tracks subsequent writes normally.
        let mut batch = UpdateBatch::new();
        batch.insert(6, a, 0);
        set.apply(&batch).unwrap();
        assert_eq!(set.applied_version(2), set.version());
    }
}
