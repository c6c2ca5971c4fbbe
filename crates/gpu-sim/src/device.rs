//! The simulated device: capacity accounting and launch statistics.
//!
//! Every counter a [`Device`] exposes is *owned by the process-wide
//! [`spbla_obs`] metrics registry* under `spbla_dev_*{dev="N"}` names
//! (`N` = [`Device::ordinal`]): [`DeviceStats`] is a thin snapshot view
//! over those registry cells, so the registry and the stats API can
//! never disagree. Transfers additionally emit `xfer` spans, and kernel
//! launches `kernel` spans, into the global trace when it is enabled.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use spbla_obs::{labeled, metrics_global, trace_global, Counter, Gauge};

use crate::error::{DeviceError, Result};
use crate::stop::StopToken;

/// Process-wide device ordinal source. Ordinals start at 1 so trace
/// track 0 stays reserved for host-side (engine, op) spans.
static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Name attached to kernel spans emitted by launches on this thread
    /// (set by the operation layer around each kernel chain).
    static KERNEL_LABEL: Cell<&'static str> = const { Cell::new("") };
}

/// Run `f` with this thread's kernel launches labeled `name` in the
/// trace. Labels nest; the previous label is restored on return.
pub fn with_kernel_label<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    KERNEL_LABEL.with(|l| {
        let prev = l.replace(name);
        let out = f();
        l.set(prev);
        out
    })
}

/// The label kernel spans on this thread currently carry.
pub(crate) fn kernel_label() -> &'static str {
    let label = KERNEL_LABEL.with(|l| l.get());
    if label.is_empty() {
        "kernel"
    } else {
        label
    }
}

/// Configuration of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Global-memory capacity in bytes. Allocations beyond this fail with
    /// [`DeviceError::OutOfMemory`]. Defaults to 8 GiB.
    pub memory_capacity: usize,
    /// Number of streaming multiprocessors; reported in stats and used as
    /// the default grid-saturation hint. Defaults to the CPU parallelism.
    pub sm_count: u32,
    /// Threads per block used by helpers when the caller does not specify
    /// a block size. Defaults to 128 (cuBool's launch default).
    pub default_block_dim: u32,
    /// Shared memory per block in bytes; shared allocations beyond this
    /// fail a debug assertion (kernels are expected to bin their work so
    /// shared tables fit, mirroring Nsparse). Defaults to 48 KiB.
    pub shared_mem_per_block: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            memory_capacity: 8 << 30,
            sm_count: std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(8),
            default_block_dim: 128,
            shared_mem_per_block: 48 << 10,
        }
    }
}

/// Counters observable after running workloads on a device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes currently allocated in device global memory.
    pub bytes_in_use: usize,
    /// High-water mark of `bytes_in_use`.
    pub peak_bytes: usize,
    /// Number of device allocations performed.
    pub allocations: u64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Total blocks executed across all launches.
    pub blocks_executed: u64,
    /// Bytes copied host→device.
    pub h2d_bytes: u64,
    /// Bytes copied device→host.
    pub d2h_bytes: u64,
    /// Bytes sent to a peer device (device→device traffic). Charged to
    /// the *source* device by the multi-device communicator, so summing
    /// across a grid gives total communication volume exactly once.
    pub d2d_bytes: u64,
    /// Accumulator insertions performed by SpGEMM-style kernels: hash-table
    /// probes that claimed a slot plus expansion entries materialised for
    /// sorting. Masked/delta kernels advertise their savings here — fewer
    /// insertions means fewer candidate products ever cost memory.
    pub accum_insertions: u64,
}

pub(crate) struct DeviceInner {
    pub(crate) config: DeviceConfig,
    /// Fast-path flag: launches only take the `stop` lock when armed.
    stop_armed: AtomicBool,
    stop: parking_lot::Mutex<Option<crate::stop::StopToken>>,
    /// Process-wide ordinal: the `dev` label of this device's metrics
    /// and the trace track of its kernel/transfer spans.
    ordinal: u64,
    // Registry-owned cells (`spbla_dev_*{dev="ordinal"}`): these handles
    // are the *same* cells the exporters read, so `DeviceStats` and a
    // registry dump can never disagree.
    bytes_in_use: Gauge,
    peak_bytes: Gauge,
    allocations: Counter,
    launches: Counter,
    blocks_executed: Counter,
    h2d_bytes: Counter,
    d2h_bytes: Counter,
    d2d_bytes: Counter,
    accum_insertions: Counter,
}

impl DeviceInner {
    pub(crate) fn alloc(&self, bytes: usize) -> Result<()> {
        // The capacity check CASes directly on the registry gauge — the
        // registry *is* the allocator's book, not a mirror of it.
        let mut cur = self.bytes_in_use.get();
        loop {
            let next = cur.saturating_add(bytes as u64);
            if next > self.config.memory_capacity as u64 {
                return Err(DeviceError::OutOfMemory {
                    requested: bytes,
                    in_use: cur as usize,
                    capacity: self.config.memory_capacity,
                });
            }
            match self.bytes_in_use.compare_exchange_weak(cur, next) {
                Ok(_) => {
                    self.allocations.inc(1);
                    self.peak_bytes.fetch_max(next);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    pub(crate) fn free(&self, bytes: usize) {
        self.bytes_in_use.sub(bytes as u64);
    }

    pub(crate) fn count_launch(&self, blocks: u64) {
        self.launches.inc(1);
        self.blocks_executed.inc(blocks);
    }

    pub(crate) fn count_h2d(&self, bytes: u64) {
        self.h2d_bytes.inc(bytes);
        self.xfer_span("h2d", bytes);
    }

    pub(crate) fn count_d2h(&self, bytes: u64) {
        self.d2h_bytes.inc(bytes);
        self.xfer_span("d2h", bytes);
    }

    fn xfer_span(&self, name: &'static str, bytes: u64) {
        let t = trace_global();
        if t.is_enabled() {
            t.leaf(
                name,
                "xfer",
                self.ordinal,
                t.now_ns(),
                0,
                &[("bytes", bytes)],
            );
        }
    }
}

impl Device {
    /// Count one primitive launch (`blocks` logical blocks) around `f`,
    /// recording a `kernel` span named after the primitive when tracing
    /// is on. Primitives (scan, sort, reduce, histogram, compaction)
    /// bypass [`Device::launch`], so they must go through here to keep
    /// the `spbla trace` invariant: exactly one kernel span per counted
    /// launch.
    pub(crate) fn primitive_launch<R>(
        &self,
        name: &'static str,
        blocks: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.inner.count_launch(blocks);
        let t = trace_global();
        if !t.is_enabled() {
            return f();
        }
        let start = t.now_ns();
        let out = f();
        t.leaf(
            name,
            "kernel",
            self.ordinal(),
            start,
            t.now_ns().saturating_sub(start),
            &[("blocks", blocks)],
        );
        out
    }

    /// Charge `bytes` of peer (device→device) traffic to this device.
    /// Called by a multi-device communicator on the *sending* side of
    /// every peer copy, broadcast and all-gather round.
    pub fn count_d2d(&self, bytes: u64) {
        if bytes > 0 {
            self.inner.d2d_bytes.inc(bytes);
            self.inner.xfer_span("d2d", bytes);
        }
    }
}

impl Device {
    /// Charge `n` accumulator insertions to this device. Called by SpGEMM
    /// kernels once per claimed hash slot / emitted expansion entry, so
    /// schedules can be compared by how many candidate products they ever
    /// materialise.
    pub fn count_accum_insertions(&self, n: u64) {
        self.inner.accum_insertions.inc(n);
    }
}

/// A handle to a simulated GPGPU device. Cheap to clone; all clones share
/// the same memory accounting and statistics.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default())
    }
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let ordinal = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
        let dev = ordinal.to_string();
        let reg = metrics_global();
        let metric = |family: &str| labeled(family, &[("dev", &dev)]);
        Device {
            inner: Arc::new(DeviceInner {
                config,
                stop_armed: AtomicBool::new(false),
                stop: parking_lot::Mutex::new(None),
                ordinal,
                bytes_in_use: reg.gauge(&metric("spbla_dev_bytes_in_use")),
                peak_bytes: reg.gauge(&metric("spbla_dev_peak_bytes")),
                allocations: reg.counter(&metric("spbla_dev_allocations_total")),
                launches: reg.counter(&metric("spbla_dev_launches_total")),
                blocks_executed: reg.counter(&metric("spbla_dev_blocks_executed_total")),
                h2d_bytes: reg.counter(&metric("spbla_dev_h2d_bytes_total")),
                d2h_bytes: reg.counter(&metric("spbla_dev_d2h_bytes_total")),
                d2d_bytes: reg.counter(&metric("spbla_dev_d2d_bytes_total")),
                accum_insertions: reg.counter(&metric("spbla_dev_accum_insertions_total")),
            }),
        }
    }

    /// Create a device whose global memory is capped at `bytes` — used by
    /// OOM failure-injection tests.
    pub fn with_memory_limit(bytes: usize) -> Self {
        Device::new(DeviceConfig {
            memory_capacity: bytes,
            ..DeviceConfig::default()
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// Process-wide device ordinal: the `dev` label on this device's
    /// `spbla_dev_*` metrics and the trace track (`tid`) of its spans.
    /// Ordinals start at 1; track 0 is reserved for host-side spans.
    pub fn ordinal(&self) -> u64 {
        self.inner.ordinal
    }

    /// Snapshot of the device counters — a thin view over the same
    /// registry cells `spbla_dev_*{dev="ordinal"}` exports read.
    pub fn stats(&self) -> DeviceStats {
        let i = &self.inner;
        DeviceStats {
            bytes_in_use: i.bytes_in_use.get() as usize,
            peak_bytes: i.peak_bytes.get() as usize,
            allocations: i.allocations.get(),
            launches: i.launches.get(),
            blocks_executed: i.blocks_executed.get(),
            h2d_bytes: i.h2d_bytes.get(),
            d2h_bytes: i.d2h_bytes.get(),
            d2d_bytes: i.d2d_bytes.get(),
            accum_insertions: i.accum_insertions.get(),
        }
    }

    /// Reset the peak-bytes watermark to the current usage, so a single
    /// experiment's footprint can be measured on a long-lived device.
    pub fn reset_peak(&self) {
        self.inner.peak_bytes.set(self.inner.bytes_in_use.get());
    }

    /// Arm cooperative cancellation: until [`Device::clear_stop_token`],
    /// every launch entry point checks `token` first and refuses with
    /// the token's typed error once it is cancelled or past deadline.
    /// Installing a new token replaces the previous one.
    pub fn install_stop_token(&self, token: StopToken) {
        *self.inner.stop.lock() = Some(token);
        self.inner.stop_armed.store(true, Ordering::Release);
    }

    /// Disarm cancellation (e.g. when a request finishes and the device
    /// returns to the pool).
    pub fn clear_stop_token(&self) {
        self.inner.stop_armed.store(false, Ordering::Release);
        *self.inner.stop.lock() = None;
    }

    /// The cheap between-launches check: `None` when no token is armed
    /// (one relaxed atomic load) or the armed token is still live.
    pub fn should_stop(&self) -> Option<DeviceError> {
        if !self.inner.stop_armed.load(Ordering::Acquire) {
            return None;
        }
        self.inner
            .stop
            .lock()
            .as_ref()
            .and_then(StopToken::should_stop)
    }

    /// [`Device::should_stop`] as a `Result`, for `?`-chaining between
    /// kernel launches inside fixpoint loops.
    pub fn check_stop(&self) -> Result<()> {
        match self.should_stop() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("config", &self.inner.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_accounting_tracks_peak() {
        let dev = Device::with_memory_limit(1000);
        dev.inner.alloc(400).unwrap();
        dev.inner.alloc(500).unwrap();
        dev.inner.free(500);
        let s = dev.stats();
        assert_eq!(s.bytes_in_use, 400);
        assert_eq!(s.peak_bytes, 900);
        assert_eq!(s.allocations, 2);
    }

    #[test]
    fn alloc_over_capacity_fails() {
        let dev = Device::with_memory_limit(100);
        dev.inner.alloc(64).unwrap();
        let err = dev.inner.alloc(64).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
        // The failed allocation must not be charged.
        assert_eq!(dev.stats().bytes_in_use, 64);
    }

    #[test]
    fn d2d_traffic_accumulates_on_sender() {
        let dev = Device::default();
        dev.count_d2d(128);
        dev.count_d2d(0); // free
        dev.count_d2d(72);
        assert_eq!(dev.stats().d2d_bytes, 200);
    }

    #[test]
    fn reset_peak_rebases_to_current() {
        let dev = Device::with_memory_limit(1000);
        dev.inner.alloc(800).unwrap();
        dev.inner.free(800);
        dev.reset_peak();
        assert_eq!(dev.stats().peak_bytes, 0);
    }

    #[test]
    fn stats_view_matches_registry_cells() {
        let dev = Device::default();
        dev.inner.alloc(256).unwrap();
        dev.inner.count_launch(4);
        dev.inner.count_h2d(100);
        dev.inner.count_d2h(40);
        dev.count_d2d(16);
        dev.count_accum_insertions(9);
        let s = dev.stats();
        let reg = metrics_global();
        let dev_label = dev.ordinal().to_string();
        let get = |family: &str| reg.counter(&labeled(family, &[("dev", &dev_label)])).get();
        assert_eq!(s.launches, get("spbla_dev_launches_total"));
        assert_eq!(s.blocks_executed, get("spbla_dev_blocks_executed_total"));
        assert_eq!(s.h2d_bytes, get("spbla_dev_h2d_bytes_total"));
        assert_eq!(s.d2h_bytes, get("spbla_dev_d2h_bytes_total"));
        assert_eq!(s.d2d_bytes, get("spbla_dev_d2d_bytes_total"));
        assert_eq!(s.accum_insertions, get("spbla_dev_accum_insertions_total"));
        assert_eq!(s.allocations, get("spbla_dev_allocations_total"));
        assert_eq!(
            s.bytes_in_use as u64,
            reg.gauge(&labeled("spbla_dev_bytes_in_use", &[("dev", &dev_label)]))
                .get()
        );
    }

    #[test]
    fn kernel_labels_nest_and_restore() {
        assert_eq!(kernel_label(), "kernel");
        with_kernel_label("gemm", || {
            assert_eq!(kernel_label(), "gemm");
            with_kernel_label("scan", || assert_eq!(kernel_label(), "scan"));
            assert_eq!(kernel_label(), "gemm");
        });
        assert_eq!(kernel_label(), "kernel");
    }
}
