//! Bulk-synchronous kernel launches.
//!
//! A launch executes `grid` blocks, each logically running `block_dim`
//! threads. Blocks execute in parallel on the process-wide CPU pool (the
//! launching thread plus parked workers, claiming blocks in chunks);
//! threads within a block execute sequentially inside each
//! barrier-delimited phase (see [`BlockCtx::for_threads`]), which models
//! `__syncthreads` semantics and makes shared-memory updates
//! deterministic.
//!
//! Output discipline: GPU sparse kernels write results at offsets
//! precomputed by a scan (that is the whole point of two-pass symbolic /
//! numeric designs). [`Device::launch`] makes that idiom a safe API: the
//! caller supplies the output buffer together with a partition assigning a
//! disjoint range to each block, and each block receives only its slice.

use rayon::prelude::*;

use crate::device::Device;
use crate::error::{DeviceError, Result};

/// Grid/block shape of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchCfg {
    /// Number of blocks in the grid.
    pub grid: u32,
    /// Threads per block.
    pub block_dim: u32,
}

impl LaunchCfg {
    /// A grid of `grid` blocks with the device-default block size.
    pub fn grid(device: &Device, grid: u32) -> Self {
        LaunchCfg {
            grid,
            block_dim: device.config().default_block_dim,
        }
    }

    /// Enough blocks of `block_dim` threads to cover `n` work items.
    ///
    /// `n == 0` yields a valid one-block launch (a no-op grid) rather
    /// than a zero-block grid that `Device::launch*` would reject as
    /// `InvalidLaunch` — kernels covering empty matrices need no
    /// special-casing at the call site.
    pub fn cover(n: usize, block_dim: u32) -> Self {
        let bd = block_dim.max(1) as usize;
        LaunchCfg {
            grid: n.div_ceil(bd).max(1) as u32,
            block_dim: block_dim.max(1),
        }
    }
}

/// Per-block execution context handed to kernels.
pub struct BlockCtx {
    block_idx: u32,
    grid_dim: u32,
    block_dim: u32,
    shared_limit: usize,
    shared_used: usize,
}

impl BlockCtx {
    /// Index of this block within the grid (`blockIdx.x`).
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// Number of blocks in the grid (`gridDim.x`).
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Threads per block (`blockDim.x`).
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// Allocate a zero-initialised shared-memory array for this block.
    ///
    /// Panics (like a launch failure on a real device) if the block's
    /// shared-memory budget is exceeded — kernels are expected to bin work
    /// so their tables fit, mirroring Nsparse's row binning.
    pub fn shared_array<T: Default + Clone>(&mut self, len: usize) -> Vec<T> {
        let bytes = len * std::mem::size_of::<T>();
        self.shared_used += bytes;
        assert!(
            self.shared_used <= self.shared_limit,
            "shared memory overflow: {} B used of {} B per block",
            self.shared_used,
            self.shared_limit
        );
        vec![T::default(); len]
    }

    /// Release `bytes` of shared memory (when a phase's scratch is dropped
    /// and reused by the next phase).
    pub fn release_shared(&mut self, bytes: usize) {
        self.shared_used = self.shared_used.saturating_sub(bytes);
    }

    /// Run one barrier-delimited phase: the closure is invoked once per
    /// thread id in `0..block_dim`. Returning from `for_threads`
    /// corresponds to `__syncthreads()`.
    pub fn for_threads(&self, mut f: impl FnMut(u32)) {
        for tid in 0..self.block_dim {
            f(tid);
        }
    }

    /// Grid-stride loop over `n` items: invokes `f(item)` for every item
    /// this block is responsible for under a grid-stride schedule.
    pub fn grid_stride(&self, n: usize, mut f: impl FnMut(usize)) {
        let stride = self.grid_dim as usize * self.block_dim as usize;
        let base = self.block_idx as usize * self.block_dim as usize;
        for t in 0..self.block_dim as usize {
            let mut i = base + t;
            while i < n {
                f(i);
                i += stride;
            }
        }
    }
}

impl Device {
    fn make_ctx(&self, block_idx: u32, cfg: LaunchCfg) -> BlockCtx {
        BlockCtx {
            block_idx,
            grid_dim: cfg.grid,
            block_dim: cfg.block_dim,
            shared_limit: self.config().shared_mem_per_block,
            shared_used: 0,
        }
    }

    fn check_cfg(cfg: LaunchCfg) -> Result<()> {
        if cfg.grid == 0 || cfg.block_dim == 0 {
            return Err(DeviceError::InvalidLaunch(format!(
                "grid={} block_dim={}",
                cfg.grid, cfg.block_dim
            )));
        }
        Ok(())
    }

    /// Launch a kernel whose blocks only read device data (outputs, if
    /// any, are produced through reductions or captured atomics).
    pub fn launch_read<F>(&self, cfg: LaunchCfg, kernel: F) -> Result<()>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        Self::check_cfg(cfg)?;
        self.check_stop()?;
        self.inner.count_launch(cfg.grid as u64);
        self.traced_run(cfg, || {
            (0..cfg.grid).into_par_iter().for_each(|b| {
                let mut ctx = self.make_ctx(b, cfg);
                kernel(&mut ctx);
            });
        });
        Ok(())
    }

    /// Run `f`, recording a `kernel` span when tracing is on. Every
    /// launch entry point funnels through here after its `count_launch`,
    /// so the trace carries exactly one kernel span per counted launch —
    /// the invariant the `spbla trace` export relies on.
    fn traced_run<R>(&self, cfg: LaunchCfg, f: impl FnOnce() -> R) -> R {
        let t = spbla_obs::trace_global();
        if !t.is_enabled() {
            return f();
        }
        let start = t.now_ns();
        let out = f();
        t.leaf(
            crate::device::kernel_label(),
            "kernel",
            self.ordinal(),
            start,
            t.now_ns().saturating_sub(start),
            &[
                ("grid", cfg.grid as u64),
                ("block_dim", cfg.block_dim as u64),
            ],
        );
        out
    }

    /// Launch a kernel where block `b` exclusively owns the output range
    /// `partition(b)`. The ranges must be non-overlapping and ascending
    /// (gaps are allowed: unassigned elements are left untouched).
    pub fn launch<T, F>(
        &self,
        cfg: LaunchCfg,
        out: &mut [T],
        partition: impl Fn(u32) -> std::ops::Range<usize>,
        kernel: F,
    ) -> Result<()>
    where
        T: Send,
        F: Fn(&mut BlockCtx, &mut [T]) + Sync,
    {
        Self::check_cfg(cfg)?;
        self.check_stop()?;
        // Materialise and validate the partition.
        let mut ranges = Vec::with_capacity(cfg.grid as usize);
        let mut cursor = 0usize;
        for b in 0..cfg.grid {
            let r = partition(b);
            if r.start < cursor || r.end < r.start || r.end > out.len() {
                return Err(DeviceError::BadPartition(format!(
                    "block {b}: range {}..{} (cursor {cursor}, len {})",
                    r.start,
                    r.end,
                    out.len()
                )));
            }
            cursor = r.end;
            ranges.push(r);
        }
        self.inner.count_launch(cfg.grid as u64);

        // Split `out` into the per-block slices.
        let mut slices: Vec<(u32, &mut [T])> = Vec::with_capacity(ranges.len());
        let mut rest = out;
        let mut offset = 0usize;
        for (b, r) in ranges.iter().enumerate() {
            let (skip, tail) = rest.split_at_mut(r.start - offset);
            let _ = skip;
            let (mine, tail) = tail.split_at_mut(r.end - r.start);
            slices.push((b as u32, mine));
            rest = tail;
            offset = r.end;
        }

        self.traced_run(cfg, || {
            slices.into_par_iter().for_each(|(b, slice)| {
                let mut ctx = self.make_ctx(b, cfg);
                kernel(&mut ctx, slice);
            });
        });
        Ok(())
    }

    /// Launch a kernel that owns one output *chunk of fixed size* per
    /// block, covering `out` (last block may get a short chunk).
    pub fn launch_chunks<T, F>(
        &self,
        block_dim: u32,
        out: &mut [T],
        chunk: usize,
        kernel: F,
    ) -> Result<()>
    where
        T: Send,
        F: Fn(&mut BlockCtx, usize, &mut [T]) + Sync,
    {
        if chunk == 0 {
            return Err(DeviceError::InvalidLaunch("chunk size 0".into()));
        }
        let grid = out.len().div_ceil(chunk).max(1) as u32;
        let cfg = LaunchCfg {
            grid,
            block_dim: block_dim.max(1),
        };
        Self::check_cfg(cfg)?;
        self.check_stop()?;
        self.inner.count_launch(cfg.grid as u64);
        self.traced_run(cfg, || {
            out.par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(b, slice)| {
                    let mut ctx = self.make_ctx(b as u32, cfg);
                    kernel(&mut ctx, b * chunk, slice);
                });
        });
        Ok(())
    }

    /// Device-wide elementwise map: `out[i] = f(i)`. One grid-stride
    /// kernel launch.
    pub fn launch_map<T, F>(&self, out: &mut [T], f: F) -> Result<()>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let block = self.config().default_block_dim as usize;
        self.launch_chunks(block as u32, out, block.max(1), |_ctx, base, slice| {
            for (k, dst) in slice.iter_mut().enumerate() {
                *dst = f(base + k);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_map_fills() {
        let dev = Device::default();
        let mut out = vec![0usize; 1000];
        dev.launch_map(&mut out, |i| i * 2).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
        assert_eq!(dev.stats().launches, 1);
    }

    #[test]
    fn partitioned_launch_gives_disjoint_slices() {
        let dev = Device::default();
        let mut out = vec![0u32; 64];
        let cfg = LaunchCfg {
            grid: 8,
            block_dim: 4,
        };
        dev.launch(
            cfg,
            &mut out,
            |b| (b as usize * 8)..(b as usize * 8 + 8),
            |ctx, slice| {
                for v in slice.iter_mut() {
                    *v = ctx.block_idx();
                }
            },
        )
        .unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v as usize, i / 8);
        }
    }

    #[test]
    fn overlapping_partition_rejected() {
        let dev = Device::default();
        let mut out = vec![0u32; 10];
        let cfg = LaunchCfg {
            grid: 2,
            block_dim: 1,
        };
        let err = dev
            .launch(cfg, &mut out, |_b| 0..6, |_c, _s| {})
            .unwrap_err();
        assert!(matches!(err, DeviceError::BadPartition(_)));
    }

    #[test]
    fn zero_grid_rejected() {
        let dev = Device::default();
        let err = dev
            .launch_read(
                LaunchCfg {
                    grid: 0,
                    block_dim: 1,
                },
                |_c| {},
            )
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidLaunch(_)));
    }

    #[test]
    fn cover_of_zero_items_is_a_valid_noop_launch() {
        let dev = Device::default();
        let cfg = LaunchCfg::cover(0, 128);
        assert_eq!(cfg.grid, 1);
        // The empty cover must launch cleanly and touch nothing.
        let visited = std::sync::atomic::AtomicU32::new(0);
        dev.launch_read(cfg, |ctx| {
            ctx.grid_stride(0, |_| {
                visited.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        })
        .unwrap();
        assert_eq!(visited.load(std::sync::atomic::Ordering::Relaxed), 0);
        // Partitioned launches over an empty output work too.
        let mut out: Vec<u32> = Vec::new();
        dev.launch(cfg, &mut out, |_b| 0..0, |_ctx, _slice| {})
            .unwrap();
    }

    #[test]
    fn grid_stride_covers_everything_once() {
        let dev = Device::default();
        let cfg = LaunchCfg {
            grid: 7,
            block_dim: 3,
        };
        let n = 1000usize;
        let counts: Vec<std::sync::atomic::AtomicU32> = (0..n)
            .map(|_| std::sync::atomic::AtomicU32::new(0))
            .collect();
        dev.launch_read(cfg, |ctx| {
            ctx.grid_stride(n, |i| {
                counts[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        })
        .unwrap();
        assert!(counts
            .iter()
            .all(|c| c.load(std::sync::atomic::Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn shared_memory_budget_enforced() {
        let dev = Device::default();
        let limit = dev.config().shared_mem_per_block;
        dev.launch_read(
            LaunchCfg {
                grid: 1,
                block_dim: 1,
            },
            |ctx| {
                let _big = ctx.shared_array::<u8>(limit + 1);
            },
        )
        .unwrap();
    }

    #[test]
    fn panicking_kernel_leaves_the_device_usable() {
        let dev = Device::default();
        let cfg = LaunchCfg {
            grid: 64,
            block_dim: 1,
        };
        let before = dev.stats().launches;
        let payload = std::panic::catch_unwind(|| {
            dev.launch_read(cfg, |ctx| {
                if ctx.block_idx() == 41 {
                    panic!("block 41 faulted");
                }
            })
        })
        .expect_err("the kernel's panic reaches the launcher");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 41 faulted"));

        let visited = std::sync::atomic::AtomicU32::new(0);
        dev.launch_read(cfg, |_ctx| {
            visited.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(visited.load(std::sync::atomic::Ordering::Relaxed), 64);
        assert_eq!(dev.stats().launches, before + 2);
    }

    #[test]
    fn gaps_in_partition_are_allowed() {
        let dev = Device::default();
        let mut out = vec![9u8; 10];
        let cfg = LaunchCfg {
            grid: 2,
            block_dim: 1,
        };
        dev.launch(
            cfg,
            &mut out,
            |b| if b == 0 { 0..2 } else { 5..7 },
            |_ctx, slice| slice.fill(0),
        )
        .unwrap();
        assert_eq!(out, vec![0, 0, 9, 9, 9, 0, 0, 9, 9, 9]);
    }
}
