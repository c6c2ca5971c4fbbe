//! # spbla-gpu-sim — a software-simulated GPGPU device
//!
//! SPbLA's published backends run on NVIDIA CUDA and OpenCL. This crate is
//! the substitution substrate used by the Rust reproduction: it models the
//! parts of the GPGPU execution and memory model that the paper's kernels
//! actually rely on, and executes them on a persistent CPU worker pool.
//!
//! The model:
//!
//! * a [`Device`] with a configurable amount of "global memory" and
//!   allocation accounting (current / peak bytes — the paper's memory
//!   footprint numbers are byte counts of device allocations);
//! * [`DeviceBuffer`]s, the only way to hold device data, which charge the
//!   device allocator and support explicit host↔device transfers (counted);
//! * bulk-synchronous kernel launches over a grid of blocks
//!   ([`Device::launch`]): blocks run in parallel, each block owns a
//!   disjoint slice of the output (the standard GPU sparse-kernel idiom —
//!   outputs are written at offsets precomputed by a scan, so the
//!   partitioning is faithful rather than a workaround);
//! * per-block [`BlockCtx`] with thread iteration and shared-memory
//!   scratch allocation, where each `for_threads` call is one
//!   barrier-delimited phase (`__syncthreads` boundary);
//! * Thrust-style device-wide primitives: scans, reductions, radix sort,
//!   stream compaction, gather, and merge-path partitioning.
//!
//! What is intentionally *not* modelled: warp divergence, memory
//! coalescing, and intra-block thread concurrency (threads within a block
//! execute sequentially inside a phase, which makes shared-memory hash
//! insertion deterministic). These affect constants only; the reproduction
//! targets algorithmic shape, footprints and relative orderings.

pub mod buffer;
pub mod device;
pub mod error;
pub mod launch;
pub mod primitives;
pub mod stop;

pub use buffer::DeviceBuffer;
pub use device::{with_kernel_label, Device, DeviceConfig, DeviceStats};
pub use error::{DeviceError, Result};
pub use launch::{BlockCtx, LaunchCfg};
pub use stop::StopToken;
