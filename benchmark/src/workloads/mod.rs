//! The six workloads. Each module's `setup` builds the workload's whole
//! state from the seed (generate, upload, compile) and is what
//! `setup_s` times.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

pub mod cfpq_index;
pub mod closure_grid;
pub mod ops;
pub mod rpq_index;
pub mod serve_mixed;
pub mod stream_durable;

static OUT_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Where workloads may write (the durability directories).
pub fn set_out_dir(dir: &Path) {
    let _ = OUT_DIR.set(dir.to_path_buf());
}

pub fn out_dir() -> &'static Path {
    OUT_DIR
        .get()
        .map_or(Path::new("benchmark/out"), PathBuf::as_path)
}
