//! Library error type.

use std::fmt;

/// Errors returned by SPbLA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpblaError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Operation name, e.g. `"mxm"`.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (u32, u32),
        /// Shape of the right operand.
        rhs: (u32, u32),
    },
    /// A coordinate lies outside the matrix bounds.
    IndexOutOfBounds {
        /// Offending row index.
        row: u32,
        /// Offending column index.
        col: u32,
        /// Matrix shape.
        shape: (u32, u32),
    },
    /// Operands belong to different backends/instances.
    BackendMismatch,
    /// A requested dimension is zero or would overflow the index type
    /// (e.g. a Kronecker product larger than `u32::MAX` on a side).
    InvalidDimension(String),
    /// The simulated device failed (out of memory, bad launch).
    Device(spbla_gpu_sim::DeviceError),
}

impl fmt::Display for SpblaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpblaError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: dimension mismatch between {}x{} and {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            SpblaError::IndexOutOfBounds { row, col, shape } => write!(
                f,
                "index ({row}, {col}) out of bounds for {}x{} matrix",
                shape.0, shape.1
            ),
            SpblaError::BackendMismatch => {
                write!(f, "operands belong to different backend instances")
            }
            SpblaError::InvalidDimension(msg) => write!(f, "invalid dimension: {msg}"),
            SpblaError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for SpblaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpblaError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<spbla_gpu_sim::DeviceError> for SpblaError {
    fn from(e: spbla_gpu_sim::DeviceError) -> Self {
        SpblaError::Device(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SpblaError>;
