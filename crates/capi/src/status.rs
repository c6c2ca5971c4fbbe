//! C status codes.

use spbla_core::SpblaError;

/// Status codes returned by every API function (cuBool style).
#[repr(i32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpblaStatus {
    /// Success.
    Ok = 0,
    /// A required pointer argument was null.
    NullPointer = 1,
    /// A handle did not resolve to a live object.
    InvalidHandle = 2,
    /// Operand dimensions are incompatible.
    DimensionMismatch = 3,
    /// A coordinate was out of bounds.
    IndexOutOfBounds = 4,
    /// Operands belong to different instances.
    BackendMismatch = 5,
    /// The device ran out of memory.
    DeviceOutOfMemory = 6,
    /// Any other library error.
    Error = 7,
    /// The engine's admission queue was full (retry later).
    Overloaded = 8,
    /// The request's deadline elapsed before it finished.
    DeadlineExceeded = 9,
    /// The request was cancelled via its ticket.
    Cancelled = 10,
    /// No catalog graph is registered under that name.
    UnknownGraph = 11,
    /// The query text did not parse or compile.
    PlanError = 12,
    /// Durable state (WAL segment or checkpoint) failed validation.
    Corrupt = 13,
    /// No readable checkpoint exists in the durability directory.
    NoCheckpoint = 14,
    /// The addressed replica is out of service (failed or poisoned).
    ReplicaFailed = 15,
    /// An enum argument held a value outside its declared range.
    InvalidValue = 16,
}

impl From<&SpblaError> for SpblaStatus {
    fn from(e: &SpblaError) -> SpblaStatus {
        match e {
            SpblaError::DimensionMismatch { .. } => SpblaStatus::DimensionMismatch,
            SpblaError::IndexOutOfBounds { .. } => SpblaStatus::IndexOutOfBounds,
            SpblaError::BackendMismatch => SpblaStatus::BackendMismatch,
            SpblaError::Device(spbla_gpu_sim::DeviceError::OutOfMemory { .. }) => {
                SpblaStatus::DeviceOutOfMemory
            }
            SpblaError::Device(_) => SpblaStatus::Error,
            _ => SpblaStatus::Error,
        }
    }
}

impl From<&spbla_durable::DurableError> for SpblaStatus {
    fn from(e: &spbla_durable::DurableError) -> SpblaStatus {
        use spbla_durable::DurableError;
        match e {
            DurableError::Corrupt { .. } => SpblaStatus::Corrupt,
            DurableError::NoCheckpoint { .. } => SpblaStatus::NoCheckpoint,
            DurableError::ReplicaFailed { .. } => SpblaStatus::ReplicaFailed,
            DurableError::TooLarge { .. } => SpblaStatus::Error,
            DurableError::Io { .. } => SpblaStatus::Error,
            DurableError::Engine(e) => SpblaStatus::from(e),
            DurableError::Exec(e) => SpblaStatus::from(e),
        }
    }
}

impl From<&spbla_engine::EngineError> for SpblaStatus {
    fn from(e: &spbla_engine::EngineError) -> SpblaStatus {
        use spbla_engine::EngineError;
        match e {
            EngineError::Overloaded { .. } => SpblaStatus::Overloaded,
            EngineError::DeadlineExceeded { .. } => SpblaStatus::DeadlineExceeded,
            EngineError::Cancelled => SpblaStatus::Cancelled,
            EngineError::UnknownGraph(_) => SpblaStatus::UnknownGraph,
            EngineError::PlanError(_) => SpblaStatus::PlanError,
            EngineError::ShuttingDown => SpblaStatus::Error,
            EngineError::Exec(e) => SpblaStatus::from(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_mapping() {
        let e = SpblaError::BackendMismatch;
        assert_eq!(SpblaStatus::from(&e), SpblaStatus::BackendMismatch);
        let d = SpblaError::Device(spbla_gpu_sim::DeviceError::OutOfMemory {
            requested: 1,
            in_use: 0,
            capacity: 0,
        });
        assert_eq!(SpblaStatus::from(&d), SpblaStatus::DeviceOutOfMemory);
    }

    #[test]
    fn engine_error_mapping() {
        use spbla_engine::EngineError;
        assert_eq!(
            SpblaStatus::from(&EngineError::Overloaded {
                depth: 4,
                capacity: 4,
                tier: spbla_engine::QosTier::Interactive
            }),
            SpblaStatus::Overloaded
        );
        assert_eq!(
            SpblaStatus::from(&EngineError::DeadlineExceeded {
                elapsed_ms: 5,
                budget_ms: 1
            }),
            SpblaStatus::DeadlineExceeded
        );
        assert_eq!(
            SpblaStatus::from(&EngineError::Cancelled),
            SpblaStatus::Cancelled
        );
        assert_eq!(
            SpblaStatus::from(&EngineError::UnknownGraph("g".into())),
            SpblaStatus::UnknownGraph
        );
        assert_eq!(
            SpblaStatus::from(&EngineError::PlanError("bad".into())),
            SpblaStatus::PlanError
        );
    }

    #[test]
    fn durable_error_mapping() {
        use spbla_durable::DurableError;
        assert_eq!(
            SpblaStatus::from(&DurableError::Corrupt {
                path: "wal-00000000.seg".into(),
                offset: 20,
                reason: "checksum mismatch".into(),
            }),
            SpblaStatus::Corrupt
        );
        assert_eq!(
            SpblaStatus::from(&DurableError::NoCheckpoint { dir: "/d".into() }),
            SpblaStatus::NoCheckpoint
        );
        assert_eq!(
            SpblaStatus::from(&DurableError::ReplicaFailed {
                replica: 2,
                reason: "failed by injection".into(),
            }),
            SpblaStatus::ReplicaFailed
        );
        // Wrapped engine/exec errors keep their existing codes.
        assert_eq!(
            SpblaStatus::from(&DurableError::Engine(
                spbla_engine::EngineError::UnknownGraph("g".into())
            )),
            SpblaStatus::UnknownGraph
        );
    }
}
