//! Consistency check between the shipped C header (`include/spbla.h`)
//! and the actual `#[no_mangle]` surface — the header is hand-written
//! for readability, so this test keeps it honest.

/// The C header shipped with the crate.
pub const SPBLA_HEADER: &str = include_str!("../include/spbla.h");

/// Every exported symbol of the C API, in declaration order.
pub const EXPORTED_SYMBOLS: &[&str] = &[
    "spbla_Version",
    "spbla_Initialize",
    "spbla_Finalize",
    "spbla_Instance_Backend",
    "spbla_Matrix_New",
    "spbla_Matrix_Build",
    "spbla_Matrix_Duplicate",
    "spbla_Matrix_Free",
    "spbla_Matrix_Dims",
    "spbla_Matrix_Nvals",
    "spbla_Matrix_MemoryBytes",
    "spbla_Matrix_ExtractPairs",
    "spbla_MxM",
    "spbla_Matrix_MxM_Masked",
    "spbla_Matrix_MxM_CompMasked",
    "spbla_EWiseAdd",
    "spbla_EWiseMult",
    "spbla_Kronecker",
    "spbla_Transpose",
    "spbla_SubMatrix",
    "spbla_TransitiveClosure",
    "spbla_Matrix_TransitiveClosureCondensed",
    "spbla_Matrix_ReduceToColumn",
    "spbla_Engine_New",
    "spbla_Engine_LoadGraph",
    "spbla_Engine_SubmitRpq",
    "spbla_Engine_SubmitRpqFromSource",
    "spbla_Engine_SubmitCfpq",
    "spbla_Engine_SubmitClosure",
    "spbla_Engine_SubmitClosureTiered",
    "spbla_Engine_Recover",
    "spbla_Graph_ApplyBatch",
    "spbla_Graph_Version",
    "spbla_Ticket_Cancel",
    "spbla_Ticket_Wait",
    "spbla_Ticket_ExtractPairs",
    "spbla_Ticket_Free",
    "spbla_Engine_Stats",
    "spbla_Engine_Free",
    "spbla_Trace_Enable",
    "spbla_Trace_Dump",
    "spbla_Metrics_Dump",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_declares_every_symbol() {
        for sym in EXPORTED_SYMBOLS {
            assert!(
                SPBLA_HEADER.contains(&format!("{sym}(")),
                "header missing declaration for {sym}"
            );
        }
    }

    #[test]
    fn header_status_codes_match_rust_enum() {
        use crate::status::SpblaStatus;
        let pairs = [
            ("SPBLA_OK", SpblaStatus::Ok as i32),
            ("SPBLA_NULL_POINTER", SpblaStatus::NullPointer as i32),
            ("SPBLA_INVALID_HANDLE", SpblaStatus::InvalidHandle as i32),
            (
                "SPBLA_DIMENSION_MISMATCH",
                SpblaStatus::DimensionMismatch as i32,
            ),
            (
                "SPBLA_INDEX_OUT_OF_BOUNDS",
                SpblaStatus::IndexOutOfBounds as i32,
            ),
            (
                "SPBLA_BACKEND_MISMATCH",
                SpblaStatus::BackendMismatch as i32,
            ),
            (
                "SPBLA_DEVICE_OUT_OF_MEMORY",
                SpblaStatus::DeviceOutOfMemory as i32,
            ),
            ("SPBLA_ERROR", SpblaStatus::Error as i32),
            ("SPBLA_OVERLOADED", SpblaStatus::Overloaded as i32),
            (
                "SPBLA_DEADLINE_EXCEEDED",
                SpblaStatus::DeadlineExceeded as i32,
            ),
            ("SPBLA_CANCELLED", SpblaStatus::Cancelled as i32),
            ("SPBLA_UNKNOWN_GRAPH", SpblaStatus::UnknownGraph as i32),
            ("SPBLA_PLAN_ERROR", SpblaStatus::PlanError as i32),
            ("SPBLA_CORRUPT", SpblaStatus::Corrupt as i32),
            ("SPBLA_NO_CHECKPOINT", SpblaStatus::NoCheckpoint as i32),
            ("SPBLA_REPLICA_FAILED", SpblaStatus::ReplicaFailed as i32),
            ("SPBLA_INVALID_VALUE", SpblaStatus::InvalidValue as i32),
        ];
        for (name, value) in pairs {
            let needle = format!("{name} ");
            let line = SPBLA_HEADER
                .lines()
                .find(|l| l.contains(&needle) || l.contains(&format!("{name}  ")))
                .unwrap_or_else(|| panic!("header missing {name}"));
            assert!(
                line.contains(&format!("= {value}")),
                "{name} mismatch: header line `{line}` vs Rust {value}"
            );
        }
    }

    #[test]
    fn header_backend_codes_match_rust_enum() {
        use crate::matrix_api::SpblaBackend;
        let pairs = [
            ("SPBLA_BACKEND_CPU ", SpblaBackend::Cpu as i32),
            ("SPBLA_BACKEND_CUDA_SIM", SpblaBackend::CudaSim as i32),
            ("SPBLA_BACKEND_CL_SIM", SpblaBackend::ClSim as i32),
        ];
        for (name, value) in pairs {
            let line = SPBLA_HEADER
                .lines()
                .find(|l| l.contains(name))
                .unwrap_or_else(|| panic!("header missing {name}"));
            assert!(
                line.contains(&format!("= {value}")),
                "{name} mismatch: `{line}` vs {value}"
            );
        }
    }

    #[test]
    fn symbol_list_matches_no_mangle_count() {
        // The source files define exactly the declared symbols.
        let sources = concat!(
            include_str!("matrix_api.rs"),
            include_str!("extras_api.rs"),
            include_str!("engine_api.rs"),
            include_str!("obs_api.rs")
        );
        let count = sources.matches("#[no_mangle]").count()
            + sources.matches("binary_op!(").count()
            // each binary_op! invocation expands to one #[no_mangle] fn,
            // and the macro definition itself contains one textual
            // occurrence of the attribute:
            - 1;
        assert_eq!(
            count,
            EXPORTED_SYMBOLS.len(),
            "update EXPORTED_SYMBOLS and include/spbla.h"
        );
    }
}
