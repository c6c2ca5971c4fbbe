//! Observability `extern "C"` surface: process-wide kernel tracing and
//! metric dumps. Both dumps use the two-call buffer protocol of
//! `spbla_Matrix_ExtractPairs`: pass a null buffer to learn the required
//! size (including the trailing NUL), then call again with a buffer of
//! at least that size. Other threads may grow the trace or the registry
//! between the two calls, so a too-short buffer gets `Error` *with* a
//! new size in `*len` — the current required size plus an eighth, so
//! that the retry still fits while the text keeps growing — and callers
//! retry until `Ok`.

use std::os::raw::c_char;

use spbla_obs::{metrics_global, trace_global};

use crate::status::SpblaStatus;

/// Enable kernel/transfer/request tracing with a ring of `capacity`
/// spans, clearing anything previously recorded. A capacity of zero
/// disables tracing (the recorded spans stay dumpable).
#[no_mangle]
pub extern "C" fn spbla_Trace_Enable(capacity: usize) -> SpblaStatus {
    let trace = trace_global();
    if capacity == 0 {
        trace.disable();
    } else {
        trace.enable(capacity);
    }
    SpblaStatus::Ok
}

/// Copy `text` out through the two-call protocol (`*len` is the buffer
/// size in, the required size — NUL included — out; when the buffer was
/// too short the call returns `Error` and `*len` adds an eighth of
/// headroom).
///
/// Without the headroom a caller retrying at exactly the reported size
/// can lose every round to a registry that grows while it renders.
unsafe fn dump_text(text: &str, buf: *mut c_char, len: *mut usize) -> SpblaStatus {
    if len.is_null() {
        return SpblaStatus::NullPointer;
    }
    let required = text.len() + 1;
    if buf.is_null() {
        *len = required;
        return SpblaStatus::Ok;
    }
    if *len < required {
        *len = required + required / 8;
        return SpblaStatus::Error;
    }
    std::ptr::copy_nonoverlapping(text.as_ptr(), buf.cast::<u8>(), text.len());
    *buf.add(text.len()) = 0;
    *len = required;
    SpblaStatus::Ok
}

/// Dump the recorded trace as chrome://tracing JSON.
///
/// # Safety
/// `len` must be valid; `buf`, when non-null, must have `*len` writable
/// bytes.
#[no_mangle]
pub unsafe extern "C" fn spbla_Trace_Dump(buf: *mut c_char, len: *mut usize) -> SpblaStatus {
    dump_text(&trace_global().render_chrome_json(), buf, len)
}

/// Dump the global metrics registry. `format` 0 renders Prometheus text
/// exposition, 1 renders JSON; anything else is an error.
///
/// # Safety
/// `len` must be valid; `buf`, when non-null, must have `*len` writable
/// bytes.
#[no_mangle]
pub unsafe extern "C" fn spbla_Metrics_Dump(
    format: i32,
    buf: *mut c_char,
    len: *mut usize,
) -> SpblaStatus {
    let text = match format {
        0 => metrics_global().render_prometheus(),
        1 => metrics_global().render_json(),
        _ => return SpblaStatus::Error,
    };
    dump_text(&text, buf, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_api::{
        spbla_Finalize, spbla_Initialize, spbla_Matrix_Build, spbla_Matrix_Free, spbla_Matrix_New,
        spbla_MxM, SpblaBackend,
    };

    /// The caller's side of the two-call protocol: size, then fill,
    /// retrying with the size a too-short fill reports.
    unsafe fn dump_string(f: impl Fn(*mut c_char, *mut usize) -> SpblaStatus) -> String {
        let mut len = 0usize;
        assert_eq!(f(std::ptr::null_mut(), &mut len), SpblaStatus::Ok);
        for _ in 0..8 {
            assert!(len >= 1);
            let cap = len;
            let mut buf = vec![0u8; cap];
            match f(buf.as_mut_ptr().cast::<c_char>(), &mut len) {
                SpblaStatus::Ok => {
                    assert_eq!(buf[len - 1], 0, "dump is not NUL-terminated");
                    return String::from_utf8(buf[..len - 1].to_vec()).unwrap();
                }
                SpblaStatus::Error => {
                    assert!(len > cap, "a too-short fill reports the size it needs")
                }
                other => panic!("dump failed with {other:?}"),
            }
        }
        panic!("dump still growing after 8 attempts")
    }

    #[test]
    fn trace_enable_and_dump_round_trip() {
        assert_eq!(spbla_Trace_Enable(4096), SpblaStatus::Ok);
        let mut inst = 0u64;
        unsafe { spbla_Initialize(SpblaBackend::CudaSim as i32, &mut inst) };
        let mut m = 0u64;
        unsafe { spbla_Matrix_New(inst, 4, 4, &mut m) };
        let rows = [0u32, 1, 2];
        let cols = [1u32, 2, 3];
        unsafe { spbla_Matrix_Build(m, rows.as_ptr(), cols.as_ptr(), 3) };
        let mut c = 0u64;
        assert_eq!(unsafe { spbla_MxM(m, m, &mut c) }, SpblaStatus::Ok);

        // Stop recording before dumping: launches on other test threads
        // would otherwise keep growing the trace while it renders.
        assert_eq!(spbla_Trace_Enable(0), SpblaStatus::Ok);
        let json = unsafe { dump_string(|b, l| spbla_Trace_Dump(b, l)) };
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"cat\":\"kernel\""), "{json}");

        spbla_Matrix_Free(m);
        spbla_Matrix_Free(c);
        spbla_Finalize(inst);
    }

    #[test]
    fn metrics_dump_formats_and_errors() {
        // At least one device has been created across the test binary,
        // so both renderings carry the per-device launch counters.
        let mut inst = 0u64;
        unsafe { spbla_Initialize(SpblaBackend::CudaSim as i32, &mut inst) };
        let prom = unsafe { dump_string(|b, l| spbla_Metrics_Dump(0, b, l)) };
        assert!(prom.contains("spbla_dev_launches_total"), "{prom}");
        let json = unsafe { dump_string(|b, l| spbla_Metrics_Dump(1, b, l)) };
        assert!(json.contains("spbla_dev_launches_total"), "{json}");
        let mut len = 0usize;
        assert_eq!(
            unsafe { spbla_Metrics_Dump(7, std::ptr::null_mut(), &mut len) },
            SpblaStatus::Error
        );
        spbla_Finalize(inst);
    }

    #[test]
    fn metrics_dump_is_whole_while_another_thread_grows_the_registry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        /// Stops the launching thread even when an assertion fails.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let start = Barrier::new(2);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut inst = 0u64;
                unsafe { spbla_Initialize(SpblaBackend::CudaSim as i32, &mut inst) };
                let rows = [0u32, 1, 2];
                let cols = [1u32, 2, 3];
                start.wait();
                for k in 0.. {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    // A new device adds registry cells; launches widen
                    // counter values. Capped so the dumps stay small.
                    if k < 32 {
                        let mut extra = 0u64;
                        unsafe { spbla_Initialize(SpblaBackend::CudaSim as i32, &mut extra) };
                        spbla_Finalize(extra);
                    }
                    let mut m = 0u64;
                    unsafe { spbla_Matrix_New(inst, 4, 4, &mut m) };
                    unsafe { spbla_Matrix_Build(m, rows.as_ptr(), cols.as_ptr(), 3) };
                    let mut c = 0u64;
                    unsafe { spbla_MxM(m, m, &mut c) };
                    spbla_Matrix_Free(m);
                    spbla_Matrix_Free(c);
                }
                spbla_Finalize(inst);
            });
            let _stop = Stop(&done);
            start.wait();
            for _ in 0..1000 {
                let json = unsafe { dump_string(|b, l| spbla_Metrics_Dump(1, b, l)) };
                assert!(!json.contains('\0'), "dump holds an interior NUL");
                assert!(json.starts_with('[') && json.ends_with(']'), "torn dump");
            }
        });
    }

    #[test]
    fn dump_rejects_null_len_and_short_buffers() {
        assert_eq!(
            unsafe { spbla_Trace_Dump(std::ptr::null_mut(), std::ptr::null_mut()) },
            SpblaStatus::NullPointer
        );
        let mut one = 1usize; // never enough: "{...}" plus NUL
        let mut byte: c_char = 0;
        assert_eq!(
            unsafe { spbla_Trace_Dump(&mut byte, &mut one) },
            SpblaStatus::Error
        );
        assert!(one > 1, "a short buffer learns the required size");
    }
}
