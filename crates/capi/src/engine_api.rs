//! `extern "C"` surface of the serving engine: opaque engine and ticket
//! handles over [`spbla_engine::Engine`], in the same cuBool style as
//! the matrix API — status returns, out-parameters, and a two-call
//! extract protocol for reading answers.
//!
//! Lifecycle: `spbla_Engine_New` → `spbla_Engine_LoadGraph` →
//! `spbla_Engine_Submit*` (each returns a ticket) → `spbla_Ticket_Wait`
//! (blocks; the status *is* the request outcome) →
//! `spbla_Ticket_ExtractPairs` → `spbla_Ticket_Free` →
//! `spbla_Engine_Free` (drains the queue and joins the workers).

use std::ffi::CStr;
use std::os::raw::c_char;
use std::time::Duration;

use spbla_data::io::load_graph;
use spbla_engine::{Engine, EngineConfig, QosTier, Query, QueryResult};
use spbla_multidev::DeviceGrid;
use spbla_stream::UpdateBatch;

use crate::handles::{Registry, SpblaEngine, SpblaTicket};
use crate::status::SpblaStatus;

/// Engine-wide counters, C layout. Mirrors `spbla_engine::EngineStats`
/// with the per-device launch counters already summed.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct SpblaEngineStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests bounced by admission control.
    pub rejected: u64,
    /// Requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Requests cancelled via their ticket.
    pub cancelled: u64,
    /// Requests that failed in execution.
    pub failed: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (compilations).
    pub plan_misses: u64,
    /// Catalog residency hits.
    pub residency_hits: u64,
    /// Catalog residency misses (uploads).
    pub residency_misses: u64,
    /// Catalog LRU evictions.
    pub residency_evictions: u64,
    /// High-water mark of the admission-queue depth.
    pub queue_depth_hwm: u64,
    /// Always 0: requests are never coalesced (published layout).
    pub batches: u64,
    /// Always 0: requests are never coalesced (published layout).
    pub batched_requests: u64,
    /// Kernel launches summed over every device.
    pub launches: u64,
}

/// # Safety
/// `p` must be null or a valid NUL-terminated C string.
unsafe fn cstr<'a>(p: *const c_char) -> Result<&'a str, SpblaStatus> {
    if p.is_null() {
        return Err(SpblaStatus::NullPointer);
    }
    CStr::from_ptr(p).to_str().map_err(|_| SpblaStatus::Error)
}

fn submit(
    engine: SpblaEngine,
    graph: &str,
    query: Query,
    deadline_ms: u64,
    out: *mut SpblaTicket,
) -> SpblaStatus {
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    let result =
        Registry::global().with_engine(engine, |e| e.submit_with_deadline(graph, query, deadline));
    match result {
        Some(Ok(ticket)) => {
            // Safety: caller contract — `out` checked non-null upstream.
            unsafe { *out = Registry::global().insert_ticket(ticket) };
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Create a serving engine over `n_devices` simulated devices.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_New(n_devices: u32, out: *mut SpblaEngine) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    if n_devices == 0 {
        return SpblaStatus::Error;
    }
    let engine = Engine::new(DeviceGrid::new(n_devices as usize), EngineConfig::default());
    *out = Registry::global().insert_engine(engine);
    SpblaStatus::Ok
}

/// Register the triples file at `path` as catalog graph `name`.
///
/// # Safety
/// `name` and `path` must be valid NUL-terminated C strings.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_LoadGraph(
    engine: SpblaEngine,
    name: *const c_char,
    path: *const c_char,
) -> SpblaStatus {
    let (name, path) = match (cstr(name), cstr(path)) {
        (Ok(n), Ok(p)) => (n, p),
        (Err(s), _) | (_, Err(s)) => return s,
    };
    let loaded = Registry::global().with_engine(engine, |e| {
        e.with_symbols(|table| load_graph(path, table))
            .map(|graph| e.add_graph(name, graph))
    });
    match loaded {
        Some(Ok(())) => SpblaStatus::Ok,
        Some(Err(_)) => SpblaStatus::Error,
        None => SpblaStatus::InvalidHandle,
    }
}

/// Submit an all-pairs RPQ over catalog graph `graph`.
///
/// # Safety
/// `graph` and `regex` must be valid C strings; `out` a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_SubmitRpq(
    engine: SpblaEngine,
    graph: *const c_char,
    regex: *const c_char,
    out: *mut SpblaTicket,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let (graph, regex) = match (cstr(graph), cstr(regex)) {
        (Ok(g), Ok(r)) => (g, r),
        (Err(s), _) | (_, Err(s)) => return s,
    };
    submit(engine, graph, Query::Rpq(regex.to_string()), 0, out)
}

/// Submit a single-source RPQ (the batchable form). `deadline_ms = 0`
/// means no deadline.
///
/// # Safety
/// `graph` and `regex` must be valid C strings; `out` a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_SubmitRpqFromSource(
    engine: SpblaEngine,
    graph: *const c_char,
    regex: *const c_char,
    source: u32,
    deadline_ms: u64,
    out: *mut SpblaTicket,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let (graph, regex) = match (cstr(graph), cstr(regex)) {
        (Ok(g), Ok(r)) => (g, r),
        (Err(s), _) | (_, Err(s)) => return s,
    };
    submit(
        engine,
        graph,
        Query::RpqFromSource {
            text: regex.to_string(),
            source,
        },
        deadline_ms,
        out,
    )
}

/// Submit a CFPQ over catalog graph `graph`.
///
/// # Safety
/// `graph` and `grammar` must be valid C strings; `out` a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_SubmitCfpq(
    engine: SpblaEngine,
    graph: *const c_char,
    grammar: *const c_char,
    out: *mut SpblaTicket,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let (graph, grammar) = match (cstr(graph), cstr(grammar)) {
        (Ok(g), Ok(r)) => (g, r),
        (Err(s), _) | (_, Err(s)) => return s,
    };
    submit(engine, graph, Query::Cfpq(grammar.to_string()), 0, out)
}

/// Submit a transitive-closure query over catalog graph `graph`.
///
/// # Safety
/// `graph` must be a valid C string; `out` a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_SubmitClosure(
    engine: SpblaEngine,
    graph: *const c_char,
    out: *mut SpblaTicket,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let graph = match cstr(graph) {
        Ok(g) => g,
        Err(s) => return s,
    };
    submit(engine, graph, Query::Closure, 0, out)
}

/// Submit a transitive-closure query under a QoS admission tier:
/// `tier` 0 is interactive (admitted up to the full queue capacity),
/// 1 is batch (bounced earlier, at the batch admission fraction).
/// `deadline_ms` 0 means no deadline.
///
/// # Safety
/// `graph` must be a valid C string; `out` a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_SubmitClosureTiered(
    engine: SpblaEngine,
    graph: *const c_char,
    tier: u32,
    deadline_ms: u64,
    out: *mut SpblaTicket,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    let graph = match cstr(graph) {
        Ok(g) => g,
        Err(s) => return s,
    };
    let tier = match tier {
        0 => QosTier::Interactive,
        1 => QosTier::Batch,
        _ => return SpblaStatus::Error,
    };
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    let result = Registry::global().with_engine(engine, |e| {
        e.submit_tiered(graph, Query::Closure, tier, deadline)
    });
    match result {
        Some(Ok(ticket)) => {
            // Safety: `out` checked non-null above.
            *out = Registry::global().insert_ticket(ticket);
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Rebuild catalog graph `name` from the durability directory at `dir`:
/// latest good checkpoint plus write-ahead-log tail replay. Writes the
/// recovered head version to `out_version`.
///
/// # Safety
/// `name` and `dir` must be valid NUL-terminated C strings;
/// `out_version` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_Recover(
    engine: SpblaEngine,
    name: *const c_char,
    dir: *const c_char,
    out_version: *mut u64,
) -> SpblaStatus {
    if out_version.is_null() {
        return SpblaStatus::NullPointer;
    }
    let (name, dir) = match (cstr(name), cstr(dir)) {
        (Ok(n), Ok(d)) => (n, d),
        (Err(s), _) | (_, Err(s)) => return s,
    };
    let recovered = Registry::global().with_engine(engine, |e| {
        spbla_durable::recover_into_engine(e, name, std::path::Path::new(dir))
    });
    match recovered {
        Some(Ok(summary)) => {
            // Safety: `out_version` checked non-null above.
            *out_version = summary.head_version;
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Apply a batch of same-label edge updates to catalog graph `graph`
/// and block until the new version is live: `n` edges
/// `(from[k], label, to[k])`, inserted when `is_delete` is zero and
/// deleted otherwise. Writes the produced version number to
/// `out_version`. Queries admitted before the call keep reading the
/// version they pinned at submission.
///
/// # Safety
/// `graph` and `label` must be valid NUL-terminated C strings; `from`
/// and `to` must have `n` readable elements (null only if `n == 0`);
/// `out_version` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Graph_ApplyBatch(
    engine: SpblaEngine,
    graph: *const c_char,
    label: *const c_char,
    from: *const u32,
    to: *const u32,
    n: usize,
    is_delete: u32,
    out_version: *mut u64,
) -> SpblaStatus {
    if out_version.is_null() || (n > 0 && (from.is_null() || to.is_null())) {
        return SpblaStatus::NullPointer;
    }
    let (graph, label) = match (cstr(graph), cstr(label)) {
        (Ok(g), Ok(l)) => (g, l),
        (Err(s), _) | (_, Err(s)) => return s,
    };
    let outcome = Registry::global().with_engine(engine, |e| {
        let sym = e.with_symbols(|table| table.intern(label));
        let mut batch = UpdateBatch::new();
        for k in 0..n {
            // Safety: caller contract — `from`/`to` hold `n` elements.
            let (u, v) = (*from.add(k), *to.add(k));
            if is_delete == 0 {
                batch.insert(u, sym, v);
            } else {
                batch.delete(u, sym, v);
            }
        }
        e.apply_batch(graph, batch)
    });
    match outcome {
        Some(Ok(version)) => {
            *out_version = version;
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Read the latest version number of catalog graph `graph` (0 until the
/// first applied batch).
///
/// # Safety
/// `graph` must be a valid C string; `out_version` a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Graph_Version(
    engine: SpblaEngine,
    graph: *const c_char,
    out_version: *mut u64,
) -> SpblaStatus {
    if out_version.is_null() {
        return SpblaStatus::NullPointer;
    }
    let graph = match cstr(graph) {
        Ok(g) => g,
        Err(s) => return s,
    };
    match Registry::global().with_engine(engine, |e| e.graph_version(graph)) {
        Some(Ok(version)) => {
            *out_version = version;
            SpblaStatus::Ok
        }
        Some(Err(e)) => SpblaStatus::from(&e),
        None => SpblaStatus::InvalidHandle,
    }
}

/// Request cooperative cancellation of a pending ticket.
#[no_mangle]
pub extern "C" fn spbla_Ticket_Cancel(ticket: SpblaTicket) -> SpblaStatus {
    match Registry::global().with_ticket(ticket, |t| t.cancel()) {
        Some(()) => SpblaStatus::Ok,
        None => SpblaStatus::InvalidHandle,
    }
}

/// Block until the request completes; the return status is the request
/// outcome (`SPBLA_OK`, `SPBLA_DEADLINE_EXCEEDED`, `SPBLA_CANCELLED`,
/// …). On `SPBLA_OK` the answer is stored for
/// `spbla_Ticket_ExtractPairs`. Waiting a ticket twice is
/// `SPBLA_INVALID_HANDLE`.
#[no_mangle]
pub extern "C" fn spbla_Ticket_Wait(ticket: SpblaTicket) -> SpblaStatus {
    // Take the ticket out of the registry first: the blocking wait must
    // not hold any registry lock.
    let Some(t) = Registry::global().take_ticket(ticket) else {
        return SpblaStatus::InvalidHandle;
    };
    match t.wait().result {
        Ok(result) => {
            let pairs = match result {
                QueryResult::Pairs(p) => p,
                // Single-source answers: both coordinates hold the
                // reachable vertex (documented in the header).
                QueryResult::Reachable(vs) => vs.into_iter().map(|v| (v, v)).collect(),
                // Updates carry no pairs; the produced version is read
                // via `spbla_Graph_Version` (or `spbla_Graph_ApplyBatch`,
                // which returns it directly).
                QueryResult::Applied(_) => Vec::new(),
            };
            Registry::global()
                .ticket_results
                .lock()
                .insert(ticket, pairs);
            SpblaStatus::Ok
        }
        Err(e) => SpblaStatus::from(&e),
    }
}

/// Read a waited ticket's answer with the two-call protocol: pass null
/// buffers to query the count, then buffers of that capacity.
///
/// # Safety
/// `nvals` must be valid; `rows`/`cols`, when non-null, must have
/// `*nvals` writable elements.
#[no_mangle]
pub unsafe extern "C" fn spbla_Ticket_ExtractPairs(
    ticket: SpblaTicket,
    rows: *mut u32,
    cols: *mut u32,
    nvals: *mut usize,
) -> SpblaStatus {
    if nvals.is_null() {
        return SpblaStatus::NullPointer;
    }
    let guard = Registry::global().ticket_results.lock();
    let Some(pairs) = guard.get(&ticket) else {
        return SpblaStatus::InvalidHandle;
    };
    if rows.is_null() || cols.is_null() {
        *nvals = pairs.len();
        return SpblaStatus::Ok;
    }
    if *nvals < pairs.len() {
        return SpblaStatus::Error;
    }
    for (k, &(i, j)) in pairs.iter().enumerate() {
        *rows.add(k) = i;
        *cols.add(k) = j;
    }
    *nvals = pairs.len();
    SpblaStatus::Ok
}

/// Release a ticket handle (waited or not; an unwaited request still
/// runs to completion inside the engine).
#[no_mangle]
pub extern "C" fn spbla_Ticket_Free(ticket: SpblaTicket) -> SpblaStatus {
    let had_ticket = Registry::global().take_ticket(ticket).is_some();
    let had_result = Registry::global()
        .ticket_results
        .lock()
        .remove(&ticket)
        .is_some();
    if had_ticket || had_result {
        SpblaStatus::Ok
    } else {
        SpblaStatus::InvalidHandle
    }
}

/// Snapshot the engine-wide counters.
///
/// # Safety
/// `out` must be a valid pointer.
#[no_mangle]
pub unsafe extern "C" fn spbla_Engine_Stats(
    engine: SpblaEngine,
    out: *mut SpblaEngineStats,
) -> SpblaStatus {
    if out.is_null() {
        return SpblaStatus::NullPointer;
    }
    match Registry::global().with_engine(engine, |e| e.stats()) {
        Some(s) => {
            *out = SpblaEngineStats {
                submitted: s.submitted,
                completed: s.completed,
                rejected: s.rejected,
                deadline_exceeded: s.deadline_exceeded,
                cancelled: s.cancelled,
                failed: s.failed,
                plan_hits: s.plan_hits,
                plan_misses: s.plan_misses,
                residency_hits: s.residency_hits,
                residency_misses: s.residency_misses,
                residency_evictions: s.residency_evictions,
                queue_depth_hwm: s.queue_depth_hwm as u64,
                batches: s.batches,
                batched_requests: s.batched_requests,
                launches: s.devices.iter().map(|d| d.launches).sum(),
            };
            SpblaStatus::Ok
        }
        None => SpblaStatus::InvalidHandle,
    }
}

/// Tear the engine down: drains the admission queue, joins the workers,
/// releases the devices.
#[no_mangle]
pub extern "C" fn spbla_Engine_Free(engine: SpblaEngine) -> SpblaStatus {
    // Remove first, then drop outside the registry lock — dropping
    // joins the worker threads, which may still be serving requests.
    match Registry::global().remove_engine(engine) {
        Some(e) => {
            drop(e);
            SpblaStatus::Ok
        }
        None => SpblaStatus::InvalidHandle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> std::ffi::CString {
        std::ffi::CString::new(s).unwrap()
    }

    /// A temp path no other test (thread or process) shares: tests run
    /// on parallel threads and each removes its files on exit.
    fn temp_path(stem: &str, ext: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "spbla_capi_{stem}_{}_{}{ext}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn temp_graph() -> std::path::PathBuf {
        let path = temp_path("engine", ".triples");
        std::fs::write(&path, "# vertices 4\n0 a 1\n1 a 2\n2 a 3\n").unwrap();
        path
    }

    #[test]
    fn engine_round_trip_via_c() {
        let path = temp_graph();
        let mut engine = 0u64;
        assert_eq!(unsafe { spbla_Engine_New(2, &mut engine) }, SpblaStatus::Ok);
        assert_ne!(engine, 0);
        assert_eq!(
            unsafe {
                spbla_Engine_LoadGraph(engine, c("g").as_ptr(), c(path.to_str().unwrap()).as_ptr())
            },
            SpblaStatus::Ok
        );

        // All-pairs closure: chain 0→1→2→3 has 6 closure pairs.
        let mut ticket = 0u64;
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosure(engine, c("g").as_ptr(), &mut ticket) },
            SpblaStatus::Ok
        );
        assert_eq!(spbla_Ticket_Wait(ticket), SpblaStatus::Ok);
        let mut count = 0usize;
        assert_eq!(
            unsafe {
                spbla_Ticket_ExtractPairs(
                    ticket,
                    std::ptr::null_mut(),
                    std::ptr::null_mut(),
                    &mut count,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(count, 6);
        let mut rows = vec![0u32; count];
        let mut cols = vec![0u32; count];
        assert_eq!(
            unsafe {
                spbla_Ticket_ExtractPairs(ticket, rows.as_mut_ptr(), cols.as_mut_ptr(), &mut count)
            },
            SpblaStatus::Ok
        );
        assert_eq!(
            rows.iter().zip(cols.iter()).filter(|&(r, c)| r < c).count(),
            6
        );
        assert_eq!(spbla_Ticket_Free(ticket), SpblaStatus::Ok);
        assert_eq!(spbla_Ticket_Free(ticket), SpblaStatus::InvalidHandle);

        // Single-source RPQ: both coordinate arrays hold the vertices.
        let mut t2 = 0u64;
        assert_eq!(
            unsafe {
                spbla_Engine_SubmitRpqFromSource(
                    engine,
                    c("g").as_ptr(),
                    c("a*").as_ptr(),
                    1,
                    0,
                    &mut t2,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(spbla_Ticket_Wait(t2), SpblaStatus::Ok);
        let mut n2 = 0usize;
        assert_eq!(
            unsafe {
                spbla_Ticket_ExtractPairs(t2, std::ptr::null_mut(), std::ptr::null_mut(), &mut n2)
            },
            SpblaStatus::Ok
        );
        assert_eq!(n2, 3); // 1, 2, 3
        assert_eq!(spbla_Ticket_Free(t2), SpblaStatus::Ok);

        // Engine stats reflect the two completed requests.
        let mut stats = SpblaEngineStats::default();
        assert_eq!(
            unsafe { spbla_Engine_Stats(engine, &mut stats) },
            SpblaStatus::Ok
        );
        assert_eq!(stats.completed, 2);
        assert!(stats.launches > 0);

        assert_eq!(spbla_Engine_Free(engine), SpblaStatus::Ok);
        assert_eq!(spbla_Engine_Free(engine), SpblaStatus::InvalidHandle);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn update_batches_version_the_graph_via_c() {
        let path = temp_graph();
        let mut engine = 0u64;
        assert_eq!(unsafe { spbla_Engine_New(1, &mut engine) }, SpblaStatus::Ok);
        assert_eq!(
            unsafe {
                spbla_Engine_LoadGraph(engine, c("g").as_ptr(), c(path.to_str().unwrap()).as_ptr())
            },
            SpblaStatus::Ok
        );
        let mut version = u64::MAX;
        assert_eq!(
            unsafe { spbla_Graph_Version(engine, c("g").as_ptr(), &mut version) },
            SpblaStatus::Ok
        );
        assert_eq!(version, 0);

        // Insert 3→0, closing the 4-chain into a cycle.
        let from = [3u32];
        let to = [0u32];
        assert_eq!(
            unsafe {
                spbla_Graph_ApplyBatch(
                    engine,
                    c("g").as_ptr(),
                    c("a").as_ptr(),
                    from.as_ptr(),
                    to.as_ptr(),
                    1,
                    0,
                    &mut version,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(version, 1);

        // The closure now sees all 16 pairs of the cycle.
        let mut ticket = 0u64;
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosure(engine, c("g").as_ptr(), &mut ticket) },
            SpblaStatus::Ok
        );
        assert_eq!(spbla_Ticket_Wait(ticket), SpblaStatus::Ok);
        let mut count = 0usize;
        assert_eq!(
            unsafe {
                spbla_Ticket_ExtractPairs(
                    ticket,
                    std::ptr::null_mut(),
                    std::ptr::null_mut(),
                    &mut count,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(count, 16);
        spbla_Ticket_Free(ticket);

        // Deleting it again restores the chain (version 2, 6 pairs).
        assert_eq!(
            unsafe {
                spbla_Graph_ApplyBatch(
                    engine,
                    c("g").as_ptr(),
                    c("a").as_ptr(),
                    from.as_ptr(),
                    to.as_ptr(),
                    1,
                    1,
                    &mut version,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(version, 2);
        assert_eq!(
            unsafe { spbla_Graph_Version(engine, c("g").as_ptr(), &mut version) },
            SpblaStatus::Ok
        );
        assert_eq!(version, 2);

        // Unknown graph and null pointers surface typed statuses.
        assert_eq!(
            unsafe { spbla_Graph_Version(engine, c("nope").as_ptr(), &mut version) },
            SpblaStatus::UnknownGraph
        );
        assert_eq!(
            unsafe {
                spbla_Graph_ApplyBatch(
                    engine,
                    c("g").as_ptr(),
                    c("a").as_ptr(),
                    std::ptr::null(),
                    std::ptr::null(),
                    1,
                    0,
                    &mut version,
                )
            },
            SpblaStatus::NullPointer
        );
        assert_eq!(spbla_Engine_Free(engine), SpblaStatus::Ok);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typed_statuses_surface_through_c() {
        let path = temp_graph();
        // A long chain whose closure keeps the single worker busy while
        // queued requests get cancelled / expire.
        let big = temp_path("engine_big", ".triples");
        let mut triples = String::from("# vertices 200\n");
        for i in 0..199 {
            triples.push_str(&format!("{i} a {}\n", i + 1));
        }
        std::fs::write(&big, triples).unwrap();

        let mut engine = 0u64;
        assert_eq!(unsafe { spbla_Engine_New(1, &mut engine) }, SpblaStatus::Ok);
        for (name, p) in [("g", &path), ("big", &big)] {
            assert_eq!(
                unsafe {
                    spbla_Engine_LoadGraph(
                        engine,
                        c(name).as_ptr(),
                        c(p.to_str().unwrap()).as_ptr(),
                    )
                },
                SpblaStatus::Ok
            );
        }
        let mut ticket = 0u64;
        // Unknown graph fails at submit.
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosure(engine, c("nope").as_ptr(), &mut ticket) },
            SpblaStatus::UnknownGraph
        );
        // Malformed query fails at submit.
        assert_eq!(
            unsafe {
                spbla_Engine_SubmitRpq(engine, c("g").as_ptr(), c("((").as_ptr(), &mut ticket)
            },
            SpblaStatus::PlanError
        );
        // Cancellation: occupy the only worker, cancel a queued request.
        let mut blocker = 0u64;
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosure(engine, c("big").as_ptr(), &mut blocker) },
            SpblaStatus::Ok
        );
        let mut victim = 0u64;
        assert_eq!(
            unsafe {
                spbla_Engine_SubmitRpqFromSource(
                    engine,
                    c("g").as_ptr(),
                    c("a*").as_ptr(),
                    0,
                    0,
                    &mut victim,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(spbla_Ticket_Cancel(victim), SpblaStatus::Ok);
        assert_eq!(spbla_Ticket_Wait(victim), SpblaStatus::Cancelled);
        assert_eq!(spbla_Ticket_Wait(blocker), SpblaStatus::Ok);
        spbla_Ticket_Free(blocker);
        // Deadline: a 1 ms budget expires while queued behind a fresh
        // blocker closure.
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosure(engine, c("big").as_ptr(), &mut blocker) },
            SpblaStatus::Ok
        );
        assert_eq!(
            unsafe {
                spbla_Engine_SubmitRpqFromSource(
                    engine,
                    c("g").as_ptr(),
                    c("a*").as_ptr(),
                    0,
                    1,
                    &mut ticket,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(spbla_Ticket_Wait(ticket), SpblaStatus::DeadlineExceeded);
        assert_eq!(spbla_Ticket_Wait(blocker), SpblaStatus::Ok);
        spbla_Ticket_Free(blocker);
        // The pool survived: a normal request still succeeds.
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosure(engine, c("g").as_ptr(), &mut ticket) },
            SpblaStatus::Ok
        );
        assert_eq!(spbla_Ticket_Wait(ticket), SpblaStatus::Ok);
        spbla_Ticket_Free(ticket);
        // Null pointers are rejected.
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosure(engine, std::ptr::null(), &mut ticket) },
            SpblaStatus::NullPointer
        );
        assert_eq!(spbla_Ticket_Cancel(987_654_321), SpblaStatus::InvalidHandle);
        assert_eq!(spbla_Engine_Free(engine), SpblaStatus::Ok);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&big).ok();
    }

    #[test]
    fn recover_and_tiered_submit_via_c() {
        use spbla_durable::{DurabilityConfig, DurableLog};
        use spbla_graph::LabeledGraph;
        use spbla_lang::SymbolTable;

        // Build a durability directory: a 4-chain plus two logged batches.
        let dir = temp_path("wal", "");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let mut graph = LabeledGraph::from_triples(4, (0..3).map(|k| (k, a, k + 1)));
        let mut log =
            DurableLog::open(&dir, DurabilityConfig::default(), &graph, 0, &table).unwrap();
        for (version, (u, v)) in [(3u32, 0u32), (0, 2)].into_iter().enumerate() {
            let mut batch = UpdateBatch::new();
            batch.insert(u, a, v);
            batch.apply_to(&mut graph);
            log.append(version as u64 + 1, &batch, &graph, &table)
                .unwrap();
        }

        let mut engine = 0u64;
        assert_eq!(unsafe { spbla_Engine_New(1, &mut engine) }, SpblaStatus::Ok);
        let mut version = 0u64;
        assert_eq!(
            unsafe {
                spbla_Engine_Recover(
                    engine,
                    c("g").as_ptr(),
                    c(dir.to_str().unwrap()).as_ptr(),
                    &mut version,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(version, 2);

        // The recovered graph is a cycle: its closure has all 16 pairs.
        // Served through the batch tier with a generous deadline.
        let mut ticket = 0u64;
        assert_eq!(
            unsafe {
                spbla_Engine_SubmitClosureTiered(engine, c("g").as_ptr(), 1, 60_000, &mut ticket)
            },
            SpblaStatus::Ok
        );
        assert_eq!(spbla_Ticket_Wait(ticket), SpblaStatus::Ok);
        let mut count = 0usize;
        assert_eq!(
            unsafe {
                spbla_Ticket_ExtractPairs(
                    ticket,
                    std::ptr::null_mut(),
                    std::ptr::null_mut(),
                    &mut count,
                )
            },
            SpblaStatus::Ok
        );
        assert_eq!(count, 16);
        spbla_Ticket_Free(ticket);

        // An unknown tier and a bogus directory surface typed errors.
        assert_eq!(
            unsafe { spbla_Engine_SubmitClosureTiered(engine, c("g").as_ptr(), 7, 0, &mut ticket) },
            SpblaStatus::Error
        );
        assert_eq!(
            unsafe {
                spbla_Engine_Recover(
                    engine,
                    c("h").as_ptr(),
                    c("/nonexistent/never").as_ptr(),
                    &mut version,
                )
            },
            SpblaStatus::Error
        );
        assert_eq!(spbla_Engine_Free(engine), SpblaStatus::Ok);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
