/* spbla.h — C interface of the SPbLA Rust reproduction.
 *
 * Link against the static library built by `cargo build -p spbla-capi`
 * (libspbla_capi.a) plus -lpthread -ldl -lm; crates/capi/c/smoke.c is
 * a minimal program. All functions return spbla_Status;
 * out-parameters are written only on SPBLA_OK,
 * with one exception: a trace or metrics dump into a too-short buffer
 * returns SPBLA_ERROR, yet writes a sufficient size to *len (see below).
 * Matrix reads use a two-call protocol: pass NULL buffers to query the
 * required capacity, then buffers of that capacity to receive data.
 */
#ifndef SPBLA_H
#define SPBLA_H

#include <stdint.h>
#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef uint64_t spbla_Instance;
typedef uint64_t spbla_Matrix;
typedef uint64_t spbla_Engine;
typedef uint64_t spbla_Ticket;

typedef enum spbla_Status {
    SPBLA_OK                  = 0,
    SPBLA_NULL_POINTER        = 1,
    SPBLA_INVALID_HANDLE      = 2,
    SPBLA_DIMENSION_MISMATCH  = 3,
    SPBLA_INDEX_OUT_OF_BOUNDS = 4,
    SPBLA_BACKEND_MISMATCH    = 5,
    SPBLA_DEVICE_OUT_OF_MEMORY = 6,
    SPBLA_ERROR               = 7,
    SPBLA_OVERLOADED          = 8,  /* admission queue full; retry     */
    SPBLA_DEADLINE_EXCEEDED   = 9,  /* request budget elapsed          */
    SPBLA_CANCELLED           = 10, /* cancelled via its ticket        */
    SPBLA_UNKNOWN_GRAPH       = 11, /* no catalog graph with that name */
    SPBLA_PLAN_ERROR          = 12, /* query text did not compile      */
    SPBLA_CORRUPT             = 13, /* durable state failed validation */
    SPBLA_NO_CHECKPOINT       = 14, /* nothing to recover from         */
    SPBLA_REPLICA_FAILED      = 15, /* replica out of service          */
    SPBLA_INVALID_VALUE       = 16  /* enum argument out of range      */
} spbla_Status;

typedef enum spbla_Backend {
    SPBLA_BACKEND_CPU       = 0, /* sequential reference          */
    SPBLA_BACKEND_CUDA_SIM  = 1, /* CSR + hash SpGEMM (cuBool)    */
    SPBLA_BACKEND_CL_SIM    = 2  /* COO + ESC SpGEMM (clBool)     */
    /* 3 (the dense bit-parallel CPU backend) is retired: spbla_Initialize
     * returns SPBLA_INVALID_VALUE for it, as for any unlisted value. */
} spbla_Backend;

/* Library */
uint32_t     spbla_Version(void);
spbla_Status spbla_Initialize(spbla_Backend backend, spbla_Instance *out);
spbla_Status spbla_Finalize(spbla_Instance instance);
spbla_Status spbla_Instance_Backend(spbla_Instance instance, spbla_Backend *out);

/* Matrix lifecycle */
spbla_Status spbla_Matrix_New(spbla_Instance instance, uint32_t nrows,
                              uint32_t ncols, spbla_Matrix *out);
spbla_Status spbla_Matrix_Build(spbla_Matrix matrix, const uint32_t *rows,
                                const uint32_t *cols, size_t nvals);
spbla_Status spbla_Matrix_Duplicate(spbla_Matrix matrix, spbla_Matrix *out);
spbla_Status spbla_Matrix_Free(spbla_Matrix matrix);

/* Introspection */
spbla_Status spbla_Matrix_Dims(spbla_Matrix matrix, uint32_t *nrows,
                               uint32_t *ncols);
spbla_Status spbla_Matrix_Nvals(spbla_Matrix matrix, size_t *out);
spbla_Status spbla_Matrix_MemoryBytes(spbla_Matrix matrix, size_t *out);
spbla_Status spbla_Matrix_ExtractPairs(spbla_Matrix matrix, uint32_t *rows,
                                       uint32_t *cols, size_t *nvals);

/* Operations (the paper's op set) */
spbla_Status spbla_MxM(spbla_Matrix a, spbla_Matrix b, spbla_Matrix *out);
/* C = (A * B) & M — mask applied inside the SpGEMM kernel. */
spbla_Status spbla_Matrix_MxM_Masked(spbla_Matrix a, spbla_Matrix b,
                                     spbla_Matrix mask, spbla_Matrix *out);
/* C = (A * B) & ~M — only product entries absent from M; the
 * semi-naive fixpoint primitive. */
spbla_Status spbla_Matrix_MxM_CompMasked(spbla_Matrix a, spbla_Matrix b,
                                         spbla_Matrix mask, spbla_Matrix *out);
spbla_Status spbla_EWiseAdd(spbla_Matrix a, spbla_Matrix b, spbla_Matrix *out);
spbla_Status spbla_EWiseMult(spbla_Matrix a, spbla_Matrix b, spbla_Matrix *out);
spbla_Status spbla_Kronecker(spbla_Matrix a, spbla_Matrix b, spbla_Matrix *out);
spbla_Status spbla_Transpose(spbla_Matrix a, spbla_Matrix *out);
spbla_Status spbla_SubMatrix(spbla_Matrix a, uint32_t i, uint32_t j,
                             uint32_t nrows, uint32_t ncols, spbla_Matrix *out);
spbla_Status spbla_TransitiveClosure(spbla_Matrix matrix, spbla_Matrix *out);
/* Same closure, scheduled via SCC condensation: the fixpoint runs on
 * the component DAG and expands back — bit-identical, fewer launches on
 * cycle-heavy graphs. */
spbla_Status spbla_Matrix_TransitiveClosureCondensed(spbla_Matrix matrix,
                                                     spbla_Matrix *out);
spbla_Status spbla_Matrix_ReduceToColumn(spbla_Matrix matrix, uint32_t *indices,
                                         size_t *count);

/* Serving engine — concurrent query serving over a device grid.
 *
 * Submit functions return a ticket; spbla_Ticket_Wait blocks and its
 * status IS the request outcome. On SPBLA_OK read the answer with the
 * usual two-call protocol via spbla_Ticket_ExtractPairs (single-source
 * results store the reachable vertex in BOTH coordinate arrays).
 * deadline_ms = 0 means no deadline. */

typedef struct spbla_EngineStats {
    uint64_t submitted;
    uint64_t completed;
    uint64_t rejected;            /* bounced by admission control      */
    uint64_t deadline_exceeded;
    uint64_t cancelled;
    uint64_t failed;
    uint64_t plan_hits;           /* plan-cache hits                   */
    uint64_t plan_misses;
    uint64_t residency_hits;      /* catalog device-residency hits     */
    uint64_t residency_misses;
    uint64_t residency_evictions;
    uint64_t queue_depth_hwm;     /* admission-queue high-water mark   */
    uint64_t batches;             /* always 0: layout kept, never coalesced */
    uint64_t batched_requests;    /* always 0                          */
    uint64_t launches;            /* kernel launches over all devices  */
} spbla_EngineStats;

spbla_Status spbla_Engine_New(uint32_t n_devices, spbla_Engine *out);
spbla_Status spbla_Engine_LoadGraph(spbla_Engine engine, const char *name,
                                    const char *path);
spbla_Status spbla_Engine_SubmitRpq(spbla_Engine engine, const char *graph,
                                    const char *regex, spbla_Ticket *out);
spbla_Status spbla_Engine_SubmitRpqFromSource(spbla_Engine engine,
                                              const char *graph,
                                              const char *regex,
                                              uint32_t source,
                                              uint64_t deadline_ms,
                                              spbla_Ticket *out);
spbla_Status spbla_Engine_SubmitCfpq(spbla_Engine engine, const char *graph,
                                     const char *grammar, spbla_Ticket *out);
spbla_Status spbla_Engine_SubmitClosure(spbla_Engine engine, const char *graph,
                                        spbla_Ticket *out);
/* Closure query under a QoS admission tier: tier 0 = interactive
 * (admitted to the full queue), 1 = batch (bounced earlier, at the
 * batch admission fraction). deadline_ms 0 means no deadline. */
spbla_Status spbla_Engine_SubmitClosureTiered(spbla_Engine engine,
                                              const char *graph,
                                              uint32_t tier,
                                              uint64_t deadline_ms,
                                              spbla_Ticket *out);
/* Rebuild catalog graph `name` from a durability directory: latest good
 * checkpoint plus write-ahead-log tail replay. Writes the recovered
 * head version to out_version. */
spbla_Status spbla_Engine_Recover(spbla_Engine engine, const char *name,
                                  const char *dir, uint64_t *out_version);
/* Apply n same-label edge updates (inserts when is_delete == 0, deletes
 * otherwise) as one atomic batch; blocks until the new graph version is
 * live and writes its number to out_version. Queries admitted earlier
 * keep reading the version they pinned at submission. */
spbla_Status spbla_Graph_ApplyBatch(spbla_Engine engine, const char *graph,
                                    const char *label, const uint32_t *from,
                                    const uint32_t *to, size_t n,
                                    uint32_t is_delete, uint64_t *out_version);
/* Latest version number of a catalog graph (0 before any batch). */
spbla_Status spbla_Graph_Version(spbla_Engine engine, const char *graph,
                                 uint64_t *out_version);
spbla_Status spbla_Ticket_Cancel(spbla_Ticket ticket);
spbla_Status spbla_Ticket_Wait(spbla_Ticket ticket);
spbla_Status spbla_Ticket_ExtractPairs(spbla_Ticket ticket, uint32_t *rows,
                                       uint32_t *cols, size_t *nvals);
spbla_Status spbla_Ticket_Free(spbla_Ticket ticket);
spbla_Status spbla_Engine_Stats(spbla_Engine engine, spbla_EngineStats *out);
spbla_Status spbla_Engine_Free(spbla_Engine engine);

/* Observability: process-wide kernel tracing and metric dumps. Both
 * dumps use the two-call protocol of spbla_Matrix_ExtractPairs: pass a
 * null buffer to learn the required size in *len (trailing NUL
 * included), then call again with a buffer of at least that size.
 * Other threads may grow the trace or the registry between the two
 * calls. A buffer that became too short gets SPBLA_ERROR, and *len
 * holds the new required size plus an eighth of headroom for further
 * growth: reallocate and retry until SPBLA_OK.
 * spbla_Trace_Enable(capacity) turns tracing on with a ring of
 * `capacity` spans (clearing any prior recording); capacity 0 turns it
 * off. spbla_Trace_Dump writes chrome://tracing JSON.
 * spbla_Metrics_Dump format: 0 = Prometheus text, 1 = JSON. */
spbla_Status spbla_Trace_Enable(size_t capacity);
spbla_Status spbla_Trace_Dump(char *buf, size_t *len);
spbla_Status spbla_Metrics_Dump(int32_t format, char *buf, size_t *len);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* SPBLA_H */
