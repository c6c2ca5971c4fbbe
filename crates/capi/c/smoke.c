/* Link smoke test for the C API: build the static library, then
 *
 *   cargo build --release -p spbla-capi
 *   gcc -I crates/capi/include crates/capi/c/smoke.c \
 *       target/release/libspbla_capi.a -lpthread -ldl -lm -o smoke
 *   ./smoke
 *
 * prints "ok" and exits 0 when the header and the library agree.
 */
#include <stdio.h>

#include "spbla.h"

#define CHECK(cond)                                                  \
    do {                                                             \
        if (!(cond)) {                                               \
            fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,   \
                    __LINE__, #cond);                                \
            return 1;                                                \
        }                                                            \
    } while (0)

int main(void) {
    spbla_Instance inst;

    /* The retired dense backend value is rejected, not mapped. */
    CHECK(spbla_Initialize((spbla_Backend)3, &inst) == SPBLA_INVALID_VALUE);

    /* Backend 0 closes the chain 0 -> 1 -> 2 to {01, 12, 02}. */
    CHECK(spbla_Initialize(SPBLA_BACKEND_CPU, &inst) == SPBLA_OK);
    spbla_Matrix chain, closure;
    const uint32_t rows[] = {0, 1};
    const uint32_t cols[] = {1, 2};
    CHECK(spbla_Matrix_New(inst, 3, 3, &chain) == SPBLA_OK);
    CHECK(spbla_Matrix_Build(chain, rows, cols, 2) == SPBLA_OK);
    CHECK(spbla_TransitiveClosure(chain, &closure) == SPBLA_OK);
    size_t nvals = 0;
    CHECK(spbla_Matrix_Nvals(closure, &nvals) == SPBLA_OK);
    CHECK(nvals == 3);

    CHECK(spbla_Matrix_Free(closure) == SPBLA_OK);
    CHECK(spbla_Matrix_Free(chain) == SPBLA_OK);
    CHECK(spbla_Finalize(inst) == SPBLA_OK);
    puts("ok");
    return 0;
}
