/* The two stream loops of hdclt.rng, bit for bit equal to its numpy code.
 *
 * hdclt.rng compiles this file with `cc -O2 -shared -fPIC` on first use and
 * calls it through ctypes, which releases the GIL for each call.  Both loops
 * are integer or exact float arithmetic, so no compiler flag changes a bit.
 */
#include <stddef.h>
#include <stdint.h>

#define GAMMA 0x9E3779B97F4A7C15ULL

/* out[i * count + t] = mix64(keys[i], t) = finalize(keys[i] + GAMMA * (t + 1)) */
void word_grid(const uint64_t *keys, size_t nkeys, size_t count, uint64_t *out)
{
    for (size_t i = 0; i < nkeys; i++) {
        uint64_t z = keys[i];
        uint64_t *row = out + i * count;
        for (size_t t = 0; t < count; t++) {
            z += GAMMA;
            uint64_t x = z;
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
            x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
            row[t] = x ^ (x >> 31);
        }
    }
}

/* out[i] = ((w[i] >> 12) + 0.5) * 2**-52: the shift is below 2**52, so the
 * conversion, the sum and the product are exact.  out may be w itself. */
void to_uniform(const uint64_t *w, size_t size, double *out)
{
    for (size_t i = 0; i < size; i++)
        out[i] = ((double)(int64_t)(w[i] >> 12) + 0.5) * 0x1p-52;
}
