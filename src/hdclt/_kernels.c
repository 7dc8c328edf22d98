/* The stream loops of hdclt.rng, bit for bit equal to its numpy code.
 *
 * hdclt.rng compiles this file with `cc -O3 -ffp-contract=off -shared -fPIC`
 * on first use and calls it through ctypes, which releases the GIL for each
 * call.  Every loop is void name(const src_type *src, size_t n, out_type *out,
 * args...), n the element count of src, and out may be src itself (never a
 * part of it).  rng._KERNELS declares each loop, and rng checks each against
 * its numpy code after every load: to_normal repeats scipy's ndtri (Cephes)
 * operation for operation with the same libm log and sqrt, and ar1 repeats
 * rng's recursion, so an FMA contraction or -ffast-math would move their bits.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define GAMMA 0x9E3779B97F4A7C15ULL

/* out[i * count + t] = mix64(keys[i], t) = finalize(keys[i] + GAMMA * (t + 1)) */
void word_grid(const uint64_t *keys, size_t n, uint64_t *out, size_t count)
{
    for (size_t i = 0; i < n; i++) {
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

/* ((w >> 12) + 0.5) * 2**-52, made as ((1 + k 2**-52) - 1) + 2**-53 from the
 * bits of 1 + k 2**-52, k = w >> 12 < 2**52: every step is exact, so this is
 * the same double, and unlike an int64 conversion it vectorizes on SSE2. */
static inline double uniform(uint64_t w)
{
    uint64_t bits = (w >> 12) | 0x3FF0000000000000ULL;
    double one_k;
    memcpy(&one_k, &bits, sizeof one_k);
    return (one_k - 1.0) + 0x1p-53;
}

/* out[i] = uniform(w[i]) */
void to_uniform(const uint64_t *w, size_t n, double *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = uniform(w[i]);
}

/* Cephes ndtri as scipy ships it (xsf/cephes/ndtri.h). */
static const double S2PI = 2.50662827463100050242E0;
static const double EXPM2 = 0.13533528323661269189; /* exp(-2) */

/* |y - 0.5| <= 3/8 */
static const double P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
};
static const double Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
};
/* z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32) */
static const double P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
};
static const double Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
/* z in [8, 64): y between exp(-32) and exp(-2048) */
static const double P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9,
};
static const double Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};

/* Cephes polevl (coef[0] x^n + ... + coef[n]) and p1evl (a leading 1 not
 * stored), Horner in the same order */
static inline double polevl(double x, const double *coef, int n)
{
    double ans = coef[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + coef[i];
    return ans;
}

static inline double p1evl(double x, const double *coef, int n)
{
    double ans = x + coef[0];
    for (int i = 1; i < n; i++)
        ans = ans * x + coef[i];
    return ans;
}

/* ndtri's tail value from x = sqrt(-2 log y), lx = log(x) and the sign:
 * x - lx / x minus the rational P/Q in 1/x */
static inline double tail(double x, double lx, double sign, const double *P, const double *Q)
{
    double z = 1.0 / x;
    return sign * (x - lx / x - z * polevl(z, P, 8) / p1evl(z, Q, 8));
}

/* mask ? a : b for a mask of all ones or all zeros, taken on the bits: gcc
 * vectorizes it, where it keeps a branch around the arithmetic of a or b */
static inline double pick(uint64_t mask, double a, double b)
{
    uint64_t ab, bb;
    memcpy(&ab, &a, sizeof ab);
    memcpy(&bb, &b, sizeof bb);
    bb = (ab & mask) | (bb & ~mask);
    memcpy(&b, &bb, sizeof b);
    return b;
}

/* values per pass of to_normal; its buffers live on the stack, so
 * concurrent calls share nothing */
#define CHUNK 256

/* out[i] = ndtri(uniform(w[i]))
 *
 * ndtri folds y > 1 - exp(-2) to 1 - y (and negates the lower tail at the
 * end), then takes a rational in y - 0.5 when the folded y exceeds exp(-2)
 * and a rational in 1/sqrt(-2 log y) below it.  Each chunk computes the
 * center rational for every value, branch-free so that the loop
 * vectorizes, then overwrites the tail values (about 27%) in separate
 * passes, so that only the two log calls stay scalar.  A uniform is never
 * 0 or 1, so ndtri's infinite and domain cases cannot occur. */
void to_normal(const uint64_t *w, size_t n, double *out)
{
    const double upper = 1.0 - EXPM2;
    double y[CHUNK], sign[CHUNK], x[CHUNK], t[CHUNK];
    int at[CHUNK];

    for (size_t base = 0; base < n; base += CHUNK) {
        size_t m = n - base < CHUNK ? n - base : CHUNK;
        double *o = out + base;

        for (size_t i = 0; i < m; i++) {
            /* all ones where u > upper: the sign of upper - u is exact */
            double u = uniform(w[base + i]), d = upper - u;
            uint64_t fold;
            memcpy(&fold, &d, sizeof fold);
            fold = (uint64_t)0 - (fold >> 63);
            y[i] = pick(fold, 1.0 - u, u);
            sign[i] = pick(fold, 1.0, -1.0);
        }
        for (size_t i = 0; i < m; i++) {
            double c = y[i] - 0.5, c2 = c * c;
            o[i] = (c + c * (c2 * polevl(c2, P0, 4) / p1evl(c2, Q0, 8))) * S2PI;
        }
        /* move the tails to the front of y and sign, in place and without a
         * branch on the (random) tail test */
        size_t tails = 0;
        for (size_t i = 0; i < m; i++) {
            double v = y[i];
            at[tails] = (int)i;
            y[tails] = v;
            sign[tails] = sign[i];
            tails += !(v > EXPM2);
        }
        for (size_t j = 0; j < tails; j++)
            y[j] = log(y[j]);
        for (size_t j = 0; j < tails; j++)
            x[j] = sqrt(-2.0 * y[j]);
        for (size_t j = 0; j < tails; j++)
            y[j] = log(x[j]);
        /* P1/Q1 for x < 8 on every tail, then P2/Q2 where x >= 8 (y below
         * exp(-32), about one value in 4e13) */
        for (size_t j = 0; j < tails; j++)
            t[j] = tail(x[j], y[j], sign[j], P1, Q1);
        for (size_t j = 0; j < tails; j++)
            o[at[j]] = x[j] < 8.0 ? t[j] : tail(x[j], y[j], sign[j], P2, Q2);
    }
}

/* Each row of p values: out_0 = scale z_0 and out_j = c z_j + r out_{j-1},
 * the operations of rng's numpy recursion. */
void ar1(const double *z, size_t n, double *out, size_t p, double r, double scale, double c)
{
    for (size_t i = 0; i < n; i += p) {
        double prev = z[i] * scale;
        out[i] = prev;
        for (size_t j = i + 1; j < i + p; j++)
            out[j] = prev = c * z[j] + r * prev;
    }
}
