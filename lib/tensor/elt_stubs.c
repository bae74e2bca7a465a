/* Element-wise kernels beside the GEMM: the library's exp, the dropout
   draw, and the per-score rows of Flashattn (its softmax, the forward's
   dropout multiply and the backward's softmax_dx). All of them keep the
   OCaml recipe's operations in its order, so every result is bitwise what
   the naive chain computes through the same externals. Like gemm_stubs.c,
   this file is built with -ffp-contract=off: a fused multiply-add would
   round once where the recipe rounds twice.

   exp. exp(x) = 2^(k/N) * exp(r) with N = 128, k = round(x * N/ln2) and
   r = x - k*ln2/N, |r| <= ln2/256 (the scheme of glibc's exp):
   - 2^(k/N) is a table entry H_j (j = k mod N) scaled by 2^(k div N) in
     its exponent bits, plus a correction tail_j = 2^(j/N)/H_j - 1;
   - exp(r) - 1 is the degree-5 Taylor polynomial (its truncation error is
     below 2^-60 relative on |r| <= ln2/256);
   - the result is scale + scale * (tail + r + r^2 (C2 + r C3) +
     r^4 (C4 + r C5)).
   ln2/N is split as hi + lo with hi of 35 significant bits, so k * hi is
   exact for every |k| < 2^18 (|x| < 1024). Measured against glibc's exp,
   which rounds correctly, the result is within 1 ulp over the whole range.
   |x| >= 512, infinities and NaN take exp_special (glibc's special case):
   results near overflow are scaled by 2^1009, and results in the
   subnormal range are rounded once to their final precision before being
   scaled by 2^-1022, so they are not flushed to zero.

   The 4-lane form (exp4) runs the same operations on each lane as the
   scalar form (exp1): with no contraction both round every step the same
   way, so the array externals equal a loop of the scalar one bitwise. In
   a group of 4 holding a special lane the core runs on a zeroed stand-in
   for it (so it never sees an input outside its range, nor makes a
   subnormal scale) and the lane takes exp_special's result. exp_special
   is inlined into the AVX2 code: an out-of-line call ran its SSE code
   with the upper YMM halves dirty, at about 170 ns per lane. On x86-64
   the 4-lane code is an AVX2 function picked once at load time; a CPU
   without AVX2 runs the scalar form on every element (still faster than
   glibc's scalar exp; 32-byte vectors without AVX would live on the
   stack).

   The dropout draw is Prng.keep_at's splitmix64 counter draw. keep_at
   drops element i when unit_float(mix(state + (i+1)*gamma)) < p, where
   unit_float z = (z >> 11) * 2^-53. Both sides of that comparison are
   exact: z >> 11 < 2^53 converts exactly, a power-of-two scaling of p is
   exact, and for an integer u, u < t exactly when u < ceil(t). So the
   draw compares integers, (z >> 11) < ceil(p * 2^53), and gives keep_at's
   bits with no int-to-float conversion. */

#include <math.h>
#include <stdint.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#define INLINE static inline __attribute__((always_inline))

INLINE uint64_t asu64(double x)
{
  uint64_t u;
  memcpy(&u, &x, 8);
  return u;
}

INLINE double asf64(uint64_t u)
{
  double x;
  memcpy(&x, &u, 8);
  return x;
}

/* ------------------------------------------------------------------ */
/* exp                                                                 */
/* ------------------------------------------------------------------ */

#define EXP_BITS 7
#define EXP_N (1 << EXP_BITS)
#define INV_LN2_N 0x1.71547652b82fep+7    /* N / ln2 */
#define NEG_LN2_HI_N -0x1.62e42fefc0000p-8 /* -(ln2 / N), 35 bits */
#define NEG_LN2_LO_N 0x1.c610ca86c3899p-44 /* -(ln2 / N) - NEG_LN2_HI_N */
#define SHIFT 0x1.8p52                     /* rounds to an integer */
#define C2 0x1.0000000000000p-1            /* 1/2! .. 1/5! */
#define C3 0x1.5555555555555p-3
#define C4 0x1.5555555555555p-5
#define C5 0x1.1111111111111p-7

/* For j in [0, N): tab[2j] = bits of tail_j = (2^(j/N) - H_j) / H_j and
   tab[2j+1] = bits of H_j (2^(j/N) rounded to nearest) minus j << 45, so
   adding k << 45 puts k div N into the exponent. Computed in 80-digit
   decimal arithmetic and rounded to nearest; the same table as glibc's. */
static const uint64_t tab[2 * EXP_N] = {
  0x0000000000000000ULL, 0x3ff0000000000000ULL, 0x3c9b3b4f1a88bf6eULL, 0x3feff63da9fb3335ULL,
  0xbc7160139cd8dc5dULL, 0x3fefec9a3e778061ULL, 0xbc905e7a108766d1ULL, 0x3fefe315e86e7f85ULL,
  0x3c8cd2523567f613ULL, 0x3fefd9b0d3158574ULL, 0xbc8bce8023f98efaULL, 0x3fefd06b29ddf6deULL,
  0x3c60f74e61e6c861ULL, 0x3fefc74518759bc8ULL, 0x3c90a3e45b33d399ULL, 0x3fefbe3ecac6f383ULL,
  0x3c979aa65d837b6dULL, 0x3fefb5586cf9890fULL, 0x3c8eb51a92fdeffcULL, 0x3fefac922b7247f7ULL,
  0x3c3ebe3d702f9cd1ULL, 0x3fefa3ec32d3d1a2ULL, 0xbc6a033489906e0bULL, 0x3fef9b66affed31bULL,
  0xbc9556522a2fbd0eULL, 0x3fef9301d0125b51ULL, 0xbc5080ef8c4eea55ULL, 0x3fef8abdc06c31ccULL,
  0xbc91c923b9d5f416ULL, 0x3fef829aaea92de0ULL, 0x3c80d3e3e95c55afULL, 0x3fef7a98c8a58e51ULL,
  0xbc801b15eaa59348ULL, 0x3fef72b83c7d517bULL, 0xbc8f1ff055de323dULL, 0x3fef6af9388c8deaULL,
  0x3c8b898c3f1353bfULL, 0x3fef635beb6fcb75ULL, 0xbc96d99c7611eb26ULL, 0x3fef5be084045cd4ULL,
  0x3c9aecf73e3a2f60ULL, 0x3fef54873168b9aaULL, 0xbc8fe782cb86389dULL, 0x3fef4d5022fcd91dULL,
  0x3c8a6f4144a6c38dULL, 0x3fef463b88628cd6ULL, 0x3c807a05b0e4047dULL, 0x3fef3f49917ddc96ULL,
  0x3c968efde3a8a894ULL, 0x3fef387a6e756238ULL, 0x3c875e18f274487dULL, 0x3fef31ce4fb2a63fULL,
  0x3c80472b981fe7f2ULL, 0x3fef2b4565e27cddULL, 0xbc96b87b3f71085eULL, 0x3fef24dfe1f56381ULL,
  0x3c82f7e16d09ab31ULL, 0x3fef1e9df51fdee1ULL, 0xbc3d219b1a6fbffaULL, 0x3fef187fd0dad990ULL,
  0x3c8b3782720c0ab4ULL, 0x3fef1285a6e4030bULL, 0x3c6e149289cecb8fULL, 0x3fef0cafa93e2f56ULL,
  0x3c834d754db0abb6ULL, 0x3fef06fe0a31b715ULL, 0x3c864201e2ac744cULL, 0x3fef0170fc4cd831ULL,
  0x3c8fdd395dd3f84aULL, 0x3feefc08b26416ffULL, 0xbc86a3803b8e5b04ULL, 0x3feef6c55f929ff1ULL,
  0xbc924aedcc4b5068ULL, 0x3feef1a7373aa9cbULL, 0xbc9907f81b512d8eULL, 0x3feeecae6d05d866ULL,
  0xbc71d1e83e9436d2ULL, 0x3feee7db34e59ff7ULL, 0xbc991919b3ce1b15ULL, 0x3feee32dc313a8e5ULL,
  0x3c859f48a72a4c6dULL, 0x3feedea64c123422ULL, 0xbc9312607a28698aULL, 0x3feeda4504ac801cULL,
  0xbc58a78f4817895bULL, 0x3feed60a21f72e2aULL, 0xbc7c2c9b67499a1bULL, 0x3feed1f5d950a897ULL,
  0x3c4363ed60c2ac11ULL, 0x3feece086061892dULL, 0x3c9666093b0664efULL, 0x3feeca41ed1d0057ULL,
  0x3c6ecce1daa10379ULL, 0x3feec6a2b5c13cd0ULL, 0x3c93ff8e3f0f1230ULL, 0x3feec32af0d7d3deULL,
  0x3c7690cebb7aafb0ULL, 0x3feebfdad5362a27ULL, 0x3c931dbdeb54e077ULL, 0x3feebcb299fddd0dULL,
  0xbc8f94340071a38eULL, 0x3feeb9b2769d2ca7ULL, 0xbc87deccdc93a349ULL, 0x3feeb6daa2cf6642ULL,
  0xbc78dec6bd0f385fULL, 0x3feeb42b569d4f82ULL, 0xbc861246ec7b5cf6ULL, 0x3feeb1a4ca5d920fULL,
  0x3c93350518fdd78eULL, 0x3feeaf4736b527daULL, 0x3c7b98b72f8a9b05ULL, 0x3feead12d497c7fdULL,
  0x3c9063e1e21c5409ULL, 0x3feeab07dd485429ULL, 0x3c34c7855019c6eaULL, 0x3feea9268a5946b7ULL,
  0x3c9432e62b64c035ULL, 0x3feea76f15ad2148ULL, 0xbc8ce44a6199769fULL, 0x3feea5e1b976dc09ULL,
  0xbc8c33c53bef4da8ULL, 0x3feea47eb03a5585ULL, 0xbc845378892be9aeULL, 0x3feea34634ccc320ULL,
  0xbc93cedd78565858ULL, 0x3feea23882552225ULL, 0x3c5710aa807e1964ULL, 0x3feea155d44ca973ULL,
  0xbc93b3efbf5e2228ULL, 0x3feea09e667f3bcdULL, 0xbc6a12ad8734b982ULL, 0x3feea012750bdabfULL,
  0xbc6367efb86da9eeULL, 0x3fee9fb23c651a2fULL, 0xbc80dc3d54e08851ULL, 0x3fee9f7df9519484ULL,
  0xbc781f647e5a3ecfULL, 0x3fee9f75e8ec5f74ULL, 0xbc86ee4ac08b7db0ULL, 0x3fee9f9a48a58174ULL,
  0xbc8619321e55e68aULL, 0x3fee9feb564267c9ULL, 0x3c909ccb5e09d4d3ULL, 0x3feea0694fde5d3fULL,
  0xbc7b32dcb94da51dULL, 0x3feea11473eb0187ULL, 0x3c94ecfd5467c06bULL, 0x3feea1ed0130c132ULL,
  0x3c65ebe1abd66c55ULL, 0x3feea2f336cf4e62ULL, 0xbc88a1c52fb3cf42ULL, 0x3feea427543e1a12ULL,
  0xbc9369b6f13b3734ULL, 0x3feea589994cce13ULL, 0xbc805e843a19ff1eULL, 0x3feea71a4623c7adULL,
  0xbc94d450d872576eULL, 0x3feea8d99b4492edULL, 0x3c90ad675b0e8a00ULL, 0x3feeaac7d98a6699ULL,
  0x3c8db72fc1f0eab4ULL, 0x3feeace5422aa0dbULL, 0xbc65b6609cc5e7ffULL, 0x3feeaf3216b5448cULL,
  0x3c7bf68359f35f44ULL, 0x3feeb1ae99157736ULL, 0xbc93091fa71e3d83ULL, 0x3feeb45b0b91ffc6ULL,
  0xbc5da9b88b6c1e29ULL, 0x3feeb737b0cdc5e5ULL, 0xbc6c23f97c90b959ULL, 0x3feeba44cbc8520fULL,
  0xbc92434322f4f9aaULL, 0x3feebd829fde4e50ULL, 0xbc85ca6cd7668e4bULL, 0x3feec0f170ca07baULL,
  0x3c71affc2b91ce27ULL, 0x3feec49182a3f090ULL, 0x3c6dd235e10a73bbULL, 0x3feec86319e32323ULL,
  0xbc87c50422622263ULL, 0x3feecc667b5de565ULL, 0x3c8b1c86e3e231d5ULL, 0x3feed09bec4a2d33ULL,
  0xbc91bbd1d3bcbb15ULL, 0x3feed503b23e255dULL, 0x3c90cc319cee31d2ULL, 0x3feed99e1330b358ULL,
  0x3c8469846e735ab3ULL, 0x3feede6b5579fdbfULL, 0xbc82dfcd978e9db4ULL, 0x3feee36bbfd3f37aULL,
  0x3c8c1a7792cb3387ULL, 0x3feee89f995ad3adULL, 0xbc907b8f4ad1d9faULL, 0x3feeee07298db666ULL,
  0xbc55c3d956dcaebaULL, 0x3feef3a2b84f15fbULL, 0xbc90a40e3da6f640ULL, 0x3feef9728de5593aULL,
  0xbc68d6f438ad9334ULL, 0x3feeff76f2fb5e47ULL, 0xbc91eee26b588a35ULL, 0x3fef05b030a1064aULL,
  0x3c74ffd70a5fddcdULL, 0x3fef0c1e904bc1d2ULL, 0xbc91bdfbfa9298acULL, 0x3fef12c25bd71e09ULL,
  0x3c736eae30af0cb3ULL, 0x3fef199bdd85529cULL, 0x3c8ee3325c9ffd94ULL, 0x3fef20ab5fffd07aULL,
  0x3c84e08fd10959acULL, 0x3fef27f12e57d14bULL, 0x3c63cdaf384e1a67ULL, 0x3fef2f6d9406e7b5ULL,
  0x3c676b2c6c921968ULL, 0x3fef3720dcef9069ULL, 0xbc808a1883ccb5d2ULL, 0x3fef3f0b555dc3faULL,
  0xbc8fad5d3ffffa6fULL, 0x3fef472d4a07897cULL, 0xbc900dae3875a949ULL, 0x3fef4f87080d89f2ULL,
  0x3c74a385a63d07a7ULL, 0x3fef5818dcfba487ULL, 0xbc82919e2040220fULL, 0x3fef60e316c98398ULL,
  0x3c8e5a50d5c192acULL, 0x3fef69e603db3285ULL, 0x3c843a59ac016b4bULL, 0x3fef7321f301b460ULL,
  0xbc82d52107b43e1fULL, 0x3fef7c97337b9b5fULL, 0xbc892ab93b470dc9ULL, 0x3fef864614f5a129ULL,
  0x3c74b604603a88d3ULL, 0x3fef902ee78b3ff6ULL, 0x3c83c5ec519d7271ULL, 0x3fef9a51fbc74c83ULL,
  0xbc8ff7128fd391f0ULL, 0x3fefa4afa2a490daULL, 0xbc8dae98e223747dULL, 0x3fefaf482d8e67f1ULL,
  0x3c8ec3bc41aa2008ULL, 0x3fefba1bee615a27ULL, 0x3c842b94c3a9eb32ULL, 0x3fefc52b376bba97ULL,
  0x3c8a64a931d185eeULL, 0x3fefd0765b6e4540ULL, 0xbc8e37bae43be3edULL, 0x3fefdbfdad9cbe14ULL,
  0x3c77893b4d91cd9dULL, 0x3fefe7c1819e90d8ULL, 0x3c5305c14160cc89ULL, 0x3feff3c22b8f71f1ULL,
};

/* Top 12 bits of |x| (exponent field) from which exp1/exp4 leave the
   core: |x| >= 512, and inf/NaN. */
#define EXP_SPECIAL_TOP 0x408

/* The reduction and polynomial: returns tmp, with the scale's bits in
   *sbits and the rounded k in *kp. */
INLINE double exp_reduce(double x, uint64_t *sbits, uint64_t *kp)
{
  double z = INV_LN2_N * x;
  double kd = z + SHIFT;
  uint64_t ki = asu64(kd);
  kd -= SHIFT;
  double r = x + kd * NEG_LN2_HI_N + kd * NEG_LN2_LO_N;
  uint64_t idx = 2 * (ki % EXP_N);
  double tail = asf64(tab[idx]);
  *sbits = tab[idx + 1] + (ki << (52 - EXP_BITS));
  *kp = ki;
  double r2 = r * r;
  return tail + r + r2 * (C2 + r * C3) + r2 * r2 * (C4 + r * C5);
}

/* |x| >= 512, inf and NaN. */
INLINE double exp_special(double x)
{
  uint64_t ix = asu64(x);
  uint64_t abstop = (ix >> 52) & 0x7ff;
  if (abstop >= 0x409) { /* |x| >= 1024, inf, NaN */
    if (ix == asu64(-INFINITY)) return 0.0;
    if (abstop >= 0x7ff) return 1.0 + x; /* NaN stays NaN, +inf stays inf */
    return (ix >> 63) ? 0.0 : INFINITY;
  }
  uint64_t sbits, ki;
  double tmp = exp_reduce(x, &sbits, &ki);
  if ((ki & 0x80000000) == 0) { /* k > 0: the scale alone may overflow */
    double scale = asf64(sbits - (1009ull << 52));
    return 0x1p1009 * (scale + scale * tmp);
  }
  /* k < 0: round once to the subnormal precision before scaling down */
  double scale = asf64(sbits + (1022ull << 52));
  double y = scale + scale * tmp;
  if (y < 1.0) {
    double lo = scale - y + scale * tmp;
    double hi = 1.0 + y;
    lo = 1.0 - hi + y + lo;
    y = (hi + lo) - 1.0;
    if (y == 0.0) y = 0.0; /* never -0.0 */
  }
  return 0x1p-1022 * y;
}

/* The core for |x| < 512: every result is a normal number. */
INLINE double exp1_core(double x)
{
  uint64_t sbits, ki;
  double tmp = exp_reduce(x, &sbits, &ki);
  double scale = asf64(sbits);
  return scale + scale * tmp;
}

INLINE double exp1(double x)
{
  if (__builtin_expect(((asu64(x) >> 52) & 0x7ff) >= EXP_SPECIAL_TOP, 0))
    return exp_special(x);
  return exp1_core(x);
}

typedef double v4d __attribute__((vector_size(32)));
typedef double v4du __attribute__((vector_size(32), aligned(8)));
typedef uint64_t v4u __attribute__((vector_size(32)));
typedef int64_t v4i __attribute__((vector_size(32)));

#define LD(p) ((v4d)(*(const v4du *)(p)))
#define ST(p, v) (*(v4du *)(p) = (v))

#if defined(__x86_64__)
#include <immintrin.h>
#define VEC __attribute__((target("avx2")))
/* Lane maxima; unordered or equal lanes take b. */
#define VMAX(a, b) ((v4d)_mm256_max_pd((__m256d)(a), (__m256d)(b)))
/* Whether any lane of the mask m is set. */
#define ANY(m) (!_mm256_testz_si256((__m256i)(m), (__m256i)(m)))
/* Set once at load time: whether the 4-lane code may run. */
static int vec_ok;
__attribute__((constructor)) static void elt_init(void)
{
  __builtin_cpu_init();
  vec_ok = __builtin_cpu_supports("avx2");
}
#else
#define VEC
static const int vec_ok = 1;
#define VMAX(a, b) ((v4d)(((v4i)(a) & ((a) > (b))) | ((v4i)(b) & ~((a) > (b)))))
#define ANY(m) (((m)[0] | (m)[1] | (m)[2] | (m)[3]) != 0)
#endif

/* exp1_core on each lane, operation for operation. */
VEC INLINE v4d exp4_core(v4d x)
{
  v4d z = INV_LN2_N * x;
  v4d kd = z + SHIFT;
  v4u ki = (v4u)kd;
  kd -= SHIFT;
  v4d r = x + kd * NEG_LN2_HI_N + kd * NEG_LN2_LO_N;
  v4u idx = 2 * (ki % EXP_N);
  v4d tail = (v4d)(v4u){tab[idx[0]], tab[idx[1]], tab[idx[2]], tab[idx[3]]};
  v4u sbits = (v4u){tab[idx[0] + 1], tab[idx[1] + 1], tab[idx[2] + 1],
                    tab[idx[3] + 1]} +
              (ki << (52 - EXP_BITS));
  v4d r2 = r * r;
  v4d tmp = tail + r + r2 * (C2 + r * C3) + r2 * r2 * (C4 + r * C5);
  v4d scale = (v4d)sbits;
  return scale + scale * tmp;
}

/* exp1 on each lane. Lanes of |x| >= 1024, infinities and NaN get
   exp_special's results in vector form (0.0 or inf by sign, 1.0 + x for
   NaN), so a masked row's -inf scores stay in the vector path; lanes in
   [512, 1024) call exp_special itself. */
VEC INLINE v4d exp4(v4d x)
{
  v4u top = ((v4u)x >> 52) & 0x7ff;
  v4i sp = (v4i)(top >= EXP_SPECIAL_TOP);
  if (__builtin_expect(ANY(sp), 0)) {
    v4d y = exp4_core((v4d)((v4u)x & ~(v4u)sp));
    v4i big = (v4i)(top >= 0x409);
    v4u neg = (v4u)((v4i)x < 0);
    v4u yb = ~neg & asu64(INFINITY);
    v4i nan = x != x;
    yb = ((v4u)(1.0 + x) & (v4u)nan) | (yb & ~(v4u)nan);
    y = (v4d)((yb & (v4u)big) | ((v4u)y & ~(v4u)big));
    v4i mid = sp & ~big;
    if (ANY(mid))
      for (int l = 0; l < 4; l++)
        if (mid[l]) y[l] = exp_special(x[l]);
    return y;
  }
  return exp4_core(x);
}

/* a[i] <- exp(a[i] + shift) for i in [0, n), returning the ascending sum
   of the results from 0.0. */
VEC static double exp_shift_sum4(double *a, long n, double shift)
{
  double sum = 0.0;
  long i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d y = exp4(LD(a + i) + shift);
    ST(a + i, y);
    sum += y[0];
    sum += y[1];
    sum += y[2];
    sum += y[3];
  }
  for (; i < n; i++) {
    double y = exp1(a[i] + shift);
    a[i] = y;
    sum += y;
  }
  return sum;
}

static double exp_shift_sum1(double *a, long n, double shift)
{
  double sum = 0.0;
  for (long i = 0; i < n; i++) {
    double y = exp1(a[i] + shift);
    a[i] = y;
    sum += y;
  }
  return sum;
}

static double exp_shift_sum(double *a, long n, double shift)
{
  return vec_ok ? exp_shift_sum4(a, n, shift) : exp_shift_sum1(a, n, shift);
}

VEC static void exp_array4(double *a, long n)
{
  long i = 0;
  for (; i + 4 <= n; i += 4) ST(a + i, exp4(LD(a + i)));
  for (; i < n; i++) a[i] = exp1(a[i]);
}

static void exp_array1(double *a, long n)
{
  for (long i = 0; i < n; i++) a[i] = exp1(a[i]);
}

double substation_exp(double x) { return exp1(x); }

value substation_exp_byte(value x)
{
  return caml_copy_double(exp1(Double_val(x)));
}

value substation_exp_array(value a, intnat off, intnat n)
{
  double *p = (double *)a + off;
  if (vec_ok) exp_array4(p, n);
  else exp_array1(p, n);
  return Val_unit;
}

value substation_exp_array_byte(value a, value off, value n)
{
  return substation_exp_array(a, Long_val(off), Long_val(n));
}

/* ------------------------------------------------------------------ */
/* The dropout draw                                                    */
/* ------------------------------------------------------------------ */

#define GOLDEN_GAMMA 0x9E3779B97F4A7C15ull

INLINE uint64_t mix(uint64_t z)
{
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/* ceil(p * 2^53), clamped to [0, 2^53]: draw u = z >> 11 drops exactly
   when u < it. A NaN or non-positive p drops nothing; p >= 1 drops all. */
static uint64_t drop_threshold(double p)
{
  double t = ceil(p * 0x1p53);
  if (!(t > 0.0)) return 0;
  if (t >= 0x1p53) return 1ull << 53;
  return (uint64_t)t;
}

/* Keep value of draw i: 0.0 when dropped, else scale. */
INLINE double keep(uint64_t state, long i, uint64_t thr, double scale)
{
  uint64_t s = state + (uint64_t)(i + 1) * GOLDEN_GAMMA;
  return (mix(s) >> 11) < thr ? 0.0 : scale;
}

/* d[i] <- keep(state, e0 + i, ...) for i in [0, n). */
static void keep_fill1(double *d, long n, uint64_t state, long e0,
                       uint64_t thr, double scale)
{
  for (long i = 0; i < n; i++) d[i] = keep(state, e0 + i, thr, scale);
}

/* The same draws four lanes at a time: the integer operations are exact,
   so every lane is keep()'s. Lane compares are signed, which is exact
   here since z >> 11 < 2^53 and thr <= 2^53. */
VEC static void keep_fill4(double *d, long n, uint64_t state, long e0,
                           uint64_t thr, double scale)
{
  long i = 0;
  v4u s = state + ((uint64_t)(e0 + 1) + (v4u){0, 1, 2, 3}) * GOLDEN_GAMMA;
  v4i t = (v4i){0, 0, 0, 0} + (int64_t)thr;
  v4u sc = (v4u){0, 0, 0, 0} + asu64(scale);
  for (; i + 4 <= n; i += 4) {
    v4u z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
    v4u dropped = (v4u)((v4i)(z >> 11) < t);
    ST(d + i, (v4d)(sc & ~dropped));
    s += 4 * GOLDEN_GAMMA;
  }
  for (; i < n; i++) d[i] = keep(state, e0 + i, thr, scale);
}

static void keep_fill(double *d, long n, uint64_t state, long e0, double p,
                      double scale)
{
  uint64_t thr = drop_threshold(p);
  if (vec_ok) keep_fill4(d, n, state, e0, thr, scale);
  else keep_fill1(d, n, state, e0, thr, scale);
}

value substation_keep_fill(value dst, intnat at, intnat n, int64_t state,
                           intnat e0, double p, double scale)
{
  keep_fill((double *)dst + at, n, (uint64_t)state, e0, p, scale);
  return Val_unit;
}

value substation_keep_fill_byte(value *argv, int argc)
{
  (void)argc;
  return substation_keep_fill(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                              Int64_val(argv[3]), Long_val(argv[4]),
                              Double_val(argv[5]), Double_val(argv[6]));
}

/* ------------------------------------------------------------------ */
/* Flashattn's rows                                                    */
/* ------------------------------------------------------------------ */

/* Mask elements drawn per pass of a row loop (on the stack). */
#define MASK_CHUNK 256

/* m[0..c) <- the mask elements of draws e0.., or 1.0 without dropout. */
static void mask_chunk(double *m, long c, uint64_t state, long e0, double p,
                       double scale)
{
  if (p > 0.0) keep_fill(m, c, state, e0, p, scale);
  else
    for (long i = 0; i < c; i++) m[i] = 1.0;
}

/* Float.max with the ordered cases first; equal (signed zeros) and NaN
   operands take Float.max's sign-bit and NaN rules. */
INLINE double fmax_ml(double x, double y)
{
  if (y > x) return y;
  if (y < x) return x;
  if (!signbit(y) && signbit(x)) return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}

/* prescale (+. 0.0 under a mask) in place; returns the Float.max fold
   of the results from -inf, in ascending order. */
static double scale_max1(double *s, long km, double prescale, int masking)
{
  double mx = -INFINITY;
  for (long i = 0; i < km; i++) {
    double v = prescale * s[i];
    if (masking) v = v + 0.0;
    s[i] = v;
    mx = fmax_ml(mx, v);
  }
  return mx;
}

/* The same four lanes at a time. Over values that hold no NaN, the
   Float.max fold is the maximum under the order -0 < +0 whatever the
   grouping, and a nonzero maximum has one bit pattern. Each lane keeps
   the maximum of its values by v > mx, which gives that maximum unless
   some value is NaN or the maximum is a zero (where v > mx does not tell
   -0 from +0); such a row is folded again in order. */
VEC static double scale_max4(double *s, long km, double prescale,
                             int masking)
{
  v4d mxa = (v4d){-INFINITY, -INFINITY, -INFINITY, -INFINITY}, mxb = mxa;
  v4i nan4 = (v4i){0, 0, 0, 0};
  long i = 0;
  for (; i + 8 <= km; i += 8) {
    v4d va = prescale * LD(s + i), vb = prescale * LD(s + i + 4);
    if (masking) {
      va = va + 0.0;
      vb = vb + 0.0;
    }
    ST(s + i, va);
    ST(s + i + 4, vb);
    mxa = VMAX(va, mxa);
    mxb = VMAX(vb, mxb);
    nan4 |= (va != va) | (vb != vb);
  }
  mxa = VMAX(mxa, mxb);
  double mx = -INFINITY;
  int nan = ANY(nan4);
  for (int l = 0; l < 4; l++)
    if (mxa[l] > mx) mx = mxa[l];
  for (; i < km; i++) {
    double v = prescale * s[i];
    if (masking) v = v + 0.0;
    s[i] = v;
    if (v > mx) mx = v;
    nan |= v != v;
  }
  if (nan || mx == 0.0) {
    mx = -INFINITY;
    for (i = 0; i < km; i++) mx = fmax_ml(mx, s[i]);
  }
  return mx;
}

/* Raw dots s[0..km) -> unnormalized exps in place: prescale (+. 0.0
   under a mask), max fold, exp (v + -1.0 * max), ascending sum.
   Returns 1.0 / sum. */
static double softmax_exps(double *s, long km, double prescale, int masking)
{
  double mx = vec_ok ? scale_max4(s, km, prescale, masking)
                     : scale_max1(s, km, prescale, masking);
  return 1.0 / exp_shift_sum(s, km, -1.0 * mx);
}

/* Forward: one row's probabilities in place, times its dropout mask
   (draws e0, e0 + 1, ...) when p > 0. */
value substation_attn_fwd_row(value buf, intnat off, intnat km,
                              double prescale, value masking, int64_t state,
                              intnat e0, double p, double scale)
{
  double *s = (double *)buf + off;
  double inv = softmax_exps(s, km, prescale, Bool_val(masking));
  if (p > 0.0) {
    double m[MASK_CHUNK];
    for (long i0 = 0; i0 < km; i0 += MASK_CHUNK) {
      long c = km - i0 < MASK_CHUNK ? km - i0 : MASK_CHUNK;
      keep_fill(m, c, (uint64_t)state, e0 + i0, p, scale);
      for (long i = 0; i < c; i++) s[i0 + i] = (s[i0 + i] * inv) * m[i];
    }
  } else {
    for (long i = 0; i < km; i++) s[i] = s[i] * inv;
  }
  return Val_unit;
}

value substation_attn_fwd_row_byte(value *argv, int argc)
{
  (void)argc;
  return substation_attn_fwd_row(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                                 Double_val(argv[3]), argv[4],
                                 Int64_val(argv[5]), Long_val(argv[6]),
                                 Double_val(argv[7]), Double_val(argv[8]));
}

/* Backward: one row. y (at yo) is recomputed in place from the raw dots,
   dA (at dyo) becomes dy = dA *. m and the rs fold of dy *. y runs
   ascending; then dS = prescale *. (y *. (dy +. -1.0 *. rs)) replaces dy
   and y *. m replaces y, with zeros for the keys [km, n) past the row's
   prefix. The mask is drawn again for the second pass rather than
   stored. A missing dropout is mask 1.0, and x *. 1.0 is exact. */
value substation_attn_bwd_row(value buf, intnat yo, intnat dyo, intnat km,
                              intnat n, double prescale, value masking,
                              int64_t state, intnat e0, double p, double scale)
{
  double *y = (double *)buf + yo, *dy = (double *)buf + dyo;
  double inv = softmax_exps(y, km, prescale, Bool_val(masking));
  double m[MASK_CHUNK];
  double rs = 0.0;
  for (long k0 = 0; k0 < km; k0 += MASK_CHUNK) {
    long c = km - k0 < MASK_CHUNK ? km - k0 : MASK_CHUNK;
    mask_chunk(m, c, (uint64_t)state, e0 + k0, p, scale);
    for (long i = 0; i < c; i++) {
      double yk = y[k0 + i] * inv;
      double dyk = dy[k0 + i] * m[i];
      y[k0 + i] = yk;
      dy[k0 + i] = dyk;
      rs = rs + dyk * yk;
    }
  }
  double ns = -1.0 * rs;
  for (long k0 = 0; k0 < km; k0 += MASK_CHUNK) {
    long c = km - k0 < MASK_CHUNK ? km - k0 : MASK_CHUNK;
    mask_chunk(m, c, (uint64_t)state, e0 + k0, p, scale);
    for (long i = 0; i < c; i++) {
      double yk = y[k0 + i];
      dy[k0 + i] = prescale * (yk * (dy[k0 + i] + ns));
      y[k0 + i] = yk * m[i];
    }
  }
  for (long kk = km; kk < n; kk++) {
    dy[kk] = 0.0;
    y[kk] = 0.0;
  }
  return Val_unit;
}

value substation_attn_bwd_row_byte(value *argv, int argc)
{
  (void)argc;
  return substation_attn_bwd_row(
      argv[0], Long_val(argv[1]), Long_val(argv[2]), Long_val(argv[3]),
      Long_val(argv[4]), Double_val(argv[5]), argv[6], Int64_val(argv[7]),
      Long_val(argv[8]), Double_val(argv[9]), Double_val(argv[10]));
}

/* dst[c * rows + r] <- src[r * cols + c]: a rows x cols panel transposed,
   writing each destination row contiguously. */
value substation_transpose(value buf, intnat src, intnat dst, intnat rows,
                           intnat cols)
{
  const double *s = (const double *)buf + src;
  double *d = (double *)buf + dst;
  for (long c = 0; c < cols; c++)
    for (long r = 0; r < rows; r++) d[c * rows + r] = s[r * cols + c];
  return Val_unit;
}

value substation_transpose_byte(value buf, value src, value dst, value rows,
                                value cols)
{
  return substation_transpose(buf, Long_val(src), Long_val(dst),
                              Long_val(rows), Long_val(cols));
}
