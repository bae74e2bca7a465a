/* Vectorized GEMM micro-kernel behind Gemm.gemm_rows:
   C[i][j] += sum_p A[i][p] * B[p][j] for rows [i_lo, i_hi) of C, all three
   row-major over flat OCaml float arrays (a flat float array is a raw
   double*).

   Bitwise contract. Every C element is loaded once per kc-deep k panel,
   gets c + a*b as a separate multiply and add for each p in ascending
   order, and is stored back: the same operations in the same order as the
   naive triple loop, so the result is bitwise equal to it whatever the
   tiling, the row shard or the vector width. The build passes
   -ffp-contract=off so the compiler never fuses a multiply-add into an FMA
   (one rounding instead of two), and no flag here enables -ffast-math.

   Vectors are GCC vector extensions (four doubles). On x86-64 the kernel
   is compiled twice from this one source (target_clones): an AVX2 clone
   picked at load time where the CPU has it, and a default clone whose
   four-double vectors lower to SSE2 pairs. Elsewhere the default build
   alone is used.

   Inside a k panel C is covered by:
   - 4x8 tiles: eight vector accumulators hold 4 rows x 8 columns; each k
     step broadcasts one A value per row against two B vectors;
   - a 4x4 tile on the columns [n8, n4) and 1x4 vectors on the leftover
     rows (fewer than 4) over [0, n4);
   - the narrow columns [n4, n) (every decode GEMV, n < 4) as 8-row tiles
     whose vector lanes are rows: 4x4 blocks of A are transposed in
     registers, then multiplied by a broadcast B value per k step. Only the
     rows past the last 8-row block run scalar. */

#include <caml/mlvalues.h>

/* Panel depth. Any depth gives the same bits by the ascending-k contract. */
#define KC 128

typedef double v4d __attribute__((vector_size(32)));
typedef double v4du __attribute__((vector_size(32), aligned(8)));
typedef long long v4i __attribute__((vector_size(32)));

#define LD(p) (*(const v4du *)(p))
#define ST(p, v) (*(v4du *)(p) = (v))

/* Transpose the 4x4 block held in rows r0..r3 into columns r0..r3. */
#define TRANSPOSE4(r0, r1, r2, r3)                                           \
  do {                                                                       \
    v4d t0 = __builtin_shuffle(r0, r1, (v4i){0, 4, 2, 6});                   \
    v4d t1 = __builtin_shuffle(r0, r1, (v4i){1, 5, 3, 7});                   \
    v4d t2 = __builtin_shuffle(r2, r3, (v4i){0, 4, 2, 6});                   \
    v4d t3 = __builtin_shuffle(r2, r3, (v4i){1, 5, 3, 7});                   \
    r0 = __builtin_shuffle(t0, t2, (v4i){0, 1, 4, 5});                       \
    r1 = __builtin_shuffle(t1, t3, (v4i){0, 1, 4, 5});                       \
    r2 = __builtin_shuffle(t0, t2, (v4i){2, 3, 6, 7});                       \
    r3 = __builtin_shuffle(t1, t3, (v4i){2, 3, 6, 7});                       \
  } while (0)

#define INLINE static inline __attribute__((always_inline))

/* 4 rows x 8 columns of C at c, A rows at a, B columns at b. */
INLINE void tile_4x8(const double *a, const double *b, double *c, long n,
                     long k, long p0, long p1)
{
  double *c1 = c + n, *c2 = c1 + n, *c3 = c2 + n;
  v4d s00 = LD(c), s01 = LD(c + 4), s10 = LD(c1), s11 = LD(c1 + 4);
  v4d s20 = LD(c2), s21 = LD(c2 + 4), s30 = LD(c3), s31 = LD(c3 + 4);
  for (long p = p0; p < p1; p++) {
    v4d b0 = LD(b + p * n), b1 = LD(b + p * n + 4);
    double a0 = a[p], a1 = a[k + p], a2 = a[2 * k + p], a3 = a[3 * k + p];
    s00 += a0 * b0; s01 += a0 * b1;
    s10 += a1 * b0; s11 += a1 * b1;
    s20 += a2 * b0; s21 += a2 * b1;
    s30 += a3 * b0; s31 += a3 * b1;
  }
  ST(c, s00); ST(c + 4, s01); ST(c1, s10); ST(c1 + 4, s11);
  ST(c2, s20); ST(c2 + 4, s21); ST(c3, s30); ST(c3 + 4, s31);
}

/* 4 rows x 4 columns. */
INLINE void tile_4x4(const double *a, const double *b, double *c, long n,
                     long k, long p0, long p1)
{
  double *c1 = c + n, *c2 = c1 + n, *c3 = c2 + n;
  v4d s0 = LD(c), s1 = LD(c1), s2 = LD(c2), s3 = LD(c3);
  for (long p = p0; p < p1; p++) {
    v4d bv = LD(b + p * n);
    s0 += a[p] * bv; s1 += a[k + p] * bv;
    s2 += a[2 * k + p] * bv; s3 += a[3 * k + p] * bv;
  }
  ST(c, s0); ST(c1, s1); ST(c2, s2); ST(c3, s3);
}

/* 1 row x 4 columns. */
INLINE void tile_1x4(const double *a, const double *b, double *c, long n,
                     long p0, long p1)
{
  v4d s = LD(c);
  for (long p = p0; p < p1; p++) s += a[p] * LD(b + p * n);
  ST(c, s);
}

/* 8 rows x 1 column, lanes are rows: s0 holds rows 0-3, s1 rows 4-7. */
INLINE void tile_8x1(const double *a, const double *b, double *c, long n,
                     long k, long p0, long p1)
{
  const double *a4 = a + 4 * k;
  v4d s0 = {c[0], c[n], c[2 * n], c[3 * n]};
  v4d s1 = {c[4 * n], c[5 * n], c[6 * n], c[7 * n]};
  long p = p0;
  for (; p + 4 <= p1; p += 4) {
    v4d x0 = LD(a + p), x1 = LD(a + k + p);
    v4d x2 = LD(a + 2 * k + p), x3 = LD(a + 3 * k + p);
    v4d y0 = LD(a4 + p), y1 = LD(a4 + k + p);
    v4d y2 = LD(a4 + 2 * k + p), y3 = LD(a4 + 3 * k + p);
    TRANSPOSE4(x0, x1, x2, x3);
    TRANSPOSE4(y0, y1, y2, y3);
    double b0 = b[p * n], b1 = b[(p + 1) * n];
    double b2 = b[(p + 2) * n], b3 = b[(p + 3) * n];
    s0 += x0 * b0; s1 += y0 * b0;
    s0 += x1 * b1; s1 += y1 * b1;
    s0 += x2 * b2; s1 += y2 * b2;
    s0 += x3 * b3; s1 += y3 * b3;
  }
  for (; p < p1; p++) {
    v4d x = {a[p], a[k + p], a[2 * k + p], a[3 * k + p]};
    v4d y = {a4[p], a4[k + p], a4[2 * k + p], a4[3 * k + p]};
    s0 += x * b[p * n]; s1 += y * b[p * n];
  }
  c[0] = s0[0]; c[n] = s0[1]; c[2 * n] = s0[2]; c[3 * n] = s0[3];
  c[4 * n] = s1[0]; c[5 * n] = s1[1]; c[6 * n] = s1[2]; c[7 * n] = s1[3];
}

#if defined(__x86_64__)
__attribute__((target_clones("avx2", "default")))
#endif
static void gemm_rows(const double *a, const double *b, double *c,
                      long i_lo, long i_hi, long n, long k)
{
  long i4 = i_lo + ((i_hi - i_lo) & ~3L), i8 = i_lo + ((i_hi - i_lo) & ~7L);
  long n4 = n & ~3L, n8 = n & ~7L;
  for (long p0 = 0; p0 < k; p0 += KC) {
    long p1 = p0 + KC < k ? p0 + KC : k;
    for (long i = i_lo; i < i4; i += 4) {
      const double *ai = a + i * k;
      double *ci = c + i * n;
      for (long j = 0; j < n8; j += 8) tile_4x8(ai, b + j, ci + j, n, k, p0, p1);
      if (n8 < n4) tile_4x4(ai, b + n8, ci + n8, n, k, p0, p1);
    }
    for (long i = i4; i < i_hi; i++)
      for (long j = 0; j < n4; j += 4)
        tile_1x4(a + i * k, b + j, c + i * n + j, n, p0, p1);
    for (long j = n4; j < n; j++) {
      for (long i = i_lo; i < i8; i += 8)
        tile_8x1(a + i * k, b + j, c + i * n + j, n, k, p0, p1);
      for (long i = i8; i < i_hi; i++) {
        const double *ai = a + i * k;
        double s = c[i * n + j];
        for (long p = p0; p < p1; p++) s += ai[p] * b[p * n + j];
        c[i * n + j] = s;
      }
    }
  }
}

value substation_gemm_rows(intnat a_off, intnat b_off, intnat c_off,
                           intnat i_lo, intnat i_hi, intnat n, intnat k,
                           value a, value b, value c)
{
  gemm_rows((const double *)a + a_off, (const double *)b + b_off,
            (double *)c + c_off, i_lo, i_hi, n, k);
  return Val_unit;
}

value substation_gemm_rows_byte(value *argv, int argc)
{
  (void)argc;
  return substation_gemm_rows(Long_val(argv[0]), Long_val(argv[1]),
                              Long_val(argv[2]), Long_val(argv[3]),
                              Long_val(argv[4]), Long_val(argv[5]),
                              Long_val(argv[6]), argv[7], argv[8], argv[9]);
}
