/* Compiled loops of the solver's warp step, of its primal-dual cycle and of
 * the masked bicubic sampler.
 *
 * kernels.py compiles this file on first use and checks every array before
 * it hands a pointer here. Each loop repeats the NumPy operations it
 * replaced (kept as references in the tests): the same operations, in the
 * same order and precision, so the results are bit-identical, signed zeros
 * included; only a NaN's sign bit may differ, as gcc may commute the
 * operands of a float add, which picks the NaN that the sum keeps. Where
 * NumPy added a difference of +0 at the last column or row, so does the
 * loop: 0 + x is not x when x is -0. That needs
 * -ffp-contract=off (no fused multiply-add) and rules out -ffast-math.
 * The cycle runs in float, the precision the solver casts its levels to;
 * the sampler, and the warp step around its cycles, in double.
 *
 * The sampler takes its positions in chunks of up to CHUNK, whose arrays
 * live on the stack. One loop over a chunk's positions, under `omp simd`,
 * computes the floors, the fractions, the Catmull-Rom weights and the 32-bit
 * indices of every stencil; a scalar loop reads the tap counts; then every
 * four full stencils in a row take their 16-tap sums as one vector, a lane
 * per position. Each lane adds its 16 products in the order of the scalar
 * sum, one add chain per position, and no lane reads another's, so the sums
 * are those of the scalar sum bit for bit, in every build. The taps of a
 * stencil row are contiguous, so the vector sum loads whole rows and
 * transposes them: a gather per tap, which gcc emulates with one scalar
 * load per lane, was slower than the scalar sum. The other full stencils
 * take the scalar sum, and the rim and empty ones the scalar chain.
 *
 * The warp step splits its level into row bands, one per thread: two
 * bands when the calling thread may run on two CPUs or more
 * (sched_getaffinity), else one. The caller's thread runs the top band and
 * one POSIX thread, created and joined in the same call, the bottom one.
 * Every pixel's arithmetic is the same in either band, so the results do
 * not depend on the split. The bands wait for each other at a barrier
 * wherever one reads rows the other wrote: after the first sampling pass
 * (the tap counts of `valid` read rows up to 4 away), after the tap counts
 * (the I_u pass samples i1w two rows away), inside each cycle (the primal
 * step of a band's first row needs the new p and q of the row above) and
 * at the end of each cycle. With one band no barrier runs. The worker
 * thread allocates nothing: a thread that calls malloc gets its own heap
 * arena, which costs megabytes of resident memory.
 */

#define _GNU_SOURCE /* sched_getaffinity and CPU_COUNT */
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stddef.h>
#include <stdint.h>

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* Positions per chunk of the sampler; a chunk's arrays live on the stack. */
#define CHUNK 64

/* Catmull-Rom weights of the taps at offsets -1..2 for fractional part f,
 * into wt[0..4][j]. They reproduce constants and affine ramps exactly and
 * are interpolating (weight 1 at the node), which the warping relies on. */
ALWAYS_INLINE void cubic_weights(double f, double wt[4][CHUNK], int j)
{
    const double f2 = f * f, f3 = f2 * f;
    wt[0][j] = -0.5 * f + f2 - 0.5 * f3;
    wt[1][j] = 1.0 - 2.5 * f2 + 1.5 * f3;
    wt[2][j] = 0.5 * f + 2.0 * f2 - 1.5 * f3;
    wt[3][j] = -0.5 * f2 + 0.5 * f3;
}

/* Bilinear over the valid inner 2x2 taps, else the nearest valid tap of the
 * stencil of floor (ix, iy); every tap is bounds-checked. */
static void rim_chain(const double *f, const uint8_t *mask, ptrdiff_t nc,
                      ptrdiff_t h, ptrdiff_t w, ptrdiff_t ix, ptrdiff_t iy,
                      double fx, double fy, double *out)
{
    double bw[4], wsum = 0.0, near_d2 = INFINITY;
    ptrdiff_t at[4], near = -1;
    int nb = 0;
    for (ptrdiff_t dy = -1; dy <= 2; dy++) {
        const ptrdiff_t r = iy + dy;
        for (ptrdiff_t dx = -1; dx <= 2; dx++) {
            const ptrdiff_t c = ix + dx;
            const int ok = r >= 0 && r < h && c >= 0 && c < w && mask[r * w + c];
            if ((dy == 0 || dy == 1) && (dx == 0 || dx == 1)) {
                const double b = (dy == 1 ? fy : 1.0 - fy) * (dx == 1 ? fx : 1.0 - fx);
                bw[nb] = ok ? b : 0.0;
                at[nb] = ok ? r * w + c : -1;
                wsum += bw[nb++];
            }
            const double d2 = (dx - fx) * (dx - fx) + (dy - fy) * (dy - fy);
            if (ok && d2 < near_d2) {
                near_d2 = d2;
                near = r * w + c;
            }
        }
    }
    for (ptrdiff_t ch = 0; ch < nc; ch++) {
        if (wsum > 1e-12) {
            double acc = 0.0;
            for (int t = 0; t < 4; t++)
                acc += bw[t] * (at[t] >= 0 ? f[at[t] * nc + ch] : 0.0);
            out[ch] = acc / wsum;
        } else {
            out[ch] = near >= 0 ? f[near * nc + ch] : 0.0;
        }
    }
}

/* Where each of a chunk's n positions falls: the floors, clipped into
 * [-3, w + 1] x [-3, h + 1] (NaN to -3), beyond which no stencil has a tap
 * in the image; the fractions; the Catmull-Rom weights; the stencil's entry
 * in the tap-count maps and the flat index of its top-left tap. The indices
 * are 32-bit, as gcc vectorizes only those: AVX2 converts double to int32,
 * not to int64. kernels.py rejects every shape whose indices do not fit. */
struct chunk {
    int n;
    int32_t ix[CHUNK], iy[CHUNK], at[CHUNK], top_left[CHUNK];
    double fx[CHUNK], fy[CHUNK], wx[4][CHUNK], wy[4][CHUNK];
};

/* Locate the chunk's positions: (xy[2j], xy[2j + 1]), offset by (col + j,
 * row) on the pixel grid of a row when `grid` is set. */
ALWAYS_INLINE void locate(struct chunk *c, int n, const double *xy, int grid, int32_t col,
                          int32_t row, int32_t h, int32_t w)
{
    c->n = n;
#pragma omp simd
    for (int j = 0; j < n; j++) {
        const double x = grid ? (double)(col + j) + xy[2 * j] : xy[2 * j];
        const double y = grid ? (double)row + xy[2 * j + 1] : xy[2 * j + 1];
        const double floor_x = floor(x), floor_y = floor(y);
        const double fx = x - floor_x, fy = y - floor_y;
        double cx = floor_x >= -3 ? floor_x : -3, cy = floor_y >= -3 ? floor_y : -3;
        cx = cx <= w + 1 ? cx : w + 1;
        cy = cy <= h + 1 ? cy : h + 1;
        const int32_t ix = (int32_t)cx, iy = (int32_t)cy;
        c->ix[j] = ix;
        c->iy[j] = iy;
        c->at[j] = (iy + 3) * (w + 5) + (ix + 3);
        c->top_left[j] = (iy - 1) * w + (ix - 1);
        c->fx[j] = fx;
        c->fy[j] = fy;
        cubic_weights(fx, c->wx, j);
        cubic_weights(fy, c->wy, j);
    }
}

/* The 16-tap sum of every channel of an (h, w, nc) field at the full
 * stencil of the chunk's position j into out[0..nc). */
ALWAYS_INLINE void stencil_sum(const struct chunk *c, int j, const double *f, ptrdiff_t nc,
                               ptrdiff_t w, double *out)
{
    const double *top_left = f + (ptrdiff_t)c->top_left[j] * nc;
    for (ptrdiff_t ch = 0; ch < nc; ch++) {
        double acc = 0.0;
        for (int a = 0; a < 4; a++)
            for (int b = 0; b < 4; b++)
                acc += (c->wy[a][j] * c->wx[b][j]) * top_left[(a * w + b) * nc + ch];
        out[ch] = acc;
    }
}

/* Four doubles, one per position of a quad; a v4du may be unaligned. */
typedef double v4d __attribute__((vector_size(32)));
typedef double v4du __attribute__((vector_size(32), aligned(8)));
typedef int64_t v4i __attribute__((vector_size(32)));

/* The fields with up to this many channels take the quad sum. */
#define QUAD_CHANNELS 2

/* The 16-tap sums of the full stencils of the chunk's positions j to j + 3,
 * one vector lane each, into out[(j + p) * stride + ch] for position j + p
 * and channel ch < nc <= QUAD_CHANNELS. Each lane runs stencil_sum's add
 * chain, in its order, so the sums are its bits. A stencil row of an
 * (h, w, nc) field is 4 * nc contiguous doubles: loaded as nc vectors for
 * each of the four positions, four vectors at a time are transposed into one
 * vector per tap and channel. No gather is needed, which gcc would emulate
 * with a scalar load per lane. */
ALWAYS_INLINE void quad_sum(const struct chunk *c, int j, const double *f, ptrdiff_t nc,
                            ptrdiff_t w, double *out, ptrdiff_t stride)
{
    const double *row[4];
    for (int p = 0; p < 4; p++)
        row[p] = f + (ptrdiff_t)c->top_left[j + p] * nc;
    v4d acc[QUAD_CHANNELS], taps[4 * QUAD_CHANNELS];
    for (ptrdiff_t ch = 0; ch < nc; ch++)
        acc[ch] = (v4d){0.0, 0.0, 0.0, 0.0};
    for (int a = 0; a < 4; a++) {
        for (ptrdiff_t v = 0; v < nc; v++) {
            v4d r[4];
            for (int p = 0; p < 4; p++)
                r[p] = *(const v4du *)(row[p] + a * w * nc + 4 * v);
            /* taps[4 v + k] holds element 4 v + k of the four rows: tap
             * (4 v + k) / nc, channel (4 v + k) % nc. */
            const v4d lo01 = __builtin_shuffle(r[0], r[1], (v4i){0, 4, 2, 6});
            const v4d hi01 = __builtin_shuffle(r[0], r[1], (v4i){1, 5, 3, 7});
            const v4d lo23 = __builtin_shuffle(r[2], r[3], (v4i){0, 4, 2, 6});
            const v4d hi23 = __builtin_shuffle(r[2], r[3], (v4i){1, 5, 3, 7});
            taps[4 * v] = __builtin_shuffle(lo01, lo23, (v4i){0, 1, 4, 5});
            taps[4 * v + 1] = __builtin_shuffle(hi01, hi23, (v4i){0, 1, 4, 5});
            taps[4 * v + 2] = __builtin_shuffle(lo01, lo23, (v4i){2, 3, 6, 7});
            taps[4 * v + 3] = __builtin_shuffle(hi01, hi23, (v4i){2, 3, 6, 7});
        }
        const v4d wy = *(const v4du *)(c->wy[a] + j);
        for (int b = 0; b < 4; b++) {
            const v4d wt = wy * *(const v4du *)(c->wx[b] + j);
            for (ptrdiff_t ch = 0; ch < nc; ch++)
                acc[ch] += wt * taps[b * nc + ch];
        }
    }
    for (int p = 0; p < 4; p++)
        for (ptrdiff_t ch = 0; ch < nc; ch++)
            out[(j + p) * stride + ch] = acc[ch][p];
}

/* The chunk's stencils in an (h, w, nc) field under a mask whose tap-count
 * map is `counts`: count[j] receives the taps of stencil j and, where the
 * stencil is full (16 taps), out[j * stride + ch] the 16-tap sum of channel
 * ch. Four full stencils in a row take the quad sum, any other full one
 * stencil_sum. */
ALWAYS_INLINE void full_sums(const struct chunk *c, const double *f, ptrdiff_t nc,
                             ptrdiff_t w, const uint8_t *counts, int count[CHUNK],
                             double *out, ptrdiff_t stride)
{
    for (int j = 0; j < c->n; j++)
        count[j] = counts[c->at[j]];
    for (int j = 0; j < c->n;) {
        if (nc <= QUAD_CHANNELS && j + 4 <= c->n && count[j] == 16 && count[j + 1] == 16
            && count[j + 2] == 16 && count[j + 3] == 16) {
            quad_sum(c, j, f, nc, w, out, stride);
            j += 4;
        } else {
            if (count[j] == 16)
                stencil_sum(c, j, f, nc, w, out + j * stride);
            j++;
        }
    }
}

/* Complete position j's sample of an (h, w, nc) field under its mask in
 * out[0..nc), which full_sums filled if the stencil is full: NaN for an
 * empty stencil (no tap), the bilinear/nearest chain for a rim one. Returns
 * whether the sample is valid. */
ALWAYS_INLINE int sample_at(const struct chunk *c, int j, int count, const double *f,
                            ptrdiff_t nc, const uint8_t *mask, ptrdiff_t h, ptrdiff_t w,
                            double *out)
{
    if (count == 0) {
        for (ptrdiff_t ch = 0; ch < nc; ch++)
            out[ch] = NAN;
    } else if (count < 16) {
        rim_chain(f, mask, nc, h, w, c->ix[j], c->iy[j], c->fx[j], c->fy[j], out);
    }
    return count > 0;
}

/* Rows [first, end) of the map of an (h, w) mask's taps per stencil floor:
 * entry [iy + 3][ix + 3] counts the in-image, in-mask taps of the 4x4
 * stencil whose floor is (ix, iy), for ix in [-3, w + 1] and iy in
 * [-3, h + 1]. The outer ring of floors has no tap in the image, nor has any
 * floor beyond it. `rows` is (h + 5, w) scratch for the sums of four
 * vertical taps. Row i of either map reads mask rows i - 4 to i - 1 only. */
static void tap_count_rows(ptrdiff_t h, ptrdiff_t w, const uint8_t *mask, uint8_t *rows,
                           uint8_t *counts, ptrdiff_t first, ptrdiff_t end)
{
    for (ptrdiff_t i = first; i < end; i++) {
        for (ptrdiff_t x = 0; x < w; x++) {
            uint8_t n = 0;
            for (ptrdiff_t r = i - 4; r < i; r++)
                n += r >= 0 && r < h ? mask[r * w + x] : 0;
            rows[i * w + x] = n;
        }
        for (ptrdiff_t j = 0; j < w + 5; j++) {
            uint8_t n = 0;
            for (ptrdiff_t x = j - 4; x < j; x++)
                n += x >= 0 && x < w ? rows[i * w + x] : 0;
            counts[i * (w + 5) + j] = n;
        }
    }
}

/* The whole (h + 5, w + 5) tap-count map of an (h, w) mask. */
void tap_counts(ptrdiff_t h, ptrdiff_t w, const uint8_t *mask, uint8_t *rows,
                uint8_t *counts)
{
    tap_count_rows(h, w, mask, rows, counts, 0, h + 5);
}

/* Sample an (h, w, nc) field under its mask at the n positions xy (x, y
 * interleaved). `counts` is the (h + 5, w + 5) map of the mask's valid taps
 * per stencil floor (`tap_counts`); values is (n, nc) and valid (n,). */
void sample_bicubic(ptrdiff_t n, const double *xy, ptrdiff_t h, ptrdiff_t w,
                    const double *field, ptrdiff_t nc, const uint8_t *mask,
                    const uint8_t *counts, double *values, uint8_t *valid)
{
    struct chunk c;
    int count[CHUNK];
    for (ptrdiff_t k0 = 0; k0 < n; k0 += CHUNK) {
        double *out = values + k0 * nc;
        locate(&c, n - k0 < CHUNK ? n - k0 : CHUNK, xy + 2 * k0, 0, 0, 0, h, w);
        /* constant channel counts, for which the quad sum unrolls */
        if (nc == 1)
            full_sums(&c, field, 1, w, counts, count, out, 1);
        else if (nc == 2)
            full_sums(&c, field, 2, w, counts, count, out, 2);
        else
            full_sums(&c, field, nc, w, counts, count, out, nc);
        for (int j = 0; j < c.n; j++)
            valid[k0 + j] = sample_at(&c, j, count[j], field, nc, mask, h, w, out + j * nc);
    }
}

/* Pointers into one cycle's arrays, each (H, W) channel contiguous. */
struct cycle {
    ptrdiff_t w;
    const float *u, *v0, *v1, *p0, *p1, *q0, *q1, *q2, *q3, *ub, *vb0, *vb1;
    const float *ex, *ey, *a_ex, *b_ex, *b_ey, *c_ey, *p_step, *u_step, *tau_u, *tau_v;
    const float *iu, *rho0, *u_omega;
    float *u_out, *v0_out, *v1_out, *p0_out, *p1_out, *q0_out, *q1_out, *q2_out, *q3_out;
    float *ub_out, *vb0_out, *vb1_out;
    float alpha0, alpha1, lam;
};

/* The cycle of an (h, w) level from `in` to `out`. `in` holds u, v, p, q,
 * u_bar, v_bar, then the operator's ex, ey, a_ex, b_ex, b_ey, c_ey, p_step,
 * u_step, tau_u, tau_v, then iu, rho0, u_omega; `out` the new u, v, p, q,
 * u_bar, v_bar, none of them overlapping an input. */
static struct cycle cycle_of(ptrdiff_t h, ptrdiff_t w, const float *const *in,
                             float *const *out, float alpha0, float alpha1, float lam)
{
    const ptrdiff_t hw = h * w;
    return (struct cycle){
        .w = w, .u = in[0], .v0 = in[1], .v1 = in[1] + hw, .p0 = in[2], .p1 = in[2] + hw,
        .q0 = in[3], .q1 = in[3] + hw, .q2 = in[3] + 2 * hw, .q3 = in[3] + 3 * hw,
        .ub = in[4], .vb0 = in[5], .vb1 = in[5] + hw,
        .ex = in[6], .ey = in[7], .a_ex = in[8], .b_ex = in[9], .b_ey = in[10],
        .c_ey = in[11], .p_step = in[12], .u_step = in[13], .tau_u = in[14],
        .tau_v = in[15], .iu = in[16], .rho0 = in[17], .u_omega = in[18],
        .u_out = out[0], .v0_out = out[1], .v1_out = out[1] + hw, .p0_out = out[2],
        .p1_out = out[2] + hw, .q0_out = out[3], .q1_out = out[3] + hw,
        .q2_out = out[3] + 2 * hw, .q3_out = out[3] + 3 * hw, .ub_out = out[4],
        .vb0_out = out[5], .vb1_out = out[5] + hw,
        .alpha0 = alpha0, .alpha1 = alpha1, .lam = lam,
    };
}

/* The factor by which a dual's norm is inflated before its projection, 4
 * units in the last place: enough to absorb the rounding of a 4-channel norm
 * and of the division (about 5 units of roundoff, 2.5 of FLT_EPSILON), so a
 * projected dual lies inside its unit ball. */
#define PROJECTION_SCALE (1.0f + 4 * FLT_EPSILON)

/* Scale (x0, x1) or (x0..x3) back into the unit ball: the norm, inflated by
 * PROJECTION_SCALE, divides where it exceeds 1 (and NaN stays NaN, as
 * np.maximum keeps it). */
ALWAYS_INLINE float ball_divisor(float sum_of_squares)
{
    const float n = sqrtf(sum_of_squares) * PROJECTION_SCALE;
    return n < 1 ? 1 : n;
}

/* The dual step at pixel k: p from K's first row, q from grad v_bar / 2,
 * each projected. has_x/has_y: pixel k has a right/lower neighbour. */
ALWAYS_INLINE void dual_px(const struct cycle *c, ptrdiff_t k, int has_x, int has_y)
{
    const ptrdiff_t w = c->w;
    float tg0 = 0, tg1 = 0, gx0 = 0, gy0 = 0, gx1 = 0, gy1 = 0;
    if (has_x) {
        const float d = c->ub[k + 1] - c->ub[k];
        tg0 = c->a_ex[k] * d;
        tg1 = c->b_ex[k] * d;
        /* (d * 0.5) * ex equals d * (0.5 * ex): ex is 0 or 1, 0.5 exact. */
        gx0 = ((c->vb0[k + 1] - c->vb0[k]) * 0.5f) * c->ex[k];
        gx1 = ((c->vb1[k + 1] - c->vb1[k]) * 0.5f) * c->ex[k];
    }
    if (has_y) {
        const float d = c->ub[k + w] - c->ub[k];
        tg0 = tg0 + c->b_ey[k] * d;
        tg1 = tg1 + c->c_ey[k] * d;
        gy0 = ((c->vb0[k + w] - c->vb0[k]) * 0.5f) * c->ey[k];
        gy1 = ((c->vb1[k + w] - c->vb1[k]) * 0.5f) * c->ey[k];
    }
    const float p0 = c->p0[k] + c->p_step[k] * (tg0 - c->vb0[k]);
    const float p1 = c->p1[k] + c->p_step[k] * (tg1 - c->vb1[k]);
    const float dp = ball_divisor(p0 * p0 + p1 * p1);
    c->p0_out[k] = p0 / dp;
    c->p1_out[k] = p1 / dp;

    const float q0 = gx0 + c->q0[k], q1 = gy0 + c->q1[k];
    const float q2 = gx1 + c->q2[k], q3 = gy1 + c->q3[k];
    const float dq = ball_divisor(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3);
    c->q0_out[k] = q0 / dq;
    c->q1_out[k] = q1 / dq;
    c->q2_out[k] = q2 / dq;
    c->q3_out[k] = q3 / dq;
}

/* One channel of the v step at pixel k: v += tau_v (alpha0 div q + alpha1 p),
 * and v_bar = 2 v - v_old as (v - v_old) + v. */
ALWAYS_INLINE void v_px(const struct cycle *c, ptrdiff_t k, int has_left, int has_up,
                        const float *qx, const float *qy, const float *p, const float *v,
                        float *v_out, float *vb_out)
{
    const ptrdiff_t w = c->w;
    float d = qx[k] * c->ex[k];
    if (has_left)
        d = d - qx[k - 1] * c->ex[k - 1];
    d = d + qy[k] * c->ey[k];
    if (has_up)
        d = d - qy[k - w] * c->ey[k - w];
    const float vn = v[k] + (d * c->alpha0 + p[k] * c->alpha1) * c->tau_v[k];
    v_out[k] = vn;
    vb_out[k] = (vn - v[k]) + vn;
}

/* The primal steps at pixel k, from the new p and q: u through div(T p) and
 * the data term's thresholding step, u_bar, then v and v_bar.
 * has_left/has_up: pixel k has a left/upper neighbour. */
ALWAYS_INLINE void primal_px(const struct cycle *c, ptrdiff_t k, int has_left, int has_up)
{
    const ptrdiff_t w = c->w;
    const float *p0 = c->p0_out, *p1 = c->p1_out;
    float d = c->a_ex[k] * p0[k] + c->b_ex[k] * p1[k];
    if (has_left)
        d = d - (c->a_ex[k - 1] * p0[k - 1] + c->b_ex[k - 1] * p1[k - 1]);
    d = d + (c->b_ey[k] * p0[k] + c->c_ey[k] * p1[k]);
    if (has_up)
        d = d - (c->b_ey[k - w] * p0[k - w] + c->c_ey[k - w] * p1[k - w]);
    const float u_hat = c->u[k] + c->u_step[k] * d;

    /* thresholding_step on the residual linearized at u_omega */
    const float iu = c->iu[k];
    const float rho = c->rho0[k] + (u_hat - c->u_omega[k]) * iu;
    const float clamp = c->tau_u[k] * c->lam * iu;
    const float th = clamp * iu;
    const float step = rho < -th ? clamp : rho > th ? -clamp : -(rho / iu);
    const float un = u_hat + (iu != 0 ? step : 0);
    c->u_out[k] = un;
    c->ub_out[k] = un + (un - c->u[k]);

    v_px(c, k, has_left, has_up, c->q0_out, c->q1_out, p0, c->v0, c->v0_out, c->vb0_out);
    v_px(c, k, has_left, has_up, c->q2_out, c->q3_out, p1, c->v1, c->v1_out, c->vb1_out);
}

/* The dual step on row r of an h-row level. The row's last pixel is peeled,
 * so the inner loop has no branch. */
ALWAYS_INLINE void dual_row(const struct cycle *c, ptrdiff_t h, ptrdiff_t r)
{
    const ptrdiff_t first = r * c->w, last = first + c->w - 1;
    if (r + 1 < h) {
#pragma GCC ivdep
        for (ptrdiff_t k = first; k < last; k++)
            dual_px(c, k, 1, 1);
        dual_px(c, last, 0, 1);
    } else {
#pragma GCC ivdep
        for (ptrdiff_t k = first; k < last; k++)
            dual_px(c, k, 1, 0);
        dual_px(c, last, 0, 0);
    }
}

/* The primal steps on row r, from the new p and q of rows r and r - 1. The
 * row's first pixel is peeled, so the inner loop has no branch. */
ALWAYS_INLINE void primal_row(const struct cycle *c, ptrdiff_t r)
{
    const ptrdiff_t first = r * c->w, last = first + c->w - 1;
    if (r > 0) {
        primal_px(c, first, 0, 1);
#pragma GCC ivdep
        for (ptrdiff_t k = first + 1; k <= last; k++)
            primal_px(c, k, 1, 1);
    } else {
        primal_px(c, first, 0, 0);
#pragma GCC ivdep
        for (ptrdiff_t k = first + 1; k <= last; k++)
            primal_px(c, k, 1, 0);
    }
}

/* Wait for the other bands of a warp step; no barrier means one band. */
static void await_bands(pthread_barrier_t *barrier)
{
    if (barrier)
        pthread_barrier_wait(barrier);
}

/* Rows [r0, r1) of cycle c on an h-row level. Row by row, the dual step runs
 * over the row, then the primal step, which needs the new p and q of this
 * row and the one above. The last row's dual step runs first, before the
 * barrier, so that the band below finds the row above its first. As no
 * output overlaps an input, no loop carries a dependence: `ivdep` says so,
 * and gcc vectorizes the loops without checking 37 pointers for overlap at
 * run time. c is a copy, which no store can alias. */
static void cycle_rows(struct cycle c, ptrdiff_t h, ptrdiff_t r0, ptrdiff_t r1,
                       pthread_barrier_t *barrier)
{
    const int rows = r0 < r1 && c.w > 0;
    if (rows)
        dual_row(&c, h, r1 - 1);
    await_bands(barrier);
    for (ptrdiff_t r = r0; rows && r < r1; r++) {
        if (r < r1 - 1)
            dual_row(&c, h, r);
        primal_row(&c, r);
    }
}

/* One cycle on an (h, w) level; `cycle_of` says what `in` and `out` hold. */
void pd_cycle(ptrdiff_t h, ptrdiff_t w, const float *const *in, float *const *out,
              float alpha0, float alpha1, float lam)
{
    cycle_rows(cycle_of(h, w, in, out, alpha0, alpha1, lam), h, 0, h, NULL);
}

/* The larger of a running maximum m and n, as np.max: NaN once either is. */
static double nan_max(double m, double n)
{
    return n > m || isnan(n) ? n : m;
}

/* The larger of m and the largest float64 norm over pixels [first, end) of
 * an (nc, hw) channel-first dual. */
static double max_norm(double m, const float *x, ptrdiff_t nc, ptrdiff_t hw,
                       ptrdiff_t first, ptrdiff_t end)
{
    for (ptrdiff_t k = first; k < end; k++) {
        double s = (double)x[k] * (double)x[k];
        for (ptrdiff_t ch = 1; ch < nc; ch++)
            s += (double)x[ch * hw + k] * (double)x[ch * hw + k];
        m = nan_max(m, sqrt(s));
    }
    return m;
}

/* The arrays of one level, in the order of `level` in warp_step. */
enum {
    L_I0, L_I1, L_TRAJ, L_MASK, L_TRAJ_VALID, L_MASK_COUNTS, L_TRAJ_COUNTS,
    L_OPERATOR, /* ex, ey, a_ex, b_ex, b_ey, c_ey, p_step, u_step, tau_u, tau_v */
    L_I1W = L_OPERATOR + 10, L_VALID, L_VALID_ROWS, L_VALID_COUNTS, L_IU, L_RHO0,
    L_DATA_OK, L_U32,
    L_STATES /* two sets of u, v, p, q, u_bar, v_bar */
};

#define MAX_BANDS 2

/* One warp_step call, shared by its bands. */
struct warp {
    ptrdiff_t h, w, pd_iters, cur, bands;
    void *const *level;
    double *u, *wv, *du, *dirs;
    int observe;
    float alpha0, alpha1, lam;
    double du_max;
    pthread_barrier_t *barrier; /* NULL with one band */
};

/* One band of a warp_step call, and what it leaves: the state set that holds
 * the duals after the warp, and the largest norms of p and q on its rows
 * over the cycles (from 0, as warp_step zeroes them). */
struct band {
    struct warp *warp;
    ptrdiff_t index, cur;
    double norms[2];
};

/* The warp step on the band's rows [h * index / bands, h * (index + 1) /
 * bands); see warp_step for the steps. */
static void *run_band(void *arg)
{
    struct band *b = arg;
    struct warp *wp = b->warp;
    const ptrdiff_t h = wp->h, w = wp->w, hw = h * w, bands = wp->bands;
    const ptrdiff_t r0 = h * b->index / bands, r1 = h * (b->index + 1) / bands;
    const ptrdiff_t first = r0 * w, end = r1 * w;
    void *const *level = wp->level;
    const double *i0 = level[L_I0], *i1 = level[L_I1], *traj = level[L_TRAJ];
    const uint8_t *mask = level[L_MASK], *traj_valid = level[L_TRAJ_VALID];
    const uint8_t *mask_counts = level[L_MASK_COUNTS];
    const uint8_t *traj_counts = level[L_TRAJ_COUNTS];
    double *i1w = level[L_I1W];
    uint8_t *valid = level[L_VALID], *valid_counts = level[L_VALID_COUNTS];
    uint8_t *data_ok = level[L_DATA_OK];
    float *iu = level[L_IU], *rho0 = level[L_RHO0], *u32 = level[L_U32];
    double *u = wp->u, *wv = wp->wv, *du = wp->du, *dirs = wp->dirs;
    const double du_max = wp->du_max;

    struct chunk c;
    int count[CHUNK], traj_count[CHUNK];
    for (ptrdiff_t r = r0; r < r1; r++) {
        for (ptrdiff_t col = 0; col < w; col += CHUNK) {
            const ptrdiff_t k0 = r * w + col;
            locate(&c, w - col < CHUNK ? w - col : CHUNK, wv + 2 * k0, 1, col, r, h, w);
            full_sums(&c, i1, 1, w, mask_counts, count, i1w + k0, 1);
            /* the directions' samples go to dirs, which they become */
            full_sums(&c, traj, 2, w, traj_counts, traj_count, dirs + 2 * k0, 2);
            for (int j = 0; j < c.n; j++) {
                const ptrdiff_t k = k0 + j;
                valid[k] = sample_at(&c, j, count[j], i1, 1, mask, h, w, i1w + k) && mask[k];
                const int sampled = sample_at(&c, j, traj_count[j], traj, 2, traj_valid, h, w,
                                              dirs + 2 * k);
                const double d0 = dirs[2 * k], d1 = dirs[2 * k + 1];
                const double norm = sqrt(d0 * d0 + d1 * d1);
                /* dir_ok, until step 2 makes it data_ok */
                data_ok[k] = sampled && mask[k] && norm > 0.5;
                dirs[2 * k] = data_ok[k] ? d0 / norm : 0.0;
                dirs[2 * k + 1] = data_ok[k] ? d1 / norm : 0.0;
                u32[k] = (float)u[k];
            }
        }
    }
    await_bands(wp->barrier);
    tap_count_rows(h, w, valid, level[L_VALID_ROWS], valid_counts,
                   (h + 5) * b->index / bands, (h + 5) * (b->index + 1) / bands);
    await_bands(wp->barrier);
    double ahead[CHUNK];
    for (ptrdiff_t r = r0; r < r1; r++) {
        for (ptrdiff_t col = 0; col < w; col += CHUNK) {
            const ptrdiff_t k0 = r * w + col;
            locate(&c, w - col < CHUNK ? w - col : CHUNK, dirs + 2 * k0, 1, col, r, h, w);
            full_sums(&c, i1w, 1, w, valid_counts, count, ahead, 1);
            for (int j = 0; j < c.n; j++) {
                const ptrdiff_t k = k0 + j;
                const int ok = sample_at(&c, j, count[j], i1w, 1, valid, h, w, ahead + j)
                               && valid[k];
                iu[k] = (float)(ok ? ahead[j] - i1w[k] : 0.0);
                data_ok[k] = ok && data_ok[k];
                rho0[k] = (float)(data_ok[k] ? i1w[k] - i0[k] : 0.0);
            }
        }
    }

    ptrdiff_t cur = wp->cur;
    for (ptrdiff_t it = 0; it < wp->pd_iters; it++) {
        const float *in[19];
        float *out[6];
        for (int a = 0; a < 6; a++) {
            in[a] = level[L_STATES + 6 * cur + a];
            out[a] = level[L_STATES + 6 * (1 - cur) + a];
        }
        if (it == 0) {
            in[0] = in[4] = u32;
            in[5] = in[1];
        }
        for (int a = 0; a < 10; a++)
            in[6 + a] = level[L_OPERATOR + a];
        in[16] = iu;
        in[17] = rho0;
        in[18] = u32;
        cycle_rows(cycle_of(h, w, in, out, wp->alpha0, wp->alpha1, wp->lam), h, r0, r1,
                   wp->barrier);
        cur = 1 - cur;
        if (wp->observe) {
            b->norms[0] = max_norm(b->norms[0], out[2], 2, hw, first, end);
            b->norms[1] = max_norm(b->norms[1], out[3], 4, hw, first, end);
        }
        await_bands(wp->barrier);
    }

    const float *u_new = level[L_STATES + 6 * cur];
    for (ptrdiff_t k = first; k < end; k++) {
        double step = (double)(u_new[k] - u32[k]);
        if (!isnan(step))
            step = step < -du_max ? -du_max : step > du_max ? du_max : step;
        du[k] = mask[k] ? step : 0.0;
        u[k] = u[k] + du[k];
        wv[2 * k] = wv[2 * k] + du[k] * dirs[2 * k];
        wv[2 * k + 1] = wv[2 * k + 1] + du[k] * dirs[2 * k + 1];
    }
    b->cur = cur;
    return NULL;
}

/* Two bands when the calling thread may run on two CPUs or more, else one. */
static ptrdiff_t band_count(void)
{
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return 1;
    return CPU_COUNT(&cpus) >= MAX_BANDS ? MAX_BANDS : 1;
}

/* One warp iteration of an (h, w) level, in place on u (h, w) and wv
 * (h, w, 2), both double.
 *
 * `level` holds, in the order of the enum above: i0 and i1 (double),
 * the trajectory directions traj (h, w, 2, double), the mask and traj's
 * valid map (uint8 0/1) and their tap-count maps; the operator (float);
 * then scratch: i1w (double), valid (uint8), the (h + 5, w) and
 * (h + 5, w + 5) tap-count buffers of valid, iu, rho0 (float), data_ok
 * (uint8), u32 (float), and two state sets (float) that the cycles use in
 * turn. `cur` is the set that holds the duals v, p, q; the return value is
 * the set that holds them after this warp.
 *
 * The steps are those of the NumPy loop it replaced, in its order and
 * precision:
 * 1. sample i1 (under mask) and traj (under traj_valid) at x + wv in one
 *    pass; renormalize the directions where traj's sample is valid, in the
 *    mask, and of norm above 0.5 (dir_ok), else set them to +0; u as float;
 * 2. I_u = i1w(x + dir) - i1w(x), sampled under valid = warp_ok & mask,
 *    where x and the sample ahead are valid, else +0; data_ok is that and
 *    dir_ok; rho0 = i1w - i0 on data_ok, else +0; then iu and rho0 as
 *    float;
 * 3. pd_iters cycles from (u32, v, p, q, u32, v);
 * 4. du = the cycles' u - u32 in double, clipped to +-du_max (NaN stays
 *    NaN; in double, as a float bound would round du_max up), +0 off the
 *    mask, where it is still added; u += du and wv += du * dir.
 * du (h, w) and dirs (h, w, 2) receive the increment and the directions.
 * With `norms` given, norms[0] and norms[1] receive the largest float64
 * norms of p and q over the cycles, as np.max over every pixel and cycle:
 * NaN once a dual is NaN. Each band takes the maximum over its rows; the
 * bands' maxima are combined once, after the join.
 *
 * Each band runs every step on its own rows (run_band); the bottom band
 * runs on a thread of its own, joined before the call returns. Should that
 * thread fail to start, one band runs them all. */
ptrdiff_t warp_step(ptrdiff_t h, ptrdiff_t w, ptrdiff_t pd_iters, void *const *level,
                    ptrdiff_t cur, double *u, double *wv, double *du, double *dirs,
                    double *norms, float alpha0, float alpha1, float lam, double du_max)
{
    struct warp wp = {
        .h = h, .w = w, .pd_iters = pd_iters, .cur = cur, .bands = band_count(),
        .level = level, .u = u, .wv = wv, .du = du, .dirs = dirs, .observe = norms != NULL,
        .alpha0 = alpha0, .alpha1 = alpha1, .lam = lam, .du_max = du_max,
    };
    struct band bands[MAX_BANDS] = {{.warp = &wp, .index = 0}, {.warp = &wp, .index = 1}};
    pthread_barrier_t barrier;
    pthread_t worker;
    if (wp.bands > 1 && pthread_barrier_init(&barrier, NULL, MAX_BANDS) == 0) {
        wp.barrier = &barrier;
        if (pthread_create(&worker, NULL, run_band, &bands[1]) != 0) {
            pthread_barrier_destroy(&barrier);
            wp.barrier = NULL;
        }
    }
    if (!wp.barrier)
        wp.bands = 1;
    run_band(&bands[0]);
    if (wp.barrier) {
        pthread_join(worker, NULL);
        pthread_barrier_destroy(&barrier);
    }
    for (int d = 0; norms && d < 2; d++) {
        norms[d] = bands[0].norms[d];
        for (ptrdiff_t s = 1; s < wp.bands; s++)
            norms[d] = nan_max(norms[d], bands[s].norms[d]);
    }
    return bands[0].cur;
}
