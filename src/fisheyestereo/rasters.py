"""Masked raster primitives shared by the whole pipeline.

Conventions used throughout the package:

* images and scalar fields are float64 arrays of shape (H, W), intensities
  normalized to [0, 1] on load;
* precision: every raster this module returns, like every solver output, is
  float64, except that the difference kernels `forward_difference`,
  `backward_divergence` and `edge_divergence` (the solver's K and K*) keep
  the dtype of their inputs; the solver runs its primal-dual state through
  them in float32;
* vector fields are (H, W, 2) with channel order (x, y);
* a position is continuous (x, y) with pixel centers at integer coordinates,
  so position (j, i) is the center of ``field[i, j]``;
* validity masks are boolean (H, W); masked-out pixels never contribute to
  interpolation, differential operators, or statistics.

The discrete gradient uses forward differences with a Neumann condition
across the mask boundary; divergence is its negative adjoint (backward
differences, fields treated as zero outside the mask), which makes the
summation-by-parts identity exact and testable.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np
from scipy.ndimage import gaussian_filter

from .schema import ABOVE_ONE, COUNT

# Catmull-Rom taps reproduce constants and affine ramps exactly and are
# interpolating (weight 1 at the node), which the downstream warping relies on.
_TAP_OFFSETS = (-1, 0, 1, 2)
# Positions per chunk of the 16-tap sum: a chunk's weights, indices and
# accumulators (about 15 arrays of 8-byte entries, 2 MB) fit a core's L2 cache.
_CUBIC_CHUNK = 16384


@lru_cache(maxsize=16)
def pixel_grid(height: int, width: int) -> np.ndarray:
    """(H, W, 2) array of pixel-center positions (x, y), shared per shape, read-only."""
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    grid = np.stack([xs, ys], axis=-1)
    grid.flags.writeable = False
    return grid


def _cubic_weights(f: np.ndarray) -> list[np.ndarray]:
    """Catmull-Rom weights for taps at offsets -1..2, fractional part f."""
    f2 = f * f
    f3 = f2 * f
    return [
        -0.5 * f + f2 - 0.5 * f3,
        1.0 - 2.5 * f2 + 1.5 * f3,
        0.5 * f + 2.0 * f2 - 1.5 * f3,
        -0.5 * f2 + 0.5 * f3,
    ]


def _stencil_tap_counts(mask: np.ndarray) -> np.ndarray:
    """In-image, in-mask taps of the 4x4 stencil at every floor (ix, iy), as uint8.

    Entry [iy + 3, ix + 3] counts the taps of the stencil whose floor is
    (ix, iy), for ix in [-3, W + 1] and iy in [-3, H + 1]: four shifted
    sums of the zero-padded mask along each axis. The outer ring of floors
    (-3 and W + 1, or H + 1) has no tap in the image, and neither has any
    floor beyond it.
    """
    h, w = mask.shape
    padded = np.zeros((h + 8, w + 8), dtype=np.uint8)
    padded[4:-4, 4:-4] = mask
    rows = padded[:-3] + padded[1:-2] + padded[2:-1] + padded[3:]
    return rows[:, :-3] + rows[:, 1:-2] + rows[:, 2:-1] + rows[:, 3:]


def sample_bicubic(field: np.ndarray, pos: np.ndarray,
                   mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample `field` at continuous positions using only in-mask taps.

    Fallback chain per position: full 16-tap bicubic when every tap is valid,
    else bilinear renormalized over the valid inner 2x2 taps, else the nearest
    valid tap of the stencil. Positions whose whole stencil is invalid (or
    that are not finite) return NaN with a False validity flag.

    This is `sample_bicubic_many` with one (field, mask) pair.

    Parameters
    ----------
    field : (H, W) or (H, W, C) array
    pos : (..., 2) array of (x, y) positions
    mask : (H, W) boolean validity mask

    Returns
    -------
    values : (...,) or (..., C) array, NaN where invalid
    valid : (...) boolean array
    """
    return sample_bicubic_many([(field, mask)], pos)[0]


def sample_bicubic_many(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                        pos: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sample each (field, mask) pair of `pairs` at the same positions, in one pass.

    Returns one (values, valid) per pair, exactly what
    `sample_bicubic(field, pos, mask)` returns; every field has the shape of
    the first mask. The positions' floors, fractions and flat indices are
    computed once. Floors are clipped into [-3, W + 1] x [-3, H + 1] (NaN to
    -3), where every floor outside the image's reach has no tap, and the
    16-tap Catmull-Rom sum runs at every position for the channels of all
    fields together. Each pair then reads its own mask's map of valid taps
    per stencil (`_stencil_tap_counts`) with one `take`: a full stencil (16
    taps) keeps the sum, an empty one (0) is NaN and invalid, and only the
    rim positions left over run the bilinear/nearest chain. Every class
    accumulates its taps in the order of the chain, so the results are those
    of evaluating the whole chain at every position.
    """
    pos = np.asarray(pos, dtype=np.float64)
    xy = pos.reshape(-1, 2)
    datas = [np.asarray(field, dtype=np.float64) for field, _ in pairs]
    masks = [np.asarray(mask, dtype=bool) for _, mask in pairs]
    h, w = masks[0].shape
    ix, fx = _floor_and_fraction(xy[:, 0], w)
    iy, fy = _floor_and_fraction(xy[:, 1], h)

    channels = [[np.ascontiguousarray(d[:, :, k]).ravel() for k in range(d.shape[2])]
                if d.ndim == 3 else [d.ravel()] for d in datas]
    sums = [np.empty((ix.size, len(c))) for c in channels]
    # Only an image of at least 4 x 4 pixels has full stencils. The sums at
    # other stencils (and at non-finite positions) are overwritten below.
    if h >= 4 and w >= 4:
        with np.errstate(invalid="ignore", over="ignore"):
            _cubic_full([c for cs in channels for c in cs], ix, iy, fx, fy, h, w,
                        [s[:, k] for s in sums for k in range(s.shape[1])])
    stencil = (iy + 3) * (w + 5) + (ix + 3)
    out = []
    for data, mask, values in zip(datas, masks, sums):
        count = _stencil_tap_counts(mask).take(stencil)
        valid = count > 0
        values[~valid] = np.nan
        rim = np.flatnonzero(valid & (count < 16))
        values[rim] = _rim_chain(data.reshape(h, w, -1), mask, xy[rim, 0], xy[rim, 1],
                                 ix[rim], iy[rim])
        values = values.reshape(pos.shape[:-1] + values.shape[1:])
        out.append((values[..., 0] if data.ndim == 2 else values,
                    valid.reshape(pos.shape[:-1])))
    return out


def _floor_and_fraction(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Floors of `x` clipped into [-3, n + 1] (NaN to -3) as indices, and the
    fractions x - floor(x) of the unclipped floors (NaN where x is not finite)."""
    with np.errstate(invalid="ignore"):
        floor = np.floor(x)
        frac = x - floor
    return np.fmin(np.fmax(floor, -3), n + 1).astype(np.intp), frac


def warp_image(image: np.ndarray, w: np.ndarray,
               mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample `image` (scalar or vector field) at x + w(x) with masked bicubic taps,
    x on the pixel grid of `w`; returns (warped, valid), zero where invalid."""
    vals, ok = sample_bicubic(image, pixel_grid(*w.shape[:2]) + w, mask)
    return np.where(ok if vals.ndim == 2 else ok[..., None], vals, 0.0), ok


def _cubic_full(channels, ix, iy, fx, fy, h, w, outs):
    """16-tap Catmull-Rom sums of each flat channel of an (h, w) image, written
    into `outs`, at every floor (ix, iy) with fractions (fx, fy).

    Each stencil's top-left tap is clamped into the image, so that every tap
    is read from it; that moves only stencils with a tap outside the image,
    which are not full. Positions are summed in chunks of `_CUBIC_CHUNK`, so
    the weights, flat indices and accumulators of a chunk stay in cache; each
    position's arithmetic is the same whatever the chunk size or the number
    of channels.
    """
    for start in range(0, ix.size, _CUBIC_CHUNK):
        c = slice(start, start + _CUBIC_CHUNK)
        wx = _cubic_weights(fx[c])
        wy = _cubic_weights(fy[c])
        top_left = (np.clip(iy[c], 1, h - 3) - 1) * w + (np.clip(ix[c], 1, w - 3) - 1)
        accs = [np.zeros(top_left.size) for _ in channels]
        for a in range(4):
            for b in range(4):
                weight = wy[a] * wx[b]
                # Tap (a, b) of every stencil, read through a view that
                # starts a rows and b columns after the top-left tap.
                for channel, acc in zip(channels, accs):
                    acc += weight * channel[a * w + b:].take(top_left)
        for out, acc in zip(outs, accs):
            out[c] = acc


def _rim_chain(data, mask, x, y, ix, iy):
    """Bilinear over the valid inner 2x2 taps, else the nearest valid tap."""
    h, w, nc = data.shape
    n = x.size
    fx = x - ix
    fy = y - iy
    bilin_acc = np.zeros((n, nc))
    bilin_wsum = np.zeros(n)
    near_val = np.zeros((n, nc))
    near_d2 = np.full(n, np.inf)
    for dy in _TAP_OFFSETS:
        r = iy + dy
        rk = np.clip(r, 0, h - 1)
        r_in = (r >= 0) & (r < h)
        for dx in _TAP_OFFSETS:
            c = ix + dx
            ck = np.clip(c, 0, w - 1)
            ok = r_in & (c >= 0) & (c < w)
            ok &= mask[rk, ck]
            v = np.where(ok[:, None], data[rk, ck], 0.0)
            if dy in (0, 1) and dx in (0, 1):
                bw = (fy if dy == 1 else 1.0 - fy) * (fx if dx == 1 else 1.0 - fx)
                bw = np.where(ok, bw, 0.0)
                bilin_acc += bw[:, None] * v
                bilin_wsum += bw
            d2 = (dx - fx) ** 2 + (dy - fy) ** 2
            closer = ok & (d2 < near_d2)
            near_d2 = np.where(closer, d2, near_d2)
            near_val = np.where(closer[:, None], v, near_val)
    return np.where((bilin_wsum > 1e-12)[:, None],
                    bilin_acc / np.maximum(bilin_wsum, 1e-300)[:, None], near_val)


def edge_indicators(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float 0/1 maps of the x/y forward edges with both ends inside the mask."""
    m = np.asarray(mask, dtype=bool)
    ex = np.zeros(m.shape)
    ey = np.zeros(m.shape)
    ex[:, :-1] = m[:, :-1] & m[:, 1:]
    ey[:-1, :] = m[:-1, :] & m[1:, :]
    return ex, ey


def forward_difference(f: np.ndarray, ex: np.ndarray, ey: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Forward differences of float fields (..., H, W) as (..., 2, H, W), channels
    (d/dx, d/dy), each multiplied by its edge weight, `ex` or `ey`, and zero on
    the last column or row; in the dtype of the inputs. With the 0/1 maps of
    `edge_indicators`, edges leaving the mask are zeroed. `out`, when given,
    receives the result and is the only array written; it must not overlap
    the inputs."""
    g = np.empty(f.shape[:-2] + (2,) + f.shape[-2:],
                 dtype=np.result_type(f, ex, ey)) if out is None else out
    gx, gy = g[..., 0, :, :], g[..., 1, :, :]
    np.subtract(f[..., :, 1:], f[..., :, :-1], out=gx[..., :, :-1])
    gx[..., :, :-1] *= ex[:, :-1]
    gx[..., :, -1] = 0.0
    np.subtract(f[..., 1:, :], f[..., :-1, :], out=gy[..., :-1, :])
    gy[..., :-1, :] *= ey[:-1, :]
    gy[..., -1, :] = 0.0
    return g


def backward_divergence(p: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Backward-difference divergence of (..., 2, H, W) fields as (..., H, W), the
    negative adjoint of `forward_difference`: components on edges leaving the
    mask count as zero. In the dtype of the inputs."""
    return edge_divergence(p[..., 0, :, :] * ex, p[..., 1, :, :] * ey)


def edge_divergence(mx: np.ndarray, my: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Backward-difference divergence of edge components (..., H, W) that are
    already zero on the edges leaving the mask (see `backward_divergence`).
    `out`, when given, receives the result and is the only array written; it
    must not overlap `mx` or `my`."""
    div = np.empty(mx.shape, dtype=np.result_type(mx, my)) if out is None else out
    div[..., :, 0] = mx[..., :, 0]
    np.subtract(mx[..., :, 1:], mx[..., :, :-1], out=div[..., :, 1:])
    div += my
    div[..., 1:, :] -= my[..., :-1, :]
    return div


def gradient(field: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Forward-difference gradient, Neumann across mask/image boundary.

    Returns (H, W, 2) with channels (d/dx, d/dy); components vanish wherever
    the forward neighbor leaves the mask.
    """
    ex, ey = edge_indicators(mask)
    return np.moveaxis(forward_difference(np.asarray(field, dtype=np.float64), ex, ey), 0, -1)


def divergence(field: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, the negative adjoint of `gradient`.

    Vector entries on edges leaving the mask are treated as zero (Dirichlet),
    so <grad u, p> + <u, div p> = 0 holds exactly for any u, p.
    """
    ex, ey = edge_indicators(mask)
    return backward_divergence(np.moveaxis(np.asarray(field, dtype=np.float64), -1, 0), ex, ey)


def smooth_masked(field: np.ndarray, mask: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing by normalized convolution over in-mask pixels."""
    m = mask.astype(np.float64)
    num = gaussian_filter(np.asarray(field, dtype=np.float64) * m, sigma)
    den = gaussian_filter(m, sigma)
    out = np.where(mask, num / np.maximum(den, 1e-12), 0.0)
    return out


def pyramid_shapes(height: int, width: int, levels: int, scale: float,
                   min_width: int) -> list[tuple[int, int]]:
    """Level shapes finest-first, each `scale` times smaller (rounded up) than
    the one before; the chain stops at `levels` shapes, before a width below
    `min_width`, and before a shape that no longer shrinks."""
    levels, scale = COUNT(levels, "levels"), ABOVE_ONE(scale, "scale")
    min_width = COUNT(min_width, "min_width")
    shapes = [(height, width)]
    while len(shapes) < levels:
        h, w = shapes[-1]
        nh, nw = int(np.ceil(h / scale)), int(np.ceil(w / scale))
        if nw < min_width or (nh, nw) == (h, w):
            break
        shapes.append((nh, nw))
    return shapes


def _bin_indices(n_fine: int, n_coarse: int) -> np.ndarray:
    return (np.arange(n_fine, dtype=np.int64) * n_coarse) // n_fine


def downsample_area(field: np.ndarray, mask: np.ndarray,
                    shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Area-average each channel of an (H, W, C) `field` over in-mask pixels
    onto `shape`; mask via nearest."""
    f = np.asarray(field, dtype=np.float64)
    ch, cw = shape
    fh, fw = mask.shape
    ri = _bin_indices(fh, ch)
    ci = _bin_indices(fw, cw)
    flat_bin = (ri[:, None] * cw + ci[None, :]).ravel()
    mflat = mask.astype(np.float64).ravel()
    cnt = np.bincount(flat_bin, weights=mflat, minlength=ch * cw)

    def avg(channel: np.ndarray) -> np.ndarray:
        s = np.bincount(flat_bin, weights=(channel * mask).ravel(),
                        minlength=ch * cw)
        return (s / np.maximum(cnt, 1.0)).reshape(ch, cw)

    out = np.stack([avg(f[:, :, k]) for k in range(f.shape[2])], axis=-1)

    # Nearest-neighbor mask, pinned to the fine sample closest to each
    # coarse pixel center.
    rr = np.clip(np.rint((np.arange(ch) + 0.5) * fh / ch - 0.5).astype(np.int64), 0, fh - 1)
    cc = np.clip(np.rint((np.arange(cw) + 0.5) * fw / cw - 0.5).astype(np.int64), 0, fw - 1)
    cmask = mask[rr[:, None], cc[None, :]]
    cmask &= cnt.reshape(ch, cw) > 0
    return np.where(cmask[:, :, None], out, 0.0), cmask


def build_pyramid(field: np.ndarray, mask: np.ndarray, levels: int,
                  scale: float, min_width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Coarse-to-fine pyramid of an (H, W, C) `field` with in-mask area averaging.

    Returns one (field, mask) pair per level, coarsest first; the last pair is
    the input itself, as float64 and bool.
    """
    shapes = pyramid_shapes(mask.shape[0], mask.shape[1], levels, scale, min_width)
    pyr = [(np.asarray(field, dtype=np.float64), np.asarray(mask, dtype=bool))]
    for shape in shapes[1:]:
        pyr.append(downsample_area(*pyr[-1], shape))
    return pyr[::-1]


def upsample_state(u: np.ndarray, w: np.ndarray, mask: np.ndarray,
                   dst_shape: tuple[int, int],
                   dst_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carry disparity and warp vectors to the next finer pyramid level.

    Values are sampled bicubically from in-mask source pixels only and scaled
    to pixel units of the finer level: w by S = diag(sx, sy), and u (its arc
    length) by |S w| / |w|, or by the mean ratio (sx + sy) / 2 where w = 0.
    """
    sh, sw = mask.shape
    dh, dw = dst_shape
    sx = dw / sw
    sy = dh / sh
    src_pos = (pixel_grid(dh, dw) + 0.5) / (sx, sy) - 0.5
    uw, ok = sample_bicubic(np.concatenate([u[:, :, None], w], axis=-1), src_pos, mask)
    ok &= dst_mask
    u_f, w_f = uw[:, :, 0], np.where(ok[:, :, None], uw[:, :, 1:], 0.0)
    w_s = w_f * (sx, sy)
    before = np.linalg.norm(w_f, axis=-1)
    scale = np.divide(np.linalg.norm(w_s, axis=-1), before,
                      out=np.full(before.shape, 0.5 * (sx + sy)), where=before > 0)
    return np.where(ok, u_f, 0.0) * scale, w_s
