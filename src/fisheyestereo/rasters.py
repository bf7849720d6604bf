"""Masked raster primitives shared by the whole pipeline.

Conventions used throughout the package:

* images and scalar fields are float64 arrays of shape (H, W), intensities
  normalized to [0, 1] on load;
* precision: every raster this module returns, like every solver output, is
  float64, except that the difference kernels `forward_difference` (the
  differences of the solver's K in `LevelOperator.apply`) and its negative
  adjoint `backward_divergence` keep the dtype of their inputs; the
  primal-dual cycle's K* is compiled, in `kernels.c`;
* vector fields are (H, W, 2) with channel order (x, y);
* a position is continuous (x, y) with pixel centers at integer coordinates,
  so position (j, i) is the center of ``field[i, j]``;
* validity masks are boolean (H, W); masked-out pixels never contribute to
  interpolation, differential operators, or statistics.

The discrete gradient uses forward differences with a Neumann condition
across the mask boundary; divergence is its negative adjoint (backward
differences, fields treated as zero outside the mask), which makes the
summation-by-parts identity exact and testable.

`sample_bicubic`, the masked bicubic sampler every warp goes through, is the
compiled `kernels.sample_bicubic`; its docstring holds the fallback chain.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.ndimage import gaussian_filter

from .kernels import sample_bicubic
from .schema import COUNT


@lru_cache(maxsize=16)
def pixel_grid(height: int, width: int) -> np.ndarray:
    """(H, W, 2) array of pixel-center positions (x, y), shared per shape, read-only."""
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    grid = np.stack([xs, ys], axis=-1)
    grid.flags.writeable = False
    return grid


def vector_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: the bits of np.linalg.norm(x,
    axis=-1), which sums the squares left to right, at a fraction of its
    cost on short vectors."""
    s = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        s += x[..., k] * x[..., k]
    return np.sqrt(s)


def warp_image(image: np.ndarray, w: np.ndarray,
               mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample `image` (scalar or vector field) at x + w(x) with masked bicubic taps,
    x on the pixel grid of `w`; returns (warped, valid), zero where invalid."""
    vals, ok = sample_bicubic(image, pixel_grid(*w.shape[:2]) + w, mask)
    return np.where(ok if vals.ndim == 2 else ok[..., None], vals, 0.0), ok


def edge_indicators(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float 0/1 maps of the x/y forward edges with both ends inside the mask."""
    m = np.asarray(mask, dtype=bool)
    ex = np.zeros(m.shape)
    ey = np.zeros(m.shape)
    ex[:, :-1] = m[:, :-1] & m[:, 1:]
    ey[:-1, :] = m[:-1, :] & m[1:, :]
    return ex, ey


def forward_difference(f: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Forward differences of float fields (..., H, W) as (..., 2, H, W), channels
    (d/dx, d/dy), each multiplied by its edge weight, `ex` or `ey`, and zero on
    the last column or row; in the dtype of the inputs. With the 0/1 maps of
    `edge_indicators`, edges leaving the mask are zeroed."""
    g = np.empty(f.shape[:-2] + (2,) + f.shape[-2:], dtype=np.result_type(f, ex, ey))
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
    mx, my = p[..., 0, :, :] * ex, p[..., 1, :, :] * ey
    div = np.empty(mx.shape, dtype=np.result_type(mx, my))
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


def pyramid_shapes(height: int, width: int, levels: int,
                   min_width: int) -> list[tuple[int, int]]:
    """Level shapes finest-first, each half the one before (rounded up); the
    chain stops at `levels` shapes, before a width below `min_width`, and
    before a shape that no longer shrinks (1 halves to 1)."""
    levels, min_width = COUNT(levels, "levels"), COUNT(min_width, "min_width")
    shapes = [(height, width)]
    while len(shapes) < levels:
        h, w = shapes[-1]
        nh, nw = (h + 1) // 2, (w + 1) // 2
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
                  min_width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Coarse-to-fine pyramid of an (H, W, C) `field` with in-mask area averaging.

    Returns one (field, mask) pair per level, coarsest first; the last pair is
    the input itself, as float64 and bool.
    """
    shapes = pyramid_shapes(mask.shape[0], mask.shape[1], levels, min_width)
    pyr = [(np.asarray(field, dtype=np.float64), np.asarray(mask, dtype=bool))]
    for shape in shapes[1:]:
        pyr.append(downsample_area(*pyr[-1], shape))
    return pyr[::-1]


def upsample_state(u: np.ndarray, w: np.ndarray, mask: np.ndarray,
                   dst_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carry disparity and warp vectors to the next finer pyramid level,
    whose shape and mask are `dst_mask`'s.

    Values are sampled bicubically from in-mask source pixels only and scaled
    to pixel units of the finer level: w by S = diag(sx, sy), and u (its arc
    length) by |S w| / |w|, or by the mean ratio (sx + sy) / 2 where w = 0.
    """
    sh, sw = mask.shape
    dh, dw = dst_mask.shape
    sx = dw / sw
    sy = dh / sh
    src_pos = (pixel_grid(dh, dw) + 0.5) / (sx, sy) - 0.5
    uw, ok = sample_bicubic(np.concatenate([u[:, :, None], w], axis=-1), src_pos, mask)
    ok &= dst_mask
    u_f, w_f = uw[:, :, 0], np.where(ok[:, :, None], uw[:, :, 1:], 0.0)
    w_s = w_f * (sx, sy)
    before = vector_norm(w_f)
    scale = np.divide(vector_norm(w_s), before,
                      out=np.full(before.shape, 0.5 * (sx + sy)), where=before > 0)
    return np.where(ok, u_f, 0.0) * scale, w_s
