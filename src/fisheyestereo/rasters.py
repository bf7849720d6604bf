"""Masked raster primitives shared by the whole pipeline.

Conventions used throughout the package:

* images and scalar fields are float64 arrays of shape (H, W), intensities
  normalized to [0, 1] on load;
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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import gaussian_filter

# Catmull-Rom taps reproduce constants and affine ramps exactly and are
# interpolating (weight 1 at the node), which the downstream warping relies on.
_TAP_OFFSETS = (-1, 0, 1, 2)


@lru_cache(maxsize=16)
def pixel_grid(height: int, width: int) -> np.ndarray:
    """(H, W, 2) array of pixel-center positions (x, y), shared per shape, read-only."""
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    grid = np.stack([xs, ys], axis=-1)
    grid.flags.writeable = False
    return grid


def circular_mask(height: int, width: int, center: tuple[float, float],
                  radius: float) -> np.ndarray:
    """Boolean disc of given center (x, y) and radius in pixels."""
    g = pixel_grid(height, width)
    return (g[:, :, 0] - center[0]) ** 2 + (g[:, :, 1] - center[1]) ** 2 <= radius ** 2


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
    """In-image, in-mask taps of the 4x4 stencil at every floor (ix, iy).

    Entry [iy + 2, ix + 2] counts the taps of the stencil whose floor is
    (ix, iy), for ix in [-2, W] and iy in [-2, H]; every other floor has no
    tap in the image.
    """
    h, w = mask.shape
    csum = np.zeros((h + 7, w + 7), dtype=np.int32)
    csum[4:-3, 4:-3] = mask
    csum = csum.cumsum(axis=0).cumsum(axis=1)
    return csum[4:, 4:] - csum[:-4, 4:] - csum[4:, :-4] + csum[:-4, :-4]


def sample_bicubic(field: np.ndarray, pos: np.ndarray,
                   mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample `field` at continuous positions using only in-mask taps.

    Fallback chain per position: full 16-tap bicubic when every tap is valid,
    else bilinear renormalized over the valid inner 2x2 taps, else the nearest
    valid tap of the stencil. Positions whose whole stencil is invalid (or
    that are not finite) return NaN with a False validity flag.

    Each position is classified first, by a lookup at (floor x, floor y) in a
    per-mask map of valid taps per stencil: full stencils take the 16-tap
    Catmull-Rom sum, gathered by flat index; empty ones are NaN at once; only
    the rim positions left over run the bilinear/nearest chain. Every class
    accumulates its taps in the order of the chain, so the results are those
    of evaluating the whole chain at every position.

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
    data = np.asarray(field, dtype=np.float64)
    squeeze = data.ndim == 2
    if squeeze:
        data = data[:, :, None]
    h, w, nc = data.shape
    pos = np.asarray(pos, dtype=np.float64)
    out_shape = pos.shape[:-1]
    x = pos[..., 0].ravel()
    y = pos[..., 1].ravel()
    n = x.size
    mask = np.asarray(mask, dtype=bool)

    with np.errstate(invalid="ignore"):
        fx0 = np.floor(x)
        fy0 = np.floor(y)
        near = np.flatnonzero((fx0 >= -2) & (fx0 <= w) & (fy0 >= -2) & (fy0 <= h))
    ix = fx0[near].astype(np.int64)
    iy = fy0[near].astype(np.int64)
    count = _stencil_tap_counts(mask)[iy + 2, ix + 2]
    full = count == 16
    rim = (count > 0) & ~full

    values = np.full((n, nc), np.nan)
    valid = np.zeros(n, dtype=bool)
    valid[near[count > 0]] = True
    sel = near[full]
    values[sel] = _cubic_full(data, x[sel], y[sel], ix[full], iy[full])
    sel = near[rim]
    values[sel] = _rim_chain(data, mask, x[sel], y[sel], ix[rim], iy[rim])

    values = values.reshape(out_shape + (nc,))
    if squeeze:
        values = values[..., 0]
    return values, valid.reshape(out_shape)


def warp_image(image: np.ndarray, w: np.ndarray,
               mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample `image` (scalar or vector field) at x + w(x) with masked bicubic taps,
    x on the pixel grid of `w`; returns (warped, valid), zero where invalid."""
    vals, ok = sample_bicubic(image, pixel_grid(*w.shape[:2]) + w, mask)
    return np.where(ok if vals.ndim == 2 else ok[..., None], vals, 0.0), ok


def _cubic_full(data, x, y, ix, iy):
    """16-tap Catmull-Rom sum at positions whose taps are all valid."""
    h, w, nc = data.shape
    wx = _cubic_weights(x - ix)
    wy = _cubic_weights(y - iy)
    corner = (iy - 1) * w + (ix - 1)
    channels = [np.ascontiguousarray(data[:, :, k]).ravel() for k in range(nc)]
    accs = [np.zeros(x.size) for _ in range(nc)]
    for a in range(4):
        row = corner + a * w
        for b in range(4):
            weight = wy[a] * wx[b]
            idx = row + b
            for channel, acc in zip(channels, accs):
                acc += weight * channel.take(idx)
    return np.stack(accs, axis=-1)


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


def forward_difference(f: np.ndarray, ex: np.ndarray,
                       ey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences (d/dx, d/dy) of a float field, zeroed on the edges
    that `edge_indicators` marks as leaving the mask."""
    gx = np.zeros(f.shape)
    gy = np.zeros(f.shape)
    np.subtract(f[:, 1:], f[:, :-1], out=gx[:, :-1])
    gx[:, :-1] *= ex[:, :-1]
    np.subtract(f[1:, :], f[:-1, :], out=gy[:-1, :])
    gy[:-1, :] *= ey[:-1, :]
    return gx, gy


def backward_divergence(px: np.ndarray, py: np.ndarray, ex: np.ndarray,
                        ey: np.ndarray) -> np.ndarray:
    """Backward-difference divergence of (px, py), the negative adjoint of
    `forward_difference`: components on edges leaving the mask count as zero."""
    mx = px * ex
    my = py * ey
    div = np.empty(mx.shape)
    div[:, 0] = mx[:, 0]
    np.subtract(mx[:, 1:], mx[:, :-1], out=div[:, 1:])
    div += my
    div[1:, :] -= my[:-1, :]
    return div


def gradient(field: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Forward-difference gradient, Neumann across mask/image boundary.

    Returns (H, W, 2) with channels (d/dx, d/dy); components vanish wherever
    the forward neighbor leaves the mask.
    """
    ex, ey = edge_indicators(mask)
    return np.stack(forward_difference(np.asarray(field, dtype=np.float64), ex, ey),
                    axis=-1)


def divergence(field: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, the negative adjoint of `gradient`.

    Vector entries on edges leaving the mask are treated as zero (Dirichlet),
    so <grad u, p> + <u, div p> = 0 holds exactly for any u, p.
    """
    p = np.asarray(field, dtype=np.float64)
    ex, ey = edge_indicators(mask)
    return backward_divergence(p[:, :, 0], p[:, :, 1], ex, ey)


def smooth_masked(field: np.ndarray, mask: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing by normalized convolution over in-mask pixels."""
    m = mask.astype(np.float64)
    num = gaussian_filter(np.asarray(field, dtype=np.float64) * m, sigma)
    den = gaussian_filter(m, sigma)
    out = np.where(mask, num / np.maximum(den, 1e-12), 0.0)
    return out


@dataclass
class Pyramid:
    """Image pyramid, levels ordered coarsest to finest."""

    fields: list[np.ndarray]
    masks: list[np.ndarray]

    @property
    def num_levels(self) -> int:
        return len(self.fields)


def pyramid_shapes(height: int, width: int, levels: int, scale: float,
                   min_width: int) -> list[tuple[int, int]]:
    """Level shapes finest-first, truncated so the coarsest width >= min_width."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if scale <= 1.0:
        raise ValueError("scale must be > 1")
    shapes = [(height, width)]
    while len(shapes) < levels:
        h, w = shapes[-1]
        nh, nw = int(np.ceil(h / scale)), int(np.ceil(w / scale))
        if nw < min_width:
            break
        shapes.append((nh, nw))
    return shapes


def _bin_indices(n_fine: int, n_coarse: int) -> np.ndarray:
    return (np.arange(n_fine, dtype=np.int64) * n_coarse) // n_fine


def downsample_area(field: np.ndarray, mask: np.ndarray,
                    shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Area-average `field` over in-mask pixels onto `shape`; mask via nearest."""
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

    if f.ndim == 2:
        out = avg(f)
    else:
        out = np.stack([avg(f[:, :, k]) for k in range(f.shape[2])], axis=-1)

    # Nearest-neighbor mask, pinned to the fine sample closest to each
    # coarse pixel center.
    rr = np.clip(np.rint((np.arange(ch) + 0.5) * fh / ch - 0.5).astype(np.int64), 0, fh - 1)
    cc = np.clip(np.rint((np.arange(cw) + 0.5) * fw / cw - 0.5).astype(np.int64), 0, fw - 1)
    cmask = mask[rr[:, None], cc[None, :]]
    cmask &= cnt.reshape(ch, cw) > 0
    if f.ndim == 2:
        out = np.where(cmask, out, 0.0)
    else:
        out = np.where(cmask[:, :, None], out, 0.0)
    return out, cmask


def build_pyramid(field: np.ndarray, mask: np.ndarray, levels: int,
                  scale: float, min_width: int = 50) -> Pyramid:
    """Coarse-to-fine pyramid with in-mask area averaging per level."""
    shapes = pyramid_shapes(mask.shape[0], mask.shape[1], levels, scale, min_width)
    fields = [np.asarray(field, dtype=np.float64)]
    masks = [np.asarray(mask, dtype=bool)]
    for shape in shapes[1:]:
        f, m = downsample_area(fields[-1], masks[-1], shape)
        fields.append(f)
        masks.append(m)
    return Pyramid(fields=fields[::-1], masks=masks[::-1])


def upsample_state(u: np.ndarray, w: np.ndarray, mask: np.ndarray,
                   dst_shape: tuple[int, int],
                   dst_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Carry disparity and warp vectors to the next finer pyramid level.

    Values are sampled bicubically from in-mask source pixels only and scaled
    to pixel units of the finer level: w by S = diag(sx, sy), and u (its arc
    length) by |S w| / |w|, or by the mean ratio where w = 0 or sx == sy.
    """
    sh, sw = mask.shape
    dh, dw = dst_shape
    sx = dw / sw
    sy = dh / sh
    src_pos = (pixel_grid(dh, dw) + 0.5) / (sx, sy) - 0.5
    u_f, u_ok = sample_bicubic(u, src_pos, mask)
    w_f, w_ok = sample_bicubic(w, src_pos, mask)
    w_f = np.where((w_ok & dst_mask)[:, :, None], w_f, 0.0)
    w_s = w_f * (sx, sy)
    scale = 0.5 * (sx + sy)
    if sx != sy:
        before = np.linalg.norm(w_f, axis=-1)
        scale = np.divide(np.linalg.norm(w_s, axis=-1), before,
                          out=np.full(before.shape, scale), where=before > 0)
    return np.where(u_ok & dst_mask, u_f, 0.0) * scale, w_s
