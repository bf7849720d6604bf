"""Calibration and trajectory fields for curved epipolar geometry.

The calibration field is the rotation-only optical flow between the two
cameras (translation forced to zero); warping the second image by it once
leaves a translation-only rig, after which the per-pixel unit tangent of the
epipolar curve is the direction of the vanishing-translation flow. Tracking
correspondences then reduces to following that direction field, so the curve
never has to be re-parameterized per pixel.

Sign convention (fixed): tangents point the way correspondences move as the
scene gets *nearer*, so accumulated disparity along the field is nonnegative
and larger for closer objects.
"""

from __future__ import annotations

import math

import numpy as np

from .camera import CameraBase, RelativePose, StereoRig
from .rasters import pixel_grid, sample_bicubic, vector_norm, warp_image
from .schema import NONNEGATIVE, POSITIVE

# Flow magnitudes below this are indistinguishable from the epipole.
_DEGENERATE_FLOW = 1e-12


def _flow(cam: CameraBase, points: np.ndarray,
          valid0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of `points` (one per pixel) projected through `cam` from
    the pixel grid, and where they are valid: inside `valid0` and `cam`'s
    view. Offsets are zero elsewhere."""
    x1, valid1 = cam.project(points)
    valid = valid0 & valid1
    return np.where(valid[..., None], x1 - pixel_grid(*valid0.shape), 0.0), valid


def generate_calibration_field(rig: StereoRig) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel flow removing rotation and intrinsic differences.

    Projects each camera-0 ray through the rotation-only rig (t = 0); the
    resulting flow is depth-independent. Returns (field, valid) where field
    maps camera-0 pixels onto camera-1 pixels, ``x1 = x + field[x]``.
    """
    rays, valid0 = rig.cam0.rays(pixel_grid(rig.cam0.height, rig.cam0.width))
    return _flow(rig.cam1, rays @ rig.pose.rotation.T, valid0)


def generate_trajectory_field(rig: StereoRig, epsilon_scale: float = 0.1,
                              depth: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent directions of the epipolar curves, one per pixel.

    Requires a translation-only rig (pre-rotate via the calibration field
    first). The translation is rescaled so the largest in-mask flow is about
    `epsilon_scale` pixels: small enough to approximate the vanishing-
    translation tangent, large enough to dodge float cancellation. The
    solver and the `fields` command use the default. The
    direction is independent of `depth` and of the baseline length; both
    invariances are exercised in the test suite rather than assumed.
    """
    R = rig.pose.rotation
    if np.max(np.abs(R - np.eye(3))) > 1e-9:
        raise ValueError("trajectory field needs a rotation-free rig; "
                         "apply the calibration field first")
    t = np.asarray(rig.pose.translation, dtype=np.float64)
    t_norm = np.linalg.norm(t)
    if t_norm == 0:
        raise ValueError("trajectory field undefined for zero baseline")
    t_hat = t / t_norm

    rays, valid0 = rig.cam0.rays(pixel_grid(rig.cam0.height, rig.cam0.width))
    X = rays * depth
    w, valid = _flow(rig.cam1, X + 1e-4 * depth * t_hat, valid0)
    peak = np.max(vector_norm(w)[valid], initial=0.0)
    if peak > 0:
        eps = 1e-4 * depth * epsilon_scale / peak
        w, valid = _flow(rig.cam1, X + eps * t_hat, valid0)

    mag = vector_norm(w)
    degenerate = valid & (mag < _DEGENERATE_FLOW)
    good = valid & (mag >= _DEGENERATE_FLOW)
    dirs = np.zeros_like(w)
    np.divide(w, mag[..., None], out=dirs, where=good[..., None])

    # Components below 1e-9 are float residue of the unproject/project round
    # trip, not geometry; snap them so axis-aligned rigs come out exactly
    # axis-aligned (a rectified pinhole rig must degenerate bit-exactly).
    residue = (np.abs(dirs) < 1e-9) & (dirs != 0.0)
    if np.any(residue):
        dirs, good = unit_directions(np.where(residue, 0.0, dirs), good)

    # The tangent is undefined at the epipole; drop a radius-1 disc around
    # every degenerate pixel.
    if np.any(degenerate):
        blocked = degenerate.copy()
        blocked[1:, :] |= degenerate[:-1, :]
        blocked[:-1, :] |= degenerate[1:, :]
        blocked[:, 1:] |= degenerate[:, :-1]
        blocked[:, :-1] |= degenerate[:, 1:]
        good &= ~blocked
        dirs[~good] = 0.0
    return dirs, good


def unit_directions(d: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renormalize sampled directions `d` valid at `ok`: (unit, ok), ok where
    the sample's norm exceeds 0.5, unit zero elsewhere."""
    norm = vector_norm(d)
    ok = ok & (norm > 0.5)
    return np.divide(d, norm[..., None], out=np.zeros_like(d), where=ok[..., None]), ok


def trace_epipolar_curves(dirs: np.ndarray, valid: np.ndarray, starts: np.ndarray,
                          length: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler-integrate the direction field from several start pixels at once.

    Returns (vertices, alive): vertices has shape (n_starts, n_steps + 1, 2)
    and alive flags which vertices were reached before the trace left the
    valid region. Segments all have length `step` except a shorter last one.
    """
    step, length = POSITIVE(step, "step"), NONNEGATIVE(length, "length")
    starts = np.atleast_2d(np.asarray(starts, dtype=np.float64))
    n_steps = int(math.ceil(length / step))
    verts = np.full((starts.shape[0], n_steps + 1, 2), np.nan)
    alive = np.zeros((starts.shape[0], n_steps + 1), dtype=bool)
    verts[:, 0] = starts
    alive[:, 0] = True
    pos = starts.copy()
    live = np.ones(starts.shape[0], dtype=bool)
    for i in range(n_steps):
        seg = min(step, length - i * step)
        unit, ok = unit_directions(*sample_bicubic(dirs, pos, valid))
        live = live & ok
        pos = pos + seg * np.where(live[:, None], unit, 0.0)
        verts[live, i + 1] = pos[live]
        alive[:, i + 1] = live
    return verts, alive


def trace_epipolar_curve(dirs: np.ndarray, valid: np.ndarray, start,
                         length: float, step: float) -> np.ndarray:
    """Polyline (k, 2) traced from one pixel, truncated at the mask edge."""
    verts, alive = trace_epipolar_curves(dirs, valid, [start], length, step)
    return verts[0][alive[0]]


def depth_swept_curve(rig: StereoRig, x0, depths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact epipolar curve of a pixel: its ray projected at each depth."""
    ray, ok0 = rig.cam0.unproject(np.asarray(x0, dtype=np.float64))
    if not bool(np.all(ok0)):
        raise ValueError(f"pixel {x0} is outside the camera-0 field of view")
    depths = np.asarray(depths, dtype=np.float64)
    pts = rig.pose.transform(ray[None, :] * depths[:, None])
    return rig.cam1.project(pts)


def translation_only_rig(rig: StereoRig) -> StereoRig:
    """Residual rig once the calibration field has been applied.

    Warping image 1 by the calibration field re-observes it through a camera
    with camera-0's lens and camera-0's orientation placed at camera 1, so the
    residual transform is a pure translation R^T @ t.
    """
    t_res = rig.pose.rotation.T @ rig.pose.translation
    return StereoRig(rig.cam0, rig.cam0, RelativePose(np.eye(3), t_res))


def compose_with_calibration(w: np.ndarray, cal_field: np.ndarray,
                             cal_valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn a solver warp (calibrated frame) into a full camera-1 correspondence.

    The solver matches against the calibration-warped image, so the true
    camera-1 pixel of x is (x + w) + calibration(x + w).
    """
    cal_at, ok = warp_image(cal_field, w, cal_valid)
    return np.where(ok[..., None], w + cal_at, 0.0), ok
