"""Anisotropic TGV-L1 disparity solver along curved epipolar trajectories.

One level solves, for disparity u (arc length in pixels along the trajectory
field) and auxiliary vector field v, the saddle-point form of

    E(u, v) = lam * sum |rho(u)|  +  alpha1 * sum |T grad(u) - v|
             +  alpha0 * sum |grad(v)|

where rho is the brightness residual linearized along the local trajectory
direction and T is an edge-weighted diffusion tensor built from the reference
image. `LevelOperator.apply` is the operator K(u, v) = (T grad u - v, grad v),
which `energy()` evaluates; the inner loop takes K and its adjoint block by
block (see `LevelOperator`). K acts on channel-first stacks, so one
difference kernel call serves both channels of v. T is stored
multiplied by the 0/1 edge indicators, so T grad u and div(T p) take raw
differences with no separate edge mask.

The inner loop is a preconditioned primal-dual iteration: projected ascent
on duals p (2-channel) and q (4-channel), a closed-form shrinkage step on u
against the linearized residual, a descent step on v, then over-relaxation
with theta = 1, as in the convergence proof (Chambolle & Pock, JMIV 2011).
The outer loop re-warps the second image, re-linearizes the residual, clips
each disparity increment to du_max, and accumulates the warp vector as the
direction-weighted sum of increments. `solve_level` takes the level's (u, w)
as plain arrays and returns (u, w, v); `solve_pyramid` carries u and w from
level to level.

Per-pixel step sizes come from diagonal preconditioning (absolute row/column
sums of K, exponent one), so no global step tuning is needed; the dual
variables stay inside their unit balls by construction.

The primal-dual cycles run in float32 (see `solve_level`); every array the
solver returns, and `energy()`, is float64.

Each warp iteration is one call into compiled code (`kernels.WarpLevel`),
which splits the level into one or two row bands by the band policy that
`kernels.c` describes at `OVERLAP_MIN`, and joins its thread before it
returns; the results are the same with one band or two. `solve_level` sets
a level up once (operator, tap-count maps, scratch) and then makes one call
per warp: it samples i1 and the directions, linearizes, runs the cycles,
clips and accumulates. The compiled loops repeat the NumPy operations of
the forms they replaced (kept as references in the tests) in their order
and precision, so their results are bit-identical to them. The cycle is
also callable alone (`kernels.primal_dual_cycle`). `thresholding_step` and
`image_derivative_along` are the NumPy forms of the data term's proximal
step and of I_u, which the compiled warp step inlines.

Solving needs the C compiler `gcc` on PATH; the `kernels` module docstring
says how the loops are built and cached, and with which flags.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import fields as fieldsmod
from . import kernels
from .camera import StereoRig
from .kernels import WarpRecord
from .rasters import (build_pyramid, edge_indicators, forward_difference, pixel_grid,
                      pyramid_shapes, sample_bicubic, smooth_masked, upsample_state,
                      vector_norm, warp_image)
from .schema import COUNT, POSITIVE, Ruled, reject_unknown_keys, ruled


@dataclass
class SolverParams(Ruled):
    """Optimization weights and schedule; defaults follow the reference setup.

    lam is this package's default (5.0) for unit-range intensities; it puts
    the data term in the regime where each warp iteration genuinely competes
    with the du_max clip. du_max bounds each warp increment so the
    piecewise-linear curve tracking cannot overshoot the trajectory;
    warp_iters (N) times du_max bounds the disparity a single pyramid level
    can accumulate. Each field's metadata holds its rule, which construction
    checks (`schema.Ruled`), and its `help`, which documents its CLI flag.
    The method's constants are not fields: theta = 1 (the compiled cycle,
    `kernels.primal_dual_cycle`), the edge tensor's beta = 9 and eta = 0.85
    (`compute_tensor`) and its 1 px smoothing (`edge_tensor`), the
    trajectory probe's size (`fields.generate_trajectory_field`) and the
    pyramid ratio 2 (`rasters.pyramid_shapes`).
    """

    lam: float = ruled(POSITIVE, 5.0, help="data term weight")
    alpha0: float = ruled(POSITIVE, 17.0, help="second-order TGV weight")
    alpha1: float = ruled(POSITIVE, 1.2, help="first-order TGV weight")
    warp_iters: int = ruled(COUNT, 50, help="warping iterations per pyramid level")
    pd_iters: int = ruled(COUNT, 10, help="primal-dual cycles per warp iteration")
    du_max: float = ruled(POSITIVE, 0.2, help="clip for each disparity increment, px")
    pyramid_levels: int = ruled(COUNT, 5, help="most pyramid levels, finest included")
    min_width: int = ruled(COUNT, 50, help="narrowest pyramid level width, px")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SolverParams":
        reject_unknown_keys(d, SolverParams.__dataclass_fields__, "", "solver config")
        return SolverParams(**d)


Observer = Callable[[WarpRecord], None]


def compute_tensor(i0: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Edge tensor exp(-beta*|grad|^eta) along the gradient, 1 across it.

    Returns (H, W, 3) packed symmetric tensors (a, b, c) for [[a, b], [b, c]].
    Eigenvalues are always in (0, 1]; zero-gradient pixels get the identity.
    The caller supplies a smoothed image (see `edge_tensor`).
    """
    beta, eta = 9.0, 0.85
    gx, gy = _central_gradient(i0, mask)
    mag = np.hypot(gx, gy)
    safe = np.maximum(mag, 1e-300)
    nx = np.where(mag > 1e-12, gx / safe, 1.0)
    ny = np.where(mag > 1e-12, gy / safe, 0.0)
    lam_n = np.exp(-beta * mag ** eta)
    a = lam_n * nx * nx + ny * ny
    b = (lam_n - 1.0) * nx * ny
    c = lam_n * ny * ny + nx * nx
    t = np.stack([a, b, c], axis=-1)
    t[~mask] = (1.0, 0.0, 1.0)
    return t


def _central_gradient(f: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences averaged over in-mask forward edges (one-sided at borders)."""
    ex, ey = edge_indicators(mask)
    dx, dy = forward_difference(np.asarray(f, dtype=np.float64), ex, ey)
    gx = dx.copy()
    gx[:, 1:] += dx[:, :-1]
    nx = ex.copy()
    nx[:, 1:] += ex[:, :-1]
    gy = dy.copy()
    gy[1:, :] += dy[:-1, :]
    ny = ey.copy()
    ny[1:, :] += ey[:-1, :]
    return gx / np.maximum(nx, 1.0), gy / np.maximum(ny, 1.0)


def edge_tensor(i0: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The tensor T of the functional: `compute_tensor` of the image smoothed
    over `mask` by a Gaussian of sigma 1 px."""
    return compute_tensor(smooth_masked(i0, mask, 1.0), mask)


def image_derivative_along(dirs: np.ndarray, i1w: np.ndarray,
                           valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete derivative of the warped image along unit directions.

    I_u(x) = I1w(x + dir(x)) - I1w(x), sampled with bicubic taps on `valid`
    only, so `i1w` is never read off `valid`; (I_u, ok), ok where x and
    the sample ahead are valid, I_u zero elsewhere.
    """
    ahead, ok = sample_bicubic(i1w, pixel_grid(*valid.shape) + dirs, valid)
    ok &= valid
    return np.where(ok, ahead - i1w, 0.0), ok


def thresholding_step(u_hat: np.ndarray, rho_hat: np.ndarray, iu: np.ndarray,
                      tau_u: np.ndarray | float, lam: float) -> np.ndarray:
    """Closed-form proximal step for the linearized L1 data term.

    Minimizes lam*|rho_hat + (u - u_hat)*iu| + (u - u_hat)^2 / (2*tau_u):
    the step is tau_u*lam*iu or its negation where |rho_hat| exceeds
    tau_u*lam*iu^2, else -rho_hat/iu. Pixels with iu == 0 carry no data
    information and pass through unchanged (a +0 step). The compiled cycle
    inlines this arithmetic; this function is its NumPy form.
    """
    clamp = tau_u * lam * iu
    th = clamp * iu
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(rho_hat < -th, clamp, np.where(rho_hat > th, -clamp, -(rho_hat / iu)))
    return u_hat + np.where(iu != 0, step, 0.0)


@dataclass
class LevelOperator:
    """One pyramid level's linear operator and preconditioned step sizes.

    `ex`/`ey` are the float 0/1 indicators of the mask's forward edges, and
    the tensor T = [[a, b], [b, c]] is stored folded into them, as `a_ex` =
    a*ex, `b_ex`, `b_ey` and `c_ey`. Multiplying by a 0/1 factor is exact,
    so K and K* take raw differences and give the values of masking the
    differences first. Steps that always meet a weight carry it: `p_step` is
    alpha1*sigma_p and `u_step` alpha1*tau_u. q's step alpha0*sigma_q is 1/2,
    as each row of grad v has absolute sum 2; the cycle forms its term as
    (dv * 0.5) * ex, which equals dv * (0.5 * ex) bit for bit, as ex is 0 or
    1 and 0.5 is exact. `tau_u` (for the data term's proximal step) and
    `tau_v` are plain.

    `apply` is K, as `energy()` evaluates it. The cycle
    (`kernels.primal_dual_cycle`) takes K's adjoint block by block, with
    <K(u, v), (p, q)> = -<u, div(T p)> - <v, div q + p>.

    `precondition_steps` builds it in float64; `solve_level` casts its
    arrays to float32 for the primal-dual cycle. `apply` keeps the dtype of
    its inputs.
    """

    ex: np.ndarray
    ey: np.ndarray
    a_ex: np.ndarray
    b_ex: np.ndarray
    b_ey: np.ndarray
    c_ey: np.ndarray
    p_step: np.ndarray
    u_step: np.ndarray
    tau_u: np.ndarray
    tau_v: np.ndarray

    def _tensor_gradient(self, u: np.ndarray) -> np.ndarray:
        """T grad u as (2, H, W), zero on the last column and row."""
        dx = u[:, 1:] - u[:, :-1]
        dy = u[1:] - u[:-1]
        tg = np.empty((2,) + u.shape, dtype=np.result_type(u, self.a_ex))
        for out, wx, wy in ((tg[0], self.a_ex, self.b_ey), (tg[1], self.b_ex, self.c_ey)):
            np.multiply(wx[:, :-1], dx, out=out[:, :-1])
            out[:, -1] = 0.0
            out[:-1] += wy[:-1] * dy
        return tg

    def apply(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K(u, v) = (T grad u - v, grad v): (H, W) u and (2, H, W) v give
        (2, H, W) and (4, H, W), channels (dv0/dx, dv0/dy, dv1/dx, dv1/dy)."""
        return (self._tensor_gradient(u) - v,
                forward_difference(v, self.ex, self.ey).reshape((4,) + u.shape))


def precondition_steps(t: np.ndarray, mask: np.ndarray,
                       params: SolverParams) -> LevelOperator:
    """Build a level's operator with diagonal step sizes from absolute row/column sums.

    Dual steps use the operator's row sums, primal steps its column sums;
    components coupled by one projection share the conservative (smaller)
    step.
    """
    a = np.abs(t[..., 0])
    b = np.abs(t[..., 1])
    c = np.abs(t[..., 2])
    exf, eyf = edge_indicators(mask)

    row_px = 2.0 * a * exf + 2.0 * b * eyf + 1.0
    row_py = 2.0 * b * exf + 2.0 * c * eyf + 1.0
    sigma_p = 1.0 / (params.alpha1 * np.maximum(row_px, row_py))

    col_u = (a + b) * exf + (b + c) * eyf
    col_u[:, 1:] += ((a + b) * exf)[:, :-1]
    col_u[1:, :] += ((b + c) * eyf)[:-1, :]
    tau_u = 1.0 / np.maximum(params.alpha1 * col_u, 1e-12)

    edge_count = exf + eyf
    edge_count[:, 1:] += exf[:, :-1]
    edge_count[1:, :] += eyf[:-1, :]
    tau_v = 1.0 / (params.alpha1 + params.alpha0 * edge_count)
    return LevelOperator(
        ex=exf, ey=eyf, a_ex=t[..., 0] * exf, b_ex=t[..., 1] * exf,
        b_ey=t[..., 1] * eyf, c_ey=t[..., 2] * eyf,
        p_step=sigma_p * params.alpha1, u_step=tau_u * params.alpha1,
        tau_u=tau_u, tau_v=tau_v)


# `perfbench/tracing.py` names this alias; no solve calls it, and ROADMAP
# item 2 drops it.
primal_dual_iterate = kernels.primal_dual_cycle


def solve_level(i0: np.ndarray, i1: np.ndarray, traj_dirs: np.ndarray,
                traj_valid: np.ndarray, params: SolverParams, mask: np.ndarray,
                u: np.ndarray, w: np.ndarray, observe: Observer | None = None,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the warping loop on one pyramid level from disparity u (H, W) and
    warp vector w (H, W, 2); returns the level's (u, w, v), v as (H, W, 2).

    `i1` must already be calibration-warped. Each of the N warp iterations
    samples i1 and the trajectory directions at the warped positions x + w
    in one pass (each under its own mask), linearizes the residual along
    the renormalized directions, runs the inner primal-dual cycles from the
    relaxed primal (u, v), clips the increment to du_max, and accumulates
    w += du * dirs. The duals and v carry over from one warp to the next.
    The level's operator, tap-count maps and scratch are set up once
    (`kernels.WarpLevel`); then each warp iteration is one compiled call.
    `observe`, when given, receives a `WarpRecord` after each accumulation;
    the dual norms and the record's fresh arrays are only made for it.

    The primal-dual cycles run in float32: the operator, the linearized data
    term and the state. Warping, linearization, the clip and the
    accumulation stay in float64, and so do the returned u, w and v.
    """
    op = precondition_steps(edge_tensor(i0, mask), mask, params)
    # Cast in place, so each float64 array is freed once its copy is made.
    for name, value in vars(op).items():
        setattr(op, name, np.asarray(value, dtype=np.float32))
    level = kernels.WarpLevel(i0, i1, traj_dirs, traj_valid, mask, op, params)
    # The warp step accumulates in place, into copies of the caller's arrays.
    u = np.array(u, dtype=np.float64, order="C")
    w = np.array(w, dtype=np.float64, order="C")
    for _ in range(params.warp_iters):
        record = level.step(u, w, observe is not None)
        if observe is not None:
            observe(record)
    return u, w, np.stack(level.duals[0], axis=-1).astype(np.float64)


@dataclass
class StereoResult:
    """Output of a pyramid solve on the finest level's camera-0 grid."""

    u: np.ndarray          # disparity: arc length along the epipolar curve, px
    w: np.ndarray          # warp into the calibration-warped image 1, px
    v: np.ndarray          # auxiliary TGV vector field at the finest level
    mask: np.ndarray       # pixels that were solved
    cal: np.ndarray        # calibration field applied to image 1, px
    cal_ok: np.ndarray     # where the calibration field is defined

    def correspondence(self) -> tuple[np.ndarray, np.ndarray]:
        """(corr, ok): the camera-1 offset of each pixel, w composed with the
        calibration field, valid where that resolves and inside `mask`."""
        corr, ok = fieldsmod.compose_with_calibration(self.w, self.cal, self.cal_ok)
        return corr, ok & self.mask


def calibrate_second_image(i1: np.ndarray, rig: StereoRig):
    """Warp image 1 by the calibration field once (rotation + intrinsics),
    onto the camera-0 grid. Returns (i1c, valid, cal, cal_ok); cal and cal_ok
    are the rig's cached, read-only `fields.generate_calibration_field`."""
    cal, cal_ok = fieldsmod.generate_calibration_field(rig)
    i1c, ok = warp_image(i1, cal, rig.cam1.fov_mask())
    ok &= cal_ok
    return np.where(ok, i1c, 0.0), ok, cal, cal_ok


def trajectory_pyramid(rig: StereoRig, params: SolverParams):
    """(dirs, ok) of each pyramid level of `solve_pyramid`, coarsest first:
    the trajectory fields of the translation-only rig at every level's
    camera-0 grid, from `fields.generate_trajectory_field`'s cache."""
    pose = fieldsmod.translation_only_rig(rig).pose
    cams = [rig.cam0.scaled_to(shape) for shape in pyramid_shapes(
        rig.cam0.height, rig.cam0.width, params.pyramid_levels, params.min_width)]
    return [fieldsmod.generate_trajectory_field(StereoRig(cam, cam, pose))
            for cam in cams[::-1]]


def solve_pyramid(i0: np.ndarray, i1: np.ndarray, rig: StereoRig,
                  params: SolverParams, observe: Observer | None = None) -> StereoResult:
    """Full coarse-to-fine solve of a calibrated stereo pair.

    Applies the calibration field once, then per pyramid level takes the
    trajectory field of the rescaled translation-only rig and runs the
    warping loop, carrying disparity and warp up through `upsample_state`.
    The fields depend on the rig alone: the first solve of a rig value
    builds them, a later solve of an equal rig (say, one read again from its
    JSON) takes them from bounded caches (see `fields`). The returned `cal`
    and `cal_ok` are the cached, read-only calibration field.
    `observe` is handed to every level's `solve_level`, coarsest level first.

    Raises ValueError when an image does not match its camera or holds a
    non-finite pixel, and when no pixel of camera 0 sees image 1 through the
    calibration warp (an empty solve mask).
    """
    for k, (img, cam) in enumerate(((i0, rig.cam0), (i1, rig.cam1))):
        if img.shape != (cam.height, cam.width):
            raise ValueError(f"image {k} does not match camera {k} dimensions")
        if not np.isfinite(img).all():
            raise ValueError(f"image {k} has non-finite pixels")
    # i1c is valid only where the calibration field is, inside camera 0's FOV.
    i1c, solve_mask, cal, cal_ok = calibrate_second_image(i1, rig)
    if not solve_mask.any():
        raise ValueError("empty solve mask: no pixel of camera 0 sees image 1 "
                         "through the calibration warp")

    # One pyramid of the stacked pair: area averaging is per channel, and
    # both images share the solve mask.
    pyr = build_pyramid(np.stack([i0, i1c], axis=-1), solve_mask,
                        params.pyramid_levels, params.min_width)

    u = w = prev_mask = None
    for (pair, level_mask), (dirs, traj_ok) in zip(
            pyr, trajectory_pyramid(rig, params), strict=True):
        h, w_ = level_mask.shape
        if prev_mask is None:
            u, w = np.zeros((h, w_)), np.zeros((h, w_, 2))
        else:
            u, w = upsample_state(u, w, prev_mask, level_mask)
        u, w, v = solve_level(pair[:, :, 0], pair[:, :, 1], dirs, traj_ok,
                              params, level_mask, u, w, observe)
        prev_mask = level_mask

    return StereoResult(u=u, w=w, v=v, mask=prev_mask, cal=cal, cal_ok=cal_ok)


def energy(i0: np.ndarray, i1c: np.ndarray, mask: np.ndarray, u: np.ndarray,
           v: np.ndarray, w: np.ndarray, params: SolverParams) -> float:
    """Variational energy of a candidate (u, v, w) on the calibrated pair.

    Evaluates the functional of the module docstring with the solver's
    operator K and the true (non-linearized) residual via warping, over the
    pixels of `mask` where the warp resolves. `v` and `w` are (H, W, 2).
    """
    i1w, ok = warp_image(i1c, w, mask)
    sel = mask & ok
    op = precondition_steps(edge_tensor(i0, mask), mask, params)
    gu, gv = (np.moveaxis(g, 0, -1) for g in op.apply(u, np.moveaxis(v, -1, 0)))
    return (params.lam * float(np.sum(np.abs((i1w - i0)[sel])))
            + params.alpha1 * float(np.sum(vector_norm(gu)[sel]))
            + params.alpha0 * float(np.sum(vector_norm(gv)[sel])))
