"""Anisotropic TGV-L1 disparity solver along curved epipolar trajectories.

One level solves, for disparity u (arc length in pixels along the trajectory
field) and auxiliary vector field v, the saddle-point form of

    E(u, v) = lam * sum |rho(u)|  +  alpha1 * sum |T grad(u) - v|
             +  alpha0 * sum |grad(v)|

where rho is the brightness residual linearized along the local trajectory
direction and T is an edge-weighted diffusion tensor built from the reference
image. `LevelOperator.apply` is the operator K(u, v) = (T grad u - v, grad v)
and `LevelOperator.adjoint` its adjoint; the inner loop and `energy()` both
use them. The inner loop is a preconditioned primal-dual iteration: projected
ascent on duals p (2-channel) and q (4-channel), a closed-form shrinkage step
on u against the linearized residual, a descent step on v, then
over-relaxation. The outer loop re-warps the second image, re-linearizes the
residual, clips each disparity increment to du_max, and accumulates the warp
vector as the direction-weighted sum of increments.

Per-pixel step sizes come from diagonal preconditioning (absolute row/column
sums of K, exponent one), so no global step tuning is needed; the dual
variables stay inside their unit balls by construction.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fields as fieldsmod
from .camera import StereoRig
from .rasters import (backward_divergence, build_pyramid, edge_indicators,
                      forward_difference, pixel_grid, smooth_masked,
                      upsample_state, warp_image)


def _param(default, help_text: str):
    return field(default=default, metadata={"help": help_text})


@dataclass
class SolverParams:
    """Optimization weights and schedule; defaults follow the reference setup.

    lam is this package's default (5.0) for unit-range intensities; it puts
    the data term in the regime where each warp iteration genuinely competes
    with the du_max clip. du_max bounds each warp increment so the
    piecewise-linear curve tracking cannot overshoot the trajectory;
    warp_iters (N) times du_max bounds the disparity a single pyramid level
    can accumulate. Each field's `help` metadata documents its CLI flag.
    """

    lam: float = _param(5.0, "data term weight")
    alpha0: float = _param(17.0, "second-order TGV weight")
    alpha1: float = _param(1.2, "first-order TGV weight")
    beta: float = _param(9.0, "edge tensor magnitude")
    eta: float = _param(0.85, "edge tensor sharpness")
    warp_iters: int = _param(50, "warping iterations per pyramid level")
    pd_iters: int = _param(10, "primal-dual cycles per warp iteration")
    du_max: float = _param(0.2, "clip for each disparity increment, px")
    pyramid_levels: int = _param(5, "most pyramid levels, finest included")
    pyramid_scale: float = _param(2.0, "size ratio between pyramid levels, > 1")
    min_width: int = _param(50, "narrowest pyramid level width, px")
    epsilon_scale: float = _param(0.1, "target peak flow when generating trajectory fields, px")
    tensor_sigma: float = _param(1.0, "edge tensor pre-smoothing sigma, px")
    theta: float = _param(1.0, "primal over-relaxation factor")

    def __post_init__(self):
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if isinstance(f.default, int):
                if not isinstance(value, numbers.Integral):
                    raise TypeError(f"{name} must be an integer, got {value!r}")
            elif not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            elif not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if min(self.lam, self.alpha0, self.alpha1, self.beta, self.eta) <= 0:
            raise ValueError("all weights must be positive")
        if self.du_max <= 0:
            raise ValueError("du_max must be positive")
        if self.warp_iters < 1 or self.pd_iters < 1 or self.pyramid_levels < 1:
            raise ValueError("iteration and level counts must be >= 1")
        if self.pyramid_scale <= 1:
            raise ValueError("pyramid_scale must be > 1")
        if self.epsilon_scale <= 0:
            raise ValueError("epsilon_scale must be positive")
        if self.tensor_sigma < 0:
            raise ValueError("tensor_sigma must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SolverParams":
        known = {f for f in SolverParams.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown solver parameters: {sorted(unknown)}")
        return SolverParams(**d)


@dataclass
class WarpState:
    """Accumulated disparity u and warp vector w = sum(du_k * dir_k)."""

    u: np.ndarray
    w: np.ndarray


@dataclass
class SolverState:
    """Primal/dual variables of one level's inner iteration.

    Vector variables are stored channel-first, so each channel is one
    contiguous (H, W) array: v, v_bar and p are (2, H, W), q is (4, H, W) with
    channels (dv0/dx, dv0/dy, dv1/dx, dv1/dy).
    """

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    q: np.ndarray
    u_bar: np.ndarray
    v_bar: np.ndarray


@dataclass(frozen=True)
class WarpRecord:
    """What one warp iteration did, as handed to an `observe` callable.

    `du` is the clipped disparity increment and `dirs` the unit directions it
    was accumulated along (w += du * dirs); the solver never writes either
    array again, so an observer may keep them. The dual norms are the largest
    over the warp's primal-dual cycles.
    """

    du: np.ndarray
    dirs: np.ndarray
    max_p_norm: float
    max_q_norm: float


Observer = Callable[[WarpRecord], None]


def compute_tensor(i0: np.ndarray, beta: float, eta: float,
                   mask: np.ndarray) -> np.ndarray:
    """Edge tensor exp(-beta*|grad|^eta) along the gradient, 1 across it.

    Returns (H, W, 3) packed symmetric tensors (a, b, c) for [[a, b], [b, c]].
    Eigenvalues are always in (0, 1]; zero-gradient pixels get the identity.
    The caller supplies a smoothed image (see `SolverParams.tensor_sigma`).
    """
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


def edge_tensor(i0: np.ndarray, mask: np.ndarray, params: SolverParams) -> np.ndarray:
    """The tensor T of the functional: `compute_tensor` of the smoothed image."""
    return compute_tensor(smooth_masked(i0, mask, params.tensor_sigma),
                          params.beta, params.eta, mask)


def image_derivative_along(dirs: np.ndarray, i1w: np.ndarray, i1w_valid: np.ndarray,
                           mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete derivative of the warped image along unit directions.

    I_u(x) = I1w(x + dir(x)) - I1w(x), sampled with masked bicubic taps;
    invalid wherever either sample is.
    """
    ahead, ok = warp_image(i1w, dirs, mask & i1w_valid)
    ok &= i1w_valid
    return np.where(ok, ahead - i1w, 0.0), ok


def thresholding_step(u_hat: np.ndarray, rho_hat: np.ndarray, iu: np.ndarray,
                      tau_u: np.ndarray | float, lam: float) -> np.ndarray:
    """Closed-form proximal step for the linearized L1 data term.

    Minimizes lam*|rho_hat + (u - u_hat)*iu| + (u - u_hat)^2 / (2*tau_u).
    Pixels with iu == 0 carry no data information and pass through unchanged.
    """
    clamp = tau_u * lam * iu
    th = clamp * iu
    nz = iu != 0
    shrink = np.zeros_like(u_hat)
    np.divide(rho_hat, iu, out=shrink, where=nz)
    step = np.where(rho_hat < -th, clamp, np.where(rho_hat > th, -clamp, -shrink))
    np.copyto(step, 0.0, where=~nz)
    return u_hat + step


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the channels of a channel-first array."""
    s = x[0] * x[0]
    for c in x[1:]:
        s += c * c
    return np.sqrt(s)


def _max_norm(x: np.ndarray) -> float:
    return float(np.max(_norm(x), initial=0.0))


@dataclass
class LevelOperator:
    """One pyramid level's linear operator and preconditioned step sizes.

    `ex`/`ey` are the float edge indicators of K's masked forward differences
    and `a`/`b`/`c` the channels of the packed tensor T. Steps that always
    meet a weight carry it: `p_step` is alpha1*sigma_p, `q_step`
    alpha0*sigma_q and `u_step` alpha1*tau_u; `tau_u` (for the data term's
    proximal step) and `tau_v` are plain.
    """

    ex: np.ndarray
    ey: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p_step: np.ndarray
    q_step: float
    u_step: np.ndarray
    tau_u: np.ndarray
    tau_v: np.ndarray

    def apply(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K(u, v) = (T grad u - v, grad v): (H, W) u and (2, H, W) v give
        (2, H, W) and (4, H, W), channels (dv0/dx, dv0/dy, dv1/dx, dv1/dy)."""
        ex, ey, a, b, c = self.ex, self.ey, self.a, self.b, self.c
        gx, gy = forward_difference(u, ex, ey)
        return (np.stack([a * gx + b * gy, b * gx + c * gy]) - v,
                np.stack(forward_difference(v[0], ex, ey) + forward_difference(v[1], ex, ey)))

    def adjoint(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(div(T p), div q) per component, so <K(u, v), (p, q)> =
        -<u, div(T p)> - <v, div q + p>; shapes mirror `apply`."""
        ex, ey, a, b, c = self.ex, self.ey, self.a, self.b, self.c
        return (backward_divergence(a * p[0] + b * p[1], b * p[0] + c * p[1], ex, ey),
                np.stack([backward_divergence(q[0], q[1], ex, ey),
                          backward_divergence(q[2], q[3], ex, ey)]))


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
    sigma_q = 1.0 / (2.0 * params.alpha0)

    col_u = (a + b) * exf + (b + c) * eyf
    col_u[:, 1:] += ((a + b) * exf)[:, :-1]
    col_u[1:, :] += ((b + c) * eyf)[:-1, :]
    tau_u = 1.0 / np.maximum(params.alpha1 * col_u, 1e-12)

    edge_count = exf + eyf
    edge_count[:, 1:] += exf[:, :-1]
    edge_count[1:, :] += eyf[:-1, :]
    tau_v = 1.0 / (params.alpha1 + params.alpha0 * edge_count)
    return LevelOperator(
        ex=exf, ey=eyf, a=t[..., 0].copy(), b=t[..., 1].copy(), c=t[..., 2].copy(),
        p_step=sigma_p * params.alpha1, q_step=sigma_q * params.alpha0,
        u_step=tau_u * params.alpha1, tau_u=tau_u, tau_v=tau_v)


def primal_dual_iterate(state: SolverState, op: LevelOperator, iu: np.ndarray,
                        rho0: np.ndarray, u_omega: np.ndarray,
                        params: SolverParams) -> SolverState:
    """One full primal-dual cycle (dual ascent, primal descent, relaxation).

    rho0 is the residual at the current warp (u = u_omega); the linearized
    residual handed to the shrinkage step is rho0 + (u - u_omega) * iu.
    `op` comes from `precondition_steps(t, mask, params)`.
    """
    kp, kq = op.apply(state.u_bar, state.v_bar)
    p = state.p + op.p_step * kp
    p /= np.maximum(1.0, _norm(p))
    q = state.q + op.q_step * kq
    q /= np.maximum(1.0, _norm(q))

    div_tp, div_q = op.adjoint(p, q)
    u_hat = state.u + op.u_step * div_tp
    rho_hat = rho0 + (u_hat - u_omega) * iu
    u_new = thresholding_step(u_hat, rho_hat, iu, op.tau_u, params.lam)
    v_new = state.v + op.tau_v * (params.alpha0 * div_q + params.alpha1 * p)

    u_bar = u_new + params.theta * (u_new - state.u)
    v_bar = v_new + params.theta * (v_new - state.v)
    return SolverState(u=u_new, v=v_new, p=p, q=q, u_bar=u_bar, v_bar=v_bar)


def solve_level(i0: np.ndarray, i1: np.ndarray, traj_dirs: np.ndarray,
                traj_valid: np.ndarray, params: SolverParams, mask: np.ndarray,
                init: WarpState, observe: Observer | None = None,
                ) -> tuple[WarpState, SolverState]:
    """Run the warping loop on one pyramid level.

    `i1` must already be calibration-warped. Each of the N warp iterations
    warps i1 by the current warp vector, linearizes the residual along
    trajectory directions sampled at the warped positions, runs the inner
    primal-dual cycles, clips the increment to du_max, and accumulates.
    `observe`, when given, receives a `WarpRecord` after each accumulation;
    the dual norms are only computed for it.
    """
    h, w_ = mask.shape
    op = precondition_steps(edge_tensor(i0, mask, params), mask, params)

    u = init.u.copy()
    w = init.w.copy()
    zeros2 = np.zeros((2, h, w_))
    state = SolverState(u=u, v=zeros2.copy(), p=zeros2.copy(),
                        q=np.zeros((4, h, w_)), u_bar=u.copy(), v_bar=zeros2.copy())

    for _ in range(params.warp_iters):
        i1w, warp_ok = warp_image(i1, w, mask)
        dirs, dir_ok = fieldsmod.sample_directions(traj_dirs, traj_valid,
                                                   pixel_grid(h, w_) + w)
        dir_ok &= mask
        dirs = np.where(dir_ok[..., None], dirs, 0.0)

        iu, iu_ok = image_derivative_along(dirs, i1w, warp_ok & mask, mask)
        data_ok = iu_ok & dir_ok
        iu = np.where(data_ok, iu, 0.0)
        rho0 = np.where(data_ok, i1w - i0, 0.0)

        u_omega = state.u.copy()
        state.u_bar = state.u.copy()
        state.v_bar = state.v.copy()
        max_p = max_q = 0.0
        for _k in range(params.pd_iters):
            state = primal_dual_iterate(state, op, iu, rho0, u_omega, params)
            if observe is not None:
                max_p = max(max_p, _max_norm(state.p))
                max_q = max(max_q, _max_norm(state.q))

        du = np.clip(state.u - u_omega, -params.du_max, params.du_max)
        du = np.where(mask, du, 0.0)
        state.u = u_omega + du
        state.u_bar = state.u.copy()
        w = w + du[..., None] * dirs
        if observe is not None:
            observe(WarpRecord(du=du, dirs=dirs, max_p_norm=max_p, max_q_norm=max_q))

    return WarpState(u=state.u, w=w), state


@dataclass
class StereoResult:
    """Output of a pyramid solve on the finest level's camera-0 grid."""

    u: np.ndarray          # disparity: arc length along the epipolar curve, px
    w: np.ndarray          # warp into the calibration-warped image 1, px
    v: np.ndarray          # auxiliary TGV vector field at the finest level
    mask: np.ndarray       # pixels that were solved
    cal: np.ndarray        # calibration field applied to image 1, px
    cal_ok: np.ndarray     # where the calibration field is defined


def calibrate_second_image(i1: np.ndarray, rig: StereoRig):
    """Warp image 1 by the calibration field once (rotation + intrinsics),
    onto the camera-0 grid. Returns (i1c, valid, cal, cal_ok)."""
    cal, cal_ok = fieldsmod.generate_calibration_field(rig)
    i1c, ok = warp_image(i1, cal, rig.cam1.fov_mask())
    ok &= cal_ok
    return np.where(ok, i1c, 0.0), ok, cal, cal_ok


def solve_pyramid(i0: np.ndarray, i1: np.ndarray, rig: StereoRig,
                  params: SolverParams, observe: Observer | None = None,
                  traj_override=None) -> StereoResult:
    """Full coarse-to-fine solve of a calibrated stereo pair.

    Applies the calibration field once, then per pyramid level regenerates
    the trajectory field from the rescaled translation-only rig and runs the
    warping loop, carrying disparity and warp up through `upsample_state`.

    `traj_override(rig_level) -> (dirs, valid)` replaces trajectory-field
    generation when given (used to cross-check degeneration to rectified
    stereo against hard-coded directions). `observe` is handed to every
    level's `solve_level`, coarsest level first.

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

    rig_t = fieldsmod.translation_only_rig(rig)
    pyr0 = build_pyramid(i0, solve_mask, params.pyramid_levels,
                         params.pyramid_scale, params.min_width)
    pyr1 = build_pyramid(i1c, solve_mask, params.pyramid_levels,
                         params.pyramid_scale, params.min_width)

    warp = None
    prev_mask = None
    for lvl in range(pyr0.num_levels):
        level_mask = pyr0.masks[lvl]
        h, w_ = level_mask.shape
        cam_lvl = rig.cam0.scaled_to((h, w_))
        rig_lvl = StereoRig(cam_lvl, cam_lvl, rig_t.pose)
        if traj_override is not None:
            dirs, traj_ok = traj_override(rig_lvl)
        else:
            dirs, traj_ok = fieldsmod.generate_trajectory_field(
                rig_lvl, params.epsilon_scale)
        if warp is None:
            init = WarpState(u=np.zeros((h, w_)), w=np.zeros((h, w_, 2)))
        else:
            init = WarpState(*upsample_state(warp.u, warp.w, prev_mask, (h, w_), level_mask))
        warp, state = solve_level(pyr0.fields[lvl], pyr1.fields[lvl], dirs,
                                  traj_ok, params, level_mask, init, observe)
        prev_mask = level_mask

    return StereoResult(u=warp.u, w=warp.w, v=np.stack(state.v, axis=-1), mask=prev_mask,
                        cal=cal, cal_ok=cal_ok)


def energy(i0: np.ndarray, i1c: np.ndarray, mask: np.ndarray, u: np.ndarray,
           v: np.ndarray, w: np.ndarray, params: SolverParams) -> float:
    """Variational energy of a candidate (u, v, w) on the calibrated pair.

    Evaluates the functional of the module docstring with the solver's
    operator K and the true (non-linearized) residual via warping, over the
    pixels of `mask` where the warp resolves. `v` and `w` are (H, W, 2).
    """
    i1w, ok = warp_image(i1c, w, mask)
    sel = mask & ok
    op = precondition_steps(edge_tensor(i0, mask, params), mask, params)
    gu, gv = op.apply(u, np.moveaxis(v, -1, 0))
    return (params.lam * float(np.sum(np.abs((i1w - i0)[sel])))
            + params.alpha1 * float(np.sum(_norm(gu)[sel]))
            + params.alpha0 * float(np.sum(_norm(gv)[sel])))
