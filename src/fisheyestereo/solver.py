"""Anisotropic TGV-L1 disparity solver along curved epipolar trajectories.

One level solves, for disparity u (arc length in pixels along the trajectory
field) and auxiliary vector field v, the saddle-point form of

    E(u, v) = lam * sum |rho(u)|  +  alpha1 * sum |T grad(u) - v|
             +  alpha0 * sum |grad(v)|

where rho is the brightness residual linearized along the local trajectory
direction and T is an edge-weighted diffusion tensor built from the reference
image. The inner loop is a preconditioned primal-dual iteration: projected
ascent on duals p (2-channel) and q (4-channel), a closed-form shrinkage step
on u against the linearized residual, a descent step on v, then
over-relaxation. The outer loop re-warps the second image, re-linearizes the
residual, clips each disparity increment to du_max, and accumulates the warp
vector as the direction-weighted sum of increments.

Per-pixel step sizes come from diagonal preconditioning (absolute row/column
sums of the linear operator, exponent one), so no global step tuning is
needed; the dual variables stay inside their unit balls by construction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fields as fieldsmod
from .camera import StereoRig
from .rasters import (build_pyramid, divergence, gradient, pixel_grid,
                      sample_bicubic, smooth_masked, upsample_state,
                      _edge_indicators)


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
    """Primal/dual variables of one level's inner iteration."""

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
    ex, ey = _edge_indicators(mask)
    dx = np.zeros_like(f, dtype=np.float64)
    dy = np.zeros_like(f, dtype=np.float64)
    dx[:, :-1] = (f[:, 1:] - f[:, :-1]) * ex[:, :-1]
    dy[:-1, :] = (f[1:, :] - f[:-1, :]) * ey[:-1, :]
    cx = ex.astype(np.float64)
    cy = ey.astype(np.float64)
    gx = dx.copy()
    gx[:, 1:] += dx[:, :-1]
    nx = cx.copy()
    nx[:, 1:] += cx[:, :-1]
    gy = dy.copy()
    gy[1:, :] += dy[:-1, :]
    ny = cy.copy()
    ny[1:, :] += cy[:-1, :]
    return gx / np.maximum(nx, 1.0), gy / np.maximum(ny, 1.0)


def apply_tensor(t: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Multiply packed symmetric tensors (a, b, c) with 2-vectors."""
    a, b, c = t[..., 0], t[..., 1], t[..., 2]
    return np.stack([a * vec[..., 0] + b * vec[..., 1],
                     b * vec[..., 0] + c * vec[..., 1]], axis=-1)


def edge_tensor(i0: np.ndarray, mask: np.ndarray, params: SolverParams) -> np.ndarray:
    """The tensor T of the functional: `compute_tensor` of the smoothed image."""
    return compute_tensor(smooth_masked(i0, mask, params.tensor_sigma),
                          params.beta, params.eta, mask)


def warp_image(image: np.ndarray, w: np.ndarray,
               mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resample `image` (scalar or vector field) at x + w(x) with masked bicubic taps.

    Returns (warped, valid); invalid samples are zeroed, not NaN.
    """
    grid = pixel_grid(image.shape[0], image.shape[1])
    vals, ok = sample_bicubic(image, grid + w, mask)
    return np.where(ok if vals.ndim == 2 else ok[..., None], vals, 0.0), ok


def image_derivative_along(dirs: np.ndarray, i1w: np.ndarray, i1w_valid: np.ndarray,
                           mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete derivative of the warped image along unit directions.

    I_u(x) = I1w(x + dir(x)) - I1w(x), sampled with masked bicubic taps;
    invalid wherever either sample is.
    """
    grid = pixel_grid(i1w.shape[0], i1w.shape[1])
    ahead, ok = sample_bicubic(i1w, grid + dirs, mask & i1w_valid)
    iu = np.where(ok & i1w_valid, ahead - i1w, 0.0)
    return iu, ok & i1w_valid


def thresholding_step(u_hat: np.ndarray, rho_hat: np.ndarray, iu: np.ndarray,
                      tau_u: np.ndarray | float, lam: float) -> np.ndarray:
    """Closed-form proximal step for the linearized L1 data term.

    Minimizes lam*|rho_hat + (u - u_hat)*iu| + (u - u_hat)^2 / (2*tau_u).
    Pixels with iu == 0 carry no data information and pass through unchanged.
    """
    th = tau_u * lam * iu * iu
    shrink = np.zeros_like(u_hat)
    nz = iu != 0
    np.divide(rho_hat, np.where(nz, iu, 1.0), out=shrink, where=nz)
    step = np.where(rho_hat < -th, tau_u * lam * iu,
                    np.where(rho_hat > th, -tau_u * lam * iu, -shrink))
    return u_hat + np.where(nz, step, 0.0)


def _project_unit(x: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(1.0, norm)


def _max_norm(x: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(x, axis=-1), initial=0.0))


def _jacobian(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    g0 = gradient(v[:, :, 0], mask)
    g1 = gradient(v[:, :, 1], mask)
    return np.concatenate([g0, g1], axis=-1)


def _jacobian_adjoint_div(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    d0 = divergence(q[:, :, 0:2], mask)
    d1 = divergence(q[:, :, 2:4], mask)
    return np.stack([d0, d1], axis=-1)


@dataclass
class _StepSizes:
    sigma_p: np.ndarray
    sigma_q: float
    tau_u: np.ndarray
    tau_v: np.ndarray


def precondition_steps(t: np.ndarray, mask: np.ndarray,
                       params: SolverParams) -> _StepSizes:
    """Diagonal step sizes from absolute row/column sums of the operator.

    The operator takes (u, v) to (alpha1*(T grad u - v), alpha0*grad v) with
    the masked forward-difference gradient; dual steps use row sums, primal
    steps column sums. Components coupled by one projection share the
    conservative (smaller) step.
    """
    a = np.abs(t[..., 0])
    b = np.abs(t[..., 1])
    c = np.abs(t[..., 2])
    ex, ey = _edge_indicators(mask)
    exf = ex.astype(np.float64)
    eyf = ey.astype(np.float64)

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
    return _StepSizes(sigma_p=sigma_p, sigma_q=sigma_q, tau_u=tau_u, tau_v=tau_v)


def primal_dual_iterate(state: SolverState, t: np.ndarray, iu: np.ndarray,
                        rho0: np.ndarray, u_omega: np.ndarray,
                        params: SolverParams, mask: np.ndarray,
                        steps: _StepSizes) -> SolverState:
    """One full primal-dual cycle (dual ascent, primal descent, relaxation).

    rho0 is the residual at the current warp (u = u_omega); the linearized
    residual handed to the shrinkage step is rho0 + (u - u_omega) * iu.
    `steps` comes from `precondition_steps(t, mask, params)`.
    """
    p = _project_unit(state.p + steps.sigma_p[..., None] * params.alpha1
                      * (apply_tensor(t, gradient(state.u_bar, mask)) - state.v_bar))
    q = _project_unit(state.q + steps.sigma_q * params.alpha0
                      * _jacobian(state.v_bar, mask))

    u_hat = state.u + steps.tau_u * params.alpha1 * divergence(apply_tensor(t, p), mask)
    rho_hat = rho0 + (u_hat - u_omega) * iu
    u_new = thresholding_step(u_hat, rho_hat, iu, steps.tau_u, params.lam)
    v_new = state.v + steps.tau_v[..., None] * (
        params.alpha0 * _jacobian_adjoint_div(q, mask) + params.alpha1 * p)

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
    t = edge_tensor(i0, mask, params)
    steps = precondition_steps(t, mask, params)

    u = init.u.copy()
    w = init.w.copy()
    zeros2 = np.zeros((h, w_, 2))
    state = SolverState(u=u, v=zeros2.copy(), p=zeros2.copy(),
                        q=np.zeros((h, w_, 4)), u_bar=u.copy(), v_bar=zeros2.copy())

    for _ in range(params.warp_iters):
        i1w, warp_ok = warp_image(i1, w, mask)
        dirs_raw, dir_ok = warp_image(traj_dirs, w, traj_valid)
        norm = np.linalg.norm(dirs_raw, axis=-1)
        dir_ok = dir_ok & (norm > 0.5) & mask
        dirs = np.where(dir_ok[..., None], dirs_raw / np.maximum(norm, 1e-300)[..., None], 0.0)

        iu, iu_ok = image_derivative_along(dirs, i1w, warp_ok & mask, mask)
        data_ok = iu_ok & dir_ok
        iu = np.where(data_ok, iu, 0.0)
        rho0 = np.where(data_ok, i1w - i0, 0.0)

        u_omega = state.u.copy()
        state.u_bar = state.u.copy()
        state.v_bar = state.v.copy()
        max_p = max_q = 0.0
        for _k in range(params.pd_iters):
            state = primal_dual_iterate(state, t, iu, rho0, u_omega,
                                        params, mask, steps)
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


def calibrate_second_image(i1: np.ndarray, rig: StereoRig,
                           mask1: np.ndarray | None = None):
    """Warp image 1 by the calibration field once (rotation + intrinsics)."""
    cal, cal_ok = fieldsmod.generate_calibration_field(rig)
    if mask1 is None:
        mask1 = rig.cam1.fov_mask()
    grid = pixel_grid(rig.cam0.height, rig.cam0.width)
    vals, ok = sample_bicubic(i1, grid + cal, mask1)
    ok = ok & cal_ok
    return np.where(ok, vals, 0.0), ok, cal, cal_ok


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
    """
    if i0.shape != (rig.cam0.height, rig.cam0.width):
        raise ValueError("image 0 does not match camera 0 dimensions")
    if i1.shape != (rig.cam1.height, rig.cam1.width):
        raise ValueError("image 1 does not match camera 1 dimensions")
    mask0 = rig.cam0.fov_mask()
    i1c, i1c_ok, _, _ = calibrate_second_image(i1, rig)
    solve_mask = mask0 & i1c_ok

    rig_t = fieldsmod.translation_only_rig(rig)
    pyr0 = build_pyramid(i0, solve_mask, params.pyramid_levels,
                         params.pyramid_scale, params.min_width)
    pyr1 = build_pyramid(i1c, solve_mask, params.pyramid_levels,
                         params.pyramid_scale, params.min_width)

    warp = None
    state = None
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
            u_up, w_up = upsample_state(warp.u, warp.w, prev_mask, (h, w_), level_mask)
            init = WarpState(u=u_up, w=w_up)
        warp, state = solve_level(pyr0.fields[lvl], pyr1.fields[lvl], dirs,
                                  traj_ok, params, level_mask, init, observe)
        prev_mask = level_mask

    return StereoResult(u=warp.u, w=warp.w, v=state.v, mask=prev_mask)


def energy(i0: np.ndarray, i1c: np.ndarray, mask: np.ndarray, u: np.ndarray,
           v: np.ndarray, w: np.ndarray, params: SolverParams) -> float:
    """Variational energy of a candidate (u, v, w) on the calibrated pair.

    Evaluates the functional of the module docstring with the solver's edge
    tensor and the true (non-linearized) residual via warping; comparisons
    between candidates are made over the pixels where both warps resolve.
    """
    i1w, ok = warp_image(i1c, w, mask)
    sel = mask & ok
    rho = np.where(sel, i1w - i0, 0.0)
    gu = apply_tensor(edge_tensor(i0, mask, params), gradient(u, mask)) - v
    gv = _jacobian(v, mask)
    e_data = params.lam * float(np.sum(np.abs(rho[sel])))
    e_g1 = params.alpha1 * float(np.sum(np.linalg.norm(gu, axis=-1)[sel]))
    e_g0 = params.alpha0 * float(np.sum(np.linalg.norm(gv, axis=-1)[sel]))
    return e_data + e_g1 + e_g0
