import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo.camera import RelativePose, StereoRig, UnifiedCamera
from fisheyestereo.fields import generate_calibration_field, translation_only_rig
from fisheyestereo.rasters import (gradient, pixel_grid, sample_bicubic, smooth_masked,
                                   warp_image)
from fisheyestereo.solver import (SolverParams, SolverState,
                                  WarpState, calibrate_second_image,
                                  compute_tensor, edge_tensor, energy,
                                  image_derivative_along, precondition_steps,
                                  primal_dual_iterate, solve_level,
                                  solve_pyramid, thresholding_step)
from fisheyestereo.synth import (Plane, Scene, Sphere, ValueNoise,
                                 make_ground_truth, pinhole_rig, plane_scene,
                                 render)

E_MINUS_9 = 1.2340980408667956e-04  # exp(-9), the across-edge eigenvalue at |g|=1


def test_params_validate():
    with pytest.raises(ValueError):
        SolverParams(lam=-1.0)
    with pytest.raises(ValueError):
        SolverParams(du_max=0.0)
    with pytest.raises(ValueError):
        SolverParams(warp_iters=0)
    with pytest.raises(ValueError):
        SolverParams.from_dict({"lambda_weight": 1.0})


@pytest.mark.parametrize("name, value", [
    ("warp_iters", 2.5), ("warp_iters", True), ("warp_iters", "5"), ("pd_iters", 10.0),
    ("min_width", None), ("lam", "5"), ("lam", False), ("du_max", [0.2]),
])
def test_params_reject_wrong_types(name, value):
    with pytest.raises(TypeError, match=name):
        SolverParams.from_dict({name: value})


@pytest.mark.parametrize("name", ["lam", "alpha0", "du_max", "pyramid_scale", "theta",
                                  "tensor_sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        SolverParams(**{name: value})


def test_params_accept_numpy_and_integer_values():
    params = SolverParams(warp_iters=np.int64(3), lam=4, du_max=np.float64(0.1))
    assert params.warp_iters == 3 and params.lam == 4 and params.du_max == 0.1


# ---------------------------------------------------------------------------
# tensor


def test_tensor_identity_on_flat_image():
    mask = np.ones((12, 12), dtype=bool)
    t = compute_tensor(np.full((12, 12), 0.5), 9.0, 0.85, mask)
    assert np.allclose(t[:, :, 0], 1.0, atol=0)
    assert np.allclose(t[:, :, 1], 0.0, atol=0)
    assert np.allclose(t[:, :, 2], 1.0, atol=0)


def test_tensor_unit_gradient_ramp():
    # Oracle: direct formula evaluation, T = diag(exp(-beta), 1) for g=(1,0).
    g = pixel_grid(12, 12)
    mask = np.ones((12, 12), dtype=bool)
    t = compute_tensor(g[:, :, 0], 9.0, 0.85, mask)
    interior = t[3:-3, 3:-3]
    assert np.allclose(interior[:, :, 0], E_MINUS_9, rtol=1e-12)
    assert np.allclose(interior[:, :, 1], 0.0, atol=1e-15)
    assert np.allclose(interior[:, :, 2], 1.0, atol=1e-15)


def test_tensor_spectrum_on_random_image():
    rng = np.random.default_rng(0)
    img = rng.random((24, 24))
    mask = np.ones((24, 24), dtype=bool)
    t = compute_tensor(img, 9.0, 0.85, mask)
    a, b, c = t[:, :, 0], t[:, :, 1], t[:, :, 2]
    tr = a + c
    det = a * c - b * b
    disc = np.sqrt(np.maximum((a - c) ** 2 + 4 * b * b, 0.0))
    lo = (tr - disc) / 2
    hi = (tr + disc) / 2
    assert np.all(det > 0)
    assert np.all(lo > 0)
    assert np.all(hi <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# derivative along the trajectory


def test_image_derivative_constant_image():
    mask = np.ones((16, 16), dtype=bool)
    dirs = np.zeros((16, 16, 2))
    dirs[:, :, 0] = 1.0
    iu, ok = image_derivative_along(dirs, np.full((16, 16), 0.3), mask, mask)
    assert np.all(iu[ok] == 0.0)


def test_image_derivative_ramp():
    g = pixel_grid(16, 16)
    img = 2.0 * g[:, :, 0]
    mask = np.ones((16, 16), dtype=bool)
    dirs = np.zeros((16, 16, 2))
    dirs[:, :, 0] = 1.0
    iu, ok = image_derivative_along(dirs, img, mask, mask)
    interior = ok & (g[:, :, 0] >= 2) & (g[:, :, 0] <= 12)
    assert np.allclose(iu[interior], 2.0, atol=1e-9)


def test_image_derivative_matches_curve_profile():
    # Oracle: central finite difference of the image resampled along the
    # traced curve.
    rng = np.random.default_rng(1)
    mask = np.ones((64, 64), dtype=bool)
    img = smooth_masked(rng.random((64, 64)), mask, 2.5)
    dirs = np.zeros((64, 64, 2))
    dirs[:, :, 0] = 1.0
    iu, ok = image_derivative_along(dirs, img, mask, mask)
    grid = pixel_grid(64, 64)
    ahead, _ = sample_bicubic(img, grid + np.array([1.0, 0.0]), mask)
    behind, _ = sample_bicubic(img, grid - np.array([1.0, 0.0]), mask)
    central = (ahead - behind) / 2.0
    interior = np.zeros_like(mask)
    interior[10:-10, 10:-10] = True
    # Forward secant vs central difference of the same profile: the gap is
    # the second-derivative term, small on a heavily smoothed image.
    assert np.max(np.abs(iu - central)[interior & ok]) < 1e-3 * 30


# ---------------------------------------------------------------------------
# thresholding / resolvent


def _prox_objective(u, u_hat, rho_hat, iu, tau, lam):
    return lam * np.abs(rho_hat + (u - u_hat) * iu) + (u - u_hat) ** 2 / (2 * tau)


def _grid_argmin(u_hat, rho_hat, iu, tau, lam, radius, step=1e-4):
    grid = u_hat + np.arange(-radius, radius + step, step)
    vals = _prox_objective(grid, u_hat, rho_hat, iu, tau, lam)
    return grid[np.argmin(vals)]


def test_thresholding_case_clamp_positive():
    # lam=1, tau=0.25, iu=2, rho=1.5 > tau*lam*iu^2=1 -> step -tau*lam*iu = -0.5.
    u = thresholding_step(np.array(2.0), np.array(1.5), np.array(2.0), 0.25, 1.0)
    assert np.isclose(float(u), 1.5, atol=1e-12)
    brute = _grid_argmin(2.0, 1.5, 2.0, 0.25, 1.0, radius=1.0)
    assert abs(float(u) - brute) < 1e-3


def test_thresholding_case_interior_zero():
    # rho=0.4 <= 1 -> step -rho/iu = -0.2, making the linearized residual zero.
    u = thresholding_step(np.array(2.0), np.array(0.4), np.array(2.0), 0.25, 1.0)
    assert np.isclose(float(u), 1.8, atol=1e-12)
    rho_after = 0.4 + (float(u) - 2.0) * 2.0
    assert abs(rho_after) < 1e-12
    brute = _grid_argmin(2.0, 0.4, 2.0, 0.25, 1.0, radius=1.0)
    assert abs(float(u) - brute) < 1e-3


def test_thresholding_zero_residual_is_identity():
    u = thresholding_step(np.array(1.3), np.array(0.0), np.array(2.0), 0.25, 1.0)
    assert float(u) == 1.3


def test_thresholding_zero_slope_is_identity():
    u = thresholding_step(np.array(1.3), np.array(0.7), np.array(0.0), 0.25, 1.0)
    assert float(u) == 1.3


def test_thresholding_matches_grid_search():
    # Sampled version of the acceptance oracle: the closed form is never
    # worse than the brute-force grid minimum (to 1e-6) and lands within the
    # grid's own resolution of the best grid point.
    rng = np.random.default_rng(2)
    for _ in range(200):
        tau = rng.uniform(0.02, 1.0)
        lam = rng.uniform(0.05, 2.0)
        iu = rng.uniform(-2.0, 2.0)
        rho = rng.uniform(-2.0, 2.0)
        u_hat = rng.uniform(-1.0, 1.0)
        u = float(thresholding_step(np.array(u_hat), np.array(rho),
                                    np.array(iu), tau, lam))
        radius = tau * lam * abs(iu) + (abs(rho / iu) if iu != 0 else 0.0) + 2e-4
        ug = _grid_argmin(u_hat, rho, iu, tau, lam, radius=min(radius, 6.0))
        e_closed = _prox_objective(u, u_hat, rho, iu, tau, lam)
        e_grid = _prox_objective(ug, u_hat, rho, iu, tau, lam)
        assert e_closed <= e_grid + 1e-6
        assert abs(u - ug) <= 1.5e-4


# ---------------------------------------------------------------------------
# primal-dual iteration


def _idle_inputs(h=20, w=20):
    mask = np.ones((h, w), dtype=bool)
    t = compute_tensor(np.full((h, w), 0.5), 9.0, 0.85, mask)
    iu = np.zeros((h, w))
    rho0 = np.zeros((h, w))
    return mask, t, iu, rho0


def test_pd_stationary_at_zero_data_and_constant_u():
    mask, t, iu, rho0 = _idle_inputs()
    params = SolverParams()
    u0 = np.full((20, 20), 1.7)
    state = SolverState(u=u0.copy(), v=np.zeros((2, 20, 20)),
                        p=np.zeros((2, 20, 20)), q=np.zeros((4, 20, 20)),
                        u_bar=u0.copy(), v_bar=np.zeros((2, 20, 20)))
    op = precondition_steps(t, mask, params)
    for _ in range(5):
        state = primal_dual_iterate(state, op, iu, rho0, u0, params)
    assert np.array_equal(state.u, u0)
    assert np.all(state.p == 0.0) and np.all(state.q == 0.0)
    assert np.all(state.v == 0.0)


def test_pd_projection_keeps_duals_feasible():
    rng = np.random.default_rng(3)
    mask, t, _, _ = _idle_inputs()
    params = SolverParams()
    state = SolverState(u=rng.normal(size=(20, 20)) * 5,
                        v=rng.normal(size=(2, 20, 20)) * 10,
                        p=rng.normal(size=(2, 20, 20)) * 10,
                        q=rng.normal(size=(4, 20, 20)) * 10,
                        u_bar=rng.normal(size=(20, 20)) * 5,
                        v_bar=rng.normal(size=(2, 20, 20)) * 10)
    iu = rng.normal(size=(20, 20))
    rho0 = rng.normal(size=(20, 20))
    out = primal_dual_iterate(state, precondition_steps(t, mask, params), iu, rho0,
                              state.u.copy(), params)
    assert np.max(np.linalg.norm(out.p, axis=0)) <= 1.0 + 1e-12
    assert np.max(np.linalg.norm(out.q, axis=0)) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), h=st.integers(1, 13), w=st.integers(1, 13))
def test_level_operator_summation_by_parts(seed, h, w):
    # <K(u, v), (p, q)> = -<u, div(T p)> - <v, div q + p> for any mask and tensor.
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) > 0.3
    op = precondition_steps(rng.normal(size=(h, w, 3)), mask, SolverParams())
    u, v = rng.normal(size=(h, w)), rng.normal(size=(2, h, w))
    p, q = rng.normal(size=(2, h, w)), rng.normal(size=(4, h, w))
    tgu, jac = op.apply(u, v)
    div_tp, div_q = op.adjoint(p, q)
    lhs = float(np.sum(tgu * p)) + float(np.sum(jac * q))
    rhs = -float(np.sum(u * div_tp)) - float(np.sum(v * (div_q + p)))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_preconditioned_steps_positive_and_finite():
    rng = np.random.default_rng(4)
    mask = rng.random((30, 30)) > 0.2
    t = compute_tensor(rng.random((30, 30)), 9.0, 0.85, mask)
    op = precondition_steps(t, mask, SolverParams())
    for step in (op.p_step, op.u_step, op.tau_u, op.tau_v):
        assert np.all(np.isfinite(step)) and np.all(step > 0)
    assert np.isfinite(op.q_step) and op.q_step > 0


# ---------------------------------------------------------------------------
# warping


def test_warp_zero_is_identity():
    rng = np.random.default_rng(5)
    mask = np.ones((24, 24), dtype=bool)
    for img in (rng.random((24, 24)), rng.random((24, 24, 2))):  # scalar and vector
        out, ok = warp_image(img, np.zeros((24, 24, 2)), mask)
        assert ok.all()
        assert np.allclose(out, img, atol=1e-12)


def test_warp_constant_shift_on_ramp():
    g = pixel_grid(24, 24)
    img = 2.0 * g[:, :, 0]
    mask = np.ones((24, 24), dtype=bool)
    w = np.zeros((24, 24, 2))
    w[:, :, 0] = 1.0
    out, ok = warp_image(img, w, mask)
    interior = ok & (g[:, :, 0] < 21)
    assert np.allclose(out[interior], (2.0 * (g[:, :, 0] + 1.0))[interior], atol=1e-9)


def test_warp_by_ground_truth_flow_matches_reference(small_fisheye_rig, small_scene):
    # Renderer oracle: warping the calibrated second image by the exact
    # correspondence reproduces the first image up to interpolation error.
    rig = small_fisheye_rig
    rig_t = translation_only_rig(rig)
    scene = Scene(primitives=(
        Plane(point=(0.0, 0.0, 1.2), normal=(0.0, 0.0, -1.0),
              texture=ValueNoise(scale=0.6, octaves=2, seed=5, lo=0.1, hi=0.95)),))
    i0, _, m0 = render(scene, rig_t.cam0, supersample=2)
    i1, _, _ = render(scene, rig_t.cam1, pose=rig_t.pose, supersample=2)
    gt = make_ground_truth(scene, rig_t)
    out, ok = warp_image(i1, gt.correspondence, m0)
    sel = ok & gt.covisibility & m0
    r = np.hypot(*np.meshgrid(np.arange(200) - 99.5, np.arange(200) - 99.5)).T
    sel &= r < 85  # resolvable region; the rim is aliasing-limited
    rmse = np.sqrt(np.mean((out[sel] - i0[sel]) ** 2))
    assert rmse < 2.0 / 255.0


# ---------------------------------------------------------------------------
# level solves


def _rectified_setup(h, w, disparity_fn, seed=6, scale=11.0):
    """Pair where I0 sees the world grid shifted by a known disparity."""
    tex = ValueNoise(scale=scale, octaves=3, seed=seed, lo=0.05, hi=0.95,
                     persistence=0.6)
    grid = pixel_grid(h, w)
    pts1 = np.concatenate([grid, np.zeros((h, w, 1))], axis=-1)
    i1 = tex.shade(pts1)
    disp = disparity_fn(grid)
    pts0 = pts1.copy()
    pts0[:, :, 0] += disp
    i0 = tex.shade(pts0)
    mask = np.ones((h, w), dtype=bool)
    dirs = np.zeros((h, w, 2))
    dirs[:, :, 0] = 1.0
    return i0, i1, disp, mask, dirs


def test_solve_level_zero_motion():
    rng = np.random.default_rng(7)
    mask = np.ones((60, 60), dtype=bool)
    img = smooth_masked(rng.random((60, 60)), mask, 1.0)
    dirs = np.zeros((60, 60, 2))
    dirs[:, :, 0] = 1.0
    params = SolverParams(warp_iters=10, du_max=0.2, pyramid_levels=1)
    ws, _ = solve_level(img, img, dirs, mask, params, mask,
                        WarpState(u=np.zeros((60, 60)), w=np.zeros((60, 60, 2))))
    assert np.mean(np.abs(ws.u[mask]) < params.du_max) >= 0.99


def test_solve_level_accumulation_identity():
    # Replay the observed increments: u and w must equal their running sums.
    i0, i1, _, mask, dirs = _rectified_setup(40, 48, lambda g: np.full(g.shape[:2], 1.5))
    params = SolverParams(warp_iters=12, du_max=0.2, pyramid_levels=1)
    increments = []
    ws, _ = solve_level(i0, i1, dirs, mask, params, mask,
                        WarpState(u=np.zeros((40, 48)), w=np.zeros((40, 48, 2))),
                        lambda rec: increments.append((rec.du.copy(), rec.dirs.copy())))
    assert len(increments) == params.warp_iters
    u_sum = np.zeros((40, 48))
    w_sum = np.zeros((40, 48, 2))
    for du, used_dirs in increments:
        u_sum += du
        w_sum += du[..., None] * used_dirs
    assert np.max(np.abs(ws.u - u_sum)) < 1e-9
    assert np.max(np.abs(ws.w - w_sum)) < 1e-9
    assert all(np.max(np.abs(du)) <= params.du_max + 1e-15 for du, _ in increments)


def test_solve_level_step_edge_vs_exhaustive_search():
    # Brute-force oracle: per-pixel 1D photometric search along the scanline.
    h, w = 48, 120
    def step_profile(g):
        return np.where(g[:, :, 0] < 60, 2.0, 4.0)
    i0, i1, disp, mask, dirs = _rectified_setup(h, w, step_profile, seed=8, scale=9.0)
    params = SolverParams(warp_iters=50, pd_iters=10, du_max=0.2, pyramid_levels=1)
    ws, _ = solve_level(i0, i1, dirs, mask, params, mask,
                        WarpState(u=np.zeros((h, w)), w=np.zeros((h, w, 2))))

    candidates = np.arange(0.0, 6.0, 0.01)
    grid = pixel_grid(h, w)
    best = np.zeros((h, w))
    best_cost = np.full((h, w), np.inf)
    for u in candidates:
        pos = grid.copy()
        pos[:, :, 0] += u
        vals, ok = sample_bicubic(i1, pos, mask)
        cost = np.where(ok, np.abs(vals - i0), np.inf)
        better = cost < best_cost
        best = np.where(better, u, best)
        best_cost = np.where(better, cost, best_cost)

    interior = np.zeros((h, w), dtype=bool)
    interior[4:-4, 8:-8] = True
    agree = np.abs(ws.u - best) <= 0.25
    assert np.mean(agree[interior]) >= 0.95


def test_solve_level_error_decreases_over_warps():
    h, w = 48, 96
    i0, i1, disp, mask, dirs = _rectified_setup(h, w, lambda g: np.full(g.shape[:2], 3.0),
                                                seed=9, scale=13.0)
    params_step = SolverParams(warp_iters=4, du_max=0.2, pyramid_levels=1)
    state = WarpState(u=np.zeros((h, w)), w=np.zeros((h, w, 2)))
    errors = []
    interior = np.zeros((h, w), dtype=bool)
    interior[4:-4, 8:-8] = True
    for _ in range(8):
        state, _ = solve_level(i0, i1, dirs, mask, params_step, mask, state)
        errors.append(float(np.mean(np.abs(state.u - disp)[interior])))
    # Monotone decrease until the convergence plateau.
    drops = [errors[i + 1] <= errors[i] + 1e-6 for i in range(len(errors) - 1)]
    assert all(drops)
    assert errors[-1] < 0.25 * errors[0]


# ---------------------------------------------------------------------------
# pyramid solves


def test_solve_pyramid_zero_motion_pair(small_fisheye_rig, small_pair):
    # A rig with no rotation and equal intrinsics has a zero calibration
    # field, so feeding the same image twice is a genuine zero-motion pair.
    i0, _, _ = small_pair
    rig = small_fisheye_rig
    rig_t = StereoRig(rig.cam0, rig.cam0,
                      RelativePose(np.eye(3), np.array([-0.1, 0.0, 0.0])))
    params = SolverParams(warp_iters=5, pyramid_levels=3, min_width=40)
    res = solve_pyramid(i0, i0, rig_t, params)
    assert np.mean(np.abs(res.u[res.mask]) < 0.25) >= 0.99


def test_solve_pyramid_rectified_constant_disparity():
    # Classic oracle: fronto plane at f*b/4 gives exactly 4 px of disparity.
    rig = pinhole_rig(width=240, height=240, f=300.0, baseline=0.1)
    scene = plane_scene(depth=300.0 * 0.1 / 4.0,
                        texture=ValueNoise(scale=1.7, octaves=4, seed=9,
                                           lo=0.05, hi=0.95, persistence=0.65))
    i0, _, _ = render(scene, rig.cam0, supersample=2)
    i1, _, _ = render(scene, rig.cam1, pose=rig.pose, supersample=2)
    params = SolverParams(warp_iters=10, pyramid_levels=4, min_width=30)
    res = solve_pyramid(i0, i1, rig, params)
    g = np.linalg.norm(gradient(i0, res.mask), axis=-1)
    textured = res.mask & (g > 0.02)
    assert np.mean(np.abs(res.u[textured] - 4.0) < 0.5) >= 0.95


def test_solve_pyramid_dimension_check(small_fisheye_rig):
    with pytest.raises(ValueError):
        solve_pyramid(np.zeros((10, 10)), np.zeros((200, 200)),
                      small_fisheye_rig, SolverParams())


def test_energy_decreases_from_zero_init(small_fisheye_rig, small_pair):
    i0, i1, _ = small_pair
    rig = small_fisheye_rig
    params = SolverParams(warp_iters=8, pyramid_levels=3, min_width=40)
    res = solve_pyramid(i0, i1, rig, params)
    i1c, i1c_ok, _, _ = calibrate_second_image(i1, rig)
    mask = res.mask
    zeros2 = np.zeros(i0.shape + (2,))
    e0 = energy(i0, i1c, mask, np.zeros_like(i0), zeros2, zeros2, params)
    e1 = energy(i0, i1c, mask, res.u, res.v, res.w, params)
    assert e1 < e0


def _energy_reference(i0, i1c, mask, u, v, w, params):
    """The functional of the solver's docstring, one pixel at a time."""
    h, wd = mask.shape
    t = edge_tensor(i0, mask, params)

    def diff(f, i, j, di, dj):  # masked forward difference
        if i + di < h and j + dj < wd and mask[i, j] and mask[i + di, j + dj]:
            return f[i + di, j + dj] - f[i, j]
        return 0.0

    total = 0.0
    for i in range(h):
        for j in range(wd):
            if not mask[i, j]:
                continue
            warped, ok = sample_bicubic(i1c, np.array([j + w[i, j, 0], i + w[i, j, 1]]), mask)
            if not ok:
                continue
            gx, gy = diff(u, i, j, 0, 1), diff(u, i, j, 1, 0)
            a, b, c = t[i, j]
            first = math.hypot(a * gx + b * gy - v[i, j, 0], b * gx + c * gy - v[i, j, 1])
            jac = [diff(v[:, :, k], i, j, di, dj) for k in range(2)
                   for di, dj in ((0, 1), (1, 0))]
            total += (params.lam * abs(float(warped) - i0[i, j]) + params.alpha1 * first
                      + params.alpha0 * math.sqrt(sum(x * x for x in jac)))
    return total


def test_energy_matches_per_pixel_reference():
    rng = np.random.default_rng(12)
    h, w = 9, 13
    mask = rng.random((h, w)) > 0.2
    i0 = smooth_masked(rng.random((h, w)), mask, 1.0)
    i1c = rng.random((h, w))
    u = rng.normal(size=(h, w))
    v = rng.normal(size=(h, w, 2))
    warp = rng.uniform(-1.5, 1.5, size=(h, w, 2))
    params = SolverParams()
    e = energy(i0, i1c, mask, u, v, warp, params)
    assert e == pytest.approx(_energy_reference(i0, i1c, mask, u, v, warp, params),
                              rel=1e-12)


def test_solve_pyramid_dual_feasibility_diagnostics(small_fisheye_rig, small_pair):
    i0, i1, _ = small_pair
    params = SolverParams(warp_iters=3, pyramid_levels=2, min_width=40)
    peaks = []
    solve_pyramid(i0, i1, small_fisheye_rig, params, observe=lambda rec: peaks.append(
        (rec.max_p_norm, rec.max_q_norm, np.max(np.abs(rec.du)))))
    assert len(peaks) == params.warp_iters * 2
    max_p, max_q, max_du = np.max(peaks, axis=0)
    assert max_p <= 1.0 + 1e-12
    assert max_q <= 1.0 + 1e-12
    assert max_du <= params.du_max + 1e-15


def _small_unified_rig(width, height, rotvec=(0.0, 0.02, 0.005)):
    cam = UnifiedCamera(width=width, height=height, fx=0.5 * width, fy=0.5 * width,
                        cx=(width - 1) / 2.0, cy=(height - 1) / 2.0, fov=np.pi, xi=0.9)
    return StereoRig(cam, cam, RelativePose.from_displacement((0.1, 0.0, 0.0), rotvec))


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_pyramid_rejects_non_finite_pixels(which, bad):
    rig = _small_unified_rig(24, 20)
    images = [np.full((20, 24), 0.5), np.full((20, 24), 0.5)]
    images[which][7, 11] = bad
    with pytest.raises(ValueError, match=f"image {which} has non-finite pixels"):
        solve_pyramid(*images, rig, SolverParams(warp_iters=1, pyramid_levels=1))


def test_solve_pyramid_rejects_empty_solve_mask():
    # Camera 1 turned by pi about y looks away from everything camera 0
    # sees, so the calibration field is nowhere defined.
    rig = pinhole_rig(width=40, height=30)
    turned = StereoRig(rig.cam0, rig.cam1,
                       RelativePose.from_displacement((0.1, 0.0, 0.0), (0.0, np.pi, 0.0)))
    img = np.full((30, 40), 0.5)
    with pytest.raises(ValueError, match="empty solve mask"):
        solve_pyramid(img, img, turned, SolverParams(warp_iters=1, pyramid_levels=1))


def test_solve_pyramid_non_square_scenario(small_scene):
    # Odd, non-square and taller than wide: the sampler's flat-index gather
    # (row stride W) would read past the image with a stride of H.
    rig = _small_unified_rig(47, 61)
    i0, _, _ = render(small_scene, rig.cam0, supersample=2)
    i1, _, _ = render(small_scene, rig.cam1, pose=rig.pose, supersample=2)
    params = SolverParams(warp_iters=3, pyramid_levels=2, min_width=20)
    records = []
    res = solve_pyramid(i0, i1, rig, params, observe=records.append)
    assert res.u.shape == (61, 47) and res.w.shape == (61, 47, 2)
    assert res.mask.any()
    assert np.all(np.isfinite(res.u[res.mask])) and np.all(np.isfinite(res.w[res.mask]))
    assert len(records) == params.warp_iters * 2
    assert all(r.max_p_norm <= 1.0 + 1e-12 and r.max_q_norm <= 1.0 + 1e-12
               for r in records)
    assert [r.du.shape for r in records[::3]] == [(31, 24), (61, 47)]


def test_solve_pyramid_returns_calibration_field(small_fisheye_rig, small_pair):
    i0, i1, _ = small_pair
    res = solve_pyramid(i0, i1, small_fisheye_rig,
                        SolverParams(warp_iters=1, pyramid_levels=1))
    cal, cal_ok = generate_calibration_field(small_fisheye_rig)
    assert np.array_equal(res.cal, cal) and np.array_equal(res.cal_ok, cal_ok)
