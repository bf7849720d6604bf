import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo.camera import (PinholeCamera, PolynomialFisheyeCamera, RelativePose,
                                  StereoRig, UnifiedCamera, rig_from_dict, rig_to_dict)
from fisheyestereo.evaluate import erroneous_percentage
from fisheyestereo.fields import (compose_with_calibration, generate_calibration_field,
                                  translation_only_rig, unit_directions)
from fisheyestereo import fields, kernels, solver
from fisheyestereo.rasters import (backward_divergence, build_pyramid, edge_indicators,
                                   forward_difference, gradient, pixel_grid, sample_bicubic,
                                   smooth_masked, upsample_state, warp_image)
from fisheyestereo.solver import (LevelOperator, SolverParams, calibrate_second_image,
                                  compute_tensor, edge_tensor, energy,
                                  image_derivative_along, precondition_steps, solve_level,
                                  solve_pyramid, thresholding_step)
from fisheyestereo.synth import (Plane, Scene, Sphere, ValueNoise, default_rig,
                                 default_scene, make_ground_truth, pinhole_rig,
                                 plane_scene, render)

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


# A SolverParams field and a value of the wrong type for it.
PARAMS_WRONG_TYPES = [
    ("warp_iters", 2.5), ("warp_iters", True), ("warp_iters", "5"), ("pd_iters", 10.0),
    ("min_width", None), ("lam", "5"), ("lam", False), ("du_max", [0.2]),
]


@pytest.mark.parametrize("name, value", PARAMS_WRONG_TYPES)
def test_params_reject_wrong_types(name, value):
    with pytest.raises(ValueError, match=name):
        SolverParams.from_dict({name: value})


@pytest.mark.parametrize("name", ["lam", "alpha0", "alpha1", "du_max"])
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
    t = compute_tensor(np.full((12, 12), 0.5), mask)
    assert np.allclose(t[:, :, 0], 1.0, atol=0)
    assert np.allclose(t[:, :, 1], 0.0, atol=0)
    assert np.allclose(t[:, :, 2], 1.0, atol=0)


def test_tensor_unit_gradient_ramp():
    # Oracle: direct formula evaluation, T = diag(exp(-beta), 1) for g=(1,0).
    g = pixel_grid(12, 12)
    mask = np.ones((12, 12), dtype=bool)
    t = compute_tensor(g[:, :, 0], mask)
    interior = t[3:-3, 3:-3]
    assert np.allclose(interior[:, :, 0], E_MINUS_9, rtol=1e-12)
    assert np.allclose(interior[:, :, 1], 0.0, atol=1e-15)
    assert np.allclose(interior[:, :, 2], 1.0, atol=1e-15)


def test_tensor_spectrum_on_random_image():
    rng = np.random.default_rng(0)
    img = rng.random((24, 24))
    mask = np.ones((24, 24), dtype=bool)
    t = compute_tensor(img, mask)
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
    iu, ok = image_derivative_along(dirs, np.full((16, 16), 0.3), mask)
    assert np.all(iu[ok] == 0.0)


def test_image_derivative_ramp():
    g = pixel_grid(16, 16)
    img = 2.0 * g[:, :, 0]
    mask = np.ones((16, 16), dtype=bool)
    dirs = np.zeros((16, 16, 2))
    dirs[:, :, 0] = 1.0
    iu, ok = image_derivative_along(dirs, img, mask)
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
    iu, ok = image_derivative_along(dirs, img, mask)
    grid = pixel_grid(64, 64)
    ahead, _ = sample_bicubic(img, grid + np.array([1.0, 0.0]), mask)
    behind, _ = sample_bicubic(img, grid - np.array([1.0, 0.0]), mask)
    central = (ahead - behind) / 2.0
    interior = np.zeros_like(mask)
    interior[10:-10, 10:-10] = True
    # Forward secant vs central difference of the same profile: the gap is
    # the second-derivative term, small on a heavily smoothed image.
    assert np.max(np.abs(iu - central)[interior & ok]) < 1e-3 * 30


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 12), w=st.integers(1, 12))
def test_image_derivative_never_reads_off_valid(seed, h, w):
    # The warp step (and `_numpy_warp_step`, its reference) hands over the
    # sampler's i1w, NaN off valid, unzeroed, and relies on a zero direction
    # giving an exact +0 derivative.
    rng = np.random.default_rng(seed)
    valid = rng.random((h, w)) < rng.choice([0.5, 0.9, 1.0])
    angle = rng.uniform(0.0, 2.0 * np.pi, (h, w))
    dirs = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    dirs[rng.random((h, w)) < 0.3] = 0.0
    i1w = rng.random((h, w))
    iu, ok = image_derivative_along(dirs, np.where(valid, i1w, 0.0), valid)
    iu_nan, ok_nan = image_derivative_along(dirs, np.where(valid, i1w, np.nan), valid)
    assert np.array_equal(ok, ok_nan) and iu.tobytes() == iu_nan.tobytes()
    assert not ok[~valid].any()
    still = ~ok | np.all(dirs == 0.0, axis=-1)
    assert np.all(iu[still] == 0.0) and not np.signbit(iu[still]).any()


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


def _thresholding_masked_divide(u_hat, rho_hat, iu, tau_u, lam):
    """The data step in its earlier form: a masked divide into a zeroed
    buffer, and the steps where iu == 0 reset to +0 afterwards."""
    clamp = tau_u * lam * iu
    th = clamp * iu
    nz = iu != 0
    shrink = np.zeros_like(u_hat)
    np.divide(rho_hat, iu, out=shrink, where=nz)
    step = np.where(rho_hat < -th, clamp, np.where(rho_hat > th, -clamp, -shrink))
    np.copyto(step, 0.0, where=~nz)
    return u_hat + step


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_ENTRY = st.tuples(
    st.one_of(_SIGNED_ZERO, st.floats(-1e3, 1e3)),                      # u_hat
    st.floats(-1e3, 1e3),                                               # rho_hat
    st.one_of(_SIGNED_ZERO, st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)),  # iu
    st.floats(1e-4, 1e2),                                               # tau_u
    st.sampled_from(["free", "+th", "-th", "nan"]),                     # rho_hat case
)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=150, deadline=None)
@given(entries=st.lists(_ENTRY, min_size=1, max_size=40), lam=st.floats(0.05, 10.0))
def test_thresholding_matches_masked_divide_bits(dtype, entries, lam):
    u_hat, rho, iu, tau, case = (np.array(c) for c in zip(*entries))
    u_hat, rho, iu, tau = (a.astype(dtype) for a in (u_hat, rho, iu, tau))
    # The case boundaries |rho_hat| = tau*lam*iu^2, rounded as the step rounds them.
    th = tau * lam * iu * iu
    rho = np.select([case == "+th", case == "-th", case == "nan"], [th, -th, np.nan], rho)
    rho = rho.astype(dtype)
    got = thresholding_step(u_hat, rho, iu, tau, lam)
    want = _thresholding_masked_divide(u_hat, rho, iu, tau, lam)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# primal-dual iteration


def _idle_inputs(h=20, w=20):
    mask = np.ones((h, w), dtype=bool)
    t = compute_tensor(np.full((h, w), 0.5), mask)
    iu = np.zeros((h, w), dtype=np.float32)
    rho0 = np.zeros((h, w), dtype=np.float32)
    return mask, t, iu, rho0


def test_pd_stationary_at_zero_data_and_constant_u():
    mask, t, iu, rho0 = _idle_inputs()
    params = SolverParams()
    u0 = np.full((20, 20), 1.7, dtype=np.float32)
    v, p, q = (np.zeros((n, 20, 20), dtype=np.float32) for n in (2, 2, 4))
    state = (u0.copy(), v, p, q, u0.copy(), v)
    op = _cast_operator(precondition_steps(t, mask, params), np.float32)
    for _ in range(5):
        state = kernels.primal_dual_cycle(state, op, (iu, rho0, u0), params)
    u, v, p, q = state[:4]
    assert np.array_equal(u, u0)
    assert np.all(p == 0.0) and np.all(q == 0.0)
    assert np.all(v == 0.0)


def _cast_operator(op, dtype):
    return LevelOperator(**{k: np.asarray(x, dtype=dtype) for k, x in vars(op).items()})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_and_cycle_keep_input_dtype(dtype):
    # One float64 temporary would promote the whole cycle back to float64.
    # The difference kernels and K keep either dtype; the compiled cycle runs
    # in float32 alone.
    rng = np.random.default_rng(4)
    h, w = 9, 11
    mask = rng.random((h, w)) > 0.2
    op = _cast_operator(precondition_steps(rng.normal(size=(h, w, 3)), mask,
                                           SolverParams()), dtype)
    u, iu, rho0 = (rng.normal(size=(h, w)).astype(dtype) for _ in range(3))
    v, p = (rng.normal(size=(2, h, w)).astype(dtype) for _ in range(2))
    q = rng.normal(size=(4, h, w)).astype(dtype)
    outputs = [forward_difference(u, op.ex, op.ey), forward_difference(v, op.ex, op.ey),
               backward_divergence(p, op.ex, op.ey),
               backward_divergence(q.reshape(2, 2, h, w), op.ex, op.ey),
               *op.apply(u, v)]
    assert [a.dtype for a in outputs] == [np.dtype(dtype)] * 6
    if dtype == np.float32:
        cycle = kernels.primal_dual_cycle((u, v, p, q, u, v), op, (iu, rho0, u),
                                          SolverParams())
        assert [a.dtype for a in cycle] == [np.dtype(np.float32)] * 6


_DUAL_SCALES = (0.0, 1e-20, 1e-3, 1.0, 1.5, 1e3, 1e15)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), on_ball=st.floats(0.0, 1.0), still=st.booleans())
def test_pd_float32_projection_lands_in_unit_ball(seed, on_ball, still):
    # Duals of huge, tiny and unit norm; `still` zeroes K's input, so duals
    # set exactly on the ball reach the projection unchanged.
    rng = np.random.default_rng(seed)
    mask, t, _, _ = _idle_inputs(8, 8)
    op = _cast_operator(precondition_steps(t, mask, SolverParams()), np.float32)

    def duals(nc):
        x = rng.normal(size=(nc, 8, 8)) * rng.choice(_DUAL_SCALES, size=(8, 8))
        unit = rng.normal(size=(nc, 8, 8))
        unit /= np.linalg.norm(unit, axis=0)
        return np.where(rng.random((8, 8)) < on_ball, unit, x).astype(np.float32)

    u, iu, rho0 = (rng.normal(size=(8, 8)).astype(np.float32) for _ in range(3))
    v = rng.normal(size=(2, 8, 8)).astype(np.float32)
    u_bar, v_bar = (np.zeros_like(u), np.zeros_like(v)) if still else (u, v)
    _, _, p, q, _, _ = kernels.primal_dual_cycle((u, v, duals(2), duals(4), u_bar, v_bar), op,
                                                 (iu, rho0, u), SolverParams())
    assert p.dtype == q.dtype == np.float32
    assert np.max(np.linalg.norm(p.astype(np.float64), axis=0)) <= 1.0 + 1e-12
    assert np.max(np.linalg.norm(q.astype(np.float64), axis=0)) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), h=st.integers(1, 13), w=st.integers(1, 13))
def test_level_operator_summation_by_parts(seed, h, w):
    # <K(u, v), (p, q)> = -<u, div(T p)> - <v, div q + p> for any mask and
    # tensor, with div q as the reference cycle takes it.
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) > 0.3
    op = precondition_steps(rng.normal(size=(h, w, 3)), mask, SolverParams())
    u, v = rng.normal(size=(h, w)), rng.normal(size=(2, h, w))
    p, q = rng.normal(size=(2, h, w)), rng.normal(size=(4, h, w))
    tgu, jac = op.apply(u, v)
    div_tp = _tensor_divergence(op, p)
    div_q = backward_divergence(q.reshape(2, 2, h, w), op.ex, op.ey)
    lhs = float(np.sum(tgu * p)) + float(np.sum(jac * q))
    rhs = -float(np.sum(u * div_tp)) - float(np.sum(v * (div_q + p)))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _tensor_divergence(op, p):
    """div(T p) with the folded operator: the negative adjoint of T grad."""
    one = np.ones_like(op.ex)
    return backward_divergence(np.stack([op.a_ex * p[0] + op.b_ex * p[1],
                                         op.b_ey * p[0] + op.c_ey * p[1]]), one, one)


def _project_unit_ball(x):
    """Scale each pixel of a channel-first dual back into the unit ball, with
    the norm inflated by 4 units in the last place (`PROJECTION_SCALE` in
    kernels.c)."""
    n = x[0] * x[0]
    for c in x[1:]:
        n += c * c
    n = np.sqrt(n)
    n *= 1.0 + 4 * np.finfo(x.dtype).eps
    return x / np.maximum(n, 1.0)


def _reference_cycle(state, t, mask, op, iu, rho0, u_omega, params):
    """One primal-dual cycle with K written out: masked differences first,
    then the tensor, then the steps (the operator before its folding)."""
    u, v, p, q, u_bar, v_bar = state
    dtype = u.dtype
    ex, ey = (e.astype(dtype) for e in edge_indicators(mask))
    a, b, c = (t[..., k].astype(dtype) for k in range(3))
    h, w = mask.shape

    def tensor(x):
        return np.stack([a * x[0] + b * x[1], b * x[0] + c * x[1]])

    kp = tensor(forward_difference(u_bar, ex, ey)) - v_bar
    kq = forward_difference(v_bar, ex, ey).reshape(4, h, w)
    p = _project_unit_ball(p + op.p_step * kp)
    q = _project_unit_ball(q + 0.5 * kq)
    div_tp = backward_divergence(tensor(p), ex, ey)
    div_q = backward_divergence(q.reshape(2, 2, h, w), ex, ey)
    u_hat = u + op.u_step * div_tp
    u_new = thresholding_step(u_hat, rho0 + (u_hat - u_omega) * iu, iu, op.tau_u, params.lam)
    v_new = v + op.tau_v * (params.alpha0 * div_q + params.alpha1 * p)
    return u_new, v_new, p, q, u_new + (u_new - u), v_new + (v_new - v)


def _random_cycle(rng, h, w, dtype, density):
    """(state, t, mask, op, iu, rho0, u_omega) of one random cycle; `state` is
    the (u, v, p, q, u_bar, v_bar) tuple that `kernels.primal_dual_cycle` takes."""
    mask = rng.random((h, w)) < density
    t = compute_tensor(rng.random((h, w)), mask)
    op = _cast_operator(precondition_steps(t, mask, SolverParams()), dtype)

    def draw(*shape):
        # Many signed zeros: a cycle that dropped one of NumPy's 0 + x adds
        # (which turn -0 into +0) shows only where zeros meet.
        x = (rng.normal(size=shape) * 3).astype(dtype)
        zero = rng.random(shape) < 0.3
        x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
        return x

    u = draw(h, w)
    state = (u, draw(2, h, w), draw(2, h, w), draw(4, h, w), draw(h, w), draw(2, h, w))
    iu, rho0 = draw(h, w), draw(h, w)
    return state, t, mask, op, iu, rho0, u


def _numpy_cycle(state, op, iu, rho0, u_omega, params):
    """The cycle as NumPy ran it before it was compiled: the folded operator
    and the compiled loops' order of operations, so that every bit matches,
    signed zeros included. (The unfolded reference multiplies by the edge
    indicators at other points, which can flip the sign of a zero.)"""
    u, v, p, q, u_bar, v_bar = state
    h, w = u.shape
    kp = op._tensor_gradient(u_bar) - v_bar
    p = _project_unit_ball(p + op.p_step * kp)
    kq = forward_difference(v_bar, 0.5 * op.ex, 0.5 * op.ey).reshape(4, h, w)
    q = _project_unit_ball(kq + q)
    u_hat = u + op.u_step * _tensor_divergence(op, p)
    u_new = thresholding_step(u_hat, rho0 + (u_hat - u_omega) * iu, iu, op.tau_u, params.lam)
    q2 = q.reshape(2, 2, h, w)
    div_q = backward_divergence(q2, op.ex, op.ey)
    v_new = v + (div_q * params.alpha0 + p * params.alpha1) * op.tau_v
    return u_new, v_new, p, q, u_new + (u_new - u), (v_new - v) + v_new


def _assert_same_state(out, ref, dtype, signed_zeros=True):
    for name, got, want in zip(("u", "v", "p", "q", "u_bar", "v_bar"), out, ref, strict=True):
        assert got.dtype == dtype
        assert np.array_equal(got, want), name
        if signed_zeros:
            assert np.array_equal(np.signbit(got), np.signbit(want)), name


def _assert_matches_references(state, t, mask, op, iu, rho0, u, dtype):
    params = SolverParams()
    out = kernels.primal_dual_cycle(state, op, (iu, rho0, u), params)
    _assert_same_state(out, _numpy_cycle(state, op, iu, rho0, u, params), dtype)
    _assert_same_state(out, _reference_cycle(state, t, mask, op, iu, rho0, u, params), dtype,
                       signed_zeros=False)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 13), w=st.integers(1, 13))
def test_pd_cycle_matches_unfolded_reference(seed, h, w):
    rng = np.random.default_rng(seed)
    cycle = _random_cycle(rng, h, w, np.float32, rng.choice([0.6, 0.9, 1.0]))
    _assert_matches_references(*cycle, np.float32)


@pytest.mark.parametrize("density", [0.6, 0.9, 1.0])
@pytest.mark.parametrize("h, w", [(160, 150), (131, 200)])
def test_pd_cycle_matches_references_on_long_rows(density, h, w):
    # Rows long enough for the compiled loops' vector bodies and tails: the
    # cycle matches the unfolded reference and the NumPy cycle
    # (`_numpy_cycle`) bit for bit.
    rng = np.random.default_rng(h * w + int(10 * density))
    _assert_matches_references(*_random_cycle(rng, h, w, np.float32, density), np.float32)


def test_compiled_adjoint_matches_level_operator():
    # With u = u_bar = v = v_bar = 0, p_step = 0, u_step = tau_v = 1,
    # alpha0 = alpha1 = 1 and iu = 0, one cycle keeps duals inside the unit
    # ball as they are and returns u = div(T p) and v = div q + p, that is
    # minus K*(p, q). Quarter-integer tensors and eighth-integer duals make
    # every operation exact, so it equals K^T (p, q) built column by column
    # from `LevelOperator.apply`.
    rng = np.random.default_rng(11)
    for h, w in [(1, 1), (1, 6), (5, 1), (5, 7), (6, 6)]:
        mask = rng.random((h, w)) < 0.8
        t = rng.integers(-4, 5, size=(h, w, 3)) / 4.0
        ex, ey = edge_indicators(mask)
        zero, one = np.zeros((h, w)), np.ones((h, w))
        op = LevelOperator(ex=ex, ey=ey, a_ex=t[..., 0] * ex, b_ex=t[..., 1] * ex,
                           b_ey=t[..., 1] * ey, c_ey=t[..., 2] * ey, p_step=zero,
                           u_step=one, tau_u=one, tau_v=one)
        p = rng.integers(-3, 4, size=(2, h, w)) / 8.0
        q = rng.integers(-3, 4, size=(4, h, w)) / 8.0

        def adjoint(u, v):
            kp, kq = op.apply(u, v)
            return float(np.sum(kp * p) + np.sum(kq * q))

        basis = np.eye(3 * h * w)
        want_u = [adjoint(e[:h * w].reshape(h, w), e[h * w:].reshape(2, h, w))
                  for e in basis[:h * w]]
        want_v = [adjoint(e[:h * w].reshape(h, w), e[h * w:].reshape(2, h, w))
                  for e in basis[h * w:]]

        u0, v0 = np.zeros((h, w), np.float32), np.zeros((2, h, w), np.float32)
        p32, q32 = p.astype(np.float32), q.astype(np.float32)
        u, v, p_out, q_out, _, _ = kernels.primal_dual_cycle(
            (u0, v0, p32, q32, u0, v0), _cast_operator(op, np.float32), (u0, u0, u0),
            SolverParams(alpha0=1.0, alpha1=1.0, lam=1.0))
        assert np.array_equal(p_out, p32) and np.array_equal(q_out, q32)
        assert np.array_equal(-u, np.reshape(want_u, (h, w)))
        assert np.array_equal(-v, np.reshape(want_v, (2, h, w)))


def _max_norm(x):
    """Largest channel norm of a channel-first dual, in float64."""
    x = x.astype(np.float64)
    s = x[0] * x[0]
    for c in x[1:]:
        s += c * c
    return float(np.max(np.sqrt(s), initial=0.0))


def _numpy_warp_step(i0, i1, traj, traj_valid, mask, op, params, u, w, v, p, q):
    """One warp iteration as `solve_level` ran it before the warp step was
    compiled, with the NumPy cycle (`_numpy_cycle`). Returns (u, w, v, p, q,
    du, dirs, iu, data_ok, max_p_norm, max_q_norm)."""
    pos = pixel_grid(*mask.shape) + w
    i1w, warp_ok = kernels.sample_bicubic(i1, pos, mask)
    dirs, dir_ok = kernels.sample_bicubic(traj, pos, traj_valid)
    dirs, dir_ok = unit_directions(dirs, dir_ok & mask)
    iu, iu_ok = image_derivative_along(dirs, i1w, warp_ok & mask)
    data_ok = iu_ok & dir_ok
    iu = iu.astype(np.float32)
    rho0 = np.where(data_ok, i1w - i0, 0.0).astype(np.float32)
    u32 = u.astype(np.float32)
    state = (u32, v, p, q, u32, v)
    norms = []
    for _ in range(params.pd_iters):
        state = _numpy_cycle(state, op, iu, rho0, u32, params)
        norms.append((_max_norm(state[2]), _max_norm(state[3])))
    max_p, max_q = np.max(norms, axis=0)
    u_new, v, p, q = state[:4]
    du = np.where(mask, np.clip((u_new - u32).astype(np.float64),
                                -params.du_max, params.du_max), 0.0)
    return (u + du, w + du[..., None] * dirs, v, p, q, du, dirs, iu, data_ok, max_p, max_q)


def _signed_zeros(rng, x, frac=0.3):
    zero = rng.random(x.shape) < frac
    x[zero] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zero]
    return x


def _nan_signless_bits(a):
    """The bytes of `a` with every NaN made +NaN. A NaN of the compiled cycle's
    u may differ from NumPy's in its sign bit, and u, w and du inherit it:
    gcc may commute the operands of a float add, which picks the NaN that
    the sum keeps."""
    return (np.where(np.isnan(a), np.nan, a) if a.dtype.kind == "f" else a).tobytes()


def _random_warp_level(seed, h, w, pd_iters, nan_p_at=None):
    """The arguments of a `WarpLevel` and the (u, w, v, p, q) that one step
    starts from, drawn from `seed`.

    Masks and trajectory fields with holes give rim and empty stencils;
    warps up to 3 px reach past the image; directions of norm 0, under and
    over 0.5 test the renormalization; signed zeros everywhere. `nan_p_at`
    puts a NaN into p's first channel at that pixel.
    """
    rng = np.random.default_rng(seed)
    params = SolverParams(pd_iters=pd_iters, du_max=rng.choice([0.05, 0.2, 1.0]))
    mask = rng.random((h, w)) < rng.choice([0.5, 0.9, 1.0])
    traj_valid = rng.random((h, w)) < rng.choice([0.5, 0.9, 1.0])
    i0, i1 = rng.random((h, w)), rng.random((h, w))
    angle = rng.uniform(0.0, 2.0 * np.pi, (h, w))
    length = rng.choice([0.0, 0.3, 0.5, 1.0, 1.7], size=(h, w))
    traj = _signed_zeros(rng, np.stack([np.cos(angle), np.sin(angle)], axis=-1)
                         * length[..., None])
    u = _signed_zeros(rng, rng.normal(size=(h, w)))
    warp = _signed_zeros(rng, rng.uniform(-3.0, 3.0, size=(h, w, 2)))
    v, p = (_signed_zeros(rng, rng.normal(size=(2, h, w)).astype(np.float32)) for _ in range(2))
    q = _signed_zeros(rng, rng.normal(size=(4, h, w)).astype(np.float32))
    if nan_p_at is not None:
        p[(0,) + nan_p_at] = np.nan
    op = _cast_operator(precondition_steps(solver.edge_tensor(i0, mask), mask, params),
                        np.float32)
    return (i0, i1, traj, traj_valid, mask, op, params), (u, warp, v, p, q)


def _assert_warp_step_matches_numpy(seed, h, w, pd_iters, nan_p_at=None):
    # On `_random_warp_level`'s inputs. Returns the step's dual norms.
    (i0, i1, traj, traj_valid, mask, op, params), (u, warp, v, p, q) = _random_warp_level(
        seed, h, w, pd_iters, nan_p_at)
    want = _numpy_warp_step(i0, i1, traj, traj_valid, mask, op, params, u, warp, v, p, q)
    outputs = {}
    for observe in (True, False):
        level = kernels.WarpLevel(i0, i1, traj, traj_valid, mask, op, params)
        for dual, start in zip(level.duals, (v, p, q)):
            dual[...] = start
        u_out, w_out = u.copy(), warp.copy()
        record = level.step(u_out, w_out, observe=observe)
        outputs[observe] = [a.tobytes() for a in (u_out, w_out, *level.duals)]
        if observe:
            *arrays, max_p, max_q = record
            got = (u_out, w_out, *level.duals, *arrays, np.float64(max_p), np.float64(max_q))
            names = ("u", "w", "v", "p", "q", "du", "dirs", "iu", "data_ok", "max_p", "max_q")
            for name, a, b in zip(names, got, want):
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert _nan_signless_bits(a) == _nan_signless_bits(b), name
        else:
            assert record is None
    # Observing changes nothing the solve carries on with.
    assert outputs[True] == outputs[False]
    return max_p, max_q


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 16), w=st.integers(1, 16),
       pd_iters=st.sampled_from([1, 3, 10]))
def test_warp_step_matches_numpy_warp_step(seed, h, w, pd_iters):
    _assert_warp_step_matches_numpy(seed, h, w, pd_iters)


def test_warp_step_matches_numpy_at_every_size():
    # Every height and width up to 16, so both bands of the warp step meet
    # every split: even and odd heights, and 1- and 2-row levels where a band
    # is empty or one row.
    for h in range(1, 17):
        for w in range(1, 17):
            _assert_warp_step_matches_numpy(16 * h + w, h, w, 3)


def test_warp_step_matches_numpy_across_sampler_chunks():
    # Rows of 150 pixels: the sampler's chunks of 64 positions and a tail of
    # 22, each with runs of full stencils long enough for the vector sums.
    _assert_warp_step_matches_numpy(22, 9, 150, 2)


def _observed_warp_step(level_args, start):
    """All that one observed warp step returns and leaves."""
    u, warp, *duals = (a.copy() for a in start)
    level = kernels.WarpLevel(*level_args)
    for dual, x in zip(level.duals, duals):
        dual[...] = x
    return (u, warp, *level.step(u, warp, observe=True), *level.duals)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 16), w=st.integers(1, 70),
       pd_iters=st.sampled_from([1, 3, 10]))
def test_warp_step_same_bits_in_both_builds(in_both_builds, seed, h, w, pd_iters):
    # The inputs of test_warp_step_matches_numpy_warp_step, rows up to 70
    # wide so that the sampler's chunks split them, compared byte for byte.
    level_args, start = _random_warp_level(seed, h, w, pd_iters)
    base, avx2 = in_both_builds(lambda: _observed_warp_step(level_args, start))
    assert base == avx2


def test_solve_same_bits_in_both_builds(in_both_builds, small_fisheye_rig, small_pair):
    i0, i1, _ = small_pair

    def solve():
        res = solve_pyramid(i0, i1, small_fisheye_rig,
                            SolverParams(warp_iters=3, pyramid_levels=2, min_width=40))
        return res.u, res.w

    base, avx2 = in_both_builds(solve)
    assert base == avx2


@pytest.mark.parametrize("row", [1, 6], ids=["top-band", "bottom-band"])
def test_warp_step_norm_is_nan_for_a_nan_dual_in_either_band(row):
    # Of an 8-row level, rows 0-3 form the top band and rows 4-7 the bottom
    # one (with one CPU, one band holds all). A NaN put into p in either band
    # stays NaN through one cycle, so the p norm is NaN, while q, which one
    # cycle computes from v_bar and q alone, keeps a finite norm.
    max_p, max_q = _assert_warp_step_matches_numpy(7, 8, 5, 1, nan_p_at=(row, 2))
    assert np.isnan(max_p) and np.isfinite(max_q)


def _thread_count():
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_warp_step_leaves_no_thread_behind(small_fisheye_rig, small_pair):
    # Every warp step joins the thread it starts before it returns. The
    # kernel may list a joined thread a moment longer, until it reaps it; a
    # thread that still runs is listed for good.
    i0, i1, _ = small_pair
    before = _thread_count()
    solve_pyramid(i0, i1, small_fisheye_rig,
                  SolverParams(warp_iters=2, pyramid_levels=2, min_width=40))
    deadline = time.monotonic() + 5.0
    while _thread_count() != before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _thread_count() == before


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two CPUs")
def test_warp_step_one_band_matches_two(small_fisheye_rig, small_pair):
    # Pinned to one CPU, the warp step runs its level as one band; else as
    # two. Every output and every record of the solve is the same.
    i0, i1, _ = small_pair
    params = SolverParams(warp_iters=3, pyramid_levels=2, min_width=40)

    def solve():
        records = []
        res = solve_pyramid(i0, i1, small_fisheye_rig, params, observe=records.append)
        return [a.tobytes() for a in (res.u, res.w, res.v)] + [
            [np.asarray(x).tobytes() for x in vars(rec).values()] for rec in records]

    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        one_band = solve()
    finally:
        os.sched_setaffinity(0, cpus)
    assert os.sched_getaffinity(0) == cpus
    assert solve() == one_band


def test_warp_level_rejects_mismatched_arrays():
    # The warp step reads raw pointers: the level converts its images and
    # masks, then checks every shape; the operator and the state must match.
    h, w = 6, 5
    mask = np.ones((h, w), dtype=bool)
    image, traj = np.zeros((h, w)), np.zeros((h, w, 2))
    op = LevelOperator(*[np.zeros((h, w), np.float32)] * 10)
    args = dict(i0=image, i1=image, traj_dirs=traj, traj_valid=mask, mask=mask, op=op,
                params=SolverParams(pd_iters=2))
    level = kernels.WarpLevel(**args)
    for change, message in [
        ({"mask": mask[None]}, "mask must be \\(H, W\\)"),
        ({"i1": image[:, :4]}, "i1 must have shape \\(6, 5\\)"),
        ({"traj_dirs": image}, "traj_dirs must have shape \\(6, 5, 2\\)"),
        ({"traj_valid": mask.T}, "traj_valid must have shape \\(6, 5\\)"),
        ({"op": LevelOperator(**{**vars(op), "tau_v": op.tau_v.astype(np.float64)})},
         "tau_v must be .* float32"),
    ]:
        with pytest.raises(ValueError, match=message):
            kernels.WarpLevel(**{**args, **change})
    u, wv = np.zeros((h, w)), np.zeros((h, w, 2))
    for bad_u, bad_w, message in [
        (u.astype(np.float32), wv, "u must be .* float64"),
        (u, wv[:, :, :1], "w must be .* shape \\(6, 5, 2\\)"),
        (np.asfortranarray(u), wv, "u must be .* non-contiguous"),
        (np.broadcast_to(0.0, (h, w)), wv, "u must be"),
    ]:
        with pytest.raises(ValueError, match=message):
            level.step(bad_u, bad_w)
    read_only = u.copy()
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        level.step(read_only, wv)


def test_cycle_rejects_wrong_shapes_and_mixed_dtypes():
    # The compiled cycle reads raw pointers: every array is checked first.
    rng = np.random.default_rng(9)
    state, _, _, op, iu, rho0, u = _random_cycle(rng, 6, 5, np.float32, 0.9)
    params, data = SolverParams(), (iu, rho0, u)
    bad_state = state[:3] + (state[3][:2],) + state[4:]
    with pytest.raises(ValueError, match="q must be .* shape \\(4, 6, 5\\)"):
        kernels.primal_dual_cycle(bad_state, op, data, params)
    mixed = LevelOperator(**{**vars(op), "tau_v": op.tau_v.astype(np.float64)})
    with pytest.raises(ValueError, match="tau_v must be .* float32"):
        kernels.primal_dual_cycle(state, mixed, data, params)
    # The cycle is compiled for float32 alone: a float64 state or operator
    # never reaches it.
    state64 = tuple(a.astype(np.float64) for a in state)
    with pytest.raises(ValueError, match="u must be .* float32"):
        kernels.primal_dual_cycle(state64, op, data, params)
    with pytest.raises(ValueError, match="ex must be .* float32"):
        kernels.primal_dual_cycle(state, _cast_operator(op, np.float64), data, params)
    with pytest.raises(ValueError, match="iu must be .* non-contiguous"):
        kernels.primal_dual_cycle(state, op, (np.asfortranarray(iu), rho0, u), params)


def test_folded_operator_fields_vanish_exactly_off_the_edges():
    rng = np.random.default_rng(8)
    mask = rng.random((17, 13)) > 0.3
    t = rng.normal(size=(17, 13, 3))
    op = precondition_steps(t, mask, SolverParams())
    ex, ey = edge_indicators(mask)
    assert np.array_equal(op.ex, ex) and np.array_equal(op.ey, ey)
    for folded, edges, factor in ((op.a_ex, ex, t[..., 0]), (op.b_ex, ex, t[..., 1]),
                                  (op.b_ey, ey, t[..., 1]), (op.c_ey, ey, t[..., 2])):
        assert np.array_equal(folded == 0, edges == 0)
        assert np.array_equal(folded, np.where(edges == 1, factor, 0.0))


def test_preconditioned_steps_positive_and_finite():
    rng = np.random.default_rng(4)
    mask = rng.random((30, 30)) > 0.2
    t = compute_tensor(rng.random((30, 30)), mask)
    op = precondition_steps(t, mask, SolverParams())
    for step in (op.p_step, op.u_step, op.tau_u, op.tau_v):
        assert np.all(np.isfinite(step)) and np.all(step > 0)


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
    u, _, _ = solve_level(img, img, dirs, mask, params, mask,
                          np.zeros((60, 60)), np.zeros((60, 60, 2)))
    assert np.mean(np.abs(u[mask]) < params.du_max) >= 0.99


def test_solve_level_accumulation_identity():
    # Replay the observed increments: u and w must equal their running sums.
    i0, i1, _, mask, dirs = _rectified_setup(40, 48, lambda g: np.full(g.shape[:2], 1.5))
    params = SolverParams(warp_iters=12, du_max=0.2, pyramid_levels=1)
    increments = []
    u, w, _ = solve_level(i0, i1, dirs, mask, params, mask,
                          np.zeros((40, 48)), np.zeros((40, 48, 2)),
                          lambda rec: increments.append((rec.du.copy(), rec.dirs.copy())))
    assert len(increments) == params.warp_iters
    u_sum = np.zeros((40, 48))
    w_sum = np.zeros((40, 48, 2))
    for du, used_dirs in increments:
        u_sum += du
        w_sum += du[..., None] * used_dirs
    assert np.max(np.abs(u - u_sum)) < 1e-9
    assert np.max(np.abs(w - w_sum)) < 1e-9
    assert all(np.max(np.abs(du)) <= params.du_max + 1e-15 for du, _ in increments)


def test_solve_level_never_writes_its_inputs():
    # Read-only inputs make any in-place write raise; the observer's arrays
    # must stay as they were handed over.
    i0, i1, _, mask, dirs = _rectified_setup(24, 32, lambda g: np.full(g.shape[:2], 1.0))
    u0 = np.full((24, 32), 0.3)
    w0 = np.zeros((24, 32, 2))
    w0[:, :, 0] = 0.3
    inputs = (i0, i1, dirs, mask, u0, w0)
    before = [a.copy() for a in inputs]
    for a in inputs:
        a.flags.writeable = False
    records = []
    u, w, v = solve_level(i0, i1, dirs, mask, SolverParams(warp_iters=3, pyramid_levels=1),
                          mask, u0, w0, lambda rec: records.append((rec, rec.du.copy())))
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
    assert all(np.array_equal(rec.du, du) for rec, du in records)
    assert u.shape == (24, 32) and w.shape == v.shape == (24, 32, 2)


def test_solve_level_cycles_in_float32_and_returns_float64(monkeypatch):
    i0, i1, _, mask, dirs = _rectified_setup(24, 32, lambda g: np.full(g.shape[:2], 1.0))
    levels = []

    class Level(kernels.WarpLevel):
        def __init__(self, *args):
            super().__init__(*args)
            levels.append((args[5], self))

    monkeypatch.setattr(kernels, "WarpLevel", Level)
    records = []
    u, w, v = solve_level(i0, i1, dirs, mask, SolverParams(warp_iters=2, pyramid_levels=1),
                          mask, np.zeros((24, 32)), np.zeros((24, 32, 2)), records.append)
    ((op, level),) = levels
    cycle = [*vars(op).values(), *level.states[0], *level.states[1], level.iu]
    assert {a.dtype for a in cycle} == {np.dtype(np.float32)}
    assert u.dtype == w.dtype == v.dtype == np.float64
    assert all(rec.du.dtype == rec.dirs.dtype == np.float64 for rec in records)
    assert all(rec.iu.dtype == np.float32 for rec in records)


def test_solve_level_makes_one_compiled_call_per_warp(monkeypatch):
    # The level is set up once (the tap-count maps of the mask and of the
    # trajectory field's valid map); then each warp iteration is one call.
    lib = kernels._library()
    calls = []

    class Counting:
        def __getattr__(self, name):
            def call(*args):
                calls.append(name)
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(kernels, "_library", Counting)
    i0, i1, _, mask, dirs = _rectified_setup(24, 32, lambda g: np.full(g.shape[:2], 1.0))
    solve_level(i0, i1, dirs, mask, SolverParams(warp_iters=3, pyramid_levels=1), mask,
                np.zeros((24, 32)), np.zeros((24, 32, 2)))
    assert calls == ["tap_counts"] * 2 + ["warp_step"] * 3


def test_solve_level_step_edge_vs_exhaustive_search():
    # Brute-force oracle: per-pixel 1D photometric search along the scanline.
    h, w = 48, 120
    def step_profile(g):
        return np.where(g[:, :, 0] < 60, 2.0, 4.0)
    i0, i1, disp, mask, dirs = _rectified_setup(h, w, step_profile, seed=8, scale=9.0)
    params = SolverParams(warp_iters=50, pd_iters=10, du_max=0.2, pyramid_levels=1)
    u_est, _, _ = solve_level(i0, i1, dirs, mask, params, mask,
                              np.zeros((h, w)), np.zeros((h, w, 2)))

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
    agree = np.abs(u_est - best) <= 0.25
    assert np.mean(agree[interior]) >= 0.95


def test_solve_level_error_decreases_over_warps():
    h, w = 48, 96
    i0, i1, disp, mask, dirs = _rectified_setup(h, w, lambda g: np.full(g.shape[:2], 3.0),
                                                seed=9, scale=13.0)
    params_step = SolverParams(warp_iters=4, du_max=0.2, pyramid_levels=1)
    u, warp = np.zeros((h, w)), np.zeros((h, w, 2))
    errors = []
    interior = np.zeros((h, w), dtype=bool)
    interior[4:-4, 8:-8] = True
    for _ in range(8):
        u, warp, _ = solve_level(i0, i1, dirs, mask, params_step, mask, u, warp)
        errors.append(float(np.mean(np.abs(u - disp)[interior])))
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
    t = edge_tensor(i0, mask)

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


# Per lens: model, focal length (px), fov (deg) and lens parameters.
_LENSES = {
    "unified": (UnifiedCamera, 45.0, 180.0, {"xi": 0.9}),
    "polynomial": (PolynomialFisheyeCamera, 30.0, 190.0, {"k": (1.0, -0.05, 0.003, 0.0)}),
    "pinhole": (PinholeCamera, 40.0, 140.0, {}),
}
# Lateral, forward and diagonal baselines; the last two put the epipole in
# the view.
_BASELINES = {"x": (0.1, 0.0, 0.0), "z": (0.0, 0.0, 0.1), "xz": (0.0707, 0.0, 0.0707)}
# tau>1 and tau>3 (%) as measured per lens and baseline; each is pinned
# _ERROR_MARGIN percentage points above. The pinhole is weak under the
# forward baseline: its large offsets, away from the epipole, come out too
# small. That is pinned here, not mended.
_ERRORS = {
    ("unified", "x"): (3.98, 0.71), ("unified", "z"): (3.10, 0.00),
    ("unified", "xz"): (2.99, 0.00),
    ("polynomial", "x"): (6.88, 2.64), ("polynomial", "z"): (4.78, 0.00),
    ("polynomial", "xz"): (5.37, 0.00),
    ("pinhole", "x"): (14.66, 9.73), ("pinhole", "z"): (34.40, 9.63),
    ("pinhole", "xz"): (25.44, 2.70),
}
_ERROR_MARGIN = 1.0


# The lateral cells keep the lens alone as their id.
@pytest.mark.parametrize("lens, baseline", [
    pytest.param(lens, baseline, id=lens if baseline == "x" else f"{lens}-{baseline}")
    for lens, baseline in _ERRORS])
def test_solve_pyramid_each_lens_model(lens, baseline):
    model, f, fov_deg, params = _LENSES[lens]
    cam = model(width=117, height=91, fx=f, fy=f, cx=58.0, cy=45.0,
                fov=np.deg2rad(fov_deg), **params)
    rig = StereoRig(cam, cam, RelativePose.from_displacement(_BASELINES[baseline],
                                                             (0.0, 0.02, 0.005)))
    scene = default_scene()
    i0, _, _ = render(scene, cam, supersample=2)
    i1, _, _ = render(scene, cam, pose=rig.pose, supersample=2)
    records = []
    res = solve_pyramid(i0, i1, rig, SolverParams(warp_iters=10, pyramid_levels=2,
                                                  min_width=40), observe=records.append)
    assert res.mask.any()
    assert np.all(np.isfinite(res.u[res.mask])) and np.all(np.isfinite(res.w[res.mask]))
    assert all(r.max_p_norm <= 1.0 + 1e-12 and r.max_q_norm <= 1.0 + 1e-12
               for r in records)
    gt = make_ground_truth(scene, rig)
    corr, corr_ok = compose_with_calibration(res.w, res.cal, res.cal_ok)
    valid = gt.covisibility & corr_ok & res.mask
    err = np.linalg.norm(corr - gt.correspondence, axis=-1)
    tau1, tau3 = _ERRORS[lens, baseline]
    assert erroneous_percentage(err, valid, 1.0) < tau1 + _ERROR_MARGIN
    assert erroneous_percentage(err, valid, 3.0) < tau3 + _ERROR_MARGIN


@pytest.mark.parametrize("size", range(1, 9))
def test_solve_pyramid_tiny_default_rig_is_one_level(size):
    # Narrower than min_width (50), so the pyramid is the finest level alone.
    rig = default_rig()
    rig = StereoRig(rig.cam0.scaled_to((size, size)), rig.cam1.scaled_to((size, size)),
                    rig.pose)
    scene = default_scene()
    i0, _, _ = render(scene, rig.cam0)
    i1, _, _ = render(scene, rig.cam1, pose=rig.pose)
    records = []
    res = solve_pyramid(i0, i1, rig, SolverParams(warp_iters=3), observe=records.append)
    assert res.mask.any()
    assert [r.du.shape for r in records] == [(size, size)] * 3
    assert np.all(np.isfinite(res.u)) and np.all(np.isfinite(res.w))


def test_empty_level_mask_solves_to_zero():
    # One pixel of a 64x64 mask, at even coordinates whose halves are odd:
    # the nearest-pixel downsampling keeps it at 32x32 and loses it below.
    mask = np.zeros((64, 64), dtype=bool)
    mask[38, 22] = True
    pair = np.random.default_rng(5).random((64, 64, 2))
    pyr = build_pyramid(pair, mask, levels=4, min_width=4)
    assert [int(m.sum()) for _, m in pyr] == [0, 0, 1, 1]
    params = SolverParams(warp_iters=2, pd_iters=3)
    prev_mask = None
    # filterwarnings = error (pyproject.toml): a warning anywhere fails the test.
    for level, level_mask in pyr:
        shape = level_mask.shape
        dirs = np.zeros(shape + (2,))
        dirs[..., 0] = 1.0
        if prev_mask is None:
            u, w = np.zeros(shape), np.zeros(shape + (2,))
        else:
            u, w = upsample_state(u, w, prev_mask, level_mask)
        records = []
        u, w, v = solve_level(level[..., 0], level[..., 1], dirs, np.ones(shape, dtype=bool),
                              params, level_mask, u, w, records.append)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(w)) and np.all(np.isfinite(v))
        if not level_mask.any():
            assert not u.any() and not w.any() and not v.any()
            assert all(r.max_p_norm == 0.0 and r.max_q_norm == 0.0 for r in records)
        prev_mask = level_mask


def test_solve_pyramid_returns_calibration_field(small_fisheye_rig, small_pair):
    i0, i1, _ = small_pair
    res = solve_pyramid(i0, i1, small_fisheye_rig,
                        SolverParams(warp_iters=1, pyramid_levels=1))
    cal, cal_ok = generate_calibration_field(small_fisheye_rig)
    assert np.array_equal(res.cal, cal) and np.array_equal(res.cal_ok, cal_ok)


def test_solve_pyramid_builds_the_rig_fields_once(small_fisheye_rig, small_pair, monkeypatch):
    # A rig read back from its JSON is the same rig: the second solve builds
    # neither field (no projection through `fields._flow`) and gives the
    # same bits.
    i0, i1, _ = small_pair
    params = SolverParams(warp_iters=2, pyramid_levels=2)
    fields.generate_calibration_field.cache_clear()
    fields._trajectory_field.cache_clear()
    flows = []
    flow = fields._flow
    monkeypatch.setattr(fields, "_flow", lambda *a: flows.append(1) or flow(*a))
    first = solve_pyramid(i0, i1, small_fisheye_rig, params)
    built = len(flows)
    assert built == 1 + 2 * 2  # the calibration, and two probes per level
    second = solve_pyramid(i0, i1, rig_from_dict(rig_to_dict(small_fisheye_rig)), params)
    assert len(flows) == built
    for name in ("u", "w", "v", "mask"):
        assert getattr(second, name).tobytes() == getattr(first, name).tobytes()


def test_patched_trajectory_generator_serves_a_cached_rig(small_fisheye_rig, small_pair,
                                                          monkeypatch):
    # Patching the module attribute replaces the cache with it: after an
    # unpatched solve of the rig, the substitute still serves every level.
    i0, i1, _ = small_pair
    params = SolverParams(warp_iters=2, pyramid_levels=2)
    solve_pyramid(i0, i1, small_fisheye_rig, params)
    widths = []

    def horizontal(rig_lvl):
        widths.append(rig_lvl.cam0.width)
        dirs = np.zeros((rig_lvl.cam0.height, rig_lvl.cam0.width, 2))
        dirs[:, :, 0] = -1.0
        return dirs, rig_lvl.cam0.fov_mask()

    monkeypatch.setattr(fields, "generate_trajectory_field", horizontal)
    solve_pyramid(i0, i1, small_fisheye_rig, params)
    assert widths == [100, 200]
