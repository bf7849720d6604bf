import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo.camera import (PinholeCamera, PolynomialFisheyeCamera, RelativePose,
                                  StereoRig, UnifiedCamera)
from fisheyestereo.evaluate import erroneous_percentage
from fisheyestereo.fields import (compose_with_calibration, generate_calibration_field,
                                  translation_only_rig)
from fisheyestereo import solver
from fisheyestereo.rasters import (backward_divergence, build_pyramid, edge_indicators,
                                   forward_difference, gradient, pixel_grid, sample_bicubic,
                                   smooth_masked, upsample_state, warp_image)
from fisheyestereo.solver import (LevelOperator, SolverParams, SolverState,
                                  calibrate_second_image,
                                  compute_tensor, edge_tensor, energy,
                                  image_derivative_along, precondition_steps,
                                  primal_dual_iterate, solve_level,
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
    for theta in (-3.0, -1e-9, 1.5):
        with pytest.raises(ValueError, match="theta"):
            SolverParams(theta=theta)
    assert SolverParams(theta=0).theta == 0 and SolverParams(theta=1.0).theta == 1.0


# A SolverParams field and a value of the wrong type for it.
PARAMS_WRONG_TYPES = [
    ("warp_iters", 2.5), ("warp_iters", True), ("warp_iters", "5"), ("pd_iters", 10.0),
    ("min_width", None), ("lam", "5"), ("lam", False), ("du_max", [0.2]),
]


@pytest.mark.parametrize("name, value", PARAMS_WRONG_TYPES)
def test_params_reject_wrong_types(name, value):
    with pytest.raises(ValueError, match=name):
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
    # solve_level hands over the sampler's i1w, NaN off valid, unzeroed, and
    # relies on a zero direction giving an exact +0 derivative.
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


def _cast_operator(op, dtype):
    return LevelOperator(**{k: np.asarray(x, dtype=dtype) for k, x in vars(op).items()})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_and_cycle_keep_input_dtype(dtype):
    # One float64 temporary would promote the whole cycle back to float64.
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
               *op.apply(u, v), *op.adjoint(p, q)]
    state = SolverState(u=u, v=v, p=p, q=q, u_bar=u, v_bar=v)
    outputs += vars(primal_dual_iterate(state, op, iu, rho0, u, SolverParams())).values()
    assert [a.dtype for a in outputs] == [np.dtype(dtype)] * 14


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
    state = SolverState(u=u, v=v, p=duals(2), q=duals(4), u_bar=u_bar, v_bar=v_bar)
    out = primal_dual_iterate(state, op, iu, rho0, u, SolverParams())
    assert out.p.dtype == out.q.dtype == np.float32
    assert np.max(np.linalg.norm(out.p.astype(np.float64), axis=0)) <= 1.0 + 1e-12
    assert np.max(np.linalg.norm(out.q.astype(np.float64), axis=0)) <= 1.0 + 1e-12


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


def _reference_cycle(state, t, mask, op, iu, rho0, u_omega, params):
    """One primal-dual cycle with K written out: masked differences first,
    then the tensor, then the steps (the operator before its folding)."""
    dtype = state.u.dtype
    ex, ey = (e.astype(dtype) for e in edge_indicators(mask))
    a, b, c = (t[..., k].astype(dtype) for k in range(3))
    h, w = mask.shape

    def tensor(x):
        return np.stack([a * x[0] + b * x[1], b * x[0] + c * x[1]])

    kp = tensor(forward_difference(state.u_bar, ex, ey)) - state.v_bar
    kq = forward_difference(state.v_bar, ex, ey).reshape(4, h, w)
    p = solver._project_unit_ball(state.p + op.p_step * kp)
    q = solver._project_unit_ball(state.q + op.q_step * kq)
    div_tp = backward_divergence(tensor(p), ex, ey)
    div_q = backward_divergence(q.reshape(2, 2, h, w), ex, ey)
    u_hat = state.u + op.u_step * div_tp
    u_new = thresholding_step(u_hat, rho0 + (u_hat - u_omega) * iu, iu, op.tau_u, params.lam)
    v_new = state.v + op.tau_v * (params.alpha0 * div_q + params.alpha1 * p)
    return SolverState(u=u_new, v=v_new, p=p, q=q,
                       u_bar=u_new + params.theta * (u_new - state.u),
                       v_bar=v_new + params.theta * (v_new - state.v))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 13), w=st.integers(1, 13))
def test_pd_cycle_matches_unfolded_reference(dtype, seed, h, w):
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) < rng.choice([0.6, 0.9, 1.0])
    t = compute_tensor(rng.random((h, w)), 9.0, 0.85, mask)
    params = SolverParams(theta=rng.choice([0.5, 1.0]))
    op = _cast_operator(precondition_steps(t, mask, params), dtype)

    def draw(*shape):
        return (rng.normal(size=shape) * 3).astype(dtype)

    u = draw(h, w)
    state = SolverState(u=u, v=draw(2, h, w), p=draw(2, h, w), q=draw(4, h, w),
                        u_bar=draw(h, w), v_bar=draw(2, h, w))
    iu, rho0 = draw(h, w), draw(h, w)
    iu[rng.random((h, w)) < 0.2] = 0
    out = primal_dual_iterate(state, op, iu, rho0, u, params)
    ref = _reference_cycle(state, t, mask, op, iu, rho0, u, params)
    for name, value in vars(ref).items():
        assert getattr(out, name).dtype == dtype
        assert np.array_equal(getattr(out, name), value), name


def test_folded_operator_fields_vanish_exactly_off_the_edges():
    rng = np.random.default_rng(8)
    mask = rng.random((17, 13)) > 0.3
    t = rng.normal(size=(17, 13, 3))
    op = precondition_steps(t, mask, SolverParams())
    ex, ey = edge_indicators(mask)
    assert np.array_equal(op.ex, ex) and np.array_equal(op.ey, ey)
    for folded, edges, factor in ((op.a_ex, ex, t[..., 0]), (op.b_ex, ex, t[..., 1]),
                                  (op.b_ey, ey, t[..., 1]), (op.c_ey, ey, t[..., 2]),
                                  (op.q_ex, ex, op.q_step), (op.q_ey, ey, op.q_step)):
        assert np.array_equal(folded == 0, edges == 0)
        assert np.array_equal(folded, np.where(edges == 1, factor, 0.0))


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
    seen = []

    def iterate(state, op, iu, rho0, u_omega, params):
        arrays = [*vars(state).values(), *vars(op).values(), iu, rho0, u_omega]
        seen.extend(np.asarray(a).dtype for a in arrays)
        return primal_dual_iterate(state, op, iu, rho0, u_omega, params)

    monkeypatch.setattr(solver, "primal_dual_iterate", iterate)
    records = []
    u, w, v = solve_level(i0, i1, dirs, mask, SolverParams(warp_iters=2, pyramid_levels=1),
                          mask, np.zeros((24, 32)), np.zeros((24, 32, 2)), records.append)
    assert seen and set(seen) == {np.dtype(np.float32)}
    assert u.dtype == w.dtype == v.dtype == np.float64
    assert all(rec.du.dtype == rec.dirs.dtype == np.float64 for rec in records)


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


# Per lens: model, focal length (px), fov (deg), lens parameters, and the
# tau>3 bound, 1 percentage point above the measured 0.71 / 2.64 / 9.73 %.
_LENSES = {
    "unified": (UnifiedCamera, 45.0, 180.0, {"xi": 0.9}, 1.71),
    "polynomial": (PolynomialFisheyeCamera, 30.0, 190.0, {"k": (1.0, -0.05, 0.003, 0.0)}, 3.64),
    "pinhole": (PinholeCamera, 40.0, 140.0, {}, 10.73),
}


@pytest.mark.parametrize("lens", list(_LENSES))
def test_solve_pyramid_each_lens_model(lens):
    model, f, fov_deg, params, bound = _LENSES[lens]
    cam = model(width=117, height=91, fx=f, fy=f, cx=58.0, cy=45.0,
                fov=np.deg2rad(fov_deg), **params)
    rig = StereoRig(cam, cam, RelativePose.from_displacement((0.1, 0.0, 0.0),
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
    assert erroneous_percentage(err, valid, 3.0) < bound


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
    pyr = build_pyramid(pair, mask, levels=4, scale=2.0, min_width=4)
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
            u, w = upsample_state(u, w, prev_mask, shape, level_mask)
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
