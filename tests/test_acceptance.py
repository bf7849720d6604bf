"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy fixtures (default
dataset render plus six full pyramid solves) are shared across criteria, so
the module takes a few minutes end to end.
"""

import time

import numpy as np
import pytest

from fisheyestereo import evaluate, fields, kernels
from fisheyestereo.camera import RelativePose, StereoRig, UnifiedCamera, triangulate_midpoint
from fisheyestereo.fields import (depth_swept_curve, generate_trajectory_field,
                                  trace_epipolar_curves, translation_only_rig)
from fisheyestereo.rasters import divergence, gradient
from fisheyestereo.solver import LevelOperator, SolverParams, solve_pyramid
from fisheyestereo.synth import (Plane, Scene, Sphere, ValueNoise, default_rig,
                                 default_scene, make_ground_truth, pinhole_rig,
                                 render)


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def default_setup():
    rig = default_rig()
    scene = default_scene()
    i0, _, _ = render(scene, rig.cam0, supersample=2)
    i1, _, _ = render(scene, rig.cam1, pose=rig.pose, supersample=2)
    gt = make_ground_truth(scene, rig)
    cal, cal_ok = fields.generate_calibration_field(rig)
    return rig, i0, i1, gt, cal, cal_ok


@pytest.fixture(scope="module")
def solve_grid(default_setup):
    """tau>1 percentages over the acceptance grid, plus the criterion-6 run.

    The criterion-6 run also keeps, per warp iteration, the largest |p|, |q|
    and |du| (criterion 10).
    """
    rig, i0, i1, gt, cal, cal_ok = default_setup
    results = {}
    for n, du in [(2, 0.2), (5, 0.2), (10, 0.2), (50, 0.2), (50, 0.1), (50, 1.0)]:
        peaks = []

        def observe(rec):
            peaks.append((rec.max_p_norm, rec.max_q_norm, np.max(np.abs(rec.du))))

        params = SolverParams(warp_iters=n, du_max=du)
        t0 = time.perf_counter()
        res = solve_pyramid(i0, i1, rig, params,
                            observe=observe if (n, du) == (50, 0.1) else None)
        elapsed = time.perf_counter() - t0
        corr, corr_ok = fields.compose_with_calibration(res.w, cal, cal_ok)
        valid = gt.covisibility & corr_ok & res.mask
        rep = evaluate.make_report(corr, gt.correspondence, valid)
        results[(n, du)] = {"report": rep, "time": elapsed, "result": res,
                            "params": params, "peaks": peaks}
    return results


def _compiled_resolvent(u_hat, rho, iu, tau, lam):
    """The data term's closed-form step as the compiled cycle takes it, on a
    1 x n level of float32 draws.

    With T = 0, zero duals and v, and u_step = 0, one cycle moves u only
    by that step, from u_hat = u with u_omega = u, so the linearized residual
    is rho. Its weight enters as tau_u = tau * lam with lam = 1.
    """
    n = u_hat.size
    zero = np.zeros((1, n), np.float32)
    op = LevelOperator(*[zero] * 8, tau_u=(tau * lam)[None], tau_v=np.ones((1, n), np.float32))
    u = u_hat[None]
    v, q = np.zeros((2, 1, n), np.float32), np.zeros((4, 1, n), np.float32)
    out = kernels.primal_dual_cycle((u, v, v, q, u, v), op, (iu[None], rho[None], u),
                                    SolverParams(alpha0=1.0, alpha1=1.0, lam=1.0))
    return out[0][0]


def test_criterion_01_resolvent_oracle():
    # Brute-force grid minimization of the proximal objective, step 1e-4:
    # the compiled closed form must never lose by more than 1e-6 in objective
    # value and must sit within the grid's resolution of the best grid point.
    rng = np.random.default_rng(42)
    n = 10_000
    tau = rng.uniform(0.02, 1.0, n)
    lam = rng.uniform(0.05, 2.0, n)
    iu = rng.uniform(-2.0, 2.0, n)
    iu[rng.random(n) < 0.01] = 0.0
    rho = rng.uniform(-2.0, 2.0, n)
    u_hat = rng.uniform(-1.0, 1.0, n)
    # The cycle runs in float32: it takes the draws rounded to float32, and
    # the objective is evaluated in float64 on those rounded values.
    draws = [a.astype(np.float32) for a in (u_hat, rho, iu, tau, lam)]
    u_hat, rho, iu, tau, lam = (a.astype(np.float64) for a in draws)

    t0 = time.perf_counter()
    u_closed = _compiled_resolvent(*draws).astype(np.float64)

    # The minimizer lies within tau*lam*|iu| of u_hat in every case, so the
    # search radius adapts per draw; sorting groups draws of similar radius.
    step = 1e-4
    need = tau * lam * np.abs(iu) + 2 * step
    order = np.argsort(need)
    batch = 250
    worst_val = 0.0
    worst_arg = 0.0
    for lo in range(0, n, batch):
        sl = order[lo:lo + batch]
        radius = float(need[sl].max())
        offsets = np.arange(-radius, radius + step, step)
        du = offsets[None, :]
        obj = (lam[sl, None] * np.abs(rho[sl, None] + du * iu[sl, None])
               + du * du / (2 * tau[sl, None]))
        best = np.argmin(obj, axis=1)
        u_grid = u_hat[sl] + offsets[best]
        e_grid = obj[np.arange(len(sl)), best]
        e_closed = (lam[sl] * np.abs(rho[sl] + (u_closed[sl] - u_hat[sl]) * iu[sl])
                    + (u_closed[sl] - u_hat[sl]) ** 2 / (2 * tau[sl]))
        worst_val = max(worst_val, float(np.max(e_closed - e_grid)))
        worst_arg = max(worst_arg, float(np.max(np.abs(u_closed[sl] - u_grid))))
    elapsed = time.perf_counter() - t0
    ok = worst_val <= 1e-6 and worst_arg <= 1.5e-4 and elapsed < 10.0
    _announce(1, ok, f"resolvent vs grid search on {n} draws: "
                     f"max objective excess {worst_val:.2e} (<=1e-6), "
                     f"max |du| {worst_arg:.2e} (<=1.5e-4), {elapsed:.1f}s (<10s)")


def test_criterion_02_adjointness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=(32, 32))
        p = rng.normal(size=(32, 32, 2))
        mask = rng.random((32, 32)) > 0.35
        lhs = float(np.sum(gradient(u, mask) * p))
        rhs = -float(np.sum(u * divergence(p, mask)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = worst <= 1e-10
    _announce(2, ok, f"gradient/divergence adjoint identity on 100 masked "
                     f"32x32 fields: worst relative defect {worst:.2e} (<=1e-10)")


def test_criterion_03_trajectory_limit():
    rig_t = translation_only_rig(default_rig())
    d1, ok1 = generate_trajectory_field(rig_t, epsilon_scale=0.1)
    d2, ok2 = generate_trajectory_field(rig_t, epsilon_scale=0.05)
    both = ok1 & ok2
    angle = float(np.max(np.arccos(np.clip(np.sum(d1[both] * d2[both], -1), -1, 1))))

    pin = translation_only_rig(pinhole_rig())
    dp, okp = generate_trajectory_field(pin)
    horiz_dev = float(np.max(np.abs(dp[okp][:, 1])))
    ok = angle <= 1e-3 and horiz_dev <= 1e-9
    _announce(3, ok, f"epsilon halving changes directions by {angle:.2e} rad "
                     f"(<=1e-3); pinhole deviation from horizontal "
                     f"{horiz_dev:.2e} (<=1e-9)")


def _point_to_polyline(points, poly):
    a, b = poly[:-1], poly[1:]
    ab = b - a
    denom = np.maximum((ab * ab).sum(-1), 1e-30)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        t = np.clip(((p - a) * ab).sum(-1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        out[i] = np.linalg.norm(proj - p, axis=-1).min()
    return out


def test_criterion_04_curve_tracing_fidelity():
    rig_t = translation_only_rig(default_rig())
    dirs, ok = generate_trajectory_field(rig_t)
    rng = np.random.default_rng(42)
    ys, xs = np.where(ok[30:-30, 30:-30])
    sel = rng.choice(len(ys), 100, replace=False)
    starts = np.stack([xs[sel] + 30.0, ys[sel] + 30.0], axis=-1)
    verts, alive = trace_epipolar_curves(dirs, ok, starts, length=50.0, step=0.1)
    worst = 0.0
    for i in range(100):
        sweep, sok = depth_swept_curve(rig_t, starts[i],
                                       np.geomspace(1e4, 0.01, 4000))
        dist = _point_to_polyline(verts[i][alive[i]], sweep[sok])
        worst = max(worst, float(dist.max()))
    ok_flag = worst <= 0.1
    _announce(4, ok_flag, f"Euler traces vs analytic depth-swept curves over "
                          f"50 px, 100 pixels: worst deviation {worst:.3f} px (<=0.1)")


def test_criterion_05_degenerates_to_rectified(monkeypatch):
    rig = pinhole_rig(width=240, height=240, f=200.0, baseline=0.1)
    scene = Scene(primitives=(
        Plane(point=(0.0, 0.0, 2.2), normal=(0.0, 0.0, -1.0),
              texture=ValueNoise(scale=0.5, octaves=4, seed=5, lo=0.05,
                                 hi=0.95, persistence=0.65)),
        Sphere(center=(0.3, -0.25, 1.4), radius=0.35,
               texture=ValueNoise(scale=0.1, octaves=4, seed=23, lo=0.1,
                                  hi=0.9, persistence=0.65)),
    ))
    i0, _, _ = render(scene, rig.cam0, supersample=2)
    i1, _, _ = render(scene, rig.cam1, pose=rig.pose, supersample=2)

    widths = []

    def horizontal(rig_lvl):
        h, w = rig_lvl.cam0.height, rig_lvl.cam0.width
        widths.append(w)
        dirs = np.zeros((h, w, 2))
        dirs[:, :, 0] = -1.0
        return dirs, rig_lvl.cam0.fov_mask()

    params = SolverParams(warp_iters=10, pyramid_levels=4, min_width=30)
    res_a = solve_pyramid(i0, i1, rig, params)
    monkeypatch.setattr(fields, "generate_trajectory_field", horizontal)
    res_b = solve_pyramid(i0, i1, rig, params)
    assert widths == [30, 60, 120, 240]  # the substitute served every level
    du = float(np.max(np.abs(res_a.u - res_b.u)))
    dw = float(np.max(np.linalg.norm(res_a.w - res_b.w, axis=-1)))
    ok = du <= 1e-6 and dw <= 1e-6
    _announce(5, ok, f"fisheye pipeline vs hard-coded horizontal directions on "
                     f"a pinhole pair: max |du| {du:.2e}, max |dw| {dw:.2e} (<=1e-6)")


def test_criterion_06_end_to_end_accuracy(solve_grid):
    entry = solve_grid[(50, 0.1)]
    rep = entry["report"]
    ok = (rep.pct_bad[3.0] <= 8.0 and rep.pct_bad[1.0] <= 20.0
          and entry["time"] <= 120.0)
    _announce(6, ok, f"default scene, N=50, du_max=0.1: tau>3 "
                     f"{rep.pct_bad[3.0]:.2f}% (<=8%), tau>1 "
                     f"{rep.pct_bad[1.0]:.2f}% (<=20%), solve "
                     f"{entry['time']:.0f}s (<=120s)")


def test_criterion_07_warp_iteration_trend(solve_grid):
    errs = [solve_grid[(n, 0.2)]["report"].pct_bad[1.0] for n in (2, 5, 10, 50)]
    ok = all(errs[i] > errs[i + 1] for i in range(3))
    _announce(7, ok, "tau>1 over N=(2,5,10,50) at du_max=0.2: "
                     + " > ".join(f"{e:.2f}%" for e in errs)
                     + (" strictly decreasing" if ok else " NOT monotone"))


def test_criterion_08_clipping_effect(solve_grid):
    tight = solve_grid[(50, 0.1)]["report"].pct_bad[1.0]
    loose = solve_grid[(50, 1.0)]["report"].pct_bad[1.0]
    ok = tight < loose
    _announce(8, ok, f"N=50: tau>1 at du_max=0.1 is {tight:.2f}% vs "
                     f"{loose:.2f}% at du_max=1.0 (must be lower)")


def test_criterion_09_triangulation():
    rig = StereoRig(
        UnifiedCamera(width=400, height=400, fx=200.0, fy=200.0, cx=199.5,
                      cy=199.5, fov=np.pi, xi=0.9),
        UnifiedCamera(width=400, height=400, fx=200.0, fy=200.0, cx=200.5,
                      cy=200.0, fov=np.pi, xi=0.9),
        RelativePose.from_displacement((0.1, 0.0, 0.0), rotvec=(0.0, 0.035, 0.009)),
    )
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.2, 1.2, size=(4000, 3))
    pts[:, 2] = rng.uniform(0.3, 4.0, size=4000)
    x0, ok0 = rig.cam0.project(pts)
    x1, ok1 = rig.cam1.project(rig.pose.transform(pts))
    sel = ok0 & ok1
    sel &= np.linalg.norm(np.where(sel[:, None], x1 - x0, 0.0), axis=-1) > 0.5
    idx = np.where(sel)[0][:1000]
    assert len(idx) == 1000
    depth, okt = triangulate_midpoint(rig, x0[idx], x1[idx])
    truth = np.linalg.norm(pts[idx], axis=-1)
    rel = float(np.max(np.abs(depth - truth) / truth)) if okt.all() else np.inf

    zero_depth, zero_ok = triangulate_midpoint(
        pinhole_rig(), np.array([200.0, 200.0]), np.array([200.0, 200.0]))
    ok = okt.all() and rel <= 1e-6 and not bool(zero_ok) and np.isnan(zero_depth)
    _announce(9, ok, f"1000 exact correspondences: worst relative depth error "
                     f"{rel:.2e} (<=1e-6); zero disparity reports invalid")


def test_criterion_10_solver_invariants(solve_grid):
    entry = solve_grid[(50, 0.1)]
    p_max, q_max, du_max = np.max(entry["peaks"], axis=0)
    n_iter = len(entry["peaks"]) * entry["params"].pd_iters
    ok = p_max <= 1.0 + 1e-12 and q_max <= 1.0 + 1e-12 and du_max <= 0.1 + 1e-15
    _announce(10, ok, f"criterion-6 run, {n_iter} primal-dual iterations: "
                      f"max |p| {p_max:.15f}, max |q| {q_max:.15f} (<=1), "
                      f"max |du| {du_max:.3f} (<=du_max)")
