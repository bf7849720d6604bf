"""Executable walkthrough: the full pipeline on a 16x16 toy problem.

Generates a markdown document plus every intermediate raster (PFM + PNG) for
a tiny fisheye pair, from calibration field through trajectory tracing,
tensor, linearization, and a handful of primal-dual steps. All numbers in the
document are produced by the library at generation time, so the walkthrough
cannot drift from the code.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluate, fields, formats, solver, synth
from .camera import RelativePose, StereoRig, UnifiedCamera
from .rasters import vector_norm


def _toy_rig() -> StereoRig:
    cam = UnifiedCamera(width=16, height=16, fx=8.0, fy=8.0, cx=7.5, cy=7.5,
                        fov=np.deg2rad(170.0), xi=0.8)
    pose = RelativePose.from_displacement((0.06, 0.012, 0.0),
                                          rotvec=(0.0, 0.02, 0.0))
    return StereoRig(cam, cam, pose)


def _toy_scene() -> synth.Scene:
    return synth.Scene(primitives=(
        synth.Sphere(center=(0.0, 0.0, 0.0), radius=4.0,
                     texture=synth.ValueNoise(scale=1.0, octaves=2, seed=3,
                                              lo=0.2, hi=0.9)),
        synth.Plane(point=(0.0, 0.0, 1.2), normal=(0.0, 0.0, -1.0),
                    texture=synth.ValueNoise(scale=0.3, octaves=2, seed=9,
                                             lo=0.1, hi=0.95)),
    ))


def _save(out: Path, name: str, data, valid=None):
    if data.ndim == 3:
        formats.write_vector_pfm(out / f"{name}.pfm", data[:, :, :2],
                                 third=valid)
        mag = vector_norm(data[:, :, :2])
    else:
        formats.write_pfm(out / f"{name}.pfm", data)
        mag = data
    v = valid if valid is not None else np.ones(mag.shape, dtype=bool)
    formats.write_png(out / f"{name}.png", evaluate.colorize(mag, v.astype(bool)))


def generate_walkthrough(out_dir) -> Path:
    """Write the walkthrough document and all intermediate rasters.

    Returns the path of the generated markdown file. Deterministic: repeated
    runs produce byte-identical artifacts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rig = _toy_rig()
    scene = _toy_scene()
    lines = ["# Pipeline walkthrough (16x16 toy problem)", ""]

    # 1. synthetic input pair
    i0, depth0, m0 = synth.render(scene, rig.cam0)
    i1, _, _ = synth.render(scene, rig.cam1, pose=rig.pose)
    gt = synth.make_ground_truth(scene, rig)
    formats.write_pgm(out / "image0.pgm", i0)
    formats.write_pgm(out / "image1.pgm", i1)
    _save(out, "depth0", depth0, m0)
    lines += [
        "## 1. Inputs",
        f"Rendered a {rig.cam0.width}x{rig.cam0.height} fisheye pair "
        f"(baseline {rig.baseline:.3f} m). Scene depth spans "
        f"[{depth0[m0].min():.3f}, {depth0[m0].max():.3f}] m.",
        "Files: `image0.pgm`, `image1.pgm`, `depth0.pfm`.", "",
    ]

    # 2. calibration field: remove rotation + intrinsic differences
    i1c, i1c_ok, cal, cal_ok = solver.calibrate_second_image(i1, rig)
    _save(out, "calibration_field", cal, cal_ok)
    cal_mag = vector_norm(cal)
    lines += [
        "## 2. Calibration field",
        "Rotation-only flow warping image 1 into a translation-only rig; "
        f"magnitude range [{cal_mag[cal_ok].min():.3f}, {cal_mag[cal_ok].max():.3f}] px.",
        "File: `calibration_field.pfm`.", "",
    ]
    _save(out, "image1_calibrated", i1c, i1c_ok)

    # 3. trajectory field and a traced epipolar curve
    rig_t = fields.translation_only_rig(rig)
    traj, traj_ok = fields.generate_trajectory_field(rig_t)
    _save(out, "trajectory_field", traj, traj_ok)
    start = np.array([4.0, 8.0])
    poly = fields.trace_epipolar_curve(traj, traj_ok, start, length=5.0, step=0.5)
    sweep, sweep_ok = fields.depth_swept_curve(rig_t, start,
                                               np.geomspace(50.0, 0.3, 400))
    overlay = np.stack([np.clip(i0 * 255, 0, 255).astype(np.uint8)] * 3, axis=-1)
    for px, py in poly:
        overlay[int(round(py)) % 16, int(round(px)) % 16] = (255, 40, 40)
    formats.write_png(out / "epipolar_trace_overlay.png", overlay)
    sweep_pts = sweep[sweep_ok]
    dists = [float(np.min(vector_norm(sweep_pts - v))) for v in poly]
    lines += [
        "## 3. Trajectory field and curve tracing",
        f"Unit epipolar tangents cover {int(traj_ok.sum())} pixels. Euler "
        f"trace from ({start[0]:.0f}, {start[1]:.0f}) over {len(poly) - 1} "
        f"segments stays within {max(dists):.4f} px of the exact depth-swept "
        "curve.",
        "Files: `trajectory_field.pfm`, `epipolar_trace_overlay.png`.", "",
    ]

    # 4. anisotropy tensor and the linearized residual
    mask = m0 & i1c_ok
    params = solver.SolverParams(warp_iters=4, pyramid_levels=1)
    tens = solver.edge_tensor(i0, mask)
    _save(out, "tensor_across_edge_weight", tens[:, :, 0], mask)
    # I_u at the zero warp: the first warp iteration's record, as the solver
    # linearizes it.
    records = []
    solver.solve_level(i0, i1c, traj, traj_ok, replace(params, warp_iters=1), mask,
                       np.zeros(i0.shape), np.zeros(i0.shape + (2,)), records.append)
    _save(out, "image_derivative", records[0].iu, records[0].data_ok)
    rho0 = np.where(mask, i1c - i0, 0.0)
    _save(out, "residual_initial", rho0, mask)
    lines += [
        "## 4. Edge tensor and linearization",
        f"Across-edge eigenvalue range "
        f"[{tens[:, :, 0][mask].min():.4f}, {tens[:, :, 0][mask].max():.4f}]; "
        f"initial |residual| mean {np.abs(rho0[mask]).mean():.4f}.",
        "Files: `tensor_across_edge_weight.pfm`, `image_derivative.pfm`, "
        "`residual_initial.pfm`.", "",
    ]

    # 5. a short solve: warping loop with primal-dual inner iterations
    e0 = solver.energy(i0, i1c, mask, np.zeros_like(i0),
                       np.zeros(i0.shape + (2,)), np.zeros(i0.shape + (2,)), params)
    peaks = []  # per warp iteration: max |p|, max |q|, max |du|
    result = solver.solve_pyramid(i0, i1, rig, params, observe=lambda rec: peaks.append(
        (rec.max_p_norm, rec.max_q_norm, float(np.max(np.abs(rec.du))))))
    max_p, max_q, max_du = np.max(peaks, axis=0)
    e1 = solver.energy(i0, i1c, mask, result.u, result.v, result.w, params)
    _save(out, "disparity", result.u, result.mask)
    _save(out, "warp", result.w, result.mask)
    # result.w points into the calibrated image 1; ground truth is in camera 1.
    corr, corr_ok = result.correspondence()
    scored = gt.covisibility & corr_ok
    err = evaluate.correspondence_error(corr, gt.correspondence, scored)
    _save(out, "correspondence_error", err, scored)
    lines += [
        "## 5. Optimization",
        f"{params.warp_iters} warp iterations x {params.pd_iters} primal-dual "
        f"cycles. Energy {'dropped' if e1 < e0 else 'rose'} from {e0:.4f} to "
        f"{e1:.4f}; dual norms peaked at {max_p:.6f} (p) and {max_q:.6f} (q); "
        f"largest increment {max_du:.3f} px against the "
        f"{params.du_max:.2f} px clip.",
        f"Mean correspondence error vs ground truth: "
        f"{err[scored].mean():.4f} px.",
        "Files: `disparity.pfm`, `warp.pfm`, `correspondence_error.pfm`.", "",
    ]

    doc = out / "walkthrough.md"
    doc.write_text("\n".join(lines))
    (out / "walkthrough_summary.json").write_text(json.dumps({
        "energy_zero_init": e0,
        "energy_final": e1,
        "trace_max_dist_px": max(dists),
        "mean_error_px": float(err[scored].mean()),
    }, indent=2) + "\n")
    return doc
