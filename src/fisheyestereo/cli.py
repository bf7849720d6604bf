"""Command-line front end: render | fields | stereo | eval | sweep.

Every command is deterministic given its config and seed (timing columns in
sweep tables excepted) and echoes the fully resolved configuration next to
its outputs, so runs can be reproduced from the output directory alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import evaluate, fields, formats, solver, synth
from .camera import StereoRig, load_rig, rig_to_dict, save_rig
from .kernels import KernelCompileError
from .schema import POSITIVE


class CommandError(Exception):
    """User-facing failure: message is printed and the exit code is nonzero."""


def _read(what: str, path, reader):
    """`reader(Path(path))`, with a missing path or a file that `reader` cannot
    read (KeyError, OSError, TypeError, ValueError) as a CommandError naming it
    once: the reason drops the copy of the path that starts a `formats`
    message or ends an OSError's."""
    path = Path(path)
    try:
        if not path.exists():
            raise CommandError(f"{what} not found: {path}")
        return reader(path)
    except KeyError as exc:
        raise CommandError(f"{what} {path} is missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        reason = str(exc).removeprefix(f"{path}: ").removesuffix(f": {str(path)!r}")
        raise CommandError(f"bad {what} {path}: {reason}") from None


def _load_rig_arg(spec: str) -> StereoRig:
    if spec == "default":
        return synth.default_rig()
    if spec == "pinhole":
        return synth.pinhole_rig()
    return _read("rig file", spec, load_rig)


def _load_scene_arg(spec: str) -> synth.Scene:
    if spec == "default":
        return synth.default_scene()
    if spec == "plane":
        return synth.plane_scene()
    return _read("scene file", spec,
                 lambda p: synth.scene_from_dict(json.loads(p.read_text())))


def _out_dir(spec: str) -> Path:
    path = Path(spec)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandError(f"cannot create output directory {path}: {exc}")
    return path


_PARAM_FIELDS = {f.name: f for f in dataclass_fields(solver.SolverParams)}


def _resolve_params(args) -> solver.SolverParams:
    """Defaults < `--config` file < flags; bad keys or values are a CommandError."""
    values = solver.SolverParams().to_dict()
    if args.config:
        values = _read("config file", args.config,
                       lambda p: {**values, **json.loads(p.read_text())})
    for name in _PARAM_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    try:
        return solver.SolverParams.from_dict(values)
    except ValueError as exc:
        raise CommandError(f"invalid solver parameters: {exc}") from None


def _number_list(flag: str, text: str, kind, check) -> list:
    """Parse `flag`'s comma-separated numbers; an entry that `kind` cannot read
    or that `check` rejects (by ValueError) is a CommandError."""
    try:
        values = [kind(v) for v in text.split(",")]
        for value in values:
            check(value)
    except ValueError as exc:
        raise CommandError(f"bad {flag} {text!r}: {exc}") from None
    return values


def _add_param_flags(p: argparse.ArgumentParser, names=tuple(_PARAM_FIELDS)) -> None:
    """One flag per named `SolverParams` field, e.g. --warp-iters for warp_iters."""
    for name in names:
        f = _PARAM_FIELDS[name]
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=type(f.default),
                       help=f"{f.metadata['help']} (default {f.default})")


def cmd_render(args) -> int:
    if args.seed < 0:
        raise CommandError(f"--seed must be >= 0, got {args.seed}")
    rig = _load_rig_arg(args.rig)
    scene = synth.reseed_scene(_load_scene_arg(args.scene), args.seed)
    try:
        img0, _, _ = synth.render(scene, rig.cam0, noise_sigma=args.noise,
                                  noise_seed=args.seed, supersample=args.supersample)
        img1, _, _ = synth.render(scene, rig.cam1, pose=rig.pose,
                                  noise_sigma=args.noise, noise_seed=args.seed + 1,
                                  supersample=args.supersample)
    except ValueError as exc:
        raise CommandError(f"cannot render: {exc}") from None
    gt = synth.make_ground_truth(scene, rig)

    out = _out_dir(args.out)
    formats.write_pgm(out / "image0.pgm", img0)
    formats.write_pgm(out / "image1.pgm", img1)
    formats.write_pfm(out / "depth0.pfm", gt.depth0)
    formats.write_vector_pfm(out / "correspondence.pfm", gt.correspondence,
                             third=gt.covisibility)
    save_rig(out / "rig.json", rig)
    manifest = {
        "image0": "image0.pgm",
        "image1": "image1.pgm",
        "depth0": "depth0.pfm",
        "correspondence": "correspondence.pfm",
        "rig": "rig.json",
        "seed": args.seed,
        "noise_sigma": args.noise,
        "supersample": args.supersample,
        "scene": synth.scene_to_dict(scene),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote dataset to {out}")
    return 0


def cmd_fields(args) -> int:
    rig = _load_rig_arg(args.rig)
    cal, cal_ok = fields.generate_calibration_field(rig)
    try:
        traj, traj_ok = fields.generate_trajectory_field(fields.translation_only_rig(rig))
    except ValueError as exc:
        raise CommandError(f"cannot generate fields: {exc}") from None

    out = _out_dir(args.out)
    formats.write_vector_pfm(out / "calibration.pfm", cal, third=cal_ok)
    formats.write_vector_pfm(out / "trajectory.pfm", traj, third=traj_ok)
    print(f"wrote calibration + trajectory fields to {out}")
    return 0


def _solve(i0, i1, rig: StereoRig, params: solver.SolverParams) -> solver.StereoResult:
    try:
        return solver.solve_pyramid(i0, i1, rig, params)
    except (KernelCompileError, ValueError) as exc:
        raise CommandError(f"cannot solve: {exc}") from None


def cmd_stereo(args) -> int:
    rig = _load_rig_arg(args.rig)
    params = _resolve_params(args)
    i0 = _read("left image", args.left, formats.load_image)
    i1 = _read("right image", args.right, formats.load_image)
    result = _solve(i0, i1, rig, params)
    corr, corr_ok = result.correspondence()
    depth, depth_ok = evaluate.depth_from_correspondence(rig, corr, corr_ok)

    out = _out_dir(args.out)
    formats.write_pfm(out / "disparity.pfm", result.u)
    formats.write_vector_pfm(out / "warp.pfm", corr, third=corr_ok)
    formats.write_pfm(out / "depth.pfm", depth)
    formats.write_png(out / "disparity.png",
                      evaluate.colorize(result.u, result.mask))
    formats.write_png(out / "depth.png",
                      evaluate.colorize(np.log1p(depth), depth_ok))
    config_echo = {
        "left": str(args.left), "right": str(args.right),
        "rig": rig_to_dict(rig),
        "params": params.to_dict(),
    }
    (out / "config_resolved.json").write_text(json.dumps(config_echo, indent=2) + "\n")
    print(f"wrote disparity/warp/depth to {out}")
    return 0


def _load_gt_dir(path: Path):
    """Ground truth of a `render` dataset; covisibility is the third channel
    of correspondence.pfm. Every covisible pixel must hold a finite
    correspondence and depth."""
    corr, covis = _read("ground truth file", path / "correspondence.pfm",
                        formats.read_vector_pfm)
    depth = _read("ground truth file", path / "depth0.pfm",
                  lambda p: formats.read_pfm(p, channels=1).astype(np.float64))
    rig = _read("rig file", path / "rig.json", load_rig)
    shape = (rig.cam0.height, rig.cam0.width)
    if corr.shape[:2] != shape or depth.shape != shape:
        raise CommandError(f"ground truth in {path} does not match the "
                           f"{shape[1]}x{shape[0]} camera 0 of its rig.json")
    covis = covis > 0.5
    for name, values in (("correspondence.pfm", corr[covis]), ("depth0.pfm", depth[covis])):
        if not np.isfinite(values).all():
            raise CommandError(f"bad ground truth file {path / name}: non-finite value "
                               "on a pixel its covisibility marks valid")
    return corr, covis, depth, rig


def cmd_eval(args) -> int:
    taus = _number_list("--taus", args.taus, float, lambda tau: POSITIVE(tau, "tau"))
    w_est, est_ok = _read("estimate file", args.estimate, formats.read_vector_pfm)
    if not np.isfinite(w_est[est_ok > 0.5]).all():
        raise CommandError(f"bad estimate file {args.estimate}: non-finite vector "
                           "on a pixel its third channel marks valid")
    corr_gt, covis, depth_gt, rig = _load_gt_dir(Path(args.gt))
    if w_est.shape != corr_gt.shape:
        raise CommandError(f"estimate {args.estimate} is {w_est.shape[1]}x{w_est.shape[0]}, "
                           f"ground truth is {corr_gt.shape[1]}x{corr_gt.shape[0]}")
    out = _out_dir(args.out)

    valid = covis & (est_ok > 0.5)
    depth_est, _ = evaluate.depth_from_correspondence(rig, w_est, valid)
    report = evaluate.make_report(w_est, corr_gt, valid, taus=taus,
                                  depth_est=depth_est, depth_gt=depth_gt)
    (out / "report.json").write_text(report.to_json() + "\n")
    if args.error_png:
        err = evaluate.correspondence_error(w_est, corr_gt, valid)
        formats.write_png(out / "correspondence_error.png",
                          evaluate.colorize(err, valid, vmin=0.0, vmax=5.0))
        derr = evaluate.depth_error_map(depth_est, depth_gt, valid)
        formats.write_png(out / "depth_error.png",
                          evaluate.colorize_depth_error(derr, valid))
    print(report.to_json())
    return 0


def _load_dataset_images(data_dir: Path) -> list[np.ndarray]:
    """The image pair a `render` manifest names."""
    path = data_dir / "manifest.json"

    def image_paths(p: Path) -> list[Path]:
        manifest = json.loads(p.read_text())
        return [data_dir / manifest[key] for key in ("image0", "image1")]

    return [_read(f"image named by {path}", image, formats.load_image)
            for image in _read("dataset manifest", path, image_paths)]


def cmd_sweep(args) -> int:
    data_dir = Path(args.dataset)
    i0, i1 = _load_dataset_images(data_dir)
    corr_gt, covis, _, rig = _load_gt_dir(data_dir)
    base = _resolve_params(args)
    warp_grid = _number_list("--warp-iters-grid", args.warp_iters_grid, int,
                             lambda n: replace(base, warp_iters=n))
    du_grid = _number_list("--du-max-grid", args.du_max_grid, float,
                           lambda du: replace(base, du_max=du))

    # Build the rig's fields before the clock starts: a solve takes them from
    # their caches, so every cell's wall_time_s times the same work.
    try:
        fields.generate_calibration_field(rig)
        solver.trajectory_pyramid(rig, base)
    except ValueError as exc:
        raise CommandError(f"cannot solve: {exc}") from None
    rows = []
    for n in warp_grid:
        for du in du_grid:
            params = replace(base, warp_iters=n, du_max=du)
            t0 = time.perf_counter()
            result = _solve(i0, i1, rig, params)
            elapsed = time.perf_counter() - t0
            corr, corr_ok = result.correspondence()
            valid = covis & corr_ok
            report = evaluate.make_report(corr, corr_gt, valid)
            rows.append({
                "warp_iters": n,
                "du_max": du,
                "pct_bad_1": report.pct_bad[1.0],
                "pct_bad_3": report.pct_bad[3.0],
                "pct_bad_5": report.pct_bad[5.0],
                "mean_error_px": report.mean_error_px,
                "wall_time_s": elapsed,
            })
            print(f"N={n:4d} du_max={du:5.2f} tau>1: {report.pct_bad[1.0]:6.2f}% "
                  f"({elapsed:.1f}s)")

    table = _out_dir(args.out) / "sweep.csv"
    with open(table, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisheyestereo",
        description="Dense variational stereo for non-rectified fisheye pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="ray-cast a synthetic dataset with ground truth")
    p.add_argument("--rig", default="default", help="rig JSON path, 'default', or 'pinhole'")
    p.add_argument("--scene", default="default", help="scene JSON path, 'default', or 'plane'")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="additive Gaussian sigma")
    p.add_argument("--supersample", type=int, default=2,
                   help="rays per pixel axis for antialiased intensities")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fields", help="write calibration and trajectory fields")
    p.add_argument("--rig", default="default")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fields)

    p = sub.add_parser("stereo", help="solve a stereo pair for disparity and depth")
    p.add_argument("--left", required=True, help="reference image (PGM/PNG)")
    p.add_argument("--right", required=True, help="second image (PGM/PNG)")
    p.add_argument("--rig", default="default")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file of solver parameters")
    _add_param_flags(p)
    p.set_defaults(func=cmd_stereo)

    p = sub.add_parser("eval", help="compare a warp estimate against ground truth")
    p.add_argument("--estimate", required=True, help="warp PFM (3-channel)")
    p.add_argument("--gt", required=True, help="dataset directory with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--taus", default=",".join(f"{tau:g}" for tau in evaluate.DEFAULT_TAUS),
                   help="comma-separated error thresholds, px (default %(default)s)")
    p.add_argument("--error-png", dest="error_png", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid over warp iterations and du_max")
    p.add_argument("--dataset", required=True, help="directory written by render")
    p.add_argument("--out", required=True)
    p.add_argument("--warp-iters-grid", dest="warp_iters_grid", default="2,5,10,50")
    p.add_argument("--du-max-grid", dest="du_max_grid", default="0.2")
    p.add_argument("--config", help="JSON file of solver parameters; the grid "
                   "sets warp_iters and du_max")
    _add_param_flags(p, [n for n in _PARAM_FIELDS if n not in ("warp_iters", "du_max")])
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
