#!/usr/bin/env python3
"""Print sha256 digests of everything a pyramid solve produces, of the
synthetic oracle (renders and ground truth), and of the rig and scene JSON
the codec writes.

Run it on two checkouts and diff the output to show that a refactor leaves
the solver's and the oracle's results bit-identical and the JSON
byte-identical:

    PYTHONPATH=src python scripts/hash_solver_outputs.py [--big] [--build baseline|avx2]

Each configuration renders a pair of the default scene, solves it with an
observer, and hashes `u`, `w`, `v`, `mask`, `cal` and `cal_ok` of the
`StereoResult`, every `WarpRecord` (its `du`, `dirs` and the float bits of
both dual norms) and the float bits of `energy()` at the solution. The
configurations are a 200x200 rig with 3 pyramid levels, a 47x61 unified rig
with 2 levels, and a 117x91 polynomial and a 117x91 pinhole rig, each with
N=4 and 2 levels; `--big` adds the `solve-400` benchmark inputs (the default
400x400 rig, seed 0, N=10, 4 levels). Each configuration also hashes, for
its rig, both cameras' `render` output (image, depth and hit mask) at
supersample 1, 2 and 3 and once more at supersample 1 with noise, the three
`make_ground_truth` arrays, the bytes `save_rig` writes, the bytes of the
`calibration.pfm` and `trajectory.pfm` that the `fields` command writes for
that rig, and the JSON of its `SolverParams.to_dict()` (the params block
`stereo` echoes to `config_resolved.json`), after checking that
`SolverParams.from_dict` reads that dict back as the same parameters. The
`params` lines change exactly when a `SolverParams` field is added or
removed, or a value they echo changes. One more line hashes the JSON of
`scene_to_dict(default_scene())`.

The default scene carries only value noise, on a box and on spheres. The
`mixed` lines hash the oracle on a scene with every texture and every
primitive kind: a checkerboard plane, a sine-grating box and a value-noise
sphere around both cameras. They hash `render` of both cameras at
supersample 1 and 2 and the three `make_ground_truth` arrays, through a
61x47 `pinhole_rig` whose centre ray is exactly (0, 0, 1). That ray has two
zero components, and camera 0 sits on one of the box's slab planes, so the
box's slab test meets 1/0 and 0 * inf.

The last lines check the sampler on its edge cases. For each image shape
from 1x1 to 4x4, and 9x7 (which has full stencils), a `sampler` line hashes
`rasters.sample_bicubic` of a 1- and a 3-channel field under a full mask and
a mask with holes, at positions in and around the image and at NaN, +-inf
and +-1e300 coordinates. Two `thresholding` lines, one per dtype (float32
and float64), hash `thresholding_step` on a grid of its edge cases:
signed-zero u_hat, signed-zero and tiny slopes iu, NaN and signed-zero
residuals, and residuals exactly at the case boundaries +-tau*lam*iu^2. One
`cycle` line hashes the float32 state after 10 cycles of
`kernels.primal_dual_cycle(state, op, data, params)`, with a float32
`LevelOperator` and the default `SolverParams`, from a seeded random 160x150
state (mask density 0.9); its rows are long enough for the compiled cycle's
vector loops and their tails. One `warp` line hashes one compiled warp
step (`solve_level` with N=1, which builds its
`kernels.WarpLevel(i0, i1, traj_dirs, traj_valid, mask, op, params)`) on a
seeded random 160x150 level with holes in the mask and in the trajectory
field: the returned u, w and v, and the `WarpRecord`'s du, dirs and dual
norms.

The kernels come from the build that the CPU picks (see `kernels`).
`--build baseline` or `--build avx2` runs them through that build instead,
so that the digests of both builds can be diffed on one machine; the AVX2
build needs a CPU that has AVX2, and the script exits 2 without one.

A change that alters the solver's arithmetic on purpose (a new precision, a
reordered sum) cannot be bit-identical. Check it in two steps. First, the
solver lines (`u`, `w`, `v`, `records[...]`, `energy`) may change, but every
`render*`, `noisy*`, `gt.*`, `mask`, `cal`, `cal_ok`, `rig.json` and `scene`
line must still match. Second, save the solutions of both checkouts and
report how far they moved, as max |du| and max |dw| per configuration:

    PYTHONPATH=src python scripts/hash_solver_outputs.py --big --save /tmp/old
    # in the other checkout:
    PYTHONPATH=src python scripts/hash_solver_outputs.py --big --against /tmp/old
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np

from fisheyestereo import cli, kernels, rasters, solver, synth
from fisheyestereo.camera import (PinholeCamera, PolynomialFisheyeCamera, RelativePose,
                                  StereoRig, UnifiedCamera, save_rig)

_POSE = RelativePose.from_displacement((0.1, 0.0, 0.0), (0.0, 0.02, 0.005))


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(str((a.dtype, a.shape)).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _float_digest(*values: float) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _scaled_default_rig(size: int) -> StereoRig:
    rig = synth.default_rig()
    return StereoRig(rig.cam0.scaled_to((size, size)), rig.cam1.scaled_to((size, size)),
                     rig.pose)


def _unified_rig(width: int, height: int) -> StereoRig:
    cam = UnifiedCamera(width=width, height=height, fx=0.5 * width, fy=0.5 * width,
                        cx=(width - 1) / 2.0, cy=(height - 1) / 2.0, fov=np.pi, xi=0.9)
    return StereoRig(cam, cam, _POSE)


def _rig_117x91(model, f: float, fov_deg: float, **lens) -> StereoRig:
    cam = model(width=117, height=91, fx=f, fy=f, cx=58.0, cy=45.0,
                fov=float(np.deg2rad(fov_deg)), **lens)
    return StereoRig(cam, cam, _POSE)


def configurations(big: bool):
    yield "200x200", _scaled_default_rig(200), solver.SolverParams(
        warp_iters=10, du_max=0.2, pyramid_levels=3)
    yield "47x61", _unified_rig(47, 61), solver.SolverParams(
        warp_iters=5, pyramid_levels=2, min_width=20)
    yield "poly", _rig_117x91(PolynomialFisheyeCamera, 30.0, 190.0,
                              k=(1.0, -0.05, 0.003, 0.0)), solver.SolverParams(
        warp_iters=4, pyramid_levels=2)
    yield "pinhole", _rig_117x91(PinholeCamera, 40.0, 140.0), solver.SolverParams(
        warp_iters=4, pyramid_levels=2)
    if big:
        yield "solve-400", synth.default_rig(), solver.SolverParams(
            warp_iters=10, du_max=0.2, pyramid_levels=4)


def hash_solve(rig: StereoRig, params: solver.SolverParams,
               seed: int = 0) -> tuple[dict, solver.StereoResult]:
    """Digests of one configuration's solve, and its `StereoResult`."""
    scene = synth.reseed_scene(synth.default_scene(), seed)
    i0, _, _ = synth.render(scene, rig.cam0, supersample=2)
    i1, _, _ = synth.render(scene, rig.cam1, pose=rig.pose, supersample=2)
    records = []
    res = solver.solve_pyramid(i0, i1, rig, params, observe=records.append)
    i1c = solver.calibrate_second_image(i1, rig)[0]
    e = solver.energy(i0, i1c, res.mask, res.u, res.v, res.w, params)
    out = {name: _digest(getattr(res, name))
           for name in ("u", "w", "v", "mask", "cal", "cal_ok")}
    rec = hashlib.sha256()
    for r in records:
        rec.update((_digest(r.du) + _digest(r.dirs)
                    + _float_digest(r.max_p_norm, r.max_q_norm)).encode())
    out[f"records[{len(records)}]"] = rec.hexdigest()
    out["energy"] = _float_digest(e)
    return out, res


_MIXED_SCENE = synth.Scene(primitives=(
    synth.Box(lo=(-0.35, 0.0, 1.5), hi=(0.35, 0.4, 2.1),
              texture=synth.SineGrating(wavelength=0.15, direction=(1.0, 0.5, 0.0))),
    synth.Plane(point=(0.0, 0.5, 0.0), normal=(0.0, -1.0, 0.0),
                texture=synth.Checkerboard(period=0.25)),
    synth.Sphere(center=(0.0, 0.0, 0.0), radius=4.0,
                 texture=synth.ValueNoise(scale=0.5, octaves=3, seed=5)),
))


def mixed_oracle_rig() -> StereoRig:
    rig = synth.pinhole_rig(width=61, height=47, f=40.0)
    centre, ok = rig.cam0.unproject(np.array([30.0, 23.0]))
    assert ok and centre.tolist() == [0.0, 0.0, 1.0]
    return rig


def hash_oracle(rig: StereoRig, scene: synth.Scene,
                casts=(("render", 1, 0.0), ("noisy", 1, 0.05),
                       ("render", 2, 0.0), ("render", 3, 0.0))) -> dict:
    out = {}
    for kind, supersample, sigma in casts:
        for i, (cam, pose) in enumerate(((rig.cam0, None), (rig.cam1, rig.pose))):
            arrays = synth.render(scene, cam, pose, noise_sigma=sigma, noise_seed=1,
                                  supersample=supersample)
            digests = "".join(map(_digest, arrays)).encode()
            out[f"{kind}{i}.s{supersample}"] = hashlib.sha256(digests).hexdigest()
    gt = synth.make_ground_truth(scene, rig)
    for key, name in (("gt.depth0", "depth0"), ("gt.corr", "correspondence"),
                      ("gt.covis", "covisibility")):
        out[key] = _digest(getattr(gt, name))
    return out


def hash_rig_json(rig: StereoRig) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rig.json"
        save_rig(path, rig)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_fields_command(rig: StereoRig) -> str:
    """Digest of the two PFM files `fisheyestereo fields` writes for `rig`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_rig(tmp / "rig.json", rig)
        argv = ["fields", "--rig", str(tmp / "rig.json"), "--out", str(tmp / "fields")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        h = hashlib.sha256()
        for name in ("calibration.pfm", "trajectory.pfm"):
            h.update((tmp / "fields" / name).read_bytes())
        return h.hexdigest()


def hash_params_json(params: solver.SolverParams) -> str:
    assert solver.SolverParams.from_dict(params.to_dict()) == params
    return hashlib.sha256(json.dumps(params.to_dict(), indent=2).encode()).hexdigest()


_SPECIAL = (np.nan, np.inf, -np.inf, 1e300, -1e300)


def hash_sampler():
    """(key, digest) of the sampler on each edge-case image shape."""
    for h, w in [(h, w) for h in range(1, 5) for w in range(1, 5)] + [(9, 7)]:
        rng = np.random.default_rng(100 * h + w)
        fields = rng.normal(size=(h, w)), rng.normal(size=(h, w, 3))
        masks = np.ones((h, w), dtype=bool), rng.random((h, w)) < 0.7
        around = rng.uniform((-4.5, -4.5), (w + 3.5, h + 3.5), size=(150, 2))
        # Integer positions from -3 to W + 2 (H + 2), and the same shifted.
        lattice = rasters.pixel_grid(h + 6, w + 6).reshape(-1, 2) - 3.0
        special = ([(a, 1.0) for a in _SPECIAL] + [(1.0, a) for a in _SPECIAL]
                   + [(a, a) for a in _SPECIAL])
        pos = np.concatenate([around, lattice, lattice + 0.25, special])
        digests = "".join(_digest(a) for field in fields for mask in masks
                          for a in rasters.sample_bicubic(field, pos, mask))
        yield f"{h}x{w}", hashlib.sha256(digests.encode()).hexdigest()


def hash_thresholding():
    """(key, digest) of `thresholding_step` on its edge cases, per dtype."""
    lam = 5.0
    for dtype in (np.float32, np.float64):
        u_hat, iu, tau, rho = (a.astype(dtype) for a in np.meshgrid(
            [-0.0, 0.0, 1.5, -2.25], [-0.0, 0.0, 1e-7, 0.5, -3.0], [0.25, 7.0],
            [np.nan, -1.0, -0.0, 0.0, 0.3, 1e6, 0.0, 0.0], indexing="ij"))
        # The last two residuals sit on the case boundaries +-tau*lam*iu^2.
        th = tau[..., -1] * lam * iu[..., -1] * iu[..., -1]
        rho[..., -2], rho[..., -1] = th, -th
        yield dtype.__name__, _digest(solver.thresholding_step(u_hat, rho, iu, tau, lam))


def hash_cycle() -> str:
    """Digest of 10 float32 primal-dual cycles on a seeded 160x150 state."""
    h, w = 160, 150
    params = solver.SolverParams()
    rng = np.random.default_rng(160150)
    mask = rng.random((h, w)) < 0.9
    op = solver.precondition_steps(solver.compute_tensor(rng.random((h, w)), mask), mask, params)
    op = solver.LevelOperator(**{k: a.astype(np.float32) for k, a in vars(op).items()})
    u, iu, rho0 = (rng.normal(size=(h, w)).astype(np.float32) for _ in range(3))
    v, p = (rng.normal(size=(2, h, w)).astype(np.float32) for _ in range(2))
    q = rng.normal(size=(4, h, w)).astype(np.float32)
    state = (u, v, p, q, u, v)
    for _ in range(10):
        state = kernels.primal_dual_cycle(state, op, (iu, rho0, u), params)
    return hashlib.sha256("".join(_digest(a) for a in state).encode()).hexdigest()


def hash_warp() -> str:
    """Digest of one compiled warp step on a seeded 160x150 level."""
    h, w = 160, 150
    rng = np.random.default_rng(150160)
    mask, traj_valid = (rng.random((h, w)) < 0.9 for _ in range(2))
    i0, i1 = (rasters.smooth_masked(rng.random((h, w)), np.ones((h, w), bool), 1.0)
              for _ in range(2))
    angle = rng.uniform(0.0, 2.0 * np.pi, (h, w))
    traj = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    records = []
    out = solver.solve_level(i0, i1, traj, traj_valid, solver.SolverParams(warp_iters=1),
                             mask, rng.normal(size=(h, w)), rng.normal(size=(h, w, 2)),
                             records.append)
    (rec,) = records
    digests = [_digest(a) for a in (*out, rec.du, rec.dirs)]
    digests.append(_float_digest(rec.max_p_norm, rec.max_q_norm))
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--big", action="store_true",
                        help="also hash the 400x400 solve-400 inputs (about 10 s)")
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="write each configuration's u and w to DIR/<name>.npz")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="print max |du| and max |dw| against the u and w in DIR")
    parser.add_argument("--build", choices=("baseline", "avx2"),
                        help="run the kernels through this build, not the CPU's pick")
    args = parser.parse_args()
    if args.build == "avx2" and not kernels.cpu_has_avx2():
        parser.error("--build avx2 needs a CPU with AVX2")
    if args.build:
        # The loader picks its build from this probe alone.
        kernels.cpu_has_avx2 = lambda: args.build == "avx2"
    for name, rig, params in configurations(args.big):
        digests, res = hash_solve(rig, params)
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
            np.savez(args.save / f"{name}.npz", u=res.u, w=res.w)
        for key, value in {**digests, **hash_oracle(rig, synth.default_scene())}.items():
            print(f"{name:10s} {key:12s} {value}")
        if args.against:
            old = np.load(args.against / f"{name}.npz")
            print(f"{name:10s} {'max |du|':12s} {np.max(np.abs(res.u - old['u'])):.3e}")
            print(f"{name:10s} {'max |dw|':12s} {np.max(np.abs(res.w - old['w'])):.3e}")
        print(f"{name:10s} {'rig.json':12s} {hash_rig_json(rig)}")
        print(f"{name:10s} {'fields':12s} {hash_fields_command(rig)}")
        print(f"{name:10s} {'params':12s} {hash_params_json(params)}")
    mixed = hash_oracle(mixed_oracle_rig(), _MIXED_SCENE,
                        casts=(("render", 1, 0.0), ("render", 2, 0.0)))
    for key, value in mixed.items():
        print(f"{'mixed':10s} {key:12s} {value}")
    scene = json.dumps(synth.scene_to_dict(synth.default_scene()), indent=2).encode()
    print(f"{'scene':10s} {'default':12s} {hashlib.sha256(scene).hexdigest()}")
    for key, value in hash_sampler():
        print(f"{'sampler':10s} {key:12s} {value}")
    for key, value in hash_thresholding():
        print(f"{'thresholding':10s} {key:12s} {value}")
    print(f"{'cycle':10s} {'float32':12s} {hash_cycle()}")
    print(f"{'warp':10s} {'160x150':12s} {hash_warp()}")


if __name__ == "__main__":
    main()
