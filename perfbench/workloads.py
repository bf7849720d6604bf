"""Benchmark workloads: inputs made from a seed, one op, and its correctness check.

The seed reseeds the scene textures through `synth.reseed_scene`; the program
receives only the rendered arrays. Every op is checked; a failed check is
returned, not raised, so the run goes on and counts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fisheyestereo import camera, evaluate, fields, solver, synth

# Covisible pixels of the default 400x400 dataset, recorded at the seed
# commit. Covisibility depends on geometry only and reseeding changes only
# textures, so the count holds for every seed.
DEFAULT_COVISIBLE = 137942


@dataclass
class Check:
    ok: bool
    reason: str = ""
    bad1: int = 0      # pixels with correspondence error above 1 px
    bad3: int = 0      # ... above 3 px
    valid: int = 0     # covisible pixels the errors are counted over


def _finite(a: np.ndarray, where: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a[where])))


@dataclass
class SolveWorkload:
    """One op solves a rendered pair as `fisheyestereo stereo` does, without
    file I/O: `solve_pyramid`, the calibration field,
    `compose_with_calibration` and `depth_from_correspondence`. The pair is
    rendered at supersample 2, the `render` command's default."""

    name: str
    rig: camera.StereoRig
    params: solver.SolverParams
    tau3_bound: float  # percent
    inputs: tuple | None = field(default=None, repr=False)

    @property
    def size(self) -> str:
        return f"1 pair of {self.rig.cam0.width}x{self.rig.cam0.height}"

    def setup(self, seed: int) -> None:
        scene = synth.reseed_scene(synth.default_scene(), seed)
        rig = self.rig
        i0, _, _ = synth.render(scene, rig.cam0, supersample=2)
        i1, _, _ = synth.render(scene, rig.cam1, pose=rig.pose, supersample=2)
        self.inputs = (i0, i1, synth.make_ground_truth(scene, rig))

    def op(self):
        rig = self.rig
        i0, i1, _ = self.inputs
        result = solver.solve_pyramid(i0, i1, rig, self.params)
        cal, cal_ok = fields.generate_calibration_field(rig)
        corr, corr_ok = fields.compose_with_calibration(result.w, cal, cal_ok)
        corr_ok = corr_ok & result.mask
        depth, depth_ok = evaluate.depth_from_correspondence(rig, corr, corr_ok)
        return result, corr, corr_ok, depth, depth_ok

    def check(self, out) -> Check:
        gt = self.inputs[2]
        result, corr, corr_ok, depth, depth_ok = out
        mask = result.mask
        if not mask.any():
            return Check(False, "empty solve mask")
        if not (_finite(result.u, mask) and _finite(result.w, mask)
                and _finite(corr, corr_ok) and _finite(depth, depth_ok)):
            return Check(False, "non-finite output on the mask")
        valid = gt.covisibility & corr_ok
        n = int(np.count_nonzero(valid))
        if n == 0:
            return Check(False, "no covisible solved pixel")
        err = evaluate.correspondence_error(corr, gt.correspondence, valid)[valid]
        bad1 = int(np.count_nonzero(err > 1.0))
        bad3 = int(np.count_nonzero(err > 3.0))
        tau3 = 100.0 * bad3 / n
        if tau3 > self.tau3_bound:
            return Check(False, f"tau>3 {tau3:.3f} % above bound {self.tau3_bound} %",
                         bad1, bad3, n)
        return Check(True, "", bad1, bad3, n)

    def checks_stated(self) -> str:
        return ("u and w finite on the solve mask, correspondence and depth finite "
                f"where valid, tau>3 at most {self.tau3_bound:g} %")


@dataclass
class RenderWorkload:
    """One op renders a dataset as `fisheyestereo render --supersample 1`
    does, without file I/O: both images, then `make_ground_truth`. That is
    four casts per op; the default supersample 2 takes ten, and a run of it
    would not fit the time the whole benchmark may take."""

    name: str
    rig: camera.StereoRig
    covisible: int
    scene: synth.Scene | None = field(default=None, repr=False)

    @property
    def size(self) -> str:
        return f"1 dataset of {self.rig.cam0.width}x{self.rig.cam0.height}"

    def setup(self, seed: int) -> None:
        self.scene = synth.reseed_scene(synth.default_scene(), seed)

    def op(self):
        rig = self.rig
        i0, _, _ = synth.render(self.scene, rig.cam0)
        i1, _, _ = synth.render(self.scene, rig.cam1, pose=rig.pose)
        return i0, i1, synth.make_ground_truth(self.scene, rig)

    def check(self, out) -> Check:
        i0, i1, gt = out
        for img in (i0, i1):
            if not (np.all(np.isfinite(img)) and img.min() >= 0.0 and img.max() <= 1.0):
                return Check(False, "intensities not finite in [0, 1]")
        covis = gt.covisibility
        if not (_finite(gt.depth0, covis) and _finite(gt.correspondence, covis)):
            return Check(False, "ground truth not finite on the covisible mask")
        n = int(np.count_nonzero(covis))
        if n != self.covisible:
            return Check(False, f"{n} covisible pixels, expected {self.covisible}")
        return Check(True)

    def checks_stated(self) -> str:
        return ("intensities finite in [0, 1], depth and correspondence finite on "
                f"the covisible mask, {self.covisible} covisible pixels")


def make(name: str):
    """The named benchmark workload, before set-up."""
    if name == "solve-400":
        # N=10 has the same per-warp layer mix as the acceptance setting
        # N=50, du_max=0.1, at a fifth of the cost. tau>3 was 4.4-5.8 % over
        # seeds 0-9.
        return SolveWorkload(name, synth.default_rig(),
                             solver.SolverParams(warp_iters=10, du_max=0.2,
                                                 pyramid_levels=4), 7.0)
    if name == "render-400":
        return RenderWorkload(name, synth.default_rig(), DEFAULT_COVISIBLE)
    raise ValueError(f"unknown workload {name!r}")
