from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from fisheyestereo import kernels
from fisheyestereo.camera import RelativePose, StereoRig, UnifiedCamera
from fisheyestereo.synth import Plane, Scene, Sphere, ValueNoise, render, make_ground_truth


@pytest.fixture(scope="session")
def small_fisheye_rig() -> StereoRig:
    """200x200 unified-model rig used by module tests (fast to render)."""
    cam0 = UnifiedCamera(width=200, height=200, fx=100.0, fy=100.0,
                         cx=99.5, cy=99.5, fov=np.pi, xi=0.9)
    cam1 = UnifiedCamera(width=200, height=200, fx=100.0, fy=100.0,
                         cx=100.0, cy=99.7, fov=np.pi, xi=0.9)
    pose = RelativePose.from_displacement((0.1, 0.0, 0.0), rotvec=(0.0, 0.02, 0.005))
    return StereoRig(cam0, cam1, pose)


@pytest.fixture(scope="session")
def small_scene() -> Scene:
    return Scene(primitives=(
        Sphere(center=(0.0, 0.0, 0.0), radius=5.0,
               texture=ValueNoise(scale=1.0, octaves=3, seed=11, lo=0.2, hi=0.9)),
        Plane(point=(0.0, 0.0, 1.2), normal=(0.0, 0.0, -1.0),
              texture=ValueNoise(scale=0.3, octaves=3, seed=5, lo=0.1, hi=0.95)),
        Sphere(center=(0.2, -0.15, 0.8), radius=0.22,
               texture=ValueNoise(scale=0.08, octaves=3, seed=23, lo=0.1, hi=0.9)),
    ))


@pytest.fixture(scope="session")
def small_pair(small_fisheye_rig, small_scene):
    """Rendered pair + ground truth on the small rig."""
    rig = small_fisheye_rig
    i0, _, _ = render(small_scene, rig.cam0, supersample=2)
    i1, _, _ = render(small_scene, rig.cam1, pose=rig.pose, supersample=2)
    gt = make_ground_truth(small_scene, rig)
    return i0, i1, gt


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """An empty kernel cache and a PATH with no compiler: the next kernel call
    must build the library and cannot. The library is reloaded afterwards."""
    monkeypatch.setattr(kernels, "CACHE_DIR", tmp_path / "kernel-cache")
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    kernels._library.cache_clear()
    yield
    kernels._library.cache_clear()


@pytest.fixture(scope="session")
def in_both_builds(tmp_path_factory):
    """A function that runs `call()` under the baseline and then under the
    AVX2 build of the kernels, both compiled into a fresh cache, and returns
    the two runs' results, each as a list of the bytes of its arrays. Skips
    where the CPU lacks AVX2: the AVX2 build would stop the process at its
    first AVX2 instruction."""
    if not kernels.cpu_has_avx2():
        pytest.skip("the AVX2 build needs a CPU with AVX2")
    cache = tmp_path_factory.mktemp("kernel-builds")
    with ThreadPoolExecutor(2) as pool:  # both compile at once
        builds = list(pool.map(lambda flags: kernels.load(cache, flags),
                               (kernels.FLAGS, kernels.AVX2_FLAGS)))

    def run(call):
        outputs = []
        for lib in builds:
            with mock.patch.object(kernels, "_library", lambda: lib):
                outputs.append([np.asarray(a).tobytes() for a in call()])
        return outputs

    return run
