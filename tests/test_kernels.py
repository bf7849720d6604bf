import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fisheyestereo import kernels, rasters
from fisheyestereo.camera import RelativePose, StereoRig, UnifiedCamera
from fisheyestereo.solver import SolverParams, solve_pyramid


def test_cache_hit_runs_no_compiler(tmp_path, monkeypatch):
    kernels.load(tmp_path)
    key = kernels.cache_key(kernels.SOURCE.read_bytes(), kernels.FLAGS)
    # Published under its key, with no temporary file left behind.
    assert [p.name for p in tmp_path.iterdir()] == [f"kernels-{key}.so"]

    def compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a cache hit")

    monkeypatch.setattr(kernels.subprocess, "run", compiler)
    lib = kernels.load(tmp_path)
    assert lib.sample_bicubic.argtypes is not None
    assert lib.pd_cycle.argtypes is not None


def test_cache_key_follows_source_and_flags():
    source, flags = kernels.SOURCE.read_bytes(), kernels.FLAGS
    key = kernels.cache_key(source, flags)
    assert kernels.cache_key(bytes(source), tuple(flags)) == key
    assert kernels.cache_key(source + b"\n", flags) != key
    assert kernels.cache_key(source.replace(b"0.5", b"0.25", 1), flags) != key
    assert kernels.cache_key(source, flags[:-1]) != key
    assert kernels.cache_key(source, (*flags, "-march=native")) != key
    # Flags are hashed one by one: moving a boundary changes the key.
    assert kernels.cache_key(source, ("-O3", "-f")) != kernels.cache_key(source, ("-O3-f",))


def test_import_and_render_compile_and_load_nothing(tmp_path):
    code = ("import sys; from pathlib import Path; import fisheyestereo; "
            "from fisheyestereo import camera, kernels, synth; "
            "kernels.CACHE_DIR = Path(sys.argv[1]); "
            "rig = synth.default_rig(); cam = rig.cam0.scaled_to((24, 24)); "
            "fisheyestereo.render(fisheyestereo.default_scene(), cam); "
            "fisheyestereo.make_ground_truth(fisheyestereo.default_scene(), "
            "camera.StereoRig(cam, cam, rig.pose)); "
            "print(kernels._library.cache_info().currsize, kernels.CACHE_DIR.exists())")
    src = str(Path(kernels.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cache")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]


def test_solve_without_compiler_names_gcc(no_compiler):
    cam = UnifiedCamera(width=40, height=40, fx=20.0, fy=20.0, cx=19.5, cy=19.5,
                        fov=np.pi, xi=0.9)
    rig = StereoRig(cam, cam, RelativePose.from_displacement((0.1, 0.0, 0.0)))
    image = np.random.default_rng(0).random((40, 40))
    with pytest.raises(kernels.KernelCompileError, match="C compiler 'gcc' on PATH"):
        solve_pyramid(image, image, rig, SolverParams(warp_iters=1, pyramid_levels=1))


def test_sampler_rejects_mismatched_arrays():
    # The compiled sampler reads raw pointers: every array is checked first.
    mask = np.ones((6, 5), dtype=bool)
    counts = rasters._stencil_tap_counts(mask)
    xy = np.zeros((3, 2))
    field = np.zeros((6, 5, 2))
    kernels.sample_bicubic(xy, [field], [mask], [counts])
    for args, message in [
        ((xy, [field[:5]], [mask], [counts]), "field 0 .* shape \\(6, 5, 2\\)"),
        ((xy, [field.astype(np.float32)], [mask], [counts]), "field 0 .* float64"),
        ((xy, [field], [mask[:, :4]], [counts]), "field 0 .* shape \\(6, 4, 2\\)"),
        ((xy, [field], [mask], [counts[:-1]]), "tap counts 0 .* shape \\(11, 10\\)"),
        ((np.zeros((2, 3)).T, [field], [mask], [counts]), "positions .* non-contiguous"),
        ((xy, [field, field], [mask], [counts]), "one mask and one tap-count map"),
        ((np.frombuffer(bytes(49), offset=1).reshape(3, 2), [field], [mask], [counts]),
         "positions .* unaligned"),
    ]:
        with pytest.raises(ValueError, match=message):
            kernels.sample_bicubic(*args)
    with pytest.raises(ValueError, match="mask 1 .* shape \\(6, 5\\)"):
        rasters.sample_bicubic_many([(field, mask), (field, mask.T)], xy)


def test_kernels_compile_without_warnings(tmp_path):
    # The loader's flags plus every common warning as an error: a new warning
    # in kernels.c fails here rather than going unseen in the cache build.
    proc = subprocess.run([kernels.COMPILER, *kernels.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-shared", "-fPIC", "-o", str(tmp_path / "kernels.so"),
                           str(kernels.SOURCE), "-lm"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
