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
    assert lib.warp_step.argtypes is not None


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
    # Importing the package, and with it the solver, starts no thread either.
    code = ("import sys, threading; from pathlib import Path; import fisheyestereo; "
            "from fisheyestereo import camera, kernels, synth; "
            "threads = threading.active_count(); "
            "kernels.CACHE_DIR = Path(sys.argv[1]); "
            "rig = synth.default_rig(); cam = rig.cam0.scaled_to((24, 24)); "
            "fisheyestereo.render(fisheyestereo.default_scene(), cam); "
            "fisheyestereo.make_ground_truth(fisheyestereo.default_scene(), "
            "camera.StereoRig(cam, cam, rig.pose)); "
            "print(threads, kernels._library.cache_info().currsize, "
            "kernels.CACHE_DIR.exists())")
    src = str(Path(kernels.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cache")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.split() == ["1", "0", "False"]


def test_solve_without_compiler_names_gcc(no_compiler):
    cam = UnifiedCamera(width=40, height=40, fx=20.0, fy=20.0, cx=19.5, cy=19.5,
                        fov=np.pi, xi=0.9)
    rig = StereoRig(cam, cam, RelativePose.from_displacement((0.1, 0.0, 0.0)))
    image = np.random.default_rng(0).random((40, 40))
    with pytest.raises(kernels.KernelCompileError, match="C compiler 'gcc' on PATH"):
        solve_pyramid(image, image, rig, SolverParams(warp_iters=1, pyramid_levels=1))


def test_package_sampler_is_the_compiled_one():
    # One Python entry point per compiled kernel: the name every module
    # imports from `rasters` is the kernel itself, not a wrapper.
    assert rasters.sample_bicubic is kernels.sample_bicubic


def test_sampler_rejects_mismatched_arrays():
    # The compiled sampler reads raw pointers: it converts every array to
    # float64 or bool, C-contiguous and aligned, then checks every shape.
    mask = np.ones((6, 5), dtype=bool)
    xy = np.zeros((3, 2))
    field = np.zeros((6, 5, 2))
    kernels.sample_bicubic(field, xy, mask)
    for args, message in [
        ((field[:5], xy, mask), "field .* shape \\(6, 5, 2\\)"),
        ((field[..., None], xy, mask), "field .* shape \\(6, 5, 2\\)"),
        ((field, xy, mask[:, :4]), "field .* shape \\(6, 4, 2\\)"),
        ((field, xy, mask[None]), "mask must be \\(H, W\\)"),
        ((field, np.zeros((3, 3)), mask), "positions must be \\(\\.\\.\\., 2\\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            kernels.sample_bicubic(*args)

    # Converted, not rejected: a float32 field, a uint8 mask, and Fortran-
    # ordered, strided or unaligned arrays give the bits of their float64,
    # bool, C-contiguous copies.
    rng = np.random.default_rng(5)
    field32 = rng.normal(size=(6, 5, 2)).astype(np.float32)
    mask = rng.random((6, 5)) < 0.8
    xy = rng.uniform(-2.0, 7.0, size=(2, 40)).T
    unaligned = np.frombuffer(bytearray(8 * xy.size + 1), offset=1,
                              count=xy.size).reshape(xy.shape)
    unaligned[...] = xy
    assert not xy.flags.c_contiguous and not unaligned.flags.aligned
    want = kernels.sample_bicubic(field32.astype(np.float64), np.ascontiguousarray(xy), mask)
    for args in [(field32, xy, mask),
                 (np.asfortranarray(field32), unaligned, mask.astype(np.uint8)),
                 (np.repeat(field32, 2, axis=1)[:, ::2], np.repeat(xy, 2, axis=0)[::2],
                  np.asfortranarray(mask))]:
        got = kernels.sample_bicubic(*args)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_kernels_compile_without_warnings(tmp_path):
    # The loader's flags plus every common warning as an error: a new warning
    # in kernels.c fails here rather than going unseen in the cache build.
    proc = subprocess.run([kernels.COMPILER, *kernels.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-shared", "-fPIC", "-o", str(tmp_path / "kernels.so"),
                           str(kernels.SOURCE), "-lm"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
