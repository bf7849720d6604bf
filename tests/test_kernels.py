import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fisheyestereo import kernels, rasters, solver
from fisheyestereo.camera import RelativePose, StereoRig, UnifiedCamera
from fisheyestereo.solver import LevelOperator, SolverParams, solve_pyramid


def test_cache_hit_runs_no_compiler(tmp_path, monkeypatch):
    run = kernels.subprocess.run
    for flags in (kernels.FLAGS, kernels.AVX2_FLAGS):
        monkeypatch.setattr(kernels.subprocess, "run", run)
        cache = tmp_path / flags[-1]
        kernels.load(cache, flags)
        key = kernels.cache_key(kernels.SOURCE.read_bytes(), flags)
        # Published under its key, with no temporary file left behind.
        assert [p.name for p in cache.iterdir()] == [f"kernels-{key}.so"]

        def compiler(*args, **kwargs):
            raise AssertionError("the compiler ran on a cache hit")

        monkeypatch.setattr(kernels.subprocess, "run", compiler)
        lib = kernels.load(cache, flags)
        assert lib.sample_bicubic.argtypes is not None
        assert lib.pd_cycle.argtypes is not None
        assert lib.warp_step.argtypes is not None


@pytest.mark.parametrize("avx2", [False, True], ids=["baseline", "avx2"])
def test_the_cpu_picks_the_one_build_a_cold_cache_compiles(tmp_path, monkeypatch, avx2):
    # The probe alone picks the build; the other one is never compiled.
    monkeypatch.setattr(kernels, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(kernels, "cpu_has_avx2", lambda: avx2)
    compiled = []
    run = kernels.subprocess.run

    def compiler(argv, **kwargs):
        compiled.append(tuple(argv[1:argv.index("-shared")]))
        return run(argv, **kwargs)

    monkeypatch.setattr(kernels.subprocess, "run", compiler)
    kernels._library.cache_clear()
    try:
        kernels._library()
        kernels._library()
    finally:
        kernels._library.cache_clear()
    flags = kernels.AVX2_FLAGS if avx2 else kernels.FLAGS
    assert compiled == [flags]
    key = kernels.cache_key(kernels.SOURCE.read_bytes(), flags)
    assert [p.name for p in tmp_path.iterdir()] == [f"kernels-{key}.so"]


def test_cpu_has_avx2_reads_every_cpus_flags_line(tmp_path):
    def cpuinfo(*cpus):
        path = tmp_path / "cpuinfo"
        path.write_text("".join(f"processor\t: {i}\n{line}\n\n" for i, line in enumerate(cpus)))
        return path

    x86 = "flags\t\t: fpu sse2 avx avx2 fma"
    assert kernels.cpu_has_avx2(cpuinfo(x86, x86))
    assert not kernels.cpu_has_avx2(cpuinfo(x86, "flags\t\t: fpu sse2 avx fma"))
    # Listed as "avx2" only, not as part of another flag's name.
    assert not kernels.cpu_has_avx2(cpuinfo("flags\t\t: avx512f avx2x vavx2"))
    assert not kernels.cpu_has_avx2(cpuinfo("Features\t: fp asimd avx2"))  # no flags line
    assert not kernels.cpu_has_avx2(tmp_path / "no-such-file")


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
    # Each build's flags plus every common warning as an error: a new warning
    # in kernels.c fails here rather than going unseen in the cache build.
    # Both builds compile at once.
    procs = [subprocess.Popen([kernels.COMPILER, *flags, "-Wall", "-Wextra", "-Werror",
                               "-shared", "-fPIC", "-o", str(tmp_path / f"kernels{i}.so"),
                               str(kernels.SOURCE), "-lm"], stderr=subprocess.PIPE, text=True)
             for i, flags in enumerate((kernels.FLAGS, kernels.AVX2_FLAGS))]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr


def test_sampler_and_warp_level_reject_indices_past_int32():
    # The compiled sampler's indices are 32-bit. Broadcast views stand in for
    # the arrays: the shapes are checked before any array is copied, so
    # nothing large is allocated.
    xy = np.zeros((1, 2))
    # Too many tap-count entries, then too many field values.
    for h, w, nc in [(46336, 46336, 1), (32768, 32768, 3)]:
        field = np.broadcast_to(0.0, (h, w, nc) if nc > 1 else (h, w))
        with pytest.raises(ValueError, match=f"\\({h}, {w}, {nc}\\) field is too large"):
            kernels.sample_bicubic(field, xy, np.broadcast_to(True, (h, w)))
    # The warp step samples the 2-channel trajectory field: H * W * 2 values.
    h, w = 32768, 32769
    plane, image = np.broadcast_to(True, (h, w)), np.broadcast_to(0.0, (h, w))
    op = LevelOperator(*[np.zeros((1, 1), np.float32)] * 10)
    with pytest.raises(ValueError, match=f"\\({h}, {w}, 2\\) field is too large"):
        kernels.WarpLevel(image, image, np.broadcast_to(0.0, (h, w, 2)), plane, plane, op,
                          SolverParams())
    # At the limit: the largest index is 2**31 - 1, which fits.
    kernels._check_indices(2**15 - 5, 2**16 - 5, 1)  # (h + 5) (w + 5) = 2**31
    kernels._check_indices(2**15, 2**15, 2)           # h w nc = 2**31
    for shape in [(2**15 - 5, 2**16 - 4, 1), (2**15, 2**15 + 1, 2)]:
        with pytest.raises(ValueError, match="too large"):
            kernels._check_indices(*shape)


def test_both_builds_sample_alike(in_both_builds):
    # Rim, empty and full stencils, runs of full ones long enough for the
    # vector sums, tails of every length, and NaN, inf and far positions.
    rng = np.random.default_rng(7)
    special = [np.nan, np.inf, -np.inf, 1e300, -1e300]
    for h, w in [(1, 1), (3, 4), (4, 4), (9, 7), (40, 37)]:
        pos = np.concatenate([rng.uniform(-4.5, (w + 3.5, h + 3.5), size=(300, 2)),
                              rasters.pixel_grid(h + 6, w + 6).reshape(-1, 2) - 2.75,
                              [(a, 1.0) for a in special] + [(1.0, a) for a in special]])
        for nc in (1, 2, 3):
            field = rng.normal(size=(h, w, nc) if nc > 1 else (h, w))
            for mask in (np.ones((h, w), bool), rng.random((h, w)) < 0.8):
                base, avx2 = in_both_builds(lambda: kernels.sample_bicubic(field, pos, mask))
                assert base == avx2, (h, w, nc)


def test_both_builds_cycle_alike(in_both_builds):
    # Rows of 37 pixels: the cycle's 8-float AVX2 and 4-float SSE2 loops and
    # their tails; signed zeros in u and v.
    rng = np.random.default_rng(3)
    h, w = 23, 37
    mask = rng.random((h, w)) < 0.9
    params = SolverParams()
    op = solver.precondition_steps(solver.compute_tensor(rng.random((h, w)), mask), mask,
                                   params)
    op = LevelOperator(**{k: a.astype(np.float32) for k, a in vars(op).items()})
    u, iu, rho0 = (rng.normal(size=(h, w)).astype(np.float32) for _ in range(3))
    v, p = (rng.normal(size=(2, h, w)).astype(np.float32) for _ in range(2))
    q = rng.normal(size=(4, h, w)).astype(np.float32)
    u[rng.random((h, w)) < 0.2], v[rng.random((2, h, w)) < 0.2] = -0.0, -0.0

    def cycles():
        state = (u, v, p, q, u, v)
        for _ in range(5):
            state = kernels.primal_dual_cycle(state, op, (iu, rho0, u), params)
        return state

    base, avx2 = in_both_builds(cycles)
    assert base == avx2
