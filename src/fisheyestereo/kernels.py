"""Builds, loads and calls the compiled loops of `kernels.c`.

The primal-dual cycle (`primal_dual_cycle`) and the masked bicubic sampler
(`sample_bicubic`) run as C loops, compiled by the machine's `gcc` on first
use: importing this module compiles and loads nothing. The library is cached
in the package's `__pycache__/`, named by a hash of the C source and the
compiler flags (`cache_key`), so an edited source or a changed flag builds a
new one. It is compiled to a temporary file and published with `os.replace`,
so a process never loads a half-written library. Without `gcc` on `PATH`,
the first kernel call raises `KernelCompileError`.

The flags, and why each is there:

* `-O3` vectorizes the cycle's row loops;
* `-ffp-contract=off` keeps gcc from fusing a multiply and an add into one
  FMA, which rounds once where NumPy rounds twice; the kernels' results are
  bit-identical to NumPy's only without it;
* `-fno-trapping-math` lets gcc evaluate both arms of a select, as SIMD
  blends do; without it the cycle's selects (the projections and the
  thresholding step) are not vectorized;
* `-fno-math-errno` lets `sqrt` compile to one instruction, since it need
  not set `errno`.

No `-march`: the library runs on every CPU of its architecture. Never
`-ffast-math`, which reorders sums and drops signed zeros and NaN.

C never reads or writes out of bounds: the cycle rejects any array whose
dtype, C-contiguity, alignment or shape does not match with ValueError; the
sampler converts its inputs to float64, bool, C-contiguous and aligned
arrays, then rejects a shape mismatch.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("kernels.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math")

_PTRS = ctypes.POINTER(ctypes.c_void_p)
_SIZE = ctypes.c_ssize_t
_FLOAT32 = np.dtype(np.float32)


class KernelCompileError(RuntimeError):
    """The C kernels could not be compiled or loaded."""


def cache_key(source: bytes, flags: Sequence[str]) -> str:
    """Hash of the C source and the compiler flags that names the library."""
    digest = hashlib.sha256(source)
    for flag in flags:
        digest.update(b"\0" + flag.encode())
    return digest.hexdigest()[:16]


def load(cache_dir: Path = CACHE_DIR) -> ctypes.CDLL:
    """The compiled kernels from `cache_dir`; a cache miss compiles them into
    it first."""
    path = Path(cache_dir) / f"kernels-{cache_key(SOURCE.read_bytes(), FLAGS)}.so"
    if not path.exists():
        _compile(path)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelCompileError(f"cannot load the compiled kernels {path}: {exc}") from None
    lib.pd_cycle.argtypes = [_SIZE, _SIZE, _PTRS, _PTRS] + [ctypes.c_float] * 4
    lib.pd_cycle.restype = None
    lib.sample_bicubic.argtypes = [_SIZE, ctypes.c_void_p, _SIZE, _SIZE, _SIZE,
                                   _PTRS, ctypes.c_void_p, _PTRS, _PTRS, _PTRS, _PTRS]
    lib.sample_bicubic.restype = None
    return lib


def _compile(path: Path) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise KernelCompileError(f"cannot write the kernel cache {path.parent}: {exc}") from None
    try:
        try:
            proc = subprocess.run([COMPILER, *FLAGS, "-shared", "-fPIC", "-o", tmp,
                                   str(SOURCE), "-lm"], capture_output=True, text=True)
        except FileNotFoundError:
            raise KernelCompileError(f"the solver's kernels need the C compiler {COMPILER!r} "
                                   f"on PATH to build {SOURCE.name}; none was found") from None
        if proc.returncode != 0:
            raise KernelCompileError(f"{COMPILER} failed to compile {SOURCE}:\n{proc.stderr}")
        os.chmod(tmp, 0o755)  # mkstemp made it private; every user may load the cache
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _library() -> ctypes.CDLL:
    return load(CACHE_DIR)


def _check(name: str, a: np.ndarray, dtype: np.dtype, shape: tuple) -> None:
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
            and a.flags.c_contiguous and a.flags.aligned):
        got = (f"{a.dtype} {a.shape}{'' if a.flags.c_contiguous else ' non-contiguous'}"
               f"{'' if a.flags.aligned else ' unaligned'}"
               if isinstance(a, np.ndarray) else type(a).__name__)
        raise ValueError(f"{name} must be a C-contiguous, aligned {dtype} array of shape "
                         f"{shape}, got {got}")


def _pointers(arrays: Sequence[np.ndarray]):
    return (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))


def primal_dual_cycle(state: Sequence[np.ndarray], operator: Sequence[np.ndarray],
                      data: Sequence[np.ndarray], alpha0: float, alpha1: float,
                      lam: float, scale: float) -> tuple[np.ndarray, ...]:
    """One primal-dual cycle in C; returns the new (u, v, p, q, u_bar, v_bar).

    `state` is (u, v, p, q, u_bar, v_bar), shaped (H, W), (2, H, W),
    (2, H, W), (4, H, W), (H, W) and (2, H, W); `operator` is the (H, W)
    arrays ex, ey, a_ex, b_ex, b_ey, c_ey, p_step, u_step, tau_u, tau_v; and
    `data` the (H, W) iu, rho0, u_omega. All are float32, which the scalars
    are rounded to and the results keep. `scale` inflates the dual norms
    before the projections.
    """
    plane = np.shape(state[0])
    if len(plane) != 2:
        raise ValueError(f"u must be an (H, W) array, got shape {plane}")
    shapes = [plane, (2,) + plane, (2,) + plane, (4,) + plane, plane, (2,) + plane]
    inputs = [*state, *operator, *data]
    names = ["u", "v", "p", "q", "u_bar", "v_bar", "ex", "ey", "a_ex", "b_ex", "b_ey",
             "c_ey", "p_step", "u_step", "tau_u", "tau_v", "iu", "rho0", "u_omega"]
    if len(inputs) != len(names):
        raise ValueError(f"expected {len(names)} arrays, got {len(inputs)}")
    for label, a, shape in zip(names, inputs, shapes + [plane] * 13):
        _check(label, a, _FLOAT32, shape)
    outputs = tuple(np.empty(shape, _FLOAT32) for shape in shapes)
    _library().pd_cycle(plane[0], plane[1], _pointers(inputs), _pointers(outputs),
                        alpha0, alpha1, lam, scale)
    return outputs


def _stencil_tap_counts(mask: np.ndarray) -> np.ndarray:
    """In-image, in-mask taps of the 4x4 stencil at every floor (ix, iy), as uint8.

    Entry [iy + 3, ix + 3] counts the taps of the stencil whose floor is
    (ix, iy), for ix in [-3, W + 1] and iy in [-3, H + 1]: four shifted
    sums of the zero-padded mask along each axis. The outer ring of floors
    (-3 and W + 1, or H + 1) has no tap in the image, and neither has any
    floor beyond it.
    """
    h, w = mask.shape
    padded = np.zeros((h + 8, w + 8), dtype=np.uint8)
    padded[4:-4, 4:-4] = mask
    rows = padded[:-3] + padded[1:-2] + padded[2:-1] + padded[3:]
    return rows[:, :-3] + rows[:, 1:-2] + rows[:, 2:-1] + rows[:, 3:]


def sample_bicubic(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                   pos: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sample each (field, mask) pair of `pairs` at the same positions, in one pass.

    Each field is (H, W) or (H, W, C) and each mask (H, W), with the (H, W)
    of the first mask; `pos` is (..., 2). Returns one (values, valid) per
    pair, exactly what `rasters.sample_bicubic(field, pos, mask)` returns.
    The loop is compiled: per position it computes the floors, fractions and
    Catmull-Rom weights once. Floors are clipped into [-3, W + 1] x
    [-3, H + 1] (NaN to -3), where every floor outside the image's reach has
    no tap. Each pair then reads its own mask's map of valid taps per
    stencil (`_stencil_tap_counts`): a full stencil (16 taps) takes the
    16-tap sum, an empty one (0) is NaN and invalid, and a rim stencil runs
    the bilinear/nearest chain. Every class accumulates its taps in the
    order of the chain, so the results are those of evaluating the whole
    chain at every position.
    """
    pos = np.require(pos, np.float64, "CA")
    fields = [np.require(field, np.float64, "CA") for field, _ in pairs]
    masks = [np.require(mask, bool, "CA") for _, mask in pairs]
    if not masks:
        raise ValueError("need at least one (field, mask) pair")
    if pos.shape[-1:] != (2,):
        raise ValueError(f"positions must be (..., 2), got shape {pos.shape}")
    if masks[0].ndim != 2:
        raise ValueError(f"masks must be (H, W), got shape {masks[0].shape}")
    h, w = masks[0].shape
    for k, (field, mask) in enumerate(zip(fields, masks)):
        for name, a, shape in ((f"field {k}", field, (h, w) + field.shape[2:3]),
                               (f"mask {k}", mask, (h, w))):
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    xy = pos.reshape(-1, 2)
    counts = [_stencil_tap_counts(m) for m in masks]
    channels = np.array([f.shape[2] if f.ndim == 3 else 1 for f in fields], dtype=np.intp)
    values = [np.empty((len(xy), nc)) for nc in channels]
    valid = [np.empty(len(xy), dtype=bool) for _ in fields]
    _library().sample_bicubic(len(xy), xy.ctypes.data, h, w, len(fields), _pointers(fields),
                              channels.ctypes.data, _pointers(masks), _pointers(counts),
                              _pointers(values), _pointers(valid))
    return [(vals.reshape(pos.shape[:-1] + field.shape[2:]), ok.reshape(pos.shape[:-1]))
            for vals, ok, field in zip(values, valid, fields)]
