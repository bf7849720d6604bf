"""Builds, loads and calls the compiled loops of `kernels.c`.

The solver's warp step (`WarpLevel`), the primal-dual cycle
(`primal_dual_cycle`) and the masked bicubic sampler (`sample_bicubic`) run
as C loops, compiled by the machine's `gcc` on first use: importing this
module compiles and loads nothing. A `WarpLevel` holds one pyramid level's
arrays and scratch and the pointers to them, set up once; each `step` is
then one C call that does a whole warp iteration: both samplings, the
linearization, the cycles, the clip and the accumulation. The library is cached
in the package's `__pycache__/`, named by a hash of the C source and the
compiler flags (`cache_key`), so an edited source or a changed flag builds a
new one. It is compiled to a temporary file and published with `os.replace`,
so a process never loads a half-written library. Without `gcc` on `PATH`,
the first kernel call raises `KernelCompileError`.

The warp step splits the level into two row bands when the calling thread
may run on two CPUs or more (`sched_getaffinity`), else it keeps one. The
caller's thread runs the top band and a POSIX thread, started and joined
within the call, the bottom one; ctypes releases the GIL meanwhile. Each
band does its own rows of every step: the first sampling pass, the I_u
pass, each cycle, and the clip and accumulation. The bands wait at a
barrier where one reads the other's rows: after the first pass (the tap
counts of the warped image's valid map read rows up to 4 away), after the
tap counts (the I_u pass reads two rows away), inside each cycle (the
primal step of a band's first row needs the new duals of the row above)
and at the end of each cycle. Each band keeps the largest dual norms of
its rows over the cycles, and the call combines the bands' once they are
joined; a NaN norm means that a dual went NaN somewhere in some cycle.
Every pixel's arithmetic is the same in either band, so the results do not
depend on the number of bands.

The flags, and why each is there:

* `-O3` vectorizes the cycle's row loops;
* `-ffp-contract=off` keeps gcc from fusing a multiply and an add into one
  FMA, which rounds once where NumPy rounds twice; the kernels' results are
  bit-identical to NumPy's only without it;
* `-fno-trapping-math` lets gcc evaluate both arms of a select, as SIMD
  blends do; without it the cycle's selects (the projections and the
  thresholding step) are not vectorized;
* `-fno-math-errno` lets `sqrt` compile to one instruction, since it need
  not set `errno`;
* `-fopenmp-simd` honours the `#pragma omp simd` of the sampler's loop
  over positions, which says that its lanes are independent. It enables
  that pragma only: nothing links the OpenMP runtime or starts its threads;
* `-pthread` compiles and links the warp step's band thread and barriers.

There are two builds of the same source: the baseline with `FLAGS`, which
runs on every CPU of its architecture, and one with `AVX2_FLAGS`, those
plus `-mavx2`, whose vectors are twice as wide. The first kernel call picks
the AVX2 build when `cpu_has_avx2` finds `avx2` on every CPU's `flags` line
of `/proc/cpuinfo`, else the baseline; the probe needs no compiled code,
and a cold cache builds only the library it picks. Both builds give the
same bits. Neither uses FMA: `-mavx2` does not enable it, and
`-ffp-contract=off` would keep gcc from fusing anyway. There is no
`-march=native`, which enables whatever the compiling CPU has, so a shared
cache could hold code that another CPU cannot run; and no AVX-512 build,
whose 512-bit cycle was measured slower than the AVX2 one. Never
`-ffast-math`, which reorders sums and drops signed zeros and NaN. No
OpenMP runtime either: the OpenMP thread count follows `OMP_NUM_THREADS`,
which callers set to 1 to keep BLAS on one thread.

C never reads or writes out of bounds: the cycle rejects any array whose
dtype, C-contiguity, alignment or shape does not match with ValueError; the
sampler and `WarpLevel` reject a shape mismatch, and any shape whose sampler
indices do not fit in 32 bits, before they convert their images and masks
to float64, bool, C-contiguous and aligned arrays; and a `WarpLevel`
rejects an operator, u or w that does not match as the cycle does.
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
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .solver import LevelOperator, SolverParams

SOURCE = Path(__file__).with_name("kernels.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math", "-fopenmp-simd",
         "-pthread")
AVX2_FLAGS = FLAGS + ("-mavx2",)

_PTRS = ctypes.POINTER(ctypes.c_void_p)
_SIZE = ctypes.c_ssize_t
_FLOAT32 = np.dtype(np.float32)
_INT32_MAX = np.iinfo(np.int32).max
# The `LevelOperator` arrays the compiled loops read, in the order of kernels.c.
_OPERATOR = ("ex", "ey", "a_ex", "b_ex", "b_ey", "c_ey", "p_step", "u_step", "tau_u",
             "tau_v")


class KernelCompileError(RuntimeError):
    """The C kernels could not be compiled or loaded."""


def cache_key(source: bytes, flags: Sequence[str]) -> str:
    """Hash of the C source and the compiler flags that names the library."""
    digest = hashlib.sha256(source)
    for flag in flags:
        digest.update(b"\0" + flag.encode())
    return digest.hexdigest()[:16]


def cpu_has_avx2(cpuinfo: Path = Path("/proc/cpuinfo")) -> bool:
    """Whether every CPU that `cpuinfo` lists has AVX2; False when it cannot be
    read or lists no `flags` line, as outside Linux on x86."""
    try:
        lines = Path(cpuinfo).read_text().splitlines()
    except OSError:
        return False
    flags = [line.partition(":")[2].split() for line in lines
             if line.partition(":")[0].strip() == "flags"]
    return bool(flags) and all("avx2" in cpu for cpu in flags)


def load(cache_dir: Path = CACHE_DIR, flags: Sequence[str] = FLAGS) -> ctypes.CDLL:
    """The kernels compiled with `flags` from `cache_dir`; a cache miss
    compiles them into it first."""
    path = Path(cache_dir) / f"kernels-{cache_key(SOURCE.read_bytes(), flags)}.so"
    if not path.exists():
        _compile(path, flags)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelCompileError(f"cannot load the compiled kernels {path}: {exc}") from None
    lib.pd_cycle.argtypes = [_SIZE, _SIZE, _PTRS, _PTRS] + [ctypes.c_float] * 3
    lib.pd_cycle.restype = None
    lib.sample_bicubic.argtypes = ([_SIZE, ctypes.c_void_p, _SIZE, _SIZE, ctypes.c_void_p, _SIZE]
                                   + [ctypes.c_void_p] * 4)
    lib.sample_bicubic.restype = None
    lib.tap_counts.argtypes = [_SIZE, _SIZE] + [ctypes.c_void_p] * 3
    lib.tap_counts.restype = None
    lib.warp_step.argtypes = ([_SIZE, _SIZE, _SIZE, _PTRS, _SIZE] + [ctypes.c_void_p] * 5
                              + [ctypes.c_float] * 3 + [ctypes.c_double])
    lib.warp_step.restype = _SIZE
    return lib


def _compile(path: Path, flags: Sequence[str]) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise KernelCompileError(f"cannot write the kernel cache {path.parent}: {exc}") from None
    try:
        try:
            proc = subprocess.run([COMPILER, *flags, "-shared", "-fPIC", "-o", tmp,
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
    return load(CACHE_DIR, AVX2_FLAGS if cpu_has_avx2() else FLAGS)


def _check(name: str, a: np.ndarray, dtype: np.dtype, shape: tuple) -> None:
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
            and a.flags.c_contiguous and a.flags.aligned):
        got = (f"{a.dtype} {a.shape}{'' if a.flags.c_contiguous else ' non-contiguous'}"
               f"{'' if a.flags.aligned else ' unaligned'}"
               if isinstance(a, np.ndarray) else type(a).__name__)
        raise ValueError(f"{name} must be a C-contiguous, aligned {dtype} array of shape "
                         f"{shape}, got {got}")


def _check_indices(h: int, w: int, nc: int) -> None:
    """Reject an (h, w, nc) field whose sampler indices overflow int32: those
    of its values and of the (h + 5, w + 5) entries of a tap-count map."""
    if max(h * w * nc, (h + 5) * (w + 5)) - 1 > _INT32_MAX:
        raise ValueError(f"a ({h}, {w}, {nc}) field is too large for the sampler's 32-bit "
                         "indices")


def _pointers(arrays: Sequence[np.ndarray]):
    return (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))


def primal_dual_cycle(state: Sequence[np.ndarray], op: LevelOperator,
                      data: Sequence[np.ndarray], params: SolverParams
                      ) -> tuple[np.ndarray, ...]:
    """One primal-dual cycle in C; returns the new (u, v, p, q, u_bar, v_bar).

    `state` is (u, v, p, q, u_bar, v_bar), shaped (H, W), (2, H, W),
    (2, H, W), (4, H, W), (H, W) and (2, H, W); `op` a `LevelOperator` of
    (H, W) arrays; and `data` the (H, W) iu, rho0, u_omega. All are float32,
    which the weights alpha0, alpha1 and lam of `params` are rounded to and
    the results keep.
    """
    plane = np.shape(state[0])
    if len(plane) != 2:
        raise ValueError(f"u must be an (H, W) array, got shape {plane}")
    shapes = [plane, (2,) + plane, (2,) + plane, (4,) + plane, plane, (2,) + plane]
    if len(state) != 6 or len(data) != 3:
        raise ValueError(f"expected 6 state and 3 data arrays, got {len(state)} and "
                         f"{len(data)}")
    inputs = [*state, *(getattr(op, name) for name in _OPERATOR), *data]
    names = ["u", "v", "p", "q", "u_bar", "v_bar", *_OPERATOR, "iu", "rho0", "u_omega"]
    for label, a, shape in zip(names, inputs, shapes + [plane] * 13):
        _check(label, a, _FLOAT32, shape)
    outputs = tuple(np.empty(shape, _FLOAT32) for shape in shapes)
    _library().pd_cycle(plane[0], plane[1], _pointers(inputs), _pointers(outputs),
                        params.alpha0, params.alpha1, params.lam)
    return outputs


def _stencil_tap_counts(mask: np.ndarray) -> np.ndarray:
    """In-image, in-mask taps of the 4x4 stencil at every floor (ix, iy), as uint8.

    Entry [iy + 3, ix + 3] counts the taps of the stencil whose floor is
    (ix, iy), for ix in [-3, W + 1] and iy in [-3, H + 1]. The outer ring of
    floors (-3 and W + 1, or H + 1) has no tap in the image, and neither has
    any floor beyond it. `mask` must be a C-contiguous (H, W) bool array.
    """
    h, w = mask.shape
    rows, counts = np.empty((h + 5, w), np.uint8), np.empty((h + 5, w + 5), np.uint8)
    _library().tap_counts(h, w, mask.ctypes.data, rows.ctypes.data, counts.ctypes.data)
    return counts


def sample_bicubic(field: np.ndarray, pos: np.ndarray,
                   mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample `field` at continuous positions using only in-mask taps.

    Fallback chain per position: full 16-tap bicubic when every tap is valid,
    else bilinear renormalized over the valid inner 2x2 taps, else the nearest
    valid tap of the stencil. Positions whose whole stencil is invalid (or
    that are not finite) return NaN with a False validity flag.

    Parameters
    ----------
    field : (H, W) or (H, W, C) array
    pos : (..., 2) array of (x, y) positions
    mask : (H, W) boolean validity mask

    Returns
    -------
    values : (...,) or (..., C) float64 array, NaN where invalid
    valid : (...) boolean array

    The loop is compiled: per position it computes the floors, fractions and
    Catmull-Rom weights. Floors are clipped into [-3, W + 1] x [-3, H + 1]
    (NaN to -3), where every floor outside the image's reach has no tap. The
    mask's map of valid taps per stencil (`_stencil_tap_counts`) then picks
    the class: a full stencil (16 taps) takes the 16-tap sum, an empty one
    (0) is NaN and invalid, and a rim stencil runs the bilinear/nearest
    chain. Every class accumulates its taps in the order of the chain, so the
    results are those of evaluating the whole chain at every position. The
    positions go in chunks of 64, and four full stencils in a row of a 1- or
    2-channel field take their sums as one vector, a lane per position and
    an add chain per lane, which gives the same bits.
    """
    pos_shape, field_shape, plane = np.shape(pos), np.shape(field), np.shape(mask)
    if pos_shape[-1:] != (2,):
        raise ValueError(f"positions must be (..., 2), got shape {pos_shape}")
    if len(plane) != 2:
        raise ValueError(f"mask must be (H, W), got shape {plane}")
    h, w = plane
    if field_shape != (h, w) + field_shape[2:3]:
        raise ValueError(f"field must have shape {(h, w) + field_shape[2:3]}, "
                         f"got {field_shape}")
    nc = field_shape[2] if len(field_shape) == 3 else 1
    _check_indices(h, w, nc)
    pos = np.require(pos, np.float64, "CA")
    field = np.require(field, np.float64, "CA")
    mask = np.require(mask, bool, "CA")
    xy = pos.reshape(-1, 2)
    counts = _stencil_tap_counts(mask)
    values, valid = np.empty((len(xy), nc)), np.empty(len(xy), dtype=bool)
    _library().sample_bicubic(len(xy), xy.ctypes.data, h, w, field.ctypes.data, nc,
                              mask.ctypes.data, counts.ctypes.data, values.ctypes.data,
                              valid.ctypes.data)
    return values.reshape(pos.shape[:-1] + field.shape[2:]), valid.reshape(pos.shape[:-1])


class WarpLevel:
    """One pyramid level, set up for the compiled warp step (`step`).

    `i0` and `i1` are the level's (H, W) images, `traj_dirs` its (H, W, 2)
    trajectory directions, valid at `traj_valid`, and `mask` the solve mask.
    `op` is the level's `LevelOperator` of (H, W) float32 arrays, as
    `primal_dual_cycle` takes it; of `params`, the steps read the weights
    alpha0, alpha1 and lam, the clip `du_max` and the cycles per warp
    `pd_iters`. Construction converts the images to float64 and the masks
    to bool, C-contiguous, builds the tap-count maps of `mask` and
    `traj_valid`, and allocates the scratch that every step reuses: the
    second image sampled at x + w, I_u, the residual, the data mask, du,
    dirs, and two float32 states that the cycles write in turn. The duals v,
    p and q start at zero and carry from one step to the next.
    """

    def __init__(self, i0: np.ndarray, i1: np.ndarray, traj_dirs: np.ndarray,
                 traj_valid: np.ndarray, mask: np.ndarray, op: LevelOperator,
                 params: SolverParams):
        plane = np.shape(mask)
        if len(plane) != 2:
            raise ValueError(f"mask must be (H, W), got shape {plane}")
        for name, a, shape in (("i0", i0, plane), ("i1", i1, plane),
                               ("traj_dirs", traj_dirs, plane + (2,)),
                               ("traj_valid", traj_valid, plane)):
            if np.shape(a) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(a)}")
        _check_indices(*plane, 2)
        mask, traj_valid = (np.require(m, bool, "CA") for m in (mask, traj_valid))
        images = [np.require(a, np.float64, "CA") for a in (i0, i1, traj_dirs)]
        operator = [getattr(op, name) for name in _OPERATOR]
        for name, a in zip(_OPERATOR, operator):
            _check(name, a, _FLOAT32, plane)
        h, w = plane
        self.iu = np.empty(plane, _FLOAT32)
        self.data_ok = np.empty(plane, bool)
        # Two sets of u, v, p, q, u_bar, v_bar; the duals start in set 0.
        self.states = [[np.zeros((n,) + plane, _FLOAT32) for n in (1, 2, 2, 4, 1, 2)]
                       for _ in range(2)]
        self._cur = 0
        # In the order of the `level` enum of kernels.c.
        self._arrays = [*images, mask, traj_valid,
                        _stencil_tap_counts(mask), _stencil_tap_counts(traj_valid),
                        *operator, np.empty(plane), np.empty(plane, bool),
                        np.empty((h + 5, w), np.uint8), np.empty((h + 5, w + 5), np.uint8),
                        self.iu, np.empty(plane, _FLOAT32), self.data_ok,
                        np.empty(plane, _FLOAT32), *self.states[0], *self.states[1]]
        self._level = _pointers(self._arrays)
        self._scalars = (params.alpha0, params.alpha1, params.lam, params.du_max)
        self._pd_iters = params.pd_iters
        self._du = np.empty(plane)
        self._dirs = np.empty(plane + (2,))
        self._norms = np.empty(2)

    @property
    def duals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The current (v, p, q), (2, H, W), (2, H, W) and (4, H, W) float32,
        which the next step starts from; writing into them sets its start."""
        v, p, q = self.states[self._cur][1:4]
        return v, p, q

    def step(self, u: np.ndarray, w: np.ndarray, observe: bool = False):
        """One warp iteration, in place on the float64, C-contiguous u (H, W)
        and w (H, W, 2).

        Samples i1 and the directions at x + w, linearizes along the
        renormalized directions, runs the primal-dual cycles, clips the
        increment du to du_max and accumulates u += du, w += du * dirs; see
        `warp_step` in kernels.c. With `observe`, returns copies of
        (du, dirs, iu, data_ok) and the largest float64 norms of p and q over
        the cycles, NaN if a dual went NaN in any cycle; without, returns None.
        """
        plane = self.iu.shape
        _check("u", u, np.dtype(np.float64), plane)
        _check("w", w, np.dtype(np.float64), plane + (2,))
        if not (u.flags.writeable and w.flags.writeable):
            raise ValueError("u and w must be writeable")
        self._cur = _library().warp_step(
            plane[0], plane[1], self._pd_iters, self._level, self._cur, u.ctypes.data,
            w.ctypes.data, self._du.ctypes.data, self._dirs.ctypes.data,
            self._norms.ctypes.data if observe else None, *self._scalars)
        if observe:
            return (self._du.copy(), self._dirs.copy(), self.iu.copy(), self.data_ok.copy(),
                    float(self._norms[0]), float(self._norms[1]))
        return None
