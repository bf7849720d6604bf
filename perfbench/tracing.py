"""Spans around the public functions of each fisheyestereo module, from outside.

`Tracer.installed` replaces module functions and camera/scene methods with
wrappers that record one span per call: name, start, end and the parent span.
Every name another module bound with ``from ... import`` is rebound too, so
calls made inside the package are caught, not only the benchmark's own calls.
The patches are undone when the context exits. Spans stay in memory until the
benchmark writes them out.

Self time is a span's duration minus the durations of its direct children.
Calls run on one thread, so children never overlap and self times add up to
the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Deepest pyramid a workload solves; levels it does not reach report 0.
MAX_LEVELS = 4


def _count_points(index: int, width: int, key: str):
    """Counter: number of width-vectors in positional argument `index`."""
    return lambda args, out: {key: np.size(args[index]) // width}


def _count_bicubic(args, out):
    return {"points": np.size(args[1]) // 2, "valid": int(np.count_nonzero(out[1]))}


def _count_pixels(args, out):
    return {"pixels": np.size(args[0].u)}


# (module, attribute, span name, counter). An attribute "Class.method" patches
# the method on the class. Counters run after the span ends, on (args, result).
TARGETS = (
    ("rasters", "sample_bicubic", "rasters.sample_bicubic", _count_bicubic),
    ("rasters", "gradient", "rasters.gradient", None),
    ("rasters", "divergence", "rasters.divergence", None),
    ("rasters", "upsample_state", "rasters.upsample_state", None),
    ("rasters", "build_pyramid", "rasters.build_pyramid", None),
    ("rasters", "smooth_masked", "rasters.smooth_masked", None),
    ("solver", "solve_pyramid", "solver.solve_pyramid", None),
    ("solver", "solve_level", "solver.solve_level", None),
    ("solver", "primal_dual_iterate", "solver.primal_dual_iterate", _count_pixels),
    ("solver", "thresholding_step", "solver.thresholding_step", None),
    ("solver", "image_derivative_along", "solver.image_derivative_along", None),
    ("solver", "compute_tensor", "solver.compute_tensor", None),
    ("solver", "precondition_steps", "solver.precondition_steps", None),
    ("solver", "calibrate_second_image", "solver.calibrate_second_image", None),
    ("fields", "generate_calibration_field", "fields.calibration", None),
    ("fields", "generate_trajectory_field", "fields.trajectory", None),
    ("fields", "compose_with_calibration", "fields.compose", None),
    ("camera", "PinholeCamera.project", "camera.project", _count_points(1, 3, "points")),
    ("camera", "UnifiedCamera.project", "camera.project", _count_points(1, 3, "points")),
    ("camera", "PolynomialFisheyeCamera.project", "camera.project",
     _count_points(1, 3, "points")),
    ("camera", "PinholeCamera.unproject", "camera.unproject", _count_points(1, 2, "points")),
    ("camera", "UnifiedCamera.unproject", "camera.unproject", _count_points(1, 2, "points")),
    ("camera", "PolynomialFisheyeCamera.unproject", "camera.unproject",
     _count_points(1, 2, "points")),
    ("camera", "triangulate_midpoint", "camera.triangulate", None),
    ("synth", "render", "synth.render", None),
    ("synth", "Scene.cast", "synth.cast", _count_points(2, 3, "rays")),
    ("synth", "make_ground_truth", "synth.make_ground_truth", None),
    ("evaluate", "depth_from_correspondence", "evaluate.depth", None),
)

# Counters each span name records, so a layer that never runs still reports 0.
_COUNTERS = {
    "rasters.sample_bicubic": ("points", "valid"),
    "solver.primal_dual_iterate": ("pixels",),
    "camera.project": ("points",),
    "camera.unproject": ("points",),
    "synth.cast": ("rays",),
}

# metric suffix -> (counter numerator, counter denominator, scale)
_RATIOS = {
    "rasters.sample_bicubic_ns_per_point": ("rasters.sample_bicubic", "s", "points", 1e9),
    "rasters.sample_bicubic_valid_frac": ("rasters.sample_bicubic", "valid", "points", 1.0),
    "solver.pd_ns_per_pixel": ("solver.primal_dual_iterate", "s", "pixels", 1e9),
    "synth.cast_ns_per_ray": ("synth.cast", "s", "rays", 1e9),
}


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span's index."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield idx
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                out = fn(*args, **kwargs)
            if counter is not None:
                self.spans[idx][4] = counter(args, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Patch every target while the context is open."""
        pkg = importlib.import_module("fisheyestereo")
        modules = [pkg] + [importlib.import_module(f"fisheyestereo.{m}")
                           for m in sorted({t[0] for t in TARGETS})]
        undo = []
        try:
            for mod_name, attr, name, counter in TARGETS:
                owner = importlib.import_module(f"fisheyestereo.{mod_name}")
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, counter)
                owners = [owner]
                if isinstance(owner, type(pkg)):
                    owners = [m for m in modules if vars(m).get(attr) is original]
                for o in owners:
                    undo.append((o, attr, original))
                    setattr(o, attr, wrapper)
            yield self
        finally:
            for o, attr, original in reversed(undo):
                setattr(o, attr, original)


def _span_tables(spans):
    """Root index, direct-children duration and pyramid level of every span."""
    root = [0] * len(spans)
    child = [0.0] * len(spans)
    level = [None] * len(spans)
    seen = defaultdict(int)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        root[i] = i if parent is None else root[parent]
        if parent is not None:
            child[parent] += t1 - t0
            if name == "solver.solve_level":
                level[i] = seen[parent]
                seen[parent] += 1
    return root, child, level


def layer_metrics(spans, roots, prefix: str = "") -> dict[str, float]:
    """Per-layer totals over the span trees of `roots`, divided by their number.

    For each span name N: N_s (inclusive seconds), N_self_s, N_calls and one
    entry per counter; plus the ratios in `_RATIOS` and solve_level time per
    pyramid level (L0 is the coarsest).
    """
    roots = set(roots)
    names = {name for _, _, name, _ in TARGETS}
    tot = {f"{n}_{q}": 0.0 for n in names
           for q in ("s", "self_s", "calls") + _COUNTERS.get(n, ())}
    for k in range(MAX_LEVELS):
        tot[f"solver.solve_level_s.L{k}"] = 0.0
    root, child, level = _span_tables(spans)
    for i, (name, t0, t1, _, counts) in enumerate(spans):
        if root[i] not in roots or name not in names:
            continue
        tot[f"{name}_s"] += t1 - t0
        tot[f"{name}_self_s"] += t1 - t0 - child[i]
        tot[f"{name}_calls"] += 1
        for key, value in (counts or {}).items():
            tot[f"{name}_{key}"] += value
        if level[i] is not None:
            tot[f"solver.solve_level_s.L{level[i]}"] += t1 - t0
    out = {}
    for metric, (name, num, den, scale) in _RATIOS.items():
        d = tot[f"{name}_{den}"]
        out[prefix + metric] = scale * tot[f"{name}_{num}"] / d if d else 0.0
    n = max(len(roots), 1)
    out.update({prefix + k: v / n for k, v in tot.items()})
    return out


def unattributed_s(spans, roots) -> list[float]:
    """Per root: its duration minus the self times of every layer span under it.

    This is the root's own self time: benchmark code and untraced calls made
    directly by the op.
    """
    root, child, _ = _span_tables(spans)
    gaps = []
    for r in roots:
        wall = spans[r][2] - spans[r][1]
        layer_self = sum(t1 - t0 - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)
                         if root[i] == r and i != r)
        gaps.append(wall - layer_self)
    return gaps
