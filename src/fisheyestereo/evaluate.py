"""Error metrics and error-map rendering for dense correspondence estimates.

Errors are measured as Euclidean distance between estimated and true
correspondence positions (pixels); the erroneous-pixel percentage counts
pixels above a threshold tau over the covisible, in-mask population only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .camera import StereoRig, triangulate_midpoint
from .rasters import pixel_grid, vector_norm
from .schema import POSITIVE

DEFAULT_TAUS = (1.0, 3.0, 5.0)
# Largest depth, meters, that depth_from_correspondence reports.
_DEPTH_CAP = 1e6

# Depth-error color ramp: bin edges in meters and one RGB color per bin.
DEPTH_ERROR_BREAKS = (0.0, 0.19, 0.75, 3.0, 24.0, 48.0, float("inf"))
DEPTH_ERROR_COLORS = (
    (49, 54, 149),     # [0, 0.19)
    (116, 173, 209),   # [0.19, 0.75)
    (224, 243, 248),   # [0.75, 3)
    (254, 224, 144),   # [3, 24)
    (244, 109, 67),    # [24, 48)
    (165, 0, 38),      # [48, inf)
)

_VIRIDIS_ANCHORS = (
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
)


@dataclass
class ErrorReport:
    """Summary statistics over covisible, in-mask pixels; a statistic over
    no pixels is NaN (None for the depth error)."""

    pct_bad: dict[float, float]
    mean_error_px: float
    median_error_px: float
    mean_abs_depth_error_m: float | None
    valid_count: int

    def to_dict(self) -> dict:
        """The report as JSON values: a statistic over no pixels is None
        (null), since JSON has no NaN."""
        return {
            "pct_bad": {f"tau>{t:g}": _nan_to_none(v) for t, v in self.pct_bad.items()},
            "mean_error_px": _nan_to_none(self.mean_error_px),
            "median_error_px": _nan_to_none(self.median_error_px),
            "mean_abs_depth_error_m": self.mean_abs_depth_error_m,
            "valid_count": self.valid_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def _nan_to_none(value: float) -> float | None:
    return None if math.isnan(value) else value


def correspondence_error(w_est: np.ndarray, w_gt: np.ndarray,
                         valid: np.ndarray) -> np.ndarray:
    """Per-pixel distance |(x + w_est) - (x + w_gt)| in pixels, 0 outside `valid`."""
    if w_est.shape != w_gt.shape:
        raise ValueError("estimate and ground truth dimensions differ")
    err = vector_norm(w_est - w_gt)
    return np.where(valid, err, 0.0)


def erroneous_percentage(err: np.ndarray, valid: np.ndarray, tau: float) -> float:
    """Percentage of valid pixels with error above tau; NaN on an empty set."""
    tau = POSITIVE(tau, "tau")
    n = int(np.count_nonzero(valid))
    if n == 0:
        return float("nan")
    return 100.0 * float(np.count_nonzero(err[valid] > tau)) / n


def make_report(w_est: np.ndarray, w_gt: np.ndarray, valid: np.ndarray,
                taus=DEFAULT_TAUS, depth_est: np.ndarray | None = None,
                depth_gt: np.ndarray | None = None) -> ErrorReport:
    err = correspondence_error(w_est, w_gt, valid)
    n = int(np.count_nonzero(valid))
    sel = err[valid]
    depth_err = None
    if depth_est is not None and depth_gt is not None:
        d_ok = valid & np.isfinite(depth_est) & (depth_est > 0)
        if np.any(d_ok):
            depth_err = float(np.mean(np.abs(depth_est - depth_gt)[d_ok]))
    return ErrorReport(
        pct_bad={float(t): erroneous_percentage(err, valid, t) for t in taus},
        mean_error_px=float(np.mean(sel)) if n else float("nan"),
        median_error_px=float(np.median(sel)) if n else float("nan"),
        mean_abs_depth_error_m=depth_err,
        valid_count=n,
    )


def depth_from_correspondence(rig: StereoRig, corr: np.ndarray,
                              valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate a correspondence field into depth along camera-0 rays.

    Near-parallel rays (vanishing disparity) are flagged invalid with depth 0;
    valid depths are capped at `_DEPTH_CAP`.
    """
    grid = pixel_grid(*valid.shape)
    x1 = grid + corr
    depth, ok = triangulate_midpoint(rig, grid, x1)
    ok = ok & valid
    depth = np.where(ok, np.minimum(depth, _DEPTH_CAP), 0.0)
    return depth, ok


def depth_error_map(depth_est: np.ndarray, depth_gt: np.ndarray,
                    valid: np.ndarray) -> np.ndarray:
    """|depth_est - depth_gt| in meters, 0 outside `valid`."""
    return np.where(valid, np.abs(depth_est - depth_gt), 0.0)


def colorize_depth_error(err: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Map a depth-error field through the documented fixed ramp (uint8 RGB)."""
    out = np.zeros(err.shape + (3,), dtype=np.uint8)
    for i, color in enumerate(DEPTH_ERROR_COLORS):
        lo, hi = DEPTH_ERROR_BREAKS[i], DEPTH_ERROR_BREAKS[i + 1]
        sel = valid & (err >= lo) & (err < hi)
        out[sel] = color
    return out


def colorize(values: np.ndarray, valid: np.ndarray,
             vmin: float | None = None, vmax: float | None = None) -> np.ndarray:
    """Perceptual colormap for field visualizations (uint8 RGB, black invalid)."""
    vals = values[valid]
    if vals.size == 0:
        return np.zeros(values.shape + (3,), dtype=np.uint8)
    lo = float(np.min(vals)) if vmin is None else vmin
    hi = float(np.max(vals)) if vmax is None else vmax
    span = hi - lo if hi > lo else 1.0
    t = np.clip((values - lo) / span, 0.0, 1.0)
    anchors = np.asarray(_VIRIDIS_ANCHORS)
    idx = t * (len(anchors) - 1)
    i0 = np.clip(np.floor(idx).astype(int), 0, len(anchors) - 2)
    frac = (idx - i0)[..., None]
    rgb = anchors[i0] * (1 - frac) + anchors[i0 + 1] * frac
    out = (rgb * 255).astype(np.uint8)
    out[~valid] = 0
    return out
