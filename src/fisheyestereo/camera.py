"""Camera projection models, rigid poses, and ray triangulation.

Frame convention (fixed for all file formats): z forward, x right, y down.
A :class:`RelativePose` maps camera-0 coordinates into camera-1 coordinates,
``X1 = R @ X0 + t``; a second camera physically displaced by ``C1`` (in the
first camera's frame) therefore has ``t = -R @ C1``.

Supported models:

* ``pinhole``     - perspective, valid for z > 0 only;
* ``unified``     - single-viewpoint omnidirectional model with sphere offset
  ``xi``; reduces exactly to pinhole at xi = 0 and keeps a closed-form inverse;
* ``polynomial``  - equidistant fisheye with odd radial polynomial
  r/f = k1*theta + k2*theta^3 + k3*theta^5 + k4*theta^7, inverted by damped
  Newton iteration (tolerance 1e-10 rad, at most 50 steps).

Pixels returned by projection are continuous (x, y) with pixel centers at
integer coordinates. All operations are vectorized over leading axes and
return a boolean validity array alongside the values; invalid entries are NaN.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .rasters import pixel_grid

_POLY_TOL = 1e-10
_POLY_MAX_ITER = 50
# Rays closer to parallel than this sine of their angle do not triangulate.
_MIN_RAY_ANGLE = 1e-6


def _as_points(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.shape[-1] not in (2, 3):
        raise ValueError(f"expected trailing dimension 2 or 3, got {a.shape}")
    return a


def _ray_angles(points: np.ndarray) -> np.ndarray:
    """Polar angle between each ray and the +z axis."""
    r = np.hypot(points[..., 0], points[..., 1])
    return np.arctan2(r, points[..., 2])


@dataclass(frozen=True)
class CameraBase:
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    fov: float  # full field-of-view angle, radians

    def _mark(self, pix: np.ndarray, valid: np.ndarray):
        pix = np.where(valid[..., None], pix, np.nan)
        return pix, valid

    def _normalized(self, pix) -> np.ndarray:
        pix = _as_points(pix)
        return np.stack([(pix[..., 0] - self.cx) / self.fx,
                         (pix[..., 1] - self.cy) / self.fy], axis=-1)

    def scaled_to(self, shape: tuple[int, int]) -> "CameraBase":
        """Same lens resampled onto a (height, width) grid."""
        h, w = shape
        sx = w / self.width
        sy = h / self.height
        return type(self)(**{
            **asdict(self),
            "width": w, "height": h,
            "fx": self.fx * sx, "fy": self.fy * sy,
            "cx": (self.cx + 0.5) * sx - 0.5,
            "cy": (self.cy + 0.5) * sy - 0.5,
        })

    def fov_mask(self) -> np.ndarray:
        """Circular boolean mask of pixels whose rays lie inside the FOV."""
        return self.unproject(pixel_grid(self.height, self.width))[1]


@dataclass(frozen=True)
class PinholeCamera(CameraBase):
    model = "pinhole"

    def project(self, points):
        X = _as_points(points)
        z = X[..., 2]
        valid = z > 1e-12
        zs = np.where(valid, z, 1.0)
        pix = np.stack([self.fx * X[..., 0] / zs + self.cx,
                        self.fy * X[..., 1] / zs + self.cy], axis=-1)
        valid = valid & (_ray_angles(X) <= 0.5 * self.fov + 1e-12)
        return self._mark(pix, valid)

    def unproject(self, pix):
        m = self._normalized(pix)
        ray = np.concatenate([m, np.ones(m.shape[:-1] + (1,))], axis=-1)
        ray = ray / np.linalg.norm(ray, axis=-1, keepdims=True)
        valid = _ray_angles(ray) <= 0.5 * self.fov + 1e-12
        return np.where(valid[..., None], ray, np.nan), valid


@dataclass(frozen=True)
class UnifiedCamera(CameraBase):
    xi: float = 1.0

    model = "unified"

    def project(self, points):
        X = _as_points(points)
        rho = np.linalg.norm(X, axis=-1)
        denom = X[..., 2] + self.xi * rho
        valid = (denom > 1e-12) & (rho > 0)
        d = np.where(valid, denom, 1.0)
        pix = np.stack([self.fx * X[..., 0] / d + self.cx,
                        self.fy * X[..., 1] / d + self.cy], axis=-1)
        valid = valid & (_ray_angles(X) <= 0.5 * self.fov + 1e-12)
        return self._mark(pix, valid)

    def unproject(self, pix):
        m = self._normalized(pix)
        r2 = m[..., 0] ** 2 + m[..., 1] ** 2
        disc = 1.0 + (1.0 - self.xi ** 2) * r2
        valid = disc >= 0.0
        eta = (self.xi + np.sqrt(np.maximum(disc, 0.0))) / (1.0 + r2)
        ray = np.stack([eta * m[..., 0], eta * m[..., 1], eta - self.xi], axis=-1)
        norm = np.linalg.norm(ray, axis=-1, keepdims=True)
        ray = ray / np.maximum(norm, 1e-300)
        valid = valid & (_ray_angles(ray) <= 0.5 * self.fov + 1e-12)
        return np.where(valid[..., None], ray, np.nan), valid


@dataclass(frozen=True)
class PolynomialFisheyeCamera(CameraBase):
    k: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    model = "polynomial"

    def _radial(self, theta):
        k1, k2, k3, k4 = self.k
        t2 = theta * theta
        return theta * (k1 + t2 * (k2 + t2 * (k3 + t2 * k4)))

    def _radial_deriv(self, theta):
        k1, k2, k3, k4 = self.k
        t2 = theta * theta
        return k1 + t2 * (3 * k2 + t2 * (5 * k3 + t2 * 7 * k4))

    def project(self, points):
        X = _as_points(points)
        theta = _ray_angles(X)
        rxy = np.hypot(X[..., 0], X[..., 1])
        safe = np.maximum(rxy, 1e-300)
        d = self._radial(theta)
        pix = np.stack([self.fx * d * X[..., 0] / safe + self.cx,
                        self.fy * d * X[..., 1] / safe + self.cy], axis=-1)
        on_axis = rxy == 0
        if np.any(on_axis):
            pix = np.where(on_axis[..., None],
                           np.stack([np.full_like(theta, self.cx),
                                     np.full_like(theta, self.cy)], axis=-1), pix)
        valid = (theta <= 0.5 * self.fov + 1e-12) & (np.linalg.norm(X, axis=-1) > 0)
        return self._mark(pix, valid)

    def unproject(self, pix):
        m = self._normalized(pix)
        rd = np.hypot(m[..., 0], m[..., 1])
        phi = np.arctan2(m[..., 1], m[..., 0])
        theta = rd / max(abs(self.k[0]), 1e-6)
        converged = np.zeros(rd.shape, dtype=bool)
        for _ in range(_POLY_MAX_ITER):
            f = self._radial(theta) - rd
            df = self._radial_deriv(theta)
            step = f / np.where(np.abs(df) > 1e-12, df, 1e-12)
            step = np.clip(step, -0.5, 0.5)  # damping
            theta = np.clip(theta - step, 0.0, np.pi)
            converged = np.abs(step) < _POLY_TOL
            if np.all(converged):
                break
        ray = np.stack([np.sin(theta) * np.cos(phi),
                        np.sin(theta) * np.sin(phi),
                        np.cos(theta)], axis=-1)
        valid = converged & (theta <= 0.5 * self.fov + 1e-12)
        return np.where(valid[..., None], ray, np.nan), valid


_MODEL_CLASSES = {cls.model: cls
                  for cls in (PinholeCamera, UnifiedCamera, PolynomialFisheyeCamera)}


def is_finite_number(x) -> bool:
    """True for a real number that is not a bool and fits a finite float (a
    JSON number; an integer too large for a float is not one)."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _finite_numbers(value, n: int, where: str) -> list[float]:
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(map(is_finite_number, value))):
        raise ValueError(f"{where} must be {n} finite numbers, got {value!r}")
    return [float(v) for v in value]


def reject_unknown_keys(d: dict, known, where: str, what: str) -> None:
    """ValueError naming the first key of `d` that is not in `known`."""
    for key in d:
        if key not in known:
            raise ValueError(f"{where}{key!r} is not a key of a {what} "
                             f"({', '.join(known)})")


def _number(ok, rule: str, store=float):
    """Decoder of a finite JSON number that `ok` accepts, kept as `store(value)`."""
    def decode(value, where: str):
        if not (is_finite_number(value) and ok(value)):
            raise ValueError(f"{where} must be {rule}, got {value!r}")
        return store(value)
    return decode


_COUNT = _number(lambda v: isinstance(v, numbers.Integral) and v >= 1, "an integer >= 1", int)
_INTEGER = _number(lambda v: isinstance(v, numbers.Integral), "an integer", int)
_POSITIVE_NUMBER = _number(lambda v: v > 0, "finite and > 0")
_FINITE_NUMBER = _number(lambda v: True, "finite")

# Per camera field: its JSON key, the decoder that checks a JSON value and
# gives the field's value, and the encoder back to JSON. These are the rules
# docs/rig_schema.json states.
_CAMERA_RULES = {
    "width": ("width", _COUNT, int),
    "height": ("height", _COUNT, int),
    "fx": ("fx", _POSITIVE_NUMBER, float),
    "fy": ("fy", _POSITIVE_NUMBER, float),
    "cx": ("cx", _FINITE_NUMBER, float),
    "cy": ("cy", _FINITE_NUMBER, float),
    "fov": ("fov_deg", _number(lambda v: v > 0, "finite and > 0",
                               lambda v: float(np.deg2rad(v))),
            lambda v: float(np.rad2deg(v))),
    "xi": ("xi", _number(lambda v: v >= 0, "finite and >= 0"), float),
    "k": ("k", lambda v, where: tuple(_finite_numbers(v, 4, where)), list),
}


def camera_from_dict(d: dict, name: str = "camera") -> CameraBase:
    """Camera from its JSON form. A missing key raises KeyError; a bad type,
    value or unknown key raises ValueError naming the camera (`name`) and the key."""
    kind = d["type"]
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"{name}: unknown camera type {kind!r}")
    cls = _MODEL_CLASSES[kind]
    kwargs, keys = {}, ["type"]
    for f in fields(cls):
        key, decode, _ = _CAMERA_RULES[f.name]
        kwargs[f.name] = decode(d[key], f"{name}: {key}")
        keys.append(key)
    reject_unknown_keys(d, keys, f"{name}: ", f"{kind} camera")
    return cls(**kwargs)


def camera_to_dict(cam: CameraBase) -> dict:
    d = {"type": cam.model}
    for f in fields(cam):
        key, _, encode = _CAMERA_RULES[f.name]
        d[key] = encode(getattr(cam, f.name))
    return d


def rotation_from_rotvec(rotvec) -> np.ndarray:
    """Rodrigues formula: rotation matrix of an axis-angle 3-vector."""
    v = np.asarray(rotvec, dtype=np.float64)
    angle = np.linalg.norm(v)
    if angle < 1e-14:
        return np.eye(3)
    a = v / angle
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


@dataclass(frozen=True)
class RelativePose:
    """Rigid transform taking camera-0 coordinates to camera-1 coordinates."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.isfinite(R).all() and np.isfinite(t).all()):
            raise ValueError("rotation and translation must be finite")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12 or np.linalg.det(R) < 0:
            raise ValueError("rotation must be orthonormal with det +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def transform(self, points) -> np.ndarray:
        X = np.asarray(points, dtype=np.float64)
        return X @ self.rotation.T + self.translation

    def inverse(self) -> "RelativePose":
        return RelativePose(self.rotation.T, -self.rotation.T @ self.translation)

    @property
    def camera1_center(self) -> np.ndarray:
        """Position of camera 1 in camera-0 coordinates."""
        return -self.rotation.T @ self.translation

    @staticmethod
    def from_displacement(center1, rotvec=(0.0, 0.0, 0.0)) -> "RelativePose":
        """Pose of a camera physically placed at `center1`, rotated by `rotvec`."""
        R = rotation_from_rotvec(rotvec)
        return RelativePose(R, -R @ np.asarray(center1, dtype=np.float64))


@dataclass(frozen=True)
class StereoRig:
    cam0: CameraBase
    cam1: CameraBase
    pose: RelativePose

    @property
    def baseline(self) -> float:
        return float(np.linalg.norm(self.pose.translation))


def rig_from_dict(d: dict) -> StereoRig:
    """Rig from its JSON form (docs/rig_schema.json). A missing key raises
    KeyError; a bad type or value raises ValueError naming the part and key."""
    pose = RelativePose(
        np.reshape(_finite_numbers(d["pose"]["rotation"], 9, "pose: rotation"), (3, 3)),
        np.array(_finite_numbers(d["pose"]["translation"], 3, "pose: translation")),
    )
    return StereoRig(camera_from_dict(d["cam0"], "cam0"),
                     camera_from_dict(d["cam1"], "cam1"), pose)


def rig_to_dict(rig: StereoRig) -> dict:
    return {
        "cam0": camera_to_dict(rig.cam0),
        "cam1": camera_to_dict(rig.cam1),
        "pose": {
            "rotation": [float(v) for v in rig.pose.rotation.ravel()],
            "translation": [float(v) for v in rig.pose.translation],
        },
    }


def load_rig(path) -> StereoRig:
    return rig_from_dict(json.loads(Path(path).read_text()))


def save_rig(path, rig: StereoRig) -> None:
    Path(path).write_text(json.dumps(rig_to_dict(rig), indent=2) + "\n")


def triangulate_midpoint(rig: StereoRig, x0, x1) -> tuple[np.ndarray, np.ndarray]:
    """Depth along the camera-0 ray from a pixel correspondence.

    Intersects the two unprojection rays at the midpoint of their shortest
    connecting segment; the returned depth is the distance of that midpoint's
    foot along the camera-0 ray. Rays closer to parallel than `_MIN_RAY_ANGLE`
    (zero disparity, point at infinity) are invalid.
    """
    r0, v0 = rig.cam0.unproject(x0)
    r1, v1 = rig.cam1.unproject(x1)
    R = rig.pose.rotation
    c1 = rig.pose.camera1_center
    d1 = r1 @ R  # rotate cam-1 rays into cam-0 coordinates (R^T @ r1)
    r0z = np.where(v0[..., None], r0, 0.0)
    d1z = np.where(v1[..., None], d1, 0.0)
    b = np.sum(r0z * d1z, axis=-1)
    cross = np.cross(r0z, d1z)
    sin_angle = np.linalg.norm(cross, axis=-1)
    p = r0z @ np.asarray(c1)
    q = d1z @ np.asarray(c1)
    denom = 1.0 - b * b
    ok = v0 & v1 & (sin_angle >= _MIN_RAY_ANGLE)
    denom = np.where(ok, denom, 1.0)
    s0 = (p - b * q) / denom
    ok = ok & (s0 > 0)
    return np.where(ok, s0, np.nan), ok
