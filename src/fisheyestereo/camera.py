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

A model supplies only its formulas: ``_project(X, theta) -> (pix, ok)`` from
points and their polar angles, and ``_unproject(m) -> (ray, theta, ok)`` from
normalized pixel coordinates. :class:`CameraBase` wraps them in ``project``
and ``unproject``, which add the field-of-view test on ``theta`` and mark
every invalid entry NaN. NaN is the only marker of an invalid ray: it flows
through products unmasked, and the ray casters treat a NaN ray as a miss.

Pixels returned by projection are continuous (x, y) with pixel centers at
integer coordinates. All operations are vectorized over leading axes and
return a boolean validity array alongside the values; invalid entries are NaN.

Each camera field states its rule (docs/rig_schema.json's bounds) in its
metadata; construction checks them (`schema.Ruled`), so a camera
built in Python and one read from rig JSON fail on the same values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .rasters import pixel_grid, vector_norm
from .schema import (COUNT, FINITE, NONNEGATIVE, POSITIVE, Family, Ruled, finite_numbers,
                     from_dict, reject_unknown_keys, ruled, to_dict)

_POLY_TOL = 1e-10
_POLY_MAX_ITER = 50
# Rays closer to parallel than this sine of their angle do not triangulate.
_MIN_RAY_ANGLE = 1e-6


def _as_points(x, width: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.shape[-1:] != (width,):
        raise ValueError(f"expected trailing dimension {width}, got shape {a.shape}")
    return a


def _ray_angles(points: np.ndarray) -> np.ndarray:
    """Polar angle between each ray and the +z axis."""
    r = np.hypot(points[..., 0], points[..., 1])
    return np.arctan2(r, points[..., 2])


@dataclass(frozen=True)
class CameraBase(Ruled):
    width: int = ruled(COUNT)
    height: int = ruled(COUNT)
    fx: float = ruled(POSITIVE)
    fy: float = ruled(POSITIVE)
    cx: float = ruled(FINITE)
    cy: float = ruled(FINITE)
    # Full field-of-view angle, radians; degrees in JSON.
    fov: float = ruled(POSITIVE, key="fov_deg", decode=lambda v: float(np.deg2rad(v)),
                       encode=lambda v: float(np.rad2deg(v)))

    def project(self, points):
        """Pixels (..., 2) of points (..., 3) and their validity; NaN where invalid."""
        X = _as_points(points, 3)
        theta = _ray_angles(X)
        pix, ok = self._project(X, theta)
        valid = ok & (theta <= 0.5 * self.fov + 1e-12)
        return np.where(valid[..., None], pix, np.nan), valid

    def unproject(self, pix):
        """Unit rays (..., 3) of pixels (..., 2) and their validity; NaN where invalid."""
        ray, theta, ok = self._unproject(self._normalized(pix))
        valid = ok & (theta <= 0.5 * self.fov + 1e-12)
        return np.where(valid[..., None], ray, np.nan), valid

    def _normalized(self, pix) -> np.ndarray:
        pix = _as_points(pix, 2)
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
    kind = "pinhole"

    def _project(self, X, theta):
        z = X[..., 2]
        ok = z > 1e-12
        zs = np.where(ok, z, 1.0)
        return np.stack([self.fx * X[..., 0] / zs + self.cx,
                         self.fy * X[..., 1] / zs + self.cy], axis=-1), ok

    def _unproject(self, m):
        ray = np.concatenate([m, np.ones(m.shape[:-1] + (1,))], axis=-1)
        ray = ray / vector_norm(ray)[..., None]
        return ray, _ray_angles(ray), True


@dataclass(frozen=True)
class UnifiedCamera(CameraBase):
    xi: float = ruled(NONNEGATIVE)

    kind = "unified"

    def _project(self, X, theta):
        rho = vector_norm(X)
        denom = X[..., 2] + self.xi * rho
        ok = (denom > 1e-12) & (rho > 0)
        d = np.where(ok, denom, 1.0)
        return np.stack([self.fx * X[..., 0] / d + self.cx,
                         self.fy * X[..., 1] / d + self.cy], axis=-1), ok

    def _unproject(self, m):
        r2 = m[..., 0] ** 2 + m[..., 1] ** 2
        disc = 1.0 + (1.0 - self.xi ** 2) * r2
        eta = (self.xi + np.sqrt(np.maximum(disc, 0.0))) / (1.0 + r2)
        ray = np.stack([eta * m[..., 0], eta * m[..., 1], eta - self.xi], axis=-1)
        norm = vector_norm(ray)[..., None]
        ray = ray / np.maximum(norm, 1e-300)
        return ray, _ray_angles(ray), disc >= 0.0


@dataclass(frozen=True)
class PolynomialFisheyeCamera(CameraBase):
    k: tuple[float, float, float, float] = ruled(finite_numbers(4))

    kind = "polynomial"

    def _radial(self, theta):
        k1, k2, k3, k4 = self.k
        t2 = theta * theta
        return theta * (k1 + t2 * (k2 + t2 * (k3 + t2 * k4)))

    def _radial_deriv(self, theta):
        k1, k2, k3, k4 = self.k
        t2 = theta * theta
        return k1 + t2 * (3 * k2 + t2 * (5 * k3 + t2 * 7 * k4))

    def _project(self, X, theta):
        # On the axis the numerator is 0, so the pixel is exactly (cx, cy).
        safe = np.maximum(np.hypot(X[..., 0], X[..., 1]), 1e-300)
        d = self._radial(theta)
        ok = vector_norm(X) > 0
        return np.stack([self.fx * d * X[..., 0] / safe + self.cx,
                         self.fy * d * X[..., 1] / safe + self.cy], axis=-1), ok

    def _unproject(self, m):
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
        # The FOV test reads the Newton angle, not that of the rebuilt ray.
        return ray, theta, converged


CAMERAS = Family("camera", "type", (PinholeCamera, UnifiedCamera, PolynomialFisheyeCamera))


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
    """Rigid transform taking camera-0 coordinates to camera-1 coordinates.

    Its arrays are read-only, and poses compare and hash by their exact
    bytes, so a rig can key a cache of what is built from it."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        # Only a matrix is flattened: like rig JSON, a list holds the 9 numbers.
        R = self.rotation.ravel() if isinstance(self.rotation, np.ndarray) else self.rotation
        R = np.reshape(finite_numbers(9)(R, "pose: rotation"), (3, 3))
        t = np.array(finite_numbers(3)(self.translation, "pose: translation"))
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12 or np.linalg.det(R) < 0:
            raise ValueError("pose: rotation must be orthonormal with det +1")
        R.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple[bytes, bytes]:
        return self.rotation.tobytes(), self.translation.tobytes()

    def transform(self, points) -> np.ndarray:
        X = np.asarray(points, dtype=np.float64)
        return X @ self.rotation.T + self.translation

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
    KeyError; a bad type, value or unknown key raises ValueError naming the
    part and key."""
    reject_unknown_keys(d, ("cam0", "cam1", "pose"), "rig: ", "rig")
    reject_unknown_keys(d["pose"], ("rotation", "translation"), "pose: ", "pose")
    pose = RelativePose(d["pose"]["rotation"], d["pose"]["translation"])
    return StereoRig(from_dict(d["cam0"], CAMERAS, "cam0: "),
                     from_dict(d["cam1"], CAMERAS, "cam1: "), pose)


def rig_to_dict(rig: StereoRig) -> dict:
    return {
        "cam0": to_dict(rig.cam0, CAMERAS),
        "cam1": to_dict(rig.cam1, CAMERAS),
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
    b = np.sum(r0 * d1, axis=-1)
    cross = np.cross(r0, d1)
    sin_angle = vector_norm(cross)
    p = r0 @ np.asarray(c1)
    q = d1 @ np.asarray(c1)
    denom = 1.0 - b * b
    ok = v0 & v1 & (sin_angle >= _MIN_RAY_ANGLE)
    denom = np.where(ok, denom, 1.0)
    s0 = (p - b * q) / denom
    ok = ok & (s0 > 0)
    return np.where(ok, s0, np.nan), ok
