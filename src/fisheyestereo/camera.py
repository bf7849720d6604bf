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
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .rasters import pixel_grid

_POLY_TOL = 1e-10
_POLY_MAX_ITER = 50


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


_MODEL_CLASSES = {
    "pinhole": PinholeCamera,
    "unified": UnifiedCamera,
    "polynomial": PolynomialFisheyeCamera,
}


def camera_from_dict(d: dict) -> CameraBase:
    kind = d["type"]
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"unknown camera type {kind!r}")
    kwargs = dict(
        width=int(d["width"]), height=int(d["height"]),
        fx=float(d["fx"]), fy=float(d["fy"]),
        cx=float(d["cx"]), cy=float(d["cy"]),
        fov=float(np.deg2rad(d["fov_deg"])),
    )
    if kind == "unified":
        kwargs["xi"] = float(d["xi"])
    elif kind == "polynomial":
        k = [float(v) for v in d["k"]]
        if len(k) != 4:
            raise ValueError("polynomial camera needs 4 coefficients")
        kwargs["k"] = tuple(k)
    return _MODEL_CLASSES[kind](**kwargs)


def camera_to_dict(cam: CameraBase) -> dict:
    d = {
        "type": cam.model,
        "width": cam.width, "height": cam.height,
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "fov_deg": float(np.rad2deg(cam.fov)),
    }
    if isinstance(cam, UnifiedCamera):
        d["xi"] = cam.xi
    elif isinstance(cam, PolynomialFisheyeCamera):
        d["k"] = list(cam.k)
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
    pose = RelativePose(
        np.asarray(d["pose"]["rotation"], dtype=np.float64).reshape(3, 3),
        np.asarray(d["pose"]["translation"], dtype=np.float64),
    )
    return StereoRig(camera_from_dict(d["cam0"]), camera_from_dict(d["cam1"]), pose)


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


def triangulate_midpoint(rig: StereoRig, x0, x1,
                         min_angle: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Depth along the camera-0 ray from a pixel correspondence.

    Intersects the two unprojection rays at the midpoint of their shortest
    connecting segment; the returned depth is the distance of that midpoint's
    foot along the camera-0 ray. Rays closer to parallel than `min_angle`
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
    ok = v0 & v1 & (sin_angle >= min_angle)
    denom = np.where(ok, denom, 1.0)
    s0 = (p - b * q) / denom
    ok = ok & (s0 > 0)
    return np.where(ok, s0, np.nan), ok
