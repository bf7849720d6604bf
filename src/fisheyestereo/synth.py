"""Ray-cast synthetic scenes with exact ground-truth geometry.

Scenes are small collections of analytic primitives (planes, spheres,
axis-aligned boxes) carrying procedural albedo textures, rendered through any
camera model by per-pixel ray casting. Because every hit is analytic, depth
and cross-camera correspondences are exact, which makes rendered pairs usable
as oracles for the whole stereo pipeline. World coordinates coincide with the
camera-0 frame.

Everything is seeded and pure: identical inputs render bit-identical images.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from typing import Union, get_args

import numpy as np

from .camera import (_COUNT, _FINITE_NUMBER, _INTEGER, _POSITIVE_NUMBER, CameraBase,
                     PinholeCamera, RelativePose, StereoRig, UnifiedCamera, _finite_numbers,
                     reject_unknown_keys)
from .rasters import pixel_grid

_EPS = 1e-9
# Relative depth mismatch above which a camera-0 point counts as occluded.
_OCCLUSION_TOL = 1e-6


# --------------------------------------------------------------------------
# procedural textures

def _hash01(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic lattice hash -> [0, 1), vectorized over int arrays."""
    h = (ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
         ^ iz.astype(np.uint64) * np.uint64(0x165667B19E3779F9)
         ^ np.uint64((seed * 0x27D4EB2F + 0x165667B1) & 0xFFFFFFFFFFFFFFFF))
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _value_noise(points: np.ndarray, scale: float, seed: int) -> np.ndarray:
    cell = points / scale
    base = np.floor(cell).astype(np.int64)
    f = cell - base
    f = f * f * (3.0 - 2.0 * f)  # smoothstep fade
    acc = np.zeros(points.shape[:-1])
    for dz in (0, 1):
        wz = f[..., 2] if dz else 1.0 - f[..., 2]
        for dy in (0, 1):
            wy = f[..., 1] if dy else 1.0 - f[..., 1]
            for dx in (0, 1):
                wx = f[..., 0] if dx else 1.0 - f[..., 0]
                v = _hash01(base[..., 0] + dx, base[..., 1] + dy,
                            base[..., 2] + dz, seed)
                acc += wx * wy * wz * v
    return acc


@dataclass(frozen=True)
class ValueNoise:
    """Fractal value noise: `octaves` frequency doublings, amplitudes
    decaying by `persistence` (higher keeps more fine-scale contrast)."""

    scale: float = 0.5
    octaves: int = 3
    seed: int = 0
    lo: float = 0.1
    hi: float = 0.9
    persistence: float = 0.5

    kind = "noise"

    def shade(self, points: np.ndarray) -> np.ndarray:
        total = np.zeros(points.shape[:-1])
        amp_sum = 0.0
        amp = 1.0
        for o in range(self.octaves):
            total += amp * _value_noise(points, self.scale / (1 << o), self.seed + o)
            amp_sum += amp
            amp *= self.persistence
        t = total / amp_sum
        return self.lo + (self.hi - self.lo) * t


@dataclass(frozen=True)
class Checkerboard:
    period: float = 0.4
    lo: float = 0.15
    hi: float = 0.9

    kind = "checker"

    def shade(self, points: np.ndarray) -> np.ndarray:
        q = np.floor(points / self.period).astype(np.int64)
        parity = (q[..., 0] + q[..., 1] + q[..., 2]) & 1
        return np.where(parity == 0, self.lo, self.hi)


@dataclass(frozen=True)
class SineGrating:
    wavelength: float = 0.3
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)
    lo: float = 0.1
    hi: float = 0.9

    kind = "sine"

    def shade(self, points: np.ndarray) -> np.ndarray:
        d = np.asarray(self.direction, dtype=np.float64)
        d = d / np.linalg.norm(d)
        # Elementwise, not `points @ d`: BLAS rounds a matmul differently
        # with the number of rows, and a point's shade must not depend on
        # how many points share the call.
        along = points[..., 0] * d[0] + points[..., 1] * d[1] + points[..., 2] * d[2]
        phase = 2.0 * np.pi * along / self.wavelength
        t = 0.5 + 0.5 * np.sin(phase)
        return self.lo + (self.hi - self.lo) * t


Texture = Union[ValueNoise, Checkerboard, SineGrating]


# --------------------------------------------------------------------------
# primitives

@dataclass(frozen=True)
class Plane:
    point: tuple[float, float, float]
    normal: tuple[float, float, float]
    texture: Texture

    kind = "plane"

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        n = np.asarray(self.normal, dtype=np.float64)
        n = n / np.linalg.norm(n)
        denom = dirs @ n
        num = (np.asarray(self.point, dtype=np.float64) - origin) @ n
        t = np.where(np.abs(denom) > _EPS, num / np.where(denom == 0, 1.0, denom), np.inf)
        return np.where(t > _EPS, t, np.inf)


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    texture: Texture

    kind = "sphere"

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        oc = origin - np.asarray(self.center, dtype=np.float64)
        b = dirs @ oc
        c = oc @ oc - self.radius ** 2
        disc = b * b - c
        hit = disc >= 0
        sq = np.sqrt(np.maximum(disc, 0.0))
        t_near = -b - sq
        t_far = -b + sq
        t = np.where(t_near > _EPS, t_near, t_far)
        return np.where(hit & (t > _EPS), t, np.inf)


@dataclass(frozen=True)
class Box:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    texture: Texture

    kind = "box"

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
            t1 = (lo - origin) * inv
            t2 = (hi - origin) * inv
        t1 = np.nan_to_num(t1, nan=-np.inf)
        t2 = np.nan_to_num(t2, nan=np.inf)
        t_near = np.max(np.minimum(t1, t2), axis=-1)
        t_far = np.min(np.maximum(t1, t2), axis=-1)
        hit = (t_near <= t_far) & (t_far > _EPS)
        t = np.where(t_near > _EPS, t_near, t_far)
        return np.where(hit, t, np.inf)


Primitive = Union[Plane, Sphere, Box]


@dataclass(frozen=True)
class Scene:
    primitives: tuple[Primitive, ...]

    def nearest(self, origin: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest hit distance and the index of the primitive hit, per ray.

        A primitive replaces the current hit only if strictly closer, so the
        earliest primitive wins a tie and a NaN distance never wins. Rays that
        hit nothing get distance inf and index -1.
        """
        best_t = np.full(dirs.shape[:-1], np.inf)
        winner = np.full(dirs.shape[:-1], -1,
                         dtype=np.min_scalar_type(-1 - len(self.primitives)))
        for i, prim in enumerate(self.primitives):
            t = prim.intersect(origin, dirs)
            closer = t < best_t
            np.copyto(best_t, t, where=closer)
            winner[closer] = i
        return best_t, winner

    def cast(self, origin: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest hit distance and shaded albedo for unit rays from `origin`.

        The hit is the one `nearest` finds: the earliest primitive wins a tie.
        Each primitive's texture is shaded once, only on the rays it wins, at
        `origin + dirs * t`. Rays that hit nothing get distance inf and
        albedo 0.
        """
        best_t, winner = self.nearest(origin, dirs)
        shade = np.zeros(dirs.shape[:-1])
        for i, prim in enumerate(self.primitives):
            sel = winner == i
            if np.any(sel):
                pts = origin + dirs[sel] * best_t[sel][:, None]
                shade[sel] = prim.texture.shade(pts)
        return best_t, shade


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-pixel geometry of a rendered stereo pair (camera-0 grid)."""

    depth0: np.ndarray          # meters along the camera-0 ray
    correspondence: np.ndarray  # exact x1 - x0, pixels, zero where invalid
    covisibility: np.ndarray    # boolean: unoccluded and inside both views


def render(scene: Scene, cam: CameraBase, pose: RelativePose | None = None,
           noise_sigma: float = 0.0, noise_seed: int = 0,
           supersample: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-cast `scene` through `cam` posed by `pose` (world -> camera).

    Returns (image, depth, valid): image intensities in [0, 1] (zero outside
    the FOV), depth in meters along each unit pixel ray, and the FOV mask.

    `supersample` > 1 integrates intensity over an s x s grid per pixel
    footprint, suppressing texture aliasing where the lens compresses the
    scene. Depth stays point-sampled at pixel centers (exact geometry).
    """
    if supersample < 1:
        raise ValueError(f"supersample must be >= 1, got {supersample}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    grid = pixel_grid(cam.height, cam.width)
    if supersample == 1:
        t, shade, valid = _cast_through(scene, cam, pose, grid)
        hit = np.isfinite(t) & valid
        image = np.where(hit, shade, 0.0)
    else:
        # Depth at the pixel centers; only the sub-pixel casts are shaded.
        origin, dirs, valid = _pixel_rays(cam, pose, grid)
        t, _ = scene.nearest(origin, dirs)
        hit = np.isfinite(t) & valid
        s = supersample
        acc = np.zeros_like(t)
        cnt = np.zeros_like(t)
        offsets = (np.arange(s) + 0.5) / s - 0.5
        for dy in offsets:
            for dx in offsets:
                ts, sh, va = _cast_through(scene, cam, pose,
                                           grid + np.array([dx, dy]))
                ok = np.isfinite(ts) & va
                acc += np.where(ok, sh, 0.0)
                cnt += ok
        image = np.where(hit & (cnt > 0), acc / np.maximum(cnt, 1.0), 0.0)
    depth = np.where(hit, t, 0.0)
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        image = image + rng.normal(0.0, noise_sigma, size=image.shape)
        image = np.where(hit, np.clip(image, 0.0, 1.0), 0.0)
    return image, depth, hit


def _pixel_rays(cam: CameraBase, pose: RelativePose | None, positions: np.ndarray):
    """World-frame origin, unit ray per pixel position, and the FOV mask.
    Positions outside the FOV get a zero direction, which hits nothing."""
    rays_cam, valid = cam.unproject(positions)
    rays_cam = np.where(valid[..., None], rays_cam, 0.0)
    if pose is None:
        return np.zeros(3), rays_cam, valid
    return pose.camera1_center, rays_cam @ pose.rotation, valid  # R^T applied row-wise


def _cast_through(scene: Scene, cam: CameraBase, pose: RelativePose | None,
                  positions: np.ndarray):
    origin, dirs, valid = _pixel_rays(cam, pose, positions)
    t, shade = scene.cast(origin, dirs)
    return t, shade, valid


def make_ground_truth(scene: Scene, rig: StereoRig) -> GroundTruth:
    """Exact depth, correspondence, and covisibility for a rendered pair.

    Covisibility re-casts a ray from camera 1 toward every camera-0 surface
    point and rejects pixels whose first hit differs from that point (relative
    depth mismatch above `_OCCLUSION_TOL`), plus pixels projecting outside
    camera 1's FOV or image bounds.
    """
    grid = pixel_grid(rig.cam0.height, rig.cam0.width)
    origin, rays, fov0 = _pixel_rays(rig.cam0, None, grid)
    t0, _ = scene.nearest(origin, rays)
    valid0 = np.isfinite(t0) & fov0
    depth0 = np.where(valid0, t0, 0.0)
    rays = np.where(valid0[..., None], rays, 0.0)
    pts = rays * depth0[..., None]

    x1, v1 = rig.cam1.project(rig.pose.transform(pts))
    corr = np.where((valid0 & v1)[..., None], x1 - grid, 0.0)

    c1 = rig.pose.camera1_center
    seg = pts - c1
    dist1 = np.linalg.norm(seg, axis=-1)
    dirs1 = seg / np.maximum(dist1, 1e-300)[..., None]
    t_hit, _ = scene.nearest(c1, dirs1)
    unoccluded = np.abs(t_hit - dist1) <= _OCCLUSION_TOL * np.maximum(dist1, 1.0)

    in_bounds = ((x1[..., 0] >= 0) & (x1[..., 0] <= rig.cam1.width - 1)
                 & (x1[..., 1] >= 0) & (x1[..., 1] <= rig.cam1.height - 1))
    in_bounds &= np.isfinite(x1).all(axis=-1)
    covis = valid0 & v1 & unoccluded & in_bounds
    return GroundTruth(depth0=depth0, correspondence=corr, covisibility=covis)


# --------------------------------------------------------------------------
# stock configurations used by the CLI, docs, and the acceptance suite

def default_rig() -> StereoRig:
    """Desk-scale fisheye stereo rig: unified model, 10 cm baseline.

    Camera 1 carries a small principal-point offset and a ~2 degree rotation
    so the calibration field does real work in the default pipeline.
    """
    cam0 = UnifiedCamera(width=400, height=400, fx=200.0, fy=200.0,
                         cx=199.5, cy=199.5, fov=np.pi, xi=0.9)
    cam1 = UnifiedCamera(width=400, height=400, fx=200.0, fy=200.0,
                         cx=200.5, cy=200.0, fov=np.pi, xi=0.9)
    pose = RelativePose.from_displacement((0.1, 0.0, 0.0),
                                          rotvec=(0.0, 0.035, 0.009))
    return StereoRig(cam0, cam1, pose)


def pinhole_rig(width: int = 400, height: int = 400, f: float = 300.0,
                baseline: float = 0.1) -> StereoRig:
    """Rectified perspective rig: identical pinholes, pure x displacement."""
    cam = PinholeCamera(width=width, height=height, fx=f, fy=f,
                        cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                        fov=np.deg2rad(90.0))
    pose = RelativePose.from_displacement((baseline, 0.0, 0.0))
    return StereoRig(cam, cam, pose)


def default_scene() -> Scene:
    """Room-scale test scene: textured box walls, one large sphere, and a
    field of small floating spheres at mixed depths.

    The enclosing box keeps every in-FOV ray on bounded geometry (no grazing
    far-field at the mask rim), while the sphere field adds fine-scale depth
    structure that each pyramid level has to resolve anew.
    """
    rng = np.random.default_rng(12)
    prims = [
        Box(lo=(-1.3, -1.1, -0.4), hi=(1.3, 1.1, 1.5),
            texture=ValueNoise(scale=0.3, octaves=4, seed=11, lo=0.1, hi=0.95,
                               persistence=0.65)),
        Sphere(center=(0.28, -0.2, 0.6), radius=0.2,
               texture=ValueNoise(scale=0.07, octaves=4, seed=23, lo=0.1, hi=0.9,
                                  persistence=0.65)),
    ]
    placed = 0
    for i in range(60):
        if placed >= 12:
            break
        ang = rng.uniform(0, 2 * np.pi)
        rad = np.sqrt(rng.uniform(0.05, 1.0)) * 0.5
        x, y = rad * np.cos(ang), rad * np.sin(ang)
        if np.hypot(x - 0.28, y + 0.2) < 0.32:
            continue  # keep clear of the large sphere
        z = rng.uniform(0.55, 0.95)
        r = rng.uniform(0.04, 0.09)
        prims.append(Sphere(center=(float(x), float(y), float(z)), radius=float(r),
                            texture=ValueNoise(scale=float(r) * 0.7, octaves=3,
                                               seed=40 + i, lo=0.1, hi=0.95,
                                               persistence=0.6)))
        placed += 1
    return Scene(primitives=tuple(prims))


def reseed_scene(scene: Scene, seed: int) -> Scene:
    """Shift every noise texture seed so datasets differ per --seed."""
    if seed == 0:
        return scene
    prims = []
    for p in scene.primitives:
        tex = p.texture
        if isinstance(tex, ValueNoise):
            tex = replace(tex, seed=tex.seed + 1009 * seed)
        prims.append(replace(p, texture=tex))
    return Scene(primitives=tuple(prims))


def plane_scene(depth: float = 2.0, texture: Texture | None = None) -> Scene:
    """Single fronto-parallel plane, noise-textured by default."""
    tex = texture if texture is not None else ValueNoise(scale=0.4, octaves=3,
                                                         seed=7, lo=0.1, hi=0.95)
    return Scene(primitives=(
        Plane(point=(0.0, 0.0, depth), normal=(0.0, 0.0, -1.0), texture=tex),
    ))


# --------------------------------------------------------------------------
# JSON scene specs

_KINDS = {"texture": {cls.kind: cls for cls in get_args(Texture)},
          "primitive": {cls.kind: cls for cls in get_args(Primitive)}}
# Vectors that must not be all zero, and numbers that must be > 0; every
# other number need only be finite.
_NONZERO = {"normal", "direction"}
_POSITIVE = {"scale", "period", "wavelength", "persistence", "radius"}


def _from_dict(d: dict, what: str, where: str):
    """The `what` ("primitive" or "texture") of kind `d["kind"]`, built from its
    dataclass fields; `where` prefixes each message ("primitive 1: ")."""
    kind = d["kind"]
    if kind not in _KINDS[what]:
        raise ValueError(f"unknown {what} kind {kind!r}")
    cls = _KINDS[what][kind]
    kwargs = {}
    for f in fields(cls):
        if f.name not in d and f.default is not MISSING:
            continue
        value, at = d[f.name], where + f.name
        if f.name == "texture":
            value = _from_dict(value, "texture", where + "texture ")
        elif f.type.startswith("tuple"):
            value = tuple(_finite_numbers(value, 3, at))
            if f.name in _NONZERO and not any(value):
                raise ValueError(f"{at} must be 3 finite numbers, not all zero, "
                                 f"got {d[f.name]!r}")
        elif f.type == "int":
            value = (_COUNT if f.name == "octaves" else _INTEGER)(value, at)
        else:
            value = (_POSITIVE_NUMBER if f.name in _POSITIVE else _FINITE_NUMBER)(value, at)
        kwargs[f.name] = value
    reject_unknown_keys(d, ["kind"] + [f.name for f in fields(cls)], where,
                        f"{kind} {what}")
    return cls(**kwargs)


def _to_dict(obj) -> dict:
    d = {"kind": obj.kind}
    for f in fields(obj):
        value = getattr(obj, f.name)
        d[f.name] = (_to_dict(value) if f.name == "texture"
                     else list(value) if isinstance(value, tuple) else value)
    return d


def scene_from_dict(d: dict) -> Scene:
    """Scene from its JSON form. A missing key raises KeyError; a bad kind,
    value or unknown key raises ValueError naming the primitive's index and
    the key."""
    return Scene(primitives=tuple(_from_dict(spec, "primitive", f"primitive {i}: ")
                                  for i, spec in enumerate(d["primitives"])))


def scene_to_dict(scene: Scene) -> dict:
    return {"primitives": [_to_dict(p) for p in scene.primitives]}
