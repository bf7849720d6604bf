"""Ray-cast synthetic scenes with exact ground-truth geometry.

Scenes are small collections of analytic primitives (planes, spheres,
axis-aligned boxes) carrying procedural albedo textures, rendered through any
camera model by per-pixel ray casting. Because every hit is analytic, depth
and cross-camera correspondences are exact, which makes rendered pairs usable
as oracles for the whole stereo pipeline. World coordinates coincide with the
camera-0 frame.

Everything is seeded and pure: identical inputs render bit-identical images.

Each texture and primitive field states its rule in its metadata, and
construction checks them (`schema.Ruled`); `scene_from_dict` and
`scene_to_dict` read and write scene JSON through the one `schema` codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union, get_args

import numpy as np

from .camera import CameraBase, PinholeCamera, RelativePose, StereoRig, UnifiedCamera
from .rasters import pixel_grid, vector_norm
from .schema import (COUNT, DIRECTION, FINITE, INTEGER, NONNEGATIVE, POSITIVE, VECTOR, Family,
                     Ruled, from_dict, reject_unknown_keys, ruled, to_dict)

_EPS = 1e-9
# Relative depth mismatch above which a camera-0 point counts as occluded.
_OCCLUSION_TOL = 1e-6
# Hit points per shading call, so that the 20 or so temporaries of a value-
# noise chunk (128 kB each) stay in cache. Shading the default box's 137 053
# camera-0 hits (4 octaves) took 101 ms in one call, and 61, 45, 39, 40 and
# 45 ms in chunks of 2048, 4096, 8192, 16384 and 32768 (min of 20 runs,
# 2-core VM).
_SHADE_CHUNK = 16384


# --------------------------------------------------------------------------
# procedural textures

# Odd 64-bit multipliers of the lattice hash, one per axis.
_LATTICE = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F),
            np.uint64(0x165667B19E3779F9))


def _finalize01(h: np.ndarray) -> np.ndarray:
    """Mix the uint64 words `h` in place and map each to [0, 1).

    The top 53 bits convert exactly through an int64 view and are scaled by
    2**-53, an exact power of two.
    """
    s = np.empty_like(h)
    for mult in (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53)):
        h ^= np.right_shift(h, 33, out=s)
        h *= mult
    h ^= np.right_shift(h, 33, out=s)
    h >>= 11
    v = h.view(np.int64).astype(np.float64)
    v *= 2.0 ** -53
    return v


def _value_noise(points: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """Trilinear value noise with a smoothstep fade, per point of `points`.

    Per axis, the two lattice words and the two fade weights are formed once
    and shared by the four corners that use them; the x^y words and `wx*wy`
    are shared across dz. Each corner adds `((wx*wy)*wz)*v` to the sum, in
    the order dz, dy, dx.
    """
    words, weights = [], []
    for k, mult in enumerate(_LATTICE):
        cell = points[..., k] / scale
        base = np.floor(cell)
        f = cell - base
        f = f * f * (3.0 - 2.0 * f)  # smoothstep fade
        weights.append((1.0 - f, f))
        base = base.astype(np.int64)
        words.append((base.astype(np.uint64) * mult, (base + 1).astype(np.uint64) * mult))
    (x, y, z), (wx, wy, wz) = words, weights
    xy = [[x[dx] ^ y[dy] for dx in (0, 1)] for dy in (0, 1)]
    wxy = [[wx[dx] * wy[dy] for dx in (0, 1)] for dy in (0, 1)]
    seed_word = np.uint64((seed * 0x27D4EB2F + 0x165667B1) & 0xFFFFFFFFFFFFFFFF)
    acc = np.zeros(points.shape[:-1])
    for dz in (0, 1):
        z_word = z[dz] ^ seed_word
        for dy in (0, 1):
            for dx in (0, 1):
                term = wxy[dy][dx] * wz[dz]
                term *= _finalize01(xy[dy][dx] ^ z_word)
                acc += term
    return acc


@dataclass(frozen=True)
class ValueNoise(Ruled):
    """Fractal value noise: `octaves` frequency doublings, amplitudes
    decaying by `persistence` (higher keeps more fine-scale contrast)."""

    scale: float = ruled(POSITIVE, 0.5)
    octaves: int = ruled(COUNT, 3)
    seed: int = ruled(INTEGER, 0)
    lo: float = ruled(FINITE, 0.1)
    hi: float = ruled(FINITE, 0.9)
    persistence: float = ruled(POSITIVE, 0.5)

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
class Checkerboard(Ruled):
    period: float = ruled(POSITIVE, 0.4)
    lo: float = ruled(FINITE, 0.15)
    hi: float = ruled(FINITE, 0.9)

    kind = "checker"

    def shade(self, points: np.ndarray) -> np.ndarray:
        q = np.floor(points / self.period).astype(np.int64)
        parity = (q[..., 0] + q[..., 1] + q[..., 2]) & 1
        return np.where(parity == 0, self.lo, self.hi)


@dataclass(frozen=True)
class SineGrating(Ruled):
    wavelength: float = ruled(POSITIVE, 0.3)
    direction: tuple[float, float, float] = ruled(DIRECTION, (1.0, 0.0, 0.0))
    lo: float = ruled(FINITE, 0.1)
    hi: float = ruled(FINITE, 0.9)

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
TEXTURES = Family("texture", "kind", get_args(Texture))


def _texture():  # no rule: anything with a `shade` method will do
    return field(metadata={"family": TEXTURES})


# --------------------------------------------------------------------------
# primitives

@dataclass(frozen=True)
class Plane(Ruled):
    point: tuple[float, float, float] = ruled(VECTOR)
    normal: tuple[float, float, float] = ruled(DIRECTION)
    texture: Texture = _texture()

    kind = "plane"

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        n = np.asarray(self.normal, dtype=np.float64)
        n = n / np.linalg.norm(n)
        denom = dirs @ n
        num = (np.asarray(self.point, dtype=np.float64) - origin) @ n
        # Divide only where the ray is not parallel: num / 5e-324 overflows.
        steep = np.abs(denom) > _EPS
        t = np.where(steep, num / np.where(steep, denom, 1.0), np.inf)
        return np.where(t > _EPS, t, np.inf)


@dataclass(frozen=True)
class Sphere(Ruled):
    center: tuple[float, float, float] = ruled(VECTOR)
    radius: float = ruled(POSITIVE)
    texture: Texture = _texture()

    kind = "sphere"

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        oc = origin - np.asarray(self.center, dtype=np.float64)
        # One product over every ray, never chunked or subset: BLAS rounds a
        # one-row product differently from the same row of a batched one
        # (1501 of 5000 random unit rays differed, OpenBLAS 0.3.31).
        b = dirs @ oc
        disc = b * b - (oc @ oc - self.radius ** 2)
        hit = np.flatnonzero(disc >= 0)
        b, sq = b.ravel()[hit], np.sqrt(disc.ravel()[hit])
        t_near = -b - sq
        t = np.where(t_near > _EPS, t_near, -b + sq)
        out = np.full(disc.shape, np.inf)
        np.put(out, hit, np.where(t > _EPS, t, np.inf))
        return out


@dataclass(frozen=True)
class Box(Ruled):
    lo: tuple[float, float, float] = ruled(VECTOR)
    hi: tuple[float, float, float] = ruled(VECTOR)
    texture: Texture = _texture()

    kind = "box"

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        # Slabs one axis at a time. `nan_to_num` also maps +-inf (a ray
        # parallel to the slab) to +-max float.
        t_near = t_far = None
        for lo, hi, o, d in zip(self.lo, self.hi, origin, np.moveaxis(dirs, -1, 0)):
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = 1.0 / d
                t1 = (lo - o) * inv
                t2 = (hi - o) * inv
            t1 = np.nan_to_num(t1, copy=False, nan=-np.inf)
            t2 = np.nan_to_num(t2, copy=False, nan=np.inf)
            near, far = np.minimum(t1, t2), np.maximum(t1, t2)
            t_near = near if t_near is None else np.maximum(t_near, near)
            t_far = far if t_far is None else np.minimum(t_far, far)
        hit = (t_near <= t_far) & (t_far > _EPS)
        t = np.where(t_near > _EPS, t_near, t_far)
        return np.where(hit, t, np.inf)


Primitive = Union[Plane, Sphere, Box]
PRIMITIVES = Family("primitive", "kind", get_args(Primitive))


@dataclass(frozen=True)
class Scene:
    primitives: tuple[Primitive, ...]

    def nearest(self, origin: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest hit distance and the index of the primitive hit, per ray.

        A primitive replaces the current hit only if strictly closer, so the
        earliest primitive wins a tie and a NaN distance never wins. Rays that
        hit nothing get distance inf and index -1, and so do NaN rays (a
        camera's rays outside its FOV): every primitive's `intersect` gives
        an all-NaN direction distance inf.
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
        Each ray is shaded once, by the texture of the primitive it hits, at
        `origin + dirs * t`; a primitive's rays are shaded in chunks of
        `_SHADE_CHUNK`, whose value-noise temporaries stay in cache. Shading
        is elementwise per point, so the chunks leave every value as it is.
        Rays that hit nothing, NaN rays among them, get distance inf and
        albedo 0.
        """
        best_t, winner = self.nearest(origin, dirs)
        shade = np.zeros(dirs.shape[:-1])
        flat_t, flat_dirs, flat_winner = best_t.ravel(), dirs.reshape(-1, 3), winner.ravel()
        for i, prim in enumerate(self.primitives):
            rays = np.flatnonzero(flat_winner == i)
            for start in range(0, rays.size, _SHADE_CHUNK):
                c = rays[start:start + _SHADE_CHUNK]
                pts = origin + flat_dirs[c] * flat_t[c][:, None]
                np.put(shade, c, prim.texture.shade(pts))
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

    Returns (image, depth, hit): image intensities in [0, 1], depth in meters
    along each unit pixel ray, and where the ray through the pixel centre hit
    the scene; image and depth are zero elsewhere, outside the FOV too.

    `supersample` s integrates intensity over an s x s grid of casts per
    pixel footprint, suppressing texture aliasing where the lens compresses
    the scene. Depth stays point-sampled at pixel centers (exact geometry):
    an odd s takes it from its center cast, an even s from one distance-only
    pass.
    """
    s = COUNT(supersample, "supersample")
    noise_sigma = NONNEGATIVE(noise_sigma, "noise_sigma")
    grid = pixel_grid(cam.height, cam.width)
    offsets = (np.arange(s) + 0.5) / s - 0.5
    if s % 2 == 0:  # no sub-pixel cast falls on the pixel centers
        t, _ = scene.nearest(*_pixel_rays(cam, pose, grid))
        hit = np.isfinite(t)
    acc = np.zeros(grid.shape[:-1])
    cnt = np.zeros(grid.shape[:-1])
    for dy in offsets:
        for dx in offsets:
            ts, shade = scene.cast(*_pixel_rays(cam, pose, grid + np.array([dx, dy])))
            ok = np.isfinite(ts)
            if dx == 0 and dy == 0:
                t, hit = ts, ok
            np.add(acc, shade, out=acc, where=ok)
            cnt += ok
    image = np.divide(acc, cnt, out=np.zeros_like(acc), where=hit & (cnt > 0))
    depth = np.where(hit, t, 0.0)
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        image = image + rng.normal(0.0, noise_sigma, size=image.shape)
        image = np.where(hit, np.clip(image, 0.0, 1.0), 0.0)
    return image, depth, hit


def _pixel_rays(cam: CameraBase, pose: RelativePose | None, positions: np.ndarray):
    """World-frame origin and unit ray per pixel position (NaN outside the FOV)."""
    rays_cam, _ = cam.unproject(positions)
    if pose is None:
        return np.zeros(3), rays_cam
    return pose.camera1_center, rays_cam @ pose.rotation  # R^T applied row-wise


def make_ground_truth(scene: Scene, rig: StereoRig) -> GroundTruth:
    """Exact depth, correspondence, and covisibility for a rendered pair.

    Covisibility re-casts a ray from camera 1 toward every camera-0 surface
    point and rejects pixels whose first hit differs from that point (relative
    depth mismatch above `_OCCLUSION_TOL`), plus pixels projecting outside
    camera 1's FOV or image bounds.
    """
    grid = pixel_grid(rig.cam0.height, rig.cam0.width)
    origin, rays = _pixel_rays(rig.cam0, None, grid)
    t0, _ = scene.nearest(origin, rays)
    valid0 = np.isfinite(t0)
    depth0 = np.where(valid0, t0, 0.0)
    pts = rays * depth0[..., None]

    x1, v1 = rig.cam1.project(rig.pose.transform(pts))
    corr = np.where((valid0 & v1)[..., None], x1 - grid, 0.0)

    c1 = rig.pose.camera1_center
    seg = pts - c1
    dist1 = vector_norm(seg)
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

def scene_from_dict(d: dict) -> Scene:
    """Scene from its JSON form. A missing key raises KeyError; a bad kind,
    value or unknown key raises ValueError naming the key and the primitive's
    index (or `scene` for a top-level key)."""
    reject_unknown_keys(d, ("primitives",), "scene: ", "scene")
    return Scene(primitives=tuple(from_dict(spec, PRIMITIVES, f"primitive {i}: ")
                                  for i, spec in enumerate(d["primitives"])))


def scene_to_dict(scene: Scene) -> dict:
    return {"primitives": [to_dict(p, PRIMITIVES) for p in scene.primitives]}
