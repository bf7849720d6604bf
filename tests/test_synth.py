import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo.camera import (PinholeCamera, PolynomialFisheyeCamera, RelativePose,
                                  StereoRig, UnifiedCamera)
from fisheyestereo import synth
from fisheyestereo.rasters import pixel_grid
from fisheyestereo.synth import (Box, Checkerboard, GroundTruth, Plane, Scene,
                                 SineGrating, Sphere, ValueNoise, default_rig,
                                 default_scene, make_ground_truth, pinhole_rig,
                                 plane_scene, render, reseed_scene,
                                 scene_from_dict, scene_to_dict)


def test_render_is_deterministic(small_fisheye_rig, small_scene):
    rig = small_fisheye_rig
    a, da, ma = render(small_scene, rig.cam0)
    b, db, mb = render(small_scene, rig.cam0)
    assert np.array_equal(a, b)
    assert np.array_equal(da, db)
    assert np.array_equal(ma, mb)


def test_render_noise_seeded_and_clipped(small_fisheye_rig, small_scene):
    rig = small_fisheye_rig
    a, _, m = render(small_scene, rig.cam0, noise_sigma=0.05, noise_seed=3)
    b, _, _ = render(small_scene, rig.cam0, noise_sigma=0.05, noise_seed=3)
    c, _, _ = render(small_scene, rig.cam0, noise_sigma=0.05, noise_seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_checkerboard_plane_symmetric_about_principal_point():
    # The radial model and the checker parity are both invariant under a
    # 180-degree rotation about the principal point.
    cam = UnifiedCamera(width=200, height=200, fx=100.0, fy=100.0,
                        cx=99.5, cy=99.5, fov=np.deg2rad(170.0), xi=0.9)
    rig = StereoRig(cam, cam, RelativePose())
    scene = plane_scene(depth=2.0, texture=Checkerboard(period=0.25))
    img, _, mask = render(scene, rig.cam0)
    rot = img[::-1, ::-1]
    rot_mask = mask[::-1, ::-1]
    sel = mask & rot_mask
    agree = np.mean(img[sel] == rot[sel])
    assert agree > 0.999


def test_plane_depth_matches_analytic_intersection():
    # Oracle: ray-plane formula t = z_plane / ray_z for a fronto plane.
    cam = UnifiedCamera(width=128, height=128, fx=64.0, fy=64.0, cx=63.5,
                        cy=63.5, fov=np.deg2rad(160.0), xi=0.8)
    scene = plane_scene(depth=2.0)
    _, depth, mask = render(scene, cam)
    rays, ok = cam.unproject(pixel_grid(128, 128))
    sel = mask & ok
    expected = 2.0 / rays[..., 2]
    assert np.max(np.abs(depth[sel] - expected[sel])) < 1e-9


def test_ground_truth_zero_for_identity_rig(small_scene):
    cam = UnifiedCamera(width=100, height=100, fx=50.0, fy=50.0, cx=49.5,
                        cy=49.5, fov=np.pi, xi=0.9)
    rig = StereoRig(cam, cam, RelativePose())
    gt = make_ground_truth(small_scene, rig)
    assert gt.covisibility.sum() > 0
    assert np.max(np.abs(gt.correspondence[gt.covisibility])) < 1e-9


def test_ground_truth_rectified_disparity_formula():
    # Oracle: constant disparity -f*b/z for a fronto plane under a pinhole rig.
    rig = pinhole_rig(width=200, height=200, f=150.0, baseline=0.1)
    scene = plane_scene(depth=3.0)
    gt = make_ground_truth(scene, rig)
    sel = gt.covisibility
    expected = -150.0 * 0.1 / 3.0
    assert np.allclose(gt.correspondence[sel][:, 0], expected, atol=1e-9)
    assert np.allclose(gt.correspondence[sel][:, 1], 0.0, atol=1e-9)


def test_ground_truth_correspondence_roundtrip(small_fisheye_rig, small_scene):
    # The invariant that defines the field: re-deriving the correspondence
    # from depth through the camera module reproduces it exactly.
    rig = small_fisheye_rig
    gt = make_ground_truth(small_scene, rig)
    grid = pixel_grid(rig.cam0.height, rig.cam0.width)
    rays, ok0 = rig.cam0.unproject(grid)
    pts = np.where(ok0[..., None], rays, 0.0) * gt.depth0[..., None]
    x1, ok1 = rig.cam1.project(rig.pose.transform(pts))
    sel = gt.covisibility
    assert np.max(np.abs((x1 - grid)[sel] - gt.correspondence[sel])) < 1e-9


def test_occlusion_excluded_from_covisibility():
    # A slab floating between the cameras and the far plane shadows a region
    # of the far plane from camera 1 only; those pixels must drop out.
    rig = pinhole_rig(width=200, height=200, f=150.0, baseline=0.12)
    open_scene = plane_scene(depth=4.0)
    blocker = Box(lo=(-0.55, -0.3, 1.95), hi=(-0.25, 0.3, 2.05),
                  texture=ValueNoise(seed=9))
    blocked_scene = Scene(primitives=open_scene.primitives + (blocker,))
    gt_open = make_ground_truth(open_scene, rig)
    gt_blocked = make_ground_truth(blocked_scene, rig)
    lost = gt_open.covisibility & ~gt_blocked.covisibility
    far_plane = gt_blocked.depth0 > 3.0
    assert (lost & far_plane).sum() > 50  # a shadowed far-plane region exists


def test_default_scene_covers_every_ray(small_fisheye_rig):
    _, depth, hit = render(default_scene(), default_rig().cam0)
    fov = default_rig().cam0.fov_mask()
    assert np.array_equal(hit, fov)
    assert np.all(depth[hit] > 0)


def test_supersampling_changes_intensities_not_geometry(small_fisheye_rig, small_scene):
    rig = small_fisheye_rig
    i1, d1, m1 = render(small_scene, rig.cam0, supersample=1)
    i2, d2, m2 = render(small_scene, rig.cam0, supersample=2)
    assert np.array_equal(d1, d2)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(i1, i2)


LENSES = [
    PinholeCamera(width=61, height=47, fx=10.0, fy=10.0, cx=30.0, cy=23.0,
                  fov=np.deg2rad(140.0)),
    UnifiedCamera(width=61, height=47, fx=20.0, fy=20.0, cx=30.0, cy=23.0,
                  fov=np.pi, xi=0.9),
    PolynomialFisheyeCamera(width=61, height=47, fx=15.0, fy=15.0, cx=30.0, cy=23.0,
                            fov=np.deg2rad(190.0), k=(1.0, -0.05, 0.003, 0.0)),
]


@pytest.mark.parametrize("cam", LENSES, ids=lambda c: c.kind)
def test_odd_supersample_takes_geometry_from_its_center_cast(cam, small_scene):
    pose = RelativePose.from_displacement((0.1, 0.0, 0.0), rotvec=(0.0, 0.02, 0.005))
    for p in (None, pose):
        i1, d1, m1 = render(small_scene, cam, p, supersample=1)
        i3, d3, m3 = render(small_scene, cam, p, supersample=3)
        assert m1.any() and not m1.all()
        assert np.array_equal(d3, d1)
        assert np.array_equal(m3, m1)
        assert not np.array_equal(i3, i1)


@pytest.mark.parametrize("value", [1.5, 2.5, True, "2"], ids=["1.5", "2.5", "true", "text"])
def test_render_rejects_non_integer_supersample(small_scene, value):
    with pytest.raises(ValueError, match=re.escape(
            f"supersample must be an integer >= 1, got {value!r}")):
        render(small_scene, LENSES[1], supersample=value)


def test_reseed_scene_changes_noise_textures(small_scene):
    same = reseed_scene(small_scene, 0)
    other = reseed_scene(small_scene, 5)
    assert same is small_scene
    assert other.primitives[0].texture.seed != small_scene.primitives[0].texture.seed


_SCENE_SPEC = Scene(primitives=(
    Plane(point=(0.0, 0.0, 2.0), normal=(0.0, 0.0, -1.0),
          texture=Checkerboard(period=0.3, lo=0.2, hi=0.8)),
    Sphere(center=(0.1, 0.2, 1.0), radius=0.25,
           texture=ValueNoise(scale=0.2, octaves=2, seed=7)),
    Box(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 3.0),
        texture=SineGrating(wavelength=0.2, direction=(1.0, 1.0, 0.0))),
))


def test_scene_json_roundtrip():
    back = scene_from_dict(scene_to_dict(_SCENE_SPEC))
    assert scene_to_dict(back) == scene_to_dict(_SCENE_SPEC)


# A scene JSON value, the primitive index and the key (of the primitive, or
# else of its texture) it replaces, and the expected message after
# "primitive {index}: ".
BAD_SCENE_VALUES = [
    (0, "point", [0.0, 2.0], "point must be 3 finite numbers"),
    (0, "normal", [0.0, 0.0, "-1"], "normal must be 3 finite numbers"),
    (1, "center", [0.1, float("nan"), 1.0], "center must be 3 finite numbers"),
    (1, "radius", 0.0, "radius must be finite and > 0"),
    (1, "radius", float("inf"), "radius must be finite and > 0"),
    (1, "radius", True, "radius must be finite and > 0"),
    (2, "lo", [-1.0, -1.0, -1.0, 0.0], "lo must be 3 finite numbers"),
    (2, "hi", 3.0, "hi must be 3 finite numbers"),
    (1, "octaves", 0, "texture octaves must be an integer >= 1"),
    (1, "octaves", 2.0, "texture octaves must be an integer >= 1"),
    (0, "normal", [0.0, 0.0, 0.0], "normal must be 3 finite numbers, not all zero"),
    (0, "period", 0, "texture period must be finite and > 0"),
    (1, "scale", 0, "texture scale must be finite and > 0"),
    (1, "scale", "big", "texture scale must be finite and > 0"),
    (1, "persistence", -0.5, "texture persistence must be finite and > 0"),
    (1, "seed", 1.5, "texture seed must be an integer"),
    (1, "lo", "dark", "texture lo must be finite"),
    (1, "hi", float("nan"), "texture hi must be finite"),
    (2, "wavelength", 0.0, "texture wavelength must be finite and > 0"),
    (2, "direction", [0, 0, 0], "texture direction must be 3 finite numbers, not all zero"),
    (2, "direction", [1.0, 0.0], "texture direction must be 3 finite numbers"),
    (0, "colour", "red", "'colour' is not a key of a plane primitive"),
    (1, "normal", [0.0, 0.0, 1.0], "'normal' is not a key of a sphere primitive"),
    (2, "texture", {"kind": "checker", "wavelength": 0.2},
     "texture 'wavelength' is not a key of a checker texture"),
    pytest.param(1, "lo", 10 ** 400, "texture lo must be finite", id="1-lo-huge-int"),
]


@pytest.mark.parametrize("index, key, value, message", BAD_SCENE_VALUES)
def test_scene_from_dict_rejects_bad_values(index, key, value, message):
    # A key the primitive lacks is set on its texture if the texture has it.
    d = scene_to_dict(_SCENE_SPEC)
    spec = d["primitives"][index]
    (spec["texture"] if key not in spec and key in spec["texture"] else spec)[key] = value
    with pytest.raises(ValueError, match=f"primitive {index}: {message}"):
        scene_from_dict(d)


def test_scene_from_dict_rejects_unknown_primitive():
    with pytest.raises(ValueError):
        scene_from_dict({"primitives": [{"kind": "torus", "texture": {"kind": "noise"}}]})


def test_scene_from_dict_names_the_primitive_of_an_unknown_kind():
    plane = scene_to_dict(plane_scene())["primitives"][0]
    with pytest.raises(ValueError, match="^primitive 1: unknown primitive kind 'torus'"):
        scene_from_dict({"primitives": [plane, {**plane, "kind": "torus"}]})
    with pytest.raises(ValueError, match="^primitive 0: texture unknown texture kind 'wood'"):
        scene_from_dict({"primitives": [{**plane, "texture": {"kind": "wood"}}]})


def test_texture_shading_ranges():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 3)) * 2.0
    for tex in (ValueNoise(lo=0.2, hi=0.8), Checkerboard(lo=0.1, hi=0.9),
                SineGrating(lo=0.3, hi=0.7)):
        vals = tex.shade(pts)
        assert vals.min() >= 0.1 - 1e-9
        assert vals.max() <= 0.9 + 1e-9


# --------------------------------------------------------------------------
# the caster against the sequential reference

# Dense copies of the kernels as they stood before the caster shaded in
# chunks and intersected only the rays that can hit: every ray through every
# step, all three slabs at once, one hash call per lattice corner.

def _dense_sphere_intersect(sphere, origin, dirs):
    oc = origin - np.asarray(sphere.center, dtype=np.float64)
    b = dirs @ oc
    c = oc @ oc - sphere.radius ** 2
    disc = b * b - c
    hit = disc >= 0
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_near = -b - sq
    t_far = -b + sq
    t = np.where(t_near > synth._EPS, t_near, t_far)
    return np.where(hit & (t > synth._EPS), t, np.inf)


def _dense_box_intersect(box, origin, dirs):
    lo = np.asarray(box.lo, dtype=np.float64)
    hi = np.asarray(box.hi, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (lo - origin) * inv
        t2 = (hi - origin) * inv
    t1 = np.nan_to_num(t1, nan=-np.inf)
    t2 = np.nan_to_num(t2, nan=np.inf)
    t_near = np.max(np.minimum(t1, t2), axis=-1)
    t_far = np.min(np.maximum(t1, t2), axis=-1)
    hit = (t_near <= t_far) & (t_far > synth._EPS)
    t = np.where(t_near > synth._EPS, t_near, t_far)
    return np.where(hit, t, np.inf)


def _dense_hash01(ix, iy, iz, seed):
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


def _dense_value_noise(points, scale, seed):
    cell = points / scale
    base = np.floor(cell).astype(np.int64)
    f = cell - base
    f = f * f * (3.0 - 2.0 * f)
    acc = np.zeros(points.shape[:-1])
    for dz in (0, 1):
        wz = f[..., 2] if dz else 1.0 - f[..., 2]
        for dy in (0, 1):
            wy = f[..., 1] if dy else 1.0 - f[..., 1]
            for dx in (0, 1):
                wx = f[..., 0] if dx else 1.0 - f[..., 0]
                v = _dense_hash01(base[..., 0] + dx, base[..., 1] + dy,
                                  base[..., 2] + dz, seed)
                acc += wx * wy * wz * v
    return acc


def _dense_intersect(prim, origin, dirs):
    if isinstance(prim, Sphere):
        return _dense_sphere_intersect(prim, origin, dirs)
    if isinstance(prim, Box):
        return _dense_box_intersect(prim, origin, dirs)
    return prim.intersect(origin, dirs)


def _dense_shade(texture, points):
    """`ValueNoise.shade` over `_dense_value_noise`; other textures as they are."""
    if not isinstance(texture, ValueNoise):
        return texture.shade(points)
    total = np.zeros(points.shape[:-1])
    amp_sum, amp = 0.0, 1.0
    for o in range(texture.octaves):
        total += amp * _dense_value_noise(points, texture.scale / (1 << o), texture.seed + o)
        amp_sum += amp
        amp *= texture.persistence
    return texture.lo + (texture.hi - texture.lo) * (total / amp_sum)


def _reference_cast(scene, origin, dirs):
    """Sequential caster over the dense kernels: whenever a primitive comes
    closer on any ray, shade its texture over every ray and keep that
    shading where it is closer. A zero-length ray hits nothing."""
    best_t = np.full(dirs.shape[:-1], np.inf)
    shade = np.zeros(dirs.shape[:-1])
    winner = np.full(dirs.shape[:-1], -1)
    for i, prim in enumerate(scene.primitives):
        t = np.where(np.linalg.norm(dirs, axis=-1) > 0, _dense_intersect(prim, origin, dirs),
                     np.inf)
        closer = t < best_t
        if np.any(closer):
            tc = np.where(closer, t, 1.0)  # keep inf out of the shading pass
            pts = origin + dirs * tc[..., None]
            shade = np.where(closer, _dense_shade(prim.texture, pts), shade)
            best_t = np.where(closer, t, best_t)
            winner = np.where(closer, i, winner)
    return best_t, shade, winner


_coord = st.floats(-1.5, 1.5)
_vec3 = st.tuples(_coord, _coord, _coord)
_nonzero3 = _vec3.filter(lambda v: np.linalg.norm(v) > 0.1)
_length = st.floats(0.05, 1.0)
_textures = st.one_of(
    st.builds(ValueNoise, scale=_length, octaves=st.integers(1, 3),
              seed=st.integers(0, 1000), persistence=st.floats(0.3, 0.8)),
    st.builds(Checkerboard, period=_length),
    st.builds(SineGrating, wavelength=_length, direction=_nonzero3),
)
_primitives = st.one_of(
    st.builds(Plane, point=_vec3, normal=_nonzero3, texture=_textures),
    st.builds(Sphere, center=_vec3, radius=_length, texture=_textures),
    st.builds(lambda lo, size, tex: Box(lo=lo, hi=tuple(np.add(lo, size)), texture=tex),
              _vec3, st.tuples(_length, _length, _length), _textures),
)


@settings(max_examples=100, deadline=None)
@given(prims=st.lists(_primitives, max_size=4))
def test_scene_dict_roundtrip_property(prims):
    scene = Scene(primitives=tuple(prims))
    assert scene_from_dict(scene_to_dict(scene)) == scene


@st.composite
def _cast_cases(draw):
    prims = draw(st.lists(_primitives, max_size=5))
    if prims and draw(st.booleans()):
        # The same geometry again, later and with another texture: the
        # earlier copy must win every tie.
        src = draw(st.integers(0, len(prims) - 1))
        at = draw(st.integers(src + 1, len(prims)))
        prims.insert(at, replace(prims[src], texture=draw(_textures)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    dirs = rng.normal(size=shape + (3,))
    # Components exactly +-0 (rays in a coordinate plane or along an axis):
    # the box slabs divide by them, and from an origin on a slab plane they
    # give 0 * inf.
    dirs[rng.random(dirs.shape) < draw(st.sampled_from([0.0, 0.4]))] = 0.0
    # Zero directions, as pixels outside the FOV get.
    dirs[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    dirs = np.where(rng.random(dirs.shape) < 0.5, dirs, -dirs)  # signed zeros
    norm = np.linalg.norm(dirs, axis=-1, keepdims=True)
    dirs /= np.where(norm > 0, norm, 1.0)
    origin = np.asarray(draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3)))
    solids = [p for p in prims if not isinstance(p, Plane)]
    if solids and draw(st.booleans()):
        # The origin on one of a box's slab planes, or inside a sphere.
        solid = draw(st.sampled_from(solids))
        if isinstance(solid, Box):
            k = draw(st.integers(0, 2))
            origin[k] = draw(st.sampled_from([solid.lo[k], solid.hi[k]]))
        else:
            origin = np.asarray(solid.center) + origin * solid.radius
    return Scene(primitives=tuple(prims)), origin, dirs


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=_cast_cases())
def test_intersect_matches_dense_kernels(case):
    scene, origin, dirs = case
    for prim in scene.primitives:
        assert _same_bits(prim.intersect(origin, dirs), _dense_intersect(prim, origin, dirs))


_EIGHTHS = st.integers(-16, 16).map(lambda k: k / 8)


@settings(max_examples=100, deadline=None)
@given(center=st.tuples(_EIGHTHS, _EIGHTHS, _EIGHTHS),
       radius=st.integers(1, 16).map(lambda k: k / 8), back=_EIGHTHS,
       along=st.integers(0, 2), across=st.integers(1, 2))
def test_sphere_grazing_rays_match_dense_kernel(center, radius, back, along, across):
    # A ray along axis `along` from an origin `radius` off the center along
    # another axis touches the sphere: every value is a multiple of 1/8, so
    # no step rounds and b*b - c is exactly 0. (It is never -0.0: b*b is
    # never -0.0, and x - x is +0.0.) The neighbouring origins graze it by
    # one ulp, just inside and just outside.
    sphere = Sphere(center=center, radius=radius, texture=_GREY)
    side = (along + across) % 3
    axis = np.zeros(3)
    axis[along] = 1.0
    dirs = np.stack([axis, -axis, np.where(axis == 0, -0.0, axis), np.zeros(3)])
    origin = np.asarray(center, dtype=np.float64)
    origin[side] += radius
    origin[along] -= back
    oc = origin - np.asarray(center)
    assert (dirs[0] @ oc) ** 2 - (oc @ oc - radius ** 2) == 0.0
    for toward in (-np.inf, None, np.inf):
        o = origin.copy()
        if toward is not None:
            o[side] = np.nextafter(o[side], toward)
        assert _same_bits(sphere.intersect(o, dirs), _dense_sphere_intersect(sphere, o, dirs))


@settings(max_examples=200, deadline=None)
@given(scale=st.one_of(st.sampled_from([0.07, 0.25, 0.3, 1.0]), st.floats(0.01, 4.0)),
       seed=st.integers(-2**40, 2**40), data_seed=st.integers(0, 2**32 - 1))
def test_value_noise_matches_dense_reference(scale, seed, data_seed):
    rng = np.random.default_rng(data_seed)
    # Points on the lattice planes (or one rounding off them), one ulp to
    # either side of them, scattered with negatives, and signed zeros.
    on_cells = rng.integers(-40, 40, size=(60, 3)) * scale
    beside = np.nextafter(on_cells, rng.choice([-np.inf, np.inf], size=on_cells.shape))
    scattered = rng.normal(size=(60, 3)) * 10.0 * scale
    zeros = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]])
    pts = np.concatenate([on_cells, beside, scattered, zeros])
    assert _same_bits(synth._value_noise(pts, scale, seed), _dense_value_noise(pts, scale, seed))
    tex = ValueNoise(scale=scale, octaves=3, seed=seed)
    grid = pts[:180].reshape(12, 15, 3)
    assert _same_bits(tex.shade(grid), _dense_shade(tex, grid))


@settings(max_examples=300, deadline=None)
@given(case=_cast_cases())
def test_cast_matches_sequential_reference(case):
    scene, origin, dirs = case
    ref_t, ref_shade, ref_winner = _reference_cast(scene, origin, dirs)
    t, winner = scene.nearest(origin, dirs)
    assert np.array_equal(t, ref_t)
    assert np.array_equal(winner, ref_winner)
    t, shade = scene.cast(origin, dirs)
    assert np.array_equal(t, ref_t)
    assert np.array_equal(shade, ref_shade)


def test_cast_tie_and_miss_values():
    sphere = Sphere(center=(0.0, 0.0, 2.0), radius=0.5, texture=Checkerboard(lo=0.2, hi=0.2))
    twin = replace(sphere, texture=Checkerboard(lo=0.7, hi=0.7))
    scene = Scene(primitives=(sphere, twin))
    dirs = np.array([[0.0, 0.0, 1.0],    # hits both copies at t = 1.5
                     [0.0, 0.0, -1.0],   # points away: hits nothing
                     [0.0, 0.0, 0.0]])   # zero direction: hits nothing
    t, winner = scene.nearest(np.zeros(3), dirs)
    assert t.tolist() == [1.5, np.inf, np.inf]
    assert winner.tolist() == [0, -1, -1]
    t, shade = scene.cast(np.zeros(3), dirs)
    assert t.tolist() == [1.5, np.inf, np.inf]
    assert shade.tolist() == [0.2, 0.0, 0.0]


_GREY = Checkerboard(lo=0.6, hi=0.6)


@pytest.mark.parametrize("prim", [
    Sphere(center=(0.1, 0.0, 0.2), radius=0.5, texture=_GREY),             # origin inside
    Box(lo=(-0.3, -0.2, -0.4), hi=(0.5, 0.3, 0.2), texture=_GREY),         # origin inside
    Plane(point=(0.0, 0.0, 0.1), normal=(0.0, 0.0, -1.0), texture=_GREY),  # origin in front
])
def test_zero_ray_misses_every_primitive(prim):
    # The zero direction a camera gives outside its FOV, next to a real ray.
    scene = Scene(primitives=(prim,))
    dirs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t, winner = scene.nearest(np.zeros(3), dirs)
    assert t[0] == np.inf and winner[0] == -1
    assert np.isfinite(t[1]) and winner[1] == 0
    t, shade = scene.cast(np.zeros(3), dirs)
    assert t[0] == np.inf and shade.tolist() == [0.0, 0.6]


def test_plane_nearly_parallel_ray_misses_without_overflow():
    # denom = -0.98 * 5e-324 is subnormal: dividing by it overflows, which
    # this suite turns into an error, though the ray is parallel and misses.
    plane = Plane(point=(1.0, 0.0, 0.0), normal=(1.0, 0.0, 5e-324), texture=_GREY)
    dirs = np.array([[-0.0, 0.2, -0.98], [1.0, 0.0, 0.0]])
    assert plane.intersect(np.zeros(3), dirs).tolist() == [np.inf, 1.0]


class _CountingTexture:
    """Constant albedo that records the points of each shade call."""

    def __init__(self):
        self.calls = []

    def shade(self, points):
        self.calls.append(points.copy())
        return np.full(points.shape[:-1], 0.5)


def test_cast_shades_each_won_ray_once_in_chunks(monkeypatch):
    monkeypatch.setattr(synth, "_SHADE_CHUNK", 8)
    near = Plane(point=(0.0, 0.0, 1.0), normal=(0.0, 0.0, -1.0), texture=_CountingTexture())
    far = Plane(point=(0.0, 0.0, 3.0), normal=(0.0, 0.0, -1.0), texture=_CountingTexture())
    unseen = Sphere(center=(0.0, 0.0, 5.0), radius=0.1, texture=_CountingTexture())
    dirs = np.stack([*np.meshgrid(np.linspace(-0.2, 0.2, 5), np.linspace(-0.1, 0.1, 4)),
                     np.ones((4, 5))], axis=-1)
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    scene = Scene(primitives=(far, near, unseen))
    t, _ = scene.cast(np.zeros(3), dirs)
    assert far.texture.calls == []
    assert unseen.texture.calls == []
    # The 20 won rays, each once and in ray order, in calls of at most 8.
    assert [len(points) for points in near.texture.calls] == [8, 8, 4]
    assert np.array_equal(np.concatenate(near.texture.calls),
                          (dirs * t[..., None]).reshape(-1, 3))


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_cast_chunk_size_leaves_values_unchanged(monkeypatch, chunk):
    # _SCENE_SPEC's three primitives carry the three textures, and the
    # origin inside its box sees all of them.
    rng = np.random.default_rng(20)
    dirs = rng.normal(size=(15, 17, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    dirs[0, :4] = 0.0
    origin = np.array([0.05, -0.1, 0.2])
    ref_t, ref_shade, ref_winner = _reference_cast(_SCENE_SPEC, origin, dirs)
    assert set(ref_winner.ravel()) == {-1, 0, 1, 2} and ref_winner.size > chunk
    monkeypatch.setattr(synth, "_SHADE_CHUNK", ref_winner.size)
    whole = _SCENE_SPEC.cast(origin, dirs)
    monkeypatch.setattr(synth, "_SHADE_CHUNK", chunk)
    chunked = _SCENE_SPEC.cast(origin, dirs)
    for got, whole_value, ref in zip(chunked, whole, (ref_t, ref_shade)):
        assert _same_bits(got, whole_value)
        assert _same_bits(got, ref)


def _reference_ground_truth(scene, rig, occlusion_tol=1e-6):
    """Ground truth from full shaded casts: the camera-0 depth through
    `render`, the occlusion test through `Scene.cast`."""
    grid = pixel_grid(rig.cam0.height, rig.cam0.width)
    _, depth0, valid0 = render(scene, rig.cam0)
    rays, _ = rig.cam0.unproject(grid)
    rays = np.where(valid0[..., None], rays, 0.0)
    pts = rays * depth0[..., None]
    x1, v1 = rig.cam1.project(rig.pose.transform(pts))
    corr = np.where((valid0 & v1)[..., None], x1 - grid, 0.0)
    c1 = rig.pose.camera1_center
    seg = pts - c1
    dist1 = np.linalg.norm(seg, axis=-1)
    dirs1 = seg / np.maximum(dist1, 1e-300)[..., None]
    t_hit, _ = scene.cast(c1, dirs1)
    unoccluded = np.abs(t_hit - dist1) <= occlusion_tol * np.maximum(dist1, 1.0)
    in_bounds = ((x1[..., 0] >= 0) & (x1[..., 0] <= rig.cam1.width - 1)
                 & (x1[..., 1] >= 0) & (x1[..., 1] <= rig.cam1.height - 1))
    in_bounds &= np.isfinite(x1).all(axis=-1)
    covis = valid0 & v1 & unoccluded & in_bounds
    return GroundTruth(depth0=depth0, correspondence=corr, covisibility=covis)


def test_ground_truth_matches_full_cast_reference(small_fisheye_rig, small_scene):
    gt = make_ground_truth(small_scene, small_fisheye_rig)
    ref = _reference_ground_truth(small_scene, small_fisheye_rig)
    assert np.array_equal(gt.depth0, ref.depth0)
    assert np.array_equal(gt.correspondence, ref.correspondence)
    assert np.array_equal(gt.covisibility, ref.covisibility)

