import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo.camera import (PinholeCamera, PolynomialFisheyeCamera,
                                  RelativePose, StereoRig, UnifiedCamera,
                                  load_rig, rig_from_dict, rig_to_dict,
                                  rotation_from_rotvec, save_rig,
                                  triangulate_midpoint)
from fisheyestereo.rasters import pixel_grid
from fisheyestereo.synth import plane_scene, scene_from_dict, scene_to_dict

PINHOLE = PinholeCamera(width=800, height=800, fx=300.0, fy=300.0,
                        cx=400.0, cy=400.0, fov=np.deg2rad(120.0))
UNIFIED = UnifiedCamera(width=800, height=800, fx=300.0, fy=300.0,
                        cx=400.0, cy=400.0, fov=np.pi, xi=1.0)
POLY = PolynomialFisheyeCamera(width=800, height=800, fx=300.0, fy=300.0,
                               cx=400.0, cy=400.0, fov=np.deg2rad(180.0),
                               k=(1.0, 0.0, 0.0, 0.0))
POLY_FULL = PolynomialFisheyeCamera(width=800, height=800, fx=300.0, fy=300.0,
                                    cx=400.0, cy=400.0, fov=np.deg2rad(170.0),
                                    k=(1.0, 0.03, -0.006, 0.001))


def test_pinhole_optical_axis_hits_principal_point():
    pix, ok = PINHOLE.project(np.array([0.0, 0.0, 1.0]))
    assert bool(ok)
    assert np.allclose(pix, [400.0, 400.0], atol=0)


def test_polynomial_axis_both_ways_hits_principal_point():
    # fov 360 deg keeps the backward axis (theta = pi) inside the field of view.
    cam = PolynomialFisheyeCamera(width=800, height=800, fx=300.0, fy=300.0,
                                  cx=400.25, cy=399.5, fov=2 * np.pi,
                                  k=(1.0, 0.03, -0.006, 0.001))
    pix, ok = cam.project(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert ok.all()
    assert np.array_equal(pix, [[400.25, 399.5], [400.25, 399.5]])


def test_pinhole_projection_formula():
    pix, ok = PINHOLE.project(np.array([1.0, 0.0, 1.0]))
    assert bool(ok)
    assert np.allclose(pix, [700.0, 400.0], atol=1e-12)


def test_unified_projection_formula():
    # Oracle: x = f*X / (Z + xi*|X|) + cx evaluated directly.
    x_expected = 300.0 * 1.0 / (1.0 + np.sqrt(2.0)) + 400.0
    pix, ok = UNIFIED.project(np.array([1.0, 0.0, 1.0]))
    assert bool(ok)
    assert np.allclose(pix, [x_expected, 400.0], atol=1e-9)


def test_unprojection_principal_point_is_axis():
    for cam in (PINHOLE, UNIFIED, POLY, POLY_FULL):
        ray, ok = cam.unproject(np.array([400.0, 400.0]))
        assert bool(ok)
        assert np.allclose(ray, [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("cam", [PINHOLE, UNIFIED, POLY_FULL], ids=lambda c: c.kind)
def test_unproject_is_nan_exactly_where_invalid(cam):
    # A 33 x 33 lattice reaching 400 px past every edge of the 800 x 800 image.
    pix = np.stack(np.meshgrid(np.linspace(-400, 1200, 33),
                               np.linspace(-400, 1200, 33)), axis=-1)
    ray, ok = cam.unproject(pix)
    assert ok.any() and not ok.all()
    assert np.isnan(ray[~ok]).all()
    assert np.isfinite(ray[ok]).all()


@pytest.mark.parametrize("cam", [PINHOLE, UNIFIED, POLY_FULL], ids=lambda c: c.kind)
def test_project_and_unproject_reject_the_other_width(cam):
    # Neither guesses: a third pixel value has no meaning, and a 2-vector
    # point has no z.
    with pytest.raises(ValueError, match=r"trailing dimension 2, got shape \(1, 3\)"):
        cam.unproject([[399.5, 399.5, 123.0]])
    with pytest.raises(ValueError, match=r"trailing dimension 3, got shape \(1, 2\)"):
        cam.project([[0.1, 0.2]])
    with pytest.raises(ValueError, match=r"trailing dimension 3, got shape \(\)"):
        cam.project(1.0)


def test_pinhole_unprojection_inverse_example():
    ray, ok = PINHOLE.unproject(np.array([700.0, 400.0]))
    assert bool(ok)
    expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(ray, expected, atol=1e-12)


def test_polynomial_equidistant_analytic():
    # Pure equidistant r = f*theta; pixel at radius f*pi/4 maps to a 45-degree ray.
    pix = np.array([400.0 + 300.0 * np.pi / 4.0, 400.0])
    ray, ok = POLY.unproject(pix)
    assert bool(ok)
    theta = np.arctan2(np.hypot(ray[0], ray[1]), ray[2])
    assert abs(theta - np.pi / 4.0) < 1e-10
    assert abs(ray[1]) < 1e-12


@pytest.mark.parametrize("cam", [PINHOLE, UNIFIED, POLY, POLY_FULL])
def test_project_unproject_roundtrip_dense_grid(cam):
    grid = pixel_grid(cam.height, cam.width)[::25, ::25].reshape(-1, 2)
    rays, ok = cam.unproject(grid)
    rays = np.where(ok[:, None], rays, 0.0)
    pix, ok2 = cam.project(rays)
    sel = ok & ok2
    assert sel.sum() > 300
    assert np.max(np.abs(pix[sel] - grid[sel])) < 1e-6
    norms = np.linalg.norm(rays[ok], axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_unified_xi_zero_matches_pinhole():
    uni = UnifiedCamera(width=800, height=800, fx=300.0, fy=300.0, cx=400.0,
                        cy=400.0, fov=np.deg2rad(120.0), xi=0.0)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 3))
    pts[:, 2] = np.abs(pts[:, 2]) + 0.5
    a, oka = uni.project(pts)
    b, okb = PINHOLE.project(pts)
    sel = oka & okb
    assert sel.sum() > 100
    assert np.max(np.abs(a[sel] - b[sel])) < 1e-12


def test_project_behind_pinhole_invalid():
    _, ok = PINHOLE.project(np.array([0.0, 0.0, -1.0]))
    assert not bool(ok)


def test_project_beyond_fov_invalid():
    narrow = UnifiedCamera(width=800, height=800, fx=300.0, fy=300.0, cx=400.0,
                           cy=400.0, fov=np.deg2rad(60.0), xi=0.5)
    _, ok = narrow.project(np.array([2.0, 0.0, 1.0]))  # 63 degrees off axis
    assert not bool(ok)


def test_transform_identity_and_translation():
    pose = RelativePose()
    X = np.array([0.3, -0.2, 2.0])
    assert np.allclose(pose.transform(X), X, atol=0)
    pose_t = RelativePose(np.eye(3), np.array([0.1, 0.0, 0.0]))
    assert np.allclose(pose_t.transform(np.array([0.0, 0.0, 2.0])),
                       [0.1, 0.0, 2.0], atol=0)


def test_transform_90_degree_yaw():
    # Yaw = rotation about +y (frame: z forward, x right, y down).
    pose = RelativePose(rotation_from_rotvec((0.0, np.pi / 2.0, 0.0)))
    out = pose.transform(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-12)


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        RelativePose(np.eye(3) * 1.01)
    with pytest.raises(ValueError):
        RelativePose(np.diag([1.0, 1.0, -1.0]))  # det -1
    with pytest.raises(ValueError, match="finite"):
        # NaN compares false, so the orthonormality test alone would pass it.
        RelativePose(np.eye(3), np.array([0.0, 0.0, np.nan]))


@pytest.mark.parametrize("kwargs, message", [
    ({"translation": [0.1, 0.0]}, "translation must be 3 finite numbers"),
    ({"rotation": ["1", "0", "0", "0", "1", "0", "0", "0", "1"]},
     "rotation must be 9 finite numbers"),
    ({"translation": ["0.1", "0", "0"]}, "translation must be 3 finite numbers"),
    ({"rotation": np.eye(3).tolist()}, "pose: rotation must be 9 finite numbers"),
], ids=["short-translation", "text-rotation", "text-translation", "nested-rotation"])
def test_pose_checks_its_fields(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RelativePose(**kwargs)


def test_pose_takes_a_matrix_or_nine_numbers():
    R = rotation_from_rotvec((0.1, 0.2, -0.3))
    for rotation in (R, list(R.ravel())):
        pose = RelativePose(rotation, (0.1, 0, 0))
        assert np.array_equal(pose.rotation, R)
        assert np.array_equal(pose.translation, [0.1, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)))
def test_rotvec_rotations_are_orthonormal(rv):
    R = rotation_from_rotvec(rv)
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def _midpoint_rig():
    pose = RelativePose.from_displacement((0.1, 0.0, 0.0))
    return StereoRig(PINHOLE, PINHOLE, pose)


def test_triangulate_classic_depth_formula():
    # Oracle: z = f*b/d with f=300, b=0.1, d=30 px -> depth 1 m.
    rig = _midpoint_rig()
    depth, ok = triangulate_midpoint(rig, np.array([400.0, 400.0]),
                                     np.array([370.0, 400.0]))
    assert bool(ok)
    assert abs(float(depth) - 1.0) < 1e-9


def test_triangulate_zero_disparity_invalid():
    rig = _midpoint_rig()
    depth, ok = triangulate_midpoint(rig, np.array([400.0, 400.0]),
                                     np.array([400.0, 400.0]))
    assert not bool(ok)
    assert np.isnan(depth)


def test_triangulate_random_roundtrip():
    # Render-project-triangulate round trip on 1000 random points.
    rig = StereoRig(
        UnifiedCamera(width=800, height=800, fx=300.0, fy=300.0, cx=400.0,
                      cy=400.0, fov=np.pi, xi=0.8),
        UnifiedCamera(width=800, height=800, fx=310.0, fy=305.0, cx=395.0,
                      cy=402.0, fov=np.pi, xi=0.8),
        RelativePose.from_displacement((0.09, 0.01, 0.02), rotvec=(0.02, -0.03, 0.01)),
    )
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(2000, 3))
    pts[:, 2] = rng.uniform(0.4, 5.0, size=2000)
    depth_true = np.linalg.norm(pts, axis=-1)
    x0, ok0 = rig.cam0.project(pts)
    x1, ok1 = rig.cam1.project(rig.pose.transform(pts))
    sel = ok0 & ok1
    assert sel.sum() >= 1000
    depth, okt = triangulate_midpoint(rig, x0[sel], x1[sel])
    assert okt.all()
    rel = np.abs(depth - depth_true[sel]) / depth_true[sel]
    assert np.max(rel) < 1e-6


def test_rig_json_roundtrip(tmp_path):
    rig = StereoRig(UNIFIED, POLY_FULL,
                    RelativePose.from_displacement((0.1, 0.0, 0.01),
                                                   rotvec=(0.0, 0.03, 0.0)))
    path = tmp_path / "rig.json"
    save_rig(path, rig)
    back = load_rig(path)
    assert rig_to_dict(back) == rig_to_dict(rig)
    d = json.loads(path.read_text())
    assert set(d) == {"cam0", "cam1", "pose"}
    assert len(d["pose"]["rotation"]) == 9


def test_rig_compares_and_hashes_by_value():
    rig = StereoRig(UNIFIED, POLY_FULL,
                    RelativePose.from_displacement((0.1, 0.0, 0.01), rotvec=(0.0, 0.03, 0.0)))
    back = rig_from_dict(json.loads(json.dumps(rig_to_dict(rig))))
    assert back == rig and hash(back) == hash(rig)
    moved = RelativePose(rig.pose.rotation, rig.pose.translation + (0.0, 0.0, 1e-9))
    assert StereoRig(UNIFIED, POLY_FULL, moved) != rig
    assert RelativePose() != "pose"


def test_pose_arrays_are_read_only():
    pose = RelativePose.from_displacement((0.1, 0.0, 0.0), rotvec=(0.0, 0.02, 0.0))
    with pytest.raises(ValueError, match="read-only"):
        pose.translation[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        pose.rotation[0, 0] = 1.0


# A rig JSON value, the part and key it replaces, and the expected message.
BAD_RIG_VALUES = [
    ("cam0", "type", "orthographic", "cam0: unknown camera type 'orthographic'"),
    ("pose", "translation", [0.0, 0.0, float("nan")], "pose: translation must be 3 finite"),
    ("pose", "rotation", [float("inf")] + [0.0] * 8, "pose: rotation must be 9 finite"),
    ("pose", "rotation", ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
     "pose: rotation must be 9 finite"),
    ("pose", "translation", [0.1, 0.0], "pose: translation must be 3 finite"),
    ("cam1", "width", 40.5, "cam1: width must be an integer >= 1"),
    ("cam0", "height", 0, "cam0: height must be an integer >= 1"),
    ("cam0", "width", True, "cam0: width must be an integer >= 1"),
    ("cam0", "fov_deg", float("inf"), "cam0: fov_deg must be finite and > 0"),
    ("cam1", "fov_deg", 0, "cam1: fov_deg must be finite and > 0"),
    ("cam0", "fx", 0.0, "cam0: fx must be finite and > 0"),
    ("cam1", "fy", -300.0, "cam1: fy must be finite and > 0"),
    ("cam0", "cx", float("nan"), "cam0: cx must be finite"),
    ("cam1", "cy", "400", "cam1: cy must be finite"),
    ("cam0", "xi", -0.5, "cam0: xi must be finite and >= 0"),
    ("cam1", "k", [1.0, 0.0, float("nan"), 0.0], "cam1: k must be 4 finite numbers"),
    ("cam1", "k", [1.0, 0.0], "cam1: k must be 4 finite numbers"),
    ("cam0", "colour", "red", "cam0: 'colour' is not a key of a unified camera"),
    ("cam1", "xi", 1.0, "cam1: 'xi' is not a key of a polynomial camera"),
    ("cam0", "fx", 10 ** 400, "cam0: fx must be finite and > 0"),
    ("pose", "scale", 2.0, "pose: 'scale' is not a key of a pose (rotation, translation)"),
    ("pose", "rotation", np.eye(3).tolist(), "pose: rotation must be 9 finite"),
]
BAD_RIG_IDS = ["unknown-type", "nan-translation", "inf-rotation", "text-rotation",
               "short-translation", "fractional-width", "zero-height",
               "bool-width", "inf-fov", "zero-fov", "zero-fx", "negative-fy", "nan-cx",
               "text-cy", "negative-xi", "nan-k", "short-k", "unknown-key",
               "xi-on-polynomial", "huge-int-fx", "unknown-pose-key", "nested-rotation"]


@pytest.mark.parametrize("part, key, value, message", BAD_RIG_VALUES, ids=BAD_RIG_IDS)
def test_rig_from_dict_rejects_bad_values(part, key, value, message):
    d = rig_to_dict(StereoRig(UNIFIED, POLY_FULL, RelativePose.from_displacement((0.1, 0, 0))))
    d[part][key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        rig_from_dict(d)


@pytest.mark.parametrize("cam", [PINHOLE, UNIFIED, POLY_FULL], ids=lambda c: c.kind)
def test_camera_json_roundtrip(cam):
    d = rig_to_dict(StereoRig(cam, cam, RelativePose()))
    back = rig_from_dict(json.loads(json.dumps(d)))
    assert back.cam0 == cam and back.cam1 == cam
    assert d["cam0"]["type"] == cam.kind and d["cam0"]["fov_deg"] == np.rad2deg(cam.fov)


def test_unknown_top_level_keys_rejected():
    rig = rig_to_dict(StereoRig(UNIFIED, POLY_FULL, RelativePose.from_displacement((0.1, 0, 0))))
    with pytest.raises(ValueError, match=re.escape(
            "rig: 'baseline' is not a key of a rig (cam0, cam1, pose)")):
        rig_from_dict({**rig, "baseline": 0.2})
    scene = scene_to_dict(plane_scene())
    with pytest.raises(ValueError, match=re.escape(
            "scene: 'primitves' is not a key of a scene (primitives)")):
        scene_from_dict({**scene, "primitves": []})


def test_rig_from_dict_enforces_rig_schema():
    """Each camera number just outside its docs/rig_schema.json bound is a
    ValueError, and each key the schema requires is a KeyError when removed."""
    schema = json.loads((Path(__file__).parents[1] / "docs" / "rig_schema.json").read_text())
    camera = schema["$defs"]["camera"]
    rig = rig_to_dict(StereoRig(UNIFIED, POLY_FULL, RelativePose.from_displacement((0.1, 0, 0))))
    required = {(): schema["required"], ("pose",): schema["properties"]["pose"]["required"]}
    bounded = set()
    for part in ("cam0", "cam1"):
        required[(part,)] = camera["required"] + [
            key for rule in camera["allOf"]
            if rule["if"]["properties"]["type"]["const"] == rig[part]["type"]
            for key in rule["then"]["required"]]
        for key, rule in camera["properties"].items():
            if key in rig[part] and ("minimum" in rule or "exclusiveMinimum" in rule):
                step = 1 if rule["type"] == "integer" else 1e-9
                outside = rule["minimum"] - step if "minimum" in rule else rule["exclusiveMinimum"]
                with pytest.raises(ValueError, match=f"{part}: {key} must be"):
                    rig_from_dict({**rig, part: {**rig[part], key: outside}})
                bounded.add(key)
    assert bounded == {"width", "height", "fx", "fy", "fov_deg", "xi"}
    for path, keys in required.items():
        for key in keys:
            d = json.loads(json.dumps(rig))
            parent = d[path[0]] if path else d
            del parent[key]
            with pytest.raises(KeyError, match=key):
                rig_from_dict(d)


def test_fov_mask_is_circular():
    cam = PinholeCamera(width=200, height=200, fx=150.0, fy=150.0, cx=99.5,
                        cy=99.5, fov=np.deg2rad(40.0))
    mask = cam.fov_mask()
    radius = 150.0 * np.tan(np.deg2rad(20.0))
    g = pixel_grid(200, 200)
    r = np.hypot(g[:, :, 0] - 99.5, g[:, :, 1] - 99.5)
    assert np.array_equal(mask, r <= radius + 1e-6)


def test_scaled_camera_preserves_angles():
    cam = UNIFIED.scaled_to((400, 400))
    ray0, _ = UNIFIED.unproject(np.array([500.0, 430.0]))
    # The same relative image location on the scaled camera.
    ray1, _ = cam.unproject(np.array([(500.0 + 0.5) * 0.5 - 0.5,
                                      (430.0 + 0.5) * 0.5 - 0.5]))
    assert np.allclose(ray0, ray1, atol=1e-12)
