import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo.camera import (PinholeCamera, RelativePose, StereoRig,
                                  UnifiedCamera)
from fisheyestereo.fields import (compose_with_calibration, depth_swept_curve,
                                  generate_calibration_field,
                                  generate_trajectory_field, trace_epipolar_curve,
                                  trace_epipolar_curves, translation_only_rig,
                                  unit_directions)
from fisheyestereo.rasters import pixel_grid, sample_bicubic
from fisheyestereo.solver import calibrate_second_image
from fisheyestereo.synth import Box, Scene, ValueNoise, pinhole_rig, render


def _unified(cx=99.5, cy=99.5, f=100.0, xi=0.9):
    return UnifiedCamera(width=200, height=200, fx=f, fy=f, cx=cx, cy=cy,
                         fov=np.pi, xi=xi)


def test_calibration_field_zero_for_identity_rig():
    cam = _unified()
    rig = StereoRig(cam, cam, RelativePose())
    field, ok = generate_calibration_field(rig)
    assert ok.sum() > 0
    assert np.max(np.abs(field[ok])) < 1e-9


def test_calibration_field_constant_for_principal_point_shift():
    cam0 = _unified()
    cam1 = _unified(cx=104.5, cy=102.5)
    rig = StereoRig(cam0, cam1, RelativePose())
    field, ok = generate_calibration_field(rig)
    assert np.allclose(field[ok][:, 0], 5.0, atol=1e-9)
    assert np.allclose(field[ok][:, 1], 3.0, atol=1e-9)


def test_calibration_warp_matches_rotated_render():
    # Oracle: render the second view from a rotation-only pose; warping it by
    # the calibration field must photometrically reproduce the first view.
    cam = _unified()
    pose = RelativePose(rotation=np.asarray(
        RelativePose.from_displacement((0, 0, 0), rotvec=(0.01, 0.04, 0.02)).rotation))
    rig = StereoRig(cam, cam, pose)
    scene = Scene(primitives=(
        Box(lo=(-1.5, -1.5, -0.5), hi=(1.5, 1.5, 1.5),
            texture=ValueNoise(scale=0.7, octaves=2, seed=2, lo=0.1, hi=0.9)),))
    i0, _, m0 = render(scene, rig.cam0, supersample=2)
    i1, _, _ = render(scene, rig.cam1, pose=rig.pose, supersample=2)
    i1c, ok, _, _ = calibrate_second_image(i1, rig)
    sel = ok & m0
    sel[:10] = sel[-10:] = False
    sel[:, :10] = sel[:, -10:] = False
    rmse = np.sqrt(np.mean((i1c[sel] - i0[sel]) ** 2))
    assert rmse < 2.0 / 255.0


def test_trajectory_field_pinhole_exactly_horizontal():
    rig = translation_only_rig(pinhole_rig())
    dirs, ok = generate_trajectory_field(rig)
    assert ok.sum() > 100_000
    assert np.all(dirs[ok][:, 0] == -1.0)
    assert np.all(dirs[ok][:, 1] == 0.0)


def test_trajectory_field_rejects_rotation():
    rig = StereoRig(_unified(), _unified(),
                    RelativePose.from_displacement((0.1, 0, 0), rotvec=(0, 0.01, 0)))
    with pytest.raises(ValueError):
        generate_trajectory_field(rig)


def test_trajectory_field_rejects_zero_baseline():
    rig = StereoRig(_unified(), _unified(), RelativePose())
    with pytest.raises(ValueError):
        generate_trajectory_field(rig)


def _fisheye_translation_rig():
    cam = _unified()
    return StereoRig(cam, cam, RelativePose(np.eye(3), np.array([-0.1, 0.015, 0.0])))


def test_trajectory_epsilon_halving_convergence():
    rig = _fisheye_translation_rig()
    d1, ok1 = generate_trajectory_field(rig, epsilon_scale=0.1)
    d2, ok2 = generate_trajectory_field(rig, epsilon_scale=0.05)
    both = ok1 & ok2
    ang = np.arccos(np.clip(np.sum(d1[both] * d2[both], axis=-1), -1, 1))
    assert np.max(ang) < 1e-3


def test_trajectory_depth_invariance():
    rig = _fisheye_translation_rig()
    d1, ok1 = generate_trajectory_field(rig, depth=1.0)
    d2, ok2 = generate_trajectory_field(rig, depth=3.7)
    both = ok1 & ok2
    ang = np.arccos(np.clip(np.sum(d1[both] * d2[both], axis=-1), -1, 1))
    assert np.max(ang) < 1e-6


def test_trajectory_baseline_scale_invariance():
    rig = _fisheye_translation_rig()
    rig10 = StereoRig(rig.cam0, rig.cam1,
                      RelativePose(np.eye(3), rig.pose.translation * 10.0))
    d1, ok1 = generate_trajectory_field(rig)
    d2, ok2 = generate_trajectory_field(rig10)
    both = ok1 & ok2
    ang = np.arccos(np.clip(np.sum(d1[both] * d2[both], axis=-1), -1, 1))
    assert np.max(ang) < 1e-6


def test_trajectory_unit_norm():
    dirs, ok = generate_trajectory_field(_fisheye_translation_rig())
    norms = np.linalg.norm(dirs[ok], axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_displaced_camera_gives_positive_x_directions():
    # A second camera displaced along -x sees correspondences slide toward +x.
    cam = _unified()
    rig = StereoRig(cam, cam, RelativePose.from_displacement((-0.1, 0.0, 0.0)))
    dirs, ok = generate_trajectory_field(rig)
    assert np.all(dirs[ok][:, 0] > 0.0)


def test_trace_pinhole_is_straight():
    rig = translation_only_rig(pinhole_rig())
    dirs, ok = generate_trajectory_field(rig)
    poly = trace_epipolar_curve(dirs, ok, np.array([250.0, 180.0]),
                                length=30.0, step=0.5)
    assert poly.shape[0] == 61
    assert np.allclose(poly[:, 1], 180.0, atol=1e-9)
    assert np.allclose(np.diff(poly[:, 0]), -0.5, atol=1e-9)


def test_trace_segment_count_arithmetic():
    rig = translation_only_rig(pinhole_rig())
    dirs, ok = generate_trajectory_field(rig)
    poly = trace_epipolar_curve(dirs, ok, np.array([250.0, 180.0]),
                                length=5.2, step=0.5)
    # ceil(5.2 / 0.5) = 11 segments, the last shorter (0.2 px).
    assert poly.shape[0] == 12
    lengths = np.linalg.norm(np.diff(poly, axis=0), axis=-1)
    assert np.allclose(lengths[:-1], 0.5, atol=1e-9)
    assert np.isclose(lengths[-1], 0.2, atol=1e-9)


def test_trace_stops_at_mask_boundary():
    rig = translation_only_rig(pinhole_rig())
    dirs, ok = generate_trajectory_field(rig)
    poly = trace_epipolar_curve(dirs, ok, np.array([5.0, 200.0]),
                                length=50.0, step=1.0)
    assert poly.shape[0] < 51  # truncated where the stencil leaves the mask


@pytest.mark.parametrize("length, step, name", [
    (float("inf"), 0.5, "length"), (-1.0, 0.5, "length"), (5.0, float("nan"), "step"),
    (5.0, 0.0, "step"),
])
def test_trace_rejects_bad_length_or_step(length, step, name):
    dirs, ok = np.zeros((8, 8, 2)), np.ones((8, 8), dtype=bool)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        trace_epipolar_curves(dirs, ok, [[3.0, 3.0]], length=length, step=step)


def _point_to_polyline(points, poly):
    a, b = poly[:-1], poly[1:]
    ab = b - a
    denom = np.maximum((ab * ab).sum(-1), 1e-30)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        t = np.clip(((p - a) * ab).sum(-1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        out[i] = np.linalg.norm(proj - p, axis=-1).min()
    return out


def test_trace_follows_depth_swept_curve():
    # Oracle: the exact correspondence locus of the pixel over all depths.
    rig = _fisheye_translation_rig()
    dirs, ok = generate_trajectory_field(rig)
    start = np.array([60.0, 120.0])
    verts, alive = trace_epipolar_curves(dirs, ok, start[None, :],
                                         length=25.0, step=0.05)
    sweep, sok = depth_swept_curve(rig, start, np.geomspace(5e3, 0.02, 3000))
    dist = _point_to_polyline(verts[0][alive[0]], sweep[sok])
    assert np.max(dist) < 0.1


def test_sample_directions_renormalizes_and_zeroes_invalid():
    # Left half: vectors of length 2 along (0.6, 0.8); right half: zero.
    dirs = np.zeros((8, 8, 2))
    dirs[:, :4] = (1.2, 1.6)
    pos = np.array([[1.3, 3.5], [6.5, 3.5], [40.0, 3.0]])
    unit, ok = unit_directions(*sample_bicubic(dirs, pos, np.ones((8, 8), bool)))
    assert ok.tolist() == [True, False, False]
    assert np.allclose(unit[0], (0.6, 0.8), atol=1e-12)
    assert np.all(unit[1:] == 0.0)


def _unit_directions_before(d, ok):
    # The former body of `unit_directions`, kept verbatim as the reference.
    d = np.where(ok[..., None], d, 0.0)
    norm = np.linalg.norm(d, axis=-1)
    ok = ok & (norm > 0.5)
    return np.where(ok[..., None], d / np.maximum(norm, 1e-300)[..., None], 0.0), ok


# Within +-1e150 the squared norm cannot overflow; signed zeros, subnormals
# and rows of norm exactly 0.5 and just around it are drawn too.
_COMPONENT = st.floats(-1e150, 1e150, allow_nan=False)
_ROW = st.one_of(st.tuples(_COMPONENT, _COMPONENT),
                 st.sampled_from([(0.5, 0.0), (-0.0, -0.5), (0.3, 0.4), (0.0, -0.0),
                                  (0.5000000000000001, 0.0), (0.49999999999999994, -0.0)]))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_ROW, st.booleans(), st.booleans()), max_size=12),
       scale=st.sampled_from([1.0, 1e-170, 1e-3, 1e3, 1e150]))
def test_unit_directions_matches_the_former_form(rows, scale):
    # Rows off `ok` may hold NaN, as the sampler leaves them; the result's
    # bits, sign bits included, are those of the former form.
    d = np.array([row for row, _, _ in rows], dtype=np.float64).reshape(-1, 2)
    d = np.clip(d * scale, -1e150, 1e150)
    ok = np.array([valid for _, valid, _ in rows], dtype=bool)
    d[~ok & np.array([nan for _, _, nan in rows], dtype=bool)] = np.nan
    unit, unit_ok = unit_directions(d, ok)
    want, want_ok = _unit_directions_before(d, ok)
    assert unit.tobytes() == want.tobytes() and np.array_equal(unit_ok, want_ok)


def test_compose_with_calibration_zero_field():
    h = w = 32
    w_solver = np.zeros((h, w, 2))
    w_solver[:, :, 0] = 1.5
    cal = np.zeros((h, w, 2))
    full, ok = compose_with_calibration(w_solver, cal, np.ones((h, w), bool))
    sel = ok & (pixel_grid(h, w)[:, :, 0] < w - 2)
    assert np.allclose(full[sel], w_solver[sel], atol=1e-12)


def test_compose_with_calibration_adds_offset():
    h = w = 32
    w_solver = np.zeros((h, w, 2))
    cal = np.zeros((h, w, 2))
    cal[:, :, 0] = 2.0
    cal[:, :, 1] = -1.0
    full, ok = compose_with_calibration(w_solver, cal, np.ones((h, w), bool))
    assert np.allclose(full[ok][:, 0], 2.0, atol=1e-12)
    assert np.allclose(full[ok][:, 1], -1.0, atol=1e-12)
