import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo.evaluate import (DEPTH_ERROR_BREAKS, DEPTH_ERROR_COLORS,
                                    colorize, colorize_depth_error,
                                    correspondence_error, depth_error_map,
                                    depth_from_correspondence,
                                    erroneous_percentage, make_report)
from fisheyestereo.synth import pinhole_rig


def test_error_zero_for_exact_estimate():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(10, 10, 2))
    valid = np.ones((10, 10), dtype=bool)
    assert np.all(correspondence_error(w, w, valid) == 0.0)


def test_error_constant_offset():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(10, 10, 2))
    w2 = w.copy()
    w2[:, :, 0] += 2.0
    valid = np.ones((10, 10), dtype=bool)
    assert np.allclose(correspondence_error(w2, w, valid), 2.0, atol=1e-12)


def test_error_equals_constructed_norms():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(12, 12, 2))
    noise = rng.normal(size=(12, 12, 2))
    valid = np.ones((12, 12), dtype=bool)
    err = correspondence_error(w + noise, w, valid)
    assert np.allclose(err, np.linalg.norm(noise, axis=-1), atol=1e-12)


def test_erroneous_percentage_counting():
    err = np.zeros((10, 10))
    err[0, :3] = 2.0
    valid = np.ones((10, 10), dtype=bool)
    assert erroneous_percentage(err, valid, 1.0) == 3.0
    assert erroneous_percentage(err, valid, 3.0) == 0.0


def test_erroneous_percentage_threshold_edges():
    err = np.full((5, 5), 0.5)
    valid = np.ones((5, 5), dtype=bool)
    assert erroneous_percentage(err, valid, 1.0) == 0.0
    assert erroneous_percentage(err, valid, 0.4) == 100.0


def test_erroneous_percentage_empty_set_invalid():
    out = erroneous_percentage(np.zeros((4, 4)), np.zeros((4, 4), bool), 1.0)
    assert np.isnan(out)


def test_erroneous_percentage_rejects_bad_tau():
    with pytest.raises(ValueError):
        erroneous_percentage(np.zeros((4, 4)), np.ones((4, 4), bool), 0.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_erroneous_percentage_names_a_bad_tau(tau):
    with pytest.raises(ValueError, match="^tau must be "):
        erroneous_percentage(np.zeros((4, 4)), np.ones((4, 4), bool), tau)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), t1=st.floats(0.1, 3.0), t2=st.floats(0.1, 3.0))
def test_erroneous_percentage_monotone_in_tau(seed, t1, t2):
    rng = np.random.default_rng(seed)
    err = np.abs(rng.normal(size=(16, 16)))
    valid = rng.random((16, 16)) > 0.3
    if not valid.any():
        return
    lo, hi = sorted((t1, t2))
    assert erroneous_percentage(err, valid, hi) <= erroneous_percentage(err, valid, lo)


def test_metrics_ignore_invalid_pixels():
    err_a = np.zeros((8, 8))
    err_b = err_a.copy()
    valid = np.zeros((8, 8), dtype=bool)
    valid[2:6, 2:6] = True
    err_b[0, 0] = 1e9  # outside the valid set; must not matter
    assert erroneous_percentage(err_a, valid, 1.0) == erroneous_percentage(err_b, valid, 1.0)


def test_report_structure_and_json():
    rng = np.random.default_rng(3)
    w_gt = rng.normal(size=(10, 10, 2))
    valid = np.ones((10, 10), dtype=bool)
    rep = make_report(w_gt, w_gt, valid)
    assert rep.valid_count == 100
    assert rep.mean_error_px == 0.0
    assert set(rep.pct_bad) == {1.0, 3.0, 5.0}
    d = json.loads(rep.to_json())
    assert d["pct_bad"]["tau>1"] == 0.0


def test_depth_from_correspondence_rectified():
    # Depth is reported along the camera-0 ray; multiplying by the ray's z
    # component recovers the rectified plane depth z = f*b/d = 1 m.
    rig = pinhole_rig(width=100, height=100, f=300.0, baseline=0.1)
    corr = np.zeros((100, 100, 2))
    corr[:, :, 0] = -30.0
    valid = np.ones((100, 100), dtype=bool)
    depth, ok = depth_from_correspondence(rig, corr, valid)
    assert ok.sum() > 5000
    from fisheyestereo.rasters import pixel_grid
    rays, _ = rig.cam0.unproject(pixel_grid(100, 100))
    z = depth * rays[..., 2]
    assert np.allclose(z[ok], 1.0, atol=1e-6)


def test_depth_error_one_pixel_disparity_offset():
    # Oracle: rectified formula, error = f*b/d - f*b/(d+1) for d = 30 px.
    rig = pinhole_rig(width=100, height=100, f=300.0, baseline=0.1)
    valid = np.ones((100, 100), dtype=bool)
    corr_gt = np.zeros((100, 100, 2))
    corr_gt[:, :, 0] = -30.0
    corr_est = np.zeros((100, 100, 2))
    corr_est[:, :, 0] = -31.0
    d_gt, ok_gt = depth_from_correspondence(rig, corr_gt, valid)
    d_est, ok_est = depth_from_correspondence(rig, corr_est, valid)
    sel = ok_gt & ok_est
    err = depth_error_map(d_est, d_gt, sel)
    from fisheyestereo.rasters import pixel_grid
    rays, _ = rig.cam0.unproject(pixel_grid(100, 100))
    expected = 300.0 * 0.1 / 30.0 - 300.0 * 0.1 / 31.0  # in plane-depth terms
    assert np.allclose((err * rays[..., 2])[sel], expected, atol=1e-6)


def test_zero_disparity_depth_invalid():
    rig = pinhole_rig(width=64, height=64, f=300.0, baseline=0.1)
    corr = np.zeros((64, 64, 2))
    depth, ok = depth_from_correspondence(rig, corr, np.ones((64, 64), bool))
    assert not ok.any()
    assert np.all(depth == 0.0)


def test_depth_error_ramp_breakpoint_colors():
    # Each documented bin edge maps to exactly its bin's color.
    probes = np.array([[0.0, 0.19, 0.75, 3.0, 24.0, 48.0, 1e6]])
    valid = np.ones_like(probes, dtype=bool)
    img = colorize_depth_error(probes, valid)
    expected = list(DEPTH_ERROR_COLORS) + [DEPTH_ERROR_COLORS[-1]]
    for i, color in enumerate(expected[:-1]):
        assert tuple(img[0, i]) == color
    assert tuple(img[0, 6]) == DEPTH_ERROR_COLORS[-1]
    assert len(DEPTH_ERROR_BREAKS) == len(DEPTH_ERROR_COLORS) + 1


def test_colorize_handles_invalid_black():
    vals = np.array([[0.0, 1.0]])
    valid = np.array([[True, False]])
    img = colorize(vals, valid)
    assert tuple(img[0, 1]) == (0, 0, 0)
