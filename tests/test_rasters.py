import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo import kernels
from fisheyestereo.rasters import (backward_divergence, build_pyramid, divergence,
                                   downsample_area, edge_indicators,
                                   forward_difference, gradient, pixel_grid,
                                   pyramid_shapes, sample_bicubic, smooth_masked,
                                   upsample_state, warp_image)

FULL = np.ones((16, 16), dtype=bool)


def test_sample_constant_field():
    field = np.full((16, 16), 0.7)
    pos = np.array([[3.2, 5.7], [0.0, 0.0], [14.9, 14.9]])
    vals, ok = sample_bicubic(field, pos, FULL)
    assert ok.all()
    assert np.allclose(vals, 0.7, atol=1e-12)


def test_sample_exact_at_nodes():
    rng = np.random.default_rng(0)
    field = rng.normal(size=(16, 16))
    pos = np.array([[7.0, 9.0], [0.0, 0.0], [15.0, 15.0]])
    vals, ok = sample_bicubic(field, pos, FULL)
    assert ok.all()
    assert np.allclose(vals, [field[9, 7], field[0, 0], field[15, 15]], atol=0)


def test_sample_affine_ramp_interior():
    # Oracle: direct affine evaluation. Catmull-Rom reproduces affine exactly.
    g = pixel_grid(32, 32)
    field = 2.0 * g[:, :, 0] + 3.0 * g[:, :, 1]
    mask = np.ones((32, 32), dtype=bool)
    vals, ok = sample_bicubic(field, np.array([10.5, 4.25]), mask)
    assert bool(ok)
    assert abs(float(vals) - (2.0 * 10.5 + 3.0 * 4.25)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5),
       x=st.floats(2.0, 28.9), y=st.floats(2.0, 28.9))
def test_sample_reproduces_affine(a, b, c, x, y):
    g = pixel_grid(32, 32)
    field = a * g[:, :, 0] + b * g[:, :, 1] + c
    vals, ok = sample_bicubic(field, np.array([x, y]), np.ones((32, 32), bool))
    assert bool(ok)
    assert abs(float(vals) - (a * x + b * y + c)) < 1e-9 * max(1.0, abs(a) + abs(b) + abs(c))


def test_sample_all_taps_invalid_returns_nan():
    field = np.ones((16, 16))
    mask = np.zeros((16, 16), dtype=bool)
    vals, ok = sample_bicubic(field, np.array([8.0, 8.0]), mask)
    assert not bool(ok)
    assert np.isnan(vals)


def test_sample_out_of_bounds_invalid():
    field = np.ones((16, 16))
    vals, ok = sample_bicubic(field, np.array([40.0, 2.0]), FULL)
    assert not bool(ok)


def test_sample_partial_mask_falls_back():
    # One valid pixel inside the stencil: nearest-tap fallback, no zero bleed.
    field = np.zeros((16, 16))
    field[8, 8] = 4.0
    mask = np.zeros((16, 16), dtype=bool)
    mask[8, 8] = True
    vals, ok = sample_bicubic(field, np.array([8.3, 7.9]), mask)
    assert bool(ok)
    assert vals == 4.0


def test_sample_vector_field():
    g = pixel_grid(16, 16)
    vals, ok = sample_bicubic(g, np.array([5.5, 3.25]), FULL)
    assert bool(ok)
    assert np.allclose(vals, [5.5, 3.25], atol=1e-9)


def _catmull_rom(f):
    f2 = f * f
    f3 = f2 * f
    return (-0.5 * f + f2 - 0.5 * f3, 1.0 - 2.5 * f2 + 1.5 * f3,
            0.5 * f + 2.0 * f2 - 1.5 * f3, -0.5 * f2 + 0.5 * f3)


def _reference_sample(data, mask, x, y):
    """The documented fallback chain at one position, one tap at a time.

    `data` is (H, W, C). Returns (list of C values, valid). Taps are visited
    row by row (dy, then dx, each over -1..2), the order of the sampler's
    sums, so results must match it exactly.
    """
    h, w, nc = data.shape
    if not (math.isfinite(x) and math.isfinite(y)):
        return [math.nan] * nc, False
    ix, iy = math.floor(x), math.floor(y)
    fx, fy = x - ix, y - iy
    taps = [(dy, dx) for dy in (-1, 0, 1, 2) for dx in (-1, 0, 1, 2)]
    ok = {(dy, dx): 0 <= iy + dy < h and 0 <= ix + dx < w and bool(mask[iy + dy, ix + dx])
          for dy, dx in taps}
    if not any(ok.values()):
        return [math.nan] * nc, False
    out = []
    for k in range(nc):
        def v(dy, dx):
            return float(data[iy + dy, ix + dx, k])
        if all(ok.values()):
            wx, wy = _catmull_rom(fx), _catmull_rom(fy)
            acc = 0.0
            for dy, dx in taps:
                acc += (wy[dy + 1] * wx[dx + 1]) * v(dy, dx)
            out.append(acc)
            continue
        acc = wsum = 0.0
        for dy, dx in taps:
            if dy in (0, 1) and dx in (0, 1) and ok[dy, dx]:
                bw = (fy if dy == 1 else 1.0 - fy) * (fx if dx == 1 else 1.0 - fx)
                acc += bw * v(dy, dx)
                wsum += bw
        if wsum > 1e-12:
            out.append(acc / wsum)
            continue
        best, best_d2 = None, math.inf
        for dy, dx in taps:
            d2 = (dx - fx) * (dx - fx) + (dy - fy) * (dy - fy)
            if ok[dy, dx] and d2 < best_d2:
                best, best_d2 = v(dy, dx), d2
        out.append(best)
    return out, True


@st.composite
def _sampling_cases(draw):
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    nc = draw(st.sampled_from([1, 2]))
    # Distinct values everywhere, so that reading a wrong tap shows.
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(h, w, nc))
    # Mostly-valid masks, so that full 16-tap stencils occur as well as rims.
    mask = np.ones(h * w, dtype=bool)
    holes = draw(st.sampled_from([0, 2, h * w // 2]))
    mask[draw(st.lists(st.integers(0, h * w - 1), max_size=holes))] = False
    # Floors -2 and W (or H) still reach one image row or column; -3 and
    # W + 1 reach none. Fractions 0 and near 1 probe the floor itself.
    frac = st.sampled_from([0.0, 0.25, 0.5, 0.999999]) | st.floats(0, 1, exclude_max=True)

    def coord(n):
        edge = st.sampled_from([-3, -2, -1, 0, n - 1, n, n + 1])
        floor = edge | st.integers(-3, n + 1)
        return (st.builds(lambda f, d: f + d, floor, frac)
                | st.sampled_from([math.nan, math.inf, -math.inf, 1e300]))

    inside = st.tuples(st.floats(0.0, w), st.floats(0.0, h))
    pos = draw(st.lists(st.tuples(coord(w), coord(h)) | inside, min_size=1, max_size=16))
    return data, mask.reshape(h, w), np.array(pos)


@settings(max_examples=300, deadline=None)
@given(case=_sampling_cases())
def test_sample_matches_reference_chain(case):
    data, mask, pos = case
    field = data[:, :, 0] if data.shape[2] == 1 else data
    vals, ok = sample_bicubic(field, pos, mask)
    ref = [_reference_sample(data, mask, x, y) for x, y in pos]
    ref_vals = np.array([r[0] for r in ref]).reshape(vals.shape)
    assert np.array_equal(ok, [r[1] for r in ref])
    assert np.array_equal(vals, ref_vals, equal_nan=True)


@pytest.mark.parametrize("h,w", [(1, 1), (3, 4), (4, 4), (5, 7), (7, 5)])
def test_sample_every_floor_matches_reference_chain(h, w):
    # Every floor from -3 to W + 1 (H + 1), so the full stencils nearest the
    # edges (floors 1 and W - 3) and the clamped non-full ones all occur.
    rng = np.random.default_rng(h * w)
    data = rng.normal(size=(h, w, 2))
    mask = np.ones((h, w), dtype=bool)
    if h * w >= 20:  # one hole, so that rims occur inside the larger images too
        mask[rng.integers(h), rng.integers(w)] = False
    pos = pixel_grid(h + 5, w + 5).reshape(-1, 2) - 3.0 + (0.5, 0.25)
    vals, ok = sample_bicubic(data, pos, mask)
    ref = [_reference_sample(data, mask, x, y) for x, y in pos]
    assert np.array_equal(ok, [r[1] for r in ref])
    assert np.array_equal(vals, np.array([r[0] for r in ref]), equal_nan=True)


@pytest.mark.parametrize("h", range(1, 10))
def test_stencil_tap_counts_match_brute_force(h):
    for w in range(1, 10):
        mask = np.random.default_rng(10 * h + w).random((h, w)) < 0.7
        counts = kernels._stencil_tap_counts(mask)
        assert counts.dtype == np.uint8 and counts.shape == (h + 5, w + 5)
        for iy in range(-3, h + 2):
            for ix in range(-3, w + 2):
                taps = sum(bool(mask[r, c]) for r in range(iy - 1, iy + 3)
                           for c in range(ix - 1, ix + 3) if 0 <= r < h and 0 <= c < w)
                assert counts[iy + 3, ix + 3] == taps, (w, ix, iy)


def test_sample_floor_minus_two_reaches_column_zero():
    # The stencil of floor -2 spans columns -3..0: column 0 is a valid tap.
    field = np.arange(12.0).reshape(3, 4)
    mask = np.zeros((3, 4), dtype=bool)
    mask[1, 0] = True
    vals, ok = sample_bicubic(field, np.array([[-1.5, 1.0], [-2.5, 1.0]]), mask)
    assert ok.tolist() == [True, False]
    assert vals[0] == field[1, 0] and np.isnan(vals[1])


def test_gradient_constant_is_zero():
    assert np.all(gradient(np.full((12, 12), 3.3), np.ones((12, 12), bool)) == 0.0)


def test_gradient_ramp_forward_difference():
    g = pixel_grid(8, 8)
    mask = np.ones((8, 8), dtype=bool)
    gx = gradient(g[:, :, 0], mask)
    assert np.all(gx[:, :-1, 0] == 1.0)
    assert np.all(gx[:, -1, 0] == 0.0)  # Neumann at the right border
    assert np.all(gx[:, :, 1] == 0.0)


def test_gradient_neumann_at_mask_boundary():
    g = pixel_grid(8, 8)
    mask = np.ones((8, 8), dtype=bool)
    mask[:, 5:] = False
    gx = gradient(g[:, :, 0], mask)
    assert np.all(gx[:, 4, 0] == 0.0)  # neighbor outside the mask


def test_divergence_zero_field():
    assert np.all(divergence(np.zeros((9, 9, 2)), np.ones((9, 9), bool)) == 0.0)


def test_divergence_constant_field_borders():
    # Backward-difference evaluation: +1 enters at the left column, -1 at the
    # right (no outgoing edge there), zero in the interior.
    p = np.zeros((6, 8, 2))
    p[:, :, 0] = 1.0
    mask = np.ones((6, 8), dtype=bool)
    d = divergence(p, mask)
    assert np.all(d[:, 0] == 1.0)
    assert np.all(d[:, -1] == -1.0)
    assert np.all(d[:, 1:-1] == 0.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), h=st.integers(1, 13), w=st.integers(1, 13))
def test_gradient_divergence_adjoint(seed, h, w):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(h, w))
    p = rng.normal(size=(h, w, 2))
    mask = rng.random((h, w)) > 0.3
    lhs = float(np.sum(gradient(u, mask) * p))
    rhs = -float(np.sum(u * divergence(p, mask)))
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), lead=st.lists(st.integers(1, 3), max_size=2),
       h=st.integers(1, 13), w=st.integers(1, 13))
def test_kernels_on_stacks_match_per_channel_calls(seed, lead, h, w):
    # Leading axes are independent channels: a stacked call equals the
    # per-channel calls bit for bit, and stays the negative adjoint.
    rng = np.random.default_rng(seed)
    ex, ey = edge_indicators(rng.random((h, w)) > 0.3)
    f = rng.normal(size=tuple(lead) + (h, w))
    p = rng.normal(size=tuple(lead) + (2, h, w))
    g = forward_difference(f, ex, ey)
    d = backward_divergence(p, ex, ey)
    assert g.shape == p.shape and d.shape == f.shape
    for idx in np.ndindex(*lead):
        assert np.array_equal(g[idx], forward_difference(f[idx], ex, ey))
        assert np.array_equal(d[idx], backward_divergence(p[idx], ex, ey))
    lhs = float(np.sum(g * p))
    rhs = -float(np.sum(f * d))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_pyramid_shapes_reference_chain():
    shapes = pyramid_shapes(800, 800, levels=5, min_width=50)
    assert [w for _, w in shapes] == [800, 400, 200, 100, 50]


def test_pyramid_truncates_below_min_width():
    shapes = pyramid_shapes(120, 120, levels=5, min_width=50)
    assert [w for _, w in shapes] == [120, 60]


def test_pyramid_single_level_is_input():
    rng = np.random.default_rng(3)
    img = rng.random((40, 40))
    pyr = build_pyramid(img[..., None], np.ones((40, 40), bool), levels=1, min_width=50)
    assert len(pyr) == 1
    assert np.array_equal(pyr[0][0], img[..., None])


@pytest.mark.parametrize("levels,min_width", [
    pytest.param(0, 8, id="levels-0"),
    pytest.param(2.5, 8, id="levels-2.5"),
    pytest.param(float("nan"), 8, id="levels-nan"),
    pytest.param(3, 0, id="min_width-0"),
    pytest.param(3, float("nan"), id="min_width-nan"),
    pytest.param(3, 2.5, id="min_width-2.5"),
])
def test_pyramid_rejects_bad_parameters(levels, min_width):
    with pytest.raises(ValueError, match="^(levels|min_width) must be "):
        pyramid_shapes(64, 64, levels=levels, min_width=min_width)


@pytest.mark.parametrize("height,width", [(64, 64), (1, 64), (64, 1), (7, 5), (3, 3)])
def test_pyramid_stops_when_a_level_no_longer_shrinks(height, width):
    # With min_width 1 the chain halves down to 1x1, which halves to itself.
    shapes = pyramid_shapes(height, width, levels=40, min_width=1)
    assert len(set(shapes)) == len(shapes)
    assert shapes[-1] == (1, 1)


def _float_ratio_chain(height, width, min_width):
    """Level shapes as a float ratio of 2.0 computes them: ceil(n / 2.0),
    stopping before a width below `min_width` or a shape that no longer
    shrinks."""
    shapes = [(height, width)]
    while True:
        nh, nw = (int(np.ceil(n / 2.0)) for n in shapes[-1])
        if nw < min_width or (nh, nw) == shapes[-1]:
            return shapes
        shapes.append((nh, nw))


def test_pyramid_shapes_match_the_float_ratio_chain():
    # Integer halving, (n + 1) // 2, gives the float chain's shapes for every
    # height and width in 1..4096, paired equal and reversed so that the two
    # chains reach 1 at different levels.
    for n in range(1, 4097):
        for h, w in [(n, n), (n, 4097 - n), (4097 - n, n)]:
            assert pyramid_shapes(h, w, levels=14, min_width=1) == _float_ratio_chain(h, w, 1)


def test_pyramid_levels_ordered_coarse_to_fine():
    img = np.random.default_rng(4).random((64, 64))
    pyr = build_pyramid(img[..., None], np.ones((64, 64), bool), levels=3, min_width=8)
    widths = [m.shape[1] for _, m in pyr]
    assert widths == [16, 32, 64]


def test_downsample_skips_masked_pixels():
    img = np.ones((4, 4))
    img[0, 1] = 999.0  # masked out; must not leak into the average
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 1] = False
    coarse, cmask = downsample_area(img[..., None], mask, (2, 2))
    assert bool(cmask[0, 0])
    assert coarse[0, 0, 0] == 1.0
    assert cmask.dtype == bool


def test_downsample_mask_is_nearest_neighbor():
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4, :] = True
    _, cmask = downsample_area(np.ones((8, 8, 1)), mask, (4, 4))
    assert np.array_equal(cmask, np.vstack([np.ones((2, 4), bool),
                                            np.zeros((2, 4), bool)]))


def test_upsample_state_zero_stays_zero():
    u = np.zeros((10, 10))
    w = np.zeros((10, 10, 2))
    mask = np.ones((10, 10), dtype=bool)
    u2, w2 = upsample_state(u, w, mask, np.ones((20, 20), bool))
    assert np.all(u2 == 0.0) and np.all(w2 == 0.0)


def test_upsample_state_rescales_units():
    mask = np.ones((50, 50), dtype=bool)
    dst = np.ones((100, 100), dtype=bool)
    u = np.full((50, 50), 3.0)
    w = np.zeros((50, 50, 2))
    w[:, :, 0] = 0.5
    u2, w2 = upsample_state(u, w, mask, dst)
    interior = (slice(10, 90), slice(10, 90))
    assert np.allclose(u2[interior], 6.0, atol=1e-9)
    assert np.allclose(w2[interior][..., 0], 1.0, atol=1e-9)
    assert np.allclose(w2[interior][..., 1], 0.0, atol=1e-12)


def test_upsample_state_non_square_keeps_arc_length():
    # Along a straight trajectory |w| equals u. The axes scale differently
    # (59x81 -> 117x161), and u must follow the length of the scaled w.
    rng = np.random.default_rng(11)
    mask = np.ones((59, 81), dtype=bool)
    u = 3.0 + smooth_masked(rng.random((59, 81)), mask, 3.0)
    w = u[..., None] * np.array([0.6, 0.8])
    u_f, w_f = upsample_state(u, w, mask, np.ones((117, 161), dtype=bool))
    full = (slice(4, -4), slice(4, -4))  # pixels whose whole stencil is in the image
    assert np.max(np.abs(np.linalg.norm(w_f, axis=-1) - u_f)[full]) <= 1e-12


def test_pixel_grid_is_shared_and_read_only():
    g = pixel_grid(5, 7)
    assert g is pixel_grid(5, 7) and g.shape == (5, 7, 2)
    with pytest.raises(ValueError):
        g[0, 0, 0] = 1.0


def test_warp_image_grid_follows_offset_field():
    # An image sampled on the grid of an offset field of another shape, as a
    # camera-1 image is sampled on the camera-0 grid.
    img = 2.0 * pixel_grid(20, 30)[:, :, 0]
    out, ok = warp_image(img, np.ones((10, 12, 2)), np.ones((20, 30), dtype=bool))
    assert out.shape == ok.shape == (10, 12) and ok.all()
    assert np.allclose(out, 2.0 * (pixel_grid(10, 12)[:, :, 0] + 1.0), atol=1e-9)


def test_operations_are_pure():
    rng = np.random.default_rng(5)
    field = rng.random((20, 20))
    mask = np.linalg.norm(pixel_grid(20, 20) - 9.5, axis=-1) <= 8.0
    pos = rng.random((7, 2)) * 19
    a1, _ = sample_bicubic(field, pos, mask)
    a2, _ = sample_bicubic(field, pos, mask)
    assert np.array_equal(a1, a2, equal_nan=True)
    assert np.array_equal(gradient(field, mask), gradient(field, mask))


def test_smooth_masked_constant_preserved():
    mask = np.linalg.norm(pixel_grid(24, 24) - 11.5, axis=-1) <= 9.0
    out = smooth_masked(np.full((24, 24), 0.4), mask, sigma=1.5)
    assert np.allclose(out[mask], 0.4, atol=1e-9)
    assert np.all(out[~mask] == 0.0)
