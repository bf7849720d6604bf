import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisheyestereo import formats


def test_pfm_scalar_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(13, 17)).astype(np.float32)
    path = tmp_path / "field.pfm"
    formats.write_pfm(path, data)
    back = formats.read_pfm(path)
    assert back.shape == (13, 17)
    assert np.array_equal(back, data)


def test_pfm_is_little_endian_with_negative_scale(tmp_path):
    path = tmp_path / "f.pfm"
    formats.write_pfm(path, np.ones((2, 3), dtype=np.float32))
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    assert header == b"Pf"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"3 2"  # width before height
    scale = float(rest.split(b"\n", 1)[0])
    assert scale < 0  # negative scale marks little-endian payload


def test_pfm_rows_bottom_up(tmp_path):
    data = np.arange(6, dtype=np.float32).reshape(3, 2)
    path = tmp_path / "f.pfm"
    formats.write_pfm(path, data)
    raw = path.read_bytes()
    payload = raw.split(b"\n", 3)[3]
    first_stored_row = np.frombuffer(payload[:8], dtype="<f4")
    assert np.array_equal(first_stored_row, data[-1])


def test_vector_pfm_roundtrip_with_validity(tmp_path):
    rng = np.random.default_rng(1)
    field = rng.normal(size=(9, 7, 2))
    valid = rng.random((9, 7)) > 0.4
    path = tmp_path / "v.pfm"
    formats.write_vector_pfm(path, field, third=valid)
    back, third = formats.read_vector_pfm(path)
    assert np.allclose(back, field.astype(np.float32), atol=0)
    assert np.array_equal(third > 0.5, valid)


def test_vector_pfm_zero_third_channel_by_default(tmp_path):
    path = tmp_path / "v.pfm"
    formats.write_vector_pfm(path, np.ones((4, 4, 2)))
    data = formats.read_pfm(path)
    assert np.all(data[:, :, 2] == 0.0)


def test_pgm_roundtrip_and_normalization(tmp_path):
    img = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    path = tmp_path / "img.pgm"
    formats.write_pgm(path, img)
    back = formats.read_pgm(path)
    assert back.min() >= 0.0 and back.max() <= 1.0
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12


def test_pgm_reader_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = formats.read_pgm(path)
    assert img.shape == (2, 3)
    assert np.isclose(img[1, 2], 5 / 255.0)


@pytest.mark.parametrize("shape", [(11, 5), (6, 9, 3)])
def test_png_roundtrip(tmp_path, shape):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    path = tmp_path / "img.png"
    formats.write_png(path, img)
    back = formats.read_png(path)
    if len(shape) == 2:
        assert np.array_equal(np.rint(back * 255).astype(np.uint8), img)
    else:
        assert np.array_equal(back, img)


def test_load_image_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "img.tif"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        formats.load_image(path)


def test_luminance_weights():
    rgb = np.zeros((1, 1, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 0)
    assert np.isclose(formats.to_luminance(rgb)[0, 0], 0.299)



@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per decoder, with the function that reads it."""
    directory = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(9, 7))
    formats.write_pgm(directory / "a.pgm", img)
    formats.write_pfm(directory / "a.pfm", img)
    formats.write_vector_pfm(directory / "v.pfm", rng.normal(size=(9, 7, 2)))
    formats.write_png(directory / "a.png", (img * 255).astype(np.uint8))
    formats.write_png(directory / "c.png", rng.integers(0, 256, (9, 7, 3), dtype=np.uint8))
    return [(directory / "a.pgm", formats.read_pgm), (directory / "a.pfm", formats.read_pfm),
            (directory / "v.pfm", formats.read_vector_pfm),
            (directory / "a.png", formats.read_png), (directory / "c.png", formats.read_png)]


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 4), cut=st.none() | st.floats(0.0, 1.0),
       flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255)), max_size=3))
def test_damaged_file_loads_or_raises_value_error(valid_files, which, cut, flips):
    """A truncated or byte-flipped PGM, PFM or PNG either loads or raises
    ValueError (never zlib.error, struct.error, IndexError, ...)."""
    path, read = valid_files[which]
    raw = bytearray(path.read_bytes())
    for where, value in flips:
        raw[min(int(where * len(raw)), len(raw) - 1)] = value
    if cut is not None:
        raw = raw[: int(cut * len(raw))]
    damaged = path.with_name("damaged" + path.suffix)
    damaged.write_bytes(bytes(raw))
    try:
        read(damaged)
    except ValueError:
        pass


def test_pfm_signaling_nan_loads_as_nan(tmp_path):
    # Bits 0x7f800001 are a float32 signaling NaN; widening one to float64
    # raises "invalid value encountered in cast" unless the reader quiets it.
    path = tmp_path / "snan.pfm"
    path.write_bytes(b"PF\n1 1\n-1.0\n" + np.array([0x7F800001, 0, 0], "<u4").tobytes())
    field, third = formats.read_vector_pfm(path)
    assert np.isnan(field[0, 0, 0]) and field[0, 0, 1] == 0.0 and third[0, 0] == 0.0


def test_pgm_zero_maxval_raises_value_error(tmp_path):
    path = tmp_path / "zero.pgm"
    path.write_bytes(b"P5\n3 2\n0\n" + bytes(6))
    with pytest.raises(ValueError, match="zero.pgm"):
        formats.read_pgm(path)
