"""Raster file I/O: PFM for float fields, PGM/PNG for 8-bit images.

PFM convention: binary `Pf` (1 channel) / `PF` (3 channels), rows stored
bottom-up, negative scale header marks little-endian data. Vector fields
travel as 3-channel PFM (vx, vy, third channel zero or a validity flag).
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

import numpy as np


def _header_int(path, fmt: str, part: str, token: bytes) -> int:
    """Header field `part` of a `fmt` file, a non-negative decimal integer."""
    if not token:
        raise ValueError(f"{path}: {fmt} header has no {part}")
    if not token.isdigit():
        raise ValueError(f"{path}: {fmt} {part} {token!r} is not an integer")
    return int(token)


def write_pfm(path, data: np.ndarray) -> None:
    """Write a (H, W) or (H, W, 3) float array as little-endian PFM."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 2:
        tag = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        tag = b"PF"
    else:
        raise ValueError(f"PFM supports (H,W) or (H,W,3) arrays, got {data.shape}")
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(tag + b"\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")
        f.write(np.flipud(data).astype("<f4").tobytes())


def read_pfm(path, channels: int | None = None) -> np.ndarray:
    """Read a PFM file into float32 (H, W) or (H, W, 3).

    A file that is not a PFM, does not hold `channels` channels (when
    given), or holds fewer data bytes than its header claims raises
    ValueError.
    """
    with open(path, "rb") as f:
        tag = f.readline().strip()
        found = {b"Pf": 1, b"PF": 3}.get(tag)
        if found is None:
            raise ValueError(f"{path}: not a PFM file (header {tag!r})")
        if channels not in (None, found):
            raise ValueError(f"{path}: expected {channels}-channel PFM, got {found}")
        dims = f.readline().split()
        if len(dims) != 2:
            raise ValueError(f"{path}: bad PFM dimensions line {b' '.join(dims)!r}")
        w, h = (_header_int(path, "PFM", part, token)
                for part, token in zip(("width", "height"), dims))
        line = f.readline().strip()
        if not line:
            raise ValueError(f"{path}: PFM header has no scale")
        try:
            scale = float(line)
        except ValueError:
            raise ValueError(f"{path}: PFM scale {line!r} is not a number") from None
        endian = "<" if scale < 0 else ">"
        buf = f.read()  # what the file holds: its header may claim far more
    if len(buf) < w * h * found * 4:
        raise ValueError(f"{path}: {len(buf)} data bytes for a {w}x{h}x{found} PFM")
    data = np.frombuffer(buf, dtype=f"{endian}f4", count=w * h * found).reshape(h, w, found)
    data = np.flipud(data).astype(np.float32)
    with np.errstate(invalid="ignore"):  # quiet the signaling NaNs a damaged file may hold
        data[np.isnan(data)] = np.nan
    return data[:, :, 0] if found == 1 else data


def write_vector_pfm(path, field: np.ndarray, third: np.ndarray | None = None) -> None:
    """Write a (H, W, 2) vector field as 3-channel PFM.

    `third` fills the last channel (e.g. a validity flag); defaults to zero.
    """
    field = np.asarray(field)
    h, w = field.shape[:2]
    out = np.zeros((h, w, 3), dtype=np.float32)
    out[:, :, :2] = field
    if third is not None:
        out[:, :, 2] = np.asarray(third, dtype=np.float32)
    write_pfm(path, out)


def read_vector_pfm(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a 3-channel PFM back as ((H, W, 2) field, (H, W) third channel)."""
    data = read_pfm(path, channels=3)
    return data[:, :, :2].astype(np.float64), data[:, :, 2].astype(np.float64)


def write_pgm(path, image: np.ndarray) -> None:
    """Write intensities in [0, 1] as binary 8-bit PGM."""
    image = np.asarray(image, dtype=np.float64)
    q = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(q.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit PGM, normalized to intensities in [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    # Header: magic, width, height, maxval, one whitespace byte; comments
    # allowed between tokens.
    values, pos = [], 2
    for part in ("width", "height", "maxval"):
        while pos < len(raw) and (raw[pos : pos + 1].isspace() or raw[pos : pos + 1] == b"#"):
            if raw[pos : pos + 1] == b"#":
                end = raw.find(b"\n", pos)
                pos = len(raw) if end < 0 else end
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        values.append(_header_int(path, "PGM", part, raw[start:pos]))
    if pos >= len(raw):
        raise ValueError(f"{path}: PGM header has no whitespace after maxval")
    pos += 1
    w, h, maxval = values
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if len(raw) - pos < w * h:
        raise ValueError(f"{path}: {len(raw) - pos} pixel bytes for a {w}x{h} PGM")
    q = np.frombuffer(raw[pos : pos + w * h], dtype=np.uint8).reshape(h, w)
    return q.astype(np.float64) / maxval


def write_png(path, image: np.ndarray) -> None:
    """Write an 8-bit grayscale (H, W) or RGB (H, W, 3) uint8 PNG."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError("write_png expects uint8 data")
    if image.ndim == 2:
        color_type, planes = 0, 1
    elif image.ndim == 3 and image.shape[2] == 3:
        color_type, planes = 2, 3
    else:
        raise ValueError(f"write_png expects (H,W) or (H,W,3), got {image.shape}")
    h, w = image.shape[:2]

    def chunk(kind: bytes, payload: bytes) -> bytes:
        body = kind + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    rows = image.reshape(h, w * planes)
    scanlines = b"".join(b"\x00" + rows[i].tobytes() for i in range(h))
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", ihdr))
        f.write(chunk(b"IDAT", zlib.compress(scanlines, 9)))
        f.write(chunk(b"IEND", b""))


def read_png(path) -> np.ndarray:
    """Read a non-interlaced 8-bit grayscale/RGB/RGBA PNG.

    Grayscale returns intensities in [0, 1]; color returns uint8 (H, W, 3)
    converted from RGBA by dropping alpha. Color inputs destined for the
    stereo pipeline go through :func:`to_luminance`.
    """
    raw = Path(path).read_bytes()
    if raw[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError(f"{path}: not a PNG")
    pos, idat, meta = 8, b"", None
    while pos < len(raw):
        if pos + 8 > len(raw):
            raise ValueError(f"{path}: truncated PNG chunk header")
        (length,) = struct.unpack(">I", raw[pos : pos + 4])
        kind = raw[pos + 4 : pos + 8]
        payload = raw[pos + 8 : pos + 8 + length]
        if kind == b"IHDR":
            if len(payload) != 13:
                raise ValueError(f"{path}: IHDR holds {len(payload)} bytes, not 13")
            meta = struct.unpack(">IIBBBBB", payload)
        elif kind == b"IDAT":
            idat += payload
        elif kind == b"IEND":
            break
        pos += 12 + length
    if meta is None:
        raise ValueError(f"{path}: no IHDR chunk")
    w, h, depth, color_type, _, _, interlace = meta
    if depth != 8 or interlace != 0:
        raise ValueError(f"{path}: only non-interlaced 8-bit PNG supported")
    planes = {0: 1, 2: 3, 6: 4}.get(color_type)
    if planes is None:
        raise ValueError(f"{path}: unsupported color type {color_type}")
    stride = w * planes
    expected = h * (stride + 1)
    # Inflate at most one byte past the size IHDR implies (capped to a size
    # zlib accepts): a small IDAT can inflate to a thousand times its size.
    inflate = zlib.decompressobj()
    try:
        scanlines = inflate.decompress(idat, min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"{path}: bad IDAT data ({exc})") from None
    if len(scanlines) != expected or not inflate.eof:
        raise ValueError(f"{path}: IDAT does not inflate to the {expected} bytes IHDR implies")
    flat = np.frombuffer(scanlines, dtype=np.uint8).reshape(h, stride + 1)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for i in range(h):
        ftype, line = flat[i, 0], flat[i, 1:].astype(np.int32)
        if ftype == 0:
            rec = line
        elif ftype == 2:  # up
            rec = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # sub / average / paeth need sequential pixels
            rec = _defilter_row(ftype, line, prev, planes)
        else:
            raise ValueError(f"{path}: bad filter {ftype}")
        out[i] = rec.astype(np.uint8)
        prev = out[i].astype(np.int32)
    img = out.reshape(h, w, planes)
    if planes == 1:
        return img[:, :, 0].astype(np.float64) / 255.0
    return img[:, :, :3].copy()


def _defilter_row(ftype: int, line, prev, planes: int):
    """Undo the sub (1), average (3) or Paeth (4) filter of one scanline of
    `planes` bytes a pixel, given the row above as reconstructed, `prev`.

    Sub adds up each plane, one cumulative sum mod 256. Average and Paeth
    predict each byte from the one just reconstructed, so they loop; over
    Python ints, which cost less per byte than NumPy scalars.
    """
    if ftype == 1:
        return np.cumsum(line.reshape(-1, planes), axis=0).reshape(-1) & 0xFF
    rec, up = line.tolist(), prev.tolist()
    # The first pixel has no left neighbour: a = c = 0.
    for j in range(min(planes, len(rec))):
        rec[j] = (rec[j] + (up[j] >> 1 if ftype == 3 else up[j])) & 0xFF
    if ftype == 3:
        for j in range(planes, len(rec)):
            rec[j] = (rec[j] + ((rec[j - planes] + up[j]) >> 1)) & 0xFF
    else:
        for j in range(planes, len(rec)):
            a, b, c = rec[j - planes], up[j], up[j - planes]
            pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
            rec[j] = (rec[j] + (a if pa <= pb and pa <= pc else b if pb <= pc else c)) & 0xFF
    return np.array(rec)


def to_luminance(image: np.ndarray) -> np.ndarray:
    """Collapse uint8 RGB to [0, 1] luminance (Rec. 601 weights)."""
    rgb = image.astype(np.float64) / 255.0
    return 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]


def load_image(path) -> np.ndarray:
    """Load a PGM or PNG image as a [0, 1] single-channel float array."""
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        return read_pgm(path)
    if path.suffix.lower() == ".png":
        img = read_png(path)
        return img if img.ndim == 2 else to_luminance(img)
    raise ValueError(f"{path}: unsupported image format (use .pgm or .png)")
