"""Phase image files, mask files, and visualization emitters.

The phase container is deliberately minimal: an ASCII header line
``S1PHASE <rows> <cols>`` followed by the row-major float64
little-endian payload.  Masks are binary PGM with 0 marking unknown and
255 marking known pixels.
"""

from __future__ import annotations

import os

import numpy as np

from .circle import TWO_PI, _check_image, check_phase_image, check_phase_values

_MAGIC = b"S1PHASE"
_WS = b" \t\r\n"


class FormatError(ValueError):
    """A file violates the phase or mask container format."""


def _check_path(path):
    """``path``; ``ValueError`` unless a non-empty str, bytes or PathLike (not an fd)."""
    if not isinstance(path, (str, bytes, os.PathLike)) or not os.fspath(path):
        raise ValueError(f"path must be a non-empty str, bytes or os.PathLike, got {path!r}")
    return path


def write_bytes_atomic(path, *blobs) -> None:
    """Write ``blobs``, bytes or C-contiguous buffers, one after the other to ``path`` via a
    temp file and ``os.replace``, mode 0o666 & ~umask."""
    directory = os.path.dirname(os.path.abspath(_check_path(path)))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for blob in blobs:
                handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_phase(path, x) -> None:
    """Write a phase image checked by ``check_phase_image``; a bad value raises ``FormatError``."""
    x = check_phase_image(x, "x", error=FormatError)
    header = b"%s %d %d\n" % (_MAGIC, x.shape[0], x.shape[1])
    # The array's own buffer, copied only if it is not C-ordered <f8.
    write_bytes_atomic(path, header, np.ascontiguousarray(x, dtype="<f8"))


def read_phase(path) -> np.ndarray:
    with open(_check_path(path), "rb") as handle:
        data = handle.read()
    end = data.find(b"\n")
    if end < 0:
        raise FormatError("malformed header: no newline in file")
    parts = data[:end].split(b" ")
    if len(parts) != 3 or parts[0] != _MAGIC or not all(p.isdigit() for p in parts[1:]):
        raise FormatError(
            f"malformed header {data[:end]!r} (bytes 0..{end})"
        )
    rows, cols = int(parts[1]), int(parts[2])
    if rows < 1 or cols < 1:
        raise FormatError(f"invalid dimensions {rows}x{cols} in header")
    expected = rows * cols * 8
    payload = data[end + 1 :]
    if len(payload) != expected:
        raise FormatError(
            f"payload has {len(payload)} bytes, expected {expected}"
            f" (payload starts at offset {end + 1})"
        )
    x = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    check_phase_values(x, "phase", error=FormatError)
    return x


def write_mask(path, known) -> None:
    """Write a mask as binary PGM: 255 where known, 0 where unknown."""
    known = _check_image(known, "known", kinds="b")
    write_bytes_atomic(path, _netpbm(b"P5", np.where(known, 255, 0).astype(np.uint8)))


def _netpbm(magic: bytes, raster: np.ndarray) -> bytes:
    """Binary PGM (``P5``) or PPM (``P6``) of an 8-bit raster whose first
    two axes are rows and columns."""
    return b"%s\n%d %d\n255\n" % (magic, raster.shape[1], raster.shape[0]) + raster.tobytes()


def _pgm_tokens(data: bytes, count: int):
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError(f"mask header ended early at offset {i}")
        b = data[i : i + 1]
        if b in b"# \t\r\n":
            if b == b"#":
                j = data.find(b"\n", i)
                i = len(data) if j < 0 else j
            i += 1
            continue
        j = i
        while j < len(data) and data[j : j + 1] not in _WS:
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def read_mask(path) -> np.ndarray:
    """Read a PGM mask; returns boolean (True = known)."""
    with open(_check_path(path), "rb") as handle:
        data = handle.read()
    tokens, pos = _pgm_tokens(data, 4)
    if tokens[0] != b"P5":
        raise FormatError(f"mask is not binary PGM (magic {tokens[0]!r}, expected P5)")
    for field in tokens[1:]:
        if not field.isdigit():
            raise FormatError(f"PGM header field {field!r} is not a decimal number")
    cols, rows, maxval = map(int, tokens[1:])
    if maxval != 255:
        raise FormatError(f"mask maxval must be 255, found {maxval}")
    if rows < 1 or cols < 1:
        raise FormatError(f"invalid mask dimensions {rows}x{cols}")
    if data[pos : pos + 1] not in (b" ", b"\t", b"\r", b"\n"):
        raise FormatError(f"missing whitespace after maxval at offset {pos}")
    raster = data[pos + 1 :]
    if len(raster) != rows * cols:
        raise FormatError(
            f"mask raster has {len(raster)} bytes, expected {rows * cols}"
            f" (raster starts at offset {pos + 1})"
        )
    values = np.frombuffer(raster, dtype=np.uint8).reshape(rows, cols)
    bad = (values != 0) & (values != 255)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise FormatError(
            f"mask value {values[r, c]} at pixel ({r}, {c}) is neither 0 nor 255"
        )
    return values == 255


def render_gray(x) -> bytes:
    """Binary PGM mapping [-pi, pi) affinely onto gray levels 0..255; ``x``
    as for :func:`write_phase`."""
    x = check_phase_image(x, "x", error=FormatError)
    levels = np.floor((x + np.pi) / TWO_PI * 256.0)
    levels = np.clip(levels, 0, 255).astype(np.uint8)
    return _netpbm(b"P5", levels)


def render_hue(x) -> bytes:
    """Binary PPM coloring phase by the HSV hue wheel (cyclic colormap);
    ``x`` as for :func:`write_phase`."""
    x = check_phase_image(x, "x", error=FormatError)
    h = (x + np.pi) / TWO_PI * 6.0
    sextant = np.minimum(np.floor(h), 5.0).astype(np.intp)
    h -= sextant
    # The rising and falling ramps of a sextant, rounded to 8 bits.
    up = np.floor(h * 255.0 + 0.5).astype(np.uint8)
    down = np.floor((1.0 - h) * 255.0 + 0.5).astype(np.uint8)
    # Sextant layout of (r, g, b) at full saturation and value.
    layout = ((255, down, 0, 0, up, 255), (up, 255, 255, down, 0, 0), (0, 0, up, 255, 255, down))
    raster = np.empty(x.shape + (3,), np.uint8)
    for channel, choices in enumerate(layout):
        np.choose(sextant, choices, out=raster[..., channel])
    return _netpbm(b"P6", raster)
