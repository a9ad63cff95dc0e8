"""Phase image files, mask files, and visualization emitters.

A phase file is an ASCII header line ``S1PHASE <rows> <cols>`` and the
row-major little-endian float64 payload; a mask is binary PGM, 0 marking
unknown and 255 known pixels.  Each is written and read as its header,
then the array's own buffer, which a reader fills straight from the stream.
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


def _payload(handle, shape, dtype, name: str, offset: int) -> np.ndarray:
    """A new ``shape`` array of ``dtype`` filled from the rest of ``handle``; ``FormatError``,
    naming ``name`` and the ``offset`` of its start, unless that is exactly its bytes."""
    expected = shape[0] * shape[1] * np.dtype(dtype).itemsize
    try:
        x = np.empty(shape, dtype)
    except (MemoryError, ValueError):  # larger than any payload that can be read
        x = np.empty(0, dtype)
    size = handle.readinto(x) + len(handle.read())
    if size != expected:
        raise FormatError(f"{name} has {size} bytes, expected {expected}"
                          f" ({name.split()[-1]} starts at offset {offset})")
    return x


def read_phase(path) -> np.ndarray:
    """Read a phase image, a float64 array checked as :func:`write_phase` checks one."""
    with open(_check_path(path), "rb") as handle:
        header = handle.readline()
        end = len(header) - 1
        if not header.endswith(b"\n"):
            raise FormatError("malformed header: no newline in file")
        parts = header[:end].split(b" ")
        if len(parts) != 3 or parts[0] != _MAGIC or not all(p.isdigit() for p in parts[1:]):
            raise FormatError(f"malformed header {header[:end]!r} (bytes 0..{end})")
        rows, cols = int(parts[1]), int(parts[2])
        if rows < 1 or cols < 1:
            raise FormatError(f"invalid dimensions {rows}x{cols} in header")
        x = _payload(handle, (rows, cols), "<f8", "payload", end + 1)
    check_phase_values(x, "phase", error=FormatError)
    return x


def write_mask(path, known) -> None:
    """Write a mask as binary PGM: 255 where known, 0 where unknown."""
    known = _check_image(known, "known", kinds="b")
    write_bytes_atomic(path, *_netpbm(b"P5", known * np.uint8(255)))


def _netpbm(magic: bytes, raster: np.ndarray) -> tuple:
    """The header of a binary PGM (``P5``) or PPM (``P6``) of an 8-bit raster whose
    first two axes are rows and columns, and the raster in C order."""
    header = b"%s\n%d %d\n255\n" % (magic, raster.shape[1], raster.shape[0])
    return header, np.ascontiguousarray(raster)


def _pgm_header(handle):
    """The four fields of the PGM header at the start of ``handle`` (``#`` before a field
    starts a comment to the line's end), the offset past the last and the byte read after it."""
    fields, pos = [], 0
    while len(fields) < 4:
        b = handle.read(1)
        if not b:
            raise FormatError(f"mask header ended early at offset {pos}")
        pos += 1
        if b == b"#":
            pos += len(handle.readline())
        elif b not in _WS:
            field = b
            while (b := handle.read(1)) not in _WS:  # b"" is in _WS: the file ended
                field += b
            fields.append(field)
            end = pos - 1 + len(field)
            pos = end + len(b)
    return fields, end, b


def read_mask(path) -> np.ndarray:
    """Read a PGM mask; returns boolean (True = known)."""
    with open(_check_path(path), "rb") as handle:
        (magic, *fields), end, after = _pgm_header(handle)
        if magic != b"P5":
            raise FormatError(f"mask is not binary PGM (magic {magic!r}, expected P5)")
        for field in fields:
            if not field.isdigit():
                raise FormatError(f"PGM header field {field!r} is not a decimal number")
        cols, rows, maxval = map(int, fields)
        if maxval != 255:
            raise FormatError(f"mask maxval must be 255, found {maxval}")
        if rows < 1 or cols < 1:
            raise FormatError(f"invalid mask dimensions {rows}x{cols}")
        if not after:
            raise FormatError(f"missing whitespace after maxval at offset {end}")
        raster = _payload(handle, (rows, cols), np.uint8, "mask raster", end + 1)
    known = raster == 255
    if np.count_nonzero(raster) != np.count_nonzero(known):
        r, c = np.argwhere((raster != 0) & ~known)[0]
        raise FormatError(f"mask value {raster[r, c]} at pixel ({r}, {c}) is neither 0 nor 255")
    return known


def render_gray(x) -> bytes:
    """Binary PGM mapping [-pi, pi) affinely onto gray levels 0..255; ``x``
    as for :func:`write_phase`."""
    x = check_phase_image(x, "x", error=FormatError)
    levels = np.floor((x + np.pi) / TWO_PI * 256.0)
    levels = np.clip(levels, 0, 255).astype(np.uint8)
    return b"".join(_netpbm(b"P5", levels))


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
    return b"".join(_netpbm(b"P6", raster))
