"""The file readers against the format statement, on drawn files.

Each reader must return the image a well-formed file holds, bit for bit,
and raise ``FormatError`` on any other byte string; never another
exception and never an array from a malformed file.  The format is
restated here as regular expressions, apart from the readers' code.
Every drawn file is read twice, from a file and through a pipe, a stream
that cannot seek, with the same outcome.
"""

import os
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from phasetv import FormatError, read_mask, read_phase, write_mask, write_phase

# A phase file: the header line, then rows * cols little-endian doubles.
_PHASE = re.compile(rb"S1PHASE ([0-9]+) ([0-9]+)\n(.*)", re.S)
# A mask file: four fields split by whitespace, where a field may not start
# with "#" and a "#" before a field starts a comment that ends at a newline,
# then one whitespace byte and the raster.
_SKIP = rb"(?:[ \t\r\n]|#[^\n]*\n)*"
_FIELD = rb"([^ \t\r\n#][^ \t\r\n]*)"
_PGM = re.compile(_SKIP + _FIELD + (rb"[ \t\r\n]" + _SKIP + _FIELD) * 3 + rb"[ \t\r\n](.*)",
                  re.S)

_ANGLES = st.one_of(st.sampled_from([-0.0, 0.0, -np.pi, np.nextafter(np.pi, 0.0)]),
                    st.floats(-np.pi, np.pi, exclude_max=True))
_SHAPES = st.tuples(st.integers(1, 9), st.integers(1, 9))
# Bytes that mean something in a header, and a few that do not.
_HEADER_BYTES = st.binary(max_size=4) | st.lists(
    st.sampled_from(list(b"P5S1HAE #\t\r\n0123456789+-_x\xff")), max_size=4).map(bytes)


def _phase_image(data: bytes):
    """The image of a well-formed phase file, or None."""
    m = _PHASE.fullmatch(data)
    if m is None:
        return None
    rows, cols = int(m[1]), int(m[2])
    if rows < 1 or cols < 1 or len(m[3]) != rows * cols * 8:
        return None
    x = np.frombuffer(m[3], "<f8").reshape(rows, cols)
    return x if np.all((x >= -np.pi) & (x < np.pi)) else None


def _mask_image(data: bytes):
    """The mask of a well-formed PGM mask file, or None."""
    m = _PGM.fullmatch(data)
    if m is None or m[1] != b"P5" or not all(re.fullmatch(rb"[0-9]+", f) for f in m.groups()[1:4]):
        return None
    cols, rows, maxval = int(m[2]), int(m[3]), int(m[4])
    if maxval != 255 or rows < 1 or cols < 1 or len(m[5]) != rows * cols:
        return None
    raster = np.frombuffer(m[5], np.uint8).reshape(rows, cols)
    return raster == 255 if np.all((raster == 0) | (raster == 255)) else None


def _number(n):
    """``n`` in decimal, perhaps with a leading zero."""
    return st.sampled_from([b"%d" % n, b"0%d" % n])


@st.composite
def _phase_files(draw):
    """Phase files, most of them well-formed."""
    rows, cols = draw(_SHAPES)
    x = draw(arrays(np.float64, (rows, cols), elements=_ANGLES | st.floats()))
    header = b"S1PHASE %s %s\n" % (draw(_number(rows)), draw(_number(cols)))
    return header + x.astype("<f8").tobytes()


@st.composite
def _mask_files(draw):
    """Mask files with any whitespace and comments in the header, most of them well-formed."""
    rows, cols = draw(_SHAPES)
    sep = st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"# comment\n", b"#\n"]),
                   min_size=1, max_size=3).map(b"".join).filter(lambda s: s[:1] != b"#")
    maxval = draw(st.sampled_from([255, 255, 255, 254, 1, 65535]))
    fields = [b"P5", draw(_number(cols)), draw(_number(rows)), draw(_number(maxval))]
    header = draw(sep.map(lambda s: s[1:])) + b"".join(f + draw(sep) for f in fields[:3])
    size = rows * cols
    raster = draw(st.lists(st.sampled_from([0, 255]), min_size=size, max_size=size).map(bytes)
                  | st.binary(min_size=size, max_size=size))
    return header + fields[3] + draw(st.sampled_from([b" ", b"\t", b"\r", b"\n"])) + raster


@st.composite
def _malformed(draw, valid):
    """Any bytes, or a valid file truncated, edited in its first bytes, or extended."""
    how = draw(st.sampled_from(["any", "valid", "truncated", "edited", "extended"]))
    if how == "any":
        return draw(st.binary(max_size=200))
    data = draw(valid)
    if how == "truncated":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "edited":
        i = draw(st.integers(0, 24))
        j = draw(st.integers(i, i + 4))
        return data[:i] + draw(_HEADER_BYTES) + data[j:]
    if how == "extended":
        return data + draw(st.binary(min_size=1, max_size=9))
    return data


def _outcome(read, path):
    """What ``read(path)`` gives: ("array", dtype, shape, its bytes) or ("error", message)."""
    try:
        x = read(path)
    except FormatError as err:
        return "error", str(err)
    return "array", x.dtype.str, x.shape, x.tobytes()


def _piped_outcome(read, data: bytes):
    """:func:`_outcome` of ``read`` on ``data`` written to a pipe, read as /dev/fd/N."""
    r, w = os.pipe()
    try:
        with os.fdopen(w, "wb") as sink:  # every drawn file fits in the pipe's buffer
            sink.write(data)
        return _outcome(read, f"/dev/fd/{r}")
    finally:
        os.close(r)


_PIPES = os.path.isdir("/dev/fd")


def _check_reader(read, expected, data: bytes, path):
    path.write_bytes(data)
    got = _outcome(read, path)
    if expected is None:
        assert got[0] == "error", data
    else:
        assert got == ("array", expected.dtype.str, expected.shape, expected.tobytes()), data
    if _PIPES:
        assert _piped_outcome(read, data) == got, data


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """One directory for every example of a test; each example overwrites its file."""
    return tmp_path_factory.mktemp("files")


@settings(max_examples=400, deadline=None)
@given(data=_malformed(_phase_files()))
def test_read_phase_gives_the_file_image_or_a_format_error(folder, data):
    _check_reader(read_phase, _phase_image(data), data, folder / "f.phase")


@settings(max_examples=400, deadline=None)
@given(data=_malformed(_mask_files()))
def test_read_mask_gives_the_file_mask_or_a_format_error(folder, data):
    _check_reader(read_mask, _mask_image(data), data, folder / "m.pgm")


def _laid_out(x, layout):
    """``x``'s values in a C-ordered, Fortran-ordered or strided array."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.empty((x.shape[0], 2 * x.shape[1]), x.dtype)
        wide[:, ::2] = x
        return wide[:, ::2]
    return x


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=_SHAPES, layout=st.sampled_from(["C", "F", "strided"]))
def test_phase_write_then_read_is_the_identity(folder, data, shape, layout):
    x = _laid_out(data.draw(arrays(np.float64, shape, elements=_ANGLES)), layout)
    path = folder / "x.phase"
    write_phase(path, x)
    assert path.read_bytes() == b"S1PHASE %d %d\n" % shape + x.astype("<f8").tobytes()
    y = read_phase(path)
    assert y.dtype == np.float64 and y.shape == shape and y.tobytes() == x.tobytes()
    if _PIPES:
        assert _piped_outcome(read_phase, path.read_bytes())[3] == x.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=_SHAPES, layout=st.sampled_from(["C", "F", "strided"]))
def test_mask_write_then_read_is_the_identity(folder, data, shape, layout):
    known = _laid_out(data.draw(arrays(np.bool_, shape)), layout)
    path = folder / "m.pgm"
    write_mask(path, known)
    assert _mask_image(path.read_bytes()).tobytes() == known.tobytes()
    y = read_mask(path)
    assert y.dtype == np.bool_ and y.shape == shape and y.tobytes() == known.tobytes()
    if _PIPES:
        assert _piped_outcome(read_mask, path.read_bytes())[3] == known.tobytes()
