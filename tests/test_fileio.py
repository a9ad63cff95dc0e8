import os
import re

import numpy as np
import pytest

from phasetv import (
    FormatError,
    read_mask,
    read_phase,
    render_gray,
    render_hue,
    write_mask,
    write_phase,
)
from phasetv.fileio import write_bytes_atomic


def test_phase_round_trip(tmp_path):
    rng = np.random.default_rng(50)
    path = tmp_path / "img.phase"
    for shape in ((1, 1), (3, 7), (32, 16)):
        x = rng.uniform(-np.pi, np.pi, shape)
        write_phase(path, x)
        assert np.array_equal(read_phase(path), x)


def test_phase_file_layout(tmp_path):
    path = tmp_path / "tiny.phase"
    write_phase(path, np.zeros((1, 1)))
    blob = path.read_bytes()
    assert blob == b"S1PHASE 1 1\n" + bytes(8)
    write_phase(path, np.zeros((257, 257)))
    blob = path.read_bytes()
    header, payload = blob.split(b"\n", 1)
    assert header == b"S1PHASE 257 257"
    assert len(payload) == 528_392


def test_phase_file_is_the_header_and_the_c_order_payload(tmp_path):
    # write_phase writes the array's buffer after the header; the bytes
    # are those of the header joined to tobytes() of the C-ordered <f8
    # array, whatever the layout and dtype of the image.
    rng = np.random.default_rng(52)
    x = rng.uniform(-np.pi, np.pi, (7, 5))
    images = [x, np.asfortranarray(x), x.T, x[::2, ::-1], rng.integers(-3, 4, (4, 6)),
              np.asfortranarray(rng.integers(-3, 4, (6, 4), dtype=np.int16))]
    for i, img in enumerate(images):
        path = tmp_path / f"img{i}.phase"
        write_phase(path, img)
        header = b"S1PHASE %d %d\n" % img.shape
        assert path.read_bytes() == header + np.ascontiguousarray(img, dtype="<f8").tobytes()


def test_read_write_read_is_byte_identical(tmp_path):
    rng = np.random.default_rng(51)
    a, b = tmp_path / "a.phase", tmp_path / "b.phase"
    write_phase(a, rng.uniform(-np.pi, np.pi, (9, 5)))
    write_phase(b, read_phase(a))
    assert a.read_bytes() == b.read_bytes()


def test_phase_write_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.phase"
    x = np.zeros((2, 2))
    x[1, 0] = 3.2
    with pytest.raises((FormatError, ValueError)) as err:
        write_phase(path, x)
    assert "(1, 0)" in str(err.value)
    x[1, 0] = np.nan
    with pytest.raises((FormatError, ValueError)):
        write_phase(path, x)
    with pytest.raises(ValueError):
        write_phase(path, np.zeros(4))


def test_phase_read_errors(tmp_path):
    path = tmp_path / "f.phase"

    path.write_bytes(b"S1PHASE 2 2")
    with pytest.raises(FormatError, match="newline"):
        read_phase(path)

    path.write_bytes(b"S2PHASE 2 2\n" + bytes(32))
    with pytest.raises(FormatError, match="header"):
        read_phase(path)

    path.write_bytes(b"S1PHASE 2 2\n" + bytes(31))
    with pytest.raises(FormatError, match="expected 32"):
        read_phase(path)

    path.write_bytes(b"S1PHASE 0 2\n")
    with pytest.raises(FormatError, match="dimensions"):
        read_phase(path)

    payload = np.array([[0.0, 3.2]]).astype("<f8").tobytes()
    path.write_bytes(b"S1PHASE 1 2\n" + payload)
    with pytest.raises(FormatError, match=r"\(0, 1\)"):
        read_phase(path)


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(52)
    path = tmp_path / "m.pgm"
    known = rng.random((11, 4)) < 0.5
    write_mask(path, known)
    assert np.array_equal(read_mask(path), known)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n4 11\n255\n")


def test_mask_parser_accepts_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 1\n255\n" + bytes([0, 255]))
    known = read_mask(path)
    assert np.array_equal(known, np.array([[False, True]]))


def test_mask_read_errors(tmp_path):
    path = tmp_path / "m.pgm"

    path.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="P5"):
        read_mask(path)

    for maxval in (b"1", b"200", b"65535"):
        path.write_bytes(b"P5\n2 2\n" + maxval + b"\n" + bytes(4))
        with pytest.raises(FormatError, match="maxval"):
            read_mask(path)

    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(FormatError, match="expected 4"):
        read_mask(path)

    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 7]))
    with pytest.raises(FormatError, match=r"\(0, 1\)"):
        read_mask(path)

    path.write_bytes(b"P5\n2")
    with pytest.raises(FormatError, match="ended early"):
        read_mask(path)

    # int() would parse each of these; a field is ASCII digits only, as in
    # read_phase's header, and leading zeros are digits.
    for header in (b"1_0 1 255", b"+2 1 255", b"2 1 2_55", b"2 -1 255", b"2 1 x"):
        path.write_bytes(b"P5\n" + header + b"\n" + bytes(2))
        bad = next(t for t in header.split() if not t.isdigit())
        with pytest.raises(FormatError, match=re.escape(repr(bad))):
            read_mask(path)
    path.write_bytes(b"P5\n0002 01 255\n" + bytes([0, 255]))
    assert read_mask(path).tolist() == [[False, True]]


def test_render_gray_levels():
    pgm = render_gray(np.zeros((2, 3)))
    assert pgm.startswith(b"P5\n3 2\n255\n")
    assert pgm[-6:] == bytes([128] * 6)
    assert render_gray(np.full((1, 1), -np.pi))[-1] == 0
    assert render_gray(np.full((1, 1), np.pi - 1e-12))[-1] == 255
    assert render_gray(np.zeros((1, 1))) == render_gray(np.zeros((1, 1)))


def _hue_by_floats(x):
    """The hue raster as first written: every channel a float image, rounded last."""
    h = (x + np.pi) / (2.0 * np.pi) * 6.0
    sextant = np.minimum(np.floor(h), 5.0)
    t = h - sextant
    q = 1.0 - t
    one, zero = np.ones_like(t), np.zeros_like(t)
    layout = ([one, q, zero, zero, t, one], [t, one, one, q, zero, zero],
              [zero, zero, t, one, one, q])
    rgb = np.stack([np.choose(sextant.astype(int), c) for c in layout], axis=-1)
    return np.floor(rgb * 255.0 + 0.5).astype(np.uint8).tobytes()


def test_render_hue_bytes_match_the_float_formula():
    edges = -np.pi + 2.0 * np.pi * np.arange(7) / 6.0
    edges = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    images = [np.linspace(-np.pi, np.pi, 100_001, endpoint=False).reshape(1, -1),
              edges[(edges >= -np.pi) & (edges < np.pi)].reshape(3, -1),
              np.random.default_rng(57).uniform(-np.pi, np.pi, (256, 256))]
    for x in images:
        ppm = render_hue(x)
        header = b"P6\n%d %d\n255\n" % (x.shape[1], x.shape[0])
        assert ppm == header + _hue_by_floats(x), x.shape


def test_render_hue_wraps_continuously():
    lo = render_hue(np.full((1, 1), -np.pi))[-3:]
    hi = render_hue(np.full((1, 1), np.pi - 1e-9))[-3:]
    assert all(abs(a - b) <= 1 for a, b in zip(lo, hi))
    ppm = render_hue(np.zeros((4, 5)))
    assert ppm.startswith(b"P6\n5 4\n255\n")
    assert len(ppm) == len(b"P6\n5 4\n255\n") + 3 * 20


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    write_bytes_atomic(path, b"first")
    write_bytes_atomic(path, b"second")
    assert path.read_bytes() == b"second"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_written_files_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        write_phase(tmp_path / "x.phase", np.zeros((2, 3)))
        write_mask(tmp_path / "m.pgm", np.ones((2, 3), bool))
        os.umask(0o077)
        write_bytes_atomic(tmp_path / "private.bin", b"x")
    finally:
        os.umask(old)
    assert (tmp_path / "x.phase").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "m.pgm").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "private.bin").stat().st_mode & 0o777 == 0o600
