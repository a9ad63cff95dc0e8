import os

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

    path.write_bytes(b"P5\n2 2\n200\n" + bytes(4))
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


def test_render_gray_levels():
    pgm = render_gray(np.zeros((2, 3)))
    assert pgm.startswith(b"P5\n3 2\n255\n")
    assert pgm[-6:] == bytes([128] * 6)
    assert render_gray(np.full((1, 1), -np.pi))[-1] == 0
    assert render_gray(np.full((1, 1), np.pi - 1e-12))[-1] == 255
    assert render_gray(np.zeros((1, 1))) == render_gray(np.zeros((1, 1)))


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
