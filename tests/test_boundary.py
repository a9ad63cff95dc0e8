"""Every public callable checks its arguments at the boundary.

``_rows`` holds one row per callable in ``phasetv.__all__``: a valid call,
and for each argument the kind of value it takes.  Each kind yields the
bad-input classes of ``_cases`` (bool, str, None and complex; NaN and
+-inf; the wrong number of dimensions and an empty value; a value out of
range), and each class must raise a ``ValueError`` whose message names the
argument, or a ``FormatError`` for the content of a file the callable
reads.  A row may list a class as accepted on purpose: the call must then
return normally, and the callable's docstring says so.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

import phasetv
from phasetv import FIRST_DIFF, FormatError, SolverConfig, Weights

SHAPE = (8, 8)
CLASSES = ("bool", "str", "None", "complex", "nan", "inf", "-inf", "ndim", "empty", "range")
W = Weights(alpha=(1.0, 1.0, 0.0, 0.0), beta=(1.0, 1.0), gamma=1.0)
F = np.random.default_rng(0).uniform(-np.pi, np.pi, SHAPE)
# Unknown in the middle, known at the corners, so that pixel (0, 0) is read.
KNOWN = phasetv.mask_disc(SHAPE, 2.0)
X0 = phasetv.initialize(F, KNOWN, W)
GROUPS = phasetv.enumerate_stencils(SHAPE, KNOWN, W, "noiseless")


@dataclasses.dataclass
class Row:
    """A valid call of ``func`` and how each argument is fed bad input.

    ``kinds`` maps each argument to its kind (see ``_cases``);
    ``accepted`` maps an argument to the classes it accepts on purpose;
    ``together`` names arguments that must keep one shape, which get the
    shape classes ("ndim", "empty") as a group.
    """

    func: object
    valid: dict
    kinds: dict
    accepted: dict = dataclasses.field(default_factory=dict)
    together: tuple = ()


def _at_first(v, value):
    a = np.array(v, dtype=float)
    a.flat[0] = value
    return a


def _cases(kind, valid, tmp_path):
    """{class: bad value} for an argument of ``kind`` whose valid value is
    ``valid``.  A class that has no meaning for a kind (the range of a
    path) is left out; "array" is an extra class of a choice."""
    common = {"bool": True, "str": "1", "None": None, "complex": 1j,
              "nan": np.nan, "inf": np.inf, "-inf": -np.inf}
    if kind == "array":  # a float or an array of floats
        v = np.asarray(valid, dtype=float)
        return {"bool": v.astype(bool), "str": v.astype(str), "None": None, "complex": v + 1j,
                "nan": _at_first(v, np.nan), "inf": _at_first(v, np.inf),
                "-inf": _at_first(v, -np.inf), "ndim": v[None],
                "empty": v[:0] if v.ndim else v[None][:0], "range": _at_first(v, 4.0)}
    if kind == "mask":
        m = np.asarray(valid)
        return {"bool": True, "str": m.astype(str), "None": None, "complex": m + 1j,
                "nan": np.full(m.shape, np.nan), "inf": np.full(m.shape, np.inf),
                "-inf": np.full(m.shape, -np.inf), "ndim": m[None], "empty": m[:0],
                "range": m.astype(np.uint8) * 255}
    if kind == "real":
        return {**common, "ndim": np.ones(2), "empty": np.ones(0), "range": -1.0}
    if kind == "int":
        return {**common, "ndim": np.ones(2, int), "empty": np.ones(0, int), "range": -1}
    if kind == "shape":
        return {**common, "str": "ab", "nan": (np.nan, 8), "inf": (np.inf, 8),
                "-inf": (-np.inf, 8), "ndim": (8, 8, 8), "empty": (), "range": (0, 8)}
    if kind == "choice":
        return {**common, "str": "fancy", "ndim": np.array([valid, valid]), "empty": "",
                "range": valid.upper(), "array": np.array([valid])}
    if kind == "entries":
        rest = tuple(valid[1:])
        return {**common, "str": "a" * len(valid), "nan": (np.nan,) + rest,
                "inf": (np.inf,) + rest, "-inf": (-np.inf,) + rest,
                "ndim": np.ones((len(valid), 1)), "empty": (), "range": (-1.0,) + rest}
    if kind == "taps":
        return {**common, "str": "ab", "nan": (np.nan, 1.0), "inf": (np.inf, 1.0),
                "-inf": (-np.inf, 1.0), "ndim": ((-1.0, 1.0),), "empty": (), "range": (-2.0, 2.0)}
    if kind == "object":  # an instance of one class
        return {**common, "ndim": [valid], "empty": (), "range": dataclasses.asdict(W)}
    if kind == "path":  # a file to write
        return {**common, "str": str(tmp_path / "out"), "ndim": [str(tmp_path / "out")],
                "empty": ""}
    if kind in ("phase file", "mask file"):  # a file to read: its content is the bad input
        files = _bad_phase_files() if kind == "phase file" else _bad_mask_files()
        paths = {cls: tmp_path / f"bad-{cls}-{kind[0]}" for cls in files}
        for cls, blob in files.items():
            paths[cls].write_bytes(blob)
        return {**common, **paths}
    raise AssertionError(kind)


def _phase_file(rows, cols, values=()):
    return b"S1PHASE %d %d\n" % (rows, cols) + np.asarray(values, "<f8").tobytes()


def _bad_phase_files():
    return {"str": b"hello\n", "nan": _phase_file(1, 2, [0.0, np.nan]),
            "inf": _phase_file(1, 2, [np.inf, 0.0]), "-inf": _phase_file(1, 1, [-np.inf]),
            "ndim": b"S1PHASE 2 2 2\n" + bytes(64), "empty": _phase_file(0, 5),
            "range": _phase_file(1, 1, [4.0])}


def _bad_mask_files():
    return {"str": b"P2\n1 1\n255\n0", "nan": b"P5\n1 nan\n255\n\0", "inf": b"P5\ninf 1\n255\n\0",
            "-inf": b"P5\n-1 1\n255\n\0", "ndim": b"P5\n2 2\n255\n\0\0\0",
            "empty": b"P5\n0 2\n255\n", "range": b"P5\n2 1\n255\n\0\7"}


def _rows(tmp_path):
    image, mask, real, int_, choice, obj = "array", "mask", "real", "int", "choice", "object"
    problem = {"mask": mask, "weights": obj, "model_kind": choice}
    any_array = {"ndim", "empty", "range"}
    run = dict(x0=X0, f=F, mask=KNOWN, weights=W, model_kind="noiseless",
               config=SolverConfig(max_sweeps=1))
    record = dict(image=X0, energy_trace=((0, 1.0),), sweeps=1, wall_time=0.0)
    phasetv.write_phase(tmp_path / "f.phase", F)
    phasetv.write_mask(tmp_path / "known.pgm", KNOWN)
    return {
        # An exception's arguments are its message.
        "FormatError": Row(FormatError, {}, {}),
        "NumericalError": Row(phasetv.NumericalError, {}, {}),
        "DifferenceFilter": Row(phasetv.DifferenceFilter, dict(taps=(-1.0, 1.0), name="first"),
                                dict(taps="taps", name=real), accepted={"name": set(CLASSES)}),
        "SolverConfig": Row(SolverConfig, dict(lambda0=1.0, max_sweeps=1, record_energy_every=1),
                            dict(lambda0=real, max_sweeps=int_, record_energy_every=int_)),
        "SolverReport": Row(phasetv.SolverReport, record, dict.fromkeys(record, real),
                            accepted=dict.fromkeys(record, set(CLASSES))),
        "Weights": Row(Weights, dict(alpha=W.alpha, beta=W.beta, gamma=1.0),
                       dict(alpha="entries", beta="entries", gamma=real)),
        "add_wrapped_gaussian_noise": Row(phasetv.add_wrapped_gaussian_noise,
                                          dict(x=F, sigma=0.1, seed=0),
                                          dict(x=image, sigma=real, seed=int_),
                                          accepted={"x": any_array}),
        "cyclic_error": Row(phasetv.cyclic_error, dict(x=F, y=X0), dict(x=image, y=image),
                            accepted={"x": {"ndim", "range"}, "y": {"ndim", "range"}},
                            together=("x", "y")),
        "dist": Row(phasetv.dist, dict(p=0.5, q=0.25), dict(p=image, q=image),
                    accepted={"p": any_array, "q": any_array}),
        "energy": Row(phasetv.energy, dict(x=X0, f=F, mask=KNOWN, weights=W,
                                           model_kind="noiseless"),
                      dict(x=image, f=image, **problem)),
        "energy_from_groups": Row(phasetv.energy_from_groups, dict(x=X0, f=F, groups=GROUPS),
                                  dict(x=image, f=image, groups=obj),
                                  accepted={"x": {"nan", "inf", "-inf", "range"},
                                            "f": {"nan", "inf", "-inf", "range"},
                                            "groups": {"empty"}}),
        "enumerate_stencils": Row(phasetv.enumerate_stencils,
                                  dict(shape=SHAPE, mask=KNOWN, weights=W, model_kind="noisy"),
                                  dict(shape="shape", **problem)),
        "gen_atan2": Row(phasetv.gen_atan2, dict(n=8), dict(n=int_)),
        "gen_blocks": Row(phasetv.gen_blocks, dict(shape=(64, 64)), dict(shape="shape")),
        "gen_wrapped_ramp": Row(phasetv.gen_wrapped_ramp,
                                dict(shape=SHAPE, slope=0.2, direction="vertical"),
                                dict(shape="shape", slope=real, direction=choice),
                                accepted={"slope": {"range"}}),
        "initialize": Row(phasetv.initialize, dict(f=F, mask=KNOWN, weights=W),
                          dict(f=image, mask=mask, weights=obj)),
        "lambda_schedule": Row(phasetv.lambda_schedule, dict(k=0, lambda0=1.0),
                               dict(k=int_, lambda0=real)),
        "mask_band": Row(phasetv.mask_band,
                         dict(shape=SHAPE, start=2, width=2, orientation="vertical"),
                         dict(shape="shape", start=int_, width=int_, orientation=choice)),
        "mask_disc": Row(phasetv.mask_disc, dict(shape=SHAPE, radius=2.0),
                         dict(shape="shape", radius=real)),
        "mask_random": Row(phasetv.mask_random, dict(shape=SHAPE, fraction_lost=0.2, seed=0),
                           dict(shape="shape", fraction_lost=real, seed=int_)),
        "mask_subsample3": Row(phasetv.mask_subsample3, dict(shape=SHAPE), dict(shape="shape")),
        "prox_data": Row(phasetv.prox_data, dict(g=0.5, f=0.25, lam=1.0),
                         dict(g=image, f=image, lam=real),
                         accepted={"g": {"ndim", "empty"}, "f": {"ndim", "empty"}},
                         together=("g", "f")),
        "prox_diff_batch": Row(phasetv.prox_diff_batch,
                               dict(values=F[:3, :2], lam=0.5, filt=FIRST_DIFF),
                               dict(values=image, lam=real, filt=obj),
                               accepted={"values": {"empty", "range"}}),
        "read_mask": Row(phasetv.read_mask, dict(path=tmp_path / "known.pgm"),
                         dict(path="mask file")),
        "read_phase": Row(phasetv.read_phase, dict(path=tmp_path / "f.phase"),
                          dict(path="phase file")),
        "render_gray": Row(phasetv.render_gray, dict(x=F), dict(x=image)),
        "render_hue": Row(phasetv.render_hue, dict(x=F), dict(x=image)),
        "run_cppa": Row(phasetv.run_cppa, run, dict(x0=image, f=image, config=obj, **problem),
                        accepted={"config": {"None"}}),
        "wrap": Row(phasetv.wrap, dict(t=0.5), dict(t=image), accepted={"t": any_array}),
        "write_mask": Row(phasetv.write_mask, dict(path=str(tmp_path / "m.pgm"), known=KNOWN),
                          dict(path="path", known=mask), accepted={"path": {"str"}}),
        "write_phase": Row(phasetv.write_phase, dict(path=str(tmp_path / "x.phase"), x=F),
                           dict(path="path", x=image), accepted={"path": {"str"}}),
    }


PUBLIC_CALLABLES = sorted(n for n in phasetv.__all__ if callable(getattr(phasetv, n)))


def test_every_public_callable_has_a_row(tmp_path):
    assert sorted(_rows(tmp_path)) == PUBLIC_CALLABLES


def _names(message: str, arg: str) -> bool:
    return re.search(rf"(?<![\w.]){re.escape(arg)}(?!\w)", message) is not None


def _outcome(row: Row, args: dict, arg: str, cls: str):
    """None when the call behaves as the row says, else what went wrong."""
    accepted = cls in row.accepted.get(arg, ())
    file_content = row.kinds[arg].endswith("file") and cls not in ("bool", "None", "complex")
    try:
        row.func(**args)
    except ValueError as exc:
        if accepted:
            return f"raised {exc!r}, but the row accepts it"
        if file_content:
            return None if isinstance(exc, FormatError) else f"raised {exc!r}, not a FormatError"
        return None if _names(str(exc), arg) else f"raised {exc!r}, which does not name {arg}"
    except Exception as exc:  # anything but a ValueError is a failure
        return f"raised {type(exc).__name__}: {exc}"
    return None if accepted else "was accepted"


@pytest.mark.parametrize("name", PUBLIC_CALLABLES)
def test_bad_input_is_rejected_naming_the_argument(name, tmp_path):
    row = _rows(tmp_path)[name]
    failures = []
    for arg, kind in row.kinds.items():
        cases = _cases(kind, row.valid[arg], tmp_path)
        if kind in ("array", "mask", "real", "int", "shape", "choice", "entries", "taps"):
            assert set(CLASSES) <= set(cases), (name, arg)
        assert {"bool", "str", "None", "complex"} <= set(cases), (name, arg)
        for cls, value in cases.items():
            args = dict(row.valid, **{arg: value})
            if arg in row.together and cls in ("ndim", "empty"):
                args.update({a: _cases(row.kinds[a], row.valid[a], tmp_path)[cls]
                             for a in row.together})
            problem = _outcome(row, args, arg, cls)
            if problem:
                failures.append(f"{name}({arg}={cls}) {problem}")
    row.func(**row.valid)  # the valid call itself passes
    assert not failures, "\n".join(failures)
