import argparse
import re
import subprocess
import sys

import numpy as np
import pytest

from phasetv import SolverConfig, read_mask, read_phase, write_phase
from phasetv.cli import build_parser, main


def test_synth_mask_inpaint_metrics_pipeline(tmp_path, capsys):
    ramp = tmp_path / "ramp.phase"
    mask = tmp_path / "band.pgm"
    out = tmp_path / "result.phase"
    trace = tmp_path / "trace.csv"
    gray = tmp_path / "result.pgm"
    hue = tmp_path / "result.ppm"

    slope = 4 * np.pi / 31
    assert main(["synth", "ramp", "--rows", "16", "--cols", "32",
                 "--slope", str(slope), "-o", str(ramp)]) == 0
    assert main(["mask", "band", "--rows", "16", "--cols", "32",
                 "--start", "13", "--width", "6", "-o", str(mask)]) == 0
    assert main([
        "inpaint", "-i", str(ramp), "-m", str(mask), "-o", str(out),
        "--alpha", "0,0,0,0", "--beta", "1,1", "--gamma", "1",
        "--sweeps", "80", "--trace", str(trace),
        "--render-gray", str(gray), "--render-hue", str(hue),
    ]) == 0
    err = capsys.readouterr().err
    assert "config:" in err

    assert main(["metrics", str(out), str(ramp)]) == 0
    stdout = capsys.readouterr().out.strip().splitlines()[-1]
    m = re.fullmatch(r"mse=(\S+) max=(\S+)", stdout)
    assert m, stdout
    assert float(m.group(1)) < 1e-6

    lines = trace.read_text().splitlines()
    assert lines[0] == "sweep,energy"
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("80,")
    assert gray.read_bytes().startswith(b"P5\n32 16\n255\n")
    assert hue.read_bytes().startswith(b"P6\n32 16\n255\n")


def test_metrics_identity_format(tmp_path, capsys):
    p = tmp_path / "x.phase"
    write_phase(p, np.zeros((4, 4)))
    assert main(["metrics", str(p), str(p)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "mse=0.00000 max=0.00000"


def test_synth_atan2_and_blocks(tmp_path):
    a = tmp_path / "a.phase"
    assert main(["synth", "atan2", "--size", "16", "-o", str(a)]) == 0
    assert read_phase(a).shape == (16, 16)
    b = tmp_path / "b.phase"
    assert main(["synth", "blocks", "--rows", "64", "--cols", "64", "-o", str(b)]) == 0
    assert read_phase(b).shape == (64, 64)


def test_mask_kinds(tmp_path):
    for argv, predicate in (
        (["mask", "subsample3", "--rows", "9", "--cols", "9"],
         lambda m: m.sum() == 9),
        (["mask", "random", "--rows", "10", "--cols", "10",
          "--fraction", "0.2", "--seed", "1"],
         lambda m: (~m).sum() == 20),
        (["mask", "disc", "--rows", "21", "--cols", "21", "--radius", "5"],
         lambda m: not m[10, 10] and m[0, 0]),
    ):
        path = tmp_path / "m.pgm"
        assert main(argv + ["-o", str(path)]) == 0
        assert predicate(read_mask(path))


def test_init_subcommand(tmp_path):
    f = tmp_path / "f.phase"
    m = tmp_path / "m.pgm"
    out = tmp_path / "x0.phase"
    slope = 4 * np.pi / 31
    assert main(["synth", "ramp", "--rows", "8", "--cols", "32",
                 "--slope", str(slope), "-o", str(f)]) == 0
    assert main(["mask", "band", "--rows", "8", "--cols", "32",
                 "--start", "10", "--width", "8", "-o", str(m)]) == 0
    assert main(["init", "-i", str(f), "-m", str(m), "-o", str(out),
                 "--alpha", "0,0,0,0", "--beta", "1,1", "--gamma", "0"]) == 0
    got = read_phase(out)
    want = read_phase(f)
    assert np.max(np.abs(got - want)) < 1e-9


def test_noisy_flag(tmp_path):
    f = tmp_path / "f.phase"
    m = tmp_path / "m.pgm"
    out = tmp_path / "d.phase"
    assert main(["synth", "ramp", "--rows", "8", "--cols", "16",
                 "--slope", "0.3", "-o", str(f)]) == 0
    assert main(["mask", "random", "--rows", "8", "--cols", "16",
                 "--fraction", "0.1", "--seed", "2", "-o", str(m)]) == 0
    assert main(["inpaint", "-i", str(f), "-m", str(m), "-o", str(out),
                 "--noisy", "--sweeps", "30"]) == 0
    assert read_phase(out).shape == (8, 16)


def test_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.phase"
    assert main(["metrics", str(missing), str(missing)]) == 1
    assert "error:" in capsys.readouterr().err

    f = tmp_path / "f.phase"
    write_phase(f, np.zeros((4, 4)))
    m = tmp_path / "m.pgm"
    assert main(["mask", "subsample3", "--rows", "2", "--cols", "2",
                 "-o", str(m)]) == 0
    out = tmp_path / "o.phase"
    for command in ("init", "inpaint"):
        assert main([command, "-i", str(f), "-m", str(m), "-o", str(out)]) == 1
        assert "shape" in capsys.readouterr().err

    assert main(["inpaint", "-i", str(f), "-m", str(m), "-o", str(out),
                 "--alpha", "1,2"]) == 1

    # Above its cap, lambda0 would overflow the noisy data prox.
    m4 = tmp_path / "m4.pgm"
    assert main(["mask", "subsample3", "--rows", "4", "--cols", "4", "-o", str(m4)]) == 0
    capsys.readouterr()
    assert main(["inpaint", "-i", str(f), "-m", str(m4), "-o", str(out), "--noisy",
                 "--lambda0", "1e301"]) == 1
    assert "lambda0" in capsys.readouterr().err
    assert not out.exists()

    disc = tmp_path / "disc.pgm"
    capsys.readouterr()
    assert main(["mask", "disc", "--rows", "5", "--cols", "5", "--radius", "nan",
                 "-o", str(disc)]) == 1
    assert "radius" in capsys.readouterr().err
    assert not disc.exists()
    # A radius far beyond the image is clamped, not squared into an overflow.
    assert main(["mask", "disc", "--rows", "5", "--cols", "5", "--radius", "1e200",
                 "-o", str(disc)]) == 0
    assert not read_mask(disc).any()
    ramp = tmp_path / "ramp.phase"
    capsys.readouterr()
    assert main(["synth", "ramp", "--rows", "4", "--cols", "4", "--slope", "1e308",
                 "-o", str(ramp)]) == 1
    assert "slope" in capsys.readouterr().err
    assert not ramp.exists()

    # A band that starts outside the image is an error, not an all-known mask.
    band = tmp_path / "band.pgm"
    assert main(["mask", "band", "--rows", "4", "--cols", "4", "--start", "9",
                 "--width", "2", "-o", str(band)]) == 1
    assert "start" in capsys.readouterr().err
    assert not band.exists()

    lost = tmp_path / "lost.pgm"
    assert main(["mask", "random", "--rows", "4", "--cols", "4", "--fraction", "0.5",
                 "--seed", "-1", "-o", str(lost)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not lost.exists()

    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "phasetv", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "inpaint" in proc.stdout


def test_init_and_inpaint_report_initializer_counts(tmp_path, capsys):
    f = tmp_path / "f.phase"
    m = tmp_path / "m.pgm"
    assert main(["synth", "ramp", "--rows", "8", "--cols", "32",
                 "--slope", "0.3", "-o", str(f)]) == 0
    assert main(["mask", "band", "--rows", "8", "--cols", "32",
                 "--start", "10", "--width", "8", "-o", str(m)]) == 0
    capsys.readouterr()
    # The 8 unknown columns fill from both sides, one column per side and
    # round.
    want = "init: rounds=4 filled=64 unreachable=0\n"
    assert main(["init", "-i", str(f), "-m", str(m), "-o", str(tmp_path / "x0.phase"),
                 "--alpha", "0,0,0,0", "--beta", "1,1", "--gamma", "0"]) == 0
    assert want in capsys.readouterr().err
    assert main(["inpaint", "-i", str(f), "-m", str(m), "-o", str(tmp_path / "x.phase"),
                 "--alpha", "0,0,0,0", "--beta", "1,1", "--gamma", "0",
                 "--sweeps", "2"]) == 0
    assert want in capsys.readouterr().err


REQUIRED = "required"
_SHAPE = {"--rows": REQUIRED, "--cols": REQUIRED, "-o --output": REQUIRED}
_PROBLEM = {"-i --input": REQUIRED, "-m --mask": REQUIRED, "-o --output": REQUIRED,
            "--alpha": "1,1,0,0", "--beta": "1,1", "--gamma": 1.0}
FLAGS = {
    "synth atan2": {"--size": 128, "-o --output": REQUIRED},
    "synth ramp": {"--rows": 128, "--cols": 128, "-o --output": REQUIRED, "--slope": REQUIRED,
                   "--direction": "horizontal"},
    "synth blocks": {"--rows": 128, "--cols": 128, "-o --output": REQUIRED},
    "mask subsample3": _SHAPE,
    "mask random": {**_SHAPE, "--fraction": REQUIRED, "--seed": 0},
    "mask disc": {**_SHAPE, "--radius": REQUIRED},
    "mask band": {**_SHAPE, "--start": REQUIRED, "--width": REQUIRED, "--orientation": "vertical"},
    "init": _PROBLEM,
    "inpaint": {**_PROBLEM, "--sweeps": 700, "--lambda0": np.pi / 2, "--noisy": False,
                "--record-every": 1, "--trace": None, "--render-gray": None,
                "--render-hue": None},
    "metrics": {"result": REQUIRED, "reference": REQUIRED},
}


def _flags(parser, path=()):
    """{subcommand path: {option strings (or positional name): default or
    REQUIRED}} of every subcommand below ``parser``."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_flags(sub, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            flag = " ".join(action.option_strings) or action.dest
            value = REQUIRED if action.required else action.default
            found.setdefault(" ".join(path), {})[flag] = value
    return found


def test_subcommand_flags_pinned():
    assert _flags(build_parser()) == FLAGS
    # The solver flags default to the library's run parameters.
    config = SolverConfig()
    inpaint = FLAGS["inpaint"]
    assert (inpaint["--sweeps"], inpaint["--lambda0"], inpaint["--record-every"]) == (
        config.max_sweeps, config.lambda0, config.record_energy_every)
