"""Command-line entry points: synth, mask, init, inpaint, metrics."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio, synth
from .initialization import _propagate
from .model import Weights
from .solver import NumericalError, SolverConfig, run_cppa

_DEFAULT_ALPHA = "1,1,0,0"
_DEFAULT_BETA = "1,1"


def _floats(text: str, count: int, flag: str):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} needs {count} comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)


def _weights(args) -> Weights:
    return Weights(
        alpha=_floats(args.alpha, 4, "--alpha"),
        beta=_floats(args.beta, 2, "--beta"),
        gamma=args.gamma,
    )


def _print_config(args) -> None:
    items = sorted(
        (k, v) for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    )
    line = " ".join(f"{k}={v}" for k, v in items)
    print(f"config: {line}", file=sys.stderr)


def _add_weight_flags(p) -> None:
    p.add_argument("--alpha", default=_DEFAULT_ALPHA, metavar="A1,A2,A3,A4",
                   help="first-difference weights: horizontal, vertical, diagonal, anti-diagonal")
    p.add_argument("--beta", default=_DEFAULT_BETA, metavar="B1,B2",
                   help="second-difference weights: horizontal, vertical")
    p.add_argument("--gamma", type=float, default=1.0, help="mixed-difference weight")


def _load_pair(args):
    return fileio.read_phase(args.input), fileio.read_mask(args.mask)


def cmd_synth(args) -> int:
    _print_config(args)
    if args.kind == "atan2":
        image = synth.gen_atan2(args.size)
    elif args.kind == "ramp":
        image = synth.gen_wrapped_ramp((args.rows, args.cols), args.slope, args.direction)
    else:
        image = synth.gen_blocks((args.rows, args.cols))
    fileio.write_phase(args.output, image)
    return 0


def cmd_mask(args) -> int:
    _print_config(args)
    shape = (args.rows, args.cols)
    if args.kind == "subsample3":
        known = synth.mask_subsample3(shape)
    elif args.kind == "random":
        known = synth.mask_random(shape, args.fraction, args.seed)
    elif args.kind == "disc":
        known = synth.mask_disc(shape, args.radius)
    else:
        known = synth.mask_band(shape, args.start, args.width, args.orientation)
    fileio.write_mask(args.output, known)
    return 0


def _initialize(f, known, weights):
    x0, rounds, filled, unreachable = _propagate(f, known, weights)
    print(f"init: rounds={rounds} filled={filled} unreachable={unreachable}",
          file=sys.stderr)
    return x0


def cmd_init(args) -> int:
    _print_config(args)
    f, known = _load_pair(args)
    fileio.write_phase(args.output, _initialize(f, known, _weights(args)))
    return 0


def cmd_inpaint(args) -> int:
    _print_config(args)
    f, known = _load_pair(args)
    weights = _weights(args)
    x0 = _initialize(f, known, weights)
    config = SolverConfig(
        lambda0=args.lambda0,
        max_sweeps=args.sweeps,
        record_energy_every=args.record_every,
    )
    kind = "noisy" if args.noisy else "noiseless"
    report = run_cppa(x0, f, known, weights, kind, config)
    fileio.write_phase(args.output, report.image)
    if args.trace:
        rows = "".join(f"{s},{e:.17g}\n" for s, e in report.energy_trace)
        fileio.write_bytes_atomic(args.trace, b"sweep,energy\n" + rows.encode())
    if args.render_gray:
        fileio.write_bytes_atomic(args.render_gray, fileio.render_gray(report.image))
    if args.render_hue:
        fileio.write_bytes_atomic(args.render_hue, fileio.render_hue(report.image))
    print(
        f"done: sweeps={report.sweeps}"
        f" energy={report.energy_trace[-1][1]:#.6g}"
        f" wall={report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return 0


def cmd_metrics(args) -> int:
    _print_config(args)
    x = fileio.read_phase(args.result)
    y = fileio.read_phase(args.reference)
    mse, max_err = synth.cyclic_error(x, y)
    print(f"mse={mse:#.6g} max={max_err:#.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasetv",
        description="Variational inpainting and denoising of phase-valued images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic phase image")
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("atan2", help="angular coordinate field")
    g.add_argument("--size", type=int, default=128)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_synth)
    g = gen.add_parser("ramp", help="wrapped linear ramp")
    g.add_argument("--rows", type=int, default=128)
    g.add_argument("--cols", type=int, default=128)
    g.add_argument("--slope", type=float, required=True, help="radians per pixel")
    g.add_argument("--direction", choices=("horizontal", "vertical"), default="horizontal")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_synth)
    g = gen.add_parser("blocks", help="constant blocks plus a wrapped ramp block")
    g.add_argument("--rows", type=int, default=128)
    g.add_argument("--cols", type=int, default=128)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="generate a mask (PGM: 0 unknown, 255 known)")
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("subsample3", help="keep every third row and column")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_mask)
    g = gen.add_parser("random", help="lose a random pixel fraction")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--fraction", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_mask)
    g = gen.add_parser("disc", help="centered circular unknown region")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--radius", type=float, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_mask)
    g = gen.add_parser("band", help="strip of unknown rows or columns")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--start", type=int, required=True)
    g.add_argument("--width", type=int, required=True)
    g.add_argument("--orientation", choices=("vertical", "horizontal"), default="vertical")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_mask)

    p = sub.add_parser("init", help="fill the unknown region by zero-difference propagation")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-m", "--mask", required=True)
    p.add_argument("-o", "--output", required=True)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("inpaint", help="initialize, then run the cyclic proximal solver")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-m", "--mask", required=True)
    p.add_argument("-o", "--output", required=True)
    _add_weight_flags(p)
    p.add_argument("--sweeps", type=int, default=700)
    p.add_argument("--lambda0", type=float, default=float(np.pi / 2))
    p.add_argument("--noisy", action="store_true",
                   help="treat known pixels as noisy observations instead of constraints")
    p.add_argument("--record-every", type=int, default=1, dest="record_every")
    p.add_argument("--trace", help="write the energy trace CSV here")
    p.add_argument("--render-gray", help="write a grayscale PGM of the result")
    p.add_argument("--render-hue", help="write a hue-wheel PPM of the result")
    p.set_defaults(func=cmd_inpaint)

    p = sub.add_parser("metrics", help="cyclic mse/max between two phase files")
    p.add_argument("result")
    p.add_argument("reference")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
