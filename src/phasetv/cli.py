"""Command-line entry points: synth, mask, init, inpaint, metrics."""

from __future__ import annotations

import argparse
import sys

from . import fileio, synth
from .initialization import _propagate
from .model import Weights
from .solver import NumericalError, SolverConfig, run_cppa


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
    items = sorted((k, v) for k, v in vars(args).items() if not k.startswith("_"))
    line = " ".join(f"{k}={v}" for k, v in items)
    print(f"config: {line}", file=sys.stderr)


def _add_problem_flags(p) -> None:
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-m", "--mask", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--alpha", default="1,1,0,0", metavar="A1,A2,A3,A4",
                   help="first-difference weights: horizontal, vertical, diagonal, anti-diagonal")
    p.add_argument("--beta", default="1,1", metavar="B1,B2",
                   help="second-difference weights: horizontal, vertical")
    p.add_argument("--gamma", type=float, default=1.0, help="mixed-difference weight")


def _load_pair(args):
    return fileio.read_phase(args.input), fileio.read_mask(args.mask)


def cmd_generate(args) -> None:
    args._write(args.output, args._build(args))


def _generators(sub, command: str, help: str, write, default):
    """Add the ``command`` subparser and return ``add(kind, help, build,
    dims)``, which adds its subcommand ``kind``: it writes ``build(args)``
    to ``-o`` with ``write``.  Each flag in ``dims`` is an integer that
    defaults to ``default``, or is required when ``default`` is None."""
    kinds = sub.add_parser(command, help=help).add_subparsers(dest="kind", required=True)

    def add(kind, help, build, dims=("--rows", "--cols")):
        g = kinds.add_parser(kind, help=help)
        for flag in dims:
            g.add_argument(flag, type=int, default=default, required=default is None)
        g.add_argument("-o", "--output", required=True)
        g.set_defaults(_func=cmd_generate, _build=build, _write=write)
        return g

    return add


def _initialize(f, known, weights):
    x0, rounds, filled, unreachable = _propagate(f, known, weights)
    print(f"init: rounds={rounds} filled={filled} unreachable={unreachable}",
          file=sys.stderr)
    return x0


def cmd_init(args) -> None:
    f, known = _load_pair(args)
    fileio.write_phase(args.output, _initialize(f, known, _weights(args)))


def cmd_inpaint(args) -> None:
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
    for path, render in ((args.render_gray, fileio.render_gray),
                         (args.render_hue, fileio.render_hue)):
        if path:
            fileio.write_bytes_atomic(path, render(report.image))
    print(
        f"done: sweeps={report.sweeps}"
        f" energy={report.energy_trace[-1][1]:#.6g}"
        f" wall={report.wall_time:.2f}s",
        file=sys.stderr,
    )


def cmd_metrics(args) -> None:
    x = fileio.read_phase(args.result)
    y = fileio.read_phase(args.reference)
    mse, max_err = synth.cyclic_error(x, y)
    print(f"mse={mse:#.6g} max={max_err:#.6g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasetv",
        description="Variational inpainting and denoising of phase-valued images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    add = _generators(sub, "synth", "generate a synthetic phase image", fileio.write_phase, 128)
    add("atan2", "angular coordinate field", lambda a: synth.gen_atan2(a.size), ("--size",))
    g = add("ramp", "wrapped linear ramp",
            lambda a: synth.gen_wrapped_ramp((a.rows, a.cols), a.slope, a.direction))
    g.add_argument("--slope", type=float, required=True, help="radians per pixel")
    g.add_argument("--direction", choices=("horizontal", "vertical"), default="horizontal")
    add("blocks", "constant blocks plus a wrapped ramp block",
        lambda a: synth.gen_blocks((a.rows, a.cols)))

    add = _generators(sub, "mask", "generate a mask (PGM: 0 unknown, 255 known)",
                      fileio.write_mask, None)
    add("subsample3", "keep every third row and column",
        lambda a: synth.mask_subsample3((a.rows, a.cols)))
    g = add("random", "lose a random pixel fraction",
            lambda a: synth.mask_random((a.rows, a.cols), a.fraction, a.seed))
    g.add_argument("--fraction", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g = add("disc", "centered circular unknown region",
            lambda a: synth.mask_disc((a.rows, a.cols), a.radius))
    g.add_argument("--radius", type=float, required=True)
    g = add("band", "strip of unknown rows or columns",
            lambda a: synth.mask_band((a.rows, a.cols), a.start, a.width, a.orientation))
    g.add_argument("--start", type=int, required=True)
    g.add_argument("--width", type=int, required=True)
    g.add_argument("--orientation", choices=("vertical", "horizontal"), default="vertical")

    p = sub.add_parser("init", help="fill the unknown region by zero-difference propagation")
    _add_problem_flags(p)
    p.set_defaults(_func=cmd_init)

    p = sub.add_parser("inpaint", help="initialize, then run the cyclic proximal solver")
    _add_problem_flags(p)
    p.add_argument("--sweeps", type=int, default=SolverConfig.max_sweeps)
    p.add_argument("--lambda0", type=float, default=SolverConfig.lambda0)
    p.add_argument("--noisy", action="store_true",
                   help="treat known pixels as noisy observations instead of constraints")
    p.add_argument("--record-every", type=int, default=SolverConfig.record_energy_every,
                   dest="record_every")
    p.add_argument("--trace", help="write the energy trace CSV here")
    p.add_argument("--render-gray", help="write a grayscale PGM of the result")
    p.add_argument("--render-hue", help="write a hue-wheel PPM of the result")
    p.set_defaults(_func=cmd_inpaint)

    p = sub.add_parser("metrics", help="cyclic mse/max between two phase files")
    p.add_argument("result")
    p.add_argument("reference")
    p.set_defaults(_func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _print_config(args)
    try:
        args._func(args)
    except (ValueError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
