"""One benchmark run: seeded inputs, set-up probe, measured loop, result line.

Imported by ``run.py`` once the thread pinning and ``PYTHONPATH`` are in
place.  Everything a run writes stays under ``perfbench/_runs``: a working
directory removed at the end, and one JSON record per run with the
provenance, every operation, and for traced runs the spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import phasetv as pt
import tracing
import workloads
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "_runs"
GOLDEN_DIR = BENCH_DIR / "golden"
GOLDEN_INDEX = GOLDEN_DIR / "golden.json"

# Fresh processes started per run to time set-up; the median is reported.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "restore_s": "s",
    "chain_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rmse": "rad",
    "final_energy": "a.u.",
}

PER_LAYER_UNITS = {
    "init_s": "s",
    "init_us_per_unknown_px": "us",
    "unknown_px": "count",
    "stencils_s": "s",
    "stencil_count": "count",
    "stencil_index_mb": "MB",
    "energy_ms": "ms",
    "energy_evals": "count",
    "prox_first_ns": "ns",
    "prox_second_ns": "ns",
    "prox_mixed_ns": "ns",
    "prox_data_ns": "ns",
    "prox_sweep_ms": "ms",
    "wrap_ns": "ns",
    "cppa_s": "s",
    "sweep_ms": "ms",
    "sweep_other_ms": "ms",
    "sweep_mb_computed": "MB",
    "read_ms": "ms",
    "write_ms": "ms",
    "render_ms": "ms",
    "io_mb": "MB",
    "import_s": "s",
    "cli_synth_s": "s",
    "cli_mask_s": "s",
    "cli_inpaint_s": "s",
    "cli_metrics_s": "s",
    "trace_overhead_s": "s",
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import phasetv
t1 = time.perf_counter()
phasetv.read_phase(sys.argv[1])
phasetv.read_mask(sys.argv[2])
print(t1 - t0)
"""


class BenchError(RuntimeError):
    """A step of the benchmark itself could not complete."""


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


def run_process(argv, cwd: Path, tag: str) -> Proc:
    """Run a child to completion; wall time from spawn to exit, peak RSS."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode, wall, usage.ru_maxrss / 1024.0,
        out_path.read_text(), err_path.read_text(),
    )


def phasetv_cli(*args) -> list[str]:
    return [sys.executable, "-m", "phasetv", *map(str, args)]


def cli_chain(w, seed: int, work: Path, tracer=tracing.NO_TRACE) -> dict:
    """synth -> mask -> seeded inputs -> inpaint -> metrics, gated.

    The CLI has no noise or offset option, so the benchmark applies the
    seeded offset or noise between ``mask`` and ``inpaint``.
    """
    work.mkdir(exist_ok=True)
    n = w.size
    if w.scene == "atan2":
        synth = ("synth", "atan2", "--size", n)
    else:
        synth = ("synth", "ramp", "--rows", n, "--cols", n, "--slope", repr(w.ramp_slope))
    mask = ("mask", w.mask, "--rows", n, "--cols", n)
    if w.mask == "disc":
        mask += ("--radius", repr(w.disc_radius))
    elif w.mask == "random":
        mask += ("--fraction", repr(workloads.LOST_FRACTION), "--seed", seed)
    inpaint = (
        "inpaint", "-i", "input.phase", "-m", "mask.pgm", "-o", "out.phase",
        "--alpha", ",".join(map(repr, w.alpha)), "--beta", ",".join(map(repr, w.beta)),
        "--gamma", repr(w.gamma), "--sweeps", w.sweeps, "--record-every", w.record_every,
        "--trace", "energy.csv",
    )
    if not w.noiseless:
        inpaint += ("--noisy",)
    if w.render_hue:
        inpaint += ("--render-hue", "out.ppm")

    stages: dict[str, Proc] = {}
    failures: list[str] = []

    def stage(name, args) -> bool:
        with tracer.span(f"cli.{name}"):
            p = run_process(phasetv_cli(*args), work, name)
        stages[name] = p
        if p.code != 0:
            failures.append(f"phasetv {name} exited with {p.code}: {p.err.strip()[-300:]}")
        return p.code == 0

    start = time.perf_counter()
    ok = stage("synth", synth + ("-o", "scene.phase")) and stage("mask", mask + ("-o", "mask.pgm"))
    if ok:
        with tracer.span("bench.seeded_inputs"):
            known = pt.read_mask(work / "mask.pgm")
            f, truth = workloads.seeded_inputs(w, pt.read_phase(work / "scene.phase"), known, seed)
            pt.write_phase(work / "input.phase", f)
            pt.write_phase(work / "truth.phase", truth)
        ok = stage("inpaint", inpaint) and stage("metrics", ("metrics", "out.phase", "truth.phase"))
    result = {
        "chain_s": time.perf_counter() - start,
        "failures": failures,
        **{f"cli_{name}_s": p.wall_s for name, p in stages.items()},
    }
    if not ok:
        return result

    x = pt.read_phase(work / "out.phase")
    rows = (work / "energy.csv").read_text().split()[1:]
    energies = [float(r.split(",")[1]) for r in rows]
    quality, bad = workloads.check_output(w, x, f, known, truth, energies[0], energies[-1])
    failures += bad
    mse_cli = float(stages["metrics"].out.split()[0].partition("=")[2])
    mse = pt.cyclic_error(x, truth)[0]
    if not math.isclose(mse_cli, mse, rel_tol=1e-5, abs_tol=1e-12):
        failures.append(f"metrics stage reports mse {mse_cli!r}, expected {mse!r}")
    result.update(quality)
    result["restore_s"] = stages["inpaint"].wall_s
    result["peak_rss_mb"] = stages["inpaint"].rss_mb
    result["energy_evals"] = len(energies)
    return result


def library_inputs(w, seed: int, work: Path) -> dict:
    """Write the seeded inputs of an in-process workload; return the paths."""
    truth, known = workloads.scene(w, seed)
    f, truth = workloads.seeded_inputs(w, truth, known, seed)
    pt.write_phase(work / "input.phase", f)
    pt.write_mask(work / "mask.pgm", known)
    pt.write_phase(work / "truth.phase", truth)
    return worker_paths(work, work)


def worker_paths(inputs: Path, work: Path) -> dict:
    return {
        "f": str(inputs / "input.phase"),
        "mask": str(inputs / "mask.pgm"),
        "truth": str(inputs / "truth.phase"),
        "out": str(work / "restored.phase"),
    }


def measure_setup(paths: dict, work: Path) -> dict:
    """Fresh-process ``import phasetv`` plus reading the inputs, repeated."""
    walls, imports = [], []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_CODE, paths["f"], paths["mask"]]
        p = run_process(argv, work, f"setup{i}")
        if p.code != 0:
            raise BenchError(f"set-up probe exited with {p.code}: {p.err.strip()[-300:]}")
        walls.append(p.wall_s)
        imports.append(float(p.out))
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports)}


def run_worker(w, paths: dict, mode: str, seconds: float, work: Path) -> dict:
    config = {
        "workload": w.to_dict(),
        "paths": paths,
        "mode": mode,
        "seconds": seconds,
        "result": str(work / f"worker-{mode}.json"),
    }
    config_path = work / f"worker-{mode}-config.json"
    config_path.write_text(json.dumps(config))
    p = run_process([sys.executable, str(BENCH_DIR / "worker.py"), str(config_path)],
                    work, f"worker-{mode}")
    if p.code != 0:
        raise BenchError(f"worker exited with {p.code}: {p.err.strip()[-2000:]}")
    result = json.loads(Path(config["result"]).read_text())
    result["peak_rss_mb"] = p.rss_mb
    return result


def untraced(w, seed: int, seconds: float, work: Path):
    """Closed loop with tracing off; returns (metrics, ops, output path)."""
    if w.via_cli:
        chain_dir = work / "cli"
        ops = [{**cli_chain(w.warmup(), seed, chain_dir), "warmup": True}]
        if ops[0]["failures"]:
            return {}, ops, None
        setup = measure_setup(worker_paths(chain_dir, work), work)
        start = time.perf_counter()
        while True:
            ops.append({**cli_chain(w, seed, chain_dir), "warmup": False})
            if time.perf_counter() - start >= seconds:
                break
        peak_rss = max(op.get("peak_rss_mb", 0.0) for op in ops if not op["warmup"])
        output = chain_dir / "out.phase"
    else:
        paths = library_inputs(w, seed, work)
        setup = measure_setup(paths, work)
        result = run_worker(w, paths, "loop", seconds, work)
        ops, peak_rss, output = result["ops"], result["peak_rss_mb"], Path(paths["out"])
    measured = [op for op in ops if not op["warmup"] and not op["failures"]]
    if not measured:
        return {}, ops, None
    metrics = {
        "restore_s": statistics.median(op["restore_s"] for op in measured),
        "chain_s": statistics.median(op["chain_s"] for op in measured),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss,
        "rmse": measured[-1]["rmse"],
        "final_energy": measured[-1]["final_energy"],
    }
    return metrics, ops, output


def traced(w, seed: int, work: Path):
    """Traced run; returns (metrics, ops, spans)."""
    tracer = tracing.Tracer(prefix="p")
    chain_dir = work / "cli"
    tracer.new_trace()
    with tracer.span("chain"):
        chain = cli_chain(w, seed, chain_dir, tracer)
    ops = [{**chain, "warmup": False}]
    if chain["failures"]:
        return {}, ops, tracer.spans
    paths = worker_paths(chain_dir, work) if w.via_cli else library_inputs(w, seed, work)
    setup = measure_setup(paths, work)
    result = run_worker(w, paths, "traced", 0.0, work)
    metrics = {
        **result["layers"],
        "import_s": setup["import_s"],
        **{k: chain[k] for k in ("cli_synth_s", "cli_mask_s", "cli_inpaint_s", "cli_metrics_s")},
    }
    return metrics, ops + result["ops"], tracer.spans + result["spans"]


def golden_verdict(w, output: Path) -> str:
    """'bitwise identical' or the largest cyclic drift from the golden output."""
    index = json.loads(GOLDEN_INDEX.read_text()) if GOLDEN_INDEX.exists() else {}
    if w.name not in index:
        return "no golden output recorded"
    if hashlib.sha256(output.read_bytes()).hexdigest() == index[w.name]["sha256"]:
        return "bitwise identical"
    x = pt.read_phase(output)
    g = pt.read_phase(GOLDEN_DIR / f"{w.name}.phase")
    if x.shape != g.shape:
        return f"shape {x.shape} differs from golden {g.shape}"
    return f"largest cyclic drift {float(np.max(pt.dist(x, g))):.3e} rad"


def write_golden(w, output: Path, metrics: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    shutil.copyfile(output, GOLDEN_DIR / f"{w.name}.phase")
    index = json.loads(GOLDEN_INDEX.read_text()) if GOLDEN_INDEX.exists() else {}
    index[w.name] = {
        "seed": DEFAULT_SEED,
        "size": w.size,
        "sweeps": w.sweeps,
        "sha256": hashlib.sha256(output.read_bytes()).hexdigest(),
        "rmse": metrics["rmse"],
        "final_energy": metrics["final_energy"],
    }
    GOLDEN_INDEX.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


def _command_output(argv) -> str | None:
    try:
        p = subprocess.run(argv, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 and p.stdout.strip() else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phasetv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(w, known) -> dict:
    groups = pt.enumerate_stencils(known.shape, known, w.weights(), w.kind)
    cache = {k: _command_output(["getconf", f"LEVEL{k}_CACHE_SIZE"]) for k in (2, 3)}
    cache = {k: int(v) if v and v.isdigit() else None for k, v in cache.items()}
    return {
        "git_sha": _command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": cache[2],
        "l3_bytes": cache[3],
        "image_shape": list(known.shape),
        "image_mb": known.size * 8 / 1e6,
        "unknown_px": int((~known).sum()),
        "stencil_index_mb": sum(g.pixels.nbytes for g in groups) / 1e6,
        "workload": w.to_dict(),
    }


def _finish(record: dict, path: Path, result: dict) -> None:
    record["result"] = result
    path.write_text(json.dumps(record, indent=1))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))


def run(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    standard = args.size is None
    if not standard:
        w = w.shrunk(args.size, args.sweeps)
    if args.golden and not (standard and args.seed == DEFAULT_SEED and not args.trace):
        print("error: --golden needs the standard size, the default seed and --trace 0",
              file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    record_path = RUNS_DIR / f"{w.name}-{w.size}-seed{args.seed}-trace{args.trace}.json"
    record = {"args": vars(args)}
    work = Path(tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=RUNS_DIR))
    try:
        try:
            if args.trace:
                metrics, ops, spans = traced(w, args.seed, work)
                units = PER_LAYER_UNITS
                problems = tracing.check_spans(spans)
                record["spans"] = spans
                record["self_times_s"] = tracing.self_times(spans)
            else:
                metrics, ops, output = untraced(w, args.seed, args.seconds, work)
                units = END_TO_END_UNITS
                problems = []
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            _finish(record, record_path,
                    {"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
            return 1
        record["provenance"] = provenance(w, workloads.scene(w, args.seed)[1])
        print("provenance " + json.dumps(record["provenance"]))
        record["ops"] = ops

        failed = sum(1 for op in ops if op["failures"])
        for op in ops:
            for reason in op["failures"]:
                print(f"failed operation: {reason}", file=sys.stderr)
        for problem in problems:
            print(f"trace problem: {problem}", file=sys.stderr)
        missing = [k for k in units if not (k in metrics and math.isfinite(metrics[k]))]
        if missing:
            print(f"missing metrics: {missing}", file=sys.stderr)

        if not args.trace and standard and args.seed == DEFAULT_SEED and output is not None:
            if args.golden:
                write_golden(w, output, metrics)
            record["golden"] = golden_verdict(w, output)
            print(f"golden {w.name}: {record['golden']}")

        result = {
            "correct": failed == 0 and not problems and not missing,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {
                k: {"value": metrics[k], "unit": unit} for k, unit in units.items() if k in metrics
            },
        }
        _finish(record, record_path, result)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
