"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root): ``python3 perfbench/selftest.py``

Runs every workload of ``BENCHMARK.json`` at 32x32 with 2 sweeps, untraced
and traced, and checks that each run exits 0 with a correct result line
holding exactly the metrics ``BENCHMARK.json`` names, each with its unit;
that the traced run's record holds every expected span, each with a valid
parent; and that the benchmark refuses to run, printing no result, in a
directory without the phasetv sources.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SIZE, SWEEPS, SEED = 32, 2, 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

EXPECTED_SPANS = {
    "chain", "cli.synth", "cli.mask", "bench.seeded_inputs", "cli.inpaint", "cli.metrics",
    "op", "fileio.read_phase", "fileio.read_mask", "initialization.initialize",
    "solver.run_cppa", "fileio.write_phase",
    "probe", "model.enumerate_stencils", "model.energy_from_groups",
    "prox.prox_diff_batch.first", "prox.prox_diff_batch.second", "prox.prox_diff_batch.mixed",
    "prox.prox_data", "circle.wrap", "fileio.render_hue",
}


def run_bench(cwd: Path, workload: str, trace: int):
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", "1", "--trace", str(trace), "--size", str(SIZE), "--sweeps", str(SWEEPS),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(stdout: str, expected: list[dict]) -> tuple[list[str], dict]:
    problems = []
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line of stdout is not JSON"], {}
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append(f"metrics missing {sorted(names - set(metrics))},"
                        f" unexpected {sorted(set(metrics) - names)}")
    for m in expected:
        entry = metrics.get(m["name"], {})
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}, expected {m['unit']!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{m['name']}: value {value!r}")
    record = next((ln.split(" ", 1)[1] for ln in lines if ln.startswith("record ")), None)
    return problems, {"record": record}


def check_spans(record_path: str) -> list[str]:
    spans = json.loads((ROOT / record_path).read_text())["spans"]
    problems = tracing.check_spans(spans)
    missing = EXPECTED_SPANS - {s["name"] for s in spans}
    if missing:
        problems.append(f"spans missing: {sorted(missing)}")
    if len({s["trace"] for s in spans}) != 2:
        problems.append("expected two restorations (CLI chain and in-process)")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail without a result."""
    bare = BENCH_DIR / "_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = run_bench(bare, "init-disc-256", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    if p.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {p.returncode}, last line {last[0][:80]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            p = run_bench(ROOT, workload, trace)
            problems = [f"exit status {p.returncode}: {p.stderr.strip()[-500:]}"] if p.returncode else []
            found, info = check_result(p.stdout, spec[kind])
            problems += found
            if trace and info.get("record"):
                problems += check_spans(info["record"])
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} trace={trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    problems = check_bare_directory()
    print(f"{'ok' if not problems else 'FAIL':4s} refuses to run without the sources")
    for problem in problems:
        print(f"     {problem}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
