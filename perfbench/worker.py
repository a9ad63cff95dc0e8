"""In-process restoration loop and layer probes; started by ``run.py``.

Usage: ``python3 perfbench/worker.py CONFIG.json`` with ``PYTHONPATH``
pointing at the phasetv sources.  The config names the workload, the
input files and the mode:

* ``loop``: one discarded warm-up operation of one sweep, then
  operations back to back (a closed loop with one client) until
  ``seconds`` have passed.  An operation reads the inputs, initializes,
  runs ``run_cppa`` and writes the result.
* ``traced``: the warm-up operation, one untraced operation, one traced
  operation and the layer probes, which call each module's public
  functions on the traced operation's data inside spans of the same
  restoration.

Results go to the ``result`` path of the config as JSON.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

import phasetv as pt
import tracing
import workloads

# Each repeated probe runs at least this long and this many times; the
# reported figure is the median repetition.
PROBE_SECONDS = 0.2
PROBE_MIN_REPEATS = 3


def restore_op(w, paths, tracer=tracing.NO_TRACE):
    """One operation: read inputs, initialize, run CPPA, write the result."""
    weights = w.weights()
    t0 = time.perf_counter()
    with tracer.span("fileio.read_phase"):
        f = pt.read_phase(paths["f"])
    with tracer.span("fileio.read_mask"):
        known = pt.read_mask(paths["mask"])
    unknown_px = int(known.size - np.count_nonzero(known))
    t1 = time.perf_counter()
    with tracer.span("initialization.initialize", unknown_px=unknown_px):
        x0 = pt.initialize(f, known, weights)
    with tracer.span("solver.run_cppa", sweeps=w.sweeps):
        report = pt.run_cppa(x0, f, known, weights, w.kind, w.solver_config())
    t2 = time.perf_counter()
    with tracer.span("fileio.write_phase"):
        pt.write_phase(paths["out"], report.image)
    t3 = time.perf_counter()
    timing = {"restore_s": t2 - t1, "chain_s": t3 - t0}
    return timing, f, known, x0, report


def gated_op(w, paths, truth, tracer=tracing.NO_TRACE):
    """One operation and its correctness gate; returns (record, data)."""
    timing, f, known, x0, report = restore_op(w, paths, tracer)
    trace = report.energy_trace
    quality, failures = workloads.check_output(
        w, report.image, f, known, truth, trace[0][1], trace[-1][1]
    )
    record = {**timing, **quality, "energy_evals": len(trace), "failures": failures}
    return record, (f, known, x0, report)


def repeat(fn):
    """Median wall time of ``fn()`` over the probe's repetitions."""
    times = []
    start = time.perf_counter()
    while len(times) < PROBE_MIN_REPEATS or time.perf_counter() - start < PROBE_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def flat_index(pixels, n_cols):
    return pixels[:, :, 0] * n_cols + pixels[:, :, 1]


def sweep_bytes(groups, known, noiseless) -> int:
    """Bytes indexed, gathered and scattered by one sweep, from array sizes.

    A difference group reads its flat index twice (gather and scatter),
    reads and writes its pixels once; the data group indexes three times
    and reads x and f and writes x.  In noiseless mode every group is
    followed by the projection, which reads the mask twice, reads f and
    writes x on the known pixels.  Temporaries and cache misses are not
    counted.
    """
    n_known = int(known.sum())
    total = 0
    for g in groups:
        entries = g.pixels.shape[0] * g.pixels.shape[1]
        total += (6 if g.is_data_term else 4) * entries * 8
        if noiseless:
            total += 2 * known.size + 2 * n_known * 8
    return total


def probe_layers(w, paths, tracer, f, known, x0, report) -> dict:
    """Per-layer figures from the traced operation's data."""
    weights = w.weights()
    lam0 = w.solver_config().lambda0
    n_cols = f.shape[1]
    layers = {}
    with tracer.span("probe"):
        with tracer.span("model.enumerate_stencils") as attrs:
            groups = pt.enumerate_stencils(f.shape, known, weights, w.kind)
            attrs["groups"] = len(groups)
        diff_groups = [g for g in groups if not g.is_data_term]
        layers["stencil_count"] = sum(len(g) for g in diff_groups)
        layers["stencil_index_mb"] = sum(g.pixels.nbytes for g in groups) / 1e6

        with tracer.span("model.energy_from_groups") as attrs:
            t, attrs["calls"] = repeat(lambda: pt.energy_from_groups(x0, f, groups))
        layers["energy_ms"] = t * 1e3

        x0_flat = x0.reshape(-1)
        prox_sweep_s = 0.0
        for family in ("first", "second", "mixed"):
            members = [g for g in diff_groups if g.filt.name == family and len(g)]
            batches = [(x0_flat[flat_index(g.pixels, n_cols)], lam0 * g.weight, g.filt)
                       for g in members]
            count = sum(len(g) for g in members)
            if count == 0:
                raise RuntimeError(f"workload {w.name} has no {family} stencils")
            with tracer.span(f"prox.prox_diff_batch.{family}", stencils=count) as attrs:
                t, attrs["passes"] = repeat(
                    lambda: [pt.prox_diff_batch(v, lam, filt) for v, lam, filt in batches]
                )
            layers[f"prox_{family}_ns"] = t / count * 1e9
            prox_sweep_s += t

        g_known, f_known = x0[known], f[known]
        with tracer.span("prox.prox_data", pixels=g_known.size) as attrs:
            t, attrs["calls"] = repeat(lambda: pt.prox_data(g_known, f_known, 2.0 * lam0))
        layers["prox_data_ns"] = t / g_known.size * 1e9
        if not w.noiseless:
            prox_sweep_s += t
        layers["prox_sweep_ms"] = prox_sweep_s * 1e3

        unwrapped = x0 + 1.0
        with tracer.span("circle.wrap", elements=unwrapped.size) as attrs:
            t, attrs["calls"] = repeat(lambda: pt.wrap(unwrapped))
        layers["wrap_ns"] = t / unwrapped.size * 1e9

        with tracer.span("fileio.render_hue") as attrs:
            t, attrs["calls"] = repeat(lambda: pt.render_hue(report.image))
            render_bytes = len(pt.render_hue(report.image))
        layers["render_ms"] = t * 1e3

    layers["sweep_mb_computed"] = sweep_bytes(groups, known, w.noiseless) / 1e6
    io_bytes = sum(os.path.getsize(paths[k]) for k in ("f", "mask", "out")) + render_bytes
    layers["io_mb"] = io_bytes / 1e6
    return layers


def layer_metrics(w, spans, probed, energy_evals) -> dict:
    """Combine span durations and probe figures into the per-layer metrics."""
    init = next(s for s in spans if s["name"] == "initialization.initialize")
    unknown_px = init["attrs"]["unknown_px"]
    init_s = init["end"] - init["start"]
    stencils_s = tracing.duration(spans, "model.enumerate_stencils")
    cppa_s = tracing.duration(spans, "solver.run_cppa")
    sweep_ms = (cppa_s - stencils_s - energy_evals * probed["energy_ms"] / 1e3) / w.sweeps * 1e3
    read_s = tracing.duration(spans, "fileio.read_phase") + tracing.duration(spans, "fileio.read_mask")
    return {
        **probed,
        "init_s": init_s,
        "unknown_px": unknown_px,
        "init_us_per_unknown_px": init_s / max(unknown_px, 1) * 1e6,
        "stencils_s": stencils_s,
        "energy_evals": energy_evals,
        "cppa_s": cppa_s,
        "sweep_ms": sweep_ms,
        "sweep_other_ms": sweep_ms - probed["prox_sweep_ms"],
        "read_ms": read_s * 1e3,
        "write_ms": tracing.duration(spans, "fileio.write_phase") * 1e3,
    }


def main(config_path: str) -> int:
    with open(config_path) as handle:
        config = json.load(handle)
    w = workloads.Workload.from_dict(config["workload"])
    paths = config["paths"]
    truth = pt.read_phase(paths["truth"])
    result = {"ops": []}

    warm, _ = gated_op(w.warmup(), paths, truth)
    result["ops"].append({**warm, "warmup": True})
    if config["mode"] == "loop":
        start = time.perf_counter()
        while True:
            op, _ = gated_op(w, paths, truth)
            result["ops"].append({**op, "warmup": False})
            if time.perf_counter() - start >= config["seconds"]:
                break
    else:
        untraced, _ = gated_op(w, paths, truth)
        result["ops"].append({**untraced, "warmup": False})
        tracer = tracing.Tracer(prefix="w")
        tracer.new_trace()
        with tracer.span("op"):
            traced, data = gated_op(w, paths, truth, tracer)
        result["ops"].append({**traced, "warmup": False, "traced": True})
        probed = probe_layers(w, paths, tracer, *data)
        result["layers"] = layer_metrics(w, tracer.spans, probed, traced["energy_evals"])
        result["layers"]["trace_overhead_s"] = traced["restore_s"] - untraced["restore_s"]
        result["spans"] = tracer.spans

    with open(config["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
