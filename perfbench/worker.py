"""One workload in one fresh process.

Prints ``{"ready": ...}`` once grusskit is imported and the seeded inputs
are built (the end of set-up), then runs ops in a closed loop from a single
client for ``--seconds`` of op time, checks every output outside the timed
region, and prints one JSON result line.  With ``--trace 1`` it then
installs the span wrappers and replays the same ops, for at most half of
``--seconds``, to get per-layer numbers and the tracing overhead.
``--setup-only`` stops after the ready line and one reference timing.

Between runs of ops, at least every ``REF_EVERY_S``, the worker times the
reference kernel (``reference.py``; not part of the timed phase).  Each
op's wall time is divided by the machine's speed factor around it, so the
end-to-end metrics read as at the reference machine's usual speed; the
unscaled wall-time metrics are reported next to them.

Run through ``perfbench/run.py``; this file is not a user entry point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
MAX_REPORTED_FAILURES = 20
REF_EVERY_S = 0.5

# Fixed per workload so that two commits are compared at the same
# percentile; each is as high as the op counts allow while keeping more than
# ten samples beyond it.  At the lowest op counts of 36 s runs on the
# reference machine (10 497, 770, 1 269) 52, 15 and 25 samples lie beyond.
TAIL_PERCENTILE = {"battery": 99.5, "quad_adaptive": 98.0, "cli_mix": 98.0}


def _import_grusskit():
    src = ROOT / "src"
    if not (src / "grusskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no grusskit sources under {src}")
    sys.path.insert(0, str(src))
    import grusskit.cli  # noqa: F401  (set-up covers the full CLI import)
    import grusskit
    if Path(grusskit.__file__).resolve().parent != src / "grusskit":
        sys.exit(f"perfbench: imported grusskit from {grusskit.__file__}, "
                 f"not from {src}")


def _percentile(sorted_xs: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(len(sorted_xs) * pct / 100.0) - 1
    return sorted_xs[max(0, min(len(sorted_xs) - 1, k))]


class Pass:
    """Ops ``0, 1, ...`` run back to back for ``seconds`` of op time (or
    ``n_max`` ops), in segments of about ``REF_EVERY_S`` with the reference
    kernel timed before the first segment and after each one."""

    def __init__(self, execute, seconds: float, n_max: int | None = None):
        self.latencies: list[float] = []
        self.outputs: list[tuple] = []
        self.segments: list[tuple[int, int, float]] = []  # first, end, s
        self.refs = [reference.measure()]
        timed, i = 0.0, 0
        while timed < seconds and i != n_max:
            start, first = perf_counter(), i
            while i != n_max:
                t0 = perf_counter()
                if t0 - start >= REF_EVERY_S or timed + t0 - start >= seconds:
                    break
                try:
                    out, exc = execute(i), None
                except Exception:
                    out, exc = None, traceback.format_exc(limit=4)
                self.latencies.append(perf_counter() - t0)
                self.outputs.append((out, exc))
                i += 1
            elapsed = perf_counter() - start
            timed += elapsed
            self.segments.append((first, i, elapsed))
            self.refs.append(reference.measure())

    def factors(self) -> list[float]:
        """Speed factor per segment: median of the four kernel timings
        around it over the nominal kernel time."""
        return [statistics.median(self.refs[max(0, j - 1):j + 3])
                / reference.NOMINAL_S for j in range(len(self.segments))]

    def scaled(self) -> tuple[list[float], float]:
        """Per-op latencies and total op time at the nominal speed."""
        out, total = [], 0.0
        for (first, end, elapsed), f in zip(self.segments, self.factors()):
            out.extend(x / f for x in self.latencies[first:end])
            total += elapsed / f
        return out, total


def _check_all(workload, outputs):
    verdicts, values, failures = [], [], []
    for i, (out, exc) in enumerate(outputs):
        vals = []
        if exc is None:
            try:
                ok, vals = workload.check(i, out)
            except Exception:
                ok, exc = False, traceback.format_exc(limit=4)
            else:
                if not ok:
                    exc = "output failed the workload check"
        else:
            ok = False
        verdicts.append(ok)
        values.append(vals)
        if not ok:
            failures.append({"op": i, "reproducer": workload.label(i),
                             "error": exc})
    return verdicts, values, failures


def _timing_metrics(latencies: list[float], total: float, pct: float):
    ordered = sorted(latencies)
    return {"throughput_ops_s": [len(latencies) / total, "1/s"],
            "latency_p50_ms": [_percentile(ordered, 50.0) * 1e3, "ms"],
            "latency_tail_ms": [_percentile(ordered, pct) * 1e3, "ms"]}


def _traced_pass(workload, n_ops: int, seconds: float):
    from spans import Tracer, install, layer_metrics
    tracer = Tracer()
    install(tracer)

    def execute(i):
        tracer.current_op = i
        return tracer.call("op", workload.execute, (i,), {})
    traced = Pass(execute, seconds, n_ops)
    return tracer, layer_metrics(tracer), traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_grusskit()
    import numpy
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        print(json.dumps({"reference_s": reference.measure()}), flush=True)
        return 0

    run = Pass(workload.execute, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts, values, failures = _check_all(workload, run.outputs)
    run.outputs.clear()
    n = len(run.latencies)
    pct = TAIL_PERCENTILE[args.workload]
    scaled, scaled_total = run.scaled()
    metrics = _timing_metrics(scaled, scaled_total, pct)
    metrics["peak_rss_mb"] = [peak_rss_mb, "MB"]
    tail = metrics["latency_tail_ms"][0] / 1e3
    factors = run.factors()
    verdict_bits = "".join("1" if ok else "0" for ok in verdicts)
    result = {
        "attempted": n,
        "failed": len(failures),
        "numpy": numpy.__version__,
        "reference_s": run.refs[0],
        "metrics": metrics,
        "metrics_wall": _timing_metrics(
            run.latencies, sum(s[2] for s in run.segments), pct),
        "speed_factor": {"median": statistics.median(factors),
                         "min": min(factors), "max": max(factors),
                         "kernel_timings": len(run.refs)},
        "error_rate": len(failures) / n,
        "tail": {"percentile": pct, "samples": n,
                 "beyond": sum(1 for x in scaled if x > tail)},
        "fingerprint": {
            "ops": n,
            "verdicts_sha256": hashlib.sha256(
                verdict_bits.encode()).hexdigest()},
        "failures": failures[:MAX_REPORTED_FAILURES],
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    ops_path = RESULTS / f"{stem}.ops.jsonl"
    with open(ops_path, "w", encoding="utf-8") as handle:
        for i in range(n):
            handle.write(json.dumps({"op": i, "ok": verdicts[i],
                                     "ms": run.latencies[i] * 1e3,
                                     "values": values[i]}) + "\n")
    result["ops_file"] = str(ops_path.relative_to(ROOT))

    if args.trace:
        tracer, layers, traced = _traced_pass(workload, n, args.seconds / 2)
        m = len(traced.latencies)
        traced_scaled, traced_total = traced.scaled()
        layers["trace.ops"] = (m, "count")
        layers["trace.throughput_ops_s"] = (m / traced_total, "1/s")
        layers["trace.throughput_change_pct"] = (
            100.0 * (sum(scaled[:m]) / sum(traced_scaled) - 1.0), "%")
        per_family = defaultdict(float)
        if args.workload == "battery":
            for i, dt in enumerate(run.latencies):
                per_family[workload.family(i)] += dt
        from grusskit.battery import THEOREM_IDS
        for tid in THEOREM_IDS:
            layers[f"battery.{tid}.ms"] = (per_family[tid] * 1e3, "ms")
        spans_path = RESULTS / f"{stem}.spans.npz"
        tracer.dump(spans_path)
        result["layers"] = {k: list(v) for k, v in layers.items()}
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = {"stored": len(tracer.start),
                           "dropped": tracer.dropped}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
