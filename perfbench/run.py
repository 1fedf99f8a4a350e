"""grusskit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Run from the root of a grusskit checkout.  ``setup_s`` is the median over
several fresh worker processes of the time from process start to the end of
set-up (``import grusskit.cli`` plus seeded input generation); the last of
them goes on to run the timed closed loop (see ``worker.py``).  The last
line of standard output is the result object; the line before it is the
full report, which also goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("battery", "quad_adaptive", "cli_mix")
SETUP_SAMPLES = 5          # fresh processes timed to the end of set-up
RUN_LIMIT_S = 170.0        # whole invocation, all children included
END_TO_END = ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms",
              "peak_rss_mb")


class BenchError(Exception):
    pass


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(args, deadline: float, setup_only: bool):
    """Start a worker; return (seconds to its ready line, its last line)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [],
                             max(0.0, deadline - perf_counter()))[0]:
            raise subprocess.TimeoutExpired(cmd, RUN_LIMIT_S)
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.startswith('{"ready"'):
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def run(args) -> tuple[dict, dict]:
    deadline = perf_counter() + RUN_LIMIT_S
    probes = [_worker(args, deadline, True) for _ in range(SETUP_SAMPLES - 1)]
    setup, res = _worker(args, deadline, False)
    probes.append((setup, res))
    setups = [s for s, _ in probes]
    # each process's set-up time at the reference machine speed, from the
    # reference kernel timed in that process right after set-up
    scaled = [s * NOMINAL_S / p["reference_s"] for s, p in probes]
    metrics = {k: {"value": res["metrics"][k][0], "unit": res["metrics"][k][1]}
               for k in END_TO_END}
    metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    wall = dict(res["metrics_wall"],
                setup_s=[statistics.median(setups), "s"])
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                        "python": platform.python_version(),
                        "numpy": res["numpy"], "git_sha": _git_sha(),
                        "load": "one process, one client, no pools"},
        "metrics": metrics,
        "metrics_wall": {k: {"value": v, "unit": u}
                         for k, (v, u) in wall.items()},
        "speed_factor": res["speed_factor"],
        "error_rate": res["error_rate"],
        "setup_samples_s": setups,
        "tail": res["tail"],
        "fingerprint": res["fingerprint"],
        "failures": res["failures"],
        "ops_file": res["ops_file"],
    }
    if args.trace:
        report["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in res["layers"].items()}
        report["spans_file"] = res["spans_file"]
        report["spans"] = res["spans"]
        metrics = report["layers"]
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "grusskit" / "__init__.py").is_file():
        print(f"perfbench: no grusskit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (results / f"{name}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
