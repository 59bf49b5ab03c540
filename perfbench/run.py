"""lrq benchmark: cold sweeps, a warm CLI request stream, and a traced run.

Usage:
    python3 perfbench/run.py --workload {cohomology,airy,hopf,cli,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs in a fresh child process (perfbench/child.py), one after
another, until --seconds have been measured (at least three repetitions).
End-to-end metrics always come from untraced children (see Tally.summary)
and are in reference seconds, corrected for the host's speed (hostspeed.py).
With --trace 1 one extra traced child gives the per-layer metrics, and the
tracing overhead is its sweep time minus the untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --workload all the workloads' repetitions
are interleaved and only the tables are printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TRACE_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
CHILD_TIMEOUT_S = 40.0
TRACED_TIMEOUT_S = 60.0
# No new repetition starts once this much time has passed, so a run ends
# within 180 s even when its last untraced and traced children time out.
HARD_STOP_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(workload: str, seed: int, trace_out: Path | None = None) -> dict:
    """One repetition.  A child that hangs, dies or prints no result comes
    back with "ok": False and counts as failed."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    started = _now()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=TRACED_TIMEOUT_S if trace_out else CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "elapsed": _now() - started, "why": "timed out"}
    elapsed = _now() - started
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        rep = None
    if not isinstance(rep, dict):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"ok": False, "elapsed": elapsed,
                "why": f"exit {proc.returncode}: " + " | ".join(tail)}
    rep["ok"] = True
    rep["elapsed"] = elapsed
    rep["setup_s"] = (rep["setup_done"] - started) / rep["setup_slowdown"]
    return rep


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Tally:
    """The repetitions of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reps: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.items = 1

    def add(self, rep: dict) -> None:
        self.reps.append(rep)
        if rep["ok"]:
            self.items = rep["attempted"]
            self.attempted += rep["attempted"]
            self.failed += rep["failed"]
            for msg in rep["errors"]:
                print(f"{self.workload}: FAIL {msg}", file=sys.stderr)
        else:
            self.attempted += self.items
            self.failed += self.items
            print(f"{self.workload}: child failed ({rep['why']})", file=sys.stderr)

    @property
    def good(self) -> list[dict]:
        return [r for r in self.reps if r["ok"]]

    def series(self) -> dict[str, list[float]]:
        """Per-repetition values, for the quartiles shown beside a summary."""
        return {
            "setup_s": [r["setup_s"] for r in self.good],
            "wall_s": [sum(r["latencies"]) for r in self.good],
            "peak_rss_mib": [r["rss_mib"] for r in self.good],
        }

    def per_request(self) -> list[float]:
        """Each request's median time across the repetitions, which all run
        the same requests in the same order from the same cold start."""
        return [statistics.median(times) for times in zip(*(r["latencies"] for r in self.good))]

    def summary(self) -> dict[str, float]:
        """The end-to-end metrics, in reference seconds (hostspeed.py).  A
        request is one sweep item or one CLI call; wall_s, the latency
        percentiles and req_per_s are taken over the per-request medians.
        Set-up time and peak RSS are medians over the repetitions."""
        times = self.per_request()
        series = self.series()
        wall = sum(times)
        return {
            "setup_s": statistics.median(series["setup_s"]),
            "wall_s": wall,
            "peak_rss_mib": statistics.median(series["peak_rss_mib"]),
            "req_p50_ms": _percentile(times, 50) * 1e3,
            "req_p99_ms": _percentile(times, 99) * 1e3,
            "req_per_s": len(times) / wall,
        }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workloads: list[str], seed: int, seconds: float) -> dict[str, Tally]:
    """Untraced repetitions, interleaved across workloads, for about
    `seconds` per workload."""
    tallies = {w: Tally(w) for w in workloads}
    begin = _now()
    budget = seconds * len(workloads)
    while True:
        for w in workloads:
            tallies[w].add(run_child(w, seed))
        elapsed = _now() - begin
        round_s = sum(statistics.median(r["elapsed"] for r in t.reps) for t in tallies.values())
        if elapsed > HARD_STOP_S * len(workloads) or (
            all(len(t.reps) >= MIN_REPS for t in tallies.values())
            and elapsed + round_s > budget
        ):
            return tallies


def traced(tally: Tally, seed: int) -> dict | None:
    """Per-layer metrics from one traced child, or None if it failed."""
    untraced_wall = tally.summary()["wall_s"]
    rep = run_child(tally.workload, seed, trace_out=TRACE_DIR / f"spans-{tally.workload}-seed{seed}")
    tally.add(rep)
    if not rep["ok"]:
        return None
    return {**rep["layers"], "trace.overhead_s": sum(rep["latencies"]) - untraced_wall}


def result(tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def print_table(tally: Tally) -> None:
    n = len(tally.good)
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"== {tally.workload}: {n} repetitions, fail_ratio {ratio:.4g} "
          f"({tally.failed}/{tally.attempted})")
    series = tally.series()
    for metric, value in tally.summary().items():
        spread = ""
        if metric in series:
            q1, med, q3 = quartiles(series[metric])
            spread = f"(per repetition: q1 {q1:.6g}, median {med:.6g}, q3 {q3:.6g})"
        print(f"  {metric:14s} {value:12.6g} {END_TO_END[metric]:4s} {spread}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lrq" / "__init__.py").is_file():
        print(f"no lrq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("reference.json missing; run perfbench/record_reference.py", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tallies = measure(names, args.seed, args.seconds)
    if not all(t.good for t in tallies.values()):
        print("no repetition of some workload produced a result", file=sys.stderr)
        return 1

    layer_units = metric_units()
    for tally in tallies.values():
        print_table(tally)
        if args.trace:
            layers = traced(tally, args.seed)
            if layers is None:
                print(f"{tally.workload}: traced run failed", file=sys.stderr)
                return 1
            for name in layer_units:
                print(f"  {name:40s} {layers[name]:.6g} {layer_units[name]}")

    if args.workload == "all":
        return 0
    tally = tallies[args.workload]
    if args.trace:
        print(json.dumps(result(tally, layers, layer_units)))
    else:
        print(json.dumps(result(tally, tally.summary(), END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
