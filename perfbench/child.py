"""One repetition of a workload, in a fresh process so lrq's memo caches
start empty.

Usage: python3 perfbench/child.py --workload NAME --seed N [--trace-out PATH]

Prints one JSON line: the monotonic time at which set-up ended and the host's
slowdown then, the per-item latencies in reference seconds (see hostspeed.py),
peak RSS, failures, and with --trace-out the per-layer metrics (the spans are
written to PATH.bin / PATH.json).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # reading taken just before it started this process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import lrq.cli  # noqa: F401  (imports every lrq module)

    if not Path(lrq.__file__).resolve().is_relative_to(SRC):
        print(f"lrq imported from {lrq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import workloads

    items = workloads.items_for(args.workload, args.seed)
    setup_done = _now()
    probe = hostspeed.Probe()
    setup_slowdown = probe.slowdown()

    tracer = None
    if args.trace_out is not None:
        import tracer as tracing
        from lrq import airy

        tracer = tracing.Tracer()
        tracer.install()
        cache_before = tracer.cache_counts()
        airy_before = len(airy._CACHE)

    outputs: list[str | None] = []
    errors: list[str] = []
    spans: list[tuple[float, float]] = []
    clock = time.perf_counter
    # A traced child samples the host's speed only between items, where no
    # span is open, and scales its times by the median slowdown.
    if tracer is None:
        probe.start()
    else:
        probe.sample()
    for item in items:
        t0 = clock()
        try:
            out = item.run()
        except Exception as e:  # every item is attempted; a raise is a failure
            out = None
            errors.append(f"{item.key}: raised {type(e).__name__}: {e}")
        spans.append((t0, clock()))
        outputs.append(out)
        if tracer is not None and clock() - probe.ends[-1] > hostspeed.EVERY_S:
            probe.sample()
    if tracer is None:
        probe.stop()
        latencies = [probe.reference_seconds(t0, t1) for t0, t1 in spans]
        layers = None
    else:
        tracer.uninstall()
        probe.sample()
        slowdown = probe.median_slowdown()
        latencies = [(t1 - t0) / slowdown for t0, t1 in spans]
        layers = tracing.layer_metrics(
            tracer, cache_before, tracer.cache_counts(), len(airy._CACHE) - airy_before,
            slowdown,
        )
        tracer.write(args.trace_out)
        for name, cache in tracing.MEMOIZED.items():
            looked_up = layers[f"cache.{cache}.hits"] + layers[f"cache.{cache}.misses"]
            if layers[f"{name}.calls"] != looked_up:
                errors.append(f"tracer saw {layers[f'{name}.calls']} calls of {name}, "
                              f"cache_info() {looked_up}: a binding was missed")

    reference = json.loads(REFERENCE.read_text())
    for item, out in zip(items, outputs):
        if out is not None:
            msg = workloads.check(item, out, reference)
            if msg is not None:
                errors.append(msg)

    print(json.dumps({
        "setup_done": setup_done,
        "setup_slowdown": setup_slowdown,
        "latencies": latencies,
        "attempted": len(items),
        "failed": len(errors),
        "errors": errors[:5],
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
