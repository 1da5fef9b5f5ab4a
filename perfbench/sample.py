"""One measured sample of one workload, in this (fresh) interpreter.

Usage::

    python3 perfbench/sample.py --workload sieve-thread --seed 1 \
        [--trace] [--baseline] [--size small] [--spans-out PATH]
        [--setup-only]

Prints one JSON object: the timed phases, the oracle's verdict, the host,
and with ``--trace`` the per-layer metrics derived from the spans.
``run.py`` starts one such interpreter per sample, because the telemetry
and profiler hubs are process-global and would carry state from one
sample into the next.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)
# compute servers started by the farm are fresh interpreters too
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg": os.getloadavg()}


def steal_s() -> float:
    """CPU time the hypervisor took from this machine's CPUs, all CPUs
    summed, in seconds (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def setup_only(workload: str, seed: int, size: dict) -> dict:
    """One more cold setup: build and start the network in this fresh
    interpreter, then shut it down unmeasured.  Steal is taken over the
    whole probe, imports included: over the few milliseconds of a sieve's
    setup alone, the 10 ms steal tick would read 0 or 100 %."""
    stolen0, p0 = steal_s(), time.perf_counter()
    import workloads

    prepare, build, _ = workloads.WORKLOADS[workload]
    inputs = prepare(seed, size)
    t0 = time.perf_counter()
    run = build(inputs)
    try:
        run.network.start()
        t1 = time.perf_counter()
        run.network.shutdown()
        run.network.join(timeout=5.0)
    finally:
        run.teardown()
    stolen = steal_s() - stolen0
    return {"workload": workload, "seed": seed, "setup_s": t1 - t0,
            "steal_share": stolen / ((time.perf_counter() - p0)
                                     * os.cpu_count()),
            "host": host()}


def measure(workload: str, seed: int, size: dict, trace: bool,
            baseline: bool, spans_out: str | None) -> dict:
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    prepare, build, reference = workloads.WORKLOADS[workload]
    out: dict = {"workload": workload, "seed": seed, "traced": trace,
                 "error": None, "latencies_ms": []}
    inputs = prepare(seed, size)
    stolen0 = steal_s()
    t0 = time.perf_counter()
    run = build(inputs)
    out["items"] = run.items
    try:
        run.network.start()
        t1 = time.perf_counter()
        cpu0 = time.process_time()
        finished = run.network.join(timeout=workloads.JOIN_TIMEOUT_S)
        t2 = time.perf_counter()
        cpu1, stolen1 = time.process_time(), steal_s()
        if not finished:
            run.network.shutdown()
            run.network.join(timeout=5.0)
            raise TimeoutError(
                f"join() did not finish in {workloads.JOIN_TIMEOUT_S} s")
        out["setup_s"] = t1 - t0
        out["run_s"] = t2 - t1
        out["cpu_s"] = cpu1 - cpu0
        out["steal_s"] = stolen1 - stolen0
        # the hypervisor's share of the machine's CPU time while the
        # network was built and ran
        out["steal_share"] = out["steal_s"] / ((t2 - t0) * os.cpu_count())
        out["failed"] = run.check(list(run.results))
        out["latencies_ms"] = workloads.latencies_ms(run)
    except Exception as exc:  # noqa: BLE001 - a failed run is data
        out["error"] = "".join(traceback.format_exception_only(exc)).strip()
        out["failed"] = run.items
    finally:
        run.teardown()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics(run.network)
        if spans_out:
            tracer.save(spans_out)
    if baseline:
        b0 = time.perf_counter()
        reference(inputs)
        out["baseline_ms"] = (time.perf_counter() - b0) * 1e3
    out["host"] = host()
    return out


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed,
                                    workloads.SIZES[args.size])))
        return 0
    result = measure(args.workload, args.seed, workloads.SIZES[args.size],
                     args.trace, args.baseline, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
