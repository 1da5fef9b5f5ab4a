"""The repository's benchmark: four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sieve-thread --seed 1 \
        --seconds 16 --trace 0

Runs samples of one workload, each in a fresh interpreter
(``perfbench/sample.py``), until ``--seconds`` are measured, checks every
sample's output against its reference, and prints one line per sample
(with the host), a table of every metric with unit and direction, and
finally one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced samples
alternate and the metrics are the per-layer ones, derived from spans the
benchmark's wrappers record (see ``tracer.py``).

Only *clean* samples count, those during which the hypervisor took at
most ``STEAL_MAX`` of the machine's CPU time: a run measures until its
clean samples add up to ``--seconds`` (and number at least MIN_CLEAN),
and the medians use them alone.  If it cannot get there before
``LAST_START_S``, it prints no result and exits with code 3, so host
contention is never reported as a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the run's own kind of metrics: name -> (unit, better)
END_TO_END = {m["name"]: (m["unit"], m["better"])
              for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"])
             for m in BENCHMARK["per_layer"]}

#: a sample (one fresh interpreter) that takes longer than this is killed
SAMPLE_TIMEOUT_S = 45.0
#: no sample starts after this point, so a run ends well inside 180 s
LAST_START_S = 170.0 - SAMPLE_TIMEOUT_S
#: fewest clean samples a run reports on (a traced run: of each kind)
MIN_CLEAN = 3
MIN_CLEAN_PAIRS = 2
#: a sample is clean if the hypervisor took at most this share of the
#: machine's CPU time while it built and ran the network.  On a 2-vCPU
#: shared VM quiet periods stay below 1 %, contended ones reach 10-45 %
#: for minutes, and within one run a sieve sample at 4-6 % ran about
#: 17 % slower than its clean neighbours.
STEAL_MAX = 0.03
#: share of an untraced run's sampling time spent on setup-only samples
#: (fresh interpreters that only build and start the network): a setup
#: of a few milliseconds is mostly thread-start and GIL-handoff jitter
#: (a sieve's cold setup reads anywhere from 1 to 6 ms), so setup_s needs
#: more cold setups than the full samples give
PROBE_SHARE = 0.3
OUT = HERE / "out"


def child_env() -> dict:
    """The sample interpreter's environment: no ``REPRO_*`` overrides
    (backend, executor, link tuning), fixed hash seed, the source tree
    on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_sample(workload: str, seed: int, trace: bool = False,
               baseline: bool = False, size: str = "full",
               spans_out: Path | None = None,
               setup_only: bool = False) -> dict:
    """One sample in a fresh interpreter; a crash or timeout is returned
    as a sample whose items all failed."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if baseline:
        cmd.append("--baseline")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"sample killed after {SAMPLE_TIMEOUT_S} s"
    finally:
        _reap_group(proc)
    lines = out.strip().splitlines()
    try:
        sample = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"workload": workload, "seed": seed, "traced": trace,
                "error": tail[0], "items": None, "failed": None}
    return sample


def _reap_group(proc: subprocess.Popen) -> None:
    """Kill whatever the sample left in its session (compute servers of a
    killed farm) and wait until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def quantile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method; a single value is itself)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measured(samples: list) -> list:
    """The samples the medians use: completed and clean.

    On a shared virtual machine, steal time is the main source of
    run-to-run spread (on a 2-vCPU host it correlated at 0.85-0.96 with
    sieve run time).  Every sample is still checked and counted; a host
    that does not report steal makes every completed sample clean."""
    return [s for s in samples if s.get("setup_s") is not None
            and s.get("steal_share", 0) <= STEAL_MAX]


def fewest_clean(samples: list) -> int:
    """Clean samples of the kind (untraced, traced) that has fewest."""
    return min(len(measured([s for s in samples if s["traced"] == kind]))
               for kind in {s["traced"] for s in samples})


def summarize(samples: list, items: int, probes: list = ()) -> dict:
    """End-to-end metrics over the measured samples (setup_s also over
    the clean setup-only probes), plus the failure count over every
    sample attempted."""
    ok = measured(samples)
    attempted = sum(s["items"] if s.get("items") is not None else items
                    for s in samples)
    failed = sum(s["failed"] if s.get("failed") is not None else items
                 for s in samples)
    out = {"attempted": attempted, "failed": failed,
           "failed_ratio": failed / attempted if attempted else 1.0,
           "samples": len(ok)}
    if not ok:
        return out
    farm = [x for s in ok for x in s.get("latencies_ms") or []]
    # a batch job's latency is the job itself: start() until join()
    latencies = farm or [s["run_s"] * 1e3 for s in ok]
    out["latency_samples"] = len(latencies)
    out["metrics"] = {
        # every setup here is the first in its interpreter
        "setup_s": statistics.median(
            s["setup_s"] for s in ok + measured(probes)),
        "items_per_s": statistics.median(s["items"] / s["run_s"] for s in ok),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": quantile(latencies, 95),
        "cpu_us_per_item": statistics.median(
            s["cpu_s"] / s["items"] * 1e6 for s in ok),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in ok),
    }
    return out


def layer_metrics(untraced: list, traced: list) -> dict:
    """Per-layer medians over the traced samples, the tracing overhead
    (traced vs untraced items_per_s) and the sequential baseline."""
    ok = [s for s in measured(traced) if s.get("layers")]
    names = [n for n in PER_LAYER
             if n not in ("trace.overhead_pct", "baseline.sequential_ms")]
    m = {n: statistics.median(s["layers"][n] for s in ok) for n in names}
    plain = summarize(untraced, 1).get("metrics", {}).get("items_per_s")
    slow = summarize(traced, 1).get("metrics", {}).get("items_per_s")
    m["trace.overhead_pct"] = (plain / slow - 1) * 100 if plain and slow \
        else 0.0
    base = [s["baseline_ms"] for s in untraced if s.get("baseline_ms")]
    m["baseline.sequential_ms"] = statistics.median(base) if base else 0.0
    return m


def describe(sample: dict, k: int) -> str:
    h = sample.get("host") or {}
    host = (f"nproc={h.get('nproc')} python={h.get('python')} "
            f"load={h.get('loadavg', [None])[0]} "
            f"platform={h.get('platform')}")
    if sample.get("setup_s") is None or sample.get("error"):
        return (f"sample {k} traced={sample['traced']}: FAILED "
                f"({sample.get('error')}) {host}")
    return (f"sample {k} traced={sample['traced']}: "
            f"setup_s={sample['setup_s']:.4f} run_s={sample['run_s']:.3f} "
            f"failed={sample['failed']}/{sample['items']} "
            f"rss_mb={sample['rss_mb']:.1f} "
            f"steal_share={sample['steal_share']:.3f} {host}")


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple:
    """Samples until the clean ones took ``seconds`` and number at least
    MIN_CLEAN (MIN_CLEAN_PAIRS of each kind in a traced run), or until
    no further sample fits before LAST_START_S.  An untraced run also
    spends PROBE_SHARE of its time on setup-only samples; returns the
    samples and those probes."""
    OUT.mkdir(exist_ok=True)
    kinds = [False, True] if trace else [False]
    need = MIN_CLEAN_PAIRS if trace else MIN_CLEAN
    samples: list = []
    probes: list = []
    walls: list = []
    t0 = time.monotonic()
    while True:
        traced = kinds[len(samples) % len(kinds)]
        first = len(samples) < len(kinds)
        s0 = time.monotonic()
        sample = run_sample(
            workload, seed, trace=traced,
            baseline=trace and first and not traced,
            spans_out=OUT / f"spans-{workload}.npz" if traced and first
            else None)
        walls.append(time.monotonic() - s0)
        sample["wall_s"] = walls[-1]
        samples.append(sample)
        print(describe(sample, len(samples)), flush=True)
        with open(OUT / "samples.jsonl", "a") as fh:
            fh.write(json.dumps(sample) + "\n")
        while not trace and (sum(p["wall_s"] for p in probes)
                             < PROBE_SHARE * sum(walls)):
            p0 = time.monotonic()
            probe = run_sample(workload, seed, setup_only=True)
            probe["wall_s"] = time.monotonic() - p0
            probes.append(probe)
            print(f"probe {len(probes)}: setup_s="
                  f"{probe.get('setup_s', float('nan')):.4f} steal_share="
                  f"{probe.get('steal_share', float('nan')):.3f} "
                  f"{probe.get('error') or ''}", flush=True)
        if len(samples) % len(kinds):
            continue
        pair_s = statistics.mean(walls) * len(kinds)
        clean_s = sum(s["wall_s"] for s in measured(samples))
        if (fewest_clean(samples) >= need and clean_s + pair_s > seconds
                or time.monotonic() - t0 + pair_s > LAST_START_S):
            return samples, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    samples, probes = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    # a crashed sample reports no item count: charge it a completed one's
    items = max((s["items"] for s in samples if s.get("items")), default=1)
    e2e = summarize(samples, items)
    need = MIN_CLEAN_PAIRS if args.trace else MIN_CLEAN
    if fewest_clean(samples) < need:
        done = sum(s.get("setup_s") is not None for s in samples)
        print(f"perfbench: {done} of {len(samples)} samples completed, "
              f"{fewest_clean(samples)} of a kind clean, {need} needed (a "
              f"clean sample lost at most {STEAL_MAX:.0%} of the machine's "
              "CPU time to the hypervisor); nothing to report",
              file=sys.stderr)
        return 3 if done else 1

    print(f"{'metric':<28}{'value':>14}  {'unit':<9}{'better':<7}")
    if args.trace:
        metrics = layer_metrics(untraced, traced)
        specs = PER_LAYER
    else:
        metrics = summarize(untraced, items, probes)["metrics"]
        specs = END_TO_END
    for name, value in metrics.items():
        unit, better = specs[name]
        print(f"{name:<28}{value:>14.6g}  {unit:<9}{better:<7}")
    name, unit, better, _ = catalogue.FAILED_RATIO
    print(f"{name:<28}{e2e['failed_ratio']:>14.6g}  {unit:<9}{better:<7}"
          f"({e2e['failed']}/{e2e['attempted']} items; medians over "
          f"{e2e['samples']} of {len(samples)} samples, "
          f"{e2e.get('latency_samples', 0)} latency samples)")
    print(json.dumps({
        "correct": e2e["failed"] == 0,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "metrics": {n: {"value": v, "unit": specs[n][0]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
