"""Self-tests for the benchmark (run: ``python -m pytest perfbench``).

They check the oracle catches corrupted output, that a traced sample of
every workload reports every per-layer metric with activity exactly on
the layers the workload uses, that only clean samples feed the medians,
and that ``BENCHMARK.json`` is well formed and names the metrics the
catalogue defines.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalogue  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.parallel.factor import FactorWorkerTask  # noqa: E402
from repro.semantics import hamming_reference, primes_reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = workloads.SIZES["small"]
#: per-layer metrics the sample itself reports (run.py adds the rest)
SAMPLE_LAYER_METRICS = [n for n in catalogue.PER_LAYER
                        if n not in ("trace.overhead_pct",
                                     "baseline.sequential_ms")]


def _sample(items: int, failed: int, **kw) -> dict:
    return {"traced": False, "setup_s": 0.01, "run_s": 1.0, "items": items,
            "failed": failed, "cpu_s": 1.0, "rss_mb": 30.0,
            "latencies_ms": [], "steal_share": 0.0, **kw}


def _farm_results(inputs: dict) -> list:
    b = inputs["batch"]
    return [FactorWorkerTask(inputs["n"], i, 2 * b * i, b).run()
            for i in range(inputs["tasks"])]


def test_benchmark_json_shape():
    doc = BENCHMARK
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher")
               for m in doc["end_to_end"] + doc["per_layer"])
    assert set(bounds) == set(catalogue.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(catalogue.PER_LAYER)
    assert ({w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
            == set(catalogue.ALL))
    layers = catalogue.LAYERS
    assert set(layers) == set(catalogue.PER_LAYER.values())
    for _, used_on, activity, moves in layers.values():
        assert catalogue.PER_LAYER[activity]
        assert set(used_on) <= set(catalogue.ALL)
        for metric, workloads_moved in moves.items():
            assert metric in catalogue.END_TO_END
            assert set(workloads_moved) <= set(used_on)


def test_correct_output_has_no_failures():
    below = SMALL["below"]
    assert workloads.sieve_failures(primes_reference(below=below),
                                    primes_reference(below=below),
                                    below - 2) == 0
    ham = hamming_reference(50)
    assert workloads.hamming_failures(list(ham), ham) == 0
    inputs = workloads.farm_inputs(5, SMALL)
    assert workloads.farm_failures(_farm_results(inputs), inputs) == 0


def test_dropped_prime_raises_failed_ratio():
    below = SMALL["below"]
    expected = primes_reference(below=below)
    got = expected[:10] + expected[11:]
    failed = workloads.sieve_failures(got, expected, below - 2)
    assert failed > 0
    summary = run.summarize([_sample(below - 2, 0),
                             _sample(below - 2, failed)], below - 2)
    assert summary["failed_ratio"] > 0


def test_duplicated_task_index_raises_failed_ratio():
    inputs = workloads.farm_inputs(5, SMALL)
    results = _farm_results(inputs)
    results[3] = results[2]
    failed = workloads.farm_failures(results, inputs)
    assert failed > 0
    summary = run.summarize([_sample(inputs["tasks"], failed)],
                            inputs["tasks"])
    assert summary["failed_ratio"] > 0


def test_wrong_farm_result_and_hamming_value_fail():
    inputs = workloads.farm_inputs(5, SMALL)
    results = _farm_results(inputs)
    results[-1].p = None            # the factor goes missing
    assert workloads.farm_failures(results, inputs) > 0
    ham = hamming_reference(50)
    assert workloads.hamming_failures(ham[:-1] + [ham[-1] + 1], ham) > 0


def test_crashed_sample_counts_all_items_failed():
    crashed = {"traced": False, "error": "boom", "items": None,
               "failed": None}
    summary = run.summarize([_sample(100, 0), crashed], 100)
    assert summary["failed"] == 100 and summary["attempted"] == 200


def test_stolen_samples_are_checked_but_left_out_of_medians():
    clean = [_sample(100, 0), _sample(100, 0)]
    stolen = [_sample(100, 1, run_s=2.0, steal_share=0.2) for _ in range(2)]
    summary = run.summarize([*stolen, *clean], 100)
    assert summary["failed"] == 2 and summary["attempted"] == 400
    assert summary["metrics"]["items_per_s"] == 100
    assert summary["samples"] == 2


def test_host_without_steal_reporting_uses_every_sample():
    samples = [_sample(100, 0, run_s=t) for t in (1.0, 2.0, 4.0)]
    for s in samples:
        del s["steal_share"]
    assert run.summarize(samples, 100)["samples"] == 3


def test_setup_is_the_median_of_cold_setups_of_clean_samples_and_probes():
    samples = [_sample(100, 0, setup_s=t) for t in (0.5, 0.01, 0.03)]
    assert run.summarize(samples, 100)["metrics"]["setup_s"] == 0.03
    probes = [{"setup_s": 0.6, "steal_share": 0.0},
              {"setup_s": 0.7, "steal_share": 0.0},
              {"setup_s": 0.0, "steal_share": 0.5},
              {"error": "boom"}]
    assert run.summarize(samples, 100, probes)["metrics"]["setup_s"] == 0.5


def test_setup_only_probe_reports_a_cold_setup():
    probe = run.run_sample("sieve-thread", 1, size="small", setup_only=True)
    assert probe.get("error") is None
    assert probe["setup_s"] > 0 and probe["steal_share"] >= 0


@pytest.mark.parametrize("trace, fake", [
    (0, lambda w, s, trace=False, **kw: _sample(100, 0, steal_share=0.2)),
    # every traced sample timed out: no setup_s, nothing to report
    (1, lambda w, s, trace=False, **kw: _sample(100, 0, traced=trace)
     if not trace else {"traced": True, "error": "timeout", "items": None,
                        "failed": None}),
])
def test_too_few_clean_samples_report_nothing(monkeypatch, tmp_path, capsys,
                                              trace, fake):
    def slow_fake(*args, **kw):
        time.sleep(0.05)
        return fake(*args, **kw)

    monkeypatch.setattr(run, "run_sample", slow_fake)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "LAST_START_S", 0.5)
    code = run.main(["--workload", "sieve-thread", "--seed", "1",
                     "--seconds", "0.3", "--trace", str(trace)])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


@pytest.mark.parametrize("workload", catalogue.ALL)
def test_traced_sample_reports_every_layer(workload):
    sample = run.run_sample(workload, seed=3, trace=True, size="small")
    assert sample["error"] is None
    assert sample["failed"] == 0
    layers = sample["layers"]
    assert sorted(layers) == sorted(SAMPLE_LAYER_METRICS)
    for layer, (_, used_on, activity, _) in catalogue.LAYERS.items():
        if activity not in layers:
            continue
        if workload in used_on:
            assert layers[activity] > 0, (layer, activity)
        else:
            assert layers[activity] == 0, (layer, activity)


def test_trace_metrics_include_overhead_and_baseline():
    untraced = [run.run_sample("sieve-thread", 1, baseline=True,
                               size="small")]
    traced = [run.run_sample("sieve-thread", 1, trace=True, size="small")]
    # the derivation is under test here, not the host: count both samples
    # as clean whatever steal they saw
    for s in untraced + traced:
        s["steal_share"] = 0.0
    metrics = run.layer_metrics(untraced, traced)
    assert sorted(metrics) == sorted(catalogue.PER_LAYER)
    assert metrics["trace.overhead_pct"] != 0
    assert metrics["baseline.sequential_ms"] > 0


def test_refuses_to_run_without_the_source_tree():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sieve-thread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
