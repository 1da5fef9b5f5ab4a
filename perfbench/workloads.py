"""The four workloads: inputs from a seed, build, run, and output oracle.

Each workload is driven only through the public API.  A run has two timed
phases: *setup* (graph build, plus cluster start, worker shipping and
``optimize()`` where used, until ``Network.start()`` returns) and *run*
(from ``start()`` until ``join()`` returns).  The oracle then counts
failed items against a reference computed independently of the runtime.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

# imported up front so setup time never includes a lazy import
import repro.analysis.fuse  # noqa: F401
import repro.analysis.races  # noqa: F401
import repro.distributed  # noqa: F401
import repro.kpn.aio  # noqa: F401
import repro.kpn.compile  # noqa: F401
from repro.distributed import LocalCluster
from repro.kpn import Network
from repro.parallel import FactorProducerTask, build_farm, make_weak_key
from repro.parallel.factor import FactorResult, FactorWorkerTask
from repro.processes.networks import hamming, primes
from repro.semantics import hamming_reference, primes_reference
from repro.telemetry.core import TELEMETRY
from repro.telemetry.profile import PROFILER

#: full-size inputs, and the reduced ones the self-tests use
SIZES = {
    "full": {"below": 4000, "hamming": 10000, "tasks": 250, "batch": 4096,
             "bits": 512},
    "small": {"below": 600, "hamming": 1500, "tasks": 16, "batch": 512,
              "bits": 256},
}

#: how long join() may take before the run counts as failed
JOIN_TIMEOUT_S = 30.0
#: farm results recomputed locally by the oracle, per run
ORACLE_SAMPLE = 6


@dataclass
class Run:
    """What one workload run produced, before the oracle."""

    network: Network
    items: int
    results: list
    check: Callable[[list], int]
    teardown: Callable[[], None] = lambda: None
    #: farm only: task index -> emit / arrival time (perf_counter)
    emitted: dict = field(default_factory=dict)
    arrived: dict = field(default_factory=dict)


def _sieve(backend: str):
    def build(size: dict) -> Run:
        below = size["below"]
        net = Network(name="primes", backend=backend)
        built = primes(below=below, network=net)
        return Run(net, below - 2, built.results,
                   lambda got: sieve_failures(
                       got, primes_reference(below=below), below - 2))

    return build


def sieve_failures(got: list, expected: list, candidates: int) -> int:
    """Candidates the sieve classified wrongly: primes missing, non-primes
    or duplicates emitted, and primes emitted out of order."""
    want = set(expected)
    wrong = len(want - set(got)) + sum(1 for x in got if x not in want)
    wrong += len(got) - len(set(got))
    if not wrong and got != expected:
        wrong = sum(1 for a, b in zip(got, expected) if a != b)
    return min(wrong, candidates)


def hamming_failures(got: list, expected: list) -> int:
    """Positions whose value is missing or wrong, plus surplus outputs."""
    wrong = sum(1 for i, x in enumerate(expected)
                if i >= len(got) or got[i] != x)
    return min(wrong + max(0, len(got) - len(expected)), len(expected))


def _hamming_build(size: dict) -> Run:
    count = size["hamming"]
    TELEMETRY.reset().enable()
    PROFILER.reset().enable()
    built = hamming(count=count, channel_capacity=16)

    def teardown() -> None:
        PROFILER.disable()
        TELEMETRY.disable()

    return Run(built.network, count, built.results,
               lambda got: hamming_failures(got, hamming_reference(count)),
               teardown)


def farm_inputs(seed: int, size: dict) -> dict:
    """The seed picks the key; its factor lies in the last task, so every
    task runs and the last result reports the factor."""
    n, p, _ = make_weak_key(bits=size["bits"],
                            found_at_task=size["tasks"] - 1,
                            batch=size["batch"], seed=seed)
    return {**size, "n": n, "p": p, "seed": seed}


class StampedProducerTask(FactorProducerTask):
    """Records when each worker task leaves the producer."""

    def __init__(self, n: int, batch: int, max_tasks: int,
                 emitted: dict) -> None:
        super().__init__(n, batch=batch, max_tasks=max_tasks)
        self.emitted = emitted

    def run(self) -> Optional[FactorWorkerTask]:
        task = super().run()
        if task is not None:
            self.emitted[task.task_index] = time.perf_counter()
        return task


def farm_failures(got: list, size: dict) -> int:
    """Task indices missing or repeated, plus results that differ from a
    local ``FactorWorkerTask.run()`` on a seeded sample of tasks (always
    including the task that finds the factor)."""
    tasks, batch, n = size["tasks"], size["batch"], size["n"]
    seen: dict = {}
    for r in got:
        if isinstance(r, FactorResult):
            seen.setdefault(r.task_index, []).append(r)
    wrong = sum(1 for i in range(tasks) if len(seen.get(i, ())) != 1)
    wrong += sum(len(v) for i, v in seen.items() if not 0 <= i < tasks)
    wrong += sum(1 for r in got if not isinstance(r, FactorResult))
    rng = random.Random(size["seed"])
    sample = {tasks - 1, *rng.sample(range(tasks), min(ORACLE_SAMPLE, tasks))}
    for i in sorted(sample):
        if len(seen.get(i, ())) != 1:
            continue
        if seen[i][0] != FactorWorkerTask(n, i, 2 * batch * i, batch).run():
            wrong += 1
    last = seen.get(tasks - 1)
    if last and last[0].p != size["p"]:
        wrong += 1
    return min(wrong, tasks)


def _farm_build(size: dict) -> Run:
    emitted: dict = {}
    arrived: dict = {}

    def stop_when(value) -> bool:
        arrived[value.task_index] = time.perf_counter()
        return value.found

    cluster = LocalCluster(2, mode="process").start()
    try:
        producer = StampedProducerTask(size["n"], size["batch"],
                                       size["tasks"], emitted)
        handle = build_farm(producer, n_workers=2, mode="dynamic",
                            cluster=cluster, stop_when=stop_when)
        handle.network.optimize()
    except BaseException:
        cluster.stop()
        raise
    return Run(handle.network, size["tasks"], handle.results,
               lambda got: farm_failures(got, size), cluster.stop,
               emitted, arrived)


def _farm_baseline(size: dict) -> None:
    producer = FactorProducerTask(size["n"], batch=size["batch"],
                                  max_tasks=size["tasks"])
    while (task := producer.run()) is not None:
        task.run()


def _fixed(seed: int, size: dict) -> dict:
    """The sieve and Hamming networks take no input but their size."""
    return size


#: name -> (inputs from seed and size (untimed), build until just before
#: start() (timed as setup), plain-Python sequential baseline)
WORKLOADS = {
    "sieve-thread": (_fixed, _sieve("thread"),
                     lambda size: primes_reference(below=size["below"])),
    "sieve-async": (_fixed, _sieve("async"),
                    lambda size: primes_reference(below=size["below"])),
    "farm-cluster": (farm_inputs, _farm_build, _farm_baseline),
    "hamming-profiled": (_fixed, _hamming_build,
                         lambda size: hamming_reference(size["hamming"])),
}


def latencies_ms(run: Run) -> List[float]:
    """Per-task emit-to-arrival latencies (farm only)."""
    return [(run.arrived[i] - run.emitted[i]) * 1e3
            for i in sorted(run.arrived) if i in run.emitted]
