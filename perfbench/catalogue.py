"""What the benchmark knows about its metrics beyond ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one record of the
workloads and of each metric's name, unit, direction and bound; ``run.py``
reads them from there.  This module holds what that file has no place
for: how each end-to-end metric is defined, the ``failed_ratio`` metric
that is printed but not gated, which layer each per-layer metric belongs
to, on which workloads each layer is used at all, and which end-to-end
metric a change to each layer should move, on which workload.
"""

from __future__ import annotations

#: end-to-end metric -> definition
END_TO_END = {
    "setup_s": "graph build, cluster start, worker shipping and optimize() "
               "until Network.start() returns, in a fresh interpreter; "
               "median over the clean samples and setup-only samples",
    "items_per_s": "input items / (start() .. join()); median over samples",
    "latency_p50_ms": "farm: task emit -> result arrival, pooled over "
                      "samples; sieve/Hamming: start() -> join() per job",
    "latency_p95_ms": "95th percentile of the same latencies",
    "cpu_us_per_item": "client-process user+sys CPU over the run phase per "
                       "item; median over samples",
    "peak_rss_mb": "ru_maxrss of the client process; median over samples",
}

#: Reported with every run but not gated: it is 0 on a correct program,
#: so a share-of-parent bound is meaningless.  The result line carries
#: the same information as ``attempted`` / ``failed``.
FAILED_RATIO = ("failed_ratio", "fraction", "lower",
                "items missing, wrong, or lost to a raise or timeout, over "
                "items attempted")

ALL = ("sieve-thread", "sieve-async", "farm-cluster", "hamming-profiled")
SIEVES = ("sieve-thread", "sieve-async")
FARM = ("farm-cluster",)
HAMMING = ("hamming-profiled",)

#: layer -> (modules, workloads that use it, its activity metric, the
#: end-to-end metrics a change to it should move and on which workloads).
#: Everywhere else the prediction is no change.
LAYERS = {
    "buffers": ("kpn.buffers", ALL, "buffers.ops",
                {"items_per_s": SIEVES, "cpu_us_per_item": SIEVES}),
    "streams": ("kpn.streams, kpn.channel", ALL, "streams.ops",
                {"items_per_s": ("sieve-thread",)}),
    "codecs": ("processes.codecs", ALL, "codecs.ops",
               {"items_per_s": SIEVES, "latency_p50_ms": FARM}),
    "process": ("kpn.process", ALL, "process.step_calls",
                {"items_per_s": ALL}),
    "network": ("kpn.network", ALL, "network.spawns",
                {"setup_s": ALL, "items_per_s": SIEVES}),
    "scheduler": ("kpn.scheduler", HAMMING, "scheduler.grows",
                  {"items_per_s": HAMMING}),
    "aio": ("kpn.aio", ("sieve-async",), "aio.step_calls",
            {"items_per_s": ("sieve-async",),
             "cpu_us_per_item": ("sieve-async",)}),
    "compile": ("kpn.compile", FARM, "compile.chains", {"setup_s": FARM}),
    "wire": ("distributed.wire, distributed.sockets", FARM,
             "wire.frames_sent",
             {"items_per_s": FARM, "latency_p50_ms": FARM}),
    "cluster": ("distributed.cluster, distributed.server, "
                "distributed.migration", FARM, "rpc.calls",
                {"setup_s": FARM}),
    "farm": ("parallel.meta, parallel.generic", FARM,
             "farm.consumer_wait_ms", {"latency_p95_ms": FARM}),
    "telemetry": ("telemetry.core, telemetry.profile", HAMMING,
                  "telemetry.events",
                  {"items_per_s": HAMMING, "cpu_us_per_item": HAMMING,
                   "peak_rss_mb": HAMMING}),
    "trace": ("the benchmark's own wrappers", ALL, "trace.overhead_pct", {}),
    "baseline": ("plain Python, no runtime", ALL, "baseline.sequential_ms",
                 {}),
}

#: per-layer metric -> its layer in LAYERS
PER_LAYER = {
    "buffers.ops": "buffers",
    "buffers.bytes": "buffers",
    "buffers.self_us_per_op": "buffers",
    "buffers.wait_ms": "buffers",
    "buffers.blocks": "buffers",
    "streams.ops": "streams",
    "streams.self_us_per_op": "streams",
    "codecs.ops": "codecs",
    "codecs.self_us_per_op": "codecs",
    "process.steps": "process",
    "process.step_calls": "process",
    "process.self_us_per_step": "process",
    "network.start_ms": "network",
    "network.spawns": "network",
    "network.spawn_us": "network",
    "network.join_ms": "network",
    "scheduler.grows": "scheduler",
    "scheduler.stall_ms": "scheduler",
    "scheduler.stall_ms_per_grow": "scheduler",
    "aio.step_calls": "aio",
    "aio.steps": "aio",
    "aio.replay_ratio": "aio",
    "aio.wakes": "aio",
    "aio.overhead_us_per_step": "aio",
    "compile.fuse_ms": "compile",
    "compile.chains": "compile",
    "wire.frames_sent": "wire",
    "wire.frames_recv": "wire",
    "wire.bytes_sent": "wire",
    "wire.bytes_recv": "wire",
    "wire.send_us_per_frame": "wire",
    "wire.recv_wait_ms": "wire",
    "cluster.start_ms": "cluster",
    "rpc.calls": "cluster",
    "rpc.ms_per_call": "cluster",
    "migration.bytes": "cluster",
    "migration.ms": "cluster",
    "farm.producer_wait_ms": "farm",
    "farm.consumer_wait_ms": "farm",
    "telemetry.events": "telemetry",
    "telemetry.calls": "telemetry",
    "telemetry.self_us_per_call": "telemetry",
    "telemetry.retained_events": "telemetry",
    "trace.overhead_pct": "trace",
    "baseline.sequential_ms": "baseline",
}
