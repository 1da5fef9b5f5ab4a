"""Span tracing from outside the program: wrappers around each layer.

:func:`install` replaces the public entry points of every runtime layer
(buffers, streams, codecs, process steps, network lifecycle, scheduler
growth, the async runtime, the compiler, the wire, RPC and migration,
telemetry) with thin wrappers that record one span per call.  Nothing
under ``src/`` changes: methods are wrapped on their classes, module
functions at every name a caller resolves them by.

Spans live in per-thread arrays (name, start, end, parent on the same
thread, value) and are only read after the run, by :meth:`Tracer.metrics`,
which derives the per-layer metrics of ``catalogue.PER_LAYER``.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

_now = time.perf_counter_ns

# span-name prefixes per layer; a layer's "operations" are its spans whose
# parent is not a span of the same layer (an async read nests try_readinto
# inside readinto, a channel write nests the sequence-stream write)
_BUF_OPS = ("buf.read", "buf.readinto", "buf.write", "buf.write_vectored",
            "buf.write_donate", "buf.try_readinto", "buf.try_write_part",
            "buf.drain_up_to", "buf.read_available")
_BUF_READS = ("buf.read", "buf.readinto", "buf.try_readinto",
              "buf.drain_up_to", "buf.read_available")
_WAITS = ("buf.wait_read", "buf.wait_write")
_WIRE_RECV = ("wire.recv_frame", "wire.reader_recv_frame", "wire.recv_obj")
_TELEMETRY = ("tel.begin", "tel.end", "tel.instant", "tel.inc",
              "tel.observe", "tel.set_gauge")


def _len_result(args, result):
    return len(result) if result else 0


def _count_result(args, result):
    return result or 0


def _frame_sent(args, result):
    return 5 + sum(len(v) for v in args[2])


def _frame_recv(args, result):
    return 5 + len(result[1])


class _ThreadSpans:
    __slots__ = ("thread", "names", "starts", "ends", "parents", "values",
                 "stack", "counts")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.values = array("q")
        self.stack: list = []
        #: events that are not spans (async parks, wakes)
        self.counts: dict = {}


class Tracer:
    """Per-thread span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self._local = threading.local()
        self._threads: list = []
        self._lock = threading.Lock()
        #: id(task) -> park time, for async park durations
        self._parked: dict = {}

    # -- recording ------------------------------------------------------
    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
            return spans

    def _open(self, sid: int) -> int:
        t = self._spans()
        i = len(t.names)
        t.names.append(sid)
        t.parents.append(t.stack[-1] if t.stack else -1)
        t.ends.append(-1)
        t.values.append(0)
        t.stack.append(i)
        t.starts.append(_now())
        return i

    def _close(self, i: int) -> None:
        end = _now()
        t = self._local.spans
        t.ends[i] = end
        stack = t.stack
        while stack and stack.pop() != i:
            pass

    def _count(self, key: str, amount: int = 1) -> None:
        counts = self._spans().counts
        counts[key] = counts.get(key, 0) + amount

    def wrap(self, fn, name: str, value=None):
        """A span-recording stand-in for ``fn``; ``value(args, result)``
        attaches a number (bytes moved) to the span."""
        sid = self.span_id(name)
        spans = self._spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                t = local.spans
            except AttributeError:
                t = spans()
            i = len(t.names)
            stack = t.stack
            t.names.append(sid)
            t.parents.append(stack[-1] if stack else -1)
            t.ends.append(-1)
            t.values.append(0)
            stack.append(i)
            t.starts.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.ends[i] = _now()
                while stack and stack.pop() != i:
                    pass
            if value is not None:
                t.values[i] = value(args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def wrap_method(self, cls, attr: str, name: str, value=None) -> None:
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, value))

    def wrap_function(self, module: str, attr: str, name: str,
                      value=None) -> None:
        """Wrap a module function at its home and at every ``repro``
        module that imported it by name."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name, value)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("repro") and mod is not None
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, traced)

    def install(self) -> "Tracer":
        """Wrap every layer's entry points (call once per interpreter,
        after the workload modules are imported)."""
        from repro.distributed.cluster import LocalCluster
        from repro.distributed.server import ServerClient
        from repro.distributed.wire import FrameReader
        from repro.kpn import aio
        from repro.kpn.buffers import BlockAccounting, BoundedByteBuffer
        from repro.kpn.channel import ChannelOutputStream
        from repro.kpn.network import Network
        from repro.kpn.process import IterativeProcess
        from repro.kpn.streams import (BlockingInputStream,
                                       SequenceInputStream,
                                       SequenceOutputStream)
        from repro.processes.codecs import ObjectCodec, StructCodec
        from repro.telemetry.core import TelemetryHub

        B = BoundedByteBuffer
        for attr in ("read", "readinto", "try_readinto", "drain_up_to",
                     "read_available"):
            self.wrap_method(B, attr, f"buf.{attr}",
                             _count_result if "into" in attr else _len_result)
        for attr in ("write", "write_vectored", "write_donate",
                     "try_write_part"):
            self.wrap_method(B, attr, f"buf.{attr}")
        self.wrap_method(B, "grow", "sched.grow")
        self._wrap_waits(BlockAccounting)
        self._wrap_parks(B, aio.Task)

        self.wrap_method(SequenceInputStream, "read", "stream.seq_read")
        self.wrap_method(SequenceInputStream, "readinto",
                         "stream.seq_readinto")
        self.wrap_method(BlockingInputStream, "read_exactly",
                         "stream.read_exactly")
        for cls, tag in ((SequenceOutputStream, "seq"),
                         (ChannelOutputStream, "chan")):
            self.wrap_method(cls, "write", f"stream.{tag}_write")
            self.wrap_method(cls, "write_vectored",
                             f"stream.{tag}_write_vectored")

        for cls in (StructCodec, ObjectCodec):
            for attr in ("read", "write"):
                self.wrap_method(cls, attr, f"codec.{cls.__name__}.{attr}")

        for cls in _subclasses(IterativeProcess):
            if "step" in cls.__dict__:
                self.wrap_method(cls, "step", "step")

        for attr in ("start", "spawn", "join", "optimize"):
            self.wrap_method(Network, attr, f"net.{attr}")
        self.wrap_function("repro.kpn.compile", "fuse", "compile.fuse")

        self.wrap_method(aio.Task, "_resume", "aio.resume")
        self.wrap_method(aio.EventLoop, "schedule", "aio.schedule")

        self.wrap_function("repro.distributed.wire", "send_frame",
                           "wire.send_frame")
        self.wrap_function("repro.distributed.wire", "send_frame_views",
                           "wire.send_frame_views", _frame_sent)
        self.wrap_function("repro.distributed.wire", "recv_frame",
                           "wire.recv_frame", _frame_recv)
        self.wrap_method(FrameReader, "recv_frame", "wire.reader_recv_frame",
                         _frame_recv)
        self.wrap_function("repro.distributed.wire", "send_obj",
                           "wire.send_obj")
        self.wrap_function("repro.distributed.wire", "recv_obj",
                           "wire.recv_obj")

        self.wrap_method(LocalCluster, "start", "cluster.start")
        self.wrap_method(ServerClient, "run", "rpc.run")
        self.wrap_method(ServerClient, "call", "rpc.call")
        self.wrap_function("repro.distributed.migration", "dumps_migration",
                           "migration.dumps", _len_result)
        self.wrap_function("repro.distributed.codebase", "dumps_shipped",
                           "migration.dumps", _len_result)

        for attr in ("begin", "end", "instant", "inc", "observe",
                     "set_gauge"):
            self.wrap_method(TelemetryHub, attr, f"tel.{attr}")
        return self

    def _wrap_waits(self, accounting_cls) -> None:
        """A thread's blocking wait is one span, from enter_*_wait to
        exit_*_wait (both run under the buffer lock, on the waiting
        thread)."""
        self._wait_ids = {self.span_id(w) for w in _WAITS}
        for mode in ("read", "write"):
            sid = self.span_id(f"buf.wait_{mode}")
            enter = accounting_cls.__dict__[f"enter_{mode}_wait"]
            leave = accounting_cls.__dict__[f"exit_{mode}_wait"]

            def traced_enter(acct, buffer, _enter=enter, _sid=sid):
                self._enter_wait(_sid)
                _enter(acct, buffer)

            def traced_exit(acct, buffer, _exit=leave):
                _exit(acct, buffer)
                self._exit_wait()

            setattr(accounting_cls, f"enter_{mode}_wait",
                    functools.wraps(enter)(traced_enter))
            setattr(accounting_cls, f"exit_{mode}_wait",
                    functools.wraps(leave)(traced_exit))

    def _enter_wait(self, sid: int) -> None:
        self._open(sid)
        self._count("buffers.blocks")

    def _exit_wait(self) -> None:
        t = self._spans()
        for i in reversed(t.stack):
            if t.names[i] in self._wait_ids:
                self._close(i)
                return

    def _wrap_parks(self, buffer_cls, task_cls) -> None:
        """Async tasks do not block a thread: a park is counted as a block
        and its duration runs from the park to the waking ``unparked``."""
        park = buffer_cls.__dict__["async_park"]
        unparked = task_cls.__dict__["unparked"]
        parked = self._parked

        @functools.wraps(park)
        def traced_park(buffer, mode, waiter):
            ok = park(buffer, mode, waiter)
            if ok:
                parked[id(waiter)] = _now()
                self._count("buffers.blocks")
            return ok

        @functools.wraps(unparked)
        def traced_unparked(task, buffer, mode):
            since = parked.pop(id(task), None)
            if since is not None:
                self._count("buffers.async_wait_ns", _now() - since)
            self._count("aio.wakes")
            return unparked(task, buffer, mode)

        buffer_cls.async_park = traced_park
        task_cls.unparked = traced_unparked

    # -- analysis -------------------------------------------------------
    def arrays(self) -> dict:
        """All spans as flat numpy arrays (parents re-indexed globally)."""
        with self._lock:
            threads = list(self._threads)
        names, starts, ends, parents, values, owner = [], [], [], [], [], []
        thread_names = []
        offset = 0
        for k, t in enumerate(threads):
            n = min(len(t.names), len(t.starts), len(t.ends),
                    len(t.parents), len(t.values))
            p = np.frombuffer(t.parents, dtype=np.int64)[:n].copy()
            p[p >= 0] += offset
            names.append(np.frombuffer(t.names, dtype=np.uint16)[:n])
            starts.append(np.frombuffer(t.starts, dtype=np.int64)[:n])
            ends.append(np.frombuffer(t.ends, dtype=np.int64)[:n])
            parents.append(p)
            values.append(np.frombuffer(t.values, dtype=np.int64)[:n])
            owner.append(np.full(n, k, dtype=np.int32))
            thread_names.append(t.thread)
            offset += n

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return {"name": cat(names, np.uint16), "start": cat(starts, np.int64),
                "end": cat(ends, np.int64), "parent": cat(parents, np.int64),
                "value": cat(values, np.int64),
                "thread": cat(owner, np.int32),
                "thread_names": np.array(thread_names, dtype=str),
                "span_names": np.array(self.names, dtype=str)}

    def counts(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        total: dict = {}
        for t in threads:
            for key, amount in list(t.counts.items()):
                total[key] = total.get(key, 0) + amount
        return total

    def metrics(self, network=None) -> dict:
        """Derive every ``catalogue.PER_LAYER`` metric except the two the
        sample runner adds (``trace.overhead_pct`` needs an untraced run,
        ``baseline.sequential_ms`` a plain-Python one)."""
        a = self.arrays()
        closed = a["end"] >= 0
        dur = np.where(closed, a["end"] - a["start"], 0).astype(np.float64)
        parent = a["parent"]
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - cover
        name = a["name"]
        parent_name = np.full(len(name), -1, dtype=np.int64)
        parent_name[has_parent] = name[parent[has_parent]]
        ids = self._ids
        counts = self.counts()

        def sel(span_names):
            wanted = [ids[n] for n in span_names if n in ids]
            return np.isin(name, wanted) & closed

        def top(span_names):
            wanted = [ids[n] for n in span_names if n in ids]
            return sel(span_names) & ~np.isin(parent_name, wanted)

        def ms(mask):
            return float(dur[mask].sum()) / 1e6

        def per(total, n):
            return total / n if n else 0.0

        m: dict = {}
        buf = sel(_BUF_OPS)
        buf_top = top(_BUF_OPS)
        m["buffers.ops"] = int(buf_top.sum())
        m["buffers.bytes"] = int(a["value"][top(_BUF_READS)].sum())
        m["buffers.self_us_per_op"] = per(self_ns[buf].sum() / 1e3,
                                          m["buffers.ops"])
        m["buffers.wait_ms"] = (ms(sel(_WAITS))
                                + counts.get("buffers.async_wait_ns", 0) / 1e6)
        m["buffers.blocks"] = int(counts.get("buffers.blocks", 0))

        streams = [n for n in self.names if n.startswith("stream.")]
        m["streams.ops"] = int(top(streams).sum())
        m["streams.self_us_per_op"] = per(
            self_ns[sel(streams)].sum() / 1e3, m["streams.ops"])

        codecs = [n for n in self.names if n.startswith("codec.")]
        m["codecs.ops"] = int(top(codecs).sum())
        m["codecs.self_us_per_op"] = per(
            self_ns[sel(codecs)].sum() / 1e3, m["codecs.ops"])

        # fused chains pull demand-driven, so one stage's step may run
        # inside another's: every step span is a call
        steps = sel(["step"])
        m["process.steps"] = _steps_completed(network)
        m["process.step_calls"] = int(steps.sum())
        m["process.self_us_per_step"] = per(
            self_ns[steps].sum() / 1e3, m["process.step_calls"])

        m["network.start_ms"] = ms(sel(["net.start"]))
        spawns = sel(["net.spawn"])
        m["network.spawns"] = int(spawns.sum())
        m["network.spawn_us"] = per(dur[spawns].sum() / 1e3,
                                    m["network.spawns"])
        m["network.join_ms"] = ms(top(["net.join"]))

        grows = sel(["sched.grow"])
        m["scheduler.grows"] = int(grows.sum())
        m["scheduler.stall_ms"] = _stall_ms(a, grows, sel(_BUF_OPS))
        m["scheduler.stall_ms_per_grow"] = per(m["scheduler.stall_ms"],
                                               m["scheduler.grows"])

        resume = sel(["aio.resume"])
        under_task = steps & (parent_name == ids.get("aio.resume", -2))
        m["aio.step_calls"] = int(under_task.sum())
        m["aio.steps"] = _task_steps(network)
        m["aio.replay_ratio"] = per(m["aio.steps"], m["aio.step_calls"])
        m["aio.wakes"] = int(counts.get("aio.wakes", 0))
        overhead_ns = self_ns[resume].sum() + dur[sel(["aio.schedule"])].sum()
        m["aio.overhead_us_per_step"] = (per(overhead_ns / 1e3, m["aio.steps"])
                                         if m["aio.step_calls"] else 0.0)

        m["compile.fuse_ms"] = ms(top(["compile.fuse", "net.optimize"]))
        plan = getattr(network, "fusion_plan", None)
        m["compile.chains"] = len(plan.fused) if plan is not None else 0

        frames = sel(["wire.send_frame_views"])
        m["wire.frames_sent"] = int(frames.sum())
        recv = sel(["wire.recv_frame", "wire.reader_recv_frame"])
        m["wire.frames_recv"] = int(recv.sum())
        m["wire.bytes_sent"] = int(a["value"][frames].sum())
        m["wire.bytes_recv"] = int(a["value"][recv].sum())
        m["wire.send_us_per_frame"] = per(dur[frames].sum() / 1e3,
                                          m["wire.frames_sent"])
        m["wire.recv_wait_ms"] = ms(top(_WIRE_RECV))

        m["cluster.start_ms"] = ms(sel(["cluster.start"]))
        rpc = sel(["rpc.run", "rpc.call"])
        m["rpc.calls"] = int(rpc.sum())
        m["rpc.ms_per_call"] = per(ms(rpc), m["rpc.calls"])
        migration = top(["migration.dumps"])
        m["migration.bytes"] = int(a["value"][migration].sum())
        m["migration.ms"] = ms(migration)

        # blocking on the threads hosting the farm's Producer and Consumer
        # (the compiler fuses them with Direct and Select, so the producer
        # waits on Direct's index read rather than on a full task channel)
        hosts = a["thread_names"]
        waits = sel(_WAITS)
        for role in ("producer", "consumer"):
            on_role = np.array([role in str(t).lower() for t in hosts],
                               dtype=bool)
            m[f"farm.{role}_wait_ms"] = ms(waits & on_role[a["thread"]])

        from repro.telemetry.core import TELEMETRY
        tel = sel(_TELEMETRY)
        m["telemetry.events"] = TELEMETRY.events_emitted
        m["telemetry.calls"] = int(tel.sum())
        m["telemetry.self_us_per_call"] = per(self_ns[tel].sum() / 1e3,
                                              m["telemetry.calls"])
        m["telemetry.retained_events"] = len(TELEMETRY.events())
        return m

    def save(self, path: str) -> None:
        """Write every span (and the name/thread tables) to ``path``."""
        np.savez(path, **self.arrays())


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [cls, *seen]


def _members(network):
    if network is None:
        return []
    out = []
    for p in list(network.processes):
        out.extend(getattr(p, "processes", None) or [p])
    return out


def _steps_completed(network) -> int:
    return sum(getattr(p, "steps_completed", 0) for p in _members(network))


def _task_steps(network) -> int:
    """Steps completed by processes the async backend hosted as tasks."""
    from repro.kpn.aio import async_hostable

    if network is None or network.backend != "async":
        return 0
    return sum(getattr(p, "steps_completed", 0)
               for p in network.processes if async_hostable(p))


def _stall_ms(a: dict, grows, ops) -> float:
    """Sum over grows of the time since the last completed buffer op."""
    if not grows.any():
        return 0.0
    op_ends = np.sort(a["end"][ops])
    total = 0.0
    for t in a["start"][grows]:
        k = np.searchsorted(op_ends, t, side="right")
        if k:
            total += (t - op_ends[k - 1]) / 1e6
    return total
