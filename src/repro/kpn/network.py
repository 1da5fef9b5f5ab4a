"""Network: lifecycle management for a graph of processes and channels.

The paper constructs a graph, wraps it in a ``CompositeProcess`` and calls
``new Thread(p).start()`` (Figure 6).  :class:`Network` is the slightly
richer equivalent this library uses as its main entry point: it

* creates channels that share one blocked-thread accounting object;
* starts one daemon thread per process (including processes spawned
  dynamically by self-reconfiguring graphs, which inherit the network
  through :meth:`repro.kpn.process.Process.spawn`);
* optionally runs the :class:`~repro.kpn.scheduler.DeadlockMonitor`
  implementing Parks' bounded scheduling, over this network alone;
* joins everything and surfaces process failures and deadlock diagnoses;
* can export the program graph to :mod:`networkx` for analysis (the
  paper's claim that default capacities suffice "for all programs with no
  *undirected* cycles" is checkable with :meth:`has_undirected_cycle`).

Typical use::

    net = Network()
    ch = net.channel()
    net.add(Sequence(ch.get_output_stream(), start=2, iterations=99))
    net.add(Collect(ch.get_input_stream(), out := []))
    net.run()          # start + join; raises on process failure
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterable, List, Optional

from repro.errors import DeadlockError
from repro.kpn.buffers import BlockAccounting, DEFAULT_CAPACITY
from repro.kpn.channel import Channel
from repro.kpn.process import CompositeProcess, Process
from repro.kpn.scheduler import DeadlockMonitor, DeadlockPolicy

__all__ = ["Network", "BACKENDS", "resolve_backend"]

#: scheduler backends: "thread" is the paper's one-OS-thread-per-process
#: reference; "async" multiplexes cooperative tasks over event loops
#: (see :mod:`repro.kpn.aio`) for 10k+-process graphs.
BACKENDS = ("thread", "async")


def resolve_backend(backend: Optional[str]) -> str:
    """Explicit argument > ``REPRO_BACKEND`` env > ``"thread"``."""
    choice = backend or os.environ.get("REPRO_BACKEND") or "thread"
    if choice not in BACKENDS:
        raise ValueError(
            f"unknown scheduler backend {choice!r}; pick one of {BACKENDS}")
    return choice


class Network:
    """A running (or runnable) process-network program graph.

    Parameters
    ----------
    bounded:
        Enable the deadlock monitor / Parks bounded scheduling.  Defaults
        to True — the paper's implementation always has bounded channels;
        disable only for experiments.
    default_capacity:
        Initial capacity for channels created via :meth:`channel`.
    policy:
        Deadlock policy (growth factor, caps, true-deadlock reaction).
    capacity_spec:
        Optional ``{channel_name: initial_capacity}`` spec — a flat
        dict, the capacity advisor's ``repro profile --spec-out``
        document, or a path to a JSON file of either shape.  Channels
        created via :meth:`channel` with a name in the spec (and no
        explicit capacity) start pre-sized, avoiding grow-on-deadlock
        cycles even without the graph compiler.
    backend:
        Scheduler backend: ``"thread"`` (default; one OS thread per
        process, the paper's model) or ``"async"`` (cooperative tasks
        multiplexed over event loops — see :mod:`repro.kpn.aio`).
        ``None`` consults the ``REPRO_BACKEND`` environment variable.
        Processes the async runtime cannot host (custom ``run`` loops,
        ``@nondeterminate`` processes) transparently keep their own
        thread; the two actor kinds share channels freely.
    workers:
        Event-loop threads for the async backend (ignored under
        ``"thread"``).  One loop per core is plenty: tasks are
        cooperative, so loops only buy parallelism, not concurrency.
    """

    def __init__(self, bounded: bool = True,
                 default_capacity: int = DEFAULT_CAPACITY,
                 policy: Optional[DeadlockPolicy] = None,
                 name: str = "network",
                 capacity_spec=None,
                 backend: Optional[str] = None,
                 workers: int = 1) -> None:
        self.name = name
        self.backend = resolve_backend(backend)
        self._loops = None
        if self.backend == "async":
            from repro.kpn.aio import LoopPool
            self._loops = LoopPool(workers, name=f"{name}-loop")
        self.default_capacity = default_capacity
        if capacity_spec:
            from repro.kpn.compile import load_capacity_spec
            self.capacity_spec = load_capacity_spec(capacity_spec)
        else:
            self.capacity_spec = {}
        self.accounting = BlockAccounting(on_change=self._kick_monitor)
        self.channels: List[Channel] = []
        self.processes: List[Process] = []
        # identity set shadowing ``processes`` — membership checks on the
        # 10k-process spawn path must not scan the list (O(n^2) startup).
        # Safe because the list is append-only: every id in the set keeps
        # its object alive via the list, so ids are never recycled.
        self._process_ids: set = set()
        self._threads: List[threading.Thread] = []
        self._lock = threading.RLock()
        self._started = False
        #: True while start() spawns the initial processes: the ones
        #: already blocked are no stall, and the monitor gives no verdict
        self.starting = False
        self.fusion_plan = None
        self.monitor: Optional[DeadlockMonitor] = None
        if bounded:
            self.monitor = DeadlockMonitor([self], policy)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def channel(self, capacity: Optional[int] = None, name: str = "") -> Channel:
        """Create a channel owned by (and accounted to) this network.

        With no explicit ``capacity``, a named channel listed in the
        network's ``capacity_spec`` starts at the spec'd size.
        """
        if capacity is None and name:
            capacity = self.capacity_spec.get(name)
        ch = Channel(capacity or self.default_capacity, name=name,
                     accounting=self.accounting)
        with self._lock:
            self.channels.append(ch)
        return ch

    def channels_n(self, n: int, capacity: Optional[int] = None,
                   prefix: str = "ch") -> List[Channel]:
        return [self.channel(capacity, name=f"{prefix}-{i}") for i in range(n)]

    def adopt_channel(self, ch: Channel) -> Channel:
        """Bring an externally created channel under this network."""
        ch.set_accounting(self.accounting)
        with self._lock:
            if ch not in self.channels:
                self.channels.append(ch)
        return ch

    def add(self, process: Process) -> Process:
        """Register a process (started later by :meth:`start`)."""
        process.network = self
        if isinstance(process, CompositeProcess):
            for member in process.processes:
                member.network = self
        with self._lock:
            if id(process) not in self._process_ids:
                self._process_ids.add(id(process))
                self.processes.append(process)
        return process

    def add_all(self, processes: Iterable[Process]) -> None:
        for p in processes:
            self.add(p)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def spawn(self, process: Process):
        """Start ``process`` immediately as a tracked actor.

        Under the thread backend (and for processes the async runtime
        cannot host) the actor is a daemon thread; under the async
        backend, hostable processes become cooperative tasks on one of
        the network's event loops.  Either way the returned handle
        supports ``join``/``is_alive``/``name``.  Used both by
        :meth:`start` and by running processes that insert new processes
        into the graph (Sift, MetaDynamic reconfiguration).
        """
        process.network = self
        if isinstance(process, CompositeProcess):
            for member in process.processes:
                member.network = self
        actor = None
        if self._loops is not None:
            from repro.kpn.aio import Task, async_hostable
            if async_hostable(process):
                actor = Task(process, self._loops.place(),
                             on_finish=self._kick_monitor)
        if actor is None:
            actor = threading.Thread(target=self._run_process,
                                     args=(process,),
                                     name=process.name, daemon=True)
        with self._lock:
            self._threads.append(actor)
            # identity-set membership, not a list scan: spawn() runs once
            # per process and a linear check makes startup O(n^2)
            if id(process) not in self._process_ids:
                self._process_ids.add(id(process))
                self.processes.append(process)
        actor.start()
        return actor

    def _run_process(self, process: Process) -> None:
        try:
            process.run()
        finally:
            self._kick_monitor()

    def preflight(self) -> None:
        """Static pre-flight: graph consistency, proofs, and race scan.

        Runs :func:`repro.kpn.checker.check_network` in strict mode —
        which includes the directed-cycle deadlock/boundedness proofs —
        and the shared-state race detector, raising
        :class:`~repro.kpn.checker.GraphConsistencyError` on any error.
        Opt-in via ``start(lint=True)`` / ``run(lint=True)``.
        """
        from repro.analysis.races import detect_races
        from repro.kpn.checker import GraphConsistencyError, Issue, check_network

        issues = [i for i in check_network(self) if i.severity == "error"]
        for race in detect_races(self):
            issues.append(Issue("error", "shared-state", race.describe()))
        if issues:
            raise GraphConsistencyError(issues)

    def optimize(self, spec=None, **kwargs) -> "Network":
        """Run the graph compiler over this network (before :meth:`start`).

        Fuses eligible linear process chains into single threads,
        collapses the intra-chain channels onto lock-free deques, and
        pre-sizes surviving channels from ``spec`` (defaulting to the
        network's own ``capacity_spec``).  The applied
        :class:`~repro.kpn.compile.FusionPlan` lands on
        ``self.fusion_plan``.  See :mod:`repro.kpn.compile`.
        """
        from repro.kpn.compile import fuse

        if spec is None and self.capacity_spec:
            spec = self.capacity_spec
        fuse(self, spec=spec, **kwargs)
        return self

    def start(self, lint: bool = False, optimize: bool = False) -> "Network":
        if lint:
            self.preflight()
        if optimize:
            self.optimize()
        with self._lock:
            if self._started:
                raise RuntimeError("network already started")
            self._started = True
            pending = [p for p in self.processes]
            self.starting = True
        if self.monitor is not None:
            self.monitor.start()
        with self._lock:
            spawned = {t.name for t in self._threads}
        try:
            for p in pending:
                # set membership, not a linear scan: start() is on the
                # 10k-process scale path and a per-process scan is O(n^2)
                if p.name not in spawned:
                    spawned.add(p.name)
                    self.spawn(p)
        finally:
            self.starting = False
        return self

    def ensure_running(self) -> "Network":
        """Mark the network live without spawning anything yet.

        Compute servers host a long-lived network that receives migrated
        processes over time; this starts the deadlock monitor and allows
        :meth:`spawn` to be the only way processes enter.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
        if self.monitor is not None:
            self.monitor.start()
        return self

    def live_threads(self) -> List:
        """Process actors (threads and tasks) still alive (monitor's view)."""
        with self._lock:
            return [t for t in self._threads if t.is_alive()]

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every process thread (including late-spawned ones).

        Returns True if everything finished.  Raises the first process
        failure or a stored deadlock diagnosis after shutdown.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                threads = list(self._threads)
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                with self._lock:
                    grown = len(threads) != len(self._threads)
                if not grown:
                    break
                continue
            for t in alive:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                t.join(timeout=remaining if remaining is not None else 0.5)
                if deadline is not None and time.monotonic() >= deadline and t.is_alive():
                    return False
        if self.monitor is not None:
            self.monitor.stop()
            if self.monitor.error is not None:
                raise self.monitor.error
        if self._loops is not None:
            self._loops.stop()
        self.raise_failures()
        return True

    def run(self, timeout: Optional[float] = None, lint: bool = False,
            optimize: bool = False) -> bool:
        """``start()`` + ``join()``; the one-liner most programs need.

        ``optimize=True`` runs the graph compiler (chain fusion, channel
        collapse, buffer pre-sizing) before starting threads.
        """
        self.start(lint=lint, optimize=optimize)
        return self.join(timeout=timeout)

    def raise_failures(self) -> None:
        for p in self.processes:
            if p.failure is not None and not isinstance(p.failure, DeadlockError):
                raise p.failure

    def shutdown(self) -> None:
        """Force-terminate: close every channel both ways.

        Blocked processes wake with channel errors and run their normal
        ``on_stop`` cleanup, so even a forced shutdown follows the paper's
        graceful cascading-termination path.
        """
        with self._lock:
            channels = list(self.channels)
        for ch in channels:
            try:
                ch.buffer.close_write()
                ch.buffer.close_read()
            except Exception:
                pass

    def _kick_monitor(self) -> None:
        if self.monitor is not None:
            self.monitor.kick()

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "Network":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.shutdown()
        if self.monitor is not None:
            self.monitor.stop()
        if self._loops is not None and not any(
                t.is_alive() for t in self._threads):
            self._loops.stop()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def _leaf_processes(self) -> List[Process]:
        leaves: List[Process] = []
        for p in self.processes:
            if isinstance(p, CompositeProcess):
                leaves.extend(p.flatten())
            else:
                leaves.append(p)
        return leaves

    def graph(self):
        """Export the program graph as a ``networkx.MultiDiGraph``.

        Nodes are process names; edges are channels from producer to
        consumer, discovered by matching tracked endpoint streams back to
        their channels.
        """
        import networkx as nx

        g = nx.MultiDiGraph()
        producers: dict[str, str] = {}
        consumers: dict[str, str] = {}
        for p in self._leaf_processes():
            g.add_node(p.name, process=type(p).__name__)
            for s in p.output_streams:
                ch = getattr(s, "channel", None)
                if ch is not None:
                    producers[ch.name] = p.name
            for s in p.input_streams:
                ch = getattr(s, "channel", None)
                if ch is not None:
                    consumers[ch.name] = p.name
        for ch in self.channels:
            src = producers.get(ch.name)
            dst = consumers.get(ch.name)
            if src is not None and dst is not None:
                g.add_edge(src, dst, channel=ch.name, capacity=ch.capacity)
        return g

    def channel_map(self) -> dict:
        """Producer/consumer names per channel, as a plain dict.

        The profiler's analyzer wants exactly the edge information
        :meth:`graph` computes, but as a picklable structure with no
        networkx dependency: ``{channel: {"producer", "consumer",
        "capacity"}}`` (either end ``None`` when untracked, e.g. a channel
        stretched to another server).
        """
        producers: dict[str, str] = {}
        consumers: dict[str, str] = {}
        for p in self._leaf_processes():
            for s in p.output_streams:
                ch = getattr(s, "channel", None)
                if ch is not None:
                    producers[ch.name] = p.name
            for s in p.input_streams:
                ch = getattr(s, "channel", None)
                if ch is not None:
                    consumers[ch.name] = p.name
        with self._lock:
            channels = list(self.channels)
        return {ch.name: {"producer": producers.get(ch.name),
                          "consumer": consumers.get(ch.name),
                          "capacity": ch.capacity}
                for ch in channels}

    def has_undirected_cycle(self) -> bool:
        """True if the program graph has an undirected cycle.

        Relevant to section 3.5: default buffer capacities are "sufficient
        for ... all programs with no undirected cycles"; graphs *with*
        undirected cycles (Figures 12 and 13) may need capacity growth.
        """
        import networkx as nx

        g = self.graph().to_undirected(as_view=False)
        simple = nx.Graph()
        multi_edges = 0
        for u, v in g.edges():
            if u == v or simple.has_edge(u, v):
                multi_edges += 1
            else:
                simple.add_edge(u, v)
        if multi_edges:
            return True
        try:
            nx.find_cycle(simple)
            return True
        except nx.NetworkXNoCycle:
            return False

    def wait_snapshot(self) -> dict:
        """Blocking-state snapshot for distributed deadlock detection.

        Serializable summary of who is blocked where, plus the accounting
        generation so a coordinator can verify stability between two
        observations (section 6.2's "distributed deadlock detection
        algorithm" needs exactly this per-site information).
        """
        blocked_map = self.accounting.snapshot()
        live = self.live_threads()
        live_names = [t.name for t in live]
        blocked = []
        for actor, (buffer, mode) in blocked_map.items():
            if actor in live:
                blocked.append({
                    "thread": actor.name,
                    "kind": ("thread" if isinstance(actor, threading.Thread)
                             else "task"),
                    "mode": mode,
                    "channel": buffer.name,
                    "capacity": buffer.capacity,
                    "buffered": buffer.available(),
                })
        with self._lock:
            remote = [ch.name for ch in self.channels
                      if getattr(ch, "receiver_pump", None) is not None
                      or getattr(ch, "sender_pump", None) is not None]
        return {
            "network": self.name,
            "backend": self.backend,
            "generation": self.accounting.generation,
            "live": live_names,
            "blocked": blocked,
            "remote_links": remote,
        }

    def channel_by_name(self, name: str) -> Optional[Channel]:
        with self._lock:
            for ch in self.channels:
                if ch.name == name:
                    return ch
        return None

    def grow_channel(self, name: str, new_capacity: int) -> bool:
        """Grow a channel by name (remote-resolution hook); False if the
        channel is unknown here."""
        ch = self.channel_by_name(name)
        if ch is None:
            return False
        ch.grow(new_capacity)
        return True

    def total_buffered_bytes(self) -> int:
        return sum(ch.buffer.available() for ch in self.channels)

    def growth_events(self):
        return list(self.monitor.growth_events) if self.monitor else []
