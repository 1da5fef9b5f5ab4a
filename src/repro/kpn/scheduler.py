"""Deadlock detection and Parks' bounded scheduling (paper sections 3.5, 6.2).

Bounded channels with blocking writes keep memory use finite and enforce
scheduling fairness, but "may introduce deadlock" — even in acyclic graphs
(paper Figure 13).  Since choosing deadlock-free capacities statically is
undecidable, Parks' bounded-scheduling procedure [13] manages capacities at
run time:

1. Detect that the system has globally stalled: every live process actor
   is blocked on a channel operation.
2. If at least one of them is blocked **writing** to a full channel, the
   deadlock is *artificial*: enlarge the smallest-capacity full channel
   among those written to and resume.  Repeating this executes any program
   that can run in bounded memory using bounded memory, and degrades
   gracefully (buffers grow only as needed) otherwise.
3. If all are blocked **reading**, the deadlock is *true*: no capacity
   assignment helps.  Depending on policy we raise, stop the network, or
   leave it (an externally-fed network may legitimately idle).

One :class:`DeadlockMonitor` applies the rule over a list of *sites*: a
local :class:`~repro.kpn.network.Network`, read from its
:class:`~repro.kpn.buffers.BlockAccounting` and grown at the exact blocked
buffer, or anything with the ``wait_snapshot()``/``grow_channel()`` pair,
such as a :class:`~repro.distributed.server.ServerClient` (section 6.2:
"We plan to apply those ideas to our distributed Java implementation").
Every network runs it over ``[itself]``, woken by each blocking
transition; :class:`~repro.distributed.deadlock.DistributedDeadlockDetector`
runs it over many sites, polled on an interval.  A stall is acted on only
after a settle window in which no site's accounting generation moved,
which filters out the race where an actor is about to be woken.  A lone
site reporting remote links stands down from any verdict: traffic from
another server may still arrive.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence

from repro.errors import (
    ArtificialDeadlockError,
    DeadlockError,
    TrueDeadlockError,
)
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = ["DeadlockMonitor", "DeadlockPolicy", "GlobalStallReport",
           "GrowthEvent"]


@dataclass
class GrowthEvent:
    """Record of one capacity-growth action (for tests and benchmarks)."""

    channel_name: str
    old_capacity: int
    new_capacity: int
    blocked_processes: tuple[str, ...] = ()


@dataclass
class DeadlockPolicy:
    """Configuration for the monitor's reactions.

    Attributes
    ----------
    grow:
        Resolve artificial deadlocks by growing buffers (Parks).  When
        False, an artificial deadlock is an unresolvable stall.
    growth_factor:
        Multiplier applied to the chosen channel's capacity.
    max_capacity:
        Hard cap per channel; an artificial deadlock whose chosen channel
        is already at the cap is an unresolvable stall.
    on_true:
        The reaction to an unresolvable stall — a true deadlock, or an
        artificial one that growth may not resolve:
        "raise" — store the diagnosis (:class:`TrueDeadlockError` or
        :class:`ArtificialDeadlockError`) on the monitor's ``error`` and
        shut the networks down (``Network.join`` re-raises it);
        "stop" — shut down silently;
        "ignore" — leave the networks blocked.
        Either way the stall is recorded in the monitor's
        ``true_deadlocks``.
    settle_ms:
        Stability window: the stall must persist, with no accounting
        churn, for this long before the monitor acts.
    stall_watchdog_s:
        When set, the monitor snapshots the wait-graph (who is blocked on
        which channel, with buffer fill levels) once per stall after no
        progress has been observed for this many seconds — turning a
        silent hang into an inspectable artifact.  The snapshot lands in
        :attr:`DeadlockMonitor.stall_snapshots` and, with telemetry on,
        as a ``stall.wait_graph`` instant.  None disables the watchdog.
    """

    grow: bool = True
    growth_factor: int = 2
    max_capacity: int = 64 * 1024 * 1024
    on_true: str = "raise"
    settle_ms: float = 20.0
    stall_watchdog_s: Optional[float] = None


@dataclass
class GlobalStallReport:
    """What the monitor saw when every site stood still."""

    #: per-site snapshots (site name → ``wait_snapshot()`` dict)
    snapshots: dict
    #: all write-blocked entries, across sites: (site, entry)
    write_blocked: List[tuple] = field(default_factory=list)
    #: all read-blocked entries, across sites
    read_blocked: List[tuple] = field(default_factory=list)
    #: the diagnosis, when the stall was unresolvable
    error: Optional[DeadlockError] = None

    @property
    def artificial(self) -> bool:
        return bool(self.write_blocked)


class _Wait(NamedTuple):
    """One blocked actor, with what its site needs to grow its channel."""

    site: object
    thread: str
    mode: str
    channel: str
    capacity: int
    buffer: object  # the blocked BoundedByteBuffer at a local site


def _still_waiting(buffer, mode: str) -> bool:
    """True while a blocked read or write on ``buffer`` could not proceed."""
    if mode == "read":
        return not buffer.readable_or_eof()
    return buffer.is_full() and not (buffer.write_closed or buffer.read_closed)


class _NetworkSite:
    """A local network: read from its accounting, grow the exact buffer."""

    def __init__(self, network) -> None:
        self.participant = network
        self.label = f"local:{network.name}"

    def observe(self, settled: bool):
        """(generation, waits) when every live actor is blocked, else None.

        ``settled`` (the check after the settle window) also requires the
        network to be fully started and each wait condition to still
        hold: an actor stays in the accounting from its wakeup until it
        runs again, which under load can outlast the window, and it is not
        stalled.  Checked only then, so an apparent stall still pauses the
        monitor for the whole window."""
        net = self.participant
        blocked = net.accounting.snapshot()
        live = net.live_threads()
        if not all(t in blocked for t in live):
            return None
        # read after the copy: equal generations across the settle window
        # mean nothing moved between the two reads, and the later copy
        # lies between them
        generation = net.accounting.generation
        live = set(live)
        # in blocking order, which breaks Parks-rule ties
        waits = [_Wait(self, t.name, mode, buf.name, buf.capacity, buf)
                 for t, (buf, mode) in blocked.items() if t in live]
        if settled and (net.starting or not all(
                _still_waiting(w.buffer, w.mode) for w in waits)):
            return None
        return generation, waits

    def grow(self, wait: _Wait, capacity: int) -> None:
        # grow() emits the channel.grow instant from the monitor thread;
        # naming the blocked writer lets the profiler attribute it.
        wait.buffer.grow(capacity, process=wait.thread)

    def shutdown(self) -> None:
        self.participant.shutdown()


class _SnapshotSite:
    """Any site with ``wait_snapshot()``/``grow_channel()``, e.g. a server."""

    def __init__(self, participant) -> None:
        self.participant = participant
        self.label = f"server:{participant.host}:{participant.port}"

    def observe(self, settled: bool):
        snap = self.participant.wait_snapshot()
        if not set(snap["live"]) <= {b["thread"] for b in snap["blocked"]}:
            return None
        if settled and any(b["buffered"] > 0 if b["mode"] == "read"
                           else b["buffered"] < b["capacity"]
                           for b in snap["blocked"]):
            return None  # woken, not yet run: see _NetworkSite.observe
        return snap["generation"], [
            _Wait(self, b["thread"], b["mode"], b["channel"], b["capacity"],
                  None)
            for b in snap["blocked"]]

    def grow(self, wait: _Wait, capacity: int) -> None:
        self.participant.grow_channel(wait.channel, capacity)

    def shutdown(self) -> None:
        """A coordinator leaves remote servers to their own policy."""


class DeadlockMonitor:
    """Watches a set of sites for global stalls and applies the policy.

    The monitor runs in its own daemon thread.  It is *kicked* (woken) by
    every blocking transition in a local network's accounting and by
    process exits, and otherwise re-checks every ``start(interval_s)``
    seconds; each check re-verifies a stall after the settle window
    before acting.

    An unresolvable stall — a true deadlock, or an artificial one with
    growth disabled or its channel at ``max_capacity`` — is recorded once
    as a :class:`GlobalStallReport` in :attr:`true_deadlocks`, passed to
    ``on_true``, and then handled per ``policy.on_true``.
    """

    def __init__(self, sites: Sequence, policy: Optional[DeadlockPolicy] = None,
                 on_event: Optional[Callable[[GrowthEvent], None]] = None,
                 on_true: Optional[Callable[[GlobalStallReport], None]] = None
                 ) -> None:
        if not sites:
            raise ValueError("need at least one participant")
        self.participants = list(sites)
        self.policy = policy or DeadlockPolicy()
        self.on_event = on_event
        self.on_true = on_true
        self.growth_events: List[GrowthEvent] = []
        #: unresolvable stalls, one report each (newest last)
        self.true_deadlocks: List[GlobalStallReport] = []
        #: wait-graph snapshots the stall watchdog captured (newest last)
        self.stall_snapshots: List[dict] = []
        self.error: Optional[Exception] = None
        self._sites = [
            _NetworkSite(p) if getattr(p, "accounting", None) is not None
            else _SnapshotSite(p)
            for p in self.participants]
        labels = [site.label for site in self._sites]
        for i, site in enumerate(self._sites):
            # sites are keyed by position when two share a label (two
            # default-named networks, say), never merged
            site.key = (site.label if labels.count(site.label) == 1
                        else f"{site.label}#{i}")
        self._cond = threading.Condition()
        self._kicked = False
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        # stall-watchdog state: the generations we have been observing,
        # when we first saw them, and whether this stall was snapshotted
        self._stall_gen: Optional[tuple] = None
        self._stall_since: float = 0.0
        self._stall_reported = False
        # the last verdict, so a stall that persists is reported once
        self._verdict: tuple = (None, None)

    # -- lifecycle ---------------------------------------------------------
    def start(self, interval_s: float = 0.05) -> "DeadlockMonitor":
        """Run checks in a daemon thread until :meth:`stop`."""
        self._thread = threading.Thread(target=self._run, args=(interval_s,),
                                        name="deadlock-monitor", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def kick(self) -> None:
        """Wake the monitor to re-examine the sites."""
        with self._cond:
            self._kicked = True
            self._cond.notify_all()

    def __enter__(self) -> "DeadlockMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- main loop ---------------------------------------------------------
    def _run(self, interval_s: float) -> None:
        while True:
            with self._cond:
                if not self._kicked and not self._stop:
                    # periodic re-check regardless of kicks: the only wakeup
                    # of a remote site, and it lets the stall watchdog see
                    # windows expire without churn.
                    self._cond.wait(timeout=interval_s)
                if self._stop:
                    return
                self._kicked = False
            try:
                self.check_once()
            except Exception as exc:
                # without every site's view a global stall is unprovable
                self.error = exc
                return

    def _observe(self, settled: bool = False) -> Optional[tuple]:
        """(generations, waits) when every live actor at every site is
        blocked and at least one lives, else None."""
        generations, waits = [], []
        for site in self._sites:
            seen = self._poll(site, site.observe, settled)
            if seen is None:
                return None
            generations.append(seen[0])
            waits.extend(seen[1])
        return (tuple(generations), waits) if waits else None

    def snapshot_all(self) -> dict:
        """Every site's ``wait_snapshot()``, keyed by site."""
        return {site.key: self._poll(site, site.participant.wait_snapshot)
                for site in self._sites}

    @staticmethod
    def _poll(site, call, *args):
        try:
            return call(*args)
        except Exception as exc:
            raise RuntimeError(
                f"deadlock poll of site {site.key} failed: {exc!r}") from exc

    def _watchdog(self, stall: Optional[tuple]) -> None:
        """Snapshot the wait-graph once per stall (no progress for the
        configured window).  Runs on every wakeup and settle slice, so
        stalls are noticed within ~10 ms of the window expiring."""
        window = self.policy.stall_watchdog_s
        if window is None:
            return
        generations = stall and stall[0]
        now = time.monotonic()
        if not generations or generations != self._stall_gen:
            # progress (or a different stall): restart the window
            self._stall_gen = generations
            self._stall_since = now
            self._stall_reported = False
            return
        if self._stall_reported or now - self._stall_since < window:
            return
        snapshots = self.snapshot_all()
        if len(snapshots) == 1:
            snapshot = next(iter(snapshots.values()))
        else:
            snapshot = {"sites": snapshots,
                        "blocked": [dict(entry, site=key)
                                    for key, snap in snapshots.items()
                                    for entry in snap["blocked"]]}
        snapshot["stalled_for"] = now - self._stall_since
        self.stall_snapshots.append(snapshot)
        self._stall_reported = True
        if _telemetry.enabled:
            _telemetry.instant(
                "stall.wait_graph", category="kpn.scheduler",
                network=snapshot.get("network", ", ".join(snapshots)),
                blocked=[f"{b['thread']}:{b['mode']}:{b['channel']}"
                         f"({b['buffered']}/{b['capacity']})"
                         for b in snapshot["blocked"]],
                stalled_for=snapshot["stalled_for"])
            _telemetry.inc("kpn.scheduler.stall_snapshots")

    # -- one detect-verify-resolve round --------------------------------------
    def check_once(self) -> Optional[GlobalStallReport]:
        """One detect-verify-resolve round.

        Returns the stall report when a (verified) global stall was
        found — after resolving it if it was artificial — else None.
        """
        first = self._observe()
        self._watchdog(first)
        if first is None:
            return None
        # stability window: wait, then confirm nothing moved.  The wait is
        # sliced so the stall watchdog can fire *during* the window — a
        # long settle must not hide the stall it is confirming.
        deadline = time.monotonic() + self.policy.settle_ms / 1000.0
        while not self._stop:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(remaining, 0.01))
            if self.policy.stall_watchdog_s is not None:
                self._watchdog(self._observe())
        second = self._observe(settled=True)
        if second is None or second[0] != first[0]:
            return None
        return self._resolve(*second)

    # -- resolution ----------------------------------------------------------
    def _resolve(self, generations: tuple, waits: List[_Wait]
                 ) -> Optional[GlobalStallReport]:
        solo = len(self._sites) == 1
        names = tuple(sorted(w.thread if solo else f"{w.site.key}/{w.thread}"
                             for w in waits))
        writes = [w for w in waits if w.mode == "write"]
        if not writes:
            return self._verdict_on(generations, TrueDeadlockError(
                f"true deadlock: all processes blocked reading: {names}",
                names))
        if not self.policy.grow:
            return self._verdict_on(generations, ArtificialDeadlockError(
                "artificial deadlock (growth disabled)", names))
        # Parks' rule: among the full channels being written to, grow the
        # one with the smallest capacity.
        chosen = min(writes, key=lambda w: w.capacity)
        old = chosen.capacity
        new = min(old * self.policy.growth_factor, self.policy.max_capacity)
        if new <= old:
            return self._verdict_on(generations, ArtificialDeadlockError(
                f"channel {chosen.channel!r} already at max capacity {old}",
                names))
        chosen.site.grow(chosen, new)
        event = GrowthEvent(chosen.channel, old, new, names)
        self.growth_events.append(event)
        if _telemetry.enabled:
            # buffer.grow already emitted the channel.grow instant; this
            # one carries the scheduler's verdict (who was blocked).
            _telemetry.instant("deadlock.artificial", category="kpn.scheduler",
                               channel=chosen.channel, old=old, new=new,
                               blocked=len(names))
            _telemetry.inc("kpn.scheduler.artificial_deadlocks")
        if self.on_event is not None:
            self.on_event(event)
        return self._report()

    def _report(self) -> GlobalStallReport:
        report = GlobalStallReport(snapshots=self.snapshot_all())
        for site, snap in report.snapshots.items():
            for entry in snap["blocked"]:
                target = (report.write_blocked if entry["mode"] == "write"
                          else report.read_blocked)
                target.append((site, entry))
        return report

    def _verdict_on(self, generations: tuple, error: DeadlockError
                    ) -> Optional[GlobalStallReport]:
        if self._verdict[0] == generations:
            return self._verdict[1]  # the same stall, already handled
        report = self._report()
        if len(self._sites) == 1 and any(
                snap["remote_links"] for snap in report.snapshots.values()):
            # a lone site with remote links may be waiting on traffic from
            # another server: only a monitor spanning both can tell
            report = None
        else:
            report.error = error
            self.true_deadlocks.append(report)
            if _telemetry.enabled and isinstance(error, TrueDeadlockError):
                _telemetry.instant("deadlock.true", category="kpn.scheduler",
                                   blocked=len(error.blocked))
                _telemetry.inc("kpn.scheduler.true_deadlocks")
            if self.on_true is not None:
                self.on_true(report)
            if self.policy.on_true != "ignore":
                if self.policy.on_true == "raise":
                    self.error = error
                for site in self._sites:
                    site.shutdown()
        self._verdict = (generations, report)
        return report

    def raise_on_true_deadlock(self) -> None:
        """Raise the diagnosis of the first unresolvable stall, if any."""
        if self.true_deadlocks:
            raise self.true_deadlocks[0].error
