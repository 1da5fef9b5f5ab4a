"""Distributed deadlock detection and resolution (paper section 6.2).

"It is then necessary to determine whether increasing buffer capacities
on the channels will relieve the deadlock.  One method of buffer
management that we have used in the past is described in [13].  We plan
to apply those ideas to our distributed Java implementation."

The plan, executed: :class:`DistributedDeadlockDetector` is the Parks-rule
resolver every network runs (:class:`~repro.kpn.scheduler.DeadlockMonitor`)
over many participants, local networks and remote compute servers alike.
It is a centralized coordinator over decentralized state — the pragmatic
choice the paper's central-console comparison tolerates for control-plane
concerns (data never flows through it).  Pump threads don't count as
blocked processes: the producer a blocked pump throttles shows up as
write-blocked at its own site.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.kpn.network import Network
from repro.kpn.scheduler import (DeadlockMonitor, DeadlockPolicy,
                                 GlobalStallReport, GrowthEvent)
from repro.distributed.server import ServerClient

__all__ = ["DistributedDeadlockDetector", "GlobalStallReport", "Participant"]

Participant = Union[Network, ServerClient]


class DistributedDeadlockDetector(DeadlockMonitor):
    """Coordinates global stall detection across networks and servers.

    ``participants`` lists every local Network and ServerClient that can
    host blocked processes of the computation.  ``growth_factor``,
    ``max_capacity`` and ``settle_s`` set the policy's fields of the same
    meaning; ``on_grow``/``on_true`` are observability callbacks.
    Unresolvable stalls are only reported (``on_true="ignore"``): shutdown
    is the participants' own policy decision.  Poll with
    :meth:`check_once`, or every ``interval_s`` via ``start(interval_s)``.
    """

    def __init__(self, participants: Sequence[Participant],
                 growth_factor: int = 2,
                 max_capacity: int = 64 * 1024 * 1024,
                 settle_s: float = 0.05,
                 on_grow: Optional[Callable[[GrowthEvent], None]] = None,
                 on_true: Optional[Callable[[GlobalStallReport], None]] = None) -> None:
        policy = DeadlockPolicy(growth_factor=growth_factor,
                                max_capacity=max_capacity, on_true="ignore",
                                settle_ms=settle_s * 1000.0)
        super().__init__(participants, policy, on_event=on_grow,
                         on_true=on_true)
