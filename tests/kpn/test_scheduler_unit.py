"""DeadlockMonitor unit behaviours beyond the integration tests."""

import threading
import time

import pytest

from repro.errors import ArtificialDeadlockError
from repro.kpn import Network
from repro.kpn.process import IterativeProcess
from repro.kpn.scheduler import DeadlockPolicy, GrowthEvent
from repro.processes import Collect, Sequence
from repro.processes.codecs import LONG
from repro.processes.networks import modulo_merge


def test_growth_event_callback_invoked():
    seen = []
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    net.monitor.on_event = seen.append
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    built.run(timeout=60)
    assert seen
    assert all(isinstance(e, GrowthEvent) for e in seen)
    assert all(e.new_capacity == 2 * e.old_capacity for e in seen)


def test_growth_factor_three():
    net = Network(policy=DeadlockPolicy(growth_factor=3))
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    built.run(timeout=60)
    for e in net.growth_events():
        assert e.new_capacity == 3 * e.old_capacity


def _network_monitor():
    """The per-network monitor, kicked by the network's own accounting."""
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    return net, None


def _multi_site_detector():
    """The multi-site constructor over ``[net]``, polled on an interval."""
    from repro.distributed import DistributedDeadlockDetector

    net = Network(bounded=False)
    return net, DistributedDeadlockDetector([net])


@pytest.mark.parametrize("make", [_network_monitor, _multi_site_detector],
                         ids=["network-monitor", "multi-site"])
def test_growth_chooses_smallest_full_channel(make):
    """With mixed capacities, Parks' rule targets the smallest one."""
    net, detector = make()
    # build fig-13 by hand with asymmetric capacities
    from repro.processes import ModuloRouter, OrderedMerge

    src = net.channel(1024, name="gs-src")
    upper = net.channel(1024, name="gs-upper")
    lower = net.channel(16, name="gs-lower")   # the deliberate bottleneck
    out_ch = net.channel(1024, name="gs-out")
    out = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=300))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         lower.get_output_stream(), 10))
    net.add(OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                         out_ch.get_output_stream()))
    net.add(Collect(out_ch.get_input_stream(), out))
    if detector is None:
        net.run(timeout=60)
        events = net.growth_events()
    else:
        with detector:
            net.run(timeout=60)
        events = detector.growth_events
    assert out == list(range(1, 301))
    grown = {e.channel_name for e in events}
    assert grown == {"gs-lower"}


def test_settle_window_filters_transient_stalls():
    """A brief all-blocked moment while data is in flight must not grow
    anything: a producer/consumer pair at capacity crosses through
    transient all-blocked states constantly."""
    net = Network(policy=DeadlockPolicy(settle_ms=10))
    ch = net.channel(capacity=8)
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=2000))
    net.add(Collect(ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == list(range(2000))
    assert net.growth_events() == []  # never a real deadlock


def test_monitor_stop_idempotent():
    net = Network()
    net.monitor.start()
    net.monitor.stop()
    net.monitor.stop()


def test_kick_before_start_harmless():
    net = Network()
    net.monitor.kick()  # no thread yet: must not explode
    net.monitor.start()
    net.monitor.stop()


def test_blocked_processes_recorded_in_diagnosis():
    net = Network(policy=DeadlockPolicy(grow=False))
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    with pytest.raises(ArtificialDeadlockError) as info:
        built.run(timeout=60)
    assert info.value.blocked  # names of the stuck processes
    assert any("Mod" in n or "Merge" in n for n in info.value.blocked)
