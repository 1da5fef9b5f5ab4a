"""Parks bounded scheduling: deadlock detection + buffer growth (§3.5)."""

import threading

import pytest

from repro.errors import ArtificialDeadlockError, TrueDeadlockError
from repro.kpn import Network
from repro.kpn.process import IterativeProcess
from repro.kpn.scheduler import DeadlockPolicy
from repro.processes import Collect, Sequence
from repro.processes.networks import hamming, modulo_merge
from repro.semantics import hamming_reference


# ---------------------------------------------------------------------------
# Figure 13: acyclic graph that deadlocks with small capacities
# ---------------------------------------------------------------------------

def test_fig13_needs_growth_with_tiny_capacity():
    """divisor=10 → 9 elements pile up on the lower channel per upper
    element; a 16-byte (2-long) channel must deadlock without growth."""
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    built = modulo_merge(200, divisor=10, network=net, channel_capacity=16)
    out = built.run(timeout=60)
    assert out == list(range(1, 201))
    grown = net.growth_events()
    assert grown, "expected at least one capacity growth"
    assert any("lower" in e.channel_name for e in grown)


def test_fig13_growth_disabled_reports_artificial_deadlock():
    net = Network(policy=DeadlockPolicy(grow=False))
    built = modulo_merge(200, divisor=10, network=net, channel_capacity=16)
    with pytest.raises(ArtificialDeadlockError):
        built.run(timeout=60)


def test_fig13_large_capacity_needs_no_growth():
    net = Network()
    built = modulo_merge(200, divisor=10, network=net, channel_capacity=1 << 16)
    out = built.run(timeout=60)
    assert out == list(range(1, 201))
    assert net.growth_events() == []


def test_fig13_capacity_cap_turns_growth_into_error():
    net = Network(policy=DeadlockPolicy(growth_factor=2, max_capacity=32))
    built = modulo_merge(2000, divisor=100, network=net, channel_capacity=16)
    with pytest.raises(ArtificialDeadlockError, match="max capacity"):
        built.run(timeout=60)


# ---------------------------------------------------------------------------
# Figure 12: the unbounded Hamming network
# ---------------------------------------------------------------------------

def test_hamming_runs_under_growth():
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    built = hamming(40, network=net, channel_capacity=16)
    out = built.run(timeout=120)
    assert out == hamming_reference(40)
    assert net.growth_events(), "tiny channels must have grown"


def test_hamming_growth_chooses_smallest_full_channel():
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    built = hamming(30, network=net, channel_capacity=16)
    built.run(timeout=120)
    for e in net.growth_events():
        assert e.new_capacity == 2 * e.old_capacity


def test_hamming_results_identical_with_and_without_growth():
    grown = hamming(25, network=Network(), channel_capacity=16).run(timeout=120)
    roomy = hamming(25, network=Network(), channel_capacity=1 << 16).run(timeout=120)
    assert grown == roomy == hamming_reference(25)


# ---------------------------------------------------------------------------
# true deadlock
# ---------------------------------------------------------------------------

class ReadForever(IterativeProcess):
    def __init__(self, stream, name=None):
        super().__init__(name=name)
        self.stream = stream
        self.track(stream)

    def step(self):
        self.stream.read_exactly(8)


def test_true_deadlock_detected_and_raised():
    """Two processes each waiting for the other's (never-produced) data."""
    net = Network(policy=DeadlockPolicy(on_true="raise"))
    a, b = net.channels_n(2)
    net.add(ReadForever(a.get_input_stream(), name="ra"))
    net.add(ReadForever(b.get_input_stream(), name="rb"))
    with pytest.raises(TrueDeadlockError):
        net.run(timeout=30)


def test_true_deadlock_stop_policy_silent():
    net = Network(policy=DeadlockPolicy(on_true="stop"))
    ch = net.channel()
    net.add(ReadForever(ch.get_input_stream()))
    assert net.run(timeout=30)  # shut down, no exception


def test_no_false_true_deadlock_under_gil_contention():
    """Spinning threads outside the network starve its threads of the
    GIL for longer than the settle window.  Neither a process that
    ``start()`` has not spawned yet nor one woken but not yet run is
    stalled, so no verdict may fire."""
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    spinners = [threading.Thread(target=spin, daemon=True) for _ in range(4)]
    for t in spinners:
        t.start()
    try:
        for cap in (16, 1 << 16):
            built = hamming(25, network=Network(), channel_capacity=cap)
            assert built.run(timeout=120) == hamming_reference(25)
    finally:
        stop.set()
        for t in spinners:
            t.join(timeout=5)
    assert not any(t.is_alive() for t in spinners)


def test_no_false_positive_while_producer_computes():
    """A busy (unblocked) producer must never be diagnosed as deadlock."""
    net = Network(policy=DeadlockPolicy(on_true="raise", settle_ms=5))

    class SlowSource(IterativeProcess):
        def __init__(self, out_stream):
            super().__init__(iterations=20)
            self.out = out_stream
            self.track(out_stream)

        def step(self):
            import time

            time.sleep(0.01)  # compute, unblocked
            from repro.processes.codecs import LONG

            LONG.write(self.out, self.steps_completed)

    ch = net.channel()
    out = []
    net.add(SlowSource(ch.get_output_stream()))
    net.add(Collect(ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == list(range(20))


def test_growth_event_records_details():
    net = Network(policy=DeadlockPolicy(growth_factor=4))
    built = modulo_merge(200, divisor=10, network=net, channel_capacity=16)
    built.run(timeout=60)
    e = net.growth_events()[0]
    assert e.new_capacity == 4 * e.old_capacity
    assert e.blocked_processes  # names captured for diagnosis


def test_capacity1_pipeline_still_correct():
    """Absurdly small capacity just serializes; results unchanged."""
    net = Network()
    ch = net.channel(capacity=1)
    out = []
    net.add(Sequence(ch.get_output_stream(), start=0, iterations=50))
    net.add(Collect(ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == list(range(50))
