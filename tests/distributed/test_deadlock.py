"""Distributed deadlock detection (paper section 6.2, implemented)."""

import time

import pytest

from repro.errors import TrueDeadlockError
from repro.kpn import Network
from repro.kpn.process import IterativeProcess
from repro.kpn.scheduler import DeadlockPolicy
from repro.distributed.deadlock import DistributedDeadlockDetector
from repro.distributed.server import ComputeServer, ServerClient
from repro.processes import Collect, ModuloRouter, OrderedMerge, Sequence


@pytest.fixture
def server():
    s = ComputeServer(name="ddl").start()
    yield s, ServerClient("127.0.0.1", s.port)
    s.stop()


class ReadForever(IterativeProcess):
    def __init__(self, stream, name=None):
        super().__init__(name=name)
        self.stream = stream
        self.track(stream)

    def step(self):
        self.stream.read_exactly(8)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_wait_snapshot_shape_local():
    net = Network(policy=DeadlockPolicy(on_true="ignore"))
    ch = net.channel(name="empty")
    net.add(ReadForever(ch.get_input_stream(), name="r"))
    net.start()
    time.sleep(0.1)
    snap = net.wait_snapshot()
    assert snap["live"] == ["r"]
    assert snap["blocked"][0]["mode"] == "read"
    assert snap["blocked"][0]["channel"] == "empty"
    net.shutdown()
    net.join(timeout=10)


def test_wait_snapshot_via_rpc(server):
    srv, client = server
    snap = client.wait_snapshot()
    assert snap["live"] == [] and snap["blocked"] == []


def test_grow_channel_via_rpc(server):
    srv, client = server
    ch = srv.network.channel(16, name="growme")
    assert client.grow_channel("growme", 64) is True
    assert ch.capacity == 64
    assert client.grow_channel("nonesuch", 64) is False


# ---------------------------------------------------------------------------
# detection on purely local participants (unit-level)
# ---------------------------------------------------------------------------

def test_no_stall_reported_while_running():
    net = Network()
    ch = net.channel()
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=200))
    net.add(Collect(ch.get_input_stream(), out))
    net.start()
    detector = DistributedDeadlockDetector([net], settle_s=0.01)
    # may or may not catch a transient; must never declare true deadlock
    detector.check_once()
    net.join(timeout=30)
    assert detector.true_deadlocks == []
    assert out == list(range(200))


def test_true_deadlock_detected_locally():
    net = Network(policy=DeadlockPolicy(on_true="ignore"))  # monitor off
    a, b = net.channels_n(2)
    net.add(ReadForever(a.get_input_stream(), name="ra"))
    net.add(ReadForever(b.get_input_stream(), name="rb"))
    net.start()
    time.sleep(0.1)
    detector = DistributedDeadlockDetector([net], settle_s=0.02)
    report = detector.check_once()
    assert report is not None and not report.artificial
    assert len(report.read_blocked) == 2
    with pytest.raises(TrueDeadlockError):
        detector.raise_on_true_deadlock()
    net.shutdown()
    net.join(timeout=10)


# ---------------------------------------------------------------------------
# the real thing: cross-server artificial deadlock (distributed Figure 13)
# ---------------------------------------------------------------------------

def test_distributed_fig13_resolved_by_global_parks_rule(server):
    """The Figure-13 write-block happens on the client, whose own monitor
    is disabled (``bounded=False``); the computation additionally spans a
    remote stage, so the run stalls *globally* — and only the distributed
    detector's global Parks rule can unwedge it.

    (A cross-link channel itself rarely write-blocks at small scale: TCP
    socket buffers add kilobytes of slack — noted in DESIGN.md.  The
    global detector's job is precisely the mixed case: local stalls in
    networks that have remote links, where local diagnosis stands down.)
    """
    srv, client = server
    net = Network(name="fig13-client", bounded=False)  # no local monitor
    src = net.channel(16, name="d13-src")
    upper = net.channel(16, name="d13-upper")
    lower = net.channel(16, name="d13-lower")
    merged = net.channel(16, name="d13-merged")
    back = net.channel(16, name="d13-back")
    out = []
    n_values = 200
    net.add(Sequence(src.get_output_stream(), start=1, iterations=n_values,
                     name="Source"))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         lower.get_output_stream(), 10, name="Mod"))
    net.add(OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                         merged.get_output_stream(), name="Merge"))
    # an identity stage on the server: the network now has remote links
    from repro.processes import Scale

    client.run(Scale(merged.get_input_stream(), back.get_output_stream(), 1,
                     name="RemoteEcho"))
    net.add(Collect(back.get_input_stream(), out, name="Sink"))

    detector = DistributedDeadlockDetector([net, client], settle_s=0.03)
    detector.start(interval_s=0.03)
    try:
        net.start()
        assert net.join(timeout=120)
    finally:
        detector.stop()
    assert out == list(range(1, n_values + 1))
    assert detector.growth_events, "global growth should have been needed"
    assert detector.true_deadlocks == []
    grown_names = {e.channel_name for e in detector.growth_events}
    assert grown_names & {"d13-lower", "d13-upper", "d13-src", "d13-merged"}


def test_distributed_true_deadlock_reported(server):
    """Readers on both sites, no producers anywhere: true global deadlock."""
    srv, client = server
    net = Network(name="true-client", policy=DeadlockPolicy(on_true="ignore"))
    local_ch = net.channel(name="t-local")
    cross = net.channel(name="t-cross")
    net.add(ReadForever(local_ch.get_input_stream(), name="local-reader"))
    client.run(ReadForever(cross.get_input_stream(), name="remote-reader"))
    net.start()
    time.sleep(0.3)

    detector = DistributedDeadlockDetector([net, client], settle_s=0.05)
    deadline = time.monotonic() + 20
    report = None
    while report is None and time.monotonic() < deadline:
        report = detector.check_once()
    assert report is not None and not report.artificial
    sites = {site for site, _ in report.read_blocked}
    assert len(sites) == 2  # both the client and the server are stuck
    net.shutdown()
    srv.network.shutdown()
    net.join(timeout=10)


def test_detector_requires_participants():
    with pytest.raises(ValueError):
        DistributedDeadlockDetector([])


def test_detector_context_manager():
    net = Network()
    with DistributedDeadlockDetector([net]) as detector:
        assert detector._thread is not None and detector._thread.is_alive()
    assert not detector._thread.is_alive()


class Spin(IterativeProcess):
    """Runs unblocked for a while: a site that is making progress."""

    def step(self):
        time.sleep(0.02)


def test_same_named_networks_are_separate_sites():
    """Two default-named networks must not collapse onto one site key:
    a stuck reader at one site is no global deadlock while the other
    site still runs."""
    running = Network(bounded=False)
    running.add(Spin(iterations=25, name="spin"))
    stuck = Network(policy=DeadlockPolicy(on_true="ignore"))
    ch = stuck.channel(name="never")
    stuck.add(ReadForever(ch.get_input_stream(), name="r"))
    running.start()
    stuck.start()
    try:
        time.sleep(0.1)
        detector = DistributedDeadlockDetector([running, stuck], settle_s=0.02)
        assert len(detector.snapshot_all()) == 2
        assert detector.check_once() is None
        assert detector.true_deadlocks == []
    finally:
        stuck.shutdown()
        running.join(timeout=30)
        stuck.join(timeout=10)


def test_failed_poll_recorded_naming_the_site():
    srv = ComputeServer(name="vanishing").start()
    client = ServerClient("127.0.0.1", srv.port)
    detector = DistributedDeadlockDetector([client], settle_s=0.01)
    detector.start(interval_s=0.01)
    try:
        time.sleep(0.1)
        assert detector.error is None
        srv.stop()
        deadline = time.monotonic() + 20
        while detector.error is None and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        detector.stop()
        client.close()
    assert detector.error is not None
    assert f"server:127.0.0.1:{srv.port}" in str(detector.error)


class FrozenSite:
    """A participant whose snapshot never changes: one blocked reader."""

    host, port = "fake", 1

    def __init__(self, buffered):
        self.buffered = buffered

    def wait_snapshot(self):
        return {"network": "fake", "generation": 7, "live": ["r"],
                "remote_links": [],
                "blocked": [{"thread": "r", "kind": "thread", "mode": "read",
                             "channel": "c", "capacity": 8,
                             "buffered": self.buffered}]}

    def grow_channel(self, channel, capacity):
        return False


def test_woken_remote_reader_is_no_deadlock():
    """A reader still listed as blocked over a non-empty buffer has been
    woken and just has not run yet: no verdict."""
    assert DistributedDeadlockDetector([FrozenSite(8)],
                                       settle_s=0).check_once() is None
    report = DistributedDeadlockDetector([FrozenSite(0)],
                                         settle_s=0).check_once()
    assert report is not None and not report.artificial
