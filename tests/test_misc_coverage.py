"""Cross-cutting edge cases not covered by the per-module suites."""

import threading
import time

import pytest

from repro.errors import ChannelError
from repro.kpn import Network
from repro.kpn.buffers import BoundedByteBuffer
from repro.kpn.process import CompositeProcess
from repro.kpn.streams import (LocalInputStream, LocalOutputStream,
                               SequenceInputStream)
from repro.processes import Collect, FromIterable, Scale, Sequence

from tests.conftest import start_thread


# ---------------------------------------------------------------------------
# splice-while-blocked (the exact timing window of Figure 10)
# ---------------------------------------------------------------------------

def test_sequence_append_while_reader_blocked():
    """A reader blocked on the current (empty, open) stream must pick up
    a stream appended *during* the block once the current one closes."""
    buf1, buf2 = BoundedByteBuffer(64), BoundedByteBuffer(64)
    seq = SequenceInputStream(LocalInputStream(buf1))
    got = []

    def reader():
        while True:
            chunk = seq.read(16)
            if not chunk:
                return
            got.append(chunk)

    t = start_thread(reader)
    time.sleep(0.05)            # reader is now blocked inside buf1.read
    seq.append(LocalInputStream(buf2))
    buf2.write(b"tail")
    buf2.close_write()
    buf1.write(b"head")         # wake the reader with head data...
    buf1.close_write()          # ...then end the first stream
    t.join(timeout=10)
    assert b"".join(got) == b"headtail"


# ---------------------------------------------------------------------------
# nested composite migration
# ---------------------------------------------------------------------------

def test_nested_composite_migrates_whole(tmp_path):
    from repro.distributed import ComputeServer, ServerClient

    server = ComputeServer(name="nest").start()
    client = ServerClient("127.0.0.1", server.port)
    try:
        net = Network()
        inbound, mid, outbound = net.channels_n(3)
        out = []
        inner = CompositeProcess(name="inner")
        inner.add(Scale(inbound.get_input_stream(), mid.get_output_stream(),
                        2, name="n-x2"))
        outer = CompositeProcess(name="outer")
        outer.add(inner)
        outer.add(Scale(mid.get_input_stream(), outbound.get_output_stream(),
                        5, name="n-x5"))
        client.run(outer)
        net.add(FromIterable(inbound.get_output_stream(), [1, 2, 3]))
        net.add(Collect(outbound.get_input_stream(), out))
        net.run(timeout=60)
        assert out == [10, 20, 30]
    finally:
        client.close()
        server.stop()


# ---------------------------------------------------------------------------
# graph export after self-reconfiguration
# ---------------------------------------------------------------------------

def test_graph_reflects_dynamically_inserted_processes():
    from repro.processes import primes

    net = Network()
    built = primes(count=6, network=net)
    built.run(timeout=60)
    g = net.graph()
    moduli = {int(n.split("-", 1)[1]) for n in g.nodes
              if n.startswith("Modulo-")}
    # one filter per emitted prime; Sift may also insert the next one
    # (Modulo-17) before Collect's close reaches it, which Kahn semantics
    # allow, so only the emitted six are guaranteed
    assert {2, 3, 5, 7, 11, 13} <= moduli
    assert all(p > 1 and all(p % d for d in range(2, p)) for p in moduli)


# ---------------------------------------------------------------------------
# object stream frame cap
# ---------------------------------------------------------------------------

def test_object_stream_rejects_oversized_object():
    from repro.kpn.channel import Channel
    from repro.kpn import objects
    from repro.kpn.objects import ObjectOutputStream

    original = objects.MAX_FRAME_BYTES
    objects.MAX_FRAME_BYTES = 128
    try:
        ch = Channel(1024)
        out = ObjectOutputStream(ch.get_output_stream())
        with pytest.raises(ChannelError, match="exceeds cap"):
            out.write_object("x" * 1024)
    finally:
        objects.MAX_FRAME_BYTES = original


# ---------------------------------------------------------------------------
# farm consumer iteration limits through meta compositions
# ---------------------------------------------------------------------------

def test_farm_consumer_iteration_limit_cuts_cleanly():
    from repro.parallel import CallableTask, RangeProducerTask, run_farm

    got = run_farm(RangeProducerTask(10 ** 6, lambda i: CallableTask(abs, i)),
                   n_workers=3, mode="dynamic", consumer_iterations=9,
                   timeout=120)
    assert got == list(range(9))


def test_farm_pipeline_mode_with_slowdown():
    from repro.parallel import CallableTask, RangeProducerTask, run_farm

    got = run_farm(RangeProducerTask(5, lambda i: CallableTask(abs, i)),
                   mode="pipeline", slowdowns=[0.002], timeout=60)
    assert got == list(range(5))


# ---------------------------------------------------------------------------
# channel adoption + accounting rebind mid-network
# ---------------------------------------------------------------------------

def test_adopted_channel_participates_in_deadlock_management():
    from repro.kpn.channel import Channel
    from repro.processes import ModuloRouter, OrderedMerge

    net = Network()
    loose = Channel(16, name="adopted-lower")  # created outside the network
    net.adopt_channel(loose)
    src = net.channel(16, name="a-src")
    upper = net.channel(16, name="a-upper")
    out_ch = net.channel(name="a-out")
    out = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=120))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         loose.get_output_stream(), 10))
    net.add(OrderedMerge(upper.get_input_stream(), loose.get_input_stream(),
                         out_ch.get_output_stream()))
    net.add(Collect(out_ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == list(range(1, 121))
    # the adopted channel was growable by the monitor like any other
    assert any(e.channel_name == "adopted-lower"
               for e in net.growth_events())


# ---------------------------------------------------------------------------
# wire: every tag is distinct (protocol hygiene)
# ---------------------------------------------------------------------------

def test_wire_tags_distinct():
    from repro.distributed.wire import Tag

    values = [getattr(Tag, n) for n in dir(Tag) if n.isupper()]
    assert len(values) == len(set(values))
