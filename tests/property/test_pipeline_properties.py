"""Pipelining framing properties: multi-request frames are transparent.

A coalesced MSG_MULTI transmission is pure framing — a length-prefixed
concatenation of the exact wire bytes the member requests would have
carried had they been sent singly.  These properties pin that
transparency on random frame sets: encode_multi → decode returns the
member byte strings unchanged, and decoding a member inside a multi
yields the same logical message as decoding it sent alone.

:class:`PipelineMachine` then drives one sender ORB's oneway pipeline
through random sends, clock advances, forced flushes and crashes, and
checks the send path against a model read off the wire.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.orb import giop
from repro.orb.cdr import CDRDecoder, decode_value
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM, MARSHAL
from repro.orb.typecodes import tc_long
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

frame_bytes = st.binary(min_size=1, max_size=200)
frame_lists = st.lists(frame_bytes, min_size=1, max_size=24)


@settings(max_examples=150, deadline=None)
@given(frame_lists)
def test_roundtrip_is_byte_identical(frames):
    decoded = giop.decode_message(giop.encode_multi(frames))
    assert type(decoded) is giop.MultiMessage
    assert list(decoded.frames) == frames


@settings(max_examples=100, deadline=None)
@given(frame_lists)
def test_wire_length_is_header_plus_padded_frames(frames):
    wire = giop.encode_multi(frames)
    expect = giop._MULTI_HEAD.size
    for f in frames:
        expect += 4 + len(f) + (-len(f)) % 4
    assert len(wire) == expect


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 31 - 1),
                min_size=1, max_size=16),
       st.text(min_size=0, max_size=12))
def test_member_decodes_same_alone_or_pipelined(request_ids, operation):
    # Real request frames, not random bytes: each member of a multi
    # must decode to the same logical RequestMessage as when it is the
    # whole transmission.
    prefix = giop.encode_request_prefix("h0", "root", "obj-1",
                                        operation or "op")
    singles = [giop.encode_request(rid, rid % 2 == 0, prefix, b"\x00" * 4)
               for rid in request_ids]
    multi = giop.decode_message(giop.encode_multi(singles))
    assert len(multi.frames) == len(singles)
    for wire, frame in zip(singles, multi.frames):
        assert frame == wire
        assert giop.decode_message(frame) == giop.decode_message(wire)


@settings(max_examples=100, deadline=None)
@given(frame_lists, st.data())
def test_truncation_never_escapes_as_python_error(frames, data):
    wire = giop.encode_multi(frames)
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    try:
        giop.decode_message(wire[:cut])
    except (MARSHAL, BAD_PARAM):
        pass        # defensive decode: SystemException, nothing rawer


SINK_IFACE = InterfaceDef("IDL:test/SeqSink:1.0", "SeqSink", operations=[
    op("note", [("seq", tc_long)], oneway=True),
])
NOTE = SINK_IFACE.operations["note"]
DESTS = ("h0", "h1", "h2")


class SeqSink(Servant):
    _interface = SINK_IFACE

    def __init__(self):
        self.seqs = []

    def note(self, seq):
        self.seqs.append(seq)


class PipelineMachine(RuleBasedStateMachine):
    """The oneway pipeline of ``hub`` sending to sinks on h0..h2.

    The model is kept from the outside: every oneway carries a fresh
    sequence number, a spy on ``Network.send`` records when each one
    reaches the wire, and a frame sent but not yet on the wire is
    *pending*.  Invariants:

    - per destination, delivery is FIFO and exactly-once for every
      frame not lost to a crash (checked in full at teardown);
    - frames pending at a crash never reach the wire or a servant;
    - a send to a quiet destination (nothing pending, nothing on the
      wire within the window) reaches the wire in the same instant and
      arms no timer; any other send waits unless it fills the buffer;
    - a frame is held only while the window opened by the last
      transmission to its destination is open, and nothing is pending
      after a flush;
    - with ``pipeline_window=0`` every oneway is one wire message.
    """

    @initialize(window=st.sampled_from((0.0, 0.0005, 0.01)))
    def setup(self, window):
        self.env = Environment()
        self.net = Network(self.env, star(len(DESTS)), rngs=RngRegistry(1))
        self.window = window
        self.sender = ORB(self.env, self.net, "hub", pipeline_window=window)
        self.sinks = {}
        self.iors = {}
        for dst in DESTS:
            sink = SeqSink()
            self.iors[dst] = ORB(self.env, self.net, dst).adapter(
                "root").activate(sink)
            self.sinks[dst] = sink
        self.next_seq = 0
        self.oneways = 0
        self.sent = {dst: [] for dst in DESTS}
        self.on_wire = {}                       # (dst, seq) -> sim-time
        self.last_wire = {dst: float("-inf") for dst in DESTS}
        self.wire_messages = 0
        self.lost = set()                       # (dst, seq)
        send = self.net.send

        def spy(src, dst, port, payload, size, frames=1):
            if src == "hub":
                self.wire_messages += 1
                self.last_wire[dst] = self.env.now
                decoded = giop.decode_message(payload)
                members = (decoded.frames
                           if type(decoded) is giop.MultiMessage
                           else (payload,))
                for frame in members:
                    args = giop.decode_message(frame).args
                    seq = decode_value(CDRDecoder(args), tc_long)
                    self.on_wire[dst, seq] = self.env.now
            return send(src, dst, port, payload, size, frames)

        self.net.send = spy

    def pending(self, dst):
        return [seq for seq in self.sent[dst]
                if (dst, seq) not in self.on_wire
                and (dst, seq) not in self.lost]

    def quiet(self, dst):
        return (not self.pending(dst)
                and self.env.now - self.last_wire[dst] >= self.window)

    def _send(self, dsts):
        """Send one oneway to *dsts*; return the kernel queue length
        before the send."""
        seq = self.next_seq
        self.next_seq += 1
        expect_now = {}
        for dst in dsts:
            expect_now[dst] = self.quiet(dst) or (
                len(self.pending(dst)) + 1 >= ORB.PIPELINE_MAX_FRAMES)
            self.sent[dst].append(seq)
        queued = len(self.env._queue)
        if len(dsts) == 1:
            self.sender.send_oneway(self.iors[dsts[0]], NOTE, (seq,))
        else:
            self.sender.send_oneway_fanout(
                [self.iors[dst] for dst in dsts], NOTE, (seq,))
        self.oneways += len(dsts)
        for dst in dsts:
            if expect_now[dst]:
                assert self.on_wire.get((dst, seq)) == self.env.now, (
                    dst, seq)
            else:
                assert self.pending(dst)[-1] == seq, (dst, seq)
        return queued

    @rule(dst=st.sampled_from(DESTS), burst=st.integers(1, 3))
    def send(self, dst, burst):
        for _ in range(burst):
            was_quiet = self.quiet(dst)
            queued = self._send([dst])
            if was_quiet:
                # One kernel event: the delivery.  No window timer.
                assert len(self.env._queue) == queued + 1

    @rule(dsts=st.lists(st.sampled_from(DESTS), min_size=2, max_size=3,
                        unique=True))
    def fanout(self, dsts):
        self._send(dsts)

    @rule(step=st.sampled_from(("below", "above")))
    def advance(self, step):
        if step == "below":
            self.env.run(until=self.env.now + 0.6 * self.window)
        else:
            self.env.run(until=self.env.now + self.window + 0.05)
            for dst in DESTS:
                assert not self.pending(dst), dst

    @rule()
    def flush(self):
        self.sender.flush_pipelines()
        for dst in DESTS:
            assert not self.pending(dst), dst

    @rule()
    def crash_restart(self):
        for dst in DESTS:
            self.lost.update((dst, seq) for seq in self.pending(dst))
        host = self.net.topology.host("hub")
        host.crash()
        host.restart()

    @invariant()
    def delivery_is_fifo_and_never_resurrects(self):
        for dst, sink in self.sinks.items():
            got = sink.seqs
            assert all(a < b for a, b in zip(got, got[1:])), (dst, got)
            assert set(got) <= set(self.sent[dst])
            assert not self.lost & {(dst, seq) for seq in got}, (dst, got)
        assert not self.lost & self.on_wire.keys()

    @invariant()
    def held_frames_wait_less_than_a_window(self):
        for dst in DESTS:
            if self.pending(dst):
                # 1e-9: the timer's delay is computed, not the exact sum.
                assert (self.env.now - self.last_wire[dst]
                        < self.window + 1e-9), dst

    @invariant()
    def zero_window_is_one_message_per_oneway(self):
        if self.window == 0.0:
            assert self.wire_messages == self.oneways

    def teardown(self):
        self.sender.flush_pipelines()
        self.env.run(until=self.env.now + 1.0)
        for dst, sink in self.sinks.items():
            assert sink.seqs == [seq for seq in self.sent[dst]
                                 if (dst, seq) not in self.lost], dst


TestPipelineMachine = PipelineMachine.TestCase
TestPipelineMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
