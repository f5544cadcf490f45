"""The bus's two fast paths, the idle skip and the in-frame skip-ahead, must
give exactly what stepping every bit gives. ``Bus._SKIP = False`` turns both
off, so plain stepping is the reference here."""

import pytest
from hypothesis import given, settings, strategies as st

from vcanlab.bus import Bus, BusConfig, EventKind, ScheduleEntry
from vcanlab.codec import DOMINANT, RECESSIVE, TAIL_BITS, encode_frame
from vcanlab.frame import data_frame, remote_frame
from vcanlab.node import NodeMode, NodeState, RECOVERY_GROUP_BITS, RECOVERY_GROUPS


@st.composite
def frames(draw):
    extended = draw(st.booleans())
    id_value = draw(st.integers(0, (1 << (29 if extended else 11)) - 1))
    if draw(st.integers(0, 6)) == 0:
        return remote_frame(id_value, draw(st.integers(0, 8)), extended)
    return data_frame(id_value, draw(st.binary(max_size=8)), extended)


@st.composite
def scenarios(draw):
    """Up to five nodes, contending frames, faults anywhere up to the
    horizon, and sometimes a node forced bus-off before the run."""
    n = draw(st.integers(1, 5))
    names = [f"n{i}" for i in range(n)]
    horizon = draw(st.integers(1, 12_000))
    schedule = draw(st.lists(
        st.builds(ScheduleEntry, st.integers(0, 3_000), st.sampled_from(names),
                  frames()),
        max_size=12))
    faults = draw(st.lists(
        st.tuples(st.integers(0, horizon), st.sampled_from([DOMINANT, RECESSIVE])),
        max_size=40))
    forced = draw(st.none() | st.sampled_from(names))
    return names, schedule, horizon, faults, forced


def build(names, faults, forced):
    bus = Bus(BusConfig())
    for name in names:
        bus.attach_node(name)
    for bit, level in faults:
        bus.inject_fault(bit, level)
    if forced is not None:
        bus.nodes[forced].state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
    return bus


def outcome(bus, trace):
    return (trace, bus.status_lines(),
            [len(n.received) for n in bus.nodes.values()])


def run_whole(scn, skip):
    names, schedule, horizon, faults, forced = scn
    saved = Bus._SKIP
    Bus._SKIP = skip
    try:
        bus = build(names, faults, forced)
        return outcome(bus, bus.run(schedule, horizon))
    finally:
        Bus._SKIP = saved


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_skips_match_plain_stepping(scn):
    assert run_whole(scn, True) == run_whole(scn, False)


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.data())
def test_split_run_equals_one_run(scn, data):
    names, schedule, horizon, faults, forced = scn
    split = data.draw(st.integers(0, horizon))
    bus = build(names, faults, forced)
    first = bus.run(schedule, split)
    assert bus.now == split
    second = bus.run([], horizon)
    assert bus.now == horizon
    assert outcome(bus, first + second) == run_whole(scn, True)
    # FrameDelivered is stamped at the end of intermission, after the last
    # simulated bit; every other event happens at a simulated bit.
    for until, events in ((split, first), (horizon, second)):
        assert all(e.time_bits < until for e in events
                   if e.kind is not EventKind.FRAME_DELIVERED)


@pytest.mark.parametrize("skip", [True, False])
def test_ack_slot_never_skipped(monkeypatch, skip):
    # A fault one bit before the ACK slot makes stepping land on the slot.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    frame = data_frame(0x100, bytes(8))
    stream = encode_frame(frame).stuffed_bits
    ack = len(stream) - TAIL_BITS + 1
    bus = Bus(BusConfig())
    bus.attach_node("solo")
    bus.inject_fault(ack - 1, stream[ack - 1])
    trace = bus.run([ScheduleEntry(0, "solo", frame)], 5_000)
    outcomes = [(e.kind, e.time_bits) for e in trace
                if e.kind in (EventKind.ACK_ERROR, EventKind.FRAME_DELIVERED)]
    assert outcomes[0] == (EventKind.ACK_ERROR, ack)
    assert EventKind.FRAME_DELIVERED not in dict(outcomes)


def test_horizon_inside_a_frame():
    bus = Bus(BusConfig())
    bus.attach_node("a")
    bus.attach_node("b")
    trace = bus.run([ScheduleEntry(0, "a", data_frame(0x100, bytes(8)))], 50)
    assert bus.now == 50
    assert [e.kind for e in trace] == [EventKind.TX_START]


@pytest.mark.parametrize("skip", [True, False])
def test_arrivals_during_skip_precede_bus_off(monkeypatch, skip):
    # A lone sender never gets an ACK and goes bus-off after 32 attempts.
    # Frames that arrived before that must be queued, not dropped.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = Bus(BusConfig())
    solo = bus.attach_node("solo")
    frame = data_frame(0x100, bytes(8))
    schedule = [ScheduleEntry(t, "solo", frame) for t in range(0, 4_000, 37)]
    trace = bus.run(schedule, 4_000)
    off = [e.time_bits for e in trace if e.kind is EventKind.BUS_OFF_ENTERED]
    assert len(off) == 1
    arrived_before = sum(1 for e in schedule if bus.arrival_bit(e.time_us) <= off[0])
    assert len(solo.queue) == arrived_before


def test_forced_bus_off_recovers_with_skips_on():
    recovery_bits = RECOVERY_GROUPS * RECOVERY_GROUP_BITS
    assert recovery_bits == 1408
    bus = Bus(BusConfig())
    bus.attach_node("a")
    ghost = bus.attach_node("ghost")
    ghost.state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
    assert bus.run([], recovery_bits - 1) == []
    assert ghost.state.mode is NodeMode.BUS_OFF
    trace = bus.run([], recovery_bits + 10_000)
    assert [(e.kind, e.node, e.time_bits) for e in trace] == [
        (EventKind.BUS_OFF_RECOVERED, "ghost", recovery_bits - 1)]
    assert ghost.state == NodeState()


@pytest.mark.parametrize("skip", [True, False])
def test_recovered_node_resends_its_queued_frame(monkeypatch, skip):
    # A lone sender goes bus-off with its frame still queued. The bit it
    # recovers on must not start an idle skip: it retransmits at the next bit.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = Bus(BusConfig())
    solo = bus.attach_node("solo")
    trace = bus.run([ScheduleEntry(0, "solo", data_frame(0x100, bytes(8)))], 12_000)
    assert solo.queue
    recovered = [e.time_bits for e in trace if e.kind is EventKind.BUS_OFF_RECOVERED]
    assert recovered[0] == 5180
    nxt = next(e for e in trace if e.time_bits > 5180)
    assert (nxt.kind, nxt.time_bits) == (EventKind.RETRANSMIT, 5181)
