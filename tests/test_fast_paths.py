"""The bus's two fast paths, the idle skip and the in-frame skip-ahead, must
give exactly what stepping every bit gives. ``Bus._SKIP = False`` turns both
off, so plain stepping is the reference here."""

import pytest
from hypothesis import given, settings, strategies as st

from vcanlab.bus import INTERMISSION_BITS, Bus, BusConfig, EventKind, ScheduleEntry
from vcanlab.codec import DOMINANT, RECESSIVE, TAIL_BITS, encode_frame, wire_plan
from vcanlab.frame import data_frame, remote_frame
from vcanlab.node import (ERROR_PASSIVE_LIMIT, RECOVERY_GROUP_BITS, RECOVERY_GROUPS,
                          AcceptanceFilter, NodeMode, NodeState, accepts)

# Small ids and masks make filters match often enough to exercise the bus's
# table of accepting nodes.
SMALL_IDS = st.integers(0, 15)


@st.composite
def frames(draw):
    extended = draw(st.booleans())
    id_value = draw(SMALL_IDS | st.integers(0, (1 << (29 if extended else 11)) - 1))
    if draw(st.integers(0, 6)) == 0:
        return remote_frame(id_value, draw(st.integers(0, 8)), extended)
    return data_frame(id_value, draw(st.binary(max_size=8)), extended)


@st.composite
def filters(draw):
    extended = draw(st.booleans())
    full = (1 << (29 if extended else 11)) - 1
    mask = draw(st.sampled_from([0, 0x7, 0xF, full]) | st.integers(0, full))
    return AcceptanceFilter(draw(SMALL_IDS), mask, extended)


@st.composite
def scenarios(draw):
    """Up to twelve nodes, some with standard or extended acceptance filters,
    contending frames, faults anywhere up to the horizon, and sometimes a
    node forced bus-off before the run."""
    n = draw(st.integers(1, 12))
    nodes = [(f"n{i}", draw(st.none() | filters())) for i in range(n)]
    horizon = draw(st.integers(1, 12_000))
    senders = st.sampled_from([name for name, _ in nodes])
    schedule = draw(st.lists(
        st.builds(ScheduleEntry, st.integers(0, 3_000), senders, frames()),
        max_size=12))
    faults = draw(st.lists(
        st.tuples(st.integers(0, horizon), st.sampled_from([DOMINANT, RECESSIVE])),
        max_size=40))
    forced = draw(st.none() | senders)
    return nodes, schedule, horizon, faults, forced


def build(nodes, faults, forced):
    bus = Bus(BusConfig())
    for name, accept_filter in nodes:
        bus.attach_node(name, accept_filter)
    for bit, level in faults:
        bus.inject_fault(bit, level)
    if forced is not None:
        bus.nodes[forced].state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
    return bus


def outcome(bus, trace):
    return (trace, bus.status_lines(),
            [n.received for n in bus.nodes.values()])


def with_skip(skip, fn, *args):
    saved = Bus._SKIP
    Bus._SKIP = skip
    try:
        return fn(*args)
    finally:
        Bus._SKIP = saved


def run_whole(scn, skip):
    nodes, schedule, horizon, faults, forced = scn

    def go():
        bus = build(nodes, faults, forced)
        return outcome(bus, bus.run(schedule, horizon))
    return with_skip(skip, go)


def received_by_trace(nodes, trace, forced):
    """Each node's received frames rebuilt from the trace: every delivered
    frame its filter accepts, unless it sent that frame or was bus-off."""
    senders = {}
    for e in trace:
        if e.kind is EventKind.FRAME_DELIVERED:
            senders.setdefault(e.time_bits, set()).add(e.node)
    off = {name: name == forced for name, _ in nodes}
    received = {name: [] for name, _ in nodes}
    for e in trace:
        if e.kind in (EventKind.BUS_OFF_ENTERED, EventKind.BUS_OFF_RECOVERED):
            off[e.node] = e.kind is EventKind.BUS_OFF_ENTERED
        elif e.kind is EventKind.FRAME_DELIVERED:
            for name, accept_filter in nodes:
                if (name not in senders[e.time_bits] and not off[name]
                        and (accept_filter is None or accepts(accept_filter, e.frame.id))):
                    received[name].append(e.frame)
    return [received[name] for name, _ in nodes]


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_skips_match_plain_stepping(scn):
    nodes, _, _, _, forced = scn
    got = run_whole(scn, True)
    assert got == run_whole(scn, False)
    trace, _, received = got
    assert received == received_by_trace(nodes, trace, forced)


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.data())
def test_split_run_equals_one_run(scn, data):
    nodes, schedule, horizon, faults, forced = scn
    split = data.draw(st.integers(0, horizon))
    bus = build(nodes, faults, forced)
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


# A lone frame from bit 0 at 1 Mbps, where a microsecond is one bit.
LONE = data_frame(0x100, bytes(8))
PLAN = wire_plan(LONE)
PASSIVE = NodeState(rec=ERROR_PASSIVE_LIMIT + 1, mode=NodeMode.ERROR_PASSIVE)


def lone_bus(peer_state=None):
    bus = Bus(BusConfig())
    bus.attach_node("solo")
    peer = bus.attach_node("peer")
    if peer_state is not None:
        peer.state = peer_state
    return bus


@pytest.mark.parametrize("skip", [True, False])
def test_ack_slot_never_skipped(monkeypatch, skip):
    # Nobody drives the ACK slot of a sender that is alone on the bus or whose
    # only peer is error-passive. Alone, a fault one bit before the slot makes
    # stepping land on it; with the passive peer, the lone frame must stop at
    # the slot instead of skipping to its last EOF bit.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    frame = data_frame(0x100, bytes(8))
    stream = encode_frame(frame).stuffed_bits
    ack = len(stream) - TAIL_BITS + 1
    alone = Bus(BusConfig())
    alone.attach_node("solo")
    alone.inject_fault(ack - 1, stream[ack - 1])
    for bus in (alone, lone_bus(PASSIVE)):
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


def test_ack_is_decided_by_the_run_that_reaches_it():
    # The peer turns error-passive between two runs. The ACK slot counts as
    # acknowledged only when the first run has already simulated it.
    def split_at(split):
        bus = lone_bus()
        first = bus.run([ScheduleEntry(0, "solo", LONE)], split)
        bus.nodes["peer"].state = PASSIVE
        return outcome(bus, first + bus.run([], PLAN.total_len + 40))

    for split in range(PLAN.total_len + INTERMISSION_BITS + 2):
        got = split_at(split)
        assert got == with_skip(False, split_at, split), split
        kinds = [e.kind for e in got[0]]
        acked = split > PLAN.ack_idx
        assert (EventKind.ACK_ERROR in kinds) is not acked, split
        assert (kinds[1] is EventKind.FRAME_DELIVERED) is acked, split


@pytest.mark.parametrize("level", [DOMINANT, RECESSIVE])
@pytest.mark.parametrize("offset", range(INTERMISSION_BITS))
def test_fault_inside_intermission(level, offset):
    # A second frame arrives during the first one's intermission and must
    # start right after it; the fault shows at its own bit.
    fault_at = PLAN.total_len + offset

    def go():
        bus = lone_bus()
        bus.inject_fault(fault_at, level)
        return outcome(bus, bus.run([ScheduleEntry(0, "solo", LONE),
                                     ScheduleEntry(PLAN.total_len, "peer", LONE)],
                                    3 * PLAN.total_len))

    got = go()
    assert got == with_skip(False, go)
    assert [(e.kind, e.time_bits) for e in got[0]][1:4] == [
        (EventKind.FRAME_DELIVERED, PLAN.total_len + INTERMISSION_BITS),
        (EventKind.FAULT_INJECTED, fault_at),
        (EventKind.TX_START, PLAN.total_len + INTERMISSION_BITS)]


@pytest.mark.parametrize("offset", range(INTERMISSION_BITS + 1))
def test_horizon_inside_intermission(offset):
    until = PLAN.total_len + offset
    schedule = [ScheduleEntry(0, "solo", LONE), ScheduleEntry(5, "peer", LONE)]

    def go():
        bus = lone_bus()
        first = bus.run(schedule, until)
        assert bus.now == until
        return outcome(bus, first + bus.run([], 3 * PLAN.total_len))

    def whole():
        bus = lone_bus()
        return outcome(bus, bus.run(schedule, 3 * PLAN.total_len))

    assert go() == with_skip(False, go) == whole()
