"""The bus's fast paths, the idle skip, the in-frame skip-ahead and the
one-pass arbitration of a contended slot, must give exactly what stepping
every bit gives. ``Bus._SKIP = False`` turns them all off, so plain stepping
is the reference here."""

import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from vcanlab.bus import INTERMISSION_BITS, Bus, BusConfig, EventKind, ScheduleEntry
from vcanlab.codec import DOMINANT, RECESSIVE, TAIL_BITS, encode_frame, wire_plan
from vcanlab.frame import FrameKind, arbitration_key, data_frame, remote_frame
from vcanlab.gateway import GatewaySession, format_serial_line
from vcanlab.node import (BUS_OFF_LIMIT, ERROR_PASSIVE_LIMIT, RECOVERY_GROUP_BITS,
                          RECOVERY_GROUPS, AcceptanceFilter, NodeMode, NodeState, accepts)

from oracles import tick_recovery

# Small ids and masks make filters match often enough to exercise the bus's
# acceptance filtering. Strategies that no drawn value shapes are built
# once, here: built anew for each draw, they made drawing a scenario about a
# third slower, and a failing example is drawn again at every shrink step.
SMALL_IDS = st.integers(0, 15)
FULL = {extended: (1 << (29 if extended else 11)) - 1 for extended in (False, True)}
IDS = {extended: SMALL_IDS | st.integers(0, full) for extended, full in FULL.items()}
MASKS = {extended: st.sampled_from([0, 0x7, 0xF, full]) | st.integers(0, full)
         for extended, full in FULL.items()}


@st.composite
def frames(draw):
    extended = draw(st.booleans())
    id_value = draw(IDS[extended])
    if draw(st.integers(0, 6)) == 0:
        return remote_frame(id_value, draw(st.integers(0, 8)), extended)
    return data_frame(id_value, draw(st.binary(max_size=8)), extended)


@st.composite
def filters(draw):
    extended = draw(st.booleans())
    mask = draw(MASKS[extended])
    return AcceptanceFilter(draw(SMALL_IDS), mask, extended)


# A bus-off node's recovery groups and partial count: fresh, a few groups
# short of recovery, or anywhere up to 127 groups from it.
PRESETS = st.tuples(
    st.sampled_from([0, *range(RECOVERY_GROUPS - 8, RECOVERY_GROUPS)])
    | st.integers(1, RECOVERY_GROUPS - 1),
    st.integers(0, RECOVERY_GROUP_BITS - 1))
NODE_FILTERS = st.none() | filters()
FRAMES = frames()
LEVELS = st.sampled_from([DOMINANT, RECESSIVE])
# Bits from one frame's SOF to the end of its intermission, at most.
LONGEST = wire_plan(data_frame(0, bytes(8), extended=True)).total_len + INTERMISSION_BITS


@st.composite
def presets(draw, nodes, schedule, horizon, faults):
    """Up to three nodes to put bus-off at one bit with one recovery count,
    and frames that arrive for them. Either anywhere in the run, with any
    count and up to three frames up to 200 bits later; or in the tail of a
    scheduled frame, after its ACK slot and a few bits short of recovery, so
    that they recover before the frame ends or in its intermission, with one
    to three frames arriving up to a bit after that, mostly before they
    recover. That frame ends before the horizon and, if sent when scheduled,
    meets no fault and no other scheduled frame, so the bus may skip through
    it; the nodes accept it and did not send it, if there are any."""
    names = [name for name, _ in nodes]
    fault_bits = {bit for bit, _ in faults}
    fits = []
    for entry in schedule:
        plan = wire_plan(entry.frame)
        span = range(entry.time_us, entry.time_us + plan.total_len + INTERMISSION_BITS)
        others = [e.time_us for e in schedule if e is not entry]
        if (span.stop <= horizon and fault_bits.isdisjoint(span)
                and not any(span.start - LONGEST <= at < span.stop for at in others)):
            fits.append((entry, plan))
    if fits and draw(st.integers(0, 3)):
        entry, plan = draw(st.sampled_from(fits))
        # Hypothesis often draws an integer at a bound of its range, so each
        # range here has both bounds where the case it aims at happens.
        tail = entry.time_us + plan.ack_idx + 1
        recovers = draw(st.integers(tail + 1, entry.time_us + plan.total_len - 1)
                        | st.integers(tail + 1, entry.time_us + plan.total_len
                                      + INTERMISSION_BITS - 1))
        bit = draw(st.integers(max(tail, recovers - RECOVERY_GROUP_BITS + 1), recovers - 1))
        preset = (RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS - 1 - (recovers - bit))
        names = [name for name, accept_filter in nodes if name != entry.node and (
            accept_filter is None or accepts(accept_filter, entry.frame.id))] or names
        times = st.integers(bit + 1, recovers) | st.integers(bit, recovers + 1)
        count = 1
    else:
        bit = draw(st.just(0) | st.integers(0, horizon))
        preset = draw(PRESETS)
        times, count = st.integers(bit, bit + 200), 0
    group = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    arrivals = draw(st.lists(st.builds(ScheduleEntry, times, st.sampled_from(group), FRAMES),
                             min_size=count, max_size=3))
    return (bit, group, preset), arrivals


@st.composite
def scenarios(draw):
    """Up to twelve nodes, some with standard or extended acceptance filters,
    contending frames, faults anywhere up to the horizon, bursts of either
    level, of which dominant ones drive senders bus-off, and sometimes nodes
    forced bus-off together with frames that arrive for them (see
    ``presets``)."""
    n = draw(st.integers(1, 12))
    nodes = [(f"n{i}", draw(NODE_FILTERS)) for i in range(n)]
    horizon = draw(st.integers(1, 12_000))
    senders = st.sampled_from([name for name, _ in nodes])
    schedule = draw(st.lists(
        st.builds(ScheduleEntry, st.integers(0, 3_000), senders, FRAMES), max_size=12))
    faults = draw(st.lists(st.tuples(st.integers(0, horizon), LEVELS), max_size=40))
    for start, length, level in draw(st.lists(
            st.tuples(st.integers(0, horizon), st.integers(100, 400), LEVELS), max_size=3)):
        faults += [(bit, level) for bit in range(start, start + length)]
    forced = []
    for preset, arrivals in draw(st.lists(presets(nodes, schedule, horizon, faults),
                                           max_size=2)):
        forced.append(preset)
        schedule = schedule + arrivals
    return nodes, schedule, horizon, faults, forced


def build(nodes, faults):
    bus = Bus(BusConfig())
    for name, accept_filter in nodes:
        bus.attach_node(name, accept_filter)
    for bit, level in faults:
        bus.inject_fault(bit, level)
    return bus


def force_bus_off(node, groups=0, partial=0):
    """Put ``node`` bus-off with ``groups`` recovery groups and ``partial``
    recessive bits toward the next one already counted."""
    node.state = NodeState(tec=256, mode=NodeMode.BUS_OFF, recessive_run_groups=groups)
    node.partial_recessive = partial


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


def run_scenario(scn, cuts=()):
    """Run a scenario in one call per stretch between its preset bits and
    ``cuts``, forcing the presets' nodes bus-off at their bit. Returns the
    outcome, and each call's horizon with the events it returned."""
    nodes, schedule, horizon, faults, presets = scn
    bus = build(nodes, faults)
    calls = []
    for until in sorted({bit for bit, _, _ in presets} | set(cuts) | {horizon}):
        calls.append((until, bus.run([] if calls else schedule, until)))
        assert bus.now == until
        for bit, names, preset in presets:
            if bit == until:
                for name in names:
                    force_bus_off(bus.nodes[name], *preset)
    return outcome(bus, [e for _, events in calls for e in events]), calls


def run_whole(scn, skip):
    return with_skip(skip, run_scenario, scn)[0]


# The explain phase only annotates a failure's report, and on these scenarios
# it can take longer than shrinking: it redraws the failing example hundreds
# of times, and each run may step 12,000 bits. The search is unchanged.
WITHOUT_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


def received_by_trace(nodes, trace, presets):
    """Each node's received frames rebuilt from the trace: one reception per
    delivery bit, of a frame its filter accepts, unless it sent that frame or
    was bus-off at any bit from the frame's SOF. A frame is delivered at its
    last EOF bit, ``INTERMISSION_BITS`` before its FrameDelivered time, and a
    preset at a bit puts its nodes bus-off before that bit is simulated."""
    senders = {}
    for e in trace:
        if e.kind is EventKind.FRAME_DELIVERED:
            senders.setdefault(e.time_bits, set()).add(e.node)
    forced = sorted((bit, name) for bit, names, _ in presets for name in names)
    off = {name: False for name, _ in nodes}
    recovered = {}
    received = {name: [] for name, _ in nodes}
    for e in trace:
        delivery = e.kind is EventKind.FRAME_DELIVERED
        at = e.time_bits - INTERMISSION_BITS - 1 if delivery else e.time_bits
        while forced and forced[0][0] <= at:
            off[forced.pop(0)[1]] = True
        if e.kind in (EventKind.BUS_OFF_ENTERED, EventKind.BUS_OFF_RECOVERED):
            off[e.node] = e.kind is EventKind.BUS_OFF_ENTERED
            if not off[e.node]:
                recovered[e.node] = e.time_bits
        elif delivery and e.time_bits in senders:
            sof = at + 1 - wire_plan(e.frame).total_len
            for name, accept_filter in nodes:
                if (name not in senders[e.time_bits] and not off[name]
                        and recovered.get(name, -1) < sof
                        and (accept_filter is None or accepts(accept_filter, e.frame.id))):
                    received[name].append(e.frame)
            del senders[e.time_bits]
    return [received[name] for name, _ in nodes]


def bus_off_breaches(nodes, trace, presets, status):
    """What breaks the bus-off rule in a run: an event that names a node
    between its ``BusOffEntered`` or preset and its ``BusOffRecovered``,
    other than that recovery; and a node that ends the run bus-off with
    other counters than it went bus-off with: a preset's tec 256 and rec 0,
    or after ``BusOffEntered`` a tec above ``BUS_OFF_LIMIT``. Presets and
    deliveries are placed as in ``received_by_trace``."""
    forced = sorted((bit, name) for bit, names, _ in presets for name in names)
    off = {}  # each bus-off node: whether a preset put it there
    breaches = []
    for e in trace:
        at = (e.time_bits - INTERMISSION_BITS - 1 if e.kind is EventKind.FRAME_DELIVERED
              else e.time_bits)
        while forced and forced[0][0] <= at:
            off[forced.pop(0)[1]] = True
        if e.kind is EventKind.BUS_OFF_RECOVERED:
            del off[e.node]
        elif e.node in off:
            breaches.append(e)
        elif e.kind is EventKind.BUS_OFF_ENTERED:
            off[e.node] = False
    off.update((name, True) for _, name in forced)
    for (name, _), line in zip(nodes, status):
        if name in off:
            fields = dict(field.split("=") for field in line.split()[1:])
            tec, rec = int(fields["tec"]), int(fields["rec"])
            if (fields["mode"] != "bus-off" or tec <= BUS_OFF_LIMIT
                    or off[name] and (tec, rec) != (256, 0)):
                breaches.append(line)
    return breaches


@settings(max_examples=150, deadline=None, phases=WITHOUT_EXPLAIN)
@given(scenarios())
def test_skips_match_plain_stepping(scn):
    nodes, _, _, _, presets = scn
    got = run_whole(scn, True)
    assert got == run_whole(scn, False)
    trace, status, received = got
    assert received == received_by_trace(nodes, trace, presets)
    assert bus_off_breaches(nodes, trace, presets, status) == []
    # Nodes that recover at one bit rejoin in attach order.
    attach = {name: i for i, (name, _) in enumerate(nodes)}
    rejoins = [(e.time_bits, attach[e.node]) for e in trace
               if e.kind is EventKind.BUS_OFF_RECOVERED]
    assert rejoins == sorted(rejoins)


@settings(max_examples=150, deadline=None, phases=WITHOUT_EXPLAIN)
@given(scenarios(), st.data())
def test_split_run_equals_one_run(scn, data):
    nodes, _, horizon, _, presets = scn
    split = data.draw(st.integers(0, horizon))
    got, calls = run_scenario(scn, [split])
    assert got == run_whole(scn, True)
    trace, status, received = got
    assert received == received_by_trace(nodes, trace, presets)
    assert bus_off_breaches(nodes, trace, presets, status) == []
    # FrameDelivered is stamped at the end of intermission, after the last
    # simulated bit; every other event happens at a simulated bit.
    for until, events in calls:
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


@pytest.mark.parametrize("skip", [True, False])
def test_identical_senders_alone_get_ack_errors(monkeypatch, skip):
    # Two nodes sending the same frame at once are both on the wire at the
    # ACK slot. With no other node to ACK it, each gets an ACK error, in
    # attach order, as a lone sender does.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    frame = data_frame(0x100, bytes(2))
    ack = wire_plan(frame).ack_idx
    bus = Bus(BusConfig())
    bus.attach_node("a")
    bus.attach_node("b")
    trace = bus.run([ScheduleEntry(0, "b", frame), ScheduleEntry(0, "a", frame)], ack + 1)
    assert [(e.kind, e.node, e.time_bits) for e in trace] == [
        (EventKind.TX_START, "a", 0), (EventKind.TX_START, "b", 0),
        (EventKind.ACK_ERROR, "a", ack), (EventKind.ACK_ERROR, "b", ack)]
    assert [n.state.tec for n in bus.nodes.values()] == [8, 8]


@pytest.mark.parametrize("skip", [True, False])
def test_identical_senders_are_acked_by_a_third_node(monkeypatch, skip):
    # A third, error-active node drives the ACK slot of two identical
    # frames dominant, so both are delivered, and a bus-off node counts
    # the same levels as under one of them alone: its partial count
    # restarts after the ACK slot.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    frame = data_frame(0x100, bytes(2))
    plan = wire_plan(frame)

    def go(senders):
        bus = Bus(BusConfig())
        for name in ("a", "b", "c"):
            bus.attach_node(name)
        ghost = bus.attach_node("ghost")
        force_bus_off(ghost)
        trace = bus.run([ScheduleEntry(0, name, frame) for name in senders],
                        plan.total_len)
        delivered = [(e.node, e.time_bits) for e in trace
                     if e.kind is EventKind.FRAME_DELIVERED]
        assert delivered == [(name, plan.total_len + INTERMISSION_BITS)
                             for name in senders]
        return ghost.state, ghost.partial_recessive

    state, partial = go(["a", "b"])
    assert (state, partial) == go(["a"])
    assert partial == plan.total_len - 1 - plan.ack_idx


@pytest.mark.parametrize("skip", [True, False])
def test_identical_senders_are_received_once(monkeypatch, skip):
    # One frame crossed the wire, so a third node receives it once and a
    # gateway on that node writes one serial line, though each sender gets
    # its own FrameDelivered.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    frame = data_frame(0x100, bytes(2))
    bus = Bus(BusConfig())
    bus.attach_node("a")
    bus.attach_node("b")
    session = GatewaySession(bus.attach_node("c"))
    trace = bus.run([ScheduleEntry(0, "a", frame), ScheduleEntry(0, "b", frame)],
                    2 * wire_plan(frame).total_len)
    assert [e.node for e in trace if e.kind is EventKind.FRAME_DELIVERED] == ["a", "b"]
    assert bus.nodes["c"].received == [frame]
    assert session.pump() == format_serial_line(frame)


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
    force_bus_off(ghost)
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


@settings(max_examples=300, deadline=None)
@given(st.lists(PRESETS, min_size=1, max_size=3),
       st.lists(st.integers(0, 120), min_size=1, max_size=8),
       st.integers(0, 10_000))
@example([(RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS - 1)], [1], 0)
@example([(RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS - 1)], [0, 0], 0)
@example([(RECOVERY_GROUPS - 1, 3), (0, 0), (RECOVERY_GROUPS - 1, 3)], [2, 30], 7)
def test_bulk_credit_matches_ticking_each_bit(presets, runs, t):
    # Bus-off nodes credited a stretch of recessive runs, one dominant bit
    # between each two, at once must end as if each bit were ticked, up to
    # and including the first bit at which one of them recovers; those that
    # recover there do so at that bit, in attach order.
    bus = Bus(BusConfig())
    for i, preset in enumerate(presets):
        force_bus_off(bus.attach_node(f"n{i}"), *preset)
    bus.run([], 0)  # takes note of the bus-off nodes
    levels = [RECESSIVE] * runs[0]
    for run in runs[1:]:
        levels += [DOMINANT] + [RECESSIVE] * run
    ticked, counts, recovered = tick_recovery(presets, levels)

    assert bus._credit(bytes(levels), t) == ticked
    assert [(n.state, n.partial_recessive) for n in bus.nodes.values()] == [
        (NodeState(), 0) if i in recovered else
        (NodeState(tec=256, mode=NodeMode.BUS_OFF, recessive_run_groups=groups), partial)
        for i, (groups, partial) in enumerate(counts)]
    assert [(e.kind, e.node, e.time_bits) for e in bus._events] == [
        (EventKind.BUS_OFF_RECOVERED, f"n{i}", t + ticked - 1) for i in recovered]


def recoveries(trace):
    return [(e.node, e.time_bits) for e in trace
            if e.kind is EventKind.BUS_OFF_RECOVERED]


# The ACK delimiter and each EOF bit of LONE.
TAIL_AFTER_ACK = range(PLAN.ack_idx + 1, PLAN.total_len)


def recover_in_the_tail(at, faults=()):
    """Run LONE with a third node, the ghost, put bus-off at the ACK
    delimiter so that it recovers at bit ``at`` of the frame's recessive
    tail, and with recessive ``faults``. Returns the bus and its trace."""
    bus = lone_bus()
    ghost = bus.attach_node("ghost")
    first = bus.run([ScheduleEntry(0, "solo", LONE)], PLAN.ack_idx + 1)
    force_bus_off(ghost, RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS + PLAN.ack_idx - at)
    for bit in faults:
        bus.inject_fault(bit, RECESSIVE)
    return bus, first + bus.run([], 2 * PLAN.total_len)


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("at", TAIL_AFTER_ACK)
def test_recovery_inside_a_lone_frames_tail(monkeypatch, skip, at):
    # It was bus-off at the frame's SOF, so the ghost never receives the
    # frame, wherever in the tail it recovers. The recovery is credited
    # before the slot ends, so even at the last EOF bit its event is listed
    # before the frame's delivery.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus, trace = recover_in_the_tail(at)
    assert [(e.kind, e.node, e.time_bits) for e in trace] == [
        (EventKind.TX_START, "solo", 0),
        (EventKind.BUS_OFF_RECOVERED, "ghost", at),
        (EventKind.FRAME_DELIVERED, "solo", PLAN.total_len + INTERMISSION_BITS)]
    assert bus.nodes["peer"].received == [LONE]
    assert bus.nodes["ghost"].received == []


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("at", TAIL_AFTER_ACK)
def test_agreeing_fault_at_a_recovery_bit_in_a_lone_frames_tail(monkeypatch, skip, at):
    # A recessive fault at the ghost's recovery bit, and at the bit after
    # it, changes only the trace. A fault's event comes before a recovery at
    # its bit, the next one after it; and one in the intermission, which
    # follows the last EOF bit, after the delivery.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    _, trace = recover_in_the_tail(at, [at, at + 1])
    last = [(EventKind.FAULT_INJECTED, None, at + 1),
            (EventKind.FRAME_DELIVERED, "solo", PLAN.total_len + INTERMISSION_BITS)]
    if at + 1 == PLAN.total_len:
        last.reverse()
    assert [(e.kind, e.node, e.time_bits) for e in trace] == [
        (EventKind.TX_START, "solo", 0),
        (EventKind.FAULT_INJECTED, None, at),
        (EventKind.BUS_OFF_RECOVERED, "ghost", at),
        *last]


@pytest.mark.parametrize("skip", [True, False])
def test_recovery_before_the_ack_slot_acks_the_frame(monkeypatch, skip):
    # The lone frame's only peer is put one recessive bit short of recovery
    # by a run that stops before the ACK slot. At a recessive first bit of
    # the next run it recovers, in time to ACK the frame, which is
    # delivered; it missed the SOF, so it does not receive the frame.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    splits = [s for s in range(1, PLAN.ack_idx) if PLAN.stream[s] == RECESSIVE]
    assert 23 in splits
    for split in splits:
        bus = Bus(BusConfig())
        bus.attach_node("solo")
        ghost = bus.attach_node("ghost")
        first = bus.run([ScheduleEntry(0, "solo", LONE)], split)
        force_bus_off(ghost, RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS - 1)
        trace = first + bus.run([], 2 * PLAN.total_len)
        assert [(e.kind, e.node, e.time_bits) for e in trace] == [
            (EventKind.TX_START, "solo", 0),
            (EventKind.BUS_OFF_RECOVERED, "ghost", split),
            (EventKind.FRAME_DELIVERED, "solo", PLAN.total_len + INTERMISSION_BITS)], split
        assert ghost.received == []


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("late", [-3, 0, 1])
def test_arrival_up_to_a_recovery_inside_a_frame_is_dropped(monkeypatch, skip, late):
    # Put six recessive bits short of recovery at the ACK delimiter, the
    # ghost recovers at the frame's fifth EOF bit. A frame that arrives for
    # it at or before that bit finds it bus-off and is dropped; one that
    # arrives a bit later is queued and sent after the lone frame.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = lone_bus()
    ghost = bus.attach_node("ghost")
    first = bus.run([ScheduleEntry(0, "solo", LONE)], PLAN.ack_idx + 1)
    force_bus_off(ghost, RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS - 6)
    at = PLAN.ack_idx + 6
    trace = first + bus.run([ScheduleEntry(at + late, "ghost", LONE)], 3 * PLAN.total_len)
    assert recoveries(trace) == [("ghost", at)]
    starts = [(e.node, e.time_bits) for e in trace if e.kind is EventKind.TX_START]
    after = PLAN.total_len + INTERMISSION_BITS
    assert starts == [("solo", 0)] + ([("ghost", after)] if late > 0 else [])


@pytest.mark.parametrize("skip", [True, False])
def test_recovery_one_bit_before_sof_receives_the_frame(monkeypatch, skip):
    # One group short, the ghost recovers at idle bit 10; a frame arriving at
    # bit 11 starts there, with the ghost on the bus from its SOF.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = lone_bus()
    ghost = bus.attach_node("ghost")
    force_bus_off(ghost, RECOVERY_GROUPS - 1)
    trace = bus.run([ScheduleEntry(RECOVERY_GROUP_BITS, "solo", LONE)], 2 * PLAN.total_len)
    assert recoveries(trace) == [("ghost", RECOVERY_GROUP_BITS - 1)]
    starts = [(e.node, e.time_bits) for e in trace if e.kind is EventKind.TX_START]
    assert starts == [("solo", RECOVERY_GROUP_BITS)]
    assert ghost.received == bus.nodes["peer"].received == [LONE]


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("fault_at", [0, 5, 10, 11, 700, 1_000, 1_406, 1_407])
def test_fault_in_a_bus_off_idle_stretch_restarts_the_count(monkeypatch, skip, fault_at):
    # Unbroken, 128 groups of 11 recessive bits end at bit 1407. A dominant
    # bit at ``fault_at`` keeps the groups completed before it, drops the
    # partial one and starts a new one after it, so recovery comes
    # ``fault_at % 11 + 1`` bits later.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = Bus(BusConfig())
    bus.attach_node("a")
    force_bus_off(bus.attach_node("ghost"))
    bus.inject_fault(fault_at, DOMINANT)
    trace = bus.run([], 5_000)
    unbroken = RECOVERY_GROUPS * RECOVERY_GROUP_BITS - 1
    assert recoveries(trace) == [("ghost", unbroken + fault_at % RECOVERY_GROUP_BITS + 1)]


def test_bus_off_idle_jump_lays_out_at_most_one_recovery():
    # While a node is bus-off, the idle jump lays out its stretch's levels
    # one byte per bit, up to one whole recovery at a time: a horizon of ten
    # million bits must not cost ten million bytes. Dominant faults every 10
    # bits keep the node bus-off until the last one; it recovers one whole
    # recovery later.
    bus = Bus(BusConfig())
    force_bus_off(bus.attach_node("a"))
    for bit in range(0, 100_000, 10):
        bus.inject_fault(bit, DOMINANT)
    tracemalloc.start()
    try:
        trace = bus.run([], 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recoveries(trace) == [("a", 99_990 + RECOVERY_GROUPS * RECOVERY_GROUP_BITS)]
    assert len(trace) == 10_001
    assert peak < 4_000_000


@pytest.mark.parametrize("skip", [True, False])
def test_idle_faults_around_a_recovery_keep_their_order(monkeypatch, skip):
    # One group short, the ghost recovers at idle bit 10, under recessive
    # faults at bits 5 to 15: those up to its recovery bit come before its
    # event, the rest after it.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = lone_bus()
    force_bus_off(bus.attach_node("ghost"), RECOVERY_GROUPS - 1)
    for bit in range(5, 16):
        bus.inject_fault(bit, RECESSIVE)
    trace = bus.run([], 100)
    at = RECOVERY_GROUP_BITS - 1
    assert [(e.kind, e.time_bits) for e in trace] == (
        [(EventKind.FAULT_INJECTED, bit) for bit in range(5, at + 1)]
        + [(EventKind.BUS_OFF_RECOVERED, at)]
        + [(EventKind.FAULT_INJECTED, bit) for bit in range(at + 1, 16)])


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("frame_first", [False, True])
def test_recoveries_on_one_bit_follow_attach_order(monkeypatch, skip, frame_first):
    # Two nodes one group short of recovery, attached in reverse name order.
    # Idle, they recover at bit 10; after an ACKed frame from bit 0, whose
    # dominant ACK slot restarts their count, at its last intermission bit.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = lone_bus()
    for name in ("zed", "amy"):
        force_bus_off(bus.attach_node(name), RECOVERY_GROUPS - 1)
    schedule = [ScheduleEntry(0, "solo", LONE)] if frame_first else []
    trace = bus.run(schedule, 2 * PLAN.total_len)
    at = PLAN.total_len + INTERMISSION_BITS - 1 if frame_first else RECOVERY_GROUP_BITS - 1
    assert recoveries(trace) == [("zed", at), ("amy", at)]


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("late", [0, 1])
def test_arrival_at_the_recovery_bit_is_dropped(monkeypatch, skip, late):
    # The ghost recovers at bit 84. A frame arriving then is dropped, since
    # the ghost is still bus-off when arrivals are taken; one bit later it is
    # queued and sent at once.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = lone_bus()
    ghost = bus.attach_node("ghost")
    force_bus_off(ghost, RECOVERY_GROUPS - 8, 3)
    recovered = 8 * RECOVERY_GROUP_BITS - 3 - 1
    trace = bus.run([ScheduleEntry(recovered + late, "ghost", LONE)], 1_000)
    assert recoveries(trace) == [("ghost", recovered)]
    starts = [(e.node, e.time_bits) for e in trace if e.kind is EventKind.TX_START]
    assert starts == ([("ghost", recovered + 1)] if late else [])
    assert ghost.delivered == late


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


# One group short of recovery at bit 0, a bus-off node counts from the ACK
# slot of a lone ACKed frame from bit 0, the last dominant bit, and recovers
# at the last intermission bit.
LAST_INTERMISSION_BIT = PLAN.total_len + INTERMISSION_BITS - 1
assert PLAN.ack_idx + RECOVERY_GROUP_BITS == LAST_INTERMISSION_BIT


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("level", [DOMINANT, RECESSIVE])
@pytest.mark.parametrize("offset", range(INTERMISSION_BITS))
def test_fault_inside_an_idle_intermission(monkeypatch, skip, level, offset):
    # No frame waits, so the intermission jumps on with the idle stretch. A
    # fault at any of its bits shows at that bit, and a dominant one
    # restarts the bus-off node's count; the next frame starts on arrival.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    fault_at = PLAN.total_len + offset
    second_at = PLAN.total_len + 30
    bus = lone_bus()
    force_bus_off(bus.attach_node("ghost"), RECOVERY_GROUPS - 1)
    bus.inject_fault(fault_at, level)
    trace = bus.run([ScheduleEntry(0, "solo", LONE), ScheduleEntry(second_at, "peer", LONE)],
                    3 * PLAN.total_len)
    recovered = (fault_at + RECOVERY_GROUP_BITS if level == DOMINANT
                 else LAST_INTERMISSION_BIT)
    assert [(e.kind, e.node, e.time_bits) for e in trace][:5] == [
        (EventKind.TX_START, "solo", 0),
        (EventKind.FRAME_DELIVERED, "solo", PLAN.total_len + INTERMISSION_BITS),
        (EventKind.FAULT_INJECTED, None, fault_at),
        (EventKind.BUS_OFF_RECOVERED, "ghost", recovered),
        (EventKind.TX_START, "peer", second_at)]


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("offset", range(INTERMISSION_BITS))
@pytest.mark.parametrize("late", [-1, 0, 1])
def test_arrival_for_a_node_recovering_inside_intermission(monkeypatch, skip, offset, late):
    # Put at the ACK delimiter so that it recovers at intermission bit
    # ``offset``, the ghost drops a frame that arrives for it up to that bit;
    # one that arrives a bit later is queued and sent when the bus is free.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = lone_bus()
    ghost = bus.attach_node("ghost")
    first = bus.run([ScheduleEntry(0, "solo", LONE)], PLAN.ack_idx + 1)
    at = PLAN.total_len + offset
    force_bus_off(ghost, RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS + PLAN.ack_idx - at)
    trace = first + bus.run([ScheduleEntry(at + late, "ghost", LONE)], 3 * PLAN.total_len)
    assert recoveries(trace) == [("ghost", at)]
    starts = [(e.node, e.time_bits) for e in trace if e.kind is EventKind.TX_START]
    free = PLAN.total_len + INTERMISSION_BITS
    assert starts == [("solo", 0)] + ([("ghost", free)] if late > 0 else [])


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


@pytest.mark.parametrize("offset", range(INTERMISSION_BITS + 1))
def test_split_inside_an_idle_intermission(offset):
    # No frame waits, so the intermission jumps on with the idle stretch. A
    # run that stops at any of its bits continues as one run does, with the
    # skips on or off: the bus-off ghost recovers at the last intermission
    # bit, and the next frame starts on arrival.
    until = PLAN.total_len + offset
    second_at = PLAN.total_len + 20
    schedule = [ScheduleEntry(0, "solo", LONE), ScheduleEntry(second_at, "peer", LONE)]

    def rig():
        bus = lone_bus()
        force_bus_off(bus.attach_node("ghost"), RECOVERY_GROUPS - 1)
        return bus

    def go():
        bus = rig()
        first = bus.run(schedule, until)
        assert bus.now == until
        return outcome(bus, first + bus.run([], 3 * PLAN.total_len))

    def whole():
        bus = rig()
        return outcome(bus, bus.run(schedule, 3 * PLAN.total_len))

    got = go()
    assert got == with_skip(False, go) == whole()
    assert recoveries(got[0]) == [("ghost", LAST_INTERMISSION_BIT)]
    assert [(e.node, e.time_bits) for e in got[0] if e.kind is EventKind.TX_START] == [
        ("solo", 0), ("peer", second_at)]


# The frame a node forced bus-off between runs was sending.
SHORT = data_frame(0x100, bytes(2))
SHORT_LEN = wire_plan(SHORT).total_len


@pytest.mark.parametrize("skip", [True, False])
def test_sender_forced_bus_off_leaves_the_wire(monkeypatch, skip):
    # Put bus-off after any bit of its frame, the sender drives no further
    # bit: nothing names it, its frame stays queued and its tec at 256, and
    # the slot ends as if aborted at the last bit simulated. So the peer's
    # frame, queued meanwhile, starts after an intermission, and the third
    # node receives only that frame.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    for split in range(1, SHORT_LEN):
        bus = lone_bus()
        bus.attach_node("third")
        first = bus.run([ScheduleEntry(0, "solo", SHORT), ScheduleEntry(1, "peer", LONE)],
                        split)
        assert [(e.kind, e.node) for e in first] == [(EventKind.TX_START, "solo")]
        force_bus_off(bus.nodes["solo"])
        trace = bus.run([], split + 300)
        start = split + INTERMISSION_BITS
        assert [(e.kind, e.node, e.time_bits) for e in trace] == [
            (EventKind.TX_START, "peer", start),
            (EventKind.FRAME_DELIVERED, "peer", start + PLAN.total_len + INTERMISSION_BITS)
        ], split
        assert bus.status_lines()[0] == "solo mode=bus-off tec=256 rec=0 queued=1 delivered=0"
        assert bus.nodes["third"].received == [LONE]


@pytest.mark.parametrize("skip", [True, False])
def test_identical_sender_forced_bus_off(monkeypatch, skip):
    # Of two nodes sending the same frame, one is put bus-off after any bit
    # of it. The other sends the frame alone and is delivered once, and the
    # third node receives it once.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    for split in range(1, SHORT_LEN):
        bus = Bus(BusConfig())
        for name in ("a", "b", "c"):
            bus.attach_node(name)
        first = bus.run([ScheduleEntry(0, "a", SHORT), ScheduleEntry(0, "b", SHORT)], split)
        force_bus_off(bus.nodes["a"])
        trace = first + bus.run([], split + 300)
        assert [(e.kind, e.node, e.time_bits) for e in trace] == [
            (EventKind.TX_START, "a", 0), (EventKind.TX_START, "b", 0),
            (EventKind.FRAME_DELIVERED, "b", SHORT_LEN + INTERMISSION_BITS)], split
        assert bus.status_lines()[:2] == [
            "a mode=bus-off tec=256 rec=0 queued=1 delivered=0",
            "b mode=error-active tec=0 rec=0 queued=0 delivered=1"]
        assert bus.nodes["c"].received == [SHORT]


def lone_level(plan, k):
    """The level the bus shows at bit ``k`` of a lone frame another node ACKs."""
    return DOMINANT if k == plan.ack_idx else plan.stream[k]


def lone_frame_with_faults(at, level, ghost, lead):
    """The outcome of LONE and the peer's frame queued meanwhile, with a
    fault of ``level`` at ``at``, after a fault that agrees with the bus at
    each frame bit before it if ``lead``, and with or without a bus-off node
    to credit."""
    bus = lone_bus()
    if ghost:
        force_bus_off(bus.attach_node("ghost"), RECOVERY_GROUPS - 1)
    for k in range(min(at, PLAN.total_len) if lead else 0):
        bus.inject_fault(k, lone_level(PLAN, k))
    bus.inject_fault(at, level)
    return outcome(bus, bus.run([ScheduleEntry(0, "solo", LONE),
                                 ScheduleEntry(40, "peer", LONE)], 4 * PLAN.total_len))


@pytest.mark.parametrize("ghost", [False, True])
@pytest.mark.parametrize("level", [DOMINANT, RECESSIVE])
def test_fault_at_each_bit_of_a_lone_frame(level, ghost):
    # The in-frame skip stops at a fault that disagrees with the bus and
    # steps it. So a fault of either level at any bit of a lone frame or its
    # intermission, with or without a bus-off node to credit, gives what
    # plain stepping gives.
    for at in range(PLAN.total_len + INTERMISSION_BITS):
        args = (at, level, ghost, False)
        assert lone_frame_with_faults(*args) == with_skip(False, lone_frame_with_faults, *args), at


@pytest.mark.parametrize("ghost", [False, True])
@pytest.mark.parametrize("level", [DOMINANT, RECESSIVE])
def test_agreeing_faults_then_a_fault_at_each_bit_of_a_lone_frame(level, ghost):
    # The in-frame skip passes each fault that shows the level the bus shows
    # anyway, so after a run of those the first fault of the other level is
    # stepped as if it stood alone.
    for at in range(PLAN.total_len + INTERMISSION_BITS):
        args = (at, level, ghost, True)
        assert lone_frame_with_faults(*args) == with_skip(False, lone_frame_with_faults, *args), at


@pytest.fixture
def steps(monkeypatch):
    """The bit time of each bus step taken, in order."""
    taken = []
    step = Bus._step

    def counted(bus, until_bits):
        taken.append(bus.now)
        return step(bus, until_bits)

    monkeypatch.setattr(Bus, "_step", counted)
    return taken


def test_a_lone_frame_takes_one_step(steps):
    # Twenty frames queued at once on one node: each is sent, delivered and
    # its intermission jumped in one step, and one more step runs the bus
    # idle to the horizon.
    bus = lone_bus()
    horizon = 30 * (PLAN.total_len + INTERMISSION_BITS)
    bus.run([ScheduleEntry(0, "solo", LONE)] * 20, horizon)
    assert bus.nodes["solo"].delivered == 20
    assert len(steps) <= 21


@pytest.mark.parametrize("ghost", [False, True])
@pytest.mark.parametrize("fault", [None, DOMINANT, RECESSIVE])
def test_a_delivery_and_its_intermission_take_one_step(steps, fault, ghost):
    # The step that delivers a lone frame also jumps its intermission, over
    # a fault there and while a third node is bus-off, and gives the trace
    # plain stepping gives.
    def run():
        bus = lone_bus()
        if ghost:
            force_bus_off(bus.attach_node("ghost"))
        if fault is not None:
            bus.inject_fault(PLAN.total_len + 1, fault)
        trace = bus.run([ScheduleEntry(0, "solo", LONE)] * 2, 3 * PLAN.total_len)
        return outcome(bus, trace)

    plain = with_skip(False, run)
    steps.clear()
    assert run() == plain
    assert len(steps) <= 2


def test_an_arrival_in_the_intermission_costs_no_step(steps):
    # While no node is bus-off, an arrival inside a delivery's intermission
    # is queued by the step that delivers, which then jumps to the
    # intermission's end.
    def run():
        bus = lone_bus()
        trace = bus.run([ScheduleEntry(0, "solo", LONE),
                         ScheduleEntry(PLAN.total_len + 1, "peer", LONE)],
                        3 * PLAN.total_len)
        return outcome(bus, trace)

    plain = with_skip(False, run)
    steps.clear()
    assert run() == plain
    assert len(steps) <= 2


def test_a_burst_over_an_idle_bus_takes_one_step(steps):
    # With the peer bus-off, the idle bus jumps over a 300-bit dominant
    # burst to the horizon in one step, crediting the peer the recessive
    # bits on either side of it.
    bus = lone_bus()
    peer = bus.nodes["peer"]
    force_bus_off(peer)
    for bit in range(100, 400):
        bus.inject_fault(bit, DOMINANT)
    trace = bus.run([], 1_000)
    assert [(e.kind, e.time_bits) for e in trace] == [
        (EventKind.FAULT_INJECTED, bit) for bit in range(100, 400)]
    assert (peer.state.recessive_run_groups, peer.partial_recessive) == (100 // 11 + 600 // 11,
                                                                          600 % 11)
    assert len(steps) <= 2


def test_agreeing_faults_leave_a_lone_frame_one_step(steps):
    # A fault of the frame's own level at every bit, and a dominant one at
    # the ACK slot the peer acknowledges, changes only the trace: the frame
    # is still sent, delivered and its intermission jumped in one step.
    frame = data_frame(0x123, bytes.fromhex("DEADBEEF"))
    plan = wire_plan(frame)
    bus = lone_bus()
    for k in range(plan.total_len):
        bus.inject_fault(k, lone_level(plan, k))
    trace = bus.run([ScheduleEntry(0, "solo", frame)], 2 * plan.total_len)
    assert [(e.kind, e.time_bits) for e in trace] == (
        [(EventKind.TX_START, 0)]
        + [(EventKind.FAULT_INJECTED, k) for k in range(plan.total_len)]
        + [(EventKind.FRAME_DELIVERED, plan.total_len + INTERMISSION_BITS)])
    assert len(steps) <= 2


def test_a_sender_under_a_burst_takes_two_steps_per_error(steps):
    # Under a dominant burst a lone sender's frame passes the dominant bits
    # it starts with and fails at its first recessive bit, all in one step;
    # one more jumps the intermission. After 32 errors it is bus-off, and
    # the last step credits its recovery to the horizon.
    bus = lone_bus()
    for bit in range(400):
        bus.inject_fault(bit, DOMINANT)
    trace = bus.run([ScheduleEntry(0, "solo", LONE)], 400)
    errors = [e for e in trace if e.kind is EventKind.ERROR_FRAME]
    assert len(errors) == 32
    assert bus.nodes["solo"].state.mode is NodeMode.BUS_OFF
    assert len(steps) <= 2 * len(errors)


# A slot that starts with one transmitter while no node is bus-off, with no
# fault before the frame's end, another error-active node to ACK and the
# horizon at or past its last bit, is sent, delivered and its intermission
# jumped by the step that starts it: the slot start goes on into the skip.
SOF = 7
END = SOF + PLAN.total_len
# Horizons from 3 bits before LONE's last bit to the end of its intermission.
LONE_HORIZONS = range(END - 4, END + INTERMISSION_BITS + 1)
FAR = SOF + 4 * PLAN.total_len
ACTIVE, PASSIVE_MODE = NodeMode.ERROR_ACTIVE, NodeMode.ERROR_PASSIVE


def lone_run(tec, rec, during, gap, cuts):
    """LONE from ``solo`` at bit ``SOF``, with ``solo`` at ``tec`` and the
    peer at ``rec`` (error-passive past ``ERROR_PASSIVE_LIMIT``), a monitor
    whose filter accepts it and a node whose filter refuses it. A frame
    arrives for the peer at bit ``during`` of LONE and one for the monitor
    at bit ``gap`` of its intermission. The run stops at each of ``cuts``
    and ends at ``FAR``. Returns the outcome, the status lines at each cut
    and the bits at which the steps that simulate LONE's last bit started."""
    bus = lone_bus()
    bus.nodes["solo"].state = NodeState(
        tec=tec, mode=PASSIVE_MODE if tec > ERROR_PASSIVE_LIMIT else ACTIVE)
    bus.nodes["peer"].state = NodeState(
        rec=rec, mode=PASSIVE_MODE if rec > ERROR_PASSIVE_LIMIT else ACTIVE)
    bus.attach_node("monitor", AcceptanceFilter(0x100, 0x7F0))
    bus.attach_node("deaf", AcceptanceFilter(0x200, 0x7FF))
    schedule = [ScheduleEntry(SOF, "solo", LONE),
                ScheduleEntry(SOF + during, "peer", data_frame(0x300, b"\x01")),
                ScheduleEntry(END + gap, "monitor", SHORT)]
    taken = []
    step = Bus._step

    def probed(bus, until_bits):
        start = bus.now
        step(bus, until_bits)
        if start < END <= bus.now:
            taken.append(start)

    Bus._step = probed
    try:
        trace, status = [], []
        for i, until in enumerate(sorted({*cuts, FAR})):
            trace += bus.run([] if i else schedule, until)
            status.append(bus.status_lines())
    finally:
        Bus._step = step
    return outcome(bus, trace), status[:-1], taken


@pytest.mark.parametrize("until", LONE_HORIZONS)
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 9, ERROR_PASSIVE_LIMIT + 60]),
       st.sampled_from([1, 5, ERROR_PASSIVE_LIMIT + 3]),
       st.integers(1, PLAN.total_len - 1), st.integers(0, INTERMISSION_BITS - 1),
       st.integers(0, FAR))
def test_lone_frame_meets_the_horizon(until, tec, rec, during, gap, split):
    args = (tec, rec, during, gap)
    got, at_cut, taken = with_skip(True, lone_run, *args, [until])
    plain, plain_at_cut, stepped = with_skip(False, lone_run, *args, [until])
    assert SOF not in stepped
    assert (got, at_cut) == (plain, plain_at_cut)
    assert got == with_skip(True, lone_run, *args, [])[0]
    assert got == with_skip(True, lone_run, *args, [split])[0]
    # The step at LONE's SOF sends it whole when the first run reaches past
    # its last bit.
    assert (SOF in taken) is (until >= END)
    trace, status, received = got
    assert received[1:] == [[LONE, SHORT], [LONE], []]
    mode = "error-passive" if tec - 1 > ERROR_PASSIVE_LIMIT else "error-active"
    assert status[0] == f"solo mode={mode} tec={tec - 1} rec=0 queued=0 delivered=1"


# -- one-pass arbitration -------------------------------------------------

# Identifier bits to flip, so that ids drawn around one id share long
# prefixes: none, a few low ones, or any single one.
FLIPS = {width: st.just(0) | st.integers(0, 7) | st.sampled_from([1 << i for i in range(width)])
         for width in (11, 18)}


@st.composite
def kin_frames(draw, top, low):
    """A frame whose id is ``top`` (11 bits), or ``top`` then ``low`` (18
    bits) as an extended id, each with a few bits flipped, so frames drawn
    with one ``top`` and ``low`` share long arbitration prefixes: a standard
    and an extended id with the same top 11 bits, and data and remote
    frames of one id."""
    extended = draw(st.booleans())
    id_value = top ^ draw(FLIPS[11])
    if extended:
        id_value = id_value << 18 | low ^ draw(FLIPS[18])
    if draw(st.integers(0, 3)) == 0:
        return remote_frame(id_value, draw(st.integers(0, 8)), extended)
    return data_frame(id_value, draw(st.binary(max_size=8)), extended)


KIN = st.tuples(st.integers(0, 0x7FF), st.integers(0, 0x3FFFF))


def first_difference(a, b):
    """The first stuffed index at which two frames' wire streams differ."""
    return next(i for i, (x, y) in enumerate(zip(wire_plan(a).stream, wire_plan(b).stream))
                if x != y)


@settings(max_examples=300, deadline=None)
@given(KIN, st.data())
def test_drop_bit_is_the_first_differing_wire_bit(kin, data):
    # The one-pass arbitration places a loser's drop at unstuffed index
    # 33 - (key ^ winner's key).bit_length(), stuffed by the winner's plan:
    # that is the first bit at which the two frames' wire streams differ,
    # the winner drives it dominant, and it lies in the loser's field.
    a, b = data.draw(kin_frames(*kin)), data.draw(kin_frames(*kin))
    assume(arbitration_key(a) != arbitration_key(b))
    win, lose = sorted([a, b], key=arbitration_key)
    plan, lost = wire_plan(win), wire_plan(lose)
    u = 33 - (arbitration_key(win) ^ arbitration_key(lose)).bit_length()
    drop = u + bisect_left(plan.stuff_after, u)
    assert drop == first_difference(win, lose)
    assert drop <= lost.arb_end
    assert (plan.stream[drop], lost.stream[drop]) == (DOMINANT, RECESSIVE)


def outranked(frame):
    """A frame like ``frame`` with a higher arbitration key: a data frame's
    remote frame, a standard remote frame's extended id with the same top
    11 bits; an extended remote frame as it is."""
    (value, extended), kind, dlc, _ = frame
    if kind is not FrameKind.REMOTE:
        return remote_frame(value, dlc, extended)
    return remote_frame(value << 18, dlc, True) if not extended else frame


@st.composite
def contended_slots(draw):
    """A scenario, in the form ``scenarios`` draws, of 2 to 110 nodes that
    all send at one bit frames whose keys share long prefixes
    (``kin_frames``), now and then a copy of a frame drawn before (identical
    senders); mostly one lowest key. Returns it with the bit of the last
    arbitration drop, taken from the wire streams (or 13 bits in, if the
    lowest key is tied). Around that bit and inside the field before it
    lie frames that arrive, faults and the horizon, which may also lie up
    to a few frames past it. Nodes may be forced bus-off at a bit up to
    there, or a few bits before the slot starts, mostly a few bits short of
    recovery."""
    n = draw(st.integers(2, 110))
    nodes = [(f"n{i}", None) for i in range(n)]
    start = draw(st.integers(0, 20))
    kin = kin_frames(*draw(KIN))
    sent = []
    for _ in range(n):
        sent.append(draw(st.sampled_from(sent)) if sent and draw(st.integers(0, 9)) == 0
                    else draw(kin))
    win = min(sent, key=arbitration_key)
    low = arbitration_key(win)
    if draw(st.integers(0, 3)):
        # Senders after the first of the lowest key send a higher one.
        first = sent.index(win)
        sent = [outranked(frame) if i > first and arbitration_key(frame) == low else frame
                for i, frame in enumerate(sent)]
    losers = [frame for frame in sent if arbitration_key(frame) != low]
    tied = len(losers) < n - 1
    edge = start + (13 if tied or not losers else
                    max(first_difference(win, frame) for frame in losers))
    schedule = [ScheduleEntry(start, name, frame) for (name, _), frame in zip(nodes, sent)]
    names = st.sampled_from([name for name, _ in nodes])
    near = st.integers(edge - 1, edge + 2) | st.integers(start, edge)
    schedule += draw(st.lists(st.builds(ScheduleEntry, near, names, kin), max_size=3))
    faults = draw(st.lists(st.tuples(near, LEVELS), max_size=3))
    horizon = draw(st.integers(max(start + 1, edge - 1), edge + 2)
                   | st.integers(start + 1, start + 4 * LONGEST))
    forced = []
    if draw(st.integers(0, 2)) == 0:
        short = st.tuples(st.just(RECOVERY_GROUPS - 1), st.integers(0, RECOVERY_GROUP_BITS - 1))
        forced.append((draw(st.integers(max(0, start - 3), start)
                            | st.integers(0, min(edge, horizon))),
                       draw(st.lists(names, min_size=1, max_size=2, unique=True)),
                       draw(short | PRESETS)))
    return (nodes, schedule, horizon, faults, forced), edge


@settings(max_examples=60, deadline=None, phases=WITHOUT_EXPLAIN)
@given(contended_slots(), st.data())
def test_contended_slot_matches_plain_stepping(slot, data):
    scn, edge = slot
    nodes, schedule, horizon, _, presets = scn
    got = run_whole(scn, True)
    assert got == run_whole(scn, False)
    start = schedule[0].time_us
    split = data.draw(st.integers(min(edge - 1, horizon), min(edge + 2, horizon))
                      | st.integers(start, min(edge, horizon)))
    split_got, calls = with_skip(True, run_scenario, scn, [split])
    assert split_got == got
    for until, events in calls:
        assert all(e.time_bits < until for e in events
                   if e.kind is not EventKind.FRAME_DELIVERED)
    trace, status, received = got
    assert received == received_by_trace(nodes, trace, presets)
    assert bus_off_breaches(nodes, trace, presets, status) == []


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("late", [5, 12, 13])
def test_arrival_inside_the_arbitration_field_precedes_bus_off(monkeypatch, skip, late):
    # b drops out at bit 12, the last of the slot's arbitration. A recessive
    # fault at bit 13, a's dominant RTR bit, is a bit error that sends the
    # error-passive a bus-off; the frame that arrived for a inside the
    # field, or at that bit, was queued before that, and stays queued.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = Bus(BusConfig())
    a = bus.attach_node("a")
    bus.attach_node("b")
    bus.attach_node("c")
    a.state = NodeState(tec=250, mode=NodeMode.ERROR_PASSIVE)
    bus.inject_fault(13, RECESSIVE)
    first, lost, third = (data_frame(0x100, b"\x01"), data_frame(0x101, b"\x02"),
                          data_frame(0x102, b"\x03"))
    trace = bus.run([ScheduleEntry(0, "a", first), ScheduleEntry(0, "b", lost),
                     ScheduleEntry(late, "a", third)], 200)
    end = 17 + wire_plan(lost).total_len + INTERMISSION_BITS
    assert [(e.time_bits, e.node, e.kind) for e in trace] == [
        (0, "a", EventKind.TX_START), (0, "b", EventKind.TX_START),
        (12, "b", EventKind.ARBITRATION_LOST), (13, None, EventKind.FAULT_INJECTED),
        (13, "a", EventKind.ERROR_FRAME), (13, "a", EventKind.BUS_OFF_ENTERED),
        (17, "b", EventKind.RETRANSMIT), (end, "b", EventKind.FRAME_DELIVERED)]
    assert bus.status_lines() == [
        "a mode=bus-off tec=258 rec=0 queued=2 delivered=0",
        "b mode=error-active tec=0 rec=1 queued=0 delivered=1",
        "c mode=error-active tec=0 rec=0 queued=0 delivered=0"]


@pytest.mark.parametrize("skip", [True, False])
def test_contended_slot_restarts_a_bus_off_count(monkeypatch, skip):
    # A node bus-off one recessive bit short of recovery: the slot's SOF is
    # dominant and restarts its count, though the bit after b's drop, a's
    # RTR bit, is recessive. Its first 11 recessive bits are the ACK
    # delimiter, EOF and intermission after a's acknowledged ACK slot.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    bus = Bus(BusConfig())
    bus.attach_node("a")
    bus.attach_node("b")
    force_bus_off(bus.attach_node("ghost"), RECOVERY_GROUPS - 1, RECOVERY_GROUP_BITS - 1)
    won, lost = remote_frame(0x100, 1), remote_frame(0x101, 1)
    trace = bus.run([ScheduleEntry(0, "a", won), ScheduleEntry(0, "b", lost)], 100)
    end = wire_plan(won).total_len + INTERMISSION_BITS
    assert [(e.time_bits, e.node, e.kind) for e in trace][2:5] == [
        (12, "b", EventKind.ARBITRATION_LOST), (end, "a", EventKind.FRAME_DELIVERED),
        (end - 1, "ghost", EventKind.BUS_OFF_RECOVERED)]


# Twelve frames of distinct keys around one id, the lowest last: standard
# ids one bit apart, a remote frame of the winner's id and extended ids with
# its top 11 bits, so the losers drop at many bits up to the extended ones'.
TOP = 0x0A0
CROWD = ([data_frame(TOP ^ flip, b"\x01") for flip in (1, 2, 4, 8, 0x400)]
         + [remote_frame(TOP, 2)]
         + [data_frame(TOP << 18 | low, b"", extended=True) for low in (0, 1, 0x20000)]
         + [remote_frame(TOP << 18, 0, extended=True), remote_frame(TOP ^ 1, 1),
            data_frame(TOP, b"\xff")])
CROWD_END = wire_plan(CROWD[-1]).total_len + INTERMISSION_BITS
LAST_DROP = max(first_difference(CROWD[-1], frame) for frame in CROWD[:-1])


def crowd_run(cuts):
    """CROWD sent from bit 0 by one node each, with a thirteenth node to
    ACK; the run stops at each of ``cuts``, where the bus must stand with
    no event at or past it but a delivery, and ends with the winner's
    intermission."""
    bus = Bus(BusConfig())
    for i in range(len(CROWD)):
        bus.attach_node(f"n{i}")
    bus.attach_node("ack")
    trace = []
    for i, until in enumerate(sorted({*cuts, CROWD_END})):
        events = bus.run([] if i else [ScheduleEntry(0, f"n{i}", frame)
                                       for i, frame in enumerate(CROWD)], until)
        assert bus.now == until
        assert all(e.time_bits < until for e in events
                   if e.kind is not EventKind.FRAME_DELIVERED)
        trace += events
    return outcome(bus, trace)


def test_a_contended_slot_takes_one_step(steps):
    # The step that starts the slot settles its arbitration, sends the
    # winner whole, delivers it and jumps its intermission, as plain
    # stepping gives.
    plain = with_skip(False, crowd_run, [])
    steps.clear()
    got = crowd_run([])
    assert got == plain
    assert len(steps) == 1
    assert min(CROWD, key=arbitration_key) is CROWD[-1]
    assert [(e.node, e.kind) for e in got[0][-12:]] == [
        ("n4", EventKind.ARBITRATION_LOST)] + [
        (f"n{i}", EventKind.ARBITRATION_LOST) for i in (3, 2, 1, 0, 10, 5, 6, 7, 8, 9)] + [
        ("n11", EventKind.FRAME_DELIVERED)]


@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_horizon_around_the_last_drop(offset):
    # A run whose horizon is at the last drop bit or before it steps the
    # field; one that reaches past it settles the field at once. Either
    # way the bus stands at the horizon and gives what stepping gives.
    cut = LAST_DROP + offset
    assert crowd_run([cut]) == with_skip(False, crowd_run, [cut]) == crowd_run([])
