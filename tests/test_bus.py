import random

import pytest

from vcanlab.bus import (Bus, BusConfig, DuplicateNameError, EventKind,
                         RateDistanceError, RateRangeError, ScheduleEntry,
                         ScheduleForDetachedNodeError, TooManyNodesError,
                         TraceEvent, resolve_bit, validate_bus_config)
from vcanlab.codec import (DOMINANT, RECESSIVE, frame_bit_length, frame_body_bits,
                           stuff, wire_plan)
from vcanlab.frame import Frame, FrameId, FrameKind, data_frame, remote_frame
from vcanlab.node import AcceptanceFilter, NodeMode, NodeState

from oracles import arbitration_winner, drive_pattern, random_frame


def kinds(trace):
    return [e.kind for e in trace]


def delivered(trace):
    return [e for e in trace if e.kind is EventKind.FRAME_DELIVERED]


class TestConfigValidation:
    def test_paper_long_haul_point(self):
        # 5 kbps over 10 km sits exactly on the product bound; below the
        # normal band so it needs the explicit slow-rate opt-in.
        validate_bus_config(5_000, 10_000, allow_slow=True)
        with pytest.raises(RateRangeError):
            validate_bus_config(5_000, 10_000)

    def test_max_rate_at_40m(self):
        validate_bus_config(1_000_000, 40)

    def test_product_exceeded(self):
        with pytest.raises(RateDistanceError):
            validate_bus_config(1_000_000, 100)

    def test_rate_band(self):
        with pytest.raises(RateRangeError):
            validate_bus_config(2_000_000, 1)
        validate_bus_config(20_000, 100)

    def test_config_dataclass_validates(self):
        with pytest.raises(RateDistanceError):
            BusConfig(bitrate_bps=1_000_000, distance_m=100)

    def test_bitrate_must_be_an_integer(self):
        # A float bitrate made arrival bits, event times and ``now`` floats.
        # The type is checked before the range: 2e6 and NaN are out of range.
        for bitrate in (500_000.0, 2_000_000.0, float("nan")):
            with pytest.raises(TypeError):
                validate_bus_config(bitrate, 40)
            with pytest.raises(TypeError):
                BusConfig(bitrate_bps=bitrate)
        bus = Bus(BusConfig(bitrate_bps=500_000))
        bus.attach_node("a")
        bus.attach_node("b")
        trace = bus.run([ScheduleEntry(3, "a", data_frame(1, b""))], 200)
        assert trace[0].kind is EventKind.TX_START
        assert type(trace[0].time_bits) is int and trace[0].time_bits == 2
        assert type(bus.now) is int and bus.now == 200


class TestAttach:
    def test_110_nodes_ok_111th_rejected(self):
        bus = Bus(BusConfig())
        for i in range(110):
            bus.attach_node(f"n{i}")
        with pytest.raises(TooManyNodesError):
            bus.attach_node("n110")

    def test_duplicate_name(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        with pytest.raises(DuplicateNameError):
            bus.attach_node("a")

    def test_schedule_for_detached_node(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        with pytest.raises(ScheduleForDetachedNodeError):
            bus.run([ScheduleEntry(0, "ghost", data_frame(1, b""))], 100)


class TestResolveBit:
    def test_wired_and(self):
        assert resolve_bit([DOMINANT, RECESSIVE]) == DOMINANT
        assert resolve_bit([RECESSIVE, RECESSIVE]) == RECESSIVE
        assert resolve_bit([]) == RECESSIVE


class TestRun:
    def test_empty_schedule_empty_trace(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        assert bus.run([], 10_000) == []

    def test_single_frame_timing(self):
        bus = Bus(BusConfig())
        bus.attach_node("tx")
        bus.attach_node("rx")
        frame = data_frame(0x123, b"\xab\xcd")
        trace = bus.run([ScheduleEntry(0, "tx", frame)], 5_000)
        assert kinds(trace) == [EventKind.TX_START, EventKind.FRAME_DELIVERED]
        expected = frame_bit_length(frame, stuffed=True) + 3
        assert trace[1].time_bits == expected
        assert trace[1].time_s == pytest.approx(expected / 1_000_000)

    def test_frame_built_with_a_bytearray_payload_is_sent(self):
        frame = Frame(FrameId(0x123), FrameKind.DATA, 2, bytearray(b"\xab\xcd"))
        assert frame == data_frame(0x123, b"\xab\xcd")
        bus = Bus(BusConfig())
        bus.attach_node("tx")
        rx = bus.attach_node("rx")
        trace = bus.run([ScheduleEntry(0, "tx", frame)], 5_000)
        assert kinds(trace) == [EventKind.TX_START, EventKind.FRAME_DELIVERED]
        assert rx.received == [data_frame(0x123, b"\xab\xcd")]

    def test_arbitration_example(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.attach_node("b")
        sched = [ScheduleEntry(0, "a", data_frame(0x100, b"")),
                 ScheduleEntry(0, "b", data_frame(0x0A0, b""))]
        trace = bus.run(sched, 5_000)
        order = [(e.kind, e.node) for e in trace]
        assert order == [
            (EventKind.TX_START, "a"),
            (EventKind.TX_START, "b"),
            (EventKind.ARBITRATION_LOST, "a"),
            (EventKind.FRAME_DELIVERED, "b"),
            (EventKind.RETRANSMIT, "a"),
            (EventKind.FRAME_DELIVERED, "a"),
        ]

    def test_winner_matches_oracle_on_sampled_pairs(self):
        rng = random.Random(123)
        for _ in range(200):
            fa, fb = data_frame(rng.randrange(0x800), b"\x01"), None
            fb = data_frame(rng.randrange(0x800), b"\x02")
            if fa.id == fb.id:
                continue
            bus = Bus(BusConfig())
            bus.attach_node("a")
            bus.attach_node("b")
            trace = bus.run([ScheduleEntry(0, "a", fa),
                             ScheduleEntry(0, "b", fb)], 5_000)
            first = delivered(trace)[0]
            expect = ["a", "b"][arbitration_winner([fa, fb])]
            assert first.node == expect

    def test_non_destructive_latency(self):
        winner = data_frame(0x050, b"\xaa")
        loser = data_frame(0x700, b"\xbb")
        solo = Bus(BusConfig())
        solo.attach_node("w")
        solo.attach_node("rx")
        t_solo = solo.run([ScheduleEntry(0, "w", winner)], 5_000)
        contested = Bus(BusConfig())
        contested.attach_node("w")
        contested.attach_node("l")
        t_both = contested.run([ScheduleEntry(0, "w", winner),
                                ScheduleEntry(0, "l", loser)], 5_000)
        lat_solo = delivered(t_solo)[0].time_bits
        lat_both = [e for e in delivered(t_both) if e.node == "w"][0].time_bits
        assert lat_solo == lat_both

    def test_conservation(self):
        rng = random.Random(55)
        bus = Bus(BusConfig())
        for i in range(5):
            bus.attach_node(f"n{i}")
        sched = [ScheduleEntry(rng.randrange(2_000), f"n{rng.randrange(5)}",
                               random_frame(rng))
                 for _ in range(30)]
        trace = bus.run(sched, 200_000)
        assert len(delivered(trace)) == 30

    def test_determinism(self):
        def one():
            rng = random.Random(77)
            bus = Bus(BusConfig())
            for i in range(4):
                bus.attach_node(f"n{i}")
            sched = [ScheduleEntry(rng.randrange(500), f"n{rng.randrange(4)}",
                                   random_frame(rng)) for _ in range(20)]
            return bus.run(sched, 100_000)
        assert one() == one()

    def test_ack_error_without_receiver(self):
        bus = Bus(BusConfig())
        bus.attach_node("solo")
        trace = bus.run([ScheduleEntry(0, "solo", data_frame(1, b""))], 300)
        assert EventKind.ACK_ERROR in kinds(trace)
        assert EventKind.FRAME_DELIVERED not in kinds(trace)

    def test_shuffled_schedule_gives_the_sorted_trace(self):
        rng = random.Random(5)
        times = rng.sample(range(20_000), 60)
        sched = [ScheduleEntry(t, f"n{rng.randrange(3)}", random_frame(rng))
                 for t in sorted(times)]
        shuffled = sched[:]
        rng.shuffle(shuffled)

        def one(schedule):
            bus = Bus(BusConfig())
            for i in range(3):
                bus.attach_node(f"n{i}")
            trace = bus.run(schedule, 40_000)
            return trace, bus.status_lines(), [n.received for n in bus.nodes.values()]
        assert one(shuffled) == one(sched)

    def test_equal_times_across_runs_keep_submit_order(self):
        # Both frames reach the queue at bit 100 with one id, so submit
        # order alone decides which is sent first.
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.attach_node("b")
        first, second = data_frame(0x100, b"\x01"), data_frame(0x100, b"\x02")
        trace = bus.run([ScheduleEntry(50, "a", data_frame(0x050, b"")),
                         ScheduleEntry(100, "a", first)], 10)
        trace += bus.run([ScheduleEntry(100, "a", second)], 5_000)
        assert [e.frame for e in delivered(trace)][1:] == [first, second]

    def test_filter_assigned_between_runs_takes_effect(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        b = bus.attach_node("b", AcceptanceFilter(0x200, 0x7FF))
        frame = data_frame(0x100, b"")
        bus.run([ScheduleEntry(0, "a", frame)], 200)
        assert b.received == []
        b.filter = None
        bus.run([ScheduleEntry(200, "a", frame)], 400)
        assert b.received == [frame]

    def test_horizon_behind_the_bus_is_rejected(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.attach_node("b")
        with pytest.raises(ValueError):
            bus.run([], -5)
        assert bus.run([], 100) == []
        for horizon in (50, 99, -5):
            with pytest.raises(ValueError):
                bus.run([ScheduleEntry(0, "a", data_frame(0x100, b""))], horizon)
        # A refused call changes nothing: no bit is simulated and its
        # schedule is not merged.
        assert bus.now == 100
        assert bus.run([], 100) == []
        assert bus.run([], 5_000) == []
        assert bus.nodes["b"].received == []

    def test_bit_times_must_be_integers(self):
        # A fractional time would leave the bus between two bits.
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.attach_node("b")
        frame = data_frame(0x100, b"")
        for time_us in (2.5, 3.0, "3"):
            with pytest.raises(TypeError):
                ScheduleEntry(time_us, "a", frame)
        for horizon in (50.5, 100.0):
            with pytest.raises(TypeError):
                bus.run([ScheduleEntry(0, "a", frame)], horizon)
        # A refused call changes nothing: no bit is simulated and its
        # schedule is not merged.
        assert bus.now == 0
        assert bus.run([], 100) == []
        assert type(bus.now) is int and bus.now == 100

    def test_later_arrival_waits_for_idle(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.attach_node("b")
        frame = data_frame(0x100, bytes(8))
        # second frame arrives mid-transmission of the first
        trace = bus.run([ScheduleEntry(0, "a", frame),
                         ScheduleEntry(20, "b", data_frame(0x050, b""))], 5_000)
        first, second = delivered(trace)
        assert first.node == "a" and second.node == "b"


class TestTraceEvent:
    def test_fields_by_name(self):
        frame = data_frame(0x100, b"\x01")
        e = TraceEvent(7, 7e-6, "a", EventKind.TX_START, frame)
        assert (e.time_bits, e.time_s, e.node, e.kind, e.frame) == (
            7, 7e-6, "a", EventKind.TX_START, frame)

    def test_frame_defaults_to_none(self):
        assert TraceEvent(3, 3e-6, None, EventKind.FAULT_INJECTED).frame is None

    def test_fields_are_read_only(self):
        e = TraceEvent(3, 3e-6, None, EventKind.FAULT_INJECTED)
        with pytest.raises(AttributeError):
            e.node = "a"

    def test_compares_and_hashes_by_value(self):
        a = TraceEvent(3, 3e-6, "a", EventKind.TX_START, data_frame(1, b""))
        b = TraceEvent(3, 3e-6, "a", EventKind.TX_START, data_frame(1, b""))
        assert a == b and hash(a) == hash(b)
        assert a != a._replace(node="b")

    def test_bus_events_equal_constructed_ones(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.attach_node("b")
        frame = data_frame(0x100, b"")
        trace = bus.run([ScheduleEntry(0, "a", frame)], 200)
        end = trace[-1].time_bits
        assert trace == [TraceEvent(0, 0.0, "a", EventKind.TX_START, frame),
                         TraceEvent(end, end / 1_000_000, "a",
                                    EventKind.FRAME_DELIVERED, frame)]
        assert all(type(e) is TraceEvent for e in trace)


class TestFaultInjection:
    def test_corrupt_data_bit_causes_retransmit(self):
        bus = Bus(BusConfig())
        bus.attach_node("tx")
        bus.attach_node("rx")
        frame = data_frame(0x123, b"\xde\xad")
        from vcanlab.codec import encode_frame
        stream = encode_frame(frame).stuffed_bits
        pos = 30  # inside the data region
        bus.inject_fault(pos, stream[pos] ^ 1)
        trace = bus.run([ScheduleEntry(0, "tx", frame)], 5_000)
        ks = kinds(trace)
        for k in (EventKind.FAULT_INJECTED, EventKind.ERROR_FRAME,
                  EventKind.RETRANSMIT, EventKind.FRAME_DELIVERED):
            assert k in ks
        assert ks.index(EventKind.ERROR_FRAME) < ks.index(EventKind.RETRANSMIT)
        assert ks.index(EventKind.RETRANSMIT) < ks.index(EventKind.FRAME_DELIVERED)
        assert bus.nodes["tx"].state.tec == 7  # +8 error, -1 on success

    def test_bus_off_node_books_no_receive_error(self):
        # A failed slot costs every other node on the bus a receive error,
        # but not a node that is bus-off.
        bus = Bus(BusConfig())
        bus.attach_node("tx")
        rx = bus.attach_node("rx")
        off = bus.attach_node("off")
        off.state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
        frame = data_frame(0x123, b"\xde\xad")
        pos = 30  # inside the data region
        bus.inject_fault(pos, wire_plan(frame).stream[pos] ^ 1)
        trace = bus.run([ScheduleEntry(0, "tx", frame)], pos + 1)
        assert kinds(trace)[-1] is EventKind.ERROR_FRAME
        assert (rx.state.rec, off.state) == (1, NodeState(tec=256, mode=NodeMode.BUS_OFF))

    def test_fault_during_idle_is_inert(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.inject_fault(50, DOMINANT)
        trace = bus.run([], 200)
        assert kinds(trace) == [EventKind.FAULT_INJECTED]

    def test_fault_level_must_be_a_bus_level(self):
        bus = Bus(BusConfig())
        for level in (2, -1):
            with pytest.raises(ValueError):
                bus.inject_fault(10, level)
        bus.inject_fault(10, RECESSIVE)
        assert bus._faults == {10: RECESSIVE}

    def test_fault_bit_must_be_non_negative(self):
        bus = Bus(BusConfig())
        with pytest.raises(ValueError):
            bus.inject_fault(-1, DOMINANT)
        bus.inject_fault(0, DOMINANT)
        assert bus._faults == {0: DOMINANT}

    def test_fault_bit_must_be_an_integer(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        for bit in (10.5, 10.0):
            with pytest.raises(TypeError):
                bus.inject_fault(bit, DOMINANT)
        assert bus._faults == {}
        assert bus.run([], 100) == []

    def test_fault_bit_must_not_be_simulated_yet(self):
        bus = Bus(BusConfig())
        bus.attach_node("a")
        bus.run([], 100)
        for bit in (50, 99):
            with pytest.raises(ValueError):
                bus.inject_fault(bit, DOMINANT)
        assert bus._faults == {}
        bus.inject_fault(100, DOMINANT)
        assert [(e.kind, e.time_bits) for e in bus.run([], 200)] == [
            (EventKind.FAULT_INJECTED, 100)]

    def test_sixteen_corrupted_attempts_reach_error_passive(self):
        frame = data_frame(0x123, bytes(range(8)))
        from vcanlab.codec import encode_frame
        stream = encode_frame(frame).stuffed_bits
        d = 50
        bus = Bus(BusConfig())
        bus.attach_node("victim")
        bus.attach_node("obs")
        for i in range(16):
            bus.inject_fault(i * (d + 4) + d, stream[d] ^ 1)
        bus.run([ScheduleEntry(0, "victim", frame)], 16 * (d + 4) + 5)
        victim = bus.nodes["victim"]
        assert victim.state.tec == 128
        assert victim.state.mode is NodeMode.ERROR_PASSIVE


def crowded_frames():
    """110 frames with distinct arbitration fields, standard and extended.

    Six pairs meet at the edges of the arbitration field, each kind of pair
    once in each attach order (first members attached first, second members
    last): a standard data and remote frame with one id split at RTR, and a
    standard data or remote frame and an extended frame that share the top
    11 id bits split at SRR or at IDE.
    """
    rng = random.Random(110)
    pairs = [(data_frame(0x2A5, b"\x01"), remote_frame(0x2A5, 1)),
             (remote_frame(0x3C1, 2), data_frame(0x3C1, b"")),
             (data_frame(0x0F0, b""), data_frame((0x0F0 << 18) | 0x155, b"\x02", True)),
             (data_frame((0x071 << 18) | 0x0AA, b"", True), data_frame(0x071, b"\x03")),
             (remote_frame(0x1B3, 0), data_frame((0x1B3 << 18) | 0x2AA, b"", True)),
             (remote_frame((0x0C7 << 18) | 0x03F, 4, True), remote_frame(0x0C7, 4))]
    taken = {f.id.value >> 18 if f.id.extended else f.id.value for pair in pairs for f in pair}
    std = rng.sample(sorted(set(range(0x800)) - taken), 49)
    ext = [v for v in rng.sample(range(1 << 29), 60) if v >> 18 not in taken][:49]
    others = []
    for value, extended in [(v, False) for v in std] + [(v, True) for v in ext]:
        if rng.random() < 0.2:
            others.append(remote_frame(value, rng.randrange(9), extended))
        else:
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(9)))
            others.append(data_frame(value, payload, extended))
    rng.shuffle(others)
    return [a for a, _ in pairs] + others + [b for _, b in pairs]


@pytest.mark.parametrize("skip", [True, False])
def test_crowded_slots_match_the_arbitration_oracle(monkeypatch, skip):
    # Every slot of a 110-node backlog, event for event: a start event per
    # node still queued in attach order, the losers in order of the bit they
    # lose at (attach order within one bit), then the oracle's winner.
    monkeypatch.setattr(Bus, "_SKIP", skip)
    frames = crowded_frames()
    bus = Bus(BusConfig())
    names = [f"n{i:03d}" for i in range(len(frames))]
    for name in names:
        bus.attach_node(name)
    trace = bus.run([ScheduleEntry(0, name, frame)
                     for name, frame in zip(names, frames)], 40_000)
    streams = {name: stuff(frame_body_bits(frame)) for name, frame in zip(names, frames)}

    def split_bit(a, b):
        return next(i for i, (x, y) in enumerate(zip(streams[a], streams[b])) if x != y)

    got = [(e.time_bits, e.node, e.kind, e.frame) for e in trace]
    want = []
    queued = list(zip(names, frames))
    start = 0
    kind = EventKind.TX_START
    while queued:
        winner, frame = queued[arbitration_winner([f for _, f in queued])]
        want += [(start, name, kind, f) for name, f in queued]
        lost = sorted((split_bit(name, winner), i, name, f)
                      for i, (name, f) in enumerate(queued) if name != winner)
        want += [(start + bit, name, EventKind.ARBITRATION_LOST, f)
                 for bit, _, name, f in lost]
        start += frame_bit_length(frame, stuffed=True) + 3
        want.append((start, winner, EventKind.FRAME_DELIVERED, frame))
        queued.remove((winner, frame))
        kind = EventKind.RETRANSMIT
    assert got == want
    assert [e.frame for e in delivered(trace)] == sorted(frames, key=drive_pattern)
    # Every frame reaches each node but its sender, once.
    for name, frame in zip(names, frames):
        others = [f for other, f in zip(names, frames) if other != name]
        assert sorted(bus.nodes[name].received, key=frames.index) == others
