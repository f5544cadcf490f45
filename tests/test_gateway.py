import random

import pytest
from hypothesis import given, settings, strategies as st

from vcanlab.bus import Bus, BusConfig, ScheduleEntry
from vcanlab.frame import Frame, FrameKind, data_frame, remote_frame
from vcanlab.gateway import (BEL, CR, GatewaySession, ParseReason,
                             SerialParseError, format_serial_line,
                             parse_serial_line)
from vcanlab.node import NodeMode, NodeState
from vcanlab.sensornet import SensorConfig, SensorReading, build_reading_frame

from oracles import parse_serial_line_reference, pump_bytewise, random_frame


# Edits int(..., 16) or bytes.fromhex would let through, and edits the
# grammar rejects on its own: a dropped character makes the digit count odd.
_INSERTS = {"space": b" ", "underscore": b"_", "cr": b"\r",
            "non_ascii": b"\xc3\xa9", "high_byte": b"\xff"}


@st.composite
def mutated_lines(draw):
    """A valid line from :func:`format_serial_line`, with up to three edits.

    Overwriting a character with an uppercase hex digit reaches the edges of
    the grammar's digit ranges: standard ids 0x800-0xFFF, extended ids from
    0x20000000, DLC digits 9-F and data one digit short or long."""
    frame = random_frame(draw(st.randoms(use_true_random=False)))
    line = bytearray(format_serial_line(frame))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["lower", "drop", "hex", *_INSERTS]))
        i = draw(st.integers(0, len(line)))
        if op == "lower":
            line[i:i + 1] = line[i:i + 1].lower()
        elif op == "hex":
            line[i:i + 1] = draw(st.sampled_from(b"0123456789ABCDEF")).to_bytes(1, "big")
        elif op == "drop":
            del line[i:i + 1]
        else:
            line[i:i] = _INSERTS[op]
    return bytes(line)


def parse_outcome(parse, data):
    try:
        return parse(data)
    except SerialParseError as exc:
        return exc.reason, str(exc)


class TestParse:
    def test_standard_data(self):
        f = parse_serial_line(b"t1232ABCD\r")
        assert (f.id.value, f.id.extended, f.kind, f.payload) == \
            (0x123, False, FrameKind.DATA, b"\xab\xcd")

    def test_standard_remote(self):
        f = parse_serial_line(b"r1234\r")
        assert (f.id.value, f.kind, f.dlc) == (0x123, FrameKind.REMOTE, 4)

    def test_extended_data(self):
        f = parse_serial_line(b"T1ABCDE2825566\r")
        assert f.id.value == 0x1ABCDE28 and f.payload == b"\x55\x66"

    def test_bad_hex(self):
        with pytest.raises(SerialParseError) as exc:
            parse_serial_line(b"t123ZAB\r")
        assert exc.value.reason is ParseReason.BAD_HEX

    def test_bad_command(self):
        with pytest.raises(SerialParseError) as exc:
            parse_serial_line(b"x1230\r")
        assert exc.value.reason is ParseReason.BAD_COMMAND

    def test_bad_dlc(self):
        with pytest.raises(SerialParseError) as exc:
            parse_serial_line(b"t123900112233445566778899\r")
        assert exc.value.reason is ParseReason.BAD_DLC

    def test_length_mismatch(self):
        with pytest.raises(SerialParseError) as exc:
            parse_serial_line(b"t1232AB\r")
        assert exc.value.reason is ParseReason.LENGTH_MISMATCH

    def test_lowercase_hex_rejected(self):
        with pytest.raises(SerialParseError):
            parse_serial_line(b"t1232abcd\r")

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=30) | mutated_lines())
    def test_matches_the_reference_parser(self, data):
        assert parse_outcome(parse_serial_line, data) == \
            parse_outcome(parse_serial_line_reference, data)


# Lines at the edges of the grammar's ranges, with the reason each gets
# (None: accepted).
_EDGE_LINES = [
    (b"t7FF0", None),                                 # the last standard id
    (b"t8000", ParseReason.ID_OUT_OF_RANGE),
    (b"T1FFFFFFF0", None),                            # the last extended id
    (b"T200000000", ParseReason.ID_OUT_OF_RANGE),
    (b"t1239", ParseReason.BAD_DLC),
    (b"r1238", None),
    (b"r1239", ParseReason.BAD_DLC),
    (b"r1231AB", ParseReason.LENGTH_MISMATCH),
    (b"t1231A", ParseReason.LENGTH_MISMATCH),
    (b"t1230\r\r", ParseReason.LENGTH_MISMATCH),       # one CR is stripped
    (b"T1ABCDEF08" + b"00" * 9 + b"\r", ParseReason.OVERFLOW),  # 29 bytes
]


@pytest.mark.parametrize("line, reason", _EDGE_LINES)
def test_edge_lines_match_the_reference_parser(line, reason):
    got = parse_outcome(parse_serial_line, line)
    assert got == parse_outcome(parse_serial_line_reference, line)
    assert (None if isinstance(got, Frame) else got[0]) is reason


class TestFormat:
    def test_standard_data(self):
        frame = data_frame(0x0A0, b"\xde\xad\xbe\xef")
        assert format_serial_line(frame) == b"t0A04DEADBEEF\r"

    def test_extended_empty(self):
        frame = data_frame(0x00000100, b"", extended=True)
        assert format_serial_line(frame) == b"T000001000\r"

    def test_remote(self):
        assert format_serial_line(remote_frame(0x123, 4)) == b"r1234\r"

    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(500):
            f = random_frame(rng)
            assert parse_serial_line(format_serial_line(f)) == f

    def test_canonical_line_roundtrip(self):
        for line in (b"t1232ABCD\r", b"r1234\r", b"T000001000\r"):
            assert format_serial_line(parse_serial_line(line)) == line


class TestSession:
    def _rig(self):
        bus = Bus(BusConfig())
        gw = bus.attach_node("gw")
        monitor = bus.attach_node("monitor")
        return bus, GatewaySession(gw), monitor

    def test_line_in_frame_on_bus(self):
        bus, session, monitor = self._rig()
        assert session.pump(b"t1232ABCD\r") == CR
        bus.run([], 1_000)
        assert monitor.received == [parse_serial_line(b"t1232ABCD\r")]
        assert session.frames_in == 1

    def test_sensor_reading_emitted_as_line(self):
        bus, session, monitor = self._rig()
        cfg = SensorConfig(node_name="monitor")
        frame = build_reading_frame(cfg, SensorReading(512, 2002))
        bus.run([ScheduleEntry(0, "monitor", frame)], 1_000)
        out = session.pump()
        assert out == b"t1004020007D2\r"
        assert session.frames_out == 1

    def test_garbage_gets_bel_and_session_survives(self):
        bus, session, monitor = self._rig()
        assert session.pump(b"garbage\r") == BEL
        assert session.pump(b"t1230\r") == CR
        assert session.parse_errors == 1

    def test_partial_lines_buffered(self):
        bus, session, monitor = self._rig()
        assert session.pump(b"t123") == b""
        assert session.pump(b"2ABCD\r") == CR

    def test_overflow_discards_rest_of_line(self):
        bus, session, monitor = self._rig()
        assert session.pump(b"A" * 40) == BEL  # one error per overlong line
        assert session.pump(b"A" * 40) == b""  # still the same junk line
        assert session.pump(b"\r") == b""
        assert session.pump(b"t1230\r") == CR

    def test_bus_off_node_gets_bel(self):
        bus, session, monitor = self._rig()
        session.node.state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
        assert session.pump(b"t1230\r") == BEL

    def test_no_byte_loss_decomposition(self):
        bus, session, monitor = self._rig()
        out = bytearray()
        out += session.pump(b"t1230\rjunk\rt7FF181\r")
        bus.run([], 2_000)
        out += session.pump()
        # outgoing bytes decompose into CR/BEL responses and whole lines
        i = 0
        pieces = []
        while i < len(out):
            if out[i] == CR[0] or out[i] == BEL[0]:
                pieces.append(out[i:i + 1])
                i += 1
            else:
                j = out.index(CR[0], i)
                pieces.append(out[i:j + 1])
                i = j + 1
        assert b"".join(bytes(p) for p in pieces) == bytes(out)
        assert pieces.count(CR) == 2 and pieces.count(BEL) == 1


# Line bodies around the 28-byte limit: a valid line of 27 bytes with its CR,
# 27 bytes of text (28 with the CR) and runs of bytes long enough to overflow,
# valid lines, and arbitrary bytes, which bring CRs and non-ASCII bytes.
_BODIES = st.one_of(
    st.randoms(use_true_random=False).map(
        lambda rng: format_serial_line(random_frame(rng))[:-1]),
    st.sampled_from([b"T1ABCDEF08" + b"00" * 8, b"T1ABCDEF08" + b"00" * 8 + b"0"]),
    st.integers(0, 60).map(lambda n: b"A" * n),
    st.binary(max_size=30),
)


@st.composite
def serial_chunks(draw):
    """A byte stream of lines, some without their CR, cut into chunks."""
    pieces = draw(st.lists(st.tuples(_BODIES, st.booleans()), max_size=10))
    stream = b"".join(body + (CR if ends else b"") for body, ends in pieces)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    return [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]


def session_state(session):
    return (bytes(session.rx_buffer), session._discarding, session.parse_errors,
            session.frames_in, session.frames_out, [q.frame for q in session.node.queue])


@settings(max_examples=300, deadline=None)
@given(serial_chunks(), st.booleans())
def test_pump_matches_the_bytewise_pump(chunks, bus_off):
    # Each chunk gives the same response and leaves both sessions alike,
    # whichever way the stream is cut: inside a line, between a line and its
    # CR, or inside an overlong line that is being discarded.
    sessions = []
    for _ in range(2):
        bus = Bus(BusConfig())
        node = bus.attach_node("gw")
        if bus_off:
            node.state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
        sessions.append(GatewaySession(node))
    fast, slow = sessions
    for chunk in chunks:
        assert fast.pump(chunk) == pump_bytewise(slow, chunk)
        assert session_state(fast) == session_state(slow)


@pytest.mark.parametrize("text, response, errors", [
    (b"\r\r", BEL + BEL, 2),                        # CR-only input: two empty lines
    (b"T1ABCDEF08" + b"00" * 8 + b"\r", CR, 0),      # 27 bytes with the CR: accepted
    (b"T1ABCDEF08" + b"00" * 8 + b"0\r", BEL, 1),    # 28 with the CR: too long to parse
    (b"A" * 28 + b"\r", BEL, 1),                     # 28 without a CR: overflow at the 28th
    (b"t1230\xff\r", BEL, 1),                        # a non-ASCII byte
])
def test_pump_line_limits(text, response, errors):
    session = GatewaySession(Bus(BusConfig()).attach_node("gw"))
    assert session.pump(text) == response
    assert session.parse_errors == errors
    assert (session.rx_buffer, session._discarding) == (bytearray(), False)
