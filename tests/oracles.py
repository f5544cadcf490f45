"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms than the production code: the CRC
oracle is polynomial long division over GF(2) on a big integer (the codec uses
a table-driven shift register), and the arbitration oracle compares drive
patterns bit by bit. The decoder and the destuffer walk the bits one at a
time, where the codec scans strings, and the serial-line parser checks and
converts hex one character and one byte at a time, where the gateway checks
whole fields, and the serial pump takes its input one byte at a time, where
the gateway scans whole lines. The bus-off recovery count ticks one bus level
at a time, where the bus credits whole runs of recessive bits. The trace-line
formatter is the one the library used before it read member values directly
and tested the bus-off kinds by identity.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from vcanlab import codec
from vcanlab.bus import EventKind, TraceEvent
from vcanlab.codec import (CRC_WIDTH, DOMINANT, EOF_BITS, RECESSIVE, TAIL_BITS,
                           CrcError, FormError, StuffError, TruncatedError,
                           _EXT_HEADER_BITS, _STD_HEADER_BITS)
from vcanlab.frame import (MAX_EXTENDED_ID, MAX_STANDARD_ID, Frame, FrameId,
                           FrameKind)
from vcanlab.gateway import (BEL, CR, MAX_LINE_BYTES, GatewaySession, ParseReason,
                             SerialParseError, format_serial_line, parse_serial_line)
from vcanlab.node import BusOffError

# x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1
CRC_GENERATOR = 0xC599


def crc15_oracle(bits: Sequence[int]) -> int:
    """CRC-15 as (message(x) * x^15) mod g(x), via long division."""
    val = 0
    for b in bits:
        val = (val << 1) | b
    val <<= 15
    for shift in range(len(bits) - 1, -1, -1):
        if (val >> (shift + 15)) & 1:
            val ^= CRC_GENERATOR << shift
    return val


def destuff_serial(bits: Sequence[int]) -> List[int]:
    """Drop each bit following a run of 5 equal levels, one bit at a time;
    StuffError at the first run of 6 equal levels."""
    out: List[int] = []
    run_level = -1
    run_len = 0
    i = 0
    n = len(bits)
    while i < n:
        b = bits[i]
        if run_len == 5:
            if b == run_level:
                raise StuffError(i)
            run_level = b
            run_len = 1
            i += 1
            continue
        out.append(b)
        if b == run_level:
            run_len += 1
        else:
            run_level = b
            run_len = 1
        i += 1
    return out


def drive_pattern(frame: Frame) -> List[int]:
    """Levels a transmitter drives from SOF through its arbitration field,
    extended one bit into the control field so standard-vs-extended contention
    is decided (the standard frame's dominant IDE bit)."""
    rtr = 0 if frame.kind is FrameKind.DATA else 1
    v = frame.id.value
    bits = [0]  # SOF
    if not frame.id.extended:
        bits += [(v >> i) & 1 for i in range(10, -1, -1)]
        bits += [rtr, 0]  # RTR, IDE dominant
    else:
        bits += [(v >> i) & 1 for i in range(28, 17, -1)]
        bits += [1, 1]  # SRR, IDE recessive
        bits += [(v >> i) & 1 for i in range(17, -1, -1)]
        bits += [rtr]
    return bits


def arbitration_bits(frame: Frame) -> Tuple[int, ...]:
    """The arbitration pattern after SOF as a tuple of levels, which compare
    in arbitration order: the form ``arbitration_key`` packs into an int."""
    return tuple(drive_pattern(frame)[1:])


def arbitration_winner(frames: Sequence[Frame]) -> int:
    """Index of the contender left after bit-by-bit dominant-wins contention."""
    patterns = [drive_pattern(f) for f in frames]
    alive = list(range(len(frames)))
    for k in range(max(len(p) for p in patterns)):
        levels = [patterns[i][k] for i in alive if k < len(patterns[i])]
        if not levels:
            break
        resolved = 0 if 0 in levels else 1
        survivors = [i for i in alive
                     if k >= len(patterns[i]) or patterns[i][k] == resolved]
        if survivors:
            alive = survivors
        if len(alive) == 1:
            break
    return alive[0]


# A bus-off node rejoins after 128 groups of 11 consecutive recessive bits.
GROUP_BITS = 11
GROUPS = 128


def tick_recovery(counts: Sequence[Tuple[int, int]], levels: Sequence[int]
                  ) -> Tuple[int, List[Tuple[int, int]], List[int]]:
    """Tick bus ``levels`` one at a time through bus-off nodes' recovery
    ``counts``, each (groups completed, recessive bits toward the next), up
    to the first bit at which a node completes its last group.

    Returns the number of bits ticked, each node's count after them, and the
    indices of the nodes that recovered at the last of them, in order.
    """
    counts = [list(count) for count in counts]
    for ticked, level in enumerate(levels, start=1):
        recovered = []
        for i, count in enumerate(counts):
            if level == DOMINANT:
                count[1] = 0
                continue
            count[1] += 1
            if count[1] == GROUP_BITS:
                count[0] += 1
                count[1] = 0
                if count[0] == GROUPS:
                    recovered.append(i)
        if recovered:
            return ticked, [tuple(count) for count in counts], recovered
    return len(levels), [tuple(count) for count in counts], []


def longest_run(bits: Sequence[int]) -> int:
    """Scanning oracle for the no-6-run stuffing property."""
    best = run = 0
    prev = None
    for b in bits:
        run = run + 1 if b == prev else 1
        prev = b
        best = max(best, run)
    return best


def random_frame(rng: random.Random) -> Frame:
    from vcanlab.frame import data_frame, remote_frame
    extended = rng.random() < 0.5
    id_value = rng.randrange(1 << (29 if extended else 11))
    if rng.random() < 0.15:
        return remote_frame(id_value, rng.randrange(9), extended)
    dlc = rng.randrange(9)
    return data_frame(id_value, bytes(rng.randrange(256) for _ in range(dlc)),
                      extended)


def decode_frame_serial(bits: Sequence[int]) -> Frame:
    """Bit-serial decoder: destuffs one bit at a time and raises the first
    failure hit, the reference :func:`vcanlab.codec.decode_frame` must match
    on every input of levels 0 and 1, error offsets included."""
    n = len(bits)
    flat: List[int] = []
    pos = 0
    run_level = -1
    run_len = 0

    def fill(needed: int) -> None:
        nonlocal pos, run_level, run_len
        while len(flat) < needed:
            if pos >= n:
                raise TruncatedError(max(n - 1, 0))
            b = bits[pos]
            if run_len == 5:
                if b == run_level:
                    raise StuffError(pos)
                run_level = b
                run_len = 1
                pos += 1
                continue
            flat.append(b)
            pos += 1
            if b == run_level:
                run_len += 1
            else:
                run_level = b
                run_len = 1

    fill(14)  # SOF + 11 id bits + bit12 + IDE
    if flat[0] != DOMINANT:
        raise FormError(0, "SOF must be dominant")
    extended = flat[13] == RECESSIVE
    header = _EXT_HEADER_BITS if extended else _STD_HEADER_BITS
    fill(header)
    if extended:
        id_value = 0
        for b in flat[1:12] + flat[14:32]:
            id_value = (id_value << 1) | b
        rtr = flat[32]
        dlc_bits = flat[35:39]
    else:
        id_value = 0
        for b in flat[1:12]:
            id_value = (id_value << 1) | b
        rtr = flat[12]
        dlc_bits = flat[15:19]
    dlc = (dlc_bits[0] << 3) | (dlc_bits[1] << 2) | (dlc_bits[2] << 1) | dlc_bits[3]
    if dlc > 8:
        raise FormError(pos - 1, f"DLC {dlc} exceeds 8")

    data_bits = 8 * dlc if rtr == DOMINANT else 0
    region_total = header + data_bits + CRC_WIDTH
    fill(region_total)
    # A 5-run ending exactly at the last CRC bit is still followed by a stuff bit.
    if run_len == 5:
        if pos >= n:
            raise TruncatedError(max(n - 1, 0))
        if bits[pos] == run_level:
            raise StuffError(pos)
        pos += 1

    received_crc = 0
    for b in flat[region_total - CRC_WIDTH:region_total]:
        received_crc = (received_crc << 1) | b
    crc_start_raw = pos  # offset reported for CRC mismatch: first tail bit

    # Fixed-form tail: CRC delimiter, ACK slot (either level), ACK delimiter, EOF.
    if n - pos < TAIL_BITS:
        raise TruncatedError(max(n - 1, 0))
    if bits[pos] != RECESSIVE:
        raise FormError(pos, "CRC delimiter must be recessive")
    if bits[pos + 1] not in (DOMINANT, RECESSIVE):
        raise FormError(pos + 1, "invalid ACK slot level")
    if bits[pos + 2] != RECESSIVE:
        raise FormError(pos + 2, "ACK delimiter must be recessive")
    for i in range(EOF_BITS):
        if bits[pos + 3 + i] != RECESSIVE:
            raise FormError(pos + 3 + i, "EOF must be recessive")
    if pos + TAIL_BITS != n:
        raise FormError(pos + TAIL_BITS, "trailing bits after EOF")

    if crc15_oracle(flat[:region_total - CRC_WIDTH]) != received_crc:
        raise CrcError(crc_start_raw - 1, "CRC mismatch")

    frame_id = FrameId(id_value, extended=extended)
    if rtr == RECESSIVE:
        return Frame(frame_id, FrameKind.REMOTE, dlc, b"")
    payload = bytearray()
    data_start = header
    for i in range(dlc):
        byte = 0
        for b in flat[data_start + 8 * i:data_start + 8 * i + 8]:
            byte = (byte << 1) | b
        payload.append(byte)
    return Frame(frame_id, FrameKind.DATA, dlc, bytes(payload))


_HEX_DIGITS = set("0123456789ABCDEF")


def _hex_field_reference(text: str, what: str) -> int:
    if not text or any(ch not in _HEX_DIGITS for ch in text):
        raise SerialParseError(ParseReason.BAD_HEX, f"bad hex in {what}: {text!r}")
    return int(text, 16)


def parse_serial_line_reference(data: bytes) -> Frame:
    """Character-by-character serial-line parser: the reference
    :func:`vcanlab.gateway.parse_serial_line` must match on every input, in
    the frame it returns or in the reason and message of the error it
    raises."""
    if len(data) > MAX_LINE_BYTES:
        raise SerialParseError(ParseReason.OVERFLOW, "line too long")
    if data.endswith(CR):
        data = data[:-1]
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise SerialParseError(ParseReason.BAD_COMMAND, "non-ASCII input") from None
    if not text:
        raise SerialParseError(ParseReason.BAD_COMMAND, "empty line")
    cmd, rest = text[0], text[1:]
    if cmd not in "tTrR":
        raise SerialParseError(ParseReason.BAD_COMMAND, f"unknown command {cmd!r}")
    extended = cmd in "TR"
    id_digits = 8 if extended else 3
    if len(rest) < id_digits + 1:
        raise SerialParseError(ParseReason.LENGTH_MISMATCH, "line too short")
    id_value = _hex_field_reference(rest[:id_digits], "identifier")
    limit = MAX_EXTENDED_ID if extended else MAX_STANDARD_ID
    if id_value > limit:
        raise SerialParseError(ParseReason.ID_OUT_OF_RANGE,
                               f"identifier 0x{id_value:X} out of range")
    dlc_ch = rest[id_digits]
    if dlc_ch not in _HEX_DIGITS:
        raise SerialParseError(ParseReason.BAD_HEX, f"bad dlc digit {dlc_ch!r}")
    dlc = int(dlc_ch, 16)
    if dlc > 8:
        raise SerialParseError(ParseReason.BAD_DLC, f"dlc {dlc} exceeds 8")
    body = rest[id_digits + 1:]
    frame_id = FrameId(id_value, extended=extended)
    if cmd in "rR":
        if body:
            raise SerialParseError(ParseReason.LENGTH_MISMATCH,
                                   "remote frame carries no data")
        return Frame(frame_id, FrameKind.REMOTE, dlc, b"")
    if len(body) != 2 * dlc:
        raise SerialParseError(ParseReason.LENGTH_MISMATCH,
                               f"expected {2 * dlc} data digits, got {len(body)}")
    payload = bytes(_hex_field_reference(body[i:i + 2], "data")
                    for i in range(0, len(body), 2))
    return Frame(frame_id, FrameKind.DATA, dlc, payload)


def pump_bytewise(session: GatewaySession, incoming: bytes = b"") -> bytes:
    """Byte-at-a-time serial pump: the reference
    :meth:`vcanlab.gateway.GatewaySession.pump` must match on every chunking
    of every input, in the bytes it returns and in the session's buffer,
    discard flag, counters and the frames it queues."""
    out = bytearray()
    for byte in incoming:
        if session._discarding:
            if byte == CR[0]:
                session._discarding = False
            continue
        if byte == CR[0]:
            line = bytes(session.rx_buffer)
            session.rx_buffer.clear()
            try:
                frame = parse_serial_line(line)
                session.node.submit(frame)
            except (SerialParseError, BusOffError):
                session.parse_errors += 1
                out += BEL
            else:
                session.frames_in += 1
                out += CR
        else:
            session.rx_buffer.append(byte)
            if len(session.rx_buffer) >= MAX_LINE_BYTES:
                session.rx_buffer.clear()
                session.parse_errors += 1
                session._discarding = True
                out += BEL
    received = session.node.received
    while session._rx_cursor < len(received):
        out += format_serial_line(received[session._rx_cursor])
        session.frames_out += 1
        session._rx_cursor += 1
    return bytes(out)


_NODE_SUFFIX_KINDS = {EventKind.BUS_OFF_ENTERED, EventKind.BUS_OFF_RECOVERED}


def format_trace_event_reference(event: TraceEvent) -> str:
    """One bit-exact trace line: ``(<seconds>) vcan0 <ID>#<DATA> <EVENT>``."""
    frame_txt = codec.frame_to_text(event.frame) if event.frame is not None else "-"
    line = f"({event.time_s:.6f}) vcan0 {frame_txt} {event.kind.value}"
    if event.kind in _NODE_SUFFIX_KINDS and event.node is not None:
        line += f" node={event.node}"
    return line
