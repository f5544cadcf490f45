"""Bit-exact wire representation of CAN 2.0 frames.

Serialization, bit stuffing, the 15-bit CRC and decoding with a full error
taxonomy. Bitstreams are plain lists of ints where dominant = 0 and
recessive = 1.

:func:`wire_plan` lays a frame out for the wire; the bus and
:func:`encode_frame` both use it. It computes the CRC over SOF through the
data as one integer and stuffs a byte at a time through a table of the 9
stuffing states, built from :func:`stuff_with_positions`; :func:`stuff`
returns that function's levels. :func:`decode_frame` destuffs and parses on
``'0'/'1'`` strings. :func:`crc15` runs the integer CRC and :func:`destuff`
the decoder's scan, so each rule is written once. :func:`crc15`,
:func:`destuff`, :func:`decode_frame` and :func:`bits_to_string` raise
FormError at the first level that is not 0 or 1. The independent references
(long-division CRC, bit-serial destuffing and decoding) live in
``tests/oracles.py``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .frame import Frame, FrameId
# Enum members bound once, as frame.py explains.
from .frame import _DATA, _REMOTE

DOMINANT = 0
RECESSIVE = 1

BitStream = List[int]

CRC_POLY = 0x4599  # x^15+x^14+x^10+x^8+x^7+x^4+x^3+1
CRC_WIDTH = 15

EOF_BITS = 7
# CRC delimiter + ACK slot + ACK delimiter + EOF, all recessive as transmitted
TAIL_BITS = 3 + EOF_BITS

_STD_HEADER_BITS = 1 + 11 + 1 + 1 + 1 + 4   # SOF ID RTR IDE r0 DLC
_EXT_HEADER_BITS = 1 + 11 + 1 + 1 + 18 + 1 + 1 + 1 + 4  # SOF ID[28:18] SRR IDE ID[17:0] RTR r1 r0 DLC

# Index of the last arbitration-field bit in the unstuffed stream
# (standard: RTR after SOF+11 id bits; extended: RTR after the 18 low id bits).
STD_ARBITRATION_END = 12
EXT_ARBITRATION_END = 32


class DecodeError(Exception):
    """Base decode failure; ``offset`` is the raw bit index where it was detected."""

    def __init__(self, offset: int, message: str = ""):
        self.offset = offset
        super().__init__(message or f"{type(self).__name__} at bit {offset}")


class StuffError(DecodeError):
    """Six equal consecutive levels inside the stuffed region."""


class CrcError(DecodeError):
    """Received CRC does not match the recomputed one."""


class FormError(DecodeError):
    """A fixed-form bit (SOF, delimiter, EOF) or field value violates the format."""


class TruncatedError(DecodeError):
    """Input ended before a complete frame."""


@dataclass(frozen=True)
class EncodedFrame:
    stuffed_bits: BitStream
    crc: int
    stuff_count: int


def _build_crc_table() -> List[int]:
    """The zero-initialised shift register run over each byte, MSB first."""
    table = []
    for byte in range(256):
        crc = 0
        for i in range(7, -1, -1):
            feedback = ((crc >> 14) & 1) ^ ((byte >> i) & 1)
            crc = (crc << 1) & 0x7FFF
            if feedback:
                crc ^= CRC_POLY
        table.append(crc)
    return table


_CRC_TABLE = _build_crc_table()


def _crc15_int(value: int, nbits: int) -> int:
    """:func:`crc15` of the ``nbits`` low bits of ``value``, MSB first."""
    # Leading zero bits keep a zero-initialised CRC at 0, so padding the
    # bits to whole bytes on the left leaves the CRC unchanged.
    crc = 0
    table = _CRC_TABLE
    for byte in value.to_bytes((nbits + 7) >> 3, "big"):
        crc = (crc << 8 & 0x7FFF) ^ table[(crc >> 7) ^ byte]
    return crc


def crc15(bits: Sequence[int]) -> int:
    """15-bit shift-register CRC, zero-initialized, MSB first; FormError at
    the first level that is not 0 or 1."""
    return _crc15_int(int(bits_to_string(bits) or "0", 2), len(bits))


def stuff_with_positions(bits: Sequence[int]) -> Tuple[BitStream, List[int]]:
    """Insert a complement bit after every run of 5 equal levels, also
    returning for each input bit its index in the stuffed output."""
    out: BitStream = []
    positions: List[int] = []
    run_level = -1
    run_len = 0
    for b in bits:
        positions.append(len(out))
        out.append(b)
        if b == run_level:
            run_len += 1
        else:
            run_level = b
            run_len = 1
        if run_len == 5:
            run_level = b ^ 1
            run_len = 1
            out.append(run_level)
    return out, positions


def stuff(bits: Sequence[int]) -> BitStream:
    """Insert a complement bit after every run of 5 equal levels."""
    return stuff_with_positions(bits)[0]


def destuff(bits: Sequence[int]) -> BitStream:
    """Drop each bit following a run of 5 equal levels, by the scan of
    :func:`decode_frame`; FormError at the first level that is not 0 or 1,
    StuffError at the first run of 6 equal levels."""
    raw = bits_to_string(bits)
    flat, _, stop = _destuff_scan(raw)
    if 0 <= stop < len(raw):
        raise StuffError(stop)
    return list(flat.encode("ascii").translate(_TO_LEVELS))


def frame_body_bits(frame: Frame) -> BitStream:
    """Unstuffed SOF-through-data region (the CRC input)."""
    rtr = 0 if frame.kind is _DATA else 1
    v = frame.id.value
    bits: BitStream = [DOMINANT]  # SOF
    if not frame.id.extended:
        bits += [(v >> i) & 1 for i in range(10, -1, -1)]
        bits += [rtr, 0, 0]  # RTR, IDE (standard), r0
    else:
        bits += [(v >> i) & 1 for i in range(28, 17, -1)]
        bits += [1, 1]  # SRR, IDE
        bits += [(v >> i) & 1 for i in range(17, -1, -1)]
        bits += [rtr, 0, 0]  # RTR, r1, r0
    bits += [(frame.dlc >> i) & 1 for i in range(3, -1, -1)]
    if frame.kind is _DATA:
        for byte in frame.payload:
            bits += [(byte >> i) & 1 for i in range(7, -1, -1)]
    return bits


class WirePlan:
    """Stuffed wire layout of one frame, as the bus transmits it.

    ``stream`` holds the levels (0 or 1) from SOF through the last EOF bit.
    ``arb_end`` is the stuffed index of the last arbitration-field bit,
    ``region_len`` the stuffed length of SOF through the last CRC bit and
    ``ack_idx`` the index of the ACK slot.
    """

    __slots__ = ("stream", "crc", "stuff_count", "arb_end", "region_len",
                 "total_len", "ack_idx")

    def __init__(self, stream: bytes, crc: int, stuff_count: int, arb_end: int):
        self.stream = stream
        self.crc = crc
        self.stuff_count = stuff_count
        self.arb_end = arb_end
        self.total_len = len(stream)
        self.region_len = self.total_len - TAIL_BITS
        self.ack_idx = self.region_len + 1  # after the CRC delimiter


_RUN5 = re.compile("0{5}|1{5}")
# Levels 0 and 1 as '0' and '1'; any other byte as 'x', which is neither.
_TO_CHARS = bytes.maketrans(bytes(range(256)), b"01" + b"x" * 254)
_TO_LEVELS = bytes.maketrans(b"01", b"\x00\x01")
_TAIL = bytes((RECESSIVE,)) * TAIL_BITS


def _build_stuff_table() -> List[list]:
    """Bit stuffing a byte at a time, from :func:`stuff_with_positions`.

    A stuffing state is the run of equal levels the output ends in: none
    yet, or 1 to 4 of either level. Each state has a row of 256 entries, one
    per input byte: the byte's output levels as ``bytes`` (stuff bits
    included), the row of the state after it, and the offsets (0 = MSB) of
    the byte's bits that are followed by a stuff bit. Returns the row of the
    initial state.
    """
    states = [()] + [(level,) * count for level in (0, 1) for count in range(1, 5)]
    rows: dict = {state: [] for state in states}
    shared: dict = {}  # one object for each distinct levels and offsets value
    for state, row in rows.items():
        for byte in range(256):
            bits = [(byte >> i) & 1 for i in range(7, -1, -1)]
            # A run of at most 4 levels is never stuffed: drop it from the output.
            out, positions = stuff_with_positions([*state, *bits])
            out = out[len(state):]
            ends = [p - len(state) for p in positions[len(state):]] + [len(out)]
            offsets = tuple(i for i in range(8) if ends[i + 1] - ends[i] == 2)
            run = 1  # the run the output ends in: at most 4, all in ``out``
            while out[-1 - run] == out[-1]:
                run += 1
            row.append((shared.setdefault(bytes(out), bytes(out)),
                        rows[(out[-1],) * run],
                        shared.setdefault(offsets, offsets)))
    return rows[()]


_STUFF_START = _build_stuff_table()


def wire_plan(frame: Frame) -> WirePlan:
    """Lay out ``frame`` for the wire: :func:`frame_body_bits` and its
    :func:`crc15` as one integer, stuffed a byte at a time through a table
    built from :func:`stuff_with_positions`, then the recessive tail."""
    v = frame.id.value
    dlc = frame.dlc
    rtr = 0 if frame.kind is _DATA else 1
    if frame.id.extended:
        # SOF ID[28:18] SRR IDE ID[17:0] RTR r1 r0 DLC
        body = (v >> 18) << 27 | 3 << 25 | (v & 0x3FFFF) << 7 | rtr << 6 | dlc
        body_len = _EXT_HEADER_BITS
        arb = EXT_ARBITRATION_END
    else:
        body = v << 7 | rtr << 6 | dlc  # SOF ID RTR IDE r0 DLC
        body_len = _STD_HEADER_BITS
        arb = STD_ARBITRATION_END
    if not rtr and dlc:
        body = body << 8 * dlc | int.from_bytes(frame.payload, "big")
        body_len += 8 * dlc
    crc = _crc15_int(body, body_len)

    # SOF through the last CRC bit, zero-padded to whole bytes on the right:
    # 6 pad bits for a standard frame, 2 for an extended one.
    region_len = body_len + CRC_WIDTH
    pad = -region_len % 8
    region = (body << CRC_WIDTH | crc) << pad
    # ``after`` holds the region index after which each stuff bit goes.
    after: List[int] = []
    levels = []
    row = _STUFF_START
    base = 0
    for byte in region.to_bytes((region_len + pad) >> 3, "big"):
        out, row, offsets = row[byte]
        levels.append(out)
        for i in offsets:
            after.append(base + i)
        base += 8
    # Stuff bits that follow pad bits are dropped; one that follows the last
    # CRC bit is sent.
    count = bisect_left(after, region_len)
    stream = b"".join(levels)[:region_len + count] + _TAIL
    return WirePlan(stream, crc, count, arb + bisect_left(after, arb))


def encode_frame(frame: Frame) -> EncodedFrame:
    """Serialize to the full stuffed bitstream.

    Stuffing covers SOF through the last CRC bit; the CRC delimiter, ACK slot
    (recessive as transmitted), ACK delimiter and 7-bit EOF follow unstuffed.
    """
    plan = wire_plan(frame)
    return EncodedFrame(list(plan.stream), plan.crc, plan.stuff_count)


def frame_bit_length(frame: Frame, stuffed: bool = False) -> int:
    """Length of the frame on the wire, with or without stuff bits."""
    if stuffed:
        return wire_plan(frame).total_len
    header = _EXT_HEADER_BITS if frame.id.extended else _STD_HEADER_BITS
    data = 8 * frame.dlc if frame.kind is _DATA else 0
    return header + data + CRC_WIDTH + TAIL_BITS


def bits_to_string(bits: Sequence[int]) -> str:
    """``bits`` as a ``'0'/'1'`` string; FormError at the first level that
    is neither."""
    try:
        raw = bytes(bits).translate(_TO_CHARS).decode("ascii")
        if "x" not in raw:
            return raw
    except ValueError:  # a level outside 0..255
        pass
    bad = next(i for i, b in enumerate(bits) if b not in (DOMINANT, RECESSIVE))
    raise FormError(bad, f"invalid bit level {bits[bad]!r}")


def _destuff_scan(raw: str) -> Tuple[str, List[int], int]:
    """Destuff a ``'0'/'1'`` string as far as it goes.

    Returns the destuffed bits, the destuffed index after which each stuff
    bit was removed, and the raw index of the stuff slot that stopped the
    scan: a sixth equal level, or ``len(raw)`` when the input ends where a
    stuff bit is due. That index is -1 when the scan reached the end.
    """
    n = len(raw)
    pieces: List[str] = []
    after: List[int] = []
    flat_len = 0
    pos = 0
    search = _RUN5.search
    m = search(raw)
    while m is not None:
        slot = m.end()
        while True:
            pieces.append(raw[pos:slot])
            flat_len += slot - pos
            if slot == n or raw[slot] == raw[slot - 1]:
                return "".join(pieces), after, slot
            after.append(flat_len - 1)
            level = raw[slot]
            pos = slot + 1
            # The stuff bit and four more of its level make the next run.
            if not raw.startswith(level * 4, pos):
                break
            slot = pos + 4
        m = search(raw, pos)
    pieces.append(raw[pos:])
    return "".join(pieces), after, -1


def decode_frame(bits: Sequence[int]) -> Frame:
    """Exact inverse of :func:`encode_frame`.

    Every level must be 0 or 1: any other level raises FormError at the
    first such bit, before any other check. Otherwise raises the first
    failure hit while scanning serially: StuffError, TruncatedError,
    FormError or CrcError.
    """
    raw = bits_to_string(bits)
    n = len(raw)
    flat, after, stop = _destuff_scan(raw)

    def need(count: int) -> None:
        if len(flat) < count:
            if 0 <= stop < n:
                raise StuffError(stop)
            raise TruncatedError(max(n - 1, 0))

    need(14)  # SOF + 11 id bits + bit12 + IDE
    if flat[0] != "0":
        raise FormError(0, "SOF must be dominant")
    extended = flat[13] == "1"
    header = _EXT_HEADER_BITS if extended else _STD_HEADER_BITS
    need(header)
    if extended:
        id_value = int(flat[1:12] + flat[14:32], 2)
        rtr = flat[32]
    else:
        id_value = int(flat[1:12], 2)
        rtr = flat[12]
    dlc = int(flat[header - 4:header], 2)
    if dlc > 8:
        raise FormError(header - 1 + bisect_left(after, header - 1),
                        f"DLC {dlc} exceeds 8")

    data_bits = 8 * dlc if rtr == "0" else 0
    region_total = header + data_bits + CRC_WIDTH
    need(region_total)
    # A 5-run ending exactly at the last CRC bit is still followed by a stuff bit.
    if len(flat) == region_total and stop >= 0:
        need(region_total + 1)
    pos = region_total + bisect_left(after, region_total)  # first tail bit

    # Fixed-form tail: CRC delimiter, ACK slot (either level), ACK delimiter, EOF.
    if n - pos < TAIL_BITS:
        raise TruncatedError(max(n - 1, 0))
    if raw[pos] != "1":
        raise FormError(pos, "CRC delimiter must be recessive")
    if raw[pos + 2] != "1":
        raise FormError(pos + 2, "ACK delimiter must be recessive")
    eof_rest = raw[pos + 3:pos + TAIL_BITS].lstrip("1")
    if eof_rest:
        raise FormError(pos + TAIL_BITS - len(eof_rest), "EOF must be recessive")
    if pos + TAIL_BITS != n:
        raise FormError(pos + TAIL_BITS, "trailing bits after EOF")

    received_crc = int(flat[region_total - CRC_WIDTH:region_total], 2)
    body_len = region_total - CRC_WIDTH
    if _crc15_int(int(flat[:body_len], 2), body_len) != received_crc:
        raise CrcError(pos - 1, "CRC mismatch")

    frame_id = FrameId(id_value, extended=extended)
    if rtr == "1":
        return Frame(frame_id, _REMOTE, dlc, b"")
    if not dlc:
        return Frame(frame_id, _DATA, 0, b"")
    payload = int(flat[header:header + data_bits], 2).to_bytes(dlc, "big")
    return Frame(frame_id, _DATA, dlc, payload)


def bits_from_string(text: str) -> BitStream:
    out: BitStream = []
    for ch in text.strip():
        if ch == "0":
            out.append(0)
        elif ch == "1":
            out.append(1)
        else:
            raise ValueError(f"invalid bit character {ch!r}")
    return out


def frame_to_text(frame: Frame) -> str:
    """Candump-style rendering: ``123#ABCD`` (standard), 8-digit id for
    extended, ``123#R4`` for remote frames."""
    (value, extended), kind, dlc, payload = frame
    ident = f"{value:08X}" if extended else f"{value:03X}"
    if kind is _REMOTE:
        return f"{ident}#R{dlc}"
    return f"{ident}#{payload.hex().upper()}"


# ``int(..., 16)`` and ``bytes.fromhex`` also take signs, underscores,
# whitespace, a ``0x`` prefix or non-ASCII digits, so text is checked first.
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_DLC_DIGITS = frozenset("012345678")


def frame_from_text(text: str) -> Frame:
    """Inverse of :func:`frame_to_text`. Either case of hex digit is read; a
    remote frame's DLC is one digit 0-8, and an empty one means 0."""
    ident, sep, rest = text.strip().partition("#")
    if not sep:
        raise ValueError(f"missing '#' in frame {text!r}")
    if len(ident) not in (3, 8):
        raise ValueError(f"identifier must be 3 or 8 hex digits, got {ident!r}")
    if not _HEX_DIGITS.issuperset(ident):
        raise ValueError(f"invalid identifier hex {ident!r}")
    frame_id = FrameId(int(ident, 16), extended=len(ident) == 8)
    if rest.startswith("R"):
        dlc = rest[1:] or "0"
        if dlc not in _DLC_DIGITS:
            raise ValueError(f"remote DLC must be one digit 0-8, got {rest[1:]!r}")
        return Frame(frame_id, _REMOTE, int(dlc), b"")
    if len(rest) % 2:
        raise ValueError("data hex must have an even number of digits")
    if not _HEX_DIGITS.issuperset(rest):
        raise ValueError(f"invalid data hex {rest!r}")
    return Frame(frame_id, _DATA, len(rest) // 2, bytes.fromhex(rest))
