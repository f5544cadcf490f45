"""Bit-exact wire representation of CAN 2.0 frames.

Serialization, bit stuffing, the 15-bit CRC and decoding with a full error
taxonomy. Bitstreams are plain lists of ints where dominant = 0 and
recessive = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .frame import Frame, FrameId, FrameKind

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


def _crc15_bitwise(crc: int, bits: Sequence[int]) -> int:
    for bit in bits:
        feedback = ((crc >> 14) & 1) ^ bit
        crc = (crc << 1) & 0x7FFF
        if feedback:
            crc ^= CRC_POLY
    return crc


def _build_crc_table() -> List[int]:
    return [_crc15_bitwise(0, [(byte >> i) & 1 for i in range(7, -1, -1)])
            for byte in range(256)]


_CRC_TABLE = _build_crc_table()


def crc15(bits: Sequence[int]) -> int:
    """15-bit shift-register CRC, zero-initialized, MSB first."""
    head = len(bits) % 8
    crc = _crc15_bitwise(0, bits[:head])
    for i in range(head, len(bits), 8):
        byte = 0
        for b in bits[i:i + 8]:
            byte = (byte << 1) | b
        crc = ((crc << 8) ^ _CRC_TABLE[((crc >> 7) ^ byte) & 0xFF]) & 0x7FFF
    return crc


def stuff(bits: Sequence[int]) -> BitStream:
    """Insert a complement bit after every run of 5 equal levels."""
    out: BitStream = []
    run_level = -1
    run_len = 0
    for b in bits:
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
    return out


def stuff_with_positions(bits: Sequence[int]) -> Tuple[BitStream, List[int]]:
    """Like :func:`stuff`, also returning for each input bit its index in the
    stuffed output."""
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


def destuff(bits: Sequence[int]) -> BitStream:
    """Drop each bit following a run of 5 equal levels.

    Raises :class:`StuffError` at the first run of 6 equal levels.
    """
    out: BitStream = []
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


def frame_body_bits(frame: Frame) -> BitStream:
    """Unstuffed SOF-through-data region (the CRC input)."""
    rtr = 0 if frame.kind is FrameKind.DATA else 1
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
    if frame.kind is FrameKind.DATA:
        for byte in frame.payload:
            bits += [(byte >> i) & 1 for i in range(7, -1, -1)]
    return bits


def encode_frame(frame: Frame) -> EncodedFrame:
    """Serialize to the full stuffed bitstream.

    Stuffing covers SOF through the last CRC bit; the CRC delimiter, ACK slot
    (recessive as transmitted), ACK delimiter and 7-bit EOF follow unstuffed.
    """
    body = frame_body_bits(frame)
    crc = crc15(body)
    region = body + [(crc >> i) & 1 for i in range(14, -1, -1)]
    stuffed = stuff(region)
    stuff_count = len(stuffed) - len(region)
    stream = stuffed + [RECESSIVE] * TAIL_BITS
    return EncodedFrame(stream, crc, stuff_count)


def frame_bit_length(frame: Frame, stuffed: bool = False) -> int:
    """Length of the frame on the wire, with or without stuff bits."""
    header = _EXT_HEADER_BITS if frame.id.extended else _STD_HEADER_BITS
    data = 8 * frame.dlc if frame.kind is FrameKind.DATA else 0
    if not stuffed:
        return header + data + CRC_WIDTH + TAIL_BITS
    return len(encode_frame(frame).stuffed_bits)


def decode_frame(bits: Sequence[int]) -> Frame:
    """Exact inverse of :func:`encode_frame`.

    Raises the first failure hit while scanning serially: StuffError,
    TruncatedError, FormError or CrcError.
    """
    n = len(bits)
    flat: BitStream = []
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

    if crc15(flat[:region_total - CRC_WIDTH]) != received_crc:
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


def bits_to_string(bits: Sequence[int]) -> str:
    return "".join("1" if b else "0" for b in bits)


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
    width = 8 if frame.id.extended else 3
    ident = f"{frame.id.value:0{width}X}"
    if frame.kind is FrameKind.REMOTE:
        return f"{ident}#R{frame.dlc}"
    return f"{ident}#{frame.payload.hex().upper()}"


def frame_from_text(text: str) -> Frame:
    """Inverse of :func:`frame_to_text`."""
    ident, sep, rest = text.strip().partition("#")
    if not sep:
        raise ValueError(f"missing '#' in frame {text!r}")
    if len(ident) not in (3, 8):
        raise ValueError(f"identifier must be 3 or 8 hex digits, got {ident!r}")
    extended = len(ident) == 8
    try:
        id_value = int(ident, 16)
    except ValueError:
        raise ValueError(f"invalid identifier hex {ident!r}") from None
    frame_id = FrameId(id_value, extended=extended)
    if rest.startswith("R"):
        return Frame(frame_id, FrameKind.REMOTE, int(rest[1:] or "0"), b"")
    if len(rest) % 2:
        raise ValueError("data hex must have an even number of digits")
    return Frame(frame_id, FrameKind.DATA, len(rest) // 2, bytes.fromhex(rest))
