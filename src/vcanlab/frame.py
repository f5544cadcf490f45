"""CAN frame identity, payload, and priority ordering.

Frames are plain immutable values; the wire representation lives in
:mod:`vcanlab.codec`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

MAX_STANDARD_ID = (1 << 11) - 1
MAX_EXTENDED_ID = (1 << 29) - 1
MAX_PAYLOAD = 8


class IdOutOfRangeError(ValueError):
    """Identifier does not fit the 11-bit (standard) or 29-bit (extended) range."""


class PayloadTooLongError(ValueError):
    """Payload (or requested DLC) exceeds 8 bytes."""


class FrameKind(enum.Enum):
    DATA = "data"
    REMOTE = "remote"


@dataclass(frozen=True)
class FrameId:
    """Message identifier; doubles as arbitration priority (lower wins)."""

    value: int
    extended: bool = False

    def __post_init__(self) -> None:
        limit = MAX_EXTENDED_ID if self.extended else MAX_STANDARD_ID
        if not 0 <= self.value <= limit:
            raise IdOutOfRangeError(
                f"id 0x{self.value:X} outside "
                f"{'29-bit extended' if self.extended else '11-bit standard'} range"
            )

    @classmethod
    def standard(cls, value: int) -> "FrameId":
        return cls(value, extended=False)

    @classmethod
    def extended_id(cls, value: int) -> "FrameId":
        return cls(value, extended=True)


@dataclass(frozen=True)
class Frame:
    """A data or remote frame. Data frames carry dlc == len(payload) bytes;
    remote frames carry no payload but request dlc bytes."""

    id: FrameId
    kind: FrameKind
    dlc: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if type(self.payload) is not bytes:  # frames are hashable values
            object.__setattr__(self, "payload", bytes(self.payload))
        if not 0 <= self.dlc <= MAX_PAYLOAD:
            raise PayloadTooLongError(f"dlc {self.dlc} out of range 0..8")
        if self.kind is FrameKind.DATA and len(self.payload) != self.dlc:
            raise PayloadTooLongError(
                f"data frame payload length {len(self.payload)} != dlc {self.dlc}"
            )
        if self.kind is FrameKind.REMOTE and self.payload:
            raise PayloadTooLongError("remote frame must carry no payload")


def make_frame(frame_id: FrameId, kind: FrameKind, payload_or_dlc) -> Frame:
    """Validated constructor.

    For ``FrameKind.DATA`` pass the payload bytes; for ``FrameKind.REMOTE``
    pass the requested DLC.
    """
    if kind is FrameKind.DATA:
        payload = bytes(payload_or_dlc)
        if len(payload) > MAX_PAYLOAD:
            raise PayloadTooLongError(f"payload of {len(payload)} bytes exceeds 8")
        return Frame(frame_id, kind, len(payload), payload)
    dlc = int(payload_or_dlc)
    return Frame(frame_id, kind, dlc, b"")


def data_frame(id_value: int, payload: bytes, extended: bool = False) -> Frame:
    return make_frame(FrameId(id_value, extended), FrameKind.DATA, payload)


def remote_frame(id_value: int, dlc: int, extended: bool = False) -> Frame:
    return make_frame(FrameId(id_value, extended), FrameKind.REMOTE, dlc)


class Ordering(enum.Enum):
    A_WINS = "a_wins"
    B_WINS = "b_wins"
    TIE = "tie"


def arbitration_key(frame: Frame) -> int:
    """Bit pattern a transmitter drives during arbitration, after SOF, as an
    integer: MSB first, dominant = 0, left-aligned in 32 bits and padded
    with zeros, so a lower key wins.

    Standard: ID[10..0], RTR, then the dominant IDE bit (which is what beats
    an extended frame whose top 11 identifier bits tie).
    Extended: ID[28..18], SRR(1), IDE(1), ID[17..0], RTR.
    """
    rtr = 0 if frame.kind is FrameKind.DATA else 1
    v = frame.id.value
    if not frame.id.extended:
        return v << 21 | rtr << 20
    return (v >> 18) << 21 | 3 << 19 | (v & 0x3FFFF) << 1 | rtr


def priority_order(a: Frame, b: Frame) -> Ordering:
    """Outcome of bitwise arbitration between two frames starting in the same
    bit: dominant(0) beats recessive(1), most-significant bit first."""
    ka, kb = arbitration_key(a), arbitration_key(b)
    if ka == kb:
        return Ordering.TIE
    return Ordering.A_WINS if ka < kb else Ordering.B_WINS
