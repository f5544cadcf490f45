"""CAN frame identity, payload, and priority ordering.

Frames are plain immutable values (named tuples that validate on every path
that builds one); the wire representation lives in :mod:`vcanlab.codec`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

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

    # Members compare by identity; Enum's own __hash__ is a Python function,
    # called for every hash of a Frame.
    __hash__ = object.__hash__


# Members read on every frame, bound once: on Python 3.11 a member read such
# as ``FrameKind.DATA`` costs about 155 ns against 11 ns for a global.
_DATA = FrameKind.DATA
_REMOTE = FrameKind.REMOTE


class ValidatedTuple:
    """Mixin for a named tuple whose ``__new__`` validates its fields.

    ``_make``, and with it ``_replace``, and unpickling call the constructor,
    so every path to an instance runs its checks. List it before the
    ``NamedTuple`` base, whose own ``_make`` it overrides.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


# Frame and FrameId build themselves with the tuple constructor once their
# checks pass; nothing else may call it on them.
_new = tuple.__new__


class _FrameIdFields(NamedTuple):
    value: int
    extended: bool = False


class FrameId(ValidatedTuple, _FrameIdFields):
    """Message identifier; doubles as arbitration priority (lower wins)."""

    __slots__ = ()

    def __new__(cls, value: int, extended: bool = False) -> "FrameId":
        if type(value) is not int:
            raise TypeError(f"id must be an integer, got {value!r}")
        if type(extended) is not bool:
            raise TypeError(f"extended must be a bool, got {extended!r}")
        limit = MAX_EXTENDED_ID if extended else MAX_STANDARD_ID
        if not 0 <= value <= limit:
            sign = "-" if value < 0 else ""
            raise IdOutOfRangeError(
                f"id {sign}0x{abs(value):X} outside "
                f"{'29-bit extended' if extended else '11-bit standard'} range"
            )
        return _new(cls, (value, extended))

    @classmethod
    def standard(cls, value: int) -> "FrameId":
        return cls(value, extended=False)

    @classmethod
    def extended_id(cls, value: int) -> "FrameId":
        return cls(value, extended=True)


def _payload_bytes(payload) -> bytes:
    """``payload`` as ``bytes``. An ``int``, which ``bytes`` would take as a
    count of zero bytes, raises ``TypeError``."""
    if isinstance(payload, int):
        raise TypeError(f"payload must be bytes, got {payload!r}")
    return bytes(payload)


class _FrameFields(NamedTuple):
    id: FrameId
    kind: FrameKind
    dlc: int
    payload: bytes = b""


class Frame(ValidatedTuple, _FrameFields):
    """A data or remote frame. Data frames carry dlc == len(payload) bytes;
    remote frames carry no payload but request dlc bytes.

    Each field is checked by type as well as by value, so equal frames are
    the same frame: a dlc of ``4.0`` or ``True`` equals ``4`` or ``1``, and
    a plain ``(291, False)`` equals ``FrameId(291)``, yet each would render
    differently.
    """

    __slots__ = ()

    def __new__(cls, id: FrameId, kind: FrameKind, dlc: int,
                payload: bytes = b"") -> "Frame":
        if type(payload) is not bytes:  # frames are hashable values
            payload = _payload_bytes(payload)
        if type(id) is not FrameId:
            raise TypeError(f"frame id must be a FrameId, got {id!r}")
        if type(dlc) is not int:
            raise TypeError(f"dlc must be an integer, got {dlc!r}")
        if not 0 <= dlc <= MAX_PAYLOAD:
            raise PayloadTooLongError(f"dlc {dlc} out of range 0..8")
        if kind is _DATA:
            if len(payload) != dlc:
                raise PayloadTooLongError(
                    f"data frame payload length {len(payload)} != dlc {dlc}"
                )
        elif kind is _REMOTE:
            if payload:
                raise PayloadTooLongError("remote frame must carry no payload")
        else:
            raise TypeError(f"frame kind must be a FrameKind, got {kind!r}")
        return _new(cls, (id, kind, dlc, payload))


def make_frame(frame_id: FrameId, kind: FrameKind, payload_or_dlc) -> Frame:
    """Validated constructor.

    For ``FrameKind.DATA`` pass the payload: bytes, or an iterable of byte
    values; an ``int``, which ``bytes`` would take as a count of zero bytes,
    raises ``TypeError``. For ``FrameKind.REMOTE`` pass the requested DLC,
    an ``int``; it is not converted, so any other type raises ``TypeError``.
    """
    if kind is _DATA:
        payload = payload_or_dlc
        if type(payload) is not bytes:
            payload = _payload_bytes(payload)
        if len(payload) > MAX_PAYLOAD:
            raise PayloadTooLongError(f"payload of {len(payload)} bytes exceeds 8")
        return Frame(frame_id, kind, len(payload), payload)
    return Frame(frame_id, kind, payload_or_dlc, b"")


def data_frame(id_value: int, payload: bytes, extended: bool = False) -> Frame:
    return make_frame(FrameId(id_value, extended), _DATA, payload)


def remote_frame(id_value: int, dlc: int, extended: bool = False) -> Frame:
    return make_frame(FrameId(id_value, extended), _REMOTE, dlc)


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
    rtr = 0 if frame.kind is _DATA else 1
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
