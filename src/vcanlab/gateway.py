"""Serial-line <-> CAN gateway.

ASCII line protocol on one side (t/T/r/R + uppercase hex + CR, in the slcan
family), a bus node on the other. The pump is a cooperative step function:
feed bytes in, drain bytes out between simulation steps.
"""

from __future__ import annotations

import enum
import re
from binascii import a2b_hex, b2a_hex

from .frame import Frame, FrameId, MAX_EXTENDED_ID, MAX_STANDARD_ID
# Enum members bound once, as frame.py explains.
from .frame import _DATA, _REMOTE
from .node import BusOffError, Node

CR = b"\r"
BEL = b"\x07"
MAX_LINE_BYTES = 28  # including the CR terminator

# Checked before int(..., 16), which also takes lower case, spaces and
# underscores, when a refused line's fault is named.
_HEX = frozenset("0123456789ABCDEF")


class ParseReason(enum.Enum):
    BAD_COMMAND = "BadCommand"
    BAD_HEX = "BadHex"
    BAD_DLC = "BadDlc"
    ID_OUT_OF_RANGE = "IdOutOfRange"
    LENGTH_MISMATCH = "LengthMismatch"
    OVERFLOW = "Overflow"


class SerialParseError(ValueError):
    def __init__(self, reason: ParseReason, message: str = ""):
        self.reason = reason
        super().__init__(message or reason.value)


# The one acceptance rule. A well-formed line: a command and identifier in
# range (standard ids to 0x7FF, extended ones to 0x1FFFFFFF), a DLC digit of
# 0-8, uppercase hex data and at most one CR; at most 27 bytes, so no line
# it takes is over MAX_LINE_BYTES. The data length is checked after it.
_LINE = re.compile(rb"([tr][0-7][0-9A-F]{2}|[TR][01][0-9A-F]{7})([0-8])([0-9A-F]{0,16})\r?")


def parse_serial_line(data: bytes) -> Frame:
    """One ASCII line to a frame.

    Grammar: ``t<iii><d><data>`` / ``T<iiiiiiii><d><data>`` for data frames,
    ``r<iii><d>`` / ``R<iiiiiiii><d>`` for remote frames; uppercase hex,
    optionally CR-terminated. A line is taken with one match of ``_LINE``;
    the fault of a refused line is named by :func:`_refusal`.
    """
    match = _LINE.fullmatch(data)
    if match is not None:
        head, dlc, body = match.groups()
        frame_id = FrameId(int(head[1:], 16), extended=len(head) == 9)
        dlc = int(dlc)
        if head[0] in b"tT":
            if len(body) == 2 * dlc:
                return Frame(frame_id, _DATA, dlc, a2b_hex(body))
        elif not body:
            return Frame(frame_id, _REMOTE, dlc, b"")
    raise _refusal(data)


def _refusal(data: bytes) -> SerialParseError:
    """The error for a line that :func:`parse_serial_line` refuses: its
    first fault, field by field from the command on."""
    if len(data) > MAX_LINE_BYTES:
        return SerialParseError(ParseReason.OVERFLOW, "line too long")
    if data.endswith(CR):
        data = data[:-1]
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return SerialParseError(ParseReason.BAD_COMMAND, "non-ASCII input")
    if not text:
        return SerialParseError(ParseReason.BAD_COMMAND, "empty line")
    cmd, rest = text[0], text[1:]
    if cmd not in "tTrR":
        return SerialParseError(ParseReason.BAD_COMMAND, f"unknown command {cmd!r}")
    extended = cmd in "TR"
    id_digits = 8 if extended else 3
    if len(rest) < id_digits + 1:
        return SerialParseError(ParseReason.LENGTH_MISMATCH, "line too short")
    ident = rest[:id_digits]
    if not _HEX.issuperset(ident):
        return _bad_hex(ident, "identifier")
    id_value = int(ident, 16)
    if id_value > (MAX_EXTENDED_ID if extended else MAX_STANDARD_ID):
        return SerialParseError(ParseReason.ID_OUT_OF_RANGE,
                                f"identifier 0x{id_value:X} out of range")
    dlc_ch = rest[id_digits]
    if dlc_ch not in _HEX:
        return SerialParseError(ParseReason.BAD_HEX, f"bad dlc digit {dlc_ch!r}")
    dlc = int(dlc_ch, 16)
    if dlc > 8:
        return SerialParseError(ParseReason.BAD_DLC, f"dlc {dlc} exceeds 8")
    body = rest[id_digits + 1:]
    if cmd in "rR":
        return SerialParseError(ParseReason.LENGTH_MISMATCH,
                                "remote frame carries no data")
    if len(body) != 2 * dlc:
        return SerialParseError(ParseReason.LENGTH_MISMATCH,
                                f"expected {2 * dlc} data digits, got {len(body)}")
    # Only bad hex in the data is left: name the first bad byte pair.
    pair = next(body[i:i + 2] for i in range(0, len(body), 2)
                if not _HEX.issuperset(body[i:i + 2]))
    return _bad_hex(pair, "data")


def _bad_hex(text: str, what: str) -> SerialParseError:
    return SerialParseError(ParseReason.BAD_HEX, f"bad hex in {what}: {text!r}")


def format_serial_line(frame: Frame) -> bytes:
    """Exact inverse of :func:`parse_serial_line`; uppercase hex, CR terminated."""
    (value, extended), kind, dlc, payload = frame
    if kind is _DATA:
        return (b"T%08X%X%b\r" if extended else b"t%03X%X%b\r") % (
            value, dlc, b2a_hex(payload).upper())
    return (b"R%08X%X\r" if extended else b"r%03X%X\r") % (value, dlc)


class GatewaySession:
    """One serial session bound to a bus node."""

    def __init__(self, node: Node):
        self.node = node
        self.rx_buffer = bytearray()
        self.frames_in = 0
        self.frames_out = 0
        self.parse_errors = 0
        self._rx_cursor = 0
        self._discarding = False  # overlong line: drop bytes until the next CR

    def pump(self, incoming: bytes = b"") -> bytes:
        """Feed serial bytes, submit complete lines to the node, and emit
        every frame the node has received since the last call.

        Responds CR per accepted line, BEL per rejected one; the session never
        aborts. A line that reaches ``MAX_LINE_BYTES`` bytes without a CR is
        rejected at that byte, and the rest of it, through the next CR, is
        dropped. Each call splits ``incoming`` at its CRs: a line that starts
        with nothing buffered is parsed straight from the split, and only a
        line cut across calls goes through ``rx_buffer``."""
        out = bytearray()
        buf = self.rx_buffer
        lines = incoming.split(CR)
        tail = lines.pop()  # the bytes after the last CR: a line in progress
        if lines:
            if self._discarding:
                self._discarding = False
                del lines[0]
            elif buf:
                lines[0] = bytes(buf) + lines[0]
                buf.clear()
        submit = self.node.submit
        # A whole line of MAX_LINE_BYTES bytes or more is too long for the
        # grammar, so the parser refuses it: one BEL, as such a line gets at
        # that byte when its CR comes in a later call.
        for line in lines:
            try:
                submit(parse_serial_line(line))
            except (SerialParseError, BusOffError):
                self.parse_errors += 1
                out += BEL
            else:
                self.frames_in += 1
                out += CR
        if not self._discarding:
            if len(buf) + len(tail) >= MAX_LINE_BYTES:
                buf.clear()
                self.parse_errors += 1
                self._discarding = True
                out += BEL
            else:
                buf += tail
        received = self.node.received
        if self._rx_cursor < len(received):
            out += b"".join(map(format_serial_line, received[self._rx_cursor:]))
            self.frames_out += len(received) - self._rx_cursor
            self._rx_cursor = len(received)
        return bytes(out)
