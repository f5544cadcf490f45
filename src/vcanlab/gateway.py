"""Serial-line <-> CAN gateway.

ASCII line protocol on one side (t/T/r/R + uppercase hex + CR, in the slcan
family), a bus node on the other. The pump is a cooperative step function:
feed bytes in, drain bytes out between simulation steps.
"""

from __future__ import annotations

import enum

from .frame import Frame, FrameId, MAX_EXTENDED_ID, MAX_STANDARD_ID
# Enum members bound once, as frame.py explains.
from .frame import _DATA, _REMOTE
from .node import BusOffError, Node

CR = b"\r"
BEL = b"\x07"
MAX_LINE_BYTES = 28  # including the CR terminator

# Checked before int(..., 16) and bytes.fromhex, which also take lower case,
# spaces and underscores.
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


def _hex_field(text: str, what: str) -> int:
    if not text or not _HEX.issuperset(text):
        raise SerialParseError(ParseReason.BAD_HEX, f"bad hex in {what}: {text!r}")
    return int(text, 16)


def parse_serial_line(data: bytes) -> Frame:
    """One ASCII line to a frame.

    Grammar: ``t<iii><d><data>`` / ``T<iiiiiiii><d><data>`` for data frames,
    ``r<iii><d>`` / ``R<iiiiiiii><d>`` for remote frames; uppercase hex,
    optionally CR-terminated.
    """
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
    id_value = _hex_field(rest[:id_digits], "identifier")
    limit = MAX_EXTENDED_ID if extended else MAX_STANDARD_ID
    if id_value > limit:
        raise SerialParseError(ParseReason.ID_OUT_OF_RANGE,
                               f"identifier 0x{id_value:X} out of range")
    dlc_ch = rest[id_digits]
    if dlc_ch not in _HEX:
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
        return Frame(frame_id, _REMOTE, dlc, b"")
    if len(body) != 2 * dlc:
        raise SerialParseError(ParseReason.LENGTH_MISMATCH,
                               f"expected {2 * dlc} data digits, got {len(body)}")
    if not _HEX.issuperset(body):
        for i in range(0, len(body), 2):  # name the first bad byte pair
            _hex_field(body[i:i + 2], "data")
    return Frame(frame_id, _DATA, dlc, bytes.fromhex(body))


def format_serial_line(frame: Frame) -> bytes:
    """Exact inverse of :func:`parse_serial_line`; uppercase hex, CR terminated."""
    if frame.id.extended:
        cmd = "T" if frame.kind is _DATA else "R"
        ident = f"{frame.id.value:08X}"
    else:
        cmd = "t" if frame.kind is _DATA else "r"
        ident = f"{frame.id.value:03X}"
    data = frame.payload.hex().upper() if frame.kind is _DATA else ""
    return f"{cmd}{ident}{frame.dlc:X}{data}".encode("ascii") + CR


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
        dropped. Each call scans ``incoming`` a whole line at a time."""
        out = bytearray()
        buf = self.rx_buffer
        pos, size = 0, len(incoming)
        while pos < size:
            cr = incoming.find(CR, pos)
            if self._discarding:
                if cr < 0:
                    break
                self._discarding = False
                pos = cr + 1
                continue
            end = size if cr < 0 else cr
            room = MAX_LINE_BYTES - len(buf)
            if end - pos >= room:
                buf.clear()
                self.parse_errors += 1
                self._discarding = True
                out += BEL
                pos += room
                continue
            buf += incoming[pos:end]
            if cr < 0:
                break
            pos = cr + 1
            line = bytes(buf)
            buf.clear()
            try:
                frame = parse_serial_line(line)
                self.node.submit(frame)
            except (SerialParseError, BusOffError):
                self.parse_errors += 1
                out += BEL
            else:
                self.frames_in += 1
                out += CR
        received = self.node.received
        while self._rx_cursor < len(received):
            out += format_serial_line(received[self._rx_cursor])
            self.frames_out += 1
            self._rx_cursor += 1
        return bytes(out)
