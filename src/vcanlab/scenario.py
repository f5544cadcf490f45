"""Scenario files and trace rendering.

A scenario is a small text format: header lines declaring the bus and its
nodes, then one event line per scheduled frame::

    bitrate=1000000
    distance_m=40
    node a
    node b filter=100/700
    0 a t1232ABCD

Frames use the serial-line grammar (without the CR).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from . import codec
from .bus import (Bus, BusConfig, EventKind, ScheduleEntry, TraceEvent,
                  validate_bus_config)
from .frame import Frame
from .gateway import SerialParseError, format_serial_line, parse_serial_line
from .node import AcceptanceFilter

DEFAULT_RUN_MARGIN_BITS = 50_000


class ScenarioSyntaxError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnknownNodeError(ScenarioSyntaxError):
    pass


@dataclass
class Scenario:
    bitrate_bps: int
    distance_m: float
    nodes: List[Tuple[str, Optional[AcceptanceFilter]]]
    schedule: List[ScheduleEntry]
    allow_slow: bool = False
    run_bits: Optional[int] = None

    def build_bus(self) -> Bus:
        config = BusConfig(self.bitrate_bps, self.distance_m,
                           allow_slow=self.allow_slow)
        bus = Bus(config)
        for name, filt in self.nodes:
            bus.attach_node(name, filt)
        return bus

    def horizon_bits(self, bus: Bus) -> int:
        if self.run_bits is not None:
            return self.run_bits
        last = max((bus.arrival_bit(e.time_us) for e in self.schedule), default=0)
        return last + DEFAULT_RUN_MARGIN_BITS


def _parse_filter(spec: str, line_no: int) -> AcceptanceFilter:
    code_s, sep, mask_s = spec.partition("/")
    if not sep:
        raise ScenarioSyntaxError(line_no, f"filter must be code/mask, got {spec!r}")
    # ``int(..., 16)`` also takes signs, underscores, ``0x`` and non-ASCII digits.
    if not (code_s and mask_s and codec._HEX_DIGITS.issuperset(code_s)
            and codec._HEX_DIGITS.issuperset(mask_s)):
        raise ScenarioSyntaxError(line_no, f"bad filter hex {spec!r}")
    code, mask = int(code_s, 16), int(mask_s, 16)
    # Eight hex digits mark an extended filter, as in the serial grammar.
    extended = 8 in (len(code_s), len(mask_s)) or max(code, mask) > 0x7FF
    try:
        return AcceptanceFilter(code, mask, extended=extended)
    except ValueError as exc:
        raise ScenarioSyntaxError(line_no, str(exc)) from None


def _ascii_int(text: str, line_no: int, what: str) -> int:
    """``text`` as a non-negative integer written in ASCII digits only;
    ``int`` also takes signs, underscores, spaces and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ScenarioSyntaxError(line_no, f"bad {what} {text!r}")
    return int(text)


# The text ``repr`` writes for a finite non-negative float: ASCII digits, at
# most one point and an exponent with an optional sign (``1e-05``, ``1e+16``).
# ``float`` also takes signs, underscores, spaces, ``inf``, ``nan`` and
# non-ASCII digits.
_DISTANCE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?")


def _distance(text: str, line_no: int) -> float:
    if not _DISTANCE.fullmatch(text):
        raise ScenarioSyntaxError(line_no, f"bad distance_m {text!r}")
    return float(text)


_TRUE = ("1", "true", "yes")
_FALSE = ("0", "false", "no")
_HEADER_KEYS = ("bitrate", "distance_m", "allow_slow", "run_bits")


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario, reporting the first error with its line number."""
    bitrate: Optional[int] = None
    distance: Optional[float] = None
    allow_slow = False
    run_bits: Optional[int] = None
    nodes: List[Tuple[str, Optional[AcceptanceFilter]]] = []
    names = set()
    seen_headers = set()
    schedule: List[ScheduleEntry] = []
    # Frames by their text: each distinct frame field is parsed once, and
    # equal texts share one (immutable) Frame.
    frames: Dict[str, Frame] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        # Event lines outnumber the rest, so their shape is tried first: a
        # time of ASCII digits is neither a header key nor ``node``.
        if len(parts) == 3 and parts[0].isdigit() and parts[0].isascii():
            time_us, name, field = parts
            if name not in names:
                raise UnknownNodeError(line_no, f"undeclared node {name!r}")
            frame = frames.get(field)
            if frame is None:
                if not field.isascii():
                    raise ScenarioSyntaxError(line_no, "bad frame: non-ASCII input")
                try:
                    frame = parse_serial_line(field.encode("ascii"))
                except SerialParseError as exc:
                    raise ScenarioSyntaxError(line_no, f"bad frame: {exc}") from None
                frames[field] = frame
            schedule.append(ScheduleEntry(int(time_us), name, frame))
            continue
        if not parts or parts[0].startswith("#"):
            continue
        head = parts[0]
        key, eq, value = head.partition("=")
        if eq and key in _HEADER_KEYS:
            if key in seen_headers:
                raise ScenarioSyntaxError(line_no, f"{key}= given twice")
            seen_headers.add(key)
            if key == "bitrate":
                bitrate = _ascii_int(value, line_no, "bitrate")
            elif key == "distance_m":
                distance = _distance(value, line_no)
            elif key == "allow_slow":
                if value in _TRUE:
                    allow_slow = True
                elif value in _FALSE:
                    allow_slow = False
                else:
                    raise ScenarioSyntaxError(line_no, f"bad allow_slow {value!r}")
            else:
                run_bits = _ascii_int(value, line_no, "run_bits")
        elif head == "node":
            if len(parts) < 2:
                raise ScenarioSyntaxError(line_no, "node line needs a name")
            name = parts[1]
            if name in names:
                raise ScenarioSyntaxError(line_no, f"duplicate node {name!r}")
            filt = None
            for extra in parts[2:]:
                if extra.startswith("filter="):
                    filt = _parse_filter(extra.split("=", 1)[1], line_no)
                else:
                    raise ScenarioSyntaxError(line_no, f"unknown node option {extra!r}")
            names.add(name)
            nodes.append((name, filt))
        elif len(parts) != 3:
            raise ScenarioSyntaxError(
                line_no, f"expected '<time_us> <node> <frame>', got {raw.strip()!r}")
        else:
            # An event line whose time is not ASCII digits.
            raise ScenarioSyntaxError(line_no, f"bad time {head!r}")

    if bitrate is None:
        raise ScenarioSyntaxError(0, "missing bitrate=")
    if distance is None:
        raise ScenarioSyntaxError(0, "missing distance_m=")
    validate_bus_config(bitrate, distance, allow_slow)
    schedule.sort(key=itemgetter(0))  # stable: equal times keep file order
    return Scenario(bitrate, distance, nodes, schedule, allow_slow, run_bits)


def render_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(render_scenario(s)) round-trips."""
    distance = scenario.distance_m
    if distance == int(distance):
        distance = int(distance)
    lines = [f"bitrate={scenario.bitrate_bps}", f"distance_m={distance!r}"]
    if scenario.allow_slow:
        lines.append("allow_slow=1")
    if scenario.run_bits is not None:
        lines.append(f"run_bits={scenario.run_bits}")
    for name, filt in scenario.nodes:
        if filt is None:
            lines.append(f"node {name}")
        elif filt.extended:
            lines.append(f"node {name} filter={filt.code:08X}/{filt.mask:08X}")
        else:
            lines.append(f"node {name} filter={filt.code:X}/{filt.mask:X}")
    for e in scenario.schedule:
        frame_txt = format_serial_line(e.frame)[:-1].decode("ascii")
        lines.append(f"{e.time_us} {e.node} {frame_txt}")
    return "\n".join(lines) + "\n"


# The kinds whose lines name their node, bound once as node.py explains;
# tested by identity, since hashing a member runs ``Enum.__hash__`` in Python.
_BUS_OFF_ENTERED = EventKind.BUS_OFF_ENTERED
_BUS_OFF_RECOVERED = EventKind.BUS_OFF_RECOVERED


def format_trace_event(event: TraceEvent) -> str:
    """One bit-exact trace line: ``(<seconds>) vcan0 <ID>#<DATA> <EVENT>``."""
    _, time_s, node, kind, frame = event
    frame_txt = codec.frame_to_text(frame) if frame is not None else "-"
    # ``_value_`` is a plain attribute; ``.value`` is a Python-level property.
    line = f"({time_s:.6f}) vcan0 {frame_txt} {kind._value_}"
    if (kind is _BUS_OFF_ENTERED or kind is _BUS_OFF_RECOVERED) and node is not None:
        line += f" node={node}"
    return line
