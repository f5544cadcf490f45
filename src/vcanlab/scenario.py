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

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import codec
from .bus import (Bus, BusConfig, EventKind, ScheduleEntry, TraceEvent,
                  validate_bus_config)
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
    try:
        code, mask = int(code_s, 16), int(mask_s, 16)
    except ValueError:
        raise ScenarioSyntaxError(line_no, f"bad filter hex {spec!r}") from None
    extended = max(code, mask) > 0x7FF
    return AcceptanceFilter(code, mask, extended=extended)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario, reporting the first error with its line number."""
    bitrate: Optional[int] = None
    distance: Optional[float] = None
    allow_slow = False
    run_bits: Optional[int] = None
    nodes: List[Tuple[str, Optional[AcceptanceFilter]]] = []
    names = set()
    schedule: List[ScheduleEntry] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        head = parts[0]
        if head.startswith("bitrate="):
            try:
                bitrate = int(head.split("=", 1)[1])
            except ValueError:
                raise ScenarioSyntaxError(line_no, "bad bitrate") from None
        elif head.startswith("distance_m="):
            try:
                distance = float(head.split("=", 1)[1])
            except ValueError:
                raise ScenarioSyntaxError(line_no, "bad distance_m") from None
        elif head.startswith("allow_slow="):
            allow_slow = head.split("=", 1)[1] in ("1", "true", "yes")
        elif head.startswith("run_bits="):
            try:
                run_bits = int(head.split("=", 1)[1])
            except ValueError:
                raise ScenarioSyntaxError(line_no, "bad run_bits") from None
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
        else:
            # event line: <time_us> <node> <frame>
            if len(parts) != 3:
                raise ScenarioSyntaxError(
                    line_no, f"expected '<time_us> <node> <frame>', got {line!r}")
            try:
                time_us = int(parts[0])
            except ValueError:
                raise ScenarioSyntaxError(line_no, f"bad time {parts[0]!r}") from None
            if time_us < 0:
                raise ScenarioSyntaxError(line_no, "time must be non-negative")
            if parts[1] not in names:
                raise UnknownNodeError(line_no, f"undeclared node {parts[1]!r}")
            try:
                frame = parse_serial_line(parts[2].encode("ascii"))
            except SerialParseError as exc:
                raise ScenarioSyntaxError(line_no, f"bad frame: {exc}") from None
            schedule.append(ScheduleEntry(time_us, parts[1], frame))

    if bitrate is None:
        raise ScenarioSyntaxError(0, "missing bitrate=")
    if distance is None:
        raise ScenarioSyntaxError(0, "missing distance_m=")
    validate_bus_config(bitrate, distance, allow_slow)
    schedule.sort(key=lambda e: e.time_us)
    return Scenario(bitrate, distance, nodes, schedule, allow_slow, run_bits)


def render_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(render_scenario(s)) round-trips."""
    lines = [f"bitrate={scenario.bitrate_bps}",
             f"distance_m={scenario.distance_m:g}"]
    if scenario.allow_slow:
        lines.append("allow_slow=1")
    if scenario.run_bits is not None:
        lines.append(f"run_bits={scenario.run_bits}")
    for name, filt in scenario.nodes:
        if filt is None:
            lines.append(f"node {name}")
        else:
            lines.append(f"node {name} filter={filt.code:X}/{filt.mask:X}")
    for e in scenario.schedule:
        frame_txt = format_serial_line(e.frame)[:-1].decode("ascii")
        lines.append(f"{e.time_us} {e.node} {frame_txt}")
    return "\n".join(lines) + "\n"


_NODE_SUFFIX_KINDS = {EventKind.BUS_OFF_ENTERED, EventKind.BUS_OFF_RECOVERED}


def format_trace_event(event: TraceEvent) -> str:
    """One bit-exact trace line: ``(<seconds>) vcan0 <ID>#<DATA> <EVENT>``."""
    frame_txt = codec.frame_to_text(event.frame) if event.frame is not None else "-"
    line = f"({event.time_s:.6f}) vcan0 {frame_txt} {event.kind.value}"
    if event.kind in _NODE_SUFFIX_KINDS and event.node is not None:
        line += f" node={event.node}"
    return line
