"""Per-layer spans for the traced run (``--trace 1``).

Wraps public functions of each vcanlab module in every place a caller looks
them up: ``bus`` imports ``update_counters`` by name, ``cli`` imports
``parse_scenario`` and ``format_trace_event``, ``scenario`` imports
``parse_serial_line``, so each module attribute bound to the original is
replaced, and methods are replaced on their class. A function that no
longer exists is skipped and the metrics built on it are reported absent.

A span's self time is its duration less that of the wrapped calls made
inside it. Spans count only while ``Tracer.on`` is set, which the harness
does around each round's set-up and timed phase. The end-to-end run never
imports this module.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List

# span name -> (module, qualified name)
TARGETS = {
    "key": ("vcanlab.frame", "arbitration_key"),
    "body": ("vcanlab.codec", "frame_body_bits"),
    "crc": ("vcanlab.codec", "crc15"),
    "stuff": ("vcanlab.codec", "stuff_with_positions"),
    "counter": ("vcanlab.node", "update_counters"),
    "submit": ("vcanlab.node", "Node.submit"),
    "bus_run": ("vcanlab.bus", "Bus.run"),
    "reading": ("vcanlab.sensornet", "parse_reading_frame"),
    "evaluate": ("vcanlab.sensornet", "monitor_evaluate"),
    "pump": ("vcanlab.gateway", "GatewaySession.pump"),
    "serial_parse": ("vcanlab.gateway", "parse_serial_line"),
    "serial_format": ("vcanlab.gateway", "format_serial_line"),
    "scenario_parse": ("vcanlab.scenario", "parse_scenario"),
    "trace_format": ("vcanlab.scenario", "format_trace_event"),
    "cli": ("vcanlab.cli", "main"),
}

# metric -> (unit, better, spans it needs, value from the stats)
METRICS = {
    "frame.key_s": ("s", "lower", ("key",), lambda s: s["key"].total),
    "codec.layout_s": ("s", "lower", ("body", "crc", "stuff"),
                       lambda s: s["body"].total + s["crc"].total + s["stuff"].total),
    "codec.layouts": ("count", "lower", ("body",), lambda s: s["body"].calls),
    "codec.distinct_share": ("ratio", "higher", ("body",),
                             lambda s: s["body"].distinct / max(s["body"].calls, 1)),
    "node.counter_s": ("s", "lower", ("counter",), lambda s: s["counter"].total),
    "node.counter_updates": ("count", "lower", ("counter",),
                             lambda s: s["counter"].calls),
    "node.counter_noop_share": ("ratio", "lower", ("counter",),
                                lambda s: s["counter"].noops / max(s["counter"].calls, 1)),
    "node.submit_s": ("s", "lower", ("submit",), lambda s: s["submit"].total),
    "bus.self_s": ("s", "lower", ("bus_run",), lambda s: s["bus_run"].self_time),
    "bus.run_calls": ("count", "lower", ("bus_run",), lambda s: s["bus_run"].calls),
    "bus.sim_bits": ("bits", "lower", ("bus_run",), lambda s: s["bus_run"].bits),
    "bus.events": ("count", "lower", ("bus_run",), lambda s: s["bus_run"].events),
    "sensornet.monitor_s": ("s", "lower", ("reading", "evaluate"),
                            lambda s: s["reading"].total + s["evaluate"].total),
    "sensornet.readings": ("count", "higher", ("reading",), lambda s: s["reading"].calls),
    "gateway.pump_self_s": ("s", "lower", ("pump",), lambda s: s["pump"].self_time),
    "gateway.parse_s": ("s", "lower", ("serial_parse",), lambda s: s["serial_parse"].total),
    "gateway.format_s": ("s", "lower", ("serial_format",),
                         lambda s: s["serial_format"].total),
    "gateway.lines": ("count", "higher", ("serial_parse", "serial_format"),
                      lambda s: s["serial_parse"].calls + s["serial_format"].calls),
    "scenario.parse_s": ("s", "lower", ("scenario_parse",),
                         lambda s: s["scenario_parse"].total),
    "scenario.format_s": ("s", "lower", ("trace_format",), lambda s: s["trace_format"].total),
    "scenario.trace_lines": ("count", "higher", ("trace_format",),
                             lambda s: s["trace_format"].calls),
    "cli.self_s": ("s", "lower", ("cli",), lambda s: s["cli"].self_time),
}


class Stat:
    """Totals for one span name."""

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.noops = 0      # update_counters calls that returned an equal state
        self.distinct = 0   # frame_body_bits calls for a frame new in the round
        self.bits = 0       # simulated bit times requested from Bus.run
        self.events = 0     # trace events returned by Bus.run


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.stats: Dict[str, Stat] = {name: Stat() for name in TARGETS}
        self.installed: set = set()
        self._stack: List[float] = []   # child time of each open span
        self._seen_frames: set = set()

    def start_round(self) -> None:
        """Frames laid out in earlier rounds count as new again."""
        self._seen_frames.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        before_hook = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            before = before_hook(args) if before_hook is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                h0 = clock()
                after(stat, args, kwargs, result, before)
                if stack:   # bookkeeping is not the caller's own work
                    stack[-1] += clock() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counts recorded next to the spans ------------------------------

    def _after_counter(self, stat, args, kwargs, result, before):
        state = args[0] if args else kwargs.get("state")
        if result == state:
            stat.noops += 1

    def _after_body(self, stat, args, kwargs, result, before):
        frame = args[0] if args else kwargs.get("frame")
        if frame not in self._seen_frames:
            self._seen_frames.add(frame)
            stat.distinct += 1

    @staticmethod
    def _before_bus_run(args):
        return getattr(args[0], "_t", None)   # the bus's clock, if it still has one

    def _after_bus_run(self, stat, args, kwargs, result, before):
        until = args[2] if len(args) > 2 else kwargs.get("until_bits", 0)
        if before is not None:
            stat.bits += max(until - before, 0)
        stat.events += len(result)

    # -- results ---------------------------------------------------------

    def metrics(self, rounds: int) -> Dict[str, dict]:
        """Every per-layer metric; times and counts are per round. A metric
        whose function is gone has the value None."""
        out = {}
        for metric, (unit, _, needs, value) in METRICS.items():
            if all(n in self.installed for n in needs):
                v = value(self.stats)
                out[metric] = {"value": v if unit == "ratio" else v / rounds,
                               "unit": unit}
            else:
                out[metric] = {"value": None, "unit": unit}
        return out


def _resolve(module: str, qualname: str):
    mod = sys.modules.get(module)
    owner = mod
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None, None
    return owner, getattr(owner, parts[-1], None)


def install() -> Tracer:
    """Import vcanlab, wrap every target that exists, and return the tracer."""
    import vcanlab.cli  # noqa: F401 - loads every module the workloads use

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "vcanlab" or n.startswith("vcanlab."))]
    for name, (module, qualname) in TARGETS.items():
        owner, fn = _resolve(module, qualname)
        if fn is None or not callable(fn):
            continue
        wrapped = tracer.wrap(name, fn)
        if "." in qualname:
            setattr(owner, qualname.rsplit(".", 1)[1], wrapped)
        else:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
        tracer.installed.add(name)
    return tracer
