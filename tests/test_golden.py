"""Golden traces: each ``golden/<name>.scn`` must still give ``<name>.out``.

A ``.scn`` file is a scenario file plus test directives on ``#!`` lines,
which ``parse_scenario`` skips as comments:

    #! fault <bit> <level>   inject a fault
    #! bus-off <node>        force the node bus-off before the run
    #! split <bit>           run to <bit> first, then on to run_bits

The ``.out`` file holds one line per trace event (bit time, node and the
``format_trace_event`` line), then every status line and each node's count of
received frames. After a deliberate behaviour change, rewrite the ``.out``
files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import pathlib
import sys

import pytest

from vcanlab.node import NodeMode, NodeState
from vcanlab.scenario import format_trace_event, parse_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.scn"))


def render(name: str) -> str:
    text = (GOLDEN / f"{name}.scn").read_text()
    scenario = parse_scenario(text)
    bus = scenario.build_bus()
    horizon = scenario.horizon_bits(bus)
    stops = []
    for line in text.splitlines():
        if not line.startswith("#! "):
            continue
        word, *args = line[3:].split()
        if word == "fault":
            bus.inject_fault(int(args[0]), int(args[1]))
        elif word == "bus-off":
            bus.nodes[args[0]].state = NodeState(tec=256, mode=NodeMode.BUS_OFF)
        elif word == "split":
            stops.append(int(args[0]))
        else:
            raise ValueError(f"{name}: unknown directive {line!r}")
    trace, schedule = [], scenario.schedule
    for stop in stops + [horizon]:
        trace += bus.run(schedule, stop)
        schedule = []
    lines = [f"{e.time_bits} {e.node or '-'} {format_trace_event(e)}" for e in trace]
    lines += bus.status_lines()
    lines += [f"received {n}={len(node.received)}" for n, node in bus.nodes.items()]
    return "\n".join(lines) + "\n"


def test_corpus_present():
    assert "criterion10" in CASES and len(CASES) >= 20


@pytest.mark.parametrize("name", CASES)
def test_golden_trace(name):
    assert render(name) == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / f"{case}.out").write_text(render(case))
    sys.exit(0)
