"""Tests of the benchmark's own oracles, checks and traced run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import Arrival, BusModel  # noqa: E402
from vcanlab import codec  # noqa: E402
from vcanlab.bus import Bus, BusConfig, EventKind, ScheduleEntry  # noqa: E402


def random_msgs(count, seed=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        extended = rng.random() < 0.5
        ident = rng.randrange(1 << (29 if extended else 11))
        out.append(workloads.random_msg(rng, ident, extended))
    return out


EXTREMES = [
    (0x000, False, False, 8, bytes(8)),             # long dominant runs
    (0x7FF, False, False, 8, b"\xff" * 8),          # long recessive runs
    (0x000, True, False, 8, bytes(8)),
    (0x1FFFFFFF, True, True, 8, b""),
    (0x555, False, False, 8, b"\x55" * 8),          # alternating: no stuffing
    (0x123, False, False, 0, b""),
]


def shift_register_crc(bits: str) -> int:
    crc = 0
    for ch in bits:
        feedback = ((crc >> 14) & 1) ^ int(ch)
        crc = (crc << 1) & 0x7FFF
        if feedback:
            crc ^= 0x4599
    return crc


class TestWireLength:
    def test_crc_long_division_matches_a_shift_register(self):
        rng = random.Random(3)
        for n in (1, 15, 19, 83, 120):
            for _ in range(50):
                bits = "".join(rng.choice("01") for _ in range(n))
                assert oracle.crc15(bits) == shift_register_crc(bits)

    @pytest.mark.parametrize("msg", EXTREMES + random_msgs(500))
    def test_length_between_unstuffed_and_davis_bound(self, msg):
        assert (oracle.unstuffed_length(msg) <= oracle.wire_length(msg)
                <= oracle.worst_case_length(msg))

    def test_known_lengths(self):
        # Unstuffed: 44 + 8s bits standard, 64 + 8s extended (Davis et al. 2007).
        assert oracle.unstuffed_length((0x123, False, False, 8, bytes(8))) == 108
        assert oracle.unstuffed_length((0x123, True, True, 8, b"")) == 64
        # Worst case: 55 + 10s (standard) and 80 + 10s (extended) bits less
        # the 3-bit interframe space.
        assert oracle.worst_case_length((0x123, False, False, 8, bytes(8))) == 132
        assert oracle.worst_case_length((0x123, True, False, 0, b"")) == 77

    def test_agrees_with_the_simulators_codec(self):
        for msg in EXTREMES + random_msgs(300, seed=11):
            frame = workloads.frame_of(msg)
            assert oracle.wire_length(msg) == len(codec.encode_frame(frame).stuffed_bits)


class TestBusModel:
    def test_two_contenders_lower_pattern_first(self):
        hi = (0x200, False, False, 1, b"\x01")
        lo = (0x100, False, False, 1, b"\x02")
        deliveries, slots = BusModel().run([Arrival(0, "a", hi), Arrival(0, "b", lo)], 10_000)
        first = oracle.wire_length(lo) + 3
        assert [(d.node, d.bit) for d in deliveries] == [
            ("b", first), ("a", first + oracle.wire_length(hi) + 3)]
        assert [s.contenders for s in slots] == [2, 1]

    def test_standard_beats_extended_with_equal_top_bits(self):
        ext = (0x100 << 18, True, False, 0, b"")
        std = (0x100, False, True, 0, b"")
        deliveries, _ = BusModel().run([Arrival(0, "e", ext), Arrival(0, "s", std)], 10_000)
        assert [d.node for d in deliveries] == ["s", "e"]

    def test_idle_bus_starts_at_arrival(self):
        msg = (0x10, False, False, 2, b"ab")
        deliveries, _ = BusModel().run([Arrival(500, "a", msg)], 10_000)
        assert deliveries[0].bit == 500 + oracle.wire_length(msg) + 3

    def test_matches_the_simulator_on_random_contention(self):
        rng = random.Random(5)
        names = [f"n{i}" for i in range(8)]
        ids = workloads.distinct_ids(rng, len(names))
        arrivals = [Arrival(rng.randrange(3_000), n, workloads.random_msg(rng, *ids[i]))
                    for i, n in enumerate(names) for _ in range(6)]
        bus = Bus(BusConfig())
        for n in names:
            bus.attach_node(n)
        trace = bus.run([ScheduleEntry(a.bit, a.node, workloads.frame_of(a.msg))
                         for a in arrivals], 40_000)
        got = [(e.time_bits, e.node, workloads.msg_of(e.frame))
               for e in trace if e.kind is EventKind.FRAME_DELIVERED]
        model, _ = BusModel().run(arrivals, 40_000)
        assert got == [(d.bit, d.node, d.msg) for d in model]


def small(cls, tmp_dir, **sizes):
    w = cls(tmp_dir)
    for k, v in sizes.items():
        setattr(w, k, v)
    return w


def one_round(w, seed=1):
    prep = w.prepare(random.Random(seed), f"test-{w.name}")
    state = w.setup(prep)
    out = w.observe(prep, w.execute(prep, state, []))
    return prep, out


@pytest.fixture
def workdir():
    path = HERE.parent / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


class TestChecksCatchCorruption:
    def test_sensor_scan(self, workdir):
        w = small(workloads.SensorScan, workdir, SPAN_US=200_000)
        prep, out = one_round(w)
        v = w.check(prep, out)
        assert v.failed == 0 and not v.problems and v.attempted > 50

        swapped = dict(out, deliveries=list(out["deliveries"]))
        d = swapped["deliveries"]
        d[3], d[4] = d[4], d[3]
        assert w.check(prep, swapped).failed >= 1

        i, ch = next((i, prep["sensors"][m[0]][0]) for i, (_, _, m) in
                     enumerate(out["deliveries"]) if m[0] in prep["sensors"])
        readings = list(out["readings"])
        value, in_range = readings[i]
        readings[i] = (value + (ch.hi - ch.lo) / 1023, in_range)
        assert w.check(prep, dict(out, readings=readings)).failed == 1

        status = list(out["status"])
        status[0] = status[0].replace("delivered=", "delivered=1")
        assert w.check(prep, dict(out, status=status)).problems

    def test_arbitration(self, workdir):
        w = small(workloads.Arbitration110, workdir, NODES=12, FRAMES_PER_NODE=2,
                  ARRIVAL_SPREAD_BITS=1_000)
        prep, out = one_round(w)
        v = w.check(prep, out)
        assert v.failed == 0 and not v.problems and v.attempted == 24

        d = list(out["deliveries"])
        d[0], d[1] = d[1], d[0]
        assert w.check(prep, dict(out, deliveries=d)).failed >= 2

        late = list(out["deliveries"])
        t, node, msg = late[-1]
        late[-1] = (t + 1, node, msg)
        assert w.check(prep, dict(out, deliveries=late)).failed == 1

        starts = out["starts"].copy()
        starts[next(iter(starts))] -= 1
        assert w.check(prep, dict(out, starts=starts)).problems

    def test_bus_off_recovery(self, workdir):
        w = small(workloads.BusOffRecovery, workdir, SPAN_BITS=24_000)
        prep, out = one_round(w)
        v = w.check(prep, out)
        assert v.failed == 0 and not v.problems

        events = out["events"]
        i = next(i for i, e in enumerate(events) if e[1] == "FrameDelivered")
        dropped = events[:i] + events[i + 1:]
        assert w.check(prep, dict(out, events=dropped)).failed == 1

        j = next(i for i, e in enumerate(events) if e[1] == "BusOffRecovered")
        entered = max(e[0] for e in events[:j]
                      if e[1] == "BusOffEntered" and e[2] == events[j][2])
        early = list(events)
        early[j] = (entered + 128 * 11 - 1, *events[j][1:])
        early.sort(key=lambda e: e[0])
        assert any("recovered" in p for p in w.check(prep, dict(out, events=early)).problems)

        k = next(i for i, e in enumerate(events) if e[1] == "BusOffEntered")
        t, _, node, _ = events[k]
        sneaky = sorted(events + [(t + 5, "TxStart", node, None)], key=lambda e: e[0])
        assert any("while bus-off" in p
                   for p in w.check(prep, dict(out, events=sneaky)).problems)

        status = [s.replace("mode=error-active", "mode=error-passive", 1)
                  for s in out["status"]]
        assert w.check(prep, dict(out, status=status)).problems

    def test_gateway_relay(self, workdir):
        w = small(workloads.GatewayRelay, workdir, LINES=300, MALFORMED_SHARE=0.2)
        prep, out = one_round(w)
        v = w.check(prep, out)
        assert v.failed == 0 and not v.problems
        assert {False, True} == {valid for _, valid in prep["lines"]}

        first_valid = next(text for text, valid in prep["lines"] if valid)
        missing = out["to_b"].replace((first_valid + "\r").encode(), b"", 1)
        assert w.check(prep, dict(out, to_b=missing)).failed >= 1

        i = next(i for i, (_, valid) in enumerate(prep["lines"]) if not valid)
        to_a = bytearray(out["to_a"])
        to_a[i:i + 1] = b"\r"
        assert w.check(prep, dict(out, to_a=bytes(to_a))).failed == 1


def run_bench(*args, code=""):
    """Run the harness for one round in a fresh interpreter."""
    script = (f"import sys; sys.path.insert(0, {str(HERE)!r})\n{code}\n"
              f"import run; run.main({list(args) + ['--seconds', '0']!r})\n"
              "print(json.dumps(sorted(m for m in sys.modules if m == 'layers')))")
    p = subprocess.run([sys.executable, "-c", "import json\n" + script],
                       capture_output=True, text=True, cwd=HERE.parent, timeout=120)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class TestHarness:
    def test_plain_run_never_loads_the_wrappers(self):
        result, loaded = run_bench("--workload", "gateway_relay", "--seed", "1", "--trace", "0")
        assert loaded == [] and result["correct"]
        assert set(result["metrics"]) == {"frames_per_s", "setup_s", "peak_rss_mb",
                                          "step_ms_p50"}

    def test_traced_run_reports_every_layer(self):
        import layers
        result, loaded = run_bench("--workload", "sensor_scan", "--seed", "1", "--trace", "1")
        assert loaded == ["layers"] and result["correct"]
        metrics = result["metrics"]
        assert set(metrics) == set(layers.METRICS)
        assert all(m["value"] is not None for m in metrics.values())
        assert metrics["cli.self_s"]["value"] > 0
        assert metrics["scenario.trace_lines"]["value"] > 0

    def test_missing_function_is_reported_absent(self):
        code = ("sys.path.insert(0, 'src'); import vcanlab.sensornet as s\n"
                "del s.monitor_evaluate")
        result, _ = run_bench("--workload", "gateway_relay", "--seed", "1", "--trace", "1",
                              code=code)
        assert result["metrics"]["sensornet.monitor_s"]["value"] is None
        assert result["metrics"]["sensornet.readings"]["value"] == 0
        assert result["metrics"]["gateway.lines"]["value"] > 0
