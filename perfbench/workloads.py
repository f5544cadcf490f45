"""The four benchmark workloads.

Each workload makes one round of inputs from a seeded ``random.Random``,
then runs it in four phases that the harness in ``run.py`` times apart:

* ``prepare``  makes the inputs (not timed);
* ``setup``    does what the program does before its first simulated bit
               (timed: ``setup_s``);
* ``execute``  runs the simulation and whatever reads its output (timed:
               ``frames_per_s`` and ``step_ms_p50``);
* ``check``    compares the outputs with the frame-level model in
               ``oracle.py`` or with properties CAN fault confinement must
               have (not timed).

Every call into vcanlab goes through a module attribute (``cli.main``,
``sensornet.parse_reading_frame`` ...), so the per-layer wrappers of the
traced run see it.
"""

from __future__ import annotations

import collections
import contextlib
import io
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from vcanlab import bus as vbus
from vcanlab import cli, codec, gateway, scenario, sensornet
from vcanlab import frame as vframe

from oracle import Arrival, BusModel, Msg, worst_case_length

RECOVERY_BITS = 128 * 11
PASSIVE_LIMIT = 127
BUS_OFF_LIMIT = 255


@dataclass
class Verdict:
    """Outcome of one round's check."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        """A property of the whole round is broken: the run is incorrect."""
        if len(self.problems) < 20:
            self.problems.append(what)


def msg_of(frame) -> Msg:
    return (frame.id.value, frame.id.extended,
            frame.kind is vframe.FrameKind.REMOTE, frame.dlc, frame.payload)


def frame_of(msg: Msg):
    ident, extended, remote, dlc, payload = msg
    if remote:
        return vframe.remote_frame(ident, dlc, extended)
    return vframe.data_frame(ident, payload, extended)


def line_of(msg: Msg) -> str:
    """Serial-line text of a message, as the gateway grammar spells it."""
    ident, extended, remote, dlc, payload = msg
    cmd = ("R" if remote else "T") if extended else ("r" if remote else "t")
    width = 8 if extended else 3
    data = "" if remote else payload.hex().upper()
    return f"{cmd}{ident:0{width}X}{dlc:X}{data}"


def random_msg(rng: random.Random, ident: int, extended: bool,
               remote_share: float = 0.15) -> Msg:
    dlc = rng.randrange(9)
    if rng.random() < remote_share:
        return (ident, extended, True, dlc, b"")
    return (ident, extended, False, dlc, bytes(rng.randrange(256) for _ in range(dlc)))


def distinct_ids(rng: random.Random, count: int) -> List[Tuple[int, bool]]:
    """``count`` identifiers, every second one extended, no two alike."""
    seen = set()
    out = []
    while len(out) < count:
        extended = len(out) % 2 == 1
        ident = rng.randrange(1 << (29 if extended else 11))
        if (ident, extended) not in seen:
            seen.add((ident, extended))
            out.append((ident, extended))
    return out


def status_line(name: str, mode: str, tec: int, rec: int, queued: int,
                delivered: int) -> str:
    return (f"{name} mode={mode} tec={tec} rec={rec} "
            f"queued={queued} delivered={delivered}")


_STATUS = re.compile(r"(\S+) mode=(\S+) tec=(\d+) rec=(\d+) queued=(\d+) delivered=(\d+)$")


def parse_status(lines: List[str]) -> Dict[str, Tuple[str, int, int, int, int]]:
    out = {}
    for line in lines:
        m = _STATUS.match(line)
        if m:
            out[m.group(1)] = (m.group(2),) + tuple(int(g) for g in m.group(3, 4, 5, 6))
    return out


def check_deliveries(model, got: List[Tuple[int, Optional[str], Msg]],
                     verdict: Verdict, with_node: bool = True) -> List[bool]:
    """Position-by-position comparison of the bus's deliveries with the
    model's. Returns, per model delivery, whether the bus matched it."""
    ok = []
    for i, d in enumerate(model):
        want = (d.bit, d.node if with_node else None, d.msg)
        ok.append(i < len(got) and got[i] == want)
    if len(got) > len(model):
        verdict.fail(f"{len(got) - len(model)} deliveries the model does not make")
    return ok


# ---------------------------------------------------------------------------
# sensor_scan

@dataclass(frozen=True)
class Channel:
    node: str
    lo: float
    hi: float
    period_us: int
    drift: float       # standard deviation of the change between samples
    tolerance: float   # the monitor's alarm band around the set-point


# Temperatures drift by a tenth of an ADC step per sample, so most of their
# readings repeat; the other channels move by several steps.
CHANNELS = (
    Channel("temp0", 0.0, 40.0, 5_000, 0.004, 1.5),
    Channel("temp1", 0.0, 40.0, 5_000, 0.004, 1.5),
    Channel("temp2", 0.0, 40.0, 5_000, 0.004, 1.5),
    Channel("pressure", 0.0, 10.0, 4_000, 0.02, 0.8),
    Channel("speed", 0.0, 300.0, 8_000, 0.8, 30.0),
    Channel("torque", 0.0, 250.0, 10_000, 0.5, 25.0),
)


class SensorScan:
    """Sensor nodes report periodic readings to one filtered monitor through
    ``vcanlab simulate``; the monitor decodes the trace it writes."""

    name = "sensor_scan"
    BITRATE = 500_000
    DISTANCE_M = 100
    SPAN_US = 2_000_000
    MONITOR_FILTER = (0x100, 0x7F0)
    PLC_ID = 0x700
    PLC_PERIOD_US = 10_000
    DRAIN_BITS = 50_000   # after the last arrival; the queues empty long before

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.model = BusModel()

    def prepare(self, rng: random.Random, tag: str):
        lines = [f"bitrate={self.BITRATE}", f"distance_m={self.DISTANCE_M}"]
        lines += [f"node {c.node}" for c in CHANNELS]
        lines += ["node plc", "node monitor filter=%X/%X" % self.MONITOR_FILTER]
        events: List[Tuple[int, int, str, Msg, Optional[float]]] = []
        sensors = {}
        for ch_no, ch in enumerate(CHANNELS):
            cfg = sensornet.SensorConfig(node_name=ch.node, channel=ch_no,
                                         range_min_c=ch.lo, range_max_c=ch.hi)
            setpoint = rng.uniform(ch.lo + 0.3 * (ch.hi - ch.lo), ch.lo + 0.7 * (ch.hi - ch.lo))
            sensors[cfg.frame_id.value] = (ch, setpoint)
            value = setpoint + rng.gauss(0.0, ch.tolerance)
            for t in range(rng.randrange(ch.period_us), self.SPAN_US, ch.period_us):
                value = min(max(value + rng.gauss(0.0, ch.drift), ch.lo), ch.hi)
                reading = sensornet.sample_reading(value, cfg)
                fr = sensornet.build_reading_frame(cfg, reading)
                events.append((t, len(events), ch.node, msg_of(fr), value))
        period = self.PLC_PERIOD_US
        for k, t in enumerate(range(rng.randrange(period), self.SPAN_US, period)):
            events.append((t, len(events), "plc", (self.PLC_ID, False, False, 1,
                                                   bytes([k & 0xFF])), None))
        events.sort()
        arrivals = [Arrival(-(-t * self.BITRATE // 1_000_000), node, msg)
                    for t, _, node, msg, _ in events]
        horizon = arrivals[-1].bit + self.DRAIN_BITS
        lines.insert(2, f"run_bits={horizon}")
        lines += [f"{t} {node} {line_of(msg)}" for t, _, node, msg, _ in events]
        path = self.workdir / f"{tag}.scn"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {
            "path": path,
            "trace_path": self.workdir / f"{tag}.trace",
            "nodes": [c.node for c in CHANNELS] + ["plc", "monitor"],
            "arrivals": arrivals,
            "held": [v for *_, v in events],
            "sensors": sensors,
            "horizon": horizon,
        }

    def setup(self, prep):
        text = prep["path"].read_text(encoding="utf-8")
        scn = scenario.parse_scenario(text)
        bus = scn.build_bus()
        bus.run(scn.schedule, 0)

    def execute(self, prep, state, steps):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["simulate", str(prep["path"]), "--trace-out",
                             str(prep["trace_path"]), "--status"])
        code_f, mask = self.MONITOR_FILTER
        deliveries = []
        readings = []
        with open(prep["trace_path"], encoding="utf-8") as fh:
            for line in fh:
                stamp, _, text, kind, *_ = line.split()
                if kind != "FrameDelivered":
                    continue
                fr = codec.frame_from_text(text)
                deliveries.append((stamp, fr))
                if fr.id.extended or (fr.id.value & mask) != (code_f & mask):
                    readings.append(None)
                    continue
                ch, setpoint = prep["sensors"][fr.id.value]
                reading = sensornet.parse_reading_frame(fr)
                value = reading.temperature_c
                verdict = sensornet.monitor_evaluate(value, setpoint, ch.tolerance)
                readings.append((value, verdict.in_range))
        return {"code": code, "status": stdout.getvalue().splitlines(),
                "deliveries": deliveries, "readings": readings}

    def observe(self, prep, raw):
        """Plain values out of the raw outputs: (bit, None, msg) per delivery."""
        got = [(round(float(stamp[1:-1]) * self.BITRATE), None, msg_of(fr))
               for stamp, fr in raw["deliveries"]]
        return {"code": raw["code"], "status": raw["status"], "deliveries": got,
                "readings": raw["readings"]}

    def delivered(self, out) -> int:
        return len(out["deliveries"])

    def check(self, prep, out) -> Verdict:
        arrivals = prep["arrivals"]
        verdict = Verdict(len(arrivals))
        if out["code"] != 0:
            verdict.fail(f"vcanlab simulate exited with {out['code']}")
        model, _ = self.model.run(arrivals, prep["horizon"])
        ok = check_deliveries(model, out["deliveries"], verdict, with_node=False)
        readings = out["readings"]
        counts = collections.Counter(d.node for d in model)
        for i, d in enumerate(model):
            held = prep["held"][d.index]
            if held is None:
                continue
            if i >= len(readings) or readings[i] is None:
                ok[i] = False
                continue
            value, in_range = readings[i]
            ch, setpoint = prep["sensors"][d.msg[0]]
            lsb = (ch.hi - ch.lo) / 1023
            if abs(value - held) > lsb / 2 + 0.005:
                ok[i] = False
            # Only where the held value is clearly inside or outside the band
            # does quantisation not decide the monitor's verdict.
            margin = abs(held - setpoint) - ch.tolerance
            if abs(margin) > lsb / 2 + 0.005 and in_range != (margin < 0):
                ok[i] = False
        verdict.failed = ok.count(False)
        queued = collections.Counter(a.node for a in arrivals)
        queued.subtract(counts)
        want = [status_line(n, "error-active", 0, 0, queued[n], counts[n])
                for n in prep["nodes"]]
        if out["status"] != want:
            verdict.fail("status lines differ from the model")
        if sum(queued.values()):
            verdict.fail("frames left queued at the horizon")
        return verdict


# ---------------------------------------------------------------------------
# arbitration_110

class Arbitration110:
    """110 nodes with unique identifiers and a backlog: a saturated bus."""

    name = "arbitration_110"
    NODES = 110
    FRAMES_PER_NODE = 3
    ARRIVAL_SPREAD_BITS = 12_000

    def __init__(self, workdir: Path):
        self.model = BusModel()

    def prepare(self, rng: random.Random, tag: str):
        names = [f"n{i:03d}" for i in range(self.NODES)]
        arrivals = []
        for name, (ident, extended) in zip(names, distinct_ids(rng, self.NODES)):
            for k in range(self.FRAMES_PER_NODE):
                bit = 0 if k == 0 else rng.randrange(self.ARRIVAL_SPREAD_BITS)
                arrivals.append(Arrival(bit, name, random_msg(rng, ident, extended)))
        horizon = (max(a.bit for a in arrivals) + 1
                   + sum(worst_case_length(a.msg) + 3 for a in arrivals))
        return {"names": names, "arrivals": arrivals, "horizon": horizon}

    def setup(self, prep):
        # 1 Mbps: one bit per microsecond, so arrival bits are schedule times.
        schedule = [vbus.ScheduleEntry(a.bit, a.node, frame_of(a.msg))
                    for a in prep["arrivals"]]
        bus = vbus.Bus(vbus.BusConfig())
        for name in prep["names"]:
            bus.attach_node(name)
        bus.run(schedule, 0)
        return bus

    def execute(self, prep, bus, steps):
        return bus, bus.run([], prep["horizon"])

    def observe(self, prep, raw):
        bus, trace = raw
        kinds = vbus.EventKind
        starts = collections.Counter(
            e.time_bits for e in trace if e.kind in (kinds.TX_START, kinds.RETRANSMIT))
        return {
            "deliveries": [(e.time_bits, e.node, msg_of(e.frame))
                           for e in trace if e.kind is kinds.FRAME_DELIVERED],
            "starts": starts,
            "lost": sum(e.kind is kinds.ARBITRATION_LOST for e in trace),
            "other": sorted({e.kind.value for e in trace} - {
                kinds.TX_START.value, kinds.RETRANSMIT.value,
                kinds.ARBITRATION_LOST.value, kinds.FRAME_DELIVERED.value}),
            "status": bus.status_lines(),
            "received": {n: len(node.received) for n, node in bus.nodes.items()},
        }

    def delivered(self, out) -> int:
        return len(out["deliveries"])

    def check(self, prep, out) -> Verdict:
        arrivals = prep["arrivals"]
        verdict = Verdict(len(arrivals))
        model, slots = self.model.run(arrivals, prep["horizon"])
        ok = check_deliveries(model, out["deliveries"], verdict)
        verdict.failed = ok.count(False)
        if len(model) != len(arrivals):
            verdict.fail("the horizon does not let the queues drain")
        want_starts = collections.Counter({s.start: s.contenders for s in slots})
        if out["starts"] != want_starts:
            verdict.fail("transmission starts differ from the model's contention")
        if out["lost"] != sum(s.contenders - 1 for s in slots):
            verdict.fail("arbitration losses differ from the model's contention")
        if out["other"]:
            verdict.fail(f"unexpected events {out['other']}")
        sent = collections.Counter(d.node for d in model)
        want = [status_line(n, "error-active", 0, 0, 0, sent[n]) for n in prep["names"]]
        if out["status"] != want:
            verdict.fail("status lines differ from the model")
        if out["received"] != {n: len(model) - sent[n] for n in prep["names"]}:
            verdict.fail("receive counts differ from the model")
        return verdict


# ---------------------------------------------------------------------------
# bus_off_recovery

class BusOffRecovery:
    """Periodic traffic hit by bursts of dominant faults, which drive the
    transmitters into bus-off and back, many times per round."""

    name = "bus_off_recovery"
    TALKERS = 4
    LISTENERS = 2
    PERIOD_BITS = (300, 900)
    SPAN_BITS = 60_000
    TAIL_BITS = 8_000
    BURST_EVERY = 12_000
    BURST_BITS = (250, 400)

    def __init__(self, workdir: Path):
        pass

    def prepare(self, rng: random.Random, tag: str):
        talkers = [f"t{i}" for i in range(self.TALKERS)]
        names = talkers + [f"l{i}" for i in range(self.LISTENERS)]
        ids = rng.sample(range(0x080, 0x600), self.TALKERS)
        arrivals = []
        for name, ident in zip(talkers, ids):
            period = rng.randrange(*self.PERIOD_BITS)
            for seq, bit in enumerate(range(rng.randrange(period), self.SPAN_BITS, period)):
                dlc = rng.randrange(2, 9)
                payload = seq.to_bytes(2, "big") + bytes(rng.randrange(256)
                                                         for _ in range(dlc - 2))
                arrivals.append(Arrival(bit, name, (ident, False, False, dlc, payload)))
        arrivals.sort(key=lambda a: a.bit)
        bursts = []
        for start in range(self.BURST_EVERY // 2, self.SPAN_BITS, self.BURST_EVERY):
            start += rng.randrange(-500, 500)
            bursts.append((start, rng.randrange(*self.BURST_BITS)))
        return {"names": names, "arrivals": arrivals, "bursts": bursts,
                "horizon": self.SPAN_BITS + self.TAIL_BITS}

    def setup(self, prep):
        schedule = [vbus.ScheduleEntry(a.bit, a.node, frame_of(a.msg))
                    for a in prep["arrivals"]]
        bus = vbus.Bus(vbus.BusConfig())
        for name in prep["names"]:
            bus.attach_node(name)
        for start, length in prep["bursts"]:
            for bit in range(start, start + length):
                bus.inject_fault(bit, codec.DOMINANT)
        bus.run(schedule, 0)
        return bus

    def execute(self, prep, bus, steps):
        return bus, bus.run([], prep["horizon"])

    def observe(self, prep, raw):
        bus, trace = raw
        kinds = vbus.EventKind
        keep = {kinds.TX_START, kinds.RETRANSMIT, kinds.FRAME_DELIVERED,
                kinds.BUS_OFF_ENTERED, kinds.BUS_OFF_RECOVERED}
        return {
            "events": [(e.time_bits, e.kind.value, e.node,
                        msg_of(e.frame) if e.frame is not None else None)
                       for e in trace if e.kind in keep],
            "queued": {n: [msg_of(q.frame) for q in node.queue]
                       for n, node in bus.nodes.items()},
            "status": bus.status_lines(),
        }

    def delivered(self, out) -> int:
        return sum(kind == "FrameDelivered" for _, kind, _, _ in out["events"])

    def check(self, prep, out) -> Verdict:
        arrivals = prep["arrivals"]
        verdict = Verdict(len(arrivals))
        off: Dict[str, List[List[float]]] = collections.defaultdict(list)
        delivered = collections.Counter()
        starts = []
        for t, kind, node, msg in out["events"]:
            if kind == "BusOffEntered":
                if off[node] and off[node][-1][1] == float("inf"):
                    verdict.fail(f"{node} entered bus-off twice at {t}")
                off[node].append([t, float("inf")])
            elif kind == "BusOffRecovered":
                if not off[node] or off[node][-1][1] != float("inf"):
                    verdict.fail(f"{node} recovered at {t} without being bus-off")
                    continue
                if t - off[node][-1][0] < RECOVERY_BITS:
                    verdict.fail(f"{node} recovered {t - off[node][-1][0]} bits "
                                 f"after entering bus-off")
                off[node][-1][1] = t
            elif kind == "FrameDelivered":
                delivered[(node, msg)] += 1
            else:
                starts.append((t, node))
        for t, node in starts:
            if any(lo <= t <= hi for lo, hi in off[node]):
                verdict.fail(f"{node} started a transmission at {t} while bus-off")
        if not any(off.values()):
            verdict.fail("no bus-off episode occurred")
        queued = collections.Counter((n, m) for n, msgs in out["queued"].items()
                                     for m in msgs)
        scheduled = collections.Counter((a.node, a.msg) for a in arrivals)
        for key in set(delivered) | set(queued):
            if key not in scheduled:
                verdict.fail(f"{key[0]} delivered or holds a frame never scheduled")
        for a in arrivals:
            refused = any(lo < a.bit <= hi for lo, hi in off[a.node])
            outcomes = delivered[(a.node, a.msg)] + queued[(a.node, a.msg)] + refused
            if outcomes != 1:
                verdict.failed += 1
        status = parse_status(out["status"])
        for name in prep["names"]:
            if name not in status:
                verdict.fail(f"no status line for {name}")
                continue
            mode, tec, rec, depth, _ = status[name]
            if tec > BUS_OFF_LIMIT:
                want = "bus-off"
            elif max(tec, rec) > PASSIVE_LIMIT:
                want = "error-passive"
            else:
                want = "error-active"
            ends_off = bool(off[name]) and off[name][-1][1] == float("inf")
            if mode != want or ends_off != (mode == "bus-off"):
                verdict.fail(f"{name} ends {mode} with tec={tec} rec={rec}")
            if depth != len(out["queued"][name]):
                verdict.fail(f"{name} reports {depth} queued frames")
        return verdict


# ---------------------------------------------------------------------------
# gateway_relay

MALFORMED = (
    ("BadCommand", lambda rng: "x%03X1%02X" % (rng.randrange(0x800), rng.randrange(256))),
    ("BadHex", lambda rng: "t%03x2%02x%02x" % (rng.randrange(0xA0, 0x800),
                                                rng.randrange(0xA0, 256), rng.randrange(256))),
    ("BadDlc", lambda rng: "t%03X9" % rng.randrange(0x800) + "00" * 9),
    ("IdOutOfRange", lambda rng: "t%03X1%02X" % (rng.randrange(0x800, 0x1000),
                                                 rng.randrange(256))),
    ("LengthMismatch", lambda rng: "t%03X3%02X" % (rng.randrange(0x800), rng.randrange(256))),
    ("Overflow", lambda rng: "T%08X8" % rng.randrange(1 << 29) + "AB" * 10),
)


class GatewayRelay:
    """Host A writes serial lines to one gateway session; host B reads what
    the bus relays to a second session. The bus advances in short slices."""

    name = "gateway_relay"
    LINES = 1_500
    MALFORMED_SHARE = 0.05
    CHUNK_BYTES = (16, 96)
    SLICE_BITS = 400
    DRAIN_STEPS = 2_000

    def __init__(self, workdir: Path):
        pass

    def prepare(self, rng: random.Random, tag: str):
        lines: List[Tuple[str, bool]] = []
        for _ in range(self.LINES):
            if rng.random() < self.MALFORMED_SHARE:
                _, make = rng.choice(MALFORMED)
                lines.append((make(rng), False))
            else:
                extended = rng.random() < 0.3
                ident = rng.randrange(1 << (29 if extended else 11))
                lines.append((line_of(random_msg(rng, ident, extended)), True))
        stream = "".join(text + "\r" for text, _ in lines).encode("ascii")
        chunks = []
        pos = 0
        while pos < len(stream):
            size = rng.randrange(*self.CHUNK_BYTES)
            chunks.append(stream[pos:pos + size])
            pos += size
        return {"lines": lines, "chunks": chunks}

    def setup(self, prep):
        bus = vbus.Bus(vbus.BusConfig())
        host_a = gateway.GatewaySession(bus.attach_node("hostA"))
        host_b = gateway.GatewaySession(bus.attach_node("hostB"))
        return bus, host_a, host_b

    def execute(self, prep, state, steps):
        clock = time.perf_counter
        bus, host_a, host_b = state
        want = sum(valid for _, valid in prep["lines"])
        to_a = bytearray()
        to_b = bytearray()
        until = 0
        chunks = prep["chunks"]
        for i in range(len(chunks) + self.DRAIN_STEPS):
            if i >= len(chunks) and to_b.count(b"\r") >= want:
                break
            t0 = clock()
            to_a += host_a.pump(chunks[i] if i < len(chunks) else b"")
            until += self.SLICE_BITS
            bus.run([], until)
            to_b += host_b.pump()
            steps.append(clock() - t0)
        return {"to_a": bytes(to_a), "to_b": bytes(to_b)}

    def observe(self, prep, raw):
        return raw

    def delivered(self, out) -> int:
        return out["to_b"].count(b"\r")

    def check(self, prep, out) -> Verdict:
        lines = prep["lines"]
        verdict = Verdict(len(lines))
        to_a = out["to_a"]
        if len(to_a) != len(lines):
            verdict.fail(f"host A got {len(to_a)} responses to {len(lines)} lines")
        relayed = collections.Counter(out["to_b"].decode("ascii", "replace").split("\r")[:-1])
        if out["to_b"] and not out["to_b"].endswith(b"\r"):
            verdict.fail("host B's output ends inside a line")
        sent = collections.Counter(text for text, valid in lines if valid)
        for key in relayed:
            if key not in sent:
                verdict.fail(f"host B got {key!r}, which host A never sent")
        for i, (text, valid) in enumerate(lines):
            response = to_a[i:i + 1]
            good = response == (b"\r" if valid else b"\x07")
            if valid and relayed[text] != sent[text]:
                good = False
            if not good:
                verdict.failed += 1
        return verdict


WORKLOADS = {w.name: w for w in (SensorScan, Arbitration110, BusOffRecovery, GatewayRelay)}
