"""Discrete-event virtual CAN bus in bit-time units.

Wired-AND level resolution, bitwise arbitration among simultaneous
transmitters, ACK slot behavior, fault injection and configuration
validation. One simulation instance is single-threaded and deterministic.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import codec
from .codec import DOMINANT, RECESSIVE, TAIL_BITS
from .frame import Frame
from .node import (AcceptanceFilter, BusOffError, CounterEvent, Node, NodeMode,
                   NodeState, QueuedFrame, RECOVERY_GROUP_BITS, RECOVERY_GROUPS,
                   update_counters)

MIN_BITRATE_BPS = 20_000
MAX_BITRATE_BPS = 1_000_000
MAX_NODES = 110
INTERMISSION_BITS = 3
# Conservative rate-distance product law covering both published operating
# points: 5 kbps over 10 km sits exactly on the bound, 1 Mbps over 40 m under it.
RATE_DISTANCE_LIMIT = 50_000_000  # bit*m/s


class ConfigError(ValueError):
    pass


class RateRangeError(ConfigError):
    """Bitrate outside the supported 20 kbps .. 1 Mbps band."""


class RateDistanceError(ConfigError):
    """bitrate * distance exceeds the product bound."""


class TooManyNodesError(RuntimeError):
    pass


class DuplicateNameError(ValueError):
    pass


class ScheduleForDetachedNodeError(ValueError):
    pass


def validate_bus_config(bitrate_bps: int, distance_m: float,
                        allow_slow: bool = False) -> None:
    """Reject unsupported bitrates and rate/distance combinations.

    Bitrates below 20 kbps are accepted only with ``allow_slow`` (long-haul
    operation down to 5 kbps over 10 km); the product rule applies regardless.
    """
    if bitrate_bps <= 0 or distance_m <= 0:
        raise RateRangeError("bitrate and distance must be positive")
    if bitrate_bps > MAX_BITRATE_BPS:
        raise RateRangeError(f"bitrate {bitrate_bps} above {MAX_BITRATE_BPS} bps")
    if bitrate_bps < MIN_BITRATE_BPS and not allow_slow:
        raise RateRangeError(
            f"bitrate {bitrate_bps} below {MIN_BITRATE_BPS} bps (use allow_slow)")
    if bitrate_bps * distance_m > RATE_DISTANCE_LIMIT:
        raise RateDistanceError(
            f"bitrate*distance {bitrate_bps * distance_m:.0f} exceeds {RATE_DISTANCE_LIMIT}")


@dataclass(frozen=True)
class BusConfig:
    bitrate_bps: int = MAX_BITRATE_BPS
    distance_m: float = 40.0
    max_nodes: int = MAX_NODES
    intermission_bits: int = INTERMISSION_BITS
    allow_slow: bool = False

    def __post_init__(self) -> None:
        validate_bus_config(self.bitrate_bps, self.distance_m, self.allow_slow)


class EventKind(enum.Enum):
    TX_START = "TxStart"
    ARBITRATION_LOST = "ArbitrationLost"
    FRAME_DELIVERED = "FrameDelivered"
    ACK_ERROR = "AckError"
    ERROR_FRAME = "ErrorFrame"
    RETRANSMIT = "Retransmit"
    BUS_OFF_ENTERED = "BusOffEntered"
    BUS_OFF_RECOVERED = "BusOffRecovered"
    FAULT_INJECTED = "FaultInjected"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    time_bits: int
    time_s: float
    node: Optional[str]
    kind: EventKind
    frame: Optional[Frame] = None


@dataclass(frozen=True)
class ScheduleEntry:
    time_us: int
    node: str
    frame: Frame

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise ValueError("schedule times must be non-negative")


Schedule = Sequence[ScheduleEntry]


def resolve_bit(driven_levels: Sequence[int]) -> int:
    """Wired-AND: dominant wins; an undriven bus idles recessive."""
    for level in driven_levels:
        if level == DOMINANT:
            return DOMINANT
    return RECESSIVE


class _TxPlan:
    """Cached transmission plan for one queued frame."""

    __slots__ = ("stream", "arb_end", "region_len", "total_len", "ack_idx")

    def __init__(self, frame: Frame):
        body = codec.frame_body_bits(frame)
        crc = codec.crc15(body)
        region = body + [(crc >> i) & 1 for i in range(14, -1, -1)]
        stuffed, positions = codec.stuff_with_positions(region)
        arb = (codec.EXT_ARBITRATION_END if frame.id.extended
               else codec.STD_ARBITRATION_END)
        self.stream = stuffed + [RECESSIVE] * TAIL_BITS
        self.arb_end = positions[arb]
        self.region_len = len(stuffed)
        self.total_len = len(self.stream)
        self.ack_idx = self.region_len + 1  # after the CRC delimiter


class _Transmitter:
    __slots__ = ("node", "entry", "plan")

    def __init__(self, node: Node, entry: QueuedFrame):
        self.node = node
        self.entry = entry
        if entry.enc is None:
            entry.enc = _TxPlan(entry.frame)
        self.plan = entry.enc


class _TxContext:
    __slots__ = ("start", "k", "active")

    def __init__(self, start: int, active: List[_Transmitter]):
        self.start = start
        self.k = 0
        self.active = active


class Bus:
    """A virtual bus plus its attached nodes and one running simulation."""

    # Tests clear this to step every bit, the reference the skips must match.
    _SKIP = True

    def __init__(self, config: Optional[BusConfig] = None):
        self.config = config or BusConfig()
        self.nodes: Dict[str, Node] = {}
        self._order: List[Node] = []
        self._faults: Dict[int, int] = {}
        self._fault_bits: List[int] = []
        self._pending: List[Tuple[int, int, Node, Frame]] = []
        self._pending_seq = 0
        self._t = 0
        self._interm = 0
        self._ctx: Optional[_TxContext] = None
        self._events: List[TraceEvent] = []
        self._bus_off: Set[Node] = set()
        # Events at the same bit time share one time_s float.
        self._emit_bits = -1
        self._emit_s = 0.0

    @property
    def now(self) -> int:
        """Bit time the simulation stands at: the next bit to be simulated."""
        return self._t

    # -- setup -----------------------------------------------------------

    def attach_node(self, name: str,
                    accept_filter: Optional[AcceptanceFilter] = None) -> Node:
        if self._t > 0 or self._ctx is not None:
            raise RuntimeError("cannot attach nodes to a running bus")
        if name in self.nodes:
            raise DuplicateNameError(f"node {name!r} already attached")
        if len(self.nodes) >= self.config.max_nodes:
            raise TooManyNodesError(
                f"bus already carries {self.config.max_nodes} nodes")
        node = Node(name, accept_filter)
        self.nodes[name] = node
        self._order.append(node)
        return node

    def inject_fault(self, at_bit: int, level: int) -> None:
        """Override the resolved bus level at one bit time."""
        if at_bit not in self._faults:
            bisect.insort(self._fault_bits, at_bit)
        self._faults[at_bit] = level

    def arrival_bit(self, time_us: int) -> int:
        """Bit time at which a schedule entry becomes available."""
        return -(-time_us * self.config.bitrate_bps // 1_000_000)

    # -- trace helpers ---------------------------------------------------

    def _emit(self, kind: EventKind, node: Optional[str], frame: Optional[Frame],
              time_bits: int) -> None:
        if time_bits != self._emit_bits:
            self._emit_bits = time_bits
            self._emit_s = time_bits / self.config.bitrate_bps
        self._events.append(TraceEvent(time_bits, self._emit_s, node, kind, frame))

    def _apply_counter(self, node: Node, event: CounterEvent, t: int) -> None:
        old = node.state
        new = update_counters(old, event)
        if new is old:
            return
        node.state = new
        if new.mode is NodeMode.BUS_OFF and old.mode is not NodeMode.BUS_OFF:
            node.partial_recessive = 0
            self._bus_off.add(node)
            self._emit(EventKind.BUS_OFF_ENTERED, node.name, None, t)

    def _recovery_tick(self, resolved: int, t: int) -> None:
        if not self._bus_off:
            return
        for node in self._order:
            if node.state.mode is not NodeMode.BUS_OFF:
                continue
            if resolved != RECESSIVE:
                node.partial_recessive = 0
                continue
            node.partial_recessive += 1
            if node.partial_recessive == RECOVERY_GROUP_BITS:
                node.partial_recessive = 0
                groups = node.state.recessive_run_groups + 1
                if groups >= RECOVERY_GROUPS:
                    node.state = NodeState()
                    self._bus_off.discard(node)
                    self._emit(EventKind.BUS_OFF_RECOVERED, node.name, None, t)
                else:
                    node.state = NodeState(node.state.tec, node.state.rec,
                                           NodeMode.BUS_OFF, groups)

    def _any_bus_off(self) -> bool:
        return bool(self._bus_off)

    def _fault_in_range(self, lo: int, hi: int) -> bool:
        i = bisect.bisect_left(self._fault_bits, lo)
        return i < len(self._fault_bits) and self._fault_bits[i] < hi

    def _next_fault_at_or_after(self, t: int) -> Optional[int]:
        i = bisect.bisect_left(self._fault_bits, t)
        return self._fault_bits[i] if i < len(self._fault_bits) else None

    # -- simulation ------------------------------------------------------

    def run(self, schedule: Schedule = (), until_bits: int = 0) -> List[TraceEvent]:
        """Advance the simulation to ``until_bits``, merging ``schedule``.

        Returns the trace events generated during this call; repeated calls
        continue from where the previous one stopped. No bit at or past
        ``until_bits`` is simulated, so the bus then stands at ``until_bits``.
        """
        for entry in schedule:
            if entry.node not in self.nodes:
                raise ScheduleForDetachedNodeError(
                    f"schedule references unattached node {entry.node!r}")
            self._pending_seq += 1
            item = (self.arrival_bit(entry.time_us), self._pending_seq,
                    self.nodes[entry.node], entry.frame)
            bisect.insort(self._pending, item)

        # Node states may have been assigned since the last call.
        self._bus_off = {n for n in self._order if n.state.mode is NodeMode.BUS_OFF}
        self._events = []
        while self._t < until_bits:
            self._step(until_bits)
        return self._events

    def _pop_arrivals(self) -> None:
        while self._pending and self._pending[0][0] <= self._t:
            _, _, node, frame = self._pending.pop(0)
            try:
                node.submit(frame)
            except BusOffError:
                pass  # dropped: sender is off the bus

    def _step(self, until_bits: int) -> None:
        t = self._t
        self._pop_arrivals()

        if self._ctx is None:
            if self._interm > 0:
                resolved = self._resolved_idle(t)
                self._recovery_tick(resolved, t)
                self._interm -= 1
                self._t = t + 1
                return
            starters = [n for n in self._order
                        if n.queue and n.state.mode is not NodeMode.BUS_OFF]
            if starters:
                active = []
                for n in starters:
                    entry = n.queue[0]
                    kind = EventKind.RETRANSMIT if entry.attempted else EventKind.TX_START
                    entry.attempted = True
                    self._emit(kind, n.name, entry.frame, t)
                    active.append(_Transmitter(n, entry))
                self._ctx = _TxContext(t, active)
                self._tx_bit(t, until_bits)
                return
            # idle
            resolved = self._resolved_idle(t)
            self._recovery_tick(resolved, t)
            if (self._SKIP and not self._any_bus_off() and t not in self._faults
                    and not any(n.queue for n in self._order)):
                nxt = until_bits
                if self._pending:
                    nxt = min(nxt, self._pending[0][0])
                f = self._next_fault_at_or_after(t + 1)
                if f is not None:
                    nxt = min(nxt, f)
                self._t = max(t + 1, nxt)
            else:
                self._t = t + 1
            return

        self._tx_bit(t, until_bits)

    def _resolved_idle(self, t: int) -> int:
        if t in self._faults:
            self._emit(EventKind.FAULT_INJECTED, None, None, t)
            return self._faults[t]
        return RECESSIVE

    def _tx_bit(self, t: int, until_bits: int) -> None:
        ctx = self._ctx
        assert ctx is not None
        # Skip ahead through uncontested, unobservable stretches of the frame,
        # up to the ACK slot or the last EOF bit and never to the horizon.
        if self._SKIP and len(ctx.active) == 1 and not self._any_bus_off():
            plan = ctx.active[0].plan
            end = ctx.start + plan.total_len
            if not self._fault_in_range(t, end):
                target = plan.ack_idx if ctx.k <= plan.ack_idx else plan.total_len - 1
                target = min(target, ctx.k + until_bits - 1 - t)
                if target > ctx.k:
                    t += target - ctx.k
                    ctx.k = target
                    self._t = t
                    self._pop_arrivals()

        k = ctx.k
        resolved_nat = RECESSIVE
        for tr in ctx.active:
            if tr.plan.stream[k] == DOMINANT:
                resolved_nat = DOMINANT
                break

        sole = ctx.active[0] if len(ctx.active) == 1 else None
        ack_bit = sole is not None and k == sole.plan.ack_idx
        if ack_bit:
            for n in self._order:
                if n is not sole.node and n.state.mode is NodeMode.ERROR_ACTIVE:
                    resolved_nat = DOMINANT
                    break

        fault = self._faults.get(t)
        if fault is None:
            resolved = resolved_nat
        else:
            self._emit(EventKind.FAULT_INJECTED, None, None, t)
            resolved = fault

        error = False
        still: List[_Transmitter] = []
        for tr in ctx.active:
            bit = tr.plan.stream[k]
            if bit == resolved or (ack_bit and tr is sole):
                still.append(tr)
                continue
            if k <= tr.plan.arb_end and fault is None:
                self._emit(EventKind.ARBITRATION_LOST, tr.node.name, tr.entry.frame, t)
            else:
                self._emit(EventKind.ERROR_FRAME, tr.node.name, tr.entry.frame, t)
                error = True

        if ack_bit and not error and resolved == RECESSIVE and sole in still:
            self._emit(EventKind.ACK_ERROR, sole.node.name, sole.entry.frame, t)
            error = True

        if error:
            # Recovery credit for this bit goes to nodes already bus-off
            # before the error is booked, so a fresh bus-off node starts its
            # 128x11 recessive count on the following bit.
            self._recovery_tick(resolved, t)
            tx_nodes = {tr.node for tr in ctx.active}
            for tr in ctx.active:
                self._apply_counter(tr.node, CounterEvent.TX_ERROR, t)
            for n in self._order:
                if n not in tx_nodes and n.state.mode is not NodeMode.BUS_OFF:
                    self._apply_counter(n, CounterEvent.RX_ERROR, t)
            self._ctx = None
            self._interm = self.config.intermission_bits
            self._t = t + 1
            return

        ctx.active = still
        if not still:
            # A fault displaced every transmitter inside the arbitration field;
            # treat like an aborted slot and let everyone retry.
            self._ctx = None
            self._interm = self.config.intermission_bits
            self._recovery_tick(resolved, t)
            self._t = t + 1
            return

        done = all(k == tr.plan.total_len - 1 for tr in still)
        if done:
            deliver_t = ctx.start + still[0].plan.total_len + self.config.intermission_bits
            tx_nodes = {tr.node for tr in still}
            for tr in still:
                tr.node.queue.remove(tr.entry)
                self._apply_counter(tr.node, CounterEvent.TX_SUCCESS, t)
                tr.node.delivered += 1
            for n in self._order:
                if n in tx_nodes or n.state.mode is NodeMode.BUS_OFF:
                    continue
                # update_counters returns the state unchanged for RX_SUCCESS
                # at rec == 0, so only receivers with rec > 0 need the call.
                if n.state.rec:
                    self._apply_counter(n, CounterEvent.RX_SUCCESS, t)
                for tr in still:
                    if n.accepts(tr.entry.frame.id):
                        n.received.append(tr.entry.frame)
            for tr in still:
                self._emit(EventKind.FRAME_DELIVERED, tr.node.name, tr.entry.frame,
                           deliver_t)
            self._ctx = None
            self._interm = self.config.intermission_bits
            self._recovery_tick(resolved, t)
            self._t = t + 1
            return

        self._recovery_tick(resolved, t)
        ctx.k = k + 1
        self._t = t + 1

    # -- convenience -----------------------------------------------------

    def status_lines(self) -> List[str]:
        return [n.status().render() for n in self._order]
