"""Discrete-event virtual CAN bus in bit-time units.

Wired-AND level resolution, bitwise arbitration among simultaneous
transmitters, ACK slot behavior, fault injection and configuration
validation. One simulation instance is single-threaded and deterministic.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import codec
from .codec import DOMINANT, RECESSIVE
from .frame import Frame, FrameId
from .node import (AcceptanceFilter, BusOffError, CounterEvent, Node, NodeMode,
                   QueuedFrame, RECOVERY_GROUP_BITS, RECOVERY_GROUPS,
                   observe_recovery, update_counters)

MIN_BITRATE_BPS = 20_000
MAX_BITRATE_BPS = 1_000_000
MAX_NODES = 110
INTERMISSION_BITS = 3
_BUS_LEVELS = (DOMINANT, RECESSIVE)
_DOMINANT_BIT = bytes((DOMINANT,))  # one dominant level in a WirePlan stream
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
    The bitrate must be an integer: arrival bits and event times follow its type.
    """
    if not isinstance(bitrate_bps, int):
        raise TypeError(f"bitrate must be an integer, got {bitrate_bps!r}")
    if not (bitrate_bps > 0 and distance_m > 0):  # also rejects NaN
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


class TraceEvent(NamedTuple):
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
        if not isinstance(self.time_us, int):
            raise TypeError(f"schedule time must be an integer, got {self.time_us!r}")
        if self.time_us < 0:
            raise ValueError("schedule times must be non-negative")


Schedule = Sequence[ScheduleEntry]

# TraceEvent's generated __new__ is a Python function; the bus passes all
# five fields and builds its events with the tuple constructor directly.
_new_event = tuple.__new__
# A queue head's start event, by whether it was sent before (``attempted``).
_START_KIND = (EventKind.TX_START, EventKind.RETRANSMIT)


def resolve_bit(driven_levels: Sequence[int]) -> int:
    """Wired-AND: dominant wins; an undriven bus idles recessive."""
    return DOMINANT if DOMINANT in driven_levels else RECESSIVE


def _first_bits(runs: Sequence[int], n: int) -> List[int]:
    """The runs of the first ``n`` bits of a stretch laid out as ``runs``."""
    head = []
    for run in runs:
        if run >= n:
            head.append(n)
            break
        head.append(run)
        n -= run + 1
    return head


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
        self._pending: Deque[Tuple[int, int, Node, Frame]] = deque()
        self._pending_seq = 0
        self._t = 0
        self._interm = 0
        # The slot in progress: first bit, index of the bit being sent, and
        # the queue heads of the transmitters still on the wire, each with
        # its node and wire plan (``enc``); empty when the bus is idle.
        self._start = 0
        self._k = 0
        self._active: List[QueuedFrame] = []
        self._events: List[TraceEvent] = []
        self._bus_off: Set[Node] = set()
        # Wire plans by frame: each distinct frame sent is laid out once.
        self._plans: Dict[Frame, codec.WirePlan] = {}
        # Accepting nodes by frame id, in attach order, built on the id's
        # first delivery in a run() call.
        self._receivers: Dict[FrameId, List[Node]] = {}
        # Nodes that recovered from bus-off since the last SOF: they missed
        # it, so they do not receive the frame of the slot in progress.
        self._missed: Set[Node] = set()
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
        if self._t > 0:
            raise RuntimeError("cannot attach nodes to a running bus")
        if name in self.nodes:
            raise DuplicateNameError(f"node {name!r} already attached")
        if len(self.nodes) >= MAX_NODES:
            raise TooManyNodesError(f"bus already carries {MAX_NODES} nodes")
        node = Node(name, accept_filter)
        self.nodes[name] = node
        self._order.append(node)
        return node

    def inject_fault(self, at_bit: int, level: int) -> None:
        """Override the resolved bus level at one bit time not yet simulated."""
        if not isinstance(at_bit, int):
            raise TypeError(f"fault bit must be an integer, got {at_bit!r}")
        if level not in _BUS_LEVELS:
            raise ValueError(
                f"fault level must be {DOMINANT} or {RECESSIVE}, got {level!r}")
        if at_bit < 0:
            raise ValueError(f"fault bit must be non-negative, got {at_bit}")
        if at_bit < self._t:
            raise ValueError(
                f"fault bit {at_bit} already simulated: the bus stands at {self._t}")
        if at_bit not in self._faults:
            bisect.insort(self._fault_bits, at_bit)
        self._faults[at_bit] = level

    def arrival_bit(self, time_us: int) -> int:
        """Bit time at which a schedule entry becomes available."""
        return -(-time_us * self.config.bitrate_bps // 1_000_000)

    # -- trace helpers ---------------------------------------------------

    def _stamp(self, time_bits: int) -> float:
        """The ``time_s`` of events at ``time_bits``, one float per bit time."""
        if time_bits != self._emit_bits:
            self._emit_bits = time_bits
            self._emit_s = time_bits / self.config.bitrate_bps
        return self._emit_s

    def _emit(self, kind: EventKind, node: Optional[str], frame: Optional[Frame],
              time_bits: int) -> None:
        self._events.append(_new_event(
            TraceEvent, (time_bits, self._stamp(time_bits), node, kind, frame)))

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

    def _credit(self, runs: Sequence[int], t: int) -> int:
        """Credit the bits from ``t`` on to each bus-off node's recovery count,
        and return how many were credited.

        ``runs`` are the lengths of the recessive runs in order, one dominant
        bit between each two, so one bit is ``(1,)`` or ``(0, 0)``. The credit
        ends with the first bit at which a node completes its last group; the
        nodes that do so there rejoin the bus, in attach order.
        """
        n = sum(runs) + len(runs) - 1
        counts = []
        for node in self._bus_off:
            state = node.state
            partial = node.partial_recessive
            used = 0  # bits before this run
            for run in runs:
                end = partial + run
                if end >= RECOVERY_GROUP_BITS:  # a group completes
                    need = ((RECOVERY_GROUPS - state.recessive_run_groups)
                            * RECOVERY_GROUP_BITS - partial)
                    if run >= need and used + need < n:
                        # It recovers inside the stretch: credit that far.
                        return self._credit(_first_bits(runs, used + need), t)
                    state = observe_recovery(state, end)
                used += run + 1
                partial = 0  # the dominant bit after a run restarts the count
            counts.append((node, state, end % RECOVERY_GROUP_BITS))
        rejoined = []
        for node, state, partial in counts:
            node.state, node.partial_recessive = state, partial
            if state.mode is not NodeMode.BUS_OFF:
                rejoined.append(node)
        if rejoined:
            rejoined.sort(key=self._order.index)
            self._bus_off.difference_update(rejoined)
            self._missed.update(rejoined)
            for node in rejoined:
                self._emit(EventKind.BUS_OFF_RECOVERED, node.name, None, t + n - 1)
        return n

    def _acked(self, active: List[QueuedFrame]) -> bool:
        """Whether an error-active node that is not among the ``active``
        transmitters will drive their ACK slot dominant."""
        senders = [entry.node for entry in active]
        return any(n.state.mode is NodeMode.ERROR_ACTIVE and n not in senders
                   for n in self._order)

    def _next_fault(self, t: int) -> float:
        """The first fault bit at or after ``t``, or ``math.inf``."""
        i = bisect.bisect_left(self._fault_bits, t)
        return self._fault_bits[i] if i < len(self._fault_bits) else math.inf

    # -- simulation ------------------------------------------------------

    def run(self, schedule: Schedule = (), until_bits: int = 0) -> List[TraceEvent]:
        """Advance the simulation to ``until_bits``, merging ``schedule``.

        Returns the trace events generated during this call; repeated calls
        continue from where the previous one stopped. No bit at or past
        ``until_bits`` is simulated, so the bus then stands at ``until_bits``;
        a horizon behind ``now`` raises ``ValueError``, and one that is not an
        integer ``TypeError``; either changes nothing.
        """
        if not isinstance(until_bits, int):
            raise TypeError(f"horizon must be an integer, got {until_bits!r}")
        if until_bits < self._t:
            raise ValueError(
                f"horizon {until_bits} is behind the bus, which stands at {self._t}")
        items = []
        for entry in schedule:
            if entry.node not in self.nodes:
                raise ScheduleForDetachedNodeError(
                    f"schedule references unattached node {entry.node!r}")
            self._pending_seq += 1
            items.append((self.arrival_bit(entry.time_us), self._pending_seq,
                          self.nodes[entry.node], entry.frame))
        if items:
            # Sequence numbers are unique, so ties never compare nodes.
            items.sort()
            self._pending = deque(heapq.merge(self._pending, items))

        # Node states and filters may have been assigned since the last call.
        self._bus_off = {n for n in self._order if n.state.mode is NodeMode.BUS_OFF}
        self._receivers.clear()
        self._events = []
        while self._t < until_bits:
            self._step(until_bits)
        return self._events

    def _pop_arrivals(self) -> None:
        while self._pending and self._pending[0][0] <= self._t:
            _, _, node, frame = self._pending.popleft()
            try:
                node.submit(frame)
            except BusOffError:
                pass  # dropped: sender is off the bus

    def _step(self, until_bits: int) -> None:
        t = self._t
        self._pop_arrivals()
        if self._active:
            return self._tx_bit(t, until_bits)
        if not self._interm:
            off = self._bus_off
            starters = [n.queue[0] for n in self._order if n.queue and n not in off]
            if starters:
                time_s = self._stamp(t)
                self._events += [_new_event(TraceEvent, (
                    t, time_s, entry.node.name, _START_KIND[entry.attempted], entry.frame))
                    for entry in starters]
                plans = self._plans
                for entry in starters:
                    entry.attempted = True
                    if entry.enc is None:
                        plan = plans.get(entry.frame)
                        if plan is None:
                            plan = plans[entry.frame] = codec.wire_plan(entry.frame)
                        entry.enc = plan
                self._active = starters
                self._start, self._k = t, 0
                self._missed.clear()
                return self._tx_bit(t, until_bits)

        # Intermission or idle: only a fault drives the bus. Idle means every
        # queue of a node on the bus is empty, so the bus may jump to the next
        # arrival, fault or horizon, crediting the recessive bits it skips to
        # the bus-off nodes. A node that recovers in that stretch may hold a
        # queued frame, so the jump ends with the bit it recovers at.
        resolved = self._faults.get(t, RECESSIVE)
        if t in self._faults:
            self._emit(EventKind.FAULT_INJECTED, None, None, t)
        n = 1
        if self._interm:
            self._interm -= 1
        elif self._SKIP:
            nxt = min(until_bits, self._next_fault(t + 1))
            if self._pending:
                nxt = min(nxt, self._pending[0][0])
            n = nxt - t
        if self._bus_off:
            n = self._credit((n,) if resolved == RECESSIVE else (0, n - 1), t)
        self._t = t + n

    def _end_slot(self, t: int) -> None:
        self._active = []
        self._interm = INTERMISSION_BITS
        self._t = t + 1

    def _tx_bit(self, t: int, until_bits: int) -> None:
        active = self._active
        k = self._k
        # Skip ahead through a lone, fault-free frame: only a bus-off node's
        # recovery can change a mode inside it, and the skip ends with that.
        # Stop at the ACK slot unless another node will ACK, else go to the
        # last EOF bit, and never reach the horizon, so the run that decided
        # the ACK also simulates it.
        if self._SKIP and len(active) == 1:
            plan = active[0].enc
            if self._next_fault(t) >= self._start + plan.total_len:
                ack = plan.ack_idx
                if k <= ack and not self._acked(active):
                    target = ack
                else:
                    target = plan.total_len - 1
                target = min(target, k + until_bits - 1 - t)
                if target > k and self._bus_off:
                    # A frame that arrives for a bus-off node is dropped, so no
                    # recovery is credited before the arrivals up to its bit.
                    if self._pending:
                        target = min(target, k + self._pending[0][0] - t)
                    # An ACK slot inside the stretch is another node's ACK.
                    levels = plan.stream[k:target]
                    if k <= ack < target:
                        levels = levels[:ack - k] + _DOMINANT_BIT + levels[ack - k + 1:]
                    target = k + self._credit(
                        [len(run) for run in levels.split(_DOMINANT_BIT)], t)
                if target > k:
                    t += target - k
                    k = self._k = target
                    self._t = t
                    self._pop_arrivals()

        driven = [entry.enc.stream[k] for entry in active]
        # Transmitters still on the wire sent identical bits, so at one's ACK
        # slot all of them are at theirs.
        ack_bit = k == active[0].enc.ack_idx
        if ack_bit and self._acked(active):
            driven.append(DOMINANT)
        resolved = resolve_bit(driven)

        fault = self._faults.get(t)
        if fault is not None:
            self._emit(EventKind.FAULT_INJECTED, None, None, t)
            resolved = fault

        error = False
        # At the ACK slot every transmitter stays on the wire, whatever the
        # bus shows; elsewhere one whose level differs from the bus's drops out.
        if ack_bit or driven.count(resolved) == len(active):
            still = active
        else:
            still = [entry for entry, level in zip(active, driven) if level == resolved]
            # Without a fault every loser drove recessive under a dominant bus.
            # All transmitters sent identical bits so far, so they stuff alike
            # and lose only at a frame bit. Before the IDE bit every frame is
            # inside its arbitration field and at it only extended frames lose;
            # past it all share one format, so an arbitration field that ended
            # before this bit ended there for all of them. Hence the losers at
            # one bit are all inside their arbitration field or all past it.
            if fault is None and k <= active[driven.index(RECESSIVE)].enc.arb_end:
                kind = EventKind.ARBITRATION_LOST
            else:
                kind = EventKind.ERROR_FRAME
                error = True
            time_s = self._stamp(t)
            self._events += [
                _new_event(TraceEvent, (t, time_s, entry.node.name, kind, entry.frame))
                for entry, level in zip(active, driven) if level != resolved]

        if ack_bit and resolved == RECESSIVE:
            for entry in active:
                self._emit(EventKind.ACK_ERROR, entry.node.name, entry.frame, t)
            error = True

        # Recovery credit for this bit goes to nodes already bus-off before
        # any counter update, so a node that goes bus-off at it starts its
        # 128x11 recessive count on the following bit.
        if self._bus_off:
            self._credit((1,) if resolved == RECESSIVE else (0, 0), t)
        if error:
            return self._fail(active, t)
        if not still:
            # A fault displaced every transmitter inside the arbitration field;
            # treat like an aborted slot and let everyone retry.
            return self._end_slot(t)
        self._active = still
        # Survivors sent identical bits, so their frames have one length.
        if k == still[0].enc.total_len - 1:
            return self._deliver(still, t)
        self._k = k + 1
        self._t = t + 1

    def _fail(self, active: List[QueuedFrame], t: int) -> None:
        """End the slot with an error at bit ``t``: each transmitter books a
        transmit error, every other node on the bus a receive error."""
        skip = {entry.node for entry in active} | self._bus_off
        for entry in active:
            self._apply_counter(entry.node, CounterEvent.TX_ERROR, t)
        for n in self._order:
            if n not in skip:
                self._apply_counter(n, CounterEvent.RX_ERROR, t)
        self._end_slot(t)

    def _deliver(self, still: List[QueuedFrame], t: int) -> None:
        """End the slot at the frame's last EOF bit ``t``: each transmitter's
        queue head is sent, and each accepting node that is not a transmitter
        and was on the bus at every bit from SOF receives the frame once."""
        deliver_t = self._start + still[0].enc.total_len + INTERMISSION_BITS
        # Neither a transmit nor a receive success sends a node bus-off, so
        # one set names every node that does not receive.
        skip = {entry.node for entry in still} | self._bus_off | self._missed
        for entry in still:
            entry.node.queue.remove(entry)
            self._apply_counter(entry.node, CounterEvent.TX_SUCCESS, t)
            entry.node.delivered += 1
        # update_counters returns the state unchanged for RX_SUCCESS at
        # rec == 0, so only receivers with rec > 0 need the call.
        for n in self._order:
            if n.state.rec and n not in skip:
                self._apply_counter(n, CounterEvent.RX_SUCCESS, t)
        frame = still[0].frame
        receivers = self._receivers.get(frame.id)
        if receivers is None:
            receivers = self._receivers[frame.id] = [
                n for n in self._order if n.accepts(frame.id)]
        for n in receivers:
            if n not in skip:
                n.received.append(frame)
        for entry in still:
            self._emit(EventKind.FRAME_DELIVERED, entry.node.name, entry.frame, deliver_t)
        self._end_slot(t)

    # -- convenience -----------------------------------------------------

    def status_lines(self) -> List[str]:
        return [n.status().render() for n in self._order]
