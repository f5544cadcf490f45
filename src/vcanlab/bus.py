"""Discrete-event virtual CAN bus in bit-time units.

Wired-AND level resolution, bitwise arbitration among simultaneous
transmitters, ACK slot behavior, fault injection and configuration
validation. One simulation instance is single-threaded and deterministic.
"""

from __future__ import annotations

import bisect
import enum
import gc
import heapq
import operator
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import codec
from .codec import DOMINANT, RECESSIVE
from .frame import Frame, ValidatedTuple
from .node import (AcceptanceFilter, BusOffError, CounterEvent, Node,
                   QueuedFrame, RECOVERY_GROUP_BITS, RECOVERY_GROUPS, accepts,
                   observe_recovery, update_counters)
# Enum members bound once, as node.py explains.
from .node import (_BUS_OFF, _ERROR_ACTIVE, _RX_ERROR, _RX_SUCCESS, _TX_ERROR,
                   _TX_SUCCESS)

MIN_BITRATE_BPS = 20_000
MAX_BITRATE_BPS = 1_000_000
MAX_NODES = 110
INTERMISSION_BITS = 3
_BUS_LEVELS = (DOMINANT, RECESSIVE)
# One bit's level as a WirePlan stream holds it, one byte per bit.
_DOMINANT_BIT = bytes((DOMINANT,))
_RECESSIVE_BIT = bytes((RECESSIVE,))
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
    The distance must be an ``int`` or a ``float`` and ``allow_slow`` a
    ``bool``; a ``bool`` distance is refused, though it is an ``int``.
    """
    if type(bitrate_bps) is not int:
        raise TypeError(f"bitrate must be an integer, got {bitrate_bps!r}")
    if not isinstance(distance_m, (int, float)) or isinstance(distance_m, bool):
        raise TypeError(f"distance must be an int or a float, got {distance_m!r}")
    if type(allow_slow) is not bool:
        raise TypeError(f"allow_slow must be a bool, got {allow_slow!r}")
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

    # Members compare by identity, as frame.FrameKind explains.
    __hash__ = object.__hash__


# Members read on every frame, bound once, as node.py explains.
_ARBITRATION_LOST = EventKind.ARBITRATION_LOST
_FRAME_DELIVERED = EventKind.FRAME_DELIVERED
_FAULT_INJECTED = EventKind.FAULT_INJECTED


class TraceEvent(NamedTuple):
    time_bits: int
    time_s: float
    node: Optional[str]
    kind: EventKind
    frame: Optional[Frame] = None


class _ScheduleEntryFields(NamedTuple):
    time_us: int
    node: str
    frame: Frame


class ScheduleEntry(ValidatedTuple, _ScheduleEntryFields):
    __slots__ = ()

    def __new__(cls, time_us: int, node: str, frame: Frame) -> "ScheduleEntry":
        if type(time_us) is not int:
            raise TypeError(f"schedule time must be an integer, got {time_us!r}")
        if time_us < 0:
            raise ValueError("schedule times must be non-negative")
        return tuple.__new__(cls, (time_us, node, frame))


Schedule = Sequence[ScheduleEntry]

# TraceEvent's generated __new__ is a Python function; the bus passes all
# five fields and builds its events with the tuple constructor directly.
_new_event = tuple.__new__
_FIRST = operator.itemgetter(0)
# A queue head's start event, by whether it was sent before (``attempted``).
_START_KIND = (EventKind.TX_START, EventKind.RETRANSMIT)


def resolve_bit(driven_levels: Sequence[int]) -> int:
    """Wired-AND: dominant wins; an undriven bus idles recessive."""
    return DOMINANT if DOMINANT in driven_levels else RECESSIVE


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
        # The first bit after the last intermission: no frame starts before it.
        self._free = 0
        # The slot in progress: index of the bit being sent, and the queue
        # heads of the transmitters still on the wire, each with its node and
        # wire plan (``enc``); empty when the bus is idle.
        self._k = 0
        self._active: List[QueuedFrame] = []
        self._events: List[TraceEvent] = []
        self._bus_off: Set[Node] = set()
        # Nodes with rec > 0, in the order they got there: only they owe a
        # receive success, which changes nothing at rec == 0.
        self._rx_owing: Dict[Node, None] = {}
        # Wire plans by frame: each distinct frame sent in a run() call is
        # laid out once. Cleared at each call, so slices keep few plans.
        self._plans: Dict[Frame, codec.WirePlan] = {}
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
        if type(at_bit) is not int:
            raise TypeError(f"fault bit must be an integer, got {at_bit!r}")
        if type(level) is not int:
            raise TypeError(f"fault level must be an integer, got {level!r}")
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

    def _emit_faults(self, bits: Sequence[int]) -> None:
        self._events += [_new_event(TraceEvent, (bit, self._stamp(bit), None,
                                                 _FAULT_INJECTED, None))
                         for bit in bits]

    def _apply_counter(self, node: Node, event: CounterEvent, t: int) -> None:
        old = node.state
        new = node.state = update_counters(old, event)
        if new.rec:
            self._rx_owing[node] = None
        else:
            self._rx_owing.pop(node, None)
        if new.mode is _BUS_OFF and old.mode is not _BUS_OFF:
            node.partial_recessive = 0
            self._bus_off.add(node)
            self._emit(EventKind.BUS_OFF_ENTERED, node.name, None, t)

    def _credit(self, levels: bytes, t: int, faults: Sequence[int] = ()) -> int:
        """Credit the bits from ``t`` on to each bus-off node's recovery count,
        and return how many were credited.

        ``levels`` are the stretch's bus levels, one byte per bit. The credit
        ends with the first bit at which a node completes its last group; the
        nodes that do so there rejoin the bus, in attach order. ``faults`` are
        the stretch's fault bits in order: each one credited gets its
        ``FaultInjected`` event, ahead of the recoveries, as stepping gives.
        """
        n = len(levels)
        runs = [len(run) for run in levels.split(_DOMINANT_BIT)]
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
                        return self._credit(levels[:used + need], t, faults)
                    state = observe_recovery(state, end)
                used += run + 1
                partial = 0  # the dominant bit after a run restarts the count
            counts.append((node, state, end % RECOVERY_GROUP_BITS))
        if faults:
            self._emit_faults(faults[:bisect.bisect_left(faults, t + n)])
        rejoined = []
        for node, state, partial in counts:
            node.state, node.partial_recessive = state, partial
            if state.mode is not _BUS_OFF:
                rejoined.append(node)
        if rejoined:
            rejoined.sort(key=self._order.index)
            self._bus_off.difference_update(rejoined)
            self._missed.update(rejoined)
            for node in rejoined:
                self._rx_owing.pop(node, None)
                self._emit(EventKind.BUS_OFF_RECOVERED, node.name, None, t + n - 1)
        return n

    def _acked(self, active: List[QueuedFrame]) -> bool:
        """Whether an error-active node that is not among the ``active``
        transmitters will drive their ACK slot dominant."""
        for n in self._order:
            if n.state.mode is _ERROR_ACTIVE:
                for entry in active:
                    if entry.node is n:
                        break
                else:
                    return True
        return False

    def _queued(self) -> bool:
        """Whether a node on the bus has a frame queued."""
        off = self._bus_off
        for n in self._order:
            if n.queue and n not in off:
                return True
        return False

    def _faults_in(self, t: int, stop: int) -> List[int]:
        """The fault bits from ``t`` up to ``stop``, in order."""
        bits = self._fault_bits
        i = bisect.bisect_left(bits, t)
        return bits[i:bisect.bisect_left(bits, stop, i)]

    # -- simulation ------------------------------------------------------

    def run(self, schedule: Schedule = (), until_bits: int = 0) -> List[TraceEvent]:
        """Advance the simulation to ``until_bits``, merging ``schedule``, a
        sequence (it is read twice: its nodes are all checked first, so an
        entry for a detached node raises before any entry is queued).

        Returns the trace events generated during this call; repeated calls
        continue from where the previous one stopped. No bit at or past
        ``until_bits`` is simulated, so the bus then stands at ``until_bits``;
        a horizon behind ``now`` raises ``ValueError``, and one that is not an
        integer ``TypeError``; either changes nothing.

        The cyclic garbage collector is off for the call and left as the
        caller had it. A run leaves no cyclic garbage, so a collection inside
        the call would free nothing; it would only walk the call's trace
        events, a tuple each, again and again.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            if type(until_bits) is not int:
                raise TypeError(f"horizon must be an integer, got {until_bits!r}")
            if until_bits < self._t:
                raise ValueError(
                    f"horizon {until_bits} is behind the bus, which stands at {self._t}")
            nodes = self.nodes
            for entry in schedule:
                if entry.node not in nodes:
                    raise ScheduleForDetachedNodeError(
                        f"schedule references unattached node {entry.node!r}")
            arrival_bit = self.arrival_bit
            items = [(arrival_bit(time_us), seq, nodes[name], frame)
                     for seq, (time_us, name, frame)
                     in enumerate(schedule, self._pending_seq + 1)]
            if items:
                self._pending_seq = items[-1][1]
                # Sequence numbers are unique, so ties never compare nodes.
                items.sort()
                self._pending = deque(heapq.merge(self._pending, items))

            # Node states and filters may have been assigned since the last call.
            self._bus_off = {n for n in self._order if n.state.mode is _BUS_OFF}
            self._rx_owing = dict.fromkeys(n for n in self._order if n.state.rec)
            if self._active:
                # A transmitter set bus-off since then leaves the wire; its frame
                # stays queued. With none left, the slot ends as if aborted at
                # the last bit simulated.
                self._active = [e for e in self._active if e.node not in self._bus_off]
                if not self._active:
                    self._end_slot(self._t - 1)
            self._plans.clear()
            self._events = []
            while self._t < until_bits:
                self._step(until_bits)
            return self._events
        finally:
            if enabled:
                gc.enable()

    def _pop_arrivals(self, t: int) -> None:
        """Submit the frames that arrive at or before bit ``t``."""
        while self._pending and self._pending[0][0] <= t:
            _, _, node, frame = self._pending.popleft()
            try:
                node.submit(frame)
            except BusOffError:
                pass  # dropped: sender is off the bus

    def _step(self, until_bits: int) -> None:
        t = self._t
        pending = self._pending
        if pending and pending[0][0] <= t:
            self._pop_arrivals(t)
        active = self._active
        if not active and t >= self._free:
            off = self._bus_off
            active = [n.queue[0] for n in self._order if n.queue and n not in off]
            if active:
                time_s = self._stamp(t)
                events = self._events
                plans = self._plans
                for entry in active:
                    events.append(_new_event(TraceEvent, (
                        t, time_s, entry.node.name, _START_KIND[entry.attempted], entry.frame)))
                    entry.attempted = True
                    if entry.enc is None:
                        plan = plans.get(entry.frame)
                        if plan is None:
                            plan = plans[entry.frame] = codec.wire_plan(entry.frame)
                        entry.enc = plan
                self._missed.clear()
                self._active = active
                self._k = 0
        if active:
            if self._SKIP and self._skip(t, until_bits):
                return
            return self._tx_bit(self._t, until_bits)
        self._idle(t, until_bits)

    def _idle(self, t: int, until_bits: int) -> None:
        """Advance through the intermission or idle bus from bit ``t``, whose
        arrivals are queued.

        Only a fault drives the bus, its level read by nothing but the
        bus-off nodes' recovery count, and no frame can start before the
        intermission ends. So the bus may jump to the next arrival or the
        horizon, over any faults, crediting the bits it skips to the bus-off
        nodes, laid out recessive but for the faults; while a node on the bus
        has a frame queued, only to the intermission's end. While no node is
        bus-off, no arrival can be refused and no mode can change before
        that end, so the arrivals up to it (and short of the horizon) are
        queued at once, and the jump does not stop at each. A node that
        recovers in the stretch may hold a queued frame, so the jump ends
        with the bit it recovers at, and the faults after that bit are left
        to the next step. While a node is bus-off the jump is at most one
        whole recovery long, so its layout never grows with the horizon.
        """
        nxt = t + 1
        if self._SKIP:
            pending = self._pending
            if pending and pending[0][0] < self._free and not self._bus_off:
                self._pop_arrivals(min(self._free, until_bits) - 1)
            nxt = pending[0][0] if pending and pending[0][0] < until_bits else until_bits
            if nxt > self._free > t and self._queued():
                nxt = self._free
        if self._bus_off:
            nxt = min(nxt, t + RECOVERY_GROUPS * RECOVERY_GROUP_BITS)
            faults = self._faults_in(t, nxt)
            levels = bytearray(_RECESSIVE_BIT) * (nxt - t)
            for bit in faults:
                levels[bit - t] = self._faults[bit]
            nxt = t + self._credit(levels, t, faults)
        elif self._fault_bits:
            faults = self._faults_in(t, nxt)
            if faults:
                self._emit_faults(faults)
        self._t = nxt

    def _end_slot(self, t: int) -> None:
        self._active = []
        self._t = t + 1
        self._free = t + 1 + INTERMISSION_BITS

    def _skip(self, t: int, until_bits: int) -> bool:
        """Skip ahead through the slot in progress, whose bit ``t`` is next,
        and return whether that ended the step. The step that starts a slot
        comes here from its SOF.

        A transmitter drives its frame's arbitration key after SOF, most
        significant bit first, so a loser drops out at the first key bit in
        which it differs from the lowest key. Up to that bit the two sent the
        same levels, and so the same stuff bits: the plan of a survivor, a
        transmitter of the lowest key, maps the bit to its stuffed index.
        Survivors stay on the wire together while they send one stream, so
        a tie of different frames (one key, other data) is skipped only up
        to the first bit where their streams part. With several transmitters
        the skip refuses, leaving bit ``t`` to :meth:`_tx_bit`, while a node
        is bus-off, at a fault at ``t`` and at that parting bit. The losers
        that drop out inside the stretch get their ``ArbitrationLost`` events
        by drop bit, then in attach order, as stepping gives; the others stay
        on the wire.

        Only a bus-off node's recovery can change a mode inside the frame, and
        the skip ends with that. The skip covers bits k .. stop - 1. It passes
        each fault past the last drop that shows the level the bus shows at
        its bit anyway: the survivors' own level, or dominant at an ACK slot
        another node acknowledges. Such a fault changes only the trace, which
        gets its ``FaultInjected`` event. The skip stops at the first other
        fault, which is stepped, and at the horizon, so the ACK slot is
        decided by the run that simulates it; and before the ACK slot unless
        another node will ACK. Otherwise it runs through the last EOF bit,
        delivers the frame and goes on through the intermission as
        :meth:`_idle`.
        """
        active = survivors = self._active
        k = self._k
        drop = -1  # the stuffed index of the last drop, if a loser is left
        room = until_bits - t  # the bits the stretch may cover
        if len(active) > 1:
            # A fault at bit t, the commonest under a burst, refuses before
            # any work.
            if self._bus_off or t in self._faults:
                return False
            keys = [entry.key[0] for entry in active]
            win = min(keys)
            # A key is left-aligned in 32 bits after SOF: its differing bit of
            # highest order, at ``length - 1``, is unstuffed index 33 - length.
            # By drop bit, the survivors' 0 last; a stable sort, so the losers
            # at one bit keep their attach order.
            lengths = [(key ^ win).bit_length() for key in keys]
            ranked = sorted(zip(lengths, active), key=_FIRST, reverse=True)
            tied = keys.count(win)
            survivors = [entry for _, entry in ranked[-tied:]]
            if tied > 1:
                # Survivors that part at bit ``split`` go on together to it;
                # equal keys send equal levels through the field, so it lies
                # past the last drop.
                streams = [entry.enc.stream for entry in survivors]
                lo, hi = min(streams), max(streams)
                if lo != hi:
                    split = k
                    while lo[split] == hi[split]:
                        split += 1
                    if split == k:
                        return False
                    room = min(room, split - k)
            if tied < len(active):
                after = survivors[0].enc.stuff_after
                u = 33 - ranked[-tied - 1][0]
                drop = u + bisect.bisect_left(after, u)
        plan = survivors[0].enc
        end = plan.total_len
        ack = plan.ack_idx
        stop = end if k > ack or self._acked(survivors) else ack
        stop = stop if stop - k <= room else k + room
        faults = self._faults_in(t, t + stop - k) if self._fault_bits else ()
        # An ACK slot inside the stretch is another node's ACK: dominant. A
        # fault up to the last drop is stepped: its event goes before the
        # drops after it, and at a drop bit it may turn a loss into an error.
        for bit in faults:
            j = k + bit - t
            if j <= drop or self._faults[bit] != (DOMINANT if j == ack else plan.stream[j]):
                stop = j
                del faults[faults.index(bit):]
                break
        if stop == k:
            return False
        if drop >= 0:
            events = self._events
            seen = 0
            for length, entry in ranked:
                if length != seen:
                    u = 33 - length
                    j = u + bisect.bisect_left(after, u)
                    if not length or j >= stop:
                        break  # the survivors, or the losers past the stretch
                    seen = length
                    bit = t + j - k
                    time_s = self._stamp(bit)
                events.append(_new_event(TraceEvent, (
                    bit, time_s, entry.node.name, _ARBITRATION_LOST, entry.frame)))
            # Cut short inside the field, the contenders not yet out stay on
            # the wire, in attach order.
            if drop >= stop:
                survivors = [entry for n, entry in zip(lengths, active) if n <= length]
        if self._bus_off:
            # A frame that arrives for a bus-off node is dropped, so no
            # recovery is credited before the arrivals up to its bit.
            if self._pending:
                stop = min(stop, k + self._pending[0][0] - t)
            # An ACK slot inside the stretch is another node's ACK.
            levels = plan.stream[k:stop]
            if k <= ack < stop:
                levels = levels[:ack - k] + _DOMINANT_BIT + levels[ack - k + 1:]
            stop = k + self._credit(levels, t, faults)
        elif faults:
            self._emit_faults(faults)
        t += stop - k
        # The arrivals are queued up to ``t``, or to the run's last bit. A
        # delivery moves no node into or out of bus-off, which alone decides
        # whether an arrival is queued, so those at ``t`` may go before it.
        more = t < until_bits
        last = t if more else t - 1
        pending = self._pending
        if pending and pending[0][0] <= last:
            self._pop_arrivals(last)
        if stop == end:
            # Unless the run ends with the frame, the step then does the next
            # step's work but its slot start: no frame starts in the
            # intermission.
            self._deliver(survivors, t - 1)
            if more:
                self._idle(t, until_bits)
            return True
        # The skip ends the run at its last bit, or the step goes on at ``t``.
        self._active = survivors
        self._k = stop
        self._t = t
        return not more

    def _tx_bit(self, t: int, until_bits: int) -> None:
        active = self._active
        k = self._k
        driven = [entry.enc.stream[k] for entry in active]
        # Transmitters still on the wire sent identical bits, so at one's ACK
        # slot all of them are at theirs.
        ack_bit = k == active[0].enc.ack_idx
        if ack_bit and self._acked(active):
            driven.append(DOMINANT)
        resolved = resolve_bit(driven)

        fault = self._faults.get(t)
        if fault is not None:
            self._emit(_FAULT_INJECTED, None, None, t)
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
                kind = _ARBITRATION_LOST
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
            self._credit(_RECESSIVE_BIT if resolved == RECESSIVE else _DOMINANT_BIT, t)
        if error:
            return self._fail(active, t)
        # Only a fault can displace every transmitter, and that is an error.
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
            self._apply_counter(entry.node, _TX_ERROR, t)
        for n in self._order:
            if n not in skip:
                self._apply_counter(n, _RX_ERROR, t)
        self._end_slot(t)

    def _deliver(self, still: List[QueuedFrame], t: int) -> None:
        """End the slot at the frame's last EOF bit ``t``: each transmitter's
        queue head is sent, and each accepting node that is not a transmitter
        and was on the bus at every bit from SOF receives the frame once."""
        deliver_t = self._free = t + 1 + INTERMISSION_BITS
        time_s = self._stamp(deliver_t)
        events = self._events
        # Neither a transmit nor a receive success sends a node bus-off, so
        # one collection names every node that does not receive.
        skip = self._bus_off | self._missed
        # A success at a zero counter changes nothing, so only a transmitter
        # with tec > 0 and a receiver with rec > 0 need the update.
        for entry in still:
            node = entry.node
            node.queue.remove(entry)
            if node.state.tec:
                self._apply_counter(node, _TX_SUCCESS, t)
            node.delivered += 1
            skip.add(node)
            events.append(_new_event(TraceEvent, (
                deliver_t, time_s, node.name, _FRAME_DELIVERED, entry.frame)))
        if self._rx_owing:
            for n in [n for n in self._rx_owing if n not in skip]:
                self._apply_counter(n, _RX_SUCCESS, t)
        frame = still[0].frame
        frame_id = frame.id
        for n in self._order:
            if n not in skip and (n.filter is None or accepts(n.filter, frame_id)):
                n.received.append(frame)
        self._active = []
        self._t = t + 1

    # -- convenience -----------------------------------------------------

    def status_lines(self) -> List[str]:
        return [n.status().render() for n in self._order]
