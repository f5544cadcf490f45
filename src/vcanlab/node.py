"""Per-node controller state: acceptance filtering, transmit queue and
fault confinement (error-active / error-passive / bus-off with recovery)."""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from .frame import Frame, FrameId, arbitration_key

ERROR_PASSIVE_LIMIT = 127   # counter above this -> error-passive
BUS_OFF_LIMIT = 255         # tec above this -> bus-off
TX_ERROR_STEP = 8
RECOVERY_GROUP_BITS = 11    # one recovery group = 11 consecutive recessive bits
RECOVERY_GROUPS = 128


class BusOffError(RuntimeError):
    """The node has closed itself off the bus and cannot transmit."""


class InvalidStateError(RuntimeError):
    """Operation only valid in a different fault-confinement mode."""


class NodeMode(enum.Enum):
    ERROR_ACTIVE = "error-active"
    ERROR_PASSIVE = "error-passive"
    BUS_OFF = "bus-off"


class CounterEvent(enum.Enum):
    TX_SUCCESS = "tx_success"
    TX_ERROR = "tx_error"
    RX_SUCCESS = "rx_success"
    RX_ERROR = "rx_error"


# Members read on every counter update, here and in bus.py, bound once: on
# Python 3.11 a member read such as ``NodeMode.BUS_OFF`` costs about 130 ns
# against 12 ns for a global, because ``EnumType`` defines ``__getattr__``.
_ERROR_ACTIVE = NodeMode.ERROR_ACTIVE
_ERROR_PASSIVE = NodeMode.ERROR_PASSIVE
_BUS_OFF = NodeMode.BUS_OFF
_TX_SUCCESS = CounterEvent.TX_SUCCESS
_TX_ERROR = CounterEvent.TX_ERROR
_RX_SUCCESS = CounterEvent.RX_SUCCESS
_RX_ERROR = CounterEvent.RX_ERROR


@dataclass(frozen=True)
class AcceptanceFilter:
    """Code/mask pair: an id matches when (id & mask) == (code & mask)."""

    code: int
    mask: int
    extended: bool = False

    def __post_init__(self) -> None:
        width = 29 if self.extended else 11
        if not 0 <= self.code < (1 << width) or not 0 <= self.mask < (1 << width):
            raise ValueError(f"filter code/mask must fit {width} bits")


def accepts(filt: AcceptanceFilter, frame_id: FrameId) -> bool:
    if filt.extended != frame_id.extended:
        return False
    return (frame_id.value & filt.mask) == (filt.code & filt.mask)


class NodeState(NamedTuple):
    """A node's error counters, fault-confinement mode and completed recovery
    groups. A named tuple: it compares equal to a plain tuple of its fields."""

    tec: int = 0
    rec: int = 0
    mode: NodeMode = NodeMode.ERROR_ACTIVE
    recessive_run_groups: int = 0


# NodeState's generated __new__ is a Python function; the counter updates pass
# all four fields and build their states with the tuple constructor directly.
_new_state = tuple.__new__


def _mode_for(tec: int, rec: int, bus_off: bool) -> NodeMode:
    if bus_off:
        return _BUS_OFF
    if tec > ERROR_PASSIVE_LIMIT or rec > ERROR_PASSIVE_LIMIT:
        return _ERROR_PASSIVE
    return _ERROR_ACTIVE


def update_counters(state: NodeState, event: CounterEvent) -> NodeState:
    """Apply one error/success event and recompute the mode.

    Transmit errors add 8, receive errors 1; successes decrement toward zero.
    Entering bus-off preserves everything else (the queue survives recovery).
    An event that changes nothing returns ``state`` itself, so a success at a
    zero counter, such as ``RX_SUCCESS`` at ``rec == 0``, is a no-op.
    """
    tec, rec = state.tec, state.rec
    if event is _TX_ERROR:
        tec += TX_ERROR_STEP
    elif event is _RX_ERROR:
        rec += 1
    elif event is _TX_SUCCESS:
        tec = max(tec - 1, 0)
    elif event is _RX_SUCCESS:
        rec = max(rec - 1, 0)
    bus_off = state.mode is _BUS_OFF or tec > BUS_OFF_LIMIT
    mode = _mode_for(tec, rec, bus_off)
    if tec == state.tec and rec == state.rec and mode is state.mode:
        return state
    return _new_state(NodeState, (tec, rec, mode, state.recessive_run_groups))


def observe_recovery(state: NodeState, consecutive_recessive_bits: int) -> NodeState:
    """Credit a run of recessive bus bits toward bus-off recovery.

    Each complete group of 11 recessive bits counts once; after 128 groups the
    node rejoins error-active with cleared counters. A run that completes no
    group returns ``state`` itself.
    """
    if state.mode is not _BUS_OFF:
        raise InvalidStateError("recovery only applies to a bus-off node")
    if consecutive_recessive_bits < 0:
        raise ValueError(
            f"recessive bit count must be non-negative, got {consecutive_recessive_bits}")
    completed = consecutive_recessive_bits // RECOVERY_GROUP_BITS
    if not completed:
        return state
    groups = state.recessive_run_groups + completed
    if groups >= RECOVERY_GROUPS:
        return NodeState()
    return _new_state(NodeState, (state.tec, state.rec, state.mode, groups))


@dataclass(frozen=True)
class NodeStatus:
    name: str
    mode: NodeMode
    tec: int
    rec: int
    queue_depth: int
    delivered_count: int

    def render(self) -> str:
        return (f"{self.name} mode={self.mode.value} tec={self.tec} "
                f"rec={self.rec} queued={self.queue_depth} delivered={self.delivered_count}")


_seq = itertools.count()


class QueuedFrame:
    """Transmit-queue entry; orders by arbitration priority, then submit order."""

    __slots__ = ("frame", "node", "key", "attempted", "enc")

    def __init__(self, frame: Frame, node: "Node"):
        self.frame = frame
        self.node = node
        self.key = (arbitration_key(frame), next(_seq))
        self.attempted = False
        self.enc = None  # lazily built transmission plan (set by the bus)

    def __lt__(self, other: "QueuedFrame") -> bool:
        return self.key < other.key


class Node:
    """A controller attached to one bus; owned and mutated by its simulation."""

    def __init__(self, name: str, accept_filter: Optional[AcceptanceFilter] = None):
        self.name = name
        self.filter = accept_filter
        self.state = NodeState()
        self.queue: List[QueuedFrame] = []
        self.delivered = 0
        self.received: List[Frame] = []
        self.partial_recessive = 0  # recessive bits toward the next recovery group

    def submit(self, frame: Frame) -> None:
        """Queue a frame for transmission, ordered by arbitration priority."""
        if self.state.mode is _BUS_OFF:
            raise BusOffError(f"node {self.name} is bus-off")
        bisect.insort(self.queue, QueuedFrame(frame, self))

    def status(self) -> NodeStatus:
        return NodeStatus(self.name, self.state.mode, self.state.tec,
                          self.state.rec, len(self.queue), self.delivered)
