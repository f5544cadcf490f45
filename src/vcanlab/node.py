"""Per-node controller state: acceptance filtering, transmit queue and
fault confinement (error-active / error-passive / bus-off with recovery)."""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass, replace
from typing import List, Optional

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


@dataclass(frozen=True)
class NodeState:
    tec: int = 0
    rec: int = 0
    mode: NodeMode = NodeMode.ERROR_ACTIVE
    recessive_run_groups: int = 0


def _mode_for(tec: int, rec: int, bus_off: bool) -> NodeMode:
    if bus_off:
        return NodeMode.BUS_OFF
    if tec > ERROR_PASSIVE_LIMIT or rec > ERROR_PASSIVE_LIMIT:
        return NodeMode.ERROR_PASSIVE
    return NodeMode.ERROR_ACTIVE


def update_counters(state: NodeState, event: CounterEvent) -> NodeState:
    """Apply one error/success event and recompute the mode.

    Transmit errors add 8, receive errors 1; successes decrement toward zero.
    Entering bus-off preserves everything else (the queue survives recovery).
    An event that changes nothing returns ``state`` itself, so a success at a
    zero counter, such as ``RX_SUCCESS`` at ``rec == 0``, is a no-op.
    """
    tec, rec = state.tec, state.rec
    if event is CounterEvent.TX_ERROR:
        tec += TX_ERROR_STEP
    elif event is CounterEvent.RX_ERROR:
        rec += 1
    elif event is CounterEvent.TX_SUCCESS:
        tec = max(tec - 1, 0)
    elif event is CounterEvent.RX_SUCCESS:
        rec = max(rec - 1, 0)
    bus_off = state.mode is NodeMode.BUS_OFF or tec > BUS_OFF_LIMIT
    mode = _mode_for(tec, rec, bus_off)
    if tec == state.tec and rec == state.rec and mode is state.mode:
        return state
    return NodeState(tec, rec, mode, state.recessive_run_groups)


def observe_recovery(state: NodeState, consecutive_recessive_bits: int) -> NodeState:
    """Credit a run of recessive bus bits toward bus-off recovery.

    Each complete group of 11 recessive bits counts once; after 128 groups the
    node rejoins error-active with cleared counters.
    """
    if state.mode is not NodeMode.BUS_OFF:
        raise InvalidStateError("recovery only applies to a bus-off node")
    groups = state.recessive_run_groups + consecutive_recessive_bits // RECOVERY_GROUP_BITS
    if groups >= RECOVERY_GROUPS:
        return NodeState()
    return replace(state, recessive_run_groups=groups)


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

    __slots__ = ("frame", "key", "seq", "attempted", "enc")

    def __init__(self, frame: Frame):
        self.frame = frame
        self.key = (arbitration_key(frame), next(_seq))
        self.seq = self.key[1]
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
        if self.state.mode is NodeMode.BUS_OFF:
            raise BusOffError(f"node {self.name} is bus-off")
        bisect.insort(self.queue, QueuedFrame(frame))

    def accepts(self, frame_id: FrameId) -> bool:
        return self.filter is None or accepts(self.filter, frame_id)

    def status(self) -> NodeStatus:
        return NodeStatus(self.name, self.state.mode, self.state.tec,
                          self.state.rec, len(self.queue), self.delivered)
