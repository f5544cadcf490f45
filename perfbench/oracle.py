"""Frame-level CAN reference model, written apart from vcanlab.

Nothing here imports the simulator. A message is a plain tuple
``(ident, extended, remote, dlc, payload)``; the benchmark converts the
simulator's frames to this form before comparing.

* The wire length comes from an encoder of its own: the CRC-15 is computed
  by polynomial long division over GF(2) on one big integer, and stuff bits
  are counted on a '0'/'1' string.
* The bus model is the fixed-priority, non-preemptive frame model of
  Tindell & Burns (1994) and Davis, Burns, Bril & Lukkien (2007): whenever
  the bus is idle, the pending frame with the lowest arbitration pattern
  starts; it holds the bus for its stuffed length plus the intermission, and
  is delivered at the end of that interval.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Sequence, Tuple

# x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1, with the x^15 term.
CRC15_GENERATOR = 0xC599
INTERMISSION_BITS = 3
# CRC delimiter, ACK slot, ACK delimiter and 7 EOF bits: never stuffed.
TAIL_BITS = 10

Msg = Tuple[int, bool, bool, int, bytes]


def crc15(bits: str) -> int:
    """Remainder of message(x) * x^15 divided by the generator."""
    value = int(bits, 2) << 15
    for shift in range(len(bits) - 1, -1, -1):
        if (value >> (shift + 15)) & 1:
            value ^= CRC15_GENERATOR << shift
    return value


def body_bits(msg: Msg) -> str:
    """SOF through the data field, unstuffed, as a '0'/'1' string."""
    ident, extended, remote, dlc, payload = msg
    rtr = "1" if remote else "0"
    if extended:
        head = f"0{ident >> 18:011b}11{ident & 0x3FFFF:018b}{rtr}00"
    else:
        head = f"0{ident:011b}{rtr}00"
    data = "" if remote else "".join(f"{b:08b}" for b in payload)
    return f"{head}{dlc:04b}{data}"


def stuff_count(bits: str) -> int:
    """Stuff bits a transmitter inserts: one after every five equal levels
    in the stuffed stream, the stuff bit itself starting the next run."""
    count = 0
    level = ""
    run = 0
    for ch in bits:
        if ch == level:
            run += 1
        else:
            level, run = ch, 1
        if run == 5:
            count += 1
            level = "1" if ch == "0" else "0"
            run = 1
    return count


def unstuffed_length(msg: Msg) -> int:
    """Frame length on the wire without stuff bits."""
    return len(body_bits(msg)) + 15 + TAIL_BITS


def wire_length(msg: Msg) -> int:
    """Frame length on the wire, stuff bits included, intermission excluded."""
    body = body_bits(msg)
    region = body + f"{crc15(body):015b}"
    return len(region) + stuff_count(region) + TAIL_BITS


def worst_case_length(msg: Msg) -> int:
    """Davis et al. (2007), eq. (2), less the 3-bit interframe space:
    g + 8s + 10 + floor((g + 8s - 1) / 4), g = 34 (standard) or 54 (extended)."""
    _, extended, remote, dlc, _ = msg
    stuffable = (54 if extended else 34) + (0 if remote else 8 * dlc)
    return stuffable + TAIL_BITS + (stuffable - 1) // 4


def arbitration_pattern(msg: Msg) -> str:
    """Levels driven after SOF until arbitration is decided (0 = dominant):
    standard ID[10:0] RTR IDE=0; extended ID[28:18] SRR=1 IDE=1 ID[17:0] RTR."""
    ident, extended, remote, _, _ = msg
    rtr = "1" if remote else "0"
    if extended:
        return f"{ident >> 18:011b}11{ident & 0x3FFFF:018b}{rtr}"
    return f"{ident:011b}{rtr}0"


class Arrival(NamedTuple):
    bit: int        # bit time the frame reaches its node's queue
    node: str
    msg: Msg


class Delivery(NamedTuple):
    bit: int        # end of frame plus intermission
    node: str
    msg: Msg
    index: int      # position of the arrival in the input list


class Slot(NamedTuple):
    start: int
    contenders: int  # nodes with a pending frame when the slot starts
    index: int       # arrival that won


class BusModel:
    """Fault-free frame-level bus. Wire lengths are memoised per message."""

    def __init__(self) -> None:
        self._length: Dict[Msg, int] = {}
        self._pattern: Dict[Msg, str] = {}

    def length(self, msg: Msg) -> int:
        n = self._length.get(msg)
        if n is None:
            n = self._length[msg] = wire_length(msg)
        return n

    def pattern(self, msg: Msg) -> str:
        p = self._pattern.get(msg)
        if p is None:
            p = self._pattern[msg] = arbitration_pattern(msg)
        return p

    def run(self, arrivals: Sequence[Arrival], horizon: int
            ) -> Tuple[List[Delivery], List[Slot]]:
        """Frames whose last bit falls before ``horizon``, in bus order, and
        the slots that carried them. Within a node, frames with equal
        patterns go in arrival order; arrivals at equal bits keep list order."""
        order = sorted(range(len(arrivals)), key=lambda i: arrivals[i].bit)
        pending: List[Tuple[str, int, int]] = []
        per_node: Dict[str, int] = {}
        deliveries: List[Delivery] = []
        slots: List[Slot] = []
        free = 0
        nxt = 0
        while nxt < len(order) or pending:
            start = free if pending else max(free, arrivals[order[nxt]].bit)
            while nxt < len(order) and arrivals[order[nxt]].bit <= start:
                i = order[nxt]
                heapq.heappush(pending,
                               (self.pattern(arrivals[i].msg), arrivals[i].bit, i))
                per_node[arrivals[i].node] = per_node.get(arrivals[i].node, 0) + 1
                nxt += 1
            _, _, i = heapq.heappop(pending)
            a = arrivals[i]
            length = self.length(a.msg)
            if start + length > horizon:
                break
            end = start + length + INTERMISSION_BITS
            slots.append(Slot(start, len(per_node), i))
            per_node[a.node] -= 1
            if not per_node[a.node]:
                del per_node[a.node]
            deliveries.append(Delivery(end, a.node, a.msg, i))
            free = end
        return deliveries, slots
