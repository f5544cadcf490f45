"""Temperature sensor network over the virtual bus.

Sensor nodes quantize temperature through a 10-bit ADC, pick their set-point
from four switch inputs, and broadcast readings a monitor node decodes and
checks against the set-point.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from . import codec
from .bus import Bus, BusConfig, ScheduleEntry
from .frame import MAX_STANDARD_ID, Frame, FrameId, ValidatedTuple
# Enum members bound once, as frame.py explains.
from .frame import _DATA

ADC_BITS = 10
ADC_MAX = (1 << ADC_BITS) - 1

# Default switch-selected set-points, degrees C; states 8..15 repeat 0..7.
DEFAULT_SETPOINTS_C = (20.00, 22.50, 23.00, 25.30, 30.00, 16.00, 19.50, 22.00)
DEFAULT_SETPOINT_TABLE = DEFAULT_SETPOINTS_C * 2

# Channel n reports as standard id READING_BASE_ID + n, so channels run
# from 0 to MAX_CHANNEL, whose reading id is the last standard id.
READING_BASE_ID = 0x100
MAX_CHANNEL = MAX_STANDARD_ID - READING_BASE_ID


class OutOfRangeError(ValueError):
    """Temperature outside the ADC reference range by more than one LSB."""


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class SensorConfig:
    node_name: str = "sensor0"
    range_min_c: float = 0.0
    range_max_c: float = 40.0
    channel: int = 0

    def __post_init__(self) -> None:
        if not self.range_min_c < self.range_max_c:
            raise ValueError("range_min_c must be below range_max_c")
        if type(self.channel) is not int:
            raise TypeError(f"channel must be an integer, got {self.channel!r}")
        if not 0 <= self.channel <= MAX_CHANNEL:
            raise ValueError(
                f"channel {self.channel} outside 0..0x{MAX_CHANNEL:X}: its reading id "
                f"0x{READING_BASE_ID:X} + channel must be a standard id")

    @property
    def span_c(self) -> float:
        return self.range_max_c - self.range_min_c

    @property
    def frame_id(self) -> FrameId:
        return FrameId.standard(READING_BASE_ID + self.channel)


class _SensorReadingFields(NamedTuple):
    adc_code: int
    temperature_centideg: int


class SensorReading(ValidatedTuple, _SensorReadingFields):
    __slots__ = ()

    def __new__(cls, adc_code: int, temperature_centideg: int) -> "SensorReading":
        if not 0 <= adc_code <= ADC_MAX:
            raise ValueError("adc_code must fit 10 bits")
        return tuple.__new__(cls, (adc_code, temperature_centideg))

    @property
    def temperature_c(self) -> float:
        return self.temperature_centideg / 100.0


@dataclass(frozen=True)
class ExperimentRow:
    test_no: int
    set_c: float
    measured_c: float
    error_c: float


class MonitorVerdict(NamedTuple):
    in_range: bool
    delta_c: float


# MonitorVerdict's generated __new__ is a Python function; the monitor passes
# both fields and builds its verdicts with the tuple constructor directly.
_new_verdict = tuple.__new__


def adc_sample(true_temp_c: float, cfg: SensorConfig) -> int:
    """Quantize a temperature to a 10-bit code, round half up, clamped."""
    lsb = cfg.span_c / ADC_MAX
    if (true_temp_c < cfg.range_min_c - lsb
            or true_temp_c > cfg.range_max_c + lsb):
        raise OutOfRangeError(
            f"{true_temp_c} outside [{cfg.range_min_c}, {cfg.range_max_c}]")
    code = _round_half_up((true_temp_c - cfg.range_min_c) / cfg.span_c * ADC_MAX)
    return min(max(code, 0), ADC_MAX)


def decode_reading(adc_code: int, cfg: SensorConfig) -> int:
    """Engineering units from a code: centidegrees, rounded half up."""
    if not 0 <= adc_code <= ADC_MAX:
        raise ValueError("adc_code must fit 10 bits")
    temp = cfg.range_min_c + adc_code * cfg.span_c / ADC_MAX
    return _round_half_up(temp * 100.0)


def setpoint_from_switches(switch_state: int, table: Sequence[float] = DEFAULT_SETPOINT_TABLE) -> float:
    if not 0 <= switch_state < 16:
        raise ValueError("switch_state must be 0..15")
    return table[switch_state]


def sample_reading(true_temp_c: float, cfg: SensorConfig) -> SensorReading:
    code = adc_sample(true_temp_c, cfg)
    return SensorReading(code, decode_reading(code, cfg))


def build_reading_frame(cfg: SensorConfig, reading: SensorReading) -> Frame:
    """4-byte data frame: big-endian adc code then signed centidegrees."""
    payload = struct.pack(">Hh", reading.adc_code, reading.temperature_centideg)
    return Frame(cfg.frame_id, _DATA, 4, payload)


# Readings repeat, and equal frames decode to equal readings, so the monitor's
# decode is memoized as the text codec is (:data:`codec.TEXT_CACHE_SIZE`
# distinct frames). Errors are not cached: a bad frame raises on every call.
@lru_cache(maxsize=codec.TEXT_CACHE_SIZE)
def parse_reading_frame(frame: Frame) -> SensorReading:
    if frame.kind is not _DATA or frame.dlc != 4:
        raise ValueError("not a sensor reading frame")
    code, centideg = struct.unpack(">Hh", frame.payload)
    return SensorReading(code, centideg)


def monitor_evaluate(reading_c: float, setpoint_c: float,
                     tolerance_c: float) -> MonitorVerdict:
    if tolerance_c <= 0:
        raise ValueError("tolerance must be positive")
    delta = reading_c - setpoint_c
    return _new_verdict(MonitorVerdict, (abs(delta) <= tolerance_c, delta))


def run_table_experiment(cfg: SensorConfig, setpoints: Sequence[float] = DEFAULT_SETPOINTS_C
                         ) -> Tuple[List[ExperimentRow], float, float]:
    """Measure each set-point end to end over a two-node bus.

    For every set-point the sensor holds exactly that temperature, samples it,
    transmits the reading and the monitor decodes it. Returns the rows plus the
    sums of the set and measured columns.
    """
    rows: List[ExperimentRow] = []
    for i, set_c in enumerate(setpoints, start=1):
        reading = sample_reading(set_c, cfg)
        bus = Bus(BusConfig())
        bus.attach_node(cfg.node_name)
        monitor = bus.attach_node("monitor")
        bus.run([ScheduleEntry(0, cfg.node_name, build_reading_frame(cfg, reading))],
                until_bits=2_000)
        if len(monitor.received) != 1:
            raise RuntimeError("sensor reading was not delivered")
        measured = parse_reading_frame(monitor.received[0]).temperature_c
        rows.append(ExperimentRow(i, set_c, measured, round(measured - set_c, 2)))
    set_sum = round(sum(r.set_c for r in rows), 2)
    measured_sum = round(sum(r.measured_c for r in rows), 2)
    return rows, set_sum, measured_sum
