"""Deterministic bit-level CAN 2.0 sensor-network simulator."""

from .frame import (Frame, FrameId, FrameKind, IdOutOfRangeError, Ordering,
                    PayloadTooLongError, arbitration_key, data_frame,
                    make_frame, priority_order, remote_frame)
from .codec import (BitStream, CrcError, DecodeError, DOMINANT, EncodedFrame,
                    FormError, RECESSIVE, StuffError, TruncatedError, crc15,
                    decode_frame, destuff, encode_frame, frame_bit_length,
                    stuff)
from .node import (AcceptanceFilter, BusOffError, CounterEvent, Node,
                   NodeMode, NodeState, NodeStatus, accepts, observe_recovery,
                   update_counters)
from .bus import (Bus, BusConfig, ConfigError, DuplicateNameError, EventKind,
                  RateDistanceError, RateRangeError, ScheduleEntry,
                  ScheduleForDetachedNodeError, TooManyNodesError, TraceEvent,
                  resolve_bit, validate_bus_config)
from .sensornet import (DEFAULT_SETPOINTS_C, ExperimentRow, OutOfRangeError,
                        SensorConfig,
                        SensorReading, adc_sample, build_reading_frame,
                        decode_reading, monitor_evaluate, parse_reading_frame,
                        run_table_experiment, sample_reading,
                        setpoint_from_switches)
from .gateway import (GatewaySession, ParseReason, SerialParseError,
                      format_serial_line, parse_serial_line)
from .scenario import (Scenario, ScenarioSyntaxError, UnknownNodeError,
                       format_trace_event, parse_scenario, render_scenario)

__version__ = "0.1.0"
