import pytest
from hypothesis import given, strategies as st

from vcanlab import codec
from vcanlab.frame import Frame, FrameId, FrameKind, data_frame, remote_frame
from vcanlab.sensornet import (ADC_MAX, DEFAULT_SETPOINTS_C, MAX_CHANNEL,
                               MonitorVerdict, OutOfRangeError, SensorConfig,
                               SensorReading, adc_sample, build_reading_frame,
                               decode_reading, monitor_evaluate,
                               parse_reading_frame, run_table_experiment,
                               sample_reading, setpoint_from_switches)

CFG = SensorConfig()  # 0..40 C reference range


class TestAdc:
    def test_range_min_is_zero(self):
        assert adc_sample(0.0, CFG) == 0

    def test_range_max_is_full_scale(self):
        assert adc_sample(40.0, CFG) == 1023

    def test_midpoint_rounds_half_up(self):
        assert adc_sample(20.00, CFG) == 512  # round(511.5)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            adc_sample(41.0, CFG)
        with pytest.raises(OutOfRangeError):
            adc_sample(-1.0, CFG)

    def test_monotone_in_temperature(self):
        prev = -1
        for i in range(0, 4001):
            code = adc_sample(i / 100.0, CFG)
            assert code >= prev
            prev = code


class TestDecodeReading:
    def test_code_zero_is_range_min(self):
        assert decode_reading(0, CFG) == 0

    def test_code_512(self):
        assert decode_reading(512, CFG) == 2002  # 20.02 C

    def test_code_409(self):
        assert decode_reading(409, CFG) == 1599  # 15.99 C for set 16.00

    def test_strictly_increasing(self):
        values = [decode_reading(c, CFG) for c in range(1024)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_quantization_error_bound(self):
        # half LSB + rounding: 40/1023/2 + 0.005 C
        bound = CFG.span_c / 1023 / 2 + 0.005
        for i in range(0, 40001):
            t = i / 1000.0
            measured = decode_reading(adc_sample(t, CFG), CFG) / 100.0
            assert abs(measured - t) <= bound + 1e-9


class TestSetpoints:
    def test_table_one_rows(self):
        assert setpoint_from_switches(0) == 20.00
        assert setpoint_from_switches(7) == 22.00

    def test_upper_states_repeat(self):
        for s in range(8, 16):
            assert setpoint_from_switches(s) == setpoint_from_switches(s - 8)

    def test_state_out_of_range(self):
        with pytest.raises(ValueError):
            setpoint_from_switches(16)


class TestReadingFrames:
    def test_payload_layout(self):
        frame = build_reading_frame(CFG, SensorReading(512, 2002))
        assert frame.payload == bytes([0x02, 0x00, 0x07, 0xD2])
        assert frame.dlc == 4 and frame.id.value == 0x100

    def test_zero_reading(self):
        frame = build_reading_frame(CFG, SensorReading(0, 0))
        assert frame.payload == bytes(4)

    def test_roundtrip(self):
        for code in (0, 1, 512, 1023):
            reading = SensorReading(code, decode_reading(code, CFG))
            assert parse_reading_frame(build_reading_frame(CFG, reading)) == reading

    def test_negative_temperature_survives(self):
        cfg = SensorConfig(range_min_c=-10.0, range_max_c=30.0)
        reading = sample_reading(-5.0, cfg)
        assert reading.temperature_centideg < 0
        assert parse_reading_frame(build_reading_frame(cfg, reading)) == reading

    def test_channel_offsets_id(self):
        cfg = SensorConfig(channel=1)
        assert cfg.frame_id.value == 0x101
        assert SensorConfig(channel=MAX_CHANNEL).frame_id.value == 0x7FF

    @pytest.mark.parametrize("channel", [-1, -300, MAX_CHANNEL + 1])
    def test_channel_outside_the_reading_block_rejected(self, channel):
        # Each would give a reading id below 0x100 or past 0x7FF.
        with pytest.raises(ValueError, match=f"^channel {channel} outside"):
            SensorConfig(channel=channel)

    @pytest.mark.parametrize("channel", [True, False, 1.0, 1.5, "1"])
    def test_non_integer_channel_rejected(self, channel):
        # True once gave reading id 0x101, and 1.5 an id the codec cannot lay out.
        with pytest.raises(TypeError, match="^channel must be an integer, got "):
            SensorConfig(channel=channel)


@st.composite
def sensor_configs(draw):
    low = draw(st.floats(-100.0, 100.0))
    span = draw(st.floats(0.5, 200.0))
    return SensorConfig(range_min_c=low, range_max_c=low + span,
                        channel=draw(st.integers(0, MAX_CHANNEL)))


class TestMonitorDecode:
    """The monitor's decode is memoized; each call must give what the
    uncached function gives, and errors must not be cached."""

    @given(sensor_configs())
    def test_every_adc_code_round_trips(self, cfg):
        for code in range(ADC_MAX + 1):
            reading = SensorReading(code, decode_reading(code, cfg))
            frame = build_reading_frame(cfg, reading)
            for _ in range(2):
                got = parse_reading_frame(frame)
                assert got == reading
                assert type(got) is SensorReading
            assert parse_reading_frame.__wrapped__(frame) == reading

    @given(st.integers(0, MAX_CHANNEL), st.integers(0, 8))
    def test_bad_frames_raise_on_every_call(self, channel, dlc):
        ident = FrameId.standard(0x100 + channel)
        bad = [remote_frame(ident.value, dlc), Frame(ident, FrameKind.DATA, 3, bytes(3)),
               # A code past 10 bits fails in SensorReading, after the unpack.
               data_frame(ident.value, bytes([0xFF, 0xFF, 0, 0]))]
        if dlc != 4:
            bad.append(data_frame(ident.value, bytes(dlc)))
        for frame in bad:
            for _ in range(2):
                with pytest.raises(ValueError):
                    parse_reading_frame(frame)

    def test_memo_size_is_the_text_memo_size(self):
        assert parse_reading_frame.cache_info().maxsize == codec.TEXT_CACHE_SIZE

    @given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
           st.floats(0.001, 100.0))
    def test_verdict_type_and_fields(self, reading_c, setpoint_c, tolerance_c):
        verdict = monitor_evaluate(reading_c, setpoint_c, tolerance_c)
        assert type(verdict) is MonitorVerdict
        delta = reading_c - setpoint_c
        assert verdict == MonitorVerdict(abs(delta) <= tolerance_c, delta)
        assert verdict._asdict() == {"in_range": abs(delta) <= tolerance_c,
                                     "delta_c": delta}
        assert type(verdict.in_range) is bool

    def test_verdict_refuses_a_non_positive_tolerance(self):
        for tolerance_c in (0.0, -1.0):
            with pytest.raises(ValueError, match="^tolerance must be positive$"):
                monitor_evaluate(20.0, 20.0, tolerance_c)


class TestMonitor:
    def test_in_range(self):
        assert monitor_evaluate(20.02, 20.00, 0.05).in_range

    def test_deviation(self):
        verdict = monitor_evaluate(25.00, 20.00, 0.05)
        assert not verdict.in_range
        assert verdict.delta_c == pytest.approx(5.00)

    def test_identity(self):
        assert monitor_evaluate(21.5, 21.5, 0.01).in_range


class TestExperiment:
    def test_error_bound_holds_for_all_rows(self):
        rows, set_sum, _ = run_table_experiment(CFG, DEFAULT_SETPOINTS_C)
        assert len(rows) == 8
        for row in rows:
            assert abs(row.error_c) <= 0.02
        assert set_sum == pytest.approx(178.30)

    def test_experiment_deterministic(self):
        a = run_table_experiment(CFG, DEFAULT_SETPOINTS_C)
        b = run_table_experiment(CFG, DEFAULT_SETPOINTS_C)
        assert a == b

    def test_out_of_range_setpoint_propagates(self):
        with pytest.raises(OutOfRangeError):
            run_table_experiment(CFG, [50.0])
