import pytest

from vcanlab.sensornet import (DEFAULT_SETPOINTS_C, MAX_CHANNEL, OutOfRangeError,
                               SensorConfig, SensorReading, adc_sample,
                               build_reading_frame, decode_reading,
                               monitor_evaluate, parse_reading_frame,
                               run_table_experiment, sample_reading,
                               setpoint_from_switches)

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
