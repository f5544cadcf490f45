import random
import subprocess
import sys

import pytest
from hypothesis import given, reject, strategies as st

from vcanlab.bus import (Bus, BusConfig, ConfigError, EventKind,
                         RateDistanceError, RateRangeError, ScheduleEntry,
                         TraceEvent, validate_bus_config)
from vcanlab.cli import main
from vcanlab.frame import data_frame
from vcanlab.gateway import parse_serial_line
from vcanlab.node import AcceptanceFilter
from vcanlab.scenario import (Scenario, ScenarioSyntaxError, UnknownNodeError,
                              format_trace_event, parse_scenario,
                              render_scenario)

from oracles import format_trace_event_reference, random_frame

GOOD = """\
bitrate=1000000
distance_m=40
node a
node b
0 a t1232ABCD
"""


@st.composite
def filters(draw):
    extended = draw(st.booleans())
    top = (1 << (29 if extended else 11)) - 1
    return AcceptanceFilter(draw(st.integers(0, top)), draw(st.integers(0, top)),
                            extended)


class TestParseScenario:
    def test_basic(self):
        sc = parse_scenario(GOOD)
        assert sc.bitrate_bps == 1_000_000
        assert [n for n, _ in sc.nodes] == ["a", "b"]
        assert len(sc.schedule) == 1
        assert sc.schedule[0].frame == data_frame(0x123, b"\xab\xcd")

    def test_config_error(self):
        bad = GOOD.replace("distance_m=40", "distance_m=100")
        with pytest.raises(ConfigError):
            parse_scenario(bad)

    def test_config_error_keeps_its_subclass(self):
        with pytest.raises(RateDistanceError):
            parse_scenario(GOOD.replace("distance_m=40", "distance_m=100"))
        with pytest.raises(RateRangeError):
            parse_scenario(GOOD.replace("bitrate=1000000", "bitrate=2000000"))

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            parse_scenario(GOOD + "0 ghost t1230\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario("bitrate=x\n")
        assert exc.value.line_no == 1

    def test_missing_header(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("node a\n")

    def test_filter_parsing(self):
        sc = parse_scenario(GOOD.replace("node b", "node b filter=100/700"))
        filt = dict(sc.nodes)["b"]
        assert (filt.code, filt.mask) == (0x100, 0x700)

    def test_render_parse_identity(self):
        sc = parse_scenario(GOOD)
        canonical = render_scenario(sc)
        assert render_scenario(parse_scenario(canonical)) == canonical

    def test_render_keeps_distance_exact(self):
        sc = parse_scenario(GOOD.replace("distance_m=40", "distance_m=40.123456"))
        assert "distance_m=40.123456\n" in render_scenario(sc)
        assert parse_scenario(render_scenario(sc)) == sc
        assert "distance_m=40\n" in render_scenario(parse_scenario(GOOD))

    @given(st.integers(1, 1_000_000), st.floats(min_value=0, max_value=10_000),
           st.booleans())
    def test_render_parse_roundtrip_any_valid_distance(self, bitrate, distance,
                                                       allow_slow):
        try:
            validate_bus_config(bitrate, distance, allow_slow)
        except ConfigError:
            reject()
        sc = Scenario(bitrate, distance, [("a", None)],
                      [ScheduleEntry(0, "a", data_frame(0x123, b"\xab"))],
                      allow_slow)
        assert parse_scenario(render_scenario(sc)) == sc

    @given(st.lists(st.none() | filters(), min_size=1, max_size=3))
    def test_render_parse_roundtrip_any_filter(self, filts):
        sc = Scenario(1_000_000, 40.0, [(f"n{i}", f) for i, f in enumerate(filts)],
                      [])
        assert parse_scenario(render_scenario(sc)) == sc

    @pytest.mark.parametrize("spec", [
        "+100/700", "1_00/700", "0x100/700", "\u0661\u0660\u0660/700",
        "100/0x7F0", "-0/700", "100/+7F0", "100/", "/700",
    ])
    def test_malformed_filter_hex_rejected(self, spec, tmp_path):
        text = GOOD.replace("node b", f"node b filter={spec}")
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario(text)
        assert exc.value.line_no == 4
        assert "bad filter hex" in str(exc.value)
        path = tmp_path / "s.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", str(path)]) == 2

    def test_filter_too_wide_rejected(self):
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario(GOOD.replace("node b", "node b filter=20000000/0"))
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("header", ["bitrate=1000000", "distance_m=40",
                                        "allow_slow=0", "run_bits=100"])
    def test_repeated_header_rejected(self, header, tmp_path):
        text = f"{header}\n{header}\n{GOOD}"
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario(text)
        assert exc.value.line_no == 2
        path = tmp_path / "s.txt"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 2

    def test_nan_distance_rejected(self):
        with pytest.raises(RateRangeError):
            parse_scenario(GOOD.replace("distance_m=40", "distance_m=nan"))

    def test_negative_run_bits_rejected(self):
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario("run_bits=-5\n" + GOOD)
        assert exc.value.line_no == 1
        assert parse_scenario("run_bits=0\n" + GOOD).run_bits == 0

    def test_allow_slow_values(self):
        for value, expected in (("1", True), ("true", True), ("yes", True),
                                ("0", False), ("false", False), ("no", False)):
            assert parse_scenario(f"allow_slow={value}\n" + GOOD).allow_slow is expected
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario("allow_slow=maybe\n" + GOOD)
        assert exc.value.line_no == 1


# Frame fields with repeats, as a sensor's readings repeat.
FIELDS = ["t1232ABCD", "t1230", "r1004", "T1ABCDE2825566", "t7FF10A"]


class TestFrameFields:
    def test_equal_texts_share_one_frame(self):
        sc = parse_scenario(GOOD + "3 b t1232ABCD\n7 a t1230\n9 b t1232ABCD\n")
        first, second, other, third = [e.frame for e in sc.schedule]
        assert first is second is third
        assert first == data_frame(0x123, b"\xab\xcd")
        assert other == data_frame(0x123, b"")

    @given(st.lists(st.tuples(st.integers(0, 50), st.sampled_from(["a", "b"]),
                              st.sampled_from(FIELDS)), max_size=30))
    def test_schedule_equals_parsing_each_line(self, events):
        text = GOOD + "".join(f"{t} {node} {field}\n" for t, node, field in events)
        expected = [ScheduleEntry(0, "a", data_frame(0x123, b"\xab\xcd"))]
        expected += [ScheduleEntry(t, node, parse_serial_line(field.encode("ascii")))
                     for t, node, field in events]
        expected.sort(key=lambda e: e.time_us)
        assert parse_scenario(text).schedule == expected

    def test_repeated_bad_line_reports_the_first(self):
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario(GOOD + "1 a t12Z0\n" * 3)
        assert exc.value.line_no == 6
        assert "bad hex in identifier" in str(exc.value)

    def test_non_ascii_frame_field(self):
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario(GOOD + "1 a t1001\u00e9\n")
        assert exc.value.line_no == 6
        assert "non-ASCII" in str(exc.value)

    @pytest.mark.parametrize("field", [b"t1001\xc3\xa9", b"t1001\xff"])
    def test_simulate_rejects_non_ascii_frame_field(self, tmp_path, capsys, field):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"bitrate=500000\ndistance_m=40\nnode a\n0 a " + field + b"\n")
        assert main(["simulate", str(path)]) == 2
        assert "line 4" in capsys.readouterr().err


class TestTraceFormat:
    def test_frame_delivered_line(self):
        e = TraceEvent(111, 111 / 1_000_000, "b", EventKind.FRAME_DELIVERED,
                       data_frame(0x0A0, b"\xde\xad\xbe\xef"))
        assert format_trace_event(e) == \
            "(0.000111) vcan0 0A0#DEADBEEF FrameDelivered"

    def test_empty_payload_rendering(self):
        e = TraceEvent(3, 3e-6, "a", EventKind.ARBITRATION_LOST,
                       data_frame(0x100, b""))
        assert format_trace_event(e) == "(0.000003) vcan0 100# ArbitrationLost"

    def test_bus_off_line_names_node(self):
        e = TraceEvent(10, 1e-5, "victim", EventKind.BUS_OFF_ENTERED, None)
        assert format_trace_event(e) == \
            "(0.000010) vcan0 - BusOffEntered node=victim"


@given(kind=st.sampled_from(list(EventKind)),
       seed=st.none() | st.integers(0, 2**32 - 1),
       node=st.none() | st.sampled_from(["a", "victim", "node_110"]),
       time_bits=st.integers(0, 10**10),
       bitrate=st.integers(5_000, 1_000_000))
def test_trace_line_matches_the_reference(kind, seed, node, time_bits, bitrate):
    # The goldens never render a bus-off event without a node; this does.
    frame = None if seed is None else random_frame(random.Random(seed))
    e = TraceEvent(time_bits, time_bits / bitrate, node, kind, frame)
    assert format_trace_event(e) == format_trace_event_reference(e)


class TestCliExitCodes:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--bitrate", "1000000", "--distance", "40"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_config_error(self, capsys):
        assert main(["validate", "--bitrate", "1000000", "--distance", "100"]) == 2

    def test_validate_allow_slow(self):
        assert main(["validate", "--bitrate", "5000", "--distance", "10000"]) == 2
        assert main(["validate", "--bitrate", "5000", "--distance", "10000",
                     "--allow-slow"]) == 0

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_simulate_ok(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text(GOOD)
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TxStart" in out and "FrameDelivered" in out

    def test_simulate_config_error(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text(GOOD.replace("distance_m=40", "distance_m=100"))
        assert main(["simulate", str(path)]) == 2
        path.write_text(GOOD.replace("bitrate=1000000", "bitrate=2000000"))
        assert main(["simulate", str(path)]) == 2

    def test_simulate_rejects_bad_scenario_values(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        for header in ("run_bits=-5", "allow_slow=maybe"):
            path.write_text(f"{header}\n{GOOD}")
            assert main(["simulate", str(path)]) == 2

    def test_simulate_missing_file(self):
        assert main(["simulate", "/nonexistent/scenario"]) == 2

    def test_simulate_deterministic_trace(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(GOOD + "5 b t0A04DEADBEEF\n")
        out1 = tmp_path / "t1.txt"
        out2 = tmp_path / "t2.txt"
        assert main(["simulate", str(path), "--trace-out", str(out1)]) == 0
        assert main(["simulate", str(path), "--trace-out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_codec_roundtrip(self, capsys):
        assert main(["codec", "encode", "123#ABCD"]) == 0
        bits = capsys.readouterr().out.strip()
        assert main(["codec", "decode", bits]) == 0
        assert capsys.readouterr().out.strip() == "123#ABCD"

    def test_codec_crc(self, capsys):
        assert main(["codec", "crc", "0" * 15]) == 0
        assert capsys.readouterr().out.strip() == "0000"

    def test_codec_runtime_error(self, capsys):
        assert main(["codec", "decode", "111111"]) == 3
        assert main(["codec", "encode", "nonsense"]) == 3

    def test_codec_encode_rejects_a_signed_identifier(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vcanlab.cli", "codec", "encode", "+12#00"],
            capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr.startswith(b"error: ")
        assert b"Traceback" not in proc.stderr

    def test_experiment_csv(self, capsys):
        assert main(["experiment", "--range", "0:40", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "test,set_c,measured_c,error_c"
        assert len(lines) == 9

    def test_experiment_table(self, capsys, monkeypatch):
        monkeypatch.setenv("VCANLAB_NO_COLOR", "1")
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "Sum" in out and "178.30" in out
        assert "\x1b[" not in out

    def test_experiment_bad_range(self):
        assert main(["experiment", "--range", "bogus"]) == 1


class TestGatewayStdio:
    def test_stdio_roundtrip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vcanlab.cli", "gateway", "--stdio"],
            input=b"t1232ABCD\rgarbage\r", capture_output=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == b"\r\x07"

    def test_listen_smoke(self):
        import socket
        import time
        proc = subprocess.Popen(
            [sys.executable, "-m", "vcanlab.cli", "gateway", "--listen", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            banner = proc.stdout.readline().decode()
            port = int(banner.rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                s.sendall(b"t1230\r")
                s.settimeout(10)
                assert s.recv(16) == b"\r"
                s.sendall(b"zzz\r")
                assert s.recv(16) == b"\x07"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
