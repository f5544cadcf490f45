import subprocess
import sys

import pytest

from vcanlab.bus import (Bus, BusConfig, ConfigError, EventKind,
                         RateDistanceError, RateRangeError, ScheduleEntry,
                         TraceEvent)
from vcanlab.cli import main
from vcanlab.frame import data_frame
from vcanlab.scenario import (ScenarioSyntaxError, UnknownNodeError,
                              format_trace_event, parse_scenario,
                              render_scenario)

GOOD = """\
bitrate=1000000
distance_m=40
node a
node b
0 a t1232ABCD
"""


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
