"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 scenario/config error, 3 runtime
(simulation) error. ``VCANLAB_NO_COLOR`` disables output decoration.
"""

from __future__ import annotations

import argparse
import os
import socketserver
import sys
import threading
from typing import List, Optional

from . import codec
from .bus import Bus, BusConfig, ConfigError, validate_bus_config
from .gateway import GatewaySession
from .scenario import (ScenarioSyntaxError, format_trace_event, parse_scenario)
from .sensornet import (DEFAULT_SETPOINTS_C, SensorConfig, run_table_experiment)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("VCANLAB_NO_COLOR")


def _bold(text: str) -> str:
    return f"\x1b[1m{text}\x1b[0m" if _use_color() else text


def _range_type(text: str):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("range must be MIN:MAX")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="vcanlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and print its trace")
    p.add_argument("file")
    p.add_argument("--trace-out", metavar="PATH")
    p.add_argument("--status", action="store_true",
                   help="print one status line per node after the run")

    p = sub.add_parser("codec", help="frame codec utilities")
    p.add_argument("mode", choices=["encode", "decode", "crc"])
    p.add_argument("value", help="frame as ID#DATA (encode) or a 0/1 bit string")

    p = sub.add_parser("experiment", help="run the temperature accuracy experiment")
    p.add_argument("--range", type=_range_type, default=(0.0, 40.0),
                   metavar="MIN:MAX", dest="adc_range")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("gateway", help="serial-line gateway")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--stdio", action="store_true")
    g.add_argument("--listen", type=int, metavar="PORT")
    p.add_argument("--echo", action="store_true",
                   help="peer node re-broadcasts received frames back")

    p = sub.add_parser("validate", help="check a bitrate/distance configuration")
    p.add_argument("--bitrate", type=int, required=True)
    p.add_argument("--distance", type=float, required=True)
    p.add_argument("--allow-slow", action="store_true")

    return parser


def _cmd_simulate(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        scenario = parse_scenario(text)
        bus = scenario.build_bus()
    except (ScenarioSyntaxError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        trace = bus.run(scenario.schedule, scenario.horizon_bits(bus))
    except Exception as exc:  # noqa: BLE001 - surfaced as a runtime failure
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    lines = [format_trace_event(e) for e in trace]
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    if args.status:
        for line in bus.status_lines():
            print(line)
    return EXIT_OK


def _cmd_codec(args) -> int:
    try:
        if args.mode == "encode":
            frame = codec.frame_from_text(args.value)
            print(codec.bits_to_string(codec.encode_frame(frame).stuffed_bits))
        elif args.mode == "decode":
            frame = codec.decode_frame(codec.bits_from_string(args.value))
            print(codec.frame_to_text(frame))
        else:
            print(f"{codec.crc15(codec.bits_from_string(args.value)):04X}")
    except (ValueError, codec.DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_experiment(args) -> int:
    lo, hi = args.adc_range
    try:
        cfg = SensorConfig(range_min_c=lo, range_max_c=hi)
        rows, set_sum, measured_sum = run_table_experiment(cfg, DEFAULT_SETPOINTS_C)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.csv:
        print("test,set_c,measured_c,error_c")
        for r in rows:
            print(f"{r.test_no},{r.set_c:.2f},{r.measured_c:.2f},{r.error_c:.2f}")
        return EXIT_OK
    print(_bold(f"{'Test no':>7} | {'Set temperature':>15} | "
                f"{'Measured temperature':>20} | {'Error':>6}"))
    for r in rows:
        print(f"{r.test_no:>7} | {r.set_c:>15.2f} | {r.measured_c:>20.2f} "
              f"| {r.error_c:>+6.2f}")
    print(f"{'Sum':>7} | {set_sum:>15.2f} | {measured_sum:>20.2f} |")
    return EXIT_OK


def _make_gateway_bus():
    bus = Bus(BusConfig())
    gw = bus.attach_node("gateway")
    peer = bus.attach_node("peer")
    return bus, gw, peer


_GATEWAY_STEP_BITS = 10_000


def _gateway_step(bus: Bus, session: GatewaySession, peer, echo: bool,
                  data: bytes) -> bytes:
    out = session.pump(data)
    bus.run([], bus.now + _GATEWAY_STEP_BITS)
    if echo:
        while peer.received:
            frame = peer.received.pop(0)
            try:
                peer.submit(frame)
            except Exception:
                break
        bus.run([], bus.now + _GATEWAY_STEP_BITS)
    return out + session.pump()


def _cmd_gateway(args) -> int:
    bus, gw, peer = _make_gateway_bus()
    session = GatewaySession(gw)
    if args.stdio:
        stdin = sys.stdin.buffer
        stdout = sys.stdout.buffer
        while True:
            chunk = stdin.read1(4096) if hasattr(stdin, "read1") else stdin.read(4096)
            if not chunk:
                break
            stdout.write(_gateway_step(bus, session, peer, args.echo, chunk))
            stdout.flush()
        return EXIT_OK

    lock = threading.Lock()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            local = GatewaySession(gw)
            while True:
                chunk = self.request.recv(4096)
                if not chunk:
                    break
                with lock:
                    out = _gateway_step(bus, local, peer, args.echo, chunk)
                if out:
                    self.wfile.write(out)
                    self.wfile.flush()

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server(("127.0.0.1", args.listen), Handler) as server:
        print(f"listening on 127.0.0.1:{server.server_address[1]}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        validate_bus_config(args.bitrate, args.distance, allow_slow=args.allow_slow)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: {args.bitrate} bps over {args.distance:g} m")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "simulate": _cmd_simulate,
        "codec": _cmd_codec,
        "experiment": _cmd_experiment,
        "gateway": _cmd_gateway,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
