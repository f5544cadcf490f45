"""vcanlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sensor_scan --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed, checks
every round's output against the frame-level model in ``oracle.py``, and
prints one JSON object as its last line of output. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's layers (``layers.py``)
and reports the per-layer ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Spelled out here because the arguments are parsed before vcanlab is importable.
WORKLOAD_NAMES = ("sensor_scan", "arbitration_110", "bus_off_recovery", "gateway_relay")

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program() -> bool:
    """Put the checkout's own sources first on the path; refuse any other copy."""
    if not (SRC / "vcanlab" / "__init__.py").is_file():
        print(f"perfbench: no vcanlab sources in {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    import vcanlab
    if Path(vcanlab.__file__).resolve().parent != (SRC / "vcanlab").resolve():
        print(f"perfbench: imported vcanlab from {vcanlab.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


@dataclass(frozen=True)
class _Record:
    """Shaped like a trace event: a small frozen dataclass."""

    time_bits: int
    time_s: float
    node: str
    frame: object


class Reference:
    """Fixed work that does not touch vcanlab, so it is the same on every
    commit: the oracle's wire length of 600 fixed frames (string and integer
    bound), then 12 000 small records built, scanned and freed (allocation
    bound). Its host time, over the time the same work took on the 2-core
    machine the README's figures come from, is the host's slowness."""

    NOMINAL_S = (0.016, 0.020)

    def __init__(self) -> None:
        import oracle
        rng = random.Random(0)
        self._length = oracle.wire_length
        self._msgs = [(rng.randrange(2048), False, False, 8,
                       bytes(rng.randrange(256) for _ in range(8))) for _ in range(600)]

    def slowness(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        for msg in self._msgs:
            self._length(msg)
        t1 = time.perf_counter()
        records = [_Record(i, i / 3, "node", None) for i in range(12_000)]
        sum(1 for r in records if r.time_bits % 3 == 0)
        del records
        t2 = time.perf_counter()
        return ((t1 - t0) / self.NOMINAL_S[0] + (t2 - t1) / self.NOMINAL_S[1]) / 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        return 2
    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    reference = Reference()
    tag = f"{args.workload}-{args.seed}"
    clock = time.perf_counter

    setups, rates, steps, slowness = [], [], [], []
    attempted = failed = rounds = 0
    problems = []
    begin = clock()
    while rounds == 0 or clock() - begin < args.seconds:
        prep = workload.prepare(random.Random(f"{args.workload}:{args.seed}:{rounds}"), tag)
        before = reference.slowness()
        round_steps = []
        if tracer:
            tracer.start_round()
            tracer.on = True
        t0 = clock()
        state = workload.setup(prep)
        t1 = clock()
        raw = workload.execute(prep, state, round_steps)
        t2 = clock()
        if tracer:
            tracer.on = False
        out = workload.observe(prep, raw)
        del raw, state
        verdict = workload.check(prep, out)
        setups.append(t1 - t0)
        rates.append(workload.delivered(out) / (t2 - t1))
        steps.append(statistics.median(round_steps or [t2 - t1]))
        attempted += verdict.attempted
        failed += verdict.failed
        problems += [f"round {rounds}: {p}" for p in verdict.problems]
        rounds += 1
        del prep, out
        slowness.append((before + reference.slowness()) / 2)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {
        "frames_per_s": {"value": statistics.median(r * k for r, k in zip(rates, slowness)),
                         "unit": "frames/s"},
        "setup_s": {"value": statistics.median(t / k for t, k in zip(setups, slowness)),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "step_ms_p50": {"value": 1000 * statistics.median(s / k for s, k in zip(steps, slowness)),
                        "unit": "ms"},
    }
    unscaled = {
        "frames_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "step_ms_p50": 1000 * statistics.median(steps),
        "slowness": statistics.median(slowness),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": tracer.metrics(rounds) if tracer else e2e,
    }
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=rounds, end_to_end=e2e, unscaled=unscaled,
                  problems=problems)
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
