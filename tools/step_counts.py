"""Count the bus steps each benchmark workload takes per round.

Runs 4 rounds of each workload in ``perfbench/workloads.py`` on seed 7, the
rounds the benchmark itself draws for that seed, with ``Bus._step`` wrapped
to count its calls over each round's setup and execution. Every round's
verdict must pass. Prints the mean calls per round of each workload as one
JSON object, and exits 1 if a round fails its check or a workload takes more
steps per round than its count in ``RECORDED``.

It takes no arguments and finds the sources from its own path::

    python tools/step_counts.py

A fast path that takes over work from plain stepping shows here as fewer
steps; one that refuses more often shows as more, and fails. A change that
lowers a count lowers its entry in ``RECORDED`` with it.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ROUNDS = 4
# The mean Bus._step calls per round each workload takes at most.
RECORDED = {
    "sensor_scan": 2351.0,
    "arbitration_110": 330.0,
    "bus_off_recovery": 1091.25,
    "gateway_relay": 1556.75,
}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from vcanlab.bus import Bus
    import workloads

    calls = 0
    step = Bus._step

    def counted(bus, until_bits):
        nonlocal calls
        calls += 1
        return step(bus, until_bits)

    means = {}
    failed = False
    Bus._step = counted
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for name, workload_class in workloads.WORKLOADS.items():
                workload = workload_class(Path(workdir))
                total = 0
                for round_no in range(ROUNDS):
                    # The seed string and tag perfbench/run.py gives each
                    # round (its round loop, line 115); they must match it.
                    prep = workload.prepare(random.Random(f"{name}:{SEED}:{round_no}"),
                                            f"{name}-{SEED}")
                    calls = 0
                    raw = workload.execute(prep, workload.setup(prep), [])
                    total += calls
                    verdict = workload.check(prep, workload.observe(prep, raw))
                    if verdict.problems or verdict.failed:
                        failed = True
                        print(f"{name} round {round_no}: {verdict.failed} failed, "
                              f"{verdict.problems}", file=sys.stderr)
                means[name] = total / ROUNDS
    finally:
        Bus._step = step
    print(json.dumps(means))
    for name, mean in means.items():
        if mean > RECORDED.get(name, mean):
            failed = True
            print(f"{name}: {mean} steps per round, recorded {RECORDED[name]}",
                  file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
