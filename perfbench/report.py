"""Print every end-to-end metric of every workload, one process each.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

fail_ratio (failed / attempted jobs) is printed with the metrics; it is not
an end-to-end metric of BENCHMARK.json because it reads 0 on a correct
program.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}  (jobs attempted {result['attempted']}, correct {result['correct']})")
        for metric, spec in result["metrics"].items():
            print(f"  {metric:34s} {spec['value']:14.6g} {spec['unit']}")
        print(f"  {'fail_ratio':34s} {result['failed'] / result['attempted']:14.6g} ratio")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
