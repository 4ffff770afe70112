"""Pin the reference digest of every job in every workload pool.

    python3 perfbench/pin.py [--workload NAME ...]

Runs each pool job once through dglogic.cli.main and records its exit code
and the digest of its stdout and written files in references.json. Pin only
from a commit whose outputs are known to be right: test_references.py checks
the pinned outputs against independent oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import WORK, WORKLOADS


def pin(workload) -> dict:
    modules, entries = run.setup(workload, list(range(workload.pool)))
    main = modules["cli"].main
    pinned = {}
    for entry in entries:
        for job in entry.jobs:
            elapsed, rc, text, files = run.run_job(main, job)
            if elapsed is None:
                run.fail(f"{job.key} raised")
            pinned[job.key] = [rc, run.digest(rc, text, files)]
    shutil.rmtree(Path(WORK) / workload.name, ignore_errors=True)
    return pinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    refs = {}
    if run.REFERENCES.is_file():
        with open(run.REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in args.workload or sorted(WORKLOADS):
        refs[name] = pin(WORKLOADS[name])
        codes = sorted({rc for rc, _ in refs[name].values()})
        print(f"{name}: {len(refs[name])} jobs pinned, exit codes {codes}",
              file=sys.stderr)
    tmp = run.REFERENCES.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(dumps(refs))
    os.replace(tmp, run.REFERENCES)
    return 0


def dumps(refs: dict) -> str:
    """JSON with one pinned job per line, so a re-pin diffs job by job."""
    blocks = []
    for name in sorted(refs):
        rows = [f"  {json.dumps(key)}: {json.dumps(value)}"
                for key, value in sorted(refs[name].items())]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
