"""dglogic benchmark: drives the real CLI (dglogic.cli.main) in-process.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ./src. One
process runs one workload as a closed loop with a single client: the next job
(one CLI invocation, stdout captured) starts when the previous one returns.
A round is one prepared pool entry's jobs in seeded order; whole cycles over
all rounds repeat until --seconds have passed and at least ten latencies lie
beyond the 90th percentile, so every run has the same job mix. Every job's
exit code, stdout and written files are compared with the digests pinned in
references.json; a job that raises or differs counts as failed.

--trace 0 prints the end-to-end metrics. --trace 1 replays a fixed number of
rounds untraced and then traced, and prints per-layer metrics from the traced
pass (see tracing.py) plus trace_overhead, the traced/untraced time ratio.
The traced pass writes its spans to .perfbench/spans-<workload>-seed<n>.tsv.

The last stdout line is the result object; the line before it carries the
run metadata (machine, CPUs, Python, seed, job counts, percentile samples).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import WORK, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
OUT = ".perfbench"
SETUP_REPEATS = 5
MIN_BEYOND_P90 = 10
HARD_STOP_S = 150.0
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "job_p50_ms": "ms",
              "job_p90_ms": "ms", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import dglogic afresh from ./src and return its modules by layer."""
    src = ROOT / "src"
    if not (src / "dglogic" / "cli.py").is_file():
        fail(f"no dglogic sources under {src}; run from a full checkout")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "dglogic" or m.startswith("dglogic.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"dglogic.{layer}")
               for layer in tracing.LAYERS}
    found = Path(modules["cli"].__file__).resolve().parent
    if found != (src / "dglogic").resolve():
        fail(f"imported dglogic from {found}, not from {src}")
    return modules


def digest(rc: int, stdout: str, files: list[bytes]) -> str:
    h = hashlib.sha256(f"{rc}\n".encode())
    h.update(stdout.encode())
    for data in files:
        h.update(b"\0" + data)
    return h.hexdigest()[:20]


def run_job(main, job) -> tuple[float | None, int | None, str, list[bytes]]:
    """One CLI invocation: (latency in s, or None if it raised; exit code;
    stdout; contents of the files it wrote). The files are removed
    afterwards, so every job writes fresh files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(job.argv))
        except (Exception, SystemExit):
            return None, None, "", []
        elapsed = time.perf_counter() - start
    files = []
    for path in job.outputs:
        try:
            with open(path, "rb") as fh:
                files.append(fh.read())
            os.unlink(path)
        except OSError:
            files.append(b"<missing>")
    return elapsed, rc, out.getvalue(), files


def setup(workload, indices: list[int]):
    """Import the program, write every chosen entry's inputs and run the
    entry's gen calls. Returns (modules, entries)."""
    modules = import_program()
    main = modules["cli"].main
    shutil.rmtree(Path(WORK) / workload.name, ignore_errors=True)
    entries = []
    for index in indices:
        entry = workload.entry(index)
        for path, text in entry.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv, target in entry.gens:
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(list(argv))
            if rc != 0:
                fail(f"set-up call {' '.join(argv)} exited {rc}")
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        entries.append(entry)
    return modules, entries


def timed_setup(workload, indices: list[int]):
    """Set up SETUP_REPEATS times; setup_s is the median duration."""
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules, entries = setup(workload, indices)
        durations.append(time.perf_counter() - start)
    return durations, modules, entries


def rounds_for(entries, seed: int) -> list[list]:
    rng = random.Random(seed)
    rounds = []
    for entry in entries:
        jobs = list(entry.jobs)
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


class Tally:
    def __init__(self, references: dict):
        self.references = references
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.first_failures: list[str] = []

    def run(self, main, job) -> None:
        self.attempted += 1
        elapsed, rc, text, files = run_job(main, job)
        got = digest(rc, text, files) if elapsed is not None else None
        want = self.references.get(job.key)
        if elapsed is None or want is None or [rc, got] != want:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(
                    f"{job.key}: exit {rc}, digest {got or '-'}, pinned {want}")
            return
        self.latencies.append(elapsed)
        self.output_bytes += len(text.encode()) + sum(len(f) for f in files)


def beyond_p90(latencies: list[float]) -> int:
    if len(latencies) < MIN_BEYOND_P90:
        return 0
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return sum(1 for x in latencies if x > p90)


def replay(main, rounds, tally: Tally) -> Tally:
    for jobs in rounds:
        for job in jobs:
            tally.run(main, job)
    return tally


def closed_loop(main, rounds, tally: Tally, seconds: float) -> float:
    """Run whole cycles over all rounds until `seconds` have passed and the
    90th percentile has enough samples beyond it; whole cycles keep the job
    mix of every run the same. Returns the busy time (sum of latencies)."""
    start = time.perf_counter()
    while True:
        replay(main, rounds, tally)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and beyond_p90(tally.latencies) >= MIN_BEYOND_P90:
            break
        if elapsed >= HARD_STOP_S or tally.failed:
            break
    return sum(tally.latencies)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, args, references, meta) -> tuple[Tally, dict]:
    setups, modules, entries = timed_setup(workload, meta["entries"])
    meta["setup_runs_s"] = setups
    tally = Tally(references)
    busy = closed_loop(modules["cli"].main, rounds_for(entries, args.seed),
                       tally, args.seconds)
    lat = tally.latencies
    if tally.failed or not lat:
        return tally, {}
    beyond = beyond_p90(lat)
    if beyond < MIN_BEYOND_P90:
        fail(f"only {beyond} samples beyond the 90th percentile; "
             f"refusing to report job_p90_ms")
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta.update({"jobs": len(lat), "busy_s": busy, "p50_samples": len(lat),
                 "p90_samples": len(lat), "p90_samples_beyond": beyond})
    values = {"setup_s": statistics.median(setups), "ops_per_s": len(lat) / busy,
              "job_p50_ms": statistics.median(lat) * 1000,
              "job_p90_ms": p90 * 1000, "peak_rss_mb": rss_mb}
    return tally, {name: metric(values[name], unit)
                   for name, unit in END_TO_END.items()}


def traced(workload, args, references, meta) -> tuple[Tally, dict]:
    """The first trace_rounds rounds, untraced and then traced: a fixed
    amount of work, so per-layer totals compare across commits."""
    _, modules, entries = timed_setup(workload, meta["entries"])
    rounds = rounds_for(entries, args.seed)
    rounds = [rounds[i % len(rounds)] for i in range(workload.trace_rounds)]
    tally = replay(modules["cli"].main, rounds, Tally(references))
    plain_s = sum(tally.latencies)
    tracer = tracing.Tracer()
    tracer.install(modules)
    traced_tally = replay(tracer.wrap("cli", "cli.main", modules["cli"].main),
                          rounds, Tally(references))
    traced_s = sum(traced_tally.latencies)
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.first_failures += traced_tally.first_failures
    if tally.failed:
        return tally, {}
    spans_path = Path(OUT) / f"spans-{workload.name}-seed{args.seed}.tsv"
    spans_path.parent.mkdir(exist_ok=True)
    if spans_path.exists():
        spans_path.unlink()
    tracer.write_spans(spans_path)
    meta.update({"jobs": len(traced_tally.latencies), "rounds": len(rounds),
                 "untraced_s": plain_s, "traced_s": traced_s,
                 "counting_s": tracer.paused,
                 "spans": len(tracer.spans), "spans_file": str(spans_path)})
    values = tracer.metrics()
    values["cli.output_bytes"] = traced_tally.output_bytes
    # counting sizes is off the span clock, so it is left out of the
    # overhead too: the ratio is what the wrappers add to the spans
    values["trace_overhead"] = (traced_s - tracer.paused) / plain_s
    return tally, {name: metric(values[name], unit)
                   for name, unit in tracing.METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not REFERENCES.is_file():
        fail(f"missing {REFERENCES}")
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)[args.workload]
    workload = WORKLOADS[args.workload]
    meta = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "machine": platform.machine(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "entries": workload.choose(args.seed)}
    try:
        run = traced if args.trace else end_to_end
        tally, metrics = run(workload, args, references, meta)
    finally:
        shutil.rmtree(Path(WORK) / workload.name, ignore_errors=True)
    meta["attempted"] = tally.attempted
    meta["failed"] = tally.failed
    meta["fail_ratio"] = tally.failed / tally.attempted
    meta["failures"] = tally.first_failures
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
