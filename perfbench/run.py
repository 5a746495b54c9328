#!/usr/bin/env python3
"""stirhom benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload survey-7-3 --seed 1 --seconds 14 --trace 0

Run from the repository root (any directory works; paths are taken from
this file).  Every sample runs in a fresh single-threaded interpreter, one
at a time, with PYTHONHASHSEED fixed from the seed, so no cached complex
and no memory high-water mark carries over from one sample to the next.
Samples repeat until --seconds have been spent measuring.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
wall time of one workload run, the median peak RSS of a sample process,
and the median set-up time (interpreter start plus importing stirhom).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of the traced ones, with the tracing overhead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A sample whose result fails a check counts as failed; it never stops the
timing.  Full per-sample records, the host facts and the span files go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("survey-7-3", "betti-grid", "graph-chars")
SETUP_SAMPLES = 15
# The whole run must end within 180 s; no sample starts that is expected
# to end after this, and a sample still running at it is killed.
RUN_LIMIT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return spec


def git_rev():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "stirhom"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.hashseed = str(seed % 2 ** 32)
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("PYTHON") and key != "STIRLING_SEED"}
        self.env.update(PYTHONPATH=SRC, PYTHONHASHSEED=self.hashseed,
                        PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
        self.runs = 0

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def child(self, *args):
        """Run one child; return its result dict, or a failure record."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-s", CHILD, args[0], repr(t0), *args[1:]],
                env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"problems": ["killed at the run time limit"]}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"problems": [f"sample process exited with {proc.returncode}"]}
        return json.loads(lines[-1])

    def sample(self, trace):
        self.runs += 1
        stem = os.path.join(OUT, f"spans-{self.workload}-{self.runs}")
        record = self.child("sample", self.workload, str(self.seed),
                            "1" if trace else "0", str(self.runs), stem)
        record["trace"] = trace
        return record


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if not os.path.isfile(os.path.join(SRC, "stirhom", "__init__.py")):
        fail(f"no stirhom package under {SRC}")
    os.makedirs(OUT, exist_ok=True)

    runner = Runner(args.workload, args.seed)
    warm = runner.child("setup")  # fills the bytecode cache; not measured
    if warm.get("problems"):
        fail(f"cannot start a sample process: {warm['problems']}")
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]

    samples = []
    measuring = time.monotonic()
    while True:
        if args.trace:
            samples.append(runner.sample(False))
        samples.append(runner.sample(bool(args.trace)))
        spent = time.monotonic() - measuring
        per_round = spent / (len(samples) // (2 if args.trace else 1))
        if spent >= args.seconds or per_round > runner.remaining():
            break

    timed = [s for s in samples if "wall_s" in s]
    failed = sum(1 for s in samples if s.get("problems"))
    if not timed:
        fail(f"no sample completed: {[s.get('problems') for s in samples]}")
    untraced = [s for s in timed if not s["trace"]]
    traced = [s for s in timed if s["trace"]]
    if args.trace and not (traced and untraced):
        fail("the traced run needs one completed sample of each kind")

    if args.trace:
        # median_low keeps every value one sample's own, so counts stay integers
        wanted = spec["per_layer"]
        values = {name: statistics.median_low(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = statistics.median_low(s["wall_s"] for s in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median_low(
            s["wall_s"] for s in untraced)
        counts = {"traced": len(traced), "untraced": len(untraced)}
    else:
        wanted = spec["end_to_end"]
        setup_records = [s for s in setups + samples if "setup_s" in s]
        values = {
            "wall_s": median_of(timed, "wall_s"),
            "peak_rss_mb": median_of(timed, "maxrss_kb") / 1024,
            "setup_s": median_of(setup_records, "setup_s"),
        }
        counts = {"wall_s": len(timed), "peak_rss_mb": len(timed),
                  "setup_s": len(setup_records)}
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            fail(f"metric {entry['name']} is not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}

    host = {"git_rev": git_rev(), "src_sha256": src_digest(),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "hashseed": runner.hashseed}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host, "samples": counts,
              "failed_ratio": failed / len(samples), "metrics": metrics,
              "setup_records": setups, "sample_records": samples}
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)

    for s in samples:
        for problem in s.get("problems", ()):
            print(f"FAILED sample {'traced' if s.get('trace') else 'untraced'}: {problem}")
    print(f"{args.workload} seed={args.seed} hashseed={runner.hashseed} "
          f"python={host['python']} cpus={host['cpu_count']} rev={host['git_rev']}")
    if args.trace:
        print(f"samples: {counts['traced']} traced, {counts['untraced']} untraced")
    for name, metric in metrics.items():
        n = counts.get(name)
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}"
              + (f" (median of {n})" if n else ""))
    print(f"  failed_ratio = {failed}/{len(samples)} = {failed / len(samples):.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
