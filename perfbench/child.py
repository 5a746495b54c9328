"""One benchmark sample in a fresh interpreter; started by run.py.

    child.py setup T0
    child.py sample T0 WORKLOAD SEED TRACE RUN_ID SPANS_STEM

T0 is the parent's ``time.monotonic()`` just before it started this
process, so setup_s covers interpreter start plus importing stirhom and its
CLI module.
The last line of stdout is one JSON object with the sample's results.
"""

import sys
import time

T0 = float(sys.argv[2])
import stirhom.cli  # noqa: E402  (setup_s ends here, before the first call)

SETUP_S = time.monotonic() - T0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def sample(workload, seed, trace, run_id, spans_stem):
    from workloads import WORKLOADS
    run = WORKLOADS[workload]
    tracer = root = None
    if trace:
        import layers
        import tracing
        tracer = tracing.Tracer(run_id)
        layers.install(tracer)
        root = tracer.root()
    start = time.perf_counter()
    try:
        problems, output_bytes = run(seed)
    except Exception as exc:  # a crash is one failed operation, not a lost run
        traceback.print_exc()
        problems, output_bytes = [f"{type(exc).__name__}: {exc}"], 0
    wall_s = time.perf_counter() - start
    result = {"problems": problems}
    if tracer is not None:
        tracer.finish(root)
        wall_s = tracer.end[root] - tracer.start[root]
        result["layers"] = layers.metrics(tracer, output_bytes)
        tracer.write(spans_stem)
    result["wall_s"] = wall_s
    return result


def main():
    if os.path.dirname(os.path.dirname(os.path.abspath(stirhom.__file__))) != SRC:
        raise SystemExit(f"stirhom was imported from {stirhom.__file__}, not from {SRC}")
    if sys.argv[1] == "setup":
        result = {}
    else:
        workload, seed, trace, run_id, spans_stem = sys.argv[3:8]
        result = sample(workload, int(seed), trace == "1", int(run_id), spans_stem)
    result["setup_s"] = SETUP_S
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["hashseed"] = os.environ.get("PYTHONHASHSEED")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
