"""Child process of the benchmark: generates a workload's inputs, or runs
its timed passes.

    python3 perfbench/worker.py setup WORKLOAD SEED INPUTS [--small]
    python3 perfbench/worker.py measure WORKLOAD SEED INPUTS WORK SECONDS TRACE
                                [--small] [--golden FILE]

``setup`` writes the inputs and prints their SHA-256 digests. ``measure``
runs passes back to back until the next one would end after SECONDS (at
least one). With TRACE 1 it runs a traced pass, an untraced pass and a
traced pass instead: the last two give the per-layer metrics and the
tracing overhead, and the counts of the two traced passes must agree. The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _digests(outputs: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def cmd_setup(args, workload) -> None:
    inputs = Path(args.inputs)
    workload.setup(inputs)
    files = {p.name: p.read_bytes() for p in sorted(inputs.iterdir())}
    print(json.dumps(_digests(files)))


def cmd_measure(args, workload) -> None:
    import numpy
    import scipy

    import refaudit
    from spans import Tracer, exact_counts

    work = Path(args.work)
    per_layer = json.loads(Path("BENCHMARK.json").read_text())["per_layer"]
    golden = None
    if args.golden:
        golden = json.loads(Path(args.golden).read_text()).get(workload.name, {}).get("passes")
    workload.prepare(Path(args.inputs))
    workers = int(os.environ["REFAUDIT_THREADS"])

    result = {"walls": [], "traced_walls": [], "attempted": 0, "failed": 0, "problems": [],
              "digests": None}

    def one_pass(tracer=None):
        out = work / f"pass-{len(result['walls']) + len(result['traced_walls'])}"
        out.mkdir()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            ops = workload.run(out, tracer)
        finally:
            end = time.perf_counter()
            if tracer:
                tracer.uninstall()
        workload.verify(ops, out)
        shutil.rmtree(out)
        digests = {op.key: _digests(op.outputs) for op in ops}
        if result["digests"] is None:
            result["digests"] = digests
        for op in ops:
            key = op.key
            problems = ([op.error] if op.error else []) + op.problems
            if not op.error and digests[key] != result["digests"][key]:
                problems.append("outputs differ from the first pass")
            if not op.error and golden is not None and digests[key] != golden.get(key):
                problems.append("outputs differ from the recorded seed-0 digests")
            result["attempted"] += 1
            if problems:
                result["failed"] += 1
                result["problems"] += [f"{key}: {p}" for p in problems]
        (result["traced_walls"] if tracer else result["walls"]).append(end - start)
        return start, end

    if args.trace:
        first = Tracer(workers)
        first_counts = exact_counts(first.layer_metrics(*one_pass(first), per_layer), per_layer)
        one_pass()
        tracer = Tracer(workers)
        layers = tracer.layer_metrics(*one_pass(tracer), per_layer)
        layers["trace.overhead_s"] = result["traced_walls"][-1] - result["walls"][-1]
        counts = exact_counts(layers, per_layer)
        for name in counts:
            if counts[name] != first_counts[name]:
                result["problems"].append(
                    f"count {name} differs between traced passes: {first_counts[name]} != {counts[name]}")
        result["layers"] = layers
        result["counts"] = counts
        tracer.dump(work / "spans.jsonl")
    else:
        t0 = time.perf_counter()
        while True:
            before = time.perf_counter()
            one_pass()
            after = time.perf_counter()
            if after - t0 + (after - before) > args.seconds:
                break

    result["wall_s"] = statistics.median(result["walls"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "refaudit": refaudit.__file__,
        **{k: os.environ.get(k) for k in ("REFAUDIT_THREADS", "OPENBLAS_NUM_THREADS",
                                           "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("inputs")
    p.add_argument("--small", action="store_true")
    p = sub.add_parser("measure")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("inputs")
    p.add_argument("work")
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int, choices=(0, 1))
    p.add_argument("--small", action="store_true")
    p.add_argument("--golden")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.small)
    if args.command == "setup":
        cmd_setup(args, workload)
    else:
        cmd_measure(args, workload)


if __name__ == "__main__":
    sys.exit(main())
