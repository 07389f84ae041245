"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 perfbench/baseline.py [--workloads demo,stats] [--traced] [--out FILE]

Run from the root of a refaudit checkout. Each of two sets runs every
workload once per seed, ten seeds a set (set k uses seeds ``10 k + 1 ...
10 k + 10``), workloads interleaved, each run as long as BENCHMARK.json's
``run_seconds``. For each set and end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median; across sets, how
much the last set's median exceeds the first's, as a share of the first.
``--traced`` adds one traced run per workload at seed 0 with its per-layer
metrics. The summary is printed and, with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((Path(".perfbench_work") / f"{workload}-seed{seed}-trace{trace}"
                          / "result.json").read_text())
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {details['problems']}")
    return result, details


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    environment = None
    for k in range(SETS):
        for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
            for w in workloads:
                result, details = bench_run(w, seed, seconds, 0)
                environment = details["environment"]
                runs[w][k].append({name: m["value"] for name, m in result["metrics"].items()})
                print(f"set {k} seed {seed} {w}: "
                      + ", ".join(f"{n}={v:.4g}" for n, v in runs[w][k][-1].items()), flush=True)

    summary = {"run_seconds": seconds, "runs_per_set": RUNS, "workloads": {}}
    for w in workloads:
        entry = {}
        for name, bound in bounds.items():
            sets = [summarise([r[name] for r in runs[w][k]]) for k in range(SETS)]
            drift = sets[-1]["median"] / sets[0]["median"] - 1.0
            entry[name] = {"bound": bound, "sets": sets, "drift": drift}
            print(f"{w} {name}: " + " | ".join(
                f"median {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}"
                for s in sets) + f" | drift {drift:+.3f} (bound {bound})")
        if args.traced:
            result, details = bench_run(w, 0, seconds, 1)
            entry["traced_seed0"] = {name: m["value"] for name, m in result["metrics"].items()}
        summary["workloads"][w] = entry
    summary["environment"] = {k: v for k, v in environment.items() if k not in ("seed", "workload", "refaudit")}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
