"""refaudit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-golden

Run from the root of a refaudit checkout; the program is imported from its
``src/`` directory. A run sets the workload up three times, each in a fresh
interpreter (``setup_s`` is the median wall time of those processes, from
start to exit), then runs the timed passes in one more process, so that
``peak_rss_mb`` is that process's own high-water mark. ``wall_s`` is the
median wall time of one pass. With ``--trace 1`` the per-layer metrics of
``BENCHMARK.json`` are reported instead. Every call's outputs are checked;
``failed`` counts calls that raised, exited nonzero or failed a check.

``--self-check`` runs each workload once at its smallest size, traced, and
asserts that every metric in ``BENCHMARK.json`` is emitted with its unit.
``--record-golden`` rewrites ``perfbench/golden.json``, the seed-0 output
digests that every seed-0 run is compared against; do it only for a change
that means to alter outputs.

Run artifacts (inputs, spans.jsonl, result.json) go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 3
DEADLINE_S = 170.0
GOLDEN_SEED = 0


class BenchError(RuntimeError):
    pass


def _environment(root: Path) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REFAUDIT_THREADS"] = str(nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _child(argv: list, env: dict, timeout: float) -> dict:
    """Run a worker to completion and return the JSON of its last line."""
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(argv[:2]))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(argv[:2])} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv[:2])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, use_golden: bool = True) -> dict:
    t_begin = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - t_begin)

    env = _environment(root)
    work = root / ".perfbench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    size = ["--small"] if small else []
    golden = None
    if use_golden and seed == GOLDEN_SEED and not small and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text()).get(workload)

    problems = []
    setup_times, setup_digests = [], []
    for k in range(SETUP_REPEATS):
        inputs = work / f"inputs-{k}"
        inputs.mkdir()
        start = time.perf_counter()
        setup_digests.append(_child(["setup", workload, str(seed), str(inputs), *size], env,
                                    min(60.0, remaining())))
        setup_times.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(inputs)
    if any(d != setup_digests[0] for d in setup_digests):
        problems.append("setup: inputs differ between set-ups")
    if golden is not None and setup_digests[0] != golden.get("setup"):
        problems.append("setup: inputs differ from the recorded seed-0 digests")

    argv = ["measure", workload, str(seed), str(work / "inputs-0"), str(work), str(seconds),
            str(int(trace)), *size]
    if golden is not None:
        argv += ["--golden", str(GOLDEN)]
    measured = _child(argv, env, remaining())
    shutil.rmtree(work / "inputs-0")
    if not measured["environment"]["refaudit"].startswith(str(root / "src")):
        raise BenchError(f"imported refaudit from {measured['environment']['refaudit']}, not {root / 'src'}")

    measured["problems"] = problems + measured["problems"]
    measured["setup_s"] = statistics.median(setup_times)
    measured["setup_times"] = setup_times
    measured["setup_digests"] = setup_digests[0]
    measured["environment"].update(seed=seed, workload=workload, git_commit=_git_commit(root))
    (work / "result.json").write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
    return measured


def _load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def _metrics(measured: dict, trace: bool, bench: dict) -> dict:
    values, listed = ((measured["layers"], bench["per_layer"]) if trace
                      else (measured, bench["end_to_end"]))
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json lists metrics the benchmark does not measure: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def _report(workload: str, measured: dict, trace: bool, bench: dict) -> dict:
    metrics = _metrics(measured, trace, bench)
    attempted, failed = measured["attempted"], measured["failed"]
    env = measured["environment"]
    print(f"# {workload}: seed {env['seed']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']}")
    walls = measured["walls"]
    print(f"# {workload}: {len(walls)} timed pass(es): "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    for problem in measured["problems"]:
        print(f"# FAIL {problem}")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    return {"correct": not measured["problems"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_check(root: Path, bench: dict) -> int:
    for workload in [w["name"] for w in bench["workloads"]]:
        measured = run_workload(root, workload, GOLDEN_SEED, 1, trace=True, small=True)
        for trace in (False, True):
            metrics = _report(workload, measured, trace, bench)["metrics"]
            expected = bench["per_layer" if trace else "end_to_end"]
            for m in expected:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    raise BenchError(f"{workload}: metric {m['name']} missing or without unit {m['unit']}")
        if measured["problems"]:
            raise BenchError(f"{workload}: {measured['problems']}")
    print("self-check ok")
    return 0


def record_golden(root: Path, bench: dict) -> int:
    golden = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        measured = run_workload(root, workload, GOLDEN_SEED, 1, trace=False, use_golden=False)
        if measured["problems"]:
            raise BenchError(f"{workload}: {measured['problems']}")
        golden[workload] = {"setup": measured["setup_digests"], "passes": measured["digests"]}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "refaudit" / "__init__.py").is_file():
        print(f"perfbench: no refaudit source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    try:
        bench = _load_benchmark(root)
        if args.self_check:
            return self_check(root, bench)
        if args.record_golden:
            return record_golden(root, bench)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        measured = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
        result = _report(args.workload, measured, bool(args.trace), bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
