"""Benchmark of the prefixmoe lab, end to end and per module.

    python3 perfbench/run.py --workload separation|latent|checks
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each round of a workload runs in a fresh
worker process (``worker.py``) with one sweep worker and one BLAS thread.
``--trace 0`` first starts one worker that only sets up, then runs
rounds, each at its own seed drawn from ``--seed``, until at least two
rounds and ``--seconds`` seconds are done, and reports the median of each
end-to-end metric. ``--trace 1`` runs one plain round and one traced round
at the same seed and reports the per-layer metrics of the traced one.
Either way the outputs of every round are checked (see ``checks.py``), a
table of every metric is printed, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` lists for the mode.
Outputs and the trace go to ``.perfbench_out/<workload>/``.
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

import workloads
from worker import READY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 2
# every run must end within 180 s
TIME_LIMIT_S = 170
# One BLAS thread per worker: with OpenBLAS's default of nproc threads the
# extra thread mostly spins (cpu_s about 1.6x run_s for no wall-time gain)
# and doubles the run-to-run spread of cpu_s.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def unit_of(name: str) -> str:
    for suffix, unit in (("_mib", "MiB"), ("_ms", "ms"), ("_us", "us"), ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name.endswith(".s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    return "count"


def spawn(plan_path: Path, round_dir: Path, mode: str, deadline: float) -> dict:
    """Run one worker; its result plus ``setup_s``, the time from starting
    the process to its ready line."""
    env = {k: v for k, v in os.environ.items() if k != "PREFIXMOE_THREADS"} | BLAS_ENV
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(round_dir), mode],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{round_dir.name} ran past the time limit")
    if line.strip() != READY or proc.returncode != 0:
        raise RuntimeError(f"{round_dir.name}: worker exited {proc.returncode}")
    result = json.loads((round_dir / "result.json").read_text())
    result["setup_s"] = ready - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the seed of the workload's shipped config")
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in workloads.REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    seed = args.seed if args.seed is not None else workloads.default_seed(args.workload, ROOT)
    deadline = time.monotonic() + TIME_LIMIT_S

    def prepare(name: str, index: int):
        round_dir = workdir / name
        plan = workloads.make_plan(args.workload, workloads.round_seed(seed, index), ROOT, round_dir / "inputs")
        round_dir.mkdir(parents=True, exist_ok=True)
        (round_dir / "plan.json").write_text(json.dumps(plan))
        return round_dir, plan

    rounds = []
    setups = []  # set-up times of the probe; the rounds carry their own
    if args.trace:
        for mode in ("run", "trace"):
            round_dir, plan = prepare(f"round{len(rounds)}", 0)
            rounds.append((round_dir, plan, spawn(round_dir / "plan.json", round_dir, mode, deadline)))
    else:
        probe_dir, _ = prepare("setup", 0)
        setups.append(spawn(probe_dir / "plan.json", probe_dir, "setup", deadline)["setup_s"])
        started = time.monotonic()
        # start another round while one more of the mean length ends in time
        while len(rounds) < MIN_ROUNDS or (time.monotonic() - started) * (len(rounds) + 1) / len(rounds) <= args.seconds:
            round_dir, plan = prepare(f"round{len(rounds)}", len(rounds))
            rounds.append((round_dir, plan, spawn(round_dir / "plan.json", round_dir, "run", deadline)))

    # the checks import numpy and prefixmoe, so they wait until the workers are done
    sys.path.insert(0, str(ROOT / "src"))
    from verify import verify

    attempted, failed, problems = verify(rounds)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    results = [result for _, _, result in rounds]
    if args.trace:
        from tracing import layer_metrics

        plain, traced = results
        metrics = layer_metrics(traced["spans"])
        metrics.update(traced["gradient_us"])
        metrics["setup.import_s"] = statistics.median(r["import_s"] for r in results)
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        (workdir / "trace.json").write_text(json.dumps({"metrics": metrics, "spans": traced["spans"]}))
    else:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
            "run_s": statistics.median(r["run_s"] for r in results),
            "cpu_s": statistics.median(r["cpu_s"] for r in results),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
        }

    print(f"workload {args.workload}, seed {seed}, {len(rounds)} rounds, {len(setups)} set-up probes")
    for name in sorted(metrics):
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit_of(name)}")
    print(f"  operations attempted {attempted}, failed {failed}, correct {not problems}")
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in reported},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
