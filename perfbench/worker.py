"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py PLAN ROUND_DIR setup|run|trace

Set-up imports ``prefixmoe`` from ``src/``, loads the plan's configs and
builds their models, then prints ``perfbench-ready``. ``setup`` stops
there. ``run`` then runs the round's operations through ``prefixmoe.cli``
and the public functions, timed as a whole. ``trace`` does the same with
a span around each traced call, then times ``gradient`` per variant.
Results go to ``ROUND_DIR/result.json``.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from pathlib import Path

READY = "perfbench-ready"
ROOT = Path(__file__).resolve().parents[1]
GRADIENT_SIZES = (200, 3200)
GRADIENT_REPEATS = 31


def peak_rss_mib() -> float:
    """Peak resident memory of this process since its exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(op: dict, out: Path, call_main) -> dict:
    import prefixmoe.experiments as experiments
    import prefixmoe.voronoi as voronoi
    from prefixmoe import measure_from_dict

    if op["kind"] == "witness_scan":
        truth = measure_from_dict(op["truth"])
        losses = {
            str(r): [voronoi.loss_d1r(experiments.witness_sequence(truth, n, r), truth, r) for n in op["indices"]]
            for r in op["rs"]
        }
        return {"losses": losses}
    codes = [call_main([arg.replace("{out}", str(out)) for arg in argv]) for argv in op["argvs"]]
    return {"returncodes": codes}


def at_budget(measure, budget: int):
    """The measure with its atoms cycled to ``budget`` copies and each
    weight split among its copies: a fit's starting point without noise."""
    import numpy as np

    idx = np.arange(budget) % measure.n_atoms
    arrays = {"log_weights": measure.log_weights[idx] - np.log(np.bincount(idx)[idx])}
    for name in ("p_key", "p_value", "prompts"):
        if hasattr(measure, name):
            arrays[name] = getattr(measure, name)[idx]
    return dataclasses.replace(measure, **arrays)


def gradient_times(plan: dict) -> dict:
    """Median time of one ``gradient`` call per variant and sample size."""
    import prefixmoe as pm

    out = {}
    for entry in plan["gradient"]:
        cfg = json.loads(Path(entry["config"]).read_text())
        model = pm.model_from_dict(cfg["model"])
        measure = at_budget(model.measure, int(cfg["fit"]["atom_budget"]))
        for n in GRADIENT_SIZES:
            data = pm.gen_dataset(model, n, pm.child_seed(plan["seed"], n, entry["variant"], "gradient"))
            times = []
            for _ in range(GRADIENT_REPEATS):
                start = time.perf_counter()
                pm.gradient(measure, model.bank, model.proj, data)
                times.append(time.perf_counter() - start)
            out[f"estimation.gradient.{entry['variant']}.n{n}_us"] = 1e6 * statistics.median(times)
    return out


def main(argv) -> int:
    plan_path, round_dir, mode = Path(argv[0]), Path(argv[1]), argv[2]
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import prefixmoe
    import prefixmoe.cli as cli

    import_s = time.perf_counter() - started
    if not Path(prefixmoe.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"prefixmoe was imported from {prefixmoe.__file__}, not from src/")
    plan = json.loads(plan_path.read_text())
    for config in plan["models"]:
        prefixmoe.model_from_dict(json.loads(Path(config).read_text())["model"])
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print(READY, flush=True)
    result = {"import_s": import_s}
    if mode != "setup":
        if tracer is None:
            call_main = cli.main
        else:
            def call_main(args):
                return tracer.span("cli.main", cli.main, args)

        wall, cpu = time.perf_counter(), time.process_time()
        result["ops"] = [run_op(op, round_dir, call_main) for op in plan["ops"]]
        result["run_s"] = time.perf_counter() - wall
        result["cpu_s"] = time.process_time() - cpu
        result["peak_rss_mib"] = peak_rss_mib()
        if tracer is not None:
            tracer.recording = False
            result["spans"] = tracer.spans
            result["gradient_us"] = gradient_times(plan)
    (round_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
