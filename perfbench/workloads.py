"""What one round of each workload runs, made from the workload seed.

A plan is plain JSON: the configs whose models set-up builds, the
operations of one round, and the truths whose gradient the traced round
times. An operation is a sweep, a command (or the gen -> fit pair) or
the witness scan. ``{out}`` in a command stands for the round's output
directory.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CONFIGS = Path("configs")

# (output label, config); both separation sweeps take the round's seed, so
# their data stay paired
SWEEPS = {
    "separation": (("tied", "separation_shared_rate.json"), ("untied", "separation_non_shared_rate.json")),
    "latent": (("latent", "neural_shared_rate.json"),),
}
# the shipped config whose seed is the workload's default seed
DEFAULT_SEED_CONFIG = {"separation": "separation_shared_rate.json", "latent": "neural_shared_rate.json",
                       "checks": "witness.json"}

# the truth each variant's gradient is timed on: the sweep config of that
# variant, so separation and latent time the variants they fit on their own
# truths, and every workload reports the same three
GRADIENT_CONFIGS = {
    "linear_shared": "separation_shared_rate.json",
    "non_shared": "separation_non_shared_rate.json",
    "neural_shared": "neural_shared_rate.json",
}

# sizes of the checks workload: equivalence trials, the witness scan's
# largest index, the witness command's sample sizes
EQUIV_TRIALS = 8000
SCAN_RS = (1, 2, 3)
SCAN_MAX_INDEX = 3000
WITNESS_SIZES = (10, 100, 1000, 10000)

WORKLOADS = ("separation", "latent", "checks")

# files a checkout must hold for the benchmark to run
REQUIRED = ("src/prefixmoe/__init__.py", "src/prefixmoe/cli.py") + tuple(
    str(CONFIGS / name)
    for name in (
        "separation_shared_rate.json",
        "separation_non_shared_rate.json",
        "neural_shared_rate.json",
        "equiv.json",
        "witness.json",
        "gen_linear.json",
        "fit_linear.json",
    )
)


def _load(root: Path, name: str) -> dict:
    return json.loads((root / CONFIGS / name).read_text())


def default_seed(workload: str, root: Path) -> int:
    return int(_load(root, DEFAULT_SEED_CONFIG[workload])["seed"])


def round_seed(seed: int, index: int) -> int:
    """The seed of a run's round ``index``: the workload seed for the first
    round, then seeds drawn from it, so that one run times several inputs."""
    return seed if index == 0 else random.Random(f"{seed}/{index}").randrange(2**31)


def scan_truth(seed: int) -> dict:
    """An untied two-atom truth in three dimensions whose atoms sit at least
    2 apart, so the witness twins (displaced by at most 1/2) stay in the
    first atom's cell at every index."""
    rng = random.Random(seed)
    while True:
        atoms = [[rng.uniform(-1.5, 1.5) for _ in range(6)] for _ in range(2)]
        if sum((a - b) ** 2 for a, b in zip(*atoms)) >= 4.0:
            break
    return {
        "variant": "non_shared",
        "log_weights": [rng.uniform(-1.0, 1.0) for _ in range(2)],
        "p_key": [atom[:3] for atom in atoms],
        "p_value": [atom[3:] for atom in atoms],
    }


def make_plan(workload: str, seed: int, root: Path, inputs: Path) -> dict:
    """One round of ``workload`` at ``seed``; generated configs are written
    under ``inputs``."""
    models = []
    ops = []
    if workload in SWEEPS:
        for label, name in SWEEPS[workload]:
            cfg = _load(root, name)
            models.append(str(CONFIGS / name))
            ops.append(
                {
                    "kind": "sweep",
                    "name": label,
                    "config": str(CONFIGS / name),
                    "seed": seed,
                    "cells": [[n, rep] for n in cfg["sample_sizes"] for rep in range(cfg["replications"])],
                    "argvs": [["sweep", "--config", str(CONFIGS / name), "--output-dir", f"{{out}}/{label}",
                               "--seed", str(seed)]],
                }
            )
    elif workload == "checks":
        inputs.mkdir(parents=True, exist_ok=True)
        generated = {
            "equiv": {**_load(root, "equiv.json"), "seed": seed, "trials": EQUIV_TRIALS},
            "witness": {**_load(root, "witness.json"), "seed": seed, "sample_sizes": list(WITNESS_SIZES)},
            "gen": {**_load(root, "gen_linear.json"), "seed": seed},
            "fit": {**_load(root, "fit_linear.json"), "seed": seed},
        }
        paths = {}
        for key, cfg in generated.items():
            paths[key] = str(inputs / f"{key}.json")
            Path(paths[key]).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        models = [paths["witness"], paths["gen"]]
        ops = [
            {"kind": "equiv", "name": "equiv", "config": paths["equiv"], "seed": seed,
             "argvs": [["equiv", "--config", paths["equiv"], "--output-dir", "{out}/equiv"]]},
            {"kind": "witness_scan", "name": "witness_scan", "truth": scan_truth(seed),
             "rs": list(SCAN_RS), "indices": list(range(2, SCAN_MAX_INDEX + 1))},
            {"kind": "witness", "name": "witness", "config": paths["witness"],
             "argvs": [["witness", "--config", paths["witness"], "--output-dir", "{out}/witness"]]},
            {"kind": "fit_flow", "name": "gen_fit", "gen_config": paths["gen"],
             "argvs": [["gen", "--config", paths["gen"], "--output-dir", "{out}/fit"],
                       ["fit", "--config", paths["fit"], "--output-dir", "{out}/fit", "--grad-check", "--force"]]},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "seed": seed,
        "models": models,
        "ops": ops,
        "gradient": [{"variant": v, "config": str(CONFIGS / name)} for v, name in GRADIENT_CONFIGS.items()],
    }
