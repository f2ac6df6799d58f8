"""Command-line entry point.

Every subcommand takes one JSON config, ``"version": 2`` plus the fields
of the command's schema (an unknown key at any level, a value of the
wrong JSON type or a non-finite number exits 2 and is named), and a small
set of flags. One runner, ``run_command``, serves every command: it loads
the config, names the outputs from it and refuses existing ones before
any work unless ``--force`` is given, runs the command, and writes the
files the command returns and a run manifest into ``--output-dir``,
which it creates only then.
Exit codes: 0 success, 1 acceptance failure (the reason goes to stderr),
2 configuration error. Relative paths inside configs resolve against the
output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from ._util import config_field, csv_text, from_json, json_text, read_json
from .errors import ConfigurationError, UsageError
from .estimation import ESTIMATOR_NOTE, FitConfig, fit, gradient_check
from .experiments import (
    BLAS_THREAD_VARIABLES,
    WITNESS_COLUMNS,
    SweepSpec,
    pool_size,
    pool_start_method,
    run_sweep,
    usable_cpus,
    witness_table,
)
from .model import Dataset, RegressionModel, check_identifiability, gen_dataset, model_from_dict, model_to_dict
from .attention import run_equivalence_trials
from .voronoi import loss_for_setting
from . import __version__

WITNESS_AGREEMENT_TOL = 1e-10


# --------------------------------------------------------------------------
# config schemas; the sweep's is ``experiments.SweepSpec``


@dataclass(frozen=True)
class EquivConfig:
    trials: int
    seed: int
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.trials < 0:
            raise ConfigurationError(f"field 'trials' must be at least 0, got {self.trials}")
        if self.tolerance < 0:
            raise ConfigurationError(f"field 'tolerance' must be at least 0, got {self.tolerance}")


@dataclass(frozen=True)
class WitnessConfig:
    model: RegressionModel
    r: int
    sample_sizes: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if self.model.setting != "non_shared":
            raise ConfigurationError("the truth measure must be untied ('non_shared')")
        if self.r < 1:
            raise ConfigurationError("field 'r' must be a positive integer")
        if not self.sample_sizes:
            raise ConfigurationError("field 'sample_sizes' must not be empty")
        if min(self.sample_sizes) < 1:
            raise ConfigurationError("every entry of field 'sample_sizes' must be at least 1")


@dataclass(frozen=True)
class GenConfig:
    model: RegressionModel
    n: int
    seed: int
    name: str = "dataset"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"field 'n' must be at least 1, got {self.n}")


@dataclass(frozen=True)
class FitCommandConfig:
    dataset: str
    fit: FitConfig
    seed: int


def _load_config(path: Path, schema, seed_override):
    """The config at ``path`` as an instance of ``schema``, with ``--seed``
    in place of its ``seed`` when given."""
    data = read_json(path, "config file")
    if config_field(data, "version", int, str(path)) != 2:
        raise ConfigurationError(
            f"{path}: field 'version' must be 2 (from version 1: drop 'setting', 'voronoi_r' and 'fit.init.kind', "
            "and move 'fit.init.scale' and 'fit.optimizer.max_iters' up into 'fit' as 'scale' and 'max_iters')"
        )
    del data["version"]
    # configs written before the L2 distance became exact name a Monte-Carlo sample count
    if "mc_samples" in data:
        del data["mc_samples"]
        print(f"note: {path}: field 'mc_samples' is ignored; the L2 distance is exact quadrature", file=sys.stderr)
    if seed_override is not None:
        data["seed"] = seed_override
    return from_json(
        schema,
        data,
        str(path),
        model=lambda block, _: model_from_dict(block, f"{path}: model"),
        fit=lambda block, _: from_json(FitConfig, block, f"{path}: fit"),
    )


# --------------------------------------------------------------------------
# subcommands: each takes its config and the parsed arguments and returns
# its output files (name -> text) and a failure message or None


def cmd_equiv(cfg: EquivConfig, args):
    report = run_equivalence_trials(n_trials=cfg.trials, seed=cfg.seed, tolerance=cfg.tolerance)
    failure = None if report.passed else (
        f"equivalence failure: prefix diff {report.max_abs_diff_prefix:.3e}, "
        f"prompt diff {report.max_abs_diff_prompt:.3e} > tol {report.tolerance:.1e}"
    )
    return {"equiv_report.json": json_text(report.to_dict())}, failure


def _sweep_outputs(spec: SweepSpec) -> list:
    loss_name = loss_for_setting(spec.setting)[0]
    return ["sweep_results.csv", "sweep_summary.json", f"plot_{loss_name}.dat", "plot_l2.dat"]


def _sweep_plan(spec: SweepSpec) -> dict:
    cells = [
        {"n": n, "rep": rep, **{f"{k}_seed": v for k, v in spec.cell_seeds(n, rep).items()}}
        for n, rep in spec.cells
    ]
    return {"cells": cells, "setting": spec.setting, "seed": spec.seed}


def cmd_sweep(spec: SweepSpec, args):
    result = run_sweep(spec)
    files = {
        "sweep_results.csv": result.csv_text(),
        "sweep_summary.json": result.json_text(),
        f"plot_{result.loss_name}.dat": result.plot_text("loss"),
        "plot_l2.dat": result.plot_text("l2"),
    }
    bad = [a for a in result.aggregates if a["failure_count"] > 0.5 * (a["fit_count"] + a["failure_count"])]
    if bad:
        sizes = ", ".join(str(a["n"]) for a in bad)
        return files, f"sweep failure: more than half of the fits failed at n in {{{sizes}}}"
    return files, None


def cmd_witness(cfg: WitnessConfig, args):
    rows = witness_table(cfg.model, cfg.r, cfg.sample_sizes)
    worst = max(0.0, *(abs(row["computed"] - row["closed_form"]) for row in rows))
    ratios = [row["ratio"] for row in rows]
    summary = {
        "version": 1,
        "r": cfg.r,
        "sample_sizes": cfg.sample_sizes,
        "seed": cfg.seed,
        "max_abs_disagreement": worst,
        "agreement_tol": WITNESS_AGREEMENT_TOL,
        "agreement": worst <= WITNESS_AGREEMENT_TOL,
        "ratios_strictly_decreasing": all(b < a for a, b in zip(ratios, ratios[1:])),
        "rows": rows,
    }
    files = {
        "witness_table.csv": csv_text(WITNESS_COLUMNS, ([row[key] for key in WITNESS_COLUMNS] for row in rows)),
        "witness_summary.json": json_text(summary),
    }
    if worst > WITNESS_AGREEMENT_TOL:
        return files, f"witness failure: computed loss disagrees with the closed form by {worst:.3e}"
    return files, None


def _gen_outputs(cfg: GenConfig) -> list:
    return [f"{cfg.name}.csv", str(Dataset.meta_path(f"{cfg.name}.csv"))]


def cmd_gen(cfg: GenConfig, args):
    model = cfg.model
    if model.measure.n_atoms >= 1:
        ident = check_identifiability(model.measure, model.proj)
        if not ident.passed:
            print(
                f"warning: projected key prompts nearly coincide "
                f"(min distance {ident.min_distance:.3e})",
                file=sys.stderr,
            )
    dataset = gen_dataset(model, cfg.n, cfg.seed)
    csv_name, meta_name = _gen_outputs(cfg)
    meta = {"version": 1, "seed": cfg.seed, "n": cfg.n, "model": model_to_dict(model)}
    return {csv_name: dataset.csv_text(), meta_name: json_text(meta)}, None


def cmd_fit(cfg: FitCommandConfig, args):
    # a relative dataset path resolves against the output directory
    dataset_path = Path(args.output_dir) / cfg.dataset
    # the sidecar that gen wrote holds the generating model
    meta_where = str(Dataset.meta_path(dataset_path))
    meta = read_json(meta_where, "dataset metadata")
    truth_model = model_from_dict(config_field(meta, "model", dict, meta_where), f"{meta_where}: model")
    dataset = Dataset.load(dataset_path)
    if dataset.x.shape[1] != truth_model.proj.dim:
        raise ConfigurationError(
            f"{dataset_path}: {dataset.x.shape[1]} covariate columns, but the model in {meta_where} has dim "
            f"{truth_model.proj.dim}"
        )
    loss_name, loss_fn = loss_for_setting(truth_model.setting)
    result = fit(dataset, truth_model.bank, truth_model.proj, truth_model.measure, cfg.fit, cfg.seed)
    payload = {
        "version": 1,
        "setting": truth_model.setting,
        "dataset": cfg.dataset,
        "fit": result.to_dict(),
        "estimator_note": ESTIMATOR_NOTE,
    }
    if not result.failed:
        payload["loss_name"] = loss_name
        payload["voronoi_loss_vs_reference"] = loss_fn(result.measure, truth_model.measure)
        if args.grad_check:
            payload["gradient_check"] = {
                "step": 1e-5,
                "max_rel_error": gradient_check(
                    result.measure, truth_model.bank, truth_model.proj, dataset
                ),
            }
    failure = f"fit failure: {result.failure_reason}" if result.failed else None
    return {"fit_result.json": json_text(payload)}, failure


class Command(NamedTuple):
    run: Callable
    schema: type
    outputs: Callable  # config -> the names of the files ``run`` returns
    help: str
    flag: tuple = ()  # (option, help) of the command's one extra switch
    manifest: Callable = lambda cfg: {}  # config -> the command's own run manifest fields


COMMANDS = {
    "equiv": Command(cmd_equiv, EquivConfig, lambda cfg: ["equiv_report.json"],
                     "randomized forward-vs-decomposition checks"),
    "sweep": Command(cmd_sweep, SweepSpec, _sweep_outputs, "convergence-rate sweep over sample sizes",
                     ("--dry-run", "print the resolved plan and exit"),
                     lambda spec: {"pool_size": pool_size(spec), "pool_start_method": pool_start_method(spec)}),
    "witness": Command(cmd_witness, WitnessConfig, lambda cfg: ["witness_table.csv", "witness_summary.json"],
                       "slow-rate witness table"),
    "gen": Command(cmd_gen, GenConfig, _gen_outputs, "generate a dataset CSV with sidecar metadata"),
    "fit": Command(cmd_fit, FitCommandConfig, lambda cfg: ["fit_result.json"],
                   "least-squares fit on a generated dataset",
                   ("--grad-check", "emit a finite-difference gradient check section")),
}


def run_command(args) -> int:
    """Load the config, refuse existing outputs before any work, run the
    command, and write its files and the run manifest."""
    command = COMMANDS[args.command]
    config_path = Path(args.config)
    cfg = _load_config(config_path, command.schema, args.seed)
    if getattr(args, "dry_run", False):
        print(json_text(_sweep_plan(cfg)), end="")
        return 0
    outdir = Path(args.output_dir)
    names = [*command.outputs(cfg), "run_manifest.json"]
    clashes = [str(outdir / name) for name in names if (outdir / name).exists()]
    if clashes and not args.force:
        raise ConfigurationError("refusing to overwrite existing outputs (use --force): " + ", ".join(clashes))
    files, failure = command.run(cfg, args)
    files["run_manifest.json"] = json_text(
        {
            "version": 1,
            "command": args.command,
            "config_path": str(config_path),
            "config_hash": hashlib.sha256(config_path.read_bytes()).hexdigest(),
            "output_dir": str(outdir),
            "seed_override": args.seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
            "affinity_cpus": usable_cpus(),
            **command.manifest(cfg),
        }
    )
    assert list(files) == names, "a command must return exactly the outputs it declares"
    # made only now, so that a command that refuses its input leaves no directory
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixmoe",
        description=(
            "Gated-mixture view of prompt/prefix attention: equivalence checks, "
            "dataset generation, least-squares fits, witness tables, and rate sweeps."
        ),
    )
    parser.add_argument("--version", action="version", version=f"prefixmoe {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.add_argument("--config", required=True, help="path to the JSON config")
        sub.add_argument("--output-dir", default=".", help="directory for outputs (default: .)")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
        sub.add_argument("--force", action="store_true", help="allow overwriting existing outputs")
        if command.flag:
            sub.add_argument(command.flag[0], action="store_true", help=command.flag[1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
