"""Command-line entry point.

Every subcommand takes one JSON config, ``"version": 2`` plus the fields
of the command's schema (an unknown key at any level, a value of the
wrong JSON type or a non-finite number exits 2 and is named), and a small
set of flags. It writes its outputs and a run manifest into
``--output-dir``, and never overwrites existing files unless ``--force``
is given. Exit codes: 0 success, 1 acceptance failure, 2 configuration
error. Relative paths inside configs resolve against the output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from ._util import config_field, from_json
from .errors import ConfigurationError, UsageError
from .estimation import (
    ESTIMATOR_NOTE,
    FitConfig,
    fit,
    gradient_check,
)
from .experiments import (
    SweepSpec,
    l2_norm,
    run_sweep,
    witness_closed_form,
    witness_sequence,
)
from .model import (
    Dataset,
    RegressionModel,
    check_identifiability,
    gen_dataset,
    model_from_dict,
    regression_fn,
)
from .attention import run_equivalence_trials
from .voronoi import loss_d1r, loss_for_setting
from . import __version__

WITNESS_AGREEMENT_TOL = 1e-10


# --------------------------------------------------------------------------
# config schemas; the sweep's is ``experiments.SweepSpec``


@dataclass(frozen=True)
class EquivConfig:
    trials: int
    seed: int
    tolerance: float = 1e-9
    max_tokens: int = 8
    max_dim: int = 16
    heads: tuple[int, ...] = (1, 2)
    max_prompts: int = 4


@dataclass(frozen=True)
class WitnessConfig:
    model: RegressionModel
    r: int
    sample_sizes: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if self.model.setting != "non_shared":
            raise ConfigurationError("witness config needs an untied ('non_shared') truth measure")
        if self.r < 1:
            raise ConfigurationError("witness config: r must be a positive integer")
        if not self.sample_sizes:
            raise ConfigurationError("witness config: field 'sample_sizes' must not be empty")


@dataclass(frozen=True)
class GenConfig:
    model: RegressionModel
    n: int
    seed: int
    name: str = "dataset"


@dataclass(frozen=True)
class FitCommandConfig:
    dataset: str
    fit: FitConfig
    seed: int


def _load_config(path: Path, schema, seed_override):
    """The config at ``path`` as an instance of ``schema``, with ``--seed``
    in place of its ``seed`` when given."""
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
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
# output plumbing


def _resolve(path_str: str, outdir: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else outdir / p


def _guard_outputs(paths, force: bool) -> None:
    clashes = [str(p) for p in paths if p.exists()]
    if clashes and not force:
        raise ConfigurationError(
            "refusing to overwrite existing outputs (use --force): " + ", ".join(clashes)
        )


def _write_manifest(outdir: Path, command: str, config_path: Path, seed_override) -> None:
    manifest = {
        "version": 1,
        "command": command,
        "config_path": str(config_path),
        "config_hash": hashlib.sha256(config_path.read_bytes()).hexdigest(),
        "output_dir": str(outdir),
        "seed_override": seed_override,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }
    (outdir / "run_manifest.json").write_text(_json_text(manifest))


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _prepare(args, schema, output_names) -> tuple:
    """Load the config and create the output directory, refusing existing
    outputs before any work is done."""
    config_path = Path(args.config)
    cfg = _load_config(config_path, schema, args.seed)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _guard_outputs([outdir / name for name in output_names] + [outdir / "run_manifest.json"], args.force)
    return cfg, config_path, outdir


# --------------------------------------------------------------------------
# subcommands


def cmd_equiv(args) -> int:
    cfg, config_path, outdir = _prepare(args, EquivConfig, ["equiv_report.json"])
    report = run_equivalence_trials(
        n_trials=cfg.trials,
        seed=cfg.seed,
        tolerance=cfg.tolerance,
        max_tokens=cfg.max_tokens,
        max_dim=cfg.max_dim,
        heads=cfg.heads,
        max_prompts=cfg.max_prompts,
    )
    (outdir / "equiv_report.json").write_text(_json_text(report.to_dict()))
    _write_manifest(outdir, "equiv", config_path, args.seed)
    if not report.passed:
        print(
            f"equivalence failure: prefix diff {report.max_abs_diff_prefix:.3e}, "
            f"prompt diff {report.max_abs_diff_prompt:.3e} > tol {report.tolerance:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_sweep(args) -> int:
    config_path = Path(args.config)
    spec = _load_config(config_path, SweepSpec, args.seed)
    if args.dry_run:
        plan = {
            "cells": [
                {"n": n, "rep": rep, **{f"{k}_seed": v for k, v in spec.cell_seeds(n, rep).items()}}
                for n in spec.sample_sizes
                for rep in range(spec.replications)
            ],
            "setting": spec.setting,
            "seed": spec.seed,
        }
        print(_json_text(plan), end="")
        return 0
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    loss_name = loss_for_setting(spec.setting)[0]
    names = ["sweep_results.csv", "sweep_summary.json", f"plot_{loss_name}.dat", "plot_l2.dat"]
    _guard_outputs([outdir / name for name in names + ["run_manifest.json"]], args.force)
    result = run_sweep(spec)
    (outdir / "sweep_results.csv").write_text(result.csv_text())
    (outdir / "sweep_summary.json").write_text(result.json_text())
    (outdir / f"plot_{loss_name}.dat").write_text(result.plot_text("loss"))
    (outdir / "plot_l2.dat").write_text(result.plot_text("l2"))
    _write_manifest(outdir, "sweep", config_path, args.seed)
    bad = [a for a in result.aggregates if a["failure_count"] > 0.5 * (a["fit_count"] + a["failure_count"])]
    if bad:
        sizes = ", ".join(str(a["n"]) for a in bad)
        print(f"sweep failure: more than half of the fits failed at n in {{{sizes}}}", file=sys.stderr)
        return 1
    return 0


def cmd_witness(args) -> int:
    cfg, config_path, outdir = _prepare(args, WitnessConfig, ["witness_table.csv", "witness_summary.json"])
    truth_model, r = cfg.model, cfg.r
    truth = truth_model.measure
    truth_fn = regression_fn(truth_model.bank, truth_model.proj, truth)
    rows = []
    worst = 0.0
    for n in cfg.sample_sizes:
        witness = witness_sequence(truth, n, r)
        computed = loss_d1r(witness, truth, r)
        closed = witness_closed_form(truth, n, r)
        witness_fn = regression_fn(truth_model.bank, truth_model.proj, witness)
        l2 = l2_norm(witness_fn, truth_fn, truth_model.input_law, truth_model.proj.dim)
        worst = max(worst, abs(computed - closed))
        rows.append({"n": n, "closed_form": closed, "computed": computed, "l2": l2, "ratio": l2 / computed})
    lines = ["n,closed_form,computed,l2,ratio"]
    for row in rows:
        lines.append(f"{row['n']},{row['closed_form']!r},{row['computed']!r},{row['l2']!r},{row['ratio']!r}")
    table_text = "\n".join(lines) + "\n"
    ratios = [row["ratio"] for row in rows]
    summary = {
        "version": 1,
        "r": r,
        "sample_sizes": cfg.sample_sizes,
        "seed": cfg.seed,
        "max_abs_disagreement": worst,
        "agreement_tol": WITNESS_AGREEMENT_TOL,
        "agreement": worst <= WITNESS_AGREEMENT_TOL,
        "ratios_strictly_decreasing": all(b < a for a, b in zip(ratios, ratios[1:])),
        "rows": rows,
    }
    (outdir / "witness_table.csv").write_text(table_text)
    (outdir / "witness_summary.json").write_text(_json_text(summary))
    _write_manifest(outdir, "witness", config_path, args.seed)
    if worst > WITNESS_AGREEMENT_TOL:
        print(
            f"witness failure: computed loss disagrees with the closed form by {worst:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_gen(args) -> int:
    cfg, config_path, outdir = _prepare(args, GenConfig, [])
    model = cfg.model
    csv_path = outdir / f"{cfg.name}.csv"
    _guard_outputs([csv_path, Dataset.meta_path(csv_path)], args.force)
    if model.measure.n_atoms >= 1:
        ident = check_identifiability(model.measure, model.proj)
        if not ident.passed:
            print(
                f"warning: projected key prompts nearly coincide "
                f"(min distance {ident.min_distance:.3e})",
                file=sys.stderr,
            )
    dataset = gen_dataset(model, cfg.n, cfg.seed)
    dataset.save(csv_path)
    _write_manifest(outdir, "gen", config_path, args.seed)
    return 0


def cmd_fit(args) -> int:
    cfg, config_path, outdir = _prepare(args, FitCommandConfig, ["fit_result.json"])
    dataset_path = _resolve(cfg.dataset, outdir)
    if not dataset_path.is_file():
        raise ConfigurationError(f"dataset file not found: {dataset_path}")
    dataset = Dataset.load(dataset_path)
    meta_where = str(Dataset.meta_path(dataset_path))
    truth_model = model_from_dict(
        config_field(dataset.provenance, "model", dict, meta_where), f"{meta_where}: model"
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
    (outdir / "fit_result.json").write_text(_json_text(payload))
    _write_manifest(outdir, "fit", config_path, args.seed)
    return 1 if result.failed else 0


# --------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the JSON config")
    sub.add_argument("--output-dir", default=".", help="directory for outputs (default: .)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--force", action="store_true", help="allow overwriting existing outputs")


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

    equiv = subs.add_parser("equiv", help="randomized forward-vs-decomposition checks")
    _add_common(equiv)
    equiv.set_defaults(func=cmd_equiv)

    sweep = subs.add_parser("sweep", help="convergence-rate sweep over sample sizes")
    _add_common(sweep)
    sweep.add_argument("--dry-run", action="store_true", help="print the resolved plan and exit")
    sweep.set_defaults(func=cmd_sweep)

    witness = subs.add_parser("witness", help="slow-rate witness table")
    _add_common(witness)
    witness.set_defaults(func=cmd_witness)

    gen = subs.add_parser("gen", help="generate a dataset CSV with sidecar metadata")
    _add_common(gen)
    gen.set_defaults(func=cmd_gen)

    fit_cmd = subs.add_parser("fit", help="least-squares fit on a generated dataset")
    _add_common(fit_cmd)
    fit_cmd.add_argument(
        "--grad-check", action="store_true", help="emit a finite-difference gradient check section"
    )
    fit_cmd.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
