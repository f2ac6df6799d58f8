"""The benchmark's checks accept real program output and reject a
deliberately corrupted copy of it: a raised objective, a perturbed slope,
a witness row off by 1e-6, a failed gradient check, a shifted attention
output.

    PYTHONPATH=src python -m pytest perfbench/test_checks.py
"""

import csv
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import prefixmoe as pm  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from prefixmoe.cli import main  # noqa: E402

CONFIGS = ROOT / "configs"


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A small tied sweep on the separation truth, run through the CLI."""
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = json.loads((CONFIGS / "separation_shared_rate.json").read_text())
    cfg.update(sample_sizes=[200, 800, 3200], replications=3, mc_samples=2000)
    config = _write_config(tmp / "sweep.json", cfg)
    assert main(["sweep", "--config", config, "--output-dir", str(tmp / "out")]) == 0
    op = {"config": config, "seed": cfg["seed"], "cells": [[n, r] for n in cfg["sample_sizes"] for r in range(3)]}
    return {
        "csv": (tmp / "out" / "sweep_results.csv").read_text(),
        "summary": json.loads((tmp / "out" / "sweep_summary.json").read_text()),
        "sums": verify._cell_residual_sums(op, pm),
    }


def _with_objective(csv_text: str, factor: float, sums: dict) -> str:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    first = rows[0]
    first["objective"] = repr(sums[(int(first["n"]), int(first["rep"]))] * factor)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_sweep_checks_accept_real_output(sweep):
    assert checks.check_sweep(sweep["csv"], sweep["summary"], sweep["sums"]) == ([], [])


def test_sweep_checks_reject_raised_objective(sweep):
    corrupted = _with_objective(sweep["csv"], 1.0001, sweep["sums"])
    failed, problems = checks.check_sweep(corrupted, sweep["summary"], sweep["sums"])
    assert failed == [(200, 0)] and problems == []


def test_sweep_checks_reject_unconverged_cell(sweep):
    corrupted = sweep["csv"].replace("true", "false", 1)
    failed, _ = checks.check_sweep(corrupted, sweep["summary"], sweep["sums"])
    assert failed == [(200, 0)]


@pytest.mark.parametrize("kind", ["loss", "l2"])
def test_sweep_checks_reject_perturbed_slope(sweep, kind):
    summary = json.loads(json.dumps(sweep["summary"]))
    summary["slopes"][kind]["slope"] += 1e-6
    _, problems = checks.check_sweep(sweep["csv"], summary, sweep["sums"])
    assert len(problems) == 1 and kind in problems[0]


def test_sweep_checks_reject_rising_loss(sweep):
    rows = sweep["csv"].splitlines()
    bumped = [r.replace(r.split(",")[4], "9.0") if r.startswith("linear_shared,3200,") else r for r in rows]
    _, problems = checks.check_sweep("\n".join(bumped) + "\n", sweep["summary"], sweep["sums"])
    assert any("does not fall" in p for p in problems)


def test_regression_matches_the_program_on_every_variant():
    for name in ("separation_shared_rate.json", "separation_non_shared_rate.json", "neural_shared_rate.json"):
        model = json.loads((CONFIGS / name).read_text())["model"]
        x = np.random.default_rng(0).uniform(-1, 1, size=(50, len(model["proj"]["c"])))
        want = pm.eval_regression(pm.model_from_dict(model), x)
        np.testing.assert_allclose(checks.regression(model, x), want, rtol=1e-12, atol=1e-12)


def test_witness_table_checks(tmp_path):
    cfg = json.loads((CONFIGS / "witness.json").read_text())
    cfg["mc_samples"] = 2000
    config = _write_config(tmp_path / "witness.json", cfg)
    assert main(["witness", "--config", config, "--output-dir", str(tmp_path)]) == 0
    table = (tmp_path / "witness_table.csv").read_text()
    weight = np.exp(cfg["model"]["measure"]["log_weights"][0])
    assert checks.check_witness_table(table, weight, cfg["r"], cfg["sample_sizes"]) == []

    lines = table.splitlines()
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    off_row = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    assert checks.check_witness_table(off_row, weight, cfg["r"], cfg["sample_sizes"])

    fields = lines[3].split(",")
    fields[4] = lines[2].split(",")[4]
    flat_ratio = "\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n"
    assert checks.check_witness_table(flat_ratio, weight, cfg["r"], cfg["sample_sizes"])


def test_witness_scan_checks():
    truth_dict = workloads.scan_truth(11)
    truth = pm.measure_from_dict(truth_dict)
    weight = np.exp(truth_dict["log_weights"][0])
    sizes = list(range(2, 200))
    for r in (1, 2, 3):
        losses = [pm.loss_d1r(pm.witness_sequence(truth, n, r), truth, r) for n in sizes]
        assert checks.check_witness_losses(losses, weight, r, sizes) == []
        losses[50] += 1e-6
        assert len(checks.check_witness_losses(losses, weight, r, sizes)) == 1


def test_fit_checks(tmp_path):
    gen = json.loads((CONFIGS / "gen_linear.json").read_text())
    assert main(["gen", "--config", str(CONFIGS / "gen_linear.json"), "--output-dir", str(tmp_path)]) == 0
    argv = ["fit", "--config", str(CONFIGS / "fit_linear.json"), "--output-dir", str(tmp_path), "--grad-check"]
    assert main(argv + ["--force"]) == 0
    data = np.loadtxt(tmp_path / f"{gen['name']}.csv", delimiter=",", skiprows=1)
    payload = json.loads((tmp_path / "fit_result.json").read_text())
    x, y = data[:, :-1], data[:, -1]
    assert checks.check_fit(payload, gen["model"], x, y) == []

    for objective in (checks.residual_sum(gen["model"], x, y) * 1.0001, payload["fit"]["final_objective"] * (1 + 1e-6)):
        raised = json.loads(json.dumps(payload))
        raised["fit"]["final_objective"] = objective
        assert checks.check_fit(raised, gen["model"], x, y)
    bad_gradient = json.loads(json.dumps(payload))
    bad_gradient["gradient_check"]["max_rel_error"] = 2e-5
    assert checks.check_fit(bad_gradient, gen["model"], x, y)


def test_attention_check():
    assert verify._attention_gap(3, pm) <= checks.ATTENTION_TOL
    shifted = types.SimpleNamespace(**{name: getattr(pm, name) for name in pm.__all__})
    shifted.prompt_forward = lambda bundle, prompts: pm.prompt_forward(bundle, prompts) + 1e-6
    assert verify._attention_gap(3, shifted) > checks.ATTENTION_TOL


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_rank(39) is None
    for count in (40, 50, 120, 1000):
        rank = tracing.tail_rank(count)
        values = list(range(count))
        beyond = [v for v in values if v > tracing.percentile(values, rank)]
        assert len(beyond) >= 10
        assert len([v for v in values if v > tracing.percentile(values, rank + 1)]) < 10
