"""Exact L2 norms, the slow-rate witness, slope fitting, and sweeps."""

import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prefixmoe import (
    ConfigurationError,
    FitConfig,
    LinearSharedMeasure,
    NonSharedMeasure,
    PretrainedBank,
    ProjectionPair,
    RegressionModel,
    UsageError,
    child_seed,
    fit,
    fit_slope,
    gen_dataset,
    l2_norm,
    loss_d1r,
    regression_fn,
    run_sweep,
    witness_closed_form,
    witness_sequence,
)
from prefixmoe import experiments
from prefixmoe.cli import _load_config
from prefixmoe.experiments import SweepSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# -----------------------------------------------------------------------
# exact L2 norm


def test_identical_functions_have_zero_distance():
    fn = lambda x: x[:, 0] ** 2
    assert l2_norm(fn, fn, 3) == 0.0


def test_constant_offset_is_recovered_exactly():
    for dim in (1, 2, 3):
        value = l2_norm(lambda x: x[:, 0], lambda x: x[:, 0] + 0.75, dim)
        assert abs(value - 0.75) <= 1e-15


def test_linear_difference_matches_closed_form_integral():
    # f - g = x_0 on Uniform[-1, 1]^dim: the L2 norm is 1/sqrt(3)
    exact = 1.0 / math.sqrt(3.0)
    for dim in (1, 2, 3):
        assert abs(l2_norm(lambda x: x[:, 0], lambda x: np.zeros(len(x)), dim) - exact) <= 1e-14


@pytest.mark.parametrize(
    "name", ["linear_shared_rate.json", "separation_non_shared_rate.json", "neural_shared_rate.json"]
)
def test_sixteen_nodes_agree_with_twenty_four_on_fitted_measures(name, monkeypatch):
    spec = _load_config(CONFIGS / name, SweepSpec, None)
    model = spec.model
    dataset = gen_dataset(model, 200, child_seed(spec.seed, 200, 0, "data"))
    result = fit(dataset, model.bank, model.proj, model.measure, spec.fit, seed=0)
    assert not result.failed
    fitted = regression_fn(model.bank, model.proj, result.measure)
    truth = regression_fn(model.bank, model.proj, model.measure)
    coarse = l2_norm(fitted, truth, model.proj.dim)
    monkeypatch.setattr(experiments, "QUADRATURE_NODES", 24)
    fine = l2_norm(fitted, truth, model.proj.dim)
    assert coarse > 0 and abs(coarse - fine) <= 1e-10 * fine


# -----------------------------------------------------------------------
# witness construction


def witness_truth(d=3):
    return NonSharedMeasure(
        [0.0, -0.4],
        [[0.3, -0.2, 0.5], [-1.1, 0.8, -0.4]],
        [[0.6, 0.1, -0.3], [-0.5, -0.9, 0.7]],
    )


def test_witness_loss_matches_closed_form_to_1e12():
    truth = witness_truth()
    for r in (1, 2, 3):
        for n in (2, 3, 7, 10, 100, 1234, 10_000):
            witness = witness_sequence(truth, n, r)
            assert witness.n_atoms == truth.n_atoms + 1
            computed = loss_d1r(witness, truth, r)
            assert abs(computed - witness_closed_form(truth, n, r)) <= 1e-12


def test_witness_loss_decreases_in_n():
    truth = witness_truth()
    values = [witness_closed_form(truth, n, 1) for n in (10, 100, 1000)]
    assert values[0] > values[1] > values[2]
    computed = [loss_d1r(witness_sequence(truth, n, 1), truth, 1) for n in (10, 100, 1000)]
    assert computed[0] > computed[1] > computed[2]


def test_witness_unit_weight_spot_value():
    truth = NonSharedMeasure([0.0], [[0.5, -0.3]], [[0.2, 0.4]])
    assert abs(witness_closed_form(truth, 10, 1) - 0.111) <= 1e-15
    assert abs(loss_d1r(witness_sequence(truth, 10, 1), truth, 1) - 0.111) <= 1e-12


def test_witness_validation_errors():
    truth = witness_truth()
    with pytest.raises(UsageError):
        witness_sequence(truth, 0, 1)
    with pytest.raises(ConfigurationError):
        witness_sequence(truth, 10, 0)
    with pytest.raises(UsageError):
        witness_sequence(NonSharedMeasure([], np.zeros((0, 2)), np.zeros((0, 2))), 10, 1)
    with pytest.raises(UsageError):
        witness_sequence(LinearSharedMeasure([0.0], [[1.0]]), 10, 1)


def test_witness_density_ratio_shrinks_like_one_over_n():
    bank = PretrainedBank.random(2, 3, seed=55)
    proj = ProjectionPair.random(3, seed=56)
    truth = witness_truth()
    truth_fn = regression_fn(bank, proj, truth)

    def ratio(n):
        witness = witness_sequence(truth, n, 1)
        l2 = l2_norm(regression_fn(bank, proj, witness), truth_fn, 3)
        return l2 / loss_d1r(witness, truth, 1)

    assert ratio(100) <= 0.25 * ratio(10)


# -----------------------------------------------------------------------
# slope fitting


def test_exact_line_is_recovered():
    xs = np.log(np.array([100.0, 200.0, 400.0, 800.0]))
    ys = -0.5 * xs + 1.0
    res = fit_slope(xs, ys)
    assert abs(res.slope - (-0.5)) <= 1e-12
    assert abs(res.intercept - 1.0) <= 1e-12
    assert res.half_width <= 1e-10


def test_constant_ys_give_zero_slope():
    res = fit_slope([1.0, 2.0, 3.0, 4.0], [2.5, 2.5, 2.5, 2.5])
    assert res.slope == 0.0


def test_jittered_line_lies_within_three_half_widths():
    rng = np.random.default_rng(100)
    xs = np.linspace(0.0, 4.0, 12)
    ys = -0.7 * xs + 0.3 + 0.05 * rng.standard_normal(12)
    res = fit_slope(xs, ys)
    assert abs(res.slope - (-0.7)) <= 3 * res.half_width


def test_slope_requires_three_points_and_spread():
    with pytest.raises(ConfigurationError):
        fit_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        fit_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_child_seed_is_stable_and_distinct():
    # frozen values: the derivation is part of the reproducibility contract
    assert child_seed(1, 100, 0, "data") == 12645896190943107314
    assert child_seed(1, 100, 0, "fit") == 16607382229846943213
    assert child_seed(1, 100, 1, "data") != child_seed(1, 100, 0, "data")
    assert child_seed(2, 100, 0, "data") != child_seed(1, 100, 0, "data")


# -----------------------------------------------------------------------
# sweeps


def tiny_parts():
    rng = np.random.default_rng(77)
    raw = rng.standard_normal((4, 2, 2))
    bank = PretrainedBank(
        0.4 * 0.5 * (raw + np.transpose(raw, (0, 2, 1))),
        rng.uniform(-0.8, 0.8, 4),
        1.5 * rng.standard_normal((4, 2)),
    )
    proj = ProjectionPair(np.array([[1.6, 0.3], [-0.2, 1.4]]), np.array([1.0, -1.2]))
    truth = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    return bank, proj, truth


def test_noiseless_oracle_sweep_has_zero_losses():
    bank, proj, truth = tiny_parts()
    model = RegressionModel(bank, proj, truth, noise_sd=0.0)
    spec = SweepSpec(
        model=model,
        sample_sizes=(100,),
        replications=1,
        fit=FitConfig(2, scale=0.0),
        seed=11,
    )
    result = run_sweep(spec)
    assert result.exclusions == 0
    assert result.rows[0]["loss_value"] <= 1e-8
    assert result.rows[0]["l2_error"] <= 1e-8
    assert result.loss_slope is None  # fewer than 3 usable grid points


def four_cell_spec():
    bank, proj, truth = tiny_parts()
    model = RegressionModel(bank, proj, truth, noise_sd=0.1)
    return SweepSpec(
        model=model,
        sample_sizes=(60, 90),
        replications=2,
        fit=FitConfig(3, scale=0.1, max_iters=400),
        seed=21,
    )


def test_sweep_serialization_is_reproducible():
    spec = four_cell_spec()
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert a.csv_text() == b.csv_text()
    assert a.json_text() == b.json_text()
    assert a.csv_text().splitlines()[0] == (
        "setting,n,rep,loss_name,loss_value,l2_error,objective,converged"
    )
    assert len(a.rows) == 4


def test_pool_size_changes_no_output(monkeypatch):
    # with one CPU in the affinity mask the sweep runs in this process; on
    # a one-CPU machine both runs below do
    spec = four_cell_spec()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    blas = {name: os.environ.get(name) for name in experiments.BLAS_THREAD_VARIABLES}
    # the second pooled sweep forks its workers from the first one's forkserver
    pooled = [run_sweep(spec), run_sweep(spec)]
    assert {name: os.environ.get(name) for name in experiments.BLAS_THREAD_VARIABLES} == blas
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
    assert experiments.pool_size(spec) == 1
    alone = run_sweep(spec)
    for result in pooled:
        assert result.csv_text() == alone.csv_text()
        assert result.json_text() == alone.json_text()


@pytest.mark.skipif(experiments.usable_cpus() == 1, reason="one CPU: the sweep runs in process")
def test_unguarded_calling_script_gets_one_usage_error(tmp_path):
    # every pool worker re-runs the main script, which here starts a sweep
    # of its own before the worker is ready
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(experiments.__file__).parents[1])!r})\n"
        "import prefixmoe as pm\n"
        f"cfg = json.loads(open({str(CONFIGS / 'smoke_sweep.json')!r}).read())\n"
        "model = pm.model_from_dict(cfg['model'])\n"
        "pm.run_sweep(pm.SweepSpec(model, (40, 60), 2, pm.FitConfig(**cfg['fit']), 1))\n"
    )
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "UsageError: a sweep worker process died" in proc.stderr
    assert 'if __name__ == "__main__":' in proc.stderr


def test_paired_settings_consume_identical_randomness():
    bank, proj, truth = tiny_parts()
    shared = RegressionModel(bank, proj, truth, noise_sd=0.1)
    untied = RegressionModel(bank, proj, truth.to_non_shared(), noise_sd=0.1)
    seed = child_seed(77, 400, 3, "data")
    a = gen_dataset(shared, 400, seed)
    b = gen_dataset(untied, 400, seed)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)  # same regression function, same noise


def test_sweep_rejects_non_identifiable_truth():
    bank, proj, _ = tiny_parts()
    clashing = LinearSharedMeasure([0.0, 0.0], [[1.0, 0.5], [1.0, 0.5]])
    model = RegressionModel(bank, proj, clashing, noise_sd=0.1)
    with pytest.raises(ConfigurationError, match="identifiability"):
        SweepSpec(model=model, sample_sizes=(50,), replications=1, fit=FitConfig(2, scale=0.1), seed=5)


def test_sweep_spec_validation():
    bank, proj, truth = tiny_parts()
    model = RegressionModel(bank, proj, truth, noise_sd=0.1)
    cfg = FitConfig(2, scale=0.1)
    with pytest.raises(ConfigurationError):
        SweepSpec(model, (100, 100), 1, cfg, 1)
    with pytest.raises(ConfigurationError):
        SweepSpec(model, (100, 50), 1, cfg, 1)
