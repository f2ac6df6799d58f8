"""Objective, analytic gradients, and the projected least-squares fitter."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixmoe import (
    ConfigurationError,
    Dataset,
    FitConfig,
    LinearSharedMeasure,
    NeuralSharedMeasure,
    NonSharedMeasure,
    PretrainedBank,
    ProjectionPair,
    RegressionModel,
    eval_regression,
    fit,
    gate_weights,
    gen_dataset,
    gradient,
    loss_d2,
    measure_from_dict,
    measure_to_dict,
    objective,
    pack_parameters,
    unpack_parameters,
)
from prefixmoe.estimation import _perturbed_init, _Problem
from prefixmoe.model import ACTIVATIONS

VARIANTS = ("non_shared", "linear_shared", "neural_shared")
# the same examples in every process, and no replay of stored failures
PROPERTY = settings(max_examples=20, derandomize=True, deadline=None, database=None)


def make_parts(d=2, n_experts=2, seed=101):
    bank = PretrainedBank.random(n_experts, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    proj = ProjectionPair(np.eye(d) + 0.2 * rng.standard_normal((d, d)), rng.standard_normal(d))
    return bank, proj


def random_measure(variant, rng, d=2, n_atoms=2, latent=2):
    lw = 0.3 * rng.normal(size=n_atoms)
    if variant == "non_shared":
        return NonSharedMeasure(lw, rng.normal(size=(n_atoms, d)), rng.normal(size=(n_atoms, d)))
    if variant == "linear_shared":
        return LinearSharedMeasure(lw, rng.normal(size=(n_atoms, d)))
    return NeuralSharedMeasure(
        rng.normal(size=(d, latent)), rng.normal(size=(d, latent)), lw, rng.normal(size=(n_atoms, latent))
    )


@st.composite
def perturbed_starts(draw, variant=None):
    """A fit's perturbed starting point: a random reference measure of the
    variant, cycled to an atom budget at or above its atom count."""
    variant = variant or draw(st.sampled_from(VARIANTS))
    n_atoms = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 4))
    latent = draw(st.integers(1, 3))
    budget = draw(st.integers(n_atoms, n_atoms + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = random_measure(variant, rng, d=dim, n_atoms=n_atoms, latent=latent)
    return _perturbed_init(reference, budget, 0.1, rng), rng


# -----------------------------------------------------------------------
# objective


def test_objective_is_zero_on_noiseless_self_fit():
    bank, proj = make_parts()
    measure = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    ds = gen_dataset(RegressionModel(bank, proj, measure, 0.0), 200, seed=3)
    assert objective(measure, bank, proj, ds) == 0.0


def test_single_residual_objective_is_squared_offset():
    bank, proj = make_parts()
    measure = LinearSharedMeasure([0.1], [[0.5, -0.5]])
    x = np.array([[0.2, 0.7]])
    model = RegressionModel(bank, proj, measure, 0.0)
    c = 0.37
    ds = Dataset(x, np.array([eval_regression(model, x[0]) + c]))
    assert abs(objective(measure, bank, proj, ds) - c * c) <= 1e-15


def test_objective_matches_per_sample_loop_oracle():
    bank, proj = make_parts()
    rng = np.random.default_rng(17)
    measure = random_measure("non_shared", rng)
    model_for_data = RegressionModel(
        bank, proj, random_measure("non_shared", rng), noise_sd=0.2
    )
    ds = gen_dataset(model_for_data, 50, seed=8)
    eval_model = RegressionModel(bank, proj, measure, 0.0)
    naive = sum((ds.y[i] - eval_regression(eval_model, ds.x[i])) ** 2 for i in range(50))
    value = objective(measure, bank, proj, ds)
    assert abs(value - naive) <= 1e-12 * max(1.0, abs(naive))


# -----------------------------------------------------------------------
# gradient


def central_difference(measure, bank, proj, ds, step=1e-5):
    theta = pack_parameters(measure)
    out = np.empty_like(theta)
    for i in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (
            objective(unpack_parameters(hi, measure), bank, proj, ds)
            - objective(unpack_parameters(lo, measure), bank, proj, ds)
        ) / (2 * step)
    return out


@pytest.mark.parametrize("variant", VARIANTS)
@PROPERTY
@given(data=st.data())
def test_gradient_matches_central_differences(variant, data):
    measure, rng = data.draw(perturbed_starts(variant))
    bank, proj = make_parts(d=measure.dim, seed=5)
    truth = random_measure(variant, rng, d=measure.dim, n_atoms=2, latent=2)
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.3), 20, seed=4)
    analytic = gradient(measure, bank, proj, ds)
    numeric = central_difference(measure, bank, proj, ds)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert rel.max() <= 1e-5


def test_gradient_vanishes_at_noiseless_global_minimum():
    bank, proj = make_parts()
    measure = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    ds = gen_dataset(RegressionModel(bank, proj, measure, 0.0), 100, seed=6)
    assert np.linalg.norm(gradient(measure, bank, proj, ds)) <= 1e-8


def test_atom_permutation_permutes_gradient_blocks():
    bank, proj = make_parts()
    rng = np.random.default_rng(33)
    measure = random_measure("linear_shared", rng, n_atoms=3)
    ds = gen_dataset(RegressionModel(bank, proj, random_measure("linear_shared", rng), 0.1), 40, seed=2)
    perm = [2, 0, 1]
    shuffled = LinearSharedMeasure(measure.log_weights[perm], measure.prompts[perm])
    assert objective(measure, bank, proj, ds) == pytest.approx(
        objective(shuffled, bank, proj, ds), abs=1e-14
    )
    g = gradient(measure, bank, proj, ds).reshape(3, -1)
    g_shuffled = gradient(shuffled, bank, proj, ds).reshape(3, -1)
    np.testing.assert_allclose(g_shuffled, g[perm], atol=1e-12)


def reference_residual_and_jacobian(measure, bank, proj, ds):
    """The residual and its Jacobian in the plain formulation: the row max
    over the stacked logits, and the Jacobian concatenated from (samples,
    atoms, dim) derivative blocks."""
    x, c = ds.x, proj.c
    xb = x @ proj.b
    if measure.variant == "neural_shared":
        act1, act2 = ACTIVATIONS[measure.act1], ACTIVATIONS[measure.act2]
        z1, z2 = measure.prompts @ measure.w1.T, measure.prompts @ measure.w2.T
        kappa, values = act1.fn(z1), act2.fn(z2)
    elif measure.variant == "linear_shared":
        kappa = values = measure.prompts
    else:
        kappa, values = measure.p_key, measure.p_value
    cvals = values @ c
    pre_logits, pre_values = bank.gate_logits(x), bank.expert_values(x)
    n_bank = pre_logits.shape[1]
    logits = np.hstack([pre_logits, xb @ kappa.T + measure.log_weights])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    denom = e.sum(axis=1)
    gates = e[:, n_bank:] / denom[:, None]
    f = (e[:, :n_bank] * pre_values).sum(axis=1) / denom + gates @ cvals

    d_bias = gates * (cvals[None, :] - f[:, None])
    d_key = d_bias[:, :, None] * xb[:, None, :]
    d_value = gates[:, :, None] * c[None, None, :]
    shared_cols = []
    if measure.variant == "neural_shared":
        d_key = d_key * act1.deriv(z1)[None]
        d_value = d_value * act2.deriv(z2)[None]
        atom_cols = [d_key @ measure.w1 + d_value @ measure.w2]
        shared_cols = [np.einsum("ika,kl->ial", d, measure.prompts).reshape(len(f), -1) for d in (d_key, d_value)]
    elif measure.variant == "linear_shared":
        atom_cols = [d_key + d_value]
    else:
        atom_cols = [d_key, d_value]
    jac = np.concatenate([d_bias[:, :, None], *atom_cols], axis=2).reshape(len(f), -1)
    return f - ds.y, np.hstack([jac, *shared_cols])


def shifted_start(variant, n, budget, shift):
    """A perturbed start of the variant on n samples from a 4-expert bank,
    with every log-weight moved by ``shift``."""
    rng = np.random.default_rng(60 + n + budget)
    bank, proj = make_parts(d=3, n_experts=4, seed=7)
    truth = random_measure(variant, rng, d=3, n_atoms=2)
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.1), n, seed=n)
    start = _perturbed_init(truth, budget, 0.1, rng)
    return replace(start, log_weights=start.log_weights + shift), bank, proj, ds


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 7, 3200])
@pytest.mark.parametrize("budget", [1, 3])
@pytest.mark.parametrize("row_max", ["bank", "atom"])
def test_residual_and_jacobian_match_the_reference_bit_for_bit(variant, n, budget, row_max):
    start, bank, proj, ds = shifted_start(variant, n, budget, -12.0 if row_max == "bank" else 12.0)
    # every row's largest logit is a bank logit, or an atom logit
    largest = gate_weights(RegressionModel(bank, proj, start, 0.0), ds.x).argmax(axis=1)
    assert np.all((largest >= bank.n_experts) == (row_max == "atom"))

    problem = _Problem(start, bank, proj, ds)
    residual, state = problem.forward(pack_parameters(start))
    expected_residual, expected_jac = reference_residual_and_jacobian(start, bank, proj, ds)
    assert residual.tobytes() == expected_residual.tobytes()
    jac = problem.jacobian(state)
    assert jac.shape == expected_jac.shape
    assert jac.tobytes() == expected_jac.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_later_point_leaves_earlier_residuals_and_jacobians_unchanged(variant):
    # least_squares keeps the residual and Jacobian of its current point
    # while it evaluates trial points
    start, bank, proj, ds = shifted_start(variant, 50, 3, 0.0)
    problem = _Problem(start, bank, proj, ds)
    theta = pack_parameters(start)
    residual, state = problem.forward(theta)
    jac = problem.jacobian(state)
    kept = residual.copy(), jac.copy()
    later_residual, later_state = problem.forward(theta + 0.1)
    later_jac = problem.jacobian(later_state)
    assert residual.tobytes() == kept[0].tobytes() and jac.tobytes() == kept[1].tobytes()
    assert later_residual.tobytes() != kept[0].tobytes() and later_jac.tobytes() != kept[1].tobytes()


@settings(PROPERTY, max_examples=60)
@given(start=perturbed_starts())
def test_pack_unpack_round_trip(start):
    measure, rng = start
    theta = pack_parameters(measure)
    clone = unpack_parameters(theta, measure)
    assert measure_to_dict(clone) == measure_to_dict(measure)
    # through JSON text and back, every array survives bit for bit
    parsed = measure_from_dict(json.loads(json.dumps(measure_to_dict(measure))))
    assert measure_to_dict(parsed) == measure_to_dict(measure)
    np.testing.assert_array_equal(pack_parameters(clone), theta)
    other = rng.normal(size=theta.size)
    np.testing.assert_array_equal(pack_parameters(unpack_parameters(other, measure)), other)


# -----------------------------------------------------------------------
# fit


def test_oracle_start_at_truth_converges_immediately():
    bank, proj = make_parts()
    truth = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.0), 300, seed=11)
    result = fit(ds, bank, proj, truth, FitConfig(2, scale=0.0), seed=0)
    assert result.converged and not result.failed
    assert result.final_objective <= 1e-16 * 300
    assert loss_d2(result.measure, truth) <= 1e-8
    assert result.iterations == 0


def test_oracle_split_start_is_still_a_global_minimum():
    # with a budget above the true atom count, the initializer splits
    # weights among copies, which leaves the mixture unchanged
    bank, proj = make_parts()
    truth = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.0), 100, seed=12)
    result = fit(ds, bank, proj, truth, FitConfig(4, scale=0.0), seed=0)
    assert result.final_objective <= 1e-16 * 100


def test_noiseless_perturbed_start_recovers_truth():
    bank, proj = make_parts()
    truth = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.0), 500, seed=13)
    result = fit(ds, bank, proj, truth, FitConfig(2, scale=0.05), seed=1)
    assert not result.failed
    assert loss_d2(result.measure, truth) <= 1e-4
    reference = fit(ds, bank, proj, truth, FitConfig(2, scale=0.0), seed=1)
    assert result.final_objective <= reference.final_objective + 1e-6


def test_budget_below_reference_count_records_warning():
    bank, proj = make_parts()
    truth = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.1), 50, seed=14)
    result = fit(ds, bank, proj, truth, FitConfig(1, scale=0.1), seed=2)
    assert any("budget" in w for w in result.warnings)


def test_fitted_parameters_respect_the_box():
    bank, proj = make_parts()
    truth = LinearSharedMeasure([0.0], [[2.4, -1.8]])
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.05), 120, seed=16)
    # the truth lies outside the box, so the start is clipped and the box binds
    result = fit(ds, bank, proj, truth, FitConfig(1, scale=0.1, max_iters=500, box_bound=0.5), seed=4)
    assert not result.failed
    assert np.abs(pack_parameters(result.measure)).max() <= 0.5 + 1e-12


def test_fit_is_bitwise_deterministic():
    bank, proj = make_parts()
    truth = LinearSharedMeasure([0.0, 0.3], [[1.2, -0.8], [-1.0, 0.9]])
    ds = gen_dataset(RegressionModel(bank, proj, truth, 0.1), 150, seed=17)
    config = FitConfig(3, scale=0.1, max_iters=2000)
    a = fit(ds, bank, proj, truth, config, seed=5)
    b = fit(ds, bank, proj, truth, config, seed=5)
    assert a.to_dict() == b.to_dict()


def test_non_finite_data_marks_fit_failed():
    bank, proj = make_parts()
    # finite covariates whose gate logits overflow at the start
    x = np.full((10, 2), 1e200)
    ds = Dataset(x, np.zeros(10))
    reference = LinearSharedMeasure([0.0], [[1.0, -0.5]])
    result = fit(ds, bank, proj, reference, FitConfig(1, scale=0.1), seed=6)
    assert result.failed and result.failure_reason
    assert math.isnan(result.final_objective) and not result.converged


def test_latent_fit_rejects_flat_value_activation():
    bank, proj = make_parts()
    rng = np.random.default_rng(50)
    reference = NeuralSharedMeasure(
        np.eye(2), np.eye(2), [0.0], rng.normal(size=(1, 2)), "tanh", "identity"
    )
    ds = gen_dataset(RegressionModel(bank, proj, reference, 0.1), 30, seed=18)
    with pytest.raises(ConfigurationError):
        fit(ds, bank, proj, reference, FitConfig(1, scale=0.1), seed=7)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FitConfig(0)
    with pytest.raises(ConfigurationError):
        FitConfig(1, max_iters=0)
    with pytest.raises(ConfigurationError):
        FitConfig(1, scale=-0.1)
    with pytest.raises(ConfigurationError):
        FitConfig(1, box_bound=0.0)
