"""Regression model, measures, dataset generation, and serialization."""

import math

import numpy as np
import pytest

from prefixmoe import (
    ConfigurationError,
    Dataset,
    LinearSharedMeasure,
    NeuralSharedMeasure,
    NonSharedMeasure,
    PretrainedBank,
    ProjectionPair,
    RegressionModel,
    UsageError,
    check_identifiability,
    eval_regression,
    gate_weights,
    gen_dataset,
    model_from_dict,
    model_to_dict,
)


def make_proj():
    return ProjectionPair(np.array([[1.0, 0.2], [-0.1, 0.9]]), np.array([0.8, -0.6]))


def zero_bank(dim=2):
    return PretrainedBank(np.zeros((1, dim, dim)), np.zeros(1), np.zeros((1, dim)))


def test_zero_expert_zero_atoms_gives_zero_function():
    model = RegressionModel(
        zero_bank(), make_proj(), LinearSharedMeasure([], np.zeros((0, 2))), noise_sd=0.0
    )
    x = np.random.default_rng(0).uniform(-1, 1, size=(50, 2))
    np.testing.assert_array_equal(eval_regression(model, x), np.zeros(50))


def test_single_atom_matches_sigmoid_formula():
    # one zeroed bank expert plus one tied atom: the gate is a sigmoid of
    # the projected prompt and the expert is the scalar projection
    proj = make_proj()
    p = np.array([0.7, -0.4])
    model = RegressionModel(zero_bank(), proj, LinearSharedMeasure([0.0], [p]), noise_sd=0.0)
    bp = proj.b @ p
    cp = float(proj.c @ p)
    for x in (np.zeros(2), np.array([0.3, 0.5]), np.array([-0.9, 0.2])):
        expected = math.exp(bp @ x) * cp / (1.0 + math.exp(bp @ x))
        assert abs(eval_regression(model, x) - expected) <= 1e-14
    assert abs(eval_regression(model, np.zeros(2)) - cp / 2.0) <= 1e-14


def test_gate_weights_form_a_simplex():
    rng = np.random.default_rng(4)
    bank = PretrainedBank.random(3, 2, seed=9)
    measure = NonSharedMeasure(rng.normal(size=2), rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    model = RegressionModel(bank, make_proj(), measure, noise_sd=0.0)
    gates = gate_weights(model, rng.uniform(-1, 1, size=(40, 2)))
    assert gates.shape == (40, 5)
    assert (gates > 0).all()
    np.testing.assert_allclose(gates.sum(axis=1), 1.0, atol=1e-12)


def test_convex_combination_bound_on_sampled_inputs():
    rng = np.random.default_rng(15)
    bank = PretrainedBank.random(3, 2, seed=21)
    proj = make_proj()
    measure = LinearSharedMeasure(rng.normal(size=3), rng.uniform(-2, 2, size=(3, 2)))
    model = RegressionModel(bank, proj, measure, noise_sd=0.0)
    x = rng.uniform(-1, 1, size=(500, 2))
    values = eval_regression(model, x)
    bank_vals = np.abs(bank.expert_values(x)).max(axis=1)
    prefix_vals = np.abs(measure.prompts @ proj.c).max()
    assert (np.abs(values) <= np.maximum(bank_vals, prefix_vals) + 1e-12).all()


# -----------------------------------------------------------------------
# variant consistency


def test_linear_to_non_shared_conversion_is_exact():
    rng = np.random.default_rng(8)
    bank = PretrainedBank.random(2, 3, seed=5)
    proj = ProjectionPair(rng.standard_normal((3, 3)), rng.standard_normal(3))
    shared = LinearSharedMeasure(rng.normal(size=2), rng.normal(size=(2, 3)))
    x = rng.uniform(-1, 1, size=(200, 3))
    a = eval_regression(RegressionModel(bank, proj, shared, 0.0), x)
    b = eval_regression(RegressionModel(bank, proj, shared.to_non_shared(), 0.0), x)
    assert np.abs(a - b).max() <= 1e-14


def test_identity_latent_measure_reproduces_linear_shared():
    rng = np.random.default_rng(12)
    bank = PretrainedBank.random(2, 2, seed=3)
    proj = make_proj()
    lw = rng.normal(size=2)
    prompts = rng.normal(size=(2, 2))
    shared = LinearSharedMeasure(lw, prompts)
    latent = NeuralSharedMeasure(np.eye(2), np.eye(2), lw, prompts, "identity", "identity")
    assert not latent.satisfies_curvature
    x = rng.uniform(-1, 1, size=(200, 2))
    a = eval_regression(RegressionModel(bank, proj, shared, 0.0), x)
    b = eval_regression(RegressionModel(bank, proj, latent, 0.0), x)
    assert np.abs(a - b).max() <= 1e-14


def test_tanh_latent_measure_evaluates():
    rng = np.random.default_rng(19)
    bank = PretrainedBank.random(2, 3, seed=6)
    proj = ProjectionPair(np.eye(3), np.ones(3))
    latent = NeuralSharedMeasure(
        rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), [0.1, -0.2], rng.normal(size=(2, 2))
    )
    assert latent.satisfies_curvature
    out = eval_regression(RegressionModel(bank, proj, latent, 0.0), rng.uniform(-1, 1, size=(10, 3)))
    assert np.all(np.isfinite(out))


# -----------------------------------------------------------------------
# dataset generation


def test_noiseless_data_equals_regression_values():
    bank = PretrainedBank.random(2, 2, seed=1)
    model = RegressionModel(bank, make_proj(), LinearSharedMeasure([0.0], [[1.0, -0.5]]), noise_sd=0.0)
    ds = gen_dataset(model, 50, seed=77)
    np.testing.assert_array_equal(ds.y, eval_regression(model, ds.x))


def test_same_seed_gives_bitwise_identical_datasets():
    bank = PretrainedBank.random(2, 2, seed=1)
    model = RegressionModel(bank, make_proj(), LinearSharedMeasure([0.0], [[1.0, -0.5]]), noise_sd=0.3)
    a = gen_dataset(model, 100, seed=5)
    b = gen_dataset(model, 100, seed=5)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = gen_dataset(model, 100, seed=6)
    assert not np.array_equal(a.y, c.y)


def test_noise_moments_match_law_of_large_numbers():
    bank = PretrainedBank.random(2, 2, seed=1)
    model = RegressionModel(bank, make_proj(), LinearSharedMeasure([0.0], [[1.0, -0.5]]), noise_sd=0.1)
    n = 100_000
    ds = gen_dataset(model, n, seed=2024)
    resid = ds.y - eval_regression(model, ds.x)
    assert abs(resid.mean()) <= 4 * 0.1 / math.sqrt(n)
    assert abs(resid.var() - 0.01) <= 0.1 * 0.01


def test_dataset_needs_at_least_one_sample():
    bank = PretrainedBank.random(1, 2, seed=1)
    model = RegressionModel(bank, make_proj(), LinearSharedMeasure([0.0], [[1.0, -0.5]]), noise_sd=0.0)
    with pytest.raises(ConfigurationError):
        gen_dataset(model, 0, seed=1)


# -----------------------------------------------------------------------
# identifiability


def test_identical_atoms_fail_identifiability():
    proj = make_proj()
    measure = LinearSharedMeasure([0.0, 0.0], [[1.0, 2.0], [1.0, 2.0]])
    result = check_identifiability(measure, proj)
    assert not result.passed
    assert result.min_distance == 0.0


def test_single_atom_passes_vacuously():
    result = check_identifiability(LinearSharedMeasure([0.0], [[1.0, 2.0]]), make_proj())
    assert result.passed and math.isinf(result.min_distance)


def test_random_atoms_pass_with_positive_distance():
    rng = np.random.default_rng(11)
    proj = ProjectionPair(rng.standard_normal((4, 4)), rng.standard_normal(4))
    measure = LinearSharedMeasure(rng.normal(size=3), rng.standard_normal((3, 4)))
    result = check_identifiability(measure, proj)
    assert result.passed and result.min_distance > 1e-6


def test_empty_measure_identifiability_is_usage_error():
    with pytest.raises(UsageError):
        check_identifiability(LinearSharedMeasure([], np.zeros((0, 2))), make_proj())


# -----------------------------------------------------------------------
# immutability and serialization


def test_bank_arrays_are_frozen():
    bank = PretrainedBank.random(2, 2, seed=1)
    with pytest.raises(ValueError):
        bank.gate_mats[0, 0, 0] = 1.0


def test_rank_deficient_projection_warns_but_constructs():
    with pytest.warns(UserWarning):
        ProjectionPair(np.zeros((2, 2)), np.ones(2))


def test_model_round_trips_through_dict():
    rng = np.random.default_rng(2)
    bank = PretrainedBank.random(2, 3, seed=4)
    proj = ProjectionPair(rng.standard_normal((3, 3)), rng.standard_normal(3))
    latent = NeuralSharedMeasure(
        rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), [0.1, -0.2], rng.normal(size=(2, 2))
    )
    model = RegressionModel(bank, proj, latent, noise_sd=0.25)
    clone = model_from_dict(model_to_dict(model))
    assert np.array_equal(clone.measure.w1, model.measure.w1)
    assert np.array_equal(clone.bank.gate_mats, model.bank.gate_mats)
    assert clone.noise_sd == model.noise_sd
    x = rng.uniform(-1, 1, size=(20, 3))
    np.testing.assert_array_equal(eval_regression(model, x), eval_regression(clone, x))


def test_affine_expert_form_is_configuration_error():
    # every expert is linear, so a bank has no expert_form to set
    data = model_to_dict(RegressionModel(zero_bank(), make_proj(), LinearSharedMeasure([0.0], [[1.0, -0.5]]), 0.1))
    assert "expert_form" not in data["bank"]
    data["bank"]["expert_form"] = "affine"
    with pytest.raises(ConfigurationError, match="model.bank: unknown field 'expert_form'"):
        model_from_dict(data)


def test_dataset_round_trips_through_csv(tmp_path):
    bank = PretrainedBank.random(2, 2, seed=1)
    model = RegressionModel(bank, make_proj(), LinearSharedMeasure([0.0], [[1.0, -0.5]]), noise_sd=0.2)
    ds = gen_dataset(model, 30, seed=9)
    path = tmp_path / "sample.csv"
    path.write_text(ds.csv_text())
    clone = Dataset.load(path)
    assert np.array_equal(clone.x, ds.x)
    assert np.array_equal(clone.y, ds.y)


@pytest.mark.parametrize(
    "text, message",
    [
        # a header for two covariates over rows of three
        ("x_1,x_2,y\n0.5,0.25,0.1,1.0\n", "header 'x_1,x_2,y' does not match rows of 4 columns"),
        ("x_1,x_3,y\n0.5,0.25,1.0\n", "expected 'x_1,x_2,y'"),
        ("a,b,y\n0.5,0.25,1.0\n", "expected 'x_1,x_2,y'"),
        # no comment lines: a '#' line is a malformed row, not a skipped one
        ("x_1,x_2,y\n# a note\n0.5,0.25,1.0\n", "could not convert"),
    ],
    ids=["too-few-names", "wrong-name", "foreign-names", "comment-line"],
)
def test_dataset_load_refuses_a_header_that_does_not_name_its_rows_and_comment_lines(tmp_path, text, message):
    path = tmp_path / "sample.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=message) as info:
        Dataset.load(path)
    assert str(info.value).startswith(f"{path}: ")
