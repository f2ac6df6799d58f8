"""Attention forwards, tuned variants, and their mixture decompositions."""

import math

import numpy as np
import pytest

from prefixmoe import (
    AttentionBundle,
    ConfigurationError,
    PromptSet,
    UsageError,
    head_outputs,
    moe_decompose,
    msa_forward,
    prefix_forward,
    prompt_forward,
    random_bundle,
    run_equivalence_trials,
)


# -----------------------------------------------------------------------
# independent oracle: attention with explicit python loops


def naive_msa(x, wq, wk, wv, wo):
    n, d = x.shape
    m = wq.shape[0]
    dh = d // m
    heads = []
    for l in range(m):
        q = [[sum(x[i][a] * wq[l][a][b] for a in range(d)) for b in range(dh)] for i in range(n)]
        k = [[sum(x[j][a] * wk[l][a][b] for a in range(d)) for b in range(dh)] for j in range(n)]
        v = [[sum(x[j][a] * wv[l][a][b] for a in range(d)) for b in range(dh)] for j in range(n)]
        out = []
        for i in range(n):
            logits = [sum(q[i][b] * k[j][b] for b in range(dh)) / math.sqrt(dh) for j in range(n)]
            mx = max(logits)
            exps = [math.exp(z - mx) for z in logits]
            total = sum(exps)
            weights = [e / total for e in exps]
            out.append([sum(weights[j] * v[j][b] for j in range(n)) for b in range(dh)])
        heads.append(out)
    result = []
    for i in range(n):
        concat = [heads[l][i][b] for l in range(m) for b in range(dh)]
        result.append([sum(concat[a] * wo[a][col] for a in range(m * dh)) for col in range(d)])
    return np.array(result)


def test_msa_matches_naive_three_loop_oracle():
    rng = np.random.default_rng(7)
    bundle = random_bundle(4, 8, 2, rng)
    expected = naive_msa(bundle.x, bundle.wq, bundle.wk, bundle.wv, bundle.wo)
    assert np.abs(msa_forward(bundle) - expected).max() <= 1e-12


def test_msa_zero_input_single_head_identity_weights():
    d = 3
    eye = np.eye(d)[None, :, :]
    bundle = AttentionBundle(np.zeros((1, d)), eye, eye, eye, np.eye(d))
    assert np.array_equal(msa_forward(bundle), np.zeros((1, d)))


def test_gate_rows_sum_to_one():
    rng = np.random.default_rng(11)
    bundle = random_bundle(5, 6, 2, rng)
    prefix = PromptSet.prefix(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)))
    prompt = PromptSet.prompt(rng.standard_normal((2, 6)))
    for head in range(bundle.n_heads):
        for dec in (moe_decompose(bundle, prefix, head), moe_decompose(bundle, prompt, head)):
            np.testing.assert_allclose(dec.gates.sum(axis=1), 1.0, atol=1e-12)
            assert (dec.gates > 0).all()


# -----------------------------------------------------------------------
# prefix route


def test_prefix_empty_prompt_is_bitwise_msa():
    rng = np.random.default_rng(3)
    bundle = random_bundle(4, 4, 1, rng)
    empty = PromptSet.prefix(np.zeros((0, 4)), np.zeros((0, 4)))
    assert np.array_equal(prefix_forward(bundle, empty), msa_forward(bundle))


def test_prefix_output_keeps_input_length():
    rng = np.random.default_rng(5)
    bundle = random_bundle(6, 8, 2, rng)
    prompts = PromptSet.prefix(rng.standard_normal((3, 8)), rng.standard_normal((3, 8)))
    assert prefix_forward(bundle, prompts).shape == (6, 8)


def test_prefix_decomposition_reconstructs_head_rows():
    rng = np.random.default_rng(13)
    bundle = random_bundle(5, 8, 2, rng)
    prompts = PromptSet.prefix(rng.standard_normal((4, 8)), rng.standard_normal((4, 8)))
    heads = head_outputs(bundle, prompts)
    for head in range(bundle.n_heads):
        dec = moe_decompose(bundle, prompts, head)
        assert np.abs(dec.reconstruct() - heads[head]).max() <= 1e-9


def test_prefix_expert_outputs_do_not_depend_on_input():
    rng = np.random.default_rng(17)
    bundle_a = random_bundle(4, 6, 1, rng)
    bundle_b = AttentionBundle(
        rng.standard_normal((4, 6)), bundle_a.wq, bundle_a.wk, bundle_a.wv, bundle_a.wo
    )
    prompts = PromptSet.prefix(rng.standard_normal((2, 6)), rng.standard_normal((2, 6)))
    dec_a = moe_decompose(bundle_a, prompts)
    dec_b = moe_decompose(bundle_b, prompts)
    # the last L experts are wv^T p_v, a constant vector per prefix atom
    np.testing.assert_array_equal(dec_a.experts[4:], dec_b.experts[4:])
    np.testing.assert_allclose(dec_a.experts[4:], prompts.p_value @ bundle_a.wv[0], atol=0)


# -----------------------------------------------------------------------
# prompt route


def test_prompt_empty_prompt_is_msa():
    rng = np.random.default_rng(23)
    bundle = random_bundle(3, 4, 2, rng)
    empty = PromptSet.prompt(np.zeros((0, 4)))
    assert np.array_equal(prompt_forward(bundle, empty), msa_forward(bundle))


@pytest.mark.parametrize("n_prompts", [1, 2, 4])
def test_prompt_output_grows_by_prompt_count(n_prompts):
    rng = np.random.default_rng(29)
    bundle = random_bundle(5, 6, 1, rng)
    prompts = PromptSet.prompt(rng.standard_normal((n_prompts, 6)))
    assert prompt_forward(bundle, prompts).shape == (5 + n_prompts, 6)


def test_prompt_decomposition_reconstructs_all_rows():
    rng = np.random.default_rng(31)
    bundle = random_bundle(4, 8, 2, rng)
    prompts = PromptSet.prompt(rng.standard_normal((3, 8)))
    heads = head_outputs(bundle, prompts)
    for head in range(bundle.n_heads):
        dec = moe_decompose(bundle, prompts, head)
        assert dec.gates.shape == (7, 7)
        assert np.abs(dec.reconstruct() - heads[head]).max() <= 1e-9


def test_prompt_new_row_scores_independent_of_input():
    rng = np.random.default_rng(37)
    bundle_a = random_bundle(4, 6, 1, rng)
    bundle_b = AttentionBundle(
        rng.standard_normal((4, 6)), bundle_a.wq, bundle_a.wk, bundle_a.wv, bundle_a.wo
    )
    prompts = PromptSet.prompt(rng.standard_normal((3, 6)))
    scores_a = moe_decompose(bundle_a, prompts).scores
    scores_b = moe_decompose(bundle_b, prompts).scores
    np.testing.assert_array_equal(scores_a[4:, 4:], scores_b[4:, 4:])


def test_prompt_tuning_token_rows_are_tied_prefix_tuning():
    # the one difference between the modes: prompt rows are also queried
    rng = np.random.default_rng(47)
    bundle = random_bundle(5, 6, 2, rng)
    p = rng.standard_normal((3, 6))
    prompt, tied = PromptSet.prompt(p), PromptSet.prefix(p, p)
    for head in range(bundle.n_heads):
        dec_prompt = moe_decompose(bundle, prompt, head)
        dec_tied = moe_decompose(bundle, tied, head)
        np.testing.assert_allclose(dec_prompt.gates[:5], dec_tied.gates, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec_prompt.scores[:5], dec_tied.scores, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(dec_prompt.experts, dec_tied.experts)
    rows = head_outputs(bundle, prompt)
    assert rows.shape == (2, 8, 3)
    np.testing.assert_allclose(rows[:, :5], head_outputs(bundle, tied), rtol=0, atol=1e-12)


def test_prompt_key_value_views_share_one_array():
    prompts = PromptSet.prompt(np.ones((3, 4)))
    assert prompts.p_key is prompts.p_value
    untied = PromptSet.prefix(np.ones((3, 4)), np.ones((3, 4)))
    assert untied.p_key is not untied.p_value


# -----------------------------------------------------------------------
# randomized exactness and errors


def test_decomposition_exactness_over_random_bundles():
    report = run_equivalence_trials(n_trials=25, seed=2024, tolerance=1e-9)
    assert report.passed, report.to_dict()
    # two float paths per mode, not one
    assert report.max_abs_diff_prefix > 0
    assert report.max_abs_diff_prompt > 0


def test_mode_mismatch_is_usage_error():
    rng = np.random.default_rng(41)
    bundle = random_bundle(3, 4, 1, rng)
    prompts = PromptSet.prompt(rng.standard_normal((2, 4)))
    with pytest.raises(UsageError):
        prefix_forward(bundle, prompts)
    with pytest.raises(UsageError):
        prompt_forward(bundle, PromptSet.prefix(np.zeros((1, 4)), np.zeros((1, 4))))


def test_dimension_mismatch_is_configuration_error():
    rng = np.random.default_rng(43)
    bundle = random_bundle(3, 4, 1, rng)
    with pytest.raises(ConfigurationError):
        prefix_forward(bundle, PromptSet.prefix(np.ones((2, 5)), np.ones((2, 5))))
    with pytest.raises(ConfigurationError):
        AttentionBundle(np.ones((2, 5)), *(np.ones((2, 5, 2)),) * 3, np.ones((4, 5)))
    with pytest.raises(ConfigurationError):
        PromptSet.prefix(np.ones((2, 4)), np.ones((3, 4)))
