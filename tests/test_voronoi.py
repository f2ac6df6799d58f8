"""Cell assignment and the three mixture losses, checked against
hand-evaluated cases and a brute-force pure-python oracle."""

import math

import numpy as np
import pytest

from prefixmoe import (
    ConfigurationError,
    LinearSharedMeasure,
    NeuralSharedMeasure,
    NonSharedMeasure,
    UsageError,
    assign_cells,
    loss_d1r,
    loss_d2,
    loss_d3,
)


# -----------------------------------------------------------------------
# brute-force oracle: plain loops, no numpy vector tricks


def brute_cells(fitted_emb, truth_emb):
    cells = [[] for _ in truth_emb]
    for i, fe in enumerate(fitted_emb):
        dists = [math.sqrt(sum((a - b) ** 2 for a, b in zip(fe, te))) for te in truth_emb]
        best = min(range(len(truth_emb)), key=lambda j: (dists[j], j))
        cells[best].append(i)
    return cells


def brute_d1r(fitted, truth, r):
    cells = brute_cells(fitted.atom_embeddings().tolist(), truth.atom_embeddings().tolist())
    fw, tw = fitted.weights, truth.weights
    weight_term = sum(abs(sum(fw[i] for i in cell) - tw[j]) for j, cell in enumerate(cells))
    prompt_term = 0.0
    for j, cell in enumerate(cells):
        for i in cell:
            dk = math.sqrt(sum((a - b) ** 2 for a, b in zip(fitted.p_key[i], truth.p_key[j])))
            dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(fitted.p_value[i], truth.p_value[j])))
            prompt_term += fw[i] * (dk**r + dv**r)
    return weight_term, prompt_term


def brute_d2(fitted, truth):
    cells = brute_cells(fitted.prompts.tolist(), truth.prompts.tolist())
    fw, tw = fitted.weights, truth.weights
    weight_term = sum(abs(sum(fw[i] for i in cell) - tw[j]) for j, cell in enumerate(cells))
    prompt_term = 0.0
    per_cell = []
    for j, cell in enumerate(cells):
        power = 1 if len(cell) == 1 else 2
        term = 0.0
        for i in cell:
            dp = math.sqrt(sum((a - b) ** 2 for a, b in zip(fitted.prompts[i], truth.prompts[j])))
            term += fw[i] * dp**power
        per_cell.append(term)
        prompt_term += term
    return weight_term, prompt_term, per_cell


def brute_d3(fitted, truth):
    d = fitted.dim
    fe = fitted.atom_embeddings().tolist()
    te = truth.atom_embeddings().tolist()
    cells = brute_cells(fe, te)
    fw, tw = fitted.weights, truth.weights
    weight_term = sum(abs(sum(fw[i] for i in cell) - tw[j]) for j, cell in enumerate(cells))
    prompt_term = 0.0
    for j, cell in enumerate(cells):
        power = 1 if len(cell) == 1 else 2
        for i in cell:
            d1 = math.sqrt(sum((a - b) ** 2 for a, b in zip(fe[i][:d], te[j][:d])))
            d2_ = math.sqrt(sum((a - b) ** 2 for a, b in zip(fe[i][d:], te[j][d:])))
            prompt_term += fw[i] * (d1**power + d2_**power)
    return weight_term, prompt_term


# -----------------------------------------------------------------------
# assignment


def test_identical_measures_map_each_atom_to_itself():
    truth = LinearSharedMeasure([0.0, 0.5], [[0.0, 1.0], [2.0, -1.0]])
    assignment = assign_cells(truth, truth)
    assert assignment.cells == ((0,), (1,))
    np.testing.assert_array_equal(np.diag(assignment.distances), 0.0)


def test_hand_assignment_one_dimensional():
    truth = LinearSharedMeasure([0.0, 0.0], [[0.0], [10.0]])
    fitted = LinearSharedMeasure([0.0, 0.0, 0.0], [[0.1], [0.2], [9.9]])
    assert assign_cells(fitted, truth).cells == ((0, 1), (2,))


def test_equidistant_atom_breaks_tie_to_lower_index():
    truth = LinearSharedMeasure([0.0, 0.0], [[0.0], [2.0]])
    fitted = LinearSharedMeasure([0.0], [[1.0]])
    assert assign_cells(fitted, truth).cells == ((0,), ())


def test_empty_measure_is_usage_error():
    truth = LinearSharedMeasure([0.0], [[1.0]])
    empty = LinearSharedMeasure([], np.zeros((0, 1)))
    with pytest.raises(UsageError):
        assign_cells(empty, truth)
    with pytest.raises(UsageError):
        assign_cells(truth, empty)


def test_variant_mismatch_is_usage_error():
    tied = LinearSharedMeasure([0.0], [[1.0, 0.0]])
    untied = NonSharedMeasure([0.0], [[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(UsageError):
        assign_cells(tied, untied)
    with pytest.raises(UsageError):
        loss_d2(tied, untied)


# -----------------------------------------------------------------------
# hand-evaluated loss values


def test_d1r_zero_at_truth_and_witness_value():
    rng = np.random.default_rng(2)
    truth = NonSharedMeasure(rng.normal(size=2), rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    assert loss_d1r(truth, truth, 1) == 0.0

    # one true atom with unit weight; fitted splits it into two atoms whose
    # value prompts sit at +/- 1/n along the first axis, with the total
    # weight inflated by 1/n^2: loss = 1/n^2 + (1 + 1/n^2)/n = 0.111 at n=10
    n = 10
    truth1 = NonSharedMeasure([0.0], [[0.5, -0.3]], [[0.2, 0.4]])
    w = 0.5 + 0.5 / n**2
    fitted = NonSharedMeasure(
        np.log([w, w]),
        [[0.5, -0.3], [0.5, -0.3]],
        [[0.2 + 1 / n, 0.4], [0.2 - 1 / n, 0.4]],
    )
    assert abs(loss_d1r(fitted, truth1, 1) - 0.111) <= 1e-12


def test_d2_singleton_and_crowded_hand_values():
    truth = LinearSharedMeasure([0.0], [[1.0, 0.0]])
    single = LinearSharedMeasure([0.0], [[1.1, 0.0]])
    assert abs(loss_d2(single, truth) - 0.1) <= 1e-12

    double = LinearSharedMeasure(np.log([0.5, 0.5]), [[1.1, 0.0], [0.9, 0.0]])
    assert abs(loss_d2(double, truth) - 0.01) <= 1e-12


def test_d3_zero_at_truth():
    rng = np.random.default_rng(3)
    truth = NeuralSharedMeasure(
        rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), [0.1, -0.2], rng.normal(size=(2, 2))
    )
    assert loss_d3(truth, truth) == 0.0


def test_d3_with_identity_maps_reduces_to_doubled_d2_prompt_term():
    rng = np.random.default_rng(5)
    eye = np.eye(2)
    lw_t, p_t = rng.normal(size=2), rng.normal(size=(2, 2))
    lw_f, p_f = rng.normal(size=3), p_t[[0, 1, 0]] + 0.05 * rng.normal(size=(3, 2))
    truth_lat = NeuralSharedMeasure(eye, eye, lw_t, p_t)
    fitted_lat = NeuralSharedMeasure(eye, eye, lw_f, p_f)
    weight_term, prompt_term, _ = brute_d2(
        LinearSharedMeasure(lw_f, p_f), LinearSharedMeasure(lw_t, p_t)
    )
    assert abs(loss_d3(fitted_lat, truth_lat) - (weight_term + 2 * prompt_term)) <= 1e-12


def test_empty_cell_contributes_reference_weight():
    truth = LinearSharedMeasure([0.0, math.log(2.0)], [[0.0, 0.0], [5.0, 5.0]])
    fitted = LinearSharedMeasure([0.0], [[0.1, 0.0]])
    # cell 2 is empty: weight term picks up its full weight 2.0
    assert abs(loss_d2(fitted, truth) - (0.0 + 2.0 + 1.0 * 0.1)) <= 1e-12


# -----------------------------------------------------------------------
# randomized oracle agreement and axioms


def random_pair(rng, variant):
    s0 = int(rng.integers(2, 4))   # true atoms
    s1 = int(rng.integers(s0, 5))  # fitted atoms
    d = int(rng.integers(1, 4))
    base = rng.uniform(-2.0, 2.0, size=(s0, d))
    base += 1.5 * np.sign(base)  # push apart so cells are unambiguous
    jitter = 0.2 * rng.standard_normal((s1, d))
    picks = rng.integers(0, s0, size=s1)
    if variant == "non_shared":
        base2 = rng.uniform(-2.0, 2.0, size=(s0, d))
        truth = NonSharedMeasure(rng.normal(size=s0), base, base2)
        fitted = NonSharedMeasure(
            rng.normal(size=s1), base[picks] + jitter, base2[picks] + jitter[::-1]
        )
    elif variant == "linear_shared":
        truth = LinearSharedMeasure(rng.normal(size=s0), base)
        fitted = LinearSharedMeasure(rng.normal(size=s1), base[picks] + jitter)
    else:
        ld = int(rng.integers(1, 3))
        w1t, w2t = rng.normal(size=(2, d, ld))
        w1f, w2f = w1t + 0.1 * rng.normal(size=(2, d, ld))
        pt = rng.uniform(-2.0, 2.0, size=(s0, ld))
        pt += 1.0 * np.sign(pt)
        truth = NeuralSharedMeasure(w1t, w2t, rng.normal(size=s0), pt)
        fitted = NeuralSharedMeasure(
            w1f, w2f, rng.normal(size=s1), pt[picks] + 0.2 * rng.standard_normal((s1, ld))
        )
    return fitted, truth


def test_losses_agree_with_brute_force_oracle():
    rng = np.random.default_rng(97)
    for _ in range(60):
        fitted, truth = random_pair(rng, "non_shared")
        r = int(rng.integers(1, 4))
        wt, pt = brute_d1r(fitted, truth, r)
        assert abs(loss_d1r(fitted, truth, r) - (wt + pt)) <= 1e-12

        fitted, truth = random_pair(rng, "linear_shared")
        wt, pt, _ = brute_d2(fitted, truth)
        assert abs(loss_d2(fitted, truth) - (wt + pt)) <= 1e-12

        fitted, truth = random_pair(rng, "neural_shared")
        wt, pt = brute_d3(fitted, truth)
        assert abs(loss_d3(fitted, truth) - (wt + pt)) <= 1e-12


def test_relabeling_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        fitted, truth = random_pair(rng, "linear_shared")
        perm = rng.permutation(fitted.n_atoms)
        shuffled = LinearSharedMeasure(fitted.log_weights[perm], fitted.prompts[perm])
        assert abs(loss_d2(fitted, truth) - loss_d2(shuffled, truth)) <= 1e-12

        fitted, truth = random_pair(rng, "non_shared")
        perm = rng.permutation(fitted.n_atoms)
        shuffled = NonSharedMeasure(
            fitted.log_weights[perm], fitted.p_key[perm], fitted.p_value[perm]
        )
        assert abs(loss_d1r(fitted, truth, 2) - loss_d1r(shuffled, truth, 2)) <= 1e-12


def test_positivity_under_small_perturbations():
    rng = np.random.default_rng(23)
    truth = LinearSharedMeasure([0.0, 0.4], [[1.0, 0.0], [-1.0, 0.5]])
    bumped_weight = LinearSharedMeasure([1e-6, 0.4], truth.prompts)
    bumped_prompt = LinearSharedMeasure(truth.log_weights, [[1.0 + 1e-6, 0.0], [-1.0, 0.5]])
    assert loss_d2(truth, truth) == 0.0
    assert loss_d2(bumped_weight, truth) > 0.0
    assert loss_d2(bumped_prompt, truth) > 0.0


def test_monotonicity_in_r_for_small_displacements():
    rng = np.random.default_rng(29)
    truth = NonSharedMeasure(rng.normal(size=2), rng.uniform(-2, 2, (2, 2)) * 2, rng.uniform(-2, 2, (2, 2)) * 2)
    fitted = NonSharedMeasure(
        rng.normal(size=3),
        truth.p_key[[0, 1, 0]] + rng.uniform(-0.3, 0.3, (3, 2)),
        truth.p_value[[0, 1, 0]] + rng.uniform(-0.3, 0.3, (3, 2)),
    )
    values = [loss_d1r(fitted, truth, r) for r in (1, 2, 3)]
    assert values[0] >= values[1] >= values[2]


def test_prompt_scaling_touches_only_its_cell_terms():
    truth = LinearSharedMeasure([0.0, 0.0], [[2.0, 0.0], [-2.0, 0.0]])
    prompts = np.array([[2.1, 0.0], [-1.9, 0.0], [2.2, 0.1]])
    lw = np.log([0.6, 1.0, 0.4])
    before = brute_d2(LinearSharedMeasure(lw, prompts), truth)
    moved = prompts.copy()
    moved[1] = [-1.7, 0.2]  # stays in cell 2
    after = brute_d2(LinearSharedMeasure(lw, moved), truth)
    assert before[0] == after[0]  # weight term unchanged
    assert before[2][0] == after[2][0]  # cell-1 term unchanged
    assert before[2][1] != after[2][1]
    diff_total = loss_d2(LinearSharedMeasure(lw, moved), truth) - loss_d2(
        LinearSharedMeasure(lw, prompts), truth
    )
    assert abs(diff_total - (after[2][1] - before[2][1])) <= 1e-12


def test_r_must_be_a_positive_integer():
    truth = NonSharedMeasure([0.0], [[1.0]], [[1.0]])
    with pytest.raises(ConfigurationError):
        loss_d1r(truth, truth, 0)
    with pytest.raises(ConfigurationError):
        loss_d1r(truth, truth, 1.5)


# -----------------------------------------------------------------------
# reference: the loss before the cells came from one argmin pass and the
# block distances from the assignment's differences; equal bits required


def reference_loss(fitted, truth, power):
    if isinstance(fitted, NonSharedMeasure):
        fe, te = (np.hstack([m.p_key, m.p_value]) for m in (fitted, truth))
    elif isinstance(fitted, LinearSharedMeasure):
        fe, te = fitted.prompts, truth.prompts
    else:
        fe, te = (np.hstack([m.prompts @ m.w1.T, m.prompts @ m.w2.T]) for m in (fitted, truth))
    diff = fe[:, None, :] - te[None, :, :]
    nearest = np.sqrt((diff**2).sum(axis=2)).argmin(axis=1)
    cells = tuple(tuple(int(i) for i in np.flatnonzero(nearest == j)) for j in range(te.shape[0]))
    fw, tw = fitted.weights, truth.weights
    total = float(sum(abs(fw[list(cell)].sum() - tw[j]) for j, cell in enumerate(cells)))
    d = fe.shape[1] // (1 if isinstance(fitted, LinearSharedMeasure) else 2)
    for j, cell in enumerate(cells):
        p = power(len(cell))
        for i in cell:
            dists = [float(np.linalg.norm(fe[i, k : k + d] - te[j, k : k + d])) for k in range(0, fe.shape[1], d)]
            total += fw[i] * sum(dist**p for dist in dists)
    return float(total)


def layout_pair(rng, variant, layout):
    """A fitted/true pair on a grid of halves, so that distances are exact:
    ``crowded`` puts up to four fitted atoms near one true atom, ``empty``
    leaves the last true atom's cell empty, and ``tie`` puts fitted atoms
    exactly halfway between two true atoms, where the lower index wins."""
    s0 = int(rng.integers(2, 4))
    d = int(rng.integers(1, 4))
    width = int(rng.integers(1, 3)) if variant == "neural_shared" else d
    cols = 2 * width if variant == "non_shared" else width
    base = rng.integers(-3, 4, size=(s0, cols)).astype(float)
    if layout == "crowded":
        picks = np.array([0] * int(rng.integers(2, 5)) + list(rng.integers(0, s0, size=2)))
        atoms = base[picks] + 0.25 * rng.standard_normal((picks.size, cols))
    elif layout == "empty":
        picks = rng.integers(0, s0 - 1, size=int(rng.integers(1, 5)))
        atoms = base[picks] + 0.25 * rng.standard_normal((picks.size, cols))
    else:
        pairs = [rng.choice(s0, size=2, replace=False) for _ in range(int(rng.integers(1, 4)))]
        atoms = np.array([(base[a] + base[b]) / 2 for a, b in pairs] + [base[0]])
    true_lw, fitted_lw = rng.normal(size=s0), rng.normal(size=len(atoms))
    if variant == "non_shared":
        return (NonSharedMeasure(fitted_lw, atoms[:, :width], atoms[:, width:]),
                NonSharedMeasure(true_lw, base[:, :width], base[:, width:]))
    if variant == "linear_shared":
        return LinearSharedMeasure(fitted_lw, atoms), LinearSharedMeasure(true_lw, base)
    # integer maps keep the latent embeddings on the grid; a tie needs both sides to share them
    w1, w2 = rng.integers(-2, 3, size=(2, d, width)).astype(float)
    fw1, fw2 = (w1, w2) if layout == "tie" else (w1 + 0.1 * rng.standard_normal((2, d, width)))
    return NeuralSharedMeasure(fw1, fw2, fitted_lw, atoms), NeuralSharedMeasure(w1, w2, true_lw, base)


@pytest.mark.parametrize("layout", ["crowded", "empty", "tie"])
def test_losses_match_the_reference_bit_for_bit(layout):
    rng = np.random.default_rng(71)
    tied_power = lambda size: 1 if size == 1 else 2
    seen = 0
    for _ in range(150):
        for r in (1, 2, 3):
            fitted, truth = layout_pair(rng, "non_shared", layout)
            assert loss_d1r(fitted, truth, r) == reference_loss(fitted, truth, lambda size: r)
        fitted, truth = layout_pair(rng, "linear_shared", layout)
        assert loss_d2(fitted, truth) == reference_loss(fitted, truth, tied_power)
        assignment = assign_cells(fitted, truth)
        sizes = [len(cell) for cell in assignment.cells]
        rows = assignment.distances
        seen += {
            "crowded": max(sizes) > 1,
            "empty": min(sizes) == 0,
            "tie": any(np.count_nonzero(row == row.min()) > 1 for row in rows),
        }[layout]
        fitted, truth = layout_pair(rng, "neural_shared", layout)
        assert loss_d3(fitted, truth) == reference_loss(fitted, truth, tied_power)
    # the layout is what the loop exercised, not a rare case
    assert seen >= 50
