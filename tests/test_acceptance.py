"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with
``pytest -s`` or in the captured output of a failing run). The rate
criteria (4-6) run the bundled sweep configs exactly as shipped; they are
deterministic, so a pass here reproduces anywhere.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import prefixmoe as pm
from prefixmoe.cli import _load_config, main
from prefixmoe.voronoi import loss_for_setting

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(cid, ok, detail):
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def load_spec(name):
    return _load_config(CONFIGS / name, pm.SweepSpec, None)


@pytest.fixture(scope="module")
def sweep_results():
    """Run the three bundled rate sweeps once for criteria 4-6."""
    out = {}
    for key, name in (
        ("linear", "linear_shared_rate.json"),
        ("neural", "neural_shared_rate.json"),
        ("sep_shared", "separation_shared_rate.json"),
        ("sep_non_shared", "separation_non_shared_rate.json"),
    ):
        started = time.monotonic()
        out[key] = pm.run_sweep(load_spec(name))
        out[key + "_seconds"] = time.monotonic() - started
    return out


def test_criterion_1_attention_mixture_equivalence():
    started = time.monotonic()
    cfg = json.loads((CONFIGS / "equiv.json").read_text())
    rep = pm.run_equivalence_trials(n_trials=cfg["trials"], seed=cfg["seed"], tolerance=cfg["tolerance"])
    elapsed = time.monotonic() - started
    ok = rep.passed and rep.n_trials == 100 and elapsed < 5.0
    report(
        1,
        ok,
        f"100 bundles, max diff prefix {rep.max_abs_diff_prefix:.2e} / "
        f"prompt {rep.max_abs_diff_prompt:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_2_gradient_fidelity():
    started = time.monotonic()
    worst = 0.0
    for variant, dim, latent in (
        ("non_shared", 4, None),
        ("linear_shared", 4, None),
        ("neural_shared", 4, 3),
        ("non_shared", 2, None),
        ("linear_shared", 3, None),
        ("neural_shared", 3, 2),
    ):
        rng = np.random.default_rng(pm.child_seed(0, variant, dim))
        bank = pm.PretrainedBank.random(2, dim, seed=dim)
        proj = pm.ProjectionPair(
            np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)), rng.standard_normal(dim)
        )
        lw = 0.4 * rng.normal(size=3)
        if variant == "non_shared":
            measure = pm.NonSharedMeasure(lw, rng.normal(size=(3, dim)), rng.normal(size=(3, dim)))
        elif variant == "linear_shared":
            measure = pm.LinearSharedMeasure(lw, rng.normal(size=(3, dim)))
        else:
            measure = pm.NeuralSharedMeasure(
                rng.normal(size=(dim, latent)),
                rng.normal(size=(dim, latent)),
                lw,
                rng.normal(size=(3, latent)),
            )
        model = pm.RegressionModel(bank, proj, measure, noise_sd=0.3)
        dataset = pm.gen_dataset(model, 20, seed=dim + 100)
        worst = max(worst, pm.gradient_check(measure, bank, proj, dataset, step=1e-5))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-5 and elapsed < 10.0
    report(2, ok, f"max relative gradient error {worst:.2e} (tol 1e-5), {elapsed:.1f}s")


def test_criterion_3_witness_exactness_and_slow_rate_ratio():
    started = time.monotonic()
    truth = pm.NonSharedMeasure(
        [0.0, -0.4],
        [[0.3, -0.2, 0.5], [-1.1, 0.8, -0.4]],
        [[0.6, 0.1, -0.3], [-0.5, -0.9, 0.7]],
    )
    worst = 0.0
    for r in (1, 2, 3):
        for n in range(2, 10_001):
            witness = pm.witness_sequence(truth, n, r)
            gap = abs(pm.loss_d1r(witness, truth, r) - pm.witness_closed_form(truth, n, r))
            worst = max(worst, gap)

    cfg = json.loads((CONFIGS / "witness.json").read_text())
    model = pm.model_from_dict(cfg["model"])
    truth_fn = pm.regression_fn(model.bank, model.proj, model.measure)

    def ratio(n):
        witness = pm.witness_sequence(model.measure, n, 1)
        l2 = pm.l2_norm(pm.regression_fn(model.bank, model.proj, witness), truth_fn, model.proj.dim)
        return l2 / pm.loss_d1r(witness, model.measure, 1)

    rho_10, rho_100 = ratio(10), ratio(100)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and rho_100 <= 0.25 * rho_10 and elapsed < 30.0
    report(
        3,
        ok,
        f"closed-form gap {worst:.2e} over n=2..10^4, r=1..3; "
        f"ratio(100)/ratio(10) = {rho_100 / rho_10:.3f} (<= 0.25), {elapsed:.1f}s",
    )


def test_criterion_4_shared_rate_windows(sweep_results):
    res = sweep_results["linear"]
    elapsed = sweep_results["linear_seconds"]
    loss_slope = res.loss_slope.slope
    l2_slope = res.l2_slope.slope
    ok = (
        -0.65 <= loss_slope <= -0.35
        and -0.65 <= l2_slope <= -0.35
        and res.exclusions == 0
        and elapsed < 600.0
    )
    report(
        4,
        ok,
        f"tied-prompt loss slope {loss_slope:.3f}, density slope {l2_slope:.3f} "
        f"(window [-0.65, -0.35]), {elapsed:.0f}s",
    )


def test_criterion_5_latent_rate_window(sweep_results):
    res = sweep_results["neural"]
    elapsed = sweep_results["neural_seconds"]
    slope = res.loss_slope.slope
    ok = -0.70 <= slope <= -0.30 and res.exclusions == 0 and elapsed < 900.0
    report(5, ok, f"latent-prompt loss slope {slope:.3f} (window [-0.70, -0.30]), {elapsed:.0f}s")


def test_criterion_6_shared_vs_non_shared_separation(sweep_results):
    shared = sweep_results["sep_shared"]
    untied = sweep_results["sep_non_shared"]
    elapsed = sweep_results["sep_shared_seconds"] + sweep_results["sep_non_shared_seconds"]
    gap = untied.loss_slope.slope - shared.loss_slope.slope
    ok = gap >= 0.1 and elapsed < 900.0
    report(
        6,
        ok,
        f"untied slope {untied.loss_slope.slope:.3f} ± {untied.loss_slope.half_width:.3f} vs "
        f"tied {shared.loss_slope.slope:.3f} ± {shared.loss_slope.half_width:.3f} (95%), "
        f"separation {gap:.3f} (>= 0.1), {elapsed:.0f}s",
    )


def test_criterion_7_loss_axioms():
    started = time.monotonic()
    rng = np.random.default_rng(2468)
    checked = 0
    for trial in range(200):
        variant = ("non_shared", "linear_shared", "neural_shared")[trial % 3]
        n_true = int(rng.integers(1, 4))
        n_fit = int(rng.integers(n_true, 5))
        dim = int(rng.integers(1, 4))
        base = rng.uniform(-2.5, 2.5, size=(n_true, dim)) + 1.5 * np.sign(
            rng.standard_normal((n_true, dim))
        )
        picks = rng.integers(0, n_true, size=n_fit)
        jitter = 0.15 * rng.standard_normal((n_fit, dim))
        lw_t = 0.4 * rng.normal(size=n_true)
        lw_f = 0.4 * rng.normal(size=n_fit)
        if variant == "non_shared":
            base_v = rng.uniform(-2.5, 2.5, size=(n_true, dim))
            truth = pm.NonSharedMeasure(lw_t, base, base_v)
            fitted = pm.NonSharedMeasure(lw_f, base[picks] + jitter, base_v[picks] - jitter)
            r = int(rng.integers(1, 4))
            name, loss = loss_for_setting(variant, r)
            brute = _brute_d1r(fitted, truth, r)
            zero = pm.NonSharedMeasure(lw_t, base, base_v)
            bump = pm.NonSharedMeasure(
                lw_t, base + 1e-6 * _unit_bump(n_true, dim), base_v
            )
        elif variant == "linear_shared":
            truth = pm.LinearSharedMeasure(lw_t, base)
            fitted = pm.LinearSharedMeasure(lw_f, base[picks] + jitter)
            name, loss = loss_for_setting(variant)
            brute = _brute_d2(fitted, truth)
            zero = pm.LinearSharedMeasure(lw_t, base)
            bump = pm.LinearSharedMeasure(lw_t, base + 1e-6 * _unit_bump(n_true, dim))
        else:
            latent = int(rng.integers(1, 3))
            w1 = rng.normal(size=(dim, latent))
            w2 = rng.normal(size=(dim, latent))
            base_p = rng.uniform(-2.0, 2.0, size=(n_true, latent)) + np.sign(
                rng.standard_normal((n_true, latent))
            )
            truth = pm.NeuralSharedMeasure(w1, w2, lw_t, base_p)
            fitted = pm.NeuralSharedMeasure(
                w1 + 0.1 * rng.normal(size=w1.shape),
                w2 + 0.1 * rng.normal(size=w2.shape),
                lw_f,
                base_p[picks] + 0.15 * rng.standard_normal((n_fit, latent)),
            )
            name, loss = loss_for_setting(variant)
            brute = _brute_d3(fitted, truth)
            zero = pm.NeuralSharedMeasure(w1, w2, lw_t, base_p)
            bump = pm.NeuralSharedMeasure(
                w1, w2, lw_t + 1e-6 * _unit_bump(n_true, 1).ravel(), base_p
            )
        value = loss(fitted, truth)
        assert abs(value - brute) <= 1e-12, (variant, trial)
        perm = rng.permutation(n_fit)
        assert abs(loss(_permute(fitted, perm), truth) - value) <= 1e-12
        assert loss(zero, truth) == 0.0
        assert loss(bump, truth) > 0.0
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked == 200 and elapsed < 10.0
    report(7, ok, f"{checked} random pairs: oracle match <= 1e-12, axioms hold, {elapsed:.1f}s")


def test_criterion_8_bundled_configs_are_reproducible(tmp_path):
    started = time.monotonic()
    compared = []
    # gen writes <name>.csv and its sidecar, with the name "dataset" by default
    gen_name = json.loads((CONFIGS / "gen_linear.json").read_text()).get("name", "dataset")
    gen_csv = Path(f"{gen_name}.csv")
    # a reduced copy of the bundled equiv config keeps this quick; the
    # witness, sweep and gen runs use the bundled files as shipped
    small_equiv = json.loads((CONFIGS / "equiv.json").read_text())
    small_equiv["trials"] = 10
    (tmp_path / "equiv_small.json").write_text(json.dumps(small_equiv))
    runs = [
        ("equiv", tmp_path / "equiv_small.json", ["equiv_report.json"]),
        ("witness", CONFIGS / "witness.json", ["witness_table.csv", "witness_summary.json"]),
        ("sweep", CONFIGS / "smoke_sweep.json", ["sweep_results.csv", "sweep_summary.json", "plot_d2.dat", "plot_l2.dat"]),
        ("gen", CONFIGS / "gen_linear.json", [gen_csv.name, pm.Dataset.meta_path(gen_csv).name]),
    ]

    for command, config, names in runs:
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert main([command, "--config", str(config), "--output-dir", str(out_a)]) == 0
        assert main([command, "--config", str(config), "--output-dir", str(out_b)]) == 0
        for name in names:
            same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
            assert same, f"{command}/{name} differs between reruns"
            compared.append(f"{command}/{name}")
    elapsed = time.monotonic() - started
    ok = len(compared) == 9
    report(8, ok, f"{len(compared)} output files byte-identical across reruns, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# independent brute-force oracles for criterion 7


def _unit_bump(rows, dim):
    bump = np.zeros((rows, dim))
    bump[0, 0] = 1.0
    return bump


def _permute(measure, perm):
    if isinstance(measure, pm.NonSharedMeasure):
        return pm.NonSharedMeasure(
            measure.log_weights[perm], measure.p_key[perm], measure.p_value[perm]
        )
    if isinstance(measure, pm.LinearSharedMeasure):
        return pm.LinearSharedMeasure(measure.log_weights[perm], measure.prompts[perm])
    return pm.NeuralSharedMeasure(
        measure.w1, measure.w2, measure.log_weights[perm], measure.prompts[perm],
        measure.act1, measure.act2,
    )


def _brute_nearest(fitted_emb, truth_emb):
    cells = [[] for _ in truth_emb]
    for i, fe in enumerate(fitted_emb):
        dists = [math.sqrt(sum((a - b) ** 2 for a, b in zip(fe, te))) for te in truth_emb]
        cells[min(range(len(truth_emb)), key=lambda j: (dists[j], j))].append(i)
    return cells


def _brute_d1r(fitted, truth, r):
    cells = _brute_nearest(fitted.atom_embeddings().tolist(), truth.atom_embeddings().tolist())
    total = sum(
        abs(sum(fitted.weights[i] for i in cell) - truth.weights[j])
        for j, cell in enumerate(cells)
    )
    for j, cell in enumerate(cells):
        for i in cell:
            dk = math.sqrt(sum((a - b) ** 2 for a, b in zip(fitted.p_key[i], truth.p_key[j])))
            dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(fitted.p_value[i], truth.p_value[j])))
            total += fitted.weights[i] * (dk**r + dv**r)
    return total


def _brute_d2(fitted, truth):
    cells = _brute_nearest(fitted.prompts.tolist(), truth.prompts.tolist())
    total = sum(
        abs(sum(fitted.weights[i] for i in cell) - truth.weights[j])
        for j, cell in enumerate(cells)
    )
    for j, cell in enumerate(cells):
        power = 1 if len(cell) == 1 else 2
        for i in cell:
            dp = math.sqrt(sum((a - b) ** 2 for a, b in zip(fitted.prompts[i], truth.prompts[j])))
            total += fitted.weights[i] * dp**power
    return total


def _brute_d3(fitted, truth):
    d = fitted.dim
    fe = fitted.atom_embeddings().tolist()
    te = truth.atom_embeddings().tolist()
    cells = _brute_nearest(fe, te)
    total = sum(
        abs(sum(fitted.weights[i] for i in cell) - truth.weights[j])
        for j, cell in enumerate(cells)
    )
    for j, cell in enumerate(cells):
        power = 1 if len(cell) == 1 else 2
        for i in cell:
            d1 = math.sqrt(sum((a - b) ** 2 for a, b in zip(fe[i][:d], te[j][:d])))
            d2 = math.sqrt(sum((a - b) ** 2 for a, b in zip(fe[i][d:], te[j][d:])))
            total += fitted.weights[i] * (d1**power + d2**power)
    return total
