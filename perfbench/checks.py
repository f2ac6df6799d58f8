"""Correctness checks on the outputs of the benchmark's workloads.

Every check compares the program's output with a computation written out
here in numpy (the gated regression function, the witness closed form,
softmax attention, an OLS line) or with a property the method must have.
None compares with a stored copy of earlier output. This module does not
import ``prefixmoe``, so the checks cannot inherit a fault of the code
they check.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# |loss - closed form| allowed for the witness, as in acceptance criterion 3
WITNESS_TOL = 1e-10
# the finite-difference gradient check of the bundled fit, as in criterion 2
GRAD_CHECK_TOL = 1e-5
# summary slopes against the OLS line fitted here; far below a 1e-6 slip
SLOPE_TOL = 1e-9
# attention outputs against the softmax attention written out here
ATTENTION_TOL = 1e-9
# a reported objective against the residual sum of the reported measure
OBJECTIVE_RTOL = 1e-9

_ACTIVATIONS = {
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "identity": lambda z: z,
}


# --------------------------------------------------------------------------
# gated regression function


def _prompts(measure: dict):
    """Key and value prompts of a measure given as a config dict."""
    variant = measure["variant"]
    if variant == "non_shared":
        return np.asarray(measure["p_key"], float), np.asarray(measure["p_value"], float)
    prompts = np.asarray(measure["prompts"], float)
    if variant == "linear_shared":
        return prompts, prompts
    if variant == "neural_shared":
        keys = _ACTIVATIONS[measure.get("act1", "tanh")](prompts @ np.asarray(measure["w1"], float).T)
        values = _ACTIVATIONS[measure.get("act2", "tanh")](prompts @ np.asarray(measure["w2"], float).T)
        return keys, values
    raise ValueError(f"unknown measure variant {variant!r}")


def regression(model: dict, x: np.ndarray) -> np.ndarray:
    """The generating model's regression function at the rows of ``x``.

    ``model`` is the config's ``model`` object with an explicit bank and
    projection. Experts: one per bank entry, gated by x'A_j x + a_j with
    output eta_j'x (plus an offset for affine banks), then one per atom,
    gated by x'B p_key + b with the constant output c'p_value.
    """
    bank, proj, measure = model["bank"], model["proj"], model["measure"]
    if "random" in bank or "random" in proj:
        raise ValueError("the checks need an explicit bank and projection")
    x = np.asarray(x, float)
    dim = x.shape[1]
    affine = bank.get("expert_form", "linear") == "affine"
    gate_logits, outputs = [], []
    for a, bias, eta in zip(np.asarray(bank["gate_mats"], float), bank["gate_biases"], np.asarray(bank["expert_params"], float)):
        gate_logits.append(((x @ a) * x).sum(axis=1) + bias)
        outputs.append(x @ eta[:dim] + (eta[dim] if affine else 0.0))
    p_key, p_value = _prompts(measure)
    b = np.asarray(proj["b"], float)
    c = np.asarray(proj["c"], float)
    for key, value, log_weight in zip(p_key, p_value, measure["log_weights"]):
        gate_logits.append(x @ (b @ key) + log_weight)
        outputs.append(np.full(x.shape[0], float(c @ value)))
    logits = np.column_stack(gate_logits)
    logits -= logits.max(axis=1, keepdims=True)
    gates = np.exp(logits)
    gates /= gates.sum(axis=1, keepdims=True)
    return (gates * np.column_stack(outputs)).sum(axis=1)


def residual_sum(model: dict, x: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared residuals of the generating measure on (x, y)."""
    r = np.asarray(y, float) - regression(model, x)
    return float(r @ r)


# --------------------------------------------------------------------------
# sweeps


def _read_sweep_rows(csv_text: str) -> list:
    rows = []
    for row in csv.DictReader(io.StringIO(csv_text)):
        rows.append(
            {
                "n": int(row["n"]),
                "rep": int(row["rep"]),
                "loss": float(row["loss_value"]),
                "l2": float(row["l2_error"]),
                "objective": float(row["objective"]),
                "converged": row["converged"] == "true",
            }
        )
    return rows


def _ols_slope(points) -> float:
    xs = np.log([n for n, _ in points])
    ys = np.log([v for _, v in points])
    return float(np.polyfit(xs, ys, 1)[0])


def check_sweep(csv_text: str, summary: dict, cell_residual_sums: dict) -> tuple:
    """Check one sweep's CSV and summary.

    ``cell_residual_sums`` maps each (n, rep) cell of the grid to the
    generating measure's residual sum on that cell's data. Returns the
    cells that fail (missing, not converged, or objective above that sum)
    and a list of problems with the sweep as a whole.
    """
    rows = _read_sweep_rows(csv_text)
    by_cell = {(r["n"], r["rep"]): r for r in rows}
    expected_cells = sorted(cell_residual_sums)
    failed = []
    for cell in expected_cells:
        row = by_cell.get(cell)
        if row is None or not row["converged"] or not row["objective"] <= cell_residual_sums[cell]:
            failed.append(cell)

    problems = []
    if len(rows) != len(expected_cells) or sorted(by_cell) != expected_cells:
        problems.append(f"the CSV has cells {sorted(by_cell)}, expected {expected_cells}")
    sizes = sorted({n for n, _ in expected_cells})
    for key in ("loss", "l2"):
        means = []
        for n in sizes:
            values = [r[key] for r in rows if r["n"] == n and math.isfinite(r[key])]
            if values:
                means.append((n, sum(values) / len(values)))
        if len(means) < 2 or not means[-1][1] < means[0][1]:
            problems.append(f"mean {key} does not fall from the smallest to the largest n: {means}")
            continue
        reported = (summary.get("slopes") or {}).get(key) or {}
        positive = [(n, m) for n, m in means if m > 0]
        own = _ols_slope(positive) if len(positive) >= 3 else None
        got = reported.get("slope")
        if own is None or got is None or not abs(got - own) <= SLOPE_TOL:
            problems.append(f"{key} slope {got!r} differs from the OLS slope {own!r} of the CSV means")
    return failed, problems


# --------------------------------------------------------------------------
# witness


def witness_closed_form(weight: float, n: int, r: int) -> float:
    """loss_d1r of the witness at index n against its truth.

    The witness splits the first true atom (weight ``weight``) into two
    twins on its key prompt, with value prompts moved by +-1/n and weight
    weight/2 + 1/(2 n^(r+1)) each. Its weight term is then 1/n^(r+1), and
    each twin adds its weight times (1/n)^r.
    """
    weight_gap = 1.0 / n ** (r + 1)
    twin_weight = weight / 2.0 + weight_gap / 2.0
    return weight_gap + 2.0 * twin_weight * (1.0 / n) ** r


def check_witness_losses(losses, weight: float, r: int, sizes) -> list:
    """Problems with a list of witness losses at the given indices."""
    problems = []
    for n, loss in zip(sizes, losses):
        closed = witness_closed_form(weight, n, r)
        if not abs(loss - closed) <= WITNESS_TOL:
            problems.append(f"r={r} n={n}: loss {loss!r} vs closed form {closed!r}")
    if len(losses) != len(sizes):
        problems.append(f"{len(losses)} witness losses for {len(sizes)} indices")
    return problems


def check_witness_table(table_text: str, weight: float, r: int, sizes) -> list:
    """Problems with ``witness_table.csv``: each computed loss must match the
    closed form, and the density-to-loss ratios must fall strictly."""
    rows = list(csv.DictReader(io.StringIO(table_text)))
    problems = check_witness_losses([float(row["computed"]) for row in rows], weight, r, sizes)
    if [int(row["n"]) for row in rows] != list(sizes):
        problems.append(f"table sizes {[row['n'] for row in rows]} != {list(sizes)}")
    ratios = [float(row["ratio"]) for row in rows]
    if not all(b < a for a, b in zip(ratios, ratios[1:])):
        problems.append(f"witness ratios do not decrease strictly: {ratios}")
    return problems


# --------------------------------------------------------------------------
# bundled fit


def check_fit(fit_payload: dict, gen_model: dict, x: np.ndarray, y: np.ndarray) -> list:
    """Problems with ``fit_result.json`` of the gen -> fit --grad-check flow."""
    fit = fit_payload.get("fit", {})
    problems = []
    if fit.get("failed") or not fit.get("converged"):
        problems.append("the bundled fit did not converge")
    objective = fit.get("final_objective")
    ssr = residual_sum(gen_model, x, y)
    if objective is None or not objective <= ssr:
        problems.append(f"fit objective {objective!r} exceeds the generating measure's {ssr!r}")
    else:
        own = residual_sum({**gen_model, "measure": fit["measure"]}, x, y)
        if not abs(objective - own) <= OBJECTIVE_RTOL * own:
            problems.append(f"fit objective {objective!r} is not the fitted measure's residual sum {own!r}")
    grad_error = fit_payload.get("gradient_check", {}).get("max_rel_error")
    if grad_error is None or not grad_error <= GRAD_CHECK_TOL:
        problems.append(f"gradient check {grad_error!r} above {GRAD_CHECK_TOL}")
    return problems


# --------------------------------------------------------------------------
# attention


def softmax_attention(queries, keys, values, wq, wk, wv, wo) -> np.ndarray:
    """Multi-head softmax attention, heads concatenated and projected."""
    d_head = wq.shape[2]
    heads = []
    for h in range(wq.shape[0]):
        scores = (queries @ wq[h]) @ (keys @ wk[h]).T / math.sqrt(d_head)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        heads.append(weights @ (values @ wv[h]))
    return np.hstack(heads) @ wo


def attention_gap(got, want) -> float:
    """Worst absolute deviation, relative to the size of the reference."""
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max() / (1.0 + np.abs(want).max()))
