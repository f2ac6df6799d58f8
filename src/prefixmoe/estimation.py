"""Least-squares fitting of mixing measures.

The objective is the plain sum of squared residuals between observed
responses and the gated-mixture regression function. The residual
Jacobian is analytic (the gradient is ``2 J^T r``); the solver is scipy's
bounded trust-region reflective least squares (``least_squares``,
``method="trf"``, default tolerances) on the box [-box_bound, box_bound].
Every fit starts from one point: the reference measure passed to ``fit``
(in practice the generating measure), cycled over the atom budget with
weights split among copies, plus Gaussian noise of scale ``config.scale``.
The theory speaks about the global least-squares minimizer, which random
restarts cannot certify, so there is no multistart.

Flat parameter layout (``pack_parameters``): atoms in order, each as its
log-weight followed by the variant's ``atom_fields`` (key prompt then value
prompt for untied atoms, the prompt for tied and latent atoms); after all
atoms, the variant's ``shared_fields`` (w1 then w2 for the latent variant),
row-major. The same code handles every variant: it reads only the
measure's declared fields and its ``prompt_map``.

The residual and Jacobian are computed in place and without a stacked
logit array, yet bit for bit as the plain formulation would (softmax over
the stacked bank and atom logits less their row max, Jacobian
concatenated from per-atom derivative blocks), so fits and sweep outputs
do not move. Elementwise steps and max are exact and may be regrouped;
the reductions that round are pinned in their form:

* the gate normalizer ``e.sum(axis=1)`` over the whole shifted row;
* the bank term ``(e_bank * expert_values).sum(axis=1)``;
* the atom term ``gates @ cvals``;
* for the latent variant, the two ``einsum("ika,kl->ial", ...)`` of the
  shared maps, and ``d_key @ w1 + d_value @ w2``, now one 2-D product
  each on the (samples * atoms, width) reshape, which the tests hold to
  the stacked product's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import to_json
from .errors import ConfigurationError
from .model import (
    Dataset,
    PretrainedBank,
    ProjectionPair,
    _predict,
    measure_to_dict,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "ESTIMATOR_NOTE",
    "pack_parameters",
    "unpack_parameters",
    "objective",
    "gradient",
    "finite_difference_gradient",
    "gradient_check",
    "fit",
]


ESTIMATOR_NOTE = (
    "Rate experiments initialize at a perturbation of the generating measure: "
    "the theory concerns the global least-squares minimizer, which multistart "
    "heuristics cannot certify."
)


# --------------------------------------------------------------------------
# configuration


# scipy's default least_squares tolerances, named so sweep summaries can echo them
SOLVER_TOLERANCES = {"ftol": 1e-8, "xtol": 1e-8, "gtol": 1e-8}


@dataclass(frozen=True)
class FitConfig:
    """Everything a fit needs besides the data, the frozen components, the
    reference measure it starts from and the seed of its start; also the
    ``fit`` block of a fit or sweep config.

    The start is the reference plus Gaussian noise of scale ``scale`` on
    every coordinate. The solver stops on ``SOLVER_TOLERANCES``, which
    counts as convergence, or after ``max_iters`` residual evaluations,
    which does not.
    """

    atom_budget: int
    scale: float = 0.1
    max_iters: int = 20000
    box_bound: float = 5.0

    def __post_init__(self):
        if self.atom_budget < 1:
            raise ConfigurationError("atom budget must be at least 1")
        if self.scale < 0:
            raise ConfigurationError("perturbation scale must be nonnegative")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.box_bound <= 0:
            raise ConfigurationError("box_bound must be positive")


@dataclass(frozen=True)
class FitResult:
    """Least-squares estimate with diagnostics.

    ``failed`` is set when the start gave a non-finite residual or
    Jacobian; the measure is then that start.
    """

    measure: object
    final_objective: float
    iterations: int
    converged: bool
    gradient_norm: float
    warnings: tuple = ()
    failed: bool = False
    failure_reason: str = ""

    def to_dict(self) -> dict:
        return {**to_json(self), "measure": measure_to_dict(self.measure)}


# --------------------------------------------------------------------------
# parameter packing


def pack_parameters(measure) -> np.ndarray:
    """Flatten the free parameters of a measure; see module docstring."""
    atoms = [measure.log_weights, *(getattr(measure, name) for name in measure.atom_fields)]
    shared = [getattr(measure, name).ravel() for name in measure.shared_fields]
    return np.concatenate([np.column_stack(atoms).ravel(), *shared])


def _split(theta: np.ndarray, template):
    """Views of a flat vector as (log-weights, declared arrays) in the
    template's shapes, inverting ``pack_parameters``."""
    n = template.n_atoms
    widths = [getattr(template, name).shape[1] for name in template.atom_fields]
    atoms = theta[: n * (1 + sum(widths))].reshape(n, 1 + sum(widths))
    arrays, start = [], 1
    for width in widths:
        arrays.append(atoms[:, start : start + width])
        start += width
    offset = atoms.size
    for name in template.shared_fields:
        shape = getattr(template, name).shape
        arrays.append(theta[offset : offset + shape[0] * shape[1]].reshape(shape))
        offset += shape[0] * shape[1]
    return atoms[:, 0], arrays


def unpack_parameters(theta: np.ndarray, template):
    """Rebuild a measure of the template's variant and shapes from a flat vector."""
    log_weights, arrays = _split(np.asarray(theta, dtype=float), template)
    names = template.atom_fields + template.shared_fields
    return replace(template, log_weights=log_weights, **dict(zip(names, arrays)))


# --------------------------------------------------------------------------
# objective and gradient


def objective(measure, bank: PretrainedBank, proj: ProjectionPair, dataset: Dataset) -> float:
    """Sum of squared residuals of the measure's regression function."""
    residual = dataset.y - _predict(bank, proj, measure, dataset.x)
    return float(residual @ residual)


class _Problem:
    """Dataset-dependent quantities precomputed once per fit, plus the
    residual and its Jacobian in the flat parameter layout."""

    def __init__(self, template, bank: PretrainedBank, proj: ProjectionPair, dataset: Dataset):
        self.template = template
        self.x = dataset.x
        self.y = dataset.y
        self.pre_logits = bank.gate_logits(self.x)
        self.pre_max = self.pre_logits.max(axis=1)
        self.pre_values = bank.expert_values(self.x)
        self.xb = self.x @ proj.b  # row i holds (b^T x_i)^T
        self.c = proj.c
        # columns per atom: the log-weight, then the atom fields
        self.atom_width = 1 + sum(getattr(template, name).shape[1] for name in template.atom_fields)
        self.n_params = pack_parameters(template).size

    def forward(self, theta: np.ndarray):
        """Residual ``f(x_i) - y_i``, one entry per sample, and the arrays
        ``jacobian`` builds the Jacobian from."""
        b, arrays = _split(theta, self.template)
        kappa, values, vjp = self.template.prompt_map(*arrays)
        cvals = values @ self.c
        n_bank = self.pre_logits.shape[1]

        atom_logits = self.xb @ kappa.T + b
        # the row max over bank and atom logits, one atom column at a time;
        # max is exact, so this is bitwise the max over the whole row
        top = self.pre_max.copy()
        for column in atom_logits.T:
            np.maximum(top, column, out=top)
        e = np.empty((len(self.y), n_bank + atom_logits.shape[1]))
        np.subtract(self.pre_logits, top[:, None], out=e[:, :n_bank])
        np.subtract(atom_logits, top[:, None], out=e[:, n_bank:])
        np.exp(e, out=e)
        denom = e.sum(axis=1)
        gates = e[:, n_bank:] / denom[:, None]  # prefix gates, (samples, atoms)
        f = (e[:, :n_bank] * self.pre_values).sum(axis=1) / denom + gates @ cvals
        return f - self.y, (f, gates, cvals, vjp)

    def jacobian(self, state) -> np.ndarray:
        """Residual Jacobian, one row per sample, from the ``state`` that
        ``forward`` returned at the same parameters. Each call returns a
        new array: the solver keeps the previous Jacobian."""
        f, gates, cvals, vjp = state
        rows, atoms = gates.shape
        jac = np.empty((rows, self.n_params))
        atom_cols = jac[:, : atoms * self.atom_width].reshape(rows, atoms, self.atom_width)
        # df/d(log-weight) per atom
        d_bias = np.multiply(gates, cvals[None, :] - f[:, None], out=atom_cols[:, :, 0])
        vjp(d_bias, self.xb, gates, self.c, atom_cols[:, :, 1:], jac[:, atoms * self.atom_width :])
        return jac


def gradient(measure, bank: PretrainedBank, proj: ProjectionPair, dataset: Dataset) -> np.ndarray:
    """Analytic gradient of ``objective`` in the flat parameter layout."""
    problem = _Problem(measure, bank, proj, dataset)
    residual, state = problem.forward(pack_parameters(measure))
    return 2.0 * (residual @ problem.jacobian(state))


def finite_difference_gradient(
    measure, bank: PretrainedBank, proj: ProjectionPair, dataset: Dataset, step: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of ``objective``, coordinate by coordinate."""
    theta = pack_parameters(measure)
    out = np.empty_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += step
        minus[i] -= step
        f_plus = objective(unpack_parameters(plus, measure), bank, proj, dataset)
        f_minus = objective(unpack_parameters(minus, measure), bank, proj, dataset)
        out[i] = (f_plus - f_minus) / (2.0 * step)
    return out


def gradient_check(
    measure, bank: PretrainedBank, proj: ProjectionPair, dataset: Dataset, step: float = 1e-5
) -> float:
    """Worst per-coordinate relative error between analytic and
    central-difference gradients, with denominator max(1, |a|, |fd|)."""
    analytic = gradient(measure, bank, proj, dataset)
    numeric = finite_difference_gradient(measure, bank, proj, dataset, step)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / scale))


# --------------------------------------------------------------------------
# initialization


def _perturbed_init(reference, budget: int, scale: float, rng):
    """The reference cycled over ``budget`` atoms, each weight split among
    its copies, plus Gaussian noise of scale ``scale`` on every coordinate."""
    idx = np.arange(budget) % reference.n_atoms
    counts = np.bincount(idx, minlength=reference.n_atoms)
    log_w = reference.log_weights[idx] - np.log(counts[idx]) + scale * rng.standard_normal(budget)
    names = reference.atom_fields + reference.shared_fields
    starts = [getattr(reference, name)[idx] for name in reference.atom_fields]
    starts += [getattr(reference, name) for name in reference.shared_fields]
    arrays = [start + scale * rng.standard_normal(start.shape) for start in starts]
    return replace(reference, log_weights=log_w, **dict(zip(names, arrays)))


# --------------------------------------------------------------------------
# solver


def _minimize(problem: _Problem, theta0: np.ndarray, max_iters: int, box_bound: float):
    # imported where it is used, so that a process that never fits never
    # imports scipy.optimize
    from scipy.optimize import least_squares

    # TRF asks for the residual at every trial point but for the Jacobian
    # only at accepted ones, so ``fun`` keeps the forward arrays of its last
    # point and ``jac_at`` builds the Jacobian from them
    cache = {}

    def fun(x):
        if "theta" not in cache or not np.array_equal(x, cache["theta"]):
            cache["theta"] = x.copy()
            cache["residual"], cache["state"] = problem.forward(x)
            cache.pop("jac", None)
        return cache["residual"]

    def jac_at(x):
        fun(x)
        if "jac" not in cache:
            cache["jac"] = problem.jacobian(cache["state"])
        return cache["jac"]

    theta = np.clip(theta0, -box_bound, box_bound)
    if not (np.all(np.isfinite(fun(theta))) and np.all(np.isfinite(jac_at(theta)))):
        return None
    sol = least_squares(
        fun,
        theta,
        jac=jac_at,
        bounds=(-box_bound, box_bound),
        method="trf",
        max_nfev=max_iters,
        **SOLVER_TOLERANCES,
    )
    value = float(sol.fun @ sol.fun)
    grad_norm = float(np.linalg.norm(2.0 * sol.grad))
    return sol.x, value, sol.nfev - 1, sol.status > 0, grad_norm


# --------------------------------------------------------------------------
# fit


def fit(dataset: Dataset, bank: PretrainedBank, proj: ProjectionPair, reference, config: FitConfig,
        seed: int) -> FitResult:
    """Least-squares fit of a mixing measure of the reference's variant,
    started at a perturbation of ``reference``.

    Deterministic given (dataset, reference, config, seed): all randomness
    flows from ``seed``. A start with a non-finite residual is not
    optimized; the result is then marked ``failed``.
    """
    warnings_out = ()
    if config.atom_budget < reference.n_atoms:
        warnings_out = (
            f"atom budget {config.atom_budget} is below the reference atom count "
            f"{reference.n_atoms}; the overspecified protocol expects at least as many",
        )
    rng = np.random.default_rng(int(seed))
    start = _perturbed_init(reference, config.atom_budget, config.scale, rng)
    if not start.satisfies_curvature:
        raise ConfigurationError(
            "the value-side activation has identically zero second derivative; "
            "estimation requires a curved activation such as tanh"
        )

    problem = _Problem(start, bank, proj, dataset)
    outcome = _minimize(problem, pack_parameters(start), config.max_iters, config.box_bound)
    if outcome is None:
        return FitResult(
            measure=start,
            final_objective=math.nan,
            iterations=0,
            converged=False,
            gradient_norm=math.nan,
            warnings=warnings_out,
            failed=True,
            failure_reason="the start gave a non-finite residual or Jacobian",
        )
    theta, value, iterations, converged, grad_norm = outcome
    return FitResult(
        measure=unpack_parameters(theta, start),
        final_objective=value,
        iterations=iterations,
        converged=converged,
        gradient_norm=grad_norm,
        warnings=warnings_out,
    )
