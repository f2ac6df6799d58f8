"""Least-squares fitting of mixing measures.

The objective is the plain sum of squared residuals between observed
responses and the gated-mixture regression function. The residual
Jacobian is analytic (the gradient is ``2 J^T r``); the solver is scipy's
bounded trust-region reflective least squares (``least_squares``,
``method="trf"``, default tolerances) on the box [-box_bound, box_bound].
Initialization is either multistart (seeded random draws)
or a perturbation of a reference measure; the latter is the default for
rate experiments because the theory speaks about the global least-squares
minimizer, which restart heuristics cannot certify.

Flat parameter layout (``pack_parameters``): atoms in order, each as its
log-weight followed by the variant's ``atom_fields`` (key prompt then value
prompt for untied atoms, the prompt for tied and latent atoms); after all
atoms, the variant's ``shared_fields`` (w1 then w2 for the latent variant),
row-major. The same code handles every variant: it reads only the
measure's declared fields and its ``prompt_map``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

from .errors import ConfigurationError
from .model import (
    Dataset,
    MEASURE_VARIANTS,
    PretrainedBank,
    ProjectionPair,
    _predict,
    measure_to_dict,
)

__all__ = [
    "InitSpec",
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
    "heuristics cannot certify. Multistart fits remain available for honesty runs."
)


# --------------------------------------------------------------------------
# configuration


# scipy's default least_squares tolerances, named so sweep summaries can echo them
SOLVER_TOLERANCES = {"ftol": 1e-8, "xtol": 1e-8, "gtol": 1e-8}


@dataclass(frozen=True)
class InitSpec:
    """How to initialize the optimizer.

    ``multistart``: ``restarts`` independent seeded random draws.
    ``oracle_perturb``: one start at ``reference`` (cycled over the atom
    budget with weights split among copies) plus Gaussian noise of scale
    ``scale`` on every coordinate.
    """

    kind: str
    restarts: int = 16
    scale: float = 0.1
    reference: object = None

    def __post_init__(self):
        if self.kind not in ("multistart", "oracle_perturb"):
            raise ConfigurationError(f"unknown init kind {self.kind!r}")
        if self.kind == "multistart" and self.restarts < 1:
            raise ConfigurationError("multistart needs at least one restart")
        if self.scale < 0:
            raise ConfigurationError("perturbation scale must be nonnegative")

    @classmethod
    def multistart(cls, restarts: int = 16) -> "InitSpec":
        return cls("multistart", restarts=restarts)

    @classmethod
    def oracle_perturb(cls, scale: float = 0.1, reference=None) -> "InitSpec":
        return cls("oracle_perturb", scale=scale, reference=reference)


@dataclass(frozen=True)
class FitConfig:
    """Everything a fit needs besides the data and the frozen components.

    The solver stops on ``SOLVER_TOLERANCES``, which counts as convergence,
    or after ``max_iters`` residual evaluations, which does not.
    """

    setting: str
    atom_budget: int
    init: InitSpec
    max_iters: int = 20000
    box_bound: float = 5.0
    seed: int = 0
    latent_dim: Optional[int] = None
    activations: tuple = ("tanh", "tanh")

    def __post_init__(self):
        if self.setting not in MEASURE_VARIANTS:
            raise ConfigurationError(f"unknown setting {self.setting!r}")
        if self.atom_budget < 1:
            raise ConfigurationError("atom budget must be at least 1")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.box_bound <= 0:
            raise ConfigurationError("box_bound must be positive")


@dataclass(frozen=True)
class FitResult:
    """Best-of-restarts estimate with diagnostics.

    ``failed`` is set when every restart aborted on a non-finite
    objective; the measure is then the last attempted initialization.
    """

    measure: object
    final_objective: float
    iterations: int
    converged: bool
    restarts_used: int
    gradient_norm: float
    warnings: tuple = ()
    failed: bool = False
    failure_reason: str = ""
    restart_objectives: tuple = ()

    def to_dict(self) -> dict:
        return {
            "measure": measure_to_dict(self.measure),
            "final_objective": float(self.final_objective),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "restarts_used": int(self.restarts_used),
            "gradient_norm": float(self.gradient_norm),
            "warnings": list(self.warnings),
            "failed": bool(self.failed),
            "failure_reason": self.failure_reason,
            "restart_objectives": [
                None if not math.isfinite(v) else float(v) for v in self.restart_objectives
            ],
        }


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
        self.pre_values = bank.expert_values(self.x)
        self.xb = self.x @ proj.b  # row i holds (b^T x_i)^T
        self.c = proj.c

    def residual_and_jacobian(self, theta: np.ndarray):
        """Residual ``f(x_i) - y_i`` and its Jacobian, one row per sample."""
        b, arrays = _split(theta, self.template)
        kappa, values, vjp = self.template.prompt_map(*arrays)
        cvals = values @ self.c
        n_bank = self.pre_logits.shape[1]

        logits = np.hstack([self.pre_logits, self.xb @ kappa.T + b])
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        denom = e.sum(axis=1)
        gates = e[:, n_bank:] / denom[:, None]  # prefix gates, (samples, atoms)
        f = (e[:, :n_bank] * self.pre_values).sum(axis=1) / denom + gates @ cvals

        # df/d(log-weight), df/d(projected key) and df/d(expert value) per atom
        d_bias = gates * (cvals[None, :] - f[:, None])
        d_key = d_bias[:, :, None] * self.xb[:, None, :]
        d_value = gates[:, :, None] * self.c[None, None, :]
        atom_cols, shared_cols = vjp(d_key, d_value)
        rows = len(f)
        jac = np.concatenate([d_bias[:, :, None], *atom_cols], axis=2).reshape(rows, -1)
        if shared_cols:
            jac = np.hstack([jac, *shared_cols])
        return f - self.y, jac


def gradient(measure, bank: PretrainedBank, proj: ProjectionPair, dataset: Dataset) -> np.ndarray:
    """Analytic gradient of ``objective`` in the flat parameter layout."""
    problem = _Problem(measure, bank, proj, dataset)
    residual, jac = problem.residual_and_jacobian(pack_parameters(measure))
    return 2.0 * (residual @ jac)


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


def _split_counts(budget: int, n_ref: int) -> np.ndarray:
    idx = np.arange(budget) % n_ref
    counts = np.bincount(idx, minlength=n_ref)
    return idx, counts


def _perturbed_init(reference, budget: int, scale: float, rng):
    idx, counts = _split_counts(budget, reference.n_atoms)
    log_w = reference.log_weights[idx] - np.log(counts[idx]) + scale * rng.standard_normal(budget)
    names = reference.atom_fields + reference.shared_fields
    starts = [getattr(reference, name)[idx] for name in reference.atom_fields]
    starts += [getattr(reference, name) for name in reference.shared_fields]
    arrays = [start + scale * rng.standard_normal(start.shape) for start in starts]
    return replace(reference, log_weights=log_w, **dict(zip(names, arrays)))


def _random_init(config: FitConfig, dim: int, rng):
    cls = MEASURE_VARIANTS[config.setting]
    if cls.shared_fields and config.latent_dim is None:
        raise ConfigurationError("multistart for the latent variant needs latent_dim")
    # atoms live in the latent space of the shared maps when there are any
    width = config.latent_dim if cls.shared_fields else dim
    budget = config.atom_budget
    log_w = rng.uniform(-1.0, 1.0, size=budget)
    arrays = {name: rng.standard_normal((dim, width)) / math.sqrt(width) for name in cls.shared_fields}
    arrays.update((name, rng.uniform(-2.0, 2.0, size=(budget, width))) for name in cls.atom_fields)
    # the remaining fields (the latent variant's act1, act2) come from the config
    rest = [f.name for f in fields(cls) if f.name not in arrays and f.name != "log_weights"]
    return cls(log_weights=log_w, **arrays, **dict(zip(rest, config.activations)))


def _build_inits(config: FitConfig, dim: int, rng):
    warnings_out = []
    if config.init.kind == "oracle_perturb":
        reference = config.init.reference
        if reference is None:
            raise ConfigurationError("oracle_perturb initialization needs a reference measure")
        if reference.variant != config.setting:
            raise ConfigurationError(
                f"reference variant {reference.variant!r} != setting {config.setting!r}"
            )
        if config.atom_budget < reference.n_atoms:
            warnings_out.append(
                f"atom budget {config.atom_budget} is below the reference atom count "
                f"{reference.n_atoms}; the overspecified protocol expects at least as many"
            )
        inits = [_perturbed_init(reference, config.atom_budget, config.init.scale, rng)]
    else:
        inits = [_random_init(config, dim, rng) for _ in range(config.init.restarts)]
    return inits, warnings_out


# --------------------------------------------------------------------------
# solver


def _minimize(problem: _Problem, theta0: np.ndarray, max_iters: int, box_bound: float):
    theta = np.clip(theta0, -box_bound, box_bound)
    residual, jac = problem.residual_and_jacobian(theta)
    if not (np.all(np.isfinite(residual)) and np.all(np.isfinite(jac))):
        return None
    cache = {"theta": theta, "jac": jac}

    def fun(x):
        cache["theta"] = x.copy()
        residual, cache["jac"] = problem.residual_and_jacobian(x)
        return residual

    def jac_at(x):
        if not np.array_equal(x, cache["theta"]):
            fun(x)
        return cache["jac"]

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


def fit(dataset: Dataset, bank: PretrainedBank, proj: ProjectionPair, config: FitConfig) -> FitResult:
    """Least-squares fit of a mixing measure; best restart wins.

    Deterministic given (dataset, config): all randomness flows from
    ``config.seed``. Restarts that hit a non-finite objective are aborted
    and recorded; if every restart aborts the result is marked ``failed``.
    """
    rng = np.random.default_rng(int(config.seed))
    inits, warnings_out = _build_inits(config, proj.dim, rng)
    if not inits[0].satisfies_curvature:
        raise ConfigurationError(
            "the value-side activation has identically zero second derivative; "
            "estimation requires a curved activation such as tanh"
        )

    problem = _Problem(inits[0], bank, proj, dataset)
    best = None
    restart_objectives = []
    last_init = inits[0]
    for init_measure in inits:
        last_init = init_measure
        outcome = _minimize(problem, pack_parameters(init_measure), config.max_iters, config.box_bound)
        if outcome is None:
            restart_objectives.append(math.nan)
            continue
        restart_objectives.append(outcome[1])
        if best is None or outcome[1] < best[1]:
            best = outcome

    if best is None:
        return FitResult(
            measure=last_init,
            final_objective=math.nan,
            iterations=0,
            converged=False,
            restarts_used=len(inits),
            gradient_norm=math.nan,
            warnings=tuple(warnings_out),
            failed=True,
            failure_reason="every restart aborted on a non-finite objective",
            restart_objectives=tuple(restart_objectives),
        )

    theta, value, iterations, converged, grad_norm = best
    return FitResult(
        measure=unpack_parameters(theta, inits[0]),
        final_objective=value,
        iterations=iterations,
        converged=converged,
        restarts_used=len(inits),
        gradient_norm=grad_norm,
        warnings=tuple(warnings_out),
        restart_objectives=tuple(restart_objectives),
    )
