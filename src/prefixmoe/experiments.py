"""Convergence-rate experiments: exact L2 function distances, the
slow-rate witness construction for untied prompts and its table,
sample-size sweeps, and log-log slope fitting.

Seeding protocol: every sweep cell (n, rep) derives child seeds with
``child_seed(root, n, rep, role)`` where the hash is SHA-256 of the
pipe-joined decimal strings, truncated to the first 8 bytes (big-endian).
Because the derivation depends on the sample size value rather than its
index, extending the grid never perturbs existing cells, and paired sweeps
over different measure variants consume identical covariate and noise
draws per cell.

A sweep runs its cells on a pool of processes, one per CPU of the
process's affinity mask (at most one per cell), each with one BLAS thread;
with one CPU or one cell it runs them in this process. The workers fork
from a forkserver that has imported this module and ``scipy.optimize``
once for the whole process, so a second sweep starts its workers without
importing either again; where the platform has no forkserver they are
spawned, and each imports both. Every cell is deterministic from its own
seeds, so the results do not depend on the pool size.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import stdtrit

from ._util import csv_text, json_text, to_json
from .errors import ConfigurationError, UsageError
from .estimation import ESTIMATOR_NOTE, SOLVER_TOLERANCES, FitConfig, fit
from .model import (
    INPUT_HIGH,
    INPUT_LOW,
    NonSharedMeasure,
    RegressionModel,
    check_identifiability,
    gen_dataset,
    model_to_dict,
    regression_fn,
)
from .voronoi import loss_for_setting

__all__ = [
    "child_seed",
    "l2_norm",
    "witness_sequence",
    "witness_closed_form",
    "witness_table",
    "SlopeFit",
    "fit_slope",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
]


def child_seed(root: int, *parts) -> int:
    """Stable derived seed: SHA-256 of 'root|part|part|...', first 8 bytes."""
    key = "|".join(str(p) for p in (int(root), *parts))
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# Gauss-Legendre nodes per axis: on every bundled sweep cell 16 nodes agree
# with 24 to about 1e-12 relative, since the regression functions are smooth
QUADRATURE_NODES = 16


def l2_norm(f, g, dim: int) -> float:
    """L2 distance between two batch callables under the uniform law on the
    input cube [-1, 1]^dim, by a tensor Gauss-Legendre rule (Golub & Welsch
    1969) whose weights sum to one."""
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    # (nodes + 1.0) - 1.0 is not bitwise nodes: this form keeps every l2_error's bits
    axes = [INPUT_LOW + 0.5 * (INPUT_HIGH - INPUT_LOW) * (nodes + 1.0)] * int(dim)
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, int(dim))
    w = np.prod(np.meshgrid(*([0.5 * weights] * int(dim)), indexing="ij"), axis=0).reshape(-1)
    diff = np.asarray(f(x), dtype=float) - np.asarray(g(x), dtype=float)
    return float(np.sqrt(w @ (diff * diff)))


# --------------------------------------------------------------------------
# slow-rate witness


def witness_sequence(truth: NonSharedMeasure, index: int, r: int) -> NonSharedMeasure:
    """Witness measure with one value-split atom.

    The first true atom is replaced by two twins sharing its key prompt,
    with value prompts displaced by +/- (1/index) along the first
    coordinate and each carrying weight exp(b_1)/2 + 1/(2 index^{r+1});
    remaining true atoms are copied verbatim. Its loss_d1r distance to
    ``truth`` equals ``witness_closed_form`` exactly, while the induced
    regression functions differ only through the inflated total weight,
    one order of 1/index smaller.
    """
    if not isinstance(truth, NonSharedMeasure):
        raise UsageError("witness construction needs an untied truth measure")
    if truth.n_atoms < 1:
        raise UsageError("witness construction needs at least one true atom")
    if index < 1:
        raise UsageError("witness index must be at least 1")
    if int(r) != r or r < 1:
        raise ConfigurationError("r must be a positive integer")
    n = int(index)
    r = int(r)
    half_weight = 0.5 * math.exp(truth.log_weights[0]) + 0.5 / n ** (r + 1)
    bump = np.zeros(truth.dim)
    bump[0] = 1.0 / n
    log_weights = np.concatenate([[math.log(half_weight)] * 2, truth.log_weights[1:]])
    p_key = np.vstack([truth.p_key[0], truth.p_key[0], truth.p_key[1:]])
    p_value = np.vstack(
        [truth.p_value[0] + bump, truth.p_value[0] - bump, truth.p_value[1:]]
    )
    return NonSharedMeasure(log_weights, p_key, p_value)


def witness_closed_form(truth: NonSharedMeasure, index: int, r: int) -> float:
    """Loss value of the witness at ``index``: the weight surplus plus the
    inflated cell weight times index^-r."""
    n = float(index)
    surplus = n ** -(r + 1)
    return surplus + (math.exp(truth.log_weights[0]) + surplus) * n**-r


WITNESS_COLUMNS = ("n", "closed_form", "computed", "l2", "ratio")


def witness_table(model: RegressionModel, r: int, sample_sizes) -> list:
    """One row per witness index n in ``sample_sizes``: the closed-form and
    the computed loss of the witness, its L2 distance to the truth of the
    untied ``model``, and the ratio of the two."""
    truth = model.measure
    loss = loss_for_setting("non_shared", r)[1]
    truth_fn = regression_fn(model.bank, model.proj, truth)
    rows = []
    for n in sample_sizes:
        witness = witness_sequence(truth, n, r)
        computed = loss(witness, truth)
        closed = witness_closed_form(truth, n, r)
        witness_fn = regression_fn(model.bank, model.proj, witness)
        l2 = l2_norm(witness_fn, truth_fn, model.proj.dim)
        rows.append({"n": n, "closed_form": closed, "computed": computed, "l2": l2, "ratio": l2 / computed})
    return rows


# --------------------------------------------------------------------------
# slope fitting


@dataclass(frozen=True)
class SlopeFit:
    """OLS line fit with a 95% confidence half-width for the slope."""

    slope: float
    intercept: float
    stderr: float
    half_width: float
    n_points: int

    @property
    def ci_low(self) -> float:
        return self.slope - self.half_width

    @property
    def ci_high(self) -> float:
        return self.slope + self.half_width

    def to_dict(self) -> dict:
        return {**to_json(self), "ci_low": self.ci_low, "ci_high": self.ci_high}


def fit_slope(xs, ys) -> SlopeFit:
    """Ordinary least squares of ys on xs with a t-quantile interval."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.shape != ys.shape:
        raise ConfigurationError("xs and ys must have equal length")
    n = xs.shape[0]
    if n < 3:
        raise ConfigurationError("slope fitting needs at least 3 points")
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    if sxx <= 1e-12 * n:
        raise ConfigurationError("degenerate x values: no spread to regress on")
    slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / sxx)
    intercept = float(ys.mean() - slope * xs.mean())
    resid = ys - (intercept + slope * xs)
    dof = n - 2
    stderr = float(math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx))
    half_width = float(stdtrit(dof, 0.975) * stderr)
    return SlopeFit(slope, intercept, stderr, half_width, n)


# --------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """A rate experiment, and the schema of a sweep config: one generating
    model, a sample-size grid, and a fit recipe.

    Every cell fits with ``fit`` from a perturbation of the model's measure,
    seeded per cell from ``seed``. The setting, and so the Voronoi loss, is
    the measure's variant. The measure must pass ``check_identifiability``.
    """

    model: RegressionModel
    sample_sizes: tuple[int, ...]
    replications: int
    fit: FitConfig
    seed: int

    def __post_init__(self):
        sizes = self.sample_sizes
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigurationError("sample_sizes must be strictly increasing")
        if sizes[0] < 1:
            raise ConfigurationError("every entry of field 'sample_sizes' must be at least 1")
        if self.replications < 1:
            raise ConfigurationError("replications must be at least 1")
        ident = check_identifiability(self.model.measure, self.model.proj)
        if not ident.passed:
            raise ConfigurationError(
                f"truth fails the identifiability check (min projected key distance "
                f"{ident.min_distance:.3e} < {ident.tol:.1e})"
            )

    @property
    def setting(self) -> str:
        return self.model.setting

    @property
    def cells(self) -> list:
        """The (n, rep) cells in grid order."""
        return [(n, rep) for n in self.sample_sizes for rep in range(self.replications)]

    def cell_seeds(self, n: int, rep: int) -> dict:
        return {
            "data": child_seed(self.seed, n, rep, "data"),
            "fit": child_seed(self.seed, n, rep, "fit"),
        }

    def echo(self) -> dict:
        return {
            "setting": self.setting,
            "sample_sizes": list(self.sample_sizes),
            "replications": self.replications,
            "l2": {"rule": "gauss_legendre", "nodes_per_axis": QUADRATURE_NODES},
            "seed": self.seed,
            "fit": {**to_json(self.fit), "solver": "trf", **SOLVER_TOLERANCES},
            "truth": model_to_dict(self.model),
        }


_CSV_COLUMNS = ("setting", "n", "rep", "loss_name", "loss_value", "l2_error", "objective", "converged")


@dataclass(frozen=True)
class SweepResult:
    """Per-cell records, per-n aggregates, and log-log slopes of a sweep."""

    loss_name: str
    spec_echo: dict
    rows: tuple
    aggregates: tuple
    loss_slope: Optional[SlopeFit]
    l2_slope: Optional[SlopeFit]
    exclusions: int

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "loss_name": self.loss_name,
            "spec": self.spec_echo,
            "aggregates": list(self.aggregates),
            "slopes": {
                "loss": self.loss_slope.to_dict() if self.loss_slope else None,
                "l2": self.l2_slope.to_dict() if self.l2_slope else None,
            },
            "exclusions": self.exclusions,
            "estimator_note": ESTIMATOR_NOTE,
        }

    def json_text(self) -> str:
        return json_text(self.to_dict())

    def csv_text(self) -> str:
        return csv_text(_CSV_COLUMNS, ([row[key] for key in _CSV_COLUMNS] for row in self.rows))

    def plot_text(self, kind: str) -> str:
        """Two-column (log n, log mean value) plot data for gnuplot-style tools."""
        key = {"loss": "mean_loss", "l2": "mean_l2"}[kind]
        label = self.loss_name if kind == "loss" else "l2_error"
        lines = [f"# log_n log_mean_{label}"]
        for agg in self.aggregates:
            mean = agg[key]
            if mean is not None and mean > 0:
                lines.append(f"{repr(math.log(agg['n']))} {repr(math.log(mean))}")
        return "\n".join(lines) + "\n"


def _run_cell(spec: SweepSpec, n: int, rep: int) -> dict:
    seeds = spec.cell_seeds(n, rep)
    truth = spec.model
    loss_name, loss_fn = loss_for_setting(spec.setting)
    dataset = gen_dataset(truth, n, seeds["data"])
    result = fit(dataset, truth.bank, truth.proj, truth.measure, spec.fit, seeds["fit"])
    row = {
        "setting": spec.setting,
        "n": n,
        "rep": rep,
        "loss_name": loss_name,
        "converged": bool(result.converged) and not result.failed,
        "failed": bool(result.failed),
    }
    if result.failed:
        row.update({"loss_value": math.nan, "l2_error": math.nan, "objective": math.nan})
        return row
    fitted_fn = regression_fn(truth.bank, truth.proj, result.measure)
    truth_fn = regression_fn(truth.bank, truth.proj, truth.measure)
    row["loss_value"] = loss_fn(result.measure, truth.measure)
    row["l2_error"] = l2_norm(fitted_fn, truth_fn, truth.proj.dim)
    row["objective"] = result.final_objective
    return row


# the thread-count variables of OpenBLAS, OpenMP and MKL
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask,
    or every CPU where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(spec: SweepSpec) -> int:
    """The processes ``run_sweep`` runs the cells of ``spec`` on; 1 means
    in this process."""
    return min(usable_cpus(), len(spec.cells))


def pool_start_method(spec: SweepSpec) -> Optional[str]:
    """How ``run_sweep`` starts the pool's workers for ``spec``:
    ``"forkserver"`` where the platform has one, else ``"spawn"``, and
    None when the cells run in this process."""
    if pool_size(spec) == 1:
        return None
    return "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to 1 for processes started inside,
    then restore this process's values. BLAS reads them when it loads, so
    they must be in a worker's environment before it imports numpy."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _run_cells(spec: SweepSpec) -> list:
    """The rows of every cell, in grid order."""
    cells = spec.cells
    method = pool_start_method(spec)
    if method is None:
        return [_run_cell(spec, n, rep) for n, rep in cells]
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        # imported once by the server, before it forks the first worker
        context.set_forkserver_preload(["prefixmoe.experiments", "scipy.optimize"])
    pool = ProcessPoolExecutor(pool_size(spec), mp_context=context)
    try:
        # the pool starts one worker per submission until it is full, so
        # every worker starts inside this block, and so does the forkserver
        # when the first pool of this process starts it: the server and
        # every worker forked from it keep one BLAS thread. Largest n
        # first, so that the longest fits do not start last
        with _one_blas_thread():
            futures = {cell: pool.submit(_run_cell, spec, *cell) for cell in sorted(cells, key=lambda c: -c[0])}
        wait(futures.values(), return_when=FIRST_EXCEPTION)
    finally:
        # after a failure or an interrupt, drop the cells not yet started;
        # either way, join every worker
        pool.shutdown(cancel_futures=True)
    in_order = [futures[cell] for cell in cells]
    for future in in_order:
        if not future.cancelled() and future.exception() is not None:
            if isinstance(future.exception(), BrokenProcessPool):
                # most often each worker re-ran an unguarded calling script
                raise UsageError(
                    "a sweep worker process died; every worker re-imports the main script, so a script "
                    'that runs a sweep must do so under `if __name__ == "__main__":`'
                ) from future.exception()
            raise future.exception()
    return [future.result() for future in in_order]


def _mean_or_none(values):
    return float(np.mean(values)) if values else None


def _median_or_none(values):
    return float(np.median(values)) if values else None


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every (n, rep) cell of the sweep and aggregate in grid order.

    The cells run on ``pool_size(spec)`` processes (see the module
    docstring). The first cell that raises stops the sweep with its
    exception. Failed fits are excluded from aggregates and counted.
    """
    rows = _run_cells(spec)

    aggregates = []
    for n in spec.sample_sizes:
        sub = [r for r in rows if r["n"] == n]
        ok = [r for r in sub if not r["failed"]]
        aggregates.append(
            {
                "n": n,
                "mean_loss": _mean_or_none([r["loss_value"] for r in ok]),
                "median_loss": _median_or_none([r["loss_value"] for r in ok]),
                "mean_l2": _mean_or_none([r["l2_error"] for r in ok]),
                "median_l2": _median_or_none([r["l2_error"] for r in ok]),
                "mean_objective": _mean_or_none([r["objective"] for r in ok]),
                "fit_count": len(ok),
                "failure_count": len(sub) - len(ok),
            }
        )

    def _slope(key):
        points = [
            (math.log(a["n"]), math.log(a[key]))
            for a in aggregates
            if a[key] is not None and a[key] > 0
        ]
        if len(points) < 3:
            return None
        return fit_slope([p[0] for p in points], [p[1] for p in points])

    exclusions = sum(1 for r in rows if r["failed"])
    public_rows = tuple({k: r[k] for k in _CSV_COLUMNS} for r in rows)
    return SweepResult(
        loss_name=loss_for_setting(spec.setting)[0],
        spec_echo=spec.echo(),
        rows=public_rows,
        aggregates=tuple(aggregates),
        loss_slope=_slope("mean_loss"),
        l2_slope=_slope("mean_l2"),
        exclusions=exclusions,
    )
