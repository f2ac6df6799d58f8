"""Nearest-atom cell assignment between two mixing measures and the
gate-weight/prompt-distance losses built on it.

Atoms are compared through the embedding of their variant: untied atoms
concatenate key and value prompts, tied atoms use the prompt itself, and
latent atoms use the pre-activation pair (w1 @ p, w2 @ p). One loss serves
all three: it sums, per fitted atom, a power of the distance on each
``dim``-wide block of the embedding (two blocks untied and latent, one
tied). The untied loss uses the power r on every cell; the tied and latent
losses use 1 on singleton cells and 2 on crowded ones. Log-weights never
enter the distances; they only weight the loss terms. Cells are
indexed by the atoms of the reference ("true") measure, and a cell left
empty still contributes its full reference weight to the weight term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .model import LinearSharedMeasure, NeuralSharedMeasure, NonSharedMeasure

__all__ = [
    "CellAssignment",
    "assign_cells",
    "loss_d1r",
    "loss_d2",
    "loss_d3",
    "loss_for_setting",
]


@dataclass(frozen=True)
class CellAssignment:
    """For each true atom index j, the fitted atom indices nearest to it.

    ``distances`` is the full (n_fitted, n_true) matrix the assignment was
    computed from; ties go to the lowest true index.
    """

    cells: tuple
    distances: np.ndarray


def _check_pair(fitted, truth, expected=None) -> int:
    """Refuse a pair the losses cannot compare; return their prompt width."""
    expected = expected or type(truth)
    if type(fitted) is not expected or type(truth) is not expected:
        raise UsageError(
            f"expected two {expected.__name__} measures, got "
            f"{type(fitted).__name__} and {type(truth).__name__}"
        )
    if fitted.n_atoms < 1 or truth.n_atoms < 1:
        raise UsageError("cell assignment needs non-empty measures")
    dim = fitted.dim
    if dim != truth.dim:
        raise ConfigurationError("measures live in different dimensions")
    if any(getattr(fitted, f).shape[1] != getattr(truth, f).shape[1] for f in fitted.atom_fields):
        raise ConfigurationError("latent dimensions differ")
    return dim


def _assign(fe: np.ndarray, te: np.ndarray):
    """(cells, distances, differences) of the embeddings ``fe`` against
    ``te``; ``differences[i, j]`` is ``fe[i] - te[j]``."""
    diff = fe[:, None, :] - te[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=2))
    cells = [[] for _ in range(te.shape[0])]
    # argmin takes the lowest index on ties
    for i, j in enumerate(distances.argmin(axis=1).tolist()):
        cells[j].append(i)
    return tuple(map(tuple, cells)), distances, diff


def assign_cells(fitted, truth) -> CellAssignment:
    """Assign every fitted atom to its nearest true atom."""
    _check_pair(fitted, truth)
    cells, distances, _ = _assign(fitted.atom_embeddings(), truth.atom_embeddings())
    return CellAssignment(cells, distances)


def _weight_term(fw, truth, cells) -> float:
    tw = truth.weights
    return float(
        sum(abs(fw[list(cell)].sum() - tw[j]) for j, cell in enumerate(cells))
    )


def _tied_power(cell_size: int) -> int:
    return 1 if cell_size == 1 else 2


def _loss(fitted, truth, expected, power) -> float:
    """Per-cell weight discrepancy plus, for every fitted atom, its weight
    times the sum over the ``dim``-wide blocks of ``atom_embeddings()`` of
    its distance to the cell's true atom raised to ``power(cell size)``.
    """
    d = _check_pair(fitted, truth, expected)
    cells, _, diff = _assign(fitted.atom_embeddings(), truth.atom_embeddings())
    fw = fitted.weights
    total = _weight_term(fw, truth, cells)
    for j, cell in enumerate(cells):
        p = power(len(cell))
        for i in cell:
            # each block's 2-norm as np.linalg.norm forms it for a vector,
            # sqrt(v.dot(v)); an elementwise square-and-sum rounds differently
            total += fw[i] * sum(math.sqrt(v @ v) ** p for v in diff[i, j].reshape(-1, d))
    return float(total)


def loss_d1r(fitted: NonSharedMeasure, truth: NonSharedMeasure, r: int) -> float:
    """Loss for untied prompts: per-cell gate-weight discrepancy plus
    weighted r-th powers of the key and value prompt distances.
    """
    if int(r) != r or r < 1:
        raise ConfigurationError("r must be a positive integer")
    r = int(r)
    return _loss(fitted, truth, NonSharedMeasure, lambda cell_size: r)


def loss_d2(fitted: LinearSharedMeasure, truth: LinearSharedMeasure) -> float:
    """Loss for tied prompts: weight discrepancy, first-power prompt
    distances on singleton cells, squared distances on crowded cells.
    """
    return _loss(fitted, truth, LinearSharedMeasure, _tied_power)


def loss_d3(fitted: NeuralSharedMeasure, truth: NeuralSharedMeasure) -> float:
    """Loss for latent prompts, split by cell cardinality as in loss_d2 but
    measured on the pre-activation images (w1 @ p, w2 @ p) of each side.
    """
    return _loss(fitted, truth, NeuralSharedMeasure, _tied_power)


def loss_for_setting(setting: str, r: int = 2):
    """Return (loss_name, loss_fn) for a measure variant tag.

    The callables look up ``loss_d1r``/``loss_d2``/``loss_d3`` when they are
    called, so a wrapper installed on this module's attribute sees the call.
    """
    losses = {
        "non_shared": (f"d1_{int(r)}", lambda fitted, truth: loss_d1r(fitted, truth, r)),
        "linear_shared": ("d2", lambda fitted, truth: loss_d2(fitted, truth)),
        "neural_shared": ("d3", lambda fitted, truth: loss_d3(fitted, truth)),
    }
    if setting not in losses:
        raise ConfigurationError(f"unknown setting {setting!r}")
    return losses[setting]
