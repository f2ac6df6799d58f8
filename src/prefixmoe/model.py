"""Mixing measures, the frozen expert bank, and the gated regression model.

The regression function is a softmax-gated mixture: a fixed bank of experts
gated by quadratic forms, extended with prefix atoms whose gate direction
is a projected key prompt and whose expert output is the scalar projection
of a value prompt. Three atom parameterizations are supported:

* ``non_shared``    - independent key and value prompts per atom,
* ``linear_shared`` - one prompt used on both sides,
* ``neural_shared`` - one latent prompt pushed through two shared one-layer
  maps (activation applied element-wise).

The three differ only in how the key and value prompts are produced. Each
declares its arrays and its prompt map (see ``_Measure``), and every
consumer reads that declaration instead of branching on the variant.

Log-weights ``b`` enter the gate logits additively, so atom weights are
``exp(b)``. Compact parameter boxes are an optimization-time constraint
(see ``estimation``); construction only checks shapes and finiteness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from ._util import config_field, csv_text, from_json, frozen_array, softmax_rows, to_json
from .errors import ConfigurationError, UsageError

__all__ = [
    "Activation",
    "ACTIVATIONS",
    "PretrainedBank",
    "ProjectionPair",
    "NonSharedMeasure",
    "LinearSharedMeasure",
    "NeuralSharedMeasure",
    "MEASURE_VARIANTS",
    "INPUT_LOW",
    "INPUT_HIGH",
    "RegressionModel",
    "Dataset",
    "IdentifiabilityResult",
    "eval_regression",
    "gate_weights",
    "regression_fn",
    "gen_dataset",
    "check_identifiability",
    "gate_directions",
    "expert_scalars",
    "measure_to_dict",
    "measure_from_dict",
    "model_to_dict",
    "model_from_dict",
]


# --------------------------------------------------------------------------
# activations


@dataclass(frozen=True)
class Activation:
    """Element-wise activation with its first derivative.

    ``has_curvature`` marks activations whose second derivative is not
    identically zero; the estimation paths for the latent variant require
    a curved activation on the value side.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    has_curvature: bool


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


ACTIVATIONS = {
    "tanh": Activation(
        "tanh",
        np.tanh,
        lambda x: 1.0 - np.tanh(x) ** 2,
        True,
    ),
    "sigmoid": Activation(
        "sigmoid",
        _sigmoid,
        lambda x: _sigmoid(x) * (1.0 - _sigmoid(x)),
        True,
    ),
    # test-only for estimation purposes: zero curvature on the value side
    "identity": Activation(
        "identity",
        lambda x: np.asarray(x, dtype=float),
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        False,
    ),
}


# --------------------------------------------------------------------------
# frozen components


@dataclass(frozen=True)
class PretrainedBank:
    """Frozen bank of gating quadratic forms, biases, and expert parameters.

    gate_mats: (n_experts, dim, dim), gate_biases: (n_experts,),
    expert_params: (n_experts, dim) for the linear experts eta^T x.
    """

    gate_mats: np.ndarray
    gate_biases: np.ndarray
    expert_params: np.ndarray

    def __post_init__(self):
        mats = frozen_array(self.gate_mats, name="gate_mats")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ConfigurationError("gate_mats must be (n_experts, dim, dim)")
        n, dim = mats.shape[0], mats.shape[1]
        if n < 1:
            raise ConfigurationError("bank needs at least one expert")
        object.__setattr__(self, "gate_mats", mats)
        object.__setattr__(self, "gate_biases", frozen_array(self.gate_biases, (n,), "gate_biases"))
        object.__setattr__(self, "expert_params", frozen_array(self.expert_params, (n, dim), "expert_params"))

    @property
    def n_experts(self) -> int:
        return self.gate_mats.shape[0]

    @property
    def dim(self) -> int:
        return self.gate_mats.shape[1]

    @classmethod
    def random(cls, n_experts: int, dim: int, seed: int) -> "PretrainedBank":
        """Seeded bank: small symmetric gating curvature, uniform biases,
        and normalized Gaussian expert parameters."""
        rng = np.random.default_rng(int(seed))
        raw = rng.standard_normal((n_experts, dim, dim))
        mats = 0.1 * 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
        biases = rng.uniform(-0.5, 0.5, size=n_experts)
        eta = rng.standard_normal((n_experts, dim)) / math.sqrt(dim)
        return cls(mats, biases, eta)

    def gate_logits(self, x2d: np.ndarray) -> np.ndarray:
        """Per-sample logits x^T A_j x + a_j, shape (n_samples, n_experts)."""
        quad = np.einsum("ni,jik,nk->nj", x2d, self.gate_mats, x2d)
        return quad + self.gate_biases

    def expert_values(self, x2d: np.ndarray) -> np.ndarray:
        """Per-sample expert outputs eta_j^T x, shape (n_samples, n_experts)."""
        return x2d @ self.expert_params.T


@dataclass(frozen=True)
class ProjectionPair:
    """Frozen gate projection (dim x dim) and scalar output map (length dim).

    ``b`` maps key prompts into gate directions; ``c`` is the single row of
    the output projection, so every prefix expert is the scalar ``c @ p``.
    """

    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        b = frozen_array(self.b, name="b")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ConfigurationError("b must be a square matrix")
        c = frozen_array(self.c, name="c").reshape(-1)
        if c.shape[0] != b.shape[0]:
            raise ConfigurationError(f"c has length {c.shape[0]}, expected {b.shape[0]}")
        smallest = float(np.linalg.svd(b, compute_uv=False)[-1]) if b.size else 0.0
        if smallest <= 1e-8:
            warnings.warn(
                f"gate projection is numerically rank-deficient (smallest singular value {smallest:.3e})",
                stacklevel=2,
            )
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @classmethod
    def random(cls, dim: int, seed: int) -> "ProjectionPair":
        rng = np.random.default_rng(int(seed))
        return cls(rng.standard_normal((dim, dim)), rng.standard_normal(dim) / math.sqrt(dim))


# --------------------------------------------------------------------------
# mixing measures


class _Measure:
    """What the three measure variants share.

    A variant is a frozen dataclass with ``log_weights`` plus the arrays it
    declares: ``atom_fields``, one row per atom, and ``shared_fields``,
    common to all atoms, each in pack order. Its ``prompt_map(*arrays)``
    takes those arrays (atom fields, then shared fields) to
    ``(key prompts, value prompts, vjp)``. The derivative of sample i's
    output with respect to coordinate j of atom k's key prompt is
    ``d_bias[i, k] * xb[i, j]``, and with respect to coordinate j of its
    value prompt ``gates[i, k] * c[j]``; ``vjp(d_bias, xb, gates, c,
    atom_cols, shared_cols)`` writes from these the Jacobian columns of the
    variant's own arrays into two views of the caller's Jacobian:
    ``atom_cols`` (samples, atoms, summed atom-field width) and
    ``shared_cols`` (samples, summed shared-array sizes), both in pack
    order. It forms each product as its own rounded multiply, one prompt
    coordinate at a time, so that untied columns hold exactly those
    products and tied ones their sum. Packing, initialization,
    serialization, prediction and the residual Jacobian read only this
    declaration.
    """

    atom_fields: ClassVar[tuple]
    shared_fields: ClassVar[tuple] = ()

    def __post_init__(self):
        lw = frozen_array(self.log_weights, name="log_weights").reshape(-1)
        object.__setattr__(self, "log_weights", lw)
        for names in (self.atom_fields, self.shared_fields):
            arrays = [frozen_array(getattr(self, name), name=name) for name in names]
            if any(a.ndim != 2 or a.shape != arrays[0].shape for a in arrays):
                raise ConfigurationError(f"{', '.join(names)} must be 2-D with equal shapes")
            for name, arr in zip(names, arrays):
                object.__setattr__(self, name, arr)
        if getattr(self, self.atom_fields[0]).shape[0] != lw.shape[0]:
            raise ConfigurationError("atom arrays disagree in shape")

    def _key_value(self):
        names = self.atom_fields + self.shared_fields
        key, value, _ = self.prompt_map(*(getattr(self, name) for name in names))
        return key, value

    @property
    def n_atoms(self) -> int:
        return self.log_weights.shape[0]

    @property
    def dim(self) -> int:
        """Width of the key and value prompts."""
        return self._key_value()[0].shape[1]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def satisfies_curvature(self) -> bool:
        """False when the value-side map has identically zero second
        derivative; estimation refuses such measures."""
        return True


@dataclass(frozen=True)
class NonSharedMeasure(_Measure):
    """Atoms (log-weight, key prompt, value prompt) with untied prompts."""

    variant: ClassVar[str] = "non_shared"
    atom_fields: ClassVar[tuple] = ("p_key", "p_value")

    log_weights: np.ndarray
    p_key: np.ndarray
    p_value: np.ndarray

    def prompt_map(self, p_key, p_value):
        def vjp(d_bias, xb, gates, c, atom_cols, shared_cols):
            dim = len(c)
            for j in range(dim):
                np.multiply(d_bias, xb[:, j, None], out=atom_cols[:, :, j])
                np.multiply(gates, c[j], out=atom_cols[:, :, dim + j])

        return p_key, p_value, vjp

    def atom_embeddings(self) -> np.ndarray:
        """Concatenated (key, value) prompt per atom, used for cell assignment."""
        return np.concatenate([self.p_key, self.p_value], axis=1)


@dataclass(frozen=True)
class LinearSharedMeasure(_Measure):
    """Atoms (log-weight, prompt) with the prompt tied across key and value."""

    variant: ClassVar[str] = "linear_shared"
    atom_fields: ClassVar[tuple] = ("prompts",)

    log_weights: np.ndarray
    prompts: np.ndarray

    def prompt_map(self, prompts):
        def vjp(d_bias, xb, gates, c, atom_cols, shared_cols):
            for j in range(len(c)):
                np.add(d_bias * xb[:, j, None], gates * c[j], out=atom_cols[:, :, j])

        return prompts, prompts, vjp

    def atom_embeddings(self) -> np.ndarray:
        return self.prompts

    def to_non_shared(self) -> NonSharedMeasure:
        """Equivalent untied measure with p_key = p_value = prompt."""
        return NonSharedMeasure(self.log_weights, self.prompts, self.prompts)


@dataclass(frozen=True)
class NeuralSharedMeasure(_Measure):
    """Atoms (log-weight, latent prompt) plus two shared one-layer maps.

    Key prompts are ``act1(w1 @ p)`` and value prompts ``act2(w2 @ p)``;
    the atom identity for cell assignment is the pre-activation pair
    ``(w1 @ p, w2 @ p)``.
    """

    variant: ClassVar[str] = "neural_shared"
    atom_fields: ClassVar[tuple] = ("prompts",)
    shared_fields: ClassVar[tuple] = ("w1", "w2")

    w1: np.ndarray
    w2: np.ndarray
    log_weights: np.ndarray
    prompts: np.ndarray
    act1: str = "tanh"
    act2: str = "tanh"

    def __post_init__(self):
        super().__post_init__()
        if self.prompts.shape[1] != self.w1.shape[1]:
            raise ConfigurationError("prompts must be (n_atoms, w1.shape[1])")
        for name in (self.act1, self.act2):
            if name not in ACTIVATIONS:
                raise ConfigurationError(f"unknown activation {name!r}")

    @property
    def satisfies_curvature(self) -> bool:
        return ACTIVATIONS[self.act2].has_curvature

    def prompt_map(self, prompts, w1, w2):
        act1, act2 = ACTIVATIONS[self.act1], ACTIVATIONS[self.act2]
        z1 = prompts @ w1.T
        z2 = prompts @ w2.T

        def vjp(d_bias, xb, gates, c, atom_cols, shared_cols):
            slope1, slope2 = act1.deriv(z1), act2.deriv(z2)
            rows, atoms = gates.shape
            d_key = np.empty((rows, atoms, len(c)))
            d_value = np.empty_like(d_key)
            for j in range(len(c)):
                np.multiply(d_bias * xb[:, j, None], slope1[:, j], out=d_key[:, :, j])
                np.multiply(gates * c[j], slope2[:, j], out=d_value[:, :, j])
            flat_key, flat_value = d_key.reshape(-1, len(c)), d_value.reshape(-1, len(c))
            atom_cols[...] = (flat_key @ w1 + flat_value @ w2).reshape(rows, atoms, -1)
            shared_cols[:, : w1.size] = np.einsum("ika,kl->ial", d_key, prompts).reshape(rows, -1)
            shared_cols[:, w1.size :] = np.einsum("ika,kl->ial", d_value, prompts).reshape(rows, -1)

        return act1.fn(z1), act2.fn(z2), vjp

    def atom_embeddings(self) -> np.ndarray:
        return np.concatenate([self.prompts @ self.w1.T, self.prompts @ self.w2.T], axis=1)


MEASURE_VARIANTS = {
    cls.variant: cls
    for cls in (NonSharedMeasure, LinearSharedMeasure, NeuralSharedMeasure)
}


def gate_directions(measure, proj: ProjectionPair) -> np.ndarray:
    """Projected key prompts, one gate direction per atom, shape (n_atoms, dim)."""
    return measure._key_value()[0] @ proj.b.T


def expert_scalars(measure, proj: ProjectionPair) -> np.ndarray:
    """Projected value prompts: the constant expert output per atom."""
    return measure._key_value()[1] @ proj.c


# --------------------------------------------------------------------------
# input cube, model, dataset

# every covariate coordinate is drawn independently, uniform on [INPUT_LOW, INPUT_HIGH]
INPUT_LOW = -1.0
INPUT_HIGH = 1.0


@dataclass(frozen=True)
class RegressionModel:
    """Generating model: bank + projections + mixing measure + noise level."""

    bank: PretrainedBank
    proj: ProjectionPair
    measure: object
    noise_sd: float

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ConfigurationError("noise_sd must be nonnegative")
        if type(self.measure) not in MEASURE_VARIANTS.values():
            raise ConfigurationError("measure must be one of the three variants")
        if self.bank.dim != self.proj.dim:
            raise ConfigurationError("bank and projection dims differ")
        if self.measure.n_atoms and self.measure.dim != self.proj.dim:
            raise ConfigurationError("measure and projection dims differ")

    @property
    def setting(self) -> str:
        return self.measure.variant


def _gate_logits(bank: PretrainedBank, proj: ProjectionPair, measure, x2d: np.ndarray) -> np.ndarray:
    logits = bank.gate_logits(x2d)
    if measure.n_atoms:
        prefix = x2d @ gate_directions(measure, proj).T + measure.log_weights
        logits = np.hstack([logits, prefix])
    return logits


def _predict(bank: PretrainedBank, proj: ProjectionPair, measure, x2d: np.ndarray) -> np.ndarray:
    gates = softmax_rows(_gate_logits(bank, proj, measure, x2d))
    values = bank.expert_values(x2d)
    if measure.n_atoms:
        scalars = np.broadcast_to(expert_scalars(measure, proj), (x2d.shape[0], measure.n_atoms))
        values = np.hstack([values, scalars])
    return (gates * values).sum(axis=1)


def _as_batch(x, dim: int):
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    batch = np.atleast_2d(arr)
    if batch.shape[1] != dim:
        raise ConfigurationError(f"input dim {batch.shape[1]} != model dim {dim}")
    return batch, single


def eval_regression(model: RegressionModel, x):
    """Evaluate the regression function at one point (float) or a batch
    of rows (1-D array)."""
    batch, single = _as_batch(x, model.proj.dim)
    out = _predict(model.bank, model.proj, model.measure, batch)
    return float(out[0]) if single else out


def gate_weights(model: RegressionModel, x) -> np.ndarray:
    """Softmax gate weights over bank experts then prefix atoms, per row."""
    batch, single = _as_batch(x, model.proj.dim)
    gates = softmax_rows(_gate_logits(model.bank, model.proj, model.measure, batch))
    return gates[0] if single else gates


def regression_fn(bank: PretrainedBank, proj: ProjectionPair, measure) -> Callable[[np.ndarray], np.ndarray]:
    """Batch callable x2d -> values for the given components."""

    def fn(x2d: np.ndarray) -> np.ndarray:
        return _predict(bank, proj, measure, np.atleast_2d(np.asarray(x2d, dtype=float)))

    return fn


@dataclass(frozen=True)
class Dataset:
    """Sampled covariates ``x``, shape (n, dim), and responses ``y``, all finite."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ConfigurationError("x must be (n, dim) matching y")
        if x.shape[0] < 1:
            raise ConfigurationError("dataset needs at least one sample")
        if not np.all(np.isfinite(x)):
            raise ConfigurationError("x: non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ConfigurationError("y: non-finite entries")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @staticmethod
    def meta_path(csv_path) -> Path:
        """Where ``gen`` writes the sidecar of the dataset at ``csv_path``."""
        p = Path(csv_path)
        return p.with_name(p.stem + ".meta.json")

    @staticmethod
    def _header(dim: int) -> list:
        return [f"x_{j + 1}" for j in range(dim)] + ["y"]

    def csv_text(self) -> str:
        return csv_text(self._header(self.x.shape[1]), ([*row, value] for row, value in zip(self.x, self.y)))

    @classmethod
    def load(cls, csv_path) -> "Dataset":
        """Read a sample written as ``csv_text``: the header ``x_1,...,x_d,y``,
        then one row of covariates and the response per sample, with no
        comment lines. A missing, empty or malformed file, or a header that
        does not name its rows' columns, is a ConfigurationError naming it."""
        path = Path(csv_path)
        if not path.is_file():
            raise ConfigurationError(f"dataset file not found: {path}")
        try:
            with path.open() as handle, warnings.catch_warnings():
                # a file without rows; the check below names it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                header = handle.readline().rstrip("\n")
                data = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
            expected = ",".join(cls._header(data.shape[1] - 1))
            if data.size and header != expected:
                raise ConfigurationError(
                    f"header {header!r} does not match rows of {data.shape[1]} columns, expected {expected!r}"
                )
            return cls(data[:, :-1], data[:, -1])
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc


def gen_dataset(model: RegressionModel, n_samples: int, seed: int) -> Dataset:
    """Draw covariates uniform on the input cube and add centered Gaussian noise.

    Deterministic given ``seed``; the covariates are drawn first and the
    noise second, so paired runs over different measures consume identical
    randomness.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be at least 1")
    rng = np.random.default_rng(int(seed))
    x = rng.uniform(INPUT_LOW, INPUT_HIGH, size=(n_samples, model.proj.dim))
    noise = rng.normal(0.0, model.noise_sd, size=n_samples)
    y = _predict(model.bank, model.proj, model.measure, x) + noise
    return Dataset(x, y)


@dataclass(frozen=True)
class IdentifiabilityResult:
    passed: bool
    min_distance: float
    tol: float


def check_identifiability(measure, proj: ProjectionPair, tol: float = 1e-6) -> IdentifiabilityResult:
    """Advisory check that projected key prompts are pairwise separated.

    A single atom passes vacuously with infinite recorded distance.
    """
    if measure.n_atoms < 1:
        raise UsageError("identifiability check needs at least one atom")
    if measure.n_atoms == 1:
        return IdentifiabilityResult(True, math.inf, tol)
    dirs = gate_directions(measure, proj)
    diff = dirs[:, None, :] - dirs[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    upper = dist[np.triu_indices(measure.n_atoms, k=1)]
    min_distance = float(upper.min())
    return IdentifiabilityResult(min_distance >= tol, min_distance, tol)


# --------------------------------------------------------------------------
# serialization: ``_util.to_json`` and ``from_json`` write and read every
# component, and a measure adds its ``variant``; ``model_from_dict`` reads
# back what ``model_to_dict`` writes, and no other form of a block.


def measure_to_dict(measure) -> dict:
    return {"variant": measure.variant, **to_json(measure)}


def measure_from_dict(data: dict, where: str = "measure"):
    variant = config_field(data, "variant", str, where)
    if variant not in MEASURE_VARIANTS:
        raise ConfigurationError(f"{where}: unknown measure variant {variant!r}")
    return from_json(MEASURE_VARIANTS[variant], {k: v for k, v in data.items() if k != "variant"}, where)


def model_to_dict(model: RegressionModel) -> dict:
    return {**to_json(model), "measure": measure_to_dict(model.measure)}


def model_from_dict(data: dict, where: str = "model") -> RegressionModel:
    return from_json(RegressionModel, data, where, measure=measure_from_dict)
