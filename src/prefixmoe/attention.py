"""Multi-head self-attention with prompt and prefix tuning, plus the exact
per-head mixture-of-experts decompositions used as numerical cross-checks.

Conventions: embeddings are rows, a sequence is an (n_tokens, dim) array,
and every attention logit is divided by sqrt(d_head). Prompt tuning is
prefix tuning whose prompt rows are also queried, so one path serves both
modes. All functions here are pure; the decomposition associates its
scores as q (wq wk^T) k^T, unlike the forward's (q wq)(k wk)^T, so that
agreement between the two routes is a meaningful floating-point check
rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import frozen_array, softmax_rows, to_json
from .errors import ConfigurationError, UsageError

__all__ = [
    "AttentionBundle",
    "PromptSet",
    "MoeDecomposition",
    "EquivalenceReport",
    "msa_forward",
    "prefix_forward",
    "prompt_forward",
    "head_outputs",
    "moe_decompose",
    "random_bundle",
    "run_equivalence_trials",
]


@dataclass(frozen=True)
class AttentionBundle:
    """Frozen weights and input sequence for one multi-head attention layer.

    x: (n_tokens, dim) input embeddings.
    wq, wk, wv: (n_heads, dim, d_head) per-head projections with
        d_head = dim // n_heads (key and value widths are equal).
    wo: (n_heads * d_head, dim) output projection.
    """

    x: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self):
        x = frozen_array(self.x, name="x")
        if x.ndim != 2:
            raise ConfigurationError("x must be 2-D (n_tokens, dim)")
        wq = np.asarray(self.wq, dtype=float)
        if wq.ndim != 3:
            raise ConfigurationError("wq must be 3-D (n_heads, dim, d_head)")
        n_heads = wq.shape[0]
        dim = x.shape[1]
        if n_heads < 1 or dim % n_heads:
            raise ConfigurationError(
                f"dim {dim} must be divisible by n_heads {n_heads}"
            )
        d_head = dim // n_heads
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wq", frozen_array(self.wq, (n_heads, dim, d_head), "wq"))
        object.__setattr__(self, "wk", frozen_array(self.wk, (n_heads, dim, d_head), "wk"))
        object.__setattr__(self, "wv", frozen_array(self.wv, (n_heads, dim, d_head), "wv"))
        object.__setattr__(self, "wo", frozen_array(self.wo, (n_heads * d_head, dim), "wo"))

    @property
    def n_tokens(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_heads(self) -> int:
        return self.wq.shape[0]

    @property
    def d_head(self) -> int:
        return self.dim // self.n_heads


@dataclass(frozen=True)
class PromptSet:
    """Prompt vectors in one of two modes.

    prefix: separate key and value prompt stacks of equal length, appended
        to the attention keys and values only.
    prompt: a single stack joined to queries, keys, and values alike; the
        key and value views are then literally the same array (tied
        structure with identity maps on both sides).
    """

    mode: str
    p_key: np.ndarray
    p_value: np.ndarray

    def __post_init__(self):
        if self.mode not in ("prompt", "prefix"):
            raise ConfigurationError(f"unknown prompt mode {self.mode!r}")
        pk = frozen_array(self.p_key, name="p_key")
        if pk.ndim != 2:
            raise ConfigurationError("prompt stacks must be 2-D")
        pv = pk if self.p_value is self.p_key else frozen_array(self.p_value, pk.shape, "p_value")
        object.__setattr__(self, "p_key", pk)
        object.__setattr__(self, "p_value", pv)

    @classmethod
    def prefix(cls, p_key, p_value) -> "PromptSet":
        return cls("prefix", p_key, p_value)

    @classmethod
    def prompt(cls, p) -> "PromptSet":
        return cls("prompt", p, p)

    @property
    def length(self) -> int:
        return self.p_key.shape[0]


def _tuned_rows(bundle: AttentionBundle, prompts: PromptSet, mode: str):
    """(query rows, key prompts, value prompts) of tuned attention.

    The two modes differ in one thing: prompt rows are also query rows in
    prompt mode, while prefix mode queries with the input rows only. Keys
    and values are always the prompt rows followed by the input rows.
    """
    if prompts.mode != mode:
        raise UsageError(f"prompt set has mode {prompts.mode!r}, expected {mode!r}")
    if prompts.length and prompts.p_key.shape[1] != bundle.dim:
        raise ConfigurationError(f"prompt dim {prompts.p_key.shape[1]} != bundle dim {bundle.dim}")
    # an empty prompt set of any width adds no rows
    p_key, p_value = (prompts.p_key, prompts.p_value) if prompts.length else (np.zeros((0, bundle.dim)),) * 2
    queries = np.vstack([bundle.x, p_key]) if mode == "prompt" else bundle.x
    return queries, p_key, p_value


def _head_outputs(bundle: AttentionBundle, queries, p_key, p_value) -> np.ndarray:
    scale = 1.0 / math.sqrt(bundle.d_head)
    keys = np.vstack([p_key, bundle.x])
    values = np.vstack([p_value, bundle.x])
    out = np.empty((bundle.n_heads, queries.shape[0], bundle.d_head))
    for head in range(bundle.n_heads):
        q = queries @ bundle.wq[head]
        k = keys @ bundle.wk[head]
        v = values @ bundle.wv[head]
        out[head] = softmax_rows(q @ k.T * scale) @ v
    return out


def _concat_project(bundle: AttentionBundle, heads: np.ndarray) -> np.ndarray:
    return np.concatenate(list(heads), axis=1) @ bundle.wo


def msa_forward(bundle: AttentionBundle) -> np.ndarray:
    """Plain multi-head self-attention output, one row per input token."""
    empty = np.zeros((0, bundle.dim))
    return _concat_project(bundle, _head_outputs(bundle, bundle.x, empty, empty))


def prefix_forward(bundle: AttentionBundle, prompts: PromptSet) -> np.ndarray:
    """Attention with prompt stacks prepended to keys and values only.

    The output keeps one row per input token; with an empty prompt set the
    stacked keys and values are the input rows, so it equals ``msa_forward``.
    """
    return _concat_project(bundle, _head_outputs(bundle, *_tuned_rows(bundle, prompts, "prefix")))


def prompt_forward(bundle: AttentionBundle, prompts: PromptSet) -> np.ndarray:
    """Attention with a single prompt stack joined to queries, keys, and values.

    Returns n_tokens + n_prompts rows: original token positions first, then
    one row per prompt vector (each prompt row is a fresh mixture over the
    same expanded expert set).
    """
    return _concat_project(bundle, _head_outputs(bundle, *_tuned_rows(bundle, prompts, "prompt")))


def head_outputs(bundle: AttentionBundle, prompts: PromptSet) -> np.ndarray:
    """Per-head outputs (n_heads, rows, d_head) of tuned attention in the
    prompt set's mode: one row per input token, then, in prompt mode, one
    row per prompt."""
    return _head_outputs(bundle, *_tuned_rows(bundle, prompts, prompts.mode))


@dataclass(frozen=True)
class MoeDecomposition:
    """Per-row mixture view of one attention head.

    gates[i, e] is the weight row i places on expert e, experts[e] is that
    expert's output vector, and scores holds the pre-softmax logits.
    ``gates @ experts`` reproduces the head's output rows.
    """

    head: int
    gates: np.ndarray
    scores: np.ndarray
    experts: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.gates @ self.experts


def moe_decompose(bundle: AttentionBundle, prompts: PromptSet, head: int = 0) -> MoeDecomposition:
    """Mixture view of tuned attention for one head, one row per row of
    ``head_outputs``.

    Experts: one per token position (wv^T x_j) followed by one constant
    expert per value prompt (wv^T p_v). Scores pair each query row with
    every expert through the bilinear form q^T (wq wk^T) k divided by
    sqrt(d_head), where k is the token position or the key prompt. In
    prompt mode the rows past n_tokens are prompt queries, and their
    prompt-prompt score block does not depend on the input sequence.
    """
    if not 0 <= head < bundle.n_heads:
        raise ConfigurationError(f"head {head} out of range for {bundle.n_heads} heads")
    queries, p_key, p_value = _tuned_rows(bundle, prompts, prompts.mode)
    qc = queries @ (bundle.wq[head] @ bundle.wk[head].T)
    scores = np.hstack([qc @ bundle.x.T, qc @ p_key.T]) * (1.0 / math.sqrt(bundle.d_head))
    experts = np.vstack([bundle.x @ bundle.wv[head], p_value @ bundle.wv[head]])
    return MoeDecomposition(head, softmax_rows(scores), scores, experts)


def random_bundle(n_tokens: int, dim: int, n_heads: int, rng, scale: float = 1.0) -> AttentionBundle:
    """Gaussian bundle with the given dimensions, driven by ``rng``."""
    if n_heads < 1 or dim % n_heads:
        raise ConfigurationError(f"dim {dim} must be divisible by n_heads {n_heads}")
    d_head = dim // n_heads
    return AttentionBundle(
        x=scale * rng.standard_normal((n_tokens, dim)),
        wq=scale * rng.standard_normal((n_heads, dim, d_head)),
        wk=scale * rng.standard_normal((n_heads, dim, d_head)),
        wv=scale * rng.standard_normal((n_heads, dim, d_head)),
        wo=scale * rng.standard_normal((n_heads * d_head, dim)),
    )


# each equivalence trial draws its head count from EQUIV_HEADS, then at most
# these many dimensions, tokens and prompts of each mode
EQUIV_HEADS = (1, 2)
EQUIV_MAX_DIM = 16
EQUIV_MAX_TOKENS = 8
EQUIV_MAX_PROMPTS = 4


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst deviations between tuned forwards and their mixture rebuilds."""

    n_trials: int
    tolerance: float
    max_abs_diff_prefix: float
    max_abs_diff_prompt: float

    @property
    def passed(self) -> bool:
        return (
            self.max_abs_diff_prefix <= self.tolerance
            and self.max_abs_diff_prompt <= self.tolerance
        )

    def to_dict(self) -> dict:
        return {**to_json(self), "passed": self.passed}


def run_equivalence_trials(n_trials: int, seed: int, tolerance: float = 1e-9) -> EquivalenceReport:
    """Randomized cross-check of both tuned forwards against their
    per-head mixture decompositions, tracking the worst absolute deviation
    of the fully projected outputs in each mode.
    """
    for name, value in (("n_trials", n_trials), ("tolerance", tolerance)):
        if not value >= 0:
            raise ConfigurationError(f"{name} must be at least 0, got {value}")
    rng = np.random.default_rng(int(seed))
    worst = {"prefix": 0.0, "prompt": 0.0}
    for _ in range(n_trials):
        m = EQUIV_HEADS[int(rng.integers(0, len(EQUIV_HEADS)))]
        d_head = int(rng.integers(1, EQUIV_MAX_DIM // m + 1))
        dim = m * d_head
        n = int(rng.integers(1, EQUIV_MAX_TOKENS + 1))
        bundle = random_bundle(n, dim, m, rng)
        n_prefix = int(rng.integers(0, EQUIV_MAX_PROMPTS + 1))
        n_prompt = int(rng.integers(0, EQUIV_MAX_PROMPTS + 1))
        prefix = PromptSet.prefix(
            rng.standard_normal((n_prefix, dim)), rng.standard_normal((n_prefix, dim))
        )
        prompt = PromptSet.prompt(rng.standard_normal((n_prompt, dim)))
        for prompts in (prefix, prompt):
            direct = _concat_project(bundle, head_outputs(bundle, prompts))
            rebuilt = _concat_project(bundle, [moe_decompose(bundle, prompts, h).reconstruct() for h in range(m)])
            worst[prompts.mode] = max(worst[prompts.mode], float(np.abs(direct - rebuilt).max()))
    return EquivalenceReport(n_trials, tolerance, worst["prefix"], worst["prompt"])
