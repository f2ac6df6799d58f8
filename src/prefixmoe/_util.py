"""Small shared helpers: read-only arrays, row softmax and typed config fields."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def frozen_array(value, shape=None, name="array"):
    """Copy ``value`` into a read-only float array, checking shape and finiteness."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name}: expected a numeric array, got {value!r}") from exc
    if shape is not None and arr.shape != shape:
        raise ConfigurationError(f"{name}: expected shape {shape}, got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name}: non-finite entries")
    arr.setflags(write=False)
    return arr


def softmax_rows(logits):
    """Row-wise softmax with max subtraction; rows must be non-empty."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# the JSON types each conversion accepts; booleans are never numbers
_JSON_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a JSON list"),
    dict: ((dict,), "a JSON object"),
}
_MISSING = object()


def typed_value(value, kind, what: str):
    """``kind(value)``, or a ConfigurationError naming ``what`` when the
    value has another JSON type."""
    accepted, label = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"{what} must be {label}, got {value!r}")
    return kind(value)


def config_field(cfg: dict, key: str, kind, where: str, default=_MISSING):
    """Field ``key`` of ``cfg`` as ``kind``; required unless a default is given."""
    if key not in cfg and default is _MISSING:
        raise ConfigurationError(f"{where}: missing field {key!r}")
    return typed_value(cfg.get(key, default), kind, f"{where}: field {key!r}")
