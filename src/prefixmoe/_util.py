"""Small shared helpers: read-only arrays, row softmax, typed config fields,
the JSON form of the lab's dataclasses, and the one JSON reader and the
JSON and CSV writers of every file the lab reads or writes."""

from __future__ import annotations

import csv
import inspect
import io
import json
import sys
import typing
from dataclasses import fields, is_dataclass
from functools import partial
from pathlib import Path

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
    value has another JSON type or is a non-finite number."""
    accepted, label = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"{what} must be {label}, got {value!r}")
    # json reads NaN, Infinity and integers beyond the float range, and a
    # range check written with < passes NaN
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    return kind(value)


def config_field(cfg: dict, key: str, kind, where: str, default=_MISSING):
    """Field ``key`` of ``cfg`` as ``kind``; required unless a default is given."""
    if key not in cfg and default is _MISSING:
        raise ConfigurationError(f"{where}: missing field {key!r}")
    return typed_value(cfg.get(key, default), kind, f"{where}: field {key!r}")


def to_json(obj) -> dict:
    """The fields of dataclass ``obj`` by name: arrays become nested lists
    and nested dataclasses objects."""
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)}


def _json_value(value):
    if is_dataclass(value):
        return to_json(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def from_json(build, data: dict, where: str, **readers):
    """``build(**fields)`` from the JSON object ``data``, the inverse of ``to_json``.

    ``build`` is a dataclass. Arrays are read as JSON lists,
    ``tuple[int, ...]`` as lists of integers, scalars by their type, and
    nested dataclasses as objects, or by ``readers[name](block, where)``
    where a field has one. Unknown keys, missing required fields and values
    of the wrong JSON type are ConfigurationErrors naming them, and a
    ConfigurationError of ``build`` itself gets ``where`` in front.
    """
    params = inspect.signature(build).parameters
    kinds = typing.get_type_hints(build)
    for key in data:
        if key not in params:
            raise ConfigurationError(f"{where}: unknown field {key!r}")
    values = {}
    for name, param in params.items():
        if name not in data and param.default is not param.empty:
            continue
        kind = kinds[name]
        if name in readers or is_dataclass(kind):
            read = readers.get(name, partial(from_json, kind))
            values[name] = read(config_field(data, name, dict, where), f"{where}.{name}")
        elif typing.get_origin(kind) is tuple:
            entries = config_field(data, name, list, where)
            values[name] = tuple(typed_value(v, int, f"{where}: entry of {name!r}") for v in entries)
        else:
            values[name] = config_field(data, name, list if kind is np.ndarray else kind, where)
    # the nested readers above prefix their own errors, so each message gets one prefix
    try:
        return build(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


# --------------------------------------------------------------------------
# files


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``. A missing file, malformed
    JSON, an integer literal beyond Python's digit limit or a top level that
    is not an object is a ConfigurationError naming the file; ``what`` says
    what the file is when it is missing."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"{what} not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable text, or an integer of more than 4,300 digits
        raise ConfigurationError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    return data


def json_text(data) -> str:
    """Indented JSON with sorted keys and a final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(header, rows) -> str:
    """CSV with a header line: floats by ``repr``, so they read back bit for
    bit, booleans as ``true``/``false`` and anything else by ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(value) for value in row] for row in rows)
    return buf.getvalue()
