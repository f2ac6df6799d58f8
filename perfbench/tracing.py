"""Spans around the calls into each module's public functions, recorded
from outside the package, and the per-layer metrics computed from them.

``Tracer.install`` replaces a public function in the namespace it is
called from (``prefixmoe.cli`` imports its library functions by name, so
both the CLI's and the library's own references are wrapped). Spans are
kept in memory and written out when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time

# (module, attribute) -> span name. Each entry is a place the workloads
# look a library function up; several places share one span name.
TRACED = {
    ("prefixmoe.cli", "run_sweep"): "experiments.run_sweep",
    ("prefixmoe.cli", "fit"): "estimation.fit",
    ("prefixmoe.experiments", "fit"): "estimation.fit",
    ("prefixmoe.cli", "gen_dataset"): "model.gen_dataset",
    ("prefixmoe.experiments", "gen_dataset"): "model.gen_dataset",
    ("prefixmoe.cli", "l2_norm_mc"): "experiments.l2_norm_mc",
    ("prefixmoe.experiments", "l2_norm_mc"): "experiments.l2_norm_mc",
    ("prefixmoe.cli", "witness_sequence"): "experiments.witness_sequence",
    ("prefixmoe.experiments", "witness_sequence"): "experiments.witness_sequence",
    ("prefixmoe.cli", "loss_d1r"): "voronoi.loss",
    ("prefixmoe.voronoi", "loss_d1r"): "voronoi.loss",
    ("prefixmoe.voronoi", "loss_d2"): "voronoi.loss",
    ("prefixmoe.voronoi", "loss_d3"): "voronoi.loss",
    ("prefixmoe.cli", "run_equivalence_trials"): "attention.equiv",
}

# the calls that make up one sweep cell, each cell starting with its dataset
CELL_SPANS = ("model.gen_dataset", "estimation.fit", "voronoi.loss", "experiments.l2_norm_mc")


def _fit_info(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged and not result.failed)}


def _equiv_info(args, kwargs, result):
    return {"trials": int(kwargs["n_trials"])}


_INFO = {"estimation.fit": _fit_info, "attention.equiv": _equiv_info}


class Tracer:
    """Records [name, parent index, start, end, extra] per traced call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.recording = True

    def span(self, name: str, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        info = _INFO.get(name)
        if info is not None:
            span[4] = info(args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED``; report the places not found."""
        for (module_name, attr), name in TRACED.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: no {module_name}.{attr} to trace", file=sys.stderr)
                continue
            setattr(module, attr, self.wrap(name, fn))


# --------------------------------------------------------------------------
# per-layer metrics


def tail_rank(count: int):
    """The highest whole percentile with at least ten samples beyond it,
    or None below forty samples, where it would be no tail."""
    if count < 40:
        return None
    return math.floor(100 - 1000 / count)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def median_and_tail(values):
    """(median, tail) of ``values``; the tail is the median below forty
    samples. Both 0.0 when there are no values."""
    if not values:
        return 0.0, 0.0
    mid = statistics.median(values)
    rank = tail_rank(len(values))
    return mid, (mid if rank is None else percentile(values, rank))


def _self_time(spans, index: int, children) -> float:
    name, _, start, end, _ = spans[index]
    return (end - start) - sum(spans[c][3] - spans[c][2] for c in children.get(index, ()))


def layer_metrics(spans) -> dict:
    """Per-layer figures from one traced round's spans (name -> value)."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[1], []).append(i)
    durations = {}
    for name, _, start, end, _ in spans:
        durations.setdefault(name, []).append(end - start)

    def total(name):
        return sum(durations.get(name, ()))

    out = {}
    fits = [s for s in spans if s[0] == "estimation.fit"]
    fit_ms = [1e3 * (s[3] - s[2]) for s in fits]
    nfev = sum(s[4]["iterations"] + 1 for s in fits)
    out["estimation.fit.calls"] = len(fits)
    out["estimation.fit.s"] = total("estimation.fit")
    out["estimation.fit.p50_ms"], out["estimation.fit.tail_ms"] = median_and_tail(fit_ms)
    out["estimation.fit.converged_ratio"] = (sum(s[4]["converged"] for s in fits) / len(fits)) if fits else 0.0
    out["estimation.fit.nfev"] = nfev
    out["estimation.fit.us_per_nfev"] = 1e6 * total("estimation.fit") / nfev if nfev else 0.0

    l2 = durations.get("experiments.l2_norm_mc", [])
    out["experiments.l2_norm_mc.calls"] = len(l2)
    out["experiments.l2_norm_mc.s"] = sum(l2)
    out["experiments.l2_norm_mc.p50_ms"] = 1e3 * statistics.median(l2) if l2 else 0.0

    sweeps = [i for i, s in enumerate(spans) if s[0] == "experiments.run_sweep"]
    out["experiments.run_sweep.self_s"] = sum(_self_time(spans, i, children) for i in sweeps)
    cells = []
    for i in sweeps:
        for c in children.get(i, ()):
            name, _, start, end, _ = spans[c]
            if name == "model.gen_dataset":
                cells.append(0.0)
            if name in CELL_SPANS and cells:
                cells[-1] += 1e3 * (end - start)
    out["experiments.cell.p50_ms"], out["experiments.cell.tail_ms"] = median_and_tail(cells)

    out["experiments.witness_sequence.calls"] = len(durations.get("experiments.witness_sequence", ()))
    out["experiments.witness_sequence.s"] = total("experiments.witness_sequence")
    losses = durations.get("voronoi.loss", [])
    out["voronoi.loss.calls"] = len(losses)
    out["voronoi.loss.s"] = sum(losses)
    out["voronoi.loss.p50_us"] = 1e6 * statistics.median(losses) if losses else 0.0

    trials = sum(s[4]["trials"] for s in spans if s[0] == "attention.equiv")
    out["attention.equiv.trials"] = trials
    out["attention.equiv.us_per_trial"] = 1e6 * total("attention.equiv") / trials if trials else 0.0

    out["model.gen_dataset.calls"] = len(durations.get("model.gen_dataset", ()))
    out["model.gen_dataset.s"] = total("model.gen_dataset")
    mains = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    out["cli.self_s"] = sum(_self_time(spans, i, children) for i in mains)
    return out
