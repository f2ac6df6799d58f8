"""Applies the checks in ``checks.py`` to the rounds of one benchmark run.

Inputs the checks need and that are not outputs (each sweep cell's data,
the attention bundles) come from the public ``prefixmoe`` API and the
workload seed. Returns per-round operation counts and the problems found.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import checks

ATTENTION_BUNDLES = 64


def _cell_residual_sums(op: dict, pm) -> dict:
    """The generating measure's residual sum on each cell's data."""
    model_dict = json.loads(Path(op["config"]).read_text())["model"]
    model = pm.model_from_dict(model_dict)
    sums = {}
    for n, rep in op["cells"]:
        data = pm.gen_dataset(model, n, pm.child_seed(op["seed"], n, rep, "data"))
        sums[(n, rep)] = checks.residual_sum(model_dict, data.x, data.y)
    return sums


def _sweep(op: dict, out: Path, result: dict, pm):
    """(failed cells, problems, output bytes) of one sweep op in one round."""
    if result["returncodes"] != [0]:
        return op["cells"], [f"{op['name']}: sweep exited {result['returncodes']}"], None
    try:
        outputs = ((out / "sweep_results.csv").read_text(), (out / "sweep_summary.json").read_text())
    except OSError as exc:
        return op["cells"], [f"{op['name']}: {exc}"], None
    cells, problems = checks.check_sweep(outputs[0], json.loads(outputs[1]), _cell_residual_sums(op, pm))
    return cells, [f"{op['name']}: {p}" for p in problems], outputs


def _attention_gap(seed: int, pm) -> float:
    """Worst gap of prefix_forward and prompt_forward from the softmax
    attention in ``checks`` on random bundles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ATTENTION_BUNDLES):
        heads = int(rng.choice([1, 2, 4]))
        dim = heads * int(rng.integers(1, 5))
        tokens, prompts = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        x = rng.standard_normal((tokens, dim))
        wq, wk, wv = (rng.standard_normal((heads, dim, dim // heads)) for _ in range(3))
        wo = rng.standard_normal((dim, dim))
        p_key, p_value, p = (rng.standard_normal((prompts, dim)) for _ in range(3))
        bundle = pm.AttentionBundle(x, wq, wk, wv, wo)
        got = pm.prefix_forward(bundle, pm.PromptSet.prefix(p_key, p_value))
        want = checks.softmax_attention(x, np.vstack([p_key, x]), np.vstack([p_value, x]), wq, wk, wv, wo)
        worst = max(worst, checks.attention_gap(got, want))
        got = pm.prompt_forward(bundle, pm.PromptSet.prompt(p))
        want = checks.softmax_attention(np.vstack([x, p]), np.vstack([p, x]), np.vstack([p, x]), wq, wk, wv, wo)
        worst = max(worst, checks.attention_gap(got, want))
    return worst


def _check_op(op: dict, out: Path, result: dict, pm) -> list:
    """Problems with one round's output of a checks-workload operation."""
    if op["kind"] == "witness_scan":
        weight = math.exp(op["truth"]["log_weights"][0])
        return [p for r in op["rs"] for p in checks.check_witness_losses(result["losses"][str(r)], weight, r, op["indices"])]
    if any(code != 0 for code in result["returncodes"]):
        return [f"exit codes {result['returncodes']}"]
    if op["kind"] == "equiv":
        cfg = json.loads(Path(op["config"]).read_text())
        report = json.loads((out / "equiv" / "equiv_report.json").read_text())
        problems = []
        gap = _attention_gap(op["seed"], pm)
        if not gap <= checks.ATTENTION_TOL:
            problems.append(f"attention forward off by {gap!r}")
        if report["n_trials"] != cfg["trials"] or not report["passed"]:
            problems.append(f"equivalence report {report}")
        worst = max(report["max_abs_diff_prefix"], report["max_abs_diff_prompt"])
        if not worst <= cfg["tolerance"]:
            problems.append(f"equivalence gap {worst!r} above {cfg['tolerance']}")
        return problems
    if op["kind"] == "witness":
        cfg = json.loads(Path(op["config"]).read_text())
        weight = math.exp(cfg["model"]["measure"]["log_weights"][0])
        table = (out / "witness" / "witness_table.csv").read_text()
        return checks.check_witness_table(table, weight, cfg["r"], cfg["sample_sizes"])
    if op["kind"] == "fit_flow":
        gen = json.loads(Path(op["gen_config"]).read_text())
        data = np.loadtxt(out / "fit" / f"{gen.get('name', 'dataset')}.csv", delimiter=",", skiprows=1, ndmin=2)
        payload = json.loads((out / "fit" / "fit_result.json").read_text())
        return checks.check_fit(payload, gen["model"], data[:, :-1], data[:, -1])
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def verify(rounds) -> tuple:
    """(attempted, failed, problems) over ``rounds``, a list of (round
    directory, plan, worker result). ``problems`` lists what makes the run
    incorrect as a whole, including rounds of one plan whose sweeps wrote
    different bytes; failed operations are counted, not listed there."""
    import prefixmoe as pm

    attempted = failed = 0
    problems = []
    first_outputs = {}
    for round_dir, plan, result in rounds:
        for op, op_result in zip(plan["ops"], result["ops"]):
            if op["kind"] == "sweep":
                cells, op_problems, outputs = _sweep(op, round_dir / op["name"], op_result, pm)
                attempted += len(op["cells"])
                failed += len(cells)
                problems += op_problems
                key = (op["name"], op["seed"])
                if outputs is not None and first_outputs.setdefault(key, outputs) != outputs:
                    problems.append(f"{op['name']}: {round_dir.name} wrote other bytes than an earlier round")
                continue
            try:
                op_problems = _check_op(op, round_dir, op_result, pm)
            except (OSError, KeyError, ValueError) as exc:
                op_problems = [repr(exc)]
            attempted += 1
            if op_problems:
                failed += 1
                print(f"perfbench: {round_dir.name} {op['name']} failed: {op_problems[:3]}", file=sys.stderr)
    return attempted, failed, problems
