"""End-to-end command-line behavior: configs, outputs, exit codes."""

import json
import math
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prefixmoe import PretrainedBank, cli, model_to_dict, voronoi
from prefixmoe._util import to_json
from prefixmoe.cli import _load_config, main
from prefixmoe.estimation import FitResult

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the command of each bundled config; every other bundled config is a sweep's
COMMANDS = {"equiv.json": "equiv", "witness.json": "witness", "gen_linear.json": "gen", "fit_linear.json": "fit"}


def command_of(name):
    return COMMANDS.get(name, "sweep")


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def small_model():
    return {
        "bank": to_json(PretrainedBank.random(2, 2, seed=11)),
        "proj": {"b": [[1.1, 0.2], [-0.1, 1.0]], "c": [1.5, -1.7]},
        "measure": {"variant": "linear_shared", "log_weights": [0.0, 0.3],
                    "prompts": [[1.2, -0.8], [-1.0, 0.9]]},
        "noise_sd": 0.0,
    }


# -----------------------------------------------------------------------
# equiv


def test_equiv_passes_and_writes_report(tmp_path):
    cfg = write_config(tmp_path, "equiv.json", {"version": 2, "trials": 5, "seed": 3})
    out = tmp_path / "out"
    assert main(["equiv", "--config", str(cfg), "--output-dir", str(out)]) == 0
    report = json.loads((out / "equiv_report.json").read_text())
    assert report["passed"] and report["n_trials"] == 5
    assert report["max_abs_diff_prefix"] <= 1e-9
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "equiv" and "config_hash" in manifest


def test_equiv_zero_tolerance_fails_with_exit_1(tmp_path):
    cfg = write_config(tmp_path, "equiv.json", {"version": 2, "trials": 5, "seed": 3, "tolerance": 0.0})
    out = tmp_path / "out"
    assert main(["equiv", "--config", str(cfg), "--output-dir", str(out)]) == 1
    report = json.loads((out / "equiv_report.json").read_text())
    assert report["max_abs_diff_prefix"] > 0


def test_equiv_zero_trials_is_empty_success(tmp_path):
    cfg = write_config(tmp_path, "equiv.json", {"version": 2, "trials": 0, "seed": 3})
    out = tmp_path / "out"
    assert main(["equiv", "--config", str(cfg), "--output-dir", str(out)]) == 0
    report = json.loads((out / "equiv_report.json").read_text())
    assert report["max_abs_diff_prefix"] == 0.0


# -----------------------------------------------------------------------
# config validation


def test_invalid_json_reports_line_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 2,\n  "trials": }\n')
    assert main(["equiv", "--config", str(bad), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad.json:2" in err


def test_missing_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "equiv.json", {"version": 2, "seed": 3})
    assert main(["equiv", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
    assert "trials" in capsys.readouterr().err


def test_wrong_version_exits_2(tmp_path, capsys):
    # a float is not the integer 2, though it compares equal to it, and a
    # version-1 config is told what to change
    errors = []
    for version in (1, True, 2.0):
        cfg = write_config(tmp_path, "equiv.json", {"version": version, "trials": 1, "seed": 3})
        assert main(["equiv", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
        errors.append(capsys.readouterr().err)
    assert all("'version'" in err for err in errors)
    assert "drop 'setting'" in errors[0] and "'fit.init.kind'" in errors[0]
    assert not (tmp_path / "o" / "equiv_report.json").exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["equiv", "--config", str(tmp_path / "nope.json"), "--output-dir", str(tmp_path)]) == 2


def _put_huge_integer(path, key):
    # an integer of 5,001 digits; json.dumps cannot write it either, so it
    # goes into the text, at the key placed first
    data = json.loads(path.read_text())
    text = json.dumps({key: 0, **{k: v for k, v in data.items() if k != key}})
    path.write_text(text.replace(f'"{key}": 0', f'"{key}": 1' + "0" * 5000, 1))


def _huge_trials(tmp_path, out):
    path = write_config(tmp_path, "equiv.json", json.loads((CONFIGS / "equiv.json").read_text()))
    _put_huge_integer(path, "trials")
    return ["equiv", "--config", str(path), "--output-dir", str(out)], path


def _huge_sidecar_seed(tmp_path, out):
    assert main(["gen", "--config", str(CONFIGS / "gen_linear.json"), "--output-dir", str(out)]) == 0
    meta = out / "linear_dataset.meta.json"
    _put_huge_integer(meta, "seed")
    return ["fit", "--config", str(CONFIGS / "fit_linear.json"), "--output-dir", str(out), "--force"], meta


def _config_not_utf8(tmp_path, out):
    path = tmp_path / "equiv.json"
    path.write_bytes(b'{"version": 2, "trials": 1, "seed": \xff}')
    return ["equiv", "--config", str(path), "--output-dir", str(out)], path


@pytest.mark.parametrize(
    "make, reason",
    [(_huge_trials, "4300"), (_huge_sidecar_seed, "4300"), (_config_not_utf8, "utf-8")],
    ids=["config-huge-integer", "sidecar-huge-integer", "config-not-utf8"],
)
def test_json_that_python_cannot_read_exits_2_naming_the_file(tmp_path, capsys, make, reason):
    # json refuses an integer literal of more than 4,300 digits, and text
    # that is not UTF-8 cannot be decoded; neither is a JSONDecodeError
    argv, named = make(tmp_path, tmp_path / "out")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {named}: " in err and reason in err


# -----------------------------------------------------------------------
# gen + fit


def test_gen_then_fit_recovers_truth_noiselessly(tmp_path):
    gen_cfg = write_config(
        tmp_path, "gen.json", {"version": 2, "model": small_model(), "n": 400, "seed": 5}
    )
    out = tmp_path / "run"
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out)]) == 0
    assert (out / "dataset.csv").is_file() and (out / "dataset.meta.json").is_file()

    fit_cfg = write_config(
        tmp_path,
        "fit.json",
        {
            "version": 2,
            "dataset": "dataset.csv",
            "seed": 7,
            "fit": {"atom_budget": 2, "scale": 0.0},
        },
    )
    assert main(["fit", "--config", str(fit_cfg), "--output-dir", str(out), "--force"]) == 0
    payload = json.loads((out / "fit_result.json").read_text())
    assert payload["voronoi_loss_vs_reference"] <= 1e-8
    assert payload["fit"]["converged"]


def test_fit_grad_check_section(tmp_path):
    gen_cfg = write_config(
        tmp_path, "gen.json", {"version": 2, "model": small_model(), "n": 60, "seed": 5}
    )
    out = tmp_path / "run"
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out)]) == 0
    fit_cfg = write_config(
        tmp_path,
        "fit.json",
        {
            "version": 2,
            "dataset": "dataset.csv",
            "seed": 7,
            "fit": {
                "atom_budget": 2,
                "scale": 0.1,
                "max_iters": 500,
            },
        },
    )
    assert main(["fit", "--config", str(fit_cfg), "--output-dir", str(out), "--force", "--grad-check"]) == 0
    payload = json.loads((out / "fit_result.json").read_text())
    assert payload["gradient_check"]["max_rel_error"] <= 1e-5


def test_failed_fit_writes_its_result_and_says_why(tmp_path, capsys, monkeypatch):
    def failed_fit(dataset, bank, proj, reference, config, seed):
        return FitResult(reference, math.nan, 0, False, math.nan, failed=True, failure_reason="a non-finite start")

    out = tmp_path / "run"
    assert main(["gen", "--config", str(CONFIGS / "gen_linear.json"), "--output-dir", str(out)]) == 0
    monkeypatch.setattr("prefixmoe.cli.fit", failed_fit)
    capsys.readouterr()
    assert main(["fit", "--config", str(CONFIGS / "fit_linear.json"), "--output-dir", str(out), "--force"]) == 1
    assert capsys.readouterr().err == "fit failure: a non-finite start\n"
    payload = json.loads((out / "fit_result.json").read_text())
    assert payload["fit"]["failed"] and "voronoi_loss_vs_reference" not in payload


def test_fit_rejects_optimizer_keys_other_than_max_iters(tmp_path, capsys):
    # max_iters is the solver's only setting
    data = json.loads((CONFIGS / "fit_linear.json").read_text())
    data["fit"]["learning_rate"] = 0.02
    fit_cfg = write_config(tmp_path, "fit.json", data)
    out = tmp_path / "run"
    assert main(["fit", "--config", str(fit_cfg), "--output-dir", str(out)]) == 2
    assert "unknown field 'learning_rate'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block", ["fit", "init", "optimizer"])
def test_fit_block_that_is_not_an_object_exits_2(tmp_path, capsys, block):
    # the fit block must be an object; the version-1 init and optimizer
    # blocks inside it are unknown fields now that it is flat
    data = json.loads((CONFIGS / "fit_linear.json").read_text())
    if block == "fit":
        data["fit"] = 5
    else:
        data["fit"][block] = {"scale": 0.1} if block == "init" else {"max_iters": 500}
    fit_cfg = write_config(tmp_path, "fit.json", data)
    out = tmp_path / "run"
    assert main(["fit", "--config", str(fit_cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("must be a JSON object" if block == "fit" else f"fit: unknown field {block!r}") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "block, key, value",
    [
        ((), "max_iters", 500),  # belongs in the fit block
        (("fit",), "activations", ["tanh", "tanh"]),
        (("fit",), "restarts", 16),
        (("fit",), "kind", "multistart"),
        (("fit",), "seed", 3),  # each fit's seed comes from the top-level seed
    ],
    ids=["max_iters", "activations", "restarts", "multistart", "seed"],
)
def test_fit_rejects_unknown_fit_and_init_fields(tmp_path, capsys, block, key, value):
    data = json.loads((CONFIGS / "fit_linear.json").read_text())
    (data["fit"] if block else data)[key] = value
    fit_cfg = write_config(tmp_path, "fit.json", data)
    out = tmp_path / "run"
    assert main(["fit", "--config", str(fit_cfg), "--output-dir", str(out)]) == 2
    assert f"unknown field {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("equiv.json", "tolerence", 1e-30),
        ("smoke_sweep.json", "voronoi_R", 1e-30),
        ("witness.json", "mc_sample", 1e-30),  # only the exact retired key is tolerated
        ("gen_linear.json", "nmae", 1e-30),
        ("fit_linear.json", "setting", 1e-30),  # derived from the dataset's model
        # the trial sizes of equiv are constants of the attention module
        ("equiv.json", "max_tokens", 8),
        ("equiv.json", "max_dim", 16),
        ("equiv.json", "heads", [1, 2]),
        ("equiv.json", "max_prompts", 4),
    ],
    ids=["equiv", "sweep", "witness", "gen", "fit", "equiv-max_tokens", "equiv-max_dim", "equiv-heads",
         "equiv-max_prompts"],
)
def test_misspelled_top_level_key_exits_2(tmp_path, capsys, name, key, value):
    data = json.loads((CONFIGS / name).read_text())
    data[key] = value
    cfg = write_config(tmp_path, name, data)
    out = tmp_path / "out"
    assert main([command_of(name), "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert f"unknown field {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, path, value, named",
    [
        ("fit_linear.json", ("dataset",), 5, "dataset"),
        ("fit_linear.json", ("fit", "scale"), "abc", "scale"),
        ("fit_linear.json", ("fit", "atom_budget"), "x", "atom_budget"),
        ("witness.json", ("sample_sizes",), 5, "sample_sizes"),
        ("smoke_sweep.json", ("replications",), "two", "replications"),
        ("equiv.json", ("trials",), None, "trials"),
        ("gen_linear.json", ("model", "noise_sd"), "abc", "noise_sd"),
        ("gen_linear.json", ("model", "bank"), 5, "bank"),
        ("gen_linear.json", ("model", "measure", "prompts"), "x", "prompts"),
        # json reads the NaN and Infinity literals that json.dumps writes
        ("gen_linear.json", ("model", "noise_sd"), float("nan"), "noise_sd"),
        ("smoke_sweep.json", ("fit", "box_bound"), float("inf"), "box_bound"),
        ("fit_linear.json", ("fit", "scale"), float("nan"), "scale"),
        ("equiv.json", ("tolerance",), float("nan"), "tolerance"),
        ("equiv.json", ("tolerance",), 10**400, "tolerance"),
        # sizes below 1 are refused when the config loads, before any cell runs
        ("witness.json", ("sample_sizes",), [0, 10], "sample_sizes"),
        ("smoke_sweep.json", ("sample_sizes",), [0, 90, 130], "sample_sizes"),
    ],
    ids=[
        "fit-dataset", "fit-scale", "fit-atom_budget", "witness-sample_sizes", "sweep-replications", "equiv-trials",
        "gen-noise_sd", "gen-bank", "gen-measure-prompts", "gen-noise_sd-nan",
        "sweep-box_bound-inf", "fit-scale-nan", "equiv-tolerance-nan",
        "equiv-tolerance-beyond-float", "witness-sample_sizes-zero", "sweep-sample_sizes-zero",
    ],
)
def test_config_field_of_the_wrong_type_exits_2(tmp_path, capsys, name, path, value, named):
    data = json.loads((CONFIGS / name).read_text())
    block = data
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = value
    cfg = write_config(tmp_path, name, data)
    out = tmp_path / "out"
    command = command_of(name)
    if command == "fit":
        assert main(["gen", "--config", str(CONFIGS / "gen_linear.json"), "--output-dir", str(out)]) == 0
    assert main([command, "--config", str(cfg), "--output-dir", str(out), "--force"]) == 2
    assert f"field {named!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key, value",
    [
        ((), "input_lw", 0.5),
        (("bank",), "gate_mat", 0.5),
        (("bank",), "random", {"n_experts": 2, "dim": 2, "seed": 11}),
        (("proj",), "d", 0.5),
        (("proj",), "random", {"dim": 2, "seed": 8}),
        ((), "input_law", {"low": -1.0, "high": 1.0}),  # the covariates are uniform on [-1, 1]
        (("measure",), "act1", 0.5),  # only the latent variant has activations
        (("bank",), "expert_form", "linear"),
    ],
    ids=["model", "bank", "bank-random", "proj", "proj-random", "input_law", "measure-act1", "bank-expert_form"],
)
def test_unknown_model_key_exits_2(tmp_path, capsys, block, key, value):
    data = json.loads((CONFIGS / "gen_linear.json").read_text())
    target = data["model"]
    for name in block:
        target = target[name]
    if key == "random":  # a seeded generator was once the whole block
        target.clear()
    target[key] = value
    cfg = write_config(tmp_path, "gen.json", data)
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert f"unknown field {key!r}" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def _break_csv(csv_path, text):
    csv_path.write_text(text)


def _break_meta(csv_path, text):
    meta = csv_path.with_name(csv_path.stem + ".meta.json")
    if text is None:
        meta.unlink()
    else:
        meta.write_text(text)


@pytest.mark.parametrize(
    "damage, text, named",
    [
        (_break_csv, "x_1,x_2,y\n0.5,abc,1.0\n", "linear_dataset.csv"),
        (_break_csv, "", "linear_dataset.csv"),
        (_break_csv, "x_1,x_2,y\n", "linear_dataset.csv"),
        (_break_csv, "x_1,x_2,y\n0.5,0.25,nan\n", "linear_dataset.csv"),
        (_break_csv, "x_1,x_2,x_3,y\n0.5,0.25,0.1,1.0\n", "linear_dataset.csv"),  # the model has dim 2
        (_break_csv, "x_1,x_3,y\n0.5,0.25,1.0\n", "linear_dataset.csv"),
        (_break_csv, "x_1,x_2,y\n# a note\n0.5,0.25,1.0\n", "linear_dataset.csv"),
        (_break_meta, None, "linear_dataset.meta.json"),
        (_break_meta, "{not json", "linear_dataset.meta.json"),
        (_break_meta, "[1, 2]", "linear_dataset.meta.json"),
    ],
    ids=["non-numeric-cell", "empty-csv", "header-only", "nan-response", "wrong-width", "wrong-header",
         "comment-line", "missing-sidecar", "sidecar-not-json", "sidecar-a-list"],
)
def test_fit_on_a_malformed_dataset_exits_2(tmp_path, capsys, damage, text, named):
    out = tmp_path / "out"
    assert main(["gen", "--config", str(CONFIGS / "gen_linear.json"), "--output-dir", str(out)]) == 0
    damage(out / "linear_dataset.csv", text)
    capsys.readouterr()
    assert main(["fit", "--config", str(CONFIGS / "fit_linear.json"), "--output-dir", str(out), "--force"]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "fit_result.json").exists()


def test_unknown_key_in_the_sidecar_model_names_the_sidecar(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen", "--config", str(CONFIGS / "gen_linear.json"), "--output-dir", str(out)]) == 0
    meta_path = out / "linear_dataset.meta.json"
    meta = json.loads(meta_path.read_text())
    # a key no model has, and ones that sidecars written before their removal hold
    for block, key, value, where in (
        (meta["model"], "bogus", "linear", "model"),
        (meta["model"]["bank"], "expert_form", "linear", "model.bank"),
        (meta["model"], "input_law", {"low": -1.0, "high": 1.0}, "model"),
    ):
        block[key] = value
        meta_path.write_text(json.dumps(meta))
        del block[key]
        capsys.readouterr()
        assert main(["fit", "--config", str(CONFIGS / "fit_linear.json"), "--output-dir", str(out), "--force"]) == 2
        assert f"{meta_path}: {where}: unknown field {key!r}" in capsys.readouterr().err
        assert not (out / "fit_result.json").exists()


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("trials", -1, "trials"),
        ("tolerance", -1, "tolerance"),
    ],
    ids=["trials-negative", "tolerance-negative"],
)
def test_equiv_field_out_of_range_exits_2(tmp_path, capsys, key, value, named):
    data = json.loads((CONFIGS / "equiv.json").read_text())
    data[key] = value
    cfg = write_config(tmp_path, "equiv.json", data)
    out = tmp_path / "out"
    assert main(["equiv", "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "equiv_report.json").exists()


def _set(path, value):
    def edit(data):
        block = data
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
    return edit


def _coincident_prompts(data):
    # two tied atoms with one prompt share one projected key
    prompts = data["model"]["measure"]["prompts"]
    prompts[1] = prompts[0]


@pytest.mark.parametrize(
    "name, edit, named, flags",
    [
        ("smoke_sweep.json", _set(("sample_sizes",), [0, 90, 130]), "sample_sizes", []),
        ("smoke_sweep.json", _coincident_prompts, "identifiability", []),
        ("smoke_sweep.json", _coincident_prompts, "identifiability", ["--dry-run"]),
        ("witness.json", _set(("r",), 0), "'r'", []),
        ("equiv.json", _set(("trials",), -1), "'trials'", []),
        ("gen_linear.json", _set(("n",), 0), "'n'", []),
        ("gen_linear.json", _set(("model", "bank", "gate_biases"), [0.0]), "model.bank: gate_biases", []),
    ],
    ids=["sweep-sample_sizes", "sweep-coincident-prompts", "sweep-coincident-prompts-dry-run", "witness-r",
         "equiv-trials", "gen-n", "gen-gate_biases"],
)
def test_a_value_its_schema_refuses_names_the_config_and_writes_nothing(tmp_path, capsys, name, edit, named, flags):
    data = json.loads((CONFIGS / name).read_text())
    edit(data)
    cfg = write_config(tmp_path, name, data)
    out = tmp_path / "out"
    assert main([command_of(name), "--config", str(cfg), "--output-dir", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count(str(cfg)) == 1 and named in err
    assert not out.exists()


def test_fit_result_does_not_depend_on_output_dir(tmp_path):
    gen_cfg = write_config(
        tmp_path, "gen.json", {"version": 2, "model": small_model(), "n": 60, "seed": 5}
    )
    fit_cfg = write_config(
        tmp_path,
        "fit.json",
        {
            "version": 2,
            "dataset": "dataset.csv",
            "seed": 7,
            "fit": {"atom_budget": 2, "scale": 0.1},
        },
    )
    outs = [tmp_path / "a", tmp_path / "elsewhere" / "b"]
    for out in outs:
        assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out)]) == 0
        assert main(["fit", "--config", str(fit_cfg), "--output-dir", str(out), "--force"]) == 0
    a, b = ((out / "fit_result.json").read_bytes() for out in outs)
    assert a == b
    assert json.loads(a)["dataset"] == "dataset.csv"


def test_outputs_are_not_overwritten_without_force(tmp_path):
    gen_cfg = write_config(
        tmp_path, "gen.json", {"version": 2, "model": small_model(), "n": 20, "seed": 5}
    )
    out = tmp_path / "run"
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out)]) == 0
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out)]) == 2
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out), "--force"]) == 0


def _never_called(*args, **kwargs):
    raise AssertionError("the output guard should have refused before any work")


def test_rerun_into_same_directory_refuses_before_work(tmp_path, monkeypatch):
    gen_cfg = write_config(
        tmp_path, "gen.json", {"version": 2, "model": small_model(), "n": 40, "seed": 5}
    )
    fit_cfg = write_config(
        tmp_path,
        "fit.json",
        {
            "version": 2,
            "dataset": "dataset.csv",
            "seed": 7,
            "fit": {"atom_budget": 2, "scale": 0.0},
        },
    )
    sweep_cfg = write_config(tmp_path, "sweep.json", sweep_config())
    equiv_cfg = write_config(tmp_path, "equiv.json", {"version": 2, "trials": 2, "seed": 3})
    witness_cfg = write_config(tmp_path, "witness.json", witness_config())
    runs = {
        "gen": (gen_cfg, tmp_path / "run", "gen_dataset"),
        "fit": (fit_cfg, tmp_path / "run", "fit"),
        "sweep": (sweep_cfg, tmp_path / "sweep", "run_sweep"),
        "equiv": (equiv_cfg, tmp_path / "equiv", "run_equivalence_trials"),
        "witness": (witness_cfg, tmp_path / "witness", "witness_table"),
    }
    for command, (cfg, out, _) in runs.items():
        assert main([command, "--config", str(cfg), "--output-dir", str(out), "--force"]) == 0
    for command, (cfg, out, work) in runs.items():
        monkeypatch.setattr(f"prefixmoe.cli.{work}", _never_called)
        assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 2, command


def test_gen_is_byte_identical_across_runs(tmp_path):
    gen_cfg = write_config(
        tmp_path, "gen.json", {"version": 2, "model": small_model(), "n": 30, "seed": 5}
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out_a)]) == 0
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out_b)]) == 0
    assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()
    assert (out_a / "dataset.meta.json").read_bytes() == (out_b / "dataset.meta.json").read_bytes()


def test_seed_override_changes_dataset(tmp_path):
    gen_cfg = write_config(
        tmp_path, "gen.json", {"version": 2, "model": small_model(), "n": 30, "seed": 5}
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out_a)]) == 0
    assert main(["gen", "--config", str(gen_cfg), "--output-dir", str(out_b), "--seed", "99"]) == 0
    assert (out_a / "dataset.csv").read_bytes() != (out_b / "dataset.csv").read_bytes()
    manifest = json.loads((out_b / "run_manifest.json").read_text())
    assert manifest["seed_override"] == 99


# -----------------------------------------------------------------------
# witness


def witness_config():
    return {
        "version": 2,
        "model": {
            "bank": to_json(PretrainedBank.random(2, 3, seed=55)),
            "proj": {"b": [[1.2, 0.2, -0.1], [0.0, 1.1, 0.3], [-0.2, 0.1, 1.3]],
                     "c": [0.9, -0.7, 0.5]},
            "measure": {"variant": "non_shared", "log_weights": [0.0, -0.4],
                        "p_key": [[0.3, -0.2, 0.5], [-1.1, 0.8, -0.4]],
                        "p_value": [[0.6, 0.1, -0.3], [-0.5, -0.9, 0.7]]},
            "noise_sd": 0.1,
        },
        "r": 1,
        "sample_sizes": [10, 100, 1000],
        "seed": 12,
    }


def test_witness_table_and_decreasing_ratio(tmp_path):
    cfg = write_config(tmp_path, "witness.json", witness_config())
    out = tmp_path / "out"
    assert main(["witness", "--config", str(cfg), "--output-dir", str(out)]) == 0
    summary = json.loads((out / "witness_summary.json").read_text())
    assert summary["agreement"]
    assert summary["max_abs_disagreement"] <= 1e-12
    assert summary["ratios_strictly_decreasing"]
    table = (out / "witness_table.csv").read_text().splitlines()
    assert table[0] == "n,closed_form,computed,l2,ratio"
    assert len(table) == 4


def test_a_nan_witness_loss_fails_with_exit_1(tmp_path, capsys, monkeypatch):
    loss_d1r = voronoi.loss_d1r
    calls = []

    def second_nan(fitted, truth, r):
        # one NaN loss, at the middle sample size, between finite ones
        calls.append(None)
        return math.nan if len(calls) == 2 else loss_d1r(fitted, truth, r)

    monkeypatch.setattr(voronoi, "loss_d1r", second_nan)
    cfg = write_config(tmp_path, "witness.json", witness_config())
    out = tmp_path / "out"
    assert main(["witness", "--config", str(cfg), "--output-dir", str(out)]) == 1
    assert "witness failure: computed loss disagrees with the closed form by nan" in capsys.readouterr().err
    summary = json.loads((out / "witness_summary.json").read_text())
    assert math.isnan(summary["rows"][1]["computed"]) and math.isnan(summary["max_abs_disagreement"])
    assert summary["agreement"] is False


def test_witness_ignores_mc_samples_with_a_note(tmp_path, capsys):
    plain = write_config(tmp_path, "plain.json", witness_config())
    old = write_config(tmp_path, "old.json", {**witness_config(), "mc_samples": 4000})
    assert main(["witness", "--config", str(plain), "--output-dir", str(tmp_path / "a")]) == 0
    assert "mc_samples" not in capsys.readouterr().err
    assert main(["witness", "--config", str(old), "--output-dir", str(tmp_path / "b")]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'mc_samples' is ignored" in err
    for name in ("witness_table.csv", "witness_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_witness_rejects_empty_sample_sizes(tmp_path, capsys):
    data = witness_config()
    data["sample_sizes"] = []
    cfg = write_config(tmp_path, "witness.json", data)
    out = tmp_path / "o"
    assert main(["witness", "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert "sample_sizes" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_witness_rejects_r_zero(tmp_path):
    data = witness_config()
    data["r"] = 0
    cfg = write_config(tmp_path, "witness.json", data)
    assert main(["witness", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2


def test_witness_rejects_shared_truth(tmp_path):
    data = witness_config()
    data["model"]["measure"] = {"variant": "linear_shared", "log_weights": [0.0],
                                "prompts": [[1.0, 0.0, 0.0]]}
    cfg = write_config(tmp_path, "witness.json", data)
    assert main(["witness", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2


# -----------------------------------------------------------------------
# sweep


def sweep_config():
    model = small_model()
    model["noise_sd"] = 0.1
    return {
        "version": 2,
        "model": model,
        "sample_sizes": [50, 80],
        "replications": 2,
        "seed": 13,
        "fit": {"atom_budget": 3, "scale": 0.1,
                "max_iters": 300},
    }


def test_sweep_dry_run_prints_plan_without_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "sweep.json", sweep_config())
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(out), "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert len(plan["cells"]) == 4
    assert set(plan["cells"][0]) == {"n", "rep", "data_seed", "fit_seed"}
    assert not out.exists()


def test_sweep_writes_csv_summary_and_plots(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", sweep_config())
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(out)]) == 0
    lines = (out / "sweep_results.csv").read_text().splitlines()
    assert lines[0] == "setting,n,rep,loss_name,loss_value,l2_error,objective,converged"
    assert len(lines) == 5
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["exclusions"] == 0
    assert summary["loss_name"] == "d2"
    assert "estimator_note" in summary
    assert (out / "plot_d2.dat").is_file() and (out / "plot_l2.dat").is_file()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    assert set(manifest["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert manifest["pool_size"] == min(manifest["affinity_cpus"], 4)
    if manifest["pool_size"] == 1:
        assert manifest["pool_start_method"] is None
    else:
        forkserver = "forkserver" in multiprocessing.get_all_start_methods()
        assert manifest["pool_start_method"] == ("forkserver" if forkserver else "spawn")


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", sweep_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(out_b)]) == 0
    for name in ("sweep_results.csv", "sweep_summary.json", "plot_d2.dat", "plot_l2.dat"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_failed_cell_in_a_worker_exits_2_as_in_process(tmp_path, capfd):
    # fit refuses a latent measure whose value-side activation is linear;
    # the error is raised in a pool worker and must reach main unchanged
    data = json.loads((CONFIGS / "neural_shared_rate.json").read_text())
    data["model"]["measure"]["act2"] = "identity"
    data.update(sample_sizes=[50, 80], replications=2)
    cfg = write_config(tmp_path, "sweep.json", data)
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert capfd.readouterr().err == (
        "error: the value-side activation has identically zero second derivative; "
        "estimation requires a curved activation such as tanh\n"
    )
    assert multiprocessing.active_children() == []


# -----------------------------------------------------------------------
# bundled configs stay loadable


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.json")))
def test_bundled_configs_parse(name):
    # each shipped config is read as its command reads it, so a stray key,
    # a wrong type or a config no command accepts fails here
    data = json.loads((CONFIGS / name).read_text())
    assert data["version"] == 2
    cfg = _load_config(CONFIGS / name, cli.COMMANDS[command_of(name)].schema, None)
    # a model reads back as written, so a sweep summary's spec.truth and a
    # dataset sidecar's model equal the config's block
    if "model" in data:
        assert model_to_dict(cfg.model) == data["model"]


def test_bundled_smoke_sweep_runs_deterministically(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = str(CONFIGS / "smoke_sweep.json")
    assert main(["sweep", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert main(["sweep", "--config", cfg, "--output-dir", str(out_b)]) == 0
    for name in ("sweep_results.csv", "sweep_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# -----------------------------------------------------------------------
# start-up


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_importing_the_cli_does_not_import_slow_scipy_modules(module):
    # scipy.stats gave only the t quantile, which scipy.special has; only a
    # fit needs scipy.optimize, and it imports the solver itself
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import prefixmoe.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
