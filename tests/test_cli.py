import errno
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from surrotest import series, spectral
from surrotest.cli import build_parser, main, resolve_config
from surrotest.dataset import save_series
from surrotest.dynsys import make_realizations


def run_cli(*argv):
    return main([str(a) for a in argv])


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


TINY = ["--L", "16", "--N", "6", "--epochs", "3", "--hidden-size", "3",
        "--max-iter", "20"]

STAGES = ("generate", "surrogate", "dataset", "train", "report")


def count_iaaft_calls(monkeypatch) -> list:
    """Record one entry per IAAFT surrogate computed from now on."""
    calls = []
    real = spectral.iaaft_surrogate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "iaaft_surrogate", counting)
    return calls


def without_out_line(snap: dict) -> dict:
    """Snapshot with the frozen config's own output path dropped."""
    frozen = snap["config.frozen.json"].split(b"\n")
    snap = dict(snap)
    snap["config.frozen.json"] = b"\n".join(
        line for line in frozen if not line.startswith(b'  "out": '))
    return snap


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_shape_contract(tmp_path):
    out = tmp_path / "run"
    assert run_cli("generate", "--system", "logistic", "--L", "32",
                   "--N", "4", "--seed", "1", "--out", out) == 0
    rows = (out / "realizations.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    assert all(len(r.split(",")) == 32 for r in rows)
    meta = json.loads((out / "realizations.meta.json").read_text())
    assert meta["L"] == 32 and meta["N"] == 4


def test_generate_unknown_system_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("generate", "--system", "brusselator", "--out", tmp_path)


def test_generate_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("generate", "--system", "henon", "--L", "16",
                       "--N", "5", "--seed", "7", "--out", out) == 0
    assert (out_a / "realizations.csv").read_bytes() == \
        (out_b / "realizations.csv").read_bytes()


def test_generate_validation_error_before_work(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("generate", "--system", "logistic", "--L", "0",
                   "--N", "4", "--out", out) == 2
    assert "error[ParameterError]" in capsys.readouterr().err
    assert not out.exists()


def test_generate_writes_only_inside_outdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "only-here"
    assert run_cli("generate", "--system", "logistic", "--L", "16",
                   "--N", "3", "--out", out) == 0
    outside = [p for p in tmp_path.rglob("*")
               if p.is_file() and out not in p.parents]
    assert outside == []


# ---------------------------------------------------------------------------
# stage chaining
# ---------------------------------------------------------------------------

def test_surrogate_and_dataset_stages(tmp_path):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--seed", "3", "--out", out] + TINY
    assert run_cli("generate", *base) == 0
    assert run_cli("surrogate", *base) == 0
    report = json.loads((out / "surrogate_report.json").read_text())
    assert len(report["pairs"]) == 6
    assert all("discrepancy" in p for p in report["pairs"])

    surr_rows = [np.array([float(v) for v in line.split(",")])
                 for line in (out / "surrogates.csv").read_text().strip().splitlines()]
    orig_rows = [np.array([float(v) for v in line.split(",")])
                 for line in (out / "realizations.csv").read_text().strip().splitlines()]
    for o, s in zip(orig_rows, surr_rows):
        assert np.array_equal(np.sort(o), np.sort(s))

    assert run_cli("dataset", *base) == 0
    lines = (out / "dataset.csv").read_text().strip().splitlines()
    assert lines[0].startswith("pair_id,label,split,s_0")
    assert len(lines) == 1 + 12


def test_train_and_report_stages(tmp_path, capsys):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--seed", "4", "--out", out] + TINY
    assert run_cli("generate", *base) == 0
    assert run_cli("dataset", *base) == 0
    assert run_cli("train", *base) == 0
    assert (out / "model.json").exists()
    assert (out / "train_report.csv").exists()
    assert run_cli("report", *base) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    for key in ("representative_epoch", "representative_accuracy",
                "p_value", "reject_random_guess", "test_items"):
        assert key in verdict


@pytest.mark.parametrize("key, value, error", [
    ("n_test_items", "4", "ParseError"),
    ("representative_accuracy", "0.5", "ParseError"),
    ("representative_epoch", 2.0, "ParseError"),
    ("seeds", [], "ParseError"),
    ("representative_epoch", None, "ParameterError"),
])
def test_report_rejects_bad_sidecar(tmp_path, capsys, key, value, error):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--seed", "4", "--out", out] + TINY
    assert run_cli("pipeline", *base) == 0
    sidecar = out / "train_report.meta.json"
    meta = json.loads(sidecar.read_text())
    meta[key] = value
    sidecar.write_text(json.dumps(meta))
    assert run_cli("report", *base) == 2
    err = capsys.readouterr().err
    assert f"error[{error}]" in err
    assert (str(sidecar) if error == "ParseError"
            else "representative epoch") in err


@pytest.mark.parametrize("system", ["henon", "ar1"])
def test_staged_run_matches_pipeline(tmp_path, system):
    flags = ["--system", system, "--seed", "13"] + TINY
    for stage in STAGES:
        assert run_cli(stage, *flags, "--out", tmp_path / "staged") == 0
    assert run_cli("pipeline", *flags, "--out", tmp_path / "piped") == 0
    staged = without_out_line(snapshot(tmp_path / "staged"))
    piped = without_out_line(snapshot(tmp_path / "piped"))
    assert staged.keys() == piped.keys()
    for name in staged:
        assert staged[name] == piped[name], name


def test_staged_run_computes_each_surrogate_once(tmp_path, monkeypatch):
    flags = ["--system", "logistic", "--seed", "14", "--out", tmp_path] + TINY
    calls = count_iaaft_calls(monkeypatch)
    for stage in STAGES:
        assert run_cli(stage, *flags) == 0
    assert len(calls) == 6
    meta = json.loads((tmp_path / "surrogates.meta.json").read_text())
    assert meta["surrogate"]["max_iter"] == 20
    assert len(meta["source_sha256"]) == 64


@pytest.mark.parametrize("change", [["--seed", "16"], ["--max-iter", "7"]])
def test_dataset_recomputes_stale_surrogates(tmp_path, monkeypatch, change):
    # Flags given twice take their last value.
    base = ["--system", "logistic", "--seed", "15"] + TINY
    out = tmp_path / "run"
    assert run_cli("generate", *base, "--out", out) == 0
    assert run_cli("surrogate", *base, "--out", out) == 0
    if change[0] == "--seed":
        assert run_cli("generate", *base, *change, "--out", out) == 0
    calls = count_iaaft_calls(monkeypatch)
    assert run_cli("dataset", *base, *change, "--out", out) == 0
    assert len(calls) == 6
    fresh = tmp_path / "fresh"
    assert run_cli("pipeline", *base, *change, "--out", fresh) == 0
    assert (out / "dataset.csv").read_bytes() == \
        (fresh / "dataset.csv").read_bytes()


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_end_to_end_and_deterministic(tmp_path):
    out = tmp_path / "run"
    base = ["pipeline", "--system", "logistic", "--seed", "5",
            "--out", out] + TINY
    assert run_cli(*base) == 0
    expected = {"config.frozen.json", "realizations.csv",
                "realizations.meta.json", "surrogates.csv",
                "surrogates.meta.json", "surrogate_report.json",
                "dataset.csv", "dataset.meta.json", "model.json",
                "model_representative.json", "train_report.csv",
                "train_report.meta.json", "verdict.json"}
    assert {p.name for p in out.iterdir()} == expected
    first = snapshot(out)
    assert run_cli(*base) == 0
    assert snapshot(out) == first


def test_pipeline_reruns_from_frozen_config(tmp_path):
    out_a = tmp_path / "a"
    assert run_cli("pipeline", "--system", "henon", "--seed", "6",
                   "--out", out_a, *TINY) == 0
    first = snapshot(out_a)
    out_b = tmp_path / "b"
    assert run_cli("pipeline", "--config", out_a / "config.frozen.json",
                   "--out", out_b) == 0
    second = snapshot(out_b)
    for name in first:
        if name == "config.frozen.json":
            continue  # records its own output directory
        assert first[name] == second[name], name


def test_pipeline_on_user_record(tmp_path):
    # Synthetic stand-in for an experimental record: single-column file,
    # filtered and windowed before the usual pipeline.
    record = make_realizations("lorenz", 600, 1, seed=11)[0]
    rec_path = tmp_path / "record.txt"
    save_series(rec_path, record)
    out = tmp_path / "run"
    assert run_cli("pipeline", "--system", "file", "--input", rec_path,
                   "--filter-cutoff-hz", "2.0",
                   "--filter-fs-hz", "20.0", "--seed", "8",
                   "--out", out, *TINY) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["test_items"] > 0
    frozen = json.loads((out / "config.frozen.json").read_text())
    assert frozen["system"] == "file"
    assert frozen["filter_cutoff_hz"] == 2.0


def test_dataset_filter_precedes_surrogates(tmp_path):
    # Filtering a prebuilt realization CSV must happen before pairing, so
    # each surrogate still shares its original's value multiset.
    out = tmp_path / "run"
    base = ["--system", "logistic", "--seed", "12", "--out", out,
            "--filter-cutoff-hz", "2.0", "--filter-fs-hz", "20.0"] + TINY
    assert run_cli("generate", *base) == 0
    assert run_cli("dataset", *base) == 0
    lines = (out / "dataset.csv").read_text().strip().splitlines()[1:]
    rows = {}
    for line in lines:
        parts = line.split(",")
        rows.setdefault(parts[0], {})[parts[1]] = \
            np.array([float(v) for v in parts[3:]])
    for pid, pair in rows.items():
        assert np.allclose(np.sort(pair["1"]), np.sort(pair["0"]),
                           atol=1e-12), pid


def test_pipeline_stage_failure_names_stage(tmp_path, capsys):
    missing = tmp_path / "does-not-exist.txt"
    out = tmp_path / "run"
    code = run_cli("pipeline", "--system", "file", "--input", missing,
                   "--out", out, *TINY)
    assert code == 1
    err = capsys.readouterr().err
    assert "stage 'generate'" in err


def test_pipeline_keeps_stage_error_type(tmp_path, capsys):
    record = tmp_path / "record.txt"
    record.write_text("0.1\n0.2\nfoo\n0.4\n")
    for command in ("generate", "pipeline"):
        code = run_cli(command, "--system", "file", "--input", record,
                       "--out", tmp_path / command, *TINY)
        err = capsys.readouterr().err
        assert code == 2, command
        assert "error[ParseError]" in err and "line 3" in err, command
    assert "stage 'generate'" in err


def test_surrogate_stage_keeps_length_error(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("0.1,0.5,0.2\n0.3,0.9,0.4\n")
    code = run_cli("surrogate", "--from", short, "--out", tmp_path / "run")
    err = capsys.readouterr().err
    assert code == 2
    assert "error[LengthError]" in err and "at least 4 samples" in err


@pytest.mark.parametrize("broken", ["sidecar", "config"])
def test_truncated_json_is_parse_error(tmp_path, capsys, broken):
    out = tmp_path / "run"
    assert run_cli("generate", "--system", "logistic", "--L", "16",
                   "--N", "3", "--out", out) == 0
    if broken == "sidecar":
        target = out / "realizations.meta.json"
        argv = ["surrogate", "--out", out]
    else:
        target = tmp_path / "cfg.json"
        target.write_text((out / "config.frozen.json").read_text())
        argv = ["generate", "--config", target, "--out", tmp_path / "again"]
    text = target.read_text()
    target.write_text(text[:len(text) // 2])
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error[ParseError]" in err and f"{target}: line " in err


class _HalfWriter:
    """A file that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch):
    out = tmp_path / "run"
    flags = ["--system", "logistic", "--L", "16", "--N", "4", "--out", out]
    assert run_cli("generate", *flags, "--seed", "1") == 0
    before = snapshot(out)

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode and "realizations.csv" in str(file):
            return _HalfWriter(fh)
        return fh

    monkeypatch.setattr(series, "open", failing_open, raising=False)
    assert run_cli("generate", *flags, "--seed", "2") == 1
    after = snapshot(out)
    assert after.keys() == before.keys()
    assert after["realizations.csv"] == before["realizations.csv"]
    assert after["realizations.meta.json"] == before["realizations.meta.json"]


# ---------------------------------------------------------------------------
# config precedence
# ---------------------------------------------------------------------------

def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"system": "logistic", "L": 16, "N": 3,
                                    "epochs": 2, "hidden_size": 2,
                                    "master_seed": 9}))
    out = tmp_path / "run"
    assert run_cli("generate", "--config", cfg_path, "--N", "5",
                   "--out", out) == 0
    meta = json.loads((out / "realizations.meta.json").read_text())
    assert meta["N"] == 5          # flag wins
    assert meta["L"] == 16         # file value survives
    frozen = json.loads((out / "config.frozen.json").read_text())
    assert frozen["N"] == 5 and frozen["master_seed"] == 9


def test_unknown_config_key_rejected(tmp_path, capsys):
    # A typo, and keys that older versions wrote into config.frozen.json.
    for key, value in [("sytem", "logistic"), ("mode", "windowed"),
                       ("input_format", "row"), ("seed_init", 3),
                       ("train_frac", 0.75)]:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert run_cli("generate", "--config", cfg_path,
                       "--out", tmp_path / "x") == 2, key
        assert "unknown config keys" in capsys.readouterr().err, key


@pytest.mark.parametrize("text", ["3", "[]", '{"L": "abc"}',
                                  '{"alpha": null}', '{"epochs": true}'])
def test_config_of_wrong_shape_is_parameter_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run_cli("generate", "--config", cfg_path,
                   "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert "error[ParameterError]" in err and f"{cfg_path}: " in err


def test_filter_order_zero_is_parameter_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("generate", "--system", "logistic", "--L", "16",
                   "--N", "3", "--filter-order", "0",
                   "--filter-cutoff-hz", "2.0", "--filter-fs-hz", "20.0",
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[ParameterError]" in err and "filter order" in err
    assert not out.exists()


def readme_commands() -> list:
    """Each ``surrotest ...`` command of README's command-line block, with
    its continuation lines joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [line for line in block.splitlines()
            if line.startswith("surrotest ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 7
    for line in commands:
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        resolve_config(args)


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SURROTEST_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--system", "logistic", "--L", "16",
                   "--N", "3", "--seed", "2") == 0
    runs = list((tmp_path / "root").iterdir())
    assert len(runs) == 1
    assert (runs[0] / "realizations.csv").exists()
