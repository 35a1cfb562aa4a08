import csv
import errno
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import surrotest
from surrotest import rnn, series, spectral
from surrotest.cli import build_parser, main, resolve_config
from surrotest.dataset import load_dataset, standardize
from surrotest.dynsys import load_realizations, make_realizations


def run_cli(*argv):
    return main([str(a) for a in argv])


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


TINY = ["--L", "16", "--N", "6", "--epochs", "3", "--hidden-size", "3",
        "--max-iter", "20"]

STAGES = ("generate", "surrogate", "dataset", "train", "report")

FILTER = ["--filter-cutoff-hz", "20", "--filter-fs-hz", "100"]


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
    ("representative_epoch", None, "ParseError"),
    ("representative_accuracy", None, "ParseError"),
    ("representative_epoch", 9999, "ParseError"),
    ("representative_accuracy", 0.99, "ParseError"),
    ("n_test_items", 1_000_000, "ParseError"),
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
    assert f"error[{error}]" in err and str(sidecar) in err


def test_report_needs_a_pair_count_beside_it(tmp_path, capsys):
    # report compares n_test_items with the split of the dataset's N.
    out = tmp_path / "run"
    base = ["--system", "logistic", "--seed", "4", "--out", out] + TINY
    assert run_cli("pipeline", *base) == 0
    sidecar = out / "dataset.meta.json"
    meta = json.loads(sidecar.read_text())
    for bad_n in ("6", 4):
        sidecar.write_text(json.dumps({**meta, "N": bad_n}))
        assert run_cli("report", *base) == 2
        err = capsys.readouterr().err
        assert "error[ParseError]" in err and str(sidecar) in err, bad_n
    sidecar.write_text(json.dumps({**meta, "N": 12}))
    assert run_cli("report", *base) == 2
    assert "train_report.meta.json" in capsys.readouterr().err


def test_copied_report_checks_its_recorded_pair_count(tmp_path):
    # train records the dataset's pair count in the report's sidecar, so a
    # report copied without dataset.meta.json still bounds n_test_items,
    # and an edited count fails at once instead of stalling the binomial
    # test.
    out = tmp_path / "run"
    base = ["--system", "logistic", "--seed", "4", "--out", out] + TINY
    assert run_cli("pipeline", *base) == 0
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in ("train_report.csv", "train_report.meta.json"):
        (copy / name).write_bytes((out / name).read_bytes())
    sidecar = copy / "train_report.meta.json"
    meta = json.loads(sidecar.read_text())
    assert meta["N"] == 6
    sidecar.write_text(json.dumps({**meta, "n_test_items": 1_000_000}))
    env = {**os.environ,
           "PYTHONPATH": str(Path(surrotest.__file__).parents[1])}

    def report_copy():
        return subprocess.run(
            [sys.executable, "-m", "surrotest.cli", "report",
             "--from", str(copy / "train_report.csv"), "--out", str(copy)],
            env=env, capture_output=True, text=True, timeout=10)

    done = report_copy()
    assert done.returncode == 2
    assert "n_test_items is 1000000, but the split of the 6 pairs" in (
        done.stderr)
    # Without a recorded N nothing bounds the count, so report is refused.
    # At an accuracy of one half the binomial test of 1,000,000 items would
    # run for minutes.
    report = rnn.load_report(out / "train_report.csv")
    half = [0.5] * len(report.test_acc)
    rnn.save_report(copy / "train_report.csv",
                    replace(report, test_acc=half, test_acc_s5=half,
                            representative_accuracy=0.5,
                            n_test_items=1_000_000))
    assert "N" not in json.loads(sidecar.read_text())
    done = report_copy()
    assert done.returncode == 2
    assert "error[ParseError]" in done.stderr
    assert (f"{sidecar} records no pair count N" in done.stderr
            and "run train again" in done.stderr)


def test_verdict_counts_the_representative_models_correct_items(tmp_path,
                                                                capsys):
    # At the representative epoch the smoothed accuracy, 0.5, would round
    # to 2 of the 4 test items; that epoch's model got 3 right.
    report = rnn.TrainReport(
        train_loss=[0.75, 0.5], val_loss=[0.75, 0.5], test_acc=[0.25, 0.75],
        train_loss_s5=[0.75, 0.625], val_loss_s5=[0.75, 0.625],
        test_acc_s5=[0.25, 0.5], representative_epoch=2,
        representative_accuracy=0.5, n_test_items=4)
    path = tmp_path / "train_report.csv"
    rnn.save_report(path, report, extra_meta={"N": 8})
    base = ["report", "--from", path, "--out", tmp_path]
    assert run_cli(*base) == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["representative_accuracy"] == 0.5
    assert verdict["successes"] == 3
    # A raw accuracy that counts no whole number of items is refused.
    rnn.save_report(path, replace(report, test_acc=[0.25, 0.7]),
                    extra_meta={"N": 8})
    assert run_cli(*base) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err and "test_acc 0.7 is not" in err


def test_non_finite_json_constant_is_parse_error(tmp_path, capsys):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--seed", "4", "--out", out] + TINY
    assert run_cli("pipeline", *base) == 0
    sidecar = out / "train_report.meta.json"
    meta = json.loads(sidecar.read_text())
    config = tmp_path / "cfg.json"
    for value in (float("nan"), float("inf"), -float("inf")):
        # json.dumps writes these as NaN, Infinity and -Infinity.
        sidecar.write_text(json.dumps({**meta,
                                       "representative_accuracy": value}))
        config.write_text(json.dumps({"alpha": value}))
        for argv, path in ((["report", *base], sidecar),
                           (["generate", "--config", config,
                             "--out", tmp_path / "again"], config)):
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert "error[ParseError]" in err and str(path) in err
            assert "is not a finite number" in err


@pytest.mark.parametrize("system, extra", [
    ("henon", []), ("ar1", []), ("henon", FILTER),
], ids=["henon", "ar1", "henon-filtered"])
def test_staged_run_matches_pipeline(tmp_path, system, extra):
    flags = ["--system", system, "--seed", "13", *extra] + TINY
    for stage in STAGES:
        assert run_cli(stage, *flags, "--out", tmp_path / "staged") == 0
    assert run_cli("pipeline", *flags, "--out", tmp_path / "piped") == 0
    staged = without_out_line(snapshot(tmp_path / "staged"))
    piped = without_out_line(snapshot(tmp_path / "piped"))
    assert staged.keys() == piped.keys()
    for name in staged:
        assert staged[name] == piped[name], name


def test_written_tables_need_no_quoting(tmp_path):
    # Every CSV of a pipeline run and of a staged filtered-record run holds
    # no quote, and csv reads each of its lines as the line split at commas.
    record = tmp_path / "record.txt"
    np.savetxt(record, np.sin(0.3 * np.arange(2000)), fmt="%.17g")
    assert run_cli("pipeline", "--system", "logistic", "--seed", "0",
                   "--out", tmp_path / "piped", *TINY) == 0
    for stage in STAGES:
        assert run_cli(stage, "--system", "file", "--input", record,
                       *FILTER, "--seed", "0", "--out", tmp_path / "staged",
                       *TINY) == 0, stage
    tables = sorted(tmp_path.glob("*/*.csv"))
    assert len(tables) == 8
    for path in tables:
        text = path.read_text()
        assert '"' not in text, path
        for line in text.splitlines():
            assert next(csv.reader([line])) == line.split(","), path


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
    # The recomputed surrogates are written too, as the surrogate stage
    # writes them, so no stale surrogates.csv is left beside dataset.csv.
    for name in ("dataset.csv", "surrogates.csv", "surrogates.meta.json",
                 "surrogate_report.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_filtered_system_makes_each_surrogate_once(tmp_path, monkeypatch):
    # The filter runs at generate, so the surrogate stage pairs the rows
    # the dataset holds and the dataset stage reuses its surrogates.
    calls = count_iaaft_calls(monkeypatch)
    assert run_cli("pipeline", "--system", "henon", "--L", "32", "--N", "10",
                   "--epochs", "3", "--hidden-size", "3", "--max-iter", "20",
                   "--seed", "5", *FILTER, "--out", tmp_path) == 0
    assert len(calls) == 10
    surrogates, meta = load_realizations(tmp_path / "surrogates.csv")
    assert meta["filter"] == {"cutoff_hz": 20.0, "sampling_rate_hz": 100.0,
                              "order": 4}
    ds = load_dataset(tmp_path / "dataset.csv")
    assert np.array_equal(standardize(surrogates), ds.pairs[:, 1])


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
    record = make_realizations("lorenz", 600, 1, seed=11)[0][0]
    rec_path = tmp_path / "record.txt"
    np.savetxt(rec_path, record, fmt="%.17g")
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
    # generate filters the rows, and dataset, finding no surrogates.csv,
    # runs the surrogate stage on them: each surrogate still shares its
    # original's value multiset.
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


def filter_dict(flags: list, order: int = 4) -> dict | None:
    """The filter that ``flags`` ask for, as the sidecars record it."""
    if not flags:
        return None
    given = dict(zip(flags[::2], flags[1::2]))
    return {"cutoff_hz": float(given["--filter-cutoff-hz"]), "order": order,
            "sampling_rate_hz": float(given["--filter-fs-hz"])}


@pytest.mark.parametrize("stage", ["surrogate", "dataset"])
@pytest.mark.parametrize("generated, later, recorded_order", [
    ([], FILTER, None),
    (FILTER, [], None),
    (FILTER, ["--filter-cutoff-hz", "10", "--filter-fs-hz", "100"], None),
    (FILTER, FILTER, 2),
], ids=["added", "dropped", "other-cutoff", "other-order"])
def test_filter_disagreeing_with_realizations_fails(tmp_path, capsys, stage,
                                                    generated, later,
                                                    recorded_order):
    # Only generate filters, so a later stage's filter settings must be the
    # ones the realizations were made with, or they would be ignored.  The
    # order is no setting, so other-order edits the recorded one.
    out = tmp_path / "run"
    base = ["--system", "logistic", "--L", "16", "--N", "5", "--seed", "1",
            "--out", out]
    assert run_cli("generate", *base, *generated) == 0
    frozen = (out / "config.frozen.json").read_bytes()
    sidecar = out / "realizations.meta.json"
    as_generated = sidecar.read_bytes()
    recorded = filter_dict(generated)
    if recorded_order is not None:
        recorded["order"] = recorded_order
        sidecar.write_text(json.dumps({**json.loads(as_generated),
                                       "filter": recorded}))
    capsys.readouterr()
    assert run_cli(stage, *base, *later) == 2
    err = capsys.readouterr().err
    assert "error[ParameterError]" in err
    assert ("generated with filter "
            f"{json.dumps(recorded, sort_keys=True)},") in err
    assert ("asks for filter "
            f"{json.dumps(filter_dict(later), sort_keys=True)};") in err
    assert not (out / "surrogates.csv").exists()
    assert not (out / "dataset.csv").exists()
    # The frozen config still describes the last command that succeeded.
    assert (out / "config.frozen.json").read_bytes() == frozen
    sidecar.write_bytes(as_generated)
    assert run_cli(stage, *base, *generated) == 0


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
                       ("train_frac", 0.75), ("surrogate_algorithm", "iaaft"),
                       ("surrogate_tolerance", 1e-8), ("batch_size", 16),
                       ("clip_norm", 5.0), ("filter_order", 4)]:
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


@pytest.mark.parametrize("flag, value", [("--lr", "inf")])
def test_bad_step_setting_fails_before_any_stage(tmp_path, capsys, flag,
                                                 value):
    out = tmp_path / "run"
    assert run_cli("pipeline", "--system", "logistic", *TINY, flag, value,
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[ParameterError]" in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be at least 1"),
    (["--max-iter", "0"], "max_iter must be at least 1"),
    (["--filter-cutoff-hz", "20", "--filter-fs-hz", "inf"],
     "sampling rate must be finite"),
    (["--alpha", "inf"], "AR coefficient must satisfy |alpha| < 1"),
    (["--alpha", "nan"], "AR coefficient must satisfy |alpha| < 1"),
], ids=["epochs-0", "max-iter-0", "fs-inf", "alpha-inf", "alpha-nan"])
def test_setting_without_a_verdict_fails_before_any_write(tmp_path, capsys,
                                                          flags, message):
    # Zero epochs give no representative model, and zero iterations no
    # surrogate; an infinite rate or alpha would be frozen as Infinity,
    # which no stage reads back.
    # alpha is frozen for every system, not only ar1.
    out = tmp_path / "run"
    assert run_cli("pipeline", "--system", "logistic", *TINY, *flags,
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[ParameterError]" in err and message in err
    assert not out.exists()


def test_pipeline_with_fewer_than_5_pairs_fails_before_any_write(tmp_path,
                                                                capsys):
    # 4 pairs leave the validation split empty, so no verdict can come of
    # them; generate and surrogate alone still take any N.
    out = tmp_path / "run"
    assert run_cli("pipeline", "--system", "logistic", "--L", "16", "--N", "4",
                   "--epochs", "3", "--hidden-size", "3", "--seed", "0",
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[SplitError]" in err and "at least 5 pairs" in err
    assert not out.exists()
    for stage in ("generate", "surrogate"):
        assert run_cli(stage, "--system", "logistic", "--L", "16", "--N", "4",
                       "--out", out) == 0, stage


def test_surrogate_algorithm_flag_is_gone(tmp_path, capsys):
    # The pipeline makes IAAFT surrogates only, and a run does not set
    # IAAFT's tolerance, the filter order, the batch size or the clip norm;
    # --H is no spelling of --hidden-size.
    out = tmp_path / "run"
    for flag, value in [("--surrogate-alg", "ft"), ("--tolerance", "1e-8"),
                        ("--batch-size", "16"), ("--clip-norm", "5"),
                        ("--filter-order", "4"), ("--H", "3")]:
        with pytest.raises(SystemExit) as exc:
            run_cli("pipeline", "--system", "logistic", *TINY, flag, value,
                    "--out", out)
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag} " in (
            capsys.readouterr().err), flag
        assert not out.exists(), flag


@pytest.mark.parametrize("command", ["pipeline", "generate", "train"])
def test_flag_prefix_is_refused(tmp_path, capsys, command):
    # --hid is a prefix of --hidden-size only, but no abbreviation is taken.
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--system", "logistic", *TINY, "--hid", "3",
                "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --hid 3" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_is_parameter_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("pipeline", "--system", "logistic", *TINY, "--seed", "-1",
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[ParameterError]" in err and "master_seed" in err
    assert not out.exists()


def test_negative_seed_in_config_is_parameter_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"master_seed": -3}))
    out = tmp_path / "run"
    assert run_cli("generate", "--config", cfg_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[ParameterError]" in err and "master_seed" in err
    assert not out.exists()


@pytest.mark.parametrize("artifact,reader", [("realizations", "surrogate"),
                                             ("surrogates", "dataset"),
                                             ("dataset", "train")])
def test_sidecar_not_object_is_parse_error(tmp_path, capsys, artifact,
                                           reader):
    out = tmp_path / "run"
    for stage in ("generate", "surrogate", "dataset"):
        assert run_cli(stage, "--system", "logistic", "--out", out,
                       *TINY) == 0, stage
    sidecar = out / f"{artifact}.meta.json"
    sidecar.write_text("[]\n")
    assert run_cli(reader, "--system", "logistic", "--out", out, *TINY) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err and str(sidecar) in err


@pytest.mark.parametrize("key, value", [("N", 6.0), ("N", None),
                                        ("N", True), ("L", 16.0)])
def test_realizations_sidecar_count_must_be_an_integer(tmp_path, capsys,
                                                        key, value):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--L", "16", "--N", "6", "--seed", "1",
            "--out", out]
    assert run_cli("generate", *base) == 0
    sidecar = out / "realizations.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                   key: value}))
    assert run_cli("surrogate", *base) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err
    assert f"{sidecar}: {key} has the wrong type: {json.dumps(value)}" in err
    assert not (out / "surrogates.csv").exists()


@pytest.mark.parametrize("key, value", [("N", None), ("N", 6.0), ("N", "6"),
                                        ("L", 16.0), ("L", True)])
def test_dataset_sidecar_count_must_be_an_integer(tmp_path, capsys, key,
                                                   value):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--out", out] + TINY
    for stage in ("generate", "dataset"):
        assert run_cli(stage, *base) == 0, stage
    sidecar = out / "dataset.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                   key: value}))
    assert run_cli("train", *base) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err
    assert f"{sidecar}: {key} has the wrong type: {json.dumps(value)}" in err
    assert not (out / "train_report.csv").exists()


def test_dataset_sidecar_length_is_checked(tmp_path, capsys):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--out", out] + TINY
    for stage in ("generate", "dataset"):
        assert run_cli(stage, *base) == 0, stage
    sidecar = out / "dataset.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                   "L": 64}))
    assert run_cli("train", *base) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err
    assert f"{out / 'dataset.csv'}: line 1: expected 67 fields, got 19" in err
    assert not (out / "train_report.csv").exists()


def test_record_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    # Text is decoded in chunks, so the bad line lies far past the first.
    record = tmp_path / "record.txt"
    lines = [f"{np.sin(0.3 * i):.17g}".encode() for i in range(5000)]
    lines[4321] = b"0.5\xff"
    record.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "run"
    assert run_cli("generate", "--system", "file", "--input", record,
                   "--out", out, *TINY) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err
    assert f"{record}: line 4322: not UTF-8 text" in err
    assert not (out / "realizations.csv").exists()


@pytest.mark.parametrize("artifact", ["realizations.csv",
                                      "realizations.meta.json"])
def test_artifact_that_is_not_utf8_is_parse_error(tmp_path, capsys,
                                                  artifact):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--L", "16", "--N", "6", "--seed", "1",
            "--out", out]
    assert run_cli("generate", *base) == 0
    path = out / artifact
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xe9" + lines[2]
    path.write_bytes(b"\n".join(lines))
    assert run_cli("surrogate", *base) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err
    assert f"{path}: line 3: not UTF-8 text" in err
    assert not (out / "surrogates.csv").exists()


def test_config_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"system": "logistic",\n "L": 16\xc3}\n')
    out = tmp_path / "run"
    assert run_cli("generate", "--config", cfg_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err
    assert f"{cfg_path}: line 2: not UTF-8 text" in err
    assert not out.exists()


def test_realizations_shorter_than_sidecar_n_is_parse_error(tmp_path,
                                                             capsys):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--L", "16", "--seed", "1", "--out", out]
    assert run_cli("generate", *base, "--N", "6") == 0
    path = out / "realizations.csv"
    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(lines[:2] + lines[3:]))
    assert run_cli("surrogate", *base) == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err and str(path) in err
    assert "5 realizations" in err and "N = 6" in err
    assert not (out / "surrogates.csv").exists()
    assert not (out / "surrogates.meta.json").exists()


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


def test_readme_library_example_runs(capsys):
    # README's library example, shrunk to a few realizations and epochs.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    code = text.split("## Library", 1)[1].split("```python", 1)[1]
    code = code.split("```", 1)[0]
    assert "N=1000" in code and "epochs=400" in code
    code = code.replace("N=1000", "N=12").replace("epochs=400", "epochs=2")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_importing_the_cli_loads_neither_fft_nor_random():
    # Every CLI call pays for what importing the CLI loads; numpy.fft and
    # numpy.random load lazily, at their first use.
    code = ("import sys, surrotest.cli; "
            "print(sorted({'numpy.fft', 'numpy.random'} & set(sys.modules)))")
    env = {**os.environ,
           "PYTHONPATH": str(Path(surrotest.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SURROTEST_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--system", "logistic", "--L", "16",
                   "--N", "3", "--seed", "2") == 0
    runs = list((tmp_path / "root").iterdir())
    assert len(runs) == 1
    assert (runs[0] / "realizations.csv").exists()


def _relabel_pair_0_surrogate(lines, sidecar):
    # lines: header, pair 0's original, pair 0's surrogate, ...
    assert lines[2].startswith(b"0,0,")
    return lines[:2] + [b"0,1," + lines[2][4:]] + lines[3:]


def _move_pair_0_surrogate(lines, sidecar):
    # Pair 0's surrogate goes to a split that its original is not in.
    cells = lines[2].split(b",")
    cells[2] = b"validation" if cells[2] == b"test" else b"test"
    return lines[:2] + [b",".join(cells)] + lines[3:]


def _surrogate_before_original(lines, sidecar):
    return lines[:1] + [lines[2], lines[1]] + lines[3:]


def _pairs_out_of_order(lines, sidecar):
    # Pair 1 comes first, with both of its items.
    return lines[:1] + lines[3:5] + lines[1:3] + lines[5:]


def _odd_count_without_sidecar(lines, sidecar):
    sidecar.unlink()
    return lines[:-2] + lines[-1:]      # pair 5 loses its surrogate


@pytest.mark.parametrize("edit,message", [
    (lambda lines, sidecar: lines[:9] + lines[-1:],  # header, 8 of 12 items
     "8 items, but its sidecar says N = 6 pairs"),
    (_relabel_pair_0_surrogate,
     "pair 0 is in 'train' with label 1, but this line must hold pair 0's "
     "surrogate in 'train' (label 0)"),
    (_move_pair_0_surrogate, "line 3: pair 0 is in"),
    (_surrogate_before_original,
     "line 2: pair 0 is in 'train' with label 0, but this line must hold "
     "pair 0's original (label 1)"),
    (_pairs_out_of_order, "line 2: pair 1 is in 'validation' with label 1, "
     "but this line must hold pair 0's original"),
    (_odd_count_without_sidecar, "11 items, so pair 5 has no surrogate"),
])
def test_dataset_that_breaks_its_pairs_is_parse_error(tmp_path, capsys,
                                                      edit, message):
    out = tmp_path / "run"
    base = ["--system", "logistic", "--L", "16", "--N", "6", "--seed", "1",
            "--out", out]
    assert run_cli("generate", *base) == 0
    assert run_cli("dataset", *base) == 0
    path = out / "dataset.csv"
    lines = edit(path.read_bytes().split(b"\r\n"), out / "dataset.meta.json")
    path.write_bytes(b"\r\n".join(lines))
    assert run_cli("train", *base, "--epochs", "1", "--hidden-size", "3") == 2
    err = capsys.readouterr().err
    assert "error[ParseError]" in err and str(path) in err and message in err
    assert not (out / "train_report.csv").exists()
