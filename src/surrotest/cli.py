"""Command-line pipeline: generate -> surrogate -> dataset -> train -> report.

A run is configured by what a run varies (``RunConfig``): flag > config
file > default.  A frozen copy of the fully resolved configuration is
written into every output directory, and re-running from that frozen file
reproduces every artifact byte for byte.
One master seed derives all stage seeds (see ``seeding``), so a single
integer pins a whole run.

Each stage is one ``cmd_*`` function that writes its artifacts and returns
its result.  Run alone, a stage reads its input from disk; ``pipeline``
hands each result to the next stage in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dynsys, rnn, stats
from .dataset import (FilterSpec, LabeledDataset, build_dataset,
                      butterworth_lowpass, load_dataset, load_series,
                      pair_surrogates, save_dataset, split_dataset,
                      split_sizes)
from .errors import ParameterError, ParseError, SplitError, SurrotestError
from .seeding import stage_seed
from .series import (atomic_open, file_sha256, meta_path, read_json,
                     read_meta, write_json)
from .spectral import SurrogateConfig

OUTPUT_ROOT_ENV = "SURROTEST_OUT"

FROZEN_CONFIG = "config.frozen.json"

# Significance level of the verdict's binomial test.
VERDICT_ALPHA = 0.05


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Fully resolved settings for one run; validated before any work.
    Tolerance, filter order, batch size and clip norm are library defaults."""

    system: str = "logistic"
    input: str | None = None          # record file for system == "file"
    L: int = 32
    N: int = 1000
    alpha: float = 0.2                # AR(1) coefficient, system == "ar1"
    surrogate_max_iter: int = 100
    filter_cutoff_hz: float | None = None
    filter_fs_hz: float | None = None
    hidden_size: int = 10
    epochs: int = 400
    learning_rate: float = 1e-4
    master_seed: int = 0
    out: str | None = None

    def validate(self) -> None:
        known = dynsys.SYSTEMS + ("file",)
        if self.system not in known:
            raise ParameterError(
                f"unknown system {self.system!r}; expected one of {known}")
        if self.system == "file" and not self.input:
            raise ParameterError("system 'file' requires --input")
        if self.L < 8:
            raise ParameterError(f"L must be at least 8, got {self.L}")
        if self.N < 1:
            raise ParameterError(f"N must be at least 1, got {self.N}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be at least 1, got {self.epochs}")
        if self.master_seed < 0:
            raise ParameterError(
                f"master_seed must be nonnegative, got {self.master_seed}")
        # Constructors validate their own ranges.  alpha is checked for
        # every system, since every run freezes it.
        self.train_config()
        self.surrogate_config()
        self.filter_spec()
        dynsys.NoiseParams(self.alpha)

    def train_config(self) -> rnn.TrainConfig:
        return rnn.TrainConfig(
            hidden_size=self.hidden_size, lr=self.learning_rate,
            shuffle_seed=stage_seed(self.master_seed, "shuffle"))

    def surrogate_config(self) -> SurrogateConfig:
        return SurrogateConfig(max_iter=self.surrogate_max_iter,
                               seed=stage_seed(self.master_seed, "surrogate"))

    def filter_spec(self) -> FilterSpec | None:
        given = [self.filter_cutoff_hz, self.filter_fs_hz]
        if all(v is None for v in given):
            return None
        if any(v is None for v in given):
            raise ParameterError(
                "filter needs both filter_cutoff_hz and filter_fs_hz")
        return FilterSpec(cutoff_hz=self.filter_cutoff_hz,
                          sampling_rate_hz=self.filter_fs_hz)

    def outdir(self) -> Path:
        if self.out:
            return Path(self.out)
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "surrotest-runs"))
        return root / f"{self.system}-L{self.L}-H{self.hidden_size}-s{self.master_seed}"


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}

# The JSON values a config file may give a field, by its annotation.
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "None": type(None)}


def _check_config_types(values: dict, path) -> None:
    for f in fields(RunConfig):
        if f.name not in values:
            continue
        value = values[f.name]
        allowed = tuple(_JSON_TYPES[name] for name in f.type.split(" | "))
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ParameterError(
                f"{path}: {f.name} must be {f.type}, got {json.dumps(value)}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and command-line flags (flags win)."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = read_json(config_path)
        if not isinstance(file_values, dict):
            raise ParameterError(
                f"{config_path}: the top level must be a JSON object, "
                f"got {json.dumps(file_values)}")
        unknown = set(file_values) - _CONFIG_FIELDS
        if unknown:
            raise ParameterError(
                f"unknown config keys in {config_path}: {sorted(unknown)}")
        _check_config_types(file_values, config_path)
        values.update(file_values)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig) -> tuple:
    """(rows, meta, digest): the realizations, their provenance and the
    SHA-256 of the realizations.csv written."""
    source, params, spec = cfg.system, None, cfg.filter_spec()
    if cfg.system == "file":
        source = load_series(cfg.input)
        if spec is not None:
            source = butterworth_lowpass(source, spec)
    elif cfg.system == "ar1":
        params = dynsys.NoiseParams(cfg.alpha)
    rows, meta = dynsys.make_realizations(
        source, cfg.L, cfg.N, seed=stage_seed(cfg.master_seed, "generation"),
        params=params)
    # A record was filtered before windowing; each row of a system is
    # filtered from a zero state.  Surrogates are made from the result.
    if spec is not None:
        if cfg.system != "file":
            rows = np.array([butterworth_lowpass(r, spec) for r in rows])
        meta["filter"] = asdict(spec)
    digest = dynsys.save_realizations(cfg.outdir() / "realizations.csv",
                                      rows, meta,
                                      extra_meta={"master_seed": cfg.master_seed})
    return rows, meta, digest


def _stage_input(cfg: RunConfig, input_path, default_name: str) -> Path:
    return Path(input_path) if input_path else cfg.outdir() / default_name


def _read_realizations(source: Path) -> tuple:
    return (*dynsys.load_realizations(source), file_sha256(source))


def _check_filter(cfg: RunConfig, meta: dict, source: Path) -> None:
    """Only ``generate`` filters, so filter settings that differ from the
    realizations' recorded filter would be silently ignored: refuse them."""
    spec = cfg.filter_spec()
    wanted = None if spec is None else asdict(spec)
    recorded = meta.get("filter")
    if wanted != recorded:
        raise ParameterError(
            f"{source} was generated with filter "
            f"{json.dumps(recorded, sort_keys=True)}, but this run asks for "
            f"filter {json.dumps(wanted, sort_keys=True)}; run "
            f"generate again with the same filter settings")


def cmd_surrogate(cfg: RunConfig, input_path=None, realizations=None):
    """The (N, L) surrogate rows, one per realization (from
    ``cmd_generate`` or disk)."""
    outdir = cfg.outdir()
    source = _stage_input(cfg, input_path, "realizations.csv")
    originals, meta, digest = realizations or _read_realizations(source)
    _check_filter(cfg, meta, source)
    config = cfg.surrogate_config()
    settings = asdict(config)
    results = pair_surrogates(originals, config)
    surrogates = np.array([r.surrogate for r in results])
    dynsys.save_realizations(
        outdir / "surrogates.csv", surrogates, meta,
        extra_meta={"source": source.name, "source_sha256": digest,
                    "surrogate": settings})
    write_json(outdir / "surrogate_report.json", {
        **settings,
        "pairs": [{"pair_id": i, "iterations": r.iterations,
                   "converged": r.converged,
                   "discrepancy": r.discrepancy}
                  for i, r in enumerate(results)],
    })
    return surrogates


def _stored_surrogates(cfg: RunConfig, digest: str):
    """surrogates.csv, if the surrogate stage made it from the realizations
    with SHA-256 ``digest`` under the current surrogate settings."""
    path = cfg.outdir() / "surrogates.csv"
    if not path.exists():
        return None
    surrogates, meta = dynsys.load_realizations(path)
    fresh = (meta.get("source_sha256") == digest
             and meta.get("surrogate") == asdict(cfg.surrogate_config()))
    return surrogates if fresh else None


def cmd_dataset(cfg: RunConfig, input_path=None, realizations=None,
                surrogates=None) -> LabeledDataset:
    """The labeled, split dataset.  Run alone it reads the realizations and
    a fresh surrogates.csv, or makes one by running the surrogate stage."""
    source = _stage_input(cfg, input_path, "realizations.csv")
    realizations = realizations or _read_realizations(source)
    originals, meta, digest = realizations
    _check_filter(cfg, meta, source)
    if surrogates is None:
        surrogates = _stored_surrogates(cfg, digest)
    if surrogates is None:
        surrogates = cmd_surrogate(cfg, input_path, realizations)
    config = cfg.surrogate_config()
    split_seed = stage_seed(cfg.master_seed, "split")
    ds = split_dataset(build_dataset(originals, surrogates), split_seed)
    save_dataset(cfg.outdir() / "dataset.csv", ds, extra_meta={
        "surrogate": asdict(config),
        "seeds": {"surrogate": config.seed, "split": split_seed},
        "filter": meta.get("filter"),
        "master_seed": cfg.master_seed,
    })
    return ds


def cmd_train(cfg: RunConfig, input_path=None, dataset=None) -> rnn.TrainReport:
    outdir = cfg.outdir()
    if dataset is None:
        dataset = load_dataset(_stage_input(cfg, input_path, "dataset.csv"))
    model, representative, report = rnn.train(
        stage_seed(cfg.master_seed, "init"), dataset, cfg.epochs,
        cfg.train_config())
    rnn.save_model(outdir / "model.json", model)
    rnn.save_model(outdir / "model_representative.json", representative)
    rnn.save_report(outdir / "train_report.csv", report,
                    extra_meta={"N": len(dataset.pairs)})
    return report


def verdict_from_report(report: rnn.TrainReport) -> dict:
    epoch, acc = report.representative_epoch, report.representative_accuracy
    n = report.n_test_items
    if n < 1:
        raise ParameterError("report does not record the test item count")
    # The raw test accuracy at the representative epoch is the
    # representative model evaluated on the test split, so times n it is
    # the exact count of correct items; the smoothed ``acc`` is not a count.
    successes = round(report.test_acc[epoch - 1] * n)
    result = stats.binomial_test(successes, n, alpha=VERDICT_ALPHA)
    return {
        "representative_epoch": epoch,
        "representative_accuracy": acc,
        "test_items": n,
        "successes": successes,
        "null_proportion": 0.5,
        "p_value": result.p_value,
        "alpha": VERDICT_ALPHA,
        "reject_random_guess": result.reject,
    }


def _check_test_items(report: rnn.TrainReport, source: Path) -> None:
    """A report must count the test items that the split of its dataset's
    N pairs gives: the binomial test's cost grows with ``n_test_items``, so
    an edited count could stall ``report``.  N comes from the dataset
    sidecar beside the report or, without one, from the report's own
    sidecar, where ``train`` records it; a report with neither is
    refused."""
    for holder in (source.with_name("dataset.csv"), source):
        n_pairs = read_meta(holder).get("N")
        if n_pairs is not None:
            break
    else:
        raise ParseError(f"{meta_path(source)} records no pair count N and "
                         f"no {meta_path(source.with_name('dataset.csv'))} "
                         "lies beside it, so n_test_items cannot be "
                         "checked; run train again")
    try:
        want = 2 * split_sizes(n_pairs)[0]
    except SplitError as exc:
        raise ParseError(f"{meta_path(holder)}: {exc}") from None
    if report.n_test_items != want:
        raise ParseError(f"{meta_path(source)}: n_test_items is "
                         f"{report.n_test_items}, but the split of the "
                         f"{n_pairs} pairs in {meta_path(holder)} gives "
                         f"{want}")


def cmd_report(cfg: RunConfig, input_path=None, report=None) -> dict:
    outdir = cfg.outdir()
    if report is None:
        source = _stage_input(cfg, input_path, "train_report.csv")
        report = rnn.load_report(source)
        _check_test_items(report, source)
    verdict = verdict_from_report(report)
    line = json.dumps(verdict, sort_keys=True)
    with atomic_open(outdir / "verdict.json") as fh:
        fh.write(line + "\n")
    print(line)
    return verdict


def cmd_pipeline(cfg: RunConfig) -> dict:
    """Run every stage in order, handing each result to the next.  A failure
    keeps its exception type; ``main`` prints the failing stage's name."""
    def stage(name, fn, **inputs):
        try:
            return fn(cfg, **inputs)
        except Exception as exc:
            exc.pipeline_stage = name
            raise

    realizations = stage("generate", cmd_generate)
    surrogates = stage("surrogate", cmd_surrogate, realizations=realizations)
    dataset = stage("dataset", cmd_dataset, realizations=realizations,
                    surrogates=surrogates)
    report = stage("train", cmd_train, dataset=dataset)
    return stage("report", cmd_report, report=report)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--system", choices=dynsys.SYSTEMS + ("file",))
    parser.add_argument("--input", help="record file for --system file")
    parser.add_argument("--L", type=int, help="realization length")
    parser.add_argument("--N", type=int, help="realization count")
    parser.add_argument("--alpha", type=float, help="AR(1) coefficient")
    parser.add_argument("--max-iter", dest="surrogate_max_iter", type=int)
    parser.add_argument("--filter-cutoff-hz", dest="filter_cutoff_hz", type=float)
    parser.add_argument("--filter-fs-hz", dest="filter_fs_hz", type=float)
    parser.add_argument("--hidden-size", dest="hidden_size", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", dest="learning_rate", type=float)
    parser.add_argument("--seed", dest="master_seed", type=int,
                        help="master seed; stage seeds derive from it")


def build_parser() -> argparse.ArgumentParser:
    # No abbreviations: a prefix of a flag, such as --hid, is refused
    # rather than taken for the one flag it begins.
    parser = argparse.ArgumentParser(
        prog="surrotest",
        description="Detect dynamical nonlinearity in short time series by "
                    "training a recurrent classifier against constrained "
                    "surrogates.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "generate": "generate realizations from a system or record",
        "surrogate": "pair a realization CSV with surrogates",
        "dataset": "build a labeled, split dataset from realizations",
        "train": "train the recurrent classifier on a dataset CSV",
        "report": "summarize a training report and test against 0.5",
        "pipeline": "run generate/surrogate/dataset/train/report end to end",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        _add_common(p)
        if name in ("surrogate", "dataset", "train", "report"):
            p.add_argument("--from", dest="stage_input",
                           help="input artifact (defaults to the output "
                                "directory's own)")
    return parser


_DISPATCH = {
    "generate": lambda cfg, args: cmd_generate(cfg),
    "surrogate": lambda cfg, args: cmd_surrogate(cfg, args.stage_input),
    "dataset": lambda cfg, args: cmd_dataset(cfg, args.stage_input),
    "train": lambda cfg, args: cmd_train(cfg, args.stage_input),
    "report": lambda cfg, args: cmd_report(cfg, args.stage_input),
    "pipeline": lambda cfg, args: cmd_pipeline(cfg),
}


def main(argv=None) -> int:
    """Exit 0 on success, 2 on a ``SurrotestError``, 1 on other failures."""
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "pipeline":
            # Too few pairs can give no verdict: fail before any write.
            split_sizes(cfg.N)
        outdir = cfg.outdir()
        outdir.mkdir(parents=True, exist_ok=True)
        _DISPATCH[args.command](cfg, args)
        # Only a command that succeeded leaves its configuration behind.
        write_json(outdir / FROZEN_CONFIG, {**asdict(cfg), "out": str(outdir)})
    except (SurrotestError, RuntimeError, OSError, ValueError) as exc:
        stage = getattr(exc, "pipeline_stage", None)
        where = f"pipeline failed at stage '{stage}': " if stage else ""
        print(f"error[{type(exc).__name__}]: {where}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, SurrotestError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
