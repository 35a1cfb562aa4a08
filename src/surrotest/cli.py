"""Command-line pipeline: generate -> surrogate -> dataset -> train -> report.

Configuration precedence is flag > config file > default.  A frozen copy of
the fully resolved configuration is written into every output directory, and
re-running from that frozen file reproduces every artifact byte for byte.
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
                      pair_surrogates, save_dataset, split_dataset)
from .errors import ParameterError, SurrotestError
from .seeding import stage_seed
from .series import atomic_open, file_sha256, read_json, write_json
from .spectral import SurrogateConfig

OUTPUT_ROOT_ENV = "SURROTEST_OUT"

FROZEN_CONFIG = "config.frozen.json"


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Fully resolved settings for one run; validated before any work."""

    system: str = "logistic"
    input: str | None = None          # record file for system == "file"
    L: int = 32
    N: int = 1000
    alpha: float = 0.2                # AR(1) coefficient, system == "ar1"
    surrogate_algorithm: str = "iaaft"
    surrogate_max_iter: int = 100
    surrogate_tolerance: float = 1e-8
    filter_order: int = 4
    filter_cutoff_hz: float | None = None
    filter_fs_hz: float | None = None
    hidden_size: int = 10
    epochs: int = 400
    learning_rate: float = 1e-4
    batch_size: int = 16
    clip_norm: float | None = 5.0
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
        if self.epochs < 0:
            raise ParameterError(f"epochs must be nonnegative, got {self.epochs}")
        # Constructors validate their own ranges.
        self.train_config()
        self.surrogate_config()
        self.filter_spec()
        if self.system == "ar1":
            dynsys.NoiseParams(self.alpha)

    def train_config(self) -> rnn.TrainConfig:
        return rnn.TrainConfig(
            hidden_size=self.hidden_size, lr=self.learning_rate,
            batch_size=self.batch_size, clip_norm=self.clip_norm,
            shuffle_seed=stage_seed(self.master_seed, "shuffle"))

    def surrogate_config(self) -> SurrogateConfig:
        return SurrogateConfig(
            algorithm=self.surrogate_algorithm,
            max_iter=self.surrogate_max_iter,
            tolerance=self.surrogate_tolerance,
            seed=stage_seed(self.master_seed, "surrogate"),
        )

    def filter_spec(self) -> FilterSpec | None:
        given = [self.filter_cutoff_hz, self.filter_fs_hz]
        if all(v is None for v in given):
            return None
        if any(v is None for v in given):
            raise ParameterError(
                "filter needs both filter_cutoff_hz and filter_fs_hz")
        return FilterSpec(cutoff_hz=self.filter_cutoff_hz,
                          sampling_rate_hz=self.filter_fs_hz,
                          order=self.filter_order)

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
    """Realizations, and the SHA-256 of the realizations.csv written."""
    source, params = cfg.system, None
    if cfg.system == "file":
        source = load_series(cfg.input)
        spec = cfg.filter_spec()
        if spec is not None:
            source = butterworth_lowpass(source, spec)
    elif cfg.system == "ar1":
        params = dynsys.NoiseParams(cfg.alpha)
    realizations = dynsys.make_realizations(
        source, cfg.L, cfg.N, seed=stage_seed(cfg.master_seed, "generation"),
        params=params)
    digest = dynsys.save_realizations(cfg.outdir() / "realizations.csv",
                                      realizations,
                                      extra_meta={"master_seed": cfg.master_seed})
    return realizations, digest


def _stage_input(cfg: RunConfig, input_path, default_name: str) -> Path:
    return Path(input_path) if input_path else cfg.outdir() / default_name


def _read_realizations(source: Path) -> tuple:
    originals, _ = dynsys.load_realizations(source)
    return originals, file_sha256(source)


def cmd_surrogate(cfg: RunConfig, input_path=None, realizations=None) -> list:
    """One SurrogateResult per realization (from ``cmd_generate`` or disk)."""
    outdir = cfg.outdir()
    source = _stage_input(cfg, input_path, "realizations.csv")
    originals, digest = realizations or _read_realizations(source)
    settings = asdict(cfg.surrogate_config())
    results = pair_surrogates(originals, cfg.surrogate_config())
    dynsys.save_realizations(
        outdir / "surrogates.csv", [r.surrogate for r in results],
        extra_meta={"algorithm": cfg.surrogate_algorithm, "source": source.name,
                    "source_sha256": digest, "surrogate": settings})
    write_json(outdir / "surrogate_report.json", {
        **settings,
        "pairs": [{"pair_id": i, "iterations": r.iterations,
                   "converged": r.converged,
                   "discrepancy": min(r.discrepancy_trace)}
                  for i, r in enumerate(results)],
    })
    return results


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
    """The labeled, split dataset.  Without the two earlier stages' results
    it reads the realizations, and surrogates.csv if it is fresh."""
    originals, digest = realizations or _read_realizations(
        _stage_input(cfg, input_path, "realizations.csv"))
    # For records (system "file") the filter ran at ingestion, before
    # windowing.  For prebuilt realization CSVs it applies per realization
    # here - and must precede surrogate generation, or original and
    # surrogate would no longer share a value multiset, so any precomputed
    # surrogates are discarded in that case.
    spec = cfg.filter_spec()
    if spec is not None and cfg.system != "file":
        originals = [butterworth_lowpass(o, spec) for o in originals]
        surrogates = None
    elif surrogates is None:
        surrogates = _stored_surrogates(cfg, digest)
    ds = build_dataset(originals, cfg.surrogate_config(), surrogates=surrogates)
    ds = split_dataset(ds, stage_seed(cfg.master_seed, "split"))
    save_dataset(cfg.outdir() / "dataset.csv", ds, extra_meta={
        "surrogate": asdict(cfg.surrogate_config()),
        "filter": asdict(spec) if spec else None,
        "master_seed": cfg.master_seed,
    })
    return ds


def cmd_train(cfg: RunConfig, input_path=None, dataset=None) -> rnn.TrainReport:
    outdir = cfg.outdir()
    if dataset is None:
        dataset = load_dataset(_stage_input(cfg, input_path, "dataset.csv"))
    snapshots, report = rnn.train(stage_seed(cfg.master_seed, "init"),
                                  dataset, cfg.epochs, cfg.train_config())
    rnn.save_model(outdir / "model.json", snapshots[-1])
    if report.representative_epoch is not None:
        rnn.save_model(outdir / "model_representative.json",
                       snapshots[report.representative_epoch])
    rnn.save_report(outdir / "train_report.csv", report)
    return report


def verdict_from_report(report: rnn.TrainReport, alpha: float = 0.05) -> dict:
    if report.representative_epoch is None:
        raise ParameterError("report records no representative epoch")
    epoch, acc = report.representative_epoch, report.representative_accuracy
    n = report.n_test_items
    if n < 1:
        raise ParameterError("report does not record the test item count")
    successes = int(np.floor(acc * n + 0.5))
    result = stats.binomial_test(successes, n, p0=0.5, alpha=alpha)
    return {
        "representative_epoch": epoch,
        "representative_accuracy": acc,
        "test_items": n,
        "successes": successes,
        "null_proportion": 0.5,
        "p_value": result.p_value,
        "alpha": alpha,
        "reject_random_guess": result.reject,
    }


def cmd_report(cfg: RunConfig, input_path=None, report=None) -> dict:
    outdir = cfg.outdir()
    if report is None:
        report = rnn.load_report(_stage_input(cfg, input_path,
                                              "train_report.csv"))
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
    parser.add_argument("--surrogate-alg", dest="surrogate_algorithm",
                        choices=SurrogateConfig.ALGORITHMS)
    parser.add_argument("--max-iter", dest="surrogate_max_iter", type=int)
    parser.add_argument("--tolerance", dest="surrogate_tolerance", type=float)
    parser.add_argument("--filter-order", dest="filter_order", type=int)
    parser.add_argument("--filter-cutoff-hz", dest="filter_cutoff_hz", type=float)
    parser.add_argument("--filter-fs-hz", dest="filter_fs_hz", type=float)
    parser.add_argument("--hidden-size", "--H", dest="hidden_size", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", dest="learning_rate", type=float)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--clip-norm", dest="clip_norm", type=float)
    parser.add_argument("--seed", dest="master_seed", type=int,
                        help="master seed; stage seeds derive from it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surrotest",
        description="Detect dynamical nonlinearity in short time series by "
                    "training a recurrent classifier against constrained "
                    "surrogates.",
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
        p = sub.add_parser(name, help=help_text)
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
        outdir = cfg.outdir()
        outdir.mkdir(parents=True, exist_ok=True)
        write_json(outdir / FROZEN_CONFIG, {**asdict(cfg), "out": str(outdir)})
        _DISPATCH[args.command](cfg, args)
    except (SurrotestError, RuntimeError, OSError, ValueError) as exc:
        stage = getattr(exc, "pipeline_stage", None)
        where = f"pipeline failed at stage '{stage}': " if stage else ""
        print(f"error[{type(exc).__name__}]: {where}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, SurrotestError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
