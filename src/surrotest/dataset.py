"""Dataset assembly: record ingestion, low-pass pre-filtering, pairing of
realizations with their surrogates, per-realization standardization, and
leak-free train/validation/test splitting.

Splits are assigned per *pair*: a realization and its surrogate twin always
land in the same split, otherwise the classifier could memorize a training
original and recognize its surrogate in the test set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import LengthError, ParameterError, ParseError, SplitError
from .seeding import derived_seed
from .series import (TimeSeries, as_samples, atomic_open, check_width,
                     meta_path, parse_cells, read_meta, write_json)
from .spectral import SurrogateConfig, make_surrogate

SPLITS = ("train", "validation", "test")

# Pair-level split: a quarter of the pairs for test, then 30% of the rest
# for validation.  With 1000 pairs: 250 test, 225 validation, 525 train.
TRAIN_FRAC = 0.75
VAL_FRAC_OF_TRAIN = 0.30

LABEL_ORIGINAL = 1
LABEL_SURROGATE = 0


# ---------------------------------------------------------------------------
# Record ingestion
# ---------------------------------------------------------------------------

def load_series(path) -> TimeSeries:
    """Read a record from disk: one numeral per line, comma-separated
    numerals, or both, in file order.  Blank lines are skipped; anything
    else that does not parse raises with its 1-based line number.
    """
    path = Path(path)
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            values += parse_cells(text.split(","), path, lineno)
    if not values:
        raise LengthError(f"{path} contains no samples")
    return TimeSeries(np.array(values), meta={"source": str(path)})


def save_series(path, series) -> None:
    """Write a record, one sample per line, with 17 significant digits
    (lossless round-trip)."""
    samples = as_samples(series)
    with atomic_open(path) as fh:
        for v in samples:
            fh.write(f"{v:.17g}\n")


# ---------------------------------------------------------------------------
# Butterworth low-pass pre-filter
# ---------------------------------------------------------------------------

@dataclass
class FilterSpec:
    """Low-pass design: order (4 by default), cutoff and rate in Hz."""

    cutoff_hz: float
    sampling_rate_hz: float
    order: int = 4

    def __post_init__(self):
        if self.order < 1:
            raise ParameterError(f"filter order must be positive, got {self.order}")
        if not self.sampling_rate_hz > 0:
            raise ParameterError("sampling rate must be positive")
        if not 0.0 < self.cutoff_hz < self.sampling_rate_hz / 2.0:
            raise ParameterError(
                f"cutoff {self.cutoff_hz} Hz must lie in (0, Nyquist="
                f"{self.sampling_rate_hz / 2.0} Hz)"
            )


def design_butterworth_lowpass(spec: FilterSpec) -> tuple:
    """Digital Butterworth low-pass via the bilinear transform.

    The analog prototype cutoff is prewarped with tan so the digital
    response hits exactly -3.01 dB at ``spec.cutoff_hz``.  Returns the
    difference-equation coefficients (b, a) with a[0] = 1 and unit DC gain.
    """
    n = spec.order
    fs = spec.sampling_rate_hz
    warped = 2.0 * fs * np.tan(np.pi * spec.cutoff_hz / fs)
    k = np.arange(1, n + 1)
    angles = np.pi * (2 * k + n - 1) / (2 * n)
    poles_s = warped * np.exp(1j * angles)          # left half-plane
    poles_z = (2.0 * fs + poles_s) / (2.0 * fs - poles_s)
    zeros_z = -np.ones(n)
    b = np.real(np.poly(zeros_z))
    a = np.real(np.poly(poles_z))                   # monic by construction
    b *= a.sum() / b.sum()                          # H(z=1) = 1
    return b, a


def _iir_forward(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Single causal pass, direct form II transposed.

    The recurrence runs on Python floats, which round like numpy float64
    scalars but cost far less per operation.
    """
    order = b.size - 1
    b, a = b.tolist(), a.tolist()
    z = [0.0] * order
    y = np.empty_like(x)
    for i, xi in enumerate(x.tolist()):
        yi = b[0] * xi + z[0]
        for k in range(order - 1):
            z[k] = b[k + 1] * xi + z[k + 1] - a[k + 1] * yi
        z[order - 1] = b[order] * xi - a[order] * yi
        y[i] = yi
    return y


def butterworth_lowpass(series, spec: FilterSpec) -> TimeSeries:
    """Causal low-pass filtering of a series (single forward pass)."""
    samples = as_samples(series)
    if samples.size < 8:
        raise LengthError(f"need at least 8 samples to filter, got {samples.size}")
    b, a = design_butterworth_lowpass(spec)
    filtered = _iir_forward(b, a, samples)
    if isinstance(series, TimeSeries):
        return series.with_samples(filtered, filtered={
            "order": spec.order, "cutoff_hz": spec.cutoff_hz,
            "sampling_rate_hz": spec.sampling_rate_hz,
        })
    return TimeSeries(filtered)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def _standardize_rows(rows: np.ndarray) -> np.ndarray:
    centered = rows - rows.mean(axis=1, keepdims=True)
    std = np.sqrt(np.mean(centered**2, axis=1, keepdims=True))
    return np.divide(centered, std, out=np.zeros_like(centered),
                     where=std != 0.0)


def standardize(realization) -> TimeSeries:
    """Zero-mean unit-variance rescaling (population std) per realization.

    A constant realization maps to all zeros by convention.
    """
    samples = as_samples(realization)
    if samples.size < 2:
        raise LengthError("standardization needs at least 2 samples")
    scaled = _standardize_rows(samples[None, :])[0]
    if isinstance(realization, TimeSeries):
        return realization.with_samples(scaled, standardized=True)
    return TimeSeries(scaled, meta={"standardized": True})


# ---------------------------------------------------------------------------
# Labeled datasets
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Paired realizations as arrays, one row each, in pair order: every
    original is directly followed by its surrogate."""

    X: np.ndarray                 # (2N, L) standardized samples
    y: np.ndarray                 # (2N,) int: 1 = original, 0 = surrogate
    pair_id: np.ndarray           # (2N,) int
    split: np.ndarray             # (2N,) str: one of SPLITS, "" if unsplit
    seeds: dict = field(default_factory=dict)

    def __len__(self):
        return self.X.shape[0]

    @property
    def L(self) -> int:
        return self.X.shape[1]

    @property
    def n_pairs(self) -> int:
        return len(set(self.pair_id.tolist()))


def pair_surrogates(originals, config: SurrogateConfig) -> list:
    """One surrogate per original, on independent per-pair seed streams."""
    return [make_surrogate(orig, replace(config, seed=derived_seed(config.seed, pid)))
            for pid, orig in enumerate(originals)]


def build_dataset(originals, config: SurrogateConfig,
                  surrogates=None) -> LabeledDataset:
    """Pair every original with its surrogate and standardize both.

    ``surrogates`` may carry precomputed SurrogateResults (e.g. from the
    surrogate pipeline stage); otherwise they are generated here with
    per-pair seeds derived from ``config.seed``.  Standardization happens
    after surrogate generation, so it cannot disturb the spectral and
    distribution constraints the surrogates encode.
    """
    originals = list(originals)
    if not originals:
        raise LengthError("need at least one original realization")
    lengths = {len(o) for o in originals}
    if len(lengths) != 1:
        raise LengthError(f"originals have mixed lengths: {sorted(lengths)}")
    L = lengths.pop()

    if surrogates is None:
        surrogates = pair_surrogates(originals, config)
    elif len(surrogates) != len(originals):
        raise LengthError("surrogate count does not match original count")

    n = len(originals)
    rows = np.empty((2 * n, L))
    rows[0::2] = [as_samples(o) for o in originals]
    rows[1::2] = [as_samples(getattr(s, "surrogate", s)) for s in surrogates]
    return LabeledDataset(X=_standardize_rows(rows),
                          y=np.tile([LABEL_ORIGINAL, LABEL_SURROGATE], n),
                          pair_id=np.repeat(np.arange(n), 2),
                          split=np.full(2 * n, ""),
                          seeds={"surrogate": config.seed})


def split_dataset(dataset: LabeledDataset, seed: int) -> LabeledDataset:
    """Assign whole pairs to train/validation/test by ``TRAIN_FRAC`` and
    ``VAL_FRAC_OF_TRAIN``.

    Test and validation sizes are floored; the remainder stays in train.
    """
    # A set, not np.unique: numpy's sort code adds about 1 MB to peak RSS.
    pair_ids = sorted(set(dataset.pair_id.tolist()))
    n_pairs = len(pair_ids)
    if n_pairs < 3:
        raise SplitError(f"need at least 3 pairs to split, got {n_pairs}")

    # The 1e-9 nudge keeps exact fractions exact (0.30 * 750 must be 225
    # pairs, not 224) despite binary rounding of the fractions themselves.
    n_test = int(np.floor((1.0 - TRAIN_FRAC) * n_pairs + 1e-9))
    pool = n_pairs - n_test
    n_val = int(np.floor(VAL_FRAC_OF_TRAIN * pool + 1e-9))

    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    order = rng.permutation(n_pairs)
    # The pair at rank r of the permutation gets the r-th tag.
    ranked = np.repeat(["test", "validation", "train"],
                       [n_test, n_val, n_pairs - n_test - n_val])
    pair_split = np.empty_like(ranked)
    pair_split[order] = ranked
    seeds = dict(dataset.seeds)
    seeds["split"] = seed
    row_pair = np.searchsorted(pair_ids, dataset.pair_id)
    return replace(dataset, split=pair_split[row_pair], seeds=seeds)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_dataset(path, dataset: LabeledDataset, extra_meta: dict | None = None) -> None:
    """CSV with columns [pair_id, label, split, s_0 .. s_{L-1}] + sidecar."""
    path = Path(path)
    header = ["pair_id", "label", "split"] + [f"s_{i}" for i in range(dataset.L)]
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pid, label, tag, row in zip(dataset.pair_id.tolist(),
                                        dataset.y.tolist(),
                                        dataset.split.tolist(), dataset.X):
            writer.writerow([pid, label, tag] + [f"{v:.17g}" for v in row])
    meta = {"L": dataset.L, "N": dataset.n_pairs, "seeds": dataset.seeds}
    if extra_meta:
        meta.update(extra_meta)
    write_json(meta_path(path), meta)


def load_dataset(path) -> LabeledDataset:
    """Read a dataset CSV written by ``save_dataset``.

    A row that does not have the header's width, a cell that does not
    parse, a label other than 0 or 1, or a split tag other than those in
    ``SPLITS`` raises ``ParseError`` with its line number.
    """
    path = Path(path)
    pair_id, y, split, X = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LengthError(f"{path} is empty")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            check_width(row, len(header), path, line)
            pid, label = parse_cells(row[:2], path, line, kind=int)
            if label not in (LABEL_ORIGINAL, LABEL_SURROGATE):
                raise ParseError(f"{path}: line {line}: label {label} is "
                                 "neither 0 nor 1", line=line)
            if row[2] not in SPLITS:
                raise ParseError(f"{path}: line {line}: unknown split "
                                 f"{row[2]!r}", line=line)
            pair_id.append(pid)
            y.append(label)
            split.append(row[2])
            X.append(parse_cells(row[3:], path, line))
    if not X:
        raise LengthError(f"{path} contains no items")
    return LabeledDataset(X=np.array(X), y=np.array(y),
                          pair_id=np.array(pair_id), split=np.array(split),
                          seeds=read_meta(path).get("seeds", {}))
