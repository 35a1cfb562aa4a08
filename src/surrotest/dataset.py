"""Dataset assembly: record ingestion, low-pass pre-filtering, pairing of
realizations with their surrogates, per-realization standardization, and
leak-free train/validation/test splitting.

Splits are assigned per *pair*: a realization and its surrogate twin always
land in the same split, otherwise the classifier could memorize a training
original and recognize its surrogate in the test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import LengthError, ParameterError, ParseError, SplitError
from .seeding import derived_seed
from .series import (as_samples, parse_cells, read_meta, read_table,
                     write_table)
from .spectral import SurrogateConfig, make_surrogate

SPLITS = ("train", "validation", "test")

# Pair-level split: a quarter of the pairs for test, then 30% of the rest
# for validation.  With 1000 pairs: 250 test, 225 validation, 525 train.
TRAIN_FRAC = 0.75
VAL_FRAC_OF_TRAIN = 0.30

LABEL_ORIGINAL = 1
LABEL_SURROGATE = 0

# Samples per block when a record is parsed or filtered: the most that is
# held as Python floats (about 32 bytes each) at any one time.
BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# Record ingestion
# ---------------------------------------------------------------------------

def load_series(path) -> np.ndarray:
    """Read a record from disk: one numeral per line, comma-separated
    numerals, or both, in file order.  Blank lines are skipped; anything
    else that does not parse raises with its 1-based line number.

    Parsed values go into float64 blocks of about ``BLOCK`` samples, so
    only the current block (or line, if longer) is held as Python floats.
    """
    path = Path(path)
    blocks, values = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            values += parse_cells(text.split(","), path, lineno)
            if len(values) >= BLOCK:
                blocks.append(np.array(values))
                values = []
    blocks.append(np.array(values))
    if blocks[0].size == 0:
        raise LengthError(f"{path} contains no samples")
    return np.concatenate(blocks)


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
        if not (self.sampling_rate_hz > 0
                and math.isfinite(self.sampling_rate_hz)):
            raise ParameterError("sampling rate must be finite and positive, "
                                 f"got {self.sampling_rate_hz}")
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
    scalars but cost far less per operation.  It walks the record in
    blocks of ``BLOCK`` samples, so only one block is held as Python
    floats at a time.
    """
    order = b.size - 1
    b, a = b.tolist(), a.tolist()
    z = [0.0] * order
    y = np.empty_like(x)
    for lo in range(0, x.size, BLOCK):
        out = []
        for xi in x[lo:lo + BLOCK].tolist():
            yi = b[0] * xi + z[0]
            for k in range(order - 1):
                z[k] = b[k + 1] * xi + z[k + 1] - a[k + 1] * yi
            z[order - 1] = b[order] * xi - a[order] * yi
            out.append(yi)
        y[lo:lo + BLOCK] = out
    return y


def butterworth_lowpass(series, spec: FilterSpec) -> np.ndarray:
    """Causal low-pass filtering of a series (single forward pass)."""
    samples = as_samples(series)
    if samples.size < 8:
        raise LengthError(f"need at least 8 samples to filter, got {samples.size}")
    b, a = design_butterworth_lowpass(spec)
    return _iir_forward(b, a, samples)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def standardize(rows) -> np.ndarray:
    """Zero-mean unit-variance rescaling (population std) over the last
    axis: one series, or each row of a batch.

    A constant series maps to all zeros by convention.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] < 2:
        raise LengthError("standardization needs at least 2 samples")
    centered = rows - rows.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.mean(centered**2, axis=-1, keepdims=True))
    return np.divide(centered, std, out=np.zeros_like(centered),
                     where=std != 0.0)


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
                  surrogates) -> LabeledDataset:
    """Pair every row of the (N, L) ``originals`` with its row of the
    (N, L) ``surrogates``, made under ``config`` (by ``pair_surrogates``
    in the surrogate stage), and standardize both.

    Standardization happens after surrogate generation, so it cannot
    disturb the spectral and distribution constraints the surrogates
    encode.
    """
    try:
        originals = np.asarray(originals, dtype=float)
    except ValueError:
        raise LengthError("originals have mixed lengths") from None
    if originals.ndim != 2 or originals.shape[0] < 1:
        raise LengthError("originals must be one nonempty (N, L) block, "
                          f"got shape {originals.shape}")
    if np.shape(surrogates) != originals.shape:
        raise LengthError("surrogate rows do not match the originals")

    n, L = originals.shape
    rows = np.empty((2 * n, L))
    rows[0::2] = originals
    rows[1::2] = surrogates
    if not np.isfinite(rows).all():
        raise ParameterError("all samples must be finite")
    return LabeledDataset(X=standardize(rows),
                          y=np.tile([LABEL_ORIGINAL, LABEL_SURROGATE], n),
                          pair_id=np.repeat(np.arange(n), 2),
                          split=np.full(2 * n, ""),
                          seeds={"surrogate": config.seed})


def split_sizes(n_pairs: int) -> tuple:
    """(test, validation) pair counts of a split of ``n_pairs`` pairs by
    ``TRAIN_FRAC`` and ``VAL_FRAC_OF_TRAIN``.

    Both are floored; the remainder stays in train.
    """
    # The 1e-9 nudge keeps exact fractions exact (0.30 * 750 must be 225
    # pairs, not 224) despite binary rounding of the fractions themselves.
    n_test = int(np.floor((1.0 - TRAIN_FRAC) * n_pairs + 1e-9))
    n_val = int(np.floor(VAL_FRAC_OF_TRAIN * (n_pairs - n_test) + 1e-9))
    return n_test, n_val


def split_dataset(dataset: LabeledDataset, seed: int) -> LabeledDataset:
    """Assign whole pairs to train/validation/test in the sizes that
    ``split_sizes`` gives."""
    # A set, not np.unique: numpy's sort code adds about 1 MB to peak RSS.
    pair_ids = sorted(set(dataset.pair_id.tolist()))
    n_pairs = len(pair_ids)
    if n_pairs < 3:
        raise SplitError(f"need at least 3 pairs to split, got {n_pairs}")
    n_test, n_val = split_sizes(n_pairs)

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
    header = ["pair_id", "label", "split"] + [f"s_{i}" for i in range(dataset.L)]
    rows = ([pid, label, tag, *row] for pid, label, tag, row
            in zip(dataset.pair_id.tolist(), dataset.y.tolist(),
                   dataset.split.tolist(), dataset.X))
    meta = {"L": dataset.L, "N": dataset.n_pairs, "seeds": dataset.seeds}
    if extra_meta:
        meta.update(extra_meta)
    write_table(path, rows, meta, header=header)


def load_dataset(path) -> LabeledDataset:
    """Read a dataset CSV written by ``save_dataset``.

    A row that does not have the header's width, a cell that does not
    parse, a label other than 0 or 1, or a split tag other than those in
    ``SPLITS`` raises ``ParseError`` with its line number, and so does an
    item in another split than its pair's first item.  A pair that is not
    one original and one surrogate, or an item count other than twice the
    sidecar's ``N`` (pairs), raises ``ParseError`` naming the file.
    """
    meta = read_meta(path)
    pair_id, y, split, X = [], [], [], []
    members, pair_split = {}, {}
    rows = read_table(path)
    if next(rows, None) is None:
        raise LengthError(f"{path} is empty")
    for line, row in rows:
        pid, label = parse_cells(row[:2], path, line, kind=int)
        if label not in (LABEL_ORIGINAL, LABEL_SURROGATE):
            raise ParseError(f"{path}: line {line}: label {label} is "
                             "neither 0 nor 1", line=line)
        if row[2] not in SPLITS:
            raise ParseError(f"{path}: line {line}: unknown split "
                             f"{row[2]!r}", line=line)
        if pair_split.setdefault(pid, row[2]) != row[2]:
            raise ParseError(f"{path}: line {line}: pair {pid} is in "
                             f"{row[2]!r} here but in {pair_split[pid]!r} "
                             "on an earlier line", line=line)
        pair_id.append(pid)
        y.append(label)
        split.append(row[2])
        X.append(np.array(parse_cells(row[3:], path, line)))
        members.setdefault(pid, []).append(label)
    if not X:
        raise LengthError(f"{path} contains no items")
    if "N" in meta and len(X) != 2 * meta["N"]:
        raise ParseError(f"{path}: {len(X)} items, but its sidecar says "
                         f"N = {meta['N']} pairs")
    one_each = sorted([LABEL_ORIGINAL, LABEL_SURROGATE])
    for pid, labels in members.items():
        if sorted(labels) != one_each:
            raise ParseError(f"{path}: pair {pid} is not one original and "
                             f"one surrogate (labels {labels})")
    return LabeledDataset(X=np.array(X), y=np.array(y),
                          pair_id=np.array(pair_id), split=np.array(split),
                          seeds=meta.get("seeds", {}))
