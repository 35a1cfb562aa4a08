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

from . import spectral
from .errors import LengthError, ParameterError, ParseError, SplitError
from .seeding import derived_seed
from .series import (as_samples, open_text, parse_cells, parse_floats,
                     read_meta, read_table, write_table)

SPLITS = ("train", "validation", "test")

# Pair-level split: a quarter of the pairs for test, then 30% of the rest
# for validation.  With 1000 pairs: 250 test, 225 validation, 525 train.
TRAIN_FRAC = 0.75
VAL_FRAC_OF_TRAIN = 0.30

LABEL_ORIGINAL = 1
LABEL_SURROGATE = 0

# Samples per block when a record is filtered: the most that is held as
# Python floats (about 32 bytes each) at any one time.
BLOCK = 1 << 12

# Characters of record text read and parsed at a time (a longer line is
# read whole).  Blocks this small cost no time and keep the small objects
# of ingest and filter within the memory that training reuses.
READ_CHARS = 1 << 14


# ---------------------------------------------------------------------------
# Record ingestion
# ---------------------------------------------------------------------------

def load_series(path) -> np.ndarray:
    """Read a record from disk: one numeral per line, comma-separated
    numerals, or both, in file order.  Blank lines are skipped; any other
    line that does not parse, or is not UTF-8, raises with its number.

    Lines are read in blocks of about ``READ_CHARS`` characters, and the
    numerals of a block are converted in one call into one float64 block;
    only a block that fails is parsed again line by line, to name the bad
    line.  So ingest holds one block of line text at a time, never the
    record as Python objects.
    """
    path = Path(path)
    blocks, first = [], 1
    with open_text(path) as fh:
        while lines := fh.readlines(READ_CHARS):
            blocks.append(_parse_lines(lines, path, first))
            first += len(lines)
    if not any(block.size for block in blocks):
        raise LengthError(f"{path} contains no samples")
    return np.concatenate(blocks)


def _parse_lines(lines: list, path, first: int) -> np.ndarray:
    """The numerals of ``lines`` (the first is line ``first``) in order,
    converted in one call; a block fails only where ``parse_cells`` fails,
    so it is parsed again line by line only to raise that line's error."""
    text = ",".join(filter(None, map(str.strip, lines)))
    try:
        return parse_floats(text.split(",") if text else [], path, first)
    except ParseError:
        for lineno, line in enumerate(lines, start=first):
            if text := line.strip():
                parse_cells(text.split(","), path, lineno)
        raise


# ---------------------------------------------------------------------------
# Butterworth low-pass pre-filter
# ---------------------------------------------------------------------------

@dataclass
class FilterSpec:
    """Low-pass design: cutoff and rate in Hz.  The order is fixed at 4
    (``_iir_forward`` keeps its state in four locals) and is not an
    argument; it stays a field so that sidecars record it."""

    cutoff_hz: float
    sampling_rate_hz: float
    order: int = field(default=4, init=False)

    def __post_init__(self):
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
    """Single causal pass of the order-4 filter, direct form II transposed.

    The recurrence runs on Python floats, which round like numpy float64
    scalars but cost far less per operation, and keeps its state in
    locals.  It walks the record in blocks of ``BLOCK`` samples, so only
    one block is held as Python floats at a time.
    """
    b0, b1, b2, b3, b4 = b.tolist()
    _, a1, a2, a3, a4 = a.tolist()
    z0 = z1 = z2 = z3 = 0.0
    y = np.empty_like(x)
    for lo in range(0, x.size, BLOCK):
        out = []
        for xi in x[lo:lo + BLOCK].tolist():
            yi = b0 * xi + z0
            z0 = b1 * xi + z1 - a1 * yi
            z1 = b2 * xi + z2 - a2 * yi
            z2 = b3 * xi + z3 - a3 * yi
            z3 = b4 * xi - a4 * yi
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
    """N pairs, each a standardized original and its standardized
    surrogate, with one split tag per pair."""

    pairs: np.ndarray             # (N, 2, L): original, then its surrogate
    split: np.ndarray             # (N,) str: one of SPLITS, "" if unsplit

    def items(self, tag: str) -> tuple:
        """(X, y) of the pairs tagged ``tag``: each original (label 1)
        directly followed by its surrogate (label 0)."""
        chosen = self.pairs[self.split == tag]
        return (chosen.reshape(-1, self.pairs.shape[2]),
                np.tile([LABEL_ORIGINAL, LABEL_SURROGATE], len(chosen)))


def pair_surrogates(originals, config: spectral.SurrogateConfig) -> list:
    """One IAAFT surrogate per original, on independent per-pair seed
    streams.  ``spectral.iaaft_surrogate`` is looked up at each call, so a
    wrapper set on the module sees every surrogate made."""
    return [spectral.iaaft_surrogate(
                orig, replace(config, seed=derived_seed(config.seed, pid)))
            for pid, orig in enumerate(originals)]


def build_dataset(originals, surrogates) -> LabeledDataset:
    """Pair every row of the (N, L) ``originals`` with its row of the
    (N, L) ``surrogates`` (made by ``pair_surrogates`` in the surrogate
    stage), and standardize both.

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

    pairs = np.stack([originals, surrogates], axis=1)
    if not np.isfinite(pairs).all():
        raise ParameterError("all samples must be finite")
    return LabeledDataset(pairs=standardize(pairs),
                          split=np.full(len(pairs), ""))


def split_sizes(n_pairs: int) -> tuple:
    """(test, validation) pair counts of a split of ``n_pairs`` pairs by
    ``TRAIN_FRAC`` and ``VAL_FRAC_OF_TRAIN``.

    Both are floored; the remainder stays in train.  Fewer than 5 pairs
    would leave test or validation empty and raise ``SplitError``.
    """
    # The 1e-9 nudge keeps exact fractions exact (0.30 * 750 must be 225
    # pairs, not 224) despite binary rounding of the fractions themselves.
    n_test = int(np.floor((1.0 - TRAIN_FRAC) * n_pairs + 1e-9))
    n_val = int(np.floor(VAL_FRAC_OF_TRAIN * (n_pairs - n_test) + 1e-9))
    if min(n_test, n_val) < 1:
        raise SplitError("need at least 5 pairs, so that test and validation "
                         f"are not empty, got {n_pairs}")
    return n_test, n_val


def split_dataset(dataset: LabeledDataset, seed: int) -> LabeledDataset:
    """Tag whole pairs train/validation/test in the sizes that
    ``split_sizes`` gives."""
    n_pairs = len(dataset.pairs)
    n_test, n_val = split_sizes(n_pairs)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    # The pair at rank r of the permutation gets the r-th tag.
    ranked = np.repeat(["test", "validation", "train"],
                       [n_test, n_val, n_pairs - n_test - n_val])
    split = np.empty_like(ranked)
    split[rng.permutation(n_pairs)] = ranked
    return replace(dataset, split=split)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_dataset(path, dataset: LabeledDataset, extra_meta: dict | None = None) -> None:
    """CSV with columns [pair_id, label, split, s_0 .. s_{L-1}], one row
    per item, each original directly followed by its surrogate, + sidecar."""
    n, _, L = dataset.pairs.shape
    header = ["pair_id", "label", "split"] + [f"s_{i}" for i in range(L)]
    rows = ([pid, label, tag, *item.tolist()]
            for pid, (pair, tag) in enumerate(zip(dataset.pairs,
                                                  dataset.split.tolist()))
            for label, item in zip((LABEL_ORIGINAL, LABEL_SURROGATE), pair))
    meta = {"L": L, "N": n}
    if extra_meta:
        meta.update(extra_meta)
    write_table(path, rows, meta, header=header)


def load_dataset(path) -> LabeledDataset:
    """Read a dataset CSV written by ``save_dataset``.

    A row that is not 3 + the sidecar's ``L`` cells wide (without one: the
    header's width), a cell that does not parse, or a split tag other than
    those in ``SPLITS`` raises ``ParseError`` with its line number, and so
    does a data row 2i that is not pair i's original (pair_id i, label 1)
    or a row 2i + 1 that is not its surrogate (pair_id i, label 0) in its
    original's split.  An odd item count, or one other than twice the
    sidecar's ``N`` (pairs), raises ``ParseError`` naming the file.
    """
    meta = read_meta(path)
    split, X = [], []
    rows = read_table(path, 3 + meta["L"] if "L" in meta else None)
    if next(rows, None) is None:
        raise LengthError(f"{path} is empty")
    for line, row in rows:
        pid, label = parse_cells(row[:2], path, line, kind=int)
        if row[2] not in SPLITS:
            raise ParseError(f"{path}: line {line}: unknown split "
                             f"{row[2]!r}", line=line)
        i, surrogate = divmod(len(X), 2)
        want = (i, LABEL_SURROGATE if surrogate else LABEL_ORIGINAL,
                split[-1] if surrogate else row[2])
        if (pid, label, row[2]) != want:
            role = f"surrogate in {want[2]!r}" if surrogate else "original"
            raise ParseError(f"{path}: line {line}: pair {pid} is in "
                             f"{row[2]!r} with label {label}, but this line "
                             f"must hold pair {i}'s {role} (label {want[1]})",
                             line=line)
        if not surrogate:
            split.append(row[2])
        X.append(parse_floats(row[3:], path, line))
    if not X:
        raise LengthError(f"{path} contains no items")
    if len(X) % 2:
        raise ParseError(f"{path}: {len(X)} items, so pair {len(X) // 2} "
                         "has no surrogate")
    if "N" in meta and len(X) != 2 * meta["N"]:
        raise ParseError(f"{path}: {len(X)} items, but its sidecar says "
                         f"N = {meta['N']} pairs")
    return LabeledDataset(pairs=np.array(X).reshape(len(split), 2, -1),
                          split=np.array(split))
