"""Time series container and small helpers shared by all modules."""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import LengthError, ParameterError, ParseError


@dataclass
class TimeSeries:
    """Ordered real-valued samples plus provenance metadata.

    ``dt`` is the sampling interval in model time units and is ``None`` for
    discrete maps and other unit-free sources.  ``meta`` records whatever is
    needed to regenerate the series (system name, parameters, seed, burn-in).
    """

    samples: np.ndarray
    dt: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ParameterError(
                f"samples must be one-dimensional, got shape {self.samples.shape}"
            )
        if self.samples.size < 1:
            raise LengthError("a time series needs at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ParameterError("all samples must be finite")

    def __len__(self):
        return self.samples.size

    def with_samples(self, samples, **meta_updates) -> "TimeSeries":
        """Copy of this series with new samples and updated metadata."""
        meta = dict(self.meta)
        meta.update(meta_updates)
        return TimeSeries(np.asarray(samples, dtype=float), dt=self.dt, meta=meta)


def as_samples(series) -> np.ndarray:
    """Coerce a TimeSeries or array-like to a 1-D float array."""
    if isinstance(series, TimeSeries):
        return series.samples
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"expected a 1-D series, got shape {arr.shape}")
    return arr


def parse_cells(tokens, path, line: int, kind=float) -> list:
    """Cells converted by ``kind``; a bad or non-finite cell raises
    ``ParseError``."""
    values = []
    for tok in tokens:
        try:
            values.append(kind(tok))
            if not math.isfinite(values[-1]):
                raise ValueError
        except ValueError:
            raise ParseError(f"{path}: line {line}: cannot parse {tok.strip()!r} "
                             "as a finite number", line=line) from None
    return values


def check_width(row, width: int, path, line: int) -> None:
    """Raise ``ParseError`` for a CSV row that does not have ``width`` cells."""
    if len(row) != width:
        raise ParseError(f"{path}: line {line}: expected {width} fields, "
                         f"got {len(row)}", line=line)


def meta_path(path) -> Path:
    """The JSON sidecar that goes with an artifact: ``<stem>.meta.json``."""
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def read_json(path):
    """The parsed JSON file ``path``; malformed JSON raises ``ParseError``
    naming the file and line."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}",
                             line=exc.lineno) from None


def read_meta(path) -> dict:
    """The sidecar of ``path``, or {} when there is none."""
    sidecar = meta_path(path)
    return read_json(sidecar) if sidecar.exists() else {}


@contextmanager
def atomic_open(path, newline=None):
    """Open a temporary text file beside ``path`` for writing; it replaces
    ``path`` only when the block succeeds, so a failed write leaves the old
    file and no partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_sha256(path) -> str:
    import hashlib  # loads OpenSSL: not at import, so CLI start-up skips it
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path, blob) -> None:
    """Sorted, indented JSON with a trailing newline, written atomically."""
    with atomic_open(path) as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
