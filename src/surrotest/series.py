"""Helpers shared by all modules: sample coercion, the table and sidecar
format, and atomic writes.

A series is a 1-D float array and a batch of N realizations of length L
is one (N, L) array; provenance travels beside a batch as one dict, which
becomes the batch's JSON sidecar.

Only this module knows the table format, which ``write_table`` and
``read_table`` use for every CSV artifact: the ``csv`` default dialect
(CRLF ends), floats at 17 significant digits, blank rows skipped, rows as
wide as the first, and a ``<stem>.meta.json`` sidecar.  A row is written
with one ``%``-format of all its cells and never quoted, since no cell
the program writes holds a comma, quote or line break; ``parse_floats``
reads a row of floats with one conversion, and the per-cell
``parse_cells`` path remains only to name a cell that does not parse.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParameterError, ParseError


def as_samples(series) -> np.ndarray:
    """Coerce an array-like to a 1-D float array; a non-finite sample
    raises ``ParameterError``."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"expected a 1-D series, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError("all samples must be finite")
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


def parse_floats(cells, path, line: int) -> np.ndarray:
    """The cells of one row as a float array, converted in one call (numpy
    calls ``float`` on each cell, so it accepts what ``parse_cells``
    accepts); a bad or non-finite cell raises ``ParseError`` naming it."""
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        pass
    else:
        if np.isfinite(values).all():
            return values
    return np.array(parse_cells(cells, path, line))


def meta_path(path) -> Path:
    """The JSON sidecar that goes with an artifact: ``<stem>.meta.json``."""
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


@contextmanager
def open_text(path, newline=None):
    """``path`` opened for reading as UTF-8; bytes that are not UTF-8
    raise ``ParseError`` naming the file and the first line holding them."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # Decoding is chunked; only a line that is not UTF-8 changes here.
        with open(path, "rb") as fh:
            line = next(n for n, raw in enumerate(fh, start=1)
                        if raw.decode("utf-8", "replace").encode() != raw)
        raise ParseError(f"{path}: line {line}: not UTF-8 text",
                         line=line) from None


def read_json(path):
    """The parsed JSON file ``path``; malformed JSON or text that is not
    UTF-8 raises ``ParseError`` naming the file and line, and a ``NaN`` or
    ``Infinity`` constant raises ``ParseError`` naming the file."""
    def refuse(constant):
        raise ParseError(f"{path}: {constant} is not a finite number")

    with open_text(path) as fh:
        try:
            return json.load(fh, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}",
                             line=exc.lineno) from None


def read_meta(path, types: dict | None = None) -> dict:
    """The sidecar of ``path``, or {} without one.  A top level that is not
    an object, an ``L`` or ``N`` that is not a JSON integer, or a key of
    ``types`` (key -> types) of another JSON type raises ``ParseError``."""
    sidecar = meta_path(path)
    if not sidecar.exists():
        return {}
    meta = read_json(sidecar)
    if not isinstance(meta, dict):
        raise ParseError(f"{sidecar}: the top level must be a JSON object")
    for key, allowed in {"L": int, "N": int, **(types or {})}.items():
        value = meta.get(key)
        if key in meta and (isinstance(value, bool)
                            or not isinstance(value, allowed)):
            raise ParseError(f"{sidecar}: {key} has the wrong type: "
                             f"{json.dumps(value)}")
    return meta


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


def write_table(path, rows, meta: dict, header=None) -> None:
    """Write ``rows`` (an iterable of rows, formatted one at a time) as a
    CSV with an optional header row, then ``meta`` as its sidecar.

    A row is one ``%``-format of its cells, ``%.17g`` for a float and
    ``%s`` for any other, made again only when the cell types change.  The
    program writes only numbers, column names and split tags, so no cell
    holds a comma, a quote or a line break, and the bytes are those of
    ``csv``'s default dialect.
    """
    with atomic_open(path, newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        kinds = None
        for row in rows:
            row = tuple(row)
            if (row_kinds := tuple(map(type, row))) != kinds:
                kinds = row_kinds
                fmt = ",".join("%.17g" if issubclass(kind, float) else "%s"
                               for kind in kinds) + "\r\n"
            fh.write(fmt % row)
    write_json(meta_path(path), meta)


def read_table(path, width: int | None = None):
    """Yield ``(line, cells)`` for each nonempty CSV row, with its 1-based
    line number.  A row not ``width`` cells wide (without a width: as wide
    as the first), not UTF-8, or that ``csv`` refuses (such as a cell over
    its field size limit) raises ``ParseError`` naming it."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for cells in reader:
                if not cells:
                    continue
                width = width or len(cells)
                if len(cells) != width:
                    raise ParseError(f"{path}: line {reader.line_num}: "
                                     f"expected {width} fields, got "
                                     f"{len(cells)}", line=reader.line_num)
                yield reader.line_num, cells
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}",
                             line=reader.line_num) from None


def file_sha256(path) -> str:
    import hashlib  # loads OpenSSL: not at import, so CLI start-up skips it
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path, blob) -> None:
    """Sorted, indented JSON with a trailing newline, written atomically."""
    with atomic_open(path) as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
