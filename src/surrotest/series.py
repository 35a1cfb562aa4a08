"""Helpers shared by all modules: sample coercion, the table and sidecar
format, and atomic writes.

A series is a 1-D float array and a batch of N realizations of length L
is one (N, L) array; provenance travels beside a batch as one dict, which
becomes the batch's JSON sidecar.

Only this module knows the table format, which ``write_table`` and
``read_table`` use for every CSV artifact: the ``csv`` default dialect
(CRLF ends), floats at 17 significant digits, blank rows skipped, rows as
wide as the first, and a ``<stem>.meta.json`` sidecar.  A row is written
with one ``%``-format of all its cells, and ``parse_floats`` reads a row
of floats with one conversion; the per-cell ``csv`` and ``parse_cells``
paths remain only for a cell that needs quoting or does not parse.
"""

from __future__ import annotations

import csv
import itertools
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


def _row_format(kinds: tuple):
    """The ``%``-format of a row whose cells have the types ``kinds``:
    floats at 17 significant digits, ints and strings as ``str`` gives
    them; None if a cell is of another type."""
    cells = []
    for kind in kinds:
        if issubclass(kind, float):
            cells.append("%.17g")
        elif issubclass(kind, (int, str)):
            cells.append("%s")
        else:
            return None
    return ",".join(cells) + "\r\n"


def _is_plain(text: str, width: int) -> bool:
    """Whether ``text`` is a row of ``width`` cells that ``csv`` writes as
    it is: no cell holds a comma, quote or line break, and the row is not
    one empty cell (which ``csv`` quotes)."""
    return (len(text) > 2 and text.count(",") == width - 1
            and text.count("\r") == text.count("\n") == 1
            and '"' not in text)


def write_table(path, rows, meta: dict, header=None) -> None:
    """Write ``rows`` (an iterable of rows, formatted one at a time) as a
    CSV with an optional header row, then ``meta`` as its sidecar.  Float
    cells are written at 17 significant digits, other cells as they are.

    A row is formatted with one ``%``-format of all its cells, made again
    only when the cell types change from the row before.  A row that
    ``csv`` would quote, or with a cell that is not a float, int or str,
    goes through ``csv.writer``, so the bytes are those of ``csv``.
    """
    if header is not None:
        rows = itertools.chain([header], rows)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        kinds = fmt = None
        for row in rows:
            row = tuple(row)
            if (row_kinds := tuple(map(type, row))) != kinds:
                kinds, fmt = row_kinds, _row_format(row_kinds)
            text = fmt % row if fmt else ""
            if _is_plain(text, len(row)):
                fh.write(text)
            else:
                writer.writerow(["%.17g" % v if isinstance(v, float) else v
                                 for v in row])
    write_json(meta_path(path), meta)


def read_table(path, width: int | None = None):
    """Yield ``(line, cells)`` for each nonempty CSV row, with its 1-based
    line number.  A row that is not ``width`` cells wide (without a width:
    as wide as the first), or not UTF-8, raises ``ParseError`` naming it."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for cells in reader:
            if not cells:
                continue
            width = width or len(cells)
            if len(cells) != width:
                raise ParseError(f"{path}: line {reader.line_num}: expected "
                                 f"{width} fields, got {len(cells)}",
                                 line=reader.line_num)
            yield reader.line_num, cells


def file_sha256(path) -> str:
    import hashlib  # loads OpenSSL: not at import, so CLI start-up skips it
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path, blob) -> None:
    """Sorted, indented JSON with a trailing newline, written atomically."""
    with atomic_open(path) as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
