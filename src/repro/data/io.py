"""CSV and streaming I/O for :class:`~repro.data.schema.Table`.

The only module that knows the CSV format: a header row, then one tuple
per row (quoted fields and a byte-order mark accepted).  The ``specs``
passed in name the columns to load; like the paper's binner (Section
3.1), which keeps only the two LHS attributes and the RHS, the reader
never converts the other columns.  Bad input raises ``DataError``.

The paper's scale-up experiment (Figure 15) needs "only a constant
amount of main memory regardless of the size of the database";
:func:`stream_csv` is the matching ingestion path, yielding fixed-size
table chunks so the binner never materialises the file.
"""

from __future__ import annotations

import csv
import logging
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.data.schema import AttributeSpec, DataError, Table
from repro.data.schema import categorical, quantitative
from repro.data.synthetic import DEMOGRAPHIC_ATTRIBUTES, GROUP_ATTRIBUTE

logger = logging.getLogger(__name__)


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` as a header-first CSV file."""
    names = table.attribute_names
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(zip(*(table.column(name) for name in names)))


def infer_specs(path: str | Path) -> list[AttributeSpec]:
    """A CSV's specs in header order, typed from the first data row; the
    synthetic generator's header yields its declared specs (declared
    domains keep bin layouts canonical)."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        sample = next(filter(None, reader), None)
    if not header:
        raise DataError(f"{path} is empty: no header row")
    if sample is None:
        raise DataError(f"{path} holds no tuples")
    declared = {spec.name: spec
                for spec in (*DEMOGRAPHIC_ATTRIBUTES, GROUP_ATTRIBUTE)}
    if set(header) == set(declared):
        return [declared[name] for name in header]
    specs = []
    # A ragged sample row is reported, with its line, by the load.
    for name, value in zip(header, sample + [""] * len(header)):
        try:
            float(value)
        except ValueError:
            specs.append(categorical(name))
        else:
            specs.append(quantitative(name))
    return specs


def read_csv(path: str | Path, specs: Sequence[AttributeSpec]) -> Table:
    """Read the ``specs`` columns of a CSV file, in header order."""
    # Small chunks hold few rows as strings; dropping each chunk column
    # once it is joined keeps the peak near one copy of the table.
    chunks = list(stream_csv(path, specs, chunk_rows=8192))
    if not chunks:
        return Table.from_columns(specs, {spec.name: [] for spec in specs})
    table = Table(schema=dict(chunks[0].schema), columns={
        name: np.concatenate([chunk.columns.pop(name) for chunk in chunks])
        for name in chunks[0].schema
    })
    logger.debug("read %d tuples from %s (%d chunks)",
                 len(table), path, len(chunks))
    return table


def stream_csv(path: str | Path, specs: Sequence[AttributeSpec],
               chunk_rows: int = 65536) -> Iterator[Table]:
    """Yield :class:`Table` chunks of at most ``chunk_rows`` rows from a
    CSV whose header names every column in ``specs`` (and none twice).
    Only one chunk is resident at a time."""
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    wanted = {spec.name: spec for spec in specs}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return
        missing = [name for name in wanted if name not in header]
        if missing or len(set(header)) != len(header):
            raise DataError(f"CSV header mismatch: missing={missing}, "
                            f"header={header}")
        columns = [(index, wanted[name])
                   for index, name in enumerate(header) if name in wanted]
        rows, lines = [], []
        for line_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                if not row:
                    continue
                _check_numbers(columns, rows, lines)  # earlier lines first
                raise DataError(f"line {line_number}: expected "
                                f"{len(header)} fields, got {len(row)}")
            rows.append(row)
            lines.append(line_number)
            if len(rows) == chunk_rows:
                yield _chunk(columns, rows, lines)
                rows, lines = [], []
        if rows:
            yield _chunk(columns, rows, lines)


def _chunk(columns: list, rows: list, lines: list) -> Table:
    arrays = {}
    for index, spec in columns:
        values = map(itemgetter(index), rows)
        if spec.is_categorical:
            # One object per distinct value: a compact column, and ``==``
            # on it takes the identity shortcut.
            seen: dict[str, str] = {}
            values, dtype = (seen.setdefault(v, v) for v in values), object
        else:
            values, dtype = map(float, values), np.float64
        try:
            arrays[spec.name] = np.fromiter(values, dtype, len(rows))
        except ValueError:
            _check_numbers(columns, rows, lines)
            raise
    return Table(schema={spec.name: spec for _, spec in columns},
                 columns=arrays)


def _check_numbers(columns: list, rows: list, lines: list) -> None:
    """Raise what a row-wise parser would: the first unparsable
    quantitative field by line, then by header position."""
    for row, line_number in zip(rows, lines):
        for index, spec in columns:
            if spec.is_quantitative:
                try:
                    float(row[index])
                except ValueError:
                    raise DataError(
                        f"line {line_number}: {row[index]!r} is not a "
                        f"number for quantitative attribute {spec.name!r}"
                    ) from None
