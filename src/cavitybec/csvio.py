"""CSV output with a JSON metadata header line.

Every table starts with a single ``#``-prefixed line holding a JSON object
(resolved parameters, command name, package version) followed by a normal
CSV header and rows.  Floats are written with repr so repeated runs are
bit-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def _json_default(value):
    """What json cannot write itself: numpy scalars and arrays (np.float64
    is a float, and json writes it as one)."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_JSON = json.JSONEncoder(sort_keys=True, default=_json_default)


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_table(path, fieldnames, rows, meta: dict) -> Path:
    """Write rows (sequences or dicts) under a '#'-prefixed JSON header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("#" + _JSON.encode(meta) + "\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            if isinstance(row, dict):
                row = [row[name] for name in fieldnames]
            writer.writerow([_cell(v) for v in row])
    return path


def read_table(path):
    """Read back a table written by write_table: (meta, fieldnames, rows).

    Rows come back as dicts of floats (strings if not parseable)."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing JSON header line")
        meta = json.loads(first[1:])
        reader = csv.reader(fh)
        fieldnames = next(reader)
        rows = []
        for raw in reader:
            row = {}
            for name, cell in zip(fieldnames, raw):
                try:
                    row[name] = float(cell)
                except ValueError:
                    row[name] = cell
            rows.append(row)
    return meta, fieldnames, rows


def write_json_lines(path, records, meta: dict) -> Path:
    """One JSON object per line, after the same '#'-prefixed header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("#" + _JSON.encode(meta) + "\n")
        for rec in records:
            fh.write(_JSON.encode(rec) + "\n")
    return path
