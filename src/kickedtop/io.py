"""CSV and manifest emission.

Every CSV starts with '#'-prefixed metadata lines (tool version, full
run configuration, seed) followed by a header row and data rows.  Floats
are written with shortest round-trip repr, so a fixed configuration
yields byte-identical files.  Run-varying metadata (wall time) goes to
the sibling JSON manifest, keeping the CSVs diffable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _column_text(a: np.ndarray):
    """Cell texts of one column, as ``_fmt`` writes them.

    Float and integer columns are formatted in one pass over
    ``a.tolist()``; other dtypes (bool, str, object, complex) go through
    ``_fmt`` cell by cell, since ``tolist`` would turn numpy bools into
    Python bools, which ``_fmt`` writes as integers.
    """
    if a.ndim == 1 and a.dtype.kind == "f":
        return map(repr, a.tolist())
    if a.ndim == 1 and a.dtype.kind in "iu":
        return map(str, a.tolist())
    return map(_fmt, a)


def write_csv(path, columns: dict, metadata: dict) -> Path:
    """Write named columns with a '#' metadata header; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise ValueError("all columns must have equal length")
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(_column_text, arrays))))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_manifest(path, manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path


def read_csv(path) -> tuple[dict, dict]:
    """Read back a CSV written by write_csv: (metadata, columns)."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    data = np.array(rows, dtype=object)
    columns = {}
    for k, name in enumerate(header):
        col = data[:, k] if rows else np.array([])
        try:
            columns[name] = col.astype(float)
        except ValueError:
            columns[name] = col
    return meta, columns
