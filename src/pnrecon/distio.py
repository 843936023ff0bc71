"""File formats shared by the CLI pipeline stages.

Distributions travel as JSON objects with a "probs" array plus free-form
metadata (bare JSON arrays and whitespace/comma-separated text are also
accepted on input). Floats are always written with 17 significant digits
so values round-trip exactly and repeated runs produce byte-identical
files. Float arrays are formatted in bulk: one finiteness check per array
and one C-level "%.17g" pass per row, giving the same bytes as
formatting each value on its own.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .detector import CountDistribution, DetectorParams, ResponseMatrix
from .states import ParseError, _require_integer, parse_vector

__all__ = [
    "dumps",
    "write_json",
    "write_distribution",
    "read_distribution",
    "write_matrix",
    "read_matrix",
    "write_plot_table",
]


def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def _format_rows(values: np.ndarray, sep: str) -> list[str]:
    """One string per row of a 1-D or 2-D float array (a 1-D array is one
    row), its "%.17g" entries joined by sep in a single C-level pass."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        at = tuple(bad[0].tolist())
        raise ValueError(
            f"cannot serialize non-finite value {float(values[at])!r} "
            f"at index {', '.join(map(str, at))}"
        )
    fmt = sep.join(["%.17g"] * values.shape[-1])
    return [fmt % tuple(row) for row in np.atleast_2d(values).tolist()]


def dumps(obj, indent: int = 0) -> str:
    """Serialize to JSON with fixed float formatting (17 significant
    digits) and stable key order (insertion order preserved)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {dumps(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim in (1, 2) and obj.size:
            deep = " " * (indent + 2 * obj.ndim)
            rows = _format_rows(obj, ",\n" + deep)
            if obj.ndim == 2:
                rows = [f"[\n{deep}{row}\n{inner}]" for row in rows]
            return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + pad + "]"
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{dumps(value, indent + 2)}" for value in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj) + "\n", encoding="utf-8")


def write_distribution(path, values, metadata=None, fmt: str = "json") -> None:
    """Write a distribution file.

    fmt "json" produces a bare JSON array, or an object with a "probs"
    array when metadata is supplied; fmt "csv" produces plain newline-
    separated reals. All three forms are accepted back by the readers.
    """
    values = np.asarray(values, dtype=float)
    if fmt == "csv":
        lines = _format_rows(values, "\n")[0]
        Path(path).write_text(lines + "\n", encoding="utf-8")
        return
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    if metadata:
        payload = {"probs": values}
        payload.update(metadata)
        write_json(path, payload)
    else:
        write_json(path, values)


def read_distribution(path) -> tuple[np.ndarray, dict]:
    """Read any accepted distribution format; returns (values, metadata)."""
    return parse_vector(Path(path).read_text(encoding="utf-8"))


def write_matrix(path, mat: ResponseMatrix) -> None:
    write_json(
        path,
        {
            "eta": mat.params.eta,
            "n_noise": mat.params.n_noise,
            "n_max": mat.n_max,
            "m_max": mat.m_max,
            "entries": mat.entries,
        },
    )


def read_matrix(path) -> ResponseMatrix:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        params = DetectorParams(payload["eta"], payload["n_noise"])
        m_max, n_max = (_require_integer(k, payload[k]) for k in ("m_max", "n_max"))
        if min(m_max, n_max) < 0:
            raise ValueError(f"m_max and n_max must be >= 0, got {m_max}, {n_max}")
        mat = ResponseMatrix(payload["entries"], params)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"invalid response-matrix file {path}: {exc}") from exc
    if mat.entries.shape != (m_max + 1, n_max + 1):
        raise ParseError(
            f"entries shape {mat.entries.shape} does not match declared window "
            f"m_max = {m_max}, n_max = {n_max}"
        )
    return mat


def read_counts(path) -> tuple[CountDistribution, dict]:
    values, metadata = read_distribution(path)
    dist = CountDistribution(values)
    dist.validate()
    return dist, metadata


def write_plot_table(path, columns: dict) -> None:
    """Write aligned series as CSV: one header row, then one row per index,
    shorter series padded with zeros."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = max(arr.size for arr in arrays)
    table = np.zeros((length, len(arrays)))  # +0.0 formats as "0"
    for j, arr in enumerate(arrays):
        table[: arr.size, j] = arr
    rows = [",".join(["n"] + names)]
    rows += [f"{i},{row}" for i, row in enumerate(_format_rows(table, ","))]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
