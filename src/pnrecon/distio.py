"""File formats shared by the CLI pipeline stages.

Distributions travel as JSON objects with a "probs" array plus free-form
metadata (bare JSON arrays and whitespace/comma-separated text are also
accepted on input). Floats are always written with 17 significant digits
so values round-trip exactly and repeated runs produce byte-identical
files. A float vector is written one value per line and a float matrix
(a response matrix's entries) one row per line, as ``[v, v, ...]``, so
a matrix file carries about a fifth less indent whitespace than one
number per line would, and reading one holds less text next to its
Python floats. Float arrays are formatted in bulk: one finiteness check
per array and one C-level "%.17g" pass per vector or matrix row, giving
the same bytes as formatting each value on its own. Inside a ``_format_once()``
block each distinct vector (by dtype and bytes) is formatted once and
its texts are reused by every later write that carries it, so a run that
writes one vector to several files formats it once; the memo is dropped
when the block exits. A JSON write checks the whole object (non-finite
values, unsupported types) before it opens the file, so a failed write
leaves no file and an existing one untouched; it then streams the text a
row at a time, needing about one row beyond the object.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from pathlib import Path

import numpy as np

from .detector import DetectorParams, ResponseMatrix
from .states import (_SUM_UPPER_SLACK, ParseError, _require_integer,
                     _require_probabilities, _require_vector, parse_vector)

__all__ = [
    "dumps",
    "write_json",
    "write_distribution",
    "read_distribution",
    "read_counts",
    "write_matrix",
    "read_matrix",
    "write_plot_table",
]


def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


# the texts of each vector formatted in the current _format_once() block,
# keyed by (dtype, bytes); None outside any block
_memo: ContextVar[dict | None] = ContextVar("pnrecon_distio_memo", default=None)


@contextmanager
def _format_once():
    """Within the block, format each distinct float vector once and hand
    its texts to every write that carries it; the memo goes on exit."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _format_vector(values: np.ndarray) -> list[str]:
    """The "%.17g" texts of a checked 1-d float vector, in one C-level pass."""
    if not values.size:
        return []
    return (",".join(["%.17g"] * values.size) % tuple(values.tolist())).split(",")


def _texts(values: np.ndarray) -> list[str]:
    """_format_vector(values), taken from the memo of the enclosing
    _format_once() block if it holds that vector's texts."""
    memo = _memo.get()
    if memo is None:
        return _format_vector(values)
    key = (values.dtype.str, values.tobytes())
    texts = memo.get(key)
    if texts is None:
        texts = memo[key] = _format_vector(values)
    return texts


def _format_rows(values: np.ndarray, sep: str) -> Iterator[str]:
    """Check a 1-D or 2-D float array (a 1-D array is one row, its texts
    from _texts), then return a lazy iterator over its rows, each row's
    "%.17g" entries joined by sep."""
    finite = np.isfinite(values)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist())
        raise ValueError(
            f"cannot serialize non-finite value {float(values[at])!r} "
            f"at index {', '.join(map(str, at))}"
        )
    if values.ndim == 1:
        return (sep.join(_texts(row)) for row in [values])
    fmt = sep.join(["%.17g"] * values.shape[-1])
    return (fmt % tuple(row.tolist()) for row in values)


def _walk(obj, indent: int) -> Iterator:
    """Yield the JSON text of obj in pieces, checking each value when it is
    reached; a float array is checked whole and then yields one lazy
    iterator over its lines: one value each for a vector, one row each,
    as ``[v, v, ...]``, for a matrix."""
    pad, inner = " " * indent, " " * (indent + 2)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2) and obj.size:
        if obj.ndim == 2:  # one matrix row per line
            rows = ("[" + row + "]" for row in _format_rows(obj, ", "))
        else:  # one value per line
            rows = _format_rows(obj, ",\n" + inner)
        yield "[\n"
        yield ((",\n" if m else "") + inner + row for m, row in enumerate(rows))
        yield "\n" + pad + "]"
        return
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(obj.items()):
            yield ("{\n" if i == 0 else ",\n") + inner + json.dumps(str(key)) + ": "
            yield from _walk(value, indent + 2)
        yield "\n" + pad + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        for i, value in enumerate(obj):
            yield ("[\n" if i == 0 else ",\n") + inner
            yield from _walk(value, indent + 2)
        yield "\n" + pad + "]"
    elif isinstance(obj, (bool, str, dict, list, tuple)) or obj is None:  # incl. {} and []
        yield json.dumps(obj)
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield _format_float(float(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _pieces(obj) -> Iterator[str]:
    """Check obj whole, then return an iterator over its JSON text."""
    plan = list(_walk(obj, 0))
    return chain.from_iterable([piece] if isinstance(piece, str) else piece for piece in plan)


def dumps(obj) -> str:
    """Serialize to JSON with fixed float formatting (17 significant
    digits) and stable key order (insertion order preserved)."""
    return "".join(_pieces(obj))


def write_json(path, obj) -> None:
    pieces = _pieces(obj)  # raises before the file is opened
    with open(path, "w", encoding="utf-8") as file:
        file.writelines(pieces)
        file.write("\n")


def write_distribution(path, values, metadata=None, fmt: str = "json") -> None:
    """Write a distribution file.

    fmt "json" produces a bare JSON array, or an object with a "probs"
    array when metadata is supplied; fmt "csv" produces plain newline-
    separated reals. All three forms are accepted back by the readers.
    In either format ``values`` must be a 1-d vector: anything else
    raises ValueError naming its shape, and no file is written.
    """
    values = _require_vector(values, "distribution")
    if fmt == "csv":
        lines = next(_format_rows(values, "\n"))
        Path(path).write_text(lines + "\n", encoding="utf-8")
        return
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    if metadata:
        if "probs" in metadata:
            raise ValueError('metadata key "probs" would replace the values')
        write_json(path, {"probs": values, **metadata})
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


def _require_numbers(rows) -> None:
    """Reject a matrix entry that is not a JSON number (a bool, string, null
    or list), naming the first by its (m, n); one type set over the entries
    keeps a valid file cheap. Rows not all lists are left to the shape check."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        return
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        m, n, value = next((m, n, v) for m, row in enumerate(rows) for n, v in enumerate(row)
                           if type(v) not in (int, float))
        raise ValueError(f"entry {value!r} at (m, n) = ({m}, {n}) is not a JSON number")


def read_matrix(path) -> ResponseMatrix:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        params = DetectorParams(payload["eta"], payload["n_noise"])
        m_max, n_max = (_require_integer(k, payload[k]) for k in ("m_max", "n_max"))
        if min(m_max, n_max) < 0:
            raise ValueError(f"m_max and n_max must be >= 0, got {m_max}, {n_max}")
        _require_numbers(payload["entries"])
        mat = ResponseMatrix(payload["entries"], params)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"invalid response-matrix file {path}: {exc}") from exc
    if mat.entries.shape != (m_max + 1, n_max + 1):
        raise ParseError(
            f"entries shape {mat.entries.shape} does not match declared window "
            f"m_max = {m_max}, n_max = {n_max}"
        )
    return mat


def read_counts(path) -> tuple[np.ndarray, dict]:
    """Read a count distribution file; returns (values, metadata). Rejects
    a non-finite or negative entry and total mass above 1 + 1e-12."""
    values, metadata = read_distribution(path)
    _require_probabilities(values, "count", "m")
    if float(values.sum()) > 1.0 + _SUM_UPPER_SLACK:
        raise ValueError("count probabilities sum to more than 1")
    return values, metadata


def write_plot_table(path, columns: dict) -> None:
    """Write aligned 1-d series as CSV: one header row, then one row per
    index, shorter series padded with "0" cells (as +0.0 formats)."""
    names = list(columns)
    arrays = [_require_vector(columns[name], f"column {name!r}") for name in names]
    length = max(arr.size for arr in arrays)
    bad = [(int(np.argmin(finite)), j) for j, finite in enumerate(map(np.isfinite, arrays))
           if not finite.all()]
    if bad:
        i, j = min(bad)
        raise ValueError(
            f"cannot serialize non-finite value {float(arrays[j][i])!r} at index {i}, {j}"
        )
    cells = [_texts(arr) + ["0"] * (length - arr.size) for arr in arrays]
    rows = map(",".join, zip(map(str, range(length)), *cells))
    Path(path).write_text("\n".join(chain([",".join(["n"] + names)], rows)) + "\n",
                          encoding="utf-8")
