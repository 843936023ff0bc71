import json
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from pnrecon import distio
from pnrecon.detector import DetectorParams, build_response
from pnrecon.experiment import load_config, run_experiment
from pnrecon.states import ParseError


# Reference serializer: the per-element formatter the bulk path replaced,
# copied verbatim apart from its name and the float-matrix case, which
# writes one row per line. Every file must keep its bytes.
def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def _reference_dumps(obj, indent: int = 0) -> str:
    """Serialize to JSON with fixed float formatting (17 significant
    digits) and stable key order (insertion order preserved)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_reference_dumps(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 2 and obj.size:
        parts = [f"{inner}[{', '.join(map(_format_float, row))}]" for row in obj.tolist()]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_reference_dumps(value, indent + 2)}" for value in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_plot_table(columns: dict) -> str:
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = max(arr.size for arr in arrays)
    rows = [",".join(["n"] + names)]
    for i in range(length):
        cells = [str(i)]
        for arr in arrays:
            cells.append(_format_float(arr[i]) if i < arr.size else "0")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 1e-300, 1e308, 1e22, 1.0, -3.0, 2.0**53,
    0.1 + 0.2, 1 / 3, -7.2100363175189720031e-25,
]
finite_floats = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6).map(float),
)
float_arrays = hnp.arrays(
    np.float64,
    st.one_of(
        hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=12),
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    ),
    elements=finite_floats,
)
payloads = st.recursive(
    float_arrays | finite_floats | st.integers() | st.text(max_size=4)
    | st.booleans() | st.none(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


class TestBulkFormattingMatchesReference:
    @given(float_arrays)
    def test_arrays(self, values):
        assert distio.dumps(values) == _reference_dumps(values)

    @given(payloads)
    def test_nested_payloads(self, payload):
        assert distio.dumps(payload) == _reference_dumps(payload)

    @given(
        st.lists(
            hnp.arrays(np.float64, st.integers(0, 8), elements=finite_floats),
            min_size=1,
            max_size=4,
        )
    )
    def test_plot_table(self, tmp_path_factory, arrays):
        columns = {f"c{j}": arr for j, arr in enumerate(arrays)}
        path = tmp_path_factory.mktemp("plot") / "plot.csv"
        distio.write_plot_table(path, columns)
        assert path.read_text(encoding="utf-8") == _reference_plot_table(
            columns
        )

    def test_response_matrix_file(self, tmp_path):
        mat = build_response(DetectorParams(0.77, 0.75), 40, 30)
        path = tmp_path / "S.json"
        distio.write_matrix(path, mat)
        expected = _reference_dumps(
            {
                "eta": 0.77,
                "n_noise": 0.75,
                "n_max": 40,
                "m_max": 30,
                "entries": mat.entries,
            }
        )
        assert path.read_text(encoding="utf-8") == expected + "\n"


vector_pools = st.lists(
    hnp.arrays(np.float64, st.integers(0, 8), elements=finite_floats), min_size=1, max_size=3
)


class TestFormatOnce:
    """Inside a _format_once() block each distinct vector is formatted
    once; every file keeps the reference bytes."""

    @given(vector_pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
    def test_plot_table_with_shared_columns(self, tmp_path_factory, arrays):
        columns = {f"c{j}": arr for j, arr in enumerate(arrays)}
        path = tmp_path_factory.mktemp("plot") / "plot.csv"
        expected = _reference_plot_table(columns)
        with distio._format_once():
            for _ in range(2):  # the second pass reads the memo
                distio.write_plot_table(path, columns)
                assert path.read_text(encoding="utf-8") == expected

    @given(payloads)
    def test_dumps(self, payload):
        expected = _reference_dumps(payload)
        with distio._format_once():
            assert distio.dumps(payload) == expected
            assert distio.dumps(payload) == expected

    def test_equal_values_with_other_bytes_or_dtype_kept_apart(self, tmp_path):
        # +0.0 == -0.0 and a float32 view shares the float64 bytes; keys
        # by value or by bytes alone would hand one the other's texts
        double = np.array([1.5, -0.0])
        payload = [np.array([0.0, -0.0]), np.array([-0.0, 0.0]), np.zeros(2),
                   double, double.view(np.float32)]
        columns = {f"c{j}": values for j, values in enumerate(payload)}
        with distio._format_once():
            assert distio.dumps(payload) == _reference_dumps(payload)
            distio.write_plot_table(tmp_path / "plot.csv", columns)
        assert (tmp_path / "plot.csv").read_text(encoding="utf-8") == (
            _reference_plot_table(columns)
        )

    def test_memo_lives_only_in_the_block_and_its_context(self):
        seen = []
        assert distio._memo.get() is None
        with distio._format_once():
            distio.dumps([np.array([0.5, 0.25]), np.array([0.5, 0.25])])
            assert len(distio._memo.get()) == 1
            thread = threading.Thread(target=lambda: seen.append(distio._memo.get()))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [None]
        assert distio._memo.get() is None

    def test_run_formats_each_vector_once(self, tmp_path, monkeypatch):
        keys, original = [], distio._format_vector

        def counting(values):
            keys.append((values.dtype.str, values.tobytes()))
            return original(values)

        monkeypatch.setattr(distio, "_format_vector", counting)
        run_experiment(load_config("thermal_fig1"), tmp_path)
        assert distio._memo.get() is None
        assert len(keys) == len(set(keys))
        for name in ("photon_true", "counts_empirical", "estimate"):
            values, _ = distio.read_distribution(tmp_path / f"{name}.json")
            assert (values.dtype.str, values.tobytes()) in keys, name  # in two or three files


class TestStreamingWriter:
    """write_json checks the whole object, then streams it into the file
    one piece (a 2-D float array: one row) at a time."""

    @given(payloads)
    def test_json_file_matches_reference(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "p.json"
        distio.write_json(path, payload)
        assert path.read_text(encoding="utf-8") == _reference_dumps(payload) + "\n"

    def test_matrix_payload_matches_reference(self, tmp_path):
        rng = np.random.default_rng(4)
        payload = {"a": rng.random((5, 3)), "b": [rng.random((2, 4)), 1e-300],
                   "c": {"d": -rng.random((1, 6)), "e": np.zeros((3, 1))}}
        path = tmp_path / "p.json"
        distio.write_json(path, payload)
        assert path.read_text(encoding="utf-8") == _reference_dumps(payload) + "\n"

    @pytest.mark.parametrize("metadata", [None, {"nu": 10, "window": [0.5, 2]}])
    def test_distribution_file_matches_reference(self, tmp_path, metadata):
        values = np.array([1 / 3, 1 / 7, 0.0, 5e-324])
        path = tmp_path / "d.json"
        distio.write_distribution(path, values, metadata=metadata)
        expected = {"probs": values, **metadata} if metadata else values
        assert path.read_text(encoding="utf-8") == _reference_dumps(expected) + "\n"

    @pytest.mark.parametrize(
        "payload, error",
        [
            ({"a": np.ones((40, 30)), "b": [1.0, 2.0, np.nan]}, ValueError),
            ({"a": np.ones((40, 30)), "b": np.full((2, 2), np.inf)}, ValueError),
            ({"a": np.ones((40, 30)), "b": {"c": float("-inf")}}, ValueError),
            ({"a": np.ones((40, 30)), "b": object()}, TypeError),
            ({"a": np.ones((40, 30)), "b": [{1, 2}]}, TypeError),
        ],
        ids=["nan-list", "inf-matrix", "inf-scalar", "object", "set"],
    )
    def test_bad_later_value_raises_before_any_write(self, tmp_path, payload, error):
        path = tmp_path / "new.json"
        with pytest.raises(error):
            distio.write_json(path, payload)
        assert not path.exists()
        old = tmp_path / "old.json"
        old.write_bytes(b"kept\n")
        with pytest.raises(error):
            distio.write_json(old, payload)
        assert old.read_bytes() == b"kept\n"

    def test_probs_metadata_key_raises_before_any_write(self, tmp_path):
        # it used to replace the values: [0.5, 0.5] was written as [1]
        path = tmp_path / "d.json"
        with pytest.raises(ValueError, match='metadata key "probs"'):
            distio.write_distribution(path, [0.5, 0.5], metadata={"probs": [1]})
        assert not path.exists()

    def test_matrix_write_memory_is_bounded_by_a_row(self, tmp_path):
        # the thermal_fig1 window, 322 x 703: 6.4 MB of text; building the
        # whole document first peaked at about 3x that
        mat = build_response(DetectorParams(0.34, 0.30), 702, 321)
        path = tmp_path / "S.json"
        tracemalloc.start()
        try:
            distio.write_matrix(path, mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size


class TestNonFiniteArrays:
    def test_vector_names_value_and_index(self):
        with pytest.raises(ValueError, match=r"value nan at index 2$"):
            distio.dumps({"p": np.array([0.5, 0.25, np.nan, np.inf])})

    def test_matrix_names_row_and_column(self):
        values = np.zeros((3, 4))
        values[1, 3] = -np.inf
        with pytest.raises(ValueError, match=r"value -inf at index 1, 3$"):
            distio.dumps({"entries": values})

    def test_plot_table(self, tmp_path):
        with pytest.raises(ValueError, match=r"value nan at index 2, 1$"):
            distio.write_plot_table(
                tmp_path / "plot.csv",
                {"a": np.zeros(4), "b": np.array([0.1, 0.2, np.nan])},
            )
        # the first in row order, as in the padded table
        with pytest.raises(ValueError, match=r"value inf at index 1, 1$"):
            distio.write_plot_table(
                tmp_path / "plot.csv",
                {"a": np.array([0.0, 0.0, 0.0, np.nan]), "b": np.array([0.1, np.inf])},
            )


class TestDumps:
    def test_float_formatting_round_trips(self):
        values = [1 / 3, 1e-300, 7.2100363175189720031e-25, 0.1 + 0.2]
        text = distio.dumps({"values": values})
        parsed = json.loads(text)
        assert parsed["values"] == values

    def test_deterministic_output(self):
        payload = {"b": [1.0, 2.0], "a": {"x": 0.5}}
        assert distio.dumps(payload) == distio.dumps(payload)

    def test_insertion_order_preserved(self):
        text = distio.dumps({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            distio.dumps({"bad": float("inf")})

    def test_numpy_types(self):
        text = distio.dumps(
            {"i": np.int64(4), "x": np.float64(0.5), "v": np.arange(3.0)}
        )
        parsed = json.loads(text)
        assert parsed == {"i": 4, "x": 0.5, "v": [0.0, 1.0, 2.0]}


class TestDistributionFiles:
    def test_json_round_trip_exact(self, tmp_path):
        values = np.array([1 / 3, 1 / 7, 1 - 1 / 3 - 1 / 7])
        path = tmp_path / "d.json"
        distio.write_distribution(path, values, metadata={"nu": 10})
        back, metadata = distio.read_distribution(path)
        assert np.array_equal(back, values)
        assert metadata["nu"] == 10

    def test_csv_round_trip_exact(self, tmp_path):
        # plain text, the form measured data arrives in, one "%.17g" per line
        values = np.array([1 / 3, 1 / 7, 1e-300, 5e-324, 1 - 1 / 3 - 1 / 7 - 1e-300])
        path = tmp_path / "d.txt"
        path.write_text("".join("%.17g\n" % v for v in values), encoding="utf-8")
        for read in (distio.read_distribution, distio.read_counts):
            back, metadata = read(path)
            assert np.array_equal(back, values)
            assert metadata == {}

    def test_json_object_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.json"
        distio.write_distribution(path, [0.5, 0.5], metadata={"nu": 10})
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
        assert distio.read_distribution(path)[1] == {"nu": 10}
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.arange(6.0).reshape(2, 3), 0.5], ids=["2x3", "0-d"])
    def test_values_must_be_a_vector(self, tmp_path, bad):
        path = tmp_path / "d.json"
        with pytest.raises(ValueError, match=re.escape(
                f"distribution must be a 1-d vector, got shape {np.shape(bad)}")):
            distio.write_distribution(path, bad)
        assert not path.exists()


class TestCountFiles:
    def test_values_and_metadata_returned(self, tmp_path):
        path = tmp_path / "P.json"
        distio.write_distribution(path, [0.25, 0.5, 0.25], metadata={"nu": 4})
        values, metadata = distio.read_counts(path)
        assert isinstance(values, np.ndarray) and values.tolist() == [0.25, 0.5, 0.25]
        assert metadata == {"nu": 4}

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "P.csv"
        path.write_text("0.5\n-0.1\n")
        with pytest.raises(ValueError, match=r"negative probability -0.1 at index 1"):
            distio.read_counts(path)

    def test_oversized_mass_rejected(self, tmp_path):
        path = tmp_path / "P.csv"
        path.write_text("0.9\n0.2\n")
        with pytest.raises(ValueError, match="sum to more than 1"):
            distio.read_counts(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, token):
        path = tmp_path / "P.csv"
        path.write_text(f"0.5\n{token}\n0.1\n")
        with pytest.raises(ValueError, match=r"finite, got .* at m=1"):
            distio.read_counts(path)

    def test_empty_text_vector_rejected(self, tmp_path):
        path = tmp_path / "P.csv"
        path.write_text(" , \n")
        with pytest.raises(ParseError, match="empty distribution file"):
            distio.read_counts(path)


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path):
        mat = build_response(DetectorParams(0.613749, 1.763442), 7, 9)
        path = tmp_path / "S.json"
        distio.write_matrix(path, mat)
        back = distio.read_matrix(path)
        assert np.array_equal(back.entries, mat.entries)
        assert back.params == mat.params
        assert np.allclose(back.col_tail, mat.col_tail, atol=1e-15)

    @pytest.mark.parametrize(
        "params, n_max, m_max",
        [(DetectorParams(0.34, 0.30), 702, 321), (DetectorParams(0.7764, 0.748), 276, 255)],
        ids=["thermal_fig1", "spats_fig3"],
    )
    def test_round_trip_bit_identical(self, tmp_path, params, n_max, m_max):
        mat = build_response(params, n_max, m_max)
        path = tmp_path / "S.json"
        distio.write_matrix(path, mat)
        back = distio.read_matrix(path)
        assert back.entries.tobytes(order="A") == mat.entries.tobytes(order="A")
        assert back.entries.flags.f_contiguous

    def test_schema_fields(self, tmp_path):
        mat = build_response(DetectorParams(0.5, 0.1), 3, 4)
        path = tmp_path / "S.json"
        distio.write_matrix(path, mat)
        payload = json.loads(path.read_text())
        assert set(payload) == {"eta", "n_noise", "n_max", "m_max", "entries"}
        assert payload["n_max"] == 3
        assert payload["m_max"] == 4
        assert len(payload["entries"]) == 5
        assert len(payload["entries"][0]) == 4

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "S.json"
        path.write_text(_matrix_text([[1.0, 0.0, 0.0]], n_max="2", m_max="1"))
        with pytest.raises(ParseError, match=re.escape(
                f"file {path}: entries shape (1, 3) does not match declared window "
                "m_max = 1, n_max = 2")):
            distio.read_matrix(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        path = tmp_path / "S.json"
        path.write_text(
            _matrix_text([[1.0, 0.5, 0.25], [0.0, 0.5, token]], n_max="2", m_max="1")
        )
        with pytest.raises(ParseError, match=r"non-finite entry .* at \(m, n\) = \(1, 2\)"):
            distio.read_matrix(path)

    @pytest.mark.parametrize(
        "entries,bad",
        [([["true", "false"], ["false", "true"]], r"entry True at \(m, n\) = \(0, 0\)"),
         ([[0.5, 0.1], [0.5, '"0.9"']], r"entry '0.9' at \(m, n\) = \(1, 1\)"),
         ([[0.5, 0.1], ["null", 0.9]], r"entry None at \(m, n\) = \(1, 0\)")],
        ids=["bool", "string", "null"],
    )
    def test_entry_that_is_not_a_number_rejected(self, tmp_path, entries, bad):
        path = tmp_path / "S.json"
        path.write_text(_matrix_text(entries, n_max="1", m_max="1"))
        with pytest.raises(ParseError, match=bad + " is not a JSON number"):
            distio.read_matrix(path)

    @pytest.mark.parametrize(
        "entries, line",
        [("[\n    0.5,\n    0.5\n  ]", 7), ("0.5", 8), ("[\n    [1.0, 0.0],\n    0.5\n  ]", 8)],
        ids=["vector", "scalar", "mixed-rows"],
    )
    def test_entries_not_a_list_of_lists_rejected(self, tmp_path, entries, line):
        # the header lines of write_matrix's layout, then entries that are
        # not one row of numbers per line; a file with no '  "entries": ['
        # line is refused at its end
        path = tmp_path / "S.json"
        path.write_text(_matrix_text([[0.5, 0.5]], n_max="1", m_max="1").replace(
            '"entries": [\n    [0.5, 0.5]\n  ]', f'"entries": {entries}'))
        with pytest.raises(ParseError, match=re.escape(f"file {path}: line {line} is not in the "
                                                       "layout that pnrecon build-detector")):
            distio.read_matrix(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "S.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError):
            distio.read_matrix(path)

    @pytest.mark.parametrize(
        "m_max,n_max,entries",
        [("5.0", "1", [[1.0, 0.0]] * 6), ("true", "1", [[1.0, 0.0]] * 2),
         ("1", "-1", [[], []])],
        ids=["integral-float", "bool", "negative"],
    )
    def test_declared_window_must_be_a_nonnegative_integer(
        self, tmp_path, m_max, n_max, entries
    ):
        # each shape matches its window as numbers (5.0 + 1 == 6, True + 1
        # == 2, -1 + 1 == 0 columns): only the integer rule rejects them
        path = tmp_path / "S.json"
        path.write_text(_matrix_text(entries, n_max=n_max, m_max=m_max))
        with pytest.raises(ParseError,
                           match=re.escape(f"file {path}: ") + r"(m_max|n_max|m_max and n_max) must"):
            distio.read_matrix(path)


def _matrix_text(entries: list, n_max: str, m_max: str) -> str:
    """Text in write_matrix's layout (eta 0.5, no noise) with the declared
    window and the entries written as the JSON tokens given, one row per line."""
    rows = ",\n".join("    [" + ", ".join(map(str, row)) + "]" for row in entries)
    return ('{\n  "eta": 0.5,\n  "n_noise": 0.0,\n'
            f'  "n_max": {n_max},\n  "m_max": {m_max},\n'
            '  "entries": [\n' + rows + "\n  ]\n}\n")


def _set_entry(text: str, m: int, n: int, token: str) -> str:
    """write_matrix text with entry (m, n) replaced by a JSON token."""
    lines = text.split("\n")
    at = lines.index('  "entries": [') + 1 + m
    head, values = lines[at].split("[", 1)
    tail = "]," if values.endswith("],") else "]"
    cells = values[: -len(tail)].split(", ")
    cells[n] = token
    lines[at] = head + "[" + ", ".join(cells) + tail
    return "\n".join(lines)


LAYOUT_FAULT = "line {} is not in the layout that pnrecon build-detector and distio.write_matrix"


def _matrix_layouts() -> dict:
    """name -> (file bytes, the error read_matrix raises after naming the
    file, as a regex, or None where it reads the file)."""
    mat = build_response(DetectorParams(0.5, 0.1), 3, 4)
    base = distio.dumps({"eta": 0.5, "n_noise": 0.1, "n_max": 3, "m_max": 4,
                         "entries": mat.entries}) + "\n"
    payload = json.loads(base)
    deep = "[" * 100_000 + "]" * 100_000
    layouts = {
        "write-matrix": (base, None),
        "crlf": (base.replace("\n", "\r\n"), None),
        "compact": (json.dumps(payload), LAYOUT_FAULT.format(1)),
        "one-number-per-line": (json.dumps(payload, indent=2), LAYOUT_FAULT.format(7)),
        "missing-comma": (base.replace("],\n    [", "]\n    [", 1), LAYOUT_FAULT.format(8)),
        "doubled-comma": (base.replace("],\n    [", "],,\n    [", 1), LAYOUT_FAULT.format(7)),
        "trailing-comma": (base.replace("]\n  ]\n}", "],\n  ]\n}"), LAYOUT_FAULT.format(12)),
        "key-after-entries": (base.replace("\n  ]\n}", '\n  ],\n  "note": 1\n}'),
                              LAYOUT_FAULT.format(12)),
        "duplicate-entries-before": (
            base.replace('  "entries": [\n', '  "entries": [[0.5]],\n  "entries": [\n'), None),
        "duplicate-entries-after": (base.replace("\n  ]\n}", '\n  ],\n  "entries": [[0.5]]\n}'),
                                    LAYOUT_FAULT.format(12)),
        "entries-empty": (json.dumps({**payload, "entries": []}, indent=2),
                          LAYOUT_FAULT.format(7)),
        "ragged-row": (_set_entry(base, 2, 1, "0.5, 0.5"), "row m = 2 has 5 entries, not 4"),
        "non-number": (_set_entry(base, 2, 1, "true"), "entry True at (m, n) = (2, 1) is not"),
        "string": (_set_entry(base, 3, 0, '"0.5"'), "entry '0.5' at (m, n) = (3, 0) is not"),
        "nested-row": (_set_entry(base, 1, 2, "[0.5]"), "entry [0.5] at (m, n) = (1, 2) is not"),
        "deep-row": (_set_entry(base, 1, 2, deep),
                     "row m = 1 (line 8): maximum recursion depth exceeded"),
        "nan": (_set_entry(base, 2, 1, "NaN"), "non-finite entry nan at (m, n) = (2, 1)"),
        "overflow": (_set_entry(base, 4, 3, "1e400"), "non-finite entry inf at (m, n) = (4, 3)"),
        "integer-overflow": (_set_entry(base, 3, 2, "1" + "0" * 400),
                             "row m = 3 (line 10): int too large to convert to float"),
        "negative": (_set_entry(base, 0, 0, "-0.25"), "negative entry -0.25 at (m, n) = (0, 0)"),
        "bad-header": (base.replace('"n_max": 3', '"n_max": 3.5'),
                       "n_max must be an integer, got 3.5"),
    }
    return {name: (text.encode("utf-8"), error) for name, (text, error) in layouts.items()}


MATRIX_LAYOUTS = _matrix_layouts()


class TestStreamedMatrixRead:
    @pytest.mark.parametrize("name", list(MATRIX_LAYOUTS))
    def test_only_write_matrix_layout_reads(self, tmp_path, name):
        data, error = MATRIX_LAYOUTS[name]
        path = tmp_path / "S.json"
        path.write_bytes(data)
        if error is not None:
            with pytest.raises(ParseError, match=re.escape(
                    f"invalid response-matrix file {path}: {error}")):
                distio.read_matrix(path)
            return
        back = distio.read_matrix(path)
        mat = build_response(DetectorParams(0.5, 0.1), 3, 4)
        assert back.entries.tobytes(order="A") == mat.entries.tobytes(order="A")
        assert back.entries.flags.f_contiguous
        assert back.params == mat.params

    def test_spats_window_read_holds_about_two_matrices(self, tmp_path):
        # the whole-file read held the 1.62 MB text and 70,912 Python floats
        # beside their list slots, 6.8 times the entries
        mat = build_response(DetectorParams(0.7764, 0.748), 276, 255)
        path = tmp_path / "S.json"
        distio.write_matrix(path, mat)
        tracemalloc.start()
        try:
            back = distio.read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.entries.shape == (256, 277)
        assert peak < 2.5 * back.entries.nbytes

    def test_spats_window_with_a_bad_last_row_is_refused_in_one_pass(self, tmp_path):
        # a file refused by the row reader was parsed again whole, peaking
        # at 6.8 times the entries before it was refused
        mat = build_response(DetectorParams(0.7764, 0.748), 276, 255)
        path = tmp_path / "S.json"
        distio.write_matrix(path, mat)
        path.write_text(_set_entry(path.read_text(), 255, 0, '"x"'))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=re.escape(
                    f"file {path}: entry 'x' at (m, n) = (255, 0) is not a JSON number")):
                distio.read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * mat.entries.nbytes


class TestPlotTable:
    def test_column_must_be_1d(self, tmp_path):
        with pytest.raises(ValueError, match=r"column 'b' must be a 1-d vector, got shape \(2, 2\)"):
            distio.write_plot_table(tmp_path / "plot.csv", {"a": np.zeros(3), "b": np.zeros((2, 2))})
        assert not (tmp_path / "plot.csv").exists()

    def test_columns_padded_and_parseable(self, tmp_path):
        path = tmp_path / "plot.csv"
        distio.write_plot_table(
            path,
            {
                "p_true": np.array([0.5, 0.5]),
                "p_reconstructed": np.array([0.4, 0.4, 0.2]),
                "P_simulated": np.array([1.0]),
            },
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,p_true,p_reconstructed,P_simulated"
        assert len(lines) == 4
        cells = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in cells] == ["0", "1", "2"]
        assert float(cells[2][1]) == 0.0
        assert float(cells[2][2]) == 0.2
