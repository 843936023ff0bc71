import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from pnrecon import distio
from pnrecon.detector import DetectorParams, build_response
from pnrecon.states import ParseError


# Reference serializer: the per-element formatter the bulk path replaced,
# copied verbatim apart from its name. Every file must keep its bytes.
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


def _reference_csv(values) -> str:
    return "\n".join(_format_float(v) for v in values) + "\n"


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

    @given(hnp.arrays(np.float64, st.integers(0, 20), elements=finite_floats))
    def test_csv(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        distio.write_distribution(path, values, fmt="csv")
        assert path.read_text(encoding="utf-8") == _reference_csv(values)

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


class TestNonFiniteArrays:
    def test_vector_names_value_and_index(self):
        with pytest.raises(ValueError, match=r"value nan at index 2$"):
            distio.dumps({"p": np.array([0.5, 0.25, np.nan, np.inf])})

    def test_matrix_names_row_and_column(self):
        values = np.zeros((3, 4))
        values[1, 3] = -np.inf
        with pytest.raises(ValueError, match=r"value -inf at index 1, 3$"):
            distio.dumps({"entries": values})

    def test_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=r"value inf at index 1$"):
            distio.write_distribution(path, [0.5, np.inf], fmt="csv")

    def test_plot_table(self, tmp_path):
        with pytest.raises(ValueError, match=r"value nan at index 2, 1$"):
            distio.write_plot_table(
                tmp_path / "plot.csv",
                {"a": np.zeros(4), "b": np.array([0.1, 0.2, np.nan])},
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
        values = np.array([0.25, 0.5, 0.25])
        path = tmp_path / "d.csv"
        distio.write_distribution(path, values, fmt="csv")
        back, metadata = distio.read_distribution(path)
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

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            distio.write_distribution(tmp_path / "d", np.ones(1), fmt="xml")


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
        path.write_text(
            '{"eta": 0.5, "n_noise": 0.0, "n_max": 2, "m_max": 1,'
            ' "entries": [[1.0, 0.0, 0.0]]}'
        )
        with pytest.raises(ParseError):
            distio.read_matrix(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        path = tmp_path / "S.json"
        path.write_text(
            '{"eta": 0.5, "n_noise": 0.0, "n_max": 2, "m_max": 1,'
            f' "entries": [[1.0, 0.5, 0.25], [0.0, 0.5, {token}]]}}'
        )
        with pytest.raises(ParseError, match=r"at \(m, n\) = \(1, 2\)"):
            distio.read_matrix(path)

    @pytest.mark.parametrize(
        "entries,bad",
        [("[[true, false], [false, true]]", r"entry True at \(m, n\) = \(0, 0\)"),
         ('[[0.5, 0.1], [0.5, "0.9"]]', r"entry '0.9' at \(m, n\) = \(1, 1\)"),
         ("[[0.5, 0.1], [null, 0.9]]", r"entry None at \(m, n\) = \(1, 0\)")],
        ids=["bool", "string", "null"],
    )
    def test_entry_that_is_not_a_number_rejected(self, tmp_path, entries, bad):
        path = tmp_path / "S.json"
        path.write_text(
            '{"eta": 0.5, "n_noise": 0.0, "n_max": 1, "m_max": 1,'
            f' "entries": {entries}}}'
        )
        with pytest.raises(ParseError, match=bad + " is not a JSON number"):
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
        path.write_text(
            f'{{"eta": 0.5, "n_noise": 0.0, "n_max": {n_max},'
            f' "m_max": {m_max}, "entries": {entries}}}'
        )
        with pytest.raises(ParseError, match=re.escape(f"file {path}:")):
            distio.read_matrix(path)


class TestPlotTable:
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
