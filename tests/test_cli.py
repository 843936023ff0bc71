import errno
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pnrecon
from pnrecon import cli, distio, experiment, states
from pnrecon.cli import main
from pnrecon.detector import DetectorParams
from pnrecon.experiment import (
    ConfigError,
    ExperimentConfig,
    build_state,
    constraint_set,
    load_config,
    run_experiment,
)
from pnrecon.inversion import direct_reconstruct
from pnrecon.metrics import relative_residual


def run_cli(*argv) -> int:
    return main(list(argv))


OUTPUT_DIGESTS = Path(__file__).with_name("output_digests.json")


def kernel_environment() -> dict:
    """What picks the floating-point kernels behind the output bytes:
    OpenBLAS built DYNAMIC_ARCH chooses its kernels by CPU, for which the
    SIMD extensions numpy finds on it stand in."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": config.get("SIMD Extensions", {}).get("found"),
    }


def check_output_digests(config: str, out: Path) -> None:
    """The sha256 of every file in ``out`` against the committed manifest;
    skips, naming the field, where the kernel environment differs."""
    manifest = json.loads(OUTPUT_DIGESTS.read_text(encoding="utf-8"))
    here = kernel_environment()
    for field, value in manifest["environment"].items():
        if here.get(field) != value:
            pytest.skip(
                f"output digests were taken with {field} {value!r}, "
                f"this is {here.get(field)!r}"
            )
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    expected = manifest["runs"][config]
    moved = sorted(
        name for name in digests.keys() | expected.keys()
        if digests.get(name) != expected.get(name)
    )
    assert not moved, (
        f"output bytes of {config} moved in {', '.join(moved)}; new entry:\n"
        + json.dumps({config: digests}, indent=2)
    )


README_CHAIN = [
    ["gen-state", "thermal", "--mean", "30", "--output", "p.json"],
    ["build-detector", "--eta", "0.34", "--noise", "0.30", "--n-max", "702",
     "--output", "S.json"],
    ["forward", "--detector", "S.json", "--state", "p.json", "--output", "P.json"],
    ["sample", "--counts", "P.json", "--events", "50000", "--seed", "3",
     "--output", "emp.json"],
    ["reconstruct", "--detector", "S.json", "--counts", "emp.json", "--events", "50000",
     "--output", "rec.json", "--report", "solve.json"],
    ["invert-direct", "--eta", "0.34", "--noise", "0.30", "--n-max", "702",
     "--counts", "emp.json", "--output", "raw.json"],
    ["metrics", "--estimate", "rec.json", "--truth", "p.json"],
]


SMALL_CONFIG = {
    "name": "small",
    "state": {"kind": "thermal", "mean_n": 5.0, "tail": 1e-8},
    "detector_true": {"eta": 0.8, "n_noise": 0.2},
    "detector_assumed": {"eta": 0.78, "n_noise": 0.21},
    "sampling": {"events": 2000, "seed": 11},
    "solver": {"max_iterations": 5000},
    "constraints": {"support": None},
    "window_tail": 1e-8,
}


class TestSubcommands:
    @pytest.mark.parametrize(
        "argv,spec",
        [
            (["thermal", "--mean", "30"], {"kind": "thermal", "mean_n": 30.0}),
            (
                ["spats", "--mean", "10", "--tail", "1e-8"],
                {"kind": "spats", "mean_n": 10.0, "tail": 1e-8},
            ),
            (
                ["even-cat", "--alpha-sq", "23.9"],
                {"kind": "even_cat", "alpha_sq": 23.9},
            ),
            (["fock", "--n", "4"], {"kind": "fock", "n": 4}),
        ],
        ids=["thermal", "spats", "even-cat", "fock"],
    )
    def test_gen_state_matches_build_state(self, tmp_path, argv, spec):
        out = tmp_path / "state.json"
        assert run_cli("gen-state", *argv, "--output", str(out)) == 0
        values, metadata = distio.read_distribution(out)
        assert np.array_equal(values, build_state(spec).probs)
        assert metadata == {}  # bare JSON array form
        assert out.read_text().lstrip().startswith("[")

    def test_reconstruct_formats_the_estimate_once(self, tmp_path, monkeypatch):
        # the report repeats the estimate: one formatting serves both files
        monkeypatch.chdir(tmp_path)
        for argv in README_CHAIN[:4]:
            assert run_cli(*argv) == 0, argv
        keys, original = [], distio._format_vector
        monkeypatch.setattr(distio, "_format_vector",
                            lambda values: keys.append(values.tobytes()) or original(values))
        assert run_cli(*README_CHAIN[4]) == 0
        estimate, _ = distio.read_distribution("rec.json")
        assert keys.count(estimate.tobytes()) == 1
        assert json.loads(Path("solve.json").read_text())["estimate"] == estimate.tolist()
        assert distio._memo.get() is None

    def test_gen_state_missing_parameter_is_config_error(self, tmp_path):
        out = tmp_path / "state.json"
        assert run_cli("gen-state", "thermal", "--output", str(out)) == 2

    def test_gen_state_flag_of_another_kind_is_config_error(
        self, tmp_path, capsys
    ):
        out = tmp_path / "state.json"
        code = run_cli(
            "gen-state", "fock", "--n", "3", "--tail", "1e-8",
            "--output", str(out),
        )
        assert code == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert "unexpected keyword argument 'tail'" in err["message"]

    def test_forward_of_vacuum_is_poisson_noise(self, tmp_path):
        state = tmp_path / "fock0.json"
        det = tmp_path / "S.json"
        counts = tmp_path / "P.json"
        assert run_cli("gen-state", "fock", "--n", "0", "--output", str(state)) == 0
        assert run_cli(
            "build-detector",
            "--eta", "0.9", "--noise", "1.0",
            "--n-max", "5", "--m-max", "25",
            "--output", str(det),
        ) == 0
        assert run_cli(
            "forward",
            "--detector", str(det),
            "--state", str(state),
            "--output", str(counts),
        ) == 0
        values, _ = distio.read_distribution(counts)
        expected = [math.exp(-1.0) / math.factorial(m) for m in range(26)]
        assert values == pytest.approx(expected, rel=1e-12)

    def test_sample_embeds_generator_metadata(self, tmp_path):
        counts = tmp_path / "P.json"
        emp = tmp_path / "emp.json"
        distio.write_distribution(counts, np.array([0.5, 0.5]))
        assert run_cli(
            "sample",
            "--counts", str(counts),
            "--events", "1000", "--seed", "3",
            "--output", str(emp),
        ) == 0
        _, metadata = distio.read_distribution(emp)
        assert metadata["nu"] == 1000
        assert metadata["seed"] == 3
        assert metadata["generator"] == "pcg64"

    def test_metrics_output(self, tmp_path):
        est = tmp_path / "est.json"
        truth = tmp_path / "truth.json"
        distio.write_distribution(est, np.array([0.5, 0.5]))
        distio.write_distribution(truth, np.array([0.5, 0.5]))
        out = tmp_path / "err.json"
        assert run_cli(
            "metrics",
            "--estimate", str(est),
            "--truth", str(truth),
            "--output", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["relative_error"] == 0.0
        assert payload["normalization_defect"] == 0.0

    def test_metrics_without_output_prints_the_payload(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        truth = tmp_path / "truth.json"
        distio.write_distribution(est, np.array([0.25, 0.5]))
        distio.write_distribution(truth, np.array([0.5, 0.5]))
        capsys.readouterr()
        assert run_cli(
            "metrics", "--estimate", str(est), "--truth", str(truth)
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "relative_error": 0.25 / math.sqrt(0.5),
            "normalization_defect": -0.25,
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "est.json", "truth.json"
        ]

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    @pytest.mark.parametrize("flag", ["--estimate", "--truth"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_metrics_rejects_non_finite_entry_on_read(
        self, tmp_path, capsys, bad, flag, to_file
    ):
        files = {"--estimate": tmp_path / "est.json", "--truth": tmp_path / "truth.json"}
        for name, path in files.items():
            path.write_text(f"[0.5, {bad}, 0.5]" if name == flag else "[0.5, 0.0, 0.5]")
        out = tmp_path / "err.json"
        capsys.readouterr()
        code = run_cli(
            "metrics",
            "--estimate", str(files["--estimate"]),
            "--truth", str(files["--truth"]),
            *(["--output", str(out)] if to_file else []),
        )
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert str(files[flag]) in err["message"]
        assert "non-finite" in err["message"] and "index 1" in err["message"]

    def test_metrics_accepts_negative_entries(self, tmp_path, capsys):
        # a raw invert-direct estimate has them
        est = tmp_path / "est.json"
        truth = tmp_path / "truth.json"
        est.write_text("[-0.25, 1.25]")
        truth.write_text("[0.5, 0.5]")
        capsys.readouterr()
        assert run_cli("metrics", "--estimate", str(est), "--truth", str(truth)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["normalization_defect"] == 0.0

    def test_metrics_residual_matches_library(self, tmp_path):
        det = tmp_path / "S.json"
        est = tmp_path / "est.json"
        truth = tmp_path / "truth.json"
        measured = tmp_path / "emp.json"
        out = tmp_path / "err.json"
        assert run_cli(
            "build-detector", "--eta", "0.8", "--noise", "0.2",
            "--n-max", "3", "--m-max", "6", "--output", str(det),
        ) == 0
        distio.write_distribution(est, np.array([0.1, 0.4, 0.3, 0.15]))
        distio.write_distribution(truth, np.array([0.1, 0.4, 0.3, 0.2]))
        distio.write_distribution(
            measured, np.array([0.1, 0.3, 0.3, 0.2, 0.05, 0.05, 0.0])
        )
        assert run_cli(
            "metrics",
            "--estimate", str(est), "--truth", str(truth),
            "--detector", str(det), "--measured", str(measured),
            "--output", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        expected = relative_residual(
            distio.read_matrix(det),
            distio.read_distribution(est)[0],
            distio.read_counts(measured)[0],
        )
        assert payload["relative_residual"] == expected
        assert expected > 0.0

    def test_invert_direct_writes_direct_reconstruct(self, tmp_path):
        counts = tmp_path / "P.json"
        raw = tmp_path / "raw.json"
        distio.write_distribution(
            counts, np.array([0.3, 0.3, 0.2, 0.1, 0.06, 0.03, 0.01])
        )
        assert run_cli(
            "invert-direct", "--eta", "0.8", "--noise", "0.2",
            "--n-max", "5", "--counts", str(counts), "--output", str(raw),
        ) == 0
        values, _ = distio.read_distribution(raw)
        expected = direct_reconstruct(
            DetectorParams(0.8, 0.2), distio.read_counts(counts)[0], 5
        )
        assert values.size == 6
        assert np.array_equal(values, expected)

    def test_list_configs(self, capsys):
        assert run_cli("list-configs") == 0
        out = capsys.readouterr().out.split()
        assert out == [
            "cat_fig4", "spats_fig2", "spats_fig3_direct", "thermal_fig1"
        ]

    def test_calls_share_one_parser_but_no_parsed_state(self, tmp_path, monkeypatch):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        seen, parse = [], parser.parse_args

        def recorded(argv):
            seen.append(parse(argv))
            return seen[-1]

        monkeypatch.setattr(parser, "parse_args", recorded)
        assert run_cli(
            "gen-state", "thermal", "--mean", "5", "--tail", "1e-8",
            "--output", str(tmp_path / "p.json"),
        ) == 0
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--output", str(tmp_path / "S.json"),
        ) == 0
        first, second = seen
        assert (first.command, first.tail, first.mean) == ("gen-state", 1e-8, 5.0)
        assert (second.command, second.tail) == ("build-detector", 1e-10)
        assert second.func is cli._cmd_build_detector
        assert not any(hasattr(second, name) for name in ("kind", "mean", "alpha_sq"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-state", "thermal", "--mean", "5"],
            ["forward", "--detector", "S.json", "--state", "p.json"],
            ["sample", "--counts", "P.json", "--events", "10"],
            ["reconstruct", "--detector", "S.json", "--counts", "emp.json"],
            ["invert-direct", "--eta", "0.9", "--noise", "0.1", "--n-max", "3",
             "--counts", "emp.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_option_is_gone(self, tmp_path, capsys, argv):
        # distribution files are JSON only: a text sample file would drop nu
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--output", str(out), "--format", "csv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_forward_tolerates_sum_defects_but_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.txt"
        det = tmp_path / "S.json"
        run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.0",
            "--n-max", "3", "--output", str(det),
        )
        # for the sums 0.3 of "0.05, 0.25" and 0.15, 1 - (1 - s) rounds above s
        for text in ("0.3, 0.3", "0.05, 0.25", "0.15"):
            bad.write_text(text)
            code = run_cli(
                "forward",
                "--detector", str(det),
                "--state", str(bad),
                "--output", str(tmp_path / "o.json"),
            )
            assert code == 0  # forward does not renormalize or gate on sums
        bad.write_text("junk")
        assert run_cli(
            "forward",
            "--detector", str(det),
            "--state", str(bad),
            "--output", str(tmp_path / "o.json"),
        ) == 2

    def test_forward_rejects_over_normalized_state(self, tmp_path, capsys):
        det = tmp_path / "S.json"
        state = tmp_path / "state.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--output", str(det),
        ) == 0
        state.write_text("[0.9, 0.8]")
        capsys.readouterr()
        code = run_cli(
            "forward",
            "--detector", str(det),
            "--state", str(state),
            "--output", str(tmp_path / "P.json"),
        )
        assert code == 2
        assert not (tmp_path / "P.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "forward"
        assert "total mass 1.7" in err["message"]

    def test_direct_inversion_overflow_is_3(self, tmp_path, capsys):
        counts = tmp_path / "P.json"
        probs = np.zeros(301)
        probs[300] = 1.0
        distio.write_distribution(counts, probs)
        code = run_cli(
            "invert-direct",
            "--eta", "0.05", "--noise", "0.5",
            "--n-max", "300",
            "--counts", str(counts),
            "--output", str(tmp_path / "raw.json"),
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InversionOverflowError"

    def test_non_finite_detector_noise_is_2(self, tmp_path, capsys):
        det = tmp_path / "S.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "nan",
            "--n-max", "3", "--m-max", "5", "--output", str(det),
        ) == 2
        assert not det.exists()
        err = json.loads(capsys.readouterr().err)
        assert "n_noise must be finite" in err["message"]

    def test_non_finite_counts_rejected_before_solve(self, tmp_path, capsys):
        det = tmp_path / "S.json"
        counts = tmp_path / "P.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--m-max", "5", "--output", str(det),
        ) == 0
        counts.write_text("[0.5, 0.2, NaN, 0.1, 0.0, 0.0]")
        capsys.readouterr()
        code = run_cli(
            "reconstruct",
            "--detector", str(det),
            "--counts", str(counts),
            "--events", "1000",
            "--output", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert not (tmp_path / "p.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "reconstruct"
        assert err["message"] == (
            "count probabilities must be finite, got nan at m=2"
        )

    def test_integral_float_matrix_window_is_2(self, tmp_path, capsys):
        det = tmp_path / "S.json"
        counts = tmp_path / "P.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--m-max", "5", "--output", str(det),
        ) == 0
        payload = json.loads(det.read_text())
        det.write_text(json.dumps({**payload, "m_max": 5.0}))
        distio.write_distribution(counts, [0.5, 0.2, 0.2, 0.1, 0.0, 0.0])
        capsys.readouterr()
        code = run_cli(
            "reconstruct",
            "--detector", str(det),
            "--counts", str(counts),
            "--events", "1000",
            "--output", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert not (tmp_path / "p.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert str(det) in err["message"]

    def test_non_finite_photon_vector_rejected_before_forward(
        self, tmp_path, capsys
    ):
        det = tmp_path / "S.json"
        state = tmp_path / "state.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--output", str(det),
        ) == 0
        state.write_text("[0.5, NaN, 0.2]")
        capsys.readouterr()
        code = run_cli(
            "forward",
            "--detector", str(det),
            "--state", str(state),
            "--output", str(tmp_path / "P.json"),
        )
        assert code == 2
        assert not (tmp_path / "P.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "forward"
        assert err["message"] == (
            "photon probabilities must be finite, got nan at n=1"
        )

    def test_negative_photon_vector_rejected_before_forward(
        self, tmp_path, capsys
    ):
        det = tmp_path / "S.json"
        state = tmp_path / "state.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--output", str(det),
        ) == 0
        state.write_text("[0.5, -0.1, 0.6]")
        capsys.readouterr()
        code = run_cli(
            "forward",
            "--detector", str(det),
            "--state", str(state),
            "--output", str(tmp_path / "P.json"),
        )
        assert code == 2
        assert not (tmp_path / "P.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "forward"
        assert err["error"] == "NegativeProbabilityError"
        assert err["message"] == "negative probability -0.1 at index 1"

    @staticmethod
    def reconstruct_with_bad_entry(tmp_path, capsys, value):
        """reconstruct on a detector file whose entry (4, 2) is ``value``:
        the exit code and the error record."""
        det = tmp_path / "S.json"
        counts = tmp_path / "P.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--m-max", "5", "--output", str(det),
        ) == 0
        payload = json.loads(det.read_text())
        payload["entries"][4][2] = value
        det.write_text(json.dumps(payload))  # json writes the NaN token
        distio.write_distribution(counts, [0.5, 0.2, 0.2, 0.1, 0.0, 0.0])
        capsys.readouterr()
        code = run_cli(
            "reconstruct",
            "--detector", str(det),
            "--counts", str(counts),
            "--events", "1000",
            "--output", str(tmp_path / "p.json"),
            "--report", str(tmp_path / "report.json"),
        )
        assert not (tmp_path / "p.json").exists()
        assert not (tmp_path / "report.json").exists()
        return code, json.loads(capsys.readouterr().err)

    def test_non_finite_matrix_rejected_before_solve(self, tmp_path, capsys):
        code, err = self.reconstruct_with_bad_entry(tmp_path, capsys, float("nan"))
        assert code == 2
        assert err["stage"] == "reconstruct"
        assert err["error"] == "ParseError"
        assert "non-finite entry nan at (m, n) = (4, 2)" in err["message"]

    def test_negative_matrix_entry_rejected_before_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve", None)  # a call would raise TypeError
        code, err = self.reconstruct_with_bad_entry(tmp_path, capsys, -1e-3)
        assert code == 2
        assert err["stage"] == "reconstruct"
        assert err["error"] == "ParseError"
        assert "negative entry -0.001 at (m, n) = (4, 2)" in err["message"]

    def test_matrix_norm_bound_overflow_is_2(self, tmp_path, capsys):
        det = tmp_path / "S.json"
        counts = tmp_path / "P.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--m-max", "5", "--output", str(det),
        ) == 0
        payload = json.loads(det.read_text())
        det.write_text(json.dumps({**payload, "entries": [[1e308] * 4] * 6}))
        distio.write_distribution(counts, [0.5, 0.2, 0.2, 0.1, 0.0, 0.0])
        capsys.readouterr()
        code = run_cli(
            "reconstruct",
            "--detector", str(det),
            "--counts", str(counts),
            "--events", "1000",
            "--output", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert not (tmp_path / "p.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "reconstruct"
        assert err["message"] == (
            "matrix norm bound inf leaves no finite convergence interval "
            "(0, 2/bound); cannot pick a stepsize"
        )

    def test_non_integral_events_rejected_before_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(
            json.dumps(
                {**SMALL_CONFIG, "sampling": {"events": 10.5, "seed": 11}}
            )
        )
        capsys.readouterr()
        code = run_cli("run", "--config", str(cfg), "--output", str(out))
        assert code == 2
        assert not out.exists()  # run_experiment never started
        err = json.loads(capsys.readouterr().err)
        assert "events must be an integer, got 10.5" in err["message"]

    @pytest.mark.parametrize(
        "change",
        [
            {"state": {"kind": "thermal"}},
            {"state": {"kind": "thermal", "mean_n": "abc"}},
            {"state": {"kind": "thermal", "mean_n": 5.0, "mean": 5.0}},
            {"constraints": [1]},
            {"constraints": {"support": [-1]}},
            {"solver": {"chi": "x"}},
            {"solver": {"max_iteration": 10}},
            {"window_tail": [1e-8]},
            {"solver": {"max_iterations": 10.7}},
            {"solver": {"max_iterations": 10.0}},
            {"solver": {"max_iterations": True}},
            {"m_max": 10.7},
            {"m_max": 10.0},
            {"m_max": True},
            {"direct_inversion": "false"},
            {"direct_inversion": 1},
            {"windowtail": 1e-8},
            {"constraints": {"suport": "even"}},
            {"detector_true": {"eta": True, "n_noise": 0.2}},
            {"detector_assumed": {"eta": 0.78, "n_noise": False}},
            {"window_tail": "1e-8"},
            {"solver": {"discrepancy_tau": True}},
            {"solver": {"noise_level": False}},
            {"solver": {"stagnation_tol": "1e-9"}},
            {"state": {"kind": "thermal", "mean_n": True}},
            {"constraints": {"support": [0, True]}},
            {"constraints": {"support": [0, 2.0]}},
            {"state": {"kind": "thermal", "mean_n": -1.0}},
            {"state": {"kind": "spats", "mean_n": 0.0}},
            {"state": {"kind": "even_cat", "alpha_sq": -1.0}},
            {"constraints": {"support": "odd"}},
            {"window_tail": 1.5},
            {"m_max": -1},
            {"state": [["kind", "thermal"], ["mean_n", 5.0]]},
            {"sampling": [["events", 2000], ["seed", 11]]},
            {"solver": [["max_iterations", 5000]]},
            {"constraints": [["support", None]]},
            {"name": None},
            {"name": 5},
            {"name": ["a"]},
            {"name": {"x": 1}},
            {"name": True},
        ],
        ids=[
            "state-key-missing",
            "state-value-type",
            "state-key-unknown",
            "constraints-not-object",
            "support-negative-index",
            "solver-value",
            "solver-key-unknown",
            "window-tail-type",
            "max-iterations-float",
            "max-iterations-integral-float",
            "max-iterations-bool",
            "m-max-float",
            "m-max-integral-float",
            "m-max-bool",
            "direct-inversion-string",
            "direct-inversion-int",
            "top-level-key-unknown",
            "constraints-key-unknown",
            "eta-bool",
            "n-noise-bool",
            "window-tail-string",
            "discrepancy-tau-bool",
            "noise-level-bool",
            "stagnation-tol-string",
            "mean-n-bool",
            "support-bool",
            "support-integral-float",
            "state-value-negative",
            "spats-mean-zero",
            "cat-alpha-negative",
            "support-not-a-list",
            "window-tail-out-of-range",
            "m-max-negative",
            "state-pairs",
            "sampling-pairs",
            "solver-pairs",
            "constraints-pairs",
            "name-null",
            "name-int",
            "name-list",
            "name-object",
            "name-bool",
        ],
    )
    def test_malformed_config_is_2_before_any_output(
        self, tmp_path, capsys, change
    ):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps({**SMALL_CONFIG, **change}))
        capsys.readouterr()
        code = run_cli("run", "--config", str(cfg), "--output", str(out))
        assert code == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--events", "-5"],
            ["--events", "0"],
            ["--noise-level", "nan"],
            ["--tau", "nan"],
            ["--chi", "nan"],
            ["--stagnation-tol", "inf"],
        ],
        ids=["events-negative", "events-zero", "noise-nan", "tau-nan",
             "chi-nan", "stagnation-inf"],
    )
    def test_bad_solver_input_is_2_before_solve(self, tmp_path, capsys, flags):
        det = tmp_path / "S.json"
        counts = tmp_path / "P.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--m-max", "5", "--output", str(det),
        ) == 0
        # a file nu must not stand in for an explicit --events 0
        distio.write_distribution(
            counts, [0.5, 0.2, 0.2, 0.1, 0.0, 0.0], metadata={"nu": 1000}
        )
        capsys.readouterr()
        code = run_cli(
            "reconstruct",
            "--detector", str(det),
            "--counts", str(counts),
            *flags,
            "--output", str(tmp_path / "p.json"),
            "--report", str(tmp_path / "report.json"),
        )
        assert code == 2
        assert not (tmp_path / "p.json").exists()
        assert not (tmp_path / "report.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("given", ["--detector", "--measured"])
    def test_metrics_half_pair_is_2_before_any_read(self, tmp_path, capsys, given):
        # none of the files exists: reading any of them would be an OSError
        missing = [str(tmp_path / name) for name in ("est", "truth", "other")]
        capsys.readouterr()
        code = run_cli(
            "metrics", "--estimate", missing[0], "--truth", missing[1],
            given, missing[2],
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert "--detector" in err["message"] and "--measured" in err["message"]

    def test_chi_must_be_auto_or_a_number(self, tmp_path, capsys):
        capsys.readouterr()
        code = run_cli(
            "reconstruct",
            "--detector", str(tmp_path / "missing.json"),
            "--counts", str(tmp_path / "missing_counts.json"),
            "--chi", "abc",
            "--output", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert not (tmp_path / "p.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == "--chi takes 'auto' or a number, got 'abc'"

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "cannot read config"), ("[1, 2]", "config must be a JSON object")],
        ids=["invalid-json", "not-an-object"],
    )
    def test_config_file_not_a_json_object_is_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert message in err["message"]

    def test_run_time_error_is_tagged_with_its_stage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "solver": {"chi": 5.0}}))
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RelaxationBoundError"
        assert err["message"].startswith("[stage: reconstruction] chi=5.0 is outside")

    def test_window_past_the_sanity_cap_is_2(self, tmp_path, capsys, monkeypatch):
        # it raised RuntimeError, which escaped main with a traceback
        monkeypatch.setattr(states, "_WINDOW_CAP", 100)
        capsys.readouterr()
        code = run_cli("gen-state", "thermal", "--mean", "1e3",
                       "--output", str(tmp_path / "p.json"))
        assert code == 2
        assert not (tmp_path / "p.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "sanity cap of 100" in err["message"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {**SMALL_CONFIG, "state": {"kind": "thermal", "mean_n": 1e3}}))
        code = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "sanity cap of 100" in err["message"]

    def test_small_tail_windows_at_the_boundary(self, tmp_path, capsys):
        # the smallest window with an exact tail of at most 1e-14 holds 563
        # entries; thermal(3e4, 1e-14)'s rounded terms sum past 1 + 1e-12
        capsys.readouterr()
        out = tmp_path / "p.json"
        code = run_cli("gen-state", "even-cat", "--alpha-sq", "400", "--tail", "1e-14",
                       "--output", str(out))
        assert code == 0
        assert distio.read_distribution(out)[0].size == 563
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {**SMALL_CONFIG, "state": {"kind": "thermal", "mean_n": 3e4, "tail": 1e-14}}))
        code = run_cli("run", "--config", str(cfg), "--output", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "exceeds 1 + 1e-12" in err["message"]

    def test_invalid_config_payload_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": {"kind": "warp"}}))
        assert run_cli("run", "--config", str(cfg)) == 2

    def test_support_outside_window_is_2_before_any_response_build(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(experiment, "build_response", None)  # a call raises
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(
            json.dumps({**SMALL_CONFIG, "constraints": {"support": [0, 5000]}})
        )
        capsys.readouterr()
        code = run_cli("run", "--config", str(cfg), "--output", str(out))
        assert code == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        n_max = build_state(SMALL_CONFIG["state"]).n_max
        assert f"support photon number 5000 is outside 0..{n_max}" in err["message"]

    def test_file_state_short_of_mass_is_2_at_load(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        distio.write_distribution(state, [0.25, 0.25])
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(
            json.dumps({**SMALL_CONFIG, "state": {"kind": "file", "path": str(state)}})
        )
        capsys.readouterr()
        code = run_cli("run", "--config", str(cfg), "--output", str(out))
        assert code == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "probabilities sum to 0.5" in err["message"]

    def test_deep_copy_failure_is_config_error(self):
        with pytest.raises(ConfigError, match="int64 is not JSON serializable"):
            ExperimentConfig.from_dict({**SMALL_CONFIG, "m_max": np.int64(300)})

    def test_os_error_keeps_its_errno_and_gets_the_stage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        (out / "photon_true.json").mkdir(parents=True)
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--output", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsADirectoryError"
        assert "[stage: output]" in err["message"]
        with pytest.raises(IsADirectoryError) as caught:
            run_experiment(ExperimentConfig.from_dict(SMALL_CONFIG), out)
        assert caught.value.args[0] == errno.EISDIR
        assert "[stage: output]" in str(caught.value)

    @pytest.mark.parametrize(
        "argv, error",
        [(["forward", "--detector", "{deep}", "--state", "{good}", "--output", "{out}"],
          "ParseError"),
         (["sample", "--counts", "{deep}", "--events", "10", "--output", "{out}"], "ParseError"),
         (["metrics", "--estimate", "{deep}", "--truth", "{good}", "--output", "{out}"],
          "ParseError"),
         (["metrics", "--estimate", "{good}", "--truth", "{good}", "--detector", "{deep}",
           "--measured", "{good}", "--output", "{out}"], "ParseError"),
         (["run", "--config", "{deep}", "--output", "{out}"], "ConfigError"),
         (["run", "--config", "{cfg}", "--output", "{out}"], "ConfigError")],
        ids=["forward", "sample", "metrics-estimate", "metrics-detector", "run",
             "run-state-file"],
    )
    def test_deeply_nested_json_is_2(self, tmp_path, capsys, argv, error):
        # json.loads raises RecursionError on 1e5 nested arrays, which used
        # to escape main as a traceback with exit code 1
        paths = {name: tmp_path / f"{name}.json" for name in ("deep", "good", "cfg", "out")}
        paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
        distio.write_distribution(paths["good"], [0.5, 0.5])
        paths["cfg"].write_text(
            json.dumps({**SMALL_CONFIG, "state": {"kind": "file", "path": str(paths["deep"])}})
        )
        capsys.readouterr()
        code = run_cli(*(arg.format(**paths) for arg in argv))
        assert code == 2
        assert not paths["out"].exists()
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == argv[0]
        assert err["error"] == error
        assert str(paths["deep"]) in err["message"]
        assert "recursion" in err["message"]


class TestRunExperiment:
    @pytest.mark.parametrize(
        "config", ["thermal_fig1", "spats_fig2", "cat_fig4", "spats_fig3_direct"]
    )
    def test_identical_across_blas_thread_counts(self, tmp_path, config):
        src = str(Path(pnrecon.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
            )
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [
                    sys.executable, "-m", "pnrecon.cli", "run",
                    "--config", config, "--seed", "3", "--output", str(out),
                ],
                env=env,
                check=True,
                capture_output=True,
                timeout=300,
            )
            outputs.append(out)
        names = sorted(p.name for p in outputs[0].iterdir())
        assert names == sorted(p.name for p in outputs[1].iterdir())
        assert names
        for name in names:
            assert (outputs[0] / name).read_bytes() == (
                outputs[1] / name
            ).read_bytes(), name
        check_output_digests(config, outputs[0])

    def test_readme_cli_chain_outputs_pinned(self, tmp_path, monkeypatch, capsys):
        # the README's CLI chain with its sample at seed 3, through in-process
        # main; metrics prints its figures, kept as metrics.txt
        monkeypatch.chdir(tmp_path)
        for argv in README_CHAIN:
            capsys.readouterr()
            assert run_cli(*argv) == 0, argv
        (tmp_path / "metrics.txt").write_text(capsys.readouterr().out, encoding="utf-8")
        check_output_digests("readme_cli_chain", tmp_path)

    def test_readme_cli_chain_memory_per_step(self, tmp_path, monkeypatch):
        # matrix files hold one row per line and invert-direct builds the
        # inverse 16 rows at a time (it used to peak at 12.9 MB here), so
        # the read of the 322 x 703 matrix file sets the chain's peak
        monkeypatch.chdir(tmp_path)
        peaks = {}
        for argv in README_CHAIN:
            tracemalloc.start()
            try:
                assert run_cli(*argv) == 0, argv
                peaks[argv[0]] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        tracemalloc.start()
        try:
            distio.read_matrix("S.json")
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks["invert-direct"] < 1e6
        # the steps that read the matrix also hold a few kB of their own
        assert max(peaks.values()) <= 1.01 * read, (peaks, read)

    def test_bundled_config_loads(self):
        config = load_config("thermal_fig1")
        assert config.detector_true.eta == 0.34
        assert config.sampling.events == 50_000

    def test_seed_override_changes_hash(self):
        base = load_config("cat_fig4")
        override = load_config("cat_fig4", seed=9)
        assert override.sampling.seed == 9
        assert base.config_hash() != override.config_hash()

    def test_outputs_and_determinism(self, tmp_path):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(config, a)
        run_experiment(config, b)
        names = [
            "photon_true.json",
            "counts_true.json",
            "counts_empirical.json",
            "estimate.json",
            "solve_report.json",
            "error_report.json",
            "plot_data.csv",
        ]
        for name in names:
            assert (a / name).exists(), name
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_file_state_matches_the_thermal_kind(self, tmp_path):
        state = tmp_path / "state.json"
        assert run_cli(
            "gen-state", "thermal", "--mean", "5", "--tail", "1e-8",
            "--output", str(state),
        ) == 0
        file_spec = {"kind": "file", "path": str(state)}
        probs = []
        for spec in (SMALL_CONFIG["state"], file_spec):
            cfg = tmp_path / "cfg.json"
            out = tmp_path / spec["kind"]
            cfg.write_text(json.dumps({**SMALL_CONFIG, "state": spec}))
            assert run_cli("run", "--config", str(cfg), "--output", str(out)) == 0
            values, metadata = distio.read_distribution(out / "photon_true.json")
            assert metadata["state"] == spec
            probs.append(values)
        assert np.array_equal(probs[0], probs[1])

    def test_rewritten_state_file_changes_the_hash(self, tmp_path):
        state = tmp_path / "state.json"
        config = {**SMALL_CONFIG, "state": {"kind": "file", "path": str(state)}}
        hashes = []
        for probs in ([0.5, 0.5], [0.25, 0.75]):
            distio.write_distribution(state, probs)
            loaded = ExperimentConfig.from_dict(config)
            assert loaded.photon.probs.tolist() == probs
            hashes.append(loaded.config_hash())
        assert hashes[0] != hashes[1]

    def test_file_state_path_is_taken_from_the_config_directory(
        self, tmp_path, monkeypatch
    ):
        cfgdir = tmp_path / "cfgdir"
        cfgdir.mkdir()
        distio.write_distribution(cfgdir / "state.json", [0.25, 0.75])
        config = {**SMALL_CONFIG, "state": {"kind": "file", "path": "state.json"}}
        (cfgdir / "cfg.json").write_text(json.dumps(config))
        loaded = []
        for cwd, ref in ((tmp_path, "cfgdir/cfg.json"), (cfgdir, "cfg.json")):
            monkeypatch.chdir(cwd)
            loaded.append(load_config(ref))
        assert [c.photon.probs.tolist() for c in loaded] == [[0.25, 0.75]] * 2
        assert loaded[0].config_hash() == loaded[1].config_hash()
        assert loaded[0].raw["state"]["path"] == "state.json"
        # a dict passed straight in reads from the working directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="No such file"):
            ExperimentConfig.from_dict(config)

    def test_exact_forward_without_sampling_recovers_the_state(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "name": "selfcheck",
                "state": {"kind": "thermal", "mean_n": 5.0, "tail": 1e-8},
                "detector_true": {"eta": 0.8, "n_noise": 0.2},
                "detector_assumed": {"eta": 0.8, "n_noise": 0.2},
                "sampling": None,
                "solver": {"max_iterations": 50_000},
                "constraints": {"support": None},
                "window_tail": 1e-8,
            }
        )
        summary = run_experiment(config, tmp_path / "out")
        assert summary["sampling_relative_error"] == 0.0
        assert summary["relative_error"] <= 1e-3

    @pytest.mark.parametrize("name", ["thermal_fig1", "spats_fig2"])
    def test_run_peak_memory(self, tmp_path, name):
        # a run holds one response matrix at a time: the true-detector one
        # is dropped once the true counts are formed, the assumed one after
        # the last metric, before the writes. Measured peaks are 1.022
        # (thermal, 322 x 703) and 1.040 (spats) times the matrix.
        config = load_config(name, seed=7)
        run_experiment(config, tmp_path / "warm")
        tracemalloc.start()
        try:
            summary = run_experiment(config, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = (summary["m_max"] + 1) * (summary["n_max"] + 1) * 8
        assert peak < 1.08 * matrix

    @pytest.mark.parametrize("seed", [3.7, 3.0, True])
    def test_non_integral_seed_override_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            ExperimentConfig.from_dict(SMALL_CONFIG, seed=seed)

    def test_numpy_seed_override_accepted(self):
        config = ExperimentConfig.from_dict(SMALL_CONFIG, seed=np.int64(3))
        assert config.raw["sampling"]["seed"] == 3
        assert config.config_hash() == (
            ExperimentConfig.from_dict(SMALL_CONFIG, seed=3).config_hash()
        )

    def test_list_support_and_explicit_window(self, tmp_path):
        support = [0, 1, 2, 4, 7]
        config = ExperimentConfig.from_dict(
            {**SMALL_CONFIG, "constraints": {"support": support}, "m_max": 12}
        )
        out = tmp_path / "out"
        summary = run_experiment(config, out)
        assert summary["m_max"] == 12
        for name in ("counts_true.json", "counts_empirical.json"):
            assert distio.read_distribution(out / name)[0].size == 13, name
        estimate, _ = distio.read_distribution(out / "estimate.json")
        assert estimate.size == summary["n_max"] + 1
        off = np.ones(estimate.size, dtype=bool)
        off[support] = False
        assert np.all(estimate[off] == 0.0)
        assert np.all(estimate[support] > 0.0)

    @pytest.mark.parametrize(
        "support,mask",
        [
            ([np.int64(0), 2], [True, False, True, False, False]),
            (list(np.arange(3)), [True, True, True, False, False]),
        ],
        ids=["mixed", "arange"],
    )
    def test_numpy_integer_support_accepted(self, support, mask):
        assert constraint_set(support, 5).support_mask.tolist() == mask

    def test_seed_override_rejected_without_sampling(self):
        payload = dict(SMALL_CONFIG)
        payload["sampling"] = None
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload, seed=3)

    def test_provenance_embedded_in_every_json_output(self, tmp_path):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        out = tmp_path / "out"
        run_experiment(config, out)
        for path in out.glob("*.json"):
            prov = json.loads(path.read_text())["provenance"]
            assert prov["config_sha256"] == config.config_hash(), path
            assert prov["seed"] == 11
            assert prov["generator"] == "pcg64"
            assert prov["package"].startswith("pnrecon ")

    def test_pipeline_composition_matches_run(self, tmp_path):
        config = ExperimentConfig.from_dict(SMALL_CONFIG)
        out = tmp_path / "whole"
        summary = run_experiment(config, out)

        # replay the same pipeline through the subcommand chain
        state = tmp_path / "state.json"
        det_true = tmp_path / "S_true.json"
        det_rec = tmp_path / "S_rec.json"
        exact = tmp_path / "P.json"
        emp = tmp_path / "emp.json"
        rec = tmp_path / "rec.json"
        report = tmp_path / "report.json"
        assert run_cli(
            "gen-state", "thermal", "--mean", "5", "--tail", "1e-8",
            "--output", str(state),
        ) == 0
        values, _ = distio.read_distribution(state)
        n_max = values.size - 1
        assert n_max == summary["n_max"]
        assert run_cli(
            "build-detector", "--eta", "0.8", "--noise", "0.2",
            "--n-max", str(n_max), "--tail", "1e-8",
            "--output", str(det_true),
        ) == 0
        mat = distio.read_matrix(det_true)
        assert mat.m_max == summary["m_max"]
        assert run_cli(
            "build-detector", "--eta", "0.78", "--noise", "0.21",
            "--n-max", str(n_max), "--m-max", str(mat.m_max),
            "--output", str(det_rec),
        ) == 0
        assert run_cli(
            "forward",
            "--detector", str(det_true), "--state", str(state),
            "--output", str(exact),
        ) == 0
        assert run_cli(
            "sample",
            "--counts", str(exact), "--events", "2000", "--seed", "11",
            "--output", str(emp),
        ) == 0
        assert run_cli(
            "reconstruct",
            "--detector", str(det_rec), "--counts", str(emp),
            "--events", "2000", "--max-iterations", "5000",
            "--output", str(rec), "--report", str(report),
        ) == 0

        # every shared numeric payload agrees bit for bit
        for chained, whole in [
            (state, out / "photon_true.json"),
            (exact, out / "counts_true.json"),
            (emp, out / "counts_empirical.json"),
            (rec, out / "estimate.json"),
        ]:
            a, _ = distio.read_distribution(chained)
            b, _ = distio.read_distribution(whole)
            assert np.array_equal(a, b), chained

        # the chain's solver report is run's without the provenance, in
        # the same key order
        whole_report = json.loads((out / "solve_report.json").read_text())
        del whole_report["provenance"]
        chained_report = json.loads(report.read_text())
        assert list(chained_report.items()) == list(whole_report.items())

        # without --events, reconstruct takes nu from sample's file
        rec_nu, report_nu = tmp_path / "rec_nu.json", tmp_path / "report_nu.json"
        assert run_cli(
            "reconstruct",
            "--detector", str(det_rec), "--counts", str(emp),
            "--max-iterations", "5000",
            "--output", str(rec_nu), "--report", str(report_nu),
        ) == 0
        assert rec_nu.read_bytes() == rec.read_bytes()
        assert report_nu.read_bytes() == report.read_bytes()
        assert chained_report["stop_reason"] == "discrepancy"
