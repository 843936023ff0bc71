import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pnrecon
from pnrecon import distio
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

    def test_non_finite_matrix_rejected_before_solve(self, tmp_path, capsys):
        det = tmp_path / "S.json"
        counts = tmp_path / "P.json"
        assert run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.1",
            "--n-max", "3", "--m-max", "5", "--output", str(det),
        ) == 0
        payload = json.loads(det.read_text())
        payload["entries"][4][2] = float("nan")
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
        assert code == 2
        assert not (tmp_path / "p.json").exists()
        assert not (tmp_path / "report.json").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "reconstruct"
        assert err["error"] == "ParseError"
        assert "non-finite entry nan at (m, n) = (4, 2)" in err["message"]

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

    def test_invalid_config_payload_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": {"kind": "warp"}}))
        assert run_cli("run", "--config", str(cfg)) == 2


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

    def test_thermal_run_peak_memory(self, tmp_path):
        # the two 322 x 703 matrices take 1.81 MB each; the true-detector one
        # is dropped once the true counts are formed, so they never coexist:
        # 2.06 MB measured, bounded at that plus about 20%
        config = load_config("thermal_fig1", seed=7)
        run_experiment(config, tmp_path / "warm")
        tracemalloc.start()
        try:
            run_experiment(config, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

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
