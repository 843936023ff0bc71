import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnrecon
from pnrecon import distio, states
from pnrecon.cli import main
from pnrecon.experiment import (
    ConfigError,
    ExperimentConfig,
    load_config,
    run_experiment,
)


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
    def test_gen_state_thermal(self, tmp_path):
        out = tmp_path / "state.json"
        assert run_cli(
            "gen-state", "thermal", "--mean", "30", "--output", str(out)
        ) == 0
        values, metadata = distio.read_distribution(out)
        expected = states.thermal(30.0)
        assert np.array_equal(values, expected.probs)
        assert metadata == {}  # bare JSON array form
        assert out.read_text().lstrip().startswith("[")

    def test_gen_state_missing_parameter_is_config_error(self, tmp_path):
        out = tmp_path / "state.json"
        assert run_cli("gen-state", "thermal", "--output", str(out)) == 2

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
        bad.write_text("0.3, 0.3")
        det = tmp_path / "S.json"
        run_cli(
            "build-detector", "--eta", "0.9", "--noise", "0.0",
            "--n-max", "3", "--output", str(det),
        )
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

    def test_invalid_config_payload_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": {"kind": "warp"}}))
        assert run_cli("run", "--config", str(cfg)) == 2


class TestRunExperiment:
    @pytest.mark.parametrize(
        "config", ["thermal_fig1", "spats_fig2", "cat_fig4"]
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
            "--output", str(rec),
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
