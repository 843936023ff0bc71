"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed in ``__init__``
(the set-up that ``setup_s`` times), runs one op per ``op(k, out_dir)``
call and judges the op's outputs in ``check``. ``k`` picks one of the
workload's sub-seeds; repeats of one ``k`` must give byte-identical
outputs. All ops are closed loop: the runner starts the next op when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pnrecon import cli, experiment, landweber
from pnrecon.detector import DetectorParams, build_response, forward, suggest_m_max
from pnrecon.landweber import ConstraintSet, LandweberConfig
from pnrecon.states import even_cat

# Sub-seeds per seeded workload. The reconstruction error of one sampled
# data set varies by about 25% from seed to seed (sampling noise), so
# rel_error is the median over this many data sets.
SUBSEEDS = 10

# Op id of the memory pass in span records; checked ops count from 1.
MEMORY_OP = 0


@dataclass
class Outcome:
    """What the checks found for one op; no problems means it passed."""

    problems: list
    rel_error: float = math.nan
    digest: str = ""
    stats: dict = field(default_factory=dict)


def sub_seeds(seed: int, count: int = SUBSEEDS) -> list:
    return [seed * count + i for i in range(count)]


def digest_files(directory: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _probs(path: Path) -> np.ndarray:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return np.asarray(payload["probs"] if isinstance(payload, dict) else payload, dtype=float)


def _rel_error(estimate, truth) -> float:
    size = max(estimate.size, truth.size)
    est = np.pad(estimate, (0, size - estimate.size))
    ref = np.pad(truth, (0, size - truth.size))
    return float(np.linalg.norm(est - ref) / np.linalg.norm(ref))


def _estimate_problems(estimate: np.ndarray, what: str) -> list:
    problems = []
    if not np.all(np.isfinite(estimate)):
        problems.append(f"{what} has non-finite entries")
    elif np.any(estimate < 0):
        problems.append(f"{what} has negative entries (min {estimate.min():.3g})")
    return problems


def _agrees(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


class Session:
    """Runs ops of one workload, checks them and counts failures."""

    def __init__(self, workload, scratch: Path, tracer=None):
        self.workload = workload
        self.scratch = scratch
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.first_outcomes = {}
        self.messages = []

    def execute(self, k: int, traced: bool = False) -> float:
        """Run one op on sub-seed k and return its wall time in seconds.
        The op's outputs are checked and removed afterwards."""
        out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=self.scratch))
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.op(self.attempted):
                    result = self.workload.op(k, out_dir)
            else:
                result = self.workload.op(k, out_dir)
        except Exception as exc:  # an op that raises is a counted failure
            error = f"op raised {type(exc).__name__}: {exc}"
            if not self.messages:
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        try:
            outcome = Outcome([error]) if error else self.workload.check(k, out_dir, result)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.record(k, outcome)
        return elapsed

    def memory_pass(self, traced: bool = False) -> int:
        """Peak traced heap in bytes of the workload's memory op, run in
        its own untimed pass so tracemalloc inflates no timed op. Spans, if
        traced, carry op id MEMORY_OP. The outputs are not checked: the
        same inputs already ran as a checked op."""
        out_dir = Path(tempfile.mkdtemp(prefix="mem-", dir=self.scratch))
        tracemalloc.start()
        try:
            if traced:
                with self.tracer.op(MEMORY_OP):
                    self.workload.memory_op(out_dir)
            else:
                self.workload.memory_op(out_dir)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            shutil.rmtree(out_dir, ignore_errors=True)

    def record(self, k, outcome):
        """Count a failed op; the first passing outcome per sub-seed is the
        reference later repeats must match byte for byte."""
        problems = list(outcome.problems)
        first = self.first_outcomes.get(k)
        if first is None or (first.problems and not problems):
            first = self.first_outcomes[k] = outcome
        if not problems and first.digest != outcome.digest:
            problems.append(f"sub-seed {k}: output bytes differ from an earlier op on the same inputs")
        if problems:
            self.failed += 1
            self.messages.extend(problems)

    def fail_all(self, problems):
        """A check over the whole run failed: every op counts as failed."""
        self.messages.extend(problems)
        self.failed = self.attempted


class PipelineThermal:
    """``run_experiment(load_config("thermal_fig1", seed=s), dir)``: the
    ``run`` traffic, dominated by the two ``build_response`` calls."""

    name = "pipeline_thermal"
    RESULT_FILES = (
        "counts_empirical.json", "counts_true.json", "error_report.json",
        "estimate.json", "photon_true.json", "plot_data.csv", "solve_report.json",
    )

    def __init__(self, seed: int):
        self.configs = [experiment.load_config("thermal_fig1", seed=s) for s in sub_seeds(seed)]
        self.subseeds = len(self.configs)

    def op(self, k: int, out_dir: Path):
        return experiment.run_experiment(self.configs[k], out_dir)

    def memory_op(self, out_dir: Path):
        return self.op(0, out_dir)

    def check(self, k: int, out_dir: Path, summary) -> Outcome:
        names = sorted(p.name for p in out_dir.iterdir())
        if names != sorted(self.RESULT_FILES):
            return Outcome([f"result files {names}, expected {sorted(self.RESULT_FILES)}"])
        report = json.loads((out_dir / "error_report.json").read_text(encoding="utf-8"))
        estimate = _probs(out_dir / "estimate.json")
        problems = _estimate_problems(estimate, "estimate")
        dp = report["relative_error"]
        if not problems and not _agrees(dp, _rel_error(estimate, _probs(out_dir / "photon_true.json"))):
            problems.append(f"error_report relative_error {dp!r} disagrees with the files")
        stats = {
            "dP": report["sampling_relative_error"],
            "dp": dp,
            "dres": report["relative_residual"],
        }
        return Outcome(problems, dp, digest_files(out_dir), stats)

    def gate(self, outcomes: dict) -> list:
        """Gate 1 over the run's sub-seeds: the mean sampled error dP in
        [0.015, 0.045], and dp <= 0.10 with dres <= 0.04 on at least 4/5.

        A single data set falls below dP = 0.015 for 81 of 3000 seeds and
        above dp = 0.10 for 1 of 400, so the seed statistics are judged
        over the sub-seeds as the acceptance gate judges them over its five
        seeds, not per op."""
        stats = [outcomes[k].stats for k in range(self.subseeds)]
        if not all(stats):
            return []  # an op already failed its own checks
        problems = []
        mean_dp_data = sum(s["dP"] for s in stats) / len(stats)
        if not 0.015 <= mean_dp_data <= 0.045:
            problems.append(f"gate 1: mean dP {mean_dp_data:.4g} outside [0.015, 0.045]")
        good = sum(s["dp"] <= 0.10 and s["dres"] <= 0.04 for s in stats)
        if 5 * good < 4 * len(stats):
            problems.append(f"gate 1: dp<=0.10 and dres<=0.04 on only {good}/{len(stats)} sub-seeds")
        return problems


class SolveCatExact:
    """Gate-6 call pattern: 40 warm-restarted 5000-iteration solves on the
    exact even-cat data. Seed-free: the data are exact, so --seed is
    ignored."""

    name = "solve_cat_exact"
    CHUNKS = 40
    CHUNK_ITERATIONS = 5000
    # tracemalloc slows this allocation-heavy loop about 5.5x (a 25 s
    # op), so the memory op stops after the first warm-restarted call:
    # every later call makes the same allocations.
    MEMORY_CHUNKS = 2

    def __init__(self, seed: int):
        self.photon = even_cat(23.9, 1e-10)
        params = DetectorParams(0.613749, 1.763442)
        m_max = suggest_m_max(params, self.photon.n_max, 1e-10)
        self.matrix = build_response(params, self.photon.n_max, m_max)
        self.exact = forward(self.matrix, self.photon)
        self.constraints = ConstraintSet.even_support(self.photon.n_max + 1)
        self.subseeds = 1

    def op(self, k: int, out_dir: Path, chunks: int = CHUNKS):
        estimate = None
        for _ in range(chunks):
            report = landweber.solve(
                self.matrix,
                self.exact,
                self.constraints,
                LandweberConfig(
                    max_iterations=self.CHUNK_ITERATIONS,
                    stagnation_tol=0.0,
                    initial=estimate,
                ),
            )
            estimate = report.estimate
        return estimate

    def memory_op(self, out_dir: Path):
        return self.op(0, out_dir, self.MEMORY_CHUNKS)

    def check(self, k: int, out_dir: Path, estimate) -> Outcome:
        estimate = np.asarray(estimate, dtype=float)
        problems = _estimate_problems(estimate, "estimate")
        if np.any(estimate[1::2] != 0.0):
            problems.append("odd entries of the even-support estimate are not exactly 0")
        if problems:
            return Outcome(problems)
        error = _rel_error(estimate, self.photon.probs)
        return Outcome([], error, hashlib.sha256(estimate.tobytes()).hexdigest())

    def gate(self, outcomes: dict) -> list:
        return []


class CliSpatsDirect:
    """The README's file-composed CLI chain on the SPATS state, nu = 5e5,
    through in-process ``pnrecon.cli.main``."""

    name = "cli_spats_direct"
    N_MAX = "276"
    M_MAX = "255"  # the window build-detector picks for the true detector

    def __init__(self, seed: int):
        self.seeds = sub_seeds(seed)
        self.subseeds = len(self.seeds)

    def steps(self, k: int, d: Path) -> list:
        def f(name):
            return str(d / name)

        return [
            ["gen-state", "spats", "--mean", "10", "--output", f("p.json")],
            ["build-detector", "--eta", "0.7764", "--noise", "0.748", "--n-max", self.N_MAX,
             "--output", f("S_true.json")],
            ["forward", "--detector", f("S_true.json"), "--state", f("p.json"), "--output", f("P.json")],
            ["sample", "--counts", f("P.json"), "--events", "500000", "--seed", str(self.seeds[k]),
             "--output", f("emp.json")],
            ["build-detector", "--eta", "0.77", "--noise", "0.75", "--n-max", self.N_MAX,
             "--m-max", self.M_MAX, "--output", f("S_assumed.json")],
            ["reconstruct", "--detector", f("S_assumed.json"), "--counts", f("emp.json"),
             "--output", f("rec.json")],
            ["invert-direct", "--eta", "0.77", "--noise", "0.75", "--n-max", self.N_MAX,
             "--counts", f("emp.json"), "--output", f("raw.json")],
            ["metrics", "--estimate", f("rec.json"), "--truth", f("p.json"),
             "--detector", f("S_assumed.json"), "--measured", f("emp.json"), "--output", f("metrics.json")],
        ]

    def op(self, k: int, out_dir: Path):
        codes = []
        sink = io.StringIO()
        for argv in self.steps(k, out_dir):
            with contextlib.redirect_stdout(sink):
                codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        return codes

    def memory_op(self, out_dir: Path):
        return self.op(0, out_dir)

    def check(self, k: int, out_dir: Path, codes) -> Outcome:
        steps = self.steps(k, out_dir)
        if codes != [0] * len(steps):
            failed = steps[len(codes) - 1][0] if codes else "?"
            return Outcome([f"exit codes {codes}: {failed} failed"])
        truth = _probs(out_dir / "p.json")
        estimate = _probs(out_dir / "rec.json")
        problems = _estimate_problems(estimate, "Landweber estimate")
        if problems:
            return Outcome(problems)
        landweber_error = _rel_error(estimate, truth)
        direct_error = _rel_error(_probs(out_dir / "raw.json"), truth)
        reported = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        if not _agrees(reported["relative_error"], landweber_error):
            problems.append(f"metrics relative_error {reported['relative_error']!r} disagrees with the files")
        if not direct_error >= 5.0 * landweber_error:
            problems.append(f"gate 3: direct error {direct_error:.3g} < 5x Landweber {landweber_error:.3g}")
        return Outcome(problems, landweber_error, digest_files(out_dir))

    def gate(self, outcomes: dict) -> list:
        return []


WORKLOADS = {cls.name: cls for cls in (PipelineThermal, SolveCatExact, CliSpatsDirect)}
