"""Self-tests of the benchmark's span arithmetic and failure counting."""

import numpy as np
import pytest

from bench_trace import ROOT, op_metrics, self_times
from bench_workloads import CliSpatsDirect, Outcome, Session, SolveCatExact


def span(sid, name, start, end, parent, attrs=None):
    return [sid, name, start, end, parent, 1, attrs or {}]


# root 0..10 -> cli.main 1..9 -> build_response 2..5, write_matrix 5..8
#                                 write_matrix -> write_json 5.5..7.5
TREE = [
    span(0, ROOT, 0.0, 10.0, None),
    span(1, "cli.main", 1.0, 9.0, 0),
    span(2, "detector.build_response", 2.0, 5.0, 1, {"entries": 12}),
    span(3, "distio.write_matrix", 5.0, 8.0, 1, {"bytes": 100}),
    span(4, "distio.write_json", 5.5, 7.5, 3, {"bytes": 100}),
]


def test_self_times_subtract_children():
    own = self_times(TREE)
    assert own == {0: 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_times_clip_overlapping_children():
    spans = [span(0, ROOT, 0.0, 4.0, None), span(1, "a.x", 1.0, 3.0, 0), span(2, "a.y", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_op_metrics_account_for_the_op():
    metrics = op_metrics(TREE)
    assert metrics["trace.op_s"] == 10.0
    assert metrics["bench.self_s"] == 2.0
    assert metrics["cli.self_s"] == 2.0
    assert metrics["detector.build_response.s"] == 3.0
    assert metrics["detector.build_response.calls"] == 1
    assert metrics["detector.entries"] == 12
    assert metrics["distio.write.s"] == 3.0
    # bytes count once, at the outermost distio span
    assert metrics["distio.write.bytes"] == 100
    assert metrics["experiment.self_s"] == 0.0


def test_op_metrics_reject_time_outside_the_op():
    orphan = span(5, "distio.read_matrix", 10.0, 11.0, None, {"bytes": 1})
    with pytest.raises(ValueError, match="sum to"):
        op_metrics(TREE + [orphan])


class Canned:
    """A workload whose op returns a fixed result, judged by a real check."""

    subseeds = 1

    def __init__(self, check, result):
        self.check = check
        self.result = result

    def op(self, k, out_dir):
        return self.result


@pytest.fixture(scope="module")
def cat():
    return SolveCatExact(seed=0)


def test_negative_estimate_counts_as_failure(cat, tmp_path):
    estimate = np.array(cat.photon.probs, dtype=float)
    estimate[2] = -1e-6
    session = Session(Canned(cat.check, estimate), tmp_path)
    session.execute(0)
    assert (session.attempted, session.failed) == (1, 1)
    assert "negative" in session.messages[0]


def test_nonzero_exit_counts_as_failure(tmp_path):
    chain = CliSpatsDirect(seed=0)
    session = Session(Canned(chain.check, [0, 0, 0, 0, 0, 2]), tmp_path)
    session.execute(0)
    assert (session.attempted, session.failed) == (1, 1)
    assert "reconstruct failed" in session.messages[0]


def test_changed_output_bytes_count_as_failure(tmp_path):
    session = Session(None, tmp_path)
    session.record(0, Outcome([], 0.1, "aa"))
    session.record(0, Outcome([], 0.1, "aa"))
    session.record(0, Outcome([], 0.1, "bb"))
    assert session.failed == 1


def test_exact_cat_estimate_passes(cat, tmp_path):
    estimate = np.where(np.arange(cat.photon.probs.size) % 2 == 0, cat.photon.probs, 0.0)
    session = Session(Canned(cat.check, estimate), tmp_path)
    session.execute(0)
    assert session.failed == 0
    assert session.first_outcomes[0].rel_error < 1e-12
