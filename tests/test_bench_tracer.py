"""Smoke test of the benchmark tracer (perfbench/bench_trace.py).

The tracer wraps pnrecon functions by name at their import sites, so a
rename in src/ would break `perfbench/run.py --trace 1` while every other
test passes; this test installs it on the real modules.
"""

import importlib.util
from pathlib import Path

from pnrecon import cli, detector, distio, experiment, landweber, states

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_cli_op_and_restores_every_patch(tmp_path):
    modules = (cli, detector, distio, experiment, landweber, states)
    before = [dict(vars(module)) for module in modules]
    tracer = load_bench_trace().Tracer()
    tracer.install()
    try:
        assert distio.write_distribution is not before[2]["write_distribution"]
        with tracer.op(1):
            assert cli.main(["gen-state", "fock", "--n", "3",
                             "--output", str(tmp_path / "p.json")]) == 0
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    assert "distio.write_distribution" in names
    assert "cli.main" in names
    for module, saved in zip(modules, before):
        changed = [name for name, value in vars(module).items() if saved.get(name) is not value]
        assert not changed, f"{module.__name__} still has {changed} patched"
