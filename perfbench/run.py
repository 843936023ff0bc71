"""pnrecon benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_thermal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` it reports the end-to-end metrics (setup_s, wall_s,
peak_mb, rel_error) of one workload; with ``--trace 1`` the per-layer
metrics from a traced run. Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. An op fails when it raises, a CLI step exits nonzero,
its outputs fail their checks, or a repeat of the same inputs gives
different output bytes; fail_ratio is failed / attempted.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere: the plain single-thread
# baseline, and the same thread count on every machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_TRACED_PAIRS = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_mb": "MB", "rel_error": "ratio"}


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import pnrecon and build the
    workload's inputs; the first one warms the file cache and is dropped."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return times


def run_untraced(name, seed, seconds, scratch):
    from bench_workloads import WORKLOADS, Session

    setup_times = measure_setup(name, seed)
    workload = WORKLOADS[name](seed)
    session = Session(workload, scratch)
    session.execute(0)  # warm-up: caches and lazy set-up, not timed
    peak = session.memory_pass()
    times = []
    start = time.perf_counter()
    i = 0
    # Every sub-seed runs at least once so rel_error covers all of them.
    while i < workload.subseeds or time.perf_counter() - start < seconds:
        times.append(session.execute(i % workload.subseeds))
        i += 1
    gate_problems = workload.gate(session.first_outcomes)
    if gate_problems:
        session.fail_all(gate_problems)
    errors = [o.rel_error for o in session.first_outcomes.values() if not o.problems]
    if not errors:
        raise RuntimeError(f"no op passed its checks: {session.messages[:3]}")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(times),
        "peak_mb": peak / 1e6,
        "rel_error": statistics.median(errors),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "wall_s": f"median of {len(times)} ops after 1 warm-up "
                  f"(q1 {_quartiles(times)[0]:.4g}, q3 {_quartiles(times)[2]:.4g})",
        "peak_mb": "tracemalloc peak of the memory op, own pass",
        "rel_error": f"median over {workload.subseeds} sub-seed(s)",
    }
    return session, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def run_traced(name, seed, seconds, scratch, work):
    from bench_trace import LAYER_UNITS, Tracer, op_metrics
    from bench_workloads import MEMORY_OP, WORKLOADS, Session

    workload = WORKLOADS[name](seed)
    tracer = Tracer()
    tracer.install()
    try:
        session = Session(workload, scratch, tracer)
        session.execute(0)
        tracer.track_memory = True  # per-span heap peaks, own pass
        session.memory_pass(traced=True)
        tracer.track_memory = False
        plain, traced, traced_ids = [], [], []
        start = time.perf_counter()
        while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
            plain.append(session.execute(0))
            traced.append(session.execute(0, traced=True))
            traced_ids.append(session.attempted)
    finally:
        tracer.uninstall()
    tracer.dump(work / f"spans-{name}-seed{seed}.json")

    per_op = {}
    for op_id in traced_ids + [MEMORY_OP]:
        spans = [s for s in tracer.spans if s[5] == op_id]
        counters = {n: c for (o, n), c in tracer.counters.items() if o == op_id}
        per_op[op_id] = op_metrics(spans, counters)
    metrics = {}
    for key in LAYER_UNITS:
        if key.endswith(".peak_mb"):
            metrics[key] = per_op[MEMORY_OP][key]
        elif key != "trace.overhead_s":
            metrics[key] = statistics.median(per_op[i][key] for i in traced_ids)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    notes = {"trace.op_s": f"median of {len(traced)} traced ops; untraced median "
                           f"{statistics.median(plain):.4g} s over {len(plain)} ops"}
    return session, {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}, notes


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def report(name, seed, trace, session, metrics, notes):
    print(f"== {name} seed {seed} trace {trace}")
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:36s} {value:14.6g} {unit:6s} {note}")
    ratio = session.failed / session.attempted
    print(f"  {'fail_ratio':36s} {ratio:14.6g} {'ratio':6s} {session.failed}/{session.attempted} ops failed")
    for message in session.messages[:10]:
        print(f"  FAIL {message}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import pnrecon and build the inputs (times setup_s)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**56:
        parser.error("--seed must be in [0, 2**56)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "pnrecon" / "__init__.py").is_file():
        print(f"perfbench: no pnrecon sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bench_workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[names[0]](args.seed)
        return 0

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    print(f"perfbench: {environment()}")
    attempted = failed = 0
    combined = {}
    try:
        for name in names:
            if args.trace:
                session, metrics, notes = run_traced(name, args.seed, args.seconds, scratch, work)
            else:
                session, metrics, notes = run_untraced(name, args.seed, args.seconds, scratch)
            report(name, args.seed, args.trace, session, metrics, notes)
            attempted += session.attempted
            failed += session.failed
            prefix = f"{name}." if len(names) > 1 else ""
            combined.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
