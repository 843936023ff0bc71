"""Command-line interface.

Each subcommand reads and writes the shared distribution formats so that
pipelines compose through files:

    pnrecon gen-state thermal --mean 30 --output p.json
    pnrecon build-detector --eta 0.34 --noise 0.30 --n-max 100 --output S.json
    pnrecon forward --detector S.json --state p.json --output P.json
    pnrecon sample --counts P.json --events 50000 --seed 1 --output emp.json
    pnrecon reconstruct --detector S.json --counts emp.json --output rec.json
    pnrecon run --config thermal_fig1 --output results/

Exit codes: 0 on success, 2 on config/validation errors, 3 on numerical
failure (for example direct-inversion overflow).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, distio
from .detector import DetectorParams, build_response, forward, suggest_m_max
from .experiment import (
    ConfigError,
    build_state,
    bundled_config_names,
    constraint_set,
    load_config,
    run_experiment,
    solver_config,
)
from .inversion import direct_reconstruct
from .landweber import solve
from .metrics import normalization_defect, relative_error, relative_residual
from .sampling import GENERATOR_NAME, SamplingConfig, sample_counts
from .states import PhotonDistribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _emit_error(stage: str, exc: Exception) -> None:
    payload = {
        "error": type(exc).__name__,
        "stage": stage,
        "message": str(exc),
    }
    print(json.dumps(payload), file=sys.stderr)


def _cmd_gen_state(args) -> int:
    flags = dict(mean_n=args.mean, alpha_sq=args.alpha_sq, n=args.n, tail=args.tail)
    spec = {key: value for key, value in flags.items() if value is not None}
    dist = build_state({"kind": args.kind.replace("-", "_"), **spec})
    distio.write_distribution(args.output, dist.probs, fmt=args.format)
    print(
        f"wrote {args.output} (n_max={dist.n_max}, "
        f"tail={dist.truncation_tail:.3g})"
    )
    return EXIT_OK


def _cmd_build_detector(args) -> int:
    params = DetectorParams(args.eta, args.noise)
    m_max = args.m_max
    if m_max is None:
        m_max = suggest_m_max(params, args.n_max, args.tail)
    mat = build_response(params, args.n_max, m_max)
    distio.write_matrix(args.output, mat)
    print(f"wrote {args.output} (m_max={m_max}, max col tail={mat.col_tail.max():.3g})")
    return EXIT_OK


def _cmd_forward(args) -> int:
    mat = distio.read_matrix(args.detector)
    photon = PhotonDistribution(distio.read_distribution(args.state)[0])
    counts = forward(mat, photon)
    distio.write_distribution(args.output, counts, fmt=args.format)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    counts, _ = distio.read_counts(args.counts)
    config = SamplingConfig(events=args.events, seed=args.seed)
    empirical = sample_counts(counts, config)
    distio.write_distribution(
        args.output,
        empirical,
        metadata={
            "nu": config.events,
            "seed": config.seed,
            "generator": GENERATOR_NAME,
        },
        fmt=args.format,
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    try:
        chi = None if args.chi == "auto" else float(args.chi)
    except ValueError:
        raise ConfigError(f"--chi takes 'auto' or a number, got {args.chi!r}") from None
    mat = distio.read_matrix(args.detector)
    counts, metadata = distio.read_counts(args.counts)
    options = {
        "chi": chi,
        "max_iterations": args.max_iterations,
        "discrepancy_tau": args.tau,
        "noise_level": args.noise_level,
        "stagnation_tol": args.stagnation_tol,
    }
    events = metadata.get("nu") if args.events is None else args.events
    constraints = constraint_set("even" if args.even_support else None, mat.n_max + 1)
    report = solve(mat, counts, constraints, solver_config(options, counts, events))
    with distio._format_once():  # the report repeats the estimate
        distio.write_distribution(args.output, report.estimate, fmt=args.format)
        if args.report:
            distio.write_json(args.report, report.as_dict())
    print(
        f"wrote {args.output} (iterations={report.iterations_run}, "
        f"stop={report.stop_reason})"
    )
    return EXIT_OK


def _cmd_invert_direct(args) -> int:
    params = DetectorParams(args.eta, args.noise)
    counts, _ = distio.read_counts(args.counts)
    estimate = direct_reconstruct(params, counts, args.n_max)
    distio.write_distribution(args.output, estimate, fmt=args.format)
    print(f"wrote {args.output}")
    return EXIT_OK


def _read_finite(path) -> np.ndarray:
    """Values of a distribution file, rejecting a NaN or infinite entry;
    negative entries pass, as a raw direct-inversion estimate has them."""
    values, _ = distio.read_distribution(path)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(
            f"{path}: non-finite entry {values[bad[0]]} at index {bad[0]}"
        )
    return values


def _cmd_metrics(args) -> int:
    if (args.detector is None) != (args.measured is None):
        raise ConfigError("--detector and --measured must be given together")
    est_values = _read_finite(args.estimate)
    truth_values = _read_finite(args.truth)
    payload = {
        "relative_error": relative_error(est_values, truth_values),
        "normalization_defect": normalization_defect(est_values),
    }
    if args.detector is not None:
        mat = distio.read_matrix(args.detector)
        measured, _ = distio.read_counts(args.measured)
        payload["relative_residual"] = relative_residual(
            mat, est_values, measured
        )
    if args.output:
        distio.write_json(args.output, payload)
    else:
        print(distio.dumps(payload))
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config, seed=args.seed)
    output = args.output or f"{config.name}_out"
    summary = run_experiment(config, output)
    print(distio.dumps(summary))
    return EXIT_OK


def _cmd_list_configs(args) -> int:
    for name in bundled_config_names():
        print(name)
    return EXIT_OK


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnrecon",
        description=(
            "Reconstruct photon-number distributions from photocounting "
            "data recorded with a lossy, noisy detector."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-state", help="generate a photon-number distribution")
    p.add_argument("kind", choices=["thermal", "spats", "even-cat", "fock"])
    p.add_argument("--mean", type=float, help="mean occupation (thermal, spats)")
    p.add_argument("--alpha-sq", type=float, help="|alpha|^2 (even-cat)")
    p.add_argument("--n", type=int, help="photon number (fock)")
    p.add_argument("--tail", type=float, help="tail mass (thermal, spats, even-cat)")
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_gen_state)

    p = sub.add_parser("build-detector", help="build a response matrix")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--tail", type=float, default=1e-10)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_build_detector)

    p = sub.add_parser("forward", help="apply the forward map")
    p.add_argument("--detector", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("sample", help="simulate photocounting events")
    p.add_argument("--counts", required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("reconstruct", help="projected Landweber reconstruction")
    p.add_argument("--detector", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="also write the solver report JSON here")
    p.add_argument("--chi", default="auto", help="auto or a number")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--noise-level", type=float)
    p.add_argument(
        "--events",
        type=int,
        default=None,
        help="sampling events behind the counts; sets the noise estimate",
    )
    p.add_argument("--stagnation-tol", type=float)
    p.add_argument("--even-support", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser(
        "invert-direct", help="raw reconstruction through the analytic inverse"
    )
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_invert_direct)

    p = sub.add_parser("metrics", help="error figures for an estimate")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--detector")
    p.add_argument("--measured")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("run", help="run a full experiment config")
    p.add_argument("--config", required=True, help="path or bundled config name")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("list-configs", help="list bundled experiment configs")
    p.set_defaults(func=_cmd_list_configs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = args.command
    try:
        return args.func(args)
    except (OverflowError, FloatingPointError) as exc:
        _emit_error(stage, exc)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        _emit_error(stage, exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
