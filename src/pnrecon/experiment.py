"""End-to-end experiment pipeline: generate a state, push it through the
detector model, simulate sampling, reconstruct, and emit plot-ready data.

An experiment is described by a single JSON config; bundled configs under
``pnrecon/configs`` encode the four reference pipelines (thermal, photon-
added thermal, the direct-inversion baseline, and the even superposition
with the parity mask). Every output file embeds provenance: the hash of
the effective config, the seed, the generator name and the package
version.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import distio, states
from .detector import DetectorParams, build_response, forward, suggest_m_max
from .inversion import direct_reconstruct
from .landweber import ConstraintSet, LandweberConfig, solve
from .metrics import normalization_defect, relative_error, relative_residual
from .sampling import GENERATOR_NAME, SamplingConfig, expected_sampling_error, sample_counts
from .states import _require_integer, _require_real

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "build_state",
    "constraint_set",
    "run_experiment",
    "bundled_config_names",
    "load_config",
    "solver_config",
]

# state kinds; each names its builder in ``states`` ("file": from_file)
_STATE_KINDS = ("thermal", "spats", "even_cat", "fock", "file")

_SOLVER_KEYS = tuple(f.name for f in fields(LandweberConfig) if f.name != "initial")

_CONFIG_KEYS = ("name", "state", "detector_true", "detector_assumed", "sampling",
                "solver", "constraints", "window_tail", "m_max", "direct_inversion")

# sections that must be JSON objects when given (sampling may also be
# null); build_state checks the state
_OBJECT_KEYS = ("sampling", "solver", "constraints")


class ConfigError(ValueError):
    """An experiment config is missing, malformed, or inconsistent."""


def build_state(spec: dict, base=None) -> states.PhotonDistribution:
    """The photon distribution a state spec describes, e.g.
    ``{"kind": "thermal", "mean_n": 30.0, "tail": 1e-10}``; the builder is
    looked up in ``states`` at call time. A relative ``file`` path is taken
    from ``base`` if given, else from the working directory."""
    _require_object("state", spec)
    args = dict(spec)
    kind = args.pop("kind", None)
    if kind not in _STATE_KINDS:
        raise ConfigError(
            f"unknown state kind {kind!r}; expected one of {sorted(_STATE_KINDS)}"
        )
    if kind == "file" and base is not None and "path" in args:
        args["path"] = Path(base, args["path"])
    builder = getattr(states, "from_file" if kind == "file" else kind)
    try:
        return builder(**args)
    except TypeError as exc:
        raise ConfigError(f"invalid state {kind!r}: {exc}") from exc


def solver_config(options: dict, counts=None, events=None) -> LandweberConfig:
    """LandweberConfig from solver options; an option that is absent or
    None takes the LandweberConfig default, except that noise_level
    defaults to expected_sampling_error(counts, events) given events."""
    _check_keys("solver", options, _SOLVER_KEYS)
    try:
        kwargs = {key: value for key, value in options.items() if value is not None}
        if "noise_level" not in kwargs and events is not None:
            SamplingConfig(events)  # checks that events is an integer >= 1
            kwargs["noise_level"] = expected_sampling_error(counts, events)
        return LandweberConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc


def _require_object(key: str, value) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")


def _check_keys(what: str, mapping: dict, allowed) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; expected {list(allowed)}")


def constraint_set(support, size: int) -> ConstraintSet:
    """Constraints on photon numbers 0..size-1 for constraints.support:
    nonnegativity (None), plus zeros at odd n ("even") or off a list."""
    if support is None:
        return ConstraintSet.nonnegative()
    if support == "even":
        return ConstraintSet.even_support(size)
    if not isinstance(support, list):
        raise ConfigError(
            'constraints.support must be null, "even" or a list of photon '
            f"numbers, got {support!r}"
        )
    numbers = [_require_integer("support", n) for n in support]
    outside = [n for n in numbers if not 0 <= n < size]
    if outside:
        raise ConfigError(
            f"support photon number {outside[0]} is outside 0..{size - 1}"
        )
    mask = np.zeros(size, dtype=bool)
    mask[numbers] = True
    return ConstraintSet(mask)


@contextmanager
def _stage(name: str):
    """Tag exceptions with the pipeline stage they came from; an OSError
    carries the tag in its strerror and keeps its errno in args[0]."""
    try:
        yield
    except Exception as exc:
        tag = f"[stage: {name}]"
        if isinstance(exc, OSError) and exc.strerror:
            exc.strerror = f"{tag} {exc.strerror}"
        else:
            detail = exc.args[0] if exc.args else str(exc)
            exc.args = (f"{tag} {detail}",) + tuple(exc.args[1:])
        raise


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description, built once from the config dict:
    ``photon`` is the state it names (a file state is read here) and
    ``constraints`` the solver's constraint set on that state's window.
    ``raw`` is the effective config dict (seed already resolved) that
    provenance hashes are taken over."""

    name: str
    photon: states.PhotonDistribution
    detector_true: DetectorParams
    detector_assumed: DetectorParams
    sampling: SamplingConfig | None
    solver: dict
    constraints: ConstraintSet
    window_tail: float
    m_max: int | None
    direct_inversion: bool
    raw: dict

    @classmethod
    def from_dict(cls, payload: dict, seed=None, base=None) -> "ExperimentConfig":
        """Build from a config dict; ``base`` is the directory a relative
        ``file`` state path is taken from (None: the working directory)."""
        if not isinstance(payload, dict):
            raise ConfigError("config must be a JSON object")
        try:
            data = json.loads(json.dumps(payload))  # deep copy, JSON-clean
            _check_keys("config", data, _CONFIG_KEYS)
            name = data.get("name", "experiment")
            if not isinstance(name, str):
                raise ConfigError(f"name must be a string, got {name!r}")
            for key in _OBJECT_KEYS:
                if key in data and (data[key] is not None or key != "sampling"):
                    _require_object(key, data[key])
            photon = build_state(data["state"], base)
            det_true = DetectorParams(**data["detector_true"])
            det_assumed = DetectorParams(**data["detector_assumed"])
            if data.get("sampling") is None:
                # exact-forward pipeline: the solver sees noise-free counts
                if seed is not None:
                    raise ConfigError(
                        "config has no sampling stage; a seed override "
                        "is not applicable"
                    )
                sampling = None
                data["sampling"] = None
            else:
                sampling_args = dict(data["sampling"])
                if seed is not None:
                    sampling_args["seed"] = seed
                sampling = SamplingConfig(**sampling_args)
                if seed is not None:
                    data["sampling"] = {**sampling_args, "seed": sampling.seed}
            solver = dict(data.get("solver", {}))
            solver_config(solver)
            options = dict(data.get("constraints", {}))
            _check_keys("constraints", options, ("support",))
            constraints = constraint_set(options.get("support"), photon.n_max + 1)
            window_tail = _require_real("window_tail", data.get("window_tail", 1e-10))
            if not (0.0 < window_tail < 1.0):
                raise ConfigError(f"window_tail must be in (0, 1), got {window_tail}")
            m_max = data.get("m_max")
            if m_max is not None and _require_integer("m_max", m_max) < 0:
                raise ConfigError("m_max must be nonnegative")
            direct_inversion = data.get("direct_inversion", False)
            if not isinstance(direct_inversion, bool):
                raise ConfigError(
                    f"direct_inversion must be a boolean, got {direct_inversion!r}"
                )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        return cls(
            name=name,
            photon=photon,
            detector_true=det_true,
            detector_assumed=det_assumed,
            sampling=sampling,
            solver=solver,
            constraints=constraints,
            window_tail=window_tail,
            m_max=m_max,
            direct_inversion=direct_inversion,
            raw=data,
        )

    def config_hash(self) -> str:
        """SHA-256 of the canonical effective config; for a ``file`` state
        also of the state's values, which the config names only by path."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode())
        if self.raw["state"].get("kind") == "file":
            digest.update(self.photon.probs.tobytes())
        return digest.hexdigest()


def bundled_config_names() -> list[str]:
    root = resources.files("pnrecon").joinpath("configs")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(ref, seed=None) -> ExperimentConfig:
    """Load a config from a path, or by bundled name (e.g. thermal_fig1);
    a relative ``file`` state path is taken from the config's directory."""
    path = Path(ref)
    if not path.exists():
        path = resources.files("pnrecon").joinpath(f"configs/{ref}.json")
        if not path.is_file():
            raise ConfigError(
                f"no config file {ref!r} and no bundled config of that name "
                f"(available: {', '.join(bundled_config_names())})"
            )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ConfigError(f"cannot read config {ref!r}: {exc}") from exc
    return ExperimentConfig.from_dict(payload, seed=seed, base=path.parent)


def run_experiment(config: ExperimentConfig, output_dir) -> dict:
    """Execute the full pipeline and write the result files.

    Writes into ``output_dir``: the true photon distribution, true and
    empirical count distributions, the reconstruction, the solver report,
    the error report, a plot-data table, and (when configured) the raw
    direct-inversion estimate. Returns a summary dict with the headline
    metrics and file paths. Holds one response matrix at a time, so the
    peak is about that matrix, or the direct inversion's grids if larger.
    """
    provenance = {
        "config_sha256": config.config_hash(),
        "seed": config.sampling.seed if config.sampling else None,
        "generator": GENERATOR_NAME if config.sampling else None,
        "package": f"pnrecon {__version__}",
    }

    photon = config.photon
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("detector"):
        n_max = photon.n_max
        m_max = config.m_max
        if m_max is None:
            m_max = suggest_m_max(config.detector_true, n_max, config.window_tail)
        counts_true = forward(build_response(config.detector_true, n_max, m_max), photon)
    with _stage("sampling"):
        if config.sampling is None:
            counts_emp = counts_true
            delta_data = 0.0
        else:
            counts_emp = sample_counts(counts_true, config.sampling)
            delta_data = relative_error(counts_emp, counts_true)
    with _stage("reconstruction"):
        mat_assumed = build_response(config.detector_assumed, n_max, m_max)
        events = config.sampling.events if config.sampling else None
        solver = solver_config(config.solver, counts_emp, events)
        report = solve(mat_assumed, counts_emp, config.constraints, solver)
    with _stage("metrics"):
        figures = {
            "relative_error": relative_error(report.estimate, photon.probs),
            "relative_residual": relative_residual(mat_assumed, report.estimate, counts_emp),
            "normalization_defect": normalization_defect(report.estimate),
        }
    del mat_assumed  # last read above: the stages below run without the matrix

    direct_error = None
    if config.direct_inversion:
        with _stage("direct-inversion"):
            raw = direct_reconstruct(config.detector_assumed, counts_emp, n_max)
            direct_error = relative_error(raw, photon.probs)
            distio.write_distribution(
                out / "direct_estimate.json",
                raw,
                metadata={
                    "relative_error": direct_error,
                    "provenance": provenance,
                },
            )

    with _stage("output"), distio._format_once():  # each vector formatted once
        distio.write_distribution(
            out / "photon_true.json",
            photon.probs,
            metadata={
                "state": config.raw["state"],
                "truncation_tail": photon.truncation_tail,
                "provenance": provenance,
            },
        )
        distio.write_distribution(
            out / "counts_true.json",
            counts_true,
            metadata={
                "eta": config.detector_true.eta,
                "n_noise": config.detector_true.n_noise,
                "provenance": provenance,
            },
        )
        distio.write_distribution(
            out / "counts_empirical.json",
            counts_emp,
            metadata={
                "nu": config.sampling.events if config.sampling else None,
                "seed": config.sampling.seed if config.sampling else None,
                "generator": GENERATOR_NAME if config.sampling else None,
                "provenance": provenance,
            },
        )
        distio.write_distribution(
            out / "estimate.json",
            report.estimate,
            metadata={
                "eta": config.detector_assumed.eta,
                "n_noise": config.detector_assumed.n_noise,
                "provenance": provenance,
            },
        )
        distio.write_json(
            out / "solve_report.json",
            {**report.as_dict(), "provenance": provenance},
        )
        error_payload = {
            **figures,
            "sampling_relative_error": delta_data,
            "noise_level": solver.noise_level,
            "provenance": provenance,
        }
        if direct_error is not None:
            error_payload["direct_relative_error"] = direct_error
        distio.write_json(out / "error_report.json", error_payload)
        distio.write_plot_table(
            out / "plot_data.csv",
            {
                "p_true": photon.probs,
                "p_reconstructed": report.estimate,
                "P_simulated": counts_emp,
            },
        )

    summary = {
        "name": config.name,
        "output_dir": str(out),
        "n_max": n_max,
        "m_max": m_max,
        "iterations_run": report.iterations_run,
        "stop_reason": report.stop_reason,
        "sampling_relative_error": delta_data,
        **figures,
    }
    if direct_error is not None:
        summary["direct_relative_error"] = direct_error
    return summary
