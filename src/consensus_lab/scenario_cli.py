"""Scenario runner: YAML in, trajectory CSV plus verdict report out.

A scenario file names a node count, a coupling topology, an initial state,
an optional delay, and a list of analyses to run against the simulated
trajectory.  The runner writes ``trajectory.csv`` and ``report.txt`` into
the output directory and exits with a code that scripts can branch on:

  0  every analysis passed
  2  at least one analysis failed its verdict
  3  a connectivity or balance hypothesis could not be verified
  4  the scenario file is malformed
  5  a numerical routine gave up

Reruns of the same file are byte-identical: all stochastic generators
require a seed, floats are written with repr-faithful formatting, and no
timestamps enter the outputs.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from . import certify, lyapunov
from .digraph import window_connectivity_report
from .dynamics import (
    Trajectory,
    delayed_functional_series,
    simulate_dde,
    simulate_ode,
    spread_series,
)
from .errors import (
    AmbiguousSpectrum,
    BalanceViolated,
    ConsensusLabError,
    DegenerateSeries,
    HistoryGap,
    HypothesisUnverified,
    InvalidSpec,
    NoConvergence,
    NormTooLarge,
    NotSymmetric,
    NoTrappedComponent,
    OutOfHorizon,
    ParseError,
    QuadratureFailure,
    ValidationError,
    WindowNotCovered,
)
from .metzler_core import (
    CouplingSchedule,
    TimeVaryingCoupling,
    build_schedule,
    evaluate_schedule,
    from_offdiagonal,
    integrate_schedule,
    validate_coupling_matrix,
)
from .spectral import spectral_graph_equivalence

log = logging.getLogger("consensus_lab")

EXIT_PASS = 0
EXIT_VERDICT = 2
EXIT_HYPOTHESIS = 3
EXIT_CONFIG = 4
EXIT_NUMERICAL = 5

_NUMERICAL_ERRORS = (
    QuadratureFailure,
    NoConvergence,
    AmbiguousSpectrum,
    NormTooLarge,
    HistoryGap,
    WindowNotCovered,
    DegenerateSeries,
)

_CONSTANT_KINDS = ("constant", "ring", "star", "line")
TOPOLOGY_KINDS = _CONSTANT_KINDS + (
    "piecewise",
    "alternating_leader_follower",
    "random_switching",
    "sinusoidal",
)
ANALYSIS_KINDS = ("connectivity", "audit", "lemma", "certificate", "spectral")
# Audit names as base words ("weighted:<f>" -> "weighted"), plus the
# delayed sliding-window spread that only the scenario runner evaluates.
_AUDIT_BASES = tuple(
    name.split(":", 1)[0] for name in lyapunov.AUDIT_FUNCTIONALS
) + ("delayed_spread",)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


class SinusoidalCoupling(TimeVaryingCoupling):
    """Off-diagonal weights base_kl (1 + depth sin(2 pi t / period)).

    The diagonal re-balances every row to zero at each instant.  |depth|
    may not exceed 1, which keeps the off-diagonal non-negative for all t.
    """

    name = "sinusoidal"

    def __init__(self, base_offdiagonal, depth: float, period: float):
        base = np.array(base_offdiagonal, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise InvalidSpec(f"base weights must be square, got {base.shape}")
        if np.any(np.diag(base) != 0.0):
            raise InvalidSpec("base weights must have a zero diagonal")
        if np.any(base < 0.0):
            raise InvalidSpec("base weights must be non-negative")
        if not (abs(depth) <= 1.0):
            raise InvalidSpec(f"depth must lie in [-1, 1], got {depth!r}")
        if not (period > 0.0):
            raise InvalidSpec(f"period must be positive, got {period!r}")
        self._base = base
        self._depth = float(depth)
        self._period = float(period)

    def entries_at(self, t: float) -> np.ndarray:
        scale = 1.0 + self._depth * math.sin(2.0 * math.pi * t / self._period)
        out = self._base * scale
        np.fill_diagonal(out, 0.0)
        np.fill_diagonal(out, -out.sum(axis=1))
        return out


# --------------------------------------------------------------------------
# Configuration parsing (strict: unknown keys are rejected everywhere)
# --------------------------------------------------------------------------

def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(where, f"expected a mapping, got {type(value).__name__}")
    return value


def _take(mapping: dict, where: str, required=(), optional=()) -> dict:
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ValidationError(
            where, f"unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(set(required) | set(optional))}")
    for key in required:
        if key not in mapping:
            raise ValidationError(where, f"missing required key {key!r}")
    return mapping


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(where, f"expected a number, got {value!r}")
    return float(value)


def _positive(value, where: str) -> float:
    num = _number(value, where)
    if not num > 0.0:
        raise ValidationError(where, f"must be positive, got {num!r}")
    return num


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(where, f"expected an integer, got {value!r}")
    return value


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(where, f"expected a boolean, got {value!r}")
    return value


def _matrix_of(value, n: int, where: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(where, "expected a nested list of numbers") from None
    if arr.shape != (n, n):
        raise ValidationError(where, f"expected shape ({n}, {n}), got {arr.shape}")
    return arr


def _coupling_from(spec: dict, n: int, where: str):
    """Exactly one of ``matrix`` (full, zero row sums) or ``weights``
    (off-diagonal, zero diagonal)."""
    has_matrix = "matrix" in spec
    has_weights = "weights" in spec
    if has_matrix == has_weights:
        raise ValidationError(where, "give exactly one of 'matrix' or 'weights'")
    if has_matrix:
        return validate_coupling_matrix(_matrix_of(spec["matrix"], n, where))
    return from_offdiagonal(_matrix_of(spec["weights"], n, where))


@dataclass(frozen=True)
class DelaySpec:
    tau: float
    full: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: everything needed to rerun it exactly."""

    name: str
    n: int
    horizon: float
    t0: float
    topology: dict
    initial_state: object
    analyses: tuple
    seed: Optional[int] = None
    step: Optional[float] = None
    delay: Optional[DelaySpec] = None
    source: str = field(default="<memory>", compare=False)


def parse_config(text: str, name: str = "<memory>") -> ScenarioConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ParseError(f"not valid YAML: {exc}", line=line) from None
    raw = _require_mapping(raw, "scenario")
    _take(raw, "scenario",
          required=("nodes", "horizon", "topology", "initial_state"),
          optional=("name", "t0", "seed", "step", "delay", "analyses"))
    n = _integer(raw["nodes"], "nodes")
    if n < 1:
        raise ValidationError("nodes", f"need at least one node, got {n}")
    horizon = _positive(raw["horizon"], "horizon")
    t0 = _number(raw.get("t0", 0.0), "t0")
    seed = None
    if "seed" in raw:
        seed = _integer(raw["seed"], "seed")
    step = None
    if "step" in raw:
        step = _positive(raw["step"], "step")
    delay = None
    if "delay" in raw:
        dmap = _take(_require_mapping(raw["delay"], "delay"), "delay",
                     required=("tau",), optional=("full",))
        delay = DelaySpec(
            tau=_positive(dmap["tau"], "delay.tau"),
            full=_boolean(dmap.get("full", False), "delay.full"),
        )
    topology = _validate_topology(raw["topology"], n, seed)
    initial = _validate_initial(raw["initial_state"], n, seed)
    analyses = _validate_analyses(raw.get("analyses", []), n, t0, delay, topology)
    return ScenarioConfig(
        name=str(raw.get("name", name)),
        n=n,
        horizon=horizon,
        t0=t0,
        topology=topology,
        initial_state=initial,
        analyses=analyses,
        seed=seed,
        step=step,
        delay=delay,
        source=name,
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    cfg = parse_config(text, name=stem)
    return cfg


def _validate_topology(value, n: int, scenario_seed) -> dict:
    spec = dict(_require_mapping(value, "topology"))
    kind = spec.get("kind")
    if kind not in TOPOLOGY_KINDS:
        raise ValidationError(
            "topology.kind", f"{kind!r} is not one of {list(TOPOLOGY_KINDS)}")
    where = f"topology({kind})"
    if kind == "constant":
        _take(spec, where, required=("kind",), optional=("matrix", "weights"))
        _coupling_from(spec, n, where)
    elif kind == "piecewise":
        _take(spec, where, required=("kind", "pieces"))
        pieces = spec["pieces"]
        if not isinstance(pieces, list) or not pieces:
            raise ValidationError(where, "pieces must be a non-empty list")
        last = 0.0
        for i, piece in enumerate(pieces):
            pwhere = f"{where}.pieces[{i}]"
            pmap = _take(_require_mapping(piece, pwhere), pwhere,
                         required=("until",), optional=("matrix", "weights"))
            until = _positive(pmap["until"], f"{pwhere}.until")
            if until <= last:
                raise ValidationError(
                    f"{pwhere}.until", f"must exceed previous piece end {last}")
            last = until
            _coupling_from(pmap, n, pwhere)
    elif kind in ("ring", "star", "line"):
        optional = ["weight", "bidirectional"]
        if kind == "star":
            optional.append("hub")
        _take(spec, where, required=("kind",), optional=tuple(optional))
        if "weight" in spec:
            _positive(spec["weight"], f"{where}.weight")
        if "bidirectional" in spec:
            _boolean(spec["bidirectional"], f"{where}.bidirectional")
        if kind == "star":
            hub = _integer(spec.get("hub", 1), f"{where}.hub")
            if not 1 <= hub <= n:
                raise ValidationError(f"{where}.hub", f"{hub} outside 1..{n}")
        if kind in ("ring", "star") and n < 2:
            raise ValidationError(where, f"{kind} needs at least 2 nodes")
    elif kind == "alternating_leader_follower":
        _take(spec, where, required=("kind", "period"), optional=("weight",))
        _positive(spec["period"], f"{where}.period")
        if "weight" in spec:
            _positive(spec["weight"], f"{where}.weight")
        if n < 2:
            raise ValidationError(where, "needs at least 2 nodes")
    elif kind == "random_switching":
        _take(spec, where, required=("kind", "period", "link_probability",
                                     "weight_range"),
              optional=("seed",))
        _positive(spec["period"], f"{where}.period")
        prob = _number(spec["link_probability"], f"{where}.link_probability")
        if not 0.0 <= prob <= 1.0:
            raise ValidationError(
                f"{where}.link_probability", f"must be in [0, 1], got {prob}")
        wr = spec["weight_range"]
        if (not isinstance(wr, list) or len(wr) != 2):
            raise ValidationError(
                f"{where}.weight_range", "expected a [low, high] pair")
        lo = _number(wr[0], f"{where}.weight_range[0]")
        hi = _number(wr[1], f"{where}.weight_range[1]")
        if not 0.0 <= lo <= hi:
            raise ValidationError(
                f"{where}.weight_range", f"need 0 <= low <= high, got {wr}")
        if "seed" in spec:
            _integer(spec["seed"], f"{where}.seed")
        elif scenario_seed is None:
            raise ValidationError(
                f"{where}.seed",
                "random_switching needs a seed (topology or scenario level) "
                "so reruns are reproducible")
    elif kind == "sinusoidal":
        _take(spec, where, required=("kind", "depth", "period"),
              optional=("matrix", "weights"))
        _coupling_from(spec, n, where)
        depth = _number(spec["depth"], f"{where}.depth")
        if not abs(depth) <= 1.0:
            raise ValidationError(
                f"{where}.depth", f"must lie in [-1, 1], got {depth}")
        _positive(spec["period"], f"{where}.period")
    return spec


def _validate_initial(value, n: int, scenario_seed):
    if isinstance(value, list):
        if len(value) != n:
            raise ValidationError(
                "initial_state", f"expected {n} values, got {len(value)}")
        return tuple(_number(v, f"initial_state[{i}]") for i, v in enumerate(value))
    spec = _take(_require_mapping(value, "initial_state"), "initial_state",
                 required=("distribution", "low", "high"), optional=("seed",))
    if spec["distribution"] != "uniform":
        raise ValidationError(
            "initial_state.distribution",
            f"only 'uniform' is supported, got {spec['distribution']!r}")
    low = _number(spec["low"], "initial_state.low")
    high = _number(spec["high"], "initial_state.high")
    if not low <= high:
        raise ValidationError("initial_state", f"need low <= high, got {value}")
    if "seed" in spec:
        _integer(spec["seed"], "initial_state.seed")
    elif scenario_seed is None:
        raise ValidationError(
            "initial_state.seed",
            "sampled initial states need a seed (here or at scenario level)")
    return dict(spec)


def _validate_analyses(value, n: int, t0: float, delay, topology) -> tuple:
    if not isinstance(value, list):
        raise ValidationError("analyses", "expected a list")
    out = []
    for i, item in enumerate(value):
        where = f"analyses[{i}]"
        spec = dict(_require_mapping(item, where))
        kind = spec.get("kind")
        if kind not in ANALYSIS_KINDS:
            raise ValidationError(
                f"{where}.kind", f"{kind!r} is not one of {list(ANALYSIS_KINDS)}")
        where = f"{where}({kind})"
        if kind == "connectivity":
            _take(spec, where, required=("kind", "delta", "window"),
                  optional=("sample_step",))
            _positive(spec["delta"], f"{where}.delta")
            _positive(spec["window"], f"{where}.window")
            if "sample_step" in spec:
                _positive(spec["sample_step"], f"{where}.sample_step")
        elif kind == "audit":
            _take(spec, where, required=("kind", "functionals"),
                  optional=("weights", "slack"))
            names = spec["functionals"]
            if not isinstance(names, list) or not names:
                raise ValidationError(
                    f"{where}.functionals", "expected a non-empty list")
            for fname in names:
                base = str(fname).split(":", 1)[0]
                if base not in _AUDIT_BASES:
                    raise ValidationError(
                        f"{where}.functionals", f"unknown functional {fname!r}")
                if base == "weighted":
                    sub = str(fname).split(":", 1)
                    if len(sub) != 2 or sub[1] not in lyapunov.CONVEX_REGISTRY:
                        raise ValidationError(
                            f"{where}.functionals",
                            f"{fname!r} must be weighted:<f> with f in "
                            f"{sorted(lyapunov.CONVEX_REGISTRY)}")
                if fname == "potential" and topology["kind"] not in _CONSTANT_KINDS:
                    raise ValidationError(
                        f"{where}.functionals",
                        "the potential audit needs constant coupling")
                if fname == "delayed_spread" and delay is None:
                    raise ValidationError(
                        f"{where}.functionals",
                        "delayed_spread needs a delay section")
            if "weights" in spec:
                if (not isinstance(spec["weights"], list)
                        or len(spec["weights"]) != n):
                    raise ValidationError(
                        f"{where}.weights", f"expected {n} values")
            if "slack" in spec:
                _positive(spec["slack"], f"{where}.slack")
        elif kind == "lemma":
            _take(spec, where, required=("kind", "group", "window"),
                  optional=("t_start", "slack"))
            group = spec["group"]
            if not isinstance(group, list) or not group:
                raise ValidationError(f"{where}.group", "expected a non-empty list")
            for node in group:
                node = _integer(node, f"{where}.group")
                if not 1 <= node <= n:
                    raise ValidationError(f"{where}.group", f"{node} outside 1..{n}")
            _positive(spec["window"], f"{where}.window")
            if "t_start" in spec:
                _number(spec["t_start"], f"{where}.t_start")
            if "slack" in spec:
                _positive(spec["slack"], f"{where}.slack")
        elif kind == "certificate":
            _take(spec, where, required=("kind", "delta", "window", "root"),
                  optional=("verify_hypothesis", "slack_factor"))
            _positive(spec["delta"], f"{where}.delta")
            _positive(spec["window"], f"{where}.window")
            root = _integer(spec["root"], f"{where}.root")
            if not 1 <= root <= n:
                raise ValidationError(f"{where}.root", f"{root} outside 1..{n}")
            if "verify_hypothesis" in spec:
                _boolean(spec["verify_hypothesis"], f"{where}.verify_hypothesis")
            if "slack_factor" in spec:
                _positive(spec["slack_factor"], f"{where}.slack_factor")
        elif kind == "spectral":
            _take(spec, where, required=("kind",), optional=("delta", "gap_tol"))
            if "delta" in spec:
                delta = _number(spec["delta"], f"{where}.delta")
                if delta < 0.0:
                    raise ValidationError(f"{where}.delta", "must be >= 0")
            if "gap_tol" in spec:
                _positive(spec["gap_tol"], f"{where}.gap_tol")
        out.append(spec)
    return tuple(out)


# --------------------------------------------------------------------------
# Topology generators
# --------------------------------------------------------------------------

def generate_topology(
    spec: dict,
    n: int,
    t0: float,
    horizon: float,
    seed: Optional[int] = None,
) -> CouplingSchedule:
    """Build the coupling schedule for a validated topology spec over
    [t0, t0 + horizon]."""
    kind = spec["kind"]
    t1 = t0 + horizon
    if kind == "constant":
        return build_schedule([(t0, t1, _coupling_from(spec, n, kind))])
    if kind == "ring":
        w = float(spec.get("weight", 1.0))
        off = np.zeros((n, n))
        for k in range(n):
            off[k, (k + 1) % n] = w
            if spec.get("bidirectional", False):
                off[(k + 1) % n, k] = w
        return build_schedule([(t0, t1, from_offdiagonal(off))])
    if kind == "star":
        w = float(spec.get("weight", 1.0))
        hub = int(spec.get("hub", 1)) - 1
        off = np.zeros((n, n))
        for k in range(n):
            if k != hub:
                off[k, hub] = w
                if spec.get("bidirectional", False):
                    off[hub, k] = w
        return build_schedule([(t0, t1, from_offdiagonal(off))])
    if kind == "line":
        w = float(spec.get("weight", 1.0))
        both = spec.get("bidirectional", True)
        off = np.zeros((n, n))
        for k in range(1, n):
            off[k, k - 1] = w
            if both:
                off[k - 1, k] = w
        return build_schedule([(t0, t1, from_offdiagonal(off))])
    if kind == "piecewise":
        segments = []
        prev = t0
        for piece in spec["pieces"]:
            end = min(t0 + float(piece["until"]), t1)
            if end > prev:
                segments.append((prev, end, _coupling_from(piece, n, "piece")))
                prev = end
        if prev < t1 - 1e-12:
            raise InvalidSpec(
                f"pieces cover [{t0}, {prev}] but the horizon runs to {t1}")
        return build_schedule(segments)
    if kind == "alternating_leader_follower":
        period = float(spec["period"])
        w = float(spec.get("weight", 1.0))
        half = period / 2.0
        matrices = []
        for leader in (0, 1):
            off = np.zeros((n, n))
            for k in range(n):
                if k != leader:
                    off[k, leader] = w
            matrices.append(from_offdiagonal(off))
        segments = []
        start = t0
        idx = 0
        while start < t1 - 1e-12:
            end = min(start + half, t1)
            segments.append((start, end, matrices[idx % 2]))
            start = end
            idx += 1
        return build_schedule(segments)
    if kind == "random_switching":
        period = float(spec["period"])
        prob = float(spec["link_probability"])
        lo, hi = (float(v) for v in spec["weight_range"])
        rng = np.random.default_rng(spec.get("seed", seed))
        segments = []
        start = t0
        while start < t1 - 1e-12:
            end = min(start + period, t1)
            mask = rng.random((n, n)) < prob
            weights = rng.uniform(lo, hi, (n, n))
            off = np.where(mask, weights, 0.0)
            np.fill_diagonal(off, 0.0)
            segments.append((start, end, from_offdiagonal(off)))
            start = end
        return build_schedule(segments)
    if kind == "sinusoidal":
        base = _coupling_from(spec, n, kind).entries.copy()
        np.fill_diagonal(base, 0.0)
        family = SinusoidalCoupling(base, float(spec["depth"]), float(spec["period"]))
        return build_schedule([(t0, t1, family)])
    raise InvalidSpec(f"unhandled topology kind {kind!r}")


def resolve_initial_state(config: ScenarioConfig) -> np.ndarray:
    init = config.initial_state
    if isinstance(init, tuple):
        return np.array(init, dtype=float)
    rng = np.random.default_rng(init.get("seed", config.seed))
    return rng.uniform(float(init["low"]), float(init["high"]), config.n)


# --------------------------------------------------------------------------
# Analyses
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisResult:
    kind: str
    status: str  # "pass", "fail", "hypothesis", "numerical"
    detail: str


def _run_connectivity(spec, config, schedule, trajectory) -> AnalysisResult:
    report = window_connectivity_report(
        schedule, float(spec["delta"]), float(spec["window"]),
        sample_step=spec.get("sample_step"))
    roots = ",".join(str(r) for r in sorted(report.common_roots)) or "none"
    detail = (f"common roots {{{roots}}} across {len(report.window_starts)} "
              f"sampled windows (delta={_fmt(spec['delta'])}, "
              f"T={_fmt(spec['window'])})")
    if report.has_common_root:
        return AnalysisResult("connectivity", "pass", detail)
    return AnalysisResult("connectivity", "fail", detail)


def _run_audit_one(fname, spec, config, schedule, trajectory):
    slack = spec.get("slack")
    if fname == "delayed_spread":
        series = delayed_functional_series(trajectory, config.delay.tau)
        return lyapunov.monotonicity_from_series("delayed_spread", series,
                                                 slack=slack)
    matrix = None
    if fname == "potential":
        matrix = evaluate_schedule(schedule, config.t0)
    weights = spec.get("weights")
    return lyapunov.audit_monotonicity(
        trajectory, fname, weights=weights, matrix=matrix, slack=slack)


def _run_audit(spec, config, schedule, trajectory) -> AnalysisResult:
    failures = []
    worst = []
    for fname in spec["functionals"]:
        report = _run_audit_one(fname, spec, config, schedule, trajectory)
        worst.append(f"{fname}: worst={_fmt(report.worst_violation)}")
        if not report.passed:
            failures.append(fname)
    detail = "; ".join(worst)
    if failures:
        return AnalysisResult(
            "audit", "fail", f"violated by {','.join(failures)}; {detail}")
    return AnalysisResult("audit", "pass", detail)


def _run_lemma(spec, config, schedule, trajectory) -> AnalysisResult:
    t_start = float(spec.get("t_start", config.t0))
    report = certify.verify_lemma_on_trajectory(
        schedule, trajectory, [int(v) for v in spec["group"]],
        t_start, float(spec["window"]), slack=spec.get("slack"))
    trapped = ",".join(str(v) for v in report.trapped) or "none"
    detail = (f"beta={_fmt(report.beta)} trapped={{{trapped}}} "
              f"group_within={report.group_within} "
              f"range_contained={report.range_contained}")
    return AnalysisResult("lemma", "pass" if report.passed else "fail", detail)


def _run_certificate(spec, config, schedule, trajectory, x0) -> AnalysisResult:
    report = certify.contraction_certificate(
        schedule, x0, config.t0, float(spec["window"]), float(spec["delta"]),
        int(spec["root"]), step=config.step,
        verify_hypothesis=bool(spec.get("verify_hypothesis", True)),
        slack_factor=float(spec.get("slack_factor", certify.DEFAULT_SLACK_FACTOR)))
    detail = (f"rho={_fmt(report.rho)} rate={_fmt(report.certified_rate)} "
              f"observed={_fmt(report.observed_contraction)} over "
              f"{len(report.stages)} stages")
    return AnalysisResult(
        "certificate", "pass" if report.passed else "fail", detail)


def _run_spectral(spec, config, schedule, trajectory) -> AnalysisResult:
    if len(schedule.segments) == 1 and schedule.segments[0].is_constant:
        matrix = schedule.segments[0].generator.entries
        source = "constant coupling"
    else:
        span = schedule.t_end - schedule.t_start
        matrix = integrate_schedule(schedule, schedule.t_start, span).entries / span
        source = "time-averaged coupling"
    kwargs = {}
    if "gap_tol" in spec:
        kwargs["gap_tol"] = float(spec["gap_tol"])
    report = spectral_graph_equivalence(matrix, float(spec.get("delta", 0.0)),
                                        **kwargs)
    eigs = report.verdict.eigenvalues
    lead = ", ".join(
        f"{v.real:.6g}{v.imag:+.6g}j" if v.imag else f"{v.real:.6g}"
        for v in eigs[: min(4, len(eigs))])
    detail = (f"{source}: stable={report.verdict.consensus_stable} "
              f"roots={{{','.join(str(r) for r in report.roots) or 'none'}}} "
              f"agree={report.agree} spectrum head [{lead}]")
    return AnalysisResult("spectral", "pass" if report.agree else "fail", detail)


def _run_analysis(spec, config, schedule, trajectory, x0) -> AnalysisResult:
    kind = spec["kind"]
    try:
        if kind == "connectivity":
            return _run_connectivity(spec, config, schedule, trajectory)
        if kind == "audit":
            return _run_audit(spec, config, schedule, trajectory)
        if kind == "lemma":
            return _run_lemma(spec, config, schedule, trajectory)
        if kind == "certificate":
            return _run_certificate(spec, config, schedule, trajectory, x0)
        if kind == "spectral":
            return _run_spectral(spec, config, schedule, trajectory)
    except (HypothesisUnverified, BalanceViolated) as exc:
        return AnalysisResult(kind, "hypothesis", str(exc))
    except NoTrappedComponent as exc:
        return AnalysisResult(kind, "fail", str(exc))
    except _NUMERICAL_ERRORS as exc:
        return AnalysisResult(kind, "numerical",
                              f"{type(exc).__name__}: {exc}")
    raise InvalidSpec(f"unhandled analysis kind {kind!r}")


_STATUS_EXIT = {
    "pass": EXIT_PASS,
    "fail": EXIT_VERDICT,
    "hypothesis": EXIT_HYPOTHESIS,
    "numerical": EXIT_NUMERICAL,
}
_STATUS_TAG = {
    "pass": "[PASS]",
    "fail": "[FAIL]",
    "hypothesis": "[HYPOTHESIS]",
    "numerical": "[ERROR]",
}


def _write_trajectory_csv(path: str, trajectory: Trajectory):
    n = trajectory.n
    spreads = trajectory.states.max(axis=1) - trajectory.states.min(axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time," + ",".join(f"x_{k}" for k in range(1, n + 1))
                 + ",V_spread\n")
        for t, row, v in zip(trajectory.times, trajectory.states, spreads):
            fh.write(",".join(_fmt(value) for value in (t, *row, v)) + "\n")


def run_scenario(config: ScenarioConfig, output_dir: str) -> int:
    """Simulate, analyze, and write trajectory.csv plus report.txt.

    Returns the exit code; the report ends with the matching verdict line.
    """
    os.makedirs(output_dir, exist_ok=True)
    schedule = generate_topology(
        config.topology, config.n, config.t0, config.horizon, config.seed)
    x0 = resolve_initial_state(config)
    log.info("scenario %s: %d nodes over [%s, %s]", config.name, config.n,
             _fmt(config.t0), _fmt(config.t0 + config.horizon))
    if config.delay is not None:
        trajectory = simulate_dde(
            schedule, config.delay.tau, x0, config.t0,
            config.t0 + config.horizon, step=config.step,
            delay_diagonal=config.delay.full)
    else:
        trajectory = simulate_ode(
            schedule, x0, config.t0, config.t0 + config.horizon,
            step=config.step)
    log.info("stored %d trajectory nodes", len(trajectory.times))
    _write_trajectory_csv(os.path.join(output_dir, "trajectory.csv"), trajectory)

    results = [
        _run_analysis(spec, config, schedule, trajectory, x0)
        for spec in config.analyses
    ]
    exit_code = max((_STATUS_EXIT[r.status] for r in results), default=EXIT_PASS)

    final = spread_series(trajectory)[-1]
    lines = [
        f"scenario: {config.name}",
        f"nodes: {config.n}",
        f"horizon: [{_fmt(config.t0)}, {_fmt(config.t0 + config.horizon)}]",
        f"topology: {config.topology['kind']}",
        f"delay: {_fmt(config.delay.tau) if config.delay else 'none'}"
        + (" (full)" if config.delay and config.delay.full else ""),
        f"initial spread: {_fmt(float(x0.max() - x0.min()))}",
        f"final spread: {_fmt(final[1])} at t={_fmt(final[0])}",
        "",
    ]
    lines.extend(
        f"{_STATUS_TAG[r.status]} {r.kind}: {r.detail}" for r in results)
    lines.append("")
    lines.append(f"verdict: {'PASS' if exit_code == EXIT_PASS else 'FAIL'} "
                 f"(exit {exit_code})")
    with open(os.path.join(output_dir, "report.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return exit_code


# --------------------------------------------------------------------------
# Command line front end
# --------------------------------------------------------------------------

def _default_output_dir(config_path: str) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return stem + "_out"


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (ConsensusLabError, OSError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    out = args.output_dir or _default_output_dir(args.config)
    try:
        return run_scenario(config, out)
    except (ParseError, ValidationError, InvalidSpec, OutOfHorizon,
            NotSymmetric) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except (HypothesisUnverified, BalanceViolated) as exc:
        print(f"hypothesis unverified: {exc}")
        return EXIT_HYPOTHESIS
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}")
        return EXIT_NUMERICAL
    except ConsensusLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}")
        return EXIT_NUMERICAL


def _cmd_batch(args) -> int:
    worst = EXIT_PASS
    for path in args.configs:
        sub = argparse.Namespace(
            config=path,
            output_dir=os.path.join(
                args.output_dir, os.path.splitext(os.path.basename(path))[0])
            if args.output_dir else None,
        )
        code = _cmd_run(sub)
        print(f"{path}: exit {code}")
        worst = max(worst, code)
    return worst


def _cmd_check(args) -> int:
    worst = EXIT_PASS
    for path in args.configs:
        try:
            config = load_config(path)
            generate_topology(config.topology, config.n, config.t0,
                              config.horizon, config.seed)
            resolve_initial_state(config)
            print(f"{path}: ok ({config.n} nodes, "
                  f"{len(config.analyses)} analyses)")
        except (ConsensusLabError, OSError) as exc:
            print(f"{path}: config error: {exc}")
            worst = EXIT_CONFIG
    return worst


def _cmd_version(_args) -> int:
    from . import __version__

    print(f"consensus-lab {__version__}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensus-lab",
        description="Simulate and certify time-varying consensus coupling "
                    "scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("config", help="scenario YAML file")
    p_run.add_argument("--output-dir", default=None,
                       help="directory for trajectory.csv and report.txt "
                            "(default: <config stem>_out)")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run several scenario files")
    p_batch.add_argument("configs", nargs="+", help="scenario YAML files")
    p_batch.add_argument("--output-dir", default=None,
                         help="root directory; each scenario writes into "
                              "<root>/<config stem>")
    p_batch.set_defaults(func=_cmd_batch)

    p_check = sub.add_parser("check", help="validate scenario files only")
    p_check.add_argument("configs", nargs="+", help="scenario YAML files")
    p_check.set_defaults(func=_cmd_check)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=_cmd_version)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CONSENSUS_LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
