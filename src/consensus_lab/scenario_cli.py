"""Scenario runner: YAML in, trajectory CSV plus verdict report out.

A scenario file names a node count, a coupling topology, an initial state,
an optional delay, and a list of analyses to run against the simulated
trajectory.  The runner writes ``trajectory.csv`` and ``report.txt`` into
the output directory and exits with a code that scripts can branch on:

  0  every analysis passed
  2  at least one analysis failed its verdict
  3  a hypothesis could not be verified: connectivity, the column balance
     p'A(t) = 0 of a sum-of-squares or weighted:<f> audit, or the symmetry
     of a potential audit; or the theory behind an analysis does not
     cover the run (a delayed run)
  4  the scenario file is malformed, or its run could not fit in memory
  5  a numerical routine gave up, or a simulated state reached inf or NaN

An error raised after loading carries its code as exit_code (errors
module).  In an analysis it becomes that analysis's report line, tagged by
its code; an input error (4), or one outside the analyses, stops the run
before report.txt is written.

Reruns of the same file are byte-identical: all stochastic generators
require a seed, floats are written as "%.17g" (round-trip exact, though
not repr: 0.1 prints as 0.10000000000000001), and no timestamps enter the
outputs.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from . import certify, csvfmt, lyapunov
from .digraph import window_connectivity_report
from .dynamics import (Trajectory, _plan_step, _require_memory, simulate_dde,
                       simulate_ode, spread_series)
from .errors import (ConsensusLabError, HypothesisUnverified, InvalidSpec,
                     ParseError, UnknownFunction, UnknownFunctional,
                     ValidationError)
from .metzler_core import (
    CouplingSchedule,
    SinusoidalCoupling,  # re-exported for importers of this module
    _check,
    _fill_diagonal,
    _schedule,
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


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


# --------------------------------------------------------------------------
# Reading a scenario file (strict: unknown keys are rejected everywhere)
# --------------------------------------------------------------------------

class _Keys:
    """Strict reader of one mapping of a scenario file.

    ``allow`` rejects unknown keys and missing required ones.  Calling the
    reader with a key returns the value passed through ``check`` (type and
    range, under the key's field path), or ``default`` when the key is
    absent.  ``where`` names the mapping in error messages.
    """

    def __init__(self, value, where: str, prefix: Optional[str] = None):
        if not isinstance(value, dict):
            raise ValidationError(
                where, f"expected a mapping, got {type(value).__name__}")
        self.value = value
        self.where = where
        self._prefix = f"{where}." if prefix is None else prefix
        self._known = set()

    def kind(self, table: dict):
        """The table entry named by the ``kind`` key, with this reader as its
        first argument; field paths then name the kind."""
        kind = self.value.get("kind")
        if not isinstance(kind, str) or kind not in table:
            raise ValidationError(
                f"{self.where}.kind", f"{kind!r} is not one of {list(table)}")
        self.where = f"{self.where}({kind})"
        self._prefix = f"{self.where}."
        self._known = {"kind"}
        return functools.partial(table[kind], self)

    def allow(self, required=(), optional=()) -> "_Keys":
        allowed = set(required) | set(optional) | self._known
        unknown = set(self.value) - allowed
        if unknown:
            raise ValidationError(
                self.where, f"unknown keys {sorted(unknown, key=str)}; "
                f"allowed: {sorted(allowed)}")
        for key in required:
            if key not in self.value:
                raise ValidationError(self.where, f"missing required key {key!r}")
        return self

    def path(self, key: str) -> str:
        return self._prefix + key

    def __call__(self, key: str, check=None, default=None):
        if key not in self.value:
            return default
        return self.value[key] if check is None else check(self.value[key], self.path(key))


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(where, f"expected a number, got {value!r}")
    try:
        num = float(value)
    except OverflowError:  # an integer beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise ValidationError(where, f"expected a finite number, got {value!r}")
    return num


def _positive(value, where: str) -> float:
    num = _number(value, where)
    if not num > 0.0:
        raise ValidationError(where, f"must be positive, got {num!r}")
    return num


def _nonnegative(value, where: str) -> float:
    num = _number(value, where)
    if num < 0.0:
        raise ValidationError(where, "must be >= 0")
    return num


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(where, f"expected an integer, got {value!r}")
    return value


def _seed(value, where: str) -> int:
    seed = _integer(value, where)
    if seed < 0:
        raise ValidationError(where, f"must be >= 0, got {seed}")
    return seed


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(where, f"expected a boolean, got {value!r}")
    return value


def _node(value, n: int, where: str) -> int:
    """A 1-based node number of an n-node network."""
    node = _integer(value, where)
    if not 1 <= node <= n:
        raise ValidationError(where, f"{node} outside 1..{n}")
    return node


def _matrix_of(value, n: int, where: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(where, "entries must be finite") from None
    except (TypeError, ValueError):
        raise ValidationError(where, "expected a nested list of numbers") from None
    if arr.shape != (n, n):
        raise ValidationError(where, f"expected shape ({n}, {n}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(where, "entries must be finite")
    return arr


def _coupling(keys: _Keys, n: int):
    """The coupling given by exactly one of ``matrix`` (full, zero row sums)
    or ``weights`` (off-diagonal, zero diagonal), checked as it is read."""
    if ("matrix" in keys.value) == ("weights" in keys.value):
        raise ValidationError(keys.where, "give exactly one of 'matrix' or 'weights'")
    if "matrix" in keys.value:
        return validate_coupling_matrix(_matrix_of(keys("matrix"), n, keys.where))
    weights = _matrix_of(keys("weights"), n, keys.where)
    if np.any(np.diag(weights) != 0.0):
        raise ValidationError(keys.path("weights"), "the diagonal must be zero")
    return from_offdiagonal(weights)


@dataclass(frozen=True)
class DelaySpec:
    tau: float
    full: bool = False


def _delay(value, where: str) -> DelaySpec:
    keys = _Keys(value, where).allow(required=("tau",), optional=("full",))
    return DelaySpec(tau=keys("tau", _positive),
                     full=keys("full", _boolean, False))


@dataclass(frozen=True)
class ScenarioConfig:
    """Checked scenario: everything needed to rerun it exactly.  The
    topology, initial state and analyses keep the file's entries, which
    ``run_scenario`` reads through the same checks as ``parse_config``."""

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
        # libyaml's parser where PyYAML was built with it: the same safe
        # constructor and resolver, several times faster.
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        raw = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ParseError(f"not valid YAML: {exc}", line=line) from None
    keys = _Keys(raw, "scenario", prefix="").allow(
        required=("nodes", "horizon", "topology", "initial_state"),
        optional=("name", "t0", "seed", "step", "delay", "analyses"))
    n = keys("nodes", _integer)
    if n < 1:
        raise ValidationError("nodes", f"need at least one node, got {n}")
    horizon = keys("horizon", _positive)
    t0 = keys("t0", _number, 0.0)
    if not math.isfinite(t0 + horizon):
        raise ValidationError(
            "horizon", f"t0 + horizon = {t0 + horizon} is not finite")
    seed = keys("seed", _seed)
    step = keys("step", _positive)
    delay = keys("delay", _delay)
    # The entries are checked here and built by run_scenario: loading a
    # file builds no schedule.
    topology = keys("topology")
    _topology(topology, n, seed)
    initial = keys("initial_state")
    _initial_state(initial, n, seed)
    analyses = keys("analyses", default=[])
    if not isinstance(analyses, list):
        raise ValidationError("analyses", "expected a list")
    config = ScenarioConfig(
        name=str(keys("name", default=name)),
        n=n,
        horizon=horizon,
        t0=t0,
        topology=dict(topology),
        initial_state=tuple(initial) if isinstance(initial, list) else dict(initial),
        analyses=tuple(analyses),
        seed=seed,
        step=step,
        delay=delay,
        source=name,
    )
    _analyses(config)
    return config


def _stem(path: str) -> str:
    """File name without directory or extension: the default scenario name."""
    return os.path.splitext(os.path.basename(path))[0]


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, name=_stem(path))


def _initial_state(value, n: int, seed):
    """Draw of the initial state: n listed values, or a seeded uniform
    sample."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ValidationError(
                "initial_state", f"expected {n} values, got {len(value)}")
        x0 = [_number(v, f"initial_state[{i}]") for i, v in enumerate(value)]
        return lambda: np.array(x0, dtype=float)
    keys = _Keys(value, "initial_state").allow(
        required=("distribution", "low", "high"), optional=("seed",))
    if keys("distribution") != "uniform":
        raise ValidationError(
            keys.path("distribution"),
            f"only 'uniform' is supported, got {keys('distribution')!r}")
    low = keys("low", _number)
    high = keys("high", _number)
    if not low <= high:
        raise ValidationError("initial_state", f"need low <= high, got {value}")
    draw_seed = keys("seed", _seed, seed)
    if draw_seed is None:
        raise ValidationError(
            keys.path("seed"),
            "sampled initial states need a seed (here or at scenario level)")
    return lambda: np.random.default_rng(draw_seed).uniform(low, high, n)


def resolve_initial_state(config: ScenarioConfig) -> np.ndarray:
    return _initial_state(config.initial_state, config.n, config.seed)()


# --------------------------------------------------------------------------
# Topologies: each entry checks its keys and returns build(t0, t1), the
# coupling schedule over [t0, t1].  Each coupling is checked once: a given
# one as it is read, a built one as soon as it is made.
# --------------------------------------------------------------------------

def _arc_coupling(keys: _Keys, n: int, bidirectional: bool = False):
    """couplings(listeners, speakers): a checked stack of couplings, one a
    row of the two broadcast arrays of 0-based nodes, in which
    listeners[i, j] listens to speakers[i, j] at ``weight``, and back when
    bidirectional."""
    w = keys("weight", _positive, 1.0)
    both = keys("bidirectional", _boolean, bidirectional)

    def couplings(listeners, speakers):
        off = np.zeros((len(listeners), n, n))
        i = np.arange(len(listeners))[:, None]
        off[i, listeners, speakers] = w
        if both:
            off[i, speakers, listeners] = w
        _check(_fill_diagonal(off))
        return off
    return couplings


def _periods(t0: float, t1: float, length: float, n: int):
    """(starts, ends) of the consecutive intervals of ``length`` covering
    [t0, t1], the last one cut at t1.  End k is t0 + k length, rounded once,
    so far from t = 0 the pieces keep their length.  InvalidSpec, before
    any array is made, unless about (t1 - t0) / length pieces fit in
    physical memory, and when a period does not advance the time.

    A piece holds its n-by-n coupling (8 n^2 bytes), the three n-by-n
    masks of its check (3 n^2) and a few rows and scalars of doubles."""
    count = (t1 - t0) / length
    _require_memory(count, 11 * n * n + 8 * (3 * n + 16),
                    f"a period of {length!r} over a span of {t1 - t0!r}",
                    "pieces")
    # Enough k for an end past t1: a piece starts while t1 is more than
    # 1e-12 away, and the ends never decrease.
    ends = np.minimum(t0 + np.arange(1, math.floor(count) + 3) * length, t1)
    starts = np.concatenate(([t0], ends[:-1]))
    live = starts < t1 - 1e-12
    starts, ends = starts[live], ends[live]
    stuck = np.flatnonzero(ends <= starts)
    if len(stuck):
        raise InvalidSpec(f"a period of {length} does not advance past "
                          f"t = {starts[stuck[0]].item()}")
    return starts, ends


def _constant(keys, n, seed):
    keys.allow(optional=("matrix", "weights"))
    coupling = _coupling(keys, n)
    return lambda t0, t1: _schedule([t0], [t1], coupling[None])


def _ring(keys, n, seed):
    keys.allow(optional=("weight", "bidirectional"))
    couplings = _arc_coupling(keys, n)
    if n < 2:
        raise ValidationError(keys.where, "ring needs at least 2 nodes")
    nodes = np.arange(n)
    return lambda t0, t1: _schedule(
        [t0], [t1], couplings([nodes], [(nodes + 1) % n]))


def _star(keys, n, seed):
    keys.allow(optional=("weight", "bidirectional", "hub"))
    couplings = _arc_coupling(keys, n)
    hub = _node(keys("hub", default=1), n, keys.path("hub")) - 1
    if n < 2:
        raise ValidationError(keys.where, "star needs at least 2 nodes")
    return lambda t0, t1: _schedule(
        [t0], [t1], couplings([np.delete(np.arange(n), hub)], [[hub]]))


def _line(keys, n, seed):
    keys.allow(optional=("weight", "bidirectional"))
    couplings = _arc_coupling(keys, n, bidirectional=True)
    nodes = np.arange(1, n)
    return lambda t0, t1: _schedule(
        [t0], [t1], couplings([nodes], [nodes - 1]))


def _piecewise(keys, n, seed):
    keys.allow(required=("pieces",))
    pieces = keys("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise ValidationError(keys.where, "pieces must be a non-empty list")
    untils, couplings = [0.0], []
    for i, piece in enumerate(pieces):
        pkeys = _Keys(piece, f"{keys.where}.pieces[{i}]").allow(
            required=("until",), optional=("matrix", "weights"))
        untils.append(pkeys("until", _positive))
        if untils[-1] <= untils[-2]:
            raise ValidationError(
                pkeys.path("until"), f"must exceed previous piece end {untils[-2]}")
        couplings.append(_coupling(pkeys, n))
    untils, couplings = np.array(untils[1:]), np.stack(couplings)

    def build(t0, t1):
        # Piece i ends at t0 + until, cut at t1; the ends never decrease,
        # and a piece they leave no length is dropped.
        ends = np.minimum(t0 + untils, t1)
        if ends[-1] < t1 - 1e-12:
            raise InvalidSpec(f"pieces cover [{t0}, {ends[-1].item()}] but "
                              f"the horizon runs to {t1}")
        starts = np.concatenate(([t0], ends[:-1]))
        kept = ends > starts
        return _schedule(starts[kept], ends[kept], couplings[kept])
    return build


def _alternating_leader_follower(keys, n, seed):
    keys.allow(required=("period",), optional=("weight",))
    half = keys("period", _positive) / 2.0
    couplings = _arc_coupling(keys, n)
    if n < 2:
        raise ValidationError(keys.where, "needs at least 2 nodes")

    def build(t0, t1):
        # Every other node follows node 1, then node 2, by turns.
        leaders = couplings([np.delete(np.arange(n), leader)
                             for leader in (0, 1)], [[0], [1]])
        starts, ends = _periods(t0, t1, half, n)
        return _schedule(starts, ends, leaders[np.arange(len(starts)) % 2])
    return build


def _random_switching(keys, n, seed):
    keys.allow(required=("period", "link_probability", "weight_range"),
               optional=("seed",))
    period = keys("period", _positive)
    prob = keys("link_probability", _number)
    if not 0.0 <= prob <= 1.0:
        raise ValidationError(
            keys.path("link_probability"), f"must be in [0, 1], got {prob}")
    wr, where = keys("weight_range"), keys.path("weight_range")
    if not isinstance(wr, list) or len(wr) != 2:
        raise ValidationError(where, "expected a [low, high] pair")
    lo, hi = (_number(v, f"{where}[{i}]") for i, v in enumerate(wr))
    if not 0.0 <= lo <= hi:
        raise ValidationError(where, f"need 0 <= low <= high, got {wr}")
    draw_seed = keys("seed", _seed, seed)
    if draw_seed is None:
        raise ValidationError(
            keys.path("seed"),
            "random_switching needs a seed (topology or scenario level) "
            "so reruns are reproducible")

    def build(t0, t1):
        rng = np.random.default_rng(draw_seed)
        starts, ends = _periods(t0, t1, period, n)
        # Per period, in time order: the link mask, then the weights, the
        # draws that perfbench/scenarios.py repeats to check the runs.
        # rng.uniform(lo, hi) is lo + (hi - lo) rng.random(), double for
        # double, so one rng.random draws both for a block of periods: at
        # most 2 ** 13 doubles, and never less than one period, so a long
        # run holds a block of its draws, not all of them, at once.
        off = np.empty((len(starts), n, n))
        size = max(1, 2 ** 13 // (2 * n * n))
        for first in range(0, len(off), size):
            block = off[first:first + size]
            u = rng.random((len(block), 2, n, n))
            block[:] = np.where(u[:, 0] < prob, lo + (hi - lo) * u[:, 1], 0.0)
        _check(_fill_diagonal(off))
        return _schedule(starts, ends, off)
    return build


def _sinusoidal(keys, n, seed):
    keys.allow(required=("depth", "period"), optional=("matrix", "weights"))
    coupling = _coupling(keys, n)
    depth = keys("depth", _number)
    if not abs(depth) <= 1.0:
        raise ValidationError(keys.path("depth"), f"must lie in [-1, 1], got {depth}")
    period = keys("period", _positive)
    # The schedule sets the diagonal of its copy from the off-diagonal.
    return lambda t0, t1: _schedule(
        [t0], [t1], coupling[None], [depth], [period], [False])


_TOPOLOGIES = {
    "constant": _constant,
    "ring": _ring,
    "star": _star,
    "line": _line,
    "piecewise": _piecewise,
    "alternating_leader_follower": _alternating_leader_follower,
    "random_switching": _random_switching,
    "sinusoidal": _sinusoidal,
}
# Kinds whose coupling does not change over time: the one fact about a
# kind kept outside its entry, read by the potential audit at parse time.
_CONSTANT_KINDS = ("constant", "ring", "star", "line")


def _topology(value, n: int, seed):
    """build(t0, t1) for a topology mapping, once its keys are checked."""
    return _Keys(value, "topology").kind(_TOPOLOGIES)(n, seed)


def generate_topology(
    spec: dict,
    n: int,
    t0: float,
    horizon: float,
    seed: Optional[int] = None,
) -> CouplingSchedule:
    """Check a topology spec as ``parse_config`` does, then build its
    coupling schedule over [t0, t0 + horizon]; InvalidSpec when the
    schedule cannot be built, an input error in ``check`` and ``run``."""
    build = _topology(spec, n, seed if seed is None else _seed(seed, "seed"))
    t0 = _number(t0, "t0")
    t1 = t0 + _positive(horizon, "horizon")
    try:
        return build(t0, t1)
    except ConsensusLabError as exc:
        raise InvalidSpec(str(exc)) from exc


# --------------------------------------------------------------------------
# Analyses: each entry checks its keys against the config and returns
# run(schedule, trajectory) -> (passed, detail)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisResult:
    kind: str
    status: str  # "pass", "fail", "hypothesis", "numerical"
    detail: str


def _connectivity(keys, config):
    keys.allow(required=("delta", "window"), optional=("sample_step",))
    delta = keys("delta", _positive)
    window = keys("window", _positive)
    sample_step = keys("sample_step", _positive)
    span = (config.t0 + config.horizon) - config.t0 - window
    if span < 0.0:
        raise ValidationError(
            keys.path("window"), f"{window} exceeds the horizon {config.horizon}")
    # The scan keeps each window's start and its row of n root flags.
    step, key = ((window / 10.0, "window") if sample_step is None
                 else (sample_step, "sample_step"))
    _require_memory(span / step + 1.0, 8 + config.n,
                    f"a sample step of {step!r} over a span of {span!r}",
                    "windows", functools.partial(ValidationError,
                                                 keys.path(key)))

    def run(schedule, trajectory):
        report = window_connectivity_report(
            schedule, delta, window, sample_step=sample_step)
        roots = ",".join(str(r) for r in sorted(report.common_roots)) or "none"
        return report.has_common_root, (
            f"common roots {{{roots}}} across {len(report.window_starts)} "
            f"sampled windows (delta={_fmt(delta)}, T={_fmt(window)})")
    return run


def _audit(keys, config):
    keys.allow(required=("functionals",), optional=("weights", "slack"))
    names = keys("functionals")
    where = keys.path("functionals")
    if not isinstance(names, list) or not names:
        raise ValidationError(where, "expected a non-empty list")
    for fname in names:
        try:
            lyapunov.audit_entry(str(fname))
        except (UnknownFunctional, UnknownFunction) as exc:
            raise ValidationError(where, str(exc)) from None
        if fname == "potential" and config.topology["kind"] not in _CONSTANT_KINDS:
            raise ValidationError(where, "the potential audit needs constant coupling")
        if fname == "delayed_spread":
            if config.delay is None:
                raise ValidationError(where, "delayed_spread needs a delay section")
            # delayed_functional_series needs a node tau after t0, to within
            # its tolerance.
            tau = config.delay.tau
            if config.t0 + tau - 1e-12 * max(1.0, tau) > config.t0 + config.horizon:
                raise ValidationError(where, f"delayed_spread needs the delay {tau} "
                                      f"to fit the horizon {config.horizon}")
    weights = keys("weights")
    if weights is not None:
        where = keys.path("weights")
        if not isinstance(weights, list) or len(weights) != config.n:
            raise ValidationError(where, f"expected {config.n} values")
        weights = [_nonnegative(w, f"{where}[{i}]") for i, w in enumerate(weights)]
    slack = keys("slack", _positive)

    def run(schedule, trajectory):
        lyapunov.check_hypotheses(names, schedule.couplings, schedule.starts,
                                  weights, tau=trajectory.tau)
        failures, worst = [], []
        for fname in names:
            # The potential runs on constant coupling: one piece.
            matrix = schedule.couplings[0] if fname == "potential" else None
            report = lyapunov.audit_monotonicity(
                trajectory, fname, weights=weights, matrix=matrix, slack=slack)
            worst.append(f"{fname}: worst={_fmt(report.worst_violation)}")
            if not report.passed:
                failures.append(fname)
        detail = "; ".join(worst)
        if failures:
            return False, f"violated by {','.join(failures)}; {detail}"
        return True, detail
    return run


def _lemma(keys, config):
    keys.allow(required=("group", "window"), optional=("t_start", "slack"))
    group = keys("group")
    if not isinstance(group, list) or not group:
        raise ValidationError(keys.path("group"), "expected a non-empty list")
    group = [_node(v, config.n, keys.path("group")) for v in group]
    if len(set(group)) == config.n:
        raise ValidationError(keys.path("group"),
                              "must leave at least one node outside the group")
    window = keys("window", _positive)
    t_start = keys("t_start", _number, config.t0)
    slack = keys("slack", _positive)
    t1 = config.t0 + config.horizon
    if t_start < config.t0 - 1e-12 or t_start + window > t1 + 1e-12:
        raise ValidationError(
            keys.path("window"), f"[{t_start}, {t_start + window}] lies outside "
            f"the horizon [{config.t0}, {t1}]")

    def run(schedule, trajectory):
        if trajectory.tau is not None:
            raise HypothesisUnverified(_delay_not_covered(trajectory, "the lemma"))
        report = certify.verify_lemma_on_trajectory(
            schedule, trajectory, group, t_start, window, slack=slack)
        trapped = ",".join(str(v) for v in report.trapped) or "none"
        return report.passed, (
            f"beta={_fmt(report.beta)} trapped={{{trapped}}} "
            f"group_within={report.group_within} "
            f"range_contained={report.range_contained}")
    return run


def _delay_not_covered(trajectory: Trajectory, analysis: str) -> str:
    """Why an analysis built on the undelayed theory does not judge a
    delayed run."""
    if trajectory.delay_diagonal:
        return (f"{analysis} does not cover this run: the theory covers only "
                f"delay in the off-diagonal terms, and this run delays the "
                f"self terms too (tau={_fmt(trajectory.tau)}, full)")
    return (f"{analysis} covers only undelayed runs and would certify the "
            f"undelayed twin of this run (tau={_fmt(trajectory.tau)})")


def _certificate(keys, config):
    keys.allow(required=("delta", "window", "root"),
               optional=("verify_hypothesis", "slack_factor"))
    delta = keys("delta", _positive)
    window = keys("window", _positive)
    root = _node(keys("root"), config.n, keys.path("root"))
    verify = keys("verify_hypothesis", _boolean, True)
    slack_factor = keys("slack_factor", _positive, certify.DEFAULT_SLACK_FACTOR)
    span_end = config.t0 + (config.n - 1) * window
    if span_end > config.t0 + config.horizon + 1e-12:
        raise ValidationError(
            keys.path("window"), f"{config.n - 1} windows end at {span_end}, "
            f"past the horizon end {config.t0 + config.horizon}")

    def run(schedule, trajectory):
        if trajectory.tau is not None:
            raise HypothesisUnverified(
                _delay_not_covered(trajectory, "the contraction certificate"))
        report = certify.contraction_certificate(
            schedule, trajectory, config.t0, window, delta, root,
            verify_hypothesis=verify, slack_factor=slack_factor)
        return report.passed, (
            f"rho={_fmt(report.rho)} rate={_fmt(report.certified_rate)} "
            f"observed={_fmt(report.observed_contraction)} over "
            f"{len(report.stages)} stages")
    return run


def _spectral(keys, config):
    keys.allow(optional=("delta", "gap_tol"))
    delta = keys("delta", _nonnegative, 0.0)
    gap_tol = keys("gap_tol", _positive)
    options = {} if gap_tol is None else {"gap_tol": gap_tol}

    def run(schedule, trajectory):
        if trajectory.delay_diagonal:
            raise HypothesisUnverified(
                _delay_not_covered(trajectory, "the spectral cross-check"))
        if len(schedule.constant) == 1 and schedule.constant[0]:
            matrix = schedule.couplings[0]
            source = "constant coupling"
        else:
            span = schedule.t_end - schedule.t_start
            matrix = integrate_schedule(schedule, schedule.t_start, span) / span
            source = "time-averaged coupling"
        report = spectral_graph_equivalence(matrix, delta, **options)
        eigs = report.verdict.eigenvalues
        lead = ", ".join(
            f"{v.real:.6g}{v.imag:+.6g}j" if v.imag else f"{v.real:.6g}"
            for v in eigs[: min(4, len(eigs))])
        return report.agree, (
            f"{source}: stable={report.verdict.consensus_stable} "
            f"roots={{{','.join(str(r) for r in report.roots) or 'none'}}} "
            f"agree={report.agree} spectrum head [{lead}]")
    return run


_ANALYSES = {
    "connectivity": _connectivity,
    "audit": _audit,
    "lemma": _lemma,
    "certificate": _certificate,
    "spectral": _spectral,
}


def _analyses(config: ScenarioConfig) -> list:
    """(kind, run) for each analysis, once its keys are checked."""
    out = []
    for i, spec in enumerate(config.analyses):
        run = _Keys(spec, f"analyses[{i}]").kind(_ANALYSES)(config)
        out.append((spec["kind"], run))
    return out


# Report tag and exit code of each analysis status.  An error that ends an
# analysis gives it the status of the error's exit_code.
_STATUS = {
    "pass": ("[PASS]", EXIT_PASS),
    "fail": ("[FAIL]", EXIT_VERDICT),
    "hypothesis": ("[HYPOTHESIS]", EXIT_HYPOTHESIS),
    "numerical": ("[ERROR]", EXIT_NUMERICAL),
}
_ERROR_STATUS = {code: status for status, (_, code) in _STATUS.items()}


def _describe(exc: ConsensusLabError) -> str:
    """The message of an error, after its class name if it has exit 5."""
    if exc.exit_code == EXIT_NUMERICAL:
        return f"{type(exc).__name__}: {exc}"
    return str(exc)


def _run_analysis(kind, run, schedule, trajectory) -> AnalysisResult:
    """The verdict of one analysis, or the status of the error that ended
    it; an input error (exit 4) ends the run instead."""
    try:
        passed, detail = run(schedule, trajectory)
    except ConsensusLabError as exc:
        if exc.exit_code == EXIT_CONFIG:
            raise
        return AnalysisResult(kind, _ERROR_STATUS[exc.exit_code], _describe(exc))
    return AnalysisResult(kind, "pass" if passed else "fail", detail)


def _write_trajectory_csv(path: str, trajectory: Trajectory, spreads):
    """One line per node, every value as _fmt writes it ("%.17g" of a
    Python float), formatted by csvfmt a block of rows at a time."""
    n = trajectory.n
    block = max(1, csvfmt.BLOCK // (n + 2))
    with open(path, "wb") as fh:
        fh.write(("time," + ",".join(f"x_{k}" for k in range(1, n + 1))
                  + ",V_spread\n").encode("ascii"))
        for i in range(0, len(trajectory.times), block):
            rows = slice(i, i + block)
            fh.write(csvfmt.format_rows(np.column_stack(
                (trajectory.times[rows], trajectory.states[rows], spreads[rows]))))


def run_scenario(config: ScenarioConfig, output_dir: str) -> int:
    """Simulate, analyze, and write trajectory.csv plus report.txt.

    Returns the exit code; the report ends with the matching verdict line.
    """
    schedule = generate_topology(
        config.topology, config.n, config.t0, config.horizon, config.seed)
    analyses = _analyses(config)
    x0 = resolve_initial_state(config)
    os.makedirs(output_dir, exist_ok=True)
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
    _, spreads = spread_series(trajectory)
    _write_trajectory_csv(os.path.join(output_dir, "trajectory.csv"), trajectory,
                          spreads)

    results = [
        _run_analysis(kind, run, schedule, trajectory)
        for kind, run in analyses
    ]
    exit_code = max((_STATUS[r.status][1] for r in results), default=EXIT_PASS)

    lines = [
        f"scenario: {config.name}",
        f"nodes: {config.n}",
        f"horizon: [{_fmt(config.t0)}, {_fmt(config.t0 + config.horizon)}]",
        f"topology: {config.topology['kind']}",
        f"delay: {_fmt(config.delay.tau) if config.delay else 'none'}"
        + (" (full)" if config.delay and config.delay.full else ""),
        f"initial spread: {_fmt(float(x0.max() - x0.min()))}",
        f"final spread: {_fmt(spreads[-1])} at t={_fmt(trajectory.t_end)}",
        "",
    ]
    lines.extend(
        f"{_STATUS[r.status][0]} {r.kind}: {r.detail}" for r in results)
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

# How the line of an error that stops a run begins, by its exit_code.
_STOPPED = {EXIT_VERDICT: "verdict failed", EXIT_HYPOTHESIS: "hypothesis unverified",
            EXIT_CONFIG: "config error", EXIT_NUMERICAL: "numerical failure"}


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (ConsensusLabError, OSError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    out = args.output_dir or _stem(args.config) + "_out"
    try:
        return run_scenario(config, out)
    except ConsensusLabError as exc:
        print(f"{_STOPPED[exc.exit_code]}: {_describe(exc)}")
        return exc.exit_code


def _cmd_batch(args) -> int:
    stems = [_stem(path) for path in args.configs]
    shared = [p for p, stem in zip(args.configs, stems) if stems.count(stem) > 1]
    if shared:  # each file writes into the directory named after its stem
        print(f"config error: {', '.join(shared)} would write the same "
              f"output directories (one per file stem)")
        return EXIT_CONFIG
    worst = EXIT_PASS
    for path in args.configs:
        sub = argparse.Namespace(
            config=path,
            output_dir=os.path.join(args.output_dir, _stem(path))
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
            schedule = generate_topology(config.topology, config.n, config.t0,
                                         config.horizon, config.seed)
            _plan_step(schedule, config.t0, config.t0 + config.horizon,
                       config.step, config.delay.tau if config.delay else None)
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
