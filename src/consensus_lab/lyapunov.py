"""Monotone functionals along consensus trajectories.

The spread max(x) - min(x) decreases along every solution of the coupled
dynamics, and that is the workhorse certificate.  The quadratic candidates
(sum of squares, centered sum of squares, the potential -x'Ax/2) decrease
only under extra structure: column balance for the sums of squares,
symmetry for the potential.  This module evaluates all of them, audits
their monotonicity along stored trajectories, and checks the classical
equivalence package for balanced coupling:

  sum of squares non-increasing
    <=> A + A' negative semidefinite
    <=> columns of A sum to zero
    <=> every permutation-invariant convex function is non-increasing,

together with the doubly-stochastic character of exp(At) and conservation
of weighted sums p'x when p'A = 0.

The negative-semidefiniteness test takes the eigenvalues of A + A' from
LAPACK (numpy.linalg.eigvalsh).  numpy has no matrix exponential, so
exp(At) is computed here by scaling and squaring with a truncated Taylor
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BalanceViolated,
    EmptyVector,
    NegativeWeight,
    NormTooLarge,
    NotSymmetric,
    UnknownFunction,
    UnknownFunctional,
)
from .dynamics import Trajectory, simulate_ode, spread_series
from .metzler_core import CouplingSchedule, constant_schedule, coupling_entries

# Beyond this infinity norm of A*t the squaring phase can no longer be
# trusted to the advertised accuracy; refuse rather than return noise.
_EXP_NORM_CAP = 1e4


def _pwl(u):
    """A fixed convex piecewise-linear test function (max of three affines)."""
    return np.maximum(np.maximum(-u - 1.0, 0.2 * u), u - 1.0)


CONVEX_REGISTRY: dict = {
    "square": lambda u: np.square(u),
    "abs": lambda u: np.abs(u),
    "exp": lambda u: np.exp(u),
    "relu": lambda u: np.maximum(u, 0.0),
    "pwl": _pwl,
}


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyVector(f"expected a non-empty vector, got shape {arr.shape}")
    return arr


def spread(x) -> float:
    """max(x) - min(x); zero exactly on consensus states."""
    arr = _as_vector(x)
    return float(arr.max() - arr.min())


def sum_of_squares(x) -> float:
    arr = _as_vector(x)
    return float(np.dot(arr, arr))


def centered_sum_of_squares(x) -> float:
    """Sum of squared deviations from the mean.

    Equals sum_of_squares(x) - n * mean(x)^2; vanishes exactly on consensus
    states, which makes it the sharper quadratic of the two.
    """
    arr = _as_vector(x)
    return float(np.dot(arr - arr.mean(), arr - arr.mean()))


def weighted_convex_functional(x, p, f: str) -> float:
    """p_1 f(x_1) + ... + p_n f(x_n) for a registry function f."""
    arr = _as_vector(x)
    weights = _as_vector(p)
    if weights.shape != arr.shape:
        raise ValueError(f"weights shape {weights.shape} != state shape {arr.shape}")
    if np.any(weights < 0.0):
        raise NegativeWeight("functional weights must be non-negative")
    try:
        fn = CONVEX_REGISTRY[f]
    except KeyError:
        raise UnknownFunction(
            f"{f!r} not in registry {sorted(CONVEX_REGISTRY)}") from None
    return float(np.dot(weights, fn(arr)))


# --------------------------------------------------------------------------
# Symmetric-part definiteness and matrix exponential
# --------------------------------------------------------------------------

def symmetric_part_nsd(A, tol: float = 1e-10) -> bool:
    """Whether A + A' has no eigenvalue above tol."""
    entries = coupling_entries(A)
    return bool(np.linalg.eigvalsh(entries + entries.T)[-1] <= tol)


def column_sums_zero(A, tol: float = 1e-10) -> bool:
    entries = coupling_entries(A)
    return bool(np.max(np.abs(entries.sum(axis=0))) <= tol)


def matrix_exponential(A, t: float = 1.0) -> np.ndarray:
    """exp(A t) by scaling and squaring with a truncated Taylor series.

    The scaled norm is held at or below 1/2, where the series converges to
    machine precision in a few dozen terms.
    """
    B = coupling_entries(A) * t
    norm = float(np.abs(B).sum(axis=1).max())
    if norm > _EXP_NORM_CAP:
        raise NormTooLarge(
            f"|A t| norm {norm} exceeds cap {_EXP_NORM_CAP}; "
            "split the interval instead")
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
    C = B / (2.0 ** squarings)
    n = C.shape[0]
    result = np.eye(n) + C
    term = C.copy()
    for k in range(2, 60):
        term = term @ C / k
        result = result + term
        if float(np.abs(term).max()) <= 1e-17 * max(1.0, float(np.abs(result).max())):
            break
    for _ in range(squarings):
        result = result @ result
    return result


# --------------------------------------------------------------------------
# Potential (gradient-flow) view for symmetric coupling
# --------------------------------------------------------------------------

def _require_symmetric(entries: np.ndarray):
    if float(np.max(np.abs(entries - entries.T))) > 1e-12:
        raise NotSymmetric("coupling must be symmetric for the potential view")


def consensus_potential(A, x) -> float:
    """V(x) = -x'Ax/2; for symmetric A the dynamics are its gradient flow."""
    entries = coupling_entries(A)
    _require_symmetric(entries)
    arr = _as_vector(x)
    return float(-0.5 * arr @ entries @ arr)


def potential_gradient_fd(A, x, h: Optional[float] = None) -> np.ndarray:
    """Central-difference gradient of the potential, for cross-checks."""
    entries = coupling_entries(A)
    _require_symmetric(entries)
    arr = _as_vector(x)
    if h is None:
        h = 1e-6 * (1.0 + float(np.abs(arr).max()))
    grad = np.empty_like(arr)
    for i in range(len(arr)):
        up = arr.copy()
        dn = arr.copy()
        up[i] += h
        dn[i] -= h
        vp = float(-0.5 * up @ entries @ up)
        vn = float(-0.5 * dn @ entries @ dn)
        grad[i] = (vp - vn) / (2.0 * h)
    return grad


def gradient_flow_residual(A, x) -> float:
    """Infinity norm of A x + grad V(x), the gradient estimated by central
    differences.

    For symmetric A the dynamics are steepest descent on the potential, so
    this residual is rounding-level; the finite-difference route keeps the
    check independent of the algebra it certifies.
    """
    entries = coupling_entries(A)
    arr = _as_vector(x)
    flow = entries @ arr
    grad = potential_gradient_fd(entries, arr)
    return float(np.max(np.abs(flow + grad)))


# --------------------------------------------------------------------------
# Monotonicity audits along trajectories
# --------------------------------------------------------------------------

AUDIT_FUNCTIONALS = (
    "spread",
    "sum_of_squares",
    "centered_sum_of_squares",
    "max_component",
    "min_component",
    "potential",
    "weighted:<f>",
)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a monotonicity audit of one functional along one run.

    ``direction`` is the expected sense; ``worst_violation`` is the largest
    forward move against it (0 when the series already respects the
    direction everywhere).  An audit passes when the violation stays within
    the slack.
    """

    functional: str
    direction: str
    worst_violation: float
    slack: float
    passed: bool


def monotonicity_from_series(
    functional: str,
    values,
    slack: Optional[float] = None,
    direction: str = "non-increasing",
) -> MonotonicityReport:
    """Check a 1-d series of functional values for its expected direction,
    up to slack (default 1e-9 * (1 + first value)).  A NaN step is a
    violation."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyVector("monotonicity audit needs at least one sample")
    if slack is None:
        slack = 1e-9 * (1.0 + abs(float(values[0])))
    diffs = np.diff(values)
    if direction == "non-increasing":
        worst = float(diffs.max(initial=0.0))
    elif direction == "non-decreasing":
        worst = float((-diffs).max(initial=0.0))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    worst = max(worst, 0.0)
    return MonotonicityReport(
        functional=functional,
        direction=direction,
        worst_violation=worst,
        slack=float(slack),
        passed=bool(worst <= slack),
    )


def _functional_values(trajectory: Trajectory, functional: str,
                       weights, matrix):
    states = trajectory.states
    if functional == "spread":
        return spread_series(trajectory)[1], "non-increasing"
    if functional == "sum_of_squares":
        return np.einsum("ij,ij->i", states, states), "non-increasing"
    if functional == "centered_sum_of_squares":
        centered = states - states.mean(axis=1, keepdims=True)
        return np.einsum("ij,ij->i", centered, centered), "non-increasing"
    if functional == "max_component":
        return states.max(axis=1), "non-increasing"
    if functional == "min_component":
        return states.min(axis=1), "non-decreasing"
    if functional == "potential":
        if matrix is None:
            raise UnknownFunctional("potential audit needs the coupling matrix")
        entries = coupling_entries(matrix)
        _require_symmetric(entries)
        vals = -0.5 * np.einsum("ij,jk,ik->i", states, entries, states)
        return vals, "non-increasing"
    if functional.startswith("weighted:"):
        fname = functional.split(":", 1)[1]
        try:
            fn = CONVEX_REGISTRY[fname]
        except KeyError:
            raise UnknownFunction(
                f"{fname!r} not in registry {sorted(CONVEX_REGISTRY)}") from None
        p = np.ones(states.shape[1]) if weights is None else _as_vector(weights)
        if np.any(p < 0.0):
            raise NegativeWeight("functional weights must be non-negative")
        return fn(states) @ p, "non-increasing"
    raise UnknownFunctional(
        f"{functional!r} not one of {AUDIT_FUNCTIONALS}")


def audit_monotonicity(
    trajectory: Trajectory,
    functional: str,
    weights=None,
    matrix=None,
    slack: Optional[float] = None,
) -> MonotonicityReport:
    """Evaluate a registry functional at every stored node and check it
    moves in its expected direction, up to slack (default
    1e-9 * (1 + initial value)).

    A failed audit is a report with passed=False, not an exception: for
    unbalanced coupling the sums of squares are expected to lose
    monotonicity, and the report is how that shows up.
    """
    values, direction = _functional_values(trajectory, functional, weights, matrix)
    return monotonicity_from_series(functional, values, slack=slack,
                                    direction=direction)


# --------------------------------------------------------------------------
# The equivalence package for balanced coupling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PropositionReport:
    """Balanced-coupling equivalence check on one matrix.

    equivalence_consistent records that the column-balance test and the
    negative-semidefiniteness test agreed (in both the true and the false
    case).  The doubly-stochastic and random-functional probes only run for
    balanced matrices and stay None otherwise.
    """

    column_balanced: bool
    symmetric_part_nsd: bool
    equivalence_consistent: bool
    exp_doubly_stochastic: Optional[bool]
    exp_worst_sum_error: Optional[float]
    functionals_non_increasing: Optional[bool]
    functionals_checked: int
    worst_functional_violation: Optional[float]


def _sorted_dot(w: np.ndarray, states: np.ndarray) -> np.ndarray:
    """max over permutations pi of sum_i w_i x_pi(i), evaluated per row.

    By the rearrangement inequality this equals the dot product of the two
    descending sorts: a permutation-invariant convex (max-of-linear)
    function.
    """
    ws = np.sort(w)[::-1]
    xs = np.sort(states, axis=1)[:, ::-1]
    return xs @ ws


def check_proposition_equivalences(
    A,
    trials: int = 20,
    seed: int = 0,
    times=(0.1, 1.0, 10.0),
    horizon: float = 4.0,
) -> PropositionReport:
    """Check the balanced-coupling equivalences on one matrix.

    Always compares the column-balance and NSD verdicts.  For balanced
    matrices, additionally verifies that exp(At) has unit row and column
    sums at the probe times and that seeded random permutation-invariant
    convex functionals are non-increasing along simulated trajectories.
    """
    entries = coupling_entries(A)
    n = entries.shape[0]
    balanced = column_sums_zero(entries)
    nsd = symmetric_part_nsd(entries)
    consistent = balanced == nsd

    exp_ok = None
    worst_sum = None
    func_ok = None
    worst_func = None
    checked = 0
    if balanced:
        worst_sum = 0.0
        for t in times:
            E = matrix_exponential(entries, t)
            worst_sum = max(
                worst_sum,
                float(np.max(np.abs(E.sum(axis=0) - 1.0))),
                float(np.max(np.abs(E.sum(axis=1) - 1.0))),
            )
        exp_ok = worst_sum <= 1e-9

        rng = np.random.default_rng(seed)
        worst_func = 0.0
        func_ok = True
        schedule = constant_schedule(entries, 0.0, horizon)
        names = sorted(CONVEX_REGISTRY)
        for _ in range(trials):
            x0 = rng.uniform(-1.0, 1.0, n)
            traj = simulate_ode(schedule, x0, 0.0, horizon)
            if rng.uniform() < 0.5:
                fname = names[rng.integers(len(names))]
                vals = CONVEX_REGISTRY[fname](traj.states).sum(axis=1)
            else:
                w = rng.uniform(-1.0, 1.0, n)
                vals = _sorted_dot(w, traj.states)
            checked += 1
            report = monotonicity_from_series("convex", vals)
            worst_func = max(worst_func, report.worst_violation)
            func_ok = func_ok and report.passed
    return PropositionReport(
        column_balanced=balanced,
        symmetric_part_nsd=nsd,
        equivalence_consistent=consistent,
        exp_doubly_stochastic=exp_ok,
        exp_worst_sum_error=worst_sum,
        functionals_non_increasing=func_ok,
        functionals_checked=checked,
        worst_functional_violation=worst_func,
    )


@dataclass(frozen=True)
class WeightedInvarianceReport:
    """Audit of p-weighted functionals and conservation of p'x."""

    weights: tuple
    balance_residual: float
    functional_reports: tuple
    conserved_drift: float
    conserved: bool
    passed: bool


def weighted_invariance_check(
    schedule: CouplingSchedule,
    p,
    trajectory: Trajectory,
) -> WeightedInvarianceReport:
    """For p with p'A(t) = 0, audit all registry functionals with weights p
    and check that p'x(t) is conserved along the trajectory.

    The balance precondition is verified once per segment on the fixed
    coupling B, since p'A(t) = c(t) p'B (tolerance 1e-9); BalanceViolated
    reports the start of the first offending segment.
    """
    weights = _as_vector(p)
    if np.any(weights < 0.0):
        raise NegativeWeight("weight vector must be non-negative")
    residual = 0.0
    for t_start, coupling in zip(schedule.starts.tolist(), schedule.couplings):
        r = float(np.max(np.abs(weights @ coupling)))
        residual = max(residual, r)
        if r > 1e-9:
            raise BalanceViolated(t_start, r)
    reports = []
    for fname in sorted(CONVEX_REGISTRY):
        reports.append(
            audit_monotonicity(trajectory, f"weighted:{fname}", weights=weights))
    linear = trajectory.states @ weights
    drift = float(np.max(np.abs(linear - linear[0])))
    conserved = drift <= 1e-8
    return WeightedInvarianceReport(
        weights=tuple(float(w) for w in weights),
        balance_residual=residual,
        functional_reports=tuple(reports),
        conserved_drift=drift,
        conserved=conserved,
        passed=bool(conserved and all(r.passed for r in reports)),
    )
