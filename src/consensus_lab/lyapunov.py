"""Monotone functionals along consensus trajectories.

AUDITS is the one table of the functionals an audit can check.  Each
entry holds the functional's series over a stored trajectory, the
direction it moves in, and the hypothesis on the coupling under which it
must move that way:

  functional                direction        hypothesis
  spread                    non-increasing   none
  max_component             non-increasing   none
  min_component             non-decreasing   none
  delayed_spread            non-increasing   none (a delayed run; tau from its meta)
  sum_of_squares            non-increasing   1'A = 0
  centered_sum_of_squares   non-increasing   1'A = 0
  weighted:<f>              non-increasing   p'A = 0 (p the audit's weights, or 1)
  potential                 non-increasing   A = A'

for A = A(t) at every t.

The spread max(x) - min(x) is the workhorse certificate: it shrinks along
every solution of the coupled dynamics, and the sliding-window spread does
along the coupling-delayed ones.  The other functionals shrink only under
extra structure.  Under column balance p'A(t) = 0 every p-weighted sum
p_1 f(x_1) + ... + p_n f(x_n) of a convex f is non-increasing, which for
p = 1 is the disagreement-function argument for balanced digraphs
(Olfati-Saber & Murray, IEEE TAC 49(9), 2004); symmetric coupling is the
gradient flow of the potential -x'Ax/2.  check_hypotheses tests the
hypotheses a list of functionals names on a schedule's coupling stack,
and the scenario runner calls it before it evaluates any functional.

Claims for balanced coupling, each with the tests that check it:

  A + A' negative semidefinite <=> the columns of A sum to zero
      tests/test_acceptance.py::test_c5_balance_equivalences
  exp(At) is doubly stochastic
      tests/test_acceptance.py::test_c5_balance_equivalences
  p'x(t) is conserved when p'A = 0
      tests/test_acceptance.py::test_c5_balance_equivalences
      tests/test_lyapunov.py::TestBalance::test_weighted_sum_conserved
  weighted:<f> is non-increasing on balanced runs
      tests/test_lyapunov.py::TestBalance::test_weighted_audits_pass_on_balanced_runs

The negative-semidefiniteness test takes the eigenvalues of A + A' from
LAPACK (numpy.linalg.eigvalsh).  numpy has no matrix exponential, so
exp(At) is computed here by scaling and squaring with a truncated Taylor
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
from .dynamics import Trajectory, delayed_functional_series
from .metzler_core import DEFAULT_ROW_TOL, coupling_entries

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
# The table of audit functionals
# --------------------------------------------------------------------------

# The hypotheses an entry can name, for A = A(t) at every t.
BALANCED = "1'A = 0"
P_BALANCED = "p'A = 0"  # p the audit's weights, or all ones
SYMMETRIC = "A = A'"


@dataclass(frozen=True)
class Functional:
    """One audit functional.  values(trajectory, p, B, f) is its series at
    the stored nodes, given the audit's weights p (None for all ones), the
    coupling B (for the potential) and the convex function f (for
    weighted:<f>).  hypothesis is None, BALANCED, P_BALANCED or SYMMETRIC."""

    values: Callable
    direction: str = "non-increasing"
    hypothesis: Optional[str] = None


def _weights(p, n: int) -> np.ndarray:
    """The audit's weights as a non-negative n-vector; all ones for None."""
    if p is None:
        return np.ones(n)
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyVector(f"expected a non-empty weight vector, got shape {arr.shape}")
    if np.any(arr < 0.0):
        raise NegativeWeight("functional weights must be non-negative")
    return arr


def _sum_of_squares(states):
    return np.einsum("ij,ij->i", states, states)


def _require_symmetric(couplings, starts):
    """NotSymmetric for the first piece with |A - A'| > tol * max(1, |A|)."""
    scale = np.abs(couplings).max(axis=(1, 2))
    gap = np.abs(couplings - couplings.transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(gap > DEFAULT_ROW_TOL * np.maximum(1.0, scale))
    if len(bad):
        raise NotSymmetric(
            f"the potential audit needs symmetric coupling; A - A' reaches "
            f"{float(gap[bad[0]])!r} at t = {float(starts[bad[0]])!r}")


def _potential(run, p, B, f):
    if B is None:
        raise UnknownFunctional("potential audit needs the coupling matrix")
    _require_symmetric(B[None], [run.t_start if run.times.size else math.nan])
    return -0.5 * np.einsum("ij,jk,ik->i", run.states, B, run.states)


def _delayed_spread(run, p, B, f):
    if "tau" not in run.meta:
        raise UnknownFunctional("delayed_spread needs a delayed run (tau in its meta)")
    return delayed_functional_series(run, run.meta["tau"])[1]


AUDITS = {
    "spread": Functional(lambda run, p, B, f: run.spread),
    "max_component": Functional(lambda run, p, B, f: run.states.max(axis=1)),
    "min_component": Functional(lambda run, p, B, f: run.states.min(axis=1),
                                direction="non-decreasing"),
    "delayed_spread": Functional(_delayed_spread),
    "sum_of_squares": Functional(
        lambda run, p, B, f: _sum_of_squares(run.states), hypothesis=BALANCED),
    "centered_sum_of_squares": Functional(
        lambda run, p, B, f: _sum_of_squares(
            run.states - run.states.mean(axis=1, keepdims=True)),
        hypothesis=BALANCED),
    "weighted": Functional(
        lambda run, p, B, f: CONVEX_REGISTRY[f](run.states) @ _weights(p, run.n),
        hypothesis=P_BALANCED),
    "potential": Functional(_potential, hypothesis=SYMMETRIC),
}


def audit_entry(functional: str):
    """(table entry, convex-function name or "") of an audit name; the
    table is keyed by base name, and weighted:<f> is the one name with a
    suffix."""
    base, colon, f = functional.partition(":")
    entry = AUDITS.get(base)
    if entry is None or bool(colon) != (base == "weighted"):
        raise UnknownFunctional(
            f"{functional!r} is not one of {sorted(AUDITS)} (weighted as weighted:<f>)")
    if colon and f not in CONVEX_REGISTRY:
        raise UnknownFunction(
            f"{functional!r} must be weighted:<f> with f in {sorted(CONVEX_REGISTRY)}")
    return entry, f


def check_hypotheses(functionals, couplings, starts, weights=None):
    """Check on a (k, n, n) coupling stack every hypothesis the named
    functionals need; starts holds the start time of each piece.

    A schedule piece is A(t) = c(t) B with c(t) >= 0, so p'A(t) = c(t) p'B
    and A(t) is symmetric when B is: testing each fixed coupling B covers
    its piece.  Each test allows DEFAULT_ROW_TOL times max(1, the largest
    term it compares), as validate_coupling_matrix allows on a row sum.
    Raises NotSymmetric, then BalanceViolated, for the first piece that
    fails.
    """
    needs = {audit_entry(name)[0].hypothesis for name in functionals}
    if needs - {None, BALANCED, P_BALANCED, SYMMETRIC}:
        raise ValueError(f"no check for some of the hypotheses {needs}")
    couplings = np.asarray(couplings, dtype=float)
    if SYMMETRIC in needs:
        _require_symmetric(couplings, starts)
    scale = np.abs(couplings).max(axis=(1, 2))
    vectors = [np.ones(couplings.shape[-1])] if BALANCED in needs else []
    if P_BALANCED in needs:
        vectors.append(_weights(weights, couplings.shape[-1]))
    for p in vectors:
        residual = np.abs(p @ couplings).max(axis=1)
        tol = DEFAULT_ROW_TOL * np.maximum(1.0, p.max() * scale)
        bad = np.flatnonzero(residual > tol)
        if len(bad):
            raise BalanceViolated(float(starts[bad[0]]), float(residual[bad[0]]))


# --------------------------------------------------------------------------
# Monotonicity audits along trajectories
# --------------------------------------------------------------------------

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


def audit_monotonicity(
    trajectory: Trajectory,
    functional: str,
    weights=None,
    matrix=None,
    slack: Optional[float] = None,
) -> MonotonicityReport:
    """Evaluate a table functional at every stored node and check it
    moves in its expected direction, up to slack (default
    1e-9 * (1 + initial value)).

    The potential needs its coupling matrix, which must be symmetric
    (NotSymmetric otherwise); the other functionals ignore a matrix, and
    their hypotheses are check_hypotheses' to test.  A failed audit is a
    report with passed=False, not an exception: for unbalanced coupling
    the sums of squares are expected to lose monotonicity, and the report
    is how that shows up.
    """
    entry, f = audit_entry(functional)
    B = None if matrix is None else coupling_entries(matrix)
    values = entry.values(trajectory, weights, B, f)
    return monotonicity_from_series(functional, values, slack=slack,
                                    direction=entry.direction)
