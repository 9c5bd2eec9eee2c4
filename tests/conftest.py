"""Shared generators and brute-force oracles for the test suite.

Oracles here deliberately take the dumbest correct route (per-node BFS,
dense closed forms, trapezoid refinement) so they cannot share a bug with
the code under test.
"""

import numpy as np
import pytest

from consensus_lab import OutOfHorizon, from_offdiagonal, validate_coupling_matrix
from consensus_lab.metzler_core import _adaptive_simpson


def random_metzler(rng, n, density=0.6, wmax=2.0):
    """Random Metzler zero-row-sum entries with the given arc density."""
    off = rng.uniform(0.1, wmax, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(off, 0.0)
    return from_offdiagonal(off).entries


def brute_reachable(n, arcs, start):
    """Reachable set by naive BFS over an arc list; nodes are 1-based."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for tail, head in arcs:
            if tail == node and head not in seen:
                seen.add(head)
                frontier.append(head)
    return seen


def brute_roots(n, arcs):
    return {k for k in range(1, n + 1)
            if len(brute_reachable(n, arcs, k)) == n}


def brute_arcs(entries, delta):
    """Arcs (l, k), 1-based, of every off-diagonal entry (k, l) > delta."""
    n = len(entries)
    return frozenset((l + 1, k + 1) for k in range(n) for l in range(n)
                     if k != l and entries[k][l] > delta)


def brute_first_negative(entries):
    """1-based (k, l) of the first negative off-diagonal entry, row by row."""
    n = len(entries)
    return next(((k + 1, l + 1) for k in range(n) for l in range(n)
                 if k != l and entries[k][l] < 0.0), None)


def brute_window_integral(schedule, t, T, quad_tol=1e-10):
    """Integral of a schedule over [t, t + T], one segment at a time.

    Not an independent route: it adds the pieces in schedule order with the
    same products and the same quadrature as the batched kernel, so that the
    two must agree to the last bit.  Clipping and validation are those of a
    single window.
    """
    t0, t1 = schedule.horizon
    edge = 1e-9 * max(1.0, abs(t0), abs(t1), T)
    if t < t0 - edge or t + T > t1 + edge:
        raise OutOfHorizon(
            f"window [{t}, {t + T}] outside schedule horizon [{t0}, {t1}]")
    a, b = max(t, t0), min(t + T, t1)
    n = schedule.n
    total = np.zeros((n, n))
    for seg in schedule.segments:
        lo, hi = max(a, seg.t_start), min(b, seg.t_end)
        if hi - lo <= 0.0:
            continue
        if seg.is_constant:
            total += seg.generator.entries * (hi - lo)
        else:
            total += _adaptive_simpson(seg.generator.entries_at, lo, hi, quad_tol)
    check_tol = max(schedule.tol_row * max(1.0, T), 10.0 * quad_tol)
    clip = check_tol * max(1.0, float(np.max(np.abs(total))))
    for k in range(n):
        for l in range(n):
            if k != l and -clip <= total[k, l] < 0.0:
                total[k, l] = 0.0
    validate_coupling_matrix(total, tol_row=check_tol)
    return total


def chain_matrix():
    """x1 follows x2, x2 drifts freely: the standard 2-node worked example."""
    return np.array([[-1.0, 1.0], [0.0, 0.0]])


def symmetric_pair(w=1.0):
    return np.array([[-w, w], [w, -w]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
