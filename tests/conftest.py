"""Shared generators and brute-force oracles for the test suite.

Oracles here deliberately take the dumbest correct route (per-node BFS,
dense closed forms, trapezoid refinement) so they cannot share a bug with
the code under test.
"""

import numpy as np
import pytest

from consensus_lab import from_offdiagonal


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


def chain_matrix():
    """x1 follows x2, x2 drifts freely: the standard 2-node worked example."""
    return np.array([[-1.0, 1.0], [0.0, 0.0]])


def symmetric_pair(w=1.0):
    return np.array([[-w, w], [w, -w]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
