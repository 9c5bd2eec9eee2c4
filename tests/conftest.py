"""Shared generators and brute-force oracles for the test suite.

Oracles here deliberately take the dumbest correct route (per-node BFS,
dense closed forms, trapezoid refinement) so they cannot share a bug with
the code under test.
"""

import numpy as np
import pytest

from consensus_lab import (OutOfHorizon, evaluate_schedule, from_offdiagonal,
                           validate_coupling_matrix)
from consensus_lab.dynamics import (_linear, _piece_rhs, _pieces, _rk4_transfer,
                                    _step_target, _substeps)
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


class BruteStore:
    """Integration nodes in Python lists, one append per node."""

    def __init__(self):
        self.t, self.x, self.dr, self.dl = [], [], [], []

    def append(self, t, x, dx):
        self.t.append(t)
        self.x.append(x)
        self.dr.append(dx)
        self.dl.append(dx)

    def patch_right(self, dx_right):
        self.dr[-1] = dx_right

    def arrays(self):
        return tuple(np.array(v) for v in (self.t, self.x, self.dr, self.dl))


def brute_transfer_loop(store, x, A, h, grid):
    """One constant undelayed piece: x <- phi x per step, stored one node
    at a time, with the same two matrix-vector products per step as the
    block-writing loop of simulate_ode."""
    store.patch_right(A @ x)
    phi = _rk4_transfer(A, h)
    for tt in grid:
        x = phi @ x
        store.append(tt, x, A @ x)
    return x


def brute_march(store, x, a, grid, h, rhs_at, xd_nodes, xd_half):
    """The RK4 stage loop over one piece, stored one node at a time."""
    dx = rhs_at(a)(x, xd_nodes[0])
    store.patch_right(dx)
    t = a
    for i, tt in enumerate(grid):
        f_mid = rhs_at(t + 0.5 * h)
        k2 = f_mid(x + 0.5 * h * dx, xd_half[i])
        k3 = f_mid(x + 0.5 * h * k2, xd_half[i])
        f_end = rhs_at(tt)
        k4 = f_end(x + h * k3, xd_nodes[i + 1])
        x = x + (h / 6.0) * (dx + 2.0 * k2 + 2.0 * k3 + k4)
        dx = f_end(x, xd_nodes[i + 1])
        store.append(tt, x, dx)
        t = tt
    return x


def brute_simulate_ode(schedule, x0, t0, t1, step=None):
    """(times, states, derivs, derivs_left) of simulate_ode, stepped by the
    per-node loops above."""
    x = np.array(x0, dtype=float)
    h_target = _step_target(step, schedule, t1 - t0, schedule.n)
    store = BruteStore()
    store.append(t0, x, evaluate_schedule(schedule, t0).entries @ x)
    for a, b, seg in _pieces(schedule, t0, t1):
        m, h, grid = _substeps(a, b, h_target)
        if seg.is_constant:
            x = brute_transfer_loop(store, x, seg.generator.entries, h, grid)
        else:
            unused = [None] * (m + 1)
            x = brute_march(store, x, a, grid, h, _piece_rhs(seg, _linear),
                            unused, unused)
    return store.arrays()


def brute_trajectory_csv(path, trajectory, spreads):
    """trajectory.csv written one value and one row at a time."""
    n = trajectory.n
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time," + ",".join(f"x_{k}" for k in range(1, n + 1))
                 + ",V_spread\n")
        for t, row, v in zip(trajectory.times, trajectory.states, spreads):
            fh.write(",".join("%.17g" % float(value) for value in (t, *row, v))
                     + "\n")


def chain_matrix():
    """x1 follows x2, x2 drifts freely: the standard 2-node worked example."""
    return np.array([[-1.0, 1.0], [0.0, 0.0]])


def symmetric_pair(w=1.0):
    return np.array([[-w, w], [w, -w]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
