"""Shared generators and brute-force oracles for the test suite.

Oracles here deliberately take the dumbest correct route (per-node BFS,
dense closed forms, adaptive quadrature, trapezoid refinement) so they
cannot share a bug with the code under test.
"""

import math

import numpy as np
import pytest

from consensus_lab import (OutOfHorizon, contraction_certificate,
                           evaluate_schedule, from_offdiagonal, simulate_ode,
                           validate_coupling_matrix)
from consensus_lab.dynamics import (_coerce_history, _hermite_many,
                                    _history_slack, _rk4_transfer,
                                    _step_target, _substeps)


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


def scaled_coupling(B, depth, period, t):
    """c(t) B for c(t) = 1 + depth sin(2 pi t / period), one matrix at a
    time, with the diagonal minus the 2-d row sum of the scaled
    off-diagonal entries: the per-time form that
    CouplingSchedule.entries_over stacks."""
    scale = 1.0 + float(depth) * math.sin(2.0 * math.pi * float(t) / float(period))
    out = B * scale
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


def piece_entries_at(schedule, i, t):
    """A(t) on piece i of a schedule, one matrix at a time."""
    if schedule.constant[i]:
        return schedule.couplings[i]
    return scaled_coupling(schedule.couplings[i], schedule.depths[i],
                           schedule.periods[i], t)


def _simpson_slice(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=30):
    """Entrywise adaptive composite Simpson rule for matrix-valued f."""
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        if depth > max_depth:
            raise RuntimeError(
                f"adaptive Simpson exceeded depth {max_depth} on [{a}, {b}]")
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = _simpson_slice(a, m, fa, flm, fm)
        right = _simpson_slice(m, b, fm, frm, fb)
        err = np.max(np.abs(left + right - whole))
        if err <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
                + recurse(m, b, fm, frm, fb, right, 0.5 * tol, depth + 1))

    return recurse(a, b, fa, fm, fb, _simpson_slice(a, b, fa, fm, fb), tol, 0)


def quadrature_window_integral(schedule, t, T, tol=1e-10):
    """Integral of a schedule over [t, t + T] by adaptive Simpson on
    piece_entries_at, one piece at a time: an oracle independent of the
    closed form."""
    total = np.zeros((schedule.n, schedule.n))
    for i, (start, end) in enumerate(zip(schedule.starts, schedule.ends)):
        lo, hi = max(t, start), min(t + T, end)
        if hi > lo:
            total += adaptive_simpson(
                lambda s: piece_entries_at(schedule, i, s), lo, hi, tol)
    return total


def brute_window_integral(schedule, t, T):
    """Integral of a schedule over [t, t + T], one segment at a time.

    Not an independent route: it adds the pieces in schedule order with the
    same closed-form profile integrals and the same products as the batched
    kernel, so that the two must agree to the last bit.  Validation is that
    of a single window.
    """
    t0, t1 = schedule.horizon
    edge = 1e-9 * max(1.0, abs(t0), abs(t1), T)
    if t < t0 - edge or t + T > t1 + edge:
        raise OutOfHorizon(
            f"window [{t}, {t + T}] outside schedule horizon [{t0}, {t1}]")
    a, b = max(t, t0), min(t + T, t1)
    n = schedule.n
    total = np.zeros((n, n))
    for i, (start, end) in enumerate(zip(schedule.starts, schedule.ends)):
        lo, hi = max(a, start), min(b, end)
        if hi - lo <= 0.0:
            continue
        w = hi - lo
        if not schedule.constant[i]:
            d, P = schedule.depths[i], schedule.periods[i]
            w = max(w + d * (P / np.pi) * np.sin(np.pi * (lo + hi) / P)
                    * np.sin(np.pi * w / P), 0.0)
        total += schedule.couplings[i] * w
    validate_coupling_matrix(total, tol_row=max(schedule.tol_row * max(1.0, T),
                                                1e-9))
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


def brute_pieces(schedule, t0, t1):
    """(a, b, piece index) covering [t0, t1]: a scan over every piece."""
    for i, (start, end) in enumerate(zip(schedule.starts.tolist(),
                                         schedule.ends.tolist())):
        a = max(t0, start)
        b = min(t1, end)
        if b - a > 1e-15 * max(1.0, abs(b)):
            yield a, b, i


def piece_rhs(schedule, i, form):
    """rhs_at(t) for brute_march: form(A(t)) per stage, through
    piece_entries_at, built once on a constant piece."""
    if schedule.constant[i]:
        f = form(schedule.couplings[i])
        return lambda t: f
    return lambda t: form(piece_entries_at(schedule, i, t))


def linear(A):
    """f(y, xd) = A y: the undelayed right-hand side."""
    return lambda y, xd: A @ y


def split_delay(delay_diagonal):
    """form for the delayed right-hand side f(y, xd) = d y + off xd."""
    def form(entries):
        if delay_diagonal:
            d, off = np.zeros(len(entries)), entries
        else:
            d, off = np.diag(entries), entries.copy()
            np.fill_diagonal(off, 0.0)
        return lambda y, xd: d * y + off @ xd
    return form


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
    for a, b, i in brute_pieces(schedule, t0, t1):
        m, h, grid = _substeps(a, b, h_target)
        if schedule.constant[i]:
            x = brute_transfer_loop(store, x, schedule.couplings[i], h, grid)
        else:
            unused = [None] * (m + 1)
            x = brute_march(store, x, a, grid, h,
                            piece_rhs(schedule, i, linear), unused, unused)
    return store.arrays()


def brute_simulate_dde(schedule, tau, history, t0, t1, step=None,
                       delay_diagonal=False):
    """(times, states, derivs, derivs_left) of simulate_dde by the method
    of steps, stepped one stage at a time through piece_entries_at, with two
    Hermite reads per piece on a fresh copy of the node lists."""
    hist = _coerce_history(history, tau, t0)
    n = schedule.n
    h_target = min(_step_target(step, schedule, t1 - t0, n, tau), tau)
    slack = _history_slack(tau, t0)
    form = split_delay(delay_diagonal)
    store = BruteStore()
    for sample in zip(hist.times, hist.states, hist.derivs):
        store.append(*sample)
    x = _hermite_many([t0], *store.arrays(), clamp_slack=slack)[0]
    if abs(hist.times[-1] - t0) > 1e-12 * tau:
        xd0 = _hermite_many([t0 - tau], *store.arrays(), clamp_slack=slack)[0]
        store.append(t0, x, form(evaluate_schedule(schedule, t0).entries)(x, xd0))
    first = len(store.t) - 1
    w0 = t0
    while w0 < t1 - 1e-12 * max(1.0, abs(t1 - t0)):
        w1 = min(w0 + tau, t1)
        snap = store.arrays()
        for a, b, i in brute_pieces(schedule, w0, w1):
            m, h, grid = _substeps(a, b, h_target)
            xd_nodes = _hermite_many(np.concatenate(([a], grid)) - tau, *snap,
                                     clamp_slack=slack)
            xd_half = _hermite_many((grid - 0.5 * h) - tau, *snap,
                                    clamp_slack=slack)
            x = brute_march(store, x, a, grid, h, piece_rhs(schedule, i, form),
                            xd_nodes, xd_half)
        w0 = w1
    return tuple(arr[first:] for arr in store.arrays())


def brute_delayed_functional_series(trajectory, tau):
    """delayed_functional_series by one slice of the stored states per
    node, stacked with the window edge and reduced by ndarray.max and
    ndarray.min, so a NaN row or edge makes the window NaN; the edge is
    read linearly between the last node at or before it and the next one,
    found by a scan."""
    times, states = trajectory.times, trajectory.states
    tiny = 1e-12 * max(1.0, tau)
    first = int(np.searchsorted(times, times[0] + tau - tiny, side="left"))
    out = []
    for i in range(first, len(times)):
        q = max(times[i] - tau, times[0])
        left = max(k for k in range(len(times) - 1) if times[k] <= q)
        s = (q - times[left]) / (times[left + 1] - times[left])
        edge = (states[left] if s == 0.0
                else (1.0 - s) * states[left] + s * states[left + 1])
        window = states[left + (times[left] < q): i + 1]
        window = np.vstack((window, edge))
        out.append((float(times[i]), float(window.max()) - float(window.min())))
    return out


def brute_trajectory_csv(path, trajectory, spreads):
    """trajectory.csv written one value and one row at a time."""
    n = trajectory.n
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time," + ",".join(f"x_{k}" for k in range(1, n + 1))
                 + ",V_spread\n")
        for t, row, v in zip(trajectory.times, trajectory.states, spreads):
            fh.write(",".join("%.17g" % float(value) for value in (t, *row, v))
                     + "\n")


def witnessed_certificate(schedule, x0, t0, T, delta, root, step=None,
                          **options):
    """contraction_certificate witnessed on simulate_ode from x0 over
    exactly its span [t0, t0 + (n - 1) T], at the given step."""
    trajectory = simulate_ode(schedule, x0, t0, t0 + (schedule.n - 1) * T, step)
    return contraction_certificate(schedule, trajectory, t0, T, delta, root,
                                   **options)


def chain_matrix():
    """x1 follows x2, x2 drifts freely: the standard 2-node worked example."""
    return np.array([[-1.0, 1.0], [0.0, 0.0]])


def symmetric_pair(w=1.0):
    return np.array([[-w, w], [w, -w]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
