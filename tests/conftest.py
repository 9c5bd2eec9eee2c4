"""Shared generators and brute-force oracles for the test suite, and
run_cli, which runs the command line in a subprocess with a capped
address space.

Oracles here deliberately take the dumbest correct route (per-node BFS,
dense closed forms, adaptive quadrature, trapezoid refinement) so they
cannot share a bug with the code under test.
"""

import math
import os
import resource
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

import consensus_lab
from consensus_lab import (OutOfHorizon, contraction_certificate,
                           from_offdiagonal, simulate_ode)
from consensus_lab.dynamics import (_hermite_many, _march, _rk4_transfer,
                                    _step_target)
from consensus_lab.metzler_core import DEFAULT_ROW_TOL, _check, _locate_piece


def random_metzler(rng, n, density=0.6, wmax=2.0):
    """Random Metzler zero-row-sum entries with the given arc density."""
    off = rng.uniform(0.1, wmax, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(off, 0.0)
    return from_offdiagonal(off)


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


def profile_at(depth, period, t):
    """c(t) = 1 + depth sin(2 pi t / period) in Python floats."""
    return 1.0 + float(depth) * math.sin(2.0 * math.pi * float(t) / float(period))


def scaled_coupling(B, depth, period, t):
    """c(t) B for c(t) = 1 + depth sin(2 pi t / period), one matrix at a
    time, with the diagonal minus the 2-d row sum of the scaled
    off-diagonal entries: the per-time form that
    CouplingSchedule.entries_over stacks."""
    out = B * profile_at(depth, period, t)
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


def coupling_at(schedule, t):
    """A(t) of a schedule, right-continuous at its breakpoints; OutOfHorizon
    outside it."""
    piece = _locate_piece(schedule, np.array([t]))[0]
    return schedule.entries_over(piece, [t])[0]


def brute_substeps(a, b, h_target):
    """(m, h, grid) of one piece [a, b], cut one piece at a time: m equal
    steps of h, and grid their ends a + h j, the last exactly b; the
    oracle of dynamics._grids."""
    m = max(1, int(math.ceil((b - a) / h_target - 1e-9)))
    h = (b - a) / m
    grid = a + h * np.arange(1, m + 1)
    grid[-1] = b
    return m, h, grid


def piece_entries_at(schedule, i, t):
    """A(t) on piece i of a schedule, one matrix at a time."""
    if schedule.constant[i]:
        return schedule.couplings[i]
    return scaled_coupling(schedule.couplings[i], schedule.depths[i],
                           schedule.periods[i], t)


def brute_switching_weights(n, periods, probability, weight_range, seed):
    """The off-diagonal weights of the first ``periods`` periods of
    random_switching, drawn one period at a time, as perfbench/scenarios.py
    repeats them: rng.random((n, n)) for the link mask, then
    rng.uniform(low, high, (n, n)) for the link weights."""
    rng = np.random.default_rng(seed)
    lo, hi = weight_range
    off = np.array([np.where(rng.random((n, n)) < probability,
                             rng.uniform(lo, hi, (n, n)), 0.0)
                    for _ in range(periods)])
    off[:, range(n), range(n)] = 0.0
    return off


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
    _check(total[None], max(DEFAULT_ROW_TOL * max(1.0, T), 1e-9))
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
    """One constant undelayed piece: x <- phi x per step, the product that
    simulate_ode's loop makes, stored one node at a time with A x, the
    derivative a Hermite read of the piece takes."""
    store.patch_right(A @ x)
    phi = _rk4_transfer(A, h)
    for tt in grid:
        x = phi @ x
        store.append(tt, x, A @ x)
    return x


def transfer_of_step(H, c1, c2, c4):
    """Phi_j = I + a1 H + a2 H^2 + a3 H^3 + a4 H^4 of one RK4 step of
    x' = c(t) B x, H = h B, from the profile c1, c2, c4 at the step's
    start, middle and end (the dynamics module docstring derives the a),
    with the operations of simulate_ode's blocks in their order."""
    powers = [H]
    for _ in range(3):
        powers.append(powers[-1] @ H)
    alphas = ((c1 + 4.0 * c2 + c4) / 6.0, c2 * (c1 + c2 + c4) / 6.0,
              c2 * c2 * (c1 + c4) / 12.0, c1 * c2 * c2 * c4 / 24.0)
    phi = np.eye(len(H))
    for alpha, power in zip(alphas, powers):
        phi = phi + alpha * power
    return phi


def brute_sinusoidal_transfers(store, x, schedule, i, a, grid, h):
    """One undelayed sinusoidal piece: x <- Phi_j x per step, Phi_j built
    for that step alone by transfer_of_step from the profile in Python
    floats, and A(t) x from piece_entries_at; stored one node at a time."""
    depth, period = schedule.depths[i], schedule.periods[i]
    store.patch_right(piece_entries_at(schedule, i, a) @ x)
    H = h * schedule.couplings[i]
    t = a
    for tt in grid:
        phi = transfer_of_step(H, profile_at(depth, period, t),
                               profile_at(depth, period, t + 0.5 * h),
                               profile_at(depth, period, tt))
        x = phi @ x
        store.append(tt, x, piece_entries_at(schedule, i, tt) @ x)
        t = tt
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


def brute_simulate_ode(schedule, x0, t0, t1, step=None, stages=False):
    """(times, states, derivs, derivs_left) of simulate_ode, stepped by the
    per-node loops above, with each node's derivatives to its right and to
    its left kept as the reference for interpolate_state's; with stages,
    sinusoidal pieces take the RK4 stage loop instead of their transfer
    rule, the same map up to rounding."""
    x = np.array(x0, dtype=float)
    h_target = _step_target(step, schedule, t1 - t0)
    store = BruteStore()
    store.append(t0, x, coupling_at(schedule, t0) @ x)
    for a, b, i in brute_pieces(schedule, t0, t1):
        m, h, grid = brute_substeps(a, b, h_target)
        if schedule.constant[i]:
            x = brute_transfer_loop(store, x, schedule.couplings[i], h, grid)
        elif stages:
            unused = [None] * (m + 1)
            x = brute_march(store, x, a, grid, h,
                            piece_rhs(schedule, i, linear), unused, unused)
        else:
            x = brute_sinusoidal_transfers(store, x, schedule, i, a, grid, h)
    return store.arrays()


def constant_history(x0, tau, t0, t1):
    """(store, x, slack) to start a delayed oracle over [t0, t1] from: the
    node lists holding x0 at t0 - tau and at t0, both with derivative 0
    (the first step patches the right one of the t0 node), the state x0,
    and how far a read may pass the stored grid: twice the shortest piece
    kept at the run's largest time."""
    x = np.array(x0, dtype=float)
    store = BruteStore()
    for t in (t0 - tau, t0):
        store.append(t, x, np.zeros_like(x))
    return store, x, 2e-15 * max(1.0, abs(t0), abs(t1))


def brute_simulate_dde(schedule, tau, x0, t0, t1, step=None,
                       delay_diagonal=False):
    """(times, states, derivs, derivs_left) of simulate_dde from the
    constant history x0 by the method of steps, stepped one stage at a time
    through piece_entries_at, with two Hermite reads per piece on a fresh
    copy of the node lists."""
    h_target = min(_step_target(step, schedule, t1 - t0, tau), tau)
    form = split_delay(delay_diagonal)
    store, x, slack = constant_history(x0, tau, t0, t1)
    w0 = t0
    while w0 < t1 - 1e-12 * max(1.0, abs(t1 - t0)):
        w1 = min(w0 + tau, t1)
        snap = store.arrays()
        for a, b, i in brute_pieces(schedule, w0, w1):
            m, h, grid = brute_substeps(a, b, h_target)
            xd_nodes = _hermite_many(np.concatenate(([a], grid)) - tau, *snap,
                                     clamp_slack=slack)
            xd_half = _hermite_many((grid - 0.5 * h) - tau, *snap,
                                    clamp_slack=slack)
            x = brute_march(store, x, a, grid, h, piece_rhs(schedule, i, form),
                            xd_nodes, xd_half)
        w0 = w1
    return tuple(arr[1:] for arr in store.arrays())


def shadow_simulate_dde(schedule, tau, x0, t0, t1, step=None,
                        delay_diagonal=False):
    """brute_simulate_dde with every piece stepped twice from one state and
    one set of reads: by dynamics._march, whose nodes go on into the node
    lists, and by brute_march, whose nodes are only compared, so the nodes
    kept are simulate_dde's to the bit.  Returns (times, states) of those
    nodes and, per piece, (m, h, X, deviation): the steps, the step, the
    largest |x| among the piece's start, reads and both routes' nodes, and
    the largest difference of the two routes' nodes."""
    h_target = min(_step_target(step, schedule, t1 - t0, tau), tau)
    form = split_delay(delay_diagonal)
    store, x, slack = constant_history(x0, tau, t0, t1)
    pieces = []
    w0 = t0
    while w0 < t1 - 1e-12 * max(1.0, abs(t1 - t0)):
        w1 = min(w0 + tau, t1)
        snap = store.arrays()
        for a, b, i in brute_pieces(schedule, w0, w1):
            m, h, grid = brute_substeps(a, b, h_target)
            xd_nodes = _hermite_many(np.concatenate(([a], grid)) - tau, *snap,
                                     clamp_slack=slack)
            xd_half = _hermite_many((grid - 0.5 * h) - tau, *snap,
                                    clamp_slack=slack)
            shape = (m, len(x))
            dx, xs, dr = np.empty(len(x)), np.empty(shape), np.empty(shape)
            _march(x, schedule, i, a, grid, h,
                   np.concatenate((xd_nodes, xd_half)), delay_diagonal,
                   (dx, xs, dr))
            brute = BruteStore()
            brute.append(a, x, dx)
            brute_march(brute, x, a, grid, h, piece_rhs(schedule, i, form),
                        xd_nodes, xd_half)
            xb = brute.arrays()[1][1:]
            X = max(np.abs(x).max(), np.abs(xs).max(), np.abs(xb).max(),
                    np.abs(xd_nodes).max(), np.abs(xd_half).max())
            pieces.append((m, h, X, np.abs(xs - xb).max()))
            store.patch_right(dx)
            for sample in zip(grid, xs, dr):
                store.append(*sample)
            x = xs[-1]
        w0 = w1
    times, states, _, _ = store.arrays()
    return times[1:], states[1:], pieces


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


def deque_delayed_functional_series(trajectory, tau):
    """delayed_functional_series as it was before its sparse table: the
    window extremes from monotone deques over the row maxima and minima
    (Lemire, Nordic J. Computing 2006), which keep the latest of equal
    extremes, and each window's value from Python's max, min and
    subtraction; the bit-level reference for that function, ties of 0.0
    and -0.0 and NaN payloads included."""
    times = trajectory.times
    states = trajectory.states
    tiny = 1e-12 * max(1.0, tau)
    first = int(np.searchsorted(times, times[0] + tau - tiny, side="left"))
    edge_q = np.maximum(times[first:] - tau, times[0])
    left = np.searchsorted(times[:-1], edge_q, side="right") - 1
    s = ((edge_q - times[left]) / (times[left + 1] - times[left]))[:, None]
    with np.errstate(invalid="ignore"):
        edge_states = np.where(s == 0.0, states[left],
                               (1.0 - s) * states[left] + s * states[left + 1])
    lo_idx = np.searchsorted(times, edge_q, side="left").tolist()
    row_max = states.max(axis=1).tolist()
    row_min = states.min(axis=1).tolist()
    edge_max = edge_states.max(axis=1).tolist()
    edge_min = edge_states.min(axis=1).tolist()
    tops, bottoms = deque(), deque()
    last_nan = -1
    out = []
    for i in range(lo_idx[0], len(times)):
        top, bottom = row_max[i], row_min[i]
        if top != top:
            last_nan = i
        else:
            while tops and row_max[tops[-1]] <= top:
                tops.pop()
            tops.append(i)
            while bottoms and row_min[bottoms[-1]] >= bottom:
                bottoms.pop()
            bottoms.append(i)
        if i < first:
            continue
        j = i - first
        lo = lo_idx[j]
        if last_nan >= lo or edge_max[j] != edge_max[j]:
            out.append(math.nan)
            continue
        while tops[0] < lo:
            tops.popleft()
        while bottoms[0] < lo:
            bottoms.popleft()
        out.append(max(row_max[tops[0]], edge_max[j])
                   - min(row_min[bottoms[0]], edge_min[j]))
    return times[first:], np.array(out)


def brute_trajectory_csv(path, trajectory, spreads):
    """trajectory.csv written one value and one row at a time."""
    n = trajectory.n
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time," + ",".join(f"x_{k}" for k in range(1, n + 1))
                 + ",V_spread\n")
        for t, row, v in zip(trajectory.times, trajectory.states, spreads):
            fh.write(",".join("%.17g" % float(value) for value in (t, *row, v))
                     + "\n")


# The address space of a CLI subprocess: an input that allocates without
# bound fails there, not on the machine.
CLI_ADDRESS_SPACE = 2 * 2 ** 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CLI_ADDRESS_SPACE, CLI_ADDRESS_SPACE))


def run_cli(*args, timeout=30.0):
    """``python -m consensus_lab *args`` in a subprocess with its address
    space capped at CLI_ADDRESS_SPACE and one BLAS thread; a run past
    timeout seconds raises subprocess.TimeoutExpired.  Returns the
    CompletedProcess, with stdout and stderr as text."""
    src = os.path.dirname(os.path.dirname(consensus_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "consensus_lab", *args], capture_output=True,
        text=True, env=env, timeout=timeout, preexec_fn=_cap_address_space,
        check=False)


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
