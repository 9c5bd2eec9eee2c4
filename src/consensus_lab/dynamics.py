"""Deterministic integration of coupled consensus dynamics.

simulate_ode advances dx/dt = A(t) x with the classical fixed-step
fourth-order Runge-Kutta scheme.  Step boundaries are aligned to the
schedule breakpoints, so no step ever straddles a coupling discontinuity,
and every internal step is stored (dense output).

simulate_dde handles the delayed variant

    dx/dt = diag(A(t)) x(t) + (A(t) - diag(A(t))) x(t - tau)

by the method of steps: the horizon is cut into windows of length tau, and
inside each window the delayed values are read by cubic Hermite
interpolation on one node grid, the history samples followed by every
computed node; the returned trajectory is that grid from t0 on.

One RK4 stage loop, _march, steps every time-varying piece and every
delayed piece; its right-hand side is f(t, y) = A(t) y, or the split form
above with xd = x(t - tau).  Everything in a step that does not depend on
the state is computed ahead, a block of steps at a time: A(t) at the mid
and end stage times, and on a delayed piece the diagonals d(t) and the
drives u = off(t) xd, so that a stage costs A y or d * y + u.  The drives
of a block come from one np.matmul on a stack of column vectors, which
makes one gemv call per row: the call that off @ xd makes, so every drive
is the same to the last bit.  XD @ off.T would not be: it goes to gemm,
which sums in another order.  gemv also follows the strides of its
matrix, so each stacked matrix must be row-major: a C-order copy, never
np.array of a broadcast view, which keeps the broadcast's stride order and
reads every matrix transposed.  A constant piece of an undelayed run takes
the one other path: there an RK4 step is a fixed matrix, applied once per
step, and the node derivatives A x follow in one batched matmul.  Both
loops reserve a whole piece in the node store and write its nodes in
place.

Once its drives are known, a delayed block splits by component, and
_scalar_rk4 steps each component in Python floats with the bits of the
vector stage d * y + u; an undelayed time-varying piece keeps the vector
loop, whose A y sums in gemv's order.

Trajectories keep two derivative arrays.  The solution has corners at
coupling discontinuities, so a node carries the derivative valid to its
right (derivs) and to its left (derivs_left); they differ only at
breakpoints.  Interpolation over an interval uses the right derivative of
its left node and the left derivative of its right node, which keeps the
Hermite reads at integrator order across switches.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    HistoryGap,
    OutOfHorizon,
    StepTooLargeWarning,
    WindowNotCovered,
)
from .metzler_core import CouplingSchedule, evaluate_schedule


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense integrator output: states and one-sided derivatives on a
    strictly increasing grid."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    derivs_left: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-d and states 2-d")
        if not (len(self.times) == len(self.states)
                == len(self.derivs) == len(self.derivs_left)):
            raise ValueError("times, states, derivative array lengths disagree")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        for arr in (self.times, self.states, self.derivs, self.derivs_left):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @functools.cached_property
    def spread(self) -> np.ndarray:
        """max - min at every stored node: the run's one, read-only series."""
        values = self.states.max(axis=1) - self.states.min(axis=1)
        values.setflags(write=False)
        return values


# Largest r for which h*A with spectrum in the Gershgorin disc
# {|z + r| <= r} stays inside RK4's stability region |R(z)| <= 1; the disc
# touches the real-axis limit -2.785 at r ~ 1.3926.
_RK4_DISC_RADIUS = 1.39


def _step_target(step: Optional[float], schedule: CouplingSchedule,
                 span: float, n: int, tau: Optional[float] = None) -> float:
    """The requested step, or a default derived from the schedule bound
    (and the delay, for delayed runs)."""
    if step is not None:
        if not (step > 0.0):
            raise ValueError(f"step must be positive, got {step!r}")
        return float(step)
    candidates = []
    if schedule.bound > 0.0:
        candidates.append(1.0 / (10.0 * n * schedule.bound))
    if tau is not None:
        candidates.append(tau / 20.0)
    if not candidates:
        candidates.append(span / 100.0)
    return min(min(candidates), span)


def _advise_on_step(h: float, bound: float):
    """Warn when h*A may leave RK4's stability region.

    With zero row sums and entries bounded by M, every Gershgorin disc of A
    lies in {|z + M| <= M}, so h <= _RK4_DISC_RADIUS / M keeps the whole
    spectrum of h*A stable.
    """
    if bound > 0.0 and h * bound > _RK4_DISC_RADIUS:
        warnings.warn(
            f"step {h} exceeds the RK4 stability budget "
            f"{_RK4_DISC_RADIUS}/M = {_RK4_DISC_RADIUS / bound}",
            StepTooLargeWarning,
            stacklevel=3,
        )


def _pieces(schedule: CouplingSchedule, t0: float, t1: float):
    """Yield (a, b, i) covering [t0, t1] with schedule piece i, cut at the
    schedule breakpoints.

    The scan starts at the piece that holds t0, found by bisection, or at
    an earlier one whose end still passes t0 (joins may overlap by the
    schedule's join tolerance), and stops at the first piece that starts
    at or after t1."""
    starts, ends = schedule.starts.tolist(), schedule.ends.tolist()
    k = max(bisect.bisect_right(starts, t0) - 1, 0)
    while k > 0 and ends[k - 1] > t0:
        k -= 1
    for i in range(k, len(starts)):
        if starts[i] >= t1:
            break
        a = max(t0, starts[i])
        b = min(t1, ends[i])
        if b - a > 1e-15 * max(1.0, abs(b)):
            yield a, b, i


def _check_horizon(schedule: CouplingSchedule, t0: float, t1: float):
    if not (t1 > t0):
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    s0, s1 = schedule.horizon
    edge = 1e-9 * max(1.0, abs(s0), abs(s1))
    if t0 < s0 - edge or t1 > s1 + edge:
        raise OutOfHorizon(
            f"integration horizon [{t0}, {t1}] outside schedule horizon [{s0}, {s1}]")


def _rk4_transfer(A: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step for constant A equals the degree-4 Taylor
    polynomial of exp(hA); evaluated in Horner form."""
    eye = np.eye(A.shape[0])
    hA = h * A
    phi = eye + hA / 4.0
    phi = eye + (hA / 3.0) @ phi
    phi = eye + (hA / 2.0) @ phi
    return eye + hA @ phi


def _substeps(a: float, b: float, h_target: float):
    m = max(1, int(math.ceil((b - a) / h_target - 1e-9)))
    h = (b - a) / m
    grid = a + h * np.arange(1, m + 1)
    grid[-1] = b
    return m, h, grid


class _NodeStore:
    """Grow-only buffer of integration nodes with one-sided derivatives.

    Backed by preallocated numpy arrays that at least double when they
    grow, so a read-only snapshot of everything stored so far is a
    constant-time slice.  A stepping loop reserves a whole piece with
    extend and writes its nodes in place; append adds one node."""

    def __init__(self, n: int, capacity: int = 256):
        self.size = 0
        self._t = np.empty(capacity)
        self._x = np.empty((capacity, n))
        self._dr = np.empty((capacity, n))
        self._dl = np.empty((capacity, n))

    def extend(self, m: int):
        """Reserve the next m nodes; return writable (t, x, dr, dl) slices."""
        end = self.size + m
        if end > len(self._t):
            cap = max(2 * len(self._t), end)
            for name in ("_t", "_x", "_dr", "_dl"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:])
                new[: self.size] = old[: self.size]
                setattr(self, name, new)
        nodes = slice(self.size, end)
        self.size = end
        return self._t[nodes], self._x[nodes], self._dr[nodes], self._dl[nodes]

    def append(self, t, x, dx):
        ts, xs, dr, dl = self.extend(1)
        ts[0] = t
        xs[0] = x
        dr[0] = dl[0] = dx

    def patch_right(self, dx_right):
        # A new piece begins at the last stored node: its right derivative
        # belongs to the new piece.
        self._dr[self.size - 1] = dx_right

    def view(self):
        s = self.size
        return self._t[:s], self._x[:s], self._dr[:s], self._dl[:s]


# Stage stacks are built for at most this many matrix entries at a time
# (and never less than one step), so a long piece holds a block of its
# stage matrices, not all of them, at once.
_BLOCK_ENTRIES = 2 ** 12


def _matvecs(M: np.ndarray, V: np.ndarray, out=None) -> np.ndarray:
    """Row i is M[i] @ V[i] (M a stack, or one matrix for every row), to
    the last bit: matmul on a stack of column vectors makes one gemv call
    per row, the call that M[i] @ V[i] makes.  Each matrix must be
    row-major, as a C-order stack or a broadcast of a C-order matrix is."""
    if out is not None:
        out = out[:, :, None]
    return np.matmul(M, V[:, :, None], out=out)[:, :, 0]


# Microseconds per step of a 20 s delayed sinusoidal piece at step 0.01
# and tau = 1, median of 15 runs in 3 alternating processes per kernel, on
# a shared 2-vCPU x86-64 machine with numpy 2.4 and one BLAS thread: the
# stage d * y + u stepped on numpy vectors (the undelayed loop of _march
# with that stage), and _scalar_rk4:
#
#     n         2    3    5    8   12   16   20   24   32   64
#     vector   23   25   24   23   26   29   31   31   44   80
#     scalar    5    6    8   10   16   21   25   37   50  187
def _scalar_rk4(x, dx, h, d_mid, u_mid, d_end, u_end, xs, dr):
    """RK4 steps of the delayed stage f = d * y + u with the drives of a
    block given, one component at a time.  Everything that mixes the
    components went into u ahead of the step (the method of steps), so
    component c of step j only reads column c of the drives, and each
    column is the scalar recursion y' = d_c(t) y + u_c(t).  The operations
    and their order are those of the vector loop in _march with the stage
    d * y + u (0.5 * h * dx there groups as half * k1 here, and the k-sum
    adds from the left).  A Python float is an IEEE double and each
    operation rounds once, as a numpy ufunc does each element, so xs and dr
    get the vector form's values to the bit, signed zeros, infinities and
    NaN included.  On a few components this skips some 20 numpy calls a
    step on arrays of a few values; the cost grows with n and passes the
    vector form's near n = 20 (table above), which no delayed run of the
    benchmark reaches.  Returns copies of the last state and
    derivative: a view would keep the store's buffer alive after the store
    outgrows it."""
    half, sixth = 0.5 * h, h / 6.0
    xcols, dcols = [], []
    for y, k1, dms, ums, des, ues in zip(
            x.tolist(), dx.tolist(), d_mid.T.tolist(), u_mid.T.tolist(),
            d_end.T.tolist(), u_end.T.tolist()):
        ys, ks = [], []
        for dm, um, de, ue in zip(dms, ums, des, ues):
            k2 = dm * (y + half * k1) + um
            k3 = dm * (y + half * k2) + um
            k4 = de * (y + h * k3) + ue
            y = y + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
            k1 = de * y + ue
            ys.append(y)
            ks.append(k1)
        xcols.append(ys)
        dcols.append(ks)
    xs.T[:] = xcols
    dr.T[:] = dcols
    return xs[-1].copy(), dr[-1].copy()


def _drives(A: np.ndarray, xd: np.ndarray, delay_diagonal: bool):
    """Split the stage matrices A[j] for the delayed inputs xd[j]: the
    stage is d[j] * y + u[j] with u[j] = off[j] @ xd[j], where d = diag(A)
    and off = A - diag(A), or d = 0 and off = A with delay_diagonal."""
    if delay_diagonal:
        return np.zeros(xd.shape), _matvecs(A, xd)
    # ndarray.copy is C order: np.array or np.copy of a broadcast view would
    # keep the broadcast's stride order, and gemv would read off transposed.
    off = A.copy()
    diag = np.arange(off.shape[1])
    off[:, diag, diag] = 0.0
    return A.diagonal(axis1=1, axis2=2), _matvecs(off, xd)


def _march(store: _NodeStore, x: np.ndarray, schedule: CouplingSchedule,
           piece: int, a: float, grid: np.ndarray, h: float,
           delayed=None) -> np.ndarray:
    """Classical RK4 from the last stored node (a, x) through grid, over
    the given schedule piece; node 0 is a and node i + 1 is grid[i].

    Undelayed (delayed None), f(t, y) = A(t) y.  Otherwise delayed is
    (xd_nodes, xd_half, delay_diagonal): xd_nodes[i] is x(t - tau) at node
    i and xd_half[i] half a step on, and f(t, y) = d(t) * y + off(t) xd as
    split by _drives.  A(t) at the stage times and the drives off(t) xd
    are state-free, so they are computed ahead, a block of steps at a time,
    with the expressions and the BLAS calls of the per-stage form: the
    batched drives make the gemv call of off @ xd per row, whereas
    XD @ off.T would call gemm, which sums in another order.  Only the
    stage arithmetic on the state is left to the step loop, which on a
    delayed piece runs as one scalar recursion per component
    (_scalar_rk4).  A node's stored derivative is k1 of the step that
    leaves it."""
    xd_nodes, xd_half, delay_diagonal = delayed or (None, None, False)
    node_t = np.concatenate(([a], grid))
    mid_t = node_t[:-1] + 0.5 * h

    def drives(times, xd, rows):
        return _drives(schedule.entries_over(piece, times[rows]), xd[rows],
                       delay_diagonal)

    if delayed is None:
        dx = schedule.entries_over(piece, node_t[:1])[0] @ x
    else:
        d, u = drives(node_t, xd_nodes, slice(0, 1))
        dx = d[0] * x + u[0]
    store.patch_right(dx)
    m = len(grid)
    ts, xs, dr, dl = store.extend(m)
    ts[:] = grid
    size = max(1, _BLOCK_ENTRIES // x.size ** 2)
    for lo in range(0, m, size):
        hi = min(lo + size, m)
        if delayed is not None:
            x, dx = _scalar_rk4(x, dx, h,
                                *drives(mid_t, xd_half, slice(lo, hi)),
                                *drives(node_t, xd_nodes, slice(lo + 1, hi + 1)),
                                xs[lo:hi], dr[lo:hi])
            continue
        mid = schedule.entries_over(piece, mid_t[lo:hi])
        end = schedule.entries_over(piece, node_t[lo + 1:hi + 1])
        for j in range(hi - lo):
            k2 = mid[j] @ (x + 0.5 * h * dx)
            k3 = mid[j] @ (x + 0.5 * h * k2)
            k4 = end[j] @ (x + h * k3)
            xs[lo + j] = x = x + (h / 6.0) * (dx + 2.0 * k2 + 2.0 * k3 + k4)
            dr[lo + j] = dx = end[j] @ x
    dl[:] = dr
    return x


def simulate_ode(
    schedule: CouplingSchedule,
    x0: Sequence,
    t0: float,
    t1: float,
    step: Optional[float] = None,
) -> Trajectory:
    """Integrate dx/dt = A(t) x from x(t0) = x0 up to t1.

    Fixed-step classical RK4; inside each schedule piece the step divides
    the piece exactly, so breakpoints land on grid nodes.  Deterministic:
    identical inputs give identical output arrays.
    """
    _check_horizon(schedule, t0, t1)
    x = np.array(x0, dtype=float)
    n = schedule.n
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    h_target = _step_target(step, schedule, t1 - t0, n)
    _advise_on_step(h_target, schedule.bound)

    store = _NodeStore(n)
    store.append(t0, x, evaluate_schedule(schedule, t0).entries @ x)
    for a, b, i in _pieces(schedule, t0, t1):
        m, h, grid = _substeps(a, b, h_target)
        if schedule.constant[i]:
            A = schedule.couplings[i]
            store.patch_right(A @ x)
            phi = _rk4_transfer(A, h)
            ts, xs, dr, dl = store.extend(m)
            ts[:] = grid
            # The gemv call of phi @ x, written straight into its row.
            for row in xs:
                x = np.matmul(phi, x, out=row)
            x = x.copy()  # not a view of a buffer the store may outgrow
            _matvecs(A, xs, out=dr)
            dl[:] = dr
        else:
            x = _march(store, x, schedule, i, a, grid, h)
    meta = {
        "method": "rk4",
        "requested_step": step,
        "effective_step_target": h_target,
        "schedule_bound": schedule.bound,
    }
    return Trajectory(*store.view(), meta=meta)


# --------------------------------------------------------------------------
# Hermite interpolation on a stored grid
# --------------------------------------------------------------------------

def _hermite_many(
    queries: np.ndarray,
    times: np.ndarray,
    states: np.ndarray,
    derivs_right: np.ndarray,
    derivs_left: np.ndarray,
    clamp_slack: float,
) -> np.ndarray:
    """Piecewise cubic Hermite evaluation at an array of query times.

    Each interval uses the right derivative of its left node and the left
    derivative of its right node.  Queries past either end of the grid by
    at most clamp_slack are clamped to that end's node; simulate_dde reads
    x(t0) this way from a history whose last sample falls short of t0 by up
    to the slack _coerce_history grants."""
    q = np.asarray(queries, dtype=float)
    lo, hi = times[0], times[-1]
    if np.any(q < lo - clamp_slack) or np.any(q > hi + clamp_slack):
        raise HistoryGap(
            f"query range [{q.min()}, {q.max()}] outside stored grid [{lo}, {hi}]")
    q = np.clip(q, lo, hi)
    idx = np.searchsorted(times, q, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 2)
    h = times[idx + 1] - times[idx]
    s = (q - times[idx]) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return (h00[:, None] * states[idx]
            + (h10 * h)[:, None] * derivs_right[idx]
            + h01[:, None] * states[idx + 1]
            + (h11 * h)[:, None] * derivs_left[idx + 1])


def interpolate_state(trajectory: Trajectory, t: float) -> np.ndarray:
    """State at time t by cubic Hermite interpolation of the stored grid."""
    span = trajectory.t_end - trajectory.t_start
    slack = 1e-12 * max(1.0, span)
    return _hermite_many(
        np.array([t]), trajectory.times, trajectory.states,
        trajectory.derivs, trajectory.derivs_left, clamp_slack=slack,
    )[0]


# --------------------------------------------------------------------------
# Delayed dynamics
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DelayHistory:
    """Initial segment for a delayed run: x(s) on [t_end - tau, t_end], as
    samples with derivatives (so the segment interpolates at integrator
    order)."""

    tau: float
    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("history times must be strictly increasing")
        # t_end - tau rounds at the spacing of floats near t_end.
        covered = self.times[-1] - self.times[0]
        if covered < self.tau * (1.0 - 1e-9) - 4.0 * np.spacing(abs(self.times[-1])):
            raise HistoryGap(
                f"history covers {covered}, needs the full delay {self.tau}")

    @classmethod
    def constant(cls, value: Sequence, tau: float, t_end: float = 0.0) -> "DelayHistory":
        x = np.array(value, dtype=float)
        times = np.array([t_end - tau, t_end])
        return cls(
            tau=float(tau),
            times=times,
            states=np.vstack([x, x]),
            derivs=np.zeros((2, len(x))),
        )


def _history_slack(tau: float, t0: float) -> float:
    """How far a history may miss t0 - tau or t0 and still be read there:
    1e-9 max(1, tau), plus four ulps of t0, since t0 - tau rounds at the
    spacing of floats near t0."""
    return 1e-9 * max(1.0, tau) + 4.0 * float(np.spacing(abs(t0)))


def _coerce_history(history, tau: float, t0: float) -> DelayHistory:
    if isinstance(history, DelayHistory):
        slack = _history_slack(tau, t0)
        if history.times[0] > t0 - tau + slack or history.times[-1] < t0 - slack:
            raise HistoryGap(
                f"history grid [{history.times[0]}, {history.times[-1]}] does not "
                f"cover [{t0 - tau}, {t0}]")
        # History samples and computed nodes share one increasing grid, so
        # no sample may come after t0 (simulate_dde takes a last sample
        # within 1e-12 tau of t0 as the t0 node).
        if history.times[-1] > t0 + 1e-12 * tau:
            raise HistoryGap(
                f"history grid [{history.times[0]}, {history.times[-1]}] runs "
                f"past t0 = {t0}")
        return history
    return DelayHistory.constant(history, tau, t_end=t0)


def simulate_dde(
    schedule: CouplingSchedule,
    tau: float,
    history,
    t0: float,
    t1: float,
    step: Optional[float] = None,
    delay_diagonal: bool = False,
) -> Trajectory:
    """Integrate the delayed dynamics by the method of steps.

    ``history`` is either a constant vector (held on [t0 - tau, t0]) or a
    DelayHistory covering that interval.  With delay_diagonal=True the
    instantaneous terms are delayed as well, i.e. dx/dt = A(t) x(t - tau);
    that variant exists to expose the destabilising effect of delaying the
    self terms and is not covered by the contraction theory.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    _check_horizon(schedule, t0, t1)
    hist = _coerce_history(history, tau, t0)
    n = schedule.n
    if hist.states.shape[1] != n:
        raise ValueError(
            f"history has {hist.states.shape[1]} components, schedule has {n}")
    h_target = min(_step_target(step, schedule, t1 - t0, n, tau), tau)
    _advise_on_step(h_target, schedule.bound)
    # Delayed reads clamp within the slack that _coerce_history grants, so
    # every history it accepts reads at t0 - tau and at t0.
    clamp_slack = _history_slack(tau, t0)

    def interp(queries, snap):
        return _hermite_many(queries, *snap, clamp_slack=clamp_slack)

    # One node grid: history samples first, then every computed node; the
    # trajectory is its part from the t0 node on.
    store = _NodeStore(n)
    for sample in zip(hist.times, hist.states, hist.derivs):
        store.append(*sample)
    x = interp([t0], store.view())[0]
    if abs(hist.times[-1] - t0) > 1e-12 * tau:
        d, u = _drives(evaluate_schedule(schedule, t0).entries[None],
                       interp([t0 - tau], store.view()), delay_diagonal)
        store.append(t0, x, d[0] * x + u[0])
    first = store.size - 1

    w0 = t0
    span_tiny = 1e-12 * max(1.0, abs(t1 - t0))
    while w0 < t1 - span_tiny:
        w1 = min(w0 + tau, t1)
        # The delayed reads of this window lie in [w0 - tau, w1 - tau], which
        # is computed already: one Hermite call reads them for all of its
        # pieces, and since each query row is computed on its own, the batch
        # changes no value.
        pieces, queries = [], []
        for a, b, i in _pieces(schedule, w0, w1):
            _, h, grid = _substeps(a, b, h_target)
            pieces.append((i, a, grid, h))
            queries += [np.concatenate(([a], grid)) - tau, (grid - 0.5 * h) - tau]
        # A last window too short for _pieces to resolve at t has no piece.
        if pieces:
            xd = interp(np.concatenate(queries), store.view())
            xd = np.split(xd, np.cumsum([len(q) for q in queries])[:-1])
        for k, (i, a, grid, h) in enumerate(pieces):
            x = _march(store, x, schedule, i, a, grid, h,
                       (xd[2 * k], xd[2 * k + 1], delay_diagonal))
        w0 = w1
    meta = {
        "method": "rk4-method-of-steps",
        "tau": tau,
        "delay_diagonal": delay_diagonal,
        "requested_step": step,
        "effective_step_target": h_target,
        "schedule_bound": schedule.bound,
    }
    return Trajectory(*(arr[first:] for arr in store.view()), meta=meta)


# --------------------------------------------------------------------------
# Series extracted from trajectories
# --------------------------------------------------------------------------

def spread_series(trajectory: Trajectory):
    """(times, max - min) at every stored node, as two read-only 1-d
    arrays; the values are the trajectory's cached spread."""
    return trajectory.times, trajectory.spread


def delayed_functional_series(trajectory: Trajectory, tau: float):
    """Sliding-window spread: max over [t - tau, t] minus min over it.

    Reported as (times, values) arrays for every stored node t with the
    full window inside the trajectory.  The window edge t - tau generally
    falls between grid nodes and is read by linear interpolation between
    the two nodes that bracket it.  That value is only O(h**2) accurate,
    where the trajectory's own Hermite interpolant is O(h**4), but it stays
    inside the hull of the two nodes, up to rounding.  A cubic read can
    overshoot both by far more, and the window then holds a value that the
    previous window did not: the functional grows on a run that contracts,
    and its audit fails.  The stored nodes of a window are reduced in O(1)
    amortised time by monotone deques over the row maxima and minima
    (Lemire, Nordic J. Computing 2006), which is exact because max and min
    do not round; a window with a NaN row or a NaN edge reads NaN, as
    ndarray.max over it does.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    times = trajectory.times
    states = trajectory.states
    tiny = 1e-12 * max(1.0, tau)
    first = int(np.searchsorted(times, times[0] + tau - tiny, side="left"))
    if first >= len(times):
        raise WindowNotCovered(
            f"trajectory spans {times[-1] - times[0]}, needs at least tau = {tau}")
    edge_q = np.maximum(times[first:] - tau, times[0])
    left = np.searchsorted(times[:-1], edge_q, side="right") - 1
    s = ((edge_q - times[left]) / (times[left + 1] - times[left]))[:, None]
    # An edge on a node is that node (0 * inf in the linear read is NaN).
    with np.errstate(invalid="ignore"):
        edge_states = np.where(s == 0.0, states[left],
                               (1.0 - s) * states[left] + s * states[left + 1])
    # Node i's window holds the stored nodes lo_idx[i - first] .. i.
    lo_idx = np.searchsorted(times, edge_q, side="left").tolist()
    row_max = states.max(axis=1).tolist()
    row_min = states.min(axis=1).tolist()
    edge_max = edge_states.max(axis=1).tolist()
    edge_min = edge_states.min(axis=1).tolist()
    # Node indices whose row maxima decrease (minima increase) from the
    # front; a NaN row stays out and is remembered by its index instead.
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
        # Python's max and min drop a NaN second argument, so a NaN edge is
        # caught here, with the NaN rows.
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
