"""Deterministic integration of coupled consensus dynamics.

simulate_ode advances dx/dt = A(t) x with the classical fixed-step
fourth-order Runge-Kutta scheme.  Step boundaries are aligned to the
schedule breakpoints, so no step ever straddles a coupling discontinuity,
and every internal step is stored (dense output).  Without a requested
step the target is h = 1/(20 M), M the schedule's bound on |a_kl(t)|, at
every size n, so the stored nodes of a run grow with M times its span, not
with n.  _step_target gives the reasons: h M <= 1 keeps the constant-piece
transfer non-negative and row-stochastic, 1/20 leaves a wide margin to
that and to the stability disc, and at n = 2 the rule is bitwise the
former 1/(10 n M).

simulate_dde handles the delayed variant

    dx/dt = diag(A(t)) x(t) + (A(t) - diag(A(t))) x(t - tau)

by the method of steps: the horizon is cut into windows of length tau, and
inside each window the delayed values are read by cubic Hermite
interpolation on one node grid: the constant history x0, one row at
t0 - tau, then the t0 node and every computed node; the returned
trajectory is that grid from t0 on.

Two paths step the pieces, and both write the nodes of a whole piece in
place, into times and states that each run allocates once.

An undelayed piece is linear, A(t) = c(t) B with c = 1 on a constant
piece, so one RK4 step is a matrix, x+ = Phi_j x, one gemv into the
node's row: ndarray.dot, the cblas_dgemv that np.matmul calls too, with
less overhead per call.  _transfers yields the Phi_j, on a constant
piece the one matrix _rk4_transfer, built for a block of constant pieces
as one stack (h shaped (p, 1, 1); each matmul of a stack is the gemm of
its own matrix), and _grids cuts every piece of a run into steps in one
call.  On a sinusoidal piece write
H = h B and c1, c2, c4 for the profile at the step's start, middle and
end (both middle stages read the middle).  The stages of one step from x
are
    h k1 = c1 H x
    h k2 = c2 H (x + h k1 / 2) = c2 H x + c1 c2 H^2 x / 2
    h k3 = c2 H (x + h k2 / 2) = c2 H x + c2^2 H^2 x / 2 + c1 c2^2 H^3 x / 4
    h k4 = c4 H (x + h k3)     = c4 H x + c2 c4 H^2 x + c2^2 c4 H^3 x / 2
                                 + c1 c2^2 c4 H^4 x / 4
and x+ = x + (h k1 + 2 h k2 + 2 h k3 + h k4) / 6 collects to
    Phi_j = I + a1 H + a2 H^2 + a3 H^3 + a4 H^4,
    a1 = (c1 + 4 c2 + c4) / 6,    a2 = c2 (c1 + c2 + c4) / 6,
    a3 = c2^2 (c1 + c4) / 12,     a4 = c1 c2^2 c4 / 24.
Every stage is a polynomial in the one matrix H applied to x, so this is
RK4 exactly, for any profile; only the rounding differs from the stage
form.  With c = 1 the a are 1, 1/2, 1/6, 1/24: the degree-4 Taylor
polynomial of exp(hB) that _rk4_transfer evaluates in Horner form.  B
has zero row sums, so Phi_j does too, plus the identity: its rows sum to
one.  For h M <= 1/2 (M the schedule bound) Phi_j is also non-negative:
with b = max|B_kk|, B = b (Q - I), Q >= 0, and s = h b, Phi_j is
sum_k p^(k)(-s) s^k Q^k / k! for p(z) = 1 + a1 z + ... + a4 z^4, and with
0 <= c <= C = 1 + |depth| and C s <= h M <= 1/2 each p^(k)(-s) is >= 0
(a1 >= 2 c2 / 3 outweighs 2 a2 s + 4 a4 s^3 <= c2 (1/2 + 1/48), a2
outweighs 3 a3 s, a3 outweighs 4 a4 s, and p(-s) >= 1 - C s - (C s)^3/6).
So each component of a new node is a convex combination of the
components of the one before, as on a constant piece.

A delayed piece is stepped by _march as one affine recurrence per
component.  Every delayed read of a tau-window lies in the window before
it, so the reads xd = x(t - tau), and with them the drives u = off(t) xd
at every stage time, are known before the window is stepped (the method
of steps: Bellen and Zennaro, Numerical Methods for Delay Differential
Equations, 2003).  The drives of many steps are one matmul, xd @ off.T; on
a sinusoidal piece d = c(t) diag(B) and u = c(t) (xd @ off_B.T).  Then the
stage f = d * y + u couples no two components, and each stage of a step
is affine in its state, k_i = p_i y + q_i, from the drives at the step's
start, middle and end (1, m, e):
    p1 = d1,                  q1 = u1,
    p2 = dm (1 + h p1 / 2),   q2 = dm h q1 / 2 + um,
    p3 = dm (1 + h p2 / 2),   q3 = dm h q2 / 2 + um,
    p4 = de (1 + h p3),       q4 = de h q3 + ue,
where k1 is the derivative stored at the step's first node, the (d, u)
at the end of the step before.  So y+ = r y + w with
r = 1 + h (p1 + 2 p2 + 2 p3 + p4) / 6 and w = h (q1 + 2 q2 + 2 q3 + q4) / 6
= W1 u1 + Wm um + We ue.  With z = h d, for constant d
    r  = R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    W1 = h/6 (1 + z + z^2/2 + z^3/4),   Wm = h/6 (4 + 2 z + z^2/2),
    We = h/6,
and for any profile W1 = h/6 (1 + zm + zm^2/2 + ze zm^2/4),
Wm = h/6 (4 + zm + ze (1 + zm/2)), We = h/6.  For h M <= 1 every z lies in
[-1, 0]; there r grows with each z (6 r has the partial derivatives
6 W1 / h >= 1/4 in z1, at least 1/2 in zm and 1 + h p3 >= 0 in ze), so
r lies in [R(-1), 1] = [0.375, 1], and W1 >= h/24, Wm >= 5h/12.  off has
row sums -d, so a constant state is a fixed point,
r + W1 |d1| + Wm |dm| + We |de| = 1, and y+ is a convex combination of y
and the reads.  With delay_diagonal d = 0: r = 1, w = h (u1 + 4 um + ue) / 6.

_scan solves y_j+1 = r_j y_j + w_j by a Hillis-Steele doubling scan
(Blelloch, "Prefix sums and their applications", CMU-CS-90-190, 1990) in
ceil(log2 L) levels of numpy calls on (L, n) arrays.  _march takes the
drives, (r, w), the scan and the stored derivatives de * y + ue a chunk
of L <= _SCAN_ROWS steps at a time, carrying the last state, so no Python
loop runs per step and no temporary grows with the piece.

The kernel rounds otherwise than the RK4 stage loop (brute_march in the
tests); the two differ by at most C eps X, with the terms below in units
of eps, h M <= 1 and X bounding |x| on the run (the history is x0, with
derivatives 0).  A read adds at most h/4 times a stored
derivative, which is at most 2 M times the reads, so the reads stay within
X^ = 2 X.
  - Per step, each route errs by (1 + h M (4 n + 64)) X^ at most: the
    stage loop's four stages d * v + off xd, n + 2 roundings each on at
    most 5.5 M X^, and its weighted sum; the kernel's drives (n + 1
    roundings) and its expressions of r and w, at most 12 deep on terms
    whose sizes add up to 2 h M X^; and the reads, two Hermite
    evaluations of 12 roundings on inputs that differ.
  - Per scan chunk of L steps, l = ceil(log2 L): each term of a state
    passes the fold (2 roundings) and per level one product, one sum and
    the log2 s roundings of the a it is multiplied by, so k = 2 +
    l (l + 3) / 2 in all, and the chunk errs by k/2 (1 + S) X^: S = 1 on
    coupling-delayed pieces, where the products of r weight the |w| to at
    most X^, and S = 2 h M L with delay_diagonal, where r = 1 and
    |w| <= 2 h M X^.
  - Within a window errors do not grow: each step is a convex combination
    (or, with delay_diagonal, adds h/6 A times fixed reads).  A Hermite
    read is a combination of its two nodes and their stored derivatives
    d y + off xd, whose coefficients sum in absolute value to
    1 + 2 h |d| s^2 (1 - s) <= g = 1 + 8 h M / 27: the growth from one
    window to the next.  With delay_diagonal the reads grow errors by at
    most 1 + h M / 2, and a window of length T adds h |A| <= 2 h M of them
    per step: g = 1 + 2 M T (1 + h M / 2).
C is the product of the g over the windows times the sum of the other
terms over the steps and chunks.

A trajectory is its times and states, and the delay of its run.  The
solution has corners at coupling discontinuities, but each interval
[t_k, t_k+1] between nodes lies inside one schedule piece i, whose grid
ends on its breakpoints, so on an undelayed run both derivatives of a
Hermite read of the interval come from that piece: A_i(t_k) x_k and
A_i(t_k+1) x_k+1.  interpolate_state finds i by bisection at the
midpoint, for a whole array of times at once.  A delayed derivative
d x + off x(t - tau) needs the history, so simulate_dde keeps both
one-sided derivatives of its nodes for its own reads only.
"""

from __future__ import annotations

import bisect
import functools
import os
import warnings
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    HistoryGap,
    InvalidSpec,
    NonFiniteState,
    OutOfHorizon,
    StepTooLargeWarning,
    WindowNotCovered,
)
from .metzler_core import CouplingSchedule, _locate_piece


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense integrator output: states on a strictly increasing grid, and
    the delay of the run: tau (None for an undelayed run) and whether the
    self terms were delayed too."""

    times: np.ndarray
    states: np.ndarray
    tau: Optional[float] = None
    delay_diagonal: bool = False

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-d and states 2-d")
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths disagree")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        for arr in (self.times, self.states):
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
                 span: float, tau: Optional[float] = None) -> float:
    """The requested step, or a default derived from the schedule bound
    (and the delay, for delayed runs).

    The default is h = 1/(20 M), M = schedule.bound = max|a_kl(t)|, whatever
    the size n.  With zero row sums M bounds the diagonal too, so
    A = M (Q - I) with Q >= 0, and h M = 1/20:
      - is far inside h M <= 1, where the degree-4 Taylor polynomial of
        exp(hA), the constant-piece transfer, is non-negative with unit row
        sums (its threshold factor is 1: Kraaijevanger, BIT 31, 1991);
      - is far inside the disc bound _RK4_DISC_RADIUS / M;
      - at n = 2 is bitwise the former 1/(10 n M), since 10.0 * 2 == 20.0.
    Half as fine, 1/(10 M), misses the 1e-6 bound of the closed-form chain
    test.  A delayed run also takes tau/20, and a schedule with M = 0 takes
    span/100.
    """
    if step is not None:
        if not (step > 0.0):
            raise ValueError(f"step must be positive, got {step!r}")
        return float(step)
    candidates = []
    if schedule.bound > 0.0:
        candidates.append(1.0 / (20.0 * schedule.bound))
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


def _require_memory(count: float, item_bytes: int, cause: str, items: str,
                    error: Callable[[str], Exception] = InvalidSpec):
    """error(message) unless count items of item_bytes each fit in physical
    memory.  Checked before any loop or allocation, so an input that could
    never run is refused at once instead of failing in numpy or looping for
    ever; count may be inf, which is refused too."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not count * item_bytes <= memory:
        raise error(f"{cause} needs about {count:.3g} {items}; physical "
                    f"memory holds {memory // item_bytes} of them")


def _resolution(t: float) -> float:
    """The shortest interval that _pieces keeps as a piece ending at t,
    1e-15 max(1, |t|): at least 4.5 ulps of t, so that no piece is the
    rounding residue of a breakpoint."""
    return 1e-15 * max(1.0, abs(t))


def _plan_step(schedule: CouplingSchedule, t0: float, t1: float,
               step: Optional[float] = None,
               tau: Optional[float] = None) -> float:
    """The step target of a run over [t0, t1], at most tau on a delayed
    run; InvalidSpec unless its about (t1 - t0) / h nodes fit in physical
    memory: a time and a state each, and on a delayed run both one-sided
    derivatives too (h <= tau, so this bounds the tau-windows as well).
    Both simulators and the check command call it first.

    InvalidSpec too when the step, or the span if shorter, is at or below
    _resolution of the run's largest time, max(|t0|, |t1|): a piece that
    short ending there is dropped by _pieces, and steps and tau-windows
    that short round to a few ulps of their times, or to none: w + tau
    may equal w.  Above it the step and tau exceed 4.5 ulps of every time
    of the run, so each window advances and the nodes stay distinct."""
    span, n = t1 - t0, schedule.n
    h = _step_target(step, schedule, span, tau)
    row_bytes = 8 * (n + 1)
    if tau is not None:
        h, row_bytes = min(h, tau), 8 * (3 * n + 1)
    _require_memory(span / h, row_bytes,
                    f"step {h!r} over a span of {span!r}", "nodes")
    resolution = _resolution(max(abs(t0), abs(t1)))
    if not min(h, span) > resolution:
        raise InvalidSpec(
            f"step {min(h, span)!r} over [{t0!r}, {t1!r}] is at or below "
            f"{resolution!r}, the shortest piece resolved at those times")
    return h


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
        if b - a > _resolution(b):
            yield a, b, i


def _check_horizon(schedule: CouplingSchedule, t0: float, t1: float):
    if not (t1 > t0):
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    s0, s1 = schedule.horizon
    edge = 1e-9 * max(1.0, abs(s0), abs(s1))
    if t0 < s0 - edge or t1 > s1 + edge:
        raise OutOfHorizon(
            f"integration horizon [{t0}, {t1}] outside schedule horizon [{s0}, {s1}]")


def _rk4_transfer(A: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step for constant A equals the degree-4 Taylor
    polynomial of exp(hA); evaluated in Horner form.  A may be a (p, n, n)
    stack with h of shape (p, 1, 1): each matmul of the stack is the gemm
    of its matrix alone, so each transfer has the bits of its own call."""
    eye = np.eye(A.shape[-1])
    hA = h * A
    phi = eye + hA / 4.0
    phi = eye + (hA / 3.0) @ phi
    phi = eye + (hA / 2.0) @ phi
    return eye + hA @ phi


def _grids(a: np.ndarray, b: np.ndarray, h_target: float):
    """Cut every piece [a_i, b_i] into m_i = ceil((b_i - a_i) / h_target)
    equal steps (at least one, and none for a rounding residue past a
    whole number): (m, h, grid), with grid the step ends a_i + h_i j of
    the pieces one after the other, each piece's last exactly its b_i.
    Each step end is computed in place on one run-long array, with one
    other array of that length alive at a time."""
    m = np.maximum(np.ceil((b - a) / h_target - 1e-9), 1.0).astype(np.int64)
    h = (b - a) / m
    stop = np.cumsum(m)
    # j, the number of each step within its piece, 1 .. m_i.
    j = np.arange(1, m.sum() + 1)
    j -= np.repeat(stop - m, m)
    grid = np.repeat(h, m)
    grid *= j
    del j
    grid += np.repeat(a, m)
    grid[stop - 1] = b
    return m, h, grid


# _march steps at most this many steps at a time, carrying the last state
# from one chunk to the next, so its temporaries keep one size however long
# a piece is.
_SCAN_ROWS = 2 ** 8


def _drives(schedule: CouplingSchedule, piece: int, times, xd: np.ndarray,
            delay_diagonal: bool):
    """(d, u) of the delayed stage f = d * y + u at times on piece, for the
    delayed inputs xd (one row per time): d = c diag(B) and u = c off xd
    with c = c(t) and off = B - diag(B), or d = 0 and off = B with
    delay_diagonal.  The drives of all the times are one matmul,
    xd @ off.T; c is exactly 1.0 on a constant piece."""
    B = schedule.couplings[piece]
    d = np.zeros(len(B)) if delay_diagonal else B.diagonal()
    u = xd @ (B - np.diag(d)).T
    c = schedule.profile(piece, times)[:, None]
    u *= c
    return c * d, u


def _affine_steps(d1, dm, de, u1, um, ue, h: float):
    """(r, w) of y+ = r * y + w, the RK4 steps of y' = d * y + u from the
    drives at every step's start (d1, u1), middle (dm, um) and end (de, ue):
    each stage is k_i = p_i y + q_i (module docstring)."""
    half, sixth = 0.5 * h, h / 6.0
    p2 = dm * (1.0 + half * d1)
    p3 = dm * (1.0 + half * p2)
    p4 = de * (1.0 + h * p3)
    q2 = dm * (half * u1) + um
    q3 = dm * (half * q2) + um
    q4 = de * (h * q3) + ue
    r = 1.0 + sixth * (((d1 + 2.0 * p2) + 2.0 * p3) + p4)
    w = sixth * (((u1 + 2.0 * q2) + 2.0 * q3) + q4)
    return r, w


def _scan(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y_j+1 = a_j y_j + b_j from y_0 = y, in place: b holds the states on
    return and a is spent.  y folds into b_0, and level s composes each
    step's map with the one s steps before it,
    (a, b)_k <- (a_k a_k-s, a_k b_k-s + b_k).  Returns the last state."""
    b[0] += a[0] * y
    s = 1
    while s < len(b):
        b[s:] += a[s:] * b[:-s]
        # numpy reads the overlapping operands as they were before.
        a[s:] *= a[:-s]
        s *= 2
    return b[-1]


def _march(x: np.ndarray, schedule: CouplingSchedule, piece: int, a: float,
           grid: np.ndarray, h: float, xd: np.ndarray, delay_diagonal: bool,
           nodes) -> np.ndarray:
    """Classical RK4 of a delayed piece from (a, x) through grid; node 0 is
    a and node i + 1 is grid[i].

    xd holds x(t - tau) at the m + 1 nodes, then half a step before each of
    the last m.  nodes is (dx, xs, dr), written in place: the derivative to
    the right of node 0 and the states and derivatives of the nodes of
    grid.  A node's stored derivative is k1 of the step that leaves it
    (module docstring)."""
    dx, xs, dr = nodes
    m = len(grid)
    node_t = np.concatenate(([a], grid))
    times = np.concatenate((node_t, node_t[:-1] + 0.5 * h))
    # Past the stability disc the states may overflow; _require_finite
    # reports that, typed, at the end of the piece.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, _SCAN_ROWS):
            k = min(_SCAN_ROWS, m - lo)
            rows = np.r_[lo:lo + k + 1, m + 1 + lo:m + 1 + lo + k]
            d, u = _drives(schedule, piece, times[rows], xd[rows],
                           delay_diagonal)
            if not lo:
                dx[:] = d[0] * x + u[0]
            steps = slice(lo, lo + k)
            r, xs[steps] = _affine_steps(d[:k], d[k + 1:], d[1:k + 1], u[:k],
                                         u[k + 1:], u[1:k + 1], h)
            x = _scan(r, xs[steps], x)
            np.multiply(d[1:k + 1], xs[steps], out=dr[steps])
            dr[steps] += u[1:k + 1]
    return x


# Transfer stacks are built for at most this many matrix entries at a time
# (and never less than one matrix): the transfers of a block of steps of a
# sinusoidal piece, or the one transfer of each of a block of constant
# pieces, so a long run holds a block of its transfer matrices, not all of
# them, at once.
_BLOCK_ENTRIES = 2 ** 12


def _wave_transfers(schedule: CouplingSchedule, piece: int, a: float,
                    grid: np.ndarray, h: float):
    """Yield blocks of the transfers Phi_j of a sinusoidal piece from a
    through grid (module docstring).  The powers of H = h B come once, by
    2-d matmul; a block of steps at a time, the profile, the a and the Phi_j
    come from broadcast ufuncs, the Phi_j summed from the left, so each has
    the bits of a build on its own; no gemm across the steps."""
    B = schedule.couplings[piece]
    H = h * B
    powers = [H]
    for _ in range(3):
        powers.append(powers[-1] @ H)
    eye = np.eye(len(B))
    node_t = np.concatenate(([a], grid))
    m = len(grid)
    size = max(1, _BLOCK_ENTRIES // B.size)
    for lo in range(0, m, size):
        hi = min(lo + size, m)
        c = schedule.profile(piece, node_t[lo:hi + 1])
        c1, c4 = c[:-1], c[1:]
        c2 = schedule.profile(piece, node_t[lo:hi] + 0.5 * h)
        alphas = ((c1 + 4.0 * c2 + c4) / 6.0, c2 * (c1 + c2 + c4) / 6.0,
                  c2 * c2 * (c1 + c4) / 12.0, c1 * c2 * c2 * c4 / 24.0)
        phi = eye
        for alpha, power in zip(alphas, powers):
            phi = phi + alpha[:, None, None] * power
        yield phi


def _transfers(schedule: CouplingSchedule, pieces, a, m, h, grid):
    """Yield, for each piece of an undelayed run in turn, the transfers
    Phi_j of its m steps of h from a through its part of grid (module
    docstring).  A block of pieces at a time, the one _rk4_transfer of
    each constant piece comes from one stack, h shaped (p, 1, 1); a
    sinusoidal piece takes _wave_transfers."""
    fixed = schedule.constant[pieces]
    stop = np.cumsum(m).tolist()
    size = max(1, _BLOCK_ENTRIES // schedule.couplings[0].size)
    for lo in range(0, len(pieces), size):
        block = np.arange(lo, min(lo + size, len(pieces)))
        held = block[fixed[block]]
        phis = iter(_rk4_transfer(schedule.couplings[pieces[held]],
                                  h[held, None, None]))
        for j in block.tolist():
            if fixed[j]:
                yield repeat(next(phis), m[j])
            else:
                yield chain.from_iterable(_wave_transfers(
                    schedule, pieces[j], a[j], grid[stop[j] - m[j]:stop[j]],
                    h[j]))


def _require_finite(x: np.ndarray, t: float, h: float, bound: float):
    """NonFiniteState unless x is finite.  No linear step turns inf or NaN
    finite again, so the last state of a piece speaks for all its nodes."""
    if not np.isfinite(x).all():
        raise NonFiniteState(float(t), f"step {h!r}, h M = {h * bound!r}")


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
    identical inputs give identical output arrays.  Raises NonFiniteState
    at the end of the first piece whose last state is not finite.
    """
    _check_horizon(schedule, t0, t1)
    x = np.array(x0, dtype=float)
    n = schedule.n
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    h_target = _plan_step(schedule, t0, t1, step)
    _advise_on_step(h_target, schedule.bound)

    a, b, pieces = np.array(list(_pieces(schedule, t0, t1))).reshape(-1, 3).T
    pieces = pieces.astype(np.intp)
    m, h, grid = _grids(a, b, h_target)
    # t0 and every step's end, allocated once; grid becomes a view of them.
    times = np.concatenate(([t0], grid))
    grid = times[1:]
    states = np.empty((len(times), n))
    states[0], k = x, 1
    steps = zip(_transfers(schedule, pieces, a, m, h, grid), m.tolist(),
                h.tolist())
    for transfers, m_j, h_j in steps:
        # The gemv of phi @ x, written straight into its row.
        for phi, row in zip(transfers, states[k:k + m_j]):
            x = phi.dot(x, out=row)
        k += m_j
        _require_finite(x, times[k - 1], h_j, schedule.bound)
    return Trajectory(times, states)


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
    this way where a delayed read passes its last stored node."""
    q = np.asarray(queries, dtype=float)
    lo, hi = times[0], times[-1]
    if np.any(q < lo - clamp_slack) or np.any(q > hi + clamp_slack):
        raise HistoryGap(
            f"query range [{q.min()}, {q.max()}] outside stored grid [{lo}, {hi}]")
    q = np.clip(q, lo, hi)
    idx = np.searchsorted(times, q, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 2)
    w00, w10, w01, w11 = _hermite_weights(q, times[idx], times[idx + 1])
    return (w00 * states[idx] + w10 * derivs_right[idx]
            + w01 * states[idx + 1] + w11 * derivs_left[idx + 1])


def _hermite_weights(q, t0, t1):
    """The weights of the cubic Hermite interpolant at each time of q inside
    [t0, t1], as columns: of the state and the derivative at t0, then of
    those at t1."""
    h = t1 - t0
    s = (q - t0) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00[:, None], (h10 * h)[:, None], h01[:, None], (h11 * h)[:, None]


def interpolate_state(schedule: CouplingSchedule, trajectory: Trajectory,
                      t) -> np.ndarray:
    """State at time t of an undelayed run of schedule (ValueError on a
    delayed one), by cubic Hermite interpolation on the grid interval that
    holds t, with the derivatives of its piece (module docstring).  For a
    1-d array of times, one row per time, each with the bits of a call
    for its time alone: every step is computed row by row, the derivatives
    by one stacked matmul, which makes the gemv of each row's own call."""
    if trajectory.tau is not None:
        raise ValueError("interpolate_state reads undelayed runs only")
    times, states = trajectory.times, trajectory.states
    q = np.asarray(t, dtype=float)
    probes = q.reshape(-1)
    k = np.clip(np.searchsorted(times, probes, side="right") - 1, 0,
                len(times) - 2)
    lo, hi = times[k], times[k + 1]
    slack = 1e-12 * max(1.0, trajectory.t_end - trajectory.t_start)
    gap = (probes < lo - slack) | (probes > hi + slack)
    if gap.any():
        j = int(np.argmax(gap))
        raise HistoryGap(f"query range [{probes[j]}, {probes[j]}] outside "
                         f"stored grid [{lo[j]}, {hi[j]}]")
    nodes = np.stack((k, k + 1), axis=1)
    A = schedule.entries_over(_locate_piece(schedule, 0.5 * (lo + hi)),
                              times[nodes])
    # slopes[:, 0] is read as the right derivative at k, slopes[:, 1] as
    # the left one at k + 1.
    slopes = np.matmul(A, states[nodes][..., None])[..., 0]
    w00, w10, w01, w11 = _hermite_weights(np.clip(probes, lo, hi), lo, hi)
    x = (w00 * states[k] + w10 * slopes[:, 0]
         + w01 * states[k + 1] + w11 * slopes[:, 1])
    return x if q.ndim else x[0]


# --------------------------------------------------------------------------
# Delayed dynamics
# --------------------------------------------------------------------------

def simulate_dde(
    schedule: CouplingSchedule,
    tau: float,
    x0: Sequence,
    t0: float,
    t1: float,
    step: Optional[float] = None,
    delay_diagonal: bool = False,
) -> Trajectory:
    """Integrate the delayed dynamics by the method of steps from the
    constant history x(s) = x0 on [t0 - tau, t0].

    With delay_diagonal=True the instantaneous terms are delayed as well,
    i.e. dx/dt = A(t) x(t - tau); that variant exists to expose the
    destabilising effect of delaying the self terms and is not covered by
    the contraction theory.  Returns times and states from t0 on; raises
    NonFiniteState as simulate_ode does.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    _check_horizon(schedule, t0, t1)
    x = np.array(x0, dtype=float)
    n = schedule.n
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    h_target = _plan_step(schedule, t0, t1, step, tau)
    _advise_on_step(h_target, schedule.bound)
    # A read at fl(a - tau) may pass the last stored node, by a rounding or
    # by a piece too short for _pieces at a window's end; it reads that node.
    clamp_slack = 2.0 * _resolution(max(abs(t0), abs(t1)))

    def interp(queries, snap):
        return _hermite_many(queries, *snap, clamp_slack=clamp_slack)

    # One node grid: the t0 node and every computed node, whose times and
    # states are the trajectory.  Every window's pieces are known before
    # stepping, so their steps are cut in one _grids call, whose step ends
    # are the node times, and the nodes are allocated once, with both
    # one-sided derivatives for the reads.  A last window too short for
    # _pieces to resolve at t has no piece.
    cuts, counts, w0 = [], [], t0
    span_tiny = 1e-12 * max(1.0, abs(t1 - t0))
    while w0 < t1 - span_tiny:
        w1 = min(w0 + tau, t1)
        pieces = list(_pieces(schedule, w0, w1))
        cuts += pieces
        counts.append(len(pieces))
        w0 = w1
    cuts = np.array(cuts).reshape(-1, 3)
    m, h, times = _grids(cuts[:, 0], cuts[:, 1], h_target)
    times = np.concatenate(([t0], times))
    size = len(times)
    states, right, left = (np.empty((size, n)) for _ in range(3))
    # The history is one row, x0 at t0 - tau with both derivatives 0; the t0
    # node holds x0 with a left derivative of 0, and _march writes its right.
    zero = np.zeros((1, n))
    history = (np.array([t0 - tau]), x[None], zero, zero)
    states[0], left[0] = x, 0.0
    # Per piece: its schedule piece, start, step and rows of the node grid.
    stops = 1 + np.cumsum(m)
    steps = zip(cuts[:, 2].astype(np.intp).tolist(), cuts[:, 0].tolist(),
                h.tolist(), map(slice, (stops - m).tolist(), stops.tolist()))

    for count in counts:
        pieces = list(islice(steps, count))
        if not pieces:
            continue
        # The delayed reads of this window lie in [w0 - tau, w1 - tau], which
        # is computed already: one Hermite call reads them for all of its
        # pieces, and since each query row is computed on its own, the batch
        # changes no value.  The history joins the grid for reads before t0.
        queries = [np.concatenate(([a], times[rows], times[rows] - 0.5 * h))
                   - tau for _, a, h, rows in pieces]
        k = pieces[0][3].start
        known = [arr[:k] for arr in (times, states, right, left)]
        if queries[0][0] < t0:
            known = [np.concatenate(pair) for pair in zip(history, known)]
        xd = interp(np.concatenate(queries), known)
        xd = np.split(xd, np.cumsum([len(q) for q in queries])[:-1])
        for (i, a, h, rows), reads in zip(pieces, xd):
            x = _march(x, schedule, i, a, times[rows], h, reads,
                       delay_diagonal,
                       (right[rows.start - 1], states[rows], right[rows]))
            left[rows] = right[rows]
            _require_finite(x, times[rows.stop - 1], h, schedule.bound)
    return Trajectory(times, states, tau=tau, delay_diagonal=delay_diagonal)


# --------------------------------------------------------------------------
# Series extracted from trajectories
# --------------------------------------------------------------------------

def spread_series(trajectory: Trajectory):
    """(times, max - min) at every stored node, as two read-only 1-d
    arrays; the values are the trajectory's cached spread."""
    return trajectory.times, trajectory.spread


def _window_extremes(row_max: np.ndarray, row_min: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray):
    """Max of row_max and min of row_min over rows lo[j]..hi[j], inclusive,
    for every j, by a sparse table (Bender and Farach-Colton, LATIN 2000):
    level k holds the extremes of 2^k consecutive rows, and a window of L
    rows is the two level-floor(log2 L) blocks that start and end it,
    which may overlap, as max and min do not mind.  One level is held at a
    time, and the windows of each level are read while it is.  np.maximum
    and np.minimum pass a NaN on, so a window with a NaN row reads NaN.
    Of extremes that compare equal only 0.0 and -0.0 differ in their bits;
    an extreme of 0 takes the sign of the latest zero row up to hi[j],
    which lies in the window, as a monotone deque that drops the earlier
    of equal values would give."""
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(L)), exact
    top, bottom = np.empty(len(lo)), np.empty(len(lo))
    tops, bottoms = row_max, row_min
    for k in range(int(level.max()) + 1):
        if k:
            half = 1 << (k - 1)
            tops = np.maximum(tops[:-half], tops[half:])
            bottoms = np.minimum(bottoms[:-half], bottoms[half:])
        at = level == k
        starts, ends = lo[at], hi[at] - (1 << k) + 1
        top[at] = np.maximum(tops[starts], tops[ends])
        bottom[at] = np.minimum(bottoms[starts], bottoms[ends])
    rows = np.arange(len(row_max))
    for extreme, values in ((top, row_max), (bottom, row_min)):
        latest = np.maximum.accumulate(np.where(values == 0.0, rows, -1))
        zero = extreme == 0.0
        extreme[zero] = values[latest[hi[zero]]]
    return top, bottom


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
    and its audit fails.  The stored nodes of a window are reduced by
    _window_extremes, exactly, because max and min do not round, and the
    edge joins them as Python's max and min would join it: it wins only
    when strictly beyond.  A window with a NaN row or a NaN edge reads NaN,
    as ndarray.max over it does.
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
    with np.errstate(invalid="ignore"):
        # An edge on a node is that node (0 * inf in the linear read is NaN).
        edge_states = np.where(s == 0.0, states[left],
                               (1.0 - s) * states[left] + s * states[left + 1])
        # Node first + j's window holds the stored nodes from the first
        # at or after its edge up to itself.
        top, bottom = _window_extremes(
            states.max(axis=1), states.min(axis=1),
            np.searchsorted(times, edge_q, side="left"),
            np.arange(first, len(times)))
        edge_max, edge_min = edge_states.max(axis=1), edge_states.min(axis=1)
        top = np.where(edge_max > top, edge_max, top)
        bottom = np.where(edge_min < bottom, edge_min, bottom)
        values = top - bottom
    values[np.isnan(top) | np.isnan(edge_max)] = np.nan
    return times[first:], values
