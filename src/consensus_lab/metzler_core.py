"""Coupling matrices, piecewise coupling schedules, and window integrals.

The basic object is an n-by-n real matrix with non-negative off-diagonal
entries whose rows sum to zero: row k holds the rates at which component k is
attracted towards the others, and the diagonal entry balances the row.
validate_coupling_matrix and from_offdiagonal check one such matrix or a
(k, n, n) stack of them in one pass and return it as a read-only array: a
coupling is an array that passed the check, not a type of its own.  A
schedule is a bounded piecewise map t -> A(t), right-continuous at its
breakpoints.
Each piece is a fixed coupling B times a scalar profile: c = 1 on a
constant piece, c(t) = 1 + d sin(2 pi t / P) on a sinusoidal one, so
A(t) = c(t) B, and a schedule holds its pieces as arrays: the breakpoints,
one read-only (k, n, n) stack of the couplings B and the profile
parameters.  schedule_from_arrays is its one constructor: it takes those
arrays, checks the stack once and keeps it without a copy; build_schedule
stacks a list of (start, end, coupling) segments for it, and a stack
checked as it was made is built by _schedule, which does not check it
again.  Window
integrals of a schedule are the raw material for the connectivity and
contraction analyses elsewhere in the package; a piece adds B times the
integral of its profile, which is closed form.  integrate_windows builds
them as one (w, n, n) stack, walking all windows through the schedule
pieces together and validating the stack in one pass; integrate_schedule is
its one-window case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    InvalidSpec,
    NegativeOffDiagonal,
    NegativeWeight,
    NonFiniteEntry,
    OutOfHorizon,
    RowSumViolation,
    ScheduleError,
)

DEFAULT_ROW_TOL = 1e-12


def _as_matrices(entries, ndims=(2, 3)) -> np.ndarray:
    """entries as a float array, not copied when they already are one: one
    square matrix, or a (k, n, n) stack when 3 is among ndims."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim not in ndims or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[-1] < 1:
        raise ValueError("matrix must have at least one row")
    return arr


def _max_abs(stack: np.ndarray) -> np.ndarray:
    """max|B| of each B of a stack, to the bit, as |max(max B, -min B)|:
    no stack-sized temporary |B|."""
    return np.abs(np.maximum(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2))))


def _check(stack: np.ndarray, tol: float = DEFAULT_ROW_TOL) -> None:
    """Raise the first fault of a (k, n, n) stack, if it has one: the error
    that checking its matrices one at a time would raise first.

    A matrix has a fault when it has a NaN or infinite entry
    (NonFiniteEntry), a negative off-diagonal entry (NegativeOffDiagonal;
    both with 1-based indices, the first in row-major order) or a row sum
    beyond tol times max(1, max|entry|) (RowSumViolation, on the worst
    row), scaled up for large entries so that the check stays meaningful
    after long-window integration.  Non-finite entries come first: no
    comparison sees a NaN, and an infinity would make the row tolerance
    infinite.
    """
    with np.errstate(all="ignore"):
        nonfinite = ~np.isfinite(stack)
        negative = (stack < 0.0) & ~np.eye(stack.shape[-1], dtype=bool)
        sums = stack.sum(axis=2)
        row_tol = tol * np.maximum(1.0, _max_abs(stack))
        over = np.abs(sums) > row_tol[:, None]
    faulty = (nonfinite | negative).any(axis=(1, 2)) | over.any(axis=1)
    if not faulty.any():
        return
    i = int(np.argmax(faulty))
    for mask, error in ((nonfinite[i], NonFiniteEntry),
                        (negative[i], NegativeOffDiagonal)):
        if mask.any():
            k, l = np.argwhere(mask)[0].tolist()
            raise error(k + 1, l + 1, float(stack[i, k, l]))
    worst = int(np.argmax(np.abs(sums[i])))
    raise RowSumViolation(worst + 1, float(sums[i, worst]))


def validate_coupling_matrix(entries) -> np.ndarray:
    """Check the sign pattern and row sums of one matrix or of a (k, n, n)
    stack; return a read-only copy of the entries.

    Raises NonFiniteEntry, NegativeOffDiagonal or RowSumViolation (see
    _check); a stack raises what checking its matrices one at a time would.
    The diagonal is implied: once off-diagonal entries are non-negative and
    rows sum to zero, a_kk equals minus the off-diagonal row sum.
    """
    arr = _as_matrices(np.array(entries, dtype=float))
    _check(arr.reshape((-1,) + arr.shape[-2:]))
    arr.setflags(write=False)
    return arr


def _fill_diagonal(stack: np.ndarray) -> np.ndarray:
    """Set each diagonal of a (k, n, n) stack, in place, to minus the sum of
    the rest of its row, so that rows sum to zero by construction; return
    the stack."""
    diag = np.arange(stack.shape[-1])
    stack[:, diag, diag] = 0.0
    with np.errstate(all="ignore"):
        stack[:, diag, diag] = -stack.sum(axis=2)
    return stack


def from_offdiagonal(weights) -> np.ndarray:
    """Build a coupling matrix, or a (k, n, n) stack of them, from
    non-negative off-diagonal weights; the result is read-only.

    The input diagonal must be zero; the output diagonal is set to minus the
    off-diagonal row sum, so row sums vanish by construction.  As in
    validate_coupling_matrix, a stack raises what building its matrices one
    at a time would.
    """
    # The one copy of the weights, which becomes the couplings.
    arr = np.array(weights, dtype=float)
    out = _as_matrices(arr).reshape((-1,) + arr.shape[-2:])
    diag = np.arange(out.shape[-1])
    bad_diagonal = (out[:, diag, diag] != 0.0).any(axis=1)
    fault = bad_diagonal | (out < 0.0).any(axis=(1, 2))
    first = int(np.argmax(fault)) if fault.any() else len(out)
    if first < len(out) and not bad_diagonal[first]:
        k, l = np.argwhere(out[first] < 0.0)[0].tolist()
        negative = NegativeWeight(
            f"weight ({k + 1},{l + 1}) = {float(out[first, k, l])!r} is negative")
    _check(_fill_diagonal(out)[:first])
    if first < len(out):
        raise (ValueError("diagonal of the weight matrix must be zero")
               if bad_diagonal[first] else negative)
    out = out.reshape(arr.shape)
    out.setflags(write=False)
    return out


def _check_profile(depth, period) -> None:
    """InvalidSpec unless |depth| <= 1 and period > 0, so that c(t) >= 0."""
    if not (abs(depth) <= 1.0):
        raise InvalidSpec(f"depth must lie in [-1, 1], got {depth!r}")
    if not (period > 0.0):
        raise InvalidSpec(f"period must be positive, got {period!r}")


def _peak(couplings: np.ndarray, depths) -> float:
    """The largest (1 + |depth|) max|B| of a stack, which bounds its
    entries over every profile; InvalidSpec unless it is finite."""
    with np.errstate(over="ignore"):
        bound = float(((1.0 + np.abs(depths)) * _max_abs(couplings)).max())
    if not math.isfinite(bound):
        raise InvalidSpec(f"entries reach {bound} at the profile peak")
    return bound


class SinusoidalCoupling:
    """Fixed coupling B scaled by the profile c(t) = 1 + depth sin(2 pi t / period).

    B is built from non-negative off-diagonal base weights by
    from_offdiagonal, which checks them.  |depth| may not exceed 1, so
    c(t) >= 0 and every A(t) is a valid coupling matrix; (1 + |depth|) max|B|
    bounds its entries and is attained on any piece that spans a period.
    """

    def __init__(self, base_offdiagonal, depth: float, period: float):
        base = _as_matrices(base_offdiagonal, (2,))
        _check_profile(depth, period)
        self.coupling = from_offdiagonal(base)
        self.depth, self.period = float(depth), float(period)
        self.bound = _peak(self.coupling[None], self.depth)


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Piecewise coupling map t -> A(t), right-continuous at breakpoints.

    Piece i is active on [starts[i], ends[i]) with A(t) = c_i(t) B_i, where
    B_i = couplings[i] and c_i(t) = 1 + depths[i] sin(2 pi t / periods[i]).
    ``constant`` marks the pieces given as constant matrices; they carry
    depth 0 and period 1, so c = 1 there.  Every array is read-only.
    ``bound`` is the uniform bound on |a_kl(t)|: the largest of max|B| on
    constant pieces and (1 + |depth|) max|B| on sinusoidal ones.
    """

    starts: np.ndarray
    ends: np.ndarray
    couplings: np.ndarray
    depths: np.ndarray
    periods: np.ndarray
    constant: np.ndarray
    bound: float

    def __post_init__(self):
        for arr in (self.starts, self.ends, self.couplings, self.depths,
                    self.periods, self.constant):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.couplings.shape[-1]

    @property
    def t_start(self) -> float:
        return float(self.starts[0])

    @property
    def t_end(self) -> float:
        return float(self.ends[-1])

    @property
    def horizon(self) -> tuple:
        return (self.t_start, self.t_end)

    def profile(self, i, times) -> np.ndarray:
        """c_i(t) for every t in times: exactly 1.0 on a constant piece,
        whose depth is 0.  i may also be an array of pieces, one for each
        row of times."""
        if not isinstance(i, (int, np.integer)):
            i = np.asarray(i)[:, None]
        return 1.0 + self.depths[i] * np.sin(
            2.0 * math.pi * np.asarray(times, dtype=float) / self.periods[i])

    def entries_over(self, i, times) -> np.ndarray:
        """A(t) of piece i for every t in times, as a (len(times), n, n)
        stack: a read-only broadcast of B on a constant piece.  On a
        sinusoidal piece each scale is profile(i, t), and each diagonal is
        minus the row sum of the scaled off-diagonal entries, not
        scale * B_kk, so each row sums to zero up to that one sum.  With an
        array of pieces, one for each row of times, the stack is
        times.shape + (n, n), each matrix with the bits of a call for its
        piece alone."""
        B = self.couplings[i]
        fixed = self.constant[i]
        if np.all(fixed):
            return np.broadcast_to(B[..., None, :, :],
                                   np.shape(times) + B.shape[-2:])
        out = B[..., None, :, :] * self.profile(i, times)[..., None, None]
        diag = np.arange(out.shape[-1])
        out[..., diag, diag] = 0.0
        out[..., diag, diag] = -out.sum(axis=-1)
        if np.ndim(i):
            out[fixed] = B[fixed, None]
        return out


def schedule_from_arrays(starts, ends, couplings, depths=None, periods=None,
                         constant=None) -> CouplingSchedule:
    """The schedule of pieces c_i(t) couplings[i] on [starts[i], ends[i]),
    c_i the profile of depths[i] and periods[i] where constant[i] is false
    and 1 (depth 0, period 1) where it is true; with no profile arrays
    every piece is constant.  Checks the piece count, shapes and times
    (ScheduleError), the stack by one _check in the order given, the
    profiles and the bound (InvalidSpec; ScheduleError for a constant
    piece with a profile), and the joins once sorted (ScheduleError).  The
    arrays become the schedule's, read-only; the stack is copied only when
    a piece is sinusoidal, whose diagonal is set to minus its off-diagonal
    row sum, or the starts are out of order."""
    return _schedule(starts, ends, couplings, depths, periods, constant,
                     _check)


def _schedule(starts, ends, couplings, depths=None, periods=None,
              constant=None, check=None) -> CouplingSchedule:
    """schedule_from_arrays with check(couplings), if given, in the place of
    its _check: none for a stack that was checked when it was made."""
    couplings = _as_matrices(couplings, (3,))
    k = len(couplings)
    if depths is None and periods is None and constant is None:
        depths, periods, constant = np.zeros(k), np.ones(k), np.ones(k, bool)
    times = starts, ends  # as given, for the messages
    starts, ends, depths, periods = (np.asarray(arr, dtype=float) for arr
                                     in (starts, ends, depths, periods))
    constant = np.asarray(constant, dtype=bool)
    if not k:
        raise ScheduleError("schedule needs at least one segment")
    if {a.shape for a in (starts, ends, depths, periods, constant)} != {(k,)}:
        raise ScheduleError("each piece needs a start, end, depth, period "
                            "and constant flag")
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(starts) & np.isfinite(ends)
        bad = np.flatnonzero(~(finite & (ends > starts)))
    if len(bad):
        i = bad[0]
        raise ScheduleError(
            f"segment [{times[0][i]}, {times[1][i]}] has "
            + ("non-positive length" if finite[i] else "a non-finite end"))
    if check is not None:
        check(couplings)
    for depth, period in zip(depths[~constant].tolist(),
                             periods[~constant].tolist()):
        _check_profile(depth, period)
    if np.any(constant & ((depths != 0.0) | (periods != 1.0))):
        raise ScheduleError("a constant piece needs depth 0 and period 1")
    if not constant.all():  # into a copy: the caller's stack is kept
        couplings = couplings.copy()
        couplings[~constant] = _fill_diagonal(couplings[~constant])
    bound = _peak(couplings, depths)
    if np.any(starts[1:] < starts[:-1]):
        order = np.argsort(starts, kind="stable")
        starts, ends, couplings, depths, periods, constant = (
            arr[order] for arr in (starts, ends, couplings, depths, periods,
                                   constant))
    join_tol = 1e-9 * max(1.0, ends[-1] - starts[0])
    gaps = np.flatnonzero(np.abs(starts[1:] - ends[:-1]) > join_tol)
    if len(gaps):
        i = gaps[0] + 1
        raise ScheduleError(
            f"segment starting at {starts[i].item()} does not join the previous "
            f"segment ending at {ends[i - 1].item()}")
    return CouplingSchedule(starts, ends, couplings, depths, periods, constant,
                            bound)


def build_schedule(segments: Iterable) -> CouplingSchedule:
    """schedule_from_arrays of (t_start, t_end, coupling) segments, the
    coupling a matrix or a SinusoidalCoupling, all of one size."""
    pieces = [(t0, t1, gen.depth, gen.period, False, gen.coupling)
              if isinstance(gen, SinusoidalCoupling)
              else (t0, t1, 0.0, 1.0, True, _as_matrices(gen, (2,)))
              for t0, t1, gen in segments]
    if len({piece[-1].shape for piece in pieces}) != 1:
        raise ScheduleError("segments disagree on the matrix size" if pieces
                            else "schedule needs at least one segment")
    *arrays, matrices = zip(*pieces)
    return schedule_from_arrays(*arrays[:2], np.stack(matrices), *arrays[2:])


def constant_schedule(matrix, t_start: float, t_end: float) -> CouplingSchedule:
    """Single-segment schedule holding one matrix on [t_start, t_end]."""
    return build_schedule([(t_start, t_end, matrix)])


def _locate_piece(schedule: CouplingSchedule, times: np.ndarray) -> np.ndarray:
    """The pieces that hold an array of times; OutOfHorizon for the first
    time off the horizon."""
    t0, t1 = schedule.horizon
    edge = 1e-12 * max(1.0, abs(t0), abs(t1))
    outside = (times < t0 - edge) | (times > t1 + edge)
    if outside.any():
        bad = float(times[np.argmax(outside)])
        raise OutOfHorizon(f"t = {bad!r} outside schedule horizon [{t0}, {t1}]")
    # Right-continuity: t equal to a breakpoint selects the later segment;
    # the final endpoint falls to the last segment, which closes the horizon.
    return np.maximum(np.searchsorted(
        schedule.starts, np.clip(times, t0, t1), side="right") - 1, 0)


def integrate_windows(
    schedule: CouplingSchedule,
    starts,
    T: float,
) -> np.ndarray:
    """Integrate A(s) entrywise over [t, t+T] for every t in starts.

    Returns the (w, n, n) stack of window integrals.  The windows are walked
    together, one schedule piece at a time: step j adds the j-th piece that
    overlaps each window, or 0 to a window with fewer, so every window sums
    its pieces in schedule order and each integral is the same to the last
    bit as when integrated alone.
    A piece A(s) = c(s) B over [lo, hi] adds B times the integral w of its
    profile, in closed form: w = hi - lo on a constant piece, and
    w = L + d (P / pi) sin(pi (lo + hi) / P) sin(pi L / P), with L = hi - lo,
    on a sinusoidal piece of depth d and period P.
    """
    if not (T > 0.0):
        raise ValueError(f"window length must be positive, got T = {T!r}")
    starts = np.asarray(starts, dtype=float)
    ends = starts + T
    t0, t1 = schedule.horizon
    edge = 1e-9 * max(1.0, abs(t0), abs(t1), T)
    outside = np.flatnonzero((starts < t0 - edge) | (ends > t1 + edge))
    if len(outside):
        i = outside[0]
        raise OutOfHorizon(
            f"window [{float(starts[i])}, {float(ends[i])}] outside schedule "
            f"horizon [{t0}, {t1}]")
    a = np.maximum(starts, t0)
    b = np.minimum(ends, t1)
    # Each window's matrix is one row of n * n entries while it is summed,
    # so the products broadcast over rows, not over the rows of matrices.
    total = np.zeros((len(starts), schedule.n ** 2))
    couplings = schedule.couplings.reshape(len(schedule.starts), -1)
    if len(starts):
        # Window i overlaps the pieces first[i] .. stop[i] - 1.
        first = np.maximum(
            np.searchsorted(schedule.starts, a, side="right") - 1, 0)
        stop = np.searchsorted(schedule.starts, b, side="left")
        for j in range(int((stop - first).max())):
            live = first + j < stop
            k = np.minimum(first + j, len(schedule.starts) - 1)
            lo = np.maximum(a, schedule.starts[k])
            hi = np.minimum(b, schedule.ends[k])
            L, P = hi - lo, schedule.periods[k]
            live &= L > 0.0
            # A constant piece has depth 0, which leaves w = hi - lo
            # exactly.  c >= 0, so its integral is too; the product form can
            # round to about -1e-16 L on a window centred where c vanishes.
            w = np.maximum(L + schedule.depths[k] * (P / np.pi)
                           * np.sin(np.pi * (lo + hi) / P)
                           * np.sin(np.pi * L / P), 0.0)
            # A window past its last piece, or that meets this one in no
            # length, adds B times 0: +-0, as B is finite, which leaves its
            # sum as it is.
            w = np.where(live, w, 0.0)
            total += couplings[k] * w[:, None]
    # The integral of a valid coupling map is itself a valid coupling matrix,
    # up to rounding proportional to the window; the floor of 1e-9 absorbs
    # the rounding of a sum over many pieces.  A window with a non-finite
    # entry, which only overflow can produce, is always bad.
    total = total.reshape(len(starts), schedule.n, schedule.n)
    _check(total, max(DEFAULT_ROW_TOL * max(1.0, T), 1e-9))
    return total


def integrate_schedule(
    schedule: CouplingSchedule,
    t: float,
    T: float,
) -> np.ndarray:
    """Integrate A(s) entrywise over [t, t+T], read-only: the one-window
    case of integrate_windows."""
    entries = integrate_windows(schedule, [t], T)[0]
    entries.setflags(write=False)
    return entries


def coupling_entries(matrix) -> np.ndarray:
    """A caller's square matrix as a float array (ValueError otherwise)."""
    return _as_matrices(matrix, (2,))
