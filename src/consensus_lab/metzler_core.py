"""Coupling matrices, piecewise coupling schedules, and window integrals.

The basic object is an n-by-n real matrix with non-negative off-diagonal
entries whose rows sum to zero: row k holds the rates at which component k is
attracted towards the others, and the diagonal entry balances the row.
validate_coupling_matrix and from_offdiagonal check one such matrix or a
(k, n, n) stack of them in one pass and return it as a read-only array: a
coupling is an array that passed the check, not a type of its own.  A
schedule assembles such matrices into a bounded piecewise map t -> A(t),
right-continuous at its breakpoints.
Each piece is a fixed coupling B times a scalar profile: c = 1 on a
constant piece, c(t) = 1 + d sin(2 pi t / P) on a SinusoidalCoupling, so
A(t) = c(t) B, and a schedule holds its pieces as arrays: the breakpoints,
one read-only stack of the couplings B and the profile parameters.  Window
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
        row_tol = tol * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
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
    weight_fault = ((out[:, diag, diag] != 0.0).any(axis=1)
                    | (out < 0.0).any(axis=(1, 2)))
    first = int(np.argmax(weight_fault)) if weight_fault.any() else len(out)
    bad_diagonal = first < len(out) and np.any(out[first, diag, diag] != 0.0)
    out[:, diag, diag] = 0.0
    with np.errstate(all="ignore"):
        out[:, diag, diag] = -out.sum(axis=2)
    _check(out[:first])
    if bad_diagonal:
        raise ValueError("diagonal of the weight matrix must be zero")
    if first < len(out):
        # Its diagonal was zero, so its negative entries are off it.
        off = ~np.eye(out.shape[-1], dtype=bool)
        k, l = np.argwhere((out[first] < 0.0) & off)[0].tolist()
        raise NegativeWeight(
            f"weight ({k + 1},{l + 1}) = {float(out[first, k, l])!r} is negative")
    out = out.reshape(arr.shape)
    out.setflags(write=False)
    return out


class SinusoidalCoupling:
    """Fixed coupling B scaled by the profile c(t) = 1 + depth sin(2 pi t / period).

    B is built from non-negative off-diagonal base weights by
    from_offdiagonal, which checks them.  |depth| may not exceed 1, so
    c(t) >= 0 and every A(t) is a valid coupling matrix; (1 + |depth|) max|B|
    bounds its entries and is attained on any piece that spans a period.
    """

    def __init__(self, base_offdiagonal, depth: float, period: float):
        base = _as_matrices(base_offdiagonal, (2,))
        if not (abs(depth) <= 1.0):
            raise InvalidSpec(f"depth must lie in [-1, 1], got {depth!r}")
        if not (period > 0.0):
            raise InvalidSpec(f"period must be positive, got {period!r}")
        self.coupling = from_offdiagonal(base)
        self.depth = float(depth)
        self.period = float(period)
        self.bound = (1.0 + abs(self.depth)) * float(
            np.max(np.abs(self.coupling)))
        if not math.isfinite(self.bound):
            raise InvalidSpec(f"entries reach {self.bound} at the profile peak")


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


def build_schedule(segments: Iterable) -> CouplingSchedule:
    """Assemble and validate a schedule from (t_start, t_end, coupling)
    pieces, the coupling a matrix or a SinusoidalCoupling.

    Segment times must be finite, segments must have positive length, agree
    on the matrix size, and be contiguous and non-overlapping once sorted by
    start.  The couplings B are validated as one stack, in the order given;
    a sinusoidal piece is c(t) B with c >= 0.
    """
    pieces = []
    for t0, t1, gen in segments:
        sinusoid = isinstance(gen, SinusoidalCoupling)
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ScheduleError(f"segment [{t0}, {t1}] has a non-finite end")
        if not (t1 > t0):
            raise ScheduleError(f"segment [{t0}, {t1}] has non-positive length")
        pieces.append((float(t0), float(t1),
                       gen.depth if sinusoid else 0.0,
                       gen.period if sinusoid else 1.0, not sinusoid,
                       gen.coupling if sinusoid else _as_matrices(gen, (2,))))
    if not pieces:
        raise ScheduleError("schedule needs at least one segment")
    *scalars, matrices = zip(*pieces)
    if len({matrix.shape for matrix in matrices}) > 1:
        raise ScheduleError("segments disagree on the matrix size")
    # The one copy of the couplings, checked in the order given.
    couplings = np.stack(matrices)
    _check(couplings)
    starts, ends, depths, periods, constant = map(np.array, scalars)
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
    peaks = (1.0 + np.abs(depths)) * np.abs(couplings).max(axis=(1, 2))
    return CouplingSchedule(starts, ends, couplings, depths, periods, constant,
                            float(peaks.max()))


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
