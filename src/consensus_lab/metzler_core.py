"""Coupling matrices, piecewise coupling schedules, and window integrals.

The basic object is an n-by-n real matrix with non-negative off-diagonal
entries whose rows sum to zero: row k holds the rates at which component k is
attracted towards the others, and the diagonal entry balances the row.  A
schedule assembles such matrices into a bounded piecewise map t -> A(t),
right-continuous at its breakpoints.  Each piece is a fixed coupling B times
a scalar profile: c = 1 on a constant piece, c(t) = 1 + d sin(2 pi t / P)
on a SinusoidalCoupling, so A(t) = c(t) B.  Window integrals of a schedule
are the raw material for the connectivity and contraction analyses
elsewhere in the package; a piece adds B times the integral of its profile,
which is closed form.  integrate_windows builds them as one (w, n, n)
stack, walking all windows through the schedule pieces together and
validating the stack in one pass; integrate_schedule is its one-window case.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

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


def _as_square_array(entries) -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("matrix must have at least one row")
    return arr


def _row_tolerance(arr: np.ndarray, tol_row: float) -> float:
    # Absolute tolerance, scaled up when entries are large so that the check
    # stays meaningful after long-window integration.
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    return tol_row * max(1.0, scale)


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Validated coupling matrix (off-diagonal >= 0, zero row sums)."""

    n: int
    entries: np.ndarray
    tol_row: float = DEFAULT_ROW_TOL

    def __post_init__(self):
        self.entries.setflags(write=False)


def validate_coupling_matrix(entries, tol_row: float = DEFAULT_ROW_TOL) -> CouplingMatrix:
    """Check the sign pattern and row sums; return the wrapped matrix.

    Raises NonFiniteEntry on a NaN or infinite entry, NegativeOffDiagonal on
    a negative coupling rate (both with 1-based indices) and RowSumViolation
    when a row sum exceeds the scaled tolerance.  Non-finite entries come
    first: no comparison sees a NaN, and an infinity would make the row
    tolerance infinite.  The diagonal is implied: once off-diagonal entries
    are non-negative and rows sum to zero, a_kk equals minus the
    off-diagonal row sum.
    """
    arr = _as_square_array(entries)
    n = arr.shape[0]
    # argwhere goes row by row: the first offender is the top-left one.
    nonfinite = np.argwhere(~np.isfinite(arr))
    if len(nonfinite):
        k, l = nonfinite[0].tolist()
        raise NonFiniteEntry(k + 1, l + 1, float(arr[k, l]))
    negative = np.argwhere((arr < 0.0) & ~np.eye(n, dtype=bool))
    if len(negative):
        k, l = negative[0].tolist()
        raise NegativeOffDiagonal(k + 1, l + 1, float(arr[k, l]))
    tol = _row_tolerance(arr, tol_row)
    sums = arr.sum(axis=1)
    worst = int(np.argmax(np.abs(sums)))
    if abs(sums[worst]) > tol:
        raise RowSumViolation(worst + 1, float(sums[worst]))
    return CouplingMatrix(n=n, entries=arr, tol_row=tol_row)


def from_offdiagonal(weights, tol_row: float = DEFAULT_ROW_TOL) -> CouplingMatrix:
    """Build a coupling matrix from non-negative off-diagonal weights.

    The input diagonal must be zero; the output diagonal is set to minus the
    off-diagonal row sum, so row sums vanish by construction.
    """
    arr = _as_square_array(weights)
    if np.any(np.diag(arr) != 0.0):
        raise ValueError("diagonal of the weight matrix must be zero")
    negative = np.argwhere(arr < 0.0)  # the diagonal is zero
    if len(negative):
        k, l = negative[0].tolist()
        raise NegativeWeight(
            f"weight ({k + 1},{l + 1}) = {float(arr[k, l])!r} is negative")
    out = arr.copy()
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return validate_coupling_matrix(out, tol_row=tol_row)


class SinusoidalCoupling:
    """Fixed coupling B scaled by the profile c(t) = 1 + depth sin(2 pi t / period).

    B is built from non-negative off-diagonal base weights by
    from_offdiagonal.  |depth| may not exceed 1, so c(t) >= 0 and every A(t)
    is a valid coupling matrix; (1 + |depth|) max|B| bounds its entries and
    is attained on any piece that spans a period.
    """

    def __init__(self, base_offdiagonal, depth: float, period: float):
        base = np.array(base_offdiagonal, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise InvalidSpec(f"base weights must be square, got {base.shape}")
        if np.any(np.diag(base) != 0.0):
            raise InvalidSpec("base weights must have a zero diagonal")
        if np.any(base < 0.0):
            raise InvalidSpec("base weights must be non-negative")
        if not (abs(depth) <= 1.0):
            raise InvalidSpec(f"depth must lie in [-1, 1], got {depth!r}")
        if not (period > 0.0):
            raise InvalidSpec(f"period must be positive, got {period!r}")
        self.coupling = from_offdiagonal(base)
        self.depth = float(depth)
        self.period = float(period)
        self.bound = (1.0 + abs(self.depth)) * float(
            np.max(np.abs(self.coupling.entries)))
        if not math.isfinite(self.bound):
            raise InvalidSpec(f"entries reach {self.bound} at the profile peak")

    def entries_at(self, t: float) -> np.ndarray:
        # The diagonal is minus the row sum of the scaled off-diagonal, not
        # scale * B_kk: each row then sums to zero up to that one sum.
        scale = 1.0 + self.depth * math.sin(2.0 * math.pi * t / self.period)
        out = self.coupling.entries * scale
        np.fill_diagonal(out, 0.0)
        np.fill_diagonal(out, -out.sum(axis=1))
        return out

    def entries_over(self, times) -> np.ndarray:
        """entries_at(t) for every t in times, as a (k, n, n) stack with the
        same values entry for entry: the same scale per time (math.sin, not
        np.sin), the same products, and each diagonal minus its row sum
        along the last axis, which numpy reduces row by row as in the 2-d
        case."""
        scale = np.array([
            1.0 + self.depth * math.sin(2.0 * math.pi * t / self.period)
            for t in np.asarray(times, dtype=float).tolist()])
        out = self.coupling.entries * scale[:, None, None]
        diag = np.arange(out.shape[1])
        out[:, diag, diag] = 0.0
        out[:, diag, diag] = -out.sum(axis=2)
        return out


@dataclass(frozen=True, eq=False)
class Segment:
    """One schedule piece, active on [t_start, t_end)."""

    t_start: float
    t_end: float
    generator: Union[CouplingMatrix, SinusoidalCoupling]

    @property
    def is_constant(self) -> bool:
        return isinstance(self.generator, CouplingMatrix)

    @property
    def coupling(self) -> CouplingMatrix:
        """The fixed coupling B of the piece: A(t) = c(t) B, with c = 1 on
        a constant piece."""
        return self.generator if self.is_constant else self.generator.coupling

    def entries_at(self, t: float) -> np.ndarray:
        if self.is_constant:
            return self.generator.entries
        return self.generator.entries_at(t)

    def entries_over(self, times) -> np.ndarray:
        """A(t) for every t in times as a (k, n, n) stack, with the values
        of entries_at; a read-only broadcast of B on a constant piece."""
        if self.is_constant:
            entries = self.generator.entries
            return np.broadcast_to(entries, (len(times),) + entries.shape)
        return self.generator.entries_over(times)


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Piecewise coupling map t -> A(t), right-continuous at breakpoints.

    Each segment holds a constant coupling matrix or a SinusoidalCoupling,
    so A(t) = c(t) B on every piece.  ``bound`` is the declared uniform
    bound on |a_kl(t)|, checked at construction against max|B| on constant
    pieces and (1 + |depth|) max|B| on sinusoidal ones.
    """

    segments: tuple
    bound: float
    tol_row: float = DEFAULT_ROW_TOL

    @property
    def n(self) -> int:
        return self.segments[0].coupling.n

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @property
    def horizon(self) -> tuple:
        return (self.t_start, self.t_end)

    @cached_property
    def start_times(self) -> tuple:
        return tuple(seg.t_start for seg in self.segments)


def _coerce_segment(item, tol_row: float) -> Segment:
    if isinstance(item, Segment):
        gen = item.generator
        t0, t1 = item.t_start, item.t_end
    else:
        t0, t1, gen = item
    if not (isinstance(gen, (CouplingMatrix, SinusoidalCoupling))):
        gen = validate_coupling_matrix(gen, tol_row=tol_row)
    if not (t1 > t0):
        raise ScheduleError(f"segment [{t0}, {t1}] has non-positive length")
    return Segment(float(t0), float(t1), gen)


def build_schedule(
    segments: Iterable,
    bound: float | None = None,
    tol_row: float = DEFAULT_ROW_TOL,
) -> CouplingSchedule:
    """Assemble and validate a schedule from (t_start, t_end, matrix) pieces.

    Segments must be contiguous and non-overlapping.  Every piece is valid
    by construction: a coupling matrix is validated when it is wrapped, and
    a sinusoidal piece is c(t) B with c >= 0.  The pieces' entry bounds
    (max|B|, times 1 + |depth| on sinusoidal pieces) must not exceed a
    declared ``bound``; when omitted, their maximum is declared.
    """
    segs = [_coerce_segment(item, tol_row) for item in segments]
    if not segs:
        raise ScheduleError("schedule needs at least one segment")
    segs.sort(key=lambda s: s.t_start)
    span = segs[-1].t_end - segs[0].t_start
    join_tol = 1e-9 * max(1.0, span)
    observed = 0.0
    for i, seg in enumerate(segs):
        if i > 0 and abs(seg.t_start - segs[i - 1].t_end) > join_tol:
            raise ScheduleError(
                f"segment starting at {seg.t_start} does not join the previous "
                f"segment ending at {segs[i - 1].t_end}")
        if seg.coupling.n != segs[0].coupling.n:
            raise ScheduleError("segments disagree on the matrix size")
        gen = seg.generator
        observed = max(observed, float(np.max(np.abs(gen.entries)))
                       if seg.is_constant else gen.bound)
    if bound is None:
        bound = observed
    elif observed > bound * (1.0 + 1e-12) + 1e-12:
        raise ScheduleError(
            f"observed entry bound {observed} exceeds the declared bound {bound}")
    return CouplingSchedule(segments=tuple(segs), bound=float(bound), tol_row=tol_row)


def constant_schedule(
    matrix, t_start: float, t_end: float, tol_row: float = DEFAULT_ROW_TOL
) -> CouplingSchedule:
    """Single-segment schedule holding one matrix on [t_start, t_end]."""
    return build_schedule([(t_start, t_end, matrix)], tol_row=tol_row)


def _locate_segment(schedule: CouplingSchedule, t: float) -> Segment:
    t0, t1 = schedule.horizon
    edge = 1e-12 * max(1.0, abs(t0), abs(t1))
    if t < t0 - edge or t > t1 + edge:
        raise OutOfHorizon(f"t = {t!r} outside schedule horizon [{t0}, {t1}]")
    t = min(max(t, t0), t1)
    # Right-continuity: t equal to a breakpoint selects the later segment;
    # the final endpoint falls to the last segment, which closes the horizon.
    idx = max(bisect.bisect_right(schedule.start_times, t) - 1, 0)
    return schedule.segments[idx]


def evaluate_schedule(schedule: CouplingSchedule, t: float) -> CouplingMatrix:
    """Evaluate A(t); right-continuous at breakpoints."""
    seg = _locate_segment(schedule, t)
    if seg.is_constant:
        return seg.generator
    return validate_coupling_matrix(seg.entries_at(t), tol_row=schedule.tol_row)


@dataclass(frozen=True, eq=False)
class IntegratedCoupling:
    """Entrywise integral of a schedule over one window."""

    n: int
    entries: np.ndarray
    window: tuple

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]


def integrate_windows(
    schedule: CouplingSchedule,
    starts,
    T: float,
) -> np.ndarray:
    """Integrate A(s) entrywise over [t, t+T] for every t in starts.

    Returns the (w, n, n) stack of window integrals.  The windows are walked
    together, one schedule piece at a time: step j adds the j-th piece that
    overlaps each window, so every window sums its pieces in schedule order
    and each integral is the same to the last bit as when integrated alone.
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
    n = schedule.n
    total = np.zeros((len(starts), n, n))
    if len(starts):
        # Window i overlaps the pieces first[i] .. stop[i] - 1.
        piece_starts = np.array(schedule.start_times)
        first = np.maximum(np.searchsorted(piece_starts, a, side="right") - 1, 0)
        stop = np.searchsorted(piece_starts, b, side="left")
        # Gather from the pieces this call touches only.
        base = int(first.min())
        segs = schedule.segments[base:max(int(stop.max()), base + 1)]
        seg_start = piece_starts[base:base + len(segs)]
        seg_end = np.array([seg.t_end for seg in segs])
        mats = np.stack([seg.coupling.entries for seg in segs])
        # A constant piece has depth 0, which leaves w = hi - lo exactly.
        depth = np.array([0.0 if seg.is_constant else seg.generator.depth
                          for seg in segs])
        period = np.array([1.0 if seg.is_constant else seg.generator.period
                           for seg in segs])
        for j in range(int((stop - first).max())):
            live = first + j < stop
            k = np.minimum(first + j - base, len(segs) - 1)
            lo = np.maximum(a, seg_start[k])
            hi = np.minimum(b, seg_end[k])
            L, P = hi - lo, period[k]
            live &= L > 0.0
            # c >= 0, so its integral is too; the product form can round to
            # about -1e-16 L on a window centred where c vanishes.
            w = np.maximum(L + depth[k] * (P / np.pi)
                           * np.sin(np.pi * (lo + hi) / P)
                           * np.sin(np.pi * L / P), 0.0)
            rows = np.flatnonzero(live)
            total[rows] += mats[k[rows]] * w[rows, None, None]
    # The integral of a valid coupling map is itself a valid coupling matrix,
    # up to rounding proportional to the window; the floor of 1e-9 absorbs
    # the rounding of a sum over many pieces when a caller sets tol_row below
    # it.  Row tolerances are those of _row_tolerance, one per window; a window
    # with a non-finite entry, which only overflow can produce, is always bad.
    check_tol = max(schedule.tol_row * max(1.0, T), 1e-9)
    off = ~np.eye(n, dtype=bool)
    row_tol = check_tol * np.maximum(1.0, np.abs(total).max(axis=(1, 2)))
    bad = (~np.isfinite(total).all(axis=(1, 2))
           | ((total < 0.0) & off).any(axis=(1, 2))
           | (np.abs(total.sum(axis=2)).max(axis=1) > row_tol))
    # validate_coupling_matrix raises on the first bad window with its own
    # message.
    for i in np.flatnonzero(bad):
        validate_coupling_matrix(total[i], tol_row=check_tol)
    return total


def integrate_schedule(
    schedule: CouplingSchedule,
    t: float,
    T: float,
) -> IntegratedCoupling:
    """Integrate A(s) entrywise over [t, t+T]: the one-window case of
    integrate_windows."""
    entries = integrate_windows(schedule, [t], T)[0]
    return IntegratedCoupling(n=schedule.n, entries=entries,
                              window=(float(t), float(t + T)))


def coupling_entries(matrix) -> np.ndarray:
    """Entries of a CouplingMatrix, IntegratedCoupling, or plain array."""
    if isinstance(matrix, (CouplingMatrix, IntegratedCoupling)):
        return matrix.entries
    return _as_square_array(matrix)
