"""Coupling matrices, piecewise coupling schedules, and window integrals.

The basic object is an n-by-n real matrix with non-negative off-diagonal
entries whose rows sum to zero: row k holds the rates at which component k is
attracted towards the others, and the diagonal entry balances the row.  A
schedule assembles such matrices into a bounded piecewise map t -> A(t),
right-continuous at its breakpoints.  Window integrals of a schedule are the
raw material for the connectivity and contraction analyses elsewhere in the
package.  integrate_windows builds them as one (w, n, n) stack, walking all
windows through the schedule pieces together and validating the stack in
one pass; integrate_schedule is its one-window case.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import (
    NegativeOffDiagonal,
    NegativeWeight,
    NonFiniteEntry,
    OutOfHorizon,
    QuadratureFailure,
    RowSumViolation,
    ScheduleError,
)

DEFAULT_ROW_TOL = 1e-12

# Samples drawn inside each segment when validating a schedule, in addition
# to the segment endpoints.
_INTERIOR_SAMPLES = 10


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


class TimeVaryingCoupling(abc.ABC):
    """Continuous-in-time coupling family over one schedule segment.

    Implementations are named parametric families (registered in the
    scenario layer) rather than arbitrary callables, which keeps schedules
    serializable and runs reproducible.
    """

    name: str = "unnamed"

    @abc.abstractmethod
    def entries_at(self, t: float) -> np.ndarray:
        """Return the coupling entries at time t (full matrix with diagonal)."""


@dataclass(frozen=True, eq=False)
class Segment:
    """One schedule piece, active on [t_start, t_end)."""

    t_start: float
    t_end: float
    generator: Union[CouplingMatrix, TimeVaryingCoupling]

    @property
    def is_constant(self) -> bool:
        return isinstance(self.generator, CouplingMatrix)

    def entries_at(self, t: float) -> np.ndarray:
        if self.is_constant:
            return self.generator.entries
        return self.generator.entries_at(t)


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Piecewise coupling map t -> A(t), right-continuous at breakpoints.

    ``bound`` is the declared uniform bound on |a_kl(t)|; it is verified on
    a sampling grid at construction (exactly, for constant segments).
    """

    segments: tuple
    bound: float
    tol_row: float = DEFAULT_ROW_TOL

    @property
    def n(self) -> int:
        seg = self.segments[0]
        if seg.is_constant:
            return seg.generator.n
        return seg.entries_at(seg.t_start).shape[0]

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
    if not (isinstance(gen, (CouplingMatrix, TimeVaryingCoupling))):
        gen = validate_coupling_matrix(gen, tol_row=tol_row)
    if not (t1 > t0):
        raise ScheduleError(f"segment [{t0}, {t1}] has non-positive length")
    return Segment(float(t0), float(t1), gen)


def _segment_grid(seg: Segment) -> np.ndarray:
    return np.linspace(seg.t_start, seg.t_end, _INTERIOR_SAMPLES + 2)


def build_schedule(
    segments: Iterable,
    bound: float | None = None,
    tol_row: float = DEFAULT_ROW_TOL,
) -> CouplingSchedule:
    """Assemble and validate a schedule from (t_start, t_end, matrix) pieces.

    Segments must be contiguous and non-overlapping.  Every piece is
    validated at its endpoints and at 10 interior samples; the observed
    entry bound must not exceed a declared ``bound`` (when omitted, the
    observed bound is declared).
    """
    segs = [_coerce_segment(item, tol_row) for item in segments]
    if not segs:
        raise ScheduleError("schedule needs at least one segment")
    segs.sort(key=lambda s: s.t_start)
    span = segs[-1].t_end - segs[0].t_start
    join_tol = 1e-9 * max(1.0, span)
    n = None
    observed = 0.0
    for i, seg in enumerate(segs):
        if i > 0 and abs(seg.t_start - segs[i - 1].t_end) > join_tol:
            raise ScheduleError(
                f"segment starting at {seg.t_start} does not join the previous "
                f"segment ending at {segs[i - 1].t_end}")
        if seg.is_constant:
            mats = [seg.generator.entries]
        else:
            mats = [seg.entries_at(t) for t in _segment_grid(seg)]
            for m in mats:
                validate_coupling_matrix(m, tol_row=tol_row)
        for m in mats:
            if n is None:
                n = m.shape[0]
            elif m.shape[0] != n:
                raise ScheduleError("segments disagree on the matrix size")
            observed = max(observed, float(np.max(np.abs(m))))
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


def _simpson_slice(f, a: float, b: float, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 30) -> np.ndarray:
    """Entrywise adaptive composite Simpson rule for matrix-valued f."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson_slice(f, a, b, fa, fm, fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        if depth > max_depth:
            raise QuadratureFailure(
                f"adaptive Simpson exceeded depth {max_depth} on [{a}, {b}]")
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = _simpson_slice(f, a, m, fa, flm, fm)
        right = _simpson_slice(f, m, b, fm, frm, fb)
        err = np.max(np.abs(left + right - whole))
        if err <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * tol
        return (recurse(a, m, fa, flm, fm, left, half, depth + 1)
                + recurse(m, b, fm, frm, fb, right, half, depth + 1))

    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def integrate_windows(
    schedule: CouplingSchedule,
    starts,
    T: float,
    quad_tol: float = 1e-10,
) -> np.ndarray:
    """Integrate A(s) entrywise over [t, t+T] for every t in starts.

    Returns the (w, n, n) stack of window integrals.  The windows are walked
    together, one schedule piece at a time: step j adds the j-th piece that
    overlaps each window, so every window sums its pieces in schedule order
    and each integral is the same to the last bit as when integrated alone.
    Piecewise-constant segments contribute exactly, entries * (hi - lo);
    continuous generators are integrated with adaptive Simpson quadrature
    at tolerance quad_tol, one (window, piece) pair at a time.
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
        constant = np.array([seg.is_constant for seg in segs])
        mats = np.stack([seg.generator.entries if seg.is_constant
                         else np.zeros((n, n)) for seg in segs])
        for j in range(int((stop - first).max())):
            live = first + j < stop
            k = np.minimum(first + j - base, len(segs) - 1)
            lo = np.maximum(a, seg_start[k])
            hi = np.minimum(b, seg_end[k])
            live &= hi - lo > 0.0
            rows = np.flatnonzero(live & constant[k])
            total[rows] += mats[k[rows]] * (hi - lo)[rows, None, None]
            for i in np.flatnonzero(live & ~constant[k]):
                total[i] += _adaptive_simpson(
                    segs[k[i]].generator.entries_at, float(lo[i]),
                    float(hi[i]), quad_tol)
    # The integral of a valid coupling map is itself a valid coupling matrix,
    # up to quadrature and rounding residue proportional to the window.
    check_tol = max(schedule.tol_row * max(1.0, T), 10.0 * quad_tol)
    # Quadrature may leave a tiny negative residue on entries that vanish;
    # clip it rather than reject the integral.  Clip and row tolerances are
    # those of _row_tolerance, one per window.  A window with a non-finite
    # entry, which only overflow can produce, is always bad.
    off = ~np.eye(n, dtype=bool)
    clip = check_tol * np.maximum(1.0, np.abs(total).max(axis=(1, 2)))
    total[off & (total < 0.0) & (total >= -clip[:, None, None])] = 0.0
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
    quad_tol: float = 1e-10,
) -> IntegratedCoupling:
    """Integrate A(s) entrywise over [t, t+T]: the one-window case of
    integrate_windows."""
    entries = integrate_windows(schedule, [t], T, quad_tol)[0]
    return IntegratedCoupling(n=schedule.n, entries=entries,
                              window=(float(t), float(t + T)))


def coupling_entries(matrix) -> np.ndarray:
    """Entries of a CouplingMatrix, IntegratedCoupling, or plain array."""
    if isinstance(matrix, (CouplingMatrix, IntegratedCoupling)):
        return matrix.entries
    return _as_square_array(matrix)
