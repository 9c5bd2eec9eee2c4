"""Coupling matrices, piecewise coupling schedules, and window integrals.

The basic object is an n-by-n real matrix with non-negative off-diagonal
entries whose rows sum to zero: row k holds the rates at which component k is
attracted towards the others, and the diagonal entry balances the row.
validate_coupling_matrix and from_offdiagonal check one such matrix or a
(k, n, n) stack of them in one pass.  A schedule assembles such matrices
into a bounded piecewise map t -> A(t), right-continuous at its breakpoints.
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

import bisect
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
    """entries as a float array: one square matrix, or a (k, n, n) stack
    when 3 is among ndims."""
    arr = np.array(entries, dtype=float)
    if arr.ndim not in ndims or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[-1] < 1:
        raise ValueError("matrix must have at least one row")
    return arr


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Validated coupling matrix (off-diagonal >= 0, zero row sums), or a
    (k, n, n) stack of them."""

    n: int
    entries: np.ndarray
    tol_row: float = DEFAULT_ROW_TOL

    def __post_init__(self):
        self.entries.setflags(write=False)


def _raise_fault(arr: np.ndarray, tol_row: float):
    """Raise the first fault of one matrix, if it has one.

    NonFiniteEntry on a NaN or infinite entry, NegativeOffDiagonal on a
    negative coupling rate (both with 1-based indices), RowSumViolation when
    a row sum exceeds tol_row times max(1, max|entry|), scaled up for large
    entries so that the check stays meaningful after long-window
    integration.  Non-finite entries come first: no comparison sees a NaN,
    and an infinity would make the row tolerance infinite.
    """
    # argwhere goes row by row: the first offender is the top-left one.
    nonfinite = np.argwhere(~np.isfinite(arr))
    if len(nonfinite):
        k, l = nonfinite[0].tolist()
        raise NonFiniteEntry(k + 1, l + 1, float(arr[k, l]))
    negative = np.argwhere((arr < 0.0) & ~np.eye(arr.shape[0], dtype=bool))
    if len(negative):
        k, l = negative[0].tolist()
        raise NegativeOffDiagonal(k + 1, l + 1, float(arr[k, l]))
    tol = tol_row * max(1.0, float(np.max(np.abs(arr))))
    sums = arr.sum(axis=1)
    worst = int(np.argmax(np.abs(sums)))
    if abs(sums[worst]) > tol:
        raise RowSumViolation(worst + 1, float(sums[worst]))


def _faulty(stack: np.ndarray, tol_row: float) -> np.ndarray:
    """Flag each matrix of a (k, n, n) stack that _raise_fault rejects: its
    three checks, taken for the whole stack at once."""
    off = ~np.eye(stack.shape[-1], dtype=bool)
    with np.errstate(all="ignore"):
        row_tol = tol_row * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        return (~np.isfinite(stack).all(axis=(1, 2))
                | ((stack < 0.0) & off).any(axis=(1, 2))
                | (np.abs(stack.sum(axis=2)).max(axis=1) > row_tol))


def validate_coupling_matrix(entries, tol_row: float = DEFAULT_ROW_TOL) -> CouplingMatrix:
    """Check the sign pattern and row sums of one matrix or of a (k, n, n)
    stack; return the wrapped entries.

    Raises NonFiniteEntry, NegativeOffDiagonal or RowSumViolation (see
    _raise_fault).  A stack is screened in one pass, and its first flagged
    matrix is checked again on its own, so the stack raises what checking
    its matrices one at a time would: the first offender row-major over
    (matrix, k, l), with the same message.  The diagonal is implied: once
    off-diagonal entries are non-negative and rows sum to zero, a_kk equals
    minus the off-diagonal row sum.
    """
    arr = _as_matrices(entries)
    stack = arr.reshape((-1,) + arr.shape[-2:])
    for i in np.flatnonzero(_faulty(stack, tol_row)):
        _raise_fault(stack[i], tol_row)
    return CouplingMatrix(n=arr.shape[-1], entries=arr, tol_row=tol_row)


def from_offdiagonal(weights, tol_row: float = DEFAULT_ROW_TOL) -> CouplingMatrix:
    """Build a coupling matrix, or a (k, n, n) stack of them, from
    non-negative off-diagonal weights.

    The input diagonal must be zero; the output diagonal is set to minus the
    off-diagonal row sum, so row sums vanish by construction.  As in
    validate_coupling_matrix, a stack raises what building its matrices one
    at a time would.
    """
    arr = _as_matrices(weights)
    stack = arr.reshape((-1,) + arr.shape[-2:])
    diag = np.arange(stack.shape[-1])
    out = stack.copy()
    out[:, diag, diag] = 0.0
    with np.errstate(all="ignore"):
        out[:, diag, diag] = -out.sum(axis=2)
    weight_fault = ((stack[:, diag, diag] != 0.0).any(axis=1)
                    | (stack < 0.0).any(axis=(1, 2)))
    for i in np.flatnonzero(weight_fault | _faulty(out, tol_row)):
        if np.any(np.diag(stack[i]) != 0.0):
            raise ValueError("diagonal of the weight matrix must be zero")
        negative = np.argwhere(stack[i] < 0.0)  # the diagonal is zero
        if len(negative):
            k, l = negative[0].tolist()
            raise NegativeWeight(
                f"weight ({k + 1},{l + 1}) = {float(stack[i, k, l])!r} is negative")
        _raise_fault(out[i], tol_row)
    return CouplingMatrix(n=arr.shape[-1], entries=out.reshape(arr.shape),
                          tol_row=tol_row)


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


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Piecewise coupling map t -> A(t), right-continuous at breakpoints.

    Piece i is active on [starts[i], ends[i]) with A(t) = c_i(t) B_i, where
    B_i = couplings[i] and c_i(t) = 1 + depths[i] sin(2 pi t / periods[i]).
    ``constant`` marks the pieces given as constant matrices; they carry
    depth 0 and period 1, so c = 1 there.  Every array is read-only.
    ``bound`` is the declared uniform bound on |a_kl(t)|, checked at
    construction against max|B| on constant pieces and (1 + |depth|) max|B|
    on sinusoidal ones.
    """

    starts: np.ndarray
    ends: np.ndarray
    couplings: np.ndarray
    depths: np.ndarray
    periods: np.ndarray
    constant: np.ndarray
    bound: float
    tol_row: float = DEFAULT_ROW_TOL

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

    def profile(self, i: int, times) -> np.ndarray:
        """c_i(t) for every t in times, from math.sin on Python floats."""
        depth, period = float(self.depths[i]), float(self.periods[i])
        return np.array([
            1.0 + depth * math.sin(2.0 * math.pi * t / period)
            for t in np.asarray(times, dtype=float).tolist()])

    def entries_over(self, i: int, times) -> np.ndarray:
        """A(t) of piece i for every t in times, as a (len(times), n, n)
        stack: a read-only broadcast of B on a constant piece.  On a
        sinusoidal piece each scale is profile(i, t), and each diagonal is
        minus the row sum of the scaled off-diagonal entries, not
        scale * B_kk, so each row sums to zero up to that one sum."""
        B = self.couplings[i]
        if self.constant[i]:
            return np.broadcast_to(B, (len(times),) + B.shape)
        out = B * self.profile(i, times)[:, None, None]
        diag = np.arange(out.shape[1])
        out[:, diag, diag] = 0.0
        out[:, diag, diag] = -out.sum(axis=2)
        return out


def build_schedule(
    segments: Iterable,
    bound: float | None = None,
    tol_row: float = DEFAULT_ROW_TOL,
) -> CouplingSchedule:
    """Assemble and validate a schedule from (t_start, t_end, coupling)
    pieces, the coupling a matrix, a CouplingMatrix or a SinusoidalCoupling.

    Segments must have positive length, agree on the matrix size, and be
    contiguous and non-overlapping once sorted by start.  The plain matrices
    are validated as one stack; a CouplingMatrix is valid already, and a
    sinusoidal piece is c(t) B with c >= 0.  The pieces' entry bounds
    (max|B|, times 1 + |depth| on sinusoidal pieces) must not exceed a
    declared ``bound``; when omitted, their maximum is declared.
    """
    pieces = []
    for t0, t1, gen in segments:
        sinusoid = isinstance(gen, SinusoidalCoupling)
        plain = not (sinusoid or isinstance(gen, CouplingMatrix))
        B = (gen.coupling.entries if sinusoid else
             _as_matrices(gen, (2,)) if plain else gen.entries)
        if not (t1 > t0):
            raise ScheduleError(f"segment [{t0}, {t1}] has non-positive length")
        pieces.append((float(t0), float(t1), B, gen.depth if sinusoid else 0.0,
                       gen.period if sinusoid else 1.0, not sinusoid, plain))
    if not pieces:
        raise ScheduleError("schedule needs at least one segment")
    if len({piece[2].shape for piece in pieces}) > 1:
        raise ScheduleError("segments disagree on the matrix size")
    plain = [piece[2] for piece in pieces if piece[6]]
    if plain:
        validate_coupling_matrix(np.stack(plain), tol_row)
    pieces.sort(key=lambda piece: piece[0])
    starts, ends, couplings, depths, periods, constant, _ = map(
        np.array, zip(*pieces))
    join_tol = 1e-9 * max(1.0, ends[-1] - starts[0])
    gaps = np.flatnonzero(np.abs(starts[1:] - ends[:-1]) > join_tol)
    if len(gaps):
        i = gaps[0] + 1
        raise ScheduleError(
            f"segment starting at {starts[i].item()} does not join the previous "
            f"segment ending at {ends[i - 1].item()}")
    peaks = (1.0 + np.abs(depths)) * np.abs(couplings).max(axis=(1, 2))
    observed = float(peaks.max())
    if bound is None:
        bound = observed
    elif observed > bound * (1.0 + 1e-12) + 1e-12:
        raise ScheduleError(
            f"observed entry bound {observed} exceeds the declared bound {bound}")
    return CouplingSchedule(starts, ends, couplings, depths, periods, constant,
                            float(bound), tol_row)


def constant_schedule(
    matrix, t_start: float, t_end: float, tol_row: float = DEFAULT_ROW_TOL
) -> CouplingSchedule:
    """Single-segment schedule holding one matrix on [t_start, t_end]."""
    return build_schedule([(t_start, t_end, matrix)], tol_row=tol_row)


def _locate_piece(schedule: CouplingSchedule, t: float) -> int:
    t0, t1 = schedule.horizon
    edge = 1e-12 * max(1.0, abs(t0), abs(t1))
    if t < t0 - edge or t > t1 + edge:
        raise OutOfHorizon(f"t = {t!r} outside schedule horizon [{t0}, {t1}]")
    t = min(max(t, t0), t1)
    # Right-continuity: t equal to a breakpoint selects the later segment;
    # the final endpoint falls to the last segment, which closes the horizon.
    return max(bisect.bisect_right(schedule.starts.tolist(), t) - 1, 0)


def evaluate_schedule(schedule: CouplingSchedule, t: float) -> CouplingMatrix:
    """Evaluate A(t); right-continuous at breakpoints."""
    i = _locate_piece(schedule, t)
    if schedule.constant[i]:
        return CouplingMatrix(n=schedule.n, entries=schedule.couplings[i],
                              tol_row=schedule.tol_row)
    return validate_coupling_matrix(schedule.entries_over(i, [t])[0],
                                    tol_row=schedule.tol_row)


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
    total = np.zeros((len(starts), schedule.n, schedule.n))
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
            rows = np.flatnonzero(live)
            total[rows] += schedule.couplings[k[rows]] * w[rows, None, None]
    # The integral of a valid coupling map is itself a valid coupling matrix,
    # up to rounding proportional to the window; the floor of 1e-9 absorbs
    # the rounding of a sum over many pieces when a caller sets tol_row below
    # it.  A window with a non-finite entry, which only overflow can produce,
    # is always bad.
    validate_coupling_matrix(
        total, tol_row=max(schedule.tol_row * max(1.0, T), 1e-9))
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
    return _as_matrices(matrix, (2,))
