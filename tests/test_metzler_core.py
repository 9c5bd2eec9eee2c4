"""Validation, schedules, and window integrals.

Expected integral values are hand-derived closed forms, adaptive Simpson
quadrature or trapezoid refinements of the per-time coupling
(conftest.scaled_coupling), computed independently of the closed-form
profile integrals.
"""

import math
import tracemalloc

import numpy as np
import pytest

from consensus_lab import (
    ConsensusLabError,
    InvalidSpec,
    NegativeOffDiagonal,
    NegativeWeight,
    NonFiniteEntry,
    OutOfHorizon,
    RowSumViolation,
    ScheduleError,
    build_schedule,
    constant_schedule,
    from_offdiagonal,
    integrate_schedule,
    integrate_windows,
    schedule_from_arrays,
    validate_coupling_matrix,
    window_connectivity_report,
)
import consensus_lab
from consensus_lab import metzler_core
from consensus_lab.scenario_cli import SinusoidalCoupling

from conftest import (brute_first_negative, brute_window_integral,
                      chain_matrix, coupling_at, profile_at,
                      quadrature_window_integral, random_metzler,
                      scaled_coupling)


def family_at(family, t):
    """A(t) of a SinusoidalCoupling, one matrix at a time."""
    return scaled_coupling(family.coupling, family.depth,
                           family.period, t)


class TestValidation:
    def test_accepts_zero_row_sum_metzler(self):
        m = validate_coupling_matrix(chain_matrix())
        assert m.shape == (2, 2)
        assert np.array_equal(m, chain_matrix())

    def test_rejects_negative_off_diagonal(self):
        bad = np.array([[1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(NegativeOffDiagonal) as err:
            validate_coupling_matrix(bad)
        assert err.value.k == 1 and err.value.l == 2

    @pytest.mark.parametrize("entries, value", [
        ([[math.nan, 1.0], [1.0, -1.0]], math.nan),
        ([[-math.inf, math.inf], [0.0, 0.0]], -math.inf),
    ])
    def test_rejects_non_finite_entries(self, entries, value):
        # Both pass the sign and row-sum checks on their own: the first row
        # sums to NaN, which compares false, and an infinity makes the
        # scaled row tolerance infinite.
        for build in (validate_coupling_matrix,
                      lambda m: constant_schedule(m, 0.0, 1.0)):
            with pytest.raises(NonFiniteEntry) as err:
                build(entries)
            assert (err.value.k, err.value.l) == (1, 1)
            assert str(err.value) == f"entry (1,1) = {value!r} is not finite"

    def test_first_non_finite_entry_is_reported(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            entries = rng.choice([-1.0, 0.0, 1.0, math.nan, math.inf, -math.inf],
                                 (n, n), p=[0.2, 0.3, 0.3, 0.1, 0.05, 0.05])
            first = next(((k + 1, l + 1) for k in range(n) for l in range(n)
                          if not math.isfinite(entries[k][l])), None)
            if first is None:
                continue
            # Before any negative off-diagonal entry, wherever that is.
            with pytest.raises(NonFiniteEntry) as err:
                validate_coupling_matrix(entries)
            assert (err.value.k, err.value.l) == first

    def test_first_negative_entry_is_reported(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            entries = rng.choice([-1.0, 0.0, 1.0, 2.0], (n, n), p=[0.1, 0.5, 0.2, 0.2])
            np.fill_diagonal(entries, 0.0)
            first = brute_first_negative(entries)
            if first is None:
                continue
            with pytest.raises(NegativeWeight, match=r"\(%d,%d\)" % first):
                from_offdiagonal(entries)
            np.fill_diagonal(entries, -1.0)
            with pytest.raises(NegativeOffDiagonal) as err:
                validate_coupling_matrix(entries)
            assert (err.value.k, err.value.l) == first

    def test_rejects_row_sum_violation(self):
        bad = np.array([[-1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(RowSumViolation) as err:
            validate_coupling_matrix(bad)
        assert err.value.k == 1

    def test_row_tolerance_scales_with_magnitude(self):
        big = 1e8
        entries = np.array([[-big, big + 1e-6], [0.0, 0.0]])
        validate_coupling_matrix(entries)

    def test_from_offdiagonal_builds_diagonal(self):
        off = np.array([[0.0, 2.0, 1.0],
                        [0.5, 0.0, 0.0],
                        [0.0, 3.0, 0.0]])
        m = from_offdiagonal(off)
        assert np.allclose(np.diag(m), [-3.0, -0.5, -3.0])
        assert np.allclose(m.sum(axis=1), 0.0)

    def test_from_offdiagonal_rejects_negative_weight(self):
        off = np.array([[0.0, -0.1], [0.0, 0.0]])
        with pytest.raises(NegativeWeight):
            from_offdiagonal(off)

    def test_from_offdiagonal_rejects_nonzero_diagonal(self):
        off = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            from_offdiagonal(off)

    def test_random_matrices_validate(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            entries = random_metzler(rng, n)
            m = validate_coupling_matrix(entries)
            assert np.allclose(m.sum(axis=1), 0.0, atol=1e-10)


def _error_of(call, *args):
    """(type, message) of what call(*args) raises, or None."""
    try:
        call(*args)
    except (ValueError, ConsensusLabError) as exc:
        return type(exc), str(exc)
    return None


def _first_error(build, pieces):
    """_error_of the first piece that build rejects, one at a time."""
    return next(filter(None, (_error_of(build, piece) for piece in pieces)),
                None)


def _faulty_stack(rng, k, n):
    """k zero-row-sum matrices, and their off-diagonal weights, with faults
    injected into some: NaN, +-inf, a negative off-diagonal entry (a
    negative weight), a non-zero weight diagonal, or a row-sum violation."""
    weights = rng.uniform(0.1, 2.0, (k, n, n)) * (rng.random((k, n, n)) < 0.7)
    weights[:, range(n), range(n)] = 0.0
    mats = from_offdiagonal(weights).copy()
    for i in range(k):
        for _ in range(int(rng.integers(0, 3))):
            r, c = rng.integers(0, n, 2)
            kind = rng.integers(0, 5)
            if kind == 0:
                value = math.nan
            elif kind == 1:
                value = math.inf if rng.random() < 0.5 else -math.inf
            elif kind == 2:
                value = -float(rng.uniform(0.1, 1.0))
            elif kind == 3:
                c = r   # a non-zero weight diagonal
                value = float(rng.uniform(0.1, 1.0))
            else:
                mats[i, r, c] += 1e-6   # the weights' rows are rebalanced
                continue
            mats[i, r, c] = value
            weights[i, r, c] = value
    return mats, weights


class TestStackedValidation:
    """A stack raises what checking its matrices one at a time raises."""

    def test_validate_stack_matches_one_at_a_time(self, rng):
        raised = set()
        for _ in range(400):
            k, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            mats, _ = _faulty_stack(rng, k, n)
            expected = _first_error(validate_coupling_matrix, mats)
            assert _error_of(validate_coupling_matrix, mats) == expected
            pieces = [(float(i), i + 1.0, m) for i, m in enumerate(mats)]
            assert _error_of(build_schedule, pieces) == expected
            raised.add(expected and expected[0])
        assert raised >= {None, NonFiniteEntry, NegativeOffDiagonal,
                          RowSumViolation}

    def test_from_offdiagonal_stack_matches_one_at_a_time(self, rng):
        raised = set()
        for _ in range(400):
            k, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            _, weights = _faulty_stack(rng, k, n)
            expected = _first_error(from_offdiagonal, weights)
            assert _error_of(from_offdiagonal, weights) == expected
            raised.add(expected and expected[0])
        assert raised >= {None, NonFiniteEntry, NegativeWeight, ValueError}

    def test_valid_stack_is_validated_matrix_by_matrix(self, rng):
        weights = rng.uniform(0.0, 2.0, (9, 17, 17))
        weights[:, range(17), range(17)] = 0.0
        stack = from_offdiagonal(weights)
        assert stack.shape == (9, 17, 17)
        for w, entries in zip(weights, stack):
            assert np.array_equal(entries, from_offdiagonal(w))
        assert np.array_equal(validate_coupling_matrix(stack), stack)
        for arr in (stack, from_offdiagonal(weights[0]),
                    validate_coupling_matrix(stack),
                    validate_coupling_matrix(chain_matrix())):
            assert not arr.flags.writeable

    def test_schedule_arrays_are_read_only(self, rng):
        sch = _random_schedule(rng, 3, "mixed", 4.0)
        for arr in (sch.starts, sch.ends, sch.couplings, sch.depths,
                    sch.periods, sch.constant):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert sch.couplings.shape == (8, 3, 3)
        assert sch.constant.tolist() == [True, False] * 4

    def test_the_check_holds_two_masks(self, rng):
        # A valid (k, n, n) stack: the check's temporaries peak at two
        # boolean masks of the stack's shape, 2 n^2 bytes a matrix, and a
        # few rows of n doubles; a third mask would pass 3 n^2.
        k, n = 20, 120
        weights = rng.uniform(0.0, 2.0, (k, n, n))
        weights[:, range(n), range(n)] = 0.0
        stack = from_offdiagonal(weights)
        tracemalloc.start()
        try:
            metzler_core._check(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * k * n * n < peak < 2.5 * k * n * n


class TestSchedules:
    @pytest.mark.parametrize("entry", [0.0, -0.0, 1e-13, -1e-13])
    def test_bound_keeps_the_bits_of_the_largest_magnitude(self, entry):
        # max(max B, -min B) of [[-0.0]] is -0.0 or 0.0 by the order of the
        # operands; the bound is |B|'s maximum, 0.0, either way.
        B = np.array([[[entry]]])
        want = np.abs(B).max().tobytes()
        for sch in (schedule_from_arrays([0.0], [1.0], B.copy()),
                    build_schedule([(0.0, 1.0, B[0])])):
            assert np.float64(sch.bound).tobytes() == want
        # A sinusoidal piece's diagonal is minus its empty off-diagonal sum.
        sch = schedule_from_arrays([0.0], [1.0], B.copy(), [0.5], [1.0],
                                   [False])
        assert sch.couplings.tobytes() == np.float64(-0.0).tobytes()
        assert np.float64(sch.bound).tobytes() == np.float64(0.0).tobytes()

    def test_the_array_constructor_keeps_its_stack(self, rng):
        stack = from_offdiagonal(rng.uniform(0.0, 1.0, (3, 4, 4))
                                 * (1.0 - np.eye(4))).copy()
        sch = schedule_from_arrays([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], stack)
        assert sch.couplings is stack and not stack.flags.writeable
        assert sch.constant.tolist() == [True] * 3
        assert sch.depths.tolist() == [0.0] * 3
        assert sch.periods.tolist() == [1.0] * 3

    @pytest.mark.parametrize("writeable", [False, True])
    def test_a_sinusoidal_piece_leaves_the_callers_stack_as_it_was(
            self, rng, writeable):
        # A checked stack is read-only; its diagonals, off by a rounding
        # from minus the off-diagonal sums, are neither written nor frozen.
        stack = validate_coupling_matrix(random_metzler(rng, 4)[None]
                                         .repeat(2, axis=0))
        if writeable:
            stack = stack.copy()
        before = stack.tobytes()
        sch = schedule_from_arrays([0.0, 1.0], [1.0, 2.0], stack,
                                   [0.0, 0.5], [1.0, 2.0], [True, False])
        assert stack.tobytes() == before
        assert stack.flags.writeable == writeable
        assert not np.shares_memory(sch.couplings, stack)
        assert sch.couplings[0].tobytes() == stack[0].tobytes()
        assert sch.couplings[1].tobytes() == metzler_core._fill_diagonal(
            stack[1:].copy()).tobytes()

    @pytest.mark.parametrize("args, kwargs, error, message", [
        (([0.0, 1.0], [1.0], [[[0.0]]]), {}, ScheduleError, "a start, end"),
        (([], [], np.zeros((0, 2, 2))), {}, ScheduleError,
         "at least one segment"),
        (([0.0, 2.0], [1.0, 2.0], [[[0.0]]] * 2), {}, ScheduleError,
         r"\[2\.0, 2\.0\] has non-positive length"),
        (([0.0, 1.0], [1.0, math.inf], [[[0.0]]] * 2), {}, ScheduleError,
         r"\[1\.0, inf\] has a non-finite end"),
        (([0.0], [1.0], [[[0.0]]]), {"periods": [2.0]}, ScheduleError,
         "a start, end, depth, period and constant flag"),
        (([0.0], [1.0], [[[0.0]]]), {"constant": [False]}, ScheduleError,
         "a start, end, depth, period and constant flag"),
        (([0.0], [1.0], [[[0.0]]]),
         {"depths": [1.5], "periods": [1.0], "constant": [False]},
         InvalidSpec, r"depth must lie in \[-1, 1\], got 1\.5"),
        (([0.0], [1.0], [[[0.0]]]),
         {"depths": [0.5], "periods": [0.0], "constant": [False]},
         InvalidSpec, "period must be positive, got 0.0"),
        (([0.0], [1.0], [[[0.0]]]),
         {"depths": [0.5], "periods": [1.0], "constant": [True]},
         ScheduleError, "a constant piece needs depth 0 and period 1"),
        (([0.0], [1.0], 1e308 * chain_matrix()[None]),
         {"depths": [1.0], "periods": [1.0], "constant": [False]},
         InvalidSpec, "entries reach inf at the profile peak"),
        (([0.0, 1.5], [1.0, 2.0], [[[0.0]]] * 2), {}, ScheduleError,
         "starting at 1.5 does not join"),
    ], ids=["lengths", "empty", "length", "non-finite", "periods-alone",
            "constant-alone", "depth", "period", "constant-with-a-profile",
            "bound", "gap"])
    def test_the_array_constructor_refuses(self, args, kwargs, error,
                                           message):
        starts, ends, couplings = args
        with pytest.raises(error, match=message):
            schedule_from_arrays(starts, ends, np.array(couplings, dtype=float),
                                 **kwargs)

    def test_constant_schedule_roundtrip(self):
        sch = constant_schedule(chain_matrix(), 0.0, 4.0)
        assert sch.horizon == (0.0, 4.0)
        assert np.array_equal(coupling_at(sch, 1.7), chain_matrix())

    def test_right_continuity_at_breakpoint(self):
        a = chain_matrix()
        b = 2.0 * chain_matrix()
        sch = build_schedule([(0.0, 1.0, a), (1.0, 3.0, b)])
        located = metzler_core._locate_piece(sch, np.array([1.0, 3.0]))
        assert located.tolist() == [1, 1]
        assert np.array_equal(coupling_at(sch, 1.0), b)

    def test_rejects_gap(self):
        a = chain_matrix()
        with pytest.raises(ScheduleError):
            build_schedule([(0.0, 1.0, a), (1.5, 2.0, a)])

    def test_rejects_overlap(self):
        a = chain_matrix()
        with pytest.raises(ScheduleError):
            build_schedule([(0.0, 1.0, a), (0.5, 2.0, a)])

    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 0.0),
                                        (0.0, math.nan), (1e308, 2e308)])
    def test_rejects_non_finite_segment_time(self, t0, t1):
        with pytest.raises(ScheduleError, match="non-finite"):
            constant_schedule(chain_matrix(), t0, t1)

    def test_out_of_horizon(self):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        with pytest.raises(OutOfHorizon):
            metzler_core._locate_piece(sch, np.array([2.0]))

    def test_arrays_of_times_locate_and_read_as_one_at_a_time(self, rng):
        # A given matrix keeps its own diagonal, here off minus its row sum
        # by a rounding.
        given = random_metzler(rng, 4).copy()
        given[0, 0] += 1e-14
        pieces = [random_metzler(rng, 4), _sinusoid(rng, 4, 0.5, 3.0), given,
                  _sinusoid(rng, 4, -0.8, 2.0)]
        sch = build_schedule([(float(i), i + 1.0, piece)
                              for i, piece in enumerate(pieces)])
        times = np.concatenate((sch.starts, sch.ends, [-1e-13, 4.0 + 1e-13],
                                rng.uniform(0.0, 4.0, 40)))
        # Piece i holds [i, i + 1), the last one its end too, and times
        # within the edge tolerance of the horizon fall to its end pieces.
        pieces = metzler_core._locate_piece(sch, times)
        assert pieces.tolist() == np.minimum(
            np.floor(np.clip(times, 0.0, 4.0)), 3.0).tolist()
        # Two times a row, each read on the row's piece.
        grid = np.stack((times, times[::-1]), axis=1)
        stack = sch.entries_over(pieces, grid)
        assert stack.shape == (len(times), 2, 4, 4)
        for i, row, entries in zip(pieces.tolist(), grid, stack):
            want = sch.entries_over(i, row)
            assert entries.tobytes() == np.ascontiguousarray(want).tobytes()
        held = np.flatnonzero(sch.constant)
        assert sch.entries_over(held, grid[:len(held)]).shape == (
            len(held), 2, 4, 4)
        with pytest.raises(OutOfHorizon, match=r"t = 4\.5 "):
            metzler_core._locate_piece(sch, np.array([1.0, 4.5, 5.0]))

    def test_inputs_are_copied_once_and_left_as_they_were(self, rng):
        weights = rng.uniform(0.0, 2.0, (5, 4, 4))
        weights[:, range(4), range(4)] = 0.0
        before = weights.copy()
        stack = from_offdiagonal(weights)
        assert weights.flags.writeable and np.array_equal(weights, before)
        assert not np.shares_memory(stack, weights)
        entries = stack[0].copy()
        checked = validate_coupling_matrix(entries)
        assert entries.flags.writeable and not np.shares_memory(checked,
                                                                 entries)
        # Segments given out of order: the schedule's one copy is sorted.
        sch = build_schedule([(1.0, 2.0, stack[1]), (0.0, 1.0, entries),
                              (2.0, 3.0, stack[2])])
        assert sch.starts.tolist() == [0.0, 1.0, 2.0]
        assert np.array_equal(sch.couplings, stack[:3])
        assert sch.constant.tolist() == [True] * 3
        for arr in (entries, stack):
            assert not np.shares_memory(sch.couplings, arr)


class TestWindowIntegrals:
    def test_constant_piece_is_exact(self):
        sch = constant_schedule(chain_matrix(), 0.0, 10.0)
        w = integrate_schedule(sch, 1.0, 2.5)
        assert np.array_equal(w, 2.5 * chain_matrix())

    def test_alternating_pair_window(self):
        # each leader holds for 1 time unit; over T = 2 both directions
        # integrate to exactly the weight
        a = np.array([[0.0, 0.0], [1.0, -1.0]])
        b = np.array([[-1.0, 1.0], [0.0, 0.0]])
        sch = build_schedule([(0.0, 1.0, a), (1.0, 2.0, b)])
        w = integrate_schedule(sch, 0.0, 2.0)
        assert w[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert w[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_window_spanning_many_segments(self, rng):
        mats = [random_metzler(rng, 3) for _ in range(6)]
        sch = build_schedule(
            [(i * 0.5, (i + 1) * 0.5, m) for i, m in enumerate(mats)])
        w = integrate_schedule(sch, 0.25, 2.0)
        expected = (0.25 * mats[0] + 0.5 * (mats[1] + mats[2] + mats[3])
                    + 0.25 * mats[4])
        assert np.allclose(w, expected, atol=1e-12)

    def test_sinusoidal_closed_form(self):
        # int_0^(1/2) (1 + 0.5 sin 2 pi t) dt = 1/2 + 1/(2 pi)
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        family = SinusoidalCoupling(base, depth=0.5, period=1.0)
        sch = build_schedule([(0.0, 2.0, family)])
        w = integrate_schedule(sch, 0.0, 0.5)
        expected = 0.5 + 1.0 / (2.0 * math.pi)
        assert w[0, 1] == pytest.approx(expected, abs=1e-9)
        assert w[1, 0] == pytest.approx(expected, abs=1e-9)
        assert w[0, 0] == pytest.approx(-expected, abs=1e-9)

    def test_quadrature_against_trapezoid_refinement(self, rng):
        base = random_metzler(rng, 4).copy()
        np.fill_diagonal(base, 0.0)
        family = SinusoidalCoupling(base, depth=0.9, period=0.7)
        sch = build_schedule([(0.0, 5.0, family)])
        a, b = 0.3, 3.9
        w = integrate_schedule(sch, a, b - a)
        grid = np.linspace(a, b, 20001)
        vals = np.stack([family_at(family, t) for t in grid])
        widths = np.diff(grid)[:, None, None]
        oracle = np.sum(widths * (vals[:-1] + vals[1:]) / 2.0, axis=0)
        assert np.max(np.abs(w - oracle)) < 1e-8

    def test_integrated_rows_sum_to_zero(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sch = build_schedule(
                [(i * 1.0, (i + 1) * 1.0, random_metzler(rng, n))
                 for i in range(4)])
            t = float(rng.uniform(0.0, 2.0))
            T = float(rng.uniform(0.5, 2.0))
            w = integrate_schedule(sch, t, T)
            assert np.allclose(w.sum(axis=1), 0.0, atol=1e-9)

    def test_window_outside_horizon(self):
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        with pytest.raises(OutOfHorizon):
            integrate_schedule(sch, 1.0, 2.0)

    @pytest.mark.parametrize("kind", ["sinusoidal", "mixed"])
    def test_closed_form_matches_quadrature(self, rng, kind):
        for n in (1, 3):
            sch = _random_schedule(rng, n, kind, 4.0)
            for T in (0.37, 1.0, 2.0, 4.0):
                starts = rng.uniform(0.0, 4.0 - T, 5)
                for t, window in zip(starts, integrate_windows(sch, starts, T)):
                    np.testing.assert_allclose(
                        window, quadrature_window_integral(sch, t, T),
                        rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("depth", [-1.0, 1.0])
    def test_tiny_windows_at_full_depth(self, rng, depth):
        # At |depth| = 1 the profile vanishes once per period; windows
        # centred there integrate to about L^3, far below the rounding of
        # L, and must come out non-negative.
        period = 1.3
        family = _sinusoid(rng, 3, depth, period)
        sch = build_schedule([(0.0, 60.0 * period, family)])
        zero = (0.75 if depth > 0 else 0.25) * period
        off = ~np.eye(3, dtype=bool)
        for L in 10.0 ** -np.arange(1.0, 16.0):
            centres = zero + period * rng.integers(0, 59, 40)
            starts = np.concatenate([centres - 0.5 * L,
                                     rng.uniform(0.0, 59.0 * period, 10)])
            stack = integrate_windows(sch, starts, L)
            assert (stack[:, off] >= 0.0).all()
            for t, window in zip(starts, stack):
                np.testing.assert_allclose(
                    window, quadrature_window_integral(sch, t, L),
                    rtol=0.0, atol=1e-10)


def _random_schedule(rng, n, kind, t_end):
    """Pieces at random breakpoints: constant, sinusoidal, or both in turn."""
    cuts = np.sort(rng.uniform(0.0, t_end, 7))
    edges = [0.0, *cuts.tolist(), t_end]
    pieces = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        entries = random_metzler(rng, n, density=0.7)
        if kind == "sinusoidal" or (kind == "mixed" and i % 2):
            base = entries.copy()
            np.fill_diagonal(base, 0.0)
            entries = SinusoidalCoupling(base, depth=float(rng.uniform(-1, 1)),
                                         period=float(rng.uniform(1.0, 4.0)))
        pieces.append((lo, hi, entries))
    return build_schedule(pieces)


def _sinusoid(rng, n, depth, period):
    base = random_metzler(rng, n, density=0.7).copy()
    np.fill_diagonal(base, 0.0)
    return SinusoidalCoupling(base, depth=depth, period=period)


class TestSinusoidalCoupling:
    def test_importable_from_package_and_scenario_layer(self):
        assert consensus_lab.SinusoidalCoupling is SinusoidalCoupling
        assert metzler_core.SinusoidalCoupling is SinusoidalCoupling

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_base_is_rejected(self, value):
        with pytest.raises(NonFiniteEntry):
            SinusoidalCoupling([[0.0, value], [1.0, 0.0]], depth=0.5, period=1.0)

    def test_bound_covers_entries_and_is_attained_over_a_period(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            depth = float(rng.uniform(-1.0, 1.0))
            period = float(rng.uniform(0.5, 3.0))
            family = _sinusoid(rng, n, depth, period)
            t0 = float(rng.uniform(-5.0, 5.0))
            # A dense grid over one period, plus the times where
            # sin(2 pi t / P) is exactly 1 and -1.
            first = math.ceil(t0 / period - 0.25) + 0.25
            extremes = [(first + j) * period for j in (0.0, 0.5)]
            grid = np.concatenate([np.linspace(t0, t0 + period, 2001), extremes])
            observed = max(float(np.max(np.abs(family_at(family, t))))
                           for t in grid)
            # Within the relative 1e-12 that build_schedule grants a
            # declared bound: the diagonal of A(t) is a rounded row sum.
            assert observed <= family.bound * (1.0 + 1e-12)
            assert observed >= family.bound * (1.0 - 1e-12)
            sch = build_schedule([(t0, t0 + period, family)])
            assert sch.bound == family.bound

    def test_stacked_entries_match_per_time_form(self, rng):
        # Sizes past numpy's 8-way unrolled row sums; grid times as the
        # stage loop passes them (numpy floats) and plain floats.
        for n in (1, 2, 7, 8, 9, 17, 40):
            family = _sinusoid(rng, n, float(rng.uniform(-1.0, 1.0)),
                               float(rng.uniform(0.5, 3.0)))
            sch = build_schedule([(-50.0, 50.0, family)])
            times = np.sort(rng.uniform(-50.0, 50.0, 40))
            stack = sch.entries_over(0, times)
            assert stack.shape == (40, n, n) and stack.flags.c_contiguous
            for t, entries in zip(times, stack):
                assert np.array_equal(entries, family_at(family, t))
                assert np.array_equal(entries, family_at(family, float(t)))
                assert np.array_equal(entries, coupling_at(sch, float(t)))
        const = build_schedule([(0.0, 1.0, random_metzler(rng, 4))])
        view = const.entries_over(0, times[:5])
        assert view.shape == (5, 4, 4)
        assert all(np.array_equal(e, const.couplings[0]) for e in view)


    def test_profile_is_math_sin_bit_for_bit(self, rng):
        # The numpy profile against conftest.profile_at, math.sin on Python
        # floats: a platform whose np.sin rounds otherwise fails here.
        times = np.concatenate([np.linspace(-1e6, 1e6, 100_001),
                                rng.uniform(-1e6, 1e6, 20_000),
                                rng.uniform(-10.0, 10.0, 20_000)])
        depths = (1.0, -1.0, 0.37, -0.82, 1e-3)
        periods = (1.0, 0.7, 3.0, 2.0 ** -5, 12345.6)
        sch = build_schedule([
            (float(i), i + 1.0,
             SinusoidalCoupling([[0.0, 1.0], [1.0, 0.0]], depth, period))
            for i, (depth, period) in enumerate(zip(depths, periods))])
        for i, (depth, period) in enumerate(zip(depths, periods)):
            want = np.array([profile_at(depth, period, t)
                             for t in times.tolist()])
            assert sch.profile(i, times).tobytes() == want.tobytes()


class TestWindowStack:
    """integrate_windows against the one-window segment loop, bit for bit."""

    @pytest.mark.parametrize("kind", ["constant", "sinusoidal", "mixed"])
    def test_matches_segment_loop_exactly(self, rng, kind):
        t_end = 4.0
        for n in (1, 3):
            sch = _random_schedule(rng, n, kind, t_end)
            breaks = sch.starts[1:].tolist()
            for T in (0.37, 1.0, 2.0):
                # Random starts, windows that start and end on a breakpoint,
                # and the scan's grid with its extra last start.
                starts = rng.uniform(0.0, t_end - T, 10).tolist()
                starts += [b for b in breaks if b <= t_end - T]
                starts += [b - T for b in breaks if b >= T]
                starts += window_connectivity_report(
                    sch, 0.1, T).window_starts.tolist()
                stack = integrate_windows(sch, starts, T)
                assert stack.shape == (len(starts), n, n)
                for t, window in zip(starts, stack):
                    assert np.array_equal(
                        window, brute_window_integral(sch, t, T))

    def test_single_window_is_integrate_schedule(self, rng):
        sch = _random_schedule(rng, 3, "mixed", 4.0)
        w = integrate_schedule(sch, 0.5, 2.0)
        assert np.array_equal(w, integrate_windows(sch, [0.5], 2.0)[0])
        assert not w.flags.writeable

    def test_no_windows(self):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        assert integrate_windows(sch, [], 0.5).shape == (0, 2, 2)

    def test_first_bad_window_raises_the_loop_error(self):
        # Weights of 1e308 in row 2 on [0, 2) and in row 3 on [4, 6): a
        # window holding more than one time unit of either overflows, and
        # names a row-2 or a row-3 entry.  [2, 4] is harmless.  The first bad
        # window in the given order is named.
        off = np.zeros((3, 3))
        off[0, 1] = 1.0
        rows = []
        for k in (1, 2):
            heavy = off.copy()
            heavy[k, 0] = 1e308
            rows.append(from_offdiagonal(heavy))
        sch = build_schedule([(0.0, 2.0, rows[0]), (2.0, 4.0, from_offdiagonal(off)),
                              (4.0, 6.0, rows[1])])
        starts = [2.0, 4.05, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteEntry) as batched:
                integrate_windows(sch, starts, 1.9)
            with pytest.raises(NonFiniteEntry) as loop:
                brute_window_integral(sch, 4.05, 1.9)
        assert (batched.value.k, batched.value.l) == (3, 1)
        assert str(batched.value) == str(loop.value)

    def test_overflowing_window_is_flagged(self):
        # Weights of 1e308 over [0, 2): a window holding more than one time
        # unit of them integrates to infinities, which the stack check must
        # reject as the window loop does, not clip or let through.
        pair = np.array([[-1.0, 1.0], [1.0, -1.0]])
        sch = build_schedule([(0.0, 2.0, 1e308 * pair), (2.0, 4.0, pair)])
        with np.errstate(over="ignore", invalid="ignore"):
            stack = integrate_windows(sch, [2.05, 1.0], 1.9)
            assert np.isfinite(stack).all()
            with pytest.raises(NonFiniteEntry) as batched:
                integrate_windows(sch, [2.05, 0.0, 1.0], 1.9)
            with pytest.raises(NonFiniteEntry) as loop:
                brute_window_integral(sch, 0.0, 1.9)
        assert str(batched.value) == str(loop.value)

    def test_window_outside_horizon_names_the_first(self):
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        with pytest.raises(OutOfHorizon) as batched:
            integrate_windows(sch, [0.0, 1.5, 3.0], 1.0)
        with pytest.raises(OutOfHorizon) as loop:
            brute_window_integral(sch, 1.5, 1.0)
        assert str(batched.value) == str(loop.value)
