"""Validation, schedules, and window integrals.

Expected integral values are hand-derived closed forms or trapezoid
refinements computed independently of the adaptive Simpson code.
"""

import math

import numpy as np
import pytest

from consensus_lab import (
    NegativeOffDiagonal,
    NegativeWeight,
    NonFiniteEntry,
    OutOfHorizon,
    RowSumViolation,
    ScheduleError,
    TimeVaryingCoupling,
    build_schedule,
    constant_schedule,
    evaluate_schedule,
    from_offdiagonal,
    integrate_schedule,
    integrate_windows,
    validate_coupling_matrix,
    window_connectivity_report,
)
from consensus_lab.scenario_cli import SinusoidalCoupling

from conftest import (brute_first_negative, brute_window_integral,
                      chain_matrix, random_metzler)


class TestValidation:
    def test_accepts_zero_row_sum_metzler(self):
        m = validate_coupling_matrix(chain_matrix())
        assert m.n == 2
        assert np.array_equal(m.entries, chain_matrix())

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
        assert np.allclose(np.diag(m.entries), [-3.0, -0.5, -3.0])
        assert np.allclose(m.entries.sum(axis=1), 0.0)

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
            assert np.allclose(m.entries.sum(axis=1), 0.0, atol=1e-10)


class TestSchedules:
    def test_constant_schedule_roundtrip(self):
        sch = constant_schedule(chain_matrix(), 0.0, 4.0)
        assert sch.horizon == (0.0, 4.0)
        assert np.array_equal(evaluate_schedule(sch, 1.7).entries,
                              chain_matrix())

    def test_right_continuity_at_breakpoint(self):
        a = chain_matrix()
        b = 2.0 * chain_matrix()
        sch = build_schedule([(0.0, 1.0, a), (1.0, 3.0, b)])
        assert np.array_equal(evaluate_schedule(sch, 1.0).entries, b)

    def test_rejects_gap(self):
        a = chain_matrix()
        with pytest.raises(ScheduleError):
            build_schedule([(0.0, 1.0, a), (1.5, 2.0, a)])

    def test_rejects_overlap(self):
        a = chain_matrix()
        with pytest.raises(ScheduleError):
            build_schedule([(0.0, 1.0, a), (0.5, 2.0, a)])

    def test_rejects_declared_bound_below_observed(self):
        with pytest.raises(ScheduleError):
            build_schedule([(0.0, 1.0, chain_matrix())], bound=0.5)

    def test_out_of_horizon(self):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        with pytest.raises(OutOfHorizon):
            evaluate_schedule(sch, 2.0)


class TestWindowIntegrals:
    def test_constant_piece_is_exact(self):
        sch = constant_schedule(chain_matrix(), 0.0, 10.0)
        w = integrate_schedule(sch, 1.0, 2.5)
        assert np.array_equal(w.entries, 2.5 * chain_matrix())

    def test_alternating_pair_window(self):
        # each leader holds for 1 time unit; over T = 2 both directions
        # integrate to exactly the weight
        a = np.array([[0.0, 0.0], [1.0, -1.0]])
        b = np.array([[-1.0, 1.0], [0.0, 0.0]])
        sch = build_schedule([(0.0, 1.0, a), (1.0, 2.0, b)])
        w = integrate_schedule(sch, 0.0, 2.0)
        assert w.entries[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert w.entries[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_window_spanning_many_segments(self, rng):
        mats = [random_metzler(rng, 3) for _ in range(6)]
        sch = build_schedule(
            [(i * 0.5, (i + 1) * 0.5, m) for i, m in enumerate(mats)])
        w = integrate_schedule(sch, 0.25, 2.0)
        expected = (0.25 * mats[0] + 0.5 * (mats[1] + mats[2] + mats[3])
                    + 0.25 * mats[4])
        assert np.allclose(w.entries, expected, atol=1e-12)

    def test_sinusoidal_closed_form(self):
        # int_0^(1/2) (1 + 0.5 sin 2 pi t) dt = 1/2 + 1/(2 pi)
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        family = SinusoidalCoupling(base, depth=0.5, period=1.0)
        sch = build_schedule([(0.0, 2.0, family)])
        w = integrate_schedule(sch, 0.0, 0.5)
        expected = 0.5 + 1.0 / (2.0 * math.pi)
        assert w.entries[0, 1] == pytest.approx(expected, abs=1e-9)
        assert w.entries[1, 0] == pytest.approx(expected, abs=1e-9)
        assert w.entries[0, 0] == pytest.approx(-expected, abs=1e-9)

    def test_quadrature_against_trapezoid_refinement(self, rng):
        base = random_metzler(rng, 4).copy()
        np.fill_diagonal(base, 0.0)
        family = SinusoidalCoupling(base, depth=0.9, period=0.7)
        sch = build_schedule([(0.0, 5.0, family)])
        a, b = 0.3, 3.9
        w = integrate_schedule(sch, a, b - a)
        grid = np.linspace(a, b, 20001)
        vals = np.stack([family.entries_at(t) for t in grid])
        oracle = np.trapezoid(vals, grid, axis=0)
        assert np.max(np.abs(w.entries - oracle)) < 1e-8

    def test_integrated_rows_sum_to_zero(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sch = build_schedule(
                [(i * 1.0, (i + 1) * 1.0, random_metzler(rng, n))
                 for i in range(4)])
            t = float(rng.uniform(0.0, 2.0))
            T = float(rng.uniform(0.5, 2.0))
            w = integrate_schedule(sch, t, T)
            assert np.allclose(w.entries.sum(axis=1), 0.0, atol=1e-9)
            assert w.duration == pytest.approx(T)

    def test_window_outside_horizon(self):
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        with pytest.raises(OutOfHorizon):
            integrate_schedule(sch, 1.0, 2.0)


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


class _Ripple(TimeVaryingCoupling):
    """Pair coupling (1 - 3 sin(2 pi t / period)) [[-1, 1], [1, -1]].

    Non-negative at every multiple of the period, where a piece of eleven
    periods is sampled when built, but negative on each first half-period.
    """

    def __init__(self, period):
        self.period = period

    def entries_at(self, t):
        w = 1.0 - 3.0 * math.sin(2.0 * math.pi * t / self.period)
        return np.array([[-w, w], [w, -w]])


class TestWindowStack:
    """integrate_windows against the one-window segment loop, bit for bit."""

    @pytest.mark.parametrize("kind", ["constant", "sinusoidal", "mixed"])
    def test_matches_segment_loop_exactly(self, rng, kind):
        t_end = 4.0
        for n in (1, 3):
            sch = _random_schedule(rng, n, kind, t_end)
            breaks = list(sch.start_times[1:])
            for T in (0.37, 1.0, 2.0):
                # Random starts, windows that start and end on a breakpoint,
                # and the scan's grid with its extra last start.
                starts = rng.uniform(0.0, t_end - T, 10).tolist()
                starts += [b for b in breaks if b <= t_end - T]
                starts += [b - T for b in breaks if b >= T]
                starts += window_connectivity_report(
                    sch, 0.1, T).window_starts
                stack = integrate_windows(sch, starts, T)
                assert stack.shape == (len(starts), n, n)
                for t, window in zip(starts, stack):
                    assert np.array_equal(
                        window, brute_window_integral(sch, t, T))

    def test_single_window_is_integrate_schedule(self, rng):
        sch = _random_schedule(rng, 3, "mixed", 4.0)
        w = integrate_schedule(sch, 0.5, 2.0)
        assert np.array_equal(w.entries, integrate_windows(sch, [0.5], 2.0)[0])
        assert w.window == (0.5, 2.5)

    def test_no_windows(self):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        assert integrate_windows(sch, [], 0.5).shape == (0, 2, 2)

    def test_first_bad_window_raises_the_loop_error(self):
        period = 1.0
        sch = build_schedule([(0.0, 11.0 * period, _Ripple(period))])
        # [0.5, 1] integrates to a positive weight, [0, 0.5] and [2, 2.5]
        # to negative ones; the first of those in the given order is named.
        starts = [0.5, 2.0, 0.0]
        with pytest.raises(NegativeOffDiagonal) as batched:
            integrate_windows(sch, starts, 0.5 * period)
        with pytest.raises(NegativeOffDiagonal) as loop:
            brute_window_integral(sch, 2.0, 0.5 * period)
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
