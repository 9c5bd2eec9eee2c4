"""Integrators and trajectory machinery.

Expected values are closed forms. For the delayed pair the method of
steps was run by hand: with x0 = (1, -1) and unit weights the difference
d = x1 - x2 starts at 2 and obeys d' = -d - d(t - tau), so on [0, tau]
d(t) = 4 e^{-t} - 2, and carrying the variation-of-constants formula one
window further (tau = 1) gives d(2) = 4 e^{-2} - 8 e^{-1} + 2. With the
fully delayed variant d' = -2 d(t - tau) the windows are polynomials:
d(t) = 2 - 4t on [0, tau], then d(tau) - 4 v + 4 v^2 at v = t - tau.
"""

import contextlib
import itertools
import math
import warnings

import numpy as np
import pytest

from consensus_lab import (
    DelayHistory,
    HistoryGap,
    OutOfHorizon,
    StepTooLargeWarning,
    Trajectory,
    WindowNotCovered,
    build_schedule,
    constant_schedule,
    delayed_functional_series,
    generate_topology,
    interpolate_state,
    monotonicity_from_series,
    simulate_dde,
    simulate_ode,
    spread_series,
)
from consensus_lab.dynamics import (_BLOCK_ENTRIES, _RK4_DISC_RADIUS,
                                    _NodeStore, _drives, _march, _pieces)
from consensus_lab.scenario_cli import SinusoidalCoupling

from conftest import (BruteStore, brute_delayed_functional_series, brute_march,
                      brute_pieces, brute_simulate_dde, brute_simulate_ode,
                      chain_matrix, piece_rhs, random_metzler, split_delay,
                      symmetric_pair)


def rk4_amplification(z):
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def _assert_same_bytes(got, want):
    """Equal to the bit: array_equal would let -0.0 pass for 0.0 and, with
    equal_nan, one NaN for another."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestOde:
    def test_chain_decay_closed_form(self):
        sch = constant_schedule(chain_matrix(), 0.0, 5.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 5.0)
        for t in (0.5, 1.0, 3.0, 5.0):
            x = interpolate_state(traj, t)
            assert x[0] == pytest.approx(math.exp(-t), abs=1e-6)
            assert x[1] == 0.0

    def test_chain_decay_small_step_precision(self):
        sch = constant_schedule(chain_matrix(), 0.0, 5.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 5.0, step=0.005)
        for t in (0.5, 1.0, 3.0, 5.0):
            x = interpolate_state(traj, t)
            assert x[0] == pytest.approx(math.exp(-t), abs=1e-10)

    def test_chain_approach_closed_form(self):
        sch = constant_schedule(chain_matrix(), 0.0, 4.0)
        traj = simulate_ode(sch, [0.0, 5.0], 0.0, 4.0)
        x = interpolate_state(traj, 2.0)
        assert x[0] == pytest.approx(5.0 * (1.0 - math.exp(-2.0)), abs=1e-6)
        assert x[1] == pytest.approx(5.0)

    def test_symmetric_pair_closed_form(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_ode(sch, [1.0, -1.0], 0.0, 3.0)
        for t in (0.7, 1.9, 3.0):
            x = interpolate_state(traj, t)
            assert x[0] == pytest.approx(math.exp(-2.0 * t), abs=1e-5)
            assert x[1] == pytest.approx(-math.exp(-2.0 * t), abs=1e-5)

    def test_nodes_land_on_breakpoints(self):
        sch = build_schedule([(0.0, 1.0, chain_matrix()),
                              (1.0, 2.3, 2.0 * chain_matrix())])
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 2.3, step=0.3)
        assert 1.0 in traj.times.tolist()
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(2.3)
        assert np.all(np.diff(traj.times) > 0.0)

    def test_one_sided_derivatives_differ_at_switch(self):
        sch = build_schedule([(0.0, 1.0, chain_matrix()),
                              (1.0, 2.0, 3.0 * chain_matrix())])
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0, step=0.25)
        idx = traj.times.tolist().index(1.0)
        left = traj.derivs_left[idx]
        right = traj.derivs[idx]
        # dx1/dt jumps from -x1 to -3 x1 at the switch
        assert right[0] == pytest.approx(3.0 * left[0], rel=1e-9)

    def test_interpolation_matches_fine_reference_across_switch(self):
        sch = build_schedule([(0.0, 1.0, chain_matrix()),
                              (1.0, 2.0, 2.0 * chain_matrix())])
        coarse = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0, step=0.2)
        fine = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0, step=0.005)
        # cubic Hermite error bound h^4 |x''''| / 384 with h = 0.2 and the
        # rate-2 segment: ~1.8e-5
        for t in np.linspace(0.05, 1.95, 39):
            a = interpolate_state(coarse, float(t))
            b = interpolate_state(fine, float(t))
            assert np.max(np.abs(a - b)) < 5e-5

    def test_spread_non_increasing_on_random_rooted_runs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sch = build_schedule(
                [(i * 1.0, (i + 1) * 1.0, random_metzler(rng, n, density=0.9))
                 for i in range(4)])
            x0 = rng.uniform(-3.0, 3.0, n)
            traj = simulate_ode(sch, x0, 0.0, 4.0)
            times, values = spread_series(traj)
            assert np.array_equal(times, traj.times)
            assert np.all(np.diff(values) <= 1e-10)

    def test_out_of_horizon(self):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        with pytest.raises(OutOfHorizon):
            simulate_ode(sch, [1.0, 0.0], 0.0, 2.0)

    def test_interpolation_outside_range(self):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 1.0)
        with pytest.raises(HistoryGap):
            interpolate_state(traj, 1.5)

    def test_step_advisory_warning(self):
        sch = constant_schedule(chain_matrix(), 0.0, 8.0)
        with pytest.warns(StepTooLargeWarning):
            simulate_ode(sch, [1.0, 0.0], 0.0, 8.0, step=4.0)

    def test_advisory_disc_inside_rk4_stability_region(self):
        # h*A has its spectrum in {|z + hM| <= hM}; at hM = the advisory
        # constant that whole disc must stay where |R(z)| <= 1
        theta = np.linspace(0.0, 2.0 * np.pi, 20001)
        r = _RK4_DISC_RADIUS
        boundary = -r + r * np.exp(1j * theta)
        assert np.abs(rk4_amplification(boundary)).max() <= 1.0 + 1e-12
        # and the constant is close to the largest such radius (~1.3926)
        wider = -1.40 + 1.40 * np.exp(1j * theta)
        assert np.abs(rk4_amplification(wider)).max() > 1.0

    def test_stable_step_does_not_warn(self):
        # n = 12 dense switching, M ~ 13: step 0.02 is well inside the
        # RK4 stability region although it exceeds 2/(n*M)
        spec = {"kind": "random_switching", "period": 0.5,
                "link_probability": 0.9, "weight_range": [0.5, 1.5],
                "seed": 0}
        sch = generate_topology(spec, 12, 0.0, 15.0)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepTooLargeWarning)
            traj = simulate_ode(sch, x0, 0.0, 15.0, step=0.02)
        assert spread_series(traj)[1][-1] < 1e-12

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_step_must_be_positive(self, step):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        with pytest.raises(ValueError):
            simulate_ode(sch, [1.0, 0.0], 0.0, 1.0, step=step)
        with pytest.raises(ValueError):
            simulate_dde(sch, 0.5, [1.0, 0.0], 0.0, 1.0, step=step)

    def test_requested_step_recorded(self):
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        assert simulate_ode(sch, [1.0, 0.0], 0.0, 1.0).meta[
            "requested_step"] is None
        assert simulate_ode(sch, [1.0, 0.0], 0.0, 1.0, step=0.1).meta[
            "requested_step"] == 0.1

    def test_stage_loop_matches_transfer_loop(self, rng):
        # depth 0 steps the stage loop through a coupling that never
        # changes; the constant schedule steps the transfer matrix.
        weights = random_metzler(rng, 4).copy()
        np.fill_diagonal(weights, 0.0)
        spec = {"weights": weights.tolist()}
        flat = generate_topology({"kind": "sinusoidal", "depth": 0.0,
                                  "period": 1.0, **spec}, 4, 0.0, 3.0)
        const = generate_topology({"kind": "constant", **spec}, 4, 0.0, 3.0)
        x0 = [1.0, -0.5, 0.25, 2.0]
        a = simulate_ode(flat, x0, 0.0, 3.0, step=0.01)
        b = simulate_ode(const, x0, 0.0, 3.0, step=0.01)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_allclose(a.states, b.states, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(a.derivs, b.derivs, rtol=0.0, atol=1e-12)

    def test_trajectory_rejects_unsorted_times(self):
        times = np.array([0.0, 1.0, 0.5])
        states = np.zeros((3, 2))
        with pytest.raises(ValueError):
            Trajectory(times=times, states=states, derivs=states.copy(),
                       derivs_left=states.copy(), meta={})


def _sinusoidal(rng, n, scale=1.0, **arcs):
    base = scale * random_metzler(rng, n, **arcs)
    np.fill_diagonal(base, 0.0)
    return SinusoidalCoupling(base, depth=float(rng.uniform(-1.0, 1.0)),
                              period=float(rng.uniform(0.5, 2.0)))


class TestBlockStepping:
    """Both stepping loops write whole pieces into the node store; the
    per-node loops of conftest append the same nodes one at a time."""

    @pytest.mark.parametrize("kind", ["constant", "switching", "mixed",
                                      "constant-sinusoidal-constant"])
    def test_ode_matches_per_node_loops(self, rng, kind):
        n = 5
        if kind == "constant":
            # Default step: several hundred nodes in one piece, so the
            # store grows inside a single extend.
            sch = constant_schedule(random_metzler(rng, n), 0.0, 3.0)
            step = None
        elif kind == "constant-sinusoidal-constant":
            # The transfer loop writes each node into its row.  The state
            # it hands on must not be a view of that row: the stage loop
            # starts from it and grows the store (201 + 100 nodes > 256),
            # and the last constant piece starts from the stage loop's.
            sch = build_schedule([(0.0, 2.0, random_metzler(rng, n)),
                                  (2.0, 3.0, _sinusoidal(rng, n)),
                                  (3.0, 5.0, random_metzler(rng, n))])
            step = 0.01
        else:
            # Pieces of one step (0.01 at step 0.05) and of many steps; the
            # store fills up across pieces.  Mixed pieces alternate between
            # the transfer loop and the stage loop, so each starts with
            # patch_right on the other's last node.
            edges = [0.0, 0.01, 4.0, 4.01, 4.02, 9.0, 9.3, 15.0]
            pieces = []
            for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                entries = random_metzler(rng, n)
                if kind == "mixed" and i % 2:
                    entries = _sinusoidal(rng, n)
                pieces.append((lo, hi, entries))
            sch = build_schedule(pieces)
            step = 0.05
        x0 = rng.normal(size=n)
        traj = simulate_ode(sch, x0, 0.0, sch.horizon[1], step=step)
        assert len(traj.times) > 256  # the store's first capacity
        brute = brute_simulate_ode(sch, x0, 0.0, sch.horizon[1], step=step)
        for got, want in zip((traj.times, traj.states, traj.derivs,
                              traj.derivs_left), brute):
            _assert_same_bytes(got, want)

    def test_stage_loop_with_delayed_inputs(self, rng):
        n, h = 4, 0.01
        store, brute = _NodeStore(n), BruteStore()
        for t in np.linspace(-1.0, 0.0, 250):
            sample = (t, rng.normal(size=n), rng.normal(size=n))
            store.append(*sample)
            brute.append(*sample)

        x = x_brute = store.view()[1][-1].copy()
        a = 0.0
        # A sinusoidal piece that crosses the first capacity, then a
        # constant one.
        sch = build_schedule([(0.0, 0.5, _sinusoidal(rng, n)),
                              (0.5, 1.5, random_metzler(rng, n))])
        for i, length in enumerate(sch.ends - sch.starts):
            m = int(round(length / h))
            grid = a + h * np.arange(1, m + 1)
            xd_nodes = rng.normal(size=(m + 1, n))
            xd_half = rng.normal(size=(m, n))
            x = _march(store, x, sch, i, a, grid, h, (xd_nodes, xd_half, False))
            x_brute = brute_march(brute, x_brute, a, grid, h,
                                  piece_rhs(sch, i, split_delay(False)),
                                  xd_nodes, xd_half)
            a = grid[-1]
        _assert_same_bytes(x, x_brute)
        assert store.size == 250 + 150
        for got, want in zip(store.view(), brute.arrays()):
            _assert_same_bytes(got, want)


def _dde_schedule(rng, kind, n):
    """Pieces of one step (0.01 at step 0.02), of more steps than one block
    (200 > _BLOCK_ENTRIES // n**2 at n = 5) and in between; or, for
    "overflowing", alternating constant and sinusoidal pieces with weights
    near 2000."""
    if kind == "overflowing":
        edges = [0.0, 0.3, 1.0, 1.7, 3.0, 4.2, 6.0]
        pieces = []
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            entries = 2000.0 * random_metzler(rng, n, density=1.0)
            if i % 2:
                entries = _sinusoidal(rng, n, scale=2000.0, density=1.0)
            pieces.append((lo, hi, entries))
        return build_schedule(pieces)
    if kind == "constant":
        return constant_schedule(random_metzler(rng, n), 0.0, 8.0)
    if kind == "sinusoidal":
        return build_schedule([(0.0, 8.0, _sinusoidal(rng, n))])
    edges = [0.0, 0.01, 4.0, 4.01, 4.02, 5.5, 5.8, 8.0]
    pieces = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        entries = random_metzler(rng, n)
        if kind == "mixed" and i % 2:
            entries = _sinusoidal(rng, n)
        pieces.append((lo, hi, entries))
    return build_schedule(pieces)


def _assert_same_arrays(traj, brute):
    for got, want in zip((traj.times, traj.states, traj.derivs,
                          traj.derivs_left), brute):
        _assert_same_bytes(got, want)


class TestDdeStages:
    """simulate_dde computes the state-free parts of every RK4 step ahead,
    a block of steps at a time, and reads the history once per window; the
    oracle of conftest steps one stage at a time through entries_at, with
    two Hermite reads per piece.  All four arrays must agree to the bit."""

    @pytest.mark.parametrize("n", [2, 5, 21])
    @pytest.mark.parametrize("kind, tau, delay_diagonal", [
        *itertools.product(["constant", "switching", "sinusoidal", "mixed"],
                           [0.07, 4.5], [False, True]),
        ("overflowing", 0.5, False),
    ])
    def test_matches_per_stage_oracle(self, rng, kind, tau, delay_diagonal, n):
        # tau = 0.07 lies below one piece; a window of tau = 4.5 spans
        # several pieces and a piece or window of more than one block,
        # which at n = 2 (blocks of 1024 steps) takes a finer step; at
        # n = 21 a block is 9 steps.  The overflowing schedule has h M in
        # the hundreds: its states and derivatives reach inf and then NaN,
        # and must still match byte for byte.
        sch = _dde_schedule(rng, kind, n)
        x0 = rng.uniform(-1.0, 1.0, n)
        t1 = sch.horizon[1]
        if kind == "overflowing":
            step = 0.1
            # numpy warns as the states pass the float range and then meet
            # inf - inf.
            expected = pytest.warns((StepTooLargeWarning, RuntimeWarning))
        else:
            step = 0.02 if n > 2 else 0.0025
            assert _BLOCK_ENTRIES // n**2 < 4.0 / step  # steps of the longest pieces
            expected = contextlib.nullcontext()
        with expected as seen:
            traj = simulate_dde(sch, tau, x0, 0.0, t1, step=step,
                                delay_diagonal=delay_diagonal)
        if kind == "overflowing":
            assert {w.category for w in seen} == {StepTooLargeWarning,
                                                  RuntimeWarning}
            assert np.isinf(np.concatenate((traj.states, traj.derivs))).any()
            assert np.isnan(traj.states).any()
        with np.errstate(over="ignore", invalid="ignore"):
            brute = brute_simulate_dde(sch, tau, x0, 0.0, t1, step=step,
                                       delay_diagonal=delay_diagonal)
        _assert_same_arrays(traj, brute)

    @pytest.mark.parametrize("delay_diagonal", [False, True])
    def test_matches_oracle_from_a_varying_history(self, rng, delay_diagonal):
        n, tau = 5, 0.8
        sch = _dde_schedule(rng, "mixed", n)
        times = np.linspace(-tau, 0.0, 9)
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        hist = DelayHistory(
            tau=tau, times=times,
            states=np.cos(times[:, None] + phase),
            derivs=-np.sin(times[:, None] + phase))
        traj = simulate_dde(sch, tau, hist, 0.0, 8.0, step=0.02,
                            delay_diagonal=delay_diagonal)
        assert traj.times[0] == 0.0
        _assert_same_arrays(traj, brute_simulate_dde(
            sch, tau, hist, 0.0, 8.0, step=0.02, delay_diagonal=delay_diagonal))

    @pytest.mark.parametrize("delay_diagonal", [False, True])
    def test_history_ending_just_before_t0_gets_a_t0_node(self, rng,
                                                          delay_diagonal):
        # _coerce_history accepts a last sample up to 1e-9 max(1, tau)
        # before t0; x(t0) is read within the same slack, and the run
        # starts from a node at t0 itself.
        n, tau = 5, 0.8
        sch = _dde_schedule(rng, "mixed", n)
        times = np.linspace(-tau, -2e-10, 9)
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        hist = DelayHistory(
            tau=tau, times=times,
            states=np.cos(times[:, None] + phase),
            derivs=-np.sin(times[:, None] + phase))
        traj = simulate_dde(sch, tau, hist, 0.0, 8.0, step=0.02,
                            delay_diagonal=delay_diagonal)
        assert traj.times[0] == 0.0
        np.testing.assert_array_equal(traj.states[0], hist.states[-1])
        _assert_same_arrays(traj, brute_simulate_dde(
            sch, tau, hist, 0.0, 8.0, step=0.02, delay_diagonal=delay_diagonal))

    @pytest.mark.parametrize("t0, tau", [(3e7, 0.2), (1e8, 0.1)])
    def test_constant_history_far_from_zero(self, t0, tau):
        # t0 - tau rounds at the spacing of floats near t0 (3.7e-9 at 3e7),
        # more than 1e-9 tau: the history still covers the full delay.
        sch = constant_schedule(chain_matrix(), t0, t0 + 1.0)
        hist = DelayHistory.constant([1.0, -1.0], tau, t_end=t0)
        traj = simulate_dde(sch, tau, hist, t0, t0 + 1.0)
        assert traj.times[0] == t0
        _assert_same_arrays(traj, brute_simulate_dde(
            sch, tau, [1.0, -1.0], t0, t0 + 1.0))

    def test_window_too_short_for_a_piece(self):
        # Far from 0 the tau-windows add up to a last window of 2.3e-10,
        # below what _pieces resolves at t = 1e6: it is stepped by no piece.
        sch = constant_schedule(symmetric_pair(), 1e6, 1e6 + 1.0)
        traj = simulate_dde(sch, 0.1, [1.0, -1.0], 1e6, 1e6 + 1.0)
        assert 0.0 < 1e6 + 1.0 - traj.times[-1] < 1e-9
        _assert_same_arrays(traj, brute_simulate_dde(
            sch, 0.1, [1.0, -1.0], 1e6, 1e6 + 1.0))

    def test_default_step_on_a_dense_switching_run(self):
        spec = {"kind": "random_switching", "period": 0.5,
                "link_probability": 0.9, "weight_range": [0.5, 1.5],
                "seed": 3}
        sch = generate_topology(spec, 12, 0.0, 3.0)
        x0 = np.random.default_rng(3).uniform(-1.0, 1.0, 12)
        traj = simulate_dde(sch, 0.3, x0, 0.0, 3.0)
        _assert_same_arrays(traj, brute_simulate_dde(sch, 0.3, x0, 0.0, 3.0))

    @pytest.mark.parametrize("delay_diagonal", [False, True])
    def test_drives_read_each_matrix_row_major(self, rng, delay_diagonal):
        # np.array(np.broadcast_to(B, (k, n, n))) keeps the broadcast's
        # stride order, so gemv would read every matrix of the stack
        # transposed and sum each row in another order; at n = 9 that moves
        # most of these drives.  Both stacks _drives meets must give the
        # per-node products bit for bit.
        n, k = 9, 64
        B = random_metzler(rng, n)
        xd = rng.normal(size=(k, n))
        scaled = B * rng.uniform(0.0, 2.0, (k, 1, 1))
        for A in (np.broadcast_to(B, (k, n, n)), scaled):
            d, u = _drives(A, xd, delay_diagonal)
            for j in range(k):
                if delay_diagonal:
                    d_want, off = np.zeros(n), A[j]
                else:
                    d_want, off = np.diag(A[j]), A[j].copy()
                    np.fill_diagonal(off, 0.0)
                assert np.array_equal(d[j], d_want)
                assert np.array_equal(u[j], off @ xd[j])

    def test_pieces_match_a_full_scan(self, rng):
        # Joins within the join tolerance may overlap or leave a sliver.
        cuts = np.cumsum(rng.uniform(0.05, 1.0, 40))
        ends = cuts + rng.choice([0.0, 4e-10, -4e-10], size=40)
        sch = build_schedule(
            [(lo, hi, random_metzler(rng, 3))
             for lo, hi in zip(np.concatenate(([0.0], cuts[:-1])), ends)])
        span = sch.horizon[1]
        probes = np.concatenate([cuts, ends, rng.uniform(0.0, span, 60)])
        probes = probes[probes < span]
        for t0 in probes.tolist():
            for t1 in (min(t0 + w, span) for w in (1e-3, 0.3, 2.5, span)):
                if t1 > t0:
                    assert (list(_pieces(sch, t0, t1))
                            == list(brute_pieces(sch, t0, t1)))


class TestDde:
    def test_first_window_closed_form(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_dde(sch, 1.0, [1.0, -1.0], 0.0, 3.0)
        for t in (0.5, 1.0):
            x = interpolate_state(traj, t)
            assert x[0] == pytest.approx(2.0 * math.exp(-t) - 1.0, abs=1e-6)
            assert x[1] == pytest.approx(-x[0], abs=1e-9)

    def test_second_window_closed_form(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_dde(sch, 1.0, [1.0, -1.0], 0.0, 3.0)
        d2 = 4.0 * math.exp(-2.0) - 8.0 * math.exp(-1.0) + 2.0
        x = interpolate_state(traj, 2.0)
        assert x[0] == pytest.approx(d2 / 2.0, abs=1e-6)

    def test_fully_delayed_polynomial_windows(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 2.0,
                            delay_diagonal=True)
        # d(t) = 2 - 4t on [0, 0.5]; d(0.5 + v) = -4v + 4v^2
        x = interpolate_state(traj, 0.25)
        assert x[0] == pytest.approx((2.0 - 1.0) / 2.0, abs=1e-9)
        x = interpolate_state(traj, 1.0)
        assert x[0] == pytest.approx(-0.5, abs=1e-9)
        assert traj.meta["delay_diagonal"] is True
        assert traj.meta["tau"] == pytest.approx(0.5)

    def test_history_object_roundtrip(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        hist = DelayHistory.constant([1.0, -1.0], tau=0.4, t_end=0.0)
        traj = simulate_dde(sch, 0.4, hist, 0.0, 2.0)
        assert traj.times[0] == 0.0
        assert np.allclose(traj.states[0], [1.0, -1.0])

    def test_left_derivative_at_t0_comes_from_the_history(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 2.0)
        np.testing.assert_array_equal(traj.derivs_left[0], [0.0, 0.0])
        np.testing.assert_array_equal(traj.derivs[0], [-2.0, 2.0])
        times = np.linspace(-0.5, 0.0, 6)
        hist = DelayHistory(
            tau=0.5, times=times,
            states=np.column_stack([np.cos(times), np.sin(times)]),
            derivs=np.column_stack([-np.sin(times), np.cos(times)]))
        traj = simulate_dde(sch, 0.5, hist, 0.0, 2.0)
        assert traj.times[0] == 0.0
        np.testing.assert_array_equal(traj.derivs_left[0], hist.derivs[-1])
        assert not np.array_equal(traj.derivs[0], hist.derivs[-1])

    def test_history_gap_rejected(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        hist = DelayHistory.constant([1.0, -1.0], tau=0.2, t_end=0.0)
        with pytest.raises(HistoryGap):
            simulate_dde(sch, 0.7, hist, 0.0, 2.0)

    def test_history_past_t0_rejected(self):
        # Samples after t0 would sit in the node grid ahead of the t0 node
        # and leak into the delayed reads.
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        times = np.linspace(-1.0, 0.5, 16)
        hist = DelayHistory(
            tau=1.0, times=times,
            states=np.column_stack([np.cos(times), np.sin(times)]),
            derivs=np.column_stack([-np.sin(times), np.cos(times)]))
        with pytest.raises(HistoryGap, match="past t0"):
            simulate_dde(sch, 1.0, hist, 0.0, 3.0)

    def test_half_step_self_agreement(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 6.0)
        a = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 6.0, step=0.05)
        b = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 6.0, step=0.025)
        xa = interpolate_state(a, 6.0)
        xb = interpolate_state(b, 6.0)
        assert np.max(np.abs(xa - xb)) < 1e-8


class TestDelayedFunctional:
    def test_non_increasing_for_coupling_delay(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 20.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 20.0, step=0.01)
        times, values = delayed_functional_series(traj, 0.5)
        assert times[0] == pytest.approx(0.5)
        assert np.all(np.diff(values) <= 1e-10)

    def test_window_spread_dominates_plain_spread(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 10.0)
        traj = simulate_dde(sch, 0.3, [2.0, -1.0], 0.0, 10.0)
        times, window = delayed_functional_series(traj, 0.3)
        all_times, plain = spread_series(traj)
        assert np.array_equal(times, all_times[-len(times):])
        assert np.all(window >= plain[-len(times):] - 1e-12)

    def test_window_not_covered(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 0.5)
        traj = simulate_dde(sch, 0.2, [1.0, -1.0], 0.0, 0.5)
        with pytest.raises(WindowNotCovered):
            delayed_functional_series(traj, 5.0)

    @staticmethod
    def _trajectory(rng, times, states):
        return Trajectory(times=np.asarray(times, dtype=float), states=states,
                          derivs=rng.normal(size=states.shape),
                          derivs_left=rng.normal(size=states.shape))

    @staticmethod
    def _assert_same_series(got, want):
        for arr in got:
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float64 and arr.ndim == 1
        assert got[0].tolist() == [t for t, _ in want]
        assert np.array_equal(got[1], [v for _, v in want], equal_nan=True)

    @pytest.mark.parametrize("tau", [1e-3, 0.05, 0.3, 1.0, "span"])
    def test_matches_slice_oracle_with_ties(self, rng, tau):
        # Few distinct values: most window maxima and minima are ties.
        times = np.cumsum(rng.uniform(0.01, 0.04, 300))
        states = rng.integers(-2, 3, (300, 4)).astype(float)
        traj = self._trajectory(rng, times, states)
        span = times[-1] - times[0]
        tau = span if tau == "span" else tau
        got = delayed_functional_series(traj, tau)
        if tau == span:
            assert len(got[0]) == len(got[1]) == 1
        self._assert_same_series(
            got, brute_delayed_functional_series(traj, tau))

    def test_matches_slice_oracle_on_node_edges(self, rng):
        # Binary fractions: every window edge t - tau is a node.
        times = 0.125 * np.arange(200)
        traj = self._trajectory(rng, times, rng.normal(size=(200, 3)))
        got = delayed_functional_series(traj, 0.5)
        assert np.isin(got[0] - 0.5, times).all()
        self._assert_same_series(
            got, brute_delayed_functional_series(traj, 0.5))

    def test_matches_slice_oracle_on_infinite_and_nan_rows(self, rng):
        states = rng.normal(size=(400, 3))
        states[[30, 31, 200]] = np.inf
        states[[90, 250], 1] = -np.inf
        states[[150, 151, 320], 2] = np.nan
        states[399] = np.nan
        traj = self._trajectory(rng, np.cumsum(rng.uniform(0.01, 0.03, 400)),
                                states)
        got = delayed_functional_series(traj, 0.4)
        assert np.isnan(got[1]).any() and np.isfinite(got[1]).any()
        self._assert_same_series(
            got, brute_delayed_functional_series(traj, 0.4))

    def test_nan_edge_makes_the_window_nan(self, rng):
        # The window at t = 2 holds the nodes at 1 and 2 and its edge
        # x(0.5), read from the NaN row 0; Python's max(1.0, nan) is 1.0.
        states = np.zeros((5, 4))
        states[:, 0] = 1.0
        states[0] = np.nan
        traj = self._trajectory(rng, np.arange(5.0), states)
        times, values = delayed_functional_series(traj, 1.5)
        assert times.tolist() == [2.0, 3.0, 4.0]
        assert np.isnan(values[0])
        assert values[1:].tolist() == [1.0, 1.0]
        # An edge on a node is that node, even next to an infinite one:
        # at t = 3 and tau = 1 the edge x(2) reads row 2, not 1 * x2 + 0 * inf.
        states = np.zeros((5, 2))
        states[:, 0] = 1.0
        states[3] = np.inf
        traj = self._trajectory(rng, np.arange(5.0), states)
        _, values = delayed_functional_series(traj, 1.0)
        assert values.tolist() == [1.0, 1.0, math.inf, math.inf]

    def test_matches_slice_oracle_on_a_simulated_run(self, rng):
        # A delayed switching run: window edges fall between nodes.
        sch = build_schedule(
            [(float(i), float(i + 1), random_metzler(rng, 3, density=0.8))
             for i in range(6)])
        traj = simulate_dde(sch, 0.7, rng.uniform(-1.0, 1.0, 3), 0.0, 6.0,
                            step=0.05)
        got = delayed_functional_series(traj, 0.7)
        assert got[0][0] == pytest.approx(0.7)
        self._assert_same_series(
            got, brute_delayed_functional_series(traj, 0.7))

    @pytest.mark.filterwarnings("ignore::consensus_lab.StepTooLargeWarning")
    @pytest.mark.parametrize("seed", range(4))
    def test_no_violation_with_the_edge_off_the_grid(self, seed):
        # Coupling-delayed switching runs at h * max|a_kk| <= 1, with tau
        # and the period drawn so that window edges fall between nodes.
        # With the edge read by cubic Hermite, every seed failed: by 4e-7
        # to 4e-4 against slacks near 2.5e-9.
        rng = np.random.default_rng(seed)
        for _ in range(3):
            n = int(rng.integers(3, 10))
            period = float(rng.uniform(0.3, 1.0))
            sch = build_schedule(
                [(k * period, (k + 1) * period,
                  random_metzler(rng, n, density=0.9, wmax=1.5))
                 for k in range(int(12.0 / period))])
            diag = np.abs(np.diagonal(sch.couplings, axis1=1, axis2=2)).max()
            tau = float(rng.uniform(0.2, 1.5))
            step = float(rng.uniform(0.2, 1.0) / diag)
            traj = simulate_dde(sch, tau, rng.uniform(-1.0, 1.0, n), 0.0,
                                sch.horizon[1], step=step)
            _, values = delayed_functional_series(traj, tau)
            report = monotonicity_from_series("delayed_spread", values)
            assert report.passed, (n, period, tau, step, report.worst_violation)
