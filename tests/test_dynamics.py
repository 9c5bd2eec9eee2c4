"""Integrators and trajectory machinery.

Expected values are closed forms. For the delayed pair the method of
steps was run by hand: with x0 = (1, -1) and unit weights the difference
d = x1 - x2 starts at 2 and obeys d' = -d - d(t - tau), so on [0, tau]
d(t) = 4 e^{-t} - 2, and carrying the variation-of-constants formula one
window further (tau = 1) gives d(2) = 4 e^{-2} - 8 e^{-1} + 2. With the
fully delayed variant d' = -2 d(t - tau) the windows are polynomials:
d(t) = 2 - 4t on [0, tau], then d(tau) - 4 v + 4 v^2 at v = t - tau.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from consensus_lab import (
    HistoryGap,
    InvalidSpec,
    NonFiniteState,
    OutOfHorizon,
    StepTooLargeWarning,
    Trajectory,
    WindowNotCovered,
    build_schedule,
    constant_schedule,
    delayed_functional_series,
    from_offdiagonal,
    generate_topology,
    interpolate_state,
    monotonicity_from_series,
    simulate_dde,
    simulate_ode,
    spread_series,
)
from consensus_lab.dynamics import (_BLOCK_ENTRIES, _RK4_DISC_RADIUS,
                                    _SCAN_ROWS, _affine_steps, _drives,
                                    _grids, _hermite_many, _march, _pieces,
                                    _plan_step, _resolution, _rk4_transfer,
                                    _scan,
                                    _step_target, _window_extremes)
from consensus_lab.scenario_cli import SinusoidalCoupling

from conftest import (BruteStore, brute_delayed_functional_series, brute_march,
                      brute_pieces, brute_simulate_dde, brute_simulate_ode,
                      brute_substeps, chain_matrix,
                      deque_delayed_functional_series, piece_entries_at,
                      piece_rhs, random_metzler,
                      shadow_simulate_dde, split_delay, symmetric_pair,
                      transfer_of_step)


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
            x = interpolate_state(sch, traj, t)
            assert x[0] == pytest.approx(math.exp(-t), abs=1e-6)
            assert x[1] == 0.0

    def test_chain_decay_small_step_precision(self):
        sch = constant_schedule(chain_matrix(), 0.0, 5.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 5.0, step=0.005)
        for t in (0.5, 1.0, 3.0, 5.0):
            x = interpolate_state(sch, traj, t)
            assert x[0] == pytest.approx(math.exp(-t), abs=1e-10)

    def test_chain_approach_closed_form(self):
        sch = constant_schedule(chain_matrix(), 0.0, 4.0)
        traj = simulate_ode(sch, [0.0, 5.0], 0.0, 4.0)
        x = interpolate_state(sch, traj, 2.0)
        assert x[0] == pytest.approx(5.0 * (1.0 - math.exp(-2.0)), abs=1e-6)
        assert x[1] == pytest.approx(5.0)

    def test_symmetric_pair_closed_form(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_ode(sch, [1.0, -1.0], 0.0, 3.0)
        for t in (0.7, 1.9, 3.0):
            x = interpolate_state(sch, traj, t)
            assert x[0] == pytest.approx(math.exp(-2.0 * t), abs=1e-5)
            assert x[1] == pytest.approx(-math.exp(-2.0 * t), abs=1e-5)

    def test_nodes_land_on_breakpoints(self):
        sch = build_schedule([(0.0, 1.0, chain_matrix()),
                              (1.0, 2.3, 2.0 * chain_matrix())])
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 2.3, step=0.3)
        assert 1.0 in traj.times.tolist()
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(2.3)
        assert np.all(np.diff(traj.times) > 0.0)

    def test_interpolation_matches_fine_reference_across_switch(self):
        sch = build_schedule([(0.0, 1.0, chain_matrix()),
                              (1.0, 2.0, 2.0 * chain_matrix())])
        coarse = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0, step=0.2)
        fine = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0, step=0.005)
        # cubic Hermite error bound h^4 |x''''| / 384 with h = 0.2 and the
        # rate-2 segment: ~1.8e-5
        for t in np.linspace(0.05, 1.95, 39):
            a = interpolate_state(sch, coarse, float(t))
            b = interpolate_state(sch, fine, float(t))
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
            interpolate_state(sch, traj, 1.5)

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
        # The grid records the step: the requested one, or the planned
        # default.
        sch = constant_schedule(chain_matrix(), 0.0, 1.0)
        assert simulate_ode(sch, [1.0, 0.0], 0.0, 1.0).times[1] == \
            _plan_step(sch, 0.0, 1.0) == 0.05
        np.testing.assert_allclose(np.diff(simulate_ode(
            sch, [1.0, 0.0], 0.0, 1.0, step=0.1).times), 0.1)

    def test_stage_loop_matches_transfer_loop(self, rng):
        # depth 0 steps the sinusoidal transfer rule with c = 1, so
        # Phi_j = I + H + H^2/2 + H^3/6 + H^4/24 summed from the powers of
        # H; the constant schedule steps the same polynomial in Horner
        # form (_rk4_transfer).  They differ in rounding only.
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
        for t in np.linspace(0.005, 2.995, 7):
            np.testing.assert_allclose(interpolate_state(flat, a, t),
                                       interpolate_state(const, b, t),
                                       rtol=0.0, atol=1e-12)

    def test_overflow_stops_at_the_end_of_its_piece(self):
        # h M = 200 at step 0.1: every step multiplies the state by about
        # 400^4 / 24, so it passes the float range within a few pieces, and
        # numpy warns as it does.
        sch = build_schedule([(float(i), i + 1.0, 2000.0 * symmetric_pair())
                              for i in range(6)])
        with pytest.warns((StepTooLargeWarning, RuntimeWarning)) as seen, \
                pytest.raises(NonFiniteState) as stopped:
            simulate_ode(sch, [1.0, -1.0], 0.0, 6.0, step=0.1)
        assert {w.category for w in seen} == {StepTooLargeWarning,
                                              RuntimeWarning}
        with np.errstate(over="ignore", invalid="ignore"):
            times, states, _, _ = brute_simulate_ode(sch, [1.0, -1.0], 0.0, 6.0,
                                                     step=0.1)
        first = times[~np.isfinite(states).all(axis=1)][0]
        assert stopped.value.t == math.ceil(first) < 6.0

    def test_trajectory_rejects_unsorted_times(self):
        times = np.array([0.0, 1.0, 0.5])
        states = np.zeros((3, 2))
        with pytest.raises(ValueError):
            Trajectory(times=times, states=states)


class TestOnDemandDerivatives:
    """interpolate_state takes both derivatives of an interval from the
    schedule piece that stepped it.  The oracle stores them per node, the
    one to the right of each node and the one to its left, which differ at
    every switch; a Hermite read of its arrays must give the same bits."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 32])
    def test_matches_the_stored_one_sided_derivatives(self, n):
        rng = np.random.default_rng(n)
        lengths = np.where(rng.random(8) < 0.4, 0.01, rng.uniform(0.2, 1.0, 8))
        edges = np.concatenate(([0.0], np.cumsum(lengths)))
        sch = build_schedule([
            (lo, hi, _sinusoidal(rng, n, scale=1.0 / n) if rng.random() < 0.5
             else random_metzler(rng, n) / n)
            for lo, hi in zip(edges[:-1], edges[1:])])
        assert not sch.constant.all() and sch.constant.any()
        span = float(edges[-1])
        x0 = rng.uniform(-1.0, 1.0, n)
        traj = simulate_ode(sch, x0, 0.0, span)
        # Pieces of 0.01 are one step long at the default step.
        assert _plan_step(sch, 0.0, span) > 0.01
        brute = brute_simulate_ode(sch, x0, 0.0, span)
        queries = np.concatenate((rng.uniform(0.0, span, 60), edges,
                                  edges - 1e-9, edges + 1e-9))
        for t in queries[(queries >= 0.0) & (queries <= span)].tolist():
            want = _hermite_many([t], *brute, clamp_slack=1e-12 * span)[0]
            _assert_same_bytes(interpolate_state(sch, traj, t), want)


class TestBatchedReads:
    """interpolate_state reads an array of times in one call; each row has
    the bits of a call for its time alone."""

    @pytest.mark.parametrize("kind", ["constant", "switching", "sinusoidal",
                                      "mixed"])
    def test_rows_match_one_call_per_time(self, rng, kind):
        n, span = 6, 4.0
        if kind == "constant":
            sch = constant_schedule(random_metzler(rng, n), 0.0, span)
        elif kind == "sinusoidal":
            sch = build_schedule([(0.0, span, _sinusoidal(rng, n))])
        else:
            edges = [0.0, 0.5, 0.51, 1.7, 2.5, span]
            sch = build_schedule([
                (lo, hi, _sinusoidal(rng, n) if kind == "mixed" and i % 2
                 else random_metzler(rng, n))
                for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))])
        traj = simulate_ode(sch, rng.uniform(-1.0, 1.0, n), 0.0, span,
                            step=0.05)
        nodes = traj.times
        # Nodes, midpoints, breakpoints, both ends and just past them (within
        # the read's slack), and random times, in no order.
        probes = np.concatenate((nodes, 0.5 * (nodes[1:] + nodes[:-1]),
                                 sch.starts, sch.ends, [-1e-12, span + 1e-12],
                                 rng.uniform(0.0, span, 50)))
        rng.shuffle(probes)
        rows = interpolate_state(sch, traj, probes)
        assert rows.shape == (len(probes), n)
        for t, row in zip(probes.tolist(), rows):
            _assert_same_bytes(row, interpolate_state(sch, traj, t))
        _assert_same_bytes(interpolate_state(sch, traj, probes[:3].tolist()),
                           rows[:3])
        assert interpolate_state(sch, traj, []).shape == (0, n)

    def test_first_time_off_the_grid_raises(self):
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0)
        with pytest.raises(HistoryGap, match=r"\[2\.5, 2\.5\]"):
            interpolate_state(sch, traj, [1.0, 2.5, -1.0])

    def test_delayed_runs_are_not_read_in_batches_either(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 2.0)
        with pytest.raises(ValueError, match="undelayed"):
            interpolate_state(sch, traj, [0.5, 1.0])


class TestTransferStack:
    """simulate_ode builds the transfers of its constant pieces as stacks
    and their grids in one call; each element has the bits of a build for
    its piece alone."""

    def test_stacked_horner_matches_one_transfer_per_piece(self, rng):
        for n in range(2, 41):
            p = int(rng.integers(1, 9))
            B = np.stack([random_metzler(rng, n) for _ in range(p)])
            # Steps of many sizes, some shared.
            h = np.where(rng.random(p) < 0.3, 0.01, rng.uniform(1e-4, 0.2, p))
            stack = _rk4_transfer(B, h[:, None, None])
            assert stack.shape == (p, n, n)
            for j in range(p):
                _assert_same_bytes(stack[j], _rk4_transfer(B[j], float(h[j])))

    def test_grids_match_one_piece_at_a_time(self, rng):
        # Joined pieces far from and near t = 0, and pieces across it, where
        # a + h m often misses b.
        spans = []
        for t0 in (-50.0, 0.0, 1e6):
            lengths = np.concatenate((rng.uniform(1e-3, 2.0, 100),
                                      [0.5, 0.1, 0.3, 1.0, 0.013]))
            edges = t0 + np.concatenate(([0.0], np.cumsum(lengths)))
            spans.append((edges[:-1], edges[1:]))
        a = rng.uniform(-1.0, 1.0, 300)
        spans.append((a, a + rng.uniform(1e-3, 1.0, 300)))
        for a, b in spans:
            for h_target in (0.013, 0.1, 0.5, 5.0):
                m, h, grid = _grids(a, b, h_target)
                parts = [brute_substeps(x, y, h_target)
                         for x, y in zip(a.tolist(), b.tolist())]
                assert m.tolist() == [part[0] for part in parts]
                assert h.tolist() == [part[1] for part in parts]
                _assert_same_bytes(
                    grid, np.concatenate([part[2] for part in parts]))

    def test_runs_longer_than_one_stack_match_per_node_loops(self, rng):
        # A stack at n = 30 holds _BLOCK_ENTRIES // 900 = 4 constant
        # pieces; this run has 100, with sinusoidal pieces inside the
        # stacks' blocks.
        assert _BLOCK_ENTRIES // 900 == 4
        n = 30
        edges = np.linspace(0.0, 2.0, 101)
        sch = build_schedule([
            (lo, hi, _sinusoidal(rng, n) if i % 17 == 5
             else random_metzler(rng, n))
            for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))])
        x0 = rng.normal(size=n)
        traj = simulate_ode(sch, x0, 0.0, 2.0)
        brute = brute_simulate_ode(sch, x0, 0.0, 2.0)
        for got, want in zip((traj.times, traj.states), brute):
            _assert_same_bytes(got, want)


class TestDefaultStep:
    """Without a requested step the target is 1/(20 M), M the schedule
    bound, whatever the size n."""

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 80])
    def test_default_does_not_depend_on_n(self, n):
        # Node 1 follows node 2 at weight 2.5: M = 2.5 at every n.
        off = np.zeros((n, n))
        off[0, 1] = 2.5
        sch = constant_schedule(from_offdiagonal(off), 0.0, 10.0)
        assert sch.bound == 2.5
        assert _step_target(None, sch, 10.0) == 1.0 / (20.0 * 2.5)
        assert _plan_step(sch, 0.0, 10.0) == 1.0 / (20.0 * 2.5)
        assert simulate_ode(sch, np.ones(n), 0.0, 10.0).times[1] == 0.02

    def test_two_nodes_keep_the_former_rule_bitwise(self, rng):
        for w in np.concatenate(([1.0, 0.1, 3.0, 1e-7, 1e7],
                                 10.0 ** rng.uniform(-6.0, 6.0, 200))):
            sch = constant_schedule(symmetric_pair(float(w)), 0.0, 1e9)
            assert _step_target(None, sch, 1e9).hex() == \
                (1.0 / (10.0 * 2 * sch.bound)).hex()

    def test_default_transfer_is_stochastic(self, rng):
        # h M <= 1 keeps the degree-4 Taylor polynomial of exp(hA)
        # non-negative with unit row sums; the default has h M = 1/20.
        eps = np.finfo(float).eps
        for _ in range(100):
            n = int(rng.integers(2, 81))
            A = 10.0 ** rng.uniform(-2.0, 3.0) * random_metzler(
                rng, n, density=rng.uniform(0.05, 1.0))
            sch = constant_schedule(A, 0.0, 1.0)
            phi = _rk4_transfer(A, _step_target(None, sch, 1.0))
            assert phi.min() >= 0.0
            assert np.abs(phi.sum(axis=1) - 1.0).max() <= 16 * eps

    def test_stored_nodes_grow_with_m_times_span_not_n(self):
        # Each piece of length L takes ceil(L / h) steps, so a run of span
        # S over p pieces stores between 20 M S + 1 and
        # ceil(20 M S) + p + 1 nodes.  M ~ 80 here.
        spec = {"kind": "random_switching", "period": 0.5,
                "link_probability": 0.9, "weight_range": [0.5, 1.5],
                "seed": 5}
        n, span = 80, 2.0
        sch = generate_topology(spec, n, 0.0, span)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        nodes = len(simulate_ode(sch, x0, 0.0, span).times)
        budget = 20.0 * sch.bound * span
        assert budget + 1 <= nodes <= math.ceil(budget) + len(sch.starts) + 1


def _sinusoidal(rng, n, scale=1.0, **arcs):
    base = scale * random_metzler(rng, n, **arcs)
    np.fill_diagonal(base, 0.0)
    return SinusoidalCoupling(base, depth=float(rng.uniform(-1.0, 1.0)),
                              period=float(rng.uniform(0.5, 2.0)))


class TestBlockStepping:
    """Every stepping loop writes whole pieces in place; the per-node loops
    of conftest append the same nodes one at a time."""

    @pytest.mark.parametrize("kind", ["constant", "switching", "mixed",
                                      "constant-sinusoidal-constant",
                                      "sinusoidal-blocks"])
    def test_ode_matches_per_node_loops(self, rng, kind):
        n = 8 if kind == "sinusoidal-blocks" else 5
        if kind == "constant":
            # 301 nodes in one piece.  The step is explicit: the default
            # 1/(20 M) gives only ~134 nodes here.
            sch = constant_schedule(random_metzler(rng, n), 0.0, 3.0)
            step = 0.01
        elif kind == "constant-sinusoidal-constant":
            # Each loop writes each node into its row and hands that row on
            # as the next piece's state: the sinusoidal piece starts from
            # the first constant piece's last row, and the last constant
            # piece from the sinusoidal piece's (201 + 100 + 200 nodes).
            sch = build_schedule([(0.0, 2.0, random_metzler(rng, n)),
                                  (2.0, 3.0, _sinusoidal(rng, n)),
                                  (3.0, 5.0, random_metzler(rng, n))])
            step = 0.01
        elif kind == "sinusoidal-blocks":
            # 300 steps in one sinusoidal piece; a block at n = 8 is
            # _BLOCK_ENTRIES // 64 = 64 steps, so the piece takes four
            # whole blocks and a part of a fifth.
            assert _BLOCK_ENTRIES // n ** 2 == 64
            sch = build_schedule([(0.0, 3.0, _sinusoidal(rng, n))])
            step = 0.01
        else:
            # Pieces of one step (0.01 at step 0.05) and of many steps.
            # Mixed pieces alternate between the constant transfer and the
            # sinusoidal transfers, so each starts from the other's last
            # node.
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
        assert len(traj.times) > 256
        brute = brute_simulate_ode(sch, x0, 0.0, sch.horizon[1], step=step)
        for got, want in zip((traj.times, traj.states), brute):
            _assert_same_bytes(got, want)
            # Allocated once, to the run: each array owns its memory.
            assert got.base is None


class TestSinusoidalTransfers:
    """An undelayed sinusoidal piece steps by Phi_j = I + a1 H + a2 H^2 +
    a3 H^3 + a4 H^4 per step: RK4 exactly, in another rounding than the
    stage loop (brute_march), which stays the reference for the map."""

    def test_transfer_is_stochastic_up_to_hm_one_half(self, rng):
        # The module docstring's claim: with 0 <= c <= C = 1 + |depth| and
        # h M <= 1/2, Phi_j >= 0 with unit row sums.  Entries that are 0 in
        # exact arithmetic may round below it: Phi's entries are sums of
        # five terms of at most e^(2 h M) < 3 in all, built by at most
        # three matmuls over n terms, so by less than (3 n + 10) eps * 3.
        eps = np.finfo(float).eps
        for _ in range(300):
            n = int(rng.integers(2, 13))
            B = random_metzler(rng, n, density=rng.uniform(0.1, 1.0))
            if not B.any():
                continue
            C = 1.0 + float(rng.uniform(0.0, 1.0))
            h = float(rng.choice([0.5, rng.uniform(0.0, 0.5)])) / (
                C * np.abs(B).max())
            c1, c2, c4 = rng.choice([0.0, C, rng.uniform(0.0, C)], 3)
            phi = transfer_of_step(h * B, c1, c2, c4)
            slack = 3.0 * (3 * n + 10) * eps
            assert phi.min() >= -slack
            assert np.abs(phi.sum(axis=1) - 1.0).max() <= slack

    @pytest.mark.parametrize("seed", range(3))
    def test_deviation_from_the_stage_loop_is_rounding(self, seed):
        """Both kernels round the one exact map x+ = Phi_j x.  At the
        default h M = 1/20, Phi_j >= 0 with unit row sums (the test
        above), so with X = max|x0| every exact state keeps max|x| <= X,
        and an error made at one step reaches the end without growth:
        after m steps the kernels differ by at most the sum of their
        per-step errors.  Per step, in units u = eps / 2, since
        sum_k a_k ||H||^k <= e^(2 h M) - 1 < 0.11:
          - the transfer: the gemv Phi x errs by n u X (1 + 0.11); the
            four additions that build Phi_j from 1 err by 4.5 u, and the
            powers of H and the a by (3 n + 10) u times 0.11;
          - the stage loop: x + (h / 6) (k1 + 2 k2 + 2 k3 + k4) errs by
            u X in the addition, and the sum, of size <= 0.11 X, by
            (2 n + 8) u relatively (gemv over n terms; the diagonal of
            A(t), a rounded row sum, differs from c B_kk by n u).
        That is (1.6 n + 8) u X <= (n + 4) eps X a step."""
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps
        for depth, period in itertools.product((-1.0, -0.4, 0.7, 1.0),
                                               (0.3, 1.7, 6.0)):
            n = int(rng.integers(2, 13))
            base = random_metzler(rng, n, density=rng.uniform(0.3, 1.0)).copy()
            np.fill_diagonal(base, 0.0)
            sch = build_schedule(
                [(0.0, 3.0, SinusoidalCoupling(base, depth, period))])
            x0 = rng.uniform(-1.0, 1.0, n)
            traj = simulate_ode(sch, x0, 0.0, 3.0)
            times, states, _, _ = brute_simulate_ode(
                sch, x0, 0.0, 3.0, stages=True)
            _assert_same_bytes(traj.times, times)
            X = np.abs(x0).max()
            bound = (len(times) - 1) * (n + 4) * eps * X
            deviation = np.abs(traj.states - states).max()
            assert deviation <= bound, (depth, period, n, deviation, bound)


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


EPS = np.finfo(float).eps


def _piece_terms(n, bound, m, h, delay_diagonal):
    """The per-step and per-chunk terms of the dynamics module docstring's
    bound for a delayed piece of m steps of h, in units of eps X^."""
    hm = h * bound
    terms = m * (1.0 + hm * (4 * n + 64))
    for lo in range(0, m, _SCAN_ROWS):
        rows = min(_SCAN_ROWS, m - lo)
        levels = (rows - 1).bit_length()  # ceil(log2(rows))
        spread = 2.0 * hm * rows if delay_diagonal else 1.0
        terms += (2 + levels * (levels + 3) / 2) / 2 * (1.0 + spread)
    return terms


def dde_deviation_bound(schedule, tau, t0, t1, step, delay_diagonal, X):
    """The dynamics module docstring's bound on the states of simulate_dde
    against the RK4 stage loop, C eps X^ with X^ = 2 X, for X bounding |x|
    on the history and both runs: the per-step and per-chunk terms of every
    piece, times the growth g of every tau-window."""
    n, M = schedule.n, schedule.bound
    h_target = min(_step_target(step, schedule, t1 - t0, tau), tau)
    windows, w0 = [], t0
    while w0 < t1 - 1e-12 * max(1.0, abs(t1 - t0)):
        w1 = min(w0 + tau, t1)
        pieces = brute_pieces(schedule, w0, w1)
        windows.append((w1 - w0, [brute_substeps(a, b, h_target)[:2]
                                  for a, b, _ in pieces]))
        w0 = w1
    h = max(hp for _, pieces in windows for _, hp in pieces)
    assert h * M <= 1.0  # the bound's hypothesis
    terms, growth = 0.0, 1.0
    for T, pieces in windows:
        terms += sum(_piece_terms(n, M, m, hp, delay_diagonal)
                     for m, hp in pieces)
        growth *= (1.0 + 2.0 * M * T * (1.0 + h * M / 2.0) if delay_diagonal
                   else 1.0 + 8.0 * h * M / 27.0)
    return growth * terms * EPS * 2.0 * X


def _assert_near_oracle(traj, schedule, tau, x0, t0, t1, step=None,
                        delay_diagonal=False):
    """The times of brute_simulate_dde to the bit, and its states within
    dde_deviation_bound.  The bound's growth from window to window is a
    worst case that long runs make loose, so each piece is also stepped
    both ways from one state and one set of reads (shadow_simulate_dde),
    where nothing grows: the run is the kernel's to the bit, and each
    piece's stage loop lies within the piece's terms of the bound."""
    args = (schedule, tau, x0, t0, t1)
    options = {"step": step, "delay_diagonal": delay_diagonal}
    times, states, _, _ = brute_simulate_dde(*args, **options)
    _assert_same_bytes(traj.times, times)
    X = max(np.abs(np.asarray(x0)).max(), np.abs(states).max(),
            np.abs(traj.states).max())
    bound = dde_deviation_bound(schedule, tau, t0, t1, step, delay_diagonal, X)
    deviation = np.abs(traj.states - states).max()
    assert deviation <= bound, (deviation, bound)
    times, states, pieces = shadow_simulate_dde(*args, **options)
    _assert_same_bytes(traj.times, times)
    _assert_same_bytes(traj.states, states)
    for m, h, X, deviation in pieces:
        bound = _piece_terms(schedule.n, schedule.bound, m, h,
                             delay_diagonal) * EPS * X
        assert deviation <= bound, (m, h, deviation, bound)


class TestDdeStages:
    """simulate_dde steps every delayed piece as an affine recurrence per
    component, solved by a doubling scan, and reads the history once per
    window; the oracle of conftest steps one stage at a time through
    piece_entries_at, with two Hermite reads per piece.  Times agree to the
    bit, and states within the bound the dynamics module docstring
    derives."""

    @pytest.mark.parametrize("n", [2, 5, 21])
    @pytest.mark.parametrize("kind, tau, delay_diagonal", [
        *itertools.product(["constant", "switching", "sinusoidal", "mixed"],
                           [0.07, 4.5], [False, True]),
        ("overflowing", 0.5, False),
    ])
    def test_matches_per_stage_oracle(self, rng, kind, tau, delay_diagonal, n):
        # tau = 0.07 lies below one piece; a window of tau = 4.5 spans
        # several pieces, and at n = 2 the finer step makes its longest
        # pieces more than one scan chunk.  The overflowing schedule has h M in
        # the hundreds: the oracle's states reach inf and then NaN, and
        # simulate_dde stops at the end of the piece where they leave the
        # float range.
        sch = _dde_schedule(rng, kind, n)
        x0 = rng.uniform(-1.0, 1.0, n)
        t1 = sch.horizon[1]
        if kind == "overflowing":
            with pytest.warns(StepTooLargeWarning), \
                    pytest.raises(NonFiniteState) as stopped:
                simulate_dde(sch, tau, x0, 0.0, t1, step=0.1,
                             delay_diagonal=delay_diagonal)
            with np.errstate(over="ignore", invalid="ignore"):
                times, states, _, _ = brute_simulate_dde(
                    sch, tau, x0, 0.0, t1, step=0.1,
                    delay_diagonal=delay_diagonal)
            # It stops at the first end of a piece or a tau-window at or
            # after the oracle's first non-finite node.
            ends, w = set(sch.ends.tolist()), 0.0
            while w < t1:
                w = min(w + tau, t1)
                ends.add(w)
            first = times[~np.isfinite(states).all(axis=1)][0]
            assert stopped.value.t == min(t for t in times[times >= first]
                                          if t in ends)
            return
        step = 0.02 if n > 2 else 0.0025
        assert _SCAN_ROWS < 4.0 / 0.0025  # the longest pieces at n = 2
        traj = simulate_dde(sch, tau, x0, 0.0, t1, step=step,
                            delay_diagonal=delay_diagonal)
        _assert_near_oracle(traj, sch, tau, x0, 0.0, t1, step=step,
                            delay_diagonal=delay_diagonal)

    @pytest.mark.parametrize("t0, tau", [(3e7, 0.2), (1e8, 0.1)])
    def test_constant_history_far_from_zero(self, t0, tau):
        # t0 - tau rounds at the spacing of floats near t0 (3.7e-9 at 3e7),
        # more than 1e-9 tau; the first window reads the history row there.
        sch = constant_schedule(chain_matrix(), t0, t0 + 1.0)
        traj = simulate_dde(sch, tau, [1.0, -1.0], t0, t0 + 1.0)
        assert traj.times[0] == t0
        _assert_near_oracle(traj, sch, tau, [1.0, -1.0], t0, t0 + 1.0)

    def test_window_too_short_for_a_piece(self):
        # Far from 0 the tau-windows add up to a last window of 2.3e-10,
        # below what _pieces resolves at t = 1e6: it is stepped by no piece.
        sch = constant_schedule(symmetric_pair(), 1e6, 1e6 + 1.0)
        traj = simulate_dde(sch, 0.1, [1.0, -1.0], 1e6, 1e6 + 1.0)
        assert 0.0 < 1e6 + 1.0 - traj.times[-1] < 1e-9
        _assert_near_oracle(traj, sch, 0.1, [1.0, -1.0], 1e6, 1e6 + 1.0)

    def test_default_step_on_a_dense_switching_run(self):
        spec = {"kind": "random_switching", "period": 0.5,
                "link_probability": 0.9, "weight_range": [0.5, 1.5],
                "seed": 3}
        sch = generate_topology(spec, 12, 0.0, 3.0)
        x0 = np.random.default_rng(3).uniform(-1.0, 1.0, 12)
        traj = simulate_dde(sch, 0.3, x0, 0.0, 3.0)
        _assert_near_oracle(traj, sch, 0.3, x0, 0.0, 3.0)

    def test_returned_arrays_own_their_memory(self):
        # The node count is planned before stepping: the t0 node and the
        # steps of every piece of every window, one allocation of each array.
        spec = {"kind": "random_switching", "period": 0.5,
                "link_probability": 0.9, "weight_range": [0.5, 1.5],
                "seed": 1}
        sch = generate_topology(spec, 8, 0.0, 20.0)
        x0 = np.random.default_rng(8).uniform(-1.0, 1.0, 8)
        traj = simulate_dde(sch, 1.0, x0, 0.0, 20.0, step=0.0039)
        steps = sum(brute_substeps(a, b, 0.0039)[0] for k in range(20)
                    for a, b, _ in brute_pieces(sch, float(k), k + 1.0))
        assert len(traj.times) == 1 + steps == 5161
        for arr in (traj.times, traj.states):
            assert arr.base is None

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


class TestAffineSteps:
    """The parts of _march: the drives of a piece, each step's (r, w) and
    the doubling scan, each against a per-step or per-time reference."""

    @pytest.mark.parametrize("delay_diagonal", [False, True])
    def test_drives_are_the_per_time_products(self, rng, delay_diagonal):
        # d = c diag(B) to the bit; u = c (xd @ off_B.T) sums each row in
        # gemm's order, the per-time product off(t) @ xd in gemv's, each
        # with n + 1 roundings of terms that add up to at most 2 M X.
        n, k = 9, 64
        xd = rng.uniform(-1.0, 1.0, (k, n))
        times = np.sort(rng.uniform(0.0, 1.0, k))
        for sch in (constant_schedule(random_metzler(rng, n), 0.0, 1.0),
                    build_schedule([(0.0, 1.0, _sinusoidal(rng, n))])):
            d, u = _drives(sch, 0, times, xd, delay_diagonal)
            c = sch.profile(0, times)
            B = sch.couplings[0]
            for j, t in enumerate(times.tolist()):
                A = piece_entries_at(sch, 0, t)
                d_want = (np.zeros(n) if delay_diagonal
                          else c[j] * np.diag(B))
                _assert_same_bytes(np.broadcast_to(d, (k, n))[j], d_want)
                off = A if delay_diagonal else A - np.diag(np.diag(A))
                assert np.abs(u[j] - off @ xd[j]).max() <= \
                    (2 * n + 2) * EPS * sch.bound

    def test_steps_are_the_formula_in_python_floats(self, rng):
        # Each (r_j, w_j) is the module docstring's stage algebra
        # evaluated for that step alone in Python floats, which round as
        # numpy's ufuncs round each element: to the bit, with d varying
        # per step, one row of d for every step, and d = 0.
        m, n, h = 50, 3, 0.0173
        ds = [-rng.uniform(0.0, 8.0, (m, n)) for _ in range(3)]
        us = [rng.normal(size=(m, n)) for _ in range(3)]
        row = -rng.uniform(0.0, 8.0, n)
        for d1, dm, de in (ds, (row, row, row), (np.zeros(n),) * 3):
            r, w = (np.broadcast_to(v, (m, n))
                    for v in _affine_steps(d1, dm, de, *us, h))
            for j, c in itertools.product(range(m), range(n)):
                a1, am, ae = (float(np.broadcast_to(v, (m, n))[j, c])
                              for v in (d1, dm, de))
                b1, bm, be = (float(v[j, c]) for v in us)
                p2 = am * (1.0 + 0.5 * h * a1)
                p3 = am * (1.0 + 0.5 * h * p2)
                p4 = ae * (1.0 + h * p3)
                q2 = am * (0.5 * h * b1) + bm
                q3 = am * (0.5 * h * q2) + bm
                q4 = ae * (h * q3) + be
                r_want = 1.0 + h / 6.0 * (((a1 + 2.0 * p2) + 2.0 * p3) + p4)
                w_want = h / 6.0 * (((b1 + 2.0 * q2) + 2.0 * q3) + q4)
                assert float(r[j, c]).hex() == r_want.hex()
                assert float(w[j, c]).hex() == w_want.hex()

    @pytest.mark.parametrize("kind", ["constant", "sinusoidal"])
    def test_steps_are_convex_up_to_hm_one(self, rng, kind):
        # The module docstring's sign condition, read from the kernel's own
        # arrays: r from zero drives and each read weight from a unit
        # drive at that stage.  For h M <= 1, r lies in [0.375, 1], up to
        # the rounding of r, at most 10 roundings on terms that add up to
        # at most 2; the weights are >= 0, and a constant state is a fixed
        # point, r + W1 |d1| + Wm |dm| + We |de| = 1, up to 40 roundings
        # on terms of at most 2 in all.
        for _ in range(150):
            n = int(rng.integers(2, 13))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            density = rng.uniform(0.1, 1.0)
            if kind == "constant":
                sch = constant_schedule(
                    scale * random_metzler(rng, n, density=density), 0.0, 1.0)
            else:
                sch = build_schedule([(0.0, 1.0, _sinusoidal(
                    rng, n, scale=scale, density=density))])
            if sch.bound == 0.0:
                continue
            h = float(rng.choice([1.0, rng.uniform(0.0, 1.0)])) / sch.bound
            while h * sch.bound > 1.0:
                h = np.nextafter(h, 0.0)
            t = rng.uniform(0.0, 1.0, 20)
            zeros = np.zeros((20, n))
            d1, dm, de = (_drives(sch, 0, times, zeros, False)[0]
                          for times in (t, t + 0.5 * h, t + h))
            r, _ = _affine_steps(d1, dm, de, zeros, zeros, zeros, h)
            units = [[1.0 if k == i else 0.0 for k in range(3)]
                     for i in range(3)]
            W = [_affine_steps(d1, dm, de, *(v + zeros for v in unit), h)[1]
                 for unit in units]
            assert r.max() <= 1.0 and r.min() >= 0.375 - 10 * EPS
            assert min(w.min() for w in W) >= 0.0
            fixed = r - W[0] * d1 - W[1] * dm - W[2] * de
            assert np.abs(fixed - 1.0).max() <= 40 * EPS

    @pytest.mark.parametrize("m", [1, 2, 3, 100, 255, 256])
    @pytest.mark.parametrize("delay_diagonal", [False, True])
    def test_scan_is_the_recurrence(self, rng, m, delay_diagonal):
        # Against the recurrence in exact rationals: each term of a state
        # passes k = 2 + l (l + 3) / 2 roundings at l = ceil(log2 m) levels
        # (module docstring), so a state errs by at most
        # k eps / 2 (|y| + sum of |w|), plus eps / 2 |y_j| for rounding the
        # exact value to a float.
        n = 3
        r = (np.ones((m, n)) if delay_diagonal
             else rng.uniform(0.375, 1.0, (m, n)))
        w = rng.uniform(-1.0, 1.0, (m, n)) * (1.0 if delay_diagonal
                                               else 1.0 - r)
        y0 = rng.uniform(-1.0, 1.0, n)
        xs = w.copy()
        _assert_same_bytes(_scan(r.copy(), xs, y0.copy()), xs[-1])
        exact = np.empty((m, n))
        for c in range(n):
            y = Fraction(float(y0[c]))
            for j in range(m):
                y = Fraction(float(r[j, c])) * y + Fraction(float(w[j, c]))
                exact[j, c] = float(y)
        levels = (m - 1).bit_length()
        k = 2 + levels * (levels + 3) / 2
        bound = k * EPS / 2 * (np.abs(y0) + np.abs(w).sum(axis=0))
        assert (np.abs(xs - exact) <= bound + EPS / 2 * np.abs(exact)).all()

    @pytest.mark.parametrize("n", [2, 3, 8, 21, 64])
    @pytest.mark.parametrize("kind", ["constant", "switching", "sinusoidal"])
    @pytest.mark.parametrize("delay_diagonal", [False, True])
    def test_march_matches_the_stage_loop(self, rng, n, kind, delay_diagonal):
        # Pieces of 1, 40 and 300 steps (two scan chunks), the reads drawn
        # at random within [-1, 1], at h M up to 1.  Both routes go on from
        # their own states, and with the reads given nothing grows, so the
        # states differ by at most the sum of the pieces' terms of the
        # module docstring's bound.  A stored derivative d y + u differs by
        # M times that, plus the drives' rounding ((2 n + 1) eps M X) and
        # that of the diagonal and of the product and sum on each route.
        lengths = [300] if kind == "constant" else [1, 40, 300]
        arcs = {"density": 1.0 if n == 2 else 0.6}
        pieces, a = [], 0.0
        for m in lengths:
            entries = random_metzler(rng, n, **arcs) / n
            if kind == "sinusoidal":
                entries = _sinusoidal(rng, n, scale=1.0 / n, **arcs)
            pieces.append((a, a + m, entries))
            a += m
        sch = build_schedule(pieces)
        h = float(rng.uniform(0.1, 1.0)) / sch.bound
        x = x_brute = rng.uniform(-1.0, 1.0, n)
        size = 1 + sum(lengths)
        states, derivs = np.empty((size, n)), np.zeros((size, n))
        states[0] = x
        brute = BruteStore()
        brute.append(0.0, x, np.zeros(n))
        a, k, terms = 0.0, 1, 0.0
        for i, m in enumerate(lengths):
            grid = a + h * np.arange(1, m + 1)
            xd_nodes = rng.uniform(-1.0, 1.0, (m + 1, n))
            xd_half = rng.uniform(-1.0, 1.0, (m, n))
            x = _march(x, sch, i, a, grid, h,
                       np.concatenate((xd_nodes, xd_half)), delay_diagonal,
                       (derivs[k - 1], states[k:k + m], derivs[k:k + m]))
            rhs = piece_rhs(sch, i, split_delay(delay_diagonal))
            x_brute = brute_march(brute, x_brute, a, grid, h, rhs,
                                  xd_nodes, xd_half)
            terms += _piece_terms(n, sch.bound, m, h, delay_diagonal)
            a, k = grid[-1], k + m
        _, want, want_derivs, _ = brute.arrays()
        X = max(1.0, np.abs(states).max(), np.abs(want).max())
        bound = terms * EPS * X
        assert np.abs(states - want).max() <= bound
        M = sch.bound
        assert np.abs(derivs - want_derivs).max() <= \
            M * bound + (3 * n + 8) * EPS * M * X


def _nodes_in(traj, lo, hi):
    """(times, states) of the stored nodes in [lo, hi]."""
    inside = (traj.times >= lo) & (traj.times <= hi)
    return traj.times[inside], traj.states[inside]


class TestDde:
    def test_first_window_closed_form(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_dde(sch, 1.0, [1.0, -1.0], 0.0, 3.0)
        times, states = _nodes_in(traj, 0.0, 1.0)
        assert len(times) > 10 and times[-1] == 1.0
        for t, x in zip(times, states):
            assert x[0] == pytest.approx(2.0 * math.exp(-t) - 1.0, abs=1e-6)
            assert x[1] == pytest.approx(-x[0], abs=1e-9)

    def test_second_window_closed_form(self):
        # d(t) = 4 e^{-t} - 4 t e^{1 - t} + 2 on [1, 2], d = x1 - x2 = 2 x1.
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_dde(sch, 1.0, [1.0, -1.0], 0.0, 3.0)
        times, states = _nodes_in(traj, 1.0, 2.0)
        assert len(times) > 10 and times[-1] == 2.0
        for t, x in zip(times, states):
            d = 4.0 * math.exp(-t) - 4.0 * t * math.exp(1.0 - t) + 2.0
            assert x[0] == pytest.approx(d / 2.0, abs=1e-6)

    def test_fully_delayed_polynomial_windows(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 2.0,
                            delay_diagonal=True)
        # d(t) = 2 - 4t on [0, 0.5]; d(0.5 + v) = -4v + 4v^2
        times, states = _nodes_in(traj, 0.0, 1.0)
        assert len(times) > 10 and times[-1] == 1.0
        for t, x in zip(times, states):
            v = t - 0.5
            d = 2.0 - 4.0 * t if v <= 0.0 else -4.0 * v + 4.0 * v * v
            assert x[0] == pytest.approx(d / 2.0, abs=1e-9)
        assert traj.delay_diagonal is True
        assert traj.tau == 0.5

    def test_half_step_self_agreement(self):
        # Every node of the coarse run is every second node of the fine
        # one; they agree over the last window.
        sch = constant_schedule(symmetric_pair(), 0.0, 6.0)
        a = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 6.0, step=0.05)
        b = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 6.0, step=0.025)
        assert len(b.times) == 2 * len(a.times) - 1
        np.testing.assert_allclose(b.times[::2], a.times, rtol=0.0, atol=1e-12)
        last = a.times >= 5.5
        assert last.sum() == 11
        assert np.max(np.abs(a.states[last] - b.states[::2][last])) < 1e-8

    def test_delayed_runs_are_not_interpolated(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 2.0)
        with pytest.raises(ValueError, match="undelayed"):
            interpolate_state(sch, traj, 1.0)

    @pytest.mark.parametrize("x0", [[1.0], [1.0, -1.0, 0.0],
                                    [[1.0, -1.0], [1.0, -1.0]]],
                             ids=["short", "long", "matrix"])
    def test_initial_state_shape_is_checked(self, x0):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        with pytest.raises(ValueError, match="x0 must have shape"):
            simulate_dde(sch, 0.5, x0, 0.0, 2.0)

    @pytest.mark.parametrize("tau", [0.0, -0.5, math.nan])
    def test_tau_must_be_positive(self, tau):
        sch = constant_schedule(symmetric_pair(), 0.0, 2.0)
        with pytest.raises(ValueError, match="tau must be positive"):
            simulate_dde(sch, tau, [1.0, -1.0], 0.0, 2.0)


class TestStepResolution:
    """_plan_step refuses a step, or a span shorter than it, at or below
    _resolution of the run's largest time; far from 0 such a run rounded
    its times to duplicates, integrated nothing, or never advanced a
    tau-window."""

    T0 = 1.0e15

    def test_bound_is_exact(self):
        t1 = self.T0 + 4.0
        sch = constant_schedule(chain_matrix(), self.T0, t1)
        bound = _resolution(t1)
        assert bound == 1e-15 * t1
        with pytest.raises(InvalidSpec, match="shortest piece resolved"):
            _plan_step(sch, self.T0, t1, step=bound)
        above = math.nextafter(bound, math.inf)
        assert _plan_step(sch, self.T0, t1, step=above) == above

    def test_a_span_at_the_bound_is_refused(self):
        # A step longer than the span leaves one piece of the span's length.
        sch = constant_schedule(chain_matrix(), self.T0, self.T0 + 2.0)
        assert _plan_step(sch, self.T0, self.T0 + 2.0, step=4.0) == 4.0
        with pytest.raises(InvalidSpec, match="shortest piece resolved"):
            _plan_step(sch, self.T0, self.T0 + 1.0, step=4.0)

    @pytest.mark.parametrize("tau", [None, 0.5], ids=["ode", "dde"])
    def test_both_simulators_refuse(self, tau):
        sch = constant_schedule(chain_matrix(), self.T0, self.T0 + 4.0)
        with pytest.raises(InvalidSpec, match="shortest piece resolved"):
            if tau is None:
                simulate_ode(sch, [1.0, -1.0], self.T0, self.T0 + 4.0,
                             step=0.05)
            else:
                simulate_dde(sch, tau, [1.0, -1.0], self.T0, self.T0 + 4.0,
                             step=0.05)


class TestDelayedFunctional:
    def test_non_increasing_for_coupling_delay(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 20.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 20.0, step=0.01)
        times, values = self._series(traj, 0.5)
        assert times[0] == pytest.approx(0.5)
        assert np.all(np.diff(values) <= 1e-10)

    def test_window_spread_dominates_plain_spread(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 10.0)
        traj = simulate_dde(sch, 0.3, [2.0, -1.0], 0.0, 10.0)
        times, window = self._series(traj, 0.3)
        all_times, plain = spread_series(traj)
        assert np.array_equal(times, all_times[-len(times):])
        assert np.all(window >= plain[-len(times):] - 1e-12)

    def test_window_not_covered(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 0.5)
        traj = simulate_dde(sch, 0.2, [1.0, -1.0], 0.0, 0.5)
        with pytest.raises(WindowNotCovered):
            delayed_functional_series(traj, 5.0)

    @staticmethod
    def _trajectory(times, states):
        return Trajectory(times=np.asarray(times, dtype=float), states=states)

    @staticmethod
    def _series(traj, tau):
        """delayed_functional_series, checked to the bit against the deque
        form it replaced: signed zeros and NaN payloads included."""
        got = delayed_functional_series(traj, tau)
        want = deque_delayed_functional_series(traj, tau)
        for arr, ref in zip(got, want):
            _assert_same_bytes(arr, ref)
        return got

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
        traj = self._trajectory(times, states)
        span = times[-1] - times[0]
        tau = span if tau == "span" else tau
        got = self._series(traj, tau)
        if tau == span:
            assert len(got[0]) == len(got[1]) == 1
        self._assert_same_series(
            got, brute_delayed_functional_series(traj, tau))

    def test_matches_slice_oracle_on_node_edges(self, rng):
        # Binary fractions: every window edge t - tau is a node.
        times = 0.125 * np.arange(200)
        traj = self._trajectory(times, rng.normal(size=(200, 3)))
        got = self._series(traj, 0.5)
        assert np.isin(got[0] - 0.5, times).all()
        self._assert_same_series(
            got, brute_delayed_functional_series(traj, 0.5))

    def test_matches_slice_oracle_on_infinite_and_nan_rows(self, rng):
        states = rng.normal(size=(400, 3))
        states[[30, 31, 200]] = np.inf
        states[[90, 250], 1] = -np.inf
        states[[150, 151, 320], 2] = np.nan
        states[399] = np.nan
        traj = self._trajectory(np.cumsum(rng.uniform(0.01, 0.03, 400)),
                                states)
        got = self._series(traj, 0.4)
        assert np.isnan(got[1]).any() and np.isfinite(got[1]).any()
        self._assert_same_series(
            got, brute_delayed_functional_series(traj, 0.4))

    def test_nan_edge_makes_the_window_nan(self, rng):
        # The window at t = 2 holds the nodes at 1 and 2 and its edge
        # x(0.5), read from the NaN row 0; Python's max(1.0, nan) is 1.0.
        states = np.zeros((5, 4))
        states[:, 0] = 1.0
        states[0] = np.nan
        traj = self._trajectory(np.arange(5.0), states)
        times, values = self._series(traj, 1.5)
        assert times.tolist() == [2.0, 3.0, 4.0]
        assert np.isnan(values[0])
        assert values[1:].tolist() == [1.0, 1.0]
        # An edge on a node is that node, even next to an infinite one:
        # at t = 3 and tau = 1 the edge x(2) reads row 2, not 1 * x2 + 0 * inf.
        states = np.zeros((5, 2))
        states[:, 0] = 1.0
        states[3] = np.inf
        traj = self._trajectory(np.arange(5.0), states)
        _, values = self._series(traj, 1.0)
        assert values.tolist() == [1.0, 1.0, math.inf, math.inf]

    @pytest.mark.parametrize("tau", [0.02, 0.05, 0.1])
    def test_signed_zero_ties_nan_rows_and_nan_edges(self, rng, tau):
        # Mostly rows of 0.0 and -0.0, so that many window extremes are
        # ties that only the sign tells apart.  A run of infinite rows
        # gives windows of inf - inf, whose NaN payload is the
        # subtraction's.  NaN entries make NaN rows, and NaN edges where
        # an edge falls next to one.
        states = rng.choice([0.0, -0.0, 1.0, -1.0, np.inf], size=(600, 2),
                            p=[0.42, 0.42, 0.06, 0.06, 0.04])
        states[100:160] = np.inf
        states[[300, 420, 421], rng.integers(0, 2, 3)] = np.nan
        traj = self._trajectory(np.cumsum(rng.uniform(0.01, 0.03, 600)),
                                states)
        _, values = self._series(traj, tau)
        assert (values == 0.0).any()
        assert np.isinf(values).any() and np.isnan(values).any()

    def test_window_extremes_keep_the_latest_of_tied_zeros(self, rng):
        # 0.0 and -0.0 compare equal; the monotone deque drops the earlier
        # of equal values, so a window extreme of 0 is the latest zero's.
        row_max = rng.choice([0.0, -0.0, -1.0], 400)
        row_min = rng.choice([0.0, -0.0, 1.0], 400)
        hi = np.arange(400)
        lo = np.maximum(hi - rng.integers(0, 70, 400), 0)
        top, bottom = _window_extremes(row_max, row_min, lo, hi)
        for got, values, pick in ((top, row_max, max), (bottom, row_min, min)):
            assert np.signbit(got[got == 0.0]).any()
            assert not np.signbit(got[got == 0.0]).all()
            for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
                extreme = pick(values[a:b + 1].tolist())
                k = max(k for k in range(a, b + 1) if values[k] == extreme)
                assert got[j].tobytes() == values[k].tobytes()

    def test_matches_slice_oracle_on_a_simulated_run(self, rng):
        # A delayed switching run: window edges fall between nodes.
        sch = build_schedule(
            [(float(i), float(i + 1), random_metzler(rng, 3, density=0.8))
             for i in range(6)])
        traj = simulate_dde(sch, 0.7, rng.uniform(-1.0, 1.0, 3), 0.0, 6.0,
                            step=0.05)
        got = self._series(traj, 0.7)
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
            _, values = self._series(traj, tau)
            report = monotonicity_from_series("delayed_spread", values)
            assert report.passed, (n, period, tau, step, report.worst_violation)
