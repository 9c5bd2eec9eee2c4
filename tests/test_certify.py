"""Coupling numbers, trap factors, lemma brackets, chained certificates.

Frozen values, derived by hand before implementation:
  - unit 3-ring over T = 1: a_GH = a_HG = a_HH = 1 for G = {1};
  - trap factor: 0 when a_HG = 0; 1/2 at (a_GH, a_HG, a_HH) = (0, |H|, 0);
    e^{-1}/2 at (1, |H|, 0);
  - group interval from mu = [-1, 1], g = [1, 1], a_GH = 1:
    [-1 + 2 e^{-1}, 1];
  - two-node chain, T = 2: beta = 2/3, rho = 1/3;
  - alternating leader-follower pair, full cycle 2, T = 2: rho = 1 - e^{-1}/2.
"""

import math

import numpy as np
import pytest

from consensus_lab import (
    DegenerateSeries,
    HypothesisUnverified,
    InvalidPartition,
    NodeOutOfRange,
    NoTrappedComponent,
    OrderingViolated,
    OutOfHorizon,
    PartitionCoupling,
    Trajectory,
    beta_factor,
    build_schedule,
    constant_schedule,
    contraction_certificate,
    coupling_numbers,
    estimate_decay_rate,
    from_offdiagonal,
    integrate_schedule,
    lemma_intervals,
    simulate_ode,
    spread_series,
    verify_lemma_on_trajectory,
)

from conftest import (chain_matrix, random_metzler, symmetric_pair,
                      witnessed_certificate)


def ring3():
    off = np.zeros((3, 3))
    for k in range(3):
        off[k, (k + 1) % 3] = 1.0
    return from_offdiagonal(off)


def alternating_pair_schedule(t_end=2.0):
    a = np.array([[0.0, 0.0], [1.0, -1.0]])   # node 2 follows node 1
    b = np.array([[-1.0, 1.0], [0.0, 0.0]])   # node 1 follows node 2
    pieces = []
    start = 0.0
    idx = 0
    while start < t_end:
        pieces.append((start, start + 1.0, a if idx % 2 == 0 else b))
        start += 1.0
        idx += 1
    return build_schedule(pieces)


class TestCouplingNumbers:
    def test_ring_frozen_values(self):
        sch = constant_schedule(ring3(), 0.0, 5.0)
        pc = coupling_numbers(integrate_schedule(sch, 0.0, 1.0), [1])
        assert pc.a_gh == pytest.approx(1.0, abs=1e-12)
        assert pc.a_hg == pytest.approx(1.0, abs=1e-12)
        assert pc.a_hh == pytest.approx(1.0, abs=1e-12)
        assert pc.group == (1,) and pc.rest == (2, 3)

    def test_rejects_empty_and_full_groups(self):
        sch = constant_schedule(ring3(), 0.0, 2.0)
        w = integrate_schedule(sch, 0.0, 1.0)
        with pytest.raises(InvalidPartition):
            coupling_numbers(w, [])
        with pytest.raises(InvalidPartition):
            coupling_numbers(w, [1, 2, 3])

    def test_rejects_out_of_range_nodes(self):
        sch = constant_schedule(ring3(), 0.0, 2.0)
        with pytest.raises(NodeOutOfRange):
            coupling_numbers(integrate_schedule(sch, 0.0, 1.0), [4])


class TestBetaFactor:
    def test_vanishes_without_incoming_coupling(self):
        pc = PartitionCoupling((1,), (2, 3), a_gh=2.0, a_hg=0.0, a_hh=1.0)
        assert beta_factor(pc) == 0.0

    def test_half_at_unit_share(self):
        pc = PartitionCoupling((1,), (2, 3), a_gh=0.0, a_hg=2.0, a_hh=0.0)
        assert beta_factor(pc) == pytest.approx(0.5, abs=1e-15)

    def test_group_drift_discounts(self):
        pc = PartitionCoupling((1,), (2,), a_gh=1.0, a_hg=1.0, a_hh=0.0)
        assert beta_factor(pc) == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-15)

    def test_always_below_one(self, rng):
        for _ in range(200):
            pc = PartitionCoupling(
                (1,), tuple(range(2, 2 + int(rng.integers(1, 6)))),
                a_gh=float(rng.uniform(0.0, 5.0)),
                a_hg=float(rng.uniform(0.0, 20.0)),
                a_hh=float(rng.uniform(0.0, 5.0)))
            assert 0.0 <= beta_factor(pc) < 1.0

    def test_empty_complement_is_rejected(self):
        # The complement size is always len(rest); a partition built by
        # hand with no complement is an InvalidPartition, not a division
        # by zero.
        pc = PartitionCoupling((1, 2), (), a_gh=0.0, a_hg=1.0, a_hh=0.0)
        with pytest.raises(InvalidPartition):
            beta_factor(pc)


class TestLemmaIntervals:
    def test_frozen_group_interval(self):
        pc = PartitionCoupling((1,), (2,), a_gh=1.0, a_hg=1.0, a_hh=0.0)
        g_out, h_out = lemma_intervals(pc, (-1.0, 1.0), (1.0, 1.0))
        assert g_out[0] == pytest.approx(-1.0 + 2.0 * math.exp(-1.0), abs=1e-15)
        assert g_out[1] == pytest.approx(1.0)
        beta = math.exp(-1.0) / 2.0
        assert h_out[0] == pytest.approx(-1.0 + 2.0 * beta, abs=1e-15)
        assert h_out[1] == pytest.approx(1.0)

    def test_h_interval_contains_g_interval(self, rng):
        for _ in range(50):
            pc = PartitionCoupling(
                (1,), (2, 3),
                a_gh=float(rng.uniform(0.0, 3.0)),
                a_hg=float(rng.uniform(0.01, 6.0)),
                a_hh=float(rng.uniform(0.0, 3.0)))
            lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
            g = sorted(rng.uniform(lo, hi, 2))
            g_out, h_out = lemma_intervals(pc, (lo, hi), tuple(g))
            assert h_out[0] <= g_out[0] + 1e-14
            assert g_out[1] <= h_out[1] + 1e-14

    def test_ordering_violated(self):
        pc = PartitionCoupling((1,), (2,), a_gh=0.0, a_hg=1.0, a_hh=0.0)
        with pytest.raises(OrderingViolated):
            lemma_intervals(pc, (-1.0, 1.0), (2.0, 3.0))


class TestLemmaOnTrajectory:
    def test_chain_window_passes(self):
        sch = constant_schedule(chain_matrix(), 0.0, 4.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 4.0)
        report = verify_lemma_on_trajectory(sch, traj, [2], 0.0, 2.0)
        assert report.passed
        assert report.trapped == (1,)
        assert report.group_within and report.range_contained
        assert report.beta == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_window_must_fit_trajectory(self):
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0)
        with pytest.raises(OutOfHorizon):
            verify_lemma_on_trajectory(sch, traj, [2], 1.0, 2.0)


class TestContractionCertificate:
    def test_chain_frozen_rho(self):
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        report = witnessed_certificate(sch, [1.0, 0.0], 0.0, 2.0,
                                         delta=0.1, root=2)
        assert report.rho == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.passed
        assert [s.promoted for s in report.stages] == [1]
        assert report.observed_spread_end <= report.rho * report.v0 + report.slack

    def test_alternating_pair_frozen_rho(self):
        sch = alternating_pair_schedule(2.0)
        report = witnessed_certificate(sch, [1.0, -1.0], 0.0, 2.0,
                                         delta=0.5, root=1)
        assert report.rho == pytest.approx(1.0 - math.exp(-1.0) / 2.0, abs=1e-12)
        assert report.passed
        assert report.certified_rate == pytest.approx(
            -math.log(1.0 - math.exp(-1.0) / 2.0) / 2.0)

    def test_ring_multi_stage(self):
        sch = constant_schedule(ring3(), 0.0, 4.0)
        report = witnessed_certificate(sch, [1.0, 0.0, -1.0], 0.0, 2.0,
                                         delta=0.05, root=1)
        assert report.passed
        assert len(report.stages) == 2
        assert 0.0 < report.rho < 1.0
        promoted = {s.promoted for s in report.stages}
        assert promoted == {2, 3}

    def test_hypothesis_unverified_with_isolated_node(self):
        off = np.zeros((3, 3))
        off[0, 1] = off[1, 0] = 1.0
        sch = constant_schedule(from_offdiagonal(off), 0.0, 4.0)
        with pytest.raises(HypothesisUnverified):
            witnessed_certificate(sch, [1.0, 0.0, -1.0], 0.0, 2.0,
                                    delta=0.1, root=1)

    def test_no_trapped_component_when_hypothesis_skipped(self):
        off = np.zeros((3, 3))
        off[0, 1] = off[1, 0] = 1.0
        sch = constant_schedule(from_offdiagonal(off), 0.0, 4.0)
        with pytest.raises(NoTrappedComponent) as err:
            witnessed_certificate(sch, [1.0, 0.0, -1.0], 0.0, 2.0,
                                    delta=0.1, root=1, verify_hypothesis=False)
        assert err.value.stage == 2

    def test_rootedness_lost_at_stage_two(self):
        # Node 1 leads nodes 2 and 3 on [0, 2) and is cut off on [2, 4).
        lead = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        cut = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        sch = build_schedule([(0.0, 2.0, from_offdiagonal(lead)),
                              (2.0, 4.0, from_offdiagonal(cut))])
        x0 = [0.0, 1.0, -1.0]
        with pytest.raises(HypothesisUnverified) as err:
            witnessed_certificate(sch, x0, 0.0, 2.0, delta=0.1, root=1)
        assert str(err.value).startswith("stage 2: node 1 ")
        assert "window [2.0, 4.0]" in str(err.value)
        # Unchecked, stage 1 promotes a node and stage 2 runs too.
        report = witnessed_certificate(sch, x0, 0.0, 2.0, delta=0.1,
                                         root=1, verify_hypothesis=False)
        assert [s.window for s in report.stages] == [(0.0, 2.0), (2.0, 4.0)]

    def test_vacuous_stage_one_trap_comes_before_stage_two_rootedness(self):
        # As above, but node 1 also follows node 2 so strongly that
        # exp(-a_GH) underflows: stage 1 fails first.
        lead = [[0.0, 400.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        cut = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        sch = build_schedule([(0.0, 2.0, from_offdiagonal(lead)),
                              (2.0, 4.0, from_offdiagonal(cut))])
        with pytest.raises(NoTrappedComponent) as err:
            witnessed_certificate(sch, [0.0, 1.0, -1.0], 0.0, 2.0,
                                    delta=0.1, root=1, step=0.001)
        assert err.value.stage == 1

    def test_no_complement_node_in_the_trap_bracket(self):
        # A handed-in trajectory that holds still where the chain pulls
        # node 1 from 1 toward 0: at the window end it lies above the trap
        # bracket [0, 1/3].
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        still = Trajectory(times=np.linspace(0.0, 2.0, 11),
                           states=np.tile([1.0, 0.0], (11, 1)))
        with pytest.raises(NoTrappedComponent,
                           match="no complement node ended inside") as err:
            contraction_certificate(sch, still, 0.0, 2.0, delta=0.1, root=2)
        assert err.value.stage == 1

    def test_span_must_fit_schedule(self):
        sch = constant_schedule(ring3(), 0.0, 3.0)
        traj = simulate_ode(sch, [1.0, 0.0, -1.0], 0.0, 3.0)
        with pytest.raises(OutOfHorizon, match="schedule horizon"):
            contraction_certificate(sch, traj, 0.0, 2.0, delta=0.05, root=1)

    def test_span_must_fit_trajectory(self):
        sch = constant_schedule(ring3(), 0.0, 4.0)
        traj = simulate_ode(sch, [1.0, 0.0, -1.0], 0.0, 3.5)
        with pytest.raises(OutOfHorizon, match="trajectory"):
            contraction_certificate(sch, traj, 0.0, 2.0, delta=0.05, root=1)

    def test_witnesses_the_given_trajectory(self):
        # The stage ends and the span end are read from the trajectory
        # handed in: one that runs past the span and one that stops at it
        # step the same grid up to the span end here, so every value
        # agrees.
        sch = constant_schedule(ring3(), 0.0, 6.0)
        x0 = [1.0, 0.0, -1.0]
        long_run = contraction_certificate(
            sch, simulate_ode(sch, x0, 0.0, 6.0, step=0.01), 0.0, 2.0,
            delta=0.05, root=1)
        assert long_run == witnessed_certificate(sch, x0, 0.0, 2.0, 0.05, 1,
                                                 step=0.01)
        # A trajectory that starts before t0 is read at t0.
        late = contraction_certificate(
            sch, simulate_ode(sch, x0, 0.0, 6.0, step=0.01), 1.0, 2.0,
            delta=0.05, root=1)
        assert late.t0 == 1.0 and late.stages[-1].window == (3.0, 5.0)

    def test_root_in_range(self):
        sch = constant_schedule(ring3(), 0.0, 4.0)
        with pytest.raises(NodeOutOfRange):
            witnessed_certificate(sch, [1.0, 0.0, -1.0], 0.0, 2.0,
                                    delta=0.05, root=9)

    def test_soundness_on_random_rooted_schedules(self, rng):
        passes = 0
        for _ in range(15):
            n = int(rng.integers(3, 6))
            A = random_metzler(rng, n, density=0.95)
            sch = constant_schedule(A, 0.0, float(n))
            x0 = rng.uniform(-2.0, 2.0, n)
            report = witnessed_certificate(sch, x0, 0.0, 1.0,
                                             delta=0.01, root=1)
            # rho itself can round to 1.0 when the per-stage factors are
            # tiny, so the strict-contraction claim lives in the rate
            assert 0.0 < report.certified_rate < math.inf
            assert report.observed_spread_end <= (
                report.rho * report.v0 + report.slack)
            passes += report.passed
        assert passes == 15

    def test_consensus_start_is_trivial(self):
        sch = constant_schedule(ring3(), 0.0, 4.0)
        report = witnessed_certificate(sch, [2.0, 2.0, 2.0], 0.0, 2.0,
                                         delta=0.05, root=1)
        assert report.passed
        assert report.v0 == 0.0


class TestDecayRate:
    def test_exact_exponential(self):
        times = np.linspace(0.0, 6.0, 200)
        assert estimate_decay_rate(times, np.exp(-2.0 * times)) == pytest.approx(
            2.0, abs=1e-12)

    def test_rate_from_simulated_pair(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 5.0)
        traj = simulate_ode(sch, [1.0, -1.0], 0.0, 5.0)
        rate = estimate_decay_rate(*spread_series(traj))
        assert rate == pytest.approx(2.0, abs=1e-3)

    def test_skip_leading_samples(self):
        # Callers drop leading samples by slicing both arrays.
        times = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([5.0, *np.exp(-times[1:])])
        assert estimate_decay_rate(times[1:], values[1:]) == pytest.approx(1.0)
        assert estimate_decay_rate(times, values) != pytest.approx(1.0)

    def test_non_positive_values_are_left_out(self):
        times = np.arange(6.0)
        values = np.exp(-0.5 * times)
        values[[1, 4]] = (0.0, np.nan)
        assert estimate_decay_rate(times, values) == pytest.approx(0.5)

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeries):
            estimate_decay_rate([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(DegenerateSeries):
            estimate_decay_rate([1.0, 1.0], [2.0, 1.0])
