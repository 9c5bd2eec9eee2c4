"""Functionals, audits, eigensolver, exponential, equivalence package.

The 2x2 exponential oracle is the rank-one closed form: for
A = [[-a, a], [b, -b]] and s = a + b,
exp(At) = ( [[b, a], [b, a]] + e^{-st} [[a, -a], [-b, b]] ) / s.
Larger cases are checked against scipy.linalg.expm, eigenvalues against
numpy.linalg.eigvalsh.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from consensus_lab import (
    BalanceViolated,
    EmptyVector,
    NegativeWeight,
    NormTooLarge,
    NotSymmetric,
    Trajectory,
    UnknownFunction,
    UnknownFunctional,
    audit_monotonicity,
    centered_sum_of_squares,
    check_proposition_equivalences,
    column_sums_zero,
    consensus_potential,
    constant_schedule,
    gradient_flow_residual,
    matrix_exponential,
    monotonicity_from_series,
    potential_gradient_fd,
    simulate_ode,
    spread,
    sum_of_squares,
    symmetric_part_nsd,
    weighted_convex_functional,
    weighted_invariance_check,
)

from conftest import chain_matrix, random_metzler, symmetric_pair


def expm_pair_oracle(a, b, t):
    s = a + b
    fixed = np.array([[b, a], [b, a]]) / s
    decay = np.array([[a, -a], [-b, b]]) / s
    return fixed + math.exp(-s * t) * decay


class TestFunctionals:
    def test_spread_values(self):
        assert spread([3.0, -1.0, 2.0]) == 4.0
        assert spread([5.0]) == 0.0

    def test_sum_of_squares(self):
        assert sum_of_squares([3.0, 4.0]) == 25.0

    def test_centered_sum_of_squares(self):
        assert centered_sum_of_squares([1.0, -1.0]) == 2.0
        assert centered_sum_of_squares([7.0, 7.0, 7.0]) == pytest.approx(0.0)

    def test_empty_vector(self):
        with pytest.raises(EmptyVector):
            spread([])

    def test_weighted_convex(self):
        # 1*|−2| + 2*|3| = 8
        value = weighted_convex_functional([-2.0, 3.0], [1.0, 2.0], "abs")
        assert value == 8.0

    def test_weighted_rejects_negative_weight(self):
        with pytest.raises(NegativeWeight):
            weighted_convex_functional([1.0], [-1.0], "square")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            weighted_convex_functional([1.0], [1.0], "cube")


class TestEigenAndExp:
    def test_nsd_detection(self):
        assert symmetric_part_nsd(symmetric_pair())
        assert not symmetric_part_nsd(np.array([[0.0, 0.0], [1.0, -1.0]]))

    def test_column_sums(self):
        assert column_sums_zero(symmetric_pair())
        assert not column_sums_zero(chain_matrix())

    def test_exponential_pair_closed_form(self):
        A = np.array([[-1.0, 1.0], [2.0, -2.0]])
        for t in (0.1, 0.7, 3.0):
            ours = matrix_exponential(A, t)
            assert np.max(np.abs(ours - expm_pair_oracle(1.0, 2.0, t))) < 1e-12

    def test_exponential_matches_scipy(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            A = random_metzler(rng, n)
            t = float(rng.uniform(0.05, 5.0))
            ours = matrix_exponential(A, t)
            oracle = scipy.linalg.expm(np.asarray(A) * t)
            assert np.max(np.abs(ours - oracle)) < 1e-10

    def test_exponential_rows_stochastic(self, rng):
        # zero row sums make exp(At) row-stochastic for any t >= 0
        A = random_metzler(rng, 5)
        E = matrix_exponential(A, 2.5)
        assert np.allclose(E.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(E >= -1e-12)

    def test_norm_cap(self):
        with pytest.raises(NormTooLarge):
            matrix_exponential(symmetric_pair(), 1e5)


class TestPotential:
    def test_potential_value(self):
        # V = -x'Ax/2 with A symmetric pair: V([1,-1]) = 2
        assert consensus_potential(symmetric_pair(), [1.0, -1.0]) == pytest.approx(2.0)

    def test_gradient_flow_residual_small(self, rng):
        A = symmetric_pair(1.3)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, 2)
            assert gradient_flow_residual(A, x) < 1e-7

    def test_gradient_matches_analytic(self, rng):
        A = symmetric_pair(0.8)
        x = rng.uniform(-1.0, 1.0, 2)
        grad = potential_gradient_fd(A, x)
        assert np.max(np.abs(grad - (-(A @ x)))) < 1e-7

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            consensus_potential(chain_matrix(), [1.0, 0.0])


class TestAudits:
    def test_spread_audit_passes_on_chain(self):
        sch = constant_schedule(chain_matrix(), 0.0, 4.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 4.0)
        report = audit_monotonicity(traj, "spread")
        assert report.passed
        assert report.direction == "non-increasing"
        assert report.worst_violation == 0.0

    def test_sum_of_squares_fails_on_unbalanced_flow(self):
        # x1 pinned at 1, x2 rises from 0: sum of squares grows from 1 to ~2
        A = np.array([[0.0, 0.0], [1.0, -1.0]])
        sch = constant_schedule(A, 0.0, 6.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 6.0)
        report = audit_monotonicity(traj, "sum_of_squares")
        assert not report.passed
        assert report.worst_violation > 0.01

    def test_extremes_audits(self):
        A = np.array([[0.0, 0.0], [1.0, -1.0]])
        sch = constant_schedule(A, 0.0, 6.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 6.0)
        assert audit_monotonicity(traj, "max_component").passed
        report = audit_monotonicity(traj, "min_component")
        assert report.direction == "non-decreasing"
        assert report.passed

    def test_potential_audit_on_symmetric_pair(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_ode(sch, [1.0, -1.0], 0.0, 3.0)
        report = audit_monotonicity(traj, "potential", matrix=symmetric_pair())
        assert report.passed

    def test_weighted_audit_on_balanced_pair(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 3.0)
        traj = simulate_ode(sch, [2.0, -1.0], 0.0, 3.0)
        for fname in ("weighted:square", "weighted:abs", "weighted:exp",
                      "weighted:relu", "weighted:pwl"):
            assert audit_monotonicity(traj, fname).passed

    def test_unknown_functional(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 1.0)
        traj = simulate_ode(sch, [1.0, -1.0], 0.0, 1.0)
        with pytest.raises(UnknownFunctional):
            audit_monotonicity(traj, "entropy")

    def test_series_helper_directions(self):
        up = np.array([0.0, 1.0, 3.0])
        assert monotonicity_from_series("v", up, direction="non-decreasing").passed
        report = monotonicity_from_series("v", up)
        assert not report.passed
        assert report.worst_violation == 2.0

    @staticmethod
    def _oracle_audit(rows, value, direction):
        """Per-node audit in Python floats: the functional row by row, then
        the worst forward move against direction over consecutive nodes; a
        NaN move makes the worst NaN and fails the audit."""
        values = [value(row) for row in rows.tolist()]
        slack = 1e-9 * (1.0 + abs(values[0]))
        worst = 0.0
        for a, b in zip(values, values[1:]):
            move = b - a if direction == "non-increasing" else a - b
            if move != move:
                return math.nan, slack, False
            worst = max(worst, move)
        return worst, slack, worst <= slack

    @pytest.mark.parametrize("shape", ["random", "contracting", "nan_row"])
    def test_audits_match_per_node_oracle(self, rng, shape):
        if shape == "random":
            states = rng.normal(size=(60, 4))
        else:
            states = rng.normal(size=4) * 0.9 ** np.arange(60.0)[:, None]
        if shape == "nan_row":
            states[23] = np.nan
        traj = Trajectory(times=np.cumsum(rng.uniform(0.01, 0.1, 60)),
                          states=states, derivs=np.zeros_like(states),
                          derivs_left=np.zeros_like(states))
        cases = (("spread", lambda r: max(r) - min(r), "non-increasing"),
                 ("max_component", max, "non-increasing"),
                 ("min_component", min, "non-decreasing"))
        for fname, value, direction in cases:
            report = audit_monotonicity(traj, fname)
            worst, slack, passed = self._oracle_audit(states, value, direction)
            assert report.direction == direction
            assert np.array_equal(report.worst_violation, worst, equal_nan=True)
            assert report.slack == slack
            assert report.passed is passed
            if shape == "nan_row":
                assert not report.passed


class TestEquivalences:
    def test_balanced_matrix_full_report(self):
        report = check_proposition_equivalences(symmetric_pair(), trials=8,
                                                seed=3)
        assert report.column_balanced and report.symmetric_part_nsd
        assert report.equivalence_consistent
        assert report.exp_doubly_stochastic
        assert report.exp_worst_sum_error < 1e-9
        assert report.functionals_non_increasing
        assert report.functionals_checked == 8

    def test_unbalanced_matrix_skips_probes(self):
        report = check_proposition_equivalences(chain_matrix())
        assert not report.column_balanced and not report.symmetric_part_nsd
        assert report.equivalence_consistent
        assert report.exp_doubly_stochastic is None
        assert report.functionals_non_increasing is None

    def test_equivalence_consistent_across_random_matrices(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 6))
            A = random_metzler(rng, n, density=0.5)
            if rng.random() < 0.5:
                A = (A + A.T) / 2.0  # balanced
            assert check_proposition_equivalences(A, trials=0).equivalence_consistent

    def test_weighted_invariance_balanced(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 4.0)
        traj = simulate_ode(sch, [2.0, -1.0], 0.0, 4.0)
        report = weighted_invariance_check(sch, [1.0, 1.0], traj)
        assert report.conserved
        assert report.conserved_drift < 1e-8
        assert report.passed
        assert len(report.functional_reports) == 5

    def test_weighted_invariance_detects_imbalance(self):
        sch = constant_schedule(chain_matrix(), 0.0, 2.0)
        traj = simulate_ode(sch, [1.0, 0.0], 0.0, 2.0)
        with pytest.raises(BalanceViolated):
            weighted_invariance_check(sch, [1.0, 1.0], traj)

    def test_weighted_invariance_custom_vector(self):
        # p = (1, 2) is a left null vector of [[-2, 2], [1, -1]]
        A = np.array([[-2.0, 2.0], [1.0, -1.0]])
        sch = constant_schedule(A, 0.0, 4.0)
        traj = simulate_ode(sch, [3.0, 0.0], 0.0, 4.0)
        report = weighted_invariance_check(sch, [1.0, 2.0], traj)
        assert report.conserved
        assert report.balance_residual < 1e-12
