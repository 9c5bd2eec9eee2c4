"""Audit functionals and their hypotheses.

Every entry of the audit table is checked against a per-node oracle in
Python floats.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from consensus_lab import (
    AUDITS,
    CONVEX_REGISTRY,
    BalanceViolated,
    EmptyVector,
    HypothesisUnverified,
    NegativeWeight,
    NotSymmetric,
    SinusoidalCoupling,
    Trajectory,
    UnknownFunction,
    UnknownFunctional,
    audit_monotonicity,
    build_schedule,
    check_hypotheses,
    constant_schedule,
    delayed_functional_series,
    from_offdiagonal,
    lyapunov,
    monotonicity_from_series,
    simulate_dde,
    simulate_ode,
)

from conftest import chain_matrix, symmetric_pair


# Column-balanced but not symmetric: the directed 3-cycle 1 -> 2 -> 3 -> 1.
CYCLE = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
# p = (1, 2) is a left null vector: p'A = 0 with p != 1.
WEIGHTED_PAIR = np.array([[-2.0, 2.0], [1.0, -1.0]])


def _stored(rng, states):
    return Trajectory(times=np.cumsum(rng.uniform(0.01, 0.1, len(states))),
                      states=states)


# Each convex function of the registry on one Python float.
PY_CONVEX = {
    "square": lambda u: u * u,
    "abs": abs,
    "exp": math.exp,
    "relu": lambda u: max(u, 0.0),
    "pwl": lambda u: max(-u - 1.0, 0.2 * u, u - 1.0),
}


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
        # The run breaks the hypothesis the audit relies on.
        with pytest.raises(BalanceViolated):
            check_hypotheses(["sum_of_squares"], sch.couplings, sch.starts)

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

    def test_delayed_spread_reads_tau_from_the_run(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 4.0)
        traj = simulate_dde(sch, 0.5, [1.0, -1.0], 0.0, 4.0, step=0.01)
        report = audit_monotonicity(traj, "delayed_spread")
        assert report.passed
        want = monotonicity_from_series(
            "delayed_spread", delayed_functional_series(traj, 0.5)[1])
        assert report == want
        with pytest.raises(UnknownFunctional, match="delayed run"):
            audit_monotonicity(simulate_ode(sch, [1.0, -1.0], 0.0, 4.0),
                               "delayed_spread")

    @pytest.mark.parametrize("functional, options, error", [
        ("weighted:square", {"weights": []}, EmptyVector),
        ("weighted:square", {"weights": [1.0, -1.0]}, NegativeWeight),
        ("weighted:cube", {}, UnknownFunction),
        ("entropy", {}, UnknownFunctional),
        ("weighted", {}, UnknownFunctional),
        ("spread:abs", {}, UnknownFunctional),
        ("potential", {}, UnknownFunctional),
        ("potential", {"matrix": chain_matrix()}, NotSymmetric),
    ], ids=["empty-weights", "negative-weight", "unknown-function",
            "unknown-functional", "weighted-without-f", "suffix-on-spread",
            "potential-without-matrix", "potential-not-symmetric"])
    def test_audit_errors(self, functional, options, error):
        sch = constant_schedule(symmetric_pair(), 0.0, 1.0)
        traj = simulate_ode(sch, [1.0, -1.0], 0.0, 1.0)
        with pytest.raises(error):
            audit_monotonicity(traj, functional, **options)

    def test_audit_of_no_samples(self):
        empty = np.empty((0, 2))
        traj = Trajectory(times=np.empty(0), states=empty)
        with pytest.raises(EmptyVector):
            audit_monotonicity(traj, "spread")

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
                return math.nan, slack, False, values
            worst = max(worst, move)
        return worst, slack, worst <= slack, values

    @pytest.mark.parametrize("shape", ["random", "contracting", "nan_row"])
    def test_audits_match_per_node_oracle(self, rng, shape):
        if shape == "random":
            states = rng.normal(size=(60, 4))
        else:
            states = rng.normal(size=4) * 0.9 ** np.arange(60.0)[:, None]
        if shape == "nan_row":
            states[23] = np.nan
        traj = _stored(rng, states)
        p = rng.uniform(0.5, 2.0, 4)
        off = rng.uniform(0.1, 2.0, (4, 4))
        np.fill_diagonal(off, 0.0)
        B = from_offdiagonal(off + off.T)
        Bl, pl = B.tolist(), p.tolist()

        def centered(r):
            mean = sum(r) / len(r)
            return sum((v - mean) * (v - mean) for v in r)

        # (functional, options, per-row value, direction, exact): the
        # spread and the extremes do not round, the sums do.
        cases = [
            ("spread", {}, lambda r: max(r) - min(r), "non-increasing", True),
            ("max_component", {}, max, "non-increasing", True),
            ("min_component", {}, min, "non-decreasing", True),
            ("sum_of_squares", {}, lambda r: sum(v * v for v in r),
             "non-increasing", False),
            ("centered_sum_of_squares", {}, centered, "non-increasing", False),
            ("potential", {"matrix": B},
             lambda r: -0.5 * sum(r[j] * Bl[j][k] * r[k]
                                  for j in range(4) for k in range(4)),
             "non-increasing", False),
        ]
        for fname, fn in PY_CONVEX.items():
            cases.append((f"weighted:{fname}", {"weights": p},
                          lambda r, fn=fn: sum(w * fn(v) for w, v in zip(pl, r)),
                          "non-increasing", False))
        assert {c[0].partition(":")[0] for c in cases} | {"delayed_spread"} \
            == set(AUDITS)
        assert {c[0].partition(":")[2] for c in cases} - {""} \
            == set(CONVEX_REGISTRY)
        for fname, options, value, direction, exact in cases:
            report = audit_monotonicity(traj, fname, **options)
            worst, slack, passed, values = self._oracle_audit(
                states, value, direction)
            assert report.direction == direction
            assert report.passed is passed, fname
            if shape == "nan_row":
                assert not report.passed
            if exact:
                assert np.array_equal(report.worst_violation, worst,
                                      equal_nan=True)
                assert report.slack == slack
            else:
                if shape == "nan_row":
                    assert math.isnan(report.worst_violation)
                else:
                    scale = 1e-12 * max(1.0, max(abs(v) for v in values
                                                 if v == v))
                    assert report.worst_violation == pytest.approx(
                        worst, abs=scale)
                assert report.slack == pytest.approx(slack, rel=1e-12)


class TestBalance:
    def test_weighted_sum_conserved(self):
        # p'A = 0 with p = (1, 2): p'x is constant along the run, and every
        # RK4 step keeps it to rounding, since p' phi(hA) = p'.
        p = np.array([1.0, 2.0])
        assert np.array_equal(p @ WEIGHTED_PAIR, [0.0, 0.0])
        sch = constant_schedule(WEIGHTED_PAIR, 0.0, 4.0)
        traj = simulate_ode(sch, [3.0, 0.0], 0.0, 4.0)
        linear = traj.states @ p
        assert np.max(np.abs(linear - 3.0)) < 1e-10
        # The plain sum is not conserved: the run converges to 1, not 3/2.
        assert traj.states[-1] == pytest.approx([1.0, 1.0], abs=1e-4)

    @pytest.mark.parametrize("coupling, weights, x0", [
        (symmetric_pair(), None, [2.0, -1.0]),
        (CYCLE, None, [1.5, -0.5, 0.25]),
        (WEIGHTED_PAIR, [1.0, 2.0], [3.0, -1.0]),
    ], ids=["symmetric", "cycle", "weighted-pair"])
    def test_weighted_audits_pass_on_balanced_runs(self, coupling, weights, x0):
        sch = constant_schedule(coupling, 0.0, 4.0)
        traj = simulate_ode(sch, x0, 0.0, 4.0)
        names = [f"weighted:{f}" for f in CONVEX_REGISTRY]
        if weights is None:
            names += ["sum_of_squares", "centered_sum_of_squares"]
        check_hypotheses(names, sch.couplings, sch.starts, weights)
        for name in names:
            report = audit_monotonicity(traj, name, weights=weights)
            assert report.passed, (name, report.worst_violation)

    def test_the_audit_weights_reach_the_balance_check(self):
        sch = constant_schedule(WEIGHTED_PAIR, 0.0, 1.0)
        check_hypotheses(["weighted:abs"], sch.couplings, sch.starts,
                         weights=[1.0, 2.0])
        with pytest.raises(BalanceViolated):
            check_hypotheses(["weighted:abs"], sch.couplings, sch.starts)
        # The sums of squares always need p = 1.
        with pytest.raises(BalanceViolated):
            check_hypotheses(["sum_of_squares"], sch.couplings, sch.starts,
                             weights=[1.0, 2.0])

    def test_first_failing_piece_is_reported(self):
        sch = build_schedule([
            (0.0, 1.0, symmetric_pair()),
            (1.0, 2.0, SinusoidalCoupling([[0.0, 2.0], [2.0, 0.0]], 0.5, 1.0)),
            (2.0, 3.0, chain_matrix()),
            (3.0, 4.0, np.array([[0.0, 0.0], [1.0, -1.0]])),
        ])
        for name in ("spread", "max_component", "min_component"):
            check_hypotheses([name], sch.couplings, sch.starts)
        with pytest.raises(BalanceViolated) as err:
            check_hypotheses(["spread", "centered_sum_of_squares"],
                             sch.couplings, sch.starts)
        assert err.value.t == 2.0 and err.value.residual == 1.0
        with pytest.raises(NotSymmetric, match="at t = 2.0"):
            check_hypotheses(["potential"], sch.couplings, sch.starts)
        check_hypotheses(["potential"], sch.couplings[:2], sch.starts[:2])

    def test_only_delayed_spread_reads_a_delayed_run(self):
        sch = constant_schedule(symmetric_pair(), 0.0, 1.0)
        check_hypotheses(["delayed_spread"], sch.couplings, sch.starts, tau=0.5)
        for name in sorted(AUDITS):
            if name == "delayed_spread":
                continue
            name = "weighted:abs" if name == "weighted" else name
            check_hypotheses([name], sch.couplings, sch.starts)
            with pytest.raises(HypothesisUnverified, match=f"{name} need an "
                               "undelayed run; this run has tau = 0.5"):
                check_hypotheses(["delayed_spread", name], sch.couplings,
                                 sch.starts, tau=0.5)

    def test_an_unknown_hypothesis_is_refused(self, monkeypatch):
        # A table entry whose hypothesis has no check must not pass
        # unchecked.
        entry = lyapunov.Functional(AUDITS["spread"].values,
                                    hypothesis="1'A == 0")
        monkeypatch.setitem(AUDITS, "spread", entry)
        with pytest.raises(ValueError, match="no check"):
            check_hypotheses(["spread"], symmetric_pair()[None], [0.0])

    def test_tolerance_scales_with_the_entries(self):
        # Rounding of a balanced coupling at 1e6 stays inside the
        # tolerance; the same residual at unit scale does not.
        big = 1e6 * symmetric_pair()
        big[0, 0] += 1e-7
        big[0, 1] -= 1e-7
        check_hypotheses(["sum_of_squares"], big[None], [0.0])
        small = symmetric_pair()
        small[0, 0] += 1e-7
        small[0, 1] -= 1e-7
        with pytest.raises(BalanceViolated):
            check_hypotheses(["sum_of_squares"], small[None], [0.0])


def test_docstring_claims_name_existing_tests():
    """Each claim of the lyapunov module docstring names the gates or tests
    that check it, and each of those exists."""
    doc = lyapunov.__doc__
    block = doc.split("each with the tests that check it:\n\n", 1)[1]
    block = block.split("\n\n", 1)[0]
    claims = {}
    for line in block.splitlines():
        if line.startswith("      tests/"):
            claims[claim].append(line.strip())
        else:
            claim = line.strip()
            claims[claim] = []
    assert list(claims) == [
        "A + A' negative semidefinite <=> the columns of A sum to zero",
        "exp(At) is doubly stochastic",
        "p'x(t) is conserved when p'A = 0",
        "weighted:<f> is non-increasing on balanced runs",
    ]
    root = Path(__file__).resolve().parents[1]
    for claim, tests in claims.items():
        assert tests, claim
        for test in tests:
            path, *names = test.split("::")
            tree = ast.parse((root / path).read_text(encoding="utf-8"))
            for name in names:
                tree = next((node for node in ast.walk(tree)
                             if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                             and node.name == name), None)
                assert tree is not None, test


def test_docstring_table_matches_audits():
    """The table in the lyapunov module docstring states each entry's
    direction, hypothesis and runs as AUDITS holds them."""
    block = lyapunov.__doc__.split("runs\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.split(r"\s{2,}", line.strip(), maxsplit=3)
            for line in block.splitlines()]
    assert sorted(row[0].partition(":")[0] for row in rows) == sorted(AUDITS)
    for name, direction, hypothesis, runs in rows:
        entry = AUDITS[name.partition(":")[0]]
        assert direction == entry.direction, name
        assert hypothesis == (entry.hypothesis or "none"), name
        assert runs.split()[0] == ("delayed" if entry.delayed else "undelayed")
