"""Eigenvalues, consensus spectrum verdicts, spectral-vs-graph agreement.

Frozen small-matrix spectra were derived by hand:
  - [[-1, 1], [0, 0]]: {0, -1};
  - unit 4-ring coupling: {0, -2, -1 + i, -1 - i}.
"""

import numpy as np
import pytest

from consensus_lab import (
    AmbiguousSpectrum,
    NoConvergence,
    consensus_spectrum_verdict,
    eigenvalues,
    from_offdiagonal,
    generate_topology,
    integrate_schedule,
    parse_config,
    run_scenario,
    spectral_graph_equivalence,
)

from conftest import brute_arcs, brute_roots, chain_matrix, random_metzler


def ring(n, w=1.0):
    off = np.zeros((n, n))
    for k in range(n):
        off[k, (k + 1) % n] = w
    return from_offdiagonal(off)


def sorted_eigs(values):
    arr = np.asarray(values, dtype=complex)
    return arr[np.lexsort((-arr.imag, -arr.real))]


def assert_spectra_match(computed, expected, tol=1e-8):
    a = sorted_eigs(computed)
    b = sorted_eigs(expected)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) < tol


class TestEigenvalues:
    def test_chain_frozen_spectrum(self):
        assert_spectra_match(eigenvalues(chain_matrix()), [0.0, -1.0], 1e-12)

    def test_ring4_frozen_spectrum(self):
        expected = [0.0, -2.0, -1.0 + 1.0j, -1.0 - 1.0j]
        assert_spectra_match(eigenvalues(ring(4)), expected, 1e-10)

    def test_against_numpy_on_random_metzler(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 8))
            A = random_metzler(rng, n)
            assert_spectra_match(eigenvalues(A), np.linalg.eigvals(A), 1e-7)

    def test_against_numpy_on_general_matrices(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            assert_spectra_match(eigenvalues(A), np.linalg.eigvals(A), 1e-7)

    def test_zero_row_sum_gives_zero_eigenvalue(self, rng):
        for _ in range(20):
            vals = eigenvalues(random_metzler(rng, 5, density=0.8))
            assert min(abs(v) for v in vals) < 1e-9

    def test_gershgorin_bound_on_real_parts(self, rng):
        for _ in range(20):
            A = random_metzler(rng, 4, density=0.9)
            radius = float(np.max(-np.diag(A))) * 2.0
            for v in eigenvalues(A):
                assert v.real <= 1e-9
                assert abs(v) <= radius + 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))


class TestSpectrumVerdict:
    def test_rooted_chain_is_stable(self):
        verdict = consensus_spectrum_verdict(eigenvalues(chain_matrix()))
        assert verdict.consensus_stable
        assert verdict.zero_count == 1
        assert verdict.decay_margin == pytest.approx(1.0, abs=1e-9)

    def test_two_components_not_stable(self):
        A = np.zeros((4, 4))
        A[:2, :2] = np.array([[-1.0, 1.0], [1.0, -1.0]])
        A[2:, 2:] = np.array([[-2.0, 2.0], [2.0, -2.0]])
        verdict = consensus_spectrum_verdict(eigenvalues(A))
        assert verdict.zero_count == 2
        assert not verdict.consensus_stable

    def test_ambiguous_dead_zone(self):
        values = [0.0 + 0.0j, -5e-8 + 3e-7j, -2.0 + 0.0j]
        with pytest.raises(AmbiguousSpectrum):
            consensus_spectrum_verdict(values, gap_tol=1e-7)

    def test_gap_tol_resolves_ambiguity(self):
        values = [0.0 + 0.0j, -5e-8 + 3e-7j, -2.0 + 0.0j]
        verdict = consensus_spectrum_verdict(values, gap_tol=1e-6)
        assert verdict.zero_count == 2
        assert not verdict.consensus_stable


class TestGraphEquivalence:
    def test_rooted_cases_agree(self, rng):
        hits = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            A = random_metzler(rng, n, density=0.9)
            report = spectral_graph_equivalence(A)
            assert report.agree
            hits += report.verdict.consensus_stable
        assert hits > 30

    def test_unrooted_case_agrees_on_instability(self):
        A = np.zeros((4, 4))
        A[:2, :2] = np.array([[-1.0, 1.0], [1.0, -1.0]])
        A[2:, 2:] = np.array([[-2.0, 2.0], [2.0, -2.0]])
        report = spectral_graph_equivalence(A)
        assert report.agree
        assert not report.graph_stable
        assert not report.verdict.consensus_stable

    def test_delta_threshold_changes_graph_side(self):
        # all arcs below delta: graph route says unrooted while the
        # spectrum still contracts, so the routes honestly disagree
        A = np.array([[-0.01, 0.01], [0.02, -0.02]])
        strict = spectral_graph_equivalence(A, delta=0.1)
        assert not strict.graph_stable
        assert strict.verdict.consensus_stable
        assert not strict.agree
        loose = spectral_graph_equivalence(A, delta=0.001)
        assert loose.agree

    def test_report_matches_direct_routes(self, rng):
        A = random_metzler(rng, 5, density=0.7)
        report = spectral_graph_equivalence(A, delta=0.0)
        roots = brute_roots(5, brute_arcs(A, 0.0))
        assert report.roots == tuple(sorted(roots))
        assert report.graph_stable == bool(roots)
        verdict = consensus_spectrum_verdict(eigenvalues(A))
        assert report.verdict.consensus_stable == verdict.consensus_stable


def _switching_time_average():
    # n = 20 random switching, averaged over its horizon as the spectral
    # analysis does for time-varying coupling
    spec = {"kind": "random_switching", "period": 0.5,
            "link_probability": 0.3, "weight_range": [0.5, 1.5], "seed": 2}
    sch = generate_topology(spec, 20, 0.0, 10.0)
    return integrate_schedule(sch, 0.0, 10.0) / 10.0


def _dense_constant():
    # n = 24 constant coupling at link density 0.3
    fixed = np.random.default_rng(9024)
    off = fixed.uniform(0.5, 1.5, (24, 24)) * (fixed.random((24, 24)) < 0.3)
    np.fill_diagonal(off, 0.0)
    return from_offdiagonal(off)


@pytest.mark.parametrize("make", [_switching_time_average, _dense_constant],
                         ids=["switching-n20", "dense-n24"])
def test_unshifted_qr_stall_inputs_agree(make):
    # Both matrices stalled an unshifted QR iteration at 100 000 sweeps.
    report = spectral_graph_equivalence(make())
    assert report.agree


def test_lapack_failure_reports_error_exit_5(tmp_path, monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergence):
        eigenvalues(chain_matrix())
    cfg = parse_config("""\
nodes: 3
horizon: 2.0
topology:
  kind: ring
initial_state: [1.0, 0.0, -1.0]
analyses:
  - kind: spectral
""")
    assert run_scenario(cfg, str(tmp_path / "o")) == 5
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "[ERROR] spectral: NoConvergence" in report
