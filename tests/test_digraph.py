"""Roots of threshold digraphs and window connectivity, against the
per-node BFS oracles of conftest."""

import numpy as np
import pytest

from consensus_lab import (
    NegativeThreshold,
    build_schedule,
    constant_schedule,
    from_offdiagonal,
    integrate_windows,
    root_masks,
    window_connectivity_report,
)

from conftest import (brute_arcs, brute_reachable, brute_roots,
                      brute_window_integral, chain_matrix, random_metzler)


def ring_entries(n, w=1.0):
    off = np.zeros((n, n))
    for k in range(n):
        off[k, (k + 1) % n] = w
    return from_offdiagonal(off)


def roots_of(entries, delta):
    """1-based roots of one matrix, through root_masks."""
    return set((np.flatnonzero(root_masks(np.asarray(entries)[None], delta)[0])
                + 1).tolist())


class TestRoots:
    def test_chain_rooted_at_free_end(self):
        # One arc 2 -> 1: node 1 follows node 2.
        assert brute_arcs(chain_matrix(), 0.0) == frozenset({(2, 1)})
        assert roots_of(chain_matrix(), 0.0) == {2}

    def test_strict_threshold_drops_equal_entries(self):
        # entry (1,2) equals 1; at delta = 1 the comparison is strict, so
        # no arc is left and neither node reaches the other
        assert roots_of(chain_matrix(), 1.0) == set()

    def test_diagonal_never_contributes(self):
        # Diagonal entries above the threshold make no arc.
        assert roots_of(np.diag([5.0, 5.0, 5.0]), 0.0) == set()
        assert roots_of(np.array([[3.0, 0.0], [1.0, 3.0]]), 0.5) == {1}

    def test_match_entrywise_scan(self, rng):
        # Entries equal to a threshold, negative entries and positive
        # diagonals, against the oracle's arcs.
        for _ in range(50):
            n = int(rng.integers(1, 9))
            entries = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], (n, n))
            for delta in (0.0, 0.5, 1.0):
                assert roots_of(entries, delta) == brute_roots(
                    n, brute_arcs(entries, delta))

    def test_roots_match_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            entries = random_metzler(rng, n, density=0.25)
            assert roots_of(entries, 0.0) == brute_roots(
                n, brute_arcs(entries, 0.0))

    def test_roots_reach_everyone_by_bfs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            entries = random_metzler(rng, n, density=0.3)
            arcs = brute_arcs(entries, 0.0)
            assert roots_of(entries, 0.0) == {
                k for k in range(1, n + 1)
                if brute_reachable(n, arcs, k) == set(range(1, n + 1))}

    def test_ring_rooted_everywhere(self):
        assert roots_of(ring_entries(5), 0.0) == {1, 2, 3, 4, 5}

    def test_isolated_node_kills_roots(self):
        off = np.zeros((3, 3))
        off[0, 1] = off[1, 0] = 1.0
        assert roots_of(from_offdiagonal(off), 0.0) == set()


class TestRootMasks:
    def test_match_brute_roots(self, rng):
        delta = 0.5
        stacks = []
        for n in (1, 2, 3, 5, 8):
            for density in (0.15, 0.4, 0.9):
                stack = np.stack([random_metzler(rng, n, density=density)
                                  for _ in range(12)])
                stack[stack > 1.8] = delta   # entries equal to delta: no arc
                stacks.append(stack)
        # 256 two-hop paths lead from node 1 to node 258, a count that
        # wraps to 0 in 8-bit arithmetic.
        chain = np.zeros((1, 258, 258))
        chain[0, 1:257, 0] = 1.0
        chain[0, 257, 1:257] = 1.0
        stacks.append(chain)
        for stack in stacks:
            n = stack.shape[-1]
            masks = root_masks(stack, delta)
            assert masks.shape == stack.shape[:2]
            for entries, mask in zip(stack, masks):
                roots = set((np.flatnonzero(mask) + 1).tolist())
                assert roots == brute_roots(n, brute_arcs(entries, delta))
        assert root_masks(chain, delta)[0].tolist() == [True] + [False] * 257

    def test_rejects_negative_threshold(self):
        with pytest.raises(NegativeThreshold):
            root_masks(np.zeros((1, 2, 2)), -0.1)


class TestWindowConnectivity:
    def test_scan_matches_window_by_window(self, rng):
        # Each piece is a directed path through a random node order, or a
        # few random arcs.  n = 40 puts 20 windows in a block, so the 41
        # windows take three.
        for n in (3, 40):
            pieces = []
            for i in range(10):
                off = np.zeros((n, n))
                if rng.random() < 0.7:
                    order = rng.permutation(n)
                    off[order[1:], order[:-1]] = rng.uniform(0.5, 1.5, n - 1)
                else:
                    off[rng.integers(0, n, n), rng.integers(0, n, n)] = 1.0
                    np.fill_diagonal(off, 0.0)
                pieces.append((0.5 * i, 0.5 * (i + 1),
                               from_offdiagonal(off)))
            sch = build_schedule(pieces)
            report = window_connectivity_report(sch, delta=0.2, T=1.0)
            assert len(report.window_starts) == 41
            expected = [
                brute_roots(n, brute_arcs(brute_window_integral(sch, t, 1.0),
                                          0.2))
                for t in report.window_starts]
            assert report.roots_per_window.shape == (41, n)
            assert [set((np.flatnonzero(m) + 1).tolist())
                    for m in report.roots_per_window] == expected
            assert report.common_roots == set.intersection(*expected)

    @pytest.mark.parametrize("t0, t1, T, step", [
        (0.0, 5.0, 1.0, None),      # the grid ends on t1 - T
        (0.3, 7.0, 1.3, 0.7),       # a last start appended at t1 - T
        (-2.0, 3.1, 0.9, 0.05),
    ])
    def test_masks_and_starts_are_the_block_scan(self, rng, t0, t1, T, step):
        # Five pieces of random couplings; the report's masks are
        # root_masks of the integrate_windows stack row for row, and its
        # starts follow the per-index rule t0 + i * step bit for bit.
        n = 4
        cuts = np.linspace(t0, t1, 6)
        sch = build_schedule([
            (float(a), float(b), random_metzler(rng, n, density=0.4))
            for a, b in zip(cuts[:-1], cuts[1:])])
        report = window_connectivity_report(sch, delta=0.3, T=T,
                                            sample_step=step)
        step = T / 10.0 if step is None else step
        last = t1 - T
        count = int(np.floor((last - t0) / step + 1e-9)) + 1
        expected = [t0 + i * step for i in range(count)]
        if last - expected[-1] > 1e-12 * max(1.0, abs(last)):
            expected.append(last)
        assert report.window_starts.dtype == np.float64
        assert report.window_starts.tolist() == expected
        masks = root_masks(integrate_windows(sch, expected, T), 0.3)
        assert report.roots_per_window.dtype == bool
        assert np.array_equal(report.roots_per_window, masks)
        assert report.common_roots == frozenset(
            (np.flatnonzero(masks.all(axis=0)) + 1).tolist())

    def test_alternating_pair_has_common_roots(self):
        a = np.array([[0.0, 0.0], [1.0, -1.0]])
        b = np.array([[-1.0, 1.0], [0.0, 0.0]])
        pieces = []
        for i in range(8):
            pieces.append((float(i), float(i + 1), a if i % 2 == 0 else b))
        sch = build_schedule(pieces)
        report = window_connectivity_report(sch, delta=0.5, T=2.0)
        assert report.has_common_root
        assert report.common_roots == {1, 2}
        assert report.window_starts[0] == pytest.approx(0.0)
        assert report.window_starts[-1] == pytest.approx(6.0)

    def test_half_window_loses_one_direction(self):
        a = np.array([[0.0, 0.0], [1.0, -1.0]])
        b = np.array([[-1.0, 1.0], [0.0, 0.0]])
        sch = build_schedule([(0.0, 1.0, a), (1.0, 2.0, b)])
        # windows of length 1 aligned with the switch see only one leader
        report = window_connectivity_report(sch, delta=0.5, T=1.0,
                                            sample_step=1.0)
        assert not report.has_common_root or len(report.common_roots) < 2

    def test_isolated_node_reports_no_common_root(self):
        off = np.zeros((3, 3))
        off[0, 1] = off[1, 0] = 1.0
        sch = constant_schedule(from_offdiagonal(off), 0.0, 5.0)
        report = window_connectivity_report(sch, delta=0.1, T=1.0)
        assert not report.has_common_root
        assert report.common_roots == set()

    def test_constant_rooted_schedule(self):
        sch = constant_schedule(ring_entries(4), 0.0, 6.0)
        report = window_connectivity_report(sch, delta=0.2, T=1.0)
        assert report.has_common_root
        assert report.common_roots == {1, 2, 3, 4}
        assert report.n == 4

    def test_requires_positive_delta(self):
        sch = constant_schedule(ring_entries(3), 0.0, 4.0)
        with pytest.raises(NegativeThreshold):
            window_connectivity_report(sch, delta=0.0, T=1.0)
