"""Threshold digraphs, reachability, roots, window connectivity."""

import numpy as np
import pytest

from consensus_lab import (
    Digraph,
    NegativeThreshold,
    NodeOutOfRange,
    build_schedule,
    constant_schedule,
    delta_digraph,
    from_offdiagonal,
    reachable_set,
    root_masks,
    root_nodes,
    window_connectivity_report,
)

from conftest import (brute_arcs, brute_reachable, brute_roots,
                      brute_window_integral, chain_matrix, random_metzler)


def ring_entries(n, w=1.0):
    off = np.zeros((n, n))
    for k in range(n):
        off[k, (k + 1) % n] = w
    return from_offdiagonal(off).entries


class TestDeltaDigraph:
    def test_chain_arcs_at_zero_threshold(self):
        g = delta_digraph(chain_matrix(), 0.0)
        assert g.arcs == frozenset({(2, 1)})

    def test_strict_threshold_drops_equal_entries(self):
        # entry (1,2) equals 1; at delta = 1 the comparison is strict
        assert delta_digraph(chain_matrix(), 1.0).arcs == frozenset()

    def test_rejects_negative_threshold(self):
        with pytest.raises(NegativeThreshold):
            delta_digraph(chain_matrix(), -0.1)

    def test_diagonal_never_contributes(self):
        g = delta_digraph(np.array([[0.0, 0.0], [1.0, -1.0]]), 0.0)
        assert all(tail != head for tail, head in g.arcs)

    def test_arcs_match_entrywise_scan(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            entries = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], (n, n))
            for delta in (0.0, 0.5, 1.0):
                assert delta_digraph(entries, delta).arcs == brute_arcs(entries, delta)

    def test_successors(self):
        g = delta_digraph(ring_entries(3), 0.0)
        # node 1 couples into node 3 (entry (3,1) > 0): 1 -> 3
        assert g.successors(1) == {3}


class TestReachability:
    def test_reachable_includes_start(self):
        g = delta_digraph(np.zeros((3, 3)), 0.0)
        assert reachable_set(g, 2) == {2}

    def test_node_out_of_range(self):
        g = delta_digraph(np.zeros((2, 2)), 0.0)
        with pytest.raises(NodeOutOfRange):
            reachable_set(g, 3)

    def test_matches_brute_bfs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            entries = random_metzler(rng, n, density=0.3)
            g = delta_digraph(entries, 0.0)
            for start in range(1, n + 1):
                assert reachable_set(g, start) == brute_reachable(
                    n, g.arcs, start)

    def test_roots_match_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = delta_digraph(random_metzler(rng, n, density=0.25), 0.0)
            assert root_nodes(g) == brute_roots(n, g.arcs)

    def test_ring_rooted_everywhere(self):
        g = delta_digraph(ring_entries(5), 0.0)
        assert root_nodes(g) == {1, 2, 3, 4, 5}

    def test_chain_rooted_at_free_end(self):
        assert root_nodes(delta_digraph(chain_matrix(), 0.0)) == {2}

    def test_isolated_node_kills_roots(self):
        off = np.zeros((3, 3))
        off[0, 1] = off[1, 0] = 1.0
        g = delta_digraph(from_offdiagonal(off).entries, 0.0)
        assert root_nodes(g) == set()

    def test_roots_when_path_counts_pass_255(self):
        # 256 two-hop paths lead from node 1 to node 258, a count that
        # wraps to 0 in 8-bit arithmetic.
        n = 258
        arcs = {(1, k) for k in range(2, n)} | {(k, n) for k in range(2, n)}
        g = Digraph(n, frozenset(arcs))
        everyone = set(range(1, n + 1))
        assert reachable_set(g, 1) == everyone
        assert root_nodes(g) == {
            v for v in everyone if reachable_set(g, v) == everyone} == {1}


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
        # The chain of test_roots_when_path_counts_pass_255: 256 two-hop
        # paths from node 1 to node 258.
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
                               from_offdiagonal(off).entries))
            sch = build_schedule(pieces)
            report = window_connectivity_report(sch, delta=0.2, T=1.0)
            assert len(report.window_starts) == 41
            expected = [
                brute_roots(n, brute_arcs(brute_window_integral(sch, t, 1.0),
                                          0.2))
                for t in report.window_starts]
            assert list(report.roots_per_window) == expected
            assert report.common_roots == set.intersection(*expected)

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
