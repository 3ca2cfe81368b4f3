from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from qhgeo import ConfigurationError, LengthGraph, views
from qhgeo.views import DenseChainView, EuclideanView, GraphView


@st.composite
def connected_graphs(draw):
    """A random connected LengthGraph: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, 14))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = {(p, v) for v, p in zip(range(1, n), parents)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    edges = sorted(edges)
    lengths = draw(st.lists(st.floats(0.01, 10.0), min_size=len(edges), max_size=len(edges)))
    return LengthGraph(n, edges, lengths, np.zeros((n, 2)))


@st.composite
def graph_queries(draw):
    """(graph, i, j, warm): pair queries and sources whose rows are cached first."""
    g = draw(connected_graphs())
    index = st.integers(0, g.n - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
    warm = draw(st.lists(index, max_size=3))
    i, j = (np.array(c, dtype=np.intp) for c in zip(*pairs))
    return g, i, j, warm


def floyd_warshall(g: LengthGraph) -> np.ndarray:
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (a, b), w in zip(g.edges, g.lengths):
        d[a, b] = d[b, a] = min(d[a, b], w)
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


class TestEuclideanView:
    def test_rows_and_pairs_agree(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        v = EuclideanView(coords)
        rows = v.rows([0])
        assert rows[0, 1] == 5.0
        assert v.pairs([0, 1], [1, 2])[0] == 5.0


class TestGraphView:
    def test_cached_rows_are_reused(self):
        g = LengthGraph(3, [[0, 1], [1, 2]], [1.0, 2.0], [[0, 0], [1, 0], [3, 0]])
        v = GraphView(g.matrix)
        first = v.rows([0])
        second = v.rows([0])
        assert first[0, 2] == 3.0
        assert second is not first  # vstack copies, cache holds the row
        assert np.array_equal(first, second)

    def test_min_distance_to_target_set(self):
        g = LengthGraph(4, [[0, 1], [1, 2], [2, 3]], [1.0, 1.0, 1.0],
                        [[0, 0], [1, 0], [2, 0], [3, 0]])
        v = GraphView(g.matrix)
        dist = v.min_distance_to([0, 3])
        assert dist.tolist() == [0.0, 1.0, 1.0, 0.0]


class TestGraphViewProperties:
    @given(graph_queries())
    @settings(max_examples=80, deadline=None)
    def test_pairs_match_floyd_warshall(self, case):
        g, i, j, warm = case
        v = GraphView(g.matrix)
        if warm:
            v.rows(warm)
        ref = floyd_warshall(g)[i, j]
        assert np.max(np.abs(v.pairs(i, j) - ref)) <= 1e-12 * max(1.0, ref.max())

    @given(graph_queries())
    @settings(max_examples=80, deadline=None)
    def test_pairs_bitwise_equal_full_rows(self, case):
        g, i, j, warm = case
        expected = GraphView(g.matrix).rows(i)[np.arange(len(i)), j]
        cold = GraphView(g.matrix)
        assert np.array_equal(cold.pairs(i, j), expected)
        warmed = GraphView(g.matrix)
        if warm:
            warmed.rows(warm)
        assert np.array_equal(warmed.pairs(i, j), expected)

    @given(graph_queries())
    @settings(max_examples=40, deadline=None)
    def test_pairs_fall_back_when_the_bound_misses(self, case):
        # a bound cut to a tenth misses most targets; their full rows must answer
        g, i, j, _ = case
        expected = GraphView(g.matrix).rows(i)[np.arange(len(i)), j]
        with mock.patch.object(views, "_BOUND_PAD", -0.9):
            assert np.array_equal(GraphView(g.matrix).pairs(i, j), expected)

    @given(connected_graphs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_limited_row_equals_full_row_where_finite(self, g, data):
        s = data.draw(st.integers(0, g.n - 1))
        full = GraphView(g.matrix).rows([s])[0]
        limit = data.draw(st.floats(0.0, float(full.max()) * 1.2))
        v = GraphView(g.matrix)
        row = v.rows([s], limit=limit)[0]
        reached = np.isfinite(row)
        assert np.array_equal(row[reached], full[reached])
        assert np.all(full[~reached] > limit)
        # a limited row that misses a vertex never enters the cache
        assert (s in v._cache) == bool(reached.all())

    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_directed_rows_equal_undirected_on_symmetric_matrix(self, g):
        src = np.arange(g.n)
        assert np.array_equal(dijkstra(g.matrix, directed=True, indices=src),
                              dijkstra(g.matrix, directed=False, indices=src))


class TestDenseChainView:
    def test_chaining_beats_direct_hop(self):
        # direct weight 0 <-> 2 is 10, but the two-hop route costs 2: a
        # correct solver must find it even though the planar quasimetrics
        # in this package rarely benefit from chaining
        w = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        v = DenseChainView(lambda u: w[u], 3)
        assert v.pairs([0], [2])[0] == 2.0
        assert v.pairs([0], [1])[0] == 1.0
        assert v.rows([0])[0].tolist() == [0.0, 1.0, 2.0]

    def test_matches_sparse_dijkstra_on_random_weights(self):
        rng = np.random.default_rng(5)
        n = 24
        w = rng.uniform(0.1, 5.0, size=(n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        dense = DenseChainView(lambda u: w[u], n)
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        ref = dijkstra(csr_matrix(w), directed=False, indices=[3])[0]
        assert np.max(np.abs(dense.rows([3])[0] - ref)) < 1e-12

    def test_submatrix_symmetry(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(20, 2))
        e = EuclideanView(pts)
        v = DenseChainView(lambda u: e.rows([u])[0], 20)
        sub = v.submatrix(np.arange(0, 20, 3))
        assert np.max(np.abs(sub - sub.T)) < 1e-12


class TestLengthGraphValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            LengthGraph(2, [[0, 1]], [1.0, 2.0], [[0, 0], [1, 0]])

    def test_reweighting_requires_positive(self):
        g = LengthGraph(2, [[0, 1]], [1.0], [[0, 0], [1, 0]])
        with pytest.raises(ConfigurationError, match="> 0"):
            g.reweighted(np.array([-1.0]))
