import contextlib
import sys
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from qhgeo import (ConfigurationError, InternalError, LengthGraph, QuasihyperbolicMetric, ShapeSpec,
                   build_grid_domain, metric_core, views)
from qhgeo.views import DenseChainView, EuclideanView, GraphView, rows_per_block


@st.composite
def connected_graphs(draw, max_n=14, weights=st.floats(0.01, 10.0)):
    """A random connected LengthGraph: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = {(p, v) for v, p in zip(range(1, n), parents)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    edges = sorted(edges)
    lengths = draw(st.lists(weights, min_size=len(edges), max_size=len(edges)))
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

    def test_submatrix_is_the_pool_block_of_rows_bitwise(self):
        rng = np.random.default_rng(3)
        v = EuclideanView(rng.normal(size=(500, 2)) * 7.0)
        idx = rng.choice(500, size=40)  # repeats included
        with mock.patch.object(EuclideanView, "rows", side_effect=AssertionError("whole rows")):
            sub = v.submatrix(idx)
        assert sub.shape == (40, 40)
        assert sub.tobytes() == v.rows(idx)[:, idx].tobytes()


class TestGraphView:
    def test_repeated_rows_are_searched_again_and_kept_once(self):
        g = LengthGraph(3, [[0, 1], [1, 2]], [1.0, 2.0], [[0, 0], [1, 0], [3, 0]])
        v = GraphView(g.matrix)
        first = v.rows([0])
        second = v.rows([0])
        assert first[0, 2] == 3.0
        assert second is not first and np.array_equal(first, second)  # two search outputs
        assert list(v._landmarks) == [0] and v._landmarks[0].dtype == np.float16
        assert v._landmark_bytes == 2 * 3

    def test_no_sources_give_no_rows(self):
        g = LengthGraph(3, [[0, 1], [1, 2]], [1.0, 2.0], [[0, 0], [1, 0], [3, 0]])
        banded = (np.array([2, 0, 1]), np.array([1, 2, 0]))
        for v in (GraphView(g.matrix), GraphView(g.matrix, banded), EuclideanView(g.coords),
                  DenseChainView(g.coords, g.coords[0])):
            assert v.rows([]).shape == (0, 3) and v.rows([]).dtype == float
            assert v.pairs([], []).shape == (0,)
            assert v.submatrix([]).shape == (0, 0)
        assert GraphView(g.matrix).rows([], limit=[]).shape == (0, 3)

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

    @given(graph_queries(), st.sampled_from([1.0, 2.0 ** -30, 2.0 ** 14, 2.0 ** 24]))
    @settings(max_examples=80, deadline=None)
    def test_pairs_bitwise_equal_full_rows_with_float16_landmarks(self, case, scale):
        # scaled by 2^14 some landmark entries pass 65504 and by 2^24 all nonzero ones do
        # (they become inf); by 2^-30 they fall to float16 subnormals
        g, i, j, warm = case
        g = LengthGraph(g.n, g.edges, g.lengths * scale, g.coords)
        expected = GraphView(g.matrix).rows(i)[np.arange(len(i)), j]
        v = GraphView(g.matrix)
        v.rows(warm + [0])
        if scale == 2.0 ** 24:
            assert all(np.isinf(row[row != 0]).all() for row in v._landmarks.values())
        assert np.array_equal(v.pairs(i, j), expected)
        assert np.array_equal(v.pairs(j, i), GraphView(g.matrix).rows(j)[np.arange(len(j)), i])

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
        # a limited row is never kept, even one that reaches every vertex
        assert not v._landmarks and v._landmark_bytes == 0

    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_directed_rows_equal_undirected_on_symmetric_matrix(self, g):
        src = np.arange(g.n)
        assert np.array_equal(dijkstra(g.matrix, directed=True, indices=src),
                              dijkstra(g.matrix, directed=False, indices=src))


def banded_graphs():
    """Random connected graphs whose weights span 13 binary exponents, so that
    the limits of pair queries differ by orders of magnitude."""
    return connected_graphs(max_n=16, weights=st.builds(np.ldexp, st.floats(1.0, 2.0),
                                                        st.integers(-6, 6)))


def recorded_rows(view):
    """Wrap ``view.rows`` so that every call's (sources, limit) is kept."""
    calls, rows = [], view.rows

    def record(sources, limit=None):
        calls.append((np.atleast_1d(np.asarray(sources)).tolist(), limit))
        return rows(sources, limit)

    view.rows = record
    return calls


class TestShortPairQueries:
    @given(connected_graphs())
    @settings(max_examples=80, deadline=None)
    def test_hop_bound_is_an_upper_bound_tight_on_single_edges(self, g):
        full = GraphView(g.matrix).rows(np.arange(g.n))
        i, j = (a.ravel() for a in np.meshgrid(np.arange(g.n), np.arange(g.n), indexing="ij"))
        bound = GraphView(g.matrix)._hop_bounds(i, j).reshape(g.n, g.n)
        assert np.all(bound >= full)
        assert np.all(np.diag(bound) == 0.0)
        a, b = g.edges.T
        shortest = full[a, b] == g.lengths  # the edge itself is a shortest path
        assert np.array_equal(bound[a, b][shortest], full[a, b][shortest])
        assert np.array_equal(bound[b, a][shortest], full[b, a][shortest])

    def test_hop_bound_values(self):
        # path 0-1-2-3 with weights 1, 2, 4 and a chord 0-2 of weight 5
        g = LengthGraph(4, [[0, 1], [1, 2], [2, 3], [0, 2]], [1.0, 2.0, 4.0, 5.0], np.zeros((4, 2)))
        bound = GraphView(g.matrix)._hop_bounds([0, 0, 0, 1, 3, 2], [1, 2, 3, 3, 0, 2])
        assert bound.tolist() == [1.0, 3.0, 9.0, 6.0, 9.0, 0.0]

    @given(banded_graphs(), st.data(), st.sampled_from([1, 8 * 3, 8 * 16 * 5]))
    @settings(max_examples=100, deadline=None)
    def test_pairs_bitwise_equal_full_rows_across_bands_and_chunks(self, g, data, cap):
        index = st.integers(0, g.n - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=60))
        i, j = (np.array(c, dtype=np.intp) for c in zip(*pairs))
        warm = data.draw(st.lists(index, max_size=2))
        expected = GraphView(g.matrix).rows(i)[np.arange(len(i)), j]
        v = GraphView(g.matrix)
        if warm:
            v.rows(warm)
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", cap):
            assert np.array_equal(v.pairs(i, j), expected)

    def test_sources_are_searched_in_limit_order_and_chunks(self):
        # a path whose source a asks for its right neighbour, at distance weights[a]: the
        # uncached sources are searched in the order of their padded limits, two to a call
        n = 8
        weights = np.array([4.0, 1.0, 64.0, 2.0, 16.0, 0.5, 8.0])
        g = LengthGraph(n, [[a, a + 1] for a in range(n - 1)], weights, np.zeros((n, 2)))
        i, j = np.arange(n - 1), np.arange(1, n)
        v = GraphView(g.matrix)
        v.rows([n - 1])
        calls = recorded_rows(v)
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 8 * n * 2):
            assert np.array_equal(v.pairs(i, j), weights)
        assert [c[0] for c in calls] == [[5, 1], [3, 0], [6, 4], [2]]
        for sources, limit in calls:
            assert limit.tolist() == (weights[sources] * (1.0 + views._BOUND_PAD)).tolist()

    @given(banded_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pairs_keep_only_full_rows_as_landmarks(self, g, data):
        index = st.integers(0, g.n - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=60))
        i, j = (np.array(c, dtype=np.intp) for c in zip(*pairs))
        full = GraphView(g.matrix).rows(np.arange(g.n))
        v = GraphView(g.matrix)
        calls = recorded_rows(v)
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 8 * g.n * 3):
            v.pairs(i, j)
        whole = [s for sources, limit in calls if limit is None for s in sources]
        assert whole  # the most-queried source's row, at least
        assert list(v._landmarks) == list(dict.fromkeys(whole))
        for s, row in v._landmarks.items():
            assert row.base is None and row.tobytes() == views.rounded_up(full[s]).tobytes()

    @given(banded_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_with_per_source_limits(self, g, data):
        index = st.integers(0, g.n - 1)
        sources = data.draw(st.lists(index, min_size=1, max_size=8))
        full = GraphView(g.matrix).rows(np.arange(g.n))
        top = float(full.max())
        limits = data.draw(st.lists(st.floats(0.0, top * 1.2), min_size=len(sources),
                                    max_size=len(sources)))
        v = GraphView(g.matrix)
        out = v.rows(sources, limit=limits)
        reached = np.isfinite(out)
        assert np.array_equal(out[reached], full[sources][reached])
        assert np.all(full[sources][~reached] > max(limits))
        assert not v._landmarks


def assert_landmarks_held(view, budget, full=None):
    """The byte count is the bytes held and within ``budget``; every landmark is an
    unshared float16 array (the rounded-up row of ``full`` when given)."""
    with view._lock:
        held = dict(view._landmarks)
        assert sum(row.nbytes for row in held.values()) == view._landmark_bytes <= budget
    for s, row in held.items():
        assert row.base is None and row.dtype == np.float16
        if full is not None:
            assert row.tobytes() == views.rounded_up(full[s]).tobytes()


class TestLandmarkStore:
    @given(st.lists(st.floats(0.0, 1e6) | st.floats(0.0, 1e-4) | st.sampled_from(
        [0.0, 2.0 ** -24, 65504.0, 65519.99, 65520.0, 1.0 + 2.0 ** -11]), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_entries_are_the_least_float16_at_or_above(self, values):
        row = np.array(values)
        half = views.rounded_up(row)
        assert half.dtype == np.float16
        assert np.all(half >= row)
        # one float16 step down is below the row: within one ulp (inf only past 65504)
        assert np.all(np.nextafter(half, np.float16(-np.inf)) < row)
        assert np.array_equal(np.isinf(half), row > 65504.0)
        with np.errstate(over="ignore"):  # the reference: the cast, then nextafter
            cast = row.astype(np.float16)
            below = cast < row
            cast[below] = np.nextafter(cast[below], np.float16(np.inf))
        assert half.tobytes() == cast.tobytes()

    @given(connected_graphs(), st.data(), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_landmarks_within_budget_and_rounded_up(self, g, data, room):
        full = GraphView(g.matrix).rows(np.arange(g.n))
        budget = 2 * g.n * room + data.draw(st.integers(0, 2 * g.n - 1))
        index = st.integers(0, g.n - 1)
        v = GraphView(g.matrix)
        with mock.patch.object(views, "_LANDMARK_BYTES", budget), \
                mock.patch.object(views, "_ROW_BLOCK_BYTES", 8 * g.n * 2):
            for _ in range(data.draw(st.integers(1, 8))):
                kind = data.draw(st.sampled_from(["rows", "pairs", "submatrix"]))
                if kind == "rows":
                    s = data.draw(st.lists(index, min_size=1, max_size=5))
                    assert np.array_equal(v.rows(s), full[s])
                elif kind == "pairs":
                    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20))
                    i, j = (np.array(c, dtype=np.intp) for c in zip(*pairs))
                    assert np.array_equal(v.pairs(i, j), full[i, j])
                else:
                    idx = np.array(data.draw(st.lists(index, min_size=1, max_size=9)))
                    assert np.array_equal(v.submatrix(idx), full[np.ix_(idx, idx)])
                assert_landmarks_held(v, budget, full)
                assert len(v._landmarks) <= room

    def test_oldest_landmark_is_dropped_first(self):
        n = 6
        g = LengthGraph(n, [[a, a + 1] for a in range(n - 1)], np.ones(n - 1), np.zeros((n, 2)))
        v, rounded, round_up = GraphView(g.matrix), [], views.rounded_up

        def counted(row):
            rounded.append(row.copy())
            return round_up(row)

        with mock.patch.object(views, "_LANDMARK_BYTES", 2 * n * 2), \
                mock.patch.object(views, "rounded_up", counted):
            v.rows([0, 1])
            v.rows([0])  # already held: 0 stays the oldest
            v.rows([2])
            assert list(v._landmarks) == [1, 2]
            v.rows([0])
            assert list(v._landmarks) == [2, 0]
            v.rows([3, 4, 5])  # only the last two fit: only they are rounded
            assert list(v._landmarks) == [4, 5]
            v.rows([0], limit=10.0)  # limited rows are never kept
            assert list(v._landmarks) == [4, 5]
        assert len(rounded) == 2 + 1 + 1 + 1 + 2
        assert_landmarks_held(v, 2 * n * 2, GraphView(g.matrix).rows(np.arange(n)))

    def test_threads_sharing_a_view_keep_the_byte_count(self):
        n = 40
        rng = np.random.default_rng(3)
        edges = [[a, a + 1] for a in range(n - 1)] + [[a, a + 7] for a in range(0, n - 7, 3)]
        g = LengthGraph(n, edges, rng.uniform(0.5, 2.0, len(edges)), np.zeros((n, 2)))
        full = GraphView(g.matrix).rows(np.arange(n))
        v, budget, errors = GraphView(g.matrix), 2 * n * 5, []

        def work(seed):
            r = np.random.default_rng(seed)
            try:
                for _ in range(60):
                    s = r.integers(0, n, 3)
                    if not (np.array_equal(v.pairs(s, s[::-1]), full[s, s[::-1]])
                            and np.array_equal(v.submatrix(s), full[np.ix_(s, s)])):
                        errors.append(seed)
                    assert_landmarks_held(v, budget)
            except Exception as exc:  # reported below; a thread cannot fail the test itself
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(views, "_LANDMARK_BYTES", budget), \
                    mock.patch.object(views, "_ROW_BLOCK_BYTES", 8 * n * 2):
                threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert_landmarks_held(v, budget, full)
        assert len(v._landmarks) == 5

    @pytest.mark.parametrize("kind", ["chain", "graph"])
    def test_every_view_builds_submatrix_in_blocks(self, kind):
        # pools past one block of rows (about 1 MiB): no rows call asks for more sources
        rng = np.random.default_rng(4)
        if kind == "chain":
            n, t = 2000, rng.uniform(0.0, 2.0 * np.pi, 2000)
            coords = np.sqrt(rng.random(n))[:, None] * np.c_[np.cos(t), np.sin(t)]
            view = counted = DenseChainView(coords, (1.0, 0.0))
        else:
            n = 20_000  # a path
            g = LengthGraph(n, [[a, a + 1] for a in range(n - 1)], rng.uniform(0.5, 2.0, n - 1),
                            np.zeros((n, 2)))
            view = counted = GraphView(g.matrix)
        idx = rng.choice(view.n, size=rows_per_block(n) + 5)  # repeats included
        asked, rows = [], counted.rows

        def record(sources, *args, **kwargs):
            asked.append(len(np.atleast_1d(sources)))
            return rows(sources, *args, **kwargs)

        with mock.patch.object(counted, "rows", record):
            sub = view.submatrix(idx)
        assert len(asked) > 1 and max(asked) <= rows_per_block(n)
        assert sub.tobytes() == view.rows(idx)[:, idx].tobytes()

    def test_submatrix_searches_in_chunks_and_keeps_pool_columns(self):
        n = 8
        g = LengthGraph(n, [[a, a + 1] for a in range(n - 1)], np.ones(n - 1), np.zeros((n, 2)))
        v = GraphView(g.matrix)
        calls = recorded_rows(v)
        idx = np.array([6, 1, 3, 3, 0])
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 8 * n * 2):
            sub = v.submatrix(idx)
        assert [c[0] for c in calls] == [[6, 1], [3, 3], [0]]
        assert np.array_equal(sub, np.abs(idx[:, None] - idx[None, :]).astype(float))


def reference_chain_row(coords, depth, source):
    """The plain dense Dijkstra: every settled vertex relaxes every vertex with
    its whole quasimetric row |x_u - x_v| / (D_u * D_v)."""
    n = len(depth)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    masked = np.empty(n, float)
    for _ in range(n):
        np.copyto(masked, dist)
        masked[done] = np.inf
        u = int(np.argmin(masked))
        if not np.isfinite(masked[u]):
            break
        done[u] = True
        d = np.hypot(coords[:, 0] - coords[u, 0], coords[:, 1] - coords[u, 1])
        np.minimum(dist, dist[u] + d / (depth[u] * depth), out=dist)
    return dist


def sphericalization_depth(coords, p):
    return 1.0 + np.hypot(coords[:, 0] - p[0], coords[:, 1] - p[1])


LATTICE = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: tuple(map(float, p)))


@st.composite
def chain_spaces(draw):
    """(coords, depth, base): lattice points, so that exact distance ties and repeated
    points occur, mixed with random ones; the base point is the first point (a
    sphericalization, depth 1 + distance to it) or None with depths drawn freely,
    so that chains beat direct hops."""
    n = draw(st.integers(1, 30))
    free = st.tuples(st.floats(-5, 5), st.floats(-5, 5))
    coords = np.array(draw(st.lists(st.one_of(LATTICE, free), min_size=n, max_size=n)))
    if draw(st.booleans()):
        return coords, sphericalization_depth(coords, coords[0]), coords[0]
    weight = st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]) | st.floats(0.25, 8.0)
    return coords, np.array(draw(st.lists(weight, min_size=n, max_size=n))), None


@st.composite
def lattice_chain_spaces(draw):
    """(coords, p) on a small integer lattice, most points on one line through p,
    so that exact collinear ties (T = P = 0, where a chain ties the q row to the
    last bit) and repeated points occur."""
    p = draw(LATTICE)
    d = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    on_line = st.integers(-4, 4).map(lambda k: (p[0] + k * d[0], p[1] + k * d[1]))
    return np.array(draw(st.lists(on_line | LATTICE, min_size=1, max_size=30))), p


def screened_pairs(view, source, row):
    """Every ordered pair (u, v), u != v and neither the source, that passes the
    chain screen with the source's q ``row``, computed over all pairs, 256 u at a time."""
    c, depth, n = view._coords, view._depth, view.n
    slack = (n + 16) * np.finfo(float).eps * row.max()
    out = set()
    for a in range(0, n, 256):
        u = np.arange(a, min(n, a + 256))[:, None]
        lhs = np.square(c[u, 0] - c[None, :, 0]) + np.square(c[u, 1] - c[None, :, 1])
        gap = np.maximum(row[None, :] - row[u] + slack, 0.0) * depth[u] * depth[None, :]
        gap *= 1.0 + 2e-9
        hit = lhs < gap * gap + np.finfo(float).tiny
        hit[:, source] = False
        hit[u[:, 0] == source] = False
        hit[u[:, 0] - a, u[:, 0]] = False
        iu, iv = np.nonzero(hit)
        out.update(zip((iu + a).tolist(), iv.tolist()))
    return out


class TestDenseChainView:
    def test_chaining_beats_direct_hop(self):
        # collinear points with a deep middle point: the direct quasimetric
        # 0 <-> 2 is 2, but the two-hop route costs 1/4 + 1/4; a correct
        # solver must find it even though the planar quasimetrics in this
        # package rarely benefit from chaining
        row = views._dense_chain(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                                 np.array([1.0, 4.0, 1.0]), 0)
        assert row[2] == 0.5
        assert row[1] == 0.25
        assert row.tolist() == [0.0, 0.25, 0.5]

    def test_matches_sparse_dijkstra_on_random_weights(self):
        rng = np.random.default_rng(5)
        n = 24
        coords = rng.uniform(0.0, 3.0, size=(n, 2))
        depth = rng.uniform(0.2, 5.0, size=n)
        diff = coords[:, None, :] - coords[None, :, :]
        w = np.hypot(diff[..., 0], diff[..., 1]) / np.outer(depth, depth)
        from scipy.sparse import csr_matrix

        ref = dijkstra(csr_matrix(w), directed=False, indices=[3])[0]
        assert np.any(ref < w[3] - 1e-9)  # some chain beats its direct hop
        assert np.max(np.abs(views._dense_chain(coords, depth, 3) - ref)) < 1e-12

    def test_submatrix_symmetry(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(20, 2))
        v = DenseChainView(pts, (0.0, 0.0))  # a corner of the square the points fill
        sub = v.submatrix(np.arange(0, 20, 3))
        assert np.max(np.abs(sub - sub.T)) < 1e-12

    def test_chain_below_float_underflow(self):
        # squared distances of 1e-581 underflow to 0; the chain through the
        # deeper copy of the source must still be found
        coords = np.array([[0.0, 0.0], [0.0, 4e-291], [0.0, 0.0]])
        depth = np.array([0.5, 0.5, 1.0])
        row = views._dense_chain(coords, depth, 0)
        assert row[1] < 4e-291 / 0.25
        assert np.array_equal(row, reference_chain_row(coords, depth, 0))

    def test_chain_through_a_lower_copy_of_the_source(self):
        # vertex 0 sits on source 1 with a larger depth, so 1 -> 0 -> 2 costs 0 + 2
        # against the direct 4; vertex 0 must be relaxed even though it sorts first
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        depth = np.array([1.0, 0.5, 0.5])
        row = views._dense_chain(coords, depth, 1)
        assert row.tolist() == [0.0, 0.0, 2.0]
        assert np.array_equal(row, reference_chain_row(coords, depth, 1))

    def test_rows_equal_reference_on_punctured_sphericalization(self, punctured_sphericalized):
        _, _, s = punctured_sphericalized
        coords, depth = s.domain.coords[s.active], s.depth[s.active]
        assert np.array_equal(s.metric_view()._depth, depth)
        for source in (0, 1, 517, s.n - 1):
            row = s.metric_view().rows([source])[0]
            assert np.array_equal(row, reference_chain_row(coords, depth, source))

    @given(chain_spaces(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_reference_on_random_points(self, space, data):
        coords, depth, base = space
        source = data.draw(st.integers(0, len(depth) - 1))
        if base is None:
            row = views._dense_chain(coords, depth, source)
        else:
            row = DenseChainView(coords, base_point=base).rows([source])[0]
        assert np.array_equal(row, reference_chain_row(coords, depth, source))

    @given(lattice_chain_spaces(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_reference_with_a_lattice_base_point(self, space, data):
        coords, p = space
        source = data.draw(st.integers(0, len(coords) - 1))
        row = DenseChainView(coords, base_point=p).rows([source])[0]
        depth = sphericalization_depth(coords, p)
        assert np.array_equal(row, reference_chain_row(coords, depth, source))

    def test_window_holds_every_screened_pair(self, punctured_sphericalized):
        # the screen over all pairs against the window pairs; the fan (last) puts
        # screened pairs (1, v) out to about 0.7 of the half-window of vertex 1
        _, _, s = punctured_sphericalized
        fan = np.linspace(-0.005, 0.005, 41)
        coords = np.vstack([[0.0, 0.0], [0.01, 0.0], 10.0 * np.c_[np.cos(fan), np.sin(fan)]])
        fan_view = DenseChainView(coords, base_point=(-1.0, 0.0))
        for view, sources in ((s.metric_view(), (0, 1, 517, s.n - 1)), (fan_view, (0,))):
            for source in sources:
                row = view.quasimetric(source, np.arange(view.n))
                u, v, hit = view._candidates(source, row)
                screened = screened_pairs(view, source, row)
                assert screened == set(zip(u[hit].tolist(), v[hit].tolist()))
                assert screened <= set(zip(u.tolist(), v.tolist()))
        assert len(screened) > 20

    def test_screen_keeps_near_ties(self):
        # u and v a few ulps apart on a line through s and p: q_v - q_u rounds to 0
        # or below, yet a relaxed dist[u] may drift below q_v, so both orders pass
        x = 3.0 + np.arange(6) * np.spacing(3.0)
        coords = np.vstack([[1.0, 0.0], np.c_[x, np.zeros(6)]])
        view = DenseChainView(coords, base_point=(0.0, 0.0))
        row = view.quasimetric(0, np.arange(view.n))
        assert np.any(np.diff(row[1:]) <= 0)
        u, v, hit = view._candidates(0, row)
        everyone = {(a, b) for a in range(1, 7) for b in range(1, 7) if a != b}
        assert set(zip(u[hit].tolist(), v[hit].tolist())) == everyone

    def test_collinear_points_run_the_plain_loop(self):
        # points on one line through s and p share a window with every point on their
        # side of s: the row builds no pairs and runs the plain loop on all 2,000 vertices
        t = np.random.default_rng(11).uniform(-4.0, 6.0, 2000)
        coords = np.c_[1.0 + 0.6 * t, -2.0 + 0.8 * t]
        view = DenseChainView(coords, base_point=(1.0, -2.0))
        row = view.quasimetric(7, np.arange(view.n))
        assert view._candidates(7, row) is None
        depth = sphericalization_depth(coords, (1.0, -2.0))
        assert np.array_equal(view.rows([7])[0], reference_chain_row(coords, depth, 7))


@st.composite
def simple_edge_lists(draw):
    """(n, edges, lengths): a random simple graph, possibly disconnected, with its
    edges in random order and orientation."""
    n = draw(st.integers(1, 14))
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index).filter(lambda e: e[0] != e[1]),
                          max_size=3 * n, unique_by=lambda e: (min(e), max(e))))
    lengths = draw(st.lists(st.floats(0.01, 10.0), min_size=len(edges), max_size=len(edges)))
    return n, np.array(edges, dtype=np.intp).reshape(-1, 2), np.array(lengths)


def coo_reference(n, edges, weights):
    """The symmetric matrix through scipy's COO conversion."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return csr_matrix((np.concatenate([weights, weights]), (rows, cols)), shape=(n, n))


def assert_same_csr(a, b):
    for key in ("indptr", "indices", "data"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestLengthGraphLayout:
    @given(simple_edge_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matrix_and_reweighted_equal_coo_reference(self, case, data):
        n, edges, lengths = case
        with mock.patch.object(LengthGraph, "_check_connected", lambda self: None):
            g = LengthGraph(n, edges, lengths, np.zeros((n, 2)))
        assert_same_csr(g.matrix, coo_reference(n, edges, lengths))
        weights = np.array(data.draw(st.lists(st.floats(0.01, 10.0), min_size=len(edges),
                                              max_size=len(edges))))
        again = g.reweighted(weights[g._code])  # an imported graph's arc code is its edge
        assert_same_csr(again, coo_reference(n, edges, weights))
        assert np.shares_memory(again.indptr, g.matrix.indptr)
        assert np.shares_memory(again.indices, g.matrix.indices) or len(edges) == 0

    def test_layout_past_int32_keys(self):
        # a cycle whose last edges have keys u * n + v above 2**31 (n > 46,340)
        n = 50_000
        edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        lengths = np.linspace(1.0, 2.0, n)
        g = LengthGraph(n, edges, lengths, np.zeros((n, 2)))
        assert_same_csr(g.matrix, coo_reference(n, edges, lengths))
        with pytest.raises(ConfigurationError, match=rf"edge {n} \({n - 1}, {n - 2}\) repeats"):
            LengthGraph(n, np.vstack([edges, [[n - 1, n - 2]]]), np.ones(n + 1), np.zeros((n, 2)))

    def test_disconnected_graph_rejected_with_component_count(self):
        with pytest.raises(ConfigurationError, match="graph has 3 connected components"):
            LengthGraph(5, [[0, 1], [2, 3]], [1.0, 1.0], np.zeros((5, 2)))

    def test_edge_endpoint_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match=r"vertex indices in \[0, 3\)"):
            LengthGraph(3, [[0, 1], [1, 3]], [1.0, 1.0], np.zeros((3, 2)))


def complete_graph(n=4):
    edges = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
    return LengthGraph(n, edges, np.arange(1.0, len(edges) + 1), np.zeros((n, 2)))


def in_threads(build, count=8):
    """The results of ``build()`` started at once on ``count`` threads (more than cores)."""
    barrier, got = threading.Barrier(count), []
    threads = [threading.Thread(target=lambda: (barrier.wait(), got.append(build())))
               for _ in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(got) == count
    return got


class TestLazyMembers:
    """A graph keeps no array that no query reads; lazy members are built once."""

    def test_fresh_graph_holds_no_length_matrix(self):
        g = complete_graph()
        assert g._matrix is None
        assert g.edges.dtype == np.int32
        # no float array with one entry per arc (2 per edge) outlives the constructor
        nnz = 2 * len(g.edges)
        assert all(a.size < nnz for a in vars(g).values()
                   if isinstance(a, np.ndarray) and a.dtype.kind == "f")
        m = g.matrix
        assert g.matrix is m
        assert_same_csr(m, coo_reference(g.n, g.edges, g.lengths))

    def test_threads_build_the_matrix_once(self):
        g, csr = complete_graph(), LengthGraph._csr

        def slow_csr(self, weights):
            time.sleep(0.05)  # every thread is past the first check by now
            return csr(self, weights)

        with mock.patch.object(LengthGraph, "_csr", slow_csr):
            built = in_threads(lambda: g.matrix)
        assert all(m is built[0] for m in built)

    def test_threads_get_one_graph_view(self):
        domain = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.2))
        make = metric_core.GraphView

        def slow_view(*args, **kwargs):
            time.sleep(0.05)
            return make(*args, **kwargs)

        assert domain._graph_view is None
        with mock.patch.object(metric_core, "GraphView", slow_view):
            built = in_threads(domain.graph_view)
        assert all(v is domain.graph_view() for v in built)

    @pytest.mark.parametrize("member", ["nearest_vertex", "boundary_tree", "side_tree",
                                        "uniformized", "sphericalized", "bands"])
    def test_threads_build_each_lazy_member_once(self, member):
        from qhgeo import DomainSide, deformations, sphericalize, uniformize

        # a polygon: no analytic boundary distance, so boundary_distance_at needs its tree
        square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        d = build_grid_domain(ShapeSpec("custom-polygon", {"vertices": square}, 0.2), 2.0)
        built = []

        def counted(module, name):
            """``module.name``, patched to count and slow down each call."""
            make = getattr(module, name)

            def slow(*args, **kwargs):
                built.append(name)
                time.sleep(0.02)  # every thread is past the first check by now
                return make(*args, **kwargs)

            return mock.patch.object(module, name, slow)

        if member == "boundary_tree":  # a domain built without the tree its build queried
            d = metric_core.DomainSample(d.graph, d.boundary_coords, d.boundary_distance)
        side = DomainSide(d)  # snaps through the domain's one vertex tree
        k = QuasihyperbolicMetric(d)
        space = (uniformize(d, k, 0, 0.3) if member == "uniformized"
                 else sphericalize(d, d.boundary_coords[0], max_points=50, rng=0))
        if member == "bands":
            d.graph._bands = None  # the grid's first search, from every thread at once
        read, patched, expected = {
            # (0.1, 0.2) is an exact tie of two vertices: it goes to the tree
            "nearest_vertex": (lambda: tuple(d.nearest_vertex([(0.1, 0.2)])),
                               [(metric_core, "kd_tree")], ["kd_tree"]),
            "boundary_tree": (lambda: tuple(d.boundary_distance_at([(0.1, 0.2)])),
                              [(metric_core, "kd_tree")], ["kd_tree"]),
            "side_tree": (lambda: tuple(side.nearest_vertex([(0.1, 0.2)])),
                          [(metric_core, "kd_tree")], ["kd_tree"]),
            # both members from both entry points: qh_view reads boundary_distance
            "uniformized": (lambda: (id(space.qh_view()), id(space.boundary_distance())),
                            [(deformations, "quasihyperbolic_view"),
                             (LengthGraph, "sink_matrix")],
                            ["quasihyperbolic_view", "sink_matrix"]),
            "sphericalized": (lambda: (id(space.qh_view()), id(space.boundary_distance())),
                              [(deformations, "quasihyperbolic_view"),
                               (deformations, "rows_per_block")],
                              ["quasihyperbolic_view", "rows_per_block"]),
            "bands": (lambda: id(QuasihyperbolicMetric(d).view().order),
                      [(metric_core, "_band_order")], ["_band_order"]),
        }[member]
        with contextlib.ExitStack() as stack:
            for module, name in patched:
                stack.enter_context(counted(module, name))
            got = in_threads(read)
        assert len(set(got)) == 1
        assert sorted(built) == sorted(expected)


class TestLengthGraphValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            LengthGraph(2, [[0, 1]], [1.0, 2.0], [[0, 0], [1, 0]])

    def test_reweighting_requires_positive(self):
        g = LengthGraph(2, [[0, 1]], [1.0], [[0, 0], [1, 0]])
        with pytest.raises(ConfigurationError, match="> 0"):
            g.reweighted(np.array([-1.0]))

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1], [0, 1], [1, 2]], r"edge 1 \(0, 1\) repeats an earlier edge"),
        ([[0, 1], [1, 2], [1, 0]], r"edge 2 \(1, 0\) repeats an earlier edge"),
        ([[0, 1], [2, 2], [1, 2]], r"edge 1 \(2, 2\) is a self-loop"),
        ([[1, 2], [1, 2], [0, 0], [0, 1]], r"edge 1 \(1, 2\) repeats an earlier edge"),
    ])
    def test_repeated_edges_and_self_loops_rejected(self, edges, message):
        with pytest.raises(ConfigurationError, match=message):
            LengthGraph(3, edges, np.ones(len(edges)), np.zeros((3, 2)))


class TestWorkingSetBudgets:
    """Temporaries and cache references stay within the views' byte constants."""

    def test_landmarks_dropped_during_pairs_are_freed(self):
        n = 30
        g = LengthGraph(n, [[a, a + 1] for a in range(n - 1)], np.ones(n - 1), np.zeros((n, 2)))
        full = GraphView(g.matrix).rows(np.arange(n))
        v, refs, leaked = GraphView(g.matrix), [], []
        keep = GraphView._keep

        def watched(self, sources, rows):
            keep(self, sources, rows)
            held = {id(r) for r in self._landmarks.values()}
            refs.extend(weakref.ref(r) for r in self._landmarks.values())
            # a landmark the view no longer holds must not be alive anywhere else
            leaked.extend(k for k, ref in enumerate(refs)
                          if ref() is not None and id(ref()) not in held)

        with mock.patch.object(views, "_LANDMARK_BYTES", 2 * n * 3), \
                mock.patch.object(views, "_ROW_BLOCK_BYTES", 8 * n), \
                mock.patch.object(views, "_BOUND_PAD", -0.9), \
                mock.patch.object(GraphView, "_keep", watched):
            v.rows([0, 1, 2])
            # every limit is cut to a tenth, so every source falls back to a full row
            i = np.arange(3, n)
            assert np.array_equal(v.pairs(i, np.zeros_like(i)), full[i, 0])
        assert list(v._landmarks) == [n - 3, n - 2, n - 1] and leaked == []

    def test_hop_bounds_peak_within_two_blocks(self):
        # the quasihyperbolic grid of the bounded_pair_distortion scenario
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.02), 2.0)
        v = QuasihyperbolicMetric(d).view()
        rng = np.random.default_rng(11)
        i, j = rng.integers(0, d.n, 5000), rng.integers(0, d.n, 5000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = v._hop_bounds(i, j)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * views._ROW_BLOCK_BYTES
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 1 << 40):  # one chunk
            assert got.tobytes() == v._hop_bounds(i, j).tobytes()

    def test_rows_return_the_search_output(self):
        g = complete_graph(6)
        v, outputs = GraphView(g.matrix), []

        def recorded(*args, **kwargs):
            outputs.append(dijkstra(*args, **kwargs))
            return outputs[-1]

        with mock.patch.object(views, "dijkstra", recorded):
            got = v.rows([4, 1, 3])
            assert got is outputs[-1]
            assert not any(np.shares_memory(got, row) for row in v._landmarks.values())
            again = v.rows([4, 5])  # a landmark's source is searched again
        assert again is outputs[-1] and np.array_equal(again[0], got[0])
        assert list(v._landmarks) == [4, 1, 3, 5]

    def test_int32_edges_are_kept_without_an_int64_copy(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.05))
        edges = np.ascontiguousarray(d.graph.edges[::-1])  # int32, reordered
        lengths = d.graph.lengths[::-1].copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = LengthGraph(d.n, edges, lengths, d.coords)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.shares_memory(g.edges, edges) and edges.flags.writeable
        # the sort's int64 keys and order (32 bytes an edge) and its stable buffer (8);
        # an int64 copy of the edges (16) would exceed it
        assert peak < 48 * len(edges)
        assert_same_csr(g.matrix, coo_reference(d.n, edges.astype(np.intp), lengths))

    def test_arc_lengths_are_the_length_matrix_entries(self):
        g = complete_graph(5)
        u, v = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
        off = u != v
        got = g.arc_lengths(u[off], v[off])
        assert g._matrix is None
        assert got.tobytes() == np.asarray(g.matrix[u[off], v[off]]).ravel().tobytes()
        path = LengthGraph(3, [[0, 1], [1, 2]], [1.0, 2.0], np.zeros((3, 2)))
        assert path.arc_lengths([2, 1, 0], [1, 0, 1]).tolist() == [2.0, 1.0, 1.0]
        for u, v in [(0, 2), (2, 0), (1, 1)]:  # a missing entry must not read as edge 0
            with pytest.raises(InternalError, match="not an edge"):
                path.arc_lengths([0, u], [1, v])
