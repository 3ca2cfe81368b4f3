import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qhgeo import (
    ConfigurationError,
    QuasihyperbolicMetric,
    ShapeSpec,
    build_grid_domain,
    domain_from_length_graph,
    estimate_uniformity,
    verify_qh_distance_bounds,
    views,
)
from qhgeo.sampling import check_metric_axioms, pair_sample
from qhgeo.views import GraphView


@st.composite
def length_graph_domains(draw):
    """A small connected imported domain: random tree plus extra edges, random
    lengths, vertices in [-5, 5]^2 and boundary samples on the circle of radius 10."""
    n = draw(st.integers(2, 12))
    coord = st.floats(-5.0, 5.0)
    coords = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = {(p, v) for v, p in zip(range(1, n), parents)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    lengths = draw(st.lists(st.floats(0.01, 10.0), min_size=len(edges), max_size=len(edges)))
    angles = np.asarray(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4)))
    boundary = 10.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    return domain_from_length_graph(coords, sorted(edges), boundary, lengths)


@st.composite
def integer_weight_domains(draw):
    """A connected imported domain whose quasihyperbolic edge weights are small
    integers, so that exact ties between shortest paths occur: every vertex sits
    at (1, 0) and the one boundary sample at the origin, so d_G = 1 and each
    weight equals its edge length."""
    n = draw(st.integers(2, 12))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = {(p, v) for v, p in zip(range(1, n), parents)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    lengths = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    coords = np.tile([1.0, 0.0], (n, 1))
    return domain_from_length_graph(coords, sorted(edges), [[0.0, 0.0]], np.asarray(lengths, float))


def banded_qh(spec):
    """The grid of ``spec`` without its 2h boundary band, and its quasihyperbolic metric."""
    d = build_grid_domain(spec, 2.0)
    return d, QuasihyperbolicMetric(d)


def reference_predecessors(k, source):
    """The edge-list predecessor pass: every edge in both directions, lowest head
    index per tail on the shortest-path subgraph."""
    dist = k.rows([source])[0]
    arcs = k.domain.graph.reweighted(k.arc_weights).tocoo()
    heads, tails, weights = arcs.row, arcs.col, arcs.data
    tol = 1e-12 * (1.0 + dist[tails])
    on_path = (np.abs(dist[heads] + weights - dist[tails]) <= tol) & (dist[heads] < dist[tails])
    pred = np.full(k.n, k.n, dtype=np.intp)
    np.minimum.at(pred, tails[on_path], heads[on_path])
    pred[source] = source
    return pred


def assert_walks_from(k, source, pred):
    """The geodesics from ``source`` to every vertex are the walks over ``pred``."""
    every = np.arange(k.n)
    for b, path in zip(every.tolist(), k.geodesics(np.full(k.n, source), every)):
        assert np.array_equal(path, reference_walk(pred, source, b))


def reference_walk(pred, a, b):
    """The vertex path from a to b read backwards over a predecessor array."""
    path = [b]
    while path[-1] != a:
        path.append(int(pred[path[-1]]))
    return np.asarray(path[::-1], dtype=np.intp)


def radial_oracle(r):
    """1-D density integral along the disk radius (the radial geodesic)."""
    value, _ = quad(lambda t: 1.0 / (1.0 - t), 0.0, r)
    return value


class TestMetricBasics:
    def test_arc_weights_are_endpoint_trapezoid(self, disk_coarse):
        d, k = disk_coarse
        lengths = d.graph.matrix.tocoo()
        u, v, dg = lengths.row, lengths.col, d.boundary_distance
        expected = lengths.data * 0.5 * (1.0 / dg[u] + 1.0 / dg[v])
        assert k.arc_weights.tobytes() == expected.tobytes()
        # both arcs of an edge carry its weight, the trapezoid of the edge as listed
        e = d.graph.edges
        edge_weights = d.graph.lengths * 0.5 * (1.0 / dg[e[:, 0]] + 1.0 / dg[e[:, 1]])
        full = d.graph.reweighted(k.arc_weights)
        for a, b in [(0, 1), (1, 0)]:
            assert np.asarray(full[e[:, a], e[:, b]]).ravel().tobytes() == edge_weights.tobytes()

    def test_arc_weights_computed_on_demand_bitwise(self, disk_coarse):
        d, k = disk_coarse
        assert "arc_weights" not in vars(k)  # nothing per arc is kept but the matrix
        expected = d.graph.trapezoid(1.0 / d.boundary_distance)
        assert k.arc_weights.tobytes() == expected.tobytes()
        masked = d.graph.search_matrix(expected.copy())
        for key in ("indptr", "indices", "data"):
            assert getattr(k.matrix, key).tobytes() == getattr(masked, key).tobytes()
        every = np.arange(d.n)
        assert k.rows(every).tobytes() == GraphView(d.graph.reweighted(expected)).rows(every).tobytes()

    def test_zero_on_diagonal_and_symmetric(self, disk_coarse):
        _, k = disk_coarse
        assert k.distance(5, 5) == 0.0
        assert k.distance(2, 40) == pytest.approx(k.distance(40, 2), abs=1e-12)

    def test_radial_distance_matches_density_integral(self, disk_mid):
        d, k = disk_mid
        i = int(d.nearest_vertex([(0.0, 0.0)])[0])
        j = int(d.nearest_vertex([(0.5, 0.0)])[0])
        oracle = radial_oracle(0.5)
        assert oracle == pytest.approx(math.log(2.0), abs=1e-9)
        assert k.distance(i, j) == pytest.approx(oracle, rel=0.02)

    def test_punctured_plane_radial_pair(self):
        d, k = banded_qh(ShapeSpec("punctured-plane-truncation", {"radius": 6.0}, 0.12))
        i = int(d.nearest_vertex([(1.0, 0.0)])[0])
        j = int(d.nearest_vertex([(math.e, 0.0)])[0])
        r1 = np.hypot(*d.coords[i])
        r2 = np.hypot(*d.coords[j])
        assert k.distance(i, j) == pytest.approx(abs(math.log(r2 / r1)), rel=0.02)

    def test_density_lower_bound(self, disk_coarse, rng):
        d, k = disk_coarse
        i, j = pair_sample(d.n, 300, rng)
        lower = d.graph_view().pairs(i, j) / d.boundary_distance.max()
        assert np.all(k.pairs(i, j) >= lower - 1e-12)

    def test_metric_axioms(self, disk_coarse, rng):
        _, k = disk_coarse
        assert check_metric_axioms(k.view(), 4000, rng).passed


class TestGeodesics:
    def test_single_vertex_path(self, disk_coarse):
        _, k = disk_coarse
        assert k.geodesic(7, 7).tolist() == [7]

    def test_radial_path_stays_on_axis(self, disk_coarse):
        d, k = disk_coarse
        i = int(d.nearest_vertex([(0.1, 0.0)])[0])
        j = int(d.nearest_vertex([(0.9, 0.0)])[0])
        path = k.geodesic(i, j)
        assert np.abs(d.coords[path][:, 1]).max() <= d.resolution + 1e-12

    def test_symmetric_pair_bends_toward_center(self, disk_coarse):
        d, k = disk_coarse
        i = int(d.nearest_vertex([(-0.85, 0.0)])[0])
        j = int(d.nearest_vertex([(0.85, 0.0)])[0])
        path = k.geodesic(i, j)
        assert d.boundary_distance[path].max() > 2.0 * d.boundary_distance[i]

    def test_path_realizes_distance_and_is_deterministic(self, disk_coarse):
        d, k = disk_coarse
        i = int(d.nearest_vertex([(-0.3, 0.4)])[0])
        j = int(d.nearest_vertex([(0.6, -0.2)])[0])
        path = k.geodesic(i, j)
        seg = np.asarray(k.matrix[path[:-1], path[1:]]).ravel()
        assert seg.sum() == pytest.approx(k.distance(i, j), abs=1e-10)
        assert np.array_equal(path, k.geodesic(i, j))


    def test_geodesics_walk_reference_predecessors_one_row_per_source(self, disk_coarse,
                                                                      monkeypatch):
        d, _ = disk_coarse
        k = QuasihyperbolicMetric(d)
        rng = np.random.default_rng(11)
        i = np.repeat(rng.choice(d.n - 1, 4, replace=False), 5)
        j = rng.integers(0, d.n, len(i))
        j[3] = i[3]  # a one-vertex path
        # a source asked only for itself needs no row
        i, j = np.append(i, d.n - 1), np.append(j, d.n - 1)
        expected = [reference_walk(reference_predecessors(k, a), a, b)
                    for a, b in zip(i.tolist(), j.tolist())]
        searched = []
        rows = k.rows

        def counted(sources):
            searched.extend(np.atleast_1d(sources).tolist())
            return rows(sources)

        monkeypatch.setattr(k, "rows", counted)
        paths = k.geodesics(i, j)
        assert len(paths) == len(expected)
        assert all(np.array_equal(p, q) for p, q in zip(paths, expected))
        assert sorted(searched) == sorted(set(i[:-1].tolist())) and len(searched) == 4

    @given(integer_weight_domains())
    @settings(max_examples=60, deadline=None)
    def test_geodesics_with_ties_walk_reference_predecessors(self, d):
        k = QuasihyperbolicMetric(d)
        i, j = (a.ravel() for a in np.meshgrid(np.arange(d.n), np.arange(d.n), indexing="ij"))
        preds = [reference_predecessors(k, a) for a in range(d.n)]
        for a, b, path in zip(i.tolist(), j.tolist(), k.geodesics(i, j)):
            assert np.array_equal(path, reference_walk(preds[a], a, b))

    def test_rounded_tie_within_relative_tolerance_takes_lowest_index(self):
        # in floats 10000.1 + 10000.6 exceeds 10000.3 + 10000.4 by 3.6e-12, more than
        # 1e-12 but within 1e-12 (1 + dist): a tie, so vertex 1 beats the shorter sum via 2
        d = domain_from_length_graph(np.tile([1.0, 0.0], (4, 1)),
                                     [[0, 1], [1, 3], [0, 2], [2, 3]], [[0.0, 0.0]],
                                     [10000.1, 10000.6, 10000.3, 10000.4])
        k = QuasihyperbolicMetric(d)
        assert k.distance(0, 3) == 10000.3 + 10000.4 < 10000.1 + 10000.6
        assert k.geodesic(0, 3).tolist() == [0, 1, 3]

    @given(length_graph_domains(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_geodesic_weight_sum_equals_distance(self, d, data):
        k = QuasihyperbolicMetric(d)
        i = data.draw(st.integers(0, d.n - 1))
        j = data.draw(st.integers(0, d.n - 1))
        path = k.geodesic(i, j)
        assert path[0] == i and path[-1] == j
        total = float(np.asarray(k.matrix[path[:-1], path[1:]]).sum()) if len(path) > 1 else 0.0
        assert abs(total - k.distance(i, j)) <= 1e-12 * k.distance(i, j)


    @given(integer_weight_domains())
    @settings(max_examples=80, deadline=None)
    def test_predecessors_equal_edge_list_reference(self, d):
        k = QuasihyperbolicMetric(d)
        assert np.array_equal(k.arc_weights, np.round(k.arc_weights))
        for source in range(d.n):
            assert_walks_from(k, source, reference_predecessors(k, source))

    def test_predecessors_on_grid_equal_edge_list_reference(self, disk_coarse):
        d, k = disk_coarse
        for source in (0, d.n // 2, d.n - 1):
            assert_walks_from(QuasihyperbolicMetric(d), source, reference_predecessors(k, source))

    @given(length_graph_domains(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_sources_across_row_blocks_walk_reference_predecessors(self, d, data):
        # a block of one to three rows: one call's sources span several rows calls
        k = QuasihyperbolicMetric(d)
        index = st.integers(0, d.n - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=30))
        i, j = (np.array(c, dtype=np.intp) for c in zip(*pairs))
        preds = {a: reference_predecessors(k, a) for a in set(i.tolist())}
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 8 * d.n * data.draw(st.integers(1, 3))):
            paths = k.geodesics(i, j)
        assert len(paths) == len(i)
        for a, b, path in zip(i.tolist(), j.tolist(), paths):
            assert np.array_equal(path, reference_walk(preds[a], a, b))

    @pytest.mark.parametrize("per_block", [1, 3, 64])
    def test_one_rows_call_per_block_of_sources(self, disk_coarse, monkeypatch, per_block):
        d, _ = disk_coarse
        k = QuasihyperbolicMetric(d)
        rng = np.random.default_rng(5)
        i = np.repeat(rng.choice(d.n, 10, replace=False), 3)
        j = rng.integers(0, d.n, len(i))
        calls, rows = [], k.rows

        def counted(sources):
            calls.append(np.atleast_1d(sources).tolist())
            return rows(sources)

        monkeypatch.setattr(k, "rows", counted)
        monkeypatch.setattr(views, "_ROW_BLOCK_BYTES", 8 * d.n * per_block)
        k.geodesics(i, j)
        distinct = set(i[i != j].tolist())
        assert len(calls) <= math.ceil(len(distinct) / views.rows_per_block(d.n))
        assert all(len(c) <= per_block for c in calls)
        assert sorted(sum(calls, [])) == sorted(distinct)

    def test_repeated_edge_rejected_before_any_geodesic(self):
        # the sparse matrix used to sum the two copies of edge 0-1 into weight 2,
        # and the geodesic walk from 0 to 2 then found no predecessor
        coords = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        with pytest.raises(ConfigurationError, match=r"edge 1 \(0, 1\) repeats an earlier edge"):
            domain_from_length_graph(coords, [[0, 1], [0, 1], [1, 2]], [[0.0, 5.0]])
        with pytest.raises(ConfigurationError, match=r"edge 1 \(1, 1\) is a self-loop"):
            domain_from_length_graph(coords, [[0, 1], [1, 1], [1, 2]], [[0.0, 5.0]], np.ones(3))


class TestDistanceBounds:
    def test_worked_disk_pair(self, disk_mid):
        d, k = disk_mid
        i = int(d.nearest_vertex([(0.0, 0.0)])[0])
        j = int(d.nearest_vertex([(0.5, 0.0)])[0])
        kv = k.distance(i, j)
        # growth bound: 0.5 <= (e^k - 1) * 1
        assert 0.5 <= (math.exp(kv) - 1.0) * 1.0
        # small-scale two-sided comparison (k <= 1 branch, c = 1)
        assert 0.5 * 0.5 <= kv <= 3.0 * 0.5
        report = verify_qh_distance_bounds(k, (np.array([i]), np.array([j])))
        assert report.passed and report.n_gated == 1

    def test_identical_points_pass_trivially(self, disk_coarse):
        _, k = disk_coarse
        report = verify_qh_distance_bounds(k, (np.array([4]), np.array([4])))
        assert report.passed

    def test_sweeps_clean_on_builtin_shapes(self, disk_coarse, lshape_coarse, rng):
        annulus = banded_qh(ShapeSpec("annulus", {"inner_radius": 0.3, "outer_radius": 1.0}, 0.04))
        for d, k in (disk_coarse, lshape_coarse, annulus):
            pairs = pair_sample(d.n, 3000, rng)
            report = verify_qh_distance_bounds(k, pairs, slack=1.05)
            assert report.passed, report.violations[:3]

    def test_empty_pair_list_gives_empty_report(self, disk_coarse):
        _, k = disk_coarse
        report = verify_qh_distance_bounds(k, (np.array([], int), np.array([], int)))
        assert report.passed and report.n_pairs == 0


class TestUniformity:
    def test_square_constant_small(self, square_mid, rng):
        d, k = square_mid
        pairs = pair_sample(d.n, 150, rng, n_sources=12)
        report = estimate_uniformity(d, k, pairs)
        assert 1.0 <= report.constant_a <= 3.0

    def test_identical_pairs_excluded(self, disk_coarse):
        d, k = disk_coarse
        i = np.array([3, 5])
        j = np.array([3, 9])
        report = estimate_uniformity(d, k, (i, j))
        assert report.n_pairs == 1

    def test_ratios_equal_per_pair_lookups(self, disk_coarse, rng):
        # the steps of every path are looked up at once; each path's ratios must
        # equal those from looking its own steps up
        d, k = disk_coarse
        i, j = pair_sample(d.n, 40, rng, n_sources=8)
        report = estimate_uniformity(d, k, (i, j))
        keep = i != j
        for a, (x, y) in enumerate(zip(i[keep], j[keep])):
            path = k.geodesic(int(x), int(y))
            seg = np.asarray(d.graph.matrix[path[:-1], path[1:]]).ravel()
            s = np.concatenate([[0.0], np.cumsum(seg)])
            total = s[-1]
            assert report.length_ratios[a] == total / d.ambient_distance([x], [y])[0]
            cigar = np.max(np.minimum(s, total - s) / d.boundary_distance[path])
            assert report.cigar_ratios[a] == cigar

    def test_no_length_matrix_and_ratios_equal_the_matrix_reference(self, rng):
        d, k = banded_qh(ShapeSpec("disk", {"radius": 1.0}, 0.05))
        i, j = pair_sample(d.n, 60, rng, n_sources=10)
        report = estimate_uniformity(d, k, (i, j))
        assert d.graph._matrix is None
        # the steps looked up in the length matrix, all paths at once
        paths = k.geodesics(i, j)
        steps = np.asarray(d.graph.matrix[np.concatenate([p[:-1] for p in paths]),
                                          np.concatenate([p[1:] for p in paths])]).ravel()
        at = np.cumsum([0] + [len(p) - 1 for p in paths])
        for a, path in enumerate(paths):
            s = np.concatenate([[0.0], np.cumsum(steps[at[a]:at[a + 1]])])
            assert report.length_ratios[a] == s[-1] / d.ambient_distance([i[a]], [j[a]])[0]
            assert report.cigar_ratios[a] == np.max(np.minimum(s, s[-1] - s)
                                                    / d.boundary_distance[path])

    def test_refinement_stability_near_boundary_pair(self):
        values = []
        for h in (0.08, 0.04):
            d, k = banded_qh(ShapeSpec("disk", {"radius": 1.0}, h))
            i = int(d.nearest_vertex([(-0.8, 0.0)])[0])
            j = int(d.nearest_vertex([(0.8, 0.0)])[0])
            values.append(estimate_uniformity(d, k, ([i], [j])).constant_a)
        assert abs(values[1] - values[0]) / values[0] < 0.05


class TestStructuralProperties:
    def test_monotone_under_domain_growth(self, rng):
        small, k_small = banded_qh(ShapeSpec("disk", {"radius": 1.0}, 0.05))
        large, k_large = banded_qh(ShapeSpec("disk", {"radius": 1.3}, 0.05))
        # map shared lattice points through exact coordinate keys
        index_large = {tuple(c): a for a, c in enumerate(map(tuple, large.coords))}
        shared = [(a, index_large[tuple(c)]) for a, c in enumerate(map(tuple, small.coords))
                  if tuple(c) in index_large]
        assert len(shared) == small.n
        small_idx = np.array([s for s, _ in shared])
        large_idx = np.array([l for _, l in shared])
        i = rng.integers(0, len(shared), 80)
        j = rng.integers(0, len(shared), 80)
        k0 = k_small.pairs(small_idx[i], small_idx[j])
        k1 = k_large.pairs(large_idx[i], large_idx[j])
        assert np.all(k1 <= k0 + 1e-12)

    def test_similarity_invariance_exact_scale(self, rng):
        base, kb = banded_qh(ShapeSpec("disk", {"radius": 1.0}, 0.1))
        scaled, ks = banded_qh(ShapeSpec("disk", {"radius": 2.0}, 0.2))
        i, j = pair_sample(base.n, 120, rng)
        assert np.max(np.abs(kb.pairs(i, j) - ks.pairs(i, j))) <= 1e-9

    def test_radial_error_decreases_under_refinement(self):
        errors = []
        for h in (0.04, 0.02):
            d, k = banded_qh(ShapeSpec("disk", {"radius": 1.0}, h))
            i = int(d.nearest_vertex([(0.0, 0.0)])[0])
            j = int(d.nearest_vertex([(0.5, 0.0)])[0])
            errors.append(abs(k.distance(i, j) - math.log(2.0)))
        assert errors[1] < errors[0]

    def test_band_restriction_drops_near_boundary_vertices(self):
        full = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.05))
        banded = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.05), 2.0)
        assert banded.n < full.n
        assert banded.boundary_distance.min() >= 2.0 * 0.05
