import heapq
import math

import numpy as np
import pytest

from qhgeo import (
    ConfigurationError,
    LengthGraph,
    ShapeSpec,
    build_grid_domain,
    check_ball_containment,
    domain_from_length_graph,
    estimate_quasiconvexity,
    safe_ball_radius,
)
from qhgeo.sampling import check_metric_axioms, pair_sample


def brute_dijkstra(n, edges, lengths, source):
    """Reference shortest paths with a plain binary heap."""
    adj = [[] for _ in range(n)]
    for (u, v), w in zip(edges, lengths):
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


class TestBuildGridDomain:
    def test_unit_square_single_center_point(self):
        d = build_grid_domain(ShapeSpec("square", {"side": 1.0}, 0.5))
        assert d.n == 1
        assert np.allclose(d.coords, [[0.5, 0.5]])
        assert d.boundary_distance[0] == pytest.approx(0.5, abs=1e-15)

    def test_disk_boundary_distance_analytic(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1))
        r = np.hypot(d.coords[:, 0], d.coords[:, 1])
        assert np.max(np.abs(d.boundary_distance - (1.0 - r))) == 0.0

    def test_annulus_boundary_distance(self):
        d = build_grid_domain(
            ShapeSpec("annulus", {"inner_radius": 0.2, "outer_radius": 1.0}, 0.05)
        )
        r = np.hypot(d.coords[:, 0], d.coords[:, 1])
        expected = np.minimum(r - 0.2, 1.0 - r)
        assert np.max(np.abs(d.boundary_distance - expected)) < 1e-14

    def test_empty_interior_rejected(self):
        # side 0.4 square at spacing 0.5: no lattice point falls strictly inside
        with pytest.raises(ConfigurationError, match="empty interior"):
            build_grid_domain(ShapeSpec("square", {"side": 0.4}, 0.5))

    def test_disconnected_graph_rejected(self):
        coords = [[0, 0], [1, 0], [5, 5], [6, 5]]
        with pytest.raises(ConfigurationError, match="connected"):
            LengthGraph(4, [[0, 1], [2, 3]], [1.0, 1.0], coords)

    def test_nonpositive_edge_length_rejected(self):
        with pytest.raises(ConfigurationError, match="length"):
            LengthGraph(2, [[0, 1]], [0.0], [[0, 0], [1, 0]])

    def test_boundary_sample_spacing(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1))
        b = d.boundary_coords
        gaps = np.hypot(*(b - np.roll(b, 1, axis=0)).T)
        assert gaps.max() <= 0.1 + 1e-12

    def test_boundary_distance_below_sample_minimum(self):
        d = build_grid_domain(ShapeSpec("L-shape", {}, 0.1))
        from scipy.spatial import cKDTree

        sample_min = cKDTree(d.boundary_coords).query(d.coords)[0]
        assert np.all(d.boundary_distance <= sample_min + 1e-12)


class TestGraphDistance:
    def test_zero_at_identical_points(self, disk_coarse):
        d, _ = disk_coarse
        assert d.graph_view().pairs([3], [3])[0] == 0.0

    def test_interior_chord_close_to_euclidean(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.05))
        i = int(d.nearest_vertex([(-0.5, 0.0)])[0])
        j = int(d.nearest_vertex([(0.5, 0.0)])[0])
        assert d.graph_view().pairs([i], [j])[0] == pytest.approx(1.0, rel=0.01)

    def test_matches_reference_dijkstra(self, lshape_coarse):
        d, _ = lshape_coarse
        ref = brute_dijkstra(d.n, d.graph.edges.tolist(), d.graph.lengths.tolist(), 0)
        targets = np.arange(0, d.n, max(1, d.n // 40))
        got = d.graph_view().pairs(np.zeros(len(targets), dtype=int), targets)
        assert np.max(np.abs(got - np.asarray(ref)[targets])) < 1e-12

    def test_opposite_arms_exceed_euclidean(self, lshape_coarse):
        d, _ = lshape_coarse
        i = int(d.nearest_vertex([(1.9, 0.9)])[0])
        j = int(d.nearest_vertex([(0.9, 1.9)])[0])
        euclid = float(d.ambient_distance(i, j)[0])
        assert d.graph_view().pairs([i], [j])[0] > euclid * 1.1

    def test_dominates_ambient_metric(self, disk_coarse, rng):
        d, _ = disk_coarse
        i, j = pair_sample(d.n, 400, rng)
        assert np.all(d.graph_view().pairs(i, j) >= d.ambient_distance(i, j) - 1e-12)


class TestQuasiconvexity:
    def test_convex_square_is_nearly_one(self):
        d = build_grid_domain(ShapeSpec("square", {"side": 1.0}, 0.02))
        c = estimate_quasiconvexity(d, n_pairs=400, rng=1)
        assert 1.0 - 1e-12 <= c <= 1.01

    def test_lshape_reflex_corner_reaches_sqrt2(self, lshape_coarse):
        d, _ = lshape_coarse
        # corner-straddling pairs: one point per arm, hugging the reflex corner
        xs, ys = [], []
        for t in np.linspace(0.15, 0.8, 12):
            xs.append(d.nearest_vertex([(1.0 + t, 0.85)])[0])
            ys.append(d.nearest_vertex([(0.85, 1.0 + t)])[0])
        c = estimate_quasiconvexity(d, pairs=(np.array(xs), np.array(ys)))
        assert 1.30 <= c <= 1.50

    def test_identity_pairs_filtered_with_warning(self, disk_coarse):
        d, _ = disk_coarse
        i = np.array([1, 2, 3])
        j = np.array([1, 5, 6])
        with pytest.warns(UserWarning, match="coincident"):
            c = estimate_quasiconvexity(d, pairs=(i, j))
        clean = estimate_quasiconvexity(d, pairs=(i[1:], j[1:]))
        assert c == clean


class TestBallContainment:
    def test_disk_center_safe_radius_contained(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.05))
        i = int(d.nearest_vertex([(0.0, 0.0)])[0])
        r = safe_ball_radius(d, i)
        assert r == pytest.approx(2.0 / 3.0, abs=1e-12)  # c = 1 gives 2/(2+c) = 2/3
        assert check_ball_containment(d, i, r).contained

    def test_tiny_radius_trivially_contained(self, disk_coarse):
        d, _ = disk_coarse
        assert check_ball_containment(d, 0, 1e-9).contained

    def test_oversized_radius_produces_witness(self, lshape_coarse):
        d, _ = lshape_coarse
        i = int(d.nearest_vertex([(1.2, 0.8)])[0])
        rep = check_ball_containment(d, i, 1.5 * d.boundary_distance[i])
        assert not rep.contained
        assert rep.witness is not None
        assert not d.contains([rep.witness])[0]


class TestInvariants:
    def test_ambient_metric_axioms(self, disk_coarse, rng):
        d, _ = disk_coarse
        rep = check_metric_axioms(d.ambient_view(), 4000, rng)
        assert rep.passed

    def test_graph_metric_axioms(self, lshape_coarse, rng):
        d, _ = lshape_coarse
        rep = check_metric_axioms(d.graph_view(), 4000, rng)
        assert rep.passed

    def test_boundary_distance_lipschitz_along_edges(self, lshape_coarse):
        d, _ = lshape_coarse
        e = d.graph.edges
        jump = np.abs(d.boundary_distance[e[:, 0]] - d.boundary_distance[e[:, 1]])
        assert np.all(jump <= d.graph.lengths + 1e-12)

    def test_scaling_equivariance_is_exact(self, rng):
        base = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1))
        scaled = build_grid_domain(ShapeSpec("disk", {"radius": 2.0}, 0.2))
        assert base.n == scaled.n
        assert np.array_equal(2.0 * base.coords, scaled.coords)
        assert np.array_equal(2.0 * base.boundary_distance, scaled.boundary_distance)
        i, j = pair_sample(base.n, 100, rng)
        d0 = base.graph_view().pairs(i, j)
        d1 = scaled.graph_view().pairs(i, j)
        assert np.array_equal(2.0 * d0, d1)


class TestShapeSpecJson:
    def test_round_trip_preserves_fields(self):
        spec = ShapeSpec("annulus", {"inner_radius": 0.3, "outer_radius": 1.2}, 0.04)
        again = ShapeSpec.from_json(spec.to_json())
        assert again.to_json() == {
            "kind": "annulus",
            "params": {"inner_radius": 0.3, "outer_radius": 1.2},
            "resolution": 0.04,
        }

    def test_invalid_kind_and_params(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ShapeSpec("triangle", {}, 0.1)
        with pytest.raises(ConfigurationError, match="inner_radius"):
            ShapeSpec("annulus", {"inner_radius": 2.0, "outer_radius": 1.0}, 0.1)
        with pytest.raises(ConfigurationError, match="resolution"):
            ShapeSpec("disk", {}, -0.1)


class TestLengthGraphImport:
    def test_import_with_boundary(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        d = domain_from_length_graph(coords, [[0, 1], [1, 2]], [[-1.0, 0.0]])
        assert d.n == 3
        assert d.boundary_distance[0] == pytest.approx(1.0)
        assert d.graph_view().pairs([0], [2])[0] == pytest.approx(2.0)

    def test_import_requires_boundary(self):
        with pytest.raises(ConfigurationError, match="boundary"):
            domain_from_length_graph([[0, 0], [1, 0]], [[0, 1]], [])
