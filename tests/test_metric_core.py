import heapq
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from qhgeo import (
    ConfigurationError,
    DomainSample,
    LengthGraph,
    ShapeSpec,
    build_grid_domain,
    check_ball_containment,
    domain_from_length_graph,
    estimate_quasiconvexity,
    safe_ball_radius,
)
from qhgeo import shapes
from qhgeo.metric_core import STENCIL, STEPS
from qhgeo.sampling import check_metric_axioms, pair_sample

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "qhgeo" / "verifier" / "scenarios"


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


def reference_grid(spec, boundary_band_h=0.0):
    """Edges, lengths and boundary distances of the grid with the per-direction
    clipping loop: every stencil edge of a non-convex shape is tested at its 7
    interior samples, one ``contains`` call per sample and direction.  None for
    an empty interior."""
    geom = shapes.geometry_for(spec)
    h = spec.resolution
    xmin, ymin, xmax, ymax = geom.bounding_box()
    tol = 1e-9 * max(xmax - xmin, ymax - ymin)
    i0, i1 = int(math.floor(xmin / h)) - 1, int(math.ceil(xmax / h)) + 1
    j0, j1 = int(math.floor(ymin / h)) - 1, int(math.ceil(ymax / h)) + 1
    xs = np.arange(i0, i1 + 1, dtype=float) * h
    ys = np.arange(j0, j1 + 1, dtype=float) * h
    nx, ny = len(xs), len(ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    if geom.analytic_boundary:
        bdist = geom.boundary_distance(lattice)
    else:
        bdist = cKDTree(geom.boundary_samples(h)).query(lattice)[0]
        bdist = np.where(geom.contains(lattice), bdist, -bdist)
    keep = (bdist > tol) & (bdist >= boundary_band_h * h)
    if not np.any(keep):
        return None
    index = -np.ones(nx * ny, dtype=np.intp)
    index[keep] = np.arange(int(keep.sum()))
    keep2d, index2d = keep.reshape(nx, ny), index.reshape(nx, ny)
    needs_clip = not geom.convex and getattr(geom, "_needs_clipping", True)
    edge_u, edge_v, edge_len = [], [], []
    for di, dj in STENCIL:
        a_sl = (slice(0, nx - di) if di >= 0 else slice(-di, nx),
                slice(0, ny - dj) if dj >= 0 else slice(-dj, ny))
        b_sl = (slice(di, nx) if di >= 0 else slice(0, nx + di),
                slice(dj, ny) if dj >= 0 else slice(0, ny + dj))
        mask = keep2d[a_sl] & keep2d[b_sl]
        u, v = index2d[a_sl][mask], index2d[b_sl][mask]
        if needs_clip and len(u):
            pa, pb = lattice[keep][u], lattice[keep][v]
            ok = np.ones(len(u), dtype=bool)
            for frac in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875):
                ok &= geom.contains(pa + frac * (pb - pa))
            u, v = u[ok], v[ok]
        edge_u.append(u)
        edge_v.append(v)
        edge_len.append(np.full(len(u), h * math.hypot(di, dj)))
    edges = np.column_stack([np.concatenate(edge_u), np.concatenate(edge_v)])
    return edges, np.concatenate(edge_len), bdist[keep]


def assert_grid_matches_reference(spec, boundary_band_h=0.0):
    reference = reference_grid(spec, boundary_band_h)
    if reference is None:
        with pytest.raises(ConfigurationError, match="empty interior"):
            build_grid_domain(spec, boundary_band_h)
        return
    edges, lengths, bdist = reference
    # random shapes may fall apart into several components; the edges are compared
    # all the same, so the connectivity check is switched off for this build
    with mock.patch.object(LengthGraph, "_check_connected", lambda self: None):
        d = build_grid_domain(spec, boundary_band_h)
    assert d.graph.edges.dtype == np.int32  # half the bytes of the reference's int64
    assert d.graph.edges.tobytes() == edges.astype(np.int32).tobytes()
    assert np.array_equal(d.graph.edges, edges)
    assert d.graph.lengths.tobytes() == lengths.tobytes()
    assert d.boundary_distance.tobytes() == bdist.tobytes()
    # the layout that search_matrix reads: vertices in lattice order, and every arc's code
    # its step on the lattice
    i, j = np.nonzero(d.graph._lattice)
    assert len(i) == d.n
    rows = np.repeat(np.arange(d.n), np.diff(d.graph._indptr))
    step = STEPS[d.graph._code]
    cols = d.graph._indices
    assert np.array_equal(i[cols] - i[rows], step[:, 0])
    assert np.array_equal(j[cols] - j[rows], step[:, 1])


@st.composite
def random_polygons(draw):
    """Possibly self-intersecting polygons with vertices on a coarse lattice (so
    that horizontal edges and edges along grid lines occur) or free."""
    coord = st.integers(-4, 4).map(float) if draw(st.booleans()) else st.floats(-4, 4)
    vertices = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12))
    return [list(v) for v in vertices]


class TestClippingMatchesPerDirectionLoop:
    @given(random_polygons(), st.sampled_from([0.1, 0.15, 0.25, 0.4]),
           st.sampled_from([0.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_random_polygons(self, vertices, h, band):
        assert_grid_matches_reference(ShapeSpec("custom-polygon", {"vertices": vertices}, h),
                                      band)

    @given(st.floats(0.1, 0.9), st.floats(1.2, 2.0), st.floats(0.02, 0.2))
    @settings(max_examples=25, deadline=None)
    def test_l_shapes(self, width, length, h):
        assert_grid_matches_reference(
            ShapeSpec("L-shape", {"arm_width": width, "arm_length": length}, h))

    @given(st.floats(0.05, 0.6), st.floats(0.7, 1.5), st.floats(0.02, 0.2))
    @settings(max_examples=25, deadline=None)
    def test_annuli(self, inner, outer, h):
        assert_grid_matches_reference(
            ShapeSpec("annulus", {"inner_radius": inner, "outer_radius": outer}, h))

    @pytest.mark.parametrize("scenario, name", [
        ("disk_region_to_halfplane", "diskregion"),
        ("halfplane_to_disk_region", "diskregion"),
        ("power_sector", "quarter"),
    ])
    def test_shipped_polygon_domains_in_two_contains_calls(self, scenario, name):
        raw = json.loads((SCENARIO_DIR / f"{scenario}.json").read_text())
        spec = ShapeSpec.from_json(next(d for d in raw["domains"] if d["name"] == name)["shape"])
        assert spec.kind == "custom-polygon"
        with mock.patch.object(shapes, "_polygon_contains",
                               wraps=shapes._polygon_contains) as counted:
            build_grid_domain(spec)
        # the lattice sign, then one batch of edge samples
        assert counted.call_count <= 2
        assert_grid_matches_reference(spec)


def shipped_shapes():
    """Every distinct shape of the shipped scenarios, and one of each other kind."""
    specs = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        for dom in json.loads(path.read_text())["domains"]:
            if "shape" in dom:
                specs.setdefault(json.dumps(dom["shape"], sort_keys=True),
                                 pytest.param(dom["shape"], id=f"{path.stem}-{dom['name']}"))
    others = [{"kind": "square", "params": {"side": 1.0}, "resolution": 0.05},
              {"kind": "annulus", "params": {"inner_radius": 0.3, "outer_radius": 1.0},
               "resolution": 0.05},
              {"kind": "L-shape", "params": {}, "resolution": 0.05}]
    return list(specs.values()) + [pytest.param(o, id=o["kind"]) for o in others]


def restrict_to_band(domain, band):
    """The band rule as a restriction of a built domain: the vertices with
    ``bdist >= band * h`` and the edges between them, renumbered in order."""
    keep = domain.boundary_distance >= band * domain.resolution
    new_index = -np.ones(domain.n, dtype=np.intp)
    kept = np.flatnonzero(keep)
    new_index[kept] = np.arange(len(kept))
    e = domain.graph.edges
    keep_edge = keep[e[:, 0]] & keep[e[:, 1]]
    graph = LengthGraph(len(kept), new_index[e[keep_edge]], domain.graph.lengths[keep_edge],
                        domain.coords[kept])
    return DomainSample(graph, domain.boundary_coords, domain.boundary_distance[kept],
                        shape=domain.shape, geometry=domain.geometry,
                        resolution=domain.resolution)


class TestBandedBuild:
    @pytest.mark.parametrize("band", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("shape", shipped_shapes())
    def test_banded_build_equals_restricted_unbanded_build(self, shape, band):
        spec = ShapeSpec.from_json(shape)
        direct = build_grid_domain(spec, band)
        restricted = restrict_to_band(build_grid_domain(spec), band)
        assert direct.resolution == restricted.resolution
        for a, b in [(direct.coords, restricted.coords),
                     (direct.graph.edges, restricted.graph.edges),
                     (direct.graph.lengths, restricted.graph.lengths),
                     (direct.boundary_distance, restricted.boundary_distance),
                     (direct.boundary_coords, restricted.boundary_coords)]:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_half_plane_row_at_the_band_edge_is_kept(self):
        # lattice rows sit at y = j h exactly, so the row y = 2h ties with the band 2h
        h = 0.1
        d = build_grid_domain(ShapeSpec("half-plane-truncation", {"radius": 6.0}, h), 2.0)
        assert d.coords[:, 1].min() == 2.0 * h
        assert d.boundary_distance.min() == 2.0 * h


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
        rng = np.random.default_rng(1)
        c = estimate_quasiconvexity(d, (rng.integers(0, d.n, 400), rng.integers(0, d.n, 400)))
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

    @pytest.mark.parametrize("kind, params, message", [
        # a misspelt key built the default unit disk
        ("disk", {"raduis": 0.5}, "params.raduis: unknown key; expected one of radius, center"),
        ("annulus", {"radius": 0.5}, "params.radius: unknown key; expected one of inner_radius"),
        ("square", {"side": 1.0, "center": [0, 0]}, "params.center: unknown key"),
    ])
    def test_unknown_parameter_rejected_when_built_in_python(self, kind, params, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            build_grid_domain(ShapeSpec(kind, params, 0.1), 2.0)

    @pytest.mark.parametrize("kind, params, message", [
        ("disk", {"radius": float("nan")}, "params.radius: must be a finite number"),
        ("disk", {"radius": 0.0}, "params.radius: must be > 0"),
        ("disk", {"center": "00"}, "params.center: must be two numbers"),
        ("punctured-plane-truncation", {"radius": "6"}, "params.radius: must be a number"),
        ("annulus", {"inner_radius": 2.0}, "params: annulus requires 0 < inner_radius < "
                                           "outer_radius"),
        ("custom-polygon", {}, "params.vertices: must be a list of at least 3 pairs"),
        ("custom-polygon", {"vertices": [["0", "0"], [1, 0], [1, 1]]},
         "params.vertices: must be a list of at least 3 pairs"),
    ])
    def test_bad_value_names_the_parameter(self, kind, params, message):
        with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
            ShapeSpec(kind, params, 0.1)

    def test_pairs_may_be_tuples(self):
        spec = ShapeSpec("custom-polygon", {"vertices": ((0, 0), (1, 0), (1, 1))}, 0.1)
        assert ShapeSpec("disk", {"center": (0.5, -0.5)}, 0.1).param("center") == (0.5, -0.5)
        assert len(spec.param("vertices")) == 3


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
