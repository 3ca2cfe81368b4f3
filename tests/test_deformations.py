import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.spatial.distance import pdist

from qhgeo import (
    ConfigurationError,
    ShapeSpec,
    basepoint_change_distortion,
    build_grid_domain,
    domain_from_length_graph,
    sphericalization_envelope,
    sphericalize,
    uniformize,
    verify_deformation_comparability,
)
from qhgeo import views
from qhgeo.sampling import check_metric_axioms, pair_sample, pool_indices, tuple_sample_from_pool
from qhgeo.verifier.scenario import ScenarioContext

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "qhgeo" / "verifier" / "scenarios"


@pytest.fixture(scope="module")
def disk_pack():
    d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.05), 2.0)
    from qhgeo import QuasihyperbolicMetric

    k = QuasihyperbolicMetric(d)
    w = int(d.nearest_vertex([(0.0, 0.0)])[0])
    return d, k, w


class TestDensity:
    def test_one_at_base_point(self, disk_pack):
        d, k, w = disk_pack
        assert uniformize(d, k, w, 0.3).density[w] == 1.0

    def test_matches_radial_oracle(self, disk_pack):
        d, k, w = disk_pack
        x = int(d.nearest_vertex([(0.5, 0.0)])[0])
        # k(w, x) is log 2 along the radius, so the density is 2^(-1/2)
        assert uniformize(d, k, w, 0.5).density[x] == pytest.approx(2 ** -0.5, rel=0.02)

    def test_small_epsilon_limit(self, disk_pack):
        d, k, w = disk_pack
        idx = np.arange(0, d.n, 37)
        assert np.allclose(uniformize(d, k, w, 1e-9).density[idx], 1.0, atol=1e-6)


class TestUniformizedSpace:
    def test_zero_iff_equal(self, disk_pack):
        d, k, w = disk_pack
        u = uniformize(d, k, w, 0.2)
        assert u.pairs([3], [3])[0] == 0.0
        assert u.pairs([3], [9])[0] > 0.0

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
    def test_diameter_and_base_depth_bounds(self, disk_pack, eps):
        d, k, w = disk_pack
        u = uniformize(d, k, w, eps)
        assert u.diameter_estimate() <= (2.0 / eps) * 1.05
        assert u.boundary_distance()[w] >= (1.0 / (eps * math.e)) / 1.05

    def test_single_path_upper_bound(self, disk_pack, rng):
        d, k, w = disk_pack
        u = uniformize(d, k, w, 0.2)
        i = int(d.nearest_vertex([(-0.4, 0.3)])[0])
        j = int(d.nearest_vertex([(0.5, -0.1)])[0])
        path = k.geodesic(i, j)
        # the weights by vertex, from every arc (the search matrix is numbered in bands)
        weights = np.asarray(d.graph.reweighted(u.arc_weights)[path[:-1], path[1:]]).ravel()
        assert u.pairs([i], [j])[0] <= weights.sum() + 1e-12

    def test_metric_axioms_deformed_and_its_qh(self, disk_pack, rng):
        d, k, w = disk_pack
        u = uniformize(d, k, w, 0.2)
        assert check_metric_axioms(u.metric_view(), 3000, rng).passed
        assert check_metric_axioms(u.qh_view(), 3000, rng).passed

    @pytest.mark.parametrize("eps", [1.2, 1.5])
    def test_epsilon_range_enforced(self, disk_pack, eps):
        d, k, w = disk_pack
        with pytest.raises(ConfigurationError, match="epsilon"):
            uniformize(d, k, w, eps)


class TestComparability:
    def test_coincident_pairs_skipped_and_symmetric(self, disk_pack):
        d, k, w = disk_pack
        u = uniformize(d, k, w, 0.2)
        i = np.array([3, 5, 9])
        j = np.array([3, 9, 5])
        report = verify_deformation_comparability(u, (i, j))
        assert report.n_skipped == 1 and report.n_pairs == 2
        # swapped pair gives the identical ratio set
        assert report.max_ratio == pytest.approx(report.max_ratio, abs=0)

    def test_constant_finite(self, disk_pack, rng):
        d, k, w = disk_pack
        u = uniformize(d, k, w, 0.2)
        pairs = pair_sample(d.n, 400, rng)
        report = verify_deformation_comparability(u, pairs)
        assert report.finite
        assert report.constant < 50


class TestSphericalization:
    def test_quasimetric_equilateral_values(self):
        # d(x,p) = d(y,p) = d(x,y) = 1: quasimetric 1/4, chain within [1/16, 1/4]
        coords = [[1.0, 0.0], [0.5, math.sqrt(3) / 2]]
        d = domain_from_length_graph(coords, [[0, 1]], [[0.0, 0.0]], lengths=[1.0])
        s = sphericalize(d, (0.0, 0.0))
        quasi = float(s.quasimetric([0], [1])[0])
        chain = s.pairs([0], [1])[0]
        assert quasi == pytest.approx(0.25, abs=1e-12)
        assert 1.0 / 16.0 - 1e-12 <= chain <= 0.25 + 1e-12
        assert s.pairs([0], [0])[0] == 0.0

    @given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=3,
                    max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_envelope_on_random_point_sets(self, pts):
        # the last point is the base boundary sample; the others form a path graph
        pts = np.asarray(pts)
        assume(pdist(pts).min() > 1e-6)
        coords, p = pts[:-1], pts[-1]
        edges = [[a, a + 1] for a in range(len(coords) - 1)]
        s = sphericalize(domain_from_length_graph(coords, edges, [p]), p)
        i, j = np.triu_indices(s.n, k=1)
        report = sphericalization_envelope(s, (i, j))
        assert report.n_pairs == len(i)
        assert report.passed, report

    def test_base_point_must_be_boundary_sample(self, disk_pack):
        d, _, _ = disk_pack
        with pytest.raises(ConfigurationError, match="boundary"):
            sphericalize(d, (0.0, 0.0))  # interior point of the disk

    def test_diameter_bounded_by_one(self, punctured_sphericalized, rng):
        _, _, s = punctured_sphericalized
        i, j = pair_sample(s.n, 300, rng)
        assert np.all(s.quasimetric(i, j) <= 1.0 + 1e-12)
        assert np.all(s.pairs(i, j) <= 1.0 + 1e-12)

    def test_chain_vs_quasimetric_envelope(self, punctured_sphericalized, rng):
        _, _, s = punctured_sphericalized
        pairs = pair_sample(s.n, 400, rng, n_sources=12)
        report = sphericalization_envelope(s, pairs)
        assert report.passed

    def test_chain_metric_axioms(self, punctured_sphericalized, rng):
        _, _, s = punctured_sphericalized
        assert check_metric_axioms(s.metric_view(), 2000, rng, pool_size=48).passed

    def test_deformed_qh_metric_axioms(self, punctured_sphericalized, rng):
        _, _, s = punctured_sphericalized
        assert check_metric_axioms(s.qh_view(), 2000, rng, pool_size=48).passed

    def test_infinity_boundary_term(self, punctured_sphericalized):
        d, _, s = punctured_sphericalized
        # far from the base point the infinity term 1/(1+d(x,p)) dominates
        bd = s.boundary_distance()
        assert np.all(bd <= 1.0 / s.depth + 1e-12)


def shipped_sphericalization():
    """A fresh sphericalization of ``halfplane_to_disk_region`` (nothing computed yet)."""
    raw = json.loads((SCENARIO_DIR / "halfplane_to_disk_region.json").read_text())
    (space,) = ScenarioContext({**raw, "checks": []}).deformations.values()
    return space


def whole_array_boundary_distance(space):
    """The vertex-to-boundary-image quasimetric formed in one array, and its row minima."""
    c, bc = space.domain.coords, space.domain.boundary_coords
    d = np.hypot(c[:, None, 0] - bc[None, :, 0], c[:, None, 1] - bc[None, :, 1])
    s = d / (space.depth[:, None] * space.boundary_depth[None, :])
    return np.minimum(1.0 / space.depth, s.min(axis=1))


class TestBoundaryDistanceBlocks:
    @pytest.mark.parametrize("budget", [1, None], ids=["one-row", "default"])
    def test_bitwise_whole_array_reference(self, punctured_sphericalized, budget):
        _, _, fixture = punctured_sphericalized
        space = sphericalize(fixture.domain, fixture.p, max_points=10)
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", budget or views._ROW_BLOCK_BYTES):
            got = space.boundary_distance()
        assert got.tobytes() == whole_array_boundary_distance(space).tobytes()

    def test_shipped_sphericalization_one_row_blocks(self):
        space = shipped_sphericalization()
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 1):
            one_row = space.boundary_distance()
        assert one_row.tobytes() == shipped_sphericalization().boundary_distance().tobytes()

    def test_traced_peak_is_a_few_blocks_plus_output(self):
        space = shipped_sphericalization()
        n, m = space.domain.n, len(space.domain.boundary_coords)
        # four blocks live at once (two coordinate differences, the last block and the
        # next) and the output; one whole n x m array alone would be over the bound
        bound = 5 * views._ROW_BLOCK_BYTES + 8 * n
        assert 8 * n * m > bound
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            space.boundary_distance()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound


def coo_sink_reference(space):
    """The sink-augmented matrix of ``space.boundary_distance`` as built through COO before."""
    n, tail = space.n, space.density / space.eps
    base = space.domain.graph.reweighted(space.arc_weights).tocoo()
    rows = np.concatenate([base.row, np.arange(n), np.full(n, n)])
    cols = np.concatenate([base.col, np.full(n, n), np.arange(n)])
    vals = np.concatenate([base.data, tail, tail])
    return csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))


def assert_sink_equals_coo_reference(space):
    ref = coo_sink_reference(space)
    got = space.domain.graph.sink_matrix(space.arc_weights, space.density / space.eps)
    for key in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, key), getattr(ref, key))
    expected = views.GraphView(ref).rows([space.n])[0, :space.n]
    assert space.boundary_distance().tobytes() == expected.tobytes()


class TestSinkMatrix:
    def test_shipped_uniformizations_equal_the_coo_reference(self):
        raw = json.loads((SCENARIO_DIR / "uniformized_disk.json").read_text())
        spaces = ScenarioContext({**raw, "checks": []}).deformations.values()
        assert len(spaces) == 4 and all(s.kind == "uniformize" for s in spaces)
        for space in spaces:
            assert_sink_equals_coo_reference(space)

    @given(st.sampled_from([("disk", {"radius": 1.0}), ("square", {"side": 1.0}),
                            ("L-shape", {"arm_width": 1.0, "arm_length": 2.0})]),
           st.floats(0.08, 0.2), st.floats(0.05, 0.95), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_random_grids_equal_the_coo_reference(self, shape, h, eps, at):
        from qhgeo import QuasihyperbolicMetric

        d = build_grid_domain(ShapeSpec(*shape, h), 2.0)
        assert_sink_equals_coo_reference(uniformize(d, QuasihyperbolicMetric(d), at % d.n, eps))

    def test_traced_peak_within_three_arc_arrays(self):
        from qhgeo import QuasihyperbolicMetric

        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.02), 2.0)
        space = uniformize(d, QuasihyperbolicMetric(d), (0.0, 0.0), 0.2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            space.boundary_distance()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the arc weights, the matrix's data and indices and a byte an arc to place them
        assert peak < 3 * 8 * len(d.graph._indices)


class TestUniformizedQhView:
    def test_three_trapezoid_passes_and_the_rows_of_two_reads(self, disk_pack):
        from qhgeo.deformations import _qh_view
        from qhgeo.metric_core import LengthGraph

        d, k, w = disk_pack
        space = uniformize(d, k, w, 0.3)
        # the boundary distance and the view as built from one read of the arc weights each
        sink = d.graph.sink_matrix(space.arc_weights, space.density / space.eps)
        dg = views.GraphView(sink).rows([space.n])[0, :space.n]
        expected = _qh_view(d.graph, space.arc_weights, dg)
        trapezoid = LengthGraph.trapezoid
        with mock.patch.object(LengthGraph, "trapezoid", autospec=True,
                               side_effect=trapezoid) as passes:
            view = space.qh_view()
        # the arc weights (k's and then the density's) once, and the view's own 1/d pass
        assert passes.call_count == 3
        assert space.boundary_distance().tobytes() == dg.tobytes()
        sources = [w, 0, d.n // 2, d.n - 1]
        assert view.rows(sources).tobytes() == expected.rows(sources).tobytes()


class TestKindGuards:
    """Library calls on the wrong kind of deformation raise naming both kinds; they raised
    AttributeError (no ``eps`` on a sphericalization, no ``quasimetric`` on a uniformization)."""

    @pytest.fixture(scope="class")
    def spaces(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        from qhgeo import QuasihyperbolicMetric

        return uniformize(d, QuasihyperbolicMetric(d), 0, 0.2), sphericalize(d, (1.0, 0.0))

    def test_basepoint_change_needs_uniformized_spaces(self, spaces):
        u, s = spaces
        message = "basepoint_change_distortion needs a uniformize deformation, not a sphericalize"
        for pair in ((s, s), (u, s), (s, u)):
            with pytest.raises(ConfigurationError, match=message):
                basepoint_change_distortion(*pair, n_quadruples=10, rng=1)

    def test_envelope_needs_a_sphericalized_space(self, spaces):
        u, _ = spaces
        with pytest.raises(ConfigurationError, match="sphericalization_envelope needs a "
                           "sphericalize deformation, not a uniformize"):
            sphericalization_envelope(u, ([0, 1], [2, 3]))

    def test_comparability_needs_a_uniformized_space(self, spaces):
        _, s = spaces
        with pytest.raises(ConfigurationError, match="verify_deformation_comparability needs a "
                           "uniformize deformation, not a sphericalize"):
            verify_deformation_comparability(s, ([0, 1], [2, 3]))


def reference_basepoint_change(space0, space1, n_quadruples, rng, pool_size=48):
    """The former basepoint_change_distortion, with its own cross ratios and skip rule: a
    quadruple is skipped when d(x,y) d(z,w) <= 1e-9 times the largest sampled distance."""
    pool = pool_indices(space0.n, pool_size, rng)
    quadruples = pool[tuple_sample_from_pool(len(pool), n_quadruples, 4, rng)]
    uniq = np.unique(quadruples)
    local = np.searchsorted(uniq, quadruples)
    d0 = space0.metric_view().submatrix(uniq)
    d1 = space1.metric_view().submatrix(uniq)
    delta_min = 1e-9 * max(d0.max(initial=0.0), d1.max(initial=0.0))
    x, y, z, w = local.T
    ok = (d0[x, y] * d0[z, w] > delta_min) & (d1[x, y] * d1[z, w] > delta_min)
    x, y, z, w = local[ok].T
    cr0 = d0[x, z] * d0[y, w] / (d0[x, y] * d0[z, w])
    cr1 = d1[x, z] * d1[y, w] / (d1[x, y] * d1[z, w])
    return float((cr1 / cr0).max(initial=0.0)), int(ok.sum()), int((~ok).sum())


def euclidean_space(points, domain):
    """A duck-typed uniformized deformation of ``domain`` whose metric is Euclidean on
    ``points``; it has ``metric_view`` too, so that the former submatrix rule runs on it."""
    view = views.EuclideanView(points)
    return SimpleNamespace(kind="uniformize", domain=domain, eps=0.2, n=len(points),
                           pairs=view.pairs, metric_view=lambda: view)


class TestBasepointChange:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("swap", [False, True])
    def test_matches_the_former_cross_ratios_on_uniformized_disks(self, disk_pack, seed, swap):
        d, k, w = disk_pack
        spaces = [uniformize(d, k, w, 0.2), uniformize(d, k, (0.5, 0.0), 0.2)]
        if swap:
            spaces.reverse()
        got = basepoint_change_distortion(*spaces, n_quadruples=400,
                                          rng=np.random.default_rng(seed))
        expected = reference_basepoint_change(*spaces, 400, np.random.default_rng(seed))
        assert (got.slope, got.n_quadruples, got.n_skipped) == expected
        assert got.n_quadruples == 400

    def test_skip_rule_does_not_depend_on_the_unit_of_length(self):
        # the former rule compared an area with a length and skipped every quadruple at 1e-10
        points = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 2))
        image = np.column_stack([points[:, 0] + 0.3 * points[:, 1] ** 2, points[:, 1]])
        domain = object()
        reports = [basepoint_change_distortion(euclidean_space(unit * points, domain),
                                               euclidean_space(unit * image, domain),
                                               n_quadruples=300, rng=np.random.default_rng(2))
                   for unit in (1.0, 1e-10)]
        assert [(r.n_quadruples, r.n_skipped) for r in reports] == [(300, 0)] * 2
        assert reports[0].slope > 1.0
        assert reports[1].slope == pytest.approx(reports[0].slope, rel=1e-12)

    def test_identical_bases_give_slope_one(self, disk_pack, rng):
        d, k, w = disk_pack
        u = uniformize(d, k, w, 0.2)
        report = basepoint_change_distortion(u, u, n_quadruples=200, rng=rng)
        assert report.slope == 1.0

    def test_swap_duality(self, disk_pack):
        d, k, w = disk_pack
        u0 = uniformize(d, k, w, 0.2)
        u1 = uniformize(d, k, (0.5, 0.0), 0.2)
        fwd = basepoint_change_distortion(u0, u1, n_quadruples=400, rng=np.random.default_rng(1))
        bwd = basepoint_change_distortion(u1, u0, n_quadruples=400, rng=np.random.default_rng(1))
        assert fwd.slope > 0 and np.isfinite(fwd.slope)
        assert bwd.slope >= 1.0 / fwd.slope - 1e-12

    def test_mismatched_epsilon_rejected(self, disk_pack):
        d, k, w = disk_pack
        u0 = uniformize(d, k, w, 0.2)
        u1 = uniformize(d, k, w, 0.3)
        with pytest.raises(ConfigurationError, match="epsilon"):
            basepoint_change_distortion(u0, u1, n_quadruples=10)
