import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgeo import (
    ShapeSpec,
    build_grid_domain,
    build_quasihyperbolic,
    domain_from_length_graph,
    estimate_delta,
    estimate_rough_starlikeness,
)
from qhgeo.hyperbolicity import basepoint_identity_residuals, gromov_products
from qhgeo.views import EuclideanView


ONE_TUPLE = np.array([[0, 1, 2, 3, 4, 5]])


def euclid_view(points):
    return EuclideanView(np.asarray(points, float))


class TestGromovProduct:
    def test_equal_points_give_distance_to_base(self):
        v = euclid_view([[0, 0], [0, 0], [3, 4]])
        assert gromov_products(v.submatrix([0, 1, 2]), 0, 1, 2) == pytest.approx(5.0, abs=1e-12)

    def test_base_on_geodesic_gives_zero(self):
        v = euclid_view([[0, 0], [10, 0], [5, 0]])
        assert gromov_products(v.submatrix([0, 1, 2]), 0, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_value(self):
        # d(x,y) = 3, d(x,w) = d(y,w) = 2 -> (x|y)_w = 1/2
        h = np.sqrt(4.0 - 2.25)
        v = euclid_view([[0, 0], [3, 0], [1.5, h]])
        assert gromov_products(v.submatrix([0, 1, 2]), 0, 1, 2) == pytest.approx(0.5, abs=1e-12)

    def test_bounded_by_distances_to_base(self, disk_coarse, rng):
        _, k = disk_coarse
        idx = rng.integers(0, k.n, size=(60, 3))
        for x, y, w in idx:
            gp = gromov_products(k.view().submatrix([x, y, w]), 0, 1, 2)
            bound = min(k.distance(int(x), int(w)), k.distance(int(y), int(w)))
            assert -1e-12 <= gp <= bound + 1e-12


class TestBasepointIdentity:
    def test_same_base_gives_exact_zero(self):
        v = euclid_view([[0, 0], [1, 0], [0, 1], [2, 2], [1, 1], [1, 1]])
        assert basepoint_identity_residuals(v.submatrix(np.arange(6)), ONE_TUPLE)[0] == 0.0

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_residual_vanishes_for_random_planar_tuples(self, pts):
        v = euclid_view(pts)
        residual = basepoint_identity_residuals(v.submatrix(np.arange(6)), ONE_TUPLE)[0]
        assert residual <= 1e-12 * max(1.0, 200.0)

    def test_repeated_points_still_cancel(self):
        v = euclid_view([[0, 0], [0, 0], [1, 0], [1, 0], [2, 0], [5, 5]])
        assert basepoint_identity_residuals(v.submatrix(np.arange(6)), ONE_TUPLE)[0] <= 1e-12

    def test_vectorized_form_on_graph_metric(self, disk_coarse, rng):
        _, k = disk_coarse
        pool = np.arange(0, k.n, max(1, k.n // 40))
        dist = k.view().submatrix(pool)
        tuples = rng.integers(0, len(pool), size=(3000, 6))
        res = basepoint_identity_residuals(dist, tuples)
        assert res.max() <= 1e-12 * max(1.0, dist.max())


class TestDeltaEstimation:
    def test_star_tree_is_zero_hyperbolic(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        star = domain_from_length_graph(
            coords, [[0, 1], [0, 2], [0, 3]], [[5.0, 5.0]], lengths=[1.0, 1.0, 1.0]
        )
        report = estimate_delta(star.graph_view(), exhaustive=True)
        assert report.delta == pytest.approx(0.0, abs=1e-12)
        assert report.exhaustive

    def test_square_corners_exhaustive_value(self):
        # pair sums over the 4 corners: (2*sqrt2, 2, 2) -> defect (2sqrt2-2)/2
        v = euclid_view([[0, 0], [1, 0], [1, 1], [0, 1]])
        report = estimate_delta(v, exhaustive=True)
        assert report.delta == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)

    def test_monotone_in_sample(self, disk_coarse, rng):
        _, k = disk_coarse
        small = estimate_delta(k.view(), n_quadruples=300, rng=np.random.default_rng(0))
        large = estimate_delta(k.view(), n_quadruples=3000, rng=np.random.default_rng(0))
        # same stream: the first draws coincide, extra draws only add candidates
        assert large.delta >= small.delta - 1e-12

    def test_empty_sample_warns_and_returns_zero(self, disk_coarse):
        _, k = disk_coarse
        with pytest.warns(UserWarning, match="empty"):
            report = estimate_delta(k.view(), n_quadruples=0)
        assert report.delta == 0.0

    def test_exhaustive_rejected_for_large_spaces(self, disk_coarse):
        _, k = disk_coarse
        with pytest.raises(Exception, match="n <= 60"):
            estimate_delta(k.view(), exhaustive=True)

    def test_refinement_stability_on_disk(self):
        # same continuum sample snapped to both grids, so the drift
        # isolates discretization error instead of resampling noise
        rng = np.random.default_rng(3)
        pts = []
        while len(pts) < 48:
            p = rng.uniform(-0.85, 0.85, size=2)
            if np.hypot(*p) <= 0.85:
                pts.append(p)
        pts = np.asarray(pts)
        values = []
        for h in (0.05, 0.025):
            d, k = build_quasihyperbolic(build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, h)))
            pool = np.unique(d.nearest_vertex(pts))
            values.append(
                estimate_delta(k.view(), n_quadruples=4000, rng=np.random.default_rng(7),
                               pool=pool).delta
            )
        assert abs(values[1] - values[0]) / values[0] < 0.10


class TestRoughStarlikeness:
    def test_disk_center_base_is_well_covered(self, disk_mid):
        d, k = disk_mid
        report = estimate_rough_starlikeness(d, k)
        assert report.base_point == pytest.approx((0.0, 0.0), abs=d.resolution)
        assert 0.0 < report.starlikeness_k <= 1.0

    def test_offcenter_base_is_worse(self, disk_coarse):
        d, k = disk_coarse
        center = estimate_rough_starlikeness(d, k).starlikeness_k
        edge = int(d.nearest_vertex([(0.85, 0.0)])[0])
        offcenter = estimate_rough_starlikeness(d, k, w=edge).starlikeness_k
        assert offcenter > center

    def test_single_vertex_domain(self):
        d = build_grid_domain(ShapeSpec("square", {"side": 1.0}, 0.5))
        from qhgeo import QuasihyperbolicMetric

        report = estimate_rough_starlikeness(d, QuasihyperbolicMetric(d))
        assert report.starlikeness_k == 0.0
