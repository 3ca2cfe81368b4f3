from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgeo import (
    QuasihyperbolicMetric,
    ShapeSpec,
    build_grid_domain,
    domain_from_length_graph,
    estimate_delta,
    estimate_rough_starlikeness,
)
from qhgeo import views
from qhgeo.hyperbolicity import basepoint_identity_residuals, gromov_products
from qhgeo.sampling import tuple_sample_from_pool
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


def whole_array_residuals(dist, tuples):
    """The residuals over every tuple at once."""
    x, y, z, u, o, w = (tuples[:, c] for c in range(6))

    def combo(base):
        gp = lambda a, b: 0.5 * (dist[a, base] + dist[b, base] - dist[a, b])
        return gp(x, y) + gp(z, u) - gp(x, z) - gp(y, u)

    return np.abs(combo(o) - combo(w))


def sorted_rule_sample(pool_size, n_tuples, arity, rng):
    """The tuple sampler with rows tested for repeats on a sorted copy."""
    out = np.empty((n_tuples, arity), dtype=np.intp)
    for col in range(arity):
        out[:, col] = rng.integers(0, pool_size, size=n_tuples)
    mask = (np.diff(np.sort(out, axis=1), axis=1) == 0).any(axis=1)
    while np.any(mask):
        k = int(mask.sum())
        redraw = np.empty((k, arity), dtype=np.intp)
        for col in range(arity):
            redraw[:, col] = rng.integers(0, pool_size, size=k)
        out[mask] = redraw
        mask = (np.diff(np.sort(out, axis=1), axis=1) == 0).any(axis=1)
    return out


class TestBlockedGromovSampling:
    @pytest.mark.parametrize("budget", [1, 48 * 7, None], ids=["one-tuple", "seven", "default"])
    def test_blocked_residuals_equal_whole_array(self, disk_coarse, budget):
        _, k = disk_coarse
        rng = np.random.default_rng(5)
        pool = np.sort(rng.choice(k.n, 40, replace=False))
        dist = k.view().submatrix(pool)
        tuples = tuple_sample_from_pool(len(pool), 10_000, 6, rng)
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", budget or views._ROW_BLOCK_BYTES):
            got = basepoint_identity_residuals(dist, tuples)
        assert got.tobytes() == whole_array_residuals(dist, tuples).tobytes()

    @pytest.mark.parametrize("arity", [3, 4, 6])
    @pytest.mark.parametrize("seed", [0, 7, 987106])
    def test_tuples_equal_the_sorted_rule(self, arity, seed):
        for pool_size in (arity + 1, 64):  # many redraw rounds, and few
            got = tuple_sample_from_pool(pool_size, 3000, arity, np.random.default_rng(seed))
            ref = sorted_rule_sample(pool_size, 3000, arity, np.random.default_rng(seed))
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


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
            d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, h), 2.0)
            k = QuasihyperbolicMetric(d)
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
        report = estimate_rough_starlikeness(d, QuasihyperbolicMetric(d))
        assert report.starlikeness_k == 0.0
