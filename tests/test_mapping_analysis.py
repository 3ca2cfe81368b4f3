import numpy as np
import pytest
from scipy.spatial import cKDTree

from qhgeo import (
    ConfigurationError,
    DeformedSide,
    DomainSide,
    QuasihyperbolicMetric,
    ShapeSpec,
    build_grid_domain,
    check_global_qs_hypotheses,
    estimate_boundary_lipschitz,
    estimate_local_bilipschitz,
    estimate_local_quasisymmetry,
    estimate_qh_bilipschitz,
    estimate_quasi_isometry,
    estimate_quasimobius,
    estimate_relative,
    estimate_semisolid,
    sphericalize,
)
from qhgeo.mapping_analysis import (
    MappingPair,
    build_mapping,
    sample_balls,
    sample_qh_pairs,
    sample_quadruples,
)
from qhgeo.sampling import pair_sample
from qhgeo.verifier.builtin_maps import builtin_mapping
from qhgeo.views import DenseChainView


def make_side(kind, params, h, band=2.0):
    d = build_grid_domain(ShapeSpec(kind, params, h), band)
    return DomainSide(d, QuasihyperbolicMetric(d))


@pytest.fixture(scope="module")
def disk_side():
    return make_side("disk", {"radius": 1.0}, 0.04)


@pytest.fixture(scope="module")
def disk_side_scaled():
    return make_side("disk", {"radius": 2.0}, 0.08)


@pytest.fixture(scope="module")
def identity_map(disk_side):
    return builtin_mapping("identity", {}, disk_side, disk_side)


@pytest.fixture(scope="module")
def automorphism(disk_side):
    return builtin_mapping("disk_automorphism", {"a": [0.5, 0.0]}, disk_side, disk_side)


class TestIdentityNeutrality:
    def test_all_estimators_exactly_neutral(self, identity_map, rng):
        m = identity_map
        balls = sample_balls(m.source, 0.2, 150, 6, rng)
        assert estimate_boundary_lipschitz(m, 0.2, balls=balls).value == 1.0
        assert estimate_relative(m, 0.2, balls=balls).value == 1.0
        lb = estimate_local_bilipschitz(m, 0.2, balls=balls)
        assert lb.l1 == 1.0 and np.all(lb.c_x == 1.0)
        assert estimate_local_quasisymmetry(m, 0.2, balls=balls).value == 1.0
        pairs = pair_sample(m.source.n, 400, rng)
        assert estimate_semisolid(m, pairs).value == 1.0
        assert estimate_qh_bilipschitz(m, pairs).value == 1.0
        qi = estimate_quasi_isometry(m, pairs)
        assert (qi.multiplicative_l, qi.additive_c) == (1.0, 0.0)
        assert estimate_quasimobius(m, n_quadruples=300, rng=rng).slope == 1.0


class TestSimilarityInvariance:
    def test_scaling_map_has_unit_constants_and_scaled_table(self, disk_side, disk_side_scaled, rng):
        m = builtin_mapping("similarity", {"scale": 2.0}, disk_side, disk_side_scaled)
        balls = sample_balls(m.source, 0.2, 150, 6, rng)
        assert estimate_boundary_lipschitz(m, 0.2, balls=balls).value == 1.0
        assert estimate_relative(m, 0.2, balls=balls).value == 1.0
        lb = estimate_local_bilipschitz(m, 0.2, balls=balls)
        assert lb.l1 == 1.0 and np.all(lb.c_x == 2.0)
        assert estimate_local_quasisymmetry(m, 0.2, balls=balls).value == 1.0

    def test_post_composition_with_similarity_is_invisible(self, disk_side, disk_side_scaled, rng):
        auto = builtin_mapping("disk_automorphism", {"a": [0.5, 0.0]}, disk_side, disk_side)

        fwd = auto.forward_fn
        inv = auto.inverse_fn
        composed = build_mapping(
            disk_side,
            disk_side_scaled,
            lambda pts: 2.0 * fwd(pts),
            lambda pts: inv(np.asarray(pts, float) / 2.0),
        )
        balls = sample_balls(disk_side, 0.2, 150, 6, np.random.default_rng(7))
        balls2 = sample_balls(disk_side, 0.2, 150, 6, np.random.default_rng(7))
        l0 = estimate_boundary_lipschitz(auto, 0.2, balls=balls).value
        l1 = estimate_boundary_lipschitz(composed, 0.2, balls=balls2).value
        assert l0 == l1
        q0 = estimate_local_quasisymmetry(auto, 0.2, balls=balls).value
        q1 = estimate_local_quasisymmetry(composed, 0.2, balls=balls2).value
        assert q0 == q1
        cx0 = estimate_local_bilipschitz(auto, 0.2, balls=balls).c_x
        cx1 = estimate_local_bilipschitz(composed, 0.2, balls=balls2).c_x
        assert np.array_equal(2.0 * cx0, cx1)


class TestInverseDuality:
    def test_inverse_run_equals_swapped_run(self, automorphism):
        m = automorphism
        swapped = MappingPair(
            m.target, m.source, m.inverse_idx, m.forward_idx, m.inverse_fn, m.forward_fn
        )
        a = estimate_boundary_lipschitz(m.inverse(), 0.2, n_balls=100, pts_per_ball=6,
                                        rng=np.random.default_rng(3)).value
        b = estimate_boundary_lipschitz(swapped, 0.2, n_balls=100, pts_per_ball=6,
                                        rng=np.random.default_rng(3)).value
        assert a == b


class TestAutomorphismDistortion:
    def test_relative_below_lipschitz_on_shared_sample(self, automorphism, rng):
        m = automorphism
        balls = sample_balls(m.source, 0.2, 300, 8, rng)
        l_val = estimate_boundary_lipschitz(m, 0.2, balls=balls).value
        c1 = estimate_relative(m, 0.2, balls=balls).value
        assert 1.0 < c1 <= l_val

    def test_semisolid_and_bilipschitz_bounded_by_density_comparison(self, automorphism):
        # hyperbolic isometry: quasihyperbolic metrics are 2-comparable
        m = automorphism
        pairs = sample_qh_pairs(m, 2500, np.random.default_rng(5),
                                clearance_h=4.0, image_clearance_h=12.0, min_qh=2.0)
        assert estimate_semisolid(m, pairs).value <= 2.0 * 1.05
        assert estimate_qh_bilipschitz(m, pairs).value <= 2.0 * 1.05

    def test_local_chain_couplings(self, automorphism, rng):
        m = automorphism
        c1 = estimate_relative(m, 0.2, n_balls=200, pts_per_ball=6, rng=rng,
                               bilateral=True).value
        theta1 = 0.2 / (8.0 * c1)
        balls = sample_balls(m.source, theta1, 200, 6, rng)
        lb = estimate_local_bilipschitz(m, theta1, balls=balls)
        qs = estimate_local_quasisymmetry(m, theta1, balls=balls)
        assert lb.l1 <= 4.0 * c1 * 1.05
        assert qs.value <= lb.l1**2 * (1.0 + 1e-12)

    def test_quasi_isometry_fits(self, automorphism):
        m = automorphism
        pairs = sample_qh_pairs(m, 2000, np.random.default_rng(9), min_qh=2.0)
        qi = estimate_quasi_isometry(m, pairs)
        assert qi.multiplicative_l <= 2.0 * 1.05
        assert qi.additive_c < 3.0

    def test_step_bound_sweep_zero_violations(self, automorphism):
        m = automorphism
        rng = np.random.default_rng(11)
        i, j = sample_qh_pairs(m, 2000, rng, min_qh=0.0)
        edges = m.source.domain.graph.edges
        pick = rng.integers(0, len(edges), size=500)
        pairs = (np.concatenate([i, edges[pick, 0]]), np.concatenate([j, edges[pick, 1]]))
        qi = estimate_quasi_isometry(
            m, pairs, step_inputs={"uniformity_a": 2.0, "q": 0.5, "eta_slope": 1.5}
        )
        assert qi.step_violations == ()
        assert qi.step_bound == pytest.approx(4.0 * 4.0 * np.log(2.0))

    def test_mobius_cross_ratio_exactness(self, automorphism, rng):
        slope = estimate_quasimobius(automorphism, n_quadruples=800, rng=rng).slope
        assert abs(slope - 1.0) <= 1e-9


class TestEstimatorMechanics:
    def test_monotone_in_sample(self, automorphism, rng):
        m = automorphism
        i, j = pair_sample(m.source.n, 600, rng)
        small = estimate_semisolid(m, (i[:300], j[:300])).value
        full = estimate_semisolid(m, (i, j)).value
        assert full >= small

    @pytest.mark.parametrize("estimator, bilateral", [
        (estimate_boundary_lipschitz, False), (estimate_boundary_lipschitz, True),
        (estimate_relative, False), (estimate_relative, True),
        (estimate_local_bilipschitz, None),
        (estimate_local_quasisymmetry, False), (estimate_local_quasisymmetry, True),
    ])
    def test_ball_estimators_refuse_a_non_analytic_mapping(self, estimator, bilateral):
        side = make_side("disk", {"radius": 1.0}, 0.1)
        m = build_mapping(side, side, None, None)
        assert not m.analytic
        kw = {} if bilateral is None else {"bilateral": bilateral}
        with pytest.raises(ConfigurationError, match="analytic"):
            estimator(m, 0.5, n_balls=60, pts_per_ball=6, rng=0, **kw)

    def test_ball_sample_refuses_a_deformed_side(self):
        from qhgeo import uniformize

        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        side = DeformedSide(uniformize(d, QuasihyperbolicMetric(d), 0, 0.3))
        with pytest.raises(ConfigurationError, match=r"analytic \(shape-backed\) side"):
            sample_balls(side, 0.5, 60, 6, 0)

    def test_degenerate_quadruples_skipped(self, automorphism):
        m = automorphism
        quad = np.array([[1, 1, 2, 3], [4, 5, 6, 7]])
        report = estimate_quasimobius(m, quadruples=quad)
        assert report.n_skipped == 1 and report.n_quadruples == 1


def reference_quasimobius(m, quadruples):
    """The four-call form of ``estimate_quasimobius``: one query per distance pair."""
    x, y, z, w = (quadruples[:, c] for c in range(4))
    d_xy, d_zw = m.source.ambient.pairs(x, y), m.source.ambient.pairs(z, w)
    d_xz, d_yw = m.source.ambient.pairs(x, z), m.source.ambient.pairs(y, w)
    i_xy, i_zw = m.image_distance(x, y), m.image_distance(z, w)
    i_xz, i_yw = m.image_distance(x, z), m.image_distance(y, w)
    scale_src = max(d_xy.max(initial=0.0), d_xz.max(initial=0.0))
    scale_img = max(i_xy.max(initial=0.0), i_xz.max(initial=0.0))
    ok = (d_xy * d_zw > 1e-9 * scale_src**2) & (i_xy * i_zw > 1e-9 * scale_img**2)
    cr = d_xz[ok] * d_yw[ok] / (d_xy[ok] * d_zw[ok])
    cr_img = i_xz[ok] * i_yw[ok] / (i_xy[ok] * i_zw[ok])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cr > 0, cr_img / np.where(cr > 0, cr, 1.0), np.inf)
    return float(ratio.max(initial=0.0)), cr, cr_img, int(ok.sum()), int((~ok).sum())


class TestQuasimobiusOneQuery:
    def test_chain_rows_once_per_source_and_values_unchanged(self, grid_mappings, monkeypatch):
        m = grid_mappings["sphericalized_identity"]
        quad = sample_quadruples(m, 300, 6, pool_size=16)
        chain = m.target.ambient
        assert isinstance(chain, DenseChainView)
        computed = []
        single_source = chain._single_source

        def counted(source):
            computed.append(source)
            return single_source(source)

        monkeypatch.setattr(chain, "_single_source", counted)
        got = estimate_quasimobius(m, quadruples=quad)
        sources = m.forward_idx[np.concatenate([quad[:, 0], quad[:, 2], quad[:, 1]])]
        assert sorted(computed) == sorted(set(sources.tolist()))
        slope, cr, cr_img, n_quadruples, n_skipped = reference_quasimobius(m, quad)
        assert got.slope == slope and np.array_equal(got.source_cross_ratios, cr)
        assert np.array_equal(got.image_cross_ratios, cr_img)
        assert (got.n_quadruples, got.n_skipped) == (n_quadruples, n_skipped)
        assert n_quadruples > 0


@pytest.fixture(scope="module")
def grid_mappings():
    d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
    k = QuasihyperbolicMetric(d)
    space = sphericalize(d, d.boundary_coords[0], max_points=150, rng=0)
    identity = build_mapping(DomainSide(d, k, subset=space.active), DeformedSide(space), None, None)
    return {"sphericalized_identity": identity}


class TestOneTreePerPointSet:
    """Every k-d tree over a point set is built once and shared by its readers."""

    @staticmethod
    def counted_trees(monkeypatch):
        from qhgeo import mapping_analysis, metric_core

        built = []
        for module in (metric_core, mapping_analysis):
            def make(points, _make=module.kd_tree):
                built.append(len(points))
                return _make(points)
            monkeypatch.setattr(module, "kd_tree", make)
        return built

    def test_whole_sides_share_the_domain_vertex_tree(self, monkeypatch):
        from qhgeo import uniformize
        from qhgeo.views import rows_per_block

        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        k = QuasihyperbolicMetric(d)
        built = self.counted_trees(monkeypatch)
        side, deformed = DomainSide(d, k), DeformedSide(uniformize(d, k, 0, 0.3))
        # more points than the brute-force snap settles: they go to the vertex tree
        pts = np.resize(d.coords, (rows_per_block(d.n) + 1, 2)) + 0.01
        expected = cKDTree(d.coords).query(pts)[1].tolist()
        assert side.nearest_vertex(pts).tolist() == expected
        assert deformed.nearest_vertex(pts).tolist() == expected
        assert built == [d.n]  # the domain's tree (the reference above is not counted)

    def test_subset_side_builds_its_own_tree_once(self, monkeypatch):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        subset = np.arange(0, d.n, 3)
        built = self.counted_trees(monkeypatch)
        side = DomainSide(d, QuasihyperbolicMetric(d), subset=subset)
        assert side.nearest_vertex(d.coords[subset[4]]).tolist() == [4]
        assert side.nearest_vertex(d.coords[subset[7]]).tolist() == [7]
        assert built == [len(subset)] and side._tree is not d._kdtree

    @pytest.mark.parametrize("imported", [False, True])
    def test_boundary_tree_is_the_one_the_build_queried(self, monkeypatch, imported):
        from qhgeo import domain_from_length_graph

        built = self.counted_trees(monkeypatch)
        square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        d = build_grid_domain(ShapeSpec("custom-polygon", {"vertices": square}, 0.2), 2.0)
        if imported:
            d = domain_from_length_graph(d.coords, d.graph.edges, d.boundary_coords)
        got = d.boundary_distance_at([(0.1, 0.2), (0.9, -0.3)])
        assert built == [len(d.boundary_coords)] * (1 + imported)  # one a build, none since
        assert got.tolist() == cKDTree(d.boundary_coords).query([(0.1, 0.2), (0.9, -0.3)])[0].tolist()


class TestGlobalQSHypotheses:
    def test_disk_value(self, identity_map):
        report = check_global_qs_hypotheses(identity_map)
        assert report.c0 == pytest.approx(2.0, abs=0.25)
        assert report.w == pytest.approx((0.0, 0.0), abs=0.05)

    def test_square_value(self):
        side = make_side("square", {"side": 1.0}, 0.02)
        m = builtin_mapping("identity", {}, side, side)
        report = check_global_qs_hypotheses(m)
        assert report.c0 == pytest.approx(2.0 * np.sqrt(2.0), abs=0.3)

    def test_lshape_bounded_by_uniformity(self, rng):
        side = make_side("L-shape", {}, 0.05)
        m = builtin_mapping("identity", {}, side, side)
        report = check_global_qs_hypotheses(m)
        from qhgeo import estimate_uniformity

        pairs = pair_sample(side.n, 200, rng, n_sources=16)
        a = estimate_uniformity(side.domain, QuasihyperbolicMetric(side.domain), pairs).constant_a
        assert report.c0 <= 4.0 * a * 1.05

    def test_truncated_shapes_refused(self):
        side = make_side("half-plane-truncation", {"radius": 2.0}, 0.1)
        m = builtin_mapping("identity", {}, side, side)
        with pytest.raises(ConfigurationError, match="sphericalize"):
            check_global_qs_hypotheses(m)
