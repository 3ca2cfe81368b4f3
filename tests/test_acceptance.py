"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Tolerances are pinned here and never loosened at runtime; shared domains
are session fixtures so the suite stays within a few minutes.
"""

import json
import math

import numpy as np
import pytest

from qhgeo import (
    DomainSide,
    QuasihyperbolicMetric,
    ShapeSpec,
    build_grid_domain,
    check_ball_containment,
    estimate_boundary_lipschitz,
    estimate_local_bilipschitz,
    estimate_local_quasisymmetry,
    estimate_qh_bilipschitz,
    estimate_quasi_isometry,
    estimate_quasimobius,
    estimate_relative,
    estimate_semisolid,
    estimate_uniformity,
    predicted_constants,
    safe_ball_radius,
    sphericalization_envelope,
    sphericalize,
    uniformize,
    verify_deformation_comparability,
    verify_qh_distance_bounds,
)
from qhgeo.deformations import sphericalization_qh_distortion, sphericalization_quasimobius
from qhgeo.hyperbolicity import basepoint_identity_residuals
from qhgeo.mapping_analysis import (
    bilateral,
    build_mapping,
    sample_balls,
    sample_qh_pairs,
    sample_quadruples,
)
from qhgeo.sampling import (
    check_metric_axioms,
    pair_sample,
    pool_indices,
    pool_quadruples,
    tuple_sample_from_pool,
)
from qhgeo.verifier.builtin_maps import builtin_mapping
from qhgeo.verifier.scenario import report_to_json_bytes, run_scenario

SLACK = 1.05
SEED = 987


def verdict(capsys, criterion, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def build(kind, params, h, band=2.0):
    domain = build_grid_domain(ShapeSpec(kind, params, h), band)
    return domain, QuasihyperbolicMetric(domain)


@pytest.fixture(scope="module")
def shapes_02():
    return {
        "disk": build("disk", {"radius": 1.0}, 0.02),
        "square": build("square", {"side": 1.0}, 0.02),
        "L-shape": build("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, 0.02),
    }


@pytest.fixture(scope="module")
def disk_side_02(shapes_02):
    d, k = shapes_02["disk"]
    return DomainSide(d, k)


@pytest.fixture(scope="module")
def automorphism_02(disk_side_02):
    return builtin_mapping("disk_automorphism", {"a": [0.5, 0.0]}, disk_side_02, disk_side_02)


@pytest.fixture(scope="module")
def uniformized_disk(shapes_02):
    d, k = shapes_02["disk"]
    w = int(d.nearest_vertex([(0.0, 0.0)])[0])
    return {eps: uniformize(d, k, w, eps) for eps in (0.1, 0.2, 0.5)}


@pytest.fixture(scope="module")
def sphericalized_punctured():
    d, k = build("punctured-plane-truncation", {"radius": 6.0}, 0.12)
    space = sphericalize(d, (0.0, 0.0), max_points=3000, rng=np.random.default_rng(SEED))
    return d, k, space


def test_criterion_01_metric_axioms(shapes_02, uniformized_disk, sphericalized_punctured, capsys):
    rng = np.random.default_rng(SEED)
    views = []
    for name, (d, k) in shapes_02.items():
        views.append((f"ambient:{name}", d.ambient_view()))
        views.append((f"graph:{name}", d.graph_view()))
        views.append((f"qh:{name}", k.view()))
    views.append(("uniformized-disk", uniformized_disk[0.2].metric_view()))
    _, _, sphere = sphericalized_punctured
    views.append(("sphericalized-punctured", sphere.metric_view()))
    worst = {}
    ok = True
    for name, view in views:
        pool = 64 if name.startswith("sphericalized") else 96
        rep = check_metric_axioms(view, 10_000, rng, pool_size=pool, tol=1e-12)
        worst[name] = max(rep.max_symmetry_defect, rep.max_triangle_defect, rep.max_identity_defect)
        ok &= rep.passed
    verdict(capsys, 1, ok, f"metric axioms at 1e-12 scale, worst defects {max(worst.values()):.2e}")


def test_criterion_02_qh_calibration(capsys):
    results = []

    def radial_err(kind, params, h, a, b, oracle_fn):
        d, k = build(kind, params, h)
        i = int(d.nearest_vertex([a])[0])
        j = int(d.nearest_vertex([b])[0])
        oracle = oracle_fn(d.coords[i], d.coords[j])
        return abs(k.distance(i, j) - oracle) / oracle

    disk_oracle = lambda p, q: math.log((1.0 - np.hypot(*p)) / (1.0 - np.hypot(*q)))
    half_oracle = lambda p, q: abs(math.log(q[1] / p[1]))
    punct_oracle = lambda p, q: abs(math.log(np.hypot(*q) / np.hypot(*p)))

    cases = [
        ("disk radial", "disk", {"radius": 1.0}, (0.01, 0.005), (0.0, 0.0), (0.5, 0.0), disk_oracle),
        ("half-plane vertical", "half-plane-truncation", {"radius": 6.0}, (0.06, 0.03),
         (0.0, 1.0), (0.0, math.e), half_oracle),
        ("punctured radial", "punctured-plane-truncation", {"radius": 6.0}, (0.06, 0.03),
         (1.0, 0.0), (math.e, 0.0), punct_oracle),
    ]
    ok = True
    for label, kind, params, (h1, h2), a, b, oracle in cases:
        e1 = radial_err(kind, params, h1, a, b, oracle)
        e2 = radial_err(kind, params, h2, a, b, oracle)
        ok &= e1 <= 0.02 and e2 <= 0.02 and e2 < e1
        results.append(f"{label}: {e1:.2e} -> {e2:.2e}")
    verdict(capsys, 2, ok, "; ".join(results))


def test_criterion_03_distance_bounds_sweep(shapes_02, capsys):
    rng = np.random.default_rng(SEED + 3)
    ok = True
    counts = []
    for name, (d, k) in shapes_02.items():
        pairs = pair_sample(d.n, 10_000, rng)
        report = verify_qh_distance_bounds(k, pairs, slack=SLACK)
        ok &= report.passed
        counts.append(f"{name}: {len(report.violations)} violations / {report.n_pairs} pairs")
    verdict(capsys, 3, ok, "; ".join(counts))


def test_criterion_04_ball_containment(shapes_02, capsys):
    rng = np.random.default_rng(SEED + 4)
    ok = True
    for name, (d, _) in shapes_02.items():
        centers = rng.permutation(d.n)[:100]
        for c in centers:
            if not check_ball_containment(d, int(c), safe_ball_radius(d, int(c))).contained:
                ok = False
    # witness production when the radius rule is weakened below the bound
    d, _ = shapes_02["disk"]
    deep = np.flatnonzero(d.boundary_distance >= 6 * d.resolution)
    witnesses = 0
    for c in rng.permutation(deep)[:20]:
        rep = check_ball_containment(d, int(c), safe_ball_radius(d, int(c)) / 0.5)
        witnesses += rep.witness is not None
    ok &= witnesses == 20
    verdict(capsys, 4, ok, f"100 centers per shape contained; {witnesses}/20 witnesses at slack 0.5")


def test_criterion_05_basepoint_identity(shapes_02, uniformized_disk, sphericalized_punctured, capsys):
    rng = np.random.default_rng(SEED + 5)
    views = []
    for name, (d, k) in shapes_02.items():
        views.append(d.ambient_view())
        views.append(k.view())
    views.append(uniformized_disk[0.2].metric_view())
    views.append(sphericalized_punctured[2].metric_view())
    total = 0
    worst = 0.0
    ok = True
    per_view = 20_000  # 8 views x 20k > 1e5 tuples overall
    for view in views:
        pool = pool_indices(view.n, 48, rng)
        dist = view.submatrix(pool)
        tuples = tuple_sample_from_pool(len(pool), per_view, 6, rng)
        res = basepoint_identity_residuals(dist, tuples)
        scale = max(1.0, float(dist.max()))
        ok &= res.max() <= 1e-12 * scale
        worst = max(worst, res.max() / scale)
        total += len(tuples)
    verdict(capsys, 5, ok and total >= 100_000,
            f"{total} tuples, worst scaled residual {worst:.2e}")


def test_criterion_06_deformed_diameter_bounds(uniformized_disk, capsys):
    details = []
    ok = True
    for eps, space in uniformized_disk.items():
        diam = space.diameter_estimate()
        depth = float(space.boundary_distance()[space.w])
        ok &= diam <= (2.0 / eps) * SLACK
        ok &= depth >= (1.0 / (eps * math.e)) / SLACK
        details.append(f"eps={eps}: diam {diam:.2f} <= {2/eps*SLACK:.2f}, depth {depth:.2f}")
    verdict(capsys, 6, ok, "; ".join(details))


def test_criterion_07_comparability_drift(capsys):
    rng = np.random.default_rng(SEED + 7)
    pts_a, pts_b = [], []
    while len(pts_a) < 1000:
        p, q = rng.uniform(-0.85, 0.85, 2), rng.uniform(-0.85, 0.85, 2)
        if np.hypot(*p) <= 0.85 and np.hypot(*q) <= 0.85 and not np.allclose(p, q):
            pts_a.append(p)
            pts_b.append(q)
    constants = []
    for h in (0.02, 0.01):
        d, k = build("disk", {"radius": 1.0}, h)
        w = int(d.nearest_vertex([(0.0, 0.0)])[0])
        space = uniformize(d, k, w, 0.2)
        pairs = (d.nearest_vertex(pts_a), d.nearest_vertex(pts_b))
        constants.append(verify_deformation_comparability(space, pairs).constant)
    drift = abs(constants[1] - constants[0]) / constants[0]
    verdict(capsys, 7, np.isfinite(constants[0]) and drift < 0.10,
            f"C = {constants[0]:.4f} -> {constants[1]:.4f}, drift {drift:.2%}")


def test_criterion_08_sphericalization_distortion(sphericalized_punctured, capsys):
    d, k, space = sphericalized_punctured
    rng = np.random.default_rng(SEED + 8)
    qm = sphericalization_quasimobius(space, pool_quadruples(space.n, 64, 1000, rng))
    env = sphericalization_envelope(space, pair_sample(space.n, 1000, rng, n_sources=24))
    upairs = pair_sample(d.n, 160, rng, n_sources=20)
    a_meas = estimate_uniformity(d, k, upairs).constant_a
    m_hat = sphericalization_qh_distortion(space, k, pair_sample(space.n, 1000, rng,
                                                                 n_sources=20))
    ok = qm.slope <= 16.0 * SLACK and m_hat.value <= 80.0 * a_meas * SLACK and env.passed
    verdict(capsys, 8, ok,
            f"qm slope {qm.slope:.3f} <= {16*SLACK:.1f}; M {m_hat.value:.2f} <= "
            f"{80*a_meas*SLACK:.0f}; chain/quasi in [{env.min_chain_over_quasi:.3f}, "
            f"{env.max_chain_over_quasi:.3f}]")


def test_criterion_09_linear_distortion_chain(automorphism_02, capsys):
    m = automorphism_02
    rng = np.random.default_rng(SEED + 9)
    lam = 0.2
    c = 1.0
    balls = sample_balls(m.source, lam, 1000, 8, rng)
    l_meas = estimate_boundary_lipschitz(m, balls).value
    c1_meas = estimate_relative(m, balls).value
    pairs = sample_qh_pairs(m, 4000, rng, clearance_h=4, image_clearance_h=12, min_qh=2.0)
    c2_meas = estimate_semisolid(m, pairs).value
    led23 = predicted_constants("relative_to_semisolid",
                                {"c": c, "c1": max(c1_meas, 1.0), "t0": lam})
    led31 = predicted_constants("semisolid_to_lipschitz", {"c": c, "c2": max(c2_meas, 1.0)})
    l3_meas = estimate_boundary_lipschitz(m, sample_balls(m.source, led31["lam"], 1000, 8,
                                                          rng)).value
    checks = [
        c1_meas <= l_meas * SLACK,
        c2_meas <= led23["semisolid_slope"] * SLACK,
        l3_meas <= led31["l"] * SLACK,
    ]
    verdict(capsys, 9, all(checks),
            f"c1 {c1_meas:.3f} <= {l_meas*SLACK:.3f}; c2 {c2_meas:.3f} <= "
            f"{led23['semisolid_slope']*SLACK:.1f}; L(lam={led31['lam']:.4f}) "
            f"{l3_meas:.3f} <= {led31['l']*SLACK:.1f}")


def test_criterion_10_local_distortion_chain(automorphism_02, capsys):
    m = automorphism_02
    rng = np.random.default_rng(SEED + 10)
    t0 = 0.2
    c = 1.0
    c1_bi = max(bilateral(estimate_relative, m, t0, 1000, 8, rng), 1.0)
    led34 = predicted_constants("relative_to_local_bilipschitz", {"c1": c1_bi, "t0": t0})
    theta1 = led34["theta1"]
    balls = sample_balls(m.source, theta1, 1000, 8, rng)
    lb = estimate_local_bilipschitz(m, balls)
    qs = estimate_local_quasisymmetry(m, balls)
    qs_bi = max(qs.value,
                estimate_local_quasisymmetry(m.inverse(), sample_balls(m.target, theta1, 1000,
                                                                       8, rng)).value, 1.0)
    led36 = predicted_constants("local_qs_to_lipschitz", {"c": c, "c2": qs_bi, "q": theta1})
    l6 = bilateral(estimate_boundary_lipschitz, m, led36["lam"], 1000, 8, rng)
    checks = [
        lb.l1 <= led34["l1"] * SLACK,
        qs.value <= lb.l1**2 * SLACK,
        l6 <= led36["l"] * SLACK,
    ]
    verdict(capsys, 10, all(checks),
            f"L1 {lb.l1:.3f} <= {led34['l1']*SLACK:.2f}; qs {qs.value:.3f} <= "
            f"{lb.l1**2*SLACK:.3f}; L(lam={led36['lam']:.5f}) {l6:.3f} <= {led36['l']*SLACK:.1f}")


def test_criterion_11_step_bound(automorphism_02, capsys):
    rng = np.random.default_rng(SEED + 11)
    scenarios = {"disk automorphism": automorphism_02}
    # power-map pair: quarter-disk polygon -> half-disk
    from qhgeo.shapes import regular_sector_polygon

    h = 0.02
    quarter, kq = build("custom-polygon",
                        {"vertices": regular_sector_polygon(1.0, math.pi / 2, h)}, h)
    half, kh = build("half-plane-truncation", {"radius": 1.0}, h)
    scenarios["power map"] = builtin_mapping(
        "power", {"alpha": 2.0}, DomainSide(quarter, kq), DomainSide(half, kh)
    )
    ok = True
    details = []
    for label, m in scenarios.items():
        q = 0.5
        eta = max(
            estimate_local_quasisymmetry(m, sample_balls(m.source, q, 400, 8, rng)).value,
            estimate_local_quasisymmetry(m.inverse(),
                                         sample_balls(m.target, q, 400, 8, rng)).value,
            1.0,
        )
        a_meas = 1.0
        for side_pairs in (m, m.inverse()):
            dom = side_pairs.source.domain
            k = QuasihyperbolicMetric(dom)
            upairs = pair_sample(dom.n, 160, rng, n_sources=16)
            a_meas = max(a_meas, estimate_uniformity(dom, k, upairs).constant_a)
        i, j = sample_qh_pairs(m, 4000, rng, min_qh=0.0)
        edges = m.source.domain.graph.edges
        pick = rng.integers(0, len(edges), size=1000)
        pairs = (np.concatenate([i, edges[pick, 0]]), np.concatenate([j, edges[pick, 1]]))
        qi = estimate_quasi_isometry(
            m, pairs, step_inputs={"uniformity_a": a_meas, "q": q, "eta_slope": eta},
            slack=SLACK,
        )
        ok &= qi.step_violations == ()
        details.append(f"{label}: {qi.step_pairs} gated pairs, bound {qi.step_bound:.2f}, "
                       f"{len(qi.step_violations)} violations")
    verdict(capsys, 11, ok, "; ".join(details))


def test_criterion_12_neutrality_and_invariance(disk_side_02, capsys):
    rng = np.random.default_rng(SEED + 12)
    side = disk_side_02
    ident = builtin_mapping("identity", {}, side, side)
    balls = sample_balls(side, 0.2, 300, 8, rng)
    pairs = pair_sample(side.n, 1000, rng)
    qi = estimate_quasi_isometry(ident, pairs)
    neutral = (
        estimate_boundary_lipschitz(ident, balls).value == 1.0
        and estimate_relative(ident, balls).value == 1.0
        and estimate_local_bilipschitz(ident, balls).l1 == 1.0
        and estimate_local_quasisymmetry(ident, balls).value == 1.0
        and estimate_semisolid(ident, pairs).value == 1.0
        and estimate_qh_bilipschitz(ident, pairs).value == 1.0
        and (qi.multiplicative_l, qi.additive_c) == (1.0, 0.0)
    )

    # similarity composition: identical outputs, C_x table scales exactly
    scaled_domain, scaled_k = build("disk", {"radius": 2.0}, 0.04)
    scaled_side = DomainSide(scaled_domain, scaled_k)
    auto = builtin_mapping("disk_automorphism", {"a": [0.5, 0.0]}, side, side)
    fwd, inv = auto.forward_fn, auto.inverse_fn
    composed = build_mapping(
        side, scaled_side,
        lambda pts: 2.0 * fwd(pts),
        lambda pts: inv(np.asarray(pts, float) / 2.0),
    )
    b1 = sample_balls(side, 0.2, 300, 8, np.random.default_rng(99))
    b2 = sample_balls(side, 0.2, 300, 8, np.random.default_rng(99))
    invariant = (
        estimate_boundary_lipschitz(auto, b1).value
        == estimate_boundary_lipschitz(composed, b2).value
        and estimate_local_quasisymmetry(auto, b1).value
        == estimate_local_quasisymmetry(composed, b2).value
        and np.array_equal(
            2.0 * estimate_local_bilipschitz(auto, b1).c_x,
            estimate_local_bilipschitz(composed, b2).c_x,
        )
    )

    slope = estimate_quasimobius(auto, sample_quadruples(auto, 1000, rng)).slope
    mobius_exact = abs(slope - 1.0) <= 1e-9
    verdict(capsys, 12, neutral and invariant and mobius_exact,
            f"identity neutral: {neutral}; similarity invariance: {invariant}; "
            f"mobius slope-1 = {slope-1.0:.2e}")


def test_criterion_13_report_determinism(capsys):
    scenario = {
        "schema": 1,
        "seed": 20260810,
        "domains": [
            {"name": "disk",
             "shape": {"kind": "disk", "params": {"radius": 1.0}, "resolution": 0.05}}
        ],
        "deformations": [
            {"name": "u", "domain": "disk", "kind": "uniformize", "epsilon": 0.2,
             "base_point": [0.0, 0.0]}
        ],
        "mappings": [
            {"name": "auto", "map": "disk_automorphism", "params": {"a": [0.5, 0.0]},
             "source": "disk", "target": "disk"}
        ],
        "checks": [
            {"check": "metric_axioms", "space": "qh:disk", "triples": 2000},
            {"check": "deformed_diameter", "deformation": "u"},
            {"check": "quasimobius_slope", "mapping": "auto", "quadruples": 300,
             "max_slope": 1.000000001},
            {"check": "distance_vs_qh_bounds", "domain": "disk", "pairs": 2000},
        ],
    }
    b1 = report_to_json_bytes(run_scenario(scenario))
    b2 = report_to_json_bytes(run_scenario(scenario))
    b3 = report_to_json_bytes(run_scenario(scenario, jobs=2))
    ok = b1 == b2 == b3 and json.loads(b1)["passed"]
    verdict(capsys, 13, ok, f"byte-identical across reruns and jobs=2 ({len(b1)} bytes)")
