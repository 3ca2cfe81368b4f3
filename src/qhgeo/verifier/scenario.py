"""Scenario loading, validation, execution, and report emission.

A scenario is a JSON document (``schema: 1``) describing named domains,
deformations, mappings, and a list of checks with parameters.  Runs are
deterministic: the seed is required, every check draws from a seed
spawned by its position, and reports with the same (scenario, seed) are
byte-identical.
"""

from __future__ import annotations

import io
import json
import numbers
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..deformations import (
    basepoint_change_distortion,
    sphericalization_envelope,
    sphericalization_qh_distortion,
    sphericalization_quasimobius,
    sphericalize,
    uniformize,
    verify_deformation_comparability,
)
from ..errors import ConfigurationError
from ..hyperbolicity import (
    basepoint_identity_residuals,
    estimate_delta,
    estimate_rough_starlikeness,
)
from ..mapping_analysis import (
    DomainSide,
    _euclid_diameter,
    bilateral,
    check_global_qs_hypotheses,
    estimate_boundary_lipschitz,
    estimate_local_bilipschitz,
    estimate_local_quasisymmetry,
    estimate_quasi_isometry,
    estimate_quasimobius,
    estimate_relative,
    estimate_semisolid,
    is_unbounded_truncation,
    sample_balls,
    sample_qh_pairs,
    sample_quadruples,
)
from ..metric_core import (
    build_grid_domain,
    check_ball_containment,
    domain_from_length_graph,
    safe_ball_radius,
)
from ..quasihyperbolic import QuasihyperbolicMetric, estimate_uniformity, verify_qh_distance_bounds
from ..sampling import (
    check_metric_axioms,
    pair_sample,
    pool_indices,
    pool_quadruples,
    tuple_sample_from_pool,
)
from ..shapes import ShapeSpec
from ..validation import _check_array, _check_keys, _check_object, _check_point, _check_range, _fail
from .builtin_maps import MAP_PARAMS, builtin_mapping, map_params
from .constants import predicted_constants

SCHEMA_VERSION = 1
# the tolerances a scenario may set, with their defaults
DEFAULTS = {"pairs": 10_000, "balls": 1_000, "quadruples": 1_000, "slack": 1.05, "band_h": 2.0,
            "chain_points": 3500}

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3  # a crash, an exception that is no ConfigurationError: no violated check


# ---------------------------------------------------------------------------
# validation


def _check_list(value, path):
    if not isinstance(value, list):
        _fail(path, "must be a list")
    return value


def _check_name(value, path, known=None, what=""):
    """A string; with ``known``, one of those names (a reference to a ``what``)."""
    if not isinstance(value, str):
        _fail(path, "must be a string")
    if known is not None and value not in known:
        _fail(path, f"unknown {what} {value!r}")


def _check_graph(graph, path):
    """An imported graph: finite vertices, edges between them, finite lengths and boundary."""
    _check_keys(graph, path, *_KEYS["graph"])
    pairs = "pairs of finite numbers"
    n = len(_check_array(graph["vertices"], f"{path}.vertices", 2, "iuf", pairs))
    edges = _check_array(graph["edges"], f"{path}.edges", 2, "iu", "pairs of vertex indices")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        _fail(f"{path}.edges", f"must be vertex indices in [0, {n})")
    if graph.get("lengths") is not None:
        _check_array(graph["lengths"], f"{path}.lengths", 0, "iuf", "finite numbers")
    _check_array(graph.get("boundary", []), f"{path}.boundary", 2, "iuf", pairs)


def _check_count(value, path):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
        _fail(path, "must be a positive integer")


def _check_flag(value, path):
    if not isinstance(value, bool):
        _fail(path, "must be true or false")


def _check_segments(value, path):
    for a, seg in enumerate(_check_list(value, path)):
        _check_keys(seg, f"{path}[{a}]", *_KEYS["segment"])
        for key in _KEYS["segment"][0]:
            _check_point(seg[key], f"{path}[{a}].{key}")


def _check_seed(value, path):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        _fail(path, "must be present and an integer >= 0 (determinism contract)")
    return value


def _number(*bounds):
    """The kind of a number: the (low, high, open_low, open_high) arguments of _check_range."""
    return (lambda value, path: _check_range(value, path, *bounds)), float


# the kind of each value that a check or the tolerances may set: how it is validated,
# and how a check receives it (None: as given)
_KINDS = {
    **dict.fromkeys(("pairs", "triples", "quadruples", "tuples", "centers", "sources", "pool",
                     "balls", "pts_per_ball", "uniformity_pairs", "max_rays", "chain_points"),
                    (_check_count, int)),
    **dict.fromkeys(("lam", "t0", "q"), _number(0.0, 1.0, True, True)),
    **dict.fromkeys(("slack", "separation_frac"), _number(0.0, None, True)),
    "band_h": _number(0.0),
    **dict.fromkeys(("max_a", "max_delta", "max_k", "max_slope", "tol", "stability_drift",
                     "clearance_h", "image_clearance_h", "min_qh"), _number()),
    **dict.fromkeys(("expect_violation", "truncation_sensitivity", "exhaustive"),
                    (_check_flag, bool)),
    "base_point": (_check_point, None),
    "segments": (_check_segments, None),
}
# each scenario object's required keys and the others it may have; a check's are in _CHECKS
_KEYS = {
    "scenario": ((), ("schema", "seed", "domains", "deformations", "mappings", "checks",
                      "tolerances")),
    "domain": (("name",), ("shape", "graph")),
    "graph": (("vertices", "edges"), ("lengths", "boundary")),
    "deformation": (("name", "domain", "kind", "base_point"), ("epsilon",)),
    "mapping": (("name", "map", "source", "target"), ("params",)),
    "segment": (("x", "y"), ()),
    "tolerances": ((), tuple(DEFAULTS)),
}
# each kind of space reference (kind:name): what its name names, and the view it reads
_SPACES = {
    "ambient": ("domain", lambda ctx, name: ctx.domains[name][0].ambient_view()),
    "graph": ("domain", lambda ctx, name: ctx.domains[name][0].graph_view()),
    "qh": ("domain", lambda ctx, name: ctx.domains[name][1].view()),
    "deformed": ("deformation", lambda ctx, name: ctx.deformations[name].metric_view()),
    "qh-of": ("deformation", lambda ctx, name: ctx.deformations[name].qh_view()),
}


def validate_scenario(raw: dict) -> dict:
    """Structural validation; raises ConfigurationError naming the field."""
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario must be a JSON object")
    _check_keys(raw, "", *_KEYS["scenario"])
    if raw.get("schema") != SCHEMA_VERSION:
        _fail("schema", f"must be {SCHEMA_VERSION}")
    _check_seed(raw.get("seed"), "seed")
    domains = raw.get("domains", [])
    if not isinstance(domains, list) or not domains:
        _fail("domains", "must be a non-empty list")
    names = set()
    for a, dom in enumerate(domains):
        path = f"domains[{a}]"
        _check_keys(dom, path, *_KEYS["domain"])
        _check_name(dom["name"], path + ".name")
        if dom["name"] in names:
            _fail(path + ".name", f"duplicate name {dom['name']!r}")
        names.add(dom["name"])
        if ("shape" in dom) == ("graph" in dom):
            _fail(path, "needs exactly one of 'shape' or 'graph'")
        if "shape" in dom:
            ShapeSpec.from_json(dom["shape"], f"{path}.shape")
        else:
            _check_graph(dom["graph"], path + ".graph")
    def_names = set()
    for a, d in enumerate(_check_list(raw.get("deformations", []), "deformations")):
        path = f"deformations[{a}]"
        _check_keys(d, path, *_KEYS["deformation"])
        _check_name(d["name"], f"{path}.name")
        _check_name(d["domain"], f"{path}.domain", names, "domain")
        if d["name"] in def_names or d["name"] in names:
            _fail(f"{path}.name", "duplicate name")
        def_names.add(d["name"])
        if d["kind"] not in ("uniformize", "sphericalize"):
            _fail(f"{path}.kind", "must be 'uniformize' or 'sphericalize'")
        if "epsilon" in d and d["kind"] != "uniformize":
            _fail(f"{path}.epsilon", "applies only to a 'uniformize' deformation")
        if "epsilon" in d:
            _check_range(d["epsilon"], f"{path}.epsilon", 0.0, 1.0, True, True)
        base, uniform = d["base_point"], d["kind"] == "uniformize"
        if not (uniform and type(base) is int and base >= 0):
            what = "a vertex index >= 0 or two numbers" if uniform else "two numbers"
            _check_point(base, f"{path}.base_point", what)
    map_names = set()
    for a, mp in enumerate(_check_list(raw.get("mappings", []), "mappings")):
        path = f"mappings[{a}]"
        _check_keys(mp, path, *_KEYS["mapping"])
        _check_name(mp["name"], f"{path}.name")
        if mp["name"] in map_names:
            _fail(f"{path}.name", f"duplicate name {mp['name']!r}")
        map_names.add(mp["name"])
        _check_name(mp["map"], f"{path}.map", MAP_PARAMS, "builtin map id")
        for key in ("source", "target"):
            _check_name(mp[key], f"{path}.{key}", names, "domain")
        map_params(mp["map"], mp.get("params", {}), f"{path}.params")
    refs = {"domain": names, "mapping": map_names, "deformation": def_names,
            "deformation0": def_names, "deformation1": def_names}
    for a, chk in enumerate(_check_list(raw.get("checks", []), "checks")):
        path = f"checks[{a}]"
        _check_object(chk, path)
        cid = chk.get("check")
        if not isinstance(cid, str) or cid not in _CHECKS:
            _fail(f"{path}.check", f"unknown check id {cid!r}")
        _, needs, arity, optional = _CHECKS[cid]
        _check_keys(chk, path, ("check", *needs.split()), optional)
        for key in chk:
            if key in optional:
                _KINDS[key][0](chk[key], f"{path}.{key}")
        if arity and chk.get("pool", arity) < arity:
            _fail(f"{path}.pool", f"must be >= {arity} to hold one {arity}-tuple")
        for key, known in refs.items():
            if key in chk:
                _check_name(chk[key], f"{path}.{key}", known, key.rstrip("01"))
        if "space" in chk:  # kind:name, a name of the sort that the kind reads
            _check_name(chk["space"], f"{path}.space")
            kind, _, name = chk["space"].partition(":")
            if kind not in _SPACES:
                _fail(f"{path}.space", f"unknown space kind {kind!r}; use one of "
                      + ", ".join(_SPACES))
            what = _SPACES[kind][0]
            _check_name(name, f"{path}.space", refs[what], what)
    tol = raw.get("tolerances", {})
    _check_keys(tol, "tolerances", *_KEYS["tolerances"])
    for key, value in tol.items():
        _KINDS[key][0](value, f"tolerances.{key}")
    return raw


def load_scenario(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"scenario is not valid JSON: {exc}") from exc
    return validate_scenario(raw)


# ---------------------------------------------------------------------------
# building


class ScenarioContext:
    def __init__(self, raw: dict, resolution_override: float | None = None, seed=None):
        self.raw = raw
        self.seed = int(raw["seed"] if seed is None else _check_seed(seed, "seed"))
        tol = dict(DEFAULTS)
        tol.update(raw.get("tolerances", {}))
        self.defaults = tol
        self.band_h = float(tol["band_h"])
        self.domains, self.sides, self.deformations, self.mappings = {}, {}, {}, {}
        self.bases = {}   # deformation name -> side of the domain it deforms
        build_rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xD0]))
        for what in ("domain", "deformation", "mapping"):
            for obj in raw.get(what + "s", []):
                try:
                    self._build(what, obj, resolution_override, build_rng)
                except ConfigurationError as exc:  # the same error, naming what it builds
                    raise ConfigurationError(f"{what} {obj['name']!r}: {exc}") from exc

    def _build(self, what, obj, resolution_override, build_rng):
        """Build one named domain, deformation or mapping of the scenario."""
        name = obj["name"]
        if what == "domain":
            if "shape" in obj:
                spec = ShapeSpec.from_json(obj["shape"])
                if resolution_override is not None:
                    spec = ShapeSpec(spec.kind, spec.params, resolution_override)
                domain = build_grid_domain(spec, self.band_h)
            else:
                g = obj["graph"]
                domain = domain_from_length_graph(
                    g["vertices"], g["edges"], g.get("boundary", []), g.get("lengths")
                )
            qh = QuasihyperbolicMetric(domain)
            self.domains[name] = (domain, qh)
            self.sides[name] = DomainSide(domain, qh)
        elif what == "deformation":
            domain, qh = self.domains[obj["domain"]]
            self.bases[name] = self.sides[obj["domain"]]
            if obj["kind"] == "uniformize":
                space = uniformize(domain, qh, obj["base_point"], float(obj.get("epsilon", 0.2)))
            else:
                space = sphericalize(domain, obj["base_point"],
                                     max_points=int(self.defaults["chain_points"]), rng=build_rng)
            self.deformations[name] = space
        else:
            self.mappings[name] = builtin_mapping(obj["map"], obj.get("params", {}),
                                                  self.sides[obj["source"]],
                                                  self.sides[obj["target"]])

    def space_view(self, ref: str):
        """The view that a validated space reference (kind:name) reads."""
        kind, _, name = ref.partition(":")
        return _SPACES[kind][1](self, name)


# ---------------------------------------------------------------------------
# checks


def _result(passed, measured, predicted=None, violations=None, skipped=0, notes=None):
    """A check's verdict; ``run_scenario`` puts its id and parameters in front."""
    measured = {k: _jsonable(v) for k, v in (measured or {}).items()}
    predicted = {k: _jsonable(v) for k, v in (predicted or {}).items()}
    violations = violations or []
    if not passed and not violations:
        # failing entries always carry a witness; for scalar comparisons
        # the witness is the measured-vs-predicted record itself
        violations = [{"measured": measured, "predicted": predicted}]
    return {
        "passed": bool(passed),
        "measured": measured,
        "predicted": predicted,
        "violations": violations,
        "skipped_degenerate": int(skipped),
        "notes": notes or [],
    }


def _require_samples(count, what):
    """A check that tested no sample proves nothing: it is infeasible, not passed."""
    if count == 0:
        raise ConfigurationError(f"empty sample: no {what} tested")


def _bound(value, p, key):
    """``(passed, predicted)`` of ``value <= p[key]``; a bound of None is off and passes."""
    return (True, {}) if p[key] is None else (value <= p[key], {key: p[key]})


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return list(v)
    return v


def _chk_metric_axioms(ctx, p, rng):
    report = check_metric_axioms(ctx.space_view(p["space"]), p["triples"], rng,
                                 pool_size=p["pool"])
    _require_samples(report.n_triples, "triples")
    return _result(
        report.passed,
        {
            "max_symmetry_defect": report.max_symmetry_defect,
            "max_triangle_defect": report.max_triangle_defect,
            "max_identity_defect": report.max_identity_defect,
        },
        {"tolerance": report.tolerance},
    )


def _chk_qh_calibration(ctx, p, rng):
    from .quadpack import segment_oracle  # no other check needs it: imported (and compiled) here

    _require_samples(len(p["segments"]), "segments")
    name = p["domain"]
    domain, qh = ctx.domains[name]
    measured = {}
    violations = []
    passed = True
    ends = [tuple(int(domain.nearest_vertex([seg[key]], f"segments[{idx}].{key}")[0])
                  for key in ("x", "y")) for idx, seg in enumerate(p["segments"])]
    for idx, (i, j) in enumerate(ends):
        if i == j:
            # k = 0 and the oracle is 0: the relative error and the truncation drift are 0 / 0
            return _result(False, {}, notes=[
                f"infeasible: segments[{idx}]: both ends snap to vertex {i}; no segment to measure"])
        # the oracle integrates 1/d_G along the straight segment, which must stay in the domain;
        # an imported graph has no geometry to test it against
        a, b = domain.coords[i], domain.coords[j]
        if domain.geometry is not None and domain.geometry.meets_boundary(a, b):
            ends = " to ".join(f"({p[0]:.6g}, {p[1]:.6g})" for p in (a, b))
            return _result(False, {}, notes=[
                f"infeasible: segments[{idx}]: the snapped segment from {ends} meets the boundary"])
    snapped = []
    for idx, (i, j) in enumerate(ends):
        snapped.append((domain.coords[i], domain.coords[j]))
        k_val = qh.distance(i, j)
        oracle = segment_oracle(domain, domain.coords[i], domain.coords[j])
        rel = abs(k_val - oracle) / oracle
        measured[f"segment{idx}_k"] = k_val
        measured[f"segment{idx}_oracle"] = oracle
        measured[f"segment{idx}_rel_error"] = rel
        if rel > p["tol"]:
            passed = False
            violations.append({"segment": idx, "k": k_val, "oracle": oracle, "rel_error": rel})
    notes = []
    if p["truncation_sensitivity"]:
        if not is_unbounded_truncation(ctx.sides[name]):
            raise ConfigurationError("truncation_sensitivity applies only to truncated shapes")
        spec = domain.shape
        big = ShapeSpec(spec.kind, {**spec.params, "radius": 2.0 * domain.geometry.radius},
                        spec.resolution)
        domain2 = build_grid_domain(big, ctx.band_h)
        qh2 = QuasihyperbolicMetric(domain2)
        for idx, (a, b) in enumerate(snapped):
            # query the first run's snapped lattice points so the drift
            # reflects the truncation, not snap tie-breaking
            i = int(domain2.nearest_vertex([a])[0])
            j = int(domain2.nearest_vertex([b])[0])
            k2 = qh2.distance(i, j)
            drift = abs(k2 - measured[f"segment{idx}_k"]) / measured[f"segment{idx}_k"]
            measured[f"segment{idx}_truncation_drift"] = drift
            if drift > 0.01:
                passed = False
                violations.append({"segment": idx, "truncation_drift": drift})
        notes.append("truncation sensitivity: re-run at 2R, drift must stay below 1%")
    return _result(passed, measured, {"tol": p["tol"]}, violations, notes=notes)


def _chk_distance_vs_qh_bounds(ctx, p, rng):
    domain, qh = ctx.domains[p["domain"]]
    pairs = pair_sample(domain.n, p["pairs"], rng)
    report = verify_qh_distance_bounds(qh, pairs, slack=p["slack"])
    _require_samples(report.n_pairs, "pairs")
    return _result(
        report.passed,
        {
            "max_growth_ratio": report.max_growth_ratio,
            "max_lower_ratio": report.max_lower_ratio,
            "max_upper_ratio": report.max_upper_ratio,
            "n_pairs": report.n_pairs,
            "n_gated": report.n_gated,
        },
        {"slack": report.slack},
        [v.__dict__ for v in report.violations],
    )


def _chk_ball_containment(ctx, p, rng):
    domain, _ = ctx.domains[p["domain"]]
    centers = rng.permutation(domain.n)[:p["centers"]]
    _require_samples(len(centers), "centers")
    violations = []
    for c in centers:
        r = safe_ball_radius(domain, int(c)) / p["slack"]
        rep = check_ball_containment(domain, int(c), r)
        if not rep.contained:
            violations.append({"center": list(rep.center), "radius": rep.radius, "witness": list(rep.witness)})
    found = len(violations) > 0
    return _result(
        found if p["expect_violation"] else not found,
        {"n_centers": len(centers), "n_violations": len(violations)},
        {"radius_rule": f"2*d_G(x)/(2+c)/{p['slack']}"},
        violations[:16],
    )


def _chk_basepoint_identity(ctx, p, rng):
    view = ctx.space_view(p["space"])
    pool = pool_indices(view.n, p["pool"], rng)
    dist = view.submatrix(pool)
    tuples = tuple_sample_from_pool(len(pool), p["tuples"], 6, rng)
    _require_samples(len(tuples), "tuples")
    residuals = basepoint_identity_residuals(dist, tuples)
    scale = max(1.0, float(dist.max(initial=0.0)))
    tol = 1e-12 * scale
    worst = float(residuals.max(initial=0.0))
    return _result(worst <= tol, {"max_residual": worst, "n_tuples": len(tuples)},
                   {"tolerance": tol})


def _chk_delta(ctx, p, rng):
    report = estimate_delta(ctx.space_view(p["space"]), n_quadruples=p["quadruples"], rng=rng,
                            pool_size=p["pool"], exhaustive=p["exhaustive"])
    _require_samples(report.quadruples_tested, "quadruples")
    passed, predicted = _bound(report.delta, p, "max_delta")
    return _result(passed, {"delta": report.delta, "quadruples_tested": report.quadruples_tested,
                            "pool_size": report.pool_size}, predicted)


def _uniformity_a(domain, qh, p, rng):
    """Uniformity constant A of the domain on a small pair sample."""
    upairs = pair_sample(domain.n, p["uniformity_pairs"], rng, n_sources=p["sources"])
    return estimate_uniformity(domain, qh, upairs).constant_a


def _chk_uniformity(ctx, p, rng):
    domain, qh = ctx.domains[p["domain"]]
    pairs = pair_sample(domain.n, p["pairs"], rng, n_sources=p["sources"])
    report = estimate_uniformity(domain, qh, pairs)
    _require_samples(report.n_pairs, "pairs")
    passed, predicted = _bound(report.constant_a, p, "max_a")
    return _result(passed, {"constant_a": report.constant_a, "n_pairs": report.n_pairs,
                            "worst_pair": list(report.worst_pair)}, predicted)


def _chk_starlikeness(ctx, p, rng):
    domain, qh = ctx.domains[p["domain"]]
    base = p["base_point"]
    w = None if base is None else int(domain.nearest_vertex([base], "base_point")[0])
    report = estimate_rough_starlikeness(domain, qh, w, max_rays=p["max_rays"])
    passed, predicted = _bound(report.starlikeness_k, p, "max_k")
    return _result(passed, {"starlikeness_k": report.starlikeness_k,
                            "base_point": list(report.base_point)}, predicted)


def _chk_deformed_diameter(ctx, p, rng):
    space = ctx.deformations[p["deformation"]]
    slack = p["slack"]
    diam = space.diameter_estimate()
    base_bd = float(space.boundary_distance()[space.w])
    bound_diam = 2.0 / space.eps
    bound_bd = 1.0 / (space.eps * np.e)
    return _result(
        diam <= bound_diam * slack and base_bd >= bound_bd / slack,
        {"diameter": diam, "base_boundary_distance": base_bd, "epsilon": space.eps},
        {"max_diameter": bound_diam * slack, "min_base_boundary_distance": bound_bd / slack},
    )


def _chk_comparability(ctx, p, rng):
    space = ctx.deformations[p["deformation"]]
    report = verify_deformation_comparability(space, pair_sample(space.n, p["pairs"], rng))
    return _result(
        report.finite,
        {"constant": report.constant, "max_ratio": report.max_ratio,
         "min_ratio": report.min_ratio, "n_pairs": report.n_pairs},
        skipped=report.n_skipped,
    )


def _chk_basepoint_change(ctx, p, rng):
    s0 = ctx.deformations[p["deformation0"]]
    s1 = ctx.deformations[p["deformation1"]]
    report = basepoint_change_distortion(s0, s1, pool_quadruples(s0.n, 48, p["quadruples"], rng))
    return _result(
        np.isfinite(report.slope) and report.slope > 0,
        {"slope": report.slope, "n_quadruples": report.n_quadruples},
        skipped=report.n_skipped,
    )


def _chk_spher_envelope(ctx, p, rng):
    space = ctx.deformations[p["deformation"]]
    pairs = pair_sample(space.n, p["pairs"], rng, n_sources=p["sources"])
    report = sphericalization_envelope(space, pairs)
    _require_samples(report.n_pairs, "pairs")
    return _result(
        report.passed,
        {"min_chain_over_quasi": report.min_chain_over_quasi,
         "max_chain_over_quasi": report.max_chain_over_quasi, "n_pairs": report.n_pairs},
        {"lower": 0.25, "upper": 1.0},
    )


def _chk_spher_distortion(ctx, p, rng):
    space = ctx.deformations[p["deformation"]]
    slack = p["slack"]
    base = ctx.bases[p["deformation"]]
    space.qh_view()  # built before the chain rows: after them, peak RSS reads 0.1-0.3 MB higher

    qm = sphericalization_quasimobius(space, pool_quadruples(space.n, p["pool"],
                                                             p["quadruples"], rng))

    a_meas = _uniformity_a(base.domain, base.metric, p, rng)

    pairs = pair_sample(space.n, p["pairs"], rng, n_sources=p["sources"])
    m_hat = sphericalization_qh_distortion(space, base.metric, pairs)
    _require_samples(qm.n_quadruples, "quadruples")
    _require_samples(m_hat.n_samples, "pairs")

    qm_bound = 16.0 * slack
    m_bound = 80.0 * a_meas * slack
    return _result(
        qm.slope <= qm_bound and m_hat.value <= m_bound,
        {"quasimobius_slope": qm.slope, "qh_bilipschitz": m_hat.value,
         "uniformity_a": a_meas, "n_quadruples": qm.n_quadruples},
        {"max_quasimobius_slope": qm_bound, "max_qh_bilipschitz": m_bound},
        skipped=qm.n_skipped,
    )


def _chain_common(ctx, p):
    m = ctx.mappings[p["mapping"]]
    return m, p["balls"], p["pts_per_ball"], m.source.domain.quasiconvexity, p["slack"]


def _chk_chain_linear(ctx, p, rng):
    m, n_balls, pts, c, slack = _chain_common(ctx, p)
    lam = p["lam"]
    balls = sample_balls(m.source, lam, n_balls, pts, rng)
    l_meas = estimate_boundary_lipschitz(m, balls).value
    c1_meas = estimate_relative(m, balls).value

    qh_pairs = sample_qh_pairs(
        m, p["pairs"] or min(ctx.defaults["pairs"], 4000), rng,
        clearance_h=p["clearance_h"],
        image_clearance_h=p["image_clearance_h"],
        min_qh=p["min_qh"],
    )
    semisolid = estimate_semisolid(m, qh_pairs)
    if semisolid.n_samples == 0:
        raise ConfigurationError("semisolid sample is empty; relax clearance filters or refine")
    c2_meas = semisolid.value
    led_23 = predicted_constants(
        "relative_to_semisolid", {"c": c, "c1": max(c1_meas, 1.0), "t0": lam}
    )
    led_31 = predicted_constants("semisolid_to_lipschitz", {"c": c, "c2": max(c2_meas, 1.0)})
    l3_meas = estimate_boundary_lipschitz(
        m, sample_balls(m.source, led_31["lam"], n_balls, pts, rng)).value

    checks = {
        "relative_le_lipschitz": c1_meas <= l_meas * slack,
        "semisolid_le_predicted": c2_meas <= led_23["semisolid_slope"] * slack,
        "lipschitz_le_predicted": l3_meas <= led_31["l"] * slack,
    }
    return _result(
        all(checks.values()),
        {
            "boundary_lipschitz": l_meas,
            "relative_slope": c1_meas,
            "semisolid_slope": c2_meas,
            "lipschitz_at_derived_lam": l3_meas,
            "t1": led_23["t1"],
        },
        {
            "max_relative_slope": l_meas * slack,
            "max_semisolid_slope": led_23["semisolid_slope"] * slack,
            "max_lipschitz_at_derived_lam": led_31["l"] * slack,
            "derived_lam": led_31["lam"],
        },
        [{"stage": k} for k, ok in checks.items() if not ok],
    )


def _chk_chain_local(ctx, p, rng):
    m, n_balls, pts, c, slack = _chain_common(ctx, p)
    c1_bi = max(bilateral(estimate_relative, m, p["t0"], n_balls, pts, rng), 1.0)
    led_34 = predicted_constants("relative_to_local_bilipschitz", {"c1": c1_bi, "t0": p["t0"]})
    theta1 = led_34["theta1"]

    balls = sample_balls(m.source, theta1, n_balls, pts, rng)
    lb = estimate_local_bilipschitz(m, balls)
    # two-sided, written out: the forward half reads the shared sample
    qs_fwd = estimate_local_quasisymmetry(m, balls)
    inv = m.inverse()
    qs_inv = estimate_local_quasisymmetry(inv, sample_balls(inv.source, theta1, n_balls, pts, rng))
    qs_bi = max(qs_fwd.value, qs_inv.value, 1.0)

    led_36 = predicted_constants("local_qs_to_lipschitz", {"c": c, "c2": qs_bi, "q": theta1})
    l6_meas = bilateral(estimate_boundary_lipschitz, m, led_36["lam"], n_balls, pts, rng)

    checks = {
        "local_bilipschitz_le_predicted": lb.l1 <= led_34["l1"] * slack,
        "local_qs_le_l1_squared": qs_fwd.value <= lb.l1 ** 2 * slack,
        "lipschitz_le_predicted": l6_meas <= led_36["l"] * slack,
    }
    return _result(
        all(checks.values()),
        {
            "relative_slope_bilateral": c1_bi,
            "local_bilipschitz_l1": lb.l1,
            "local_qs_slope": qs_fwd.value,
            "local_qs_slope_bilateral": qs_bi,
            "lipschitz_at_derived_lam": l6_meas,
            "theta1": theta1,
            "median_scale_min": float(np.min(lb.c_x)) if len(lb.c_x) else 1.0,
            "median_scale_max": float(np.max(lb.c_x)) if len(lb.c_x) else 1.0,
        },
        {
            "max_local_bilipschitz": led_34["l1"] * slack,
            "max_local_qs_slope": lb.l1 ** 2 * slack,
            "max_lipschitz_at_derived_lam": led_36["l"] * slack,
            "derived_lam": led_36["lam"],
            "derived_q1": led_36["q1"],
        },
        [{"stage": k} for k, ok in checks.items() if not ok],
        skipped=qs_fwd.n_skipped + qs_inv.n_skipped,
    )


def _chk_qi_step(ctx, p, rng):
    m, n_balls, pts, _, slack = _chain_common(ctx, p)
    q = p["q"]
    eta_slope = max(bilateral(estimate_local_quasisymmetry, m, q, n_balls, pts, rng), 1.0)

    a_meas = max(_uniformity_a(side.domain, side.metric, p, rng)
                 for side in (m.source, m.target))

    i, j = sample_qh_pairs(
        m, p["pairs"] or min(ctx.defaults["pairs"], 4000), rng,
        clearance_h=p["clearance_h"],
        image_clearance_h=p["image_clearance_h"],
        min_qh=0.0,
    )
    # inject adjacent pairs so the small-scale gate is populated
    edges = m.source.domain.graph.edges
    if len(edges):
        pick = rng.integers(0, len(edges), size=min(1000, len(edges)))
        i = np.concatenate([i, edges[pick, 0]])
        j = np.concatenate([j, edges[pick, 1]])
    del edges  # a grid's are derived on read
    report = estimate_quasi_isometry(
        m, (i, j),
        step_inputs={"uniformity_a": a_meas, "q": q, "eta_slope": eta_slope},
        slack=slack,
    )
    return _result(
        len(report.step_violations) == 0,
        {
            "additive_c": report.additive_c,
            "multiplicative_l": report.multiplicative_l,
            "uniformity_a": a_meas,
            "eta_slope": eta_slope,
            "small_scale_threshold": report.step_threshold,
            "step_pairs_tested": report.step_pairs,
        },
        {"step_bound": report.step_bound, "slack": slack},
        [
            {"i": v[0], "j": v[1], "k": v[2], "k_image": v[3]}
            for v in report.step_violations
        ],
    )


def _chk_quasimobius(ctx, p, rng):
    m = ctx.mappings[p["mapping"]]
    n_quad = p["quadruples"]
    sep = 0.0
    if p["separation_frac"] is not None:
        # stability studies run on a separated net: the bare linear
        # envelope diverges along degenerating quadruples for maps with
        # nonlinear distortion control
        sep = m.source.domain.diameter_hint() / p["separation_frac"]
    # a stability study is a prefix study: the small sample is the head of a 10x larger
    # one, so the drift isolates genuine tail growth of the envelope
    study = p["stability_drift"] is not None
    quad = sample_quadruples(m, 10 * n_quad if study else n_quad, rng, p["pool"], sep)
    report = estimate_quasimobius(m, quad[:n_quad])
    bigger = estimate_quasimobius(m, quad) if study else None
    _require_samples(report.n_quadruples, "quadruples")
    measured = {"slope": report.slope, "n_quadruples": report.n_quadruples}
    passed, predicted = _bound(report.slope, p, "max_slope")
    passed = passed and np.isfinite(report.slope)
    if bigger is not None:
        drift = abs(bigger.slope - report.slope) / report.slope
        measured["slope_at_10x"] = bigger.slope
        measured["stability_drift"] = drift
        predicted["max_stability_drift"] = p["stability_drift"]
        passed = passed and drift <= predicted["max_stability_drift"]
    return _result(passed, measured, predicted, skipped=report.n_skipped)


def _chk_global_qs(ctx, p, rng):
    m = ctx.mappings[p["mapping"]]
    measured = {}
    notes = []
    if not (is_unbounded_truncation(m.source) or is_unbounded_truncation(m.target)):
        report = check_global_qs_hypotheses(m)
        c0 = report.c0
        measured.update(
            {"c0": c0, "w": list(report.w), "diam_source": report.diam_source,
             "diam_target": report.diam_target}
        )
    else:
        # truncation of an unbounded shape: route through sphericalization,
        # then check the diameter-vs-depth condition in the bounded images
        c0 = 1.0
        for label, side in (("source", m.source), ("target", m.target)):
            if is_unbounded_truncation(side):
                gaps = np.hypot(side.domain.boundary_coords[:, 0],
                                side.domain.boundary_coords[:, 1])
                p0 = side.domain.boundary_coords[int(np.argmin(gaps))]
                space = sphericalize(side.domain, p0, max_points=1500, rng=rng)
                pool = rng.permutation(space.n)[:48]
                diam = float(space.metric_view().submatrix(pool).max())
                depth = float(space.boundary_distance().max())
            else:
                diam = _euclid_diameter(side.coords)
                depth = float(side.boundary_distance.max())
            measured[f"diam_{label}"] = diam
            measured[f"depth_{label}"] = depth
            c0 = max(c0, diam / depth)
        measured["c0"] = c0
        notes.append("unbounded side detected: hypotheses checked on the sphericalization")
    a_meas = _uniformity_a(m.source.domain, m.source.metric, p, rng)
    measured["uniformity_a"] = a_meas
    bound = 4.0 * a_meas * p["slack"]
    return _result(c0 <= bound, measured, {"max_c0": bound}, notes=notes)


# the optional keys of every chain check, with their defaults
_CHAIN = {"balls": "balls", "pts_per_ball": 8, "slack": "slack"}
# check id -> its function, the references it needs, the tuple arity its pool must hold,
# and its optional keys with their defaults: a string names a tolerance, None is no default
# (the bound is off; the chain checks' pairs default to min(tolerances.pairs, 4000))
_CHECKS = {
    "metric_axioms": (_chk_metric_axioms, "space", 3, {"triples": "pairs", "pool": 96}),
    "qh_calibration": (_chk_qh_calibration, "domain", 0,
                       {"segments": (), "tol": 0.02, "truncation_sensitivity": False}),
    "distance_vs_qh_bounds": (_chk_distance_vs_qh_bounds, "domain", 0,
                              {"pairs": "pairs", "slack": "slack"}),
    "ball_containment": (_chk_ball_containment, "domain", 0,
                         {"centers": 100, "slack": 1.0, "expect_violation": False}),
    "gromov_basepoint_identity": (_chk_basepoint_identity, "space", 6,
                                  {"tuples": 100_000, "pool": 64}),
    "delta_hyperbolicity": (_chk_delta, "space", 4, {"quadruples": "pairs", "pool": 64,
                                                     "exhaustive": False, "max_delta": None}),
    "uniformity": (_chk_uniformity, "domain", 0, {"pairs": 200, "sources": 24, "max_a": None}),
    "rough_starlikeness": (_chk_starlikeness, "domain", 0,
                           {"base_point": None, "max_rays": 256, "max_k": None}),
    "deformed_diameter": (_chk_deformed_diameter, "deformation", 0, {"slack": "slack"}),
    "deformation_comparability": (_chk_comparability, "deformation", 0,
                                  {"pairs": "quadruples"}),
    "basepoint_change": (_chk_basepoint_change, "deformation0 deformation1", 0,
                         {"quadruples": "quadruples"}),
    "sphericalization_envelope": (_chk_spher_envelope, "deformation", 0,
                                  {"pairs": "quadruples", "sources": 48}),
    "sphericalization_distortion": (_chk_spher_distortion, "deformation", 4, {
        "quadruples": "quadruples", "pool": 64, "pairs": "quadruples", "sources": 20,
        "uniformity_pairs": 160, "slack": "slack"}),
    "distortion_chain_linear": (_chk_chain_linear, "mapping", 0, {
        **_CHAIN, "pairs": None, "lam": 0.2, "clearance_h": 4.0, "image_clearance_h": 12.0,
        "min_qh": 2.0}),
    "distortion_chain_local": (_chk_chain_local, "mapping", 0, {**_CHAIN, "t0": 0.2}),
    "qi_step_bound": (_chk_qi_step, "mapping", 0, {
        **_CHAIN, "pairs": None, "q": 0.5, "clearance_h": 4.0, "image_clearance_h": 8.0,
        "uniformity_pairs": 160, "sources": 20}),
    "quasimobius_slope": (_chk_quasimobius, "mapping", 4, {
        "quadruples": "quadruples", "pool": 64, "separation_frac": None,
        "stability_drift": None, "max_slope": None}),
    "global_qs_hypotheses": (_chk_global_qs, "mapping", 0,
                             {"uniformity_pairs": 160, "sources": 20, "slack": "slack"}),
}
# the deformation kind that each check reading a deformation needs
_DEFORMATION_KINDS = {"deformed_diameter": "uniformize", "deformation_comparability": "uniformize",
                      "basepoint_change": "uniformize", "sphericalization_envelope": "sphericalize",
                      "sphericalization_distortion": "sphericalize"}


def _resolve(ctx, cid, params):
    """A check's parameters as its function reads them: each optional key given or defaulted,
    and coerced as its kind says."""
    resolved = dict(params)
    for key, default in _CHECKS[cid][3].items():
        value = params.get(key, ctx.defaults[default] if isinstance(default, str) else default)
        coerce = _KINDS[key][1]
        resolved[key] = value if value is None or coerce is None else coerce(value)
    return resolved


# ---------------------------------------------------------------------------
# running and emission


def run_scenario(
    raw: dict,
    seed: int | None = None,
    jobs: int = 1,
    resolution_override: float | None = None,
) -> dict:
    """Execute all checks deterministically; returns the report dict.

    Check order in the report always matches scenario order regardless of
    parallel execution.  Feasibility errors inside a check mark it failed
    without aborting the run.
    """
    validate_scenario(raw)
    ctx = ScenarioContext(raw, resolution_override=resolution_override, seed=seed)
    checks = raw.get("checks", [])
    streams = np.random.SeedSequence([ctx.seed, 0xC0FFEE]).spawn(max(len(checks), 1))

    def run_one(idx_chk):
        idx, chk = idx_chk
        rng = np.random.default_rng(streams[idx])
        cid, params = chk["check"], {k: v for k, v in chk.items() if k != "check"}
        kind = _DEFORMATION_KINDS.get(cid)
        wrong = [key for key in ("deformation", "deformation0", "deformation1")
                 if key in params and ctx.deformations[params[key]].kind != kind]
        if wrong:  # a predicate on the built deformations, tested before the check runs
            return {"check": cid, "params": params, **_result(False, {}, notes=[
                f"infeasible: {wrong[0]}: {cid} needs a {kind} deformation"])}
        try:
            result = _CHECKS[cid][0](ctx, _resolve(ctx, cid, params), rng)
        except ConfigurationError as exc:
            result = _result(False, {}, notes=[f"infeasible: {exc}"])
        return {"check": cid, "params": params, **result}

    if jobs > 1 and len(checks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, enumerate(checks)))
    else:
        results = [run_one(item) for item in enumerate(checks)]

    return {
        "schema": SCHEMA_VERSION,
        "seed": ctx.seed,
        "slack": float(ctx.defaults["slack"]),
        "sample_defaults": {k: ctx.defaults[k] for k in ("pairs", "balls", "quadruples")},
        "band_h": ctx.band_h,
        "resolutions": {name: domain.resolution for name, (domain, _) in ctx.domains.items()},
        "scenario": raw,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }


def report_to_json_bytes(report: dict) -> bytes:
    # a scenario built in Python may hold numpy scalars: they are written as their values
    return json.dumps(report, indent=2, sort_keys=False, default=np.generic.item).encode("utf-8")


def report_to_csv(report: dict) -> str:
    out = io.StringIO()
    out.write("check,constant,measured,predicted,passed\n")
    for chk in report["checks"]:
        predicted = chk["predicted"]
        for key, value in chk["measured"].items():
            pred = predicted.get(key, predicted.get("max_" + key, ""))
            if isinstance(value, list):
                value = json.dumps(value).replace(",", ";")
            out.write(f"{chk['check']},{key},{value},{pred},{int(chk['passed'])}\n")
    return out.getvalue()


def emit_report(report: dict, path, fmt: str = "json"):
    """Write the report; JSON output is byte-stable for a fixed scenario+seed."""
    if fmt not in ("json", "csv"):
        raise ConfigurationError("report format must be 'json' or 'csv'")
    data = report_to_json_bytes(report) if fmt == "json" else report_to_csv(report).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return path
