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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..deformations import (
    basepoint_change_distortion,
    sphericalization_envelope,
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
    DeformedSide,
    DomainSide,
    _euclid_diameter,
    build_mapping,
    check_global_qs_hypotheses,
    estimate_boundary_lipschitz,
    estimate_local_bilipschitz,
    estimate_local_quasisymmetry,
    estimate_qh_bilipschitz,
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
from ..sampling import check_metric_axioms, pair_sample, pool_indices, tuple_sample_from_pool
from ..shapes import ShapeSpec
from ..views import EuclideanView
from .builtin_maps import builtin_mapping
from .constants import predicted_constants

SCHEMA_VERSION = 1
DEFAULTS = {"pairs": 10_000, "balls": 1_000, "quadruples": 1_000, "slack": 1.05, "band_h": 2.0}

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# validation


def _fail(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


def _check_range(value, path, low=None, high=None, open_low=False, open_high=False):
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        _fail(path, "must be a number")
    if not np.isfinite(value):
        _fail(path, "must be a finite number")   # an infinite slack or bound passes any check
    if low is not None and (value <= low if open_low else value < low):
        _fail(path, f"must be {'>' if open_low else '>='} {low}")
    if high is not None and (value >= high if open_high else value > high):
        _fail(path, f"must be {'<' if open_high else '<='} {high}")
    return value


def _check_base_point(value, path, kind):
    """uniformize: a vertex index >= 0 or two numbers; sphericalize: two numbers."""
    if kind == "uniformize" and type(value) is int and value >= 0:
        return
    if not (isinstance(value, list) and len(value) == 2):
        index = "a vertex index >= 0 or " if kind == "uniformize" else ""
        _fail(path, f"must be {index}two numbers")
    for c in value:
        _check_range(c, path)


def _check_object(value, path):
    if not isinstance(value, dict):
        _fail(path, "must be an object")


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


def _check_array(value, path, width, kinds, what):
    """A list of finite numbers of a dtype kind in ``kinds``, ``width`` to a row (0: flat)."""
    arr = None
    if isinstance(value, list):
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged rows
            pass
    if arr is None or arr.size and (arr.dtype.kind not in kinds
                                    or arr.shape[1:] != ((width,) if width else ())
                                    or not np.all(np.isfinite(arr))):
        _fail(path, f"must be a list of {what}")
    return arr


def _check_graph(graph, path):
    """An imported graph: finite vertices, edges between them, finite lengths and boundary."""
    _check_object(graph, path)
    for key in ("vertices", "edges"):
        if key not in graph:
            _fail(f"{path}.{key}", "missing")
    pairs = "pairs of finite numbers"
    n = len(_check_array(graph["vertices"], f"{path}.vertices", 2, "iuf", pairs))
    edges = _check_array(graph["edges"], f"{path}.edges", 2, "iu", "pairs of vertex indices")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        _fail(f"{path}.edges", f"must be vertex indices in [0, {n})")
    if graph.get("lengths") is not None:
        _check_array(graph["lengths"], f"{path}.lengths", 0, "iuf", "finite numbers")
    _check_array(graph.get("boundary", []), f"{path}.boundary", 2, "iuf", pairs)


def _check_count(value, path):
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        _fail(path, "must be a positive integer")


# sample sizes a check may set, and those the tolerances section may set
_SAMPLE_SIZES = (
    "pairs", "triples", "quadruples", "tuples", "centers", "sources", "pool", "balls",
    "pts_per_ball", "uniformity_pairs", "max_rays",
)
_TOLERANCE_SIZES = ("pairs", "balls", "quadruples", "chain_points")
# numbers a check may set, and those the tolerances section may set, with the
# (low, high, open_low, open_high) arguments of _check_range; () = any number
_CHECK_RANGES = {
    **dict.fromkeys(("lam", "t0", "q"), (0.0, 1.0, True, True)),
    **dict.fromkeys(("slack", "separation_frac"), (0.0, None, True)),
    **dict.fromkeys(("max_a", "max_delta", "max_k", "max_slope", "tol", "stability_drift",
                     "clearance_h", "image_clearance_h", "min_qh"), ()),
}
_TOLERANCE_RANGES = {"slack": (0.0, None, True), "band_h": (0.0,)}
# what the name of each kind of space reference (kind:name) refers to
_SPACE_KINDS = {"ambient": "domain", "graph": "domain", "qh": "domain",
                "deformed": "deformation", "qh-of": "deformation"}
# tuple arity drawn from a check's pool: the pool must hold one tuple of distinct points
_POOL_ARITY = {
    "metric_axioms": 3,
    "gromov_basepoint_identity": 6,
    "delta_hyperbolicity": 4,
    "quasimobius_slope": 4,
    "sphericalization_distortion": 4,
}


def validate_scenario(raw: dict) -> dict:
    """Structural validation; raises ConfigurationError naming the field."""
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        _fail("schema", f"must be {SCHEMA_VERSION}")
    if "seed" not in raw or not isinstance(raw["seed"], int):
        _fail("seed", "must be present and an integer (determinism contract)")
    domains = raw.get("domains", [])
    if not isinstance(domains, list) or not domains:
        _fail("domains", "must be a non-empty list")
    names = set()
    for a, dom in enumerate(domains):
        path = f"domains[{a}]"
        _check_object(dom, path)
        if "name" not in dom:
            _fail(path + ".name", "missing")
        _check_name(dom["name"], path + ".name")
        if dom["name"] in names:
            _fail(path + ".name", f"duplicate name {dom['name']!r}")
        names.add(dom["name"])
        if ("shape" in dom) == ("graph" in dom):
            _fail(path, "needs exactly one of 'shape' or 'graph'")
        if "shape" in dom:
            ShapeSpec.from_json(dom["shape"])
        else:
            _check_graph(dom["graph"], path + ".graph")
    def_names = set()
    for a, d in enumerate(_check_list(raw.get("deformations", []), "deformations")):
        path = f"deformations[{a}]"
        _check_object(d, path)
        for key in ("name", "domain", "kind"):
            if key not in d:
                _fail(f"{path}.{key}", "missing")
        _check_name(d["name"], f"{path}.name")
        _check_name(d["domain"], f"{path}.domain", names, "domain")
        if d["name"] in def_names or d["name"] in names:
            _fail(f"{path}.name", "duplicate name")
        def_names.add(d["name"])
        if d["kind"] not in ("uniformize", "sphericalize"):
            _fail(f"{path}.kind", "must be 'uniformize' or 'sphericalize'")
        if d["kind"] == "uniformize" and "epsilon" in d:
            _check_range(d["epsilon"], f"{path}.epsilon", 0.0, 1.0, True, True)
        if "base_point" not in d:
            _fail(f"{path}.base_point", "missing")
        _check_base_point(d["base_point"], f"{path}.base_point", d["kind"])
    map_names = set()
    for a, mp in enumerate(_check_list(raw.get("mappings", []), "mappings")):
        path = f"mappings[{a}]"
        _check_object(mp, path)
        for key in ("name", "map", "source", "target"):
            if key not in mp:
                _fail(f"{path}.{key}", "missing")
        _check_name(mp["name"], f"{path}.name")
        for key in ("source", "target"):
            _check_name(mp[key], f"{path}.{key}", names, "domain")
        map_names.add(mp["name"])
    for a, chk in enumerate(_check_list(raw.get("checks", []), "checks")):
        path = f"checks[{a}]"
        _check_object(chk, path)
        cid = chk.get("check")
        if not isinstance(cid, str) or cid not in _CHECKS:
            _fail(f"{path}.check", f"unknown check id {cid!r}")
        for key, bounds in _CHECK_RANGES.items():
            if key in chk:
                _check_range(chk[key], f"{path}.{key}", *bounds)
        for key in _SAMPLE_SIZES:
            if key in chk:
                _check_count(chk[key], f"{path}.{key}")
        arity = _POOL_ARITY.get(cid)
        if arity and chk.get("pool", arity) < arity:
            _fail(f"{path}.pool", f"must be >= {arity} to hold one {arity}-tuple")
        refs = {"domain": names, "mapping": map_names, "deformation": def_names,
                "deformation0": def_names, "deformation1": def_names}
        for key, known in refs.items():
            if key in chk:
                _check_name(chk[key], f"{path}.{key}", known, key.rstrip("01"))
        if "space" in chk:  # kind:name, a name of the sort that the kind reads
            _check_name(chk["space"], f"{path}.space")
            kind, _, name = chk["space"].partition(":")
            if kind not in _SPACE_KINDS:
                _fail(f"{path}.space", f"unknown space kind {kind!r}; use one of "
                      + ", ".join(_SPACE_KINDS))
            what = _SPACE_KINDS[kind]
            _check_name(name, f"{path}.space", names if what == "domain" else def_names, what)
    tol = raw.get("tolerances", {})
    _check_object(tol, "tolerances")
    for key, bounds in _TOLERANCE_RANGES.items():
        if key in tol:
            _check_range(tol[key], f"tolerances.{key}", *bounds)
    for key in _TOLERANCE_SIZES:
        if key in tol:
            _check_count(tol[key], f"tolerances.{key}")
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
        self.seed = int(seed if seed is not None else raw["seed"])
        tol = dict(DEFAULTS)
        tol.update(raw.get("tolerances", {}))
        self.slack = float(tol["slack"])
        self.defaults = tol
        self.band_h = float(tol["band_h"])
        self.domains = {}
        self.sides = {}
        self.resolutions = {}
        build_rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xD0]))
        for dom in raw["domains"]:
            name = dom["name"]
            if "shape" in dom:
                spec = ShapeSpec.from_json(dom["shape"])
                if resolution_override is not None:
                    spec = ShapeSpec(spec.kind, spec.params, resolution_override)
                domain = build_grid_domain(spec, self.band_h)
            else:
                g = dom["graph"]
                domain = domain_from_length_graph(
                    g["vertices"], g["edges"], g.get("boundary", []), g.get("lengths")
                )
            qh = QuasihyperbolicMetric(domain)
            self.domains[name] = (domain, qh)
            self.sides[name] = DomainSide(domain, qh)
            self.resolutions[name] = domain.resolution
        self.deformations = {}
        self.bases = {}   # deformation name -> side of the domain it deforms
        for d in raw.get("deformations", []):
            domain, qh = self.domains[d["domain"]]
            self.bases[d["name"]] = self.sides[d["domain"]]
            if d["kind"] == "uniformize":
                space = uniformize(domain, qh, d["base_point"], float(d.get("epsilon", 0.2)))
            else:
                space = sphericalize(
                    domain,
                    d["base_point"],
                    max_points=int(tol.get("chain_points", 3500)),
                    rng=build_rng,
                )
            self.deformations[d["name"]] = space
        self.mappings = {}
        for mp in raw.get("mappings", []):
            src = self.sides[mp["source"]]
            tgt = self.sides[mp["target"]]
            self.mappings[mp["name"]] = builtin_mapping(mp["map"], mp.get("params", {}), src, tgt)

    def space_view(self, ref: str):
        kind, _, name = ref.partition(":")
        if kind == "ambient" and name in self.domains:
            return EuclideanView(self.domains[name][0].coords)
        if kind == "graph" and name in self.domains:
            return self.domains[name][0].graph_view()
        if kind == "qh" and name in self.domains:
            return self.domains[name][1].view()
        if kind == "deformed" and name in self.deformations:
            return self.deformations[name].metric_view()
        if kind == "qh-of" and name in self.deformations:
            return self.deformations[name].qh_view()
        raise ConfigurationError(
            f"unknown space reference {ref!r}; use ambient:/graph:/qh:<domain> or "
            "deformed:/qh-of:<deformation>"
        )


# ---------------------------------------------------------------------------
# checks


def _result(cid, params, passed, measured, predicted=None, violations=None, skipped=0, notes=None):
    measured = {k: _jsonable(v) for k, v in (measured or {}).items()}
    predicted = {k: _jsonable(v) for k, v in (predicted or {}).items()}
    violations = violations or []
    if not passed and not violations:
        # failing entries always carry a witness; for scalar comparisons
        # the witness is the measured-vs-predicted record itself
        violations = [{"measured": measured, "predicted": predicted}]
    return {
        "check": cid,
        "params": params,
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


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return list(v)
    return v


def _chk_metric_axioms(ctx, params, rng):
    view = ctx.space_view(params.get("space", ""))
    n_triples = int(params.get("triples", ctx.defaults["pairs"]))
    report = check_metric_axioms(view, n_triples, rng, pool_size=int(params.get("pool", 96)))
    _require_samples(report.n_triples, "triples")
    return _result(
        "metric_axioms",
        params,
        report.passed,
        {
            "max_symmetry_defect": report.max_symmetry_defect,
            "max_triangle_defect": report.max_triangle_defect,
            "max_identity_defect": report.max_identity_defect,
        },
        {"tolerance": report.tolerance},
    )


def _segment_oracle(domain, a, b):
    from scipy.integrate import quad

    a = np.asarray(a, float)
    b = np.asarray(b, float)
    length = float(np.hypot(*(b - a)))

    def integrand(t):
        p = a + t * (b - a)
        return length / float(domain.boundary_distance_at(p[None, :])[0])

    value, _ = quad(integrand, 0.0, 1.0, limit=200)
    return value


def _chk_qh_calibration(ctx, params, rng):
    name = params["domain"]
    domain, qh = ctx.domains[name]
    tol = float(params.get("tol", 0.02))
    measured = {}
    violations = []
    passed = True
    snapped = []
    for idx, seg in enumerate(params.get("segments", [])):
        i = int(domain.nearest_vertex([seg["x"]])[0])
        j = int(domain.nearest_vertex([seg["y"]])[0])
        snapped.append((domain.coords[i], domain.coords[j]))
        k_val = qh.distance(i, j)
        oracle = _segment_oracle(domain, domain.coords[i], domain.coords[j])
        rel = abs(k_val - oracle) / oracle
        measured[f"segment{idx}_k"] = k_val
        measured[f"segment{idx}_oracle"] = oracle
        measured[f"segment{idx}_rel_error"] = rel
        if rel > tol:
            passed = False
            violations.append({"segment": idx, "k": k_val, "oracle": oracle, "rel_error": rel})
    notes = []
    if params.get("truncation_sensitivity"):
        if not is_unbounded_truncation(ctx.sides[name]):
            raise ConfigurationError("truncation_sensitivity applies only to truncated shapes")
        spec = domain.shape
        big = ShapeSpec(
            spec.kind,
            {**spec.params, "radius": 2.0 * float(spec.params.get("radius", 6.0))},
            spec.resolution,
        )
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
    return _result("qh_calibration", params, passed, measured, {"tol": tol}, violations, notes=notes)


def _chk_distance_vs_qh_bounds(ctx, params, rng):
    domain, qh = ctx.domains[params["domain"]]
    n_pairs = int(params.get("pairs", ctx.defaults["pairs"]))
    pairs = pair_sample(domain.n, n_pairs, rng)
    report = verify_qh_distance_bounds(qh, pairs, slack=float(params.get("slack", ctx.slack)))
    _require_samples(report.n_pairs, "pairs")
    return _result(
        "distance_vs_qh_bounds",
        params,
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


def _chk_ball_containment(ctx, params, rng):
    domain, _ = ctx.domains[params["domain"]]
    n_centers = int(params.get("centers", 100))
    slack = float(params.get("slack", 1.0))
    expect_violation = bool(params.get("expect_violation", False))
    centers = rng.permutation(domain.n)[:n_centers]
    _require_samples(len(centers), "centers")
    violations = []
    for c in centers:
        r = safe_ball_radius(domain, int(c)) / slack
        rep = check_ball_containment(domain, int(c), r)
        if not rep.contained:
            violations.append({"center": list(rep.center), "radius": rep.radius, "witness": list(rep.witness)})
    found = len(violations) > 0
    passed = found if expect_violation else not found
    return _result(
        "ball_containment",
        params,
        passed,
        {"n_centers": len(centers), "n_violations": len(violations)},
        {"radius_rule": f"2*d_G(x)/(2+c)/{slack}"},
        violations[:16],
    )


def _chk_basepoint_identity(ctx, params, rng):
    view = ctx.space_view(params.get("space", ""))
    n_tuples = int(params.get("tuples", 100_000))
    pool = pool_indices(view.n, int(params.get("pool", 64)), rng)
    dist = view.submatrix(pool)
    tuples = tuple_sample_from_pool(len(pool), n_tuples, 6, rng)
    _require_samples(len(tuples), "tuples")
    residuals = basepoint_identity_residuals(dist, tuples)
    scale = max(1.0, float(dist.max(initial=0.0)))
    tol = 1e-12 * scale
    worst = float(residuals.max(initial=0.0))
    return _result(
        "gromov_basepoint_identity",
        params,
        worst <= tol,
        {"max_residual": worst, "n_tuples": len(tuples)},
        {"tolerance": tol},
    )


def _chk_delta(ctx, params, rng):
    view = ctx.space_view(params.get("space", ""))
    report = estimate_delta(
        view,
        n_quadruples=int(params.get("quadruples", ctx.defaults["pairs"])),
        rng=rng,
        pool_size=int(params.get("pool", 64)),
        exhaustive=bool(params.get("exhaustive", False)),
        seed_label=ctx.seed,
    )
    _require_samples(report.quadruples_tested, "quadruples")
    max_delta = params.get("max_delta")
    passed = True if max_delta is None else report.delta <= float(max_delta)
    return _result(
        "delta_hyperbolicity",
        params,
        passed,
        {"delta": report.delta, "quadruples_tested": report.quadruples_tested,
         "pool_size": report.pool_size},
        {} if max_delta is None else {"max_delta": float(max_delta)},
    )


def _uniformity_a(domain, qh, params, rng):
    """Uniformity constant A of the domain on a small pair sample."""
    upairs = pair_sample(domain.n, int(params.get("uniformity_pairs", 160)), rng,
                         n_sources=int(params.get("sources", 20)))
    return estimate_uniformity(domain, qh, upairs).constant_a


def _chk_uniformity(ctx, params, rng):
    domain, qh = ctx.domains[params["domain"]]
    n_pairs = int(params.get("pairs", 200))
    pairs = pair_sample(domain.n, n_pairs, rng, n_sources=int(params.get("sources", 24)))
    report = estimate_uniformity(domain, qh, pairs)
    _require_samples(report.n_pairs, "pairs")
    max_a = params.get("max_a")
    passed = True if max_a is None else report.constant_a <= float(max_a)
    return _result(
        "uniformity",
        params,
        passed,
        {"constant_a": report.constant_a, "n_pairs": report.n_pairs,
         "worst_pair": list(report.worst_pair)},
        {} if max_a is None else {"max_a": float(max_a)},
    )


def _chk_starlikeness(ctx, params, rng):
    domain, qh = ctx.domains[params["domain"]]
    base = params.get("base_point")
    w = None if base is None else int(domain.nearest_vertex([base])[0])
    report = estimate_rough_starlikeness(domain, qh, w, max_rays=int(params.get("max_rays", 256)))
    max_k = params.get("max_k")
    passed = True if max_k is None else report.starlikeness_k <= float(max_k)
    return _result(
        "rough_starlikeness",
        params,
        passed,
        {"starlikeness_k": report.starlikeness_k, "base_point": list(report.base_point)},
        {} if max_k is None else {"max_k": float(max_k)},
    )


def _chk_deformed_diameter(ctx, params, rng):
    space = ctx.deformations[params["deformation"]]
    if space.kind != "uniformize":
        raise ConfigurationError("deformed_diameter applies to uniformize deformations")
    slack = float(params.get("slack", ctx.slack))
    diam = space.diameter_estimate()
    base_bd = float(space.boundary_distance()[space.w])
    bound_diam = 2.0 / space.eps
    bound_bd = 1.0 / (space.eps * np.e)
    passed = diam <= bound_diam * slack and base_bd >= bound_bd / slack
    return _result(
        "deformed_diameter",
        params,
        passed,
        {"diameter": diam, "base_boundary_distance": base_bd, "epsilon": space.eps},
        {"max_diameter": bound_diam * slack, "min_base_boundary_distance": bound_bd / slack},
    )


def _chk_comparability(ctx, params, rng):
    space = ctx.deformations[params["deformation"]]
    n_pairs = int(params.get("pairs", ctx.defaults["quadruples"]))
    pairs = pair_sample(space.n, n_pairs, rng)
    report = verify_deformation_comparability(space, pairs)
    return _result(
        "deformation_comparability",
        params,
        report.finite,
        {"constant": report.constant, "max_ratio": report.max_ratio,
         "min_ratio": report.min_ratio, "n_pairs": report.n_pairs},
        skipped=report.n_skipped,
    )


def _chk_basepoint_change(ctx, params, rng):
    s0 = ctx.deformations[params["deformation0"]]
    s1 = ctx.deformations[params["deformation1"]]
    report = basepoint_change_distortion(
        s0, s1, n_quadruples=int(params.get("quadruples", ctx.defaults["quadruples"])), rng=rng
    )
    return _result(
        "basepoint_change",
        params,
        np.isfinite(report.slope) and report.slope > 0,
        {"slope": report.slope, "n_quadruples": report.n_quadruples},
        skipped=report.n_skipped,
    )


def _chk_spher_envelope(ctx, params, rng):
    space = ctx.deformations[params["deformation"]]
    if space.kind != "sphericalize":
        raise ConfigurationError("sphericalization_envelope needs a sphericalize deformation")
    n_pairs = int(params.get("pairs", ctx.defaults["quadruples"]))
    pairs = pair_sample(space.n, n_pairs, rng, n_sources=int(params.get("sources", 48)))
    report = sphericalization_envelope(space, pairs)
    _require_samples(report.n_pairs, "pairs")
    return _result(
        "sphericalization_envelope",
        params,
        report.passed,
        {"min_chain_over_quasi": report.min_chain_over_quasi,
         "max_chain_over_quasi": report.max_chain_over_quasi, "n_pairs": report.n_pairs},
        {"lower": 0.25, "upper": 1.0},
    )


def _chk_spher_distortion(ctx, params, rng):
    space = ctx.deformations[params["deformation"]]
    if space.kind != "sphericalize":
        raise ConfigurationError("sphericalization_distortion needs a sphericalize deformation")
    slack = float(params.get("slack", ctx.slack))
    base = ctx.bases[params["deformation"]]

    src_side = DomainSide(base.domain, base.metric, subset=space.active)
    tgt_side = DeformedSide(space)
    identity = build_mapping(src_side, tgt_side, None, None, name="sphericalization-identity")

    quad_n = int(params.get("quadruples", ctx.defaults["quadruples"]))
    qm = estimate_quasimobius(identity, n_quadruples=quad_n, rng=rng,
                              pool_size=int(params.get("pool", 64)))

    a_meas = _uniformity_a(base.domain, base.metric, params, rng)

    n_pairs = int(params.get("pairs", ctx.defaults["quadruples"]))
    pairs = pair_sample(identity.source.n, n_pairs, rng, n_sources=int(params.get("sources", 20)))
    m_hat = estimate_qh_bilipschitz(identity, pairs)
    _require_samples(qm.n_quadruples, "quadruples")
    _require_samples(m_hat.n_samples, "pairs")

    qm_bound = 16.0 * slack
    m_bound = 80.0 * a_meas * slack
    passed = qm.slope <= qm_bound and m_hat.value <= m_bound
    return _result(
        "sphericalization_distortion",
        params,
        passed,
        {"quasimobius_slope": qm.slope, "qh_bilipschitz": m_hat.value,
         "uniformity_a": a_meas, "n_quadruples": qm.n_quadruples},
        {"max_quasimobius_slope": qm_bound, "max_qh_bilipschitz": m_bound},
        skipped=qm.n_skipped,
    )


def _chain_common(ctx, params, rng):
    m = ctx.mappings[params["mapping"]]
    n_balls = int(params.get("balls", ctx.defaults["balls"]))
    pts = int(params.get("pts_per_ball", 8))
    n_pairs = int(params.get("pairs", min(ctx.defaults["pairs"], 4000)))
    c = m.source.domain.quasiconvexity if isinstance(m.source, DomainSide) else 1.0
    return m, n_balls, pts, n_pairs, c, float(params.get("slack", ctx.slack))


def _chk_chain_linear(ctx, params, rng):
    m, n_balls, pts, n_pairs, c, slack = _chain_common(ctx, params, rng)
    lam = float(params.get("lam", 0.2))
    balls = sample_balls(m.source, lam, n_balls, pts, rng)
    l_meas = estimate_boundary_lipschitz(m, lam, balls=balls).value
    c1_meas = estimate_relative(m, lam, balls=balls).value

    qh_pairs = sample_qh_pairs(
        m, n_pairs, rng,
        clearance_h=float(params.get("clearance_h", 4.0)),
        image_clearance_h=float(params.get("image_clearance_h", 12.0)),
        min_qh=float(params.get("min_qh", 2.0)),
    )
    semisolid = estimate_semisolid(m, qh_pairs)
    if semisolid.n_samples == 0:
        raise ConfigurationError("semisolid sample is empty; relax clearance filters or refine")
    c2_meas = semisolid.value
    led_23 = predicted_constants(
        "relative_to_semisolid", {"c": c, "c1": max(c1_meas, 1.0), "t0": lam}
    )
    led_31 = predicted_constants("semisolid_to_lipschitz", {"c": c, "c2": max(c2_meas, 1.0)})
    l3_meas = estimate_boundary_lipschitz(m, led_31["lam"], n_balls=n_balls, pts_per_ball=pts,
                                          rng=rng).value

    checks = {
        "relative_le_lipschitz": c1_meas <= l_meas * slack,
        "semisolid_le_predicted": c2_meas <= led_23["semisolid_slope"] * slack,
        "lipschitz_le_predicted": l3_meas <= led_31["l"] * slack,
    }
    return _result(
        "distortion_chain_linear",
        params,
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


def _chk_chain_local(ctx, params, rng):
    m, n_balls, pts, n_pairs, c, slack = _chain_common(ctx, params, rng)
    t0 = float(params.get("t0", 0.2))
    c1_bi = estimate_relative(m, t0, n_balls=n_balls, pts_per_ball=pts, rng=rng,
                              bilateral=True).value
    c1_bi = max(c1_bi, 1.0)
    led_34 = predicted_constants("relative_to_local_bilipschitz", {"c1": c1_bi, "t0": t0})
    theta1 = led_34["theta1"]

    balls = sample_balls(m.source, theta1, n_balls, pts, rng)
    lb = estimate_local_bilipschitz(m, theta1, balls=balls)
    qs_fwd = estimate_local_quasisymmetry(m, theta1, balls=balls)
    qs_inv = estimate_local_quasisymmetry(m.inverse(), theta1, n_balls=n_balls,
                                          pts_per_ball=pts, rng=rng)
    qs_bi = max(qs_fwd.value, qs_inv.value, 1.0)

    led_36 = predicted_constants("local_qs_to_lipschitz", {"c": c, "c2": qs_bi, "q": theta1})
    l6_meas = estimate_boundary_lipschitz(m, led_36["lam"], n_balls=n_balls, pts_per_ball=pts,
                                          rng=rng, bilateral=True).value

    checks = {
        "local_bilipschitz_le_predicted": lb.l1 <= led_34["l1"] * slack,
        "local_qs_le_l1_squared": qs_fwd.value <= lb.l1 ** 2 * slack,
        "lipschitz_le_predicted": l6_meas <= led_36["l"] * slack,
    }
    return _result(
        "distortion_chain_local",
        params,
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


def _chk_qi_step(ctx, params, rng):
    m, n_balls, pts, n_pairs, _, slack = _chain_common(ctx, params, rng)
    q = float(params.get("q", 0.5))
    eta_slope = max(estimate_local_quasisymmetry(m, q, n_balls=n_balls, pts_per_ball=pts,
                                                 rng=rng, bilateral=True).value, 1.0)

    a_meas = max(_uniformity_a(side.domain, side.metric, params, rng)
                 for side in (m.source, m.target))

    i, j = sample_qh_pairs(
        m, n_pairs, rng,
        clearance_h=float(params.get("clearance_h", 4.0)),
        image_clearance_h=float(params.get("image_clearance_h", 8.0)),
        min_qh=0.0,
    )
    # inject adjacent pairs so the small-scale gate is populated
    edges = m.source.domain.graph.edges
    if len(edges):
        pick = rng.integers(0, len(edges), size=min(1000, len(edges)))
        i = np.concatenate([i, edges[pick, 0]])
        j = np.concatenate([j, edges[pick, 1]])
    report = estimate_quasi_isometry(
        m, (i, j),
        step_inputs={"uniformity_a": a_meas, "q": q, "eta_slope": eta_slope},
        slack=slack,
    )
    return _result(
        "qi_step_bound",
        params,
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


def _chk_quasimobius(ctx, params, rng):
    m = ctx.mappings[params["mapping"]]
    n_quad = int(params.get("quadruples", ctx.defaults["quadruples"]))
    sep = 0.0
    if "separation_frac" in params:
        # stability studies run on a separated net: the bare linear
        # envelope diverges along degenerating quadruples for maps with
        # nonlinear distortion control
        diam = float(np.hypot(*(m.source.coords.max(axis=0) - m.source.coords.min(axis=0))))
        sep = diam / float(params["separation_frac"])
    pool = int(params.get("pool", 64))
    if "stability_drift" in params:
        # prefix study: the small sample is the head of the large one, so
        # the drift isolates genuine tail growth of the envelope
        quad = sample_quadruples(m, 10 * n_quad, rng, pool_size=pool, min_separation=sep)
        report = estimate_quasimobius(m, quadruples=quad[:n_quad])
        bigger = estimate_quasimobius(m, quadruples=quad)
    else:
        report = estimate_quasimobius(m, n_quadruples=n_quad, rng=rng,
                                      pool_size=pool, min_separation=sep)
        bigger = None
    _require_samples(report.n_quadruples, "quadruples")
    measured = {"slope": report.slope, "n_quadruples": report.n_quadruples}
    predicted = {}
    passed = np.isfinite(report.slope)
    if "max_slope" in params:
        predicted["max_slope"] = float(params["max_slope"])
        passed = passed and report.slope <= predicted["max_slope"]
    if bigger is not None:
        drift = abs(bigger.slope - report.slope) / report.slope
        measured["slope_at_10x"] = bigger.slope
        measured["stability_drift"] = drift
        predicted["max_stability_drift"] = float(params["stability_drift"])
        passed = passed and drift <= predicted["max_stability_drift"]
    return _result("quasimobius_slope", params, passed, measured, predicted,
                   skipped=report.n_skipped)


def _chk_global_qs(ctx, params, rng):
    m = ctx.mappings[params["mapping"]]
    slack = float(params.get("slack", ctx.slack))
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
                p = side.domain.boundary_coords[int(np.argmin(gaps))]
                space = sphericalize(side.domain, p, max_points=1500, rng=rng)
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
    a_meas = _uniformity_a(m.source.domain, m.source.metric, params, rng)
    measured["uniformity_a"] = a_meas
    bound = 4.0 * a_meas * slack
    return _result(
        "global_qs_hypotheses",
        params,
        c0 <= bound,
        measured,
        {"max_c0": bound},
        notes=notes,
    )


_CHECKS = {
    "metric_axioms": _chk_metric_axioms,
    "qh_calibration": _chk_qh_calibration,
    "distance_vs_qh_bounds": _chk_distance_vs_qh_bounds,
    "ball_containment": _chk_ball_containment,
    "gromov_basepoint_identity": _chk_basepoint_identity,
    "delta_hyperbolicity": _chk_delta,
    "uniformity": _chk_uniformity,
    "rough_starlikeness": _chk_starlikeness,
    "deformed_diameter": _chk_deformed_diameter,
    "deformation_comparability": _chk_comparability,
    "basepoint_change": _chk_basepoint_change,
    "sphericalization_envelope": _chk_spher_envelope,
    "sphericalization_distortion": _chk_spher_distortion,
    "distortion_chain_linear": _chk_chain_linear,
    "distortion_chain_local": _chk_chain_local,
    "qi_step_bound": _chk_qi_step,
    "quasimobius_slope": _chk_quasimobius,
    "global_qs_hypotheses": _chk_global_qs,
}


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
        params = {k: v for k, v in chk.items() if k != "check"}
        try:
            return _CHECKS[chk["check"]](ctx, params, rng)
        except ConfigurationError as exc:
            return _result(chk["check"], params, False, {}, notes=[f"infeasible: {exc}"])

    if jobs > 1 and len(checks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, enumerate(checks)))
    else:
        results = [run_one(item) for item in enumerate(checks)]

    return {
        "schema": SCHEMA_VERSION,
        "seed": ctx.seed,
        "slack": ctx.slack,
        "sample_defaults": {k: ctx.defaults[k] for k in ("pairs", "balls", "quadruples")},
        "band_h": ctx.band_h,
        "resolutions": ctx.resolutions,
        "scenario": raw,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }


def report_to_json_bytes(report: dict) -> bytes:
    return json.dumps(report, indent=2, sort_keys=False).encode("utf-8")


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
