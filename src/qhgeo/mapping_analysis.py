"""Distortion estimators for sampled homeomorphisms between domains.

Every estimator reports a sampled maximum, i.e. a lower bound of the true
constant; comparison checks against predicted constants are therefore
one-sided.  A mapping is an analytic map between two ``DomainSide``s,
evaluated exactly at off-lattice points; only quasihyperbolic queries go
through grid snapping, whose error is absorbed by the verification slack.

Every estimator measures the sample it is given, drawn by its caller.  The
four ball estimators (boundary Lipschitz, relative slope, local biLipschitz,
local quasisymmetry) can share one ``BallSample`` of continuum points;
``_ball_pair_matrices`` turns it into (B, P, P) distance tensors, so each
estimator has a single body.  ``bilateral`` gives two-sided data: the larger
of an estimate on the map and on its inverse, each over a fresh ball sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .metric_core import DomainSample
from .quasihyperbolic import QuasihyperbolicMetric
from .sampling import distinct_pairs, pool_quadruples, tuple_sample_from_pool
from .views import euclidean_table


class DomainSide:
    """One side of a mapping: every vertex of a domain, with the Euclidean ambient metric.

    Points snap by the domain's ``nearest_vertex`` (its one k-d tree), and boundary
    distances are the domain's, at vertices and at arbitrary points.  ``metric`` is the
    domain's quasihyperbolic metric, or None when the side carries none.
    """

    def __init__(self, domain: DomainSample, qh: QuasihyperbolicMetric | None = None):
        self.domain = domain
        self.metric = qh
        self.coords = domain.coords
        self.ambient = domain.ambient_view()
        self.boundary_distance = domain.boundary_distance
        self.resolution = domain.resolution
        self.nearest_vertex = domain.nearest_vertex
        self.boundary_distance_at = domain.boundary_distance_at
        self.n = domain.n

    def qh_pairs(self, i, j) -> np.ndarray:
        if self.metric is None:
            raise ConfigurationError("a mapping side carries no quasihyperbolic metric")
        return self.metric.pairs(i, j)


@dataclass
class MappingPair:
    """Sampled homeomorphism between two domain sides.

    ``forward_fn``/``inverse_fn`` evaluate the analytic map and its inverse
    on (m, 2) coordinate arrays; ``forward_idx``/``inverse_idx`` are the
    grid-snapped correspondences used for quasihyperbolic queries.
    """

    source: DomainSide
    target: DomainSide
    forward_idx: np.ndarray
    inverse_idx: np.ndarray
    forward_fn: object
    inverse_fn: object
    roundtrip_error: float = 0.0
    snap_error: float = 0.0

    def inverse(self) -> "MappingPair":
        return MappingPair(
            self.target,
            self.source,
            self.inverse_idx,
            self.forward_idx,
            self.inverse_fn,
            self.forward_fn,
            roundtrip_error=self.roundtrip_error,
            snap_error=self.snap_error,
        )

    def image_coords(self, idx) -> np.ndarray:
        return self.forward_fn(self.source.coords[np.asarray(idx, dtype=np.intp)])

    def image_distance(self, i, j) -> np.ndarray:
        """d'(f(x_i), f(x_j)) for vertex index arrays."""
        a = self.image_coords(i)
        b = self.image_coords(j)
        return np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])

    def image_boundary_distance(self, idx) -> np.ndarray:
        return self.target.boundary_distance_at(self.image_coords(idx))

    def image_qh_pairs(self, i, j) -> np.ndarray:
        return self.target.qh_pairs(
            self.forward_idx[np.asarray(i, np.intp)], self.forward_idx[np.asarray(j, np.intp)]
        )


def build_mapping(source: DomainSide, target: DomainSide, forward_fn, inverse_fn) -> MappingPair:
    """Snap an analytic homeomorphism to the two grids.

    Raises ConfigurationError naming the first vertex that the map sends outside the
    target domain, or its inverse outside the source domain; an imported graph has no
    geometry to test against, so its side is not tested.  Records a round-trip
    diagnostic (max |f^-1(f(x)) - x| over source vertices) instead of enforcing exact
    bijectivity.
    """
    fwd_img = np.asarray(forward_fn(source.coords), float)
    inv_img = np.asarray(inverse_fn(target.coords), float)
    for direction, side, img, start, end in (("forward", target, fwd_img, "source", "target"),
                                             ("inverse", source, inv_img, "target", "source")):
        if side.domain.geometry is None:  # an imported graph
            continue
        outside = np.flatnonzero(~side.domain.contains(img))
        if len(outside):
            x, y = img[outside[0]]
            raise ConfigurationError(f"the {direction} map sends {start} vertex {outside[0]} to "
                                     f"({x:.6g}, {y:.6g}), outside the {end} domain")
    forward_idx = np.asarray(target.nearest_vertex(fwd_img), dtype=np.intp)
    inverse_idx = np.asarray(source.nearest_vertex(inv_img), dtype=np.intp)
    back = np.asarray(inverse_fn(fwd_img), float)
    roundtrip = float(np.hypot(*(back - source.coords).T).max())
    snapped = target.coords[forward_idx]
    snap_err = float(np.hypot(*(snapped - fwd_img).T).max())
    return MappingPair(
        source,
        target,
        forward_idx,
        inverse_idx,
        forward_fn,
        inverse_fn,
        roundtrip_error=roundtrip,
        snap_error=snap_err,
    )


# ---------------------------------------------------------------------------
# ball sampling


@dataclass
class BallSample:
    """Shared sample of metric balls B(x, q d_G(x)), one row of P points per center.

    Slot 0 is always the center itself, so center-anchored ratios
    (relative maps) are a subset of the pairwise ratios used by the
    ball-based estimators, which keeps the cross-estimator comparisons
    exact on a common sample.
    """

    centers: np.ndarray          # (B,) vertex indices
    points: np.ndarray           # (B, P, 2) coordinates, slot 0 = center


def sample_balls(side: DomainSide, q: float, n_balls: int, pts_per_ball: int, rng) -> BallSample:
    """Continuum sample of boundary-proportional balls B(x, q d_G(x))."""
    if not (0.0 < q < 1.0):
        raise ConfigurationError("ball radius factor must lie in (0, 1)")
    rng = np.random.default_rng(rng)
    centers = rng.permutation(side.n)[: min(n_balls, side.n)]
    radii = q * side.boundary_distance[centers]
    B, P = len(centers), pts_per_ball + 1
    pts = np.empty((B, P, 2))
    pts[:, 0, :] = side.coords[centers]
    r = radii[:, None] * np.sqrt(rng.random((B, pts_per_ball)))
    theta = 2.0 * np.pi * rng.random((B, pts_per_ball))
    pts[:, 1:, 0] = pts[:, 0:1, 0] + r * np.cos(theta)
    pts[:, 1:, 1] = pts[:, 0:1, 1] + r * np.sin(theta)
    return BallSample(centers, pts)


def _ball_pair_matrices(m: MappingPair, balls: BallSample):
    """Source and image distance tensors (B, P, P) of a sample, measured on
    coordinates, and the boundary distances d_G(x) and d_G'(f(x)) of its centers.
    """
    pts = balls.points
    img_pts = m.forward_fn(pts.reshape(-1, 2)).reshape(pts.shape)
    src, img = euclidean_table(pts, pts), euclidean_table(img_pts, img_pts)
    dgx_img = m.target.boundary_distance_at(img_pts[:, 0, :])
    return src, img, m.source.boundary_distance[balls.centers], dgx_img


# ---------------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class EstimateResult:
    value: float
    n_samples: int
    n_skipped: int = 0


def bilateral(estimator, m: MappingPair, q: float, n_balls: int, pts_per_ball: int,
              rng) -> float:
    """Two-sided data: the larger of ``estimator`` on m, over a fresh ``sample_balls`` of the
    source, and on m's inverse, over a fresh sample of the target drawn after it."""
    inv = m.inverse()
    return max(estimator(m, sample_balls(m.source, q, n_balls, pts_per_ball, rng)).value,
               estimator(inv, sample_balls(inv.source, q, n_balls, pts_per_ball, rng)).value)


def _boundary_ratio_max(m: MappingPair, balls: BallSample, a, b) -> EstimateResult:
    """max over slot pairs (a, b) of each ball around x of
    [d'(f(a), f(b)) / d_G'(f(x))] / [d(a, b) / d_G(x)]; pairs with d = 0 are skipped."""
    src, img, dgx, dgx_img = _ball_pair_matrices(m, balls)
    num = img[:, a, b] / dgx_img[:, None]
    den = src[:, a, b] / dgx[:, None]
    ok = den > 0
    ratio = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    return EstimateResult(float(ratio.max(initial=0.0)), int(ok.sum()), int((~ok).sum()))


def estimate_boundary_lipschitz(m: MappingPair, balls: BallSample) -> EstimateResult:
    """Boundary-relative Lipschitz constant on balls B(x, lam d_G(x)).

    L = max over centers x and distinct y, z in the ball of x of
    [d'(f(y), f(z)) / d_G'(f(x))] / [d(y, z) / d_G(x)].
    """
    return _boundary_ratio_max(m, balls, *np.triu_indices(balls.points.shape[1], k=1))


def estimate_relative(m: MappingPair, balls: BallSample) -> EstimateResult:
    """Linear relative-distortion slope on balls B(x, t0 d_G(x)).

    c1 = max over centers x and y in the ball of x of
    [d'(f(x), f(y)) / d_G'(f(x))] / [d(x, y) / d_G(x)].
    """
    P = balls.points.shape[1]
    return _boundary_ratio_max(m, balls, np.zeros(P - 1, dtype=np.intp), np.arange(1, P))


@dataclass(frozen=True)
class LocalBiLipschitzResult:
    l1: float
    centers: np.ndarray
    c_x: np.ndarray
    n_skipped: int


def estimate_local_bilipschitz(m: MappingPair, balls: BallSample) -> LocalBiLipschitzResult:
    """Per-center scale table C_x and the residual two-sided constant L1.

    C_x is the median of d'(f(y), f(z)) / d(y, z) over ball pairs (robust
    to outliers); L1 is the worst max(ratio/C_x, C_x/ratio) over
    centers with C_x > 0.  A pair with d'(f(y), f(z)) = 0 is skipped and
    counted; a ball with no pair left gets C_x = 0.
    """
    src, img, _, _ = _ball_pair_matrices(m, balls)
    iu, ju = np.triu_indices(src.shape[1], k=1)
    ok = img[:, iu, ju] > 0
    ratios = np.where(ok, img[:, iu, ju] / np.where(ok, src[:, iu, ju], 1.0), np.nan)
    c_x = np.nanmedian(np.where(ok.any(axis=1)[:, None], ratios, 0.0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.maximum(ratios / c_x[:, None], c_x[:, None] / ratios)
    spread = np.where(ok & (c_x > 0)[:, None], spread, 1.0)
    return LocalBiLipschitzResult(float(spread.max(initial=1.0)), balls.centers, c_x,
                                  int((~ok).sum()))


def estimate_local_quasisymmetry(m: MappingPair, balls: BallSample) -> EstimateResult:
    """Linear quasisymmetry slope on boundary-proportional balls B(x, q d_G(x)).

    slope = max over balls and distinct triples (x, a, b) in the ball of
    [d'(f(x), f(a)) / d'(f(x), f(b))] / [d(x, a) / d(x, b)].
    """
    src, img, _, _ = _ball_pair_matrices(m, balls)
    # ratio factorizes: slope over (x, a, b) = max_x rowmax/rowmin of
    # r[x, .] = d'(fx, f.) / d(x, .), so the P^3 scan reduces to P^2
    with np.errstate(divide="ignore", invalid="ignore"):
        r = img / src
    valid = ~np.eye(src.shape[1], dtype=bool)
    finite = valid & np.isfinite(r)
    hi = np.where(finite, r, -np.inf).max(axis=2)
    lo = np.where(finite, r, np.inf).min(axis=2)
    # a ball whose image collapses a pair (lo = 0) has no slope
    ok = np.isfinite(hi) & (lo > 0)
    slope = float((hi[ok] / lo[ok]).max(initial=1.0))
    return EstimateResult(slope, int(finite.sum()), int((valid & ~finite).sum()))


def _qh_ratio_pairs(m: MappingPair, pairs):
    i, j, skipped = distinct_pairs(pairs)
    return i, j, m.source.qh_pairs(i, j), m.image_qh_pairs(i, j), skipped


def estimate_semisolid(m: MappingPair, pairs) -> EstimateResult:
    """Linear semisolidity slope: max k'(f(x), f(y)) / k(x, y)."""
    _, _, k_src, k_img, skipped = _qh_ratio_pairs(m, pairs)
    ok = k_src > 0
    ratio = k_img[ok] / k_src[ok]
    return EstimateResult(float(ratio.max(initial=0.0)), int(ok.sum()), skipped + int((~ok).sum()))


def estimate_qh_bilipschitz(m: MappingPair, pairs) -> EstimateResult:
    """Two-sided quasihyperbolic distortion M = max(k'/k, k/k')."""
    return qh_bilipschitz(m.source.qh_pairs, m.image_qh_pairs, pairs)


def qh_bilipschitz(source_pairs, image_pairs, pairs) -> EstimateResult:
    """M = max(k'/k, k/k') over the distinct ``pairs`` of a map with quasihyperbolic pair
    distances ``source_pairs(i, j)`` before it and ``image_pairs(i, j)`` after it; a pair
    with k = 0 or k' = 0 is skipped, and counted."""
    i, j, skipped = distinct_pairs(pairs)
    k_src, k_img = source_pairs(i, j), image_pairs(i, j)
    ok = (k_src > 0) & (k_img > 0)
    ratio = k_img[ok] / k_src[ok]
    value = float(max(ratio.max(initial=0.0), (1.0 / ratio).max(initial=0.0)))
    return EstimateResult(value, int(ok.sum()), skipped + int((~ok).sum()))


@dataclass(frozen=True)
class QuasiIsometryResult:
    additive_c: float
    multiplicative_l: float
    n_pairs: int
    step_bound: float | None = None
    step_threshold: float | None = None
    step_pairs: int = 0
    step_violations: tuple = ()


def estimate_quasi_isometry(
    m: MappingPair,
    pairs,
    step_inputs: dict | None = None,
    slack: float = 1.05,
) -> QuasiIsometryResult:
    """Quasi-isometry data of f between the quasihyperbolic metrics.

    Fits the smallest additive constant at slope 1 (max |k' - k|) and the
    smallest slope at additive 0 (two-sided ratio max).  When
    ``step_inputs`` provides measured (A, q, eta_slope), also sweeps the
    small-scale step bound: pairs with k <= t1 must satisfy
    k' <= 4 A^2 log 2 * slack.
    """
    i, j, k_src, k_img, _ = _qh_ratio_pairs(m, pairs)
    additive = float(np.abs(k_img - k_src).max(initial=0.0))
    ok = (k_src > 0) & (k_img > 0)
    ratio = k_img[ok] / k_src[ok]
    mult = float(max(ratio.max(initial=1.0), (1.0 / ratio).max(initial=1.0)))
    if step_inputs is None:
        return QuasiIsometryResult(additive, mult, len(k_src))

    from .verifier.constants import predicted_constants

    ledger = predicted_constants(
        "local_qs_to_quasi_isometry",
        {
            "uniformity_a": step_inputs["uniformity_a"],
            "q": step_inputs["q"],
            "eta_slope": step_inputs["eta_slope"],
        },
    )
    t1 = ledger["small_scale_threshold"]
    bound = ledger["step_bound"]
    gate = k_src <= t1
    bad = gate & (k_img > bound * slack)
    witnesses = tuple(
        (int(i[a]), int(j[a]), float(k_src[a]), float(k_img[a])) for a in np.flatnonzero(bad)[:16]
    )
    return QuasiIsometryResult(
        additive,
        mult,
        len(k_src),
        step_bound=bound,
        step_threshold=t1,
        step_pairs=int(gate.sum()),
        step_violations=witnesses,
    )


def separated_pool(coords: np.ndarray, size: int, min_separation: float, rng) -> np.ndarray:
    """Greedy net: random traversal keeping points pairwise separated."""
    order = rng.permutation(len(coords))
    kept: list[int] = []
    kept_coords = np.empty((0, 2))
    for c in order:
        p = coords[c]
        if len(kept) and np.hypot(*(kept_coords - p).T).min() < min_separation:
            continue
        kept.append(int(c))
        kept_coords = np.vstack([kept_coords, p])
        if len(kept) >= size:
            break
    if len(kept) < 4:
        raise ConfigurationError(
            f"separation {min_separation} leaves fewer than 4 pool points; decrease it"
        )
    return np.sort(np.asarray(kept, dtype=np.intp))


def sample_quadruples(
    m: MappingPair,
    n_quadruples: int,
    rng,
    pool_size: int = 64,
    min_separation: float = 0.0,
) -> np.ndarray:
    """Vertex quadruples of the source from a random pool, or from a separated net with
    ``min_separation``: the bare linear quasimobius slope has no finite supremum for maps with
    genuinely nonlinear distortion control (degenerating quadruples push it up without bound),
    so stability studies compare envelopes over a net, where the configuration family is
    compact and the sampled max saturates."""
    rng = np.random.default_rng(rng)
    if min_separation <= 0:
        return pool_quadruples(m.source.n, pool_size, n_quadruples, rng)
    pool = separated_pool(m.source.coords, pool_size, min_separation, rng)
    return pool[tuple_sample_from_pool(len(pool), n_quadruples, 4, rng)]


@dataclass(frozen=True)
class QuasimobiusResult:
    slope: float
    source_cross_ratios: np.ndarray
    image_cross_ratios: np.ndarray
    n_quadruples: int
    n_skipped: int


def quasimobius_slope(source_pairs, image_pairs, quadruples) -> QuasimobiusResult:
    """Linear quasimobius slope over vertex ``quadruples`` of a map with pair distances
    ``source_pairs(i, j)`` before it and ``image_pairs(i, j)`` after it.

    Cross-ratios use the convention d(x,z) d(y,w) / [d(x,y) d(z,w)].  A quadruple is skipped,
    and counted, when on either side d(x,y) d(z,w) <= 1e-9 * scale**2, scale being that
    side's largest sampled d(x,y) or d(x,z): an area against an area, so the skips do not
    change with the unit of length.  The raw (cr, cr') scatter is returned for reporting.
    """
    quadruples = np.asarray(quadruples, dtype=np.intp)
    x, y, z, w = (quadruples[:, c] for c in range(4))

    # one query per side over (x,y), (z,w), (x,z), (y,w), so each source is asked once
    a, b = np.concatenate([x, z, x, y]), np.concatenate([y, w, z, w])
    d_xy, d_zw, d_xz, d_yw = source_pairs(a, b).reshape(4, -1)
    i_xy, i_zw, i_xz, i_yw = image_pairs(a, b).reshape(4, -1)

    scale_src = max(d_xy.max(initial=0.0), d_xz.max(initial=0.0))
    scale_img = max(i_xy.max(initial=0.0), i_xz.max(initial=0.0))
    ok = (d_xy * d_zw > 1e-9 * scale_src**2) & (i_xy * i_zw > 1e-9 * scale_img**2)
    cr = d_xz[ok] * d_yw[ok] / (d_xy[ok] * d_zw[ok])
    cr_img = i_xz[ok] * i_yw[ok] / (i_xy[ok] * i_zw[ok])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cr > 0, cr_img / np.where(cr > 0, cr, 1.0), np.inf)
    slope = float(ratio.max(initial=0.0))
    return QuasimobiusResult(slope, cr, cr_img, int(ok.sum()), int((~ok).sum()))


def estimate_quasimobius(m: MappingPair, quadruples) -> QuasimobiusResult:
    """``quasimobius_slope`` of ``m`` from the source's ambient metric to the image's, over
    vertex ``quadruples`` of the source (``sample_quadruples``)."""
    return quasimobius_slope(m.source.ambient.pairs, m.image_distance, quadruples)


@dataclass(frozen=True)
class GlobalQSReport:
    c0: float
    w_index: int
    w: tuple[float, float]
    diam_source: float
    diam_target: float


def _euclid_diameter(coords) -> float:
    if len(coords) <= 2:
        return float(euclidean_table(coords, coords).max(initial=0.0))
    from scipy.spatial import ConvexHull

    hull = coords[ConvexHull(coords).vertices]
    return float(euclidean_table(hull, hull).max())


def is_unbounded_truncation(side: DomainSide) -> bool:
    """True when the side's domain is a finite truncation of an unbounded shape."""
    shape = side.domain.shape
    return shape is not None and shape.kind in (
        "half-plane-truncation", "punctured-plane-truncation",
    )


def check_global_qs_hypotheses(m: MappingPair) -> GlobalQSReport:
    """Diameter-vs-center hypotheses for passing from local to global
    quasisymmetry on bounded spaces.

    Picks w maximizing the source boundary distance; returns
    C0 = max(diam / d_G(w), diam' / d_G'(f(w))).  Truncations of
    unbounded shapes are refused: sphericalize first.
    """
    for side, label in ((m.source, "source"), (m.target, "target")):
        if is_unbounded_truncation(side):
            raise ConfigurationError(
                f"{label} is a truncation of an unbounded shape; sphericalize before "
                "running global quasisymmetry hypotheses"
            )
    w = int(np.argmax(m.source.boundary_distance))
    diam_src = _euclid_diameter(m.source.coords)
    diam_tgt = _euclid_diameter(m.target.coords)
    dg_w = float(m.source.boundary_distance[w])
    dg_img = float(m.image_boundary_distance([w])[0])
    c0 = max(diam_src / dg_w, diam_tgt / dg_img)
    return GlobalQSReport(c0, w, tuple(m.source.coords[w]), diam_src, diam_tgt)


# ---------------------------------------------------------------------------
# pair sampling for quasihyperbolic estimators


def sample_qh_pairs(
    m: MappingPair,
    n_pairs: int,
    rng,
    clearance_h: float = 4.0,
    image_clearance_h: float = 8.0,
    min_qh: float = 0.0,
    n_sources: int | None = None,
):
    """Vertex pairs suited to snapped quasihyperbolic queries.

    Filters control the snapping noise floor: both endpoints keep
    clearance_h grid cells from the source boundary, their images keep
    image_clearance_h cells on the target side, and optionally
    k(x, y) >= min_qh.  The min_qh filter asks the source's quasihyperbolic
    view for k(x, y) (``GraphView.pairs``), which keeps no row: only float16
    landmarks of the full rows it computes, which bound later queries but
    never answer them, so follow-up estimators search again for their pairs.
    """
    rng = np.random.default_rng(rng)
    bd = m.source.boundary_distance
    # clamp clearances so coarse grids keep a workable interior region
    clear_src = min(clearance_h * m.source.resolution, 0.25 * float(bd.max()))
    good = bd >= clear_src
    if image_clearance_h > 0:
        img_bd = m.image_boundary_distance(np.arange(m.source.n))
        clear_tgt = min(image_clearance_h * m.target.resolution, 0.25 * float(img_bd.max()))
        good &= img_bd >= clear_tgt
    candidates = np.flatnonzero(good)
    if len(candidates) < 2:
        raise ConfigurationError("clearance filters left fewer than two vertices")
    if n_sources is None:
        n_sources = max(1, min(len(candidates), int(np.ceil(np.sqrt(n_pairs)))))
    sources = rng.choice(candidates, size=min(n_sources, len(candidates)), replace=False)
    i, j, _ = distinct_pairs((rng.choice(sources, size=n_pairs),
                              rng.choice(candidates, size=n_pairs)))
    if min_qh > 0 and m.source.metric is not None and len(i):
        k = m.source.qh_pairs(i, j)
        floor = min_qh
        if not np.any(k >= floor):
            # the requested floor exceeds the sampled range: keep the top half
            floor = 0.5 * float(k.max())
            warnings.warn(f"qh pair floor relaxed to {floor:.3g} (range too small)")
        i, j = i[k >= floor], j[k >= floor]
    if len(i) == 0:
        warnings.warn("qh pair sampling filters removed every pair")
    return i, j
