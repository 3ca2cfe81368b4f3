"""Conformal deformations of a domain's quasihyperbolic structure.

Two transforms are provided:

- ``uniformize``: length metric with density exp(-eps * k(x, w)) over the
  quasihyperbolic structure.  The result is bounded (diameter at most
  2/eps) and the base point sits deep inside: its boundary distance is at
  least 1/(eps*e).
- ``sphericalize``: one-point-compactifying transform at a boundary point
  p.  The quasimetric d(x,y) / [(1+d(x,p))(1+d(y,p))] is metrized by the
  chain construction, which Ptolemy's inequality makes equal to it up to
  rounding.  ``DenseChainView`` gives its rows on at most ``max_points``
  sampled vertices, bitwise equal to the plain dense Dijkstra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .mapping_analysis import QuasimobiusResult, quasimobius_slope
from .metric_core import DomainSample
from .quasihyperbolic import QuasihyperbolicMetric
from .sampling import pool_indices, tuple_sample_from_pool
from .views import DenseChainView, GraphView, built_once, rows_per_block


def _qh_view(graph, lengths, dg) -> GraphView:
    """Quasihyperbolic view of ``graph`` over arc ``lengths`` (overwritten) and boundary ``dg``."""
    return GraphView(*graph.search_matrix(graph.trapezoid(1.0 / dg, lengths)))


class UniformizedSpace:
    """Deformation of (domain, k) by the density exp(-eps k(., w))."""

    kind = "uniformize"

    def __init__(self, domain: DomainSample, k: QuasihyperbolicMetric, w: int, eps: float):
        if not (0.0 < eps < 1.0):
            raise ConfigurationError("epsilon must lie in (0, 1)")
        if not 0 <= w < domain.n:
            raise ConfigurationError(f"base vertex {w} is not one of the {domain.n} vertices")
        self.domain = domain
        self.k = k
        self.w = int(w)
        self.eps = float(eps)

        self.k_from_base = k.rows([self.w])[0]
        self.density = np.exp(-eps * self.k_from_base)
        self._view = GraphView(*domain.graph.search_matrix(self.arc_weights))
        self._boundary_distance = None
        self._qh_view = None

    @property
    def arc_weights(self) -> np.ndarray:
        """Per-arc weights ``k * (density(u) + density(v)) / 2``, computed on each read."""
        return self.domain.graph.trapezoid(self.density, self.k.arc_weights)

    @property
    def n(self) -> int:
        return self.domain.n

    def metric_view(self) -> GraphView:
        return self._view

    def pairs(self, i, j) -> np.ndarray:
        return self._view.pairs(i, j)

    def boundary_distance(self) -> np.ndarray:
        """Deformed distance from every vertex to the boundary.

        A path to the boundary runs through the graph and then escapes along an inward ray from
        some vertex v; the density integrates to density(v)/eps along the ray.  Realized as one
        shortest-path run on every arc from a virtual sink wired to every vertex with that
        weight: its distances reach 1/eps, past the bound of ``search_matrix``.
        """
        return built_once(self, "_boundary_distance", lambda: self._sink_row(self.arc_weights))

    def _sink_row(self, weights) -> np.ndarray:
        sink = self.domain.graph.sink_matrix(weights, self.density / self.eps)  # copies weights
        return GraphView(sink).rows([self.n])[0, :self.n]

    def qh_view(self) -> GraphView:
        """Quasihyperbolic metric of the deformed space itself."""
        def build():
            # one read of the arc weights serves the boundary distance and the view
            weights = self.arc_weights
            dg = built_once(self, "_boundary_distance", lambda: self._sink_row(weights))
            return _qh_view(self.domain.graph, weights, dg)
        return built_once(self, "_qh_view", build)

    def diameter_estimate(self, n_extremal: int = 32) -> float:
        """Lower bound for the deformed diameter: eccentricity of the base
        point sharpened over pairs of far vertices."""
        row = self._view.rows([self.w])[0]
        far = np.argsort(row)[-n_extremal:]
        sub = self._view.submatrix(far)
        return float(max(row.max(), sub.max()))


class SphericalizedSpace:
    """Chain-metrized sphericalization at a boundary point p."""

    kind = "sphericalize"

    def __init__(self, domain: DomainSample, p, max_points: int = 3500, rng=None):
        self.domain = domain
        p = np.asarray(p, float).reshape(2)
        scale = max(domain.diameter_hint(), 1.0)
        gaps = np.hypot(
            domain.boundary_coords[:, 0] - p[0], domain.boundary_coords[:, 1] - p[1]
        )
        if gaps.min() > 1e-9 * scale:
            raise ConfigurationError(
                "sphericalization base point must be one of the boundary samples"
            )
        self.p = p
        # 1 + d(., p) for every vertex and boundary sample
        self.depth = 1.0 + np.hypot(domain.coords[:, 0] - p[0], domain.coords[:, 1] - p[1])
        self.boundary_depth = 1.0 + gaps

        rng = np.random.default_rng(rng)
        if domain.n > max_points:
            self.active = np.sort(rng.permutation(domain.n)[:max_points]).astype(np.intp)
        else:
            self.active = np.arange(domain.n, dtype=np.intp)
        act = self.active
        self._view = DenseChainView(domain.coords[act], base_point=p)
        self._boundary_distance = None
        self._qh_view = None

    @property
    def n(self) -> int:
        return len(self.active)

    def quasimetric(self, i, j) -> np.ndarray:
        """s_p(x, y) = d(x,y) / [(1+d(x,p))(1+d(y,p))] on active positions."""
        return self._view.quasimetric(i, j)

    def metric_view(self) -> DenseChainView:
        return self._view

    def pairs(self, i, j) -> np.ndarray:
        return self._view.pairs(i, j)

    def boundary_distance(self) -> np.ndarray:
        """Per base vertex: distance to the deformed boundary set.

        The deformed boundary is the image of the base boundary samples
        plus the point at infinity at distance 1/(1+d(x,p)); chains cannot
        improve the infinity term, and the quasimetric to the nearest
        boundary image is within the universal chain factor.  The
        vertex-by-sample quasimetric is formed ``rows_per_block`` rows (about
        1 MiB) at a time; each row's minimum is exact, so the result
        does not depend on the block size.
        """
        def build():
            out = 1.0 / self.depth
            bc = self.domain.boundary_coords
            block = rows_per_block(len(bc))
            for start in range(0, self.domain.n, block):
                rows = slice(start, start + block)
                pts = self.domain.coords[rows]
                s = np.hypot(pts[:, None, 0] - bc[None, :, 0], pts[:, None, 1] - bc[None, :, 1])
                s /= self.depth[rows, None] * self.boundary_depth[None, :]
                np.minimum(out[rows], s.min(axis=1), out=out[rows])
            return out
        return built_once(self, "_boundary_distance", build)

    def qh_view(self) -> GraphView:
        """Quasihyperbolic metric of the sphericalized space (full base graph)."""
        graph = self.domain.graph
        return built_once(self, "_qh_view", lambda: _qh_view(
            graph, graph.arc_map(lambda w, du, dv: w / (du * dv), self.depth),
            self.boundary_distance()))


def uniformize(domain: DomainSample, k: QuasihyperbolicMetric, w, eps: float) -> UniformizedSpace:
    if np.ndim(w) != 0:
        w = int(domain.nearest_vertex(np.asarray(w, float), "base_point")[0])
    return UniformizedSpace(domain, k, int(w), eps)


def sphericalize(domain: DomainSample, p, max_points: int = 3500, rng=None) -> SphericalizedSpace:
    return SphericalizedSpace(domain, p, max_points=max_points, rng=rng)


@dataclass(frozen=True)
class ComparabilityReport:
    constant: float
    max_ratio: float
    min_ratio: float
    n_pairs: int
    n_skipped: int

    @property
    def finite(self) -> bool:
        return np.isfinite(self.constant) and self.constant > 0


def _require_kind(kind, caller, *spaces):
    """Raise naming the kinds unless every space is a ``kind`` deformation."""
    for space in spaces:
        if space.kind != kind:
            raise ConfigurationError(f"{caller} needs a {kind} deformation, not a {space.kind} one")


def verify_deformation_comparability(space: UniformizedSpace, pairs) -> ComparabilityReport:
    """Compare the deformed metric with its Gromov-product model.

    For each pair, ratio = [eps^-1 exp(-eps (x|y)_w) min(1, eps k(x,y))]
    / d_deformed(x, y); the reported constant is max(max ratio,
    max 1/ratio) over the sample, which must be finite.
    """
    _require_kind("uniformize", "verify_deformation_comparability", space)
    i = np.asarray(pairs[0], dtype=np.intp)
    j = np.asarray(pairs[1], dtype=np.intp)
    keep = i != j
    n_skipped = int((~keep).sum())
    i, j = i[keep], j[keep]
    eps = space.eps
    kxy = space.k.pairs(i, j)
    gp = 0.5 * (space.k_from_base[i] + space.k_from_base[j] - kxy)
    model = np.exp(-eps * gp) * np.minimum(1.0, eps * kxy) / eps
    actual = space.pairs(i, j)
    ratio = model / actual
    max_ratio = float(ratio.max(initial=0.0))
    min_ratio = float(ratio.min(initial=np.inf))
    constant = max(max_ratio, 1.0 / min_ratio if min_ratio > 0 else np.inf)
    return ComparabilityReport(constant, max_ratio, min_ratio, len(i), n_skipped)


def basepoint_change_distortion(
    space0: UniformizedSpace,
    space1: UniformizedSpace,
    quadruples=None,
    n_quadruples: int = 1000,
    rng=None,
    pool_size: int = 48,
) -> QuasimobiusResult:
    """Empirical linear quasimobius slope of the identity between two
    deformations of the same base with the same epsilon: ``quasimobius_slope``
    from ``space0``'s metric to ``space1``'s, over quadruples drawn from a pool.
    """
    _require_kind("uniformize", "basepoint_change_distortion", space0, space1)
    if space0.domain is not space1.domain:
        raise ConfigurationError("both deformations must share the same base domain")
    if abs(space0.eps - space1.eps) > 0:
        raise ConfigurationError("both deformations must use the same epsilon")
    rng = np.random.default_rng(rng)
    if quadruples is None:
        pool = pool_indices(space0.n, pool_size, rng)
        quadruples = pool[tuple_sample_from_pool(len(pool), n_quadruples, 4, rng)]
    return quasimobius_slope(space0.pairs, space1.pairs, quadruples)


@dataclass(frozen=True)
class EnvelopeReport:
    min_chain_over_quasi: float
    max_chain_over_quasi: float
    n_pairs: int

    @property
    def passed(self) -> bool:
        # chain metric must sit inside [quasimetric/4, quasimetric]
        return self.min_chain_over_quasi >= 0.25 - 1e-12 and (
            self.max_chain_over_quasi <= 1.0 + 1e-12
        )


def sphericalization_envelope(space: SphericalizedSpace, pairs) -> EnvelopeReport:
    """Chain metric vs quasimetric comparability on sampled active pairs."""
    _require_kind("sphericalize", "sphericalization_envelope", space)
    i = np.asarray(pairs[0], dtype=np.intp)
    j = np.asarray(pairs[1], dtype=np.intp)
    keep = i != j
    i, j = i[keep], j[keep]
    chain = space.pairs(i, j)
    quasi = space.quasimetric(i, j)
    ratio = chain / quasi
    return EnvelopeReport(float(ratio.min(initial=np.inf)), float(ratio.max(initial=0.0)), len(i))
