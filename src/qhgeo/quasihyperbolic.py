"""Quasihyperbolic metric on a domain sample.

The metric integrates the density 1/d_G along curves; on the graph each edge carries weight
edgeLength * (1/d_G(u) + 1/d_G(v)) / 2 (trapezoid rule on the endpoints) and distances are
shortest paths under those weights.  Searches run on ``LengthGraph.search_matrix``, a compact
graph without the arcs that a two-edge detour beats, numbered in 4-point lattice bands: rows and
geodesics stay bitwise.  A metric holds that graph and its numbering, nothing else per arc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .metric_core import DomainSample
from .views import GraphView, rows_per_block


class QuasihyperbolicMetric:
    """Shortest-path metric with conformal density 1/boundary-distance."""

    def __init__(self, domain: DomainSample):
        self.domain = domain
        self._view = GraphView(*domain.graph.search_matrix(self.arc_weights))

    @property
    def arc_weights(self) -> np.ndarray:
        """Per-arc weights ``length * (1/d_G(u) + 1/d_G(v)) / 2``, computed on each read."""
        return self.domain.graph.trapezoid(1.0 / self.domain.boundary_distance)

    @property
    def n(self) -> int:
        return self.domain.n

    def view(self) -> GraphView:
        return self._view

    def rows(self, sources) -> np.ndarray:
        return self._view.rows(sources)

    def pairs(self, i, j) -> np.ndarray:
        return self._view.pairs(i, j)

    def distance(self, i: int, j: int) -> float:
        return float(self._view.pairs([i], [j])[0])

    def geodesics(self, i, j) -> list[np.ndarray]:
        """Vertex paths from i[a] to j[a] realizing the quasihyperbolic distance.

        The distinct sources with i != j get their rows from ``rows``,
        ``rows_per_block(n)`` to a call, and the walks of those sources run back
        from their targets in lockstep.  A step gathers the arcs u -> v of each
        walker's vertex v from ``GraphView.arcs`` (the graph is symmetric and holds
        each edge weight once per direction), every u a vertex, and moves to the
        lowest u with ``|du + w - dv| <= 1e-12 (1 + dv)`` and ``du < dv``, so a walk
        strictly nears its source; an arc the search graph dropped never passes.
        Nothing is kept between calls, so a caller asks for all its paths at once.
        """
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        n = self.n
        walk = np.flatnonzero(i != j)
        sources, chunk = np.unique(i[walk]), rows_per_block(n)
        steps = [(np.arange(len(i)), j)]  # (walkers, their vertices) of every step, from j
        for a in range(0, len(sources), chunk):
            block = sources[a:a + chunk]
            dist = self.rows(block)
            w = walk[np.isin(i[walk], block)]
            r, v = np.searchsorted(block, i[w]), j[w]
            for _ in range(n):
                if not len(w):
                    break
                count, u, weight = self._view.arcs(v)
                start = np.cumsum(count) - count  # walker b's arcs are u[start[b]:][:count[b]]
                du, dv = dist[np.repeat(r, count), u], np.repeat(dist[r, v], count)
                on_path = (np.abs(du + weight - dv) <= 1e-12 * (1.0 + dv)) & (du < dv)
                v = np.minimum.reduceat(np.where(on_path, u, n), start)
                if np.any(v == n):
                    raise InternalError(
                        "geodesic walk found no predecessor; distances inconsistent")
                steps.append((w, v))
                go = v != i[w]
                w, r, v = w[go], r[go], v[go]
            if len(w):
                raise InternalError("geodesic walk failed to terminate")
        # each walker's steps, last first: the path from its source to its target
        who, at = (np.concatenate(column)[::-1] for column in zip(*steps))
        ends = np.cumsum(np.bincount(who, minlength=len(i)))
        return np.split(at[np.argsort(who, kind="stable")], ends[:-1]) if len(i) else []

    def geodesic(self, i: int, j: int) -> np.ndarray:
        """Vertex path from i to j realizing the quasihyperbolic distance."""
        return self.geodesics([i], [j])[0]


@dataclass(frozen=True)
class BoundViolation:
    kind: str
    i: int
    j: int
    lhs: float
    rhs: float
    x: tuple[float, float]
    y: tuple[float, float]


@dataclass(frozen=True)
class DistanceBoundsReport:
    n_pairs: int
    n_gated: int
    violations: tuple[BoundViolation, ...]
    max_growth_ratio: float
    max_lower_ratio: float
    max_upper_ratio: float
    slack: float

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def verify_qh_distance_bounds(
    k: QuasihyperbolicMetric, pairs, slack: float = 1.05
) -> DistanceBoundsReport:
    """Sweep the distance-vs-quasihyperbolic comparison bounds.

    For every pair: d(x,y) <= (e^k - 1) d_G(x) * slack.  When
    d(x,y) <= d_G(x)/(3c) or k(x,y) <= 1, additionally
    (1/2) d/d_G(x) <= k * slack and k <= 3c (d/d_G(x)) * slack.
    """
    domain = k.domain
    c = domain.quasiconvexity
    i = np.asarray(pairs[0], dtype=np.intp)
    j = np.asarray(pairs[1], dtype=np.intp)
    d = domain.ambient_distance(i, j)
    dgx = domain.boundary_distance[i]
    kv = k.pairs(i, j)

    growth_rhs = np.expm1(kv) * dgx
    gate = (d <= dgx / (3.0 * c)) | (kv <= 1.0)
    rel = d / dgx
    violations = []

    def collect(kind, mask, lhs, rhs):
        for idx in np.flatnonzero(mask)[:16]:
            violations.append(
                BoundViolation(
                    kind,
                    int(i[idx]),
                    int(j[idx]),
                    float(lhs[idx]),
                    float(rhs[idx]),
                    tuple(domain.coords[i[idx]]),
                    tuple(domain.coords[j[idx]]),
                )
            )

    collect("growth", d > growth_rhs * slack, d, growth_rhs)
    lower_lhs = 0.5 * rel
    collect("small-scale-lower", gate & (lower_lhs > kv * slack), lower_lhs, kv)
    upper_rhs = 3.0 * c * rel
    collect("small-scale-upper", gate & (kv > upper_rhs * slack), kv, upper_rhs)

    with np.errstate(divide="ignore", invalid="ignore"):
        growth_ratio = np.where(growth_rhs > 0, d / growth_rhs, 0.0)
        lower_ratio = np.where(kv > 0, lower_lhs / kv, 0.0)
        upper_ratio = np.where(upper_rhs > 0, kv / upper_rhs, 0.0)
    return DistanceBoundsReport(
        n_pairs=len(i),
        n_gated=int(gate.sum()),
        violations=tuple(violations),
        max_growth_ratio=float(growth_ratio.max(initial=0.0)),
        max_lower_ratio=float(np.where(gate, lower_ratio, 0.0).max(initial=0.0)),
        max_upper_ratio=float(np.where(gate, upper_ratio, 0.0).max(initial=0.0)),
        slack=slack,
    )


@dataclass(frozen=True)
class UniformityReport:
    constant_a: float
    worst_pair: tuple[int, int]
    length_ratios: np.ndarray
    cigar_ratios: np.ndarray
    n_pairs: int


def estimate_uniformity(
    domain: DomainSample, k: QuasihyperbolicMetric, pairs
) -> UniformityReport:
    """Uniformity constant of the quasihyperbolic-geodesic curve family.

    Per pair, gamma is the discrete quasihyperbolic geodesic;
    lengthRatio = len(gamma)/d(x,y) and cigarRatio is the worst
    min(len(gamma[x,z]), len(gamma[z,y])) / d_G(z) along the path; its steps
    are read with ``LengthGraph.arc_lengths``, so no length matrix is built.
    """
    i = np.asarray(pairs[0], dtype=np.intp)
    j = np.asarray(pairs[1], dtype=np.intp)
    keep = i != j
    i, j = i[keep], j[keep]
    dg = domain.boundary_distance
    d = domain.ambient_distance(i, j)
    length_ratios = np.empty(len(i))
    cigar_ratios = np.empty(len(i))
    paths = k.geodesics(i, j)
    # one lookup for every path step; path a's steps are steps[at[a]:at[a + 1]]
    at = np.cumsum([0] + [len(path) - 1 for path in paths])
    if paths:
        steps = domain.graph.arc_lengths(np.concatenate([path[:-1] for path in paths]),
                                         np.concatenate([path[1:] for path in paths]))
    for a, path in enumerate(paths):
        if len(path) < 2:
            length_ratios[a] = 1.0
            cigar_ratios[a] = 0.0
            continue
        seg = steps[at[a]:at[a + 1]]
        s = np.concatenate([[0.0], np.cumsum(seg)])
        total = s[-1]
        length_ratios[a] = total / d[a]
        cigar_ratios[a] = float(np.max(np.minimum(s, total - s) / dg[path]))
    per_pair = np.maximum(length_ratios, cigar_ratios)
    worst = int(np.argmax(per_pair)) if len(per_pair) else 0
    constant_a = float(per_pair.max(initial=1.0))
    return UniformityReport(
        constant_a=max(constant_a, 1.0),
        worst_pair=(int(i[worst]), int(j[worst])) if len(i) else (-1, -1),
        length_ratios=length_ratios,
        cigar_ratios=cigar_ratios,
        n_pairs=len(i),
    )
