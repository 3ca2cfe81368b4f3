"""Deterministic samplers and the metric-axiom property checker.

Shortest-path queries are cheap per source and expensive per pair, so the
samplers draw pairs/triples/quadruples from a small pool of source points:
a pool of p points gives p*(p-1)/2 pair distances from p single-source
runs.  All samplers take an explicit Generator so scenario runs stay
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .views import MetricView


def pool_indices(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Random sorted vertex pool of at most ``size`` indices."""
    return np.sort(rng.permutation(n)[: min(size, n)].astype(np.intp))


def distinct_pairs(pairs) -> tuple[np.ndarray, np.ndarray, int]:
    """The pairs of index arrays ``pairs = (i, j)`` with i != j, and how many were dropped."""
    i = np.asarray(pairs[0], dtype=np.intp)
    j = np.asarray(pairs[1], dtype=np.intp)
    keep = i != j
    return i[keep], j[keep], int((~keep).sum())


def pair_sample(
    n: int,
    n_pairs: int,
    rng: np.random.Generator,
    n_sources: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays with few distinct sources, i != j."""
    if n < 2:
        raise ConfigurationError("need at least two points to sample pairs")
    if n_sources is None:
        n_sources = max(1, min(n, int(np.ceil(np.sqrt(n_pairs)))))
    sources = rng.permutation(n)[:n_sources]
    i = rng.choice(sources, size=n_pairs)
    j = rng.integers(0, n, size=n_pairs)
    clash = i == j
    while np.any(clash):
        j[clash] = rng.integers(0, n, size=int(clash.sum()))
        clash = i == j
    return i.astype(np.intp), j.astype(np.intp)


def tuple_sample_from_pool(pool_size: int, n_tuples: int, arity: int, rng) -> np.ndarray:
    """(n_tuples, arity) index array into a pool, entries distinct per row."""
    if pool_size < arity:
        raise ConfigurationError(f"pool of {pool_size} too small for {arity}-tuples")
    out = np.empty((n_tuples, arity), dtype=np.intp)
    for col in range(arity):
        out[:, col] = rng.integers(0, pool_size, size=n_tuples)
    # re-draw rows with repeats (pairs of columns compared, no sorted copy); distinctness
    # matters for cross-ratios
    def bad_rows(a):
        bad = np.zeros(len(a), dtype=bool)
        for c in range(arity):
            for d in range(c + 1, arity):
                bad |= a[:, c] == a[:, d]
        return bad

    mask = bad_rows(out)
    while np.any(mask):
        k = int(mask.sum())
        redraw = np.empty((k, arity), dtype=np.intp)
        for col in range(arity):
            redraw[:, col] = rng.integers(0, pool_size, size=k)
        out[mask] = redraw
        mask = bad_rows(out)
    return out


def pool_quadruples(n: int, pool_size: int, n_quadruples: int, rng) -> np.ndarray:
    """(n_quadruples, 4) vertex quadruples, entries distinct per row, from a random pool of
    at most ``pool_size`` of the n vertices."""
    pool = pool_indices(n, pool_size, rng)
    return pool[tuple_sample_from_pool(len(pool), n_quadruples, 4, rng)]


@dataclass(frozen=True)
class MetricAxiomReport:
    n_triples: int
    max_symmetry_defect: float
    max_triangle_defect: float
    max_identity_defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_symmetry_defect <= self.tolerance
            and self.max_triangle_defect <= self.tolerance
            and self.max_identity_defect <= self.tolerance
        )


def check_metric_axioms(
    view: MetricView,
    n_triples: int = 10_000,
    rng: np.random.Generator | None = None,
    pool_size: int = 96,
    tol: float = 1e-12,
) -> MetricAxiomReport:
    """Symmetry / triangle / identity on random triples from a pool.

    The tolerance is scaled by max(1, metric magnitude): shortest-path
    values are sums of hundreds of float64 terms, so a fixed absolute
    1e-12 would be meaningless for large-diameter metrics.
    """
    rng = np.random.default_rng(rng)
    pool = pool_indices(view.n, pool_size, rng)
    dist = view.submatrix(pool)
    scale = max(1.0, float(dist.max(initial=0.0)))
    tolerance = tol * scale

    p = len(pool)
    tri = tuple_sample_from_pool(p, n_triples, 3, rng) if p >= 3 else np.empty((0, 3), np.intp)
    i, j, k = tri[:, 0], tri[:, 1], tri[:, 2]
    sym = float(np.abs(dist - dist.T).max(initial=0.0))
    ident = float(np.abs(np.diag(dist)).max(initial=0.0))
    tri_defect = 0.0
    if len(tri):
        defect = dist[i, j] - (dist[i, k] + dist[k, j])
        tri_defect = max(float(defect.max()), 0.0)
    # distinct points at zero distance violate identity of indiscernibles
    off = dist[~np.eye(p, dtype=bool)] if p > 1 else np.array([1.0])
    if np.any(off <= 0):
        ident = max(ident, tolerance * 2 + 1.0)
    return MetricAxiomReport(len(tri), sym, tri_defect, ident, tolerance)
