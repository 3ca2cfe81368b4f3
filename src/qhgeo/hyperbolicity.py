"""Gromov products, four-point hyperbolicity, and rough starlikeness."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigurationError
from .metric_core import DomainSample
from .quasihyperbolic import QuasihyperbolicMetric
from .sampling import pool_indices, tuple_sample_from_pool
from .views import MetricView, rows_per_block


def gromov_products(dist: np.ndarray, x, y, w) -> np.ndarray:
    """Vectorized Gromov products from a dense distance matrix."""
    return 0.5 * (dist[x, w] + dist[y, w] - dist[x, y])


def basepoint_identity_residuals(dist: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Residuals of the base-point cancellation identity.

    For each row (x, y, z, u, o, w) of pool indices into ``dist``,
    (x|y)_o + (z|u)_o - (x|z)_o - (y|u)_o equals the same combination at
    base point w; the d(., base) terms cancel algebraically, so the
    residual is pure float noise.  Tuples come in blocks of about
    ``_ROW_BLOCK_BYTES``; each operation is elementwise, so bitwise unblocked.
    """
    out = np.empty(len(tuples))
    step = rows_per_block(tuples.shape[1])
    for a in range(0, len(tuples), step):
        x, y, z, u, o, w = tuples[a:a + step].T

        def combo(base):
            gp = lambda p, q: gromov_products(dist, p, q, base)
            return gp(x, y) + gp(z, u) - gp(x, z) - gp(y, u)

        out[a:a + step] = np.abs(combo(o) - combo(w))
    return out


@dataclass(frozen=True)
class HyperbolicityReport:
    delta: float
    quadruples_tested: int
    pool_size: int = 0
    exhaustive: bool = False
    starlikeness_k: float | None = None
    base_point: tuple[float, float] | None = None


def estimate_delta(
    view: MetricView,
    n_quadruples: int = 10_000,
    rng=None,
    pool_size: int = 64,
    exhaustive: bool = False,
    pool=None,
) -> HyperbolicityReport:
    """Four-point hyperbolicity defect, maximized over sampled quadruples.

    Sampled quadruples (x, y, z, w) contribute
    min{(x|z)_w, (z|y)_w} - (x|y)_w, clamped at 0; the result is a lower
    bound of the true delta.  Exhaustive mode scans all 4-subsets (only
    for n <= 60) using the equivalent largest-minus-middle pair-sum form.
    """
    n = view.n
    if exhaustive:
        if n > 60:
            raise ConfigurationError("exhaustive hyperbolicity scan is limited to n <= 60")
        dist = view.submatrix(np.arange(n))
        best = 0.0
        count = 0
        for a, b, c, d in combinations(range(n), 4):
            s1 = dist[a, b] + dist[c, d]
            s2 = dist[a, c] + dist[b, d]
            s3 = dist[a, d] + dist[b, c]
            hi, mid, _ = sorted((s1, s2, s3), reverse=True)
            best = max(best, 0.5 * (hi - mid))
            count += 1
        return HyperbolicityReport(best, count, n, True)

    rng = np.random.default_rng(rng)
    if n < 4:
        warnings.warn("fewer than 4 points: hyperbolicity defect is vacuously 0")
        return HyperbolicityReport(0.0, 0, n, False)
    if pool is None:
        pool = pool_indices(n, pool_size, rng)
    else:
        pool = np.asarray(pool, dtype=np.intp)
    dist = view.submatrix(pool)
    if n_quadruples <= 0:
        warnings.warn("empty quadruple sample: returning delta 0")
        return HyperbolicityReport(0.0, 0, len(pool), False)
    quad = tuple_sample_from_pool(len(pool), n_quadruples, 4, rng)
    x, y, z, w = quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3]
    defect = np.minimum(gromov_products(dist, x, z, w), gromov_products(dist, z, y, w))
    defect -= gromov_products(dist, x, y, w)
    delta = float(max(defect.max(initial=0.0), 0.0))
    return HyperbolicityReport(delta, len(quad), len(pool), False)


def estimate_rough_starlikeness(
    domain: DomainSample,
    k: QuasihyperbolicMetric,
    w: int | None = None,
    max_rays: int = 256,
) -> HyperbolicityReport:
    """Rough-starlikeness constant of (domain, k) with respect to w.

    Geodesic rays are replaced by quasihyperbolic geodesics from w to the
    interior vertex nearest each boundary sample; K is the worst
    quasihyperbolic distance from any vertex to the union of those
    geodesics.  Defaults to the deepest point w = argmax d_G.
    """
    if w is None:
        w = int(np.argmax(domain.boundary_distance))
    w = int(w)
    if domain.n == 1:
        return HyperbolicityReport(
            0.0, 0, starlikeness_k=0.0, base_point=tuple(domain.coords[w])
        )
    boundary = domain.boundary_coords
    if len(boundary) > max_rays:
        step = len(boundary) / max_rays
        boundary = boundary[(np.arange(max_rays) * step).astype(int)]
    targets = np.unique(domain.nearest_vertex(boundary))
    rays = k.geodesics(np.full(len(targets), w), targets)
    dist = k.view().min_distance_to(np.unique(np.concatenate(rays)))
    return HyperbolicityReport(
        0.0,
        0,
        starlikeness_k=float(dist.max()),
        base_point=(float(domain.coords[w][0]), float(domain.coords[w][1])),
    )
