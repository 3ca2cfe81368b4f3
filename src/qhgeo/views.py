"""Uniform query surface over the metrics the toolkit constructs.

A view answers vectorized distance queries on an immutable point set.
Only ``GraphView`` caches rows, behind a lock, so concurrent readers are
safe; the other views compute what each call asks for and keep nothing.

``GraphView`` caches only complete rows: every row asked for without a
limit, and a limited row that reached every vertex within its own source's
limit.  It holds copies of them, at most ``_ROW_CACHE_BYTES`` (8 MiB) per
view, and evicts the least recently used first; a row that is asked for
again is searched again, with bitwise the same floats.  ``submatrix`` runs
its sources about 1 MiB of rows at a time and keeps only the pool columns.
A pair query reads the cached row of its source where there is one.
Every other query is bounded by the least of the edge i-j, the lightest path
i-m-j (sparse row intersections), and the landmark bound
``k(i, j) <= k(i, L) + k(L, j)`` over the cached rows L (ALT-style pruning,
Goldberg & Harrelson, SODA 2005).  Sources are taken in the order of their
limits, about 1 MiB of rows to one search at the chunk's largest limit; a
chunk answers its pairs and is dropped; evicted rows are freed.  Every
search runs ``directed=True`` on a symmetric matrix, which gives the same
floats as an undirected run at about half the cost.  Arcs of
``LengthGraph.search_matrix`` that no shortest path uses weigh ``inf``.

``DenseChainView`` starts a row as the quasimetric row, a metric by Ptolemy's inequality,
and runs a plain dense Dijkstra on the ends of the angular-window pairs that pass a screen.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import InternalError

# Relative pad of a landmark bound (a target a search still misses gets a full row); the
# dense-chain screen pads by 2x and its window by 4x, so rounding cuts off no relaxation.
_BOUND_PAD = 1e-9
_CHAIN_PAIRS = 64  # most window pairs per point before a chain row runs the plain loop
_ROW_BLOCK_BYTES = 1 << 20  # largest dense temporary: one search's output, one block of rows
_ROW_CACHE_BYTES = 8 << 20  # cached rows one GraphView holds; least recently used go first


def rows_per_block(width: int) -> int:
    """Rows of ``width`` floats in one dense block of about ``_ROW_BLOCK_BYTES``; at least 1."""
    return max(1, _ROW_BLOCK_BYTES // (8 * width))


class MetricView:
    """Distance oracle on points indexed 0..n-1."""

    name = "metric"

    @property
    def n(self) -> int:
        raise NotImplementedError

    def rows(self, sources) -> np.ndarray:
        """Distance matrix of shape (len(sources), n)."""
        raise NotImplementedError

    def pairs(self, i, j) -> np.ndarray:
        """Distances for index arrays i, j of equal length (one row per source)."""
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        out = np.empty(len(i), float)
        for s in np.unique(i):
            mask = i == s
            out[mask] = self.rows([s])[0][j[mask]]
        return out

    def submatrix(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.intp)
        return self.rows(idx)[:, idx]


class EuclideanView(MetricView):
    """Ambient metric: straight-line distance between stored coordinates."""

    name = "euclidean"

    def __init__(self, coords: np.ndarray):
        self.coords = np.asarray(coords, float)

    @property
    def n(self):
        return len(self.coords)

    def rows(self, sources):
        return _euclidean(self.coords[np.asarray(sources, dtype=np.intp)], self.coords)

    def pairs(self, i, j):
        d = self.coords[np.asarray(i, dtype=np.intp)] - self.coords[np.asarray(j, dtype=np.intp)]
        return np.hypot(d[:, 0], d[:, 1])

    def submatrix(self, idx):
        """``rows(idx)[:, idx]``, computed on the pool x pool block only."""
        pool = self.coords[np.asarray(idx, dtype=np.intp)]
        return _euclidean(pool, pool)


def _euclidean(a, b) -> np.ndarray:
    """Distances from every point of ``a`` to every point of ``b``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


class GraphView(MetricView):
    """Shortest-path metric on a symmetric sparse weighted graph.

    The matrix must be symmetric (every edge stored in both directions):
    searches run ``directed=True`` on it.
    """

    name = "graph"

    def __init__(self, matrix, name: str | None = None):
        self.matrix = matrix.tocsr()
        if name:
            self.name = name
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()  # least recently used first
        self._cached_bytes = 0
        self._lock = threading.Lock()

    @property
    def n(self):
        return self.matrix.shape[0]

    def _cached(self, keys) -> dict:
        """The cached rows of ``keys``, marked most recently used; hold the lock."""
        found = {}
        for s in keys:
            if s in self._cache:
                self._cache.move_to_end(s)
                found[s] = self._cache[s]
        return found

    def _store(self, s: int, row: np.ndarray) -> None:
        """Cache a copy of ``row`` and evict down to the budget; hold the lock."""
        if s in self._cache:
            return
        self._cache[s] = row = row.copy()
        self._cached_bytes += row.nbytes
        while self._cached_bytes > _ROW_CACHE_BYTES:
            self._cached_bytes -= self._cache.popitem(last=False)[1].nbytes

    def rows(self, sources, limit: float | np.ndarray | None = None):
        """Distance rows of ``sources``.

        ``limit`` is one number or one per source.  Missing rows are computed
        in one search limited by the largest limit, so a new row holds ``inf``
        only at vertices farther than that; a finite entry is exact.  A new row
        enters the cache only if it has no ``inf`` and its largest entry is
        within its own source's limit, as a search at that limit alone would
        cache it; a cached row is returned whole.  Without ``limit`` every row
        must be finite (the graph is connected).  A call that searched every row
        returns the search output itself; the cache keeps copies.
        """
        keys = np.atleast_1d(np.asarray(sources, dtype=np.intp)).tolist()
        with self._lock:
            known = self._cached(keys)
        limits = np.broadcast_to(np.inf if limit is None else limit, len(keys)).tolist()
        own: dict[int, float] = {}  # missing source -> the largest limit asked for it
        for s, lim in zip(keys, limits):
            if s not in known:
                own[s] = max(lim, own.get(s, -np.inf))
        missing = list(own)
        if missing:
            bounded = {} if limit is None else {"limit": max(own.values())}
            dist = np.atleast_2d(dijkstra(self.matrix, directed=True, indices=missing, **bounded))
            keep = np.isfinite(dist).all(axis=1) & (dist.max(axis=1) <= list(own.values()))
            with self._lock:
                for s, row, ok in zip(missing, dist, keep):
                    if ok:
                        self._store(s, row)
                    known[s] = row
        out = dist if missing and len(missing) == len(keys) else np.vstack([known[s] for s in keys])
        if limit is None and not np.all(np.isfinite(out)):
            raise InternalError("unreachable vertex: graph violates the connectivity invariant")
        return out

    def _hop_bounds(self, i, j) -> np.ndarray:
        """Upper bounds of ``k(i, j)`` from paths of at most two edges.

        The lightest of the edge i-j and the paths i-m-j, found by intersecting
        the sparse rows of i and j (``inf`` where there is no such path), and
        0 where ``i == j``.  Each is a path weight, so never below the
        Dijkstra distance.  Queries come in chunks of about ``_ROW_BLOCK_BYTES`` of
        temporaries: 2 (mean row length + 1) entries a query in five 8-byte arrays.
        """
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        n, out = self.n, np.full(len(i), np.inf)
        chunk = rows_per_block(10 * (self.matrix.nnz // max(n, 1) + 1))
        for a in range(0, len(i), chunk):
            qi, qj = i[a:a + chunk], j[a:a + chunk]
            q = np.arange(len(qi))
            rows_i, rows_j = self.matrix[qi], self.matrix[qj]
            # row q of each side, plus a 0-weight entry at its own vertex: a key
            # shared by both sides is a path i-m-j (m = j or m = i is the edge i-j)
            keys = np.concatenate([
                np.repeat(q, np.diff(rows_i.indptr)) * n + rows_i.indices, q * n + qi,
                np.repeat(q, np.diff(rows_j.indptr)) * n + rows_j.indices, q * n + qj])
            weights = np.concatenate([rows_i.data, np.zeros(len(q)),
                                      rows_j.data, np.zeros(len(q))])
            del rows_i, rows_j
            order = np.argsort(keys, kind="stable")
            keys, weights = keys[order], weights[order]
            del order
            both = np.flatnonzero(keys[1:] == keys[:-1])
            np.minimum.at(out, a + keys[both] // n, weights[both] + weights[both + 1])
        return out

    def pairs(self, i, j):
        """Distances for index arrays i, j; bitwise equal to ``rows(i)[j]``.

        A source with a cached row reads it.  For every other source, each
        query gets the least of three upper bounds: the edge i-j and the
        lightest path i-m-j (``_hop_bounds``), and the landmark bound
        ``k(i, L) + k(L, j)`` over the cached rows L.  The source's limit is
        the largest bound of its queries, padded by 1e-9.  The call then drops
        its references to cached rows, before any search, so a row that the
        searches evict is freed.  The sources are sorted by limit and searched
        ``rows_per_block(n)`` rows (about ``_ROW_BLOCK_BYTES``) to a ``rows``
        call at the chunk's largest limit; each chunk answers its queries and
        is dropped, and ``rows`` caches a row only as a search at its own limit
        would.  A source whose row still misses a target gets a full row.
        With no row cached yet, the most-queried source's full row is
        computed first to serve as the landmark.
        """
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        out = np.empty(len(i), float)
        sources, inverse, counts = np.unique(i, return_inverse=True, return_counts=True)
        keys = sources.tolist()
        with self._lock:
            landmarks = list(self._cache.values())
            found = self._cached(keys)
        held = [found.get(s) for s in keys]
        if not landmarks and len(sources):
            top = int(np.argmax(counts))
            held[top] = self.rows([sources[top]])[0]
            landmarks = [held[top]]
        # the queries of source k are by_source[start[k]:start[k + 1]]
        by_source = np.argsort(inverse, kind="stable")
        start = np.concatenate([[0], np.cumsum(counts)])
        cached = np.array([row is not None for row in held], dtype=bool)
        for k in np.flatnonzero(cached):
            q = by_source[start[k]:start[k + 1]]
            out[q] = held[k][j[q]]
        ask = ~cached[inverse]
        qi, qj = i[ask], j[ask]
        bound = self._hop_bounds(qi, qj)
        for a in range(len(landmarks)):
            np.minimum(bound, landmarks[a][qi] + landmarks[a][qj], out=bound)
        del found, held, landmarks
        limits = np.zeros(len(sources))
        np.maximum.at(limits, inverse[ask], bound)
        limits *= 1.0 + _BOUND_PAD
        chunk = rows_per_block(self.n)
        todo = np.flatnonzero(~cached)[np.argsort(limits[~cached], kind="stable")]
        for a in range(0, len(todo), chunk):
            ks = todo[a:a + chunk]
            block = self.rows(sources[ks], limit=limits[ks])
            for r, k in enumerate(ks.tolist()):
                q = by_source[start[k]:start[k + 1]]
                got = block[r, j[q]]
                if not np.all(np.isfinite(got)):
                    got = self.rows([sources[k]])[0][j[q]]
                out[q] = got
        return out

    def submatrix(self, idx) -> np.ndarray:
        """``rows(idx)[:, idx]``, from ``rows`` calls of about 1 MiB of rows each."""
        idx = np.asarray(idx, dtype=np.intp)
        out = np.empty((len(idx), len(idx)))
        chunk = rows_per_block(self.n)
        for a in range(0, len(idx), chunk):
            out[a:a + chunk] = self.rows(idx[a:a + chunk])[:, idx]
        return out

    def min_distance_to(self, targets) -> np.ndarray:
        """Distance from every vertex to the target set (one multi-source run)."""
        targets = np.asarray(targets, dtype=np.intp)
        return dijkstra(self.matrix, directed=True, indices=targets, min_only=True)


def _dense_chain(coords, depth, source) -> np.ndarray:
    """The plain dense Dijkstra: each settled vertex, by (distance, index), relaxes all."""
    x, y, n = coords[:, 0], coords[:, 1], len(depth)
    dist, done = np.full(n, np.inf), np.zeros(n, dtype=bool)
    dist[source] = 0.0
    for _ in range(n):
        u = int(np.argmin(np.where(done, np.inf, dist)))
        done[u] = True
        np.minimum(dist, dist[u] + np.hypot(x - x[u], y - y[u]) / (depth[u] * depth), out=dist)
    return dist


class DenseChainView(MetricView):
    """Chain metric of ``q(u, v) = |x_u - x_v| / (D_u D_v)`` on points ``coords``.

    D is ``depth``, or ``1 + |x - p|`` for a ``base_point`` p (bitwise ``SphericalizedSpace``'s).
    Rows are bitwise ``_dense_chain``'s, run on all vertices for free depths.  With p,
    ``q(s,u) + q(u,v) - q(s,v) = (T + P) / (D_s D_u D_v)`` with ``T = |s-u| + |u-v| - |s-v|
    >= 0`` and ``P = |s-u||v-p| + |u-v||s-p| - |s-v||u-p| >= 0`` (Ptolemy; Buckley, Herron &
    Xie, Indiana Univ. Math. J. 57, 2008): a row is its q row up to rounding.  A settled u
    changes a bit of v only if ``dx^2 + dy^2 < ((q_v - q_u + slack) D_u D_v (1 + 2e-9))^2 +
    tiny``; ``slack = (n + 16) eps max q`` is twice the drift of a relaxed entry (a rounded
    sum of under n hops) below q, so near-ties and flipped settle orders pass.  As ``T >= 2
    |s-u| sin^2(theta/2)``, v lies in u's window of angles around s ``sin^2(theta/2) < D_u
    (4e-9 max|s-.| + 2 slack D_s max D) / (2 |s-u|)``: twice the bound, for rounding; all of
    it for u on s.  ``_dense_chain`` runs on s and the ends of the passing window pairs; past
    ``_CHAIN_PAIRS`` pairs a point (a line through s and p), on all vertices, with no pairs.
    """

    name = "chain"

    def __init__(self, coords, depth=None, name: str | None = None, base_point=None):
        self._coords = c = np.asarray(coords, float)
        self._base = p = base_point
        if p is not None:
            depth = 1.0 + np.hypot(c[:, 0] - p[0], c[:, 1] - p[1])
        self._depth = np.asarray(depth, float)
        if name:
            self.name = name

    @property
    def n(self):
        return len(self._depth)

    def quasimetric(self, i, j) -> np.ndarray:
        """``|x_i - x_j| / (D_i D_j)`` for index arrays i, j."""
        c, depth = self._coords, self._depth
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        return np.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1]) / (depth[i] * depth[j])

    def _candidates(self, source: int, row: np.ndarray):
        """Window pairs (u, v) and their screen mask for ``source`` with q ``row``, or ``None``."""
        c, depth, n = self._coords, self._depth, self.n
        dx, dy = c[:, 0] - c[source, 0], c[:, 1] - c[source, 1]
        a, theta = np.hypot(dx, dy), np.arctan2(dy, dx)
        slack = (n + 16) * np.finfo(float).eps * row.max()
        reach = 4 * _BOUND_PAD * a.max() + 2 * slack * depth[source] * depth.max()
        sin2 = np.divide(depth * reach, 2 * a, out=np.ones(n), where=a > 0)
        half = 2 * np.arcsin(np.sqrt(np.minimum(sin2, 1.0)))
        order = np.argsort(theta, kind="stable")
        ring = np.concatenate([theta[order] - 2 * np.pi, theta[order], theta[order] + 2 * np.pi])
        lo = np.searchsorted(ring, theta - half)  # any n ring positions in a row hold every point
        counts = np.minimum(np.searchsorted(ring, theta + half, "right") - lo, n)
        if counts.sum() > _CHAIN_PAIRS * n:
            return None
        u = np.repeat(np.arange(n), counts)
        v = order[(np.arange(len(u)) + np.repeat(lo + counts - np.cumsum(counts), counts)) % n]
        keep = (u != v) & (u != source) & (v != source)
        u, v = u[keep], v[keep]
        lhs = np.square(c[u, 0] - c[v, 0]) + np.square(c[u, 1] - c[v, 1])
        gap = np.maximum(row[v] - row[u] + slack, 0.0) * depth[u] * depth[v] * (1 + 2 * _BOUND_PAD)
        return u, v, lhs < gap * gap + np.finfo(float).tiny

    def _single_source(self, source: int) -> np.ndarray:
        row = self.quasimetric(source, np.arange(self.n))
        pairs = None if self._base is None else self._candidates(source, row)
        if pairs is None:
            return _dense_chain(self._coords, self._depth, source)
        u, v, hit = pairs
        sub = np.union1d([source], np.concatenate([u[hit], v[hit]]))
        row[sub] = _dense_chain(self._coords[sub], self._depth[sub], np.searchsorted(sub, source))
        return row

    def rows(self, sources):
        return np.vstack([self._single_source(int(s)) for s in np.atleast_1d(sources)])
