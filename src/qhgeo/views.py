"""Uniform query surface over the metrics the toolkit constructs.

A view answers vectorized distance queries on an immutable point set.
Only ``GraphView`` keeps anything: landmark rows for its pair queries,
behind a lock, so concurrent readers are safe; the other views compute what
each call asks for and keep nothing.

``GraphView.rows`` always searches and returns the search output.  Every
full row (no limit) it computes is also kept as a landmark: a float16 copy
rounded up, so each entry is the least float16 at or above the distance
(``inf`` past 65504), at most ``_LANDMARK_BYTES`` (2 MiB) per view, the
oldest dropped first.  Limited rows are never kept.  ``submatrix`` runs its
sources about 1 MiB of rows at a time and keeps only the pool columns.  A
pair query is bounded by the least of the edge i-j, the lightest path i-m-j
(sparse row intersections), and the landmark bound ``k(i, j) <= k(i, L) +
k(L, j)`` over the landmarks L (ALT-style pruning, Goldberg & Harrelson,
SODA 2005); rounding up keeps every landmark bound an upper bound.  Sources
are taken in the order of their limits, about 1 MiB of rows to one search at
the chunk's largest limit; a chunk answers its pairs and is dropped.  Every
search runs ``directed=True`` on a symmetric matrix, which gives the same
floats as an undirected run at about half the cost.  A grid's search graph
(``LengthGraph.search_matrix``) holds only arcs a shortest path can use, in
its own numbering; a view searches from rows and keeps and returns by vertex.

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
_LANDMARK_BYTES = 2 << 20  # float16 landmark rows one GraphView holds; oldest go first
_BUILD_LOCK = threading.RLock()  # first builds of lazy members; one build may read another


def rows_per_block(width: int) -> int:
    """Rows of ``width`` floats in one dense block of about ``_ROW_BLOCK_BYTES``; at least 1."""
    return max(1, _ROW_BLOCK_BYTES // (8 * width))


def rounded_up(row: np.ndarray) -> np.ndarray:
    """``row`` (no entry below 0) as float16, each entry the least float16 at or above it
    (``inf`` past 65504): the cast, then one step up where it fell below (from a float16
    >= 0, ``np.nextafter`` toward ``inf`` is its bits + 1)."""
    with np.errstate(over="ignore"):
        half = row.astype(np.float16)
    bits = half.view(np.uint16)
    bits += half < row
    return half


def built_once(owner, name: str, build):
    """``owner.<name>``, set to ``build()`` on first read under ``_BUILD_LOCK`` (checked again
    there), so threads that read it first together build it once."""
    if getattr(owner, name) is None:
        with _BUILD_LOCK:
            if getattr(owner, name) is None:
                setattr(owner, name, build())
    return getattr(owner, name)


class MetricView:
    """Distance oracle on points indexed 0..n-1."""

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
    searches run ``directed=True`` on it.  ``bands`` is ``(order, position)``, as
    ``LengthGraph.search_matrix`` gives them: row p of ``matrix`` is vertex ``order[p]``,
    and vertex v is row ``position[v]`` (``None``: row v).  Queries take and return vertices.
    The view holds no float64 row between calls: only its float16 landmarks.
    """

    def __init__(self, matrix, bands=None):
        self.matrix = matrix.tocsr()
        self.order, self._position = (None, None) if bands is None else bands
        self._landmarks: OrderedDict[int, np.ndarray] = OrderedDict()  # oldest first
        self._landmark_bytes = 0
        self._lock = threading.Lock()

    @property
    def n(self):
        return self.matrix.shape[0]

    def _positions(self, vertices):
        """The rows of ``matrix`` that stand for ``vertices``."""
        return vertices if self.order is None else self._position[vertices]

    def arcs(self, vertices):
        """The arcs out of each of ``vertices``, vertex by vertex: how many it has, then every
        arc's head (a vertex) and weight."""
        m, at = self.matrix, self._positions(vertices)
        lo, count = m.indptr[at], m.indptr[at + 1] - m.indptr[at]
        arcs = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        heads = m.indices[arcs]
        return count, heads if self.order is None else self.order[heads], m.data[arcs]

    def _search(self, sources, **options) -> np.ndarray:
        """scipy's Dijkstra from the rows of vertices ``sources``, one column a vertex."""
        dist = dijkstra(self.matrix, directed=True, indices=self._positions(sources), **options)
        return dist if self.order is None else dist.take(self._position, axis=-1)

    def _keep(self, sources, rows) -> None:
        """Keep new sources' rows as landmarks (only the last that fit), the oldest dropped."""
        fit = max(len(sources) - _LANDMARK_BYTES // (2 * max(self.n, 1)), 0)
        kept = [(s, rounded_up(row)) for s, row in zip(sources[fit:].tolist(), rows[fit:])]
        with self._lock:
            for s, row in kept:
                if s not in self._landmarks:
                    self._landmarks[s] = row
                    self._landmark_bytes += row.nbytes
            while self._landmark_bytes > _LANDMARK_BYTES:
                self._landmark_bytes -= self._landmarks.popitem(last=False)[1].nbytes

    def rows(self, sources, limit: float | np.ndarray | None = None):
        """Distance rows of ``sources``: the output of one search.

        ``limit`` is one number or one per source; the search runs at the
        largest, so a row holds ``inf`` only at vertices farther than that and
        a finite entry is exact.  Without ``limit`` every row must be finite
        (the graph is connected), and each is kept as a landmark.
        """
        keys = np.atleast_1d(np.asarray(sources, dtype=np.intp))
        if not len(keys):
            return np.empty((0, self.n))
        bounded = {} if limit is None else {"limit": float(np.max(limit))}
        out = np.atleast_2d(self._search(keys, **bounded))
        if limit is None:
            if not np.all(np.isfinite(out)):
                raise InternalError("unreachable vertex: graph violates the connectivity invariant")
            self._keep(keys, out)
        return out

    def _hop_bounds(self, i, j) -> np.ndarray:
        """Upper bounds of ``k(i, j)`` from paths of at most two edges.

        The lightest of the edge i-j and the paths i-m-j, found by intersecting
        the sparse rows of i and j (``inf`` where there is no such path), and
        0 where ``i == j``.  Each is a path weight, so never below the
        Dijkstra distance.  Queries come in chunks of about ``_ROW_BLOCK_BYTES`` of
        temporaries: 2 (mean row length + 1) entries a query in five 8-byte arrays.
        """
        i = self._positions(np.asarray(i, dtype=np.intp))
        j = self._positions(np.asarray(j, dtype=np.intp))
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

        Each query gets the least of three upper bounds: the edge i-j and the
        lightest path i-m-j (``_hop_bounds``), and the landmark bound
        ``k(i, L) + k(L, j)`` over the landmarks L (float16 entries, summed
        exactly in float64).  The source's limit is the largest bound of its
        queries, padded by 1e-9.  The call then drops its references to the
        landmarks, before any search, so a landmark that the searches drop is
        freed.  The sources are sorted by limit and searched ``rows_per_block(n)``
        rows (about ``_ROW_BLOCK_BYTES``) to a ``rows`` call at the chunk's
        largest limit; each chunk answers its queries and is dropped.  A source
        whose row still misses a target gets a full row.  With no landmark
        yet, the most-queried source's full row is computed first; it answers
        its own queries and is this call's landmark.
        """
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        out = np.empty(len(i), float)
        sources, inverse, counts = np.unique(i, return_inverse=True, return_counts=True)
        with self._lock:
            landmarks = list(self._landmarks.values())
        done = np.zeros(len(sources), dtype=bool)
        if not landmarks and len(sources):
            top = int(np.argmax(counts))
            landmarks = [self.rows([sources[top]])[0]]
            q = inverse == top
            out[q] = landmarks[0][j[q]]
            done[top] = True
        ask = ~done[inverse]
        qi, qj = i[ask], j[ask]
        bound = self._hop_bounds(qi, qj)
        for a in range(len(landmarks)):  # no loop variable outlives the del below
            np.minimum(bound, landmarks[a][qi].astype(float) + landmarks[a][qj], out=bound)
        del landmarks
        limits = np.zeros(len(sources))
        np.maximum.at(limits, inverse[ask], bound)
        limits *= 1.0 + _BOUND_PAD
        # the queries of source k are by_source[start[k]:start[k + 1]]
        by_source = np.argsort(inverse, kind="stable")
        start = np.concatenate([[0], np.cumsum(counts)])
        chunk = rows_per_block(self.n)
        todo = np.flatnonzero(~done)[np.argsort(limits[~done], kind="stable")]
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
        return self._search(np.asarray(targets, dtype=np.intp), min_only=True)


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

    def __init__(self, coords, depth=None, base_point=None):
        self._coords = c = np.asarray(coords, float)
        self._base = p = base_point
        if p is not None:
            depth = 1.0 + np.hypot(c[:, 0] - p[0], c[:, 1] - p[1])
        self._depth = np.asarray(depth, float)

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
