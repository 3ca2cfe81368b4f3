"""Discretized metric domains: grids over planar shapes with boundary data.

A domain sample is a length graph over the interior lattice points of a
shape, together with boundary samples and the distance-to-boundary field.
The lattice stencil spans axis, diagonal, knight, and extended knight
moves up to (4, 3), which keeps the worst-case shortest-path anisotropy
at 0.76% (the acceptance tolerances assume grid error below 1%; knight
moves alone leave 2.75%).
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.spatial import cKDTree

from .errors import ConfigurationError, InternalError
from .shapes import ShapeGeometry, ShapeSpec, geometry_for
from .views import EuclideanView, GraphView, rows_per_block

# canonical half of the stencil; the reverse directions are implied by
# undirectedness.  All displacements have coprime components, so open
# segments between lattice points never contain another lattice point.
_CANONICAL = [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]
STENCIL = np.array(
    sorted(
        {
            (dx, dy)
            for (a, b) in _CANONICAL
            for (dx, dy) in ((a, b), (b, a), (a, -b), (b, -a))
            if (dx, dy) > (0, 0)
        }
    ),
    dtype=int,
)


def _two_step_reads(detour=1.1):
    """Per STENCIL direction d, the paths u -> u + s -> u + d of two stencil steps at most
    ``detour`` times as long as d, as two reads (k, offset from u): a step s from p is the edge of
    direction ``STENCIL[k]`` from p if that is s, else from p + s.  1/d_G is convex along lines in
    a convex domain, so the trapezoid rule overrates long steps against straight detours: on every
    shipped domain these 48 paths mask what all 360 do."""
    half = {tuple(s): k for k, s in enumerate(STENCIL.tolist())}

    def read(s, at):
        return (half[s], at) if s in half else (half[-s[0], -s[1]], (at[0] + s[0], at[1] + s[1]))

    steps = [*half, *((-a, -b) for a, b in half)]
    return [[(read(s, (0, 0)), read(t, s)) for s in steps for t in [(d[0] - s[0], d[1] - s[1])]
             if t in steps and math.hypot(*s) + math.hypot(*t) <= detour * math.hypot(*d)]
            for d in half]


_TWO_STEP = _two_step_reads()
_INTERIOR_TOL_FACTOR = 1e-9
# sample points of a stencil edge tested against a non-convex shape
_EDGE_FRACTIONS = np.arange(1, 8)[:, None, None] / 8.0


class LengthGraph:
    """Undirected graph with positive edge lengths over an indexed vertex set.

    The symmetric CSR layout (each edge stored as arcs u -> v and v -> u, rows
    sorted by column, as scipy's COO conversion sorts them) is computed once;
    ``reweighted`` matrices share its ``indptr`` and ``indices`` and only
    gather new ``data``.  A graph keeps its ``int32`` edges (an ``int32`` array
    as given), its lengths, the layout (``int32`` ``indptr``, ``indices`` and
    edge of each arc) and the coordinates.  The length matrix is built on the
    first read of ``matrix``, once, behind a lock, for ``graph:`` views only;
    the connectivity check builds a transient one.

    A grid's ``lattice``: its ``int32`` vertex-index grid (-1 off it, vertices in lattice order)
    and ``starts``; ``edges[starts[k]:starts[k + 1]]`` are the edges (p, p + STENCIL[k]) by p.
    """

    def __init__(self, n_vertices: int, edges: np.ndarray, lengths: np.ndarray, coords=None,
                 lattice=None):
        edges = np.asarray(edges).reshape(-1, 2)
        if edges.dtype.kind not in "iu":
            edges = edges.astype(np.intp)
        lengths = np.asarray(lengths, dtype=float).reshape(-1)
        if len(edges) != len(lengths):
            raise ConfigurationError("edges and lengths must have equal length")
        if len(lengths) and not np.all(lengths > 0):
            raise ConfigurationError("every edge length must be > 0")
        self.n = n = int(n_vertices)
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            raise ConfigurationError(f"edge endpoints must be vertex indices in [0, {n})")
        self.edges = edges.astype(np.int32, copy=False).view()  # a view: the caller's flags stay
        self.lengths = lengths
        self.coords = None if coords is None else np.asarray(coords, float)
        self._indptr, self._indices, self._arc_edge = _csr_layout(n, self.edges)
        self._matrix = None
        self._lattice = lattice
        self._lock = threading.Lock()
        self._check_connected()
        for arr in (self.edges, self.lengths, self._indices, self._indptr, self._arc_edge):
            arr.setflags(write=False)

    def _csr(self, weights) -> csr_matrix:
        return csr_matrix((weights[self._arc_edge], self._indices, self._indptr),
                          shape=(self.n, self.n))

    def _check_connected(self):
        """One breadth-first search from vertex 0; components are counted only on failure."""
        if self.n <= 1:
            return
        structure = self._csr(self.lengths)
        if len(breadth_first_order(structure, 0, return_predecessors=False)) == self.n:
            return
        n_comp, _ = connected_components(structure, directed=False)
        raise ConfigurationError(
            f"graph has {n_comp} connected components; "
            "refine the resolution or adjust the shape"
        )

    @property
    def matrix(self) -> csr_matrix:
        """The symmetric length matrix, built on first read."""
        if self._matrix is None:
            with self._lock:
                if self._matrix is None:
                    self._matrix = self._csr(self.lengths)
        return self._matrix

    def arc_lengths(self, u, v) -> np.ndarray:
        """Lengths of the edges u[a]-v[a] through the layout, bitwise ``matrix[u, v]``."""
        u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
        arcs = csr_matrix((self._arc_edge, self._indices, self._indptr), shape=(self.n, self.n))
        edge = np.asarray(arcs[u, v]).ravel()
        a, b = self.edges[edge, 0], self.edges[edge, 1]
        # a step that is no edge reads edge 0 from the sparse lookup: raise, never read its length
        if not np.all(((a == u) & (b == v)) | ((a == v) & (b == u))):
            raise InternalError("a path step is not an edge of the graph")
        return self.lengths[edge]

    def reweighted(self, new_lengths: np.ndarray) -> csr_matrix:
        """Sparse matrix with the same edges and replacement weights (shared layout)."""
        new_lengths = np.asarray(new_lengths, float)
        if not np.all(new_lengths > 0):
            raise ConfigurationError("replacement edge weights must be > 0")
        return self._csr(new_lengths)

    def search_matrix(self, weights: np.ndarray) -> csr_matrix:
        """``reweighted(weights)`` with ``inf`` on both arcs of every edge u-v that a path
        u-m-v of ``_TWO_STEP`` beats by more than ``tau = 4e-12 (1 + X)``, ``X = (n - 1) max w``.

        Rows and geodesics stay bitwise: every distance D a search reaches is at most X, so
        ``fl(fl(D_u + a) + b) <= (D_u + a + b)(1 + 2^-53)^2 < fl(D_u + w)`` for a + b + tau < w.
        A search finds the least left-to-right float sum over paths, and float addition is
        monotone, so ``D_v <= fl(fl(D_u + a) + b)``: the arc never sets a distance.  And ``D_u +
        w - D_v > tau - 4e-16 (X + w) > 1e-12 (1 + D_v)``, so ``QuasihyperbolicMetric.
        _predecessor`` never takes it.  The layout is shared (symmetric, sorted, the memory of
        ``reweighted``); an imported graph has no lattice and gets ``reweighted(weights)``.
        """
        weights = np.asarray(weights, float)
        if self._lattice is None or not len(weights):
            return self.reweighted(weights)
        tau = 4e-12 * (1.0 + (self.n - 1) * weights.max())
        # before the matrix, so that the prune's temporaries are freed when it is allocated
        dominated = _dominated_edges(*self._lattice, self.edges[:, 0], weights, tau)
        matrix, chunk = self.reweighted(weights), rows_per_block(1)  # 1 byte of mask an arc
        for a in range(0, len(matrix.data), chunk):
            matrix.data[a:a + chunk][dominated[self._arc_edge[a:a + chunk]]] = np.inf
        return matrix

    def trapezoid(self, lengths: np.ndarray, density: np.ndarray) -> np.ndarray:
        """Edge weights ``lengths * (density[u] + density[v]) / 2`` (trapezoid rule)."""
        return lengths * 0.5 * (density[self.edges[:, 0]] + density[self.edges[:, 1]])


def _csr_layout(n, edges):
    """``indptr``, ``indices`` and the edge of each arc of the symmetric CSR matrix of ``edges``.

    The arcs u -> v and v -> u of every edge are sorted by (row, column), as
    scipy's COO conversion sorts them, so ``csr_matrix((w[arc_edge], indices,
    indptr))`` equals ``csr_matrix((w2, (rows, cols)))`` over both arcs bitwise.
    One stable ``argsort`` of ``int64`` keys orders the arcs; rows and columns
    are then gathered as ``int32``, and a repeated edge or a self-loop shows
    as two equal adjacent (row, column) pairs.
    """
    u, v = edges[:, 0], edges[:, 1]
    m, n = len(edges), np.int64(n)  # int64 keys: int32 products would wrap past 46,340 vertices
    order = np.argsort(np.concatenate([u * n + v, v * n + u]), kind="stable")
    rows, indices = np.concatenate([u, v])[order], np.concatenate([v, u])[order]
    if np.any((rows[1:] == rows[:-1]) & (indices[1:] == indices[:-1])):
        _reject_non_simple(edges)
    del rows  # the peak is the sort's: 8-byte keys and order, and the stable sort's buffer
    arc_edge = order.astype(np.int32)
    arc_edge[arc_edge >= m] -= m  # arc m + e is the reverse arc of edge e
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(u, minlength=n) + np.bincount(v, minlength=n), out=indptr[1:])
    return indptr, indices, arc_edge


def _dominated_edges(index2d, starts, lower, weights, tau) -> np.ndarray:
    """Edges heavier than a path of ``_TWO_STEP`` plus ``tau``; ``lower`` is each one's lower end.
    Band by band of lattice rows, ``grid[k]`` holds the weight of the edge of direction k from each
    point of the band and its halo (``inf`` where there is none): ``h`` columns either side, ``h``
    rows after and the ``back`` rows before that reads look at (none for ``_TWO_STEP``'s paths).
    It is flattened with pad columns, so that a shifted read is one contiguous slice."""
    nx, ny = index2d.shape
    h, width, n_dir = 4, ny + 8, len(STENCIL)  # h: the longest stencil step along an axis
    back = -min(at[0] for paths in _TWO_STEP for path in paths for _, at in path)
    first = np.concatenate([[0], np.cumsum(np.count_nonzero(index2d >= 0, axis=1))])
    # the edges of direction k from lattice rows r0..r1 - 1 are cut[k, r0] .. cut[k, r1] - 1
    cut = np.array([starts[k] + np.searchsorted(lower[starts[k]:starts[k + 1]], first)
                    for k in range(n_dir)])
    dominated = np.zeros(len(weights), dtype=bool)
    band = max(1, rows_per_block(n_dir * width) - back - h)
    grid = np.empty((n_dir, (band + back + h) * width))
    low, path = np.empty(band * width), np.empty(band * width)
    for r0 in range(0, nx, band):
        r1, a, b = min(r0 + band, nx), max(r0 - back, 0), min(r0 + band + h, nx)
        size = (r1 - r0 - 1) * width + ny  # from the band's first point to its last
        # grid position of the vertices first[a] .. first[b] - 1, and of each edge's lower end
        vi, vj = np.divmod(np.flatnonzero(index2d[a:b].ravel() >= 0).astype(np.int32), ny)
        at_v = (vi + (a - r0 + back)) * width + vj + h
        grid.fill(np.inf)
        for k in range(n_dir):
            e = slice(cut[k, a], cut[k, b])
            grid[k, at_v[lower[e] - first[a]]] = weights[e]
        for k, paths in enumerate(_TWO_STEP):
            low[:size] = np.inf
            for (k1, (p1, q1)), (k2, (p2, q2)) in paths:
                o1, o2 = (back + p1) * width + h + q1, (back + p2) * width + h + q2
                np.add(grid[k1, o1:o1 + size], grid[k2, o2:o2 + size], out=path[:size])
                np.minimum(low[:size], path[:size], out=low[:size])
            e = slice(cut[k, r0], cut[k, r1])
            dominated[e] = weights[e] > low[at_v[lower[e] - first[a]] - back * width - h] + tau
    return dominated


def _reject_non_simple(edges):
    """Raise for the first self-loop or repeated edge (in either orientation).

    The sparse matrix would sum a repeated edge's weights and put a self-loop on
    the diagonal, so its entries would no longer be the edge weights.
    """
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    _, first = np.unique(lo * (np.int64(hi.max()) + 1) + hi, return_index=True)
    repeated = np.ones(len(edges), dtype=bool)
    repeated[first] = False
    k = int(np.flatnonzero(repeated | (lo == hi))[0])
    a, b = edges[k].tolist()
    what = "is a self-loop" if a == b else "repeats an earlier edge"
    raise ConfigurationError(f"edge {k} ({a}, {b}) {what}")


class DomainSample:
    """Immutable discretized incomplete metric space.

    Interior vertices carry a length-graph structure; the ambient metric is
    Euclidean on coordinates, and ``boundary_distance[i]`` is the distance
    from vertex i to the metric boundary (analytic when the shape provides
    it, otherwise the minimum over boundary samples).
    """

    def __init__(
        self,
        graph: LengthGraph,
        boundary_coords: np.ndarray,
        boundary_distance: np.ndarray,
        shape: ShapeSpec | None = None,
        geometry: ShapeGeometry | None = None,
        quasiconvexity: float = 1.0,
        resolution: float | None = None,
    ):
        if graph.coords is None:
            raise ConfigurationError("domain vertices need ambient coordinates")
        self.graph = graph
        self.coords = graph.coords
        self.boundary_coords = np.asarray(boundary_coords, float).reshape(-1, 2)
        self.boundary_distance = np.asarray(boundary_distance, float).reshape(-1)
        if len(self.boundary_distance) != graph.n:
            raise ConfigurationError("boundary_distance must cover every vertex")
        if graph.n == 0:
            raise ConfigurationError("empty interior: resolution too coarse for the shape")
        if not np.all(self.boundary_distance > 0):
            raise ConfigurationError("boundary distance must be positive on interior points")
        if quasiconvexity < 1.0:
            raise ConfigurationError("quasiconvexity constant must be >= 1")
        self.shape = shape
        self.geometry = geometry
        self.quasiconvexity = float(quasiconvexity)
        if resolution is None:
            resolution = float(np.median(graph.lengths)) if len(graph.lengths) else 1.0
        self.resolution = float(resolution)
        self._ambient = EuclideanView(self.coords)
        self._graph_view = None
        self._lock = threading.Lock()
        self._kdtree = None
        self._boundary_tree = None
        for arr in (self.coords, self.boundary_coords, self.boundary_distance):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def ambient_view(self) -> EuclideanView:
        return self._ambient

    def graph_view(self) -> GraphView:
        """Shortest-path view of the length graph, built once on first use."""
        if self._graph_view is None:
            with self._lock:
                if self._graph_view is None:
                    self._graph_view = GraphView(self.graph.matrix, name="graph")
        return self._graph_view

    def ambient_distance(self, i, j) -> np.ndarray:
        return self._ambient.pairs(np.atleast_1d(i), np.atleast_1d(j))

    def nearest_vertex(self, points) -> np.ndarray:
        if self._kdtree is None:
            self._kdtree = cKDTree(self.coords)
        pts = np.atleast_2d(np.asarray(points, float))
        return self._kdtree.query(pts)[1]

    def boundary_distance_at(self, points) -> np.ndarray:
        """Boundary distance at arbitrary points (not only vertices)."""
        pts = np.atleast_2d(np.asarray(points, float))
        if self.geometry is not None and self.geometry.analytic_boundary:
            return self.geometry.boundary_distance(pts)
        if self._boundary_tree is None:
            self._boundary_tree = cKDTree(self.boundary_coords)
        return self._boundary_tree.query(pts)[0]

    def contains(self, points) -> np.ndarray:
        if self.geometry is None:
            raise ConfigurationError("containment test requires a shape-backed domain")
        return self.geometry.contains(np.atleast_2d(np.asarray(points, float)))

    def diameter_hint(self) -> float:
        lo = self.coords.min(axis=0)
        hi = self.coords.max(axis=0)
        return float(np.hypot(*(hi - lo)))

def build_grid_domain(spec: ShapeSpec, boundary_band_h: float = 0.0) -> DomainSample:
    """Uniform grid restricted to the shape interior.

    Vertices are lattice points i*h, edge lengths are exact Euclidean
    displacements, and the boundary is sampled at arclength spacing <= h.
    ``boundary_band_h`` optionally drops vertices closer than that many
    cells to the boundary (the quasihyperbolic pipeline applies 2 by
    default): a vertex is kept when ``bdist >= boundary_band_h * h``, so
    the banded build equals the unbanded one restricted to that band
    without building it.  Lattice indices and edges are ``int32``.

    For non-convex shapes, stencil edges that leave the domain are removed:
    an edge leaves it when one of its 7 interior samples (fractions 1/8,
    ..., 7/8) is not inside.  Only edges with ``max(bdist[u], bdist[v]) <=
    length + h`` are tested, all in one ``geom.contains`` call; the rest
    are kept.  This is exact.  ``bdist`` is the true boundary distance for
    analytic shapes and exceeds it by at most h/2 for custom polygons
    (boundary samples <= h apart).  So an untested edge lies in an open
    disk around one endpoint that holds no boundary, ``contains`` (even-odd
    parity for polygons) is constant on that disk, both endpoints are
    inside, and every sample is inside and more than h/2 from the boundary:
    testing the edge would keep it too.
    """
    geom = geometry_for(spec)
    h = spec.resolution
    xmin, ymin, xmax, ymax = geom.bounding_box()
    scale = max(xmax - xmin, ymax - ymin)
    tol = _INTERIOR_TOL_FACTOR * scale

    i0 = int(math.floor(xmin / h)) - 1
    i1 = int(math.ceil(xmax / h)) + 1
    j0 = int(math.floor(ymin / h)) - 1
    j1 = int(math.ceil(ymax / h)) + 1
    xs = np.arange(i0, i1 + 1, dtype=float) * h
    ys = np.arange(j0, j1 + 1, dtype=float) * h
    nx, ny = len(xs), len(ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel()])

    boundary = geom.boundary_samples(h)
    if geom.analytic_boundary:
        bdist = geom.boundary_distance(lattice)
    else:
        bdist = cKDTree(boundary).query(lattice)[0]
        bdist = np.where(geom.contains(lattice), bdist, -bdist)

    keep = (bdist > tol) & (bdist >= boundary_band_h * h)
    if not np.any(keep):
        raise ConfigurationError(
            f"empty interior for {spec.kind} at resolution {h}; refine the grid"
        )
    index = -np.ones((nx, ny), dtype=np.int32)
    index[keep.reshape(nx, ny)] = np.arange(int(keep.sum()), dtype=np.int32)

    edges, lengths, starts = _stencil_edges(keep.reshape(nx, ny), index, h)

    coords, inner_bdist = lattice[keep], bdist[keep]
    if not geom.convex and getattr(geom, "_needs_clipping", True):
        u, v = edges[:, 0], edges[:, 1]
        near = np.flatnonzero(np.maximum(inner_bdist[u], inner_bdist[v]) <= lengths + h)
        pa, pb = coords[u[near]], coords[v[near]]
        inside = geom.contains((pa + _EDGE_FRACTIONS * (pb - pa)).reshape(-1, 2))
        ok = np.ones(len(edges), dtype=bool)
        ok[near] = inside.reshape(len(_EDGE_FRACTIONS), -1).all(axis=0)
        edges, lengths = edges[ok], lengths[ok]
        starts -= np.searchsorted(np.flatnonzero(~ok), starts)  # clipped edges before each

    graph = LengthGraph(int(keep.sum()), edges, lengths, coords, lattice=(index, starts))
    return DomainSample(
        graph,
        boundary,
        inner_bdist,
        shape=spec,
        geometry=geom,
        quasiconvexity=1.0,
        resolution=h,
    )


def _stencil_edges(keep2d, index2d, h):
    """Edges between kept lattice points along every STENCIL direction, their lengths and starts.

    Direction by direction, in lattice order within each.  A function of its
    own, so that the per-direction pieces are freed before the graph is built.
    """
    nx, ny = keep2d.shape
    edge_u, edge_v, edge_len = [], [], []
    for di, dj in STENCIL:
        a_sl = (slice(0, nx - di) if di >= 0 else slice(-di, nx),
                slice(0, ny - dj) if dj >= 0 else slice(-dj, ny))
        b_sl = (slice(di, nx) if di >= 0 else slice(0, nx + di),
                slice(dj, ny) if dj >= 0 else slice(0, ny + dj))
        mask = keep2d[a_sl] & keep2d[b_sl]
        edge_u.append(index2d[a_sl][mask])
        edge_v.append(index2d[b_sl][mask])
        edge_len.append(np.full(len(edge_u[-1]), h * math.hypot(di, dj)))
    edges = np.column_stack([np.concatenate(edge_u), np.concatenate(edge_v)])
    return edges, np.concatenate(edge_len), np.cumsum([0] + [len(e) for e in edge_u])


def domain_from_length_graph(
    coords,
    edges,
    boundary_coords,
    lengths=None,
    quasiconvexity: float = 1.0,
) -> DomainSample:
    """Domain over an imported length graph; lengths default to Euclidean."""
    coords = np.asarray(coords, float).reshape(-1, 2)
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if lengths is None:
        d = coords[edges[:, 0]] - coords[edges[:, 1]]
        lengths = np.hypot(d[:, 0], d[:, 1])
    graph = LengthGraph(len(coords), edges, lengths, coords)
    boundary_coords = np.asarray(boundary_coords, float).reshape(-1, 2)
    if len(boundary_coords) == 0:
        raise ConfigurationError("imported domain needs at least one boundary sample")
    bdist = cKDTree(boundary_coords).query(coords)[0]
    return DomainSample(graph, boundary_coords, bdist, quasiconvexity=quasiconvexity)


def estimate_quasiconvexity(domain: DomainSample, pairs=None, n_pairs: int = 512, rng=None):
    """Sampled lower bound for the quasiconvexity constant of the length structure.

    Returns max over pairs of graph distance / ambient distance.  Coincident
    pairs are skipped with a warning.
    """
    if pairs is None:
        rng = np.random.default_rng(rng)
        if domain.n < 2:
            raise ConfigurationError("need at least two vertices to sample pairs")
        i = rng.integers(0, domain.n, size=n_pairs)
        j = rng.integers(0, domain.n, size=n_pairs)
    else:
        i = np.asarray(pairs[0], dtype=np.intp)
        j = np.asarray(pairs[1], dtype=np.intp)
    distinct = i != j
    if not np.all(distinct):
        warnings.warn("coincident pairs skipped in quasiconvexity estimate")
        i, j = i[distinct], j[distinct]
    if len(i) == 0:
        raise ConfigurationError("no distinct pairs left to estimate quasiconvexity")
    ratio = domain.graph_view().pairs(i, j) / domain.ambient_distance(i, j)
    return float(ratio.max())


def safe_ball_radius(domain: DomainSample, i) -> float:
    """Largest radius with guaranteed containment, 2*d_G(x)/(2+c)."""
    c = domain.quasiconvexity
    return float(2.0 * domain.boundary_distance[i] / (2.0 + c))


@dataclass(frozen=True)
class BallContainmentReport:
    contained: bool
    center: tuple[float, float]
    radius: float
    n_checked: int
    witness: tuple[float, float] | None


def check_ball_containment(domain: DomainSample, center, radius: float) -> BallContainmentReport:
    """Check whether every ambient lattice sample within ``radius`` of the
    center is an interior point of the shape.

    The ambient sample is the lattice of the shape's bounding box grown by
    the radius, so exterior points can witness a failure.  The first
    violating sample (in lattice order) is reported.
    """
    if domain.geometry is None:
        raise ConfigurationError("ball containment needs a shape-backed domain")
    if np.ndim(center) == 0:
        x = domain.coords[int(center)]
    else:
        x = np.asarray(center, float)
    h = domain.resolution
    margin = radius + h
    i0 = int(math.floor((x[0] - margin) / h))
    i1 = int(math.ceil((x[0] + margin) / h))
    j0 = int(math.floor((x[1] - margin) / h))
    j1 = int(math.ceil((x[1] + margin) / h))
    xs = np.arange(i0, i1 + 1, dtype=float) * h
    ys = np.arange(j0, j1 + 1, dtype=float) * h
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    near = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1]) <= radius
    pts = pts[near]
    inside = domain.contains(pts)
    if np.all(inside):
        return BallContainmentReport(True, (float(x[0]), float(x[1])), radius, len(pts), None)
    first = int(np.flatnonzero(~inside)[0])
    w = pts[first]
    return BallContainmentReport(
        False, (float(x[0]), float(x[1])), radius, len(pts), (float(w[0]), float(w[1]))
    )
