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
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import ConfigurationError, InternalError
from .shapes import ShapeGeometry, ShapeSpec, geometry_for
from .views import EuclideanView, GraphView, built_once, rows_per_block

if TYPE_CHECKING:  # scipy.spatial is imported where a tree is built (``kd_tree``)
    from scipy.spatial import cKDTree

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
# grid arc codes index the steps, sorted by (dx, dy): STEPS[24 + k] = STENCIL[k] = -STEPS[23 - k]
STEPS = np.concatenate([-STENCIL[::-1], STENCIL])


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
_BAND = 4  # lattice columns to a band of the search numbering (``_band_order``)
_INTERIOR_TOL_FACTOR = 1e-9
# sample points of a stencil edge tested against a non-convex shape
_EDGE_FRACTIONS = np.arange(1, 8)[:, None, None] / 8.0


class LengthGraph:
    """Undirected graph with positive edge lengths over an indexed vertex set.

    It keeps an ``int32`` symmetric CSR layout (arcs u -> v and v -> u, columns sorted as scipy
    sorts them) and a code an arc into a ``table``: ``table[code]`` is each arc's length.  An
    imported graph's code is the arc's edge and it keeps its ``int32`` edges as given; a grid's
    ``layout`` is its lattice mask, ``indptr``, ``indices`` and ``int8`` codes into ``STEPS``, its
    table the 48 step lengths, and ``edges`` and ``lengths`` are derived on each read.  Weights
    are one float an arc.  The length matrix is built on the first read of ``matrix``, once.
    """

    def __init__(self, n_vertices: int, edges, lengths: np.ndarray, coords=None, layout=None):
        self.n = n = int(n_vertices)
        lengths = np.asarray(lengths, dtype=float).reshape(-1)
        if layout is None:
            edges = np.asarray(edges).reshape(-1, 2)
            if edges.dtype.kind not in "iu":
                edges = edges.astype(np.intp)
            if len(edges) != len(lengths):
                raise ConfigurationError("edges and lengths must have equal length")
            if len(lengths) and not np.all(lengths > 0):
                raise ConfigurationError("every edge length must be > 0")
            if len(edges) and (edges.min() < 0 or edges.max() >= n):
                raise ConfigurationError(f"edge endpoints must be vertex indices in [0, {n})")
            self._edges = edges.astype(np.int32, copy=False).view()  # the caller's flags stay
            self._edges.setflags(write=False)
            layout = (None, *_csr_layout(n, self._edges))
        (self._lattice, self._indptr, self._indices, self._code), self._table = layout, lengths
        self.coords = None if coords is None else np.asarray(coords, float)
        self._bands = None  # the search numbering of a grid (``_band_order``), on first use
        self._matrix = None
        self._check_connected()
        for arr in (self._indptr, self._indices, self._code, lengths):
            arr.setflags(write=False)

    @property
    def edges(self) -> np.ndarray:
        """``int32`` (u, v) pairs; a grid's are (p, p + STENCIL[k]) by k, then by p."""
        if self._lattice is None:
            return self._edges
        edges, at = np.empty((np.count_nonzero(self._code >= len(STENCIL)), 2), np.int32), 0
        for c in range(len(STENCIL), len(STEPS)):  # a direction at a time: small temporaries
            arcs = np.flatnonzero(self._code == c)
            edges[at:at + len(arcs), 0] = np.searchsorted(self._indptr, arcs, "right") - 1
            edges[at:at + len(arcs), 1] = self._indices[arcs]
            at += len(arcs)
        return edges

    @property
    def lengths(self) -> np.ndarray:
        """The length of each edge of ``edges``."""
        if self._lattice is None:
            return self._table
        return self._table[np.sort(self._code[self._code >= len(STENCIL)])]

    def _csr(self, weights) -> csr_matrix:
        return csr_matrix((weights, self._indices, self._indptr), shape=(self.n, self.n))

    def _check_connected(self):
        """One breadth-first search from vertex 0; components are counted only on failure."""
        if self.n <= 1:
            return
        structure = self._csr(self._table[self._code])
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
        return built_once(self, "_matrix", lambda: self._csr(self._table[self._code]))

    def arc_lengths(self, u, v) -> np.ndarray:
        """Lengths of the edges u[a]-v[a], bitwise ``matrix[u, v]``, from each step's code."""
        u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
        code = np.asarray(self._csr(self._code + 1)[u, v]).ravel()  # 0: no arc
        if not np.all(code):
            raise InternalError("a path step is not an edge of the graph")
        return self._table[code - 1]

    def arc_map(self, fn, values, weights=None) -> np.ndarray:
        """``fn(w, values[u], values[v])`` on every arc u -> v, ``w`` its length (into a new
        array) or its entry of ``weights`` (overwritten), a block of rows at a time."""
        out = np.empty(len(self._indices)) if weights is None else weights
        indptr, chunk = self._indptr, rows_per_block(2 * len(STEPS))  # at most 48 arcs a row
        for r0 in range(0, self.n, chunk):
            arcs = slice(indptr[r0], indptr[min(r0 + chunk, self.n)])
            # take: half the time of an indexed gather, and its intp copy of a block's indices
            w = self._table.take(self._code[arcs]) if weights is None else weights[arcs]
            at_u = np.repeat(values[r0:r0 + chunk], np.diff(indptr[r0:r0 + chunk + 1]))
            out[arcs] = fn(w, at_u, values.take(self._indices[arcs]))
        return out

    def trapezoid(self, density: np.ndarray, weights=None) -> np.ndarray:
        """Trapezoid-rule arc weights ``w * (density[u] + density[v]) / 2``, ``w`` as in arc_map."""
        return self.arc_map(lambda w, du, dv: w * 0.5 * (du + dv), density, weights)

    def reweighted(self, weights: np.ndarray) -> csr_matrix:
        """Sparse matrix on the shared layout whose data is ``weights``, one per arc (no copy)."""
        weights = np.asarray(weights, float)
        if not np.all(weights > 0):
            raise ConfigurationError("replacement edge weights must be > 0")
        return self._csr(weights)

    def sink_matrix(self, weights: np.ndarray, tail: np.ndarray) -> csr_matrix:
        """``reweighted(weights)`` with one more vertex n, joined both ways to each vertex v by
        an arc of weight ``tail[v]``, straight from the layout: row v holds its arcs, then v -> n
        (column n sorts last), and row n every vertex, as scipy's COO conversion sorts them."""
        n, m = self.n, len(self._indices)
        at = np.append(self._indptr[1:], np.full(n, m))  # v -> n ends row v; row n comes last
        indptr = np.append(self._indptr + np.arange(n + 1, dtype=np.int32), np.int32(m + 2 * n))
        indices = np.insert(self._indices, at, np.append(np.full(n, n), np.arange(n)))
        data = np.insert(weights, at, np.append(tail, tail))
        return csr_matrix((data, indices, indptr), shape=(n + 1, n + 1))

    def search_matrix(self, weights: np.ndarray) -> tuple[csr_matrix, tuple | None]:
        """The compact graph of ``weights`` (one per arc, overwritten) and its ``GraphView`` bands
        ``(order, position)``, the vertex of each row and column and the row of each vertex: it is
        ``reweighted(weights)`` without both arcs of every edge u-v that a path u-m-v of
        ``_TWO_STEP`` beats by more than ``tau = 4e-12 (1 + X)``, ``X = (n - 1) max w``, numbered
        in 4-point lattice bands (``_band_order``, built once a grid).  Rows and geodesics stay
        bitwise: every distance D a search reaches is at most X, so ``fl(fl(D_u + a) + b) <= (D_u
        + a + b)(1 + 2^-53)^2 < fl(D_u + w)`` for a + b + tau < w.  A search finds the least
        left-to-right float sum over paths, and float addition is monotone, so ``D_v <= fl(fl(D_u
        + a) + b)``: the arc sets no distance, absent or not.  And ``D_u + w - D_v > tau - 4e-16 (X
        + w) > 1e-12 (1 + D_v)``, so ``QuasihyperbolicMetric.geodesics`` would never walk it.
        Where ``fl(D + w) > D`` for every arc and ``D <= X`` (min w > 2^-52 X; at h = 0.01 about
        1e-2 against 1e-11), the float fixpoint ``D_v = min_u fl(D_u + w_uv)``, ``D_s = 0``, is
        unique and Dijkstra reaches it in any numbering; other weights keep the lattice order.  An
        imported graph has no lattice and gets ``reweighted(weights)`` and ``None``."""
        matrix = self.reweighted(weights)
        if self._lattice is None or not matrix.nnz:
            return matrix, None
        data, top = matrix.data, (self.n - 1) * matrix.data.max()
        _mask_dominated(self._lattice, self._indptr, self._indices, self._code, data,
                        4e-12 * (1.0 + top))
        tiny = data.min() <= 2.0**-52 * top  # fl(D + w) = D may happen: keep the lattice order
        bands = (np.arange(self.n, dtype=np.int32),) * 2 if tiny else built_once(
            self, "_bands", lambda: _band_order(self._lattice))
        return _compact(self._indptr, self._indices, data, *bands), bands


def _band_order(keep2d):
    """``int32`` (order, position), the vertex at each position and its inverse: bands of ``_BAND``
    lattice columns (``keep2d``'s second axis) by rows, so stencil neighbours sit a few apart."""
    ix, iy = np.nonzero(keep2d)
    order = np.lexsort((iy, ix, iy // _BAND)).astype(np.int32)
    return order, np.argsort(order).astype(np.int32)


def _compact(indptr, indices, data, order, position):
    """CSR of the finite arcs of ``data`` on the layout ``indptr``, ``indices``, row and column p
    standing for vertex ``order[p]``, moved a few hundred layout rows at a time in layout order."""
    n = len(order)
    count, starts = np.zeros(n, dtype=np.int32), indptr[:-1]
    some = starts < indptr[1:]  # reduceat reads one arc for a row with none
    count[some] = np.add.reduceat(data < np.inf, starts[some], dtype=np.int32)
    out_ptr = np.concatenate([[0], np.cumsum(count[order])]).astype(np.int32)
    out_data, out_indices = np.empty(out_ptr[-1]), np.empty(out_ptr[-1], dtype=np.int32)
    chunk = rows_per_block(8 * len(STEPS))  # up to 48 arcs a row, in 8-byte temporaries
    for v0 in range(0, n, chunk):
        arcs, size = slice(indptr[v0], indptr[min(v0 + chunk, n)]), count[v0:v0 + chunk]
        keep = data[arcs] < np.inf
        # the kept arcs of row v go to out_ptr[position[v]] onwards, in layout order
        to = np.repeat(out_ptr.take(position[v0:v0 + chunk]) - (np.cumsum(size) - size), size)
        to += np.arange(len(to))
        out_data[to] = data[arcs][keep]
        out_indices[to] = position.take(indices[arcs][keep])
    return csr_matrix((out_data, out_indices, out_ptr), shape=(n, n))


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


def _lattice_layout(keep2d, clip=None):
    """``indptr``, ``indices`` and step codes of the grid over the kept points of ``keep2d``.
    Column c of an n x 48 table holds each vertex p's neighbour p + STEPS[c] (-1: none), sorted
    as vertices are in lattice order; ``clip(p, q, c)`` marks upper arcs p -> q whose edges go."""
    nx, ny = keep2d.shape
    h, n, half = 4, int(np.count_nonzero(keep2d)), len(STENCIL)  # h: the longest axis step
    index = np.full((nx + 2 * h, ny + 2 * h), -1, dtype=np.int32)
    index[h:-h, h:-h][keep2d] = np.arange(n, dtype=np.int32)
    table = np.empty((n, len(STEPS)), dtype=np.int32)
    for c, (dx, dy) in enumerate(STEPS.tolist()):
        table[:, c] = index[h + dx:h + dx + nx, h + dy:h + dy + ny][keep2d]
    if clip is not None:
        p, c = np.nonzero(table[:, half:] >= 0)  # the upper arcs p -> q
        q, c = table[p, c + half], c + half
        cut = clip(p, q, c)
        table[p[cut], c[cut]] = table[q[cut], len(STEPS) - 1 - c[cut]] = -1
    present = table >= 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(present, axis=1))]).astype(np.int32)
    code = np.broadcast_to(np.arange(len(STEPS), dtype=np.int8), table.shape)[present]
    return indptr, table[present], code


def _mask_dominated(keep2d, indptr, indices, code, data, tau):
    """Write ``inf`` on both arcs of every edge heavier than a path of ``_TWO_STEP`` plus ``tau``.
    Band by band of lattice rows, ``grid[k]`` holds the weight of the edge (p, p + STENCIL[k]) from
    its upper arc at each point p of the band and its halo (``inf`` where there is none): ``h``
    columns either side, ``h`` rows after and the ``back`` rows before that reads look at (none for
    ``_TWO_STEP``), flattened with pad columns, so that a shifted read is one contiguous slice.
    ``dominated[k, p]`` marks the edge; a lower arc's edge lies in its band or an earlier one."""
    (nx, ny), n = keep2d.shape, len(indptr) - 1
    h, width, n_dir = 4, ny + 8, len(STENCIL)  # h: the longest stencil step along an axis
    back = -min(at[0] for paths in _TWO_STEP for path in paths for _, at in path)
    first = np.concatenate([[0], np.cumsum(np.count_nonzero(keep2d, axis=1))])
    dominated = np.zeros((n_dir, n), dtype=bool)
    # the grids take a block, the band's arcs (up to 48 a point) about as much again; the halo
    # rows are filled again for the next band, so a smaller band costs time
    band = max(1, rows_per_block(n_dir * width) - back - h)
    grid = np.empty((n_dir, (band + back + h) * width))
    low, path = np.empty(band * width), np.empty(band * width)
    for r0 in range(0, nx, band):
        r1, a, b = min(r0 + band, nx), max(r0 - back, 0), min(r0 + band + h, nx)
        size = (r1 - r0 - 1) * width + ny  # from the band's first point to its last
        # grid position of the vertices first[a] .. first[b] - 1, their arcs and each one's row
        vi, vj = np.divmod(np.flatnonzero(keep2d[a:b].ravel()).astype(np.int32), ny)
        at_v = (vi + (a - r0 + back)) * width + vj + h
        arcs = slice(indptr[first[a]], indptr[first[b]])
        row = np.repeat(np.arange(first[a], first[b], dtype=np.int32),
                        np.diff(indptr[first[a]:first[b] + 1]))
        c, w = code[arcs], data[arcs]
        up = c >= n_dir
        grid.fill(np.inf)
        grid[c[up] - n_dir, at_v[row[up] - first[a]]] = w[up]
        at = at_v[first[r0] - first[a]:first[r1] - first[a]]
        for k, paths in enumerate(_TWO_STEP):
            low[:size] = np.inf
            for (k1, (p1, q1)), (k2, (p2, q2)) in paths:
                o1, o2 = (back + p1) * width + h + q1, (back + p2) * width + h + q2
                np.add(grid[k1, o1:o1 + size], grid[k2, o2:o2 + size], out=path[:size])
                np.minimum(low[:size], path[:size], out=low[:size])
            dominated[k, first[r0]:first[r1]] = grid[k, at] > low[at - back * width - h] + tau
        # mask the band's arcs: edge (k, p) is (code - n_dir, row) on an upper arc, else
        # (n_dir - 1 - code, column)
        mine = slice(indptr[first[r0]] - arcs.start, indptr[first[r1]] - arcs.start)
        k = c[mine] - n_dir
        k ^= k >> 7  # n_dir - 1 - c on the lower arcs
        edge = k.astype(np.int32) * n
        edge += np.where(up[mine], row[mine], indices[arcs][mine])
        np.putmask(w[mine], dominated.ravel()[edge], np.inf)


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


def kd_tree(points) -> cKDTree:
    """scipy's k-d tree of ``points``.  ``scipy.spatial`` is imported here, on first use: the
    import costs a process about 7.5 MB of RSS, and a few points snap without a tree."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def nearest_in(tree: cKDTree, points: np.ndarray, name: str = "point") -> np.ndarray:
    """Index of the point of ``tree`` nearest each of ``points`` (an (m, 2) float array), as
    ``tree.query`` picks it: the least ``dx*dx + dy*dy``, exact ties by its traversal order.  A
    point that is not finite, or whose squared distance to every point overflows (``cKDTree``
    answers the index n for it), raises ConfigurationError naming it ``name``."""
    ok = np.isfinite(points).all(axis=1)
    if ok.all():
        dist, idx = tree.query(points)
        ok = dist < np.inf
    if not ok.all():
        x, y = points[np.argmin(ok)]
        raise ConfigurationError(f"{name} ({x:.6g}, {y:.6g}) has no nearest vertex: it is not "
                                 "finite, or its squared distance to every vertex overflows")
    return idx


class DomainSample:
    """Immutable discretized incomplete metric space.

    Interior vertices carry a length-graph structure; the ambient metric is
    Euclidean on coordinates, and ``boundary_distance[i]`` is the distance from
    vertex i to the metric boundary (analytic when the shape provides it, otherwise
    the minimum over boundary samples: ``boundary_tree`` is their k-d tree, built by
    the grid's build or on the first ``boundary_distance_at``).

    ``nearest_vertex`` snaps points to vertices as ``cKDTree.query`` does.  A few points
    are settled against every vertex; the vertex tree is built only for the others.
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
        boundary_tree: cKDTree | None = None,
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
        self._kdtree = None
        self._boundary_tree = boundary_tree
        for arr in (self.coords, self.boundary_coords, self.boundary_distance):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def ambient_view(self) -> EuclideanView:
        return self._ambient

    def graph_view(self) -> GraphView:
        """Shortest-path view of the length graph, built once on first use."""
        return built_once(self, "_graph_view", lambda: GraphView(self.graph.matrix))

    def ambient_distance(self, i, j) -> np.ndarray:
        return self._ambient.pairs(np.atleast_1d(i), np.atleast_1d(j))

    def vertex_tree(self) -> cKDTree:
        """The k-d tree of the vertices, built once on first use."""
        return built_once(self, "_kdtree", lambda: kd_tree(self.coords))

    def nearest_vertex(self, points, name: str = "point") -> np.ndarray:
        """Index of the vertex nearest each point, bitwise the one ``cKDTree.query`` answers.

        When the (m, n) table of squared distances fits one block of rows, each point takes
        the least ``dx*dx + dy*dy`` (as ``cKDTree`` computes it) over every vertex, if that
        least value is finite and unique.  The rest go to the vertex tree (``nearest_in``):
        exact ties, which ``cKDTree`` breaks by its traversal order, points that are not
        finite or too far, and every point of a larger set.  A point without a nearest vertex
        raises ConfigurationError naming it ``name``.
        """
        pts = np.atleast_2d(np.asarray(points, float))
        if pts.ndim != 2 or pts.shape[1] != 2:  # the columns would be read as x and y
            raise ConfigurationError(f"{name}: expected (x, y) pairs, got shape {pts.shape}")
        idx, rest = np.zeros(len(pts), dtype=np.intp), np.arange(len(pts))
        if len(pts) <= rows_per_block(self.n):
            dx = pts[:, 0, None] - self.coords[:, 0]
            dy = pts[:, 1, None] - self.coords[:, 1]
            with np.errstate(over="ignore"):  # too far: left to the tree, which raises
                d2 = dx * dx + dy * dy
            idx, least = d2.argmin(axis=1), d2.min(axis=1)  # NaN for a point with a NaN
            unique = np.count_nonzero(d2 == least[:, None], axis=1) == 1
            rest = np.flatnonzero(~unique | (least == np.inf))
        if len(rest):
            idx[rest] = nearest_in(self.vertex_tree(), pts[rest], name)
        return idx

    def boundary_distance_at(self, points) -> np.ndarray:
        """Boundary distance at arbitrary points (not only vertices)."""
        pts = np.atleast_2d(np.asarray(points, float))
        if self.geometry is not None and self.geometry.analytic_boundary:
            return self.geometry.boundary_distance(pts)
        tree = built_once(self, "_boundary_tree", lambda: kd_tree(self.boundary_coords))
        return tree.query(pts)[0]

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
    without building it.  The layout comes straight from the lattice
    (``_lattice_layout``): ``int32`` and one ``int8`` step code an arc.

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

    boundary, tree = geom.boundary_samples(h), None
    if geom.analytic_boundary:
        bdist = geom.boundary_distance(lattice)
    else:
        tree = kd_tree(boundary)
        bdist = tree.query(lattice)[0]
        bdist = np.where(geom.contains(lattice), bdist, -bdist)

    keep = (bdist > tol) & (bdist >= boundary_band_h * h)
    if not np.any(keep):
        raise ConfigurationError(
            f"empty interior for {spec.kind} at resolution {h}; refine the grid"
        )
    coords, inner_bdist = lattice[keep], bdist[keep]
    lengths = np.array([h * math.hypot(dx, dy) for dx, dy in STEPS.tolist()])
    clip = None
    if not geom.convex and getattr(geom, "_needs_clipping", True):
        def clip(p, q, c):
            near = np.flatnonzero(np.maximum(inner_bdist[p], inner_bdist[q]) <= lengths[c] + h)
            pa, pb = coords[p[near]], coords[q[near]]
            inside = geom.contains((pa + _EDGE_FRACTIONS * (pb - pa)).reshape(-1, 2))
            return near[~inside.reshape(len(_EDGE_FRACTIONS), -1).all(axis=0)]

    keep2d = keep.reshape(nx, ny)
    layout = (keep2d, *_lattice_layout(keep2d, clip))
    graph = LengthGraph(len(coords), None, lengths, coords, layout)
    return DomainSample(graph, boundary, inner_bdist, shape=spec, geometry=geom,
                        quasiconvexity=1.0, resolution=h, boundary_tree=tree)


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
    tree = kd_tree(boundary_coords)
    return DomainSample(graph, boundary_coords, tree.query(coords)[0],
                        quasiconvexity=quasiconvexity, boundary_tree=tree)


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
