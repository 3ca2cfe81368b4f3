"""A grid's layout comes straight from the lattice: it equals, bitwise, the layout, lengths and
quasihyperbolic search matrix built the earlier way, from an explicit edge list."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgeo import InternalError, LengthGraph, QuasihyperbolicMetric, ShapeSpec, build_grid_domain
from qhgeo.metric_core import _EDGE_FRACTIONS, _TWO_STEP, STENCIL, STEPS, _csr_layout

# a square with a slit from the top edge: stencil edges across the slit are clipped
SLIT_SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [0.1, 1.0], [0.1, -0.2], [-0.1, -0.2],
               [-0.1, 1.0], [-1.0, 1.0]]
# every shape kind at coarse resolutions: (kind, params, resolutions)
SHAPES = [
    ("disk", {"radius": 1.0}, (0.06, 0.2)),
    ("annulus", {"inner_radius": 0.3, "outer_radius": 1.0}, (0.04, 0.12)),
    ("square", {"side": 1.0}, (0.03, 0.15)),
    ("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, (0.05, 0.15)),
    ("half-plane-truncation", {"radius": 2.0}, (0.08, 0.25)),
    ("punctured-plane-truncation", {"radius": 2.0}, (0.08, 0.25)),
    ("custom-polygon", {"vertices": SLIT_SQUARE}, (0.04, 0.1)),
]


def stencil_edges(keep2d, index2d, h):
    """The edge list of the earlier build: direction by direction, by lower end."""
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
    return edges, np.concatenate(edge_len)


def reference(d):
    """The grid of ``d`` the earlier way: its edge list (clipped as before), the CSR layout of
    ``_csr_layout``, per-edge trapezoid weights and their search matrix's data."""
    keep2d, h, geom = d.graph._lattice, d.resolution, d.geometry
    index2d = np.full(keep2d.shape, -1, dtype=np.int32)
    index2d[keep2d] = np.arange(d.n, dtype=np.int32)
    edges, lengths = stencil_edges(keep2d, index2d, h)
    if not geom.convex and getattr(geom, "_needs_clipping", True):
        u, v, bdist = edges[:, 0], edges[:, 1], d.boundary_distance
        near = np.flatnonzero(np.maximum(bdist[u], bdist[v]) <= lengths + h)
        pa, pb = d.coords[u[near]], d.coords[v[near]]
        inside = geom.contains((pa + _EDGE_FRACTIONS * (pb - pa)).reshape(-1, 2))
        ok = np.ones(len(edges), dtype=bool)
        ok[near] = inside.reshape(len(_EDGE_FRACTIONS), -1).all(axis=0)
        edges, lengths = edges[ok], lengths[ok]
    indptr, indices, arc_edge = _csr_layout(d.n, edges)
    density = 1.0 / d.boundary_distance
    weights = lengths * 0.5 * (density[edges[:, 0]] + density[edges[:, 1]])
    data = weights[arc_edge]
    if len(weights):
        tau = 4e-12 * (1.0 + (d.n - 1) * weights.max())
        data[dominated(keep2d, index2d, edges, weights, tau)[arc_edge]] = np.inf
    return edges, lengths, indptr, indices, lengths[arc_edge], data


def dominated(keep2d, index2d, edges, weights, tau):
    """Edges heavier than a ``_TWO_STEP`` path plus ``tau``, read off whole-lattice arrays."""
    nx, ny, pad = *keep2d.shape, 4
    i, j = np.nonzero(keep2d)
    lower_i, lower_j = i[edges[:, 0]], j[edges[:, 0]]
    step = np.column_stack([i[edges[:, 1]] - lower_i, j[edges[:, 1]] - lower_j])
    direction = {tuple(s): k for k, s in enumerate(STENCIL.tolist())}
    k_of = np.array([direction[tuple(s)] for s in step.tolist()], dtype=int)
    grid = np.full((len(STENCIL), nx + 2 * pad, ny + 2 * pad), np.inf)
    grid[k_of, lower_i + pad, lower_j + pad] = weights
    low = np.full((len(STENCIL), nx, ny), np.inf)
    for k, paths in enumerate(_TWO_STEP):
        for (k1, (p1, q1)), (k2, (p2, q2)) in paths:
            low[k] = np.minimum(low[k], grid[k1, pad + p1:pad + p1 + nx, pad + q1:pad + q1 + ny]
                                + grid[k2, pad + p2:pad + p2 + nx, pad + q2:pad + q2 + ny])
    return weights > low[k_of, lower_i, lower_j] + tau


@st.composite
def grids(draw):
    kind, params, (h_low, h_high) = draw(st.sampled_from(SHAPES))
    spec = ShapeSpec(kind, params, draw(st.floats(h_low, h_high)))
    # coarse grids may fall apart into components; the layout is compared all the same
    with mock.patch.object(LengthGraph, "_check_connected", lambda self: None):
        return build_grid_domain(spec, draw(st.sampled_from([0.0, 2.0])))


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLatticeLayout:
    @given(grids())
    @settings(max_examples=60, deadline=None)
    def test_layout_lengths_and_search_matrix_equal_the_edge_list_build(self, d):
        edges, lengths, indptr, indices, arc_lengths, data = reference(d)
        g = d.graph
        assert same(g._indptr, indptr) and same(g._indices, indices)
        assert same(g.edges, edges.astype(np.int32)) and same(g.lengths, lengths)
        rows = np.repeat(np.arange(d.n), np.diff(indptr))
        assert same(g.arc_lengths(rows, indices), arc_lengths)
        assert same(g.matrix.data, arc_lengths)
        assert same(QuasihyperbolicMetric(d).matrix.data, data)

    def test_finest_shipped_grid_holds_under_7_mib(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.01), 2.0)
        g = d.graph
        held = [a for a in vars(g).values() if isinstance(a, np.ndarray) and a is not g.coords]
        # int32 indptr and indices and an int8 code an arc; nothing per edge (21.7 MiB before)
        assert sum(a.nbytes for a in held) <= 7 * 2**20
        assert d.n == 30_149 and len(g._indices) == 1_416_832 and g._code.dtype == np.int8
        assert sorted(a.dtype.itemsize for a in held if a.size >= len(g._indices) // 2) == [1, 4]

    def test_arc_lengths_reject_a_step_that_is_no_grid_edge(self):
        d = build_grid_domain(ShapeSpec("custom-polygon", {"vertices": SLIT_SQUARE}, 0.05))
        g, (i, j) = d.graph, np.nonzero(d.graph._lattice)
        at = {(a, b): v for v, (a, b) in enumerate(zip(i.tolist(), j.tolist()))}
        # a stencil step between two vertices whose edge the slit clipped
        u, v = next((u, at[i[u] + dx, j[u] + dy]) for u in range(d.n)
                    for dx, dy in STEPS.tolist() if (i[u] + dx, j[u] + dy) in at
                    and at[i[u] + dx, j[u] + dy] not in g._indices[g._indptr[u]:g._indptr[u + 1]])
        pa, pb = d.coords[u], d.coords[v]
        assert not d.contains(pa + _EDGE_FRACTIONS[:, 0] * (pb - pa)).all()  # through the slit
        a, b = 0, int(g._indices[0])  # an arc
        assert g.arc_lengths([a], [b]).tobytes() == np.asarray(g.matrix[a, b]).ravel().tobytes()
        for step in [(u, v), (v, u), (a, a), (0, d.n - 1)]:
            with pytest.raises(InternalError, match="not an edge"):
                g.arc_lengths([a, step[0]], [b, step[1]])
