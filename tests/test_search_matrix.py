"""``LengthGraph.search_matrix``: a compact graph, numbered in 4-point lattice bands, that holds
only the arcs no two-edge path beats.  Every query on it (full, limited and mixed-limit rows,
pairs, blocks, target sets, geodesics) is bitwise the query on the masked matrix, whose beaten
arcs weigh ``inf`` (``reweighted`` and ``_mask_dominated``, kept here as the reference)."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from qhgeo import (ConfigurationError, QuasihyperbolicMetric, ShapeSpec, build_grid_domain,
                   domain_from_length_graph, metric_core, views)
from qhgeo.views import GraphView

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "qhgeo" / "verifier" / "scenarios"


def shipped_shapes():
    """Every distinct shape of the shipped scenarios."""
    shapes = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        for dom in json.loads(path.read_text())["domains"]:
            shapes.setdefault(json.dumps(dom["shape"], sort_keys=True),
                              pytest.param(dom["shape"], id=f"{path.stem}-{dom['name']}"))
    return list(shapes.values())


# a square with a slit from the top edge: stencil edges across the slit are clipped
SLIT_SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [0.1, 1.0], [0.1, -0.2], [-0.1, -0.2],
               [-0.1, 1.0], [-1.0, 1.0]]
# every shape kind at coarse resolutions: (kind, params, resolutions)
SHAPES = [
    ("disk", {"radius": 1.0}, (0.06, 0.15)),
    ("annulus", {"inner_radius": 0.3, "outer_radius": 1.0}, (0.04, 0.1)),
    ("square", {"side": 1.0}, (0.03, 0.12)),
    ("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, (0.05, 0.15)),
    ("half-plane-truncation", {"radius": 2.0}, (0.08, 0.25)),
    ("punctured-plane-truncation", {"radius": 2.0}, (0.12, 0.25)),
    ("custom-polygon", {"vertices": SLIT_SQUARE}, (0.05, 0.1)),
]


def assert_same_csr(a, b):
    for key in ("indptr", "indices", "data"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def tau(weights, n):
    return 4e-12 * (1.0 + (n - 1) * weights.max())


def masked(graph, weights):
    """The reference: ``reweighted`` over a copy of ``weights``, ``inf`` on every arc that
    ``_mask_dominated`` marks, rows and columns by vertex."""
    m = graph.reweighted(weights.copy())
    metric_core._mask_dominated(graph._lattice, graph._indptr, graph._indices, graph._code,
                                m.data, tau(weights, graph.n))
    return m


def vertex_arcs(matrix, order=None, finite_only=False):
    """(u, v, weight) of the arcs of ``matrix``, row and column p read as vertex ``order[p]``,
    sorted by (u, v); ``finite_only`` drops the ``inf`` arcs."""
    p = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    u, v = (p, matrix.indices) if order is None else (order[p], order[matrix.indices])
    at = np.lexsort((v, u))
    if finite_only:
        at = at[np.isfinite(matrix.data[at])]
    return u[at], v[at], matrix.data[at]


def assert_same_arcs(a, b):
    assert all(x.astype(np.int64).tobytes() == y.astype(np.int64).tobytes()
               for x, y in zip(a[:2], b[:2]))
    assert a[2].tobytes() == b[2].tobytes()


class Weighted(QuasihyperbolicMetric):
    """Geodesics and rows of ``QuasihyperbolicMetric`` over a given matrix and numbering."""

    def __init__(self, domain, matrix, bands=None):
        self.domain, self._view = domain, GraphView(matrix, bands)


@st.composite
def weighted_grids(draw):
    """(domain, weights): a grid of any shape kind at a random coarse resolution and band, with
    the trapezoid weights of a random positive vertex density (1/d_G or 1 times a random
    factor).  Grids that fall apart are skipped."""
    kind, params, (h_low, h_high) = draw(st.sampled_from(SHAPES))
    try:
        d = build_grid_domain(ShapeSpec(kind, params, draw(st.floats(h_low, h_high))),
                              draw(st.sampled_from([0.0, 2.0])))
    except ConfigurationError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from([0.2, 0.9, 1.0]))
    density = rng.uniform(low, 1.0, d.n)
    if draw(st.booleans()):
        density /= d.boundary_distance
    return d, d.graph.trapezoid(density)


def assert_queries_equal(d, w, data):
    """Every query on the compact graph of ``w`` equals it on the masked reference, bitwise;
    rows, limited rows and target sets also equal those of every arc."""
    compact, bands = d.graph.search_matrix(w.copy())
    ref, every = masked(d.graph, w), d.graph.reweighted(w)  # fresh views: nothing cached
    index = st.integers(0, d.n - 1)
    src = data.draw(st.lists(index, min_size=1, max_size=6))
    rows = GraphView(compact, bands).rows(src)
    assert rows.tobytes() == GraphView(ref).rows(src).tobytes()
    assert rows.tobytes() == dijkstra(every, directed=True, indices=src).tobytes()
    limit = data.draw(st.floats(0.0, 1.0)) * rows.max()
    got = GraphView(compact, bands).rows(src, limit=limit).tobytes()
    assert got == GraphView(ref).rows(src, limit=limit).tobytes()
    assert got == GraphView(every).rows(src, limit=limit).tobytes()
    limits = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(src),
                                         max_size=len(src)))) * rows.max()
    got = GraphView(compact, bands).rows(src, limit=limits).tobytes()
    assert got == GraphView(ref).rows(src, limit=limits).tobytes()
    assert got == GraphView(every).rows(src, limit=limits).tobytes()
    i = np.array(data.draw(st.lists(index, min_size=1, max_size=8)))
    j = np.array(data.draw(st.lists(index, min_size=len(i), max_size=len(i))))
    assert (GraphView(compact, bands).pairs(i, j).tobytes()
            == GraphView(ref).pairs(i, j).tobytes())
    idx = np.array(data.draw(st.lists(index, min_size=1, max_size=5)))
    assert (GraphView(compact, bands).submatrix(idx).tobytes()
            == GraphView(ref).submatrix(idx).tobytes())
    targets = data.draw(st.lists(index, min_size=1, max_size=4))
    got = GraphView(compact, bands).min_distance_to(targets).tobytes()
    assert got == GraphView(ref).min_distance_to(targets).tobytes()
    assert got == GraphView(every).min_distance_to(targets).tobytes()
    got = Weighted(d, compact, bands).geodesics(i, j)
    expected = Weighted(d, d.graph.reweighted(w)).geodesics(i, j)
    assert len(got) == len(expected) and all(map(np.array_equal, got, expected))


class TestQueriesBitwise:
    @given(weighted_grids(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_queries_equal_the_masked_reference(self, case, data):
        assert_queries_equal(*case, data)

    @given(st.data())
    @settings(max_examples=5, deadline=None)
    def test_queries_on_the_h002_disk(self, disk_mid, data):
        d, k = disk_mid
        assert_queries_equal(d, k.arc_weights, data)

    @given(weighted_grids())
    @settings(max_examples=40, deadline=None)
    def test_arcs_are_the_finite_arcs_of_the_masked_matrix(self, case):
        d, w = case
        compact, (order, position) = d.graph.search_matrix(w.copy())
        assert order.dtype == position.dtype == np.int32
        assert np.array_equal(np.sort(order), np.arange(d.n))
        assert np.array_equal(position[order], np.arange(d.n))
        arcs = vertex_arcs(compact, order)
        assert_same_arcs(arcs, vertex_arcs(masked(d.graph, w), finite_only=True))
        # symmetric: each arc's reverse holds the same weight
        back = np.lexsort((arcs[0], arcs[1]))
        assert_same_arcs((arcs[1][back], arcs[0][back], arcs[2][back]), arcs)

    @given(weighted_grids(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_masked_arcs_are_beaten_and_never_on_a_path(self, case, data):
        d, w = case
        ref, full = masked(d.graph, w), d.graph.reweighted(w)
        gone = np.isinf(ref.data)
        v = np.repeat(np.arange(d.n), np.diff(ref.indptr))[gone]
        u, weight = ref.indices[gone], full.data[gone]
        # a two-edge path is lighter by more than tau (the edge itself is its own bound)
        assert np.all(GraphView(full)._hop_bounds(u, v) < weight - tau(w, d.n))
        # the geodesic walk's on-path test for u as v's predecessor fails at the arc's true weight
        src = data.draw(st.lists(st.integers(0, d.n - 1), min_size=1, max_size=4))
        for dist in dijkstra(full, directed=True, indices=src):
            du, dv = dist[u], dist[v]
            assert not np.any((np.abs(du + weight - dv) <= 1e-12 * (1.0 + dv)) & (du < dv))


class TestBoundaryCases:
    @pytest.mark.parametrize("spec", [
        ShapeSpec("disk", {"radius": 1.0}, 0.05),
        ShapeSpec("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, 0.05),
        ShapeSpec("custom-polygon", {"vertices": SLIT_SQUARE}, 0.05),
        ShapeSpec("annulus", {"inner_radius": 0.3, "outer_radius": 1.0}, 0.05),
    ])
    def test_length_weights_drop_no_arc(self, spec):
        # coprime stencil steps: every two-step path is longer than the edge it spans
        g = build_grid_domain(spec, 2.0).graph
        compact, (order, _) = g.search_matrix(g.matrix.data.copy())
        assert_same_arcs(vertex_arcs(compact, order), vertex_arcs(g.matrix))

    def test_imported_graph_gets_reweighted_bitwise(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        imported = domain_from_length_graph(d.coords, d.graph.edges, d.boundary_coords)
        w = imported.graph.trapezoid(1.0 / imported.boundary_distance)
        assert imported.graph._lattice is None
        matrix, bands = imported.graph.search_matrix(w.copy())
        assert bands is None
        assert_same_csr(matrix, imported.graph.reweighted(w))
        # the same weights on the grid, whose layout is the same
        assert d.graph.search_matrix(w.copy())[0].nnz < len(w)

    def test_band_order_and_arc_count_on_the_shared_layout(self, disk_mid):
        d, k = disk_mid
        m, order = k.view().matrix, k.view().order
        ix, iy = np.nonzero(d.graph._lattice)
        assert np.array_equal(order, np.lexsort((iy, ix, iy // 4)))
        assert order is d.graph._bands[0]  # one numbering a grid
        # 31.3% of the arcs of the qh-pairs grid are gone, and directed=True stays valid
        assert len(d.graph._indices) - m.nnz == 103_728
        src = [0, d.n // 2]
        assert (dijkstra(m, directed=True, indices=src).tobytes()
                == dijkstra(m, directed=False, indices=src).tobytes())

    def test_tiny_weights_keep_the_lattice_order(self):
        # fl(D + w) = D for a weight below 2^-53 D: the numbering falls back to the lattice's
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        density = np.ones(d.n)
        density[: d.n // 3] = 1e-30
        w = d.graph.trapezoid(density)
        assert w.min() <= 2.0**-52 * (d.n - 1) * w.max()
        compact, bands = d.graph.search_matrix(w.copy())
        assert all(np.array_equal(a, np.arange(d.n)) for a in bands)
        assert_same_arcs(vertex_arcs(compact, bands[0]),
                         vertex_arcs(masked(d.graph, w), finite_only=True))
        src = [0, d.n // 2, d.n - 1]
        assert (GraphView(compact, bands).rows(src).tobytes()
                == GraphView(masked(d.graph, w)).rows(src).tobytes())

    @pytest.mark.parametrize("shape", shipped_shapes() + [
        {"kind": "custom-polygon", "params": {"vertices": SLIT_SQUARE}, "resolution": 0.05}])
    def test_short_detours_mask_what_every_two_step_path_masks(self, shape):
        d = build_grid_domain(ShapeSpec.from_json(shape), 2.0)
        w = d.graph.trapezoid(1.0 / d.boundary_distance)
        every = metric_core._two_step_reads(detour=10.0)
        assert sum(map(len, every)) == 360 and sum(map(len, metric_core._TWO_STEP)) == 48
        with mock.patch.object(metric_core, "_TWO_STEP", every):
            expected = d.graph.search_matrix(w.copy())[0]
        assert_same_csr(d.graph.search_matrix(w)[0], expected)

    def test_two_step_reads_stay_within_the_forward_halo(self):
        # _mask_dominated fills h = 4 rows after a band and h columns either side of it, and
        # no row before it for these paths
        reads = [at for paths in metric_core._TWO_STEP for path in paths for _, at in path]
        assert all(0 <= row <= 4 and -4 <= col <= 4 for row, col in reads)
        assert min(row for row, _ in reads) == 0

    def test_bands_and_blocks_do_not_change_the_graph(self, disk_mid):
        d, k = disk_mid
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 1):  # one lattice row a band
            assert_same_csr(d.graph.search_matrix(k.arc_weights)[0], k.view().matrix)

    def test_temporaries_within_the_weights_and_three_blocks(self, disk_mid):
        d, k = disk_mid
        w = k.arc_weights
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m, _ = d.graph.search_matrix(w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the weights are scratch; the graph's own data and indices, one byte an arc to count
        # its rows, the mask's byte a direction and vertex, and a band's grids and gathers
        assert not np.shares_memory(m.data, w)
        assert peak < w.nbytes + 3 * views._ROW_BLOCK_BYTES

    def test_finest_shipped_grid_search_arrays_under_14_5_mib(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.01), 2.0)
        k = QuasihyperbolicMetric(d)
        m, (order, position) = k.view().matrix, d.graph._bands
        held = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + order.nbytes + position.nbytes
        # 1,416,832 arcs on the layout, whose masked data alone took 10.81 MiB
        assert m.nnz == 1_193_312 and m.indices.dtype == order.dtype == np.int32
        assert held <= 14.5 * 2**20
