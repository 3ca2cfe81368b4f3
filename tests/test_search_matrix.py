"""``LengthGraph.search_matrix``: arcs beaten by a two-edge path get ``inf``, and every
query on the matrix (full, limited and multi-source rows, geodesics) stays bitwise."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from qhgeo import (QuasihyperbolicMetric, ShapeSpec, build_grid_domain, domain_from_length_graph,
                   metric_core, views)
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


def assert_same_csr(a, b):
    for key in ("indptr", "indices", "data"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def tau(weights, n):
    return 4e-12 * (1.0 + (n - 1) * weights.max())


class Weighted(QuasihyperbolicMetric):
    """Geodesics and rows of ``QuasihyperbolicMetric`` over a given matrix."""

    def __init__(self, domain, matrix):
        self.domain, self.matrix, self._view = domain, matrix, GraphView(matrix)


@st.composite
def weighted_grids(draw):
    """(domain, weights): a disk, the slit square or a punctured truncation at a random
    resolution and band, with the trapezoid weights of a random positive vertex density
    (1/d_G or 1 times a random factor)."""
    kind = draw(st.sampled_from(["disk", "slit", "punctured"]))
    if kind == "disk":
        spec = ShapeSpec("disk", {"radius": 1.0}, draw(st.floats(0.06, 0.15)))
    elif kind == "slit":
        spec = ShapeSpec("custom-polygon", {"vertices": SLIT_SQUARE}, draw(st.floats(0.05, 0.1)))
    else:
        spec = ShapeSpec("punctured-plane-truncation", {"radius": 2.0},
                         draw(st.floats(0.12, 0.25)))
    d = build_grid_domain(spec, draw(st.sampled_from([0.0, 2.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from([0.2, 0.9, 1.0]))
    density = rng.uniform(low, 1.0, d.n)
    if draw(st.booleans()):
        density /= d.boundary_distance
    return d, d.graph.trapezoid(d.graph.lengths, density)


def masked_arcs(matrix):
    """Row, column and position of every ``inf`` arc."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    at = np.flatnonzero(np.isinf(matrix.data))
    return rows[at], matrix.indices[at], at


class TestQueriesBitwise:
    @given(weighted_grids(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_limited_rows_and_target_sets_equal_reweighted(self, case, data):
        d, w = case
        masked, full = d.graph.search_matrix(w), d.graph.reweighted(w)
        index = st.integers(0, d.n - 1)
        src = data.draw(st.lists(index, min_size=1, max_size=6))
        rows = dijkstra(full, directed=True, indices=src)
        assert dijkstra(masked, directed=True, indices=src).tobytes() == rows.tobytes()
        limit = data.draw(st.floats(0.0, 1.0)) * rows.max()
        assert (dijkstra(masked, directed=True, indices=src, limit=limit).tobytes()
                == dijkstra(full, directed=True, indices=src, limit=limit).tobytes())
        targets = data.draw(st.lists(index, min_size=1, max_size=4))
        assert (GraphView(masked).min_distance_to(targets).tobytes()
                == GraphView(full).min_distance_to(targets).tobytes())
        i = np.array(data.draw(st.lists(index, min_size=1, max_size=8)))
        j = np.array(data.draw(st.lists(index, min_size=len(i), max_size=len(i))))
        got, expected = Weighted(d, masked).geodesics(i, j), Weighted(d, full).geodesics(i, j)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @given(weighted_grids(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_masked_arcs_are_beaten_and_never_on_a_path(self, case, data):
        d, w = case
        masked, full = d.graph.search_matrix(w), d.graph.reweighted(w)
        v, u, at = masked_arcs(masked)
        weight = full.data[at]
        # a two-edge path is lighter by more than tau (the edge itself is its own bound)
        assert np.all(GraphView(full)._hop_bounds(u, v) < weight - tau(w, d.n))
        # _predecessor's on-path test for u as v's predecessor fails at the arc's true weight
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
    def test_length_weights_mask_no_arc(self, spec):
        # coprime stencil steps: every two-step path is longer than the edge it spans
        g = build_grid_domain(spec, 2.0).graph
        assert_same_csr(g.search_matrix(g.lengths), g.reweighted(g.lengths))

    def test_imported_graph_gets_reweighted_bitwise(self):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        imported = domain_from_length_graph(d.coords, d.graph.edges, d.boundary_coords)
        w = imported.graph.trapezoid(imported.graph.lengths, 1.0 / imported.boundary_distance)
        assert imported.graph._lattice is None
        assert_same_csr(imported.graph.search_matrix(w), imported.graph.reweighted(w))
        assert np.isinf(d.graph.search_matrix(w).data).any()  # the same weights on the grid

    def test_matrix_is_symmetric_and_sorted_on_the_shared_layout(self, disk_mid):
        d, k = disk_mid
        m, full = k.matrix, d.graph.reweighted(k.edge_weights)
        assert np.shares_memory(m.indices, full.indices) and np.shares_memory(m.indptr, full.indptr)
        assert m.has_sorted_indices
        assert np.array_equal(np.isinf(m.data), np.isinf(m.T.tocsr().data))
        assert np.array_equal(m.data, np.where(np.isinf(m.data), np.inf, full.data))
        # 31.3% of the arcs of the qh-pairs grid, and directed=True stays valid
        assert np.isinf(m.data).sum() == 103_728
        src = [0, d.n // 2]
        assert (dijkstra(m, directed=True, indices=src).tobytes()
                == dijkstra(m, directed=False, indices=src).tobytes())

    @pytest.mark.parametrize("shape", shipped_shapes() + [
        {"kind": "custom-polygon", "params": {"vertices": SLIT_SQUARE}, "resolution": 0.05}])
    def test_short_detours_mask_what_every_two_step_path_masks(self, shape):
        d = build_grid_domain(ShapeSpec.from_json(shape), 2.0)
        w = d.graph.trapezoid(d.graph.lengths, 1.0 / d.boundary_distance)
        every = metric_core._two_step_reads(detour=10.0)
        assert sum(map(len, every)) == 360 and sum(map(len, metric_core._TWO_STEP)) == 48
        with mock.patch.object(metric_core, "_TWO_STEP", every):
            expected = d.graph.search_matrix(w)
        assert_same_csr(d.graph.search_matrix(w), expected)

    def test_two_step_reads_stay_within_the_forward_halo(self):
        # _dominated_edges fills h = 4 rows after a band and h columns either side of it, and
        # no row before it for these paths
        reads = [at for paths in metric_core._TWO_STEP for path in paths for _, at in path]
        assert all(0 <= row <= 4 and -4 <= col <= 4 for row, col in reads)
        assert min(row for row, _ in reads) == 0

    def test_bands_do_not_change_the_mask(self, disk_mid):
        d, k = disk_mid
        with mock.patch.object(views, "_ROW_BLOCK_BYTES", 1):  # one lattice row a band
            assert_same_csr(d.graph.search_matrix(k.edge_weights), k.matrix)

    def test_temporaries_within_the_mask_and_two_blocks(self, disk_mid):
        d, k = disk_mid
        w = k.edge_weights
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m = d.graph.search_matrix(w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the matrix's data, one byte an edge of mask, and the banded weight grids
        assert peak < m.data.nbytes + len(w) + 2 * views._ROW_BLOCK_BYTES
