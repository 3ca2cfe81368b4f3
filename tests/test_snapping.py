"""Nearest-vertex snapping: a few points are settled against every vertex, bitwise as
``cKDTree.query`` answers them, and only exact ties and larger point sets reach the vertex tree,
which is built for them.  ``scipy.spatial`` stays out of a run that needs no tree."""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from qhgeo import (
    ConfigurationError,
    DomainSide,
    LengthGraph,
    QuasihyperbolicMetric,
    ShapeSpec,
    build_grid_domain,
    domain_from_length_graph,
)
from qhgeo import metric_core
from qhgeo.views import rows_per_block

SRC = Path(__file__).resolve().parents[1] / "src"
SHAPES = {
    "disk": ("disk", {"radius": 1.0}, 0.05),
    "L-shape": ("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, 0.05),
    "punctured": ("punctured-plane-truncation", {"radius": 2.0}, 0.1),
}


@functools.cache
def grid(name, band):
    kind, params, h = SHAPES[name]
    return build_grid_domain(ShapeSpec(kind, params, h), band)


@st.composite
def polygons(draw):
    """A star-shaped polygon of 3 to 9 corners, convex or not, on a grid of h = 0.07 or 0.1."""
    k = draw(st.integers(3, 9))
    radii = draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    corners = [[r * math.cos(turn + 2.0 * math.pi * a / k), r * math.sin(turn + 2.0 * math.pi * a / k)]
               for a, r in enumerate(radii)]
    spec = ShapeSpec("custom-polygon", {"vertices": corners}, draw(st.sampled_from([0.07, 0.1])))
    # a narrow corner may cut the grid in two; snapping does not read the edges
    with mock.patch.object(LengthGraph, "_check_connected", lambda self: None):
        return build_grid_domain(spec, draw(st.sampled_from([0.0, 2.0])))


@st.composite
def scattered(draw):
    """An imported graph (a path) through 1 to 400 points: a random part of a lattice of step
    0.03 to 0.125 from a random origin, whose points hold exact ties, or uniform points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, m = draw(st.sampled_from([0.03, 0.1, 0.125])), draw(st.integers(1, 400))
    origin = rng.integers(-300, 300, size=2)
    if draw(st.booleans()):
        cells = rng.choice(900, size=min(m, 900), replace=False)
        coords = (origin + np.column_stack([cells // 30, cells % 30])) * h
    else:
        coords = (origin + rng.uniform(0.0, 30.0, size=(m, 2))) * h
    edges = np.column_stack([np.arange(len(coords) - 1), np.arange(1, len(coords))])
    return domain_from_length_graph(coords, edges, [(origin - 1.0) * h], lengths=np.ones(len(edges)))


@st.composite
def points(draw, d, spacing):
    """Points of every kind around ``d``: uniform, lattice points of step ``spacing``, edge
    midpoints and cell centres (exact ties between lattice neighbours), boundary samples and
    points past the bounding box."""
    h = spacing
    lo, hi = d.coords.min(axis=0) - 3 * h, d.coords.max(axis=0) + 3 * h
    (i0, j0), (i1, j1) = np.floor(lo / h).astype(int).tolist(), np.ceil(hi / h).astype(int).tolist()
    half = st.sampled_from([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])
    lattice = st.builds(lambda i, j, f: ((i + f[0]) * h, (j + f[1]) * h),
                        st.integers(i0, i1), st.integers(j0, j1), half)
    uniform = st.tuples(st.floats(lo[0], hi[0]), st.floats(lo[1], hi[1]))
    boundary = st.sampled_from(d.boundary_coords.tolist()).map(tuple)
    outside = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).filter(
        lambda p: not (lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]))
    return np.array(draw(st.lists(st.one_of(uniform, lattice, boundary, outside), min_size=1,
                                  max_size=60)), dtype=float)


def tree_answer(d, pts):
    return cKDTree(d.coords).query(pts)[1]


def snapped_by_tree(d, pts):
    """``d.nearest_vertex(pts)`` and the number of those points it sent to the vertex tree."""
    sent = []

    def counted(tree, rest, name):
        sent.append(len(rest))
        return nearest_in(tree, rest, name)

    nearest_in = metric_core.nearest_in
    with mock.patch.object(metric_core, "nearest_in", counted):
        return d.nearest_vertex(pts).tolist(), sum(sent)


class TestSnapping:
    @pytest.mark.parametrize("band", [0.0, 2.0])
    @pytest.mark.parametrize("name", sorted(SHAPES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shapes_snap_as_the_tree_does(self, name, band, data):
        d = grid(name, band)
        pts = data.draw(points(d, d.resolution))
        assert d.nearest_vertex(pts).tolist() == tree_answer(d, pts).tolist()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_polygons_snap_as_the_tree_does(self, data):
        d = data.draw(polygons())
        pts = data.draw(points(d, d.resolution))
        assert d.nearest_vertex(pts).tolist() == tree_answer(d, pts).tolist()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_imported_graphs_snap_as_the_tree_does(self, data):
        d = data.draw(scattered())
        pts = data.draw(points(d, data.draw(st.sampled_from([0.03, 0.1, 0.125]))))
        assert d.nearest_vertex(pts).tolist() == tree_answer(d, pts).tolist()

    @pytest.mark.parametrize("band", [0.0, 2.0])
    def test_every_kind_of_point_in_bulk(self, band):
        """The h = 0.02 disk, in sets of the most points snapped without the tree and all at
        once: vertices and uniform points settle by their unique least distance, cell centres
        and edge midpoints hold exact ties, boundary samples lie in the band (band 2)."""
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.02), band)
        h, rng, block = d.resolution, np.random.default_rng(3), rows_per_block(d.n)
        vertices = d.coords[rng.choice(d.n, size=800, replace=False)]
        kinds = {"uniform": rng.uniform(-1.1, 1.1, size=(800, 2)), "vertices": vertices,
                 "midpoints": vertices + [h / 2, 0.0], "centres": vertices + [h / 2, h / 2],
                 "boundary": d.boundary_coords, "outside": rng.uniform(2.0, 40.0, size=(500, 2))}
        to_tree = {}
        for kind, pts in kinds.items():
            expected = tree_answer(d, pts).tolist()
            answers = [snapped_by_tree(d, pts[r0:r0 + block]) for r0 in range(0, len(pts), block)]
            assert sum((idx for idx, _ in answers), []) == expected, kind
            to_tree[kind] = sum(sent for _, sent in answers) / len(pts)
            assert snapped_by_tree(d, pts) == (expected, len(pts)), kind
        assert to_tree["vertices"] == to_tree["uniform"] == to_tree["outside"] == 0.0
        assert to_tree["centres"] > 0.5 and to_tree["midpoints"] > 0.5  # the tree breaks ties

    def test_tree_is_built_only_for_ties_and_larger_sets(self):
        # h = 1/32: lattice coordinates and their midpoints are exact binary fractions
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.03125), 2.0)
        block = rows_per_block(d.n)
        assert block < d.n
        assert d.nearest_vertex(d.coords[:block] + 0.01).tolist() == list(range(block))
        assert d._kdtree is None
        tie = (0.015625, 0.0)  # as near to (0, 0) as to (0.03125, 0)
        assert snapped_by_tree(d, [tie]) == (tree_answer(d, [tie]).tolist(), 1)
        assert d._kdtree is not None
        pts = d.coords[:block + 1] + 0.01
        assert snapped_by_tree(d, pts) == (list(range(block + 1)), block + 1)

    def test_imported_graph_snaps_without_its_tree(self):
        d = build_grid_domain(ShapeSpec("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, 0.1))
        imported = domain_from_length_graph(d.coords, d.graph.edges, d.boundary_coords)
        pts = np.concatenate([d.coords[:20] + 0.03, d.coords[:20] + [0.05, 0.0]])
        assert imported.nearest_vertex(pts[:20]).tolist() == list(range(20))
        assert imported._kdtree is None
        assert imported.nearest_vertex(pts).tolist() == tree_answer(d, pts).tolist()


class TestPointsWithoutANearestVertex:
    """cKDTree answers the index n for a point whose squared distance overflows."""

    @pytest.mark.parametrize("point", [(1e200, 0.0), (0.0, -1e170), (math.inf, 0.0),
                                       (math.nan, 0.5)])
    @pytest.mark.parametrize("kind", ["grid", "imported", "one vertex", "subset side",
                                      "whole side"])
    def test_raises_naming_the_point(self, kind, point, imported_subset):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        snap = {
            "grid": lambda pts: d.nearest_vertex(pts, "base_point"),
            "imported": lambda pts: domain_from_length_graph(
                d.coords, d.graph.edges, d.boundary_coords).nearest_vertex(pts, "base_point"),
            # its one squared distance is the least and unique even where it overflows
            "one vertex": lambda pts: domain_from_length_graph(
                [(0.5, 0.0)], [], [(1.0, 0.0)]).nearest_vertex(pts, "base_point"),
            # a side over the grid's vertices near the centre, imported as their own domain
            "subset side": lambda pts: DomainSide(imported_subset(
                d, np.flatnonzero(np.hypot(*d.coords.T) < 0.25))).nearest_vertex(pts),
            "whole side": DomainSide(d, QuasihyperbolicMetric(d)).nearest_vertex,
        }[kind]
        name = "point" if kind.endswith("side") else "base_point"
        with pytest.raises(ConfigurationError, match=rf"^{name} \(.*\) has no nearest vertex"):
            snap([(0.5, 0.0), point])


    @pytest.mark.parametrize("points", [[(0.1, 0.2, 0.3)], [], [[[0.1, 0.2]]]])
    def test_points_that_are_no_pairs_are_rejected(self, points):
        d = build_grid_domain(ShapeSpec("disk", {"radius": 1.0}, 0.1), 2.0)
        with pytest.raises(ConfigurationError, match=r"^point: expected \(x, y\) pairs"):
            d.nearest_vertex(points)


def test_scipy_spatial_is_imported_only_where_a_tree_is_needed():
    """A subprocess: the import and a ``calibration_disk`` run leave ``scipy.spatial`` out of
    ``sys.modules``; ``bounded_pair_distortion`` still loads it (exact ties snap by the tree)."""
    probe = """
import json, os, sys, tempfile
import qhgeo, qhgeo.verifier.cli as cli
loaded = {"import": "scipy.spatial" in sys.modules}
with tempfile.TemporaryDirectory() as tmp:
    for name in ("calibration_disk", "bounded_pair_distortion"):
        code = cli.main(["run", "--scenario", name, "--resolution-override", "0.05",
                         "--report", os.path.join(tmp, name + ".json")])
        loaded[name] = (code, "scipy.spatial" in sys.modules)
print(json.dumps(loaded))
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] is False
    assert loaded["calibration_disk"] == [0, False]
    assert loaded["bounded_pair_distortion"][1] is True
