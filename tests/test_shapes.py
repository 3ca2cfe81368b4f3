import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhgeo import ShapeSpec
from qhgeo.shapes import _polygon_boundary_distance, _polygon_contains, geometry_for


def reference_polygon_contains(pts, vertices):
    """The plain even-odd loop: every edge tested against every point."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    verts = np.asarray(vertices, float)
    m = len(verts)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xint)
    return inside


@st.composite
def polygons_and_points(draw):
    """Random (possibly self-intersecting) polygons on a coarse lattice, so that
    horizontal edges occur, or with free vertices; the points include every
    vertex ordinate, lattice points and free points."""
    coord = st.integers(-4, 4).map(float) if draw(st.booleans()) else st.floats(-4, 4)
    vertices = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12)))
    free = draw(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), max_size=30))
    lattice = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=30))
    xs = draw(st.lists(st.floats(-5, 5), min_size=len(vertices), max_size=len(vertices)))
    at_vertex_y = list(zip(xs, vertices[:, 1]))
    pts = np.array(free + lattice + at_vertex_y, float).reshape(-1, 2)
    return pts, vertices


class TestPolygonContains:
    @given(polygons_and_points())
    @settings(max_examples=300, deadline=None)
    def test_equals_plain_even_odd_loop(self, case):
        pts, vertices = case
        assert np.array_equal(_polygon_contains(pts, vertices),
                              reference_polygon_contains(pts, vertices))

    def test_square_with_horizontal_edges(self):
        square = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        pts = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 2.0], [3.0, 1.0], [-1.0, 0.0]])
        assert _polygon_contains(pts, square).tolist() == [True, True, False, False, False]


HEXAGON = [[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3]
# shapes with a convex part: the shape and that part's vertices (None: all of a convex shape)
CONVEX_PARTS = [
    (ShapeSpec("disk", {"radius": 1.5, "center": [0.3, -0.2]}), None),
    (ShapeSpec("square", {"side": 2.0}), None),
    (ShapeSpec("half-plane-truncation", {"radius": 6.0}), None),
    (ShapeSpec("custom-polygon", {"vertices": HEXAGON}), HEXAGON),
    (ShapeSpec("custom-polygon", {"vertices": [[0, 0], [3, 1], [1, 2]]}), [[0, 0], [3, 1], [1, 2]]),
    # the L-shape's arms: a segment in one lies on the line of an inner edge but off that edge
    (ShapeSpec("L-shape", {"arm_width": 1.0, "arm_length": 2.0}), [[0, 0], [2, 0], [2, 1], [0, 1]]),
    (ShapeSpec("L-shape", {"arm_width": 1.0, "arm_length": 2.0}), [[0, 0], [1, 0], [1, 2], [0, 2]]),
]


@st.composite
def segments_in_convex_parts(draw):
    spec, part = draw(st.sampled_from(CONVEX_PARTS))
    geometry = geometry_for(spec)
    x0, y0, x1, y1 = geometry.bounding_box()
    ends = np.array([[draw(st.floats(x0, x1)), draw(st.floats(y0, y1))] for _ in range(2)])
    # interior points, off the boundary by more than the rounding of the orientation tests
    if part is None:
        assume(np.all(geometry.boundary_distance(ends) > 1e-9))
    else:
        assume(np.all(_polygon_contains(ends, part))
               and np.all(_polygon_boundary_distance(ends, part) > 1e-9))
    return geometry, ends


class TestMeetsBoundary:
    @given(segments_in_convex_parts())
    @settings(max_examples=300, deadline=None)
    def test_segment_in_a_convex_part_is_never_flagged(self, case):
        geometry, (a, b) = case
        assert not geometry.meets_boundary(a, b)

    @pytest.mark.parametrize("spec, a, b, meets", [
        (ShapeSpec("annulus", {"inner_radius": 0.2}), [-0.9, 0.2], [0.9, 0.2], True),  # tangent
        (ShapeSpec("annulus", {"inner_radius": 0.2}), [-0.9, 0.3], [0.9, 0.3], False),
        (ShapeSpec("annulus", {"inner_radius": 0.2}), [0.5, 0.0], [-0.5, 0.1], True),
        (ShapeSpec("punctured-plane-truncation", {}), [-1.0, 0.0], [1.0, 0.0], True),
        (ShapeSpec("punctured-plane-truncation", {}), [-1.0, 1e-12], [1.0, 1e-12], False),
        (ShapeSpec("punctured-plane-truncation", {}), [0.5, 0.0], [1.5, 0.0], False),
        (ShapeSpec("L-shape", {}), [1.7, 0.7], [0.7, 1.7], True),  # across the inner corner
        (ShapeSpec("L-shape", {}), [1.5, 0.5], [0.5, 1.5], True),  # through the corner (1, 1)
        (ShapeSpec("L-shape", {}), [1.5, 0.5], [0.5, 1.4], False),
        (ShapeSpec("L-shape", {}), [1.0, 0.2], [1.0, 0.8], False),  # on an inner edge's line
        (ShapeSpec("custom-polygon", {"vertices": [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]]}),
         [1.5, 0.5], [1.5, 1.5], True),  # crosses the notch's two edges
        (ShapeSpec("custom-polygon", {"vertices": [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]]}),
         [0.5, 0.5], [0.5, 1.5], False),
    ])
    def test_segment_against_the_boundary_pieces(self, spec, a, b, meets):
        assert geometry_for(spec).meets_boundary(np.array(a), np.array(b)) is meets
