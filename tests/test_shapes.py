import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgeo.shapes import _polygon_contains


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
