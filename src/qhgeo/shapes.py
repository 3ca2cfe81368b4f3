"""Planar shape catalogue used to build discretized domains.

Each shape provides the data a grid builder needs: a bounding box, an
interior test, an analytic distance to the boundary, and a boundary curve
sampled at a prescribed arclength spacing.  Unbounded model domains
(half plane, punctured plane) appear as bounded truncations at a radius
``R``; the truncation circle is part of the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigurationError
from .validation import _check_keys, _finite, read_params

# the parameters that each shape kind reads, with their defaults (None: no default)
SHAPE_PARAMS = {"disk": {"radius": 1.0, "center": (0.0, 0.0)},
                "annulus": {"inner_radius": 0.2, "outer_radius": 1.0},
                "square": {"side": 1.0}, "L-shape": {"arm_width": 1.0, "arm_length": 2.0},
                "half-plane-truncation": {"radius": 6.0},
                "punctured-plane-truncation": {"radius": 6.0},
                "custom-polygon": {"vertices": None}}
# each kind's bound on its parameters, in the form of MAP_BOUNDS: the parameter it names (None:
# several), the test that they pass and the message when they fail it
SHAPE_BOUNDS = {
    **dict.fromkeys(("disk", "half-plane-truncation", "punctured-plane-truncation"),
                    ("radius", lambda p: p["radius"] > 0, "must be > 0")),
    "square": ("side", lambda p: p["side"] > 0, "must be > 0"),
    "annulus": (None, lambda p: 0 < p["inner_radius"] < p["outer_radius"],
                "annulus requires 0 < inner_radius < outer_radius"),
    "L-shape": (None, lambda p: 0 < p["arm_width"] < p["arm_length"],
                "L-shape requires 0 < arm_width < arm_length"),
}
SHAPE_KINDS = tuple(SHAPE_PARAMS)


@dataclass(frozen=True)
class ShapeSpec:
    """Declarative description of a built-in planar shape.

    ``params`` is a plain dict so the description round-trips through
    JSON as ``{"kind": ..., "params": {...}, "resolution": h}``.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    resolution: float = 0.05

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ConfigurationError(
                f"unknown shape kind {self.kind!r}; expected one of {SHAPE_KINDS}"
            )
        if not (_finite(self.resolution, "resolution") > 0):
            raise ConfigurationError("resolution must be > 0")
        read_params(SHAPE_PARAMS, SHAPE_BOUNDS, self.kind, self.params, "params")

    def param(self, name: str):
        """Parameter ``name`` as given, or its default."""
        return self.params.get(name, SHAPE_PARAMS[self.kind][name])

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "resolution": self.resolution}

    @classmethod
    def from_json(cls, obj: dict, path: str = "shape") -> "ShapeSpec":
        """The spec that ``obj`` describes; a fault raises naming ``path`` or the key at fault."""
        _check_keys(obj, path, ("kind", "resolution"), ("params",))
        try:
            return cls(obj["kind"], obj.get("params", {}), _finite(obj["resolution"], "resolution"))
        except ConfigurationError as exc:  # a parameter names itself: params.<key>
            sep = "." if str(exc).startswith("params") else ": "
            raise ConfigurationError(f"{path}{sep}{exc}") from None

    def __str__(self) -> str:
        return json.dumps(self.to_json())


class ShapeGeometry:
    """Analytic geometry backing a ShapeSpec.

    ``boundary_distance`` (shapes with ``analytic_boundary`` only) must be
    exact for interior points; ``contains`` is a strict interior test that
    is constant on every disk holding no boundary point.  A non-convex
    shape loses each grid edge that leaves it, i.e. has one of its 7
    interior samples outside ``contains``; ``build_grid_domain`` tests only
    edges with ``max(bdist[u], bdist[v]) <= length + h``, which is exact
    because bdist is exact here and at most h/2 high for sampled
    boundaries.  ``convex`` shapes, and shapes that set
    ``_needs_clipping = False``, skip this clipping.
    """

    convex = False
    #: boundary distance is analytic (custom polygons fall back to samples)
    analytic_boundary = True

    def __init__(self, spec: ShapeSpec):
        self.spec = spec

    def bounding_box(self) -> tuple[float, float, float, float]:
        raise NotImplementedError

    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def boundary_samples(self, spacing: float) -> np.ndarray:
        raise NotImplementedError

    def meets_boundary(self, a, b) -> bool:
        """Whether the segment [a, b] between two interior points meets the boundary, tested
        exactly against its pieces; on a convex shape it never does."""
        return False


def _circle_points(center, radius, spacing):
    n = max(8, int(math.ceil(2.0 * math.pi * radius / spacing)))
    theta = np.arange(n) * (2.0 * math.pi / n)
    return np.column_stack([center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)])


def _segment_points(a, b, spacing):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    length = float(np.hypot(*(b - a)))
    n = max(1, int(math.ceil(length / spacing)))
    t = np.arange(n, dtype=float) / n
    return a[None, :] + t[:, None] * (b - a)[None, :]


def _polyline_points(vertices, spacing):
    m = len(vertices)
    return np.vstack([_segment_points(vertices[i], vertices[(i + 1) % m], spacing)
                      for i in range(m)])


def _point_segment_distance(pts, a, b):
    """Vectorized distance from pts (n,2) to segment [a, b]."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1])
    t = ((pts - a) @ ab) / denom
    t = np.clip(t, 0.0, 1.0)
    proj = a[None, :] + t[:, None] * ab[None, :]
    return np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])


def _polygon_boundary_distance(pts, vertices):
    best = None
    m = len(vertices)
    for i in range(m):
        d = _point_segment_distance(pts, vertices[i], vertices[(i + 1) % m])
        best = d if best is None else np.minimum(best, d)
    return best


def _segment_meets_polygon(a, b, vertices):
    """Whether the closed segment [a, b] shares a point with an edge [c, d] of the polygon: the
    ends of each lie on opposite sides of (or on) the other's line, and a collinear pair
    overlaps on both axes."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    c = np.asarray(vertices, float)
    d = np.roll(c, -1, axis=0)

    def side(p, q, r):  # the sign of the turn p -> q -> r
        return np.sign((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                       - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    ab_c, ab_d, cd_a, cd_b = side(a, b, c), side(a, b, d), side(c, d, a), side(c, d, b)
    collinear = (ab_c == 0) & (ab_d == 0)
    lo, hi = np.minimum(c, d), np.maximum(c, d)
    overlap = np.all((lo <= np.maximum(a, b)) & (np.minimum(a, b) <= hi), axis=1)
    return bool(np.any((ab_c * ab_d <= 0) & (cd_a * cd_b <= 0) & (~collinear | overlap)))


def _polygon_contains(pts, vertices):
    """Even-odd ray casting, robust for points off the boundary.  The ray from
    (x, y) can cross the edge (x1, y1)-(x2, y2) only if min(y1, y2) <= y <
    max(y1, y2), so each edge is tested on one slice of the points sorted by y."""
    order = np.argsort(pts[:, 1])
    x, y = pts[order, 0], pts[order, 1]
    odd = np.zeros(len(pts), dtype=bool)
    verts = np.asarray(vertices, float)
    for (x1, y1), (x2, y2) in zip(verts, np.roll(verts, -1, axis=0)):
        lo, hi = np.searchsorted(y, sorted((y1, y2)))
        xint = x1 + (y[lo:hi] - y1) * (x2 - x1) / (y2 - y1)
        odd[lo:hi] ^= x[lo:hi] < xint
    inside = np.empty_like(odd)
    inside[order] = odd
    return inside


class _Disk(ShapeGeometry):
    convex = True

    def __init__(self, spec):
        super().__init__(spec)
        self.radius = float(spec.param("radius"))
        self.center = np.asarray(spec.param("center"), float)

    def bounding_box(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cy - r, cx + r, cy + r)

    def _r(self, pts):
        return np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])

    def contains(self, pts):
        return self._r(pts) < self.radius

    def boundary_distance(self, pts):
        return self.radius - self._r(pts)

    def boundary_samples(self, spacing):
        return _circle_points(self.center, self.radius, spacing)


class _Annulus(ShapeGeometry):
    convex = False

    def __init__(self, spec):
        super().__init__(spec)
        self.inner = float(spec.param("inner_radius"))
        self.outer = float(spec.param("outer_radius"))

    def bounding_box(self):
        r = self.outer
        return (-r, -r, r, r)

    def contains(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return (r > self.inner) & (r < self.outer)

    def boundary_distance(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.minimum(r - self.inner, self.outer - r)

    def meets_boundary(self, a, b):
        return bool(_point_segment_distance(np.zeros((1, 2)), a, b)[0] <= self.inner)

    def boundary_samples(self, spacing):
        return np.vstack(
            [
                _circle_points((0.0, 0.0), self.inner, spacing),
                _circle_points((0.0, 0.0), self.outer, spacing),
            ]
        )


class _Square(ShapeGeometry):
    convex = True

    def __init__(self, spec):
        super().__init__(spec)
        self.side = float(spec.param("side"))

    def bounding_box(self):
        return (0.0, 0.0, self.side, self.side)

    def contains(self, pts):
        s = self.side
        return (pts[:, 0] > 0) & (pts[:, 0] < s) & (pts[:, 1] > 0) & (pts[:, 1] < s)

    def boundary_distance(self, pts):
        s = self.side
        return np.minimum.reduce([pts[:, 0], s - pts[:, 0], pts[:, 1], s - pts[:, 1]])

    def boundary_samples(self, spacing):
        s = self.side
        corners = [(0.0, 0.0), (s, 0.0), (s, s), (0.0, s)]
        return _polyline_points(corners, spacing)


class _LShape(ShapeGeometry):
    """Union of two rectangular arms sharing the corner at the origin."""

    convex = False

    def __init__(self, spec):
        super().__init__(spec)
        self.width = float(spec.param("arm_width"))
        self.length = float(spec.param("arm_length"))
        w, ell = self.width, self.length
        self.vertices = [(0.0, 0.0), (ell, 0.0), (ell, w), (w, w), (w, ell), (0.0, ell)]

    def bounding_box(self):
        return (0.0, 0.0, self.length, self.length)

    def contains(self, pts):
        w, ell = self.width, self.length
        in_x_arm = (pts[:, 0] > 0) & (pts[:, 0] < ell) & (pts[:, 1] > 0) & (pts[:, 1] < w)
        in_y_arm = (pts[:, 0] > 0) & (pts[:, 0] < w) & (pts[:, 1] > 0) & (pts[:, 1] < ell)
        return in_x_arm | in_y_arm

    def boundary_distance(self, pts):
        d = _polygon_boundary_distance(pts, self.vertices)
        return np.where(self.contains(pts), d, -d)

    def meets_boundary(self, a, b):
        return _segment_meets_polygon(a, b, self.vertices)

    def boundary_samples(self, spacing):
        return _polyline_points(self.vertices, spacing)


class _HalfPlaneTruncation(ShapeGeometry):
    """Upper half plane truncated to the half disk {Im z > 0, |z| < R}."""

    convex = True

    def __init__(self, spec):
        super().__init__(spec)
        self.radius = float(spec.param("radius"))

    def bounding_box(self):
        r = self.radius
        return (-r, 0.0, r, r)

    def contains(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return (pts[:, 1] > 0) & (r < self.radius)

    def boundary_distance(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.minimum(pts[:, 1], self.radius - r)

    def boundary_samples(self, spacing):
        R = self.radius
        diameter = _segment_points((-R, 0.0), (R, 0.0), spacing)
        n = max(8, int(math.ceil(math.pi * R / spacing)))
        theta = np.arange(1, n) * (math.pi / n)
        arc = np.column_stack([R * np.cos(theta), R * np.sin(theta)])
        return np.vstack([diameter, arc])


class _PuncturedPlaneTruncation(ShapeGeometry):
    """Punctured plane truncated to {0 < |z| < R}; the puncture is boundary."""

    convex = False
    # edges between interior grid points cannot pass through the puncture:
    # every stencil displacement has coprime components, so segments contain
    # no interior lattice points and the single removed point is never hit.
    _needs_clipping = False

    def __init__(self, spec):
        super().__init__(spec)
        self.radius = float(spec.param("radius"))

    def bounding_box(self):
        r = self.radius
        return (-r, -r, r, r)

    def contains(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return (r > 0) & (r < self.radius)

    def boundary_distance(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.minimum(r, self.radius - r)

    def meets_boundary(self, a, b):  # the puncture
        return bool(_point_segment_distance(np.zeros((1, 2)), a, b)[0] <= 0.0)

    def boundary_samples(self, spacing):
        return np.vstack([[[0.0, 0.0]], _circle_points((0.0, 0.0), self.radius, spacing)])


class _CustomPolygon(ShapeGeometry):
    convex = False
    analytic_boundary = False

    def __init__(self, spec):
        super().__init__(spec)
        self.vertices = [tuple(map(float, v)) for v in spec.param("vertices")]

    def bounding_box(self):
        arr = np.asarray(self.vertices, float)
        return (arr[:, 0].min(), arr[:, 1].min(), arr[:, 0].max(), arr[:, 1].max())

    def contains(self, pts):
        return _polygon_contains(pts, self.vertices)

    def meets_boundary(self, a, b):
        return _segment_meets_polygon(a, b, self.vertices)

    def boundary_samples(self, spacing):
        return _polyline_points(self.vertices, spacing)


_GEOMETRIES = {
    "disk": _Disk,
    "annulus": _Annulus,
    "square": _Square,
    "L-shape": _LShape,
    "half-plane-truncation": _HalfPlaneTruncation,
    "punctured-plane-truncation": _PuncturedPlaneTruncation,
    "custom-polygon": _CustomPolygon,
}


def geometry_for(spec: ShapeSpec) -> ShapeGeometry:
    return _GEOMETRIES[spec.kind](spec)


def regular_sector_polygon(radius: float, angle: float, arc_spacing: float) -> list[list[float]]:
    """Polygon approximation of the circular sector {0 < arg z < angle, |z| < radius}.

    Useful as a custom-polygon stand-in for sector domains (e.g. power-map
    sources).  The arc is sampled at chord spacing <= arc_spacing.
    """
    if not (0 < angle <= 2 * math.pi - 1e-9):
        raise ConfigurationError("sector angle must lie in (0, 2*pi)")
    n = max(4, int(math.ceil(radius * angle / arc_spacing)))
    theta = np.arange(n + 1) * (angle / n)
    arc = [[radius * math.cos(t), radius * math.sin(t)] for t in theta]
    return [[0.0, 0.0]] + arc
