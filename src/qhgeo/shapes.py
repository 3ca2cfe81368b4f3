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
import numbers
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigurationError

# the parameters that each shape kind reads
SHAPE_PARAMS = {"disk": ("radius", "center"), "annulus": ("inner_radius", "outer_radius"),
                "square": ("side",), "L-shape": ("arm_width", "arm_length"),
                "half-plane-truncation": ("radius",), "punctured-plane-truncation": ("radius",),
                "custom-polygon": ("vertices",)}
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
        _validate_params(self.kind, self.params)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "resolution": self.resolution}

    @classmethod
    def from_json(cls, obj: dict, path: str = "shape") -> "ShapeSpec":
        """The spec that ``obj`` describes; a fault raises naming ``path`` or the key at fault."""
        if not isinstance(obj, dict):
            raise ConfigurationError(f"{path}: shape spec must be a JSON object")
        for key in ("kind", "resolution"):
            if key not in obj:
                raise ConfigurationError(f"{path}: shape spec missing field {key!r}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(f"{path}: shape spec field 'params' must be a JSON object")
        try:
            spec = cls(obj["kind"], dict(params), _finite(obj["resolution"], "resolution"))
        except ConfigurationError as exc:  # an unknown parameter names itself: params.<key>
            sep = "." if str(exc).startswith("params.") else ": "
            raise ConfigurationError(f"{path}{sep}{exc}") from None
        for key in obj:
            if key not in ("kind", "params", "resolution"):
                raise ConfigurationError(f"{path}.{key}: unknown key; expected one of kind, "
                                         "params, resolution")
        return spec

    def __str__(self) -> str:
        return json.dumps(self.to_json())


def _finite(value, label):
    """``value`` as a finite float; a string or a boolean is no number (numpy scalars are)."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        value = float(value)
    except (TypeError, OverflowError):
        raise ConfigurationError(f"{label} must be a number") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{label} must be a finite number")
    return value


def _param(params, name, default=None):
    return _finite(params.get(name, default), f"shape parameter {name!r}")


def _require_positive(params, names):
    for name in names:
        if name in params and not (_param(params, name) > 0):
            raise ConfigurationError(f"shape parameter {name!r} must be > 0")


def _require_pairs(params, name, what, shape_ok):
    """Raise naming ``name`` unless ``params[name]`` is an array of finite numbers
    whose shape passes ``shape_ok``."""
    try:
        arr = np.asarray(params.get(name), dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not shape_ok(arr.shape) or not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"shape parameter {name!r} must be {what}")


def _validate_params(kind, params):
    """Every parameter must be one that ``kind`` reads, every length a finite number,
    ``center`` two finite numbers and ``vertices`` at least 3 pairs of finite numbers."""
    for key in params:
        if key not in SHAPE_PARAMS[kind]:
            raise ConfigurationError(f"params.{key}: unknown key; expected one of "
                                     + ", ".join(SHAPE_PARAMS[kind]))
    if kind == "disk":
        _require_positive(params, ["radius"])
        if "center" in params:
            _require_pairs(params, "center", "two finite numbers", lambda s: s == (2,))
    elif kind == "annulus":
        inner = _param(params, "inner_radius", 0.2)
        outer = _param(params, "outer_radius", 1.0)
        if not (0 < inner < outer):
            raise ConfigurationError("annulus requires 0 < inner_radius < outer_radius")
    elif kind == "square":
        _require_positive(params, ["side"])
    elif kind == "L-shape":
        width = _param(params, "arm_width", 1.0)
        length = _param(params, "arm_length", 2.0)
        if not (0 < width < length):
            raise ConfigurationError("L-shape requires 0 < arm_width < arm_length")
    elif kind in ("half-plane-truncation", "punctured-plane-truncation"):
        _require_positive(params, ["radius"])
    elif kind == "custom-polygon":
        _require_pairs(params, "vertices", "at least 3 pairs of finite numbers",
                       lambda s: len(s) == 2 and s[0] >= 3 and s[1] == 2)


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


def _circle_points(center, radius, spacing):
    n = max(8, int(math.ceil(2.0 * math.pi * radius / spacing)))
    theta = np.arange(n) * (2.0 * math.pi / n)
    return np.column_stack([center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)])


def _segment_points(a, b, spacing, include_end=False):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    length = float(np.hypot(*(b - a)))
    n = max(1, int(math.ceil(length / spacing)))
    t = np.arange(n + 1 if include_end else n, dtype=float) / n
    return a[None, :] + t[:, None] * (b - a)[None, :]


def _polyline_points(vertices, spacing, closed=True):
    pts = []
    m = len(vertices)
    rng = range(m) if closed else range(m - 1)
    for i in rng:
        pts.append(_segment_points(vertices[i], vertices[(i + 1) % m], spacing))
    return np.vstack(pts)


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
        self.radius = float(spec.params.get("radius", 1.0))
        self.center = np.asarray(spec.params.get("center", (0.0, 0.0)), float)

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
        self.inner = float(spec.params.get("inner_radius", 0.2))
        self.outer = float(spec.params.get("outer_radius", 1.0))

    def bounding_box(self):
        r = self.outer
        return (-r, -r, r, r)

    def contains(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return (r > self.inner) & (r < self.outer)

    def boundary_distance(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.minimum(r - self.inner, self.outer - r)

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
        self.side = float(spec.params.get("side", 1.0))

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
        self.width = float(spec.params.get("arm_width", 1.0))
        self.length = float(spec.params.get("arm_length", 2.0))
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

    def boundary_samples(self, spacing):
        return _polyline_points(self.vertices, spacing)


class _HalfPlaneTruncation(ShapeGeometry):
    """Upper half plane truncated to the half disk {Im z > 0, |z| < R}."""

    convex = True

    def __init__(self, spec):
        super().__init__(spec)
        self.radius = float(spec.params.get("radius", 6.0))

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
        self.radius = float(spec.params.get("radius", 6.0))

    def bounding_box(self):
        r = self.radius
        return (-r, -r, r, r)

    def contains(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return (r > 0) & (r < self.radius)

    def boundary_distance(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.minimum(r, self.radius - r)

    def boundary_samples(self, spacing):
        return np.vstack([[[0.0, 0.0]], _circle_points((0.0, 0.0), self.radius, spacing)])


class _CustomPolygon(ShapeGeometry):
    convex = False
    analytic_boundary = False

    def __init__(self, spec):
        super().__init__(spec)
        self.vertices = [tuple(map(float, v)) for v in spec.params["vertices"]]

    def bounding_box(self):
        arr = np.asarray(self.vertices, float)
        return (arr[:, 0].min(), arr[:, 1].min(), arr[:, 0].max(), arr[:, 1].max())

    def contains(self, pts):
        return _polygon_contains(pts, self.vertices)

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
