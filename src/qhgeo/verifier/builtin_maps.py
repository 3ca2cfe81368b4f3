"""Library of built-in analytic homeomorphisms between planar domains."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..mapping_analysis import DomainSide, MappingPair, build_mapping
from ..validation import read_params

# each map id's parameters with their defaults: a float one is a number, a complex one a
# number or [re, im]
MAP_PARAMS = {"identity": {}, "similarity": {"scale": 1.0, "offset": 0j},
              "disk_automorphism": {"a": 0j}, "power": {"alpha": 2.0},
              "mobius": {"a": 1 + 0j, "b": 0j, "c": 0j, "d": 1 + 0j}}
# each map's bound on its parameters: the parameter it names (None: all of them), the test
# that they pass and the message when they fail it
MAP_BOUNDS = {
    "similarity": ("scale", lambda p: p["scale"] != 0.0, "similarity scale must be nonzero"),
    "disk_automorphism": ("a", lambda p: abs(p["a"]) < 1.0, "disk automorphism requires |a| < 1"),
    "power": ("alpha", lambda p: p["alpha"] > 0, "power map exponent must be > 0"),
    "mobius": (None, lambda p: p["a"] * p["d"] - p["b"] * p["c"] != 0,
               "mobius map requires a*d - b*c != 0"),
}
MAP_IDS = tuple(MAP_PARAMS)


def _to_complex(pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, float))
    return pts[:, 0] + 1j * pts[:, 1]


def _to_coords(z: np.ndarray) -> np.ndarray:
    return np.column_stack([z.real, z.imag])


def _wrap(fn):
    return lambda pts: _to_coords(fn(_to_complex(pts)))


def map_params(map_id: str, params: dict, path: str = "params") -> dict:
    """The parameters of map ``map_id``: each given or defaulted, as a float or a complex.

    Raises naming ``path`` and the parameter at fault on an unknown key, a value that is not
    a finite number (or [re, im] for a complex one), or one that breaks the map's bound.
    """
    if map_id not in MAP_PARAMS:
        raise ConfigurationError(f"unknown builtin map id {map_id!r}; expected one of {MAP_IDS}")
    return read_params(MAP_PARAMS, MAP_BOUNDS, map_id, params, path)


def builtin_mapping(
    map_id: str,
    params: dict,
    source: DomainSide,
    target: DomainSide,
) -> MappingPair:
    """Instantiate a built-in map and snap it to the two grids."""
    p = map_params(map_id, params or {})
    if map_id == "identity":
        same = lambda pts: np.atleast_2d(np.asarray(pts, float))
        return build_mapping(source, target, same, same)
    if map_id == "similarity":
        scale, offset = p["scale"], p["offset"]
        fwd = _wrap(lambda z: scale * z + offset)
        inv = _wrap(lambda z: (z - offset) / scale)
        return build_mapping(source, target, fwd, inv)
    if map_id == "disk_automorphism":
        a = p["a"]
        fwd = _wrap(lambda z: (z - a) / (1.0 - np.conj(a) * z))
        inv = _wrap(lambda z: (z + a) / (1.0 + np.conj(a) * z))
        return build_mapping(source, target, fwd, inv)
    if map_id == "power":
        alpha = p["alpha"]
        fwd = _wrap(lambda z: np.abs(z) ** alpha * np.exp(1j * alpha * np.angle(z)))
        inv = _wrap(lambda z: np.abs(z) ** (1.0 / alpha) * np.exp(1j * np.angle(z) / alpha))
        return build_mapping(source, target, fwd, inv)
    a, b, c, d = (p[key] for key in "abcd")  # mobius
    fwd = _wrap(lambda z: (a * z + b) / (c * z + d))
    inv = _wrap(lambda z: (d * z - b) / (-c * z + a))
    return build_mapping(source, target, fwd, inv)
