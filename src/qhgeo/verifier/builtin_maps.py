"""Library of built-in analytic homeomorphisms between planar domains."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..mapping_analysis import MappingPair, SpaceSide, build_mapping

# each map id's parameters: a float one is a number, a complex one a number or [re, im]
MAP_PARAMS = {"identity": {}, "similarity": {"scale": float, "offset": complex},
              "disk_automorphism": {"a": complex}, "power": {"alpha": float},
              "mobius": dict.fromkeys("abcd", complex)}
MAP_IDS = tuple(MAP_PARAMS)


def _to_complex(pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, float))
    return pts[:, 0] + 1j * pts[:, 1]


def _to_coords(z: np.ndarray) -> np.ndarray:
    return np.column_stack([z.real, z.imag])


def _complex_param(value) -> complex:
    if np.ndim(value) == 0:
        return complex(value)
    value = np.asarray(value, float).reshape(-1)
    return complex(value[0], value[1] if len(value) > 1 else 0.0)


def _wrap(fn):
    return lambda pts: _to_coords(fn(_to_complex(pts)))


def builtin_mapping(
    map_id: str,
    params: dict,
    source: SpaceSide,
    target: SpaceSide,
) -> MappingPair:
    """Instantiate a built-in map and snap it to the two grids."""
    params = params or {}
    if map_id == "identity":
        same = lambda pts: np.atleast_2d(np.asarray(pts, float))
        return build_mapping(source, target, same, same, name="identity")
    if map_id == "similarity":
        scale = float(params.get("scale", 1.0))
        if scale == 0.0:
            raise ConfigurationError("similarity scale must be nonzero")
        offset = _complex_param(params.get("offset", 0.0))
        fwd = _wrap(lambda z: scale * z + offset)
        inv = _wrap(lambda z: (z - offset) / scale)
        return build_mapping(source, target, fwd, inv, name=f"similarity(x{scale})")
    if map_id == "disk_automorphism":
        a = _complex_param(params.get("a", 0.0))
        if abs(a) >= 1.0:
            raise ConfigurationError("disk automorphism requires |a| < 1")
        fwd = _wrap(lambda z: (z - a) / (1.0 - np.conj(a) * z))
        inv = _wrap(lambda z: (z + a) / (1.0 + np.conj(a) * z))
        return build_mapping(source, target, fwd, inv, name=f"disk_automorphism(a={a})")
    if map_id == "power":
        alpha = float(params.get("alpha", 2.0))
        if alpha <= 0:
            raise ConfigurationError("power map exponent must be > 0")

        def fwd_c(z):
            r = np.abs(z)
            theta = np.angle(z)
            return r**alpha * np.exp(1j * alpha * theta)

        def inv_c(z):
            r = np.abs(z)
            theta = np.angle(z)
            return r ** (1.0 / alpha) * np.exp(1j * theta / alpha)

        return build_mapping(source, target, _wrap(fwd_c), _wrap(inv_c), name=f"power(a={alpha})")
    if map_id == "mobius":
        a = _complex_param(params.get("a", 1.0))
        b = _complex_param(params.get("b", 0.0))
        c = _complex_param(params.get("c", 0.0))
        d = _complex_param(params.get("d", 1.0))
        if a * d - b * c == 0:
            raise ConfigurationError("mobius map requires a*d - b*c != 0")
        fwd = _wrap(lambda z: (a * z + b) / (c * z + d))
        inv = _wrap(lambda z: (d * z - b) / (-c * z + a))
        return build_mapping(source, target, fwd, inv, name="mobius")
    raise ConfigurationError(f"unknown builtin map id {map_id!r}; expected one of {MAP_IDS}")
