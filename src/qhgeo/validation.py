"""Checks of user-supplied values, each fault a ConfigurationError naming its path; ``read_params``
reads a shape kind's or a built-in map's parameters through their tables of defaults and bounds."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigurationError


def _fail(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


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


def _check_range(value, path, low=None, high=None, open_low=False, open_high=False):
    value = _finite(value, f"{path}:")  # an infinite slack or bound would pass any check
    if low is not None and (value <= low if open_low else value < low):
        _fail(path, f"must be {'>' if open_low else '>='} {low}")
    if high is not None and (value >= high if open_high else value > high):
        _fail(path, f"must be {'<' if open_high else '<='} {high}")
    return value


def _check_point(value, path, what="two numbers"):
    """Two finite numbers, as a list (or a tuple), returned as floats."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        _fail(path, f"must be {what}")
    return [_check_range(c, path) for c in value]


def _check_object(value, path):
    if not isinstance(value, dict):
        _fail(path, "must be an object")


def _check_keys(obj, path, required, optional):
    """An object with every key of ``required`` and no key outside ``required`` and ``optional``."""
    _check_object(obj, path)
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in obj:
            _fail(prefix + key, "missing")
    for key in obj:
        if key not in required and key not in optional:
            _fail(prefix + str(key), "unknown key; expected one of "
                  + ", ".join([*required, *optional]))


def _check_array(value, path, width, kinds, what, min_rows=0):
    """A list (or a tuple) of at least ``min_rows`` finite numbers of a dtype kind in ``kinds``,
    ``width`` to a row (0: flat)."""
    arr = None
    if isinstance(value, (list, tuple)):
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged rows
            pass
    if arr is None or len(arr) < min_rows or arr.size and (
            arr.dtype.kind not in kinds or arr.shape[1:] != ((width,) if width else ())
            or not np.all(np.isfinite(arr))):
        _fail(path, f"must be a list of {what}")
    return arr


def _read_complex(value, path):
    """A finite number, a complex one too, or [re, im] of two finite numbers."""
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        value = [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return complex(*_check_point(value, path, "a number or [re, im]"))
    return complex(_check_range(value, path))


# how a parameter is read, by the type of its default; None (no default) is a polygon's vertices
_READERS = {
    float: _check_range,
    complex: _read_complex,
    tuple: _check_point,
    type(None): lambda value, path: _check_array(value, path, 2, "iuf", "at least 3 pairs of "
                                                 "finite numbers", min_rows=3),
}


def read_params(defaults: dict, bounds: dict, kind: str, params: dict, path: str) -> dict:
    """The parameters of ``kind``: each given or defaulted, read as its default in
    ``defaults[kind]`` says, and tested by ``bounds[kind]`` if it has one: (the parameter it
    names, None for several; the test; the message).  A fault raises naming ``path.<key>``, or
    ``path`` for a bound on several parameters."""
    _check_keys(params, path, (), defaults[kind])
    values = {key: _READERS[type(default)](params.get(key, default), f"{path}.{key}")
              for key, default in defaults[kind].items()}
    if kind in bounds:
        key, holds, message = bounds[kind]
        if not holds(values):
            _fail(path if key is None else f"{path}.{key}", message)
    return values
