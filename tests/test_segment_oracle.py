"""The ``qh_calibration`` reference integral: QUADPACK's first QAGS step, bitwise ``quad``."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qhgeo import ShapeSpec, build_grid_domain
from qhgeo.verifier import quadpack

SRC = Path(__file__).resolve().parents[1] / "src"

SHAPES = {
    "disk": ShapeSpec("disk", {"radius": 1.0}, 0.05),
    "half-plane": ShapeSpec("half-plane-truncation", {"radius": 6.0}, 0.2),
    "punctured": ShapeSpec("punctured-plane-truncation", {"radius": 6.0}, 0.2),
    "L-shape": ShapeSpec("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, 0.1),
    "polygon": ShapeSpec("custom-polygon",
                         {"vertices": [[0, 0], [2, 0], [2, 1], [1, 1.5], [0, 1]]}, 0.05),
}


@lru_cache(maxsize=None)
def domain(name):
    return build_grid_domain(SHAPES[name], 2.0)


def per_point_integrand(d, a, b):
    """The integrand ``segment_oracle`` hands to ``quad``, one boundary query a point."""
    length = float(np.hypot(*(b - a)))
    return lambda t: length / float(d.boundary_distance_at((a + t * (b - a))[None, :])[0])


def segment(name, at, angle, depth):
    """From vertex ``at`` at ``angle``, across 1 - 10^-depth of the disk about it that reaches the
    boundary: the segment stays inside, and ends near the boundary, where QAGS subdivides, as
    ``depth`` grows."""
    d = domain(name)
    a = d.coords[at % d.n]
    reach = (1.0 - 10.0**-depth) * d.boundary_distance_at(a)[0]
    return d, a, a + reach * np.array([np.cos(angle), np.sin(angle)])


segments = st.tuples(st.sampled_from(sorted(SHAPES)), st.integers(0, 10**6),
                     st.floats(0.0, 2 * np.pi), st.floats(0.05, 4.0))


@given(segments)
@settings(max_examples=60, deadline=None)
def test_one_boundary_query_equals_the_per_point_queries(seg):
    d, a, b = segment(*seg)
    points = a + quadpack._QK21_T[:, None] * (b - a)
    one = d.boundary_distance_at(points)
    each = [d.boundary_distance_at((a + t * (b - a))[None, :])[0] for t in quadpack._QK21_T]
    assert one.tobytes() == np.array(each).tobytes()


@given(segments)
@settings(max_examples=80, deadline=None)
@example(("disk", 0, 0.0, 4.0))
@example(("punctured", 7, 3.0, 3.5))
def test_oracle_is_bitwise_quad(seg):
    d, a, b = segment(*seg)
    expected = quad(per_point_integrand(d, a, b), 0.0, 1.0, limit=200)[0]
    assert np.float64(quadpack.segment_oracle(d, a, b)).tobytes() == \
        np.float64(expected).tobytes()


@pytest.mark.parametrize("end, subdivides", [(0.5, False), (0.999, True)],
                         ids=["one-rule", "near-the-boundary"])
def test_both_branches(monkeypatch, end, subdivides):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return quad(*args, **kwargs)

    monkeypatch.setattr("scipy.integrate.quad", spy)
    d, a, b = domain("disk"), np.array([0.0, 0.0]), np.array([end, 0.0])
    value = quadpack.segment_oracle(d, a, b)
    assert calls == ([{"limit": 200}] if subdivides else [])
    expected, _, info = quad(per_point_integrand(d, a, b), 0.0, 1.0, limit=200, full_output=1)[:3]
    assert (info["last"] > 1) == subdivides
    assert value == expected


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_a_node_on_the_boundary_raises_as_quad_does():
    # the centre node of a segment across the puncture has d_G = 0
    d, a, b = domain("punctured"), np.array([-1.0, 0.0]), np.array([1.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        quad(per_point_integrand(d, a, b), 0.0, 1.0, limit=200)
    with pytest.raises(ZeroDivisionError):
        quadpack.segment_oracle(d, a, b)


def test_calibration_run_does_not_import_scipy_integrate(tmp_path):
    raw = {
        "schema": 1,
        "seed": 5,
        "domains": [{"name": name, "shape": {"kind": SHAPES[name].kind,
                                             "params": SHAPES[name].params, "resolution": 0.2}}
                    for name in ("disk", "half-plane", "punctured")],
        "checks": [
            {"check": "qh_calibration", "domain": "disk",
             "segments": [{"x": [0.0, 0.0], "y": [0.5, 0.0]}]},
            {"check": "qh_calibration", "domain": "half-plane",
             "segments": [{"x": [0.0, 1.0], "y": [0.0, 2.718281828459045]}]},
            {"check": "qh_calibration", "domain": "punctured",
             "segments": [{"x": [1.0, 0.0], "y": [2.718281828459045, 0.0]}]},
        ],
    }
    path, report = tmp_path / "calibration.json", tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    code = ("import sys\nfrom qhgeo.verifier.cli import main\n"
            f"main(['run', '--scenario', {str(path)!r}, '--report', {str(report)!r}])\n"
            "print('scipy.integrate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1] == "False"
    checks = json.loads(report.read_text())["checks"]
    assert all("segment0_oracle" in chk["measured"] for chk in checks)
