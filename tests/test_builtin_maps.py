import re

import numpy as np
import pytest

from qhgeo import ConfigurationError, DomainSide, QuasihyperbolicMetric, ShapeSpec, build_grid_domain
from qhgeo.shapes import regular_sector_polygon
from qhgeo.verifier.builtin_maps import builtin_mapping, map_params


def make_side(kind, params, h):
    d = build_grid_domain(ShapeSpec(kind, params, h), 2.0)
    return DomainSide(d, QuasihyperbolicMetric(d))


@pytest.fixture(scope="module")
def disk_side():
    return make_side("disk", {"radius": 1.0}, 0.05)


class TestMapLibrary:
    def test_identity_snaps_to_itself(self, disk_side):
        m = builtin_mapping("identity", {}, disk_side, disk_side)
        assert np.array_equal(m.forward_idx, np.arange(disk_side.n))
        assert m.roundtrip_error == 0.0 and m.snap_error == 0.0

    def test_zero_parameter_automorphism_is_identity(self, disk_side):
        m = builtin_mapping("disk_automorphism", {"a": [0.0, 0.0]}, disk_side, disk_side)
        assert np.array_equal(m.forward_idx, np.arange(disk_side.n))
        assert m.roundtrip_error == 0.0

    def test_automorphism_parameter_range(self, disk_side):
        with pytest.raises(ConfigurationError, match=r"\|a\| < 1"):
            builtin_mapping("disk_automorphism", {"a": [1.0, 0.5]}, disk_side, disk_side)

    def test_automorphism_roundtrip_error_small(self, disk_side):
        m = builtin_mapping("disk_automorphism", {"a": [0.5, 0.0]}, disk_side, disk_side)
        assert m.roundtrip_error < 1e-12
        # images of band-edge vertices may fall inside the target band, so
        # the snap diagnostic is bounded by a few cells, not one
        assert m.snap_error < 4.0 * 0.05

    def test_power_map_quarter_to_half_roundtrip(self):
        h = 0.04
        quarter = make_side(
            "custom-polygon", {"vertices": regular_sector_polygon(1.0, np.pi / 2, h)}, h
        )
        half = make_side("half-plane-truncation", {"radius": 1.0}, h)
        m = builtin_mapping("power", {"alpha": 2.0}, quarter, half)
        # the analytic round trip is the bijection check
        assert m.roundtrip_error < h
        # the doubly-snapped round trip stays within a few cells
        back = m.source.coords[m.inverse_idx[m.forward_idx]]
        err = np.hypot(*(back - m.source.coords).T)
        assert err.max() < 8.0 * h

    def test_power_requires_positive_exponent(self, disk_side):
        with pytest.raises(ConfigurationError, match="> 0"):
            builtin_mapping("power", {"alpha": -1.0}, disk_side, disk_side)

    def test_mobius_determinant_check(self, disk_side):
        with pytest.raises(ConfigurationError, match="a\\*d - b\\*c"):
            builtin_mapping(
                "mobius", {"a": 1.0, "b": 2.0, "c": 2.0, "d": 4.0}, disk_side, disk_side
            )

    def test_mobius_halfplane_to_disk_region(self):
        src = make_side("half-plane-truncation", {"radius": 6.0}, 0.25)
        zs = src.coords[:, 0] + 1j * src.coords[:, 1]
        ws = (zs - 1j) / (zs + 1j)
        assert np.abs(ws).max() < 1.0  # the image sits inside the unit disk

    def test_unknown_id(self, disk_side):
        with pytest.raises(ConfigurationError, match="unknown builtin map"):
            builtin_mapping("teleport", {}, disk_side, disk_side)

    def test_similarity_zero_scale_rejected(self, disk_side):
        with pytest.raises(ConfigurationError, match="nonzero"):
            builtin_mapping("similarity", {"scale": 0.0}, disk_side, disk_side)


# each value the library read as a number before: "2" and True became 2.0 and 1.0, [0.1, 0.2,
# 9.0] dropped its 9.0 and [0.5] read as 0.5, NaN and inf failed later in the k-d tree
BAD_MAP_PARAMS = [("scale", value, "must be a finite number")
                  for value in (float("nan"), float("inf"), -float("inf"))] + [
    ("scale", "2", "must be a number"), ("scale", True, "must be a number"),
    ("offset", [0.1, 0.2, 9.0], "must be a number or [re, im]"),
    ("offset", [0.5], "must be a number or [re, im]"), ("offset", "x", "must be a number")]


class TestMapParameterValues:
    @pytest.mark.parametrize("key, value, message", BAD_MAP_PARAMS)
    def test_map_params_names_the_parameter(self, key, value, message):
        with pytest.raises(ConfigurationError, match=re.escape(f"params.{key}: {message}")):
            map_params("similarity", {key: value})

    @pytest.mark.parametrize("key, value, message", BAD_MAP_PARAMS)
    def test_builtin_mapping_names_the_parameter(self, disk_side, key, value, message):
        with pytest.raises(ConfigurationError, match=re.escape(f"params.{key}: {message}")):
            builtin_mapping("similarity", {key: value}, disk_side, disk_side)

    @pytest.mark.parametrize("a, expected", [
        (0.25, 0.25 + 0j), ([0.25, -0.5], 0.25 - 0.5j), ((0.25, -0.5), 0.25 - 0.5j),
        (0.25 - 0.5j, 0.25 - 0.5j), (np.complex128(0.5j), 0.5j), (np.float32(0.5), 0.5 + 0j)])
    def test_complex_forms_read_to_one_value(self, a, expected):
        assert map_params("disk_automorphism", {"a": a})["a"] == expected

    def test_complex_parts_must_be_finite(self):
        with pytest.raises(ConfigurationError, match=r"params\.a: must be a finite number"):
            map_params("disk_automorphism", {"a": complex(0.1, float("nan"))})
