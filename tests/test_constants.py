import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgeo import ConfigurationError, predicted_constants


class TestStageFormulas:
    def test_lipschitz_to_relative(self):
        led = predicted_constants("lipschitz_to_relative", {"l": 3.0, "lam": 0.25})
        assert led["relative_slope"] == 3.0
        assert led["t0"] == 0.25

    def test_relative_to_semisolid_worked_values(self):
        led = predicted_constants("relative_to_semisolid", {"c": 1.0, "c1": 1.0, "t0": 1.0})
        # t1 = min(log 1.5, log(4/3)) = log(4/3); slope = 24/t1
        assert led["t1"] == math.log(4.0 / 3.0)
        assert led["semisolid_slope"] == 24.0 / math.log(4.0 / 3.0)
        assert led["semisolid_slope"] == pytest.approx(83.43, abs=0.01)

    def test_semisolid_to_lipschitz(self):
        led = predicted_constants("semisolid_to_lipschitz", {"c": 2.0, "c2": 3.0})
        assert led["lam"] == 1.0 / (36.0 * 4.0 * 3.0)
        assert led["l"] == 24.0 * 2.0 * 3.0

    def test_relative_to_local_bilipschitz_worked_values(self):
        led = predicted_constants("relative_to_local_bilipschitz", {"t0": 1.0, "c1": 1.0})
        assert led["theta1"] == 0.125
        assert led["l1"] == 4.0

    def test_local_bilipschitz_to_local_qs(self):
        led = predicted_constants("local_bilipschitz_to_local_qs", {"l1": 3.0, "theta1": 0.1})
        assert led["q"] == 0.1
        assert led["eta_slope"] == 9.0

    def test_local_qs_to_lipschitz_worked_values(self):
        led = predicted_constants("local_qs_to_lipschitz", {"c": 1.0, "c2": 1.0, "q": 0.5})
        assert led["q1"] == 0.25  # min(1/3, 1/4)
        assert led["l"] == 32.0
        assert led["lam"] == 0.125

    def test_quasi_isometry_stage(self):
        led = predicted_constants(
            "local_qs_to_quasi_isometry", {"uniformity_a": 2.0, "q": 0.5, "eta_slope": 1.5}
        )
        assert led["q1"] == 0.25
        expected_t1 = min(math.log(1.0 + (1.0 / 8.0) / 1.5 * 0.25), math.log(1.25))
        assert led["small_scale_threshold"] == expected_t1
        assert led["step_bound"] == 16.0 * math.log(2.0)


# inputs that every stage accepts
VALID_INPUTS = {
    "lipschitz_to_relative": {"l": 3.0, "lam": 0.25},
    "relative_to_semisolid": {"c": 1.0, "c1": 1.0, "t0": 0.2},
    "semisolid_to_lipschitz": {"c": 2.0, "c2": 3.0},
    "relative_to_local_bilipschitz": {"c1": 1.0, "t0": 1.0},
    "local_bilipschitz_to_local_qs": {"l1": 3.0, "theta1": 0.1},
    "local_qs_to_lipschitz": {"c": 1.0, "c2": 1.0, "q": 0.5},
    "local_qs_to_quasi_isometry": {"uniformity_a": 2.0, "q": 0.5, "eta_slope": 1.5},
}


class TestValidation:
    def test_unknown_stage(self):
        with pytest.raises(ConfigurationError, match="unknown ledger stage"):
            predicted_constants("banana", {})

    def test_missing_input_named(self):
        with pytest.raises(ConfigurationError, match="requires input 'c1'"):
            predicted_constants("relative_to_semisolid", {"c": 1.0, "t0": 0.5})

    @pytest.mark.parametrize(
        "stage,inputs,field",
        [
            ("relative_to_semisolid", {"c": 0.5, "c1": 1.0, "t0": 0.5}, "c"),
            ("relative_to_semisolid", {"c": 1.0, "c1": 1.0, "t0": 1.5}, "t0"),
            ("semisolid_to_lipschitz", {"c": 1.0, "c2": 0.2}, "c2"),
            ("local_qs_to_lipschitz", {"c": 1.0, "c2": 1.0, "q": 1.0}, "q"),
            ("lipschitz_to_relative", {"l": 1.0, "lam": 0.0}, "lam"),
        ],
    )
    def test_out_of_range_inputs_name_the_field(self, stage, inputs, field):
        with pytest.raises(ConfigurationError, match=field):
            predicted_constants(stage, inputs)

    @pytest.mark.parametrize("stage,field", [
        (stage, field) for stage, inputs in VALID_INPUTS.items() for field in inputs])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_inputs_name_the_field(self, stage, field, bad):
        # an infinite c1 would make t1 = log(1 + 1/inf) = 0, which the slope divides by
        inputs = {**VALID_INPUTS[stage], field: bad}
        with pytest.raises(ConfigurationError,
                           match=rf"^{stage}: hypothesis violated, {field}: must be a finite"):
            predicted_constants(stage, inputs)


@given(
    c=st.floats(1.0, 10.0),
    c1=st.floats(1.0, 50.0),
    t0=st.floats(0.01, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_semisolid_stage_positive_and_deterministic(c, c1, t0):
    led1 = predicted_constants("relative_to_semisolid", {"c": c, "c1": c1, "t0": t0})
    led2 = predicted_constants("relative_to_semisolid", {"c": c, "c1": c1, "t0": t0})
    assert led1.derived == led2.derived
    assert led1["t1"] > 0
    assert led1["semisolid_slope"] >= 24.0 * c * c1 / math.log(1.5)


@given(c1=st.floats(1.0, 100.0), t0=st.floats(0.01, 1.0))
@settings(max_examples=50, deadline=None)
def test_local_bilipschitz_stage_ranges(c1, t0):
    led = predicted_constants("relative_to_local_bilipschitz", {"c1": c1, "t0": t0})
    assert 0 < led["theta1"] < 1
    assert led["l1"] == 4.0 * c1
