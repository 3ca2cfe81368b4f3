import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qhgeo import ConfigurationError
from qhgeo.verifier import scenario
from qhgeo.verifier.cli import main
from qhgeo.verifier.scenario import (
    ScenarioContext,
    emit_report,
    report_to_csv,
    report_to_json_bytes,
    run_scenario,
    validate_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "qhgeo" / "verifier" / "scenarios"


def tiny_scenario(**overrides):
    raw = {
        "schema": 1,
        "seed": 4242,
        "domains": [
            {"name": "disk", "shape": {"kind": "disk", "params": {"radius": 1.0}, "resolution": 0.08}}
        ],
        "checks": [
            {"check": "metric_axioms", "space": "qh:disk", "triples": 500},
            {"check": "ball_containment", "domain": "disk", "centers": 10},
        ],
    }
    raw.update(overrides)
    return raw


# the references each check id reads, and a valid value of each in a tiny scenario
REFERENCES = {cid: refs.split() for cid, (_, refs, _, _) in scenario._CHECKS.items()}
REFERENCE_VALUES = {"space": "qh:disk", "domain": "disk", "mapping": "auto",
                    "deformation": "u", "deformation0": "u", "deformation1": "u"}
# the optional keys of each check id, and the first check id that reads each key
OPTIONAL = {cid: list(entry[3]) for cid, entry in scenario._CHECKS.items()}
READER = {key: cid for cid, keys in reversed(OPTIONAL.items()) for key in keys}


def one_check_scenario(check, **keys):
    """A tiny scenario whose one check is ``check``, with its references and ``keys``."""
    return tiny_scenario(deformations=[{"name": "u", "domain": "disk", "kind": "uniformize",
                                        "base_point": 0}],
                         mappings=[{"name": "auto", "map": "disk_automorphism",
                                    "source": "disk", "target": "disk"}],
                         checks=[{"check": check, **keys,
                                  **{k: REFERENCE_VALUES[k] for k in REFERENCES[check]}}])


def exit_code_and_error(tmp_path, capsys, raw):
    """``qhgeo run`` on ``raw``: its exit code and what it wrote to stderr."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))  # writes NaN and Infinity, which json.load accepts
    return main(["run", "--scenario", str(path)]), capsys.readouterr().err


class TestValidation:
    def test_missing_seed(self):
        raw = tiny_scenario()
        del raw["seed"]
        with pytest.raises(ConfigurationError, match="seed"):
            validate_scenario(raw)

    def test_wrong_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            validate_scenario(tiny_scenario(schema=2))

    def test_out_of_range_parameter_names_field(self):
        raw = tiny_scenario(
            mappings=[],
            checks=[{"check": "distortion_chain_linear", "mapping": "auto", "lam": 1.5}],
        )
        with pytest.raises(ConfigurationError, match=r"checks\[0\].lam"):
            validate_scenario(raw)

    def test_unknown_domain_reference(self):
        raw = tiny_scenario(checks=[{"check": "uniformity", "domain": "torus"}])
        with pytest.raises(ConfigurationError, match="torus"):
            validate_scenario(raw)

    def test_unknown_check_id(self):
        raw = tiny_scenario(checks=[{"check": "summon"}])
        with pytest.raises(ConfigurationError, match="unknown check id"):
            validate_scenario(raw)

    @pytest.mark.parametrize("cid", [["metric_axioms"], None, 3])
    def test_non_string_check_id(self, cid):
        raw = tiny_scenario(checks=[{"check": cid}])
        with pytest.raises(ConfigurationError, match="unknown check id"):
            validate_scenario(raw)

    def test_shipped_scenarios_all_validate(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 10
        for path in files:
            validate_scenario(json.loads(path.read_text()))

    @pytest.mark.parametrize("check, key", [(c, k) for c, keys in sorted(REFERENCES.items())
                                            for k in keys])
    def test_missing_reference_names_field(self, check, key):
        raw = one_check_scenario(check)
        validate_scenario(raw)
        del raw["checks"][0][key]
        with pytest.raises(ConfigurationError, match=rf"^checks\[0\]\.{key}: missing$"):
            validate_scenario(raw)


class TestSampleSizeValidation:
    @pytest.mark.parametrize(
        "key, value",
        [("pairs", -5), ("pairs", 0), ("triples", 2.5), ("tuples", "100"), ("centers", True),
         ("sources", None), ("pool", -1), ("balls", 0), ("pts_per_ball", 1.0),
         ("quadruples", -1), ("uniformity_pairs", 0), ("max_rays", 0), ("max_rays", 2.5)],
    )
    def test_non_positive_or_non_integer_size_names_field(self, key, value):
        raw = one_check_scenario(READER[key], **{key: value})
        with pytest.raises(ConfigurationError, match=rf"checks\[0\]\.{key}: must be a positive"):
            validate_scenario(raw)

    @pytest.mark.parametrize("key", ["pairs", "balls", "quadruples", "chain_points", "slack",
                                     "band_h"])
    def test_tolerance_sizes_validated(self, key):
        with pytest.raises(ConfigurationError, match=rf"tolerances\.{key}"):
            validate_scenario(tiny_scenario(tolerances={key: -5}))

    @pytest.mark.parametrize(
        "key, value, message",
        [("slack", "x", "must be a number"), ("slack", 0, "must be > 0"),
         ("slack", math.inf, "must be a finite number"),
         ("max_a", math.nan, "must be a finite number"),
         # a string that parses as a number, and a boolean, are no numbers
         ("slack", "inf", "must be a number"), ("tol", "0.5", "must be a number"),
         ("max_a", True, "must be a number"), ("max_delta", np.True_, "must be a number"),
         ("separation_frac", 0.0, "must be > 0"),
         ("max_a", "abc", "must be a number"), ("max_delta", None, "must be a number"),
         ("max_k", [1], "must be a number"), ("max_slope", "big", "must be a number"),
         ("tol", "x", "must be a number"), ("stability_drift", "x", "must be a number"),
         ("clearance_h", "x", "must be a number"), ("image_clearance_h", {}, "must be a number"),
         ("min_qh", "x", "must be a number")],
    )
    def test_bad_check_number_names_field(self, key, value, message):
        raw = one_check_scenario(READER[key], **{key: value})
        with pytest.raises(ConfigurationError, match=rf"checks\[0\]\.{key}: {message}"):
            validate_scenario(raw)

    @pytest.mark.parametrize(
        "kind, base_point, message",
        [("uniformize", "x", "must be a vertex index >= 0 or two numbers"),
         ("uniformize", True, "must be a vertex index >= 0 or two numbers"),
         ("uniformize", 2.5, "must be a vertex index >= 0 or two numbers"),
         ("uniformize", -1, "must be a vertex index >= 0 or two numbers"),
         ("uniformize", [0.0], "must be a vertex index >= 0 or two numbers"),
         ("uniformize", [0.0, "x"], "must be a number"),
         ("uniformize", [0.0, float("nan")], "must be a finite number"),
         ("uniformize", [0.0, 10**400], "must be a number"),
         ("sphericalize", 3, "must be two numbers"),
         ("sphericalize", [1.0, 0.0, 0.0], "must be two numbers"),
         ("sphericalize", [1.0, None], "must be a number"),
         ("sphericalize", [1.0, float("inf")], "must be a finite number")],
    )
    def test_bad_base_point_names_field(self, kind, base_point, message):
        raw = tiny_scenario(deformations=[{"name": "f", "domain": "disk", "kind": kind,
                                           "base_point": base_point}])
        with pytest.raises(ConfigurationError,
                           match=rf"deformations\[0\]\.base_point: {message}"):
            validate_scenario(raw)

    def test_numpy_scalars_are_numbers(self):
        # scenarios built in Python may hold numpy scalars where JSON holds numbers
        raw = one_check_scenario("uniformity", max_a=np.int64(3))
        raw["domains"][0]["shape"] = {"kind": "disk", "params": {"radius": np.float32(1.0)},
                                      "resolution": np.float64(0.08)}
        validate_scenario(raw)

    @pytest.mark.parametrize("kind, base_point", [("uniformize", 0), ("uniformize", [0, 0.5]),
                                                  ("sphericalize", [1, 0.0])])
    def test_good_base_point_accepted(self, kind, base_point):
        validate_scenario(tiny_scenario(deformations=[{"name": "f", "domain": "disk",
                                                       "kind": kind, "base_point": base_point}]))

    def test_base_vertex_out_of_range_is_configuration_error(self):
        raw = tiny_scenario(deformations=[{"name": "u", "domain": "disk", "kind": "uniformize",
                                           "base_point": 10**6}], checks=[])
        with pytest.raises(ConfigurationError, match="base vertex 1000000 is not one of the"):
            ScenarioContext(validate_scenario(raw))

    def test_band_h_zero_accepted(self):
        validate_scenario(tiny_scenario(tolerances={"band_h": 0}))

    @pytest.mark.parametrize(
        "check, arity",
        [("metric_axioms", 3), ("gromov_basepoint_identity", 6), ("delta_hyperbolicity", 4)],
    )
    def test_pool_smaller_than_tuple_arity(self, check, arity):
        chk = {"check": check, "space": "qh:disk", "pool": arity - 1}
        with pytest.raises(ConfigurationError, match=rf"checks\[0\]\.pool: must be >= {arity}"):
            validate_scenario(tiny_scenario(checks=[chk]))
        chk["pool"] = arity
        validate_scenario(tiny_scenario(checks=[chk]))

    @pytest.mark.parametrize(
        "overrides, message",
        [({"checks": [{"check": "distance_vs_qh_bounds", "domain": "disk", "pairs": -5}]},
          "checks[0].pairs: must be a positive integer"),
         ({"checks": [{"check": "distance_vs_qh_bounds", "domain": "disk", "slack": "x"}]},
          "checks[0].slack: must be a number"),
         ({"checks": [{"check": "rough_starlikeness", "domain": "disk", "max_rays": 0}]},
          "checks[0].max_rays: must be a positive integer"),
         ({"tolerances": {"band_h": "abc"}}, "tolerances.band_h: must be a number"),
         ({"tolerances": {"slack": math.inf}}, "tolerances.slack: must be a finite number"),
         ({"tolerances": {"slack": "1.05"}}, "tolerances.slack: must be a number"),
         ({"checks": [{"check": "qh_calibration", "domain": "disk", "tol": "0.5"}]},
          "checks[0].tol: must be a number"),
         ({"checks": [{"check": "uniformity", "domain": "disk", "max_a": True}]},
          "checks[0].max_a: must be a number"),
         ({"seed": True}, "seed: must be present and an integer"),
         # died in np.random.SeedSequence with a ValueError traceback, and exited 1
         ({"seed": -1}, "seed: must be present and an integer >= 0"),
         ({"deformations": [{"name": "s", "domain": "disk", "kind": "sphericalize",
                             "base_point": [0.0, 0.0], "epsilon": 7}]},
          "deformations[0].epsilon: applies only to a 'uniformize' deformation"),
         ({"deformations": [{"name": "u", "domain": "disk", "kind": "uniformize",
                             "base_point": 0, "epsilon": 1.5}]},
          "deformations[0].epsilon: must be < 1.0"),
         ({"deformations": [{"name": "f", "domain": "disk", "kind": "fold",
                             "base_point": [0.0, 0.0]}]},
          "deformations[0].kind: must be 'uniformize' or 'sphericalize'"),
         ({"deformations": [{"name": "u", "domain": "disk", "kind": "uniformize",
                             "base_point": "x"}]},
          "deformations[0].base_point: must be a vertex index >= 0 or two numbers"),
         ({"deformations": [{"name": "u", "domain": "disk", "kind": "uniformize",
                             "base_point": 10**6}], "checks": []},
          "base vertex 1000000 is not one of the"),
         # snapped to the index n: the same fault as a base vertex past n
         ({"deformations": [{"name": "u", "domain": "disk", "kind": "uniformize",
                             "base_point": [1e200, 0.0]}], "checks": []},
          "base_point (1e+200, 0) has no nearest vertex"),
         # each of these exited 1: an infeasible check, and a KeyError traceback
         ({"checks": [{"check": "metric_axioms", "triples": 50}]}, "checks[0].space: missing"),
         ({"checks": [{"check": "uniformity"}]}, "checks[0].domain: missing")],
    )
    def test_cli_exits_two_naming_field(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario(**overrides)))
        assert main(["run", "--scenario", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("space, message", [
        ("bogus:disk", "unknown space kind 'bogus'"),
        ("Qh:disk", "unknown space kind 'Qh'"),
        ("disk", "unknown space kind 'disk'"),
        ("", "unknown space kind ''"),
        ("ambient:torus", "unknown domain 'torus'"),
        ("graph:u", "unknown domain 'u'"),
        ("qh:", "unknown domain ''"),
        ("deformed:disk", "unknown deformation 'disk'"),
        ("qh-of:torus", "unknown deformation 'torus'"),
    ])
    def test_bad_space_reference_exits_two(self, tmp_path, capsys, space, message):
        # u is a deformation and disk a domain: each is readable by its own kinds only
        raw = tiny_scenario(
            deformations=[{"name": "u", "domain": "disk", "kind": "uniformize", "base_point": 0}],
            checks=[{"check": "metric_axioms", "space": "qh:disk", "triples": 50},
                    {"check": "metric_axioms", "space": space, "triples": 50}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path)]) == 2
        assert f"checks[1].space: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("shape, message", [
        ({"kind": "custom-polygon", "params": {"vertices": [[0, 0], [1, 0], [1, 1, 5]]}},
         "domains[0].shape.params.vertices: must be a list of at least 3 pairs of finite numbers"),
        ({"kind": "custom-polygon", "params": {"vertices": [[0, 0], [1, 0], [math.nan, 1]]}},
         "domains[0].shape.params.vertices: must be a list of at least 3 pairs of finite numbers"),
        ({"kind": "custom-polygon", "params": {"vertices": [[0, 0], [1, 0]]}},
         "domains[0].shape.params.vertices: must be a list of at least 3 pairs of finite numbers"),
        ({"kind": "disk", "params": {"radius": math.inf}},
         "domains[0].shape.params.radius: must be a finite number"),
        ({"kind": "disk", "params": {"radius": None}},
         "domains[0].shape.params.radius: must be a number"),
        ({"kind": "disk", "params": {"center": [math.nan, 0.0]}},
         "domains[0].shape.params.center: must be a finite number"),
        ({"kind": "disk", "params": {"center": [0.0, 0.0, 1.0]}},
         "domains[0].shape.params.center: must be two numbers"),
        ({"kind": "annulus", "params": {"outer_radius": math.inf}},
         "domains[0].shape.params.outer_radius: must be a finite number"),
        ({"kind": "L-shape", "params": {"arm_length": "long"}},
         "domains[0].shape.params.arm_length: must be a number"),
        ({"kind": "disk", "resolution": math.inf}, "resolution must be a finite number"),
        ({"kind": "disk", "resolution": "fine"}, "resolution must be a number"),
        ({"kind": "disk", "params": [1.0]}, "domains[0].shape.params: must be an object"),
        ({"kind": "disk", "params": {"radius": "0.5"}},
         "domains[0].shape.params.radius: must be a number"),
        ({"kind": "square", "params": {"side": True}},
         "domains[0].shape.params.side: must be a number"),
        ({"kind": "disk", "resolution": False}, "domains[0].shape: resolution must be a number"),
        # a misspelt key built the default unit disk
        ({"kind": "disk", "params": {"raduis": 0.5}},
         "domains[0].shape.params.raduis: unknown key; expected one of radius, center"),
        ({"kind": "annulus", "params": {"radius": 0.5}},
         "domains[0].shape.params.radius: unknown key; expected one of inner_radius, "
         "outer_radius"),
        ({"kind": "disk", "resolutoin": 0.05},
         "domains[0].shape.resolutoin: unknown key; expected one of kind, resolution, params"),
        # the bounds of SHAPE_BOUNDS: one parameter's names it, one on several names params
        ({"kind": "square", "params": {"side": -1.0}}, "domains[0].shape.params.side: must be > 0"),
        ({"kind": "L-shape", "params": {"arm_width": 3.0}},
         "domains[0].shape.params: L-shape requires 0 < arm_width < arm_length"),
    ])
    def test_malformed_shape_number_exits_two(self, tmp_path, capsys, shape, message):
        raw = tiny_scenario(domains=[{"name": "disk", "shape": {"resolution": 0.08, **shape}}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))  # writes NaN and Infinity, which json.load accepts
        assert main(["run", "--scenario", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1], [1, 2], [2, 1]], "edge 2 (2, 1) repeats an earlier edge"),
        ([[0, 1], [1, 2], [0, 0]], "edge 2 (0, 0) is a self-loop"),
    ])
    def test_imported_graph_must_be_simple(self, tmp_path, capsys, edges, message):
        raw = tiny_scenario(
            domains=[{"name": "path", "graph": {
                "vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "edges": edges,
                "lengths": [1.0] * len(edges), "boundary": [[-1.0, 0.0]]}}],
            checks=[{"check": "metric_axioms", "space": "graph:path"}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path)]) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("entries, message", [
        ({"domains": [3]}, "domains[0]: must be an object"),
        ({"domains": [[1.0, 2.0]]}, "domains[0]: must be an object"),
        ({"checks": ["metric_axioms"]}, "checks[0]: must be an object"),
    ])
    def test_non_object_entry_exits_two(self, tmp_path, capsys, entries, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario(**entries)))
        assert main(["run", "--scenario", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"domains": [{"name": [1], "shape": {"kind": "disk", "resolution": 0.08}}]},
         "domains[0].name: must be a string"),
        ({"mappings": [{"name": "m", "map": "identity", "source": ["disk"], "target": "disk"}]},
         "mappings[0].source: must be a string"),
        ({"checks": [{"check": "uniformity", "domain": ["disk"]}]},
         "checks[0].domain: must be a string"),
        ({"tolerances": 3}, "tolerances: must be an object"),
        ({"deformations": 5}, "deformations: must be a list"),
    ], ids=["domain-name", "mapping-source", "check-domain", "tolerances", "deformations"])
    def test_wrong_type_exits_two(self, tmp_path, capsys, overrides, message):
        # each of these raised TypeError (exit 1) before it was validated
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario(**overrides)))
        assert main(["run", "--scenario", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("vertices", [[0.0, 0.0], [math.nan, 0.0], [2.0, 0.0]],
         "graph.vertices: must be a list of pairs of finite numbers"),
        ("vertices", [[0.0, 0.0], [1.0], [2.0, 0.0]],
         "graph.vertices: must be a list of pairs of finite numbers"),
        ("lengths", [1.0, math.inf], "graph.lengths: must be a list of finite numbers"),
        ("boundary", [[-1.0, math.nan]], "graph.boundary: must be a list of pairs of finite numbers"),
        ("edges", [[0, 1], [1, 3]], "graph.edges: must be vertex indices in [0, 3)"),
        ("edges", [[0, 1], [1, 2.0]], "graph.edges: must be a list of pairs of vertex indices"),
    ])
    def test_imported_graph_numbers_exit_two(self, tmp_path, capsys, field, value, message):
        graph = {"vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "edges": [[0, 1], [1, 2]],
                 "lengths": [1.0, 1.0], "boundary": [[-1.0, 0.0]]}
        raw = tiny_scenario(domains=[{"name": "path", "graph": {**graph, field: value}}],
                            checks=[{"check": "metric_axioms", "space": "graph:path"}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))  # writes NaN and Infinity, which json.load accepts
        assert main(["run", "--scenario", str(path)]) == 2
        assert "domains[0]." + message in capsys.readouterr().err


# a value of the wrong kind for each way a check receives a key (None: as given)
WRONG_KIND = {int: 2.5, float: "x", bool: "false", None: "x"}


class TestNumpyIntegers:
    """A scenario built in Python may hold numpy integers where counts and the seed go."""

    def test_counts_and_seed_accept_numpy_integers(self):
        checks = [{"check": "metric_axioms", "space": "qh:disk", "triples": 200}]
        plain = tiny_scenario(seed=7, checks=checks)
        numpy_ints = tiny_scenario(seed=np.int64(7),
                                   checks=[{**checks[0], "triples": np.int32(200)}])
        validate_scenario(numpy_ints)
        # the same report bytes: the numpy scalars are written as their values
        assert (report_to_json_bytes(run_scenario(numpy_ints))
                == report_to_json_bytes(run_scenario(plain)))

    @pytest.mark.parametrize("value", [True, np.bool_(True), 7.0, np.float64(7.0), "7"])
    def test_booleans_floats_and_strings_are_no_integers(self, value):
        with pytest.raises(ConfigurationError, match="seed: must be present and an integer"):
            validate_scenario(tiny_scenario(seed=value))
        chk = {"check": "metric_axioms", "space": "qh:disk", "triples": value}
        with pytest.raises(ConfigurationError, match=r"checks\[0\]\.triples: must be a positive"):
            validate_scenario(tiny_scenario(checks=[chk]))


class TestParameterTable:
    @pytest.mark.parametrize("check, key", [(c, k) for c, keys in sorted(OPTIONAL.items())
                                            for k in keys])
    def test_wrong_kind_exits_two_naming_field(self, tmp_path, capsys, check, key):
        validate_scenario(one_check_scenario(check))
        raw = one_check_scenario(check, **{key: WRONG_KIND[scenario._KINDS[key][1]]})
        code, err = exit_code_and_error(tmp_path, capsys, raw)
        assert code == 2 and f"checks[0].{key}: must be" in err

    @pytest.mark.parametrize("check", sorted(OPTIONAL))
    def test_unknown_key_exits_two_naming_field(self, tmp_path, capsys, check):
        # a misspelt key used to run the check on its default silently
        code, err = exit_code_and_error(tmp_path, capsys, one_check_scenario(check, centres=5))
        assert code == 2 and "checks[0].centres: unknown key" in err

    @pytest.mark.parametrize("check, key", [(c, k) for c, keys in sorted(OPTIONAL.items())
                                            for k in keys])
    def test_default_is_a_tolerance_or_of_its_kind(self, check, key):
        default = scenario._CHECKS[check][3][key]
        if isinstance(default, str):
            assert default in scenario.DEFAULTS
        elif default is not None and scenario._KINDS[key][1] is not None:
            scenario._KINDS[key][0](default, key)
            assert scenario._KINDS[key][1](default) == default

    def test_resolved_parameters_are_coerced_defaults(self):
        ctx = ScenarioContext(tiny_scenario(checks=[], tolerances={"pairs": 300, "slack": 2}))
        p = scenario._resolve(ctx, "distortion_chain_linear",
                              {"mapping": "m", "lam": 1, "balls": 7, "clearance_h": 3})
        assert p == {"mapping": "m", "lam": 1.0, "balls": 7, "clearance_h": 3.0,
                     "pts_per_ball": 8, "slack": 2.0, "pairs": None,
                     "image_clearance_h": 12.0, "min_qh": 2.0}
        assert type(p["lam"]) is float and type(p["slack"]) is float
        assert scenario._resolve(ctx, "metric_axioms", {"space": "qh:disk"})["triples"] == 300

    @pytest.mark.parametrize("overrides, message", [
        ({"comment": "x"}, "comment: unknown key"),
        ({"tolerances": {"pair": 5}}, "tolerances.pair: unknown key"),
        ({"tolerances": {"chain_points": 0}}, "tolerances.chain_points: must be a positive"),
        ({"domains": [{"name": "disk", "shape": {"kind": "disk", "resolution": 0.1},
                       "resolution": 0.1}]}, "domains[0].resolution: unknown key"),
        ({"domains": [{"name": "p", "graph": {"vertices": [[0, 0]], "edges": [],
                                              "boundary": [[1, 0]], "weights": []}}]},
         "domains[0].graph.weights: unknown key"),
        ({"deformations": [{"name": "u", "domain": "disk", "kind": "uniformize",
                            "base_point": 0, "eps": 0.2}]}, "deformations[0].eps: unknown key"),
        ({"mappings": [{"name": "m", "map": "identity", "source": "disk", "target": "disk",
                        "param": {}}]}, "mappings[0].param: unknown key"),
    ], ids=["top", "tolerances", "chain-points", "domain", "graph", "deformation", "mapping"])
    def test_unknown_key_of_every_object_exits_two(self, tmp_path, capsys, overrides, message):
        code, err = exit_code_and_error(tmp_path, capsys, tiny_scenario(**overrides))
        assert code == 2 and message in err

    @pytest.mark.parametrize("check, keys, message", [
        # each of these exited 1 with a KeyError, TypeError or ValueError traceback
        ("qh_calibration", {"segments": [{"x": [0.0, 0.0]}]}, "checks[0].segments[0].y: missing"),
        ("qh_calibration", {"segments": "abc"}, "checks[0].segments: must be a list"),
        ("qh_calibration", {"segments": [{"x": [0, "a"], "y": [0.5, 0.0]}]},
         "checks[0].segments[0].x: must be a number"),
        ("qh_calibration", {"segments": [{"x": [0.0, 0.0], "y": [0.5, 0.0], "z": 1}]},
         "checks[0].segments[0].z: unknown key"),
        ("rough_starlikeness", {"base_point": "x"}, "checks[0].base_point: must be two numbers"),
        ("rough_starlikeness", {"base_point": [0.0, math.nan]},
         "checks[0].base_point: must be a finite number"),
        # a string flag was truthy: "false" turned the check into an expected violation
        ("ball_containment", {"expect_violation": "false"},
         "checks[0].expect_violation: must be true or false"),
        ("qh_calibration", {"truncation_sensitivity": 1},
         "checks[0].truncation_sensitivity: must be true or false"),
        ("delta_hyperbolicity", {"exhaustive": None},
         "checks[0].exhaustive: must be true or false"),
    ])
    def test_unvalidated_check_values_exit_two(self, tmp_path, capsys, check, keys, message):
        code, err = exit_code_and_error(tmp_path, capsys, one_check_scenario(check, **keys))
        assert code == 2 and message in err

    def test_good_segments_and_base_point_accepted(self):
        validate_scenario(one_check_scenario("qh_calibration", segments=[
            {"x": [0.0, 0.0], "y": [0.5, 0]}], truncation_sensitivity=False))
        validate_scenario(one_check_scenario("rough_starlikeness", base_point=[0, 0.25]))


class TestMappingValidation:
    def mapping_scenario(self, *mappings):
        return tiny_scenario(
            domains=[{"name": "disk", "shape": {"kind": "disk", "params": {"radius": 1.0},
                                                "resolution": 0.1}}],
            mappings=[{"source": "disk", "target": "disk", **m} for m in mappings],
            checks=[{"check": "quasimobius_slope", "mapping": "m", "quadruples": 50}])

    def test_duplicate_name_exits_two(self, tmp_path, capsys):
        # the second mapping used to replace the first silently, and the run exited 0
        raw = self.mapping_scenario({"name": "m", "map": "identity"},
                                    {"name": "m", "map": "disk_automorphism",
                                     "params": {"a": [0.5, 0.0]}})
        code, err = exit_code_and_error(tmp_path, capsys, raw)
        assert code == 2 and "mappings[1].name: duplicate name 'm'" in err

    @pytest.mark.parametrize("mapping, message", [
        ({"map": "warp"}, "mappings[0].map: unknown builtin map id 'warp'"),
        ({"map": ["identity"]}, "mappings[0].map: must be a string"),
        # exited 1 with an AttributeError and a ValueError traceback
        ({"map": "disk_automorphism", "params": [1]}, "mappings[0].params: must be an object"),
        ({"map": "disk_automorphism", "params": {"a": "x"}},
         "mappings[0].params.a: must be a number"),
        ({"map": "disk_automorphism", "params": {"b": 0.5}},
         "mappings[0].params.b: unknown key; expected one of a"),
        ({"map": "disk_automorphism", "params": {"a": [0.5]}},
         "mappings[0].params.a: must be a number or [re, im]"),
        ({"map": "mobius", "params": {"c": [0.5, math.inf]}},
         "mappings[0].params.c: must be a finite number"),
        ({"map": "power", "params": {"alpha": [2.0, 0.0]}},
         "mappings[0].params.alpha: must be a number"),
        ({"map": "similarity", "params": {"scale": math.nan}},
         "mappings[0].params.scale: must be a finite number"),
        ({"map": "identity", "params": {"scale": 2.0}}, "mappings[0].params.scale: unknown key"),
        # the map bounds: each failed only after every domain was built, naming no field
        ({"map": "similarity", "params": {"scale": 0}},
         "mappings[0].params.scale: similarity scale must be nonzero"),
        ({"map": "disk_automorphism", "params": {"a": [2, 0]}},
         "mappings[0].params.a: disk automorphism requires |a| < 1"),
        ({"map": "power", "params": {"alpha": -1.5}},
         "mappings[0].params.alpha: power map exponent must be > 0"),
        ({"map": "mobius", "params": {"a": 1, "b": 2, "c": [2, 0], "d": 4}},
         "mappings[0].params: mobius map requires a*d - b*c != 0"),
    ])
    def test_bad_map_or_params_exit_two_before_building(self, tmp_path, capsys, mapping,
                                                        message):
        raw = self.mapping_scenario({"name": "m", **mapping})
        with pytest.raises(ConfigurationError) as exc:
            validate_scenario(raw)  # validation builds no domain
        assert message in str(exc.value)
        with mock.patch.object(scenario, "build_grid_domain", side_effect=AssertionError):
            code, err = exit_code_and_error(tmp_path, capsys, raw)
        assert code == 2 and message in err

    @pytest.mark.parametrize("map_id, params", [
        ("identity", {}), ("similarity", {"scale": 2, "offset": [0.5, -1.0]}),
        ("similarity", {"offset": 0.5}), ("disk_automorphism", {"a": 0.25}),
        ("power", {"alpha": 1.5}), ("mobius", {"a": [1, 0], "b": 0, "c": [0, 0], "d": 1}),
    ])
    def test_good_params_accepted(self, map_id, params):
        validate_scenario(self.mapping_scenario({"name": "m", "map": map_id, "params": params}))


# check id -> parameters that draw an empty sample (validation would reject most of
# them; the checks are called directly so that the guard behind it is tested too)
EMPTY_SAMPLE_CASES = {
    "metric_axioms": {"space": "qh:disk", "triples": 0},
    "qh_calibration": {"domain": "disk"},
    "distance_vs_qh_bounds": {"domain": "disk", "pairs": 0},
    "ball_containment": {"domain": "disk", "centers": 0},
    "gromov_basepoint_identity": {"space": "qh:disk", "tuples": 0},
    "delta_hyperbolicity": {"space": "qh:disk", "quadruples": 0},
    "uniformity": {"domain": "disk", "pairs": 0},
    "sphericalization_envelope": {"deformation": "sp", "pairs": 0},
    "sphericalization_distortion": {"deformation": "sp", "quadruples": 0},
    "quasimobius_slope": {"mapping": "auto", "quadruples": 0},
}


@pytest.fixture(scope="module")
def empty_sample_ctx():
    return ScenarioContext(tiny_scenario(
        deformations=[{"name": "sp", "domain": "disk", "kind": "sphericalize",
                       "base_point": [1.0, 0.0]}],
        mappings=[{"name": "auto", "map": "disk_automorphism", "params": {"a": [0.5, 0.0]},
                   "source": "disk", "target": "disk"}],
        tolerances={"chain_points": 200},
    ))


class TestEmptySamples:
    @pytest.mark.parametrize("check", sorted(EMPTY_SAMPLE_CASES))
    def test_empty_sample_is_infeasible(self, empty_sample_ctx, check):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigurationError, match="empty sample"):
            params = scenario._resolve(empty_sample_ctx, check, EMPTY_SAMPLE_CASES[check])
            scenario._CHECKS[check][0](empty_sample_ctx, params, rng)

    @pytest.mark.parametrize("check, n_vertices", [("metric_axioms", 2),
                                                   ("delta_hyperbolicity", 3)])
    def test_too_few_points_fail_with_note_and_exit_one(self, tmp_path, check, n_vertices):
        # a valid scenario on a path graph too small to hold one triple (quadruple)
        # of distinct points
        vertices = [[float(a), 0.0] for a in range(n_vertices)]
        raw = tiny_scenario(
            domains=[{"name": "path", "graph": {
                "vertices": vertices,
                "edges": [[a, a + 1] for a in range(n_vertices - 1)],
                "boundary": [[-1.0, 0.0]],
            }}],
            checks=[{"check": check, "space": "graph:path"}],
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(path), "--report", str(out)]) == 1
        chk = json.loads(out.read_text())["checks"][0]
        assert not chk["passed"]
        assert chk["notes"] and chk["notes"][0].startswith("infeasible: empty sample")


class TestRunScenario:
    def test_empty_checks_pass(self):
        report = run_scenario(tiny_scenario(checks=[]))
        assert report["passed"] and report["checks"] == []

    def test_deterministic_bytes(self):
        raw = tiny_scenario()
        b1 = report_to_json_bytes(run_scenario(raw))
        b2 = report_to_json_bytes(run_scenario(raw))
        assert b1 == b2

    @pytest.mark.parametrize("raw, jobs", [
        (tiny_scenario(), 3),
        # the dense chain view and the geodesic walks, which keep no cache, on 2 threads
        (tiny_scenario(
            domains=[{"name": "disk", "shape": {"kind": "disk", "params": {"radius": 1.0},
                                                "resolution": 0.12}}],
            deformations=[{"name": "sp", "domain": "disk", "kind": "sphericalize",
                           "base_point": [1.0, 0.0]}],
            checks=[
                {"check": "sphericalization_envelope", "deformation": "sp", "pairs": 200},
                {"check": "sphericalization_distortion", "deformation": "sp",
                 "quadruples": 200, "pool": 16, "pairs": 200},
                {"check": "uniformity", "domain": "disk", "pairs": 100},
                {"check": "rough_starlikeness", "domain": "disk"},
            ],
        ), 2),
        # checks that build the domain's lazy length matrix and graph view on 2 threads
        (tiny_scenario(checks=[
            {"check": "metric_axioms", "space": "graph:disk", "triples": 300},
            {"check": "delta_hyperbolicity", "space": "graph:disk", "quadruples": 300},
            {"check": "gromov_basepoint_identity", "space": "graph:disk", "tuples": 100},
        ]), 2),
    ], ids=["qh", "sphericalize", "graph"])
    def test_parallel_equals_serial(self, raw, jobs):
        assert report_to_json_bytes(run_scenario(raw, jobs=jobs)) == report_to_json_bytes(
            run_scenario(raw, jobs=1)
        )

    def test_seed_override_changes_report(self):
        raw = tiny_scenario()
        r1 = run_scenario(raw)
        r2 = run_scenario(raw, seed=999)
        assert r2["seed"] == 999
        assert report_to_json_bytes(r1) != report_to_json_bytes(r2)

    def test_resolution_override(self):
        report = run_scenario(tiny_scenario(), resolution_override=0.15)
        assert report["resolutions"]["disk"] == 0.15

    def test_defaults_recorded(self):
        report = run_scenario(tiny_scenario())
        assert report["sample_defaults"] == {"pairs": 10000, "balls": 1000, "quadruples": 1000}
        assert report["slack"] == 1.05

    def test_injected_violation_produces_witness(self):
        raw = tiny_scenario(
            checks=[{"check": "ball_containment", "domain": "disk", "centers": 20, "slack": 0.5}]
        )
        report = run_scenario(raw)
        chk = report["checks"][0]
        assert not chk["passed"]
        assert chk["violations"] and "witness" in chk["violations"][0]

    def test_bounds_sweep_witness_injection(self):
        # slack below 1 must surface witnesses with point coordinates
        raw = tiny_scenario(
            checks=[{"check": "distance_vs_qh_bounds", "domain": "disk",
                     "pairs": 3000, "slack": 0.5}]
        )
        report = run_scenario(raw)
        chk = report["checks"][0]
        assert not chk["passed"]
        assert chk["violations"]
        first = chk["violations"][0]
        assert "x" in first and "y" in first and len(first["x"]) == 2

    def test_graph_import_domain(self):
        raw = tiny_scenario(
            domains=[
                {
                    "name": "path3",
                    "graph": {
                        "vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                        "edges": [[0, 1], [1, 2]],
                        "boundary": [[-1.0, 0.0]],
                    },
                }
            ],
            checks=[{"check": "metric_axioms", "space": "graph:path3", "triples": 50, "pool": 3}],
        )
        report = run_scenario(raw)
        assert report["passed"]

    def test_expected_violation_mode(self):
        raw = tiny_scenario(
            checks=[
                {
                    "check": "ball_containment",
                    "domain": "disk",
                    "centers": 20,
                    "slack": 0.5,
                    "expect_violation": True,
                }
            ]
        )
        assert run_scenario(raw)["passed"]

    def test_truncation_sensitivity_flag(self):
        # doubling the truncation radius must leave the calibration segment
        # unchanged when the radius already dominates the feature scale
        raw = tiny_scenario(
            domains=[
                {
                    "name": "punctured",
                    "shape": {
                        "kind": "punctured-plane-truncation",
                        "params": {"radius": 6.0},
                        "resolution": 0.2,
                    },
                }
            ],
            checks=[
                {
                    "check": "qh_calibration",
                    "domain": "punctured",
                    "segments": [{"x": [1.0, 0.0], "y": [2.7, 0.0]}],
                    "tol": 0.05,
                    "truncation_sensitivity": True,
                }
            ],
        )
        report = run_scenario(raw)
        chk = report["checks"][0]
        assert chk["passed"]
        assert chk["measured"]["segment0_truncation_drift"] < 0.01

    @pytest.mark.parametrize("shape, end, truncation", [
        ({"kind": "disk", "params": {"radius": 1.0}, "resolution": 0.05}, 0.0, False),
        ({"kind": "punctured-plane-truncation", "params": {"radius": 6.0}, "resolution": 0.2},
         1.0, True),
    ], ids=["disk", "punctured-truncation-sensitivity"])
    def test_calibration_segment_on_one_vertex_is_infeasible(self, tmp_path, capsys, shape,
                                                              end, truncation):
        # both ends of segments[1] snap to one vertex: k = 0 and the oracle is 0
        raw = tiny_scenario(
            domains=[{"name": "d", "shape": shape}],
            checks=[{"check": "qh_calibration", "domain": "d",
                     "segments": [{"x": [end, 0.0], "y": [end + 0.5, 0.0]},
                                  {"x": [end, 0.0], "y": [end + 0.001, 0.0]}],
                     "truncation_sensitivity": truncation}],
        )
        chk = run_scenario(raw)["checks"][0]
        assert not chk["passed"] and chk["measured"] == {}
        assert len(chk["notes"]) == 1
        assert chk["notes"][0].startswith("infeasible: segments[1]: both ends snap to vertex")
        assert exit_code_and_error(tmp_path, capsys, raw) == (1, "")

    @pytest.mark.parametrize("shape, x, y", [
        # through the puncture: the integrand divided by d_G = 0 (ZeroDivisionError, exit 1)
        ({"kind": "punctured-plane-truncation", "params": {"radius": 6.0}, "resolution": 0.2},
         [-1.0, 0.0], [1.0, 0.0]),
        # across the L-shape's inner corner (1, 1), where the signed d_G goes negative
        ({"kind": "L-shape", "params": {"arm_width": 1.0, "arm_length": 2.0}, "resolution": 0.1},
         [1.7, 0.7], [0.7, 1.7]),
    ], ids=["puncture", "L-shape-corner"])
    def test_calibration_segment_meeting_the_boundary_is_infeasible(self, tmp_path, capsys,
                                                                     shape, x, y):
        raw = tiny_scenario(domains=[{"name": "d", "shape": shape}],
                            checks=[{"check": "qh_calibration", "domain": "d",
                                     "segments": [{"x": x, "y": y}]}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(path), "--report", str(out)]) == 1
        assert capsys.readouterr().err == ""
        chk = json.loads(out.read_text())["checks"][0]
        assert not chk["passed"] and chk["measured"] == {}
        ends = f"({x[0]:g}, {x[1]:g}) to ({y[0]:g}, {y[1]:g})"  # each end is a lattice point
        assert chk["notes"] == [f"infeasible: segments[0]: the snapped segment from {ends} "
                                "meets the boundary"]

    @pytest.mark.parametrize("check, where", [
        ({"check": "qh_calibration", "segments": [{"x": [1e200, 0.0], "y": [0.5, 0.0]}]},
         "segments[0].x"),
        ({"check": "rough_starlikeness", "base_point": [1e200, 0.0]}, "base_point"),
    ], ids=["segment", "base-point"])
    def test_point_too_far_to_snap_is_infeasible(self, tmp_path, capsys, check, where):
        # cKDTree answered the index n for it: an IndexError, exit 3
        raw = tiny_scenario(domains=[{"name": "d", "shape": {
            "kind": "disk", "params": {"radius": 1.0}, "resolution": 0.1}}],
            checks=[{**check, "domain": "d"}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(path), "--report", str(out)]) == 1
        assert capsys.readouterr().err == ""
        chk = json.loads(out.read_text())["checks"][0]
        assert not chk["passed"] and chk["measured"] == {}
        assert chk["notes"] == [f"infeasible: {where} (1e+200, 0) has no nearest vertex: it is "
                                "not finite, or its squared distance to every vertex overflows"]

    def test_truncation_sensitivity_rejected_for_bounded_shapes(self):
        raw = tiny_scenario(
            checks=[
                {
                    "check": "qh_calibration",
                    "domain": "disk",
                    "segments": [{"x": [0.0, 0.0], "y": [0.5, 0.0]}],
                    "truncation_sensitivity": True,
                }
            ]
        )
        report = run_scenario(raw)
        assert not report["checks"][0]["passed"]
        assert "infeasible" in report["checks"][0]["notes"][0]

    def test_global_qs_error_on_bounded_pair_is_infeasible(self, monkeypatch):
        # bounded sides go straight to the hypotheses check: its errors are not
        # re-routed through a sphericalization
        def boom(m):
            raise ConfigurationError("boom")

        monkeypatch.setattr(scenario, "check_global_qs_hypotheses", boom)
        raw = tiny_scenario(
            mappings=[{"name": "id", "map": "identity", "source": "disk", "target": "disk"}],
            checks=[{"check": "global_qs_hypotheses", "mapping": "id"}],
        )
        chk = run_scenario(raw)["checks"][0]
        assert not chk["passed"]
        assert chk["notes"] == ["infeasible: boom"]

    def test_infeasible_check_recorded_not_fatal(self):
        raw = tiny_scenario(
            checks=[
                {"check": "sphericalization_envelope", "deformation": "sp", "pairs": 10},
                {"check": "metric_axioms", "space": "qh:disk", "triples": 200},
            ],
            deformations=[
                {
                    "name": "sp",
                    "domain": "disk",
                    "kind": "uniformize",
                    "epsilon": 0.2,
                    "base_point": [0.0, 0.0],
                }
            ],
        )
        report = run_scenario(raw)
        assert not report["checks"][0]["passed"]
        assert "infeasible" in report["checks"][0]["notes"][0]
        assert report["checks"][1]["passed"]


# a uniformized and a sphericalized deformation of the tiny scenario's disk; the sphericalization
# keeps 200 of its vertices, so its chain view is smaller than the disk
BOTH_KINDS = [{"name": "u", "domain": "disk", "kind": "uniformize", "base_point": 0},
              {"name": "sp", "domain": "disk", "kind": "sphericalize", "base_point": [1.0, 0.0]}]

# a space reference of each kind on the tiny disk and on both deformations, with the size of
# its view (None: every vertex of the disk)
SPACE_REFS = [("ambient:disk", None), ("graph:disk", None), ("qh:disk", None),
              ("deformed:u", None), ("qh-of:u", None), ("deformed:sp", 200), ("qh-of:sp", None)]


@pytest.fixture(scope="module")
def both_kinds_ctx():
    return ScenarioContext(tiny_scenario(deformations=BOTH_KINDS, tolerances={"chain_points": 200}))


class TestCheckTargets:
    def test_every_deformation_reading_check_declares_its_kind(self):
        readers = {cid for cid, refs in REFERENCES.items()
                   if any(ref.startswith("deformation") for ref in refs)}
        assert set(scenario._DEFORMATION_KINDS) == readers

    @pytest.mark.parametrize("check, refs, key", [
        ("deformed_diameter", {"deformation": "sp"}, "deformation"),
        ("deformation_comparability", {"deformation": "sp"}, "deformation"),
        ("basepoint_change", {"deformation0": "sp", "deformation1": "u"}, "deformation0"),
        ("basepoint_change", {"deformation0": "u", "deformation1": "sp"}, "deformation1"),
        ("sphericalization_envelope", {"deformation": "u"}, "deformation"),
        ("sphericalization_distortion", {"deformation": "u"}, "deformation"),
    ])
    def test_deformation_of_the_other_kind_is_infeasible(self, tmp_path, capsys, check, refs,
                                                        key):
        # the kind is tested before the check runs: no check body reads a missing attribute
        raw = tiny_scenario(deformations=BOTH_KINDS, tolerances={"chain_points": 200}, checks=[
            {"check": "metric_axioms", "space": "qh:disk", "triples": 200},
            {"check": check, **refs},
            {"check": "ball_containment", "domain": "disk", "centers": 10}])
        path, out = tmp_path / "scenario.json", tmp_path / "report.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path), "--report", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        first, wrong, last = json.loads(out.read_text())["checks"]
        kind = scenario._DEFORMATION_KINDS[check]
        assert wrong["notes"] == [f"infeasible: {key}: {check} needs a {kind} deformation"]
        assert not wrong["passed"] and wrong["measured"] == {}
        assert first["passed"] and first["measured"] and last["passed"] and last["measured"]

    @pytest.mark.parametrize("ref, n", SPACE_REFS)
    def test_each_space_kind_reads_its_view(self, both_kinds_ctx, ref, n):
        ctx = both_kinds_ctx
        view = ctx.space_view(ref)
        assert view.n == (n or ctx.domains["disk"][0].n)
        if ref.startswith("ambient:"):
            assert view is ctx.domains["disk"][0].ambient_view()
        params = scenario._resolve(ctx, "metric_axioms", {"space": ref, "triples": 200})
        assert scenario._chk_metric_axioms(ctx, params, np.random.default_rng(3))["passed"]

    def test_space_kinds_are_all_tested(self):
        assert {ref.partition(":")[0] for ref, _ in SPACE_REFS} == set(scenario._SPACES)


class TestEmission:
    def test_csv_row_count_matches_measured_constants(self):
        report = run_scenario(tiny_scenario())
        csv = report_to_csv(report)
        rows = csv.strip().splitlines()[1:]
        expected = sum(len(c["measured"]) for c in report["checks"])
        assert len(rows) == expected

    def test_emit_json_and_csv(self, tmp_path):
        report = run_scenario(tiny_scenario())
        p1 = emit_report(report, tmp_path / "r.json", "json")
        p2 = emit_report(report, tmp_path / "r.csv", "csv")
        assert json.loads(Path(p1).read_text())["passed"] == report["passed"]
        assert Path(p2).read_text().startswith("check,constant,measured,predicted,passed")

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="format"):
            emit_report({}, tmp_path / "r.xml", "xml")


class TestCLI:
    def write(self, tmp_path, raw):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(raw))
        return str(p)

    def test_exit_zero_and_report_file(self, tmp_path, capsys):
        path = self.write(tmp_path, tiny_scenario())
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", path, "--report", str(out)]) == 0
        assert json.loads(out.read_text())["passed"]
        assert "2/2 checks passed" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        raw = tiny_scenario()
        del raw["seed"]
        path = self.write(tmp_path, raw)
        assert main(["run", "--scenario", path]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seed", "-5"), ("--jobs", "0"), ("--jobs", "-4")])
    def test_bad_seed_or_jobs_exits_two_naming_the_flag(self, tmp_path, capsys, flag, value):
        # a negative seed exited 1 with a ValueError traceback; --jobs 0 ran as --jobs 1
        path = self.write(tmp_path, tiny_scenario())
        with mock.patch.object(scenario, "build_grid_domain", side_effect=AssertionError):
            assert main(["run", "--scenario", path, flag, value]) == 2
        assert f"{flag}: must be >= " in capsys.readouterr().err

    def test_negative_seed_override_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="seed: must be present and an integer >= 0"):
            run_scenario(tiny_scenario(), seed=-2)

    def test_exit_one_on_violation(self, tmp_path):
        raw = tiny_scenario(
            checks=[{"check": "ball_containment", "domain": "disk", "centers": 20, "slack": 0.5}]
        )
        path = self.write(tmp_path, raw)
        assert main(["run", "--scenario", path]) == 1

    def test_crash_exits_three_with_its_traceback(self, tmp_path, capsys):
        # an escaping exception exited 1, which reads as a violated check
        path = self.write(tmp_path, tiny_scenario())
        with mock.patch("qhgeo.verifier.cli.run_scenario", side_effect=RuntimeError("boom")):
            assert main(["run", "--scenario", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "Traceback" in err
        assert "RuntimeError: boom" in err
        violated = tiny_scenario(
            checks=[{"check": "ball_containment", "domain": "disk", "centers": 20, "slack": 0.5}])
        assert main(["run", "--scenario", self.write(tmp_path, violated)]) == 1

    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["run", "--scenario", "does-not-exist.json"]) == 2

    def test_shipped_scenario_resolves_by_name(self, tmp_path):
        # resolution override keeps the smoke run fast
        code = main(
            [
                "run",
                "--scenario",
                "calibration_disk",
                "--report",
                str(tmp_path / "cal.json"),
                "--resolution-override",
                "0.05",
                "--seed",
                "11",
            ]
        )
        assert code in (0, 1)  # coarse override may fail tolerance checks, but runs
        assert (tmp_path / "cal.json").exists()

    def test_byte_identical_reports_across_cli_runs(self, tmp_path):
        path = self.write(tmp_path, tiny_scenario())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--scenario", path, "--report", str(out1)])
        main(["run", "--scenario", path, "--report", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format_flag(self, tmp_path):
        path = self.write(tmp_path, tiny_scenario())
        out = tmp_path / "r.csv"
        main(["run", "--scenario", path, "--report", str(out), "--format", "csv"])
        assert out.read_text().startswith("check,constant")
