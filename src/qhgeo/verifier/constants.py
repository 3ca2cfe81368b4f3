"""Predicted-constant ledger for the distortion-class equivalences.

Each stage turns measured input constants into the explicit constants the
corresponding implication produces.  The ledger is pure arithmetic: same
inputs, bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..validation import _check_range


@dataclass(frozen=True)
class ConstantsLedger:
    stage: str
    inputs: dict
    derived: dict

    def __getitem__(self, key: str) -> float:
        return self.derived[key]


def _need(inputs: dict, stage: str, name: str, low=None, high=None, low_open=False, high_open=False):
    """Input ``name``: a finite number within the stage's hypotheses, else raise naming it."""
    if name not in inputs:
        raise ConfigurationError(f"{stage} requires input {name!r}")
    return _check_range(inputs[name], f"{stage}: hypothesis violated, {name}", low, high,
                        low_open, high_open)


def predicted_constants(stage: str, inputs: dict) -> ConstantsLedger:
    """Explicit constants produced by one implication stage.

    Stages:

    - ``lipschitz_to_relative``: boundary-Lipschitz data (l, lam) gives a
      linear relative slope l at scale t0 = lam.
    - ``relative_to_semisolid``: relative slope c1 at scale t0 in a
      c-quasiconvex ambient gives semisolid slope 24*c*c1/t1 with
      t1 = min(log(t0/2 + 1), log(1 + 1/(3*c1*c))).
    - ``semisolid_to_lipschitz``: semisolid slope c2 gives boundary-
      Lipschitz data l = 24*c*c2 at lam = 1/(36*c^2*c2).
    - ``relative_to_local_bilipschitz``: two-sided relative slope c1 at t0
      gives local biLipschitz constant l1 = 4*c1 on balls of factor
      theta1 = t0/(8*c1).
    - ``local_bilipschitz_to_local_qs``: (l1, theta1) gives linear local
      quasisymmetry slope l1^2 at q = theta1.
    - ``local_qs_to_lipschitz``: two-sided local QS slope c2 at factor q
      gives boundary-Lipschitz data l = 8*c*c2/q1 at lam = q1/(2*c*c2),
      q1 = min(1/(2+c), q/2).
    - ``local_qs_to_quasi_isometry``: measured (uniformity_a, q,
      eta_slope) give the small-scale threshold
      t1 = min(log(1 + (q/2) * inv_eta(1/(4A))), log(1 + q/2)) and the
      step bound 4*A^2*log(2) for pairs below it.
    """
    if stage == "lipschitz_to_relative":
        l = _need(inputs, stage, "l", low=1.0)
        lam = _need(inputs, stage, "lam", low=0.0, high=1.0, low_open=True, high_open=True)
        derived = {"relative_slope": l, "t0": lam}
    elif stage == "relative_to_semisolid":
        c = _need(inputs, stage, "c", low=1.0)
        c1 = _need(inputs, stage, "c1", low=1.0)
        t0 = _need(inputs, stage, "t0", low=0.0, high=1.0, low_open=True)
        t1 = min(math.log(t0 / 2.0 + 1.0), math.log(1.0 + 1.0 / (3.0 * c1 * c)))
        derived = {"t1": t1, "semisolid_slope": 24.0 * c * c1 / t1}
    elif stage == "semisolid_to_lipschitz":
        c = _need(inputs, stage, "c", low=1.0)
        c2 = _need(inputs, stage, "c2", low=1.0)
        derived = {"lam": 1.0 / (36.0 * c * c * c2), "l": 24.0 * c * c2}
    elif stage == "relative_to_local_bilipschitz":
        c1 = _need(inputs, stage, "c1", low=1.0)
        t0 = _need(inputs, stage, "t0", low=0.0, high=1.0, low_open=True)
        derived = {"theta1": t0 / (8.0 * c1), "l1": 4.0 * c1}
    elif stage == "local_bilipschitz_to_local_qs":
        l1 = _need(inputs, stage, "l1", low=1.0)
        theta1 = _need(inputs, stage, "theta1", low=0.0, high=1.0, low_open=True, high_open=True)
        derived = {"q": theta1, "eta_slope": l1 * l1}
    elif stage == "local_qs_to_lipschitz":
        c = _need(inputs, stage, "c", low=1.0)
        c2 = _need(inputs, stage, "c2", low=1.0)
        q = _need(inputs, stage, "q", low=0.0, high=1.0, low_open=True, high_open=True)
        q1 = min(1.0 / (2.0 + c), q / 2.0)
        derived = {"q1": q1, "l": 8.0 * c * c2 / q1, "lam": q1 / (2.0 * c * c2)}
    elif stage == "local_qs_to_quasi_isometry":
        a = _need(inputs, stage, "uniformity_a", low=1.0)
        q = _need(inputs, stage, "q", low=0.0, high=1.0, low_open=True, high_open=True)
        eta = _need(inputs, stage, "eta_slope", low=0.0, low_open=True)
        q1 = q / 2.0
        inv_eta = (1.0 / (4.0 * a)) / eta
        t1 = min(math.log(1.0 + inv_eta * q1), math.log(1.0 + q / 2.0))
        derived = {
            "q1": q1,
            "small_scale_threshold": t1,
            "step_bound": 4.0 * a * a * math.log(2.0),
        }
    else:
        raise ConfigurationError(f"unknown ledger stage {stage!r}")

    for key, value in derived.items():
        if not (value > 0) or not math.isfinite(value):
            raise ConfigurationError(f"{stage}: derived constant {key} is not positive finite")
    return ConstantsLedger(stage, dict(inputs), derived)
