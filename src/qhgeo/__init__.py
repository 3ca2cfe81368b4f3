"""qhgeo: quasihyperbolic geometry on discretized planar domains.

Builds grid domains with boundary-distance fields, computes the
quasihyperbolic metric and its Gromov-hyperbolic invariants, applies
conformal deformations (uniformization, sphericalization), and measures
boundary-relative distortion constants of sampled homeomorphisms against
their predicted values.
"""

from .errors import ConfigurationError, InternalError
from .metric_core import (
    BallContainmentReport,
    DomainSample,
    LengthGraph,
    build_grid_domain,
    check_ball_containment,
    domain_from_length_graph,
    estimate_quasiconvexity,
    safe_ball_radius,
)
from .quasihyperbolic import (
    QuasihyperbolicMetric,
    UniformityReport,
    estimate_uniformity,
    verify_qh_distance_bounds,
)
from .hyperbolicity import (
    HyperbolicityReport,
    estimate_delta,
    estimate_rough_starlikeness,
)
from .deformations import (
    SphericalizedSpace,
    UniformizedSpace,
    basepoint_change_distortion,
    sphericalization_envelope,
    sphericalize,
    uniformize,
    verify_deformation_comparability,
)
from .mapping_analysis import (
    DeformedSide,
    DomainSide,
    MappingPair,
    build_mapping,
    check_global_qs_hypotheses,
    estimate_boundary_lipschitz,
    estimate_local_bilipschitz,
    estimate_local_quasisymmetry,
    estimate_qh_bilipschitz,
    estimate_quasi_isometry,
    estimate_quasimobius,
    estimate_relative,
    estimate_semisolid,
)
from .shapes import ShapeSpec
from .verifier import ConstantsLedger, predicted_constants

__version__ = "0.1.0"
