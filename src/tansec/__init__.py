"""Desk-scale certification of tangent-space geometry for parametrized
varieties: fullness of the tangent variety, dominance of the pairwise
tangent-intersection map, and recovery of a projection center from its
ramification locus."""

from .errors import (
    CenterHitError,
    DegenerateInputError,
    InsufficientPointsError,
    NewtonDivergedError,
    NoConsensusError,
    NonTransverseError,
    NotNormalizedError,
    PolyParseError,
    RankDeficientJacobianError,
    SingularMatrixError,
    SingularTangentJacobianError,
    TansecError,
    VarietyFileError,
)
from .linalg import RankResult, chordal_distance, numerical_rank, solve, subspace_intersection
from .newton import NewtonConfig
from .poly import (
    GaussianRational,
    Jet2,
    PolyMap,
    Polynomial,
    parse_map,
    parse_poly,
    random_point,
    random_rational_point,
)
from .projection import (
    Center,
    RamificationSet,
    RoundtripReport,
    project,
    ramification_jacobian,
    ramification_points,
    ramification_residual,
    recover_center,
    roundtrip,
    tangent_membership,
)
from .tangent import (
    Certificate,
    TangentFrame,
    dominance_certificate,
    hessian_contraction,
    p_jacobian_closed,
    p_jacobian_fd,
    p_map,
    secant_dim_estimate,
    tan_is_full,
    tangent_bundle_rank_check,
    tangent_frame,
    tangent_intersection,
)
from .variety import GraphVariety, NormalizedChart, ParamVariety, normalize_at
from .varfile import VarietyFile, parse_variety_file

__version__ = "0.1.0"
