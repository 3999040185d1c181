"""Hypergeometric monodromy groups in Sp4/SO(2,3) and their dynamics."""

from .params import (
    DegenerationClass,
    HypergeomParams,
    MIRROR_QUINTIC,
    classify_local_degeneration,
    enumerate_good_families,
    hodge_numbers,
    satisfies_assumption_a,
    satisfies_assumption_b,
)
from .monodromy import (
    CharPolyCoeffs,
    MonodromyRep,
    build_rep,
    char_polys,
    invariant_bilinear_form,
    levelt_matrices,
    monodromy_at_one,
    reflection_matrices,
    symplectic_basis,
)
from .exterior import (
    LagrangianPlane,
    pluecker,
    reduced_exterior_square,
)
from .lie import is_log_proximal
from .fuchsian import (
    GeodesicTrajectory,
    OrbifoldSignature,
    geodesic_sample,
    hyp_distance,
    orbifold_signature,
)
from .dynamics import (
    AnosovCertificate,
    LimitSamples,
    WordBall,
    anosov_certificate,
    enumerate_ball,
    limit_curve_samples,
    lyapunov_mc,
    rational_limit_classify,
    sum_formula_report,
)

__version__ = "0.1.0"
