"""Boundary measure of convex bodies under rotation-invariant log-concave
probability measures on R^d.

The measure has density proportional to exp(-phi(|x|)) for a convex,
nondecreasing potential phi with phi(0) = 0.  The package computes the
characteristic radius t0, the spread functionals lambda_i/lambda_o and
lambda_ratio, exact boundary measures of symmetric bodies, Monte Carlo
boundary measures of polytopes, pointwise upper-bound certificates, and
the random circumscribed polytope that realizes the maximal boundary
measure up to constants:

    max over convex Q of surface(Q) ~ sqrt(m) / (sqrt(lambda_ratio) t0).
"""

from .errors import (
    DegeneratePlanError,
    GateError,
    InputError,
    NormalizationError,
    NumericsError,
    QuadratureError,
    RadsurfError,
)
from .potential import (
    BallPotential,
    GaussianPotential,
    PowerPotential,
    RadialPotential,
    ShellDensity,
    TabulatedPotential,
    ball,
    gaussian,
    load_table,
    parse_measure,
    power,
    probe_potential,
    shell,
    tabulated,
)
from .functionals import (
    LogScalar,
    MeasureProfile,
    mu_candidate,
    profile,
    psi,
    rough_upper_bound,
    tail_mass_bound,
    theorem_bound,
    theorem_bound_probabilistic,
)
from .bodies import (
    Ball,
    HalfSpace,
    HyperRectangle,
    Polytope,
    Slab,
    SphereShell,
    SurfaceEstimate,
    cube_lebesgue_check,
    halfspace_surface,
    minkowski_fd_surface,
    polytope_surface_mc,
    sample_points,
    slab_surface,
    sphere_surface,
)
from .certificates import (
    BoundaryPoint,
    CertificateReport,
    Lambda,
    annulus_remainder_bound,
    certificate_upper_bound,
    xi1,
    xi2_lower,
)
from .construction import (
    PolytopeSpec,
    cap_probability,
    expected_surface,
    plan,
    sample_polytope,
)

__version__ = "0.1.0"

# The Monte Carlo kernels have one implementation, in numpy.  The constant
# stays because perfbench/run.py records it in every benchmark report.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "__version__",
    # errors
    "RadsurfError", "InputError", "GateError", "NormalizationError",
    "DegeneratePlanError", "NumericsError", "QuadratureError",
    # potentials
    "RadialPotential", "GaussianPotential", "PowerPotential",
    "BallPotential", "TabulatedPotential", "ShellDensity",
    "gaussian", "power", "ball", "tabulated", "shell",
    "load_table", "parse_measure", "probe_potential",
    # functionals
    "LogScalar", "MeasureProfile", "profile", "theorem_bound",
    "theorem_bound_probabilistic", "rough_upper_bound", "tail_mass_bound",
    "mu_candidate", "psi",
    # bodies
    "SphereShell", "Ball", "HalfSpace", "Slab", "Polytope",
    "HyperRectangle", "SurfaceEstimate", "sphere_surface",
    "halfspace_surface", "slab_surface", "polytope_surface_mc",
    "minkowski_fd_surface", "sample_points", "cube_lebesgue_check",
    # certificates
    "BoundaryPoint", "CertificateReport", "Lambda", "xi1",
    "xi2_lower", "certificate_upper_bound", "annulus_remainder_bound",
    # construction
    "PolytopeSpec", "plan", "cap_probability", "sample_polytope",
    "expected_surface",
]
