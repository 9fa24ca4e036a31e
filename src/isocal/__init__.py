"""isocal: numerical verification of calibration-style isoperimetric
inequalities (plane, sphere, hyperbolic plane) and of the one-dimensional
Mayer field / null Lagrangian construction."""

from .curves import (
    ClosedCurve,
    CurveError,
    OrientationError,
    PointOnBoundaryError,
    contains,
    perimeter,
    regular_polygon,
    signed_area,
    winding_number,
)
from .biform import (
    BiformValue,
    CoincidentPointsError,
    averaged_field,
    biform2,
    biform3,
    biform_apply,
    curl_density,
    d1d2_fd,
    mayer_vector,
    mixed_derivative_closed_form,
)
from .quadrature import (
    IsoperimetricReport,
    double_boundary_integral,
    stokes_check,
    verify_isoperimetric,
    winding_integral,
)
from .mayer import (
    CallablePath,
    EndpointError,
    Extremal,
    FoliationError,
    Lagrangian1D,
    LegendreError,
    NullLagrangianField,
    PhaseLift,
    SolutionFamily,
    action,
    el_residual,
    energy,
    family_from_shooting,
    get_problem,
    hamiltonian,
    lagrangian_submanifold_check,
    legendre_inverse,
    mayer_slope,
    minimality_gap,
    null_lagrangian,
    path_independence_check,
    solve_el,
    weierstrass_gap,
)
from .spaces import (
    HyperbolicCurve,
    SphericalCurve,
    geodesic_cap,
    hyperbolic_area,
    hyperbolic_circle,
    hyperbolic_double_integral,
    hyperbolic_perimeter,
    minkowski_dot,
    sphere_area,
    sphere_double_integral,
    sphere_perimeter,
    verify_hyperbolic_isoperimetric,
    verify_sphere_isoperimetric,
)
from .io import content_hash, load_curve, save_curve

__version__ = "0.1.0"
