"""Exact time-kernel construction for time-of-arrival operators, with
Weyl-Wigner transform cross-checks and a floating-point verification layer.

The names of the floating-point layer (supratoa.numerics) resolve on first
access, so importing the package loads neither that module nor numpy.
"""

from .algebra import (
    GradedKernel,
    KernelCells,
    MomentumSeries,
    QPoly,
    Rational,
    format_rational,
    parse_rational,
    poly_antideriv,
    poly_defint,
    poly_shift,
)
from .classical_toa import (
    PhasePoint,
    Potential,
    convergence_margin,
    local_toa,
    shift_arrival,
    toa_iterate_closed,
    toa_iterate_liouville,
    toa_quadrature,
)
from .errors import (
    ArgumentTooNegative,
    ConfigError,
    GradeError,
    NoConvergence,
    NotAccessible,
    QuadratureFailure,
    SupratoaError,
    ZeroMomentum,
    ZeroOverlap,
)
from .kernel_solver import (
    BoundaryReport,
    KernelRequest,
    boundary_check,
    classical_term,
    kernel_eval,
    pde_residual,
    solve_kernel_anharmonic,
    solve_kernel_at_hbar,
    solve_kernel_general,
    solve_kernel_harmonic,
    solve_kernel_linear,
    solve_kernel_ungraded,
)
from .transforms import (
    classical_limit,
    hbar2_residual,
    weyl_quantize,
    wigner_transform,
)

__version__ = "0.1.0"

# exported by supratoa.numerics, imported when one of them is first read
_NUMERICS_NAMES = (
    "BumpProfile",
    "CommutatorReport",
    "QuadSpec",
    "apply_kernel",
    "commutator_residual",
    "hyper0f1",
    "kernel_integral_form",
)


def __getattr__(name: str):
    if name in _NUMERICS_NAMES:
        from . import numerics

        return getattr(numerics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArgumentTooNegative",
    "BoundaryReport",
    "BumpProfile",
    "CommutatorReport",
    "ConfigError",
    "GradeError",
    "GradedKernel",
    "KernelCells",
    "KernelRequest",
    "MomentumSeries",
    "NoConvergence",
    "NotAccessible",
    "PhasePoint",
    "Potential",
    "QPoly",
    "QuadSpec",
    "QuadratureFailure",
    "Rational",
    "SupratoaError",
    "ZeroMomentum",
    "ZeroOverlap",
    "apply_kernel",
    "boundary_check",
    "classical_limit",
    "classical_term",
    "commutator_residual",
    "convergence_margin",
    "format_rational",
    "hbar2_residual",
    "hyper0f1",
    "kernel_eval",
    "kernel_integral_form",
    "local_toa",
    "parse_rational",
    "pde_residual",
    "poly_antideriv",
    "poly_defint",
    "poly_shift",
    "shift_arrival",
    "solve_kernel_anharmonic",
    "solve_kernel_at_hbar",
    "solve_kernel_general",
    "solve_kernel_harmonic",
    "solve_kernel_linear",
    "solve_kernel_ungraded",
    "toa_iterate_closed",
    "toa_iterate_liouville",
    "toa_quadrature",
    "weyl_quantize",
    "wigner_transform",
]
