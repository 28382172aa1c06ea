"""Inequality and identity verifiers, plus the sharpness engine."""

from .grushin import (
    check_grushin_ibp_identity,
    fourier_defect_terms,
    verify_ab_hardy,
    verify_constant_field,
    verify_magnetic_grushin,
    verify_radial_hardy,
    verify_uncertainty_grushin,
)
from .landau import (
    check_twisted_polar_identity,
    verify_landau,
    verify_real_landau,
)
from .radial_p import verify_radial_p
from .sharpness import DEFAULT_SCHEDULE, FAMILY_FOR, estimate_sharpness

__all__ = [
    "check_grushin_ibp_identity",
    "check_twisted_polar_identity",
    "fourier_defect_terms",
    "verify_ab_hardy",
    "verify_constant_field",
    "verify_landau",
    "verify_magnetic_grushin",
    "verify_radial_hardy",
    "verify_radial_p",
    "verify_real_landau",
    "verify_uncertainty_grushin",
    "estimate_sharpness",
    "DEFAULT_SCHEDULE",
    "FAMILY_FOR",
]
