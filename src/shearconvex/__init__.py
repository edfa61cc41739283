"""Harmonic shears on the unit disk with numerical convexity verdicts."""

import ctypes

# glibc's mallopt parameters (malloc.h) and the values fixed at import: with
# fixed thresholds, the scratch arrays of a refinement round (up to 32 MiB)
# come from the heap, and up to 128 MiB of free heap top is kept, instead of
# handing them back to the OS and faulting them in again the next round.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


def _fix_malloc_thresholds() -> None:
    """Set both thresholds process-wide; nothing where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_fix_malloc_thresholds()

from .functions import (AnalyticFunction, BlaschkeOmega, CatalogId,
                        MonomialOmega, SchwarzFunction, ZeroOmega, catalog,
                        make_schwarz, rotate_analytic)
from .quadrature import ToleranceNotMet, antiderivative_many
from .shear import (HarmonicMap, ShearSystem, analytic_combination,
                    harmonic_from_analytic, shear_construct)
from .geometry import (BoundaryCurve, ConvexityReport, DirectionalReport,
                       convexity_check_resolved, directional_convexity_check,
                       parabola_residual, sample_boundary)
from .boundary_rotation import (RotationValue, boundary_rotation_value,
                                brannan_transform, vk_membership)
from .probe import (FailureWitness, ProbeConfig, ProbeReport, RegionId,
                    halfplane_strip_identifier, midpoint_certificate,
                    probe_admissibility)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction", "BlaschkeOmega", "BoundaryCurve", "CatalogId",
    "ConvexityReport", "DirectionalReport", "FailureWitness", "HarmonicMap",
    "MonomialOmega", "ProbeConfig", "ProbeReport",
    "RegionId", "RotationValue", "SchwarzFunction", "ShearSystem",
    "ToleranceNotMet", "ZeroOmega", "analytic_combination",
    "antiderivative_many", "boundary_rotation_value", "brannan_transform",
    "catalog", "convexity_check_resolved",
    "directional_convexity_check", "halfplane_strip_identifier",
    "harmonic_from_analytic", "make_schwarz", "midpoint_certificate",
    "parabola_residual", "probe_admissibility", "rotate_analytic",
    "sample_boundary", "shear_construct", "vk_membership",
]
