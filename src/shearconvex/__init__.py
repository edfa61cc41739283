"""Harmonic shears on the unit disk with numerical convexity verdicts."""

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
