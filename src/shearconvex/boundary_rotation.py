"""Boundary-rotation functional and the Brannan derivative transform.

The functional is (1/pi) * integral over |z| = r of |Re(1 + z phi''/phi')|;
membership in the bounded-boundary-rotation class V_k means the value stays
<= k on every radius.  V_2 is exactly the convex maps: there the integrand is
positive and the circle mean of the harmonic function Re(1 + z phi''/phi')
is its center value 1, forcing the value 2.

Trapezoid sums on uniform angles are spectrally accurate but alias the
Fourier tail: with n points the error behaves like 4 r^n, so n grows with r
(32768 points at r = 0.999 bring the alias below 1e-9); a radius needing
more than ``MAX_ANGLE_SAMPLES`` (r > 0.999994) is refused, not allocated.
e^{i theta} comes from the turning checks' table (``geometry._circle``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from .functions import AnalyticFunction, MonomialOmega, make_schwarz
from .geometry import _circle
from .shear import ShearSystem, analytic_combination, shear_construct
from .specs import DEFAULT_RADII

MIN_ANGLE_SAMPLES = 8192
MAX_ANGLE_SAMPLES = 1 << 22     # about 64 MiB per complex array of angles
ALIAS_TARGET = 2.5e-10
VK_TOL = 1e-6                   # slack of the V_k membership verdict


def _angle_count(r: float) -> int:
    n = max(MIN_ANGLE_SAMPLES, int(np.ceil(np.log(4.0 / ALIAS_TARGET) / -np.log(r))))
    return 1 << int(np.ceil(np.log2(n)))


@dataclass(frozen=True)
class RotationValue:
    r: float
    value_over_pi: float
    n: int


def boundary_rotation_value(phi: AnalyticFunction, r: float) -> RotationValue:
    if not 0.0 < r < 1.0:
        raise ValueError("radius must satisfy 0 < r < 1")
    n = _angle_count(r)
    if n > MAX_ANGLE_SAMPLES:
        raise ValueError(f"radius r = {r!r} needs {n} angles, above the cap of "
                         f"{MAX_ANGLE_SAMPLES}; use a radius of at most 0.99999")
    z = r * _circle(n)[1]
    d1, d2 = phi.d1(z), phi.d2(z)      # the value channel may be quadrature: never read it
    if np.abs(d1).min() < 1e-12:
        raise ValueError(f"phi' vanishes on |z| = {r}; boundary rotation undefined")
    integrand = np.abs((1.0 + z * d2 / d1).real)
    return RotationValue(r, float(2.0 * integrand.mean()), n)


def brannan_transform(phi: AnalyticFunction, lam: complex, n_power: int) -> AnalyticFunction:
    """psi with psi' = phi' (1 - lam z^N)/(1 + lam z^N), psi(0) = 0.

    psi is h - g for the shear of (phi, lam z^N, eta = -1), whose h' is
    phi'/(1 + lam z^N) and g' = lam z^N h', so phi must be normalized.  For
    phi in V_k the transform lands in V_{k+2N}; with phi = H, lam = -1,
    N = 1 the factor is (1+z)/(1-z) and psi is the Koebe function.
    """
    omega = make_schwarz(MonomialOmega(lam, n_power))
    lam, N = omega.spec.lam, omega.spec.n
    psi = analytic_combination(shear_construct(ShearSystem(phi, omega, -1.0)), 0.0)
    return replace(psi, label=f"brannan({phi.label},lam={lam.real!r}{lam.imag:+}j,N={N})")


def vk_membership(phi: AnalyticFunction, k: float,
                  radii: Sequence[float] = DEFAULT_RADII) -> Tuple[bool, float, list]:
    """Ladder approximation of the sup over r < 1; verdict carries the ladder."""
    values = [boundary_rotation_value(phi, r) for r in radii]
    worst = max(v.value_over_pi for v in values)
    return worst <= k + VK_TOL, worst, values
