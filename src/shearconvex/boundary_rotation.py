"""Boundary-rotation functional and the Brannan derivative transform.

The functional is (1/pi) * integral over |z| = r of |Re(1 + z phi''/phi')|;
membership in the bounded-boundary-rotation class V_k means the value stays
<= k on every radius.  V_2 is exactly the convex maps: there the integrand is
positive and the circle mean of the harmonic function Re(1 + z phi''/phi')
is its center value 1, forcing the value 2.

Trapezoid sums on uniform angles are spectrally accurate but alias the
Fourier tail: with n points the error behaves like 4 r^n, so n grows with r
(32768 points at r = 0.999 bring the alias below 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .functions import AnalyticFunction, require_unimodular
from .shear import antiderivative_function
from .specs import DEFAULT_RADII

MIN_ANGLE_SAMPLES = 8192
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
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    z = r * np.exp(1j * theta)
    d1, d2 = phi.d1(z), phi.d2(z)      # the value channel may be quadrature: never read it
    if np.abs(d1).min() < 1e-12:
        raise ValueError(f"phi' vanishes on |z| = {r}; boundary rotation undefined")
    integrand = np.abs((1.0 + z * d2 / d1).real)
    return RotationValue(r, float(2.0 * integrand.mean()), n)


def brannan_transform(phi: AnalyticFunction, lam: complex, n_power: int) -> AnalyticFunction:
    """psi with psi' = phi' (1 - lam z^N)/(1 + lam z^N), psi(0) = 0.

    For phi in V_k the transform lands in V_{k+2N}; with phi = H, lam = -1,
    N = 1 the factor is (1+z)/(1-z) and psi is the Koebe function.
    """
    lam = require_unimodular(lam, "lambda")
    N = int(n_power)
    if N < 1:
        raise ValueError("N must be a positive integer")
    phi_d1, phi_d2 = phi.d1_fn, phi.d2_fn

    def d1(z):
        u = lam * z ** N
        return phi_d1(z) * (1.0 - u) / (1.0 + u)

    def d2(z):
        u = lam * z ** N
        rho = (1.0 - u) / (1.0 + u)
        rho1 = -2.0 * lam * N * z ** (N - 1) / (1.0 + u) ** 2
        return phi_d2(z) * rho + phi_d1(z) * rho1

    label = f"brannan({phi.label},lam={lam.real!r}{lam.imag:+}j,N={N})"
    return antiderivative_function(label, d1, d2)


def vk_membership(phi: AnalyticFunction, k: float,
                  radii: Sequence[float] = DEFAULT_RADII) -> Tuple[bool, float, list]:
    """Ladder approximation of the sup over r < 1; verdict carries the ladder."""
    values = [boundary_rotation_value(phi, r) for r in radii]
    worst = max(v.value_over_pi for v in values)
    return worst <= k + VK_TOL, worst, values
