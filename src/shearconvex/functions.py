"""Evaluable analytic functions on the unit disk and Schwarz dilatations.

An :class:`AnalyticFunction` carries three evaluation channels (value, first
and second derivative), each vectorized over complex ndarrays.  Keeping the
channels separate matters: shear antiderivatives back the value channel with
quadrature, while tangent and curvature work downstream reads only the
derivative channels and must stay quadrature-free.

The catalog holds the maps used throughout the convexity suites, with exact
closed-form derivatives:

    H(z)        = z/(1-z)                         half-plane Re w > -1/2
    H_-1(z)     = z/(1+z)                         half-plane Re w < 1/2
    L_lam(z)    = log((1-conj(lam) z)/(1-lam z)) / (2i Im lam)   strip map
    koebe(z)    = z/(1-z)^2                       plane minus slit (-inf,-1/4]
    f0h, f0g    = (2z-z^2)/(2(1-z)^2), z^2/(2(1-z)^2)

The rotated half-plane map z/(1-cz) = conj(c) H(cz) is no separate entry:
it is :func:`rotate_analytic` of H by c (spec ``H@rot:re=..,im=..``).

Each entry also carries the poles of phi' on the unit circle, a catalog fact;
the Mobius entries (H, H_-1 and the identity, phi(z) = z/(1 - xi z) with
xi = 1, -1 and 0) carry that xi, and ``L_lam`` carries lam.

``L_lam`` uses the principal logarithm; its argument is a Mobius map of the
disk into a half-plane whose boundary line passes through 0 and whose
interior contains 1, so the branch cut is never crossed.

Schwarz functions (analytic, fixing 0, mapping the disk into itself) come in
three shapes: the zero function, monomials ``lam * z^N``, and scaled
Blaschke-type products ``c * e^{i gamma} * z * prod (a_k - z)/(1 - conj(a_k) z)``.
The leading ``z`` factor pins the origin; every factor has modulus < 1 on the
open disk, so the product is structurally a Schwarz function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

UNIMODULAR_SLACK = 1e-9      # accepted deviation of |w| from 1 before rejection
LAMBDA_EXCLUSION = 1e-9      # L_lam rejects lam within this radius of +-1
BLASCHKE_ZERO_CAP = 0.95     # keeps evaluation conditioned near |z| = 0.999


def require_unimodular(w: complex, name: str = "parameter") -> complex:
    """Renormalize w to exact modulus 1; reject beyond the slack window."""
    w = complex(w)
    m = abs(w)
    if not abs(m - 1.0) <= UNIMODULAR_SLACK:       # NaN fails too
        raise ValueError(f"{name} must be unimodular, got |{name}| = {m!r}")
    return w / m


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class AnalyticFunction:
    """Analytic map on the unit disk with first and second derivatives, the
    poles of its derivative on the unit circle where they are known, xi
    when it is the Mobius map z/(1 - xi z) with |xi| in {0, 1}, and lam when
    it is the strip map L_lam itself (not a rotation of it)."""

    label: str
    value_fn: Callable = field(repr=False)
    d1_fn: Callable = field(repr=False)
    d2_fn: Callable = field(repr=False)
    poles: Tuple[complex, ...] = ()
    mobius: Optional[complex] = None
    strip: Optional[complex] = None

    def eval(self, z) -> Tuple:
        return self.value_fn(z), self.d1_fn(z), self.d2_fn(z)

    def value(self, z):
        return self.value_fn(z)

    def d1(self, z):
        return self.d1_fn(z)

    def d2(self, z):
        return self.d2_fn(z)


def _l_lambda(lam: complex):
    """The catalog entry of L_lam: its text, the poles lam and conj(lam), its channels."""
    lamc = np.conj(lam)
    pref = 1.0 / (2j * lam.imag)
    return (f"Llambda:re={_fmt(lam.real)},im={_fmt(lam.imag)}",
            (lam, lam.conjugate()),
            ((lambda z: pref * np.log((1.0 - lamc * z) / (1.0 - lam * z))),
             (lambda z: 1.0 / ((1.0 - lam * z) * (1.0 - lamc * z))),
             (lambda z: (2.0 * lam.real - 2.0 * z)
              / ((1.0 - lam * z) * (1.0 - lamc * z)) ** 2)))


# kind -> (text, poles of phi' on the unit circle, (value, d1, d2)); the
# L_LAMBDA entry is built from its parameter by ``_l_lambda``
_CATALOG = {
    "H": ("H", (1 + 0j,),
          (lambda z: z / (1.0 - z),
           lambda z: 1.0 / (1.0 - z) ** 2,
           lambda z: 2.0 / (1.0 - z) ** 3)),
    "H_ROT_MINUS1": ("H-1", (-1 + 0j,),
                     (lambda z: z / (1.0 + z),
                      lambda z: 1.0 / (1.0 + z) ** 2,
                      lambda z: -2.0 / (1.0 + z) ** 3)),
    "L_LAMBDA": _l_lambda,
    "KOEBE": ("koebe", (1 + 0j,),
              (lambda z: z / (1.0 - z) ** 2,
               lambda z: (1.0 + z) / (1.0 - z) ** 3,
               lambda z: (4.0 + 2.0 * z) / (1.0 - z) ** 4)),
    "IDENTITY": ("identity", (),
                 (lambda z: z + 0j,
                  lambda z: 1.0 + z * 0,
                  lambda z: z * 0)),
    "F0_H_PART": ("f0h", (1 + 0j,),
                  (lambda z: (2.0 * z - z ** 2) / (2.0 * (1.0 - z) ** 2),
                   lambda z: 1.0 / (1.0 - z) ** 3,
                   lambda z: 3.0 / (1.0 - z) ** 4)),
    "F0_G_PART": ("f0g", (1 + 0j,),
                  (lambda z: z ** 2 / (2.0 * (1.0 - z) ** 2),
                   lambda z: z / (1.0 - z) ** 3,
                   lambda z: (1.0 + 2.0 * z) / (1.0 - z) ** 4)),
}


# kind -> xi of the entries that are z/(1 - xi z)
_MOBIUS = {"H": 1 + 0j, "H_ROT_MINUS1": -1 + 0j, "IDENTITY": 0j}


@dataclass(frozen=True)
class CatalogId:
    """Identifier of a catalog entry; `param` is lam for L_LAMBDA."""

    kind: str
    param: complex | None = None

    KINDS = tuple(_CATALOG)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown catalog kind {self.kind!r}")
        if self.kind == "L_LAMBDA":
            if self.param is None:
                raise ValueError(f"{self.kind} requires a unimodular parameter")
            p = require_unimodular(self.param, "lambda")
            if min(abs(p - 1.0), abs(p + 1.0)) < LAMBDA_EXCLUSION:
                raise ValueError("L_LAMBDA requires lambda away from {-1, 1}")
            object.__setattr__(self, "param", p)
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    @property
    def entry(self) -> tuple:
        e = _CATALOG[self.kind]
        return e(self.param) if callable(e) else e

    @property
    def text(self) -> str:
        return self.entry[0]


def catalog(cid: CatalogId) -> AnalyticFunction:
    """Build the catalog entry ``cid``."""
    text, poles, channels = cid.entry
    return AnalyticFunction(text, *channels, poles=poles, mobius=_MOBIUS.get(cid.kind),
                            strip=cid.param)


def rotate_analytic(phi: AnalyticFunction, xi: complex) -> AnalyticFunction:
    """Rotation phi_xi(z) = conj(xi) * phi(xi z); preserves S-normalization.

    Chain rule gives d1 -> phi'(xi z) (the conj(xi)*xi factors cancel) and
    d2 -> xi * phi''(xi z); a pole p of phi' becomes one at conj(xi) p, and
    z/(1 - c z) becomes z/(1 - c xi z).  lam is dropped: conj(xi) L_lam(xi z)
    is no L_lam unless xi = +-1.
    """
    xi = require_unimodular(xi, "xi")
    xib = np.conj(xi)
    v, d1, d2 = phi.value_fn, phi.d1_fn, phi.d2_fn
    return AnalyticFunction(
        f"rot({phi.label},xi={_fmt(xi.real)}{xi.imag:+}j)",
        lambda z: xib * v(xi * z),
        lambda z: d1(xi * z),
        lambda z: xi * d2(xi * z),
        poles=tuple(complex(xib * p) for p in phi.poles),
        mobius=None if phi.mobius is None else phi.mobius * xi)


# ---------------------------------------------------------------------------
# Schwarz functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroOmega:
    @property
    def text(self) -> str:
        return "zero"


@dataclass(frozen=True)
class MonomialOmega:
    lam: complex
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lam", require_unimodular(self.lam, "lambda"))
        if int(self.n) < 1:
            raise ValueError("monomial degree N must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    @property
    def text(self) -> str:
        return f"monomial:lam_re={_fmt(self.lam.real)},lam_im={_fmt(self.lam.imag)},N={self.n}"


@dataclass(frozen=True)
class BlaschkeOmega:
    """Origin-pinned scaled Blaschke product: c e^{i gamma} z prod (a_k - z)/(1 - conj(a_k) z)."""

    zeros: tuple
    phase: float = 0.0
    scale: complex = 1.0

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        # written as "not <= cap" so that NaN fails every check
        for a in zs:
            if not abs(a) <= BLASCHKE_ZERO_CAP:
                raise ValueError(f"Blaschke zero |a| = {abs(a)!r} exceeds cap {BLASCHKE_ZERO_CAP}")
        if not abs(complex(self.scale)) <= 1.0 + 1e-12:
            raise ValueError("Blaschke scale must satisfy |c| <= 1")
        if not np.isfinite(float(self.phase)):
            raise ValueError(f"Blaschke phase must be finite, got {self.phase!r}")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "phase", float(self.phase))
        object.__setattr__(self, "scale", complex(self.scale))

    @property
    def text(self) -> str:
        zs = ";".join(f"{_fmt(a.real)}{a.imag:+}j" for a in self.zeros)
        return (f"blaschke-explicit:zeros={zs},phase={_fmt(self.phase)},"
                f"scale_re={_fmt(self.scale.real)},scale_im={_fmt(self.scale.imag)}")


OmegaSpec = Union[ZeroOmega, MonomialOmega, BlaschkeOmega]


@dataclass(frozen=True)
class SchwarzFunction:
    """Analytic omega with omega(0) = 0 and |omega| < 1 on the disk."""

    spec: OmegaSpec
    value_fn: Callable = field(repr=False)
    d1_fn: Callable = field(repr=False)

    def value(self, z):
        return self.value_fn(z)

    def d1(self, z):
        return self.d1_fn(z)


def _blaschke_channels(spec: BlaschkeOmega):
    s = spec.scale * np.exp(1j * spec.phase)
    zeros = spec.zeros

    def value(z):
        B = 1.0 + z * 0
        for a in zeros:
            B = B * (a - z) / (1.0 - np.conj(a) * z)
        return s * z * B

    def d1(z):
        # forward mode: (B, B') carried through each factor (a - z)/den,
        # whose derivative collapses to (|a|^2 - 1)/den^2
        B, Bp = 1.0 + z * 0, z * 0
        for a in zeros:
            den = 1.0 - np.conj(a) * z
            fac = (a - z) / den
            B, Bp = B * fac, Bp * fac + B * ((abs(a) ** 2 - 1.0) / den ** 2)
        return s * (B + z * Bp)

    return value, d1


def make_schwarz(spec: OmegaSpec) -> SchwarzFunction:
    if isinstance(spec, ZeroOmega):
        return SchwarzFunction(spec, lambda z: z * 0, lambda z: z * 0)
    if isinstance(spec, MonomialOmega):
        lam, n = spec.lam, spec.n
        if n == 1:
            return SchwarzFunction(spec, lambda z: lam * z, lambda z: lam + z * 0)
        return SchwarzFunction(spec,
                               lambda z: lam * z ** n,
                               lambda z: lam * n * z ** (n - 1))
    if isinstance(spec, BlaschkeOmega):
        return SchwarzFunction(spec, *_blaschke_channels(spec))
    raise ValueError(f"unknown Schwarz spec {spec!r}")
