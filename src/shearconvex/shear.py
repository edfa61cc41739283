"""Shear construction: solve h - eta*g = phi, g'/h' = omega, h(0) = g(0) = 0.

Eliminating g' gives h' = phi' / (1 - eta*omega); the denominator never
vanishes on the disk because |eta*omega| < 1 there.  Values of h and g are
recovered as radial antiderivatives; their first and second derivatives are
closed-form:

    h'' = (phi''*(1 - eta*omega) + eta*omega'*phi') / (1 - eta*omega)^2
    g'  = omega * h'
    g'' = omega' * h' + omega * h''

so boundary tangents downstream never touch quadrature.

h' and g' share phi' and omega, so a shear evaluates them as one stacked
pair: h and g share one quadrature, and tangents one evaluation of the pair.

Dense samples along a circle (the winding curves) get h and g by chaining
the pair along chords between neighbouring samples from radial anchors
(:meth:`HarmonicMap.parts_on_circle`); every scattered point stays radial.

The rotation conj(xi) f(xi z) of the shear of (phi, omega, eta) is the shear
of (conj(xi) phi(xi z), xi^2 omega(xi z), eta conj(xi)^2), so a rotated map
is built as the shear of the rotated datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .functions import AnalyticFunction, SchwarzFunction, require_unimodular
from .quadrature import antiderivative_many, chord_increments

S_NORMALIZATION_TOL = 1e-10
CHAIN_STRIDE = 128               # circle samples per radial anchor when chaining


@dataclass(frozen=True)
class ShearSystem:
    """Shear datum (phi, omega, eta) with eta = e^{2i theta} stored directly."""

    phi: AnalyticFunction
    omega: SchwarzFunction
    eta: complex

    def __post_init__(self):
        object.__setattr__(self, "eta", require_unimodular(self.eta, "eta"))
        v0, d10, _ = self.phi.eval(0.0 + 0.0j)
        if abs(v0) > S_NORMALIZATION_TOL or abs(d10 - 1.0) > S_NORMALIZATION_TOL:
            raise ValueError(
                f"phi (= {self.phi.label}) must satisfy phi(0) = 0, phi'(0) = 1")

    @property
    def label(self) -> str:
        e = self.eta
        return f"shear(phi={self.phi.label},omega={self.omega.label},eta={e.real!r}{e.imag:+}j)"


def antiderivative_function(label: str, d1_fn: Callable, d2_fn: Callable) -> AnalyticFunction:
    """AnalyticFunction whose value channel integrates d1_fn from the origin.

    Every value goes through the batched radial quadrature; a scalar z
    gives a scalar.
    """
    return AnalyticFunction(label, lambda z: antiderivative_many(d1_fn, z)[()], d1_fn, d2_fn)


@dataclass(frozen=True)
class HarmonicMap:
    """Harmonic f = h + conj(g) with analytic parts carrying derivatives.

    ``d1_pair``, when set, returns (h', g') stacked on a leading axis.
    """

    h: AnalyticFunction
    g: AnalyticFunction
    label: str = field(default="")
    d1_pair: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", f"{self.h.label}+conj({self.g.label})")

    def parts(self, zs):
        """(h(zs), g(zs)); with ``d1_pair`` set, from one stacked quadrature."""
        zs = np.asarray(zs, dtype=complex)
        if self.d1_pair is None:
            return self.h.value(zs), self.g.value(zs)
        return tuple(antiderivative_many(self.d1_pair, zs))

    def map_points(self, zs) -> np.ndarray:
        """Vectorized image points f(zs)."""
        h, g = self.parts(zs)
        return h + np.conj(g)

    def derivatives(self, zs):
        """(h'(zs), g'(zs)); never touches the quadrature-backed value channel."""
        if self.d1_pair is None:
            return self.h.d1(zs), self.g.d1(zs)
        return tuple(self.d1_pair(zs))

    def parts_on_circle(self, r: float, theta, start=None) -> np.ndarray:
        """(h, g) at r*e^{i theta}, stacked, chained along each row of theta.

        ``theta`` ascends along its last axis; each row is chained on its own,
        chord by chord (``chord_increments``), from radial anchors (``parts``)
        placed at: the row's first point, unless ``start`` gives (h, g) there,
        shaped (2, rows); every ``CHAIN_STRIDE``-th point; the end of a step
        whose chord did not converge; and the end of a step larger than the
        position it reaches or falling below the power of two the position
        started in, so that a pole's excursion carries no absolute error into
        the smaller positions after it.  Returns ``(2,) + theta.shape``.
        """
        theta = np.asarray(theta, dtype=float)
        rows = theta.reshape(-1, theta.shape[-1])
        n, m = rows.shape
        width = min(CHAIN_STRIDE, m)
        nb = -(-m // width)
        if nb * width > m:          # pad with zero-length steps to whole blocks
            rows = np.concatenate([rows, np.repeat(rows[:, -1:], nb * width - m, axis=1)], axis=1)
        z = r * np.exp(1j * rows.reshape(n * nb, width))
        head = np.zeros(z.shape, dtype=bool)
        head[:, 0] = True
        vals = np.empty((2,) + z.shape, dtype=complex)
        radial = head.copy()
        if start is not None:
            radial[::nb, 0] = False
            vals[:, ::nb, 0] = start
        if radial.any():
            vals[:, radial] = self.parts(z[radial])
        pair = self.d1_pair
        if pair is None:
            pair = lambda x: np.stack(self.derivatives(x))
        incr, ok = chord_increments(pair, z, vals[:, :, 0])
        out = np.cumsum(np.concatenate([vals[:, :, :1], incr], axis=-1), axis=-1)
        extra = np.zeros(z.shape, dtype=bool)
        size = np.abs(out).max(axis=0)
        octave = np.floor(np.log2(np.maximum(size, 1.0)))
        extra[:, 1:] = (~ok | (np.abs(incr).max(axis=0) > size[:, 1:])
                        | (octave[:, 1:] < octave[:, :-1]))
        if extra.any():
            vals[:, extra] = self.parts(z[extra])
            anchor = head | extra
            out = _chain(incr, anchor, vals[:, anchor])
        return out.reshape(2, n, nb * width)[:, :, :m].reshape((2,) + theta.shape)


def _chain(incr, anchor, vals) -> np.ndarray:
    """Running sums of ``incr`` (k, rows, m - 1) along each row, restarted from
    ``vals`` (k, anchors) at every True of ``anchor`` (rows, m), whose first
    column is all True; each segment is summed from its own anchor."""
    k = incr.shape[0]
    steps = np.empty((k,) + anchor.shape, dtype=complex)
    steps[:, :, 1:] = incr
    steps[:, anchor] = vals
    steps = steps.reshape(k, -1)
    starts = np.flatnonzero(anchor)
    lengths = np.diff(np.append(starts, anchor.size))
    cols = np.arange(lengths.max())
    valid = cols < lengths[:, None]
    idx = (starts[:, None] + cols)[valid]
    seg = np.zeros((k,) + valid.shape, dtype=complex)
    seg[:, valid] = steps[:, idx]
    out = np.empty_like(steps)
    out[:, idx] = np.cumsum(seg, axis=-1)[:, valid]
    return out.reshape((k,) + anchor.shape)


def shear_construct(sys: ShearSystem) -> HarmonicMap:
    """Solve the shear system; the result lies in S_H^0 by construction."""
    phi_d1, phi_d2 = sys.phi.d1_fn, sys.phi.d2_fn
    om_v, om_d1 = sys.omega.value_fn, sys.omega.d1_fn
    eta = sys.eta

    def hgp(z):
        # (phi'/den, omega*phi'/den), den = 1 - eta*omega, from one phi' and
        # one omega; den is parked in the h' row, so no temporaries are made
        p1, om = phi_d1(z), om_v(z)
        out = np.empty((2,) + np.shape(z), dtype=complex)
        h1, g1 = out[0, ...], out[1, ...]
        np.subtract(1.0, np.multiply(eta, om, out=h1), out=h1)
        np.divide(np.multiply(om, p1, out=g1), h1, out=g1)
        np.divide(p1, h1, out=h1)
        return out

    def hp(z):
        return hgp(z)[0]

    def hpp(z):
        den = 1.0 - eta * om_v(z)
        return (phi_d2(z) * den + eta * om_d1(z) * phi_d1(z)) / den ** 2

    def gpp(z):
        return om_d1(z) * hp(z) + om_v(z) * hpp(z)

    h = antiderivative_function(f"h[{sys.label}]", hp, hpp)
    g = antiderivative_function(f"g[{sys.label}]", lambda z: hgp(z)[1], gpp)
    return HarmonicMap(h, g, label=sys.label, d1_pair=hgp)


def harmonic_from_analytic(phi: AnalyticFunction) -> HarmonicMap:
    """Wrap an analytic function as the harmonic map h = phi, g = 0."""
    zero = AnalyticFunction("0", lambda z: z * 0, lambda z: z * 0, lambda z: z * 0)
    return HarmonicMap(phi, zero, label=phi.label)


def analytic_combination(f: HarmonicMap, t: float) -> AnalyticFunction:
    """The analytic function h - e^{2it} g used by the directional criterion.

    Values and first derivatives read h and g together (``parts`` and
    ``derivatives``), so a shear evaluates its (h', g') pair once per point.
    """
    mu = np.exp(2j * float(t))
    h, g = f.h, f.g

    def value(z):
        hz, gz = f.parts(z)
        return hz - mu * gz

    def d1(z):
        h1, g1 = f.derivatives(z)
        return h1 - mu * g1

    return AnalyticFunction(f"comb({f.label},t={float(t)!r})", value, d1,
                            lambda z: h.d2_fn(z) - mu * g.d2_fn(z))
