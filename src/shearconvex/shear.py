"""Shear construction: solve h - eta*g = phi, g'/h' = omega, h(0) = g(0) = 0.

Eliminating g' gives h' = phi' / (1 - eta*omega); the denominator never
vanishes on the disk because |eta*omega| < 1 there.  Values of h are radial
antiderivatives of h' (h is phi itself when omega is zero), and g follows
from the shear equation, g = conj(eta) (h - phi), with phi in closed form,
so a shear integrates h alone.  First and second derivatives are
closed-form:

    h'' = (phi''*(1 - eta*omega) + eta*omega'*phi') / (1 - eta*omega)^2
    g'  = omega * h'
    g'' = omega' * h' + omega * h''

so boundary tangents downstream never touch quadrature.

h' and g' share phi' and omega, so tangents evaluate them as one stacked
pair, from one phi' and one omega per point.

Dense samples along a circle (the winding curves) get h by chaining h'
along chords between neighbouring samples from radial anchors
(:meth:`HarmonicMap.parts_on_circle`); every scattered point stays radial.

The rotation conj(xi) f(xi z) of the shear of (phi, omega, eta) is the shear
of (conj(xi) phi(xi z), xi^2 omega(xi z), eta conj(xi)^2), so a rotated map
is built as the shear of the rotated datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .functions import AnalyticFunction, SchwarzFunction, ZeroOmega, require_unimodular
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


@dataclass(frozen=True)
class HarmonicMap:
    """Harmonic f = h + conj(g) with analytic parts carrying derivatives.

    ``d1_pair``, when set, returns (h', g') stacked on a leading axis.
    ``shear``, when set, is the datum the map solves: g is then read from h
    as conj(eta) (h - phi), never integrated.
    """

    h: AnalyticFunction
    g: AnalyticFunction
    label: str = field(default="")
    d1_pair: Optional[Callable] = field(default=None, repr=False, compare=False)
    shear: Optional[ShearSystem] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", f"{self.h.label}+conj({self.g.label})")

    def parts(self, zs):
        """(h(zs), g(zs)); a shear integrates h alone and solves for g."""
        zs = np.asarray(zs, dtype=complex)
        h = self.h.value(zs)
        if self.shear is None:
            return h, self.g.value(zs)
        return h, _g_from_h(self.shear, zs, h)

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
        """(h, g) at r*e^{i theta}, stacked: ``(2,) + theta.shape``.

        A shear whose h is integrated chains h along each row of theta
        (ascending along its last axis), chord by chord
        (``chord_increments``), from radial anchors placed at: the row's
        first point, unless ``start`` gives h there, shaped (rows,); every
        ``CHAIN_STRIDE``-th point; the end of a step whose chord did not
        converge; and the end of a step larger than the position it reaches
        or falling below the power of two the position started in, so that
        a pole's excursion carries no absolute error into the smaller
        positions after it.  g is then solved from h.  Any other map, and a
        shear with zero omega, is evaluated point by point.
        """
        theta = np.asarray(theta, dtype=float)
        sh = self.shear
        if sh is None or isinstance(sh.omega.spec, ZeroOmega):
            return np.stack(self.parts(r * np.exp(1j * theta)))
        rows = theta.reshape(-1, theta.shape[-1])
        n, m = rows.shape
        width = min(CHAIN_STRIDE, m)
        nb = -(-m // width)
        if nb * width > m:          # pad with zero-length steps to whole blocks
            rows = np.concatenate([rows, np.repeat(rows[:, -1:], nb * width - m, axis=1)], axis=1)
        z = r * np.exp(1j * rows.reshape(n * nb, width))
        head = np.zeros(z.shape, dtype=bool)
        head[:, 0] = True
        vals = np.empty(z.shape, dtype=complex)
        radial = head.copy()
        if start is not None:
            radial[::nb, 0] = False
            vals[::nb, 0] = start
        if radial.any():
            vals[radial] = self.h.value(z[radial])
        incr, ok = chord_increments(self.h.d1_fn, z, vals[:, 0])
        h = np.cumsum(np.concatenate([vals[:, :1], incr], axis=1), axis=1)
        extra = np.zeros(z.shape, dtype=bool)
        size = np.abs(h)
        octave = np.floor(np.log2(np.maximum(size, 1.0)))
        extra[:, 1:] = (~ok | (np.abs(incr) > size[:, 1:])
                        | (octave[:, 1:] < octave[:, :-1]))
        if extra.any():
            vals[extra] = self.h.value(z[extra])
            anchor = head | extra
            h = _chain(incr, anchor, vals[anchor])
        z, h = (a.reshape(n, nb * width)[:, :m].reshape(theta.shape) for a in (z, h))
        return np.stack([h, _g_from_h(sh, z, h)])


def _g_from_h(sys: ShearSystem, zs, h):
    """g = conj(eta) (h - phi) at zs, from h there and phi's closed form."""
    return np.conj(sys.eta) * (h - sys.phi.value(zs))


def _chain(incr, anchor, vals) -> np.ndarray:
    """Running sums of ``incr`` (rows, m - 1) along each row, restarted from
    ``vals`` (anchors,) at every True of ``anchor`` (rows, m), whose first
    column is all True; each segment is summed from its own anchor."""
    steps = np.empty(anchor.shape, dtype=complex)
    steps[:, 1:] = incr
    steps[anchor] = vals
    steps = steps.ravel()
    starts = np.flatnonzero(anchor)
    lengths = np.diff(np.append(starts, anchor.size))
    cols = np.arange(lengths.max())
    valid = cols < lengths[:, None]
    idx = (starts[:, None] + cols)[valid]
    seg = np.zeros(valid.shape, dtype=complex)
    seg[valid] = steps[idx]
    out = np.empty_like(steps)
    out[idx] = np.cumsum(seg, axis=1)[valid]
    return out.reshape(anchor.shape)


def shear_construct(sys: ShearSystem) -> HarmonicMap:
    """Solve the shear system; the result lies in S_H^0 by construction.

    h is a radial quadrature of h' alone, or phi when omega is zero; g is
    solved from h (``HarmonicMap.parts``).
    """
    phi_d1, phi_d2 = sys.phi.d1_fn, sys.phi.d2_fn
    om_v, om_d1 = sys.omega.value_fn, sys.omega.d1_fn
    eta = sys.eta

    def hp(z):
        return phi_d1(z) / (1.0 - eta * om_v(z))

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

    def hpp(z):
        den = 1.0 - eta * om_v(z)
        return (phi_d2(z) * den + eta * om_d1(z) * phi_d1(z)) / den ** 2

    def gpp(z):
        return om_d1(z) * hp(z) + om_v(z) * hpp(z)

    h_value = sys.phi.value_fn if isinstance(sys.omega.spec, ZeroOmega) \
        else lambda z: antiderivative_many(hp, z)[()]
    h = AnalyticFunction(f"h[{sys.label}]", h_value, hp, hpp)
    g = AnalyticFunction(f"g[{sys.label}]", lambda z: _g_from_h(sys, z, h_value(z)),
                         lambda z: hgp(z)[1], gpp)
    return HarmonicMap(h, g, label=sys.label, d1_pair=hgp, shear=sys)


def harmonic_from_analytic(phi: AnalyticFunction) -> HarmonicMap:
    """Wrap an analytic function as the harmonic map h = phi, g = 0."""
    zero = AnalyticFunction("0", lambda z: z * 0, lambda z: z * 0, lambda z: z * 0)
    return HarmonicMap(phi, zero, label=phi.label)


def analytic_combination(f: HarmonicMap, t: float) -> AnalyticFunction:
    """The analytic function h - e^{2it} g used by the directional criterion.

    Values and first derivatives read h and g together (``parts`` and
    ``derivatives``), so a shear integrates h once per point and evaluates
    its (h', g') pair once.
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
