"""Shear construction: solve h - eta*g = phi, g'/h' = omega, h(0) = g(0) = 0.

Every harmonic map here is a shear.  An analytic phi is the shear of
(phi, 0, 1): with zero omega, h is phi itself and g is 0, in closed form,
and nothing is integrated (:func:`harmonic_from_analytic`).

Eliminating g' gives h' = phi' / (1 - eta*omega); the denominator never
vanishes on the disk because |eta*omega| < 1 there.  Values of h are radial
antiderivatives of h', and g follows from the shear equation,
g = conj(eta) (h - phi), with phi in closed form, so a shear integrates h
alone.  Derivatives are closed-form and come as two stacked pairs, each
from one evaluation of the data per point:

    (h', g')  = (phi', omega*phi') / (1 - eta*omega)        [phi', omega]
    h''       = (phi''*(1 - eta*omega) + eta*omega'*phi') / (1 - eta*omega)^2
    g''       = omega' * h' + omega * h''       [phi', phi'', omega, omega']

so boundary tangents and curvatures downstream never touch quadrature.

Dense samples along a circle (boundary and winding curves) get h by
chaining h' along chords between neighbouring samples from radial anchors
(:meth:`HarmonicMap.parts_on_circle`); every scattered point stays radial.

Rotations act on the datum: the rotation conj(xi) f(xi z) of the shear of
(phi, omega, eta) is the shear of (conj(xi) phi(xi z), xi^2 omega(xi z),
eta conj(xi)^2), an identity that the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import (AnalyticFunction, MonomialOmega, SchwarzFunction, ZeroOmega,
                        make_schwarz, require_unimodular)
from .quadrature import antiderivative_many, chord_increments

S_NORMALIZATION_TOL = 1e-10
CHAIN_STRIDE = 128               # circle samples per radial anchor when chaining
POLE_MERGE_TOL = 1e-12           # rad; pole angles closer than this are one pole


@dataclass(frozen=True)
class ShearSystem:
    """Shear datum (phi, omega, eta) with eta = e^{2i theta} stored directly,
    and its closed-form derivatives: the quadrature integrand h' and the
    stacked pairs (h', g') and (h'', g'')."""

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
        return f"shear(phi={self.phi.label},omega={self.omega.spec.text},eta={e.real!r}{e.imag:+}j)"

    @property
    def analytic(self) -> bool:
        """Zero omega: the shear is phi itself, h = phi and g = 0."""
        return isinstance(self.omega.spec, ZeroOmega)

    @property
    def pole_angles(self) -> np.ndarray:
        """Angles in [0, 2 pi) of the poles of h' = phi'/(1 - eta*omega) on |z| = 1,
        ascending, each once: phi's catalog poles and, for omega = lam z^N, the
        N zeros of 1 - eta*omega (z^N = conj(eta lam)); a Blaschke omega's are
        not listed.  H@rot:xi with omega = -xi z has both poles at conj(xi)."""
        angles = [np.angle(np.asarray(self.phi.poles, dtype=complex))]
        om = self.omega.spec
        if isinstance(om, MonomialOmega):
            angles.append((2 * np.pi * np.arange(om.n) - np.angle(self.eta * om.lam)) / om.n)
        # the second mod folds a tiny negative angle, rounded up to 2 pi, to 0
        a = np.sort(np.concatenate(angles) % (2 * np.pi) % (2 * np.pi))
        return a[np.diff(a, prepend=a[-1:] - 2 * np.pi) > POLE_MERGE_TOL]

    def h_prime(self, z):
        """h' = phi'/(1 - eta*omega), the only quadrature integrand."""
        return self.phi.d1_fn(z) / (1.0 - self.eta * self.omega.value_fn(z))

    def d1_pair(self, z):
        """(h', g') stacked on a leading axis, from one phi' and one omega per point."""
        p1, om = self.phi.d1_fn(z), self.omega.value_fn(z)
        out = np.empty((2,) + np.shape(z), dtype=complex)
        h1, g1 = out[0, ...], out[1, ...]
        # den = 1 - eta*omega is parked in the h' row, so no temporaries are made
        np.subtract(1.0, np.multiply(self.eta, om, out=h1), out=h1)
        np.divide(np.multiply(om, p1, out=g1), h1, out=g1)
        np.divide(p1, h1, out=h1)
        return out

    def d2_pair(self, z):
        """(h'', g'') stacked, from one phi', phi'', omega and omega' per point."""
        eta, p1 = self.eta, self.phi.d1_fn(z)
        om, om1 = self.omega.value_fn(z), self.omega.d1_fn(z)
        den = 1.0 - eta * om
        h2 = (self.phi.d2_fn(z) * den + eta * om1 * p1) / den ** 2
        return np.stack([h2, om1 * (p1 / den) + om * h2])


@dataclass(frozen=True)
class HarmonicMap:
    """The shear f = h + conj(g) of the datum ``shear``.

    h and g carry value, first- and second-derivative channels.  h is
    integrated (phi itself for zero omega); g is solved from h, never
    integrated; the derivative channels read the datum's stacked pairs.
    """

    h: AnalyticFunction
    g: AnalyticFunction
    label: str
    shear: ShearSystem = field(repr=False, compare=False)

    def parts(self, zs):
        """(h(zs), g(zs)): h read once per point, g solved from it."""
        zs = np.asarray(zs, dtype=complex)
        h = self.h.value(zs)
        return h, _g_from_h(self.shear, zs, h)

    def map_points(self, zs) -> np.ndarray:
        """Vectorized image points f(zs)."""
        h, g = self.parts(zs)
        return h + np.conj(g)

    def derivatives(self, zs):
        """(h'(zs), g'(zs)) from one stacked pair; never touches quadrature."""
        return tuple(self.shear.d1_pair(zs))

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
        positions after it.  g is then solved from h.  A shear with zero
        omega is phi itself, read point by point.
        """
        theta = np.asarray(theta, dtype=float)
        sh = self.shear
        if sh.analytic:
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
    """g at zs from h there: conj(eta) (h - phi) with phi's closed form, or 0
    for zero omega, where h is phi."""
    if sys.analytic:
        return np.zeros_like(h)
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

    h is a radial quadrature of h' alone, or phi when omega is zero, and
    then the map carries phi's label; g is solved from h
    (``HarmonicMap.parts``).
    """
    if sys.analytic:
        label, h_value = sys.phi.label, sys.phi.value_fn
    else:
        label, h_value = sys.label, (lambda z: antiderivative_many(sys.h_prime, z)[()])
    h = AnalyticFunction(f"h[{label}]", h_value, sys.h_prime, lambda z: sys.d2_pair(z)[0])
    g = AnalyticFunction(f"g[{label}]", lambda z: _g_from_h(sys, z, h_value(z)),
                         lambda z: sys.d1_pair(z)[1], lambda z: sys.d2_pair(z)[1])
    return HarmonicMap(h, g, label, sys)


def harmonic_from_analytic(phi: AnalyticFunction) -> HarmonicMap:
    """phi as a harmonic map: the zero-omega shear of (phi, 0, 1), h = phi and
    g = 0; phi must be normalized, as every shear datum is."""
    return shear_construct(ShearSystem(phi, make_schwarz(ZeroOmega()), 1.0))


def analytic_combination(f: HarmonicMap, t: float) -> AnalyticFunction:
    """The analytic function h - e^{2it} g used by the directional criterion.

    Each channel reads h and g together: values through ``parts`` (h
    integrated once per point), derivatives through the datum's stacked
    pairs, so psi'' costs one phi', phi'', omega and omega' per point.
    """
    mu = np.exp(2j * float(t))

    def combine(pair):
        def channel(z):
            a, b = pair(z)
            return a - mu * b
        return channel

    return AnalyticFunction(f"comb({f.label},t={float(t)!r})", combine(f.parts),
                            combine(f.derivatives), combine(f.shear.d2_pair))
