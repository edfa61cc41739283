"""References for the package's quadrature and for its winding curves.

The package integrates along radii, in batches, with panels graded
geometrically toward the endpoint, and along the short chords between
neighbouring circle samples (``shearconvex.quadrature``).  The scalar route
here integrates one straight segment at a time with Gauss-Legendre panels
and adaptive bisection, the error estimated from the whole-panel vs.
split-panel difference, and shares no code with the package's, so agreement
between the two is evidence for both.  It uses the package's ABS_TOL and
panel order, keeps its own REL_TOL for the tolerance it hands each half,
and raises the package's ``ToleranceNotMet`` when bisection stalls.

``RadialWindingCurves`` is the package's winding-curve builder with every
sample placed by its own radial quadrature (it overrides ``_positions``
only), the reference for the package's chained positions;
:func:`discrete_winding` is a plain winding sum with none of the package's
refinement, the reference for its trusted winding;
:func:`full_round_winding` is the package's batched winding with every step
judged afresh in every round, the reference for its incremental rounds; and
:func:`witness_queries` lists every batch a witness search could put to
either judge of "is m in f(D_r)?".

:func:`turning_rate` is the closed-form turning rate of a level curve, the
reference for the package's sampled turning verdicts;
:func:`convexity_check` is that verdict of a curve exactly as sampled, with
none of the package's refinement; and :func:`full_increment_check` is the
package's refined verdict with every step's width and turning increment
recomputed over the whole curve in every round, the reference for its
incremental rounds.

:func:`boundary_rotation_value` is the package's boundary-rotation value
with r e^{i theta} built afresh from ``np.linspace`` on every call, the
reference for the shared circle table it reads instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from shearconvex.boundary_rotation import RotationValue, _angle_count
from shearconvex.functions import AnalyticFunction
from shearconvex.geometry import (MAX_TRUSTED_STEP, NON_CONVEX_BACKTURN, REFINE_MAX_ROUNDS,
                                  REFINE_SAMPLES_MAX, TURNING_SAMPLES, BoundaryCurve,
                                  ConvexityReport, _tangents, convexity_check_resolved,
                                  sample_boundary, turning_increments, verdict_from_increments)
from shearconvex.probe import (_WindingCurves, _candidate_midpoints, _extension_radii,
                               _window_anchors)
from shearconvex.quadrature import ABS_TOL, MAX_DEPTH, ORDER, ToleranceNotMet
from shearconvex.shear import HarmonicMap

REL_TOL = 1e-14                 # relative floor of the recursive halving of tol
_FLOAT_FLOOR = 1024 * np.finfo(float).eps
MAX_TRUSTED_ARG_STEP = 1.8      # rad subtended at the query point per curve step
_X, _W = np.polynomial.legendre.leggauss(ORDER)


def _panel(fprime, z0, z1):
    mid, half = (z0 + z1) / 2.0, (z1 - z0) / 2.0
    return half * np.sum(_W * fprime(mid + half * _X))


def _require_in_disk(z, what: str):
    if abs(z) >= 1.0:
        raise ValueError(f"{what} must lie in the open unit disk, got |z| = {abs(z)!r}")


def integrate_segment(fprime: Callable, z0: complex, z1: complex,
                      max_subdivisions: int = MAX_DEPTH) -> complex:
    """Integrate fprime over the straight segment [z0, z1].

    The segment must stay inside the open disk; since |.| is convex it
    suffices that both endpoints do.
    """
    z0, z1 = complex(z0), complex(z1)
    _require_in_disk(z0, "segment start")
    _require_in_disk(z1, "segment end")
    if z0 == z1:
        return 0.0 + 0.0j

    def recurse(a, b, whole, tol, depth):
        m = (a + b) / 2.0
        left = _panel(fprime, a, m)
        right = _panel(fprime, m, b)
        better = left + right
        err = abs(better - whole)
        if err <= max(tol, _FLOAT_FLOOR * abs(better)):
            return better
        if depth >= max_subdivisions:
            raise ToleranceNotMet(
                f"segment quadrature stalled at depth {depth} (err ~ {err:.3e})")
        half_tol = max(tol / 2.0, REL_TOL * abs(better) / 2.0)
        return (recurse(a, m, left, half_tol, depth + 1)
                + recurse(m, b, right, half_tol, depth + 1))

    whole = _panel(fprime, z0, z1)
    return recurse(z0, z1, whole, ABS_TOL, 0)


def antiderivative(fprime: Callable, z: complex) -> complex:
    """F(z) with F(0) = 0 via the radial segment [0, z]."""
    if z == 0:
        return 0.0 + 0.0j
    return integrate_segment(fprime, 0.0, z)


def discrete_winding(gamma, w: complex) -> int:
    """Winding of the closed polyline ``gamma`` around w: the principal
    angles subtended at w by its steps, summed, in whole turns."""
    d = np.asarray(gamma, dtype=complex) - complex(w)
    return int(round(float(np.angle(np.roll(d, -1) / d).sum()) / (2.0 * np.pi)))


def convexity_check(curve: BoundaryCurve) -> ConvexityReport:
    """The turning verdict of ``curve`` at its own samples, refining nothing."""
    return verdict_from_increments(turning_increments(curve.tangent), curve.theta)


def full_increment_check(f: HarmonicMap, r: float, splits=None):
    """``convexity_check_resolved(f, r)`` with every step's width and turning
    increment recomputed over the whole curve in every round, and the same
    splits.  Each round's (curve size, indices of the split steps) is appended
    to ``splits`` if given."""
    base = sample_boundary(f, r, TURNING_SAMPLES)
    theta, tangent = base.theta, base.tangent
    inc = turning_increments(tangent)
    for _ in range(REFINE_MAX_ROUNDS):
        first = np.flatnonzero(np.abs(inc) > MAX_TRUSTED_STEP)
        if not first.size or theta.size + 7 * first.size > REFINE_SAMPLES_MAX:
            break
        if splits is not None:
            splits.append((theta.size, first))
        widths = (np.roll(theta, -1) - theta) % (2.0 * np.pi)
        parts = theta[first, None] + widths[first, None] * (np.arange(8) / 8.0)[None, :]
        new = _tangents(f, r * np.exp(1j * parts[:, 1:]))
        at = np.repeat(first + 1, 7)
        theta = np.insert(theta, at, parts[:, 1:].ravel())
        tangent = np.insert(tangent, at, new.ravel())
        inc = turning_increments(tangent)
    return BoundaryCurve(f, r, theta, tangent), verdict_from_increments(inc, theta)


def turning_rate(f: HarmonicMap, r: float, theta) -> np.ndarray:
    """d/dtheta arg of the tangent of theta -> f(r e^{i theta}), in closed form:

        kappa = Re[(z h' + z^2 h'' + conj(z g' + z^2 g'')) / (z h' - conj(z g'))]

    from the datum's stacked (h', g') and (h'', g'') pairs; no quadrature.
    """
    z = r * np.exp(1j * np.asarray(theta, dtype=float))
    (h1, g1), (h2, g2) = f.shear.d1_pair(z), f.shear.d2_pair(z)
    num = z * h1 + z * z * h2 + np.conj(z * g1 + z * z * g2)
    return (num / (z * h1 - np.conj(z * g1))).real


def full_round_winding(curves: _WindingCurves, points, r: float, sums=None) -> list:
    """``curves.winding(points, r)`` with each round judging every step of
    the curve for every unsettled point, and the same refinements.  Each
    settled point's argument sum, in turns, is appended to ``sums`` if given,
    in the order the points settle."""
    m = np.array(points, dtype=complex).reshape(-1)
    out = [None] * m.size
    live = np.arange(m.size)
    theta, gamma, _ = curves._base(r)
    for _ in range(REFINE_MAX_ROUNDS):
        chord = np.abs(np.roll(gamma, -1) - gamma)
        d = gamma[None, :] - m[live, None]
        dist = np.abs(d)
        off = dist.min(axis=1) >= 1e-9 * (1.0 + np.abs(m[live]))
        live, d, dist = live[off], d[off], dist[off]
        darg = np.angle(np.roll(d, -1, axis=1) / d)
        bad = (np.abs(darg) > MAX_TRUSTED_ARG_STEP) \
            | (chord > 0.5 * np.minimum(dist, np.roll(dist, -1, axis=1)))
        settled = ~bad.any(axis=1)
        for i, turns in zip(live[settled], darg[settled].sum(axis=1) / (2.0 * np.pi)):
            if sums is not None:
                sums.append(float(turns))
            w = int(round(float(turns)))
            out[i] = w if w in (0, 1) else None
        live, bad = live[~settled], bad[~settled]
        if not live.size:
            break
        union = bad.any(axis=0)
        if theta.size + 7 * int(union.sum()) > REFINE_SAMPLES_MAX:
            break
        theta, gamma = curves._refine(r, theta, np.flatnonzero(union))
    return out


class RadialWindingCurves(_WindingCurves):
    """``_WindingCurves`` with every sample placed by its own radial quadrature.

    The package chains circle samples along chords from radial anchors; this
    builder gives each base and refined sample ``HarmonicMap.parts`` at that
    point, and shares the package's grid, refinement and winding routine, so
    a parity test compares positions only.
    """

    def _positions(self, r: float, theta, start=None):
        return np.stack(self.f.parts(r * np.exp(1j * np.asarray(theta))))


def witness_queries(f: HarmonicMap, ladder) -> list:
    """Every (candidates, radius) batch of a witness search of f on the
    ladder, with no early exit: all candidates of each suspicious ladder
    radius, as one batch at every larger ladder radius and at both extension
    radii."""
    reports = {r: convexity_check_resolved(f, r)[1] for r in ladder}
    queries = []
    for r_anchor in reversed([r for r in ladder
                              if reports[r].worst_backturn > NON_CONVEX_BACKTURN]):
        higher = sorted(tuple(r for r in ladder if r > r_anchor)
                        + _extension_radii(ladder[-1]), reverse=True)
        batch = list(_candidate_midpoints(f, r_anchor, _window_anchors(reports[r_anchor])))
        queries.extend((batch, r) for r in higher)
    return queries


def boundary_rotation_value(phi: AnalyticFunction, r: float) -> RotationValue:
    """The package's value at its own angle count, from angles and points of
    its own: (2/n) * sum of |Re(1 + z phi''/phi')| over z = r exp(i theta)."""
    n = _angle_count(r)
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    z = r * np.exp(1j * theta)
    d1, d2 = phi.d1(z), phi.d2(z)
    return RotationValue(r, float(2.0 * np.abs((1.0 + z * d2 / d1).real).mean()), n)
