"""Boundary curves of harmonic maps and geometric convexity verdicts.

The image of |z| = r under f = h + conj(g) is sampled at uniform angles,
then refined in place where the turning aliases (:func:`split_steps`).
Tangents are exact:

    d/dtheta f(r e^{i theta}) = i z h'(z) - i conj(z g'(z)),   z = r e^{i theta}

and never require quadrature; only the positions gamma_j do, so they are
materialized lazily, through ``HarmonicMap.parts_on_circle`` as every
dense circle sample is.  The one winding number is in ``probe``, not here.

Convexity of the sampled curve is decided by monotone tangent turning: the
cyclic sequence of principal turning increments must stay >= -tol and sum to
2 pi.  The worst back-turn is the maximum drawdown of the cumulative turning
over the doubled increment sequence (windows straddling theta = 0 are caught
by the second lap; laps beyond one only lower the drawdown since each full
lap adds +2 pi).

A resolution guard protects all verdicts: once any single increment exceeds
``MAX_TRUSTED_STEP`` the tangent field may rotate by more than pi between
samples (angular aliasing near boundary singularities), and the verdict is
INCONCLUSIVE rather than a guess.  :func:`convexity_check_resolved` splits
such steps in place (:func:`split_steps`, the one curve refinement).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .shear import HarmonicMap

MAX_TRUSTED_STEP = 1.5          # rad; above this a step may alias (true step > pi)
TOTAL_TURNING_TOL = 1e-3        # accepted deviation of total turning from 2 pi
BACKTURN_TOL = 1e-6             # rad; back-turn budget of a CONVEX verdict
NON_CONVEX_BACKTURN = 10.0 * BACKTURN_TOL   # rad; a worse back-turn is NON_CONVEX
TURNING_SAMPLES = 4096          # uniform base samples of a resolved check
REFINE_MAX_ROUNDS = 24          # split rounds per refined curve or winding query
REFINE_SAMPLES_MAX = 131072     # a refinement round may not grow a curve past this
DIRECTION_DEADBAND = 1e-9       # flat-step threshold, fraction of the transverse range
PARABOLA_EXCLUDE = np.pi / 8    # rad around theta = 0 skipped by the residual
NEAR_BOUNDARY_RADIUS = 0.999


class BoundaryCurve:
    """Sampled image of |z| = r with exact tangents; positions are lazy."""

    def __init__(self, f: HarmonicMap, r: float, theta: np.ndarray, tangent: np.ndarray):
        self.f = f
        self.r = float(r)
        self.n = theta.size
        self.theta = theta
        self.tangent = tangent
        self.near_boundary = self.r >= NEAR_BOUNDARY_RADIUS
        self._gamma: Optional[np.ndarray] = None

    @property
    def gamma(self) -> np.ndarray:
        if self._gamma is None:
            h, g = self.f.parts_on_circle(self.r, self.theta)
            self._gamma = h + np.conj(g)
        return self._gamma


@lru_cache(maxsize=8)
def _unit_circle(n: int):
    """Read-only (theta, e^{i theta}) at n uniform angles, shared by every curve."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    u = np.exp(1j * theta)
    theta.flags.writeable = u.flags.writeable = False
    return theta, u


def _circle(n: int):
    """``_unit_circle(n)`` for curves and boundary-rotation values, built for this
    call alone past REFINE_SAMPLES_MAX angles: at most 8 tables of 3 MiB stay."""
    return (_unit_circle if n <= REFINE_SAMPLES_MAX else _unit_circle.__wrapped__)(n)


def sample_boundary(f: HarmonicMap, r: float, n: int) -> BoundaryCurve:
    if not 0.0 < r < 1.0:
        raise ValueError("radius must satisfy 0 < r < 1")
    if n < 64:
        raise ValueError("need at least 64 samples")
    theta, u = _circle(int(n))
    return BoundaryCurve(f, r, theta, _tangents(f, r * u))


def _tangents(f: HarmonicMap, z: np.ndarray) -> np.ndarray:
    h1, g1 = f.derivatives(z)
    return 1j * z * h1 - 1j * np.conj(z * g1)


def split_steps(theta: np.ndarray, values: np.ndarray, first: np.ndarray, evaluate):
    """Split the steps that start at the indices ``first`` into 8 equal parts;
    ``evaluate`` gives values (last axis) at the parts' (first.size, 8) angles,
    each row from its step's first sample on.  Returns theta and values in curve
    order.  Only the split steps' widths are computed (the last step wraps to 0)."""
    widths = (theta[(first + 1) % theta.size] - theta[first]) % (2.0 * np.pi)
    steps = theta[first, None] + widths[:, None] * (np.arange(8) / 8.0)[None, :]
    new = evaluate(steps)[..., 1:]
    at = np.repeat(first + 1, 7)
    return (np.insert(theta, at, steps[:, 1:].ravel()),
            np.insert(values, at, new.reshape(new.shape[:-2] + (-1,)), axis=-1))


@dataclass(frozen=True)
class ConvexityReport:
    verdict: str                       # CONVEX | NON_CONVEX | INCONCLUSIVE
    total_turning: float
    worst_backturn: float
    witness: Optional[Tuple[float, float]]   # theta window of the worst reversal
    max_step: float                    # resolution diagnostic
    n: int
    worst_step_theta: Optional[float] = None  # theta of the sharpest reversal


def turning_increments(tangent: np.ndarray) -> np.ndarray:
    """Principal turning angles between consecutive tangents, cyclically."""
    return np.angle(np.roll(tangent, -1) / tangent)


def _drawdown(inc: np.ndarray):
    psi = np.cumsum(np.concatenate([inc, inc]))
    runmax = np.maximum.accumulate(psi)
    dd = runmax - psi
    k_end = int(dd.argmax())
    k_start = int(psi[:k_end + 1].argmax())
    return float(dd[k_end]), k_start, k_end


def verdict_from_increments(inc: np.ndarray, theta: np.ndarray) -> ConvexityReport:
    """Turning verdict from precomputed increments (CSV round-trip entry)."""
    inc = np.asarray(inc, dtype=float)
    m = inc.size
    total = float(inc.sum())
    worst, k_start, k_end = _drawdown(inc)
    max_step = float(np.abs(inc).max())
    witness = None
    worst_step_theta = None
    if worst > 0:
        witness = (float(theta[k_start % m]), float(theta[k_end % m]))
        worst_step_theta = float(theta[int(inc.argmin())])
    if max_step > MAX_TRUSTED_STEP:
        verdict = "INCONCLUSIVE"
    elif worst > NON_CONVEX_BACKTURN:
        verdict = "NON_CONVEX"
    elif worst <= BACKTURN_TOL and abs(total - 2.0 * np.pi) <= TOTAL_TURNING_TOL:
        verdict = "CONVEX"
    else:
        verdict = "INCONCLUSIVE"
    if verdict == "CONVEX":
        witness = None
        worst_step_theta = None
    return ConvexityReport(verdict, total, worst, witness, max_step, m,
                           worst_step_theta)


def convexity_check_resolved(f: HarmonicMap, r: float, n0: int = TURNING_SAMPLES
                             ) -> Tuple[BoundaryCurve, ConvexityReport]:
    """Split the turning steps above ``MAX_TRUSTED_STEP`` of the n0-sample curve,
    with exact tangents, until none is left or the refinement limits stop it
    (the verdict is then INCONCLUSIVE); return the refined curve and its report.
    A round recomputes only the increments of the 8 parts of each split step;
    every other step keeps its endpoints and its increment."""
    base = sample_boundary(f, r, n0)
    theta, tangent = base.theta, base.tangent
    inc = turning_increments(tangent)
    for _ in range(REFINE_MAX_ROUNDS):
        first = np.flatnonzero(np.abs(inc) > MAX_TRUSTED_STEP)
        if not first.size or theta.size + 7 * first.size > REFINE_SAMPLES_MAX:
            break
        theta, tangent = split_steps(theta, tangent, first,
                                     lambda t: _tangents(f, r * np.exp(1j * t)))
        # each split step's first sample has moved 7 places per split step
        # before it; it and its 7 new successors start the 8 new steps
        at = ((first + 7 * np.arange(first.size))[:, None] + np.arange(8)).ravel()
        inc = np.insert(inc, np.repeat(first + 1, 7), 0.0)
        inc[at] = np.angle(tangent[(at + 1) % tangent.size] / tangent[at])
    return BoundaryCurve(f, r, theta, tangent), verdict_from_increments(inc, theta)


@dataclass(frozen=True)
class DirectionalReport:
    t: float
    passed: bool
    sign_changes: int


def directional_convexity_check(curve: BoundaryCurve, t: float) -> DirectionalReport:
    """Convexity in direction t via the transverse coordinate Im(e^{-it} gamma).

    Lines parallel to e^{it} are level sets of q = Im(e^{-it} w); the image is
    convex in direction t exactly when the cyclic sample sequence q_j is
    unimodal, i.e. its first differences show exactly two sign changes after
    near-flat steps (|dq| below ``DIRECTION_DEADBAND`` of the range of q)
    are merged away.
    """
    q = (np.exp(-1j * float(t)) * curve.gamma).imag
    dq = np.roll(q, -1) - q
    deadband = DIRECTION_DEADBAND * (q.max() - q.min())
    s = np.sign(dq[np.abs(dq) > deadband])
    if s.size < 2:
        return DirectionalReport(float(t), False, 0)
    changes = int((s != np.roll(s, -1)).sum())
    return DirectionalReport(float(t), changes == 2, changes)


def parabola_residual(curve: BoundaryCurve) -> float:
    """Worst deviation from Re w + (Im w)^2 + 1/4 = 0 away from theta = 0.

    The implicit equation is the parabola with focus -1/2 and directrix
    Re w = 0.  Samples within ``PARABOLA_EXCLUDE`` radians of theta = 0 are skipped:
    there the circle image sweeps out to the domain's unbounded end (the
    residual grows like (1-r)^-2 regardless of r), while on the remaining
    arc the residual decays as r -> 1.
    """
    th = curve.theta
    keep = np.minimum(th, 2.0 * np.pi - th) >= PARABOLA_EXCLUDE
    g = curve.gamma[keep]
    return float(np.abs(g.real + g.imag ** 2 + 0.25).max())
