"""Antiderivatives of analytic integrands inside the unit disk.

Antiderivatives F with F(0) = 0 are recovered by integrating along the
radial segment [0, z]; analyticity on the disk makes any disk-contained path
valid, and the radial one is the shortest from the origin.

:func:`antiderivative_many` is a vectorized scheme for batches of endpoints.
Gauss-Legendre panels on [0, 1] are geometrically graded toward the outer
endpoint (the only place a radial path approaches the unit circle, where
catalog integrands blow up); the grading depth is increased until successive
estimates agree, with one integrand call per level.

Every routine takes one integrand shaped like its argument (a shear's only
integrand is h'; ``shear`` solves g from h).  Each endpoint passes the
acceptance test below on its own and is frozen at its own depth, so a value
does not depend on the other endpoints of a batch.

Convergence acceptance is ``|I_next - I| <= max(ABS_TOL, 1024*eps*|I|)``:
absolute 1e-12 for small |I|, and the float floor 1024*eps (2.3e-13)
relative once |I| >~ 4.4.  The relative term matters near the boundary: at
|z| = 0.999 integrand antiderivatives reach 1e6 and an absolute 1e-12 target
is below what float64 summation can represent.

Points sampled densely along a circle get F by chaining instead (boundary
and winding curves; see ``HarmonicMap.parts_on_circle`` for where the
radial anchors go).  :func:`chord_increments` integrates F' over the
short straight chord between neighbouring samples, which lies inside the
disk because the disk is convex, from the 15 Gauss-Kronrod nodes of each
piece: its K15 value is accepted when it passes the acceptance test against
the embedded 7-node Gauss value, and the piece is bisected otherwise; the
caller sums the increments from radial anchors computed by
:func:`antiderivative_many`.  The test replaces |I| by max(|K15|, |F at the
chord's start| / 2^level): a short step near a pole has partial integrals
far larger than its increment, and only the size of F itself says what
float64 can resolve there.  A chord still failing after ``CHORD_LEVELS``
bisections is reported, not raised, and the caller anchors its endpoint
radially.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

ABS_TOL = 1e-12
ORDER = 15                      # Gauss-Legendre nodes per panel
MAX_DEPTH = 40                  # grading depth at which refinement gives up
CHORD_LEVELS = 10               # bisection levels at which a chord step gives up
_FLOAT_FLOOR = 1024 * np.finfo(float).eps

# QUADPACK's qk15 (Piessens et al. 1983) on [-1, 1], in double precision: nodes x >= 0,
# their 15-point Kronrod weights, and the 7-point Gauss weights of x[1], x[3], x[5], 0
_QK15_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
           0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_QK15_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
            0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_QK15_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
# the same rule on [0, 1], nodes ascending; the G7 weights are 0 at Kronrod-only nodes
_K15_T = np.concatenate([1.0 - np.array(_QK15_X[:-1]), 1.0 + np.array(_QK15_X[::-1])]) / 2.0
_K15_WT = np.concatenate([_QK15_WK[:-1], _QK15_WK[::-1]]) / 2.0
_G7_WT = np.zeros(15)
_G7_WT[1::2] = np.concatenate([_QK15_WG[:-1], _QK15_WG[::-1]]) / 2.0


class ToleranceNotMet(RuntimeError):
    """Adaptive refinement hit its depth cap before converging."""


@lru_cache(maxsize=None)
def _panel_nodes(j0: int, j1: int, tails: tuple):
    """GL nodes and weights, one row per panel: the heads [1 - 2^-j, 1 - 2^-(j+1)]
    for j0 <= j < j1, then the tails [1 - 2^-j, 1] for j in ``tails``."""
    # computed on first use: importing numpy.polynomial would add to package import time
    x, w = np.polynomial.legendre.leggauss(ORDER)
    heads = [(1.0 - 2.0 ** (-j), 1.0 - 2.0 ** (-j - 1)) for j in range(j0, j1)]
    lo, hi = np.array(heads + [(1.0 - 2.0 ** (-j), 1.0) for j in tails]).T[:, :, None]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return mid + half * x, half * w


def _converged(new, old, scale) -> np.ndarray:
    """The acceptance test of both routes: |new - old| against a target
    relative to ``scale``."""
    return np.abs(new - old) <= np.maximum(ABS_TOL, _FLOAT_FLOOR * scale)


def _batch_panels(fprime, z, *panels) -> np.ndarray:
    """GL integrals of fprime over z*[t0, t1], (endpoints, panels), in one call."""
    t, w = _panel_nodes(*panels)
    return (fprime(z[:, None, None] * t[None]) * w).sum(axis=-1)


def antiderivative_many(fprime: Callable, zs, depth0: int = 4) -> np.ndarray:
    """Radial antiderivatives for a batch of endpoints, vectorized.

    ``fprime`` must accept complex ndarrays x and return an integrand shaped
    like x.  The parameter interval [0, 1] is split at 1 - 2^-j; refinement
    pushes the grading front toward 1, reusing every previously integrated
    head panel.  One integrand call covers the ``depth0`` head panels, the
    first estimate and the first level; each later level is one call, two
    panels per endpoint still refining.  The result has the shape of ``zs``
    (0-d for a scalar endpoint).
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if not np.all(np.abs(flat) < 1.0):              # NaN fails too
        raise ValueError("antiderivative endpoints must lie in the open unit disk")
    out = np.zeros(flat.shape, dtype=complex)
    todo = np.flatnonzero(flat != 0)
    z = flat[todo]
    if todo.size == 0:
        return out.reshape(zs.shape)
    # one call: heads 0..depth0, the first estimate's tail and the first level's
    panels = _batch_panels(fprime, z, 0, depth0 + 1, (depth0, depth0 + 1))
    acc = 0.0                                       # head integral over [0, 1 - 2^-depth]
    for j in range(depth0):
        acc = acc + panels[:, j]
    prev, acc = acc + panels[:, -2], acc + panels[:, depth0]
    vals, depth = acc + panels[:, -1], depth0 + 1
    max_depth = max(MAX_DEPTH, depth0 + 4)
    while True:
        ok = _converged(vals, prev, np.abs(vals))
        if ok.any():
            out[todo[ok]] = vals[ok] * z[ok]
            keep = ~ok
            todo, z, acc, vals = todo[keep], z[keep], acc[keep], vals[keep]
        if todo.size == 0:
            break
        if depth >= max_depth:
            raise ToleranceNotMet(f"batch antiderivative stalled for {todo.size} points "
                                  f"at grading depth {depth}")
        prev = vals
        head, tail = _batch_panels(fprime, z, depth, depth + 1, (depth + 1,)).T
        acc, depth = acc + head, depth + 1
        vals = acc + tail
    return out.reshape(zs.shape)


def chord_increments(fprime: Callable, zs, start):
    """Increments of F along each row of points, chord by chord.

    ``zs`` is (rows, m): row i is the polyline zs[i, 0] -> zs[i, 1] -> ...
    inside the disk, and ``start`` is F at zs[:, 0], shaped (rows,).
    Returns ``(incr, ok)``, both (rows, m - 1): ``incr`` holds the integral
    over the chord zs[:, j] -> zs[:, j + 1] in column j, and ``ok`` is False
    for a chord still failing at ``CHORD_LEVELS`` (a piece is bisected while
    its K15 and G7 values disagree), whose entry is then only the last
    estimate.  The level-0 estimates chained from ``start`` give the size of
    F at each chord's start, which sets that chord's target.
    """
    zs = np.asarray(zs, dtype=complex)
    a, b = zs[:, :-1].ravel(), zs[:, 1:].ravel()
    incr = np.zeros(a.shape, dtype=complex)
    ok = np.ones(a.shape, dtype=bool)
    owner = np.arange(a.size)
    scale = None
    for level in range(CHORD_LEVELS + 1):
        d = b - a                                    # K15 and G7 from one integrand call
        f = fprime(a[:, None] + d[:, None] * _K15_T)
        kronrod, gauss = (f * _K15_WT).sum(axis=-1) * d, (f * _G7_WT).sum(axis=-1) * d
        if scale is None:                            # |F| at each chord's start
            est = kronrod.reshape(zs[:, 1:].shape)
            pos = np.cumsum(np.concatenate([np.asarray(start)[:, None], est], axis=1), axis=1)
            scale = np.abs(pos[:, :-1]).ravel()
        done = _converged(kronrod, gauss,
                          np.maximum(np.abs(kronrod), scale[owner] / 2.0 ** level))
        if level == CHORD_LEVELS:
            ok[owner[~done]] = False
            done[:] = True
        np.add.at(incr, owner[done], kronrod[done])
        keep = ~done
        a, b, owner = a[keep], b[keep], owner[keep]
        if owner.size == 0:
            break
        mid = (a + b) / 2.0
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
    return incr.reshape(zs[:, 1:].shape), ok.reshape(zs[:, 1:].shape)
