"""Antiderivatives of analytic integrands inside the unit disk.

Antiderivatives F with F(0) = 0 are recovered by integrating along the
radial segment [0, z]; analyticity on the disk makes any disk-contained path
valid, and the radial one is the shortest from the origin.

:func:`antiderivative_many` is a vectorized scheme for batches of endpoints.
Gauss-Legendre panels on [0, 1] are geometrically graded toward the outer
endpoint (the only place a radial path approaches the unit circle, where
catalog integrands blow up); the grading depth is increased until successive
estimates agree.

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
disk because the disk is convex, with Gauss-Legendre panels of the same
order and whole-versus-halves bisection; the caller sums the increments
from radial anchors computed by :func:`antiderivative_many`.  A chord piece
passes the same acceptance test with |I| replaced by max(|piece|, |F at the
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


class ToleranceNotMet(RuntimeError):
    """Adaptive refinement hit its depth cap before converging."""


@lru_cache(maxsize=None)
def _panel_nodes(t0: float, t1: float):
    # computed on first use: importing numpy.polynomial would add to package import time
    x, w = np.polynomial.legendre.leggauss(ORDER)
    mid, half = (t0 + t1) / 2.0, (t1 - t0) / 2.0
    return mid + half * x, half * w


def _converged(new, old, scale) -> np.ndarray:
    """The acceptance test of both routes: |new - old| against a target
    relative to ``scale``."""
    return np.abs(new - old) <= np.maximum(ABS_TOL, _FLOAT_FLOOR * scale)


def _batch_panel(fprime, z, t0: float, t1: float) -> np.ndarray:
    """GL integrals of fprime over the sub-segments z*[t0, t1], one per entry."""
    t, w = _panel_nodes(t0, t1)
    return (fprime(z[:, None] * t[None, :]) * w).sum(axis=-1)


def antiderivative_many(fprime: Callable, zs, depth0: int = 4) -> np.ndarray:
    """Radial antiderivatives for a batch of endpoints, vectorized.

    ``fprime`` must accept complex ndarrays x and return an integrand shaped
    like x.  The parameter interval [0, 1] is split at 1 - 2^-j; refinement
    pushes the grading front toward 1, reusing every previously integrated
    head panel, so each level costs two panel evaluations per endpoint still
    refining.  The result has the shape of ``zs`` (0-d for a scalar
    endpoint).
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
    acc = 0.0                                       # head integral over [0, 1 - 2^-depth]
    for j in range(depth0):
        acc = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-j), 1.0 - 2.0 ** (-j - 1))
    depth = depth0
    prev = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-depth), 1.0)
    max_depth = max(MAX_DEPTH, depth0 + 4)
    while True:
        acc = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-depth),
                                 1.0 - 2.0 ** (-depth - 1))
        depth += 1
        vals = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-depth), 1.0)
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
    return out.reshape(zs.shape)


def _chord_panels(fprime, a, b) -> np.ndarray:
    """GL integrals of fprime over the chords a -> b, one per entry."""
    t, w = _panel_nodes(0.0, 1.0)
    d = b - a
    return (fprime(a[:, None] + d[:, None] * t[None, :]) * w).sum(axis=-1) * d


def chord_increments(fprime: Callable, zs, start):
    """Increments of F along each row of points, chord by chord.

    ``zs`` is (rows, m): row i is the polyline zs[i, 0] -> zs[i, 1] -> ...
    inside the disk, and ``start`` is F at zs[:, 0], shaped (rows,).
    Returns ``(incr, ok)``, both (rows, m - 1): ``incr`` holds the integral
    over the chord zs[:, j] -> zs[:, j + 1] in column j, and ``ok`` is False
    for a chord still failing at ``CHORD_LEVELS``, whose entry is then only
    the last estimate.  The level-0 estimates chained from ``start`` give the
    size of F at each chord's start, which sets that chord's target.
    """
    zs = np.asarray(zs, dtype=complex)
    a, b = zs[:, :-1].ravel(), zs[:, 1:].ravel()
    whole = _chord_panels(fprime, a, b)
    incr = np.zeros(a.shape, dtype=complex)
    ok = np.ones(a.shape, dtype=bool)
    owner = np.arange(a.size)
    scale = None
    for level in range(CHORD_LEVELS + 1):
        mid = (a + b) / 2.0
        left, right = _chord_panels(fprime, a, mid), _chord_panels(fprime, mid, b)
        better = left + right
        if scale is None:                            # |F| at each chord's start
            est = better.reshape(zs[:, 1:].shape)
            pos = np.cumsum(np.concatenate([np.asarray(start)[:, None], est], axis=1), axis=1)
            scale = np.abs(pos[:, :-1]).ravel()
        done = _converged(better, whole,
                          np.maximum(np.abs(better), scale[owner] / 2.0 ** level))
        if level == CHORD_LEVELS:
            ok[owner[~done]] = False
            done[:] = True
        np.add.at(incr, owner[done], better[done])
        keep = ~done
        a, mid, b, owner = a[keep], mid[keep], b[keep], owner[keep]
        if owner.size == 0:
            break
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        whole = np.concatenate([left[keep], right[keep]])
        owner = np.concatenate([owner, owner])
    return incr.reshape(zs[:, 1:].shape), ok.reshape(zs[:, 1:].shape)
