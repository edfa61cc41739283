"""Antiderivatives of analytic integrands inside the unit disk.

Antiderivatives F with F(0) = 0 are recovered by integrating along the
radial segment [0, z]; analyticity on the disk makes any disk-contained path
valid, and the radial one is the shortest from the origin.

:func:`antiderivative_many` is a vectorized scheme for batches of endpoints.
Gauss-Legendre panels on [0, 1] are geometrically graded toward the outer
endpoint (the only place a radial path approaches the unit circle, where
catalog integrands blow up); the grading depth is increased until successive
estimates agree.

Integrands that share factors (a shear's h' and g' share phi' and omega)
can be stacked into one call.  Each component of each endpoint passes the
acceptance test below on its own and is frozen at its own depth, so it is
bit-for-bit what integrating that component alone gives.

Convergence acceptance is ``|I_next - I| <= max(ABS_TOL, 1024*eps*|I|)``:
absolute 1e-12 for small |I|, and the float floor 1024*eps (2.3e-13)
relative once |I| >~ 4.4.  The relative term matters near the boundary: at
|z| = 0.999 integrand antiderivatives reach 1e6 and an absolute 1e-12 target
is below what float64 summation can represent.

Points sampled densely along a circle get F by chaining instead (the
winding curves of ``probe``; see ``HarmonicMap.parts_on_circle`` for where
the radial anchors go).  :func:`chord_increments` integrates F' over the
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
    """GL integrals of fprime over the sub-segments z*[t0, t1], one per entry
    (and per stacked component); each row is summed on its own."""
    t, w = _panel_nodes(t0, t1)
    return (fprime(z[:, None] * t[None, :]) * w).sum(axis=-1)


def antiderivative_many(fprime: Callable, zs, depth0: int = 4) -> np.ndarray:
    """Radial antiderivatives for a batch of endpoints, vectorized.

    ``fprime`` must accept complex ndarrays x and return one integrand shaped
    like x, or k stacked ones shaped ``(k,) + x.shape``.  The parameter
    interval [0, 1] is split at 1 - 2^-j; refinement pushes the grading front
    toward 1, reusing every previously integrated head panel, so each level
    costs two panel evaluations per endpoint with a component still
    refining.  The result has the shape of ``zs`` (0-d for a scalar
    endpoint), after the component axis of a stacked integrand.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if flat.size and np.abs(flat).max() >= 1.0:
        raise ValueError("antiderivative endpoints must lie in the open unit disk")
    todo = np.flatnonzero(flat != 0)
    z = flat[todo]
    if todo.size == 0:      # an empty call shows whether fprime is stacked
        return np.zeros(np.shape(fprime(z))[:-1] + zs.shape, dtype=complex)
    acc = 0.0                                       # head integral over [0, 1 - 2^-depth]
    for j in range(depth0):
        acc = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-j), 1.0 - 2.0 ** (-j - 1))
    depth = depth0
    prev = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-depth), 1.0)
    out = np.zeros(prev.shape[:-1] + flat.shape, dtype=complex)
    live = np.ones(prev.shape, dtype=bool)          # components still refining
    max_depth = max(MAX_DEPTH, depth0 + 4)
    while True:
        acc = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-depth),
                                 1.0 - 2.0 ** (-depth - 1))
        depth += 1
        vals = acc + _batch_panel(fprime, z, 1.0 - 2.0 ** (-depth), 1.0)
        ok = live & _converged(vals, prev, np.abs(vals))
        if ok.any():
            *comp, pt = np.nonzero(ok)
            out[(*comp, todo[pt])] = vals[ok] * flat[todo[pt]]
            live &= ~ok
            keep = live.reshape(-1, todo.size).any(axis=0)
            todo, z, acc, vals, live = (todo[keep], z[keep], acc[..., keep],
                                        vals[..., keep], live[..., keep])
        if todo.size == 0:
            break
        if depth >= max_depth:
            stalled = live.reshape(-1, todo.size).sum(axis=1)
            raise ToleranceNotMet(f"batch antiderivative stalled for "
                                  f"{stalled[stalled > 0][0]} points at grading depth {depth}")
        prev = vals
    return out.reshape(out.shape[:-1] + zs.shape)


def _chord_panels(fprime, a, b) -> np.ndarray:
    """GL integrals of fprime over the chords a -> b, one per entry."""
    t, w = _panel_nodes(0.0, 1.0)
    d = b - a
    return (fprime(a[:, None] + d[:, None] * t[None, :]) * w).sum(axis=-1) * d


def chord_increments(fprime: Callable, zs, start):
    """Increments of F along each row of points, chord by chord.

    ``zs`` is (rows, m): row i is the polyline zs[i, 0] -> zs[i, 1] -> ...
    inside the disk, and ``start`` is F at zs[:, 0], shaped (rows,) or, for
    k stacked integrands, (k, rows).  Returns ``(incr, ok)``: ``incr`` is
    (rows, m - 1), after the component axis, with the integral over the
    chord zs[:, j] -> zs[:, j + 1] in column j; ``ok`` is False for a
    chord still failing at ``CHORD_LEVELS``, whose entry is then only the
    last estimate.  The level-0 estimates chained from ``start`` give the
    size of F at each chord's start, which sets that chord's target.
    """
    zs = np.asarray(zs, dtype=complex)
    a, b = zs[:, :-1].ravel(), zs[:, 1:].ravel()
    whole = _chord_panels(fprime, a, b)
    lead = whole.shape[:-1]                          # () or (k,)
    incr = np.zeros(whole.shape, dtype=complex)
    ok = np.ones(a.shape, dtype=bool)
    owner = np.arange(a.size)
    scale = None
    for level in range(CHORD_LEVELS + 1):
        mid = (a + b) / 2.0
        left, right = _chord_panels(fprime, a, mid), _chord_panels(fprime, mid, b)
        better = left + right
        if scale is None:                            # |F| at each chord's start
            est = better.reshape(lead + zs[:, 1:].shape)
            pos = np.cumsum(np.concatenate([np.asarray(start)[..., None], est], axis=-1),
                            axis=-1)
            scale = np.abs(pos[..., :-1]).reshape(lead + a.shape)
        done = _converged(better, whole,
                          np.maximum(np.abs(better), scale[..., owner] / 2.0 ** level))
        if lead:                                     # every component converged
            done = done.all(axis=0)
        if level == CHORD_LEVELS:
            ok[owner[~done]] = False
            done[:] = True
        np.add.at(incr, (..., owner[done]), better[..., done])
        keep = ~done
        a, mid, b, owner = a[keep], mid[keep], b[keep], owner[keep]
        if owner.size == 0:
            break
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        whole = np.concatenate([left[..., keep], right[..., keep]], axis=-1)
        owner = np.concatenate([owner, owner])
    return incr.reshape(lead + zs[:, 1:].shape), ok.reshape(zs[:, 1:].shape)
