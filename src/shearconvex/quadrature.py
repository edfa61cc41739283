"""Radial antiderivatives of analytic integrands inside the unit disk.

Antiderivatives F with F(0) = 0 are recovered by integrating along the
radial segment [0, z]; analyticity on the disk makes any disk-contained path
valid, and the radial one is the shortest.

:func:`antiderivative_many` is a vectorized scheme for batches of endpoints.
Gauss-Legendre panels on [0, 1] are geometrically graded toward the outer
endpoint (the only place a radial path approaches the unit circle, where
catalog integrands blow up); the grading depth is increased until successive
estimates agree.

Integrands that share factors (a shear's h' and g' share phi' and omega)
can be stacked into one call.  Each component of each endpoint passes the
acceptance test below on its own and is frozen at its own depth, so it is
bit-for-bit what integrating that component alone gives.

Convergence acceptance is ``|I_next - I| <= max(ABS_TOL + REL_TOL*|I|,
1024*eps*|I|)``.  The relative terms matter near the boundary: at |z| = 0.999
integrand antiderivatives reach 1e6 and an absolute 1e-12 target is below
what float64 summation can represent.  The float floor 1024*eps (2.3e-13)
exceeds REL_TOL, so it is the relative target actually applied: it wins over
ABS_TOL + REL_TOL*|I| once |I| >~ 4.6, and REL_TOL only nudges the target
for smaller |I|.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

ABS_TOL = 1e-12
REL_TOL = 1e-14
ORDER = 15                      # Gauss-Legendre nodes per panel
MAX_DEPTH = 40                  # grading depth at which refinement gives up
_FLOAT_FLOOR = 1024 * np.finfo(float).eps


class ToleranceNotMet(RuntimeError):
    """Adaptive refinement hit its depth cap before converging."""


@lru_cache(maxsize=None)
def _panel_nodes(t0: float, t1: float):
    # computed on first use: importing numpy.polynomial would add to package import time
    x, w = np.polynomial.legendre.leggauss(ORDER)
    mid, half = (t0 + t1) / 2.0, (t1 - t0) / 2.0
    return mid + half * x, half * w


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
        tol = np.maximum(ABS_TOL + REL_TOL * np.abs(vals), _FLOAT_FLOOR * np.abs(vals))
        ok = live & (np.abs(vals - prev) <= tol)
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
