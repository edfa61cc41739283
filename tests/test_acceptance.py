"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  The paper's named checks are the `reproduce` cases, whose rows pin
their own bounds in `shearconvex.reproduce`; one parametrized test runs
every case and asserts every row.  The other criteria pin their tolerances
here.
"""

import time

import numpy as np
import pytest

from shearconvex.functions import (BlaschkeOmega, CatalogId, MonomialOmega,
                                   ZeroOmega, catalog, make_schwarz)
from shearconvex.geometry import convexity_check_resolved, sample_boundary
from shearconvex.probe import (ProbeConfig, midpoint_certificate,
                               probe_admissibility)
from shearconvex.quadrature import antiderivative_many
from shearconvex.reproduce import CASES
from shearconvex.shear import (ShearSystem, harmonic_from_analytic,
                               shear_construct)

from oracles import convexity_check, discrete_winding, integrate_segment

LADDER = (0.9, 0.99, 0.999)


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _seeded_systems(count: int = 20):
    rng = np.random.default_rng(2024)
    cids = [CatalogId("H"), CatalogId("H_ROT_MINUS1"), CatalogId("L_LAMBDA", 1j),
            CatalogId("L_LAMBDA", complex(np.exp(1j * np.pi / 3))),
            CatalogId("KOEBE"), CatalogId("IDENTITY"), CatalogId("F0_H_PART")]
    systems = []
    for k in range(count):
        phi = catalog(cids[int(rng.integers(0, len(cids)))])
        kind = int(rng.integers(0, 3))
        if kind == 0:
            om = make_schwarz(MonomialOmega(complex(np.exp(2j * np.pi * rng.uniform())),
                                            int(rng.integers(1, 4))))
        elif kind == 1:
            zeros = tuple(0.95 * np.sqrt(rng.uniform())
                          * np.exp(2j * np.pi * rng.uniform())
                          for _ in range(int(rng.integers(1, 4))))
            om = make_schwarz(BlaschkeOmega(zeros=zeros,
                                            phase=float(2 * np.pi * rng.uniform()),
                                            scale=float(rng.uniform(0.3, 1.0))))
        else:
            om = make_schwarz(ZeroOmega())
        eta = complex(np.exp(2j * np.pi * rng.uniform()))
        systems.append(ShearSystem(phi, om, eta))
    return systems


def test_criterion_1_shear_reconstruction(wide_grid):
    t0 = time.time()
    worst = 0.0
    for sys_ in _seeded_systems(20):
        f = shear_construct(sys_)
        err = np.abs(f.h.value(wide_grid) - sys_.eta * f.g.value(wide_grid)
                     - sys_.phi.value(wide_grid)).max()
        worst = max(worst, float(err))
    elapsed = time.time() - t0
    _report("1 shear reconstruction", worst <= 1e-9 and elapsed <= 10.0,
            f"max |h - eta g - phi| = {worst:.2e} over 20 seeded triples "
            f"in {elapsed:.1f}s (<= 1e-9, <= 10s)")


def test_criterion_2_f0_suite():
    # the f0 case row finds the midpoint; here it must also escape the very
    # curve of the verdict, by the independent discrete winding of the oracle
    f = shear_construct(ShearSystem(catalog(CatalogId("H")),
                                    make_schwarz(MonomialOmega(1.0, 1)), 1.0))
    curve, rep = convexity_check_resolved(f, 0.99)
    m = midpoint_certificate(f, 0.99, rep.witness)
    winding = None if m is None else discrete_winding(curve.gamma, m)
    _report("2 f0 certificate", winding == 0,
            f"verdict {rep.verdict}; midpoint {m}; discrete winding {winding} (expected 0)")


def test_criterion_3_always_convex_positives():
    # the Llambda case probes L_i and L_{e^{i pi/3}} with the same family
    t0 = time.time()
    summaries = {}
    n_family = None
    for spec in ("H", "H-1"):
        cfg = ProbeConfig(phi_spec=spec, eta=-1.0 + 0.0j, radii=LADDER)
        rep = probe_admissibility(cfg)
        summaries[spec] = rep.summary
        n_family = len(rep.per_omega)
    elapsed = time.time() - t0
    ok = all(s == "NO_FAILURE_FOUND" for s in summaries.values()) \
        and n_family >= 74 and elapsed <= 60.0
    _report("3 always-convex positives", ok,
            f"{summaries}; family size {n_family} (>= 74); {elapsed:.1f}s (<= 60s)")


@pytest.mark.parametrize("name", sorted(CASES))
def test_reproduce_case(name):
    # every row of every named case, with the bounds its rows pin
    rows = CASES[name]()
    _report(f"reproduce {name}", bool(rows) and all(ok for _, ok, _ in rows),
            "; ".join(f"{'PASS' if ok else 'FAIL'} {row} [{detail}]"
                      for row, ok, detail in rows))


def test_criterion_9_oracle_invariants():
    # analytic tangents vs centered differences at n = 4096
    f0 = shear_construct(ShearSystem(catalog(CatalogId("H")),
                                     make_schwarz(MonomialOmega(1.0, 1)), 1.0))
    fd_worst = 0.0
    for fmap, r in ((harmonic_from_analytic(catalog(CatalogId("IDENTITY"))), 0.5),
                    (harmonic_from_analytic(catalog(CatalogId("H"))), 0.5),
                    (f0, 0.4)):
        c = sample_boundary(fmap, r, 4096)
        dth = 2 * np.pi / c.n
        fd = (np.roll(c.gamma, -1) - np.roll(c.gamma, 1)) / (2 * dth)
        fd_worst = max(fd_worst, float((np.abs(fd - c.tangent)
                                        / np.abs(c.tangent)).max()))

    # quadrature path independence: production radial route vs the scalar
    # oracle's bent path 0 -> mid -> z
    K = catalog(CatalogId("KOEBE"))
    path_worst = 0.0
    for z in (0.7 + 0.2j, -0.5 + 0.6j, 0.3 - 0.88j):
        mid = z / 2 * (1 + 0.3j)
        radial = antiderivative_many(K.d1, z)
        bent = integrate_segment(K.d1, 0.0, mid) + integrate_segment(K.d1, mid, z)
        path_worst = max(path_worst, abs(radial - bent))

    # total turning of accepted curves
    turn_worst = 0.0
    for fmap, r in ((harmonic_from_analytic(catalog(CatalogId("KOEBE"))), 0.5),
                    (f0, 0.9),
                    (harmonic_from_analytic(catalog(CatalogId("H"))), 0.9)):
        rep = convexity_check(sample_boundary(fmap, r, 4096))
        assert rep.verdict in ("CONVEX", "NON_CONVEX")
        turn_worst = max(turn_worst, abs(rep.total_turning - 2 * np.pi))

    ok = fd_worst <= 1e-5 and path_worst <= 1e-11 and turn_worst <= 1e-3
    _report("9 oracle invariants", ok,
            f"tangent FD rel err {fd_worst:.2e} (<= 1e-5); path independence "
            f"{path_worst:.2e} (<= 1e-11); turning deviation {turn_worst:.2e} (<= 1e-3)")
