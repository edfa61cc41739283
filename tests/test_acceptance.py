"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from shearconvex.boundary_rotation import (boundary_rotation_value,
                                           brannan_transform, vk_membership)
from shearconvex.functions import (BlaschkeOmega, CatalogId, MonomialOmega,
                                   ZeroOmega, catalog, make_schwarz)
from shearconvex.geometry import (convexity_check, convexity_check_resolved,
                                  directional_convexity_check,
                                  parabola_residual, sample_boundary,
                                  turning_increments)
from shearconvex.probe import (ProbeConfig, halfplane_strip_identifier,
                               midpoint_certificate, probe_admissibility,
                               rotated_counterexample_suite)
from shearconvex.quadrature import antiderivative_many
from shearconvex.shear import (ShearSystem, analytic_combination,
                               harmonic_from_analytic, shear_construct)

from oracles import discrete_winding, integrate_segment

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
    f = shear_construct(ShearSystem(catalog(CatalogId("H")),
                                    make_schwarz(MonomialOmega(1.0, 1)), 1.0))
    grid = np.concatenate([rad * np.exp(2j * np.pi * np.arange(24) / 24)
                           for rad in np.linspace(0.1, 0.95, 8)])
    h_err = float(np.abs(f.h.value(grid)
                         - catalog(CatalogId("F0_H_PART")).value(grid)).max())
    g_err = float(np.abs(f.g.value(grid)
                         - catalog(CatalogId("F0_G_PART")).value(grid)).max())
    resid = parabola_residual(sample_boundary(f, 0.9999, 4096))
    curve, rep = convexity_check_resolved(f, 0.99)
    m = midpoint_certificate(f, 0.99, rep.witness)
    witness_ok = m is not None and discrete_winding(curve.gamma, m) == 0
    ok = (h_err <= 1e-10 and g_err <= 1e-10 and resid <= 5e-3
          and rep.verdict == "NON_CONVEX" and witness_ok)
    _report("2 f0 suite", ok,
            f"h err {h_err:.2e}, g err {g_err:.2e} (<= 1e-10); parabola residual "
            f"{resid:.2e} (<= 5e-3); verdict {rep.verdict}; midpoint witness {m}")


def test_criterion_3_always_convex_positives():
    lam3 = complex(np.exp(1j * np.pi / 3))
    specs = ["H", "H-1", "Llambda:re=0.0,im=1.0",
             f"Llambda:re={lam3.real!r},im={lam3.imag!r}"]
    t0 = time.time()
    summaries = {}
    n_family = None
    for spec in specs:
        cfg = ProbeConfig(phi_spec=spec, eta=-1.0 + 0.0j, radii=LADDER)
        rep = probe_admissibility(cfg)
        summaries[spec] = rep.summary
        n_family = len(rep.per_omega)
    elapsed = time.time() - t0
    ok = all(s == "NO_FAILURE_FOUND" for s in summaries.values()) \
        and n_family >= 74 and elapsed <= 120.0
    _report("3 always-convex positives", ok,
            f"{summaries}; family size {n_family} (>= 74); {elapsed:.1f}s (<= 120s)")


def test_criterion_4_rotation_counterexamples():
    suite = rotated_counterexample_suite()
    detail = ", ".join(f"xi=({c['xi'][0]:+.3f},{c['xi'][1]:+.3f}):{c['observed']}"
                       for c in suite["cases"])
    _report("4 rotation counterexamples", suite["all_as_expected"], detail)


def test_criterion_5_koebe_directions():
    curve = sample_boundary(harmonic_from_analytic(catalog(CatalogId("KOEBE"))),
                            0.999, 4096)
    t_grid = np.arange(64) * np.pi / 64
    passing = [float(t) for t in t_grid
               if directional_convexity_check(curve, t).passed]
    _report("5 koebe directions", passing == [0.0],
            f"passing directions on the 64-grid: {passing} (expected [0.0])")


def test_criterion_6_halfplane_strip_identification():
    rid_h = halfplane_strip_identifier(harmonic_from_analytic(catalog(CatalogId("H"))))
    rid_s = halfplane_strip_identifier(
        harmonic_from_analytic(catalog(CatalogId("L_LAMBDA", 1j))))
    ok = (rid_h.kind == "HALF_PLANE" and abs(rid_h.offset + 0.5) <= 1e-3
          and rid_s.kind == "STRIP"
          and abs(rid_s.strip_width_over_pi - 0.5) <= 1e-3)
    _report("6 half-plane/strip identification", ok,
            f"H -> {rid_h.kind} offset {rid_h.offset}; "
            f"L_i -> {rid_s.kind} width/pi {rid_s.strip_width_over_pi}")


def test_criterion_7_boundary_rotation(disk_grid):
    devs = {}
    for cid in (CatalogId("H"), CatalogId("H_ROT_MINUS1"),
                CatalogId("L_LAMBDA", 1j), CatalogId("IDENTITY")):
        phi = catalog(cid)
        devs[cid.text] = max(abs(boundary_rotation_value(phi, r).value_over_pi - 2.0)
                             for r in LADDER)
    flat = max(devs.values())
    H = catalog(CatalogId("H"))
    psi1 = brannan_transform(H, -1.0, 1)
    ok1, worst1, _ = vk_membership(psi1, 4.0, LADDER)
    koebe_err = float(np.abs(psi1.value(disk_grid)
                             - catalog(CatalogId("KOEBE")).value(disk_grid)).max())
    psi2 = brannan_transform(H, 1.0, 2)
    ok2, worst2, _ = vk_membership(psi2, 6.0, LADDER)
    ok = flat <= 1e-9 and ok1 and ok2 and koebe_err <= 1e-10
    _report("7 boundary rotation", ok,
            f"convex-map deviation {flat:.2e} (<= 1e-9); transform values "
            f"{worst1:.6f} <= 4+1e-6, {worst2:.6f} <= 6+1e-6; "
            f"Koebe coincidence {koebe_err:.2e} (<= 1e-10)")


def test_criterion_8_strip_formula(wide_grid):
    lam = 1j
    f = shear_construct(ShearSystem(catalog(CatalogId("L_LAMBDA", lam)),
                                    make_schwarz(MonomialOmega(-1.0, 1)), -1.0))
    hg = f.h.value(wide_grid) - f.g.value(wide_grid)
    closed = np.log((1 - lam * wide_grid) * (1 - np.conj(lam) * wide_grid)
                    / (1 - wide_grid) ** 2) / (2 - 2 * lam.real)
    err = float(np.abs(hg - closed).max())
    comb = harmonic_from_analytic(analytic_combination(f, 0.0))
    curve = sample_boundary(comb, 0.999, 4096)
    t_grid = np.arange(64) * np.pi / 64
    passing = [float(t) for t in t_grid
               if directional_convexity_check(curve, t).passed]
    ok = err <= 1e-9 and passing == [0.0]
    _report("8 strip formula", ok,
            f"h-g vs closed log form: {err:.2e} (<= 1e-9); "
            f"directions passing: {passing} (expected [0.0])")


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
