import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearconvex.functions import (BlaschkeOmega, CatalogId, MonomialOmega,
                                   ZeroOmega, catalog, make_schwarz,
                                   rotate_analytic)

CATALOG_IDS = [CatalogId("H"), CatalogId("H_ROT_MINUS1"), CatalogId("KOEBE"),
               CatalogId("IDENTITY"), CatalogId("F0_H_PART"), CatalogId("F0_G_PART"),
               CatalogId("L_LAMBDA", 1j), CatalogId("L_LAMBDA", np.exp(1j * np.pi / 3))]

S_NORMALIZED = [c for c in CATALOG_IDS if c.kind != "F0_G_PART"]


def test_h_at_half():
    v, d1, d2 = catalog(CatalogId("H")).eval(0.5)
    assert v == pytest.approx(1.0)
    assert d1 == pytest.approx(4.0)
    assert d2 == pytest.approx(16.0)


def test_f0_parts_sum_to_koebe_and_difference_to_h(disk_grid):
    f0h = catalog(CatalogId("F0_H_PART"))
    f0g = catalog(CatalogId("F0_G_PART"))
    k = catalog(CatalogId("KOEBE"))
    H = catalog(CatalogId("H"))
    assert np.abs(f0h.value(disk_grid) + f0g.value(disk_grid)
                  - k.value(disk_grid)).max() < 1e-13
    assert np.abs(f0h.value(disk_grid) - f0g.value(disk_grid)
                  - H.value(disk_grid)).max() < 1e-13


@pytest.mark.parametrize("cid", CATALOG_IDS, ids=lambda c: c.text)
def test_derivatives_match_finite_differences(cid, disk_grid):
    phi = catalog(cid)
    h = 1e-5
    v, d1, d2 = phi.eval(disk_grid)
    fd1 = (phi.value(disk_grid + h) - phi.value(disk_grid - h)) / (2 * h)
    fd2 = (phi.d1(disk_grid + h) - phi.d1(disk_grid - h)) / (2 * h)
    scale1 = np.maximum(np.abs(d1), 1e-12)
    scale2 = np.maximum(np.abs(d2), 1e-12)
    assert (np.abs(fd1 - d1) / scale1).max() < 1e-6
    assert (np.abs(fd2 - d2) / scale2).max() < 1e-6


@pytest.mark.parametrize("cid", S_NORMALIZED, ids=lambda c: c.text)
def test_s_normalization_at_origin(cid):
    phi = catalog(cid)
    v, d1, _ = phi.eval(0.0 + 0.0j)
    assert abs(v) < 1e-14
    assert abs(d1 - 1.0) < 1e-14


def test_rotate_h_by_minus_one(disk_grid):
    rot = rotate_analytic(catalog(CatalogId("H")), -1.0)
    assert np.abs(rot.value(disk_grid) - disk_grid / (1 + disk_grid)).max() < 1e-14


def test_rotate_l_lambda_by_minus_one_flips_lambda(disk_grid):
    lam = np.exp(1j * 0.7)
    left = rotate_analytic(catalog(CatalogId("L_LAMBDA", lam)), -1.0)
    right = catalog(CatalogId("L_LAMBDA", -lam))
    assert np.abs(left.value(disk_grid) - right.value(disk_grid)).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(a1=st.floats(0, 2 * np.pi), a2=st.floats(0, 2 * np.pi))
def test_rotation_is_a_group_action(a1, a2):
    z = 0.6 * np.exp(2j * np.pi * np.arange(8) / 8)
    phi = catalog(CatalogId("KOEBE"))
    xi1, xi2 = np.exp(1j * a1), np.exp(1j * a2)
    twice = rotate_analytic(rotate_analytic(phi, xi1), xi2)
    once = rotate_analytic(phi, xi1 * xi2)
    assert np.abs(twice.value(z) - once.value(z)).max() < 1e-12


def test_rotation_involution(disk_grid):
    phi = catalog(CatalogId("H"))
    xi = np.exp(1j * 1.1)
    back = rotate_analytic(rotate_analytic(phi, xi), np.conj(xi))
    assert np.abs(back.value(disk_grid) - phi.value(disk_grid)).max() < 1e-12


def test_l_lambda_derivative_identity(disk_grid):
    # L'(z) * (1 - lam z)(1 - conj(lam) z) = 1; the A = conj(B) product form
    lam = np.exp(1j * 2.2)
    L = catalog(CatalogId("L_LAMBDA", lam))
    prod = L.d1(disk_grid) * (1 - lam * disk_grid) * (1 - np.conj(lam) * disk_grid)
    assert np.abs(prod - 1.0).max() < 1e-12


def test_zero_schwarz():
    w = make_schwarz(ZeroOmega())
    z = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.abs(w.value(z)).max() == 0.0


def test_monomial_minus_i():
    w = make_schwarz(MonomialOmega(-1j, 1))
    assert w.value(0.5) == pytest.approx(-0.5j)


def test_blaschke_stays_inside_disk():
    w = make_schwarz(BlaschkeOmega(zeros=(0.3 + 0.2j,), phase=0.0, scale=1.0))
    z = 0.999 * np.exp(2j * np.pi * np.arange(1000) / 1000)
    assert w.value(0.0) == 0.0
    assert np.abs(w.value(z)).max() < 1.0


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-0.6, 0.6), im=st.floats(-0.6, 0.6),
       phase=st.floats(0, 2 * np.pi), scale=st.floats(0.1, 1.0))
def test_blaschke_schwarz_invariants(re, im, phase, scale):
    w = make_schwarz(BlaschkeOmega(zeros=(complex(re, im),), phase=phase, scale=scale))
    z = 0.999 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert w.value(0.0 + 0.0j) == 0.0
    assert np.abs(w.value(z)).max() < 1.0


@pytest.mark.parametrize("spec", [
    MonomialOmega(np.exp(1j * 0.4), 2),
    BlaschkeOmega(zeros=(0.3 + 0.2j, -0.1 - 0.5j), phase=1.3, scale=0.8),
])
def test_schwarz_derivative_matches_finite_differences(spec, disk_grid):
    w = make_schwarz(spec)
    h = 1e-5
    d1 = w.d1(disk_grid)
    fd = (w.value(disk_grid + h) - w.value(disk_grid - h)) / (2 * h)
    assert (np.abs(fd - d1) / np.maximum(np.abs(d1), 1e-9)).max() < 1e-6


def test_parameter_validation():
    with pytest.raises(ValueError):
        CatalogId("L_LAMBDA", 1.0)           # excluded lambda
    with pytest.raises(ValueError):
        CatalogId("L_LAMBDA", 1.5)           # not unimodular
    with pytest.raises(ValueError):
        MonomialOmega(0.5 + 0.5j, 1)
    with pytest.raises(ValueError):
        MonomialOmega(1.0, 0)
    with pytest.raises(ValueError):
        BlaschkeOmega(zeros=(0.99,))          # zero beyond the cap
    with pytest.raises(ValueError):
        BlaschkeOmega(zeros=(0.1,), scale=1.5)
    with pytest.raises(ValueError):
        rotate_analytic(catalog(CatalogId("H")), 2.0)


def test_unimodular_inputs_are_renormalized():
    lam = (1 + 3e-10) * 1j
    cid = CatalogId("L_LAMBDA", lam)
    assert abs(abs(cid.param) - 1.0) < 1e-15


@pytest.mark.parametrize("xi", [1.0, np.exp(1.3231j)], ids=["unrotated", "rot 1.3231"])
@pytest.mark.parametrize("cid", CATALOG_IDS, ids=lambda c: c.text)
def test_catalog_poles_are_where_the_derivative_blows_up(cid, xi):
    # each listed pole p is on the circle and |phi'| grows at least like
    # 1/(1 - rho) toward it; rotating by xi moves every pole to conj(xi) p
    phi = rotate_analytic(catalog(cid), xi)
    expected = ([cid.param, np.conj(cid.param)] if cid.kind == "L_LAMBDA"
                else {"IDENTITY": [], "H_ROT_MINUS1": [-1.0]}.get(cid.kind, [1.0]))
    assert np.allclose(phi.poles, np.conj(xi) * np.array(expected, dtype=complex), atol=1e-15)
    for p in phi.poles:
        assert abs(abs(p) - 1.0) <= 1e-15
        near, far = (abs(phi.d1((1.0 - eps) * p)) for eps in (1e-7, 1e-3))
        assert near >= 1e3 * far


@pytest.mark.parametrize("cid", CATALOG_IDS, ids=lambda c: c.text)
def test_the_mobius_fact_is_the_map(cid, disk_grid):
    # H, H-1 and the identity are z/(1 - c z) with c = 1, -1 and 0, and a
    # rotation by xi makes c xi; every other entry carries no c
    c = {"H": 1.0, "H_ROT_MINUS1": -1.0, "IDENTITY": 0.0}.get(cid.kind)
    for xi in (None, np.exp(1.3231j), 1j):
        phi = catalog(cid) if xi is None else rotate_analytic(catalog(cid), xi)
        if c is None:
            assert phi.mobius is None
            continue
        assert abs(phi.mobius - c * (1.0 if xi is None else xi)) <= 1e-15
        want = disk_grid / (1.0 - phi.mobius * disk_grid)
        assert (np.abs(phi.value(disk_grid) - want) / np.abs(want)).max() <= 1e-15


@pytest.mark.parametrize("cid", CATALOG_IDS, ids=lambda c: c.text)
def test_the_strip_fact_is_the_map(cid, disk_grid):
    # L_lam carries lam, and E = e^{c L_lam(z)} (c = 2i Im lam) inverts to
    # z = (E - 1)/(lam E - conj(lam)); a rotation drops it, as every other entry has none
    phi = catalog(cid)
    assert rotate_analytic(phi, np.exp(1.3231j)).strip is None
    if cid.kind != "L_LAMBDA":
        assert phi.strip is None
        return
    lam = phi.strip
    assert lam == cid.param
    e = np.exp(2j * lam.imag * phi.value(disk_grid))
    assert np.abs((e - 1.0) / (lam * e - np.conj(lam)) - disk_grid).max() <= 1e-15


@pytest.mark.parametrize("arg", [np.pi / 3, np.pi / 2, 2 * np.pi / 3, 0.1],
                         ids=["pi/3", "pi/2", "2pi/3", "0.1"])
def test_the_strip_map_has_width_pi_over_2_im_lam(arg):
    # on |z| = 1, off the poles lam and conj(lam), (1 - conj(lam) z)/(1 - lam z)
    # lies on a line through 0, so Re L_lam takes two values pi/(2 Im lam) apart
    lam = complex(np.exp(1j * arg))
    circle = np.exp(2j * np.pi * (np.arange(1024) + 0.5) / 1024)
    re = catalog(CatalogId("L_LAMBDA", lam)).value(circle).real
    width = np.pi / (2.0 * lam.imag)
    assert np.ptp(re) == pytest.approx(width, rel=1e-12)
    assert np.minimum(re - re.min(), re.max() - re).max() <= 1e-12 * width
