import numpy as np
import pytest

from shearconvex.boundary_rotation import (MAX_ANGLE_SAMPLES, _angle_count,
                                           boundary_rotation_value,
                                           brannan_transform, vk_membership)
from shearconvex.cli import main
from shearconvex.functions import (AnalyticFunction, CatalogId, MonomialOmega,
                                   catalog, make_schwarz)
from shearconvex.geometry import REFINE_SAMPLES_MAX, _circle, _unit_circle
from shearconvex.shear import ShearSystem, shear_construct
from shearconvex.specs import DEFAULT_RADII

import oracles

LADDER = (0.9, 0.99, 0.999)
CONVEX_IDS = [CatalogId("H"), CatalogId("H_ROT_MINUS1"),
              CatalogId("L_LAMBDA", 1j), CatalogId("IDENTITY")]


@pytest.mark.parametrize("cid", CONVEX_IDS, ids=lambda c: c.text)
def test_convex_maps_have_value_two(cid):
    phi = catalog(cid)
    for r in LADDER:
        v = boundary_rotation_value(phi, r)
        assert abs(v.value_over_pi - 2.0) <= 1e-9


def test_value_lower_bound_holds_generally():
    # circle mean of Re(1 + z phi''/phi') is 1, so the absolute integral
    # cannot drop below 2 pi
    for cid in CONVEX_IDS + [CatalogId("KOEBE"), CatalogId("F0_H_PART")]:
        for r in (0.5, 0.99):
            assert boundary_rotation_value(catalog(cid), r).value_over_pi >= 2.0 - 1e-9


def test_koebe_value_near_four():
    v = boundary_rotation_value(catalog(CatalogId("KOEBE")), 0.999)
    assert 3.9 < v.value_over_pi <= 4.0 + 1e-6


def test_value_nondecreasing_in_r():
    # observed behavior (the ladder policy relies on it); float jitter at the
    # flat value 2 is tolerated
    for cid in (CatalogId("KOEBE"), CatalogId("H"), CatalogId("F0_H_PART")):
        vals = [boundary_rotation_value(catalog(cid), r).value_over_pi for r in LADDER]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_brannan_of_h_is_koebe(disk_grid):
    psi = brannan_transform(catalog(CatalogId("H")), -1.0, 1)
    k = catalog(CatalogId("KOEBE"))
    assert np.abs(psi.d1(disk_grid) - k.d1(disk_grid)).max() < 1e-12
    assert np.abs(psi.value(disk_grid) - k.value(disk_grid)).max() < 1e-10
    assert psi.d1(0.0 + 0.0j) == pytest.approx(1.0, abs=1e-14)


def test_brannan_bound_identity_n1():
    psi = brannan_transform(catalog(CatalogId("IDENTITY")), 1.0, 1)
    z = 0.3 + 0.2j
    assert psi.d1(z) == pytest.approx((1 - z) / (1 + z), abs=1e-14)
    assert boundary_rotation_value(psi, 0.99).value_over_pi <= 4.0 + 1e-6


def test_brannan_bound_h_n2():
    psi = brannan_transform(catalog(CatalogId("H")), 1.0, 2)
    worst = max(boundary_rotation_value(psi, r).value_over_pi for r in LADDER)
    assert worst <= 6.0 + 1e-6


@pytest.mark.parametrize("lam", [1.0, -1.0, 1j])
@pytest.mark.parametrize("n_pow", [1, 2, 3])
def test_brannan_bound_grid(lam, n_pow):
    # convex data sits in V_2; the transform may not exceed V_{2+2N}
    for cid in (CatalogId("H"), CatalogId("IDENTITY")):
        psi = brannan_transform(catalog(cid), lam, n_pow)
        worst = max(boundary_rotation_value(psi, r).value_over_pi for r in LADDER)
        assert worst <= 2.0 + 2.0 * n_pow + 1e-6


def test_vk_membership():
    H = catalog(CatalogId("H"))
    K = catalog(CatalogId("KOEBE"))
    ok_h, worst_h, _ = vk_membership(H, 2.0)
    assert ok_h and abs(worst_h - 2.0) < 1e-9
    ok_k2, _, _ = vk_membership(K, 2.0)
    ok_k4, _, _ = vk_membership(K, 4.0)
    assert not ok_k2 and ok_k4


def test_vk_membership_monotone_in_k():
    phi = catalog(CatalogId("F0_H_PART"))
    results = [vk_membership(phi, k)[0] for k in (2.0, 3.0, 4.0, 6.0)]
    # once a membership holds it holds for every larger k
    assert results == sorted(results)


def test_case4_decomposition_identity(disk_grid):
    # vertical shear with omega = -z satisfies h' - g' = phi' (1+z)/(1-z)
    for cid in (CatalogId("H"), CatalogId("L_LAMBDA", 1j)):
        phi = catalog(cid)
        f = shear_construct(ShearSystem(phi, make_schwarz(MonomialOmega(-1.0, 1)), -1.0))
        h1, g1 = f.derivatives(disk_grid)
        ref = phi.d1(disk_grid) * (1 + disk_grid) / (1 - disk_grid)
        assert (np.abs(h1 - g1 - ref) / np.abs(ref)).max() < 1e-12


def test_vanishing_derivative_rejected():
    bad = AnalyticFunction("z-z^2/1", lambda z: z - z ** 2 / 1.0,
                           lambda z: 1.0 - 2 * z / 1.0, lambda z: -2.0 + z * 0)
    with pytest.raises(ValueError):
        boundary_rotation_value(bad, 0.5)   # derivative vanishes at z = 1/2


def test_invalid_inputs():
    H = catalog(CatalogId("H"))
    with pytest.raises(ValueError):
        boundary_rotation_value(H, 1.0)
    with pytest.raises(ValueError):
        brannan_transform(H, 2.0, 1)
    with pytest.raises(ValueError):
        brannan_transform(H, 1.0, 0)


def test_rotation_never_reads_the_value_channel():
    # the value channel of a Brannan transform or a shear part is quadrature;
    # the functional needs only phi' and phi''
    H = catalog(CatalogId("H"))

    def unreadable(z):
        raise AssertionError("boundary_rotation_value read the value channel")
    phi = AnalyticFunction("H without value", unreadable, H.d1_fn, H.d2_fn)
    assert boundary_rotation_value(phi, 0.99) == boundary_rotation_value(H, 0.99)


def test_radii_needing_too_many_angles_are_refused(monkeypatch, capsys):
    # r = 0.9999999 would need 2^28 angles; the refusal must come before any
    # array is built, so linspace fails loudly above the cap
    linspace = np.linspace

    def capped(start, stop, num=50, **kw):
        assert num <= MAX_ANGLE_SAMPLES, f"linspace of {num} points"
        return linspace(start, stop, num, **kw)
    monkeypatch.setattr(np, "linspace", capped)
    H = catalog(CatalogId("H"))
    for r in (0.999999, 0.9999999):
        with pytest.raises(ValueError, match=f"r = {r!r}"):
            boundary_rotation_value(H, r)
    assert _angle_count(0.99999) == MAX_ANGLE_SAMPLES      # still allowed
    assert main(["vk", "--phi", "H", "--k", "2", "--radii", "0.9999999"]) == 1
    assert "0.9999999" in capsys.readouterr().err


def test_brannan_transform_needs_normalized_data():
    # psi is built from the shear of (phi, lam z^N, -1), whose phi must be in S
    with pytest.raises(ValueError, match="must satisfy phi"):
        brannan_transform(catalog(CatalogId("F0_G_PART")), 1.0, 1)


_H = catalog(CatalogId("H"))
_ROTATION_PHIS = ([catalog(CatalogId(kind, 1j if kind == "L_LAMBDA" else None))
                   for kind in CatalogId.KINDS]
                  + [brannan_transform(_H, -1.0, 1), brannan_transform(_H, 1.0, 2),
                     brannan_transform(_H, 1j, 3)])


@pytest.mark.parametrize("phi", _ROTATION_PHIS, ids=lambda phi: phi.label)
def test_values_equal_the_fresh_grid_reference_bitwise(phi):
    # the shared table's r * e^{i theta} is the array a fresh linspace and
    # exp build, so every value is the same float
    for r in (0.5,) + DEFAULT_RADII:
        assert boundary_rotation_value(phi, r) == oracles.boundary_rotation_value(phi, r)


def test_grids_past_the_table_bound_are_not_kept():
    # r = 0.9999 needs 2^18 angles, twice the longest curve the library
    # builds: the table is built for the call alone and the cache is not asked
    assert _angle_count(0.9999) == 262144 > REFINE_SAMPLES_MAX
    before = _unit_circle.cache_info()
    theta, u = _circle(262144)
    assert theta.size == u.size == 262144 and not u.flags.writeable
    boundary_rotation_value(_H, 0.9999)
    assert _unit_circle.cache_info() == before
    # a table within the bound is the resident one
    assert _circle(REFINE_SAMPLES_MAX) is _circle(REFINE_SAMPLES_MAX)
    assert _unit_circle.cache_info().currsize <= _unit_circle.cache_info().maxsize
