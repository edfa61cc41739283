import dataclasses
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from shearconvex.functions import (BlaschkeOmega, CatalogId, MonomialOmega,
                                   ZeroOmega, catalog, make_schwarz,
                                   rotate_analytic)
from shearconvex.quadrature import ABS_TOL, ORDER, antiderivative_many
from shearconvex.specs import DEFAULT_FAMILY, family_from_spec
from shearconvex import boundary_rotation, shear
from shearconvex.shear import (ShearSystem, analytic_combination, harmonic_from_analytic,
                               shear_construct)

H = catalog(CatalogId("H"))
OM_Z = make_schwarz(MonomialOmega(1.0, 1))


@pytest.fixture(scope="module")
def f0():
    return shear_construct(ShearSystem(H, OM_Z, 1.0))


def test_f0_matches_closed_forms(f0, disk_grid):
    h_ref = catalog(CatalogId("F0_H_PART"))
    g_ref = catalog(CatalogId("F0_G_PART"))
    assert np.abs(f0.h.value(disk_grid) - h_ref.value(disk_grid)).max() < 1e-11
    assert np.abs(f0.g.value(disk_grid) - g_ref.value(disk_grid)).max() < 1e-11


def test_zero_dilatation_returns_phi(disk_grid):
    f = shear_construct(ShearSystem(H, make_schwarz(ZeroOmega()), -1.0))
    assert np.abs(f.h.value(disk_grid) - H.value(disk_grid)).max() < 1e-11
    assert np.abs(f.g.value(disk_grid)).max() == 0.0


def test_strip_shear_closed_form(disk_grid):
    # vertical shear of L_lambda with omega = -z: h - g equals the log of
    # (1-lam z)(1-conj(lam) z)/(1-z)^2 over (2 - 2 Re lam)
    lam = 1j
    f = shear_construct(ShearSystem(catalog(CatalogId("L_LAMBDA", lam)),
                                    make_schwarz(MonomialOmega(-1.0, 1)), -1.0))
    hg = f.h.value(disk_grid) - f.g.value(disk_grid)
    closed = np.log((1 - lam * disk_grid) * (1 - np.conj(lam) * disk_grid)
                    / (1 - disk_grid) ** 2) / (2 - 2 * lam.real)
    assert np.abs(hg - closed).max() < 1e-11


MP_ZEROS = (0.9 + 0.1j, -0.5j)


def _mp_blaschke(z):
    b = z
    for a in MP_ZEROS:
        a = mp.mpc(a)
        b *= (a - z) / (1 - mp.conj(a) * z)
    return b


# (phi, omega, h' = phi'/(1 + omega) for eta = -1 in mpmath, pole directions of phi)
MP_CASES = {
    "H,omega=z": (H, OM_Z, lambda z: 1 / ((1 - z) ** 2 * (1 + z)), (0.0,)),
    "H,blaschke": (H, make_schwarz(BlaschkeOmega(MP_ZEROS)),
                   lambda z: 1 / ((1 - z) ** 2 * (1 + _mp_blaschke(z))), (0.0,)),
    "L_i,omega=-z^3": (catalog(CatalogId("L_LAMBDA", 1j)),
                       make_schwarz(MonomialOmega(-1.0, 3)),
                       lambda z: 1 / ((1 - 1j * z) * (1 + 1j * z) * (1 - z ** 3)), ()),
}
MP_THETAS = (0.0, np.pi / 2, 2 * np.pi / 3, np.pi, 4 * np.pi / 3, 3 * np.pi / 2)


@pytest.mark.parametrize("case", sorted(MP_CASES))
def test_h_matches_mpmath_near_the_circle(case):
    # h at r = 0.999 against mp.quad at 30 digits over [0, 1] graded toward
    # the endpoint, where the integrand peaks.  Off phi's pole directions the
    # batch quadrature agrees to a few ulps; on one (theta = 0 for H, |h| ~ 500)
    # the grading loop accepts successive estimates within 1024 eps relative,
    # and the measured error is 1.6e-14, so that point is held to 5e-14.
    phi, omega, hp, poles = MP_CASES[case]
    zs = 0.999 * np.exp(1j * np.array(MP_THETAS))
    got = shear_construct(ShearSystem(phi, omega, -1.0)).h.value(zs)
    with mp.workdps(30):
        grid = [mp.mpf(0)] + [1 - mp.mpf(2) ** -j for j in range(1, 13)] + [mp.mpf(1)]
        for theta, z, value in zip(MP_THETAS, zs, got):
            zm = mp.mpc(z)
            ref = complex(mp.quad(lambda t: zm * hp(zm * t), grid))
            bound = 5e-14 if theta in poles else 1e-14
            assert abs(value - ref) <= bound * abs(ref), (theta, value, ref)


MP_OMEGAS = {"H,omega=z": lambda z: z, "H,blaschke": _mp_blaschke,
             "L_i,omega=-z^3": lambda z: -z ** 3}


@pytest.mark.parametrize("r", [0.9, 0.999, 0.9999])
@pytest.mark.parametrize("case", sorted(MP_CASES))
def test_g_matches_mpmath_near_the_circle(case, r):
    # g is solved from h, g = conj(eta) (h - phi), never integrated; against
    # mp.quad of g' = omega h' (grid graded as above, to 2^-3 of 1 - r) it
    # keeps 5e-14 of the larger of |g| and |h|, the size of its two terms.
    # h_ref = phi - g_ref (eta = -1) sets only that scale.
    phi, omega, hp, _ = MP_CASES[case]
    om = MP_OMEGAS[case]
    zs = r * np.exp(1j * np.array(MP_THETAS))
    _, got = shear_construct(ShearSystem(phi, omega, -1.0)).parts(zs)
    depth = int(np.ceil(-np.log2(1.0 - r))) + 3
    with mp.workdps(30):
        grid = [mp.mpf(0)] + [1 - mp.mpf(2) ** -j for j in range(1, depth)] + [mp.mpf(1)]
        for theta, z, value in zip(MP_THETAS, zs, got):
            zm = mp.mpc(z)
            g_ref = complex(mp.quad(lambda t: zm * om(zm * t) * hp(zm * t), grid))
            h_ref = phi.value(z) - g_ref
            bound = 5e-14 * max(abs(g_ref), abs(h_ref))
            assert abs(value - g_ref) <= bound, (theta, value, g_ref)


SEEDED_SYSTEMS = []
_rng = np.random.default_rng(42)
_phis = ["H", "H_ROT_MINUS1", "KOEBE", "IDENTITY", "F0_H_PART"]
for _k in range(6):
    _phi = catalog(CatalogId(_phis[_k % len(_phis)]))
    if _k % 3 == 0:
        _om = make_schwarz(MonomialOmega(np.exp(2j * np.pi * _rng.uniform()),
                                         int(_rng.integers(1, 4))))
    elif _k % 3 == 1:
        _om = make_schwarz(BlaschkeOmega(
            zeros=tuple(0.9 * np.sqrt(_rng.uniform()) * np.exp(2j * np.pi * _rng.uniform())
                        for _ in range(int(_rng.integers(1, 3)))),
            phase=2 * np.pi * _rng.uniform(), scale=_rng.uniform(0.3, 1.0)))
    else:
        _om = make_schwarz(ZeroOmega())
    SEEDED_SYSTEMS.append(ShearSystem(_phi, _om, complex(np.exp(2j * np.pi * _rng.uniform()))))


@pytest.mark.parametrize("sys_", SEEDED_SYSTEMS, ids=lambda s: s.label[:48])
def test_reconstruction_and_dilatation(sys_, wide_grid):
    f = shear_construct(sys_)
    h = f.h.value(wide_grid)
    g = f.g.value(wide_grid)
    phi = sys_.phi.value(wide_grid)
    assert np.abs(h - sys_.eta * g - phi).max() <= 100 * ABS_TOL \
        * max(1.0, float(np.abs(phi).max()))
    h1, g1 = f.derivatives(wide_grid)
    om = sys_.omega.value(wide_grid)
    assert np.abs(g1 / h1 - om).max() < 1e-12
    # Jacobian positivity on the grid
    assert (np.abs(h1) ** 2 - np.abs(g1) ** 2).min() > 0


@pytest.mark.parametrize("sys_", SEEDED_SYSTEMS[:3], ids=lambda s: s.label[:48])
def test_s_h0_normalization(sys_):
    f = shear_construct(sys_)
    z0 = 0.0 + 0.0j
    assert abs(f.h.value(z0)) < 1e-10
    assert abs(f.g.value(z0)) < 1e-10
    assert abs(f.h.d1(z0) - 1.0) < 1e-10
    assert abs(f.g.d1(z0)) < 1e-10


def test_second_derivatives_match_finite_differences(f0, disk_grid):
    h = 1e-5
    for part in (f0.h, f0.g):
        fd = (part.d1(disk_grid + h) - part.d1(disk_grid - h)) / (2 * h)
        d2 = part.d2(disk_grid)
        assert (np.abs(fd - d2) / np.maximum(np.abs(d2), 1e-9)).max() < 1e-6


def test_rotation_shear_compatibility(disk_grid):
    # the rotation conj(xi) f(xi z) of the shear of (phi, omega0, eta) is the
    # shear of the datum (phi_xi, z -> xi^2 omega0(xi z), eta conj(xi)^2)
    xi = complex(np.exp(1j * np.pi / 5))
    omega0 = make_schwarz(MonomialOmega(np.exp(1j * 0.3), 2))
    eta = complex(np.exp(1j * 1.9))
    f = shear_construct(ShearSystem(H, omega0, eta))

    phi_xi = rotate_analytic(H, xi)
    lam_rot = xi ** 2 * omega0.spec.lam * xi ** omega0.spec.n
    omega_rot = make_schwarz(MonomialOmega(lam_rot, omega0.spec.n))
    assert np.abs(omega_rot.value(disk_grid)
                  - xi ** 2 * omega0.value(xi * disk_grid)).max() < 1e-14
    direct = shear_construct(ShearSystem(phi_xi, omega_rot, eta * np.conj(xi) ** 2))

    tol = 100 * ABS_TOL * 10
    rotated = np.conj(xi) * f.map_points(xi * disk_grid)
    assert np.abs(rotated - direct.map_points(disk_grid)).max() < tol


def test_analytic_combination(f0, disk_grid):
    # t = pi/2 gives h + g; for f0 that is the Koebe function, t = 0 gives H
    comb0 = analytic_combination(f0, 0.0)
    combv = analytic_combination(f0, np.pi / 2)
    k = catalog(CatalogId("KOEBE"))
    assert np.abs(comb0.value(disk_grid) - H.value(disk_grid)).max() < 1e-11
    assert np.abs(combv.value(disk_grid) - k.value(disk_grid)).max() < 1e-11


def test_invalid_system_inputs():
    with pytest.raises(ValueError):
        ShearSystem(H, OM_Z, 2.0)                       # eta not unimodular
    with pytest.raises(ValueError):
        ShearSystem(catalog(CatalogId("F0_G_PART")), OM_Z, 1.0)   # phi not in S


def test_concurrent_evaluation_matches_serial(f0):
    zs = [0.3 + 0.1j, -0.2 + 0.4j, 0.55 - 0.25j, 0.7j] * 4
    serial = [f0.map_points(z) for z in zs]
    with ThreadPoolExecutor(max_workers=8) as ex:
        conc = list(ex.map(f0.map_points, zs))
    assert serial == conc


SEED7_BLASCHKE = family_from_spec(DEFAULT_FAMILY)[27]
FUSED_SYSTEMS = [ShearSystem(H, OM_Z, 1.0), ShearSystem(H, SEED7_BLASCHKE, -1.0),
                 ShearSystem(catalog(CatalogId("L_LAMBDA", 1j)), make_schwarz(MonomialOmega(-1.0, 3)),
                             complex(np.exp(0.7j)))]
# the ring at 0.999 plus points where h' and g' of the seed-7 Blaschke
# system settle at different grading depths
FUSED_POINTS = np.concatenate([0.999 * np.exp(2j * np.pi * np.arange(24) / 24),
                               [0.9993306614950062 + 0.03373779773419244j,
                                0.9998644131771565 - 0.00843595056294625j,
                                0.999, 0.99, 0.5 - 0.3j, 0.0]])


@pytest.mark.parametrize("sys_", FUSED_SYSTEMS, ids=lambda s: s.label[:48])
def test_fused_channels_equal_the_separate_routes_bit_for_bit(sys_):
    # map_points integrates h' alone and solves g = conj(eta) (h - phi);
    # derivatives read one stacked (h', g'), each row exactly what evaluating
    # it on its own gives
    f = shear_construct(sys_)
    p1, om, eta = sys_.phi.d1, sys_.omega.value, sys_.eta
    hp = lambda z: p1(z) / (1.0 - eta * om(z))
    gp = lambda z: om(z) * p1(z) / (1.0 - eta * om(z))
    zs = FUSED_POINTS
    h = antiderivative_many(hp, zs)
    g = np.conj(eta) * (h - sys_.phi.value(zs))
    assert np.array_equal(f.map_points(zs), h + np.conj(g))
    assert np.array_equal(f.map_points(zs), f.h.value(zs) + np.conj(f.g.value(zs)))
    fh, fg = f.parts(zs)
    assert np.array_equal(fh, h) and np.array_equal(fg, g)
    h1, g1 = f.derivatives(zs)
    assert np.array_equal(h1, hp(zs)) and np.array_equal(g1, gp(zs))
    assert np.array_equal(h1, f.h.d1(zs)) and np.array_equal(g1, f.g.d1(zs))


def _counted(fn, counts, key):
    def wrapper(z):
        counts[key] += np.size(z)
        return fn(z)
    return wrapper


def test_one_phi_prime_and_one_omega_per_point(monkeypatch):
    counts = dict.fromkeys(("phi", "phi'", "phi''", "omega", "omega'", "nodes"), 0)
    phi = dataclasses.replace(H, value_fn=_counted(H.value_fn, counts, "phi"),
                              d1_fn=_counted(H.d1_fn, counts, "phi'"),
                              d2_fn=_counted(H.d2_fn, counts, "phi''"))
    omega = dataclasses.replace(SEED7_BLASCHKE,
                                value_fn=_counted(SEED7_BLASCHKE.value_fn, counts, "omega"),
                                d1_fn=_counted(SEED7_BLASCHKE.d1_fn, counts, "omega'"))

    def counted_quadrature(fprime, zs, depth0=4):
        return antiderivative_many(_counted(fprime, counts, "nodes"), zs, depth0)
    monkeypatch.setattr(shear, "antiderivative_many", counted_quadrature)
    f = shear_construct(ShearSystem(phi, omega, -1.0))
    counts.update(dict.fromkeys(counts, 0))        # ShearSystem checks phi at 0
    zs = FUSED_POINTS[:-1]
    f.map_points(zs)
    # at least depth0 + 1 + 2 panels of ORDER nodes for every endpoint
    assert counts["nodes"] >= zs.size * ORDER * 7
    assert counts["phi'"] == counts["omega"] == counts["nodes"]
    assert counts["phi''"] == counts["omega'"] == 0
    assert counts["phi"] == zs.size                 # g = conj(eta) (h - phi)
    counts.update(dict.fromkeys(counts, 0))
    f.derivatives(zs)
    assert counts["phi'"] == counts["omega"] == zs.size
    assert counts["phi''"] == counts["omega'"] == counts["nodes"] == 0


def test_zero_dilatation_integrates_nothing(monkeypatch):
    def no_quadrature(*a, **k):
        raise AssertionError("a zero-omega shear called the quadrature")
    monkeypatch.setattr(shear, "antiderivative_many", no_quadrature)
    monkeypatch.setattr(shear, "chord_increments", no_quadrature)
    f = shear_construct(ShearSystem(H, make_schwarz(ZeroOmega()), complex(np.exp(0.7j))))
    zs = FUSED_POINTS
    assert np.array_equal(f.map_points(zs), H.value(zs) + 0.0)
    hg = f.parts_on_circle(0.999, np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False))
    assert hg.shape == (2, 300) and not hg[1].any()


NORMALIZED_PHIS = {c.text: catalog(c) for c in (
    CatalogId("H"), CatalogId("H_ROT_MINUS1"), CatalogId("KOEBE"), CatalogId("IDENTITY"),
    CatalogId("F0_H_PART"), CatalogId("L_LAMBDA", 1j))}
NORMALIZED_PHIS["H@rot"] = rotate_analytic(H, np.exp(1.3231j))


@pytest.mark.parametrize("name", sorted(NORMALIZED_PHIS))
def test_zero_omega_map_is_phi_in_closed_form(name, monkeypatch):
    # an analytic map is the zero-omega shear: h = phi and g = 0, read from
    # phi's closed form once per point, with no quadrature at all
    def no_quadrature(*a, **k):
        raise AssertionError("a zero-omega shear called the quadrature")
    monkeypatch.setattr(shear, "antiderivative_many", no_quadrature)
    monkeypatch.setattr(shear, "chord_increments", no_quadrature)
    base = NORMALIZED_PHIS[name]
    counts = {"phi": 0}
    f = harmonic_from_analytic(dataclasses.replace(
        base, value_fn=_counted(base.value_fn, counts, "phi")))
    assert f.label == base.label
    counts["phi"] = 0                               # ShearSystem checks phi at 0
    zs, zero = FUSED_POINTS, np.zeros(FUSED_POINTS.shape)
    h, g = f.parts(zs)
    assert counts["phi"] == zs.size
    assert np.array_equal(h, base.value(zs)) and np.array_equal(g, zero)
    assert np.array_equal(f.map_points(zs), base.value(zs))
    assert counts["phi"] == 2 * zs.size
    theta = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False)
    hg = f.parts_on_circle(0.999, theta)
    assert counts["phi"] == 2 * zs.size + theta.size
    assert np.array_equal(hg[0], base.value(0.999 * np.exp(1j * theta))) and not hg[1].any()
    h1, g1 = f.derivatives(zs)
    assert np.array_equal(h1, base.d1(zs)) and np.array_equal(g1, zero)


def test_brannan_second_derivative_reads_each_channel_once(monkeypatch):
    # psi = h - g of the shear of (H, z^2, -1): psi'' reads one phi', phi'',
    # omega and omega' per point, and is h'' - mu (omega' h' + omega h'')
    counts = dict.fromkeys(("phi'", "phi''", "omega", "omega'"), 0)
    phi = dataclasses.replace(H, d1_fn=_counted(H.d1_fn, counts, "phi'"),
                              d2_fn=_counted(H.d2_fn, counts, "phi''"))

    def counted_schwarz(spec):
        w = make_schwarz(spec)
        return dataclasses.replace(w, value_fn=_counted(w.value_fn, counts, "omega"),
                                   d1_fn=_counted(w.d1_fn, counts, "omega'"))
    monkeypatch.setattr(boundary_rotation, "make_schwarz", counted_schwarz)
    psi = boundary_rotation.brannan_transform(phi, 1.0, 2)
    zs = 0.999 * np.exp(2j * np.pi * np.arange(1000) / 1000)
    counts.update(dict.fromkeys(counts, 0))
    got = psi.d2(zs)
    assert counts == dict.fromkeys(counts, zs.size)
    lam, eta, mu = 1.0, -1.0 + 0j, np.exp(2j * 0.0)
    om, om1, p1, p2 = lam * zs ** 2, lam * 2 * zs, H.d1(zs), H.d2(zs)
    den = 1.0 - eta * om
    h1 = p1 / den
    h2 = (p2 * den + eta * om1 * p1) / den ** 2
    assert np.array_equal(got, h2 - mu * (om1 * h1 + om * h2))


def test_analytic_combination_reads_the_pair_once():
    # L_i sheared by -z, 4,096 points at r = 0.999: h - mu*g costs what one
    # map_points does, half of reading h and g through separate channels
    counts = {"phi'": 0}
    L = catalog(CatalogId("L_LAMBDA", 1j))
    phi = dataclasses.replace(L, d1_fn=_counted(L.d1_fn, counts, "phi'"))
    f = shear_construct(ShearSystem(phi, make_schwarz(MonomialOmega(-1.0, 1)), -1.0))
    zs = 0.999 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    for t in (0.0, 0.4, np.pi / 2):
        mu = np.exp(2j * t)
        comb = analytic_combination(f, t)
        counts["phi'"] = 0
        separate = f.h.value(zs) - mu * f.g.value(zs)
        assert counts["phi'"] == 870_240
        counts["phi'"] = 0
        value = comb.value(zs)
        assert counts["phi'"] == 435_120
        assert np.array_equal(value, separate)
        counts["phi'"] = 0
        d1 = comb.d1(zs)
        assert counts["phi'"] == zs.size
        assert np.array_equal(d1, f.h.d1(zs) - mu * f.g.d1(zs))
        assert comb.value(0.3 + 0.2j) == f.h.value(0.3 + 0.2j) - mu * f.g.value(0.3 + 0.2j)


@pytest.mark.parametrize("a", [0.3, 1.3231, 2.9, 4.4])
def test_pole_angles_list_every_pole_of_h_prime_once(a):
    # the poles of h' = phi'/(1 - eta*omega) on the circle: phi's catalog
    # poles merged with the zeros of 1 - eta*omega of a monomial omega; a pole
    # both give (to rounding) is listed once, and |h'| blows up at each angle
    xi = complex(np.exp(1j * a))
    rot = rotate_analytic(H, xi)
    cases = [
        (ShearSystem(rot, make_schwarz(MonomialOmega(-xi, 1)), -1.0), [-a]),
        (ShearSystem(H, make_schwarz(MonomialOmega(-np.conj(xi) ** 2, 1)), -xi * xi), [0.0]),
        (ShearSystem(rot, make_schwarz(MonomialOmega(1.0, 2)), 1.0), [-a, 0.0, np.pi]),
        (ShearSystem(catalog(CatalogId("L_LAMBDA", xi)), family_from_spec(DEFAULT_FAMILY)[27],
                     -1.0), [a, -a]),
        (ShearSystem(catalog(CatalogId("IDENTITY")), make_schwarz(ZeroOmega()), 1.0), []),
        # lam = exp(i pi) as the sweeps spell it: its zero at 1 comes out 6e-17 off
        (ShearSystem(H, make_schwarz(MonomialOmega(complex(-1.0, 1.2246467991473532e-16), 2)),
                     -1.0), [0.0, np.pi]),
    ]
    for datum, expected in cases:
        got = datum.pole_angles
        assert np.allclose(got, np.sort(np.mod(expected, 2.0 * np.pi)), rtol=0.0, atol=1e-12)
        assert ((0.0 <= got) & (got < 2.0 * np.pi)).all() and (np.diff(got) > 0.0).all()
        for t in got:
            near, far = (abs(datum.h_prime((1.0 - eps) * np.exp(1j * t)))
                         for eps in (1e-7, 1e-3))
            assert near >= 1e3 * far
