import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearconvex import quadrature
from shearconvex.functions import CatalogId, catalog
from shearconvex.quadrature import (ABS_TOL, ORDER, ToleranceNotMet, _converged,
                                    antiderivative_many, chord_increments)
from shearconvex.shear import ShearSystem
from shearconvex.specs import DEFAULT_FAMILY, family_from_spec

from oracles import antiderivative, integrate_segment

H = catalog(CatalogId("H"))
K = catalog(CatalogId("KOEBE"))


def test_constant_integrand():
    assert integrate_segment(lambda z: np.ones_like(z), 0.0, 0.3 + 0.4j) \
        == pytest.approx(0.3 + 0.4j, abs=1e-13)


def test_h_prime_has_antiderivative_h():
    # antiderivative of 1/(1-z)^2 vanishing at 0 is z/(1-z)
    assert integrate_segment(H.d1, 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_atanh_type_integrand_matches_l_lambda_closed_form():
    L = catalog(CatalogId("L_LAMBDA", 1j))
    got = integrate_segment(lambda z: 1.0 / ((1 - 1j * z) * (1 + 1j * z)), 0.0, 0.9)
    assert got == pytest.approx(L.value(0.9), abs=1e-12)


def test_antiderivative_basics():
    assert antiderivative(H.d1, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert antiderivative(H.d1, 0.0) == 0.0
    assert antiderivative(K.d1, -0.5) == pytest.approx(-2.0 / 9.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(rad=st.floats(0.05, 0.99), ang=st.floats(0, 2 * np.pi))
def test_path_independence(rad, ang):
    z = rad * np.exp(1j * ang)
    mid = z / 2 * (1 + 0.3j)
    if abs(mid) >= 1:
        mid = z / 2
    radial = integrate_segment(K.d1, 0.0, z)
    bent = integrate_segment(K.d1, 0.0, mid) + integrate_segment(K.d1, mid, z)
    assert abs(radial - bent) <= 10 * ABS_TOL * max(1.0, abs(radial))


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-0.7, 0.7), b=st.floats(-0.7, 0.7), c=st.floats(-0.7, 0.7))
def test_additivity(a, b, c):
    z0, z1, z2 = complex(a), complex(0, b), complex(c, c / 2)
    whole = integrate_segment(H.d1, z0, z2)
    split = integrate_segment(H.d1, z0, z1) + integrate_segment(H.d1, z1, z2)
    assert abs(whole - split) <= 10 * ABS_TOL


def test_linearity():
    f = lambda z: H.d1(z) + 2.5j * K.d1(z)
    got = integrate_segment(f, 0.0, 0.4 + 0.3j)
    ref = (integrate_segment(H.d1, 0.0, 0.4 + 0.3j)
           + 2.5j * integrate_segment(K.d1, 0.0, 0.4 + 0.3j))
    assert abs(got - ref) <= 10 * ABS_TOL


def test_segment_outside_disk_rejected():
    with pytest.raises(ValueError):
        integrate_segment(H.d1, 0.0, 1.2)
    with pytest.raises(ValueError):
        antiderivative_many(H.d1, np.array([0.5, 1.0 + 0j]))
    with pytest.raises(ValueError):        # refused at once, not after 40 levels
        antiderivative_many(H.d1, np.array([0.5, complex(np.nan, 0.0)]))


def test_tolerance_not_met_on_interior_pole():
    # pole at 0.5 sits on the path; bisection can never settle
    with pytest.raises(ToleranceNotMet):
        integrate_segment(lambda z: 1.0 / (z - 0.5), 0.0, 0.9, max_subdivisions=8)


def test_batch_tolerance_not_met_on_endpoint_pole():
    # log-divergent at the endpoint; grading never settles before the depth cap
    with pytest.raises(ToleranceNotMet):
        antiderivative_many(lambda z: 1.0 / (0.9 - z), [0.9])


def test_batch_agrees_with_scalar():
    rng = np.random.default_rng(3)
    zs = 0.95 * np.sqrt(rng.uniform(size=24)) * np.exp(2j * np.pi * rng.uniform(size=24))
    batch = antiderivative_many(K.d1, zs)
    ref = np.array([antiderivative(K.d1, z) for z in zs])
    assert np.abs(batch - ref).max() < 1e-11


@pytest.mark.parametrize("index", [0, 27, 60, 73])
def test_batch_values_equal_single_point_values_bit_for_bit(index):
    # each endpoint is frozen at its own depth from its own panels, so a
    # batch gives every point exactly what a call for that point alone gives
    h_prime = ShearSystem(H, family_from_spec(DEFAULT_FAMILY)[index], -1.0).h_prime
    rng = np.random.default_rng(index)
    zs = 0.999 * np.sqrt(rng.uniform(size=37)) * np.exp(2j * np.pi * rng.uniform(size=37))
    batch = antiderivative_many(h_prime, zs)
    assert np.array_equal(batch, [antiderivative_many(h_prime, z) for z in zs])


def test_one_integrand_call_per_grading_level():
    # the first call holds the depth0 head panels, the first estimate and the
    # first level; every later call is one level, two panels per endpoint
    # still refining, and no level is evaluated ahead of its test
    sizes = []

    def counted(fprime):
        def integrand(x):
            sizes.append(x.size)
            return fprime(x)
        return integrand
    antiderivative_many(counted(H.d1), np.array([0.3, 0.9, 0.999]))
    assert sizes[0] == 3 * (4 + 3) * ORDER
    refining = [n // (2 * ORDER) for n in sizes[1:]]
    assert len(refining) > 2 and all(n % (2 * ORDER) == 0 for n in sizes[1:])
    assert refining == sorted(refining, reverse=True) and refining[-1] == 1
    # a stalled endpoint is given up at MAX_DEPTH: one call, then one per level
    sizes.clear()
    with pytest.raises(ToleranceNotMet):
        antiderivative_many(counted(lambda z: 1.0 / (0.9 - z)), [0.9])
    assert len(sizes) == 1 + quadrature.MAX_DEPTH - (4 + 1)


def test_batch_near_boundary_accuracy():
    zs = 0.999 * np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    got = antiderivative_many(K.d1, zs)
    ref = K.value(zs)
    assert (np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max() < 1e-11


def test_stall_reports_the_stalled_point_count():
    # 1/(0.9 - z) + 1/(0.9j - z) stalls at the endpoints 0.9 and 0.9j only
    with pytest.raises(ToleranceNotMet, match="stalled for 2 points at grading depth 40"):
        antiderivative_many(lambda z: 1.0 / (0.9 - z) + 1.0 / (0.9j - z), [0.9, 0.9j, 0.5])


def test_all_zero_endpoints_never_call_the_integrand():
    def unreadable(z):
        raise AssertionError("integrand evaluated for endpoints at the origin")
    got = antiderivative_many(unreadable, np.zeros((2, 3)))
    assert got.shape == (2, 3) and not got.any()
    assert antiderivative_many(unreadable, 0.0).shape == ()


@pytest.mark.parametrize("r", [0.9, 0.999, 0.9999])
def test_chord_increments_match_closed_forms(r):
    # rows of circle samples through H's and the Koebe function's pole
    # direction; each increment is F(b) - F(a) up to the larger of the
    # increment and the position it starts from
    theta = np.linspace(-0.2, 0.2, 291).reshape(3, -1)
    zs = r * np.exp(1j * theta)
    for F in (H, K):
        incr, ok = chord_increments(F.d1, zs, F.value(zs[:, 0]))
        assert incr.shape == ok.shape == (3, 96) and ok.all()
        exact = F.value(zs[:, 1:]) - F.value(zs[:, :-1])
        scale = np.maximum(1.0, np.maximum(np.abs(exact), np.abs(F.value(zs[:, :-1]))))
        assert (np.abs(incr - exact) / scale).max() <= 1e-12


def test_kronrod_table():
    # QUADPACK's qk15 mapped to [0, 1]: K15 integrates t^k exactly for
    # k <= 22, and its embedded G7 rule is leggauss(7) under the same map
    t, wk, wg = quadrature._K15_T, quadrature._K15_WT, quadrature._G7_WT
    assert t.shape == wk.shape == wg.shape == (15,) and (np.diff(t) > 0).all()
    for k in range(23):
        assert abs((wk * t ** k).sum() - 1.0 / (k + 1)) <= 1e-15
    x, w = np.polynomial.legendre.leggauss(7)
    gauss = wg != 0
    assert gauss.sum() == 7
    assert np.abs(t[gauss] - (1.0 + x) / 2.0).max() <= 1e-15
    assert np.abs(wg[gauss] - w / 2.0).max() <= 1e-15
    assert wk.sum() == pytest.approx(1.0, abs=1e-15)
    assert wg.sum() == pytest.approx(1.0, abs=1e-15)


def test_zero_length_chords_add_exactly_nothing():
    zs = np.array([[0.5, 0.5, 0.5j, 0.5j]])
    incr, ok = chord_increments(H.d1, zs, H.value(zs[:, 0]))
    assert ok.all() and incr[0, 0] == 0 and incr[0, 2] == 0 and incr[0, 1] != 0


def test_acceptance_target_is_abs_tol_or_the_float_floor():
    # |new - old| <= max(ABS_TOL, 1024 eps |I|): no relative term on top of ABS_TOL
    assert not _converged(np.array([1.005e-12]), np.array([0.0]), 1.0)
    for scale in (1.0, 1e3):
        target = max(ABS_TOL, 1024 * np.finfo(float).eps * scale)
        assert _converged(np.array([target]), np.array([0.0]), scale)
        assert not _converged(np.array([np.nextafter(target, 1.0)]), np.array([0.0]), scale)
