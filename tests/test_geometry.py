import warnings

import numpy as np
import pytest

from shearconvex import geometry
from shearconvex.functions import CatalogId, MonomialOmega, catalog, make_schwarz
from shearconvex.geometry import (MAX_TRUSTED_STEP, TURNING_SAMPLES,
                                  convexity_check_resolved,
                                  directional_convexity_check,
                                  parabola_residual, sample_boundary,
                                  turning_increments, verdict_from_increments)
from shearconvex.probe import _WindingCurves
from shearconvex.shear import ShearSystem, harmonic_from_analytic, shear_construct
from shearconvex.specs import DEFAULT_FAMILY, DEFAULT_RADII, family_from_spec, parse_phi

from oracles import convexity_check, discrete_winding, full_increment_check, turning_rate

IDENTITY = harmonic_from_analytic(catalog(CatalogId("IDENTITY")))
H_MAP = harmonic_from_analytic(catalog(CatalogId("H")))
KOEBE = harmonic_from_analytic(catalog(CatalogId("KOEBE")))


@pytest.fixture(scope="module")
def f0():
    return shear_construct(ShearSystem(catalog(CatalogId("H")),
                                       make_schwarz(MonomialOmega(1.0, 1)), 1.0))


def test_identity_curve_is_a_circle():
    c = sample_boundary(IDENTITY, 0.5, 256)
    assert np.abs(np.abs(c.gamma) - 0.5).max() < 1e-14
    z = 0.5 * np.exp(1j * c.theta)
    assert np.abs(c.tangent - 1j * z).max() < 1e-14
    rep = convexity_check(c)
    assert rep.verdict == "CONVEX"
    assert rep.total_turning == pytest.approx(2 * np.pi, abs=1e-9)


def test_halfplane_image_is_convex():
    rep = convexity_check(sample_boundary(H_MAP, 0.9, 4096))
    assert rep.verdict == "CONVEX"


def test_f0_not_convex_at_099_with_witness_near_pi(f0):
    curve, rep = convexity_check_resolved(f0, 0.99)
    assert rep.verdict == "NON_CONVEX"
    assert rep.worst_backturn > 1.0
    a, b = rep.witness
    width = (b - a) % (2 * np.pi)
    rel = (np.pi - a) % (2 * np.pi)
    assert rel <= width   # the reversal window contains theta = pi


def test_koebe_radius_of_convexity():
    # brute-force turning verdicts bracket 2 - sqrt(3) ~ 0.268
    assert convexity_check(sample_boundary(KOEBE, 0.25, 4096)).verdict == "CONVEX"
    assert convexity_check(sample_boundary(KOEBE, 0.5, 4096)).verdict == "NON_CONVEX"
    # analytic-map oracle: boundary curve convex iff Re(1 + z k''/k') >= 0
    for r, expect in ((0.25, True), (0.5, False)):
        z = r * np.exp(2j * np.pi * np.arange(4096) / 4096)
        _, d1, d2 = catalog(CatalogId("KOEBE")).eval(z)
        assert bool((1 + z * d2 / d1).real.min() >= 0) == expect


@pytest.mark.parametrize("fmap,r", [(IDENTITY, 0.5), (H_MAP, 0.5), (KOEBE, 0.4)])
def test_tangents_match_centered_differences(fmap, r):
    c = sample_boundary(fmap, r, 4096)
    dth = 2 * np.pi / c.n
    fd = (np.roll(c.gamma, -1) - np.roll(c.gamma, 1)) / (2 * dth)
    assert (np.abs(fd - c.tangent) / np.abs(c.tangent)).max() < 1e-5


def test_shear_tangents_match_centered_differences(f0):
    c = sample_boundary(f0, 0.4, 4096)
    dth = 2 * np.pi / c.n
    fd = (np.roll(c.gamma, -1) - np.roll(c.gamma, 1)) / (2 * dth)
    assert (np.abs(fd - c.tangent) / np.abs(c.tangent)).max() < 1e-5


@pytest.mark.parametrize("fmap,r", [(IDENTITY, 0.9), (H_MAP, 0.9), (KOEBE, 0.5)])
def test_total_turning_is_one_lap(fmap, r):
    rep = convexity_check(sample_boundary(fmap, r, 4096))
    assert rep.total_turning == pytest.approx(2 * np.pi, abs=1e-3)


def test_convex_verdict_implies_all_directions_pass():
    c = sample_boundary(H_MAP, 0.9, 4096)
    assert convexity_check(c).verdict == "CONVEX"
    for t in np.arange(64) * np.pi / 64:
        assert directional_convexity_check(c, t).passed


def test_koebe_directions_at_0999():
    c = sample_boundary(KOEBE, 0.999, 4096)
    assert directional_convexity_check(c, 0.0).passed
    assert not directional_convexity_check(c, np.pi / 2).passed
    passing = [t for t in np.arange(64) * np.pi / 64
               if directional_convexity_check(c, t).passed]
    assert passing == [0.0]


def test_winding_number_basics():
    # the package's one winding routine, on the circle of radius 0.5: one
    # mixed batch answers in input order, as one-point batches on fresh
    # curves do; 0.5 is the curve's sample at theta = 0 exactly, which is
    # set aside before its zero distance is divided by
    batch = [0.0, 1.0, 0.5, 100.0 + 100.0j]     # inside, outside, on, far outside
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        curves = _WindingCurves(IDENTITY)
        got = curves.winding(batch, 0.5)
        alone = [_WindingCurves(IDENTITY).winding([m], 0.5)[0] for m in batch]
        assert curves.winding([], 0.5) == []
    assert got == [1, 0, None, 0]
    assert alone == got


def test_f0_midpoint_escape_witness(f0):
    # midpoint of f0(+-0.98i) sits left of the parabola vertex, outside the
    # image; frozen from direct evaluation of the closed forms
    m = complex(f0.map_points(0.98j) + f0.map_points(-0.98j)) / 2
    assert m.real == pytest.approx(-0.49979598082432, abs=1e-10)
    assert abs(m.imag) < 1e-12
    c = sample_boundary(f0, 0.99, 4096)
    assert discrete_winding(c.gamma, m) == 0
    assert discrete_winding(c.gamma, 0.0) == 1


def test_parabola_residual_ladder(f0):
    res = {r: parabola_residual(sample_boundary(f0, r, 4096))
           for r in (0.9, 0.99, 0.999, 0.9999)}
    assert res[0.9999] <= 5e-3
    assert res[0.9] > res[0.999]            # monotone approach to the parabola
    assert res[0.99] > res[0.999] > res[0.9999]


def test_parabola_residual_sanity_far_from_parabola():
    res = parabola_residual(sample_boundary(IDENTITY, 0.5, 4096))
    assert res == pytest.approx(0.75, abs=0.01)    # 1/4 + r at theta ~ 0


def test_rotation_equivariance(f0):
    n = 4096
    c = sample_boundary(f0, 0.9, n)
    # conj(xi) f0(xi z) at xi = i is the shear of (H@rot:i, -i z, -1)
    f0_rot = shear_construct(ShearSystem(parse_phi("H@rot:re=0.0,im=1.0"),
                                         make_schwarz(MonomialOmega(-1j, 1)), -1.0))
    c_rot = sample_boundary(f0_rot, 0.9, n)
    # theta shift by arg(xi) = pi/2 is n/4 samples on this grid
    shift = n // 4
    assert np.abs(c_rot.gamma - np.conj(1j) * np.roll(c.gamma, -shift)).max() < 1e-9
    assert convexity_check(c_rot).verdict == convexity_check(c).verdict


def test_verdict_from_increments_is_the_same_entry_point(f0):
    c = sample_boundary(f0, 0.9, 4096)
    inc = turning_increments(c.tangent)
    rep = verdict_from_increments(inc, c.theta)
    assert rep.verdict == convexity_check(c).verdict


def test_under_resolved_curves_are_inconclusive():
    # at r = 0.999 with 512 samples the H curve's tangent wraps too fast
    rep = convexity_check(sample_boundary(H_MAP, 0.999, 512))
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.max_step > 1.5
    curve, rep2 = convexity_check_resolved(H_MAP, 0.999, 512)
    assert rep2.verdict == "CONVEX"


def test_near_boundary_flag():
    assert not sample_boundary(IDENTITY, 0.9, 64).near_boundary
    assert sample_boundary(IDENTITY, 0.999, 64).near_boundary


def test_sample_boundary_validation():
    with pytest.raises(ValueError):
        sample_boundary(IDENTITY, 1.0, 256)
    with pytest.raises(ValueError):
        sample_boundary(IDENTITY, 0.5, 32)


def test_unit_circle_tables_are_shared_read_only_and_bounded():
    c = sample_boundary(IDENTITY, 0.5, 4096)
    theta, u = geometry._unit_circle(4096)
    assert c.theta is theta
    assert not theta.flags.writeable and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 0.0
    maxsize = geometry._unit_circle.cache_info().maxsize
    assert maxsize is not None
    for n in range(64, 64 + maxsize + 3):
        sample_boundary(IDENTITY, 0.5, n)
    assert geometry._unit_circle.cache_info().currsize <= maxsize


@pytest.mark.parametrize("n", [4096, 16384, 65536])
def test_tangents_equal_the_direct_evaluation(f0, n):
    # the shared table e^{i theta} scaled by r is the circle point itself
    r = 0.999
    c = sample_boundary(f0, r, n)
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    z = r * np.exp(1j * theta)
    h1, g1 = f0.derivatives(z)
    assert np.array_equal(c.theta, theta)
    assert np.array_equal(c.tangent, 1j * z * h1 - 1j * np.conj(z * g1))


def _hrot(angle):
    xi = complex(np.exp(1j * angle))
    return shear_construct(ShearSystem(parse_phi(f"H@rot:re={xi.real!r},im={xi.imag!r}"),
                                       make_schwarz(MonomialOmega(-xi, 1)), -1.0))


@pytest.mark.parametrize("name,r", [("H@rot 1.3231", 0.999), ("f0", 0.99), ("H", 0.999)])
def test_refined_curves_keep_the_base_and_exact_tangents(f0, name, r):
    # the refined curve is the uniform base plus split steps, in curve order;
    # a resolved verdict has no step above the trust limit, and every tangent,
    # base or inserted, is the direct evaluation bit for bit
    f = {"H@rot 1.3231": _hrot(1.3231), "f0": f0, "H": H_MAP}[name]
    base = sample_boundary(f, r, TURNING_SAMPLES)
    curve, rep = convexity_check_resolved(f, r)
    assert curve.n == rep.n == curve.theta.size > TURNING_SAMPLES
    assert (np.diff(curve.theta) > 0.0).all() and curve.theta[-1] < 2.0 * np.pi
    kept = np.isin(curve.theta, base.theta)
    assert kept.sum() == TURNING_SAMPLES
    assert np.array_equal(curve.tangent[kept], base.tangent)
    assert rep.verdict != "INCONCLUSIVE"
    assert rep.max_step <= MAX_TRUSTED_STEP
    z = r * np.exp(1j * curve.theta)
    h1, g1 = f.derivatives(z)
    assert np.array_equal(curve.tangent, 1j * z * h1 - 1j * np.conj(z * g1))
    assert rep == verdict_from_increments(turning_increments(curve.tangent), curve.theta)


@pytest.mark.parametrize("phi", ["H", "Llambda:re=0.0,im=1.0"])
def test_default_family_verdicts_agree_with_the_turning_rate(phi):
    # every level curve of the default family resolves, and it is NON_CONVEX
    # exactly when the closed-form turning rate is negative at a base angle
    theta = np.linspace(0.0, 2.0 * np.pi, TURNING_SAMPLES, endpoint=False)
    mismatched = []
    for omega in family_from_spec(DEFAULT_FAMILY):
        f = shear_construct(ShearSystem(parse_phi(phi), omega, -1.0))
        for r in DEFAULT_RADII:
            _, rep = convexity_check_resolved(f, r)
            back = bool((turning_rate(f, r, theta) < -1e-6).any())
            if rep.verdict == "INCONCLUSIVE" or (rep.verdict == "NON_CONVEX") != back:
                mismatched.append((omega.spec.text, r, rep.verdict, back))
    assert mismatched == []


def test_without_refinement_rounds_the_f0_curve_is_inconclusive(f0, monkeypatch):
    monkeypatch.setattr(geometry, "REFINE_MAX_ROUNDS", 0)
    curve, rep = convexity_check_resolved(f0, 0.99)
    assert rep.verdict == "INCONCLUSIVE" and rep.max_step > 1.5
    assert curve.n == TURNING_SAMPLES


def test_only_the_split_steps_get_new_increments(f0):
    # a refinement round recomputes the turning increments of the split steps'
    # 8 parts alone; the report and the refined curve are those of a loop
    # that recomputes every width and increment over the whole curve in every
    # round.  The wrap-around step (index n - 1 to 0) is split too
    cases = [(shear_construct(ShearSystem(parse_phi("H"), family_from_spec(DEFAULT_FAMILY)[0],
                                          -1.0)), 0.999),
             (_hrot(1.3231), 0.999), (KOEBE, 0.999), (f0, 0.99)]
    wrapped = 0
    for f, r in cases:
        splits = []
        ref_curve, ref = full_increment_check(f, r, splits)
        curve, rep = convexity_check_resolved(f, r)
        assert splits and rep.n > TURNING_SAMPLES
        assert rep == ref
        assert np.array_equal(curve.theta, ref_curve.theta)
        assert np.array_equal(curve.tangent, ref_curve.tangent)
        wrapped += sum(n - 1 in first for n, first in splits)
    assert wrapped > 0
