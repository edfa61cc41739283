"""Circle samples chained along chords against the radial route."""

from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import shearconvex.probe
from shearconvex import quadrature
from shearconvex.functions import CatalogId, MonomialOmega, catalog, make_schwarz
from shearconvex.geometry import sample_boundary
from shearconvex.probe import WINDING_BLOCK, WINDING_SAMPLES, _WindingCurves
from shearconvex.quadrature import chord_increments
from shearconvex.shear import (CHAIN_STRIDE, HarmonicMap, ShearSystem,
                               analytic_combination, harmonic_from_analytic,
                               shear_construct)
from shearconvex.specs import DEFAULT_FAMILY, family_from_spec, parse_phi

from oracles import RadialWindingCurves, full_round_winding, witness_queries

DRIFT = 1e-11                   # relative to max(1, |radial|), as the f0 pin
LADDER = (0.9, 0.99, 0.999)     # the sweep workloads' ladder
FAMILY = family_from_spec(DEFAULT_FAMILY)
XI = complex(np.exp(1.3231j))   # a certify-rot grid angle whose curve whips hardest
H = catalog(CatalogId("H"))


def _hrot(xi):
    return ShearSystem(parse_phi(f"H@rot:re={xi.real!r},im={xi.imag!r}"),
                       make_schwarz(MonomialOmega(-xi, 1)), -1.0)


SYSTEMS = {
    "H, blaschke #27": ShearSystem(H, FAMILY[27], -1.0),
    "H, monomial #60": ShearSystem(H, FAMILY[60], -1.0),
    "L_i, blaschke #27": ShearSystem(parse_phi("Llambda:re=0.0,im=1.0"), FAMILY[27], -1.0),
    "H@rot 1.3231, -xi z": _hrot(XI),
    "f0": ShearSystem(H, make_schwarz(MonomialOmega(1.0, 1)), 1.0),
}
RADII = (0.99, 0.999, 0.9995, 0.9999)


def _drift(f, r, theta, hg, ref=None):
    """Largest relative distance of the curve hg from ``ref``, by default the
    radial route, at r e^{i theta}."""
    got = hg[0] + np.conj(hg[1])
    if ref is None:
        ref = f.map_points(r * np.exp(1j * theta))
    return float((np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max())


def _hrot_exact(xi, z) -> np.ndarray:
    """f of the shear (H@rot:xi, -xi z, -1) at the float points z, in mpmath:
    h' = 1/(1 - xi z)^3, so h = ((1 - xi z)^-2 - 1) / (2 xi), and g = phi - h
    with phi = z/(1 - xi z)."""
    out = []
    with mp.workdps(30):
        x = mp.mpc(xi)
        for p in z:
            w = 1 - x * mp.mpc(p)
            h = (w ** -2 - 1) / (2 * x)
            out.append(complex(h + mp.conj(mp.mpc(p) / w - h)))
    return np.array(out)


@pytest.mark.parametrize("r", RADII)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_chained_positions_stay_on_the_radial_route(name, r):
    f = shear_construct(SYSTEMS[name])
    theta = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    hg = f.parts_on_circle(r, theta)
    assert hg.shape == (2, 2048)
    assert _drift(f, r, theta, hg) <= DRIFT
    # the stride anchors are the radial values themselves
    z = r * np.exp(1j * theta[::CHAIN_STRIDE])
    assert np.array_equal(hg[:, ::CHAIN_STRIDE], np.stack(f.parts(z)))


def test_boundary_curves_take_the_circle_route(monkeypatch):
    # BoundaryCurve.gamma comes from parts_on_circle and never from
    # map_points: shears stay within DRIFT of the radial route, and zero-omega
    # maps (read point by point) are the radial route bit for bit
    li_shear = shear_construct(ShearSystem(parse_phi("Llambda:re=0.0,im=1.0"),
                                           make_schwarz(MonomialOmega(-1.0, 1)), -1.0))
    shears = [sample_boundary(shear_construct(SYSTEMS["f0"]), 0.99, 4096),
              sample_boundary(shear_construct(SYSTEMS["f0"]), 0.9999, 4096),
              sample_boundary(shear_construct(SYSTEMS["H, blaschke #27"]), 0.999, 4096)]
    zero_omega = [sample_boundary(harmonic_from_analytic(phi), 0.999, 4096)
                  for phi in (H, catalog(CatalogId("KOEBE")),
                              analytic_combination(li_shear, 0.0))]
    radial = [c.f.map_points(c.r * np.exp(1j * c.theta)) for c in shears + zero_omega]

    def refuse(self, zs):
        raise AssertionError("a boundary curve placed its points radially")
    monkeypatch.setattr(HarmonicMap, "map_points", refuse)
    for c, ref in zip(shears, radial):
        hg = c.f.parts_on_circle(c.r, c.theta)
        assert np.array_equal(c.gamma, hg[0] + np.conj(hg[1]))
        assert (np.abs(c.gamma - ref) / np.maximum(1.0, np.abs(ref))).max() <= DRIFT
    for c, ref in zip(zero_omega, radial[len(shears):]):
        assert np.array_equal(c.gamma, ref)


@pytest.mark.parametrize("shape", [(1,), (300,), (3, 1), (3, 200)])
def test_grids_of_any_length_chain(shape):
    # rows shorter than, or not a multiple of, CHAIN_STRIDE; the first point
    # of every row is a radial anchor
    f = shear_construct(SYSTEMS["f0"])
    theta = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
    hg = f.parts_on_circle(0.99, theta)
    assert hg.shape == (2,) + shape
    assert _drift(f, 0.99, theta.ravel(), hg.reshape(2, -1)) <= DRIFT
    rows = theta.reshape(-1, shape[-1])
    assert np.array_equal(hg.reshape(2, rows.shape[0], -1)[:, :, 0],
                          np.stack(f.parts(0.99 * np.exp(1j * rows[:, 0]))))


@pytest.mark.parametrize("r", [0.999, 0.9999])
def test_maps_without_a_pair_chain_their_d1_channels(r):
    # Koebe as the zero-omega shear is read point by point and must match
    # the radial route; every map now carries its datum and derivative
    # pairs, so no map without a pair is left to chain
    theta = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    f = harmonic_from_analytic(catalog(CatalogId("KOEBE")))
    assert _drift(f, r, theta, f.parts_on_circle(r, theta)) <= DRIFT


@pytest.mark.parametrize("name", ["H, blaschke #27", "H@rot 1.3231, -xi z"])
def test_refined_subpoints_on_a_pole_step(name):
    # the steps around phi's pole are refined three rounds deep, each round
    # chained from the previous round's chained points
    f = shear_construct(SYSTEMS[name])
    pole = 0.0 if name.startswith("H,") else float(np.angle(np.conj(XI)) % (2.0 * np.pi))
    r = 0.9999
    curves = _WindingCurves(f)
    base = theta = curves._base(r)[0]
    for _ in range(3):
        gap = np.abs(np.angle(np.exp(1j * (theta - pole))))
        theta, gamma = curves._refine(r, theta, np.sort(np.argsort(gap, kind="stable")[:4]))
    # phi's pole is h's only pole on the circle: for H@rot the zero of
    # 1 - eta*omega (omega = -xi z) has the same angle and is listed once; the
    # Blaschke omega adds none.  At r = 0.9999 the base grid holds the pole and
    # 5 angles on each side of it, at 1e-4 * 2^k, on top of the uniform angles
    # (H's pole angle 0 is one of those)
    poles = f.shear.pole_angles
    assert poles.size == 1 and np.allclose(poles, pole)
    uniform = np.linspace(0.0, 2.0 * np.pi, WINDING_SAMPLES, endpoint=False)
    graded = np.setdiff1d(base, uniform)
    assert graded.size == 11 - np.isin(poles, uniform).sum()
    assert np.abs(np.angle(np.exp(1j * (graded - pole)))).max() < np.pi / WINDING_SAMPLES
    assert np.isin(poles, theta).all() and np.isin(base, theta).all()
    assert theta.size == base.size + 7 * 4 * 3
    hg = curves._curves[r][2]
    assert np.array_equal(gamma, hg[0] + np.conj(hg[1]))
    # within 2e-4 of H@rot's pole |f| falls to |h| / 20 (h - conj(h) cancels),
    # and there the radial route itself is 1.3e-11 off; the closed form is not
    exact = None if name.startswith("H,") else _hrot_exact(XI, r * np.exp(1j * theta))
    assert _drift(f, r, theta, hg, exact) <= DRIFT


def test_a_capped_step_ends_on_the_radial_value(monkeypatch):
    # with one bisection level two steps at H's pole at r = 0.9999 cannot
    # converge: one climbs into the pole by more than 8x, so only the cap makes
    # its end an anchor, and one descends out of it; every capped end must be
    # the radial value bit for bit
    monkeypatch.setattr(quadrature, "CHORD_LEVELS", 1)
    f = shear_construct(SYSTEMS["H, blaschke #27"])
    r = 0.9999
    theta = np.linspace(-0.3, 0.3, 2 * CHAIN_STRIDE) + 0.001
    z = r * np.exp(1j * theta)
    start = f.h.value(z[::CHAIN_STRIDE])
    _, ok = chord_increments(f.h.d1_fn, z.reshape(2, CHAIN_STRIDE), start)
    block, step = np.nonzero(~ok)
    after = block * CHAIN_STRIDE + step + 1
    ref = np.stack(f.parts(z))
    assert after.size and (np.abs(ref[0, after]) > 8.0 * np.abs(ref[0, after - 1])).any()
    hg = f.parts_on_circle(r, theta)
    assert np.array_equal(hg[:, after], ref[:, after])
    assert _drift(f, r, theta, hg) <= DRIFT


@pytest.mark.parametrize("name", ["H, blaschke #27", "H, monomial #60", "H@rot 1.3231, -xi z"])
def test_winding_parity_with_radial_positions(name):
    f = shear_construct(SYSTEMS[name])
    queries = witness_queries(f, LADDER)
    assert sum(len(batch) for batch, _ in queries) >= 100
    chained, radial = _WindingCurves(f), RadialWindingCurves(f)
    base = {r: chained._base(r)[0].size for _, r in queries}
    got = [chained.winding(batch, r) for batch, r in queries]
    assert got == [radial.winding(batch, r) for batch, r in queries]
    got = [w for ws in got for w in ws]
    assert 1 in got and (0 in got) == name.startswith("H@rot")
    refined = 0
    for r in radial._curves:       # the same steps were refined
        assert np.array_equal(chained._curves[r][0], radial._curves[r][0])
        refined += chained._curves[r][0].size - base[r]
    assert refined > 0


def _synthetic_queries(f):
    """One batch at r = 0.999 that meets every case of the two-level judge.

    The curve has 1,032 base samples, so its last block is 8 steps long and
    wraps to theta = 0.  ``inside`` lies in the bounding disk of the block
    holding step k but on none of its samples, and stays unsettled there;
    ``opposite`` stays unsettled across the curve, more than 5 rho from that
    block, whose refined steps its kept sum must leave out; ``on`` is a
    sample; ``wrap`` sits on the chord of the wrap step.
    Returns the queries and the theta windows that refinement must split."""
    r = 0.999
    theta, gamma, _ = _WindingCurves(f)._base(r)
    n = theta.size
    assert n % WINDING_BLOCK == 8
    k, j = 5 * WINDING_BLOCK + 10, n // 2
    block = gamma[k - 10:k - 10 + WINDING_BLOCK + 1]
    c = (block[0] + block[-1]) / 2.0
    rho = np.abs(block - c).max()
    inside = (gamma[k] + gamma[k + 2]) / 2.0
    opposite = (gamma[j] + gamma[j + 2]) / 2.0
    assert abs(inside - c) < rho and np.abs(block - inside).min() > 0.0
    assert abs(opposite - c) > 5.0 * rho
    on, wrap = gamma[300], (gamma[-1] + gamma[0]) / 2.0
    windows = [(theta[k], theta[k + 2]), (theta[j], theta[j + 2]), (theta[-1], 2.0 * np.pi)]
    return [([inside, on, opposite, wrap], r)], windows


@pytest.mark.parametrize("curves", [_WindingCurves])
@pytest.mark.parametrize("name", ["H, blaschke #27", "H, monomial #60", "H@rot 1.3231, -xi z",
                                  "L_i, blaschke #27"])
def test_incremental_rounds_match_full_rounds(name, curves, monkeypatch):
    # later rounds judge only the steps refinement made; judging every step
    # in every round gives the same windings from the same refinements, and
    # the same argument sums before they are rounded; L_i's batch is
    # synthetic (see _synthetic_queries), the others are witness searches
    f = shear_construct(SYSTEMS[name])
    queries, windows = (_synthetic_queries(f) if name.startswith("L_i")
                        else (witness_queries(f, LADDER), []))
    fast, full = curves(f), curves(f)
    base = sum(full._base(r)[0].size for r in {r for _, r in queries})
    fast_sums, full_sums = [], []

    def recording_round(x, *a, **k):
        fast_sums.extend(np.ravel(x))
        return np.round(x, *a, **k)
    monkeypatch.setattr(shearconvex.probe, "np",
                        SimpleNamespace(**{**vars(np), "round": recording_round}))
    got = [fast.winding(batch, r) for batch, r in queries]
    monkeypatch.undo()
    assert got == [full_round_winding(full, batch, r, full_sums) for batch, r in queries]
    assert np.allclose(fast_sums, full_sums, rtol=0.0, atol=1e-9)
    for r in full._curves:
        assert np.array_equal(fast._curves[r][0], full._curves[r][0])
    assert sum(c[0].size for c in full._curves.values()) > base
    for lo, hi in windows:
        assert any(((t > lo) & (t < hi)).any() for t, _, _ in full._curves.values())
    if windows:
        assert got == [[0, None, 1, 1]]         # on a sample: None


def test_refinement_inserts_samples_in_curve_order():
    # the new samples of a refined step go right after its first sample, so
    # every old sample keeps its bits and moves 7 places per refined step
    # before it, including the samples of the wrap step from the last sample
    # back to theta = 0
    f = shear_construct(SYSTEMS["H, blaschke #27"])
    r = 0.999
    curves = _WindingCurves(f)
    theta = curves._base(r)[0]
    samples = [(theta, curves._curves[r][2])]
    for _ in range(2):
        old, old_hg = theta, curves._curves[r][2]
        first = np.array([0, 5, old.size - 1])
        theta, gamma = curves._refine(r, old, first)
        hg = curves._curves[r][2]
        assert theta.size == old.size + 21 and (np.diff(theta) > 0.0).all()
        at = np.arange(old.size) + 7 * np.searchsorted(first, np.arange(old.size))
        assert np.array_equal(theta[at], old) and np.array_equal(hg[:, at], old_hg)
        assert np.array_equal(gamma, hg[0] + np.conj(hg[1]))
        new = np.ones(theta.size, dtype=bool)
        new[at] = False
        samples.append((theta[new], hg[:, new]))
    merged_theta = np.concatenate([t for t, _ in samples])
    order = np.argsort(merged_theta)
    assert np.array_equal(theta, merged_theta[order])
    assert np.array_equal(hg, np.concatenate([v for _, v in samples], axis=1)[:, order])
