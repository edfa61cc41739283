import collections
import itertools
import json
import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shearconvex.probe
from shearconvex.functions import (BlaschkeOmega, CatalogId, MonomialOmega,
                                   catalog, make_schwarz)
from shearconvex.geometry import (NON_CONVEX_BACKTURN, TURNING_SAMPLES, ConvexityReport,
                                  convexity_check_resolved, directional_convexity_check,
                                  sample_boundary)
from shearconvex.probe import (NEWTON_CAP_STRIKES, NEWTON_ITERS, NEWTON_R_CAP, NEWTON_TOL,
                               ONSET_STEPS, WINDING_SAMPLES, ProbeConfig,
                               _WindingCurves, _disk_ends, _extension_radii, _strip_ends,
                               midpoint_certificate, newton_preimage, probe_admissibility,
                               slice_judge)
from shearconvex.quadrature import ToleranceNotMet
from shearconvex.shear import (HarmonicMap, ShearSystem, analytic_combination,
                               harmonic_from_analytic, shear_construct)
from shearconvex.specs import DEFAULT_FAMILY, family_from_spec, parse_omega, parse_phi

from oracles import witness_queries

SMALL_FAMILY = "mixed:phases=4,nmax=2,count=6,deg=2,seed=11"


@pytest.fixture(scope="module")
def f0_report():
    cfg = ProbeConfig(phi_spec="H", eta=1.0 + 0.0j,
                      family_spec="explicit:monomial:N=1")
    return cfg, probe_admissibility(cfg)


def test_horizontal_shear_of_h_fails(f0_report):
    cfg, rep = f0_report
    assert rep.summary == "FAILURE"
    assert len(rep.failures) == 1
    w = rep.failures[0]
    assert w.r == 0.9              # already back-turning at the ladder floor
    assert w.midpoint.real < -0.25 + 1e-3   # escapes past the parabola vertex
    assert len(w.persists_at) >= 2


def test_failure_witness_is_reproducible(f0_report):
    cfg, rep = f0_report
    w = rep.failures[0]
    f = shear_construct(ShearSystem(parse_phi(cfg.phi_spec),
                                    parse_omega(w.omega_spec), cfg.eta))
    _, check = convexity_check_resolved(f, w.r)
    assert check.verdict == "NON_CONVEX"
    # the certificate midpoint stays outside at every recorded radius
    for r in w.persists_at:
        assert _WindingCurves(f).winding([w.midpoint], r) == [0]
    assert newton_preimage(f, w.midpoint) is None


def test_vertical_shears_of_h_probe_clean():
    rep = probe_admissibility(ProbeConfig(phi_spec="H", eta=-1.0 + 0.0j,
                                          family_spec=SMALL_FAMILY))
    assert rep.summary == "NO_FAILURE_FOUND"
    assert "does not prove admissibility" in rep.to_jsonable()["disclaimer"]


def _monomial(lam: complex) -> str:
    return f"explicit:monomial:lam_re={lam.real!r},lam_im={lam.imag!r},N=1"


@settings(max_examples=32, deadline=None)
@given(angle=st.floats(0.25, 2.0 * np.pi - 0.25).filter(lambda a: abs(a - np.pi) >= 0.25))
def test_rotated_half_plane_verdicts_do_not_depend_on_the_frame(angle):
    # conj(xi) f(xi z) for the shear f of (H, -conj(xi)^2 z, -xi^2), whose
    # h' has its pole at z = 1, is the shear of (H@rot:xi, -xi z, -1), whose
    # pole sits at conj(xi): both frames must reach the same summary
    xi = complex(np.exp(1j * angle))
    rotated = probe_admissibility(ProbeConfig(
        phi_spec=f"H@rot:re={xi.real!r},im={xi.imag!r}", eta=-1.0 + 0.0j,
        family_spec=_monomial(-xi)))
    pole = probe_admissibility(ProbeConfig(phi_spec="H", eta=-xi * xi,
                                           family_spec=_monomial(-xi.conjugate() ** 2)))
    assert rotated.summary == pole.summary == "FAILURE"


def test_probe_json_config_block_is_pinned(f0_report):
    _, rep = f0_report
    assert json.loads(rep.to_json())["config"] == {
        "eta": "1.0,0.0", "family": "explicit:monomial:N=1", "n_samples": 4096,
        "phi": "H", "radii": [0.9, 0.99, 0.999], "tol_backturn": 1e-06}


def _failing_check(exc):
    def check(*a, **k):
        raise exc
    return check


def test_probe_programming_error_propagates(monkeypatch):
    monkeypatch.setattr(shearconvex.probe, "convexity_check_resolved",
                        _failing_check(TypeError("bad argument")))
    with pytest.raises(TypeError):
        probe_admissibility(ProbeConfig(phi_spec="H", eta=-1.0 + 0.0j,
                                        family_spec="explicit:monomial:N=1"))


def test_probe_records_numerical_failure_per_omega(monkeypatch):
    monkeypatch.setattr(shearconvex.probe, "convexity_check_resolved",
                        _failing_check(ToleranceNotMet("stalled")))
    rep = probe_admissibility(ProbeConfig(phi_spec="H", eta=-1.0 + 0.0j,
                                          family_spec="explicit:monomial:N=1"))
    (key,) = rep.per_omega
    assert rep.per_omega[key] == {"error": "ToleranceNotMet: stalled"}
    assert any(key in note and "stalled" in note for note in rep.notes)
    assert rep.summary == "INCOMPLETE"
    assert json.loads(rep.to_json())["summary"] == "INCOMPLETE"


def test_probe_determinism_byte_identical():
    cfg = ProbeConfig(phi_spec="H", eta=-1.0 + 0.0j, family_spec=SMALL_FAMILY)
    a = probe_admissibility(cfg).to_json()
    b = probe_admissibility(cfg).to_json()
    assert a.encode() == b.encode()


def test_family_generation():
    fam = family_from_spec("mixed:phases=8,nmax=3,count=50,deg=3,seed=7")
    assert len(fam) == 74
    labels = [w.spec.text for w in fam]
    assert labels == sorted(labels)
    assert family_from_spec("mixed:phases=8,nmax=3,count=50,deg=3,seed=7") is not fam
    assert [w.spec.text for w in family_from_spec(
        "mixed:phases=8,nmax=3,count=50,deg=3,seed=7")] == labels


def test_scale_coherence_not_violated_for_f0(f0_report):
    _, rep = f0_report
    assert not any("coherence" in n for n in rep.notes)


def test_ladder_bookkeeping_on_a_convex_nonconvex_alternation(monkeypatch):
    # verdicts C, N, C, N up the ladder: the first NON_CONVEX radius is the
    # witness, the CONVEX radius below it floors the onset bisection, and only
    # the CONVEX radius above it gets a scale-coherence note
    ladder = (0.5, 0.6, 0.7, 0.8)
    letters = dict(zip(ladder, ("CONVEX", "NON_CONVEX", "CONVEX", "NON_CONVEX")))
    monkeypatch.setattr(shearconvex.probe, "convexity_check_resolved", lambda f, r: (
        None, ConvexityReport(letters[r], 2.0 * np.pi, 0.0 if letters[r] == "CONVEX" else 0.1,
                              None if letters[r] == "CONVEX" else (1.0, 2.0), 0.1, 4096)))
    monkeypatch.setattr(shearconvex.probe, "_persistent_witness",
                        lambda f, cfg, reports: (0.8, -1.0 + 0j, (0.9,)))
    onsets = []
    monkeypatch.setattr(shearconvex.probe, "_onset_radius",
                        lambda f, r_fail, r_floor: onsets.append((r_fail, r_floor)) or 0.55)
    rep = probe_admissibility(ProbeConfig(phi_spec="H", eta=-1.0 + 0.0j,
                                          family_spec="explicit:monomial:N=1", radii=ladder))
    key = "monomial:lam_re=1.0,lam_im=0.0,N=1"
    assert rep.notes == [f"scale coherence violated for omega={key}: "
                         "CONVEX at r=0.7 above NON_CONVEX at r=0.6"]
    assert onsets == [(0.6, 0.5)]
    [w] = rep.failures
    assert (w.omega_spec, w.r, w.theta_window, w.r_onset) == (key, 0.6, (1.0, 2.0), 0.55)
    assert [rows["verdict"] for rows in rep.per_omega[key].values()] == list(letters.values())


def test_newton_preimage_finds_interior_points():
    f = shear_construct(ShearSystem(catalog(CatalogId("H")),
                                    make_schwarz(MonomialOmega(-1.0, 1)), -1.0))
    w = complex(f.map_points(0.4 + 0.3j))
    z = newton_preimage(f, w)
    assert z is not None
    assert abs(f.map_points(z) - w) < 1e-7


def test_a_false_winding_zero_is_refused_by_the_winding_gate():
    # ROADMAP item 6's false zero: for H with omega = -z^2 at eta = -1 the
    # trusted winding of this m was 0 at both extension radii of the sweep
    # ladder, with a 2048-angle base grid that did not pack samples toward
    # h's poles at +-1, yet f(z) = m at |z| ~ 0.99909, which only the Newton
    # gate caught.  The pole-graded grid counts the turn the sparse one hid;
    # the winding gate itself must refuse m, and Newton still finds z.
    f = shear_construct(ShearSystem(
        catalog(CatalogId("H")),
        parse_omega("monomial:lam_re=-1.0,lam_im=1.2246467991473532e-16,N=2"), -1.0))
    m = 299.9314610325063 - 147035.57701547028j
    for r in shearconvex.probe._extension_radii(0.999):
        assert _WindingCurves(f).winding([m], r) == [1]
    z = newton_preimage(f, m)
    assert z is not None and abs(z) == pytest.approx(0.99909, abs=1e-5)
    assert abs(f.map_points(z) - m) <= NEWTON_TOL * (1.0 + abs(m))


# planted preimages m = f(z0), all at eta = -1: rotated H with omega = -xi z,
# identity with omega = i z^3, Koebe, f0h, and L_i with a Blaschke omega
@pytest.fixture(scope="module")
def planted_maps():
    return [shear_construct(ShearSystem(parse_phi(phi), parse_omega(omega), -1.0))
            for phi, omega in [("H@rot:re=0.0,im=1.0", "monomial:lam_re=-0.0,lam_im=-1.0,N=1"),
                               ("identity", "monomial:lam_re=0.0,lam_im=1.0,N=3"),
                               ("koebe", "monomial:N=1"),
                               ("f0h", "monomial:N=1"),
                               ("Llambda:re=0.0,im=1.0", "blaschke:seed=3,deg=2")]]


def _planted_found(f, rho, angle, offsets) -> bool:
    """Whether Newton finds a preimage of f(rho e^{i angle}), with its anchors
    at the given offsets from the planted angle."""
    m = complex(f.map_points(rho * np.exp(1j * angle)))
    return newton_preimage(f, m, [angle + d for d in offsets]) is not None


@settings(max_examples=20, deadline=None)
@given(datum=st.integers(0, 4), rho=st.sampled_from([0.5, 0.9, 0.99, 0.999, 0.9999]),
       angle=st.floats(0.0, 2.0 * np.pi),
       offsets=st.lists(st.floats(1.0, np.pi) | st.floats(-np.pi, -1.0), min_size=1, max_size=2))
def test_retiring_seeds_at_the_rim_loses_no_planted_preimage(planted_maps, datum, rho,
                                                             angle, offsets):
    # retirement weakens a FAILURE gate, so it may drop only seeds that could
    # not converge: whatever Newton finds with no seed ever retired, it finds
    f = planted_maps[datum]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shearconvex.probe, "NEWTON_CAP_STRIKES", NEWTON_ITERS + 1)
        found_without = _planted_found(f, rho, angle, offsets)
    if found_without:
        assert _planted_found(f, rho, angle, offsets)


def test_planted_preimage_recall_on_a_fixed_grid(planted_maps):
    # 5 data x |z0| in {0.99, 0.9999} x 16 angles, anchors 1 and 1.5 rad off
    # arg z0; the one miss (identity, |z0| = 0.99) is missed with no seed ever
    # retired too.  Retiring a seed after 3 pulled-back iterates, instead of
    # 3 held at the cap, misses 2 more: L_i at |z0| = 0.9999.
    found = sum(_planted_found(f, rho, 2.0 * np.pi * (k + 0.3) / 16, (1.0, -1.5))
                for f in planted_maps for rho in (0.99, 0.9999) for k in range(16))
    assert found == 159


def test_newton_retires_seeds_held_at_the_rim(f0_report, monkeypatch):
    # f0's FAILURE midpoint has no preimage; with no seed ever retired, all 80
    # seeds ran every iteration (3,280 map points), 2,118 of them at the cap
    cfg, rep = f0_report
    w = rep.failures[0]
    f = shear_construct(ShearSystem(parse_phi(cfg.phi_spec),
                                    parse_omega(w.omega_spec), cfg.eta))
    batches = []
    map_points = HarmonicMap.map_points

    def recording(self, z):
        batches.append(np.abs(np.atleast_1d(z)))
        return map_points(self, z)

    monkeypatch.setattr(HarmonicMap, "map_points", recording)
    assert newton_preimage(f, w.midpoint) is None
    seeds = batches[0].size
    at_cap = sum(int(np.sum(np.abs(b - NEWTON_R_CAP) < 1e-12)) for b in batches)
    assert at_cap <= NEWTON_CAP_STRIKES * seeds
    assert sum(b.size for b in batches) <= seeds * (NEWTON_ITERS + 1) / 2


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the package fixes glibc's malloc thresholds only")
def test_a_warm_probe_does_not_refault_its_scratch_memory():
    # the package fixes glibc's mmap and trim thresholds at import, so a
    # second run of a probe reuses the heap that its first run grew: each
    # winding round's scratch arrays are not handed back to the OS and
    # faulted in again (hundreds of minor faults per run without the fix)
    import resource
    for phi, family in [("H@rot:re=0.0,im=1.0",     # the README FAILURE probe
                         "explicit:monomial:lam_re=-0.0,lam_im=-1.0,N=1"),
                        ("H", "explicit:monomial:lam_re=-1.0,lam_im=0.0,N=2")]:
        cfg = ProbeConfig(phi_spec=phi, eta=-1.0 + 0.0j, family_spec=family)
        probe_admissibility(cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        probe_admissibility(cfg)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200, phi


# The slice judge: for a shear of a Mobius phi, "is m in f(D_r)?" from two
# map points per candidate, in place of the winding curves.

def _hrot(xi: complex) -> ShearSystem:
    """certify-rot's case for xi: H@rot:xi with omega = -xi z at eta = -1."""
    return ShearSystem(parse_phi(f"H@rot:re={xi.real!r},im={xi.imag!r}"),
                       make_schwarz(MonomialOmega(-xi, 1)), -1.0)


def _certify_rot_grid() -> list:
    """certify-rot's 40 grid rotations, 20 on each arc of the circle 0.25 rad
    clear of +-1 (offset by 1/8 and 5/8 of a step), then the paper's three."""
    step = (np.pi - 0.5) / 20
    grid = [complex(np.exp(1j * (base + 0.25 + (j + off) * step)))
            for base, off in ((0.0, 0.125), (np.pi, 0.625)) for j in range(20)]
    return grid + [complex(np.exp(1j * np.pi / 4)), complex(np.exp(1j * np.pi / 3)), 1j]


@pytest.mark.parametrize("workload", ["sweep-H", "sweep-Li", "certify-rot"])
def test_the_slice_judge_agrees_with_the_winding_gate(workload):
    # every query a witness search of the workload could ask, with no early
    # exit, gets the winding gate's answer, and neither judge says None
    if workload == "certify-rot":
        systems = [_hrot(xi) for xi in _certify_rot_grid()]
    else:
        phi = catalog(CatalogId("H") if workload == "sweep-H" else CatalogId("L_LAMBDA", 1j))
        systems = [ShearSystem(phi, omega, -1.0)
                   for omega in family_from_spec("mixed:phases=8,nmax=3,count=50,deg=3,seed=7")]
    answers = []
    for system in systems:
        f = shear_construct(system)
        curves = _WindingCurves(f)
        for batch, r in witness_queries(f, (0.9, 0.99, 0.999)):
            got = slice_judge(f, batch, r)
            assert got == curves.winding(batch, r)
            answers.extend(got)
    # H and L_i are admissible at eta = -1, so every sweep candidate is
    # absorbed at each larger radius; every rotation case has escaping ones
    assert len(answers) == {"sweep-H": 7992, "sweep-Li": 7788, "certify-rot": 4644}[workload]
    assert set(answers) == ({0, 1} if workload == "certify-rot" else {1})


def test_the_slice_judge_never_puts_a_planted_preimage_outside():
    # m = f(z0) lies in f(D_R) for every R > |z0|, so 0 would be wrong.  A
    # None comes only at |z0| >= 0.9999 (176 of 5,280 at 0.9999, nearly all
    # with omega = -z, which is unimodular on the circle): the Jacobian
    # |h'|^2 (1 - |omega|^2) vanishes at the rim, so the slice between z0 and
    # |z| = R moves f by about 1e-9, under the on-curve floor, although the
    # signs there are still opposite.  The rim points, |z0| = 0.99999 and
    # 0.999995, are judged at NEWTON_R_CAP alone (the other R would lie
    # inside |z0|); there R - |z0| is so small that most answers are None
    # (1,726 and 1,891 of 2,640).  L_lam is judged at eta = -1 alone
    phis = ["H", "H-1", "identity", "H@rot:re=0.6,im=0.8", "H@rot:re=0.0,im=1.0"]
    omegas = ["monomial:lam_re=0.0,lam_im=1.0,N=3", "monomial:lam_re=-1.0,lam_im=0.0,N=1",
              "blaschke:seed=3,deg=2"]
    judged = {0: 0, 1: 0, None: 0}
    for phi, eta, omega in [*itertools.product(phis, [-1.0, 1.0, 1j, 0.6 + 0.8j], omegas),
                            *itertools.product(["Llambda:re=0.0,im=1.0", "Llambda:re=0.6,im=0.8"],
                                               [-1.0], omegas)]:
        f = shear_construct(ShearSystem(parse_phi(phi), parse_omega(omega), eta))
        for rho in (0.5, 0.99, 0.9999, 0.99999, 0.999995):
            m = f.map_points(rho * np.exp(2j * np.pi * (np.arange(40) + 0.3) / 40))
            for r in (min((1.0 + rho) / 2.0, 0.99995), NEWTON_R_CAP):
                if r < rho:
                    continue
                got = slice_judge(f, m, r)
                assert None not in got or rho >= 0.9999
                for w in got:
                    judged[w] += 1
    assert judged[0] == 0 and sum(judged.values()) == 21120


def test_the_strip_slice_puts_lines_beyond_the_strip_outside():
    # at eta = -1 the line m + iR is in L_lam's strip by psi = Im(c m) alone;
    # moving m by pi/Im(lam) moves psi by 2 pi, and e^{i psi} would alias the
    # line, now beyond the strip, to one that crosses f(D_r)
    for phi in ("Llambda:re=0.0,im=1.0", "Llambda:re=0.6,im=0.8"):
        f = shear_construct(ShearSystem(parse_phi(phi), parse_omega("blaschke:seed=3,deg=2"), -1.0))
        m = f.map_points(0.5 * np.exp(2j * np.pi * (np.arange(40) + 0.3) / 40))
        assert slice_judge(f, m, 0.9) == [1] * 40
        for shift in np.array([-1.0, 1.0]) * np.pi / f.shear.phi.strip.imag:
            assert slice_judge(f, m + shift, 0.9) == [0] * 40


@pytest.mark.parametrize("phi", ["H", "identity", "H@rot:re=0.6,im=0.8", "H-1",
                                 "H@rot:re=0.0,im=1.0"])
def test_a_point_on_the_image_curve_is_not_judged(phi):
    # m = f(r e^{i t}) ends its own slice, so sigma is 0 there up to rounding,
    # within the on-curve floor: None, as the winding gate answers on a sample.
    # H and H-1 at eta = -1 and H@rot:i at eta = 1 run the slice parallel to
    # the half-plane's edge, where the squared half-chord at NEWTON_R_CAP is
    # a difference of two terms of about 2.5e11 unless it is summed expanded;
    # so summed, a point planted 1e-10 inside the cap is never put outside it
    etas = {"H-1": (-1.0,), "H@rot:re=0.0,im=1.0": (1.0,)}.get(phi, (-1.0, 1j))
    t = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    for eta in etas:
        f = shear_construct(ShearSystem(parse_phi(phi), parse_omega("blaschke:seed=3,deg=2"), eta))
        for r in (0.9, 0.999, NEWTON_R_CAP):
            assert slice_judge(f, f.map_points(r * t), r) == [None] * 64
        assert 0 not in slice_judge(f, f.map_points((NEWTON_R_CAP - 1e-10) * t), NEWTON_R_CAP)


def test_the_slice_judge_puts_known_bad_points_inside():
    # the pinned false winding zero (see the winding-gate test above) is
    # inside at both extension radii, as its preimage at |z| ~ 0.99909 says
    f = shear_construct(ShearSystem(
        catalog(CatalogId("H")),
        parse_omega("monomial:lam_re=-1.0,lam_im=1.2246467991473532e-16,N=2"), -1.0))
    m = 299.9314610325063 - 147035.57701547028j
    assert [slice_judge(f, [m], r) for r in _extension_radii(0.999)] == [[1], [1]]
    # a point Newton misses (with anchors 1 and -1.5 rad off arg z0, where
    # |g'/h'| ~ 0.97): inside f(D_R) for every R > |z0| = 0.99, outside below
    f = shear_construct(ShearSystem(parse_phi("identity"),
                                    parse_omega("monomial:lam_re=0.0,lam_im=1.0,N=3"), -1.0))
    m = complex(f.map_points(0.99 * np.exp(2j * np.pi * 6.3 / 16)))
    for r in [0.99 + 1e-6, 0.9901, 0.991, 0.995, 0.999, 0.9999, 0.99995, NEWTON_R_CAP]:
        assert slice_judge(f, [m], r) == [1], r
    assert slice_judge(f, [m], 0.98) == [0]


def test_no_planted_rim_preimage_is_certified(monkeypatch):
    # m = f(z0) with 0.9999 < |z0| < NEWTON_R_CAP is outside f(D_r) at the
    # ladder radii but inside f(D) (and f(D_{NEWTON_R_CAP})), so no witness
    # search may certify it.  The planted point is the only candidate, and
    # the window, where Newton puts its anchors, sits opposite arg z0: the
    # extension radii and Newton alone certified 12 of the 480 inside the
    # cap, which the slice's query at the cap judges inside.  A point on the
    # cap's own curve (|z0| = NEWTON_R_CAP) is within the on-curve floor,
    # which no certificate may reach either
    cfg = ProbeConfig(phi_spec="H", eta=-1.0 + 0.0j)
    omegas = family_from_spec("monomial-grid:phases=8,nmax=1")[:4]
    certified = []
    for phi, eta in [("H", -1.0), ("H@rot:re=0.0,im=1.0", -1.0), ("identity", -1.0),
                     ("Llambda:re=0.0,im=1.0", -1.0), ("H-1", 1j)]:
        for omega in omegas:
            f = shear_construct(ShearSystem(parse_phi(phi), omega, eta))
            for rho in (0.99995, 0.99999, 0.999995, NEWTON_R_CAP):
                for k in range(8):
                    arg = 2.0 * np.pi * (k + 0.37) / 8
                    m = complex(f.map_points(rho * np.exp(1j * arg)))
                    monkeypatch.setattr(shearconvex.probe, "_candidate_midpoints",
                                        lambda f, r, anchors, m=m: [m])
                    away = arg + np.pi
                    reports = {r: ConvexityReport("CONVEX", 2.0 * np.pi, 0.0, None, 0.1, 4096)
                               for r in cfg.radii}
                    reports[cfg.radii[-1]] = ConvexityReport(
                        "NON_CONVEX", 2.0 * np.pi, 0.1, (away - 0.1, away + 0.1), 0.1, 4096)
                    if shearconvex.probe._persistent_witness(f, cfg, reports) is not None:
                        certified.append((phi, omega.spec.text, rho, k))
    assert certified == []


def _slice_ends(f, m, r):
    """The arc ends on |z| = r that ``slice_judge`` maps for the points m."""
    phi, u = f.shear.phi, np.sqrt(f.shear.eta)
    if phi.mobius is not None:
        return _disk_ends(phi.mobius, u, m, r)[1]
    return _strip_ends(phi.strip, m, r)[1]


@pytest.mark.parametrize("phi", ["H", "H@rot:re=0.0,im=1.0", "Llambda:re=0.0,im=1.0"])
def test_one_slice_batch_per_datum_gives_each_radius_its_own_answers(phi):
    # the witness search judges the candidates of every anchor radius in one
    # slice call at the outermost radius.  Each answer depends on its own
    # point alone: the batch's answers are the per-radius batches' answers,
    # its arc ends theirs, and the map points of those ends theirs bit for bit
    top = max(_extension_radii(0.999))
    for omega in family_from_spec(DEFAULT_FAMILY)[::15]:
        f = shear_construct(ShearSystem(parse_phi(phi), omega, -1.0))
        batches = [b for b, r in witness_queries(f, (0.9, 0.99, 0.999)) if r == top]
        assert len(batches) >= 2
        assert slice_judge(f, sum(batches, []), top) \
            == sum((slice_judge(f, b, top) for b in batches), [])
        ends = [_slice_ends(f, np.array(b), top) for b in batches]
        assert np.array_equal(_slice_ends(f, np.array(sum(batches, [])), top),
                              np.concatenate(ends, axis=1))
        assert np.array_equal(f.map_points(np.concatenate(ends, axis=1)),
                              np.concatenate([f.map_points(z) for z in ends], axis=1))


@pytest.mark.parametrize("phi", ["H", "Llambda:re=0.0,im=1.0"])
def test_a_clean_slice_probe_asks_the_slice_once_per_searched_omega(phi, monkeypatch):
    # every dilatation with a back-turning level curve is searched by one
    # slice call below NEWTON_R_CAP, however many of its ladder radii
    # back-turn; no candidate survives it, so none is asked at the cap
    asked = []

    def recording(f, points, r):
        asked.append((f, r))
        return slice_judge(f, points, r)

    monkeypatch.setattr(shearconvex.probe, "slice_judge", recording)
    rep = probe_admissibility(ProbeConfig(phi_spec=phi, eta=-1.0 + 0.0j))
    assert rep.summary == "NO_FAILURE_FOUND"
    searched = [rows for rows in rep.per_omega.values()
                if any(row["verdict"] == "NON_CONVEX" for row in rows.values())]
    suspicious = sum(row["worst_backturn"] > NON_CONVEX_BACKTURN
                     for rows in searched for row in rows.values())
    assert suspicious > len(searched) > 0
    assert len(asked) == len({id(f) for f, _ in asked}) == len(searched)
    assert NEWTON_R_CAP not in {r for _, r in asked}


@pytest.mark.parametrize("phi", ["H", "H@rot:re=0.0,im=1.0", "Llambda:re=0.0,im=1.0"])
def test_one_candidate_call_gives_each_anchor_radius_its_own_midpoints(phi):
    # a slice datum's witness search builds the candidates of every anchor
    # radius in one call, one radius per anchor; each map point freezes its
    # quadrature at its own depth, so they are the per-radius calls' bit for bit
    for omega in family_from_spec(DEFAULT_FAMILY)[::15]:
        f = shear_construct(ShearSystem(parse_phi(phi), omega, -1.0))
        reports = {r: convexity_check_resolved(f, r)[1] for r in (0.9, 0.99, 0.999)}
        rungs = [(r, shearconvex.probe._window_anchors(rep)) for r, rep in reports.items()
                 if rep.worst_backturn > NON_CONVEX_BACKTURN][::-1]
        assert len(rungs) >= 2
        batch = shearconvex.probe._candidate_midpoints(
            f, [r for r, anchors in rungs for _ in anchors],
            [a for _, anchors in rungs for a in anchors])
        per_radius = sum((shearconvex.probe._candidate_midpoints(f, r, anchors)
                          for r, anchors in rungs), [])
        assert np.array_equal(batch, per_radius)


@pytest.mark.parametrize("phi", ["H", "Llambda:re=0.0,im=1.0"])
def test_a_clean_slice_probe_maps_points_twice_per_searched_omega(phi, monkeypatch):
    # one map call builds every candidate of a searched dilatation, one more
    # maps the ends of their slices; a probe with no failure makes no other
    mapped = []
    map_points = HarmonicMap.map_points

    def recording(f, zs):
        mapped.append(f)                # kept alive: its id stays its own
        return map_points(f, zs)

    monkeypatch.setattr(HarmonicMap, "map_points", recording)
    rep = probe_admissibility(ProbeConfig(phi_spec=phi, eta=-1.0 + 0.0j))
    assert rep.summary == "NO_FAILURE_FOUND"
    searched = [rows for rows in rep.per_omega.values()
                if any(row["verdict"] == "NON_CONVEX" for row in rows.values())]
    assert len(searched) > 0
    assert sorted(collections.Counter(map(id, mapped)).values()) == [2] * len(searched)


_GATE_ROWS = [
    ("H", 1.0, "slice", "FAILURE", 1), ("H@rot:re=0.6,im=0.8", 1.0, "slice", "FAILURE", 1),
    ("koebe", 1.0, "winding", "FAILURE", 0), ("Llambda:re=0.0,im=1.0", 1.0, "winding", "FAILURE", 0),
    ("Llambda:re=0.6,im=0.8", -1.0, "slice", "NO_FAILURE_FOUND", 0),
    # rotate_analytic drops lam, so a rotated L_lam keeps the winding curves
    ("Llambda:re=0.0,im=1.0@rot:re=0.6,im=0.8", -1.0, "winding", "FAILURE", 0)]


@pytest.mark.parametrize("phi,eta,judge,summary,at_cap", _GATE_ROWS,
                         ids=["-".join(map(str, row[:4])) for row in _GATE_ROWS])
def test_witness_gates_pick_the_slice_from_the_catalog_facts(phi, eta, judge, summary, at_cap,
                                                             monkeypatch):
    # the midpoint certificate and the persistent witness ask one judge: the
    # slice for a Mobius phi and for L_lam at eta = -1, the winding curves
    # for every other datum.  Only the slice also judges Newton's survivor at
    # NEWTON_R_CAP, once for each FAILURE
    calls = []

    def recording(name, fn):
        def wrapper(*a, **k):
            calls.append("cap" if name == "slice" and a[2] == NEWTON_R_CAP else name)
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(shearconvex.probe, "slice_judge",
                        recording("slice", shearconvex.probe.slice_judge))
    monkeypatch.setattr(_WindingCurves, "winding", recording("winding", _WindingCurves.winding))
    f = shear_construct(ShearSystem(parse_phi(phi), parse_omega("monomial:N=1"), eta))
    _, rep = convexity_check_resolved(f, 0.99)
    assert midpoint_certificate(f, 0.99, rep.witness) is not None
    cfg = ProbeConfig(phi_spec=phi, eta=complex(eta), family_spec="explicit:monomial:N=1")
    assert probe_admissibility(cfg).summary == summary
    assert calls.count("cap") == at_cap
    assert set(calls) - {"cap"} == {judge}


@pytest.fixture(scope="module")
def f0():
    return shear_construct(ShearSystem(catalog(CatalogId("H")),
                                       make_schwarz(MonomialOmega(1.0, 1)), 1.0))


def test_midpoint_certificate_for_f0(f0):
    _, rep = convexity_check_resolved(f0, 0.99)
    m = midpoint_certificate(f0, 0.99, rep.witness)
    assert m is not None
    assert m.real < -0.25 + 1e-2


def test_midpoint_certificate_without_a_window_is_none(f0):
    # a CONVEX verdict carries no back-turn window, so there is nothing to certify
    assert midpoint_certificate(f0, 0.99, None) is None


@pytest.mark.parametrize("radii", [(), (0.0, 0.9), (0.9, 1.0), (-0.5,), (np.nan,),
                                   (0.9, np.nan)],
                         ids=["empty", "zero", "one", "negative", "nan", "nan-above"])
def test_a_ladder_that_checks_nothing_is_refused(radii):
    # the rule of --radii: an empty ladder or a radius outside (0, 1) would
    # let a probe report NO_FAILURE_FOUND without looking at a single curve
    with pytest.raises(ValueError, match="radii"):
        ProbeConfig(phi_spec="H", eta=-1.0 + 0.0j, radii=radii)


def test_onset_radius_is_bisected_between_ladder_radii(f0):
    # f0 is convex at r = 0.05 and back-turns at 0.9, so the onset is bisected
    # in between: NON_CONVEX at r_onset, CONVEX one bisection step below
    rep = probe_admissibility(ProbeConfig(phi_spec="H", eta=1.0 + 0.0j,
                                          family_spec="explicit:monomial:N=1",
                                          radii=(0.05, 0.9, 0.99, 0.999)))
    assert rep.summary == "FAILURE"
    (w,) = rep.failures
    assert (w.r, w.r_onset) == (0.9, 0.269140625)
    step = (0.9 - 0.05) / 2 ** ONSET_STEPS
    assert convexity_check_resolved(f0, w.r_onset)[1].verdict == "NON_CONVEX"
    assert convexity_check_resolved(f0, w.r_onset - step)[1].verdict == "CONVEX"


def test_a_winding_past_the_sample_cap_is_untrusted(f0, monkeypatch):
    _, rep = convexity_check_resolved(f0, 0.99)
    anchors = shearconvex.probe._window_anchors(rep)
    candidates = shearconvex.probe._candidate_midpoints(f0, 0.99, anchors)
    assert len(candidates) == 12
    assert _WindingCurves(f0).winding(candidates, 0.99) == [0] * 12
    # with no room to refine, every point that needs a refinement round is None
    monkeypatch.setattr(shearconvex.probe, "REFINE_SAMPLES_MAX", WINDING_SAMPLES)
    assert _WindingCurves(f0).winding(candidates, 0.99) == [None] * 12


def _css_characterization(f, t_grid, radii) -> dict:
    """Cross-validate full convexity against per-direction convexity.

    At each radius the restricted map is convex exactly when every
    combination h - e^{2it} g is convex in direction t, so a CONVEX verdict
    coexisting with a failing direction is a hard inconsistency.  The
    converse direction over a finite t-grid is only a coarseness note.
    """
    rows = []
    inconsistencies = []
    for r in radii:
        _, rep = convexity_check_resolved(f, r)
        directions = {}
        for t in t_grid:
            comb = harmonic_from_analytic(analytic_combination(f, t))
            curve = sample_boundary(comb, r, TURNING_SAMPLES)
            directions[repr(float(t))] = directional_convexity_check(curve, t).passed
        failing = sorted(t for t, ok in directions.items() if not ok)
        rows.append({"r": r, "verdict": rep.verdict, "directions": directions})
        if rep.verdict == "CONVEX" and failing:
            inconsistencies.append({"r": r, "failing_directions": failing})
        if rep.verdict == "NON_CONVEX" and not failing:
            rows[-1]["note"] = "no failing direction on this t-grid (grid coarseness)"
    return {"map": f.label, "rows": rows, "inconsistencies": inconsistencies,
            "consistent": not inconsistencies}


def test_css_characterization_consistency():
    t_grid = np.arange(8) * np.pi / 8
    # a mildly sheared half-plane map stays convex at moderate radii
    omega = make_schwarz(BlaschkeOmega(zeros=(0.3 + 0.2j,), phase=0.0, scale=0.5))
    f = shear_construct(ShearSystem(catalog(CatalogId("H")), omega, -1.0))
    out = _css_characterization(f, t_grid, radii=(0.9, 0.99))
    assert out["consistent"]
    for row in out["rows"]:
        assert all(row["directions"].values())

    f0 = shear_construct(ShearSystem(catalog(CatalogId("H")),
                                     make_schwarz(MonomialOmega(1.0, 1)), 1.0))
    out0 = _css_characterization(f0, [0.0, np.pi / 2], radii=(0.99,))
    assert out0["consistent"]
    row = out0["rows"][0]
    assert row["verdict"] == "NON_CONVEX"
    assert not row["directions"][repr(float(np.pi / 2))]   # h0+g0 = Koebe fails

    H = harmonic_from_analytic(catalog(CatalogId("H")))
    outh = _css_characterization(H, t_grid, radii=(0.9,))
    assert outh["consistent"]
    assert all(outh["rows"][0]["directions"].values())


def test_zero_dilatation_rows_are_convex_for_convex_data():
    # the omega = 0 shear is phi itself; convex analytic maps keep convex
    # level curves at every radius, so no back-turn may appear
    for spec in ("H", "H-1", "Llambda:re=0.0,im=1.0", "identity"):
        rep = probe_admissibility(ProbeConfig(phi_spec=spec, eta=-1.0 + 0.0j,
                                              family_spec="explicit:zero"))
        rows = rep.per_omega["zero"]
        assert all(row["verdict"] == "CONVEX" for row in rows.values())
        assert rep.summary == "NO_FAILURE_FOUND"


def test_probe_survives_construction_errors():
    # a non-normalized phi makes every construction fail; the sweep reports
    # per-omega errors instead of aborting, and the summary says the search
    # is incomplete rather than clean
    cfg = ProbeConfig(phi_spec="f0g", eta=-1.0 + 0.0j,
                      family_spec="explicit:monomial:N=1")
    rep = probe_admissibility(cfg)
    assert rep.summary == "INCOMPLETE"
    assert any("failed" in n for n in rep.notes)
