import json
import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shearconvex.probe
from shearconvex.functions import (BlaschkeOmega, CatalogId, MonomialOmega,
                                   catalog, make_schwarz)
from shearconvex.geometry import (TURNING_SAMPLES, ConvexityReport, convexity_check_resolved,
                                  directional_convexity_check, sample_boundary)
from shearconvex.probe import (NEWTON_TOL, ONSET_STEPS, WINDING_SAMPLES, ProbeConfig,
                               _WindingCurves, halfplane_strip_identifier,
                               midpoint_certificate, newton_preimage,
                               probe_admissibility)
from shearconvex.quadrature import ToleranceNotMet
from shearconvex.shear import (ShearSystem, analytic_combination,
                               harmonic_from_analytic, shear_construct)
from shearconvex.specs import family_from_spec, parse_omega, parse_phi

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


_ROTATIONS = (0.3, 1.3231, 2.5, -2.0)


@pytest.mark.parametrize("spec,normal", [("H", 1.0), ("H-1", -1.0)] + [
    (f"H@rot:re={np.cos(x)},im={np.sin(x)}", complex(np.exp(-1j * x))) for x in _ROTATIONS],
    ids=["H", "H-1"] + [f"H@rot:{x}" for x in _ROTATIONS])
def test_identifier_halfplane(spec, normal):
    rid = halfplane_strip_identifier(harmonic_from_analytic(parse_phi(spec)))
    assert rid.kind == "HALF_PLANE"
    assert rid.offset == pytest.approx(-0.5, abs=1e-3)
    assert abs(rid.normal - normal) <= 1e-9


@pytest.mark.parametrize("arg", [np.pi / 3, np.pi / 2, 2 * np.pi / 3, 0.1],
                         ids=["pi/3", "pi/2", "2pi/3", "0.1"])
def test_identifier_strip(arg):
    lam = np.exp(1j * arg)
    rid = halfplane_strip_identifier(
        harmonic_from_analytic(catalog(CatalogId("L_LAMBDA", lam))))
    assert rid.kind == "STRIP"
    if arg > 0.1:   # at arg 0.1 the width reads 6.4e-3 short at r = 0.999; kind only
        assert rid.strip_width_over_pi == pytest.approx(1 / (2 * lam.imag), rel=1e-3)


@pytest.mark.parametrize("which", ["f0", "koebe", "identity"])
def test_identifier_other(which, f0):
    f = f0 if which == "f0" else harmonic_from_analytic(parse_phi(which))
    assert halfplane_strip_identifier(f).kind == "OTHER"


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
