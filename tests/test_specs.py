import numpy as np
import pytest

from shearconvex.shear import ShearSystem
from shearconvex.specs import (DEFAULT_FAMILY, SpecError, blaschke_from_seed,
                               family_from_spec, parse_eta, parse_omega,
                               parse_phi, parse_radii)


def test_canonical_phi_forms():
    assert parse_phi("H").label == "H"
    assert parse_phi("H-1").label == "H-1"
    assert parse_phi("koebe").label == "koebe"
    L = parse_phi("Llambda:re=0,im=1")
    # L_i(i/2) = (1/2i) log((1/2)/(3/2)) = i log(3)/2
    assert abs(L.value(0.5j) - 0.5j * np.log(3.0)) < 1e-13
    assert L.d1(0.0 + 0.0j) == pytest.approx(1.0)
    rot = parse_phi("H@rot:re=-1,im=0")
    assert rot.value(0.5) == pytest.approx(0.5 / 1.5, abs=1e-14)


def test_canonical_omega_forms():
    w = parse_omega("monomial:lam_re=0,lam_im=-1,N=1")
    assert w.value(0.5) == pytest.approx(-0.5j)
    assert parse_omega("zero").value(0.3 + 0.1j) == 0
    seeded = parse_omega("blaschke:seed=42,deg=3,scale=1")
    assert len(seeded.spec.zeros) == 3
    again = parse_omega("blaschke:seed=42,deg=3,scale=1")
    assert seeded.spec.text == again.spec.text
    # explicit form round-trips through its own canonical text
    explicit = parse_omega(seeded.spec.text)
    assert explicit.spec == seeded.spec


def test_eta_forms():
    assert parse_eta("-1,0") == -1.0 + 0.0j
    assert parse_eta("theta=0") == pytest.approx(1.0 + 0.0j)
    assert parse_eta(f"theta={np.pi / 2}") == pytest.approx(-1.0 + 0.0j)
    with pytest.raises(SpecError):
        parse_eta("nope")


def test_family_specs():
    assert len(family_from_spec("monomial-grid:phases=4,nmax=2")) == 8
    assert len(family_from_spec("blaschke-random:count=5,deg=2,seed=3")) == 5
    two = family_from_spec("explicit:monomial:N=1+zero")
    assert [w.spec.text for w in two] == sorted(w.spec.text for w in two)
    with pytest.raises(SpecError):
        family_from_spec("explicit:")
    with pytest.raises(SpecError):
        family_from_spec("unknown:count=2")


def test_radii_parse():
    assert parse_radii("0.9,0.99") == (0.9, 0.99)
    with pytest.raises(SpecError):
        parse_radii("0.5,1.0")


def test_nan_specs_raise():
    # NaN compares False with every bound, so each check is written to fail it
    with pytest.raises(ValueError):
        parse_phi("Llambda:re=nan,im=nan")
    with pytest.raises(ValueError):
        parse_omega("blaschke-explicit:zeros=nan+0j")
    with pytest.raises(ValueError):
        parse_omega("blaschke-explicit:zeros=0.3+0j,scale_re=nan")
    with pytest.raises(ValueError):
        parse_omega("blaschke-explicit:zeros=0.3+0j,phase=nan")
    with pytest.raises(SpecError):
        parse_radii("nan")
    with pytest.raises(SpecError):
        parse_radii("0.9,nan")
    with pytest.raises(ValueError):
        parse_omega("monomial:lam_re=nan")
    with pytest.raises(ValueError):
        ShearSystem(parse_phi("H"), parse_omega("monomial:N=1"), parse_eta("nan,0"))


def test_bad_specs_raise():
    with pytest.raises(SpecError):
        parse_phi("nonsense")
    with pytest.raises(SpecError):
        parse_phi("mobius:re=0,im=1")       # the rotated half-plane is H@rot
    with pytest.raises(SpecError):
        parse_omega("monomial:lam_re")
    with pytest.raises(SpecError):
        parse_omega("blaschke-explicit:phase=1")


@pytest.mark.parametrize("parse, spec", [
    (parse_omega, "monomial:N=2,lam_rel=0.5"),
    (family_from_spec, "mixed:phase=2,nmax=1,count=0"),
    (parse_omega, "blaschke:sed=3,deg=2"),
    (parse_phi, "Llambda:re=0,im=1,foo=3"),
    (parse_omega, "monomial-grid:phases=8"),
    (parse_omega, "monomialN=2"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_a_misspelt_key_is_refused(parse, spec):
    # a key that a grammar does not know must not silently take a default, and
    # an omega head is matched whole
    with pytest.raises(SpecError):
        parse(spec)


def test_blaschke_draws_are_pinned():
    # literal texts of the seeded generator and of the first Blaschke member
    # of the default family; any change to the order of rng draws shows here
    assert blaschke_from_seed(3, 2, 0.8).text == (
        "blaschke-explicit:zeros=0.023014203072837962+0.2770716871209384j;"
        "-0.7395619635889302-0.4197598204464772j,phase=0.5914277019096399,"
        "scale_re=0.8,scale_im=0.0")
    first = next(w.spec.text for w in family_from_spec(DEFAULT_FAMILY)
                 if w.spec.text.startswith("blaschke"))
    assert first == (
        "blaschke-explicit:zeros=-0.03926935737071788-0.7588166186486169j;"
        "-0.2778096179001788-0.07346155301622305j;"
        "0.4675421742512059-0.48955975994511725j,phase=2.269889027609814,"
        "scale_re=0.7990920336036065,scale_im=0.0")


def test_explicit_family_replays_every_seed7_key():
    # probe reports key per_omega by text; each key, alone and all joined
    # with '+', must come back as the same omega, Blaschke zeros such as
    # -0.648+0.322j included
    texts = [w.spec.text for w in family_from_spec(DEFAULT_FAMILY)]
    assert len(texts) == 74 and sum("+" in t for t in texts) == 34
    for t in texts:
        assert [w.spec.text for w in family_from_spec("explicit:" + t)] == [t]
    joined = family_from_spec("explicit:" + "+".join(texts))
    assert [w.spec.text for w in joined] == texts
    # separators next to empty pieces are still skipped
    assert ([w.spec.text for w in family_from_spec("explicit:+zero++monomial:N=1+")]
            == [w.spec.text for w in family_from_spec("explicit:monomial:N=1+zero")])


@pytest.mark.parametrize("angle", [np.pi, np.pi / 2, np.pi / 3, 1.3231, 0.3, 2.5, -2.0])
def test_rotated_h_is_the_halfplane_map(angle, disk_grid):
    # H@rot:c is conj(c) H(cz) = z/(1 - cz), the rotated half-plane map
    c = complex(np.exp(1j * angle))
    phi = parse_phi(f"H@rot:re={c.real!r},im={c.imag!r}")
    z = disk_grid
    refs = (z / (1 - c * z), 1 / (1 - c * z) ** 2, 2 * c / (1 - c * z) ** 3)
    for got, ref in zip(phi.eval(z), refs):
        assert (np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max() < 1e-13
    # its image is the half-plane Re(c w) > -1/2: on |z| = 1, off the pole
    # conj(c), c phi = H(cz) has real part -1/2 (rounding grows like |phi|^2)
    circle = np.conj(c) * np.exp(2j * np.pi * (np.arange(1024) + 0.5) / 1024)
    assert np.abs((c * phi.value(circle)).real + 0.5).max() <= 1e-10
    if angle == np.pi:
        for got, ref in zip(phi.eval(z), parse_phi("H-1").eval(z)):
            assert (np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max() < 1e-13
