import json

import numpy as np
import pytest

import shearconvex.probe
import shearconvex.reproduce
from shearconvex.cli import main
from shearconvex.geometry import verdict_from_increments
from shearconvex.quadrature import ToleranceNotMet
from shearconvex.render import render_curve_svg
from shearconvex.specs import DEFAULT_FAMILY, SpecError, family_from_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shear_csv(capsys):
    code, out, _ = run(capsys, "shear", "--phi", "H", "--omega", "monomial:N=1",
                       "--eta", "1,0", "--r", "0.5", "--n", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,re_z,im_z,re_f,im_f,re_h,im_h,re_g,im_g"
    assert len(lines) == 65
    row0 = [float(x) for x in lines[1].split(",")]
    # theta = 0, z = 0.5: f0(0.5) = h0 + conj(g0) = 1.5 + 0.5
    assert row0[3] == pytest.approx(2.0, abs=1e-9)


def test_convexity_json_koebe(capsys):
    code, out, _ = run(capsys, "convexity", "--phi", "koebe", "--r", "0.5",
                       "--n", "1024")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "NON_CONVEX"
    assert rep["total_turning"] == pytest.approx(2 * np.pi, abs=1e-3)


def test_convexity_direction_flag(capsys):
    code, out, _ = run(capsys, "convexity", "--phi", "koebe", "--r", "0.999",
                       "--n", "4096", "--direction", "0.0")
    rep = json.loads(out)
    assert rep["direction"]["passed"] is True


def test_csv_roundtrip_preserves_verdict(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "convexity", "--phi", "H", "--omega", "monomial:N=1",
                       "--eta", "1,0", "--r", "0.9", "--n", "1024",
                       "--csv", str(csv_path))
    rep = json.loads(out)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "theta,re,im,turning_increment"
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    re_rep = verdict_from_increments(data[:, 3], data[:, 0])
    assert re_rep.verdict == rep["verdict"]
    assert re_rep.worst_backturn == pytest.approx(rep["worst_backturn"], rel=1e-9)


def test_readme_convexity_example_is_refined_to_non_convex(tmp_path, capsys):
    # the README's example curve is reproduce f0's row 4: the aliased steps
    # of its 4096 base samples are split, so "n" counts the refined curve,
    # and the CSV of that non-uniform curve still gives the same verdict
    csv_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "convexity", "--phi", "H", "--omega", "monomial:N=1",
                       "--eta", "1,0", "--r", "0.99", "--csv", str(csv_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "NON_CONVEX" and rep["max_step"] <= 1.5
    assert rep["n"] > 4096
    assert rep["n"] == len(rep["curve"]["theta"]) == len(rep["curve"]["re"]) \
        == len(rep["curve"]["im"])
    rows = csv_path.read_text().strip().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    assert data.shape == (rep["n"], 4) and (np.diff(data[:, 0]) > 0.0).all()
    re_rep = verdict_from_increments(data[:, 3], data[:, 0])
    assert re_rep.verdict == "NON_CONVEX"
    assert re_rep.worst_backturn == pytest.approx(rep["worst_backturn"], rel=1e-9)


def test_svg_is_pure_function_of_report(tmp_path, capsys):
    svg_path = tmp_path / "curve.svg"
    code, out, _ = run(capsys, "convexity", "--phi", "H", "--omega", "monomial:N=1",
                       "--eta", "1,0", "--r", "0.99", "--n", "512",
                       "--svg", str(svg_path), "--parabola-overlay")
    rep = json.loads(out)
    rendered = svg_path.read_bytes()
    again = render_curve_svg(rep).encode()
    assert rendered == again
    assert b"<svg" in rendered and b"polygon" in rendered


def test_probe_failure_reports_but_exits_zero(capsys):
    code, out, _ = run(capsys, "probe", "--phi", "H", "--eta", "theta=0",
                       "--family", "explicit:monomial:N=1")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"] == "FAILURE"
    assert rep["failures"][0]["omega"].startswith("monomial")


def test_negative_eta_as_a_separate_word(capsys):
    argv = ["probe", "--phi", "H", "--family", "explicit:monomial:N=1", "--radii", "0.9"]
    joined = run(capsys, *argv, "--eta=-1,0")
    assert joined[0] == 0 and json.loads(joined[1])["config"]["eta"] == "-1.0,0.0"
    assert run(capsys, *argv, "--eta", "-1,0") == joined
    code, _, err = run(capsys, "probe", "--phi", "H", "--eta", "--radii", "0.9")
    assert code == 1 and "expected one argument" in err


def test_probe_replays_an_explicit_blaschke_key(capsys):
    # a seed-7 key whose zeros carry '+' signs, given back as an explicit family
    key = next(w.spec.text for w in family_from_spec(DEFAULT_FAMILY)
               if w.spec.text.startswith("blaschke") and "+" in w.spec.text)
    code, out, _ = run(capsys, "probe", "--phi", "H", "--eta=-1,0",
                       "--family", "explicit:" + key, "--radii", "0.9")
    assert code == 0
    assert list(json.loads(out)["per_omega"]) == [key]


def test_probe_seed_echo(capsys):
    code, out, _ = run(capsys, "probe", "--phi", "H", "--eta", "theta=1.5707963267948966",
                       "--family", "blaschke-random:count=2,deg=1,seed=7",
                       "--seed", "9", "--radii", "0.9")
    rep = json.loads(out)
    assert rep["config"]["seed_echo"] == 9
    assert "seed=9" in rep["config"]["family"]


def test_probe_seed_is_appended_to_a_family_without_one(capsys):
    def keys(*extra):
        code, out, _ = run(capsys, "probe", "--phi", "H", "--eta=-1,0", "--radii", "0.9",
                           *extra)
        assert code == 0
        rep = json.loads(out)
        return list(rep["per_omega"]), rep["config"]
    seeded, cfg = keys("--family", "blaschke-random:count=1,deg=1", "--seed", "3")
    assert cfg["seed_echo"] == 3 and cfg["family"] == "blaschke-random:count=1,deg=1,seed=3"
    assert seeded == keys("--family", "blaschke-random:count=1,deg=1,seed=3")[0]
    assert seeded != keys("--family", "blaschke-random:count=1,deg=1")[0]


@pytest.mark.parametrize("family", ["explicit:blaschke:seed=1,deg=1+blaschke:seed=2,deg=1",
                                    "monomial-grid:phases=2,nmax=1"])
def test_probe_seed_on_a_family_without_a_seed_is_refused(capsys, family):
    code, out, err = run(capsys, "probe", "--phi", "H", "--eta=-1,0", "--radii", "0.9",
                         "--family", family, "--seed", "3")
    assert code == 1 and out == "" and "--seed" in err


def test_vk_json(capsys):
    code, out, _ = run(capsys, "vk", "--phi", "H", "--k", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["member"] is True
    assert rep["max_value_over_pi"] == pytest.approx(2.0, abs=1e-9)


def test_reproduce_f0_exits_zero(capsys):
    code, out, _ = run(capsys, "reproduce", "--case", "f0")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_reproduce_f0_without_a_back_turn_prints_fail_rows(capsys, monkeypatch):
    # a CONVEX verdict has no back-turn window; the f0 rows must say FAIL and
    # the case exit 2, not crash
    check = shearconvex.reproduce.convexity_check_resolved
    monkeypatch.setattr(shearconvex.reproduce, "convexity_check_resolved",
                        lambda f, r: check(f, 0.2))
    code, out, _ = run(capsys, "reproduce", "--case", "f0")
    assert code == 2
    assert "FAIL  convexity at r=0.99 is NON_CONVEX  [verdict CONVEX," in out
    assert "FAIL  midpoint witness exists  [no certificate]" in out


def test_malformed_spec_exits_one(capsys):
    code, _, err = run(capsys, "vk", "--phi", "nonsense", "--k", "2")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "convexity", "--phi", "mobius:re=0,im=1")
    assert code == 1 and "mobius" in err
    # a misspelt key (phase for phases) is refused, not read as its default
    code, out, err = run(capsys, "probe", "--phi", "H", "--eta", "-1,0",
                         "--family", "mixed:phase=8")
    assert code == 1 and out == "" and "'phase'" in err


def test_convexity_of_an_unnormalized_phi_exits_one(capsys):
    # every map is a shear, so zero omega (the default) refuses f0g as
    # every other omega does
    for omega in ("zero", "monomial:N=1"):
        code, out, err = run(capsys, "convexity", "--phi", "f0g", "--omega", omega)
        assert code == 1 and out == ""
        assert "phi (= f0g) must satisfy phi(0) = 0, phi'(0) = 1" in err


@pytest.mark.parametrize("family", ["monomial-grid:phases=0", "blaschke-random:count=0",
                                    "mixed:phases=0,count=0", "explicit:"])
def test_an_empty_family_is_refused(capsys, family):
    with pytest.raises(SpecError, match="expands to no dilatation"):
        family_from_spec(family)
    code, out, err = run(capsys, "probe", "--phi", "H", "--eta", "-1,0", "--family", family)
    assert code == 1 and out == ""
    assert "expands to no dilatation" in err


@pytest.mark.parametrize("argv", [
    ["--phi", "H", "--eta=nan,0", "--family", "explicit:monomial:N=1", "--radii", "0.9"],
    ["--phi", "Llambda:re=nan,im=nan", "--eta=-1,0", "--family", "explicit:monomial:N=1"],
    ["--phi", "H", "--eta=-1,0",
     "--family", "explicit:blaschke-explicit:zeros=0.3+0j,scale_re=nan"],
    ["--phi", "H", "--eta=-1,0", "--family", "explicit:monomial:N=1", "--radii", "nan"]])
def test_a_nan_parameter_never_passes_as_no_failure_found(capsys, argv):
    code, out, _ = run(capsys, "probe", *argv)
    assert code == 1
    assert '"summary": "NO_FAILURE_FOUND"' not in out


@pytest.mark.parametrize("r", ["1.5", "nan", "0", "-0.5"])
@pytest.mark.parametrize("omega", ["zero", "monomial:N=1"])
def test_shear_refuses_a_radius_outside_the_disk(capsys, omega, r):
    code, out, err = run(capsys, "shear", "--phi", "H", "--omega", omega, "--eta=1,0",
                         "--r", r, "--n", "4")
    assert code == 1 and out == ""
    assert "0 < r < 1" in err


@pytest.mark.parametrize("argv, flag", [
    (["vk", "--phi", "H", "--k", "nan"], "--k"),
    (["vk", "--phi", "H", "--k", "inf"], "--k"),
    (["convexity", "--phi", "H", "--n", "64", "--direction", "nan"], "--direction")],
    ids=["vk-k-nan", "vk-k-inf", "convexity-direction-nan"])
def test_a_number_that_is_not_finite_is_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"{flag}: must be a finite number" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_shear_refuses_fewer_than_one_sample(capsys, n):
    code, out, err = run(capsys, "shear", "--phi", "H", "--omega", "zero", "--eta=1,0",
                         "--n", n)
    assert code == 1 and out == ""
    assert "--n must be at least 1" in err


def test_unknown_case_exits_one(capsys):
    code, _, err = run(capsys, "reproduce", "--case", "bogus")
    assert code == 1


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "vk", "--phi", "H")   # missing --k
    assert code == 1


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHEARCONVEX_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "vk", "--phi", "H", "--k", "2", "--out", "report.json")
    assert code == 0
    assert (tmp_path / "report.json").exists()


def test_output_spec_validation(capsys):
    code, out, err = run(capsys, "vk", "--phi", "H", "--k", "2", "--precision", "3")
    assert code == 1
    assert out == ""
    assert "precision must be >= 6" in err


def test_probe_incomplete_writes_the_report_and_exits_one(capsys, monkeypatch):
    def stalled(*a, **k):
        raise ToleranceNotMet("stalled")
    monkeypatch.setattr(shearconvex.probe, "convexity_check_resolved", stalled)
    code, out, err = run(capsys, "probe", "--phi", "H", "--eta=-1,0",
                         "--family", "explicit:monomial:N=1")
    assert code == 1
    rep = json.loads(out)
    assert rep["summary"] == "INCOMPLETE"
    assert list(rep["per_omega"].values()) == [{"error": "ToleranceNotMet: stalled"}]
    assert "INCOMPLETE" in err


@pytest.mark.parametrize("argv, flag", [
    (["probe", "--phi", "H", "--eta=-1,0"], "--n"),
    (["convexity", "--phi", "H"], "--tol-backturn"),
    (["vk", "--phi", "H", "--k", "2"], "--tol")])
def test_removed_flags_are_usage_errors(capsys, argv, flag):
    assert main([argv[0], "--help"]) == 0
    assert f"{flag} " not in capsys.readouterr().out
    assert main(argv + [flag, "1"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
