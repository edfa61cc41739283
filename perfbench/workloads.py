"""The benchmark's workloads, driven through shearconvex's public API.

Importing this module imports numpy and shearconvex; ``run.py`` times that
import as part of set-up.  Each workload is built by :func:`setup` from a
seed and exposes ``run_pass()``, which returns once every verdict of one
pass is available, and ``check(out)``, which scores that pass's outputs
outside the timed region.

An *operation* is the unit counted into ``attempted``/``failed``: one
dilatation of a sweep family, one rotation case of ``certify-rot``, one
PASS/FAIL row of ``reproduce-fast``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from shearconvex import ProbeConfig, probe_admissibility
from shearconvex.reproduce import CASES
from shearconvex.specs import family_from_spec, parse_eta, parse_phi

LADDER = (0.9, 0.99, 0.999)
ETA = "-1,0"
FAMILY = "mixed:phases=8,nmax=3,count=50,deg=3,seed={seed}"
DEFAULT_SEED = 7                      # ROADMAP's default family
PHI_H = "H"
PHI_LI = "Llambda:re=0.0,im=1.0"

# certify-rot: the paper's rotations, the xi = +-1 controls, GRID_ANGLES
# evenly spaced angles and SEEDED_ANGLES angles drawn per seed, all at least
# ANGLE_MARGIN rad away from 0 and pi.  The probe misses roughly one angle in
# six (a known defect, counted as failed); the fixed grid keeps that count
# from swinging with the seed more than the ok_share bound allows.
PAPER_XIS = (complex(np.exp(1j * np.pi / 4)), complex(np.exp(1j * np.pi / 3)), 1j)
CONTROL_XIS = (1.0 + 0.0j, -1.0 + 0.0j)
GRID_ANGLES = 40
SEEDED_ANGLES = 4
ANGLE_MARGIN = 0.25

REPRODUCE_CASES = ("f0", "halfplane", "koebe-directions", "brannan")

# Pinned by the suite: |got - ref| <= 1e-11 absolute on |z| <= 0.9
# (tests/test_shear.py) and <= 1e-11 * max(1, |ref|) at |z| = 0.999
# (tests/test_quadrature.py).
F0_TOL = 1e-11
F0_POINTS = 64

VERDICT_LETTER = {"CONVEX": "C", "NON_CONVEX": "N", "INCONCLUSIVE": "I"}
VERDICTS_FILE = Path(__file__).with_name("verdicts.json")
_ROW_VERDICT = re.compile(r"\bverdict (CONVEX|NON_CONVEX|INCONCLUSIVE)\b")


@dataclass
class PassScore:
    """What the checks found in one pass; failures are keyed by operation."""

    attempted: int = 0
    failed: Dict[str, str] = field(default_factory=dict)        # breaks a pinned expectation
    known_misses: Dict[str, str] = field(default_factory=dict)  # grid/seeded-angle misses
    curves: int = 0
    inconclusive: int = 0

    def fail(self, op: str, msg: str, known_miss: bool = False) -> None:
        (self.known_misses if known_miss else self.failed).setdefault(op, f"{op}: {msg}")

    @property
    def failed_count(self) -> int:
        return min(self.attempted, len(self.failed.keys() | self.known_misses.keys()))


@dataclass
class Workload:
    run_pass: Callable[[], object]
    check: Callable[[object], PassScore]
    warm_up: Callable[[], object]
    inputs: dict


def load_verdicts() -> Dict[str, Dict[str, str]]:
    """phi spec -> omega text -> one letter per ladder radius (C/N/I)."""
    return json.loads(VERDICTS_FILE.read_text())["verdicts"]


def verdict_letters(rows: dict) -> str:
    return "".join(VERDICT_LETTER[rows[repr(r)]["verdict"]] for r in LADDER)


def flipped(recorded: Optional[str], seen: str) -> bool:
    """A resolved verdict that changed between CONVEX and NON_CONVEX.

    INCONCLUSIVE on either side is not a flip: resolving a curve that used
    to be inconclusive is allowed, and losing one shows in the shares.
    """
    if recorded is None:
        return False
    return any({a, b} == {"C", "N"} for a, b in zip(recorded, seen))


def probe_config(phi: str, family: str) -> ProbeConfig:
    return ProbeConfig(phi_spec=phi, eta=parse_eta(ETA), family_spec=family,
                       radii=LADDER)


def score_report(rep, text: str, expected: str, table: Dict[str, str], score: PassScore,
                 op_of: Callable[[str], str], known_miss: bool = False) -> None:
    """Score one probe report into ``score``; ``op_of(omega)`` names the operation."""
    if json.loads(text)["summary"] != rep.summary:
        score.fail(op_of(""), "to_json summary differs from the report")
    failing = {w.omega_spec for w in rep.failures}
    for key, rows in sorted(rep.per_omega.items()):
        if "error" in rows:
            score.fail(op_of(key), rows["error"])
            continue
        seen = verdict_letters(rows)
        score.curves += len(seen)
        score.inconclusive += seen.count("I")
        if flipped(table.get(key), seen):
            score.fail(op_of(key), f"verdicts {table[key]} -> {seen}")
        if expected == "NO_FAILURE_FOUND" and key in failing:
            score.fail(op_of(key), "unexpected FAILURE")
    if rep.summary != expected:
        score.fail(op_of(""), f"{rep.summary}, expected {expected}", known_miss)


def _sweep(name: str, phi: str, seed: int) -> Workload:
    parse_phi(phi)                      # parsed here too, so set-up pays for it
    family = FAMILY.format(seed=seed)
    cfg = probe_config(phi, family)
    keys = sorted(w.spec.text for w in family_from_spec(family))
    table = load_verdicts().get(phi, {})

    def run_pass():
        rep = probe_admissibility(cfg)
        return rep, rep.to_json()

    def check(out) -> PassScore:
        rep, text = out
        score = PassScore(attempted=len(keys))
        for key in sorted(set(keys) - set(rep.per_omega)):
            score.fail(f"{name} omega={key}", "missing from the report")
        score_report(rep, text, "NO_FAILURE_FOUND", table, score,
                     lambda key: f"{name} omega={key}" if key else name)
        return score

    warm = probe_config(phi, "explicit:monomial:N=1")
    return Workload(run_pass, check, lambda: probe_admissibility(warm),
                    {"phi": phi, "eta": ETA, "family": family, "radii": list(LADDER),
                     "omegas": len(keys)})


def _arc_angle(s: float) -> float:
    """Map s in [0, 1) onto (m, pi - m) U (pi + m, 2 pi - m), m = ANGLE_MARGIN."""
    half = np.pi - 2.0 * ANGLE_MARGIN
    t = 2.0 * half * s
    return float(ANGLE_MARGIN + t if t < half else np.pi + ANGLE_MARGIN + (t - half))


def grid_angles(count: int = GRID_ANGLES) -> List[float]:
    """count // 2 evenly spaced angles on each arc.

    The probe gives xi, conj(xi) and -xi the same verdict (seen on a 2-degree
    scan), so the arcs are offset by 1/8 and 5/8 of a step: then no grid
    angle is such an image of another, and every angle is a distinct case.
    """
    n = count // 2
    step = (np.pi - 2.0 * ANGLE_MARGIN) / n
    return [float(base + ANGLE_MARGIN + (j + offset) * step)
            for base, offset in ((0.0, 0.125), (np.pi, 0.625)) for j in range(n)]


def seeded_angles(seed: int, count: int = SEEDED_ANGLES) -> List[float]:
    """count angles drawn uniformly from both arcs; the same seed, the same angles."""
    rng = np.random.default_rng(seed)
    return [_arc_angle(s) for s in rng.uniform(size=count)]


def xis_at(angles: List[float]) -> List[complex]:
    return [complex(np.exp(1j * a)) for a in angles]


def rotation_case(xi: complex):
    """(phi spec, family spec) for H@rot:xi with the dilatation -xi*z."""
    phi = f"H@rot:re={xi.real!r},im={xi.imag!r}"
    family = f"explicit:monomial:lam_re={-xi.real!r},lam_im={-xi.imag!r},N=1"
    return phi, family


def _certify(seed: int) -> Workload:
    cases = []
    for kind, xis, expected in (("paper", PAPER_XIS, "FAILURE"),
                                ("control", CONTROL_XIS, "NO_FAILURE_FOUND"),
                                ("grid", xis_at(grid_angles()), "FAILURE"),
                                ("seeded", xis_at(seeded_angles(seed)), "FAILURE")):
        for xi in xis:
            phi, family = rotation_case(xi)
            parse_phi(phi)              # parsed here too, so set-up pays for it
            family_from_spec(family)
            cases.append((kind, xi, expected, probe_config(phi, family)))
    table = load_verdicts()

    def run_pass():
        out = []
        for _, _, _, cfg in cases:
            rep = probe_admissibility(cfg)
            out.append((rep, rep.to_json()))
        return out

    def check(out) -> PassScore:
        score = PassScore(attempted=len(cases))
        for (kind, xi, expected, cfg), (rep, text) in zip(cases, out):
            label = f"{kind} xi={xi.real:+.6f}{xi.imag:+.6f}j"
            score_report(rep, text, expected, table.get(cfg.phi_spec, {}), score,
                         lambda key, label=label: label, kind in ("grid", "seeded"))
        return score

    warm = cases[0][3]
    return Workload(run_pass, check, lambda: probe_admissibility(warm),
                    {"paper_xis": [[x.real, x.imag] for x in PAPER_XIS],
                     "control_xis": [[x.real, x.imag] for x in CONTROL_XIS],
                     "grid_angles": grid_angles(), "seeded_angles": seeded_angles(seed),
                     "eta": ETA,
                     "radii": list(LADDER)})


def _reproduce(seed: int) -> Workload:
    fns = [(name, CASES[name]) for name in REPRODUCE_CASES]

    def run_pass():
        return [(name, fn()) for name, fn in fns]

    def check(out) -> PassScore:
        score = PassScore()
        for name, rows in out:
            for row, ok, detail in rows:
                score.attempted += 1
                if not ok:
                    score.fail(f"{name}: {row}", f"FAIL [{detail}]")
                m = _ROW_VERDICT.search(detail)
                if m:
                    score.curves += 1
                    score.inconclusive += m.group(1) == "INCONCLUSIVE"
        return score

    return Workload(run_pass, check, run_pass,
                    {"cases": list(REPRODUCE_CASES)})


WORKLOADS = {
    "sweep-H": lambda seed: _sweep("sweep-H", PHI_H, seed),
    "sweep-Li": lambda seed: _sweep("sweep-Li", PHI_LI, seed),
    "certify-rot": _certify,
    "reproduce-fast": _reproduce,
}


def setup(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def check_f0_closed_forms() -> List[str]:
    """Shear h, g of f0 = shear(H, omega = z, eta = 1) against f0h, f0g.

    Returns the violations; an empty list means every point is within the
    tolerance the test suite pins.
    """
    from shearconvex import (CatalogId, MonomialOmega, ShearSystem, catalog,
                             make_schwarz, shear_construct)
    f = shear_construct(ShearSystem(catalog(CatalogId("H")),
                                    make_schwarz(MonomialOmega(1.0, 1)), 1.0))
    bad = []
    theta = 2.0 * np.pi * (np.arange(F0_POINTS) + 0.5) / F0_POINTS
    for r in LADDER:
        z = r * np.exp(1j * theta)
        for part, kind in ((f.h, "F0_H_PART"), (f.g, "F0_G_PART")):
            ref = catalog(CatalogId(kind)).value(z)
            err = np.abs(part.value(z) - ref)
            tol = F0_TOL if r <= 0.9 else F0_TOL * np.maximum(1.0, np.abs(ref))
            if not np.all(err <= tol):
                bad.append(f"{kind} at r={r}: max error {float(err.max()):.3e}")
    return bad
