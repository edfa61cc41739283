"""Named reproduction suites with pinned expected outcomes.

Each case returns a list of (check_name, passed, detail) rows; the CLI
prints one PASS/FAIL line per row and exits nonzero when an expectation
breaks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from .boundary_rotation import boundary_rotation_value, brannan_transform, vk_membership
from .functions import CatalogId, MonomialOmega, catalog, make_schwarz
from .geometry import (PARABOLA_EXCLUDE, convexity_check_resolved,
                       directional_convexity_check, parabola_residual, sample_boundary)
from .probe import ProbeConfig, midpoint_certificate, probe_admissibility
from .shear import (ShearSystem, analytic_combination, harmonic_from_analytic,
                    shear_construct)
from .specs import DEFAULT_FAMILY, DEFAULT_RADII

Row = Tuple[str, bool, str]


def _disk_grid(r_max: float, n_r: int = 6, n_t: int = 16) -> np.ndarray:
    pts = [rad * np.exp(2j * np.pi * np.arange(n_t) / n_t)
           for rad in np.linspace(r_max / n_r, r_max, n_r)]
    return np.concatenate(pts)


def case_f0() -> List[Row]:
    rows: List[Row] = []
    f = shear_construct(ShearSystem(catalog(CatalogId("H")),
                                    make_schwarz(MonomialOmega(1.0, 1)), 1.0))
    grid = _disk_grid(0.95)
    h, g = f.parts(grid)
    h_err = float(np.abs(h - catalog(CatalogId("F0_H_PART")).value(grid)).max())
    g_err = float(np.abs(g - catalog(CatalogId("F0_G_PART")).value(grid)).max())
    rows.append(("h matches (2z-z^2)/(2(1-z)^2) to 1e-10", h_err <= 1e-10, f"max err {h_err:.2e}"))
    rows.append(("g matches z^2/(2(1-z)^2) to 1e-10", g_err <= 1e-10, f"max err {g_err:.2e}"))
    resid = parabola_residual(sample_boundary(f, 0.9999, 4096))
    rows.append(("parabola residual at r=0.9999 <= 5e-3", resid <= 5e-3, f"residual {resid:.2e}"))
    _, rep = convexity_check_resolved(f, 0.99)
    rows.append(("convexity at r=0.99 is NON_CONVEX", rep.verdict == "NON_CONVEX",
                 f"verdict {rep.verdict}, back-turn {rep.worst_backturn:.3f} rad"))
    m = midpoint_certificate(f, 0.99, rep.witness)
    rows.append(("midpoint witness exists", m is not None,
                 f"midpoint {m}" if m is not None else "no certificate"))
    return rows


def case_rotated_h() -> List[Row]:
    """Vertical shears of rotations of the half-plane map.

    For xi outside {-1, 1} the rotation breaks admissibility and the probe
    must find a persistent failure with the designated dilatation -xi*z; for
    xi in {-1, 1} the default mixed family must come back clean.
    """
    rows: List[Row] = []
    for xi in (complex(np.exp(1j * np.pi / 4)), complex(np.exp(1j * np.pi / 3)), 1j,
               1.0 + 0.0j, -1.0 + 0.0j):
        if xi not in (1.0, -1.0):
            expected = "FAILURE"
            family = f"explicit:monomial:lam_re={-xi.real!r},lam_im={-xi.imag!r},N=1"
        else:
            expected, family = "NO_FAILURE_FOUND", DEFAULT_FAMILY
        rep = probe_admissibility(ProbeConfig(phi_spec=f"H@rot:re={xi.real!r},im={xi.imag!r}",
                                              eta=-1.0 + 0.0j, family_spec=family))
        rows.append((f"xi=({xi.real:+.4f},{xi.imag:+.4f}) -> {expected}",
                     rep.summary == expected, f"observed {rep.summary}"))
    return rows


def case_llambda() -> List[Row]:
    rows: List[Row] = []
    for lam_label, lam in (("i", 1j), ("e^{i pi/3}", complex(np.exp(1j * np.pi / 3)))):
        spec = f"Llambda:re={lam.real!r},im={lam.imag!r}"
        rep = probe_admissibility(ProbeConfig(phi_spec=spec, eta=-1.0 + 0.0j,
                                              family_spec=DEFAULT_FAMILY))
        rows.append((f"vertical shears of L_{lam_label}: NO_FAILURE_FOUND",
                     rep.summary == "NO_FAILURE_FOUND", f"summary {rep.summary}"))
    # vertical shear of L_i with omega = -z lands on the strip-with-slit formula
    lam = 1j
    f = shear_construct(ShearSystem(catalog(CatalogId("L_LAMBDA", lam)),
                                    make_schwarz(MonomialOmega(-1.0, 1)), -1.0))
    grid = _disk_grid(0.99)
    h, g = f.parts(grid)
    hg = h - g
    closed = np.log((1 - lam * grid) * (1 - np.conj(lam) * grid)
                    / (1 - grid) ** 2) / (2 - 2 * lam.real)
    err = float(np.abs(hg - closed).max())
    rows.append(("h-g matches the closed log form to 1e-9", err <= 1e-9, f"max err {err:.2e}"))
    hg_fn = harmonic_from_analytic(analytic_combination(f, 0.0))
    curve = sample_boundary(hg_fn, 0.999, 4096)
    t_grid = np.arange(64) * np.pi / 64
    passing = [float(t) for t in t_grid if directional_convexity_check(curve, t).passed]
    rows.append(("h-g convex only in the horizontal direction",
                 passing == [0.0], f"passing directions {passing}"))
    return rows


def case_halfplane() -> List[Row]:
    """The paper's regions, read from phi's closed form on |z| = 1.

    H maps the disk onto the half-plane Re w > -1/2 and L_i onto the strip
    |Re w| < pi/4; f0 = f0h + conj(f0g) maps it onto the inside of the
    parabola Re w + (Im w)^2 + 1/4 < 0, neither.  The angles sit halfway
    between the points of a uniform grid, so none is a pole of phi' (0,
    +-pi/2, pi); f0 is read off its pole, at |theta| >= ``PARABOLA_EXCLUDE``.
    """
    theta = 2.0 * np.pi * (np.arange(4096) + 0.5) / 4096 - np.pi
    z = np.exp(1j * theta)
    rows: List[Row] = []
    dev = float(np.abs(catalog(CatalogId("H")).value(z).real + 0.5).max())
    rows.append(("H's boundary is the line Re w = -1/2 (+-1e-3)", dev <= 1e-3,
                 f"max deviation {dev:.1e}"))
    re = catalog(CatalogId("L_LAMBDA", 1j)).value(z).real
    dev = float(np.abs(np.abs(re) - np.pi / 4).max())
    width = float(np.ptp(re) / np.pi)
    rows.append(("L_i's boundary is the lines Re w = +-pi/4, width/pi = 1/2 (+-1e-3)",
                 dev <= 1e-3 and abs(width - 0.5) <= 1e-3,
                 f"width/pi {width!r}, max deviation {dev:.1e}"))
    arc = z[np.abs(theta) >= PARABOLA_EXCLUDE]
    w = (catalog(CatalogId("F0_H_PART")).value(arc)
         + np.conj(catalog(CatalogId("F0_G_PART")).value(arc)))
    resid = float(np.abs(w.real + w.imag ** 2 + 0.25).max())
    rows.append(("f0's boundary is the parabola Re w + (Im w)^2 + 1/4 = 0 (+-1e-3)",
                 resid <= 1e-3, f"residual {resid:.1e}"))
    return rows


def case_koebe_directions() -> List[Row]:
    k = harmonic_from_analytic(catalog(CatalogId("KOEBE")))
    curve = sample_boundary(k, 0.999, 4096)
    t_grid = np.arange(64) * np.pi / 64
    passing = [float(t) for t in t_grid if directional_convexity_check(curve, t).passed]
    ok = passing == [0.0]
    return [("koebe at r=0.999 convex exactly in direction t=0 on the 64-grid",
             ok, f"passing directions {passing}")]


def case_brannan() -> List[Row]:
    rows: List[Row] = []
    for label, cid in (("H", CatalogId("H")), ("H-1", CatalogId("H_ROT_MINUS1")),
                       ("L_i", CatalogId("L_LAMBDA", 1j)), ("identity", CatalogId("IDENTITY"))):
        phi = catalog(cid)
        dev = max(abs(boundary_rotation_value(phi, r).value_over_pi - 2.0)
                  for r in DEFAULT_RADII)
        rows.append((f"{label}: boundary rotation value 2 (+-1e-9) on the ladder",
                     dev <= 1e-9, f"max deviation {dev:.2e}"))
    H = catalog(CatalogId("H"))
    psi1 = brannan_transform(H, -1.0, 1)
    ok1, worst1, _ = vk_membership(psi1, 4.0)
    rows.append(("transform of H with (lam=-1, N=1) lies in V_4 (+-1e-6)", ok1,
                 f"max value {worst1:.9f}"))
    grid = _disk_grid(0.95)
    err = float(np.abs(psi1.value(grid) - catalog(CatalogId("KOEBE")).value(grid)).max())
    rows.append(("that transform coincides with the Koebe function to 1e-10",
                 err <= 1e-10, f"max err {err:.2e}"))
    psi2 = brannan_transform(H, 1.0, 2)
    ok2, worst2, _ = vk_membership(psi2, 6.0)
    rows.append(("transform of H with (lam=1, N=2) lies in V_6 (+-1e-6)", ok2,
                 f"max value {worst2:.9f}"))
    return rows


CASES: Dict[str, Callable[[], List[Row]]] = {
    "f0": case_f0,
    "rotatedH": case_rotated_h,
    "Llambda": case_llambda,
    "halfplane": case_halfplane,
    "koebe-directions": case_koebe_directions,
    "brannan": case_brannan,
}
