"""Canonical text forms for catalog maps, dilatations, eta, and families.

These little grammars are the CLI surface and the serialization format for
probe reports, so every generated object (including seeded random Blaschke
products) round-trips through an explicit text form.

    phi:    H | H-1 | koebe | identity | f0h | f0g | Llambda:re=..,im=..
            optionally suffixed with @rot:re=..,im=..  (H@rot:re=..,im=..
            is the rotated half-plane map z/(1 - cz), c = re + i im)
    omega:  zero
            | monomial:lam_re=..,lam_im=..,N=..        (defaults 1, 0, 1)
            | blaschke:seed=..,deg=..,scale=..          (seeded generator)
            | blaschke-explicit:zeros=a;b;..,phase=..,scale_re=..,scale_im=..
    eta:    re,im | theta=..        (eta = e^{2 i theta})
    family: mixed:phases=..,nmax=..,count=..,deg=..,seed=..
            | monomial-grid:phases=..,nmax=..
            | blaschke-random:count=..,deg=..,seed=..
            | explicit:<omega>[+<omega>..]   (split only at a '+' that starts
                                             an omega, so Blaschke zeros such
                                             as -0.6+0.3j stay whole)
"""

from __future__ import annotations

import re
from typing import List, Tuple

import numpy as np

from .functions import (AnalyticFunction, BlaschkeOmega, CatalogId,
                        MonomialOmega, SchwarzFunction, ZeroOmega, catalog,
                        make_schwarz, rotate_analytic, BLASCHKE_ZERO_CAP)


class SpecError(ValueError):
    pass


def _kv(body: str, what: str, keys: Tuple[str, ...]) -> dict:
    """The k=v fields of body; a key outside ``keys`` is refused, not ignored."""
    out = {}
    for part in body.split(",") if body else ():
        if "=" not in part:
            raise SpecError(f"malformed {what} field {part!r}")
        k, v = (s.strip() for s in part.split("=", 1))
        if k not in keys:
            raise SpecError(f"unknown {what} key {k!r}; expected one of {', '.join(keys)}")
        out[k] = v
    return out


def _complex_kv(kv: dict, re_key: str, im_key: str, default=None) -> complex:
    if re_key not in kv and im_key not in kv:
        if default is None:
            raise SpecError(f"missing {re_key}/{im_key}")
        return default
    return complex(float(kv.get(re_key, 0.0)), float(kv.get(im_key, 0.0)))


_PLAIN_PHI = {CatalogId(k).text: k for k in CatalogId.KINDS if k != "L_LAMBDA"}


def parse_phi(spec: str) -> AnalyticFunction:
    spec = spec.strip()
    rot = None
    if "@rot:" in spec:
        spec, rot_body = spec.split("@rot:", 1)
        kv = _kv(rot_body, "rotation", ("re", "im"))
        rot = _complex_kv(kv, "re", "im")
    if spec in _PLAIN_PHI:
        phi = catalog(CatalogId(_PLAIN_PHI[spec]))
    elif spec.startswith("Llambda:"):
        kv = _kv(spec[len("Llambda:"):], "Llambda", ("re", "im"))
        phi = catalog(CatalogId("L_LAMBDA", _complex_kv(kv, "re", "im")))
    else:
        raise SpecError(f"unknown phi spec {spec!r}")
    if rot is not None:
        phi = rotate_analytic(phi, rot)
    return phi


def _draw_blaschke(rng: np.random.Generator, deg: int) -> Tuple[tuple, float]:
    """Area-uniform zeros in the cap, then a uniform phase, in that draw order."""
    zeros = tuple(BLASCHKE_ZERO_CAP * np.sqrt(rng.uniform())
                  * np.exp(2j * np.pi * rng.uniform()) for _ in range(deg))
    return zeros, float(2.0 * np.pi * rng.uniform())


def blaschke_from_seed(seed: int, deg: int, scale: float) -> BlaschkeOmega:
    """One deterministic Blaschke dilatation: area-uniform zeros in the cap."""
    zeros, phase = _draw_blaschke(np.random.default_rng(int(seed)), int(deg))
    return BlaschkeOmega(zeros=zeros, phase=phase, scale=complex(scale))


def parse_omega(spec: str) -> SchwarzFunction:
    spec = spec.strip()
    if spec == "zero":
        return make_schwarz(ZeroOmega())
    if spec == "monomial" or spec.startswith("monomial:"):
        kv = _kv(spec[len("monomial:"):], "monomial", ("lam_re", "lam_im", "N"))
        lam = _complex_kv(kv, "lam_re", "lam_im", default=1.0 + 0.0j)
        return make_schwarz(MonomialOmega(lam=lam, n=int(kv.get("N", 1))))
    if spec.startswith("blaschke-explicit:"):
        kv = _kv(spec[len("blaschke-explicit:"):], "blaschke-explicit",
                 ("zeros", "phase", "scale_re", "scale_im"))
        if "zeros" not in kv:
            raise SpecError("blaschke-explicit requires zeros=")
        zeros = tuple(complex(s) for s in kv["zeros"].split(";") if s)
        scale = complex(float(kv.get("scale_re", 1.0)), float(kv.get("scale_im", 0.0)))
        return make_schwarz(BlaschkeOmega(zeros=zeros, phase=float(kv.get("phase", 0.0)),
                                          scale=scale))
    if spec.startswith("blaschke:"):
        kv = _kv(spec[len("blaschke:"):], "blaschke", ("seed", "deg", "scale"))
        return make_schwarz(blaschke_from_seed(int(kv.get("seed", 0)),
                                               int(kv.get("deg", 1)),
                                               float(kv.get("scale", 1.0))))
    raise SpecError(f"unknown omega spec {spec!r}")


def parse_eta(spec: str) -> complex:
    spec = spec.strip()
    if spec.startswith("theta="):
        return complex(np.exp(2j * float(spec[len("theta="):])))
    try:
        re_s, im_s = spec.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise SpecError(f"eta spec must be 're,im' or 'theta=..', got {spec!r}") from exc


def format_eta(eta: complex) -> str:
    return f"{eta.real!r},{eta.imag!r}"


# a '+' between omegas: the next text starts an omega head, another '+' or the end
_OMEGA_SEP = re.compile(r"\+(?=\s*(?:zero|monomial|blaschke|\+|$))")


def family_from_spec(spec: str) -> List[SchwarzFunction]:
    """Expand a family spec into concrete dilatations, sorted by text form."""
    spec = spec.strip()
    head, _, body = spec.partition(":")
    omegas: List[SchwarzFunction] = []
    grid, drawn = head in ("monomial-grid", "mixed"), head in ("blaschke-random", "mixed")
    if head == "explicit":
        omegas = [parse_omega(s) for s in _OMEGA_SEP.split(body) if s]
    elif grid or drawn:
        kv = _kv(body, head, ("phases", "nmax") * grid + ("count", "deg", "seed") * drawn)
        if grid:
            phases = int(kv.get("phases", 8))
            nmax = int(kv.get("nmax", 3))
            for k in range(phases):
                lam = np.exp(2j * np.pi * k / phases)
                for n in range(1, nmax + 1):
                    omegas.append(make_schwarz(MonomialOmega(lam=lam, n=n)))
        if drawn:
            count = int(kv.get("count", 50))
            deg_max = int(kv.get("deg", 3))
            seed = int(kv.get("seed", 7))
            rng = np.random.default_rng(seed)
            for _ in range(count):
                zeros, phase = _draw_blaschke(rng, int(rng.integers(1, deg_max + 1)))
                scale = complex(rng.uniform(0.5, 1.0))
                omegas.append(make_schwarz(BlaschkeOmega(zeros=zeros, phase=phase,
                                                         scale=scale)))
    else:
        raise SpecError(f"unknown family spec {spec!r}")
    if not omegas:
        raise SpecError(f"family {spec!r} expands to no dilatation")
    return sorted(omegas, key=lambda w: w.spec.text)


DEFAULT_FAMILY = "mixed:phases=8,nmax=3,count=50,deg=3,seed=7"
DEFAULT_RADII = (0.9, 0.99, 0.999)          # the radius ladder of probes and V_k checks


def check_radii(radii) -> Tuple[float, ...]:
    """A radius ladder, sorted; refused if empty or not inside (0, 1)."""
    radii = tuple(sorted(float(r) for r in radii))
    if not radii or not all(0 < r < 1 for r in radii):     # NaN fails too
        raise SpecError("radii must be nonempty and lie strictly between 0 and 1")
    return radii


def parse_radii(spec: str) -> Tuple[float, ...]:
    return check_radii(s for s in spec.split(",") if s)
