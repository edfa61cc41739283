"""Command-line surface: shear, convexity, probe, vk, reproduce.

Exit codes: 0 on success, 1 on usage or computation errors (including a
`probe` whose summary is INCOMPLETE), 2 when a `reproduce` case contradicts
its pinned expectation.  Relative output paths
are resolved against $SHEARCONVEX_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .boundary_rotation import vk_membership
from .geometry import (convexity_check_resolved, directional_convexity_check,
                       turning_increments)
from .probe import ProbeConfig, probe_admissibility
from .quadrature import ToleranceNotMet
from .render import csv_lines, dumps_report, render_curve_svg, round_floats
from .reproduce import CASES
from .shear import ShearSystem, shear_construct
from .specs import (DEFAULT_FAMILY, DEFAULT_RADII, SpecError, parse_eta,
                    parse_omega, parse_phi, parse_radii)

RADII_ARG = ",".join(repr(r) for r in DEFAULT_RADII)


def _resolve(path: Optional[str]) -> Optional[Path]:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("SHEARCONVEX_OUTDIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, path: Optional[str]) -> None:
    """Write text to path (resolved against $SHEARCONVEX_OUTDIR) or stdout."""
    p = _resolve(path)
    if p is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _precision(text: str) -> int:
    digits = int(text)
    if digits < 6:
        raise argparse.ArgumentTypeError("precision must be >= 6")
    return digits


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, not {text!r}")
    return value


def _add_common(p):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--precision", type=_precision, default=12,
                   help="significant digits of numeric output (>= 6)")


def cmd_shear(args) -> int:
    if not 0.0 < args.r < 1.0:
        raise ValueError("radius must satisfy 0 < r < 1")
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, not {args.n}")
    sys_ = ShearSystem(parse_phi(args.phi), parse_omega(args.omega), parse_eta(args.eta))
    f = shear_construct(sys_)
    theta = np.linspace(0.0, 2.0 * np.pi, args.n, endpoint=False)
    z = args.r * np.exp(1j * theta)
    h, g = f.parts(z)
    gamma = h + np.conj(g)
    rows = zip(theta, z.real, z.imag, gamma.real, gamma.imag,
               h.real, h.imag, g.real, g.imag)
    header = ["theta", "re_z", "im_z", "re_f", "im_f", "re_h", "im_h", "re_g", "im_g"]
    _emit("\n".join(csv_lines(header, rows, args.precision)) + "\n", args.out)
    return 0


def _convexity_report(args):
    f = shear_construct(ShearSystem(parse_phi(args.phi), parse_omega(args.omega),
                                    parse_eta(args.eta)))
    curve, rep = convexity_check_resolved(f, args.r, args.n)
    gamma = curve.gamma
    report = {
        "label": f.label,
        "r": args.r,
        "n": rep.n,
        "near_boundary": curve.near_boundary,
        "verdict": rep.verdict,
        "total_turning": rep.total_turning,
        "worst_backturn": rep.worst_backturn,
        "max_step": rep.max_step,
        "witness_window": list(rep.witness) if rep.witness else None,
        "curve": {
            "theta": curve.theta.tolist(),
            "re": gamma.real.tolist(),
            "im": gamma.imag.tolist(),
        },
        "parabola_overlay": bool(args.parabola_overlay),
    }
    if args.direction is not None:
        d = directional_convexity_check(curve, args.direction)
        report["direction"] = {"t": d.t, "passed": d.passed, "sign_changes": d.sign_changes}
    return report, curve


def cmd_convexity(args) -> int:
    report, curve = _convexity_report(args)
    rounded = round_floats(report, args.precision)
    _emit(dumps_report(rounded, args.precision), args.out)
    if args.svg:
        # render from the serialized (rounded) report so that re-rendering a
        # saved JSON reproduces the SVG byte for byte
        _emit(render_curve_svg(rounded), args.svg)
    if args.csv:
        inc = turning_increments(curve.tangent)
        rows = zip(curve.theta, curve.gamma.real, curve.gamma.imag, inc)
        _emit("\n".join(csv_lines(["theta", "re", "im", "turning_increment"],
                                  rows, args.precision)) + "\n", args.csv)
    return 0


def _with_seed(family: str, seed: int) -> str:
    """``family`` with its seed field set to ``seed`` (any old one dropped)."""
    head, _, body = family.strip().partition(":")
    if head not in ("mixed", "blaschke-random"):
        raise SpecError(f"--seed needs a mixed: or blaschke-random: family, not {family!r}")
    fields = [f for f in body.split(",") if f and f.split("=", 1)[0].strip() != "seed"]
    return f"{head}:{','.join(fields + [f'seed={seed}'])}"


def cmd_probe(args) -> int:
    family = args.family if args.seed is None else _with_seed(args.family, args.seed)
    cfg = ProbeConfig(phi_spec=args.phi, eta=parse_eta(args.eta), family_spec=family,
                      radii=parse_radii(args.radii))
    rep = probe_admissibility(cfg)
    payload = rep.to_jsonable()
    payload["config"]["seed_echo"] = args.seed
    _emit(dumps_report(payload, args.precision), args.out)
    if rep.summary == "INCOMPLETE":
        sys.stderr.write("error: probe INCOMPLETE; see the per-omega errors\n")
        return 1
    return 0


def cmd_vk(args) -> int:
    member, worst, values = vk_membership(parse_phi(args.phi), args.k,
                                          parse_radii(args.radii))
    report = {
        "phi": args.phi,
        "k": args.k,
        "values": [{"r": v.r, "value_over_pi": v.value_over_pi, "n": v.n} for v in values],
        "max_value_over_pi": worst,
        "member": bool(member),
        "note": "sup over r < 1 approximated by the ladder max",
    }
    _emit(dumps_report(report, args.precision), args.out)
    return 0


def cmd_reproduce(args) -> int:
    fn = CASES.get(args.case)
    if fn is None:
        sys.stderr.write(f"unknown case {args.case!r}; choose from {sorted(CASES)}\n")
        return 1
    rows = fn()
    all_ok = True
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="shearconvex",
                 description="harmonic shear construction and convexity verdicts")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shear", parents=[], help="emit sampled h, g, f as CSV")
    p.add_argument("--phi", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--r", type=float, default=0.9)
    p.add_argument("--n", type=int, default=256)
    _add_common(p)
    p.set_defaults(fn=cmd_shear)

    p = sub.add_parser("convexity", help="boundary curve verdict as JSON (+SVG/CSV)")
    p.add_argument("--phi", required=True)
    p.add_argument("--omega", default="zero")
    p.add_argument("--eta", default="-1,0")
    p.add_argument("--r", type=float, default=0.99)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--direction", type=_finite, default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--parabola-overlay", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_convexity)

    p = sub.add_parser("probe", help="sweep a dilatation family for failures")
    p.add_argument("--phi", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--family", default=DEFAULT_FAMILY)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--radii", default=RADII_ARG)
    _add_common(p)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("vk", help="boundary-rotation values and V_k membership")
    p.add_argument("--phi", required=True)
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--radii", default=RADII_ARG)
    _add_common(p)
    p.set_defaults(fn=cmd_vk)

    p = sub.add_parser("reproduce", help="run a named suite and print PASS/FAIL")
    p.add_argument("--case", required=True, help=f"one of {sorted(CASES)}")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def _glue_eta(argv) -> list:
    """``--eta VALUE`` as ``--eta=VALUE``: argparse takes a separate ``-1,0`` for an option."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--eta" and not out[i + 1].startswith("--"):
            out[i:i + 2] = ["--eta=" + out[i + 1]]
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_eta(sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SpecError, ValueError, ToleranceNotMet) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
