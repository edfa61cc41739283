"""Admissibility probing: search shear families for convexity failures.

A pair (eta, phi) is admissible when every shear of phi with a Schwarz
dilatation maps the whole disk onto a convex region.  The probe samples a
dilatation family and inspects boundary curves on a radius ladder, but a
per-radius back-turn is NOT yet evidence against admissibility: restrictions
of convex harmonic maps lose convexity beyond radius sqrt(2) - 1, so level
curves of perfectly admissible shears wobble at r = 0.9 and beyond.

A FAILURE therefore requires a *persistent* witness: from the worst
back-turn window the probe builds a midpoint certificate, two curve points
whose chord midpoint lies outside the sampled curve (winding number 0), and
the certificate must stay outside at every larger ladder radius and at
extension radii pushed toward |z| = 1.  Hereditary wobbles get absorbed as
r grows (their pockets shrink like 1 - r); genuine non-convexity of the full
image leaves a fixed pocket that never fills in.

NO_FAILURE_FOUND is a report about the family searched, never a proof of
admissibility; INCOMPLETE says no failure was found but some dilatation
could not be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (BACKTURN_TOL, NEAR_BOUNDARY_RADIUS, NON_CONVEX_BACKTURN,
                       REFINE_MAX_ROUNDS, REFINE_SAMPLES_MAX, TURNING_SAMPLES,
                       ConvexityReport, convexity_check_resolved, split_steps)
from .quadrature import ToleranceNotMet
from .shear import HarmonicMap, ShearSystem, shear_construct
from .specs import (DEFAULT_FAMILY, DEFAULT_RADII, check_radii, family_from_spec,
                    format_eta, parse_phi)

WINDING_SAMPLES = 1024           # uniform angles of a winding curve's base grid
WINDING_BLOCK = 32               # steps per block of a winding judge's first round
BRACKETS = (1 / 64, 1 / 16, 1 / 8, 1 / 4, 3 / 8, 1 / 2)   # half-widths, fractions of pi
NEWTON_ITERS = 40
NEWTON_TOL = 1e-8                # residual, relative to 1 + |m|
NEWTON_R_CAP = 0.999999          # largest |z| of a Newton iterate
ONSET_STEPS = 8                  # bisection steps of the onset radius
LINE_RESIDUAL_FRAC = 0.03        # straight: transverse spread / extent along the chord


def _extension_radii(r_top: float) -> Tuple[float, float]:
    return (1.0 - (1.0 - r_top) / 2.0, 1.0 - (1.0 - r_top) / 10.0)


class _WindingCurves:
    """Adaptively refined image-curve samples per radius, shared across queries.

    Positions come from ``_positions``, by default
    ``HarmonicMap.parts_on_circle``: h chained along chords between
    neighbouring samples from radial anchors (every ``CHAIN_STRIDE``-th
    sample, and wherever a chord does not converge or a pole's excursion
    ends), which agrees with the radial route to about 1e-11 relative (within
    2e-4 of a pole, where |f| can fall to a twentieth of |h|, the radial
    route is itself 1.3e-11 off the closed form), and g solved from h; the
    winding is an integer, so that moves no verdict.
    Each radius caches its theta, curve and (h, g), in curve order.  The
    base theta is ``WINDING_SAMPLES`` uniform angles plus, at each angle a of
    ``ShearSystem.pole_angles``, a and a +- (1 - r) 2^k (k = 0, 1, ...) below
    half the uniform spacing: the curve turns fastest within about 1 - r of
    a pole of h'.  Refinements accumulate: one round splits the union of the
    bad steps of every unsettled point of a batch, chaining the new samples
    from the h at each step's first sample, and later batches at that radius
    reuse them.
    """

    def __init__(self, f: HarmonicMap):
        self.f = f
        self._curves: dict = {}

    def _positions(self, r: float, theta, start=None):
        """(h, g) at r e^{i theta}; the only source of the curves' positions."""
        return self.f.parts_on_circle(r, theta, start=start)

    def _base(self, r: float):
        got = self._curves.get(r)
        if got is None:
            d = (1.0 - r) * 2.0 ** np.arange(64)
            d = d[d < np.pi / WINDING_SAMPLES]
            graded = self.f.shear.pole_angles[:, None] + np.concatenate([[0.0], -d, d])
            theta = np.union1d(np.linspace(0.0, 2.0 * np.pi, WINDING_SAMPLES, endpoint=False),
                               graded % (2.0 * np.pi))
            hg = self._positions(r, theta)
            got = self._curves[r] = (theta, hg[0] + np.conj(hg[1]), hg)
        return got

    def _refine(self, r: float, theta, first):
        """``geometry.split_steps`` of the curve at r; the new theta and gamma."""
        hg = self._curves[r][2]
        theta, hg = split_steps(theta, hg, first,
                                lambda steps: self._positions(r, steps, start=hg[0, first]))
        got = self._curves[r] = (theta, hg[0] + np.conj(hg[1]), hg)
        return got[:2]

    def winding(self, points: Sequence[complex], r: float) -> List[Optional[int]]:
        """Winding of the radius-r image curve around each point, in input
        order; None where it is untrustable.

        A step whose chord exceeds half the smaller distance from the query
        point to its ends is not trusted: the curve can make an excursion
        around m and back between such samples, hiding a full turn from the
        principal value.  A trusted step subtends at most arccos(7/8) ~ 0.505
        rad at m, so a hairline pocket (a step subtending nearly pi) is never
        trusted either.  Each round judges the steps of every unsettled point
        at once; a point without a bad step settles, and the union of the
        others' bad steps is refined in one call.  A step that refinement
        left alone keeps its endpoints, its angle and its verdict, so later
        rounds judge only the steps that refinement made.

        The judge has two levels.  Steps go in blocks: ``WINDING_BLOCK``
        consecutive steps in the first round (the last block, shorter, is
        padded with zero steps where it wraps to theta = 0), each refined
        step's 8 parts in later rounds.  A block whose bounding disk (c, rho)
        has |m - c| >= 5 rho has no bad step for m: every chord is at most
        2 rho, every sample at least 4 rho from m, and its arguments sum to
        the principal argument across its two end samples.  A block that far
        from every unsettled point is summed whole; only the others are
        judged step by step.  An unsettled point keeps its round's total less
        the steps about to be refined, so the rule is the per-step chord
        rule, exactly.

        A point on the curve, a batch whose refinement would exceed
        ``REFINE_SAMPLES_MAX`` and a point still unsettled after
        ``REFINE_MAX_ROUNDS`` rounds give None.  Since the maps probed here
        are univalent their curves are Jordan; any winding outside {0, 1} is
        reported as untrustable.
        """
        m = np.array(points, dtype=complex).reshape(-1)
        out: List[Optional[int]] = [None] * m.size
        live = np.arange(m.size)
        kept = np.zeros(m.size)          # arg sum over the steps no longer judged
        theta, gamma, _ = self._base(r)
        # the blocks to judge, as rows of their steps' first samples; the
        # last one is padded with zero steps at theta = 0, where it wraps
        rows = -(-theta.size // WINDING_BLOCK)
        block = np.minimum(np.arange(rows * WINDING_BLOCK), theta.size).reshape(rows, -1)
        for _ in range(REFINE_MAX_ROUNDS):
            n = theta.size
            ring = np.append(gamma, gamma[:1])        # ring[n] closes the curve
            a, b = ring[block], ring[np.minimum(block + 1, n)]
            c = (a[:, 0] + b[:, -1]) / 2.0
            rho = np.abs(b - c[:, None]).max(axis=1)
            mu = m[live, None]
            floor = 1e-9 * (1.0 + np.abs(mu))
            # with a float margin: every sample 4 rho and the floor from m
            whole = ((1.0 - 1e-12) * np.abs(mu - c) >= 5.0 * rho + floor).all(axis=0)
            total = np.zeros(live.size)               # the whole blocks' arg sums
            if whole.any():
                total = np.angle((b[whole, -1] - mu) / (a[whole, 0] - mu)).sum(axis=1)
                block, a, b = block[~whole], a[~whole], b[~whole]
            steps, a, b = block.ravel(), a.ravel(), b.ravel()
            d0, d1 = a - mu, b - mu
            dist0, dist1 = np.abs(d0), np.abs(d1)
            off = dist0.min(axis=1, initial=np.inf) >= floor[:, 0]
            if not off.all():
                live, total, d0, d1, dist0, dist1 = (
                    x[off] for x in (live, total, d0, d1, dist0, dist1))
            darg = np.angle(d1 / d0)
            bad = np.abs(b - a) > 0.5 * np.minimum(dist0, dist1)
            total += darg.sum(axis=1)
            settled = ~bad.any(axis=1)
            turns = np.round((kept[live[settled]] + total[settled]) / (2.0 * np.pi))
            for i, w in zip(live[settled], turns):
                out[i] = int(w) if w in (0, 1) else None
            live, darg, bad, total = live[~settled], darg[~settled], bad[~settled], total[~settled]
            if not live.size:
                break
            union = bad.any(axis=0)
            if n + 7 * int(union.sum()) > REFINE_SAMPLES_MAX:
                break
            kept[live] += total - darg[:, union].sum(axis=1)
            first = steps[union]
            theta, gamma = self._refine(r, theta, first)
            # each refined step's first sample has moved 7 places per refined
            # step before it; it and its 7 new successors make one block
            block = (first + 7 * np.arange(first.size))[:, None] + np.arange(8)
        return out


@dataclass(frozen=True)
class ProbeConfig:
    phi_spec: str
    eta: complex
    family_spec: str = DEFAULT_FAMILY
    radii: Tuple[float, ...] = DEFAULT_RADII

    def __post_init__(self):
        object.__setattr__(self, "radii", check_radii(self.radii))


@dataclass(frozen=True)
class FailureWitness:
    omega_spec: str
    r: float                             # ladder radius with a resolved NON_CONVEX verdict
    n: int
    theta_window: Tuple[float, float]
    worst_backturn: float
    certificate_r: float                 # radius anchoring the midpoint certificate
    midpoint: complex
    persists_at: Tuple[float, ...]
    r_onset: float                       # smallest back-turning radius found


@dataclass
class ProbeReport:
    config: ProbeConfig
    per_omega: dict                      # omega text -> per-radius records
    failures: List[FailureWitness]
    notes: List[str]

    @property
    def summary(self) -> str:
        """FAILURE, else INCOMPLETE if an omega errored, else NO_FAILURE_FOUND."""
        if self.failures:
            return "FAILURE"
        if any("error" in rows for rows in self.per_omega.values()):
            return "INCOMPLETE"
        return "NO_FAILURE_FOUND"

    def to_jsonable(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "phi": cfg.phi_spec,
                "eta": format_eta(cfg.eta),
                "family": cfg.family_spec,
                "radii": list(cfg.radii),
                "n_samples": TURNING_SAMPLES,
                "tol_backturn": BACKTURN_TOL,
            },
            "summary": self.summary,
            "disclaimer": ("NO_FAILURE_FOUND reports the searched family only; "
                           "it does not prove admissibility."),
            "failures": [
                {
                    "omega": w.omega_spec,
                    "r": w.r,
                    "n": w.n,
                    "theta_window": list(w.theta_window),
                    "worst_backturn": w.worst_backturn,
                    "certificate_r": w.certificate_r,
                    "midpoint": [w.midpoint.real, w.midpoint.imag],
                    "persists_at": list(w.persists_at),
                    "r_onset": w.r_onset,
                }
                for w in self.failures
            ],
            "per_omega": self.per_omega,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        from .render import dumps_report   # on first use: keeps package import lean
        return dumps_report(self.to_jsonable())


def _record(rep: ConvexityReport) -> dict:
    rec = {
        "verdict": rep.verdict,
        "total_turning": rep.total_turning,
        "worst_backturn": rep.worst_backturn,
        "max_step": rep.max_step,
        "n": rep.n,
    }
    if rep.witness is not None:
        rec["theta_window"] = list(rep.witness)
    return rec


def _candidate_midpoints(f: HarmonicMap, r: float, anchors: Sequence[float]) -> list:
    """Chord midpoints of radius-r image points bracketing the given anchors.

    Both chord endpoints are image points, so any midpoint that stays
    outside the image curve at every larger radius certifies non-convexity
    of the full image.
    """
    deltas = np.pi * np.array(BRACKETS)
    a = np.asarray(anchors, dtype=float)[:, None]
    w = f.map_points(r * np.exp(1j * np.concatenate([a - deltas, a + deltas], axis=1)))
    k = len(BRACKETS)
    return [complex(v) for v in ((w[:, :k] + w[:, k:]) / 2.0).ravel()]


def _window_mid(window: Tuple[float, float]) -> float:
    """The angle halfway along the window (a, b), counter-clockwise from a."""
    a, b = window
    return (a + ((b - a) % (2.0 * np.pi)) / 2.0) % (2.0 * np.pi)


def _window_anchors(rep: ConvexityReport) -> list:
    anchors = []
    if rep.worst_step_theta is not None:
        anchors.append(rep.worst_step_theta)
    if rep.witness is not None:
        anchors.append(_window_mid(rep.witness))
    return anchors


_SEED_RHOS = (0.5, 0.9, 0.99, 0.999, 0.9999)


def newton_preimage(f: HarmonicMap, m: complex,
                    anchors: Sequence[float] = ()) -> Optional[complex]:
    """Solve f(z) = m inside the disk by damped Newton from a seed battery.

    With res = f(z) - m, the linearization h'(z) dz + conj(g'(z) dz) = -res
    and its conjugate solve in closed form to

        dz = (conj(g' res) - conj(h') res) / (|h'|^2 - |g'|^2),

    whose denominator is the Jacobian, > 0 on the disk, so steps are always
    defined.  A returned z constructively proves m lies in the image; None
    means no seed converged (evidence, not proof, of escape).
    """
    angles = list(np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    for a in anchors:
        angles.extend([a, a - 0.02, a + 0.02])
    z = (np.array(_SEED_RHOS)[:, None] * np.exp(1j * np.array(angles))).ravel()
    for it in range(NEWTON_ITERS + 1):
        res = f.map_points(z) - m
        done = np.abs(res) <= NEWTON_TOL * (1.0 + abs(m))
        if done.any():
            return complex(z[done][0])
        if it == NEWTON_ITERS:
            break
        h1, g1 = f.derivatives(z)
        den = np.abs(h1) ** 2 - np.abs(g1) ** 2
        den = np.where(np.abs(den) < 1e-300, 1e-300, den)
        z_new = z + (np.conj(g1 * res) - np.conj(h1) * res) / den
        # pull runaway iterates back toward the disk; the cap keeps every
        # iterate inside it and the quadrature grading depth bounded
        bad = np.abs(z_new) >= NEWTON_R_CAP
        if bad.any():
            z_new[bad] = (z_new[bad] / np.abs(z_new[bad])
                          * np.minimum((np.abs(z[bad]) + 1.0) / 2.0, NEWTON_R_CAP))
        z = z_new
    return None


def midpoint_certificate(f: HarmonicMap, r: float,
                         theta_window: Optional[Tuple[float, float]]) -> Optional[complex]:
    """First chord midpoint near the reversal window that escapes the curve;
    None without a window (a curve with no back-turn) or without an escape."""
    if theta_window is None:
        return None
    candidates = [m for m in _candidate_midpoints(f, r, [_window_mid(theta_window)])]
    windings = _WindingCurves(f).winding(candidates, r)
    return next((m for m, w in zip(candidates, windings) if w == 0), None)


def _onset_radius(f: HarmonicMap, r_fail: float, r_floor: Optional[float]) -> float:
    """Bisect between the last non-failing ladder radius and the failing one."""
    if r_floor is None:
        return r_fail
    lo, hi = r_floor, r_fail
    for _ in range(ONSET_STEPS):
        mid = (lo + hi) / 2.0
        _, rp = convexity_check_resolved(f, mid)
        if rp.verdict == "NON_CONVEX":
            hi = mid
        else:
            lo = mid
    return hi


def _persistent_witness(f: HarmonicMap, cfg: ProbeConfig, reports: dict
                        ) -> Optional[Tuple[float, complex, Tuple[float, ...]]]:
    """Search back-turn anchors, deepest radius first, for a midpoint that
    the image demonstrably never covers.

    Three gates: the midpoint must stay outside (trusted winding zero) at
    every larger ladder radius, stay outside at two extension radii pushed
    toward |z| = 1, and defeat a Newton preimage search.  Hereditary pockets
    fail the winding gates (the growing image absorbs them); chords spanning
    the image's unbounded end fail the preimage gate.  All candidates of one
    anchor radius go through the winding gates together, one batch per
    radius from the outermost in, each batch holding only the survivors of
    the last; Newton then takes the survivors in candidate order.  The search
    ends at the first anchor radius that certifies a midpoint.
    """
    ext = _extension_radii(cfg.radii[-1])
    curves = _WindingCurves(f)
    suspicious = [r for r in cfg.radii if reports[r].worst_backturn > NON_CONVEX_BACKTURN]
    for r_anchor in reversed(suspicious):
        anchors = _window_anchors(reports[r_anchor])
        higher = tuple(r for r in cfg.radii if r > r_anchor) + ext
        probe_order = sorted(higher, reverse=True)
        survivors = [m for m in _candidate_midpoints(f, r_anchor, anchors)]
        for r in probe_order:
            if survivors:
                windings = curves.winding(survivors, r)
                survivors = [m for m, w in zip(survivors, windings) if w == 0]
        for m in survivors:
            if newton_preimage(f, m, anchors) is None:
                return r_anchor, m, higher
    return None


def probe_admissibility(cfg: ProbeConfig) -> ProbeReport:
    """Sweep the dilatation family; fully deterministic for a fixed config."""
    phi = parse_phi(cfg.phi_spec)
    omegas = family_from_spec(cfg.family_spec)
    per_omega: dict = {}
    failures: List[FailureWitness] = []
    notes: List[str] = []
    for omega in omegas:
        key = omega.spec.text
        try:
            f = shear_construct(ShearSystem(phi, omega, cfg.eta))
            reports = {r: convexity_check_resolved(f, r)[1] for r in cfg.radii}
            per_omega[key] = {repr(r): _record(rep) for r, rep in reports.items()}
            r_witness = next((r for r in cfg.radii if reports[r].verdict == "NON_CONVEX"), None)
            if r_witness is None:
                continue
            convex = [r for r in cfg.radii if reports[r].verdict == "CONVEX"]
            r_floor = max((r for r in convex if r < r_witness), default=None)
            notes.extend(f"scale coherence violated for omega={key}: "
                         f"CONVEX at r={r} above NON_CONVEX at r={r_witness}"
                         for r in convex if r > r_witness)
            # A sound failure needs a reproducible NON_CONVEX level curve plus
            # a midpoint certificate that no larger radius absorbs.
            found = _persistent_witness(f, cfg, reports)
            if found is None:
                notes.append(f"omega={key}: level-curve back-turn at r={r_witness} "
                             "but every midpoint certificate is absorbed at a larger "
                             "radius (hereditary, not a failure)")
                continue
            cert_r, m, higher = found
            rep_w = reports[r_witness]
            failures.append(FailureWitness(
                omega_spec=key, r=r_witness, n=rep_w.n, theta_window=rep_w.witness,
                worst_backturn=rep_w.worst_backturn, certificate_r=cert_r, midpoint=m,
                persists_at=higher, r_onset=_onset_radius(f, r_witness, r_floor)))
        except (ToleranceNotMet, ValueError) as exc:  # numerical casualty; keep sweeping
            per_omega[key] = {"error": f"{type(exc).__name__}: {exc}"}
            notes.append(f"omega={key}: construction/check failed: {exc}")
    failures.sort(key=lambda w: w.omega_spec)
    notes.sort()
    return ProbeReport(cfg, per_omega, notes=notes, failures=failures)


# ---------------------------------------------------------------------------
# Half-plane / strip identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionId:
    kind: str                      # HALF_PLANE | STRIP | OTHER
    normal: Optional[complex] = None     # HALF_PLANE: {Re(conj(normal) w) > offset}
    offset: Optional[float] = None
    a: Optional[float] = None            # STRIP: {a < Re(conj(normal) w) < b}
    b: Optional[float] = None

    @property
    def strip_width_over_pi(self) -> Optional[float]:
        if self.kind != "STRIP":
            return None
        return (self.b - self.a) / np.pi


def halfplane_strip_identifier(f: HarmonicMap) -> RegionId:
    """Classify the near-boundary image as half-plane, strip, or neither.

    The boundary runs off to infinity only at ``ShearSystem.pole_angles``,
    so each arc between consecutive poles maps to one piece of it.  The
    middle half of an arc, read at r = ``NEAR_BOUNDARY_RADIUS``, is straight
    when it advances monotonically along its end-to-end chord d with a
    transverse spread of at most ``LINE_RESIDUAL_FRAC`` times its extent.
    One pole with a straight arc is a half-plane, two with straight arcs
    running in opposite directions a strip, anything else OTHER.  The curve
    is positively oriented, so the inward normal is i d; each offset is the
    extreme transverse sample, off by O((1 - r) / gap) on an arc of angle
    gap; a strip's normal has Re >= 0.  The answer is only as complete as ``pole_angles``: a Blaschke
    omega's zeros of 1 - eta omega are not listed and bend an arc, and a
    monomial shear's extra poles make three or more ends; both give OTHER.
    """
    poles = f.shear.pole_angles
    if not 1 <= poles.size <= 2:
        return RegionId("OTHER")
    gaps = np.diff(poles, append=poles[0] + 2.0 * np.pi)
    # an odd count makes each arc's midpoint a sample
    theta = poles[:, None] + gaps[:, None] * np.linspace(0.25, 0.75, TURNING_SAMPLES // 2 + 1)
    hg = f.parts_on_circle(NEAR_BOUNDARY_RADIUS, theta)
    gamma = hg[0] + np.conj(hg[1])
    d = (gamma[:, -1] - gamma[:, 0]) / np.abs(gamma[:, -1] - gamma[:, 0])
    u = np.conj(d[:, None]) * (gamma - gamma[:, :1])
    if not (np.all(np.diff(u.real) > 0)
            and np.all(np.ptp(u.imag, axis=1) <= LINE_RESIDUAL_FRAC * u.real[:, -1])):
        return RegionId("OTHER")
    nrm = complex(1j * d[0])
    q = (np.conj(nrm) * gamma).real
    if poles.size == 1:
        return RegionId("HALF_PLANE", normal=nrm, offset=float(q.min()))
    if abs(d[0] + d[1]) > LINE_RESIDUAL_FRAC:
        return RegionId("OTHER")
    a, b = float(q[0].min()), float(q[1].max())
    if nrm.real < 0:
        nrm, a, b = -nrm, -b, -a
    return RegionId("STRIP", normal=nrm, a=a, b=b)
