"""Per-layer counters and spans for shearconvex, installed from outside.

The tracer replaces public functions and methods of each layer with
counting, timing wrappers for the duration of a traced run; nothing inside
``src/`` knows about it.  A module-level function is replaced in every
``shearconvex`` module that binds it (``from .x import f`` copies the
binding), a method on its class.

Spans: each wrapper pushes a frame on one stack.  A layer's ``.s`` is its
inclusive wall time, counted at its outermost frame only; ``.self_s`` is
that time minus the time of the child frames of other layers it called.
Counters depend only on the inputs, so two traced passes over the same
inputs give identical counters; times do not.

A target that no longer exists (renamed or deleted by a later change) is
skipped: its metrics are listed in ``Tracer.absent`` and read 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# name, unit, better -- the per_layer list of BENCHMARK.json, in order.
PER_LAYER = [
    ("quadrature.calls", "count", "lower"),
    ("quadrature.endpoints", "count", "lower"),
    ("quadrature.integrand_points", "count", "lower"),
    ("quadrature.max_grading_depth", "count", "lower"),
    ("quadrature.s", "s", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("functions.omega_points", "count", "lower"),
    ("functions.phi_points", "count", "lower"),
    ("functions.channel_s", "s", "lower"),
    ("shear.map_points.calls", "count", "lower"),
    ("shear.map_points.points", "count", "lower"),
    ("shear.map_points.s", "s", "lower"),
    ("shear.map_points.self_s", "s", "lower"),
    ("geometry.resolved_checks", "count", "lower"),
    ("geometry.curve_samples", "count", "lower"),
    ("geometry.escalated_checks", "count", "lower"),
    ("geometry.resolved_ratio", "ratio", "higher"),
    ("geometry.s", "s", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("probe.winding.queries", "count", "lower"),
    ("probe.winding.refine_rounds", "count", "lower"),
    ("probe.winding.refine_points", "count", "lower"),
    ("probe.winding.untrusted", "count", "lower"),
    ("probe.winding.s", "s", "lower"),
    ("probe.winding.self_s", "s", "lower"),
    ("probe.newton.calls", "count", "lower"),
    ("probe.newton.preimages_found", "count", "lower"),
    ("probe.newton.s", "s", "lower"),
    ("probe.newton.self_s", "s", "lower"),
    ("probe.witness_searches", "count", "lower"),
    ("probe.candidates_tested", "count", "lower"),
    ("probe.certified", "count", "higher"),
    ("boundary_rotation.calls", "count", "lower"),
    ("boundary_rotation.angles", "count", "lower"),
    ("boundary_rotation.s", "s", "lower"),
    ("boundary_rotation.self_s", "s", "lower"),
    ("specs.family_s", "s", "lower"),
    ("render.json_s", "s", "lower"),
    ("traced.pass_s", "s", "lower"),
]

# metric -> (span layer, "s" inclusive | "self" self time)
_TIMES = {
    "quadrature.s": ("quadrature", "s"), "quadrature.self_s": ("quadrature", "self"),
    "functions.channel_s": ("functions", "s"),
    "shear.map_points.s": ("shear.map_points", "s"),
    "shear.map_points.self_s": ("shear.map_points", "self"),
    "geometry.s": ("geometry", "s"), "geometry.self_s": ("geometry", "self"),
    "probe.winding.s": ("probe.winding", "s"),
    "probe.winding.self_s": ("probe.winding", "self"),
    "probe.newton.s": ("probe.newton", "s"), "probe.newton.self_s": ("probe.newton", "self"),
    "boundary_rotation.s": ("boundary_rotation", "s"),
    "boundary_rotation.self_s": ("boundary_rotation", "self"),
    "specs.family_s": ("specs", "s"),
    "render.json_s": ("render", "s"),
}


def _arg(fn: Callable, name: str) -> Optional[Callable]:
    """Getter for parameter ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = inspect.signature(fn).parameters
    if name not in params:
        return None
    i, default = list(params).index(name), params[name].default

    def get(a, k):
        if name in k:
            return k[name]
        return a[i] if i < len(a) else default
    return get


class _CountedList(list):
    """A list that counts the items its consumer actually pulls."""

    def __init__(self, items, counts, key):
        super().__init__(items)
        self._counts, self._key = counts, key

    def __iter__(self):
        for item in list.__iter__(self):
            self._counts[self._key] += 1
            yield item


class Tracer:
    def __init__(self):
        self.counts: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._stack: list = []
        self._undo: list = []
        self.absent: List[str] = []

    # -- spans ---------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and time; wrappers stay installed."""
        for d in (self.counts, self.incl, self.self_time, self._depth):
            d.clear()
        self._stack.clear()

    def _span(self, layer: Optional[str], fn: Callable, calls: Optional[str] = None,
              before=None, after=None) -> Callable:
        """Wrap fn: count ``calls``, run before(a, k) and after(a, k, result),
        and, unless ``layer`` is None, record a span of that layer."""
        clock, stack, depth = time.perf_counter, self._stack, self._depth
        incl, self_time, counts = self.incl, self.self_time, self.counts

        def wrapper(*a, **k):
            if calls is not None:
                counts[calls] += 1
            if before is not None:
                before(a, k)
            if layer is None:
                result = fn(*a, **k)
            else:
                frame = [clock(), 0.0]
                stack.append(frame)
                depth[layer] += 1
                try:
                    result = fn(*a, **k)
                finally:
                    stack.pop()
                    depth[layer] -= 1
                    dur = clock() - frame[0]
                    self_time[layer] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    if depth[layer] == 0:
                        incl[layer] += dur
            if after is not None:
                after(a, k, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def _resolve(self, module: str, path: str):
        try:
            obj = importlib.import_module(module)
        except ImportError:
            return None, None
        owner = None
        for part in path.split("."):
            owner, obj = obj, getattr(obj, part, None)
            if obj is None:
                return None, None
        return owner, obj

    def _patch(self, module: str, path: str, metrics: List[str],
               make: Callable[[Callable], Callable]) -> None:
        owner, orig = self._resolve(module, path)
        if orig is None:
            self.absent.extend(metrics)
            return
        wrapper = make(orig)
        name = path.rsplit(".", 1)[-1]
        if inspect.isclass(owner):
            self._undo.append((owner, name, orig))
            setattr(owner, name, wrapper)
            return
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "")
            if (mname == "shearconvex" or mname.startswith("shearconvex.")) \
                    and getattr(mod, name, None) is orig:
                self._undo.append((mod, name, orig))
                setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def install(self) -> "Tracer":
        c = self.counts
        importlib.import_module("shearconvex.reproduce")   # so its bindings are patched too

        def points(key, index):
            def before(a, k):
                c[key] += np.size(a[index])
            return before

        def count_if(key, test):
            def after(a, k, res):
                c[key] += bool(test(res))
            return after

        # quadrature
        self._patch("shearconvex.quadrature", "antiderivative_many",
                    [m for m, _, _ in PER_LAYER if m.startswith("quadrature.")],
                    self._quadrature)

        # functions: the channels of the phi and omegas a probe parses
        def wrap_channels(obj, key, fields):
            if not dataclasses.is_dataclass(obj) or not all(hasattr(obj, f) for f in fields):
                return obj
            return dataclasses.replace(obj, **{
                f: self._span("functions", getattr(obj, f), before=points(key, 0))
                for f in fields})

        def traced_parse_phi(fn):
            return lambda *a, **k: wrap_channels(fn(*a, **k), "functions.phi_points",
                                                 ("value_fn", "d1_fn", "d2_fn"))

        def traced_family(fn):
            def family(*a, **k):
                return [wrap_channels(w, "functions.omega_points", ("value_fn", "d1_fn"))
                        for w in fn(*a, **k)]
            return self._span("specs", family)

        self._patch("shearconvex.specs", "parse_phi", ["functions.phi_points"],
                    traced_parse_phi)
        self._patch("shearconvex.specs", "family_from_spec",
                    ["functions.omega_points", "specs.family_s"], traced_family)

        # shear
        self._patch("shearconvex.shear", "HarmonicMap.map_points",
                    ["shear.map_points.calls", "shear.map_points.points",
                     "shear.map_points.s", "shear.map_points.self_s"],
                    lambda fn: self._span("shear.map_points", fn, "shear.map_points.calls",
                                          before=points("shear.map_points.points", 1)))

        # geometry: convexity_check_resolved plus sample_boundary
        self._patch("shearconvex.geometry", "convexity_check_resolved",
                    ["geometry.resolved_checks", "geometry.escalated_checks",
                     "geometry.resolved_ratio", "geometry.s", "geometry.self_s"],
                    self._resolved_check)

        def traced_sample(fn):
            get_n = self._param(fn, "n", "geometry.curve_samples")

            def before(a, k):
                c["geometry.curve_samples"] += int(get_n(a, k))
            return self._span("geometry", fn, before=before if get_n else None)

        self._patch("shearconvex.geometry", "sample_boundary", ["geometry.curve_samples"],
                    traced_sample)

        # probe: winding, refinement, Newton, witness search
        self._patch("shearconvex.probe", "_WindingCurves.winding",
                    ["probe.winding.queries", "probe.winding.untrusted",
                     "probe.winding.s", "probe.winding.self_s"],
                    lambda fn: self._span("probe.winding", fn, "probe.winding.queries",
                                          after=count_if("probe.winding.untrusted",
                                                         lambda res: res is None)))
        self._patch("shearconvex.probe", "_WindingCurves._refine",
                    ["probe.winding.refine_rounds", "probe.winding.refine_points"],
                    self._refine)
        self._patch("shearconvex.probe", "newton_preimage",
                    ["probe.newton.calls", "probe.newton.preimages_found",
                     "probe.newton.s", "probe.newton.self_s"],
                    lambda fn: self._span("probe.newton", fn, "probe.newton.calls",
                                          after=count_if("probe.newton.preimages_found",
                                                         lambda res: res is not None)))
        self._patch("shearconvex.probe", "_persistent_witness",
                    ["probe.witness_searches", "probe.certified"],
                    lambda fn: self._span(None, fn, "probe.witness_searches",
                                          after=count_if("probe.certified",
                                                         lambda res: res is not None)))
        self._patch("shearconvex.probe", "_candidate_midpoints", ["probe.candidates_tested"],
                    lambda fn: lambda *a, **k: _CountedList(
                        fn(*a, **k), c, "probe.candidates_tested"))

        # boundary_rotation
        def add_angles(a, k, res):
            c["boundary_rotation.angles"] += int(res.n)

        self._patch("shearconvex.boundary_rotation", "boundary_rotation_value",
                    ["boundary_rotation.calls", "boundary_rotation.angles",
                     "boundary_rotation.s", "boundary_rotation.self_s"],
                    lambda fn: self._span("boundary_rotation", fn, "boundary_rotation.calls",
                                          after=add_angles))

        # render
        self._patch("shearconvex.probe", "ProbeReport.to_json", ["render.json_s"],
                    lambda fn: self._span("render", fn))
        return self

    def _param(self, fn: Callable, name: str, metric: str) -> Optional[Callable]:
        """Getter for a parameter a counter needs; without it the counter is absent."""
        get = _arg(fn, name)
        if get is None:
            self.absent.append(metric)
        return get

    def _quadrature(self, fn: Callable) -> Callable:
        """Count calls, endpoints and integrand points; infer the grading depth.

        ``antiderivative_many`` evaluates ``depth0`` head panels and one tail
        panel, then two panels per grading level, so its final depth is
        depth0 + (panel evaluations - depth0 - 1) // 2.
        """
        c = self.counts
        get_depth0 = self._param(fn, "depth0", "quadrature.max_grading_depth")
        timed = self._span("quadrature", fn)

        def wrapper(fprime, zs, *a, **k):
            panels = [0]

            def counted(x):
                panels[0] += 1
                c["quadrature.integrand_points"] += np.size(x)
                return fprime(x)

            c["quadrature.calls"] += 1
            c["quadrature.endpoints"] += np.size(zs)
            result = timed(counted, zs, *a, **k)
            if get_depth0 is not None and panels[0]:
                d0 = get_depth0((fprime, zs) + a, k)
                depth = d0 + (panels[0] - d0 - 1) // 2
                c["quadrature.max_grading_depth"] = max(c["quadrature.max_grading_depth"], depth)
            return result
        return wrapper

    def _resolved_check(self, fn: Callable) -> Callable:
        c = self.counts
        get_n0 = self._param(fn, "n0", "geometry.escalated_checks")

        def after(a, k, res):
            rep = res[1]
            c["geometry.resolved"] += rep.verdict != "INCONCLUSIVE"
            if get_n0 is not None:
                c["geometry.escalated_checks"] += rep.n > get_n0(a, k)
        return self._span("geometry", fn, "geometry.resolved_checks", after=after)

    def _refine(self, fn: Callable) -> Callable:
        c = self.counts
        get_theta = self._param(fn, "theta", "probe.winding.refine_points")

        def after(a, k, res):
            if get_theta is not None:
                c["probe.winding.refine_points"] += len(res[0]) - len(get_theta(a, k))
        return self._span("probe.winding", fn, "probe.winding.refine_rounds", after=after)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Every per-layer metric but traced.pass_s; absent ones read 0."""
        out: Dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            if name in _TIMES:
                layer, kind = _TIMES[name]
                out[name] = (self.incl if kind == "s" else self.self_time).get(layer, 0.0)
            elif name == "geometry.resolved_ratio":
                checks = self.counts.get("geometry.resolved_checks", 0)
                out[name] = self.counts.get("geometry.resolved", 0) / checks if checks else 0.0
            elif name != "traced.pass_s":
                out[name] = self.counts.get(name, 0)
        return out


def deterministic(snapshot: Dict[str, float]) -> Dict[str, float]:
    """The part of a snapshot that must repeat exactly: counts and ratios."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: v for k, v in snapshot.items() if units[k] != "s"}
