"""Tests of the benchmark itself (not of shearconvex).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import shearconvex.probe  # noqa: E402
from shearconvex import probe_admissibility  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


def test_two_traced_runs_give_identical_counters():
    results = []
    for _ in range(2):
        proc = _bench("--workload", "reproduce-fast", "--seed", "3", "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.integrand_points"] > 0
    assert counts[0]["boundary_rotation.angles"] > 0
    assert [m for m, _, _ in tracer.PER_LAYER] == list(results[0]["metrics"])
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_traced_counters_repeat_on_the_failure_path():
    cfg = workloads.probe_config(*workloads.rotation_case(1j))
    tr = tracer.Tracer().install()
    try:
        snaps = []
        for _ in range(2):
            tr.reset()
            assert probe_admissibility(cfg).summary == "FAILURE"
            snaps.append(tracer.deterministic(tr.snapshot()))
    finally:
        tr.uninstall()
    assert tr.absent == []
    assert snaps[0] == snaps[1]
    assert snaps[0]["probe.certified"] == 1
    assert snaps[0]["probe.newton.calls"] >= 1
    assert snaps[0]["functions.omega_points"] > 0 and snaps[0]["functions.phi_points"] > 0


def test_uninstall_restores_the_originals():
    before = (shearconvex.probe.newton_preimage, shearconvex.probe._WindingCurves.winding)
    tracer.Tracer().install().uninstall()
    assert (shearconvex.probe.newton_preimage,
            shearconvex.probe._WindingCurves.winding) == before


def test_a_deleted_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(shearconvex.probe._WindingCurves, "winding")
    monkeypatch.delattr(shearconvex.probe, "_persistent_witness")
    tr = tracer.Tracer().install()
    try:
        snap = tr.snapshot()
    finally:
        tr.uninstall()
    assert {"probe.winding.queries", "probe.winding.s", "probe.witness_searches",
            "probe.certified"} <= set(tr.absent)
    assert snap["probe.winding.queries"] == 0


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "sweep-H", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("recorded, seen, flip", [
    ("NNI", "NNN", False), ("INN", "CNN", False), ("NNN", "NNI", False),
    ("NNN", "NCN", True), ("CCC", "CCN", True), (None, "CCC", False)])
def test_only_convex_nonconvex_changes_are_flips(recorded, seen, flip):
    assert workloads.flipped(recorded, seen) is flip


def test_angles_come_from_the_seed_and_avoid_0_and_pi():
    assert workloads.seeded_angles(5) == workloads.seeded_angles(5)
    assert workloads.seeded_angles(5) != workloads.seeded_angles(6)
    for seed in range(20):
        for a in workloads.seeded_angles(seed) + workloads.grid_angles():
            assert 0.0 < a < 2.0 * 3.141592653589793
            assert min(abs(a - k * 3.141592653589793) for k in range(3)) \
                >= workloads.ANGLE_MARGIN - 1e-12


def test_f0_matches_its_closed_forms():
    assert workloads.check_f0_closed_forms() == []
