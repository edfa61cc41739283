#!/usr/bin/env python3
"""Record the level-curve verdict table that run.py checks flips against.

    python3 perfbench/record_verdicts.py

Probes the default-seed sweep families (phi = H and L_i) and the fixed
certify-rot cases (paper rotations, xi = +-1 controls, angle grid), and writes one
letter per ladder radius (C/N/I) for every dilatation to verdicts.json.
Re-record only when a verdict change is intended and explained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import workloads  # noqa: E402
from shearconvex import probe_admissibility  # noqa: E402


def main() -> int:
    family = workloads.FAMILY.format(seed=workloads.DEFAULT_SEED)
    configs = [workloads.probe_config(phi, family)
               for phi in (workloads.PHI_H, workloads.PHI_LI)]
    xis = (list(workloads.PAPER_XIS) + list(workloads.CONTROL_XIS)
           + workloads.xis_at(workloads.grid_angles()))
    configs += [workloads.probe_config(*workloads.rotation_case(xi)) for xi in xis]
    table: dict = {}
    for cfg in configs:
        rep = probe_admissibility(cfg)
        rows = table.setdefault(cfg.phi_spec, {})
        for key, per_r in sorted(rep.per_omega.items()):
            if "error" in per_r:
                raise SystemExit(f"{cfg.phi_spec} omega={key}: {per_r['error']}")
            rows[key] = workloads.verdict_letters(per_r)
    payload = {"ladder": list(workloads.LADDER), "eta": workloads.ETA,
               "family": family, "verdicts": table}
    workloads.VERDICTS_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in table.values())} rows to {workloads.VERDICTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
