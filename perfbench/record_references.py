"""Record the reference values the benchmark checks outputs against.

Runs the srx CLI of the checkout once per recorded input and writes
perfbench/references.json.  epsilon and c of the unit line do not depend on
the seed (the seed only picks verification trials and delta_u); the angle
constant c of nsre_long does, so it is recorded for seeds
0..NSRE_REFERENCE_SEEDS-1.

Run from the repository root, only when a change is meant to move the
certified numbers:  python3 perfbench/record_references.py
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORK_ROOT, child_env
from workloads import REFERENCES, WORKLOADS

NSRE_REFERENCE_SEEDS = 100


def run_cli(name: str, seed: int, tmp: Path, env: dict) -> Path:
    workload = WORKLOADS[name]
    scen_path = tmp / f"{name}-{seed}.json"
    scen_path.write_text(json.dumps(workload.scenario(seed)))
    out = tmp / f"{name}-{seed}"
    subprocess.run([sys.executable, "-m", "srx.cli", workload.command,
                    "--config", str(scen_path), "--out", str(out),
                    "--threads", "1"], env=env, check=True)
    return out


def main() -> int:
    env = child_env(Path.cwd().resolve())
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp_name:
        tmp = Path(tmp_name)
        cert = json.loads((run_cli("verify_batch", 0, tmp, env)
                           / "certificate.json").read_text())
        slacks = json.loads((run_cli("homotopy_full", 0, tmp, env)
                             / "lemma_slacks.json").read_text())
        nsre = {}
        for seed in range(NSRE_REFERENCE_SEEDS):
            report = json.loads((run_cli("nsre_long", seed, tmp, env)
                                 / "nsre_report.json").read_text())
            nsre[str(seed)] = report["c"]
    refs = {
        "verify_batch": {"epsilon": cert["epsilon"], "c": cert["c"]},
        "homotopy_full": {"c": slacks["bounds"]["b0_lower"]["c"]},
        "nsre_long": {"c": nsre},
    }
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
