"""Seeded scenario generators and output checks for the srx benchmark.

Each workload maps a benchmark seed to one scenario JSON (the only input the
program receives), names the `srx` subcommand it runs, and checks the output
files of one invocation.  Only the standard library is used, so the
benchmark process itself never imports numpy or srx.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Relative tolerance of epsilon, c and separation against the references.
# The radius search bisects to a relative width of 1e-6 (EPSILON_REL_TOL in
# srx.certify), so a rewrite that moves the constants by 1e-13 may move
# epsilon by up to that width; c and separation agree far more closely.
REL_TOL = 1e-6
SLACK_TOL = 1e-9

REFERENCES = Path(__file__).with_name("references.json")

# Heisenberg frame X1 = d/dx - y/2 d/dz, X2 = d/dy + x/2 d/dz on the box
# [-2, 2]^3, the frame of the bundled heisenberg_* scenarios.
HEISENBERG = {
    "n": 3,
    "k": 2,
    "fields": [
        {"coeffs": {"0": {"0,0,0": 1.0}, "2": {"0,1,0": -0.5}}},
        {"coeffs": {"1": {"0,0,0": 1.0}, "2": {"1,0,0": 0.5}}},
    ],
}
DOMAIN = {"lower": [-2.0, -2.0, -2.0], "upper": [2.0, 2.0, 2.0]}
Q0 = [0.0, 0.0, 0.0]
LINE = {"T": 1.0, "N_t": 1000, "constant": [1.0, 0.0]}

VERIFY_TRIALS = 64
N_S = 16


def _base(name: str, seed: int) -> dict:
    return {"name": name, "seed": seed, "frame": HEISENBERG, "domain": DOMAIN,
            "q0": Q0}


def verify_batch_scenario(seed: int) -> dict:
    """Certify the unit line; the seed only picks the verification trials."""
    scen = _base("verify_batch", seed)
    scen["control"] = LINE
    scen["certify"] = {"grid_resolution": 11, "margin": 1.1,
                       "n_trials": VERIFY_TRIALS, "N_s": N_S}
    return scen


def nsre_long_scenario(seed: int) -> dict:
    """Hamiltonian arc with p0 = (cos a, sin a, p3) drawn from the seed."""
    rng = random.Random(seed)
    a = rng.uniform(0.0, 2.0 * math.pi)
    p3 = rng.uniform(1.5, 2.5)
    scen = _base("nsre_long", seed)
    scen["hamiltonian"] = {"p0": [math.cos(a), math.sin(a), p3], "T": 1.0,
                           "N_t": 3000}
    scen["tolerances"] = {"sigma_tol": 1e-3}
    return scen


def homotopy_full_scenario(seed: int) -> dict:
    """Unit line with a constant delta_u of norm 0.2-0.5, angle in [pi/2, pi]."""
    rng = random.Random(seed)
    norm = rng.uniform(0.2, 0.5)
    angle = rng.uniform(0.5 * math.pi, math.pi)
    scen = _base("homotopy_full", seed)
    scen["control"] = LINE
    scen["homotopy"] = {"N_s": N_S, "delta_u": {
        "constant": [norm * math.cos(angle), norm * math.sin(angle)]}}
    scen["certify"] = {"grid_resolution": 11, "margin": 1.1}
    return scen


def _near(label: str, value, reference: float) -> list[str]:
    if not isinstance(value, (int, float)) or \
            abs(value - reference) > REL_TOL * abs(reference):
        return [f"{label} = {value!r}, reference {reference!r}"]
    return []


def check_verify_batch(out: Path, scen: dict, refs: dict) -> tuple[int, list[str]]:
    cert = json.loads((out / "certificate.json").read_text())
    ver = cert["verification"]
    problems = []
    if cert["certified"] is not True:
        problems.append("certified is not true")
    if ver["violations"] != 0:
        problems.append(f"{ver['violations']} verification violations")
    if ver["n_trials"] != VERIFY_TRIALS:
        problems.append(f"n_trials = {ver['n_trials']}")
    ref = refs["verify_batch"]
    problems += _near("epsilon", cert["epsilon"], ref["epsilon"])
    problems += _near("c", cert["c"], ref["c"])
    rows = (out / "verification.csv").read_text().splitlines()[2:]
    if len(rows) != ver["n_trials"]:
        problems.append(f"verification.csv has {len(rows)} trial rows")
    return ver["n_trials"] * (scen["certify"]["N_s"] + 1), problems


def check_nsre_long(out: Path, scen: dict, refs: dict) -> tuple[int, list[str]]:
    report = json.loads((out / "nsre_report.json").read_text())
    problems = []
    if report["status"] != "certified":
        problems.append(f"status = {report['status']}")
    ref = refs["nsre_long"]["c"].get(str(scen["seed"]))
    if ref is None:
        # Seeds outside the recorded table keep every other check.
        if not 0.0 < report["c"] <= report["min_speed"]:
            problems.append(f"c = {report['c']!r} outside (0, min_speed]")
    else:
        problems += _near("c", report["c"], ref)
    nodes = len(report["angles"])
    if nodes != scen["hamiltonian"]["N_t"] + 1:
        problems.append(f"{nodes} angles for {scen['hamiltonian']['N_t']} cells")
    return nodes, problems


def check_homotopy_full(out: Path, scen: dict, refs: dict) -> tuple[int, list[str]]:
    slacks = json.loads((out / "lemma_slacks.json").read_text())
    problems = []
    for name, bound in slacks["bounds"].items():
        slack = bound.get("slack", bound.get("min_slack"))
        if bound["applicable"] and slack < -SLACK_TOL:
            problems.append(f"bound {name} violated, slack {slack!r}")
    comparison = slacks["energy_comparison"]
    if comparison["applicable"] and not comparison["holds"]:
        problems.append("energy comparison violated")
    # Constant controls from the origin give straight lines in (x, y) with
    # z = 0, which RK4 integrates exactly: the endpoints of gamma_0 and
    # gamma_1 differ by T * delta_u in the first two coordinates.
    du = scen["homotopy"]["delta_u"]["constant"]
    problems += _near("separation", slacks["separation"],
                      scen["control"]["T"] * math.hypot(*du))
    problems += _near("c", slacks["bounds"]["b0_lower"]["c"],
                      refs["homotopy_full"]["c"])
    lines = (out / "homotopy.csv").read_text().splitlines()[2:]
    expected = (scen["homotopy"]["N_s"] + 1) * (scen["control"]["N_t"] + 1)
    if len(lines) != expected:
        problems.append(f"homotopy.csv has {len(lines)} rows, expected {expected}")
    return len(lines), problems


@dataclass(frozen=True)
class Workload:
    command: str                                  # srx subcommand
    scenario: Callable[[int], dict]               # seed -> scenario JSON
    check: Callable[[Path, dict, dict], tuple[int, list[str]]]
    work_unit: str                                # what one unit of work is


WORKLOADS = {
    "verify_batch": Workload("certify", verify_batch_scenario,
                             check_verify_batch, "homotopy members verified"),
    "nsre_long": Workload("nsre-check", nsre_long_scenario, check_nsre_long,
                          "grid nodes tested"),
    "homotopy_full": Workload("homotopy", homotopy_full_scenario,
                              check_homotopy_full, "(s, t) rows written"),
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
