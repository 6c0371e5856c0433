"""Command-line front end: integrate, nsre-check, homotopy, certify.

Exit codes: 0 ok, 2 bad input (including a control that is not unit speed
or a rank-1 frame, where the NSRE test needs a unit-speed control and an
orthogonal part) or an output file that cannot be written, 3 failed check
(including domain exit and not-certifiable runs), 4 inconclusive, 5
numerical failure.

srx.homotopy and srx.certify are imported by the two commands that use
them, so integrate and nsre-check load neither.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import ControlSignal, NotCertifiableError, SRXError, Trajectory
from .extremals import (_CONSERVATION_TOL, DegenerateSpanError,
                        NotNormalizedError, hamiltonian_extremal, nsre_check)
from .flows import (DomainExitError, IntegrationError, integrate_trajectory,
                    tangent_flow)
from .io import CSV_ROWS, write_csv, write_json
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAILED = 3
EXIT_INCONCLUSIVE = 4
EXIT_NUMERIC = 5


def _resolve_run(scenario: Scenario) -> tuple[ControlSignal, Trajectory, dict]:
    """Control + trajectory for the scenario, generating the extremal if asked.

    The third item holds the keys the reports add: the Hamiltonian oracle's
    level record, or none for a control-driven scenario.
    """
    if scenario.control is not None:
        u = scenario.control
        traj = integrate_trajectory(scenario.frame, u, scenario.q0,
                                    scenario.domain, scenario.substeps)
        return u, traj, {}
    ham = scenario.hamiltonian
    try:
        ext = hamiltonian_extremal(scenario.frame, scenario.q0, ham["p0"],
                                   ham["T"], ham["N_t"], scenario.substeps,
                                   domain=scenario.domain)
    except ValueError as err:
        raise ScenarioError(str(err)) from err
    record = {"norm_drift": ext.norm_drift, "conservation_tol": _CONSERVATION_TOL}
    return ext.control, ext.trajectory, {"hamiltonian": record}


def _left_domain(traj: Trajectory) -> bool:
    """Whether traj left the domain; if so, names its first exit on stderr."""
    if traj.left_domain:
        print(f"trajectory left the domain at t={traj.first_exit_time:.6g}",
              file=sys.stderr)
    return traj.left_domain


def _state_columns(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{a + 1}" for a in range(n)]


def cmd_integrate(scenario: Scenario, out: Path) -> int:
    u, traj, _ = _resolve_run(scenario)
    n = scenario.frame.n
    write_csv(out / "trajectory.csv", ["t"] + _state_columns("q", n),
              [np.column_stack([traj.grid, traj.states])],
              scenario.sha256, scenario.name)
    if scenario.emit_tangent_flow:
        tf = tangent_flow(scenario.frame, u, traj, substeps=scenario.substeps)
        # row-major m11, m12, ..., mnn
        header = ["t"] + [f"m{a + 1}{b + 1}" for a in range(n) for b in range(n)]
        write_csv(out / "tangent_flow.csv", header,
                  [np.column_stack([tf.grid, tf.matrices.reshape(-1, n * n)])],
                  scenario.sha256, scenario.name)
    return EXIT_FAILED if _left_domain(traj) else EXIT_OK


def cmd_nsre_check(scenario: Scenario, out: Path) -> int:
    u, traj, extra = _resolve_run(scenario)
    report = nsre_check(scenario.frame, u, traj, substeps=scenario.substeps,
                        **scenario.nsre_kwargs())
    write_json(out / "nsre_report.json", {**report.to_json_dict(), **extra},
               scenario.sha256, scenario.name)
    if _left_domain(traj) or report.status == "failed":
        return EXIT_FAILED
    if report.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _member_blocks(hom):
    """homotopy.csv's s,t,q,b rows, member by member, in arrays of CSV_ROWS
    nodes of one member, so no copy of the family is made."""
    for i, s in enumerate(hom.s_grid):
        for lo in range(0, hom.grid.size, CSV_ROWS):
            t = hom.grid[lo:lo + CSV_ROWS]
            yield np.column_stack([np.full(t.size, s), t,
                                   hom.trajectories[i, lo:lo + CSV_ROWS],
                                   hom.variations[i, lo:lo + CSV_ROWS]])


def _write_family(scenario: Scenario, u: ControlSignal, out: Path):
    """Integrate the scenario's homotopy, write homotopy.csv and endpoints.csv,
    and return the family's certify.FamilyExtremes.

    The family itself dies with this call, so the NSRE test and the
    constants that follow allocate beside the reduction only.
    """
    from .certify import family_extremes
    from .homotopy import natural_homotopy
    hom = natural_homotopy(scenario.frame, u, scenario.delta_u, scenario.q0,
                           scenario.homotopy_n_s, scenario.domain,
                           scenario.substeps)
    q = _state_columns("q", scenario.frame.n)
    write_csv(out / "homotopy.csv",
              ["s", "t"] + q + _state_columns("b", scenario.frame.n),
              _member_blocks(hom), scenario.sha256, scenario.name)
    write_csv(out / "endpoints.csv", ["s"] + q,
              [np.column_stack([hom.s_grid, hom.endpoints])],
              scenario.sha256, scenario.name)
    return family_extremes(hom, u, scenario.domain)


def cmd_homotopy(scenario: Scenario, out: Path) -> int:
    from .certify import SLACK_TOL, bound_slacks, estimate_constants
    from .homotopy import energy_comparison_check
    if scenario.delta_u is None:
        raise ScenarioError("homotopy command needs homotopy.delta_u")
    u, traj, _ = _resolve_run(scenario)
    frame, domain = scenario.frame, scenario.domain
    du = scenario.delta_u
    family = _write_family(scenario, u, out)

    comparison = energy_comparison_check(u, du)
    c, nsre_status = 0.0, "not_normalized"
    if u.is_normalized():
        try:
            report = nsre_check(frame, u, traj, substeps=scenario.substeps,
                                **scenario.nsre_kwargs())
        except DegenerateSpanError:
            nsre_status = "rank_one"
        else:
            c, nsre_status = report.c, report.status
    constants = estimate_constants(frame, domain,
                                   scenario.certify["grid_resolution"],
                                   float(scenario.certify["margin"]))
    slacks, b0_slack = bound_slacks(family, constants, c, u.horizon)
    in_domain = family.in_domain
    applicable = {"spread": in_domain,
                  "variation": in_domain and comparison.applicable,
                  "drift": in_domain and comparison.applicable}
    bounds = {name: {"max": value, "limit": limit, "slack": limit - value,
                     "applicable": applicable[name]}
              for name, (value, limit) in slacks.items()}
    bounds["b0_lower"] = {"min_slack": b0_slack, "c": c,
                          "applicable": nsre_status == "certified"}
    payload = {
        "separation": family.separation,
        "in_domain": in_domain,
        "nsre_status": nsre_status,
        "energy_comparison": {key: getattr(comparison, key) for key in (
            "applicable", "lhs", "rhs", "slack", "holds", "du_l2", "bound2")},
        "bounds": bounds,
    }
    write_json(out / "lemma_slacks.json", payload, scenario.sha256, scenario.name)

    if not in_domain:
        print("homotopy members left the domain", file=sys.stderr)
    failed = not in_domain or any(
        b["applicable"] and b.get("slack", b.get("min_slack")) < -SLACK_TOL
        for b in bounds.values())
    failed = failed or (comparison.applicable and not comparison.holds)
    return EXIT_FAILED if failed else EXIT_OK


def _not_certifiable(scenario: Scenario, out: Path, err: NotCertifiableError,
                     payload: dict, report) -> int:
    """Write certificate.json for a run that cannot be certified."""
    print(f"not certifiable: {err}", file=sys.stderr)
    payload = {"certified": False, "reason": str(err), **payload}
    if report is not None:
        payload["nsre"] = report.to_json_dict()
    write_json(out / "certificate.json", payload, scenario.sha256, scenario.name)
    if report is not None and report.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAILED


def cmd_certify(scenario: Scenario, out: Path) -> int:
    from .certify import build_certificate, verify_certificate
    u, traj, extra = _resolve_run(scenario)
    if traj.left_domain:
        err = NotCertifiableError("trajectory leaves the domain at "
                                  f"t={traj.first_exit_time:.6g}")
        return _not_certifiable(scenario, out, err, extra, None)
    cfg = scenario.certify
    try:
        cert, report = build_certificate(
            scenario.frame, scenario.domain, u, traj,
            grid_resolution=cfg["grid_resolution"],
            margin=float(cfg["margin"]),
            margin_factor=float(cfg["margin_factor"]),
            seed=scenario.seed, substeps=scenario.substeps,
            nsre_kwargs=scenario.nsre_kwargs())
    except NotCertifiableError as err:
        return _not_certifiable(scenario, out, err, extra, err.report)
    try:
        verification = verify_certificate(
            scenario.frame, scenario.domain, u, traj, cert,
            n_trials=cfg["n_trials"], base_seed=0, t_prime=cfg["T_prime"],
            n_s=cfg["N_s"], substeps=scenario.substeps)
    except NotCertifiableError as err:
        return _not_certifiable(scenario, out, err,
                                {**cert.to_json_dict(), **extra}, report)

    payload = {"certified": verification.ok and cert.conditions.holds}
    payload.update(cert.to_json_dict())
    payload["verification"] = verification.to_json_dict()
    payload["nsre"] = report.to_json_dict(per_node=False)
    payload.update(extra)
    write_json(out / "certificate.json", payload, scenario.sha256, scenario.name)
    # an object array, so trial stays an int
    rows = np.array([[t.trial, t.norm_du, t.separation, t.bound, t.slack]
                     for t in verification.trials], dtype=object)
    write_csv(out / "verification.csv",
              ["trial", "norm_du", "separation", "bound", "slack"], [rows],
              scenario.sha256, scenario.name)
    if not cert.conditions.holds:
        print("the radius conditions do not hold at the certified radius",
              file=sys.stderr)
        return EXIT_FAILED
    if not verification.ok:
        print(f"{verification.violation_count} verification violations; "
              f"seeds {list(verification.failing_seeds)[:5]}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srx",
        description="integrate, test and certify normal sub-Riemannian extremals")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("integrate", "integrate the scenario trajectory to CSV"),
            ("nsre-check", "run the geometric normal-extremal test"),
            ("homotopy", "build the natural homotopy and bound slacks"),
            ("certify", "compute and verify a local-optimality certificate")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="scenario JSON file or bundled scenario name")
        p.add_argument("--out", default=None,
                       help="output directory (default: scenario out_dir or cwd)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; verification runs "
                            "as memory-bounded batches in one thread, and "
                            "this flag changes neither results nor speed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ScenarioError("--seed must be a non-negative integer")
        scenario = load_scenario(args.config)
        if args.seed is not None:
            object.__setattr__(scenario, "seed", int(args.seed))
        out = Path(args.out if args.out is not None
                   else scenario.out_dir or ".")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            print(f"cannot create output directory {out}: "
                  f"{err.strerror or err}", file=sys.stderr)
            return EXIT_INPUT
        command = {"integrate": cmd_integrate, "nsre-check": cmd_nsre_check,
                   "homotopy": cmd_homotopy, "certify": cmd_certify}[args.command]
        try:
            return command(scenario, out)
        except OSError as err:
            print(f"cannot write output file {err.filename}: "
                  f"{err.strerror or err}", file=sys.stderr)
            return EXIT_INPUT
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NotNormalizedError, DegenerateSpanError) as err:
        what = "control" if isinstance(err, NotNormalizedError) else "frame"
        print(f"unusable {what}: {err}", file=sys.stderr)
        return EXIT_INPUT
    except IntegrationError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except DomainExitError as err:
        print(f"domain violation: {err}", file=sys.stderr)
        return EXIT_FAILED
    except NotCertifiableError as err:
        print(f"not certifiable: {err}", file=sys.stderr)
        return EXIT_FAILED
    except SRXError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
