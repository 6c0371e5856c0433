"""Command-line front end: integrate, nsre-check, homotopy, certify.

Exit codes: 0 ok, 2 bad input (including a control that is not unit speed
or a rank-1 frame, where the NSRE test needs a unit-speed control and an
orthogonal part), 3 failed check (including domain exit and not-certifiable
runs), 4 inconclusive, 5 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .certify import (SLACK_TOL, NotCertifiableError, bound_slacks,
                      build_certificate, estimate_constants, verify_certificate)
from .core import ControlSignal, SRXError, Trajectory
from .extremals import (_CONSERVATION_TOL, DegenerateSpanError,
                        NotNormalizedError, hamiltonian_extremal, nsre_check)
from .flows import (DomainExitError, IntegrationError, integrate_trajectory,
                    tangent_flow, write_tangent_flow_rows, write_trajectory_rows)
from .homotopy import (energy_comparison_check, natural_homotopy,
                       write_homotopy_rows)
from .io import write_csv, write_json
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


def cmd_integrate(scenario: Scenario, out: Path) -> int:
    u, traj, _ = _resolve_run(scenario)
    header, rows = write_trajectory_rows(traj)
    write_csv(out / "trajectory.csv", header, map(np.ndarray.tolist, rows),
              scenario.sha256, scenario.name)
    if scenario.emit_tangent_flow:
        tf = tangent_flow(scenario.frame, u, traj, substeps=scenario.substeps)
        header, rows = write_tangent_flow_rows(tf)
        write_csv(out / "tangent_flow.csv", header, map(np.ndarray.tolist, rows),
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


def cmd_homotopy(scenario: Scenario, out: Path) -> int:
    if scenario.delta_u is None:
        raise ScenarioError("homotopy command needs homotopy.delta_u")
    u, traj, _ = _resolve_run(scenario)
    frame, domain = scenario.frame, scenario.domain
    du = scenario.delta_u
    hom = natural_homotopy(frame, u, du, scenario.q0, scenario.homotopy_n_s,
                           domain, scenario.substeps)

    header, rows = write_homotopy_rows(hom)
    write_csv(out / "homotopy.csv", header, map(np.ndarray.tolist, rows),
              scenario.sha256, scenario.name)
    write_csv(out / "endpoints.csv", ["s"] + header[2:2 + frame.n],
              [[s, *e] for s, e in zip(hom.s_grid.tolist(), hom.endpoints.tolist())],
              scenario.sha256, scenario.name)

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
    slacks, b0_slack = bound_slacks(hom, u, constants, c, u.horizon)
    in_domain = hom.in_domain
    applicable = {"spread": in_domain,
                  "variation": in_domain and comparison.applicable,
                  "drift": in_domain and comparison.applicable}
    bounds = {name: {"max": value, "limit": limit, "slack": limit - value,
                     "applicable": applicable[name]}
              for name, (value, limit) in slacks.items()}
    bounds["b0_lower"] = {"min_slack": b0_slack, "c": c,
                          "applicable": nsre_status == "certified"}
    payload = {
        "separation": hom.separation,
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
    header, rows = verification.csv_rows()
    write_csv(out / "verification.csv", header, rows, scenario.sha256,
              scenario.name)
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
        if args.command == "integrate":
            return cmd_integrate(scenario, out)
        if args.command == "nsre-check":
            return cmd_nsre_check(scenario, out)
        if args.command == "homotopy":
            return cmd_homotopy(scenario, out)
        return cmd_certify(scenario, out)
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
