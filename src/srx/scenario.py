"""Scenario files: schema validation, loading, and the bundled examples.

A scenario bundles the frame, the box domain, the control (explicit samples,
a constant, piecewise segments, or a Hamiltonian initial covector to generate
an extremal), integrator settings, tolerances, and per-command sections.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import ControlSignal, Domain, FrameRankError, SRFrame, SRXError

BUNDLED = ("euclidean_line", "heisenberg_line", "heisenberg_arc", "jump_control")

TOLERANCE_DEFAULTS = {
    "acb_bound": 50.0,
    "theta_min": 1e-3,
    "sigma_tol": 1e-8,
    "tau_range": "0..t",
    "frame_grid": 5,
}

CERTIFY_DEFAULTS = {
    "grid_resolution": 21,
    "margin": 1.1,
    "margin_factor": 0.999,
    "T_prime": None,
    "n_trials": 200,
    "N_s": 16,
}


class ScenarioError(SRXError):
    """Scenario file is missing, malformed, or inconsistent."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _control_from_spec(spec: dict, k: int, defaults: dict | None = None) -> ControlSignal:
    """Expand a control spec (samples | constant | segments) to cell samples."""
    _require(isinstance(spec, dict), "control spec must be an object")
    merged = dict(defaults or {})
    merged.update(spec)
    _require("T" in merged and "N_t" in merged,
             "control spec needs T and N_t (own or inherited)")
    horizon = float(merged["T"])
    n_cells = int(merged["N_t"])
    _require(horizon > 0 and n_cells >= 1, "control needs T > 0 and N_t >= 1")

    forms = [f for f in ("samples", "constant", "segments")
             if merged.get(f) is not None]
    _require(len(forms) == 1,
             "control spec needs exactly one of samples/constant/segments")

    if merged.get("samples") is not None:
        samples = np.asarray(merged["samples"], dtype=float)
        _require(samples.ndim == 2 and samples.shape == (n_cells, k),
                 f"samples must be an {n_cells} x {k} matrix")
    elif merged.get("constant") is not None:
        value = np.asarray(merged["constant"], dtype=float)
        _require(value.shape == (k,), f"constant control must have length {k}")
        samples = np.tile(value, (n_cells, 1))
    else:
        samples = np.empty((n_cells, k))
        start = 0
        t_prev = 0.0
        for seg in merged["segments"]:
            _require(isinstance(seg, dict) and "t_end" in seg and "value" in seg,
                     "each segment needs t_end and value")
            t_end = float(seg["t_end"])
            _require(t_end > t_prev, "segment times must increase")
            stop = int(round(t_end / horizon * n_cells))
            value = np.asarray(seg["value"], dtype=float)
            _require(value.shape == (k,), f"segment value must have length {k}")
            samples[start:stop] = value
            start, t_prev = stop, t_end
        _require(start == n_cells and abs(t_prev - horizon) < 1e-12,
                 "segments must cover [0, T] exactly")
    try:
        return ControlSignal(horizon, samples)
    except ValueError as err:
        raise ScenarioError(f"invalid control: {err}") from err


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    frame: SRFrame
    domain: Domain
    q0: np.ndarray
    control: ControlSignal | None
    hamiltonian: dict | None        # {"p0": [...], "T": float, "N_t": int}
    substeps: int
    emit_tangent_flow: bool
    tolerances: dict
    homotopy_n_s: int
    delta_u: ControlSignal | None
    certify: dict
    seed: int
    sha256: str
    out_dir: str | None = None
    raw: dict = field(repr=False, default_factory=dict)

    def nsre_kwargs(self) -> dict:
        t = self.tolerances
        return {"acb_bound": t["acb_bound"], "theta_min": t["theta_min"],
                "sigma_tol": t["sigma_tol"], "tau_range": t["tau_range"]}


def parse_scenario(data: dict, sha256: str, name_hint: str = "scenario") -> Scenario:
    _require(isinstance(data, dict), "scenario root must be a JSON object")
    unknown = set(data) - {"name", "frame", "domain", "q0", "control",
                           "hamiltonian", "integrator", "tolerances", "homotopy",
                           "certify", "seed", "out_dir"}
    _require(not unknown, f"unknown scenario keys: {sorted(unknown)}")
    for key in ("frame", "domain", "q0"):
        _require(key in data, f"scenario is missing required key '{key}'")

    try:
        frame = SRFrame.from_json_dict(data["frame"])
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"invalid frame: {err}") from err
    try:
        domain = Domain.from_json_dict(data["domain"])
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"invalid domain: {err}") from err
    _require(domain.n == frame.n, "domain dimension must match the frame")

    q0 = np.asarray(data["q0"], dtype=float)
    _require(q0.shape == (frame.n,), f"q0 must have length {frame.n}")
    _require(bool(np.all(np.isfinite(q0))), "q0 must be finite")
    _require(domain.contains(q0), "q0 must lie in the domain interior")

    tolerances = dict(TOLERANCE_DEFAULTS)
    tolerances.update(data.get("tolerances", {}))
    _require(tolerances["tau_range"] in ("0..t", "0..T"),
             "tolerances.tau_range must be '0..t' or '0..T'")

    integrator = data.get("integrator", {})
    substeps = int(integrator.get("substeps", 1))
    _require(substeps >= 1, "integrator.substeps must be >= 1")
    emit_tf = bool(integrator.get("emit_tangent_flow", False))

    has_control = "control" in data
    has_ham = "hamiltonian" in data
    _require(has_control != has_ham,
             "scenario needs exactly one of 'control' or 'hamiltonian'")
    control = None
    hamiltonian = None
    if has_control:
        control = _control_from_spec(data["control"], frame.k)
    else:
        ham = data["hamiltonian"]
        _require(isinstance(ham, dict) and {"p0", "T", "N_t"} <= set(ham),
                 "hamiltonian spec needs p0, T and N_t")
        p0 = np.asarray(ham["p0"], dtype=float)
        _require(p0.shape == (frame.n,), f"p0 must have length {frame.n}")
        hamiltonian = {"p0": p0, "T": float(ham["T"]), "N_t": int(ham["N_t"])}
        _require(hamiltonian["T"] > 0 and hamiltonian["N_t"] >= 1,
                 "hamiltonian spec needs T > 0 and N_t >= 1")

    hom = data.get("homotopy", {})
    n_s = int(hom.get("N_s", 16))
    _require(n_s >= 1, "homotopy.N_s must be >= 1")
    delta_u = None
    if "delta_u" in hom:
        base = {"T": control.horizon, "N_t": control.n_cells} if control else \
            {"T": hamiltonian["T"], "N_t": hamiltonian["N_t"]}
        delta_u = _control_from_spec(hom["delta_u"], frame.k, defaults=base)
        _require(delta_u.n_cells == base["N_t"] and
                 abs(delta_u.horizon - base["T"]) < 1e-12,
                 "delta_u must share the control grid")

    certify = dict(CERTIFY_DEFAULTS)
    certify.update(data.get("certify", {}))
    for key in ("n_trials", "N_s"):
        value = certify[key]
        _require(isinstance(value, int) and not isinstance(value, bool)
                 and value >= 1, f"certify.{key} must be an integer >= 1")

    try:
        frame.check_independence(domain, int(tolerances["frame_grid"]))
    except FrameRankError as err:
        raise ScenarioError(str(err)) from err

    return Scenario(
        name=str(data.get("name", name_hint)),
        frame=frame, domain=domain, q0=q0,
        control=control, hamiltonian=hamiltonian,
        substeps=substeps, emit_tangent_flow=emit_tf,
        tolerances=tolerances, homotopy_n_s=n_s, delta_u=delta_u,
        certify=certify, seed=int(data.get("seed", 0)),
        sha256=sha256, out_dir=data.get("out_dir"), raw=data)


def bundled_scenario_path(name: str) -> Path:
    if name not in BUNDLED:
        raise ScenarioError(f"unknown bundled scenario '{name}' "
                            f"(available: {', '.join(BUNDLED)})")
    return Path(str(resources.files("srx").joinpath(f"scenarios/{name}.json")))


def load_scenario(path_or_name: str) -> Scenario:
    path = Path(path_or_name)
    if not path.exists() and "/" not in path_or_name \
            and not path_or_name.endswith(".json"):
        path = bundled_scenario_path(path_or_name)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    raw_bytes = path.read_bytes()
    try:
        data = json.loads(raw_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ScenarioError(f"scenario is not valid JSON: {err}") from err
    sha = hashlib.sha256(raw_bytes).hexdigest()
    return parse_scenario(data, sha, name_hint=path.stem)
