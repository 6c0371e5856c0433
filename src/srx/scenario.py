"""Scenario files: schema validation, loading, and the bundled examples.

A scenario bundles the frame, the box domain, the control (explicit samples,
a constant, piecewise segments, or a Hamiltonian initial covector to generate
an extremal), integrator settings, tolerances, and per-command sections.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import (ACB_BOUND, CONSTANTS_MARGIN, GRID_RESOLUTION, MARGIN_FACTOR,
                   N_S, SIGMA_TOL, TAU_RANGE, TAU_RANGES, THETA_MIN,
                   ControlSignal, Domain, FrameRankError, PolyVectorField,
                   SRFrame, SRXError)

try:    # CPython's built-in SHA-256: hashlib would load OpenSSL (~3.5 MB RSS)
    from _sha2 import sha256 as _new_sha256         # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256   # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _new_sha256

BUNDLED = ("euclidean_line", "heisenberg_line", "heisenberg_arc", "jump_control",
           "martinet_arc", "cartan_arc")


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return _integer(v) or (isinstance(v, float) and math.isfinite(v))


def _numbers(v) -> bool:
    """A list, possibly nested, whose leaves are all numbers."""
    return isinstance(v, list) and all(
        _numbers(x) if isinstance(x, list) else _number(x) for x in v)


_POSITIVE = (lambda v: _number(v) and v > 0, "a number > 0")
_COUNT = (lambda v: _integer(v) and v >= 1, "an integer >= 1")


# section -> key -> (predicate, description of the accepted values); in the
# sections read by _section every key carries its default as a third item
SECTION_CHECKS = {
    "frame": {
        "n": _COUNT,
        "k": _COUNT,
        "fields": (lambda v: isinstance(v, list), "a list of fields"),
    },
    # coeffs maps an output coordinate "a" to a table {"e1,...,en": number}
    "field": {
        "coeffs": (lambda v: isinstance(v, dict), "an object of tables"),
    },
    "domain": {
        "lower": (_numbers, "a list of numbers"),
        "upper": (_numbers, "a list of numbers"),
    },
    "tolerances": {
        "acb_bound": (*_POSITIVE, ACB_BOUND),
        "theta_min": (lambda v: _number(v) and v >= 0, "a number >= 0", THETA_MIN),
        "sigma_tol": (lambda v: _number(v) and 0 < v < 1, "a number in (0, 1)",
                      SIGMA_TOL),
        "tau_range": (lambda v: v in TAU_RANGES, f"one of {TAU_RANGES}", TAU_RANGE),
        "frame_grid": (lambda v: _integer(v) and v >= 2, "an integer >= 2", 5),
    },
    "certify": {
        "grid_resolution": (lambda v: _integer(v) and v >= 2, "an integer >= 2",
                            GRID_RESOLUTION),
        "margin": (lambda v: _number(v) and v >= 1, "a number >= 1",
                   CONSTANTS_MARGIN),
        "margin_factor": (lambda v: _number(v) and 0 < v < 1,
                          "a number in (0, 1)", MARGIN_FACTOR),
        "T_prime": (lambda v: v is None or (_number(v) and v > 0),
                    "null or a number > 0", None),
        "n_trials": (*_COUNT, 200),
        "N_s": (*_COUNT, N_S),
    },
    "integrator": {
        "substeps": (*_COUNT, 1),
        "emit_tangent_flow": (lambda v: isinstance(v, bool), "true or false",
                              False),
    },
    "homotopy": {
        "N_s": (*_COUNT, N_S),
        "delta_u": (lambda v: isinstance(v, dict), "a control spec object", None),
    },
    # control specs (the scenario control and homotopy.delta_u)
    "control": {
        "T": _POSITIVE,
        "N_t": _COUNT,
        "samples": (_numbers, "a matrix of numbers"),
        "constant": (_numbers, "a list of numbers"),
        "segments": (lambda v: isinstance(v, list), "a list of segments"),
    },
    "segment": {
        "t_end": (_number, "a number"),
        "value": (_numbers, "a list of numbers"),
    },
    "hamiltonian": {
        "p0": (_numbers, "a list of numbers"),
        "T": _POSITIVE,
        "N_t": _COUNT,
    },
}


class ScenarioError(SRXError):
    """Scenario file is missing, malformed, or inconsistent."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _checked(spec, name: str, kind: str | None = None) -> dict:
    """spec itself once every key is known to SECTION_CHECKS[kind] and accepted."""
    _require(isinstance(spec, dict), f"{name} must be an object")
    checks = SECTION_CHECKS[kind or name]
    unknown = set(spec) - set(checks)
    _require(not unknown, f"unknown {name} keys: {sorted(unknown)}")
    for key, value in spec.items():
        accepts, what = checks[key][:2]
        _require(accepts(value), f"{name}.{key} must be {what}, got {value!r}")
    return spec


def _section(data: dict, name: str) -> dict:
    """Section `name` of the scenario over its defaults, every given key checked."""
    defaults = {key: check[2] for key, check in SECTION_CHECKS[name].items()}
    return {**defaults, **_checked(data.get(name, {}), name)}


def _array(value, shape: tuple[int, ...], message: str) -> np.ndarray:
    """value as a float array of the given shape, else ScenarioError(message)."""
    _require(_numbers(value), message)
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:               # ragged nesting
        raise ScenarioError(message) from None
    _require(arr.shape == shape, message)
    return arr


def _frame_from_spec(spec) -> SRFrame:
    """The frame section as an SRFrame, every table and coefficient checked."""
    _checked(spec, "frame")
    _require({"n", "k", "fields"} <= set(spec), "frame needs n, k and fields")
    n = spec["n"]
    fields = []
    for raw in spec["fields"]:
        coeffs = _checked(raw, "frame.fields[]", "field").get("coeffs", {})
        tables: dict[int, dict] = {}
        for key, table in coeffs.items():
            _require(key.isdecimal() and int(key) < n,
                     f"coeffs key {key!r} must be an output coordinate 0..{n - 1}")
            a = int(key)
            _require(a not in tables,
                     f"coeffs key {key!r} repeats output coordinate {a}")
            _require(isinstance(table, dict), f"coeffs[{key!r}] must be an object")
            terms = tables[a] = {}
            for exp, coef in table.items():
                powers = exp.split(",")
                _require(len(powers) == n and all(p.isdecimal() for p in powers),
                         f"exponent {exp!r} must be {n} integers >= 0")
                _require(_number(coef), f"coefficient {coef!r} must be a number")
                exponent = tuple(map(int, powers))
                _require(exponent not in terms,
                         f"exponent {exp!r} repeats an exponent of coeffs[{key!r}]")
                terms[exponent] = coef
        fields.append(PolyVectorField(tuple(tables.get(a, {}) for a in range(n)), n))
    try:
        return SRFrame(tuple(fields), n, spec["k"])
    except ValueError as err:
        raise ScenarioError(f"invalid frame: {err}") from err


def _domain_from_spec(spec, n: int) -> Domain:
    """The domain section as a box in R^n."""
    _checked(spec, "domain")
    _require({"lower", "upper"} <= set(spec), "domain needs lower and upper")
    lower, upper = (_array(spec[key], (n,), f"domain.{key} must be {n} numbers")
                    for key in ("lower", "upper"))
    try:
        return Domain(lower, upper)
    except ValueError as err:
        raise ScenarioError(f"invalid domain: {err}") from err


def _control_from_spec(spec: dict, k: int, defaults: dict | None = None,
                       name: str = "control") -> ControlSignal:
    """Expand a control spec (samples | constant | segments) to cell samples."""
    merged = dict(defaults or {})
    merged.update(_checked(spec, name, "control"))
    _require("T" in merged and "N_t" in merged,
             f"{name} needs T and N_t (own or inherited)")
    horizon = float(merged["T"])
    n_cells = merged["N_t"]

    forms = [f for f in ("samples", "constant", "segments")
             if merged.get(f) is not None]
    _require(len(forms) == 1,
             "control spec needs exactly one of samples/constant/segments")

    if merged.get("samples") is not None:
        samples = _array(merged["samples"], (n_cells, k),
                         f"samples must be an {n_cells} x {k} matrix")
    elif merged.get("constant") is not None:
        value = _array(merged["constant"], (k,),
                       f"constant control must have length {k}")
        samples = np.tile(value, (n_cells, 1))
    else:
        samples = np.empty((n_cells, k))
        start = 0
        t_prev = 0.0
        for seg in merged["segments"]:
            _checked(seg, f"{name}.segments[]", "segment")
            _require({"t_end", "value"} <= set(seg),
                     "each segment needs t_end and value")
            t_end = float(seg["t_end"])
            _require(t_end > t_prev, "segment times must increase")
            node = t_end / horizon * n_cells
            stop = int(round(node))
            _require(abs(node - stop) <= 1e-9 * n_cells,
                     f"segment t_end={t_end!r} is not a control grid node")
            value = _array(seg["value"], (k,),
                           f"segment value must have length {k}")
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

    def nsre_kwargs(self) -> dict:
        return {key: self.tolerances[key]
                for key in ("acb_bound", "theta_min", "sigma_tol", "tau_range")}


def parse_scenario(data: dict, sha256: str, name_hint: str = "scenario") -> Scenario:
    _require(isinstance(data, dict), "scenario root must be a JSON object")
    unknown = set(data) - {"name", "frame", "domain", "q0", "control",
                           "hamiltonian", "integrator", "tolerances", "homotopy",
                           "certify", "seed", "out_dir"}
    _require(not unknown, f"unknown scenario keys: {sorted(unknown)}")
    for key in ("frame", "domain", "q0"):
        _require(key in data, f"scenario is missing required key '{key}'")
    _require(_integer(data.get("seed", 0)) and data.get("seed", 0) >= 0,
             "seed must be a non-negative integer")
    _require(data.get("out_dir") is None or isinstance(data["out_dir"], str),
             "out_dir must be a string")

    name = data.get("name", name_hint)
    _require(isinstance(name, str) and name.isprintable(),
             f"name must be a string of printable characters, got {name!r}")

    frame = _frame_from_spec(data["frame"])
    domain = _domain_from_spec(data["domain"], frame.n)

    q0 = _array(data["q0"], (frame.n,), f"q0 must be a list of {frame.n} numbers")
    _require(domain.contains(q0), "q0 must lie in the domain interior")

    tolerances = _section(data, "tolerances")
    integrator = _section(data, "integrator")
    hom = _section(data, "homotopy")
    certify = _section(data, "certify")

    has_control = "control" in data
    has_ham = "hamiltonian" in data
    _require(has_control != has_ham,
             "scenario needs exactly one of 'control' or 'hamiltonian'")
    control = None
    hamiltonian = None
    if has_control:
        control = _control_from_spec(data["control"], frame.k)
    else:
        ham = _checked(data["hamiltonian"], "hamiltonian")
        _require({"p0", "T", "N_t"} <= set(ham),
                 "hamiltonian spec needs p0, T and N_t")
        p0 = _array(ham["p0"], (frame.n,), f"p0 must have length {frame.n}")
        hamiltonian = {"p0": p0, "T": float(ham["T"]), "N_t": ham["N_t"]}

    base = {"T": control.horizon, "N_t": control.n_cells} if control else \
        {"T": hamiltonian["T"], "N_t": hamiltonian["N_t"]}
    cell = base["T"] / base["N_t"]
    _require(certify["T_prime"] is None or certify["T_prime"] >= cell,
             f"certify.T_prime = {certify['T_prime']!r} is shorter than one "
             f"control cell (T / N_t = {cell!r})")
    delta_u = None
    if hom["delta_u"] is not None:
        delta_u = _control_from_spec(hom["delta_u"], frame.k, defaults=base,
                                     name="homotopy.delta_u")
        _require(delta_u.n_cells == base["N_t"] and
                 abs(delta_u.horizon - base["T"]) < 1e-12,
                 "delta_u must share the control grid")

    try:
        frame.check_independence(domain, tolerances["frame_grid"])
    except FrameRankError as err:
        raise ScenarioError(str(err)) from err

    return Scenario(
        name=name,
        frame=frame, domain=domain, q0=q0,
        control=control, hamiltonian=hamiltonian,
        substeps=integrator["substeps"],
        emit_tangent_flow=integrator["emit_tangent_flow"],
        tolerances=tolerances, homotopy_n_s=hom["N_s"], delta_u=delta_u,
        certify=certify, seed=data.get("seed", 0),
        sha256=sha256, out_dir=data.get("out_dir"))


def bundled_scenario_path(name: str) -> Path:
    if name not in BUNDLED:
        raise ScenarioError(f"unknown bundled scenario '{name}' "
                            f"(available: {', '.join(BUNDLED)})")
    return Path(str(resources.files("srx").joinpath(f"scenarios/{name}.json")))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict; json itself would keep the last of a
    repeated key."""
    obj: dict = {}
    for key, value in pairs:
        _require(key not in obj, f"scenario repeats the key {key!r} in one object")
        obj[key] = value
    return obj


def load_scenario(path_or_name: str) -> Scenario:
    path = Path(path_or_name)
    if not path.exists() and "/" not in path_or_name \
            and not path_or_name.endswith(".json"):
        path = bundled_scenario_path(path_or_name)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        raw_bytes = path.read_bytes()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file {path}: "
                            f"{err.strerror or err}") from err
    try:
        data = json.loads(raw_bytes.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ScenarioError(f"scenario is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ScenarioError(f"scenario JSON is nested too deeply: {err}") from err
    sha = _new_sha256(raw_bytes).hexdigest()
    return parse_scenario(data, sha, name_hint=path.stem)
