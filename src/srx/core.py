"""Sub-Riemannian building blocks: polynomial frames, box domains, controls.

The frame fields are multivariate polynomials, so values, Jacobians and
Hessians are exact (no numerical differentiation anywhere in this module).
The metric is defined by declaring the frame orthonormal, which makes every
L2 quantity of a piecewise-constant control an exact finite sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SRXError(Exception):
    """Base class for all srx errors."""


class GridMismatchError(SRXError):
    """Two grid-indexed objects do not share the same time grid."""


class FrameRankError(SRXError):
    """Frame fields are numerically linearly dependent somewhere in the domain."""


ExponentTable = dict[tuple[int, ...], float]


def _differentiate(table: ExponentTable, axis: int) -> ExponentTable:
    """Exact partial derivative of a monomial table with respect to one variable."""
    out: ExponentTable = {}
    for exp, coef in table.items():
        e = exp[axis]
        if e == 0:
            continue
        reduced = exp[:axis] + (e - 1,) + exp[axis + 1 :]
        out[reduced] = out.get(reduced, 0.0) + coef * e
    return out


class _StackedPolys:
    """Evaluates a flat list of monomial tables at (batches of) points.

    All tables are merged into one exponent matrix so a single vectorized
    power/product/matmul evaluates every row at once.
    """

    def __init__(self, tables: list[ExponentTable], n: int):
        exps: list[tuple[int, ...]] = []
        weights: list[tuple[int, float]] = []
        for row, table in enumerate(tables):
            for exp, coef in table.items():
                exps.append(exp)
                weights.append((row, coef))
        self.n = n
        self.rows = len(tables)
        if exps:
            self.exponents = np.asarray(exps, dtype=np.int64)
            w = np.zeros((len(exps), self.rows))
            for m, (row, coef) in enumerate(weights):
                w[m, row] = coef
            self.weights = w
        else:
            self.exponents = np.zeros((0, n), dtype=np.int64)
            self.weights = np.zeros((0, self.rows))

    def eval(self, points: np.ndarray) -> np.ndarray:
        """points: (..., n) -> values: (..., rows)."""
        pts = np.asarray(points, dtype=float)
        if self.exponents.shape[0] == 0:
            return np.zeros(pts.shape[:-1] + (self.rows,))
        monomials = (pts[..., None, :] ** self.exponents).prod(axis=-1)
        return monomials @ self.weights


def _check_object(data, what: str, allowed: set[str] | None = None) -> None:
    """Reject a non-object, or keys outside `allowed` (typos in JSON input)."""
    if not isinstance(data, dict):
        raise TypeError(f"{what} must be an object")
    unknown = set(data) - allowed if allowed is not None else set()
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _validate_table(table: ExponentTable, n: int) -> ExponentTable:
    clean: ExponentTable = {}
    for exp, coef in table.items():
        exp = tuple(int(e) for e in exp)
        if len(exp) != n or any(e < 0 for e in exp):
            raise ValueError(f"exponent tuple {exp} invalid for dimension {n}")
        coef = float(coef)
        if not math.isfinite(coef):
            raise ValueError("non-finite polynomial coefficient")
        if coef != 0.0:
            clean[exp] = clean.get(exp, 0.0) + coef
    return clean


@dataclass(frozen=True, eq=False)
class PolyVectorField:
    """Polynomial vector field on R^n, one monomial table per output coordinate."""

    coeffs: tuple[ExponentTable, ...]
    dim_n: int

    def __post_init__(self):
        n = int(self.dim_n)
        if n < 1:
            raise ValueError("dim_n must be positive")
        if len(self.coeffs) != n:
            raise ValueError("need one coefficient table per output coordinate")
        tables = tuple(_validate_table(t, n) for t in self.coeffs)
        object.__setattr__(self, "coeffs", tables)
        object.__setattr__(self, "dim_n", n)

    def value(self, q: np.ndarray) -> np.ndarray:
        return self._value_stack().eval(self._point(q))

    def jacobian(self, q: np.ndarray) -> np.ndarray:
        """Matrix J[a, b] = d(X)^a / d(q^b), evaluated exactly."""
        n = self.dim_n
        return self._jacobian_stack().eval(self._point(q)).reshape(n, n)

    def hessian(self, q: np.ndarray) -> np.ndarray:
        """Tensor H[a, b, c] = d^2(X)^a / (d q^b d q^c)."""
        n = self.dim_n
        return self._hessian_stack().eval(self._point(q)).reshape(n, n, n)

    def _point(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim_n,):
            raise ValueError(f"point must have shape ({self.dim_n},)")
        if not np.all(np.isfinite(q)):
            raise ValueError("non-finite evaluation point")
        return q

    def _value_stack(self) -> _StackedPolys:
        return self._cache("_values", lambda: _StackedPolys(list(self.coeffs), self.dim_n))

    def _jacobian_stack(self) -> _StackedPolys:
        def build():
            tables = [
                _differentiate(self.coeffs[a], b)
                for a in range(self.dim_n)
                for b in range(self.dim_n)
            ]
            return _StackedPolys(tables, self.dim_n)

        return self._cache("_jac", build)

    def _hessian_stack(self) -> _StackedPolys:
        def build():
            tables = [
                _differentiate(_differentiate(self.coeffs[a], b), c)
                for a in range(self.dim_n)
                for b in range(self.dim_n)
                for c in range(self.dim_n)
            ]
            return _StackedPolys(tables, self.dim_n)

        return self._cache("_hess", build)

    def _cache(self, name: str, build):
        if not hasattr(self, name):
            object.__setattr__(self, name, build())
        return getattr(self, name)

    def to_json_dict(self) -> dict:
        coeffs = {}
        for a, table in enumerate(self.coeffs):
            if table:
                coeffs[str(a)] = {",".join(map(str, e)): c for e, c in table.items()}
        return {"coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, data: dict, n: int) -> "PolyVectorField":
        _check_object(data, "frame field", {"coeffs"})
        raw = data.get("coeffs", {})
        _check_object(raw, "coeffs")
        tables: list[ExponentTable] = [dict() for _ in range(n)]
        for key, table in raw.items():
            a = int(key)
            if not 0 <= a < n:
                raise ValueError(f"output coordinate {a} out of range for n={n}")
            _check_object(table, f"coeffs[{key!r}]")
            for exp_str, coef in table.items():
                if isinstance(coef, bool) or not isinstance(coef, (int, float)):
                    raise TypeError(f"coefficient {coef!r} is not a number")
                exp = tuple(int(s) for s in exp_str.split(","))
                tables[a][exp] = float(coef)
        return cls(tuple(tables), n)


@dataclass(frozen=True, eq=False)
class SRFrame:
    """Orthonormal polynomial frame X_1..X_k spanning a rank-k distribution on R^n.

    The sub-Riemannian metric is defined by g(X_i, X_j) = delta_ij, so control
    coordinates are metric coordinates and no Gram matrix is carried around.
    """

    fields: tuple[PolyVectorField, ...]
    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.fields) != self.k:
            raise ValueError("number of fields must equal k")
        for f in self.fields:
            if f.dim_n != self.n:
                raise ValueError("all fields must share the state dimension")

    # -- evaluation -------------------------------------------------------

    def value(self, i: int, q) -> np.ndarray:
        """Value of field i (0-based) at q."""
        return self._field(i).value(q)

    def jacobian(self, i: int, q) -> np.ndarray:
        return self._field(i).jacobian(q)

    def hessian(self, i: int, q) -> np.ndarray:
        return self._field(i).hessian(q)

    def field_matrix(self, q) -> np.ndarray:
        """n x k matrix whose columns are X_1(q), ..., X_k(q)."""
        return self._field_matrix_fast(self._point(q))

    def field_matrix_many(self, points: np.ndarray) -> np.ndarray:
        """(P, n) points -> (P, n, k) stacked field matrices."""
        return self._field_matrix_fast(np.asarray(points, dtype=float))

    def jacobians(self, q) -> np.ndarray:
        """(k, n, n) stack of field Jacobians at q."""
        n, k = self.n, self.k
        return self._jacobian_stack().eval(self._point(q)).reshape(k, n, n)

    def jacobians_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        n, k = self.n, self.k
        return self._jacobian_stack().eval(pts).reshape(pts.shape[0], k, n, n)

    def hessians_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        n, k = self.n, self.k
        return self._hessian_stack().eval(pts).reshape(pts.shape[0], k, n, n, n)

    # unchecked variants for integrator hot loops, batched over leading
    # axes; blow-ups surface as non-finite values that the integrators turn
    # into IntegrationError
    def _field_matrix_fast(self, q: np.ndarray) -> np.ndarray:
        """(..., n) points -> (..., n, k) field matrices."""
        vals = self._value_stack().eval(q).reshape(q.shape[:-1] + (self.k, self.n))
        return np.swapaxes(vals, -1, -2)

    def _control_jacobian_fast(self, q: np.ndarray, u: np.ndarray) -> np.ndarray:
        """State Jacobians of sum_i u^i X_i: (..., n), (..., k) -> (..., n, n)."""
        n = self.n
        jac = self._jacobian_stack().eval(q).reshape(q.shape[:-1] + (self.k, n, n))
        return np.einsum("...i,...iab->...ab", u, jac)

    def check_independence(self, domain: "Domain", resolution: int = 5,
                           sv_tol: float = 1e-10) -> float:
        """Smallest singular value of the field matrix over a sampled grid.

        Raises FrameRankError when it drops to sv_tol or below.
        """
        pts = domain.grid(resolution)
        mats = self.field_matrix_many(pts)
        svals = np.linalg.svd(mats, compute_uv=False)
        smin = float(svals[:, -1].min())
        if smin <= sv_tol:
            worst = pts[int(svals[:, -1].argmin())]
            raise FrameRankError(
                f"frame fields nearly dependent at {worst.tolist()} "
                f"(sigma_min={smin:.3e} <= {sv_tol:.1e})")
        return smin

    # -- plumbing ---------------------------------------------------------

    def _field(self, i: int) -> PolyVectorField:
        if not 0 <= i < self.k:
            raise IndexError(f"field index {i} out of range [0, {self.k})")
        return self.fields[i]

    def _point(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError(f"point must have shape ({self.n},)")
        if not np.all(np.isfinite(q)):
            raise ValueError("non-finite evaluation point")
        return q

    def _value_stack(self) -> _StackedPolys:
        return self._cache("_vals", lambda: _StackedPolys(
            [t for f in self.fields for t in f.coeffs], self.n))

    def _jacobian_stack(self) -> _StackedPolys:
        def build():
            tables = [
                _differentiate(f.coeffs[a], b)
                for f in self.fields
                for a in range(self.n)
                for b in range(self.n)
            ]
            return _StackedPolys(tables, self.n)

        return self._cache("_jacs", build)

    def _hessian_stack(self) -> _StackedPolys:
        def build():
            tables = [
                _differentiate(_differentiate(f.coeffs[a], b), c)
                for f in self.fields
                for a in range(self.n)
                for b in range(self.n)
                for c in range(self.n)
            ]
            return _StackedPolys(tables, self.n)

        return self._cache("_hesss", build)

    def _cache(self, name: str, build):
        if not hasattr(self, name):
            object.__setattr__(self, name, build())
        return getattr(self, name)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k,
                "fields": [f.to_json_dict() for f in self.fields]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SRFrame":
        _check_object(data, "frame", {"n", "k", "fields"})
        n, k = data["n"], data["k"]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, k)):
            raise TypeError("frame n and k must be integers")
        if not isinstance(data["fields"], list):
            raise TypeError("frame fields must be a list")
        fields = tuple(PolyVectorField.from_json_dict(f, n) for f in data["fields"])
        return cls(fields, n, k)


@dataclass(frozen=True, eq=False)
class Domain:
    """Axis-aligned open box in R^n with compact closure."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower/upper must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("need lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def boundary_distances(self, points) -> np.ndarray:
        """(..., n) points -> distance of each to the nearest box face.

        Negative outside the closure.
        """
        pts = np.asarray(points, dtype=float)
        return np.minimum(pts - self.lower, self.upper - pts).min(axis=-1)

    def boundary_distance(self, q) -> float:
        return float(self.boundary_distances(q))

    def contains(self, q) -> bool:
        return self.boundary_distance(q) > 0.0

    def grid(self, resolution: int) -> np.ndarray:
        """Inclusive uniform grid with `resolution` points per axis, shape (res^n, n)."""
        if resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        axes = [np.linspace(self.lower[d], self.upper[d], resolution)
                for d in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.n)

    def to_json_dict(self) -> dict:
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Domain":
        _check_object(data, "domain", {"lower", "upper"})
        return cls(np.asarray(data["lower"], float), np.asarray(data["upper"], float))


NORMALIZED_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Piecewise-constant control on a uniform grid over [0, horizon].

    Row j of `samples` is the constant value on cell [j*dt, (j+1)*dt), so
    every L2 quantity below is an exact finite sum.
    """

    horizon: float
    samples: np.ndarray  # (N_t, k)

    def __post_init__(self):
        T = float(self.horizon)
        s = np.asarray(self.samples, dtype=float)
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError("horizon must be positive and finite")
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError("samples must be a nonempty N_t x k matrix")
        if not np.all(np.isfinite(s)):
            raise ValueError("control samples must be finite")
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "samples", s)

    @property
    def n_cells(self) -> int:
        return self.samples.shape[0]

    @property
    def k(self) -> int:
        return self.samples.shape[1]

    @property
    def dt(self) -> float:
        return self.horizon / self.n_cells

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_cells + 1)

    def cell_norms(self) -> np.ndarray:
        return np.linalg.norm(self.samples, axis=1)

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.samples ** 2) * self.dt)

    def l2_norm(self) -> float:
        return math.sqrt(self.l2_norm_sq())

    def energy(self) -> float:
        """0.5 * squared L2 norm over [0, horizon]."""
        return 0.5 * self.l2_norm_sq()

    def is_normalized(self, tol: float = NORMALIZED_TOL) -> bool:
        return bool(np.max(np.abs(self.cell_norms() - 1.0)) <= tol)

    def perturbed(self, delta: "ControlSignal", scale: float = 1.0) -> "ControlSignal":
        require_same_grid(self, delta)
        return ControlSignal(self.horizon, self.samples + scale * delta.samples)

    def window(self, j0: int, j1: int) -> "ControlSignal":
        """Cells j0..j1-1 rebased to time zero."""
        if not 0 <= j0 < j1 <= self.n_cells:
            raise ValueError("invalid control window")
        return ControlSignal((j1 - j0) * self.dt, self.samples[j0:j1].copy())

    def restrict(self, m: int) -> "ControlSignal":
        return self.window(0, m)

    def to_json_dict(self) -> dict:
        return {"T": self.horizon, "N_t": self.n_cells,
                "samples": self.samples.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ControlSignal":
        return cls(float(data["T"]), np.asarray(data["samples"], float))


def require_same_grid(u: ControlSignal, v: ControlSignal) -> None:
    if u.n_cells != v.n_cells or u.k != v.k or not math.isclose(
            u.horizon, v.horizon, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatchError(
            f"control grids differ: ({u.horizon}, {u.n_cells}, {u.k}) vs "
            f"({v.horizon}, {v.n_cells}, {v.k})")


@dataclass(frozen=True, eq=False)
class InnerProduct:
    """Cellwise inner product of two controls and its running integral.

    values[j] = <u_j, du_j>; cumulative[m] = integral over [0, m*dt], exact
    for piecewise-constant cells.
    """

    values: np.ndarray      # (N_t,)
    cumulative: np.ndarray  # (N_t + 1,)
    dt: float

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])


def control_inner(u: ControlSignal, delta: ControlSignal) -> InnerProduct:
    """Pointwise scalar product phi of two controls plus its exact running integral."""
    require_same_grid(u, delta)
    values = np.einsum("jk,jk->j", u.samples, delta.samples)
    cumulative = np.concatenate([[0.0], np.cumsum(values) * u.dt])
    return InnerProduct(values, cumulative, u.dt)


def node_index(grid: np.ndarray, t: float) -> int:
    """Index of time t on a uniform grid; raises if t is not a grid node."""
    if grid.shape[0] < 2:
        raise GridMismatchError("grid must have at least two nodes")
    dt = float(grid[1] - grid[0])
    j = int(round(float(t) / dt))
    if not 0 <= j < grid.shape[0] or abs(grid[j] - t) > 1e-6 * dt:
        raise GridMismatchError(f"time {t} does not lie on the grid")
    return j


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of a controlled trajectory on the control grid."""

    grid: np.ndarray     # (N_t + 1,)
    states: np.ndarray   # (N_t + 1, n)
    control: ControlSignal
    q0: np.ndarray
    left_domain: bool = False
    first_exit_time: float | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        s = np.asarray(self.states, dtype=float)
        q0 = np.asarray(self.q0, dtype=float)
        if s.shape[0] != g.shape[0] or g.shape[0] != self.control.n_cells + 1:
            raise ValueError("grid/states/control sizes are inconsistent")
        if not np.array_equal(s[0], q0):
            raise ValueError("states[0] must equal q0")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "q0", q0)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def horizon(self) -> float:
        return self.control.horizon

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    def node_index(self, t: float) -> int:
        return node_index(self.grid, t)

    def window(self, j0: int, j1: int) -> "Trajectory":
        """Nodes j0..j1 as a trajectory rebased to time zero."""
        control = self.control.window(j0, j1)
        states = self.states[j0:j1 + 1].copy()
        return Trajectory(control.grid, states, control, states[0].copy())
