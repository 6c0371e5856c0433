"""Sub-Riemannian building blocks: polynomial frames, box domains, controls.

The frame fields are multivariate polynomials, so values, Jacobians and
Hessians are exact (no numerical differentiation anywhere in this module).
The metric is defined by declaring the frame orthonormal, which makes every
L2 quantity of a piecewise-constant control an exact finite sum.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np


class SRXError(Exception):
    """Base class for all srx errors."""


class GridMismatchError(SRXError):
    """Two grid-indexed objects do not share the same time grid."""


class FrameRankError(SRXError):
    """Frame fields are numerically linearly dependent somewhere in the domain."""


ExponentTable = dict[tuple[int, ...], float]

FRAME_CHECK_CHUNK = 4096    # grid points per batch of the frame-independence check


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

    Identical monomials of all tables are merged: `weights[j, row]` is the
    coefficient of distinct monomial j in that row.  `factors[c][j]` is the
    c-th factor of monomial j as an index into the row [1, x_1, ..., x_n]
    (ascending variables, padded with 0, the 1), so evaluation multiplies
    one factor of every monomial at a time and ends with one matmul: no
    `pow`, and no temporary larger than the (points, distinct) products.
    """

    def __init__(self, tables: list[ExponentTable], n: int):
        monomials: dict[tuple[int, ...], int] = {}
        for table in tables:
            for exp in table:
                monomials.setdefault(exp, len(monomials))
        self.n = n
        self.weights = np.zeros((len(monomials), len(tables)))
        for row, table in enumerate(tables):
            for exp, coef in table.items():
                self.weights[monomials[exp], row] = coef
        degree = max(map(sum, monomials), default=0)
        factors = np.zeros((max(degree, 1), len(monomials)), dtype=np.intp)
        for j, exp in enumerate(monomials):
            index = [b + 1 for b, e in enumerate(exp) for _ in range(e)]
            factors[:len(index), j] = index
        self.factors = list(factors)

    def _monomials(self, points: np.ndarray) -> np.ndarray:
        """(P, n) points -> (P, distinct) monomial values, by products only."""
        row = np.empty((self.n + 1, points.shape[0]))
        row[0] = 1.0
        row[1:] = points.T
        first, *rest = self.factors
        values = row.take(first, axis=0)
        for index in rest:
            values *= row.take(index, axis=0)
        return values.T

    def eval(self, points: np.ndarray) -> np.ndarray:
        """points: (..., n) -> values: (..., rows)."""
        pts = np.asarray(points, dtype=float)
        values = self._monomials(pts.reshape(-1, self.n)) @ self.weights
        return values.reshape(pts.shape[:-1] + self.weights.shape[1:])

    def bound(self, radius: np.ndarray) -> np.ndarray:
        """Entrywise bounds of |rows| on the box |q_b| <= radius_b: (rows,)."""
        return (self._monomials(radius.reshape(1, self.n))
                @ np.abs(self.weights))[0]


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
    """Polynomial vector field on R^n, one monomial table per output coordinate.

    A validated coefficient record; SRFrame evaluates it.
    """

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


@dataclass(frozen=True, eq=False)
class SRFrame:
    """Orthonormal polynomial frame X_1..X_k spanning a rank-k distribution on R^n.

    The sub-Riemannian metric is defined by g(X_i, X_j) = delta_ij, so control
    coordinates are metric coordinates and no Gram matrix is carried around.
    """

    fields: tuple[PolyVectorField, ...]
    n: int
    k: int
    _stacks: dict = field(default_factory=dict, init=False, repr=False)

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

    def derivatives(self, order: int, points) -> np.ndarray:
        """(..., n) points -> (..., k, n, n, ...) derivatives of every field.

        Entry [..., i, a, b, c] of order 2 is d^2 X_i^a / (d q^b d q^c);
        order 0 gives the values and order 1 the Jacobians.  The points are
        not checked: blow-ups surface as non-finite values that the
        integrators turn into IntegrationError.
        """
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1] + (self.k,) + (self.n,) * (order + 1)
        return self._stack(order).eval(pts).reshape(shape)

    def derivative_bounds(self, order: int, domain: "Domain") -> np.ndarray:
        """(k, n, n, ...) bounds of |derivatives(order, q)| over the domain closure.

        Each monomial is at most its absolute value at the box's farthest
        corner, |q_b| = max(|lower_b|, |upper_b|).
        """
        radius = np.maximum(np.abs(domain.lower), np.abs(domain.upper))
        shape = (self.k,) + (self.n,) * (order + 1)
        return self._stack(order).bound(radius).reshape(shape)

    def jet(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(..., n) points -> values (..., k, n) and Jacobians (..., k, n, n).

        One evaluation of the cached stack whose rows are the order-0 rows
        followed by the order-1 rows, so an RK4 stage that needs both pays
        for a single polynomial evaluation.
        """
        pts = np.asarray(points, dtype=float)
        lead, k, n = pts.shape[:-1], self.k, self.n
        rows = self._stack("jet").eval(pts)
        return (rows[..., :k * n].reshape(lead + (k, n)),
                rows[..., k * n:].reshape(lead + (k, n, n)))

    def hamiltonian_field(self, states) -> np.ndarray:
        """(..., 2n) rows (q, p) -> (..., 2n) rows (dH/dp, -dH/dq).

        H(q, p) = 1/2 sum_i <p, X_i(q)>^2 is a polynomial in the 2n
        variables, so the right-hand side of the normal Hamiltonian system
        is one evaluation of the cached stack of its 2n partials.
        """
        return self._stack("hamiltonian").eval(states)

    def variation_field(self, rows) -> np.ndarray:
        """(..., 2n + 2k) rows (q, b, u, du) -> (..., 2n) rows (dq/dt, db/dt).

        The right-hand side of a member dq/dt = f_u(q) with its variation
        db/dt = f_du(q) + Df_u(q) b is a polynomial in all 2n + 2k
        variables, so it is one evaluation of the cached stack of its rows.
        """
        return self._stack("variation").eval(rows)

    def field_matrix_many(self, points) -> np.ndarray:
        """(..., n) points -> (..., n, k) field matrices, columns X_1..X_k."""
        return np.swapaxes(self.derivatives(0, points), -1, -2)

    def field_matrix(self, q) -> np.ndarray:
        """n x k matrix whose columns are X_1(q), ..., X_k(q)."""
        return self.field_matrix_many(self._point(q))

    def jacobians(self, q) -> np.ndarray:
        """(k, n, n) stack of field Jacobians at q."""
        return self.derivatives(1, self._point(q))

    def value(self, i: int, q) -> np.ndarray:
        """Value of field i (0-based) at q."""
        return self.derivatives(0, self._point(q))[self._index(i)]

    def jacobian(self, i: int, q) -> np.ndarray:
        """Matrix J[a, b] = d(X_i)^a / d(q^b), evaluated exactly."""
        return self.derivatives(1, self._point(q))[self._index(i)]

    def hessian(self, i: int, q) -> np.ndarray:
        """Tensor H[a, b, c] = d^2(X_i)^a / (d q^b d q^c)."""
        return self.derivatives(2, self._point(q))[self._index(i)]

    def check_independence(self, domain: "Domain", resolution: int = 5,
                           sv_tol: float = 1e-10) -> float:
        """Smallest singular value of the field matrix over a sampled grid.

        The grid is evaluated FRAME_CHECK_CHUNK points at a time.  Raises
        FrameRankError when the value drops to sv_tol or below, naming the
        first grid point that attains it.
        """
        smin, worst = math.inf, None
        for pts in domain.grid_chunks(resolution, FRAME_CHECK_CHUNK):
            svals = np.linalg.svd(self.field_matrix_many(pts),
                                  compute_uv=False)[:, -1]
            j = int(svals.argmin())
            if svals[j] < smin:
                smin, worst = float(svals[j]), pts[j]
        if smin <= sv_tol:
            raise FrameRankError(
                f"frame fields nearly dependent at {worst.tolist()} "
                f"(sigma_min={smin:.3e} <= {sv_tol:.1e})")
        return smin

    # -- plumbing ---------------------------------------------------------

    def _index(self, i: int) -> int:
        if not 0 <= i < self.k:
            raise IndexError(f"field index {i} out of range [0, {self.k})")
        return i

    def _point(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError(f"point must have shape ({self.n},)")
        if not np.all(np.isfinite(q)):
            raise ValueError("non-finite evaluation point")
        return q

    def _tables(self, order: int) -> list[ExponentTable]:
        """Every derivative table of the given order.

        Rows run over the field, the output coordinate, then one index per
        differentiation variable, matching the axes of `derivatives`.
        """
        tables = [t for f in self.fields for t in f.coeffs]
        for _ in range(order):
            tables = [_differentiate(t, b) for t in tables
                      for b in range(self.n)]
        return tables

    def _hamiltonian_tables(self) -> list[ExponentTable]:
        """Tables of dH/dp then -dH/dq over the 2n variables (q, p).

        u_i = <p, X_i(q)> shifts each monomial of X_i^a by p_a; H is half
        the sum of the products of u_i's monomials with themselves.
        """
        n, h = self.n, {}
        for f in self.fields:
            u = [(exp + tuple(int(b == a) for b in range(n)), coef)
                 for a, table in enumerate(f.coeffs)
                 for exp, coef in table.items()]
            for e1, c1 in u:
                for e2, c2 in u:
                    exp = tuple(x + y for x, y in zip(e1, e2))
                    h[exp] = h.get(exp, 0.0) + 0.5 * c1 * c2
        h = {exp: coef for exp, coef in h.items() if coef != 0.0}
        grad = [_differentiate(h, b) for b in range(2 * n)]
        return grad[n:] + [{exp: -coef for exp, coef in t.items()}
                           for t in grad[:n]]

    def _variation_tables(self) -> list[ExponentTable]:
        """Tables of dq/dt then db/dt over the 2n + 2k variables (q, b, u, du).

        dq/dt = sum_i u_i X_i(q) and db/dt = sum_i du_i X_i(q) +
        sum_{i,c} u_i b_c dX_i/dq_c(q): each monomial of X_i^a, or of its
        q_c-partial, is shifted by its u_i, du_i or u_i * b_c factor.  That
        factor differs between any two terms of a row, so no two collide.
        """
        n, k = self.n, self.k
        dim = 2 * (n + k)

        def times(table: ExponentTable, *axes: int) -> ExponentTable:
            tail = tuple(int(v in axes) for v in range(n, dim))
            return {exp + tail: coef for exp, coef in table.items()}

        dq, db = [{} for _ in range(n)], [{} for _ in range(n)]
        for i, f in enumerate(self.fields):
            u, du = 2 * n + i, 2 * n + k + i
            for a, table in enumerate(f.coeffs):
                dq[a].update(times(table, u))
                db[a].update(times(table, du))
                for c in range(n):
                    db[a].update(times(_differentiate(table, c), u, n + c))
        return dq + db

    def _stack(self, key) -> _StackedPolys:
        """The stack of one derivative order, "jet" (orders 0 and 1),
        "hamiltonian" (the partials of H, over 2n variables) or "variation"
        (the member and variation right-hand side, over 2n + 2k variables).

        Built once per key and cached.
        """
        if key not in self._stacks:
            if key == "hamiltonian":
                tables, dim = self._hamiltonian_tables(), 2 * self.n
            elif key == "variation":
                tables, dim = self._variation_tables(), 2 * (self.n + self.k)
            elif key == "jet":
                tables, dim = self._tables(0) + self._tables(1), self.n
            else:
                tables, dim = self._tables(key), self.n
            self._stacks[key] = _StackedPolys(tables, dim)
        return self._stacks[key]


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

    def grid_chunks(self, resolution: int, chunk: int) -> Iterator[np.ndarray]:
        """The inclusive grid, `resolution` points per axis, `chunk` at a time.

        Points come in row-major order; each chunk's indices go through
        np.unravel_index, so no more than one chunk is ever held.
        """
        if resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        axes = [np.linspace(self.lower[d], self.upper[d], resolution)
                for d in range(self.n)]
        total = resolution ** self.n
        for start in range(0, total, chunk):
            index = np.unravel_index(np.arange(start, min(start + chunk, total)),
                                     (resolution,) * self.n)
            yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


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

    def speed_deviation(self) -> float:
        """Worst | |u_j| - 1 | over the cells; 0 for a unit-speed control."""
        return float(np.max(np.abs(self.cell_norms() - 1.0)))

    def is_normalized(self, tol: float = NORMALIZED_TOL) -> bool:
        return self.speed_deviation() <= tol

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
