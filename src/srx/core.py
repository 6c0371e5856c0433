"""Sub-Riemannian building blocks: polynomial frames, box domains, controls.

The frame fields are multivariate polynomials, so values, Jacobians and
Hessians are exact (no numerical differentiation anywhere in this module).
The metric is defined by declaring the frame orthonormal, which makes every
L2 quantity of a piecewise-constant control an exact finite sum.
"""
from __future__ import annotations

import functools
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


class NotCertifiableError(SRXError):
    """No positive optimality radius can be certified for this run.

    report is the extremals.NSREReport of the NSRE test when that test
    refused the run, else None.  Defined here, and re-exported by certify,
    so that the command line maps it to its exit code without importing
    certify.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


ExponentTable = dict[tuple[int, ...], float]

FRAME_CHECK_CHUNK = 4096    # grid points per batch of the frame-independence check
FRAME_SV_TOL = 1e-10        # smallest field-matrix singular value accepted
NORMALIZED_TOL = 1e-12
_CHAIN = 32                 # terms per statement of a generated RK4 step
# defaults of the pipeline modules, kept here so that srx.scenario imports only core
SIGMA_TOL = 1e-8
THETA_MIN = 1e-3
ACB_BOUND = 50.0
TAU_RANGE = "0..t"          # tau up to the node itself
TAU_RANGES = (TAU_RANGE, "0..T")
N_S = 16                    # homotopy members past s = 0
GRID_RESOLUTION = 21        # recorded in FrameConstants, see estimate_constants
CONSTANTS_MARGIN = 1.1      # safety factor applied to C0..C3
MARGIN_FACTOR = 0.999


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


def _varied(tables: list[ExponentTable], d: int, m: int) -> list[ExponentTable]:
    """The d rows dy/dt of a stack over m variables (y, c), y the first d,
    then their exact variations sum_v d row/d v * dv, over (y, dy, c, dc).

    Each row's monomials are grouped by their c exponents in first-seen
    order, and each group is differentiated by c before y: that order fixes
    the distinct monomials.  Terms of two dv or two groups never collide.
    """
    def lifted(exp: tuple[int, ...], v: int | None = None) -> tuple[int, ...]:
        dv = [int(b == v) for b in range(m)]
        return (*exp[:d], *dv[:d], *exp[d:], *dv[d:])

    variations = []
    for table in tables:
        groups: dict[tuple[int, ...], ExponentTable] = {}
        for exp, coef in table.items():
            groups.setdefault(exp[d:], {})[exp] = coef
        variations.append({lifted(e, v): c for group in groups.values()
                           for v in [*range(d, m), *range(d)]
                           for e, c in _differentiate(group, v).items()})
    return [{lifted(e): c for e, c in t.items()} for t in tables] + variations


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

    def batch_step(self, y: np.ndarray, rows: np.ndarray, h: float,
                   half: float, sixth: float) -> np.ndarray:
        """One classical RK4 step of a batch, for a stack whose d rows are
        the derivatives of its first d variables: (B, d) states -> the (B, d)
        states one step of width h later.

        rows is a reused (B, variables) buffer whose trailing columns hold
        the remaining variables, fixed over the step; half and sixth are
        0.5 * h and h / 6.0.  Each stage writes its state into the first d
        columns and evaluates the stack once (eval copies its input, so the
        buffer is free again).  Rows advance independently.  Overflow is not
        reported here: it surfaces as non-finite states.
        """
        d = y.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            rows[:, :d] = y
            k1 = self.eval(rows)
            rows[:, :d] = y + half * k1
            k2 = self.eval(rows)
            rows[:, :d] = y + half * k2
            k3 = self.eval(rows)
            rows[:, :d] = y + h * k3
            k4 = self.eval(rows)
            return y + sixth * (k1 + 2.0 * (k2 + k3) + k4)

    @functools.cached_property
    def step(self):
        """batch_step for one system on Python floats: (y, c, h, half,
        sixth) -> tuple of the d state values one step of width h later.

        y holds the d state values and c the remaining variables.  Generated
        once per stack as straight-line Python source, with no numpy call.
        Each of the four stages forms the monomials one statement per
        product, sharing the products of common factor prefixes, then sums
        each row from 0.0 over its nonzero weighted terms in the order of the
        matmul; the stage states and the combination are batch_step's,
        rounded the same way, so the two agree bit for bit where the weighted
        products are exact.  No expression chains more than _CHAIN terms, so
        any degree and any number of terms compiles.
        """
        d = self.weights.shape[1]
        body = ["".join(f"y{b}, " for b in range(1, d + 1)) + "= y"]
        if self.n > d:
            body.append("".join(f"x{b}, " for b in range(d + 1, self.n + 1))
                        + "= c")
        indices = [tuple(int(b) for b in index if b)
                   for index in zip(*self.factors)]
        used = {b for index in indices for b in index}
        for s, (var, scale) in enumerate([("y", None), ("x", "half"),
                                          ("x", "half"), ("x", "h")], start=1):
            if scale:
                body.extend(f"x{b} = y{b} + {scale} * k{s - 1}_{b - 1}"
                            for b in range(1, d + 1) if b in used)
            name_of = [f"{var if b <= d else 'x'}{b}"
                       for b in range(self.n + 1)]
            products: dict[tuple[int, ...], str] = {}
            names = []
            for index in indices:
                name = name_of[index[0]] if index else "1.0"
                for c in range(2, len(index) + 1):
                    if index[:c] not in products:
                        products[index[:c]] = f"m{len(products)}"
                        body.append(f"{products[index[:c]]} = "
                                    f"{name} * {name_of[index[c - 1]]}")
                    name = products[index[:c]]
                names.append(name)
            for r, column in enumerate(self.weights.T):
                terms = []
                for j in np.flatnonzero(column):
                    w = float(column[j])
                    term = (names[j] if abs(w) == 1.0
                            else f"{abs(w)!r} * {names[j]}")
                    terms.append(f" {'+' if w > 0.0 else '-'} {term}")
                k = f"k{s}_{r}"
                body.append(f"{k} = 0.0" + "".join(terms[:_CHAIN]))
                body.extend(f"{k} = {k}" + "".join(terms[i:i + _CHAIN])
                            for i in range(_CHAIN, len(terms), _CHAIN))
        body.append("return (" + "".join(
            f"y{b} + sixth * (k1_{b - 1} + 2.0 * (k2_{b - 1} + k3_{b - 1})"
            f" + k4_{b - 1}), " for b in range(1, d + 1)) + ")")
        namespace = {"inf": math.inf, "nan": math.nan}
        exec(compile("def step(y, c, h, half, sixth):\n    "
                     + "\n    ".join(body),
                     "<srx.core._StackedPolys.step>", "exec"), namespace)
        return namespace["step"]


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

    def field_matrix_many(self, points) -> np.ndarray:
        """(..., n) points -> (..., n, k) field matrices, columns X_1..X_k."""
        return np.swapaxes(self.derivatives(0, points), -1, -2)

    def check_independence(self, domain: "Domain", resolution: int) -> float:
        """Smallest singular value of the field matrix over a sampled grid.

        The grid is evaluated FRAME_CHECK_CHUNK points at a time.  Raises
        FrameRankError when the value drops to FRAME_SV_TOL or below, naming
        the first grid point that attains it, or when a field matrix
        overflows, naming the first grid point where it is not finite.
        """
        smin, worst = math.inf, None
        for pts in domain.grid_chunks(resolution, FRAME_CHECK_CHUNK):
            with np.errstate(over="ignore", invalid="ignore"):
                matrices = self.field_matrix_many(pts)
            if not np.isfinite(matrices).all():
                bad = pts[np.isfinite(matrices).all(axis=(1, 2)).argmin()]
                raise FrameRankError(f"frame fields not finite at {bad.tolist()}")
            svals = np.linalg.svd(matrices, compute_uv=False)[:, -1]
            j = int(svals.argmin())
            if svals[j] < smin:
                smin, worst = float(svals[j]), pts[j]
        if smin <= FRAME_SV_TOL:
            raise FrameRankError(
                f"frame fields nearly dependent at {worst.tolist()} "
                f"(sigma_min={smin:.3e} <= {FRAME_SV_TOL:.1e})")
        return smin

    # -- plumbing ---------------------------------------------------------

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

    def _stack(self, key) -> _StackedPolys:
        """The stack of one derivative order, "hamiltonian" (the partials of
        H, over 2n variables), "drift" (dq/dt = sum_i u_i X_i(q), over the
        n + k variables (q, u)) or "variation" (the drift with its variation,
        over the 2n + 2k variables (q, b, u, du); every batched RK4
        integration steps on it).

        Built once per key and cached.
        """
        if key not in self._stacks:
            n, k = self.n, self.k
            if key == "hamiltonian":
                tables, dim = self._hamiltonian_tables(), 2 * n
            elif key in ("drift", "variation"):
                tables = [{exp + tuple(int(c == i) for c in range(k)): coef
                           for i, f in enumerate(self.fields)
                           for exp, coef in f.coeffs[a].items()}
                          for a in range(n)]
                dim = n + k
                if key == "variation":
                    tables, dim = _varied(tables, n, dim), 2 * dim
            else:
                tables, dim = self._tables(key), n
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

    def contains(self, q) -> bool:
        return float(self.boundary_distances(q)) > 0.0

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

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.samples ** 2) * self.dt)

    def energy(self) -> float:
        """0.5 * squared L2 norm over [0, horizon]."""
        return 0.5 * self.l2_norm_sq()

    def speed_deviation(self) -> float:
        """Worst | |u_j| - 1 | over the cells; 0 for a unit-speed control."""
        return float(np.max(np.abs(np.linalg.norm(self.samples, axis=1) - 1.0)))

    def is_normalized(self) -> bool:
        return self.speed_deviation() <= NORMALIZED_TOL

    def perturbed(self, delta: "ControlSignal", scale: float = 1.0) -> "ControlSignal":
        require_same_grid(self, delta)
        return ControlSignal(self.horizon, self.samples + scale * delta.samples)

    def restrict(self, m: int) -> "ControlSignal":
        """The first m cells, on [0, m * dt]."""
        if not 0 < m <= self.n_cells:
            raise ValueError("invalid control window")
        return ControlSignal(m * self.dt, self.samples[:m].copy())


def require_same_grid(u: ControlSignal, v: ControlSignal) -> None:
    if u.n_cells != v.n_cells or u.k != v.k or not math.isclose(
            u.horizon, v.horizon, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatchError(
            f"control grids differ: ({u.horizon}, {u.n_cells}, {u.k}) vs "
            f"({v.horizon}, {v.n_cells}, {v.k})")


def control_inner(u: ControlSignal, delta: ControlSignal) -> np.ndarray:
    """Running integral of the pointwise scalar product phi = <u, delta>.

    Returns the (N_t + 1,) array whose entry m is the integral of phi over
    [0, m*dt], exact for piecewise-constant cells; the last entry is the
    integral over the whole horizon.
    """
    require_same_grid(u, delta)
    values = np.einsum("jk,jk->j", u.samples, delta.samples)
    return np.concatenate([[0.0], np.cumsum(values) * u.dt])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of a controlled trajectory on the control grid.

    first_exit_time is the first grid time whose state is not inside the
    domain, or None when every state is (or no domain was given).  It is
    the one record of a domain exit: `left_domain` is derived from it, as
    `grid` is from the control and `q0` from the states.
    """

    states: np.ndarray   # (N_t + 1, n)
    control: ControlSignal
    first_exit_time: float | None = None

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        if s.shape[0] != self.control.n_cells + 1:
            raise ValueError("states/control sizes are inconsistent")
        object.__setattr__(self, "states", s)

    @property
    def grid(self) -> np.ndarray:
        return self.control.grid

    @property
    def q0(self) -> np.ndarray:
        return self.states[0]

    @property
    def left_domain(self) -> bool:
        return self.first_exit_time is not None

    @property
    def horizon(self) -> float:
        return self.control.horizon

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]
