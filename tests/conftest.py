import numpy as np
import pytest

from srx import ControlSignal, Domain, PolyVectorField, SRFrame
from srx.core import _differentiate


def make_euclidean_frame(n=2):
    fields = []
    for i in range(n):
        tables = [dict() for _ in range(n)]
        tables[i][(0,) * n] = 1.0
        fields.append(PolyVectorField(tuple(tables), n))
    return SRFrame(tuple(fields), n, n)


def make_rank_one_frame():
    """X_1 = d/dx on R^2: a rank-1 frame, with no orthogonal part to span."""
    return SRFrame((PolyVectorField(({(0, 0): 1.0}, {}), 2),), 2, 1)


def make_heisenberg_frame():
    # X_1 = d/dx - (y/2) d/dz,  X_2 = d/dy + (x/2) d/dz
    x1 = PolyVectorField((
        {(0, 0, 0): 1.0},
        {},
        {(0, 1, 0): -0.5},
    ), 3)
    x2 = PolyVectorField((
        {},
        {(0, 0, 0): 1.0},
        {(1, 0, 0): 0.5},
    ), 3)
    return SRFrame((x1, x2), 3, 2)


def make_quartic_frame():
    # single field (1, x^4): genuinely non-exact for RK4, closed-form flow
    f = PolyVectorField(({(0, 0): 1.0}, {(4, 0): 1.0}), 2)
    return SRFrame((f,), 2, 1)


def make_random_poly_frame(rng, n=3, k=2, degree=3):
    # four random monomials of degree <= `degree` per coordinate: state-
    # dependent Jacobians and Hessians
    fields = []
    for _ in range(k):
        tables = []
        for _ in range(n):
            table = {}
            for _ in range(4):
                exp = tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
                table[exp] = float(rng.normal())
            tables.append(table)
        fields.append(PolyVectorField(tuple(tables), n))
    return SRFrame(tuple(fields), n, k)


def jet_variation_rhs(frame, rows):
    """The member right-hand side the "variation" stack replaced: the field
    values and Jacobians and four stacked (1, k) matmuls on (B, 2n + 2k)
    rows."""
    n, k = frame.n, frame.k
    q, b = rows[:, :n], rows[:, n:2 * n]
    cells, incs = rows[:, None, 2 * n:2 * n + k], rows[:, None, 2 * n + k:]
    f, jac = frame.derivatives(0, q), frame.derivatives(1, q)
    a = (cells @ jac.reshape(-1, k, n * n)).reshape(-1, n, n)
    db = (incs @ f)[:, 0] + (a @ b[:, :, None])[:, :, 0]
    return np.concatenate([(cells @ f)[:, 0], db], axis=1)


def product_rule_tables(frame):
    """The "variation" and "drift" tables by the hand-written product rule
    the stacks were once built from.

    Over (q, b, u, du): dq/dt = sum_i u_i X_i(q) and db/dt = sum_i du_i
    X_i(q) + sum_{i,c} u_i b_c dX_i/dq_c(q), each monomial of X_i^a, or of
    its q_c-partial, shifted by its u_i, du_i or u_i * b_c factor.  The
    drift is the dq/dt rows without their b and du exponents, over (q, u).
    """
    n, k = frame.n, frame.k
    dim = 2 * (n + k)

    def times(table, *axes):
        tail = tuple(int(v in axes) for v in range(n, dim))
        return {exp + tail: coef for exp, coef in table.items()}

    dq, db = [{} for _ in range(n)], [{} for _ in range(n)]
    for i, f in enumerate(frame.fields):
        u, du = 2 * n + i, 2 * n + k + i
        for a, table in enumerate(f.coeffs):
            dq[a].update(times(table, u))
            db[a].update(times(table, du))
            for c in range(n):
                db[a].update(times(_differentiate(table, c), u, n + c))
    drift = [{e[:n] + e[2 * n:2 * n + k]: c for e, c in t.items()} for t in dq]
    return {"variation": dq + db, "drift": drift}


def rhs_step(rhs):
    """A test-side RK4 step of the stacks' signature (y, c, h, half, sixth)
    for a right-hand side rhs(c, y) of (B, d) arrays, with the stage states
    and the combination of _StackedPolys.batch_step."""
    def step(y, c, h, half, sixth):
        k1 = rhs(c, y)
        k2 = rhs(c, y + half * k1)
        k3 = rhs(c, y + half * k2)
        k4 = rhs(c, y + h * k3)
        return y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return step


def reference_row(stack):
    """A stack's rows at one point on Python floats, from its factors and
    weights alone: each monomial's factors multiplied in order, then each
    row summed from 0.0 over its nonzero terms in the order of the matmul.
    Multiplying by a padding 1.0 or a weight of +-1 and adding w * m for
    -|w| * m are exact, so this rounds as the stages of the generated step
    (_StackedPolys.step) do."""
    monomials = [[int(b) for b in index] for index in zip(*stack.factors)]
    rows = [[(int(j), float(column[j])) for j in np.flatnonzero(column)]
            for column in stack.weights.T]

    def row(x):
        point = [1.0, *x]
        values = []
        for first, *rest in monomials:
            value = point[first]
            for b in rest:
                value *= point[b]
            values.append(value)
        out = []
        for terms in rows:
            total = 0.0
            for j, w in terms:
                total += w * values[j]
            out.append(total)
        return out
    return row


def reference_row_stepper(stack, y0, h, substeps, n_cells, cells=None):
    """The one-system RK4 loop before the step was generated: list
    comprehensions around four reference_row calls per step, with the
    cell's row of `cells` (or nothing) appended to every stage state.  The
    reference for the generated step."""
    row = reference_row(stack)
    ys = np.empty((n_cells + 1, y0.shape[0]))
    ys[0] = y0
    y = y0.tolist()
    half, sixth = 0.5 * h, h / 6.0
    for j in range(n_cells):
        c = [] if cells is None else cells[j].tolist()

        def rhs(state):
            return row(state + c)
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs([a + half * b for a, b in zip(y, k1)])
            k3 = rhs([a + half * b for a, b in zip(y, k2)])
            k4 = rhs([a + h * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        ys[j + 1] = y
    return ys


def constant_control(value, horizon=1.0, n_cells=1000):
    value = np.asarray(value, dtype=float)
    return ControlSignal(horizon, np.tile(value, (n_cells, 1)))


def sampled_control(func, horizon=1.0, n_cells=1000):
    """Piecewise-constant control sampling func at cell midpoints."""
    mids = (np.arange(n_cells) + 0.5) * (horizon / n_cells)
    return ControlSignal(horizon, np.array([func(t) for t in mids]))


def smooth_perturbation(rng, horizon=1.0, n_cells=1000, k=2, amplitude=1.0,
                        n_modes=3):
    """Random band-limited perturbation sampled at cell midpoints."""
    coef_cos = rng.normal(size=(n_modes, k))
    coef_sin = rng.normal(size=(n_modes, k))
    freqs = 2.0 * np.pi * np.arange(1, n_modes + 1) / horizon
    mids = (np.arange(n_cells) + 0.5) * (horizon / n_cells)
    vals = np.zeros((n_cells, k))
    for m, w in enumerate(freqs):
        vals += np.outer(np.cos(w * mids), coef_cos[m])
        vals += np.outer(np.sin(w * mids), coef_sin[m])
    peak = np.abs(vals).max()
    if peak > 0:
        vals *= amplitude / peak
    return ControlSignal(horizon, vals)


def two_point_map(tf, i, j, v):
    """The tangent map from grid node i to grid node j applied to v."""
    return tf.matrices[j] @ np.linalg.solve(tf.matrices[i], v)


@pytest.fixture(scope="session")
def euclidean2():
    return make_euclidean_frame(2)


@pytest.fixture(scope="session")
def heisenberg():
    return make_heisenberg_frame()


@pytest.fixture(scope="session")
def box2():
    return Domain(np.array([-1.0, -2.0]), np.array([2.0, 2.0]))


@pytest.fixture(scope="session")
def box3():
    return Domain(np.array([-2.0, -2.0, -2.0]), np.array([2.0, 2.0, 2.0]))
