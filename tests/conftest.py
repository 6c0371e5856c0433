import numpy as np
import pytest

from srx import ControlSignal, Domain, PolyVectorField, SRFrame
from srx.flows import _rk4


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


def batched_trajectory_states(frame, u, q0, substeps=1):
    """integrate_trajectory's states from the batched stepper: _rk4 on a
    batch of one row with sum_i u_i X_i(q) as a (1, k) @ (k, n) matmul, the
    reference for the row stepper."""
    cells = u.samples[:, None, None, :]
    return np.stack(tuple(_rk4(
        lambda j: lambda q: (cells[j] @ frame.derivatives(0, q))[:, 0],
        np.asarray(q0, dtype=float)[None], u.dt / substeps, substeps,
        u.n_cells)))[:, 0]


def batched_oracle_stepper(frame):
    """A stand-in for the row stepper in hamiltonian_extremal: the
    Hamiltonian system on _rk4 with a batch of one row, evaluated by
    SRFrame.hamiltonian_field, the reference for the row stepper."""
    def stepper(f, y0, h, substeps, n_cells):
        return np.stack(tuple(_rk4(lambda _: frame.hamiltonian_field,
                                   y0[None], h, substeps, n_cells)))[:, 0]
    return stepper


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
