import math
import tracemalloc

import numpy as np
import pytest

from srx import (ControlSignal, Domain, FrameRankError, GridMismatchError,
                 PolyVectorField, SRFrame, control_inner)
from srx import core
from srx.core import node_index
from srx.scenario import BUNDLED, load_scenario

from conftest import (constant_control, jet_variation_rhs, make_quartic_frame,
                      make_random_poly_frame, smooth_perturbation)


# -- polynomial fields ------------------------------------------------------

def test_euclidean_field_values(euclidean2):
    assert np.array_equal(euclidean2.value(0, [3.7, -1.2]), [1.0, 0.0])
    assert np.array_equal(euclidean2.value(1, [3.7, -1.2]), [0.0, 1.0])


def test_heisenberg_field_values(heisenberg):
    # X_2 at (2,0,0): x/2 = 1 in the z slot
    assert np.array_equal(heisenberg.value(1, [2.0, 0.0, 0.0]), [0.0, 1.0, 1.0])
    assert np.array_equal(heisenberg.value(0, [0.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_euclidean_jacobian_zero(euclidean2):
    assert np.array_equal(euclidean2.jacobian(0, [0.3, 0.4]), np.zeros((2, 2)))


def test_heisenberg_jacobians(heisenberg):
    j1 = heisenberg.jacobian(0, [1.0, 2.0, 3.0])
    expected = np.zeros((3, 3))
    expected[2, 1] = -0.5
    assert np.array_equal(j1, expected)
    j2 = heisenberg.jacobian(1, [-4.0, 1.0, 0.0])
    expected = np.zeros((3, 3))
    expected[2, 0] = 0.5
    assert np.array_equal(j2, expected)


def test_field_index_out_of_range(heisenberg):
    with pytest.raises(IndexError):
        heisenberg.value(2, [0.0, 0.0, 0.0])


def test_nonfinite_point_rejected(heisenberg):
    with pytest.raises(ValueError):
        heisenberg.value(0, [np.inf, 0.0, 0.0])


def test_bad_exponent_tuple_rejected():
    with pytest.raises(ValueError):
        PolyVectorField(({(0, -1): 1.0}, {}), 2)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    frame = make_random_poly_frame(rng)
    h = 1e-5
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, size=3)
        for i in range(frame.k):
            jac = frame.jacobian(i, q)
            hess = frame.hessian(i, q)
            for b in range(3):
                e = np.zeros(3)
                e[b] = h
                fd_col = (frame.value(i, q + e) - frame.value(i, q - e)) / (2 * h)
                assert np.allclose(jac[:, b], fd_col, rtol=1e-6, atol=1e-8)
                fd_jcol = (frame.jacobian(i, q + e) - frame.jacobian(i, q - e)) / (2 * h)
                assert np.allclose(hess[:, :, b], fd_jcol, rtol=1e-6, atol=1e-8)


def test_frame_independence_check(heisenberg, box3):
    smin = heisenberg.check_independence(box3, resolution=4)
    assert smin > 0.9  # orthogonal-ish columns everywhere


def test_frame_independence_check_chunks_change_nothing(monkeypatch, box3):
    frame = make_random_poly_frame(np.random.default_rng(4))
    # X2 = x d/dy is parallel to X1 = d/dx wherever x = 0: five grid points
    # of the 5 x 5 grid, the first at flat index 10
    degenerate = SRFrame((PolyVectorField(({(0, 0): 1.0}, {}), 2),
                          PolyVectorField(({}, {(1, 0): 1.0}), 2)), 2, 2)
    square = Domain([-1.0, -1.0], [1.0, 1.0])
    results = []
    for chunk in (10 ** 6, 7, 3):
        monkeypatch.setattr(core, "FRAME_CHECK_CHUNK", chunk)
        with pytest.raises(FrameRankError) as err:
            degenerate.check_independence(square, resolution=5)
        results.append((frame.check_independence(box3, resolution=6),
                        str(err.value)))
    assert results[0] == results[1] == results[2]
    assert "[0.0, -1.0]" in results[0][1]


def test_jet_blocks_match_derivatives():
    rng = np.random.default_rng(6)
    frame = make_random_poly_frame(rng)
    pts = rng.uniform(-1.0, 1.0, size=(5, 4, 3))
    values, jacobians = frame.jet(pts)
    assert values.shape == (5, 4, 2, 3)
    assert jacobians.shape == (5, 4, 2, 3, 3)
    assert np.allclose(values, frame.derivatives(0, pts), rtol=0.0, atol=1e-13)
    assert np.allclose(jacobians, frame.derivatives(1, pts), rtol=0.0,
                       atol=1e-13)


@pytest.mark.parametrize("name", ["euclidean_line", "heisenberg_arc",
                                  "martinet_arc", "cartan_arc"])
@pytest.mark.parametrize("n_rows", [1, 300])
def test_hamiltonian_field_matches_jet_rhs(monkeypatch, name, n_rows):
    frame = load_scenario(name).frame
    n, k = frame.n, frame.k
    builds = []
    build = SRFrame._hamiltonian_tables
    monkeypatch.setattr(SRFrame, "_hamiltonian_tables",
                        lambda self: builds.append(self) or build(self))
    rng = np.random.default_rng(n_rows)
    rows = rng.uniform(-1.5, 1.5, size=(n_rows, 2 * n))
    # dq = sum u^i X_i, dp = -sum u^i (dX_i/dq)^T p from the values and
    # Jacobians of the fields
    f, jac = frame.jet(rows[:, :n])
    p = rows[:, None, n:]
    u = p @ f.swapaxes(1, 2)
    a = (u @ jac.reshape(-1, k, n * n)).reshape(-1, n, n)
    expected = np.concatenate([u @ f, -(p @ a)], axis=2)[:, 0]
    for _ in range(3):
        out = frame.hamiltonian_field(rows)
        assert out.shape == rows.shape
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()
    assert builds == [frame]


def _monomial_derivative(field, q, order):
    """Loop reference: (n,) * (order + 1) derivative tensor of one field at q."""
    n = q.shape[0]
    out = np.zeros((n,) * (order + 1))
    for a, table in enumerate(field.coeffs):
        for exp, coef in table.items():
            for axes in np.ndindex((n,) * order):
                powers, c = list(exp), coef
                for b in axes:
                    c *= powers[b]
                    powers[b] -= 1
                if c:
                    out[(a, *axes)] += c * math.prod(q ** np.array(powers))
    return out


def test_batched_derivatives_match_single_points():
    # BLAS sums a batch product and a single-point product in different
    # orders (up to ~1e-15 apart here), so equality holds to rounding only;
    # the loop reference pins the row order: field, coordinate, variables
    rng = np.random.default_rng(5)
    frame = make_random_poly_frame(rng)
    pts = rng.uniform(-1.0, 1.0, size=(4, 6, 3))
    single = (frame.value, frame.jacobian, frame.hessian)
    for order, at_point in enumerate(single):
        batch = frame.derivatives(order, pts)
        assert batch.shape == (4, 6, 2) + (3,) * (order + 1)
        for b, m in np.ndindex(4, 6):
            for i, field in enumerate(frame.fields):
                q = pts[b, m]
                for expected in (at_point(i, q),
                                 _monomial_derivative(field, q, order)):
                    assert np.allclose(batch[b, m, i], expected,
                                       rtol=0.0, atol=1e-13)


def test_bundled_frame_matches_fixture(heisenberg):
    parsed = load_scenario("heisenberg_line").frame
    q = np.array([0.3, -0.7, 1.1])
    for i in range(2):
        assert np.array_equal(parsed.value(i, q), heisenberg.value(i, q))
        assert np.array_equal(parsed.jacobian(i, q), heisenberg.jacobian(i, q))


# -- the stacked evaluator --------------------------------------------------

def _stack_tables(frame, key):
    """The tables SRFrame._stack(key) is built from, and their variable count."""
    if key == "hamiltonian":
        return frame._hamiltonian_tables(), 2 * frame.n
    if key == "jet":
        return frame._tables(0) + frame._tables(1), frame.n
    if key == "variation":
        return frame._variation_tables(), 2 * (frame.n + frame.k)
    return frame._tables(key), frame.n


def _pow_reference(tables, n, points):
    """The evaluator the stack replaced, and the sum of |terms| per entry.

    One `pow` per point, term and variable, with one column per term of
    every table (no merging); points are taken 64 rows at a time.
    """
    exps = np.array([exp for t in tables for exp in t],
                    dtype=np.int64).reshape(-1, n)
    rows = [r for r, t in enumerate(tables) for _ in t]
    weights = np.zeros((len(rows), len(tables)))
    weights[np.arange(len(rows)), rows] = [c for t in tables
                                           for c in t.values()]
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, n)
    values, scale = [], []
    for start in range(0, max(flat.shape[0], 1), 64):
        monomials = (flat[start:start + 64, None, :] ** exps).prod(axis=-1)
        values.append(monomials @ weights)
        scale.append(np.abs(monomials) @ np.abs(weights))
    shape = pts.shape[:-1] + (len(tables),)
    return (np.concatenate(values).reshape(shape),
            np.concatenate(scale).reshape(shape))


def _test_points(rng, shape, n):
    """Points in [-1.5, 1.5]^n with exact zeros: every third coordinate and,
    when there is one, the whole first point."""
    pts = rng.uniform(-1.5, 1.5, size=shape + (n,))
    pts.reshape(-1)[::3] = 0.0
    pts.reshape(-1, n)[:1] = 0.0
    return pts


@pytest.mark.parametrize("frame", [
    make_random_poly_frame(np.random.default_rng(21), n=3),
    make_random_poly_frame(np.random.default_rng(22), n=4),
    make_quartic_frame(),
], ids=["random_n3", "random_n4", "quartic"])
@pytest.mark.parametrize("key", [0, 1, 2, "jet", "hamiltonian", "variation"])
@pytest.mark.parametrize("shape", [(0,), (1,), (17,), (1088,), (4, 6), ()])
def test_stack_matches_the_pow_evaluator(frame, key, shape):
    # x*x*x and pow(x, 3) round differently, and merged monomials are
    # summed in another order: agreement to rounding, relative to the sum
    # of the terms' absolute values
    tables, n = _stack_tables(frame, key)
    pts = _test_points(np.random.default_rng(len(shape) + sum(shape)), shape, n)
    out = frame._stack(key).eval(pts)
    expected, scale = _pow_reference(tables, n, pts)
    assert out.shape == shape + (len(tables),)
    assert np.all(np.abs(out - expected) <= 1e-14 * scale)


def test_degree_one_stack_equals_the_pow_evaluator(heisenberg):
    tables, n = _stack_tables(heisenberg, "jet")
    pts = _test_points(np.random.default_rng(3), (1088,), n)
    assert np.array_equal(heisenberg._stack("jet").eval(pts),
                          _pow_reference(tables, n, pts)[0])


@pytest.mark.parametrize("name, terms, distinct", [("heisenberg_line", 6, 3),
                                                   ("cartan_arc", 9, 5)])
def test_jet_merges_identical_monomials(name, terms, distinct):
    weights = load_scenario(name).frame._stack("jet").weights
    assert np.count_nonzero(weights) == terms
    assert weights.shape[0] == distinct


@pytest.mark.parametrize("frame", [
    *(load_scenario(name).frame for name in BUNDLED),
    make_random_poly_frame(np.random.default_rng(21), n=3),
    make_random_poly_frame(np.random.default_rng(22), n=4),
    make_quartic_frame(),
], ids=[*BUNDLED, "random_n3", "random_n4", "quartic"])
@pytest.mark.parametrize("n_rows", [0, 1, 17, 102, 1088])
def test_variation_stack_matches_the_jet_rhs(frame, n_rows):
    # both routes sum the same terms in different orders: agreement to
    # rounding, relative to the sum of the terms' absolute values
    tables, dim = _stack_tables(frame, "variation")
    rows = _test_points(np.random.default_rng(n_rows), (n_rows,), dim)
    out = frame.variation_field(rows)
    expected = jet_variation_rhs(frame, rows)
    scale = _pow_reference(tables, dim, rows)[1]
    assert out.shape == (n_rows, 2 * frame.n)
    assert np.all(np.abs(out - expected) <= 1e-14 * scale)


@pytest.mark.parametrize("name, distinct", [("heisenberg_line", 10),
                                            ("martinet_arc", 7),
                                            ("cartan_arc", 14)])
def test_variation_stack_monomials(name, distinct):
    # every term u_i X_i^a, du_i X_i^a and u_i b_c dX_i^a/dq_c keeps its
    # own weight: no two terms of a row share a monomial
    frame = load_scenario(name).frame
    weights = frame._stack("variation").weights
    terms = sum(2 * len(t) + sum(len(core._differentiate(t, c))
                                 for c in range(frame.n))
                for f in frame.fields for t in f.coeffs)
    assert weights.shape == (distinct, 2 * frame.n)
    assert np.count_nonzero(weights) == terms


@pytest.mark.parametrize("shape", [(0,), (5,), (4, 6)])
def test_zero_term_stacks_return_zeros(heisenberg, euclidean2, shape):
    for frame, order in ((heisenberg, 2), (euclidean2, 1)):
        assert frame._stack(order).weights.shape[0] == 0
        out = frame.derivatives(order, np.ones(shape + (frame.n,)))
        assert out.shape == shape + (frame.k,) + (frame.n,) * (order + 1)
        assert not out.any()


@pytest.mark.parametrize("key", (0, 1, 2, "jet"))
def test_stack_memory_stays_below_the_power_array(key):
    # the pow evaluator held a (points x terms x n) float array; products
    # taken one factor at a time hold two (points x distinct) arrays
    frame = make_random_poly_frame(np.random.default_rng(4), n=4, degree=3)
    stack = frame._stack(key)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4096, 4))
    tracemalloc.start()
    try:
        stack.eval(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * np.count_nonzero(stack.weights) * 4 * 8


def _pow_bounds(frame, order, domain):
    """The bounds the pow evaluator gave: each term at the farthest corner."""
    radius = np.maximum(np.abs(domain.lower), np.abs(domain.upper))
    tables, n = _stack_tables(frame, order)
    return _pow_reference(tables, n, radius)[1].reshape(
        (frame.k,) + (frame.n,) * (order + 1))


@pytest.mark.parametrize("name", BUNDLED)
def test_derivative_bounds_equal_the_pow_bounds(name):
    scenario = load_scenario(name)
    for order in range(4):
        assert np.array_equal(
            scenario.frame.derivative_bounds(order, scenario.domain),
            _pow_bounds(scenario.frame, order, scenario.domain))


@pytest.mark.parametrize("seed, n", [(7, 3), (8, 4)])
def test_derivative_bounds_match_the_pow_bounds(seed, n):
    frame = make_random_poly_frame(np.random.default_rng(seed), n=n)
    box = Domain(np.linspace(-1.5, 0.5, n), np.linspace(0.5, 1.75, n))
    for order in range(4):
        assert np.allclose(frame.derivative_bounds(order, box),
                           _pow_bounds(frame, order, box),
                           rtol=1e-14, atol=0.0)


# -- domain -----------------------------------------------------------------

def test_domain_distances():
    box = Domain([-1.0, -1.0], [1.0, 1.0])
    assert box.boundary_distance([0.0, 0.0]) == 1.0
    assert box.boundary_distance([0.5, 0.0]) == 0.5
    assert box.boundary_distance([2.0, 0.0]) == -1.0
    assert box.contains([0.9, -0.9])
    assert not box.contains([1.0, 0.0])


def test_domain_grid_includes_corners():
    box = Domain([0.0, 0.0], [1.0, 2.0])
    pts = np.concatenate(list(box.grid_chunks(3, 4)))
    assert pts.shape == (9, 2)
    assert [0.0, 0.0] in pts.tolist()
    assert [1.0, 2.0] in pts.tolist()


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain([0.0, 0.0], [1.0, 0.0])


# -- controls ---------------------------------------------------------------

def test_energy_normalized_control():
    u = constant_control([1.0, 0.0], horizon=1.0, n_cells=250)
    assert u.energy() == pytest.approx(0.5, abs=1e-15)
    assert u.is_normalized()


def test_energy_constant_control():
    u = constant_control([3.0, 4.0], horizon=2.0, n_cells=16)
    assert u.energy() == pytest.approx(25.0, abs=1e-12)


def test_energy_zero_control():
    u = constant_control([0.0, 0.0], horizon=1.0, n_cells=4)
    assert u.energy() == 0.0
    assert not u.is_normalized()


def test_control_inner_examples():
    u = constant_control([1.0, 0.0], n_cells=100)
    du = constant_control([-2.0, 0.0], n_cells=100)
    phi = control_inner(u, du)
    assert np.allclose(phi.values, -2.0)
    assert phi.total == pytest.approx(-2.0, abs=1e-13)

    du_perp = constant_control([0.0, 5.0], n_cells=100)
    assert np.all(control_inner(u, du_perp).values == 0.0)

    du_mix = constant_control([1.0, 1.0], n_cells=100)
    phi = control_inner(u, du_mix)
    assert np.allclose(phi.values, 1.0)
    assert phi.total == pytest.approx(1.0, abs=1e-13)


def test_control_inner_grid_mismatch():
    u = constant_control([1.0, 0.0], n_cells=10)
    du = constant_control([1.0, 0.0], n_cells=20)
    with pytest.raises(GridMismatchError):
        control_inner(u, du)


def test_l2_expansion_identity():
    # |u+du|^2 = |u|^2 + |du|^2 + 2 int(phi), exactly at cell-sum level
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_cells = int(rng.integers(1, 50))
        k = int(rng.integers(1, 4))
        u = ControlSignal(1.5, rng.normal(size=(n_cells, k)))
        du = ControlSignal(1.5, rng.normal(size=(n_cells, k)))
        lhs = u.perturbed(du).l2_norm_sq()
        rhs = u.l2_norm_sq() + du.l2_norm_sq() + 2.0 * control_inner(u, du).total
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cell_norm_inequality():
    rng = np.random.default_rng(13)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        cell = rng.normal(size=k)
        assert np.abs(cell).sum() <= math.sqrt(k) * np.linalg.norm(cell) + 1e-12


def test_control_validation():
    with pytest.raises(ValueError):
        ControlSignal(0.0, np.ones((4, 2)))
    with pytest.raises(ValueError):
        ControlSignal(1.0, np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        ControlSignal(1.0, np.ones(4))


def test_control_window():
    u = smooth_perturbation(np.random.default_rng(3), n_cells=40)
    w = u.window(10, 30)
    assert w.n_cells == 20
    assert w.horizon == pytest.approx(0.5)
    assert np.array_equal(w.samples, u.samples[10:30])


def test_node_index_lookup():
    u = constant_control([1.0, 0.0], horizon=1.0, n_cells=1000)
    grid = u.grid
    assert node_index(grid, 0.0) == 0
    assert node_index(grid, 0.25) == 250
    assert node_index(grid, 1.0) == 1000
    with pytest.raises(GridMismatchError):
        node_index(grid, 0.2501)
