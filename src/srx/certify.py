"""Certified constants, growth bounds, and the local-optimality radius.

All constants are bounds over the domain from entrywise bounds of the exact
polynomial derivatives, inflated by a documented safety margin; the growth
functions are closed forms of those constants, so every certificate claim is
auditable from the numbers stored in it.  Verification replays the chain on
random energy-nonincreasing perturbations and records per-trial slacks.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import (CONSTANTS_MARGIN, GRID_RESOLUTION, MARGIN_FACTOR, N_S, ControlSignal,
                   Domain, NotCertifiableError, SRFrame, SRXError, Trajectory,
                   control_inner)
from .extremals import (NSREReport, nsre_check, require_normalized,
                        require_orthogonal_part)
from .homotopy import Homotopy, _homotopy_cells, energy_comparison_check

EPSILON_REL_TOL = 1e-6
SLACK_TOL = 1e-9            # a separation or bound slack above -SLACK_TOL holds
AMP_RANGE = (0.05, 0.7)     # range of the sampler's Gaussian draw amplitude
MAX_ATTEMPTS = 200          # sampler draws before it gives up
# Memory budget of one verification batch: its du draws and one cell's
# (q, b, u, du) member rows.  Batches hold whole trials, at least one.
VERIFY_BATCH_BYTES = 1 << 18
NODE_BLOCK = 64             # nodes of a stored homotopy reduced at a time


@dataclass(frozen=True)
class FrameConstants:
    """Margined sup/Lipschitz bounds of the frame fields over the domain.

    C0 bounds field norms, C1 bounds Jacobian columns, C2 is a Lipschitz
    constant of the fields (a bound on the Jacobian spectral norm over the
    convex box), and C3 a Lipschitz constant of the Jacobian columns (a bound
    on the second-derivative slice spectral norms).  All four include the
    margin.  grid_resolution is recorded for provenance only: no constant
    depends on it.
    """

    C0: float
    C1: float
    C2: float
    C3: float
    grid_resolution: int
    margin: float


def estimate_constants(frame: SRFrame, domain: Domain,
                       grid_resolution: int = GRID_RESOLUTION,
                       margin: float = CONSTANTS_MARGIN) -> FrameConstants:
    """Bound C0..C3 over the domain closure from SRFrame.derivative_bounds.

    The entrywise bounds B of the values, Jacobians and second derivatives
    give C0 and C1 as vector norms and C2 and C3 as spectral norms of the
    bound matrices, which is valid because ||A||_2 <= || |A| ||_2 <= ||B||_2
    whenever |A| <= B entrywise.  grid_resolution is only recorded.
    """
    if not (math.isfinite(margin) and margin >= 1.0):
        raise ValueError("margin must be finite and >= 1")
    n = frame.n
    fvals = frame.derivative_bounds(0, domain)                # (k, n)
    c0 = np.linalg.norm(fvals, axis=1).max()
    jacs = frame.derivative_bounds(1, domain)                 # (k, n, n)
    c1 = np.linalg.norm(jacs, axis=1).max()                   # column norms
    c2 = np.linalg.svd(jacs, compute_uv=False)[:, 0].max()
    hess = frame.derivative_bounds(2, domain)                 # (k, a, b, c)
    # Lipschitz of the column map q -> dX_i/dq^b: slice over (a, c) per (i, b).
    slices = np.swapaxes(hess, 1, 2).reshape(-1, n, n)
    c3 = np.linalg.svd(slices, compute_uv=False)[:, 0].max()
    c0, c1, c2, c3 = (margin * np.array([c0, c1, c2, c3])).tolist()
    return FrameConstants(c0, c1, c2, c3, grid_resolution, margin)


def _check_horizon(t: float) -> float:
    t = float(t)
    if t < 0.0:
        raise ValueError("horizon must be nonnegative")
    return t


def zeta(t: float, constants: FrameConstants, k: int) -> float:
    """Growth bound for the spread |gamma_s(t) - gamma_0(t)| per unit L2 norm."""
    t = _check_horizon(t)
    rk = math.sqrt(k)
    return math.exp(rk * constants.C2 * t) * rk * constants.C0


def psi(t: float, constants: FrameConstants, k: int, n: int) -> float:
    """Growth bound for the variation norm |b_s(t)| per unit L2 norm."""
    t = _check_horizon(t)
    rk = math.sqrt(k)
    return math.exp(3.0 * constants.C1 * rk * n * t) * constants.C0 * rk


def xi(t: float, constants: FrameConstants, k: int, n: int) -> float:
    """Growth bound for the variation drift |b_s(t) - b_0(t)| per squared L2 norm."""
    t = _check_horizon(t)
    rk = math.sqrt(k)
    z = zeta(t, constants, k)
    p = psi(t, constants, k, n)
    return math.exp(rk * n * constants.C1 * t) * (
        rk * n * constants.C3 * t * z * p
        + rk * (n * constants.C1 * p + constants.C2 * z))


def _squares(x: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """|x|^2 (or |x - x0|^2) over the last axis, summed left to right, as
    np.linalg.norm sums up to 7 components."""
    total = 0.0
    for a in range(x.shape[-1]):
        xa = x[..., a] if x0 is None else x[..., a] - x0[..., a]
        total = total + xa * xa
    return total


def _extremes(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Extremes of the bound quantities of H homotopies, as maxima.

    q and b are (M, T, H, n) member states and variations (member 0 has
    s = 0) at T nodes.  Row h holds the largest squared spread, variation
    and drift, and q's per-axis minimum (negated) and maximum, so rows of
    node blocks fold by np.maximum.  sqrt is monotone and correctly rounded,
    so the sqrt of a largest square (see _squares) is exactly the largest
    norm.
    """
    return np.column_stack([
        _squares(q, q[:1]).max(axis=(0, 1)), _squares(b).max(axis=(0, 1)),
        _squares(b, b[:1]).max(axis=(0, 1)), -q.min(axis=(0, 1)),
        q.max(axis=(0, 1))])


@dataclass(frozen=True, eq=False)
class FamilyExtremes:
    """What the growth bounds, the domain check and the separation bound
    need of one homotopy of u, so that its member states need not be kept.

    extremes is the family's _extremes row; b0 and phi are member 0's
    |b_0(t)| and |integral_0^t phi| at the N_t + 1 nodes, from which
    bound_slacks takes the b_0 slack for any c.  du2 is |du|^2; the family
    has k controls and n states.  in_domain is whether every member state
    lies inside the open box, and separation is the endpoint gap
    |gamma_1(T) - gamma_0(T)|.
    """

    extremes: np.ndarray
    b0: np.ndarray
    phi: np.ndarray
    du2: float
    k: int
    n: int
    in_domain: bool
    separation: float


def _fold_extremes(blocks, u: ControlSignal, deltas: list[ControlSignal],
                   domain: Domain | None) -> list[FamilyExtremes]:
    """The FamilyExtremes of the natural homotopies of u, one per increment
    in deltas, from their (M, T, H, 2n) blocks of member states (q, b) in
    time order, folded block by block so that no block is kept.

    A family is in the domain iff q's per-axis range lies in the open box:
    for finite states, exactly boundary_distances > 0 at every node.
    """
    phi = np.abs(np.stack([control_inner(u, du) for du in deltas], axis=1))
    b0 = np.empty_like(phi)
    extremes, lo = None, 0
    for y in blocks:
        n = y.shape[-1] // 2
        q, b = y[..., :n], y[..., n:]
        block = _extremes(q, b)
        extremes = block if extremes is None else np.maximum(extremes, block)
        b0[lo:lo + y.shape[1]] = np.sqrt(_squares(b[0]))
        lo += y.shape[1]
    ends = q[:, -1]

    def inside(row):
        low, high = np.split(row[3:], 2)
        return domain is None or (domain.contains(-low) and domain.contains(high))

    return [FamilyExtremes(row, b0[:, h], phi[:, h], du.l2_norm_sq(), du.k, n,
                           inside(row),
                           float(np.linalg.norm(ends[-1, h] - ends[0, h])))
            for h, (du, row) in enumerate(zip(deltas, extremes))]


def family_extremes(hom: Homotopy, u: ControlSignal,
                    domain: Domain | None) -> FamilyExtremes:
    """Reduce a stored homotopy of u to its FamilyExtremes, folding blocks
    of NODE_BLOCK nodes as verification folds cells, so the temporaries do
    not grow with N_t."""
    q, b = hom.trajectories[:, :, None], hom.variations[:, :, None]
    blocks = (np.concatenate([q[:, lo:lo + NODE_BLOCK], b[:, lo:lo + NODE_BLOCK]],
                             axis=-1)
              for lo in range(0, hom.grid.shape[0], NODE_BLOCK))
    return _fold_extremes(blocks, u, [hom.delta_u], domain)[0]


def bound_slacks(family: FamilyExtremes, constants: FrameConstants, c: float,
                 horizon: float) -> tuple[dict[str, tuple[float, float]], float]:
    """The growth bounds of one homotopy, evaluated at `horizon`.

    Returns the spread, variation and drift bounds as name -> (largest value
    over the (s, t) grid, limit), with limits sqrt(T) zeta |du|,
    sqrt(T) psi |du| and T xi |du|^2, and the smallest slack of the angle
    lower bound |b_0(t)| >= c |integral_0^t phi|.
    """
    k, n = family.k, family.n
    du_l2 = math.sqrt(family.du2)
    root_t = math.sqrt(horizon)
    spread, variation, drift = (math.sqrt(v) for v in family.extremes[:3].tolist())
    bounds = {
        "spread": (spread, root_t * zeta(horizon, constants, k) * du_l2),
        "variation": (variation, root_t * psi(horizon, constants, k, n) * du_l2),
        "drift": (drift, horizon * xi(horizon, constants, k, n) * family.du2),
    }
    return bounds, float((family.b0 - c * family.phi).min())


def compute_eta(traj: Trajectory, domain: Domain,
                constants: FrameConstants) -> float:
    """Tube radius: worst node distance to the boundary minus a step allowance.

    The allowance dt * C0 * sqrt(k) absorbs how far the true curve can stray
    from its grid nodes within one cell.
    """
    if traj.left_domain:
        raise NotCertifiableError("trajectory leaves the domain")
    worst = float(domain.boundary_distances(traj.states).min())
    if worst <= 0.0:
        raise NotCertifiableError("trajectory touches the domain boundary")
    allowance = traj.control.dt * constants.C0 * math.sqrt(traj.control.k)
    eta = worst - allowance
    if eta <= 0.0:
        raise NotCertifiableError(
            f"tube radius nonpositive ({eta:.3e}); domain too tight for the grid")
    return eta


@dataclass(frozen=True)
class EpsilonResult:
    """Radius with its inputs and condition values; the left-hand sides are
    monotone, or compute_epsilon would have raised."""

    epsilon: float
    domain_lhs: float    # 4 * eps * zeta(eps)
    angle_lhs: float     # eps * xi(eps)
    c: float
    eta: float
    capped: bool
    t_max: float
    margin_factor: float

    @property
    def domain_limit(self) -> float:
        return self.eta

    @property
    def angle_limit(self) -> float:
        return 0.5 * self.c

    @property
    def domain_ok(self) -> bool:
        return self.domain_lhs < self.domain_limit

    @property
    def angle_ok(self) -> bool:
        return self.angle_lhs < self.angle_limit

    @property
    def holds(self) -> bool:
        return self.domain_ok and self.angle_ok


def compute_epsilon(constants: FrameConstants, c: float, eta: float, k: int,
                    n: int, t_max: float, *,
                    margin_factor: float = MARGIN_FACTOR) -> EpsilonResult:
    """Largest radius satisfying 4*eps*zeta(eps) < eta and eps*xi(eps) < c/2.

    With C0..C3 finite and nonnegative, which is checked, both left-hand
    sides are sums and products of nonnegative nondecreasing terms, so a
    bisection on (0, t_max] locates the boundary to EPSILON_REL_TOL.  The
    strict inequalities are enforced through the margin factor.
    """
    if c <= 0.0:
        raise NotCertifiableError("angle constant c <= 0: not a certified NSRE")
    if eta <= 0.0:
        raise NotCertifiableError("tube radius eta <= 0")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if not 0.0 < margin_factor < 1.0:
        raise ValueError("margin_factor must lie in (0, 1)")
    if not all(math.isfinite(v) and v >= 0.0 for v in
               (constants.C0, constants.C1, constants.C2, constants.C3)):
        raise SRXError("condition left-hand sides are not monotone; "
                       "constants are inconsistent")

    def domain_lhs(e: float) -> float:
        return 4.0 * e * zeta(e, constants, k)

    def angle_lhs(e: float) -> float:
        return e * xi(e, constants, k, n)

    def feasible(e: float) -> bool:
        return (domain_lhs(e) <= margin_factor * eta
                and angle_lhs(e) <= margin_factor * 0.5 * c)

    if feasible(t_max):
        eps, capped = t_max, True
    else:
        lo, hi = 0.0, t_max
        while hi - lo > EPSILON_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        eps, capped = lo, False
    if eps <= 0.0:
        raise NotCertifiableError("no positive radius satisfies the conditions")
    return EpsilonResult(eps, domain_lhs(eps), angle_lhs(eps), c, eta, capped,
                         t_max, margin_factor)


@dataclass(frozen=True)
class Certificate:
    """Local-optimality certificate for one trajectory inside one domain;
    c, eta, epsilon and the growth values at epsilon (k fields in R^n) are
    derived from the conditions and the constants."""

    constants: FrameConstants
    conditions: EpsilonResult
    seed: int
    k: int
    n: int

    @property
    def c(self) -> float:
        return self.conditions.c

    @property
    def eta(self) -> float:
        return self.conditions.eta

    @property
    def epsilon(self) -> float:
        return self.conditions.epsilon

    @property
    def zeta_eps(self) -> float:
        return zeta(self.epsilon, self.constants, self.k)

    @property
    def psi_eps(self) -> float:
        return psi(self.epsilon, self.constants, self.k, self.n)

    @property
    def xi_eps(self) -> float:
        return xi(self.epsilon, self.constants, self.k, self.n)

    def to_json_dict(self) -> dict:
        return {
            "C0": self.constants.C0,
            "C1": self.constants.C1,
            "C2": self.constants.C2,
            "C3": self.constants.C3,
            "margin": self.constants.margin,
            "c": self.c,
            "eta": self.eta,
            "epsilon": self.epsilon,
            "zeta_eps": self.zeta_eps,
            "psi_eps": self.psi_eps,
            "xi_eps": self.xi_eps,
            "conditions": {
                "domain": self.conditions.domain_ok,
                "angle": self.conditions.angle_ok,
                "domain_lhs": self.conditions.domain_lhs,
                "angle_lhs": self.conditions.angle_lhs,
                "monotone_ok": True,
                "capped": self.conditions.capped,
                "t_max": self.conditions.t_max,
                "margin_factor": self.conditions.margin_factor,
            },
            "provenance": {
                "grid": self.constants.grid_resolution,
                "seed": self.seed,
            },
        }


def build_certificate(frame: SRFrame, domain: Domain, u: ControlSignal,
                      traj: Trajectory, *, grid_resolution: int,
                      margin: float = CONSTANTS_MARGIN,
                      margin_factor: float = MARGIN_FACTOR, seed: int = 0,
                      substeps: int = 1,
                      nsre_kwargs: dict | None = None
                      ) -> tuple[Certificate, NSREReport]:
    """Run the full chain: constants, NSRE test, tube radius, radius search."""
    require_normalized(u, "nsre_check")
    require_orthogonal_part(frame)
    constants = estimate_constants(frame, domain, grid_resolution, margin)
    report = nsre_check(frame, u, traj, substeps=substeps, **(nsre_kwargs or {}))
    if report.status == "failed":
        raise NotCertifiableError("trajectory fails the NSRE regularity test",
                                  report)
    if report.status == "inconclusive":
        raise NotCertifiableError("NSRE angle condition is inconclusive at this "
                                  "resolution", report)
    eta = compute_eta(traj, domain, constants)
    result = compute_epsilon(constants, report.c, eta, frame.k, frame.n,
                             traj.horizon, margin_factor=margin_factor)
    return Certificate(constants, result, seed, frame.k, frame.n), report


class TrialDraws:
    """Seeded draws of one verification trial from CPython's Mersenne Twister
    (random.Random; Matsumoto & Nishimura, ACM TOMACS 1998), so verification
    loads neither numpy.random nor, through it, OpenSSL."""

    def __init__(self, seed: int):
        # random.Random(-s) would silently draw the stream of seed s
        if seed < 0:
            raise ValueError(f"trial seed must be non-negative, got {seed}")
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        gauss = self._random.gauss
        return np.array([gauss(0.0, 1.0) for _ in range(math.prod(shape))]
                        ).reshape(shape)


def sample_admissible_perturbation(rng, u: ControlSignal
                                   ) -> tuple[ControlSignal, int]:
    """Draw a random energy-nonincreasing perturbation of u.

    A Gaussian draw is split into its u-parallel and u-orthogonal parts (in
    the exact cell-sum L2 sense); the parallel coefficient is then placed
    strictly inside the interval where the perturbed energy does not exceed
    the original.  Draws whose orthogonal part is too large for any feasible
    parallel coefficient are rejected and counted.

    rng has the two methods the sampler calls: uniform(low, high) returns
    one float and standard_normal(shape) an array of independent N(0, 1)
    draws.
    Verification passes TrialDraws; a numpy Generator works as well.
    """
    u2 = u.l2_norm_sq()
    rejected = 0
    for _ in range(MAX_ATTEMPTS):
        amp = rng.uniform(*AMP_RANGE)
        raw = rng.standard_normal(u.samples.shape) * (amp / math.sqrt(u.k))
        a_raw = float(np.sum(u.samples * raw) * u.dt / u2)
        w = raw - a_raw * u.samples
        rho2 = float(np.sum(w * w) * u.dt / u2)
        if rho2 >= 0.999:
            rejected += 1
            continue
        beta = rng.uniform(-0.95, 0.95)
        a = -1.0 + beta * math.sqrt(1.0 - rho2)
        return ControlSignal(u.horizon, a * u.samples + w), rejected
    raise SRXError("perturbation sampler rejected every attempt")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    norm_du: float
    separation: float
    bound: float
    violations: tuple[str, ...]
    rejected: int

    @property
    def slack(self) -> float:
        return self.separation - self.bound


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Per-trial slacks of the separation bound and every growth bound."""

    trials: tuple[TrialRecord, ...]
    t_prime: float
    bound_coefficient: float
    base_seed: int
    n_s: int

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def total_rejected(self) -> int:
        return sum(t.rejected for t in self.trials)

    @property
    def violation_count(self) -> int:
        return sum(1 for t in self.trials if t.violations)

    @property
    def failing_seeds(self) -> tuple[int, ...]:
        return tuple(t.seed for t in self.trials if t.violations)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def worst_slack(self) -> float:
        return min(t.slack for t in self.trials)

    def to_json_dict(self) -> dict:
        return {
            "t_prime": self.t_prime,
            "bound_coefficient": self.bound_coefficient,
            "n_trials": self.n_trials,
            "base_seed": self.base_seed,
            "violations": self.violation_count,
            "rejected": self.total_rejected,
            "failing_seeds": list(self.failing_seeds),
        }


def _trials_per_batch(n_members: int, n_cells: int, n: int, k: int) -> int:
    """Trials whose du draws and one cell's member rows fit in
    VERIFY_BATCH_BYTES (>= 1)."""
    trial_bytes = (n_cells * k + n_members * 2 * (n + k)) * 8
    return max(1, VERIFY_BATCH_BYTES // trial_bytes)


def verify_certificate(frame: SRFrame, domain: Domain, u: ControlSignal,
                       traj: Trajectory, cert: Certificate, *,
                       n_trials: int, base_seed: int = 0,
                       t_prime: float | None = None, n_s: int = N_S,
                       substeps: int = 1) -> VerificationReport:
    """Monte-Carlo check of the certificate on the restricted horizon.

    For every trial the perturbed homotopy must stay in the domain, the
    endpoint separation must meet (c/2 - T' xi(T')) * |du|^2, and all growth
    bounds (spread, variation, drift, the angle lower bound on b_0, and the
    energy-comparison identity) must hold.  Trial i draws from
    TrialDraws(cert.seed + base_seed + i), the seed its record keeps.  Trials
    are integrated in batches of whole trials sized by VERIFY_BATCH_BYTES,
    whose member states _fold_extremes reduces cell by cell as the members
    advance, as family_extremes reduces a stored homotopy by node blocks, so
    the report does not depend on the batch layout.  t_prime, the target
    horizon, is None or a finite number > 0.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if t_prime is not None and not (math.isfinite(t_prime) and t_prime > 0.0):
        raise ValueError(f"t_prime must be a finite number > 0, got {t_prime!r}")
    dt = u.dt
    target = t_prime if t_prime is not None else min(cert.epsilon, 0.05)
    m = int(math.floor(target / dt + 1e-9))
    while m >= 1 and m * dt > cert.epsilon + 1e-12:
        m -= 1
    if m < 1:
        raise NotCertifiableError(
            "certified radius is below one control cell; refine the grid")
    tp = m * dt
    u_r = u.restrict(m)
    n = frame.n

    bound_coef = 0.5 * cert.c - tp * xi(tp, cert.constants, frame.k, n)

    def trial_record(i: int, du: ControlSignal, rejected: int,
                     family: FamilyExtremes) -> TrialRecord:
        bound = bound_coef * family.du2
        bounds, b0_slack = bound_slacks(family, cert.constants, cert.c, tp)

        violations: list[str] = []
        if not family.in_domain:
            violations.append("homotopy_left_domain")
        if family.separation - bound < -SLACK_TOL:
            violations.append("separation_bound")
        if family.separation <= 0.0:
            violations.append("separation_zero")
        violations += [f"{name}_bound" for name, (value, limit) in bounds.items()
                       if limit - value < -SLACK_TOL]
        if b0_slack < -SLACK_TOL:
            violations.append("b0_lower_bound")
        comparison = energy_comparison_check(u_r, du)
        if not (comparison.applicable and comparison.holds and comparison.bound2):
            violations.append("energy_comparison")

        return TrialRecord(i, cert.seed + base_seed + i, math.sqrt(family.du2),
                           family.separation, bound, tuple(violations), rejected)

    batch = _trials_per_batch(n_s + 1, m, n, frame.k)
    records: list[TrialRecord] = []
    for start in range(0, n_trials, batch):
        trials = range(start, min(start + batch, n_trials))
        draws = [sample_admissible_perturbation(
            TrialDraws(cert.seed + base_seed + i), u_r) for i in trials]
        deltas = [du for du, _ in draws]
        _, cells = _homotopy_cells(frame, u_r, np.stack([du.samples for du in deltas]),
                                   traj.q0, n_s, domain, substeps)
        families = _fold_extremes((y[:, None] for y in cells), u_r, deltas, domain)
        records.extend(trial_record(i, du, rejected, family)
                       for i, (du, rejected), family in zip(trials, draws, families))
    return VerificationReport(tuple(records), tp, bound_coef, base_seed, n_s)
