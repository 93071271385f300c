"""Exponential-decay machinery on model cylinders.

Contents: the discrete three-interval lemma and its growth factor, the model
linear evolution  d/dtau zeta + B zeta = L  on [0, R] x S^1 for a spectral
operator B (eigen-expansion and Crank-Nicolson solvers), log-linear decay
rate estimation, the center of mass of a loop near the Reeb locus (its
Morse-Bott models take a stack of loop samples, so a residual is one array
expression), and the asymptotic action / charge / pi-energy functionals of
cylinder maps.  Angles wrap and lift through ``core``'s circle primitives.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import ContactChart, _array, _dots, _finite, _points, _record, _require_int, _require_real, reeb_solve
from .core import unwrap_angles, wrap_angles
from .errors import (
    InsufficientDecay,
    ModeMismatch,
    NoConvergence,
    OutOfRange,
    OutsideTube,
    ResolutionTooCoarse,
)
from .spectral import SpectralOperator, _eigh, assemble_operator

# decay_rate fits >= FIT_MIN_SLICES slices with norm in (FIT_FLOOR, FIT_UPPER_FRAC * initial)
FIT_FLOOR = 1e-12
FIT_UPPER_FRAC = 0.1
FIT_MIN_SLICES = 10
THREE_INTERVAL_SLACK = 1e-12  # three_interval_bound's slack, relative to max(1, max x)
# center_of_mass: tube radius about the orbit through gamma[0], residual, Newton steps
CENTER_OF_MASS_TUBE = 0.25
CENTER_OF_MASS_TOL = 1e-9
CENTER_OF_MASS_MAX_ITER = 30

# ---------------------------------------------------------------------------
# three-interval lemma


def growth_factor(gamma: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Geometric factor (1 + sqrt(1 - 4 gamma^2)) / (2 gamma), gamma in (0, 1/2).

    A scalar gamma gives a float, an array gives an array of the same shape;
    OutOfRange if any entry lies outside (0, 1/2)."""
    g = _array("gamma", gamma)
    if not np.all((0.0 < g) & (g < 0.5)):
        raise OutOfRange(f"gamma must lie strictly in (0, 1/2), got {gamma}")
    xi = (1.0 + np.sqrt(1.0 - 4.0 * g * g)) / (2.0 * g)
    return float(xi) if xi.ndim == 0 else xi


# Above this c, gamma(c) < e^-c is below the smallest normal float, so
# growth_factor(gamma(c)) = e^c cannot hold; e^c overflows from c = 709.78.
_MAX_C = -math.log(np.finfo(float).tiny)


def gamma_of_c(c: float) -> float:
    """gamma(c) = 1/(e^c + e^-c), 0 < c <= 708.39; growth_factor(gamma(c)) = e^c."""
    c = _require_real("c", c, 0)
    if c > _MAX_C:
        raise OutOfRange(f"c must be at most {_MAX_C:.6g}, where gamma(c) leaves the normal floats; got {c!r}")
    return 1.0 / (math.exp(c) + math.exp(-c))


@dataclass(frozen=True)
class IntervalSeq:
    """Finite nonnegative sequence with a three-interval coupling constant.

    One sequence is x of shape (N+1,) with a scalar gamma; a stack of n
    sequences is x of shape (n, N+1) with gamma of shape (n,)."""

    x: np.ndarray
    gamma: Union[float, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "x", _array("x", self.x))
        # nan fails both comparisons, so this also rejects non-finite entries
        if not np.all((self.x >= 0) & (self.x < np.inf)):
            raise OutOfRange("sequence entries must be finite and nonnegative")
        if self.x.ndim not in (1, 2) or np.shape(self.gamma) != self.x.shape[:-1]:
            raise OutOfRange(f"x of shape {self.x.shape} needs one gamma per sequence, "
                             f"got gamma of shape {np.shape(self.gamma)}")
        growth_factor(self.gamma)  # OutOfRange unless every gamma lies in (0, 1/2)


@dataclass
class ThreeIntervalReport:
    """Lemma check of one sequence, or of a stack (fields gain a sequence axis)."""

    hypothesis_holds: Union[bool, np.ndarray]
    violations: np.ndarray  # interior k where x_k > gamma (x_{k-1} + x_{k+1}); stack: (seq, k) rows
    bound: np.ndarray  # x_0 xi^-k + x_N xi^-(N-k), shaped like x
    bound_holds: Union[bool, np.ndarray]
    xi: Union[float, np.ndarray]


def three_interval_bound(seq: IntervalSeq) -> ThreeIntervalReport:
    """Check the hypothesis x_k <= gamma (x_{k-1} + x_{k+1}) and, where it
    holds, assert the geometric bound x_k <= x_0 xi^-k + x_N xi^-(N-k), both
    up to THREE_INTERVAL_SLACK max(1, max x).

    The hypothesis is checked, not assumed; violating interior indices are
    returned as a diagnostic (the clusters of intervals that fail).  A stack
    x of shape (n, N+1) is checked row by row in one pass over the last
    axis: the report holds (n,) verdicts and xi, an (n, N+1) bound and
    (sequence, index) violations; each row is what the single-sequence call
    on it returns.
    """
    x = seq.x
    N = x.shape[-1] - 1
    gamma = np.asarray(seq.gamma, dtype=float)[..., None]
    xi = growth_factor(gamma)
    tol = THREE_INTERVAL_SLACK * np.maximum(1.0, np.max(x, axis=-1, keepdims=True))
    bad = x[..., 1:-1] > gamma * (x[..., :-2] + x[..., 2:]) + tol
    violations = np.argwhere(bad)
    violations[:, -1] += 1  # interior column k-1 is sequence index k
    k = np.arange(N + 1, dtype=float)
    bound = x[..., :1] * xi**-k + x[..., N:] * xi ** -(N - k)
    hypothesis = ~np.any(bad, axis=-1)
    bound_holds = hypothesis & np.all(x <= bound + tol, axis=-1)
    if x.ndim == 1:
        return ThreeIntervalReport(bool(hypothesis), violations[:, 0], bound, bool(bound_holds), float(xi[0]))
    return ThreeIntervalReport(hypothesis, violations, bound, bound_holds, xi[:, 0])


def random_hypothesis_sequences(
    rng: np.random.Generator, n_seq: int, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """(gamma, x): n_seq random sequences that satisfy the three-interval
    hypothesis, gamma of shape (n_seq,) and x of shape (n_seq, N+1).

    Per row, gamma ~ U(0.05, 0.49), and with probability 1/2 the row is an
    exact two-sided geometric solution a xi^-k + b xi^(k-N) (a, b ~ U(0, 1)).
    Otherwise it follows the ratio recursion r_{k+1} = 1/gamma - 1/r_k + u_k
    from r_0 ~ U(1/xi, xi), with u_k ~ Exp(0.5) with probability 0.7, else 0
    (u = 0 stretches are the equality case), normalized by its maximum.  The
    recursion runs over k once for all rows, in log space (L_{k+1} = L_k +
    log r_k, x = exp(L - max L)): the products r_0 ... r_{k-1} overflow for
    long sequences, as xi ~ 20 at gamma = 0.05.
    """
    _require_int("n_seq", n_seq, 1)
    _require_int("N", N, 1)
    gamma = rng.uniform(0.05, 0.49, n_seq)
    xi = growth_factor(gamma)
    two_sided = rng.uniform(size=n_seq) < 0.5
    a, b = rng.uniform(0.0, 1.0, (2, n_seq, 1))
    u = rng.exponential(0.5, (n_seq, N - 1))
    u[rng.uniform(size=u.shape) >= 0.7] = 0.0
    r = np.empty((n_seq, N))
    r[:, 0] = rng.uniform(1.0 / xi, xi)
    for j in range(1, N):
        r[:, j] = 1.0 / gamma - 1.0 / r[:, j - 1] + u[:, j - 1]
    x = np.zeros((n_seq, N + 1))  # log x_k = log r_0 + ... + log r_{k-1} until the exp
    np.cumsum(np.log(r, out=r), axis=1, out=x[:, 1:])
    x = np.exp(x - np.max(x, axis=1, keepdims=True))
    k = np.arange(N + 1, dtype=float)
    xt = xi[two_sided, None]
    x[two_sided] = a[two_sided] * xt**-k + b[two_sided] * xt ** (k - N)
    return gamma, x


# ---------------------------------------------------------------------------
# model cylinder evolution


@dataclass
class CylinderField:
    """zeta(tau, t) in R^rank sampled on a uniform grid over [0, R] x S^1."""

    tau: np.ndarray  # (n_tau + 1,)
    t: np.ndarray  # (n_t,)
    values: np.ndarray  # (n_tau + 1, n_t, rank)
    period: float

    @property
    def slice_norms(self) -> np.ndarray:
        """Per-slice L^2(S^1) norms by the fixed periodic trapezoid rule."""
        dt = self.period / len(self.t)
        return np.sqrt(np.sum(self.values**2, axis=(1, 2)) * dt)


@dataclass(frozen=True)
class Forcing:
    """Separable forcing L(tau, t) = e^(-delta0 tau) * profile(t).

    The profile is grid samples (n_t, rank) on the operator's grid, read once
    here as a float array: ModeMismatch unless it is 2-D, OutOfRange for a
    non-finite entry.  delta0 is finite and > 0.
    """

    delta0: float
    profile: np.ndarray

    def __post_init__(self):
        _require_real("delta0", self.delta0, 0)
        profile = _array("profile", self.profile)
        if profile.ndim != 2:
            raise ModeMismatch(f"profile needs shape (n_t, rank), got {profile.shape}")
        if not _finite(profile):
            raise OutOfRange("profile must be finite")
        object.__setattr__(self, "profile", profile)


_RESONANCE_TOL = 1e-9


def solve_cylinder(
    op: SpectralOperator,
    forcing: Optional[Forcing],
    zeta0,
    R: float,
    n_tau: int,
    n_t: Optional[int] = None,
    method: str = "eigen",
    S_of_tau: Optional[Callable[[float], np.ndarray]] = None,
) -> CylinderField:
    """March d/dtau zeta + B zeta = L from tau = 0 to R.

    B is diagonalized once, by the mode-by-mode eigen-solve that
    ``spectral.spectrum`` uses (one small block per Fourier mode for constant
    S, one dense solve for time-dependent S), and both marches work in its
    eigen-coordinates.  ``method='eigen'`` integrates each eigenmode exactly
    (closed-form scalar ODEs); modes with negative eigenvalue are solved
    backward from a zero condition at tau = R, which selects the decaying
    solution instead of the exponentially growing one.  ``method='cn'`` is a
    Crank-Nicolson march (second-order accurate) with the same selection,
    required when S depends on tau (``S_of_tau``).

    ``zeta0`` and the forcing profile are grid samples (len(op.t_grid),
    rank) on the operator's own grid, else ModeMismatch.  ``n_t`` (default:
    the operator grid) sets the output grid, on which every tau-slice is
    synthesized in one product.

    The march covers [0, R] in ``n_tau`` equal steps.  ResolutionTooCoarse
    when ``n_t`` cannot carry the operator's modes, or when a Crank-Nicolson
    step R / n_tau is 2 / |lambda|_max or more.
    """
    _record("op", op, SpectralOperator)
    if forcing is not None:
        _record("forcing", forcing, Forcing)
    _require_int("n_tau", n_tau, 1)
    R = _require_real("R", R, 0)
    n_t = len(op.t_grid) if n_t is None else n_t
    _require_int("n_t", n_t, 1)
    if n_t < 2 * op.n_modes + 2:
        raise ResolutionTooCoarse(f"n_t = {n_t} cannot carry {op.n_modes} Fourier modes")
    if method not in ("eigen", "cn"):
        raise OutOfRange(f"unknown method {method!r}, expected 'eigen' or 'cn'")
    tau = np.linspace(0.0, R, n_tau + 1)
    t = np.arange(n_t) * (op.period / n_t)

    c0 = op.coefficients_from_grid(zeta0)
    evals, evecs = _eigh(op, vectors=True)
    a0 = evecs.T @ c0
    # forcing amplitudes in eigen-coordinates (ascending-eigenvalue order)
    delta0, ell = 1.0, np.zeros(op.dim)
    if forcing is not None:
        delta0, ell = forcing.delta0, evecs.T @ op.coefficients_from_grid(forcing.profile)

    if method == "cn" or S_of_tau is not None:
        A = _crank_nicolson_march(op, evals, evecs, a0, ell, delta0, tau, S_of_tau)
    else:
        A = _eigen_march(evals, a0, ell, delta0, tau)
    coeffs = (evecs @ A.T).T
    return CylinderField(tau, t, op.grid_from_coefficients(coeffs, n_t=n_t), op.period)


def _eigen_march(evals, a0, ell, delta0, tau):
    """Closed-form eigen-amplitudes (n_tau + 1, dim) of a' + lam a = ell e^(-delta0 tau).

    Each mode evaluates only its own branch, so no exponential overflows.
    """
    R = tau[-1]
    A = np.zeros((len(tau), len(evals)))
    forced_decay = np.exp(-delta0 * tau)[:, None]
    stable = evals >= 0
    resonant = stable & (np.abs(evals - delta0) < _RESONANCE_TOL)
    # decaying-solution selection: the zero condition at tau = R overrides
    # the initial value of the unstable modes, which stay zero unless forced
    unstable = ~stable & (ell != 0.0)
    lam, c = evals[unstable], ell[unstable] / (evals[unstable] - delta0)
    # exponents combined first: lam (R - tau) - delta0 R <= 0 on [0, R], so
    # no overflow even for very negative lam
    A[:, unstable] = c * (forced_decay - np.exp(np.multiply.outer(R - tau, lam) - delta0 * R))
    lam = evals[resonant]
    A[:, resonant] = (a0[resonant] + np.multiply.outer(tau, ell[resonant])) * np.exp(
        -np.multiply.outer(tau, lam)
    )
    generic = stable & ~resonant
    lam, c = evals[generic], ell[generic] / (evals[generic] - delta0)
    A[:, generic] = (a0[generic] - c) * np.exp(-np.multiply.outer(tau, lam)) + c * forced_decay
    return A


def _crank_nicolson_march(op, evals, evecs, a0, ell, delta0, tau, S_of_tau):
    """Crank-Nicolson eigen-amplitudes (n_tau + 1, dim).

    Constant S: stable modes (lam >= 0) march forward from a0, unstable
    modes backward from the zero condition at tau = R, mirroring the
    eigen-expansion solver.  Both run in one loop over the rows of one
    contiguous (n_tau + 1, dim) array, each row (num row + F_m) / den: the
    unstable columns hold the backward march in reversed tau, with the sign
    of their half-step and of their forcing flipped (exact in floating
    point), so the loop indexes no mode mask.  num = 1 -/+ dtau lam / 2,
    den = 1 +/- dtau lam / 2 and the forcing rows F_m = dtau ((e_m +
    e_(m+1)) / 2 * ell) are built once, in place; every entry is the one the
    per-step recurrence over each branch gives, bit for bit.
    """
    dtau = tau[1] - tau[0]
    lam_max = float(np.max(np.abs(evals)))
    if dtau * lam_max >= 2.0:
        raise ResolutionTooCoarse(f"dtau = {dtau:g} too coarse for |lambda|_max = {lam_max:g}")
    ells = np.exp(-delta0 * tau)
    pos = evals >= 0
    neg = ~pos

    if S_of_tau is None:
        half = np.where(pos, 1.0, -1.0) * (0.5 * dtau * evals)
        num, den = 1 - half, 1 + half
        A = np.empty((len(tau), len(evals)))
        A[0] = np.where(pos, a0, 0.0)
        F = A[1:]
        np.multiply(dtau, np.multiply.outer(0.5 * (ells[:-1] + ells[1:]), ell), out=F)
        F[:, neg] = -F[::-1, neg]
        for m in range(len(tau) - 1):
            A[m + 1] = (num * A[m] + A[m + 1]) / den
        A[:, neg] = A[::-1, neg]
        return A

    # tau-dependent coefficients: march restricted to the nonnegative
    # eigenspace of the initial operator.  A full forward march would
    # amplify roundoff seeded into the strongly negative modes, so the
    # decaying-solution selection here drops that subspace throughout
    # (exact when the stable/unstable splitting is tau-invariant).
    P = evecs[:, pos]
    gy = ell[pos]
    Y = np.empty((len(tau), len(gy)))
    Y[0] = a0[pos]
    Ik = np.eye(len(gy))

    def B_red(s):
        B = assemble_operator(S_of_tau(s), period=op.period, n_modes=op.n_modes, rank=op.rank, n_t=len(op.t_grid))
        return B.apply(P.T) @ P  # (B P)^T P = P^T B P, mode by mode for constant S

    for m in range(len(tau) - 1):
        Bm = B_red(tau[m])
        Bp = B_red(tau[m + 1])
        rhs = (Ik - 0.5 * dtau * Bm) @ Y[m] + 0.5 * dtau * (ells[m] + ells[m + 1]) * gy
        Y[m + 1] = np.linalg.solve(Ik + 0.5 * dtau * Bp, rhs)
    A = np.zeros((len(tau), len(evals)))
    A[:, pos] = Y
    return A


# ---------------------------------------------------------------------------
# decay-rate estimation


@dataclass
class DecayFit:
    rate: float
    intercept: float
    r_squared: float
    window: tuple
    n_used: int
    window_kind: str  # "decay" or "full"


def decay_rate(field: CylinderField) -> DecayFit:
    """Least-squares slope of log slice-norms.

    The fit window keeps slices with norm in (FIT_FLOOR, FIT_UPPER_FRAC *
    initial), skipping the initial transient.  If the norms never drop below
    the transient threshold (the no-decay regime) the fit falls back to every
    slice above the floor; a window of fewer than FIT_MIN_SLICES slices
    raises InsufficientDecay.
    """
    norms = _record("field", field, CylinderField).slice_norms
    if norms[0] <= FIT_FLOOR:
        raise InsufficientDecay("initial slice already below the floor")
    mask = (norms > FIT_FLOOR) & (norms < FIT_UPPER_FRAC * norms[0])
    kind = "decay"
    if np.sum(mask) < FIT_MIN_SLICES:
        if np.all(norms > FIT_UPPER_FRAC * norms[0]):
            mask = norms > FIT_FLOOR
            kind = "full"
        if np.sum(mask) < FIT_MIN_SLICES:
            raise InsufficientDecay(f"only {int(np.sum(mask))} usable slices (need {FIT_MIN_SLICES})")
    taus = field.tau[mask]
    ys = np.log(norms[mask])
    A = np.column_stack([taus, np.ones_like(taus)])
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    pred = A @ sol
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        rate=float(-sol[0]),
        intercept=float(sol[1]),
        r_squared=r2,
        window=(float(taus[0]), float(taus[-1])),
        n_used=int(np.sum(mask)),
        window_kind=kind,
    )


# ---------------------------------------------------------------------------
# center of mass on the Morse-Bott locus


class FlatTorusQ:
    """Flat d-torus Morse-Bott locus: theta = first coordinate form, the Reeb
    flow is unit translation in coordinate 0, and exp is affine.

    Every coordinate is an angle of period 1; ``periods`` is their float
    array.  ``flow(q, s)`` takes a point (dim,) with a scalar s or a stack
    (N, dim) with s of shape (N,); ``inv_exp`` acts on the last axis.
    """

    def __init__(self, dim: int = 2):
        _require_int("dim", dim, 1)
        self.dim = dim
        self.periods = np.ones(dim)

    def wrap(self, v):
        return wrap_angles(v, self.periods)

    def flow(self, q, s):
        q = np.array(q, dtype=float)
        q[..., 0] += s
        return q

    def inv_exp(self, x, y) -> np.ndarray:
        """E(x, y) = exp_x^{-1}(y): the wrapped difference on a flat torus."""
        return self.wrap(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

    def theta(self, m) -> np.ndarray:
        return np.eye(self.dim)[0]


@dataclass
class CenterOfMassResult:
    m: np.ndarray
    h: np.ndarray  # sampled reparametrization h(t_i), winding number 1
    residual_mean: float  # norm of the averaged inverse-exponential
    residual_xi: float  # worst theta(E(...)) over samples
    iterations: int
    history: list


def _monotone_projection(eta: np.ndarray) -> np.ndarray:
    """Project h(t) = t + eta(t) onto monotone loops of winding one.

    Inactive near solutions where h is already strictly increasing.
    """
    N = len(eta)
    t = np.arange(N) / N
    h = t + eta
    dh = np.diff(np.concatenate([h, [1.0 + h[0]]]))
    if np.all(dh > 0):
        return eta
    dh = np.maximum(dh, 1e-6)
    dh *= 1.0 / np.sum(dh)
    h_new = h[0] + np.concatenate([[0.0], np.cumsum(dh[:-1])])
    return h_new - t


def center_of_mass(
    model,
    gamma: np.ndarray,
    T: float,
) -> CenterOfMassResult:
    """Center of mass m and reparametrization h of a loop near the Reeb locus.

    Solves the averaged inverse-exponential system: the mean of
    E(m, phi^{-T h(t)} gamma(t)) vanishes and each E(...) lies in the contact
    hyperplane at m, with the mean of h - id pinned to zero to fix the gauge
    freedom along the orbit direction.

    The tube precondition measures the C^0 distance between the loop and the
    period-T orbit through its first sample gamma[0]; beyond
    CENTER_OF_MASS_TUBE the solve refuses with OutsideTube.
    Newton stops below the residual CENTER_OF_MASS_TOL, or raises
    NoConvergence after CENTER_OF_MASS_MAX_ITER steps.
    """
    T = _require_real("T", T, 0)
    gamma = _points(model.dim, gamma, point=False, name="gamma")[0]
    N, d = gamma.shape
    ts = np.arange(N) / N

    m = gamma[0].copy()
    eta = np.zeros(N)

    dist = float(np.max(np.linalg.norm(model.inv_exp(gamma[0], model.flow(gamma, -T * ts)), axis=1)))
    if dist > CENTER_OF_MASS_TUBE:
        raise OutsideTube(
            f"loop deviates {dist:.3g} from the orbit through its first sample "
            f"(tube radius {CENTER_OF_MASS_TUBE:g})"
        )

    def residuals(m, eta):
        E = model.inv_exp(m, model.flow(gamma, -T * (ts + eta)))
        return np.concatenate([E.mean(axis=0), E @ model.theta(m), [eta.mean()]])

    history = []
    for it in range(CENTER_OF_MASS_MAX_ITER):
        r = residuals(m, eta)
        res = float(np.max(np.abs(r)))
        history.append(res)
        if res < CENTER_OF_MASS_TOL:
            return CenterOfMassResult(
                m=m,
                h=ts + eta,
                residual_mean=float(np.linalg.norm(r[:d])),
                residual_xi=float(np.max(np.abs(r[d : d + N]))),
                iterations=it,
                history=history,
            )
        # forward-difference Jacobian in the unknowns u = (m, eta)
        J = np.empty((d + N + 1, d + N))
        hstep = 1e-7
        for j in range(d + N):
            u = np.concatenate([m, eta])
            u[j] += hstep
            J[:, j] = (residuals(u[:d], u[d:]) - r) / hstep
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        m = m + step[:d]
        eta = _monotone_projection(eta + step[d:])
    raise NoConvergence(CENTER_OF_MASS_MAX_ITER, history[-1], history)


# ---------------------------------------------------------------------------
# asymptotic action, charge, pi-energy


@dataclass
class ActionCharge:
    action: float  # asymptotic action functional
    charge: float  # asymptotic charge functional
    pi_energy: float
    decay_claim_applies: bool  # charge must vanish for any decay claim


def action_charge(
    w_samples: np.ndarray,
    chart: ContactChart,
    R: float,
) -> ActionCharge:
    """Action, charge, and pi-energy of a cylinder map sampled on [0, R] x S^1.

    action = 1/2 int |d^pi w|^2 + int_{tau=0} w^* lam,
    charge = int_{tau=0} (w^* lam o j)  with  j d/dt = -d/dtau,
    pi_energy = 1/2 int |d^pi w|^2.

    Derivatives are centered finite differences (periodic in t of unit
    period, one-sided second order at the tau ends, so at least three
    tau-slices); the pi-part is measured with the coordinate norm.  The
    samples are lifted to the universal cover along tau, then along t.
    ``w_samples`` has shape (n_tau, n_t, chart.dim), else ModeMismatch; lam
    and the Reeb field come from one stacked ``reeb_solve`` over the whole
    grid.  Scenarios with nonvanishing charge are reported but carry no
    decay claim.
    """
    R = _require_real("R", R, 0)
    w_samples = _array("w_samples", w_samples)
    if w_samples.ndim != 3 or w_samples.shape[2] != chart.dim:
        raise ModeMismatch(
            f"need samples of shape (n_tau, n_t, {chart.dim}), got {w_samples.shape}"
        )
    n_tau, n_t, d = w_samples.shape
    if n_tau < 3:
        raise ModeMismatch(f"need at least three tau slices, got {n_tau}")
    sol = reeb_solve(chart, w_samples.reshape(-1, d))
    w = unwrap_angles(unwrap_angles(w_samples, chart.periods, axis=0), chart.periods, axis=1)
    dtau = R / (n_tau - 1)
    dt = 1.0 / n_t

    dw_tau = np.gradient(w, dtau, axis=0, edge_order=2)
    # centered t-derivative from wrapped forward steps (the lift may wind in
    # t, so a plain roll difference would jump at the seam)
    fwd = wrap_angles(np.roll(w, -1, axis=1) - w, chart.periods)
    dw_t = (fwd + np.roll(fwd, 1, axis=1)) / (2 * dt)
    L = sol.lam.reshape(w_samples.shape)
    X = sol.vector.reshape(w_samples.shape)
    lam_tau = _dots(L, dw_tau)
    lam_t = _dots(L, dw_t)
    pi_tau = dw_tau - lam_tau[..., None] * X
    pi_t = dw_t - lam_t[..., None] * X
    e_pi = _dots(pi_tau, pi_tau) + _dots(pi_t, pi_t)

    # periodic mean in t, trapezoid in tau
    tmean = np.mean(e_pi, axis=1)
    pi_energy = 0.5 * float(dtau * (0.5 * tmean[0] + np.sum(tmean[1:-1]) + 0.5 * tmean[-1]))
    boundary_action = float(np.mean(lam_t[0]))
    charge = -float(np.mean(lam_tau[0]))
    action = pi_energy + boundary_action
    return ActionCharge(
        action=action,
        charge=charge,
        pi_energy=pi_energy,
        decay_claim_applies=bool(abs(charge) <= 1e-8),
    )
