"""Exponential-decay machinery on model cylinders.

Contents: the discrete three-interval lemma and its growth factor, the model
linear evolution  d/dtau zeta + B zeta = L  on [0, R] x S^1 for a spectral
operator B (eigen-expansion and Crank-Nicolson solvers), log-linear decay
rate estimation, the center of mass of a loop near the Reeb locus, and the
asymptotic action / charge / pi-energy functionals of cylinder maps.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import ContactChart, reeb_solve
from .errors import (
    InsufficientDecay,
    ModeMismatch,
    NoConvergence,
    OutOfRange,
    OutsideTube,
    ResolutionTooCoarse,
)
from .spectral import SpectralOperator, _eigh

# ---------------------------------------------------------------------------
# three-interval lemma


def growth_factor(gamma: float) -> float:
    """Geometric factor (1 + sqrt(1 - 4 gamma^2)) / (2 gamma), gamma in (0, 1/2)."""
    if not 0.0 < gamma < 0.5:
        raise OutOfRange(f"gamma must lie strictly in (0, 1/2), got {gamma}")
    return (1.0 + math.sqrt(1.0 - 4.0 * gamma * gamma)) / (2.0 * gamma)


def gamma_of_c(c: float) -> float:
    """gamma(c) = 1/(e^c + e^-c); growth_factor(gamma(c)) = e^c."""
    if c <= 0:
        raise OutOfRange(f"c must be positive, got {c}")
    return 1.0 / (math.exp(c) + math.exp(-c))


@dataclass(frozen=True)
class IntervalSeq:
    """Nonnegative sequence with a three-interval coupling constant."""

    x: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if np.any(self.x < 0):
            raise OutOfRange("sequence entries must be nonnegative")
        if not 0.0 < self.gamma < 0.5:
            raise OutOfRange(f"gamma must lie strictly in (0, 1/2), got {self.gamma}")


@dataclass
class ThreeIntervalReport:
    hypothesis_holds: bool
    violations: np.ndarray  # interior indices where x_k > gamma (x_{k-1} + x_{k+1})
    bound: np.ndarray  # x_0 xi^-k + x_N xi^-(N-k)
    bound_holds: bool
    xi: float


def three_interval_bound(seq: IntervalSeq, slack: float = 1e-12) -> ThreeIntervalReport:
    """Check the hypothesis x_k <= gamma (x_{k-1} + x_{k+1}) and, where it
    holds, assert the geometric bound x_k <= x_0 xi^-k + x_N xi^-(N-k).

    The hypothesis is checked, not assumed; violating interior indices are
    returned as a diagnostic (the clusters of intervals that fail).
    """
    x = seq.x
    N = len(x) - 1
    xi = growth_factor(seq.gamma)
    scale = max(1.0, float(np.max(x)))
    interior = np.arange(1, N)
    lhs = x[interior]
    rhs = seq.gamma * (x[interior - 1] + x[interior + 1])
    violations = interior[lhs > rhs + slack * scale]
    k = np.arange(N + 1)
    bound = x[0] * xi ** (-k.astype(float)) + x[N] * xi ** (-(N - k).astype(float))
    hypothesis = violations.size == 0
    bound_holds = bool(hypothesis and np.all(x <= bound + slack * scale))
    return ThreeIntervalReport(hypothesis, violations, bound, bound_holds, xi)


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

    The profile is either grid samples (n_t, rank) or a dict mapping Galerkin
    eigenmode indices to amplitudes (resolved against the operator's
    eigenbasis at solve time).
    """

    delta0: float
    profile: Union[np.ndarray, dict, None] = None

    def __post_init__(self):
        if self.delta0 <= 0:
            raise OutOfRange("forcing decay rate delta0 must be positive")


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

    ``zeta0`` is either grid samples (len(op.t_grid), rank) on the operator's
    own grid or a coefficient vector in the operator's Galerkin basis; a grid
    forcing profile is sampled on the same grid, and a dict profile gives
    eigenmode amplitudes, for either method.  ``n_t`` (default: the operator
    grid) sets the output grid, on which every tau-slice is synthesized in
    one product.
    """
    n_t = n_t or len(op.t_grid)
    if n_t < 2 * op.n_modes + 2:
        raise ResolutionTooCoarse(
            f"n_t = {n_t} cannot carry {op.n_modes} Fourier modes"
        )
    if method not in ("eigen", "cn"):
        raise ValueError(f"unknown method {method!r}")
    tau = np.linspace(0.0, R, n_tau + 1)
    t = np.arange(n_t) * (op.period / n_t)

    zeta0 = np.asarray(zeta0, dtype=float)
    if zeta0.ndim == 2:
        c0 = op.coefficients_from_grid(zeta0)
    elif zeta0.shape == (op.dim,):
        c0 = zeta0
    else:
        raise ModeMismatch(f"zeta0 coefficients must have length {op.dim}")
    evals, evecs = _eigh(op, vectors=True)
    a0 = evecs.T @ c0
    # forcing amplitudes in eigen-coordinates (ascending-eigenvalue order)
    delta0, profile = (forcing.delta0, forcing.profile) if forcing is not None else (1.0, None)
    ell = np.zeros(op.dim)
    if isinstance(profile, dict):
        for idx, amp in profile.items():
            if not 0 <= int(idx) < op.dim:
                raise ModeMismatch(f"eigenmode index {idx} out of range")
            ell[int(idx)] = float(amp)
    elif profile is not None:
        ell = evecs.T @ op.coefficients_from_grid(profile)

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
    """Crank-Nicolson eigen-amplitudes (n_tau + 1, dim)."""
    from .spectral import assemble_operator

    dtau = tau[1] - tau[0]
    lam_max = float(np.max(np.abs(evals)))
    if dtau * lam_max >= 2.0:
        raise ResolutionTooCoarse(f"dtau = {dtau:g} too coarse for |lambda|_max = {lam_max:g}")
    ells = np.exp(-delta0 * tau)
    pos = evals >= 0
    neg = ~pos
    A = np.zeros((len(tau), len(evals)))
    A[0, pos] = a0[pos]

    if S_of_tau is None:
        # march stable modes forward and unstable modes backward from the
        # zero condition at tau = R, mirroring the eigen-expansion solver
        lp, gp = evals[pos], ell[pos]
        for m in range(len(tau) - 1):
            lbar = 0.5 * (ells[m] + ells[m + 1]) * gp
            A[m + 1, pos] = ((1 - 0.5 * dtau * lp) * A[m, pos] + dtau * lbar) / (
                1 + 0.5 * dtau * lp
            )
        ln, gn = evals[neg], ell[neg]
        for m in range(len(tau) - 2, -1, -1):
            lbar = 0.5 * (ells[m] + ells[m + 1]) * gn
            A[m, neg] = ((1 + 0.5 * dtau * ln) * A[m + 1, neg] - dtau * lbar) / (
                1 - 0.5 * dtau * ln
            )
        return A

    # tau-dependent coefficients: march restricted to the nonnegative
    # eigenspace of the initial operator.  A full forward march would
    # amplify roundoff seeded into the strongly negative modes, so the
    # decaying-solution selection here drops that subspace throughout
    # (exact when the stable/unstable splitting is tau-invariant).
    P = evecs[:, pos]
    y, gy = a0[pos], ell[pos]
    Ik = np.eye(len(y))

    def B_red(s):
        full = assemble_operator(
            S_of_tau(s), period=op.period, n_modes=op.n_modes, rank=op.rank,
            J0=op.J0, n_t=len(op.t_grid),
        ).matrix
        return P.T @ full @ P

    for m in range(len(tau) - 1):
        Bm = B_red(tau[m])
        Bp = B_red(tau[m + 1])
        rhs = (Ik - 0.5 * dtau * Bm) @ y + 0.5 * dtau * (ells[m] + ells[m + 1]) * gy
        y = np.linalg.solve(Ik + 0.5 * dtau * Bp, rhs)
        A[m + 1, pos] = y
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


def decay_rate(
    field: CylinderField,
    floor: float = 1e-12,
    upper_frac: float = 0.1,
    min_slices: int = 10,
) -> DecayFit:
    """Least-squares slope of log slice-norms.

    The fit window keeps slices with norm in (floor, upper_frac * initial),
    skipping the initial transient.  If the norms never drop below the
    transient threshold (the no-decay regime) the fit falls back to every
    slice above the floor; a window that is genuinely too short raises
    InsufficientDecay.
    """
    norms = field.slice_norms
    if norms[0] <= floor:
        raise InsufficientDecay("initial slice already below the floor")
    mask = (norms > floor) & (norms < upper_frac * norms[0])
    kind = "decay"
    if np.sum(mask) < min_slices:
        if np.all(norms > upper_frac * norms[0]):
            mask = norms > floor
            kind = "full"
        if np.sum(mask) < min_slices:
            raise InsufficientDecay(
                f"only {int(np.sum(mask))} usable slices (need {min_slices})"
            )
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
    flow is unit translation in coordinate 0, and exp is affine."""

    def __init__(self, dim: int = 2, periods: Optional[Sequence[float]] = None):
        self.dim = dim
        self.periods = np.array(periods if periods is not None else [1.0] * dim, dtype=float)

    def wrap(self, v):
        return (np.asarray(v, dtype=float) + self.periods / 2.0) % self.periods - self.periods / 2.0

    def flow(self, q, s):
        q = np.array(q, dtype=float)
        q[..., 0] += s
        return q

    def flow_diff(self, s) -> np.ndarray:
        return np.eye(self.dim)

    def inv_exp(self, x, y) -> np.ndarray:
        """E(x, y) = exp_x^{-1}(y): the wrapped difference on a flat torus."""
        return self.wrap(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

    def theta(self, m) -> np.ndarray:
        e = np.zeros(self.dim)
        e[0] = 1.0
        return e


class RotatingTubeQ:
    """Morse-Bott locus of the weighted tube: circle direction plus a fiber
    plane that the flow differential rotates with angular speed w_fiber."""

    def __init__(self, w_theta: float, w_fiber: float):
        self.dim = 3
        self.w_fiber = float(w_fiber)
        self.periods = np.array([2 * np.pi / w_theta, np.inf, np.inf])

    def wrap(self, v):
        v = np.asarray(v, dtype=float).copy()
        P = self.periods[0]
        v[..., 0] = (v[..., 0] + P / 2.0) % P - P / 2.0
        return v

    def flow(self, q, s):
        from .models import weighted_tube_flow

        return weighted_tube_flow(self.w_fiber, q, s)

    def flow_diff(self, s) -> np.ndarray:
        cs, sn = np.cos(self.w_fiber * s), np.sin(self.w_fiber * s)
        M = np.eye(3)
        M[1, 1] = cs
        M[1, 2] = sn
        M[2, 1] = -sn
        M[2, 2] = cs
        return M

    def inv_exp(self, x, y) -> np.ndarray:
        return self.wrap(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

    def theta(self, m) -> np.ndarray:
        # lam at the zero fiber: d theta
        return np.array([1.0, 0.0, 0.0])


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
    delta_tube: float = 0.25,
    tol: float = 1e-9,
    max_iter: int = 30,
    reference=None,
) -> CenterOfMassResult:
    """Center of mass m and reparametrization h of a loop near the Reeb locus.

    Solves the averaged inverse-exponential system: the mean of
    E(m, phi^{-T h(t)} gamma(t)) vanishes and each E(...) lies in the contact
    hyperplane at m, with the mean of h - id pinned to zero to fix the gauge
    freedom along the orbit direction.

    The tube precondition measures the C^0 distance between the loop and the
    period-T orbit through ``reference`` (default: the loop's own base
    point); beyond ``delta_tube`` the solve refuses with OutsideTube.
    """
    gamma = np.asarray(gamma, dtype=float)
    N, d = gamma.shape
    if d != model.dim:
        raise ModeMismatch(f"loop lives in R^{d}, model has dim {model.dim}")
    ts = np.arange(N) / N

    m = gamma[0].copy()
    eta = np.zeros(N)

    def tube_distance(m0):
        worst = 0.0
        for i in range(N):
            E = model.inv_exp(m0, model.flow(gamma[i], -T * ts[i]))
            worst = max(worst, float(np.linalg.norm(E)))
        return worst

    anchor = gamma[0] if reference is None else np.asarray(reference, dtype=float)
    dist = tube_distance(anchor)
    if dist > delta_tube:
        raise OutsideTube(
            f"loop deviates {dist:.3g} from the reference orbit "
            f"(tube radius {delta_tube:g})"
        )

    def residuals(m, eta):
        E = np.empty((N, d))
        for i in range(N):
            h_i = ts[i] + eta[i]
            E[i] = model.inv_exp(m, model.flow(gamma[i], -T * h_i))
        r_mean = E.mean(axis=0)
        r_xi = np.array([float(model.theta(m) @ E[i]) for i in range(N)])
        r_gauge = np.array([eta.mean()])
        return np.concatenate([r_mean, r_xi, r_gauge]), E

    history = []
    for it in range(max_iter):
        r, E = residuals(m, eta)
        res = float(np.max(np.abs(r)))
        history.append(res)
        if res < tol:
            return CenterOfMassResult(
                m=m,
                h=ts + eta,
                residual_mean=float(np.linalg.norm(r[:d])),
                residual_xi=float(np.max(np.abs(r[d : d + N]))),
                iterations=it,
                history=history,
            )
        # forward-difference Jacobian in (m, eta)
        n_unk = d + N
        J = np.empty((d + N + 1, n_unk))
        hstep = 1e-7
        for j in range(d):
            dm = m.copy()
            dm[j] += hstep
            rj, _ = residuals(dm, eta)
            J[:, j] = (rj - r) / hstep
        for j in range(N):
            de = eta.copy()
            de[j] += hstep
            rj, _ = residuals(m, de)
            J[:, d + j] = (rj - r) / hstep
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        m = m + step[:d]
        eta = _monotone_projection(eta + step[d:])
    raise NoConvergence(max_iter, history[-1], history)


def mean_zero_check(model, zeta_samples: np.ndarray, T: float) -> np.ndarray:
    """Quadrature of the flow-pullback average of a section along the orbit.

    Computes the mean over t of (d phi^{T t})^{-1} zeta(t); for a
    flow-pushforward section this returns the generating vector, and the
    kernel-exclusion argument needs the value to vanish.
    """
    zeta_samples = np.asarray(zeta_samples, dtype=float)
    N = zeta_samples.shape[0]
    ts = np.arange(N) / N
    acc = np.zeros(zeta_samples.shape[1])
    for i in range(N):
        Minv = np.linalg.inv(model.flow_diff(T * ts[i]))
        acc += Minv @ zeta_samples[i]
    return acc / N


# ---------------------------------------------------------------------------
# asymptotic action, charge, pi-energy


@dataclass
class ActionCharge:
    action: float  # asymptotic action functional
    charge: float  # asymptotic charge functional
    pi_energy: float
    decay_claim_applies: bool  # charge must vanish for any decay claim


def _unwrap_grid(chart: ContactChart, w: np.ndarray) -> np.ndarray:
    """Lift grid samples of a cylinder map to continuous representatives."""
    w = np.array(w, dtype=float)
    if chart.periods is None:
        return w
    for i, P in enumerate(chart.periods):
        if P is None:
            continue
        for axis in (0, 1):
            d = np.diff(w[..., i], axis=axis)
            d = (d + P / 2.0) % P - P / 2.0
            first = np.take(w[..., i], [0], axis=axis)
            w[..., i] = np.concatenate([first, first + np.cumsum(d, axis=axis)], axis=axis)
    return w


def action_charge(
    w_samples: np.ndarray,
    chart: ContactChart,
    R: float,
    J=None,
) -> ActionCharge:
    """Action, charge, and pi-energy of a cylinder map sampled on [0, R] x S^1.

    action = 1/2 int |d^pi w|^2 + int_{tau=0} w^* lam,
    charge = int_{tau=0} (w^* lam o j)  with  j d/dt = -d/dtau,
    pi_energy = 1/2 int |d^pi w|^2.

    Derivatives are centered finite differences (periodic in t of unit
    period, one-sided at the tau ends); the pi-part is measured with the
    triad metric when J is given, else with the coordinate norm.  Scenarios
    with nonvanishing charge are reported but carry no decay claim.
    """
    w_samples = np.asarray(w_samples, dtype=float)
    w = _unwrap_grid(chart, w_samples)
    n_tau, n_t, d = w.shape
    if n_tau < 2:
        raise ModeMismatch("need at least two tau slices")
    dtau = R / (n_tau - 1)
    dt = 1.0 / n_t

    dw_tau = np.gradient(w, dtau, axis=0, edge_order=2)
    # centered t-derivative from wrapped forward steps (the lift may wind in
    # t, so a plain roll difference would jump at the seam)
    fwd = np.roll(w, -1, axis=1) - w
    if chart.periods is not None:
        for i, P in enumerate(chart.periods):
            if P is not None:
                fwd[..., i] = (fwd[..., i] + P / 2.0) % P - P / 2.0
    dw_t = (fwd + np.roll(fwd, 1, axis=1)) / (2 * dt)

    lam_tau = np.empty((n_tau, n_t))
    lam_t = np.empty((n_tau, n_t))
    e_pi = np.empty((n_tau, n_t))
    for i in range(n_tau):
        for j in range(n_t):
            x = w_samples[i, j]
            L = chart.lambda_at(x)
            sol = reeb_solve(chart, x)
            X = sol.vector
            lam_tau[i, j] = float(L @ dw_tau[i, j])
            lam_t[i, j] = float(L @ dw_t[i, j])
            pi_tau = dw_tau[i, j] - lam_tau[i, j] * X
            pi_t = dw_t[i, j] - lam_t[i, j] * X
            if J is not None:
                Jm = J(x) if callable(J) else np.asarray(J, dtype=float)
                D = chart.dlambda_at(x)
                G = D @ Jm
                G = 0.5 * (G + G.T)
                e_pi[i, j] = float(pi_tau @ G @ pi_tau + pi_t @ G @ pi_t)
            else:
                e_pi[i, j] = float(pi_tau @ pi_tau + pi_t @ pi_t)

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
