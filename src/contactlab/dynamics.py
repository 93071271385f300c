"""Reeb flow integration, closed orbits, and linearized return maps."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .core import ContactChart, _gram_schmidt, reeb_solve, xi_frame, xi_projection_matrix
from .errors import LeftChartDomain, NoConvergence, OutOfRange, SingularChart

ORBIT_CLOSURE_TOL = 1e-8
# Relative and absolute tolerances of the adaptive RK45 integrator.
RTOL = 1e-10
ATOL = 1e-12
# Step of the centred differences of the Reeb field.
REEB_JACOBIAN_STEP = 1e-5
# Every point closes up at T = 0, so a Newton period that falls below this
# fraction of the guess has collapsed onto that trivial solution.
MIN_PERIOD_FRACTION = 1e-3
# The minimum-norm least-squares step -pinv(J) F vanishes exactly where
# J^T F = 0, a stationary point of |F|^2 / 2 (Dennis & Schnabel, "Numerical
# Methods for Unconstrained Optimization", ch. 10): Gauss-Newton has stalled
# there and repeats the same shot.  A step this small relative to the
# unknowns (section coordinates and the period) changes the shot by less than
# the 1e-10 integrator tolerance resolves, so it cannot reduce F.
STALL_STEP = 1e-12


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    max_reeb_residual: float

    @property
    def end(self) -> np.ndarray:
        return self.states[-1]


def _reeb_and_jacobian(chart: ContactChart, x):
    """Reeb field at x and its Jacobian by centred differences, both from one
    batched solve over x and its 2d stencil points."""
    from .core import reeb_batch

    d = chart.dim
    h = REEB_JACOBIAN_STEP
    j = np.arange(d)
    pts = np.tile(x, (2 * d + 1, 1))
    pts[1 + 2 * j, j] += h
    pts[2 + 2 * j, j] -= h
    vals = reeb_batch(chart, pts)
    return vals[0], ((vals[1::2] - vals[2::2]) / (2 * h)).T


def reeb_jacobian(chart: ContactChart, x) -> np.ndarray:
    """Jacobian of the Reeb field by centered differences (batched solves)."""
    return _reeb_and_jacobian(chart, np.asarray(x, dtype=float))[1]


def _integrate(chart: ContactChart, x0, T, V, t_eval=None):
    """Integrate x' = X_lam(x) with the variations Y' = DX_lam(x) Y, Y(0) = V.

    One adaptive RK45 run over [0, T] of the state [x, Y] with ``V`` of shape
    (d, k).  Every right-hand side checks the chart domain.  With k = 0 it is
    one Reeb solve, whose worst defining-equation residual is tracked; with
    k > 0 it is one batched solve for the field and its Jacobian.  Returns
    (times, states, max_residual); each state row is [x, Y.ravel()] and
    max_residual stays 0 when k > 0.
    """
    d, k = V.shape
    max_residual = 0.0

    def rhs(t, y):
        nonlocal max_residual
        x = y[:d]
        if not chart.contains(x):
            raise LeftChartDomain(f"{chart.name}: left domain at t={t:g}, x={x}")
        if k == 0:
            sol = reeb_solve(chart, x)
            max_residual = max(max_residual, sol.residual)
            return sol.vector
        X, A = _reeb_and_jacobian(chart, x)
        return np.concatenate([X, (A @ y[d:].reshape(d, k)).ravel()])

    y0 = np.concatenate([x0, V.ravel()])
    sol = solve_ivp(rhs, (0.0, T), y0, method="RK45", rtol=RTOL, atol=ATOL, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol.t, sol.y.T, max_residual


def flow(chart: ContactChart, x0, T: float, steps: int = 200) -> Trajectory:
    """Integrate the Reeb flow for time T from x0, sampled at steps + 1 equally
    spaced times.

    Raises LeftChartDomain when the trajectory leaves the chart domain.
    """
    x0 = np.asarray(x0, dtype=float)
    if T == 0:
        return Trajectory(np.array([0.0]), x0[None, :], 0.0)
    times, states, max_residual = _integrate(
        chart, x0, T, np.zeros((len(x0), 0)), t_eval=np.linspace(0.0, T, steps + 1)
    )
    return Trajectory(times, states, max_residual)


def monodromy(chart: ContactChart, x0, T, V=None):
    """Flow x0 for time T along with the variations V; returns
    (endpoint, dphi^T(x0) @ V).

    ``V`` (d x k, default the identity, so the full dphi^T(x0)) holds the
    tangent vectors to carry; only those k columns are integrated, and with
    k = 0 the run is the flow alone.  Raises LeftChartDomain when the
    trajectory leaves the chart domain.
    """
    x0 = np.asarray(x0, dtype=float)
    d = chart.dim
    V = np.eye(d) if V is None else np.asarray(V, dtype=float)
    _, states, _ = _integrate(chart, x0, T, V)
    return states[-1, :d], states[-1, d:].reshape(V.shape)


@dataclass
class ReebOrbit:
    """A numerically closed Reeb orbit.

    ``samples[i]`` is the point at loop parameter t = i/len(samples); the
    frame columns span the contact distribution at the base point.
    """

    chart: ContactChart
    period: float
    samples: np.ndarray
    base_point: np.ndarray
    frame: np.ndarray
    closure_residual: float

    @classmethod
    def from_point(cls, chart, p, T, n_samples: int = 256, tol: float = ORBIT_CLOSURE_TOL):
        traj = flow(chart, p, T, steps=n_samples)
        closure = float(np.max(np.abs(chart.wrap_diff(traj.end, p))))
        if closure > tol:
            raise NoConvergence(0, closure)
        return cls(
            chart=chart,
            period=float(T),
            samples=traj.states[:-1],
            base_point=np.asarray(p, dtype=float),
            frame=xi_frame(chart, p),
            closure_residual=closure,
        )

    def unwrapped_samples(self) -> np.ndarray:
        """Samples lifted to the universal cover (continuous in each angle)."""
        z = self.samples.copy()
        if self.chart.periods is not None:
            for i, P in enumerate(self.chart.periods):
                if P is not None:
                    steps = np.diff(z[:, i])
                    steps = (steps + P / 2.0) % P - P / 2.0
                    z[1:, i] = z[0, i] + np.cumsum(steps)
        return z

    def action(self) -> float:
        """Integral of the contact form over the loop, by spectral differentiation.

        Independent of the integrator's right-hand side; for a Reeb
        parametrization this equals the period.
        """
        z = self.unwrapped_samples()
        N = len(z)
        closing = self.chart.wrap_diff(self.samples[0], z[-1] if N else self.samples[0])
        delta = (z[-1] + closing) - z[0] if N else 0.0
        # remove the winding so the remainder is a genuine loop
        ts = np.arange(N) / N
        r = z - np.outer(ts, delta)
        freqs = 2j * np.pi * np.fft.fftfreq(N, d=1.0 / N)
        dr = np.real(np.fft.ifft(freqs[:, None] * np.fft.fft(r, axis=0), axis=0))
        dz = dr + delta[None, :]
        vals = [float(self.chart.lambda_at(zi) @ dzi) for zi, dzi in zip(self.samples, dz)]
        return float(np.mean(vals))


def _section_basis(chart, x0) -> np.ndarray:
    """Orthonormal basis of the hyperplane through x0 orthogonal to X_lam(x0)."""
    X = reeb_solve(chart, x0).vector
    X = X / np.linalg.norm(X)
    return _gram_schmidt(np.eye(chart.dim) - np.outer(X, X), chart.dim - 1, 1e-8)


def find_closed_orbit(
    chart: ContactChart,
    guess,
    T_guess: float,
    winding: Optional[Sequence] = None,
    tol: float = ORBIT_CLOSURE_TOL,
    max_iter: int = 25,
    n_samples: int = 256,
    fix_point: bool = False,
) -> ReebOrbit:
    """Shooting Newton for a closed Reeb orbit near (guess, T_guess).

    The point unknown lives on the hyperplane through the guess transverse to
    the Reeb direction; the period is the remaining unknown.  ``winding``
    optionally prescribes how many period cells the orbit must traverse per
    angular coordinate; when omitted, the lattice offset is locked in from
    the first shot.  Newton steps are minimum-norm, so Morse-Bott families
    (rank-deficient transverse Jacobians) converge to some orbit of the
    family.

    With ``fix_point`` the base point is frozen and only the period is
    adjusted, which asks whether the guess itself lies on a closed orbit
    (the continuation question for family scans).  Each Newton step makes
    one ``monodromy`` call that carries only the section basis, so this path
    (no section columns) integrates the flow alone.

    Raises NoConvergence, with the Newton residual history, when the period
    collapses below ``MIN_PERIOD_FRACTION * T_guess``, when the Gauss-Newton
    step stalls (see ``STALL_STEP``), or after ``max_iter`` steps.  Zero
    lattice offsets are not rejected: contractible orbits legitimately have
    them.  Raises OutOfRange for a non-positive ``T_guess`` and for a
    ``winding`` the chart's periods cannot carry.
    """
    if not T_guess > 0:
        raise OutOfRange(f"T_guess must be positive, got {T_guess!r}")
    x0 = np.asarray(guess, dtype=float)
    d = chart.dim
    S = np.zeros((d, 0)) if fix_point else _section_basis(chart, x0)
    offset = None
    if winding is not None:
        if chart.periods is None:
            raise OutOfRange(f"{chart.name}: winding requires a chart with declared periods")
        offset = np.zeros(d)
        for i, (w, P) in enumerate(zip(winding, chart.periods)):
            if w:
                if P is None:
                    raise OutOfRange(f"{chart.name}: winding {w} on coordinate {i}, which is not periodic")
                offset[i] = w * P

    c = np.zeros(S.shape[1])
    T = float(T_guess)
    history = []
    for it in range(max_iter):
        x = x0 + S @ c
        try:
            end, MS = monodromy(chart, x, T, S)
        except LeftChartDomain:
            raise NoConvergence(it, np.inf, history)
        raw = end - x
        if offset is None:
            offset = np.zeros(d)
            if chart.periods is not None:
                for i, P in enumerate(chart.periods):
                    if P is not None:
                        offset[i] = round(raw[i] / P) * P
        F = raw - offset
        res = float(np.max(np.abs(F)))
        history.append(res)
        if res < tol:
            orbit_T = T
            return ReebOrbit.from_point(chart, x, orbit_T, n_samples=n_samples, tol=10 * tol)
        Xend = reeb_solve(chart, end).vector
        Jac = np.column_stack([MS - S, Xend])
        step, *_ = np.linalg.lstsq(Jac, -F, rcond=None)
        if np.max(np.abs(step)) <= STALL_STEP * (1.0 + abs(T)):
            raise NoConvergence(it + 1, res, history)
        c = c + step[:-1]
        T = T + step[-1]
        if T <= MIN_PERIOD_FRACTION * T_guess:
            raise NoConvergence(it + 1, res, history)
    raise NoConvergence(max_iter, history[-1], history)


@dataclass
class ReturnMap:
    """Linearized Poincare return map restricted to the contact distribution."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    unit_eigen_dim: int
    symplectic_form: np.ndarray
    symplectic_error: float


def return_map(chart: ContactChart, orbit: ReebOrbit, unit_tol: float = 1e-6) -> ReturnMap:
    """Monodromy of the variational flow projected to the xi-frame at the base."""
    p = orbit.base_point
    S = orbit.frame
    _, MS = monodromy(chart, p, orbit.period, S)
    Psi = S.T @ (xi_projection_matrix(chart, p) @ MS)
    D = chart.dlambda_at(p)
    Omega0 = S.T @ D @ S
    sperr = float(np.max(np.abs(Psi.T @ Omega0 @ Psi - Omega0)))
    eig = np.linalg.eigvals(Psi)
    unit_dim = int(np.sum(np.abs(eig - 1.0) <= unit_tol))
    return ReturnMap(Psi, eig, unit_dim, Omega0, sperr)


@dataclass(frozen=True)
class Nondegenerate:
    distance_to_one: float


@dataclass(frozen=True)
class MorseBottCandidate:
    multiplicity: int


def classify_orbit(rm: ReturnMap, tol: float = 1e-6):
    """Nondegenerate iff no return-map eigenvalue lies within tol of 1."""
    dist = np.abs(rm.eigenvalues - 1.0)
    k = int(np.sum(dist <= tol))
    if k == 0:
        return Nondegenerate(float(np.min(dist)))
    return MorseBottCandidate(k)


@dataclass
class FamilySample:
    direction: int
    offset: float
    period: Optional[float]
    residual: float
    converged: bool
    history: tuple = ()  # Newton residuals of a sample that did not converge


@dataclass
class FamilyScan:
    seed_period: float
    samples: list
    period_spread: float
    n_failed: int


def orbit_family_scan(
    chart: ContactChart,
    seed: ReebOrbit,
    directions: Sequence,
    n_samples: int = 5,
    step: float = 0.05,
    winding: Optional[Sequence] = None,
) -> FamilyScan:
    """Continue the seed orbit in transverse directions and track periods.

    Failures at individual samples (no convergence, a singular chart, a
    trajectory leaving the chart) are recorded per sample, not raised; the
    spread max|T_i - T_seed| is taken over the converged samples.
    """
    rows = []
    periods = []
    for di, direc in enumerate(directions):
        direc = np.asarray(direc, dtype=float)
        for i in range(1, n_samples + 1):
            s = step * i
            guess = seed.base_point + s * direc
            try:
                orb = find_closed_orbit(
                    chart, guess, seed.period, winding=winding, fix_point=True
                )
                rows.append(FamilySample(di, s, orb.period, orb.closure_residual, True))
                periods.append(orb.period)
            except NoConvergence as err:
                rows.append(FamilySample(di, s, None, err.residual, False, tuple(err.history)))
            except (SingularChart, LeftChartDomain):
                rows.append(FamilySample(di, s, None, np.inf, False))
    spread = float(max(abs(T - seed.period) for T in periods)) if periods else np.nan
    return FamilyScan(seed.period, rows, spread, sum(1 for r in rows if not r.converged))
