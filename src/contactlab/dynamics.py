"""Reeb flow integration, closed orbits, and linearized return maps."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .core import ContactChart, _gram_schmidt, reeb_solve, xi_frame, xi_projection_matrix
from .errors import LeftChartDomain, NoConvergence, OutOfRange, SingularChart

ORBIT_CLOSURE_TOL = 1e-8
# Step of the centred differences of the Reeb field.
REEB_JACOBIAN_STEP = 1e-5
# Every point closes up at T = 0, so a Newton period that falls below this
# fraction of the guess has collapsed onto that trivial solution.
MIN_PERIOD_FRACTION = 1e-3


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    max_reeb_residual: float

    @property
    def end(self) -> np.ndarray:
        return self.states[-1]


class _ReebRHS:
    """Right-hand side x' = X_lam(x) that records the worst defining-equation
    residual seen and enforces the chart domain."""

    def __init__(self, chart: ContactChart):
        self.chart = chart
        self.max_residual = 0.0

    def __call__(self, t, x):
        if not self.chart.contains(x):
            raise LeftChartDomain(f"{self.chart.name}: left domain at t={t:g}, x={x}")
        sol = reeb_solve(self.chart, x)
        if sol.residual > self.max_residual:
            self.max_residual = sol.residual
        return sol.vector


def _rk4(f, x0, T, steps):
    h = T / steps
    xs = np.empty((steps + 1, len(x0)))
    xs[0] = x0
    x = np.array(x0, dtype=float)
    t = 0.0
    for i in range(steps):
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        xs[i + 1] = x
    return np.linspace(0.0, T, steps + 1), xs


def flow(
    chart: ContactChart,
    x0,
    T: float,
    steps: int = 200,
    method: str = "rk45",
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the Reeb flow for time T from x0.

    ``method='rk45'`` uses adaptive RK45 at tight tolerances; ``'rk4'`` is a
    fixed-step integrator for bit-reproducible runs.
    """
    x0 = np.asarray(x0, dtype=float)
    rhs = _ReebRHS(chart)
    if T == 0:
        return Trajectory(np.array([0.0]), x0[None, :], 0.0)
    if method == "rk4":
        times, states = _rk4(rhs, x0, T, steps)
    else:
        t_eval = np.linspace(0.0, T, steps + 1)
        sol = solve_ivp(
            rhs, (0.0, T), x0, method="RK45", rtol=rtol, atol=atol, t_eval=t_eval, dense_output=False
        )
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")
        times, states = sol.t, sol.y.T
    for x in states[:: max(1, len(states) // 32)]:
        if not chart.contains(x):
            raise LeftChartDomain(f"{chart.name}: trajectory left domain")
    return Trajectory(times, states, rhs.max_residual)


def flow_point(chart, x0, T, **kw) -> np.ndarray:
    return flow(chart, x0, T, **kw).end


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


def monodromy(chart: ContactChart, x0, T, rtol=1e-10, atol=1e-12):
    """Integrate the variational equation; returns (endpoint, dphi^T(x0)).

    Raises LeftChartDomain when the trajectory leaves the chart domain.
    """
    x0 = np.asarray(x0, dtype=float)
    d = chart.dim

    def rhs(t, y):
        x = y[:d]
        if not chart.contains(x):
            raise LeftChartDomain(f"{chart.name}: left domain at t={t:g}, x={x}")
        X, A = _reeb_and_jacobian(chart, x)
        return np.concatenate([X, (A @ y[d:].reshape(d, d)).ravel()])

    y0 = np.concatenate([x0, np.eye(d).ravel()])
    sol = solve_ivp(rhs, (0.0, T), y0, method="RK45", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"variational integration failed: {sol.message}")
    yT = sol.y[:, -1]
    return yT[:d], yT[d:].reshape(d, d)


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
    (the continuation question for family scans).

    Raises NoConvergence, with the Newton residual history, when the period
    collapses below ``MIN_PERIOD_FRACTION * T_guess``.  Zero lattice offsets
    are not rejected: contractible orbits legitimately have them.
    """
    if not T_guess > 0:
        raise OutOfRange(f"T_guess must be positive, got {T_guess!r}")
    x0 = np.asarray(guess, dtype=float)
    S = _section_basis(chart, x0)
    if fix_point:
        S = np.zeros((chart.dim, 0))
    d = chart.dim
    offset = None
    if winding is not None:
        if chart.periods is None:
            raise ValueError("winding requires a chart with declared periods")
        offset = np.zeros(d)
        for i, (w, P) in enumerate(zip(winding, chart.periods)):
            if w:
                if P is None:
                    raise ValueError(f"coordinate {i} is not periodic")
                offset[i] = w * P

    c = np.zeros(S.shape[1])
    T = float(T_guess)
    history = []
    for it in range(max_iter):
        x = x0 + S @ c
        try:
            end, M = monodromy(chart, x, T)
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
        Jac = np.column_stack([(M @ S) - S, Xend])
        step, *_ = np.linalg.lstsq(Jac, -F, rcond=None)
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
    _, M = monodromy(chart, p, orbit.period)
    S = orbit.frame
    Psi = S.T @ (xi_projection_matrix(chart, p) @ (M @ S))
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
                rows.append(FamilySample(di, s, None, err.residual, False))
            except (SingularChart, LeftChartDomain):
                rows.append(FamilySample(di, s, None, np.inf, False))
    spread = float(max(abs(T - seed.period) for T in periods)) if periods else np.nan
    return FamilyScan(seed.period, rows, spread, sum(1 for r in rows if not r.converged))
