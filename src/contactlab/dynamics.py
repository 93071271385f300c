"""Reeb flow integration, closed orbits, and linearized return maps."""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _dop853
from .core import ContactChart, _angle_columns, _array, _loop_axis, _points, _record, _require_int, _require_real
from .core import _singular_values, _xi_frames, _xi_projection, periodic_derivative, reeb_batch, reeb_solve
from .core import standard_J, unwrap_angles, xi_frame
from .errors import ModeMismatch, NoConvergence, OutOfRange, SingularChart

# An orbit closes when the flow returns within this distance of its start.
ORBIT_CLOSURE_TOL = 1e-8
# Samples per period of a computed orbit.
ORBIT_SAMPLES = 256
# Relative and absolute tolerances of the adaptive integrator, the lab's own
# 8th-order Dormand-Prince pair DOP853 (``_dop853``, ported from scipy 1.17.1;
# Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I", sec.
# II.10): at these tolerances it takes about a quarter of the right-hand sides
# of a 5th-order pair.
RTOL = 1e-10
ATOL = 1e-12
# Step of the centred differences of the Reeb field along a unit direction.
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
# Newton steps of ``find_closed_orbit`` before it gives up.
MAX_NEWTON_STEPS = 25
# A singular value of Psi - I at most this counts one unit direction of the
# return map Psi, a fixed direction of the linearized flow.
UNIT_TOL = 1e-6


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    max_reeb_residual: float

    @property
    def end(self) -> np.ndarray:
        return self.states[-1]


def _reeb_along(chart: ContactChart, x, Y):
    """(X, DX . Y) at x from one ``reeb_batch`` over the 2k + 1 points x and
    x +- h u_j, u_j = y_j / |y_j| for the k columns y_j of Y, h =
    ``REEB_JACOBIAN_STEP``: DX . y_j = |y_j| (X(x + h u_j) - X(x - h u_j)) / 2h,
    so the step is that of a unit column whatever |y_j|; 0 for y_j = 0."""
    k = Y.shape[1]
    norms = [math.hypot(*y) for y in Y.T.tolist()]
    hU = (REEB_JACOBIAN_STEP * (Y / [r or 1.0 for r in norms])).T
    pts = np.empty((2 * k + 1, len(x)))
    pts[0] = x
    np.add(x, hU, out=pts[1 : k + 1])
    np.subtract(x, hU, out=pts[k + 1 :])
    vals = reeb_batch(chart, pts)
    return vals[0], (vals[1 : k + 1] - vals[k + 1 :]).T * norms / (2 * REEB_JACOBIAN_STEP)


def _integrate(chart: ContactChart, x0, T, V, t_eval=None):
    """Integrate x' = X_lam(x) with the variations Y' = DX_lam(x) Y, Y(0) = V.

    One adaptive run of the lab's own DOP853 (``_dop853``, the 8th-order
    Dormand-Prince pair ported from scipy 1.17.1, see RTOL) over [0, T] of the
    state [x, Y] with ``V`` of shape (d, k).  With k = 0 each right-hand side
    is one Reeb solve, whose worst defining-equation residual is tracked; with
    k > 0 it is ``_reeb_along``, one batched solve over 2k + 1 points for the
    field and its derivative along the k carried columns.  Returns (times,
    states, max_residual); each state row is [x, Y.ravel()] and max_residual
    stays 0 when k > 0; OutOfRange, naming the time reached, when the step
    size underflows before T.
    """
    d, k = V.shape
    max_residual = 0.0

    def rhs(y):
        nonlocal max_residual
        x = y[:d]
        if k == 0:
            sol = reeb_solve(chart, x)
            max_residual = max(max_residual, sol.residual)
            return sol.vector
        X, DXY = _reeb_along(chart, x, y[d:].reshape(d, k))
        return np.concatenate([X, DXY.ravel()])

    y0 = np.concatenate([x0, V.ravel()])
    try:
        times, states = _dop853.solve(rhs, y0, T, RTOL, ATOL, t_eval)
    except _dop853.StepSizeUnderflow as stop:
        raise OutOfRange(f"{chart.name}: the integration stopped at t = {float(stop.t)!r} of {T!r}: {stop}") from None
    return times, states, max_residual


def flow(chart: ContactChart, x0, T: float, steps: int = 200) -> Trajectory:
    """Integrate the Reeb flow for time T from x0, sampled at steps + 1 equally
    spaced times.

    Raises OutOfRange for steps < 1, which would stop the samples at t = 0.
    """
    _require_int("steps", steps, 1)
    T = _require_real("T", T)
    x0 = _points(chart.dim, x0, stack=False, name="x0")[0]
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
    k = 0 the run is the flow alone.
    """
    T = _require_real("T", T)
    x0 = _points(chart.dim, x0, stack=False, name="x0")[0]
    d = chart.dim
    V = np.eye(d) if V is None else _array("V", V)
    if V.shape != (d, 0):  # the k tangent vectors, one row each
        V = _points(d, V.T, point=False, name="V.T")[0].T
    _, states, _ = _integrate(chart, x0, T, V)
    return states[-1, :d], states[-1, d:].reshape(V.shape)


@dataclass
class ReebOrbit:
    """A numerically closed Reeb orbit of ``chart``: what the flow computed.

    ``samples[i]`` is the point at loop parameter t = i/len(samples), so
    ``samples[0]`` is the start point of the flow, the base point.
    """

    chart: ContactChart
    period: float
    samples: np.ndarray
    closure_residual: float

    @property
    def base_point(self) -> np.ndarray:
        return self.samples[0]

    @classmethod
    def from_point(cls, chart, p, T, n_samples: int = ORBIT_SAMPLES):
        """The orbit through p of period T, sampled at n_samples points.

        Raises OutOfRange unless T > 0 (every point closes up at T = 0) and
        NoConvergence when the flow misses p at time T by more than
        ``ORBIT_CLOSURE_TOL``.
        """
        T = _require_real("T", T, 0)
        return cls._closed(chart, p, T, flow(chart, p, T, steps=n_samples), ORBIT_CLOSURE_TOL)

    @classmethod
    def _closed(cls, chart, p, T, traj: Trajectory, tol: float, history=()):
        """The orbit sampled by ``traj``, the flow of p for time T, after its
        closure check: NoConvergence when the end misses p by more than tol,
        after the len(history) Newton shots whose residuals ``history`` holds."""
        closure = float(np.max(np.abs(chart.wrap_diff(traj.end, p))))
        if closure > tol:
            raise NoConvergence(len(history), closure, history)
        return cls(chart=chart, period=float(T), samples=traj.states[:-1], closure_residual=closure)

    def action(self) -> float:
        """Integral of the contact form over the loop, by spectral differentiation.

        Independent of the integrator's right-hand side; for a Reeb
        parametrization this equals the period.
        """
        z = unwrap_angles(self.samples, self.chart.periods)
        N = len(z)
        delta = (z[-1] + self.chart.wrap_diff(self.samples[0], z[-1])) - z[0]
        # remove the winding so the remainder is a genuine loop
        ts = np.arange(N) / N
        dz = periodic_derivative(z - np.outer(ts, delta), 1.0) + delta[None, :]
        vals = [float(self.chart.lambda_at(zi) @ dzi) for zi, dzi in zip(self.samples, dz)]
        return float(np.mean(vals))


def find_closed_orbit(
    chart: ContactChart,
    guess,
    T_guess: float,
    fix_point: bool = False,
) -> ReebOrbit:
    """Shooting Newton for a closed Reeb orbit near (guess, T_guess).

    The point unknown lives on the contact plane xi through the guess,
    spanned by its dlam-symplectic ``xi_frame``, transverse to the Reeb
    direction as lam(X) = 1; the period is the remaining unknown.  The orbit
    closes in the period cell of the first shot: its lattice offset on the
    angle coordinates is locked in there.  Newton steps are minimum-norm in
    the frame's coordinates, so Morse-Bott families (rank-deficient
    transverse Jacobians) converge to the orbit of the family the frame
    picks.  A shot closes when it misses its start by
    less than ``ORBIT_CLOSURE_TOL``, and the orbit is sampled at
    ``ORBIT_SAMPLES`` points.

    With ``fix_point`` the base point is frozen and only the period is
    adjusted, which asks whether the guess itself lies on a closed orbit
    (the continuation question for family scans).

    Each orbit is flown once where it can be.  The first free-point shot is
    one ``monodromy`` call that carries only the xi-frame.  Every later one
    first flies the plain ``flow``, sampled at ``ORBIT_SAMPLES`` points: if
    it closes it is the returned orbit, and only a point that misses pays
    for the ``monodromy`` shot that gives Newton its Jacobian (if that shot
    closes, the flow just flown is the orbit).  With ``fix_point`` x never
    moves, so the first shot is one sampled ``flow``, the orbit if it
    closes, and each later shot flies the previous shot's end on for
    T - T_last; a continued shot that closes is sampled by one ``flow`` of x
    for T.  A returned orbit is that sampled flow, closed to within
    ``10 * ORBIT_CLOSURE_TOL`` (else NoConvergence with the Newton history).

    Raises NoConvergence, with the Newton residual history, when the period
    collapses below ``MIN_PERIOD_FRACTION * T_guess``, when the Gauss-Newton
    step stalls (see ``STALL_STEP``), or after ``MAX_NEWTON_STEPS`` steps.
    Zero lattice offsets are not rejected: contractible orbits legitimately
    have them.  Raises OutOfRange for a non-positive ``T_guess``.
    """
    T_guess = _require_real("T_guess", T_guess, 0)
    x0 = _points(chart.dim, guess, stack=False, name="guess")[0]
    d = chart.dim
    S = np.zeros((d, 0)) if fix_point else xi_frame(chart, x0)
    c = np.zeros(S.shape[1])
    T = T_guess
    history = []
    for it in range(MAX_NEWTON_STEPS):
        x = x0 + S @ c
        traj, MS = None, S
        if fix_point and it:  # x never moves: fly the last shot's end on to T
            end = _integrate(chart, end, T - T_last, S)[1][-1]
        elif fix_point or it:  # the sampled flow first, which is the orbit if it closes
            traj = flow(chart, x, T, steps=ORBIT_SAMPLES)
            end = traj.end
        if not fix_point and (it == 0 or not np.max(np.abs(end - x - offset)) < ORBIT_CLOSURE_TOL):
            end, MS = monodromy(chart, x, T, S)  # only a shot that misses pays for the variations
        raw = end - x
        if it == 0:  # the lattice offset of the first shot, kept for every later one
            cols, P = _angle_columns(chart.periods)
            offset = np.zeros(d)
            offset[cols] = np.round(raw[cols] / P) * P
        F = raw - offset
        res = float(np.max(np.abs(F)))
        history.append(res)
        if res < ORBIT_CLOSURE_TOL:
            if traj is None:  # a first free-point shot or a continued one: sample the orbit
                traj = flow(chart, x, T, steps=ORBIT_SAMPLES)
            return ReebOrbit._closed(chart, x, T, traj, 10 * ORBIT_CLOSURE_TOL, history)
        Xend = reeb_solve(chart, end).vector
        Jac = np.column_stack([MS - S, Xend])
        step, *_ = np.linalg.lstsq(Jac, -F, rcond=None)
        if np.max(np.abs(step)) <= STALL_STEP * (1.0 + abs(T)):
            raise NoConvergence(it + 1, res, history)
        c = c + step[:-1]
        T_last, T = T, T + step[-1]
        if T <= MIN_PERIOD_FRACTION * T_guess:
            raise NoConvergence(it + 1, res, history)
    raise NoConvergence(MAX_NEWTON_STEPS, history[-1], history)


@dataclass
class ReturnMap:
    """Linearized return map on xi, in the asymptotic operator's frame: its period map."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    unit_eigen_dim: int
    symplectic_error: float  # max |Psi^T Omega0 Psi - Omega0|, Omega0 = dlam in the frame


def return_map(orbit: ReebOrbit) -> ReturnMap:
    """Monodromy Psi = J0 F^T dlam dphi^T F of the variational flow of
    ``orbit.chart``, the frame coordinates (``core._xi_frames``) of the pushed
    F that ``asymptotic_operator`` takes at the base point (the orbit's
    ``_loop_axis``; OutOfRange for n = 0), so Psi is that operator's period
    map; ``unit_eigen_dim`` is dim ker(Psi - I), the singular values of Psi - I
    at most ``UNIT_TOL``: the geometric multiplicity of the eigenvalue 1, so a
    Jordan block [[1, a], [0, 1]] counts once.  F and dlam at the base point
    come from one chart read and one Reeb solve; F^T dlam F is measured."""
    chart, p = _record("orbit", orbit, ReebOrbit).chart, orbit.base_point
    Pi, D, _ = _xi_projection(chart, p)
    F = _xi_frames(chart, Pi[None], D[None], _loop_axis(chart, orbit.samples))[0]
    _, MF = monodromy(chart, p, orbit.period, F)
    Psi = standard_J(2 * chart.n) @ F.T @ D @ MF
    Omega0 = F.T @ D @ F
    sperr = float(np.max(np.abs(Psi.T @ Omega0 @ Psi - Omega0)))
    eig = np.linalg.eigvals(Psi)
    unit_dim = int(np.sum(_singular_values(Psi - np.eye(len(Psi))) <= UNIT_TOL))
    return ReturnMap(Psi, eig, unit_dim, sperr)


@dataclass(frozen=True)
class Nondegenerate:
    distance_to_one: float


@dataclass(frozen=True)
class MorseBottCandidate:
    multiplicity: int


def classify_orbit(rm: ReturnMap):
    """Nondegenerate iff ``return_map`` counted no unit direction (see
    ``UNIT_TOL``), else a Morse-Bott candidate whose multiplicity is that
    count, dim ker(Psi - I)."""
    if _record("rm", rm, ReturnMap).unit_eigen_dim:
        return MorseBottCandidate(rm.unit_eigen_dim)
    return Nondegenerate(float(np.min(np.abs(rm.eigenvalues - 1.0))))


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
) -> FamilyScan:
    """Continue the seed orbit in transverse directions and track periods.

    ``seed`` must be an orbit of ``chart`` (ModeMismatch otherwise), and
    ``directions`` one vector (d,) or a stack (N, d) of them.  Failures at
    individual samples (no convergence, a singular chart) are recorded per
    sample, not raised; the spread max|T_i - T_seed| is taken over the
    converged samples.
    """
    if _record("seed", seed, ReebOrbit).chart != chart:
        raise ModeMismatch(f"seed is an orbit of another chart ({seed.chart.name}) than the one given ({chart.name})")
    _require_int("n_samples", n_samples, 1)
    step = _require_real("step", step, 0)
    directions = _points(chart.dim, directions, name="directions")[0].reshape(-1, chart.dim)
    rows = []
    periods = []
    for di, direc in enumerate(directions):
        for i in range(1, n_samples + 1):
            s = step * i
            guess = seed.base_point + s * direc
            try:
                orb = find_closed_orbit(chart, guess, seed.period, fix_point=True)
                rows.append(FamilySample(di, s, orb.period, orb.closure_residual, True))
                periods.append(orb.period)
            except NoConvergence as err:
                rows.append(FamilySample(di, s, None, err.residual, False, tuple(err.history)))
            except SingularChart:
                rows.append(FamilySample(di, s, None, np.inf, False))
    spread = float(max(abs(T - seed.period) for T in periods)) if periods else np.nan
    return FamilyScan(seed.period, rows, spread, sum(1 for r in rows if not r.converged))
