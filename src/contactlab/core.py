"""Chart-level contact algebra.

A chart is an open piece of R^(2n+1) carrying a contact one-form given as a
callable ``lam(x)`` returning the 2n+1 coefficients at the point, with an
optional callable ``grad(x)`` returning the Jacobian ``G[i, j] = d lam_j /
d x_i``; without it the derivative goes through the one 4th-order
finite-difference stencil, ``fd_gradient``, applied to the whole vector.
Everything here is a pure function of the point: Reeb fields, the projection
to the contact distribution, the dual isomorphism between one-forms and
vector fields, the closed-form identities for a conformally rescaled contact
form, and gradients with respect to the triad metric.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IncompatibleJ, SingularChart

# Step for 4th-order centered differences; balances truncation against
# cancellation for the 1e-8 formula-vs-oracle targets.
DEFAULT_FD_STEP = 1e-4


def fd_gradient(f: Callable, x: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """4th-order centered finite differences of f at x; row i is d f / d x_i.

    A scalar f gives its gradient, shape (d,); a vector-valued f with m
    components gives the (d, m) matrix G[i, j] = d f_j / d x_i.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = 1.0
        rows.append(
            (-f(x + 2 * h * e) + 8 * f(x + h * e) - 8 * f(x - h * e) + f(x - 2 * h * e)) / (12 * h)
        )
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class ContactChart:
    """Coordinate chart of dimension 2n+1 carrying a contact form.

    ``lam(x)`` returns the 2n+1 coefficients of the form at x; ``grad(x)``,
    when given, returns its Jacobian G with G[i, j] = d lam_j / d x_i, and
    otherwise dlam goes through ``fd_gradient`` on ``lam``.  ``periods[i]``
    declares coordinate i as an angle with that period (None for a plain real
    coordinate); ``domain`` is an optional membership test used by flow
    integration.
    """

    n: int
    lam: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "chart"
    periods: Optional[tuple] = None
    domain: Optional[Callable[[np.ndarray], bool]] = None

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def __post_init__(self):
        if self.periods is not None and len(self.periods) != self.dim:
            raise ValueError("one period entry per coordinate")

    def lambda_at(self, x) -> np.ndarray:
        L = np.asarray(self.lam(np.asarray(x, dtype=float)), dtype=float)
        if L.shape != (self.dim,):
            raise ValueError(f"{self.name}: lambda needs {self.dim} components, got shape {L.shape}")
        return L

    def dlambda_at(self, x) -> np.ndarray:
        """Antisymmetric matrix D with dlam(u, v) = u . D v."""
        x = np.asarray(x, dtype=float)
        G = np.asarray(self.grad(x) if self.grad is not None else fd_gradient(self.lam, x), dtype=float)
        if G.shape != (self.dim, self.dim):
            raise ValueError(
                f"{self.name}: the Jacobian of lambda needs shape ({self.dim}, {self.dim}), got {G.shape}"
            )
        return G - G.T

    def wrap_diff(self, a, b) -> np.ndarray:
        """Componentwise a - b, reduced to the nearest representative on angles."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.periods is not None:
            for i, P in enumerate(self.periods):
                if P is not None:
                    d[i] = (d[i] + P / 2.0) % P - P / 2.0
        return d

    def contains(self, x) -> bool:
        return True if self.domain is None else bool(self.domain(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class PerturbationData:
    """A positive factor f rescaling the contact form, with g = log f."""

    f: Callable[[np.ndarray], float]
    grad_f: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def f_at(self, x) -> float:
        return float(self.f(np.asarray(x, dtype=float)))

    def g_at(self, x) -> float:
        return float(np.log(self.f_at(x)))

    def dg_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad_f is not None:
            return np.asarray(self.grad_f(x), dtype=float) / self.f_at(x)
        return fd_gradient(self.g_at, x)

    def dg_check(self, x) -> float:
        """Gap between the declared dg and a finite-difference recomputation."""
        return float(np.max(np.abs(self.dg_at(x) - fd_gradient(self.g_at, x))))


@dataclass(frozen=True)
class ReebSolve:
    vector: np.ndarray
    residual: float
    cond: float


_RANK_TOL = 1e-12


def _stacked_residual(L, D, v) -> float:
    return float(
        np.sqrt((L @ v - 1.0) ** 2 + np.sum((D.T @ v) ** 2))
    )


def _dual_system(chart: ContactChart, x):
    """(lam, dlam, M) at x with the dual matrix M = dlam^T + lam lam^T.

    M X = X . dlam + lam(X) lam is the one-form dual to X, and the Reeb field
    is the solution of M X = lam.
    """
    L = chart.lambda_at(x)
    D = chart.dlambda_at(x)
    return L, D, D.T + np.outer(L, L)


def _checked_solve(M, rhs, chart: ContactChart, x, system: str):
    """(v, cond) with M v = rhs and cond = sigma_max / sigma_min of M.

    One SVD-based least-squares call gives both the solution and the
    singular values for the rank check.  Raises SingularChart naming the
    chart, the ``system`` and x when sigma_min <= _RANK_TOL sigma_max."""
    v, _, _, s = np.linalg.lstsq(M, rhs, rcond=None)
    if s[-1] <= _RANK_TOL * s[0]:
        raise SingularChart(
            f"{chart.name}: {system} at {x} (sigma_min/sigma_max = {s[-1] / s[0]:.2e})"
        )
    return v, float(s[0] / s[-1])


def reeb_solve(chart: ContactChart, x) -> ReebSolve:
    """Solve the stacked (2n+2)x(2n+1) system lam(X)=1, X . dlam = 0.

    The solve goes through the equivalent square dual system
    (dlam^T + lam lam^T) X = lam; the residual of the stacked system and the
    condition number are reported rather than silently accepted.
    """
    x = np.asarray(x, dtype=float)
    L, D, M = _dual_system(chart, x)
    v, cond = _checked_solve(M, L, chart, x, "Reeb system rank-deficient")
    return ReebSolve(v, _stacked_residual(L, D, v), cond)


def reeb_batch(chart: ContactChart, xs) -> np.ndarray:
    """Reeb field at a batch of points via one stacked solve (hot path for
    variational integration); raises SingularChart on any singular point."""
    xs = np.asarray(xs, dtype=float)
    npts, d = xs.shape
    Ms = np.empty((npts, d, d))
    Ls = np.empty((npts, d))
    for i in range(npts):
        Ls[i], _, Ms[i] = _dual_system(chart, xs[i])
    try:
        return np.linalg.solve(Ms, Ls[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise SingularChart(f"{chart.name}: singular Reeb system in batch") from err


def reeb_field(chart: ContactChart, x) -> np.ndarray:
    """The Reeb vector field: the unique X with lam(X)=1 and X in ker dlam."""
    return reeb_solve(chart, x).vector


def project_xi(chart: ContactChart, Z, x) -> np.ndarray:
    """Projection of Z onto the contact distribution along the Reeb field."""
    Z = np.asarray(Z, dtype=float)
    X = reeb_field(chart, x)
    return Z - float(chart.lambda_at(x) @ Z) * X


def xi_projection_matrix(chart: ContactChart, x) -> np.ndarray:
    """Matrix of project_xi: I - X lam^T."""
    X = reeb_field(chart, x)
    L = chart.lambda_at(x)
    return np.eye(chart.dim) - np.outer(X, L)


def flat_dual(chart: ContactChart, alpha, x) -> np.ndarray:
    """The vector field dual to a one-form under the contact form.

    Returns the unique X with alpha = X . dlam + lam(X) lam, equivalently
    Y_alpha + alpha(X_lam) X_lam with Y_alpha in the contact distribution.
    """
    M = _dual_system(chart, x)[2]
    return _checked_solve(M, np.asarray(alpha, dtype=float), chart, x, "dual system singular")[0]


def sharp_dual(chart: ContactChart, X, x) -> np.ndarray:
    """The one-form dual to a vector field: X . dlam + lam(X) lam."""
    X = np.asarray(X, dtype=float)
    L = chart.lambda_at(x)
    D = chart.dlambda_at(x)
    return D.T @ X + float(L @ X) * L


def xi_dual_part(chart: ContactChart, alpha, x) -> np.ndarray:
    """The xi-component Y_alpha of the dual field of alpha."""
    return project_xi(chart, flat_dual(chart, alpha, x), x)


def log_derivative_field(chart: ContactChart, pert: PerturbationData, x) -> np.ndarray:
    """The xi-part of the dual field of dg, g = log f (drives all f-identities)."""
    return xi_dual_part(chart, pert.dg_at(x), x)


def perturbed_reeb(chart: ContactChart, pert: PerturbationData, x) -> np.ndarray:
    """Closed-form Reeb field of the rescaled form f*lam: (X + Y_dg)/f."""
    fx = pert.f_at(x)
    if fx <= 0:
        raise ValueError(f"conformal factor must be positive, got {fx}")
    return (reeb_field(chart, x) + log_derivative_field(chart, pert, x)) / fx


def perturbed_chart(chart: ContactChart, pert: PerturbationData, name=None) -> ContactChart:
    """The chart carrying f*lam directly (oracle route for the closed forms).

    The rescaled form gets no analytic derivatives; its dlam goes through the
    finite-difference path on purpose so the closed-form identities are
    checked against an independent evaluation.
    """
    return ContactChart(
        n=chart.n,
        lam=lambda y: pert.f_at(y) * chart.lam(y),
        name=name or f"{chart.name}*f",
        periods=chart.periods,
        domain=chart.domain,
    )


def perturbed_projection(chart: ContactChart, pert: PerturbationData, Z, x) -> np.ndarray:
    """xi-projection of the rescaled form: pi_lam(Z) - lam(Z) Y_dg."""
    Z = np.asarray(Z, dtype=float)
    lz = float(chart.lambda_at(x) @ Z)
    return project_xi(chart, Z, x) - lz * log_derivative_field(chart, pert, x)


def triad_metric(chart: ContactChart, J, x) -> np.ndarray:
    """Matrix of the triad metric dlam(., J.) + lam (x) lam.

    J must satisfy J^2 = -Pi (projection onto the contact distribution)
    within 1e-8; raises IncompatibleJ otherwise.
    """
    x = np.asarray(x, dtype=float)
    Jm = np.asarray(J(x) if callable(J) else J, dtype=float)
    Pi = xi_projection_matrix(chart, x)
    defect = float(np.max(np.abs(Jm @ Jm + Pi)))
    if defect > 1e-8:
        raise IncompatibleJ(f"J^2 + Pi deviates by {defect:.3e} at {x}")
    L = chart.lambda_at(x)
    D = chart.dlambda_at(x)
    G = D @ Jm + np.outer(L, L)
    return 0.5 * (G + G.T)


def triad_gradient(chart: ContactChart, J, h, x, grad_h=None) -> np.ndarray:
    """Gradient of h with respect to the triad metric of (chart, J).

    Solves g(grad h, .) = dh; the Reeb component equals dh(X_lam) and the
    xi-component is the rotated contact Hamiltonian direction.
    """
    x = np.asarray(x, dtype=float)
    G = triad_metric(chart, J, x)
    dh = np.asarray(grad_h(x), dtype=float) if grad_h is not None else fd_gradient(h, x)
    return np.linalg.solve(G, dh)


def compatible_xi_structure(chart: ContactChart, x) -> np.ndarray:
    """A deterministic dlam-compatible complex structure on xi, zero on the Reeb direction.

    Built from the polar factor of dlam restricted to a Gram-Schmidt frame of
    the contact distribution.
    """
    from scipy.linalg import sqrtm

    S = xi_frame(chart, x)
    D = chart.dlambda_at(x)
    A = S.T @ D @ S
    J_blk = -A @ np.linalg.inv(np.real(sqrtm(A.T @ A)))
    X = reeb_field(chart, x)
    B = np.column_stack([S, X])
    Binv = np.linalg.inv(B)
    return S @ J_blk @ Binv[: S.shape[1], :]


def xi_frame(chart: ContactChart, x) -> np.ndarray:
    """Orthonormal 2n-frame of the contact distribution at x.

    Gram-Schmidt over the projected chart basis in coordinate order, so the
    result is reproducible.
    """
    x = np.asarray(x, dtype=float)
    F = _gram_schmidt(xi_projection_matrix(chart, x), 2 * chart.n, 1e-10)
    if F.shape[1] != 2 * chart.n:
        raise SingularChart(f"{chart.name}: could not frame xi at {x}")
    return F


def _gram_schmidt(A: np.ndarray, rank: int, tol: float) -> np.ndarray:
    """Orthonormal columns from the columns of A taken in order.

    A column whose remainder after removing the earlier ones has norm at most
    ``tol`` is skipped; the loop stops after ``rank`` columns, and returns
    fewer when A has lower rank.
    """
    cols = []
    for i in range(A.shape[1]):
        v = A[:, i].copy()
        for u in cols:
            v -= (u @ v) * u
        nv = np.linalg.norm(v)
        if nv > tol:
            cols.append(v / nv)
        if len(cols) == rank:
            break
    return np.column_stack(cols) if cols else np.zeros((A.shape[0], 0))


def _pfaffian(A: np.ndarray) -> float:
    """Pfaffian of a small even-dimensional antisymmetric matrix (recursive)."""
    m = A.shape[0]
    if m == 0:
        return 1.0
    if m % 2 == 1:
        return 0.0
    if m == 2:
        return float(A[0, 1])
    total = 0.0
    idx = list(range(1, m))
    for pos, j in enumerate(idx):
        rest = [k for k in idx if k != j]
        minor = A[np.ix_(rest, rest)]
        total += ((-1) ** pos) * A[0, j] * _pfaffian(minor)
    return float(total)


def contact_volume(chart: ContactChart, x) -> float:
    """Signed density of lam ^ (dlam)^n against the coordinate volume form."""
    L = chart.lambda_at(x)
    D = chart.dlambda_at(x)
    d = chart.dim
    B = np.zeros((d + 1, d + 1))
    B[0, 1:] = L
    B[1:, 0] = -L
    B[1:, 1:] = D
    import math

    return math.factorial(chart.n) * _pfaffian(B)


@dataclass
class ChartDiagnostics:
    min_abs_volume: float
    sign_consistent: bool
    max_cond: float
    max_reeb_residual: float


def chart_diagnostics(chart: ContactChart, points) -> ChartDiagnostics:
    """Non-degeneracy report over sample points: volume, sign, conditioning."""
    vols, conds, resids = [], [], []
    for x in points:
        vols.append(contact_volume(chart, x))
        sol = reeb_solve(chart, x)
        conds.append(sol.cond)
        resids.append(sol.residual)
    vols = np.array(vols)
    return ChartDiagnostics(
        min_abs_volume=float(np.min(np.abs(vols))),
        sign_consistent=bool(np.all(vols > 0) or np.all(vols < 0)),
        max_cond=float(np.max(conds)),
        max_reeb_residual=float(np.max(resids)),
    )
