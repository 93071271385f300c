"""Model-neighborhood construction over a Morse-Bott contact set-up.

Given a base manifold Q carrying a pre-contact form theta (d theta of
constant rank), a normalized circle direction, and a splitting of the kernel
of d theta, this module assembles the canonical contact form on the total
space of the cotangent-of-foliation bundle plus a symplectic bundle, checks
its structural identities (zero-section pullback, Reeb lift, the splitting
of the contact distribution, radial scaling), and constructs / tests complex
structures adapted to the base.

Everything here works in flat trivializations: the splitting frames are
constant in the base coordinates and the bundle connection is the trivial
one, which satisfies the required invariance axioms in these model charts.
A set-up is data, read once at construction: theta is affine in q and
X_theta constant.  On coordinates x = (q, mu, e) the canonical form
lambda_F = pi^* theta + mu . (N-coframe) + Omega(e, .)/2 is then one affine
form c + x . G_F, whose Jacobian G_F is constant.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _RANK_TOL, ContactChart, _array, _points, _record, _require_int, _require_real, contact_volume
from .core import fd_gradient, reeb_solve, xi_projection_matrix
from .errors import BadBlocks, ModeMismatch, NotContact, OutOfRange, SingularChart

# make_adapted_J accepts a coupling block B with |B J_G| up to this.
COUPLING_TOL = 1e-12
# check_adapted counts singular values above this times max(1, sigma_max).
ADAPTED_RANK_TOL = 1e-8


@dataclass(frozen=True)
class MorseBottSetup:
    """Pre-contact base data (Q, theta, X_theta, splitting) of a flat model.

    dim Q = 1 + m + 2g.  theta(q) = theta0 + q . theta_grad, with the
    constant Jacobian theta_grad[i, j] = d theta_j / d q_i, and X_theta is a
    constant vector.  ``n_basis`` spans the integrable complement H inside
    ker d theta, ``g_basis`` a symplectic complement of ker d theta in TQ,
    each a tuple of constant vectors.  Every field is read once, here: a
    wrong shape, or a basis that is no sequence, raises ModeMismatch, a
    non-finite entry or a value that is not numbers OutOfRange.
    """

    theta0: np.ndarray
    theta_grad: np.ndarray
    x_theta: np.ndarray
    n_basis: tuple  # m vectors, each of length dim_q
    g_basis: tuple  # 2g vectors
    periods: Optional[tuple] = None
    name: str = "setup"

    def __post_init__(self):
        for field in ("n_basis", "g_basis"):
            try:
                object.__setattr__(self, field, tuple(getattr(self, field)))
            except TypeError:
                raise ModeMismatch(f"{self.name}: {field} must be a sequence of vectors, "
                                   f"got {getattr(self, field)!r:.80}") from None
        vec = (self.dim_q,)
        for field, shape in (("theta0", vec), ("theta_grad", vec * 2), ("x_theta", vec)):
            object.__setattr__(self, field, _array(f"{self.name}: {field}", getattr(self, field), shape))
        for field in ("n_basis", "g_basis"):
            vectors = (_array(f"{self.name}: {field}[{j}]", v, vec) for j, v in enumerate(getattr(self, field)))
            object.__setattr__(self, field, tuple(vectors))

    @property
    def dim_q(self) -> int:
        return 1 + len(self.n_basis) + len(self.g_basis)

    @property
    def m(self) -> int:
        return len(self.n_basis)

    @property
    def g(self) -> int:
        return len(self.g_basis) // 2

    def theta(self, q) -> np.ndarray:
        """theta at a base point q (dim_q,), or at each row of a stack."""
        return self.theta0 + q @ self.theta_grad

    @property
    def dtheta(self) -> np.ndarray:
        """Matrix of the constant two-form d theta."""
        return self.theta_grad - self.theta_grad.T

    def splitting_matrix(self) -> np.ndarray:
        """Columns [X_theta | N | G]."""
        return np.column_stack([self.x_theta, *self.n_basis, *self.g_basis])


def circle_setup() -> MorseBottSetup:
    """Q = S^1 with theta = d t: m = 0, g = 0 (prequantization-type base)."""
    return MorseBottSetup([1.0], [[0.0]], [1.0], (), (), periods=(1.0,), name="circle")


def torus_setup() -> MorseBottSetup:
    """Q = T^2 with theta = d t1, H spanned by d/d t2: m = 1, g = 0."""
    return MorseBottSetup([1.0, 0.0], np.zeros((2, 2)), [1.0, 0.0], ([0.0, 1.0],), (), periods=(1.0, 1.0),
                          name="torus")


def mixed_setup() -> MorseBottSetup:
    """Q = T^2 x R^2 with theta = dt1 + (a db - b da)/2: m = 1, g = 1.

    ker d theta is spanned by d/dt1 and d/dt2, d theta restricts to the
    standard symplectic form on the (a, b) plane.
    """
    e = np.eye(4)
    G = np.zeros((4, 4))
    G[3, 2] = -0.5  # d/db of the da coefficient -b/2
    G[2, 3] = 0.5  # d/da of the db coefficient a/2
    return MorseBottSetup(e[0], G, e[0], (e[1],), (e[2], e[3]), periods=(1.0, 1.0, None, None), name="mixed")


@dataclass(frozen=True)
class ThickeningChart:
    """Contact chart on base x (cotangent fiber mu) x (symplectic fiber e)."""

    setup: MorseBottSetup
    k: int
    Omega: np.ndarray  # 2k x 2k fiberwise symplectic matrix
    chart: ContactChart
    n_coframe: np.ndarray  # m x dim_q rows extracting N-coefficients
    verified_radius: float

    @property
    def dim_q(self):
        return self.setup.dim_q

    @property
    def m(self):
        return self.setup.m

    @property
    def dim(self):
        return self.chart.dim

    def split_point(self, x):
        x = np.asarray(x, dtype=float)
        dq, m = self.dim_q, self.m
        return x[:dq], x[dq : dq + m], x[dq + m :]

    def zero_section_point(self, q) -> np.ndarray:
        x = np.zeros(self.dim)
        x[: self.dim_q] = _points(self.dim_q, q, stack=False, name="q")[0]
        return x

    def omega_tilde(self) -> np.ndarray:
        """Matrix of the extended fiberwise two-form (E-fiber block), the same
        at every point of the flat model."""
        D = np.zeros((self.dim, self.dim))
        s = self.dim_q + self.m
        D[s:, s:] = self.Omega
        return D


def _assemble_lambda_F(setup: MorseBottSetup, Omega: np.ndarray, k: int):
    """lambda_F = pi^* theta + mu . (N-coframe) + Omega(e, .)/2 on (q, mu, e),
    the affine form c + x . G_F.

    Returns c = (theta0, 0, 0), the constant Jacobian G_F (read-only) and
    the m x dim_q N-coframe; SingularChart unless the splitting is a basis.
    """
    dq, m = setup.dim_q, setup.m
    s = dq + m  # first E-fiber coordinate
    B = setup.splitting_matrix()
    sv = np.linalg.svd(B, compute_uv=False)
    if not sv[-1] > _RANK_TOL * sv[0]:
        raise SingularChart(f"{setup.name}: [X_theta | N | G] is no basis (singular values {sv})")
    N_co = np.linalg.inv(B)[1 : 1 + m, :]
    G_F = np.zeros((s + 2 * k, s + 2 * k))
    G_F[:dq, :dq] = setup.theta_grad
    G_F[dq:s, :dq] = N_co
    G_F[s:, s:] = 0.5 * Omega
    G_F.flags.writeable = False
    return np.concatenate([setup.theta0, np.zeros(m + 2 * k)]), G_F, N_co


def _fiber_grid(r: float, fdim: int, pts_per_dim: int) -> np.ndarray:
    """Grid points of the fiber ball of radius r; fewer points per axis (not
    below 3) while the full grid would exceed 4096 points."""
    if fdim == 0:
        return np.zeros((1, 0))
    per = pts_per_dim
    while per**fdim > 4096 and per > 3:
        per -= 1
    axes = [np.linspace(-r, r, per) for _ in range(fdim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, fdim)
    inside = np.linalg.norm(mesh, axis=1) <= r + 1e-15
    return mesh[inside]


def contact_tube_radius(
    chart: ContactChart,
    dim_q: int,
    radius: float,
    fiber_pts: int = 16,
    base_pts: int = 8,
) -> float:
    """Verify the contact condition on the fiber tube of the given radius.

    The contact volume must keep the zero-section sign and at least half the
    zero-section magnitude at every sampled point.  Returns the radius when
    it verifies; otherwise bisects for the largest verified radius and
    raises NotContact carrying it.  Each radius costs one stacked
    contact_volume call over the whole base x fiber grid; the zero-section
    volumes ride along with the first one.

    The fiber grid must have a point inside the tube (else OutOfRange): a
    grid without one checks nothing.
    """
    radius = _require_real("radius", radius, 0)
    _require_int("dim_q", dim_q, 0)
    _require_int("fiber dimension chart.dim - dim_q", chart.dim - dim_q, 0)
    _require_int("fiber_pts", fiber_pts, 1)
    _require_int("base_pts", base_pts, 1)
    fdim = chart.dim - dim_q
    periods = chart.periods or (None,) * chart.dim  # a base angle spans its period, else [0, 1)
    base_axes = [np.linspace(0.0, 1.0 if P is None else P, base_pts, endpoint=False) for P in periods[:dim_q]]
    base_grid = (
        np.stack(np.meshgrid(*base_axes, indexing="ij"), axis=-1).reshape(-1, dim_q)
        if dim_q
        else np.zeros((1, 0))
    )
    nb = len(base_grid)

    def tube(r: float) -> np.ndarray:
        fgrid = _fiber_grid(r, fdim, fiber_pts)
        return np.hstack([np.repeat(base_grid, len(fgrid), axis=0), np.tile(fgrid, (nb, 1))])

    zero_section = np.hstack([base_grid, np.zeros((nb, fdim))])
    grid = tube(radius)
    if not len(grid):
        raise OutOfRange(f"fiber_pts = {fiber_pts} puts no fiber point inside the tube")
    vols = contact_volume(chart, np.vstack([zero_section, grid]))
    v0 = vols[:nb, None]

    def holds(v: np.ndarray) -> bool:
        v = v.reshape(nb, -1)
        same_sign = np.sign(v) == np.sign(v0)
        return bool(np.all(np.abs(v0) >= 1e-12) and np.all(same_sign & (np.abs(v) >= 0.5 * np.abs(v0))))

    if holds(vols[nb:]):
        return radius
    lo, hi = 0.0, radius
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if holds(contact_volume(chart, tube(mid))):
            lo = mid
        else:
            hi = mid
    raise NotContact(
        lo,
        f"contact volume lower bound fails at radius {radius:g}; verified up to {lo:g}",
    )


def build_thickening(
    setup: MorseBottSetup,
    Omega,
    radius: float = 0.5,
    fiber_pts: int = 16,
    base_pts: int = 8,
) -> ThickeningChart:
    """Assemble the canonical contact form on the thickened bundle and verify
    it is contact on the fiber tube of the requested radius.

    The form is base pullback of theta, plus the fiber-pairing one-form built
    from the N-coframe, plus half the radial contraction of the extended
    fiberwise symplectic form.  Raises NotContact(radius) when the contact
    volume drops below half its zero-section value somewhere on the sample
    grid; the largest verified radius is found by bisection and stored.
    Omega is 2k x 2k with k = Omega.shape[0] // 2 (else BadBlocks), and the
    set-up's splitting [X_theta | N | G] a basis (else SingularChart).
    """
    setup = _record("setup", setup, MorseBottSetup)
    Omega = _array("Omega", Omega)
    Omega = Omega.reshape(0, 0) if Omega.size == 0 else np.atleast_2d(Omega)
    k = Omega.shape[0] // 2
    if Omega.shape != (2 * k, 2 * k):
        raise BadBlocks("Omega", "fiber symplectic matrix must be 2k x 2k")
    if k:
        if not np.max(np.abs(Omega + Omega.T)) <= 1e-12:  # NaN fails too
            raise BadBlocks("Omega", "fiber symplectic matrix must be antisymmetric")
        if not abs(np.linalg.det(Omega)) >= 1e-12:
            raise BadBlocks("Omega", "fiber symplectic matrix is degenerate")
    c, G_F, N_co = _assemble_lambda_F(setup, Omega, k)
    dq, m = setup.dim_q, setup.m
    n = (dq + m + 2 * k - 1) // 2  # total dim = dq + m + 2k = 2n + 1
    periods = None
    if setup.periods is not None:
        periods = tuple(setup.periods) + (None,) * (m + 2 * k)
    chart = ContactChart(n, lambda x: c + x @ G_F, lambda x: G_F, name=f"thicken({setup.name})", periods=periods)
    verified = contact_tube_radius(chart, dq, radius, fiber_pts=fiber_pts, base_pts=base_pts)
    return ThickeningChart(setup, k, Omega, chart, N_co, float(verified))


def reeb_of_thickening(tc: ThickeningChart, q) -> np.ndarray:
    """Reeb field of the thickening at a zero-section point (direct solve)."""
    x = tc.zero_section_point(q)
    return reeb_solve(tc.chart, x).vector


def lifted_x_theta(tc: ThickeningChart, q) -> np.ndarray:
    """Horizontal lift of the base circle field at a base point q (dim_q,):
    X_theta with a zero fiber part (flat connection), the same at every q."""
    _points(tc.dim_q, q, stack=False, name="q")
    v = np.zeros(tc.dim)
    v[: tc.dim_q] = tc.setup.x_theta
    return v


def _null_space(A) -> np.ndarray:
    """Orthonormal basis of the null space of the (m, n) matrix A, as columns:
    the rows of V^T of A's full SVD past its rank, the number of singular
    values above eps max(m, n) sigma_max."""
    _, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > np.finfo(float).eps * max(A.shape) * np.amax(s, initial=0.0)))
    return vh[rank:].T


def split_contact_distribution(tc: ThickeningChart, x):
    """Bases (V, W) with ker lambda_F = V + W.

    V lifts ker theta with the fiber-pairing correction along the Reeb lift;
    W takes the vertical directions with the radial-contraction correction.
    Both corrections are exactly the lambda_F values, so lambda_F annihilates
    every column.
    """
    x = _points(tc.dim, x, stack=False)[0]
    q, mu, e = tc.split_point(x)
    dq = tc.dim_q
    X_F = lifted_x_theta(tc, q)
    th = tc.setup.theta(q)
    # deterministic basis of ker theta on the base
    kerb = _null_space(th[None, :])
    V = [np.concatenate([eta, np.zeros(tc.dim - dq)]) - float(mu @ (tc.n_coframe @ eta)) * X_F for eta in kerb.T]
    V = np.column_stack(V) if V else np.zeros((tc.dim, 0))
    # the vertical coordinate vectors e_j less lambda_F(e_j) X_F
    return V, np.eye(tc.dim)[:, dq:] - np.outer(X_F, tc.chart.lambda_at(x)[dq:])


@dataclass
class RadialReport:
    max_scaling_error: float  # R_c^* Omega~ vs c^2 Omega~
    max_cartan_error: float  # d(R . Omega~) vs 2 Omega~


def radial_identities(tc: ThickeningChart, c: float, points) -> RadialReport:
    """Check the fiber-scaling and Cartan identities of the radial field.

    The pullback is evaluated by scaling the E-fiber of the point and of the
    tangent arguments; the exterior derivative side goes through 4th-order
    finite differences of the contraction one-form.
    """
    c = _require_real("c", c)
    points = _points(tc.dim, points, name="points")[0].reshape(-1, tc.dim)
    s, dim = tc.dim_q + tc.m, tc.dim  # s: the first E-fiber coordinate
    rng = np.random.Generator(np.random.Philox(7))
    scale = np.ones(dim)
    scale[s:] = c

    def rho(x):  # (R . Omega~)_j = Omega(e, .) on the E block
        return np.concatenate([np.zeros(s), x[s:] @ tc.Omega])

    worst_scale = 0.0
    worst_cartan = 0.0
    Om = tc.omega_tilde()  # the flat model's Omega~, the same at x and at R_c x
    for x in points:
        for _ in range(4):
            v = rng.standard_normal(dim)
            w = rng.standard_normal(dim)
            lhs = float((scale * v) @ Om @ (scale * w))
            rhs = c * c * float(v @ Om @ w)
            worst_scale = max(worst_scale, abs(lhs - rhs))
        G = fd_gradient(rho, x)
        drho = G - G.T
        worst_cartan = max(worst_cartan, float(np.max(np.abs(drho - 2 * Om))))
    return RadialReport(worst_scale, worst_cartan)


# ---------------------------------------------------------------------------
# adapted CR-almost complex structures


@dataclass
class AdaptedJ:
    matrix: np.ndarray  # endomorphism in thickening coordinates
    square_defect: float
    adapted: bool


def _check_tamed(J_blk: np.ndarray, omega: np.ndarray, label: str):
    if J_blk.size == 0:
        return
    if np.max(np.abs(J_blk @ J_blk + np.eye(J_blk.shape[0]))) > 1e-10:
        raise BadBlocks(label, f"{label}^2 != -I")
    M = omega @ J_blk
    if np.max(np.abs(M - M.T)) > 1e-8:
        raise BadBlocks(label, f"{label} not omega-compatible (symmetry)")
    if np.any(np.linalg.eigvalsh(0.5 * (M + M.T)) <= 0):
        raise BadBlocks(label, f"{label} not omega-tamed (positivity)")


def _structure_matrix(tc: ThickeningChart) -> np.ndarray:
    """Coordinate columns [X | N | G | MU | E] of the splitting RX + N + G +
    T*N + E, the same at every point of the zero section: the base splitting
    matrix and the fiber identity, block diagonal."""
    P = np.zeros((tc.dim, tc.dim))
    P[: tc.dim_q, : tc.dim_q] = tc.setup.splitting_matrix()
    P[tc.dim_q :, tc.dim_q :] = np.eye(tc.dim - tc.dim_q)
    return P


def make_adapted_J(tc: ThickeningChart, J_G, J_E, B) -> AdaptedJ:
    """Assemble an endomorphism adapted to the zero section from block data.

    Blocks: J_G on the symplectic complement inside TQ (compatible with
    d theta there), J_E on the symplectic fiber (compatible with Omega), the
    canonical pairing rotation on N + T*N, and a coupling block B from G to E
    constrained by B J_G = 0.  Since J_G squares to -I it is invertible, so
    the constraint forces B = 0 up to COUPLING_TOL; the coupling slot is
    kept so that violating inputs are caught rather than ignored.  The
    blocks are finite arrays (2g, 2g), (2k, 2k) and (2k, 2g) (OutOfRange,
    ModeMismatch).  The square defect |J^2 + Pi| takes Pi, the projection
    onto xi, at the zero-section point over q = 0.
    """
    g2, k2 = 2 * tc.setup.g, 2 * tc.k
    J_G = _array("J_G", J_G, (g2, g2))
    J_E = _array("J_E", J_E, (k2, k2))
    B = _array("B", B, (k2, g2))

    P = _structure_matrix(tc)
    m, dq = tc.m, tc.dim_q
    Gcols = P[:dq, 1 + m : dq]
    omega_G = Gcols.T @ tc.setup.dtheta @ Gcols
    _check_tamed(J_G, omega_G, "J_G")
    _check_tamed(J_E, tc.Omega, "J_E")
    if B.size and np.max(np.abs(B @ J_G)) > COUPLING_TOL:
        raise BadBlocks("B", f"B J_G = 0 violated by {np.max(np.abs(B @ J_G)):.3e}")

    Jb = np.zeros((tc.dim, tc.dim))
    # block order in P: [X | N(m) | G(2g) | MU(m) | E(2k)], G from 1 + m to dq
    # canonical pairing: J(N_a) = -MU_a, J(MU_a) = +N_a (positivity against
    # the d Theta_G pairing, which couples N and MU with a minus sign)
    for a in range(m):
        Jb[dq + a, 1 + a] = -1.0
        Jb[1 + a, dq + a] = 1.0
    Jb[1 + m : dq, 1 + m : dq] = J_G
    Jb[dq + m :, 1 + m : dq] = B
    Jb[dq + m :, dq + m :] = J_E
    Jmat = P @ Jb @ np.linalg.inv(P)

    Pi = xi_projection_matrix(tc.chart, tc.zero_section_point(np.zeros(tc.dim_q)))
    square_defect = float(np.max(np.abs(Jmat @ Jmat + Pi)))
    ok, _ = check_adapted(tc, Jmat)
    return AdaptedJ(Jmat, square_defect, bool(ok))


@dataclass
class AdaptedDiagnostics:
    containment_ok: bool
    splitting_ok: bool
    agree: bool
    containment_rank: int
    expected_rank: int
    gj_dim: int


def check_adapted(tc: ThickeningChart, J):
    """Two equivalent adaptedness tests for an endomorphism J, a finite
    (tc.dim, tc.dim) array, at the zero section (the flat splitting is the
    same at every q).

    Containment: J TQ lies inside TQ + J N (rank of the stacked spans does
    not exceed dim TQ + m).  Splitting: TQ is the direct sum of TQ intersect
    J TQ and the characteristic directions RX + N.  Both are computed, with
    ranks at the relative cutoff ADAPTED_RANK_TOL, and must agree.
    """
    J = _array("J", J, (tc.dim, tc.dim))
    P = _structure_matrix(tc)
    TQ, TF, N = P[:, : tc.dim_q], P[:, : 1 + tc.m], P[:, 1 : 1 + tc.m]
    JN = J @ N
    JTQ = J @ TQ

    def rank(A):
        if A.size == 0:
            return 0
        s = np.linalg.svd(A, compute_uv=False)
        return int(np.sum(s > ADAPTED_RANK_TOL * max(1.0, s[0])))

    base = np.column_stack([TQ, JN])
    r_base = rank(base)
    r_all = rank(np.column_stack([base, JTQ]))
    expected = TQ.shape[1] + N.shape[1]
    containment_ok = (r_base == expected) and (r_all == r_base)

    # intersection dim of col(TQ) and col(JTQ): solve TQ a = JTQ b
    r_TQ = rank(TQ)
    r_JTQ = rank(JTQ)
    r_sum = rank(np.column_stack([TQ, JTQ]))
    gj_dim = r_TQ + r_JTQ - r_sum
    # basis of the intersection for the direct-sum test
    if gj_dim > 0:
        ns = _null_space(np.column_stack([TQ, -JTQ]))
        inter = TQ @ ns[: TQ.shape[1], :]
        # orthonormalize and drop numerically null columns
        Qm, Rm = np.linalg.qr(inter)
        keep = np.abs(np.diag(Rm)) > ADAPTED_RANK_TOL * max(1.0, np.abs(Rm).max())
        inter = Qm[:, : len(keep)][:, keep]
    else:
        inter = np.zeros((tc.dim, 0))
    r_direct = rank(np.column_stack([inter, TF]))
    splitting_ok = (gj_dim == 2 * tc.setup.g) and (r_direct == TQ.shape[1]) and (
        rank(inter) + rank(TF) == r_direct
    )
    diag = AdaptedDiagnostics(bool(containment_ok), bool(splitting_ok), bool(containment_ok == splitting_ok),
                              r_all, expected, int(gj_dim))
    return bool(containment_ok), diag


def zero_section_pullback_defect(tc: ThickeningChart, points) -> float:
    """Worst gap between lambda_F and pi^* theta (theta on the base
    directions, zero on the fibers) over a non-empty (N, dim_q) stack of
    zero-section points."""
    points = _points(tc.dim_q, points, point=False, name="points")[0]
    fibers = np.zeros((len(points), tc.dim - tc.dim_q))
    lam = np.array([tc.chart.lambda_at(x) for x in np.hstack([points, fibers])])
    return float(np.max(np.abs(lam - np.hstack([tc.setup.theta(points), fibers]))))
