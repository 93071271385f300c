"""Asymptotic operators along Reeb orbits: Fourier-Galerkin discretization,
spectra, spectral gaps, and the gap inequality.

The operator acts on loops u: R/TZ -> R^(2k) as  B u = J0 u' - S(t) u  with
J0 a constant complex structure and S(t) symmetric; this is the composition
of the first-order linearization along an orbit with J0, and it is
self-adjoint on periodic loops.  The discretization is Galerkin in the real
Fourier basis (not collocation) so the assembled matrix is symmetric to
machine precision.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import AsymmetricHessian, ModeMismatch

KERNEL_TOL = 1e-8
DEFAULT_MODES = 128
_TRIAL_BLOCK = 64  # gap-check trial sections per matrix product


def standard_J(rank: int) -> np.ndarray:
    """Block complex structure [[0, -I], [I, 0]] on R^rank (rank even)."""
    k = rank // 2
    J = np.zeros((rank, rank))
    J[:k, k:] = -np.eye(k)
    J[k:, :k] = np.eye(k)
    return J


def _scalar_basis_samples(n_modes: int, period: float, n_t: int):
    """Orthonormal scalar Fourier basis sampled on the uniform grid.

    Rows: constant, then (cos_k, sin_k) for k = 1..n_modes.  Orthonormal for
    the L^2([0, T]) inner product approximated by the periodic rectangle
    rule, which is exact for these trigonometric products.
    """
    t = np.arange(n_t) * (period / n_t)
    wt = np.multiply.outer(2 * np.pi * np.arange(1, n_modes + 1) / period, t)
    rows = np.empty((2 * n_modes + 1, n_t))
    rows[0] = 1.0 / np.sqrt(period)
    rows[1::2] = np.sqrt(2.0 / period) * np.cos(wt)
    rows[2::2] = np.sqrt(2.0 / period) * np.sin(wt)
    return t, rows


def _is_constant(S_samples: np.ndarray) -> bool:
    """True when every sample of S(t) equals the first one exactly."""
    return bool(np.all(S_samples == S_samples[0]))


@dataclass
class SpectralOperator:
    """Galerkin matrix of B = J0 d/dt - S(t) on loops of rank-2k sections."""

    rank: int
    n_modes: int
    period: float
    J0: np.ndarray
    S_samples: np.ndarray  # (n_t, rank, rank), symmetric in the last two axes
    t_grid: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.rank * (2 * self.n_modes + 1)

    def coefficients_from_grid(self, samples: np.ndarray) -> np.ndarray:
        """Project loop samples (n_t, rank) onto the Galerkin basis."""
        samples = np.asarray(samples, dtype=float)
        n_t = len(self.t_grid)
        if samples.shape != (n_t, self.rank):
            raise ModeMismatch(
                f"expected grid shape {(n_t, self.rank)}, got {samples.shape}"
            )
        _, F = _scalar_basis_samples(self.n_modes, self.period, n_t)
        w = self.period / n_t
        return (F @ samples * w).reshape(-1)

    def grid_from_coefficients(self, coeffs: np.ndarray, n_t: Optional[int] = None) -> np.ndarray:
        """Loop samples (n_t, rank) of a coefficient vector (dim,), or
        (..., n_t, rank) of a stack (..., dim), on one basis evaluation."""
        n_t = n_t or len(self.t_grid)
        _, F = _scalar_basis_samples(self.n_modes, self.period, n_t)
        coeffs = np.asarray(coeffs)
        return F.T @ coeffs.reshape(coeffs.shape[:-1] + (2 * self.n_modes + 1, self.rank))


def assemble_operator(
    S: Union[np.ndarray, Callable[[float], np.ndarray]],
    period: float,
    n_modes: int = DEFAULT_MODES,
    rank: int = 2,
    J0: Optional[np.ndarray] = None,
    n_t: Optional[int] = None,
    sym_tol: float = 1e-10,
) -> SpectralOperator:
    """Build the Galerkin matrix of J0 d/dt - S(t).

    ``S`` is a constant symmetric matrix, a callable t -> matrix, or an array
    of samples (n_t, rank, rank) on the uniform grid.  Raises
    AsymmetricHessian when S fails pointwise symmetry.
    """
    if J0 is None:
        J0 = standard_J(rank)
    J0 = np.asarray(J0, dtype=float)
    n_t = n_t or max(4 * n_modes + 4, 64)
    t_grid = np.arange(n_t) * (period / n_t)

    if callable(S):
        S_samples = np.array([np.asarray(S(t), dtype=float) for t in t_grid])
    else:
        S = np.asarray(S, dtype=float)
        if S.ndim == 2:
            S_samples = np.broadcast_to(S, (n_t, rank, rank)).copy()
        else:
            if S.shape[1:] != (rank, rank):
                raise ModeMismatch(f"S samples must be (n_t, {rank}, {rank})")
            if S.shape[0] != n_t:
                # resample by index interpolation is not meaningful here
                raise ModeMismatch(f"S has {S.shape[0]} samples, grid has {n_t}")
            S_samples = S.copy()

    asym = float(np.max(np.abs(S_samples - np.transpose(S_samples, (0, 2, 1)))))
    if asym > sym_tol:
        raise AsymmetricHessian(f"S deviates from symmetry by {asym:.3e}")
    S_samples = 0.5 * (S_samples + np.transpose(S_samples, (0, 2, 1)))

    n_scalar = 2 * n_modes + 1
    dim = rank * n_scalar
    M = np.zeros((dim, dim))
    # (scalar row, fiber row, scalar column, fiber column) view of M
    blocks = M.reshape(n_scalar, rank, n_scalar, rank)

    # First-order part: exact entries.  Within mode k the (cos, sin) block is
    # [[0, w J0], [-w J0, 0]], which is symmetric because J0 is antisymmetric.
    ks = np.arange(1, n_modes + 1)
    wJ = (2 * np.pi * ks / period)[:, None, None] * J0
    constant_S = _is_constant(S_samples)
    if constant_S:
        # nothing else lands in these blocks: write the entries that
        # symmetrizing M would give, bit for bit, and skip that dim^2 pass
        wJ = 0.5 * (wJ - wJ.transpose(0, 2, 1))
    blocks[2 * ks - 1, :, 2 * ks, :] += wJ
    blocks[2 * ks, :, 2 * ks - 1, :] -= wJ

    # Zeroth-order part by quadrature Galerkin: exact for trigonometric S up
    # to the grid bandwidth.  A constant S acts on each scalar mode alone, so
    # it fills only the diagonal blocks and M is exactly symmetric as built;
    # otherwise the quadrature products are symmetrized.
    if constant_S:
        diag = np.arange(n_scalar)
        blocks[diag, :, diag, :] -= S_samples[0]
    else:
        _, F = _scalar_basis_samples(n_modes, period, n_t)
        wq = period / n_t
        for i in range(rank):
            for j in range(rank):
                W = F * (wq * S_samples[:, i, j])[None, :]
                M[i::rank, j::rank] -= W @ F.T
        M += M.T
        M *= 0.5
    return SpectralOperator(rank, n_modes, float(period), J0, S_samples, t_grid, M)


@dataclass
class HessianData:
    """Vertical linearization of the contact Hamiltonian field along an orbit."""

    dvx: Union[np.ndarray, Callable[[float], np.ndarray]]  # D^v X (rank x rank)
    J_E: np.ndarray

    def symmetric_term(self, t) -> np.ndarray:
        D = self.dvx(t) if callable(self.dvx) else np.asarray(self.dvx, dtype=float)
        return self.J_E @ D

    def symmetry_defect(self, ts) -> float:
        worst = 0.0
        for t in np.atleast_1d(ts):
            H = self.symmetric_term(t)
            worst = max(worst, float(np.max(np.abs(H - H.T))))
        return worst


def build_operator(orbit, hess: HessianData, n_modes: int = DEFAULT_MODES, n_t: Optional[int] = None) -> SpectralOperator:
    """Asymptotic operator of an orbit in Galerkin form.

    ``orbit`` may be a ReebOrbit or a bare period T.  Loops are parametrized
    over [0, T] and the symmetric zeroth-order term is S(t) = J_E D^v X(t),
    so the spectrum of the free part is {2 pi k / T}.  (The unit-loop
    normalization that carries an explicit factor T in front of the vertical
    Hessian is this operator conjugated by rescaling, i.e. T times it.)
    """
    T = float(getattr(orbit, "period", orbit))
    rank = hess.J_E.shape[0]
    probe = np.linspace(0.0, T, 9)
    defect = hess.symmetry_defect(probe)
    if defect > 1e-10:
        raise AsymmetricHessian(f"J_E D^v X deviates from symmetry by {defect:.3e}")
    if callable(hess.dvx):
        S = lambda t: hess.symmetric_term(t)
    else:
        S = hess.symmetric_term(0.0)
    return assemble_operator(S, period=T, n_modes=n_modes, rank=rank, J0=hess.J_E, n_t=n_t)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    gap: float
    kernel_dim: int
    kernel_tol: float


def _eigh(op: SpectralOperator, vectors: bool):
    """``np.linalg.eigvalsh(op.matrix)``, or ``eigh`` with ``vectors``.

    With constant S the matrix is block-diagonal in the Fourier basis: one
    rank x rank block for mode 0 and one (2 rank)^2 (cos, sin) block per mode
    k >= 1.  The blocks are read out of ``op.matrix`` and solved in one
    stacked call, O(n_modes rank^3) instead of O(dim^3); eigenvalues come
    back ascending as from the dense call, and each eigenvector column is
    supported on one block.  A time-dependent S takes the dense call.
    """
    if not _is_constant(op.S_samples):
        return np.linalg.eigh(op.matrix) if vectors else np.linalg.eigvalsh(op.matrix)
    r, K = op.rank, op.n_modes
    ks = np.arange(K)
    shape = (K, 2 * r, K, 2 * r)  # (mode, row, mode, column) past mode 0
    ev0, V0 = np.linalg.eigh(op.matrix[:r, :r])
    evk, Vk = np.linalg.eigh(op.matrix[r:, r:].reshape(shape)[ks, :, ks, :])
    ev = np.concatenate([ev0, evk.ravel()])
    order = np.argsort(ev)
    if not vectors:
        return ev[order]
    evecs = np.zeros_like(op.matrix)
    evecs[:r, :r] = V0
    evecs[r:, r:].reshape(shape)[ks, :, ks, :] = Vk
    return ev[order], evecs[:, order]


def spectrum(op: SpectralOperator, kernel_tol: float = KERNEL_TOL) -> SpectrumResult:
    """Sorted eigenvalues, kernel dimension, and the gap to the first
    eigenvalue of modulus above kernel_tol.

    A constant S is solved mode by mode (one small block per Fourier mode);
    a time-dependent S(t) by one dense symmetric eigen-solve.  Either way
    ``eigenvalues`` is the full ascending spectrum of ``op.matrix``.
    """
    ev = _eigh(op, vectors=False)
    nonzero = np.abs(ev) > kernel_tol
    gap = float(np.min(np.abs(ev[nonzero]))) if np.any(nonzero) else np.inf
    return SpectrumResult(ev, gap, int(np.sum(~nonzero)), kernel_tol)


@dataclass
class GapCheckReport:
    gap: float
    min_quotient: float
    n_trials: int
    passed: bool


def gap_inequality_check(
    op: SpectralOperator,
    n_trials: int = 1000,
    seed: int = 0,
    slack: float = 1e-8,
    kernel_tol: float = KERNEL_TOL,
) -> GapCheckReport:
    """Check ||B s||^2 >= gap^2 ||s||^2 on random sections projected off the kernel.

    The eigenvalues come from one decomposition (mode by mode for constant S,
    as in ``spectrum``, so the gap is the one ``spectrum`` reports); the
    eigenvectors are solved for only when the kernel is nontrivial.  The
    trial sections come from one Philox stream, drawn _TRIAL_BLOCK at a time:
    the same numbers as n_trials draws of size dim.  The kernel projection
    and B s are matrix products over each block, with B s taken through the
    assembled ``op.matrix``, so the check holds O(_TRIAL_BLOCK dim) floats
    beyond the operator instead of O(n_trials dim + dim^2).
    """
    evals = _eigh(op, vectors=False)
    nonzero = np.abs(evals) > kernel_tol
    gap2 = float(np.min(evals[nonzero] ** 2)) if np.any(nonzero) else np.inf
    kernel = None if np.all(nonzero) else _eigh(op, vectors=True)[1][:, ~nonzero]
    rng = np.random.Generator(np.random.Philox(seed))
    worst = np.inf
    for start in range(0, n_trials, _TRIAL_BLOCK):
        X = rng.standard_normal((min(_TRIAL_BLOCK, n_trials - start), op.dim))
        if kernel is not None:
            X -= (X @ kernel) @ kernel.T
        ns2 = np.einsum("ij,ij->i", X, X)
        BX = X @ op.matrix  # rows are (B s)^T since B is symmetric
        bs2 = np.einsum("ij,ij->i", BX, BX)
        hit = ns2 > 0.0
        if np.any(hit):
            worst = min(worst, float(np.min(bs2[hit] / ns2[hit])))
    passed = worst >= gap2 - slack
    return GapCheckReport(float(np.sqrt(gap2)), worst, n_trials, bool(passed))


@dataclass
class LinearizedOrbitOperator:
    """Samples of D Upsilon(z): Y -> Y' - (D X_{f lam})(z(t)) Y along an orbit."""

    period: float
    t_grid: np.ndarray
    jacobian_samples: np.ndarray  # (n_t, dim, dim)

    def apply(self, Y: np.ndarray) -> np.ndarray:
        """Apply to sampled sections Y (n_t, dim) over the T-periodic loop."""
        n_t = len(self.t_grid)
        freqs = 2j * np.pi * np.fft.fftfreq(n_t, d=self.period / n_t)
        dY = np.real(np.fft.ifft(freqs[:, None] * np.fft.fft(Y, axis=0), axis=0))
        return dY - np.einsum("tij,tj->ti", self.jacobian_samples, Y)


def linearized_orbit_operator(chart, pert, orbit, n_t: int = 64) -> LinearizedOrbitOperator:
    """First-order linearization of the orbit equation in a flat-connection chart.

    Requires the normal-form hypothesis f = 1, df = 0 along the orbit; the
    connection is the trivial one of the chart, which satisfies the triad
    axioms in the flat model charts.
    """
    from .core import fd_gradient, perturbed_reeb
    from .dynamics import reeb_jacobian
    from .errors import HypothesisViolated

    idx = np.linspace(0, len(orbit.samples), n_t, endpoint=False).astype(int)
    pts = orbit.samples[idx]
    t_grid = (idx / len(orbit.samples)) * orbit.period
    if pert is not None:
        for z in pts:
            if abs(pert.f_at(z) - 1.0) > 1e-8:
                raise HypothesisViolated(f"f != 1 on orbit: f({z}) = {pert.f_at(z)!r}")
            df = pert.dg_at(z) * pert.f_at(z)
            if np.max(np.abs(df)) > 1e-8:
                raise HypothesisViolated(f"df != 0 on orbit at {z}")

    jacs = []
    for z in pts:
        if pert is None:
            jacs.append(reeb_jacobian(chart, z))
        else:
            jacs.append(fd_gradient(lambda y: perturbed_reeb(chart, pert, y), z).T)
    return LinearizedOrbitOperator(orbit.period, t_grid, np.array(jacs))
