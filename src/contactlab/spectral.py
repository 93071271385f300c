"""Asymptotic operators along Reeb orbits: Fourier-Galerkin discretization,
spectra, spectral gaps, and the gap inequality.

The operator acts on loops u: R/TZ -> R^(2k) as  B u = J0 u' - S(t) u  with
J0 = ``core.standard_J(2k)`` and S(t) symmetric, self-adjoint on periodic
loops.  ``asymptotic_operator`` builds it from a computed closed Reeb orbit in
one stacked pass, in the library's one xi-frame F (``core._xi_frames``, the
frame of ``return_map``, so its period map is the return map): S = F^T dlam
(F' - DX F), the form dlam(., (d/dt - DX) .) on xi, with no pseudo-inverse.
That frame fixes J0, so the eigenvalues off the kernel depend on it.  The
discretization is Galerkin in the real Fourier basis (not collocation), and
the assembled matrix is exactly symmetric: a constant S gives one block per
Fourier mode, a time-dependent S a dense matrix filled from one DFT of its
samples (Toeplitz and Hankel gathers of the coefficients), which then takes
one dense eigen-solve.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _array, _fd_points, _fd_sum, _loop_axis, _points, _record, _require_int, _require_real
from .core import _xi_frames, _xi_projection, standard_J
from .dynamics import ReebOrbit
from .errors import (
    AsymmetricHessian,
    HypothesisViolated,
    ModeMismatch,
    OutOfRange,
    ResolutionTooCoarse,
)

KERNEL_TOL = 1e-8  # an eigenvalue of modulus at most this counts as kernel
GAP_SLACK = 1e-8  # gap_inequality_check passes when min ||B s||^2/||s||^2 >= gap^2 - GAP_SLACK
DEFAULT_MODES = 128
_TRIAL_BLOCK = 64  # gap-check trial sections per matrix product
SYM_TOL = 1e-10  # largest asymmetry of S that assemble_operator accepts


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


@dataclass
class SpectralOperator:
    """Galerkin form of B = J0 d/dt - S(t) on loops of rank-2k sections,
    J0 = ``standard_J(rank)``.

    In the real Fourier basis (constant, then (cos_k, sin_k) per mode, each
    times R^rank) a constant S makes B block-diagonal: ``block0`` is the
    rank x rank block of mode 0 and ``blocks[k - 1]`` the (2 rank)^2
    (cos, sin) block of mode k.  Such an operator is kept as those blocks
    alone; ``matrix``, the dense dim x dim Galerkin matrix, is built from them
    on first use.  A time-dependent S(t) couples the modes: ``block0`` and
    ``blocks`` are None and ``matrix`` is built at assembly.
    """

    rank: int
    n_modes: int
    period: float
    S_samples: np.ndarray  # (n_t, rank, rank), symmetric in the last two axes
    t_grid: np.ndarray
    block0: Optional[np.ndarray]  # (rank, rank), constant S only
    blocks: Optional[np.ndarray]  # (n_modes, 2 rank, 2 rank), constant S only
    _matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _eigenvalues: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.rank * (2 * self.n_modes + 1)

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim Galerkin matrix (built once, on first use, for
        a constant S; the same numbers as its blocks)."""
        if self._matrix is None:
            r, K = self.rank, self.n_modes
            M = np.zeros((self.dim, self.dim))
            M[:r, :r] = self.block0
            ks = np.arange(K)
            M[r:, r:].reshape(K, 2 * r, K, 2 * r)[ks, :, ks, :] = self.blocks
            self._matrix = M
        return self._matrix

    def apply(self, x) -> np.ndarray:
        """B x for coefficient vectors x (..., dim), mode by mode for a constant S."""
        x = np.asarray(x, dtype=float)
        if self.blocks is None:
            return x @ self.matrix  # B is symmetric: x^T B = (B x)^T
        r, K = self.rank, self.n_modes
        rows = x.reshape(-1, self.dim)
        out = np.empty_like(rows)
        out[:, :r] = rows[:, :r] @ self.block0
        by_mode = rows[:, r:].reshape(len(rows), K, 2 * r).transpose(1, 0, 2)
        out[:, r:] = (by_mode @ self.blocks).transpose(1, 0, 2).reshape(len(rows), -1)
        return out.reshape(x.shape)

    def coefficients_from_grid(self, samples: np.ndarray) -> np.ndarray:
        """Project loop samples (n_t, rank) onto the Galerkin basis."""
        n_t = len(self.t_grid)
        samples = _points(self.rank, samples, point=False, name="samples")[0]
        if len(samples) != n_t:
            raise ModeMismatch(f"expected grid shape {(n_t, self.rank)}, got {samples.shape}")
        _, F = _scalar_basis_samples(self.n_modes, self.period, n_t)
        w = self.period / n_t
        return (F @ samples * w).reshape(-1)

    def grid_from_coefficients(self, coeffs: np.ndarray, n_t: Optional[int] = None) -> np.ndarray:
        """Loop samples (n_t, rank) of a coefficient vector (dim,), or
        (..., n_t, rank) of a stack (..., dim), on one basis evaluation.
        OutOfRange unless ``n_t`` (default: the operator grid) is an integer >= 1."""
        n_t = len(self.t_grid) if n_t is None else n_t
        _require_int("n_t", n_t, 1)
        _, F = _scalar_basis_samples(self.n_modes, self.period, n_t)
        coeffs = np.asarray(coeffs)
        return F.T @ coeffs.reshape(coeffs.shape[:-1] + (2 * self.n_modes + 1, self.rank))


def _sample_callable(S: Callable[[float], np.ndarray], t_grid: np.ndarray) -> np.ndarray:
    """S(t) stacked over the grid; OutOfRange for a value that is not numbers,
    ModeMismatch at the first t whose value changes shape."""
    values = [_array("S(t)", S(t)) for t in t_grid]
    for t, v in zip(t_grid.tolist(), values):
        if v.shape != values[0].shape:
            raise ModeMismatch(f"S(t) changes shape along the grid: {values[0].shape} at "
                               f"t = {float(t_grid[0])!r}, {v.shape} at t = {t!r}")
    return np.array(values)


def _fourier_coefficients(S_samples: np.ndarray, n_modes: int) -> np.ndarray:
    """s(m) = (1/n_t) sum_n S(t_n) exp(-2 pi i m n / n_t) for m = -2 n_modes
    .. 2 n_modes, at index m + 2 n_modes: (4 n_modes + 1, rank, rank).

    One rfft of the upper triangle of the samples.  An index m is read at
    m mod n_t, from the conjugate half when that lies above n_t / 2, so
    for n_t < 4 n_modes + 1 the coefficients alias exactly as the periodic
    rectangle rule does.  s(-m) is the conjugate of s(m) and s(m) is
    symmetric in its last two axes, both exactly.
    """
    n_t, r = S_samples.shape[:2]
    iu, ju = np.triu_indices(r)
    X = np.fft.rfft(S_samples[:, iu, ju], axis=0) / n_t
    m = np.arange(2 * n_modes + 1) % n_t
    flip = m > n_t // 2
    half = X[np.where(flip, n_t - m, m)]
    half.imag[flip] *= -1.0
    half.imag[0] = 0.0  # s(0) is real
    c = np.empty((4 * n_modes + 1, r, r), dtype=complex)
    c[2 * n_modes:, iu, ju] = c[2 * n_modes:, ju, iu] = half
    c[:2 * n_modes] = np.conj(c[:2 * n_modes:-1])
    return c


def _toeplitz_hankel(v: np.ndarray, K: int):
    """The (K, K) views v[2K + k - l] and v[2K + k + l], k, l = 1..K, of a
    vector v of length 4K + 1."""
    return sliding_window_view(v[::-1], K)[2 * K:K:-1], sliding_window_view(v, K)[2 * K + 2:3 * K + 2]


def assemble_operator(
    S: Union[np.ndarray, Callable[[float], np.ndarray]],
    period: float,
    n_modes: int = DEFAULT_MODES,
    rank: int = 2,
    n_t: Optional[int] = None,
) -> SpectralOperator:
    """Build the Galerkin form of J0 d/dt - S(t), J0 = ``standard_J(rank)``.

    ``S`` is a constant symmetric matrix, a callable t -> matrix, or an array
    of samples (n_t, rank, rank) on the uniform grid (default n_t =
    max(4 n_modes + 4, 64)).  When every sample of S is the same the
    operator is kept as its Fourier blocks and no dim x dim array is
    allocated.  Otherwise the dense matrix is filled from one DFT of the
    samples: the entry of scalar modes (k, l) is a sum of the coefficients
    s(k - l) (Toeplitz) and s(k + l) (Hankel), which is the periodic
    rectangle-rule Galerkin integral, aliasing included, and the matrix is
    exactly symmetric.

    Inputs follow the input contract (README; ``rank`` even, each sample of
    S rank x rank); AsymmetricHessian when S deviates from symmetry by more
    than SYM_TOL.
    """
    _require_int("rank", rank, 2)
    J0 = standard_J(rank)
    period = _require_real("period", period, 0)
    _require_int("n_modes", n_modes, 0)
    if n_t is None:
        n_t = max(4 * n_modes + 4, 64)
    _require_int("n_t", n_t, 1)
    t_grid = np.arange(n_t) * (period / n_t)

    if callable(S):
        S_samples = _sample_callable(S, t_grid)
    else:
        S_samples = _array("S", S)
        if S_samples.shape == (rank, rank):
            S_samples = np.broadcast_to(S_samples, (n_t, rank, rank))
    if S_samples.shape != (n_t, rank, rank):
        # samples on another grid are not resampled: index interpolation is
        # not meaningful here
        got = "callable values stacked to shape" if callable(S) else "shape"
        raise ModeMismatch(f"S must be a ({rank}, {rank}) matrix, a callable with ({rank}, {rank}) "
                           f"values or ({n_t}, {rank}, {rank}) samples; got {got} {S_samples.shape}")
    _points(rank, S_samples.reshape(-1, rank), point=False, name="S")  # finite

    asym = float(np.max(np.abs(S_samples - np.transpose(S_samples, (0, 2, 1)))))
    if asym > SYM_TOL:
        raise AsymmetricHessian(f"S deviates from symmetry by {asym:.3e}")
    S_samples = 0.5 * (S_samples + np.transpose(S_samples, (0, 2, 1)))

    # First-order part: exact entries.  Within mode k the (cos, sin) block is
    # [[0, w J0], [-w J0, 0]], which is exactly symmetric because J0, a
    # matrix of 0 and +-1, is exactly antisymmetric.
    r, K = rank, n_modes
    ks = np.arange(1, K + 1)
    wJ = (2 * np.pi * ks / period)[:, None, None] * J0
    if np.all(S_samples == S_samples[0]):
        # S acts on each scalar mode alone: B is block-diagonal
        block0 = np.zeros((r, r))
        block0 -= S_samples[0]
        blocks = np.zeros((K, 2 * r, 2 * r))
        blocks[:, :r, r:] += wJ
        blocks[:, r:, :r] -= wJ
        blocks[:, :r, :r] -= S_samples[0]
        blocks[:, r:, r:] -= S_samples[0]
        return SpectralOperator(rank, K, float(period), S_samples, t_grid, block0, blocks)

    # Zeroth-order part from the coefficients s(m) = P(m) + i Q(m) of -S.
    # With c = cos, s = sin the scalar products of modes k, l >= 1 are
    # cc = P(k-l) + P(k+l), ss = P(k-l) - P(k+l), cs = Q(k-l) - Q(k+l) and
    # sc = -Q(k-l) - Q(k+l); mode 0 pairs with P(0), sqrt(2) P(l) and
    # -sqrt(2) Q(l).  P(-m) = P(m), Q(-m) = -Q(m) and s(m) is symmetric in
    # the fiber, all exactly, so entry (b, a) is computed as entry (a, b) is
    # and M equals its transpose exactly.
    c = -_fourier_coefficients(S_samples, K)
    dim = r * (2 * K + 1)
    M = np.empty((dim, dim))
    for i in range(r):
        for j in range(r):
            P, Q = c.real[:, i, j].copy(), c.imag[:, i, j].copy()
            B = M[i::r, j::r]  # the scalar-mode matrix of fiber entry (i, j)
            B[0, 0] = P[2 * K]
            B[0, 1::2] = B[1::2, 0] = np.sqrt(2.0) * P[2 * K + ks]
            B[0, 2::2] = B[2::2, 0] = -np.sqrt(2.0) * Q[2 * K + ks]
            TP, HP = _toeplitz_hankel(P, K)
            TQ, HQ = _toeplitz_hankel(Q, K)
            np.add(TP, HP, out=B[1::2, 1::2])
            np.subtract(TP, HP, out=B[2::2, 2::2])
            np.subtract(TQ, HQ, out=B[1::2, 2::2])
            np.subtract(_toeplitz_hankel(-Q, K)[0], HQ, out=B[2::2, 1::2])
    # (scalar row, fiber row, scalar column, fiber column) view of M
    view = M.reshape(2 * K + 1, r, 2 * K + 1, r)
    view[2 * ks - 1, :, 2 * ks, :] += wJ
    view[2 * ks, :, 2 * ks - 1, :] -= wJ
    return SpectralOperator(rank, K, float(period), S_samples, t_grid, None, None, _matrix=M)


def asymptotic_operator(orbit, n_modes: int, pert=None) -> SpectralOperator:
    """Asymptotic operator B = J0 d/dt - S(t), J0 = standard_J(2n), of a
    closed Reeb orbit of ``orbit.chart``, on its samples z.

    xi gets the frame F of ``core._xi_frames``: Pi e_j, j != k, made
    symplectic, for the orbit's ``_loop_axis`` k, as ``return_map`` does.  A
    section Y = F u of xi has Y' - DX Y = F u' + (F' - DX F) u, whose frame
    coordinates J0 F^T dlam give u' = -J0 S u with S = F^T dlam (F' - DX F).
    DX and DF come from ``fd_gradient``'s 4th-order stencil around each
    sample, and F' = DF . X: no step assumes that the samples close exactly.
    X, Pi, dlam and F at the samples and their stencils come from one stacked
    ``_xi_projection``.  The flow keeps dlam on xi, so S is symmetric, and
    ``assemble_operator`` checks that, which also tests the frame.

    With ``pert`` (a PerturbationData, else ModeMismatch) the form is f lam,
    and its Reeb field (X + Y_dg) / f, of the same read, takes the place of X
    in DX and F'; f = 1 and df = 0 at the samples are required
    (HypothesisViolated otherwise), so the orbit, xi and dlam on xi are those
    of lam.  ResolutionTooCoarse for fewer than 2 n_modes + 2 samples,
    OutOfRange for n = 0.
    """
    _require_int("n_modes", n_modes, 0)
    chart, z, T = _record("orbit", orbit, ReebOrbit).chart, orbit.samples, orbit.period
    if len(z) < 2 * n_modes + 2:
        raise ResolutionTooCoarse(f"{len(z)} orbit samples cannot carry {n_modes} Fourier modes")
    N, d = z.shape
    points = np.concatenate([z, _fd_points(z).reshape(-1, d)])
    Pi, D, V, *rescaled = _xi_projection(chart, points, pert)
    if rescaled:
        f, df, Y = rescaled
        bad = np.flatnonzero((np.abs(f[:N, 0] - 1.0) > 1e-8) | (np.max(np.abs(df[:N]), axis=1) > 1e-8))
        if bad.size:
            raise HypothesisViolated(f"f != 1 or df != 0 on the orbit at {z[bad[0]]}: f = {float(f[bad[0], 0])!r}")
        V = (V + Y) / f
    F = _xi_frames(chart, Pi, D, _loop_axis(chart, z))
    # rows d/dx_i of V and of F at each sample, from its stencil
    grads = _fd_sum(np.concatenate([V[:, :, None], F], axis=2)[N:].reshape(N, d, 4, d, -1), 2)
    dF = np.einsum("ni,nijk->njk", V[:N], grads[..., 1:])
    S = F[:N].swapaxes(1, 2) @ D[:N] @ (dF - grads[..., 0].swapaxes(1, 2) @ F[:N])
    return assemble_operator(S, period=T, n_modes=n_modes, rank=2 * chart.n, n_t=N)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    gap: float
    kernel_dim: int


def _eigh(op: SpectralOperator, vectors=False):
    """Ascending eigenvalues of ``op.matrix``, and with ``vectors`` the
    eigenvectors too: all dim columns for True, or the columns of the
    eigenvalues a boolean mask over the ascending order selects.

    A constant S is solved from its blocks in one stacked call, O(n_modes
    rank^3) instead of O(dim^3); each eigenvector column is supported on one
    block, and only the asked-for columns are written out.  A time-dependent
    S takes ``np.linalg.eigvalsh(op.matrix)``, or ``eigh`` with ``vectors``.
    The eigenvalues are kept on the operator, so a second call solves nothing.
    """
    if vectors is False and op._eigenvalues is not None:
        return op._eigenvalues.copy()
    if op.blocks is None:
        if vectors is False:
            op._eigenvalues = np.linalg.eigvalsh(op.matrix)
            return op._eigenvalues.copy()
        ev, V = np.linalg.eigh(op.matrix)
        return (ev, V) if vectors is True else (ev[vectors], V[:, vectors])
    r = op.rank
    ev0, V0 = np.linalg.eigh(op.block0)
    evk, Vk = np.linalg.eigh(op.blocks)
    ev = np.concatenate([ev0, evk.ravel()])
    order = np.argsort(ev)
    op._eigenvalues = ev[order]
    if vectors is False:
        return op._eigenvalues.copy()
    cols = order if vectors is True else order[vectors]
    V = np.zeros((op.dim, len(cols)))
    at0 = np.flatnonzero(cols < r)
    V[:r, at0] = V0[:, cols[at0]]
    atk = np.flatnonzero(cols >= r)
    k, c = np.divmod(cols[atk] - r, 2 * r)
    V[r + 2 * r * k + np.arange(2 * r)[:, None], atk] = Vk[k, :, c].T
    return ev[cols], V


def spectrum(op: SpectralOperator) -> SpectrumResult:
    """Sorted eigenvalues, kernel dimension, and the gap to the first
    eigenvalue of modulus above KERNEL_TOL.

    A constant S is solved mode by mode (one small block per Fourier mode);
    a time-dependent S(t) by one dense symmetric eigen-solve.  Either way
    ``eigenvalues`` is the full ascending spectrum of ``op.matrix``.
    """
    ev = _eigh(_record("op", op, SpectralOperator))
    nonzero = np.abs(ev) > KERNEL_TOL
    gap = float(np.min(np.abs(ev[nonzero]))) if np.any(nonzero) else np.inf
    return SpectrumResult(ev, gap, int(np.sum(~nonzero)))


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
) -> GapCheckReport:
    """Check ||B s||^2 >= gap^2 ||s||^2 - GAP_SLACK ||s||^2 on random sections
    projected off the kernel (eigenvalues within KERNEL_TOL of 0).

    The eigenvalues are the ones ``spectrum`` reports (kept on the operator,
    so after ``spectrum`` none are solved for again); the kernel eigenvectors
    are solved for only when the kernel is nontrivial, block by block for
    constant S.  The trial sections come from one Philox stream, drawn
    _TRIAL_BLOCK at a time: the same numbers as n_trials draws of size dim.
    The kernel projection and B s are products over each block of trials,
    with B s taken by ``op.apply`` (mode by mode for constant S), so the
    check holds O(_TRIAL_BLOCK dim) floats beyond the operator.

    Raises OutOfRange when the kernel is the whole space, so that there is
    nothing to check.
    """
    _require_int("n_trials", n_trials, 1)
    _require_int("seed", seed, 0)
    evals = _eigh(_record("op", op, SpectralOperator))
    nonzero = np.abs(evals) > KERNEL_TOL
    if not np.any(nonzero):
        raise OutOfRange(
            f"every eigenvalue is within {KERNEL_TOL:g} of 0: the kernel is the whole "
            f"dim-{op.dim} space, so no section survives the projection"
        )
    gap2 = float(np.min(evals[nonzero] ** 2))
    kernel = None if np.all(nonzero) else _eigh(op, vectors=~nonzero)[1]
    rng = np.random.Generator(np.random.Philox(seed))
    worst = np.inf
    for start in range(0, n_trials, _TRIAL_BLOCK):
        X = rng.standard_normal((min(_TRIAL_BLOCK, n_trials - start), op.dim))
        if kernel is not None:
            X -= (X @ kernel) @ kernel.T
        ns2 = np.einsum("ij,ij->i", X, X)
        BX = op.apply(X)
        bs2 = np.einsum("ij,ij->i", BX, BX)
        hit = ns2 > 0.0
        if np.any(hit):
            worst = min(worst, float(np.min(bs2[hit] / ns2[hit])))
    passed = worst >= gap2 - GAP_SLACK
    return GapCheckReport(float(np.sqrt(gap2)), worst, n_trials, bool(passed))
