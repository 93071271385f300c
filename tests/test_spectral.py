"""Fourier-Galerkin asymptotic operators: spectra, gaps, consistency."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import spectral
from contactlab.core import PerturbationData
from contactlab.dynamics import ReebOrbit, monodromy
from contactlab.errors import AsymmetricHessian, HypothesisViolated, OutOfRange
from contactlab.models import torus_chart, weighted_tube_chart
from contactlab.spectral import (
    HessianData,
    assemble_operator,
    build_operator,
    gap_inequality_check,
    linearized_orbit_operator,
    spectrum,
    standard_J,
)


def expected_free_spectrum(T, k_range, shift=0.0):
    return np.sort(np.concatenate([[2 * np.pi * k / T - shift] * 2 for k in k_range]))


def test_assembled_matrix_exactly_symmetric():
    op = assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=32)
    assert np.max(np.abs(op.matrix - op.matrix.T)) == 0.0

    def S(t):
        return np.array(
            [[0.2 + 0.1 * np.cos(2 * np.pi * t), 0.05 * np.sin(4 * np.pi * t)],
             [0.05 * np.sin(4 * np.pi * t), -0.1]]
        )

    op2 = assemble_operator(S, period=1.0, n_modes=24)
    assert np.max(np.abs(op2.matrix - op2.matrix.T)) < 1e-15


def test_free_operator_spectrum():
    N = 16
    op = assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=N)
    res = spectrum(op)
    assert res.kernel_dim == 2
    assert abs(res.gap - 2 * np.pi) < 1e-12
    expected = expected_free_spectrum(1.0, range(-N, N + 1))
    assert np.max(np.abs(np.sort(res.eigenvalues) - expected)) < 1e-10


def test_constant_shift_spectrum():
    N = 16
    a = 0.77
    op = assemble_operator(a * np.eye(2), period=1.0, n_modes=N)
    res = spectrum(op)
    expected = expected_free_spectrum(1.0, range(-N, N + 1), shift=a)
    assert np.max(np.abs(np.sort(res.eigenvalues) - expected)) < 1e-10


def test_period_scaling():
    N = 12
    T = 3.0
    op = assemble_operator(np.zeros((2, 2)), period=T, n_modes=N)
    res = spectrum(op)
    assert abs(res.gap - 2 * np.pi / T) < 1e-12


def test_commuting_constant_S_complex_oracle():
    # S = diag-ish matrix commuting with J0: spectrum {2 pi k / T - mu_j}
    N = 12
    J0 = standard_J(2)
    mu = 0.4
    S = mu * np.eye(2)
    op = assemble_operator(S, period=2.0, n_modes=N)
    res = spectrum(op)
    expected = expected_free_spectrum(2.0, range(-N, N + 1), shift=mu)
    assert np.max(np.abs(np.sort(res.eigenvalues) - expected)) < 1e-10


def test_galerkin_nesting():
    def S(t):
        return np.array(
            [[0.3 + 0.2 * np.cos(2 * np.pi * t), 0.1 * np.sin(2 * np.pi * t)],
             [0.1 * np.sin(2 * np.pi * t), 0.25]]
        )

    op1 = assemble_operator(S, period=1.0, n_modes=24)
    op2 = assemble_operator(S, period=1.0, n_modes=48)
    e1 = np.sort(np.abs(spectrum(op1).eigenvalues))[:10]
    e2 = np.sort(np.abs(spectrum(op2).eigenvalues))[:10]
    assert np.max(np.abs(e1 - e2)) < 1e-10


def test_gap_pi_example():
    op = assemble_operator(np.pi * np.eye(2), period=1.0, n_modes=32)
    assert abs(spectrum(op).gap - np.pi) < 1e-10


def test_gap_invariant_under_orthogonal_frame_change():
    def S(t):
        return np.array([[0.4, 0.1], [0.1, -0.2]])

    th = 0.73
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    op = assemble_operator(S(0), period=1.0, n_modes=16)
    op2 = assemble_operator(
        Q.T @ S(0) @ Q, period=1.0, n_modes=16, J0=Q.T @ standard_J(2) @ Q
    )
    assert abs(spectrum(op).gap - spectrum(op2).gap) < 1e-10


def test_gap_inequality_random_sections():
    op = assemble_operator(np.pi * np.eye(2), period=1.0, n_modes=24)
    rep = gap_inequality_check(op, n_trials=300, seed=11)
    assert rep.passed
    assert rep.min_quotient >= rep.gap**2 - 1e-8


def test_gap_inequality_attained_by_eigenvector():
    op = assemble_operator(0.9 * np.eye(2), period=1.0, n_modes=16)
    evals, evecs = np.linalg.eigh(op.matrix)
    nonzero = np.abs(evals) > 1e-8
    i = np.argmin(np.abs(np.where(nonzero, evals, np.inf)))
    s = evecs[:, i]
    q = float((op.matrix @ s) @ (op.matrix @ s)) / float(s @ s)
    assert abs(q - spectrum(op).gap ** 2) < 1e-10


def test_kernel_excluded_from_quotients():
    op = assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=8)
    rep = gap_inequality_check(op, n_trials=50, seed=5)
    # kernel components are projected out, so quotients sit at or above gap^2
    assert rep.min_quotient >= rep.gap**2 - 1e-8


def test_build_operator_from_hessian():
    # vertical Hamiltonian linearization of g = a r^2 / 2: D^v X = -a J0,
    # so S = J_E D^v X = a I
    a = 0.6
    J0 = standard_J(2)
    hess = HessianData(dvx=-a * J0, J_E=J0)
    op = build_operator(1.0, hess, n_modes=12)
    res = spectrum(op)
    expected = expected_free_spectrum(1.0, range(-12, 13), shift=a)
    assert np.max(np.abs(np.sort(res.eigenvalues) - expected)) < 1e-10


def test_asymmetric_hessian_rejected():
    # J_E D^v X must be symmetric; dvx = diag(1, 0) gives J0 dvx = [[0,0],[1,0]]
    J0 = standard_J(2)
    bad = HessianData(dvx=np.diag([1.0, 0.0]), J_E=J0)
    with pytest.raises(AsymmetricHessian):
        build_operator(1.0, bad, n_modes=4)


def quad_fiber_perturbation(a, dim=3):
    # f = exp(a r^2 / 2) on a tube chart: f = 1, df = 0 on the central orbit
    def f(x):
        return float(np.exp(0.5 * a * (x[1] ** 2 + x[2] ** 2)))

    def grad_f(x):
        return f(x) * a * np.array([0.0, x[1], x[2]])

    return PerturbationData(f, grad_f)


def test_linearized_operator_torus_reduces_to_derivative():
    ch = torus_chart()
    orb = ReebOrbit.from_point(ch, np.zeros(3), 1.0)
    lin = linearized_orbit_operator(ch, None, orb, n_t=32)
    assert np.max(np.abs(lin.jacobian_samples)) < 1e-9
    ts = lin.t_grid
    Y = np.stack([np.zeros_like(ts), np.zeros_like(ts), np.cos(2 * np.pi * ts)], axis=1)
    out = lin.apply(Y)
    expected = np.stack(
        [np.zeros_like(ts), np.zeros_like(ts), -2 * np.pi * np.sin(2 * np.pi * ts)], axis=1
    )
    assert np.max(np.abs(out - expected)) < 1e-8


def test_linearized_operator_kernel_is_flow_pushforward():
    # Morse-Bott tube (resonant fiber rotation): dphi^t(v) is a periodic
    # section and lies in the kernel of the linearized operator
    ch = weighted_tube_chart(1.0, 1.0)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    n_t = 32
    lin = linearized_orbit_operator(ch, None, orb, n_t=n_t)
    v = np.array([0.0, 0.3, -0.2])
    Y = np.empty((n_t, 3))
    for i, t in enumerate(lin.t_grid):
        c, s = np.cos(t), np.sin(t)
        M = np.array([[1.0, 0, 0], [0, c, s], [0, -s, c]])  # closed-form dphi^t
        Y[i] = M @ v
    # sanity: the closed form matches the variational integration at one t
    _, Mnum = monodromy(ch, orb.base_point, lin.t_grid[5])
    t5 = lin.t_grid[5]
    Mref = np.array(
        [[1.0, 0, 0], [0, np.cos(t5), np.sin(t5)], [0, -np.sin(t5), np.cos(t5)]]
    )
    assert np.max(np.abs(Mnum - Mref)) < 1e-8
    out = lin.apply(Y)
    assert np.max(np.abs(out)) < 1e-6


def test_linearized_operator_hypothesis_checked():
    ch = weighted_tube_chart(1.0, 0.8)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    bad = PerturbationData(lambda x: 2.0, lambda x: np.zeros(3))
    with pytest.raises(HypothesisViolated):
        linearized_orbit_operator(ch, bad, orb, n_t=8)
    bad_df = PerturbationData(lambda x: float(np.exp(x[1])), None)
    with pytest.raises(HypothesisViolated):
        linearized_orbit_operator(ch, bad_df, orb, n_t=8)


def test_linearized_operator_matches_galerkin_vertical_block():
    # quadratic fiber factor on the flat tube: the vertical Jacobian of the
    # rescaled Reeb field at the orbit is D^v X_g plus the chart's own
    # rotation; subtracting the unperturbed part isolates the Hessian term
    a = 0.35
    ch = weighted_tube_chart(1.0, 0.0)  # no intrinsic rotation
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    pert = quad_fiber_perturbation(a)
    lin = linearized_orbit_operator(ch, pert, orb, n_t=16)
    J0 = standard_J(2)
    for A in lin.jacobian_samples:
        vert = A[1:, 1:]
        S_geom = J0 @ vert  # J_E D^v X: should equal a * I
        assert np.max(np.abs(S_geom - a * np.eye(2))) < 1e-6


def test_torus_model_operator_kernel_dimension():
    # foliated torus model: zero vertical Hessian along the orbit, so the
    # asymptotic operator kernel has dimension 2 (the transverse directions
    # of the orbit manifold, i.e. its dimension minus the orbit direction)
    ch = torus_chart()
    orb = ReebOrbit.from_point(ch, np.zeros(3), 1.0)
    hess = HessianData(dvx=np.zeros((2, 2)), J_E=standard_J(2))
    op = build_operator(orb, hess, n_modes=16)
    res = spectrum(op)
    assert res.kernel_dim == 2
    assert abs(res.gap - 2 * np.pi) < 1e-10


def test_linearized_operator_constant_unit_factor_reduces():
    ch = weighted_tube_chart(1.0, 0.6)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    one = PerturbationData(lambda x: 1.0, lambda x: np.zeros(3))
    lin_pert = linearized_orbit_operator(ch, one, orb, n_t=16)
    lin_plain = linearized_orbit_operator(ch, None, orb, n_t=16)
    assert np.max(np.abs(lin_pert.jacobian_samples - lin_plain.jacobian_samples)) < 1e-8


def test_time_dependent_S_rotating_frame_oracle():
    # S(t) = Q(t) S0 Q(t)^T with Q(t) = exp(2 pi t J0) conjugates the
    # operator to the constant-coefficient one shifted by 2 pi, whose
    # spectrum solves (a + w + l)(b + w + l) = (2 pi k)^2 in closed form
    a, b, w = 0.3, -0.2, 2 * np.pi
    S0 = np.diag([a, b])
    J0 = standard_J(2)

    def S(t):
        c, s = np.cos(w * t), np.sin(w * t)
        Q = np.array([[c, -s], [s, c]])
        return Q @ S0 @ Q.T

    N = 32
    op = assemble_operator(S, period=1.0, n_modes=N)
    got = np.sort(spectrum(op).eigenvalues)
    mean, half = 0.5 * (a + b), 0.5 * (a - b)
    predicted = []
    for k in range(0, N + 1):
        root = np.sqrt(half**2 + (2 * np.pi * k) ** 2)
        mult = 1 if k == 0 else 2
        predicted += [-mean - w + root] * mult + [-mean - w - root] * mult
    predicted = np.sort(predicted)
    # compare away from the truncation edge
    lo = np.searchsorted(got, -20.0)
    hi = np.searchsorted(got, 20.0)
    sel = got[lo:hi]
    plo = np.searchsorted(predicted, -20.0)
    assert np.max(np.abs(sel - predicted[plo : plo + len(sel)])) < 1e-9


# ---------------------------------------------------------------------------
# mode-by-mode eigen path for constant S against the dense oracle


def dense_gap(ev, kernel_tol=spectral.KERNEL_TOL):
    nonzero = np.abs(ev) > kernel_tol
    return float(np.min(np.abs(ev[nonzero]))) if np.any(nonzero) else np.inf


@st.composite
def constant_operators(draw):
    rank = draw(st.sampled_from([2, 4]))
    ints = st.integers(-8, 8)
    A = np.array(draw(st.lists(ints, min_size=rank * rank, max_size=rank * rank)), dtype=float)
    A = A.reshape(rank, rank) / 4.0
    B = np.array(draw(st.lists(st.integers(-3, 3), min_size=rank * rank, max_size=rank * rank)),
                 dtype=float).reshape(rank, rank)
    period = draw(st.floats(0.2, 5.0))
    n_modes = draw(st.integers(0, 8))
    # symmetric S, and an antisymmetric J0 that need not be a complex structure
    return assemble_operator(A + A.T, period=period, n_modes=n_modes, rank=rank, J0=B - B.T)


@settings(max_examples=60, deadline=None)
@given(constant_operators())
def test_block_spectrum_matches_dense_oracle(op):
    oracle = np.linalg.eigvalsh(op.matrix)
    res = spectrum(op)
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert res.eigenvalues.shape == (op.dim,)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    assert np.max(np.abs(res.eigenvalues - oracle)) <= 1e-10 * scale
    g = dense_gap(oracle)
    assert res.gap == g or abs(res.gap - g) <= 1e-10 * max(1.0, g)


def sequential_gap_check(op, n_trials, seed, slack=1e-8, kernel_tol=spectral.KERNEL_TOL):
    """One trial at a time through a dense eigen-decomposition."""
    evals, evecs = np.linalg.eigh(op.matrix)
    nonzero = np.abs(evals) > kernel_tol
    gap2 = float(np.min(evals[nonzero] ** 2)) if np.any(nonzero) else np.inf
    rng = np.random.Generator(np.random.Philox(seed))
    worst = np.inf
    for _ in range(n_trials):
        s = rng.standard_normal(op.dim)
        coeff = evecs.T @ s
        coeff[~nonzero] = 0.0
        s = evecs @ coeff
        ns2 = float(s @ s)
        if ns2 == 0.0:
            continue
        Bs = op.matrix @ s
        worst = min(worst, float(Bs @ Bs) / ns2)
    return worst, worst >= gap2 - slack


def varying_S(t):
    return np.array([[0.3 + 0.2 * np.cos(2 * np.pi * t), 0.1 * np.sin(2 * np.pi * t)],
                     [0.1 * np.sin(2 * np.pi * t), -0.25]])


@pytest.mark.parametrize(
    "S",
    [np.zeros((2, 2)), 0.9 * np.eye(2), np.array([[0.4, 0.1], [0.1, -0.2]]), varying_S],
    ids=["kernel", "shift", "general", "time_dependent"],
)
def test_batched_gap_check_matches_sequential_loop(S):
    op = assemble_operator(S, period=1.0, n_modes=12)
    rep = gap_inequality_check(op, n_trials=200, seed=7)
    worst, passed = sequential_gap_check(op, n_trials=200, seed=7)
    assert abs(rep.min_quotient - worst) <= 1e-10 * worst
    assert rep.passed == passed
    assert rep.n_trials == 200
    assert abs(rep.gap - spectrum(op).gap) <= 1e-12 * rep.gap


def test_time_dependent_S_takes_dense_path(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def spy(solver):
        def call(a, *args, **kwargs):
            calls.append(np.shape(a))
            return solver(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    op = assemble_operator(varying_S, period=1.0, n_modes=16)
    res = spectrum(op)
    assert calls == [(op.dim, op.dim)]
    # the same dense call as before: identical numbers
    assert np.array_equal(res.eigenvalues, real(op.matrix))
    assert res.gap == dense_gap(res.eigenvalues)

    # one sample off by one ulp is no longer constant
    samples = np.broadcast_to(0.4 * np.eye(2), (64, 2, 2)).copy()
    samples[5, 0, 0] = np.nextafter(0.4, 1.0)
    calls.clear()
    spectrum(assemble_operator(samples, period=1.0, n_modes=8, n_t=64))
    assert calls == [(34, 34)]

    # constant S never hands the full matrix to a dense solver
    calls.clear()
    const = assemble_operator(0.4 * np.eye(2), period=1.0, n_modes=16)
    spectrum(const)
    gap_inequality_check(const, n_trials=5)
    assert calls and (const.dim, const.dim) not in calls


@pytest.mark.parametrize("S", [0.9 * np.eye(2), varying_S], ids=["constant", "time_dependent"])
@pytest.mark.parametrize("n_t", [None, 41])
def test_stacked_grid_synthesis_equals_per_vector_loop(S, n_t):
    op = assemble_operator(S, period=1.3, n_modes=6)
    coeffs = np.random.default_rng(3).standard_normal((3, 4, op.dim))
    stacked = op.grid_from_coefficients(coeffs, n_t=n_t)
    loop = np.array([[op.grid_from_coefficients(c, n_t=n_t) for c in row] for row in coeffs])
    assert stacked.shape == (3, 4, n_t or len(op.t_grid), op.rank)
    assert np.array_equal(stacked, loop)


# ---------------------------------------------------------------------------
# constant S kept as Fourier blocks


def dense_galerkin_reference(S, J0, period, n_modes):
    """The constant-S Galerkin matrix written out mode by mode, then
    symmetrized as the dense assembly symmetrizes its products."""
    r = len(S)
    M = np.zeros((r * (2 * n_modes + 1),) * 2)
    for m in range(2 * n_modes + 1):
        M[m * r:(m + 1) * r, m * r:(m + 1) * r] -= S
    for k in range(1, n_modes + 1):
        wJ = (2 * np.pi * k / period) * J0
        c, s = slice((2 * k - 1) * r, 2 * k * r), slice(2 * k * r, (2 * k + 1) * r)
        M[c, s] += wJ
        M[s, c] -= wJ
    M += M.T
    M *= 0.5
    return M


@st.composite
def constant_problems(draw):
    rank = draw(st.sampled_from([2, 4, 6]))

    def square(bound):
        entries = st.lists(st.floats(-bound, bound), min_size=rank * rank, max_size=rank * rank)
        return np.array(draw(entries)).reshape(rank, rank)

    A, B = square(3.0), square(2.0)
    # symmetric S, and an antisymmetric J0 that need not be a complex structure
    return A + A.T, B - B.T, draw(st.floats(0.2, 5.0)), draw(st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(constant_problems(), st.integers(0, 2**31 - 1))
def test_blocks_are_the_dense_galerkin_matrix(problem, seed):
    S, J0, period, n_modes = problem
    op = assemble_operator(S, period=period, n_modes=n_modes, rank=len(S), J0=J0)
    assert op.blocks.shape == (n_modes, 2 * op.rank, 2 * op.rank)
    assert op._matrix is None  # nothing dense until asked for
    M = op.matrix
    assert np.array_equal(M, dense_galerkin_reference(S, J0, period, n_modes))
    assert op.matrix is M  # built once

    x = np.random.default_rng(seed).standard_normal((3, op.dim))
    scale = max(1.0, float(np.max(np.abs(M)))) * float(np.max(np.abs(x)))
    assert np.max(np.abs(op.apply(x) - (M @ x.T).T)) <= 1e-13 * scale
    assert np.max(np.abs(op.apply(x[0]) - M @ x[0])) <= 1e-13 * scale

    oracle = np.linalg.eigvalsh(M)
    ev = spectrum(op).eigenvalues
    assert np.max(np.abs(ev - oracle)) <= 1e-10 * max(1.0, float(np.max(np.abs(oracle))))
    vals, V = spectral._eigh(op, vectors=True)
    assert np.array_equal(vals, ev)
    assert np.max(np.abs(M @ V - V * vals)) <= 1e-10 * max(1.0, float(np.max(np.abs(oracle))))
    pick = np.arange(op.dim) % 3 == 1
    some_vals, some_V = spectral._eigh(op, vectors=pick)
    assert np.array_equal(some_vals, vals[pick]) and np.array_equal(some_V, V[:, pick])


def as_dense(op):
    """The same operator handed to the dense path: no blocks, only its matrix."""
    return replace(op, block0=None, blocks=None, _matrix=op.matrix.copy(), _eigenvalues=None)


@pytest.mark.parametrize("S", [np.zeros((2, 2)), np.diag([0.0, 0.7]), np.zeros((4, 4))],
                         ids=["full_mode_0", "half_mode_0", "rank_4"])
def test_kernel_gap_check_through_blocks_equals_dense_path(S):
    op = assemble_operator(S, period=1.3, n_modes=9, rank=len(S))
    dense = as_dense(op)
    rep, ref = gap_inequality_check(op, n_trials=150, seed=3), gap_inequality_check(dense, n_trials=150, seed=3)
    assert op.blocks is not None and dense.blocks is None
    assert abs(rep.gap - ref.gap) <= 1e-12 * ref.gap
    assert abs(rep.min_quotient - ref.min_quotient) <= 1e-10 * ref.min_quotient
    assert rep.passed and ref.passed
    # the same kernel projector, from block-supported and from dense eigenvectors
    evals = spectrum(op).eigenvalues
    kernel = np.abs(evals) <= spectral.KERNEL_TOL
    Kb, Kd = spectral._eigh(op, vectors=kernel)[1], spectral._eigh(dense, vectors=kernel)[1]
    assert np.max(np.abs(Kb @ Kb.T - Kd @ Kd.T)) < 1e-12


def test_constant_S_allocates_no_dense_matrix():
    # the dense matrix at this size is 8 dim^2 = 134 MB
    tracemalloc.start()
    try:
        op = assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=1024)
        res = spectrum(op)
        rep = gap_inequality_check(op, n_trials=100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.dim == 4098 and res.kernel_dim == 2 and rep.passed
    assert peak < 16e6


def test_constant_S_spectrum_and_gap_check_at_4096_modes():
    # the dense matrix here would be 2.1 GB
    K, a = 4096, 0.3
    op = assemble_operator(a * np.eye(2), period=1.0, n_modes=K)
    res = spectrum(op)
    expected = np.sort(np.repeat(2 * np.pi * np.arange(-K, K + 1) - a, 2))
    assert np.max(np.abs(res.eigenvalues - expected)) < 1e-8
    assert abs(res.gap - a) < 1e-12
    rep = gap_inequality_check(op, n_trials=200, seed=2)
    assert rep.passed and rep.gap == res.gap
    assert op._matrix is None


def test_gap_check_with_no_trials_raises():
    op = assemble_operator(np.pi * np.eye(2), period=1.0, n_modes=4)
    with pytest.raises(OutOfRange):
        gap_inequality_check(op, n_trials=0)


@pytest.mark.parametrize("path", [lambda op: op, as_dense], ids=["blocks", "dense"])
def test_gap_check_on_an_all_kernel_operator_raises(path):
    # n_modes = 0 with S = 0: B is the zero map, so no section survives the projection
    op = path(assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=0))
    assert spectrum(op).kernel_dim == op.dim
    with pytest.raises(OutOfRange):
        gap_inequality_check(op, n_trials=10)


def test_one_dense_eigen_solve_per_operator(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    op = assemble_operator(varying_S, period=1.0, n_modes=12)
    res = spectrum(op)
    rep = gap_inequality_check(op, n_trials=70, seed=4)
    again = spectrum(op)
    assert calls == [(op.dim, op.dim)]
    assert rep.gap == res.gap and np.array_equal(again.eigenvalues, res.eigenvalues)
    # the kept eigenvalues are the operator's own: a caller's edit does not reach them
    res.eigenvalues[:] = 0.0
    assert np.array_equal(spectrum(op).eigenvalues, again.eigenvalues)
    assert "_eigenvalues" not in repr(op) and "_matrix" not in repr(op)
