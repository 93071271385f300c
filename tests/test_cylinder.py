"""Model cylinder evolution and decay-rate estimation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactlab.decay import CylinderField, Forcing, _crank_nicolson_march, decay_rate, solve_cylinder
from contactlab.errors import InsufficientDecay, ModeMismatch, OutOfRange, ResolutionTooCoarse
from contactlab.spectral import _eigh, assemble_operator, spectrum


def shifted_op(a, n_modes=8, n_t=64):
    # eigenvalues 2 pi k - a, each of multiplicity two
    return assemble_operator(a * np.eye(2), period=1.0, n_modes=n_modes, n_t=n_t)


def constant_slice(n_t, component=0, value=1.0):
    z = np.zeros((n_t, 2))
    z[:, component] = value
    return z


def eigenmode_profile(op, amplitudes):
    """Grid samples of sum amp * (eigenvector idx of op) over {idx: amp}."""
    evecs = _eigh(op, vectors=True)[1]
    return op.grid_from_coefficients(sum(amp * evecs[:, idx] for idx, amp in amplitudes.items()))


def test_eigenvector_initial_data_decays_exactly():
    op = shifted_op(-0.7)
    z0 = constant_slice(64)
    field = solve_cylinder(op, None, z0, 10.0, 200, n_t=64)
    norms = field.slice_norms
    expected = norms[0] * np.exp(-0.7 * field.tau)
    assert np.max(np.abs(norms - expected)) < 1e-10


def test_forced_mode_closed_form():
    # a' + lam a = e^{-delta0 tau} on the lowest mode, lam != delta0
    lam, delta0 = 0.7, 2.0
    op = shifted_op(-lam)
    n_t = 64
    z0 = constant_slice(n_t)
    prof = constant_slice(n_t)
    field = solve_cylinder(op, Forcing(delta0, prof), z0, 8.0, 160, n_t=n_t)
    # closed form for the slice amplitude of the seeded component
    a0 = 1.0
    ell = 1.0
    c = ell / (lam - delta0)
    tau = field.tau
    a = (a0 - c) * np.exp(-lam * tau) + c * np.exp(-delta0 * tau)
    got = field.values[:, 0, 0]
    assert np.max(np.abs(got - a)) < 1e-10


def test_kernel_data_is_conserved():
    op = shifted_op(0.0)
    z0 = constant_slice(64)
    field = solve_cylinder(op, None, z0, 15.0, 300, n_t=64)
    norms = field.slice_norms
    assert np.max(np.abs(norms - norms[0])) < 1e-12


def test_kernel_conserved_with_orthogonal_forcing():
    op = shifted_op(0.0, n_modes=8, n_t=64)
    z0 = constant_slice(64)
    # forcing on a nonzero eigenmode: pick index of the largest eigenvalue
    evals = np.linalg.eigvalsh(op.matrix)
    idx = int(np.argmax(evals))
    field = solve_cylinder(op, Forcing(1.0, eigenmode_profile(op, {idx: 0.5})), z0, 10.0, 200, n_t=64)
    # kernel component of every slice equals the initial one
    mean0 = field.values[0].mean(axis=0)
    meanR = field.values[-1].mean(axis=0)
    assert np.max(np.abs(mean0 - meanR)) < 1e-12


def test_resonant_forcing():
    lam = 0.7
    op = shifted_op(-lam)
    n_t = 64
    z0 = constant_slice(n_t)
    field = solve_cylinder(op, Forcing(lam, constant_slice(n_t)), z0, 6.0, 120, n_t=n_t)
    tau = field.tau
    a = (1.0 + tau) * np.exp(-lam * tau)
    assert np.max(np.abs(field.values[:, 0, 0] - a)) < 1e-9


def test_unstable_modes_selected_decaying():
    # forcing with content on negative modes: the solution obeys the zero
    # condition at tau = R and stays bounded
    op = shifted_op(-0.7, n_modes=4, n_t=32)
    evals = np.linalg.eigvalsh(op.matrix)
    idx = int(np.argmin(evals))  # most negative eigenvalue
    z0 = constant_slice(32)
    field = solve_cylinder(op, Forcing(0.5, eigenmode_profile(op, {idx: 1.0})), z0, 12.0, 240, n_t=32)
    assert np.isfinite(field.values).all()
    assert field.slice_norms[-1] < 10.0
    # final slice reflects the zero condition for that mode's contribution
    assert np.all(field.slice_norms < 5.0)


def test_cn_agrees_with_eigen_and_converges_quadratically():
    op = shifted_op(-0.7, n_modes=6, n_t=32)
    z0 = constant_slice(32)
    exact = solve_cylinder(op, None, z0, 5.0, 400, n_t=32)
    cn200 = solve_cylinder(op, None, z0, 5.0, 200, n_t=32, method="cn")
    cn400 = solve_cylinder(op, None, z0, 5.0, 400, n_t=32, method="cn")
    exact200 = solve_cylinder(op, None, z0, 5.0, 200, n_t=32)
    g1 = np.max(np.abs(cn200.values[-1] - exact200.values[-1]))
    g2 = np.max(np.abs(cn400.values[-1] - exact.values[-1]))
    assert g1 / g2 >= 3.5
    # eigenmode forcing, on the slowest stable mode and an unstable one
    evals = np.linalg.eigvalsh(op.matrix)
    forcing = Forcing(1.3, eigenmode_profile(op, {int(np.searchsorted(evals, 0.0)): 0.8, 0: 0.5}))
    fields = {(n, m): solve_cylinder(op, forcing, z0, 5.0, n, n_t=32, method=m)
              for n in (200, 400) for m in ("eigen", "cn")}
    gaps = [np.max(np.abs(fields[n, "cn"].values - fields[n, "eigen"].values)) for n in (200, 400)]
    assert gaps[0] < 1e-3
    assert gaps[0] / gaps[1] >= 3.5


def test_cn_tau_dependent_coefficients():
    # scalar oracle on the constant mode: the operator acts there as
    # +(0.5 + 0.2 sin tau), so a(tau) = exp(-integral of that rate)
    n_t = 32
    op = assemble_operator(-0.5 * np.eye(2), period=1.0, n_modes=4, n_t=n_t)

    def S_of_tau(s):
        return -(0.5 + 0.2 * np.sin(s)) * np.eye(2)

    z0 = constant_slice(n_t)
    field = solve_cylinder(op, None, z0, 3.0, 300, n_t=n_t, S_of_tau=S_of_tau)
    tau = field.tau
    integral = 0.5 * tau - 0.2 * (np.cos(tau) - 1.0)
    a = np.exp(-integral)
    got = field.values[:, 0, 0]
    assert np.max(np.abs(got - a) / np.abs(a)) < 1e-4


def test_resolution_guard():
    op = shifted_op(-0.7, n_modes=16, n_t=64)
    z0 = constant_slice(64)
    with pytest.raises(ResolutionTooCoarse):
        solve_cylinder(op, None, z0, 50.0, 10, n_t=64, method="cn")
    with pytest.raises(ResolutionTooCoarse):
        solve_cylinder(op, None, z0, 1.0, 10, n_t=8)


def test_mode_mismatch_errors():
    op = shifted_op(-0.7, n_modes=4, n_t=32)
    with pytest.raises(ModeMismatch):
        solve_cylinder(op, None, np.zeros((16, 2)), 1.0, 10, n_t=32)
    # grid data lives on the operator's own grid, whatever the output grid
    with pytest.raises(ModeMismatch):
        solve_cylinder(op, Forcing(1.0, constant_slice(16)), constant_slice(32), 1.0, 10, n_t=32)
    with pytest.raises(ModeMismatch):
        solve_cylinder(op, None, constant_slice(16), 1.0, 10, n_t=16)
    # a coefficient vector is not grid samples
    with pytest.raises(ModeMismatch):
        solve_cylinder(op, None, np.zeros(op.dim), 1.0, 10, n_t=32)
    with pytest.raises(ModeMismatch):
        Forcing(1.0, np.zeros(op.dim))



def test_unknown_march_method_is_out_of_range():
    op = shifted_op(-0.7, n_modes=4, n_t=32)
    with pytest.raises(OutOfRange, match="unknown method 'rk4'"):
        solve_cylinder(op, None, constant_slice(32), 1.0, 10, method="rk4")


def tau_dependent(s):
    return -(0.7 + 0.1 * np.sin(s)) * np.eye(2)


@pytest.mark.parametrize("march", [{}, {"method": "cn"}, {"S_of_tau": tau_dependent}],
                         ids=["eigen", "cn", "tau_dependent"])
@pytest.mark.parametrize("n_tau", [0, -3, 2.5, True], ids=["zero", "negative", "fraction", "bool"])
def test_step_count_that_is_not_a_positive_integer_is_out_of_range(n_tau, march):
    # n_tau = 0 used to end in an IndexError (tau[1]), -3 in a ValueError
    # from linspace and 2.5 in a TypeError
    op = shifted_op(-0.7, n_modes=4, n_t=32)
    with pytest.raises(OutOfRange, match="n_tau must be an integer >= 1"):
        solve_cylinder(op, None, constant_slice(32), 1.0, n_tau, **march)


@pytest.mark.parametrize("R", [-1.0, 0.0, np.nan, np.inf])
def test_length_that_is_not_finite_and_positive_is_out_of_range(R):
    # R = -1 used to march backward and return a field, R = nan to return nan
    op = shifted_op(-0.7, n_modes=4, n_t=32)
    with pytest.raises(OutOfRange, match="R must be finite and > 0"):
        solve_cylinder(op, None, constant_slice(32), R, 10)


@pytest.mark.parametrize("delta0", [np.nan, np.inf, 0.0, -1.0])
def test_forcing_rate_that_is_not_finite_and_positive_is_out_of_range(delta0):
    # nan and inf used to pass; inf then marched after a RuntimeWarning from exp
    with pytest.raises(OutOfRange, match="delta0 must be finite and > 0"):
        Forcing(delta0, constant_slice(32))


@pytest.mark.parametrize("n_t", [0, -3, 2.5], ids=["zero", "negative", "fraction"])
def test_output_grid_that_is_not_a_positive_integer_is_out_of_range(n_t):
    # n_t = 0 used to fall back to the operator grid, -3 to read as too coarse
    op = shifted_op(-0.7, n_modes=4, n_t=32)
    with pytest.raises(OutOfRange, match="n_t must be an integer >= 1"):
        solve_cylinder(op, None, constant_slice(32), 1.0, 10, n_t=n_t)
    with pytest.raises(OutOfRange, match="n_t must be an integer >= 1"):
        op.grid_from_coefficients(np.zeros(op.dim), n_t=n_t)


# ---------------------------------------------------------------------------
# the constant-S Crank-Nicolson march against its per-step recurrence


def per_step_cn(evals, a0, ell, delta0, tau):
    """The Crank-Nicolson recurrence one tau-step at a time, each branch read
    and written through its mode mask: stable modes forward from a0,
    unstable modes backward from zero at tau = R."""
    dtau = tau[1] - tau[0]
    ells = np.exp(-delta0 * tau)
    pos = evals >= 0
    neg = ~pos
    A = np.zeros((len(tau), len(evals)))
    A[0, pos] = a0[pos]
    lp, gp = evals[pos], ell[pos]
    for m in range(len(tau) - 1):
        lbar = 0.5 * (ells[m] + ells[m + 1]) * gp
        A[m + 1, pos] = ((1 - 0.5 * dtau * lp) * A[m, pos] + dtau * lbar) / (1 + 0.5 * dtau * lp)
    ln, gn = evals[neg], ell[neg]
    for m in range(len(tau) - 2, -1, -1):
        lbar = 0.5 * (ells[m] + ells[m + 1]) * gn
        A[m, neg] = ((1 + 0.5 * dtau * ln) * A[m + 1, neg] - dtau * lbar) / (1 - 0.5 * dtau * ln)
    return A


@settings(max_examples=40, deadline=None)
@given(
    rank=st.sampled_from([2, 4]),
    n_modes=st.integers(1, 4),
    n_tau=st.integers(1, 60),
    step=st.floats(0.01, 1.99),
    delta0=st.floats(0.1, 3.0),
    forced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_constant_S_cn_march_is_the_per_step_recurrence(rank, n_modes, n_tau, step, delta0,
                                                        forced, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rank, rank))
    op = assemble_operator(M + M.T, period=1.0, n_modes=n_modes, rank=rank)
    evals, evecs = _eigh(op, vectors=True)
    assert np.any(evals >= 0) and np.any(evals < 0)  # both branches march
    a0 = rng.standard_normal(op.dim)
    ell = rng.standard_normal(op.dim) if forced else np.zeros(op.dim)
    # dtau |lambda|_max = step < 2, the march's resolution bound
    tau = np.linspace(0.0, n_tau * step / np.max(np.abs(evals)), n_tau + 1)
    got = _crank_nicolson_march(op, evals, evecs, a0, ell, delta0, tau, None)
    assert np.array_equal(got, per_step_cn(evals, a0, ell, delta0, tau))


# ---------------------------------------------------------------------------
# both marches against a dense eigen-decomposition written out here


def dense_reference(op, forcing, zeta0, R, n_tau, n_t, method):
    """Field of solve_cylinder from np.linalg.eigh(op.matrix), per-mode
    scalar recurrences and an explicit Fourier synthesis."""
    T, n_scalar = op.period, 2 * op.n_modes + 1

    def basis(n):
        t = np.arange(n) * (T / n)
        rows = [np.full(n, 1.0 / np.sqrt(T))]
        for k in range(1, op.n_modes + 1):
            rows += [np.sqrt(2.0 / T) * np.cos(2 * np.pi * k * t / T),
                     np.sqrt(2.0 / T) * np.sin(2 * np.pi * k * t / T)]
        return np.array(rows)

    F = basis(len(op.t_grid))
    project = lambda grid: (F @ grid).reshape(-1) * (T / len(op.t_grid))
    evals, evecs = np.linalg.eigh(op.matrix)
    a0, ell = evecs.T @ project(zeta0), evecs.T @ project(forcing.profile)
    d0 = forcing.delta0
    tau = np.linspace(0.0, R, n_tau + 1)
    h = tau[1] - tau[0]
    e = np.exp(-d0 * tau)
    A = np.zeros((n_tau + 1, op.dim))
    for i, lam in enumerate(evals):
        c = ell[i] / (lam - d0)
        if method == "eigen" and lam < 0:
            A[:, i] = c * (e - np.exp(lam * (R - tau) - d0 * R))
        elif method == "eigen":
            A[:, i] = (a0[i] - c) * np.exp(-lam * tau) + c * e
        elif lam < 0:
            for m in range(n_tau - 1, -1, -1):
                src = h * 0.5 * (e[m] + e[m + 1]) * ell[i]
                A[m, i] = ((1 + 0.5 * h * lam) * A[m + 1, i] - src) / (1 - 0.5 * h * lam)
        else:
            A[0, i] = a0[i]
            for m in range(n_tau):
                src = h * 0.5 * (e[m] + e[m + 1]) * ell[i]
                A[m + 1, i] = ((1 - 0.5 * h * lam) * A[m, i] + src) / (1 + 0.5 * h * lam)
    coeffs = A @ evecs.T
    G = basis(n_t)
    return np.array([G.T @ c.reshape(n_scalar, op.rank) for c in coeffs])


def assert_marches_match_dense(op, seed, delta0, R=1.5):
    rng = np.random.default_rng(seed)
    n_grid = len(op.t_grid)
    zeta0 = rng.standard_normal((n_grid, op.rank))
    forcing = Forcing(delta0, rng.standard_normal((n_grid, op.rank)))
    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))
    n_tau = int(np.ceil(R * lam_max)) + 4  # dtau |lambda|_max < 1 for CN
    n_t = n_grid + 5  # output grid differs from the operator grid
    for method in ("eigen", "cn"):
        got = solve_cylinder(op, forcing, zeta0, R, n_tau, n_t=n_t, method=method).values
        ref = dense_reference(op, forcing, zeta0, R, n_tau, n_t, method)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), method


@settings(max_examples=25, deadline=None)
@given(
    rank=st.sampled_from([2, 4]),
    n_modes=st.integers(1, 5),
    period=st.floats(0.5, 2.0),
    delta0=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_marches_match_dense_reference_for_constant_S(rank, n_modes, period, delta0, seed):
    A = np.random.default_rng(seed).standard_normal((rank, rank))
    op = assemble_operator(A + A.T, period=period, n_modes=n_modes, rank=rank)
    # keep clear of resonance, where the closed form cancels catastrophically
    assume(np.min(np.abs(np.linalg.eigvalsh(op.matrix) - delta0)) > 0.05)
    assert_marches_match_dense(op, seed, delta0)


def test_marches_match_dense_reference_for_time_dependent_S():
    def S(t):
        return np.array([[0.6 + 0.3 * np.cos(2 * np.pi * t), 0.2 * np.sin(2 * np.pi * t)],
                         [0.2 * np.sin(2 * np.pi * t), -0.4 + 0.1 * np.cos(4 * np.pi * t)]])

    op = assemble_operator(S, period=1.0, n_modes=5, n_t=32)
    assert_marches_match_dense(op, seed=11, delta0=0.9)


def synthetic_field(rate, amp=5.0, R=20.0, n_tau=200):
    tau = np.linspace(0, R, n_tau + 1)
    t = np.arange(8) / 8.0
    vals = np.zeros((n_tau + 1, 8, 2))
    vals[:, :, 0] = amp * np.exp(-rate * tau)[:, None]
    return CylinderField(tau, t, vals, 1.0)


def test_decay_rate_exact_synthetic():
    fit = decay_rate(synthetic_field(0.7))
    assert abs(fit.rate - 0.7) < 1e-6
    assert fit.r_squared > 1 - 1e-12


def test_decay_rate_solver_regimes():
    n_t = 64
    op = shifted_op(-np.pi, n_modes=8, n_t=n_t)
    assert abs(spectrum(op).gap - np.pi) < 1e-10
    z0 = constant_slice(n_t)
    field = solve_cylinder(op, None, z0, 20.0, 400, n_t=n_t)
    fit = decay_rate(field)
    assert abs(fit.rate - np.pi) / np.pi < 0.01
    # forcing slower than the gap dominates the tail
    field2 = solve_cylinder(op, Forcing(0.4, constant_slice(n_t)), z0, 20.0, 400, n_t=n_t)
    fit2 = decay_rate(field2)
    assert abs(fit2.rate - 0.4) / 0.4 < 0.02


def test_decay_rate_no_decay_control():
    op = shifted_op(0.0, n_modes=4, n_t=32)
    field = solve_cylinder(op, None, constant_slice(32), 20.0, 400, n_t=32)
    fit = decay_rate(field)
    assert abs(fit.rate) < 0.01
    assert fit.window_kind == "full"


def test_decay_rate_insufficient_window():
    f = synthetic_field(0.5, R=0.5, n_tau=5)
    with pytest.raises(InsufficientDecay):
        decay_rate(f)


def test_slice_norms_recomputable():
    f = synthetic_field(0.3)
    dt = f.period / len(f.t)
    manual = np.sqrt(np.sum(f.values**2, axis=(1, 2)) * dt)
    assert np.max(np.abs(manual - f.slice_norms)) < 1e-12
