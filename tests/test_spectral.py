"""Fourier-Galerkin asymptotic operators: spectra, gaps, consistency."""

import collections
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import core, spectral
from contactlab.core import ContactChart, PerturbationData
from contactlab.dynamics import ReebOrbit, find_closed_orbit, monodromy, return_map
from contactlab.errors import (
    AsymmetricHessian,
    HypothesisViolated,
    ModeMismatch,
    OutOfRange,
    ResolutionTooCoarse,
)
from contactlab.models import perturbed_tube_chart, torus_chart, weighted_tube_chart
from contactlab.spectral import (
    assemble_operator,
    asymptotic_operator,
    gap_inequality_check,
    spectrum,
    standard_J,
)


def expected_free_spectrum(T, k_range, shift=0.0):
    return np.sort(np.concatenate([[2 * np.pi * k / T - shift] * 2 for k in k_range]))


def varying_S(t):
    return np.array([[0.3 + 0.2 * np.cos(2 * np.pi * t), 0.1 * np.sin(2 * np.pi * t)],
                     [0.1 * np.sin(2 * np.pi * t), -0.25]])


def test_assembled_matrix_exactly_symmetric():
    op = assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=32)
    assert np.max(np.abs(op.matrix - op.matrix.T)) == 0.0

    def S(t):
        return np.array(
            [[0.2 + 0.1 * np.cos(2 * np.pi * t), 0.05 * np.sin(4 * np.pi * t)],
             [0.05 * np.sin(4 * np.pi * t), -0.1]]
        )

    op2 = assemble_operator(S, period=1.0, n_modes=24)
    assert op2.blocks is None
    assert np.max(np.abs(op2.matrix - op2.matrix.T)) == 0.0


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
    op2 = assemble_operator(Q.T @ S(0) @ Q, period=1.0, n_modes=16)  # Q commutes with standard_J(2)
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


def test_asymmetric_hessian_rejected():
    # S = J0 diag(1, 0) = [[0, 0], [1, 0]] is not symmetric
    bad = standard_J(2) @ np.diag([1.0, 0.0])
    with pytest.raises(AsymmetricHessian):
        assemble_operator(bad, period=1.0, n_modes=4)


@pytest.mark.parametrize(
    "S",
    [
        lambda t: (1 + np.cos(t)) * np.eye(3),  # used to be cut to its upper-left 2 x 2
        lambda t: np.ones(2),
        np.eye(3),
        np.ones(2),
        np.zeros((63, 2, 2)),
        np.zeros((64, 3, 3)),
    ],
    ids=["callable_3x3", "callable_vector", "matrix_3x3", "vector", "63_samples", "samples_3x3"],
)
def test_S_that_is_not_rank_by_rank_per_sample_is_a_mode_mismatch(S):
    with pytest.raises(ModeMismatch, match=r"\(2, 2\) matrix"):
        assemble_operator(S, period=1.0, n_modes=4, rank=2, n_t=64)


@pytest.mark.parametrize(
    "period, n_modes",
    [(0.0, 4), (np.nan, 4), (-1.0, 4), (np.inf, 4), (1.0, -1), (1.0, True), (1.0, 2.5), (1.0, 2.0)],
    ids=["period_zero", "period_nan", "period_negative", "period_inf", "n_modes_negative",
         "n_modes_bool", "n_modes_fraction", "n_modes_float"],
)
def test_period_and_mode_count_outside_their_domain_are_out_of_range(period, n_modes):
    # n_modes = 2.5 used to end in a TypeError, True to count as one mode
    with pytest.raises(OutOfRange):
        assemble_operator(np.eye(2), period=period, n_modes=n_modes)


@pytest.mark.parametrize("rank", [3, 1, 0, -2, 2.0], ids=["three", "one", "zero", "negative", "float"])
def test_rank_that_is_not_even_and_positive_is_out_of_range(rank):
    # rank = 3 used to return an operator whose standard_J(3) has a zero row
    with pytest.raises(OutOfRange, match="rank must be"):
        assemble_operator(np.eye(max(int(rank), 1)), period=1.0, n_modes=2, rank=rank)


@pytest.mark.parametrize("n_t", [0, -3, 64.0, True], ids=["zero", "negative", "float", "bool"])
def test_grid_size_that_is_not_a_positive_integer_is_out_of_range(n_t):
    # n_t = 0 used to take the default grid, -3 to end in a ValueError
    with pytest.raises(OutOfRange, match="n_t must be an integer >= 1"):
        assemble_operator(varying_S, period=1.0, n_modes=4, n_t=n_t)


def test_callable_that_changes_shape_names_the_first_such_t():
    # used to end in numpy's "inhomogeneous shape" ValueError
    def S(t):
        return np.eye(2) if t < 0.5 else np.eye(3)

    with pytest.raises(ModeMismatch, match=r"\(2, 2\) at t = 0\.0, \(3, 3\) at t = 0\.5$"):
        assemble_operator(S, period=1.0, n_modes=4, n_t=64)


@pytest.mark.parametrize("n_trials", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
def test_trial_count_that_is_not_an_integer_is_out_of_range(n_trials):
    # 2.5 used to end in a TypeError from range, True to run one trial
    op = assemble_operator(np.pi * np.eye(2), period=1.0, n_modes=4)
    with pytest.raises(OutOfRange, match="n_trials must be an integer >= 1"):
        gap_inequality_check(op, n_trials=n_trials)


# ---------------------------------------------------------------------------
# the asymptotic operator of a computed orbit against closed-form spectra


def quad_fiber_perturbation(a, dim=3):
    # f = exp(a r^2 / 2) on a tube chart: f = 1, df = 0 on the central orbit
    def f(x):
        return float(np.exp(0.5 * a * (x[1] ** 2 + x[2] ** 2)))

    def grad_f(x):
        return f(x) * a * np.array([0.0, x[1], x[2]])

    return PerturbationData(f, grad_f)


def quadratic_tube(weights, c=lambda th: 0.0, dc=lambda th: 0.0):
    """lam = (1 + sum_i (a_i x_i^2 + b_i y_i^2)/2 + c(theta) r^2/2) dtheta
    + sum_i (x_i dy_i - y_i dx_i)/2 on (theta, x_1, y_1, ..., x_n, y_n),
    weights = [(a_1, b_1), ...], with analytic derivatives.  The circle
    r = 0 is a closed Reeb orbit of period 2 pi."""
    n = len(weights)
    a = np.array([w[0] for w in weights], dtype=float)
    b = np.array([w[1] for w in weights], dtype=float)
    xs, ys = 1 + 2 * np.arange(n), 2 + 2 * np.arange(n)

    def lam(z):
        x, y = z[xs], z[ys]
        out = np.empty(2 * n + 1)
        out[0] = 1.0 + 0.5 * (a @ x**2 + b @ y**2 + c(z[0]) * (x @ x + y @ y))
        out[xs], out[ys] = -0.5 * y, 0.5 * x
        return out

    def grad(z):
        x, y = z[xs], z[ys]
        G = np.zeros((2 * n + 1, 2 * n + 1))
        G[0, 0] = 0.5 * dc(z[0]) * (x @ x + y @ y)
        G[xs, 0], G[ys, 0] = (a + c(z[0])) * x, (b + c(z[0])) * y
        G[xs, ys], G[ys, xs] = 0.5, -0.5
        return G

    periods = (2 * np.pi,) + (None,) * (2 * n)
    return ContactChart(n, lam, grad, name=f"quadratic_tube({weights})", periods=periods)


def central_orbit(chart, n_samples=64):
    return ReebOrbit.from_point(chart, np.zeros(chart.dim), 2 * np.pi, n_samples=n_samples)


def tube_orbit(w, n_samples=64):
    ch = weighted_tube_chart(1.0, w)
    return ch, central_orbit(ch, n_samples)


def test_asymptotic_operator_of_the_weighted_tube():
    ch, orb = tube_orbit(0.3)
    res = spectrum(asymptotic_operator(orb, 15))
    assert np.max(np.abs(res.eigenvalues - expected_free_spectrum(2 * np.pi, range(-15, 16), 0.3))) <= 1e-10
    assert res.kernel_dim == 0 and abs(res.gap - 0.3) <= 1e-10


def test_asymptotic_operator_of_an_elliptic_tube_pins_the_sign():
    # S = diag(a, b) in a symplectic frame: mode k gives the roots of
    # (a + mu)(b + mu) = k^2, once for k = 0 and twice for k >= 1
    a, b, K = 0.3, -0.45, 31
    ch = quadratic_tube([(a, b)])
    ev = spectrum(asymptotic_operator(central_orbit(ch, 128), K)).eigenvalues
    expected = []
    for k in range(K + 1):
        root = np.sqrt((a - b) ** 2 + 4 * k**2)
        expected += [(-(a + b) + root) / 2, (-(a + b) - root) / 2] * (1 if k == 0 else 2)
    assert np.max(np.abs(ev - np.sort(expected))) <= 1e-10


def test_asymptotic_operator_of_a_modulated_tube():
    # S(t) = c(t) I: the gauge change u = exp(J0 int (c - mean c)) v makes the
    # spectrum {k - mean c}, each value twice.  Galerkin truncation moves only
    # the eigenvalues near the edge |mu| ~ 15, so the window |mu| < 8 is exact.
    ch = quadratic_tube([(0.0, 0.0)], lambda th: 0.3 + 0.2 * np.cos(th), lambda th: -0.2 * np.sin(th))
    op = asymptotic_operator(central_orbit(ch), 15)
    assert op.blocks is None  # the dense time-dependent path
    ev = spectrum(op).eigenvalues
    expected = expected_free_spectrum(2 * np.pi, range(-15, 16), 0.3)
    inner, inner_expected = ev[np.abs(ev) < 8], expected[np.abs(expected) < 8]
    assert inner.shape == inner_expected.shape == (32,)
    assert np.max(np.abs(inner - inner_expected)) <= 1e-10


def test_asymptotic_operator_of_a_two_frequency_tube():
    w1, w2 = 0.3, 0.45
    ch = quadratic_tube([(w1, w1), (w2, w2)])
    op = asymptotic_operator(central_orbit(ch), 15)
    assert op.rank == 4
    expected = np.sort(np.concatenate([expected_free_spectrum(2 * np.pi, range(-15, 16), w)
                                       for w in (w1, w2)]))
    assert np.max(np.abs(spectrum(op).eigenvalues - expected)) <= 1e-10


def test_asymptotic_operator_of_a_rescaled_tube():
    # f = exp(a r^2 / 2) adds a to the rotation weight of the tube
    w, a = 0.3, 0.35
    ch, orb = tube_orbit(w)
    op = asymptotic_operator(orb, 15, pert=quad_fiber_perturbation(a))
    assert np.max(np.abs(op.S_samples - (w + a) * np.eye(2))) <= 1e-10
    expected = expected_free_spectrum(2 * np.pi, range(-15, 16), w + a)
    assert np.max(np.abs(spectrum(op).eigenvalues - expected)) <= 1e-10


@pytest.mark.parametrize("w", [0.3, 0.5, 1.0, 1.7, 2.0])
def test_asymptotic_kernel_is_the_return_map_unit_multiplicity(w):
    ch, orb = tube_orbit(w)
    kernel = spectrum(asymptotic_operator(orb, 15)).kernel_dim
    assert kernel == return_map(orb).unit_eigen_dim
    assert kernel == (2 if w in (1.0, 2.0) else 0)


def sheared_tube(w, amp):
    """weighted_tube_chart(1, w) pulled back by (theta, x, y) -> (theta + x g(theta), x, y),
    g = amp sin: the same central orbit, but xi turns along it in these
    coordinates, so the frame F(t) is not constant and F' enters S."""
    def lam(z):
        th, x, y = z
        h, g, dg = 1 + 0.5 * w * (x * x + y * y), amp * np.sin(th), amp * np.cos(th)
        return np.array([h * (1 + x * dg), h * g - 0.5 * y, 0.5 * x])

    def grad(z):
        th, x, y = z
        h, g, dg = 1 + 0.5 * w * (x * x + y * y), amp * np.sin(th), amp * np.cos(th)
        return np.array([[-h * x * g, h * dg, 0.0],
                         [w * x * (1 + x * dg) + h * dg, w * x * g, 0.5],
                         [w * y * (1 + x * dg), w * y * g - 0.5, 0.0]])

    return ContactChart(1, lam, grad, name=f"sheared_tube({w:g}, {amp:g})", periods=(2 * np.pi, None, None))


def pushforward_in_operator_frame(ch, orb, amp=0.0):
    """dphi^t v, v = (0, 0.3, -0.2), along the central orbit of the resonant
    (sheared) tube, as loop samples in the frame asymptotic_operator uses."""
    ts = orb.period * np.arange(len(orb.samples)) / len(orb.samples)
    # the rotation of the tube, conjugated by the differential of the shear at theta = t
    shear = np.array([[[1.0, -amp * np.sin(t), 0], [0, 1, 0], [0, 0, 1]] for t in ts])
    rot = np.array([[[1.0, 0, 0], [0, np.cos(t), np.sin(t)], [0, -np.sin(t), np.cos(t)]] for t in ts])
    dphi = shear @ rot
    # sanity: the closed form matches the variational integration at one t
    _, Mnum = monodromy(ch, orb.base_point, ts[5])
    assert np.max(np.abs(Mnum - dphi[5])) < 1e-8
    Pi, D, _ = core._xi_projection(ch, orb.samples)
    F = core._xi_frames(ch, Pi, D, core._loop_axis(ch, orb.samples))
    return np.einsum("tij,tjk,k->ti", np.linalg.pinv(F), dphi, [0.0, 0.3, -0.2])


@pytest.mark.parametrize("w", [0.5, 1.0])
def test_asymptotic_kernel_of_a_sheared_tube(w):
    # a symplectic but not unitary change of frame moves the eigenvalues off
    # {k - w}; the kernel, the pushed-forward sections dphi^t v, stays
    ch = sheared_tube(w, 0.4)
    orb = central_orbit(ch)
    op = asymptotic_operator(orb, 15)
    assert op.blocks is None and spectrum(op).kernel_dim == return_map(orb).unit_eigen_dim
    if w == 1.0:
        u = pushforward_in_operator_frame(ch, orb, 0.4)
        assert np.max(np.abs(op.apply(op.coefficients_from_grid(u)))) < 1e-10


def test_linearized_operator_torus_reduces_to_derivative():
    # the torus chart has DX = 0 and a constant frame along the orbit: S = 0
    ch = torus_chart()
    orb = ReebOrbit.from_point(ch, np.zeros(3), 1.0, n_samples=64)
    op = asymptotic_operator(orb, 15)
    assert np.max(np.abs(op.S_samples)) < 1e-10
    ev = spectrum(op).eigenvalues
    assert np.max(np.abs(ev - expected_free_spectrum(1.0, range(-15, 16)))) <= 1e-10


def test_torus_model_operator_kernel_dimension():
    # foliated torus model: zero vertical Hessian along the orbit, so the
    # asymptotic operator kernel has dimension 2 (the transverse directions
    # of the orbit manifold, i.e. its dimension minus the orbit direction)
    ch = torus_chart()
    orb = ReebOrbit.from_point(ch, np.zeros(3), 1.0, n_samples=64)
    res = spectrum(asymptotic_operator(orb, 15))
    assert res.kernel_dim == 2
    assert abs(res.gap - 2 * np.pi) < 1e-10


def test_linearized_operator_kernel_is_flow_pushforward():
    # Morse-Bott tube (resonant fiber rotation): dphi^t(v) is a periodic
    # section, and in the operator's frame it lies in the kernel
    ch, orb = tube_orbit(1.0)
    op = asymptotic_operator(orb, 15)
    assert spectrum(op).kernel_dim == 2
    u = pushforward_in_operator_frame(ch, orb)
    assert np.max(np.abs(op.apply(op.coefficients_from_grid(u)))) < 1e-10


def test_linearized_operator_hypothesis_checked():
    ch, orb = tube_orbit(0.8)
    bad = PerturbationData(lambda x: 2.0, lambda x: np.zeros(3))
    with pytest.raises(HypothesisViolated):
        asymptotic_operator(orb, 15, pert=bad)
    bad_df = PerturbationData(lambda x: float(np.exp(x[1])), lambda x: np.array([0.0, np.exp(x[1]), 0.0]))
    with pytest.raises(HypothesisViolated):
        asymptotic_operator(orb, 15, pert=bad_df)


def test_linearized_operator_matches_galerkin_vertical_block():
    # quadratic fiber factor on the flat tube: S is the Hessian term a I alone
    a = 0.35
    ch, orb = tube_orbit(0.0)
    op = asymptotic_operator(orb, 15, pert=quad_fiber_perturbation(a))
    assert np.max(np.abs(op.S_samples - a * np.eye(2))) <= 1e-10


def test_linearized_operator_constant_unit_factor_reduces():
    ch, orb = tube_orbit(0.6)
    one = PerturbationData(lambda x: 1.0, lambda x: np.zeros(3))
    with_one = asymptotic_operator(orb, 15, pert=one)
    plain = asymptotic_operator(orb, 15)
    assert np.max(np.abs(with_one.S_samples - plain.S_samples)) < 1e-8


def test_asymptotic_operator_needs_two_samples_per_mode():
    ch, orb = tube_orbit(0.3)
    assert asymptotic_operator(orb, 31).n_modes == 31  # 64 = 2 * 31 + 2 samples
    with pytest.raises(ResolutionTooCoarse):
        asymptotic_operator(orb, 32)


# the resonant torus of the perturbed tube: with s = r^2/2 its form is
# h(s) dtheta + s dphi, h = 1 + c s + q s^2, and the fiber turns at rate
# -(c + 2 q s) per unit of theta, so at s0 = (1 - c)/(2 q) it turns once per
# theta-turn and every orbit on {s = s0} closes, with period
# T = 2 pi (h - s0 h_s): a Morse-Bott torus Q smaller than its chart


def resonant_torus(c, q):
    s0 = (1 - c) / (2 * q)
    h, h_s = 1 + c * s0 + q * s0**2, c + 2 * q * s0
    return perturbed_tube_chart(1.0, c, q), np.sqrt(2 * s0), 2 * np.pi * (h - s0 * h_s)


def test_asymptotic_operator_of_the_resonant_torus():
    # the samples close only to the integrator's tolerance (about 5e-9): a
    # frame derivative that assumed exact closure left S asymmetric by
    # 1.6e-7 on both orbits and raised AsymmetricHessian
    ch, r0, T = resonant_torus(0.5, 1.0)
    p = np.array([0.0, r0, 0.0])
    gaps = []
    for orb in (find_closed_orbit(ch, p, 6.0), ReebOrbit.from_point(ch, p, T)):
        assert abs(orb.period - T) < 1e-9 and abs(np.hypot(*orb.base_point[1:]) - r0) < 1e-8
        res = spectrum(asymptotic_operator(orb, 15))
        assert res.kernel_dim == return_map(orb).unit_eigen_dim == 1
        gaps.append(res.gap)
    # the gap depends on the frame; in the (Pi e_x, Pi e_y) frame it is 0.6592
    assert abs(gaps[0] - gaps[1]) < 1e-8 and abs(gaps[0] - 0.659236) < 1e-6


@settings(max_examples=10, deadline=None)
@given(st.floats(0.2, 0.8), st.floats(0.5, 2.0), st.floats(0.0, 2 * np.pi))
def test_asymptotic_kernel_on_resonant_tori_is_the_return_map_unit_multiplicity(c, q, angle):
    ch, r0, T = resonant_torus(c, q)
    orb = ReebOrbit.from_point(ch, [0.0, r0 * np.cos(angle), r0 * np.sin(angle)], T, n_samples=64)
    assert spectrum(asymptotic_operator(orb, 15)).kernel_dim == return_map(orb).unit_eigen_dim == 1


def operator_period_map(op):
    """Phi(T) of u' = -J0 S(t) u, S the trigonometric interpolant of the
    operator's samples, by DOP853."""
    from scipy.integrate import solve_ivp

    n_t, r = len(op.S_samples), op.rank
    coef, k = np.fft.fft(op.S_samples, axis=0) / n_t, np.fft.fftfreq(n_t, 1.0 / n_t)
    J0 = standard_J(r)

    def rhs(t, y):
        S = np.real(np.tensordot(np.exp(2j * np.pi * k * t / op.period), coef, axes=(0, 0)))
        return (-J0 @ S @ y.reshape(r, r)).ravel()

    sol = solve_ivp(rhs, (0.0, op.period), np.eye(r).ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
    return sol.y[:, -1].reshape(r, r)


@pytest.mark.parametrize("c, q, angle", [(0.5, 1.0, 0.0), (0.3, 1.7, 1.1), (0.7, 0.6, 4.0)])
def test_return_map_is_the_period_map_of_the_asymptotic_operator(c, q, angle):
    # both read the orbit in one xi-frame; the orthonormal frame of the
    # return map differed from the operator's period map by 8.30, 18.2 and 2.79
    ch, r0, T = resonant_torus(c, q)
    orb = ReebOrbit.from_point(ch, [0.0, r0 * np.cos(angle), r0 * np.sin(angle)], T)
    assert np.max(np.abs(return_map(orb).matrix - operator_period_map(asymptotic_operator(orb, 15)))) <= 1e-6


@pytest.mark.parametrize("case", ["tube", (0.5, 1.0, 0.0), (0.3, 1.7, 1.1), (0.7, 0.6, 4.0)])
def test_return_map_is_the_pseudo_inverse_reading_of_the_pushed_frame(case):
    # the return map took pinv(F) Pi dphi^T F; J0 F^T dlam dphi^T F is the
    # same map with no SVD and no projection
    if case == "tube":
        orb = central_orbit(weighted_tube_chart(1.0, 2**0.5))
    else:
        c, q, angle = case
        ch, r0, T = resonant_torus(c, q)
        orb = ReebOrbit.from_point(ch, [0.0, r0 * np.cos(angle), r0 * np.sin(angle)], T)
    ch, p = orb.chart, orb.base_point
    Pi, D, _ = core._xi_projection(ch, p)
    F = core._xi_frames(ch, Pi[None], D[None], core._loop_axis(ch, orb.samples))[0]
    _, MF = monodromy(ch, p, orb.period, F)
    assert np.max(np.abs(return_map(orb).matrix - np.linalg.pinv(F) @ Pi @ MF)) <= 1e-12


def test_plain_operator_makes_the_same_solves_at_any_sample_count(monkeypatch):
    # one stacked projection over the samples and their stencils; per-sample
    # solves made 2 N + 1 dual systems
    systems = []
    dual_systems = core._dual_systems
    monkeypatch.setattr(core, "_dual_systems", lambda chart, x: systems.append(len(x)) or dual_systems(chart, x))
    counts = []
    for n in (64, 128):
        _, orb = tube_orbit(0.3, n)
        systems.clear()
        asymptotic_operator(orb, 15)
        counts.append(len(systems))
    assert counts[0] == counts[1] == 1
    # the rescaled route reads the chart, f and grad_f once at each of the
    # 13 N points (the samples and their stencils): it read the chart twice,
    # and f once more at each sample for its f = 1, df = 0 check
    quad = quad_fiber_perturbation(0.35)
    for n in (64, 128):
        _, orb = tube_orbit(0.3, n)
        reads = collections.Counter()
        pert = PerturbationData(lambda x: reads.update(["f"]) or quad.f(x),
                                lambda x: reads.update(["grad_f"]) or quad.grad_f(x))
        systems.clear()
        asymptotic_operator(orb, 15, pert=pert)
        assert systems == [13 * n] and reads == {"f": 13 * n, "grad_f": 13 * n}


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


def dense_gap(ev):
    nonzero = np.abs(ev) > spectral.KERNEL_TOL
    return float(np.min(np.abs(ev[nonzero]))) if np.any(nonzero) else np.inf


@st.composite
def constant_operators(draw):
    rank = draw(st.sampled_from([2, 4]))
    ints = st.integers(-8, 8)
    A = np.array(draw(st.lists(ints, min_size=rank * rank, max_size=rank * rank)), dtype=float)
    A = A.reshape(rank, rank) / 4.0
    period = draw(st.floats(0.2, 5.0))
    n_modes = draw(st.integers(0, 8))
    return assemble_operator(A + A.T, period=period, n_modes=n_modes, rank=rank)


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


def sequential_gap_check(op, n_trials, seed):
    """One trial at a time through a dense eigen-decomposition."""
    evals, evecs = np.linalg.eigh(op.matrix)
    nonzero = np.abs(evals) > spectral.KERNEL_TOL
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
    return worst, worst >= gap2 - spectral.GAP_SLACK


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

    A = square(3.0)
    return A + A.T, standard_J(rank), draw(st.floats(0.2, 5.0)), draw(st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(constant_problems(), st.integers(0, 2**31 - 1))
def test_blocks_are_the_dense_galerkin_matrix(problem, seed):
    S, J0, period, n_modes = problem
    op = assemble_operator(S, period=period, n_modes=n_modes, rank=len(S))
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


# ---------------------------------------------------------------------------
# time-dependent S: the DFT fill against the quadrature Galerkin formula


def quadrature_galerkin(S_samples, J0, period, n_modes):
    """The time-dependent Galerkin matrix by periodic rectangle-rule
    quadrature: M[i::rank, j::rank] -= (F * w S_ij) @ F^T fiber entry by
    fiber entry, after the first-order part, then symmetrized."""
    n_t, r = S_samples.shape[:2]
    ks = np.arange(1, n_modes + 1)
    M = np.zeros((r * (2 * n_modes + 1),) * 2)
    view = M.reshape(2 * n_modes + 1, r, 2 * n_modes + 1, r)
    wJ = (2 * np.pi * ks / period)[:, None, None] * J0
    view[2 * ks - 1, :, 2 * ks, :] += wJ
    view[2 * ks, :, 2 * ks - 1, :] -= wJ
    _, F = spectral._scalar_basis_samples(n_modes, period, n_t)
    for i in range(r):
        for j in range(r):
            W = F * (period / n_t * S_samples[:, i, j])[None, :]
            M[i::r, j::r] -= W @ F.T
    M += M.T
    M *= 0.5
    return M


@st.composite
def time_dependent_problems(draw):
    rank = draw(st.sampled_from([2, 4, 6]))
    n_modes = draw(st.integers(0, 40))
    # even and odd grids, below 2 n_modes + 1 (aliased) and above 4 n_modes + 1
    n_t = draw(st.integers(2, 4 * n_modes + 8))
    A = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n_t, rank, rank))
    return A + A.transpose(0, 2, 1), standard_J(rank), draw(st.floats(0.2, 5.0)), n_modes


@settings(max_examples=80, deadline=None)
@given(time_dependent_problems())
def test_dft_fill_is_the_quadrature_galerkin_matrix(problem):
    S_samples, J0, period, n_modes = problem
    rank, n_t = S_samples.shape[1], len(S_samples)
    op = assemble_operator(S_samples, period=period, n_modes=n_modes, rank=rank, n_t=n_t)
    assert op.blocks is None
    M = op.matrix
    assert np.array_equal(M, M.T)
    oracle = quadrature_galerkin(S_samples, J0, period, n_modes)
    assert np.max(np.abs(M - oracle)) <= 1e-12 * np.max(np.abs(M))
