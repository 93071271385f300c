"""Gradients with respect to the triad metric."""

import numpy as np
import pytest

from contactlab import core
from contactlab.errors import IncompatibleJ
from contactlab.models import darboux_chart, standard_darboux_J


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_constant_function_has_zero_gradient():
    ch = darboux_chart(1)
    J = standard_darboux_J(ch)
    grad = core.triad_gradient(ch, J, lambda x: 4.2, np.array([0.1, 0.2, 0.3]))
    assert np.max(np.abs(grad)) < 1e-10


def test_gradient_solves_metric_equation():
    ch = darboux_chart(1)
    J = standard_darboux_J(ch)
    g = rng(1)

    def h(x):
        return x[2] + 0.3 * x[0] * x[1]

    for _ in range(50):
        x = g.uniform(-1, 1, 3)
        grad = core.triad_gradient(ch, J, h, x)
        G = core.triad_metric(ch, J, x)
        dh = core.fd_gradient(h, x)
        v = g.uniform(-1, 1, 3)
        assert abs(grad @ G @ v - dh @ v) < 1e-8


def test_gradient_invariant_under_constant_shift():
    ch = darboux_chart(1)
    J = standard_darboux_J(ch)
    x = np.array([0.4, -0.2, 0.7])

    def h(y):
        return y[0] ** 2 - y[2]

    g1 = core.triad_gradient(ch, J, h, x)
    g2 = core.triad_gradient(ch, J, lambda y: h(y) + 5.0, x)
    assert np.max(np.abs(g1 - g2)) < 1e-9


def test_reeb_component_is_reeb_derivative():
    # g(grad h, X) = dh(X), and g(., X) = lam, so lam(grad h) = X[h]
    ch = darboux_chart(1)
    J = standard_darboux_J(ch)
    x = np.array([0.1, 0.9, -0.3])

    def h(y):
        return np.sin(y[2]) + y[1]

    grad = core.triad_gradient(ch, J, h, x)
    X = core.reeb_field(ch, x)
    dh = core.fd_gradient(h, x)
    assert abs(ch.lambda_at(x) @ grad - dh @ X) < 1e-9


def test_polar_structure_is_compatible():
    ch = darboux_chart(2)
    g = rng(2)
    for _ in range(5):
        x = g.uniform(-1, 1, 5)
        J = core.compatible_xi_structure(ch, x)
        Pi = core.xi_projection_matrix(ch, x)
        assert np.max(np.abs(J @ J + Pi)) < 1e-10
        G = core.triad_metric(ch, lambda _: J, x)
        assert np.all(np.linalg.eigvalsh(G) > 1e-10)


def test_incompatible_J_rejected():
    ch = darboux_chart(1)
    with pytest.raises(IncompatibleJ):
        core.triad_gradient(ch, lambda x: np.eye(3), lambda x: x[0], np.zeros(3))


def test_triad_metric_evaluates_the_chart_once(counting_chart):
    # it used to solve for Pi and then evaluate lam and dlam again: 2 of each
    ch, calls = counting_chart(darboux_chart(1))
    J = standard_darboux_J(ch)
    x = np.array([0.1, 0.2, 0.3])
    G = core.triad_metric(ch, J, x)
    assert calls == {"lam": 1, "grad": 1}
    core.triad_gradient(ch, J, lambda y: y[0] ** 2 + y[2], x)
    assert calls == {"lam": 2, "grad": 2}
    L, D = ch.lambda_at(x), ch.dlambda_at(x)
    G0 = D @ J(x) + np.outer(L, L)
    assert np.array_equal(G, 0.5 * (G0 + G0.T))


def test_compatible_xi_structure_evaluates_the_chart_once(counting_chart):
    # it used to make 2 lam and 3 grad calls: xi_frame, dlambda_at, reeb_field
    ch, calls = counting_chart(darboux_chart(2))
    x = rng(3).uniform(-1, 1, 5)
    J = core.compatible_xi_structure(ch, x)
    assert calls == {"lam": 1, "grad": 1}
    S, X = core.xi_frame(ch, x), core.reeb_field(ch, x)
    assert np.max(np.abs(J @ S - S @ (S.T @ J @ S))) < 1e-12  # J preserves xi
    assert np.max(np.abs(J @ X)) < 1e-12  # and vanishes on the Reeb direction
