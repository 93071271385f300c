"""Closed-form identities for conformally rescaled contact forms."""

import warnings

import numpy as np
import pytest

from contactlab import cli, core
from contactlab.core import PerturbationData, perturbed_chart
from contactlab.errors import ModeMismatch, OutOfRange
from contactlab.models import darboux_chart, weighted_tube_chart
from oracle_models import exp_factor_chart


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def constant_factor(c):
    return PerturbationData(lambda x: c, lambda x: np.zeros(len(x)))


def exp_z_factor(dim):
    def f(x):
        return float(np.exp(x[-1]))

    def grad_f(x):
        g = np.zeros(dim)
        g[-1] = np.exp(x[-1])
        return g

    return PerturbationData(f, grad_f)


def random_positive_factor(g, dim):
    c0 = g.uniform(0.2, 1.0)
    lin = g.uniform(-0.5, 0.5, dim)

    def f(x):
        s = c0 + float(lin @ x)
        return 0.5 + s * s

    def grad_f(x):
        s = c0 + float(lin @ x)
        return 2.0 * s * lin

    return PerturbationData(f, grad_f)


def test_constant_factor_scales_reeb():
    ch = darboux_chart(1)
    x = np.array([0.1, 0.4, -0.3])
    got = core.perturbed_reeb(ch, constant_factor(2.0), x)
    assert np.allclose(got, [0, 0, 0.5], atol=1e-12)


def test_exp_factor_closed_form():
    # Y_{dz} = -p d/dp, so X_{f lam} = e^-z (d/dz - p d/dp)
    ch = darboux_chart(1)
    pert = exp_z_factor(3)
    x = np.array([0.4, 1.7, 0.6])
    got = core.perturbed_reeb(ch, pert, x)
    expected = np.exp(-x[2]) * np.array([0.0, -x[1], 1.0])
    assert np.max(np.abs(got - expected)) < 1e-9
    # and it agrees with the direct Reeb solve of the rescaled chart
    direct = core.reeb_solve(exp_factor_chart(1), x).vector
    assert np.max(np.abs(got - direct)) < 1e-8


def test_dg_validates_against_finite_differences():
    # dg = grad_f / f, the form the rescaled identities take from one read of f
    g = rng(1)
    pert = random_positive_factor(g, 3)
    for _ in range(5):
        x = g.uniform(-1, 1, 3)
        fd = core.fd_gradient(lambda y: np.log(pert.f_at(y)), x)
        assert np.max(np.abs(pert.grad_f(x) / pert.f_at(x) - fd)) < 1e-8


def test_a_point_rescaled_identity_reads_f_once():
    # dg was taken from a second read of f after the one of the rescaled parts
    calls = []
    pert = exp_z_factor(3)
    counted = PerturbationData(lambda y: calls.append("f") or pert.f(y),
                               lambda y: calls.append("grad_f") or pert.grad_f(y))
    x = np.array([0.4, 1.7, 0.6])
    for fn in (lambda: core.perturbed_reeb(darboux_chart(1), counted, x),
               lambda: core.perturbed_projection(darboux_chart(1), counted, x[::-1], x)):
        calls.clear()
        fn()
        assert calls == ["f", "grad_f"]


def test_a_factor_whose_dg_overflows_is_out_of_range():
    # a stack returned nan where a point raised
    pert = PerturbationData(lambda y: 1e-310, lambda y: np.array([1.0, 0.0, 0.0]))
    x = np.array([0.1, 0.2, 0.3])
    with np.errstate(over="ignore"):
        for points in (x, x[None]):
            with pytest.raises(OutOfRange, match="dg must be finite"):
                core.perturbed_reeb(darboux_chart(1), pert, points)


@pytest.mark.parametrize("filters", ["error", "ignore"])
@pytest.mark.parametrize(
    "f, Z, name, what",
    [(1e-300, 1.0, "reeb", "rescaled Reeb field must be finite"),
     (1e-310, 1.0, "reeb", "dg must be finite"),
     (1e-300, 1e10, "projection", "rescaled xi-projection must be finite"),
     (1e-310, 1.0, "projection", "dg must be finite")],
)
def test_a_tiny_factor_is_out_of_range_naming_what_overflows(f, Z, name, what, filters):
    # f = 1e-300 returned [0, -inf, 1e300] (Z = 1e10: inf in the projection),
    # and under an error filter each case ended in a raw RuntimeWarning
    pert = PerturbationData(lambda y: f, lambda y: np.array([1.0, 0.0, 0.0]))
    x = np.array([0.1, 0.2, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter(filters)
        for points in (x, x[None]):
            with pytest.raises(OutOfRange, match=what):
                if name == "reeb":
                    core.perturbed_reeb(darboux_chart(1), pert, points)
                else:
                    core.perturbed_projection(darboux_chart(1), pert, Z * np.ones_like(points), points)


def test_formula_vs_direct_solve_random_factors():
    ch = darboux_chart(1)
    g = rng(2)
    worst = 0.0
    for _ in range(50):
        x = g.uniform(-1, 1, 3)
        pert = random_positive_factor(g, 3)
        closed = core.perturbed_reeb(ch, pert, x)
        direct = core.reeb_solve(perturbed_chart(ch, pert), x).vector
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    assert worst < 1e-8


def test_perturbed_reeb_satisfies_defining_equations():
    ch = darboux_chart(2)
    g = rng(3)
    for _ in range(10):
        x = g.uniform(-1, 1, 5)
        pert = random_positive_factor(g, 5)
        X = core.perturbed_reeb(ch, pert, x)
        chf = perturbed_chart(ch, pert)
        L = chf.lambda_at(x)
        D = chf.dlambda_at(x)
        assert abs(L @ X - 1) < 1e-8
        assert np.max(np.abs(D.T @ X)) < 1e-8


def test_perturbed_projection_trivial_cases():
    ch = darboux_chart(1)
    x = np.array([0.2, 0.5, 0.1])
    Z = np.array([0.3, -0.7, 1.1])
    # f = 1: reduces to the plain projection
    got = core.perturbed_projection(ch, constant_factor(1.0), Z, x)
    Zxi = core.xi_projection_matrix(ch, x) @ Z
    assert np.allclose(got, Zxi, atol=1e-12)
    # lam(Z) = 0: correction term vanishes for any factor
    pert = exp_z_factor(3)
    got2 = core.perturbed_projection(ch, pert, Zxi, x)
    assert np.allclose(got2, Zxi, atol=1e-10)


def test_perturbed_projection_worked_example():
    # f = e^z, Z = d/dz: pi_lam(Z) = 0, lam(Z) = 1, correction gives p d/dp
    ch = darboux_chart(1)
    x = np.array([0.6, -1.4, 0.2])
    got = core.perturbed_projection(ch, exp_z_factor(3), [0.0, 0.0, 1.0], x)
    assert np.max(np.abs(got - np.array([0.0, x[1], 0.0]))) < 1e-9


def test_perturbed_projection_vs_direct():
    ch = darboux_chart(1)
    g = rng(4)
    for _ in range(30):
        x = g.uniform(-1, 1, 3)
        Z = g.uniform(-1, 1, 3)
        pert = random_positive_factor(g, 3)
        got = core.perturbed_projection(ch, pert, Z, x)
        chf = perturbed_chart(ch, pert)
        lamZ = float(chf.lambda_at(x) @ Z)
        direct = Z - lamZ * core.reeb_solve(chf, x).vector
        assert np.max(np.abs(got - direct)) < 1e-8


@pytest.mark.parametrize("Z", [np.ones(4), np.ones((3, 3)), np.ones(2)], ids=["4", "3x3", "2"])
def test_perturbed_projection_rejects_Z_not_shaped_for_the_chart(Z):
    # used to end in a raw ValueError from matmul, or a TypeError for a stack
    with pytest.raises(ModeMismatch, match=r"\(3,\)"):
        core.perturbed_projection(darboux_chart(1), constant_factor(2.0), Z, np.zeros(3))


def test_nonpositive_factor_rejected():
    ch = darboux_chart(1)
    bad = PerturbationData(lambda x: -1.0, lambda x: np.zeros(3))
    with pytest.raises(OutOfRange, match="must be positive"):
        core.perturbed_reeb(ch, bad, np.zeros(3))
    # perturbed_projection used to return [1, 1, 0] here, and the xi-part of
    # the dual field of dg to end in a RuntimeWarning from the log of the
    # finite-difference route
    with pytest.raises(OutOfRange, match="must be positive"):
        core.perturbed_projection(ch, bad, np.ones(3), np.zeros(3))
    with pytest.raises(OutOfRange, match="must be positive"):
        core.perturbed_reeb(ch, PerturbationData(lambda y: -2.0, lambda y: np.zeros(3)), np.zeros(3))


def test_rescaled_identities_evaluate_the_chart_once(counting_chart):
    # perturbed_reeb used to make 3 lam and 3 grad calls, perturbed_projection 4 and 3
    g = rng(7)
    x, Z = g.uniform(-1, 1, (2, 5))
    pert = random_positive_factor(g, 5)
    for call in [lambda ch: core.perturbed_reeb(ch, pert, x),
                 lambda ch: core.perturbed_projection(ch, pert, Z, x)]:
        ch, calls = counting_chart(exp_factor_chart(2))
        assert np.array_equal(call(ch), call(exp_factor_chart(2)))
        assert calls == {"lam": 1, "grad": 1}


def test_perturbed_reeb_scenario_solves_the_rescaled_chart_once_per_sample(monkeypatch, counting_chart):
    # it used to solve the finite-difference chart twice per sample and read lam once more
    lam_calls = []
    real = core.perturbed_chart

    def counted_chart(chart, pert):
        chf, calls = counting_chart(real(chart, pert))
        lam_calls.append(calls)
        return chf

    probe, probe_calls = counting_chart(real(darboux_chart(2), random_positive_factor(rng(1), 5)))
    core.reeb_solve(probe, np.full(5, 0.1))
    monkeypatch.setattr(core, "perturbed_chart", counted_chart)
    n_samples = 6
    report = cli.run_scenario(cli._resolve(
        {"kind": "perturbed_reeb", "seed": 3, "params": {"n": 2, "n_samples": n_samples}}, "test"))
    assert report.verdicts and all(v.passed for v in report.verdicts)
    assert sum(c["lam"] for c in lam_calls) == n_samples * probe_calls["lam"]


@pytest.mark.parametrize("chart", [darboux_chart(1), darboux_chart(2), weighted_tube_chart(1.0, 2**0.5)],
                         ids=["darboux1", "darboux2", "tube"])
def test_rescaled_identities_of_a_stack_are_those_of_its_rows(chart):
    g = rng(5)
    pert = random_positive_factor(g, chart.dim)
    xs, Zs = g.uniform(-0.5, 0.5, (6, chart.dim)), g.standard_normal((6, chart.dim))
    rows = np.array([core.perturbed_reeb(chart, pert, x) for x in xs])
    assert np.array_equal(core.perturbed_reeb(chart, pert, xs), rows)
    rows = np.array([core.perturbed_projection(chart, pert, Z, x) for Z, x in zip(Zs, xs)])
    assert np.array_equal(core.perturbed_projection(chart, pert, Zs, xs), rows)
