"""The discrete three-interval lemma and its growth factor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import decay
from contactlab.decay import (
    IntervalSeq,
    gamma_of_c,
    growth_factor,
    random_hypothesis_sequences,
    three_interval_bound,
)
from contactlab.errors import OutOfRange


def test_growth_factor_value():
    # (1 + sqrt(1 - 0.64)) / 0.8 = 1.6 / 0.8
    assert abs(growth_factor(0.4) - 2.0) < 1e-14


def test_growth_factor_limit_at_half():
    assert abs(growth_factor(0.5 - 1e-9) - 1.0) < 1e-4


def test_growth_factor_range_checks():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(OutOfRange):
            growth_factor(bad)
    with pytest.raises(OutOfRange):
        gamma_of_c(0.0)


def test_exponential_identity():
    # gamma(c) = 1/(e^c + e^-c) turns the factor into e^c
    assert abs(gamma_of_c(1.0) - 1.0 / (np.e + 1.0 / np.e)) < 1e-15
    for c in np.linspace(0.01, 5.0, 100):
        assert abs(growth_factor(gamma_of_c(c)) - np.exp(c)) < 1e-12
    # up to the largest c whose gamma(c) is a normal float, relative to e^c
    for c in (300.0, 700.0, decay._MAX_C):
        assert abs(growth_factor(gamma_of_c(c)) / np.exp(c) - 1.0) < 1e-15


def test_exponential_sequence_is_extremal():
    c = 0.9
    gamma = gamma_of_c(c)
    x = np.exp(-c * np.arange(41))
    # the hypothesis holds with equality by construction of gamma(c)
    interior = x[1:-1]
    assert np.max(np.abs(interior - gamma * (x[:-2] + x[2:]))) < 1e-15
    rep = three_interval_bound(IntervalSeq(x, gamma))
    assert rep.hypothesis_holds and rep.bound_holds


def test_violations_reported():
    rep = three_interval_bound(IntervalSeq([1.0, 1.0, 1.0], 0.4))
    assert not rep.hypothesis_holds
    assert list(rep.violations) == [1]  # 1 > 0.4 * (1 + 1)


def test_two_sided_geometric_mixtures():
    g = np.random.Generator(np.random.Philox(42))
    N = 30
    k = np.arange(N + 1, dtype=float)
    for _ in range(200):
        gamma = g.uniform(0.05, 0.49)
        xi = growth_factor(gamma)
        a, b = g.uniform(0, 5, 2)
        x = a * xi**-k + b * xi ** (k - N)
        rep = three_interval_bound(IntervalSeq(x, gamma))
        assert rep.hypothesis_holds
        assert rep.bound_holds


def ratio_random_sequence(g, N, gamma):
    """Exact hypothesis-satisfying sample via the ratio recursion.

    With r_k = x_k / x_{k-1} the hypothesis reads gamma (1/r_k + r_{k+1}) >= 1,
    so choosing r_{k+1} = 1/gamma - 1/r_k + u with u >= 0 realizes every
    admissible sequence; u = 0 stretches are the equality (extremal) case.
    """
    xi = growth_factor(gamma)
    r = g.uniform(1.0 / xi, xi)
    x = [1.0]
    for _ in range(N):
        u = g.exponential(0.5) if g.uniform() < 0.7 else 0.0
        x.append(x[-1] * r)
        r = 1.0 / gamma - 1.0 / r + u
    x = np.array(x)
    return x / np.max(x)


def test_ratio_random_sequences():
    g = np.random.Generator(np.random.Philox(7))
    for _ in range(300):
        N = int(g.integers(3, 51))
        gamma = g.uniform(0.05, 0.49)
        x = ratio_random_sequence(g, N, gamma)
        rep = three_interval_bound(IntervalSeq(x, gamma))
        assert rep.hypothesis_holds
        assert rep.bound_holds


def test_bounded_infinite_sequence_tail_bound():
    # windowed application on a long bounded sequence: the second endpoint
    # term dies off, leaving x_k <= x_0 e^{-ck}
    c = 0.6
    gamma = gamma_of_c(c)
    K = 200
    x = np.exp(-c * np.arange(K + 1))  # bounded, hypothesis-satisfying
    rep = three_interval_bound(IntervalSeq(x, gamma))
    assert rep.bound_holds
    ks = np.arange(K // 2 + 1)
    assert np.all(x[: K // 2 + 1] <= x[0] * np.exp(-c * ks) + 1e-12)


def test_negative_entries_rejected():
    with pytest.raises(OutOfRange):
        IntervalSeq([1.0, -0.1, 0.5], 0.3)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=3, max_value=40),
    st.floats(min_value=0.05, max_value=0.49),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bound_property(N, gamma, seed):
    g = np.random.Generator(np.random.Philox(seed))
    x = ratio_random_sequence(g, N, gamma)
    rep = three_interval_bound(IntervalSeq(x, gamma))
    assert rep.hypothesis_holds
    assert rep.bound_holds


def test_non_finite_entries_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(OutOfRange):
            IntervalSeq([1.0, bad, 0.5], 0.3)
    with pytest.raises(OutOfRange):
        IntervalSeq([[1.0, 0.5, 0.2], [1.0, np.nan, 0.5]], [0.3, 0.3])


def test_stack_needs_one_gamma_per_sequence():
    with pytest.raises(OutOfRange):
        IntervalSeq(np.ones((2, 5)), 0.3)
    with pytest.raises(OutOfRange):
        IntervalSeq(np.ones((2, 5)), [0.3, 0.3, 0.3])
    with pytest.raises(OutOfRange):
        IntervalSeq(np.ones((2, 5)), [0.3, 0.5])


def test_growth_factor_of_an_array_range_checks_every_entry():
    gammas = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(growth_factor(gammas), [growth_factor(g) for g in gammas])
    for bad in (0.0, 0.5, -0.1, np.nan):
        with pytest.raises(OutOfRange):
            growth_factor(np.append(gammas, bad))


def test_growth_factor_of_a_scalar_is_the_math_formula_bit_for_bit():
    g = np.random.Generator(np.random.Philox(11))
    for gamma in g.uniform(0.0, 0.5, 1000):
        xi = growth_factor(float(gamma))
        assert type(xi) is float
        assert xi == (1.0 + math.sqrt(1.0 - 4.0 * gamma * gamma)) / (2.0 * gamma)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stacked_check_matches_the_single_sequence_check(N, n, seed):
    # rows that satisfy the hypothesis mixed with random nonnegative rows,
    # which mostly violate it
    g = np.random.Generator(np.random.Philox(seed))
    gammas = g.uniform(0.05, 0.49, n)
    x = np.array([ratio_random_sequence(g, N, gm) if g.uniform() < 0.5 else g.uniform(0, 1, N + 1)
                  for gm in gammas])
    rep = three_interval_bound(IntervalSeq(x, gammas))
    assert rep.hypothesis_holds.shape == rep.bound_holds.shape == rep.xi.shape == (n,)
    assert rep.bound.shape == x.shape and rep.violations.shape[1] == 2
    for i in range(n):
        one = three_interval_bound(IntervalSeq(x[i], gammas[i]))
        assert rep.hypothesis_holds[i] == one.hypothesis_holds
        assert rep.bound_holds[i] == one.bound_holds
        assert np.array_equal(rep.bound[i], one.bound)
        assert rep.xi[i] == one.xi
        assert np.array_equal(rep.violations[rep.violations[:, 0] == i, 1], one.violations)


def test_random_hypothesis_sequences():
    n, N = 5000, 30
    gamma, x = random_hypothesis_sequences(np.random.Generator(np.random.Philox(5)), n, N)
    assert gamma.shape == (n,) and x.shape == (n, N + 1)
    assert np.all((0.05 <= gamma) & (gamma < 0.49))
    assert np.all(x >= 0)
    assert np.all(x[:, 1:-1] <= gamma[:, None] * (x[:, :-2] + x[:, 2:]) + 1e-12)
    # ratio-recursion rows are normalized to a maximum of exactly 1; the
    # two-sided mixtures (a, b < 1) almost surely are not
    share = np.mean(np.max(x, axis=1) == 1.0)
    assert abs(share - 0.5) < 5 * math.sqrt(0.25 / n)
    gamma2, x2 = random_hypothesis_sequences(np.random.Generator(np.random.Philox(5)), n, N)
    assert np.array_equal(gamma, gamma2) and np.array_equal(x, x2)


def test_random_hypothesis_sequences_stay_finite_when_long():
    # xi ~ 20 at gamma = 0.05, so r_0 ... r_{k-1} overflows a double long
    # before k = 2000; the log-space recursion keeps every row finite
    gamma, x = random_hypothesis_sequences(np.random.Generator(np.random.Philox(2)), 200, 2000)
    assert np.all(np.isfinite(x))
    rep = three_interval_bound(IntervalSeq(x, gamma))
    assert np.all(rep.hypothesis_holds) and np.all(rep.bound_holds)
