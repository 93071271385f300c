"""The circle primitives of core: angle wrapping, loop lifting, periodic derivatives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab.core import periodic_derivative, unwrap_angles, wrap_angles

# chart-convention periods: None marks a plain coordinate
PERIODS = st.lists(
    st.one_of(st.none(), st.floats(min_value=0.1, max_value=10.0)), min_size=1, max_size=4
)


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@settings(max_examples=60, deadline=None)
@given(PERIODS, st.integers(min_value=0, max_value=2**31 - 1))
def test_wrap_angles_reduces_to_the_half_open_window(periods, seed):
    g = rng(seed)
    d = g.uniform(-50.0, 50.0, (7, len(periods)))
    w = wrap_angles(d, periods)
    for i, P in enumerate(periods):
        if P is None:
            assert np.array_equal(w[:, i], d[:, i])
            continue
        assert np.all((-P / 2 <= w[:, i]) & (w[:, i] < P / 2))
        k = (d[:, i] - w[:, i]) / P
        assert np.max(np.abs(k - np.round(k))) < 1e-9
        # the formula each module used to write out by hand, bit for bit,
        # except at its rounded-up end P/2, which is -P/2
        old = (d[:, i] + P / 2.0) % P - P / 2.0
        assert np.array_equal(w[:, i], np.where(old == P / 2.0, -P / 2.0, old))
    assert np.array_equal(wrap_angles(d, None), d)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_wrap_angles_never_returns_the_open_end(P, turns, seed):
    # inputs within a few ulps of a window edge -P/2 + turns P, where the
    # float % can round a tiny negative remainder up to P itself
    edge = -P / 2.0 + turns * P
    d = edge + np.spacing(edge) * rng(seed).integers(-8, 9, 256)
    w = wrap_angles(d[:, None], [P])[:, 0]
    assert np.all((-P / 2.0 <= w) & (w < P / 2.0))
    k = (d - w) / P
    assert np.max(np.abs(k - np.round(k))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(PERIODS, st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=1))
def test_unwrap_angles_recovers_a_continuous_path(periods, seed, axis):
    # a path winding up to five times, sampled finely enough that no step
    # comes near P/2 (each step is below P/40)
    g = rng(seed)
    dim = len(periods)
    P = np.array([np.nan if p is None else p for p in periods])
    angles = ~np.isnan(P)
    scale = np.where(angles, P, 1.0)
    t = np.linspace(0.0, 1.0, 400)
    path = scale * (
        g.uniform(-5.0, 5.0, dim)
        + np.outer(t, g.uniform(-5.0, 5.0, dim))
        + np.outer(np.sin(2 * np.pi * t), g.uniform(-0.5, 0.5, dim))
    )
    grid = np.stack([path, path + 0.01], axis=1 - axis)  # a second axis, not lifted
    sampled = grid.copy()
    sampled[..., angles] = np.mod(grid[..., angles], P[angles])
    lifted = unwrap_angles(sampled, periods, axis=axis)
    # the lift starts from the first sample, so it is the path shifted by whole periods
    shift = np.take(grid - lifted, [0], axis=axis)[..., angles]
    assert np.max(np.abs(lifted[..., angles] + shift - grid[..., angles]), initial=0.0) < 1e-9
    k = shift / P[angles]
    assert np.max(np.abs(k - np.round(k)), initial=0.0) < 1e-9
    assert np.array_equal(lifted[..., ~angles], sampled[..., ~angles])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.5, max_value=10.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_periodic_derivative_is_exact_on_trigonometric_polynomials(degree, period, seed):
    g = rng(seed)
    n = 2 * degree + 2 + int(g.integers(0, 8))  # degree < n / 2
    t = np.arange(n) * (period / n)
    k = np.arange(1, degree + 1)
    a, b = g.standard_normal((2, degree, 3))
    phase = 2 * np.pi * np.outer(t, k) / period
    f = g.standard_normal(3) + np.cos(phase) @ a + np.sin(phase) @ b
    omega = 2 * np.pi * k / period
    df = -np.sin(phase) @ (omega[:, None] * a) + np.cos(phase) @ (omega[:, None] * b)
    scale = 1.0 + np.max(np.abs(omega)) * (np.abs(a).sum() + np.abs(b).sum())
    assert np.max(np.abs(periodic_derivative(f, period) - df)) < 1e-12 * n * scale
    assert np.max(np.abs(periodic_derivative(f[:, 0], period) - df[:, 0])) < 1e-12 * n * scale
