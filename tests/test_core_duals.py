"""Dual isomorphism, projections, Darboux-chart identities, contact volume."""

import functools
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactlab import cli, core, dynamics
from contactlab import normalform as nf
from contactlab.core import ContactChart, standard_J
from contactlab.errors import ModeMismatch, OutOfRange, SingularChart
from contactlab.models import (
    darboux_chart,
    darboux_flat_dual_formula,
    torus_chart,
    weighted_tube_chart,
)
from oracle_models import exp_factor_chart, loop_fd_gradient


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def random_antisymmetric(g, shape):
    X = g.standard_normal(shape)
    return X - np.swapaxes(X, -1, -2)


def cofactor_pfaffian(A):
    """Pfaffian by expansion along the first row: the oracle for core._pfaffian."""
    m = A.shape[0]
    if m == 0:
        return 1.0
    if m % 2 == 1:
        return 0.0
    total = 0.0
    for pos, j in enumerate(range(1, m)):
        rest = [k for k in range(1, m) if k != j]
        total += (-1) ** pos * A[0, j] * cofactor_pfaffian(A[np.ix_(rest, rest)])
    return float(total)


def test_reeb_field_standard_chart():
    ch = darboux_chart(1)
    for x in ([0.0, 0.0, 0.0], [0.4, -1.2, 3.0]):
        X = core.reeb_solve(ch, x).vector
        assert np.allclose(X, [0, 0, 1], atol=1e-12)


def test_reeb_field_scaled_chart():
    c = 2.5
    ch = darboux_chart(1, scale=c)
    X = core.reeb_solve(ch, [0.3, 0.7, -0.2]).vector
    assert np.allclose(X, [0, 0, 1 / c], atol=1e-12)


def test_reeb_field_exp_factor_chart():
    # oracle: the defining equations themselves, checked by substitution
    ch = exp_factor_chart(1)
    x = np.array([0.2, -0.5, 0.3])
    X = core.reeb_solve(ch, x).vector
    expected = np.exp(-x[2]) * np.array([0.0, 0.5, 1.0])  # e^-z (dz - p dp)
    assert np.allclose(X, expected, atol=1e-9)
    L = ch.lambda_at(x)
    D = ch.dlambda_at(x)
    assert abs(L @ X - 1) < 1e-10
    assert np.max(np.abs(D.T @ X)) < 1e-10


def test_reeb_residual_reported():
    ch = darboux_chart(2)
    sol = core.reeb_solve(ch, np.zeros(5))
    assert sol.residual < 1e-10
    assert np.isfinite(sol.cond)


def test_project_xi_examples():
    ch = darboux_chart(1)
    x = np.array([0.1, 2.0, 0.0])  # p = 2
    X = core.reeb_solve(ch, x).vector
    P = core.xi_projection_matrix(ch, x)
    # kernel of the projection
    assert np.allclose(P @ X, 0, atol=1e-12)
    # xi is fixed
    Z = np.array([1.0, 0.3, 2.0])  # lam(Z) = 1*(-p) + 2 = 0 at p = 2
    assert abs(ch.lambda_at(x) @ Z) < 1e-14
    assert np.allclose(P @ Z, Z, atol=1e-12)
    # worked example: d/dz + d/dq at p = 2 -> d/dq + 2 d/dz
    Z2 = np.array([1.0, 0.0, 1.0])
    assert np.allclose(P @ Z2, [1.0, 0.0, 2.0], atol=1e-12)


def test_project_xi_idempotent():
    ch = darboux_chart(2)
    g = rng(3)
    for _ in range(20):
        x = g.uniform(-1, 1, 5)
        Z = g.uniform(-1, 1, 5)
        P = core.xi_projection_matrix(ch, x)
        once = P @ Z
        twice = P @ once
        assert np.max(np.abs(twice - once)) < 1e-12


def test_flat_dual_darboux_values():
    ch = darboux_chart(1)
    x = np.array([0.7, 1.3, -0.4])
    # flat(lam) = Reeb field
    assert np.allclose(core.flat_dual(ch, ch.lambda_at(x), x), [0, 0, 1], atol=1e-11)
    # alpha = dq1 -> -d/dp1
    assert np.allclose(core.flat_dual(ch, [1.0, 0, 0], x), [0, -1, 0], atol=1e-11)
    # alpha = dp1 -> p1 d/dz + d/dq1
    assert np.allclose(core.flat_dual(ch, [0, 1.0, 0], x), [1.0, 0, x[1]], atol=1e-11)


def test_sharp_dual_follows_defining_equation():
    # The defining equation gives sharp(-d/dp1) = +dq1; the printed inverse
    # formula has the opposite sign and is not used as an oracle.
    ch = darboux_chart(1)
    x = np.array([-0.2, 0.9, 0.5])
    assert np.allclose(core.sharp_dual(ch, [0, -1.0, 0], x), [1.0, 0, 0], atol=1e-12)
    # sharp(Reeb) = lam
    X = core.reeb_solve(ch, x).vector
    assert np.allclose(core.sharp_dual(ch, X, x), ch.lambda_at(x), atol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trips(n):
    ch = darboux_chart(n)
    g = rng(10 + n)
    worst = 0.0
    for _ in range(100):
        x = g.uniform(-1, 1, ch.dim)
        a = g.uniform(-1, 1, ch.dim)
        v = core.flat_dual(ch, a, x)
        worst = max(worst, float(np.max(np.abs(core.sharp_dual(ch, v, x) - a))))
        X = g.uniform(-1, 1, ch.dim)
        al = core.sharp_dual(ch, X, x)
        worst = max(worst, float(np.max(np.abs(core.flat_dual(ch, al, x) - X))))
    assert worst < 1e-9


def test_lambda_of_flat_equals_alpha_of_reeb():
    ch = darboux_chart(2)
    g = rng(4)
    for _ in range(50):
        x = g.uniform(-1, 1, 5)
        a = g.uniform(-1, 1, 5)
        lhs = ch.lambda_at(x) @ core.flat_dual(ch, a, x)
        rhs = a @ core.reeb_solve(ch, x).vector
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_flat_dual_component_formula(n):
    ch = darboux_chart(n)
    g = rng(20 + n)
    for _ in range(50):
        x = g.uniform(-2, 2, ch.dim)
        coeffs = g.uniform(-1, 1, ch.dim)
        got = core.flat_dual(ch, coeffs, x)
        ref = darboux_flat_dual_formula(n, coeffs[-1], coeffs[:n], coeffs[n : 2 * n], x)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_hamiltonian_dual_formula():
    # flat(dh) components from the printed special case, h = q1*p1 + z^2
    ch = darboux_chart(1)
    x = np.array([0.5, -1.1, 0.8])
    q, p, z = x

    def h(y):
        return y[0] * y[1] + y[2] ** 2

    dh = core.fd_gradient(h, x)
    got = core.flat_dual(ch, dh, x)
    hz, hq, hp = 2 * z, p, q
    expected = np.array([hp, -hq - p * hz, hz + p * hp])
    assert np.max(np.abs(got - expected)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(0, 3), st.data())
def test_fd_gradient_is_the_row_loop_bit_for_bit(d, m, data):
    # f is a polynomial with m components (a scalar for m = 0); the one-op
    # stencil calls f at the loop's points in the loop's order, signed zeros
    # of x included, and combines the values to the same bits
    coord = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
    x = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)), dtype=float)
    A, B = (np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=max(m, 1) * d, max_size=max(m, 1) * d)))
            .reshape(max(m, 1), d) for _ in range(2))

    def recorded(calls):
        def f(y):
            calls.append(y.copy())
            v = A @ y + B @ (y * y) + y[0] * y[-1]
            return v if m else v[0]
        return f

    calls, loop_calls = [], []
    got, want = core.fd_gradient(recorded(calls), x), loop_fd_gradient(recorded(loop_calls), x)
    assert got.shape == want.shape == ((d, m) if m else (d,))
    assert got.tobytes() == want.tobytes()
    assert np.array(calls).tobytes() == np.array(loop_calls).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_point_reeb_residual_is_the_numpy_expression(d, seed):
    # the float residual of a point solve: below 8 entries of D^T v it sums
    # as np.sum does, from 8 on it calls np.sum; entries of mixed magnitude,
    # so the order of the sum shows in the last bits
    g = rng(seed)
    L, v = g.standard_normal((2, d)) * 10.0 ** g.integers(-3, 4, (2, d))
    D = g.standard_normal((d, d)) * 10.0 ** g.integers(-3, 4, (d, d))
    assert core._point_residual(L, D, v) == float(np.sqrt((L @ v - 1.0) ** 2 + np.sum((D.T @ v) ** 2)))


def test_singular_chart_raises():
    from contactlab.core import ContactChart

    degenerate = ContactChart(
        n=1, lam=lambda x: np.array([0.0, 0.0, 1.0]), grad=lambda x: np.zeros((3, 3))
    )
    with pytest.raises(SingularChart):
        core.reeb_solve(degenerate, np.zeros(3))


def test_vanishing_form_raises_singular_chart():
    # every singular value is 0: the message must not divide by sigma_max
    from contactlab.core import ContactChart

    zero = ContactChart(n=1, lam=lambda x: np.zeros(3), grad=lambda x: np.zeros((3, 3)))
    with pytest.raises(SingularChart, match="sigma_max = 0.00e"):
        core.reeb_solve(zero, np.zeros(3))


def test_wrong_length_lambda_names_the_dimension():
    from contactlab.core import ContactChart

    short = ContactChart(n=1, lam=lambda x: np.zeros(2))
    with pytest.raises(ModeMismatch, match="needs 3 components"):
        short.lambda_at(np.zeros(3))
    with pytest.raises(ModeMismatch, match=r"needs shape \(3, 3\)"):
        short.dlambda_at(np.zeros(3))


def test_periods_need_one_entry_per_coordinate():
    with pytest.raises(ModeMismatch, match="one period entry per coordinate"):
        ContactChart(n=1, lam=lambda x: np.zeros(3), periods=(1.0, None))


def test_shipped_dual_round_trip_error_is_at_roundoff():
    # the dual systems are solved by LU, which leaves about 4e-16 on this
    # scenario; an SVD least-squares solve leaves 1.6e-14
    report = cli.run_scenario(cli.load_scenario(SCENARIOS / "dual_round_trip.json"))
    assert report.results["max_round_trip_error"] < 2e-15


def test_pfaffian_matches_cofactor_expansion():
    g = rng(30)
    for m in range(2, 9):
        for _ in range(50):
            A = random_antisymmetric(g, (m, m))
            got, ref = core._pfaffian(A), cofactor_pfaffian(A)
            if m % 2:
                assert got == 0.0 == ref
            else:
                assert abs(got - ref) <= 1e-12 * abs(ref)


def test_pfaffian_of_a_stack_equals_the_loop():
    A = random_antisymmetric(rng(31), (2, 10, 8, 8))
    stacked = core._pfaffian(A)
    assert stacked.shape == (2, 10)
    assert np.array_equal(stacked, [[core._pfaffian(a) for a in row] for row in A])


def test_pfaffian_of_odd_order_is_zero():
    A = random_antisymmetric(rng(32), (4, 7, 7))
    assert core._pfaffian(A[0]) == 0.0
    assert np.array_equal(core._pfaffian(A), np.zeros(4))


def test_pfaffian_with_a_zero_row_is_exactly_zero():
    A = random_antisymmetric(rng(33), (6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in range(6):
            Z = A.copy()
            Z[j, :] = 0.0
            Z[:, j] = 0.0
            assert core._pfaffian(Z) == 0.0
        assert core._pfaffian(np.zeros((3, 4, 4))).tolist() == [0.0, 0.0, 0.0]


def test_contact_volume_of_a_point_and_of_a_stack():
    ch = darboux_chart(2)
    xs = rng(7).uniform(-1, 1, (6, ch.dim))
    vols = core.contact_volume(ch, xs)
    single = [core.contact_volume(ch, x) for x in xs]
    assert vols.shape == (6,)
    assert all(type(v) is float for v in single)
    assert np.array_equal(vols, single)


def test_contact_volume_sign_consistent():
    ch = darboux_chart(2)
    g = rng(6)
    pts = [g.uniform(-2, 2, 5) for _ in range(20)]
    vols = core.contact_volume(ch, pts)
    assert np.all(vols > 0) or np.all(vols < 0)
    assert np.min(np.abs(vols)) > 0.5
    assert core.reeb_solve(ch, pts).residual < 1e-10


STACK_CHARTS = [torus_chart(), weighted_tube_chart(1.0, 2**0.5)] + [darboux_chart(n) for n in (1, 2, 3)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(STACK_CHARTS),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stacked_reeb_solve_is_the_loop_of_point_solves(ch, n_points, seed):
    xs = rng(seed).uniform(-1, 1, (n_points, ch.dim))
    stacked = core.reeb_solve(ch, xs)
    points = [core.reeb_solve(ch, x) for x in xs]
    assert np.array_equal(stacked.vector, [p.vector for p in points])
    assert np.array_equal(stacked.lam, [p.lam for p in points])
    assert stacked.residual == max(p.residual for p in points)
    assert stacked.cond == max(p.cond for p in points)
    assert type(stacked.residual) is float and type(stacked.cond) is float


def _vanishing_at_z0_chart():
    """z * (dz - p dq): contact where z != 0, lam = 0 on the plane z = 0."""

    def grad(x):
        G = np.zeros((3, 3))
        G[1, 0], G[2, 0], G[2, 2] = -x[2], -x[1], 1.0
        return G

    return ContactChart(1, lambda x: x[2] * np.array([-x[1], 0.0, 1.0]), grad, name="z*darboux")


def test_stacked_reeb_solve_names_the_singular_point():
    ch = _vanishing_at_z0_chart()
    xs = np.array([[0.1, 0.2, 1.0], [0.3, -0.4, 2.0], [0.5, 0.25, 0.0], [0.1, 0.1, 0.0]])
    assert core.reeb_solve(ch, xs[:2]).residual < 1e-12
    with pytest.raises(SingularChart, match=r"z\*darboux: .* at point 2 of the stack, \[0\.5 +0\.25 +0\. *\]"):
        core.reeb_solve(ch, xs)


def test_stacked_reeb_solve_rejects_an_empty_or_misshapen_stack():
    ch = darboux_chart(1)
    with pytest.raises(OutOfRange):
        core.reeb_solve(ch, np.zeros((0, 3)))
    for shape in [(4, 2), (2, 4, 3), ()]:
        with pytest.raises(ModeMismatch):
            core.reeb_solve(ch, np.zeros(shape))


def test_xi_projections_evaluate_lambda_once():
    # lambda comes from the Reeb solve, not from a second chart evaluation
    calls = []
    base = exp_factor_chart(1)
    ch = ContactChart(1, lambda x: calls.append(1) or base.lam(x), base.grad)
    x = np.array([0.2, -0.5, 0.3])
    P = core.xi_projection_matrix(ch, x)
    assert len(calls) == 1
    assert np.array_equal(P, np.eye(3) - np.outer(core.reeb_solve(base, x).vector, base.lam(x)))


def test_return_map_reads_its_base_point_once(monkeypatch):
    # the projection, the frame and dlam at p come from one chart read
    base = torus_chart()
    reads, in_monodromy = [], []

    def counted(kind, fn):
        def read(x):
            if not in_monodromy:
                reads.append((kind, x.tolist()))
            return fn(x)

        return read

    ch = ContactChart(1, counted("lam", base.lam), counted("grad", base.grad), "torus", base.periods)
    orbit = dynamics.ReebOrbit.from_point(ch, np.array([0.1, 0.2, 0.3]), 1.0)
    monodromy = dynamics.monodromy

    def flagged(*args, **kwargs):
        in_monodromy.append(1)
        try:
            return monodromy(*args, **kwargs)
        finally:
            in_monodromy.pop()

    monkeypatch.setattr(dynamics, "monodromy", flagged)
    reads.clear()
    rm = dynamics.return_map(orbit)
    p = orbit.base_point.tolist()
    assert reads == [("lam", p), ("grad", p)]
    assert np.max(np.abs(rm.matrix - np.eye(2))) < 1e-8


STD_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])
# chart name -> (chart factory, point sampler); d = 3, 5 and 7
KERNEL_CHARTS = {
    **{f"darboux{n}": (lambda n=n: darboux_chart(n), lambda g, d: g.uniform(-1, 1, d)) for n in (1, 2, 3)},
    **{f"exp_factor{n}": (lambda n=n: exp_factor_chart(n), lambda g, d: g.uniform(-1, 1, d)) for n in (1, 2)},
    "torus": (torus_chart, lambda g, d: g.uniform(-1, 1, d)),
    "tube": (lambda: weighted_tube_chart(1.0, 2**0.5), lambda g, d: g.uniform(-1, 1, d)),
    "mixed": (
        lambda: nf.build_thickening(nf.mixed_setup(), STD_OMEGA, radius=0.3, fiber_pts=5, base_pts=3).chart,
        lambda g, d: np.concatenate([g.uniform(0, 1, 4), g.uniform(-0.15, 0.15, 3)]),
    ),
}


@functools.cache
def kernel_chart(name):
    return KERNEL_CHARTS[name][0]()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["darboux1", "darboux2", "darboux3", "torus", "tube", "mixed"]),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_xi_frame_is_dlam_symplectic_in_xi(name, seed):
    # the orthonormal Gram-Schmidt frame gave F^T dlam F = +J0 on Darboux and
    # a scaled pairing elsewhere
    ch = kernel_chart(name)
    x = KERNEL_CHARTS[name][1](rng(seed), ch.dim)
    F, D, J0 = core.xi_frame(ch, x), ch.dlambda_at(x), standard_J(2 * ch.n)
    assert F.shape == (ch.dim, 2 * ch.n)
    assert np.max(np.abs(F.T @ D @ F + J0)) <= 1e-12
    assert np.max(np.abs(ch.lambda_at(x) @ F)) <= 1e-12
    # so J0 F^T dlam reads frame coordinates with no pseudo-inverse: the
    # identity on F, and zero on the Reeb field
    assert np.max(np.abs(J0 @ F.T @ D @ F - np.eye(2 * ch.n))) <= 1e-12
    assert np.max(np.abs(F.T @ D @ core.reeb_solve(ch, x).vector)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KERNEL_CHARTS)), st.integers(min_value=0, max_value=2**31 - 1))
def test_point_kernel_is_numpy_linalg_bit_for_bit_on_the_lab_charts(name, seed):
    ch, g = kernel_chart(name), rng(seed)
    for _ in range(25):
        x = KERNEL_CHARTS[name][1](g, ch.dim)
        a = g.uniform(-1, 1, ch.dim)
        L, D = ch.lambda_at(x), ch.dlambda_at(x)
        M = D.T + np.outer(L, L)
        s, (X, v) = core._point_solve(ch, x, M, "dual system", L, a)
        assert np.array_equal(s, np.linalg.svd(M, compute_uv=False))
        assert np.array_equal(X, np.linalg.solve(M, L))
        assert np.array_equal(v, np.linalg.solve(M, a))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
def test_point_kernel_is_backward_stable_on_dense_systems(d, seed):
    # LU with partial pivoting is backward stable: a bound independent of numpy
    g = rng(seed)
    M, b = g.standard_normal((d, d)), g.standard_normal(d)
    eps = np.finfo(float).eps
    s, (v,) = core._point_solve(darboux_chart(1), np.zeros(3), M, "dense system", b)
    norm_M = np.linalg.norm(M, np.inf)
    assert np.linalg.norm(M @ v - b, np.inf) <= 4 * d * eps * norm_M * np.linalg.norm(v, np.inf)
    assert np.max(np.abs(s - np.linalg.svd(M, compute_uv=False))) <= 4 * d * eps * s[0]


@pytest.mark.parametrize("routine", ["dgesdd", "dgesv"])
def test_a_lapack_failure_is_a_singular_chart_naming_the_point(monkeypatch, routine):
    # numpy's gufuncs report a failed LAPACK call as NaNs and the invalid
    # flag: a non-converged dgesdd is faked so, and dgesv fails for real on
    # a zero matrix; neither surfaces a RuntimeWarning under an error filter
    gufuncs = core._umath_linalg
    failing = {
        "dgesdd": lambda M: np.sqrt(np.full(len(M), -1.0)),
        "dgesv": lambda M, b: gufuncs.solve1(np.zeros_like(M), b),
    }
    fake = types.SimpleNamespace(svd=gufuncs.svd, solve1=gufuncs.solve1)
    setattr(fake, {"dgesdd": "svd", "dgesv": "solve1"}[routine], failing[routine])
    monkeypatch.setattr(core, "_umath_linalg", fake)
    x = np.array([0.1, 0.2, 0.3])
    for call in (lambda: core.reeb_solve(torus_chart(), x), lambda: core.xi_frame(torus_chart(), x)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularChart, match=rf"torus: Reeb system rank-deficient at \[0\.1 0\.2 0\.3\] .*{routine}"):
                call()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(min_value=0, max_value=2**31 - 1))
def test_the_point_kernel_is_numpys_gufuncs_bit_for_bit(d, seed):
    # the point kernel calls numpy's private LAPACK gufuncs without the
    # np.linalg wrappers, so a numpy that renames or changes them fails here;
    # the lab's charts are checked in the same way above
    g = rng(seed)
    L = g.uniform(-2, 2, d)
    M = random_antisymmetric(g, (d, d)).T + np.outer(L, L)
    s = np.linalg.svd(M, compute_uv=False)
    assume(s[-1] > 1e-6 * s[0])  # a well-conditioned dual system
    b, a = L, g.standard_normal(d)
    assert np.array_equal(core._singular_values(M), s)
    s_point, (v, w) = core._point_solve(darboux_chart(1), np.zeros(3), M, "dual system", b, a)
    assert np.array_equal(s_point, s)
    assert np.array_equal(v, np.linalg.solve(M, b))
    assert np.array_equal(w, np.linalg.solve(M, a))


def test_point_work_does_not_reach_numpy_linalg(monkeypatch):
    # one matrix through np.linalg pays its per-call wrapper; stacks (a
    # variational right-hand side, stacked duals) stay on numpy's gufuncs
    def single_matrices_raise(fn):
        def guarded(a, *args, **kwargs):
            assert np.ndim(a) > 2, f"np.linalg.{fn.__name__} on one matrix"
            return fn(a, *args, **kwargs)

        return guarded

    for name in ("solve", "svd", "pinv"):
        monkeypatch.setattr(np.linalg, name, single_matrices_raise(getattr(np.linalg, name)))
    tc, x = torus_chart(), np.array([0.1, 0.2, 0.3])
    pert = core.PerturbationData(lambda y: 2.0 + np.sin(y[0]), lambda y: np.array([np.cos(y[0]), 0.0, 0.0]))
    core.reeb_solve(tc, x)
    core.xi_projection_matrix(tc, x)
    core.xi_frame(tc, x)
    core.perturbed_reeb(tc, pert, x)
    core.perturbed_projection(tc, pert, x, x)
    dynamics.return_map(dynamics.ReebOrbit.from_point(tc, x, 1.0))
    dynamics.flow(weighted_tube_chart(1.0, 2**0.5), x, 0.5, steps=4)


def test_a_point_flat_dual_takes_the_point_kernel(monkeypatch):
    # a point used to go through numpy's solves as a one-row stack, which cost
    # about 1.5 times a point Reeb solve
    solved = []
    point_solve = core._point_solve

    def counted(chart, x, *args):
        solved.append(x.shape)
        return point_solve(chart, x, *args)

    monkeypatch.setattr(core, "_point_solve", counted)
    x = np.array([0.1, 0.2, 0.3])
    core.flat_dual(torus_chart(), x[::-1], x)
    assert solved == [(3,)]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_duals_inverse_property(n, seed):
    ch = darboux_chart(n)
    g = rng(seed)
    x = g.uniform(-1, 1, ch.dim)
    a = g.uniform(-1, 1, ch.dim)
    v = core.flat_dual(ch, a, x)
    assert np.max(np.abs(core.sharp_dual(ch, v, x) - a)) < 1e-9


DUAL_CHARTS = (
    [darboux_chart(n) for n in (1, 2, 3)] + [exp_factor_chart(n) for n in (1, 2)] + [torus_chart()]
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(DUAL_CHARTS),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stacked_duals_are_the_loop_of_point_calls(ch, n_points, seed):
    xs, A, Z = rng(seed).uniform(-1, 1, (3, n_points, ch.dim))
    for fn, vectors in [(core.flat_dual, A), (core.sharp_dual, Z)]:
        assert np.array_equal(fn(ch, vectors, xs), [fn(ch, v, x) for v, x in zip(vectors, xs)])
    assert np.array_equal(core.reeb_solve(ch, xs).vector, [core.reeb_solve(ch, x).vector for x in xs])
    # a point call is the one-point formula, solved on its own
    for x, a, z in zip(xs, A, Z):
        L, D = ch.lambda_at(x), ch.dlambda_at(x)
        M = D.T + np.outer(L, L)
        X, v = np.linalg.solve(M, L), np.linalg.solve(M, a)
        assert np.array_equal(core.reeb_solve(ch, x).vector, X)
        assert np.array_equal(core.flat_dual(ch, a, x), v)
        assert np.array_equal(core.sharp_dual(ch, z, x), D.T @ z + float(L @ z) * L)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(DUAL_CHARTS),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stacked_flat_undoes_stacked_sharp(ch, n_points, seed):
    xs, X = rng(seed).uniform(-1, 1, (2, n_points, ch.dim))
    assert np.max(np.abs(core.flat_dual(ch, core.sharp_dual(ch, X, xs), xs) - X)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stacked_component_formula_is_the_loop(n, n_points, seed):
    xs, A = rng(seed).uniform(-1, 1, (2, n_points, 2 * n + 1))
    got = darboux_flat_dual_formula(n, A[:, -1], A[:, :n], A[:, n : 2 * n], xs)
    assert np.array_equal(
        got, [darboux_flat_dual_formula(n, a[-1], a[:n], a[n : 2 * n], x) for a, x in zip(A, xs)]
    )


@pytest.mark.parametrize("fn", [core.flat_dual, core.sharp_dual])
def test_dual_shape_errors_are_typed(fn):
    # each used to end in a raw ValueError from the solve or the matmul
    ch = darboux_chart(1)
    for vector, x in [(np.ones(4), np.zeros(3)), (np.ones((2, 3)), np.zeros((3, 3))),
                      (np.ones(3), np.zeros((1, 3))), (np.ones((2, 4)), np.zeros((2, 4)))]:
        with pytest.raises(ModeMismatch):
            fn(ch, vector, x)
    with pytest.raises(OutOfRange):
        fn(ch, np.zeros((0, 3)), np.zeros((0, 3)))


def test_stacked_dual_names_the_singular_point():
    ch = _vanishing_at_z0_chart()
    xs = np.array([[0.1, 0.2, 1.0], [0.5, 0.25, 0.0]])
    with pytest.raises(SingularChart, match=r"dual system singular at point 1 of the stack"):
        core.flat_dual(ch, np.ones((2, 3)), xs)


def test_dual_checks_makes_a_few_stacked_calls_per_n(monkeypatch):
    # each sample used to call flat_dual and sharp_dual twice: 666 calls each per n
    calls = {"flat_dual": 0, "sharp_dual": 0}
    for name, fn in [(name, getattr(core, name)) for name in calls]:
        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(core, name, counted)
    scenario = cli.load_scenario(SCENARIOS / "dual_round_trip.json")
    report = cli.run_scenario(scenario)
    assert report.verdicts and all(v.passed for v in report.verdicts)
    assert 0 < max(calls.values()) <= 2 * len(scenario["params"]["n_values"])
