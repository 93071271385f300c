"""Thickening construction, structural identities, adapted structures."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactlab import models
from contactlab import normalform as nf
from contactlab.core import contact_volume, reeb_solve
from contactlab.errors import BadBlocks, NotContact
from oracle_models import exp_factor_chart


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


STD = np.array([[0.0, 1.0], [-1.0, 0.0]])  # dx ^ dy
JSTD = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def circle_e2():
    return nf.build_thickening(nf.circle_setup(), STD, radius=0.5)


@pytest.fixture(scope="module")
def torus_cot():
    return nf.build_thickening(nf.torus_setup(), np.zeros((0, 0)), radius=0.5)


@pytest.fixture(scope="module")
def mixed_full():
    return nf.build_thickening(nf.mixed_setup(), STD, radius=0.3, fiber_pts=5, base_pts=3)


def test_setup_invariants():
    # rank d theta = 2g, ker d theta = R X_theta + H, and theta(X_theta) = 1
    # at every q
    g = rng(1)
    for setup, dim in ((nf.circle_setup(), 1), (nf.torus_setup(), 2), (nf.mixed_setup(), 4)):
        D, X = setup.dtheta, setup.x_theta
        s = np.linalg.svd(D, compute_uv=False)
        big = int(np.sum(s > 1e-6))
        assert big == 2 * setup.g and np.all(s[big:] < 1e-10)
        for v in (X, *setup.n_basis):
            assert np.max(np.abs(D @ v)) < 1e-8
        for q in [g.uniform(0, 1, dim) for _ in range(5)]:
            assert abs(float(setup.theta(q) @ X) - 1.0) < 1e-10


def test_thickening_form_is_affine_with_one_read_only_jacobian(circle_e2, torus_cot, mixed_full):
    g = rng(9)
    for tc in (circle_e2, torus_cot, mixed_full):
        G = tc.chart.grad(np.zeros(tc.dim))
        assert not G.flags.writeable
        x, y = g.uniform(-0.2, 0.2, (2, tc.dim))
        assert tc.chart.grad(x) is G
        assert np.max(np.abs(tc.chart.lambda_at(x) - tc.chart.lambda_at(y) - (x - y) @ G)) < 1e-14


def test_circle_model_is_rotation_invariant_form(circle_e2):
    # lam_F = d theta + (x dy - y dx)/2; contact everywhere with unit volume
    tc = circle_e2
    assert tc.verified_radius >= 0.5
    x = np.array([0.3, 0.2, -0.4])
    lam = tc.chart.lambda_at(x)
    assert np.allclose(lam, [1.0, -0.5 * x[2], 0.5 * x[1]], atol=1e-14)
    assert abs(abs(contact_volume(tc.chart, x)) - 1.0) < 1e-12


def test_torus_model_form(torus_cot):
    # lam_F = dt1 + p dt2
    x = np.array([0.4, 0.9, 0.37])
    lam = torus_cot.chart.lambda_at(x)
    assert np.allclose(lam, [1.0, x[2], 0.0], atol=1e-14)
    assert abs(abs(contact_volume(torus_cot.chart, x)) - 1.0) < 1e-12


def test_zero_section_pullback(circle_e2, torus_cot):
    g = rng(2)
    for tc in (circle_e2, torus_cot):
        pts = [g.uniform(0, 1, tc.dim_q) for _ in range(6)]
        assert nf.zero_section_pullback_defect(tc, pts) < 1e-12


def test_degenerate_fiber_form_rejected():
    with pytest.raises(BadBlocks):
        nf.build_thickening(nf.circle_setup(), np.zeros((2, 2)), radius=0.5)


def warped_tube():
    # flat-model thickenings are contact at every radius (the volume is the
    # constant base coefficient), so exercise the tube verification on a
    # warped tube: h = 1 + x^4 gives volume density 1 - x^4 (vanishing at
    # |x| = 1), so the half-value bound fails beyond x ~ 0.84
    from contactlab.core import ContactChart

    def lam(x):
        return np.array([1.0 + x[1] ** 4, -0.5 * x[2], 0.5 * x[1]])

    return ContactChart(n=1, lam=lam, periods=(1.0, None, None))


def test_tube_check_makes_one_volume_call_per_radius(monkeypatch):
    real = nf.contact_volume
    calls = []
    monkeypatch.setattr(nf, "contact_volume", lambda *args: calls.append(1) or real(*args))
    warped = warped_tube()
    assert nf.contact_tube_radius(warped, 1, 0.4) == 0.4
    assert len(calls) == 1
    calls.clear()
    # odd grid count puts samples on the fiber axes; half-volume is crossed
    # at x = 0.5^(1/4) ~ 0.84
    with pytest.raises(NotContact) as err:
        nf.contact_tube_radius(warped, 1, 1.1, fiber_pts=17)
    assert 0.75 < err.value.radius < 0.95
    # the zero-section volumes ride along with the first call; then one call
    # per bisection round
    assert len(calls) == 1 + 20


def test_reeb_is_lifted_circle_field(circle_e2, torus_cot, mixed_full):
    g = rng(3)
    for tc in (circle_e2, torus_cot, mixed_full):
        for _ in range(5):
            q = g.uniform(0, 1, tc.dim_q)
            gap = nf.reeb_of_thickening(tc, q) - nf.lifted_x_theta(tc, q)
            assert np.max(np.abs(gap)) < 1e-8
            # fiber components vanish
            assert np.max(np.abs(nf.reeb_of_thickening(tc, q)[tc.dim_q :])) < 1e-9


def test_contact_distribution_splitting_examples(circle_e2, torus_cot):
    # circle + E at the zero section: V empty, W = span(dx, dy)
    V, W = nf.split_contact_distribution(circle_e2, np.array([0.2, 0.0, 0.0]))
    assert V.shape[1] == 0
    assert np.allclose(W[:, 0], [0, 1, 0]) and np.allclose(W[:, 1], [0, 0, 1])
    # torus cotangent at p != 0: V = {d/dt2 - p d/dt1}, W = {d/dp}
    x = np.array([0.1, 0.2, 0.3])
    V2, W2 = nf.split_contact_distribution(torus_cot, x)
    assert np.allclose(V2[:, 0], [-0.3, 1.0, 0.0], atol=1e-12)
    assert np.allclose(W2[:, 0], [0, 0, 1.0], atol=1e-12)
    lam = torus_cot.chart.lambda_at(x)
    assert np.max(np.abs(lam @ np.column_stack([V2, W2]))) < 1e-12


def test_contact_distribution_rank(circle_e2, torus_cot, mixed_full):
    g = rng(4)
    for tc in (circle_e2, torus_cot, mixed_full):
        fdim = tc.m + 2 * tc.k
        for _ in range(20):
            x = np.concatenate(
                [g.uniform(0, 1, tc.dim_q), g.uniform(-0.2, 0.2, fdim)]
            )
            V, W = nf.split_contact_distribution(tc, x)
            VW = np.column_stack([V, W])
            assert VW.shape[1] == 2 * tc.chart.n
            s = np.linalg.svd(VW, compute_uv=False)
            assert s[-1] > 1e-8
            assert np.max(np.abs(tc.chart.lambda_at(x) @ VW)) < 1e-10


def test_radial_identities(circle_e2):
    g = rng(5)
    pts = [np.array([g.uniform(0, 1), *g.uniform(-0.3, 0.3, 2)]) for _ in range(10)]
    # c = 1 is the trivial scaling
    rep1 = nf.radial_identities(circle_e2, 1.0, pts)
    assert rep1.max_scaling_error == 0.0
    rep2 = nf.radial_identities(circle_e2, 2.0, pts)
    assert rep2.max_scaling_error < 1e-12  # fiberwise-constant form: exact
    assert rep2.max_cartan_error < 1e-8


def test_vertical_dlambda_block(circle_e2, torus_cot, mixed_full):
    for tc in (circle_e2, torus_cot, mixed_full):
        # the vertical-vertical block of d lambda_F at a zero-section point
        blk = tc.chart.dlambda_at(tc.zero_section_point(np.zeros(tc.dim_q)))[tc.dim_q :, tc.dim_q :]
        m = tc.m
        expected = np.zeros_like(blk)
        expected[m:, m:] = tc.Omega
        assert np.max(np.abs(blk - expected)) < 1e-8


MODEL_CHARTS = {
    "darboux1": lambda: models.darboux_chart(1),
    "darboux2": lambda: models.darboux_chart(2),
    "darboux3": lambda: models.darboux_chart(3),
    "darboux2_scaled": lambda: models.darboux_chart(2, scale=2.5),
    "exp_factor1": lambda: exp_factor_chart(1),
    "exp_factor2": lambda: exp_factor_chart(2),
    "torus": models.torus_chart,
    "weighted_tube": lambda: models.weighted_tube_chart(2.0, 1.3),
    "perturbed_tube": lambda: models.perturbed_tube_chart(1.0, 0.7, 0.4),
}


@pytest.mark.parametrize("name", [*MODEL_CHARTS, "circle_e2", "torus_cot", "mixed_full"])
def test_structural_dlambda_identity(name, request):
    # the analytic dlambda of every shipped chart and thickening (for these
    # d lam_F = pi^* d theta + d Theta_G + Omega~) against the
    # finite-difference exterior derivative of the same form
    from contactlab.core import ContactChart

    chart = MODEL_CHARTS[name]() if name in MODEL_CHARTS else request.getfixturevalue(name).chart
    fd_chart = ContactChart(chart.n, lam=chart.lam, periods=chart.periods)
    x = np.resize([0.3, 0.1, -0.2], chart.dim)
    D_fd = fd_chart.dlambda_at(x)
    D_an = chart.dlambda_at(x)
    assert np.max(np.abs(D_fd - D_an)) < 1e-6


def test_make_adapted_J_block_cases(circle_e2, mixed_full):
    aj = nf.make_adapted_J(circle_e2, np.zeros((0, 0)), JSTD, np.zeros((2, 0)))
    assert aj.adapted and aj.square_defect < 1e-10
    aj2 = nf.make_adapted_J(mixed_full, JSTD, JSTD, np.zeros((2, 2)))
    assert aj2.adapted and aj2.square_defect < 1e-10


def test_make_adapted_J_rejects_bad_blocks(circle_e2, mixed_full):
    with pytest.raises(BadBlocks):
        nf.make_adapted_J(circle_e2, np.zeros((0, 0)), np.eye(2), np.zeros((2, 0)))
    with pytest.raises(BadBlocks):
        nf.make_adapted_J(mixed_full, JSTD, JSTD, np.ones((2, 2)))
    with pytest.raises(BadBlocks):
        nf.make_adapted_J(mixed_full, -JSTD, JSTD, np.zeros((2, 2)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_the_null_space_is_scipys(m, n, r, seed):
    # scipy.linalg.null_space is the oracle: the same span, orthonormal
    # columns, on (m, n) matrices of rank r and on the base row theta of a
    # set-up, the two shapes normalform takes null spaces of
    g = rng(seed)
    r = min(r, m, n)
    A = g.standard_normal((m, r)) @ g.standard_normal((r, n))
    if r:
        s = np.linalg.svd(A, compute_uv=False)
        assume(s[r - 1] > 1e-3 * s[0])  # a rank well apart from the rounding
    setup = nf.mixed_setup()
    for B in (A, setup.theta(g.uniform(0, 1, setup.dim_q))[None, :]):
        Q, ref = nf._null_space(B), scipy.linalg.null_space(B)
        assert Q.shape == ref.shape
        assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1])), initial=0.0) <= 1e-12
        assert np.max(np.abs(Q @ Q.T - ref @ ref.T), initial=0.0) <= 1e-12


def test_coupling_block_null_space_is_trivial(mixed_full):
    # J_G is invertible, so B J_G = 0 admits only B = 0; anything in that
    # null space assembles to an adapted structure
    ns_dim = 0
    # check via SVD of the linear map B -> B J_G on 2x2 matrices
    L = np.kron(JSTD.T, np.eye(2))
    s = np.linalg.svd(L, compute_uv=False)
    ns_dim = int(np.sum(s < 1e-12))
    assert ns_dim == 0
    aj = nf.make_adapted_J(mixed_full, JSTD, JSTD, np.zeros((2, 2)))
    assert aj.adapted


def test_nondegenerate_type_adaptedness_automatic(circle_e2):
    # m = 0, g = 0: any compatible structure is adapted
    g = rng(6)
    for _ in range(5):
        # random Omega-compatible J_E via symplectic conjugation
        t = g.uniform(-0.5, 0.5)
        ch, sh = np.cosh(t), np.sinh(t)
        S = np.array([[ch, sh], [sh, ch]])  # Sp(2)
        JE = S @ JSTD @ np.linalg.inv(S)
        aj = nf.make_adapted_J(circle_e2, np.zeros((0, 0)), JE, np.zeros((2, 0)))
        ok, diag = nf.check_adapted(circle_e2, aj.matrix)
        assert ok and diag.agree


def hyperbolic_GE_mixer(tc, t):
    """d lam_F-symplectic map mixing the G plane with the E plane."""
    ch, sh = np.cosh(t), np.sinh(t)
    S = np.eye(tc.dim)
    # G coordinates sit at (2, 3) in the mixed model; E at (5, 6)
    S[2, 2] = ch
    S[2, 5] = sh
    S[5, 2] = sh
    S[5, 5] = ch
    S[3, 3] = ch
    S[3, 6] = -sh
    S[6, 3] = -sh
    S[6, 6] = ch
    return S


def test_compatible_but_unadapted_structure_fails(mixed_full):
    tc = mixed_full
    aj = nf.make_adapted_J(tc, JSTD, JSTD, np.zeros((2, 2)))
    S = hyperbolic_GE_mixer(tc, 0.3)
    x0 = tc.zero_section_point(np.zeros(tc.dim_q))
    D = tc.chart.dlambda_at(x0)
    assert np.max(np.abs(S.T @ D @ S - D)) < 1e-12  # genuinely symplectic
    J2 = S @ aj.matrix @ np.linalg.inv(S)
    lam0 = tc.chart.lambda_at(x0)
    XF = reeb_solve(tc.chart, x0).vector
    Pi = np.eye(tc.dim) - np.outer(XF, lam0)
    assert np.max(np.abs(J2 @ J2 + Pi)) < 1e-12  # still an a.c.s.
    M = D @ J2
    assert np.max(np.abs(M - M.T)) < 1e-12  # still compatible
    ok, diag = nf.check_adapted(tc, J2)
    assert not ok
    assert diag.agree
    assert diag.containment_rank > diag.expected_rank


def test_adaptedness_criteria_agree_randomized(circle_e2, torus_cot, mixed_full):
    # both criteria (containment vs splitting) agree across setup types,
    # random compatible blocks, and random symplectic de-tunings
    g = rng(8)
    setups = [circle_e2, torus_cot, mixed_full]
    checked = 0
    for i in range(100):
        tc = setups[i % 3]
        t = g.uniform(-0.4, 0.4)
        ch, sh = np.cosh(t), np.sinh(t)
        Sp = np.array([[ch, sh], [sh, ch]])
        JG = Sp @ JSTD @ np.linalg.inv(Sp) if tc.setup.g else np.zeros((0, 0))
        JE = Sp @ JSTD @ np.linalg.inv(Sp) if tc.k else np.zeros((0, 0))
        aj = nf.make_adapted_J(tc, JG, JE, np.zeros((2 * tc.k, 2 * tc.setup.g)))
        J = aj.matrix
        detuned = tc is mixed_full and i % 2 == 1
        if detuned:
            S = hyperbolic_GE_mixer(tc, g.uniform(0.1, 0.5))
            J = S @ aj.matrix @ np.linalg.inv(S)
        ok, diag = nf.check_adapted(tc, J)
        assert diag.agree
        assert ok == (not detuned)
        checked += 1
    assert checked == 100


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["darboux1", "darboux2", "darboux3", "exp_factor1", "exp_factor2",
                     "circle_e2", "torus_cot", "mixed_full"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contact_volume_is_n_factorial_root_of_dual_determinant(circle_e2, torus_cot, mixed_full, name, seed):
    # the bordered matrix [[0, lam^T], [-lam, dlam]] has determinant
    # lam^T adj(dlam) lam = det(dlam^T + lam lam^T), and the contact volume is
    # n! times its Pfaffian
    thickenings = {"circle_e2": circle_e2, "torus_cot": torus_cot, "mixed_full": mixed_full}
    g = rng(seed)
    if name in thickenings:
        tc = thickenings[name]
        chart = tc.chart
        xs = np.hstack([g.uniform(0, 1, (5, tc.dim_q)), g.uniform(-0.2, 0.2, (5, tc.dim - tc.dim_q))])
    else:
        chart = MODEL_CHARTS[name]()
        xs = g.uniform(-1, 1, (5, chart.dim))
    vols = contact_volume(chart, xs)
    for x, vol in zip(xs, vols):
        L, D = chart.lambda_at(x), chart.dlambda_at(x)
        oracle = math.factorial(chart.n) * math.sqrt(np.linalg.det(D.T + np.outer(L, L)))
        assert abs(abs(vol) - oracle) <= 1e-10 * oracle
