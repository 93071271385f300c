"""Flows, closed orbits, return maps, and family scans."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import _dop853, cli, core, dynamics, spectral
from contactlab.core import ContactChart
from contactlab.dynamics import (
    UNIT_TOL,
    MorseBottCandidate,
    Nondegenerate,
    ReebOrbit,
    ReturnMap,
    classify_orbit,
    find_closed_orbit,
    flow,
    monodromy,
    orbit_family_scan,
    return_map,
)
from contactlab.errors import NoConvergence, NumericalFailure, OutOfRange, SingularChart
from contactlab.models import (
    darboux_chart,
    perturbed_tube_chart,
    torus_chart,
    weighted_tube_chart,
    weighted_tube_flow,
)
from oracle_models import exp_factor_chart


def test_flow_standard_chart_is_z_translation():
    ch = darboux_chart(1)
    tr = flow(ch, [0.0, 0.0, 0.0], 1.3)
    assert np.allclose(tr.end, [0.0, 0.0, 1.3], atol=1e-10)
    assert tr.max_reeb_residual < 1e-10


def test_flow_torus_translation():
    ch = torus_chart()
    tr = flow(ch, [0.0, 0.0, 0.0], 0.8)
    assert np.allclose(tr.end, [0.8, 0.0, 0.0], atol=1e-12)
    # p != 0 stays put except t1
    tr2 = flow(ch, [0.1, 0.5, 0.3], 0.4)
    assert np.allclose(tr2.end, [0.5, 0.5, 0.3], atol=1e-12)


def test_flow_matches_closed_form_rotation():
    w2 = 1.41421356
    ch = weighted_tube_chart(1.0, w2)
    x0 = np.array([0.1, 0.25, -0.15])
    tr = flow(ch, x0, 1.0)
    assert np.max(np.abs(tr.end - weighted_tube_flow(w2, x0, 1.0))) < 1e-9


def test_flow_preserves_unit_speed():
    ch = weighted_tube_chart(1.0, 0.7)
    tr = flow(ch, [0.0, 0.3, 0.1], 2.0, steps=100)
    for x in tr.states[::10]:
        lam = ch.lambda_at(x)
        X = dynamics.reeb_solve(ch, x).vector
        assert abs(lam @ X - 1) < 1e-10


CHARTS = {
    "tube": weighted_tube_chart(1.0, 0.7),
    "perturbed_tube": perturbed_tube_chart(1.0, 1.0, 0.8),
    "torus": torus_chart(),
    "exp_factor": exp_factor_chart(1),
}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(CHARTS)),
    st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    st.floats(0.1, 2.0),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_monodromy_carries_only_the_requested_variations(name, x, T, k, seed):
    chart = CHARTS[name]
    V = np.random.Generator(np.random.Philox(seed)).uniform(-1.0, 1.0, (chart.dim, k))
    end, MV = monodromy(chart, x, T, V)
    assert MV.shape == (chart.dim, k)
    assert np.max(np.abs(MV - monodromy(chart, x, T)[1] @ V), initial=0.0) < 1e-8
    if k == 0:
        assert np.max(np.abs(end - flow(chart, x, T).end)) < 1e-12


def _count_calls(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(1) or real(*args, **kw))
    return calls


TUBE = weighted_tube_chart(1.0, np.sqrt(2.0))


def _beside_scipy(monkeypatch):
    """Run scipy's DOP853 on the same right-hand side beside every ``_dop853``
    run; returns the list of pairs (ours, scipy's), each (times, states, number
    of right-hand sides)."""
    real, runs = _dop853.solve, []

    def both(fun, y0, T, rtol, atol, t_eval):
        assert (rtol, atol) == (dynamics.RTOL, dynamics.ATOL)
        ours, theirs = [], []
        times, states = real(lambda y: ours.append(1) or fun(y), y0, T, rtol, atol, t_eval)
        ref = scipy.integrate.solve_ivp(lambda t, y: theirs.append(1) or fun(y), (0.0, T), y0, method="DOP853",
                                        rtol=rtol, atol=atol, t_eval=t_eval)
        runs.append(((times, states, len(ours)), (ref.t, ref.y.T, len(theirs))))
        return times, states

    monkeypatch.setattr(_dop853, "solve", both)
    return runs


def _same_runs(runs):
    return all(np.array_equal(t, t_ref) and np.array_equal(y, y_ref) and n == n_ref
               for (t, y, n), (t_ref, y_ref, n_ref) in runs)


ORACLE_CHARTS = {"tube": TUBE, "perturbed_tube": perturbed_tube_chart(1.0, 1.0, 0.8), "torus": torus_chart()}


@pytest.mark.parametrize("T", [1.3, -0.9, 0.0], ids=["forward", "backward", "zero"])
@pytest.mark.parametrize("chart", ORACLE_CHARTS.values(), ids=ORACLE_CHARTS)
def test_the_integrator_is_scipys_dop853_bit_for_bit(monkeypatch, chart, T):
    # the lab's port against scipy.integrate.solve_ivp(method="DOP853"): the
    # same times and states to the bit, after the same right-hand sides
    x = np.array([0.05, 0.1, 0.2])
    runs = _beside_scipy(monkeypatch)
    for k in (0, 2, 3):
        monodromy(chart, x, T, np.eye(3)[:, :k])
    for steps in (256, 17):
        flow(chart, x, T, steps=steps)  # T = 0 makes no run
    assert len(runs) == (5 if T else 3)
    assert _same_runs(runs)


def test_a_newton_orbit_and_its_return_map_are_scipys_runs(monkeypatch):
    runs = _beside_scipy(monkeypatch)
    return_map(find_closed_orbit(TUBE, [0.0, 0.1, 0.05], 6.2))
    # 2 variational shots, 2 sampled flows (the first misses, the second is
    # the orbit) and the return map
    assert len(runs) == 5
    assert _same_runs(runs)


def _integrations(monkeypatch):
    """Spy on ``dynamics._integrate``; returns the list of (T, sampled) of its runs."""
    real, runs = dynamics._integrate, []

    def spy(chart, x0, T, V, t_eval=None):
        runs.append((T, t_eval is not None))
        return real(chart, x0, T, V, t_eval)

    monkeypatch.setattr(dynamics, "_integrate", spy)
    return runs


def test_fixed_point_shooting_integrates_the_flow_alone(monkeypatch):
    batches = _count_calls(monkeypatch, dynamics, "reeb_batch")
    solves = _count_calls(monkeypatch, dynamics, "reeb_solve")
    runs = _integrations(monkeypatch)
    chart = weighted_tube_chart(1.0, 1.0)
    x = np.array([0.1, 0.25, -0.1])
    orb = find_closed_orbit(chart, x, 6.2, fix_point=True)
    assert abs(orb.period - 2 * np.pi) < 1e-8
    assert batches == []
    # the 8th-order pair takes 661 solves here, 10% margin (938 when every
    # shot flew the whole period again); a 5th-order one took 4,460
    assert len(solves) <= 730
    # one sampled shot over the guessed period, two shots that fly its end on
    # by the Newton steps in T (about 2 pi - 6.2, then 6.5e-6), and the
    # sampled orbit; every shot used to integrate the whole period
    assert [sampled for _, sampled in runs] == [True, False, False, True]
    assert runs[0][0] == 6.2 and runs[-1][0] == orb.period
    assert abs(runs[1][0] - (2 * np.pi - 6.2)) < 1e-3 and abs(runs[2][0]) < 1e-3
    again = ReebOrbit.from_point(chart, x, orb.period)
    assert np.array_equal(orb.samples, again.samples)
    assert orb.closure_residual == again.closure_residual


def test_a_fixed_point_orbit_closing_at_once_is_one_integration(monkeypatch):
    runs = _count_calls(monkeypatch, dynamics, "_integrate")
    orb = find_closed_orbit(weighted_tube_chart(1.0, 1.0), [0.1, 0.25, -0.1], 2 * np.pi, fix_point=True)
    assert orb.period == 2 * np.pi
    assert len(runs) == 1


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.0, 0.3), st.floats(0.0, 2 * np.pi), st.floats(5.9, 6.6))
def test_a_fixed_point_orbit_of_the_round_tube_is_its_sampled_flow(theta, r, phi, T_guess):
    # every point of the round tube closes at 2 pi; the continued shots move
    # the period, and the returned samples are one flow of x for that period
    chart = weighted_tube_chart(1.0, 1.0)
    x = np.array([theta, r * np.cos(phi), r * np.sin(phi)])
    orb = find_closed_orbit(chart, x, T_guess, fix_point=True)
    assert abs(orb.period - 2 * np.pi) < 1e-8
    again = ReebOrbit.from_point(chart, x, orb.period)
    assert np.array_equal(orb.samples, again.samples)
    assert orb.closure_residual == again.closure_residual


def test_the_broken_tube_stalls_after_three_shots_with_its_history(monkeypatch):
    # the family_broken_tube sample of perfbench's orbits seed 1: a radius-
    # dependent rotation speed leaves no orbit through the guess, and
    # Gauss-Newton stalls after one sampled shot and two continued ones
    runs = _integrations(monkeypatch)
    chart = perturbed_tube_chart(1.0, 1.0, 0.8)
    guess = 0.1 * np.array([0.0, 0.6778589130553349, -0.7351920116482769])
    with pytest.raises(NoConvergence) as info:
        find_closed_orbit(chart, guess, 2 * np.pi, fix_point=True)
    assert info.value.iterations == 3
    assert np.max(np.abs(np.subtract(
        info.value.history, [0.0037892716203970223, 0.003740717538147184, 0.003740716926095039]))) < 1e-12
    assert [sampled for _, sampled in runs] == [True, False, False]


def _columns(seed, exponents):
    """Random columns (3, k + 1) of sizes 10**exponents, then a zero column."""
    Y = np.random.Generator(np.random.Philox(seed)).normal(size=(3, len(exponents) + 1))
    Y[:, :-1] *= 10.0 ** np.array(exponents) / np.linalg.norm(Y[:, :-1], axis=0)
    Y[:, -1] = 0.0
    return Y


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    st.floats(0.1, 3.0),
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_reeb_along_the_carried_columns_is_the_tube_closed_form(x, c, exponents, seed):
    # on the tube X = (1, c y, -c x), so DX . v = (0, c v_3, -c v_2) exactly
    x, Y = np.array(x), _columns(seed, exponents)
    X, DXY = dynamics._reeb_along(weighted_tube_chart(1.0, c), x, Y)
    assert np.max(np.abs(X - [1.0, c * x[2], -c * x[1]])) <= 1e-9
    exact = np.array([np.zeros(Y.shape[1]), c * Y[2], -c * Y[1]])
    assert np.all(np.abs(DXY - exact) <= 1e-9 * np.linalg.norm(Y, axis=0))
    assert np.array_equal(DXY[:, -1], np.zeros(3))  # a zero column: exactly 0, not NaN


def _fourth_order_along(chart, x, y, h=1e-3):
    """DX . y by the 4th-order centred difference of point Reeb solves along y."""
    r = np.linalg.norm(y)
    u = y / r
    X = [dynamics.reeb_solve(chart, x + s * h * u).vector for s in (2, 1, -1, -2)]
    return r * (-X[0] + 8 * X[1] - 8 * X[2] + X[3]) / (12 * h)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["perturbed_tube", "exp_factor"]),
    st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_reeb_along_the_carried_columns_is_the_fourth_order_difference(name, x, exponents, seed):
    chart, x, Y = CHARTS[name], np.array(x), _columns(seed, exponents)
    X, DXY = dynamics._reeb_along(chart, x, Y)
    assert np.max(np.abs(X - dynamics.reeb_solve(chart, x).vector)) <= 1e-12
    for j in range(Y.shape[1] - 1):
        r = np.linalg.norm(Y[:, j])
        assert np.max(np.abs(DXY[:, j] - _fourth_order_along(chart, x, Y[:, j]))) <= 1e-8 * r
    assert np.array_equal(DXY[:, -1], np.zeros(3))


@pytest.mark.parametrize(
    "run, points",
    [(lambda: find_closed_orbit(TUBE, [0.0, 0.1, 0.05], 6.2), 5),
     (lambda: return_map(ReebOrbit.from_point(TUBE, np.zeros(3), 2 * np.pi)), 5),
     (lambda: monodromy(torus_chart(), np.zeros(3), 0.05), 7),
     (lambda: flow(TUBE, [0.0, 0.1, 0.05], 1.0), None)],
    ids=["free_point_shots", "return_map", "full_monodromy", "flow"],
)
def test_a_variational_right_hand_side_is_one_batch_of_2k_plus_1_points(monkeypatch, run, points):
    # the centred differences along the k carried columns: every batch had
    # the 2d + 1 = 7 points of the full Jacobian
    sizes, states = [], []
    real_batch, real_solve = dynamics.reeb_batch, _dop853.solve
    monkeypatch.setattr(dynamics, "reeb_batch", lambda chart, xs: sizes.append(len(xs)) or real_batch(chart, xs))
    monkeypatch.setattr(
        _dop853, "solve", lambda fun, *args: real_solve(lambda y: states.append(len(y)) or fun(y), *args)
    )
    run()
    variational = [n for n in states if n > 3]  # right-hand sides of the state [x, Y]
    if points is None:
        assert sizes == [] and variational == []
    else:
        assert len(sizes) == len(variational) > 0
        assert set(sizes) == {points}


def test_tube_orbit_takes_few_batched_right_hand_sides(monkeypatch):
    # one batched solve per variational right-hand side: 724 with the
    # 8th-order pair and two variational shots, 10% margin (1,062 when the
    # shot that closes carried the frame too), 4,830 with a 5th-order pair
    batches = _count_calls(monkeypatch, dynamics, "reeb_batch")
    orb = find_closed_orbit(weighted_tube_chart(1.0, np.sqrt(2.0)), [0.0, 0.1, 0.05], 6.2)
    assert abs(orb.period - 2 * np.pi) < 1e-8
    assert len(batches) <= 800


@pytest.mark.parametrize(
    "chart, guess, T_guess, shots, flows",
    [(weighted_tube_chart(1.0, np.sqrt(2.0)), [0.0, 0.1, 0.05], 6.2, 2, 2),
     (torus_chart(), [0.1, 0.2, 0.0], 1.1, 1, 1),
     (weighted_tube_chart(2.0, 1.0), [0.0, 0.1, 0.05], 3.0, 2, 2)],
    ids=["tube_1_sqrt2", "torus", "tube_2_1"],
)
def test_free_point_shots_carry_the_xi_frame(monkeypatch, chart, guess, T_guess, shots, flows):
    # the Newton section is the contact plane at the guess, spanned by its
    # xi-frame; after the first shot each point flies the sampled flow first,
    # and the flow that closes is the orbit, so the frame is carried by every
    # shot but the last
    frames = []
    real = dynamics.monodromy
    monkeypatch.setattr(dynamics, "monodromy", lambda ch, x, T, V=None: frames.append(V) or real(ch, x, T, V))
    sampled = _count_calls(monkeypatch, dynamics, "flow")
    find_closed_orbit(chart, guess, T_guess)
    assert len(frames) == shots
    assert len(sampled) == flows
    assert all(np.array_equal(V, core.xi_frame(chart, guess)) for V in frames)


def test_torus_orbit_found_anywhere():
    ch = torus_chart()
    orb = find_closed_orbit(ch, [0.3, 0.6, 0.0], 1.2)
    assert abs(orb.period - 1.0) < 1e-9
    assert orb.closure_residual < 1e-8
    # also away from p = 0: the whole chart is foliated by period-1 orbits
    orb2 = find_closed_orbit(ch, [0.0, 0.0, 0.25], 0.9)
    assert abs(orb2.period - 1.0) < 1e-9


def test_weighted_short_orbit_period():
    # frequency pair (1, 2): the short orbit closes at 2 pi / 2
    ch = weighted_tube_chart(2.0, 1.0)
    orb = find_closed_orbit(ch, [0.0, 0.1, 0.05], 3.0)
    assert abs(orb.period - np.pi) < 1e-8
    assert np.max(np.abs(orb.base_point[1:])) < 1e-8


def test_orbit_action_equals_period():
    ch = weighted_tube_chart(1.0, 0.9)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    assert abs(orb.action() - orb.period) < 1e-8
    cht = torus_chart()
    orbt = ReebOrbit.from_point(cht, [0.2, 0.4, 0.7], 1.0)
    assert abs(orbt.action() - 1.0) < 1e-8


@pytest.mark.parametrize(
    "T, n_samples",
    # T = 0 used to pass as an orbit with no samples and closure 0; with no
    # samples the flow stopped at t = 0, so any period closed up
    [(0.0, 256), (-1.0, 256), (np.nan, 256), (0.37, 0)],
    ids=["zero_period", "negative_period", "nan_period", "no_samples"],
)
def test_degenerate_orbit_is_out_of_range(T, n_samples):
    with pytest.raises(OutOfRange):
        ReebOrbit.from_point(torus_chart(), [0.0, 0.3, 0.0], T, n_samples=n_samples)


def test_period_collapse_is_not_an_orbit():
    # from T_guess = 0.3 the first Newton step lands on T ~ 5.6e-17, where
    # every point closes up with residual 0; that is no closed orbit
    with pytest.raises(NoConvergence) as info:
        find_closed_orbit(torus_chart(), [0.1, 0.2, 0.0], 0.3)
    assert info.value.history
    assert info.value.history[0] > 0.1


@pytest.mark.parametrize(
    "chart, guess, T_guess, fix_point, good_flows, iterations",
    [(torus_chart(), [0.1, 0.2, 0.0], 1.0, False, 0, 1),
     (weighted_tube_chart(1.0, 1.0), [0.1, 0.25, -0.1], 6.2, True, 1, 3)],
    ids=["free_point", "fixed_point"],
)
def test_a_sampled_orbit_that_misses_reports_its_newton_history(
        monkeypatch, chart, guess, T_guess, fix_point, good_flows, iterations):
    # the shots close but the flow that samples the orbit misses its start;
    # this raised NoConvergence(0, closure) with no Newton history
    real, calls = dynamics.flow, []

    def missing(*args, **kwargs):
        calls.append(1)
        traj = real(*args, **kwargs)
        if len(calls) <= good_flows:
            return traj
        return dynamics.Trajectory(traj.times, traj.states + 1e-6, traj.max_reeb_residual)

    monkeypatch.setattr(dynamics, "flow", missing)
    with pytest.raises(NoConvergence) as info:
        find_closed_orbit(chart, guess, T_guess, fix_point=fix_point)
    assert info.value.iterations == iterations == len(info.value.history)
    assert info.value.history[-1] < dynamics.ORBIT_CLOSURE_TOL
    assert info.value.residual > 10 * dynamics.ORBIT_CLOSURE_TOL


def test_return_map_torus_identity():
    ch = torus_chart()
    orb = ReebOrbit.from_point(ch, np.zeros(3), 1.0)
    rm = return_map(orb)
    assert np.max(np.abs(rm.matrix - np.eye(2))) < 1e-8
    assert rm.symplectic_error < 1e-6
    cls = classify_orbit(rm)
    assert isinstance(cls, MorseBottCandidate)
    assert cls.multiplicity == 2


@pytest.mark.parametrize("ratio", [2.0, 1.41421356])
def test_return_map_rotation_eigenvalues(ratio):
    ch = weighted_tube_chart(1.0, ratio)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    rm = return_map(orb)
    angle = 2 * np.pi * ratio
    expected = np.sort_complex(np.array([np.exp(1j * angle), np.exp(-1j * angle)]))
    got = np.sort_complex(rm.eigenvalues)
    assert np.max(np.abs(got - expected)) < 1e-6
    assert abs(np.linalg.det(rm.matrix) - 1.0) < 1e-8


def test_return_map_symplectic():
    ch = weighted_tube_chart(1.0, 0.31)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    rm = return_map(orb)
    assert rm.symplectic_error < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.1, 3.0), st.floats(0.0, 1.0))
def test_tube_return_map_is_the_symplectic_rotation(w_theta, w_fiber, quartic):
    # the quartic term vanishes to 4th order at the center, so the center
    # orbit (period 2 pi / w_theta) returns the fiber rotated by
    # 2 pi w_fiber / w_theta
    ch = perturbed_tube_chart(w_theta, w_fiber, quartic)
    rm = return_map(ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi / w_theta))
    angle = 2 * np.pi * w_fiber / w_theta
    expected = np.sort_complex(np.exp([1j * angle, -1j * angle]))
    assert np.max(np.abs(np.sort_complex(rm.eigenvalues) - expected)) < 1e-6
    assert abs(np.linalg.det(rm.matrix) - 1.0) < 1e-8
    assert rm.symplectic_error < 1e-6


def test_irrational_return_map_is_symplectic_to_1e10():
    # the shipped return_map_irrational scenario
    ch = weighted_tube_chart(1.0, 1.41421356)
    rm = return_map(ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi))
    assert rm.symplectic_error < 1e-10


def test_an_orbit_where_xi_is_0_dimensional_is_out_of_range_naming_the_chart():
    # return_map ended in a raw ValueError (a maximum over no entries) and
    # asymptotic_operator named a rank the caller never passed
    ch = ContactChart(0, lambda x: np.array([1.0]), lambda x: np.zeros((1, 1)), name="circle", periods=(1.0,))
    orb = ReebOrbit.from_point(ch, [0.0], 1.0, n_samples=8)
    for call in (lambda: return_map(orb), lambda: spectral.asymptotic_operator(orb, 2)):
        with pytest.raises(OutOfRange, match=r"^circle: n = 0"):
            call()


def test_classify_orbit_contract():
    rot = np.array([[np.cos(np.pi / 3), -np.sin(np.pi / 3)], [np.sin(np.pi / 3), np.cos(np.pi / 3)]])
    rm = ReturnMap(rot, np.linalg.eigvals(rot), 0, 0.0)
    assert isinstance(classify_orbit(rm), Nondegenerate)
    rm_id = ReturnMap(np.eye(2), np.ones(2, dtype=complex), 2, 0.0)
    cls = classify_orbit(rm_id)
    assert isinstance(cls, MorseBottCandidate) and cls.multiplicity == 2
    # a singular value of Psi - I within half of UNIT_TOL of 0 is one that
    # return_map counts, and classify_orbit reads that count
    m = np.diag([1.0 + 0.5 * UNIT_TOL, 0.37])
    unit = int(np.sum(np.linalg.svd(m - np.eye(2), compute_uv=False) <= UNIT_TOL))
    rm_close = ReturnMap(m, np.linalg.eigvals(m), unit, 0.0)
    cls2 = classify_orbit(rm_close)
    assert isinstance(cls2, MorseBottCandidate) and cls2.multiplicity == 1
    # on a computed orbit the two agree: the torus return map is the identity
    ch = torus_chart()
    rm_torus = return_map(ReebOrbit.from_point(ch, np.zeros(3), 1.0))
    assert classify_orbit(rm_torus) == MorseBottCandidate(rm_torus.unit_eigen_dim)


def test_unit_count_of_a_shear_is_the_family_dimension():
    # lam = (1 + 0.35 p^2) dt1 + p dt2 on (t1, t2, p): the period-1 orbits
    # through p = 0 form a one-parameter family in t2, and the return map at
    # the origin is the shear [[1, 0.7], [0, 1]] in the dlam-symplectic frame
    # (dlam(e, f) = +1; the orthonormal frame, with dlam(e, f) = -1, read
    # -0.7), whose eigenvalue 1 is double but whose kernel of Psi - I is one line
    ch = ContactChart(1, lambda x: np.array([1.0 + 0.35 * x[2] ** 2, x[2], 0.0]),
                      lambda x: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.7 * x[2], 1.0, 0.0]]),
                      name="twisted_torus", periods=(1.0, 1.0, None))
    rm = return_map(ReebOrbit.from_point(ch, np.zeros(3), 1.0))
    assert np.max(np.abs(rm.matrix - np.array([[1.0, 0.7], [0.0, 1.0]]))) < 1e-8
    assert rm.unit_eigen_dim == 1
    assert classify_orbit(rm) == MorseBottCandidate(1)


def test_family_scan_torus_constant_period():
    ch = torus_chart()
    seed = ReebOrbit.from_point(ch, np.zeros(3), 1.0)
    scan = orbit_family_scan(ch, seed, [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])], n_samples=4, step=0.1)
    assert scan.n_failed == 0
    assert scan.period_spread < 1e-8


def test_family_scan_takes_a_seed_of_an_equal_chart():
    # the seed and the scan get their charts from two calls of the model;
    # this raised ModeMismatch "another chart (torus) than the one given
    # (torus)" while each call built new lambdas
    seed = ReebOrbit.from_point(torus_chart(), np.zeros(3), 1.0)
    scan = orbit_family_scan(torus_chart(), seed, [[0.0, 1.0, 0.0]])
    assert scan.n_failed == 0
    assert scan.period_spread < 1e-8


def test_family_scan_round_sphere_tube():
    # equal frequencies: every nearby point sits on a period-2pi orbit
    ch = weighted_tube_chart(1.0, 1.0)
    seed = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    scan = orbit_family_scan(ch, seed, [np.array([0.0, 1.0, 0.0])], n_samples=4, step=0.05)
    assert scan.n_failed == 0
    assert scan.period_spread < 1e-8


def test_family_scan_detects_broken_family():
    # a radius-dependent rotation speed destroys every off-center orbit;
    # Gauss-Newton stalls at a least-squares stationary point and stops there,
    # well before its max_iter = 25 steps, keeping its residual history
    ch = perturbed_tube_chart(1.0, 1.0, 0.8)
    seed = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    scan = orbit_family_scan(ch, seed, [np.array([0.0, 1.0, 0.0])], n_samples=3, step=0.1)
    assert scan.n_failed == 3
    for row in scan.samples:
        assert not row.converged
        assert row.residual > 1e-6
        assert 0 < len(row.history) < 25
        assert row.history[-1] == row.residual


def test_family_scan_records_chart_failures_per_sample(monkeypatch):
    ch = torus_chart()
    seed = ReebOrbit.from_point(ch, np.zeros(3), 1.0)
    real = dynamics.find_closed_orbit
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise SingularChart("singular at the second sample")
        if len(calls) == 3:
            raise SingularChart("singular at the third sample")
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "find_closed_orbit", flaky)
    scan = orbit_family_scan(ch, seed, [np.array([0.0, 1.0, 0.0])], n_samples=4, step=0.1)
    assert [r.converged for r in scan.samples] == [True, False, False, True]
    assert scan.n_failed == 2
    assert scan.samples[1].period is None and scan.samples[1].residual == np.inf
    assert scan.period_spread < 1e-8


def test_off_center_orbit_action():
    # resonant tube: orbits exist through every point; action still equals
    # the period even when the loop winds through the rotating fiber
    ch = weighted_tube_chart(1.0, 1.0)
    orb = find_closed_orbit(ch, [0.1, 0.25, -0.1], 6.2, fix_point=True)
    assert abs(orb.period - 2 * np.pi) < 1e-8
    assert abs(orb.action() - orb.period) < 1e-8


def test_a_failed_integration_is_out_of_range_naming_where_it_stopped(monkeypatch):
    # used to end in a bare RuntimeError, and a scenario in a raw traceback
    def failing(fun, y0, T, *args):
        raise _dop853.StepSizeUnderflow(0.25)

    monkeypatch.setattr(_dop853, "solve", failing)
    stopped = r"torus: the integration stopped at t = 0\.25 of 1\.0: Required step size"
    for call in (lambda: flow(torus_chart(), np.zeros(3), 1.0), lambda: monodromy(torus_chart(), np.zeros(3), 1.0)):
        with pytest.raises(OutOfRange, match=stopped):
            call()
    with pytest.raises(NumericalFailure, match="return_map: " + stopped):
        cli.run_scenario({"kind": "return_map", "seed": 1, "params": {"model": "torus"}, "name": "return_map"})
    # a real failure: y' = y^2, y(0) = 1 blows up at t = 1, where scipy's run stops too
    monkeypatch.undo()
    with pytest.raises(_dop853.StepSizeUnderflow, match="Required step size is less than spacing") as stop:
        _dop853.solve(lambda y: y * y, np.array([1.0]), 2.0, dynamics.RTOL, dynamics.ATOL, None)
    ref = scipy.integrate.solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], method="DOP853",
                                    rtol=dynamics.RTOL, atol=dynamics.ATOL)
    assert ref.status == -1 and stop.value.t == ref.t[-1]
    assert abs(stop.value.t - 1.0) < 1e-8
