"""Flows, closed orbits, return maps, and family scans."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import core, dynamics
from contactlab.core import ContactChart
from contactlab.dynamics import (
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
from contactlab.errors import LeftChartDomain, NoConvergence, OutOfRange, SingularChart
from contactlab.models import (
    darboux_chart,
    exp_factor_chart,
    perturbed_tube_chart,
    torus_chart,
    weighted_tube_chart,
    weighted_tube_flow,
)


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


def test_flow_leaves_domain():
    ch = ContactChart(
        n=1,
        lam=darboux_chart(1).lam,
        grad=darboux_chart(1).grad,
        domain=lambda x: abs(x[2]) < 0.5,
    )
    with pytest.raises(LeftChartDomain):
        flow(ch, [0.0, 0.0, 0.0], 1.0)


def test_monodromy_enforces_chart_domain():
    # the torus flow runs along t1 and leaves |t1| < 0.5 at time 0.4
    ch = dataclasses.replace(torus_chart(), domain=lambda x: abs(x[0]) < 0.5)
    with pytest.raises(LeftChartDomain):
        dynamics.monodromy(ch, [0.1, 0.2, 0.0], 1.0)
    with pytest.raises(NoConvergence):
        find_closed_orbit(ch, [0.1, 0.2, 0.0], 1.1)


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


def test_fixed_point_shooting_integrates_the_flow_alone(monkeypatch):
    real = core.reeb_batch
    calls = []
    monkeypatch.setattr(core, "reeb_batch", lambda *args: calls.append(1) or real(*args))
    orb = find_closed_orbit(weighted_tube_chart(1.0, 1.0), [0.1, 0.25, -0.1], 6.2, fix_point=True)
    assert abs(orb.period - 2 * np.pi) < 1e-8
    assert calls == []


@pytest.mark.parametrize(
    "chart, winding",
    # the Darboux chart declares no periods; the torus fiber coordinate p has none
    [(darboux_chart(1), (0, 0, 1)), (torus_chart(), (1, 0, 1))],
    ids=["chart_without_periods", "non_periodic_coordinate"],
)
def test_winding_misuse_is_out_of_range(chart, winding):
    with pytest.raises(OutOfRange):
        find_closed_orbit(chart, [0.0, 0.0, 0.0], 1.0, winding=winding)


def test_torus_orbit_found_anywhere():
    ch = torus_chart()
    orb = find_closed_orbit(ch, [0.3, 0.6, 0.0], 1.2)
    assert abs(orb.period - 1.0) < 1e-9
    assert orb.closure_residual < 1e-8
    # also away from p = 0: the whole chart is foliated by period-1 orbits
    orb2 = find_closed_orbit(ch, [0.0, 0.0, 0.25], 0.9)
    assert abs(orb2.period - 1.0) < 1e-9


def test_torus_orbit_with_impossible_winding():
    # demanding closure winding once around t2 cannot be met: the flow is a
    # pure t1-translation, so the t2 residual never moves
    ch = torus_chart()
    with pytest.raises(NoConvergence) as err:
        find_closed_orbit(ch, [0.0, 0.0, 0.3], 1.0, winding=(1, 1, 0))
    assert err.value.residual > 0.5


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


def test_period_collapse_is_not_an_orbit():
    # from T_guess = 0.3 the first Newton step lands on T ~ 5.6e-17, where
    # every point closes up with residual 0; that is no closed orbit
    with pytest.raises(NoConvergence) as info:
        find_closed_orbit(torus_chart(), [0.1, 0.2, 0.0], 0.3)
    assert info.value.history
    assert info.value.history[0] > 0.1


def test_return_map_torus_identity():
    ch = torus_chart()
    orb = ReebOrbit.from_point(ch, np.zeros(3), 1.0)
    rm = return_map(ch, orb)
    assert np.max(np.abs(rm.matrix - np.eye(2))) < 1e-8
    assert rm.symplectic_error < 1e-6
    cls = classify_orbit(rm)
    assert isinstance(cls, MorseBottCandidate)
    assert cls.multiplicity == 2


@pytest.mark.parametrize("ratio", [2.0, 1.41421356])
def test_return_map_rotation_eigenvalues(ratio):
    ch = weighted_tube_chart(1.0, ratio)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    rm = return_map(ch, orb)
    angle = 2 * np.pi * ratio
    expected = np.sort_complex(np.array([np.exp(1j * angle), np.exp(-1j * angle)]))
    got = np.sort_complex(rm.eigenvalues)
    assert np.max(np.abs(got - expected)) < 1e-6
    assert abs(np.linalg.det(rm.matrix) - 1.0) < 1e-8


def test_return_map_symplectic():
    ch = weighted_tube_chart(1.0, 0.31)
    orb = ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    rm = return_map(ch, orb)
    assert rm.symplectic_error < 1e-6


def test_classify_orbit_contract():
    Om = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rot = np.array([[np.cos(np.pi / 3), -np.sin(np.pi / 3)], [np.sin(np.pi / 3), np.cos(np.pi / 3)]])
    rm = ReturnMap(rot, np.linalg.eigvals(rot), 0, Om, 0.0)
    assert isinstance(classify_orbit(rm), Nondegenerate)
    rm_id = ReturnMap(np.eye(2), np.ones(2, dtype=complex), 2, Om, 0.0)
    cls = classify_orbit(rm_id)
    assert isinstance(cls, MorseBottCandidate) and cls.multiplicity == 2
    # an eigenvalue within half a tolerance of 1 counts as unit
    tol = 1e-6
    m = np.diag([1.0 + 0.5 * tol, 0.37])
    rm_close = ReturnMap(m, np.linalg.eigvals(m), 1, Om, 0.0)
    cls2 = classify_orbit(rm_close, tol=tol)
    assert isinstance(cls2, MorseBottCandidate) and cls2.multiplicity == 1


def test_family_scan_torus_constant_period():
    ch = torus_chart()
    seed = ReebOrbit.from_point(ch, np.zeros(3), 1.0)
    scan = orbit_family_scan(ch, seed, [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])], n_samples=4, step=0.1)
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
            raise LeftChartDomain("left the chart at the third sample")
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
