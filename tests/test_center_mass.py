"""Center of mass on the Morse-Bott locus; action and charge functionals."""

from pathlib import Path

import numpy as np
import pytest

from contactlab import cli, decay
from contactlab.decay import FlatTorusQ, action_charge, center_of_mass
from contactlab.errors import ModeMismatch, OutsideTube
from contactlab.models import torus_chart, weighted_tube_chart
from oracle_models import RotatingTubeQ


def torus_orbit_samples(model, z0, T, n_t):
    ts = np.arange(n_t) / n_t
    gamma = np.stack([model.flow(np.array(z0, dtype=float), T * t) for t in ts])
    return np.mod(gamma, model.periods), ts


def test_reeb_orbit_returns_base_and_identity():
    model = FlatTorusQ(2)
    z0 = [0.25, 0.55]
    gamma, ts = torus_orbit_samples(model, z0, 1.0, 64)
    res = center_of_mass(model, gamma, 1.0)
    assert np.max(np.abs(model.wrap(res.m - z0))) < 1e-12
    assert np.max(np.abs(res.h - ts)) < 1e-10
    assert res.residual_mean < 1e-12
    assert res.residual_xi < 1e-12


def test_offset_loop_closed_form():
    model = FlatTorusQ(2)
    z0 = np.array([0.1, 0.4])
    v = np.array([0.0, 0.12])
    gamma, _ = torus_orbit_samples(model, z0 + v, 1.0, 64)
    res = center_of_mass(model, gamma, 1.0)
    assert np.max(np.abs(model.wrap(res.m - (z0 + v)))) < 1e-8


def test_perturbed_loop_newton_converges_to_average():
    # transverse + along-orbit perturbation with nonzero mean: on the flat
    # torus the closed form is m = (mean gamma_1 - T/2, mean gamma_rest)
    model = FlatTorusQ(2)
    n_t = 64
    ts = np.arange(n_t) / n_t
    z0 = np.array([0.3, 0.6])
    pert = np.stack(
        [0.04 * np.cos(2 * np.pi * ts) + 0.015, 0.06 * np.sin(2 * np.pi * ts) + 0.02],
        axis=1,
    )
    gamma = np.mod(np.stack([model.flow(z0, t) for t in ts]) + pert, model.periods)
    res = center_of_mass(model, gamma, 1.0)
    expected = z0 + pert.mean(axis=0)
    assert np.max(np.abs(model.wrap(res.m - expected))) < 1e-8
    assert res.iterations <= 12
    # h carries the along-orbit wobble: h(t) = t + (pert_1(t) - mean)/T
    expected_h = ts + (pert[:, 0] - pert[:, 0].mean())
    assert np.max(np.abs(res.h - expected_h)) < 1e-8


def test_h_is_monotone_winding_one():
    model = FlatTorusQ(2)
    n_t = 48
    ts = np.arange(n_t) / n_t
    z0 = np.array([0.0, 0.2])
    pert = np.stack([0.05 * np.sin(4 * np.pi * ts), np.zeros(n_t)], axis=1)
    gamma = np.mod(np.stack([model.flow(z0, t) for t in ts]) + pert, model.periods)
    res = center_of_mass(model, gamma, 1.0)
    h_ext = np.concatenate([res.h, [1.0 + res.h[0]]])
    assert np.all(np.diff(h_ext) > 0)


def test_outside_tube():
    # distance measured against the orbit through the loop's first sample:
    # a transverse wobble that vanishes there and peaks at 0.4 leaves the
    # tube (radius CENTER_OF_MASS_TUBE = 0.25), one that peaks at 0.1 does not
    model = FlatTorusQ(2)
    gamma, ts = torus_orbit_samples(model, [0.0, 0.0], 1.0, 32)
    wobble = np.stack([np.zeros_like(ts), np.sin(2 * np.pi * ts)], axis=1)
    with pytest.raises(OutsideTube):
        center_of_mass(model, np.mod(gamma + 0.4 * wobble, model.periods), 1.0)
    # within the tube the same call succeeds; the wobble averages to zero
    res = center_of_mass(model, np.mod(gamma + 0.1 * wobble, model.periods), 1.0)
    assert np.max(np.abs(model.wrap(res.m))) < 1e-9


def test_one_flow_call_per_residual(monkeypatch):
    # each residual evaluation flows the whole loop as one (N, d) stack
    model = FlatTorusQ(2)
    n_t = 32
    ts = np.arange(n_t) / n_t
    pert = np.stack([0.03 * np.sin(2 * np.pi * ts), 0.02 * np.cos(2 * np.pi * ts)], axis=1)
    gamma = np.mod(np.stack([model.flow([0.2, 0.5], t) for t in ts]) + pert, model.periods)
    shapes = []
    real = model.flow
    monkeypatch.setattr(model, "flow", lambda q, s: shapes.append(np.shape(q)) or real(q, s))
    res = center_of_mass(model, gamma, 1.0)
    assert res.iterations >= 1
    # the tube check, one residual per Newton step plus the converged one,
    # and d + N forward differences per step
    assert len(shapes) == 1 + (res.iterations + 1) + res.iterations * (2 + n_t)
    assert set(shapes) == {(n_t, 2)}


def test_rotating_tube_perturbed_off_centre_loop():
    # closed form: with gamma(t) = phi^{Tt}(z0) + p(t), the xi-condition
    # fixes eta = (p_theta - mean p_theta) / T, and m is the mean of
    # phi^{-T(t + eta)} gamma(t): theta0 + mean p_theta along the circle,
    # and the mean of the fiber points rotated back by w T (t + eta)
    w, T, n_t = 0.7, 2 * np.pi, 64
    model = RotatingTubeQ(1.0, w)
    ts = np.arange(n_t) / n_t
    z0 = np.array([0.4, 0.15, -0.1])
    p = np.stack(
        [
            0.02 * np.sin(2 * np.pi * ts) + 0.01,
            0.03 * np.cos(2 * np.pi * ts),
            0.01 * np.sin(4 * np.pi * ts) + 0.02,
        ],
        axis=1,
    )

    def rotate(a, v):
        return np.stack([np.cos(a) * v[:, 0] - np.sin(a) * v[:, 1], np.sin(a) * v[:, 0] + np.cos(a) * v[:, 1]], 1)

    # the flow moves theta at unit speed and rotates the fiber by -w s
    orbit = np.column_stack([z0[0] + T * ts, rotate(-w * T * ts, np.tile(z0[1:], (n_t, 1)))])
    gamma = orbit + p
    gamma[:, 0] = np.mod(gamma[:, 0], T)
    res = center_of_mass(model, gamma, T)

    eta = (p[:, 0] - p[:, 0].mean()) / T
    back = rotate(w * T * (ts + eta), gamma[:, 1:])
    expected = np.concatenate([[z0[0] + p[:, 0].mean()], back.mean(axis=0)])
    assert np.max(np.abs(model.wrap(res.m - expected))) < 1e-8
    assert np.max(np.abs(res.h - (ts + eta))) < 1e-8
    assert np.linalg.norm(expected[1:]) > 0.1  # off the central circle


def cylinder_over_orbit(c, T, R, n_tau, n_t):
    taus = np.linspace(0, R, n_tau)
    ts = np.arange(n_t) / n_t
    w = np.zeros((n_tau, n_t, 3))
    for i, tau in enumerate(taus):
        w[i, :, 0] = np.mod(c * tau + T * ts, 1.0)
        w[i, :, 1] = 0.3
    return w


def test_action_charge_trivial_cylinder():
    ch = torus_chart()
    w = cylinder_over_orbit(0.0, 2.0, 1.0, 33, 64)
    ac = action_charge(w, ch, 1.0)
    assert abs(ac.action - 2.0) < 1e-10
    assert abs(ac.charge) < 1e-12
    assert ac.pi_energy < 1e-12
    assert ac.decay_claim_applies


def test_action_charge_slanted_cylinder():
    ch = torus_chart()
    w = cylinder_over_orbit(0.5, 2.0, 1.0, 33, 64)
    ac = action_charge(w, ch, 1.0)
    assert abs(ac.charge + 0.5) < 1e-10
    assert abs(ac.action - 2.0) < 1e-10
    assert not ac.decay_claim_applies  # nonzero charge: no decay claim


def test_action_charge_rescaled_orbit():
    ch = torus_chart()
    w = cylinder_over_orbit(0.0, 4.0, 1.0, 33, 64)
    assert abs(action_charge(w, ch, 1.0).action - 4.0) < 1e-10


def test_action_charge_with_transverse_energy():
    # a genuine pi-component: move the p coordinate with tau
    ch = torus_chart()
    n_tau, n_t, R = 65, 32, 1.0
    w = cylinder_over_orbit(0.0, 1.0, R, n_tau, n_t)
    taus = np.linspace(0, R, n_tau)
    w[:, :, 2] = 0.1 * taus[:, None]
    ac = action_charge(w, ch, R)
    # d/dp is in the kernel of lam, so the charge stays zero and the energy
    # picks up (0.1)^2 / 2 per unit area
    assert abs(ac.charge) < 1e-10
    assert abs(ac.pi_energy - 0.5 * 0.01 * R) < 1e-6


def test_action_charge_needs_three_tau_slices():
    with pytest.raises(ModeMismatch):
        action_charge(cylinder_over_orbit(0.0, 2.0, 1.0, 2, 16), torus_chart(), 1.0)


@pytest.mark.parametrize("shape", [(33, 3), (5, 8, 2), (5, 8, 4), (5, 8, 3, 1)])
def test_action_charge_rejects_samples_not_shaped_for_the_chart(shape):
    # a 2-D grid, a last axis of 2 or 4 on the 3-dimensional torus chart, and
    # a 4-D grid used to end in raw ValueError / IndexError tracebacks
    with pytest.raises(ModeMismatch, match=r"\(n_tau, n_t, 3\)"):
        action_charge(np.zeros(shape), torus_chart(), 1.0)


def test_action_charge_makes_one_stacked_reeb_solve(monkeypatch):
    # the shipped 33 x 64 grid took one point solve per grid point (2,112)
    real = decay.reeb_solve
    shapes = []
    monkeypatch.setattr(decay, "reeb_solve", lambda ch, x: shapes.append(np.shape(x)) or real(ch, x))
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "action_charge_slanted.json"
    report = cli.run_scenario(cli.load_scenario(scenario))
    assert shapes == [(33 * 64, 3)]
    assert report.all_passed


def test_action_charge_on_tube_chart():
    ch = weighted_tube_chart(1.0, 0.8)
    T = 2 * np.pi
    n_tau, n_t = 33, 64
    ts = np.arange(n_t) / n_t
    w = np.zeros((n_tau, n_t, 3))
    for i in range(n_tau):
        w[i, :, 0] = np.mod(T * ts, 2 * np.pi)
    ac = action_charge(w, ch, 1.0)
    assert abs(ac.action - T) < 1e-9
    assert abs(ac.charge) < 1e-10
