"""The input contract: every public entry point returns a verified answer or
raises a typed error.

Each callable in ``contactlab.__all__``, and ``core.reeb_batch``, has one
valid call here and strategies that break one argument at a time: wrong
shapes, NaN and +-inf, zero and negative sizes, and bools or floats where a
count belongs.  A broken argument must raise a ``ContactLabError`` (pyproject
makes a ``RuntimeWarning`` an error, so a warning fails too), and a valid
call must return finite arrays.  The record types the library returns are
listed apart; any other public callable without an entry fails the
meta-check, so a new public function cannot skip the contract.

The regression cases below name what each one did before it raised.
"""

import dataclasses
import functools
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import contactlab
from contactlab import core, decay, dynamics, models, normalform, spectral
from contactlab.errors import ContactLabError, ModeMismatch, OutOfRange, SingularChart

NONFINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def bad_real(lo=None, strict=True):
    """Reals that break a finite scalar > lo (>= lo unless ``strict``)."""
    if lo is None:
        return NONFINITE
    below = st.floats(max_value=lo, exclude_max=not strict, allow_nan=False, allow_infinity=False)
    return st.one_of(NONFINITE, below, st.booleans())


def bad_count(lo):
    """Values that break an integer count >= lo."""
    return st.one_of(st.integers(max_value=lo - 1), st.booleans(), NONFINITE, st.floats(-1e3, 1e3))


def bad_array(good, shapes=()):
    """``good`` with one entry made non-finite, or an array of a wrong shape."""
    good = np.asarray(good, dtype=float)

    def spoil(args):
        i, value = args
        out = good.copy()
        out.flat[i % out.size] = value
        return out

    spoiled = st.tuples(st.integers(0, 10**6), NONFINITE).map(spoil)
    return st.one_of(spoiled, st.sampled_from(shapes).map(lambda s: np.full(s, 0.1))) if shapes else spoiled


def bad_points(d, point=True, stack=True):
    """Values that break a point (d,) or a non-empty stack (N, d), as allowed."""
    good = np.linspace(0.1, 0.3, d) if point else np.linspace(0.1, 0.3, 2 * d).reshape(2, d)
    shapes = [(d + 1,), (), (2, d + 1), (2, d, 1)] + ([(d - 1,)] if d > 1 else [])
    shapes += [(0, d)] if stack else [(1, d)]
    shapes += [] if point else [(d,)]
    return bad_array(good, shapes)


class Entry(NamedTuple):
    call: Callable
    valid: Callable[[], dict]  # keyword arguments of one valid call
    breaks: dict = {}  # argument -> strategy of values that break it


# cached ingredients of the valid calls
DARBOUX = models.darboux_chart(1)
TORUS = models.torus_chart()
P3 = np.array([0.1, 0.2, 0.3])
STACK3 = np.array([[0.1, 0.2, 0.3], [-0.2, 0.4, 0.1]])
PERT = core.PerturbationData(lambda x: 2.0 + np.sin(x[0]))
STD = np.array([[0.0, 1.0], [-1.0, 0.0]])
JSTD = np.array([[0.0, -1.0], [1.0, 0.0]])


@functools.cache
def torus_orbit():
    return dynamics.ReebOrbit.from_point(TORUS, np.zeros(3), 1.0, n_samples=16)


@functools.cache
def thickening():
    return normalform.build_thickening(normalform.circle_setup(), STD, radius=0.5, fiber_pts=5, base_pts=2)


@functools.cache
def operator():
    return spectral.assemble_operator(-0.7 * np.eye(2), period=1.0, n_modes=4, n_t=32)


def torus_loop(n_t=16):
    return np.stack([np.array([0.25 + t, 0.55]) for t in np.arange(n_t) / n_t]) % 1.0


def torus_cylinder():
    w = np.zeros((5, 8, 3))
    w[..., 0] = np.arange(8) / 8
    w[..., 1] = 0.3
    return w


CONTRACT = {
    # core
    "ContactChart": Entry(core.ContactChart, lambda: dict(n=1, lam=DARBOUX.lam, periods=(1.0, None, None)), {
        "n": bad_count(0),
        "periods": st.one_of(bad_real(0).map(lambda P: (P, None, None)), st.just((1.0, None)))}),
    "PerturbationData": Entry(core.PerturbationData, lambda: dict(f=lambda x: 2.0)),
    "chart_diagnostics": Entry(core.chart_diagnostics, lambda: dict(chart=DARBOUX, points=STACK3),
                               {"points": bad_points(3)}),
    "contact_volume": Entry(core.contact_volume, lambda: dict(chart=DARBOUX, x=STACK3), {"x": bad_points(3)}),
    "flat_dual": Entry(core.flat_dual, lambda: dict(chart=DARBOUX, alpha=P3[::-1], x=P3),
                       {"alpha": bad_array(P3, [(2,), (2, 3)]), "x": bad_points(3)}),
    "sharp_dual": Entry(core.sharp_dual, lambda: dict(chart=DARBOUX, X=STACK3[::-1], x=STACK3),
                        {"X": bad_array(STACK3, [(3,), (1, 3)]), "x": bad_points(3, point=False)}),
    "project_xi": Entry(core.project_xi, lambda: dict(chart=DARBOUX, Z=P3[::-1], x=P3),
                        {"Z": bad_array(P3, [(4,), (2, 3)]), "x": bad_points(3)}),
    "perturbed_projection": Entry(core.perturbed_projection, lambda: dict(chart=DARBOUX, pert=PERT, Z=P3, x=P3),
                                  {"Z": bad_points(3, stack=False), "x": bad_points(3, stack=False)}),
    "perturbed_reeb": Entry(core.perturbed_reeb, lambda: dict(chart=DARBOUX, pert=PERT, x=P3),
                            {"x": bad_points(3, stack=False)}),
    "reeb_field": Entry(core.reeb_field, lambda: dict(chart=DARBOUX, x=P3), {"x": bad_points(3)}),
    "reeb_solve": Entry(core.reeb_solve, lambda: dict(chart=TORUS, x=STACK3), {"x": bad_points(3)}),
    "reeb_batch": Entry(core.reeb_batch, lambda: dict(chart=TORUS, xs=STACK3),
                        {"xs": bad_points(3, point=False)}),
    "triad_gradient": Entry(core.triad_gradient, lambda: dict(
        chart=DARBOUX, J=models.standard_darboux_J(DARBOUX), h=lambda x: x[0] ** 2 + x[2], x=P3),
        {"x": bad_points(3, stack=False)}),
    "xi_frame": Entry(core.xi_frame, lambda: dict(chart=DARBOUX, x=P3), {"x": bad_points(3, stack=False)}),
    # dynamics
    "flow": Entry(dynamics.flow, lambda: dict(chart=TORUS, x0=P3, T=0.5, steps=4), {
        "x0": bad_points(3, stack=False), "T": bad_real(), "steps": bad_count(1)}),
    "monodromy": Entry(dynamics.monodromy, lambda: dict(chart=TORUS, x0=P3, T=0.5, V=np.eye(3)[:, :2]), {
        "x0": bad_points(3, stack=False), "T": bad_real(),
        "V": bad_array(np.eye(3)[:, :2], [(3,), (2, 3), (3, 2, 1)])}),
    "ReebOrbit": Entry(dynamics.ReebOrbit.from_point, lambda: dict(chart=TORUS, p=P3, T=1.0, n_samples=8), {
        "p": bad_points(3, stack=False), "T": bad_real(0), "n_samples": bad_count(1), "tol": bad_real(0)}),
    "find_closed_orbit": Entry(dynamics.find_closed_orbit, lambda: dict(
        chart=TORUS, guess=[0.3, 0.6, 0.0], T_guess=1.2, n_samples=8), {
        "guess": bad_points(3, stack=False), "T_guess": bad_real(0), "tol": bad_real(0),
        "n_samples": bad_count(1),
        "winding": st.one_of(st.sampled_from([(1, 0), (1, 0, 0, 0)]),
                             st.one_of(NONFINITE, st.just(0.5), st.just(True)).map(lambda w: (w, 0, 0)))}),
    "orbit_family_scan": Entry(dynamics.orbit_family_scan, lambda: dict(
        chart=TORUS, seed=torus_orbit(), directions=[[0.0, 1.0, 0.0]], n_samples=1), {
        "directions": bad_points(3), "n_samples": bad_count(1), "step": bad_real(0)}),
    "return_map": Entry(dynamics.return_map, lambda: dict(chart=TORUS, orbit=torus_orbit())),
    "classify_orbit": Entry(dynamics.classify_orbit, lambda: dict(rm=dynamics.return_map(TORUS, torus_orbit())),
                            {"tol": bad_real(0, strict=False)}),
    # normalform
    "MorseBottSetup": Entry(normalform.MorseBottSetup, lambda: dataclasses.asdict(normalform.circle_setup())),
    "build_thickening": Entry(normalform.build_thickening, lambda: dict(
        setup=normalform.circle_setup(), Omega=STD, radius=0.5, fiber_pts=5, base_pts=2), {
        "Omega": bad_array(STD, [(3, 3), (4,), ()]), "k": bad_count(0), "radius": bad_real(0),
        "fiber_pts": st.one_of(bad_count(1), st.sampled_from([1, 2])), "base_pts": bad_count(1)}),
    "check_adapted": Entry(normalform.check_adapted, lambda: dict(
        tc=thickening(), J=normalform.make_adapted_J(thickening(), np.zeros((0, 0)), JSTD, np.zeros((2, 0))).matrix),
        {"q": bad_points(1, stack=False), "tol": bad_real(0, strict=False)}),
    "make_adapted_J": Entry(normalform.make_adapted_J, lambda: dict(
        tc=thickening(), J_G=np.zeros((0, 0)), J_E=JSTD, B=np.zeros((2, 0))), {"tol": bad_real(0, strict=False)}),
    "radial_identities": Entry(normalform.radial_identities, lambda: dict(tc=thickening(), c=2.0, points=STACK3),
                               {"c": bad_real(), "points": bad_points(3)}),
    "reeb_of_thickening": Entry(normalform.reeb_of_thickening, lambda: dict(tc=thickening(), q=[0.3]),
                                {"q": bad_points(1, stack=False)}),
    "split_contact_distribution": Entry(normalform.split_contact_distribution, lambda: dict(
        tc=thickening(), x=P3), {"x": bad_points(3, stack=False)}),
    "validate_setup": Entry(normalform.validate_setup, lambda: dict(
        setup=normalform.circle_setup(), points=[[0.1], [0.7]]), {"points": bad_points(1)}),
    # spectral
    "assemble_operator": Entry(spectral.assemble_operator, lambda: dict(S=0.7 * np.eye(2), period=1.0, n_modes=4), {
        "S": bad_array(0.7 * np.eye(2), [(3, 3), (2,)]), "period": bad_real(0), "n_modes": bad_count(0),
        "rank": st.one_of(bad_count(2), st.just(3)), "n_t": bad_count(1),
        "J0": st.sampled_from([np.eye(3), np.eye(2), np.full((2, 2), np.nan)])}),
    "asymptotic_operator": Entry(spectral.asymptotic_operator, lambda: dict(
        chart=TORUS, orbit=torus_orbit(), n_modes=2), {"n_modes": bad_count(0)}),
    "spectrum": Entry(spectral.spectrum, lambda: dict(op=operator()), {"kernel_tol": bad_real(0, strict=False)}),
    "gap_inequality_check": Entry(spectral.gap_inequality_check, lambda: dict(op=operator(), n_trials=8), {
        "n_trials": bad_count(1), "seed": bad_count(0), "slack": bad_real(0, strict=False),
        "kernel_tol": bad_real(0, strict=False)}),
    # decay
    "FlatTorusQ": Entry(decay.FlatTorusQ, lambda: dict(dim=2), {"dim": bad_count(1)}),
    "RotatingTubeQ": Entry(decay.RotatingTubeQ, lambda: dict(w_theta=1.0, w_fiber=0.5),
                           {"w_theta": bad_real(0), "w_fiber": bad_real()}),
    "Forcing": Entry(decay.Forcing, lambda: dict(delta0=0.5, profile={1: 1.0}), {
        "delta0": bad_real(0),
        "profile": st.one_of(bad_real(), st.floats(-1e3, 1e3), st.booleans()).map(lambda k: {k: 1.0})}),
    "IntervalSeq": Entry(decay.IntervalSeq, lambda: dict(x=[1.0, 0.5, 0.3], gamma=0.4), {
        "x": st.one_of(bad_array([1.0, 0.5, 0.3], [(2, 2, 3)]), st.just([1.0, -0.5, 0.3])),
        "gamma": st.one_of(bad_real(0), st.just(0.5))}),
    "action_charge": Entry(decay.action_charge, lambda: dict(w_samples=torus_cylinder(), chart=TORUS, R=1.0), {
        "w_samples": bad_array(torus_cylinder(), [(5, 8), (5, 8, 2), (2, 8, 3), (5, 0, 3)]), "R": bad_real(0)}),
    "center_of_mass": Entry(decay.center_of_mass, lambda: dict(model=decay.FlatTorusQ(2), gamma=torus_loop(), T=1.0), {
        "gamma": bad_points(2, point=False), "T": bad_real(0), "delta_tube": bad_real(0), "tol": bad_real(0),
        "reference": bad_points(2, stack=False)}),
    "decay_rate": Entry(decay.decay_rate, lambda: dict(field=decay.solve_cylinder(
        operator(), None, np.ones((32, 2)), R=20.0, n_tau=100))),
    "gamma_of_c": Entry(decay.gamma_of_c, lambda: dict(c=0.5), {"c": st.one_of(bad_real(0), st.floats(709.0, 1e308))}),
    "growth_factor": Entry(decay.growth_factor, lambda: dict(gamma=0.3),
                           {"gamma": st.one_of(bad_real(0), st.just(0.5), st.just([0.3, np.nan]))}),
    "mean_zero_check": Entry(decay.mean_zero_check, lambda: dict(
        model=decay.FlatTorusQ(2), zeta_samples=torus_loop(), T=1.0),
        {"zeta_samples": bad_points(2, point=False), "T": bad_real()}),
    "random_hypothesis_sequences": Entry(decay.random_hypothesis_sequences, lambda: dict(
        rng=np.random.default_rng(0), n_seq=3, N=5), {"n_seq": bad_count(1), "N": bad_count(1)}),
    "solve_cylinder": Entry(decay.solve_cylinder, lambda: dict(
        op=operator(), forcing=None, zeta0=np.ones((32, 2)), R=1.0, n_tau=10), {
        "zeta0": bad_array(np.ones((32, 2)), [(31, 2), (32, 3), (7,)]), "R": bad_real(0),
        "n_tau": bad_count(1), "n_t": bad_count(1)}),
    "three_interval_bound": Entry(decay.three_interval_bound, lambda: dict(
        seq=decay.IntervalSeq([1.0, 0.5, 0.3], 0.4)), {"slack": bad_real(0, strict=False)}),
}

# record types the library builds and returns; constructing one by hand is
# not an entry point, so they have no input contract
RECORDS = {"ActionCharge", "CylinderField", "MorseBottCandidate", "Nondegenerate", "ReturnMap", "AdaptedJ",
           "ThickeningChart", "SpectralOperator"}


def test_every_public_callable_has_a_contract_entry():
    public = {name for name in contactlab.__all__ if callable(getattr(contactlab, name))}
    assert public - RECORDS - set(CONTRACT) == set()
    assert set(CONTRACT) - public == {"reeb_batch"}
    assert RECORDS <= public


def all_finite(value) -> bool:
    """True when every float and every numeric array inside value is finite."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.all(np.isfinite(value)))
    if isinstance(value, float):
        return bool(np.isfinite(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(all_finite(v) for v in value)
    return True


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_the_valid_call_returns_finite_arrays(name):
    entry = CONTRACT[name]
    assert all_finite(entry.call(**entry.valid()))


BROKEN = sorted(name for name, entry in CONTRACT.items() if entry.breaks)


@pytest.mark.parametrize("name", BROKEN)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_broken_argument_raises_a_typed_error(name, data):
    entry = CONTRACT[name]
    arg = data.draw(st.sampled_from(sorted(entry.breaks)), label="argument")
    bad = data.draw(entry.breaks[arg], label=arg)
    with pytest.raises(ContactLabError):
        entry.call(**{**entry.valid(), arg: bad})


# ---------------------------------------------------------------------------
# regressions, each seen with a probe script before the shared validators


def warped_tube():
    """The warped tube chart of test_normalform: contact up to fiber radius ~0.84."""
    return core.ContactChart(n=1, lam=lambda x: np.array([1.0 + x[1] ** 4, -0.5 * x[2], 0.5 * x[1]]),
                             periods=(1.0, None, None))


NAN3 = np.array([np.nan, 0.2, 0.3])
NAN_CHART = core.ContactChart(1, lambda x: np.full(3, np.nan))

DEGENERATE = {
    # used to return 1.1 as verified: a grid with no fiber point inside the
    # tube checks nothing (fiber_pts = 17 raises NotContact near 0.84)
    "tube_fiber_pts_0": lambda: normalform.contact_tube_radius(warped_tube(), 1, 1.1, fiber_pts=0),
    "tube_fiber_pts_1": lambda: normalform.contact_tube_radius(warped_tube(), 1, 1.1, fiber_pts=1),
    "tube_fiber_pts_2": lambda: normalform.contact_tube_radius(warped_tube(), 1, 1.1, fiber_pts=2),
    # used to return a chart
    "thickening_radius_negative": lambda: normalform.build_thickening(normalform.circle_setup(), STD, radius=-1.0),
    "thickening_radius_nan": lambda: normalform.build_thickening(normalform.circle_setup(), STD, radius=np.nan),
    # used to return a NaN action and charge with decay_claim_applies=False,
    # and numbers for R = -1
    "action_charge_R_nan": lambda: decay.action_charge(torus_cylinder(), TORUS, np.nan),
    "action_charge_R_negative": lambda: decay.action_charge(torus_cylinder(), TORUS, -1.0),
    # used to return an empty scan with spread NaN
    "family_scan_no_samples": lambda: dynamics.orbit_family_scan(TORUS, torus_orbit(), [[0.0, 1.0, 0.0]],
                                                                 n_samples=0),
    "gamma_of_c_nan": lambda: decay.gamma_of_c(np.nan),  # used to return nan
    "solve_cylinder_nan_zeta0": lambda: decay.solve_cylinder(  # used to return a NaN field
        operator(), None, np.full((32, 2), np.nan), 1.0, 10),
    "reeb_batch_nan_point": lambda: core.reeb_batch(TORUS, NAN3[None]),  # used to return NaN vectors
    # used to return NaN vectors: the chart is NaN at a finite point
    "reeb_batch_nan_chart": lambda: core.reeb_batch(NAN_CHART, STACK3),
    "forcing_fractional_index": lambda: decay.Forcing(0.5, {1.5: 1.0}),  # used to force eigenmode 1
    "contact_volume_nan_point": lambda: core.contact_volume(TORUS, NAN3),  # used to return nan
    # used to accept the NaN
    "three_interval_slack_nan": lambda: decay.three_interval_bound(decay.IntervalSeq([1.0, 0.5, 0.3], 0.4),
                                                                   slack=np.nan),
    "gap_check_slack_nan": lambda: spectral.gap_inequality_check(operator(), 8, slack=np.nan),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_a_degenerate_answer_is_out_of_range(case):
    with pytest.raises(OutOfRange):
        DEGENERATE[case]()


P2 = np.array([0.1, 0.2])

RAW = {
    # a (2,) point on a 3-d chart used to end in an IndexError
    "reeb_solve_short_point": (ModeMismatch, lambda: core.reeb_solve(TORUS, P2)),
    "contact_volume_short_point": (ModeMismatch, lambda: core.contact_volume(TORUS, P2)),
    "xi_frame_short_point": (ModeMismatch, lambda: core.xi_frame(TORUS, P2)),
    "triad_gradient_short_point": (ModeMismatch, lambda: core.triad_gradient(
        DARBOUX, models.standard_darboux_J(DARBOUX), lambda x: x[0], P2)),
    "find_closed_orbit_short_guess": (ModeMismatch, lambda: dynamics.find_closed_orbit(TORUS, P2, 1.0)),
    "from_point_short_point": (ModeMismatch, lambda: dynamics.ReebOrbit.from_point(TORUS, P2, 1.0)),
    # used to end in an IndexError
    "reeb_batch_single_point": (ModeMismatch, lambda: core.reeb_batch(TORUS, P3)),
    # used to end in LinAlgError: SVD did not converge
    "reeb_solve_nan_lambda": (OutOfRange, lambda: core.reeb_solve(NAN_CHART, P3)),
    # used to end in a LinAlgError and a RuntimeWarning
    "flow_T_nan": (OutOfRange, lambda: dynamics.flow(TORUS, P3, np.nan)),
    "flow_T_inf": (OutOfRange, lambda: dynamics.flow(TORUS, P3, np.inf)),
    # used to end in a TypeError
    "flow_fractional_steps": (OutOfRange, lambda: dynamics.flow(TORUS, P3, 1.0, steps=2.5)),
    "from_point_fractional_samples": (OutOfRange, lambda: dynamics.ReebOrbit.from_point(
        TORUS, P3, 1.0, n_samples=2.5)),
    # used to end in a ValueError
    "monodromy_vector_V": (ModeMismatch, lambda: dynamics.monodromy(TORUS, P3, 1.0, np.ones(3))),
    # used to end in a LinAlgError and a ValueError
    "center_of_mass_T_nan": (OutOfRange, lambda: decay.center_of_mass(decay.FlatTorusQ(2), torus_loop(), np.nan)),
    "center_of_mass_flat_gamma": (ModeMismatch, lambda: decay.center_of_mass(
        decay.FlatTorusQ(2), np.zeros(16), 1.0)),
    # used to end in an IndexError
    "mean_zero_check_flat_samples": (ModeMismatch, lambda: decay.mean_zero_check(
        decay.FlatTorusQ(2), np.zeros(4), 1.0)),
    # used to end in a RuntimeWarning (division by zero)
    "action_charge_R_zero": (OutOfRange, lambda: decay.action_charge(torus_cylinder(), TORUS, 0.0)),
    # used to end in an OverflowError from math.exp
    "gamma_of_c_large": (OutOfRange, lambda: decay.gamma_of_c(1000.0)),
    # used to end in a ValueError from solve_ivp
    "family_scan_step_nan": (OutOfRange, lambda: dynamics.orbit_family_scan(
        TORUS, torus_orbit(), [[0.0, 1.0, 0.0]], step=np.nan)),
    # used to end in a ValueError
    "tube_base_pts_0": (OutOfRange, lambda: normalform.contact_tube_radius(warped_tube(), 1, 0.4, base_pts=0)),
}


@pytest.mark.parametrize("case", sorted(RAW))
def test_a_raw_error_is_typed(case):
    error, call = RAW[case]
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# one message for a singular point, whichever entry point meets it

SINGULAR = models.darboux_chart(1, scale=0.0)
AT_POINT = r"at \[0\.1 0\.2 0\.3\] \(sigma_min"
AT_ROW = r"at point 0 of the stack, \[0\.1 0\.2 0\.3\] \(sigma_min"


@pytest.mark.parametrize("call, where", [
    (lambda: core.reeb_solve(SINGULAR, P3), AT_POINT),
    (lambda: core.project_xi(SINGULAR, P3, P3), AT_POINT),
    (lambda: core.flat_dual(SINGULAR, P3, P3), AT_POINT),
    (lambda: core.xi_dual_part(SINGULAR, P3, P3), AT_POINT),
    (lambda: core.reeb_batch(SINGULAR, P3[None]), AT_ROW),
], ids=["reeb_solve", "project_xi", "flat_dual", "xi_dual_part", "reeb_batch"])
def test_a_singular_point_reads_the_same_from_every_entry_point(call, where):
    with pytest.raises(SingularChart, match=rf"{re.escape(SINGULAR.name)}: \w+ system (rank-deficient|singular) {where}"):
        call()
