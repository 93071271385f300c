"""The input contract: every public entry point returns a verified answer or
raises a typed error.

Each callable in ``contactlab.__all__``, and ``core.reeb_batch``, has one
valid call here and strategies that break one argument at a time: wrong
shapes, NaN and +-inf, arrays that are not numbers, zero and negative sizes,
bools or floats where a count belongs, and callable arguments (a chart's
``lam`` and ``grad``, a factor ``f`` and ``grad_f``, ``S`` and ``S_of_tau``)
that return a wrong shape, a NaN or +-inf entry or no numbers; every entry
that takes a chart breaks it.  An entry that reads a record takes no second
copy of what the record holds: ``return_map`` and ``asymptotic_operator``
read the chart of their orbit, so they take no chart to break, and a seed
orbit of another chart than ``orbit_family_scan``'s raises ``ModeMismatch``
(RAW below).  A broken argument must raise a
``ContactLabError`` (pyproject makes a ``RuntimeWarning`` an error, so a
warning fails too), and a valid call must return finite arrays.  The record
types the library returns are listed apart; any other public callable without
an entry fails the meta-check, so a new public function cannot skip the
contract.

``KEYWORDS`` lists the keyword parameters (those with a default) of every
public callable of the package, so adding or dropping one shows up as a
change of that table.  And every public function and class of the library's
computing modules must have a caller in the library (``NO_LIBRARY_CALLER``
names the few whose callers are elsewhere), so no public API lives for its
tests alone, and every error class of ``errors.py`` must be raised there.

The regression cases below name what each one did before it raised.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import contactlab
from contactlab import core, decay, dynamics, models, normalform, spectral
from contactlab.errors import ContactLabError, ModeMismatch, OutOfRange, SingularChart

NONFINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def bad_real(lo=None):
    """Reals that break a finite scalar > lo."""
    if lo is None:
        return NONFINITE
    below = st.floats(max_value=lo, allow_nan=False, allow_infinity=False)
    return st.one_of(NONFINITE, below, st.booleans())


def bad_count(lo):
    """Values that break an integer count >= lo."""
    return st.one_of(st.integers(max_value=lo - 1), st.booleans(), NONFINITE, st.floats(-1e3, 1e3))


# values that are not an array of numbers: a string, a list holding a string
# and a ragged list
NOT_NUMBERS = st.sampled_from(["x", [0.1, "x"], [[0.1], [0.1, 0.2]]])


def bad_array(good, shapes=()):
    """``good`` with one entry made non-finite, an array of a wrong shape, or
    ``NOT_NUMBERS``."""
    good = np.asarray(good, dtype=float)

    def spoil(args):
        i, value = args
        out = good.copy()
        out.flat[i % out.size] = value
        return out

    parts = [st.tuples(st.integers(0, 10**6), NONFINITE).map(spoil), NOT_NUMBERS]
    if shapes:
        parts.append(st.sampled_from(shapes).map(lambda s: np.full(s, 0.1)))
    return st.one_of(*parts)


def bad_points(d, point=True, stack=True):
    """Values that break a point (d,) or a non-empty stack (N, d), as allowed."""
    good = np.linspace(0.1, 0.3, d) if point else np.linspace(0.1, 0.3, 2 * d).reshape(2, d)
    shapes = [(d + 1,), (), (2, d + 1), (2, d, 1)] + ([(d - 1,)] if d > 1 else [])
    shapes += [(0, d)] if stack else [(1, d)]
    shapes += [] if point else [(d,)]
    return bad_array(good, shapes)


def bad_callables(good):
    """Callables that break ``good``: its value with one entry NaN or +-inf,
    with one entry more (a wrong shape), or a value that is not numbers."""

    def spoiled(args):
        i, value = args

        def f(*args):
            out = np.array(good(*args), dtype=float)
            out.flat[i % out.size] = value
            return out
        return f

    def longer(*args):
        return np.append(good(*args), 0.1)

    no_numbers = [lambda *args: "x", lambda *args: [None, "x"], lambda *args: {"x": 1.0}]
    return st.one_of(st.tuples(st.integers(0, 10**6), NONFINITE).map(spoiled),
                     st.sampled_from([longer, *no_numbers]))


def bad_charts(chart):
    """Copies of chart whose ``lam`` or ``grad`` is one of ``bad_callables``."""
    return st.one_of(bad_callables(chart.lam).map(lambda f: dataclasses.replace(chart, lam=f)),
                     bad_callables(chart.grad).map(lambda f: dataclasses.replace(chart, grad=f)))


class Entry(NamedTuple):
    call: Callable
    valid: Callable[[], dict]  # keyword arguments of one valid call
    breaks: dict = {}  # argument -> strategy of values that break it


# cached ingredients of the valid calls
DARBOUX = models.darboux_chart(1)
TORUS = models.torus_chart()
P3 = np.array([0.1, 0.2, 0.3])
STACK3 = np.array([[0.1, 0.2, 0.3], [-0.2, 0.4, 0.1]])
PERT = core.PerturbationData(lambda x: 2.0 + np.sin(x[0]), lambda x: np.array([np.cos(x[0]), 0.0, 0.0]))
STD = np.array([[0.0, 1.0], [-1.0, 0.0]])
JSTD = np.array([[0.0, -1.0], [1.0, 0.0]])
CIRCLE = normalform.circle_setup()
TORUS_SETUP = normalform.torus_setup()
# a torus n_basis vector parallel to X_theta makes a splitting that is no
# basis; a set-up with bad data does not construct, so this and a value that
# is no set-up are the set-ups that reach build_thickening
PARALLEL_N = dataclasses.replace(TORUS_SETUP, n_basis=(np.array([1.0, 0.0]),))
BAD_SETUPS = st.sampled_from([PARALLEL_N, dataclasses.asdict(CIRCLE)])


@functools.cache
def torus_orbit():
    return dynamics.ReebOrbit.from_point(TORUS, np.zeros(3), 1.0, n_samples=16)


@functools.cache
def tube_orbit():
    return dynamics.ReebOrbit.from_point(models.weighted_tube_chart(1.0, 1.0), np.zeros(3), 2 * np.pi, n_samples=16)


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
    "PerturbationData": Entry(core.PerturbationData, lambda: dict(f=lambda x: 2.0, grad_f=lambda x: np.zeros(3))),
    "contact_volume": Entry(core.contact_volume, lambda: dict(chart=DARBOUX, x=STACK3),
                            {"x": bad_points(3), "chart": bad_charts(DARBOUX)}),
    "flat_dual": Entry(core.flat_dual, lambda: dict(chart=DARBOUX, alpha=P3[::-1], x=P3), {
        "alpha": bad_array(P3, [(2,), (2, 3)]), "x": bad_points(3), "chart": bad_charts(DARBOUX)}),
    "sharp_dual": Entry(core.sharp_dual, lambda: dict(chart=DARBOUX, X=STACK3[::-1], x=STACK3), {
        "X": bad_array(STACK3, [(3,), (1, 3)]), "x": bad_points(3, point=False), "chart": bad_charts(DARBOUX)}),
    "perturbed_projection": Entry(core.perturbed_projection, lambda: dict(chart=DARBOUX, pert=PERT, Z=P3, x=P3), {
        "Z": bad_points(3), "x": bad_points(3), "chart": bad_charts(DARBOUX)}),
    "perturbed_reeb": Entry(core.perturbed_reeb, lambda: dict(chart=DARBOUX, pert=PERT, x=P3), {
        "x": bad_points(3),
        "pert": st.one_of(bad_callables(PERT.f).map(lambda f: core.PerturbationData(f, PERT.grad_f)),
                          bad_callables(PERT.grad_f).map(lambda g: core.PerturbationData(PERT.f, g))),
        "chart": bad_charts(DARBOUX)}),
    "reeb_solve": Entry(core.reeb_solve, lambda: dict(chart=TORUS, x=STACK3),
                        {"x": bad_points(3), "chart": bad_charts(TORUS)}),
    "reeb_batch": Entry(core.reeb_batch, lambda: dict(chart=TORUS, xs=STACK3),
                        {"xs": bad_points(3, point=False), "chart": bad_charts(TORUS)}),
    "xi_frame": Entry(core.xi_frame, lambda: dict(chart=DARBOUX, x=P3),
                      {"x": bad_points(3, stack=False), "chart": bad_charts(DARBOUX)}),
    # dynamics
    "flow": Entry(dynamics.flow, lambda: dict(chart=TORUS, x0=P3, T=0.5, steps=4), {
        "x0": bad_points(3, stack=False), "T": bad_real(), "steps": bad_count(1), "chart": bad_charts(TORUS)}),
    "monodromy": Entry(dynamics.monodromy, lambda: dict(chart=TORUS, x0=P3, T=0.5, V=np.eye(3)[:, :2]), {
        "x0": bad_points(3, stack=False), "T": bad_real(),
        "V": bad_array(np.eye(3)[:, :2], [(3,), (2, 3), (3, 2, 1)]), "chart": bad_charts(TORUS)}),
    "ReebOrbit": Entry(dynamics.ReebOrbit.from_point, lambda: dict(chart=TORUS, p=P3, T=1.0, n_samples=8), {
        "p": bad_points(3, stack=False), "T": bad_real(0), "n_samples": bad_count(1), "chart": bad_charts(TORUS)}),
    "find_closed_orbit": Entry(dynamics.find_closed_orbit, lambda: dict(
        chart=TORUS, guess=[0.3, 0.6, 0.0], T_guess=1.2), {
        "guess": bad_points(3, stack=False), "T_guess": bad_real(0), "chart": bad_charts(TORUS)}),
    "orbit_family_scan": Entry(dynamics.orbit_family_scan, lambda: dict(
        chart=TORUS, seed=torus_orbit(), directions=[[0.0, 1.0, 0.0]], n_samples=1), {
        "directions": bad_points(3), "n_samples": bad_count(1), "step": bad_real(0), "chart": bad_charts(TORUS)}),
    "return_map": Entry(dynamics.return_map, lambda: dict(orbit=torus_orbit())),
    "classify_orbit": Entry(dynamics.classify_orbit, lambda: dict(rm=dynamics.return_map(torus_orbit()))),
    # normalform
    "MorseBottSetup": Entry(normalform.MorseBottSetup, lambda: dataclasses.asdict(TORUS_SETUP), {
        "theta0": bad_array([1.0, 0.0], [(3,), (1,), ()]), "theta_grad": bad_array(np.zeros((2, 2)), [(2,), (3, 3)]),
        "x_theta": bad_array([1.0, 0.0], [(3,), (2, 1)]),
        "n_basis": st.one_of(bad_array([[0.0, 1.0]], [(1, 3), (1, 1)]), st.sampled_from([1.0, None])),
        "g_basis": st.sampled_from([1.0, None, "x", ([0.0, 1.0],)])}),
    "build_thickening": Entry(normalform.build_thickening, lambda: dict(
        setup=CIRCLE, Omega=STD, radius=0.5, fiber_pts=5, base_pts=2), {
        "setup": BAD_SETUPS, "Omega": bad_array(STD, [(3, 3), (4,), ()]), "radius": bad_real(0),
        "fiber_pts": st.one_of(bad_count(1), st.sampled_from([1, 2])), "base_pts": bad_count(1)}),
    "check_adapted": Entry(normalform.check_adapted, lambda: dict(
        tc=thickening(), J=normalform.make_adapted_J(thickening(), np.zeros((0, 0)), JSTD, np.zeros((2, 0))).matrix),
        {"J": bad_array(np.eye(3), [(3, 2), (3,), (4, 4)])}),
    "make_adapted_J": Entry(normalform.make_adapted_J, lambda: dict(
        tc=thickening(), J_G=np.zeros((0, 0)), J_E=JSTD, B=np.zeros((2, 0))), {
        "J_G": st.sampled_from([np.zeros(0), np.eye(2), "x"]), "J_E": bad_array(JSTD, [(4,), (1, 2), ()]),
        "B": st.sampled_from([np.zeros((2, 1)), np.zeros(2), "x"])}),
    "radial_identities": Entry(normalform.radial_identities, lambda: dict(tc=thickening(), c=2.0, points=STACK3),
                               {"c": bad_real(), "points": bad_points(3)}),
    "reeb_of_thickening": Entry(normalform.reeb_of_thickening, lambda: dict(tc=thickening(), q=[0.3]),
                                {"q": bad_points(1, stack=False)}),
    "split_contact_distribution": Entry(normalform.split_contact_distribution, lambda: dict(
        tc=thickening(), x=P3), {"x": bad_points(3, stack=False)}),
    # spectral
    "assemble_operator": Entry(spectral.assemble_operator, lambda: dict(S=0.7 * np.eye(2), period=1.0, n_modes=4), {
        "S": st.one_of(bad_array(0.7 * np.eye(2), [(3, 3), (2,)]), bad_callables(lambda t: 0.7 * np.eye(2)),
                       st.just([["x", 0.0], [0.0, 1.0]])),
        "period": bad_real(0), "n_modes": bad_count(0),
        "rank": st.one_of(bad_count(2), st.just(3)), "n_t": bad_count(1)}),
    "asymptotic_operator": Entry(spectral.asymptotic_operator, lambda: dict(orbit=torus_orbit(), n_modes=2),
                                 {"n_modes": bad_count(0)}),
    "spectrum": Entry(spectral.spectrum, lambda: dict(op=operator())),
    "gap_inequality_check": Entry(spectral.gap_inequality_check, lambda: dict(op=operator(), n_trials=8), {
        "n_trials": bad_count(1), "seed": bad_count(0)}),
    # decay
    "FlatTorusQ": Entry(decay.FlatTorusQ, lambda: dict(dim=2), {"dim": bad_count(1)}),
    "Forcing": Entry(decay.Forcing, lambda: dict(delta0=0.5, profile=np.ones((32, 2))), {
        "delta0": bad_real(0),
        "profile": st.one_of(bad_array(np.ones((32, 2)), [(64,), (), (2, 32, 2)]), st.just({1: 1.0}))}),
    "IntervalSeq": Entry(decay.IntervalSeq, lambda: dict(x=[1.0, 0.5, 0.3], gamma=0.4), {
        "x": st.one_of(bad_array([1.0, 0.5, 0.3], [(2, 2, 3)]), st.just([1.0, -0.5, 0.3])),
        "gamma": st.one_of(bad_real(0), st.just(0.5))}),
    "action_charge": Entry(decay.action_charge, lambda: dict(w_samples=torus_cylinder(), chart=TORUS, R=1.0), {
        "w_samples": bad_array(torus_cylinder(), [(5, 8), (5, 8, 2), (2, 8, 3), (5, 0, 3)]), "R": bad_real(0),
        "chart": bad_charts(TORUS)}),
    "center_of_mass": Entry(decay.center_of_mass, lambda: dict(model=decay.FlatTorusQ(2), gamma=torus_loop(), T=1.0), {
        "gamma": bad_points(2, point=False), "T": bad_real(0)}),
    "decay_rate": Entry(decay.decay_rate, lambda: dict(field=decay.solve_cylinder(
        operator(), None, np.ones((32, 2)), R=20.0, n_tau=100))),
    "gamma_of_c": Entry(decay.gamma_of_c, lambda: dict(c=0.5), {"c": st.one_of(bad_real(0), st.floats(709.0, 1e308))}),
    "growth_factor": Entry(decay.growth_factor, lambda: dict(gamma=0.3),
                           {"gamma": st.one_of(bad_real(0), st.just(0.5), st.just([0.3, np.nan]), NOT_NUMBERS)}),
    "random_hypothesis_sequences": Entry(decay.random_hypothesis_sequences, lambda: dict(
        rng=np.random.default_rng(0), n_seq=3, N=5), {"n_seq": bad_count(1), "N": bad_count(1)}),
    # 20 steps, fine enough for the Crank-Nicolson march a broken S_of_tau starts
    "solve_cylinder": Entry(decay.solve_cylinder, lambda: dict(
        op=operator(), forcing=None, zeta0=np.ones((32, 2)), R=1.0, n_tau=20), {
        "zeta0": bad_array(np.ones((32, 2)), [(31, 2), (32, 3), (7,)]), "R": bad_real(0),
        "n_tau": bad_count(1), "n_t": bad_count(1), "S_of_tau": bad_callables(lambda s: -0.7 * np.eye(2))}),
    "three_interval_bound": Entry(decay.three_interval_bound, lambda: dict(
        seq=decay.IntervalSeq([1.0, 0.5, 0.3], 0.4))),
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


# keyword parameters (with a default) of every public callable of the package
# that has any: module.function, module.Class (its constructor) or
# module.Class.method.  Tolerances, steps and counts that no caller sets are
# module constants, not keywords.
KEYWORDS = {
    "cli.Report": ("results", "tables", "verdicts", "wall_time"),
    "cli.Report.add_verdict": ("passed",),
    "cli.emit_report": ("fmt",),
    "cli.main": ("argv",),
    "cli.run_scenario": ("seed_override",),
    "core.ContactChart": ("grad", "name", "periods"),
    "core.unwrap_angles": ("axis",),
    "decay.FlatTorusQ": ("dim",),
    "decay.solve_cylinder": ("n_t", "method", "S_of_tau"),
    "dynamics.FamilySample": ("history",),
    "dynamics.ReebOrbit.from_point": ("n_samples",),
    "dynamics.find_closed_orbit": ("fix_point",),
    "dynamics.flow": ("steps",),
    "dynamics.monodromy": ("V",),
    "dynamics.orbit_family_scan": ("n_samples", "step"),
    "errors.NoConvergence": ("history",),
    "models.darboux_chart": ("n", "scale"),
    "normalform.MorseBottSetup": ("periods", "name"),
    "normalform.build_thickening": ("radius", "fiber_pts", "base_pts"),
    "normalform.contact_tube_radius": ("fiber_pts", "base_pts"),
    "spectral.SpectralOperator": ("_matrix", "_eigenvalues"),
    "spectral.SpectralOperator.grid_from_coefficients": ("n_t",),
    "spectral.assemble_operator": ("n_modes", "rank", "n_t"),
    "spectral.asymptotic_operator": ("pert",),
    "spectral.gap_inequality_check": ("n_trials", "seed"),
}


def public_keywords() -> dict:
    """{qualified name: keyword parameters} over the public functions,
    classes and class methods defined in each module of the package."""
    found = {}
    for info in pkgutil.iter_modules(contactlab.__path__):
        mod = importlib.import_module(f"contactlab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__ or not callable(obj):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", getattr(obj, m)) for m, v in vars(obj).items() if not m.startswith("_")
                            and (isinstance(v, (classmethod, staticmethod)) or inspect.isfunction(v))]
            for qual, fn in members:
                try:
                    params = inspect.signature(fn).parameters.values()
                except ValueError:  # an exception class without an __init__ of its own
                    continue
                keywords = tuple(p.name for p in params if p.default is not p.empty)
                if keywords:
                    found[f"{info.name}.{qual}"] = keywords
    return found


def test_the_keyword_table_is_the_signatures():
    # a keyword added to or dropped from a public signature fails here until
    # KEYWORDS says so
    assert public_keywords() == KEYWORDS


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


def test_every_entry_that_takes_a_chart_breaks_it():
    takes = {name for name, entry in CONTRACT.items() if "chart" in entry.valid()}
    assert takes and takes == {name for name, entry in CONTRACT.items() if "chart" in entry.breaks}


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
INF_CHART = core.ContactChart(1, lambda x: np.array([np.inf, 0.0, 1.0]), lambda x: np.zeros((3, 3)))
# the Darboux form with a NaN entry of dlam
NAN_GRAD_CHART = dataclasses.replace(DARBOUX, grad=lambda x: np.diag([0.0, 0.0, np.nan]))
# an inf on the diagonal of the Jacobian G makes the inf - inf of G - G^T
INF_GRAD_CHART = dataclasses.replace(DARBOUX, grad=lambda x: np.diag([np.inf, 0.0, 0.0]))


DEGENERATE = {
    # used to return 0.0, a pullback check over no points that passes
    "pullback_defect_empty_stack": lambda: normalform.zero_section_pullback_defect(thickening(), np.zeros((0, 1))),
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
    "contact_volume_nan_point": lambda: core.contact_volume(TORUS, NAN3),  # used to return nan
    # used to return nan: lam is NaN at a finite point
    "contact_volume_nan_chart": lambda: core.contact_volume(NAN_CHART, P3),
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
    # used to end in a RuntimeWarning (division by zero)
    "action_charge_R_zero": (OutOfRange, lambda: decay.action_charge(torus_cylinder(), TORUS, 0.0)),
    # used to end in an OverflowError from math.exp
    "gamma_of_c_large": (OutOfRange, lambda: decay.gamma_of_c(1000.0)),
    # used to end in a ValueError from solve_ivp
    "family_scan_step_nan": (OutOfRange, lambda: dynamics.orbit_family_scan(
        TORUS, torus_orbit(), [[0.0, 1.0, 0.0]], step=np.nan)),
    # used to end in a ValueError
    "tube_base_pts_0": (OutOfRange, lambda: normalform.contact_tube_radius(warped_tube(), 1, 0.4, base_pts=0)),
    # used to end in a RuntimeWarning (inf * 0 in the dual matrix)
    "contact_volume_inf_chart": (OutOfRange, lambda: core.contact_volume(INF_CHART, P3)),
    # used to end in a ValueError from splitting_matrix; a basis vector of
    # the wrong length now raises when the set-up is built
    "thickening_short_n_basis": (ModeMismatch, lambda: normalform.build_thickening(
        dataclasses.replace(TORUS_SETUP, n_basis=([1.0],)), STD)),
    # used to build: set-up data is read once, when the set-up is built
    "setup_short_n_basis": (ModeMismatch, lambda: dataclasses.replace(TORUS_SETUP, n_basis=([1.0],))),
    "setup_nan_theta0": (OutOfRange, lambda: dataclasses.replace(CIRCLE, theta0=[np.nan])),
    "setup_nan_theta_grad": (OutOfRange, lambda: dataclasses.replace(TORUS_SETUP, theta_grad=np.diag([0.0, np.nan]))),
    # used to return [1.0, 0.0, 0.0] on the circle's 1-d base
    "lifted_x_theta_long_q": (ModeMismatch, lambda: normalform.lifted_x_theta(thickening(), P2)),
    # used to end in a ValueError
    "lifted_x_theta_string_q": (OutOfRange, lambda: normalform.lifted_x_theta(thickening(), "abc")),
    # used to return 0.0, a pullback check over no points that passes
    "pullback_defect_empty_list": (ModeMismatch, lambda: normalform.zero_section_pullback_defect(thickening(), [])),
    # used to return a 3 x 3 matrix whose square is not -I
    "standard_J_odd_rank": (OutOfRange, lambda: spectral.standard_J(3)),
    # used to end in a LinAlgError from np.linalg.inv
    "thickening_parallel_n_basis": (SingularChart, lambda: normalform.build_thickening(PARALLEL_N, np.zeros((0, 0)))),
    # used to end in a TypeError from float()
    "perturbed_reeb_vector_f": (ModeMismatch, lambda: core.perturbed_reeb(
        DARBOUX, core.PerturbationData(lambda x: np.array([2.0, 1.0]), lambda x: np.zeros(3)), P3)),
    # used to end in a ValueError from np.asarray
    "reeb_solve_string_lambda": (OutOfRange, lambda: core.reeb_solve(core.ContactChart(1, lambda x: "abc"), P3)),
    "assemble_operator_string_S": (OutOfRange, lambda: spectral.assemble_operator(
        lambda t: [["a", 0.0], [0.0, 1.0]], period=1.0, n_modes=2)),
    # a record of the wrong type used to end in an AttributeError
    "spectrum_array": (ModeMismatch, lambda: spectral.spectrum(np.eye(4))),
    "gap_inequality_check_array": (ModeMismatch, lambda: spectral.gap_inequality_check(np.eye(4))),
    "asymptotic_operator_dict_orbit": (ModeMismatch, lambda: spectral.asymptotic_operator({}, 2)),
    # a factor that is no PerturbationData used to end in an AttributeError
    # ("'str' object has no attribute 'f_at'"), from perturbed_chart at the
    # first read of its lam
    "perturbed_reeb_string_pert": (ModeMismatch, lambda: core.perturbed_reeb(DARBOUX, "f", P3)),
    "perturbed_projection_string_pert": (ModeMismatch, lambda: core.perturbed_projection(DARBOUX, "f", P3, P3)),
    "perturbed_chart_string_pert": (ModeMismatch, lambda: core.perturbed_chart(DARBOUX, "f").lambda_at(P3)),
    "asymptotic_operator_string_pert": (ModeMismatch, lambda: spectral.asymptotic_operator(torus_orbit(), 2, "f")),
    "classify_orbit_dict": (ModeMismatch, lambda: dynamics.classify_orbit({})),
    "return_map_dict_orbit": (ModeMismatch, lambda: dynamics.return_map({})),
    "family_scan_dict_seed": (ModeMismatch, lambda: dynamics.orbit_family_scan(TORUS, {}, [[0.0, 1.0, 0.0]])),
    # used to return two converged samples of period 6.0, continuing a tube
    # orbit on the torus chart
    "family_scan_seed_of_another_chart": (ModeMismatch, lambda: dynamics.orbit_family_scan(
        TORUS, tube_orbit(), [[0.0, 1.0, 0.0]], n_samples=2)),
    # used to end in a TypeError from len() in dim_q
    "setup_float_n_basis": (ModeMismatch, lambda: normalform.MorseBottSetup([1.0], [[0.0]], [1.0], 1.0, ())),
    "setup_none_g_basis": (ModeMismatch, lambda: normalform.MorseBottSetup([1.0], [[0.0]], [1.0], (), None)),
    "decay_rate_array": (ModeMismatch, lambda: decay.decay_rate(np.ones(4))),
    "solve_cylinder_array_op": (ModeMismatch, lambda: decay.solve_cylinder(np.eye(4), None, np.ones(4), 1.0, 4)),
    "solve_cylinder_float_forcing": (ModeMismatch, lambda: decay.solve_cylinder(
        operator(), 0.5, np.ones((32, 2)), 1.0, 4)),
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
    (lambda: core.flat_dual(SINGULAR, P3, P3), AT_POINT),
    (lambda: core.reeb_batch(SINGULAR, P3[None]), AT_ROW),
], ids=["reeb_solve", "flat_dual", "reeb_batch"])
def test_a_singular_point_reads_the_same_from_every_entry_point(call, where):
    with pytest.raises(SingularChart, match=rf"{re.escape(SINGULAR.name)}: \w+ system (rank-deficient|singular) {where}"):
        call()


# ---------------------------------------------------------------------------
# one message for a non-finite chart value, from one check in core.  Before
# it, an inf in lam ended in a RuntimeWarning (inf * 0 in lam lam^T) from
# every entry point that builds the dual matrix, an inf on the diagonal of the
# Jacobian in one from G - G^T, and sharp_dual returned NaN for a NaN dlam

AT_POINT_FORM = r"non-finite contact form at \[0\.1 0\.2 0\.3\]$"
AT_ROW_FORM = r"non-finite contact form at point 0 of the stack, \[0\.1 0\.2 0\.3\]$"


@pytest.mark.parametrize("call, where", [
    (lambda ch: core.reeb_solve(ch, P3), AT_POINT_FORM),
    (lambda ch: core.reeb_solve(ch, STACK3), AT_ROW_FORM),
    (lambda ch: core.reeb_batch(ch, STACK3), AT_ROW_FORM),
    (lambda ch: core.flat_dual(ch, P3, P3), AT_POINT_FORM),
    (lambda ch: core.sharp_dual(ch, STACK3, STACK3), AT_ROW_FORM),
    (lambda ch: core.xi_frame(ch, P3), AT_POINT_FORM),
    (lambda ch: core.contact_volume(ch, P3), AT_POINT_FORM),
    (lambda ch: core.contact_volume(ch, STACK3), AT_ROW_FORM),
], ids=["reeb_solve", "reeb_solve_stack", "reeb_batch", "flat_dual", "sharp_dual", "xi_frame", "contact_volume",
        "contact_volume_stack"])
@pytest.mark.parametrize("chart", [INF_CHART, NAN_GRAD_CHART, INF_GRAD_CHART], ids=["inf_lam", "nan_dlam", "inf_dlam"])
def test_a_non_finite_chart_reads_the_same_from_every_entry_point(call, where, chart):
    with pytest.raises(OutOfRange, match=rf"^{re.escape(chart.name)}: {where}"):
        call(chart)


# a lam that warns itself (numpy's "divide by zero"), which the error filter
# of pyproject raises inside the chart read.  core reads the chart again with
# the warnings off and names the form

DIV0_CHART = core.ContactChart(1, lambda x: np.array([1.0, 0.0, 1.0]) / np.array([0.0, 1.0, 1.0]), name="div0")


@pytest.mark.parametrize("call, where", [
    (lambda ch: core.reeb_solve(ch, P3), AT_POINT_FORM),
    (lambda ch: core.reeb_solve(ch, STACK3), AT_ROW_FORM),
    (lambda ch: core.reeb_batch(ch, STACK3), AT_ROW_FORM),
    (lambda ch: core.contact_volume(ch, P3), AT_POINT_FORM),
], ids=["reeb_solve", "reeb_solve_stack", "reeb_batch", "contact_volume"])
def test_a_chart_read_that_warns_is_read_again_under_the_error_filter(call, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OutOfRange, match=rf"^{re.escape(DIV0_CHART.name)}: {where}"):
            call(DIV0_CHART)


# ---------------------------------------------------------------------------
# a chart value that would overflow the dual matrix, or warn in dlam = G - G^T,
# raises before any arithmetic on it.  Before, lam = [1e200, 0, 1] overflowed
# lam lam^T (a raw RuntimeWarning under an error filter, an inf matrix
# otherwise), an entry 1e308 of the Jacobian overflowed G - G^T, and an inf on
# its diagonal printed numpy's "invalid value encountered in subtract" before
# OutOfRange

HUGE_CHART = core.ContactChart(1, lambda x: np.array([1e200, 0.0, 1.0]), lambda x: np.zeros((3, 3)))
# an inf lam without ``grad``: before, its finite-difference Jacobian printed
# numpy's "invalid value encountered in add" (inf - inf in the stencil sum)
INF_FD_CHART = core.ContactChart(1, lambda x: np.array([np.inf, 0.0, 1.0]))
# the Darboux form with a Jacobian whose G - G^T overflows
HUGE_GRAD_CHART = dataclasses.replace(DARBOUX, grad=lambda x: np.array([[0.0, 1e308, 0.0], [-1e308, 0.0, 0.0],
                                                                        [0.0, 0.0, 0.0]]))
HUGE = r"contact form with an entry of modulus 2\^511 or more"
NONFINITE_FORM = "non-finite contact form"


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("call, where", [
    (lambda ch: core.reeb_solve(ch, P3), r"\[0\.1 0\.2 0\.3\]$"),
    (lambda ch: core.reeb_batch(ch, STACK3), r"point 0 of the stack, \[0\.1 0\.2 0\.3\]$"),
], ids=["reeb_solve", "reeb_batch"])
@pytest.mark.parametrize("chart, what", [(HUGE_CHART, HUGE), (HUGE_GRAD_CHART, HUGE), (INF_GRAD_CHART, NONFINITE_FORM),
                                         (INF_FD_CHART, NONFINITE_FORM)],
                         ids=["huge_lam", "huge_dlam", "inf_dlam", "inf_fd_lam"])
def test_a_bad_chart_value_raises_before_any_warning(call, where, chart, what, action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(OutOfRange, match=rf"^{re.escape(chart.name)}: {what} at {where}"):
            call(chart)
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# bounded chart values whose contact volume overflows: the n + 1 Pfaffian
# pivots of modulus 1e140 multiply to 1e420.  Before, contact_volume printed
# numpy's "overflow encountered in multiply" and returned -inf, and under an
# error filter it ended in a raw RuntimeWarning

DARBOUX2 = models.darboux_chart(2)
BIG_DARBOUX2 = models.darboux_chart(2, scale=1e140)
# the Darboux form scaled by 1e140 where x_0 > 0.5
BIG_AWAY = core.ContactChart(2, lambda x: (1e140 if x[0] > 0.5 else 1.0) * DARBOUX2.lam(x),
                             lambda x: (1e140 if x[0] > 0.5 else 1.0) * DARBOUX2.grad(x), name="big_away")
STACK5 = np.array([[0.1] * 5, [0.9] + [0.1] * 4, [0.9] * 5])


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("chart, x, where", [
    (BIG_DARBOUX2, STACK5[0], r"\[0\.1 0\.1 0\.1 0\.1 0\.1\]$"),
    (BIG_AWAY, STACK5, r"point 1 of the stack, \[0\.9 0\.1 0\.1 0\.1 0\.1\]$"),
], ids=["point", "stack"])
def test_a_contact_volume_that_overflows_is_out_of_range(chart, x, where, action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(OutOfRange, match=rf"^{re.escape(chart.name)}: contact volume overflows a float at {where}"):
            core.contact_volume(chart, x)
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# no dead API: every public function and class of the computing modules is
# used by the library itself (models holds scenario charts and test oracles,
# cli is the entry point)

LIBRARY = Path(contactlab.__file__).parent
GUARDED = ("core", "dynamics", "normalform", "spectral", "decay")
# public entries whose only callers are outside the library, each named with
# them; one that gains a library caller leaves this table
NO_LIBRARY_CALLER = {
    "dynamics.orbit_family_scan": "the family_* jobs of perfbench/jobs.py",
    "normalform.make_adapted_J": "the mixed_thickening job of perfbench/jobs.py",
    "normalform.mixed_setup": "the mixed_thickening job of perfbench/jobs.py",
    "spectral.asymptotic_operator": "tests/test_spectral.py, until a scenario feeds it an orbit",
}


def library_uses(trees: dict) -> list:
    """((module, name), node id) for every load of a library name over the
    parsed modules ``trees`` ({module name: ast}): a bare name where its
    module defines it or imports it with ``from .module import name``, and
    ``alias.name`` where ``from . import module as alias``."""
    uses = []
    for mod, tree in trees.items():
        bare = {node.name: mod for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        bare[a.asname or a.name] = node.module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bare:
                uses.append(((bare[node.id], node.id), id(node)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                uses.append(((aliases[node.value.id], node.attr), id(node)))
    return uses


def uncalled_api(trees: dict) -> list:
    """"module.name" for each public top-level function or class of a GUARDED
    module with no ``library_uses`` outside its own definition."""
    uses = library_uses(trees)
    out = []
    for mod in GUARDED:
        for node in trees.get(mod, ast.Module(body=[])).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                inside = {id(n) for n in ast.walk(node)}
                if not any(key == (mod, node.name) and at not in inside for key, at in uses):
                    out.append(f"{mod}.{node.name}")
    return out


def test_every_public_function_and_class_has_a_caller_in_the_library():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(LIBRARY.glob("*.py")) if p.stem != "__init__"}
    assert set(GUARDED) <= set(trees)
    assert sorted(uncalled_api(trees)) == sorted(NO_LIBRARY_CALLER)


def test_the_dead_api_guard_finds_an_uncalled_function():
    trees = {
        "core": ast.parse("def used():\n    pass\n\n\ndef recursive():\n    return recursive()\n\n\n"
                          "def by_name():\n    pass\n\n\ndef _private():\n    pass\n\n\nclass Record:\n    pass\n"),
        "cli": ast.parse("from . import core as c\nfrom .core import by_name\n\nc.used()\nby_name()\n"),
    }
    assert uncalled_api(trees) == ["core.recursive", "core.Record"]


# ---------------------------------------------------------------------------
# no dead error class: every ContactLabError subclass of errors.py is raised
# somewhere in the library


def raised_names(trees: dict) -> set:
    """Names the ``raise Name`` and ``raise Name(...)`` statements of the
    parsed modules ``trees`` raise."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def unraised_errors(trees: dict) -> list:
    """Each class of the ``errors`` tree, but its base ContactLabError, that no
    ``raise`` of ``trees`` names."""
    raised = raised_names(trees)
    return [node.name for node in trees["errors"].body
            if isinstance(node, ast.ClassDef) and node.name != "ContactLabError" and node.name not in raised]


def test_every_error_class_is_raised_in_the_library():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(LIBRARY.glob("*.py"))}
    assert unraised_errors(trees) == []


def test_the_dead_error_guard_finds_an_unraised_class():
    trees = {
        "errors": ast.parse("class ContactLabError(Exception):\n    pass\n\n\nclass Raised(ContactLabError):\n"
                            "    pass\n\n\nclass Bare(ContactLabError):\n    pass\n\n\n"
                            "class Caught(ContactLabError):\n    pass\n"),
        "core": ast.parse("def f():\n    try:\n        raise Raised('x') from None\n    except Caught:\n"
                          "        raise Bare\n"),
    }
    assert unraised_errors(trees) == ["Caught"]
