"""Scenario runner: batch experiments over the library with JSON reports.

A scenario is a JSON file {"kind": ..., "seed": ..., "params": {...}} fully
determining one experiment.  Each kind's params, with their types, defaults
and minimums, live in one table here (``_KINDS``); kinds with variants pick
one by ``model``, ``regime`` or ``mode``, and each variant has its own
params.  A key the chosen variant does not read, a non-finite number and a
value of the wrong type, length or range are config errors.  Reports echo
the resolved scenario, so ``scenario.params`` lists every value the run
used; they carry scalar results, CSV-serializable tables, and pass/fail
verdicts with their tolerances.  A scenario sets its experiment, never a
pass mark: each verdict's tolerance is fixed in its runner.  Randomness
comes exclusively from a counter-based generator keyed by the seed, so
re-running a scenario yields byte-identical report files.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import decay, dynamics, models, normalform, spectral
from . import core
from .errors import ConfigError, ContactLabError, NumericalFailure


_SEQUENCE_BLOCK = 4096  # random three-interval sequences drawn and checked per array call


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class Verdict:
    name: str
    passed: bool
    tolerance: float
    observed: float


@dataclass
class Report:
    scenario: dict
    results: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    wall_time: float = 0.0  # in-memory only; excluded from emitted bytes

    def add_verdict(self, name, observed, tolerance, passed=None):
        if passed is None:
            passed = bool(observed <= tolerance)
        self.verdicts.append(Verdict(name, bool(passed), float(tolerance), float(observed)))

    def add_table(self, name, columns, rows):
        self.tables[name] = {
            "columns": list(columns),
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "results": {k: _jsonable(v) for k, v in sorted(self.results.items())},
            "tables": self.tables,
            "verdicts": [
                {
                    "name": v.name,
                    "passed": v.passed,
                    "tolerance": v.tolerance,
                    "observed": v.observed,
                }
                for v in self.verdicts
            ],
        }


def _jsonable(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


# ---------------------------------------------------------------------------
# scenario runners: each reads the resolved params ``p`` (see _resolve)


def _run_dual_checks(p, seed, report):
    n_values = p["n_values"]
    rng = _rng(seed)
    worst_rt = 0.0
    worst_formula = 0.0
    per = max(1, p["n_samples"] // len(n_values))
    for n in n_values:
        ch = models.darboux_chart(n)
        # sample i is the draw of x, alpha and X in turn, as one point at a time would draw them
        x, a, X = rng.uniform(-1, 1, (per, 3, ch.dim)).swapaxes(0, 1)
        v = core.flat_dual(ch, a, x)
        al = core.sharp_dual(ch, X, x)
        reeb = core.reeb_solve(ch, x)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(core.sharp_dual(ch, v, x) - a))),
            float(np.max(np.abs(core.flat_dual(ch, al, x) - X))),
            # identity lam(flat(alpha)) = alpha(X_lam)
            float(np.max(np.abs(core._dots(reeb.lam, v) - core._dots(a, reeb.vector)))),
        )
        # printed component formula for constant coefficients
        ref = models.darboux_flat_dual_formula(n, a[:, -1], a[:, :n], a[:, n : 2 * n], x)
        worst_formula = max(worst_formula, float(np.max(np.abs(v - ref))))
    report.results["max_round_trip_error"] = worst_rt
    report.results["max_formula_error"] = worst_formula
    report.add_verdict("dual_round_trip", worst_rt, 1e-9)
    report.add_verdict("darboux_component_formula", worst_formula, 1e-10)


def _random_positive_factor(rng, dim):
    c0 = rng.uniform(0.2, 1.0)
    lin = rng.uniform(-0.5, 0.5, dim)

    def f(x):
        s = c0 + float(lin @ x)
        return 0.5 + s * s

    def grad_f(x):
        s = c0 + float(lin @ x)
        return 2.0 * s * lin

    return core.PerturbationData(f, grad_f)


def _run_perturbed_reeb(p, seed, report):
    rng = _rng(seed)
    ch = models.darboux_chart(p["n"])
    worst = 0.0
    worst_proj = 0.0
    for _ in range(p["n_samples"]):
        x = rng.uniform(-1, 1, ch.dim)
        pert = _random_positive_factor(rng, ch.dim)
        # the finite-difference oracle: one solve of the chart carrying f*lam
        direct = core.reeb_solve(core.perturbed_chart(ch, pert), x)
        worst = max(worst, float(np.max(np.abs(core.perturbed_reeb(ch, pert, x) - direct.vector))))
        Z = rng.uniform(-1, 1, ch.dim)
        pf = core.perturbed_projection(ch, pert, Z, x)
        direct_proj = Z - float(direct.lam @ Z) * direct.vector
        worst_proj = max(worst_proj, float(np.max(np.abs(pf - direct_proj))))
    report.results["max_reeb_formula_gap"] = worst
    report.results["max_projection_formula_gap"] = worst_proj
    report.add_verdict("perturbed_reeb_formula", worst, 1e-8)
    report.add_verdict("perturbed_projection_formula", worst_proj, 1e-8)


def _run_orbit(p, seed, report):
    ch = models.torus_chart() if p["model"] == "torus" else models.weighted_tube_chart(*p["w"])
    orb = dynamics.find_closed_orbit(ch, np.array(p["guess"]), p["T_guess"])
    report.results["period"] = orb.period
    report.results["closure_residual"] = orb.closure_residual
    report.results["action"] = action = orb.action()
    report.add_verdict("period", abs(orb.period - p["expect_period"]), 1e-8)
    report.add_verdict("closure", orb.closure_residual, 1e-8)
    report.add_verdict("action_equals_period", abs(action - orb.period), 1e-8)


def _run_return_map(p, seed, report):
    if p["model"] == "tube":
        w_theta, w_fiber = p["w"]
        ch = models.weighted_tube_chart(w_theta, w_fiber)
        orb = dynamics.ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi / w_theta)
        rm = dynamics.return_map(orb)
        angle = 2 * np.pi * w_fiber / w_theta
        expected = np.array([np.exp(1j * angle), np.exp(-1j * angle)])
        got = np.sort_complex(rm.eigenvalues)
        exp_sorted = np.sort_complex(expected)
        err = float(np.max(np.abs(got - exp_sorted)))
        report.results["eigenvalues"] = [_jsonable(complex(z)) for z in got]
        report.add_verdict("eigenvalue_error", err, 1e-6)
        report.add_verdict("symplectic_defect", rm.symplectic_error, 1e-6)
        report.add_verdict("det_psi_minus_one", abs(float(np.linalg.det(rm.matrix)) - 1.0), 1e-8)
    else:
        ch = models.torus_chart()
        orb = dynamics.ReebOrbit.from_point(ch, np.zeros(3), 1.0)
        rm = dynamics.return_map(orb)
        err = float(np.max(np.abs(rm.matrix - np.eye(2))))
        cls = dynamics.classify_orbit(rm)
        is_mb2 = isinstance(cls, dynamics.MorseBottCandidate) and cls.multiplicity == 2
        report.results["matrix"] = rm.matrix
        report.add_verdict("identity_return_map", err, 1e-8)
        report.add_verdict("morse_bott_multiplicity_2", 0.0 if is_mb2 else 1.0, 0.5, passed=is_mb2)


def _run_thickening(p, seed, report):
    radius = p["radius"]
    rng = _rng(seed)
    if p["model"] == "circle_e2":
        setup, Omega = normalform.circle_setup(), np.array([[0.0, 1.0], [-1.0, 0.0]])
    else:
        setup, Omega = normalform.torus_setup(), np.zeros((0, 0))
    tc = normalform.build_thickening(setup, Omega, radius=radius)
    qs = [rng.uniform(0, 1, setup.dim_q) for _ in range(8)]
    report.results["verified_radius"] = tc.verified_radius
    report.add_verdict(
        "tube_radius", tc.verified_radius, radius, passed=tc.verified_radius >= radius
    )
    pull = normalform.zero_section_pullback_defect(tc, qs)
    report.add_verdict("zero_section_pullback", pull, 1e-12)
    worst_reeb = 0.0
    for q in qs:
        gap = normalform.reeb_of_thickening(tc, q) - normalform.lifted_x_theta(tc, q)
        worst_reeb = max(worst_reeb, float(np.max(np.abs(gap))))
    report.add_verdict("reeb_is_lifted_circle_field", worst_reeb, 1e-8)
    fdim = tc.m + 2 * tc.k
    worst_rank = 0
    worst_ann = 0.0
    for _ in range(p["n_points"]):
        q = rng.uniform(0, 1, setup.dim_q)
        f = rng.uniform(-radius / 2, radius / 2, fdim)
        x = np.concatenate([q, f])
        V, W = normalform.split_contact_distribution(tc, x)
        VW = np.column_stack([V, W])
        s = np.linalg.svd(VW, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * max(1.0, s[0])))
        worst_rank = max(worst_rank, abs(rank - 2 * tc.chart.n))
        lamx = tc.chart.lambda_at(x)
        worst_ann = max(worst_ann, float(np.max(np.abs(lamx @ VW))) if VW.size else 0.0)
    report.add_verdict("xi_splitting_rank", float(worst_rank), 0.5)
    report.add_verdict("lambda_annihilates_splitting", worst_ann, 1e-10)
    pts = [np.concatenate([rng.uniform(0, 1, setup.dim_q), rng.uniform(-radius / 2, radius / 2, fdim)]) for _ in range(10)]
    rad = normalform.radial_identities(tc, p["c"], pts)
    report.results["radial_scaling_error"] = rad.max_scaling_error
    report.results["cartan_error"] = rad.max_cartan_error
    report.add_verdict("radial_scaling", rad.max_scaling_error, 1e-6)
    report.add_verdict("cartan_formula", rad.max_cartan_error, 1e-6)


def _run_spectrum(p, seed, report):
    a, T, k_max = p["a"], p["T"], p["k_max"]
    op = spectral.assemble_operator(a * np.eye(2), period=T, n_modes=p["n_modes"], rank=2)
    spec_res = spectral.spectrum(op)
    expected = np.array(
        sorted(2 * np.pi * k / T - a for k in range(-k_max, k_max + 1))
    )
    worst = 0.0
    ev = spec_res.eigenvalues
    rows = []
    for val in expected:
        close = np.sort(np.abs(ev - val))[:2]  # real multiplicity 2 per mode
        worst = max(worst, float(close[1]))
        rows.append([val, float(close[1])])
    report.add_table("spectrum_match", ["expected", "error"], rows)
    report.results["gap"] = spec_res.gap
    report.results["kernel_dim"] = spec_res.kernel_dim
    expected_gap = float(np.min(np.abs(expected[np.abs(expected) > _KERNEL_EIGENVALUE])))
    report.add_verdict("eigenvalue_grid", worst, 1e-8)
    report.add_verdict("gap_value", abs(spec_res.gap - expected_gap), 1e-8)
    gap_rep = spectral.gap_inequality_check(op, n_trials=p["gap_trials"], seed=seed)
    report.results["min_rayleigh_quotient"] = gap_rep.min_quotient
    report.add_verdict(
        "gap_inequality",
        gap_rep.gap**2 - gap_rep.min_quotient,
        1e-8,
        passed=gap_rep.passed,
    )


def _run_cylinder_decay(p, seed, report):
    R, n_tau, n_t, n_modes = p["R"], p["n_tau"], p["n_t"], p["n_modes"]
    zeta0 = np.zeros((n_t, 2))
    zeta0[:, 0] = 1.0  # constant section: pure lowest-|lambda| content
    if p["regime"] == "kernel_control":
        op = spectral.assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=n_modes, n_t=n_t)
        fieldc = decay.solve_cylinder(op, None, zeta0, R, n_tau, n_t=n_t)
        fit = decay.decay_rate(fieldc)
        passed = abs(fit.rate) < 0.01
        report.add_verdict("no_decay_rate", abs(fit.rate), 0.01, passed=passed)
    else:
        op = spectral.assemble_operator(p["a"] * np.eye(2), period=1.0, n_modes=n_modes, n_t=n_t)
        lam1 = spectral.spectrum(op).gap
        profile = np.zeros((n_t, 2))
        profile[:, 0] = 1.0
        forcing = decay.Forcing(p["delta0"], profile)
        expected = min(lam1, p["delta0"])
        fieldc = decay.solve_cylinder(op, forcing, zeta0, R, n_tau, n_t=n_t)
        fit = decay.decay_rate(fieldc)
        report.add_verdict("decay_rate_relative_error", abs(fit.rate - expected) / expected, 0.02)
        report.results["expected_rate"] = expected
    norms = fieldc.slice_norms
    fitline = np.exp(fit.intercept - fit.rate * fieldc.tau)
    stride = max(1, len(norms) // 128)
    report.add_table(
        "slice_norms",
        ["tau", "norm", "fit"],
        [[fieldc.tau[i], norms[i], fitline[i]] for i in range(0, len(norms), stride)],
    )
    report.results["fitted_rate"] = fit.rate
    report.results["r_squared"] = fit.r_squared


def _run_three_interval(p, seed, report):
    N = p["N"]
    if p["mode"] == "exp":
        c = p["c"]
        gamma = decay.gamma_of_c(c)
        x = np.exp(-c * np.arange(N + 1))
        rep = decay.three_interval_bound(decay.IntervalSeq(x, gamma))
        report.results["violating_indices"] = [int(k) for k in rep.violations]
        report.add_verdict("hypothesis", 0.0 if rep.hypothesis_holds else 1.0, 0.5, passed=rep.hypothesis_holds)
        report.add_verdict("bound", 0.0 if rep.bound_holds else 1.0, 0.5, passed=rep.bound_holds)
        report.add_table(
            "bound_table",
            ["k", "x_k", "bound_k"],
            [[int(k), x[k], rep.bound[k]] for k in range(N + 1)],
        )
        cs = np.linspace(0.01, 5.0, 200)
        worst = max(abs(decay.growth_factor(decay.gamma_of_c(ci)) - np.exp(ci)) for ci in cs)
        report.add_verdict("growth_factor_identity", worst, 1e-12)
    else:
        n_seq = p["n_sequences"]
        rng = _rng(seed)
        n_fail = 0
        failed_at = []
        for start in range(0, n_seq, _SEQUENCE_BLOCK):
            gamma, x = decay.random_hypothesis_sequences(rng, min(_SEQUENCE_BLOCK, n_seq - start), N)
            rep = decay.three_interval_bound(decay.IntervalSeq(x, gamma))
            failed = start + np.flatnonzero(~(rep.hypothesis_holds & rep.bound_holds))
            n_fail += failed.size
            failed_at += [int(i) for i in failed[: 20 - len(failed_at)]]
        report.results["n_sequences"] = n_seq
        report.results["failed_sequence_indices"] = failed_at
        report.add_verdict("all_bounds_hold", float(n_fail), 0.5, passed=n_fail == 0)


def _run_center_of_mass(p, seed, report):
    dim, T, n_t = p["dim"], p["T"], p["n_t"]
    offset = np.array(p["offset"])
    model = decay.FlatTorusQ(dim)
    ts = np.arange(n_t) / n_t
    base = np.zeros(dim)
    # a zero-mean wobble per coordinate keeps the loop average, hence the
    # closed-form center, at base + offset, but moves Newton off its answer
    phases = _rng(seed).uniform(0.0, 2 * np.pi, dim)
    wobble = 0.03 * np.cos(2 * np.pi * ts[:, None] + phases[None, :])
    gamma = np.stack([model.flow(base, T * t) for t in ts]) + offset[None, :] + wobble
    gamma = np.mod(gamma, model.periods)
    res = decay.center_of_mass(model, gamma, T)
    expected_m = model.wrap(base + offset)
    err_m = float(np.max(np.abs(model.wrap(res.m - expected_m))))
    report.results["m"] = res.m
    report.results["iterations"] = res.iterations
    report.add_verdict("center_matches_closed_form", err_m, 1e-8)
    report.add_verdict("mean_residual", res.residual_mean, 1e-9)
    report.add_verdict("xi_residual", res.residual_xi, 1e-9)
    report.add_verdict("newton_iterations", float(res.iterations), 12.0)


def _run_action_charge(p, seed, report):
    c, T, R, n_tau, n_t = p["c"], p["T"], p["R"], p["n_tau"], p["n_t"]
    ch = models.torus_chart()
    taus = np.linspace(0, R, n_tau)
    ts = np.arange(n_t) / n_t
    w = np.zeros((n_tau, n_t, 3))
    w[..., 0] = np.mod(c * taus[:, None] + T * ts[None, :], 1.0)
    w[..., 1] = 0.3
    ac = decay.action_charge(w, ch, R)
    report.results["action"] = ac.action
    report.results["charge"] = ac.charge
    report.results["pi_energy"] = ac.pi_energy
    report.results["decay_claim_applies"] = ac.decay_claim_applies
    report.add_verdict("charge_value", abs(ac.charge + c), 1e-8)
    report.add_verdict("action_value", abs(ac.action - T), 1e-8)
    report.add_verdict("pi_energy_vanishes", ac.pi_energy, 1e-10)


# ---------------------------------------------------------------------------
# parameter tables


def _is_num(v) -> bool:
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


def _is_int(v) -> bool:
    return _is_num(v) and float(v).is_integer()


# type name -> (one value, several values, predicate on one JSON value, cast)
_TYPES = {
    "num": ("a finite number", "finite numbers", _is_num, float),
    "pos": ("a positive number", "positive numbers", lambda v: _is_num(v) and v > 0, float),
    "int": ("an integer", "integers", _is_int, int),
}


class _Param(NamedTuple):
    """One scenario parameter.

    ``type`` is a key of _TYPES: the type of the value, or of each entry when
    the default is a list.  A list of reals is a vector and must be as long as
    its default; a list of integers may have any non-empty length.
    ``minimum``, when set, bounds every number of the value from below.
    ``default`` and ``minimum`` may be functions of the params resolved
    before this one."""

    type: str
    default: object
    minimum: object = None


_THICKENING = {"radius": _Param("pos", 0.5), "c": _Param("pos", 2.0), "n_points": _Param("int", 100, 1)}
# n_t carries n_modes Fourier modes; n_tau + 1 slices cover the decay fit's 10
_CYLINDER = {"R": _Param("pos", 20.0), "n_tau": _Param("int", 512, 9),
             "n_modes": _Param("int", 16, 0),
             "n_t": _Param("int", 128, lambda p: 2 * p["n_modes"] + 2)}
_FORCED_CYLINDER = {**_CYLINDER, "a": _Param("num", -0.7)}
_SEQUENCE_LENGTH = {"N": _Param("int", 50, 2)}
# a spectrum grid value 2 pi k / T - a this small counts as kernel
_KERNEL_EIGENVALUE = 1e-12


def _spectrum_min_k_max(p) -> int:
    """Least k_max whose grid 2 pi k / T - a, |k| <= k_max, holds a value off
    the kernel, from which the expected gap is taken."""
    if abs(p["a"]) > _KERNEL_EIGENVALUE:
        return 0
    return math.floor(_KERNEL_EIGENVALUE * p["T"] / (2 * np.pi)) + 1


# kind -> (runner, None, {param: _Param}), or, for a kind with variants,
# (runner, variant param, {variant: {param: _Param}}) with the first variant
# the default.  A param not listed for the chosen variant is rejected.
_KINDS = {
    "dual_checks": (_run_dual_checks, None, {
        "n_values": _Param("int", [1, 2, 3], 1), "n_samples": _Param("int", 1000, 1)}),
    "perturbed_reeb": (_run_perturbed_reeb, None, {
        "n": _Param("int", 1, 1), "n_samples": _Param("int", 200, 1)}),
    "orbit": (_run_orbit, "model", {
        "torus": {"guess": _Param("num", [0.1, 0.2, 0.0]), "T_guess": _Param("pos", 1.1),
                  "expect_period": _Param("pos", 1.0)},
        "tube": {"w": _Param("pos", [2.0, 1.0]), "guess": _Param("num", [0.0, 0.1, 0.05]),
                 "T_guess": _Param("pos", 3.0),
                 "expect_period": _Param("pos", lambda p: 2 * np.pi / p["w"][0])}}),
    "return_map": (_run_return_map, "model", {
        "tube": {"w": _Param("pos", [1.0, 1.41421356])}, "torus": {}}),
    "thickening": (_run_thickening, "model",
                   {"circle_e2": _THICKENING, "torus_cotangent": _THICKENING}),
    "spectrum": (_run_spectrum, None, {
        "a": _Param("num", np.pi), "T": _Param("pos", 1.0), "n_modes": _Param("int", 256, 0),
        "k_max": _Param("int", 20, _spectrum_min_k_max), "gap_trials": _Param("int", 1000, 1)}),
    "cylinder_decay": (_run_cylinder_decay, "regime", {
        "slow_mode": {**_FORCED_CYLINDER, "delta0": _Param("pos", 2.0)},
        "forcing_limited": {**_FORCED_CYLINDER, "delta0": _Param("pos", 0.3)},
        "kernel_control": _CYLINDER}),
    "three_interval": (_run_three_interval, "mode", {
        "exp": {"c": _Param("pos", 1.0), **_SEQUENCE_LENGTH},
        "random": {"n_sequences": _Param("int", 10000, 1), **_SEQUENCE_LENGTH}}),
    "center_of_mass": (_run_center_of_mass, None, {
        "dim": _Param("int", 2, 2), "T": _Param("pos", 1.0), "n_t": _Param("int", 64, 2),
        "offset": _Param("num", lambda p: [0.0] + [0.08] * (p["dim"] - 1))}),
    # the one-sided second-order tau derivative needs three slices
    "action_charge": (_run_action_charge, None, {
        "c": _Param("num", 0.5), "T": _Param("pos", 2.0), "R": _Param("pos", 1.0),
        "n_tau": _Param("int", 33, 3), "n_t": _Param("int", 64, 1)}),
}


def _resolve_param(value, spec: _Param, default, minimum, what: str):
    """Check one value (given or default) against its spec and resolved
    minimum and return it cast."""
    one, several, ok, cast = _TYPES[spec.type]
    is_list = isinstance(default, list)
    if not is_list:
        rule, entries = one, [value]
    elif spec.type == "int":
        rule = f"a non-empty list of {several}"
        entries = value if isinstance(value, list) and value else None
    else:
        rule = f"a list of {len(default)} {several}"
        entries = value if isinstance(value, list) and len(value) == len(default) else None
    if minimum is not None:
        rule += f", each at least {minimum}" if is_list else f" of at least {minimum}"
    if entries is None or not all(ok(v) and (minimum is None or v >= minimum) for v in entries):
        raise ConfigError(f"{what} must be {rule}, got {value!r}")
    return [cast(v) for v in entries] if is_list else cast(value)


def _resolve(data, where, name=None) -> dict:
    """Validate a scenario and return it resolved.

    The resolved scenario has kind, seed, name (default: ``name``, else the
    kind) and every param of its kind and variant, defaults filled in and
    each value cast once.  Raises ConfigError on an unknown top-level key,
    kind, variant or param, a seed that is not a non-negative integer, and a
    param of the wrong type, length or range or not finite.  Resolving a
    resolved scenario returns it unchanged."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: scenario must be a JSON object")
    unknown = set(data) - {"kind", "seed", "params", "name"}
    if unknown:
        raise ConfigError(f"{where}: unknown top-level keys {sorted(unknown)}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"{where}: unknown scenario kind {kind!r}")
    seed = data.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"{where}: seed must be a non-negative integer, got {seed!r}")
    name = data.get("name", name or kind)
    if not isinstance(name, str):
        raise ConfigError(f"{where}: name must be a string, got {name!r}")
    given = data.get("params", {})
    if not isinstance(given, dict):
        raise ConfigError(f"{where}: params must be an object")
    _, key, table = _KINDS[kind]
    params, label = {}, kind
    if key is not None:
        variant = given.get(key, next(iter(table)))
        if not isinstance(variant, str) or variant not in table:
            raise ConfigError(
                f"{where}: {key} of {kind} must be one of {list(table)}, got {variant!r}"
            )
        params[key] = variant
        label, table = f"{kind} {key} {variant!r}", table[variant]
    unknown = set(given) - set(params) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown params for {label}: {sorted(unknown)}")
    for pname, spec in table.items():
        default, minimum = (f(params) if callable(f) else f for f in (spec.default, spec.minimum))
        what = f"{where}: param {pname!r} of {label}"
        params[pname] = _resolve_param(given.get(pname, default), spec, default, minimum, what)
    return {"kind": kind, "seed": int(seed), "name": name, "params": params}


def load_scenario(path) -> dict:
    """Read one scenario file and return it resolved (see _resolve)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err
    return _resolve(data, path, path.stem)


def run_scenario(scenario, seed_override=None) -> Report:
    """Execute one scenario (a dict or a path) and return its Report.

    The report echoes the resolved scenario, so it names every value it ran with."""
    if not isinstance(scenario, dict):
        scenario = load_scenario(scenario)
    if seed_override is not None:
        scenario = {**scenario, "seed": seed_override}
    scenario = _resolve(scenario, scenario.get("name", "scenario"))
    report = Report(scenario=scenario)
    runner = _KINDS[scenario["kind"]][0]
    start = time.perf_counter()
    try:
        runner(scenario["params"], scenario["seed"], report)
    except ConfigError:
        raise
    except ContactLabError as err:
        raise NumericalFailure(f"{scenario['kind']}: {err}") from err
    report.wall_time = time.perf_counter() - start
    return report


def emit_report(report: Report, out_dir, fmt: str = "json"):
    """Write report files; byte-deterministic for identical scenarios.

    Wall time is intentionally not serialized so that re-runs are
    byte-identical."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report.scenario.get("name", "report")
    paths = []
    jpath = out_dir / f"{name}.json"
    jpath.write_text(json.dumps(report.payload(), sort_keys=True, indent=2) + "\n")
    paths.append(jpath)
    if fmt == "csv":
        for tname, tab in report.tables.items():
            cpath = out_dir / f"{name}.{tname}.csv"
            lines = [",".join(tab["columns"])]
            for row in tab["rows"]:
                lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            cpath.write_text("\n".join(lines) + "\n")
            paths.append(cpath)
    return paths


def _print_verdicts(report: Report):
    for v in report.verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"  [{status}] {v.name}: observed {v.observed:.6g} (tolerance {v.tolerance:.6g})")


def _cmd_run(args) -> int:
    try:
        report = run_scenario(load_scenario(args.scenario), seed_override=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ContactLabError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    emit_report(report, args.out, args.format)
    status = "pass" if report.all_passed else "FAIL"
    print(f"{report.scenario['name']}: {status} ({report.wall_time:.2f}s)")
    _print_verdicts(report)
    return 0 if report.all_passed else 1


def _cmd_suite(args) -> int:
    paths = sorted(Path(args.scenario_dir).glob("*.json"))
    if not paths:
        print(f"config error: no scenarios in {args.scenario_dir}", file=sys.stderr)
        return 2
    try:
        scenarios = [load_scenario(p) for p in paths]  # validate everything before running anything
        if args.seed is not None:
            _resolve({**scenarios[0], "seed": args.seed}, "--seed")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    n_passed = 0
    for scenario in scenarios:
        try:
            report = run_scenario(scenario, seed_override=args.seed)
        except ContactLabError as err:
            print(f"{scenario['name']}: FAIL [{err}]")
            continue
        emit_report(report, args.out, args.format)
        n_passed += report.all_passed
        print(f"{scenario['name']}: {'pass' if report.all_passed else 'FAIL'} ({report.wall_time:.2f}s)")
    print(f"suite: {n_passed}/{len(scenarios)} passed")
    return 0 if n_passed == len(scenarios) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contactlab", description="Scenario runner for contact-geometry experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, target, what, func in [("run", "scenario", "run a single scenario file", _cmd_run),
                                        ("suite", "scenario_dir", "run every scenario in a directory", _cmd_suite)]:
        p = sub.add_parser(command, help=what)
        p.add_argument(target, type=Path)
        p.add_argument("--out", type=Path, default=Path("reports"))
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
