"""Scenario runner: batch experiments over the library with JSON reports.

A scenario is a JSON file {"kind": ..., "seed": ..., "params": {...}} fully
determining one experiment; reports echo the scenario, carry scalar results,
CSV-serializable tables, and pass/fail verdicts with their tolerances.
Randomness comes exclusively from a counter-based generator keyed by the
seed, so re-running a scenario yields byte-identical report files.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import decay, dynamics, models, normalform, spectral
from . import core
from .errors import ConfigError, ContactLabError, NumericalFailure


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
# scenario runners


def _run_dual_checks(params, seed, report):
    n_values = params.get("n_values", [1, 2, 3])
    n_samples = int(params.get("n_samples", 1000))
    tol = float(params.get("tol", 1e-9))
    formula_tol = float(params.get("formula_tol", 1e-10))
    rng = _rng(seed)
    worst_rt = 0.0
    worst_formula = 0.0
    per = max(1, n_samples // len(n_values))
    for n in n_values:
        ch = models.darboux_chart(int(n))
        d = ch.dim
        for _ in range(per):
            x = rng.uniform(-1, 1, d)
            a = rng.uniform(-1, 1, d)
            v = core.flat_dual(ch, a, x)
            worst_rt = max(worst_rt, float(np.max(np.abs(core.sharp_dual(ch, v, x) - a))))
            X = rng.uniform(-1, 1, d)
            al = core.sharp_dual(ch, X, x)
            worst_rt = max(worst_rt, float(np.max(np.abs(core.flat_dual(ch, al, x) - X))))
            # identity lam(flat(alpha)) = alpha(X_lam)
            lam_val = float(ch.lambda_at(x) @ v)
            worst_rt = max(worst_rt, abs(lam_val - float(a @ core.reeb_field(ch, x))))
            # printed component formula for constant coefficients
            alpha0 = a[-1]
            aa, bb = a[:n], a[n : 2 * n]
            ref = models.darboux_flat_dual_formula(int(n), alpha0, aa, bb, x)
            worst_formula = max(worst_formula, float(np.max(np.abs(v - ref))))
    report.results["max_round_trip_error"] = worst_rt
    report.results["max_formula_error"] = worst_formula
    report.add_verdict("dual_round_trip", worst_rt, tol)
    report.add_verdict("darboux_component_formula", worst_formula, formula_tol)


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


def _run_perturbed_reeb(params, seed, report):
    n = int(params.get("n", 1))
    n_samples = int(params.get("n_samples", 200))
    tol = float(params.get("tol", 1e-8))
    rng = _rng(seed)
    ch = models.darboux_chart(n)
    worst = 0.0
    worst_proj = 0.0
    for _ in range(n_samples):
        x = rng.uniform(-1, 1, ch.dim)
        pert = _random_positive_factor(rng, ch.dim)
        closed = core.perturbed_reeb(ch, pert, x)
        direct = core.reeb_field(core.perturbed_chart(ch, pert), x)
        worst = max(worst, float(np.max(np.abs(closed - direct))))
        Z = rng.uniform(-1, 1, ch.dim)
        pf = core.perturbed_projection(ch, pert, Z, x)
        chf = core.perturbed_chart(ch, pert)
        lamf = chf.lambda_at(x)
        direct_proj = Z - float(lamf @ Z) * core.reeb_field(chf, x)
        worst_proj = max(worst_proj, float(np.max(np.abs(pf - direct_proj))))
    report.results["max_reeb_formula_gap"] = worst
    report.results["max_projection_formula_gap"] = worst_proj
    report.add_verdict("perturbed_reeb_formula", worst, tol)
    report.add_verdict("perturbed_projection_formula", worst_proj, tol)


def _run_orbit(params, seed, report):
    model = params.get("model", "torus")
    tol = float(params.get("tol", 1e-8))
    if model == "torus":
        ch = models.torus_chart()
        guess = np.array(params.get("guess", [0.1, 0.2, 0.0]), dtype=float)
        orb = dynamics.find_closed_orbit(ch, guess, float(params.get("T_guess", 1.1)))
        expect = float(params.get("expect_period", 1.0))
    elif model == "tube":
        w = params.get("w", [2.0, 1.0])
        ch = models.weighted_tube_chart(float(w[0]), float(w[1]))
        guess = np.array(params.get("guess", [0.0, 0.1, 0.05]), dtype=float)
        orb = dynamics.find_closed_orbit(ch, guess, float(params.get("T_guess", 3.0)))
        expect = float(params.get("expect_period", 2 * np.pi / float(w[0])))
    else:
        raise ConfigError(f"unknown orbit model {model!r}")
    report.results["period"] = orb.period
    report.results["closure_residual"] = orb.closure_residual
    report.results["action"] = orb.action()
    report.add_verdict("period", abs(orb.period - expect), tol)
    report.add_verdict("closure", orb.closure_residual, tol)
    report.add_verdict("action_equals_period", abs(orb.action() - orb.period), 1e-8)


def _run_return_map(params, seed, report):
    model = params.get("model", "tube")
    if model == "tube":
        w = params.get("w", [1.0, 1.41421356])
        tol = float(params.get("tol", 1e-6))
        ch = models.weighted_tube_chart(float(w[0]), float(w[1]))
        T = 2 * np.pi / float(w[0])
        orb = dynamics.ReebOrbit.from_point(ch, np.zeros(3), T)
        rm = dynamics.return_map(ch, orb)
        angle = 2 * np.pi * float(w[1]) / float(w[0])
        expected = np.array([np.exp(1j * angle), np.exp(-1j * angle)])
        got = np.sort_complex(rm.eigenvalues)
        exp_sorted = np.sort_complex(expected)
        err = float(np.max(np.abs(got - exp_sorted)))
        report.results["eigenvalues"] = [_jsonable(complex(z)) for z in got]
        report.add_verdict("eigenvalue_error", err, tol)
        report.add_verdict("symplectic_defect", rm.symplectic_error, 1e-6)
        report.add_verdict("det_psi_minus_one", abs(float(np.linalg.det(rm.matrix)) - 1.0), 1e-8)
    elif model == "torus":
        tol = float(params.get("tol", 1e-8))
        ch = models.torus_chart()
        orb = dynamics.ReebOrbit.from_point(ch, np.zeros(3), 1.0)
        rm = dynamics.return_map(ch, orb)
        err = float(np.max(np.abs(rm.matrix - np.eye(2))))
        cls = dynamics.classify_orbit(rm)
        is_mb2 = isinstance(cls, dynamics.MorseBottCandidate) and cls.multiplicity == 2
        report.results["matrix"] = rm.matrix
        report.add_verdict("identity_return_map", err, tol)
        report.add_verdict("morse_bott_multiplicity_2", 0.0 if is_mb2 else 1.0, 0.5, passed=is_mb2)
    else:
        raise ConfigError(f"unknown return_map model {model!r}")


def _thickening_model(name):
    if name == "circle_e2":
        setup = normalform.circle_setup()
        Omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return setup, Omega
    if name == "torus_cotangent":
        setup = normalform.torus_setup()
        return setup, np.zeros((0, 0))
    raise ConfigError(f"unknown thickening model {name!r}")


def _run_thickening(params, seed, report):
    model = params.get("model", "circle_e2")
    radius = float(params.get("radius", 0.5))
    c = float(params.get("c", 2.0))
    n_points = int(params.get("n_points", 100))
    tol = float(params.get("tol", 1e-6))
    rng = _rng(seed)
    setup, Omega = _thickening_model(model)
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
    for _ in range(n_points):
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
    rad = normalform.radial_identities(tc, c, pts)
    report.results["radial_scaling_error"] = rad.max_scaling_error
    report.results["cartan_error"] = rad.max_cartan_error
    report.add_verdict("radial_scaling", rad.max_scaling_error, tol)
    report.add_verdict("cartan_formula", rad.max_cartan_error, tol)


def _run_spectrum(params, seed, report):
    a = float(params.get("a", np.pi))
    T = float(params.get("T", 1.0))
    n_modes = int(params.get("n_modes", 256))
    k_max = int(params.get("k_max", 20))
    tol = float(params.get("tol", 1e-8))
    trials = int(params.get("gap_trials", 1000))
    op = spectral.assemble_operator(a * np.eye(2), period=T, n_modes=n_modes, rank=2)
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
    expected_gap = float(np.min(np.abs(expected[np.abs(expected) > 1e-12])))
    report.add_verdict("eigenvalue_grid", worst, tol)
    report.add_verdict("gap_value", abs(spec_res.gap - expected_gap), tol)
    gap_rep = spectral.gap_inequality_check(op, n_trials=trials, seed=seed)
    report.results["min_rayleigh_quotient"] = gap_rep.min_quotient
    report.add_verdict(
        "gap_inequality",
        gap_rep.gap**2 - gap_rep.min_quotient,
        1e-8,
        passed=gap_rep.passed,
    )


def _run_cylinder_decay(params, seed, report):
    regime = params.get("regime", "slow_mode")
    R = float(params.get("R", 20.0))
    n_tau = int(params.get("n_tau", 512))
    n_t = int(params.get("n_t", 128))
    n_modes = int(params.get("n_modes", 16))
    rate_rtol = float(params.get("rate_rtol", 0.02))
    a = float(params.get("a", -0.7))
    delta0 = float(params.get("delta0", 2.0))

    if regime == "kernel_control":
        op = spectral.assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=n_modes, n_t=n_t)
        zeta0 = np.zeros((n_t, 2))
        zeta0[:, 0] = 1.0
        fieldc = decay.solve_cylinder(op, None, zeta0, R, n_tau, n_t=n_t)
        fit = decay.decay_rate(fieldc)
        expected = 0.0
        passed = abs(fit.rate) < 0.01
        report.add_verdict("no_decay_rate", abs(fit.rate), 0.01, passed=passed)
    else:
        op = spectral.assemble_operator(a * np.eye(2), period=1.0, n_modes=n_modes, n_t=n_t)
        lam1 = spectral.spectrum(op).gap
        zeta0 = np.zeros((n_t, 2))
        zeta0[:, 0] = 1.0  # constant section: pure lowest-|lambda| content
        forcing = None
        if regime == "forcing_limited":
            delta0 = float(params.get("delta0", 0.3))
            profile = np.zeros((n_t, 2))
            profile[:, 0] = 1.0
            forcing = decay.Forcing(delta0, profile)
            expected = min(lam1, delta0)
        elif regime == "slow_mode":
            profile = np.zeros((n_t, 2))
            profile[:, 0] = 1.0
            forcing = decay.Forcing(delta0, profile)
            expected = min(lam1, delta0)
        else:
            raise ConfigError(f"unknown cylinder regime {regime!r}")
        fieldc = decay.solve_cylinder(op, forcing, zeta0, R, n_tau, n_t=n_t)
        fit = decay.decay_rate(fieldc)
        rel = abs(fit.rate - expected) / expected
        passed = rel <= rate_rtol
        report.add_verdict("decay_rate_relative_error", rel, rate_rtol, passed=passed)
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


def _run_three_interval(params, seed, report):
    mode = params.get("mode", "exp")
    if mode == "exp":
        c = float(params.get("c", 1.0))
        N = int(params.get("N", 50))
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
    elif mode == "random":
        n_seq = int(params.get("n_sequences", 10000))
        N = int(params.get("N", 50))
        rng = _rng(seed)
        n_fail = 0
        failed_at = []
        for i in range(n_seq):
            gamma = rng.uniform(0.05, 0.49)
            x = _random_hypothesis_sequence(rng, N, gamma)
            rep = decay.three_interval_bound(decay.IntervalSeq(x, gamma))
            if not (rep.hypothesis_holds and rep.bound_holds):
                n_fail += 1
                if len(failed_at) < 20:
                    failed_at.append(i)
        report.results["n_sequences"] = n_seq
        report.results["failed_sequence_indices"] = failed_at
        report.add_verdict("all_bounds_hold", float(n_fail), 0.5, passed=n_fail == 0)
    else:
        raise ConfigError(f"unknown three_interval mode {mode!r}")


def _random_hypothesis_sequence(rng, N, gamma):
    """Random nonnegative sequence satisfying the three-interval hypothesis.

    Mixes exact two-sided geometric solutions a xi^-k + b xi^(k-N) with the
    ratio recursion r_{k+1} = 1/gamma - 1/r_k + u (u >= 0), whose u = 0
    stretches realize the equality case."""
    xi = decay.growth_factor(gamma)
    k = np.arange(N + 1, dtype=float)
    if rng.uniform() < 0.5:
        a, b = rng.uniform(0, 1, 2)
        return a * xi**-k + b * xi ** (k - N)
    r = rng.uniform(1.0 / xi, xi)
    x = [1.0]
    for _ in range(N):
        u = rng.exponential(0.5) if rng.uniform() < 0.7 else 0.0
        x.append(x[-1] * r)
        r = 1.0 / gamma - 1.0 / r + u
    x = np.array(x)
    return x / np.max(x)


def _center_of_mass_dim(params) -> int:
    return int(params.get("dim", 2))


def _run_center_of_mass(params, seed, report):
    dim = _center_of_mass_dim(params)
    T = float(params.get("T", 1.0))
    n_t = int(params.get("n_t", 64))
    tol = float(params.get("tol", 1e-8))
    offset = np.array(params.get("offset", [0.0] + [0.08] * (dim - 1)), dtype=float)
    model = decay.FlatTorusQ(dim)
    ts = np.arange(n_t) / n_t
    base = np.zeros(dim)
    gamma = np.stack([model.flow(base, T * t) for t in ts]) + offset[None, :]
    gamma = np.mod(gamma, model.periods)
    res = decay.center_of_mass(model, gamma, T)
    expected_m = model.wrap(base + offset)
    err_m = float(np.max(np.abs(model.wrap(res.m - expected_m))))
    report.results["m"] = res.m
    report.results["iterations"] = res.iterations
    report.add_verdict("center_matches_closed_form", err_m, tol)
    report.add_verdict("mean_residual", res.residual_mean, 1e-9)
    report.add_verdict("xi_residual", res.residual_xi, 1e-9)
    report.add_verdict("newton_iterations", float(res.iterations), 12.0)


def _run_action_charge(params, seed, report):
    c = float(params.get("c", 0.5))
    T = float(params.get("T", 2.0))
    R = float(params.get("R", 1.0))
    n_tau = int(params.get("n_tau", 33))
    n_t = int(params.get("n_t", 64))
    ch = models.torus_chart()
    taus = np.linspace(0, R, n_tau)
    ts = np.arange(n_t) / n_t
    w = np.zeros((n_tau, n_t, 3))
    for i, tau in enumerate(taus):
        for j, t in enumerate(ts):
            w[i, j] = [np.mod(c * tau + T * t, 1.0), 0.3, 0.0]
    ac = decay.action_charge(w, ch, R)
    report.results["action"] = ac.action
    report.results["charge"] = ac.charge
    report.results["pi_energy"] = ac.pi_energy
    report.results["decay_claim_applies"] = ac.decay_claim_applies
    report.add_verdict("charge_value", abs(ac.charge + c), 1e-8)
    report.add_verdict("action_value", abs(ac.action - T), 1e-8)
    report.add_verdict("pi_energy_vanishes", ac.pi_energy, 1e-10)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return _is_num(v) and float(v).is_integer()


# parameter type name -> (description, predicate on the JSON value)
_PARAM_TYPES = {
    "num": ("a number", _is_num),
    "int": ("an integer", _is_int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "nums": ("a non-empty list of numbers", lambda v: isinstance(v, list) and v and all(map(_is_num, v))),
    "ints": ("a non-empty list of integers", lambda v: isinstance(v, list) and v and all(map(_is_int, v))),
}

# kind -> (runner, {param: type}); a param not listed is rejected.  A list
# type may come as (type, length): the exact length, or a function of the
# params that gives it.
_RUNNERS = {
    "dual_checks": (
        _run_dual_checks,
        {"n_values": "ints", "n_samples": "int", "tol": "num", "formula_tol": "num"},
    ),
    "perturbed_reeb": (_run_perturbed_reeb, {"n": "int", "n_samples": "int", "tol": "num"}),
    "orbit": (
        _run_orbit,
        {"model": "str", "w": ("nums", 2), "guess": ("nums", 3), "T_guess": "num",
         "expect_period": "num", "tol": "num"},
    ),
    "return_map": (_run_return_map, {"model": "str", "w": ("nums", 2), "tol": "num"}),
    "thickening": (
        _run_thickening,
        {"model": "str", "radius": "num", "c": "num", "n_points": "int", "tol": "num"},
    ),
    "spectrum": (
        _run_spectrum,
        {"a": "num", "T": "num", "n_modes": "int", "k_max": "int", "tol": "num", "gap_trials": "int"},
    ),
    "cylinder_decay": (
        _run_cylinder_decay,
        {"regime": "str", "R": "num", "n_tau": "int", "n_t": "int", "n_modes": "int",
         "rate_rtol": "num", "a": "num", "delta0": "num"},
    ),
    "three_interval": (
        _run_three_interval, {"mode": "str", "c": "num", "N": "int", "n_sequences": "int"}
    ),
    "center_of_mass": (
        _run_center_of_mass,
        {"dim": "int", "T": "num", "n_t": "int", "tol": "num", "offset": ("nums", _center_of_mass_dim)},
    ),
    "action_charge": (
        _run_action_charge, {"c": "num", "T": "num", "R": "num", "n_tau": "int", "n_t": "int"}
    ),
}


def _check_scenario(data: dict, where) -> None:
    """Raise ConfigError unless kind, seed and every param are known and well typed."""
    kind = data.get("kind")
    if kind not in _RUNNERS:
        raise ConfigError(f"{where}: unknown scenario kind {kind!r}")
    if not _is_int(data.get("seed", 0)):
        raise ConfigError(f"{where}: seed must be an integer, got {data['seed']!r}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: params must be an object")
    schema = _RUNNERS[kind][1]
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown params for {kind}: {sorted(unknown)}")
    rules = {name: spec if isinstance(spec, tuple) else (spec, None) for name, spec in schema.items()}
    for name, value in params.items():
        what, ok = _PARAM_TYPES[rules[name][0]]
        if not ok(value):
            raise ConfigError(f"{where}: param {name!r} of {kind} must be {what}, got {value!r}")
    # lengths may depend on other params, so they are checked once all types hold
    for name, value in params.items():
        length = rules[name][1]
        length = length(params) if callable(length) else length
        if length is not None and len(value) != length:
            raise ConfigError(
                f"{where}: param {name!r} of {kind} must have {length} entries, got {len(value)}"
            )


def load_scenario(path) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario must be a JSON object")
    unknown_top = set(data) - {"kind", "seed", "params", "name"}
    if unknown_top:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown_top)}")
    _check_scenario(data, path)
    data.setdefault("seed", 0)
    data.setdefault("name", path.stem)
    return data


def run_scenario(scenario, seed_override=None) -> Report:
    """Execute one scenario (a dict or a path) and return its Report."""
    if not isinstance(scenario, dict):
        scenario = load_scenario(scenario)
    _check_scenario(scenario, scenario.get("name", "scenario"))
    seed = int(seed_override if seed_override is not None else scenario.get("seed", 0))
    echo = {
        "kind": scenario["kind"],
        "seed": seed,
        "name": scenario.get("name", scenario["kind"]),
        "params": scenario.get("params", {}),
    }
    report = Report(scenario=echo)
    runner = _RUNNERS[scenario["kind"]][0]
    start = time.perf_counter()
    try:
        runner(scenario.get("params", {}), seed, report)
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


def _print_verdicts(report: Report, stream=sys.stdout):
    for v in report.verdicts:
        status = "pass" if v.passed else "FAIL"
        print(
            f"  [{status}] {v.name}: observed {v.observed:.6g} (tolerance {v.tolerance:.6g})",
            file=stream,
        )


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(scenario, seed_override=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ContactLabError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    emit_report(report, args.out, args.format)
    print(f"{scenario['name']}: {'pass' if report.all_passed else 'FAIL'} ({report.wall_time:.2f}s)")
    _print_verdicts(report)
    return 0 if report.all_passed else 1


def _suite_worker(item):
    path, seed, out, fmt = item
    scenario = load_scenario(path)
    try:
        report = run_scenario(scenario, seed_override=seed)
    except ContactLabError as err:
        return scenario["name"], False, 0.0, str(err)
    emit_report(report, out, fmt)
    return scenario["name"], report.all_passed, report.wall_time, None


def _cmd_suite(args) -> int:
    paths = sorted(Path(args.scenario_dir).glob("*.json"))
    if not paths:
        print(f"config error: no scenarios in {args.scenario_dir}", file=sys.stderr)
        return 2
    try:
        for p in paths:
            load_scenario(p)  # validate everything before running anything
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    threads = int(os.environ.get("CONTACTLAB_THREADS", "1"))
    items = [(p, args.seed, args.out, args.format) for p in paths]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_suite_worker, items))
    else:
        results = [_suite_worker(i) for i in items]
    ok = True
    for name, passed, wall, err in results:
        suffix = f" ({wall:.2f}s)" if err is None else f" [{err}]"
        print(f"{name}: {'pass' if passed else 'FAIL'}{suffix}")
        ok = ok and passed
    print(f"suite: {sum(1 for r in results if r[1])}/{len(results)} passed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contactlab", description="Scenario runner for contact-geometry experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a single scenario file")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("reports"))
    p_run.add_argument("--format", choices=["json", "csv"], default="json")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)
    p_suite = sub.add_parser("suite", help="run every scenario in a directory")
    p_suite.add_argument("scenario_dir", type=Path)
    p_suite.add_argument("--out", type=Path, default=Path("reports"))
    p_suite.add_argument("--format", choices=["json", "csv"], default="json")
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.set_defaults(func=_cmd_suite)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
