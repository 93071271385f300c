"""Scenario runner: dispatch, determinism, exit codes, serialization."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from contactlab import cli
from contactlab.errors import ConfigError

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, name, payload):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(payload))
    return p


@pytest.mark.parametrize(
    "kind,params",
    [
        ("dual_checks", {"n_values": [1], "n_samples": 50}),
        ("perturbed_reeb", {"n": 1, "n_samples": 10}),
        ("orbit", {"model": "torus"}),
        ("return_map", {"model": "torus"}),
        ("thickening", {"model": "torus_cotangent", "n_points": 10}),
        ("spectrum", {"n_modes": 32, "k_max": 5, "gap_trials": 20}),
        ("cylinder_decay", {"regime": "kernel_control", "n_tau": 128, "n_t": 32, "n_modes": 4}),
        ("three_interval", {"mode": "random", "n_sequences": 50}),
        ("center_of_mass", {"n_t": 32}),
        ("action_charge", {}),
    ],
)
def test_every_kind_runs_and_passes(kind, params):
    report = cli.run_scenario({"kind": kind, "seed": 1, "params": params, "name": kind})
    assert report.all_passed, [v for v in report.verdicts if not v.passed]
    assert report.wall_time >= 0


def test_three_interval_random_mode_holds_for_long_sequences():
    # the sequences used to be built as running products, which overflow at
    # N = 400 and turned into NaN rows reported as counterexamples
    scen = {"kind": "three_interval", "seed": 1, "params": {"mode": "random", "n_sequences": 200, "N": 400}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cli.run_scenario(scen)
    assert report.all_passed, [v for v in report.verdicts if not v.passed]
    assert report.results["failed_sequence_indices"] == []


def test_three_interval_random_mode_checks_in_blocks(monkeypatch):
    calls = []
    real = cli.decay.three_interval_bound
    monkeypatch.setattr(cli.decay, "three_interval_bound", lambda seq: calls.append(len(seq.x)) or real(seq))
    report = cli.run_scenario({"kind": "three_interval", "seed": 2, "params": {"mode": "random", "n_sequences": 5000}})
    assert report.all_passed
    assert len(calls) == math.ceil(5000 / cli._SEQUENCE_BLOCK) and sum(calls) == 5000


def test_three_interval_random_mode_reports_sequence_indices(monkeypatch):
    # a check that fails row 3 of every block must report the global indices
    real = cli.decay.three_interval_bound

    def fail_row_3(seq):
        rep = real(seq)
        rep.bound_holds[3] = False
        return rep

    monkeypatch.setattr(cli.decay, "three_interval_bound", fail_row_3)
    n = 2 * cli._SEQUENCE_BLOCK + 10
    report = cli.run_scenario({"kind": "three_interval", "seed": 2, "params": {"mode": "random", "n_sequences": n}})
    assert report.results["failed_sequence_indices"] == [3, cli._SEQUENCE_BLOCK + 3, 2 * cli._SEQUENCE_BLOCK + 3]
    assert report.verdicts[0].observed == 3.0 and not report.all_passed


def test_orbit_scenario_computes_the_action_once(monkeypatch):
    calls = []
    real = cli.dynamics.ReebOrbit.action
    monkeypatch.setattr(cli.dynamics.ReebOrbit, "action", lambda orb: calls.append(1) or real(orb))
    report = cli.run_scenario({"kind": "orbit", "seed": 9, "params": {"model": "torus"}})
    assert report.all_passed and len(calls) == 1
    assert report.verdicts[-1].observed == abs(report.results["action"] - report.results["period"])


def test_center_of_mass_scenario_runs_newton():
    # the loop must not start at its own center: Newton has to take a step
    report = cli.run_scenario({"kind": "center_of_mass", "seed": 7})
    assert report.all_passed, [v for v in report.verdicts if not v.passed]
    assert report.results["iterations"] >= 1


def test_unknown_kind_rejected(tmp_path):
    p = write_scenario(tmp_path, "bad", {"kind": "spectre"})
    with pytest.raises(ConfigError):
        cli.load_scenario(p)


def test_unknown_params_rejected(tmp_path):
    p = write_scenario(tmp_path, "bad", {"kind": "spectrum", "params": {"qqq": 1}})
    with pytest.raises(ConfigError):
        cli.load_scenario(p)


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        cli.load_scenario(p)


def test_reports_byte_identical(tmp_path):
    scen = {"kind": "three_interval", "seed": 9, "params": {"mode": "random", "n_sequences": 100}, "name": "det"}
    r1 = cli.run_scenario(scen)
    r2 = cli.run_scenario(scen)
    p1 = cli.emit_report(r1, tmp_path / "a", "json")[0]
    p2 = cli.emit_report(r2, tmp_path / "b", "json")[0]
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_changes_draws():
    # the smallest Rayleigh quotient over the seeded trial sections depends on
    # the draws themselves, not on roundoff (480.6 vs 774.1 for seeds 1, 2)
    scen = {"kind": "spectrum", "params": {"n_modes": 8, "gap_trials": 20}, "name": "s"}
    r1 = cli.run_scenario(scen, seed_override=1)
    r2 = cli.run_scenario(scen, seed_override=2)
    assert r1.results["min_rayleigh_quotient"] != r2.results["min_rayleigh_quotient"]


def test_report_round_trip(tmp_path):
    scen = {"kind": "spectrum", "seed": 0, "params": {"n_modes": 32, "k_max": 3, "gap_trials": 10}, "name": "rt"}
    report = cli.run_scenario(scen)
    path = cli.emit_report(report, tmp_path, "json")[0]
    loaded = json.loads(path.read_text())
    for key, val in report.payload()["results"].items():
        if isinstance(val, float):
            assert loaded["results"][key] == val  # exact float round trip
    assert loaded["verdicts"] == report.payload()["verdicts"]


def test_csv_emission(tmp_path):
    scen = {
        "kind": "cylinder_decay",
        "seed": 2,
        "params": {"regime": "slow_mode", "n_tau": 128, "n_t": 32, "n_modes": 4, "R": 20.0},
        "name": "decay",
    }
    report = cli.run_scenario(scen)
    paths = cli.emit_report(report, tmp_path, "csv")
    csvs = [p for p in paths if p.suffix == ".csv"]
    assert csvs
    header = csvs[0].read_text().splitlines()[0]
    assert header == "tau,norm,fit"


def test_cli_exit_codes(tmp_path):
    env_script = [sys.executable, "-m", "contactlab.cli"]
    ok = subprocess.run(
        env_script + ["run", str(SCENARIOS / "three_interval_exp.json"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0, ok.stderr
    bad = write_scenario(tmp_path, "bad", {"kind": "nope"})
    r2 = subprocess.run(env_script + ["run", str(bad)], capture_output=True, text=True)
    assert r2.returncode == 2
    empty = tmp_path / "emptydir"
    empty.mkdir()
    r3 = subprocess.run(env_script + ["suite", str(empty)], capture_output=True, text=True)
    assert r3.returncode == 2


def test_numerical_failure_exit_code(tmp_path):
    # an orbit scenario whose expected period is wrong fails with exit 1
    scen = write_scenario(
        tmp_path,
        "wrong",
        {"kind": "orbit", "params": {"model": "torus", "expect_period": 2.0}},
    )
    r = subprocess.run(
        [sys.executable, "-m", "contactlab.cli", "run", str(scen), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_importing_the_cli_leaves_the_scipy_solvers_unloaded():
    # and no run loads any of scipy: orbits, return maps and flows run the
    # lab's own DOP853, point solves and xi-frames numpy's LAPACK gufuncs, and
    # normalform's null spaces (the base kernel of ker lambda_F and the
    # intersection of adapted J) numpy's SVD
    code = ("import sys, contactlab.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules]); "
            "import numpy as np; "
            "from contactlab import core, dynamics, models, normalform as nf; "
            "tube = models.weighted_tube_chart(1.0, 2 ** 0.5); "
            "dynamics.return_map(dynamics.find_closed_orbit(tube, [0.0, 0.1, 0.05], 6.2)); "
            "dynamics.flow(tube, [0.0, 0.1, 0.05], 1.0); "
            "core.reeb_solve(tube, [0.0, 0.1, 0.05]); core.xi_frame(tube, [0.0, 0.1, 0.05]); "
            "J = np.array([[0.0, -1.0], [1.0, 0.0]]); "
            "tc = nf.build_thickening(nf.mixed_setup(), -J, radius=0.3, fiber_pts=3, base_pts=2); "
            "nf.split_contact_distribution(tc, tc.zero_section_point(np.zeros(tc.dim_q))); "
            "print(nf.check_adapted(tc, nf.make_adapted_J(tc, J, J, np.zeros((2, 2))).matrix)[1].gj_dim); "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["[]", "2", "[]"]


def test_shipped_scenarios_validate():
    paths = sorted(SCENARIOS.glob("*.json"))
    assert len(paths) >= 8
    for p in paths:
        cli.load_scenario(p)


def test_suite_with_thread_cap(tmp_path):
    # the suite runs in one process, one scenario after another
    r = subprocess.run(
        [sys.executable, "-m", "contactlab.cli", "suite", str(SCENARIOS), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert "passed" in r.stdout


def test_suite_loads_each_scenario_file_once(tmp_path, monkeypatch):
    # the suite validates every file up front and runs what it loaded
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    for name, N in [("a", 5), ("b", 6), ("c", 7)]:
        write_scenario(scen_dir, name, {"kind": "three_interval", "params": {"N": N}})
    loaded = []
    real = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda path: loaded.append(Path(path).name) or real(path))
    assert cli.main(["suite", str(scen_dir), "--out", str(tmp_path / "reports")]) == 0
    assert loaded == ["a.json", "b.json", "c.json"]


@pytest.mark.parametrize(
    "payload,param",
    [
        pytest.param({"kind": "spectrum", "params": {"n_modes": "abc"}}, "n_modes", id="n_modes_abc"),
        pytest.param({"kind": "orbit", "params": {"model": "tube", "w": [2.0]}}, "'w'", id="w_short"),
        pytest.param({"kind": "orbit", "params": {"guess": [0.1, 0.2]}}, "guess", id="guess_short"),
        pytest.param({"kind": "dual_checks", "params": {"n_values": []}}, "n_values", id="n_values_empty"),
        pytest.param(
            {"kind": "center_of_mass", "params": {"dim": 3, "offset": [0.1, 0.2]}}, "offset",
            id="offset_short_for_dim",
        ),
        pytest.param(
            {"kind": "center_of_mass", "params": {"offset": [0.1]}}, "offset",
            id="offset_short_for_default_dim",
        ),
        pytest.param({"kind": "center_of_mass", "params": {"dim": 0}}, "'dim'", id="dim_zero"),
        pytest.param({"kind": "spectrum", "params": {"n_modes": -1}}, "n_modes", id="n_modes_negative"),
        pytest.param({"kind": "center_of_mass", "params": {"n_t": 0}}, "'n_t'", id="n_t_zero"),
        # written to the scenario file as json.dumps(float("nan")) == "NaN"
        pytest.param({"kind": "spectrum", "params": {"T": float("nan")}}, "'T'", id="T_nan"),
        pytest.param({"kind": "spectrum", "params": {"gap_trials": 0}}, "gap_trials", id="gap_trials_zero"),
        pytest.param({"kind": "dual_checks", "params": {"n_values": [0]}}, "n_values", id="n_values_zero"),
        pytest.param({"kind": "perturbed_reeb", "params": {"n": 0}}, "'n'", id="n_zero"),
        pytest.param({"kind": "spectrum", "seed": -1}, "seed", id="seed_negative"),
        # grids too small for the cylinder march and the decay fit
        pytest.param({"kind": "cylinder_decay", "params": {"n_tau": 2}}, "n_tau", id="n_tau_two"),
        # the second-order one-sided tau difference needs three slices
        pytest.param({"kind": "action_charge", "params": {"n_tau": 2}}, "n_tau", id="action_charge_n_tau_two"),
        pytest.param(
            {"kind": "cylinder_decay", "params": {"n_modes": 4, "n_t": 9}}, "'n_t'",
            id="n_t_below_modes",
        ),
        # a one-point loop and a one-dimensional locus make the center trivial
        pytest.param({"kind": "center_of_mass", "params": {"n_t": 1}}, "'n_t'", id="n_t_one"),
        pytest.param({"kind": "center_of_mass", "params": {"dim": 1}}, "'dim'", id="dim_one"),
        # the gap check needs a nonzero value on the grid 2 pi k / T - a
        pytest.param(
            {"kind": "spectrum", "params": {"a": 0.0, "k_max": 0, "n_modes": 0}}, "k_max",
            id="spectrum_grid_all_zero",
        ),
        # a scenario sets no pass mark: the period-1 torus passed as a
        # period-2 orbit with exit 0
        pytest.param({"kind": "orbit", "params": {"model": "torus", "expect_period": 2.0, "tol": 2.0}}, "'tol'",
                     id="orbit_tol"),
        pytest.param({"kind": "dual_checks", "params": {"n_values": [1], "n_samples": 10, "formula_tol": 1.0}},
                     "formula_tol", id="dual_checks_formula_tol"),
        pytest.param({"kind": "cylinder_decay", "params": {"regime": "slow_mode", "rate_rtol": 10.0}}, "rate_rtol",
                     id="cylinder_decay_rate_rtol"),
    ],
)
def test_bad_param_type_is_config_error_exit_2(tmp_path, payload, param):
    with pytest.raises(ConfigError, match=param):
        cli.load_scenario(write_scenario(tmp_path, "bad_type", payload))
    with pytest.raises(ConfigError, match=param):
        cli.run_scenario(payload)
    r = subprocess.run(
        [sys.executable, "-m", "contactlab.cli", "run", str(tmp_path / "bad_type.json"),
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2
    assert "config error" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "kind,params",
    [
        ("orbit", {"winding": [5, 0, 0]}),
        ("three_interval", {"gamma": 0.3}),
        ("return_map", {"model": "torus", "w": [5, 1]}),
        ("cylinder_decay", {"regime": "kernel_control", "a": 5, "delta0": -1}),
        ("three_interval", {"mode": "exp", "n_sequences": 3}),
        ("orbit", {"model": "torus", "w": [2.0, 1.0]}),
        # the former tolerance settings, each at its old default
        ("dual_checks", {"tol": 1e-9}),
        ("dual_checks", {"formula_tol": 1e-10}),
        ("perturbed_reeb", {"tol": 1e-8}),
        ("orbit", {"model": "torus", "tol": 1e-8}),
        ("orbit", {"model": "tube", "tol": 1e-8}),
        ("return_map", {"model": "tube", "tol": 1e-6}),
        ("return_map", {"model": "torus", "tol": 1e-8}),
        ("thickening", {"model": "circle_e2", "tol": 1e-6}),
        ("thickening", {"model": "torus_cotangent", "tol": 1e-6}),
        ("spectrum", {"tol": 1e-8}),
        ("center_of_mass", {"tol": 1e-8}),
        ("cylinder_decay", {"regime": "slow_mode", "rate_rtol": 0.02}),
        ("cylinder_decay", {"regime": "forcing_limited", "rate_rtol": 0.02}),
    ],
)
def test_params_no_runner_reads_are_rejected(tmp_path, kind, params):
    with pytest.raises(ConfigError, match="unknown params"):
        cli.load_scenario(write_scenario(tmp_path, "unread", {"kind": kind, "params": params}))


def test_run_scenario_rejects_unknown_top_level_keys():
    scen = {"kind": "three_interval", "parms": {"mode": "random", "n_sequences": 5}}
    with pytest.raises(ConfigError, match="parms"):
        cli.run_scenario(scen)


@pytest.mark.parametrize(
    "kind,key,variant",
    [(kind, key, variant) for kind, (_, key, table) in cli._KINDS.items()
     for variant in (table if key is not None else [None])],
)
def test_resolving_fills_every_default_and_is_idempotent(kind, key, variant):
    given = {} if key is None else {key: variant}
    resolved = cli._resolve({"kind": kind, "params": given}, "test")
    table = cli._KINDS[kind][2] if key is None else cli._KINDS[kind][2][variant]
    assert set(resolved["params"]) == set(table) | set(given)
    assert resolved == {"kind": kind, "seed": 0, "name": kind, "params": resolved["params"]}
    assert cli._resolve(resolved, "test") == resolved
    assert json.loads(json.dumps(resolved)) == resolved


@pytest.mark.parametrize(
    "scen",
    [
        {"kind": "three_interval", "seed": 3, "params": {"mode": "random", "n_sequences": 20, "N": 10}},
        {"kind": "dual_checks", "seed": 4, "params": {"n_values": [1, 2], "n_samples": 20}},
    ],
)
def test_echoed_scenario_reruns_to_identical_report(tmp_path, scen):
    first = cli.emit_report(cli.run_scenario(scen), tmp_path / "a", "json")[0]
    echoed = json.loads(first.read_text())["scenario"]
    second = cli.emit_report(cli.run_scenario(echoed), tmp_path / "b", "json")[0]
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# a scenario sets its experiment, not its pass mark

# the params of every kind, and of each variant of a kind with variants (the
# variant key itself not listed), as cli._KINDS declares them.  A param added
# to or dropped from a scenario schema fails test_the_param_table_is_the_schema
# until this table says so.
PARAMS = {
    "dual_checks": ("n_values", "n_samples"),
    "perturbed_reeb": ("n", "n_samples"),
    "orbit/torus": ("guess", "T_guess", "expect_period"),
    "orbit/tube": ("w", "guess", "T_guess", "expect_period"),
    "return_map/tube": ("w",),
    "return_map/torus": (),
    "thickening/circle_e2": ("radius", "c", "n_points"),
    "thickening/torus_cotangent": ("radius", "c", "n_points"),
    "spectrum": ("a", "T", "n_modes", "k_max", "gap_trials"),
    "cylinder_decay/slow_mode": ("R", "n_tau", "n_modes", "n_t", "a", "delta0"),
    "cylinder_decay/forcing_limited": ("R", "n_tau", "n_modes", "n_t", "a", "delta0"),
    "cylinder_decay/kernel_control": ("R", "n_tau", "n_modes", "n_t"),
    "three_interval/exp": ("c", "N"),
    "three_interval/random": ("n_sequences", "N"),
    "center_of_mass": ("dim", "T", "n_t", "offset"),
    "action_charge": ("c", "T", "R", "n_tau", "n_t"),
}


def test_the_param_table_is_the_schema():
    schema = {}
    for kind, (_, key, table) in cli._KINDS.items():
        for variant, params in (table.items() if key is not None else [(None, table)]):
            schema[kind if variant is None else f"{kind}/{variant}"] = tuple(params)
    assert schema == PARAMS


# the verdicts whose tolerance a scenario could set, each at the value that
# was its default: a run that set one of them passed with any bound it chose
FIXED_BOUNDS = {
    "dual_checks": ("dual_checks", {"n_values": [1], "n_samples": 20},
                    {"dual_round_trip": 1e-9, "darboux_component_formula": 1e-10}),
    "perturbed_reeb": ("perturbed_reeb", {"n_samples": 5},
                       {"perturbed_reeb_formula": 1e-8, "perturbed_projection_formula": 1e-8}),
    "orbit/torus": ("orbit", {"model": "torus"}, {"period": 1e-8, "closure": 1e-8}),
    "orbit/tube": ("orbit", {"model": "tube"}, {"period": 1e-8, "closure": 1e-8}),
    "return_map/tube": ("return_map", {"model": "tube"}, {"eigenvalue_error": 1e-6}),
    "return_map/torus": ("return_map", {"model": "torus"}, {"identity_return_map": 1e-8}),
    "thickening/circle_e2": ("thickening", {"model": "circle_e2", "n_points": 5},
                             {"radial_scaling": 1e-6, "cartan_formula": 1e-6}),
    "thickening/torus_cotangent": ("thickening", {"model": "torus_cotangent", "n_points": 5},
                                   {"radial_scaling": 1e-6, "cartan_formula": 1e-6}),
    "spectrum": ("spectrum", {"n_modes": 8, "k_max": 3, "gap_trials": 5}, {"eigenvalue_grid": 1e-8, "gap_value": 1e-8}),
    "cylinder_decay/slow_mode": ("cylinder_decay", {"regime": "slow_mode", "n_tau": 64, "n_modes": 4, "n_t": 16},
                                 {"decay_rate_relative_error": 0.02}),
    "cylinder_decay/forcing_limited": ("cylinder_decay",
                                       {"regime": "forcing_limited", "n_tau": 64, "n_modes": 4, "n_t": 16},
                                       {"decay_rate_relative_error": 0.02}),
    "center_of_mass": ("center_of_mass", {"n_t": 16}, {"center_matches_closed_form": 1e-8}),
}


@pytest.mark.parametrize("case", sorted(FIXED_BOUNDS))
def test_a_verdict_tolerance_is_fixed(case):
    kind, params, bounds = FIXED_BOUNDS[case]
    report = cli.run_scenario({"kind": kind, "params": params})
    assert {v.name: v.tolerance for v in report.verdicts if v.name in bounds} == bounds
