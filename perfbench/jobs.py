"""Seeded job lists for the contactlab benchmark, and the code that runs them.

``make_jobs(workload, seed)`` is a pure function of its two arguments: it
returns plain data (dicts, lists, numbers, strings), so two calls with the
same arguments compare equal and a job list can be written out as JSON.
Problem sizes are fixed per workload; the seed only draws sample points and
nearby parameters, so every seed asks for the same amount of work.

``run_job`` drives the public contactlab API for one job and raises
``JobFailed`` when the answer disagrees with a known value or a scenario
verdict fails.  Scenario jobs take the user's path: a generated scenario
file, ``load_scenario``, ``run_scenario`` and ``emit_report``.
"""

import json
import math
import random
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("orbits", "spectra", "chart_geometry", "cylinders")


class JobFailed(Exception):
    """A job's answer failed its known-answer check."""


def import_contactlab():
    """Import contactlab from the checkout's ``src`` tree, never from elsewhere."""
    if not (SRC / "contactlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no contactlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import contactlab

    if Path(contactlab.__file__).resolve().parent != SRC / "contactlab":
        raise SystemExit(f"perfbench: imported contactlab from {contactlab.__file__}")
    return contactlab


def warm_up():
    """First calls that can pay one-time costs: in some fresh processes the
    first one or two eigvalsh calls at dim 258 take 0.2-0.5 s against 2-5 ms
    afterwards.  Also the first Hermitian eigh, ODE solve and batched solve."""
    from contactlab import core, dynamics, models, spectral

    op = spectral.assemble_operator(np.eye(2), 1.0, n_modes=64)
    for _ in range(3):
        spectral.spectrum(op)
    spectral.gap_inequality_check(op, n_trials=2)
    chart = models.torus_chart()
    dynamics.monodromy(chart, np.zeros(3), 0.1)
    core.contact_volume(chart, np.zeros(3))


# ---------------------------------------------------------------------------
# reference computation

# CPU speed on a shared VM shifts by up to 1.6x for tens of seconds at a time,
# so job times are also expressed in units of a fixed reference computation
# timed just before and just after each job.  It runs no contactlab code, so
# it does not move when contactlab does.  Each workload is paired with the
# kind of work it spends its time on: interpreted small-array linear algebra,
# or dense LAPACK eigen-solves for ``spectra``, whose speed shifts differently.
_SMALL = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_DENSE = np.random.default_rng(0).standard_normal((300, 300))
_DENSE = _DENSE + _DENSE.T


def _interpreted_reference():
    x, s = np.ones(3), 0.0
    for i in range(3000):
        x = np.linalg.solve(_SMALL, x + 1.0)
        s += float(x[0]) * 0.5 + i % 7
    return s


def _dense_reference():
    for _ in range(3):
        np.linalg.eigvalsh(_DENSE)


_REFERENCES = {
    "orbits": _interpreted_reference,
    "spectra": _dense_reference,
    "chart_geometry": _interpreted_reference,
    "cylinders": _interpreted_reference,
}


def reference_seconds(workload: str) -> float:
    """Seconds one run of the workload's reference computation takes now."""
    start = time.perf_counter()
    _REFERENCES[workload]()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# job generation


def _scenario(label, kind, seed, **params):
    return {"label": label, "kind": "scenario",
            "scenario": {"kind": kind, "seed": seed, "params": params}}


def _unit_direction(rng):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [0.0, math.cos(phi), math.sin(phi)]


def _sym2(rng, scale):
    """Entries (s11, s12, s22) of a random symmetric 2x2 matrix."""
    return [rng.uniform(-scale, scale) for _ in range(3)]


def _orbits(rng, seed):
    return [
        _scenario("orbit_torus", "orbit", seed, model="torus", guess=[0.1, 0.2, 0.0], T_guess=1.1),
        _scenario("orbit_tube_2_1", "orbit", seed, model="tube", w=[2.0, 1.0]),
        _scenario("return_map_tube", "return_map", seed, model="tube", w=[1.0, rng.uniform(1.3, 1.5)]),
        _scenario("return_map_torus", "return_map", seed, model="torus"),
        {"label": "closed_orbit_tube_sqrt2", "kind": "closed_orbit",
         "w": [1.0, math.sqrt(2.0)], "guess": [0.0, 0.1, 0.05], "T_guess": 6.2},
        {"label": "family_round_tube", "kind": "family_scan", "quartic": 0.0,
         "direction": _unit_direction(rng), "n_samples": 4, "step": 0.05, "expect_failed": 0},
        {"label": "family_broken_tube", "kind": "family_scan", "quartic": 0.8,
         "direction": _unit_direction(rng), "n_samples": 1, "step": 0.1, "expect_failed": 1},
    ]


def _spectra(rng, seed):
    return [
        _scenario("spectrum_64", "spectrum", seed, a=rng.uniform(0.5, 2.5), T=1.0,
                  n_modes=64, k_max=20, gap_trials=1000),
        _scenario("spectrum_256", "spectrum", seed, a=rng.uniform(0.5, 2.5), T=1.0,
                  n_modes=256, k_max=20, gap_trials=1000),
        {"label": "spectrum_grid_1024", "kind": "spectrum_grid",
         "a": rng.uniform(0.5, 2.5), "n_modes": 1024},
        {"label": "band_limited_256", "kind": "band_limited", "n_modes": 256, "ref_modes": 128,
         "cos": [_sym2(rng, 0.5) for _ in range(4)], "sin": [_sym2(rng, 0.5) for _ in range(3)],
         "gap_trials": 1000, "trial_seed": seed},
    ]


def _chart_geometry(rng, seed):
    def mixed_point(fiber):
        return [rng.uniform(0, 1) for _ in range(4)] + [rng.uniform(-fiber, fiber) for _ in range(3)]

    return [
        _scenario("dual_checks", "dual_checks", seed, n_values=[1, 2, 3], n_samples=1000),
        _scenario("perturbed_reeb_n1", "perturbed_reeb", seed, n=1, n_samples=200),
        _scenario("perturbed_reeb_n2", "perturbed_reeb", seed, n=2, n_samples=200),
        _scenario("thickening_circle_e2", "thickening", seed, model="circle_e2", radius=0.5,
                  c=rng.uniform(1.5, 2.5), n_points=100),
        _scenario("thickening_torus_cotangent", "thickening", seed, model="torus_cotangent",
                  radius=0.5, c=rng.uniform(1.5, 2.5), n_points=100),
        {"label": "thickening_mixed_dim7", "kind": "mixed_thickening", "radius": 0.3,
         "fiber_pts": 5, "base_pts": 2,
         "base_points": [[rng.uniform(0, 1) for _ in range(4)] for _ in range(5)],
         "split_points": [mixed_point(0.15) for _ in range(10)]},
    ]


def _cylinders(rng, seed):
    def loop_perturbation(dim):
        # one Fourier wobble per coordinate plus a small mean shift
        return [[rng.uniform(0.03, 0.05), rng.uniform(0.01, 0.02)] for _ in range(dim)]

    return [
        _scenario("decay_slow_mode", "cylinder_decay", seed, regime="slow_mode",
                  a=rng.uniform(-0.8, -0.6), delta0=rng.uniform(1.5, 2.5)),
        _scenario("decay_forcing_limited", "cylinder_decay", seed, regime="forcing_limited",
                  a=rng.uniform(-0.8, -0.6), delta0=rng.uniform(0.25, 0.35)),
        _scenario("decay_kernel_control", "cylinder_decay", seed, regime="kernel_control"),
        {"label": "crank_nicolson_2048", "kind": "cn_decay", "a": rng.uniform(-0.8, -0.6),
         "delta0": rng.uniform(1.5, 2.5), "R": 20.0, "n_tau": 2048, "n_modes": 16, "n_t": 128},
        {"label": "tau_dependent_march", "kind": "tau_march", "b": rng.uniform(0.4, 0.6),
         "c": rng.uniform(0.15, 0.25), "R": 3.0, "n_tau": 130, "n_modes": 4, "n_t": 32},
        _scenario("action_charge", "action_charge", seed, c=rng.uniform(0.3, 0.7), T=2.0, R=1.0,
                  n_tau=33, n_t=64),
        {"label": "center_of_mass_dim2", "kind": "center_of_mass", "dim": 2, "n_t": 64,
         "base": [rng.uniform(0, 1) for _ in range(2)], "perturbation": loop_perturbation(2)},
        {"label": "center_of_mass_dim3", "kind": "center_of_mass", "dim": 3, "n_t": 64,
         "base": [rng.uniform(0, 1) for _ in range(3)], "perturbation": loop_perturbation(3)},
        _scenario("three_interval_random", "three_interval", seed, mode="random",
                  n_sequences=5000, N=50),
        _scenario("three_interval_exp", "three_interval", seed, mode="exp",
                  c=rng.uniform(0.8, 1.2), N=50),
    ]


_GENERATORS = {
    "orbits": _orbits,
    "spectra": _spectra,
    "chart_geometry": _chart_geometry,
    "cylinders": _cylinders,
}


def make_jobs(workload: str, seed: int) -> list:
    """The job list of one workload for one seed (pure: no global state)."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng, seed)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}/{i:02d}-{job['label']}"
    return jobs


# ---------------------------------------------------------------------------
# job execution


def _check(ok, message):
    if not ok:
        raise JobFailed(message)


def _run_scenario_job(job, workdir):
    from contactlab import cli

    path = workdir / (job["label"] + ".json")
    path.write_text(json.dumps(job["scenario"]))
    report = cli.run_scenario(cli.load_scenario(path))
    cli.emit_report(report, workdir / "reports")
    failed = [v.name for v in report.verdicts if not v.passed]
    _check(report.verdicts and not failed, f"failed verdicts {failed}")


def _run_closed_orbit(job, workdir):
    from contactlab import dynamics, models

    chart = models.weighted_tube_chart(*job["w"])
    orbit = dynamics.find_closed_orbit(chart, job["guess"], job["T_guess"])
    expected = 2 * np.pi / job["w"][0]
    _check(abs(orbit.period - expected) < 1e-8, f"period {orbit.period!r}, expected {expected!r}")
    _check(orbit.closure_residual < 1e-8, f"closure {orbit.closure_residual:.3e}")


def _run_family_scan(job, workdir):
    from contactlab import dynamics, models

    chart = (models.perturbed_tube_chart(1.0, 1.0, job["quartic"]) if job["quartic"]
             else models.weighted_tube_chart(1.0, 1.0))
    seed_orbit = dynamics.ReebOrbit.from_point(chart, np.zeros(3), 2 * np.pi)
    scan = dynamics.orbit_family_scan(chart, seed_orbit, [np.array(job["direction"])],
                                      n_samples=job["n_samples"], step=job["step"])
    _check(scan.n_failed == job["expect_failed"],
           f"n_failed {scan.n_failed}, expected {job['expect_failed']}")
    if job["expect_failed"] == 0:
        _check(scan.period_spread < 1e-8, f"period spread {scan.period_spread:.3e}")


def _run_spectrum_grid(job, workdir):
    from contactlab import spectral

    a, K = job["a"], job["n_modes"]
    op = spectral.assemble_operator(a * np.eye(2), period=1.0, n_modes=K, rank=2)
    ev = spectral.spectrum(op).eigenvalues
    # each Fourier mode k contributes 2 pi k - a with real multiplicity 2
    expected = np.sort(np.repeat(2 * np.pi * np.arange(-K, K + 1) - a, 2))
    err = float(np.max(np.abs(np.sort(ev) - expected)))
    _check(err < 1e-8, f"eigenvalue grid error {err:.3e}")


def _band_limited_S(job):
    def mat(e):
        return np.array([[e[0], e[1]], [e[1], e[2]]])

    cos = [mat(e) for e in job["cos"]]
    sin = [None] + [mat(e) for e in job["sin"]]

    def S(t):
        out = cos[0].copy()
        for j in range(1, len(cos)):
            w = 2 * np.pi * j * t
            out += cos[j] * np.cos(w) + sin[j] * np.sin(w)
        return out

    return S


def _run_band_limited(job, workdir):
    from contactlab import spectral

    S = _band_limited_S(job)
    low = []
    for K in (job["n_modes"], job["ref_modes"]):
        op = spectral.assemble_operator(S, period=1.0, n_modes=K, rank=2)
        res = spectral.spectrum(op)
        ev = res.eigenvalues
        low.append(np.sort(ev[np.argsort(np.abs(ev))[:40]]))
        if K == job["n_modes"]:
            gap_rep = spectral.gap_inequality_check(op, n_trials=job["gap_trials"],
                                                    seed=job["trial_seed"])
            _check(gap_rep.passed, f"gap inequality fails: {gap_rep.min_quotient!r} < {gap_rep.gap**2!r}")
            _check(abs(gap_rep.gap - res.gap) < 1e-10, f"gap {gap_rep.gap!r} vs spectrum gap {res.gap!r}")
    # S is band-limited, so the low end of the spectrum has converged at both mode counts
    err = float(np.max(np.abs(low[0] - low[1])))
    _check(err < 1e-9, f"low eigenvalues differ by {err:.3e} between mode counts")


_JSTD = ((0.0, -1.0), (1.0, 0.0))
_OMEGA_STD = ((0.0, 1.0), (-1.0, 0.0))


def _run_mixed_thickening(job, workdir):
    from contactlab import normalform as nf

    radius = job["radius"]
    tc = nf.build_thickening(nf.mixed_setup(), np.array(_OMEGA_STD), radius=radius,
                             fiber_pts=job["fiber_pts"], base_pts=job["base_pts"])
    _check(tc.dim == 7, f"dimension {tc.dim}")
    _check(tc.verified_radius == radius, f"verified radius {tc.verified_radius!r} != {radius!r}")
    for q in job["base_points"]:
        gap = nf.reeb_of_thickening(tc, q) - nf.lifted_x_theta(tc, q)
        _check(np.max(np.abs(gap)) < 1e-8, f"Reeb field is not the lifted circle field at {q}")
    for x in job["split_points"]:
        V, W = nf.split_contact_distribution(tc, np.array(x))
        VW = np.column_stack([V, W])
        s = np.linalg.svd(VW, compute_uv=False)
        _check(VW.shape[1] == 2 * tc.chart.n and s[-1] > 1e-8, f"splitting rank deficient at {x}")
        ann = float(np.max(np.abs(tc.chart.lambda_at(x) @ VW)))
        _check(ann < 1e-10, f"lambda does not annihilate the splitting at {x}: {ann:.3e}")
    aj = nf.make_adapted_J(tc, np.array(_JSTD), np.array(_JSTD), np.zeros((2, 2)))
    _check(aj.adapted and aj.square_defect < 1e-10, f"adapted J check: {aj.adapted}, {aj.square_defect:.3e}")


def _run_cn_decay(job, workdir):
    from contactlab import decay, spectral

    n_t = job["n_t"]
    op = spectral.assemble_operator(job["a"] * np.eye(2), period=1.0, n_modes=job["n_modes"], n_t=n_t)
    lam1 = spectral.spectrum(op).gap
    zeta0 = np.zeros((n_t, 2))
    zeta0[:, 0] = 1.0
    field = decay.solve_cylinder(op, decay.Forcing(job["delta0"], zeta0.copy()), zeta0,
                                 job["R"], job["n_tau"], n_t=n_t, method="cn")
    fit = decay.decay_rate(field)
    expected = min(lam1, job["delta0"])
    rel = abs(fit.rate - expected) / expected
    _check(rel <= 0.02, f"decay rate {fit.rate!r} vs min(lambda1, delta0) = {expected!r}")


def _run_tau_march(job, workdir):
    from contactlab import decay, spectral

    b, c, n_t = job["b"], job["c"], job["n_t"]
    op = spectral.assemble_operator(-b * np.eye(2), period=1.0, n_modes=job["n_modes"], n_t=n_t)
    zeta0 = np.zeros((n_t, 2))
    zeta0[:, 0] = 1.0
    field = decay.solve_cylinder(op, None, zeta0, job["R"], job["n_tau"], n_t=n_t,
                                 S_of_tau=lambda s: -(b + c * np.sin(s)) * np.eye(2))
    # the constant mode decays at rate b + c sin(tau): a = exp(-integral of the rate)
    tau = field.tau
    exact = np.exp(-(b * tau - c * (np.cos(tau) - 1.0)))
    # second-order Crank-Nicolson at this step stays near 2e-5
    rel = float(np.max(np.abs(field.values[:, 0, 0] - exact) / exact))
    _check(rel < 1e-4, f"tau-dependent march off the oracle by {rel:.3e}")


def _run_center_of_mass(job, workdir):
    from contactlab import decay

    dim, n_t = job["dim"], job["n_t"]
    model = decay.FlatTorusQ(dim)
    ts = np.arange(n_t) / n_t
    z0 = np.array(job["base"])
    pert = np.stack(
        [amp * np.cos(2 * np.pi * (i + 1) * ts + i) + mean for i, (amp, mean) in enumerate(job["perturbation"])],
        axis=1,
    )
    gamma = np.mod(np.stack([model.flow(z0, t) for t in ts]) + pert, model.periods)
    res = decay.center_of_mass(model, gamma, 1.0)
    # on the flat torus the center is the loop average
    err = float(np.max(np.abs(model.wrap(res.m - (z0 + pert.mean(axis=0))))))
    _check(err < 1e-8, f"center of mass off the loop average by {err:.3e}")


_RUNNERS = {
    "scenario": _run_scenario_job,
    "closed_orbit": _run_closed_orbit,
    "family_scan": _run_family_scan,
    "spectrum_grid": _run_spectrum_grid,
    "band_limited": _run_band_limited,
    "mixed_thickening": _run_mixed_thickening,
    "cn_decay": _run_cn_decay,
    "tau_march": _run_tau_march,
    "center_of_mass": _run_center_of_mass,
}


def run_job(job, workdir: Path):
    """Run one job; raises JobFailed (or the library's own error) on a wrong answer."""
    _RUNNERS[job["kind"]](job, workdir)
