"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is pinned here, nothing is calibrated later.
"""

import time

import numpy as np
import pytest

from contactlab import cli, core, decay, dynamics, normalform, spectral
from contactlab.models import (
    darboux_chart,
    darboux_flat_dual_formula,
    torus_chart,
    weighted_tube_chart,
)


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def report(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_dual_isomorphism():
    start = time.perf_counter()
    g = rng(101)
    worst_rt = 0.0
    worst_formula = 0.0
    n_values = [1, 2, 3]
    per = 1000 // len(n_values) + 1
    for n in n_values:
        ch = darboux_chart(n)
        for _ in range(per):
            x = g.uniform(-1, 1, ch.dim)
            a = g.uniform(-1, 1, ch.dim)
            v = core.flat_dual(ch, a, x)
            worst_rt = max(worst_rt, float(np.max(np.abs(core.sharp_dual(ch, v, x) - a))))
            X = g.uniform(-1, 1, ch.dim)
            al = core.sharp_dual(ch, X, x)
            worst_rt = max(worst_rt, float(np.max(np.abs(core.flat_dual(ch, al, x) - X))))
            ref = darboux_flat_dual_formula(n, a[-1], a[:n], a[n : 2 * n], x)
            worst_formula = max(worst_formula, float(np.max(np.abs(v - ref))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (dual isomorphism)",
        worst_rt < 1e-9 and worst_formula < 1e-10 and elapsed < 5.0,
        f"round-trip {worst_rt:.2e} (tol 1e-9), component formula {worst_formula:.2e}, "
        f"runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_perturbed_reeb_identity():
    start = time.perf_counter()
    g = rng(202)
    ch = darboux_chart(1)
    worst = 0.0
    for _ in range(200):
        x = g.uniform(-1, 1, 3)
        c0 = g.uniform(0.2, 1.0)
        lin = g.uniform(-0.5, 0.5, 3)
        pert = core.PerturbationData(
            lambda y, c0=c0, lin=lin: 0.5 + (c0 + float(lin @ y)) ** 2,
            lambda y, c0=c0, lin=lin: 2.0 * (c0 + float(lin @ y)) * lin,
        )
        closed = core.perturbed_reeb(ch, pert, x)
        direct = core.reeb_solve(core.perturbed_chart(ch, pert), x).vector
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (perturbed Reeb identity)",
        worst < 1e-8 and elapsed < 10.0,
        f"max formula-vs-solve gap {worst:.2e} (tol 1e-8), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_return_maps():
    ratio = 1.41421356
    ch = weighted_tube_chart(1.0, ratio)
    orb = dynamics.ReebOrbit.from_point(ch, np.zeros(3), 2 * np.pi)
    rm = dynamics.return_map(orb)
    angle = 2 * np.pi * ratio
    expected = np.sort_complex(np.array([np.exp(1j * angle), np.exp(-1j * angle)]))
    eig_err = float(np.max(np.abs(np.sort_complex(rm.eigenvalues) - expected)))

    cht = torus_chart()
    orbt = dynamics.ReebOrbit.from_point(cht, np.zeros(3), 1.0)
    rmt = dynamics.return_map(orbt)
    id_err = float(np.max(np.abs(rmt.matrix - np.eye(2))))
    cls = dynamics.classify_orbit(rmt)
    is_mb2 = isinstance(cls, dynamics.MorseBottCandidate) and cls.multiplicity == 2
    report(
        "criterion 3 (return maps)",
        eig_err < 1e-6 and id_err < 1e-8 and is_mb2,
        f"irrational-rotation eigenvalue error {eig_err:.2e} (tol 1e-6), "
        f"torus identity error {id_err:.2e} (tol 1e-8), MorseBottCandidate(2)={is_mb2}",
    )


def test_criterion_4_thickening():
    g = rng(404)
    models = {
        "circle+E": normalform.build_thickening(
            normalform.circle_setup(), np.array([[0.0, 1.0], [-1.0, 0.0]]), radius=0.5
        ),
        "torus cotangent": normalform.build_thickening(
            normalform.torus_setup(), np.zeros((0, 0)), radius=0.5
        ),
    }
    ok = True
    details = []
    for name, tc in models.items():
        ok = ok and tc.verified_radius >= 0.5
        worst_reeb = 0.0
        for _ in range(5):
            q = g.uniform(0, 1, tc.dim_q)
            gap = normalform.reeb_of_thickening(tc, q) - normalform.lifted_x_theta(tc, q)
            worst_reeb = max(worst_reeb, float(np.max(np.abs(gap))))
        ok = ok and worst_reeb < 1e-8
        fdim = tc.m + 2 * tc.k
        rank_ok = True
        for _ in range(100):
            x = np.concatenate([g.uniform(0, 1, tc.dim_q), g.uniform(-0.25, 0.25, fdim)])
            V, W = normalform.split_contact_distribution(tc, x)
            VW = np.column_stack([V, W])
            s = np.linalg.svd(VW, compute_uv=False)
            rank = int(np.sum(s > 1e-8 * max(1.0, s[0])))
            rank_ok = rank_ok and rank == 2 * tc.chart.n
            rank_ok = rank_ok and float(np.max(np.abs(tc.chart.lambda_at(x) @ VW))) < 1e-10
        ok = ok and rank_ok
        pts = [
            np.concatenate([g.uniform(0, 1, tc.dim_q), g.uniform(-0.25, 0.25, fdim)])
            for _ in range(10)
        ]
        rad = normalform.radial_identities(tc, 2.0, pts)
        ok = ok and rad.max_scaling_error < 1e-6 and rad.max_cartan_error < 1e-6
        details.append(
            f"{name}: radius {tc.verified_radius:g}, reeb-lift {worst_reeb:.1e}, "
            f"split-rank {'ok' if rank_ok else 'FAIL'}, radial {rad.max_scaling_error:.1e}/"
            f"{rad.max_cartan_error:.1e}"
        )
    report("criterion 4 (thickening)", ok, "; ".join(details))


def test_criterion_5_spectrum_and_gap():
    start = time.perf_counter()
    a = np.pi
    op = spectral.assemble_operator(a * np.eye(2), period=1.0, n_modes=256)
    res = spectral.spectrum(op)
    worst = 0.0
    for k in range(-20, 21):
        target = 2 * np.pi * k - a
        close = np.sort(np.abs(res.eigenvalues - target))[:2]
        worst = max(worst, float(close[1]))
    assert spectral.GAP_SLACK == 1e-8  # the slack of the gap inequality, pinned here
    gap_rep = spectral.gap_inequality_check(op, n_trials=1000, seed=505)
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (spectrum and gap)",
        worst < 1e-8 and gap_rep.passed and elapsed < 30.0,
        f"eigenvalue grid error {worst:.2e} (tol 1e-8), min Rayleigh quotient "
        f"{gap_rep.min_quotient:.6f} >= gap^2 - 1e-8 = {gap_rep.gap**2 - 1e-8:.6f}, "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_6_three_interval():
    g = rng(606)
    n_fail = 0
    for _ in range(10**4):
        gamma = g.uniform(0.05, 0.49)
        xi = decay.growth_factor(gamma)
        if g.uniform() < 0.5:
            k = np.arange(g.integers(4, 51), dtype=float)
            a, b = g.uniform(0, 1, 2)
            x = a * xi**-k + b * xi ** (k - len(k) + 1)
        else:
            N = int(g.integers(3, 51))
            r = g.uniform(1 / xi, xi)
            vals = [1.0]
            for _ in range(N):
                u = g.exponential(0.5) if g.uniform() < 0.7 else 0.0
                vals.append(vals[-1] * r)
                r = 1.0 / gamma - 1.0 / r + u
            x = np.array(vals) / max(vals)
        rep = decay.three_interval_bound(decay.IntervalSeq(x, gamma))
        if not (rep.hypothesis_holds and rep.bound_holds):
            n_fail += 1
    worst_id = max(
        abs(decay.growth_factor(decay.gamma_of_c(c)) - np.exp(c))
        for c in np.linspace(0.01, 5.0, 500)
    )
    report(
        "criterion 6 (three-interval lemma)",
        n_fail == 0 and worst_id < 1e-12,
        f"{10**4} random sequences, {n_fail} bound failures; "
        f"growth-factor identity error {worst_id:.2e} (tol 1e-12)",
    )


def test_criterion_7_cylinder_decay():
    start = time.perf_counter()
    n_t, n_tau, R = 128, 512, 20.0
    results = []
    ok = True
    # regime A: gap-limited (lambda_1 = 0.7 < delta_0 = 2)
    op = spectral.assemble_operator(-0.7 * np.eye(2), period=1.0, n_modes=16, n_t=n_t)
    z0 = np.zeros((n_t, 2))
    z0[:, 0] = 1.0
    prof = z0.copy()
    fld = decay.solve_cylinder(op, decay.Forcing(2.0, prof), z0, R, n_tau, n_t=n_t)
    fit = decay.decay_rate(fld)
    relA = abs(fit.rate - 0.7) / 0.7
    ok = ok and relA <= 0.02
    results.append(f"gap-limited rate {fit.rate:.4f} vs 0.7 ({relA:.2%})")
    # regime B: forcing-limited (delta_0 = 0.3 < lambda_1)
    fld2 = decay.solve_cylinder(op, decay.Forcing(0.3, prof), z0, R, n_tau, n_t=n_t)
    fit2 = decay.decay_rate(fld2)
    relB = abs(fit2.rate - 0.3) / 0.3
    ok = ok and relB <= 0.02
    results.append(f"forcing-limited rate {fit2.rate:.4f} vs 0.3 ({relB:.2%})")
    # regime C: kernel-seeded no-decay control
    op0 = spectral.assemble_operator(np.zeros((2, 2)), period=1.0, n_modes=16, n_t=n_t)
    fld3 = decay.solve_cylinder(op0, None, z0, R, n_tau, n_t=n_t)
    fit3 = decay.decay_rate(fld3)
    ok = ok and abs(fit3.rate) < 0.01
    results.append(f"kernel control rate {fit3.rate:.2e} (< 0.01)")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        "criterion 7 (cylinder decay)",
        ok,
        "; ".join(results) + f"; runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_center_of_mass():
    model = decay.FlatTorusQ(2)
    n_t = 64
    ts = np.arange(n_t) / n_t
    z0 = np.array([0.25, 0.55])
    orbit = np.mod(np.stack([model.flow(z0, t) for t in ts]), model.periods)
    res = decay.center_of_mass(model, orbit, 1.0)
    exact_ok = (
        np.max(np.abs(model.wrap(res.m - z0))) < 1e-12
        and np.max(np.abs(res.h - ts)) < 1e-10
        and res.residual_mean < 1e-12
        and res.residual_xi < 1e-12
    )
    v = np.array([0.0, 0.11])
    res2 = decay.center_of_mass(model, np.mod(orbit + v, model.periods), 1.0)
    offset_err = float(np.max(np.abs(model.wrap(res2.m - (z0 + v)))))
    g = rng(808)
    pert = np.stack(
        [0.04 * np.cos(2 * np.pi * ts) + 0.01, 0.05 * np.sin(2 * np.pi * ts) + 0.02],
        axis=1,
    )
    res3 = decay.center_of_mass(model, np.mod(orbit + pert, model.periods), 1.0)
    newton_err = float(np.max(np.abs(model.wrap(res3.m - (z0 + pert.mean(axis=0))))))
    iters_ok = res2.iterations <= 12 and res3.iterations <= 12
    report(
        "criterion 8 (center of mass)",
        exact_ok and offset_err < 1e-8 and newton_err < 1e-8 and iters_ok,
        f"Reeb-orbit residuals < 1e-12: {exact_ok}; offset-loop m error {offset_err:.2e} "
        f"(tol 1e-8); perturbed-loop m error {newton_err:.2e}; iterations "
        f"{res2.iterations}/{res3.iterations} (<= 12)",
    )


def test_criterion_9_determinism(tmp_path):
    identical = True
    for scen in (
        {"kind": "dual_checks", "seed": 7, "params": {"n_values": [1, 2], "n_samples": 60}, "name": "d"},
        {"kind": "three_interval", "seed": 7, "params": {"mode": "random", "n_sequences": 200}, "name": "t"},
        {"kind": "spectrum", "seed": 7, "params": {"n_modes": 64, "k_max": 5, "gap_trials": 50}, "name": "s"},
    ):
        r1 = cli.run_scenario(scen)
        r2 = cli.run_scenario(scen)
        p1 = cli.emit_report(r1, tmp_path / f"{scen['name']}1", "json")[0]
        p2 = cli.emit_report(r2, tmp_path / f"{scen['name']}2", "json")[0]
        identical = identical and p1.read_bytes() == p2.read_bytes()
    report(
        "criterion 9 (determinism)",
        identical,
        "re-runs with identical seeds produce byte-identical reports",
    )
