"""Self-checks of the benchmark: seeded job generation is pure, the tracer
reaches every binding of the traced functions, self time excludes covered
time, and BENCHMARK.json lists exactly the metrics the code reports."""

import json
import time

import numpy as np

import jobs

contactlab = jobs.import_contactlab()

import run  # noqa: E402
import tracing  # noqa: E402
from contactlab import core, decay, dynamics, models, normalform, spectral  # noqa: E402


def _shape(value, key=None):
    """The job with every seeded draw masked: floats and seed integers."""
    if isinstance(value, dict):
        return {k: _shape(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    if isinstance(value, float) or key in ("seed", "trial_seed"):
        return "drawn"
    return value


def test_same_seed_gives_identical_jobs():
    for workload in jobs.WORKLOADS:
        first = jobs.make_jobs(workload, 7)
        assert first == jobs.make_jobs(workload, 7)
        assert json.loads(json.dumps(first)) == first  # plain data only


def test_seeds_change_draws_not_sizes():
    for workload in jobs.WORKLOADS:
        a, b = jobs.make_jobs(workload, 1), jobs.make_jobs(workload, 2)
        assert a != b
        assert [_shape(j) for j in a] == [_shape(j) for j in b]


def test_every_binding_is_wrapped_and_restored():
    originals = {
        "dynamics.reeb_solve": (dynamics, "reeb_solve", core.reeb_solve),
        "decay.reeb_solve": (decay, "reeb_solve", core.reeb_solve),
        "normalform.reeb_solve": (normalform, "reeb_solve", core.reeb_solve),
        "normalform.contact_volume": (normalform, "contact_volume", core.contact_volume),
        "contactlab.reeb_solve": (contactlab, "reeb_solve", core.reeb_solve),
        "contactlab.spectrum": (contactlab, "spectrum", spectral.spectrum),
        "core.reeb_batch": (core, "reeb_batch", core.reeb_batch),
        "decay._crank_nicolson_march": (decay, "_crank_nicolson_march", decay._crank_nicolson_march),
    }
    lambda_at = core.ContactChart.lambda_at
    restore = tracing.install(tracing.Tracer())
    try:
        assert tracing.unwrapped_bindings() == []
        for mod, attr, fn in originals.values():
            bound = getattr(mod, attr)
            assert bound is not fn and bound.__wrapped__ is fn
        assert core.ContactChart.lambda_at.__wrapped__ is lambda_at
    finally:
        restore()
    for mod, attr, fn in originals.values():
        assert getattr(mod, attr) is fn
    assert core.ContactChart.lambda_at is lambda_at


def test_call_time_imports_are_traced():
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        # monodromy imports reeb_batch, the CN march assemble_operator, at call time
        dynamics.monodromy(models.torus_chart(), np.zeros(3), 0.05)
        op = spectral.assemble_operator(-0.5 * np.eye(2), period=1.0, n_modes=2, n_t=16)
        z0 = np.zeros((16, 2))
        z0[:, 0] = 1.0
        decay.solve_cylinder(op, None, z0, 0.2, 4, n_t=16, S_of_tau=lambda s: -0.5 * np.eye(2))
    finally:
        restore()
    m = tracer.metrics()
    assert m["dynamics.monodromy.calls"] == 1
    assert m["dynamics.monodromy.rhs_evals"] == m["core.reeb_batch.calls"] > 0
    assert m["core.reeb_batch.points"] == 7 * m["core.reeb_batch.calls"]
    assert m["core.chart_eval.calls"] == 2 * m["core.reeb_batch.points"]
    assert m["decay.cylinder_cn.calls"] == 1
    assert m["spectral.assemble.calls"] == 1 + 2 * 4
    assert m["decay.cylinder.slices"] == 5


def test_self_time_excludes_children_and_chart_evals():
    tracer = tracing.Tracer()
    traced_inner = tracer.span("inner", lambda: time.sleep(0.06))
    leaf = tracer.chart_eval(lambda: (time.sleep(0.03), traced_inner()))

    def outer():
        time.sleep(0.01)
        leaf()

    tracer.span("outer", outer)()
    calls, outer_self, _ = tracer.totals["outer"]
    assert calls == 1 and 0.009 < outer_self < 0.025
    assert 0.059 < tracer.totals["inner"][1] < 0.09
    evals, eval_s = tracer.chart_evals["outer"]
    assert evals == 1 and 0.029 < eval_s < 0.05  # the inner span is not chart-eval time
    assert tracer.child_calls[("outer", "inner")] == 1


def test_share_violations_name_the_broken_claims():
    metrics = {name: 0 for name, _, _ in tracing.PER_LAYER}
    metrics.update({"dynamics.monodromy.calls": 3, "dynamics.shoot.calls": 1,
                    "dynamics.family_scan.calls": 1, "core.reeb_batch.calls": 9,
                    "core.chart_eval.calls": 9})
    assert tracing.share_violations("orbits", metrics) == []
    metrics["core.contact_volume.calls"] = 2
    metrics["dynamics.monodromy.calls"] = 0
    assert tracing.share_violations("orbits", metrics) == [
        "dynamics.monodromy made no calls", "core.contact_volume made 2 calls"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((jobs.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
