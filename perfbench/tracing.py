"""Tracing from outside the library: spans around contactlab's public functions.

``install(tracer)`` replaces every public function of the layers ``core``,
``dynamics``, ``normalform``, ``spectral``, ``decay`` and ``cli`` (plus the two
private cylinder marches) at every module binding that holds it, so calls made
through the package re-exports, through ``from .core import reeb_solve``
bindings in other modules, and through imports done at call time are all
seen.  Chart evaluation (``ContactChart.lambda_at`` / ``dlambda_at``) is the
hot leaf, about 600k calls per ``orbits`` pass, so it is not a span: its calls
and time go into counters kept per parent span.  The library is not edited;
the returned ``restore`` puts every original binding back.

Spans hold name, start, end, parent span and job id; they stay in memory and
are written out when the benchmark ends.  A span's self time is its duration
minus the time covered by its child spans and chart evaluations.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

from contactlab import cli, core, decay, dynamics, normalform, spectral
from contactlab.errors import SingularChart

LAYERS = (core, dynamics, normalform, spectral, decay, cli)
PRIVATE_TRACED = {decay: ("_eigen_march", "_crank_nicolson_march")}
CHART_EVAL = "core.chart_eval"
CHART_EVAL_METHODS = ("lambda_at", "dlambda_at")

# metric prefix -> spans whose calls and self time it sums
SPAN_METRICS = {
    "core.reeb_batch": ("core.reeb_batch",),
    "core.reeb_solve": ("core.reeb_solve",),
    "core.dual": ("core.flat_dual", "core.sharp_dual"),
    "core.contact_volume": ("core.contact_volume",),
    "dynamics.flow": ("dynamics.flow",),
    "dynamics.monodromy": ("dynamics.monodromy",),
    "dynamics.return_map": ("dynamics.return_map",),
    "dynamics.family_scan": ("dynamics.orbit_family_scan",),
    "dynamics.shoot": ("dynamics.find_closed_orbit",),
    "normalform.tube_check": ("normalform.contact_tube_radius",),
    "normalform.build": ("normalform.build_thickening",),
    "normalform.split": ("normalform.split_contact_distribution",),
    "normalform.radial": ("normalform.radial_identities",),
    "normalform.adapted": ("normalform.make_adapted_J", "normalform.check_adapted"),
    "spectral.assemble": ("spectral.assemble_operator",),
    "spectral.eigensolve": ("spectral.spectrum",),
    "spectral.gap_check": ("spectral.gap_inequality_check",),
    "decay.cylinder_eigen": ("decay._eigen_march",),
    "decay.cylinder_cn": ("decay._crank_nicolson_march",),
    "decay.fit": ("decay.decay_rate",),
    "decay.center_of_mass": ("decay.center_of_mass",),
    "decay.action_charge": ("decay.action_charge",),
    "decay.three_interval": ("decay.three_interval_bound",),
    "cli.load": ("cli.load_scenario",),
    "cli.run_scenario": ("cli.run_scenario",),
    "cli.emit": ("cli.emit_report",),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{CHART_EVAL}.calls", "count", "lower"), (f"{CHART_EVAL}.self_s", "s", "lower")]
    + [m for prefix in SPAN_METRICS
       for m in ((f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower"))]
    + [
        ("core.reeb_batch.points", "count", "lower"),
        ("core.reeb_solve.max_cond", "1", "lower"),
        ("core.reeb_solve.max_residual", "1", "lower"),
        ("core.singular.count", "count", "lower"),
        ("dynamics.monodromy.rhs_evals", "count", "lower"),
        ("dynamics.shoot.newton_iters", "count", "lower"),
        ("dynamics.shoot.converged_share", "ratio", "higher"),
        ("normalform.tube_check.volume_evals", "count", "lower"),
        ("spectral.assemble.max_dim", "rows", "lower"),
        ("spectral.assemble.bytes", "B", "lower"),
        ("spectral.eigensolve.flops", "flop", "lower"),
        ("spectral.gap_check.trials", "count", "lower"),
        ("decay.cylinder.slices", "count", "lower"),
        ("decay.center_of_mass.iterations", "count", "lower"),
        ("cli.report_bytes", "B", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.share_violations", "count", "lower"),
    ]
)

# Which layers each workload must call (busy) and must leave alone (idle).
# The layer -> workload map in README.md rests on these; an entry ending in
# "." names every metric prefix of that module.
CALL_SHARES = {
    "orbits": {
        "busy": ("dynamics.monodromy", "dynamics.shoot", "dynamics.family_scan", "core.reeb_batch", CHART_EVAL),
        "idle": ("core.contact_volume", "normalform.", "spectral.", "decay."),
    },
    "spectra": {
        "busy": ("spectral.assemble", "spectral.eigensolve", "spectral.gap_check"),
        "idle": ("core.", "dynamics.", "normalform.", "decay."),
    },
    "chart_geometry": {
        "busy": ("core.reeb_solve", "core.dual", "core.contact_volume", "normalform.tube_check", CHART_EVAL),
        "idle": ("core.reeb_batch", "dynamics.", "spectral.", "decay."),
    },
    "cylinders": {
        "busy": ("decay.cylinder_eigen", "decay.cylinder_cn", "decay.fit", "decay.center_of_mass",
                 "decay.action_charge", "decay.three_interval", "spectral.assemble", "core.reeb_solve"),
        "idle": ("core.reeb_batch", "core.contact_volume", "dynamics.", "normalform."),
    },
}


def traced_functions():
    """(span name, function) for every function the tracer wraps as a span."""
    for mod in LAYERS:
        private = PRIVATE_TRACED.get(mod, ())
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in private)):
                yield f"{mod.__name__.rsplit('.', 1)[-1]}.{name}", inspect.unwrap(obj)


def _binding_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "contactlab" or name.startswith("contactlab."))]


def unwrapped_bindings() -> list:
    """Module bindings that still hold an original traced function."""
    originals = {id(fn) for _, fn in traced_functions()}
    return [f"{mod.__name__}.{attr}" for mod in _binding_modules()
            for attr, obj in vars(mod).items() if id(obj) in originals]


# per-span measurements taken from arguments or results: (extras, args, result)
def _reeb_batch(x, args, r):
    x["core.reeb_batch.points"] += len(args[1])


def _reeb_solve(x, args, r):
    x["core.reeb_solve.max_cond"] = max(x["core.reeb_solve.max_cond"], r.cond)
    x["core.reeb_solve.max_residual"] = max(x["core.reeb_solve.max_residual"], r.residual)


def _assemble(x, args, r):
    dim = r.matrix.shape[0]
    x["spectral.assemble.max_dim"] = max(x["spectral.assemble.max_dim"], dim)
    x["spectral.assemble.bytes"] += 8 * dim * dim  # computed, not measured


def _spectrum(x, args, r):
    x["spectral.eigensolve.flops"] += 4.0 / 3.0 * len(r.eigenvalues) ** 3  # computed


def _gap_check(x, args, r):
    x["spectral.gap_check.trials"] += r.n_trials


def _solve_cylinder(x, args, r):
    x["decay.cylinder.slices"] += len(r.tau)


def _center_of_mass(x, args, r):
    x["decay.center_of_mass.iterations"] += r.iterations


def _emit(x, args, r):
    x["cli.report_bytes"] += sum(p.stat().st_size for p in r)


MEASURES = {
    "core.reeb_batch": _reeb_batch,
    "core.reeb_solve": _reeb_solve,
    "spectral.assemble_operator": _assemble,
    "spectral.spectrum": _spectrum,
    "spectral.gap_inequality_check": _gap_check,
    "decay.solve_cylinder": _solve_cylinder,
    "decay.center_of_mass": _center_of_mass,
    "cli.emit_report": _emit,
}


class Tracer:
    """In-memory span recorder with per-name call, self-time and error totals."""

    def __init__(self):
        self.job = None
        self.spans = []  # [name, start, end, parent index, job id]
        # open frames: [span index, span, covered time, chart evals, their seconds];
        # the root frame takes chart evaluations made outside every span
        self.root = [-1, [None], 0.0, 0, 0.0]
        self.stack = [self.root]
        self.totals = defaultdict(lambda: [0, 0.0, 0])  # name -> [calls, self_s, raised]
        self.child_calls = defaultdict(int)  # (parent name, child name) -> calls
        self.chart_evals = defaultdict(lambda: [0, 0.0])  # parent name -> [calls, s]
        self.extras = defaultdict(float)
        self.singular = 0

    def _open(self, name):
        span = [name, time.perf_counter(), None, self.stack[-1][0], self.job]
        frame = [len(self.spans), span, 0.0, 0, 0.0]
        self.spans.append(span)
        self.stack.append(frame)
        return frame

    def _close(self, frame, err):
        end = time.perf_counter()
        self.stack.pop()
        _, span, covered, evals, eval_s = frame
        span[2] = end
        duration = end - span[1]
        tot = self.totals[span[0]]
        tot[0] += 1
        tot[1] += duration - covered
        if evals:
            entry = self.chart_evals[span[0]]
            entry[0] += evals
            entry[1] += eval_s
        if err is not None:
            tot[2] += 1
            # count each singular system once, where it is raised
            if isinstance(err, SingularChart) and not getattr(err, "_perfbench_seen", False):
                err._perfbench_seen = True
                self.singular += 1
        parent = self.stack[-1]
        parent[2] += duration
        self.child_calls[(parent[1][0], span[0])] += 1

    def span(self, name, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(frame, err)
                raise
            self._close(frame, None)
            if measure is not None:
                measure(self.extras, args, result)
            return result

        return wrapper

    def chart_eval(self, fn):
        """Counter (not span) around a chart evaluation, charged to the open span."""
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            covered = top[2]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # spans opened inside the evaluation (the FD stencil of a chart
                # without analytic derivatives) are already covered time
                elapsed = clock() - start - (top[2] - covered)
                top[2] += elapsed
                top[3] += 1
                top[4] += elapsed

        return wrapper

    def _chart_eval_rows(self):
        rows = [[parent, c, s] for parent, (c, s) in sorted(self.chart_evals.items())]
        return rows + ([[None, self.root[3], self.root[4]]] if self.root[3] else [])

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded (trace.* are the caller's)."""
        rows = self._chart_eval_rows()
        out = {f"{CHART_EVAL}.calls": sum(r[1] for r in rows),
               f"{CHART_EVAL}.self_s": sum(r[2] for r in rows)}
        for prefix, names in SPAN_METRICS.items():
            out[f"{prefix}.calls"] = sum(self.totals[n][0] for n in names if n in self.totals)
            out[f"{prefix}.self_s"] = sum(self.totals[n][1] for n in names if n in self.totals)
        for name, _, _ in PER_LAYER:
            if name not in out and not name.startswith("trace."):
                out[name] = self.extras.get(name, 0)
        out["core.singular.count"] = self.singular
        out["dynamics.monodromy.rhs_evals"] = self.child_calls[("dynamics.monodromy", "core.reeb_batch")]
        out["dynamics.shoot.newton_iters"] = self.child_calls[("dynamics.find_closed_orbit", "dynamics.monodromy")]
        shoot = self.totals.get("dynamics.find_closed_orbit", [0, 0.0, 0])
        # base: dynamics.shoot.calls
        out["dynamics.shoot.converged_share"] = (shoot[0] - shoot[2]) / shoot[0] if shoot[0] else 0.0
        out["normalform.tube_check.volume_evals"] = self.child_calls[
            ("normalform.contact_tube_radius", "core.contact_volume")]
        return out

    def dump(self) -> dict:
        """Spans (times relative to the first span) and per-parent chart-eval counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": [[n, s - t0, e - t0, p, j] for n, s, e, p, j in self.spans],
            "chart_eval_fields": ["parent", "calls", "seconds"],
            "chart_evals": self._chart_eval_rows(),
        }


def install(tracer: Tracer):
    """Wrap every traced function at every binding; returns ``restore()``."""
    wrappers = {id(fn): (fn, tracer.span(name, fn)) for name, fn in traced_functions()}
    saved = []
    for mod in _binding_modules():
        for attr, obj in list(vars(mod).items()):
            pair = wrappers.get(id(obj))
            if pair is not None and pair[0] is obj:
                saved.append((mod, attr, obj))
                setattr(mod, attr, pair[1])
    for meth in CHART_EVAL_METHODS:
        orig = core.ContactChart.__dict__[meth]
        saved.append((core.ContactChart, meth, orig))
        setattr(core.ContactChart, meth, tracer.chart_eval(orig))

    def restore():
        for target, attr, obj in reversed(saved):
            setattr(target, attr, obj)

    return restore


def share_violations(workload: str, metrics: dict) -> list:
    """Broken call-share claims of CALL_SHARES for one traced pass."""
    calls = {k[: -len(".calls")]: v for k, v in metrics.items() if k.endswith(".calls")}
    rules = CALL_SHARES[workload]
    broken = [f"{p} made no calls" for p in rules["busy"] if not calls.get(p)]
    for pattern in rules["idle"]:
        for prefix, n in sorted(calls.items()):
            if n and (prefix == pattern or (pattern.endswith(".") and prefix.startswith(pattern))):
                broken.append(f"{prefix} made {n} calls")
    return broken
