"""contactlab benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

Runs the workload's jobs back to back in one thread (each job starts when the
previous one returns), pass after pass, until ``--seconds`` have elapsed, and
checks every job's answer.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics of untraced passes, with
``--trace 1`` the per-layer metrics of traced passes, interleaved with
untraced passes so that the tracing overhead is measured too.  The full
record (environment, per-pass and per-job times, failures) goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``, and the spans of
the first traced pass to ``perfbench/out/<workload>-seed<seed>.spans.json``.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

runs every workload in a process of its own and prints each end-to-end
metric by name and unit, the pass time in seconds, and the failed share of
its jobs.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until contactlab is imported and warm."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")], cwd=jobs.ROOT,
                          stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        probe.wait(timeout=120)
    if line != "ready" or probe.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {probe.returncode}, said {line!r})")
    return elapsed


def run_pass(workload, job_list, workdir, tracer=None):
    """One pass over the jobs; returns (seconds, reference units, per-job records).

    Both totals cover the jobs only.  A job's reference units are its seconds
    over the mean of the reference computations timed before and after it."""
    run = jobs.run_job if tracer is None else tracer.span("job", jobs.run_job)
    records = []
    ref_before = jobs.reference_seconds(workload)
    for job in job_list:
        if tracer is not None:
            tracer.job = job["id"]
        error = None
        start = time.perf_counter()
        try:
            run(job, workdir)
        except Exception as err:  # counted as a failed job; the run goes on
            error = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - start
        ref_after = jobs.reference_seconds(workload)
        records.append({"id": job["id"], "seconds": seconds,
                        "ref": seconds / (0.5 * (ref_before + ref_after)), "error": error})
        ref_before = ref_after
    return sum(r["seconds"] for r in records), sum(r["ref"] for r in records), records


def _git_sha():
    if not (jobs.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=jobs.ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} [{blas.get('openblas configuration', '')}]"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def _median_metrics(per_pass):
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def benchmark(args) -> dict:
    jobs.import_contactlab()
    import tracing

    job_list = jobs.make_jobs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_PROBES)]
    jobs.warm_up()
    untraced, traced, layer_metrics, violations, spans = [], [], [], set(), None
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or not untraced
               or (args.trace and not traced)):
            if args.trace and len(traced) < len(untraced):
                tracer = tracing.Tracer()
                restore = tracing.install(tracer)
                try:
                    traced.append(run_pass(args.workload, job_list, workdir, tracer))
                finally:
                    restore()
                layer_metrics.append(tracer.metrics())
                violations.update(tracing.share_violations(args.workload, layer_metrics[-1]))
                spans = spans or tracer.dump()
            else:
                untraced.append(run_pass(args.workload, job_list, workdir))
    finally:
        shutil.rmtree(workdir)

    passes = untraced + traced
    attempted = sum(len(recs) for _, _, recs in passes)
    failures = [r for _, _, recs in passes for r in recs if r["error"]]
    untraced_wall = statistics.median(w for w, _, _ in untraced)
    if args.trace:
        values = _median_metrics(layer_metrics)
        values["trace.wall_s"] = statistics.median(w for w, _, _ in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        values["trace.share_violations"] = len(violations)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "wall_ref": statistics.median(r for _, r, _ in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    tag = f"{args.workload}-seed{args.seed}"
    record = {
        "args": vars(args),
        "environment": environment(),
        "result": result,
        "setup_samples_s": setup,
        "wall_s": untraced_wall,
        "passes": [{"traced": i >= len(untraced), "wall_s": w, "wall_ref": r, "jobs": recs}
                   for i, (w, r, recs) in enumerate(passes)],
        "failures": failures,
        "share_violations": sorted(violations),
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans))
    for v in record["share_violations"]:
        print(f"perfbench: call-share claim broken on {args.workload}: {v}", file=sys.stderr)
    for f in failures[:10]:
        print(f"perfbench: job failed: {f['id']}: {f['error']}", file=sys.stderr)
    return result


def summary(args) -> int:
    """Run every workload in its own process; print each end-to-end metric."""
    ok = True
    print(f"{'workload':16s} {'metric':14s} {'value':>14s} unit  samples")
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            raise SystemExit(f"perfbench: {workload} exited with {done.returncode}")
        res = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / f"{workload}-seed{args.seed}-trace0.json").read_text())
        passes = f"median of {len(record['passes'])} passes"
        samples = {"wall_ref": passes, "setup_s": f"median of {len(record['setup_samples_s'])} set-ups",
                   "peak_rss_mb": "one process"}
        ok = ok and res["correct"]
        for name, m in res["metrics"].items():
            print(f"{workload:16s} {name:14s} {m['value']:14.6g} {m['unit']:5s} {samples[name]}")
        print(f"{workload:16s} {'wall_s':14s} {record['wall_s']:14.6g} s     {passes}, no bound")
        share = res["failed"] / res["attempted"]
        print(f"{workload:16s} {'failed_share':14s} {share:14.6g} ratio of {res['attempted']} jobs")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return summary(args)
    result = benchmark(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
