#!/usr/bin/env python3
"""Benchmark of the weylg homology, membership and closure workloads.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 36 --trace 0

Imports weylg from the ``src`` directory next to this one, builds the
job list from the seed, and runs passes over it, closed-loop on one
thread, for about --seconds.  Times are job CPU times scaled to a fixed
host speed by a reference kernel run between jobs (see speed.py).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes, reports the per-layer metrics
and the tracing overhead, and writes the spans of the first traced pass
to ``perfbench/out/``.  Every job's answer is checked outside the timed
span.  The last line of stdout is the JSON result; see README.md for
the definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from math import exp, log
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3  # set-up builds timed before each untraced pass
MIN_PASSES = 2  # untraced passes, so that every job has a repeat
TAIL_BEYOND = 10  # jobs beyond the reported tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; self times are wall-clock span times, the
# least over traced passes,
# counts and maxima come from one traced pass and must repeat exactly
PER_LAYER_UNITS = {
    "rosso.cartan_matrix.self_s": "s",
    "rosso.m_steps": "count",
    "rosso.undefined_entries": "count",
    "rosso.m_steps_undefined_share": "ratio",
    "lattice.chi_eval.calls": "count",
    "lattice.chi_eval.self_s": "s",
    "groupoid.closure.self_s": "s",
    "groupoid.reflect.calls": "count",
    "groupoid.reflect.self_s": "s",
    "groupoid.reflect.entries": "count",
    "groupoid.objects": "count",
    "groupoid.validate_axioms.self_s": "s",
    "rank2.quiddity.self_s": "s",
    "rank2.triangulate.self_s": "s",
    "roots.real_roots.self_s": "s",
    "roots.validate.self_s": "s",
    "roots.depth_exceeded": "count",
    "homology.cells.self_s": "s",
    "homology.cells.count": "count",
    "cells.boundary.calls": "count",
    "cells.boundary.self_s": "s",
    "cells.boundary.terms": "count",
    "homology.boundary_matrix.self_s": "s",
    "homology.boundary_matrix.nnz": "count",
    "homology.boundary_matrix.max_rows": "count",
    "homology.boundary_matrix.max_cols": "count",
    "snf.smith_diagonal.calls": "count",
    "snf.smith_diagonal.self_s": "s",
    "snf.smith_diagonal.dense_entries": "count",
    "snf.column_solver.build_s": "s",
    "snf.column_solver.max_abs_H": "count",
    "snf.column_solver.max_abs_V": "count",
    "snf.solve.calls": "count",
    "snf.solve.self_s": "s",
    "snf.solve.hit_ratio": "ratio",
    "homology.membership.self_s": "s",
    "homology.witness.terms": "count",
    "homology.witness.max_coeff": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# self-time metric -> the spans whose self times it sums
SELF_TIMES = {
    "rosso.cartan_matrix.self_s": (
        "rosso.cartan_matrix", "rosso.cartan_entry", "rosso.rosso_condition"),
    "lattice.chi_eval.self_s": ("lattice.chi_eval",),
    "groupoid.closure.self_s": ("groupoid.generate_cartan_graph",),
    "groupoid.reflect.self_s": ("groupoid.reflect",),
    "groupoid.validate_axioms.self_s": ("groupoid.validate_axioms",),
    "rank2.quiddity.self_s": ("rank2.quiddity",),
    "rank2.triangulate.self_s": ("rank2.triangulate",),
    "roots.real_roots.self_s": ("roots.real_roots",),
    "roots.validate.self_s": ("roots.validate",),
    "homology.cells.self_s": ("homology.cells",),
    "cells.boundary.self_s": ("cells.boundary",),
    "homology.boundary_matrix.self_s": ("homology.boundary_matrix",),
    "snf.smith_diagonal.self_s": ("snf.smith_diagonal",),
    "snf.column_solver.build_s": ("snf.column_solver",),
    "snf.solve.self_s": ("snf.solve",),
    "homology.membership.self_s": ("homology.boundary_membership",),
}

# count metric -> span whose number of calls it is
CALLS = {
    "lattice.chi_eval.calls": "lattice.chi_eval",
    "groupoid.reflect.calls": "groupoid.reflect",
    "cells.boundary.calls": "cells.boundary",
    "snf.smith_diagonal.calls": "snf.smith_diagonal",
    "snf.solve.calls": "snf.solve",
}


def import_weylg():
    """Put this checkout's src first on the path, or fail without it."""
    if not (SRC / "weylg" / "__init__.py").is_file():
        raise SystemExit(f"error: no weylg sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import weylg

    if Path(weylg.__file__).resolve().parent != SRC / "weylg":
        raise SystemExit(f"error: imported weylg from {weylg.__file__}")


def run_pass(plan, tracer=None):
    """One closed-loop pass.

    Returns each job's time at the fixed speed, each job's wall-clock
    latency, and the failed job keys.  A speed probe runs before the
    first job and after every job, outside the job's span.
    """
    from weylg.errors import WeylgError

    plan.reset()
    job_span = tracer.name_id("job") if tracer else None
    spans_cpu, walls, failures = [], [], []
    probes = [speed.probe()]
    for jid, job in enumerate(plan.jobs):
        if tracer:
            tracer.job = jid
            tracer.open(job_span)
        start, cpu_start = time.perf_counter(), speed.cpu_s()
        try:
            raw = job.run()
        except WeylgError as exc:
            raw = exc
        except Exception as exc:  # an untyped error is a failed job
            raw = None
            failures.append((job.key, f"untyped {type(exc).__name__}: {exc}"))
        cpu_end, wall = speed.cpu_s(), time.perf_counter() - start
        if tracer:
            tracer.close(job_span)
        probes.append(speed.probe())
        spans_cpu.append((cpu_start, cpu_end))
        walls.append(wall)
        if raw is not None:
            reason = job.check(raw)
            if reason:
                failures.append((job.key, reason))
    return speed.scaled(spans_cpu, probes), walls, failures


def tail_level(n):
    """Level of the highest percentile with TAIL_BEYOND jobs beyond it;
    the slowest job when a pass has too few jobs for that."""
    return (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 1.0


def quantile(values, q, steps=32):
    """Harrell-Davis estimate of the q-quantile of values.

    A mean of all order statistics, weighted by the beta distribution of
    the q-quantile's rank, so that one job's noise moves it less than it
    moves a single order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    if q >= 1.0:
        return xs[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [
        (a - 1) * log(x) + (b - 1) * log(1 - x)
        for x in ((i + (k + 0.5) / steps) / n for i in range(n) for k in range(steps))
    ]
    top = max(logs)
    weights = [
        sum(exp(v - top) for v in logs[i * steps:(i + 1) * steps]) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def job_times(passes):
    """Each job's median time over the passes of a run."""
    return [statistics.median(samples) for samples in zip(*passes)]


def end_to_end(setup_times, passes):
    times = job_times(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(times),
        "job_p50_ms": 1000 * quantile(times, 0.5),
        "job_tail_ms": 1000 * quantile(times, tail_level(len(times))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def exact_counters(tracer):
    out = {name: tracer.calls[span] for name, span in CALLS.items()}
    out.update(tracer.counts)
    out.update(tracer.maxima)
    out["trace.spans"] = len(tracer.span_start)
    return out


def per_layer(tracers, untraced, traced):
    counters = exact_counters(tracers[0])
    for other in tracers[1:]:
        if exact_counters(other) != counters:
            raise SystemExit("error: trace counters differ between passes")
    out = {}
    for name in PER_LAYER_UNITS:
        if name in SELF_TIMES:
            out[name] = min(
                sum(t.self_s[s] for s in SELF_TIMES[name]) for t in tracers
            )
        elif name == "rosso.m_steps_undefined_share":
            steps = counters.get("rosso.m_steps", 0)
            out[name] = counters.get("rosso.m_steps_undefined", 0) / steps if steps else 0.0
        elif name == "snf.solve.hit_ratio":
            calls = counters.get("snf.solve.calls", 0)
            out[name] = counters.get("snf.solve.hits", 0) / calls if calls else 0.0
        elif name == "trace.overhead_s":
            out[name] = sum(job_times(traced)) - sum(job_times(untraced))
        else:
            out[name] = counters.get(name, 0)
    return out


def time_setup(args):
    """SETUP_REPEATS builds of the job list from the seed, at the fixed
    speed."""
    import workloads

    spans_cpu, probes = [], [speed.probe()]
    for _ in range(SETUP_REPEATS):
        start = speed.cpu_s()
        workloads.build(args.workload, args.seed, args.smoke)
        spans_cpu.append((start, speed.cpu_s()))
        probes.append(speed.probe())
    return speed.scaled(spans_cpu, probes)


def measure(args, plan):
    """Rounds of passes while the next round is predicted to end within
    --seconds.

    A round is one untraced pass, with the set-up timed before it, and
    with --trace 1 one traced pass after it.  Untraced runs make at least
    MIN_PASSES rounds, traced runs at least one.
    """
    import spans
    import workloads

    untraced, traced, tracers, failures, setup_times = [], [], [], [], []
    walls, probes = [], []
    least = 1 if args.trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        setup_times.extend(time_setup(args))
        probes.append(speed.probe()[1])
        times, wall, failed = run_pass(plan)
        untraced.append(times)
        walls.append(wall)
        failures.extend(failed)
        if args.trace:
            tracer = spans.Tracer()
            uninstall = spans.install(tracer, workloads)
            try:
                times, _, failed = run_pass(plan, tracer)
            finally:
                uninstall()
            traced.append(times)
            tracers.append(tracer)
            failures.extend(failed)
        rounds = len(untraced)
        elapsed = time.perf_counter() - start
        if rounds >= least and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    host = {"wall_s": sum(job_times(walls)), "probe_s": statistics.median(probes)}
    return untraced, traced, tracers, failures, setup_times, host


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("homology", "membership", "closure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job list, for the harness check")
    args = parser.parse_args(argv)

    import_weylg()
    import workloads

    plan = workloads.build(args.workload, args.seed, args.smoke)
    untraced, traced, tracers, failures, setup_times, host = measure(args, plan)
    attempted = len(plan.jobs) * (len(untraced) + len(traced))
    for key, reason in failures[:20]:
        print(f"FAIL {key}: {reason}", file=sys.stderr)

    n = len(plan.jobs)
    print(
        f"# workload {args.workload} seed {args.seed}: {n} jobs per pass, "
        f"{len(untraced)} untraced and {len(traced)} traced passes; "
        f"job_tail_ms is p{100 * tail_level(n):.1f} of the {n} median job "
        f"times; fail_share {len(failures)}/{attempted}"
    )
    print(
        f"# host: unscaled wall_s {host['wall_s']:.4f} s (median wall-clock "
        f"latencies); kernel call {1e6 * host['probe_s']:.1f} us against "
        f"{1e6 * speed.REFERENCE_S:.1f} us at the fixed speed"
    )
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracers[0].write(spans_path)
        print(f"# spans written to {spans_path.relative_to(HERE.parent)}")
        metrics = per_layer(tracers, untraced, traced)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(setup_times, untraced)
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
