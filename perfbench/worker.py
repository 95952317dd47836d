"""One workload in a fresh interpreter; started by run.py.

Prints ``READY`` once tpalg is imported and the inputs are generated (run.py
times set-up up to that line), then runs the workload and prints
``RESULT <json>`` as its last line.  With ``--setup-only`` it stops after
``READY``.

Untraced: whole passes over the job list, in a closed loop with one client,
for about ``--seconds``, with the reference kernel run after every job.
Traced: an untraced, a traced and an untraced pass, whose answers must be
identical.  ``cli_cold`` runs cold CLI processes untraced
and replays the same command lines through ``tpalg.cli.main`` when traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import workloads
from layertrace import Tracer
from workloads import check_pass, timed_pass


def run_passes(jobs, expected, seconds, runner):
    """Whole passes until the next one would end after ``seconds``.  Per
    pass: its wall, its job durations and the duration of the reference
    kernel run after each job."""
    walls, durations, ref_times, attempted, problems = [], [], [], 0, {}
    start = time.perf_counter()
    while True:
        wall, durs, results, refs = timed_pass(jobs, runner, reference=True)
        _, found = check_pass(jobs, results, expected)
        walls.append(wall)
        durations.append(durs)
        ref_times.append(refs)
        attempted += len(jobs)
        problems.update({f"pass{len(walls)}:{k}": v for k, v in found.items()})
        if time.perf_counter() - start + wall + sum(refs) > seconds:
            break
    return walls, durations, ref_times, attempted, problems


def run_traced(jobs, expected, runner, spans_path):
    """An untraced, a traced and another untraced pass; per-layer metrics
    come from the traced one, and its overhead is measured against the mean
    of the two untraced ones, which cancels a steady drift in machine speed."""
    tracer = Tracer()

    def traced_pass(jobs, runner):
        tracer.install()
        try:
            return timed_pass(jobs, runner, on_job=lambda i: setattr(tracer, "job", i))
        finally:
            tracer.remove()

    problems, walls, answers = {}, [], []
    for label, run in (("untraced", timed_pass), ("traced", traced_pass), ("untraced2", timed_pass)):
        wall, _, results, _ = run(jobs, runner)
        found_answers, found = check_pass(jobs, results, expected)
        problems.update({f"{label}:{k}": v for k, v in found.items()})
        walls.append(wall)
        answers.append(found_answers)
    for job, *per_pass in zip(jobs, *answers):
        if len(set(per_pass)) > 1:
            problems[f"traced:{job.key}"] = "traced and untraced answers differ"
    leftover = tracer.leftover_wrappers()
    if leftover:
        problems["trace:restore"] = f"wrappers left in place: {leftover}"
    tracer.write_spans(spans_path, jobs)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2
    metrics["trace.wall_s"] = walls[1]
    return metrics, 3 * len(jobs), problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    jobs = workloads.make_jobs(args.workload, args.seed)
    runner = None
    if args.workload == "cli_cold":
        workdir = os.path.join(args.outdir, "work")
        workloads.write_cli_files(jobs, workdir)
        os.chdir(workdir)  # command lines name their files relative to it
        runner = workloads.replay_cli if args.trace else workloads.run_cli
    print("READY", flush=True)
    if args.setup_only:
        return

    expected = workloads.load_expected(args.workload)
    out = {"jobs": len(jobs)}
    if args.trace:
        spans = os.path.join(args.outdir, f"spans-{args.workload}.json")
        metrics, attempted, problems = run_traced(jobs, expected, runner, spans)
        out.update(metrics=metrics, spans=spans)
    else:
        walls, durations, ref_times, attempted, problems = run_passes(jobs, expected, args.seconds, runner)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        out.update(
            walls=walls,
            durations=durations,
            ref_times=ref_times,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
        )
    out.update(attempted=attempted, failed=len(problems), problems=dict(list(problems.items())[:20]))
    print("RESULT " + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
