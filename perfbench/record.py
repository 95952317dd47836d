#!/usr/bin/env python3
"""Record the answer of every pool item into expected.json.

    PYTHONPATH=src python3 perfbench/record.py

Run it only on a commit whose answers are trusted: the benchmark compares
every later run against what this writes.  Command lines of ``cli_cold`` are
recorded through ``tpalg.cli.main`` in this process; the benchmark checks
that cold processes print the same bytes.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from workloads import JOB_LISTS, canon, replay_cli, run_job, stored, whole_pool, write_cli_files


WORKDIR = os.path.join(os.path.dirname(os.path.dirname(workloads.EXPECTED_PATH)), ".perfbench_out", "record")


def record(workload):
    jobs = JOB_LISTS[workload](whole_pool)
    answers = {}
    write_cli_files(jobs, WORKDIR)
    here = os.getcwd()
    os.chdir(WORKDIR)
    try:
        for job in jobs:
            if job.kind == "solver_equiv":
                continue  # not unique; checked by oracles only
            result = run_job(job, replay_cli)
            answers[job.key] = stored(canon(job, result))
    finally:
        os.chdir(here)
    return answers


def main():
    doc = {}
    for workload in JOB_LISTS:
        doc[workload] = record(workload)
        print(f"{workload}: {len(doc[workload])} answers", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
