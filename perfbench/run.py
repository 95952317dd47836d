#!/usr/bin/env python3
"""tpalg benchmark: four seeded workloads, checked outputs, layer trace.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads: identities, compat_solve,
deform_equiv, cli_cold (see workloads.py and BENCHMARK.json for why each
exists).  Each run starts the workload in fresh interpreters (worker.py)
with PYTHONHASHSEED=0 and TPA_THREADS unset.  Set-up is timed over
SETUP_REPEATS fresh starts and reported as their median.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, whose job times are in units of a reference kernel run
between the jobs (an earlier line gives them in seconds); with
``--trace 1`` it holds the per-layer metrics of a traced pass, the
robustness probes and the interpreter start-up times.
Spans go to .perfbench_out/spans-<workload>.json.  The exit code is 0 when
the run completed, whether or not its outputs were correct (see
``correct`` and ``failed``), and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
PROBE_DEADLINE_S = 3.0
PROBE_ADDRESS_SPACE = 1 << 30
STARTUP_REPEATS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(src):
    env = dict(os.environ)
    env.pop("TPA_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONPATH"] = src
    return env


def start_worker(args, env, outdir, setup_only):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", outdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        fail(f"worker did not get ready (printed {line!r})")
    return proc, setup


def run_worker(args, env, outdir):
    """Median set-up over fresh starts, then the workload's result."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, setup = start_worker(args, env, outdir, setup_only=True)
        proc.communicate(timeout=WORKER_TIMEOUT_S)
        setups.append(setup)
    proc, setup = start_worker(args, env, outdir, setup_only=False)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker timed out")
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):]), setups


# ---------------------------------------------------------------------------
# Robustness probes and start-up times (traced runs)
# ---------------------------------------------------------------------------


def probe_inputs():
    nested = "(" * 3000 + "h" + ")" * 3000
    zero40 = json.dumps({"dim": 40, "field": "Q", "ops": {"bracket": []}})
    return (
        ("nested-parens", ["normalize", "--params", f"a={nested},b=0", "--order", "3"], ""),
        ("huge-power", ["family2d", "--params", "a=h^99999999,b=0", "--order", "2"], ""),
        ("s5-dim40", ["check", "-", "--identity", "s5"], zero40),
    )


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))
    cpu = int(PROBE_DEADLINE_S) + 1
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))


def run_probe(argv, stdin, env):
    """True when the command ends in time with exit code 3 and a one-line
    stderr that is not a traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "tpalg.cli", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, preexec_fn=_limit_child,
    )
    try:
        _, err = proc.communicate(stdin.encode("utf-8"), timeout=PROBE_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return False
    err = err.decode("utf-8", "replace").strip()
    return proc.returncode == 3 and "\n" not in err and "Traceback" not in err


REFERENCE_HALF_WINDOW = 2


def scale_by_reference(durations, refs):
    """Each job's duration in units of the reference kernel's mean duration
    over the 2 * REFERENCE_HALF_WINDOW + 1 kernel runs around it in the same
    pass (``refs[i]`` ran right after job ``i``).  Over 75 back-to-back
    compat_solve passes on a 2-vCPU VM, this window cut the spread of the
    median job between 13-s stretches from 0.27 in seconds to 0.02, where
    the pass's mean kernel time cut it to 0.06."""
    h = REFERENCE_HALF_WINDOW
    out = []
    for i, d in enumerate(durations):
        near = refs[max(0, i - h) : i + h + 1]
        out.append(d / (sum(near) / len(near)))
    return out


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def startup_ms(env, code):
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(args, root):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "tpalg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "PYTHONHASHSEED": "0",
        "TPA_THREADS": "unset",
        "command": [os.path.basename(sys.executable)] + sys.argv,
    }



def main():
    root = os.getcwd()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tpalg", "__init__.py")):
        fail(f"no tpalg sources under {src}; run from the repository root")
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    env = child_env(src)

    result, setups = run_worker(args, env, outdir)
    metrics = {}
    if args.trace:
        metrics.update(result["metrics"])
        interp = startup_ms(env, "pass")
        metrics["cli.interp_ms"] = interp
        metrics["cli.import_ms"] = startup_ms(env, "import tpalg") - interp
        probes = {name: run_probe(argv, stdin, env) for name, argv, stdin in probe_inputs()}
        metrics["probe_failures"] = sum(not ok for ok in probes.values())
        metrics["error_ratio"] = result["failed"] / result["attempted"]
        print("probes: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in probes.items()))
        wall = metrics["trace.wall_s"]
        shares = sorted(
            ((v / wall, k) for k, v in metrics.items() if k.endswith(".self_s") and v), reverse=True
        )
        print("self-time share of traced wall: " + ", ".join(f"{k} {s:.1%}" for s, k in shares[:8]))
    else:
        walls, refs = result["walls"], result["ref_times"]
        scaled = [scale_by_reference(durs, ref) for durs, ref in zip(result["durations"], refs)]
        metrics["wall_ref"] = statistics.median(sum(per_pass) for per_pass in scaled)
        metrics["job_p50_ref"] = statistics.median(x for per_pass in scaled for x in per_pass)
        metrics["job_p90_ref"] = p90([x for per_pass in scaled for x in per_pass])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        durations = [d for durs in result["durations"] for d in durs]
        print(
            f"{args.workload}: {result['jobs']} jobs x {len(walls)} passes; "
            f"job p50/p90 over {len(durations)} samples; set-up over {len(setups)} starts"
        )
        kernel = statistics.median(r for ref in refs for r in ref)
        print(
            f"in seconds: wall_s {statistics.median(walls):.4f}, "
            f"job_p50_ms {statistics.median(durations) * 1000:.4f}, "
            f"job_p90_ms {p90(durations) * 1000:.4f}, reference kernel {kernel * 1000:.4f} ms"
        )

    for problem in result["problems"].items():
        print("problem: %s: %s" % problem)
    print("provenance: " + json.dumps(provenance(args, root), sort_keys=True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if {e["name"] for e in wanted} != set(metrics):
        fail(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {e['name'] for e in wanted})}")
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
