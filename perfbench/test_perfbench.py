"""Tests of the benchmark itself:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
from fractions import Fraction

import pytest

import tpalg
import workloads
from layertrace import Tracer, identity_tuples
from tpalg import (
    QQ,
    AlgebraPresentation,
    BilinearOp,
    TruncSeries,
    TruncatedDeformation,
    default_labels,
    format_scalar,
)
from workloads import Job, canon_op, check_pass, load_expected, make_jobs, run_job

F = Fraction
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprint(x):
    """A string that identifies a job input by value."""
    if isinstance(x, AlgebraPresentation):
        return "alg(" + ";".join(f"{k}={canon_op(v)}" for k, v in sorted(x.ops.items())) + ")"
    if isinstance(x, BilinearOp):
        return f"op({canon_op(x)})"
    if isinstance(x, TruncatedDeformation):
        return f"def({canon_op(x.series_op())})"
    if isinstance(x, TruncSeries):
        return format_scalar(x)
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(fingerprint(y) for y in x) + "]"
    return repr(x)


@pytest.mark.parametrize("workload", workloads.JOB_LISTS)
def test_one_seed_gives_one_job_list(workload):
    first = [(j.key, j.kind, fingerprint(j.args)) for j in make_jobs(workload, 11)]
    second = [(j.key, j.kind, fingerprint(j.args)) for j in make_jobs(workload, 11)]
    assert first == second
    assert len({key for key, _, _ in first}) == len(first) >= 100
    assert [j.key for j in make_jobs(workload, 12)] != [key for key, _, _ in first]
    expected = load_expected(workload)
    assert expected == load_expected(workload)
    assert all(key in expected for key, kind, _ in first if kind != "solver_equiv")


def _small_jobs():
    jobs = [j for j in make_jobs("deform_equiv", 3) if j.kind in ("family_equiv", "solver_equiv")]
    jobs += [j for j in make_jobs("identities", 3) if j.key.startswith("perturb/3/")]
    return jobs


def _error_ratio(jobs, expected):
    results = [run_job(j) for j in jobs]
    _, problems = check_pass(jobs, results, expected)
    return len(problems) / len(jobs), problems


def test_recorded_answers_pass():
    jobs = _small_jobs()
    expected = {**load_expected("deform_equiv"), **load_expected("identities")}
    ratio, problems = _error_ratio(jobs, expected)
    assert ratio == 0, problems


def test_planted_wrong_counterexample_raises_error_ratio():
    jobs = _small_jobs()
    expected = {**load_expected("deform_equiv"), **load_expected("identities")}
    failing = next(j for j in jobs if j.kind == "identity" and " fail " in expected[j.key])
    expected[failing.key] = expected[failing.key].replace("(", "(9, ", 1)
    ratio, problems = _error_ratio(jobs, expected)
    assert ratio > 0 and failing.key in problems


def test_planted_flipped_verdict_raises_error_ratio():
    jobs = _small_jobs()
    expected = {**load_expected("deform_equiv"), **load_expected("identities")}
    fam = next(j for j in jobs if j.kind == "family_equiv" and expected[j.key].startswith("equivalent"))
    expected[fam.key] = "not_equivalent order=1"
    ratio, problems = _error_ratio(jobs, expected)
    assert ratio > 0 and fam.key in problems


def test_oracles_catch_wrong_residual_and_wrong_witness():
    job = next(j for j in _small_jobs() if j.kind == "identity")
    pres = job.args[0]
    rep = tpalg.check_identity(pres, "NOV_LEFTSYM")
    bad_rep = tpalg.IdentityReport(
        "NOV_LEFTSYM", False, tpalg.Counterexample((1, 1, 1), (F(7),) * pres.dim, "left-symmetry")
    )
    assert workloads.oracle_problem(Job("x", "identity", (pres, "NOV_LEFTSYM")), bad_rep)
    if not rep.passed:
        assert workloads.oracle_problem(Job("x", "identity", (pres, "NOV_LEFTSYM")), rep) is None

    h = TruncSeries(3, (F(0), F(1), F(0)))
    zero = TruncSeries(3, (F(0),) * 3)
    d1, d2 = tpalg.family2d_construct(h, zero), tpalg.family2d_construct(h, h)
    verdict = tpalg.family2d_equiv(h, h, h, h)
    assert verdict.is_equivalent
    # the identity witness does not map (h, 0) to (h, h)
    assert workloads.oracle_problem(Job("x", "solver_equiv", (d1, d2)), verdict)


def test_self_pair_may_only_become_equivalent():
    job = Job("self/x", "self_equiv", ())
    assert workloads.golden_problem(job, "equivalent", {"self/x": "unknown"}) is None
    assert workloads.golden_problem(job, "not_equivalent", {"self/x": "unknown"})
    assert workloads.golden_problem(job, "unknown", {"self/x": "equivalent"})


def test_counts_match_hand_counts():
    tracer = Tracer()
    tracer.install()
    try:
        tpalg.linalg.matmul([[F(1)] * 3] * 2, [[F(1)] * 4] * 3)  # 2 x 3 times 3 x 4
        tpalg.linalg.solve_affine([[F(1), F(0)], [F(0), F(2)], [F(0), F(0)]], [F(1), F(2), F(0)])
        dot = BilinearOp.from_entries(2, QQ, {(0, 0, 0): F(1)})
        comm = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
        tpalg.check_identity(comm, "COMM_ASSOC")  # passes: 2^2 + 2^3 tuples
        skew = BilinearOp.from_entries(2, QQ, {(0, 1, 0): F(1)})
        noncomm = AlgebraPresentation(2, QQ, default_labels(2), {"dot": skew})
        rep = tpalg.check_identity(noncomm, "COMM_ASSOC")  # fails at (1, 2): rank 1
    finally:
        tracer.remove()
    assert rep.counterexample.indices == (1, 2)
    m = tracer.metrics()
    assert m["linalg.matmul.calls"] == 1 and m["linalg.matmul.mults"] == 24
    assert (m["linalg.solve_affine.rows"], m["linalg.solve_affine.cols"]) == (3, 2)
    assert m["linalg.solve_affine.nnz"] == 2
    assert m["algebra.check_identity.tuples"] == 12 + 2
    assert identity_tuples(3, "S5", tpalg.IdentityReport("S5", True)) == 243
    assert not tracer.leftover_wrappers()
    assert tpalg.algebra.solve_affine is tpalg.linalg.solve_affine
    assert not hasattr(tpalg.linalg.matmul, "_perfbench_layer")


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    tracer.install()
    try:
        tpalg.solve_novikov_compatible(workloads.e2_bracket())
    finally:
        tracer.remove()
    m = tracer.metrics()
    assert m["dim2.solve_novikov_compatible.calls"] == 1
    assert m["linalg.solve_affine.calls"] >= 1
    assert m["dim2.solve_novikov_compatible.feasible"] == 1
    total = max(tracer.span_end) - min(tracer.span_start)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) <= total + 1e-6


def test_reference_window_scales_each_job():
    from run import scale_by_reference

    # job i is divided by the mean kernel time over refs[i-2 .. i+2]
    assert scale_by_reference([1, 2, 3], [1, 1, 2]) == pytest.approx([0.75, 1.5, 2.25])
    assert scale_by_reference([4.0], [2.0]) == [2.0]
    assert workloads.reference_kernel() == workloads.reference_kernel(8) != 0


def test_benchmark_json_names_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {e["name"] for e in spec["per_layer"]}
    assert set(Tracer().metrics()) <= names
    assert {w["name"] for w in spec["workloads"]} == set(workloads.JOB_LISTS)
