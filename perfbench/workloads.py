"""Seeded job lists for the four benchmark workloads, and the checks on
their outputs.

Every randomly drawn input comes from a fixed pool: item ``i`` of pool class
``c`` is built from ``random.Random(f"{c}/{i}")``, and the workload seed only
chooses which pool items a run uses and in what numbers.  ``expected.json``
holds the answer of every pool item, recorded with ``record.py`` from the
program as it stood when the benchmark was written, so the unique answers of
any seed are compared against recorded values.  Answers that are not unique
are checked with oracles instead (see ``check_pass``).

A job is one call of a public tpalg function (or one short chain of them),
or one cold ``tpalg`` command line in ``cli_cold``.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import tpalg
from tpalg import (
    QI,
    QQ,
    AlgebraPresentation,
    BilinearOp,
    GaussianRational,
    TruncSeries,
    bounded_ddt_bracket,
    commutator,
    commutator_deform,
    default_labels,
    deform_from_np,
    euler_gelfand,
    family2d_construct,
    format_scalar,
    gelfand_construct,
    serialize_deformation,
    truncated_poly_dot,
    verify_witness,
)
from tpalg.algebra import LinearMap, identity_residual

F = Fraction
POOL = 24  # items per pool class
JOB_DEADLINE_S = 30.0  # a job slower than this counts as failed
SMALL_IDENTITIES = ("COMM_ASSOC", "LIE", "NCTPA", "NOV_LEFTSYM", "NOV_RIGHTCOMM", "NP1", "NP2", "TPA")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class Job:
    key: str  # unique within a workload; the key of its recorded answer
    kind: str
    args: tuple


def pool_rng(cls, idx):
    return random.Random(f"{cls}/{idx}")


def seeded_picker(seed):
    """``pick(count, size)``: which ``count`` of a pool's ``size`` items a
    run uses."""
    rng = random.Random(seed)
    return lambda count, size=POOL: sorted(rng.sample(range(size), count))


def whole_pool(count, size=POOL):
    """The picker that takes every pool item, for recording answers."""
    return range(size)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def random_scalar(rng, ring):
    """A nonzero small scalar of Q or Q(i)."""
    if ring is QI:
        re, im = 0, 0
        while re == 0 and im == 0:
            re, im = rng.randint(-2, 2), rng.randint(-2, 2)
        return GaussianRational.of(re, im)
    return ring.coerce(rng.choice((-3, -2, -1, 1, 2, 3)))


def random_derivation(n, rng, ring):
    """D(t^k) = k t^(k-1) p(t) on K[t]/(t^n), with p(0) = 0 and every other
    coefficient of p nonzero, so that the drawn algebras are generic."""
    p = [None] + [random_scalar(rng, ring) for _ in range(n - 1)]
    rows = [[ring.zero()] * n for _ in range(n)]
    for k in range(1, n):
        for m in range(1, n - k + 1):
            rows[k - 1 + m][k] = rows[k - 1 + m][k] + ring.coerce(k) * p[m]
    return LinearMap(ring, tuple(tuple(r) for r in rows))


def random_novikov(field_tag, n, idx):
    """Pool item: gelfand_construct(truncated_poly_dot(n), D) for a random D,
    with its commutator bracket."""
    ring = QI if field_tag == "Qi" else QQ
    rng = pool_rng(f"nov/{field_tag}/{n}", idx)
    dot = truncated_poly_dot(n, ring)
    circ = gelfand_construct(dot, random_derivation(n, rng, ring))
    return AlgebraPresentation(
        n, ring, default_labels(n), {"dot": dot, "circ": circ, "bracket": commutator(circ)}
    )


def perturbed_novikov(n, idx):
    """Pool item: a random Novikov algebra with one entry of one op moved."""
    pres = random_novikov("Q", n, idx)
    rng = pool_rng(f"perturb/{n}", idx)
    label = rng.choice(("dot", "circ", "bracket"))
    i, j, k = (rng.randrange(n) for _ in range(3))
    c = [[list(col) for col in row] for row in pres.ops[label].c]
    c[i][j][k] = c[i][j][k] + rng.choice((-1, 1, 2))
    ops = dict(pres.ops)
    ops[label] = BilinearOp(QQ, tuple(tuple(tuple(col) for col in row) for row in c))
    return AlgebraPresentation(n, QQ, pres.basis_labels, ops)


def sl2_bracket():
    e = {}
    for (i, j, k), v in {(0, 1, 2): 1, (2, 0, 0): 2, (2, 1, 1): -2}.items():
        e[(i, j, k)], e[(j, i, k)] = F(v), F(-v)
    return BilinearOp.from_entries(3, QQ, e)


def e2_bracket():
    return BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})


def lie2_bracket(idx):
    """Pool item: [e1, e2] = a e1 + b e2 with random nonzero rationals a, b,
    i.e. the bracket [e1, e2] = e2 in a random basis."""
    rng = pool_rng("lie2", idx)
    a, b = (F(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3)) for _ in range(2))
    return BilinearOp.from_entries(2, QQ, {(0, 1, 0): a, (0, 1, 1): b, (1, 0, 0): -a, (1, 0, 1): -b})


def span_item(max_deg, r, mixed, idx):
    """Pool item: r independent vectors in bounded_ddt_bracket(max_deg).

    Unmixed spans are scaled monomial sets, which are often closed; mixed
    ones add random higher terms to each vector, and mostly are not.
    """
    rng = pool_rng(f"span/{max_deg}/{r}/{mixed}", idx)
    n = max_deg + 1
    br = bounded_ddt_bracket(max_deg, QQ, strict=False)
    alg = AlgebraPresentation(n, QQ, default_labels(n), {"bracket": br})
    span = []
    for lead in sorted(rng.sample(range(n), r)):
        v = [F(0)] * n
        v[lead] = F(rng.choice((-2, -1, 1, 2, 3)))
        if mixed:
            for m in range(lead + 1, n):
                if rng.random() < 0.4:
                    v[m] = F(rng.randint(-2, 2))
        span.append(v)
    return alg, span


def series(order, coeffs):
    coeffs = tuple(F(c) for c in coeffs)
    return TruncSeries(order, coeffs + (F(0),) * (order - len(coeffs)))


def normalize_item(order, shape, idx):
    """Pool item: a family pair whose constant terms match a catalog limit
    (zero product, unital square or lambda family), drawn as in
    scripts/classify_random_family.py."""
    rng = pool_rng(f"nf/{order}/{shape}", idx)
    acs = [F(rng.randint(-6, 6), 2) for _ in range(order)]
    bcs = [F(rng.randint(-6, 6), 2) for _ in range(order)]
    nonzero = F(rng.choice((-2, -1, 1, 2)))
    acs[0], bcs[0] = {"zero": (0, 0), "unital": (0, nonzero), "lambda": (nonzero, 0)}[shape]
    return series(order, acs), series(order, bcs)


def pair_item(order, relation, idx):
    """Pool item: two family members.  ``forced`` pairs are equivalent by
    construction, b2 = b eps - mu h (a + h) as in acceptance criterion 4;
    ``same_a`` pairs share a_h; ``random`` pairs share nothing."""
    rng = pool_rng(f"pair/{order}/{relation}", idx)

    def mk():
        return series(order, [rng.randint(-3, 3) for _ in range(order)])

    a, b = mk(), mk()
    if relation == "forced":
        h = series(order, (0, 1))
        eps = series(order, [1] + [rng.randint(-2, 2) for _ in range(order - 1)])
        a2, b2 = a, b * eps - mk() * (h * (a + h))
    elif relation == "same_a":
        a2, b2 = a, mk()
    else:
        a2, b2 = mk(), mk()
    return a, b, a2, b2


CIRC_POINTS = ((0, 0), (1, 2), (-1, F(1, 2)), (2, -3), (F(1, 3), 0))


def np_corpus():
    """The 24-structure corpus of acceptance criterion 2: the four catalog
    dots against the circ family at five points, and Euler dims 3..6."""
    dots = {
        "A00": {},
        "A01": {(0, 0, 1): F(1)},
        "Alam1": {(0, 0, 0): F(1), (0, 1, 1): F(1), (1, 0, 1): F(1)},
        "Alam2": {(0, 0, 0): F(2), (0, 1, 1): F(2), (1, 0, 1): F(2)},
    }
    out = []
    for name, dot in dots.items():
        for a, b in CIRC_POINTS:
            a, b = F(a), F(b)
            circ = {(0, 0, 0): a, (0, 0, 1): b, (0, 1, 1): a + 1, (1, 0, 1): a}
            ops = {
                "dot": BilinearOp.from_entries(2, QQ, dot),
                "circ": BilinearOp.from_entries(2, QQ, circ),
            }
            out.append((f"{name}@{a},{b}", AlgebraPresentation(2, QQ, default_labels(2), ops)))
    for n in range(3, 7):
        out.append((f"euler{n}", euler_gelfand(n, QQ)))
    return out


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def identities_jobs(pick):
    jobs = []
    for n in range(2, 8):
        jobs.append(Job(f"s5/euler/{n}", "identity", (euler_gelfand(n), "S5")))
    for n in range(2, 11):
        pres = euler_gelfand(n)
        jobs += [Job(f"euler/{n}/{name}", "identity", (pres, name)) for name in SMALL_IDENTITIES]
    for n in range(3, 8):
        for idx in pick(2):
            pres = random_novikov("Q", n, idx)
            jobs += [Job(f"nov/Q/{n}/{idx}/{name}", "identity", (pres, name)) for name in SMALL_IDENTITIES]
    for n in range(3, 7):
        for idx in pick(2):
            pres = perturbed_novikov(n, idx)
            jobs += [Job(f"perturb/{n}/{idx}/{name}", "identity", (pres, name)) for name in SMALL_IDENTITIES]
    for n in range(2, 5):
        for idx in pick(1):
            pres = random_novikov("Qi", n, idx)
            names = SMALL_IDENTITIES + (("S5",) if n == 4 else ())
            jobs += [Job(f"nov/Qi/{n}/{idx}/{name}", "identity", (pres, name)) for name in names]
    return jobs


def compat_solve_jobs(pick):
    # The mix puts the median job among the dim-2 solves and the 90th
    # percentile among the dim-3 ones, away from the jumps in job cost
    # between classes, so that both percentiles are steady across seeds.
    jobs = [Job(f"compat/euler/{n}", "compat", (euler_gelfand(n).op("bracket"),)) for n in range(2, 7)]
    for field_tag, n, count in (("Q", 2, 10), ("Q", 3, 10), ("Q", 4, 1), ("Qi", 2, 6), ("Qi", 3, 1)):
        for idx in pick(count):
            br = random_novikov(field_tag, n, idx).op("bracket")
            jobs.append(Job(f"compat/nov/{field_tag}/{n}/{idx}", "compat", (br,)))
    jobs.append(Job("compat/sl2", "compat", (sl2_bracket(),)))
    jobs.append(Job("compat/e2", "compat", (e2_bracket(),)))
    for idx in pick(41, 2 * POOL):
        jobs.append(Job(f"compat/lie2/{idx}", "compat", (lie2_bracket(idx),)))
    for max_deg in range(2, 6):
        for r in (1, 2, 3):
            for mixed in (0, 1):
                for idx in pick(1):
                    args = span_item(max_deg, r, mixed, idx)
                    jobs.append(Job(f"span/{max_deg}/{r}/{mixed}/{idx}", "subalgebra", args))
    return jobs


def deform_equiv_jobs(pick):
    jobs = []
    for order in (6, 10, 16):
        for shape in ("zero", "unital", "lambda"):
            for idx in pick(4):
                args = normalize_item(order, shape, idx)
                jobs.append(Job(f"nf/{order}/{shape}/{idx}", "normalize", args))
    for order in (4, 5, 6):
        for relation in ("forced", "same_a", "random"):
            for idx in pick(2):
                a, b, a2, b2 = pair_item(order, relation, idx)
                key = f"pair/{order}/{relation}/{idx}"
                jobs.append(Job(f"{key}/family", "family_equiv", (a, b, a2, b2)))
                d1, d2 = family2d_construct(a, b), family2d_construct(a2, b2)
                jobs.append(Job(f"{key}/solver", "solver_equiv", (d1, d2)))
    for n in range(3, 6):
        pres = euler_gelfand(n)
        for order in (4, 6):
            jobs.append(Job(f"self/np/{n}/{order}", "self_equiv", (deform_from_np(pres, order),)))
            jobs.append(Job(f"self/comm/{n}/{order}", "self_equiv", (commutator_deform(pres.op("circ"), order),)))
    for name, pres in np_corpus():
        jobs.append(Job(f"quantize/{name}", "quantize", (pres, 3)))
    return jobs


def _series_text(rng, order, const):
    """A random series string such as ``2-h+3h^2``."""
    text = str(const) if const else ""
    for k in range(1, order):
        c = rng.choice((0, 0, 1, -1, 2, -2, 3))
        if not c:
            continue
        mono = "h" if k == 1 else f"h^{k}"
        coef = "" if c == 1 else "-" if c == -1 else str(c)
        piece = coef + mono
        text += piece if not text or piece.startswith("-") else "+" + piece
    return text or "0"


def family_file(idx):
    """Pool item: (file name, document text) of a family deformation."""
    rng = pool_rng("famfile", idx)
    order = 2 + idx % 3
    a = _series_text(rng, order, rng.choice((0, 0, 1)))
    b = _series_text(rng, order, rng.choice((0, 1)))
    doc = serialize_deformation(
        family2d_construct(tpalg.parse_series(a, order=order), tpalg.parse_series(b, order=order))
    )
    return f"fam{idx}.json", tpalg.fileio.dumps(doc)


BAD_JSON = ('{"dim": 2, "field": "Q", "ops": {', "[1, 2, 3]", '{"dim": 2,, "ops": {}}', "not json")
BAD_SCALARS = ("2h+*", "h^", "(1+h", "3//h", "h^-1", "1/0", "2hh^")


def cli_item(cls, idx):
    """Pool item: one command line as a tuple of stages (argv, ...), each
    stage reading the previous stage's stdout; plus the files it reads."""
    rng = pool_rng(f"cli/{cls}", idx)
    fmt = ["--format", "json"] if rng.random() < 0.3 else []
    if cls in ("check", "limit", "bad_identity"):
        fam = family_file(rng.randrange(POOL))
    if cls == "family2d":
        order = rng.choice((2, 3, 4))
        params = f"a={_series_text(rng, order, 0)},b={_series_text(rng, order, rng.choice((0, 1)))}"
        return (["family2d", "--params", params, "--order", str(order)],), []
    if cls == "check":
        ident = rng.choice(("nov_leftsym", "nov_rightcomm", "comm_assoc", "lie", "nctpa"))
        return (["check", fam[0], "--identity", ident] + fmt,), [fam]
    if cls == "limit":
        return (["limit", fam[0]] + fmt,), [fam]
    if cls == "equiv":
        i = rng.randrange(POOL)
        j = rng.choice([x for x in range(POOL) if x % 3 == i % 3])
        f1, f2 = family_file(i), family_file(j)
        method = rng.choice(("solver", "family"))
        return (["equiv", f1[0], f2[0], "--method", method] + fmt,), [f1, f2]
    if cls == "normalize":
        const = rng.choice(("zero", "unital", "lambda"))
        a = _series_text(rng, 6, 2 if const == "lambda" else 0)
        b = _series_text(rng, 6, 1 if const == "unital" else 0)
        return (["normalize", "--params", f"a={a},b={b}", "--order", "6"] + fmt,), []
    if cls == "catalog":
        return (["catalog", "--lam", rng.choice(("1", "2", "-3", "1/2", "5/3"))] + fmt,), []
    if cls == "operad":
        return (["operad-dims", str(rng.randint(1, 5))] + fmt,), []
    if cls == "gelfand_s5":
        field = rng.choice(("Q", "Qi"))
        return (["gelfand", "--dim", "4", "--field", field], ["check", "-", "--identity", "s5"] + fmt), []
    if cls == "gelfand_compat":
        dim = str(rng.choice((2, 3, 4)))
        return (["gelfand", "--dim", dim], ["solve-compatible", "-"] + fmt), []
    if cls == "bad_identity":
        return (["check", fam[0], "--identity", rng.choice(("s6", "jordan", "nov", "lie2"))],), [fam]
    if cls == "bad_json":
        name = f"bad{idx}.json"
        return (["check", name, "--identity", "lie"],), [(name, rng.choice(BAD_JSON))]
    if cls == "bad_scalar":
        return (["family2d", "--params", f"a={rng.choice(BAD_SCALARS)},b=0", "--order", "3"],), []
    raise ValueError(cls)


# (pool class, jobs per pass); one pass is 100 command lines.
CLI_MIX = (
    ("family2d", 12), ("check", 10), ("limit", 10), ("equiv", 12), ("normalize", 12),
    ("catalog", 6), ("operad", 6), ("gelfand_s5", 8), ("gelfand_compat", 8),
    ("bad_identity", 6), ("bad_json", 5), ("bad_scalar", 5),
)
MALFORMED = ("bad_identity", "bad_json", "bad_scalar")


def cli_cold_jobs(pick):
    jobs = []
    for cls, count in CLI_MIX:
        for idx in pick(count):
            stages, files = cli_item(cls, idx)
            jobs.append(Job(f"cli/{cls}/{idx}", "cli", (stages, files, cls in MALFORMED)))
    return jobs


JOB_LISTS = {
    "identities": identities_jobs,
    "compat_solve": compat_solve_jobs,
    "deform_equiv": deform_equiv_jobs,
    "cli_cold": cli_cold_jobs,
}


def make_jobs(workload, seed):
    """The job list of one workload; the same seed gives the same list."""
    return JOB_LISTS[workload](seeded_picker(seed))


def write_cli_files(jobs, workdir):
    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        if job.kind == "cli":
            for name, text in job.args[1]:
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)


# ---------------------------------------------------------------------------
# Running a job
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    first_codes: tuple = ()  # exit codes of the earlier pipeline stages


def run_cli(stages):
    """The command line as cold ``python -m tpalg.cli`` processes in the
    working directory, with this process's environment; a pipeline's stages
    run one after another, each reading the previous stage's stdout."""
    data, codes = "", []
    for argv in stages:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tpalg.cli", *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(data.encode("utf-8"), timeout=JOB_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        codes.append(proc.returncode)
        data = out.decode("utf-8")
    return CliResult(codes[-1], data, err.decode("utf-8", "replace"), tuple(codes[:-1]))


def replay_cli(stages):
    """The same command line through ``tpalg.cli.main(argv)`` in this
    process, with captured stdio; the working directory must hold the
    files."""
    from tpalg import cli

    data, codes, err = "", [], ""
    for argv in stages:
        out, errbuf = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(data)
        try:
            with redirect_stdout(out), redirect_stderr(errbuf):
                codes.append(cli.main(list(argv)))
        finally:
            sys.stdin = saved
        data, err = out.getvalue(), errbuf.getvalue()
    return CliResult(codes[-1], data, err, tuple(codes[:-1]))


def run_quantize(pres, order):
    d = tpalg.deform_from_np(pres, order)
    return tpalg.check_novikov_deformation(d), tpalg.classical_limit(d)


# Library calls go through the ``tpalg`` package at call time, so that the
# trace wrappers installed there see them.
RUNNERS = {
    "identity": lambda pres, name: tpalg.check_identity(pres, name),
    "compat": lambda br: tpalg.solve_novikov_compatible(br),
    "subalgebra": lambda alg, span: tpalg.subalgebra_check(alg, span),
    "normalize": lambda a, b: tpalg.normalize_family(a, b),
    "family_equiv": lambda a, b, a2, b2: tpalg.family2d_equiv(a, b, a2, b2),
    "solver_equiv": lambda d1, d2: tpalg.solve_equivalence(d1, d2),
    "self_equiv": lambda d: tpalg.solve_equivalence(d, d),
    "quantize": run_quantize,
}


def run_job(job, cli_runner=None):
    if job.kind == "cli":
        return cli_runner(job.args[0])
    return RUNNERS[job.kind](*job.args)


# ---------------------------------------------------------------------------
# Canonical answers
# ---------------------------------------------------------------------------


def fmt_vec(vec):
    return "[" + ", ".join(format_scalar(x) for x in vec) + "]"


def canon_report(rep):
    if rep.passed:
        return f"{rep.identity_name} pass"
    ce = rep.counterexample
    return f"{rep.identity_name} fail {ce.clause} {ce.indices} {fmt_vec(ce.residual)}"


def canon_op(op):
    n = op.dim
    return ";".join(
        f"{i}{j}{k}:{format_scalar(op.c[i][j][k])}"
        for i in range(n) for j in range(n) for k in range(n)
        if op.c[i][j][k] != 0
    )


def canon(job, result):
    """The job's answer as a string; equal answers give equal strings."""
    kind = job.kind
    if kind == "identity":
        return canon_report(result)
    if kind == "compat":
        if not result.feasible:
            return "infeasible"
        return (
            f"params={','.join(result.param_names)} novikov={result.all_novikov} "
            f"obstructions={len(result.obstructions)} op={canon_op(result.op)}"
        )
    if kind == "subalgebra":
        if not result.closed:
            return f"open {result.failing}"
        return f"closed {canon_op(result.induced.op('bracket'))}"
    if kind == "normalize":
        lead = None if result.leading is None else format_scalar(result.leading)
        return (
            f"{result.kind} m={result.m} lead={lead} "
            f"a={format_scalar(result.canonical_a)} b={format_scalar(result.canonical_b)}"
        )
    if kind == "family_equiv":
        return f"{result.tag} order={result.failure_order}"
    if kind in ("solver_equiv", "self_equiv"):
        return result.tag
    if kind == "quantize":
        nov, lim = result
        return f"{canon_report(nov)}; {canon_report(lim.tpa_report)}; {canon_report(lim.lie_report)}"
    if kind == "cli":
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()[:16]
        return f"exit={result.code} stdout={digest}"
    raise ValueError(kind)


def stored(text):
    """What expected.json keeps of a canonical answer: short ones verbatim,
    long ones as a digest."""
    if len(text) <= 160:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def load_expected(workload):
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _basis(n, ring, i):
    v = [ring.zero()] * n
    v[i] = ring.one()
    return v


def residual_oracle(pres, name, report):
    """A reported residual must equal identity_residual at that tuple."""
    ce = report.counterexample
    n, ring = pres.dim, pres.ring
    vectors = [_basis(n, ring, i - 1) for i in ce.indices]
    vectors += [_basis(n, ring, 0)] * (5 - len(vectors))  # for the other clauses
    for clause, res in identity_residual(pres, name, vectors):
        if clause == ce.clause:
            return None if tuple(res) == tuple(ce.residual) else "residual differs from identity_residual"
    return f"clause {ce.clause!r} not in identity"


def oracle_problem(job, result):
    """Checks that hold at any seed, whatever was recorded."""
    if job.kind == "identity" and not result.passed:
        return residual_oracle(*job.args, result)
    if job.kind == "normalize":
        a, b = job.args
        d1, d2 = family2d_construct(a, b), family2d_construct(*result.as_pair())
        if not verify_witness(d1, d2, result.witness).passed:
            return "normal-form witness fails verify_witness"
    if job.kind in ("family_equiv", "solver_equiv", "self_equiv") and result.is_equivalent:
        if job.kind == "family_equiv":
            d1, d2 = family2d_construct(*job.args[:2]), family2d_construct(*job.args[2:])
        elif job.kind == "solver_equiv":
            d1, d2 = job.args
        else:
            d1 = d2 = job.args[0]
        if not verify_witness(d1, d2, result.witness).passed:
            return "equivalent witness fails verify_witness"
    if job.kind == "self_equiv" and result.is_not_equivalent:
        return "a deformation is reported not equivalent to itself"
    if job.kind == "cli":
        if any(code != 0 for code in result.first_codes):
            return f"pipeline stage exited {result.first_codes}"
        if "Traceback" in result.stderr:
            return "traceback on stderr"
        if job.args[2] and result.code != 3:
            return f"malformed input ended with exit code {result.code}, not 3"
    return None


def golden_problem(job, answer, expected):
    """Compare with the recorded answer.  A self-pair recorded as unknown
    may now be equivalent (its witness is verified by the oracle); the
    general solver has no recorded answer (see cross_problems)."""
    if job.kind == "solver_equiv":
        return None
    want = expected.get(job.key)
    if want is None:
        return "no recorded answer"
    if job.kind == "self_equiv" and want == "unknown" and answer == "equivalent":
        return None
    if stored(answer) != want:
        return f"answer {stored(answer)!r} != recorded {want!r}"
    return None


def cross_problems(jobs, answers):
    """solve_equivalence never contradicts family2d_equiv on the same pair."""
    by_key = {job.key: ans for job, ans in zip(jobs, answers)}
    bad = set()
    for job in jobs:
        if job.kind != "solver_equiv":
            continue
        fam = by_key.get(job.key[: -len("solver")] + "family")
        gen = by_key.get(job.key)
        if fam is None or gen is None or gen == "unknown":
            continue
        if not fam.startswith(gen + " "):
            bad.add(job.key)
    return bad


def check_pass(jobs, results, expected):
    """Check one pass.  ``results[i]`` is the result of jobs[i], or an
    exception instance, or None for a missed deadline.  Returns the
    canonical answers and a dict from job key to the first problem found."""
    answers, problems = [], {}
    for job, result in zip(jobs, results):
        if result is None:
            problems[job.key] = "missed deadline"
            answers.append(None)
            continue
        if isinstance(result, BaseException):
            problems[job.key] = f"raised {type(result).__name__}: {result}"
            answers.append(None)
            continue
        try:
            answer = canon(job, result)
            problem = golden_problem(job, answer, expected) or oracle_problem(job, result)
        except Exception as exc:  # a check that cannot run fails the job
            answer, problem = None, f"check raised {type(exc).__name__}: {exc}"
        answers.append(answer)
        if problem:
            problems[job.key] = problem
    for key in cross_problems(jobs, answers):
        problems.setdefault(key, "solve_equivalence contradicts family2d_equiv")
    return answers, problems


def reference_kernel(n=8):
    """Fixed work that calls no tpalg code: Gauss-Jordan elimination of an
    n x n rational system, returning its first unknown.

    Untraced passes run it after every job, outside the job's timing, and
    report each job's time in units of the kernel's time next to it (see
    run.py).  The host's speed drifts by a quarter over minutes and jitters
    within seconds; the kernel slows with it, so the ratio keeps the
    program's own cost and drops most of the drift."""
    a = [[F(i * 7 + j * 3 + 1, (i + 2 * j) % 5 + 1) for j in range(n)] + [F(i + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a[0][n]


def timed_pass(jobs, cli_runner=None, on_job=None, reference=False):
    """Run every job once, in order.  Returns (wall seconds, per-job
    seconds, results, reference seconds); checks happen afterwards, outside
    the timing.  With ``reference``, ``reference_kernel`` runs after every
    job; its durations are returned and its time is not part of the wall."""
    durations, results, refs = [], [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if on_job:
            on_job(i)
        t0 = time.perf_counter()
        try:
            result = run_job(job, cli_runner)
        except subprocess.TimeoutExpired:
            result = None
        except Exception as exc:  # a failed job is counted, the pass goes on
            result = exc
        t1 = time.perf_counter()
        dt = t1 - t0
        if dt > JOB_DEADLINE_S:
            result = None
        durations.append(dt)
        results.append(result)
        if reference:
            # The kernel makes no reference cycles; with the collector off,
            # garbage the job left is collected in the job's time, not here.
            gc.disable()
            try:
                reference_kernel()
            finally:
                gc.enable()
            refs.append(time.perf_counter() - t1)
    return time.perf_counter() - start - sum(refs), durations, results, refs
