"""JSON interchange and the command-line front end.

CLI tests drive ``main(argv)`` in-process and freeze the text output and
exit-code contract: 0 pass/equivalent, 1 fail/not-equivalent, 2 unknown,
3 usage or parse errors.
"""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import catalog_dots, circ_family, np_pair
from tpalg.algebra import (
    AlgebraPresentation,
    BilinearOp,
    LinearMap,
    default_labels,
    euler_gelfand,
)
from tpalg.cli import main
from tpalg.deform import TruncatedDeformation, commutator_deform, family2d_construct
from tpalg.dim2 import solve_novikov_compatible
from tpalg.equiv import EquivalenceWitness, verify_witness
from tpalg.errors import IndexOutOfRange, ParseError
from tpalg.fileio import (
    detect_kind,
    dumps,
    parse_algebra_file,
    parse_deformation_file,
    serialize_algebra,
    serialize_deformation,
)
from tpalg.scalars import QI, QQ, parse_series

F = Fraction


def S(text, order=4):
    return parse_series(text, QQ, order)


def tpa_counterexample_algebra():
    dot = BilinearOp.from_entries(2, QQ, {(0, 0, 0): F(1)})
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    return AlgebraPresentation(
        2, QQ, default_labels(2), {"dot": dot, "bracket": bracket}
    )


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_algebra_roundtrip_and_determinism():
    dots = catalog_dots()
    pres = np_pair(dots["A01"], circ_family(F(1), F(-2)))
    text = dumps(serialize_algebra(pres))
    back = parse_algebra_file(text)
    assert back.dim == pres.dim
    for label in ("dot", "circ"):
        assert back.op(label).entries_equal(pres.op(label))
    assert dumps(serialize_algebra(back)) == text


def test_deformation_roundtrip():
    d = family2d_construct(S("1+h"), S("2h-h^3"))
    text = dumps(serialize_deformation(d))
    back = parse_deformation_file(text)
    assert back.order == d.order
    for mine, theirs in zip(d.mu, back.mu):
        assert mine.entries_equal(theirs)
    assert dumps(serialize_deformation(back)) == text


def test_parametric_roundtrip():
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    fam = solve_novikov_compatible(bracket)
    pres = AlgebraPresentation(
        2, fam.op.ring, default_labels(2), {"circ": fam.op}
    )
    doc = serialize_algebra(pres)
    assert doc["params"] == ["p1", "p2"]
    back = parse_algebra_file(dumps(doc))
    assert back.op("circ").entries_equal(fam.op)


def test_gaussian_roundtrip():
    i = QI.parse("i")
    dot = BilinearOp.from_entries(2, QI, {(0, 0, 1): i, (0, 1, 0): QI.parse("1/2-i")})
    pres = AlgebraPresentation(2, QI, default_labels(2), {"dot": dot})
    doc = serialize_algebra(pres)
    assert doc["field"] == "Qi"
    back = parse_algebra_file(dumps(doc))
    assert back.op("dot").entries_equal(dot)


def test_detect_kind():
    assert detect_kind('{"dim": 1, "ops": {}}') == "algebra"
    assert detect_kind('{"dim": 1, "order": 2, "mu": [[], []], "ops": {"dot": []}}') == "deformation"


# ---------------------------------------------------------------------------
# Parse errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2]",
        '{"dim": 0, "ops": {}}',
        '{"dim": true, "ops": {}}',
        '{"dim": 2, "field": "R", "ops": {}}',
        '{"dim": 2, "params": "a", "ops": {}}',
        '{"dim": 2, "params": ["h"], "ops": {}}',
        '{"dim": 2, "ops": []}',
        '{"dim": 2, "ops": {"dot": {}}}',
        '{"dim": 2, "ops": {"dot": [[1, 1, 1]]}}',
        '{"dim": 2, "ops": {"dot": [[1, 1, "1", "1"]]}}',
        '{"dim": 2, "ops": {"dot": [[1, 1, 1, 1]]}}',
        '{"dim": 2, "ops": {"dot": [[1, 1, 1, "1"], [1, 1, 1, "2"]]}}',
        '{"dim": 2, "order": 2, "ops": {"dot": []}}',
    ],
)
def test_algebra_parse_errors(text):
    with pytest.raises(ParseError):
        parse_algebra_file(text)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_algebra_file('{"dim": 2, "ops": {"dot": [[1, 3, 1, "1"]]}}')


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 2, "ops": {"dot": []}}',  # no order/mu: wrong entry point
        '{"dim": 2, "order": 0, "mu": [], "ops": {"dot": []}}',
        '{"dim": 2, "order": 2, "mu": [[]], "ops": {"dot": []}}',
        '{"dim": 2, "order": 2, "mu": [[], []], "ops": {}}',
        '{"dim": 2, "order": 2, "mu": [[[1, 1, 1, "1"]], []], "ops": {"dot": []}}',
    ],
)
def test_deformation_parse_errors(text):
    with pytest.raises(ParseError):
        parse_deformation_file(text)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def a01_file(tmp_path):
    dots = catalog_dots()
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    pres = AlgebraPresentation(
        2, QQ, default_labels(2), {"dot": dots["A01"], "bracket": bracket}
    )
    return write(tmp_path, "a01.json", dumps(serialize_algebra(pres)))


@pytest.fixture()
def family_file(tmp_path):
    d = family2d_construct(S("h"), S("0"))
    return write(tmp_path, "fam_h_0.json", dumps(serialize_deformation(d)))


def test_check_pass(capsys, a01_file):
    code, out = run_cli(capsys, "check", a01_file, "--identity", "tpa")
    assert code == 0
    assert out == "identity: TPA\nresult: PASS\n"


def test_check_fail_counterexample(capsys, tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        dumps(serialize_algebra(tpa_counterexample_algebra())),
    )
    code, out = run_cli(capsys, "check", path, "--identity", "TPA")
    assert code == 1
    assert "result: FAIL" in out
    assert "clause: transposed-leibniz" in out
    assert "at: (e1, e2, e1)" in out
    assert "residual: (0, -1)" in out


def test_check_deformation_file(capsys, family_file):
    code, out = run_cli(capsys, "check", family_file, "--identity", "nov_leftsym")
    assert code == 0
    assert "result: PASS" in out
    code, _ = run_cli(capsys, "check", family_file, "--identity", "tpa")
    assert code == 0  # dot and bracket are bound to the deformed product


def test_check_unknown_identity_is_usage_error(capsys, a01_file):
    code, _ = run_cli(capsys, "check", a01_file, "--identity", "frobnicate")
    assert code == 3


def test_check_missing_file(capsys):
    code, _ = run_cli(capsys, "check", "/nonexistent/x.json", "--identity", "tpa")
    assert code == 3


def test_check_stdin(capsys, monkeypatch):
    text = dumps(serialize_algebra(tpa_counterexample_algebra()))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = run_cli(capsys, "check", "-", "--identity", "lie")
    assert code == 0
    assert "identity: LIE" in out


def test_check_gaussian_power_scalar(capsys, tmp_path):
    doc = '{"dim": 1, "field": "Qi", "ops": {"dot": [[1, 1, 1, "i^2"]]}}'
    code = main(["check", write(tmp_path, "qi.json", doc), "--identity", "comm_assoc"])
    captured = capsys.readouterr()
    assert code == 0
    assert "result: PASS" in captured.out
    assert "Traceback" not in captured.err


def test_check_json_format(capsys, a01_file):
    code, out = run_cli(
        capsys, "check", a01_file, "--identity", "tpa", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"identity": "TPA", "passed": True, "counterexample": None}


def test_limit_output(capsys, tmp_path):
    d = family2d_construct(S("h", 3), S("h^2", 3))
    path = write(tmp_path, "nil.json", dumps(serialize_deformation(d)))
    code, out = run_cli(capsys, "limit", path)
    assert code == 0
    assert "limit dot:" in out
    assert "dot: (zero)" in out
    assert "bracket(e1, e2) = e2" in out
    assert "TPA: PASS" in out
    assert "LIE: PASS" in out


def test_deform_np_pipeline(capsys, tmp_path):
    dots = catalog_dots()
    pres = np_pair(dots["A00"], circ_family(F(2), F(-3)))
    np_file = write(tmp_path, "np.json", dumps(serialize_algebra(pres)))
    code, out = run_cli(capsys, "deform-np", np_file, "--order", "3")
    assert code == 0
    d = parse_deformation_file(out)
    expected = family2d_construct(S("2h", 3), S("-3h", 3))
    assert d.series_op().entries_equal(expected.series_op())


def test_deform_np_rejects_bad_input(capsys, tmp_path):
    bad = np_pair(
        BilinearOp.from_entries(2, QQ, {(0, 0, 0): F(1)}), circ_family(F(0), F(0))
    )
    path = write(tmp_path, "badnp.json", dumps(serialize_algebra(bad)))
    code, _ = run_cli(capsys, "deform-np", path, "--order", "3")
    assert code == 1  # domain failure, not usage


def test_deform_commutator_pipeline(capsys, tmp_path):
    pres = euler_gelfand(3, QQ)
    path = write(tmp_path, "eg3.json", dumps(serialize_algebra(pres)))
    code, out = run_cli(capsys, "deform-commutator", path, "--order", "3")
    assert code == 0
    d = parse_deformation_file(out)
    assert d.mu[1].entries_equal(pres.op("circ"))


def test_equiv_equivalent_family_route(capsys, tmp_path):
    f1 = write(
        tmp_path, "f1.json", dumps(serialize_deformation(family2d_construct(S("h"), S("0"))))
    )
    f2 = write(
        tmp_path, "f2.json", dumps(serialize_deformation(family2d_construct(S("h"), S("h^2"))))
    )
    code, out = run_cli(capsys, "equiv", f1, f2)
    assert code == 0
    assert "verdict: EQUIVALENT" in out
    assert "method: family" in out
    assert "witness f[1]:" in out
    assert "[-1/2, 0]" in out


def test_equiv_not_equivalent(capsys, tmp_path):
    f1 = write(
        tmp_path, "f1.json", dumps(serialize_deformation(family2d_construct(S("0"), S("h"))))
    )
    f2 = write(
        tmp_path, "f2.json", dumps(serialize_deformation(family2d_construct(S("0"), S("2h"))))
    )
    code, out = run_cli(capsys, "equiv", f1, f2)
    assert code == 1
    assert "verdict: NOT-EQUIVALENT" in out
    assert "failure-order: h^1" in out
    assert "no admissible" in out


def test_equiv_solver_route_and_unknown(capsys, tmp_path):
    d = commutator_deform(euler_gelfand(3, QQ).op("circ"), 4)
    path = write(tmp_path, "zero_dot.json", dumps(serialize_deformation(d)))
    code, out = run_cli(capsys, "equiv", path, path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["verdict"], doc["method"]) == ("equivalent", "solver")
    layers = [
        LinearMap(QQ, tuple(tuple(QQ.parse(x) for x in row) for row in m))
        for m in doc["witness"]
    ]
    assert verify_witness(d, d, EquivalenceWitness(d.order, tuple(layers))).passed
    # one more e3 in e1 *_h e1 at h^3: a quadratic obstruction at h^3
    n = d.dim
    entries = {
        (i, j, l): d.mu[3].c[i][j][l] for i in range(n) for j in range(n) for l in range(n)
    }
    entries[(0, 0, 2)] += 1
    mu = d.mu[:3] + (BilinearOp.from_entries(n, QQ, entries),)
    e = TruncatedDeformation(d.base, d.order, mu)
    other = write(tmp_path, "perturbed.json", dumps(serialize_deformation(e)))
    code, out = run_cli(capsys, "equiv", path, other)
    assert code == 2
    assert "verdict: UNKNOWN" in out
    assert "method: solver" in out
    assert "quadratic in free parameters" in out


def order1_doc(dot_entries):
    return json.dumps(
        {"dim": 2, "field": "Q", "ops": {"dot": dot_entries}, "order": 1, "mu": [dot_entries]}
    )


@pytest.mark.parametrize("method", ["auto", "solver"])
def test_equiv_order_one_documents(capsys, tmp_path, method):
    a = write(tmp_path, "a.json", order1_doc([[1, 1, 2, "1"]]))
    b = write(tmp_path, "b.json", order1_doc([[1, 1, 1, "1"]]))
    code, out = run_cli(capsys, "equiv", a, a, "--method", method)
    assert code == 0
    assert out.startswith("verdict: EQUIVALENT\nmethod: solver\n")
    code, out = run_cli(capsys, "equiv", a, b, "--method", method)
    assert code == 1
    assert "verdict: NOT-EQUIVALENT" in out
    assert "failure-order: h^0" in out


def test_equiv_forced_methods(capsys, tmp_path):
    f1 = write(
        tmp_path, "f1.json", dumps(serialize_deformation(family2d_construct(S("h"), S("0"))))
    )
    f2 = write(
        tmp_path, "f2.json", dumps(serialize_deformation(family2d_construct(S("h"), S("h^2"))))
    )
    code, out = run_cli(capsys, "equiv", f1, f2, "--method", "solver")
    assert code == 0
    assert "method: solver" in out
    d3 = commutator_deform(euler_gelfand(3, QQ).op("circ"), 4)
    z = write(tmp_path, "z.json", dumps(serialize_deformation(d3)))
    code, _ = run_cli(capsys, "equiv", z, z, "--method", "family")
    assert code == 3


@pytest.mark.parametrize("method", ["family", "solver"])
def test_equiv_mixed_fields_answer_over_qi_in_either_order(capsys, tmp_path, method):
    qi = family2d_construct(parse_series("h", QI, 3), parse_series("i*h^2", QI, 3))
    q = family2d_construct(parse_series("h", QQ, 3), parse_series("h^2", QQ, 3))
    qi_path = write(tmp_path, "qi.json", dumps(serialize_deformation(qi)))
    q_path = write(tmp_path, "q.json", dumps(serialize_deformation(q)))
    # f(e1) = e1 + c h e2, c = (b_1 - b_2)/2 at h^2, since h (a_h + h) = 2 h^2
    for paths, c in (((qi_path, q_path), "-1/2+1/2i"), ((q_path, qi_path), "1/2-1/2i")):
        code, out = run_cli(capsys, "equiv", *paths, "--method", method)
        assert code == 0
        assert out.startswith(f"verdict: EQUIVALENT\nmethod: {method}\n")
        assert f"witness f[1]:\n  [0, 0]\n  [{c}, 0]\n" in out


PARAMETRIC_FAMILY = json.dumps(
    {
        "dim": 2,
        "field": "Q",
        "params": ["a"],
        "order": 2,
        "ops": {"dot": []},
        "mu": [[], [[1, 1, 1, "a"], [1, 2, 2, "a+1"], [2, 1, 2, "a"]]],
    }
)


@pytest.mark.parametrize("method", ["auto", "family", "solver"])
def test_equiv_refuses_parameters_on_one_line(capsys, tmp_path, method):
    path = write(tmp_path, "p.json", PARAMETRIC_FAMILY)
    code = main(["equiv", path, path, "--method", method])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "tpalg: error: equivalence is decided over Q or Q(i), "
        "but the deformations carry parameters a\n"
    )


def test_equiv_json_agrees_with_text(capsys, tmp_path):
    f1 = write(
        tmp_path, "f1.json", dumps(serialize_deformation(family2d_construct(S("h"), S("0"))))
    )
    f2 = write(
        tmp_path, "f2.json", dumps(serialize_deformation(family2d_construct(S("h"), S("h^2"))))
    )
    code, out = run_cli(capsys, "equiv", f1, f2, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "equivalent"
    assert doc["method"] == "family"
    assert doc["witness"][1][1] == ["-1/2", "0"]


def test_family2d_emit_and_parse(capsys):
    code, out = run_cli(
        capsys, "family2d", "--params", "a=h,b=1-h", "--order", "3"
    )
    assert code == 0
    d = parse_deformation_file(out)
    expected = family2d_construct(S("h", 3), S("1-h", 3))
    assert d.series_op().entries_equal(expected.series_op())


def test_family2d_bad_params(capsys):
    code, _ = run_cli(capsys, "family2d", "--params", "a=h", "--order", "3")
    assert code == 3
    code, _ = run_cli(
        capsys, "family2d", "--params", "a=h,c=1", "--order", "3"
    )
    assert code == 3
    code, _ = run_cli(
        capsys, "family2d", "--params", "nonsense", "--order", "3"
    )
    assert code == 3


def test_normalize_params_route(capsys):
    code, out = run_cli(
        capsys,
        "normalize",
        "--params",
        "a=-h,b=3h^2+5h^3",
        "--order",
        "6",
    )
    assert code == 0
    assert "kind: case1" in out
    assert "m: 2" in out
    assert "leading: 3" in out
    assert "canonical a_h: -h@order=6" in out
    assert "canonical b_h: 3h^2@order=6" in out
    assert "witness f[0]:" in out


def test_normalize_file_route(capsys, tmp_path):
    d = family2d_construct(S("1+h", 4), S("2h", 4))
    path = write(tmp_path, "unital.json", dumps(serialize_deformation(d)))
    code, out = run_cli(capsys, "normalize", path)
    assert code == 0
    assert "recovered a_h: 1+h@order=4" in out
    assert "recovered b_h: 2h@order=4" in out
    assert "kind: lambda" in out
    assert "canonical b_h: 0@order=4" in out


def test_normalize_needs_exactly_one_input(capsys, tmp_path, family_file):
    code, _ = run_cli(capsys, "normalize")
    assert code == 3
    code, _ = run_cli(
        capsys, "normalize", family_file, "--params", "a=h,b=0", "--order", "3"
    )
    assert code == 3


def test_normalize_rejects_double_nonzero_limit(capsys):
    code, _ = run_cli(
        capsys, "normalize", "--params", "a=1,b=1", "--order", "3"
    )
    assert code == 1  # NotAQuantization is a domain failure


def test_solve_compatible_feasible(capsys, tmp_path):
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    pres = AlgebraPresentation(2, QQ, default_labels(2), {"bracket": bracket})
    path = write(tmp_path, "br.json", dumps(serialize_algebra(pres)))
    code, out = run_cli(capsys, "solve-compatible", path)
    assert code == 0
    assert "feasible: yes" in out
    assert "parameters: p1, p2" in out
    assert "circ(e1, e1) = p2*e1 + p1*e2" in out
    assert "circ(e1, e2) = (p2+1)*e2" in out
    assert "right-commutativity: PASS" in out


def test_solve_compatible_infeasible_sl2(capsys, tmp_path):
    sl2 = BilinearOp.from_entries(
        3,
        QQ,
        {
            (0, 1, 2): F(1),
            (1, 0, 2): F(-1),
            (2, 0, 0): F(2),
            (0, 2, 0): F(-2),
            (2, 1, 1): F(-2),
            (1, 2, 1): F(2),
        },
    )
    pres = AlgebraPresentation(3, QQ, default_labels(3), {"bracket": sl2})
    path = write(tmp_path, "sl2.json", dumps(serialize_algebra(pres)))
    code, out = run_cli(capsys, "solve-compatible", path)
    assert code == 1
    assert "feasible: no" in out


@pytest.mark.parametrize("entry", ["1", "a"], ids=["constant", "parametric"])
def test_solve_compatible_refuses_parameters_on_one_line(capsys, tmp_path, entry):
    doc = {
        "dim": 2,
        "field": "Q",
        "params": ["a"],
        "ops": {"bracket": [[1, 2, 2, entry], [2, 1, 2, f"-{entry}"]]},
    }
    path = write(tmp_path, "br.json", json.dumps(doc))
    code = main(["solve-compatible", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "tpalg: error: compatible products are solved over Q or Q(i), "
        "but the bracket carries parameters a\n"
    )


def test_catalog_text(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    assert "A00:" in out
    assert "dot: (zero)" in out
    assert "A01:" in out
    assert "dot(e1, e1) = e2" in out
    assert "Alam (lam = lam):" in out
    assert out.count("TPA: PASS") == 3


def test_catalog_numeric_lambda(capsys):
    code, out = run_cli(capsys, "catalog", "--lam", "3")
    assert code == 0
    assert "Alam (lam = 3):" in out
    code, _ = run_cli(capsys, "catalog", "--lam", "0")
    assert code == 3


def test_operad_dims_exact_line(capsys):
    code, out = run_cli(capsys, "operad-dims", "5")
    assert code == 0
    assert out == "Nov(5)=70 TPois(5)=74\n"
    code, out = run_cli(capsys, "operad-dims", "5", "--format", "json")
    assert json.loads(out) == {"n": 5, "nov": 70, "tpois": 74}
    code, _ = run_cli(capsys, "operad-dims", "6")
    assert code == 3


def test_gelfand_pipeline(capsys, monkeypatch):
    code, out = run_cli(capsys, "gelfand", "--dim", "3")
    assert code == 0
    pres = parse_algebra_file(out)
    assert sorted(pres.ops) == ["bracket", "circ", "dot"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2 = run_cli(capsys, "check", "-", "--identity", "nov_rightcomm")
    assert code == 0
    assert "result: PASS" in out2


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_gelfand_refuses_dimension_below_one(capsys, dim):
    code = main(["gelfand", "--dim", dim])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"tpalg: error: --dim: must be at least 1, got {dim}\n"


@pytest.mark.parametrize("command", ["family2d", "normalize"])
@pytest.mark.parametrize("params", ["a=1,b=0", "a=h,b=0"])
def test_family_commands_refuse_order_one(capsys, command, params):
    code = main([command, "--params", params, "--order", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "tpalg: error: family needs order at least 2\n"


def test_cli_usage_errors(capsys):
    assert run_cli(capsys)[0] == 3
    assert run_cli(capsys, "frobnicate")[0] == 3
    assert run_cli(capsys, "check")[0] == 3  # missing file and identity


@pytest.mark.parametrize(
    "argv",
    [
        ["family2d", "--params", "a=h^99999999,b=0", "--order", "2"],
        ["normalize", "--params", "a=" + "(" * 3000 + "h" + ")" * 3000 + ",b=0", "--order", "3"],
    ],
    ids=["huge-exponent", "deep-parentheses"],
)
def test_cli_refuses_oversized_scalars(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("tpalg: error: ") and err.count("\n") == 1
    assert len(err) < 200


def test_reports_are_deterministic(capsys, a01_file):
    _, first = run_cli(capsys, "check", a01_file, "--identity", "comm_assoc", "--format", "json")
    _, second = run_cli(capsys, "check", a01_file, "--identity", "comm_assoc", "--format", "json")
    assert first == second
    _, third = run_cli(capsys, "catalog", "--format", "json")
    _, fourth = run_cli(capsys, "catalog", "--format", "json")
    assert third == fourth


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_cli_closed_pipe_exits_with_one_line(unbuffered):
    # stdout is a pipe whose read end is already closed, so the first write
    # or the final flush fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tpalg.cli", "normalize", "--params", "a=h,b=h^2",
             "--order", "3", "--field", "Qi"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "tpalg: error: output pipe closed by the reader\n"
