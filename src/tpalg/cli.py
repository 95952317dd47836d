"""Command-line front end.

Subcommands map one-to-one onto library operations:

    check              check_identity on an algebra (or deformation) file
    limit              classical_limit of a deformation file
    deform-np          deform_from_np -> deformation document on stdout
    deform-commutator  commutator_deform -> deformation document on stdout
    equiv              solve_equivalence / family2d_equiv on two files
    family2d           family2d_construct -> deformation document on stdout
    normalize          normalize_family (from --params or a deformation file)
    solve-compatible   solve_novikov_compatible on a bracket
    catalog            the three 2-dim transposed Poisson algebras
    operad-dims        arity dimensions of the two operads
    gelfand            Euler-derivation algebra on Q[t]/(t^n)

Exit codes: 0 pass/Equivalent, 1 fail/NotEquivalent, 2 Unknown,
3 usage or parse errors.  Reports are deterministic; --format json emits
machine-readable documents (sorted keys).

Each subcommand imports only what it runs: ``import tpalg`` loads the
package's submodules on first use, and the handlers that need
:mod:`tpalg.dim2` or :mod:`tpalg.equiv` import them themselves, so a cold
``tpalg family2d`` or ``tpalg check`` never compiles those two modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import check_identity, commutator, euler_gelfand, identity_names, presentation_of
from .deform import (
    classical_limit,
    commutator_deform,
    deform_from_np,
    family2d_construct,
    family2d_parameters,
)
from .errors import (
    BadScalar,
    DimMismatch,
    MissingOp,
    MissingSymbol,
    NotInvertible,
    OrderMismatch,
    OutOfRange,
    ParseError,
    TpalgError,
    UnknownIdentity,
)
from .fileio import (
    _load_document,
    detect_kind,
    dumps,
    op_table,
    parse_algebra_file,
    parse_deformation_file,
    serialize_algebra,
    serialize_deformation,
)
from .scalars import _quoted, _split_order_suffix, field_by_tag, format_scalar, parse_series

# dim2 and equiv stay imported in their handlers: hoisted here, every cold start compiles them

_EQUIV_EXIT = {"equivalent": 0, "not_equivalent": 1, "unknown": 2}

_USAGE_ERRORS = (
    ParseError,
    BadScalar,
    UnknownIdentity,
    MissingOp,
    MissingSymbol,
    OutOfRange,
    OrderMismatch,
    DimMismatch,
    NotInvertible,
    ValueError,
)


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _op_lines(rows, labels, name):
    """``name(x, y) = ...`` lines laid out from an op's ``op_table`` rows,
    which come in (i, j, k) order."""
    sums = {}
    for i, j, k, text in rows:
        if any(ch in text[1:] for ch in "+-") or "@" in text:
            text = f"({text})"
        label = labels[k - 1]
        term = {"1": label, "-1": f"-{label}"}.get(text, f"{text}*{label}")
        sums.setdefault((i, j), []).append(term)
    lines = [
        f"{name}({labels[i - 1]}, {labels[j - 1]}) = {terms[0]}"
        + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in terms[1:])
        for (i, j), terms in sums.items()
    ]
    return lines or [f"{name}: (zero)"]


def _located(indices, residual, ring, labels):
    """A residual and the basis labels it was found at."""
    return {"at": [labels[i - 1] for i in indices], "residual": [ring.format(r) for r in residual]}


def _report_dict(report, ring, labels):
    ce = report.counterexample
    if ce is not None:
        ce = {"clause": ce.clause, **_located(ce.indices, ce.residual, ring, labels)}
    return {"identity": report.identity_name, "passed": report.passed, "counterexample": ce}


def _pass(doc):
    return "PASS" if doc["passed"] else "FAIL"


def _report_lines(doc):
    lines = [f"identity: {doc['identity']}", f"result: {_pass(doc)}"]
    ce = doc["counterexample"]
    if ce is not None:
        lines += [
            f"clause: {ce['clause']}",
            f"at: ({', '.join(ce['at'])})",
            f"residual: ({', '.join(ce['residual'])})",
        ]
    return lines


def _witness_doc(witness):
    ring = witness.f[0].ring
    return [
        [[ring.format(v) for v in row] for row in layer.m] for layer in witness.f
    ]


def _witness_lines(layers):
    lines = []
    for k, layer in enumerate(layers):
        lines.append(f"witness f[{k}]:")
        lines += ["  [" + ", ".join(row) + "]" for row in layer]
    return lines


def _emit(args, text_lines, json_doc):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(json_doc, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _read_file(path):
    """The bytes of a file, or of stdin for "-" (the text of a StringIO), for fileio to decode."""
    try:
        if path == "-":
            return getattr(sys.stdin, "buffer", sys.stdin).read()
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}", path)


def _load_algebra(path):
    return parse_algebra_file(_read_file(path), path)


def _load_deformation(path):
    return parse_deformation_file(_read_file(path), path)


def _params_flag(text):
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise argparse.ArgumentTypeError(
                f"expected name=value, got {piece!r}"
            )
        name, _, value = piece.partition("=")
        name = name.strip()
        if not name:
            raise argparse.ArgumentTypeError(f"bad parameter name in {piece!r}")
        if name in out:
            raise argparse.ArgumentTypeError(f"parameter {name!r} is given twice")
        out[name] = value.strip()
    return out


def _family_params(args):
    params = args.params or {}
    missing = {"a", "b"} - set(params)
    extra = set(params) - {"a", "b"}
    if missing or extra:
        raise ParseError(
            "expected --params a=<series>,b=<series>"
            + (f" (missing {sorted(missing)})" if missing else "")
            + (f" (unexpected {sorted(extra)})" if extra else ""),
            "--params",
        )
    field = field_by_tag(args.field)
    a_h, b_h = (_params_series(params[name], field, args.order) for name in "ab")
    return a_h, b_h, field


def _params_series(text, field, order):
    """A --params series: its order is --order, else its '@order=N' suffix."""
    if order is None and _split_order_suffix(text)[1] is None:
        raise BadScalar(f"series literal needs an '@order=N' suffix or --order: {_quoted(text)}")
    return parse_series(text, base=field, order=order)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args):
    data = _load_document(_read_file(args.file), args.file)
    if detect_kind(data, args.file) == "deformation":
        d = parse_deformation_file(data, args.file)
        series = d.series_op()
        pres = presentation_of(circ=series, dot=series, bracket=commutator(series))
    else:
        pres = parse_algebra_file(data, args.file)
    report = check_identity(pres, args.identity)
    doc = _report_dict(report, pres.ring, pres.basis_labels)
    _emit(args, _report_lines(doc), doc)
    return 0 if report.passed else 1


def _cmd_limit(args):
    d = _load_deformation(args.file)
    lim = classical_limit(d)
    alg = lim.algebra
    labels = alg.basis_labels
    doc = {
        "dot": op_table(alg.op("dot")),
        "bracket": op_table(alg.op("bracket")),
        "tpa": _report_dict(lim.tpa_report, alg.ring, labels),
        "lie": _report_dict(lim.lie_report, alg.ring, labels),
    }
    lines = []
    for name in ("dot", "bracket"):
        lines.append(f"limit {name}:")
        lines += ["  " + s for s in _op_lines(doc[name], labels, name)]
    lines += [f"TPA: {_pass(doc['tpa'])}", f"LIE: {_pass(doc['lie'])}"]
    _emit(args, lines, doc)
    return 0 if lim.passed else 1


def _cmd_deform_np(args):
    np_pres = _load_algebra(args.file)
    d = deform_from_np(np_pres, args.order)
    sys.stdout.write(dumps(serialize_deformation(d)))
    return 0


def _cmd_deform_commutator(args):
    pres = _load_algebra(args.file)
    d = commutator_deform(pres.op("circ"), args.order)
    sys.stdout.write(dumps(serialize_deformation(d)))
    return 0


def _cmd_equiv(args):
    from .equiv import _refuse_parameters, family2d_equiv, solve_equivalence

    d1 = _load_deformation(args.file1)
    d2 = _load_deformation(args.file2)
    _refuse_parameters(d1, d2)
    method = args.method
    if method != "solver":  # only auto and family read the family shape
        fam1, fam2 = family2d_parameters(d1), family2d_parameters(d2)
    if method == "auto":
        method = "family" if (fam1 and fam2) else "solver"
    if method == "family":
        if not (fam1 and fam2):
            raise ParseError(
                "--method family needs two deformations in the two-parameter "
                "family shape",
                "--method",
            )
        # the field is inferred: Q(i) when either file's coefficients are Gaussian
        verdict = family2d_equiv(fam1[0], fam1[1], fam2[0], fam2[1])
    else:
        verdict = solve_equivalence(d1, d2)

    doc = {"method": method, "verdict": verdict.tag}
    lines = [f"verdict: {doc['verdict'].upper().replace('_', '-')}", f"method: {doc['method']}"]
    if verdict.is_equivalent:
        doc["witness"] = _witness_doc(verdict.witness)
        lines += _witness_lines(doc["witness"])
    else:
        if verdict.is_not_equivalent:
            doc["failure_order"] = verdict.failure_order
            lines.append(f"failure-order: h^{doc['failure_order']}")
        doc["reason"] = verdict.reason
        lines.append(f"reason: {doc['reason']}")
    _emit(args, lines, doc)
    return _EQUIV_EXIT[verdict.tag]


def _cmd_family2d(args):
    a_h, b_h, field = _family_params(args)
    d = family2d_construct(a_h, b_h, field)
    sys.stdout.write(dumps(serialize_deformation(d)))
    return 0


# (document key, text label) of a normal form's lines, in text order
_NORMAL_FORM_LINES = (
    ("recovered_a", "recovered a_h"),
    ("recovered_b", "recovered b_h"),
    ("kind", "kind"),
    ("m", "m"),
    ("leading", "leading"),
    ("canonical_a", "canonical a_h"),
    ("canonical_b", "canonical b_h"),
)


def _normal_form_output(args, nf, recovered=None):
    """Report a normal form; ``recovered`` is the (a_h, b_h) read off a
    deformation file, if the input was one."""
    doc = {
        "kind": nf.kind,
        "m": nf.m,
        "leading": None if nf.leading is None else format_scalar(nf.leading),
        "canonical_a": format_scalar(nf.canonical_a),
        "canonical_b": format_scalar(nf.canonical_b),
        "witness": _witness_doc(nf.witness),
    }
    if recovered is not None:
        doc["recovered_a"], doc["recovered_b"] = map(format_scalar, recovered)
    lines = [
        f"{label}: {doc[key]}" for key, label in _NORMAL_FORM_LINES if doc.get(key) is not None
    ]
    _emit(args, lines + _witness_lines(doc["witness"]), doc)
    return 0


def _cmd_normalize(args):
    from .dim2 import normalize_basis, normalize_family

    if args.file is not None and args.params:
        raise ParseError("give either a deformation file or --params, not both", "normalize")
    if args.file is not None:
        d = _load_deformation(args.file)
        nb = normalize_basis(d)
        nf = normalize_family(nb.a_h, nb.b_h, d.ring)
        return _normal_form_output(args, nf, (nb.a_h, nb.b_h))
    if not args.params:
        raise ParseError("need a deformation file or --params a=...,b=...", "normalize")
    a_h, b_h, field = _family_params(args)
    nf = normalize_family(a_h, b_h, field)
    return _normal_form_output(args, nf)


def _cmd_solve_compatible(args):
    from .dim2 import solve_novikov_compatible

    pres = _load_algebra(args.file)
    fam = solve_novikov_compatible(pres.op("bracket"))
    if not fam.feasible:
        lines = [
            "feasible: no",
            "(no product has the given commutator and bracket-compatibility)",
        ]
        _emit(args, lines, {"feasible": False})
        return 1
    labels = pres.basis_labels
    ring = fam.op.ring
    doc = {
        "feasible": True,
        "parameters": list(fam.param_names),
        "circ": op_table(fam.op),
        "right_commutativity": _report_dict(fam.rightcomm_report, ring, labels),
        "obstructions": [_located(*ob, ring, labels) for ob in fam.obstructions],
    }
    lines = ["feasible: yes", "parameters: " + (", ".join(doc["parameters"]) or "(none)")]
    lines += _op_lines(doc["circ"], labels, "circ")
    lines.append(f"right-commutativity: {_pass(doc['right_commutativity'])}")
    lines += [
        f"obstruction at ({', '.join(ob['at'])}): ({', '.join(ob['residual'])})"
        for ob in doc["obstructions"]
    ]
    _emit(args, lines, doc)
    return 0


def _cmd_catalog(args):
    from .dim2 import catalog

    lam = None
    field = field_by_tag(args.field)
    if args.lam is not None:
        lam = field.parse(args.lam)
    entries = catalog(lam=lam, field=field)
    lines = []
    docs = []
    for entry in entries:
        alg = entry.algebra
        labels = alg.basis_labels
        doc = {
            "name": entry.name,
            "lam": None if entry.lam is None else alg.ring.format(entry.lam),
            "algebra": serialize_algebra(alg),
            "tpa": _report_dict(check_identity(alg, "TPA"), alg.ring, labels),
        }
        docs.append(doc)
        lam_note = "" if doc["lam"] is None else f" (lam = {doc['lam']})"
        lines.append(f"{entry.name}{lam_note}:")
        for name in ("dot", "bracket"):
            lines += ["  " + s for s in _op_lines(doc["algebra"]["ops"][name], labels, name)]
        lines.append(f"  TPA: {_pass(doc['tpa'])}")
    _emit(args, lines, {"entries": docs})
    return 0


def _cmd_operad_dims(args):
    from .dim2 import operad_dims

    nov, tpois = operad_dims(args.n)
    _emit(
        args,
        [f"Nov({args.n})={nov} TPois({args.n})={tpois}"],
        {"n": args.n, "nov": nov, "tpois": tpois},
    )
    return 0


def _cmd_gelfand(args):
    if args.dim < 1:
        raise ParseError(f"must be at least 1, got {args.dim}", "--dim")
    field = field_by_tag(args.field)
    pres = euler_gelfand(args.dim, field)
    sys.stdout.write(dumps(serialize_algebra(pres)))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="tpalg",
        description="Exact checks, constructions and classification for "
        "Novikov deformations and transposed Poisson algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format (default: text)",
        )

    p = sub.add_parser("check", help="check an identity on an algebra file")
    p.add_argument("file", help="algebra or deformation document ('-' = stdin)")
    p.add_argument(
        "--identity",
        required=True,
        help="one of: " + ", ".join(n.lower() for n in identity_names()),
    )
    add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("limit", help="classical limit of a deformation file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser(
        "deform-np",
        help="deformation dot + h*circ from a Novikov-Poisson document",
    )
    p.add_argument("file", help="algebra document with 'dot' and 'circ' ops")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_deform_np)

    p = sub.add_parser(
        "deform-commutator",
        help="deformation h*circ of the zero product from a Novikov document",
    )
    p.add_argument("file", help="algebra document with a 'circ' op")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_deform_commutator)

    p = sub.add_parser("equiv", help="decide equivalence of two deformations")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument(
        "--method",
        choices=("auto", "solver", "family"),
        default="auto",
        help="family = closed-form 2-dim criterion, solver = order-by-order "
        "witness search (default: family when both inputs have the family "
        "shape, else solver)",
    )
    add_format(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser(
        "family2d", help="emit the two-parameter dim-2 family deformation"
    )
    p.add_argument(
        "--params",
        type=_params_flag,
        required=True,
        metavar="a=SERIES,b=SERIES",
    )
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--field", choices=("Q", "Qi"), default="Q")
    p.set_defaults(func=_cmd_family2d)

    p = sub.add_parser(
        "normalize",
        help="canonical representative of a family deformation's class",
    )
    p.add_argument("file", nargs="?", help="2-dim Novikov deformation document")
    p.add_argument("--params", type=_params_flag, metavar="a=SERIES,b=SERIES")
    p.add_argument("--order", type=int)
    p.add_argument("--field", choices=("Q", "Qi"), default="Q")
    add_format(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser(
        "solve-compatible",
        help="all products compatible with a bracket (affine family)",
    )
    p.add_argument("file", help="algebra document with a 'bracket' op")
    add_format(p)
    p.set_defaults(func=_cmd_solve_compatible)

    p = sub.add_parser("catalog", help="the three 2-dim transposed Poisson algebras")
    p.add_argument("--lam", help="instantiate the third entry's parameter")
    p.add_argument("--field", choices=("Q", "Qi"), default="Q")
    add_format(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("operad-dims", help="operad component dimensions at arity n")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_operad_dims)

    p = sub.add_parser(
        "gelfand", help="Euler-derivation Novikov algebra on Q[t]/(t^n)"
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", choices=("Q", "Qi"), default="Q")
    p.set_defaults(func=_cmd_gelfand)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("tpalg: error: output pipe closed by the reader", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"tpalg: error: {exc}", file=sys.stderr)
        return 3
    except TpalgError as exc:
        print(f"tpalg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
