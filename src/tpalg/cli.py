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

from .algebra import AlgebraPresentation, check_identity, commutator, euler_gelfand, identity_names
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
    detect_kind,
    dumps,
    op_table,
    parse_algebra_file,
    parse_deformation_file,
    serialize_algebra,
    serialize_deformation,
)
from .scalars import field_by_tag, format_scalar, parse_series

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
)


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _fmt_coeff(ring, value):
    text = ring.format(value)
    if any(ch in text[1:] for ch in "+-") or "@" in text:
        return f"({text})"
    return text


def _fmt_vector(ring, vec, labels):
    terms = []
    for coeff, label in zip(vec, labels):
        if coeff == 0:
            continue
        text = _fmt_coeff(ring, coeff)
        if text == "1":
            terms.append(label)
        elif text == "-1":
            terms.append(f"-{label}")
        else:
            terms.append(f"{text}*{label}")
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _op_lines(op, labels, name):
    ring = op.ring
    lines = []
    for i in range(op.dim):
        for j in range(op.dim):
            col = op.col(i, j)
            if any(c != 0 for c in col):
                lines.append(
                    f"{name}({labels[i]}, {labels[j]}) = "
                    f"{_fmt_vector(ring, col, labels)}"
                )
    if not lines:
        lines.append(f"{name}: (zero)")
    return lines


def _report_dict(report, ring, labels):
    doc = {"identity": report.identity_name, "passed": report.passed}
    ce = report.counterexample
    if ce is None:
        doc["counterexample"] = None
    else:
        doc["counterexample"] = {
            "clause": ce.clause,
            "at": [labels[i - 1] for i in ce.indices],
            "residual": [ring.format(r) for r in ce.residual],
        }
    return doc


def _report_lines(report, ring, labels):
    lines = [
        f"identity: {report.identity_name}",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ]
    ce = report.counterexample
    if ce is not None:
        at = ", ".join(labels[i - 1] for i in ce.indices)
        residual = ", ".join(ring.format(r) for r in ce.residual)
        lines += [f"clause: {ce.clause}", f"at: ({at})", f"residual: ({residual})"]
    return lines


def _witness_lines(witness):
    ring = witness.f[0].ring
    lines = []
    for k, layer in enumerate(witness.f):
        lines.append(f"witness f[{k}]:")
        for row in layer.m:
            lines.append("  [" + ", ".join(ring.format(v) for v in row) + "]")
    return lines


def _witness_doc(witness):
    ring = witness.f[0].ring
    return [
        [[ring.format(v) for v in row] for row in layer.m] for layer in witness.f
    ]


def _emit(args, text_lines, json_doc):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(json_doc, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _read_file(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
        if not name or name in out:
            raise argparse.ArgumentTypeError(f"bad parameter name in {piece!r}")
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
    a_h = parse_series(params["a"], base=field, order=args.order)
    b_h = parse_series(params["b"], base=field, order=args.order)
    return a_h, b_h, field


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args):
    data = _read_file(args.file)
    if detect_kind(data, args.file) == "deformation":
        d = parse_deformation_file(data, args.file)
        series = d.series_op()
        ops = {"circ": series, "dot": series, "bracket": commutator(series)}
        pres = AlgebraPresentation(d.dim, series.ring, d.base.basis_labels, ops)
    else:
        pres = parse_algebra_file(data, args.file)
    report = check_identity(pres, args.identity)
    _emit(
        args,
        _report_lines(report, pres.ring, pres.basis_labels),
        _report_dict(report, pres.ring, pres.basis_labels),
    )
    return 0 if report.passed else 1


def _cmd_limit(args):
    d = _load_deformation(args.file)
    lim = classical_limit(d)
    labels = lim.algebra.basis_labels
    ring = lim.algebra.ring
    lines = ["limit dot:"]
    lines += ["  " + s for s in _op_lines(lim.algebra.op("dot"), labels, "dot")]
    lines.append("limit bracket:")
    lines += [
        "  " + s for s in _op_lines(lim.algebra.op("bracket"), labels, "bracket")
    ]
    lines.append(f"TPA: {'PASS' if lim.tpa_report.passed else 'FAIL'}")
    lines.append(f"LIE: {'PASS' if lim.lie_report.passed else 'FAIL'}")
    doc = {
        "dot": op_table(lim.algebra.op("dot")),
        "bracket": op_table(lim.algebra.op("bracket")),
        "tpa": _report_dict(lim.tpa_report, ring, labels),
        "lie": _report_dict(lim.lie_report, ring, labels),
    }
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
    from .equiv import family2d_equiv, solve_equivalence

    d1 = _load_deformation(args.file1)
    d2 = _load_deformation(args.file2)
    fam1 = family2d_parameters(d1)
    fam2 = family2d_parameters(d2)
    method = args.method
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

    lines = [f"verdict: {verdict.tag.upper().replace('_', '-')}", f"method: {method}"]
    doc = {"method": method, "verdict": verdict.tag}
    if verdict.is_equivalent:
        lines += _witness_lines(verdict.witness)
        doc["witness"] = _witness_doc(verdict.witness)
    else:
        if verdict.is_not_equivalent:
            lines.append(f"failure-order: h^{verdict.failure_order}")
            doc["failure_order"] = verdict.failure_order
        lines.append(f"reason: {verdict.reason}")
        doc["reason"] = verdict.reason
    _emit(args, lines, doc)
    return _EQUIV_EXIT[verdict.tag]


def _cmd_family2d(args):
    a_h, b_h, field = _family_params(args)
    d = family2d_construct(a_h, b_h, field)
    sys.stdout.write(dumps(serialize_deformation(d)))
    return 0


def _normal_form_output(args, nf, prefix_lines=(), prefix_doc=None):
    lines = list(prefix_lines)
    lines.append(f"kind: {nf.kind}")
    if nf.m is not None:
        lines.append(f"m: {nf.m}")
    if nf.leading is not None:
        lines.append(f"leading: {format_scalar(nf.leading)}")
    lines.append(f"canonical a_h: {format_scalar(nf.canonical_a)}")
    lines.append(f"canonical b_h: {format_scalar(nf.canonical_b)}")
    lines += _witness_lines(nf.witness)
    doc = dict(prefix_doc or {})
    doc.update(
        {
            "kind": nf.kind,
            "m": nf.m,
            "leading": None if nf.leading is None else format_scalar(nf.leading),
            "canonical_a": format_scalar(nf.canonical_a),
            "canonical_b": format_scalar(nf.canonical_b),
            "witness": _witness_doc(nf.witness),
        }
    )
    _emit(args, lines, doc)
    return 0


def _cmd_normalize(args):
    from .dim2 import normalize_basis, normalize_family

    if args.file is not None and args.params:
        raise ParseError("give either a deformation file or --params, not both", "normalize")
    if args.file is not None:
        d = _load_deformation(args.file)
        nb = normalize_basis(d)
        nf = normalize_family(nb.a_h, nb.b_h, d.ring)
        prefix = [
            f"recovered a_h: {format_scalar(nb.a_h)}",
            f"recovered b_h: {format_scalar(nb.b_h)}",
        ]
        return _normal_form_output(
            args,
            nf,
            prefix,
            {
                "recovered_a": format_scalar(nb.a_h),
                "recovered_b": format_scalar(nb.b_h),
            },
        )
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
    lines = ["feasible: yes"]
    lines.append(
        "parameters: " + (", ".join(fam.param_names) if fam.param_names else "(none)")
    )
    lines += _op_lines(fam.op, labels, "circ")
    lines.append(
        f"right-commutativity: {'PASS' if fam.rightcomm_report.passed else 'FAIL'}"
    )
    for indices, residual in fam.obstructions:
        at = ", ".join(labels[i - 1] for i in indices)
        res = ", ".join(ring.format(r) for r in residual)
        lines.append(f"obstruction at ({at}): ({res})")
    doc = {
        "feasible": True,
        "parameters": list(fam.param_names),
        "circ": op_table(fam.op),
        "right_commutativity": _report_dict(fam.rightcomm_report, ring, labels),
        "obstructions": [
            {
                "at": [labels[i - 1] for i in indices],
                "residual": [ring.format(r) for r in residual],
            }
            for indices, residual in fam.obstructions
        ],
    }
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
        report = check_identity(alg, "TPA")
        title = entry.name
        if entry.name == "Alam":
            title += f" (lam = {alg.ring.format(entry.lam)})"
        lines.append(f"{title}:")
        lines += ["  " + s for s in _op_lines(alg.op("dot"), labels, "dot")]
        lines += ["  " + s for s in _op_lines(alg.op("bracket"), labels, "bracket")]
        lines.append(f"  TPA: {'PASS' if report.passed else 'FAIL'}")
        docs.append(
            {
                "name": entry.name,
                "lam": None if entry.lam is None else alg.ring.format(entry.lam),
                "algebra": serialize_algebra(alg),
                "tpa": _report_dict(report, alg.ring, labels),
            }
        )
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
    except ValueError as exc:
        print(f"tpalg: error: {exc}", file=sys.stderr)
        return 3
    except TpalgError as exc:
        print(f"tpalg: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
