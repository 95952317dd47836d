"""JSON interchange for algebras and truncated deformations.

An algebra document looks like

    {
      "dim": 2,
      "field": "Q",
      "ops": {
        "dot": [[1, 1, 2, "1"]],
        "bracket": [[1, 2, 2, "1"], [2, 1, 2, "-1"]]
      }
    }

with optional ``"params": ["a", "b"]`` switching scalars to the polynomial
ring over those names.  Indices are 1-based; omitted entries are zero.  A
deformation document carries the same base fields plus ``"order"`` and a
``"mu"`` list of sparse tables, one per power of h (``mu[0]`` must repeat
the base ``dot``).  Everything is UTF-8 JSON, serialized pretty-printed
with sorted keys so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json

from .algebra import AlgebraPresentation, BilinearOp, default_labels
from .deform import TruncatedDeformation
from .errors import BadScalar, IndexOutOfRange, ParseError
from .scalars import PolynomialRing, field_by_tag


def _load_document(data, path):
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8 at byte {exc.start}: {exc.reason}", path)
    if isinstance(data, str):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON (line {exc.lineno}): {exc.msg}", path)
        except RecursionError:
            raise ParseError("JSON nests too deeply", path) from None
    else:
        doc = data
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object", path)
    return doc


def _document_ring(doc, path):
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"'dim' must be a positive integer, got {dim!r}", path)
    tag = doc.get("field", "Q")
    try:
        field = field_by_tag(tag)
    except BadScalar as exc:
        raise ParseError(str(exc), path)
    params = doc.get("params")
    if params is None:
        return dim, field, field
    if not isinstance(params, list) or not all(
        isinstance(p, str) and p for p in params
    ):
        raise ParseError("'params' must be a list of nonempty names", path)
    try:
        ring = PolynomialRing(field, tuple(params))
    except BadScalar as exc:
        raise ParseError(str(exc), path)
    return dim, field, ring


def _parse_table(table, where, dim, ring, path):
    if not isinstance(table, list):
        raise ParseError(f"{where} must be a list of [i, j, k, scalar] rows", path)
    entries = {}
    for pos, row in enumerate(table):
        label = f"{where} entry {pos + 1}"
        if not isinstance(row, list) or len(row) != 4:
            raise ParseError(f"{label} must be [i, j, k, scalar]", path)
        i, j, k, scalar = row
        for index in (i, j, k):
            if not isinstance(index, int) or isinstance(index, bool):
                raise ParseError(f"{label}: indices must be integers", path)
            if not 1 <= index <= dim:
                raise IndexOutOfRange(
                    f"{label}: index {index} outside 1..{dim}", path
                )
        if not isinstance(scalar, str):
            raise ParseError(f"{label}: scalar must be a string", path)
        key = (i - 1, j - 1, k - 1)
        if key in entries:
            raise ParseError(f"{label}: duplicate position ({i},{j},{k})", path)
        entries[key] = ring.parse(scalar)
    return BilinearOp.from_entries(dim, ring, entries)


def parse_algebra_file(data, path="<data>") -> AlgebraPresentation:
    doc = _load_document(data, path)
    for key in ("order", "mu"):
        if key in doc:
            raise ParseError(
                f"{key!r} belongs to deformation documents; "
                "use parse_deformation_file",
                path,
            )
    dim, _field, ring = _document_ring(doc, path)
    ops_doc = doc.get("ops", {})
    if not isinstance(ops_doc, dict):
        raise ParseError("'ops' must map labels to entry lists", path)
    ops = {}
    for label in sorted(ops_doc):
        if not isinstance(label, str) or not label:
            raise ParseError(f"op label {label!r} must be a nonempty string", path)
        ops[label] = _parse_table(ops_doc[label], f"ops.{label}", dim, ring, path)
    return AlgebraPresentation(dim, ring, default_labels(dim), ops)


def parse_deformation_file(data, path="<data>") -> TruncatedDeformation:
    doc = _load_document(data, path)
    order = doc.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ParseError(f"'order' must be a positive integer, got {order!r}", path)
    mu_doc = doc.get("mu")
    if not isinstance(mu_doc, list):
        raise ParseError("'mu' must be a list of sparse op tables", path)
    if len(mu_doc) != order:
        raise ParseError(
            f"'mu' has {len(mu_doc)} layers but order is {order}", path
        )
    base_doc = {k: v for k, v in doc.items() if k not in ("order", "mu")}
    base = parse_algebra_file(base_doc, path)
    if "dot" not in base.ops:
        raise ParseError("deformation base needs a 'dot' op", path)
    mu = tuple(
        _parse_table(mu_doc[k], f"mu[{k}]", base.dim, base.ring, path)
        for k in range(order)
    )
    if not mu[0].entries_equal(base.op("dot")):
        raise ParseError("mu[0] does not match the base 'dot'", path)
    return TruncatedDeformation(base, order, mu)


def detect_kind(data, path="<data>"):
    """'deformation' if the document carries order/mu, else 'algebra'."""
    doc = _load_document(data, path)
    return "deformation" if ("order" in doc or "mu" in doc) else "algebra"


def op_table(op: BilinearOp):
    """The sparse [i, j, k, scalar] rows (1-based) of an op's nonzero entries."""
    rows = []
    ring = op.ring
    for i in range(op.dim):
        for j in range(op.dim):
            for k in range(op.dim):
                value = op.c[i][j][k]
                if value != 0:
                    rows.append([i + 1, j + 1, k + 1, ring.format(value)])
    return rows


def serialize_algebra(pres: AlgebraPresentation) -> dict:
    doc = {"dim": pres.dim, "field": pres.field_tag, "ops": {}}
    ring = pres.ring
    if isinstance(ring, PolynomialRing):
        doc["params"] = list(ring.variables)
    for label in sorted(pres.ops):
        doc["ops"][label] = op_table(pres.op(label))
    return doc


def serialize_deformation(d: TruncatedDeformation) -> dict:
    doc = serialize_algebra(d.base)
    doc["order"] = d.order
    doc["mu"] = [op_table(layer) for layer in d.mu]
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
