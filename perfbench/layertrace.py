"""Outside-in layer trace: wrappers around tpalg's public functions.

``Tracer.install()`` replaces each target function with a wrapper in every
``tpalg`` module (and class) that holds it, since modules bind the names
they import; ``Tracer.remove()`` puts the originals back.  Each wrapped call
records a span (name, start, end, parent span, job) in memory and adds to
the layer counters.  A call's self time is its duration minus the time of
its wrapped child spans.  Counters that need the call's arguments or result
are computed outside the timed interval, and that time is excluded from
every self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

from tpalg.fileio import dumps
from tpalg.scalars import ParamPoly

# (layer metric prefix, module, attribute path)
TARGETS = (
    ("scalars.series_mul", "tpalg.scalars", "TruncSeries.__mul__"),
    ("scalars.series_invert", "tpalg.scalars", "series_invert"),
    ("scalars.poly_mul", "tpalg.scalars", "ParamPoly.__mul__"),
    ("scalars.poly_subs", "tpalg.scalars", "ParamPoly.substitute"),
    ("scalars.parse", "tpalg.scalars", "parse_in_env"),
    ("scalars.format", "tpalg.scalars", "format_scalar"),
    ("linalg.solve_affine", "tpalg.linalg", "solve_affine"),
    ("linalg.matmul", "tpalg.linalg", "matmul"),
    ("linalg.matvec", "tpalg.linalg", "matvec"),
    ("linalg.invert_series_matrix", "tpalg.linalg", "invert_series_matrix"),
    ("algebra.check_identity", "tpalg.algebra", "check_identity"),
    ("algebra.subalgebra_check", "tpalg.algebra", "subalgebra_check"),
    ("deform.deform_from_np", "tpalg.deform", "deform_from_np"),
    ("deform.check_novikov_deformation", "tpalg.deform", "check_novikov_deformation"),
    ("deform.classical_limit", "tpalg.deform", "classical_limit"),
    ("deform.family2d_construct", "tpalg.deform", "family2d_construct"),
    ("equiv.solve_equivalence", "tpalg.equiv", "solve_equivalence"),
    ("equiv.family2d_equiv", "tpalg.equiv", "family2d_equiv"),
    ("equiv.verify_witness", "tpalg.equiv", "verify_witness"),
    ("dim2.solve_novikov_compatible", "tpalg.dim2", "solve_novikov_compatible"),
    ("dim2.normalize_family", "tpalg.dim2", "normalize_family"),
    ("fileio.parse", "tpalg.fileio", "parse_algebra_file"),
    ("fileio.parse", "tpalg.fileio", "parse_deformation_file"),
    ("fileio.serialize", "tpalg.fileio", "serialize_algebra"),
    ("fileio.serialize", "tpalg.fileio", "serialize_deformation"),
    ("cli.main", "tpalg.cli", "main"),
)
LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
EQUIV_DECISIONS = ("equiv.solve_equivalence", "equiv.family2d_equiv")

# Clause arities of each catalog identity, in clause order.
ARITIES = {
    "COMM_ASSOC": (2, 3), "LIE": (2, 3), "NOV_LEFTSYM": (3,), "NOV_RIGHTCOMM": (3,),
    "NCTPA": (3,), "TPA": (3,), "NP1": (3,), "NP2": (3,), "S5": (5,),
}

# Extra counters per layer, with their units
EXTRA = {
    "linalg.solve_affine": {"rows": "count", "cols": "count", "nnz": "count", "symbolic_calls": "count"},
    "linalg.matmul": {"mults": "count"},
    "algebra.check_identity": {"s5_self_s": "s", "tuples": "count"},
    "dim2.solve_novikov_compatible": {"feasible": "count"},
    "fileio.parse": {"bytes": "bytes"},
    "fileio.serialize": {"bytes": "bytes"},
}


def identity_tuples(dim, identity, report):
    """Basis tuples a check scans: n^arity for each passed clause and the
    counterexample's lexicographic rank + 1 for the failed one."""
    arities = ARITIES[str(identity).upper().replace("-", "_")]
    if report.passed:
        return sum(dim**arity for arity in arities)
    indices = report.counterexample.indices
    total = 0
    for arity in arities:
        if arity == len(indices):  # the clauses of one identity differ in arity
            rank = 0
            for i in indices:
                rank = rank * dim + (i - 1)
            return total + rank + 1
        total += dim**arity
    raise ValueError(f"no clause of arity {len(indices)} in {identity}")


def nnz(matrix):
    return sum(1 for row in matrix for x in row if x != 0)


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.extra = {layer: dict.fromkeys(keys, 0) for layer, keys in EXTRA.items()}
        self.verdicts = {"equivalent": 0, "not_equivalent": 0, "unknown": 0}
        self.equiv_solves = 0
        self.equiv_depth = 0
        self.job = -1
        self.stack = []  # per open span: [span id, child seconds]
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.patches = []  # (holder, attribute, original function)

    # -- installing ---------------------------------------------------------

    def install(self):
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for name, m in sorted(sys.modules.items()) if name == "tpalg" or name.startswith("tpalg.")]
        for layer, modname, path in TARGETS:
            owner = sys.modules[modname]
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[path.split(".")[-1]]
            wrapper = self._wrap(layer, original)
            holders = [owner] + modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self.patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def remove(self):
        for holder, attr, original in reversed(self.patches):
            setattr(holder, attr, original)
        self.patches = []

    def leftover_wrappers(self):
        """Names in tpalg modules and classes that still hold a wrapper."""
        found = []
        for name, mod in list(sys.modules.items()):
            if name != "tpalg" and not name.startswith("tpalg."):
                continue
            holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for holder in holders:
                for attr, value in vars(holder).items():
                    if getattr(value, "_perfbench_layer", None):
                        found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
        return found

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, layer, fn):
        name_id = self.names.index(layer)
        stack = self.stack
        clock = time.perf_counter
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        is_decision = layer in EQUIV_DECISIONS
        counts_solve = layer == "linalg.solve_affine"

        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_job.append(self.job)
            frame = [span, 0.0]
            stack.append(frame)
            if is_decision:
                self.equiv_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if is_decision:
                    self.equiv_depth -= 1
                dur = t1 - t0
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[1]
                self.span_start[span] = t0
                self.span_end[span] = t1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result, args, kwargs, dur - frame[1])
                if stack:
                    stack[-1][1] += clock() - t1
            if counts_solve and self.equiv_depth:
                self.equiv_solves += 1
            return result

        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = fn.__doc__
        wrapper._perfbench_layer = layer
        return wrapper

    # -- per-layer counters computed from arguments and results -------------

    def _after_linalg_solve_affine(self, result, args, kwargs, self_s):
        matrix, rhs = args[0], args[1]
        e = self.extra["linalg.solve_affine"]
        e["rows"] += len(matrix)
        e["cols"] += len(matrix[0]) if matrix else 0
        e["nnz"] += nnz(matrix)
        e["symbolic_calls"] += any(isinstance(x, ParamPoly) for x in rhs)

    def _after_linalg_matmul(self, result, args, kwargs, self_s):
        a, b = args
        self.extra["linalg.matmul"]["mults"] += len(a) * len(b) * (len(b[0]) if b else 0)

    def _after_algebra_check_identity(self, result, args, kwargs, self_s):
        alg, identity = args
        e = self.extra["algebra.check_identity"]
        e["tuples"] += identity_tuples(alg.dim, identity, result)
        if str(identity).upper() == "S5":
            e["s5_self_s"] += self_s

    def _after_dim2_solve_novikov_compatible(self, result, args, kwargs, self_s):
        self.extra["dim2.solve_novikov_compatible"]["feasible"] += bool(result.feasible)

    def _after_equiv_solve_equivalence(self, result, args, kwargs, self_s):
        self.verdicts[result.tag] += 1

    _after_equiv_family2d_equiv = _after_equiv_solve_equivalence

    def _after_fileio_parse(self, result, args, kwargs, self_s):
        data = args[0]
        if isinstance(data, str):
            data = data.encode("utf-8")
        if isinstance(data, (bytes, bytearray)):
            self.extra["fileio.parse"]["bytes"] += len(data)

    def _after_fileio_serialize(self, result, args, kwargs, self_s):
        self.extra["fileio.serialize"]["bytes"] += len(dumps(result).encode("utf-8"))

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values by name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            for key, value in self.extra.get(layer, {}).items():
                out[f"{layer}.{key}"] = value
        decisions = sum(self.calls[name] for name in EQUIV_DECISIONS)
        out["equiv.solves_per_call"] = self.equiv_solves / decisions if decisions else 0.0
        for tag, count in self.verdicts.items():
            out[f"equiv.verdict.{tag}"] = count
        decided = self.verdicts["equivalent"] + self.verdicts["not_equivalent"]
        out["equiv.decided_ratio"] = decided / decisions if decisions else 0.0
        return out

    def write_spans(self, path, jobs):
        """Write the spans, column by column, as one JSON document."""
        doc = {
            "names": self.names,
            "jobs": [job.key for job in jobs],
            "columns": ["name", "start", "end", "parent", "job"],
            "name": list(self.span_name),
            "start": [round(x, 7) for x in self.span_start],
            "end": [round(x, 7) for x in self.span_end],
            "parent": list(self.span_parent),
            "job": list(self.span_job),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
