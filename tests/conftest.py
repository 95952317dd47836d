"""Shared fixtures: the algebra corpus used across the suite.

The corpus (``tpalg.corpus.np_structures``) pairs each 2-dim catalog dot
with the two-parameter circ family at a handful of rational points, plus the
Euler-derivation algebras on Q[t]/(t^n).  Tests that need "many
Novikov-Poisson structures" iterate over ``np_corpus``.
"""

from fractions import Fraction

import pytest

from tpalg.algebra import AlgebraPresentation, BilinearOp, default_labels
from tpalg.corpus import AB_POINTS, catalog_dots, circ_family, np_structures  # noqa: F401 (tests import them from here)
from tpalg.scalars import QQ, ParamPoly

F = Fraction


def np_pair(dot, circ, ring=QQ):
    return AlgebraPresentation(
        dot.dim, ring, default_labels(dot.dim), {"dot": dot, "circ": circ}
    )


@pytest.fixture(scope="session")
def np_corpus():
    """24 Novikov-Poisson structures: 4 dots x 5 (a,b) points + 4 Euler
    algebras (whose dot/circ pair is Novikov-Poisson by construction)."""
    return np_structures()


# An operation that passes right-commutativity but fails left-symmetry:
# right multiplications R_e1 = id and R_e2 = [[0,1],[0,0]] commute, while
# (e1 o e2) o e2 - (e2 o e1) o e2 != e1 o (e2 o e2) - e2 o (e1 o e2).
RIGHTCOMM_NOT_NOVIKOV = {
    (0, 0, 0): F(1),
    (1, 0, 1): F(1),
    (1, 1, 0): F(1),
}


def dense_poly(ring, terms):
    """The polynomial of ``ring`` with dense terms {exponent tuple:
    coefficient}, one exponent per parameter, each coefficient coerced into
    the base field."""
    return ParamPoly(ring, {
        tuple((i, e) for i, e in enumerate(expo) if e): ring.base.coerce(c)
        for expo, c in terms.items()
    })


def rightcomm_only_op(ring=QQ):
    return BilinearOp.from_entries(2, ring, RIGHTCOMM_NOT_NOVIKOV)


@pytest.fixture(scope="session")
def no2_corpus(np_corpus):
    """Operations known to satisfy right-commutativity, tagged with names;
    the verdict-agreement property (left-symmetry <=> bracket-compat) is
    quantified over exactly this set."""
    ops = [(name, pres.op("circ")) for name, pres in np_corpus]
    ops.append(("rightcomm-not-novikov", rightcomm_only_op()))
    ops.append(("zero", BilinearOp.zero(2, QQ)))
    return ops


def normal_form_grid(order=4):
    """20 canonical family pairs, pairwise inequivalent by the
    classification: they differ in limit, in a_h, or in the essential
    leading b-coefficient."""
    from tpalg.scalars import TruncSeries

    def ser(coeffs):
        coeffs = tuple(F(c) for c in coeffs)
        return TruncSeries(order, coeffs + (F(0),) * (order - len(coeffs)))

    zero = ser(())
    minus_h = ser((0, -1))
    grid = []
    for m in (1, 2, 3):
        for lead in (1, 2):
            b = ser((0,) * m + (lead,))
            grid.append((f"case1:m={m},lead={lead}", minus_h, b))
    for a_coeffs in ((), (0, 1), (0, 2), (0, 0, 1)):
        for lead in (1, 2):
            grid.append(
                (f"case3:a={a_coeffs},lead={lead}", ser(a_coeffs), ser((0, lead)))
            )
    for a_coeffs in ((), (0, 1), (0, 2), (0, 0, 1)):
        grid.append((f"case2:a={a_coeffs}", ser(a_coeffs), zero))
    for lam in (1, 2):
        grid.append((f"lambda:{lam}", ser((lam,)), zero))
    return grid
