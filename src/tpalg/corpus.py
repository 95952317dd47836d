"""The standing corpus shared by the tests and the scripts: the 2-dim
catalog dots and the two-parameter circ family at sample points."""

from fractions import Fraction

from .algebra import BilinearOp
from .scalars import QQ

F = Fraction

# (a, b) sample points for the two-parameter circ family
AB_POINTS = [(F(0), F(0)), (F(1), F(2)), (F(-1), F(1, 2)), (F(2), F(-3)), (F(1, 3), F(0))]


def circ_family(a, b, ring=QQ):
    """e1 o e1 = a e1 + b e2, e1 o e2 = (a+1) e2, e2 o e1 = a e2."""
    a, b = ring.coerce(a), ring.coerce(b)
    entries = {(0, 0, 0): a, (0, 0, 1): b, (0, 1, 1): a + ring.one(), (1, 0, 1): a}
    return BilinearOp.from_entries(2, ring, entries)


def catalog_dots(ring=QQ):
    """The dots of the 2-dim catalog: A00, A01 and A_lambda at lambda = 1, 2."""
    dots = {
        "A00": BilinearOp.zero(2, ring),
        "A01": BilinearOp.from_entries(2, ring, {(0, 0, 1): ring.one()}),
    }
    for lam in (F(1), F(2)):
        lam = ring.coerce(lam)
        dots[f"Alam{lam}"] = BilinearOp.from_entries(
            2, ring, {(0, 0, 0): lam, (0, 1, 1): lam, (1, 0, 1): lam}
        )
    return dots
