"""The standing corpus shared by the tests and the scripts: the 2-dim
catalog dots, the two-parameter circ family at sample points, and the
Novikov-Poisson structures built from them."""

from fractions import Fraction

from .algebra import euler_gelfand, presentation_of
from .deform import family_layer
from .dim2 import catalog
from .scalars import QQ

F = Fraction

# (a, b) sample points for the two-parameter circ family
AB_POINTS = [(F(0), F(0)), (F(1), F(2)), (F(-1), F(1, 2)), (F(2), F(-3)), (F(1, 3), F(0))]


def circ_family(a, b, ring=QQ):
    """e1 o e1 = a e1 + b e2, e1 o e2 = (a+1) e2, e2 o e1 = a e2: the h^1
    layer of ``family2d_construct`` at (a h, b h)."""
    return family_layer(ring.coerce(a), ring.coerce(b), ring, ring.one())


def catalog_dots(ring=QQ):
    """The dots of the 2-dim catalog: A00, A01 and A_lambda at lambda = 1, 2."""
    dots = {}
    for lam in (1, 2):
        for entry in catalog(lam, ring):
            suffix = "" if entry.lam is None else str(entry.lam)
            dots[entry.name + suffix] = entry.algebra.op("dot")
    return dots


def np_structures():
    """The 24 Novikov-Poisson structures as (label, presentation): each
    catalog dot against the circ family at every AB_POINTS point, then the
    Euler-derivation algebras of dims 3..6."""
    structures = []
    for name, dot in sorted(catalog_dots().items()):
        for a, b in AB_POINTS:
            pres = presentation_of(dot=dot, circ=circ_family(a, b))
            structures.append((f"{name} @ (a,b)=({a},{b})", pres))
    for n in range(3, 7):
        structures.append((f"euler dim {n}", euler_gelfand(n, QQ)))
    return structures
