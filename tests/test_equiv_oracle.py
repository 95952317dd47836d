"""An independent oracle for every equivalence verdict: the Gröbner basis of
the intertwining equations.

The unknowns are the entries of f_1 ... f_{N-1}, and the equations are
every h^0 ... h^(N-1) coefficient of F(e_p *_1 e_q) - F(e_p) *_2 F(e_q),
with F = id + sum_k f_k h^k; they are polynomial in the unknowns.  The
reduced Gröbner basis is [1] exactly when no witness exists over any
extension field (Hilbert's Nullstellensatz; Cox-Little-O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 4 §1).  So NotEquivalent implies [1], since
the solver's obstruction is a parameter-free contradiction reached by
substitutions that hold over every extension, and Equivalent implies not
[1].  Over Q(i) the equations adjoin j with j^2 + 1 = 0 and write j for i,
which leaves consistency over the algebraic closure unchanged.  The oracle
shares no code with the solver; sympy is a test dependency only."""

from fractions import Fraction

from sympy import QQ as SQQ
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

from test_equiv import S, _differential_pairs
from tpalg.deform import family2d_construct
from tpalg.equiv import _common_frame, solve_equivalence
from tpalg.scalars import QI, GaussianRational


def intertwining_basis(d1, d2):
    """The reduced grevlex Gröbner basis of the intertwining equations of
    d1 into d2, with the polynomial ring it lives in."""
    n, order = d1.dim, d1.order
    gaussian = _common_frame(d1, d2) is QI
    names = [f"f{k}_{i}_{j}" for k in range(1, order) for i in range(n) for j in range(n)]
    R, *gens = ring(names + (["j"] if gaussian else []), SQQ, grevlex)

    def const(x):
        if isinstance(x, GaussianRational):
            return const(x.re) + const(x.im) * gens[-1]
        x = Fraction(x)
        return R(SQQ(x.numerator, x.denominator))

    unknowns = iter(gens)
    f = [[[R.one if i == j else R.zero for j in range(n)] for i in range(n)]]
    f += [[[next(unknowns) for _ in range(n)] for _ in range(n)] for _ in range(1, order)]
    mu1, mu2 = (
        [[[[const(x) for x in v] for v in row] for row in op.c] for op in d.mu] for d in (d1, d2)
    )
    equations = [gens[-1] ** 2 + 1] if gaussian else []
    for t in range(order):
        for p in range(n):
            for q in range(n):
                for l in range(n):
                    e = R.zero
                    for a in range(t + 1):
                        for j in range(n):
                            e += f[a][l][j] * mu1[t - a][p][q][j]
                        for b in range(t + 1 - a):
                            op = mu2[t - a - b]
                            for i in range(n):
                                for j in range(n):
                                    if op[i][j][l]:
                                        e -= f[a][i][p] * f[b][j][q] * op[i][j][l]
                    if e:
                        equations.append(e)
    return (groebner(equations, R) if equations else []), R


def oracle(d1, d2):
    """"inconsistent" when the basis is [1], else "consistent"."""
    basis, R = intertwining_basis(d1, d2)
    return "inconsistent" if basis == [R.one] else "consistent"


def _oracle_pairs():
    yield from _differential_pairs()
    # family2d_equiv answers not_equivalent here, which is its own defect
    # (test_equiv.py::test_family_top_order_a_difference_agrees_with_solver)
    a, b, a2, b2 = S("1", 2), S("0", 2), S("1+h", 2), S("0", 2)
    yield "Q/family/(1, 0)/(1+h, 0)/2", family2d_construct(a, b), family2d_construct(a2, b2)


# The pairs that the solver leaves unknown, with the oracle's answer on each.
UNKNOWN = {}


def test_oracle_agrees_with_every_solver_verdict():
    tags, unknown = set(), {}
    for case, d1, d2 in _oracle_pairs():
        verdict, answer = solve_equivalence(d1, d2), oracle(d1, d2)
        if verdict.is_not_equivalent:
            assert answer == "inconsistent", case
        elif verdict.is_equivalent:
            assert answer == "consistent", case
        else:
            unknown[case] = answer
        tags.add(verdict.tag)
    assert unknown == UNKNOWN
    assert tags >= {"equivalent", "not_equivalent"}
