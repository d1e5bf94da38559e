"""Hand-encoded graphical identities and gadget data used as test vectors.

Two identities serve as hard regression targets for the rewrite engine: a
six-point identity living in V (x) V (ten two-colored terms on the hexagon
1..6, every term completed by the common second-color edge 1-6), and an
eight-point identity among degree-one generators (thirteen matchings on the
octagon 1..8, where the fully-crossing matching expands into exactly the
other twelve).  Both must vanish identically after straightening.

The sign pattern of the six-point identity is forced: its supports admit
exactly one linear relation (the coefficient vector below spans the kernel),
and the same signs were checked against an independent completion on eight
points, so the identity holds as a family.
"""

from __future__ import annotations

from fractions import Fraction

from .invariant_ring import RingElement
from .relations import GenSegreDatum, SquareRotationDatum, SymElement, project_to_ring

# (black layer, drawn blue edges, coefficient); blue completion adds {1,6}
ID6_TERMS = (
    ([(1, 2), (3, 4), (5, 6)], [(2, 3), (4, 5)], -2),
    ([(1, 6), (3, 4), (2, 5)], [(2, 3), (4, 5)], -1),
    ([(1, 4), (3, 6), (2, 5)], [(3, 4), (2, 5)], +1),
    ([(1, 2), (5, 6), (3, 4)], [(2, 5), (3, 4)], -1),
    ([(1, 4), (5, 6), (2, 3)], [(4, 5), (2, 3)], -1),
    ([(1, 2), (3, 6), (4, 5)], [(2, 3), (4, 5)], -1),
    ([(1, 6), (2, 3), (4, 5)], [(2, 3), (4, 5)], -1),
    ([(1, 3), (5, 6), (2, 4)], [(3, 5), (2, 4)], +1),
    ([(1, 2), (4, 6), (3, 5)], [(2, 4), (3, 5)], +1),
    ([(1, 6), (2, 4), (3, 5)], [(2, 4), (3, 5)], +1),
)

# degree-one identity on eight points: sum of coeff * Y_matching = 0
ID8_TERMS = (
    ([(2, 3), (4, 5), (6, 7), (1, 8)], -2),
    ([(1, 2), (4, 5), (6, 7), (3, 8)], -1),
    ([(2, 5), (3, 4), (6, 7), (1, 8)], -1),
    ([(2, 3), (4, 7), (5, 6), (1, 8)], -1),
    ([(2, 3), (4, 5), (1, 6), (7, 8)], -1),
    ([(2, 3), (1, 4), (5, 6), (7, 8)], -1),
    ([(2, 7), (3, 4), (5, 6), (1, 8)], -1),
    ([(1, 2), (3, 4), (5, 8), (6, 7)], -1),
    ([(1, 2), (3, 6), (4, 5), (7, 8)], -1),
    ([(2, 3), (1, 4), (5, 8), (6, 7)], -1),
    ([(2, 7), (3, 6), (4, 5), (1, 8)], -1),
    ([(1, 2), (3, 4), (5, 6), (7, 8)], -1),
    ([(2, 5), (3, 8), (4, 7), (1, 6)], +1),
)


def id8_residual() -> RingElement:
    """Straightened sum of the eight-point identity; zero when it holds."""
    return project_to_ring(SymElement.from_terms(
        8, 1, [((pairs,), coeff) for pairs, coeff in ID8_TERMS]))


def id6_residual() -> dict:
    """Tensor coordinates of the six-point identity; empty when it holds."""
    total: dict = {}
    for black, blue, coeff in ID6_TERMS:
        a = project_to_ring(SymElement.monomial(6, (black,)))
        b = project_to_ring(SymElement.monomial(6, (blue + [(1, 6)],)))
        for g, cg in a.terms.items():
            for h, ch in b.terms.items():
                key = (g, h)
                total[key] = total.get(key, Fraction(0)) + coeff * cg * ch
    return {k: v for k, v in total.items() if v}


def genseg6_datum() -> GenSegreDatum:
    """The six-point generalized Segre datum with two purple triangles.

    Parts {1,2} green, {3,4} red, {5,6} blue; its relation agrees with the
    Segre cubic up to scale modulo quadratics.
    """
    return GenSegreDatum(
        6,
        u_red=frozenset({3, 4}),
        u_green=frozenset({1, 2}),
        u_blue=frozenset({5, 6}),
        red=((1, 5), (2, 6), (3, 4)),
        green=((1, 2), (3, 5), (4, 6)),
        blue=((1, 3), (2, 4), (5, 6)),
    )


def degenerate_genseg8_datum() -> GenSegreDatum:
    """Eight-point datum with the red special pair missing (degenerate)."""
    return GenSegreDatum(
        8,
        u_red=frozenset({3, 4}),
        u_green=frozenset({1, 2}),
        u_blue=frozenset({5, 6, 7, 8}),
        red=((1, 2), (3, 4), (5, 6), (7, 8)),
        green=((1, 2), (3, 5), (4, 6), (7, 8)),
        blue=((1, 3), (2, 4), (5, 7), (6, 8)),
    )


def square_rotation_even_datum() -> SquareRotationDatum:
    """Eight-point square rotation datum, both special paths of even length."""
    return SquareRotationDatum(
        8, (1, 2, 3, 4),
        purple=((1, 5), (5, 6), (2, 6), (3, 7), (7, 8), (4, 8)),
        black=((5, 7), (6, 8)),
    )
