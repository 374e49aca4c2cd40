"""Seven-dimensional standard representation, the Weyl dimension formula,
Kostant-decomposition bookkeeping and the cohomological-degree case
analysis for the long-root parabolic.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import List, NamedTuple, Tuple, Union

from .algebra import MPoly, quotient
from .roots import (
    ALPHA,
    BETA,
    POSITIVE_ROOTS,
    RHO,
    ParabolicId,
    Weight,
    WeylElement,
    dot_act,
    element,
    minimal_coset_reps,
)

# Weights of the 7-dimensional representation, listed in two orders:
# R7_WEIGHTS_ASC is ascending (lowest weight first); R7_WEIGHTS_MODEL is the
# order used by the explicit 7x7 matrix model (highest weight first).
R7_WEIGHTS_ASC: Tuple[Weight, ...] = (
    Weight(-1, -2),
    Weight(-1, -1),
    Weight(0, -1),
    Weight(0, 0),
    Weight(0, 1),
    Weight(1, 1),
    Weight(1, 2),
)
R7_WEIGHTS_MODEL: Tuple[Weight, ...] = tuple(reversed(R7_WEIGHTS_ASC))


def weyl_dim(lam: Weight) -> int:
    """Dimension of the irreducible representation of highest weight lam."""
    for simple in (ALPHA, BETA):
        p = lam.pair_coroot(simple)
        if type(p) is not int or p < 0:
            raise ValueError(f"weight {lam} is not dominant integral")
    num = den = 1
    shifted = lam + RHO
    for root in POSITIVE_ROOTS:
        num *= shifted.pair_coroot(root)
        den *= RHO.pair_coroot(root)
    dim = quotient(num, den)
    if type(dim) is not int:
        raise AssertionError(f"the dimension formula gives the non-integral quotient {dim} at the weight {lam}")
    return dim


class KostantPiece(NamedTuple):
    w: WeylElement
    degree: int
    levi_highest_weight: Weight  # w(Lam + rho) - rho
    neg_shifted: Weight          # -w(Lam + rho), the sign convention used in
    # the degree case analysis


def kostant_pieces(parabolic: ParabolicId, lam: Weight) -> List[KostantPiece]:
    pieces = []
    for w in minimal_coset_reps(parabolic):
        shifted = dot_act(w, lam)
        pieces.append(KostantPiece(w, w.length, shifted, -(w.act(lam + RHO))))
    return pieces


def levi_piece_dim(parabolic: ParabolicId, weight: Weight) -> int:
    """Dimension of the Levi irreducible with the given highest weight."""
    if not parabolic.levi_simple:
        return 1
    (gamma,) = parabolic.levi_simple
    d = weight.pair_coroot(gamma) + 1
    if type(d) is not int or d <= 0:
        raise AssertionError(f"piece weight {weight} is not Levi-dominant integral for {parabolic.tag}")
    return d


class DegreeCase(NamedTuple):
    degree: int
    k: Union[int, MPoly]
    s: Union[int, Q, MPoly]
    w: WeylElement
    neg_shifted: Weight


_CASE_WORDS = ("bab", "baba", "babab")


def degree_cases_alpha(c1, c2) -> Tuple[DegreeCase, DegreeCase, DegreeCase]:
    """The three (degree, k, s) records attached to the long-root parabolic
    for the dominant weight c1*(2a+3b) + c2*(a+2b).

    The eigenform weight k and evaluation point s are read off -w(Lam+rho)
    in the basis (alpha/2, (alpha+2*beta)/2): k = 1 - x and s = y/10.
    Accepts integers or polynomial generics for c1, c2.
    """
    lam = Weight(2 * c1 + c2, 3 * c1 + 2 * c2)
    out = []
    for word in _CASE_WORDS:
        w = element(word)
        neg = -(w.act(lam + RHO))
        x, y = neg.in_basis_half_alpha()
        k = 1 - x
        s = quotient(y, 10)
        out.append(DegreeCase(w.length + 1, k, s, w, neg))
    return tuple(out)


def lift_weights(c1, c2) -> Tuple:
    """Cohomological weight septuple of the rank-7 lift."""
    return (
        2 * c1 + c2,
        c1 + c2,
        c1 + 0 * c2,
        0 * c1,
        -c1 + 0 * c2,
        -c1 - c2,
        -2 * c1 - c2,
    )


def hodge_tate_weights(c1, c2) -> Tuple:
    """Hodge--Tate septuple: the lift weights shifted by (3,2,1,0,-1,-2,-3)."""
    shifts = (3, 2, 1, 0, -1, -2, -3)
    return tuple(w + s for w, s in zip(lift_weights(c1, c2), shifts))


def coweight_pairings(cov_a, cov_b) -> Tuple:
    """Pair the coweight cov_a * alpha_cov + cov_b * beta_cov against the
    seven weights of the standard representation (model order)."""
    out = []
    for mu in R7_WEIGHTS_MODEL:
        out.append(cov_a * mu.pair_coroot(ALPHA) + cov_b * mu.pair_coroot(BETA))
    return tuple(out)
