"""Exterior-square calculus for shaped 7x7 matrices: the 5-dimensional
extension block, wedge actions in custom bases, the four c-polynomials, the
6x6 relation system with its determinant-preserving elimination and
determinant, the symmetric-cube block identification, and the 4-dimensional
extension wedge computation.

Both extension blocks M have the corner determinant d as a common
denominator, so they are built as the polynomial matrices d*M, and their
wedge squares are d^2 times those of M; the reports compare them with
expectations scaled to match and never divide by d.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from itertools import combinations
from math import comb
from typing import Dict, List, Sequence, Tuple

from .algebra import R_ZERO, MPoly, RFrac, SymMatrix, _add_to, _matrix

# Primary symbols: the 2x2 corner entries, the rescaled star entries
# gp_ij = d * g_ij (rows 1, 2, columns 3, 4, 5), and the upper-right block
# entries g_ij (rows 1, 2, columns 6, 7).  D is d, the corner determinant.
G66 = RFrac.var("g66")
G67 = RFrac.var("g67")
G76 = RFrac.var("g76")
G77 = RFrac.var("g77")
CORNER = SymMatrix([[G66, G67], [G76, G77]])
D = G66 * G77 - G67 * G76


def _over_twisted_corner(stars: Sequence[Sequence[RFrac]], lower: SymMatrix) -> SymMatrix:
    """[[T, stars], [0, lower]] with T = [[g66, -g67], [-g76, g77]]."""
    top = [[G66, -G67, *stars[0]], [-G76, G77, *stars[1]]]
    return SymMatrix(top + [[R_ZERO, R_ZERO, *row] for row in lower.entries])


def scaled_block5() -> SymMatrix:
    """d*M5 for the displayed 5x5 extension block M5 = (1/d) [[T, gp],
    [0, Sym^2 of the corner]]: the lower block of M5 is Sym^2 twisted by
    det^{-1}, so that of d*M5 is untwisted."""
    gp = [[RFrac.var(f"gp{i}{j}") for j in (3, 4, 5)] for i in (1, 2)]
    return _over_twisted_corner(gp, sym_power_signed(CORNER, 2))


def scaled_block4() -> SymMatrix:
    """d*M4 for the 4-dimensional extension M4 = [[T/d, g_ij], [0, corner]]
    on coordinates (1, 2, 6, 7)."""
    g = [[D * RFrac.var(f"g{i}{j}") for j in (6, 7)] for i in (1, 2)]
    return _over_twisted_corner(g, CORNER.scale(D))


# ---------------------------------------------------------------------------
# Wedge-square machinery

# A wedge basis element is a combination of elementary wedges e_i ^ e_j with
# 1 <= i < j <= n; a negative coefficient is the only encoding of the
# reversed wedge e_j ^ e_i, and a pair that is not increasing is refused.
WedgeVector = Tuple[Tuple[int, Tuple[int, int]], ...]


def _pairs(n: int) -> List[Tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def wedge2_standard(m: SymMatrix) -> SymMatrix:
    """Exterior square of an r x c matrix: the C(r,2) x C(c,2) matrix of its
    2x2 minors, rows e_k ^ e_l (k < l) and columns e_i ^ e_j (i < j) in the
    standard bases.  Row (k, l) reads the row dicts k and l of m only, and
    each minor rk[i]·rl[j] − rl[i]·rk[j] is summed from its nonzero
    products, dropping the minors that cancel."""
    if m.rows < 2 or m.cols < 2:
        raise ValueError(f"wedge square of a {m.rows}x{m.cols} matrix is empty")
    e = m.nonzero
    index = {pair: n for n, pair in enumerate(combinations(range(m.cols), 2))}
    out = []
    for k, l in combinations(range(m.rows), 2):
        row: Dict[int, RFrac] = {}
        support = e[l].items()
        for i, x in e[k].items():
            for j, y in support:
                if i < j:
                    _add_to(row, index[i, j], x * y)
                elif i > j:
                    _add_to(row, index[j, i], -(y * x))
        out.append(row)
    return _matrix(tuple(out), len(index))


def basis_matrix(n: int, basis: Sequence[WedgeVector]) -> SymMatrix:
    pairs = _pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    if len(basis) != len(pairs):
        raise ValueError(f"basis must have {len(pairs)} elements, got {len(basis)}")
    cols = [[R_ZERO] * len(basis) for _ in range(len(pairs))]
    for b, vec in enumerate(basis):
        for coeff, (i, j) in vec:
            if i >= j:
                raise ValueError(f"wedge index pair {(i, j)} is not increasing")
            cols[index[(i, j)]][b] = cols[index[(i, j)]][b] + RFrac.const(coeff)
    return SymMatrix(cols)


def wedge2_action(m: SymMatrix, basis: Sequence[WedgeVector]) -> SymMatrix:
    """Matrix of the exterior square of m in the given wedge basis."""
    b = basis_matrix(m.rows, basis)
    try:
        b_inv = b.inverse()
    except ValueError as exc:
        raise ValueError("wedge basis is linearly dependent") from exc
    return b_inv * wedge2_standard(m) * b


# The 10-element basis used for the 5-dimensional extension block.
WEDGE_BASIS_5: Tuple[WedgeVector, ...] = (
    ((1, (1, 2)),),
    ((1, (1, 3)),),
    ((1, (2, 3)), (-1, (1, 4))),
    ((1, (2, 4)), (1, (1, 5))),
    ((1, (2, 5)),),
    ((2, (2, 3)), (1, (1, 4))),
    ((1, (2, 4)), (-2, (1, 5))),
    ((1, (3, 4)),),
    ((1, (3, 5)),),
    ((1, (4, 5)),),
)

WEDGE_BASIS_5_LABELS = (
    "v12", "v13", "v23-v14", "v24+v15", "v25", "2v23+v14", "v24-2v15",
    "v34", "v35", "v45",
)

# The 6-element basis for the 4-dimensional extension on (v1, v2, v6, v7);
# local coordinates map (1,2,3,4) -> (v1, v2, v6, v7).
WEDGE_BASIS_4: Tuple[WedgeVector, ...] = (
    ((-1, (1, 2)),),                 # v2 ^ v1
    ((-1, (1, 4)), (1, (2, 3))),     # v7 ^ v1 + v2 ^ v6
    ((-1, (1, 3)),),                 # v6 ^ v1
    ((-1, (1, 4)), (-1, (2, 3))),    # v7 ^ v1 - v2 ^ v6
    ((-1, (2, 4)),),                 # v7 ^ v2
    ((-1, (3, 4)),),                 # v7 ^ v6
)

WEDGE_BASIS_4_LABELS = (
    "v2^v1", "v7^v1+v2^v6", "v6^v1", "v7^v1-v2^v6", "v7^v2", "v7^v6",
)


def c_functions() -> Tuple[RFrac, RFrac, RFrac, RFrac]:
    """The four displayed coupling polynomials in the rescaled star entries."""
    (gp13, gp14, gp15), (gp23, gp24, gp25) = ([RFrac.var(f"gp{i}{j}") for j in (3, 4, 5)] for i in (1, 2))
    c1 = G76 * gp13 + G66 * gp23
    c2 = -(G77 * gp13) - G67 * gp23 - G76 * gp14 - G66 * gp24
    c3 = -(G77 * gp14) - G67 * gp24 + G76 * gp15 + G66 * gp25
    c4 = -(G77 * gp15) - G67 * gp25
    return (c1, c2, c3, c4)


def sym_power_signed(m: SymMatrix, n: int) -> SymMatrix:
    """Sym^n of a 2x2 matrix in the signed basis s_i C(n, i) u^(n-i) w^i with
    s_i = (-1)^(i(i-1)/2): (u^2, 2uw, -w^2) for n = 2 and
    (u^3, 3u^2 w, -3u w^2, -w^3) for n = 3.  As m sends u to m00 u + m10 w
    and w to m01 u + m11 w, column j, the image of basis vector j, is the
    binomial convolution of (m00 u + m10 w)^(n-j) and (m01 u + m11 w)^j."""
    scale = [(-1) ** (i * (i - 1) // 2) * comb(n, i) for i in range(n + 1)]

    def expansion(x: RFrac, y: RFrac, e: int) -> List[RFrac]:  # coefficients of u^(e-p) w^p in (x u + y w)^e
        return [comb(e, p) * (x ** (e - p) * y ** p) for p in range(e + 1)]

    cols = []
    for j in range(n + 1):
        image = [R_ZERO] * (n + 1)
        second = expansion(m[0, 1], m[1, 1], j)
        for p, a in enumerate(expansion(m[0, 0], m[1, 0], n - j)):
            for q, b in enumerate(second):
                image[p + q] = image[p + q] + a * b
        cols.append([image[i] * Q(scale[j], scale[i]) for i in range(n + 1)])
    return SymMatrix([[col[i] for col in cols] for i in range(n + 1)])


# Verbatim transcription of the displayed bottom-right 4x4 block (the entries
# of the first-five-columns display, rows 2-5, columns 2-5, without the
# 1/d^2 prefactor).
def displayed_sym_cube_block() -> SymMatrix:
    g66, g67, g76, g77 = G66, G67, G76, G77
    return SymMatrix(
        [
            [g66 ** 3, -3 * (g66 ** 2 * g67), -3 * (g66 * g67 ** 2), g67 ** 3],
            [-(g66 ** 2 * g76), g66 ** 2 * g67 + 2 * (g66 * g67 * g76),
             g67 ** 2 * g76 + 2 * (g66 * g77 * g67), -(g77 * g67 ** 2)],
            [-(g66 * g76 ** 2), g67 * g76 ** 2 + 2 * (g66 * g77 * g76),
             g66 * g77 ** 2 + 2 * (g77 * g67 * g76), -(g77 ** 2 * g67)],
            [g76 ** 3, -3 * (g77 * g76 ** 2), -3 * (g77 * g76 ** 2), g77 ** 3],
        ]
    )


@cache
def five_dim_wedge_report() -> Dict[str, object]:
    """Wedge-square d*M5 in the 10-element basis, which gives d^2 times the
    wedge square of the extension block M5, and compare against every
    displayed claim: the top row (d, c1, c2, c3, c4)/d^2 and the block
    Sym^3/d^2.  Cached: callers share the result and must not mutate it."""
    w = wedge2_action(scaled_block5(), WEDGE_BASIS_5)
    top_ok = all(w[0, j] == x for j, x in enumerate((D, *c_functions())))
    below_zero_ok = all(w[i, j].is_zero() for i in range(5, 10) for j in range(5))
    block = SymMatrix([[w[1 + i, 1 + j] for j in range(4)] for i in range(4)])
    honest = sym_power_signed(SymMatrix([[G66, -G67], [-G76, G77]]), 3)
    displayed = displayed_sym_cube_block()
    mismatches = sorted(
        (i + 2, j + 2)
        for i in range(4)
        for j in range(4)
        if displayed[i, j] != honest[i, j]
    )
    return {
        "top_row_matches_c_polynomials": top_ok,
        "below_block_vanishes": below_zero_ok,
        "wedge_block_equals_sym_cube": block == honest,
        "displayed_block_mismatch_cells": mismatches,
        "honest_cell_3_3": str(honest[1, 1]),
        "honest_cell_5_4": str(honest[3, 2]),
    }


@cache
def four_dim_wedge_report() -> Dict[str, object]:
    """Wedge-square d*M4 in the 6-element basis, which gives d^2 times the
    wedge square of the 4-dimensional extension M4; report the honest
    invariant plane, the displayed star polynomial, and the discrepancy in
    the displayed column claim, with each expectation scaled by d or d^2.
    Cached: callers share the result and must not mutate it."""
    w = wedge2_action(scaled_block4(), WEDGE_BASIS_4)
    d2 = D * D

    def over_d(p: MPoly) -> str:  # p/d, which d does not divide for any entry shown
        return f"({p})/({D})" if len(p.terms) > 1 else f"{p}/({D})"

    def shown(x: RFrac) -> str:  # the entry x/d^2 of the wedge square of M4
        return over_d(x.num.divexact(D.num))

    (g16, g17), (g26, g27) = ([RFrac.var(f"g{i}{j}") for j in (6, 7)] for i in (1, 2))
    star = G67 * g26 + G77 * g16
    # the three vanishing combinations satisfied on the image (the shape
    # constraints derived from form invariance)
    rel1, rel2, rel3 = quadratic_families(g16, g17, g26, g27, G66, G67, G76, G77)
    # d times the v2^v1 coefficients of columns 2 and 4 of the wedge square of M4
    col2_v21 = G66 * g27 + G76 * g17 + G77 * g16 + G67 * g26
    col4_v21 = G66 * g27 + G76 * g17 - G77 * g16 - G67 * g26
    return {
        "col1_is_inverse_det_times_v2v1": w[0, 0] == D and all(w[i, 0].is_zero() for i in range(1, 6)),
        "col2_v2v1_coeff_equals_rel2_over_d": w[0, 1] == D * col2_v21,
        "col2_diagonal": shown(w[1, 1]),
        "col2_diagonal_is_one": w[1, 1] == d2,
        "col2_spill_v6v1": shown(w[2, 1]),
        "col2_spill_v7v2": shown(w[4, 1]),
        "col4_v2v1_coeff": shown(w[0, 3]),
        "col4_v2v1_matches_formula": w[0, 3] == D * col4_v21,
        "col4_diagonal_is_one": w[3, 3] == d2,
        "col4_other_entries_zero": all(w[i, 3].is_zero() for i in (1, 2, 4, 5)),
        "displayed_star": over_d(star.num),
        "relations": (str(rel1), str(rel2), str(rel3)),
        # mod rel2, col2's v2^v1 coefficient vanishes while -(col4
        # coefficient)/2 equals the displayed star:
        "col2_vanishes_mod_relations": col2_v21 == rel2,
        "col4_star_identity_mod_relations": col4_v21 + 2 * star == rel2,
    }


# ---------------------------------------------------------------------------
# The 6x6 relation system and its elimination


def natural_relation_rows() -> List[List[RFrac]]:
    """Coefficient rows of (c1, c2, relA, c3, relB, c4) on the unknowns
    (gp13, gp23, gp14, gp24, gp15, gp25), with their natural signs."""
    z = RFrac.const(0)
    return [
        [G76, G66, z, z, z, z],
        [-G77, -G67, -G76, -G66, z, z],
        [2 * G77, 2 * G67, -G76, -G66, z, z],
        [z, z, -G77, -G67, G76, G66],
        [z, z, G77, G67, 2 * G76, 2 * G66],
        [z, z, z, z, -G77, -G67],
    ]


def displayed_relation_rows() -> List[List[RFrac]]:
    """The 6x6 matrix exactly as displayed."""
    z = RFrac.const(0)
    return [
        [G76, G66, z, z, z, z],
        [G77, G67, G76, G66, z, z],
        [2 * G77, 2 * G67, -G76, -G66, z, z],
        [z, z, G77, G67, -G76, -G66],
        [z, z, G77, G67, 2 * G76, 2 * G66],
        [z, z, z, z, G67, G77],
    ]


def displayed_eliminated_rows() -> List[List[RFrac]]:
    z = RFrac.const(0)
    return [
        [G76, G66, z, z, z, z],
        [G77, G67, z, z, z, z],
        [z, z, -3 * G76, -3 * G66, z, z],
        [z, z, G77, G67, z, z],
        [z, z, z, z, 3 * G76, 3 * G66],
        [z, z, z, z, G77, G67],
    ]


@cache
def relation_elimination() -> Dict[str, object]:
    """Run the determinant-preserving elimination on the natural-sign system,
    compare every determinant in sight, and report the discrepancies of the
    displayed matrices.  Cached: callers share the result and must not
    mutate it."""
    natural = natural_relation_rows()
    # determinant-preserving row operations (each adds a multiple of one row
    # to another):
    steps = [
        ("R3 <- R3 - R2", 2, 1, RFrac.const(-1)),
        ("R2 <- R2 + (1/3) R3", 1, 2, RFrac.const(Q(1, 3))),
        ("R5 <- R5 + R4", 4, 3, RFrac.const(1)),
        ("R4 <- R4 - (1/3) R5", 3, 4, RFrac.const(Q(-1, 3))),
    ]
    work = [row[:] for row in natural]
    for (_, target, source, factor) in steps:
        work[target] = [work[target][k] + factor * work[source][k] for k in range(6)]
    det_natural = SymMatrix(natural).det()
    det_eliminated = SymMatrix(work).det()
    det_displayed = SymMatrix(displayed_relation_rows()).det()
    det_displayed_elim = SymMatrix(displayed_eliminated_rows()).det()
    minus_9_d3 = RFrac.const(-9) * D ** 3
    return {
        "det_natural": det_natural,
        "det_natural_is_minus_9d3": det_natural == minus_9_d3,
        "elimination_preserves_det": det_eliminated == det_natural,
        "det_displayed_system": det_displayed,
        "det_displayed_system_is_minus_9d3": det_displayed == minus_9_d3,
        "det_displayed_system_factored": (
            det_displayed == 9 * (G66 * G67 - G76 * G77) * D ** 2
        ),
        "det_displayed_eliminated_is_plus_9d3": det_displayed_elim == -minus_9_d3,
    }


# ---------------------------------------------------------------------------
# The three quadratic coupling families


def quadratic_families(g16, g17, g26, g27, g66, g67, g76, g77) -> Tuple[RFrac, RFrac, RFrac]:
    """The three quadratic families of the four-dimensional block
    (g77 g17 + g67 g27; g77 g16 + g76 g17 + g67 g26 + g66 g27;
    g76 g16 + g66 g26) on its eight entries."""
    return (
        g77 * g17 + g67 * g27,
        g77 * g16 + g76 * g17 + g67 * g26 + g66 * g27,
        g76 * g16 + g66 * g26,
    )


def shape_families(g: SymMatrix) -> Tuple[RFrac, RFrac, RFrac]:
    """The three quadratic families on the entries of a 7x7 matrix."""
    (g16, g17), (g26, g27), (g66, g67), (g76, g77) = ((g[i, 5], g[i, 6]) for i in (0, 1, 5, 6))
    return quadratic_families(g16, g17, g26, g27, g66, g67, g76, g77)
