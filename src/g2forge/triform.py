"""The 7x7 matrix model of the split exceptional group as the stabilizer of a
generic alternating 3-form: one-parameter root subgroups, the torus, Weyl
representatives and their symmetric-group images, the (2,3,2) block parabolic,
matrix-coefficient relations, and the 14-dimensional Lie algebra with
centralizer computations.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import Cyc3, MPoly, RFrac, SymMatrix, sym_matrix_to_cyc, cyc_mat_mul

Entry = Union[int, Q, MPoly, RFrac]

# ---------------------------------------------------------------------------
# Alternating trilinear forms


def _sort_triple(i: int, j: int, k: int) -> Tuple[Tuple[int, int, int], int]:
    """Sorted index triple and the sign of the sorting permutation
    (0 if indices repeat)."""
    idx = [i, j, k]
    if len(set(idx)) < 3:
        return ((0, 0, 0), 0)
    sign = 1
    if idx[0] > idx[1]:
        idx[0], idx[1] = idx[1], idx[0]
        sign = -sign
    if idx[1] > idx[2]:
        idx[1], idx[2] = idx[2], idx[1]
        sign = -sign
    if idx[0] > idx[1]:
        idx[0], idx[1] = idx[1], idx[0]
        sign = -sign
    return (tuple(idx), sign)


class AltTriForm:
    """Alternating trilinear form on 7-space, stored on sorted triples
    1 <= i < j < k <= 7 and extended antisymmetrically."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Tuple[int, int, int], Entry]):
        clean: Dict[Tuple[int, int, int], RFrac] = {}
        for (i, j, k), c in coeffs.items():
            if not (1 <= i < j < k <= 7):
                raise ValueError(f"indices must satisfy 1 <= i < j < k <= 7, got {(i, j, k)}")
            c = c if isinstance(c, RFrac) else RFrac.const(c) if not isinstance(c, MPoly) else RFrac(c)
            if not c.is_zero():
                clean[(i, j, k)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("AltTriForm is immutable")

    def get(self, i: int, j: int, k: int) -> RFrac:
        triple, sign = _sort_triple(i, j, k)
        if sign == 0:
            return RFrac.const(0)
        c = self.coeffs.get(triple)
        if c is None:
            return RFrac.const(0)
        return c if sign == 1 else -c

    def __call__(self, u: Sequence, v: Sequence, w: Sequence) -> RFrac:
        """Evaluate on three vectors given by 7 coordinates each."""
        total = RFrac.const(0)
        for (i, j, k), c in self.coeffs.items():
            i0, j0, k0 = i - 1, j - 1, k - 1
            det = (
                u[i0] * (v[j0] * w[k0] - v[k0] * w[j0])
                - v[i0] * (u[j0] * w[k0] - u[k0] * w[j0])
                + w[i0] * (u[j0] * v[k0] - u[k0] * v[j0])
            )
            total = total + c * det
        return total

    def pullback(self, g: SymMatrix) -> "AltTriForm":
        """The form F(g., g., g.)."""
        if g.rows != 7 or g.cols != 7:
            raise ValueError("pullback expects a 7x7 matrix")
        out: Dict[Tuple[int, int, int], RFrac] = {}
        for i in range(1, 8):
            for j in range(i + 1, 8):
                for k in range(j + 1, 8):
                    total = RFrac.const(0)
                    for (l, m, n), c in self.coeffs.items():
                        rows = (l - 1, m - 1, n - 1)
                        cols = (i - 1, j - 1, k - 1)
                        a11, a12, a13 = (g[rows[0], c0] for c0 in cols)
                        a21, a22, a23 = (g[rows[1], c0] for c0 in cols)
                        a31, a32, a33 = (g[rows[2], c0] for c0 in cols)
                        det = (
                            a11 * (a22 * a33 - a23 * a32)
                            - a12 * (a21 * a33 - a23 * a31)
                            + a13 * (a21 * a32 - a22 * a31)
                        )
                        total = total + c * det
                    if not total.is_zero():
                        out[(i, j, k)] = total
        return AltTriForm(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltTriForm):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.get(*t) == other.get(*t) for t in keys)

    def __hash__(self):  # pragma: no cover
        return hash(frozenset(self.coeffs))

    def __repr__(self):
        items = ", ".join(f"{t}: {c}" for t, c in sorted(self.coeffs.items()))
        return f"AltTriForm({{{items}}})"


A_SYM = RFrac.var("a")


def generic_form(a: Entry = A_SYM) -> AltTriForm:
    """The generic 3-form with support {147, 156, 237, 246, 345} and
    coefficients (1, 1, 1, -1, a).  Requires a != 0.

    Note: this is the unique support for which all the displayed
    one-parameter matrices are stabilizers; a variant with a (2,4,5) term in
    place of (2,4,6) is NOT stabilized by them (see displayed_form_variant).
    """
    a = a if isinstance(a, RFrac) else RFrac.const(a) if not isinstance(a, MPoly) else RFrac(a)
    if a.is_zero():
        raise ValueError("the scaling parameter must be nonzero")
    return AltTriForm(
        {
            (1, 4, 7): 1,
            (1, 5, 6): 1,
            (2, 3, 7): 1,
            (2, 4, 6): -1,
            (3, 4, 5): a,
        }
    )


def displayed_form_variant(a: Entry = A_SYM) -> AltTriForm:
    """The variant with a -1 coefficient on (2,4,5) instead of (2,4,6); kept
    so the discrepancy with generic_form can be reported explicitly."""
    a = _as_rfrac(a)
    return AltTriForm(
        {(1, 4, 7): 1, (1, 5, 6): 1, (2, 3, 7): 1, (2, 4, 5): -1, (3, 4, 5): a}
    )


def standard_form() -> AltTriForm:
    """The textbook generic 3-form e123 + e456 + e147 + e257 + e367."""
    return AltTriForm({(1, 2, 3): 1, (4, 5, 6): 1, (1, 4, 7): 1, (2, 5, 7): 1, (3, 6, 7): 1})


def genericity_witness() -> Dict[str, object]:
    """Push the textbook form through the index permutation (2635)(47) and
    the diagonal scaling (1, 1, a, -1/a, -a, 1/a, 1/a), and compare with
    generic_form.

    The image has exactly the support {147, 156, 237, 246, 345} (hence is
    generic, being a torus rescaling of generic_form over an algebraic
    closure), but its coefficients differ from generic_form by powers of the
    parameter; an exact on-the-nose match would require a cube root of the
    parameter.  Both facts are reported.
    """
    perm = {1: 1, 2: 6, 6: 3, 3: 5, 5: 2, 4: 7, 7: 4}
    inv = {v: k for k, v in perm.items()}
    zero = RFrac.const(0)
    cols = [[zero] * 7 for _ in range(7)]
    for j in range(1, 8):
        cols[inv[j] - 1][j - 1] = RFrac.const(1)
    p_mat = SymMatrix(cols)
    scales = [RFrac.const(1), RFrac.const(1), A_SYM, -A_SYM.inv(), -A_SYM, A_SYM.inv(), A_SYM.inv()]
    image = standard_form().pullback(p_mat * SymMatrix.diagonal(scales))
    target = generic_form()
    return {
        "image_support": sorted(image.coeffs),
        "target_support": sorted(target.coeffs),
        "support_matches": sorted(image.coeffs) == sorted(target.coeffs),
        "coefficients_match": image == target,
        "image_coefficients": {t: str(c) for t, c in sorted(image.coeffs.items())},
    }


def form_derivation_residue(x: SymMatrix, form: AltTriForm) -> AltTriForm:
    """The trilinear form F(X., ., .) + F(., X., .) + F(., ., X.); zero iff X
    is an infinitesimal stabilizer of F."""
    out: Dict[Tuple[int, int, int], RFrac] = {}
    for i in range(1, 8):
        for j in range(i + 1, 8):
            for k in range(j + 1, 8):
                total = RFrac.const(0)
                for l in range(1, 8):
                    total = total + x[l - 1, i - 1] * form.get(l, j, k)
                    total = total + x[l - 1, j - 1] * form.get(i, l, k)
                    total = total + x[l - 1, k - 1] * form.get(i, j, l)
                if not total.is_zero():
                    out[(i, j, k)] = total
    return AltTriForm(out)


# ---------------------------------------------------------------------------
# One-parameter subgroups, torus, Weyl representatives

# Each generator is given by its off-diagonal entries (i, j) -> coefficient of
# x^pow, with pow in {1, 2}; "ainv" marks a 1/a factor.
_GEN_ENTRIES: Dict[str, Tuple[Tuple[int, int, int, int, bool], ...]] = {
    # (row, col, rational coefficient, power of x, divide by a?)
    "a": ((2, 3, 1, 1, False), (5, 6, 1, 1, True)),
    "b": ((1, 2, 1, 1, False), (3, 4, -2, 1, False), (3, 5, -1, 2, False),
          (4, 5, 1, 1, False), (6, 7, -1, 1, False)),
    "a+b": ((1, 3, 1, 1, False), (2, 4, 2, 1, False), (2, 6, 1, 2, True),
            (4, 6, 1, 1, True), (5, 7, 1, 1, True)),
    "a+2b": ((1, 4, 2, 1, False), (1, 7, 1, 2, True), (2, 5, -1, 1, False),
             (3, 6, -1, 1, True), (4, 7, 1, 1, True)),
    "a+3b": ((1, 5, 1, 1, False), (3, 7, 1, 1, True)),
    "2a+3b": ((1, 6, 1, 1, False), (2, 7, -1, 1, False)),
    "-b": ((2, 1, 1, 1, False), (4, 3, -1, 1, False), (5, 3, -1, 2, False),
           (5, 4, 2, 1, False), (7, 6, -1, 1, False)),
}

ROOT_NAMES: Tuple[str, ...] = ("a", "b", "a+b", "a+2b", "a+3b", "2a+3b", "-b")

# Simple-root coordinates of each supported root character.
_ROOT_COORDS: Dict[str, Tuple[int, int]] = {
    "a": (1, 0),
    "b": (0, 1),
    "a+b": (1, 1),
    "a+2b": (1, 2),
    "a+3b": (1, 3),
    "2a+3b": (2, 3),
    "-b": (0, -1),
}


def _as_rfrac(x: Entry) -> RFrac:
    if isinstance(x, RFrac):
        return x
    if isinstance(x, MPoly):
        return RFrac(x)
    return RFrac.const(x)


def root_subgroup(root: str, x: Entry) -> SymMatrix:
    """The displayed one-parameter subgroup element g(root, x)."""
    if root not in _GEN_ENTRIES:
        raise ValueError(f"unsupported root {root!r}; expected one of {ROOT_NAMES}")
    x = _as_rfrac(x)
    ainv = A_SYM.inv()
    one = RFrac.const(1)
    zero = RFrac.const(0)
    out = [[one if i == j else zero for j in range(7)] for i in range(7)]
    for (i, j, coeff, power, div_a) in _GEN_ENTRIES[root]:
        val = coeff * (x ** power)
        if div_a:
            val = val * ainv
        out[i - 1][j - 1] = val
    return SymMatrix(out)


def torus_elem(t1: Entry, t2: Entry) -> SymMatrix:
    t1 = _as_rfrac(t1)
    t2 = _as_rfrac(t2)
    return SymMatrix.diagonal(
        [t1, t2, t1 / t2, RFrac.const(1), t2 / t1, t2.inv(), t1.inv()]
    )


def root_character(root: str, t1: Entry, t2: Entry) -> RFrac:
    """Value of the root character on the torus element [t1, t2]."""
    if root not in _ROOT_COORDS:
        raise ValueError(f"unsupported root {root!r}")
    m, n = _ROOT_COORDS[root]
    t1 = _as_rfrac(t1)
    t2 = _as_rfrac(t2)
    # long simple root value: t2^2/t1; short simple root value: t1/t2
    return (t2 * t2 / t1) ** m * (t1 / t2) ** n


def conj_relation(root: str) -> bool:
    """Symbolic check: [t] g(root, x) [t]^{-1} = g(root, char(t) x)."""
    t1 = RFrac.var("t1")
    t2 = RFrac.var("t2")
    x = RFrac.var("x")
    t = torus_elem(t1, t2)
    tinv = torus_elem(t1.inv(), t2.inv())
    lhs = t * root_subgroup(root, x) * tinv
    rhs = root_subgroup(root, root_character(root, t1, t2) * x)
    return lhs == rhs


def one_parameter_identity(root: str) -> bool:
    """Symbolic check: g(root, x) g(root, y) = g(root, x + y)."""
    x = RFrac.var("x")
    y = RFrac.var("y")
    return root_subgroup(root, x) * root_subgroup(root, y) == root_subgroup(root, x + y)


def _weyl_gen(letter: str) -> SymMatrix:
    zero = RFrac.const(0)
    one = RFrac.const(1)
    out = [[zero] * 7 for _ in range(7)]
    if letter == "a":
        for i in (0, 3, 6):
            out[i][i] = one
        out[1][2] = -one
        out[2][1] = one
        out[4][5] = -A_SYM.inv()
        out[5][4] = A_SYM
    elif letter == "b":
        out[0][1] = one
        out[1][0] = one
        out[2][4] = one
        out[3][3] = -one
        out[4][2] = one
        out[5][6] = one
        out[6][5] = one
    else:
        raise ValueError(f"unknown reflection letter {letter!r}")
    return SymMatrix(out)


W_TILDE_A = _weyl_gen("a")
W_TILDE_B = _weyl_gen("b")


def weyl_rep(word: str) -> SymMatrix:
    """Monomial representative of a Weyl word (rightmost letter acts first,
    i.e. the matrices are multiplied in the order written)."""
    out = SymMatrix.identity(7)
    for letter in word:
        if letter == "a":
            out = out * W_TILDE_A
        elif letter == "b":
            out = out * W_TILDE_B
        else:
            raise ValueError(f"unknown reflection letter {letter!r}")
    return out


Perm7 = Tuple[int, int, int, int, int, int, int]


def perm_of_monomial(m: SymMatrix) -> Perm7:
    """Permutation p with p(i) = the column of the unique nonzero entry in
    row i (1-indexed)."""
    perm = []
    for i in range(7):
        hits = [j for j in range(7) if not m[i, j].is_zero()]
        if len(hits) != 1:
            raise ValueError("matrix is not monomial")
        perm.append(hits[0] + 1)
    if sorted(perm) != list(range(1, 8)):
        raise ValueError("matrix is not monomial")
    return tuple(perm)


def weyl_word_to_s7(word: str) -> Perm7:
    return perm_of_monomial(weyl_rep(word))


def compose_perms(p: Perm7, q: Perm7) -> Perm7:
    """Composition matching monomial-matrix products: perm(MN)(i) =
    perm(N)(perm(M)(i))."""
    return tuple(q[p[i] - 1] for i in range(7))


def perm_from_cycles(cycles: Sequence[Sequence[int]]) -> Perm7:
    perm = list(range(1, 8))
    for cyc in cycles:
        for pos, val in enumerate(cyc):
            perm[val - 1] = cyc[(pos + 1) % len(cyc)]
    return tuple(perm)


def perm_cycles(p: Perm7) -> str:
    """Cycle notation (fixed points omitted; identity rendered as 'e')."""
    seen = set()
    parts = []
    for start in range(1, 8):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = p[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p[nxt - 1]
        if len(cyc) > 1:
            parts.append("(" + "".join(str(c) for c in cyc) + ")")
    return "".join(parts) if parts else "e"


# ---------------------------------------------------------------------------
# Block parabolic (2,3,2) and the coefficient relations

_BLOCKS = ({1, 2}, {3, 4, 5}, {6, 7})
# (row, col) positions (0-indexed) required to vanish for membership in the
# (2,3,2) block parabolic.
_P232_ZERO = tuple(
    (i, j)
    for i in range(7)
    for j in range(7)
    if (i >= 2 and j < 2) or (i >= 5 and j < 5)
)


def in_P232(m: SymMatrix) -> bool:
    """Membership in the standard block-upper parabolic with block sizes
    (2, 3, 2)."""
    return all(m[i, j].is_zero() for i, j in _P232_ZERO)


def perm_in_w232(p: Perm7) -> bool:
    """Whether a permutation preserves each of the blocks {1,2}, {3,4,5},
    {6,7} set-wise."""
    return all(all(p[i - 1] in block for i in block) for block in _BLOCKS)


def coeff_relations(h: SymMatrix):
    """The two quadratic combinations of upper-left entries that vanish on the
    short-root parabolic: returns the pair of symbolic residues."""
    h11, h12, h13, h14, h15 = (h[0, j] for j in range(5))
    h21, h22, h23, h24, h25 = (h[1, j] for j in range(5))
    r1 = 2 * (h22 * h13) - 2 * (h12 * h23) + h21 * h14 - h11 * h24
    r2 = h22 * h14 - h12 * h24 - 2 * (h21 * h15) + 2 * (h11 * h25)
    return (r1, r2)


def coeff_relations_hold(h: SymMatrix) -> bool:
    r1, r2 = coeff_relations(h)
    return r1.is_zero() and r2.is_zero()


GENERATOR_NAMES: Tuple[str, ...] = (
    "a", "a+b", "a+2b", "a+3b", "2a+3b", "b", "-b", "torus",
)


def parabolic_generator(name: str, suffix: str = "") -> SymMatrix:
    """A generator of the short-root parabolic, with fresh symbols tagged by
    the given suffix."""
    if name == "torus":
        return torus_elem(RFrac.var("t1" + suffix), RFrac.var("t2" + suffix))
    return root_subgroup(name, RFrac.var("x" + suffix))


def bruhat_disjointness_check() -> Dict[str, object]:
    """Compute which of the 12 Weyl-group images lie in the (2,3,2) block Weyl
    subgroup, and confirm on generators that the short-root parabolic equals
    the intersection of the model group with the block parabolic."""
    from .roots import WEYL_GROUP

    in_block = []
    for w in WEYL_GROUP:
        p = weyl_word_to_s7(w.word)
        if perm_in_w232(p):
            in_block.append(w.name)
    gens_in_p232 = {
        name: in_P232(parabolic_generator(name)) for name in GENERATOR_NAMES
    }
    return {
        "weyl_images_in_block_weyl_group": in_block,
        "generators_in_block_parabolic": gens_in_p232,
        "all_generators_contained": all(gens_in_p232.values()),
    }


# ---------------------------------------------------------------------------
# Fast polynomial probe of the coefficient relations on generator words.
#
# The two relations are homogeneous quadratics in the matrix entries, so each
# generator may be rescaled by any nonzero scalar without affecting whether
# the relations vanish.  Scaling the torus by t1*t2 and the 1/a-carrying
# generators by a makes every generator polynomial; only the first two rows
# of a product enter the relations, so only those rows are propagated.

SparseCols = Tuple[Tuple[Tuple[int, MPoly], ...], ...]


def _poly_generator_columns(name: str, suffix: str) -> SparseCols:
    one = MPoly.one()
    a = MPoly.var("a")
    if name == "torus":
        t1 = MPoly.var("t1" + suffix)
        t2 = MPoly.var("t2" + suffix)
        diag = [t1 * t1 * t2, t1 * t2 * t2, t1 * t1, t1 * t2, t2 * t2, t1, t2]
        return tuple(((j, diag[j]),) for j in range(7))
    x = MPoly.var("x" + suffix)
    scale_a = any(div_a for (_, _, _, _, div_a) in _GEN_ENTRIES[name])
    diag_val = a if scale_a else one
    cols: List[List[Tuple[int, MPoly]]] = [[(j, diag_val)] for j in range(7)]
    for (i, j, coeff, power, div_a) in _GEN_ENTRIES[name]:
        val = coeff * (x ** power)
        if scale_a and not div_a:
            val = val * a
        cols[j - 1].append((i - 1, val))
    return tuple(tuple(c) for c in cols)


def _rows_mul(rows: Tuple[Tuple[MPoly, ...], ...], cols: SparseCols) -> Tuple[Tuple[MPoly, ...], ...]:
    out = []
    for r in rows:
        new_row = []
        for col in cols:
            total = None
            for i, c in col:
                term = r[i] * c
                total = term if total is None else total + term
            new_row.append(total)
        out.append(tuple(new_row))
    return tuple(out)


def _rows_relations_zero(rows) -> bool:
    (h11, h12, h13, h14, h15, _, _), (h21, h22, h23, h24, h25, _, _) = rows
    r1 = 2 * (h22 * h13) - 2 * (h12 * h23) + h21 * h14 - h11 * h24
    if not r1.is_zero():
        return False
    r2 = h22 * h14 - h12 * h24 - 2 * (h21 * h15) + 2 * (h11 * h25)
    return r2.is_zero()


def coeff_relations_probe(max_length: int = 4) -> Dict[str, object]:
    """Verify both coefficient relations symbolically on every product of
    parabolic generators up to the given word length (fresh symbols per
    factor).  Returns counts; raises AssertionError on any failure."""
    zero = MPoly.zero()
    one = MPoly.one()
    identity_rows = (
        tuple(one if j == 0 else zero for j in range(7)),
        tuple(one if j == 1 else zero for j in range(7)),
    )
    gens_by_depth = [
        [(name, _poly_generator_columns(name, str(depth))) for name in GENERATOR_NAMES]
        for depth in range(1, max_length + 1)
    ]
    checked = 0

    def dfs(rows, depth):
        nonlocal checked
        if depth == max_length:
            return
        for name, cols in gens_by_depth[depth]:
            new_rows = _rows_mul(rows, cols)
            if not _rows_relations_zero(new_rows):
                raise AssertionError(
                    f"coefficient relation failed at depth {depth + 1} ending with {name}"
                )
            checked += 1
            dfs(new_rows, depth + 1)

    dfs(identity_rows, 0)
    return {"max_length": max_length, "products_checked": checked, "generators": len(GENERATOR_NAMES)}


def unipotent_product(x1: Entry, x2: Entry, x3: Entry, x4: Entry, x5: Entry) -> SymMatrix:
    """g(a,x1) g(a+b,x2) g(a+2b,x3) g(a+3b,x4) g(2a+3b,x5)."""
    out = root_subgroup("a", x1)
    for name, x in (("a+b", x2), ("a+2b", x3), ("a+3b", x4), ("2a+3b", x5)):
        out = out * root_subgroup(name, x)
    return out


# ---------------------------------------------------------------------------
# Lie algebra

def _linear_coefficient(root: str) -> SymMatrix:
    """d/dx g(root, x) at x = 0."""
    zero = RFrac.const(0)
    out = [[zero] * 7 for _ in range(7)]
    for (i, j, coeff, power, div_a) in _GEN_ENTRIES[root]:
        if power != 1:
            continue
        val = RFrac.const(coeff)
        if div_a:
            val = val * A_SYM.inv()
        out[i - 1][j - 1] = val
    return SymMatrix(out)


H1 = SymMatrix.diagonal([RFrac.const(c) for c in (1, 0, 1, 0, -1, 0, -1)])
H2 = SymMatrix.diagonal([RFrac.const(c) for c in (0, 1, -1, 0, 1, -1, 0)])


def bracket(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    return x * y - y * x


class LieG2:
    """The 14-dimensional Lie algebra of the form stabilizer: 2 torus
    directions plus 12 root vectors, with an echelonized span for exact
    membership tests."""

    def __init__(self):
        w_long = weyl_rep("ababab")
        w_long_inv = w_long.inverse()
        basis: List[Tuple[str, SymMatrix]] = [("h1", H1), ("h2", H2)]
        pos_names = ("a", "b", "a+b", "a+2b", "a+3b", "2a+3b")
        for name in pos_names:
            basis.append((f"e[{name}]", _linear_coefficient(name)))
        for name in pos_names:
            e = _linear_coefficient(name)
            basis.append((f"e[-({name})]", w_long * e * w_long_inv))
        self.names: Tuple[str, ...] = tuple(n for n, _ in basis)
        self.matrices: Tuple[SymMatrix, ...] = tuple(m for _, m in basis)
        self._echelon: List[Tuple[int, List[RFrac], List[RFrac]]] = []
        for idx, mat in enumerate(self.matrices):
            vec = self._vectorize(mat)
            coords = [RFrac.const(1 if i == idx else 0) for i in range(14)]
            red, crd = self._reduce(vec, coords)
            pivot = next((i for i, v in enumerate(red) if not v.is_zero()), None)
            if pivot is None:
                raise ValueError("basis matrices are linearly dependent")
            inv = red[pivot].inv()
            red = [inv * v for v in red]
            crd = [inv * v for v in crd]
            self._echelon.append((pivot, red, crd))

    @staticmethod
    def _vectorize(m: SymMatrix) -> List[RFrac]:
        return [m[i, j] for i in range(7) for j in range(7)]

    def _reduce(self, vec: List[RFrac], coords: List[RFrac]):
        vec = list(vec)
        coords = list(coords)
        for pivot, row, crd in self._echelon:
            factor = vec[pivot]
            if factor.is_zero():
                continue
            for i in range(49):
                if not row[i].is_zero():
                    vec[i] = vec[i] - factor * row[i]
            for i in range(14):
                if not crd[i].is_zero():
                    coords[i] = coords[i] - factor * crd[i]
        return vec, coords

    def coordinates(self, m: SymMatrix) -> List[RFrac]:
        """Coordinates of m in the 14-dim basis; raises if m is outside."""
        vec, coords = self._reduce(self._vectorize(m), [RFrac.const(0)] * 14)
        if any(not v.is_zero() for v in vec):
            raise ValueError("matrix is not in the 14-dimensional span")
        return [-c for c in coords]

    def by_name(self, name: str) -> SymMatrix:
        return self.matrices[self.names.index(name)]

    def structure_constants(self) -> Dict[Tuple[str, str], List[RFrac]]:
        """Bracket table [Xi, Xj] for i < j, as coordinate vectors; raises if
        any bracket escapes the span."""
        table = {}
        for i in range(14):
            for j in range(i + 1, 14):
                table[(self.names[i], self.names[j])] = self.coordinates(
                    bracket(self.matrices[i], self.matrices[j])
                )
        return table

    def adjoint_matrix(self, x: SymMatrix) -> SymMatrix:
        """ad(x) restricted to the 14-dim basis (columns = coordinates of
        [x, basis_j])."""
        cols = [self.coordinates(bracket(x, b)) for b in self.matrices]
        return SymMatrix([[cols[j][i] for j in range(14)] for i in range(14)])

    def centralizer_dim(self, x: SymMatrix) -> int:
        return 14 - self.adjoint_matrix(x).rank()

    def sl2_centralizer_dim(self, e: SymMatrix, f: SymMatrix) -> int:
        ad_e = self.adjoint_matrix(e)
        ad_f = self.adjoint_matrix(f)
        stacked = [[ad_e[i, j] for j in range(14)] for i in range(14)]
        stacked += [[ad_f[i, j] for j in range(14)] for i in range(14)]
        return 14 - SymMatrix(stacked).rank()


_LIE_CACHE: Optional[LieG2] = None


def lie_basis() -> LieG2:
    global _LIE_CACHE
    if _LIE_CACHE is None:
        _LIE_CACHE = LieG2()
    return _LIE_CACHE


def centralizer_dim(x: SymMatrix) -> int:
    return lie_basis().centralizer_dim(x)


def sl2_centralizer_dim(e: SymMatrix, f: SymMatrix) -> int:
    return lie_basis().sl2_centralizer_dim(e, f)


def torus_direction(c1: Q, c2: Q) -> SymMatrix:
    return H1.scale(RFrac.const(c1)) + H2.scale(RFrac.const(c2))


def sl2_complete(e: SymMatrix, h: SymMatrix) -> SymMatrix:
    """Solve [e, f] = h and [h, f] = -2f for f in the 14-dim span (exact
    linear algebra); raises if no solution exists."""
    lie = lie_basis()
    # unknown coords c_j of f; equations: sum_j c_j [e, B_j] = h and
    # sum_j c_j ([h, B_j] + 2 B_j) = 0, both expressed in basis coordinates.
    ad_e = lie.adjoint_matrix(e)
    ad_h = lie.adjoint_matrix(h)
    h_coords = lie.coordinates(h)
    rows = []
    rhs = []
    for i in range(14):
        rows.append([ad_e[i, j] for j in range(14)])
        rhs.append(h_coords[i])
    two = RFrac.const(2)
    for i in range(14):
        rows.append([ad_h[i, j] + (two if i == j else RFrac.const(0)) for j in range(14)])
        rhs.append(RFrac.const(0))
    # Gaussian elimination on the 28x15 augmented system.
    aug = [row + [rhs[i]] for i, row in enumerate(rows)]
    n = 14
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(aug)) if not aug[i][c].is_zero()), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = aug[r][c].inv()
        aug[r] = [inv * v for v in aug[r]]
        for i in range(len(aug)):
            if i != r and not aug[i][c].is_zero():
                factor = aug[i][c]
                aug[i] = [aug[i][k] - factor * aug[r][k] for k in range(n + 1)]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if not aug[i][n].is_zero():
            raise ValueError("no sl2 completion exists for the given (e, h)")
    coords = [RFrac.const(0)] * n
    for row_idx, c in enumerate(pivots):
        coords[c] = aug[row_idx][n]
    f = SymMatrix.zero(7, 7)
    for j, cj in enumerate(coords):
        if not cj.is_zero():
            f = f + lie.matrices[j].scale(cj)
    return f


def zeta_witness() -> Dict[str, bool]:
    """Two elements centralizing the subregular nilpotent over the ring with a
    formal primitive cube root of unity: the short coroot evaluated at zeta,
    and the short-root Weyl representative."""
    lie = lie_basis()
    e = lie.by_name("e[a]") + lie.by_name("e[a+3b]")
    zeta = Cyc3.zeta()
    one = Cyc3(1)
    zero = Cyc3(0)
    # short coroot at zeta: the torus element [s, 1/s] at s = zeta
    powers = [1, -1, 2, 0, -2, 1, -1]
    zpow = {0: one, 1: zeta, 2: zeta * zeta, -1: zeta * zeta, -2: zeta}
    cocharacter = [[zpow[powers[i]] if i == j else zero for j in range(7)] for i in range(7)]
    e_c = sym_matrix_to_cyc(e)
    lhs = cyc_mat_mul(cocharacter, e_c)
    rhs = cyc_mat_mul(e_c, cocharacter)
    coch_ok = lhs == rhs
    wb = W_TILDE_B
    wb_ok = (wb * e) == (e * wb)
    return {"short_coroot_at_zeta_centralizes": coch_ok, "weyl_rep_centralizes": wb_ok}
