"""The 7x7 matrix model of the split exceptional group as the stabilizer of a
generic alternating 3-form: one-parameter root subgroups, the torus, Weyl
representatives and their symmetric-group images, the (2,3,2) block parabolic,
matrix-coefficient relations, and the 14-dimensional Lie algebra with
centralizer computations.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import R_ONE, R_ZERO, MPoly, RFrac, SymMatrix, _coerce_entry, row_reduce

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
            c = _coerce_entry(c)
            if not c.is_zero():
                clean[(i, j, k)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("AltTriForm is immutable")

    def get(self, i: int, j: int, k: int) -> RFrac:
        triple, sign = _sort_triple(i, j, k)
        if sign == 0:
            return R_ZERO
        c = self.coeffs.get(triple)
        if c is None:
            return R_ZERO
        return c if sign == 1 else -c

    def pullback(self, g: SymMatrix) -> "AltTriForm":
        """The form F(g., g., g.).

        e^l pulls back to row l of g, so each term c e^l^e^m^e^n becomes
        c (row l)^(row m)^(row n), expanded over the nonzero entries of the
        three rows only; each output triple sums its terms in the order
        they are collected."""
        if g.rows != 7 or g.cols != 7:
            raise ValueError("pullback expects a 7x7 matrix")
        support = [[(j, x) for j, x in enumerate(row, 1) if not x.is_zero()] for row in g.entries]
        terms: Dict[Tuple[int, int, int], List[RFrac]] = {}
        for (l, m, n), c in self.coeffs.items():
            for p, x in support[l - 1]:
                cx = c * x
                for q, y in support[m - 1]:
                    if q == p:
                        continue
                    cxy = cx * y
                    for r, z in support[n - 1]:
                        triple, sign = _sort_triple(p, q, r)
                        if sign:
                            term = cxy * z
                            terms.setdefault(triple, []).append(term if sign == 1 else -term)
        return AltTriForm({triple: sum(terms[triple], R_ZERO) for triple in sorted(terms)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltTriForm):
            return NotImplemented
        # The constructor drops zero coefficients, so equal forms have equal keys.
        return self.coeffs == other.coeffs

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
    a = _coerce_entry(a)
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
    a = _coerce_entry(a)
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
    cols = [[R_ZERO] * 7 for _ in range(7)]
    for j in range(1, 8):
        cols[inv[j] - 1][j - 1] = R_ONE
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


def root_subgroup(root: str, x: Entry) -> SymMatrix:
    """The displayed one-parameter subgroup element g(root, x)."""
    if root not in _GEN_ENTRIES:
        raise ValueError(f"unsupported root {root!r}; expected one of {ROOT_NAMES}")
    x = _coerce_entry(x)
    ainv = A_SYM.inv()
    out = [[R_ONE if i == j else R_ZERO for j in range(7)] for i in range(7)]
    for (i, j, coeff, power, div_a) in _GEN_ENTRIES[root]:
        val = coeff * (x ** power)
        if div_a:
            val = val * ainv
        out[i - 1][j - 1] = val
    return SymMatrix(out)


def torus_elem(t1: Entry, t2: Entry) -> SymMatrix:
    t1 = _coerce_entry(t1)
    t2 = _coerce_entry(t2)
    return SymMatrix.diagonal(
        [t1, t2, t1 / t2, RFrac.const(1), t2 / t1, t2.inv(), t1.inv()]
    )


def root_character(root: str, t1: Entry, t2: Entry) -> RFrac:
    """Value of the root character on the torus element [t1, t2]."""
    if root not in _ROOT_COORDS:
        raise ValueError(f"unsupported root {root!r}")
    m, n = _ROOT_COORDS[root]
    t1 = _coerce_entry(t1)
    t2 = _coerce_entry(t2)
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
    out = [[R_ZERO] * 7 for _ in range(7)]
    if letter == "a":
        for i in (0, 3, 6):
            out[i][i] = R_ONE
        out[1][2] = -R_ONE
        out[2][1] = R_ONE
        out[4][5] = -A_SYM.inv()
        out[5][4] = A_SYM
    elif letter == "b":
        out[0][1] = R_ONE
        out[1][0] = R_ONE
        out[2][4] = R_ONE
        out[3][3] = -R_ONE
        out[4][2] = R_ONE
        out[5][6] = R_ONE
        out[6][5] = R_ONE
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


def coeff_relations(rows):
    """The pair of quadratic combinations of upper-left entries that vanish on
    the short-root parabolic, read off the first two rows of a matrix
    (``SymMatrix.entries``, or rows of ``MPoly`` entries)."""
    (h11, h12, h13, h14, h15), (h21, h22, h23, h24, h25) = (row[:5] for row in rows[:2])
    r1 = 2 * (h22 * h13) - 2 * (h12 * h23) + h21 * h14 - h11 * h24
    r2 = h22 * h14 - h12 * h24 - 2 * (h21 * h15) + 2 * (h11 * h25)
    return (r1, r2)


def coeff_relations_hold(h: SymMatrix) -> bool:
    r1, r2 = coeff_relations(h.entries)
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
# The coefficient relations on the whole parabolic, and the word probe.
#
# The relations read rows 1-2 and columns 1-5 only.  Every generator is
# block-upper-triangular for (2,3,2), so those of h * g are those of h times
# columns 1-5 of g, where no entry divides by a.  The torus is scaled by t1*t2
# to clear its inverses; the relations are homogeneous quadratics, so the
# scaling does not change which of them vanish.  The certificate proves the
# relations on the whole parabolic; the probe checks them word by word, for
# the triform subcommand and as an oracle in the tests.

SparseCols = Tuple[Tuple[Tuple[int, MPoly], ...], ...]

_IDENTITY_ROWS = tuple(tuple(MPoly.one() if j == i else MPoly.zero() for j in range(5)) for i in (0, 1))


def _poly_generator_columns(name: str, suffix: str) -> SparseCols:
    """Columns 1-5 of a generator (the torus scaled by t1*t2), each as its
    nonzero (row, entry) pairs."""
    if name == "torus":
        t1 = MPoly.var("t1" + suffix)
        t2 = MPoly.var("t2" + suffix)
        diag = [t1 * t1 * t2, t1 * t2 * t2, t1 * t1, t1 * t2, t2 * t2]
        return tuple(((j, diag[j]),) for j in range(5))
    x = MPoly.var("x" + suffix)
    out: List[List[Tuple[int, MPoly]]] = [[(j, MPoly.one())] for j in range(5)]
    for (i, j, coeff, power, div_a) in _GEN_ENTRIES[name]:
        if j > 5:
            continue
        if i > 5:
            raise ValueError(f"generator {name}: column {j} reads row {i}, outside the first 5")
        if div_a:
            raise ValueError(f"generator {name}: column {j} divides by a")
        out[j - 1].append((i - 1, coeff * (x ** power)))
    return tuple(tuple(c) for c in out)


def _rows_mul(rows: Tuple[Tuple[MPoly, ...], ...], cols: SparseCols) -> Tuple[Tuple[MPoly, ...], ...]:
    zero = MPoly.zero()
    one = MPoly.one()
    out = []
    for r in rows:
        new_row = []
        for col in cols:
            total = zero
            for i, c in col:
                term = r[i]
                if not term.terms:
                    continue
                if c is not one:
                    term = term * c
                total = term if total is zero else total + term
            new_row.append(total)
        out.append(tuple(new_row))
    return tuple(out)


def _rows_relations_zero(rows) -> bool:
    (h11, h12, h13, h14, h15), (h21, h22, h23, h24, h25) = rows
    d = h22 * h13 - h12 * h23
    if d + d != h11 * h24 - h21 * h14:
        return False
    d = h11 * h25 - h21 * h15
    return d + d == h12 * h24 - h22 * h14


def coeff_relations_certificate() -> List[str]:
    """Prove both coefficient relations on the short-root parabolic, which
    the GENERATOR_NAMES generate: r = (r1, r2) vanishes at the identity, and
    for each generator g and a generic 2x5 block h of symbols, r_i(h g) =
    c_i1 r1(h) + c_i2 r2(h) with each c free of h, read off r_i(h g) at the
    0/1 points h where r is (1, 0) and (0, 1).  So r(h g) = C_g r(h), and r
    vanishes on every product of generators.  Returns the generators whose
    step leaves the span, after "identity" if r(1) != 0."""
    names = [f"h{i}{j}" for i in (1, 2) for j in range(1, 6)]
    h = tuple(tuple(MPoly.var(n) for n in names[5 * i:5 * i + 5]) for i in (0, 1))
    r1, r2 = coeff_relations(h)
    # h21 = h14 = 1 gives (r1, r2) = (1, 0); h22 = h14 = 1 gives (0, 1).
    at_r1 = {n: int(n in ("h21", "h14")) for n in names}
    at_r2 = {n: int(n in ("h22", "h14")) for n in names}
    failing = [] if all(r.is_zero() for r in coeff_relations(_IDENTITY_ROWS)) else ["identity"]
    for name in GENERATOR_NAMES:
        image = coeff_relations(_rows_mul(h, _poly_generator_columns(name, "")))
        if any(r != r.subs(at_r1) * r1 + r.subs(at_r2) * r2 for r in image):
            failing.append(name)
    return failing


def walk_parabolic_words(
    max_length: int,
    visit: Callable[[Tuple[str, ...], Tuple[Tuple[MPoly, ...], ...]], None],
) -> int:
    """Walk every product of parabolic generators of 1 to ``max_length``
    factors in pre-order, with fresh symbols per factor (suffix = 1-based
    position), carrying rows 1-2 and columns 1-5 of each product with the
    torus scaled as described above.  ``visit(word, product_rows)`` sees each
    product, ``word`` being its tuple of generator names.  Returns the number
    of products visited."""
    gens_by_depth = [
        [(name, _poly_generator_columns(name, str(depth))) for name in GENERATOR_NAMES]
        for depth in range(1, max_length + 1)
    ]
    visited = 0

    def dfs(current, word):
        nonlocal visited
        if len(word) == max_length:
            return
        for name, gen_cols in gens_by_depth[len(word)]:
            new_rows = _rows_mul(current, gen_cols)
            new_word = word + (name,)
            visit(new_word, new_rows)
            visited += 1
            dfs(new_rows, new_word)

    dfs(_IDENTITY_ROWS, ())
    return visited


def coeff_relations_probe(max_length: int = 4) -> Dict[str, object]:
    """Verify both coefficient relations symbolically on every product of
    parabolic generators up to the given word length (fresh symbols per
    factor).  Returns counts; raises AssertionError naming the first word on
    which a relation fails."""

    def visit(word, rows):
        if not _rows_relations_zero(rows):
            raise AssertionError(
                f"coefficient relation failed at depth {len(word)} on {'*'.join(word)}"
            )

    checked = walk_parabolic_words(max_length, visit)
    return {"max_length": max_length, "products_checked": checked, "generators": len(GENERATOR_NAMES)}


def unipotent_product(x1: Entry, x2: Entry, x3: Entry, x4: Entry, x5: Entry) -> SymMatrix:
    """g(a,x1) g(a+b,x2) g(a+2b,x3) g(a+3b,x4) g(2a+3b,x5)."""
    out = root_subgroup("a", x1)
    for name, x in (("a+b", x2), ("a+2b", x3), ("a+3b", x4), ("2a+3b", x5)):
        out = out * root_subgroup(name, x)
    return out


def parabolic_generic_element() -> SymMatrix:
    """g(-b, y) t(t1, t2) g(b, z) unipotent_product(x1, ..., x5): the big cell
    of the Levi factor times the unipotent radical, a dense 9-parameter
    family in the short-root parabolic."""
    y, t1, t2, z = (RFrac.var(n) for n in ("y", "t1", "t2", "z"))
    levi = root_subgroup("-b", y) * torus_elem(t1, t2) * root_subgroup("b", z)
    return levi * unipotent_product(*(RFrac.var(f"x{i}") for i in range(1, 6)))


# ---------------------------------------------------------------------------
# Lie algebra

def _linear_coefficient(root: str) -> SymMatrix:
    """d/dx g(root, x) at x = 0."""
    out = [[R_ZERO] * 7 for _ in range(7)]
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
        rows = [
            self._vectorize(mat) + [R_ONE if i == idx else R_ZERO for i in range(14)]
            for idx, mat in enumerate(self.matrices)
        ]
        pivots = row_reduce(rows, 49)
        if len(pivots) < 14:
            raise ValueError("basis matrices are linearly dependent")
        self._echelon: List[Tuple[int, List[RFrac], List[RFrac]]] = [
            (pivot, row[:49], row[49:]) for pivot, row in zip(pivots, rows)
        ]
        # ad(B_i) as sparse (row, col, value) triples: column j holds the
        # coordinates of [B_i, B_j], and [B_j, B_i] = -[B_i, B_j].
        ad: List[List[Tuple[int, int, RFrac]]] = [[] for _ in range(14)]
        for i in range(14):
            for j in range(i + 1, 14):
                coords = self.coordinates(bracket(self.matrices[i], self.matrices[j]))
                for k, c in enumerate(coords):
                    if not c.is_zero():
                        ad[i].append((k, j, c))
                        ad[j].append((k, i, -c))
        self._ad: Tuple[Tuple[Tuple[int, int, RFrac], ...], ...] = tuple(map(tuple, ad))

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
        """Bracket table [Xi, Xj] for i < j, as coordinate vectors, read off
        the table that the constructor built (and that raised if any
        bracket escaped the span)."""
        table = {}
        for i in range(14):
            for j in range(i + 1, 14):
                table[(self.names[i], self.names[j])] = [R_ZERO] * 14
            for k, j, c in self._ad[i]:
                if j > i:
                    table[(self.names[i], self.names[j])][k] = c
        return table

    def adjoint_matrix(self, x: SymMatrix) -> SymMatrix:
        """ad(x) restricted to the 14-dim basis (columns = coordinates of
        [x, basis_j]), as the sum of x_i ad(B_i) over the coordinates x_i of
        x; raises ValueError if x is outside the span."""
        out = [[R_ZERO] * 14 for _ in range(14)]
        for xi, ad_i in zip(self.coordinates(x), self._ad):
            if not xi.is_zero():
                for k, j, c in ad_i:
                    out[k][j] = out[k][j] + xi * c
        return SymMatrix(out)

    def centralizer_dim(self, x: SymMatrix) -> int:
        return 14 - self.adjoint_matrix(x).rank()

    def sl2_centralizer_dim(self, e: SymMatrix, f: SymMatrix) -> int:
        ad_e = self.adjoint_matrix(e)
        ad_f = self.adjoint_matrix(f)
        return 14 - SymMatrix(ad_e.entries + ad_f.entries).rank()


_LIE_CACHE: Optional[LieG2] = None


def lie_basis() -> LieG2:
    global _LIE_CACHE
    if _LIE_CACHE is None:
        _LIE_CACHE = LieG2()
    return _LIE_CACHE


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
    aug = [list(ad_e.entries[i]) + [h_coords[i]] for i in range(14)]
    aug += [[x + 2 if i == j else x for j, x in enumerate(ad_h.entries[i])] + [R_ZERO] for i in range(14)]
    n = 14
    pivots = row_reduce(aug, n)
    for i in range(len(pivots), len(aug)):
        if not aug[i][n].is_zero():
            raise ValueError("no sl2 completion exists for the given (e, h)")
    coords = [R_ZERO] * n
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
    and the short-root Weyl representative.

    zeta is a symbol and the cocharacter check works modulo its minimal
    polynomial zeta^2 + zeta + 1: D e D^-1 - e vanishes in Q(a)[zeta]/(that
    polynomial) iff every entry's numerator is divisible by it."""
    lie = lie_basis()
    e = lie.by_name("e[a]") + lie.by_name("e[a+3b]")
    z = MPoly.var("zeta")
    zeta = RFrac(z)
    cyclotomic = z * z + z + 1
    # short coroot at zeta: the torus element [s, 1/s] at s = zeta
    powers = [1, -1, 2, 0, -2, 1, -1]
    d = SymMatrix.diagonal([zeta ** n for n in powers])
    d_inv = SymMatrix.diagonal([zeta ** -n for n in powers])
    residue = d * e * d_inv - e
    coch_ok = all(x.num.divexact(cyclotomic) is not None for row in residue.entries for x in row)
    wb = W_TILDE_B
    wb_ok = (wb * e) == (e * wb)
    return {"short_coroot_at_zeta_centralizes": coch_ok, "weyl_rep_centralizes": wb_ok}
