"""The 7x7 matrix model of the split exceptional group as the stabilizer of a
generic alternating 3-form: one-parameter root subgroups, the torus, Weyl
representatives and their symmetric-group images, the (2,3,2) block parabolic,
matrix-coefficient relations, and the 14-dimensional Lie algebra with
centralizer computations.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from . import kostant
from .algebra import (
    R_ONE, R_ZERO, MPoly, RFrac, Scalar, SymMatrix, _Immutable, _add_to, _coerce_entry, _matrix, row_reduce,
)
from .roots import ALPHA, BETA, POSITIVE_ROOTS, Weight

Entry = Union[int, Q, MPoly, RFrac]

# ---------------------------------------------------------------------------
# Alternating trilinear forms


def _sort_triple(i: int, j: int, k: int) -> Tuple[Tuple[int, int, int], int]:
    """Sorted index triple and the sign of the sorting permutation, -1 for an
    odd number of inverted pairs (0 if indices repeat)."""
    if i == j or i == k or j == k:
        return ((0, 0, 0), 0)
    return (tuple(sorted((i, j, k))), -1 if (i > j) ^ (i > k) ^ (j > k) else 1)


class AltTriForm(_Immutable):
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
        support = [[(j + 1, x) for j, x in row.items()] for row in g.nonzero]
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


def displayed_form_variant() -> AltTriForm:
    """The variant with a -1 coefficient on (2,4,5) instead of (2,4,6); kept
    so the discrepancy with generic_form can be reported explicitly."""
    return AltTriForm(
        {(1, 4, 7): 1, (1, 5, 6): 1, (2, 3, 7): 1, (2, 4, 5): -1, (3, 4, 5): A_SYM}
    )


def standard_form() -> AltTriForm:
    """The textbook generic 3-form e123 + e456 + e147 + e257 + e367."""
    return AltTriForm({(1, 2, 3): 1, (4, 5, 6): 1, (1, 4, 7): 1, (2, 5, 7): 1, (3, 6, 7): 1})


# The index permutation (2635)(47) that carries the textbook form's support
# onto that of generic_form, as {i: image of i}.
_GENERICITY_PERM: Dict[int, int] = {1: 1, 2: 6, 6: 3, 3: 5, 5: 2, 4: 7, 7: 4}


def genericity_witness() -> Dict[str, object]:
    """Push the textbook form through the index permutation
    ``_GENERICITY_PERM`` and the diagonal scaling
    (1, 1, a, -1/a, -a, 1/a, 1/a), and compare with generic_form.

    The image has exactly the support {147, 156, 237, 246, 345} (hence is
    generic, being a torus rescaling of generic_form over an algebraic
    closure), but its coefficients differ from generic_form by powers of the
    parameter; an exact on-the-nose match would require a cube root of the
    parameter.  Both facts are reported.
    """
    inv = {v: k for k, v in _GENERICITY_PERM.items()}
    cols = [[R_ZERO] * 7 for _ in range(7)]
    for j in range(1, 8):
        cols[inv[j] - 1][j - 1] = R_ONE
    p_mat = SymMatrix(cols)
    scales = [RFrac.const(1), RFrac.const(1), A_SYM, -A_SYM.inv(), -A_SYM, A_SYM.inv(), A_SYM.inv()]
    image = standard_form().pullback(p_mat * SymMatrix.diagonal(scales))
    target = generic_form()
    return {
        "support_matches": sorted(image.coeffs) == sorted(target.coeffs),
        "coefficients_match": image == target,
    }


def form_derivation_residue(x: SymMatrix, form: AltTriForm) -> AltTriForm:
    """The trilinear form F(X., ., .) + F(., X., .) + F(., ., X.); zero iff X
    is an infinitesimal stabilizer of F.

    e^l pulls back under X to the sum of X[l, p] e^p, so each term
    c e^l^e^m^e^n of F gives, for each nonzero X[q, p] with q one of l, m, n,
    c X[q, p] times the wedge with e^q replaced by e^p.  Only the nonzero
    entries of X and the terms of F are visited; each output triple sums
    its terms in the order they are collected."""
    terms: Dict[Tuple[int, int, int], List[RFrac]] = {}
    for q, row in enumerate(x.nonzero, 1):
        for p, v in row.items():
            p += 1
            for triple, c in form.coeffs.items():
                if q in triple:
                    key, sign = _sort_triple(*(p if i == q else i for i in triple))
                    if sign:
                        term = c * v
                        terms.setdefault(key, []).append(term if sign == 1 else -term)
    return AltTriForm({key: sum(ts, R_ZERO) for key, ts in terms.items()})


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

# The root of each generator: the positive roots in order, then -beta.
_ROOTS: Dict[str, Weight] = dict(zip(ROOT_NAMES, POSITIVE_ROOTS + (-BETA,)))


_A_INV = A_SYM.inv()


def root_subgroup(root: str, x: Entry) -> SymMatrix:
    """The displayed one-parameter subgroup element g(root, x): the row
    dicts of the identity with the generator's nonzero entries set."""
    if root not in _GEN_ENTRIES:
        raise ValueError(f"unsupported root {root!r}; expected one of {ROOT_NAMES}")
    powers = {1: _coerce_entry(x)}
    out = [{i: R_ONE} for i in range(7)]
    for (i, j, coeff, power, div_a) in _GEN_ENTRIES[root]:
        val = powers.get(power)
        if val is None:
            val = powers[power] = powers[1] ** power
        if coeff != 1:
            val = val * coeff
        if div_a:
            val = val * _A_INV
        if val.terms:
            out[i - 1][j - 1] = val
    return _matrix(tuple(out), 7)


def _exponents(mu: Weight) -> Tuple[int, int]:
    """The exponents (e1, e2) = (<mu, a_cov + b_cov>, <mu, a_cov>) of t1 and t2
    in the character of mu at [t1, t2]; mu -> (e1, e2) is invertible over Z."""
    e2 = mu.pair_coroot(ALPHA)
    return e2 + mu.pair_coroot(BETA), e2


def _torus_diagonal(t1, t2, shift: int) -> List:
    """t1^(e1 + shift) t2^(e2 + shift), (e1, e2) = _exponents(mu), over the
    standard weights mu in the model's order.  A zeroth power is left out."""
    out = []
    for e1, e2 in map(_exponents, kostant.R7_WEIGHTS_MODEL):
        e1 += shift
        e2 += shift
        if e1 and e2:
            out.append(t1 ** e1 * t2 ** e2)
        else:
            out.append(t2 ** e2 if e2 else t1 ** e1)
    return out


def torus_elem(t1: Entry, t2: Entry) -> SymMatrix:
    """The torus element [t1, t2]: the character of each standard weight at
    it, down the diagonal in the model's order."""
    return SymMatrix.diagonal(_torus_diagonal(_coerce_entry(t1), _coerce_entry(t2), 0))


def conj_relation(root: str) -> bool:
    """Symbolic check: [t] g(root, x) [t]^{-1} = g(root, char(t) x).

    ``torus_elem`` is diag(chi(mu_i)) over the standard weights mu_i, so
    entry (i, j) of t g t^{-1} is chi(mu_i - mu_j) g_ij, and the diagonal of
    g(root, x) is 1.  Entry (i, j) of g(root, x) is c x^p, times 1/a or not,
    with c nonzero, and chi is injective (see ``_exponents``), so the
    identity holds exactly when mu_i - mu_j = p root for every entry
    (i, j, c, p, div_a) of the generator table."""
    if root not in _GEN_ENTRIES:
        raise ValueError(f"unsupported root {root!r}; expected one of {ROOT_NAMES}")
    mu = kostant.R7_WEIGHTS_MODEL
    r = _ROOTS[root]
    return all(mu[i - 1] - mu[j - 1] == power * r for (i, j, _, power, _) in _GEN_ENTRIES[root])


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
    for row in m.nonzero:
        if len(row) != 1:
            raise ValueError("matrix is not monomial")
        (j,) = row
        perm.append(j + 1)
    if sorted(perm) != list(range(1, 8)):
        raise ValueError("matrix is not monomial")
    return tuple(perm)


def weyl_word_to_s7(word: str) -> Perm7:
    """The permutation of the monomial representative `weyl_rep(word)`.

    A product of monomial matrices is monomial, with
    perm(MN) = compose_perms(perm(M), perm(N)), so the generators'
    permutations are composed letter by letter and no matrix is multiplied."""
    gens = {"a": perm_of_monomial(W_TILDE_A), "b": perm_of_monomial(W_TILDE_B)}
    out: Perm7 = tuple(range(1, 8))
    for letter in word:
        if letter not in gens:
            raise ValueError(f"unknown reflection letter {letter!r}")
        out = compose_perms(out, gens[letter])
    return out


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


def in_P232(m: SymMatrix) -> bool:
    """Membership in the standard block-upper parabolic of ``_BLOCKS``: the
    entries whose row lies in a later block than their column vanish."""
    block = {i: k for k, b in enumerate(_BLOCKS) for i in b}
    return all(m[i - 1, j - 1].is_zero() for i in block for j in block if block[i] > block[j])


def perm_in_w232(p: Perm7) -> bool:
    """Whether a permutation preserves each of the blocks {1,2}, {3,4,5},
    {6,7} set-wise."""
    return all(all(p[i - 1] in block for i in block) for block in _BLOCKS)


# M_1 and M_2, the relations as bilinear forms in rows 1 and 2, given by their
# nonzero entries (row-1 index, row-2 index) -> coefficient, 0-indexed:
# r1 = 2 h13 h22 - 2 h12 h23 + h14 h21 - h11 h24 and
# r2 = 2 h11 h25 - 2 h15 h21 + h14 h22 - h12 h24.
_RELATION_FORMS: Tuple[Dict[Tuple[int, int], int], ...] = (
    {(2, 1): 2, (1, 2): -2, (3, 0): 1, (0, 3): -1},
    {(0, 4): 2, (4, 0): -2, (3, 1): 1, (1, 3): -1},
)


def coeff_relations(rows):
    """The pair of quadratic combinations of upper-left entries that vanish on
    the short-root parabolic, read off the first two rows of a matrix
    (dense rows of ``RFrac`` or of ``MPoly`` entries): each form of
    ``_RELATION_FORMS`` evaluated at rows 1 and 2."""
    u, v = rows[:2]
    return tuple(sum(c * (u[i] * v[j]) for (i, j), c in form.items()) for form in _RELATION_FORMS)


def coeff_relations_hold(h: SymMatrix) -> bool:
    r1, r2 = coeff_relations((h.row(0), h.row(1)))
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
    return {
        "weyl_images_in_block_weyl_group": in_block,
        "all_generators_contained": all(in_P232(parabolic_generator(name)) for name in GENERATOR_NAMES),
    }


# ---------------------------------------------------------------------------
# The coefficient relations on the whole parabolic, and the word probe.
#
# The relations read rows 1-2 and columns 1-5 only.  Every generator is
# block-upper-triangular for (2,3,2), so those of h * g are those of h times
# columns 1-5 of g, where no entry divides by a.  The torus is scaled by t1*t2
# to clear its inverses; the relations are homogeneous quadratics, so the
# scaling does not change which of them vanish.
#
# Each relation is a bilinear form in the two rows, r_k(h) = h1 M_k h2^T with
# M_k in _RELATION_FORMS, so r_k(h g) = h1 (G M_k G^T) h2^T for the 5x5 block
# G of g, for every h.  Split by the monomials m of g's own symbols,
# G M_k G^T is the sum of m N_m with each N_m constant.  The N_m of all
# generators are interned into one table up to a nonzero rational scalar,
# seeded with M_1 and M_2; the 16 pulled-back forms add no class to it (the
# x-parts of b and -b are -M_1 and -M_2).
#
# The certificate reads that table: when every N_m of g is c_m times M_1 or
# M_2, r(h g) is the sum of m c_m r(h) term by term, so it lies in the span
# of r(h) for every h, and r vanishes on every product of generators once it
# vanishes at the identity.  The probe checks the relations word by word, for
# the triform subcommand and as the certificate's oracle in the tests.  A
# factor of a word has fresh symbols, which its prefix h never uses, so
# r_k(h g) vanishes iff every N_m vanishes on the rows of h, and a form
# vanishes exactly where a nonzero multiple of it does.  The probe evaluates
# each table form once per prefix with ``MPoly.bilinear``, which sums its
# (coefficient, i, j) terms with no intermediate polynomial, and a product
# passes iff the forms of its last generator all vanish.  So the walk builds
# rows only for proper prefixes, with ``*`` and ``+``, whose one-term shift
# suits the sparse columns.

SparseCols = Tuple[Tuple[Tuple[int, MPoly], ...], ...]
FormTerms = Tuple[Tuple[Scalar, int, int], ...]
Rows = Tuple[Tuple[MPoly, ...], ...]

_IDENTITY_ROWS = tuple(tuple(MPoly.one() if j == i else MPoly.zero() for j in range(5)) for i in (0, 1))


def _poly_generator_columns(name: str, suffix: str) -> SparseCols:
    """Columns 1-5 of a generator (the torus scaled by t1*t2), each as its
    nonzero (row, entry) pairs."""
    if name == "torus":
        diag = _torus_diagonal(MPoly.var("t1" + suffix), MPoly.var("t2" + suffix), 1)
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


def _relation_parts(cols: SparseCols) -> Tuple[Dict[int, FormTerms], ...]:
    """For each relation form M_k, the split of G M_k G^T for the 5x5 block G
    given by its columns, the sum of m N_m over packed monomials m, as
    {m: N_m}.  Each N_m is a constant form given by the (coefficient, i, j)
    terms that ``MPoly.bilinear`` sums, sorted by (i, j), so equal forms are
    equal tuples."""
    out = []
    for form in _RELATION_FORMS:
        entries: Dict[Tuple[int, int], List[Tuple[int, MPoly, MPoly]]] = {}
        for (a, b), c in form.items():
            for i, gi in cols[a]:
                for j, gj in cols[b]:
                    entries.setdefault((i, j), []).append((c, gi, gj))
        parts: Dict[int, List[Tuple[Scalar, int, int]]] = {}
        for i, j in sorted(entries):
            for m, c in MPoly.sum_of_products(entries[i, j]).terms.items():
                parts.setdefault(m, []).append((c, i, j))
        out.append({m: tuple(terms) for m, terms in parts.items()})
    return tuple(out)


def _primitive_key(part: FormTerms) -> Tuple[Tuple[int, int, int], ...]:
    """A constant form up to a nonzero rational scalar: its (c, i, j) with
    the coefficients scaled to coprime integers, the first one positive.
    Integral coefficients take ``int`` arithmetic only."""
    coeffs = [c for c, _, _ in part]
    if not all(type(c) is int for c in coeffs):
        scale = lcm(*(c.denominator for c in coeffs))
        coeffs = [int(c * scale) for c in coeffs]
    g = gcd(*coeffs)
    if coeffs[0] < 0:
        g = -g
    return tuple((c // g, i, j) for c, (_, i, j) in zip(coeffs, part))


def _relation_table() -> Tuple[Tuple[FormTerms, ...], Dict[str, FrozenSet[int]]]:
    """M_1 and M_2 as entries 0 and 1, then one constant form for each other
    class, up to a nonzero scalar, among the ``_relation_parts`` of every
    generator (the first one met), and for each generator name the indices
    of its own.  Built on each call, so it always reads the current
    ``_RELATION_FORMS`` and ``_GEN_ENTRIES``."""
    table = [tuple((c, i, j) for (i, j), c in sorted(form.items())) for form in _RELATION_FORMS]
    index = {_primitive_key(form): k for k, form in enumerate(table)}
    parts: Dict[str, FrozenSet[int]] = {}
    for name in GENERATOR_NAMES:
        own = set()
        for split in _relation_parts(_poly_generator_columns(name, "")):
            for part in split.values():
                k = index.setdefault(_primitive_key(part), len(table))
                if k == len(table):
                    table.append(part)
                own.add(k)
        parts[name] = frozenset(own)
    return tuple(table), parts


def _failing_forms(table: Tuple[FormTerms, ...], rows: Rows) -> FrozenSet[int]:
    """The indices of the forms in ``table`` that do not vanish on two rows
    of five entries."""
    u, v = rows
    return frozenset(k for k, form in enumerate(table) if MPoly.bilinear(form, u, v).terms)


def _rows_mul(rows: Rows, cols: SparseCols) -> Rows:
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


def coeff_relations_certificate() -> List[str]:
    """Prove both coefficient relations on the short-root parabolic, which
    the GENERATOR_NAMES generate: r = (r1, r2) vanishes at the identity, and
    for each generator g every constant form N_m of its ``_relation_parts``
    is c_m times M_1 or M_2, entries 0 and 1 of ``_relation_table``.  Then
    r(h g) is the sum of m c_m r(h) for every h, which lies in the span of
    r(h), so r vanishes on every product of generators.  Returns "identity"
    if r(1) != 0, then the generators with a constant form in a further
    table class."""
    failing = [] if all(r.is_zero() for r in coeff_relations(_IDENTITY_ROWS)) else ["identity"]
    _, parts = _relation_table()
    return failing + [name for name in GENERATOR_NAMES if any(k >= 2 for k in parts[name])]


def walk_parabolic_words(
    max_length: int,
    visit: Callable[[Tuple[str, ...], Rows, bool], None],
) -> int:
    """Walk every product of parabolic generators of 1 to ``max_length``
    factors in pre-order, with fresh symbols per factor (suffix = 1-based
    position).  ``visit(word, rows, holds)`` sees each product, ``word``
    being its tuple of generator names, ``rows`` rows 1-2 and columns 1-5 of
    its proper prefix ``word[:-1]`` (the torus scaled as described above)
    and ``holds`` whether both relations vanish on the product: whether the
    ``_relation_table`` forms of its last generator all vanish on ``rows``.
    Each table form is evaluated once per prefix, and rows and generator
    columns are built for the proper prefixes only, the words shorter than
    ``max_length``.  Returns the number of products visited; ``max_length``
    0 visits none, and a negative one raises ``ValueError``."""
    if max_length < 0:
        raise ValueError(f"word length bound must be at least 0, got {max_length}")
    if not max_length:
        return 0
    table, parts = _relation_table()
    steps_by_depth = [
        [(name, parts[name], _poly_generator_columns(name, str(depth)) if depth < max_length else None)
         for name in GENERATOR_NAMES]
        for depth in range(1, max_length + 1)
    ]
    visited = 0

    def dfs(rows, word):
        nonlocal visited
        depth = len(word) + 1
        failing = _failing_forms(table, rows)
        for name, needs, cols in steps_by_depth[depth - 1]:
            new_word = word + (name,)
            visit(new_word, rows, failing.isdisjoint(needs))
            visited += 1
            if cols is not None:
                dfs(_rows_mul(rows, cols), new_word)

    dfs(_IDENTITY_ROWS, ())
    return visited


def coeff_relations_probe(max_length: int = 4) -> Dict[str, object]:
    """Verify both coefficient relations symbolically on every product of
    parabolic generators up to the given word length (fresh symbols per
    factor), each from the rows of its prefix and the constant relation
    forms of its last generator (see ``walk_parabolic_words``).  Returns
    counts; raises AssertionError, explicitly so that ``python -O`` keeps
    it, naming the first word in pre-order on which a relation fails, and
    ValueError for a negative length."""

    def visit(word, rows, holds):
        if not holds:
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
#
# The infinitesimal stabilizer {X in gl7 : X.phi = 0} of any tensor phi is a
# Lie subalgebra of gl7.  When X -> X.phi has rank 35 on the 49 entries of X,
# the stabilizer has dimension 14, so 14 independent members with zero residue
# span it, and it is closed under brackets: no bracket is expanded in the
# basis.  Centralizers come from rank-nullity on ambient brackets (see
# ``LieG2.centralizer_dim``).

def _linear_coefficient(root: str) -> SymMatrix:
    """d/dx g(root, x) at x = 0."""
    out = [[R_ZERO] * 7 for _ in range(7)]
    for (i, j, coeff, power, div_a) in _GEN_ENTRIES[root]:
        if power != 1:
            continue
        val = RFrac.const(coeff)
        if div_a:
            val = val * _A_INV
        out[i - 1][j - 1] = val
    return SymMatrix(out)


# The Cartan directions d/dt1 and d/dt2 of the torus at 1.
H1, H2 = (SymMatrix.diagonal(col) for col in zip(*map(_exponents, kostant.R7_WEIGHTS_MODEL)))

_TRIPLES = tuple((i, j, k) for i in range(1, 8) for j in range(i + 1, 8) for k in range(j + 1, 8))
_TRIPLE_INDEX = {t: n for n, t in enumerate(_TRIPLES)}


def bracket(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    return x * y - y * x


def _sparse_vec(m: SymMatrix) -> Tuple[Tuple[int, RFrac], ...]:
    """The nonzero entries of a 7x7 matrix as (7 * row + col, entry), 0-indexed."""
    return tuple((7 * i + j, x) for i, row in enumerate(m.nonzero) for j, x in row.items())


def derivation_rank(form: AltTriForm) -> int:
    """The rank of X -> X.form on gl7: its 49 rows are the residues of the
    unit matrices, each over the 35 sorted triples."""
    rows = []
    for n in range(49):
        unit = _matrix(tuple({n % 7: R_ONE} if i == n // 7 else {} for i in range(7)), 7)
        residue = form_derivation_residue(unit, form).coeffs
        rows.append({_TRIPLE_INDEX[t]: c for t, c in residue.items()})
    return len(row_reduce(rows, len(_TRIPLES)))


class LieG2:
    """The 14-dimensional Lie algebra of the form stabilizer: 2 torus
    directions plus 12 root vectors, as 7x7 matrices B_j with names, and the
    ambient brackets [B_i, B_j] as sparse 49-vectors.  Elements are passed
    as {basis name: coefficient}.

    The constructor raises ``ValueError`` if the 14 matrices are dependent.
    It records the proof that they span the stabilizer of ``generic_form()``:
    ``derivation_rank``, the rank of X -> X.phi over Q(a), and
    ``nonstabilizing``, the basis names whose residue is nonzero.  Rank 35
    and no such name prove it, and then the span is closed under brackets."""

    def __init__(self):
        w_long = weyl_rep("ababab")
        w_long_inv = w_long.inverse()
        basis: List[Tuple[str, SymMatrix]] = [("h1", H1), ("h2", H2)]
        pos_names = ROOT_NAMES[:-1]
        for name in pos_names:
            basis.append((f"e[{name}]", _linear_coefficient(name)))
        for name in pos_names:
            e = _linear_coefficient(name)
            basis.append((f"e[-({name})]", w_long * e * w_long_inv))
        self.names: Tuple[str, ...] = tuple(n for n, _ in basis)
        self.matrices: Tuple[SymMatrix, ...] = tuple(m for _, m in basis)
        if len(row_reduce([dict(_sparse_vec(m)) for m in self.matrices], 49)) < 14:
            raise ValueError("basis matrices are linearly dependent")
        form = generic_form()
        self.derivation_rank = derivation_rank(form)
        self.nonstabilizing: Tuple[str, ...] = tuple(
            name for name, m in basis if form_derivation_residue(m, form).coeffs
        )
        # [B_j, B_i] = -[B_i, B_j], and [B_i, B_i] = 0.
        self._brackets = [[()] * 14 for _ in range(14)]
        for i in range(14):
            for j in range(i + 1, 14):
                vec = _sparse_vec(bracket(self.matrices[i], self.matrices[j]))
                self._brackets[i][j] = vec
                self._brackets[j][i] = tuple((k, -v) for k, v in vec)
        self._centralizer_dims: Dict[Tuple, int] = {}

    def by_name(self, name: str) -> SymMatrix:
        return self.matrices[self.names.index(name)]

    def element(self, coeffs: Mapping[str, Scalar]) -> SymMatrix:
        """The matrix of {basis name: coefficient}; the zero matrix for {}."""
        out = SymMatrix.zero(7, 7)
        for name, c in coeffs.items():
            b = self.by_name(name)
            out = out + (b if c == 1 else b.scale(c))
        return out

    def bracket_rows(self, x: Mapping[str, Scalar]) -> List[Dict[int, RFrac]]:
        """vec([x, B_j]) for the 14 basis matrices B_j, as {7 * row + col:
        entry} dicts of the nonzero entries, summed from the cached ambient
        brackets: [x, B_j] is the sum of x_i [B_i, B_j]."""
        rows: List[Dict[int, RFrac]] = [{} for _ in range(14)]
        for name, c in x.items():
            brackets = self._brackets[self.names.index(name)]
            if c == 0:
                continue
            for row, vec in zip(rows, brackets):
                for k, v in vec:
                    _add_to(row, k, v * c)
        return rows

    def centralizer_dim(self, *xs: Mapping[str, Scalar]) -> int:
        """Dimension of the joint centralizer of ``xs`` in the span: 14 minus
        the rank of the 14 rows vec([x1, B_j]) || ... || vec([xm, B_j]).  The
        sum of y_j B_j commutes with every x_k iff y is in the left kernel of
        those rows; this needs neither coordinates nor closure.  The
        dimension is memoised on the instance, keyed by the sorted items of
        each x."""
        key = tuple(tuple(sorted(x.items())) for x in xs)
        dim = self._centralizer_dims.get(key)
        if dim is None:
            rows = [
                {49 * n + k: v for n, part in enumerate(parts) for k, v in part.items()}
                for parts in zip(*(self.bracket_rows(x) for x in xs))
            ]
            dim = self._centralizer_dims[key] = 14 - len(row_reduce(rows, 49 * len(xs)))
        return dim


_LIE_CACHE: Optional[LieG2] = None


def lie_basis() -> LieG2:
    global _LIE_CACHE
    if _LIE_CACHE is None:
        _LIE_CACHE = LieG2()
    return _LIE_CACHE


def torus_direction(c1: Q, c2: Q) -> SymMatrix:
    return H1.scale(RFrac.const(c1)) + H2.scale(RFrac.const(c2))


# The subregular nilpotent e = e[a] + e[a+3b], and the f that completes it and
# h = torus_direction(2, 2) to an sl2-triple, as {basis name: coefficient}.
SUBREGULAR_E = {"e[a]": 1, "e[a+3b]": 1}
SL2_WITNESS = {"e[-(a)]": -2, "e[-(a+3b)]": -2}


def subregular_sl2_triple() -> Tuple[SymMatrix, SymMatrix, SymMatrix]:
    """(e, h, f): the subregular nilpotent ``SUBREGULAR_E``, the torus
    direction (2, 2) and the witness f of ``SL2_WITNESS``."""
    lie = lie_basis()
    return lie.element(SUBREGULAR_E), torus_direction(2, 2), lie.element(SL2_WITNESS)


def zeta_witness() -> Dict[str, bool]:
    """Two elements centralizing the subregular nilpotent e over the ring
    with a primitive cube root of unity zeta: the short coroot evaluated at
    zeta, and the short-root Weyl representative.

    The short coroot at zeta is D = diag(zeta^<mu_i, b_cov>) over the
    standard weights mu_i, so entry (i, j) of D e D^-1 - e is
    (zeta^m - 1) e_ij with m = <mu_i - mu_j, b_cov>, and zeta^m = 1 exactly
    when 3 | m.  e is read off the two generators, so the witness does not
    rest on the Lie basis, whose negative root vectors are built with the
    Weyl representatives."""
    e = _linear_coefficient("a") + _linear_coefficient("a+3b")
    mu = kostant.R7_WEIGHTS_MODEL
    coch_ok = all(
        (mu[i] - mu[j]).pair_coroot(BETA) % 3 == 0
        for i, row in enumerate(e.nonzero) for j in row
    )
    wb = W_TILDE_B
    wb_ok = (wb * e) == (e * wb)
    return {"short_coroot_at_zeta_centralizes": coch_ok, "weyl_rep_centralizes": wb_ok}
