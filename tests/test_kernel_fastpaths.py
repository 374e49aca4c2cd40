"""The algebra kernel's shortcuts agree with its general path.

`RFrac` is a Laurent polynomial on signed packed keys, whose `num`/`den`
are derived, and a product with 1 returns the other operand; `MPoly`
scales by a constant factor term by term; `SymMatrix` multiplies over the
nonzero entries only.  Each result must give exactly the `num`/`den` (not
just an equal value) that the general path gives, since report strings are
printed from them.  The operand rule of
`MPoly` and `RFrac` (an operator takes its own type or a scalar, an `int`,
`bool` included, or a `Fraction`, and returns `NotImplemented` for anything
else) is checked directly: mixed `MPoly`/`RFrac` arithmetic raises
`TypeError` in both orders, `==` across the two types and with scalars is
the value answer, and `RFrac * Weight` reflects.  The scalar lane of `*`,
`+`, `-` and `/` is checked in both operand orders against the same
operation on the constant operand, with the coercers patched to fail;
`RFrac ** n` against the constructor on the powers of the parts, with
`inv` patched to fail for n >= 0; `eval`'s sum against the constant that `subs`
leaves, and its errors against the rule they follow; and the sparse 2x2
minors of `wedge2_standard` against the dense minor formula.

`MPoly` stores each monomial as one packed `int` over a process-wide
variable registry and integral coefficients as `int`, and builds its
results without re-canonicalising, so every result is checked against the
representation invariants, read through the decoded exponent-tuple view.
`+`, `-` and `*` on packed keys are checked against a reference on
exponent tuples aligned by a two-pointer merge, and the guard bits against
exponent overflow at the largest exponent and one past it.
`MPoly.sum_of_products`, which also multiplies two polynomials of several
terms, is checked against the naive sum of products and the tuple-keyed
reference, down to the shared zero object when everything cancels, and so is
`MPoly.bilinear`, the same accumulation over a constant bilinear form.  The
per-call shortcuts (fused subtraction, products with a one-term factor, scalar
`subs`, the sparse row update of `row_reduce` and its cross-multiplication,
which skips zero entries, matrix difference) are each
checked against the path they replace, structurally.  So are the derived
`num`/`den`, the text and `+ - * /` of `RFrac` (against a general
normaliser of numerator/denominator pairs by monomial gcd, monic rescale
and exact division, kept here as a reference), its signed exponent range,
`subs` at a pole and with polynomial values, and the product of two
polynomial matrices (against the dense triple loop).  Polynomial arithmetic, `RFrac` equality and arithmetic
and the division paths are also checked against sympy as an independent
oracle: a quotient f / g raises `ArithmeticError` exactly when g's numerator
has more than one term, even where sympy finds a Laurent polynomial, and
otherwise equals sympy's; and the one row reduction behind `rank` and
`inverse` runs with and without unit pivots.  Those results are compared by
cross-multiplication in a sympy polynomial ring.  `det`, an expansion by
minors, gives the parts of the Leibniz sum over permutations, which needs no
sympy, and equals sympy's determinant, on polynomial and on
rational-function matrices.  The division rule and the refusal of a scalar
`SymMatrix` product are also checked under `python -O`.
"""

import itertools
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import algebra
from g2forge.algebra import (
    _INDEX,
    _MAX_EXP,
    _ONE,
    MPoly,
    R_ONE,
    R_ZERO,
    RFrac,
    SymMatrix,
    row_reduce,
)
from g2forge.lattice import WEDGE_BASIS_4, WEDGE_BASIS_5, basis_matrix, wedge2_standard
from g2forge.roots import Weight
from g2forge.triform import weyl_rep

VARS = ("a", "x", "y")

coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(Q, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)),
)
monomials = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in VARS))


@st.composite
def polys(draw, max_terms=3):
    """Small polynomials in a, x, y: zero, constants and general ones, built
    by arithmetic or by the normalizing constructor (which also sees zero
    coefficients, integral `Fraction`s and unused variables)."""
    terms = draw(st.lists(st.tuples(monomials, coefficients), max_size=max_terms))
    if draw(st.booleans()):
        return MPoly(VARS, dict(terms))
    out = MPoly.zero()
    for exps, c in terms:
        mono = MPoly.const(c)
        for name, e in zip(VARS, exps):
            mono = mono * MPoly.var(name) ** e
        out = out + mono
    return out


# "z" never occurs in `polys()`, so some denominator variables are absent
# from the numerator.
DEN_VARS = ("a", "x", "z")
nonunit_coefficients = st.one_of(
    st.sampled_from((-1, 2, -3, Q(1, 2), Q(-2, 3))), coefficients.filter(bool)
)


@st.composite
def one_term_polys(draw):
    exps = draw(st.tuples(*(st.integers(min_value=0, max_value=3) for _ in DEN_VARS)))
    return MPoly(DEN_VARS, {exps: draw(nonunit_coefficients)})


A = MPoly.var("a")
DENOMINATORS = (MPoly.one(), MPoly.const(2), A, A * A, 3 * A, A * MPoly.var("x"))


@st.composite
def rfracs(draw):
    """Rational functions with denominator 1 or a small monomial in a and x,
    built through the normalizing constructor."""
    return RFrac(draw(polys()), draw(st.sampled_from(DENOMINATORS)))


def same(f: RFrac, g: RFrac) -> bool:
    """Structural identity of two rational functions: the stored terms, the
    derived parts and the text."""
    return f.terms == g.terms and same_poly(f.num, g.num) and same_poly(f.den, g.den) and str(f) == str(g)


def general_add(f: RFrac, g: RFrac) -> RFrac:
    """Addition through the normalizing constructor, without shortcuts."""
    if f.den == g.den:
        return RFrac(f.num + g.num, f.den)
    return RFrac(f.num * g.den + g.num * f.den, f.den * g.den)


def general_mul(f: RFrac, g: RFrac) -> RFrac:
    return RFrac(f.num * g.num, f.den * g.den)


class TestRFracShortcuts:
    @given(rfracs(), rfracs())
    @settings(max_examples=200, deadline=None)
    def test_add_sub_mul_match_the_normalizing_constructor(self, f, g):
        assert same(f + g, general_add(f, g))
        assert same(f - g, general_add(f, -g))
        assert same(f * g, general_mul(f, g))

    @given(rfracs())
    @settings(max_examples=100, deadline=None)
    def test_zero_operand(self, f):
        assert (f + R_ZERO) is f
        assert same(R_ZERO + f, f)
        assert (f * R_ZERO).is_zero() and (R_ZERO * f).is_zero()
        assert (f * R_ZERO).den is _ONE
        assert same(f + 0, general_add(f, RFrac.const(0)))

    @given(rfracs(), rfracs())
    @settings(max_examples=100, deadline=None)
    def test_denominator_one_is_the_shared_object(self, f, g):
        for h in (f, g, f + g, f - g, f * g, -f, RFrac(f.num, f.den)):
            if h.den == _ONE:
                assert h.den is _ONE

    def test_denominator_one_after_cancellation(self):
        x = MPoly.var("x")
        f = RFrac(x * x, 2 * x)
        assert str(f) == "1/2*x"
        assert f.den is _ONE
        assert RFrac(x, MPoly.const(1)).den is _ONE


class TestMPolyConstantFactor:
    @given(polys(), coefficients)
    @settings(max_examples=100, deadline=None)
    def test_matches_term_by_term_product(self, p, c):
        names, terms = p.decoded()
        expected = MPoly(names, {e: d * c for e, d in terms.items()})
        for product in (p * c, MPoly.const(c) * p, p * MPoly.const(c)):
            assert product.vars == expected.vars and product.terms == expected.terms

    def test_unit_factor_returns_the_other_factor(self):
        p = MPoly.var("x") + 1
        assert p * 1 is p and MPoly.one() * p is p


# Scalars as the kernel sees them, 0, 1, integral Fractions and bools included.
scalars = st.one_of(coefficients, st.sampled_from((0, 1, -1, Q(0), Q(1), Q(2, 2), Q(4, 2), Q(3, 2), True, False)))


def refuse(x):
    pytest.fail(f"coerced {x!r}")


class TestScalarLane:
    """`int` and `Fraction` operands never become a constant operand: no
    coercer runs.  The reference is the same operation on that constant,
    and for `RFrac` also the normalizing constructor on it."""

    @given(rfracs(), scalars)
    @settings(max_examples=200, deadline=None)
    def test_rfrac_operations_match_the_coercing_path(self, f, c):
        k, built = RFrac.const(c), RFrac(MPoly.const(c))
        assert same(f * c, f * k) and same(f * c, general_mul(f, built))
        assert same(c * f, k * f) and same(c * f, general_mul(built, f))
        assert same(f + c, f + k) and same(f + c, general_add(f, built))
        assert same(c + f, k + f) and same(c + f, general_add(built, f))
        assert same(f - c, f - k) and same(f - c, general_add(f, -built))
        assert same(c - f, k - f) and same(c - f, general_add(built, -f))
        quotients = ()
        if c:
            quotients = (f / c,)
            assert same(f / c, RFrac(f.num, f.den * c))
        for h in (f * c, c * f, f + c, c + f, f - c, c - f) + quotients:
            if h.den == _ONE:
                assert h.den is _ONE

    @given(polys(), scalars)
    @settings(max_examples=200, deadline=None)
    def test_mpoly_operations_match_the_coercing_path(self, p, c):
        k = MPoly.const(c)
        pairs = ((p * c, p * k), (c * p, k * p), (p + c, p + k), (c + p, k + p), (p - c, p - k), (c - p, k - p))
        if c:
            pairs += ((p / c, p * MPoly.const(1 / Q(c))),)
        for fast, coerced in pairs:
            assert same_poly(fast, coerced)
            assert_canonical(fast)

    @given(rfracs())
    @settings(max_examples=100, deadline=None)
    def test_a_unit_operand_returns_the_other_operand(self, f):
        expected = f if f else R_ZERO
        # When f is 1 itself, either operand is the product.
        either = f == 1
        for one in (R_ONE, RFrac.const(1), RFrac.const(Q(2, 2)), 1, Q(1)):
            for product in (f * one, one * f):
                assert product is expected or (either and product is one)
        p = f.num
        assert p * 1 is p and 1 * p is p and p * Q(1) is p
        assert (f + 0) is f and (f - Q(0)) is f
        # 1/a has the numerator 1 and is no unit.
        inverse = RFrac(MPoly.one(), A)
        assert inverse.num == _ONE and inverse.terms != R_ONE.terms
        assert same(f * inverse, general_mul(f, inverse)) and same(inverse * f, general_mul(inverse, f))

    def test_const_shares_zero_and_one(self):
        assert RFrac.const(0) is R_ZERO and RFrac.const(Q(0)) is R_ZERO
        assert RFrac.const(1) is R_ONE and RFrac.const(Q(2, 2)) is R_ONE
        assert R_ZERO.terms == {} and R_ZERO.num is MPoly.zero() and R_ZERO.den is _ONE
        assert R_ONE.terms == {0: 1} and R_ONE.den is _ONE
        assert RFrac.const(Q(3, 2)).den is _ONE and RFrac.var("x").den is _ONE
        assert str(RFrac.const(Q(3, 2))) == "3/2" and str(RFrac.var("x")) == "x"

    def test_a_fraction_that_makes_the_coefficients_integral(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        p = Q(2, 3) * x + Q(4, 3) * y + Q(2, 3)
        for c in (Q(3, 2), Q(9, 2), 3):
            for product in (p * c, c * p):
                assert same_poly(product, p * MPoly.const(c))
                assert all(type(d) is int for d in product.terms.values())
        assert str(p * Q(3, 2)) == "x + 2*y + 1"
        f = RFrac(p, MPoly.var("a"))
        assert same(f * 3, general_mul(f, RFrac(MPoly.const(3))))
        assert all(type(c) is int for c in (f * 3).num.terms.values())

    def test_scalar_operands_never_coerce(self, monkeypatch):
        x, a = MPoly.var("x"), MPoly.var("a")
        polynomials = [MPoly.zero(), MPoly.one(), x + 1, Q(1, 2) * x * a - 3]
        fracs = [R_ZERO, R_ONE, RFrac(x + 1), RFrac(x * x - 2, a), RFrac(Q(1, 3) * x, 2 * a * a)]
        monkeypatch.setattr(algebra, "_coerce_entry", refuse)
        monkeypatch.setattr(algebra, "_coerce_poly", refuse)
        for c in (0, 1, -1, 3, Q(1, 2), Q(4, 2), True, False):
            for h in fracs + polynomials:
                h * c, c * h, h + c, c + h, h - c, c - h, h == c, c == h
                if c:
                    h / c
            for f, p in zip(fracs, polynomials):
                f == p, p == f, f != p, p != f


class TestOperandRule:
    """An operator of `MPoly` or `RFrac` takes its own type or a scalar, and
    returns `NotImplemented` for anything else, so arithmetic never mixes
    the two types; `==` compares them by value."""

    @given(polys(), rfracs())
    @settings(max_examples=100, deadline=None)
    def test_mixed_arithmetic_raises_in_both_orders(self, p, f):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for a, b in ((p, f), (f, p)):
                with pytest.raises(TypeError):
                    op(a, b)

    @given(polys(), rfracs(), scalars)
    @settings(max_examples=200, deadline=None)
    def test_equality_across_types_is_the_value_answer(self, p, f, c):
        # A polynomial's RFrac has den 1, and a scalar is a constant.
        for a, b, equal in (
            (p, f, f.den is _ONE and f.num.terms == p.terms),
            (p, RFrac(p), True),
            (p, c, p.terms == MPoly.const(c).terms),
            (f, c, f.den is _ONE and f.num.terms == MPoly.const(c).terms),
            (MPoly.const(c), c, True),
            (RFrac.const(c), c, True),
        ):
            assert (a == b) is equal and (b == a) is equal
            assert (a != b) is not equal and (b != a) is not equal

    def test_other_operands_return_not_implemented_uncoerced(self, monkeypatch):
        x = MPoly.var("x")
        monkeypatch.setattr(algebra, "_coerce_entry", refuse)
        monkeypatch.setattr(algebra, "_coerce_poly", refuse)
        names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__")
        for value, other in ((x + 1, RFrac(x)), (RFrac(x, MPoly.var("a")), x + 1)):
            for bad in (other, 0.5, "x", None, Weight(1, 2)):
                for name in names:
                    if hasattr(value, name):
                        assert getattr(value, name)(bad) is NotImplemented, (name, bad)
                if bad is not other:
                    assert value.__eq__(bad) is NotImplemented, bad
        # `MPoly` leaves the comparison with an `RFrac` to `RFrac.__eq__`.
        assert (x + 1).__eq__(RFrac(x)) is NotImplemented

    def test_a_weight_reflects(self):
        f, w = RFrac(MPoly.var("x"), MPoly.var("a")), Weight(1, 2)
        assert f * w == Weight(f, 2 * f)
        assert MPoly.var("x") * w == Weight(MPoly.var("x"), 2 * MPoly.var("x"))


class TestPower:
    @given(rfracs(), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_normalizing_constructor(self, f, n):
        # A power of a normal form is normal: valuations multiply.  A
        # negative power inverts first, which raises as `inv` does.
        if n >= 0:
            expected = RFrac(f.num ** n, f.den ** n)
        elif not f.num.terms:
            expected = ZeroDivisionError
        elif len(f.num.terms) > 1:
            expected = ArithmeticError
        else:
            expected = RFrac(f.den ** -n, f.num ** -n)
        if isinstance(expected, RFrac):
            assert same(f ** n, expected)
            if expected.den == _ONE:
                assert (f ** n).den is _ONE
        else:
            with pytest.raises(expected):
                f ** n

    @given(rfracs(), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_a_nonnegative_power_never_inverts(self, f, n):
        expected = RFrac(f.num ** n, f.den ** n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RFrac, "inv", refuse)
            assert same(f ** n, expected)


ENTRIES = (
    RFrac.const(0),
    RFrac.const(1),
    RFrac.const(-1),
    RFrac.var("x"),
    RFrac(MPoly.one(), A),
    RFrac(MPoly.var("x") ** 2, A),
)


def dense_product(m: SymMatrix, n: SymMatrix) -> list:
    """The textbook triple loop, zero products included."""
    out = []
    for i in range(m.rows):
        row = []
        for j in range(n.cols):
            acc = RFrac.const(0)
            for k in range(m.cols):
                acc = acc + m[i, k] * n[k, j]
            row.append(acc)
        out.append(row)
    return out


@st.composite
def sparse_matrices(draw, rows=7, cols=7):
    """Mostly-zero matrices over ENTRIES."""
    weights = st.sampled_from((0,) * 6 + tuple(range(len(ENTRIES))))
    return SymMatrix([[ENTRIES[draw(weights)] for _ in range(cols)] for _ in range(rows)])


class TestSparseProduct:
    @given(sparse_matrices(), sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_triple_loop(self, m, n):
        product = m * n
        expected = dense_product(m, n)
        for i in range(7):
            for j in range(7):
                assert same(product[i, j], expected[i][j])

    @given(sparse_matrices(rows=2, cols=3), sparse_matrices(rows=3, cols=4))
    @settings(max_examples=30, deadline=None)
    def test_rectangular(self, m, n):
        product = m * n
        assert (product.rows, product.cols) == (2, 4)
        expected = dense_product(m, n)
        assert all(same(product[i, j], expected[i][j]) for i in range(2) for j in range(4))


def to_sympy(sp, p: MPoly):
    names, terms = p.decoded()
    symbols = [sp.Symbol(v) for v in names]
    total = sp.Integer(0)
    for exps, c in terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, exps):
            term *= s**e
        total += term
    return sp.expand(total)


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_polynomial_arithmetic_matches_sympy(p, q):
    sp = pytest.importorskip("sympy")
    P, R = to_sympy(sp, p), to_sympy(sp, q)
    assert sp.expand(to_sympy(sp, p * q) - P * R) == 0
    assert sp.expand(to_sympy(sp, p + q) - (P + R)) == 0
    assert sp.expand(to_sympy(sp, p - q) - (P - R)) == 0


def with_fraction_coefficients(p: MPoly) -> MPoly:
    """`p` with every coefficient stored as a `Fraction`, integral ones
    included, which the constructor would normalise away."""
    out = object.__new__(MPoly)
    MPoly.terms.__set__(out, {k: Q(c) for k, c in p.terms.items()})
    return out


def assert_canonical(p: MPoly) -> None:
    """The representation invariants of an `MPoly`, read through its
    decoded exponent tuples."""
    names, terms = p.decoded()
    assert names == p.vars
    assert list(names) == sorted(set(names))
    for e in terms:
        assert len(e) == len(names) and all(0 <= x <= _MAX_EXP for x in e), e
    for c in terms.values():
        assert type(c) is int or (type(c) is Q and c.denominator != 1), repr(c)
        assert c != 0
    for i, name in enumerate(names):
        assert any(e[i] for e in terms), f"{name} is unused in {p}"
    # Decoding is lossless: the tuples pack back to the same keys.
    assert MPoly(names, terms).terms == p.terms
    # The same polynomial with every coefficient a Fraction, as the text
    # form, equality and hashing see it.
    reference = with_fraction_coefficients(p)
    assert str(p) == str(reference)
    assert p == reference and hash(p) == hash(reference)


class TestIntegerFirstRepresentation:
    @given(polys(), polys())
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_results_are_canonical(self, p, q):
        results = [p, p + q, p - q, q - p, p * q, -p, p**2, p * 3, p * Q(1, 2), q + Q(3, 2)]
        results.append(p.subs({"x": q, "a": Q(2, 3)}))
        results.append(p.subs({"y": 2}))
        for r in results:
            assert_canonical(r)

    @given(polys(), polys())
    @settings(max_examples=150, deadline=None)
    def test_divexact_results_are_canonical(self, p, q):
        if q.is_zero():
            return
        quotient = (p * q).divexact(q)
        assert quotient == p
        assert_canonical(quotient)
        d = p.divexact(q)
        if d is not None:
            assert_canonical(d)
            assert d * q == p

    @given(polys(), one_term_polys())
    @settings(max_examples=150, deadline=None)
    def test_normalized_rfrac_parts_are_canonical(self, p, q):
        # Only a one-term denominator normalises (see RFrac).
        for f in (RFrac(p, q), RFrac(p * q, q)):
            assert_canonical(f.num)
            assert_canonical(f.den)
        assert RFrac(p * q, q) == p

    def test_integral_fraction_and_int_give_one_polynomial(self):
        x = MPoly.var("x")
        for two in (MPoly.const(Q(2)), MPoly.const(2), MPoly((), {(): Q(4, 2)})):
            assert two == MPoly.const(2) and hash(two) == hash(MPoly.const(2))
            assert type(two.decoded()[1][()]) is int
        assert Q(2) * x == 2 * x and hash(Q(2) * x) == hash(2 * x)
        half = MPoly.const(Q(1, 2))
        assert type((half * 2).decoded()[1][()]) is int and (half + half) == MPoly.one()
        assert type((half + half).decoded()[1][()]) is int

    def test_division_stays_exact(self):
        x = MPoly.var("x")
        q = (x * x - 1).divexact(2 * x + 2)
        assert str(q) == "1/2*x - 1/2"
        assert all(type(c) is Q for c in q.terms.values())
        assert str((3 * x).divexact(MPoly.const(3))) == "x"
        assert type(MPoly.const(3).eval({})) is Q
        assert type((x + 1).eval({"x": 2})) is Q
        assert str((2 * x * x - 2).divexact(4 * x + 4)) == "1/2*x - 1/2"
        with pytest.raises(ArithmeticError):
            RFrac(2 * x * x - 2, 4 * x + 4)
        assert str(RFrac(2 * x, 4 * MPoly.var("y"))) == "1/2*x/y"


# -- per-call shortcuts against the paths they replace ----------------------

POOL = ("a", "b", "c", "d", "e", "f")
VAR_PAIRS = (
    (("a", "b"), ("c", "d")),  # disjoint
    (("a", "c", "e"), ("b", "d", "f")),  # interleaved
    (("a", "b", "c"), ("b", "c", "d")),  # overlapping
    (("b",), ("a", "b", "c")),  # nested
    ((), ("a",)),
)
var_sets = st.sets(st.sampled_from(POOL), max_size=4).map(lambda s: tuple(sorted(s)))
var_pairs = st.one_of(st.sampled_from(VAR_PAIRS), st.tuples(var_sets, var_sets))


@st.composite
def polys_over(draw, names):
    """Polynomials over `names`, mostly with one term."""
    size = draw(st.sampled_from((1, 1, 1, 2, 3)))
    exps = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in names))
    return MPoly(names, dict(draw(st.lists(st.tuples(exps, coefficients), min_size=1, max_size=size))))


@st.composite
def poly_pairs(draw):
    va, vb = draw(var_pairs)
    p, q = draw(polys_over(va)), draw(polys_over(vb))
    return (q, p) if draw(st.booleans()) else (p, q)


def same_poly(p: MPoly, q: MPoly) -> bool:
    return p.vars == q.vars and p.terms == q.terms and str(p) == str(q)


def two_pointer_aligned(p: MPoly, q: MPoly):
    """Both decoded term dicts over the merged variable tuple, by one merge
    of the two sorted tuples, each exponent padded with a 0 for a missing
    variable."""
    (va, ta), (vb, tb) = p.decoded(), q.decoded()
    merged, pa, pb = [], [], []
    i = j = 0
    while i < len(va) or j < len(vb):
        if j == len(vb) or (i < len(va) and va[i] < vb[j]):
            merged.append(va[i])
            pa.append(i)
            pb.append(len(vb))
            i += 1
        elif i == len(va) or vb[j] < va[i]:
            merged.append(vb[j])
            pa.append(len(va))
            pb.append(j)
            j += 1
        else:
            merged.append(va[i])
            pa.append(i)
            pb.append(j)
            i += 1
            j += 1

    def remap(terms, positions):
        return {tuple((e + (0,))[k] for k in positions): c for e, c in terms.items()}

    return tuple(merged), remap(ta, pa), remap(tb, pb)


def double_loop_product(p: MPoly, q: MPoly) -> MPoly:
    """Every pair of terms, summed through the normalizing constructor."""
    vars_, a, b = two_pointer_aligned(p, q)
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MPoly(vars_, out)


def tuple_keyed_sum(p: MPoly, q: MPoly, sign: int) -> MPoly:
    """p + sign*q on exponent tuples over the merged variables."""
    vars_, a, b = two_pointer_aligned(p, q)
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return MPoly(vars_, out)


def dense_row_reduce(rows, ncols):
    """`row_reduce` updating every column of each row: the pivot is the
    first unit (a one-term numerator) of the column, or else its first
    nonzero entry, by which the rows below are cross-multiplied."""
    n = len(rows)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == n:
            break
        nonzero = [p for p in range(r, n) if not rows[p][col].is_zero()]
        if not nonzero:
            continue
        p = ([p for p in nonzero if len(rows[p][col].num.terms) == 1] or nonzero)[0]
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, n):
            lead = rows[i][col]
            if lead.is_zero():
                continue
            if len(pivot.num.terms) == 1:
                factor = lead * pivot.inv()
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
            else:
                rows[i] = [pivot * a - lead * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


class TestPackedKeys:
    @given(poly_pairs())
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_matches_the_tuple_keyed_reference(self, pair):
        p, q = pair
        assert same_poly(p + q, tuple_keyed_sum(p, q, 1))
        assert same_poly(p - q, tuple_keyed_sum(p, q, -1))
        assert same_poly(p * q, double_loop_product(p, q))
        if p and q:
            # Over a field a product uses every variable of both factors.
            assert (p * q).vars == two_pointer_aligned(p, q)[0]

    def test_text_and_term_order_follow_the_names_not_the_registry(self):
        b, a = MPoly.var("order_b"), MPoly.var("order_a")
        assert _INDEX["order_b"] < _INDEX["order_a"]
        p = a * b + b * b + a
        assert p.vars == ("order_a", "order_b")
        assert p.decoded()[1] == {(1, 1): 1, (0, 2): 1, (1, 0): 1}
        assert str(p) == "order_a*order_b + order_a + order_b^2"
        assert str(RFrac(p, b * a)) == "(order_a*order_b + order_a + order_b^2)/(order_a*order_b)"

    def test_the_largest_exponent_round_trips(self):
        x, y = MPoly.var("packed_x"), MPoly.var("packed_y")
        assert _INDEX["packed_y"] == _INDEX["packed_x"] + 1   # neighbouring fields
        top = MPoly(("packed_x", "packed_y"), {(_MAX_EXP, 1): 1})
        assert top.decoded() == (("packed_x", "packed_y"), {(_MAX_EXP, 1): 1})
        assert str(top) == f"packed_x^{_MAX_EXP}*packed_y"
        for p in (x**_MAX_EXP * y, x ** (_MAX_EXP - 1) * (x * y), (x * y) * x ** (_MAX_EXP - 1)):
            assert same_poly(p, top)
        general = (x ** (_MAX_EXP - 1) + y) * (x + 1)
        assert general.decoded()[1] == {(_MAX_EXP, 0): 1, (_MAX_EXP - 1, 0): 1, (1, 1): 1, (0, 1): 1}

    def test_one_more_raises_and_never_reaches_the_neighbour(self):
        x, y = MPoly.var("packed_x"), MPoly.var("packed_y")
        top = x**_MAX_EXP
        attempts = (
            lambda: x ** (_MAX_EXP + 1),
            lambda: top * x,
            lambda: top * (x * y),
            lambda: x * (top + y),
            lambda: (top + y) * (x + 1),
            lambda: (top + 1) ** 2,
            lambda: MPoly(("packed_x",), {(_MAX_EXP + 1,): 1}),
            lambda: MPoly.sum_of_products(((1, y, y), (2, top + y, x + 1))),
        )
        for attempt in attempts:
            with pytest.raises(OverflowError, match=str(_MAX_EXP)):
                attempt()
        with pytest.raises(ValueError):
            MPoly(("packed_x",), {(-1,): 1})


class TestSignedKeys:
    """An `RFrac` key holds each exponent in [-64, 63], one per 8-bit field;
    a result past either end raises `OverflowError` naming the range, and
    never carries or borrows into the neighbouring variable."""

    def test_the_extreme_exponents_round_trip(self):
        x, y = RFrac.var("packed_x"), RFrac.var("packed_y")
        assert _INDEX["packed_y"] == _INDEX["packed_x"] + 1   # neighbouring fields
        top, bottom = x**63 * y, x**-64 * y
        assert same_poly(top.num, MPoly.var("packed_x") ** 63 * MPoly.var("packed_y")) and top.den == MPoly.one()
        assert str(bottom) == "packed_y/packed_x^64" and same_poly(bottom.den, MPoly.var("packed_x") ** 64)
        assert same(x**63 * x**-64, x.inv()) and same(bottom / y * x**63 * x, R_ONE)
        assert same(RFrac(MPoly.var("packed_x") ** 63), x**63) and same(x**-63, (x**63).inv())

    def test_a_quotient_is_checked_on_its_own_keys(self):
        # The parts of RFrac(f, g) are polynomials, whose fields reach 127;
        # only the quotient's keys need to be in the signed range.
        px, py = MPoly.var("packed_x"), MPoly.var("packed_y")
        x, y = RFrac.var("packed_x"), RFrac.var("packed_y")
        assert same(RFrac(px**64, px), x**63) and same(RFrac(px**127 * py, 3 * px**100), x**27 * y / 3)
        assert same(RFrac(px**64 + py, px**2), x**62 + y * x**-2)
        assert same(RFrac(py * px**63, px**127), y * x**-64)
        for num, den in ((px**65, px), (py, px**65), (px**127, py**2)):
            with pytest.raises(OverflowError, match=r"\[-64, 63\]"):
                RFrac(num, den)

    def test_one_past_either_end_raises_and_never_reaches_the_neighbour(self):
        x, y = RFrac.var("packed_x"), RFrac.var("packed_y")
        top, bottom = x**63, x**-64
        attempts = (
            lambda: top * x,
            lambda: x * top,
            lambda: bottom / x,
            lambda: x.inv() * bottom,
            lambda: bottom.inv(),
            lambda: x**64,
            lambda: x**-65,
            lambda: RFrac(MPoly.var("packed_x") ** 64),
            lambda: RFrac(MPoly.one(), MPoly.var("packed_x") ** 65 * MPoly.var("packed_y")),
            lambda: (top * y) * (x * y),
            lambda: (bottom + y) * (x.inv() + 1),
            lambda: (top + y) * (x + 1),
            lambda: (y + 1) * (top * x.inv() * x * x),
        )
        for attempt in attempts:
            with pytest.raises(OverflowError, match=r"\[-64, 63\]"):
                attempt()


class TestFusedSubtraction:
    @given(poly_pairs())
    @settings(max_examples=150, deadline=None)
    def test_polynomial_difference_matches_adding_the_negation(self, pair):
        p, q = pair
        for result, expected in ((p - q, p + (-q)), (q - p, q + (-p)), (p - p, MPoly.zero())):
            assert same_poly(result, expected)
            assert_canonical(result)

    @given(poly_pairs(), coefficients)
    @settings(max_examples=100, deadline=None)
    def test_scalar_operands(self, pair, c):
        p, _ = pair
        assert same_poly(p - c, p + MPoly.const(-c))
        assert same_poly(c - p, MPoly.const(c) + (-p))

    def test_full_cancellation_and_a_variable_that_drops_out(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        assert same_poly((x * y + 2) - (x * y + 2), MPoly.zero())
        difference = (x * y + x) - x * y
        assert difference.vars == ("x",) and same_poly(difference, x)
        assert same_poly(x - MPoly.zero(), x) and same_poly(MPoly.zero() - x, -x)

    @given(rfracs(), rfracs())
    @settings(max_examples=150, deadline=None)
    def test_rfrac_difference_matches_adding_the_negation(self, f, g):
        assert same(f - g, f + (-g))
        assert same(g - f, g + (-f))
        assert (f - R_ZERO) is f and (f - 0) is f
        assert same(0 - f, -f) and same(RFrac(f.num) - f, RFrac(f.num) + (-f))
        if f.den is _ONE and g.den is _ONE:
            assert (f - g).den is _ONE

    @given(sparse_matrices(), sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_matrix_difference_matches_adding_the_scaling_by_minus_one(self, m, n):
        result, expected = m - n, m + n.scale(-1)
        assert all(same(result[i, j], expected[i, j]) for i in range(7) for j in range(7))


def naive_sum_of_products(triples) -> MPoly:
    total = MPoly.zero()
    for c, p, q in triples:
        total = total + c * p * q
    return total


def reference_sum_of_products(triples) -> MPoly:
    """The sum of products on exponent tuples, with no `MPoly` product of
    two polynomials of several terms."""
    total = MPoly.zero()
    for c, p, q in triples:
        total = tuple_keyed_sum(total, double_loop_product(MPoly.const(c) * p, q), 1)
    return total


operands = st.one_of(polys(), st.just(MPoly.zero()), st.just(MPoly.one()))


class TestSumOfProducts:
    @given(st.lists(st.tuples(coefficients, operands, operands), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_naive_sum(self, triples):
        result = MPoly.sum_of_products(triples)
        expected = naive_sum_of_products(triples)
        assert same_poly(result, expected)
        assert same_poly(result, reference_sum_of_products(triples))
        assert_canonical(result)
        if not expected:
            assert result is MPoly.zero()

    @given(st.lists(st.tuples(coefficients, poly_pairs()), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_overlapping_variables_and_a_generator_argument(self, items):
        triples = [(c, p, q) for c, (p, q) in items]
        result = MPoly.sum_of_products(t for t in triples)
        assert same_poly(result, naive_sum_of_products(triples))
        assert same_poly(result, reference_sum_of_products(triples))
        assert_canonical(result)

    @given(poly_pairs(), coefficients)
    @settings(max_examples=100, deadline=None)
    def test_full_cancellation_is_the_shared_zero(self, pair, c):
        p, q = pair
        assert MPoly.sum_of_products(((c, p, q), (-c, q, p))) is MPoly.zero()
        assert MPoly.sum_of_products(((2, p, q), (-1, p, q), (-1, q, p))) is MPoly.zero()

    def test_empty_sums_and_zero_operands(self):
        x = MPoly.var("x")
        assert MPoly.sum_of_products(()) is MPoly.zero()
        assert MPoly.sum_of_products(((1, MPoly.zero(), x), (3, x, MPoly.zero()))) is MPoly.zero()
        assert MPoly.sum_of_products(((0, x, x),)) is MPoly.zero()

    def test_fractional_coefficients_become_integral(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        result = MPoly.sum_of_products(((Q(1, 2), 2 * x, y), (Q(1, 3), Q(3, 2) * x, y), (Q(2, 3), x, x)))
        assert result.decoded()[1] == {(1, 1): Q(3, 2), (2, 0): Q(2, 3)}
        result = MPoly.sum_of_products(((Q(1, 2), x, y), (Q(1, 2), y, x)))
        assert same_poly(result, x * y)
        assert_canonical(result)


def reference_bilinear(form, u, v) -> MPoly:
    """Σ c·u[i]·v[j] on exponent tuples, with no `MPoly` product of two
    polynomials of several terms."""
    total = MPoly.zero()
    for c, i, j in form:
        total = tuple_keyed_sum(total, double_loop_product(MPoly.const(c) * u[i], v[j]), 1)
    return total


nonzero_coefficients = coefficients.filter(bool)
forms = st.lists(st.tuples(nonzero_coefficients, st.integers(0, 2), st.integers(0, 2)), max_size=4)
form_rows = st.lists(operands, min_size=3, max_size=3)


class TestBilinear:
    """`MPoly.bilinear` of the ``(c, i, j)`` terms of a constant form is the
    sum of products Σ c·u[i]·v[j]."""

    @given(forms, form_rows, form_rows)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_sum_of_products(self, form, u, v):
        result = MPoly.bilinear(form, u, v)
        assert same_poly(result, MPoly.sum_of_products((c, u[i], v[j]) for c, i, j in form))
        assert same_poly(result, reference_bilinear(form, u, v))
        assert_canonical(result)
        if not result:
            assert result is MPoly.zero()

    @given(nonzero_coefficients, form_rows, form_rows)
    @settings(max_examples=100, deadline=None)
    def test_full_cancellation_is_the_shared_zero(self, c, u, v):
        assert MPoly.bilinear(((c, 0, 1), (-c, 0, 1)), u, v) is MPoly.zero()
        assert MPoly.bilinear((), u, v) is MPoly.zero()

    def test_fractional_coefficients_become_integral(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        result = MPoly.bilinear(((Q(1, 2), 0, 1), (Q(1, 2), 1, 0)), (x * y, x * y), (3 * x, x))
        assert same_poly(result, 2 * x * x * y)
        assert_canonical(result)

    def test_a_product_past_the_largest_exponent_raises(self):
        x, y = MPoly.var("packed_x"), MPoly.var("packed_y")
        top = x**_MAX_EXP
        for p, q in ((top, x), (top, top), (x * y, top)):
            with pytest.raises(OverflowError, match=str(_MAX_EXP)):
                MPoly.bilinear(((1, 0, 0),), (p,), (q,))
        assert same_poly(MPoly.bilinear(((2, 0, 0),), (x * y,), (x ** (_MAX_EXP - 1) * y,)), 2 * top * y * y)


class TestMonomialProduct:
    @given(poly_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_double_loop(self, pair):
        p, q = pair
        product = p * q
        assert same_poly(product, double_loop_product(p, q))
        assert_canonical(product)

    def test_fractional_coefficients_become_integral(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        product = (Q(1, 2) * x) * (2 * y + Q(2, 3) * x * y)
        assert same_poly(product, double_loop_product(Q(1, 2) * x, 2 * y + Q(2, 3) * x * y))
        assert_canonical(product)


class TestScalarSubstitution:
    @given(poly_pairs(), st.sampled_from(POOL), coefficients, st.sampled_from(POOL), coefficients)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_polynomial_path(self, pair, v, c, w, d):
        # The scalar lane of `RFrac.subs` against its polynomial lane, which
        # substitutes constant polynomials into the parts; a zero value at a
        # negative exponent raises in both.
        p, _ = pair
        for f in (RFrac(p), RFrac(p) / RFrac.var(w)):
            for scalars in ({v: c}, {v: c, w: d}):
                outcomes = []
                for values in (scalars, {k: MPoly.const(x) for k, x in scalars.items()}):
                    try:
                        outcomes.append(f.subs(values))
                    except ZeroDivisionError as exc:
                        outcomes.append(str(exc))
                fast, general = outcomes
                if isinstance(general, str):
                    assert fast == general == "RFrac denominator is zero"
                    continue
                assert same(fast, general)
                assert_canonical(fast.num)

    def test_a_fraction_that_makes_a_coefficient_integral(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        p = 2 * x * y + Q(1, 3) * y
        f = RFrac(p)
        for value in (Q(1, 2), Q(3, 2)):
            fast = f.subs({"x": value})
            assert same(fast, f.subs({"x": MPoly.const(value)}))
            assert_canonical(fast.num)
        assert same_poly(p.subs({"x": Q(1, 2)}), Q(4, 3) * y) and same(f.subs({"x": Q(1, 2)}), RFrac(Q(4, 3) * y))
        assert type(f.subs({"x": Q(1, 2), "y": 3}).terms[0]) is int

    @given(rfracs())
    @settings(max_examples=50, deadline=None)
    def test_no_assigned_variable_returns_the_operand(self, f):
        p = f.num
        assert f.subs({"z": 2}) is f and p.subs({"z": MPoly.var("a")}) is p
        assert same(f.subs({"a": 2, "z": 1}), RFrac(f.num.subs({"a": 2}), f.den.subs({"a": 2})))


    def test_a_zero_value_at_a_negative_exponent_raises(self):
        x, y = RFrac.var("x"), RFrac.var("y")
        for f, assignment in (
            (x.inv(), {"x": 0}),
            (y + x**-2, {"x": Q(0), "y": 1}),
            (RFrac(MPoly.var("y"), MPoly.var("x") * MPoly.var("y")), {"y": 1, "x": 0}),
        ):
            with pytest.raises(ZeroDivisionError, match="RFrac denominator is zero"):
                f.subs(assignment)
        assert same((x + y.inv()).subs({"x": 0}), y.inv()) and same((x * y**-2).subs({"y": Q(1, 2)}), 4 * x)


class TestDirectEvaluation:
    """`eval` sums c·∏vᵉ, and needs an `int` or `Fraction` value for every
    variable in use: the value is the constant `subs` leaves."""

    @staticmethod
    def through_subs(p, assignment):
        """`eval` as the constant that `subs` leaves, its outcome as a value
        or as the type and message of what it raised."""
        try:
            rest = p.subs(assignment)
            if any(rest.terms):
                raise ValueError(f"missing assignment for variable '{rest.vars[0]}'")
            return Q(rest.terms.get(0, 0))
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    @staticmethod
    def outcome(p, assignment):
        try:
            return p.eval(assignment)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    @given(
        polys(),
        st.fixed_dictionaries({v: scalars for v in VARS}),
        st.dictionaries(st.sampled_from(("z", "eval_never_registered")), st.one_of(scalars, st.just(0.5))),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_constant_subs_leaves(self, p, values, unrelated):
        assignment = {**unrelated, **values}
        value = p.eval(assignment)
        assert type(value) is Q and value == self.through_subs(p, assignment)

    @given(polys(), st.dictionaries(st.sampled_from(VARS + ("z",)), st.one_of(scalars, st.just(0.5), st.just(MPoly.var("a")))))
    @settings(max_examples=200, deadline=None)
    def test_errors_name_the_first_bad_value_then_the_first_missing_variable(self, p, assignment):
        # A value of a variable in use that is not a scalar (here a float or
        # a polynomial) raises `TypeError`, naming the type of the first such
        # value in the assignment's order; then a variable in use with no
        # value raises `ValueError`, naming the first by name.  Other names
        # are ignored.
        used = p.vars
        bad = [v for name, v in assignment.items() if name in used and not isinstance(v, (int, Q))]
        missing = [name for name in used if name not in assignment]
        if bad:
            expected = TypeError, f"expected an integer or Fraction, got {type(bad[0]).__name__}"
        elif missing:
            expected = ValueError, f"missing assignment for variable '{missing[0]}'"
        else:
            expected = self.through_subs(p, assignment)
        assert self.outcome(p, assignment) == expected

    def test_errors(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        p = x * y + 1
        with pytest.raises(ValueError, match="missing assignment for variable 'y'"):
            p.eval({"x": 2})
        with pytest.raises(TypeError, match="got float"):
            p.eval({"x": 2, "y": 0.5})
        with pytest.raises(TypeError, match="expected an integer or Fraction, got MPoly"):
            p.eval({"x": 2, "y": x})
        # A variable in use with no value raises, even where `subs` would
        # cancel every term that holds it.
        with pytest.raises(ValueError, match="missing assignment for variable 'y'"):
            (x * y - 2 * y + 1).eval({"x": 2})
        assert p.eval({"x": 2, "y": Q(1, 2), "z": 0.5}) == 2

    def test_a_scalar_assignment_never_substitutes(self, monkeypatch):
        p = Q(1, 2) * MPoly.var("x") ** 2 * MPoly.var("y") - 3
        monkeypatch.setattr(MPoly, "subs", refuse)
        assert p.eval({"x": 2, "y": Q(3, 2), "a": 7}) == 0
        assert MPoly.const(5).eval({}) == 5 and MPoly.zero().eval({"x": 1}) == 0


def dense_wedge2(m: SymMatrix) -> list:
    """The 2x2 minors m[k,i]·m[l,j] − m[l,i]·m[k,j], zero products included."""
    return [
        [m[k, i] * m[l, j] - m[l, i] * m[k, j] for i, j in itertools.combinations(range(m.cols), 2)]
        for k, l in itertools.combinations(range(m.rows), 2)
    ]


class TestSparseMinors:
    @given(st.integers(2, 6), st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_minor_formula(self, rows, cols, data):
        m = data.draw(sparse_matrices(rows=rows, cols=cols))
        wedge, dense = wedge2_standard(m), dense_wedge2(m)
        assert (wedge.rows, wedge.cols) == (len(dense), len(dense[0]))
        assert all(same(a, b) for r1, r2 in zip(wedge.entries, dense) for a, b in zip(r1, r2))


# Entries whose numerators have several terms, so no pivot among them is a
# unit and `row_reduce` clears by cross-multiplication.
MULTI_TERM_ENTRIES = (
    RFrac(MPoly.var("x") + 1),
    RFrac(MPoly.var("x") - A),
    RFrac(MPoly.var("x") ** 2 + 2, A),
    RFrac(2 * MPoly.var("x") - 3 * MPoly.var("y")),
)


@st.composite
def multi_term_matrices(draw, rows, cols):
    """Mostly-zero matrices over MULTI_TERM_ENTRIES, with some units."""
    pool = (R_ZERO,) * 4 + MULTI_TERM_ENTRIES + ENTRIES[1:3]
    return SymMatrix([[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)])


class TestSparseRowUpdate:
    @staticmethod
    def assert_matches_dense(m: SymMatrix) -> None:
        # `row_reduce` works on copies of the row dicts; the oracle on dense
        # rows.  Every reduced row keeps nonzero entries only, in range.
        fast = [dict(row) for row in m.nonzero]
        dense = [list(row) for row in m.entries]
        assert row_reduce(fast, m.cols) == dense_row_reduce(dense, m.cols)
        assert all(set(row) <= set(range(m.cols)) and all(x.terms for x in row.values()) for row in fast)
        assert all(same(r1.get(j, R_ZERO), b) for r1, r2 in zip(fast, dense) for j, b in enumerate(r2))

    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_updating_every_column(self, rows, cols, data):
        self.assert_matches_dense(data.draw(sparse_matrices(rows=rows, cols=cols)))

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cross_multiplication_matches_updating_every_column(self, rows, cols, data):
        self.assert_matches_dense(data.draw(multi_term_matrices(rows, cols)))


# -- the row dicts against dense references -----------------------------------

# Every form of zero the constructor accepts, and nonzero entries of each
# accepted type.
RAW_ENTRIES = (0, Q(0), MPoly.zero(), R_ZERO) * 2 + (2, Q(-1, 2), MPoly.var("x") - 1) + ENTRIES[1:]


@st.composite
def raw_rows(draw, rows, cols):
    """Dense rows of constructor input, zeros of every type included."""
    return [[draw(st.sampled_from(RAW_ENTRIES)) for _ in range(cols)] for _ in range(rows)]


def as_entry(x) -> RFrac:
    """A constructor input as the entry it stands for."""
    if isinstance(x, RFrac):
        return x
    return RFrac(x if isinstance(x, MPoly) else MPoly.const(x))


def assert_stores(m: SymMatrix, dense) -> None:
    """``m`` has the shape and the entries of the dense rows ``dense``, and
    stores exactly their nonzero entries."""
    assert (m.rows, m.cols) == (len(dense), len(dense[0]))
    assert len(m.nonzero) == m.rows
    for row, expected in zip(m.nonzero, dense):
        assert sorted(row) == [j for j, x in enumerate(expected) if not x.is_zero()]
        assert all(same(x, expected[j]) for j, x in row.items())
    assert all(same(m[i, j], x) for i, row in enumerate(dense) for j, x in enumerate(row))


@st.composite
def matrices(draw, rows, cols):
    """Mostly-zero matrices over ENTRIES, or over MULTI_TERM_ENTRIES with
    some units, whose sums and eliminations cancel in other ways."""
    return draw(st.one_of(sparse_matrices(rows=rows, cols=cols), multi_term_matrices(rows, cols)))


def square_matrices(max_n):
    return st.integers(1, max_n).flatmap(lambda n: matrices(n, n))


IDENTITY = [[RFrac.const(int(i == j)) for j in range(4)] for i in range(4)]


class TestRowDicts:
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_constructor_drops_zeros_and_reads_back_densely(self, rows, cols, data):
        raw = data.draw(raw_rows(rows, cols))
        dense = [[as_entry(x) for x in row] for row in raw]
        m = SymMatrix(raw)
        assert_stores(m, dense)
        assert m.entries == tuple(map(tuple, dense))
        # Negative indices count from the end, as on a tuple of tuples.
        for i in range(-rows, rows):
            assert m.row(i) == tuple(dense[i])
            assert all(same(m[i, j], dense[i][j]) for j in range(-cols, cols))
        for j in range(-cols, cols):
            assert m.col(j) == tuple(row[j] for row in dense)
        for i, j in ((rows, 0), (-rows - 1, 0), (0, cols), (0, -cols - 1)):
            with pytest.raises(IndexError):
                m[i, j]
        for read, bound in ((m.row, rows), (m.col, cols)):
            for index in (bound, -bound - 1):
                with pytest.raises(IndexError):
                    read(index)

    @given(st.integers(1, 4), st.integers(1, 4), st.data(), st.sampled_from(ENTRIES + (0, 3, Q(-1, 2))))
    @settings(max_examples=60, deadline=None)
    def test_entrywise_operations_match_the_dense_reference(self, rows, cols, data, c):
        m, n = data.draw(matrices(rows, cols)), data.draw(matrices(rows, cols))
        a, b = m.entries, n.entries
        assert_stores(m + n, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)])
        assert_stores(m - n, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)])
        assert_stores(m.scale(c), [[c * x for x in r] for r in a])
        assert_stores(m - m, [[R_ZERO] * cols for _ in range(rows)])
        assert (m == n) == all(x == y for r, s in zip(a, b) for x, y in zip(r, s))
        assert m == SymMatrix(a) and m != SymMatrix.zero(rows + 1, cols)
        assert m.is_zero() == all(x.is_zero() for r in a for x in r)
        assert (m - m).is_zero() and m.scale(0).is_zero()
        for matrix in (m, SymMatrix.zero(rows, cols)):
            with pytest.raises(TypeError):
                matrix.scale(0.5)

    @given(
        st.integers(1, 4), st.integers(1, 4), st.data(),
        st.sampled_from(({"x": 0}, {"x": -1}, {"x": 2, "a": Q(1, 3)}, {"y": 1}, {"x": MPoly.var("a")})),
    )
    @settings(max_examples=60, deadline=None)
    def test_subs_matches_the_dense_reference(self, rows, cols, data, assignment):
        m = data.draw(matrices(rows, cols))
        assert_stores(m.subs(assignment), [[x.subs(assignment) for x in r] for r in m.entries])

    @given(square_matrices(4))
    @settings(max_examples=60, deadline=None)
    def test_det_matches_the_leibniz_sum(self, m):
        assert same(m.det(), leibniz_det(m))

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_the_dense_elimination(self, rows, cols, data):
        m = data.draw(matrices(rows, cols))
        assert m.rank() == len(dense_row_reduce([list(r) for r in m.entries], cols))

    @given(square_matrices(4))
    @settings(max_examples=60, deadline=None)
    def test_inverse_matches_the_dense_reference(self, m):
        n = m.rows
        rank = len(dense_row_reduce([list(r) for r in m.entries], n))
        try:
            inv = m.inverse()
        except ArithmeticError:
            # A pivot of more than one term, met once the rank is full.
            assert rank == n
            return
        except ValueError:
            assert rank < n
            return
        assert rank == n
        identity = [row[:n] for row in IDENTITY[:n]]
        assert_stores(inv, inv.entries)
        for product in (dense_product(m, inv), dense_product(inv, m)):
            assert all(same(x, y) for r, s in zip(product, identity) for x, y in zip(r, s))

    def test_identity_zero_and_diagonal(self):
        for n in range(1, 5):
            assert_stores(SymMatrix.identity(n), [row[:n] for row in IDENTITY[:n]])
            assert_stores(SymMatrix.zero(n, 5 - n), [[R_ZERO] * (5 - n) for _ in range(n)])
        values = [0, RFrac.var("x"), Q(1, 2), MPoly.zero()]
        assert_stores(
            SymMatrix.diagonal(values),
            [[as_entry(v) if i == j else R_ZERO for j in range(4)] for i, v in enumerate(values)],
        )
        for build in (lambda: SymMatrix.identity(0), lambda: SymMatrix.zero(0, 2), lambda: SymMatrix.zero(2, 0),
                      lambda: SymMatrix.diagonal([]), lambda: SymMatrix([]), lambda: SymMatrix([[]])):
            with pytest.raises(ValueError, match="nonempty"):
                build()


def test_inverse_text_of_the_inverted_matrices():
    # The only matrices the program inverts: the longest Weyl element's
    # representative and both wedge basis matrices.  The strings were taken
    # from the Gauss-Jordan inverse that back-substitution replaced.
    assert str(weyl_rep("ababab").inverse()) == (
        "[0, 0, 0, 0, 0, 0, 1/a; 0, 0, 0, 0, 0, 1/a, 0; 0, 0, 0, 0, -1, 0, 0; "
        "0, 0, 0, -1, 0, 0, 0; 0, 0, -1, 0, 0, 0, 0; 0, a, 0, 0, 0, 0, 0; a, 0, 0, 0, 0, 0, 0]"
    )
    assert str(basis_matrix(5, WEDGE_BASIS_5).inverse()) == (
        "[1, 0, 0, 0, 0, 0, 0, 0, 0, 0; 0, 1, 0, 0, 0, 0, 0, 0, 0, 0; "
        "0, 0, -2/3, 0, 1/3, 0, 0, 0, 0, 0; 0, 0, 0, 1/3, 0, 2/3, 0, 0, 0, 0; "
        "0, 0, 0, 0, 0, 0, 1, 0, 0, 0; 0, 0, 1/3, 0, 1/3, 0, 0, 0, 0, 0; "
        "0, 0, 0, -1/3, 0, 1/3, 0, 0, 0, 0; 0, 0, 0, 0, 0, 0, 0, 1, 0, 0; "
        "0, 0, 0, 0, 0, 0, 0, 0, 1, 0; 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]"
    )
    assert str(basis_matrix(4, WEDGE_BASIS_4).inverse()) == (
        "[-1, 0, 0, 0, 0, 0; 0, 0, -1/2, 1/2, 0, 0; 0, -1, 0, 0, 0, 0; "
        "0, 0, -1/2, -1/2, 0, 0; 0, 0, 0, 0, -1, 0; 0, 0, 0, 0, 0, -1]"
    )
    # A reversed wedge is written only as a negative coefficient: a pair
    # that is not increasing is refused, as is a degenerate one.
    for pair in ((2, 1), (3, 3)):
        with pytest.raises(ValueError, match="not increasing"):
            basis_matrix(4, (((1, pair),),) + WEDGE_BASIS_4[1:])


class TestMonomialDenominator:
    @given(rfracs())
    @settings(max_examples=150, deadline=None)
    def test_a_reduced_monomial_denominator_never_divides(self, f):
        if len(f.den.terms) == 1 and f.den is not _ONE:
            assert f.num.divexact(f.den) is None

    def test_other_denominators_raise(self):
        # A denominator of more terms raises whether or not it divides the
        # numerator; a monomial one is reduced.
        x, y = MPoly.var("x"), MPoly.var("y")
        for num, den in ((x * x - y * y, x + y), (x * x - y * y, x - y), (x, x + 1)):
            with pytest.raises(ArithmeticError):
                RFrac(num, den)
        assert str(RFrac(x * y + x, 2 * x * y)) == "(1/2*y + 1/2)/y"


# -- the one-term lane and the polynomial matrix product ---------------------

@st.composite
def laurent_fracs(draw):
    """Rational functions over a one-term denominator, through the
    normalizing constructor."""
    return RFrac(draw(polys()), draw(one_term_polys()))


def general_normalize(num: MPoly, den: MPoly):
    """A general normaliser for any nonzero `den`: cancel the monomial gcd
    of all terms, make the denominator monic and divide it out when the
    division is exact.  On a one-term `den` it gives the unique normal form,
    so it is the reference for the kernel's one-term lane."""
    if num.is_zero():
        return MPoly.zero(), _ONE
    vars_, nt, dt = two_pointer_aligned(num, den)
    mins = [min(column) for column in zip(*nt, *dt)]
    num = MPoly(vars_, {tuple(x - m for x, m in zip(e, mins)): c for e, c in nt.items()})
    den = MPoly(vars_, {tuple(x - m for x, m in zip(e, mins)): c for e, c in dt.items()})
    (num_vars, num_terms), (den_vars, den_terms) = num.decoded(), den.decoded()
    lc = Q(den_terms[max(den_terms)])
    num = MPoly(num_vars, {e: c / lc for e, c in num_terms.items()})
    den = MPoly(den_vars, {e: c / lc for e, c in den_terms.items()})
    if den == MPoly.one():
        return num, _ONE
    q = num.divexact(den)
    return (num, den) if q is None else (q, _ONE)


def same_parts(pair, expected) -> bool:
    return same_poly(pair[0], expected[0]) and same_poly(pair[1], expected[1])


def assert_normal_form(f: RFrac) -> None:
    """A one-term denominator is 1 (the shared object) or a monic monomial
    none of whose variables divides every numerator term."""
    assert_canonical(f.num)
    if len(f.den.terms) != 1:
        return
    if not f.den.vars:
        assert f.den is _ONE
        return
    assert list(f.den.terms.values()) == [1]
    for name in f.den.vars:
        names, terms = f.num.decoded()
        assert name not in names or min(e[names.index(name)] for e in terms) == 0


def reference_text(num: MPoly, den: MPoly) -> str:
    """The text num/den of a normal form, from its parts: the numerator
    parenthesised when it has several terms, the denominator when it is a
    product, and no denominator when it is 1."""
    if den == MPoly.one():
        return str(num)
    top, bottom = str(num), str(den)
    return f"{f'({top})' if len(num.terms) > 1 else top}/{f'({bottom})' if '*' in bottom else bottom}"


class TestOneTermLane:
    @given(polys(), one_term_polys())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_general_normaliser(self, num, den):
        # The derived parts and the text of RFrac(f, g) are the reference's.
        expected = general_normalize(num, den)
        f = RFrac(num, den)
        assert same_parts((f.num, f.den), expected)
        assert str(f) == reference_text(*expected)
        assert_normal_form(f)

    @given(laurent_fracs(), laurent_fracs())
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_the_general_normaliser(self, f, g):
        # + - * / of the Laurent values against the reference on their parts.
        (a, b), (c, d) = (f.num, f.den), (g.num, g.den)
        cases = [(f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d), (f * g, a * c, b * d)]
        if len(c.terms) == 1:
            cases.append((f / g, a * d, b * c))
        for h, num, den in cases:
            expected = general_normalize(num, den)
            assert same_parts((h.num, h.den), expected)
            assert str(h) == reference_text(*expected)

    @given(one_term_polys(), st.one_of(polys(), one_term_polys()))
    @settings(max_examples=150, deadline=None)
    def test_inverse_of_a_one_term_numerator(self, num, den):
        if den.is_zero():
            return
        if len(den.terms) > 1:
            # A denominator of more terms raises (see RFrac).
            with pytest.raises(ArithmeticError):
                RFrac(num, den)
            return
        f = RFrac(num, den)
        g = f.inv()
        assert same_parts((g.num, g.den), general_normalize(f.den, f.num))
        assert_normal_form(g)

    @given(laurent_fracs(), laurent_fracs())
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_matches_sympy(self, f, g):
        # A value that sympy confirms, in the normal form, is the unique
        # normal form of that value (see RFrac).
        sp = pytest.importorskip("sympy")
        F, G = rfrac_to_sympy(sp, f), rfrac_to_sympy(sp, g)
        results = [(f + g, F + G), (f - g, F - G), (f * g, F * G)]
        if not g.is_zero():
            quotient = divided_by_a_unit(f, g)
            if quotient is not None:
                results.append((quotient, F / G))
        for h, expected in results:
            assert equals_sympy(sp, h, expected)
            assert_normal_form(h)

    @given(st.one_of(rfracs(), laurent_fracs()), st.one_of(rfracs(), laurent_fracs()))
    @settings(max_examples=150, deadline=None)
    def test_every_result_is_in_normal_form(self, f, g):
        results = [f, g, f + g, f - g, f * g, -f, f**2]
        if not f.is_zero():
            if len(f.num.terms) == 1:
                results.append(f.inv())
            else:
                # A denominator of more terms raises (see RFrac).
                with pytest.raises(ArithmeticError):
                    f.inv()
            quotient = divided_by_a_unit(g, f)
            if quotient is not None:
                results.append(quotient)
        for h in results:
            assert_normal_form(h)

    @given(laurent_fracs(), st.sampled_from(DEN_VARS), polys(max_terms=2), st.one_of(st.none(), coefficients))
    @settings(max_examples=150, deadline=None)
    def test_polynomial_values_match_substituting_into_the_parts(self, f, v, q, c):
        # The reference normalises the substituted parts; it raises, as
        # `subs` must, where the denominator becomes zero or gains terms.
        assignment = {v: q} if c is None else {v: q, "y": c}
        num, den = f.num.subs(assignment), f.den.subs(assignment)
        if den.is_zero():
            expected = ZeroDivisionError
        elif len(den.terms) > 1:
            expected = ArithmeticError
        else:
            expected = general_normalize(num, den)
        if isinstance(expected, tuple):
            g = f.subs(assignment)
            assert same_parts((g.num, g.den), expected) and str(g) == reference_text(*expected)
        else:
            with pytest.raises(expected):
                f.subs(assignment)

    def test_constant_one_denominators(self):
        x = MPoly.var("x")
        assert MPoly.const(1) is _ONE and MPoly.const(Q(2, 2)) is _ONE
        fresh_one = MPoly((), {(): 1})
        assert fresh_one is not _ONE
        assert RFrac(x, fresh_one).den is _ONE
        assert RFrac(2 * x, MPoly.const(2)).den is _ONE
        assert str(RFrac(x, MPoly((), {(): -1}))) == "-x"

    def test_polynomials_share_their_terms_and_entries_pass_through(self):
        p = MPoly.var("x") + 1
        f = RFrac(p)
        assert f.terms is p.terms and f == p and f.den is _ONE
        g = RFrac(p, MPoly.var("a"))
        m = SymMatrix([[f, g], [0, p]])
        assert m[0, 0] is f and m[0, 1] is g
        assert same(m[1, 0], R_ZERO) and same(m[1, 1], f)

    def test_cancelled_variables_leave_both_parts(self):
        a, x, z = MPoly.var("a"), MPoly.var("x"), MPoly.var("z")
        f = RFrac(a * a * x + a * x * x, -2 * a * x * z)
        assert str(f) == "(-1/2*a - 1/2*x)/z"
        assert f.num.vars == ("a", "x") and f.den.vars == ("z",)
        g = RFrac(a * x, a * a * x)
        assert str(g) == "1/a" and same_poly(g.num, MPoly.one())


@st.composite
def poly_entry_matrices(draw, rows, cols):
    """Mostly-zero matrices whose entries are all polynomials."""
    entries = [RFrac(draw(polys(max_terms=2))) if draw(st.booleans()) else R_ZERO for _ in range(rows * cols)]
    return SymMatrix([entries[i * cols:(i + 1) * cols] for i in range(rows)])


class TestPolynomialProduct:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_triple_loop(self, n, k, m, data):
        a = data.draw(poly_entry_matrices(n, k))
        b = data.draw(poly_entry_matrices(k, m))
        product = a * b
        expected = dense_product(a, b)
        for i in range(n):
            for j in range(m):
                assert same(product[i, j], expected[i][j])
                assert product[i, j].den is _ONE


# -- sympy oracle for the division paths ----------------------------------


def rfrac_to_sympy(sp, f: RFrac):
    return to_sympy(sp, f.num) / to_sympy(sp, f.den)


def divided_by_a_unit(f: RFrac, g: RFrac):
    """f / g for a nonzero g whose numerator has one term (a unit), or None
    once f / g is seen to raise `ArithmeticError`, which it must exactly
    when g's numerator has more terms (see RFrac)."""
    if len(g.num.terms) > 1:
        with pytest.raises(ArithmeticError):
            f / g
        return None
    return f / g


def ring_element(R, p: MPoly):
    """`p` in the sympy polynomial ring `R`, whose generators include the
    variables of `p`."""
    names = [str(s) for s in R.symbols]
    p_names, p_terms = p.decoded()
    positions = [names.index(v) for v in p_names]
    terms = {}
    for exps, c in p_terms.items():
        mono = [0] * len(names)
        for i, e in zip(positions, exps):
            mono[i] = e
        terms[tuple(mono)] = R.domain(c.numerator, c.denominator)
    return R.from_dict(terms)


def equals_sympy(sp, f: RFrac, expr) -> bool:
    """f == expr by cross-multiplication in a sympy polynomial ring over QQ
    on the names of both sides.  It needs no gcd (the kernel may leave
    common factors in place), and it multiplies sparse polynomials where
    expanding the same products as expressions can take minutes."""
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    p, q = sp.fraction(sp.together(expr))
    names = {*f.num.vars, *f.den.vars, *(s.name for s in expr.free_symbols)}
    R = ring(sorted(names or VARS), QQ)[0]
    return ring_element(R, f.num) * R.from_expr(q) == ring_element(R, f.den) * R.from_expr(p)


def sympy_domain_matrix(sp, m: SymMatrix):
    from sympy.polys.matrices import DomainMatrix

    rows = [[rfrac_to_sympy(sp, m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    return DomainMatrix.from_Matrix(sp.Matrix(rows)).to_field()


@st.composite
def poly_matrices(draw, rows, cols):
    return SymMatrix([[RFrac(draw(polys(max_terms=2))) for _ in range(cols)] for _ in range(rows)])


@st.composite
def rfrac_matrices(draw, n):
    return SymMatrix([[draw(rfracs()) for _ in range(n)] for _ in range(n)])


@st.composite
def monomial_times_constant_matrices(draw):
    """P*C for a monomial matrix P, whose nonzero entries are Laurent
    monomials, and a constant matrix C, up to 3 x 3: the class the program
    inverts, on which every pivot is a unit.  C is sometimes singular."""
    n = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(n)))
    scales = [RFrac(draw(one_term_polys()), draw(one_term_polys())) for _ in range(n)]
    p = SymMatrix([[scales[i] if perm[i] == j else R_ZERO for j in range(n)] for i in range(n)])
    return p * SymMatrix([[draw(coefficients) for _ in range(n)] for _ in range(n)])


@st.composite
def low_rank_matrices(draw):
    """Products of an n x r and an r x m matrix, so the rank is often below
    min(n, m)."""
    n, r, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(poly_matrices(n, r)) * draw(poly_matrices(r, m))


class TestDivisionPathsAgainstSympy:
    @given(rfracs(), rfracs(), one_term_polys())
    @settings(max_examples=80, deadline=None)
    def test_rfrac_equality_and_arithmetic(self, f, g, r):
        sp = pytest.importorskip("sympy")
        F, G = rfrac_to_sympy(sp, f), rfrac_to_sympy(sp, g)
        assert (f == g) == (sp.cancel(F - G) == 0)
        # A common one-term factor cancels by exponent arithmetic.
        assert RFrac(f.num * r, r) / RFrac(f.den) == f
        assert RFrac(f.num * r, f.den * r) == f
        assert sp.cancel(rfrac_to_sympy(sp, f * g) - F * G) == 0
        assert sp.cancel(rfrac_to_sympy(sp, f + g) - (F + G)) == 0
        if not g.is_zero():
            quotient = divided_by_a_unit(f, g)
            if quotient is not None:
                assert sp.cancel(rfrac_to_sympy(sp, quotient) - F / G) == 0

    def test_division_by_a_non_unit_with_a_one_term_quotient_denominator(self):
        # Each quotient is the Laurent polynomial `parts`, as sympy confirms,
        # but the divisor's numerator has more than one term, so it raises.
        sp = pytest.importorskip("sympy")
        a, b, x, y = (MPoly.var(n) for n in "abxy")
        cases = [
            (RFrac((x + 1) * x, a), RFrac(x + 1, b), (b * x, a)),
            (RFrac((x - y) * x, 2 * a), RFrac(3 * b * x * x - 3 * b * x * y, a * a), (Q(1, 6) * a, b)),
            (RFrac(x * y + y), RFrac(a * x * x + a * x, y), (y * y, a * x)),
        ]
        for f, g, (num, den) in cases:
            assert equals_sympy(sp, RFrac(num, den), rfrac_to_sympy(sp, f) / rfrac_to_sympy(sp, g))
            assert divided_by_a_unit(f, g) is None

    @given(low_rank_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank(self, m):
        sp = pytest.importorskip("sympy")
        assert m.rank() == sympy_domain_matrix(sp, m).rank()

    def test_rank_without_unit_pivots(self):
        # The first rows are those `phin.ebc_modules_differ` ranks for the
        # steps at k - 1 of E(B, c) and E(B, c'): their last column is left
        # with the pivot (c - c')/c and no unit.  The other two have no unit
        # in their first column; the last has rank 1.
        sp = pytest.importorskip("sympy")
        a, c, cp, x = (RFrac.var(v) for v in ("a", "c", "cp", "x"))
        cases = (
            ([[1, c, 1, cp], [1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, 1]], 3),
            ([[1 + a, 1 - a], [1 - a, 1 + a]], 2),
            ([[1 + a, 1 - a, a + x], [(1 + a) * (x + 1), (1 - a) * (x + 1), (a + x) * (x + 1)]], 1),
        )
        for rows, rank in cases:
            m = SymMatrix(rows)
            assert m.rank() == sympy_domain_matrix(sp, m).rank() == rank

    @given(monomial_times_constant_matrices())
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, m):
        sp = pytest.importorskip("sympy")
        dm = sympy_domain_matrix(sp, m)
        if dm.det() == dm.domain.zero:
            with pytest.raises(ValueError):
                m.inverse()
            return
        inv = m.inverse()
        expected = dm.inv().to_Matrix()
        for i in range(m.rows):
            for j in range(m.cols):
                assert equals_sympy(sp, inv[i, j], expected[i, j])


def leibniz_det(m: SymMatrix) -> RFrac:
    """The sum over permutations p of sign(p) * prod m[i, p(i)], the sign
    the parity of the inversions of p."""
    n = m.rows
    out = R_ZERO
    for perm in itertools.permutations(range(n)):
        term = RFrac.const(1)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        out = out - term if inversions % 2 else out + term
    return out


class TestDeterminantByMinors:
    @given(st.integers(1, 4).flatmap(lambda n: poly_matrices(n, n)))
    @settings(max_examples=40, deadline=None)
    def test_det_of_polynomial_matrices(self, m):
        det = m.det()
        assert det.den == MPoly.one()
        assert same(det, leibniz_det(m))
        sp = pytest.importorskip("sympy")
        dm = sympy_domain_matrix(sp, m)
        assert equals_sympy(sp, det, dm.domain.to_sympy(dm.det()))

    @given(st.integers(1, 3).flatmap(rfrac_matrices))
    @settings(max_examples=40, deadline=None)
    def test_det_of_rational_function_matrices(self, m):
        det = m.det()
        assert same(det, leibniz_det(m))
        sp = pytest.importorskip("sympy")
        dm = sympy_domain_matrix(sp, m)
        assert equals_sympy(sp, det, dm.domain.to_sympy(dm.det()))


# -- the division rule, in a fresh interpreter -------------------------------

# Prints, as JSON, the name of the exception each case raises, or null.
_DIVISION_RULE_SCRIPT = """\
import json
from operator import add, mul, sub, truediv
from g2forge.algebra import MPoly, RFrac, SymMatrix
x, y = MPoly.var("x"), MPoly.var("y")
def raised(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc).__name__
    return None
divisors = [RFrac(2), RFrac(x, y), RFrac(x * x - 1), RFrac(x - 1, 3 * y), RFrac(x * x - y * y, x)]
m = SymMatrix.identity(2)
print(json.dumps({
    "divisible": raised(lambda: RFrac(x * x - 1, x - 1)),
    "quotients": [[raised(lambda: f / g) for g in divisors] for f in [RFrac(0), RFrac(x + y, x)] + divisors],
    "inverses": [raised(g.inv) for g in divisors],
    "scalar products": [raised(lambda: m * 2), raised(lambda: 2 * m), raised(lambda: RFrac(x) * m)],
    "mixed": [raised(lambda: op(a, b)) for op in (add, sub, mul, truediv) for a, b in ((x, RFrac(y)), (RFrac(y), x))],
}))
"""


@pytest.mark.parametrize("flags", ([], ["-O"]), ids=("plain", "optimized"))
def test_the_division_rule(flags):
    # x - 1 divides x^2 - 1, yet RFrac(x^2 - 1, x - 1) raises; f / g and
    # g.inv() raise exactly for the divisors whose numerator has more than
    # one term, zero f included; a SymMatrix has no scalar product (that is
    # `scale`); arithmetic never mixes MPoly and RFrac, in either order.  The
    # raises are not asserts, so -O keeps them.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _DIVISION_RULE_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    row = [None, None, "ArithmeticError", "ArithmeticError", "ArithmeticError"]
    assert json.loads(proc.stdout) == {
        "divisible": "ArithmeticError",
        "quotients": [row] * 7,
        "inverses": row,
        "scalar products": ["TypeError"] * 3,
        "mixed": ["TypeError"] * 8,
    }
