"""The algebra kernel's shortcuts agree with its general path.

`RFrac` builds sums and products of polynomials, and anything involving
zero, without normalizing; `MPoly` scales by a constant factor term by term;
`SymMatrix` multiplies over the nonzero entries only.  Each shortcut must
give exactly the `num`/`den` (not just an equal value) that the general path
gives, since report strings are printed from them.  Polynomial arithmetic is
also checked against sympy as an independent oracle.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge.algebra import _ONE, MPoly, R_ZERO, RFrac, SymMatrix

VARS = ("a", "x", "y")

coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(Q, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)),
)
monomials = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in VARS))


@st.composite
def polys(draw, max_terms=3):
    """Small polynomials in a, x, y: zero, constants and general ones."""
    terms = draw(st.lists(st.tuples(monomials, coefficients), max_size=max_terms))
    out = MPoly.zero()
    for exps, c in terms:
        mono = MPoly.const(c)
        for name, e in zip(VARS, exps):
            mono = mono * MPoly.var(name) ** e
        out = out + mono
    return out


A = MPoly.var("a")
DENOMINATORS = (MPoly.one(), MPoly.const(2), A, A * A, 3 * A, A + 1, A * MPoly.var("x"))


@st.composite
def rfracs(draw):
    """Rational functions with denominator 1 or a small polynomial in a,
    built through the normalizing constructor."""
    return RFrac(draw(polys()), draw(st.sampled_from(DENOMINATORS)))


def same(f: RFrac, g: RFrac) -> bool:
    """Structural identity of two normalized rational functions."""
    return f.num.vars == g.num.vars and f.num.terms == g.num.terms and f.den == g.den and str(f) == str(g)


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
        expected = MPoly(p.vars, {e: d * c for e, d in p.terms.items()})
        for product in (p * c, MPoly.const(c) * p, p * MPoly.const(c)):
            assert product.vars == expected.vars and product.terms == expected.terms

    def test_unit_factor_returns_the_other_factor(self):
        p = MPoly.var("x") + 1
        assert p * 1 is p and MPoly.one() * p is p


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
    symbols = [sp.Symbol(v) for v in p.vars]
    total = sp.Integer(0)
    for exps, c in p.terms.items():
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
