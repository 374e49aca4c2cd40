"""Exact-arithmetic layer: polynomials, rational functions, matrices,
affine exponents, valued scalars."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import algebra, roots, triform
from g2forge.algebra import MPoly, RFrac, SymMatrix, ValuedScalar, affine_bounds_on_cone

X = MPoly.var("x")
Y = MPoly.var("y")

small_ints = st.integers(min_value=-6, max_value=6)


def poly_from(coeffs):
    a, b, c = coeffs
    return a * X * X + b * X * Y + MPoly.const(c)


triples = st.tuples(small_ints, small_ints, small_ints)


class TestMPoly:
    def test_constants(self):
        assert MPoly.const(0).is_zero()
        assert MPoly.one().eval({}) == 1
        assert (X - X).is_zero()

    @given(triples, triples, triples)
    @settings(max_examples=50, deadline=None)
    def test_ring_laws(self, a, b, c):
        p, q, r = poly_from(a), poly_from(b), poly_from(c)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p
        assert (p - q) + q == p

    @given(triples, small_ints, small_ints)
    @settings(max_examples=50, deadline=None)
    def test_eval_is_homomorphism(self, a, xv, yv):
        p = poly_from(a)
        env = {"x": Q(xv), "y": Q(yv)}
        assert (p * p).eval(env) == p.eval(env) ** 2

    def test_eval_gives_a_fraction_and_rejects_floats(self):
        p = 3 * X * X - Y + 1
        value = p.eval({"x": 2, "y": 5})
        assert value == 8 and type(value) is Q
        assert p.eval({"x": Q(1, 2), "y": 1}) == Q(3, 4)
        assert type(MPoly.const(4).eval({})) is Q
        with pytest.raises(TypeError):
            p.eval({"x": 0.5, "y": 1})
        with pytest.raises(ValueError, match="missing assignment for variable 'y'"):
            p.eval({"x": 2})

    def test_divexact(self):
        p = (X + Y) * (X - Y)
        assert p.divexact(X + Y) == X - Y
        assert p.divexact(X + MPoly.const(1)) is None

    def test_subs(self):
        p = X * X + Y
        assert p.subs({"x": Y}) == Y * Y + Y


class TestRFrac:
    def test_inverse_cancels(self):
        f = RFrac(2 * X * X, 3 * X * Y)
        assert f * f.inv() == 1

    def test_exactly_divisible_denominator(self):
        # A denominator of more than one term raises even when it divides
        # the numerator; the polynomial quotient is `divexact`'s.
        with pytest.raises(ArithmeticError):
            RFrac(X * X - Y * Y, X - Y)
        with pytest.raises(ArithmeticError):
            RFrac(X * X - Y * Y) / RFrac(X + Y)
        assert (X * X - Y * Y).divexact(X - Y) == X + Y

    def test_monomial_content_of_the_denominator_is_not_split_off(self):
        # (x + 1)x/a over (x + 1)/b is b x/a, but the divisor's numerator has
        # two terms; a denominator a(x + 1) raises whatever its numerator.
        a, b = MPoly.var("a"), MPoly.var("b")
        with pytest.raises(ArithmeticError):
            RFrac((X + 1) * X, a) / RFrac(X + 1, b)
        with pytest.raises(ArithmeticError):
            RFrac(2 * X * X * Y + 2 * X * Y, 4 * a * X * Y * Y + 4 * a * Y * Y)
        with pytest.raises(ArithmeticError):
            RFrac(X, a * X + a)
        # A one-term divisor still divides.
        assert RFrac((X + 1) * X, a) / RFrac(X, b) == RFrac(b * X + b, a)

    def test_a_denominator_of_several_variables_is_parenthesised(self):
        a = MPoly.var("a")
        assert str(RFrac(X, a * Y)) == "x/(a*y)"
        assert str(RFrac(X + 1, 2 * a * a * Y)) == "(1/2*x + 1/2)/(a^2*y)"
        assert str(RFrac(X, a * a)) == "x/a^2"

    def test_denominator_of_more_terms_raises(self):
        with pytest.raises(ArithmeticError):
            RFrac(X, X + 1)
        with pytest.raises(ArithmeticError):
            RFrac(X + Y, X * Y).inv()
        with pytest.raises(ArithmeticError):
            RFrac.var("x") / RFrac(Y + 1)

    def test_equality_compares_the_normal_forms(self):
        assert RFrac(2 * X * Y, 4 * X * X) == RFrac(Y, 2 * X)
        assert RFrac(X + Y, X) != RFrac(X + Y, Y)
        assert RFrac(X, Y) != RFrac(Y, X) and RFrac(X, Y) != X

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RFrac(X, MPoly.zero())

    @given(small_ints, small_ints)
    @settings(max_examples=30, deadline=None)
    def test_field_laws(self, a, b):
        f = RFrac.var("x") + a
        g = RFrac.var("y") * b + 1
        assert f * g == g * f
        assert (f + g) - g == f

    def test_pow_negative(self):
        x = RFrac.var("x")
        assert x ** -2 == (x * x).inv()


class TestSymMatrix:
    def test_identity_and_inverse(self):
        rows = [[RFrac.const(v) for v in row] for row in [[2, 1, 0], [1, 1, 1], [0, 3, 1]]]
        m = SymMatrix(rows)
        assert m * m.inverse() == SymMatrix.identity(3)
        # The one public constructor always checks its rows.
        with pytest.raises(TypeError):
            SymMatrix(rows, _trusted=True)
        for bad in ([], [[]], [[1, 2], [3]]):
            with pytest.raises(ValueError):
                SymMatrix(bad)

    @given(st.lists(small_ints, min_size=8, max_size=8), st.lists(small_ints, min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_det_multiplicative(self, a, b):
        def mat(vals):
            return SymMatrix(
                [[RFrac.const(vals[2 * i + j]) for j in range(2)] for i in range(2)]
            )
        rows_a = mat(a[:4])
        rows_b = mat(b[:4])
        assert (rows_a * rows_b).det() == rows_a.det() * rows_b.det()

    def test_rank(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        m = SymMatrix([[RFrac.const(v) for v in row] for row in rows])
        assert m.rank() == 2

    def test_symbolic_inverse(self):
        # Every pivot is a unit: x, then -1/x.
        x = RFrac.var("x")
        m = SymMatrix([[x, RFrac.const(1)], [RFrac.const(1), RFrac.const(0)]])
        prod = m * m.inverse()
        assert prod == SymMatrix.identity(2)
        assert m.inverse() == SymMatrix([[0, 1], [1, -x]])

    def test_inverse_raises_on_a_pivot_of_more_terms(self):
        # det = 1, but back-substitution reaches the pivot 1 + a.
        a = RFrac.var("a")
        m = SymMatrix([[1 + a, RFrac.const(Q(-1, 2))], [1 - a, RFrac.const(Q(1, 2))]])
        assert m.det() == 1 and m.rank() == 2
        with pytest.raises(ArithmeticError):
            m.inverse()


class TestAffineExp:
    def test_arithmetic_and_eval(self):
        k = MPoly.var("k")
        expr = k * 3 - 2
        assert expr.eval({"k": Q(4)}) == 10
        assert (expr / 2).eval({"k": Q(4)}) == 5
        assert (k - k).is_zero()

    def test_equality(self):
        k = MPoly.var("k")
        assert k + 1 == MPoly(("k",), {(1,): 1, (0,): 1})


class TestAffineBoundsOnCone:
    K = MPoly.var("k")
    SP = MPoly.var("sp")
    QUADRANT = ({"k": 0, "sp": 0},), ({"k": 1, "sp": 0}, {"k": 0, "sp": 1})

    def test_rays_decide_the_unbounded_sides(self):
        assert affine_bounds_on_cone(self.K + 2 * self.SP + 1, *self.QUADRANT) == (1, None)
        assert affine_bounds_on_cone(-self.K - 3, *self.QUADRANT) == (None, -3)
        assert affine_bounds_on_cone(self.K - self.SP, *self.QUADRANT) == (None, None)
        assert affine_bounds_on_cone(MPoly.const(Q(5, 2)), *self.QUADRANT) == (Q(5, 2), Q(5, 2))
        # bounds are Fractions, as `eval` gives, also over integral points
        lo, hi = affine_bounds_on_cone(-self.K - 3, ({"k": 0, "sp": 0}, {"k": 2, "sp": 0}), ())
        assert (lo, hi) == (-5, -3) and type(lo) is Q and type(hi) is Q

    def test_polytope_extremes_sit_at_vertices(self):
        triangle = ({"k": 0, "sp": 0}, {"k": 2, "sp": 0}, {"k": 0, "sp": Q(1, 2)})
        assert affine_bounds_on_cone(self.K - 4 * self.SP, triangle, ()) == (-2, 2)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), small_ints, small_ints, small_ints)
    @settings(max_examples=60, deadline=None)
    def test_bounds_contain_sampled_points(self, a, b, c, x, y, z):
        # (5, c/12) lies on the edge between the two vertices; a and b step
        # along the rays
        vertices = ({"k": 5, "sp": 0}, {"k": 5, "sp": Q(1, 2)})
        rays = ({"k": 1, "sp": 0}, {"k": 4, "sp": 1})
        f = x * self.K + y * self.SP + z
        lo, hi = affine_bounds_on_cone(f, vertices, rays)
        value = f.eval({"k": 5 + a + 4 * b, "sp": b + Q(c, 12)})
        assert lo is None or lo <= value
        assert hi is None or value <= hi

    def test_rejects_a_nonaffine_function(self):
        with pytest.raises(ValueError):
            affine_bounds_on_cone(self.K * self.SP, *self.QUADRANT)


class TestValuedScalar:
    def test_group_laws(self):
        u = ValuedScalar.unit(1)
        p = ValuedScalar.p_power(1)
        assert (u * p) / p == u
        assert u.inv() * u == ValuedScalar.one()

    def test_powers_combine(self):
        k = MPoly.var("k")
        a = ValuedScalar.p_power(k - 1)
        b = ValuedScalar.p_power(2 - k)
        assert a * b == ValuedScalar.p_power(1)

    def test_coefficients_stay_exact(self):
        with pytest.raises(TypeError):
            ValuedScalar(0.5)
        with pytest.raises(TypeError):
            ValuedScalar.one() * 0.5
        two, three, four = ValuedScalar(Q(4, 2)), ValuedScalar(3), ValuedScalar(4)
        assert type(two.coeff) is int and two.coeff == 2
        assert two.inv().coeff == Q(1, 2) and (two / two).coeff == 1 and type((two / two).coeff) is int
        assert (two / three).coeff == Q(2, 3)
        assert (two ** -2).coeff == Q(1, 4) and (two ** 3).coeff == 8 and type((two ** 3).coeff) is int
        assert (two.inv() * four).coeff == 2 and type((two.inv() * four).coeff) is int
        # Both operands are valued scalars: an int is not one.
        for op in (lambda: two * 2, lambda: 2 * two, lambda: two / 2):
            with pytest.raises(TypeError):
                op()
        assert two != 2

    def test_text_form(self):
        # The first power of the unit prints bare, every other one with its
        # exponent; a p-power prints in parentheses unless a plain integer.
        k = MPoly.var("k")
        assert str(ValuedScalar.unit(1)) == "ahat"
        assert str(ValuedScalar.unit(2)) == "ahat^2"
        assert str(ValuedScalar.unit(-1)) == "ahat^-1"
        assert str(ValuedScalar(1, 1, 2)) == "p^2*ahat"
        assert str(ValuedScalar(3, 2, k - 1)) == "3*p^(k - 1)*ahat^2"
        assert str(ValuedScalar(Q(1, 2))) == "1/2" and str(ValuedScalar(0, 1)) == "0"


def test_symmatrix_text_form():
    # Rows are separated by "; " and the entries of a row by ", ".
    x = RFrac.var("x")
    m = SymMatrix([[1, x], [(x + 1) / RFrac(2 * Y * Y), x / RFrac(Y)]])
    assert str(m) == "[1, x; (1/2*x + 1/2)/y^2, x/y]"
    assert repr(m) == "SymMatrix([1, x; (1/2*x + 1/2)/y^2, x/y])"
    assert str(SymMatrix.identity(2)) == "[1, 0; 0, 1]"


@pytest.mark.parametrize(
    "value",
    [
        RFrac(X, Y),
        SymMatrix.identity(2),
        triform.generic_form(),
        roots.Weight(RFrac.var("k"), 1),
        ValuedScalar.unit(1),
    ],
    ids=["RFrac", "SymMatrix", "AltTriForm", "Weight", "ValuedScalar"],
)
def test_types_with_structural_equality_are_unhashable(value):
    # These define equality but no hash: RFrac compares its normal form and
    # ValuedScalar its three parts, and nothing hashes either; the others
    # compare entrywise.  Using one as a key must fail rather than fall back
    # to identity.
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize(
    "value, slot",
    [
        (X * Y + 1, "terms"),
        (algebra._ZERO, "terms"),
        (algebra._ONE, "terms"),
        (RFrac(X, Y), "terms"),
        (algebra.R_ZERO, "terms"),
        (algebra.R_ONE, "terms"),
        (SymMatrix.identity(2), "nonzero"),
        (ValuedScalar.unit(1), "coeff"),
        (roots.Weight(RFrac.var("k"), 1), "ca"),
        (roots.element("ab"), "word"),
        (roots.P_SHORT, "tag"),
        (triform.generic_form(), "coeffs"),
    ],
    ids=[
        "MPoly", "MPoly-zero", "MPoly-one", "RFrac", "RFrac-zero", "RFrac-one",
        "SymMatrix", "ValuedScalar", "Weight", "WeylElement", "ParabolicId", "AltTriForm",
    ],
)
def test_value_types_refuse_attribute_assignment(value, slot):
    # A stored slot and a fresh name are both refused, and the slot keeps
    # its value; the shared base adds no per-instance dict.
    before = getattr(value, slot)
    for name in (slot, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
    assert getattr(value, slot) is before
    assert isinstance(value, algebra._Immutable) and not hasattr(value, "__dict__")


@pytest.mark.parametrize(
    "value", [X * Y - Q(1, 2), RFrac(X, Y), SymMatrix.identity(2), ValuedScalar.unit(2)],
    ids=["MPoly", "RFrac", "SymMatrix", "ValuedScalar"],
)
def test_repr_wraps_the_text_form_in_the_type_name(value):
    assert repr(value) == f"{type(value).__name__}({value})"
