"""Exact-arithmetic layer: polynomials, rational functions, matrices,
affine exponents, valued scalars."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import roots, triform
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
        assert MPoly.one().const_value() == 1
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

    def test_divexact(self):
        p = (X + Y) * (X - Y)
        assert p.divexact(X + Y) == X - Y
        assert p.divexact(X + MPoly.const(1)) is None

    def test_subs(self):
        p = X * X + Y
        assert p.subs({"x": Y}) == Y * Y + Y


class TestRFrac:
    def test_inverse_cancels(self):
        f = RFrac(X + Y, X * Y + MPoly.const(1))
        assert f * f.inv() == 1

    def test_cross_multiplied_equality(self):
        assert RFrac(X * X - Y * Y, X - Y) == RFrac(X + Y)

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
        m = SymMatrix([[RFrac.const(v) for v in row] for row in [[2, 1, 0], [1, 1, 1], [0, 3, 1]]])
        assert m * m.inverse() == SymMatrix.identity(3)

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
        x = RFrac.var("x")
        m = SymMatrix([[x, RFrac.const(1)], [RFrac.const(1), x]])
        prod = m * m.inverse()
        assert prod == SymMatrix.identity(2)


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


@pytest.mark.parametrize(
    "value",
    [
        RFrac(X, Y + 1),
        SymMatrix.identity(2),
        triform.generic_form(),
        roots.Weight(RFrac.var("k"), 1),
    ],
    ids=["RFrac", "SymMatrix", "AltTriForm", "Weight"],
)
def test_types_with_structural_equality_are_unhashable(value):
    # Equality here is not canonical (cross-multiplication, entrywise RFrac
    # equality), so no hash agrees with it; using one as a key must fail.
    with pytest.raises(TypeError):
        hash(value)
