"""Nilpotent-cohomology pieces, dimension formula, degree case analysis,
and the seven-dimensional weight/pairing data."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import kostant, roots
from g2forge.algebra import MPoly, RFrac

pos_ints = st.integers(min_value=1, max_value=30)


class TestWeylDim:
    def test_samples(self):
        assert kostant.weyl_dim(roots.Weight(0, 0)) == 1
        assert kostant.weyl_dim(roots.Weight(1, 2)) == 7
        assert kostant.weyl_dim(roots.Weight(2, 3)) == 14

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_dimension_positive_on_dominant_cone(self, c1, c2):
        lam = c1 * roots.Weight(2, 3) + c2 * roots.Weight(1, 2)
        assert kostant.weyl_dim(lam) >= 1

    def test_matches_the_closed_form_on_the_dominant_cone(self):
        # dim V(a, b) = (a+1)(b+1)(a+b+2)(a+2b+3)(a+3b+4)(2a+3b+5)/120 in
        # Fractions, with a the label of the short fundamental weight
        # alpha+2*beta and b that of the long one 2*alpha+3*beta.
        for c1 in range(7):
            for c2 in range(7):
                a, b = c2, c1
                closed = Q(a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) * (a + 3 * b + 4) * (2 * a + 3 * b + 5) / 120
                dim = kostant.weyl_dim(c1 * roots.Weight(2, 3) + c2 * roots.Weight(1, 2))
                assert dim == closed and type(dim) is int

    def test_a_half_integral_weight_is_not_dominant_integral(self):
        with pytest.raises(ValueError, match="not dominant integral"):
            kostant.weyl_dim(roots.Weight(Q(1, 2), 1))

    def test_a_piece_weight_off_the_levi_dominant_cone_is_named(self):
        with pytest.raises(AssertionError, match=r"piece weight \(-2\)\*alpha \+ \(0\)\*beta .* P_long"):
            kostant.levi_piece_dim(roots.P_LONG, roots.Weight(-2, 0))


class TestPieces:
    def test_borel_degree_multiset(self):
        pieces = kostant.kostant_pieces(roots.BOREL, roots.Weight(0, 0))
        degrees = sorted(p.degree for p in pieces)
        assert degrees == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]

    def test_parabolic_piece_counts(self):
        for par in (roots.P_LONG, roots.P_SHORT):
            assert len(kostant.kostant_pieces(par, roots.Weight(0, 0))) == 6

    @given(
        st.sampled_from((roots.BOREL, roots.P_LONG)),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_euler_characteristic_vanishes_on_borel_vs_long(self, parabolic, c1, c2):
        # The alternating sum of Levi piece dimensions, for a nonzero nilradical.
        lam = c1 * roots.Weight(2, 3) + c2 * roots.Weight(1, 2)
        total = sum(
            (-1) ** p.degree * kostant.levi_piece_dim(parabolic, p.levi_highest_weight)
            for p in kostant.kostant_pieces(parabolic, lam)
        )
        assert total == 0


class TestDegreeCases:
    def test_symbolic_triples(self):
        c1 = MPoly.var("c1")
        c2 = MPoly.var("c2")
        cases = kostant.degree_cases_alpha(c1, c2)
        assert [c.degree for c in cases] == [4, 5, 6]
        assert [c.w.word for c in cases] == ["bab", "baba", "babab"]

        assert RFrac(cases[0].k) == RFrac(2 * c1 + c2 + 4)
        assert cases[0].s == (RFrac(c2) + 1) / 10
        assert cases[0].neg_shifted == roots.Weight(-(RFrac(c1) + 1), RFrac(c2) + 1)

        assert RFrac(cases[1].k) == RFrac(c1 + c2 + 3)
        assert cases[1].s == (3 * RFrac(c1) + RFrac(c2) + 4) / 10
        assert cases[1].neg_shifted == roots.Weight(RFrac(c1) + 1, 3 * RFrac(c1) + RFrac(c2) + 4)

        assert RFrac(cases[2].k) == RFrac(c1 + 2)
        assert cases[2].s == (3 * RFrac(c1) + 2 * RFrac(c2) + 5) / 10
        assert cases[2].neg_shifted == roots.Weight(
            RFrac(c1) + RFrac(c2) + 2, 3 * RFrac(c1) + 2 * RFrac(c2) + 5
        )

    @given(pos_ints, pos_ints)
    @settings(max_examples=25, deadline=None)
    def test_numeric_consistency(self, c1, c2):
        lam = c1 * roots.Weight(2, 3) + c2 * roots.Weight(1, 2)
        for case in kostant.degree_cases_alpha(c1, c2):
            # the stored shifted weight really is -w(lam + rho)
            assert case.neg_shifted == -(case.w.act(lam + roots.RHO))
            assert case.degree == case.w.length + 1
            # k and s are exact: ints while integral, never floats
            x, y = case.neg_shifted.in_basis_half_alpha()
            assert case.k == 1 - x and type(case.k) is int
            assert case.s == Q(y, 10) and type(case.s) is (int if y % 10 == 0 else Q)


class TestSevenDimData:
    def test_weight_septuples(self):
        assert kostant.lift_weights(1, 1) == (3, 2, 1, 0, -1, -2, -3)
        assert kostant.hodge_tate_weights(1, 1) == (6, 4, 2, 0, -2, -4, -6)

    @given(pos_ints, pos_ints)
    @settings(max_examples=25, deadline=None)
    def test_pairings_match_hodge_tate(self, c1, c2):
        cov = (3 * c1 + 2 * c2 + 5, 2 * c1 + c2 + 3)
        assert kostant.coweight_pairings(*cov) == kostant.hodge_tate_weights(c1, c2)
