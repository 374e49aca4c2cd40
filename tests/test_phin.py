"""Filtered modules with Frobenius and monodromy: polygons, admissibility,
the four-dimensional extension family, and monodromy obstructions."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import phin
from g2forge.algebra import RFrac, SymMatrix, ValuedScalar

ONE = RFrac.const(1)
ZERO = RFrac.const(0)
IDENT2 = SymMatrix.identity(2)


def const_matrix(vals):
    return SymMatrix([[RFrac.const(v) for v in row] for row in vals])


class TestPolygons:
    def test_monotone_slopes_required(self):
        with pytest.raises(ValueError):
            phin.Polygon([Q(1), Q(0)])

    def test_vertices_and_endpoint(self):
        p = phin.Polygon([Q(-2), Q(-1)])
        assert p.vertices == [(0, Q(0)), (1, Q(-2)), (2, Q(-3))]
        assert p.endpoint == (2, Q(-3))


class TestRankTwo:
    def test_example_polygons(self):
        m = phin.d_st(4, Q(1))
        assert phin.newton_polygon(m).vertices == [(0, Q(0)), (1, Q(-2)), (2, Q(-3))]
        assert phin.hodge_polygon(m).vertices == [(0, Q(0)), (1, Q(-3)), (2, Q(-3))]

    def test_admissibility_grid(self):
        for k in range(2, 21):
            for twice_sp in range(0, k):
                assert phin.is_admissible(phin.d_st(k, Q(twice_sp, 2))), (k, twice_sp)

    def test_fil_jumps(self):
        assert phin.d_st(8, Q(2)).fil_jumps() == [0, 7]


class TestWindowCertificate:
    def test_certificate_margins(self):
        holds, margins = phin.d_st_window_certificate()
        assert holds
        assert [str(f) for f in margins] == ["0", "sp", "k - sp - 1"]

    def test_symbolic_margins_match_the_numeric_grid(self):
        """Oracle: the symbolic margins, evaluated at every point of the
        enumerated grid, are the numeric margins behind is_admissible."""
        _, margins = phin.d_st_window_certificate()
        for k in range(2, 21):
            for twice_sp in range(0, k):
                sp = Q(twice_sp, 2)
                m = phin.d_st(k, sp)
                numeric = phin.admissibility_margins(m, m.valuations(), [j for j, _ in m.fil])
                assert [f.eval({"k": k, "sp": sp}) for f in margins] == numeric, (k, sp)

    def test_moved_jump_breaks_the_certificate(self, monkeypatch):
        monkeypatch.setattr(phin, "d_st_jumps", lambda k: (0, k))
        holds, margins = phin.d_st_window_certificate()
        assert not holds and str(margins[0]) == "-1"


class TestExtensionFamily:
    def test_jumps_and_admissibility(self):
        m = phin.build_EBc(IDENT2, 1, 4, Q(1))
        assert m.fil_jumps() == [0, 1, 3, 4]
        assert phin.is_admissible(m)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            phin.build_EBc(IDENT2, 1, 5, Q(1))
        with pytest.raises(ValueError):
            phin.build_EBc(IDENT2, 1, 2, Q(0))

    def test_frobenius_relation_symbolic(self):
        a = SymMatrix([[RFrac.var(f"a{i}{j}") for j in range(2)] for i in range(2)])
        x, y = RFrac.var("x"), RFrac.var("y")
        commuting = IDENT2.scale(x) + a.scale(y)
        assert phin.phi_relation_defect(a, commuting).is_zero()
        generic = SymMatrix([[RFrac.var(f"b{i}{j}") for j in range(2)] for i in range(2)])
        assert not phin.phi_relation_defect(a, generic).is_zero()

    def test_scalar_block_satisfies_relation(self):
        m = phin.build_EBc(IDENT2.scale(RFrac.const(3)), Q(2), 6, Q(1))
        assert m.phi_relation_report()["holds"]

    def test_nonscalar_block_leaves_two_violations(self):
        b = const_matrix([[1, 2], [3, 4]])
        rep = phin.build_EBc(b, 1, 4, Q(1)).phi_relation_report()
        assert not rep["holds"]
        assert len(rep["violations"]) == 2

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_parameters_distinguish_extensions(self, v1, v2):
        p1 = phin.EBcPair(const_matrix([v1[:2], v1[2:4]]), RFrac.const(v1[4]))
        p2 = phin.EBcPair(const_matrix([v2[:2], v2[2:4]]), RFrac.const(v2[4]))
        same = (p1.b - p2.b).is_zero() and (p1.c - p2.c).is_zero()
        assert phin.ebc_distinguish(p1, p2) == (not same)


class TestMonodromyObstruction:
    def test_five_dim_constraints(self):
        rep = phin.monodromy_obstruction(phin.five_dim_eigenvalues())
        K = phin.K
        assert rep["distinguished_constraints"] == frozenset(
            {
                phin.Constraint(1, K / 2 - 1, Q(1)),
                phin.Constraint(1, K / 2, Q(1)),
                phin.Constraint(3, 3 * K / 2 - 1, Q(1)),
                phin.Constraint(3, 3 * K / 2 - 2, Q(1)),
            }
        )
        assert not rep["n_forced_zero"]

    def test_seven_dim_unconditional_pairs(self):
        rep = phin.monodromy_obstruction(phin.seven_dim_eigenvalues())
        assert rep["unconditional_pairs"] == [(2, 3), (5, 6)]

    def test_equal_eigenvalues_force_zero(self):
        rep = phin.monodromy_obstruction([ValuedScalar.one()] * 3)
        assert rep["n_forced_zero"]


class TestSym2AndDistinctness:
    def test_filtration_intersection(self):
        assert phin.sym2_fil0_test(ONE, ONE) is True
        assert phin.sym2_fil0_test(ONE, ZERO) is False
        assert phin.sym2_fil0_test(ZERO, ONE) is True
        with pytest.raises(ValueError):
            phin.sym2_fil0_test(ZERO, ZERO)

    def test_six_inequations_with_tags(self):
        items = phin.distinctness_check()
        assert len(items) == 6
        tags = sorted(i.justification for i in items)
        assert tags == ["assumption", "assumption", "trivial", "trivial",
                        "valuation bound", "valuation bound"]

    def test_specialized_weight(self):
        items = phin.distinctness_check(8)
        assert len(items) == 6
        with pytest.raises(ValueError):
            phin.distinctness_check(1)


class TestSumsAndProducts:
    def test_direct_sum_and_tensor(self):
        a = phin.d_st(4, Q(1))
        ds = phin.direct_sum(a, a)
        tn = phin.tensor(a, a)
        assert sorted(ds.fil_jumps()) == [0, 0, 3, 3]
        assert sorted(tn.fil_jumps()) == [0, 3, 3, 6]
        for m in (ds, tn):
            assert phin.newton_polygon(m).endpoint == phin.hodge_polygon(m).endpoint

    def test_mismatched_summands_rejected(self):
        with pytest.raises(ValueError):
            phin.direct_sum(phin.d_st(4, Q(1)), phin.d_st(6, Q(2)))
