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

    def test_transport_matrices_are_inverse(self):
        assert phin.TRANSPORT_V * phin.TRANSPORT_V_INV == IDENT2
        assert phin.TRANSPORT_V_INV * phin.TRANSPORT_V == IDENT2

    def test_steps_and_monodromy_in_eigen_coordinates(self):
        b = SymMatrix([[RFrac.var("b11"), 0], [2, RFrac.var("b22")]])
        m = phin.build_EBc(b, Q(2), 4, Q(1))
        steps = dict(m.fil)
        # The steps that do not depend on c are shared module constants.
        assert (steps[0], steps[1], steps[4]) == (phin.EBC_FIL_FULL, phin.EBC_FIL_1, phin.EBC_FIL_K)
        assert steps[0] is phin.EBC_FIL_FULL and steps[1] is phin.EBC_FIL_1 and steps[4] is phin.EBC_FIL_K
        assert steps[3] == SymMatrix([[1, 2], [1, 0], [0, 1], [0, 1]])
        nb = phin.TRANSPORT_V * b * phin.TRANSPORT_V_INV
        assert m.n_op == SymMatrix([[0, 0, *nb.row(0)], [0, 0, *nb.row(1)], [0] * 4, [0] * 4])

    def test_floats_are_rejected(self):
        for build in (
            lambda: phin.d_st(4, 0.5),
            lambda: phin.d_st(4.0, 1),
            lambda: phin.build_EBc(IDENT2, 1, 4, 0.5),
        ):
            with pytest.raises(TypeError):
                build()

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

    def test_frobenius_defect_matches_the_inverse_formula(self):
        # The defect is p(A^-1 B A - B) without its nonzero scalar p/det(A);
        # sympy inverts the generic A.
        sp = pytest.importorskip("sympy")
        a = SymMatrix([[RFrac.var(f"a{i}{j}") for j in range(2)] for i in range(2)])
        x, y = RFrac.var("x"), RFrac.var("y")
        generic = SymMatrix([[RFrac.var(f"b{i}{j}") for j in range(2)] for i in range(2)])
        for b in (generic, IDENT2.scale(x) + a.scale(y)):
            A, B = (sp.Matrix(2, 2, lambda i, j: sp.sympify(str(m[i, j]))) for m in (a, b))
            p = sp.Symbol("p")
            expected = (p * (A.inv() * B * A - B)) * A.det() / p
            defect = phin.phi_relation_defect(a, b)
            for i in range(2):
                for j in range(2):
                    assert sp.cancel(sp.sympify(str(defect[i, j]).replace("^", "**")) - expected[i, j]) == 0

    def test_frobenius_defect_needs_2x2_blocks(self):
        three = SymMatrix([[RFrac.var(f"a{i}{j}") for j in range(3)] for i in range(3)])
        with pytest.raises(ValueError):
            phin.phi_relation_defect(three, three)
        with pytest.raises(ValueError):
            phin.phi_relation_defect(IDENT2, three)

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
        b1, b2 = const_matrix([v1[:2], v1[2:4]]), const_matrix([v2[:2], v2[2:4]])
        same = v1 == v2
        assert phin.ebc_modules_differ(phin.build_EBc(b1, v1[4], 4, 1), phin.build_EBc(b2, v2[4], 4, 1)) == (not same)


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

    @pytest.mark.parametrize("eigenvalues", (phin.five_dim_eigenvalues, phin.seven_dim_eigenvalues))
    def test_each_eigenvalue_is_inverted_once(self, monkeypatch, eigenvalues):
        values, inverted = eigenvalues(), []
        inv = ValuedScalar.inv
        monkeypatch.setattr(ValuedScalar, "inv", lambda v: inverted.append(v) or inv(v))
        phin.monodromy_obstruction(values)
        assert inverted == list(values)

    def test_a_zero_eigenvalue_raises_once_it_divides_a_pair(self):
        zero = ValuedScalar(0)
        with pytest.raises(ZeroDivisionError):
            phin.monodromy_obstruction([ValuedScalar.one(), zero])
        assert phin.monodromy_obstruction([zero])["unconditional_pairs"] == []


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


def _sum_and_tensor_factors():
    return {
        "d_st": phin.d_st(4, 1),
        "ebc": phin.build_EBc(IDENT2, 1, 4, 1),
        "ebc_b": phin.build_EBc(const_matrix([[1, 2], [3, 4]]), 5, 4, 1),
    }


# (operation, first factor, second factor, fil_jumps(), (jump, rank) of each
# step, nonzero entries of N, Frobenius), as the index arithmetic written out
# entry by entry computed them.
SUMS_AND_TENSORS = [
    ('direct_sum', 'd_st', 'ebc', [0, 0, 1, 3, 3, 4], [(0, 6), (1, 4), (3, 3), (4, 1)],
     {(2, 4): '1', (3, 5): '1'},
     ['ahat^-1', 'p^(-k + 1)*ahat', 'p^(-1)*ahat^-1', 'p^(-k)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat']),
    ('tensor', 'd_st', 'ebc', [0, 1, 3, 3, 4, 4, 6, 7], [(0, 8), (1, 7), (3, 6), (4, 4), (6, 2), (7, 1)],
     {(0, 2): '1', (1, 3): '1', (4, 6): '1', (5, 7): '1'},
     ['p^(-1)*ahat^-2', 'p^(-k)', 'ahat^-2', 'p^(-k + 1)', 'p^(-k)', 'p^(-2*k + 1)*ahat^2', 'p^(-k + 1)', 'p^(-2*k + 2)*ahat^2']),
    ('direct_sum', 'ebc', 'd_st', [0, 0, 1, 3, 3, 4], [(0, 6), (1, 4), (3, 3), (4, 1)],
     {(0, 2): '1', (1, 3): '1'},
     ['p^(-1)*ahat^-1', 'p^(-k)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat']),
    ('tensor', 'ebc', 'd_st', [0, 1, 3, 3, 4, 4, 6, 7], [(0, 8), (1, 7), (3, 6), (4, 4), (6, 2), (7, 1)],
     {(0, 4): '1', (1, 5): '1', (2, 6): '1', (3, 7): '1'},
     ['p^(-1)*ahat^-2', 'p^(-k)', 'p^(-k)', 'p^(-2*k + 1)*ahat^2', 'ahat^-2', 'p^(-k + 1)', 'p^(-k + 1)', 'p^(-2*k + 2)*ahat^2']),
    ('direct_sum', 'ebc', 'ebc_b', [0, 0, 1, 1, 3, 3, 4, 4], [(0, 8), (1, 6), (3, 4), (4, 2)],
     {(0, 2): '1', (1, 3): '1', (4, 6): '6', (4, 7): '-2', (5, 6): '2', (5, 7): '-1'},
     ['p^(-1)*ahat^-1', 'p^(-k)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat', 'p^(-1)*ahat^-1', 'p^(-k)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat']),
    ('tensor', 'ebc', 'ebc_b', [0, 1, 1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 7, 7, 8], [(0, 16), (1, 15), (2, 13), (3, 12), (4, 10), (5, 6), (6, 4), (7, 3), (8, 1)],
     {(0, 2): '6', (0, 3): '-2', (0, 8): '1', (1, 2): '2', (1, 3): '-1', (1, 9): '1', (2, 10): '1', (3, 11): '1', (4, 6): '6', (4, 7): '-2', (4, 12): '1', (5, 6): '2', (5, 7): '-1', (5, 13): '1', (6, 14): '1', (7, 15): '1', (8, 10): '6', (8, 11): '-2', (9, 10): '2', (9, 11): '-1', (12, 14): '6', (12, 15): '-2', (13, 14): '2', (13, 15): '-1'},
     ['p^(-2)*ahat^-2', 'p^(-k - 1)', 'p^(-1)*ahat^-2', 'p^(-k)', 'p^(-k - 1)', 'p^(-2*k)*ahat^2', 'p^(-k)', 'p^(-2*k + 1)*ahat^2', 'p^(-1)*ahat^-2', 'p^(-k)', 'ahat^-2', 'p^(-k + 1)', 'p^(-k)', 'p^(-2*k + 1)*ahat^2', 'p^(-k + 1)', 'p^(-2*k + 2)*ahat^2']),
    ('direct_sum', 'ebc_b', 'ebc', [0, 0, 1, 1, 3, 3, 4, 4], [(0, 8), (1, 6), (3, 4), (4, 2)],
     {(0, 2): '6', (0, 3): '-2', (1, 2): '2', (1, 3): '-1', (4, 6): '1', (5, 7): '1'},
     ['p^(-1)*ahat^-1', 'p^(-k)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat', 'p^(-1)*ahat^-1', 'p^(-k)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat']),
    ('tensor', 'ebc_b', 'ebc', [0, 1, 1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 7, 7, 8], [(0, 16), (1, 15), (2, 13), (3, 12), (4, 10), (5, 6), (6, 4), (7, 3), (8, 1)],
     {(0, 2): '1', (0, 8): '6', (0, 12): '-2', (1, 3): '1', (1, 9): '6', (1, 13): '-2', (2, 10): '6', (2, 14): '-2', (3, 11): '6', (3, 15): '-2', (4, 6): '1', (4, 8): '2', (4, 12): '-1', (5, 7): '1', (5, 9): '2', (5, 13): '-1', (6, 10): '2', (6, 14): '-1', (7, 11): '2', (7, 15): '-1', (8, 10): '1', (9, 11): '1', (12, 14): '1', (13, 15): '1'},
     ['p^(-2)*ahat^-2', 'p^(-k - 1)', 'p^(-1)*ahat^-2', 'p^(-k)', 'p^(-k - 1)', 'p^(-2*k)*ahat^2', 'p^(-k)', 'p^(-2*k + 1)*ahat^2', 'p^(-1)*ahat^-2', 'p^(-k)', 'ahat^-2', 'p^(-k + 1)', 'p^(-k)', 'p^(-2*k + 1)*ahat^2', 'p^(-k + 1)', 'p^(-2*k + 2)*ahat^2']),
    ('direct_sum', 'd_st', 'd_st', [0, 0, 3, 3], [(0, 4), (3, 2)],
     {},
     ['ahat^-1', 'p^(-k + 1)*ahat', 'ahat^-1', 'p^(-k + 1)*ahat']),
    ('tensor', 'd_st', 'd_st', [0, 3, 3, 6], [(0, 4), (3, 3), (6, 1)],
     {},
     ['ahat^-2', 'p^(-k + 1)', 'p^(-k + 1)', 'p^(-2*k + 2)*ahat^2']),
]


class TestSumsAndProducts:
    @pytest.mark.parametrize("op, x, y, jumps, steps, n_entries, frobenius", SUMS_AND_TENSORS)
    def test_pinned_on_nonzero_monodromy_and_unequal_flags(self, op, x, y, jumps, steps, n_entries, frobenius):
        factors = _sum_and_tensor_factors()
        m = getattr(phin, op)(factors[x], factors[y])
        assert m.fil_jumps() == jumps
        assert [(j, f.rank()) for j, f in m.fil] == steps
        rows = (", ".join(n_entries.get((i, j), "0") for j in range(m.dim)) for i in range(m.dim))
        assert str(m.n_op) == "[" + "; ".join(rows) + "]"
        assert [str(v) for v in m.phi_diag] == frobenius

    def test_direct_sum_and_tensor(self):
        a = phin.d_st(4, Q(1))
        ds = phin.direct_sum(a, a)
        tn = phin.tensor(a, a)
        assert sorted(ds.fil_jumps()) == [0, 0, 3, 3]
        assert sorted(tn.fil_jumps()) == [0, 3, 3, 6]
        for m in (ds, tn):
            assert phin.newton_polygon(m).endpoint == phin.hodge_polygon(m).endpoint

    def test_each_step_of_a_tensor_is_ranked_once(self, monkeypatch):
        # The flag's steps are chosen from the factors' jumps; only the
        # constructor ranks them, once each.
        factors = _sum_and_tensor_factors()
        calls, rank = [], SymMatrix.rank
        monkeypatch.setattr(SymMatrix, "rank", lambda m: calls.append(m) or rank(m))
        m = phin.tensor(factors["ebc"], factors["ebc_b"])
        assert len(m.fil) == 9
        assert len(calls) == 9

    def test_mismatched_summands_rejected(self):
        with pytest.raises(ValueError):
            phin.direct_sum(phin.d_st(4, Q(1)), phin.d_st(6, Q(2)))
