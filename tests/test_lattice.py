"""Wedge-square blocks of the parabolic matrices, the relation system and
its elimination, and the quadratic shape constraints."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import lattice, triform
from g2forge.algebra import RFrac, SymMatrix

small_ints = st.integers(min_value=-4, max_value=4)


def int_matrix(vals, n):
    return SymMatrix([[RFrac.const(vals[n * i + j]) for j in range(n)] for i in range(n)])


def transvection(i, j, t):
    """E_ij(t) in GL5: the identity with t at (i, j), 0-indexed."""
    return SymMatrix([[t if (r, c) == (i, j) else int(r == c) for c in range(5)] for r in range(5)])


class TestFunctoriality:
    @given(st.lists(small_ints, min_size=50, max_size=50))
    @settings(max_examples=15, deadline=None)
    def test_wedge_square_multiplicative(self, vals):
        m = int_matrix(vals[:25], 5)
        n = int_matrix(vals[25:], 5)
        assert lattice.wedge2_standard(m * n) == lattice.wedge2_standard(m) * lattice.wedge2_standard(n)

    def test_wedge_square_of_identity(self):
        assert lattice.wedge2_standard(SymMatrix.identity(5)) == SymMatrix.identity(10)

    def test_five_cycle_conjugates_e12_around_the_cycle(self):
        """The generating-set argument of the wedge-functoriality check: the
        powers of the 5-cycle conjugate E12(t) to E23, E34, E45 and E51, whose
        commutators give every transvection."""
        t = RFrac.var("t")
        cycle = SymMatrix([[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)])
        cycle_inverse = SymMatrix([[int(i == (j + 1) % 5) for j in range(5)] for i in range(5)])
        assert cycle * cycle_inverse == SymMatrix.identity(5)
        conjugates, g = [], transvection(0, 1, t)
        for _ in range(4):
            g = cycle_inverse * g * cycle
            conjugates.append(g)
        assert conjugates == [transvection(i, (i + 1) % 5, t) for i in range(1, 5)]

    def test_wedge_square_multiplicative_on_adjacent_transvections(self):
        """Oracle for the three-generator check: wedge2(m g) = wedge2(m)
        wedge2(g) for a generic 5x5 m and the eight adjacent transvections."""
        m = SymMatrix([[RFrac.var(f"m{i}{j}") for j in range(1, 6)] for i in range(1, 6)])
        t, wm = RFrac.var("t"), lattice.wedge2_standard(m)
        for i, j in [(i, i + 1) for i in range(4)] + [(i + 1, i) for i in range(4)]:
            g = transvection(i, j, t)
            assert lattice.wedge2_standard(m * g) == wm * lattice.wedge2_standard(g)

    def test_each_row_pair_reads_its_two_rows_only(self):
        """The lemma behind the check's generic 2x5 matrix: row (k, l) of
        wedge2(m) is wedge2 of the 2x5 matrix made of rows k and l of m."""
        m = SymMatrix([[RFrac.var(f"m{i}{j}") for j in range(1, 6)] for i in range(1, 6)])
        wm = lattice.wedge2_standard(m)
        assert (wm.rows, wm.cols) == (10, 10)
        for row, (k, l) in enumerate(combinations(range(5), 2)):
            assert lattice.wedge2_standard(SymMatrix([m.row(k), m.row(l)])) == SymMatrix([wm.row(row)])

    def test_rectangular_shapes(self):
        m = SymMatrix([[RFrac.var(f"m{i}{j}") for j in range(1, 5)] for i in range(1, 4)])
        wm = lattice.wedge2_standard(m)
        assert (wm.rows, wm.cols) == (3, 6)
        # Row pair (1, 3) is the second of three, column pair (2, 4) the fifth of six.
        assert wm[1, 4] == m[0, 1] * m[2, 3] - m[2, 1] * m[0, 3]
        a = SymMatrix([[RFrac.var("a11"), RFrac.var("a12")], [RFrac.var("a21"), RFrac.var("a22")]])
        assert lattice.wedge2_standard(a) == SymMatrix([[a.det()]])
        with pytest.raises(ValueError, match="1x4"):
            lattice.wedge2_standard(SymMatrix([m.row(0)]))

    @given(st.lists(small_ints, min_size=8, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_sym_cube_multiplicative(self, vals):
        m = int_matrix(vals[:4], 2)
        n = int_matrix(vals[4:], 2)
        sym3 = lattice.sym_power_signed
        assert sym3(m * n, 3) == sym3(m, 3) * sym3(n, 3)

    @given(st.lists(small_ints, min_size=8, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_sym_square_multiplicative(self, vals):
        m = int_matrix(vals[:4], 2)
        n = int_matrix(vals[4:], 2)
        sym2 = lattice.sym_power_signed
        assert sym2(m * n, 2) == sym2(m, 2) * sym2(n, 2)

    def test_sym_square_matches_the_explicit_formula(self):
        """Oracle for n = 2: the explicit Sym^2 in the signed basis
        (u^2, 2uw, -w^2), on a generic 2x2 matrix and on the corner, as the
        lower 3x3 block of d*M5."""
        a11, a12, a21, a22 = (RFrac.var(f"a{i}") for i in (11, 12, 21, 22))
        explicit = SymMatrix([
            [a11 * a11, 2 * (a11 * a12), -(a12 * a12)],
            [a11 * a21, a11 * a22 + a12 * a21, -(a12 * a22)],
            [-(a21 * a21), -(2 * (a21 * a22)), a22 * a22],
        ])
        assert lattice.sym_power_signed(SymMatrix([[a11, a12], [a21, a22]]), 2) == explicit
        g66, g67, g76, g77 = lattice.G66, lattice.G67, lattice.G76, lattice.G77
        corner_sym2 = SymMatrix([
            [g66 * g66, 2 * (g66 * g67), -(g67 * g67)],
            [g66 * g76, g66 * g77 + g67 * g76, -(g67 * g77)],
            [-(g76 * g76), -(2 * (g76 * g77)), g77 * g77],
        ])
        block = lattice.scaled_block5()
        assert SymMatrix([[block[i, j] for j in range(2, 5)] for i in range(2, 5)]) == corner_sym2


def _twisted_blocks():
    """The extension blocks M5 and M4 with their 1/d written into every
    entry, as `RFrac`s over a formal symbol d, so every denominator is a
    power of d: the oracle for the polynomial blocks d*M, once d is set to
    the corner determinant, which is returned with them."""
    g66, g67, g76, g77 = lattice.G66, lattice.G67, lattice.G76, lattice.G77
    d = RFrac.var("d")
    gp = [[RFrac.var(f"gp{i}{j}") / d for j in (3, 4, 5)] for i in (1, 2)]
    g = [[RFrac.var(f"g{i}{j}") for j in (6, 7)] for i in (1, 2)]
    z = RFrac.const(0)
    m5 = SymMatrix([
        [g66 / d, -g67 / d] + gp[0],
        [-g76 / d, g77 / d] + gp[1],
        [z, z, g66 * g66 / d, 2 * (g66 * g67) / d, -(g67 * g67) / d],
        [z, z, g66 * g76 / d, (g66 * g77 + g67 * g76) / d, -(g67 * g77) / d],
        [z, z, -(g76 * g76) / d, -(2 * (g76 * g77)) / d, g77 * g77 / d],
    ])
    m4 = SymMatrix([
        [g66 / d, -g67 / d] + g[0],
        [-g76 / d, g77 / d] + g[1],
        [z, z, g66, g67],
        [z, z, g76, g77],
    ])
    det = g66 * g77 - g67 * g76
    return det, ((m5, lattice.scaled_block5(), lattice.WEDGE_BASIS_5), (m4, lattice.scaled_block4(), lattice.WEDGE_BASIS_4))


class TestScaledBlocks:
    D = RFrac.var("d")

    def test_blocks_are_d_times_the_twisted_blocks(self):
        det, blocks = _twisted_blocks()
        assert det == lattice.D
        for old, new, _ in blocks:
            assert new == old.scale(self.D).subs({"d": det.num})

    def test_wedge_squares_scale_by_d_squared(self):
        det, blocks = _twisted_blocks()
        for old, new, basis in blocks:
            scaled = lattice.wedge2_action(old, basis).scale(self.D * self.D)
            assert lattice.wedge2_action(new, basis) == scaled.subs({"d": det.num})


class TestFiveDimBlock:
    def test_report(self):
        rep = lattice.five_dim_wedge_report()
        assert rep["top_row_matches_c_polynomials"]
        assert rep["below_block_vanishes"]
        assert rep["wedge_block_equals_sym_cube"]

    def test_transcription_divergence_is_isolated(self):
        rep = lattice.five_dim_wedge_report()
        assert rep["displayed_block_mismatch_cells"] == [(3, 3), (5, 4)]


class TestFourDimBlock:
    def test_invariant_plane(self):
        rep = lattice.four_dim_wedge_report()
        assert rep["col1_is_inverse_det_times_v2v1"]
        assert rep["col2_v2v1_coeff_equals_rel2_over_d"]
        assert rep["col4_diagonal_is_one"]
        assert rep["col4_other_entries_zero"]
        assert rep["col4_v2v1_matches_formula"]

    def test_star_identity_modulo_relations(self):
        rep = lattice.four_dim_wedge_report()
        assert rep["col2_vanishes_mod_relations"]
        assert rep["col4_star_identity_mod_relations"]


class TestElimination:
    def test_natural_determinant(self):
        rep = lattice.relation_elimination()
        assert rep["det_natural_is_minus_9d3"]
        assert rep["elimination_preserves_det"]

    def test_transcribed_system_divergence(self):
        rep = lattice.relation_elimination()
        assert not rep["det_displayed_system_is_minus_9d3"]
        assert rep["det_displayed_system_factored"]
        assert rep["det_displayed_eliminated_is_plus_9d3"]


class TestShapeConstraintProbe:
    def test_families_do_not_vanish_identically(self):
        # Oracle by enumeration: the 72 SymMatrix products of one or two
        # parabolic generators, with fresh symbols per position.
        first, second = ([triform.parabolic_generator(n, d) for n in triform.GENERATOR_NAMES] for d in "12")
        products = first + [g * h for g in first for h in second]
        assert len(products) == 72
        families = [lattice.shape_families(p) for p in products]
        counts = [sum(fam[i].is_zero() for fam in families) for i in range(3)]
        assert counts == [53, 66, 53]

    def test_families_are_the_minors_of_a_twisted_cubic_block(self):
        x1, x2, x3, x4 = (RFrac.var(f"x{i}") for i in range(1, 5))
        m = [[x1, x2, x3], [x2, x3, -x4]]
        minors = tuple(m[0][j] * m[1][k] - m[0][k] * m[1][j] for j, k in ((1, 2), (0, 2), (0, 1)))
        g = triform.parabolic_generic_element()
        families = lattice.shape_families(g)
        assert families == tuple(-minor / triform.A_SYM for minor in minors)
        # They vanish together on the cone (s^3, s^2 t, s t^2, -t^3) and not
        # off it; the other parameters are free.
        on = {"x1": 1, "x2": 2, "x3": 4, "x4": -8, "x5": 3, "y": 5, "t1": 2, "t2": 7, "z": -1}
        assert all(f.subs(on).is_zero() for f in families)
        off = dict(on, x3=5)
        assert not any(f.subs(off).is_zero() for f in families)
