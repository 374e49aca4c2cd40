"""Root system, Weyl group, parabolic data, dot action, criticality."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import roots as r
from g2forge.algebra import RFrac

words = st.text(alphabet="ab", min_size=0, max_size=8)


class TestWeylGroup:
    def test_order_and_longest(self):
        assert len(r.WEYL_GROUP) == 12
        assert r.LONGEST.length == 6
        assert r.LONGEST.matrix == ((-1, 0), (0, -1))

    def test_generator_relations(self):
        e = r.element("")
        assert r.W_ALPHA * r.W_ALPHA == e
        assert r.W_BETA * r.W_BETA == e
        braid = r.element("ababab")
        assert braid == r.element("bababa") == r.LONGEST

    @given(words, words)
    @settings(max_examples=60, deadline=None)
    def test_element_is_homomorphism(self, w1, w2):
        assert r.element(w1) * r.element(w2) == r.element(w1 + w2)

    def test_lengths_match_inversions(self):
        for w in r.WEYL_GROUP:
            assert r.length_by_inversions(w) == w.length

    @given(words)
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, w):
        assert r.element(w) * r.element(w).inverse() == r.element("")

    def test_positive_roots_closed_under_longest_negation(self):
        for root in r.POSITIVE_ROOTS:
            image = r.LONGEST.act(root)
            assert r.Weight(-image.ca, -image.cb) in r.POSITIVE_ROOTS


class TestWeights:
    def test_rho(self):
        assert r.RHO == r.Weight(3, 5)
        # rho pairs to 1 against both simple coroots
        assert r.RHO.pair_coroot(r.ALPHA) == 1
        assert r.RHO.pair_coroot(r.BETA) == 1


class TestDotAction:
    @given(words, words)
    @settings(max_examples=40, deadline=None)
    def test_dot_action_composes(self, w1, w2):
        lam = r.Weight(1, 2)
        a, b = r.element(w1), r.element(w2)
        assert r.dot_act(a, r.dot_act(b, lam)) == r.dot_act(a * b, lam)

    def test_short_reflection_drops_short_root(self):
        k = RFrac.var("k")
        lam = r.lambda0(k)
        assert lam - r.dot_act(r.W_BETA, lam) == r.BETA

    def test_short_levi_shift_identity(self):
        k = RFrac.var("k")
        lam = r.lambda0(k)
        lhs = r.dot_act(r.element("ab"), lam) + r.two_rho(r.P_SHORT)
        assert lhs == (3 * k - 4) / 4 * r.BETA + (k + 4) / 4 * r.Weight(2, 3)
        assert lhs == r.Weight((k + 4) / 2, (3 * k + 4) / 2)


class TestParabolics:
    def test_coset_representative_counts(self):
        assert len(r.minimal_coset_reps(r.P_LONG)) == 6
        assert len(r.minimal_coset_reps(r.P_SHORT)) == 6
        assert len(r.minimal_coset_reps(r.BOREL)) == 12

    def test_minimal_reps_have_minimal_length_in_coset(self):
        for par in r.PARABOLICS.values():
            levi_reflections = [r.element("a" if s == r.ALPHA else "b") for s in par.levi_simple]
            for w in r.minimal_coset_reps(par):
                for s in levi_reflections:
                    assert (s * w).length > w.length

    def test_truncated_rep_sets(self):
        assert r.P_LONG.eis_words == ("", "b", "ba")
        assert r.P_SHORT.eis_words == ("", "a", "ab")
        assert r.BOREL.eis_words == ("",)

    def test_nilradical_sums(self):
        assert r.two_rho(r.P_LONG) == r.Weight(5, 10)
        assert r.two_rho(r.P_SHORT) == r.Weight(6, 9)
        assert r.two_rho(r.BOREL) == r.Weight(6, 10)

    def test_nilradical_sizes(self):
        assert r.P_LONG.nilrad_dim == 5
        assert r.P_SHORT.nilrad_dim == 5
        assert r.BOREL.nilrad_dim == 6


class TestCriticality:
    def test_low_slope_window_gives_short_reflection(self):
        for k in (6, 10, 20, 40):
            for twice_sp in range(0, k):
                sp = Q(twice_sp, 2)
                if not k > 4 * sp + 4:
                    continue
                crit = r.critical_set(r.slope_weight(sp), r.lambda0(k))
                assert [w.word for w in crit] == ["b"], (k, sp)

    def test_window_certificate_decides_every_element(self):
        critical, undecided = r.critical_set_on_window()
        assert critical == [r.W_BETA] and undecided == []

    def test_lambda0_values(self):
        assert r.lambda0(4) == r.Weight(0, 0)
        assert r.lambda0(12) == r.Weight(8, 12)
        assert r.slope_weight(Q(1, 2)) == r.Weight(1, Q(5, 2))
