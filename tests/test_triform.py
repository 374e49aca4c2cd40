"""The stabilized alternating 3-form in 7 variables, its one-parameter
stabilizer matrices, Weyl permutation images, quadratic entry relations,
and the 14-dimensional stabilizer Lie algebra."""

from fractions import Fraction as Q
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import arthur
from g2forge import triform as t
from g2forge.algebra import R_ZERO, MPoly, RFrac, SymMatrix

X = RFrac.var("x")
A, T1, T2 = RFrac.var("a"), RFrac.var("t1"), RFrac.var("t2")


def dense_pullback(form, g):
    """Oracle for `AltTriForm.pullback`: coefficient (i, j, k) of the
    pullback is the sum over the form's terms c e^l^e^m^e^n of c times the
    3x3 minor of g on rows (l, m, n) and columns (i, j, k)."""
    out = {}
    for i in range(1, 8):
        for j in range(i + 1, 8):
            for k in range(j + 1, 8):
                total = RFrac.const(0)
                for (l, m, n), c in form.coeffs.items():
                    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = (
                        [g[r - 1, col - 1] for col in (i, j, k)] for r in (l, m, n)
                    )
                    det = (
                        a11 * (a22 * a33 - a23 * a32)
                        - a12 * (a21 * a33 - a23 * a31)
                        + a13 * (a21 * a32 - a22 * a31)
                    )
                    total = total + c * det
                out[(i, j, k)] = total
    return t.AltTriForm(out)


# Nonzero entries: integers, rationals times a power of the form parameter a,
# and torus-like monomials in t1, t2.
_NONZERO_ENTRY = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(
        lambda n, d, e: Q(n, d) * A ** e,
        st.integers(-3, 3).filter(bool), st.integers(1, 4), st.integers(-2, 2),
    ),
    st.builds(lambda e1, e2: T1 ** e1 * T2 ** e2, st.integers(-2, 2), st.integers(-2, 2)),
)


@st.composite
def sparse_matrices(draw):
    """A 7x7 matrix with at most 16 nonzero entries, placed at random."""
    cells = draw(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), _NONZERO_ENTRY, max_size=16))
    return SymMatrix([[cells.get((i, j), 0) for j in range(7)] for i in range(7)])


class TestForm:
    def test_support_and_coefficients(self):
        form = t.generic_form()
        assert sorted(form.coeffs) == [(1, 4, 7), (1, 5, 6), (2, 3, 7), (2, 4, 6), (3, 4, 5)]
        assert form.get(2, 4, 6) == RFrac.const(-1)
        assert form.get(1, 4, 7) == RFrac.const(1)

    def test_alternating_evaluation(self):
        form = t.generic_form(Q(1))
        assert form.get(1, 4, 7) == RFrac.const(1)
        assert form.get(4, 1, 7) == RFrac.const(-1)
        assert form.get(7, 4, 1) == RFrac.const(-1)
        assert form.get(4, 7, 1) == RFrac.const(1)
        assert form.get(1, 1, 7).is_zero()

    def test_missing_and_repeated_triples_share_the_zero(self):
        form = t.generic_form()
        assert form.get(1, 1, 7) is R_ZERO and form.get(1, 2, 3) is R_ZERO

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            t.generic_form(0)

    def test_equality_ignores_explicit_zero_coefficients(self):
        form = t.AltTriForm({(1, 2, 3): A, (4, 5, 6): Q(1, 2)})
        assert t.AltTriForm({(1, 2, 3): A, (2, 3, 4): 0, (4, 5, 6): Q(1, 2)}) == form
        assert t.AltTriForm({(1, 2, 3): A, (2, 3, 4): A - A, (4, 5, 6): Q(1, 2)}) == form
        assert t.AltTriForm({(1, 2, 3): A, (4, 5, 6): Q(1, 3)}) != form
        assert t.AltTriForm({(1, 2, 3): A, (4, 5, 6): Q(1, 2), (1, 2, 7): 1}) != form

    def test_all_eight_matrices_stabilize(self):
        form = t.generic_form()
        for name in t.ROOT_NAMES:
            assert form.pullback(t.root_subgroup(name, X)) == form, name
        torus = t.torus_elem(RFrac.var("t1"), RFrac.var("t2"))
        assert form.pullback(torus) == form

    def test_variant_support_not_stabilized(self):
        variant = t.displayed_form_variant()
        broken = [
            name
            for name in t.ROOT_NAMES
            if variant.pullback(t.root_subgroup(name, X)) != variant
        ]
        assert broken, "the variant support should not be stabilized"

    def test_genericity_witness(self):
        rep = t.genericity_witness()
        assert rep["support_matches"] is True

    @given(sparse_matrices(), st.sampled_from(("generic", "variant", "standard")))
    @settings(max_examples=40, deadline=None)
    def test_pullback_matches_the_dense_minor_expansion(self, g, which):
        form = {
            "generic": t.generic_form(),
            "variant": t.displayed_form_variant(),
            "standard": t.standard_form(),
        }[which]
        assert form.pullback(g) == dense_pullback(form, g)

    def test_infinitesimal_stabilizers(self):
        form = t.generic_form()
        for rec in t.lie_basis().names:
            elem = t.lie_basis().by_name(rec)
            assert t.form_derivation_residue(elem, form).coeffs == {}


class TestOneParameterStructure:
    @pytest.mark.parametrize("name", t.ROOT_NAMES)
    def test_additivity(self, name):
        assert t.one_parameter_identity(name)

    @pytest.mark.parametrize("name", t.ROOT_NAMES)
    def test_torus_conjugation(self, name):
        assert t.conj_relation(name)


class TestWeylPermutations:
    EXPECTED = {
        "a": ((2, 3), (5, 6)),
        "b": ((1, 2), (3, 5), (6, 7)),
        "ab": ((1, 2, 5, 7, 6, 3),),
        "ba": ((3, 6, 7, 5, 2, 1),),
        "aba": ((3, 1), (2, 6), (5, 7)),
        "bab": ((1, 5), (3, 7)),
        "abab": ((1, 5, 6), (2, 7, 3)),
        "baba": ((1, 6, 5), (2, 3, 7)),
        "babab": ((1, 7), (2, 5), (3, 6)),
        "ababab": ((1, 7), (2, 6), (3, 5)),
    }

    @pytest.mark.parametrize("word", sorted(EXPECTED))
    def test_cycle_images(self, word):
        assert t.weyl_word_to_s7(word) == t.perm_from_cycles(self.EXPECTED[word])

    @pytest.mark.xfail(strict=True, reason="the transcription carries an extra (35) cycle")
    def test_length_five_word_with_extra_transposition(self):
        assert t.weyl_word_to_s7("ababa") == t.perm_from_cycles(((1, 6), (2, 7), (3, 5)))

    def test_length_five_word_exact_value(self):
        assert t.weyl_word_to_s7("ababa") == t.perm_from_cycles(((1, 6), (2, 7)))

    def test_homomorphism_on_reduced_products(self):
        """The map is a homomorphism of W(G2): the image of the reduced word
        of w1 * w2 is the product of the images, on all 144 pairs. The
        s7-homomorphism check proves this from the Coxeter relators."""
        from g2forge import roots

        images = {w.word: t.weyl_word_to_s7(w.word) for w in roots.WEYL_GROUP}
        for w1 in roots.WEYL_GROUP:
            for w2 in roots.WEYL_GROUP:
                assert t.weyl_word_to_s7((w1 * w2).word) == t.compose_perms(images[w1.word], images[w2.word])

    def test_representatives_multiply_like_words(self):
        """rep(w1 w2) = rep(w1) rep(w2) on all 144 pairs: weyl_rep multiplies
        the generator matrices in the order the word is written, so the
        representative of a concatenated word is the product of the two."""
        from g2forge import roots

        reps = {w.word: t.weyl_rep(w.word) for w in roots.WEYL_GROUP}
        for w1 in roots.WEYL_GROUP:
            for w2 in roots.WEYL_GROUP:
                assert t.weyl_rep(w1.word + w2.word) == reps[w1.word] * reps[w2.word]

    def test_representatives_are_built_from_the_generators(self):
        assert t.weyl_rep("a") == t.W_TILDE_A
        assert t.weyl_rep("ab") == t.W_TILDE_A * t.W_TILDE_B
        assert t.weyl_rep("") == SymMatrix.identity(7)
        with pytest.raises(ValueError, match="unknown reflection letter"):
            t.weyl_rep("ac")

    @given(st.text(alphabet="ab", min_size=0, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_words_give_bijections(self, word):
        perm = t.weyl_word_to_s7(word)
        assert sorted(perm) == list(range(1, 8))


class TestBlockParabolic:
    def test_bruhat_disjointness(self):
        rep = t.bruhat_disjointness_check()
        assert rep["all_generators_contained"]
        assert sorted(rep["weyl_images_in_block_weyl_group"]) == ["e", "w_b"]

    def test_entry_relations_on_generators(self):
        assert t.coeff_relations_hold(t.parabolic_generator("b"))

    def test_relation_probe_length_two(self):
        rep = t.coeff_relations_probe(2)
        assert rep["max_length"] == 2
        assert rep["products_checked"] == 72

    def test_relation_probe_can_fail(self, monkeypatch):
        # An explicit raise, so the probe still checks under python -O.
        monkeypatch.setattr(t, "_rows_relations_zero", lambda rows: False)
        with pytest.raises(AssertionError, match="coefficient relation failed at depth 1 on a$"):
            t.coeff_relations_probe(2)

    @pytest.mark.parametrize("index", range(4))
    def test_relation_probe_catches_a_sign_flip_in_the_table(self, monkeypatch, index):
        # The four entries of g(b, x) in columns 1-5; a flipped sign breaks a
        # relation on some product of two generators.
        entries = list(t._GEN_ENTRIES["b"])
        i, j, coeff, power, div_a = entries[index]
        assert j <= 5
        entries[index] = (i, j, -coeff, power, div_a)
        monkeypatch.setitem(t._GEN_ENTRIES, "b", tuple(entries))
        with pytest.raises(AssertionError, match=r"coefficient relation failed at depth 2 on \S+\*\S+$"):
            t.coeff_relations_probe(2)

    def test_truncated_columns_read_no_dropped_row(self, monkeypatch):
        # An entry below the block diagonal would feed column 3 from row 6,
        # which a 5-column walk does not carry.
        monkeypatch.setitem(t._GEN_ENTRIES, "b", t._GEN_ENTRIES["b"] + ((6, 3, 1, 1, False),))
        with pytest.raises(ValueError, match="column 3 reads row 6, outside the first 5"):
            t._poly_generator_columns("b", "1")

    def test_truncated_columns_never_divide_by_a(self, monkeypatch):
        # The walk multiplies polynomials: an entry over a in columns 1-5
        # has no place in it.
        monkeypatch.setitem(t._GEN_ENTRIES, "a", t._GEN_ENTRIES["a"] + ((1, 4, 1, 1, True),))
        with pytest.raises(ValueError, match="generator a: column 4 divides by a"):
            t._poly_generator_columns("a", "1")

    def test_walk_matches_the_symmatrix_products(self):
        # Oracle: rows 1-2 and columns 1-5 of the SymMatrix product of
        # `parabolic_generator`s, scaled by t1_d * t2_d for a torus factor at
        # depth d, as the walk scales it.
        products = {(): (SymMatrix.identity(7), RFrac.const(1))}
        mismatches = []

        def visit(word, walked):
            depth = str(len(word))
            product, scale = products[word[:-1]]
            name = word[-1]
            product = product * t.parabolic_generator(name, depth)
            if name == "torus":
                scale = scale * RFrac.var("t1" + depth) * RFrac.var("t2" + depth)
            products[word] = (product, scale)
            expected = [[product[r, j] * scale for j in range(5)] for r in (0, 1)]
            if [[RFrac(e) for e in row] for row in walked] != expected:
                mismatches.append(word)

        assert t.walk_parabolic_words(3, visit) == 8 + 64 + 512
        assert mismatches == []


class TestRelationCertificate:
    def test_relations_are_invariant_under_every_generator(self):
        assert t.coeff_relations_certificate() == []

    @pytest.mark.parametrize("index", range(4))
    def test_certificate_names_a_sign_flip_in_the_table(self, monkeypatch, index):
        # The four entries of g(b, x) in columns 1-5; each flipped sign moves
        # the relations of h * g(b, x) out of the span of those of h.
        entries = list(t._GEN_ENTRIES["b"])
        i, j, coeff, power, div_a = entries[index]
        entries[index] = (i, j, -coeff, power, div_a)
        monkeypatch.setitem(t._GEN_ENTRIES, "b", tuple(entries))
        assert t.coeff_relations_certificate() == ["b"]

    def test_certificate_checks_the_identity(self, monkeypatch):
        # r1 + h11 * h22 - h12 * h21 adds the determinant of the leading 2x2
        # block, which is 1 at the identity; the shifted pair also leaves its
        # span under g(b, x) and the torus.
        relations = t.coeff_relations

        def shifted(rows):
            r1, r2 = relations(rows)
            (h11, h12, *_), (h21, h22, *_) = rows
            return (r1 + h11 * h22 - h12 * h21, r2)

        monkeypatch.setattr(t, "coeff_relations", shifted)
        assert t.coeff_relations_certificate() == ["identity", "b", "torus"]


class TestLieAlgebra:
    def test_dimension(self):
        assert len(t.lie_basis().names) == 14

    def test_bracket_closure(self):
        table = t.lie_basis().structure_constants()
        assert len(table) == 91  # all unordered basis pairs

    def test_structure_constants_are_the_direct_brackets(self):
        lie = t.lie_basis()
        table = lie.structure_constants()
        for i, j in ((i, j) for i in range(14) for j in range(i + 1, 14)):
            direct = lie.coordinates(t.bracket(lie.matrices[i], lie.matrices[j]))
            assert table[(lie.names[i], lie.names[j])] == direct, (i, j)

    @staticmethod
    def adjoint_from_brackets(lie, x):
        """Oracle for `adjoint_matrix`: column j holds the coordinates of
        the bracket [x, B_j]."""
        cols = [lie.coordinates(t.bracket(x, b)) for b in lie.matrices]
        return SymMatrix([[cols[j][i] for j in range(14)] for i in range(14)])

    def test_adjoint_matrix_on_the_basis_and_the_orbit_representatives(self):
        lie = t.lie_basis()
        elements = list(lie.matrices) + [rec.representative for rec in arthur.orbit_table()]
        for x in elements:
            assert lie.adjoint_matrix(x) == self.adjoint_from_brackets(lie, x)

    def test_adjoint_matrix_on_the_generic_element(self):
        # Both sides are linear in x, so agreement on the generic element
        # sum c_i B_i with symbolic c_i is an identity on the whole span.
        lie = t.lie_basis()
        x = SymMatrix.zero(7, 7)
        for i, b in enumerate(lie.matrices):
            x = x + b.scale(RFrac(MPoly.var(f"c{i}")))
        assert lie.adjoint_matrix(x) == self.adjoint_from_brackets(lie, x)

    def test_adjoint_matrix_rejects_an_element_outside_the_span(self):
        # The identity commutes with everything, yet is not in the algebra.
        with pytest.raises(ValueError, match="not in the 14-dimensional span"):
            t.lie_basis().adjoint_matrix(SymMatrix.identity(7))

    def test_jacobi_on_sample(self):
        lie = t.lie_basis()
        trio = [lie.by_name("e[a]"), lie.by_name("e[b]"), lie.by_name("e[-(b)]")]
        a, b, c = trio
        total = (
            t.bracket(a, t.bracket(b, c))
            + t.bracket(b, t.bracket(c, a))
            + t.bracket(c, t.bracket(a, b))
        )
        assert total.is_zero()

    def test_centralizer_dimensions(self):
        lie = t.lie_basis()
        reps = {
            "zero": SymMatrix.zero(7, 7),
            "long": lie.by_name("e[a]"),
            "short": lie.by_name("e[b]"),
            "subregular": lie.by_name("e[a]") + lie.by_name("e[a+3b]"),
            "regular": lie.by_name("e[a]") + lie.by_name("e[b]"),
        }
        dims = {k: lie.centralizer_dim(v) for k, v in reps.items()}
        assert dims == {"zero": 14, "long": 8, "short": 6, "subregular": 4, "regular": 2}

    def test_subregular_sl2_and_zeta(self):
        lie = t.lie_basis()
        e = lie.by_name("e[a]") + lie.by_name("e[a+3b]")
        h = t.torus_direction(Q(2), Q(2))
        f = t.sl2_complete(e, h)
        assert t.bracket(e, f) == h
        assert t.bracket(h, e) == e.scale(RFrac.const(2))
        assert lie.sl2_centralizer_dim(e, f) == 0
        witness = t.zeta_witness()
        assert all(witness.values())

    def test_sl2_complete_rejects_an_h_without_completion(self):
        # h = torus_direction(2, 2) completes e to an sl2-triple; for the
        # multiples below the augmented system is inconsistent.
        lie = t.lie_basis()
        e = lie.by_name("e[a]") + lie.by_name("e[a+3b]")
        for c in (Q(1), Q(4)):
            with pytest.raises(ValueError, match="no sl2 completion"):
                t.sl2_complete(e, t.torus_direction(c, c))

    def test_zeta_witness_can_fail(self, monkeypatch):
        # The short coroot at zeta does not centralize e[b]: entry (1, 2) of
        # e[b] joins the zeta powers 1 and -1, which differ by 2 mod 3.
        e_b = t.lie_basis().by_name("e[b]")
        monkeypatch.setattr(t, "lie_basis", lambda: SimpleNamespace(by_name=lambda name: e_b))
        assert t.zeta_witness()["short_coroot_at_zeta_centralizes"] is False
