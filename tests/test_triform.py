"""The stabilized alternating 3-form in 7 variables, its one-parameter
stabilizer matrices, Weyl permutation images, quadratic entry relations,
and the 14-dimensional stabilizer Lie algebra."""

import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2forge import algebra, arthur, checks, kostant, roots
from g2forge import triform as t
from g2forge.algebra import R_ZERO, MPoly, RFrac, SymMatrix, row_reduce

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


def dense_residue(x, form):
    """Oracle for `form_derivation_residue`: coefficient (i, j, k) is the
    sum over l of X[l, i] F(l, j, k) + X[l, j] F(i, l, k) + X[l, k] F(i, j, l)."""
    out = {}
    for i in range(1, 8):
        for j in range(i + 1, 8):
            for k in range(j + 1, 8):
                total = RFrac.const(0)
                for l in range(1, 8):
                    total = total + x[l - 1, i - 1] * form.get(l, j, k)
                    total = total + x[l - 1, j - 1] * form.get(i, l, k)
                    total = total + x[l - 1, k - 1] * form.get(i, j, l)
                out[(i, j, k)] = total
    return t.AltTriForm(out)


def vec(m):
    return [m[i, j] for i in range(7) for j in range(7)]


def oracle_coordinates(lie, m):
    """Oracle coordinate solve: the c with sum c_i B_i = m, by elimination on
    the 49 entry equations and back-substitution; raises ValueError if m is
    outside the span."""
    dense = [[b[i, j] for b in lie.matrices] + [m[i, j]] for i in range(7) for j in range(7)]
    rows = [{k: x for k, x in enumerate(row) if x.terms} for row in dense]
    if row_reduce(rows, 15) != list(range(14)):
        raise ValueError("matrix is not in the 14-dimensional span")
    coords = [R_ZERO] * 14
    for r in range(13, -1, -1):
        rest = sum((rows[r].get(j, R_ZERO) * coords[j] for j in range(r + 1, 14)), R_ZERO)
        coords[r] = (rows[r].get(14, R_ZERO) - rest) / rows[r][r]
    return coords


def oracle_bracket_table(lie):
    """The structure constants: table[i][j] holds the coordinates of
    [B_i, B_j]; the solve raises if a bracket leaves the span."""
    return [[oracle_coordinates(lie, t.bracket(bi, bj)) for bj in lie.matrices] for bi in lie.matrices]


def oracle_adjoint(table, coords):
    """ad(x) on the span, for x with the given coordinates: column j holds
    the coordinates of [x, B_j], the sum of x_i [B_i, B_j]."""
    return SymMatrix([
        [sum((xi * table[i][j][k] for i, xi in enumerate(coords)), R_ZERO) for j in range(14)] for k in range(14)
    ])


def oracle_centralizer_dim(lie, table, *xs):
    """14 minus the rank of the stacked adjoint matrices of the matrices xs."""
    stacked = [row for x in xs for row in oracle_adjoint(table, oracle_coordinates(lie, x)).entries]
    return 14 - SymMatrix(stacked).rank()


@pytest.fixture(scope="module")
def bracket_table():
    return oracle_bracket_table(t.lie_basis())


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


def _row_entry(names):
    """Entries of rows that need not come from the parabolic: up to three
    terms in the three given symbols."""
    return st.lists(
        st.tuples(
            st.one_of(
                st.integers(-3, 3).filter(bool), st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(2, 4))
            ),
            st.tuples(*(st.integers(0, 2) for _ in range(3))),
        ),
        max_size=3,
    ).map(lambda terms: MPoly(names, {e: c for c, e in terms}))


# In y, z and x1, a symbol the generators at depth 1 also use.
_ROW_ENTRY = _row_entry(("y", "z", "x1"))
# In y, z and w, which no generator uses.
_FRESH_ROW_ENTRY = _row_entry(("y", "z", "w"))


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

    def test_sort_triple_gives_the_parity_of_the_sorting_permutation(self):
        # Every triple over 1..7: the sign is (-1)^(transpositions a bubble
        # sort makes), and a repeated index gives the zero triple and sign.
        for triple in itertools.product(range(1, 8), repeat=3):
            if len(set(triple)) < 3:
                assert t._sort_triple(*triple) == ((0, 0, 0), 0), triple
                continue
            idx, swaps = list(triple), 0
            for end in (2, 1):
                for n in range(end):
                    if idx[n] > idx[n + 1]:
                        idx[n], idx[n + 1] = idx[n + 1], idx[n]
                        swaps += 1
            assert t._sort_triple(*triple) == (tuple(idx), (-1) ** swaps), triple

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

    @given(sparse_matrices(), st.sampled_from(("generic", "variant", "standard")))
    @settings(max_examples=40, deadline=None)
    def test_residue_matches_the_dense_triple_loop(self, x, which):
        form = {
            "generic": t.generic_form(),
            "variant": t.displayed_form_variant(),
            "standard": t.standard_form(),
        }[which]
        assert t.form_derivation_residue(x, form) == dense_residue(x, form)

    def test_derivation_rank_tells_the_generic_forms_from_the_variant(self):
        # Rank 35 leaves a 14-dimensional stabilizer; the variant's is larger.
        assert t.derivation_rank(t.generic_form()) == 35
        assert t.derivation_rank(t.standard_form()) == 35
        assert t.derivation_rank(t.displayed_form_variant()) == 34


# The root and torus tables of the 7x7 model as first transcribed, kept as
# oracles for what triform derives from the roots and the standard weights.
ROOT_COORDS = {
    "a": (1, 0), "b": (0, 1), "a+b": (1, 1), "a+2b": (1, 2), "a+3b": (1, 3), "2a+3b": (2, 3), "-b": (0, -1),
}
H1_DIAGONAL = (1, 0, 1, 0, -1, 0, -1)
H2_DIAGONAL = (0, 1, -1, 0, 1, -1, 0)
ZETA_POWERS = (1, -1, 2, 0, -2, 1, -1)


def matrix_conj_relation(root):
    """Oracle for `conj_relation`: the identity t g(root, x) t^-1 =
    g(root, char(t) x) compared as 7x7 matrix products, with the root
    character char(t) = (t2^2/t1)^m (t1/t2)^n of root = m alpha + n beta."""
    t1, t2 = RFrac.var("t1"), RFrac.var("t2")
    torus, torus_inv = t.torus_elem(t1, t2), t.torus_elem(t1.inv(), t2.inv())
    m, n = ROOT_COORDS[root]
    lhs = torus * t.root_subgroup(root, X) * torus_inv
    return lhs == t.root_subgroup(root, (t2 * t2 / t1) ** m * (t1 / t2) ** n * X)


def matrix_zeta_witness(powers):
    """Oracle for the cocharacter half of `zeta_witness`: D e D^-1 - e with
    D = diag(zeta^n) over `powers`, zeta a symbol, vanishes modulo
    zeta^2 + zeta + 1 iff that polynomial divides every entry's numerator."""
    z = MPoly.var("zeta")
    zeta = RFrac(z)
    e = t._linear_coefficient("a") + t._linear_coefficient("a+3b")
    d = SymMatrix.diagonal([zeta ** n for n in powers])
    d_inv = SymMatrix.diagonal([zeta ** -n for n in powers])
    residue = d * e * d_inv - e
    return all(x.num.divexact(z * z + z + 1) is not None for row in residue.entries for x in row)


class TestOneParameterStructure:
    @pytest.mark.parametrize("name", t.ROOT_NAMES)
    def test_additivity(self, name):
        assert t.one_parameter_identity(name)

    @pytest.mark.parametrize("name", t.ROOT_NAMES)
    def test_torus_conjugation(self, name):
        assert t.conj_relation(name)

    @pytest.mark.parametrize("swap_power", [False, True])
    @pytest.mark.parametrize("name", t.ROOT_NAMES)
    def test_torus_conjugation_matches_the_matrix_identity(self, monkeypatch, name, swap_power):
        # With the power of x in the root's first entry swapped between 1 and 2,
        # both readings of the identity must fail together.
        if swap_power:
            (i, j, coeff, power, div_a), *rest = t._GEN_ENTRIES[name]
            swapped = ((i, j, coeff, 3 - power, div_a), *rest)
            monkeypatch.setattr(t, "_GEN_ENTRIES", {**t._GEN_ENTRIES, name: swapped})
        assert t.conj_relation(name) == matrix_conj_relation(name) == (not swap_power)

    def test_torus_conjugation_rejects_an_unsupported_root(self):
        with pytest.raises(ValueError, match="unsupported root"):
            t.conj_relation("c")

    @pytest.mark.parametrize("name", t.ROOT_NAMES)
    def test_swapped_standard_weights_fail_both_readings(self, monkeypatch, name):
        # The first two standard weights swapped: the torus and the weight
        # arithmetic both read the swapped table, and every root fails.
        w = kostant.R7_WEIGHTS_MODEL
        monkeypatch.setattr(kostant, "R7_WEIGHTS_MODEL", (w[1], w[0]) + w[2:])
        assert t.conj_relation(name) is matrix_conj_relation(name) is False


class TestTorusFromWeights:
    """The roots, the torus, its Cartan directions, the short coroot at zeta
    and the probe's torus columns, derived from `roots` and the standard
    weights, are the tables first transcribed for the model."""

    def test_roots(self):
        assert {name: root.coords() for name, root in t._ROOTS.items()} == ROOT_COORDS

    def test_torus_diagonal(self):
        one = RFrac.const(1)
        assert t.torus_elem(T1, T2) == SymMatrix.diagonal([T1, T2, T1 / T2, one, T2 / T1, one / T2, one / T1])

    def test_cartan_directions(self):
        assert (t.H1, t.H2) == (SymMatrix.diagonal(H1_DIAGONAL), SymMatrix.diagonal(H2_DIAGONAL))

    def test_short_coroot_at_zeta(self, monkeypatch):
        # The weight arithmetic agrees with the matrix witness over the
        # transcribed zeta powers, and with the first two standard weights
        # swapped, with the matrix witness over the swapped powers.
        assert all(t.zeta_witness().values())
        assert t.zeta_witness()["short_coroot_at_zeta_centralizes"] is matrix_zeta_witness(ZETA_POWERS) is True
        w = kostant.R7_WEIGHTS_MODEL
        monkeypatch.setattr(kostant, "R7_WEIGHTS_MODEL", (w[1], w[0]) + w[2:])
        swapped = (ZETA_POWERS[1], ZETA_POWERS[0]) + ZETA_POWERS[2:]
        assert t.zeta_witness()["short_coroot_at_zeta_centralizes"] is matrix_zeta_witness(swapped) is False

    def test_probe_torus_columns(self):
        t1, t2 = MPoly.var("t1s"), MPoly.var("t2s")
        diag = [t1 * t1 * t2, t1 * t2 * t2, t1 * t1, t1 * t2, t2 * t2]
        assert t._poly_generator_columns("torus", "s") == tuple(((j, x),) for j, x in enumerate(diag))


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

    ORACLE_WORDS = sorted({w.word for w in roots.WEYL_GROUP} | {word for word, _ in checks._CYCLE_TABLE} | {"ababa"})

    @pytest.mark.parametrize("word", ORACLE_WORDS)
    def test_images_match_the_monomial_representatives(self, word):
        assert t.weyl_word_to_s7(word) == t.perm_of_monomial(t.weyl_rep(word))

    def test_an_unknown_letter_is_rejected(self):
        with pytest.raises(ValueError, match="unknown reflection letter"):
            t.weyl_word_to_s7("ac")

    @pytest.mark.xfail(strict=True, reason="the transcription carries an extra (35) cycle")
    def test_length_five_word_with_extra_transposition(self):
        assert t.weyl_word_to_s7("ababa") == t.perm_from_cycles(((1, 6), (2, 7), (3, 5)))

    def test_length_five_word_exact_value(self):
        assert t.weyl_word_to_s7("ababa") == t.perm_from_cycles(((1, 6), (2, 7)))

    def test_homomorphism_on_reduced_products(self):
        """The map is a homomorphism of W(G2): the image of the reduced word
        of w1 * w2 is the product of the images, on all 144 pairs. The
        s7-homomorphism check proves this from the Coxeter relators."""
        images = {w.word: t.weyl_word_to_s7(w.word) for w in roots.WEYL_GROUP}
        for w1 in roots.WEYL_GROUP:
            for w2 in roots.WEYL_GROUP:
                assert t.weyl_word_to_s7((w1 * w2).word) == t.compose_perms(images[w1.word], images[w2.word])

    def test_representatives_multiply_like_words(self):
        """rep(w1 w2) = rep(w1) rep(w2) on all 144 pairs: weyl_rep multiplies
        the generator matrices in the order the word is written, so the
        representative of a concatenated word is the product of the two."""
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

    def test_containment_is_the_block_upper_pattern(self):
        # Oracle: the entries below the (2, 3, 2) blocks as first written,
        # 0-indexed; a unit matrix there leaves the parabolic.
        below = {(i, j) for i in range(7) for j in range(7) if (i >= 2 and j < 2) or (i >= 5 and j < 5)}
        units = {(i, j): SymMatrix([[int((r, c) == (i, j)) for c in range(7)] for r in range(7)])
                 for i in range(7) for j in range(7)}
        assert {pos for pos, unit in units.items() if not t.in_P232(unit)} == below

    def test_containment_reads_the_blocks(self, monkeypatch):
        # Regrouped as (3, 2, 2), the blocks no longer hold g(-b, x): its
        # (4, 3) entry lies below them.
        monkeypatch.setattr(t, "_BLOCKS", ({1, 2, 3}, {4, 5}, {6, 7}))
        assert not t.in_P232(t.parabolic_generator("-b"))
        assert not t.bruhat_disjointness_check()["all_generators_contained"]

    def test_entry_relations_on_generators(self):
        assert t.coeff_relations_hold(t.parabolic_generator("b"))

    def test_relation_probe_length_two(self):
        rep = t.coeff_relations_probe(2)
        assert rep["max_length"] == 2
        assert rep["products_checked"] == 72

    def test_relation_probe_bounds(self):
        # Length 0 checks no product (``triform --word-length 0``); a
        # negative length is refused by name rather than indexing past the
        # generator table.
        assert t.coeff_relations_probe(0) == {"max_length": 0, "products_checked": 0, "generators": 8}
        with pytest.raises(ValueError, match="word length bound must be at least 0, got -1"):
            t.coeff_relations_probe(-1)

    def test_relation_probe_can_fail(self, monkeypatch):
        # An explicit raise, so the probe still checks under python -O.
        monkeypatch.setattr(t, "_failing_forms", lambda table, rows: frozenset(range(len(table))))
        with pytest.raises(AssertionError, match="coefficient relation failed at depth 1 on a$"):
            t.coeff_relations_probe(2)

    @pytest.mark.parametrize("length", (2, 3, 4))
    @pytest.mark.parametrize("index", range(4))
    def test_relation_probe_catches_a_sign_flip_in_the_table(self, monkeypatch, index, length):
        # The four entries of g(b, x) in columns 1-5; a flipped sign breaks a
        # relation on some product of `length` generators, the first in
        # pre-order being `word`: the flipped b after a run of a's, or after
        # a's and one a+b.
        word = "a*" * (length - 2) + ("a*b", "a*b", "a*b", "a+b*b")[index]
        entries = list(t._GEN_ENTRIES["b"])
        i, j, coeff, power, div_a = entries[index]
        assert j <= 5
        entries[index] = (i, j, -coeff, power, div_a)
        monkeypatch.setitem(t._GEN_ENTRIES, "b", tuple(entries))
        with pytest.raises(
            AssertionError, match=f"coefficient relation failed at depth {length} on {re.escape(word)}$",
        ):
            t.coeff_relations_probe(length)

    def test_a_sign_flip_fails_the_probe_under_python_O(self):
        # Lengths 2 and 3 print their failures; length 4 raises uncaught.
        script = (
            "import sys\n"
            "from g2forge import triform as t\n"
            "if sys.flags.optimize != 1:\n"
            "    raise SystemExit('not optimized')\n"
            "i, j, coeff, power, div_a = t._GEN_ENTRIES['b'][0]\n"
            "t._GEN_ENTRIES['b'] = ((i, j, -coeff, power, div_a),) + t._GEN_ENTRIES['b'][1:]\n"
            "for length in (2, 3):\n"
            "    try:\n"
            "        t.coeff_relations_probe(length)\n"
            "    except AssertionError as e:\n"
            "        print(e)\n"
            "t.coeff_relations_probe(4)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines() == [
            "coefficient relation failed at depth 2 on a*b",
            "coefficient relation failed at depth 3 on a*a*b",
        ]
        assert proc.stderr.splitlines()[-1] == "AssertionError: coefficient relation failed at depth 4 on a*a*a*b"

    def test_relation_check_agrees_with_coeff_relations_on_the_walk(self):
        # The walk checks a product on its prefix's rows through the table
        # forms of its last generator; on every product of the depth-2 walk
        # its verdict equals that of `coeff_relations` of the product.
        verdicts = []

        def visit(word, rows, holds):
            product = t._rows_mul(rows, t._poly_generator_columns(word[-1], str(len(word))))
            verdicts.append((word, holds, all(r.is_zero() for r in t.coeff_relations(product))))

        t.walk_parabolic_words(2, visit)
        assert len(verdicts) == 8 + 64
        assert [v for v in verdicts if v[1:] != (True, True)] == []

    @pytest.mark.parametrize("index", range(4))
    def test_relation_check_agrees_with_coeff_relations_on_a_broken_walk(self, monkeypatch, index):
        # With a sign of g(b, x) flipped, some products fail; the walk's
        # verdict still equals that of `coeff_relations` of each product.
        entries = list(t._GEN_ENTRIES["b"])
        i, j, coeff, power, div_a = entries[index]
        entries[index] = (i, j, -coeff, power, div_a)
        monkeypatch.setitem(t._GEN_ENTRIES, "b", tuple(entries))
        verdicts = []

        def visit(word, rows, holds):
            product = t._rows_mul(rows, t._poly_generator_columns(word[-1], str(len(word))))
            verdicts.append((holds, all(r.is_zero() for r in t.coeff_relations(product))))

        t.walk_parabolic_words(2, visit)
        assert all(walked == direct for walked, direct in verdicts)
        assert (False, False) in verdicts

    @pytest.mark.parametrize("ones, relations", [(("h21", "h14"), (1, 0)), (("h22", "h14"), (0, 1))])
    def test_relation_check_agrees_with_coeff_relations_where_one_is_nonzero(self, ones, relations):
        # At 0/1 rows where (r1, r2) is (1, 0) or (0, 1): the forms of
        # g(a, x) are M_1 and M_2 themselves, so their values are the
        # relations, and the nonzero one is a failing form.
        rows = tuple(
            tuple(MPoly.const(int(f"h{i}{j}" in ones)) for j in range(1, 6)) for i in (1, 2)
        )
        assert t.coeff_relations(rows) == tuple(MPoly.const(r) for r in relations)
        table, parts = t._relation_table()
        relation_forms = [tuple((m, a, b) for (a, b), m in sorted(form.items())) for form in t._RELATION_FORMS]
        assert [table[k] for k in sorted(parts["a"])] == relation_forms
        assert tuple(MPoly.bilinear(form, *rows) for form in relation_forms) == t.coeff_relations(rows)
        failing = t._failing_forms(table, rows)
        assert [k in failing for k in sorted(parts["a"])] == [bool(r) for r in relations]

    @given(st.lists(_ROW_ENTRY, min_size=10, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_coeff_relations_are_the_explicit_quadratics(self, entries):
        # The one transcription, `_RELATION_FORMS`, read against r1 and r2 as
        # written out, on `MPoly` rows and on the same rows as `RFrac`s.
        rows = (tuple(entries[:5]), tuple(entries[5:]))
        (h11, h12, h13, h14, h15), (h21, h22, h23, h24, h25) = rows
        r1 = 2 * h13 * h22 - 2 * h12 * h23 + h14 * h21 - h11 * h24
        r2 = 2 * h11 * h25 - 2 * h15 * h21 + h14 * h22 - h12 * h24
        assert t.coeff_relations(rows) == (r1, r2)
        fracs = tuple(tuple(RFrac(e) for e in row) for row in rows)
        assert t.coeff_relations(fracs) == (RFrac(r1), RFrac(r2))

    @given(st.lists(_ROW_ENTRY, min_size=10, max_size=10), st.sampled_from(t.GENERATOR_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_relation_parts_sum_to_the_relations_of_the_product(self, entries, name):
        # r_k(h g) = h1 (G M_k G^T) h2^T for any rows h, not only parabolic
        # ones, and G M_k G^T is the sum of m N_m: the sum of m times the
        # value of N_m equals `coeff_relations` of the product term for term,
        # even on rows in the generator's own symbol x1.  For the identity's
        # columns, the only part is M_k itself.
        rows = (tuple(entries[:5]), tuple(entries[5:]))

        def values(cols):
            return tuple(
                sum((algebra._poly({m: 1}) * MPoly.bilinear(part, *rows) for m, part in split.items()), MPoly.zero())
                for split in t._relation_parts(cols)
            )

        cols = t._poly_generator_columns(name, "1")
        assert values(cols) == t.coeff_relations(t._rows_mul(rows, cols))
        identity = tuple(((j, MPoly.one()),) for j in range(5))
        table, _ = t._relation_table()
        assert t._relation_parts(identity) == ({0: table[0]}, {0: table[1]})
        assert values(identity) == t.coeff_relations(rows)

    @given(st.lists(_FRESH_ROW_ENTRY, min_size=10, max_size=10), st.sampled_from(t.GENERATOR_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_relation_parts_split_by_the_generators_own_monomials(self, entries, name):
        # Each N_m is a constant form with nonzero coefficients sorted by
        # (i, j), and each m a monomial in the generator's own symbols.  On
        # rows in other symbols, r_k of the product is then a polynomial in
        # those with coefficient the value of N_m at m, so it vanishes iff
        # every N_m does.
        rows = (tuple(entries[:5]), tuple(entries[5:]))
        cols = t._poly_generator_columns(name, "1")
        own = {"x1"} if name != "torus" else {"t11", "t21"}
        for split, relation in zip(t._relation_parts(cols), t.coeff_relations(t._rows_mul(rows, cols))):
            assert all(c != 0 for part in split.values() for c, _, _ in part)
            assert all([term[1:] for term in part] == sorted(term[1:] for term in part) for part in split.values())
            assert all(set(algebra._poly({m: 1}).vars) <= own for m in split)
            parts = [(m, MPoly.bilinear(part, *rows)) for m, part in split.items()]
            assert sum((algebra._poly({m: 1}) * v for m, v in parts), MPoly.zero()) == relation
            assert relation.is_zero() == all(v.is_zero() for _, v in parts)

    def test_relation_table_interns_the_split_forms(self):
        # The 16 pulled-back forms of the 8 generators split into parts of 72
        # terms in all, which intern into 2 constant forms up to a nonzero
        # scalar (8 terms): M_1 and M_2 as written, the seeds, which every
        # generator has; the x-parts of b and -b are their negatives.
        splits = [split for name in t.GENERATOR_NAMES for split in t._relation_parts(t._poly_generator_columns(name, ""))]
        assert (len(splits), sum(len(part) for split in splits for part in split.values())) == (16, 72)
        table, parts = t._relation_table()
        assert (len(table), sum(map(len, table))) == (2, 8)
        assert list(table) == [tuple((m, a, b) for (a, b), m in sorted(f.items())) for f in t._RELATION_FORMS]
        assert parts == dict.fromkeys(t.GENERATOR_NAMES, {0, 1})

    def test_every_split_form_is_a_nonzero_multiple_of_its_table_form(self):
        # Each N_m of each generator is s times the table form of the same
        # class for one nonzero rational s, term for term.
        table, parts = t._relation_table()
        scalars = {}
        for name in t.GENERATOR_NAMES:
            for split in t._relation_parts(t._poly_generator_columns(name, "")):
                for m, part in split.items():
                    (k,) = [k for k in parts[name] if [term[1:] for term in table[k]] == [term[1:] for term in part]]
                    ratios = {Q(c) / Q(r) for (c, *_), (r, *_) in zip(part, table[k])}
                    assert len(ratios) == 1 and 0 not in ratios
                    scalars.setdefault(name, []).append((k, m, ratios.pop()))
        (x_key,) = MPoly.var("x").terms
        assert sorted((k, s) for k, m, s in scalars["b"] if m == x_key) == [(0, -1)]
        assert sorted((k, s) for k, m, s in scalars["-b"] if m == x_key) == [(1, -1)]

    def test_each_table_form_is_evaluated_once_per_prefix(self, monkeypatch):
        # 585 prefixes (1 + 8 + 64 + 512) times the 2 table forms, in place of
        # 2 pulled-back forms for each of the 4,680 products.
        bilinear = MPoly.bilinear
        calls = []
        monkeypatch.setattr(MPoly, "bilinear", lambda form, u, v: calls.append(1) or bilinear(form, u, v))
        assert t.coeff_relations_probe(4)["products_checked"] == 8 + 64 + 512 + 4096
        assert len(calls) == (1 + 8 + 64 + 512) * 2 == 1170

    def test_relation_check_builds_no_intermediate_polynomial(self, monkeypatch):
        # Neither a prefix's rows checked through the table forms nor the
        # product's own rows, on which every table form vanishes too.
        prefixes, products = [], []

        def visit(word, rows, holds):
            prefixes.append(rows)
            products.append(t._rows_mul(rows, t._poly_generator_columns(word[-1], str(len(word)))))

        t.walk_parabolic_words(2, visit)
        table, _ = t._relation_table()
        calls = []

        def counted(name, op):
            def wrapper(*args):
                calls.append(name)
                return op(*args)
            return wrapper

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
            monkeypatch.setattr(MPoly, name, counted(name, getattr(MPoly, name)))
        assert all(not t._failing_forms(table, rows) for rows in prefixes + products)
        assert calls == []

    def test_rows_are_built_for_proper_prefixes_only(self, monkeypatch):
        rows_mul = t._rows_mul
        calls = []
        monkeypatch.setattr(t, "_rows_mul", lambda rows, cols: calls.append(1) or rows_mul(rows, cols))
        assert t.coeff_relations_probe(3)["products_checked"] == 8 + 64 + 512
        assert len(calls) == 8 + 64

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
        # depth d, as the walk scales it.  The walk hands each product the
        # rows of its prefix; those times the last generator's columns are
        # the product's.
        products = {(): (SymMatrix.identity(7), RFrac.const(1))}
        mismatches = []

        def expected_rows(word):
            product, scale = products[word]
            return [[product[r, j] * scale for j in range(5)] for r in (0, 1)]

        def visit(word, rows, holds):
            depth = str(len(word))
            product, scale = products[word[:-1]]
            name = word[-1]
            product = product * t.parabolic_generator(name, depth)
            if name == "torus":
                scale = scale * RFrac.var("t1" + depth) * RFrac.var("t2" + depth)
            products[word] = (product, scale)
            walked = t._rows_mul(rows, t._poly_generator_columns(name, depth))
            if [[RFrac(e) for e in row] for row in rows] != expected_rows(word[:-1]):
                mismatches.append(word[:-1])
            if [[RFrac(e) for e in row] for row in walked] != expected_rows(word):
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
        m1, m2 = t._RELATION_FORMS
        monkeypatch.setattr(t, "_RELATION_FORMS", ({**m1, (0, 1): 1, (1, 0): -1}, m2))
        assert t.coeff_relations_certificate() == ["identity", "b", "torus"]


class TestLieAlgebra:
    def test_dimension(self):
        assert len(t.lie_basis().names) == 14

    def test_bracket_closure(self):
        # X -> X.phi has rank 35 over Q(a), and no basis matrix leaves a residue.
        lie = t.lie_basis()
        assert (lie.derivation_rank, lie.nonstabilizing) == (35, ())

    def test_the_bracket_table_closes(self, bracket_table):
        # The enumerating oracle for the proof: every [B_i, B_j] has
        # coordinates, and they rebuild the bracket.
        lie = t.lie_basis()
        for i, j in ((i, j) for i in range(14) for j in range(i + 1, 14)):
            rebuilt = lie.element({name: c for name, c in zip(lie.names, bracket_table[i][j]) if c})
            assert rebuilt == t.bracket(lie.matrices[i], lie.matrices[j]), (i, j)

    def test_a_wrong_generator_entry_fails_the_proof(self, monkeypatch):
        # The (3, 4) entry of g(b, x) with the wrong sign: the form's rank is
        # unchanged, but e[b] and its conjugate under w_long stop stabilizing it.
        entries = list(t._GEN_ENTRIES["b"])
        entries[1] = (3, 4, 2, 1, False)
        monkeypatch.setitem(t._GEN_ENTRIES, "b", tuple(entries))
        lie = t.LieG2()
        assert (lie.derivation_rank, lie.nonstabilizing) == (35, ("e[b]", "e[-(b)]"))

    def test_dependent_basis_matrices_raise(self, monkeypatch):
        monkeypatch.setattr(t, "H2", t.H1)
        with pytest.raises(ValueError, match="linearly dependent"):
            t.LieG2()

    def test_bracket_rows_on_the_generic_element(self):
        # Both sides are linear in x, so agreement on the generic element
        # sum c_i B_i with symbolic c_i is an identity on the whole span.
        lie = t.lie_basis()
        coeffs = {name: RFrac(MPoly.var(f"c{i}")) for i, name in enumerate(lie.names)}
        x = lie.element(coeffs)
        expected = [{k: v for k, v in enumerate(vec(t.bracket(x, b))) if v.terms} for b in lie.matrices]
        assert lie.bracket_rows(coeffs) == expected
        # The rows keep nonzero entries only: a zero coefficient adds none,
        # and h1 commutes with both torus directions.
        assert lie.bracket_rows({"h2": 0, "e[a]": 1}) == lie.bracket_rows({"e[a]": 1})
        assert lie.bracket_rows({"h1": 1})[:2] == [{}, {}]
        with pytest.raises(ValueError):
            lie.bracket_rows({"e[z]": 0})

    def test_centralizer_dims_match_the_adjoint_oracle(self, bracket_table):
        lie = t.lie_basis()
        elements = [{name: 1} for name in lie.names]
        elements += [{f"e[{s}]": 1 for s in summands} for _, summands, _, _ in arthur._ORBIT_DATA]
        for x in elements:
            assert lie.centralizer_dim(x) == oracle_centralizer_dim(lie, bracket_table, lie.element(x)), x
        e, h, f = t.subregular_sl2_triple()
        assert lie.centralizer_dim(t.SUBREGULAR_E, t.SL2_WITNESS) == oracle_centralizer_dim(lie, bracket_table, e, f)
        assert [lie.centralizer_dim(x) for x in elements[14:]] == [14, 8, 6, 4, 2]

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
            "zero": {},
            "long": {"e[a]": 1},
            "short": {"e[b]": 1},
            "subregular": t.SUBREGULAR_E,
            "regular": {"e[a]": 1, "e[b]": 1},
        }
        dims = {k: lie.centralizer_dim(v) for k, v in reps.items()}
        assert dims == {"zero": 14, "long": 8, "short": 6, "subregular": 4, "regular": 2}

    def test_centralizer_dims_are_memoised_on_the_instance(self, monkeypatch):
        lie = t.lie_basis()
        reordered = dict(reversed(list(t.SUBREGULAR_E.items())))
        assert lie.centralizer_dim(t.SUBREGULAR_E) == lie.centralizer_dim(reordered) == 4
        key = tuple(sorted(t.SUBREGULAR_E.items()))
        assert lie._centralizer_dims[(key,)] == 4
        # A mutated witness is a key of its own.
        mutated = {**t.SL2_WITNESS, "e[-(a)]": -1}
        lie.centralizer_dim(t.SUBREGULAR_E, mutated)
        assert (key, tuple(sorted(mutated.items()))) in lie._centralizer_dims
        # A reset cache builds a basis with an empty memo.
        monkeypatch.setattr(t, "_LIE_CACHE", None)
        fresh = t.lie_basis()
        assert fresh is not lie and fresh._centralizer_dims == {}

    def test_subregular_sl2_and_zeta(self):
        lie = t.lie_basis()
        e, h, f = t.subregular_sl2_triple()
        assert e == lie.by_name("e[a]") + lie.by_name("e[a+3b]")
        assert h == t.torus_direction(Q(2), Q(2))
        assert t.bracket(e, f) == h
        assert t.bracket(h, e) == e.scale(RFrac.const(2))
        assert t.bracket(h, f) == f.scale(RFrac.const(-2))
        assert lie.centralizer_dim(t.SUBREGULAR_E, t.SL2_WITNESS) == 0
        witness = t.zeta_witness()
        assert all(witness.values())

    def test_the_witness_is_the_only_completion(self, bracket_table):
        # The f-coordinates c of a completion solve ad_e c = h and
        # (ad_h + 2I) c = 0.  For h = (2, 2) that system has full rank 14, so
        # the witness is its only solution; for the multiples (1, 1) and
        # (4, 4) the right-hand side raises the rank to 15: no f exists.
        lie = t.lie_basis()
        e = lie.by_name("e[a]") + lie.by_name("e[a+3b]")
        ad_e = oracle_adjoint(bracket_table, oracle_coordinates(lie, e))
        for c, augmented_rank in ((Q(2), 14), (Q(1), 15), (Q(4), 15)):
            h = t.torus_direction(c, c)
            h_coords = oracle_coordinates(lie, h)
            shifted = oracle_adjoint(bracket_table, h_coords) + SymMatrix.identity(14).scale(RFrac.const(2))
            system = SymMatrix(ad_e.entries + shifted.entries)
            rhs = h_coords + [R_ZERO] * 14
            augmented = SymMatrix([row + (b,) for row, b in zip(system.entries, rhs)])
            assert (system.rank(), augmented.rank()) == (14, augmented_rank)

    def test_the_check_needs_h_f_equal_to_minus_two_f(self, monkeypatch):
        # e[a+b] centralizes e, so adding it to f keeps [e, f] = h; only
        # [h, f] = -2f tells the wrong witness apart.
        monkeypatch.setattr(t, "SL2_WITNESS", {**t.SL2_WITNESS, "e[a+b]": 1})
        e, h, f = t.subregular_sl2_triple()
        assert t.bracket(e, f) == h
        assert checks.subregular_sl2()[0] == "fail"

    def test_zeta_witness_can_fail(self, monkeypatch):
        # The short coroot at zeta does not centralize e[b]: entry (1, 2) of
        # e[b] joins the zeta powers 1 and -1, which differ by 2 mod 3.
        e_b = t._linear_coefficient("b")
        monkeypatch.setattr(t, "_linear_coefficient", lambda root: e_b)
        assert t.zeta_witness()["short_coroot_at_zeta_centralizes"] is False
