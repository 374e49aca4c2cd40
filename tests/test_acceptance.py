"""End-to-end acceptance gate: the ten headline checks, each with an
explicit wall-clock budget."""

import io
import json
import os
import time
from contextlib import redirect_stdout
from fractions import Fraction as Q

from g2forge import arthur, cli, kostant, lattice, phin, triform
from g2forge import roots as r
from g2forge.algebra import MPoly, RFrac, SymMatrix

HERE = os.path.dirname(os.path.abspath(__file__))


class Budget:
    """Context manager asserting a wall-clock bound on exit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"
        return False


def test_01_form_stabilization_under_one_second():
    with Budget(1.0):
        x = RFrac.var("x")
        form = triform.generic_form()
        for name in triform.ROOT_NAMES:
            assert form.pullback(triform.root_subgroup(name, x)) == form, name
        torus = triform.torus_elem(RFrac.var("t1"), RFrac.var("t2"))
        assert form.pullback(torus) == form


def test_02_weyl_to_s7_under_one_second():
    # The table lists the eight composite words whose transcribed cycle images
    # are consistent; the ninth composite word's transcription carries an
    # extra (35) factor that contradicts the homomorphism property, so the
    # recomputed value (16)(27) is asserted instead (see the strict xfail in
    # test_triform for the transcribed variant).
    table = {
        "a": ((2, 3), (5, 6)),
        "b": ((1, 2), (3, 5), (6, 7)),
        "ab": ((1, 2, 5, 7, 6, 3),),
        "ba": ((3, 6, 7, 5, 2, 1),),
        "aba": ((3, 1), (2, 6), (5, 7)),
        "bab": ((1, 5), (3, 7)),
        "abab": ((1, 5, 6), (2, 7, 3)),
        "baba": ((1, 6, 5), (2, 3, 7)),
        "ababa": ((1, 6), (2, 7)),
        "babab": ((1, 7), (2, 5), (3, 6)),
        "ababab": ((1, 7), (2, 6), (3, 5)),
    }
    with Budget(1.0):
        for word, cycles in table.items():
            assert triform.weyl_word_to_s7(word) == triform.perm_from_cycles(cycles), word
        # The image of the reduced word of w1 * w2 is the product of the images.
        images = {w.word: triform.weyl_word_to_s7(w.word) for w in r.WEYL_GROUP}
        for w1 in r.WEYL_GROUP:
            for w2 in r.WEYL_GROUP:
                assert triform.weyl_word_to_s7((w1 * w2).word) == triform.compose_perms(
                    images[w1.word], images[w2.word]
                )


def test_03_coefficient_relations_length_four_under_thirty_seconds():
    with Budget(30.0):
        rep = triform.coeff_relations_probe(4)
        assert rep["max_length"] == 4
        assert rep["products_checked"] == 8 + 64 + 512 + 4096


def test_04_degree_cases_symbolic_under_one_second():
    with Budget(1.0):
        c1 = MPoly.var("c1")
        c2 = MPoly.var("c2")
        cases = kostant.degree_cases_alpha(c1, c2)
        assert [c.degree for c in cases] == [4, 5, 6]
        assert RFrac(cases[0].k) == RFrac(2 * c1 + c2 + 4)
        assert cases[0].s == (RFrac(c2) + 1) / 10
        # the degree-4 case's negated shifted weight, symbolically
        assert cases[0].w.word == "bab"
        assert cases[0].neg_shifted == r.Weight(-(RFrac(c1) + 1), RFrac(c2) + 1)
        assert RFrac(cases[1].k) == RFrac(c1 + c2 + 3)
        assert cases[1].s == (3 * RFrac(c1) + RFrac(c2) + 4) / 10
        assert RFrac(cases[2].k) == RFrac(c1 + 2)
        assert cases[2].s == (3 * RFrac(c1) + 2 * RFrac(c2) + 5) / 10


def test_05_dot_action_and_criticality_under_five_seconds():
    with Budget(5.0):
        k = RFrac.var("k")
        lam = r.lambda0(k)
        assert r.dot_act(r.W_BETA, lam) == lam - r.BETA
        lhs = r.dot_act(r.element("ab"), lam) + r.two_rho(r.P_SHORT)
        assert lhs == (3 * k - 4) / 4 * r.BETA + (k + 4) / 4 * r.Weight(2, 3)
        for kk in range(2, 41):
            lam_k = r.lambda0(kk)
            for twice_sp in range(0, kk):
                sp = Q(twice_sp, 2)
                if not kk > 4 * sp + 4:
                    continue
                crit = r.critical_set(r.slope_weight(sp), lam_k)
                assert [w.word for w in crit] == ["b"], (kk, sp)


def test_06_lattice_calculus_under_ten_seconds():
    with Budget(10.0):
        five = lattice.five_dim_wedge_report()
        assert five["top_row_matches_c_polynomials"]
        assert five["below_block_vanishes"]
        assert five["wedge_block_equals_sym_cube"]
        elim = lattice.relation_elimination()
        assert elim["det_natural_is_minus_9d3"]
        assert elim["elimination_preserves_det"]
        four = lattice.four_dim_wedge_report()
        assert four["col2_vanishes_mod_relations"]
        assert four["col4_star_identity_mod_relations"]
        assert four["displayed_star"] == "(g16*g77 + g26*g67)/(g66*g77 - g67*g76)"


def test_07_filtered_module_suite_under_ten_seconds():
    with Budget(10.0):
        # Frobenius/monodromy commutation, symbolically in the block entries
        a = SymMatrix([[RFrac.var(f"a{i}{j}") for j in range(2)] for i in range(2)])
        x, y = RFrac.var("x"), RFrac.var("y")
        commuting = SymMatrix.identity(2).scale(x) + a.scale(y)
        assert phin.phi_relation_defect(a, commuting).is_zero()

        # 50 random distinct parameter pairs are distinguished
        import random

        rng = random.Random(7)

        def rand_pair():
            b = SymMatrix(
                [[RFrac.const(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
            )
            return b, RFrac.const(rng.randint(-9, 9))

        seen = 0
        while seen < 50:
            (b1, c1), (b2, c2) = rand_pair(), rand_pair()
            if (b1 - b2).is_zero() and (c1 - c2).is_zero():
                continue
            assert phin.ebc_modules_differ(phin.build_EBc(b1, c1, 4, 1), phin.build_EBc(b2, c2, 4, 1))
            seen += 1

        # rank-2 admissibility over the slope grid
        for k in range(2, 21):
            for twice_sp in range(0, k):
                assert phin.is_admissible(phin.d_st(k, Q(twice_sp, 2)))

        # the four displayed constraint equations
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


def test_08_lie_orbit_suite_under_thirty_seconds():
    with Budget(30.0):
        lie = triform.lie_basis()
        # The stabilizer proof, at the symbolic parameter: X -> X.phi has rank
        # 35, and every basis matrix stabilizes the form.
        assert (lie.derivation_rank, lie.nonstabilizing) == (35, ())
        dims = [14 - rec.dim for rec in arthur.orbit_table()]
        assert dims == [14, 8, 6, 4, 2]
        e, h, f = triform.subregular_sl2_triple()
        assert triform.bracket(e, f) == h
        assert triform.bracket(h, e) == e.scale(2)
        assert triform.bracket(h, f) == f.scale(-2)
        assert lie.centralizer_dim(triform.SUBREGULAR_E, triform.SL2_WITNESS) == 0
        witness = triform.zeta_witness()
        assert all(witness.values())


def test_09_appendix_formulas_under_one_second():
    with Budget(1.0):
        quotient, discrete = arthur.packet_psi_k(4)
        assert quotient.cohomology_degrees == frozenset({3, 5})
        assert discrete.cohomology_degrees == frozenset({4})
        assert quotient.harish_chandra_param == r.lambda0(4) + r.RHO
        assert arthur.packet_psi_k(12)[1].harish_chandra_param == r.lambda0(12) + r.RHO

        import random

        rng = random.Random(7)
        for _ in range(20):
            assert arthur.lift_pairing_consistent(rng.randint(1, 50), rng.randint(1, 50))

        ledger = arthur.multiplicity_ledger(12, 1)
        assert ledger.bound == ("m_cusp(plain)", 2)


def test_10_determinism_and_coverage(tmp_path):
    def capture(*extra):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(["verify", "--seed", "7", *extra])
        return code, buf.getvalue()

    code1, out1 = capture("--format", "json")
    code2, out2 = capture("--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    # Timings go to their own file and leave both report forms unchanged.
    assert capture("--format", "json", "--timings", str(tmp_path / "t.json")) == (0, out1)
    assert capture("--timings", str(tmp_path / "t.json")) == capture()

    rep = json.loads(out1)
    seen = [f"{s['name']}/{c['id']}" for s in rep["suites"] for c in s["checks"]]
    with open(os.path.join(HERE, "coverage_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)["checks"]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(manifest)
