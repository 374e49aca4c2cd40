"""The paper's claims about split G2 as the checks of `g2forge verify`, in
six suites: roots, kostant, triform (the 3-form stabilizer), wedge2 (the
Sym^3 block of the wedge square), phin (the (phi, N)-modules) and arthur
(the multiplicity ledger). Each check is a function registered with
`@check`; `run_verify` runs them all into the deterministic report."""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from fractions import Fraction as Q
from itertools import accumulate, product
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from . import __version__, arthur, kostant, lattice, phin, triform
from . import roots as rootsmod
from .algebra import MPoly, RFrac, SymMatrix

# Relative to the working directory; it does not follow the output directory.
GOLDEN_PATH = os.path.join("tests", "goldens", "wedge2_display.json")

if TYPE_CHECKING:
    # Annotations only, which are never evaluated: building this alias at
    # import time would cost every command tens of microseconds.
    CheckFn = Callable[[], Tuple[str, str]]

# Every verification check, keyed by (suite, id, anchor), in report order.
# Tests that show a check can fail run it alone by replacing this dict with a
# cut-down copy, which `run_verify` reads at call time. This module is not
# one of the benchmark tracer's layers, so under `--trace 1` a check's own
# time is no longer counted in `cli.self_s`; the layers it calls keep theirs.
CHECKS: Dict[Tuple[str, str, str], CheckFn] = {}


def check(suite: str, id: str, anchor: str) -> Callable[[CheckFn], CheckFn]:
    """Register `fn() -> (status, detail)` as the next check of
    `suite`; the checks of one suite must be registered together."""

    def register(fn: CheckFn) -> CheckFn:
        CHECKS[(suite, id, anchor)] = fn
        return fn

    return register


def _bool(ok: bool, detail: str) -> Tuple[str, str]:
    return ("pass" if ok else "fail", detail)


# ---------------------------------------------------------------------------
# roots suite

@check("roots", "weyl-group-order", "dihedral group of order 12")
def weyl_group_order():
    W = rootsmod.WEYL_GROUP
    ok = len(W) == 12 and rootsmod.LONGEST.length == 6
    lengths = sorted(w.length for w in W)
    return _bool(
        ok and lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
        f"order {len(W)}, lengths {lengths}",
    )


@check("roots", "length-inversions", "word length equals inversion count")
def length_inversions():
    bad = [w.name for w in rootsmod.WEYL_GROUP if rootsmod.length_by_inversions(w) != w.length]
    return _bool(not bad, f"mismatches: {bad}")


@check("roots", "coset-representatives", "minimal coset representatives and the three truncated rep sets")
def coset_representatives():
    sizes = {
        tag: len(rootsmod.minimal_coset_reps(par))
        for tag, par in rootsmod.PARABOLICS.items()
    }
    eis_ok = all(
        set(par.eis_words) <= {w.word for w in rootsmod.minimal_coset_reps(par)}
        and sorted(len(w) for w in par.eis_words) == list(range(len(par.eis_words)))
        for par in rootsmod.PARABOLICS.values()
    )
    return _bool(
        sizes == {"P_long": 6, "P_short": 6, "B": 12} and eis_ok,
        f"coset sizes {sizes}, eis words are initial-length minimal reps: {eis_ok}",
    )


@check("roots", "nilradical-root-sums", "sums of nilradical roots 5a+10b, 6a+9b, 6a+10b")
def nilradical_root_sums():
    vals = {tag: str(rootsmod.two_rho(par)) for tag, par in rootsmod.PARABOLICS.items()}
    expected = {
        "P_long": str(rootsmod.Weight(5, 10)),
        "P_short": str(rootsmod.Weight(6, 9)),
        "B": str(rootsmod.Weight(6, 10)),
    }
    return _bool(vals == expected, f"2rho_P values {vals}")


@check("roots", "dot-action-beta-drop", "short dot-reflection drops one short root")
def dot_action_beta_drop():
    k = RFrac.var("k")
    lam = rootsmod.lambda0(k)
    ok = (lam - rootsmod.dot_act(rootsmod.W_BETA, lam)) == rootsmod.BETA
    return _bool(ok, "w_b * lam0 = lam0 - b (symbolic k)")


@check("roots", "dot-action-short-levi-shift", "shifted dot-action identity for the length-2 short-Levi word")
def dot_action_short_levi_shift():
    k = RFrac.var("k")
    lam = rootsmod.lambda0(k)
    lhs = rootsmod.dot_act(rootsmod.element("ab"), lam) + rootsmod.two_rho(rootsmod.P_SHORT)
    rhs = rootsmod.Weight((k + 4) / 2, (3 * k + 4) / 2)
    alt = (3 * k - 4) / 4 * rootsmod.BETA + (k + 4) / 4 * rootsmod.Weight(2, 3)
    return _bool(lhs == rhs and lhs == alt, "shift equals (3k-4)/4*b + (k+4)/4*(2a+3b)")


@check("roots", "criticality-window", "critical Weyl set {short reflection} in the low-slope window")
def criticality_window():
    critical, undecided = rootsmod.critical_set_on_window()
    return _bool(
        [w.word for w in critical] == ["b"] and not undecided,
        f"critical set {[w.name for w in critical]}, undecided {[w.name for w in undecided]} "
        "on the whole window k >= 4sp + 5, sp >= 0 (exact residue bounds on the cone)",
    )


# ---------------------------------------------------------------------------
# kostant suite

@check("kostant", "borel-piece-degrees", "12 pieces over degrees 0..6 with multiplicity 1,2,2,2,2,2,1")
def borel_piece_degrees():
    pieces = kostant.kostant_pieces(rootsmod.BOREL, rootsmod.Weight(0, 0))
    degs = Counter(p.degree for p in pieces)
    expected = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 1}
    return _bool(len(pieces) == 12 and degs == expected, f"degree multiplicities {sorted(degs.items())}")


@check("kostant", "weyl-dimension-samples", "dimension formula on the trivial/standard/adjoint weights")
def weyl_dimension_samples():
    samples = {
        "trivial": kostant.weyl_dim(rootsmod.Weight(0, 0)),
        "adjoint": kostant.weyl_dim(rootsmod.Weight(2, 3)),
        "standard": kostant.weyl_dim(rootsmod.Weight(1, 2)),
    }
    return _bool(samples == {"trivial": 1, "adjoint": 14, "standard": 7}, f"dims {samples}")


@check("kostant", "degree-case-triples", "the three (degree, k, s) long-parabolic cases, symbolic in (c1, c2)")
def degree_case_triples():
    c1, c2 = MPoly.var("c1"), MPoly.var("c2")
    cases = kostant.degree_cases_alpha(c1, c2)
    expected = [
        (4, 2 * c1 + c2 + 4, (RFrac(c2) + 1) / 10),
        (5, c1 + c2 + 3, (3 * RFrac(c1) + RFrac(c2) + 4) / 10),
        (6, c1 + 2, (3 * RFrac(c1) + 2 * RFrac(c2) + 5) / 10),
    ]
    ok = all(
        case.degree == deg and RFrac(case.k) == RFrac(kk) and case.s == ss
        for case, (deg, kk, ss) in zip(cases, expected)
    )
    detail = "; ".join(f"deg {c.degree}: k = {c.k}, s = {c.s}" for c in cases)
    return _bool(ok, detail)


@check("kostant", "lift-weight-examples", "lift coweight 10a_cov+6b_cov and factor weights (13, 9, 5) at (1, 1)")
def lift_weight_examples():
    cov, ks = arthur.lift_inf_char(1, 1)
    ok = cov == (10, 6) and ks == (13, 9, 5)
    ok = ok and arthur.lift_inf_char(1, 2)[1][0] == 15
    ok = ok and kostant.hodge_tate_weights(1, 1) == (6, 4, 2, 0, -2, -4, -6)
    return _bool(ok, f"(1,1) -> coweight {cov}, factor weights {ks}")


@check("kostant", "lift-pairing-random", "coweight pairing against the 7 standard weights equals the Hodge-Tate septuple")
def lift_pairing_random():
    ok = arthur.lift_pairing_consistent(MPoly.var("c1"), MPoly.var("c2"))
    return _bool(ok, "pairings equal the Hodge-Tate septuple identically in symbolic (c1, c2)")


# ---------------------------------------------------------------------------
# triform suite

_CYCLE_TABLE: Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...] = (
    ("a", ((2, 3), (5, 6))),
    ("b", ((1, 2), (3, 5), (6, 7))),
    ("ab", ((1, 2, 5, 7, 6, 3),)),
    ("ba", ((3, 6, 7, 5, 2, 1),)),
    ("aba", ((3, 1), (2, 6), (5, 7))),
    ("bab", ((1, 5), (3, 7))),
    ("abab", ((1, 5, 6), (2, 7, 3))),
    ("baba", ((1, 6, 5), (2, 3, 7))),
    ("babab", ((1, 7), (2, 5), (3, 6))),
    ("ababab", ((1, 7), (2, 6), (3, 5))),
)


@check("triform", "one-parameter-stabilizers", "seven one-parameter matrices and the torus preserve the generic 3-form")
def one_parameter_stabilizers():
    x = RFrac.var("x")
    form = triform.generic_form()
    mats = [(name, triform.root_subgroup(name, x)) for name in triform.ROOT_NAMES]
    mats.append(("torus", triform.torus_elem(RFrac.var("t1"), RFrac.var("t2"))))
    failing = [name for name, g in mats if form.pullback(g) != form]
    return _bool(not failing, f"8 matrices x 35 coefficients; failures: {failing}")


@check("triform", "variant-form-not-stabilized", "the support divergence in the 3-form transcription")
def variant_form_not_stabilized():
    x = RFrac.var("x")
    variant_form = triform.displayed_form_variant()
    failing = [
        name
        for name in triform.ROOT_NAMES
        if variant_form.pullback(triform.root_subgroup(name, x)) != variant_form
    ]
    if failing:
        return "finding", (
            "the (2,4,5)-support variant of the 3-form is not preserved by "
            f"{failing}; the corrected (2,4,6) support is the one all matrices stabilize"
        )
    return "fail", "variant unexpectedly preserved by all matrices"


@check("triform", "genericity-witness", "permute/rescale the textbook generic 3-form onto the same support")
def genericity_witness():
    rep = triform.genericity_witness()
    return _bool(
        bool(rep["support_matches"]),
        f"support match {rep['support_matches']}; on-the-nose coefficients {rep['coefficients_match']} "
        "(an exact match needs a cube root of the parameter)",
    )


@check("triform", "one-parameter-addition", "one-parameter additivity of all seven generators")
def one_parameter_addition():
    bad = [r for r in triform.ROOT_NAMES if not triform.one_parameter_identity(r)]
    return _bool(not bad, f"g(x) g(y) = g(x+y) failures: {bad}")


@check("triform", "torus-conjugation", "torus conjugation acts by the root characters")
def torus_conjugation():
    bad = [r for r in triform.ROOT_NAMES if not triform.conj_relation(r)]
    return _bool(not bad, f"torus conjugation rescales each parameter by its character; failures: {bad}")


@check("triform", "weyl-cycle-images", "cycle images of the Weyl representatives in S7")
def weyl_cycle_images():
    bad = [word for word, cyc in _CYCLE_TABLE if triform.weyl_word_to_s7(word) != triform.perm_from_cycles(cyc)]
    return _bool(not bad, f"generators plus 8 composite words; failures: {bad}")


@check("triform", "ninth-cycle-divergence", "the length-5 alternating word's cycle image")
def ninth_cycle_divergence():
    computed = triform.perm_cycles(triform.weyl_word_to_s7("ababa"))
    variant_perm = triform.perm_from_cycles(((1, 6), (2, 7), (3, 5)))
    honest = triform.perm_from_cycles(((1, 6), (2, 7)))
    if triform.weyl_word_to_s7("ababa") == honest and triform.weyl_word_to_s7("ababa") != variant_perm:
        return "finding", (
            f"the length-5 alternating word maps to {computed}; the (16)(27)(35) variant "
            "is inconsistent with the homomorphism property"
        )
    return "fail", f"computed {computed}"


@check("triform", "s7-homomorphism", "the word-to-permutation map is a homomorphism on all 144 pairs")
def s7_homomorphism():
    # von Dyck: the word map factors through W(G2) exactly when the relators map to e. A nontrivial normal subgroup
    # of the dihedral group of order 12 holds a rotation. perm(AB) = perm(A) perm(B) pins the composition convention.
    compose, e = triform.compose_perms, tuple(range(1, 8))
    p, q = triform.perm_of_monomial(triform.W_TILDE_A), triform.perm_of_monomial(triform.W_TILDE_B)
    ab = list(accumulate([compose(p, q)] * 6, compose))  # ab[k] = (ab)^(k + 1)
    bad = [name for name, ok in (
        ("a^2", compose(p, p) == e), ("b^2", compose(q, q) == e), ("order(ab) = 6", e not in ab[:5] and ab[5] == e),
        ("perm(AB)", triform.perm_of_monomial(triform.W_TILDE_A * triform.W_TILDE_B) == ab[0]),
    ) if not ok]
    return _bool(not bad, "a^2 and b^2 map to e and ab to a permutation of order exactly 6, so the map factors through "
                 f"<a, b | a^2, b^2, (ab)^6> and is faithful (a nontrivial kernel holds a rotation); failures: {bad}")


@check("triform", "coefficient-relations", "the two quadratic entry relations on the short-root parabolic")
def coefficient_relations():
    bad = triform.coeff_relations_certificate()
    return _bool(not bad, (
        "both quadratic relations vanish at the identity, and right multiplication by each of the "
        f"{len(triform.GENERATOR_NAMES)} parabolic generators maps the pair into its own span, so they vanish on "
        f"every product of generators, hence on the whole short-root parabolic; failures: {bad}"
    ))


@check("triform", "bruhat-block-intersection", "intersection with the (2,3,2) block parabolic")
def bruhat_block_intersection():
    rep = triform.bruhat_disjointness_check()
    ok = rep["all_generators_contained"] and sorted(rep["weyl_images_in_block_weyl_group"]) == ["e", "w_b"]
    return _bool(ok, f"block Weyl intersection {rep['weyl_images_in_block_weyl_group']}")


@check("triform", "bracket-closure", "the 14-dimensional stabilizer algebra closes under brackets")
def bracket_closure():
    lie = triform.lie_basis()
    table = lie.structure_constants()
    return _bool(len(table) == 91, f"all {len(table)} basis brackets stay in the 14-dim span (symbolic parameter)")


@check("triform", "centralizer-dimensions", "centralizer dimensions 14, 8, 6, 4, 2 of the five orbit representatives")
def centralizer_dimensions():
    dims = [14 - rec.dim for rec in arthur.orbit_table()]
    return _bool(dims == [14, 8, 6, 4, 2], f"centralizer dims {dims}")


@check("triform", "subregular-sl2", "sl2-triple through the subregular nilpotent has trivial centralizer")
def subregular_sl2():
    lie = triform.lie_basis()
    e = lie.by_name("e[a]") + lie.by_name("e[a+3b]")
    h = triform.torus_direction(Q(2), Q(2))
    f = triform.sl2_complete(e, h)
    ok = triform.bracket(e, f) == h
    dim = lie.sl2_centralizer_dim(e, f)
    return _bool(ok and dim == 0, f"triple completed; joint centralizer dim {dim}")


@check("triform", "zeta-witness", "cube-root-of-unity cocharacter and Weyl representative centralize the subregular nilpotent")
def zeta_witness():
    rep = triform.zeta_witness()
    return _bool(all(rep.values()), str(rep))


# ---------------------------------------------------------------------------
# wedge2 suite

def golden_payload() -> Dict[str, object]:
    """Canonical serialization of the transcribed display blocks."""
    block = lattice.displayed_sym_cube_block()
    return {
        "displayed_sym_cube_block": [[str(block[i, j]) for j in range(4)] for i in range(4)],
        "displayed_relation_rows": [[str(v) for v in row] for row in lattice.displayed_relation_rows()],
        "displayed_eliminated_rows": [[str(v) for v in row] for row in lattice.displayed_eliminated_rows()],
        "five_dim_basis": list(lattice.WEDGE_BASIS_5_LABELS),
        "four_dim_basis": list(lattice.WEDGE_BASIS_4_LABELS),
    }


def _generic_matrix(name: str, n: int) -> SymMatrix:
    return SymMatrix([[RFrac.var(f"{name}{i}{j}") for j in range(1, n + 1)] for i in range(1, n + 1)])


@check("wedge2", "five-column-block", "wedge square of the 5-dim extension block in the 10-element basis")
def five_column_block():
    five = lattice.five_dim_wedge_report()
    ok = (
        five["top_row_matches_c_polynomials"]
        and five["below_block_vanishes"]
        and five["wedge_block_equals_sym_cube"]
    )
    return _bool(ok, "top row = (d, c1, c2, c3, c4)/d^2; lower rows vanish; block = Sym^3 of the corner")


@check("wedge2", "displayed-block-cells", "two transcription divergences in the Sym^3 block")
def displayed_block_cells():
    five = lattice.five_dim_wedge_report()
    cells = five["displayed_block_mismatch_cells"]
    if cells == [(3, 3), (5, 4)]:
        return "finding", (
            f"transcribed block differs from the computed Sym^3 exactly at cells {cells}; "
            f"computed entries: (3,3) = {five['honest_cell_3_3']}, (5,4) = {five['honest_cell_5_4']}"
        )
    return "fail", f"mismatch cells {cells}"


@check("wedge2", "four-dim-invariant-plane", "wedge square of the 4-dim extension on the honest invariant plane")
def four_dim_invariant_plane():
    four = lattice.four_dim_wedge_report()
    ok = (
        four["col1_is_inverse_det_times_v2v1"]
        and four["col4_diagonal_is_one"]
        and four["col4_other_entries_zero"]
        and four["col4_v2v1_matches_formula"]
        and four["col2_v2v1_coeff_equals_rel2_over_d"]
    )
    return _bool(ok, "the plane spanned by v2^v1 and v7^v1 - v2^v6 is invariant (second vector exactly fixed)")


@check("wedge2", "four-dim-star-identity", "the star coupling polynomial (g67 g26 + g77 g16)/d")
def four_dim_star_identity():
    four = lattice.four_dim_wedge_report()
    ok = four["col2_vanishes_mod_relations"] and four["col4_star_identity_mod_relations"]
    return _bool(
        ok,
        f"modulo the shape relations the v2^v1 coefficients reduce to -2 * star with star = {four['displayed_star']}",
    )


@check("wedge2", "elimination-determinant", "determinant -9 d^3 of the relation system")
def elimination_determinant():
    elim = lattice.relation_elimination()
    ok = elim["det_natural_is_minus_9d3"] and elim["elimination_preserves_det"]
    return _bool(ok, "6x6 relation system determinant -9 d^3, preserved by the tracked row operations")


@check("wedge2", "displayed-system-determinant", "sign/row divergences of the transcribed relation system")
def displayed_system_determinant():
    elim = lattice.relation_elimination()
    if not elim["det_displayed_system_is_minus_9d3"]:
        return "finding", (
            "the transcribed system's determinant is "
            f"{elim['det_displayed_system']} (a last-row column swap changes the d^3 term); "
            "the transcribed eliminated system has determinant +9 d^3"
        )
    return "fail", "transcribed system unexpectedly has determinant -9 d^3"


@check("wedge2", "wedge-functoriality", "functoriality of the wedge-square and Sym^3 constructions")
def wedge_functoriality():
    # Cauchy-Binet, proved on generators: with wedge2(I) = I, an identity wedge2(m g) = wedge2(m) wedge2(g) for
    # generic m holds on the group the g generate. The 5-cycle conjugates E12(t) to E23, E34, E45 and E51, whose
    # commutators give every E_ij(t), so with the generic torus these three generate GL5, which is Zariski-dense.
    m, wedge2 = _generic_matrix("m", 5), lattice.wedge2_standard
    gens = [
        SymMatrix.diagonal([RFrac.var(f"t{i}") for i in range(1, 6)]),
        SymMatrix([[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)]),
        SymMatrix([[RFrac.var("t") if (i, j) == (0, 1) else int(i == j) for j in range(5)] for i in range(5)]),
    ]
    wm = wedge2(m)
    if wedge2(SymMatrix.identity(5)) != SymMatrix.identity(10) or any(wedge2(m * g) != wm * wedge2(g) for g in gens):
        return "fail", "wedge square not multiplicative on the generic torus, the 5-cycle and E12(t)"
    m, n = _generic_matrix("m", 2), _generic_matrix("n", 2)
    if lattice.sym_power_signed(m * n, 3) != lattice.sym_power_signed(m, 3) * lattice.sym_power_signed(n, 3):
        return "fail", "signed Sym^3 not multiplicative on generic 2x2 matrices"
    return "pass", (
        "wedge square multiplicative on the generic torus, the 5-cycle and E12(t), which generate GL5, "
        "hence on all 5x5 matrices; signed Sym^3 on generic 2x2 matrices"
    )


@check("wedge2", "shape-constraint-probe", "status of the three quadratic coupling families on the parabolic")
def shape_constraint_probe():
    # The 2x2 minors of [[x1, x2, x3], [x2, x3, -x4]], negated, over a.
    x1, x2, x3, x4 = (RFrac.var(f"x{i}") for i in range(1, 5))
    closed_form = tuple(m / triform.A_SYM for m in (x2 * x4 + x3 * x3, x1 * x4 + x2 * x3, x2 * x2 - x1 * x3))
    families = lattice.shape_families(triform.parabolic_generic_element())
    if families != closed_form:
        return "fail", f"families on g(-b,y) t(t1,t2) g(b,z) u(x1..x5): {tuple(map(str, families))}"
    return "finding", (
        "on the generic parabolic element g(-b,y) t(t1,t2) g(b,z) u(x1..x5) the three quadratic families are "
        "-1/a times the 2x2 minors of [[x1, x2, x3], [x2, x3, -x4]]: they vanish together exactly where that "
        "matrix has rank <= 1 (a twisted-cubic cone in x1..x4), so they are constraints on the extension shape "
        "rather than parabolic identities"
    )


@check("wedge2", "golden-displayed-blocks", "golden-file regression of the transcribed display blocks")
def golden_displayed_blocks():
    if not os.path.exists(GOLDEN_PATH):
        return "finding", f"golden file {GOLDEN_PATH} not found; regenerate with --bless"
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        stored = fh.read()
    return _bool(stored == to_json(golden_payload()), f"canonical display serialization vs {GOLDEN_PATH}")


# ---------------------------------------------------------------------------
# phin suite

@check("phin", "rank2-admissibility-grid", "weak admissibility of the rank-2 modules over the slope grid")
def rank2_admissibility_grid():
    holds, margins = phin.d_st_window_certificate()
    return _bool(
        holds,
        f"t_N - t_H margins [{', '.join(map(str, margins))}] (full space, then each stable line): "
        "0, then >= 0 on the whole window k >= 2, 0 <= sp <= (k-1)/2 (exact bounds on the cone)",
    )


@check("phin", "rank2-polygons", "Newton above Hodge with common endpoint (weight 4, slope 1)")
def rank2_polygons():
    m = phin.d_st(4, Q(1))
    newton = phin.newton_polygon(m)
    hodge = phin.hodge_polygon(m)
    ok = newton.endpoint == hodge.endpoint == (2, Q(-3))
    ok = ok and newton.vertices == [(0, Q(0)), (1, Q(-2)), (2, Q(-3))]
    ok = ok and hodge.vertices == [(0, Q(0)), (1, Q(-3)), (2, Q(-3))]
    shown = [", ".join(f"({x}, {y})" for x, y in p.vertices) for p in (newton, hodge)]
    return _bool(ok, f"newton [{shown[0]}], hodge [{shown[1]}]")


@check("phin", "extension-admissibility", "the 4-dim extension modules are weakly admissible")
def extension_admissibility():
    b = SymMatrix.identity(2)
    m = phin.build_EBc(b, 1, 4, Q(1))
    ok = m.fil_jumps() == [0, 1, 3, 4]
    ok = ok and phin.is_admissible(m)
    ok = ok and m.phi_relation_report()["holds"]
    m6 = phin.build_EBc(b.scale(RFrac.const(2)), Q(5), 6, Q(1))
    ok = ok and phin.is_admissible(m6) and m6.fil_jumps() == [0, 1, 5, 6]
    return _bool(ok, "jumps {0, 1, k-1, k}; admissible; Frobenius relation holds for scalar blocks")


@check("phin", "frobenius-relation-symbolic", "the Frobenius/monodromy commutation defect of the extension family")
def frobenius_relation_symbolic():
    a = _generic_matrix("a", 2)
    commuting = SymMatrix.identity(2).scale(RFrac.var("x")) + a.scale(RFrac.var("y"))
    ok = phin.phi_relation_defect(a, commuting).is_zero()
    ok = ok and not phin.phi_relation_defect(a, _generic_matrix("b", 2)).is_zero()
    return _bool(ok, "defect p(A^-1 B A - B) vanishes exactly when B commutes with A (symbolic)")


@check("phin", "extension-generic-frobenius", "eigenvalue constraints left by a non-scalar monodromy block")
def extension_generic_frobenius():
    b = SymMatrix([[1, 2], [3, 4]])
    rep = phin.build_EBc(b, 1, 4, Q(1)).phi_relation_report()
    if not rep["holds"] and len(rep["violations"]) == 2:
        return "finding", (
            "a non-scalar block leaves exactly 2 eigenvalue-ratio violations, each demanding a "
            "unit-squared power relation excluded by the distinctness assumption: "
            + "; ".join(rep["violations"])
        )
    return "fail", f"violations: {rep['violations']}"


@check("phin", "extension-injectivity-random", "the (B, c) parametrization of extensions is injective")
def extension_injectivity_random():
    blocks, cs = (_generic_matrix("b", 2), _generic_matrix("bp", 2)), (RFrac.var("c"), RFrac.var("cp"))
    pair, *others = [phin.EBcPair(b, c) for b, c in product(blocks, cs)]
    ok = all(phin.ebc_distinguish(pair, other) for other in others) and not phin.ebc_distinguish(pair, pair)
    return _bool(
        ok,
        "symbolic (B, c) against (B, c'), (B', c) and (B', c'): no sub/quotient Frobenius eigenvalues coincide, "
        "so an extension isomorphism is the identity, and each pair differs in a filtration step or in N; "
        "(B, c) against itself is identified",
    )


@check("phin", "monodromy-five-dim", "the four unit-power constraints blocking nonzero monodromy on the 5-dim piece")
def monodromy_five_dim():
    rep = phin.monodromy_obstruction(phin.five_dim_eigenvalues())
    K = phin.K
    expected = frozenset(
        {
            phin.Constraint(1, K / 2 - 1, Q(1)),
            phin.Constraint(1, K / 2, Q(1)),
            phin.Constraint(3, 3 * K / 2 - 1, Q(1)),
            phin.Constraint(3, 3 * K / 2 - 2, Q(1)),
        }
    )
    got = rep["distinguished_constraints"]
    ok = got == expected and not rep["n_forced_zero"]
    return _bool(ok, "constraints: " + "; ".join(sorted(str(c) for c in got)))


@check("phin", "monodromy-seven-dim", "unconditional monodromy pairs of the 7-dim eigenvalue septuple")
def monodromy_seven_dim():
    rep = phin.monodromy_obstruction(phin.seven_dim_eigenvalues())
    ok = rep["unconditional_pairs"] == [(2, 3), (5, 6)]
    flat = phin.monodromy_obstruction([phin.ValuedScalar.one()] * 3)
    ok = ok and flat["n_forced_zero"]
    return _bool(ok, f"unconditional pairs {rep['unconditional_pairs']}; constant list forces zero monodromy")


@check("phin", "sym2-filtration-test", "the symmetric-square filtration intersection criterion")
def sym2_filtration_test():
    ok = phin.sym2_fil0_test(1, 1) is True
    ok = ok and phin.sym2_fil0_test(1, 0) is False
    ok = ok and phin.sym2_fil0_test(0, 1) is True
    try:
        phin.sym2_fil0_test(0, 0)
        return "fail", "zero vector accepted"
    except ValueError:
        pass
    return _bool(ok, "square line meets the 2-dim filtration step iff the second coordinate vanishes")


@check("phin", "distinctness-ledger", "the six pairwise inequations among the four Frobenius numbers")
def distinctness_ledger():
    items = phin.distinctness_check()
    tags = sorted(i.justification for i in items)
    ok = len(items) == 6 and tags == [
        "assumption", "assumption", "trivial", "trivial",
        "valuation bound", "valuation bound",
    ]
    return _bool(ok, "; ".join(f"{i.left} != {i.right} [{i.justification}]" for i in items))


@check("phin", "sum-tensor-endpoints", "direct sums and tensor products keep Newton/Hodge endpoints equal")
def sum_tensor_endpoints():
    a = phin.d_st(4, Q(1))
    ds = phin.direct_sum(a, a)
    tn = phin.tensor(a, a)
    ok = sorted(ds.fil_jumps()) == [0, 0, 3, 3]
    ok = ok and sorted(tn.fil_jumps()) == [0, 3, 3, 6]
    for m in (ds, tn):
        ok = ok and phin.newton_polygon(m).endpoint == phin.hodge_polygon(m).endpoint
    return _bool(ok, f"direct-sum jumps {sorted(ds.fil_jumps())}, tensor jumps {sorted(tn.fil_jumps())}; endpoints agree")


# ---------------------------------------------------------------------------
# arthur suite

@check("arthur", "orbit-dimensions", "five nilpotent orbits of dimensions 0, 6, 8, 10, 12")
def orbit_dimensions():
    table = arthur.orbit_table()
    rows = [(r.name, r.dim, r.component_group) for r in table]
    expected = [
        ("O_0", 0, "1"), ("O_l", 6, "1"), ("O_s", 8, "1"),
        ("O_sr", 10, "S3"), ("O_r", 12, "1"),
    ]
    return _bool(rows == expected, f"{rows}")


@check("arthur", "subregular-centralizer", "four commuting nilpotents span the subregular centralizer; order-2 and order-3 witnesses")
def subregular_centralizer():
    rep = arthur.subregular_centralizer_report()
    witnesses = rep["component_group_witnesses"]
    ok = rep["all_brackets_vanish"] and rep["matches_centralizer_dim"]
    ok = ok and all(witnesses.values())
    return _bool(ok, f"span dim {rep['span_dimension']}; witnesses {witnesses}")


@check("arthur", "packet-data", "two-member packet degrees and Harish-Chandra parameters")
def packet_data():
    p4, m4 = arthur.packet_psi_k(4)
    ok = m4.harish_chandra_param == rootsmod.RHO
    ok = ok and p4.cohomology_degrees == frozenset({3, 5})
    ok = ok and m4.cohomology_degrees == frozenset({4})
    ok = ok and arthur.packet_psi_k(12)[1].harish_chandra_param == rootsmod.Weight(11, 17)
    try:
        arthur.packet_psi_k(2)
        return "fail", "weight 2 accepted"
    except ValueError:
        pass
    return _bool(ok, "degrees {3,5}/{4}; parameters 3a+5b at k=4 and 11a+17b at k=12; weight 2 rejected")


@check("arthur", "lift-consistency-random", "lift coweight and Hodge-Tate septuple agree for random parameters")
def lift_consistency_random():
    c1, c2 = MPoly.var("c1"), MPoly.var("c2")
    positive = kostant.hodge_tate_weights(c1, c2)[:3]
    ok = arthur.lift_pairing_consistent(c1, c2)
    ok = ok and arthur.lift_inf_char(c1, c2)[1] == tuple(2 * h + 1 for h in positive)
    return _bool(
        ok,
        "coweight pairings equal the Hodge-Tate septuple and the factor weights are 2h + 1 for its three "
        "positive entries h, identically in symbolic (c1, c2)",
    )


@check("arthur", "multiplicity-parity", "global multiplicity is 1 iff the local signs multiply to the global sign")
def multiplicity_parity():
    ok = arthur.multiplicity_sign({"inf": 1, "p": 1}, 1) == 1
    ok = ok and arthur.multiplicity_sign({"inf": -1}, -1) == 1
    ok = ok and arthur.multiplicity_sign({"inf": -1, "p": -1}, -1) == 0
    for *signs, eps in product((1, -1), repeat=5):
        places = {f"v{i}": s for i, s in enumerate(signs)}
        flipped = dict(places, v0=-signs[0], v1=-signs[1])
        if arthur.multiplicity_sign(flipped, eps) != arthur.multiplicity_sign(places, eps):
            return "fail", f"double flip changed the parity output at {places}, global sign {eps}"
    return _bool(ok, "parity rule matches the three worked cases; invariant under double flips on all 32 sign patterns")


@check("arthur", "ledger-bound", "the combined multiplicity identities give a cuspidal lower bound of 2")
def ledger_bound():
    rep = arthur.multiplicity_ledger(12, 1)
    ok = rep.bound == ("m_cusp(plain)", 2)
    ok = ok and all(arthur.identity_checks().values())
    trivial = arthur.multiplicity_ledger(12, 1, ())
    ok = ok and trivial.reduced == trivial.raw and trivial.bound is None
    remark = arthur.multiplicity_ledger(12, 1, arthur.DEFAULT_RULES + ("correction_at_least_one",))
    ok = ok and remark.bound == ("m_cusp(plain)", 3)
    try:
        arthur.multiplicity_ledger(8, 1)
        return "fail", "window precondition not enforced"
    except ValueError:
        pass
    return _bool(ok, f"reduced relation {rep.reduced}; derived bound {rep.bound}")


@check("arthur", "ledger-orientation", "sign orientation of the surviving correction term")
def ledger_orientation():
    rep = arthur.multiplicity_ledger(12, 1)
    if rep.orientation_divergence and rep.surviving_corrections == (("m[P_long,ba](twisted)", -1),):
        return "finding", rep.orientation_note
    return "fail", f"surviving corrections {rep.surviving_corrections}"


@check("arthur", "weight-recomputation", "the two long-Levi shifted weights recomputed exactly")
def weight_recomputation():
    identities = arthur.identity_checks()
    ok = identities["long_levi_variant_plain_rejected"]
    ok = ok and identities["long_levi_variant_twisted_rejected"]
    if ok:
        flags = "; ".join(
            f"{f['id']}: recomputed {f['recomputed']}" for f in arthur.WEIGHT_FLAGS
        )
        return "finding", f"recomputed long-Levi shifted weights adopted over the transcribed variants ({flags})"
    return "fail", "variant weights not rejected"


def run_verify(
    seed: int, _unused: object = None, timings: Optional[Dict[str, float]] = None
) -> Dict[str, object]:
    """Run every check; `seed` only labels the report, as no check draws at
    random. `timings`, if given, receives each check's wall time in ms, keyed
    `"suite/id"`; the report never holds a time. The second argument is
    ignored: the benchmark still passes one, as `run_verify(seed, {})`."""
    suites: List[Dict[str, object]] = []
    for (suite, id, anchor), fn in CHECKS.items():
        if not suites or suites[-1]["name"] != suite:
            suites.append({"name": suite, "checks": []})
        start = time.perf_counter()
        try:
            status, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        if timings is not None:
            timings[f"{suite}/{id}"] = round(1000 * (time.perf_counter() - start), 3)
        suites[-1]["checks"].append({"id": id, "anchor": anchor, "status": status, "detail": detail})
    return {"version": __version__, "seed": seed, "suites": suites}


def report_has_failures(report: Dict[str, object]) -> bool:
    return any(
        c["status"] == "fail" for s in report["suites"] for c in s["checks"]
    )


def to_json(payload: object) -> str:
    """The one serialisation of every JSON the CLI writes: stdout, the
    report file, timings and the golden file."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
