"""Command-line entry point: verification suites over all modules, with
deterministic machine-readable reports, golden-file regression, and
per-module inspection subcommands."""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction as Q
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__, arthur, kostant, lattice, phin, triform
from . import roots as rootsmod
from .algebra import MPoly, RFrac, SymMatrix

ENV_OUTPUT_DIR = "G2FORGE_OUTPUT_DIR"
DEFAULT_CONFIG_FILE = "g2forge.cfg"
DEFAULT_GOLDEN_DIR = os.path.join("tests", "goldens")
GOLDEN_FILE = "wedge2_display.json"

if TYPE_CHECKING:
    # Annotations only, which are never evaluated: building this alias at
    # import time would cost every command tens of microseconds.
    CheckFn = Callable[[random.Random, Dict[str, str]], Tuple[str, str]]

# Every verification check, keyed by (suite, id, anchor), in report order.
# It stays a module-level dict of the functions themselves: the benchmark's
# tracer patches module namespaces and module-level dicts, and would miss a
# check held in a list, a tuple or a closure.
CHECKS: Dict[Tuple[str, str, str], CheckFn] = {}


def check(suite: str, id: str, anchor: str) -> Callable[[CheckFn], CheckFn]:
    """Register `fn(rng, config) -> (status, detail)` as the next check of
    `suite`; the checks of one suite must be registered together."""

    def register(fn: CheckFn) -> CheckFn:
        CHECKS[(suite, id, anchor)] = fn
        return fn

    return register


def _bool(ok: bool, detail: str) -> Tuple[str, str]:
    return ("pass" if ok else "fail", detail)


# ---------------------------------------------------------------------------
# Configuration

def parse_config(path: str) -> Dict[str, str]:
    allowed = {"word-length", "seed", "output-dir"}
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def load_config(explicit: Optional[str]) -> Dict[str, str]:
    if explicit is not None:
        return parse_config(explicit)
    if os.path.exists(DEFAULT_CONFIG_FILE):
        return parse_config(DEFAULT_CONFIG_FILE)
    return {}


def resolve_output_dir(config: Dict[str, str]) -> Optional[str]:
    return os.environ.get(ENV_OUTPUT_DIR) or config.get("output-dir")


# ---------------------------------------------------------------------------
# roots suite

@check("roots", "weyl-group-order", "dihedral group of order 12")
def weyl_group_order(rng, config):
    W = rootsmod.WEYL_GROUP
    ok = len(W) == 12 and rootsmod.LONGEST.length == 6
    lengths = sorted(w.length for w in W)
    return _bool(
        ok and lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6],
        f"order {len(W)}, lengths {lengths}",
    )


@check("roots", "length-inversions", "word length equals inversion count")
def length_inversions(rng, config):
    bad = [w.name for w in rootsmod.WEYL_GROUP if rootsmod.length_by_inversions(w) != w.length]
    return _bool(not bad, f"mismatches: {bad}")


@check("roots", "coset-representatives", "minimal coset representatives and the three truncated rep sets")
def coset_representatives(rng, config):
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
def nilradical_root_sums(rng, config):
    vals = {tag: str(rootsmod.two_rho(par)) for tag, par in rootsmod.PARABOLICS.items()}
    expected = {
        "P_long": str(rootsmod.Weight(5, 10)),
        "P_short": str(rootsmod.Weight(6, 9)),
        "B": str(rootsmod.Weight(6, 10)),
    }
    return _bool(vals == expected, f"2rho_P values {vals}")


@check("roots", "dot-action-beta-drop", "short dot-reflection drops one short root")
def dot_action_beta_drop(rng, config):
    k = RFrac.var("k")
    lam = rootsmod.lambda0(k)
    ok = (lam - rootsmod.dot_act(rootsmod.W_BETA, lam)) == rootsmod.BETA
    return _bool(ok, "w_b * lam0 = lam0 - b (symbolic k)")


@check("roots", "dot-action-short-levi-shift", "shifted dot-action identity for the length-2 short-Levi word")
def dot_action_short_levi_shift(rng, config):
    k = RFrac.var("k")
    lam = rootsmod.lambda0(k)
    lhs = rootsmod.dot_act(rootsmod.element("ab"), lam) + rootsmod.two_rho(rootsmod.P_SHORT)
    rhs = rootsmod.Weight((k + 4) / 2, (3 * k + 4) / 2)
    alt = (3 * k - 4) / 4 * rootsmod.BETA + (k + 4) / 4 * rootsmod.Weight(2, 3)
    return _bool(lhs == rhs and lhs == alt, "shift equals (3k-4)/4*b + (k+4)/4*(2a+3b)")


@check("roots", "criticality-window", "critical Weyl set {short reflection} in the low-slope window")
def criticality_window(rng, config):
    tested = 0
    for k in range(5, 41):
        lam = rootsmod.lambda0(k)
        for twice_sp in range(0, k):
            sp = Q(twice_sp, 2)
            if not (k > 4 * sp + 4):
                continue
            crit = rootsmod.critical_set(rootsmod.slope_weight(sp), lam)
            if [w.word for w in crit] != ["b"]:
                return "fail", f"critical set at k={k}, sp={sp}: {[w.name for w in crit]}"
            tested += 1
    return "pass", f"critical set is exactly the short reflection for {tested} (k, sp) pairs"


# ---------------------------------------------------------------------------
# kostant suite

@check("kostant", "borel-piece-degrees", "12 pieces over degrees 0..6 with multiplicity 1,2,2,2,2,2,1")
def borel_piece_degrees(rng, config):
    pieces = kostant.kostant_pieces(rootsmod.BOREL, rootsmod.Weight(0, 0))
    degs: Dict[int, int] = {}
    for p in pieces:
        degs[p.degree] = degs.get(p.degree, 0) + 1
    expected = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 1}
    return _bool(len(pieces) == 12 and degs == expected, f"degree multiplicities {sorted(degs.items())}")


@check("kostant", "weyl-dimension-samples", "dimension formula on the trivial/standard/adjoint weights")
def weyl_dimension_samples(rng, config):
    samples = {
        "trivial": kostant.weyl_dim(rootsmod.Weight(0, 0)),
        "adjoint": kostant.weyl_dim(rootsmod.Weight(2, 3)),
        "standard": kostant.weyl_dim(rootsmod.Weight(1, 2)),
    }
    return _bool(samples == {"trivial": 1, "adjoint": 14, "standard": 7}, f"dims {samples}")


@check("kostant", "degree-case-triples", "the three (degree, k, s) long-parabolic cases, symbolic in (c1, c2)")
def degree_case_triples(rng, config):
    c1 = MPoly.var("c1")
    c2 = MPoly.var("c2")
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
def lift_weight_examples(rng, config):
    cov, ks = arthur.lift_inf_char(1, 1)
    ok = cov == (10, 6) and ks == (13, 9, 5)
    ok = ok and arthur.lift_inf_char(1, 2)[1][0] == 15
    ok = ok and kostant.hodge_tate_weights(1, 1) == (6, 4, 2, 0, -2, -4, -6)
    return _bool(ok, f"(1,1) -> coweight {cov}, factor weights {ks}")


@check("kostant", "lift-pairing-random", "coweight pairing against the 7 standard weights equals the Hodge-Tate septuple")
def lift_pairing_random(rng, config):
    pairs = [(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(20)]
    bad = [p for p in pairs if not arthur.lift_pairing_consistent(*p)]
    return _bool(not bad, f"20 random (c1, c2) pairs checked; failures: {bad}")


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
def one_parameter_stabilizers(rng, config):
    x = RFrac.var("x")
    form = triform.generic_form()
    failing = []
    mats = [(name, triform.root_subgroup(name, x)) for name in triform.ROOT_NAMES]
    mats.append(("torus", triform.torus_elem(RFrac.var("t1"), RFrac.var("t2"))))
    for name, g in mats:
        if form.pullback(g) != form:
            failing.append(name)
    return _bool(not failing, f"8 matrices x 35 coefficients; failures: {failing}")


@check("triform", "variant-form-not-stabilized", "the support divergence in the 3-form transcription")
def variant_form_not_stabilized(rng, config):
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
def genericity_witness(rng, config):
    rep = triform.genericity_witness()
    return _bool(
        bool(rep["support_matches"]),
        f"support match {rep['support_matches']}; on-the-nose coefficients {rep['coefficients_match']} "
        "(an exact match needs a cube root of the parameter)",
    )


@check("triform", "one-parameter-addition", "one-parameter additivity of all seven generators")
def one_parameter_addition(rng, config):
    bad = [r for r in triform.ROOT_NAMES if not triform.one_parameter_identity(r)]
    return _bool(not bad, f"g(x) g(y) = g(x+y) failures: {bad}")


@check("triform", "torus-conjugation", "torus conjugation acts by the root characters")
def torus_conjugation(rng, config):
    bad = [r for r in triform.ROOT_NAMES if not triform.conj_relation(r)]
    return _bool(not bad, f"torus conjugation rescales each parameter by its character; failures: {bad}")


@check("triform", "weyl-cycle-images", "cycle images of the Weyl representatives in S7")
def weyl_cycle_images(rng, config):
    bad = []
    for word, cyc in _CYCLE_TABLE:
        if word == "ababa":
            continue
        if triform.weyl_word_to_s7(word) != triform.perm_from_cycles(cyc):
            bad.append(word)
    return _bool(not bad, f"generators plus 8 composite words; failures: {bad}")


@check("triform", "ninth-cycle-divergence", "the length-5 alternating word's cycle image")
def ninth_cycle_divergence(rng, config):
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
def s7_homomorphism(rng, config):
    reps = {w.word: triform.weyl_rep(w.word) for w in rootsmod.WEYL_GROUP}
    perms = {word: triform.perm_of_monomial(m) for word, m in reps.items()}
    bad = 0
    for w1 in reps:
        for w2 in reps:
            lhs = triform.perm_of_monomial(reps[w1] * reps[w2])
            rhs = triform.compose_perms(perms[w1], perms[w2])
            if lhs != rhs:
                bad += 1
    return _bool(bad == 0, f"144 pairs, {bad} failures")


@check("triform", "coefficient-relations", "the two quadratic entry relations on the short-root parabolic")
def coefficient_relations(rng, config):
    L = int(config.get("word-length", "2"))
    rep = triform.coeff_relations_probe(L)
    return "pass", (
        f"both quadratic relations vanish on all {rep['products_checked']} generator words "
        f"of length <= {rep['max_length']}"
    )


@check("triform", "bruhat-block-intersection", "intersection with the (2,3,2) block parabolic")
def bruhat_block_intersection(rng, config):
    rep = triform.bruhat_disjointness_check()
    ok = rep["all_generators_contained"] and sorted(rep["weyl_images_in_block_weyl_group"]) == ["e", "w_b"]
    return _bool(ok, f"block Weyl intersection {rep['weyl_images_in_block_weyl_group']}")


@check("triform", "bracket-closure", "the 14-dimensional stabilizer algebra closes under brackets")
def bracket_closure(rng, config):
    lie = triform.lie_basis()
    table = lie.structure_constants()
    return _bool(len(table) == 91, f"all {len(table)} basis brackets stay in the 14-dim span (symbolic parameter)")


@check("triform", "centralizer-dimensions", "centralizer dimensions 14, 8, 6, 4, 2 of the five orbit representatives")
def centralizer_dimensions(rng, config):
    dims = [14 - rec.dim for rec in arthur.orbit_table()]
    return _bool(dims == [14, 8, 6, 4, 2], f"centralizer dims {dims}")


@check("triform", "subregular-sl2", "sl2-triple through the subregular nilpotent has trivial centralizer")
def subregular_sl2(rng, config):
    lie = triform.lie_basis()
    e = lie.by_name("e[a]") + lie.by_name("e[a+3b]")
    h = triform.torus_direction(Q(2), Q(2))
    f = triform.sl2_complete(e, h)
    ok = triform.bracket(e, f) == h
    dim = triform.sl2_centralizer_dim(e, f)
    return _bool(ok and dim == 0, f"triple completed; joint centralizer dim {dim}")


@check("triform", "zeta-witness", "cube-root-of-unity cocharacter and Weyl representative centralize the subregular nilpotent")
def zeta_witness(rng, config):
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


def _golden_path(config: Dict[str, str]) -> str:
    base = resolve_output_dir(config) or DEFAULT_GOLDEN_DIR
    return os.path.join(base, GOLDEN_FILE)


def _rand_matrix(rng: random.Random, n: int) -> SymMatrix:
    return SymMatrix(
        [[RFrac.const(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    )


@check("wedge2", "five-column-block", "wedge square of the 5-dim extension block in the 10-element basis")
def five_column_block(rng, config):
    five = lattice.five_dim_wedge_report()
    ok = (
        five["top_row_matches_c_polynomials"]
        and five["below_block_vanishes"]
        and five["wedge_block_equals_sym_cube"]
    )
    return _bool(ok, "top row = (d, c1, c2, c3, c4)/d^2; lower rows vanish; block = Sym^3 of the corner")


@check("wedge2", "displayed-block-cells", "two transcription divergences in the Sym^3 block")
def displayed_block_cells(rng, config):
    five = lattice.five_dim_wedge_report()
    cells = five["displayed_block_mismatch_cells"]
    if cells == [(3, 3), (5, 4)]:
        return "finding", (
            f"transcribed block differs from the computed Sym^3 exactly at cells {cells}; "
            f"computed entries: (3,3) = {five['honest_cell_3_3']}, (5,4) = {five['honest_cell_5_4']}"
        )
    return "fail", f"mismatch cells {cells}"


@check("wedge2", "four-dim-invariant-plane", "wedge square of the 4-dim extension on the honest invariant plane")
def four_dim_invariant_plane(rng, config):
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
def four_dim_star_identity(rng, config):
    four = lattice.four_dim_wedge_report()
    ok = four["col2_vanishes_mod_relations"] and four["col4_star_identity_mod_relations"]
    return _bool(
        ok,
        f"modulo the shape relations the v2^v1 coefficients reduce to -2 * star with star = {four['displayed_star']}",
    )


@check("wedge2", "elimination-determinant", "determinant -9 d^3 of the relation system")
def elimination_determinant(rng, config):
    elim = lattice.relation_elimination()
    ok = elim["det_natural_is_minus_9d3"] and elim["elimination_preserves_det"]
    return _bool(ok, "6x6 relation system determinant -9 d^3, preserved by the tracked row operations")


@check("wedge2", "displayed-system-determinant", "sign/row divergences of the transcribed relation system")
def displayed_system_determinant(rng, config):
    elim = lattice.relation_elimination()
    if not elim["det_displayed_system_is_minus_9d3"]:
        return "finding", (
            "the transcribed system's determinant is "
            f"{elim['det_displayed_system']} (a last-row column swap changes the d^3 term); "
            "the transcribed eliminated system has determinant +9 d^3"
        )
    return "fail", "transcribed system unexpectedly has determinant -9 d^3"


@check("wedge2", "wedge-functoriality", "functoriality of the wedge-square and Sym^3 constructions")
def wedge_functoriality(rng, config):
    for _ in range(3):
        m, n = _rand_matrix(rng, 5), _rand_matrix(rng, 5)
        if lattice.wedge2_standard(m * n) != lattice.wedge2_standard(m) * lattice.wedge2_standard(n):
            return "fail", "wedge square not multiplicative on random 5x5 matrices"
    for _ in range(3):
        m, n = _rand_matrix(rng, 2), _rand_matrix(rng, 2)
        if lattice.sym_cube_signed(m * n) != lattice.sym_cube_signed(m) * lattice.sym_cube_signed(n):
            return "fail", "signed Sym^3 not multiplicative on random 2x2 matrices"
    return "pass", "wedge square and signed Sym^3 multiplicative on random integer matrices"


@check("wedge2", "shape-constraint-probe", "status of the three quadratic coupling families on the parabolic")
def shape_constraint_probe(rng, config):
    rep = lattice.form_constraint_probe(2)
    return "finding", (
        f"on {rep['products_checked']} parabolic generator products (length <= {rep['max_length']}) the three "
        f"quadratic families vanish on {rep['vanishing_product_counts']} of them respectively; none vanishes "
        "identically, so they are constraints on the extension shape rather than parabolic identities"
    )


@check("wedge2", "golden-displayed-blocks", "golden-file regression of the transcribed display blocks")
def golden_displayed_blocks(rng, config):
    path = _golden_path(config)
    payload = json.dumps(golden_payload(), indent=2, sort_keys=True) + "\n"
    if not os.path.exists(path):
        return "finding", f"golden file {path} not found; regenerate with --bless"
    with open(path, "r", encoding="utf-8") as fh:
        stored = fh.read()
    return _bool(stored == payload, f"canonical display serialization vs {path}")


# ---------------------------------------------------------------------------
# phin suite

@check("phin", "rank2-admissibility-grid", "weak admissibility of the rank-2 modules over the slope grid")
def rank2_admissibility_grid(rng, config):
    count = 0
    for k in range(2, 21):
        for twice_sp in range(0, k):
            m = phin.d_st(k, Q(twice_sp, 2))
            if not phin.is_admissible(m):
                return "fail", f"rank-2 module at k={k}, sp={Q(twice_sp, 2)} not admissible"
            count += 1
    return "pass", f"{count} rank-2 modules admissible (k <= 20, 0 <= sp <= (k-1)/2)"


@check("phin", "rank2-polygons", "Newton above Hodge with common endpoint (weight 4, slope 1)")
def rank2_polygons(rng, config):
    m = phin.d_st(4, Q(1))
    newton = phin.newton_polygon(m)
    hodge = phin.hodge_polygon(m)
    ok = newton.endpoint == hodge.endpoint == (2, Q(-3))
    ok = ok and newton.vertices == [(0, Q(0)), (1, Q(-2)), (2, Q(-3))]
    ok = ok and hodge.vertices == [(0, Q(0)), (1, Q(-3)), (2, Q(-3))]
    return _bool(ok, f"newton {newton.vertices}, hodge {hodge.vertices}")


@check("phin", "extension-admissibility", "the 4-dim extension modules are weakly admissible")
def extension_admissibility(rng, config):
    one = RFrac.const(1)
    zero = RFrac.const(0)
    b = SymMatrix([[one, zero], [zero, one]])
    m = phin.build_EBc(b, 1, 4, Q(1))
    ok = m.fil_jumps() == [0, 1, 3, 4]
    ok = ok and phin.is_admissible(m)
    ok = ok and m.phi_relation_report()["holds"]
    m6 = phin.build_EBc(b.scale(RFrac.const(2)), Q(5), 6, Q(1))
    ok = ok and phin.is_admissible(m6) and m6.fil_jumps() == [0, 1, 5, 6]
    return _bool(ok, "jumps {0, 1, k-1, k}; admissible; Frobenius relation holds for scalar blocks")


@check("phin", "frobenius-relation-symbolic", "the Frobenius/monodromy commutation defect of the extension family")
def frobenius_relation_symbolic(rng, config):
    entries = [[RFrac.var(f"a{i}{j}") for j in range(1, 3)] for i in range(1, 3)]
    a = SymMatrix(entries)
    xv, yv = RFrac.var("x"), RFrac.var("y")
    ident = SymMatrix.identity(2)
    commuting = ident.scale(xv) + a.scale(yv)
    ok = phin.phi_relation_defect(a, commuting).is_zero()
    generic = SymMatrix([[RFrac.var(f"b{i}{j}") for j in range(1, 3)] for i in range(1, 3)])
    ok = ok and not phin.phi_relation_defect(a, generic).is_zero()
    return _bool(ok, "defect p(A^-1 B A - B) vanishes exactly when B commutes with A (symbolic)")


@check("phin", "extension-generic-frobenius", "eigenvalue constraints left by a non-scalar monodromy block")
def extension_generic_frobenius(rng, config):
    one = RFrac.const(1)
    b = SymMatrix([[one, RFrac.const(2)], [RFrac.const(3), RFrac.const(4)]])
    rep = phin.build_EBc(b, 1, 4, Q(1)).phi_relation_report()
    if not rep["holds"] and len(rep["violations"]) == 2:
        return "finding", (
            "a non-scalar block leaves exactly 2 eigenvalue-ratio violations, each demanding a "
            "unit-squared power relation excluded by the distinctness assumption: "
            + "; ".join(rep["violations"])
        )
    return "fail", f"violations: {rep['violations']}"


@check("phin", "extension-injectivity-random", "the (B, c) parametrization of extensions is injective")
def extension_injectivity_random(rng, config):
    def rand_pair():
        b = SymMatrix(
            [[RFrac.const(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
        )
        return phin.EBcPair(b, RFrac.const(Q(rng.randint(-9, 9), rng.randint(1, 5))))

    seen = 0
    while seen < 50:
        p1, p2 = rand_pair(), rand_pair()
        same = (p1.b - p2.b).is_zero() and (p1.c - p2.c).is_zero()
        if same:
            continue
        if not phin.ebc_distinguish(p1, p2):
            return "fail", "distinct parameters not distinguished"
        seen += 1
    p = rand_pair()
    if phin.ebc_distinguish(p, p):
        return "fail", "equal parameters spuriously distinguished"
    return "pass", "50 random distinct (B, c) pairs distinguished; equal pair identified"


@check("phin", "monodromy-five-dim", "the four unit-power constraints blocking nonzero monodromy on the 5-dim piece")
def monodromy_five_dim(rng, config):
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
def monodromy_seven_dim(rng, config):
    rep = phin.monodromy_obstruction(phin.seven_dim_eigenvalues())
    ok = rep["unconditional_pairs"] == [(2, 3), (5, 6)]
    flat = phin.monodromy_obstruction([phin.ValuedScalar.one()] * 3)
    ok = ok and flat["n_forced_zero"]
    return _bool(ok, f"unconditional pairs {rep['unconditional_pairs']}; constant list forces zero monodromy")


@check("phin", "sym2-filtration-test", "the symmetric-square filtration intersection criterion")
def sym2_filtration_test(rng, config):
    one = RFrac.const(1)
    zero = RFrac.const(0)
    ok = phin.sym2_fil0_test(one, one) is True
    ok = ok and phin.sym2_fil0_test(one, zero) is False
    ok = ok and phin.sym2_fil0_test(zero, one) is True
    try:
        phin.sym2_fil0_test(zero, zero)
        return "fail", "zero vector accepted"
    except ValueError:
        pass
    return _bool(ok, "square line meets the 2-dim filtration step iff the second coordinate vanishes")


@check("phin", "distinctness-ledger", "the six pairwise inequations among the four Frobenius numbers")
def distinctness_ledger(rng, config):
    items = phin.distinctness_check()
    tags = sorted(i.justification for i in items)
    ok = len(items) == 6 and tags == [
        "assumption", "assumption", "trivial", "trivial",
        "valuation bound", "valuation bound",
    ]
    return _bool(ok, "; ".join(f"{i.left} != {i.right} [{i.justification}]" for i in items))


@check("phin", "sum-tensor-endpoints", "direct sums and tensor products keep Newton/Hodge endpoints equal")
def sum_tensor_endpoints(rng, config):
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
def orbit_dimensions(rng, config):
    table = arthur.orbit_table()
    rows = [(r.name, r.dim, r.component_group) for r in table]
    expected = [
        ("O_0", 0, "1"), ("O_l", 6, "1"), ("O_s", 8, "1"),
        ("O_sr", 10, "S3"), ("O_r", 12, "1"),
    ]
    return _bool(rows == expected, f"{rows}")


@check("arthur", "subregular-centralizer", "four commuting nilpotents span the subregular centralizer; order-2 and order-3 witnesses")
def subregular_centralizer(rng, config):
    rep = arthur.subregular_centralizer_report()
    witnesses = rep["component_group_witnesses"]
    ok = rep["all_brackets_vanish"] and rep["matches_centralizer_dim"]
    ok = ok and all(witnesses.values())
    return _bool(ok, f"span dim {rep['span_dimension']}; witnesses {witnesses}")


@check("arthur", "packet-data", "two-member packet degrees and Harish-Chandra parameters")
def packet_data(rng, config):
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
def lift_consistency_random(rng, config):
    pairs = [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(20)]
    bad = [p for p in pairs if not arthur.lift_pairing_consistent(*p)]
    return _bool(not bad, f"20 random lift coweights pair correctly; failures: {bad}")


@check("arthur", "multiplicity-parity", "global multiplicity is 1 iff the local signs multiply to the global sign")
def multiplicity_parity(rng, config):
    ok = arthur.multiplicity_sign({"inf": 1, "p": 1}, 1) == 1
    ok = ok and arthur.multiplicity_sign({"inf": -1}, -1) == 1
    ok = ok and arthur.multiplicity_sign({"inf": -1, "p": -1}, -1) == 0
    for _ in range(10):
        places = {f"v{i}": rng.choice((1, -1)) for i in range(4)}
        eps = rng.choice((1, -1))
        base = arthur.multiplicity_sign(places, eps)
        flipped = dict(places)
        flipped["v0"] *= -1
        flipped["v1"] *= -1
        if arthur.multiplicity_sign(flipped, eps) != base:
            return "fail", "double flip changed the parity output"
    return _bool(ok, "parity rule matches the three worked cases; invariant under double flips")


@check("arthur", "ledger-bound", "the combined multiplicity identities give a cuspidal lower bound of 2")
def ledger_bound(rng, config):
    rep = arthur.multiplicity_ledger(12, 1)
    ok = rep.bound == ("m_cusp(plain)", 2)
    ok = ok and all(rep.identity_checks.values())
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
def ledger_orientation(rng, config):
    rep = arthur.multiplicity_ledger(12, 1)
    if rep.orientation_divergence and rep.surviving_corrections == (("m[P_long,ba](twisted)", -1),):
        return "finding", rep.orientation_note
    return "fail", f"surviving corrections {rep.surviving_corrections}"


@check("arthur", "weight-recomputation", "the two long-Levi shifted weights recomputed exactly")
def weight_recomputation(rng, config):
    rep = arthur.multiplicity_ledger(12, 1)
    ok = rep.identity_checks["long_levi_variant_plain_rejected"]
    ok = ok and rep.identity_checks["long_levi_variant_twisted_rejected"]
    if ok:
        flags = "; ".join(
            f"{f['id']}: recomputed {f['recomputed']}" for f in rep.weight_flags
        )
        return "finding", f"recomputed long-Levi shifted weights adopted over the transcribed variants ({flags})"
    return "fail", "variant weights not rejected"


def run_verify(seed: int, config: Dict[str, str]) -> Dict[str, object]:
    suites: List[Dict[str, object]] = []
    for (suite, id, anchor), fn in CHECKS.items():
        if not suites or suites[-1]["name"] != suite:
            # One generator per suite, seeded by its name, so that a suite's
            # draws do not depend on the suites before it.
            rng = random.Random(f"{seed}:{suite}")
            suites.append({"name": suite, "checks": []})
        try:
            status, detail = fn(rng, config)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        suites[-1]["checks"].append({"id": id, "anchor": anchor, "status": status, "detail": detail})
    return {"version": __version__, "seed": seed, "suites": suites}


def report_has_failures(report: Dict[str, object]) -> bool:
    return any(
        c["status"] == "fail" for s in report["suites"] for c in s["checks"]
    )


def format_text(report: Dict[str, object]) -> str:
    lines = [f"g2forge {report['version']} verification (seed {report['seed']})"]
    counts = {"pass": 0, "fail": 0, "finding": 0}
    for suite in report["suites"]:
        for c in suite["checks"]:
            counts[c["status"]] += 1
            lines.append(f"[{c['status'].upper():7}] {suite['name']}/{c['id']}: {c['detail']}")
    lines.append(
        f"{counts['pass']} passed, {counts['finding']} findings, {counts['fail']} failed"
    )
    return "\n".join(lines)


def _emit(payload: Dict[str, object]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommand payloads

def payload_roots() -> Dict[str, object]:
    return {
        "weyl_elements": [
            {"name": w.name, "word": w.word, "length": w.length, "matrix": [list(r) for r in w.matrix]}
            for w in rootsmod.WEYL_GROUP
        ],
        "coset_representatives": {
            tag: [w.name for w in rootsmod.minimal_coset_reps(par)]
            for tag, par in rootsmod.PARABOLICS.items()
        },
        "eis_sets": {tag: list(par.eis_words) for tag, par in rootsmod.PARABOLICS.items()},
        "two_rho": {tag: str(rootsmod.two_rho(par)) for tag, par in rootsmod.PARABOLICS.items()},
    }


def payload_kostant(c1: int, c2: int, which: str) -> Dict[str, object]:
    par = {"alpha": rootsmod.P_LONG, "beta": rootsmod.P_SHORT, "borel": rootsmod.BOREL}[which]
    lam = rootsmod.Weight(2 * c1 + c2, 3 * c1 + 2 * c2)
    rows = [
        {
            "w": p.w.name,
            "length": p.degree,
            "levi_highest_weight": str(p.levi_highest_weight),
            "neg_shifted": str(p.neg_shifted),
        }
        for p in kostant.kostant_pieces(par, lam)
    ]
    out: Dict[str, object] = {"parabolic": which, "weight": str(lam), "pieces": rows}
    if which == "alpha":
        out["degree_cases"] = [
            {"degree": c.degree, "k": str(c.k), "s": str(c.s), "w": c.w.name}
            for c in kostant.degree_cases_alpha(c1, c2)
        ]
    return out


def payload_triform(a: Q, word_length: int) -> Dict[str, object]:
    x = RFrac.var("x")
    assignment = {"a": a}
    form = triform.generic_form(a)
    preservation = {}
    for name in triform.ROOT_NAMES:
        g = triform.root_subgroup(name, x).subs(assignment)
        preservation[name] = form.pullback(g) == form
    preservation["torus"] = (
        form.pullback(triform.torus_elem(RFrac.var("t1"), RFrac.var("t2"))) == form
    )
    probe = triform.coeff_relations_probe(word_length)
    dims = [14 - rec.dim for rec in arthur.orbit_table()]
    return {
        "parameter": str(a),
        "form_preserved_by": preservation,
        "relation_probe": probe,
        "centralizer_dims": dims,
    }


def payload_wedge2() -> Dict[str, object]:
    five = lattice.five_dim_wedge_report()
    four = lattice.four_dim_wedge_report()
    elim = lattice.relation_elimination()
    return {
        "five_dim": {k: (str(v) if not isinstance(v, (bool, list, str)) else v) for k, v in five.items()},
        "four_dim": {k: (str(v) if not isinstance(v, (bool, list, str, tuple)) else v) for k, v in four.items()},
        "elimination": {
            "det_natural": str(elim["det_natural"]),
            "det_natural_is_minus_9d3": elim["det_natural_is_minus_9d3"],
            "elimination_preserves_det": elim["elimination_preserves_det"],
            "det_displayed_system_factored": elim["det_displayed_system_factored"],
            "det_displayed_eliminated_is_plus_9d3": elim["det_displayed_eliminated_is_plus_9d3"],
        },
        "display_blocks": golden_payload(),
    }


def payload_phin(k: int, sp: Q, mode: str) -> Dict[str, object]:
    if mode == "polygons":
        m = phin.d_st(k, sp)
        return {
            "newton": phin.newton_polygon(m).to_dict(),
            "hodge": phin.hodge_polygon(m).to_dict(),
            "admissible": phin.is_admissible(m),
        }
    if mode == "ebc":
        one = RFrac.const(1)
        zero = RFrac.const(0)
        m = phin.build_EBc(SymMatrix([[one, zero], [zero, one]]), 1, k, sp)
        return {
            "fil_jumps": m.fil_jumps(),
            "admissible": phin.is_admissible(m),
            "frobenius_relation": m.phi_relation_report(),
        }
    if mode == "obstruction":
        rep = phin.monodromy_obstruction(phin.five_dim_eigenvalues())
        constraints = []
        for cons in sorted(rep["distinguished_constraints"], key=str):
            constraints.append(
                {
                    "constraint": str(cons),
                    "at_k": f"unit^{cons.power} = p^({cons.exponent.eval({'k': Q(k)})})",
                }
            )
        return {
            "constraints": constraints,
            "unconditional_pairs": rep["unconditional_pairs"],
            "monodromy_forced_zero": rep["n_forced_zero"],
        }
    # mode == "distinct"
    return {
        "inequations": [
            {"left": i.left, "right": i.right, "reduced": i.reduced, "justification": i.justification}
            for i in phin.distinctness_check(k)
        ]
    }


def payload_arthur(args: argparse.Namespace) -> Dict[str, object]:
    out: Dict[str, object] = {}
    if args.orbits:
        out["orbits"] = [
            {"name": r.name, "dim": r.dim, "component_group": r.component_group}
            for r in arthur.orbit_table()
        ]
        out["subregular_centralizer"] = arthur.subregular_centralizer_report()
    if args.packet is not None:
        plus, minus = arthur.packet_psi_k(args.packet)
        out["packet"] = [
            {
                "kind": m.kind,
                "harish_chandra_param": str(m.harish_chandra_param),
                "cohomology_degrees": sorted(m.cohomology_degrees),
            }
            for m in (plus, minus)
        ]
    if args.lift is not None:
        cov, ks = arthur.lift_inf_char(*args.lift)
        out["lift"] = {
            "coweight": list(cov),
            "factor_weights": list(ks),
            "pairing_consistent": arthur.lift_pairing_consistent(*args.lift),
        }
    if args.ledger is not None:
        rep = arthur.multiplicity_ledger(*args.ledger)
        out["ledger"] = {
            "reduced": rep.reduced,
            "adopted": rep.adopted,
            "bound": list(rep.bound) if rep.bound else None,
            "orientation_divergence": rep.orientation_divergence,
            "identity_checks": rep.identity_checks,
        }
    return out


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

def _usage_line(prog: str, message: str) -> str:
    return f"{prog}: error: {message} (see {prog} --help)\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D401 - argparse API
        self.exit(2, _usage_line(self.prog, message))


MAX_WORD_LENGTH = 5


def _rational(text: str) -> Q:
    try:
        return Q(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _int_in(low: int, high: Optional[int] = None, even: bool = False) -> Callable[[str], int]:
    """An argparse type for integers in [low, high] (no upper bound if high
    is None), optionally even."""
    bound = f"{low}..{high}" if high is not None else f">= {low}"
    kind = "an even integer" if even else "an integer"

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < low or (high is not None and n > high) or (even and n % 2):
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind} {bound}")
        return n

    return parse


class _Ledger(argparse.Action):
    """`--ledger K SP`: an integer weight and a rational slope with
    K > 4*SP + 4, the range in which the ledger is defined."""

    def __call__(self, parser, namespace, values, option_string=None):
        k_text, sp_text = values
        try:
            k = int(k_text)
        except ValueError:
            raise argparse.ArgumentError(self, f"{k_text!r} is not an integer") from None
        try:
            sp = _rational(sp_text)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        if not k > 4 * sp + 4:
            raise argparse.ArgumentError(self, f"K={k} and SP={sp} do not satisfy K > 4*SP + 4")
        setattr(namespace, self.dest, (k, sp))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # One shared option keeps the parser, built on every run, cheap; `run`
    # rejects `text` outside `verify`, the only subcommand with a text form.
    common.add_argument(
        "--format", choices=("json", "text"), default=None,
        help="verify: text (default) or json; the other subcommands print JSON only",
    )

    parser = _Parser(prog="g2forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    verify = sub.add_parser("verify", parents=[common], help="run all verification suites")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--config", default=None, help="path to a key = value configuration file")
    verify.add_argument("--bless", action="store_true", help="regenerate golden files")

    sub.add_parser("roots", parents=[common], help="Weyl elements, coset representatives, nilradical sums")

    kost = sub.add_parser("kostant", parents=[common], help="nilpotent-cohomology weight pieces")
    kost.add_argument("--c1", type=_int_in(0), required=True)
    kost.add_argument("--c2", type=_int_in(0), required=True)
    kost.add_argument("--parabolic", choices=("alpha", "beta", "borel"), default="alpha")

    tri = sub.add_parser("triform", parents=[common], help="3-form stabilizer verification")
    tri.add_argument("--a", type=_rational, default=Q(1), help="nonzero rational form parameter")
    tri.add_argument(
        "--word-length", type=_int_in(0, MAX_WORD_LENGTH), default=2,
        help=f"longest generator word the relation probe checks (0..{MAX_WORD_LENGTH})",
    )

    sub.add_parser("wedge2", parents=[common], help="wedge-square and elimination reports").add_argument(
        "--report", choices=("json",), default="json"
    )

    ph = sub.add_parser("phin", parents=[common], help="filtered module computations")
    ph.add_argument("--k", type=_int_in(2), required=True, help="weight (even and >= 4 with --mode ebc)")
    ph.add_argument("--sp", type=_rational, required=True)
    ph.add_argument("--mode", choices=("polygons", "ebc", "obstruction", "distinct"), default="polygons")

    art = sub.add_parser("arthur", parents=[common], help="orbit/packet/lift/ledger data")
    art.add_argument("--orbits", action="store_true")
    art.add_argument("--packet", type=_int_in(4, even=True), default=None, metavar="K")
    art.add_argument("--lift", type=_int_in(1), nargs=2, default=None, metavar=("C1", "C2"))
    art.add_argument("--ledger", action=_Ledger, nargs=2, default=None, metavar=("K", "SP"))
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.format == "text" and args.command != "verify":
        prog = f"g2forge {args.command}"
        sys.stderr.write(_usage_line(prog, "argument --format: only verify has a text form; use json"))
        return 2

    if args.command == "verify":
        try:
            config = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"g2forge: configuration error: {exc}", file=sys.stderr)
            return 2
        seed = args.seed if args.seed is not None else int(config.get("seed", "0"))
        if args.bless:
            path = _golden_path(config)
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(golden_payload(), indent=2, sort_keys=True) + "\n")
        report = run_verify(seed, config)
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_text(report))
        outdir = resolve_output_dir(config)
        if outdir:
            os.makedirs(outdir, exist_ok=True)
            with open(os.path.join(outdir, "verify_report.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return 1 if report_has_failures(report) else 0

    if args.command == "roots":
        _emit(payload_roots())
        return 0
    if args.command == "kostant":
        _emit(payload_kostant(args.c1, args.c2, args.parabolic))
        return 0
    if args.command == "triform":
        if args.a == 0:
            print("g2forge: error: the form parameter must be nonzero", file=sys.stderr)
            return 2
        _emit(payload_triform(args.a, args.word_length))
        return 0
    if args.command == "wedge2":
        _emit(payload_wedge2())
        return 0
    if args.command == "phin":
        if args.mode == "ebc" and (args.k < 4 or args.k % 2):
            # The E(B, c) family needs an even weight of at least 4.
            message = f"argument --k: {args.k} is not an even integer >= 4, as --mode ebc needs"
            sys.stderr.write(_usage_line("g2forge phin", message))
            return 2
        _emit(payload_phin(args.k, args.sp, args.mode))
        return 0
    if args.command == "arthur":
        if not (args.orbits or args.packet is not None or args.lift is not None or args.ledger is not None):
            print("g2forge: error: choose at least one of --orbits/--packet/--lift/--ledger", file=sys.stderr)
            return 2
        _emit(payload_arthur(args))
        return 0
    return 2  # pragma: no cover


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
