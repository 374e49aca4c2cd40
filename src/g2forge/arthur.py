"""Nilpotent-orbit bookkeeping, archimedean packet data, lifting formulas,
the parity rule for global multiplicities, and a formal ledger that combines
the classical/overconvergent multiplicity identities.

The ledger works with named multiplicity symbols only: it encodes linear
identities between them, applies vanishing/cancellation rules, and reports
the surviving relation together with the lower bound it implies.  It never
evaluates any of the underlying distributions.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import triform
from .algebra import RFrac, SymMatrix
from .kostant import coweight_pairings, hodge_tate_weights
from .roots import (
    ALPHA,
    BETA,
    BOREL,
    P_LONG,
    P_SHORT,
    RHO,
    W_BETA,
    ParabolicId,
    Weight,
    dot_act,
    element,
    lambda0,
    two_rho,
)

# ---------------------------------------------------------------------------
# Nilpotent orbits

class OrbitRecord(NamedTuple):
    name: str
    dim: int
    representative: SymMatrix
    component_group: str


# (name, root-vector summands, expected dimension, component group of the
# centralizer).  An empty summand list means the zero matrix.
_ORBIT_DATA: Tuple[Tuple[str, Tuple[str, ...], int, str], ...] = (
    ("O_0", (), 0, "1"),
    ("O_l", ("a",), 6, "1"),
    ("O_s", ("b",), 8, "1"),
    ("O_sr", ("a", "a+3b"), 10, "S3"),
    ("O_r", ("a", "b"), 12, "1"),
)


def _root_vector_sum(names: Sequence[str]) -> SymMatrix:
    lie = triform.lie_basis()
    out = SymMatrix.zero(7, 7)
    for name in names:
        out = out + lie.by_name(f"e[{name}]")
    return out


def orbit_table() -> Tuple[OrbitRecord, ...]:
    """The five nilpotent orbits: zero, long-root, short-root, subregular and
    regular, with dimensions cross-checked against centralizer ranks."""
    lie = triform.lie_basis()
    records = []
    for name, summands, dim, comp in _ORBIT_DATA:
        rep = _root_vector_sum(summands)
        computed = 14 - lie.centralizer_dim(rep)
        if computed != dim:
            raise AssertionError(
                f"orbit {name}: stored dimension {dim} but centralizer gives {computed}"
            )
        records.append(OrbitRecord(name, dim, rep, comp))
    return tuple(records)


def subregular_centralizer_report() -> Dict[str, object]:
    """Machine-checkable witnesses for the subregular centralizer: four
    nilpotent elements that commute with the representative and span its full
    centralizer, plus the two order-witnesses for the symmetric-group
    component group."""
    lie = triform.lie_basis()
    rep = _root_vector_sum(("a", "a+3b"))
    witness_names = ("e[a+b]", "e[a+2b]", "e[2a+3b]", None)
    elements = [
        lie.by_name(n) if n is not None else rep for n in witness_names
    ]
    brackets_vanish = all(
        triform.bracket(rep, x).is_zero() for x in elements
    )
    coords = [lie.coordinates(x) for x in elements]
    span_dim = SymMatrix(coords).rank()
    cent_dim = lie.centralizer_dim(rep)
    return {
        "witness_elements": ["e[a+b]", "e[a+2b]", "e[2a+3b]", "e[a]+e[a+3b]"],
        "all_brackets_vanish": brackets_vanish,
        "span_dimension": span_dim,
        "matches_centralizer_dim": span_dim == cent_dim,
        "component_group_witnesses": triform.zeta_witness(),
    }


# ---------------------------------------------------------------------------
# Archimedean packet data

class PacketMember(NamedTuple):
    kind: str  # "langlands_quotient" or "quaternionic_ds"
    harish_chandra_param: Weight
    cohomology_degrees: frozenset


def packet_psi_k(k: int) -> Tuple[PacketMember, PacketMember]:
    """The two-member archimedean packet attached to an even weight k >= 4:
    a Langlands quotient contributing in degrees {3, 5} and a quaternionic
    discrete series contributing in degree {4}, both with infinitesimal
    character ((k-4)/2)*(2*alpha+3*beta) + rho."""
    if k == 2:
        raise ValueError(
            "weight 2 is rejected: the packet members would have irregular "
            "infinitesimal character"
        )
    if not isinstance(k, int) or k % 2 != 0 or k < 4:
        raise ValueError("k must be an even integer >= 4")
    hc_param = lambda0(k) + RHO
    plus = PacketMember("langlands_quotient", hc_param, frozenset({3, 5}))
    minus = PacketMember("quaternionic_ds", hc_param, frozenset({4}))
    return (plus, minus)


# ---------------------------------------------------------------------------
# Lifting / infinitesimal character

def lift_inf_char(c1, c2) -> Tuple[Tuple[object, object], Tuple[object, object, object]]:
    """Coweight of the infinitesimal character of the rank-7 lift, in coroot
    coordinates (coefficient of the long coroot, coefficient of the short
    coroot), together with the three classical-group factor weights."""
    for c in (c1, c2):
        if isinstance(c, (int, Q)) and c <= 0:
            raise ValueError("c1 and c2 must be positive")
    coweight = (3 * c1 + 2 * c2 + 5, 2 * c1 + c2 + 3)
    k1 = 2 * (2 * c1 + c2 + 3) + 1
    k2 = 2 * (c1 + c2 + 2) + 1
    k3 = 2 * (c1 + 1) + 1
    return coweight, (k1, k2, k3)


def lift_pairing_consistent(c1, c2) -> bool:
    """The lift coweight paired against the seven standard-representation
    weights reproduces the Hodge--Tate septuple."""
    (cov_a, cov_b), _ = lift_inf_char(c1, c2)
    return tuple(coweight_pairings(cov_a, cov_b)) == tuple(hodge_tate_weights(c1, c2))


# ---------------------------------------------------------------------------
# Global multiplicity parity rule

def multiplicity_sign(eps_choices: Mapping[object, int], global_eps: int) -> int:
    """1 if the product of the local sign choices equals the global sign,
    else 0.  Callers must set the choice to +1 at every place where only one
    member is available."""
    if global_eps not in (1, -1):
        raise ValueError("global sign must be +1 or -1")
    product = 1
    for place, eps in eps_choices.items():
        if eps not in (1, -1):
            raise ValueError(f"sign choice at {place!r} must be +1 or -1")
        product *= eps
    return 1 if product == global_eps else 0


# ---------------------------------------------------------------------------
# Multiplicity ledger

class MultSymbol(NamedTuple):
    kind: str      # "classical" | "cuspidal" | "correction"
    levi: str      # "G2" for classical/cuspidal, else the parabolic tag
    word: str      # coset-representative word ("" for the identity)
    argument: str  # "plain" (slope s*(2a+3b)+b at its own weight) or
                   # "twisted" (the reflected refinement at the shifted weight)

    def label(self) -> str:
        if self.kind == "classical":
            return f"m_cl({self.argument})"
        if self.kind == "cuspidal":
            return f"m_cusp({self.argument})"
        w = self.word if self.word else "e"
        return f"m[{self.levi},{w}]({self.argument})"


_PARABOLICS: Tuple[ParabolicId, ...] = (P_LONG, P_SHORT, BOREL)

DEFAULT_RULES: Tuple[str, ...] = (
    "borel_terms_vanish",
    "short_levi_identity_cancels",
    "short_levi_reflected_vanish",
    "long_levi_plain_vanish",
    "long_levi_twisted_low_vanish",
    "classical_at_least_two",
)

_KNOWN_RULES = frozenset(DEFAULT_RULES) | {"correction_at_least_one"}


def _term_sign(parabolic: ParabolicId, word: str) -> int:
    return (-1) ** (parabolic.nilrad_dim - len(word))


def raw_combined_identity() -> Dict[MultSymbol, int]:
    """The signed relation obtained by eliminating the two full
    overconvergent multiplicities from the three linear identities:

        classical(plain) = full(plain) - full(twisted)
        full(X) = cuspidal(X) + sum over (parabolic, w) of
                  (-1)^(dim nilradical - length(w)) * correction(parabolic, w, X)

    stored as {symbol: coefficient} with the convention sum = 0."""
    rel: Dict[MultSymbol, int] = {
        MultSymbol("classical", "G2", "", "plain"): 1,
        MultSymbol("cuspidal", "G2", "", "plain"): -1,
        MultSymbol("cuspidal", "G2", "", "twisted"): 1,
    }
    for par in _PARABOLICS:
        for word in par.eis_words:
            s = _term_sign(par, word)
            rel[MultSymbol("correction", par.tag, word, "plain")] = -s
            rel[MultSymbol("correction", par.tag, word, "twisted")] = s
    return rel


def _zero_out(rel: Dict[MultSymbol, int], predicate) -> None:
    for sym in [s for s in rel if predicate(s)]:
        del rel[sym]


class LedgerReport(NamedTuple):
    raw: Dict[str, int]
    reduced: Dict[str, int]
    surviving_corrections: Tuple[Tuple[str, int], ...]
    adopted: Dict[str, int]
    orientation_divergence: bool
    orientation_note: str
    bound: Optional[Tuple[str, int]]


def identity_checks() -> Dict[str, bool]:
    """Exact symbolic checks (in a formal weight variable k) of the shifted
    weights that feed the vanishing rules."""
    k = RFrac.var("k")
    lam = lambda0(k)
    checks: Dict[str, bool] = {}

    # Reflecting the plain weight by the short reflection drops one short root.
    checks["short_reflection_drops_beta"] = (lam - dot_act(W_BETA, lam)) == BETA

    # Shift used for the short-Levi reflected term of maximal length:
    # dot-action by (long then short) plus the nilradical sum.
    lhs = dot_act(element("ab"), lam) + two_rho(P_SHORT)
    rhs = Weight((k + 4) / 2, (3 * k + 4) / 2)
    checks["short_levi_reflected_shift"] = lhs == rhs

    # Involution identity behind the identity-coset cancellation:
    # reflect (twisted weight + nilradical sum + half Levi root) and subtract
    # the half Levi root again to land on the plain shifted weight.
    rho_levi = Weight(Q(0), Q(1, 2))
    shifted = lam - BETA + two_rho(P_SHORT) + rho_levi
    checks["short_levi_involution_shift"] = (
        W_BETA.act(shifted) - rho_levi == lam + two_rho(P_SHORT)
    )

    # Long-Levi shifted weights at slope zero, recomputed exactly.
    lhs1 = lam - BETA + two_rho(P_LONG)
    rhs1 = (k - 2) / 4 * ALPHA + (3 * k + 6) / 4 * Weight(1, 2)
    checks["long_levi_shift_plain"] = lhs1 == rhs1

    lhs2 = dot_act(W_BETA, lam - BETA) + two_rho(P_LONG)
    rhs2 = (k - 4) / 4 * ALPHA + (3 * k + 8) / 4 * Weight(1, 2)
    checks["long_levi_shift_twisted"] = lhs2 == rhs2

    # The variant fractions do NOT satisfy the identities.
    bad1 = (k - 2) / 4 * ALPHA + (3 * k + 16) / 4 * Weight(1, 2)
    bad2 = (k - 4) / 4 * ALPHA + (3 * k + 18) / 4 * Weight(1, 2)
    checks["long_levi_variant_plain_rejected"] = lhs1 != bad1
    checks["long_levi_variant_twisted_rejected"] = lhs2 != bad2
    return checks


WEIGHT_FLAGS: Tuple[Dict[str, str], ...] = (
    {
        "id": "long-levi-shift-plain",
        "recomputed": "(k-2)/4*alpha + (3k+6)/4*(alpha+2*beta)",
        "variant": "(k-2)/4*alpha + (3k+16)/4*(alpha+2*beta)",
        "status": "finding",
    },
    {
        "id": "long-levi-shift-twisted",
        "recomputed": "(k-4)/4*alpha + (3k+8)/4*(alpha+2*beta)",
        "variant": "(k-4)/4*alpha + (3k+18)/4*(alpha+2*beta)",
        "status": "finding",
    },
)

_ORIENTATION_NOTE = (
    "the literal per-term sign rule leaves the surviving correction on the "
    "same side as the cuspidal plain multiplicity; the adopted combination "
    "moves it next to the classical multiplicity (the orientation under "
    "which every left-hand term is nonnegative), so the two differ by the "
    "sign of that single term"
)


def multiplicity_ledger(k, sp, vanishing_rules: Sequence[str] = DEFAULT_RULES) -> LedgerReport:
    """Combine the three multiplicity identities symbolically, apply the
    supplied vanishing/cancellation rules, and derive the lower bound on the
    cuspidal overconvergent multiplicity that they imply.

    Rules (booleans encoding separately-established facts):
      borel_terms_vanish          -- both minimal-parabolic corrections are 0
      short_levi_identity_cancels -- the identity-coset short-Levi corrections
                                     agree between plain and twisted arguments
      short_levi_reflected_vanish -- short-Levi corrections at the two
                                     nontrivial coset words are 0
      long_levi_plain_vanish      -- all long-Levi corrections of the plain
                                     argument are 0
      long_levi_twisted_low_vanish-- long-Levi corrections of the twisted
                                     argument vanish at words of length < 2
      classical_at_least_two      -- the classical multiplicity is >= 2
      correction_at_least_one     -- the surviving correction term is >= 1
    """
    # Below sp = 0 the critical set the vanishing rules rest on is empty.
    if sp < 0 or not (k > 4 * sp + 4):
        raise ValueError("requires sp >= 0 and k > 4*sp + 4")
    rules = list(vanishing_rules)
    for r in rules:
        if r not in _KNOWN_RULES:
            raise ValueError(f"unknown or inconsistent rule: {r}")

    rel = raw_combined_identity()
    raw = {sym.label(): c for sym, c in rel.items()}

    if "borel_terms_vanish" in rules:
        _zero_out(rel, lambda s: s.kind == "correction" and s.levi == "B")
    if "short_levi_reflected_vanish" in rules:
        _zero_out(
            rel,
            lambda s: s.kind == "correction"
            and s.levi == "P_short"
            and s.word != "",
        )
    if "short_levi_identity_cancels" in rules:
        plain = MultSymbol("correction", "P_short", "", "plain")
        twisted = MultSymbol("correction", "P_short", "", "twisted")
        if plain in rel and twisted in rel:
            merged = rel.pop(plain) + rel.pop(twisted)
            if merged != 0:
                rel[plain] = merged
    if "long_levi_plain_vanish" in rules:
        _zero_out(
            rel,
            lambda s: s.kind == "correction"
            and s.levi == "P_long"
            and s.argument == "plain",
        )
    if "long_levi_twisted_low_vanish" in rules:
        _zero_out(
            rel,
            lambda s: s.kind == "correction"
            and s.levi == "P_long"
            and s.argument == "twisted"
            and len(s.word) < 2,
        )

    if not rel:
        raise ValueError("inconsistent rules: the relation collapsed to 0 = 0")

    reduced = {sym.label(): c for sym, c in rel.items()}
    surviving = tuple(
        (sym.label(), c) for sym, c in rel.items() if sym.kind == "correction"
    )

    # Adopted orientation: flip each surviving correction so that it sits on
    # the classical side of the identity with a positive coefficient there.
    adopted_rel = dict(rel)
    divergence = False
    for sym, c in list(adopted_rel.items()):
        if sym.kind == "correction" and c * adopted_rel.get(
            MultSymbol("classical", "G2", "", "plain"), 1
        ) < 0:
            adopted_rel[sym] = -c
            divergence = True
    adopted = {sym.label(): c for sym, c in adopted_rel.items()}

    bound: Optional[Tuple[str, int]] = None
    if "classical_at_least_two" in rules:
        # In the adopted orientation the relation reads
        #   classical + cuspidal(twisted) + corrections = cuspidal(plain),
        # with every left-hand term nonnegative.
        lower = 2
        if "correction_at_least_one" in rules and surviving:
            lower += 1
        bound = ("m_cusp(plain)", lower)

    return LedgerReport(
        raw=raw,
        reduced=reduced,
        surviving_corrections=surviving,
        adopted=adopted,
        orientation_divergence=divergence,
        orientation_note=_ORIENTATION_NOTE if divergence else "",
        bound=bound,
    )
