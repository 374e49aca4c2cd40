"""Rank-2 exceptional root system, its Weyl group, and parabolic data.

Weights are exact combinations of the simple roots: ``alpha`` is the long
simple root and ``beta`` the short one (Cartan pairings <alpha, beta_cov> = -3,
<beta, alpha_cov> = -1).  Weyl elements are named by reduced words over the two
simple reflections, letter 'a' for the long-root reflection and 'b' for the
short-root one, with the rightmost letter acting first.

A numeric coordinate or coroot pairing is an ``int`` while it is integral and
a ``fractions.Fraction`` only when it is not, so the Weyl action, the dot
action and the positivity tests run on ints; a float is rejected with
``TypeError``.  Symbolic coordinates are ``MPoly`` or ``RFrac``.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict, List, Tuple, Union

from .algebra import MPoly, RFrac, _Immutable, _coef, affine_bounds_on_cone, quotient

Coord = Union[int, Q, MPoly, RFrac]


def _coordinate(c) -> Coord:
    """A coordinate in stored form: symbolic ones as they are, numeric ones
    as ``_coef`` stores a coefficient (a float raises ``TypeError``)."""
    return c if isinstance(c, (MPoly, RFrac)) else _coef(c)


class Weight(_Immutable):
    """Exact weight c_a*alpha + c_b*beta; coordinates may be symbolic."""

    __slots__ = ("ca", "cb")

    def __init__(self, ca: Coord, cb: Coord):
        if type(ca) is not int:
            ca = _coordinate(ca)
        if type(cb) is not int:
            cb = _coordinate(cb)
        object.__setattr__(self, "ca", ca)
        object.__setattr__(self, "cb", cb)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.ca + other.ca, self.cb + other.cb)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.ca - other.ca, self.cb - other.cb)

    def __neg__(self) -> "Weight":
        return Weight(-self.ca, -self.cb)

    def __rmul__(self, scalar) -> "Weight":
        return Weight(scalar * self.ca, scalar * self.cb)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.ca == other.ca and self.cb == other.cb

    def coords(self) -> Tuple[Coord, Coord]:
        return (self.ca, self.cb)

    def in_basis_half_alpha(self) -> Tuple[Coord, Coord]:
        """Coefficients (x, y) with self = x*(alpha/2) + y*(alpha+2*beta)/2."""
        return (2 * self.ca - self.cb, self.cb)

    def pair_coroot(self, root: "Weight") -> Coord:
        """Exact pairing <self, root_cov> (root must be a root of the system)."""
        m, n = root.ca, root.cb
        # Inner products: (a,a)=6, (b,b)=2, (a,b)=-3.
        num = 2 * (6 * m * self.ca - 3 * (n * self.ca + m * self.cb) + 2 * n * self.cb)
        den = 6 * m * m - 6 * m * n + 2 * n * n
        return quotient(num, den)

    def is_nonnegative_combo(self) -> bool:
        """Both simple-root coordinates >= 0 (requires numeric coordinates)."""
        return self.ca >= 0 and self.cb >= 0

    def __str__(self) -> str:
        return f"({self.ca})*alpha + ({self.cb})*beta"

    def __repr__(self) -> str:
        return f"Weight({self.ca}, {self.cb})"


ALPHA = Weight(1, 0)
BETA = Weight(0, 1)
RHO = Weight(3, 5)

POSITIVE_ROOTS: Tuple[Weight, ...] = (
    Weight(1, 0),   # long simple
    Weight(0, 1),   # short simple
    Weight(1, 1),
    Weight(1, 2),
    Weight(1, 3),
    Weight(2, 3),
)

Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]

_M_A: Mat2 = ((-1, 1), (0, 1))
_M_B: Mat2 = ((1, 0), (3, -1))
_M_ID: Mat2 = ((1, 0), (0, 1))


def _mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


class WeylElement(_Immutable):
    """One of the 12 Weyl group elements, named by its reduced word.  Each is
    built once, so they compare and hash by identity."""

    __slots__ = ("word", "matrix")

    def __init__(self, word: str, matrix: Mat2):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "matrix", matrix)

    @property
    def name(self) -> str:
        return "e" if not self.word else "w_" + self.word

    @property
    def length(self) -> int:
        return len(self.word)

    def act(self, lam: Weight) -> Weight:
        m = self.matrix
        return Weight(
            m[0][0] * lam.ca + m[0][1] * lam.cb,
            m[1][0] * lam.ca + m[1][1] * lam.cb,
        )

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return _BY_MATRIX[_mat_mul(self.matrix, other.matrix)]

    def inverse(self) -> "WeylElement":
        m = self.matrix
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        inv = (
            (m[1][1] // det, -m[0][1] // det),
            (-m[1][0] // det, m[0][0] // det),
        )
        return _BY_MATRIX[inv]

    def __repr__(self) -> str:
        return f"WeylElement({self.name})"


def _generate_group() -> Tuple[Tuple[WeylElement, ...], Dict[Mat2, WeylElement]]:
    gens = {"a": _M_A, "b": _M_B}
    found: Dict[Mat2, str] = {_M_ID: ""}
    frontier = [("", _M_ID)]
    while frontier:
        new_frontier = []
        for word, mat in frontier:
            for letter in ("a", "b"):
                nw = word + letter
                nm = _mat_mul(mat, gens[letter])
                prev = found.get(nm)
                if prev is None or (len(nw) == len(prev) and nw < prev):
                    if prev is None:
                        new_frontier.append((nw, nm))
                    found[nm] = nw
        frontier = new_frontier
    elements = tuple(
        sorted(
            (WeylElement(w, m) for m, w in found.items()),
            key=lambda e: (e.length, e.word),
        )
    )
    by_matrix = {e.matrix: e for e in elements}
    return elements, by_matrix


WEYL_GROUP, _BY_MATRIX = _generate_group()
IDENTITY = _BY_MATRIX[_M_ID]
W_ALPHA = _BY_MATRIX[_M_A]
W_BETA = _BY_MATRIX[_M_B]


def element(word: str) -> WeylElement:
    """Weyl element of an arbitrary word over {a, b} (need not be reduced)."""
    mat = _M_ID
    for letter in word:
        if letter == "a":
            mat = _mat_mul(mat, _M_A)
        elif letter == "b":
            mat = _mat_mul(mat, _M_B)
        else:
            raise ValueError(f"unknown reflection letter {letter!r}")
    return _BY_MATRIX[mat]


LONGEST = element("ababab")
if LONGEST.matrix != ((-1, 0), (0, -1)):
    raise AssertionError("longest element must act by negation")


def dot_act(w: WeylElement, lam: Weight) -> Weight:
    """The rho-shifted action w*lam = w(lam + rho) - rho."""
    return w.act(lam + RHO) - RHO


def _root_is_positive(r: Weight) -> bool:
    return r.ca > 0 or (r.ca == 0 and r.cb > 0)


def length_by_inversions(w: WeylElement) -> int:
    return sum(1 for r in POSITIVE_ROOTS if not _root_is_positive(w.act(r)))


class ParabolicId(_Immutable):
    """Standard parabolic tag with its Levi/coset/Eisenstein data."""

    __slots__ = ("tag", "levi_simple", "eis_words", "nilrad_dim")

    def __init__(self, tag: str, levi_simple: Tuple[Weight, ...], eis_words: Tuple[str, ...]):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "levi_simple", levi_simple)
        object.__setattr__(self, "eis_words", eis_words)
        object.__setattr__(self, "nilrad_dim", len(self.nilradical_roots))

    @property
    def nilradical_roots(self) -> Tuple[Weight, ...]:
        """The positive roots outside the Levi, read from ``POSITIVE_ROOTS``
        at each call."""
        levi = {(s.ca, s.cb) for s in self.levi_simple}
        return tuple(r for r in POSITIVE_ROOTS if (r.ca, r.cb) not in levi)

    def __repr__(self):
        return f"ParabolicId({self.tag})"


# Maximal parabolic with Levi generated by the long simple root, its partner
# with the short simple root, and the minimal (Borel) parabolic.
P_LONG = ParabolicId("P_long", (ALPHA,), ("", "b", "ba"))
P_SHORT = ParabolicId("P_short", (BETA,), ("", "a", "ab"))
BOREL = ParabolicId("B", (), ("",))

PARABOLICS = {"P_long": P_LONG, "P_short": P_SHORT, "B": BOREL}


def minimal_coset_reps(parabolic: ParabolicId) -> List[WeylElement]:
    """Minimal-length representatives w with w^{-1}(Levi positives) > 0."""
    reps = []
    for w in WEYL_GROUP:
        winv = w.inverse()
        if all(_root_is_positive(winv.act(s)) for s in parabolic.levi_simple):
            reps.append(w)
    reps.sort(key=lambda e: (e.length, e.word))
    return reps


def two_rho(parabolic: ParabolicId) -> Weight:
    """Sum of the torus roots in the unipotent radical."""
    total = Weight(0, 0)
    for r in parabolic.nilradical_roots:
        total = total + r
    return total


def critical_set(mu: Weight, lam: Weight) -> List[WeylElement]:
    """All w != e with mu - lam + w*lam a nonnegative combination of simples."""
    out = []
    for w in WEYL_GROUP:
        if w is IDENTITY:
            continue
        residue = mu - lam + dot_act(w, lam)
        if residue.is_nonnegative_combo():
            out.append(w)
    return out


def lambda0(k: Union[int, Q, MPoly, RFrac]) -> Weight:
    """The weight (k-4)/2 * (2*alpha + 3*beta) attached to an eigenform of
    weight k."""
    return Weight(k - 4, quotient(3 * (k - 4), 2))


def slope_weight(sp: Union[int, Q, MPoly]) -> Weight:
    """The slope weight sp*(2*alpha+3*beta) + beta of the distinguished
    refinement."""
    return Weight(2 * sp, 3 * sp + 1)


# The low-slope window k > 4sp + 4, sp >= 0 over integers k and half-integers
# sp: 4sp + 4 is then an even integer, so the window is k >= 4sp + 5, the cone
# with vertex (5, 0) and rays (1, 0), (4, 1) in the (k, sp) plane.
WINDOW_VERTICES = ({"k": 5, "sp": 0},)
WINDOW_RAYS = ({"k": 1, "sp": 0}, {"k": 4, "sp": 1})


def critical_set_on_window() -> Tuple[List[WeylElement], List[WeylElement]]:
    """(critical, undecided) over the whole low-slope window.  For symbolic
    k and sp the residue coordinates of mu - lam + w*lam are affine: w is
    critical when both are >= 0 on the cone, excluded when one is < 0 on the
    cone, and undecided otherwise."""
    k, sp = MPoly.var("k"), MPoly.var("sp")
    lam, mu = lambda0(k), slope_weight(sp)
    critical, undecided = [], []
    for w in WEYL_GROUP:
        if w is IDENTITY:
            continue
        residue = mu - lam + dot_act(w, lam)
        bounds = [affine_bounds_on_cone(c, WINDOW_VERTICES, WINDOW_RAYS) for c in residue.coords()]
        if all(lo is not None and lo >= 0 for lo, _ in bounds):
            critical.append(w)
        elif not any(hi is not None and hi < 0 for _, hi in bounds):
            undecided.append(w)
    return critical, undecided
