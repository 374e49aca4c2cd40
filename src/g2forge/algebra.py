"""Exact scalar, polynomial, rational-function and matrix arithmetic.

Everything here is immutable after construction and exact, so results are
deterministic.  Polynomial coefficients are ``int`` while integral and
``fractions.Fraction`` only when they are not; scalars handed out of the
kernel (``const_value``, ``eval``) are always ``Fraction``.  Polynomials are
stored as dicts from exponent tuples to coefficients with the variable list
sorted by name; the canonical text form (lexicographic term order over that
variable order) is what golden files and JSON reports serialize.  An
integral coefficient prints, compares and hashes as the equal ``Fraction``
would, so the text form does not depend on the representation.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from operator import add, itemgetter, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

Exponents = Tuple[int, ...]
Scalar = Union[int, Q]

_is_int = int.__instancecheck__   # isinstance(c, int), callable from map() in C


def _as_q(value) -> Q:
    if isinstance(value, Q):
        return value
    if isinstance(value, int):
        return Q(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def _coef(c) -> Scalar:
    """The stored form of a polynomial coefficient: an ``int`` when it is
    integral, otherwise a ``Fraction``."""
    if type(c) is int:
        return c
    if isinstance(c, Q):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected an integer or Fraction, got {type(c).__name__}")


class MPoly:
    """Multivariate polynomial with exact rational coefficients.

    ``vars`` is a sorted tuple of variable names; ``terms`` maps exponent
    tuples (aligned with ``vars``) to nonzero coefficients: an ``int`` when
    the coefficient is integral, a ``Fraction`` when it is not.  Instances
    are canonical: no zero coefficients, and no variable appears with
    exponent 0 in every term (unused variables are projected away), so
    ``==`` is structural.

    Arithmetic keeps integral data integral and builds its results in
    canonical form directly: a product of nonzero polynomials uses every
    variable of both factors, and a sum or difference drops a variable only
    where a term cancelled.

    Operands over different variable tuples are brought onto their merged
    tuple by an alignment plan, built once per pair of tuples and kept in a
    table of at most 4096 plans (``_align_plan``).  ``a - b`` is one pass,
    with no negated copy of ``b``.  A product with a one-term factor shifts
    the other factor's exponents by one tuple, which keeps distinct
    exponents distinct, so it needs no collision bookkeeping.  ``subs``
    returns the polynomial itself when it mentions none of the assigned
    variables, and substitutes scalar values straight on the exponent
    tuples.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Tuple[str, ...], terms: Dict[Exponents, Scalar], _canonical: bool = False):
        if not _canonical:
            terms = {e: _coef(c) for e, c in terms.items() if c}
            used = [i for i, column in enumerate(zip(*terms)) if any(column)]
            if len(used) != len(vars):
                # An unused position is 0 in every term, so dropping it
                # merges no two terms.
                vars = tuple(vars[i] for i in used)
                terms = _remap(terms, used)
        _set_vars(self, vars)
        _set_terms(self, terms)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "MPoly":
        c = _coef(c)
        if c == 0:
            return _ZERO
        return MPoly((), {(): c}, _canonical=True)

    @staticmethod
    def var(name: str) -> "MPoly":
        return MPoly((name,), {(1,): 1}, _canonical=True)

    @staticmethod
    def zero() -> "MPoly":
        return _ZERO

    @staticmethod
    def one() -> "MPoly":
        return _ONE

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def const_value(self) -> Q:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return Q(self.terms.get((), 0))

    def leading(self) -> Tuple[Exponents, Scalar]:
        """Leading term under lex order over the sorted variable tuple."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "MPoly") -> Tuple[Tuple[str, ...], Dict[Exponents, Scalar], Dict[Exponents, Scalar]]:
        """Both term dicts over the merged variable tuple."""
        va, vb = self.vars, other.vars
        if va == vb:
            return va, self.terms, other.terms
        merged, pick_a, pick_b = _align_plan(va, vb)
        a = self.terms if pick_a is None else {pick_a(e + _PAD): c for e, c in self.terms.items()}
        b = other.terms if pick_b is None else {pick_b(e + _PAD): c for e, c in other.terms.items()}
        return merged, a, b

    def __add__(self, other):
        if type(other) is not MPoly:
            other = _coerce_poly(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        vars_, a, b = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        cancelled = False
        for e, c in b.items():
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if s:
                out[e] = s if type(s) is int else _coef(s)
            else:
                del out[e]
                cancelled = True
        if not cancelled:
            # Every term of both summands survives, so every variable is used.
            return MPoly(vars_, out, _canonical=True)
        if not out:
            return _ZERO
        return MPoly(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()}, _canonical=True)

    def __sub__(self, other):
        if type(other) is not MPoly:
            other = _coerce_poly(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return -other
        vars_, a, b = self._aligned(other)
        out = dict(a)
        cancelled = False
        for e, c in b.items():
            s = out.get(e)
            if s is None:
                out[e] = -c
                continue
            s -= c
            if s:
                out[e] = s if type(s) is int else _coef(s)
            else:
                del out[e]
                cancelled = True
        if not cancelled:
            # Every term of both operands survives, so every variable is used.
            return MPoly(vars_, out, _canonical=True)
        if not out:
            return _ZERO
        return MPoly(vars_, out)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not MPoly:
            other = _coerce_poly(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.terms or not other.terms:
            return _ZERO
        if not other.vars:
            self, other = other, self
        if not self.vars:
            c = self.terms[()]
            if c == 1:
                return other
            vars_ = other.vars
            out = {e: d * c for e, d in other.terms.items()}
        elif len(self.terms) == 1 or len(other.terms) == 1:
            if len(self.terms) != 1:
                self, other = other, self
            # A one-term factor shifts every exponent of the other by the
            # same tuple, so no two products collide.
            ((e1, c1),) = self.terms.items()
            if self.vars == other.vars:
                vars_, pick_a, pick_b = self.vars, None, None
            else:
                vars_, pick_a, pick_b = _align_plan(self.vars, other.vars)
            if pick_a is not None:
                e1 = pick_a(e1 + _PAD)
            if pick_b is None:
                out = {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in other.terms.items()}
            else:
                out = {tuple(map(add, e1, pick_b(e2 + _PAD))): c1 * c2 for e2, c2 in other.terms.items()}
        else:
            vars_, a, b = self._aligned(other)
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(map(add, e1, e2))
                    s = out.get(e)
                    if s is None:
                        out[e] = c1 * c2
                    else:
                        s += c1 * c2
                        if s:
                            out[e] = s
                        else:
                            del out[e]
        if not all(map(_is_int, out.values())):
            out = {e: _coef(c) for e, c in out.items()}
        # Over a field deg_v(fg) = deg_v(f) + deg_v(g): the product of two
        # nonzero canonical polynomials is nonzero and uses every variable of
        # either factor.
        return MPoly(vars_, out, _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        # Over a field, a polynomial divided by a nonzero scalar is a polynomial.
        if isinstance(other, (int, Q)):
            return self * (1 / Q(other))
        return RFrac(self) / other

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- substitution / evaluation --------------------------------------

    def eval(self, assignment: Mapping[str, Scalar]) -> Q:
        """Exact evaluation; every variable must be assigned."""
        for v in self.vars:
            if v not in assignment:
                raise ValueError(f"missing assignment for variable '{v}'")
        total = Q(0)
        values = [_as_q(assignment[v]) for v in self.vars]
        for e, c in self.terms.items():
            term = c
            for val, exp in zip(values, e):
                if exp:
                    term *= val ** exp
            total += term
        return total

    def subs(self, assignment: Mapping[str, Union[Scalar, "MPoly"]]) -> "MPoly":
        """Substitute polynomials (or rationals) for some variables."""
        hit = [i for i, name in enumerate(self.vars) if name in assignment]
        if not hit:
            return self
        values = [assignment[self.vars[i]] for i in hit]
        if all(isinstance(v, (int, Q)) for v in values):
            # Scalars only: evaluate the assigned positions of each exponent
            # tuple and keep the others.
            keep = [i for i in range(len(self.vars)) if i not in hit]
            terms: Dict[Exponents, Scalar] = {}
            for e, c in self.terms.items():
                for i, v in zip(hit, values):
                    if e[i]:
                        c = c * v ** e[i]
                k = tuple([e[i] for i in keep])
                s = terms.get(k)
                terms[k] = c if s is None else s + c
            result = MPoly(tuple(self.vars[i] for i in keep), terms)
            return result if result.terms else _ZERO
        out: MPoly = _ZERO
        for e, c in self.terms.items():
            term: MPoly = MPoly.const(c)
            for name, exp in zip(self.vars, e):
                if not exp:
                    continue
                if name in assignment:
                    repl = assignment[name]
                    repl_p = repl if isinstance(repl, MPoly) else MPoly.const(repl)
                    term = term * repl_p ** exp
                else:
                    term = term * MPoly((name,), {(exp,): 1}, _canonical=True)
            out = out + term
        return out

    def divexact(self, divisor: "MPoly") -> Optional["MPoly"]:
        """Return self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return _ZERO
        if divisor.is_const():
            inv = 1 / divisor.const_value()
            return MPoly(self.vars, {e: _coef(c * inv) for e, c in self.terms.items()}, _canonical=True)
        vars_, rem_terms, div_terms = self._aligned(divisor)
        rem = dict(rem_terms)
        div_lead = max(div_terms)
        div_lc = div_terms[div_lead]
        quot: Dict[Exponents, Scalar] = {}
        while rem:
            lead = max(rem)
            qe = tuple(map(sub, lead, div_lead))
            if any(x < 0 for x in qe):
                return None
            # Fraction division: int / int would give a float.
            qc = _coef(Q(rem[lead], div_lc))
            # Each step cancels the leading term of rem and adds only smaller
            # ones, so every quotient exponent is new.
            quot[qe] = qc
            for e, c in div_terms.items():
                t = tuple(map(add, qe, e))
                s = rem.get(t, 0) - qc * c
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return MPoly(vars_, quot)

    # -- serialization ---------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: List[str] = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                (v if k == 1 else f"{v}^{k}") for v, k in zip(self.vars, e) if k
            )
            if mono:
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                else:
                    body = f"{c}*{mono}"
            else:
                body = str(c)
            pieces.append(body)
        out = pieces[0]
        for body in pieces[1:]:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return out

    def __repr__(self) -> str:
        return f"MPoly({self})"


# The slot setters, which get past the immutability guard of __setattr__.
_set_vars = MPoly.vars.__set__
_set_terms = MPoly.terms.__set__


def _remap(terms: Dict[Exponents, Scalar], positions: Sequence[int]) -> Dict[Exponents, Scalar]:
    """``terms`` with each exponent tuple cut down to its entries at
    ``positions``."""
    if len(positions) > 1:
        pick = itemgetter(*positions)
        return {pick(e): c for e, c in terms.items()}
    if positions:
        p = positions[0]
        return {(e[p],): c for e, c in terms.items()}
    return {(): c for c in terms.values()}


_PAD = (0,)


@lru_cache(maxsize=4096)
def _align_plan(va: Tuple[str, ...], vb: Tuple[str, ...]):
    """The plan ``(merged, pick_a, pick_b)`` that brings exponent tuples over
    the sorted variable tuples ``va`` and ``vb`` onto their merged tuple:
    ``pick(e + (0,))`` is the new tuple, a variable the operand lacks
    reading the appended 0, and ``pick`` is ``None`` for an operand already
    over ``merged``.  Built once per pair; the table holds at most 4096."""
    merged = tuple(sorted({*va, *vb}))
    picks = []
    for vs in (va, vb):
        if len(vs) == len(merged):
            picks.append(None)
            continue
        pos = [vs.index(v) if v in vs else len(vs) for v in merged]
        # A single position reads a one-element slice, so the pick is a tuple.
        picks.append(itemgetter(*pos) if len(pos) > 1 else itemgetter(slice(pos[0], pos[0] + 1)))
    return (merged, *picks)


def _coerce_poly(x):
    if isinstance(x, MPoly):
        return x
    if isinstance(x, (int, Q)):
        return MPoly.const(x)
    return NotImplemented


_ZERO = MPoly((), {}, _canonical=True)
_ONE = MPoly((), {(): 1}, _canonical=True)


def affine_bounds_on_cone(
    f: MPoly, vertices: Sequence[Mapping[str, Scalar]], rays: Sequence[Mapping[str, Scalar]]
) -> Tuple[Optional[Q], Optional[Q]]:
    """Exact (min, max) of an affine ``f`` on conv(vertices) + cone(rays),
    points given as {variable: value}, ``None`` for an unbounded side.  Every
    point is a convex combination of vertices plus a nonnegative combination
    of rays (Minkowski–Weyl), so the extremes sit at vertices unless a ray
    slope of ``f`` points the other way."""
    if any(sum(e) > 1 for e in f.terms):
        raise ValueError(f"{f} is not affine")
    constant = Q(f.terms.get((0,) * len(f.vars), 0))
    values = [f.eval(v) for v in vertices]
    slopes = [f.eval(r) - constant for r in rays]
    lo = min(values) if all(s >= 0 for s in slopes) else None
    hi = max(values) if all(s <= 0 for s in slopes) else None
    return lo, hi


class RFrac:
    """Rational function num/den with light normalization.

    Normalization: zero numerator forces den = 1; the monomial gcd of all
    terms is cancelled; the denominator is made monic (lex leading
    coefficient 1); and exact polynomial division collapses den into num
    whenever possible.  A denominator left as a single term other than 1 is
    never tried: after the monomial gcd is cancelled, each of its variables
    has exponent 0 in some numerator term.  Equality falls back to
    cross-multiplication, so the partial normal form is only a fast path.

    Denominator 1 is always the shared ``_ONE`` object, so ``den is _ONE``
    identifies polynomials.  Sums, differences and products of two
    polynomials, and of zero with anything, are built directly: normalizing
    them changes nothing.  ``subs`` returns the function itself when neither
    part mentions an assigned variable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        if num is NotImplemented:
            raise TypeError("cannot build RFrac from this numerator")
        if den is None:
            den = _ONE
        else:
            den = _coerce_poly(den)
            if den is NotImplemented:
                raise TypeError("cannot build RFrac from this denominator")
        if den.is_zero():
            raise ZeroDivisionError("RFrac denominator is zero")
        num, den = _normalize_frac(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RFrac is immutable")

    @staticmethod
    def const(c) -> "RFrac":
        return RFrac(MPoly.const(c))

    @staticmethod
    def var(name: str) -> "RFrac":
        return RFrac(MPoly.var(name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Q:
        return self.num.const_value() / self.den.const_value()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        if self.den is _ONE and other.den is _ONE:
            out = object.__new__(RFrac)
            object.__setattr__(out, "num", self.num + other.num)
            object.__setattr__(out, "den", _ONE)
            return out
        if self.den == other.den:
            return RFrac(self.num + other.num, self.den)
        return RFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RFrac)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            return self
        if self.den is _ONE and other.den is _ONE:
            out = object.__new__(RFrac)
            object.__setattr__(out, "num", self.num - other.num)
            object.__setattr__(out, "den", _ONE)
            return out
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return R_ZERO
        if self.den is _ONE and other.den is _ONE:
            out = object.__new__(RFrac)
            object.__setattr__(out, "num", self.num * other.num)
            object.__setattr__(out, "den", _ONE)
            return out
        return RFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RFrac":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RFrac(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return self.inv() ** (-n)
        return RFrac(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    def eval(self, assignment: Mapping[str, Scalar]) -> Q:
        den = self.den.eval(assignment)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the assignment")
        return self.num.eval(assignment) / den

    def subs(self, assignment: Mapping[str, Union[Scalar, MPoly]]) -> "RFrac":
        num, den = self.num.subs(assignment), self.den.subs(assignment)
        if num is self.num and den is self.den:
            return self
        return RFrac(num, den)

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RFrac({self})"


def _normalize_frac(num: MPoly, den: MPoly) -> Tuple[MPoly, MPoly]:
    if num.is_zero():
        return _ZERO, _ONE
    if den == _ONE:
        return num, _ONE
    # Cancel the monomial gcd.
    vars_, nt, dt = num._aligned(den)
    if vars_:
        mins = [min(column) for column in zip(*nt, *dt)]
        if any(mins):
            num = MPoly(vars_, {tuple(map(sub, e, mins)): c for e, c in nt.items()})
            den = MPoly(vars_, {tuple(map(sub, e, mins)): c for e, c in dt.items()})
    # Make the denominator monic.
    _, lc = den.leading()
    if lc != 1:
        inv = 1 / Q(lc)
        num = MPoly(num.vars, {e: _coef(c * inv) for e, c in num.terms.items()}, _canonical=True)
        den = MPoly(den.vars, {e: _coef(c * inv) for e, c in den.terms.items()}, _canonical=True)
    if den == _ONE:
        return num, _ONE
    if len(den.terms) == 1:
        # Every variable of a monomial denominator has exponent 0 in some
        # numerator term once the monomial gcd is cancelled, so the division
        # below could not be exact.
        return num, den
    q = num.divexact(den)
    if q is not None:
        return q, _ONE
    return num, den


def _coerce_frac(x):
    if isinstance(x, RFrac):
        return x
    if isinstance(x, MPoly):
        return RFrac(x)
    if isinstance(x, (int, Q)):
        return RFrac.const(x)
    return NotImplemented


R_ZERO = RFrac.const(0)
R_ONE = RFrac.const(1)


class SymMatrix:
    """Matrix over RFrac.  All matrices in scope are small (≤ 21×21).

    Entries are stored densely, zeros included.  The product visits only
    the nonzero entries of both factors: most matrices here are monomial or
    unipotent, so nearly all scalar products would have a zero operand.

    The constructor coerces and checks its entries.  Results of matrix
    operations are built from ``RFrac`` rows of a known shape and skip that
    (``_trusted=True``: a nonempty tuple of equal-length tuples of ``RFrac``).

    ``rank`` and ``inverse`` run the one elimination, ``row_reduce``.
    ``det`` clears each row's denominators and runs fraction-free Bareiss.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], _trusted: bool = False):
        if _trusted:
            data = entries
        else:
            data = tuple(tuple(_coerce_entry(x) for x in row) for row in entries)
            if not data or not data[0]:
                raise ValueError("matrix must be nonempty")
            if any(len(row) != len(data[0]) for row in data):
                raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]))
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SymMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        return SymMatrix([[R_ONE if i == j else R_ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "SymMatrix":
        return SymMatrix([[R_ZERO] * cols for _ in range(rows)])

    @staticmethod
    def diagonal(values: Sequence) -> "SymMatrix":
        vals = [_coerce_entry(v) for v in values]
        n = len(vals)
        return SymMatrix([[vals[i] if i == j else R_ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, key: Tuple[int, int]) -> RFrac:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> Tuple[RFrac, ...]:
        return self.entries[i]

    def col(self, j: int) -> Tuple[RFrac, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __mul__(self, other):
        if isinstance(other, SymMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"dimension mismatch: ({self.rows}x{self.cols}) * ({other.rows}x{other.cols})"
                )
            # Each entry sums its products in increasing k, as a dense loop
            # would, so sums of non-polynomial entries normalize the same way.
            sparse_rows = [
                [(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in other.entries
            ]
            out = []
            for row in self.entries:
                acc: List[Optional[RFrac]] = [None] * other.cols
                for a, pairs in zip(row, sparse_rows):
                    if not pairs or a.is_zero():
                        continue
                    for j, b in pairs:
                        s = acc[j]
                        acc[j] = a * b if s is None else s + a * b
                out.append(tuple(R_ZERO if s is None else s for s in acc))
            return SymMatrix(tuple(out), _trusted=True)
        scalar = _coerce_frac(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self.scale(scalar)

    def __rmul__(self, other):
        scalar = _coerce_frac(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self.scale(scalar)

    def scale(self, scalar) -> "SymMatrix":
        scalar = _coerce_frac(scalar)
        return SymMatrix(tuple(tuple(scalar * x for x in row) for row in self.entries), _trusted=True)

    def _entrywise(self, other, op):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) and ({other.rows}x{other.cols})"
            )
        return SymMatrix(
            tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            _trusted=True,
        )

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __neg__(self):
        return SymMatrix(tuple(tuple(-x for x in row) for row in self.entries), _trusted=True)

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def subs(self, assignment: Mapping[str, Union[Scalar, MPoly]]) -> "SymMatrix":
        return SymMatrix(tuple(tuple(x.subs(assignment) for x in row) for row in self.entries), _trusted=True)

    def det(self) -> RFrac:
        """Fraction-free: row i is multiplied by the product d_i of its
        denominators, and det = Bareiss det of those rows / prod(d_i)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        cleared = []
        scale = _ONE
        for row in self.entries:
            d = _ONE
            for x in row:
                d = d * x.den
            cleared.append([x.num * d.divexact(x.den) for x in row])
            scale = scale * d
        return RFrac(_bareiss_det(cleared), scale)

    def rank(self) -> int:
        """Rank over the rational-function field (exact Gaussian elimination)."""
        return len(row_reduce([list(row) for row in self.entries], self.cols, reduced=False))

    def inverse(self) -> "SymMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        m = [list(row) + [R_ONE if i == j else R_ZERO for j in range(n)] for i, row in enumerate(self.entries)]
        if len(row_reduce(m, n)) < n:
            raise ValueError("matrix is singular")
        return SymMatrix([row[n:] for row in m])

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"SymMatrix({self})"


def _coerce_entry(x) -> RFrac:
    out = _coerce_frac(x)
    if out is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")
    return out


def row_reduce(rows: List[List[RFrac]], ncols: int, reduced: bool = True) -> List[int]:
    """Row-reduce ``rows`` in place on their first ``ncols`` columns and
    return the pivot columns.  Row i then holds the pivot of column
    ``pivots[i]``; the rows past ``len(pivots)`` are zero on the first ``ncols``
    columns.

    The pivot of a column is its first nonzero entry at or below the next
    pivot row.  ``reduced=True`` is Gauss–Jordan: the pivot row is scaled to
    a leading 1 and the column is cleared above and below it.
    ``reduced=False`` clears below an unscaled pivot only, which is all a rank
    needs: ``SymMatrix.rank`` and the filtration ranks of ``phin`` use it, and
    Gauss–Jordan there makes ``arthur --orbits`` and ``phin --mode ebc`` each
    about 10-20 % slower.  A row update touches only the columns where the
    pivot row is nonzero; elsewhere a - f·0 is ``a``.
    """
    n = len(rows)
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == n:
            break
        for p in range(r, n):
            if not rows[p][col].is_zero():
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][col].inv()
        if reduced:
            rows[r] = [inv * x for x in rows[r]]
        pivot_row = rows[r]
        support = [(j, b) for j, b in enumerate(pivot_row) if not b.is_zero()]
        for i in range(0 if reduced else r + 1, n):
            lead = rows[i][col]
            if i == r or lead.is_zero():
                continue
            factor = lead if reduced else lead * inv
            row = rows[i][:]
            for j, b in support:
                row[j] = row[j] - factor * b
            rows[i] = row
        pivots.append(col)
    return pivots


def _bareiss_det(m: List[List[MPoly]]) -> MPoly:
    """Fraction-free determinant; every division below is exact."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = _ONE
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = None
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    swap = r
                    break
            if swap is None:
                return _ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q = val.divexact(prev)
                if q is None:  # pragma: no cover - Bareiss guarantees exactness
                    raise ArithmeticError("fraction-free elimination division failed")
                m[i][j] = q
            m[i][k] = _ZERO
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


class ValuedScalar:
    """A monomial coeff · p^pexp · u^upow over a p-adically valued field.

    ``u`` is a formal unit-direction symbol (the Frobenius eigenvalue α̂)
    whose valuation is the formal slope symbol ``s``; ``pexp`` is an
    ``MPoly``, affine in formal symbols such as k.  Zero is represented by
    coeff = 0.
    """

    __slots__ = ("coeff", "upow", "pexp")

    def __init__(self, coeff: Scalar = 1, upow: int = 0, pexp: Union[MPoly, Scalar] = 0):
        coeff = _as_q(coeff)
        pexp = _coerce_poly(pexp)
        if pexp is NotImplemented:
            raise TypeError("the exponent of p must be an MPoly, an integer or a Fraction")
        if coeff == 0:
            upow = 0
            pexp = _ZERO
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "upow", int(upow))
        object.__setattr__(self, "pexp", pexp)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ValuedScalar is immutable")

    @staticmethod
    def one() -> "ValuedScalar":
        return ValuedScalar(1)

    @staticmethod
    def p_power(e: Union[MPoly, Scalar]) -> "ValuedScalar":
        return ValuedScalar(1, 0, e)

    @staticmethod
    def unit(power: int = 1) -> "ValuedScalar":
        return ValuedScalar(1, power, 0)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return ValuedScalar(self.coeff * _as_q(other), self.upow, self.pexp)
        if not isinstance(other, ValuedScalar):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ValuedScalar(0)
        return ValuedScalar(self.coeff * other.coeff, self.upow + other.upow, self.pexp + other.pexp)

    __rmul__ = __mul__

    def inv(self) -> "ValuedScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return ValuedScalar(Q(1) / self.coeff, -self.upow, -self.pexp)

    def __truediv__(self, other):
        if isinstance(other, (int, Q)):
            return ValuedScalar(self.coeff / _as_q(other), self.upow, self.pexp)
        if not isinstance(other, ValuedScalar):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        if self.is_zero():
            if n <= 0:
                raise ZeroDivisionError("0 to a nonpositive power")
            return ValuedScalar(0)
        return ValuedScalar(self.coeff ** n, self.upow * n, self.pexp * n)

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            other = ValuedScalar(other)
        if not isinstance(other, ValuedScalar):
            return NotImplemented
        return (
            self.coeff == other.coeff
            and self.upow == other.upow
            and self.pexp == other.pexp
        )

    def __hash__(self):
        return hash((self.coeff, self.upow, self.pexp))

    def valuation(self, slope_symbol: str = "s") -> MPoly:
        """p-adic valuation as an affine polynomial; v(u) = s."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        return self.pexp + MPoly.var(slope_symbol) * self.upow

    def valuation_at(self, assignment: Mapping[str, Scalar], slope: Scalar) -> Q:
        if self.is_zero():
            raise ValueError("valuation of zero")
        full = dict(assignment)
        full.setdefault("s", slope)
        return self.valuation("s").eval(full)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: List[str] = []
        if self.coeff != 1 or (self.upow == 0 and self.pexp.is_zero()):
            parts.append(str(self.coeff))
        if not self.pexp.is_zero():
            e = str(self.pexp)
            parts.append(f"p^({e})" if (self.pexp.vars or "/" in e or "-" in e) else f"p^{e}")
        if self.upow:
            parts.append("ahat" if self.upow == 1 else f"ahat^{self.upow}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"ValuedScalar({self})"
