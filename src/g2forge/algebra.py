"""Exact scalar, polynomial, rational-function and matrix arithmetic.

Everything here is immutable after construction and exact, so results are
deterministic.  Polynomial coefficients are ``int`` while integral and
``fractions.Fraction`` only when they are not, and so are the coefficients of
valued scalars; scalars handed out of the kernel by ``eval`` are always
``Fraction``.  ``quotient`` divides two such scalars exactly into
the same stored form, since ``int / int`` would give a float.

A polynomial is a dict from packed monomials to coefficients.  One
process-wide, append-only registry numbers the variable names in the order
they are first seen, and a monomial is one ``int`` that holds the exponent
of variable i in the field of ``_W`` bits at offset i*``_W``.  A product of
monomials is one integer addition, and a variable a polynomial does not use
is a zero field, so operands never need aligning.  The top bit of each field
is a guard: exponents are at most ``_MAX_EXP``, and a product that would go
past that raises ``OverflowError`` rather than carry into a neighbouring
variable.  An ``RFrac`` key is signed: field i adds e·2^(i*``_W``) for an
exponent e in [-64, 63], so a product is still one addition.  A key is in
range iff adding ``_LBIAS``, 64 in every field, sets no guard bit, and an
in-range key has a negative field iff it shares a bit with ``_LBIAS``.

The canonical text form (lexicographic term order over the variables sorted
by name) is what golden files and JSON reports serialize.  It decodes the
keys into exponent tuples over the sorted names, so neither it nor any
normal form depends on the order in which names were registered.  An
integral coefficient prints, compares and hashes as the equal ``Fraction``
would, so the text form does not depend on the coefficient representation
either.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import reduce as _reduce
from itertools import compress
from operator import add, and_ as _and, itemgetter, lshift, or_ as _or, sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Exponents = Tuple[int, ...]
Scalar = Union[int, Q]

_is_int = int.__instancecheck__   # isinstance(c, int), callable from map() in C
_new = object.__new__

_W = 8                            # bits per exponent field: one byte, read by int.to_bytes
_FIELD = (1 << _W) - 1
_MAX_EXP = (1 << (_W - 1)) - 1    # the largest exponent; the field's top bit is the guard
_NAMES: List[str] = []            # variable index -> name, append-only
_INDEX: Dict[str, int] = {}       # name -> variable index
_GUARD = 0                        # the top bit of every registered field
_LMIN = -(1 << (_W - 2))          # the least exponent of a signed field: -64
_LBIAS = 0                        # -_LMIN in every registered field


def _intern(name: str) -> int:
    """The registry index of ``name``, registering it on first sight."""
    global _GUARD, _LBIAS
    i = _INDEX.get(name)
    if i is None:
        i = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
        _GUARD |= 1 << (i * _W + _W - 1)
        _LBIAS |= -_LMIN << (i * _W)
    return i


def _layout(used: int) -> Tuple[Tuple[str, ...], List[int]]:
    """The names of the nonzero fields of ``used``, sorted, and the index of
    each of those fields."""
    names = sorted(compress(_NAMES, used.to_bytes((used.bit_length() + 7) // 8, "little")))
    return tuple(names), list(map(_INDEX.__getitem__, names))


def _unpack(terms: Mapping[int, Scalar], fields: Sequence[int]) -> Dict[Exponents, Scalar]:
    """``terms`` keyed by exponent tuples, read from the given fields of
    each key, where no other field is nonzero."""
    if len(fields) > 1:
        pick = itemgetter(*fields)
        n = max(fields) + 1
        return {pick(k.to_bytes(n, "little")): c for k, c in terms.items()}
    if fields:
        s = fields[0] * _W
        return {(k >> s,): c for k, c in terms.items()}
    return {(): c for c in terms.values()}


def _overflow(bias: int = 0) -> OverflowError:
    """The error for a key out of range, signed where ``bias`` is nonzero."""
    if bias:
        return OverflowError(f"exponent outside [{_LMIN}, {-_LMIN - 1}], the range of a signed {_W}-bit field")
    return OverflowError(f"exponent above {_MAX_EXP}, the largest a {_W}-bit monomial field holds")


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


def quotient(a, b):
    """The exact quotient a / b.  Two ints or Fractions give the stored form
    of ``_coef`` (``int / int`` would give a float); a polynomial or rational
    function ``a`` divides as itself."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    if isinstance(a, (int, Q)) and isinstance(b, (int, Q)):
        return _coef(Q(a, b))
    return a / b


class _Immutable:
    """The base of the value types: attribute assignment raises, so
    constructors set slots through their descriptors or
    ``object.__setattr__``; ``repr`` is the type name around the text form."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class MPoly(_Immutable):
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps packed monomials (see the module docstring) to nonzero
    coefficients: an ``int`` when the coefficient is integral, a
    ``Fraction`` when it is not.  It is the only stored form and it is
    canonical, so ``==`` and ``hash`` read it directly.  ``vars`` is derived:
    the sorted names of the variables in use.  ``MPoly(vars, terms)`` builds
    from exponent tuples over ``vars``, and ``decoded()`` gives the tuples
    back over the sorted names.

    The operand rule, shared with ``RFrac``: an operator (``+ - * / ==``
    and the reflected forms) takes its own type or a scalar, which is what
    ``_coef`` accepts, an ``int`` (``bool`` included) or a ``Fraction``, and
    returns ``NotImplemented`` for anything else.  Arithmetic never mixes
    ``MPoly`` with ``RFrac``, so ``p / q`` raises ``TypeError``;
    ``RFrac(p)`` is the one conversion.  ``==`` with an ``RFrac`` is the
    value answer, which ``RFrac.__eq__`` gives.

    ``+``, ``-``, ``*`` and ``**`` work on the keys.  A monomial product is
    one addition, and each product is checked against the guard bits once.
    A sum keeps the keys of both operands, so it needs no used-variable
    scan: a variable that cancels out is simply a zero field.  A scalar is
    never made a polynomial: a sum or difference adds it to the constant
    term, and a product or quotient scales the coefficients, keeping them
    ``int`` while they are integral.  ``_product``, shared with ``RFrac``,
    multiplies two polynomials: a one-term factor shifts every key of the
    other by the same amount, which keeps distinct keys distinct, and any
    other product adds every monomial product into one dict.  So does a
    whole sum of products Σ c·p·q, ``sum_of_products``, with no
    intermediate polynomial per product, sum or difference.
    ``bilinear`` is the same accumulation for the value of a constant
    bilinear form at two rows, Σ c·u[i]·v[j].
    ``subs`` returns the polynomial itself when it mentions none of the
    assigned variables.  ``eval`` sums c·∏vᵉ over the terms, and needs an
    ``int`` or ``Fraction`` value for every variable in use.
    The text form and ``divexact`` decode the keys over the sorted names.
    """

    __slots__ = ("terms",)

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Scalar]):
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable name in {tuple(vars)}")
        shifts = [_intern(v) * _W for v in vars]
        packed: Dict[int, Scalar] = {}
        for e, c in terms.items():
            if len(e) != len(shifts):
                raise ValueError(f"exponents {e} do not match the variables {tuple(vars)}")
            c = _coef(c)
            if not c:
                continue
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            if any(x > _MAX_EXP for x in e):
                raise _overflow()
            packed[sum(map(lshift, e, shifts))] = c
        _set_terms(self, packed)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "MPoly":
        c = _coef(c)
        if c == 0:
            return _ZERO
        if c == 1:
            return _ONE
        return _poly({0: c})

    @staticmethod
    def var(name: str) -> "MPoly":
        return _poly({1 << (_intern(name) * _W): 1})

    @staticmethod
    def zero() -> "MPoly":
        return _ZERO

    @staticmethod
    def one() -> "MPoly":
        return _ONE

    @staticmethod
    def sum_of_products(triples: Iterable[Tuple[Scalar, "MPoly", "MPoly"]]) -> "MPoly":
        """Σ c·p·q over the ``(c, p, q)`` triples, ``c`` an integer or a
        ``Fraction``.  Every monomial product goes straight into one dict, so
        no intermediate polynomial is built and a triple with a zero factor
        costs nothing.  The result is stored as the naive expression stores
        it, and a monomial product past ``_MAX_EXP`` raises
        ``OverflowError``."""
        out: Dict[int, Scalar] = {}
        get = out.get
        for c, p, q in triples:
            a, b = p.terms, q.terms
            if not a or not b or not c:
                continue
            for k1, c1 in a.items():
                c1 *= c
                for k2, c2 in b.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        out = _accumulated(out)
        return _poly(out) if out else _ZERO

    @staticmethod
    def bilinear(form: Iterable[Tuple[Scalar, int, int]], u: Sequence["MPoly"], v: Sequence["MPoly"]) -> "MPoly":
        """Σ c·u[i]·v[j] over the ``(c, i, j)`` terms of ``form``: the value
        at the rows ``u`` and ``v`` of a bilinear form with constant entries,
        ``c`` a nonzero integer or ``Fraction``.  It accumulates as
        ``sum_of_products`` does, into one dict, and stores and guards the
        result the same way."""
        out: Dict[int, Scalar] = {}
        get = out.get
        for c, i, j in form:
            a, b = u[i].terms, v[j].terms
            if not a or not b:
                continue
            for k1, c1 in a.items():
                c1 *= c
                for k2, c2 in b.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        out = _accumulated(out)
        return _poly(out) if out else _ZERO

    # -- basic queries -------------------------------------------------

    @property
    def vars(self) -> Tuple[str, ...]:
        """The sorted names of the variables in use."""
        return _layout(_reduce(_or, self.terms, 0))[0]

    def decoded(self) -> Tuple[Tuple[str, ...], Dict[Exponents, Scalar]]:
        """``(vars, terms)`` with each monomial as its exponent tuple over
        ``vars``, the sorted names in use."""
        names, fields = _layout(_reduce(_or, self.terms, 0))
        return names, _unpack(self.terms, fields)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not any(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not MPoly:
            if not isinstance(other, (int, Q)):
                return NotImplemented
            # A scalar adds to the constant term.
            if not other:
                return self
            if not self.terms:
                return MPoly.const(other)
            out = _plus(self.terms, other)
        else:
            if not other.terms:
                return self
            if not self.terms:
                return other
            out = _merged(self.terms, other.terms)
        return _poly(out) if out else _ZERO

    __radd__ = __add__

    def __neg__(self):
        p = _new(MPoly)
        _set_terms(p, {k: -c for k, c in self.terms.items()})
        return p

    def __sub__(self, other):
        if type(other) is not MPoly:
            if not isinstance(other, (int, Q)):
                return NotImplemented
            return self + -other
        if not other.terms:
            return self
        out = _merged(self.terms, other.terms, negate=True)
        return _poly(out) if out else _ZERO

    def __rsub__(self, other):
        if not isinstance(other, (int, Q)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if type(other) is not MPoly:
            if not isinstance(other, (int, Q)):
                return NotImplemented
            # A scalar is a constant factor.
            if not other or not self.terms:
                return _ZERO
            return self if other == 1 else _poly(_scaled(self.terms, other))
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        out = _product(a, b, 0)
        if out is a or out is b:
            return self if out is a else other
        p = _new(MPoly)
        _set_terms(p, out)
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, n, _ONE)

    def __truediv__(self, other):
        # Over a field, a polynomial divided by a nonzero scalar is a polynomial.
        if not isinstance(other, (int, Q)):
            return NotImplemented
        return self * (1 / Q(other))

    def __eq__(self, other):
        if type(other) is MPoly:
            return self.terms == other.terms
        if isinstance(other, (int, Q)):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- substitution / evaluation --------------------------------------

    def eval(self, assignment: Mapping[str, Scalar]) -> Q:
        """Exact evaluation: the sum of c·∏vᵉ over the terms.  A variable in
        use with no value raises ``ValueError``, and a value that is not an
        ``int`` or ``Fraction`` ``TypeError``; other names are ignored."""
        used = _reduce(_or, self.terms, 0)
        hits = []
        for name, value in assignment.items():
            i = _INDEX.get(name)
            if i is not None and used >> (i * _W) & _FIELD:
                hits.append((i * _W, _coef(value)))
                used &= ~(_FIELD << (i * _W))
        if used:
            raise ValueError(f"missing assignment for variable '{_layout(used)[0][0]}'")
        total = 0
        for k, c in self.terms.items():
            for s, v in hits:
                e = k >> s & _FIELD
                if e:
                    c = c * v ** e
            total += c
        return Q(total)

    def subs(self, assignment: Mapping[str, Union[Scalar, "MPoly"]]) -> "MPoly":
        """Substitute polynomials (or rationals) for some variables.

        The program substitutes only scalars, into ``RFrac`` values, whose
        scalar lane is their own; ``RFrac.subs`` passes polynomial values,
        as the lattice tests do for ``d``, to this one."""
        used = _reduce(_or, self.terms, 0)
        if not used:
            return self
        hits = []
        for name, value in assignment.items():
            i = _INDEX.get(name)
            if i is not None and used >> (i * _W) & _FIELD:
                hits.append((i * _W, value))
        if not hits:
            return self
        out: MPoly = _ZERO
        for k, c in self.terms.items():
            factors = []
            for s, v in hits:
                e = k >> s & _FIELD
                if e:
                    k -= e << s
                    factors.append((v if isinstance(v, MPoly) else MPoly.const(v)) ** e)
            term = _poly({k: c})
            for f in factors:
                term = term * f
            out = out + term
        return out

    def divexact(self, divisor: "MPoly") -> Optional["MPoly"]:
        """Return self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return _ZERO
        # Long division in lex order over the sorted names of both operands,
        # on exponent tuples.
        _, fields = _layout(_reduce(_or, self.terms, 0) | _reduce(_or, divisor.terms, 0))
        rem = _unpack(self.terms, fields)
        div_terms = _unpack(divisor.terms, fields)
        shifts = [i * _W for i in fields]
        div_lead = max(div_terms)
        div_lc = div_terms[div_lead]
        quot: Dict[int, Scalar] = {}
        while rem:
            lead = max(rem)
            qe = tuple(map(sub, lead, div_lead))
            if any(x < 0 for x in qe):
                return None
            # Fraction division: int / int would give a float.
            qc = _coef(Q(rem[lead], div_lc))
            # Each step cancels the leading term of rem and adds only smaller
            # ones, so every quotient exponent is new.
            quot[sum(map(lshift, qe, shifts))] = qc
            for e, c in div_terms.items():
                t = tuple(map(add, qe, e))
                s = rem.get(t, 0) - qc * c
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return _poly(quot)

    # -- serialization ---------------------------------------------------

    def __str__(self) -> str:
        return _text(self.terms)


# The slot setter, which gets past the guard of _Immutable.__setattr__.
_set_terms = MPoly.terms.__set__


def _poly(terms: Dict[int, Scalar]) -> MPoly:
    """The ``MPoly`` of canonical packed ``terms``.  ``+``, ``-`` and ``*``
    inline its two calls."""
    p = _new(MPoly)
    _set_terms(p, terms)
    return p


def _text(terms: Dict[int, Scalar]) -> str:
    """The text form of packed ``terms``, in lex order over the sorted names."""
    if not terms:
        return "0"
    names, fields = _layout(_reduce(_or, terms, 0))
    terms = _unpack(terms, fields)
    pieces: List[str] = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mono = "*".join((v if k == 1 else f"{v}^{k}") for v, k in zip(names, e) if k)
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


def _accumulated(out: Dict[int, Scalar], bias: int = 0) -> Dict[int, Scalar]:
    """The terms of a dict that sums of monomial products were added into:
    zero coefficients dropped, integral ones stored as ``int``, and
    ``OverflowError`` if a key sets a guard bit once ``bias`` is added."""
    if not out:
        return out
    # Each field of a sum of two in-range keys lies within twice the range,
    # so the lowest field out of range sets its guard bit once biased.
    if _reduce(_or, map(bias.__add__, out) if bias else out) & _GUARD:
        raise _overflow(bias)
    if not all(out.values()):
        out = {k: c for k, c in out.items() if c}
    if not all(map(_is_int, out.values())):
        out = {k: _coef(c) for k, c in out.items()}
    return out


def _product(a: Dict[int, Scalar], b: Dict[int, Scalar], bias: int) -> Dict[int, Scalar]:
    """The terms of a·b for nonzero ``a`` and ``b``, for ``MPoly`` (``bias``
    0) and ``RFrac`` (``bias`` ``_LBIAS``) alike, each key checked against
    the guard bits once biased.  A one-term factor goes first, 1 by
    preference, and 1 gives the other dict itself."""
    if len(b) == 1 and (len(a) != 1 or 0 in b and b[0] == 1):
        a, b = b, a
    if len(a) != 1:
        out: Dict[int, Scalar] = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return _accumulated(out, bias)
    ((k1, c1),) = a.items()
    if not k1:
        return b if c1 == 1 else _scaled(b, c1)
    if len(b) == 1:
        ((k2, c2),) = b.items()
        k = k1 + k2
        if (k + bias) & _GUARD:
            raise _overflow(bias)
        c = c1 * c2
        return {k: c if type(c) is int else _coef(c)}
    # A one-term factor shifts every key of the other by k1, so no two
    # products collide.
    out = {k1 + k: c1 * c for k, c in b.items()}
    if _reduce(_or, map(bias.__add__, out) if bias else out) & _GUARD:
        raise _overflow(bias)
    if not all(map(_is_int, out.values())):
        out = {k: _coef(c) for k, c in out.items()}
    return out


def _scaled(terms: Dict[int, Scalar], c: Scalar) -> Dict[int, Scalar]:
    """The terms of ``terms`` times the nonzero scalar ``c``, for ``MPoly``
    and ``RFrac`` alike."""
    out = {k: x * c for k, x in terms.items()}
    if not all(map(_is_int, out.values())):
        out = {k: _coef(x) for k, x in out.items()}
    return out


def _plus(terms: Dict[int, Scalar], c: Scalar) -> Dict[int, Scalar]:
    """The terms of ``terms`` plus the nonzero scalar ``c``, for ``MPoly``
    and ``RFrac`` alike: ``c`` added to the constant term."""
    out = dict(terms)
    s = out.pop(0, 0) + c
    if s:
        out[0] = _coef(s)
    return out


def _merged(a: Dict[int, Scalar], b: Dict[int, Scalar], negate: bool = False) -> Dict[int, Scalar]:
    """The terms of a + b, or a - b, for ``MPoly`` and ``RFrac`` alike: the
    other dict merged into a copy of one, the larger for a sum."""
    if not negate and len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, c in b.items():
        if negate:
            c = -c
        s = out.get(k)
        if s is None:
            out[k] = c
            continue
        s += c
        if s:
            out[k] = s if type(s) is int else _coef(s)
        else:
            del out[k]
    return out


def _power(x, n: int, one):
    """x ** n for an integer n >= 0, by repeated squaring from ``one``."""
    if n == 1:
        return x
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x if n > 1 else x
        n >>= 1
    return result


def _coerce_poly(x):
    if isinstance(x, MPoly):
        return x
    if isinstance(x, (int, Q)):
        return MPoly.const(x)
    return NotImplemented


_ZERO = _poly({})
_ONE = _poly({0: 1})


def affine_bounds_on_cone(
    f: MPoly, vertices: Sequence[Mapping[str, Scalar]], rays: Sequence[Mapping[str, Scalar]]
) -> Tuple[Optional[Q], Optional[Q]]:
    """Exact (min, max) of an affine ``f`` on conv(vertices) + cone(rays),
    points given as {variable: value}, ``None`` for an unbounded side.  Every
    point is a convex combination of vertices plus a nonnegative combination
    of rays (Minkowski–Weyl), so the extremes sit at vertices unless a ray
    slope of ``f`` points the other way."""
    if any(sum(e) > 1 for e in f.decoded()[1]):
        raise ValueError(f"{f} is not affine")
    constant = f.terms.get(0, 0)
    values = [f.eval(v) for v in vertices]
    slopes = [f.eval(r) - constant for r in rays]
    lo = min(values) if all(s >= 0 for s in slopes) else None
    hi = max(values) if all(s <= 0 for s in slopes) else None
    return lo, hi


class RFrac(_Immutable):
    """A Laurent polynomial: a rational function over a one-term denominator,
    as are the entries of the torus, Weyl representatives and root subgroups.

    ``terms`` stores it as ``MPoly`` stores a polynomial, over signed keys
    (see the module docstring), and is the unique normal form: ``==``
    compares it, with an ``MPoly`` too, and nothing normalises.  A
    polynomial's keys are signed keys, so ``RFrac(p)`` shares ``p.terms``.
    Nothing hashes an ``RFrac``.  ``den``, the monic monomial that clears
    the negative exponents, and ``num``, the value times ``den``, are
    derived; the text form is num/den.

    The operand rule is ``MPoly``'s, ``RFrac(p)`` the one conversion.  ``+``
    and ``-`` merge the dicts and ``*`` is the term product as ``MPoly``
    has them, each key of a product checked against the signed range; a
    product with 1 is the other operand.  ``inv`` negates the key of a
    one-term value, and ``RFrac(f, g)`` subtracts the key of a one-term
    ``g`` from those of ``f``, checking only the quotient's keys.  For a
    nonzero ``g`` of more terms, ``g.inv()``, ``f / g`` and ``RFrac(f, g)``
    raise ``ArithmeticError`` in ``_one_term``, even where the quotient is
    a Laurent polynomial.
    ``subs`` evaluates scalars on the keys, raising ``ZeroDivisionError``
    for a zero at a negative exponent, substitutes polynomials into ``num``
    and ``den``, and returns the function itself when no assigned variable
    occurs.
    """

    __slots__ = ("terms",)

    def __init__(self, num, den=None):
        terms = _polynomial(num).terms
        if den is not None:
            den = _polynomial(den)
            if not den:
                raise ZeroDivisionError("RFrac denominator is zero")
            m, d = _one_term(den)
            d = 1 / Q(d)
            terms = {k - m: _coef(c * d) for k, c in terms.items()}
        # A field of a part is in [0, 127] and one of the quotient in
        # [-127, 127], so the lowest one out of range sets its guard bit
        # once biased.
        if _reduce(_or, map(_LBIAS.__add__, terms), 0) & _GUARD:
            raise _overflow(_LBIAS)
        _set_laurent(self, terms)

    @staticmethod
    def const(c) -> "RFrac":
        c = _coef(c)
        return R_ZERO if not c else R_ONE if c == 1 else _rfrac({0: c})

    @staticmethod
    def var(name: str) -> "RFrac":
        return _rfrac({1 << (_intern(name) * _W): 1})

    @property
    def num(self) -> MPoly:
        """The value times ``den``, a polynomial."""
        return _poly(self._cleared()[0]) if self.terms else _ZERO

    @property
    def den(self) -> MPoly:
        """The monic monomial that clears the negative exponents."""
        m = self._cleared()[1]
        return _poly({m: 1}) if m else _ONE

    def _cleared(self) -> Tuple[Dict[int, Scalar], int]:
        """(terms times m, key of m) for m the least monomial that clears the
        negative exponents, which clear the bias bit of a biased field."""
        terms, bias = self.terms, _LBIAS
        if not _reduce(_or, terms, 0) & bias:
            return terms, 0
        negative = bias & ~_reduce(_and, map(bias.__add__, terms), bias)
        m = 0
        while negative:
            top = negative.bit_length() - 1
            negative ^= 1 << top
            s = top // _W * _W
            m += (-_LMIN - min([(k + bias) >> s & _FIELD for k in terms])) << s
        return {k + m: c for k, c in terms.items()}, m

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not RFrac:
            if not isinstance(other, (int, Q)):
                return NotImplemented
            # A scalar adds to the constant term.
            if not other:
                return self
            if not self.terms:
                return RFrac.const(other)
            out = _plus(self.terms, other)
        else:
            if not other.terms:
                return self
            if not self.terms:
                return other
            out = _merged(self.terms, other.terms)
        return _rfrac(out) if out else R_ZERO

    __radd__ = __add__

    def __neg__(self):
        return _rfrac({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not RFrac:
            if not isinstance(other, (int, Q)):
                return NotImplemented
            return self + -other
        if not other.terms:
            return self
        out = _merged(self.terms, other.terms, negate=True)
        return _rfrac(out) if out else R_ZERO

    def __rsub__(self, other):
        if not isinstance(other, (int, Q)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if type(other) is not RFrac:
            if not isinstance(other, (int, Q)):
                return NotImplemented
            # A scalar is a constant factor.
            if not other or not self.terms:
                return R_ZERO
            return self if other == 1 else _rfrac(_scaled(self.terms, other))
        a, b = self.terms, other.terms
        if not a or not b:
            return R_ZERO
        out = _product(a, b, _LBIAS)
        if out is a or out is b:
            return self if out is a else other
        f = _new(RFrac)
        _set_laurent(f, out)
        return f

    __rmul__ = __mul__

    def inv(self) -> "RFrac":
        """The negated key over the inverse coefficient, ±1 staying ``int``."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero rational function")
        k, c = _one_term(self)
        if (_LBIAS - k) & _GUARD:
            raise _overflow(_LBIAS)
        return _rfrac({-k: c if c == 1 or c == -1 else _coef(1 / Q(c))})

    def __truediv__(self, other):
        if type(other) is not RFrac:
            if not isinstance(other, (int, Q)):
                return NotImplemented
            return self * (1 / Q(other))
        if not other.terms:
            raise ZeroDivisionError("division by zero rational function")
        return self * other.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        return self.inv() ** -n if n < 0 else _power(self, n, R_ONE)

    def __eq__(self, other):
        if type(other) is RFrac or type(other) is MPoly:
            return self.terms == other.terms
        if isinstance(other, (int, Q)):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def subs(self, assignment: Mapping[str, Union[Scalar, MPoly]]) -> "RFrac":
        terms, bias = self.terms, _LBIAS
        # A biased field differs from the bias exactly where its exponent is nonzero.
        used = _reduce(_or, [(k + bias) ^ bias for k in terms], 0)
        hits = []
        for name, value in assignment.items():
            i = _INDEX.get(name)
            if i is not None and used >> (i * _W) & _FIELD:
                hits.append((i * _W, value))
        if not hits:
            return self
        if not all(isinstance(v, (int, Q)) for _, v in hits):
            return RFrac(self.num.subs(assignment), self.den.subs(assignment))
        # Scalars only: evaluate the assigned fields of each key.
        out: Dict[int, Scalar] = {}
        for k, c in terms.items():
            for s, v in hits:
                e = ((k + bias) >> s & _FIELD) + _LMIN
                if e > 0:
                    c = c * v ** e
                elif e:
                    if not v:
                        raise ZeroDivisionError("RFrac denominator is zero")
                    c = c * Q(v) ** e
                k -= e << s
            out[k] = out.get(k, 0) + c
        out = {k: _coef(c) for k, c in out.items() if c}
        return _rfrac(out) if out else R_ZERO

    def __str__(self) -> str:
        terms, m = self._cleared()
        num = _text(terms)
        if not m:
            return num
        den = _text({m: 1})
        return f"{f'({num})' if len(terms) > 1 else num}/{f'({den})' if '*' in den else den}"


# The slot setter, which gets past the guard of _Immutable.__setattr__.
_set_laurent = RFrac.terms.__set__


def _rfrac(terms: Dict[int, Scalar]) -> RFrac:
    """The ``RFrac`` of canonical signed ``terms``."""
    f = _new(RFrac)
    _set_laurent(f, terms)
    return f


def _polynomial(x) -> MPoly:
    """``x``, an ``MPoly`` or a scalar, as an ``MPoly``: a part of ``RFrac(num, den)``."""
    p = x if type(x) is MPoly else _coerce_poly(x)
    if p is NotImplemented:
        raise TypeError(f"cannot build RFrac from {type(x).__name__}")
    return p


def _one_term(f) -> Tuple[int, Scalar]:
    """The key and coefficient of ``f``, a nonzero ``MPoly`` or ``RFrac``
    divisor: the one place a divisor of more than one term is refused."""
    if len(f.terms) != 1:
        raise ArithmeticError(f"1/({f}) has a denominator of more than one term")
    ((k, c),) = f.terms.items()
    return k, c


def _coerce_entry(x) -> RFrac:
    """``x`` as an ``RFrac`` at the boundary of the matrix and form
    constructors: an ``RFrac``, an ``MPoly`` or a scalar."""
    if isinstance(x, RFrac):
        return x
    if isinstance(x, MPoly):
        return RFrac(x)
    if isinstance(x, (int, Q)):
        return RFrac.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


R_ZERO = _rfrac({})
R_ONE = _rfrac({0: 1})


Row = Dict[int, RFrac]


class SymMatrix(_Immutable):
    """Matrix over RFrac.  All matrices in scope are small (≤ 21×21).

    ``nonzero`` holds one ``{column: entry}`` dict per row with the nonzero
    entries only, every column in ``range(cols)``: most matrices here are
    monomial or unipotent, so nearly every entry is zero.  It is the only
    stored form and it is canonical, so ``==`` compares the dicts and
    ``is_zero`` asks whether any row has an entry.  ``m[i, j]``, ``row``,
    ``col`` and ``entries`` are dense reads derived from it, with the
    indexing rules of a tuple of tuples.

    The constructor coerces the entries that are not ``RFrac`` yet, checks
    the shape and drops the zeros.  Results of matrix operations are built
    by ``_matrix`` from row dicts that are already canonical, which skips
    all three.  Every operation walks the row dicts: a product visits the
    nonzero entries of both factors, and ``+``, ``-``, ``scale`` and
    ``subs`` drop the entries that vanish.

    ``rank`` and ``inverse`` share the echelon form of ``row_reduce`` on
    copies of the row dicts; ``inverse`` then back-substitutes.  ``det`` is
    a division-free expansion by minors.
    """

    __slots__ = ("rows", "cols", "nonzero")

    def __init__(self, entries: Sequence[Sequence]):
        data = tuple(tuple(x if type(x) is RFrac else _coerce_entry(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged matrix rows")
        _set_rows(self, len(data))
        _set_cols(self, len(data[0]))
        _set_nonzero(self, tuple({j: x for j, x in enumerate(row) if x.terms} for row in data))

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        if n < 1:
            raise ValueError("matrix must be nonempty")
        return _matrix(tuple({i: R_ONE} for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "SymMatrix":
        if rows < 1 or cols < 1:
            raise ValueError("matrix must be nonempty")
        return _matrix(tuple({} for _ in range(rows)), cols)

    @staticmethod
    def diagonal(values: Sequence) -> "SymMatrix":
        vals = [_coerce_entry(v) for v in values]
        if not vals:
            raise ValueError("matrix must be nonempty")
        return _matrix(tuple({i: x} if x.terms else {} for i, x in enumerate(vals)), len(vals))

    def __getitem__(self, key: Tuple[int, int]) -> RFrac:
        i, j = key
        return self.nonzero[i].get(range(self.cols)[j], R_ZERO)

    def row(self, i: int) -> Tuple[RFrac, ...]:
        get = self.nonzero[i].get
        return tuple(get(j, R_ZERO) for j in range(self.cols))

    def col(self, j: int) -> Tuple[RFrac, ...]:
        j = range(self.cols)[j]
        return tuple(row.get(j, R_ZERO) for row in self.nonzero)

    @property
    def entries(self) -> Tuple[Tuple[RFrac, ...], ...]:
        """The dense rows, zeros included."""
        return tuple(map(self.row, range(self.rows)))

    def __mul__(self, other):
        """The matrix product; a scalar multiple is ``scale``."""
        if not isinstance(other, SymMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) * ({other.rows}x{other.cols})"
            )
        # The normal form is unique (see RFrac), so the order in which an
        # entry sums its products does not change it.  A product of two
        # nonzero entries is nonzero, so only a sum can cancel.
        right = other.nonzero
        out = []
        for row in self.nonzero:
            acc: Row = {}
            cancelled = False
            for k, a in row.items():
                for j, b in right[k].items():
                    s = acc.get(j)
                    if s is None:
                        acc[j] = a * b
                    else:
                        s = acc[j] = s + a * b
                        if not s.terms:
                            cancelled = True
            out.append({j: s for j, s in acc.items() if s.terms} if cancelled else acc)
        return _matrix(tuple(out), other.cols)

    def scale(self, scalar) -> "SymMatrix":
        # Checked here, since a matrix with no entries multiplies none.
        if not isinstance(scalar, (int, Q, MPoly, RFrac)):
            raise TypeError(f"cannot scale a matrix by {type(scalar).__name__}")
        return _matrix(tuple(_nonzero((j, scalar * x) for j, x in row.items()) for row in self.nonzero), self.cols)

    def _entrywise(self, other, negate: bool):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) and ({other.rows}x{other.cols})"
            )
        out = []
        for r1, r2 in zip(self.nonzero, other.nonzero):
            row = dict(r1)
            for j, b in r2.items():
                _add_to(row, j, -b if negate else b)
            out.append(row)
        return _matrix(tuple(out), self.cols)

    def __add__(self, other):
        return self._entrywise(other, False)

    def __sub__(self, other):
        return self._entrywise(other, True)

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.nonzero == other.nonzero

    def is_zero(self) -> bool:
        return not any(self.nonzero)

    def subs(self, assignment: Mapping[str, Union[Scalar, MPoly]]) -> "SymMatrix":
        return _matrix(
            tuple(_nonzero((j, x.subs(assignment)) for j, x in row.items()) for row in self.nonzero), self.cols
        )

    def det(self) -> RFrac:
        """Expansion by minors along the rows, over each row's nonzero
        entries only.  A minor keeps the last k rows, k the number of its
        columns, so the bitmask of its columns alone keys its memo: at most
        n·2^n products and no division, since sums over one-term
        denominators need none (see ``RFrac``).  The sign of a column is
        the parity of the minor's columns below it."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        rows = [[(1 << j, x) for j, x in row.items()] for row in self.nonzero]
        memo = {0: R_ONE}

        def minor(cols: int) -> RFrac:
            out = memo.get(cols)
            if out is None:
                out = R_ZERO
                for bit, x in rows[n - cols.bit_count()]:
                    if cols & bit:
                        term = x * minor(cols ^ bit)
                        out = out - term if (cols & (bit - 1)).bit_count() & 1 else out + term
                memo[cols] = out
            return out

        return minor((1 << n) - 1)

    def rank(self) -> int:
        """Rank over the rational-function field (exact Gaussian elimination)."""
        return len(row_reduce(list(map(dict, self.nonzero)), self.cols))

    def inverse(self) -> "SymMatrix":
        """Back-substitution on the echelon form of ``row_reduce``; a pivot
        of more than one term, which ``inv`` refuses, raises
        ``ArithmeticError``.  The program inverts only matrices whose pivots
        are all units, one-term Laurent polynomials."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        m = [{**row, n + i: R_ONE} for i, row in enumerate(self.nonzero)]
        if len(row_reduce(m, n)) < n:
            raise ValueError("matrix is singular")
        # Row r holds the pivot of column r.  From the last pivot up, scale the
        # pivot row to a leading 1 and clear its column from the rows above.
        for r in range(n - 1, -1, -1):
            inv = m[r][r].inv()
            support = m[r] = {j: inv * b for j, b in m[r].items()}
            for above in m[:r]:
                lead = above.get(r)
                if lead is not None:
                    lead = -lead
                    for j, b in support.items():
                        _add_to(above, j, lead * b)
        return _matrix(tuple({j - n: x for j, x in row.items() if j >= n} for row in m), n)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.entries) + "]"


_set_rows = SymMatrix.rows.__set__
_set_cols = SymMatrix.cols.__set__
_set_nonzero = SymMatrix.nonzero.__set__


def _matrix(rows: Tuple[Row, ...], cols: int) -> SymMatrix:
    """The ``SymMatrix`` of ``rows``, a nonempty tuple of row dicts of
    nonzero ``RFrac`` entries with columns in ``range(cols)``, unchecked.
    ``cols`` may be 0, which gives a matrix with no columns."""
    m = _new(SymMatrix)
    _set_rows(m, len(rows))
    _set_cols(m, cols)
    _set_nonzero(m, rows)
    return m


def _nonzero(items: Iterable[Tuple[int, RFrac]]) -> Row:
    """The row dict of the ``(column, entry)`` pairs whose entry is nonzero."""
    return {j: x for j, x in items if x.terms}


def _add_to(row: Row, j: int, x: RFrac) -> None:
    """Add the nonzero ``x`` to entry ``j`` of the row dict ``row`` in
    place, dropping the entry if the sum vanishes."""
    a = row.get(j)
    if a is None:
        row[j] = x
    else:
        a = a + x
        if a.terms:
            row[j] = a
        else:
            del row[j]


def row_reduce(rows: List[Row], ncols: int) -> List[int]:
    """Bring ``rows``, a list of ``{column: entry}`` dicts of nonzero
    entries, to echelon form in place on their first ``ncols`` columns and
    return the pivot columns.  Row i then holds the pivot of column
    ``pivots[i]``, unscaled, with no entry below it or before it; the rows
    past ``len(pivots)`` have no entry in the first ``ncols`` columns.  The
    dicts are updated in place, so callers pass copies of stored rows.

    The pivot of a column is its first entry of one term (a unit) at or
    below the next pivot row, which clears the rows below by
    row_i - (l/p)·row_p, and otherwise its first nonzero entry p, which
    clears them by cross-multiplication, row_i <- p·row_i - l·row_p.  No
    pivot of more than one term is inverted, and neither step changes the
    rank.  A row update touches only the columns of the pivot row's
    entries, and drops the entries that cancel.
    """
    n = len(rows)
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == n:
            break
        p = None
        for i in range(r, n):
            x = rows[i].get(col)
            if x is not None:
                if len(x.terms) == 1:
                    p = i
                    break
                if p is None:
                    p = i
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot_row = rows[r]
        pivot = pivot_row[col]
        inv = pivot.inv() if len(pivot.terms) == 1 else None
        for i in range(r + 1, n):
            row = rows[i]
            lead = row.get(col)
            if lead is None:
                continue
            if inv is None:
                # A product of two nonzero entries is nonzero.
                row = rows[i] = {j: pivot * a for j, a in row.items()}
                factor = -lead
            else:
                factor = -(lead * inv)
            for j, b in pivot_row.items():
                _add_to(row, j, factor * b)
        pivots.append(col)
    return pivots


class ValuedScalar(_Immutable):
    """A monomial coeff · p^pexp · u^upow over a p-adically valued field.

    ``u`` is a formal unit-direction symbol (the Frobenius eigenvalue α̂)
    whose valuation is the formal slope symbol ``sp``; ``pexp`` is an
    ``MPoly``, affine in formal symbols such as k.  ``coeff`` is stored as a
    polynomial coefficient is: an ``int`` while it is integral, a
    ``Fraction`` when it is not, and a float raises ``TypeError``.  Zero is
    represented by coeff = 0.  Products, quotients and ``==`` take two valued
    scalars; nothing hashes one, so it defines no hash.
    """

    __slots__ = ("coeff", "upow", "pexp")

    def __init__(self, coeff: Scalar = 1, upow: int = 0, pexp: Union[MPoly, Scalar] = 0):
        coeff = _coef(coeff)
        pexp = _coerce_poly(pexp)
        if pexp is NotImplemented:
            raise TypeError("the exponent of p must be an MPoly, an integer or a Fraction")
        if coeff == 0:
            upow = 0
            pexp = _ZERO
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "upow", int(upow))
        object.__setattr__(self, "pexp", pexp)

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
        if not isinstance(other, ValuedScalar):
            return NotImplemented
        return ValuedScalar(self.coeff * other.coeff, self.upow + other.upow, self.pexp + other.pexp)

    def inv(self) -> "ValuedScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return ValuedScalar(quotient(1, self.coeff), -self.upow, -self.pexp)

    def __truediv__(self, other):
        if not isinstance(other, ValuedScalar):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        # A Fraction base keeps a negative power exact; 0 to one raises
        # ZeroDivisionError.
        return ValuedScalar(Q(self.coeff) ** n, self.upow * n, self.pexp * n)

    def __eq__(self, other):
        if not isinstance(other, ValuedScalar):
            return NotImplemented
        return (
            self.coeff == other.coeff
            and self.upow == other.upow
            and self.pexp == other.pexp
        )

    def valuation(self) -> MPoly:
        """p-adic valuation as an affine polynomial; v(u) = sp."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        return self.pexp + MPoly.var("sp") * self.upow

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: List[str] = []
        if self.coeff != 1 or (self.upow == 0 and self.pexp.is_zero()):
            parts.append(str(self.coeff))
        if not self.pexp.is_zero():
            e = str(self.pexp)
            parts.append(f"p^({e})" if (not self.pexp.is_const() or "/" in e or "-" in e) else f"p^{e}")
        if self.upow:
            parts.append("ahat" if self.upow == 1 else f"ahat^{self.upow}")
        return "*".join(parts)
