"""Filtered (phi, N)-modules over a p-adically valued coefficient field:
Newton/Hodge polygons, weak admissibility by submodule enumeration, the
four-dimensional extension family E(B, c) with its injectivity argument,
direct sums and tensor products, the monodromy obstruction solver on Frobenius eigenvalue lists, the symmetric
square Fil^0 intersection test, and the eigenvalue distinctness ledger.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations, product
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple, Union

from .algebra import (
    MPoly, RFrac, Scalar, SymMatrix, ValuedScalar, _coef, _coerce_entry, _matrix, affine_bounds_on_cone, quotient,
    row_reduce,
)

K = MPoly.var("k")
P = ValuedScalar.p_power(1)
ALPHA_HAT = ValuedScalar.unit(1)


class Polygon:
    """Convex polygon from (0,0) with nondecreasing rational slopes."""

    def __init__(self, slopes: Sequence[Scalar]):
        slopes = tuple(slopes)
        if any(b < a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("polygon slopes must be nondecreasing")
        self.slopes = slopes

    @property
    def vertices(self) -> List[Tuple[int, Scalar]]:
        out = [(0, 0)]
        y = 0
        for i, s in enumerate(self.slopes):
            y += s
            out.append((i + 1, y))
        return out

    @property
    def endpoint(self) -> Tuple[int, Scalar]:
        return self.vertices[-1]

    def __repr__(self):
        return f"Polygon(slopes={list(self.slopes)})"

    def to_dict(self) -> Dict[str, object]:
        return {"vertices": [[x, str(y)] for x, y in self.vertices]}


class PhiNModule:
    """A filtered module with diagonal Frobenius, a nilpotent operator, and a
    decreasing filtration flag.

    phi_diag: the Frobenius eigenvalues (the basis is an eigenbasis).
    n_op: matrix of the nilpotent operator in the same basis.
    fil: pairs (jump, column-span matrix), strictly increasing jumps, strictly
    decreasing subspaces, first pair the full space at the lowest jump.
    point: the values {"k": k, "sp": sp} of the weight symbol k and of the
    slope symbol sp (the valuation of the formal unit) at which the
    valuations of phi_diag are read; each is an int or a Fraction.
    """

    def __init__(
        self,
        phi_diag: Sequence[ValuedScalar],
        n_op: SymMatrix,
        fil: Sequence[Tuple[int, SymMatrix]],
        point: Mapping[str, Scalar],
    ):
        self.point = {name: _coef(x) for name, x in point.items()}
        self.dim = len(phi_diag)
        if any(v.is_zero() for v in phi_diag):
            raise ValueError("Frobenius must be invertible")
        self.phi_diag = tuple(phi_diag)
        if n_op.rows != self.dim or n_op.cols != self.dim:
            raise ValueError("nilpotent operator has wrong shape")
        power = n_op
        for _ in range(self.dim - 1):
            power = power * n_op
        if not power.is_zero():
            raise ValueError("operator is not nilpotent")
        self.n_op = n_op
        fil = list(fil)
        jumps = [j for j, _ in fil]
        if jumps != sorted(jumps) or len(set(jumps)) != len(jumps):
            raise ValueError("filtration jumps must be strictly increasing")
        dims = [f.rank() for _, f in fil]
        if dims[0] != self.dim:
            raise ValueError("first filtration step must be the full space")
        if any(b >= a for a, b in zip(dims, dims[1:])):
            raise ValueError("filtration subspaces must strictly decrease")
        self.fil = tuple(fil)
        self._fil_dims = dims

    def fil_jumps(self) -> List[int]:
        """Jump multiset: jump j with multiplicity dim Fil^j − dim Fil^(next)."""
        out = []
        dims = self._fil_dims + [0]
        for (j, _), d, d_next in zip(self.fil, dims, dims[1:]):
            out.extend([j] * (d - d_next))
        return out

    def valuations(self) -> List[Q]:
        return [v.valuation().eval(self.point) for v in self.phi_diag]

    def phi_relation_report(self) -> Dict[str, object]:
        """Check phi^{-1} N phi = p N entrywise: each nonzero entry of N needs
        the eigenvalue ratio lambda_j / lambda_i to equal p."""
        ok = True
        constraints = []
        for i in range(self.dim):
            for j in range(self.dim):
                if self.n_op[i, j].is_zero():
                    continue
                ratio = self.phi_diag[j] / self.phi_diag[i]
                if ratio == P:
                    continue
                ok = False
                constraints.append(f"entry ({i+1},{j+1}) needs ratio {ratio} = p")
        return {"holds": ok, "violations": constraints}


def newton_polygon(m: PhiNModule) -> Polygon:
    return Polygon(sorted(m.valuations()))


def hodge_polygon(m: PhiNModule) -> Polygon:
    return Polygon(sorted(-j for j in m.fil_jumps()))


def admissibility_margins(m: PhiNModule, valuations: Sequence, jumps: Sequence) -> List:
    """t_N - t_H in arithmetic signs for the full space, then for each
    proper eigen-coordinate subset closed under N, from the eigenvalue
    valuations and the jumps of the stored steps (numbers or affine
    polynomials).  For W spanned by unit vectors,
    dim(W ∩ F) = dim F - rank(rows of F outside W)."""
    if m.dim > 4:
        raise ValueError("submodule enumeration implemented for dim <= 4 only")
    for i, j in combinations(range(m.dim), 2):
        if m.phi_diag[i] == m.phi_diag[j]:
            raise ValueError(
                f"degenerate eigenvalue configuration: positions {i+1} and "
                f"{j+1} coincide; submodule enumeration would be incomplete"
            )
    out = []
    for r in (m.dim, *range(1, m.dim)):
        for subset in combinations(range(m.dim), r):
            outside = [i for i in range(m.dim) if i not in subset]
            if any(j in m.n_op.nonzero[i] for j in subset for i in outside):
                continue
            dims = [
                d - len(row_reduce([dict(f.nonzero[i]) for i in outside], f.cols))
                for (_, f), d in zip(m.fil, m._fil_dims)
            ] + [0]
            t_hodge = sum(j * (d - d_next) for j, d, d_next in zip(jumps, dims, dims[1:]))
            out.append(-sum(valuations[i] for i in subset) - t_hodge)
    return out


def is_admissible(m: PhiNModule) -> bool:
    """Weak admissibility (Colmez–Fontaine): t_H = t_N on the whole module
    and t_H <= t_N on every phi,N-stable subspace."""
    margins = admissibility_margins(m, m.valuations(), [j for j, _ in m.fil])
    return margins[0] == 0 and all(x >= 0 for x in margins[1:])


def _fil_at(m: PhiNModule, j) -> SymMatrix:
    """The filtration subspace at position j as a column span: the stored
    step with the smallest jump >= j (the full space when j precedes the
    flag), or a matrix with no columns past the flag."""
    for jj, f in m.fil:
        if jj >= j:
            return f
    return _matrix(tuple({} for _ in range(m.dim)), 0)


def _flag(candidates: Sequence[Tuple[int, SymMatrix]], jumps: Sequence[int]) -> List[Tuple[int, SymMatrix]]:
    """The steps of a flag from (jump, subspace) candidates in increasing
    jump order, given the jump multiset of the flag they span: the subspace
    at jump j has dimension #{x in jumps : x >= j}.  Of consecutive
    candidates of the same dimension the jump multiset drops at the last, so
    only it is kept, and zero ones go."""
    dims = [sum(x >= j for x in jumps) for j, _ in candidates] + [0]
    return [c for c, r, r_next in zip(candidates, dims, dims[1:]) if r > r_next]


def _kron(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    """The Kronecker product: entry (i y.rows + r, j y.cols + c) is x_ij y_rc,
    nonzero exactly where both factors are."""
    n = y.cols
    return _matrix(
        tuple(
            {j * n + c: a * b for j, a in xrow.items() for c, b in yrow.items()}
            for xrow in x.nonzero for yrow in y.nonzero
        ),
        x.cols * n,
    )


def _hstack(pieces: Sequence[SymMatrix]) -> List[Dict[int, RFrac]]:
    """The rows of (p1 | p2 | ...) for pieces with equal row counts, as
    fresh row dicts."""
    out: List[Dict[int, RFrac]] = [{} for _ in range(pieces[0].rows)]
    shift = 0
    for p in pieces:
        for row, part in zip(out, p.nonzero):
            for j, x in part.items():
                row[shift + j] = x
        shift += p.cols
    return out


def _block_diagonal(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    """((x, 0), (0, y))."""
    shift = x.cols
    lower = tuple({shift + j: v for j, v in row.items()} for row in y.nonzero)
    return _matrix(x.nonzero + lower, shift + y.cols)


def direct_sum(a: PhiNModule, b: PhiNModule) -> PhiNModule:
    """Direct sum: N and each filtration step are block-diagonal, and the
    jump multisets add."""
    if a.point != b.point:
        raise ValueError("summands must share the evaluation point")
    jumps = sorted({j for j, _ in a.fil} | {j for j, _ in b.fil})
    steps = [(j, _block_diagonal(_fil_at(a, j), _fil_at(b, j))) for j in jumps]
    flag = _flag(steps, a.fil_jumps() + b.fil_jumps())
    return PhiNModule(a.phi_diag + b.phi_diag, _block_diagonal(a.n_op, b.n_op), flag, a.point)


def tensor(a: PhiNModule, b: PhiNModule) -> PhiNModule:
    """Tensor product: eigenvalues multiply, N = N_a (x) 1 + 1 (x) N_b, and
    Fil^j = sum over x of F_a(x) (x) F_b(j - x), whose terms sit at the step
    boundaries x = j - jb for the stored jumps jb of b; gr^j is the sum over
    x of gr^x(a) (x) gr^(j - x)(b), so its jumps are the pairwise sums."""
    if a.point != b.point:
        raise ValueError("factors must share the evaluation point")
    phi = tuple(x * y for x in a.phi_diag for y in b.phi_diag)
    n = _kron(a.n_op, SymMatrix.identity(b.dim)) + _kron(SymMatrix.identity(a.dim), b.n_op)
    steps = []
    for j in sorted({ja + jb for ja, _ in a.fil for jb, _ in b.fil}):
        pieces = [_kron(_fil_at(a, j - jb), fb) for jb, fb in b.fil]
        steps.append((j, _matrix(tuple(_hstack(pieces)), sum(p.cols for p in pieces))))
    jumps = [x + y for x in a.fil_jumps() for y in b.fil_jumps()]
    return PhiNModule(phi, n, _flag(steps, jumps), a.point)


# ---------------------------------------------------------------------------
# The weight-k rank-2 module and the E(B, c) family


def d_st_jumps(k):
    """The filtration jumps (0, k - 1) of d_st; k is an integer or K."""
    return (0, k - 1)


def d_st(k: int, sp: Scalar) -> PhiNModule:
    """Rank-2 module of an eigenform of weight k and Frobenius slope sp:
    geometric eigenvalues (unit^{-1}, p^{1-k} unit), jumps {0, k-1}, with the
    filtration line generic with respect to the eigenbasis."""
    if k < 2:
        raise ValueError("weight must be at least 2")
    phi = (ALPHA_HAT.inv(), ValuedScalar.p_power(1 - K) * ALPHA_HAT)
    n = SymMatrix.zero(2, 2)
    steps = (SymMatrix.identity(2), SymMatrix([[1], [1]]))
    return PhiNModule(phi, n, list(zip(d_st_jumps(k), steps)), {"k": k, "sp": sp})


# The window k >= 2, 0 <= sp <= (k - 1)/2 of d_st as a cone in the (k, sp)
# plane: vertices (2, 0), (2, 1/2) and rays (1, 0), (2, 1).
RANK2_WINDOW_VERTICES = ({"k": 2, "sp": 0}, {"k": 2, "sp": Q(1, 2)})
RANK2_WINDOW_RAYS = ({"k": 1, "sp": 0}, {"k": 2, "sp": 1})


def d_st_window_certificate() -> Tuple[bool, List[MPoly]]:
    """(holds, margins): weak admissibility of d_st over its whole window.
    N and the steps of d_st do not depend on (k, sp), so with symbolic
    valuations and jumps the margins are affine in (k, sp); it holds when the
    full-space margin is 0 and every other margin is >= 0 on the cone."""
    m = d_st(2, 0)
    valuations = [v.valuation() for v in m.phi_diag]
    margins = admissibility_margins(m, valuations, d_st_jumps(K))
    lows = [affine_bounds_on_cone(x, RANK2_WINDOW_VERTICES, RANK2_WINDOW_RAYS)[0] for x in margins[1:]]
    return margins[0].is_zero() and all(lo is not None and lo >= 0 for lo in lows), margins


# The displayed basis (w, w') = (e1 + e2, e1) of the 2x2 block in eigen
# coordinates, as the columns of V, and V^{-1}: V B V^{-1} carries B from the
# displayed basis into the eigenbasis.
TRANSPORT_V = SymMatrix([[1, 1], [1, 0]])
TRANSPORT_V_INV = SymMatrix([[0, 1], [1, -1]])

# The filtration steps of E(B, c) in eigen coordinates that do not depend on
# c: the full space at jump 0, span(v1, v2, v3) at jump 1 and the line v1 at
# jump k, from the displayed vectors v1 = e1 + e2, v2 = e1, v3 = e3 + e4.
EBC_FIL_FULL = SymMatrix.identity(4)
EBC_FIL_1 = SymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
EBC_FIL_K = SymMatrix([[1], [1], [0], [0]])


# Frobenius of E(B, c) in its eigenbasis: sub (e1, e2) p^-1 d_st, quotient (e3, e4) d_st.
EBC_FROBENIUS = (
    ValuedScalar.p_power(-1) * ALPHA_HAT.inv(),
    ValuedScalar.p_power(-K) * ALPHA_HAT,
    ALPHA_HAT.inv(),
    ValuedScalar.p_power(1 - K) * ALPHA_HAT,
)


def build_EBc(b: SymMatrix, c, k: int, sp: Scalar) -> PhiNModule:
    """The four-dimensional extension with N = ((0,B),(0,0)), Frobenius
    diag(p^{-1}A, A), and the five-case filtration with jumps {0,1,k-1,k}.

    Constructed in the Frobenius eigenbasis, with the displayed filtration
    vectors transported through the generic basis (w, w') = (e1+e2, e1).
    """
    if k < 4 or k % 2 != 0:
        raise ValueError("weight must be even and at least 4")
    if b.rows != 2 or b.cols != 2:
        raise ValueError("B must be 2x2")
    nb = TRANSPORT_V * b * TRANSPORT_V_INV
    n = _matrix(tuple({2 + j: x for j, x in row.items()} for row in nb.nonzero) + ({}, {}), 4)
    # The step at jump k - 1 is span(v1, c v2 + v3), c v2 + v3 = c e1 + e3 + e4.
    fil = [
        (0, EBC_FIL_FULL),
        (1, EBC_FIL_1),
        (k - 1, SymMatrix([[1, c], [1, 0], [0, 1], [0, 1]])),
        (k, EBC_FIL_K),
    ]
    return PhiNModule(EBC_FROBENIUS, n, fil, {"k": k, "sp": sp})


def phi_relation_defect(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """In the displayed basis, phi = ((p^{-1}A, 0), (0, A)) and
    N = ((0,B),(0,0)) give phi^{-1} N phi - p N = ((0, p(A^{-1}BA - B)),(0,0));
    its block p(A^{-1}BA - B) vanishes iff AB = BA.  With
    A^{-1} = adj(A)/det(A) that block is (p/det A)(adj(A) B A - det(A) B), and
    this returns adj(A) B A - det(A) B: the nonzero scalar p/det(A) is
    dropped, which does not change whether the defect is zero."""
    if (a.rows, a.cols, b.rows, b.cols) != (2, 2, 2, 2):
        raise ValueError("A and B must be 2x2")
    adj = SymMatrix([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    return adj * b * a - b.scale(a.det())


def ebc_modules_differ(m1: PhiNModule, m2: PhiNModule) -> bool:
    """True iff two modules built by `build_EBc` at one weight are
    non-isomorphic as extensions.

    In the eigenbasis an extension isomorphism is psi = ((I, M), (0, I)), and
    Frobenius equivariance needs M_ij = 0 unless sub eigenvalue i equals
    quotient eigenvalue j.  No such pair can coincide (else `_inequation`
    raises), so psi = I and the modules are isomorphic iff their filtration
    steps span the same spaces and their N agree; as none of these depends on
    (k, sp) beyond the jump labels, one weight decides every weight."""
    for sub, quot in product(m1.phi_diag[:2], m1.phi_diag[2:]):
        _inequation(sub, quot, K)
    same_steps = all(
        len(row_reduce(_hstack((f1, f2)), f1.cols + f2.cols))
        == d1 == d2
        for (_, f1), (_, f2), d1, d2 in zip(m1.fil, m2.fil, m1._fil_dims, m2._fil_dims)
    )
    return not (same_steps and (m1.n_op - m2.n_op).is_zero())


# ---------------------------------------------------------------------------
# Monodromy obstruction on eigenvalue lists


class Constraint(NamedTuple):
    """The equation unit^power = coeff * p^exponent."""

    power: int
    exponent: MPoly
    coeff: Union[int, Q]

    def __str__(self):
        c = "" if self.coeff == 1 else f"{self.coeff} * "
        u = "unit" if self.power == 1 else f"unit^{self.power}"
        return f"{u} = {c}p^({self.exponent})"


def _pair_status(ratio: ValuedScalar):
    """Classify the requirement ratio = p: 'unconditional', 'impossible', or a
    Constraint on the formal unit."""
    if ratio == P:
        return "unconditional"
    if ratio.upow == 0:
        return "impossible"
    m = ratio.upow
    if m > 0:
        # coeff p^E u^m = p  =>  u^m = (1/coeff) p^{1-E}
        return Constraint(m, 1 - ratio.pexp, quotient(1, ratio.coeff))
    return Constraint(-m, ratio.pexp - 1, ratio.coeff)


def monodromy_obstruction(eigenvalues: Sequence[ValuedScalar]) -> Dict[str, object]:
    """For each ordered pair (i, j) classify the relation lambda_i = p lambda_j
    required for a nonzero monodromy operator to map the j-eigenline onto the
    i-eigenline.  The distinguished constraint set collects the pairs whose
    target is an eigenvalue equal to 1 (the crystalline line a nonzero N must
    move); if that set is empty and no unconditional pair targets it, N = 0 is
    forced."""
    n = len(eigenvalues)
    # Each eigenvalue is inverted once.  With two or more, each one divides
    # some pair, so a zero one raises ZeroDivisionError as a quotient would.
    inverses = [v.inv() for v in eigenvalues] if n > 1 else []
    table: Dict[Tuple[int, int], object] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            table[(i + 1, j + 1)] = _pair_status(eigenvalues[i] * inverses[j])
    unconditional = sorted(k for k, v in table.items() if v == "unconditional")
    ones = [i for i, v in enumerate(eigenvalues) if v == ValuedScalar.one()]
    distinguished = frozenset(
        v
        for (i, j), v in table.items()
        if isinstance(v, Constraint) and (j - 1) in ones
    )
    forced = not distinguished and not any((j - 1) in ones for (_, j) in unconditional)
    return {
        "unconditional_pairs": unconditional,
        "distinguished_constraints": distinguished,
        "n_forced_zero": forced,
    }


def five_dim_eigenvalues() -> Tuple[ValuedScalar, ...]:
    """Frobenius eigenvalues of the five-dimensional exterior-square block,
    with symbolic weight exponent k."""
    return (
        ValuedScalar.one(),
        ValuedScalar.p_power((3 * K - 2) / 2) * ALPHA_HAT.inv() ** 3,
        ValuedScalar.p_power(K / 2) * ALPHA_HAT.inv(),
        ValuedScalar.p_power(-(K - 2) / 2) * ALPHA_HAT,
        ValuedScalar.p_power(-(3 * K - 4) / 2) * ALPHA_HAT ** 3,
    )


def seven_dim_eigenvalues() -> Tuple[ValuedScalar, ...]:
    """Frobenius eigenvalue septuple of the seven-dimensional piece, symbolic
    in the weight exponent k."""
    return (
        ValuedScalar.p_power(-(K - 1)) * ALPHA_HAT ** 2,
        ValuedScalar.p_power(-(K - 2) / 2) * ALPHA_HAT,
        ValuedScalar.p_power(-K / 2) * ALPHA_HAT,
        ValuedScalar.one(),
        ValuedScalar.p_power(K / 2) * ALPHA_HAT.inv(),
        ValuedScalar.p_power((K - 2) / 2) * ALPHA_HAT.inv(),
        ValuedScalar.p_power(K - 1) * ALPHA_HAT.inv() ** 2,
    )


# ---------------------------------------------------------------------------
# Symmetric square Fil^0 test and distinctness ledger


# Fil^0 of the symmetric square: the coordinates of w11 and w12 in the basis
# (w11, w12, w22).
SYM2_FIL0 = (0, 1)


def sym2_fil0_test(a: RFrac, b: RFrac) -> bool:
    """The line spanned by a^2 w11 + 2ab w12 + b^2 w22 meets Fil^0 trivially
    iff one of its coordinates off ``SYM2_FIL0`` is nonzero."""
    a = _coerce_entry(a)
    b = _coerce_entry(b)
    vector = (a * a, 2 * (a * b), b * b)
    if all(x.is_zero() for x in vector):
        raise ValueError("zero vector spans no line")
    return any(not x.is_zero() for i, x in enumerate(vector) if i not in SYM2_FIL0)


class Inequation(NamedTuple):
    left: str
    right: str
    reduced: str
    justification: str


def _inequation(left: ValuedScalar, right: ValuedScalar, k) -> Tuple[str, str]:
    """(reduced form, justification) of left != right at weight k (an integer
    or K): 'trivial' for a ratio p^e with e a nonzero constant, 'assumption'
    for unit^2 = p^{k-1} (the no-double-root hypothesis), and 'valuation
    bound' for unit^m = p^e when |unit|^2 = p^{k-1} keeps the two sides a
    constant nonzero power of p apart.  Raises ValueError if they could meet."""
    ratio = left / right
    if ratio.upow == 0 and ratio.coeff == 1 and ratio.pexp.is_const() and not ratio.pexp.is_zero():
        return f"p^({ratio.pexp}) != 1", "trivial"
    if ratio.upow != 0:
        cons = _pair_status(ratio * P)  # ratio = 1 <=> ratio * p = p
        gap = cons.power * (k - 1) - 2 * cons.exponent
        if cons.coeff == 1 and cons.power == 2 and gap.is_zero():
            return str(cons), "assumption"
        if cons.coeff == 1 and gap.is_const() and not gap.is_zero():
            return str(cons), "valuation bound"
    raise ValueError(f"{left} and {right} could coincide")


def distinctness_check(k: int = None) -> List[Inequation]:
    """The six pairwise inequations among (unit, p^{k-1} unit^{-1}, p unit,
    p^k unit^{-1}), each with its justification from `_inequation`."""
    if k is not None and k < 2:
        raise ValueError("weight must be at least 2")
    kk = K if k is None else k
    items = [
        ("unit", ALPHA_HAT),
        ("p^(k-1) unit^-1", ValuedScalar.p_power(kk - 1) * ALPHA_HAT.inv()),
        ("p unit", P * ALPHA_HAT),
        ("p^k unit^-1", ValuedScalar.p_power(kk) * ALPHA_HAT.inv()),
    ]
    return [
        Inequation(name_i, name_j, *_inequation(vi, vj, kk))
        for (name_i, vi), (name_j, vj) in combinations(items, 2)
    ]
