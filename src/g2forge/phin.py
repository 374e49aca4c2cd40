"""Filtered (phi, N)-modules over a p-adically valued coefficient field:
Newton/Hodge polygons, weak admissibility by submodule enumeration, the
four-dimensional extension family E(B, c) with its injectivity argument, the
monodromy obstruction solver on Frobenius eigenvalue lists, the symmetric
square Fil^0 intersection test, and the eigenvalue distinctness ledger.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations, product
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .algebra import MPoly, RFrac, SymMatrix, ValuedScalar, _coerce_entry, affine_bounds_on_cone, row_reduce

K = MPoly.var("k")
P = ValuedScalar.p_power(1)
ALPHA_HAT = ValuedScalar.unit(1)


class Polygon:
    """Convex polygon from (0,0) with nondecreasing rational slopes."""

    def __init__(self, slopes: Sequence[Q]):
        slopes = [Q(s) for s in slopes]
        if any(b < a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("polygon slopes must be nondecreasing")
        self.slopes = tuple(slopes)

    @property
    def vertices(self) -> List[Tuple[int, Q]]:
        out = [(0, Q(0))]
        y = Q(0)
        for i, s in enumerate(self.slopes):
            y += s
            out.append((i + 1, y))
        return out

    @property
    def endpoint(self) -> Tuple[int, Q]:
        return self.vertices[-1]

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.slopes == other.slopes

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
    exponent_values/slope: numeric values for the formal exponent symbols and
    for the valuation of the formal unit.
    """

    def __init__(
        self,
        phi_diag: Sequence[ValuedScalar],
        n_op: SymMatrix,
        fil: Sequence[Tuple[int, SymMatrix]],
        exponent_values: Optional[Mapping[str, Q]] = None,
        slope: Q = Q(0),
    ):
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
        self.exponent_values = dict(exponent_values or {})
        self.slope = Q(slope)

    def fil_jumps(self) -> List[int]:
        """Jump multiset: jump j with multiplicity dim Fil^j − dim Fil^(next)."""
        out = []
        dims = self._fil_dims + [0]
        for (j, _), d, d_next in zip(self.fil, dims, dims[1:]):
            out.extend([j] * (d - d_next))
        return out

    def valuations(self) -> List[Q]:
        return [
            v.valuation_at(self.exponent_values, self.slope) for v in self.phi_diag
        ]

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
    return Polygon(sorted(-Q(j) for j in m.fil_jumps()))


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
            if any(not m.n_op[i, j].is_zero() for j in subset for i in outside):
                continue
            dims = [
                d - len(row_reduce([list(f.row(i)) for i in outside], f.cols, reduced=False))
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


def _fil_at(m: PhiNModule, j) -> Optional[SymMatrix]:
    """The filtration subspace at position j (None when zero): the stored step
    with the smallest jump >= j, or the full space when j precedes the flag."""
    for jj, f in m.fil:
        if jj >= j:
            return f
    return None


def _keep_last_of_equal_rank(
    entries: List[Tuple[int, SymMatrix, int]]
) -> List[Tuple[int, SymMatrix]]:
    """Of consecutive candidate jumps carrying the same subspace, the jump
    multiset drops at the last one; keep only those."""
    out = []
    for idx, (j, mat, rank) in enumerate(entries):
        next_rank = entries[idx + 1][2] if idx + 1 < len(entries) else 0
        if rank > next_rank:
            out.append((j, mat))
    return out


def direct_sum(a: PhiNModule, b: PhiNModule) -> PhiNModule:
    if a.exponent_values != b.exponent_values or a.slope != b.slope:
        raise ValueError("summands must share exponent values and slope")
    total = a.dim + b.dim
    n_rows = [[0] * total for _ in range(total)]
    for i in range(a.dim):
        for j in range(a.dim):
            n_rows[i][j] = a.n_op[i, j]
    for i in range(b.dim):
        for j in range(b.dim):
            n_rows[a.dim + i][a.dim + j] = b.n_op[i, j]
    n = SymMatrix(n_rows)
    jumps = sorted({j for j, _ in a.fil} | {j for j, _ in b.fil})
    candidates = []
    for j in jumps:
        fa = _fil_at(a, j)
        fb = _fil_at(b, j)
        cols = [[] for _ in range(total)]
        if fa is not None:
            for i in range(total):
                cols[i].extend(
                    fa[i, c] if i < a.dim else 0 for c in range(fa.cols)
                )
        if fb is not None:
            for i in range(total):
                cols[i].extend(
                    fb[i - a.dim, c] if i >= a.dim else 0 for c in range(fb.cols)
                )
        if not cols[0]:
            continue
        mat = SymMatrix(cols)
        candidates.append((j, mat, mat.rank()))
    return PhiNModule(
        a.phi_diag + b.phi_diag,
        n,
        _keep_last_of_equal_rank(candidates),
        a.exponent_values,
        a.slope,
    )


def tensor(a: PhiNModule, b: PhiNModule) -> PhiNModule:
    """Tensor product: eigenvalues multiply, N acts by the Leibniz rule, and
    the filtration is the convolution of the two flags."""
    if a.exponent_values != b.exponent_values or a.slope != b.slope:
        raise ValueError("factors must share exponent values and slope")
    dim = a.dim * b.dim
    phi = tuple(
        a.phi_diag[i] * b.phi_diag[j] for i in range(a.dim) for j in range(b.dim)
    )
    n_rows = [[0] * dim for _ in range(dim)]
    for i in range(a.dim):
        for j in range(b.dim):
            col = i * b.dim + j
            for i2 in range(a.dim):
                if not a.n_op[i2, i].is_zero():
                    n_rows[i2 * b.dim + j][col] = n_rows[i2 * b.dim + j][col] + a.n_op[i2, i]
            for j2 in range(b.dim):
                if not b.n_op[j2, j].is_zero():
                    n_rows[i * b.dim + j2][col] = n_rows[i * b.dim + j2][col] + b.n_op[j2, j]
    n = SymMatrix(n_rows)

    def kron_cols(fa: SymMatrix, fb: SymMatrix) -> List[List[RFrac]]:
        rows = []
        for i in range(a.dim):
            for j in range(b.dim):
                row = []
                for ca in range(fa.cols):
                    for cb in range(fb.cols):
                        row.append(fa[i, ca] * fb[j, cb])
                rows.append(row)
        return rows

    jump_sums = sorted(
        {ja + jb for ja, _ in a.fil for jb, _ in b.fil}
    )
    candidates = []
    for j in jump_sums:
        # Fil^j(tensor) = sum over x of F_a(x) (x) F_b(j-x); the sup terms sit
        # at the step boundaries x = j - jb for stored jumps jb of b.
        rows = None
        for jb, fb in b.fil:
            fa = _fil_at(a, j - jb)
            if fa is None:
                continue
            piece = kron_cols(fa, fb)
            rows = piece if rows is None else [r1 + r2 for r1, r2 in zip(rows, piece)]
        if rows is None:
            continue
        mat = SymMatrix(rows)
        rank = mat.rank()
        if rank == 0:
            continue
        candidates.append((j, mat, rank))
    return PhiNModule(
        phi, n, _keep_last_of_equal_rank(candidates), a.exponent_values, a.slope
    )


# ---------------------------------------------------------------------------
# The weight-k rank-2 module and the E(B, c) family


def d_st_jumps(k):
    """The filtration jumps (0, k - 1) of d_st; k is an integer or K."""
    return (0, k - 1)


def d_st(k: int, sp: Q) -> PhiNModule:
    """Rank-2 module of an eigenform of weight k and Frobenius slope sp:
    geometric eigenvalues (unit^{-1}, p^{1-k} unit), jumps {0, k-1}, with the
    filtration line generic with respect to the eigenbasis."""
    if k < 2:
        raise ValueError("weight must be at least 2")
    phi = (ALPHA_HAT.inv(), ValuedScalar.p_power(1 - K) * ALPHA_HAT)
    n = SymMatrix.zero(2, 2)
    steps = (SymMatrix.identity(2), SymMatrix([[1], [1]]))
    return PhiNModule(phi, n, list(zip(d_st_jumps(k), steps)), {"k": Q(k)}, Q(sp))


# The window k >= 2, 0 <= sp <= (k - 1)/2 of d_st as a cone in the (k, sp)
# plane: vertices (2, 0), (2, 1/2) and rays (1, 0), (2, 1).
RANK2_WINDOW_VERTICES = ({"k": 2, "sp": 0}, {"k": 2, "sp": Q(1, 2)})
RANK2_WINDOW_RAYS = ({"k": 1, "sp": 0}, {"k": 2, "sp": 1})


def d_st_window_certificate() -> Tuple[bool, List[MPoly]]:
    """(holds, margins): weak admissibility of d_st over its whole window.
    N and the steps of d_st do not depend on (k, sp), so with symbolic
    valuations and jumps the margins are affine in (k, sp); it holds when the
    full-space margin is 0 and every other margin is >= 0 on the cone."""
    m = d_st(2, Q(0))
    valuations = [v.valuation("sp") for v in m.phi_diag]
    margins = admissibility_margins(m, valuations, d_st_jumps(K))
    lows = [affine_bounds_on_cone(x, RANK2_WINDOW_VERTICES, RANK2_WINDOW_RAYS)[0] for x in margins[1:]]
    return margins[0].is_zero() and all(lo is not None and lo >= 0 for lo in lows), margins


def _transport_B(b: SymMatrix) -> SymMatrix:
    """Conjugate the 2x2 block B from the displayed basis into the eigenbasis:
    V B V^{-1} with V = [[1,1],[1,0]], whose columns are the displayed basis
    w = e1 + e2 (the filtration vector, generic) and w' = e1."""
    v = SymMatrix([[1, 1], [1, 0]])
    return v * b * v.inverse()


# Frobenius of E(B, c) in its eigenbasis: sub (e1, e2) p^-1 d_st, quotient (e3, e4) d_st.
EBC_FROBENIUS = (
    ValuedScalar.p_power(-1) * ALPHA_HAT.inv(),
    ValuedScalar.p_power(-K) * ALPHA_HAT,
    ALPHA_HAT.inv(),
    ValuedScalar.p_power(1 - K) * ALPHA_HAT,
)


def build_EBc(b: SymMatrix, c, k: int, sp: Q) -> PhiNModule:
    """The four-dimensional extension with N = ((0,B),(0,0)), Frobenius
    diag(p^{-1}A, A), and the five-case filtration with jumps {0,1,k-1,k}.

    Constructed in the Frobenius eigenbasis, with the displayed filtration
    vectors transported through the generic basis (w, w') = (e1+e2, e1).
    """
    if k < 4 or k % 2 != 0:
        raise ValueError("weight must be even and at least 4")
    if b.rows != 2 or b.cols != 2:
        raise ValueError("B must be 2x2")
    c = _coerce_entry(c)
    nb = _transport_B(b)
    n = SymMatrix(
        [
            [0, 0, nb[0, 0], nb[0, 1]],
            [0, 0, nb[1, 0], nb[1, 1]],
            [0] * 4,
            [0] * 4,
        ]
    )
    # displayed filtration vectors in eigen coordinates:
    # v1 = e1+e2, v2 = e1, v3 = e3+e4, c v2 + v3 = c e1 + e3 + e4
    fil = [
        (0, SymMatrix.identity(4)),
        (1, SymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])),
        (k - 1, SymMatrix([[1, c], [1, 0], [0, 1], [0, 1]])),
        (k, SymMatrix([[1], [1], [0], [0]])),
    ]
    return PhiNModule(EBC_FROBENIUS, n, fil, {"k": Q(k)}, Q(sp))


def phi_relation_defect(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """In the displayed basis, phi = ((p^{-1}A, 0), (0, A)) and
    N = ((0,B),(0,0)) give phi^{-1} N phi - p N = ((0, p(A^{-1}BA - B)),(0,0));
    returns the 2x2 block p(A^{-1}BA - B), which vanishes iff AB = BA."""
    p = RFrac.var("p")
    return p * (a.inverse() * b * a - b)


class EBcPair(NamedTuple):
    b: SymMatrix
    c: RFrac


def ebc_distinguish(pair1: EBcPair, pair2: EBcPair) -> bool:
    """True iff E(B, c) and E(B', c') are non-isomorphic as extensions.

    In the eigenbasis an extension isomorphism is psi = ((I, M), (0, I)), and
    Frobenius equivariance needs M_ij = 0 unless sub eigenvalue i equals
    quotient eigenvalue j.  No such pair can coincide (else `_inequation`
    raises), so psi = I and the modules are isomorphic iff their filtration
    steps span the same spaces and their N agree; as none of these depends on
    (k, sp) beyond the jump labels, weight 4 decides every weight."""
    m1, m2 = (build_EBc(b, c, 4, Q(1)) for b, c in (pair1, pair2))
    for sub, quotient in product(m1.phi_diag[:2], m1.phi_diag[2:]):
        _inequation(sub, quotient, K)
    same_steps = all(
        len(row_reduce([list(f1.row(i)) + list(f2.row(i)) for i in range(4)], f1.cols + f2.cols, reduced=False))
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
    coeff: Q

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
        return Constraint(m, 1 - ratio.pexp, Q(1) / ratio.coeff)
    return Constraint(-m, ratio.pexp - 1, ratio.coeff)


def monodromy_obstruction(eigenvalues: Sequence[ValuedScalar]) -> Dict[str, object]:
    """For each ordered pair (i, j) classify the relation lambda_i = p lambda_j
    required for a nonzero monodromy operator to map the j-eigenline onto the
    i-eigenline.  The distinguished constraint set collects the pairs whose
    target is an eigenvalue equal to 1 (the crystalline line a nonzero N must
    move); if that set is empty and no unconditional pair targets it, N = 0 is
    forced."""
    n = len(eigenvalues)
    table: Dict[Tuple[int, int], object] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            table[(i + 1, j + 1)] = _pair_status(eigenvalues[i] / eigenvalues[j])
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


def sym2_fil0_test(a: RFrac, b: RFrac) -> bool:
    """In the basis (w11, w12, w22) of the symmetric square, the line spanned
    by a^2 w11 + 2ab w12 + b^2 w22 meets Fil^0 = span(w11, w12) trivially iff
    the w22-coordinate b^2 is nonzero."""
    a = _coerce_entry(a)
    b = _coerce_entry(b)
    vector = (a * a, 2 * (a * b), b * b)
    if all(x.is_zero() for x in vector):
        raise ValueError("zero vector spans no line")
    return not (b * b).is_zero()


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
