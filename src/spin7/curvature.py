"""Algebraic curvature operators valued in a subalgebra.

A curvature operator here is a linear map on 2-forms, stored as the
images of the 28 coordinate 2-forms (`linalg` column form, keyed by the
index pairs (i, j) of `MultiVector.terms`), so an entry
R(e_i, e_j, e_k, e_l) is a lookup.  The module provides the cyclic sum of
the first Bianchi identity, read from the nonzero entries, with its
torsion-corrected form; Ricci contraction; the closed-form operators of
the classification; and two spaces of symmetric operators into a
subalgebra h.  Each space is a kernel over S^2(h) of a test that also
checks single operators: Bianchi space members kill the cyclic sum, and
the h-invariant operators, whose Ricci tensors form a family, kill the
commutators with the rotations from h.

The closed-form operators are one table, `CASES`, with a record per
subcase.  Its operator is a sum of weight blocks: fixed dyads
coeff * left * <right, .>, scaled by a weight c_lam * lam + c_kap * kap
that is linear in the Ricci diagonal (lam, kap) of the case's family,
hence quadratic in the family parameters.

The plain first Bianchi identity fails for a connection with parallel
skew torsion; its cyclic sum equals the associated 4-form instead.  That
corrected identity is the one the family operators satisfy, with the
proportionality constant pinned by the checks in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from . import linalg
from .exterior import Index, MultiVector, merge_sign, monomials, sigma_t
from .liealg import SPIN7_BASIS, algebra, rotation
from .scalars import ONE, ZERO, Scalar, ScalarLike, SQRT15, add_to, rational
from .structure import FAMILIES, Params, Ricci, TorsionFamily

Dyad = tuple[Scalar, MultiVector, MultiVector]


class CurvatureTensor:
    """Operator on 2-forms stored as its nonzero column images
    {m: R(e_m).terms} over the coordinate 2-forms e_m, m = (i, j)."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[Index, linalg.Row]):
        self.columns = {m: col for m, col in columns.items() if col}

    @classmethod
    def from_dyads(cls, pieces: Iterable[Dyad]) -> CurvatureTensor:
        """The operator sum c * left * <right, .> over the dyads."""
        columns: dict[Index, linalg.Row] = defaultdict(dict)
        for c, left, right in pieces:
            for m, rv in right.terms.items():
                weight = c * rv
                for n, lv in left.terms.items():
                    add_to(columns[m], n, weight * lv)
        return cls(columns)

    def apply(self, a: MultiVector) -> MultiVector:
        return MultiVector(linalg.apply(self.columns, a.terms))

    def entry(self, i: int, j: int, k: int, l: int) -> Scalar:
        """The 4-tensor value on basis vectors, R(e_i, e_j, e_k, e_l)."""
        (m, s), (n, t) = merge_sign((i,), (j,)), merge_sign((k,), (l,))
        if not (s and t):
            return ZERO
        value = self.columns.get(m, {}).get(n, ZERO)
        return value if s == t else -value

    def is_symmetric(self) -> bool:
        return linalg.transpose(self.columns) == self.columns

    @property
    def is_zero(self) -> bool:
        return not self.columns

    def range_inside(self, h: list[MultiVector]) -> bool:
        span = linalg.echelon([w.terms for w in h])
        return all(span.contains(col) for col in self.columns.values())

    def invariant_under(self, h: list[MultiVector]) -> bool:
        """Whether the operator commutes with the rotations from h."""
        return not any(_commutator(self.columns, _rotation(w)) for w in h)

    def ricci(self) -> Ricci:
        """The zero-free map {(x, y): Ric(e_x, e_y)} over x <= y, in
        ascending order, where Ric(X, Y) = sum_i R(e_i, X, Y, e_i).

        An entry c = R(e_a, e_b, e_c, e_d) enters at every index i shared
        by the pairs, with x and y the other index of each pair; the swaps
        that bring i to the front of (a, b) and to the back of (c, d)
        give its sign.
        """
        out: Ricci = {}
        for (a, b), col in self.columns.items():
            for (c, d), v in col.items():
                for i, x in ((a, b), (b, a)):
                    if i == c and x <= d:
                        add_to(out, (x, d), -v if i == a else v)
                    elif i == d and x <= c:
                        add_to(out, (x, c), v if i == a else -v)
        return {key: out[key] for key in sorted(out)}


def _commutator(r: dict[Index, linalg.Row],
                rot: dict[Index, linalg.Row]) -> dict[Index, linalg.Row]:
    """Zero-free columns of r o rot - rot o r, for two maps on 2-forms."""
    out = {}
    for m in monomials(2):
        col = linalg.apply(r, rot.get(m, {}))
        for n, v in linalg.apply(rot, r.get(m, {})).items():
            add_to(col, n, -v)
        if col:
            out[m] = col
    return out


@lru_cache(maxsize=None)
def _rotation(w: MultiVector) -> dict[Index, linalg.Row]:
    """The rotation of a member of a holonomy algebra on 2-forms, shared
    by every algebra that holds the member and never modified."""
    return rotation(w, 2)


def dyad(c: ScalarLike, left: MultiVector, right: MultiVector | None = None) -> Dyad:
    return Scalar.coerce(c), left, left if right is None else right


def cyclic_sum(r: CurvatureTensor) -> dict[Index, Scalar]:
    """The zero-free map {(i, j, k, v): sum_cyc R(e_i, e_j, e_k, e_v)}
    over i < j < k.

    An entry c = R(e_x, e_y, e_z, e_w) of column (x, y) enters the sum at
    the sorted triple of x, y, z with v = w, and, since
    R(e_x, e_y, e_w, e_z) = -c, at the sorted triple of x, y, w with v = z.
    The cyclic terms are the even orders of the triple, so each enters with
    the sign of sorting (x, y, third).
    """
    out: dict[Index, Scalar] = {}
    for m, col in r.columns.items():
        for (z, w), c in col.items():
            for third, v, value in ((z, w, c), (w, z, -c)):
                triple, sign = merge_sign(m, (third,))
                if sign:
                    add_to(out, triple + (v,), value if sign > 0 else -value)
    return out


def cyclic_residue(r: CurvatureTensor, t: MultiVector | None = None) -> bool:
    """Whether sum_cyc R(X, Y, Z, V) matches the 4-form of the torsion.

    With t omitted the plain first Bianchi identity is checked.  With a
    parallel torsion t the cyclic sum must equal sigma_t(t)(X, Y, Z, V),
    the coefficient of e_ijkv in the determinant convention; the constant
    in front is 1 in the conventions used here.
    """
    want: dict[Index, Scalar] = {}
    if t is not None:
        for q, c in sigma_t(t).terms.items():
            for pos, v in enumerate(q):
                triple = q[:pos] + q[pos + 1:]
                want[triple + (v,)] = c if merge_sign(triple, (v,))[1] > 0 else -c
    return cyclic_sum(r) == want


# ---------------------------------------------------------------------------
# the closed-form curvature operators of the classification

class Block(NamedTuple):
    """Dyads scaled by c_lam * lam + c_kap * kap, for the Ricci diagonal
    (lam, ..., lam, kap, ...) of the case's torsion family."""
    c_lam: Scalar
    c_kap: Scalar
    dyads: tuple[Dyad, ...]


class Case(NamedTuple):
    """A subcase: its torsion families (the second, if any, when a2 is
    assigned), the largest holonomy it serves, so the operator commutes
    with every admissible subalgebra, its blocks, and the parameters
    that must vanish."""
    families: tuple[str, ...]
    holonomy: str
    blocks: tuple[Block, ...]
    zero: tuple[str, ...] = ()


_P = SPIN7_BASIS
# the torus of the 14-dim algebra: e_12 - e_34 and e_12 + e_34 - 2 e_56
_TA, _TB = _P[6], _P[6] + 2 * _P[7]
# the squares of the irreducible so(3) basis, whose members have
# norm-sqrt(5/2) and sqrt(3/2) coefficients; the products stay inside
# the scalar field
_HALF15 = SQRT15 * rational(1, 2)
_SO3IR = (dyad(rational(5, 2), _P[4]), dyad(-_HALF15, _P[4], _P[9]),
          dyad(-_HALF15, _P[9], _P[4]), dyad(rational(3, 2), _P[9]),
          dyad(rational(5, 2), _P[5]), dyad(_HALF15, _P[5], _P[8]),
          dyad(_HALF15, _P[8], _P[5]), dyad(rational(3, 2), _P[8]),
          dyad(1, _P[6] + 3 * _P[7]))
_TORUS = (Block(rational(-1), rational(1, 4), (dyad(1, _TA),)),
          Block(ZERO, rational(-1, 4), (dyad(1, _TB),)))

CASES = {
    "5.1.1": Case(("5.1",), "r+su2c", (
        Block(rational(-1), rational(3, 8), (dyad(1, _TA),)),
        Block(ZERO, rational(-1, 8), (dyad(1, _TB), dyad(1, _P[12]), dyad(1, _P[13]))))),
    # at b1 = b2 = 0 the weight is -a1^2
    "5.1.2": Case(("5.1",), "so3ir", (Block(rational(-1, 12), ZERO, _SO3IR),),
                  zero=("b1", "b2")),
    "5.2.1": Case(("5.2-I", "5.2-II"), "so3", (Block(rational(-1, 2), ZERO, (
        dyad(rational(1, 2), _P[0] + _P[4]), dyad(rational(1, 2), _P[1] + _P[5]),
        dyad(1, _P[6] + _P[7]))),)),
    "5.2.2": Case(("5.2-I", "5.2-II"), "t2",
                  (Block(rational(-1, 4), ZERO, (dyad(3, _TA), dyad(1, _TB))),)),
    "5.3.1-I": Case(("5.3-I",), "t2", _TORUS),
    "5.3.1-II": Case(("5.3-II",), "t2", _TORUS),
}


def case_family(case: str, assignment: Params) -> TorsionFamily:
    """The torsion family of a case: its second family when it has one
    and the assignment sets a2, its first otherwise."""
    families = CASES[case].families
    return FAMILIES[families[-1] if "a2" in assignment else families[0]]


def case_weights(case: str, diag: list) -> tuple:
    """One weight per block of a case, from the Ricci diagonal of its
    family (lambda first, kappa fifth); the entries may be Scalars or
    anything else that adds and multiplies with them."""
    lam, kap = diag[0], diag[4]
    return tuple(b.c_lam * lam + b.c_kap * kap for b in CASES[case].blocks)


def build_rc(case: str, assignment: Params) -> CurvatureTensor:
    """Closed-form curvature operator for a classification subcase: the sum
    over its blocks of weight * dyads.

    Each weight is linear in (lam, kap) of the family's Ricci diagonal,
    hence quadratic in the family parameters, and the dyads are fixed,
    so the operator is a quadratic form in the parameters.  Cases:
    "5.1.1" (values in the rank-2 centralizer chain), "5.1.2"
    (irreducible so(3), only at b1 = b2 = 0), "5.2.1" (standard so(3)),
    "5.2.2" (torus), "5.3.1-I" and "5.3.1-II" (torus, per torsion type).
    """
    rec = CASES[case]
    fam = case_family(case, assignment)
    vals = fam.values(assignment)
    if not all(vals[name].is_zero for name in rec.zero):
        raise ValueError(f"the operator needs {' = '.join(rec.zero)} = 0")
    weights = case_weights(case, fam.closed_form(vals))
    return CurvatureTensor.from_dyads([(w * c, left, right)
                                       for w, block in zip(weights, rec.blocks)
                                       for c, left, right in block.dyads])


def vanishing_constraints(case: str, h: list[MultiVector]) -> tuple[bool, ...]:
    """Whether each block's weight must vanish for values inside span(h).

    The blocks have independent ranges, so each is tested on its own.
    """
    return tuple(not CurvatureTensor.from_dyads(b.dyads).range_inside(h)
                 for b in CASES[case].blocks)


# ---------------------------------------------------------------------------
# spaces of algebraic curvature operators
#
# A symmetric operator into span(h) is an element of S^2(h): the key
# (a, b), a <= b, stands for h_a <h_b, .> + h_b <h_a, .>, or for the one
# dyad h_a <h_a, .> when a = b; the keys are independent when the members
# of h are.  Each space is the kernel, over those keys, of the linear test
# that checks a single operator.

def _s2_operator(x: linalg.Row, h: list[MultiVector]) -> CurvatureTensor:
    """The operator sum_(a, b) x[(a, b)] (h_a <h_b, .> + h_b <h_a, .>),
    with one dyad for a = b."""
    pieces = []
    for (a, b), c in x.items():
        pieces.append(dyad(c, h[a], h[b]))
        if a != b:
            pieces.append(dyad(c, h[b], h[a]))
    return CurvatureTensor.from_dyads(pieces)


def _s2_keys(h: list[MultiVector]) -> list[tuple[int, int]]:
    return [(a, b) for a in range(len(h)) for b in range(a, len(h))]


def _s2_kernel(h: list[MultiVector],
               test: Callable[[CurvatureTensor], linalg.Row]) -> list[CurvatureTensor]:
    """The operators of S^2(h) that the linear map test, from an operator
    to a zero-free row, sends to zero: a basis when the members of h are
    independent, and only a spanning set otherwise, since dependent
    members make the keys dependent."""
    keys = _s2_keys(h)
    images = {key: test(_s2_operator({key: ONE}, h)) for key in keys}
    return [_s2_operator(x, h) for x in linalg.kernel(images, keys)]


def bianchi_space(h: list[MultiVector]) -> list[CurvatureTensor]:
    """The operators into span(h) killed by the cyclic sum: a basis when
    the members of h are independent (every catalog algebra), a spanning
    set, possibly with zero members, otherwise.

    The first Bianchi identity forces pair symmetry, so the symmetric
    operators of S^2(h) already carry the whole space.
    """
    return _s2_kernel(h, cyclic_sum)


def _dependent_cyclic_sums(name: str) -> Iterator[bool]:
    """Key by key over S^2(h) of a catalog algebra, whether the key's
    cyclic sum depends on the earlier ones, from one elimination: the
    Bianchi space, their kernel, has one dimension per dependent key."""
    h = algebra(name)
    ech = linalg.Echelon()
    for key in _s2_keys(h):
        yield ech.add_row(cyclic_sum(_s2_operator({key: ONE}, h))) is None


@lru_cache(maxsize=None)
def bianchi_dim(name: str) -> int:
    """Dimension of the Bianchi space of a catalog algebra."""
    return sum(_dependent_cyclic_sums(name))


@lru_cache(maxsize=None)
def bianchi_nontrivial(name: str) -> bool:
    """Whether the Bianchi space of a catalog algebra is nonzero, stopping
    at the first dependent cyclic sum."""
    return any(_dependent_cyclic_sums(name))


def invariant_ricci_family(h: list[MultiVector]) -> list[Ricci]:
    """Ricci tensors of symmetric h-invariant operators into span(h), as
    `CurvatureTensor.ricci` maps: an independent set spanning them all."""
    rotations = [_rotation(w) for w in h]

    # r symmetric and rot skew make [r, rot] symmetric, so the entries
    # (m, n) with m <= n carry every condition
    def commutators(r: CurvatureTensor) -> linalg.Row:
        return {(i, m, n): v for i, rot in enumerate(rotations)
                for m, col in _commutator(r.columns, rot).items()
                for n, v in col.items() if m <= n}

    ech = linalg.Echelon()
    riccis = [r.ricci() for r in _s2_kernel(h, commutators)]
    return [ric for ric in riccis if ech.add_row(ric) is not None]
