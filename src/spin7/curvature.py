"""Algebraic curvature operators valued in a subalgebra.

A curvature operator here is a linear map on 2-forms, stored as the
images of the 28 coordinate 2-forms (`linalg` column form, keyed by the
index pairs (i, j) of `MultiVector.terms`), so an entry
R(e_i, e_j, e_k, e_l) is a lookup.  The closed-form operators are written
as sums of dyads coeff * left * <right, .> and expanded into columns once.
The module provides the first Bianchi solver (with and without operator
symmetry), the closed-form curvature operators attached to the torsion
families, Ricci contraction, the torsion-corrected Bianchi identity, and
the families of Ricci tensors reachable by invariant symmetric operators.

The plain first Bianchi identity fails for a connection with parallel
skew torsion; its cyclic sum equals the associated 4-form instead.  That
corrected identity is the one the family operators satisfy, with the
proportionality constant pinned by the checks in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import linalg
from .exterior import DIM, Index, MultiVector, monomials, sigma_t
from .liealg import SPIN7_BASIS, algebra, rotation
from .scalars import ZERO, Scalar, ScalarLike, SQRT15, add_to, rational
from .structure import FAMILIES, Params, Ricci, TorsionFamily

Dyad = tuple[Scalar, MultiVector, MultiVector]


class CurvatureTensor:
    """Operator on 2-forms stored as its nonzero column images
    {m: R(e_m).terms} over the coordinate 2-forms e_m, m = (i, j)."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[Index, linalg.Row]):
        self.columns = {m: col for m, col in columns.items() if col}

    @classmethod
    def from_dyads(cls, pieces: list[Dyad]) -> CurvatureTensor:
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
        if i == j or k == l:
            return ZERO
        (m, s), (n, t) = _pair(i, j), _pair(k, l)
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
        for w in h:
            rot = rotation(w, 2)
            for m in monomials(2):
                lhs = linalg.apply(rot, self.columns.get(m, {}))
                if lhs != linalg.apply(self.columns, rot.get(m, {})):
                    return False
        return True

    def ricci(self) -> Ricci:
        """The zero-free map {(x, y): Ric(e_x, e_y)} over x <= y, where
        Ric(X, Y) = sum_i R(e_i, X, Y, e_i)."""
        out = {}
        for x in range(1, DIM + 1):
            for y in range(x, DIM + 1):
                tot = sum((self.entry(i, x, y, i) for i in range(1, DIM + 1)), ZERO)
                if not tot.is_zero:
                    out[(x, y)] = tot
        return out


def _pair(i: int, j: int) -> tuple[Index, int]:
    """Key and sign of e_i ^ e_j for i != j."""
    return ((i, j), 1) if i < j else ((j, i), -1)


def dyad(c: ScalarLike, left: MultiVector, right: MultiVector | None = None) -> Dyad:
    return Scalar.coerce(c), left, left if right is None else right


def cyclic_residue(r: CurvatureTensor, t: MultiVector | None = None) -> bool:
    """Whether sum_cyc R(X, Y, Z, V) matches the 4-form of the torsion.

    With t omitted the plain first Bianchi identity is checked.  With a
    parallel torsion t the cyclic sum must equal sigma_t(t)(X, Y, Z, V),
    the coefficient of e_ijkv in the determinant convention; the constant
    in front is 1 in the conventions used here.
    """
    sig = sigma_t(t) if t is not None else None
    for i in range(1, DIM + 1):
        for j in range(i + 1, DIM + 1):
            for k in range(j + 1, DIM + 1):
                for v in range(1, DIM + 1):
                    tot = (r.entry(i, j, k, v)
                           + r.entry(j, k, i, v)
                           + r.entry(k, i, j, v))
                    if sig is not None:
                        tot = tot - sig.coeff((i, j, k, v))
                    if not tot.is_zero:
                        return False
    return True


# ---------------------------------------------------------------------------
# the closed-form curvature operators of the classification

def _two_torus() -> tuple[MultiVector, MultiVector]:
    # the torus of the 14-dim algebra: e_12 - e_34 and e_12 + e_34 - 2 e_56
    p = SPIN7_BASIS
    return p[6], p[6] + 2 * p[7]


def case_operator(case: str, r1: ScalarLike, r2: ScalarLike) -> CurvatureTensor:
    """The two-weight operator shape shared by the torus-valued cases.

    Case "5.1.1" adds the centralizer pair of dyads to the torus pair;
    case "5.3.1" keeps only the torus pair.
    """
    p = SPIN7_BASIS
    ta, tb = _two_torus()
    pieces = [dyad(r1, ta), dyad(r2, tb)]
    if case == "5.1.1":
        pieces += [dyad(r2, p[12]), dyad(r2, p[13])]
    elif case not in ("5.3.1", "5.3.1-I", "5.3.1-II"):
        raise KeyError(f"no two-weight operator for case {case!r}")
    return CurvatureTensor.from_dyads(pieces)


def vanishing_constraints(case: str, h: list[MultiVector]) -> tuple[bool, bool]:
    """Which of the two case weights must vanish for values inside span(h).

    The two weight blocks have independent ranges, so each weight is
    tested on its own.
    """
    keep_r1 = case_operator(case, 1, 0).range_inside(h)
    keep_r2 = case_operator(case, 0, 1).range_inside(h)
    return (not keep_r1, not keep_r2)


_CASE_FAMILY = {"5.1.1": "5.1", "5.1.2": "5.1", "5.2.1": "5.2", "5.2.2": "5.2",
                "5.3.1-I": "5.3-I", "5.3.1-II": "5.3-II"}


def case_family(case: str, assignment: Params) -> TorsionFamily:
    """The torsion family of a case; the 5.2 cases take family 5.2-II
    when the assignment sets a2 and 5.2-I otherwise."""
    if case not in _CASE_FAMILY:
        raise KeyError(f"unknown curvature case {case!r}")
    fam_id = _CASE_FAMILY[case]
    if fam_id == "5.2":
        fam_id = "5.2-II" if "a2" in assignment else "5.2-I"
    return FAMILIES[fam_id]


def case_weights(case: str, diag: list) -> tuple:
    """The weights (r1, r2) of a two-weight case from the Ricci diagonal
    of its family (lambda first, kappa fifth); the entries may be
    Scalars or anything else that adds and multiplies with them."""
    c1, c2 = ((rational(3, 8), rational(-1, 8)) if case == "5.1.1"
              else (rational(1, 4), rational(-1, 4)))
    lam, kap = diag[0], diag[4]
    return c1 * kap - lam, c2 * kap


def build_rc(case: str, assignment: Params) -> CurvatureTensor:
    """Closed-form curvature operator for a classification subcase.

    Cases: "5.1.1" (values in the rank-2 centralizer chain), "5.1.2"
    (irreducible so(3)), "5.2.1" (standard so(3)), "5.2.2" (torus),
    "5.3.1-I" and "5.3.1-II" (torus, per torsion type).
    """
    p = SPIN7_BASIS
    ta, tb = _two_torus()
    fam = case_family(case, assignment)
    if case in ("5.1.1", "5.3.1-I", "5.3.1-II"):
        return case_operator(case, *case_weights(case, fam.ricci_diag(assignment)))
    if case == "5.1.2":
        vals = fam.values(assignment)
        if not (vals["b1"].is_zero and vals["b2"].is_zero):
            raise ValueError("the irreducible so(3) case needs b1 = b2 = 0")
        w = -vals["a1"] * vals["a1"]
        half = rational(1, 2)
        mixed = SQRT15 * half
        # the dyads expand squares of the irreducible so(3) basis, whose
        # members have norm-sqrt(5/2) and sqrt(3/2) coefficients; the
        # products stay inside the scalar field
        return CurvatureTensor.from_dyads([
            dyad(w * rational(5, 2), p[4]),
            dyad(-w * mixed, p[4], p[9]),
            dyad(-w * mixed, p[9], p[4]),
            dyad(w * rational(3, 2), p[9]),
            dyad(w * rational(5, 2), p[5]),
            dyad(w * mixed, p[5], p[8]),
            dyad(w * mixed, p[8], p[5]),
            dyad(w * rational(3, 2), p[8]),
            dyad(w, p[6] + 3 * p[7]),
        ])
    if case == "5.2.1":
        lam = fam.ricci_diag(assignment)[0]
        w = -lam * rational(1, 2)
        return CurvatureTensor.from_dyads([
            dyad(w * rational(1, 2), p[0] + p[4]),
            dyad(w * rational(1, 2), p[1] + p[5]),
            dyad(w, p[6] + p[7]),
        ])
    lam = fam.ricci_diag(assignment)[0]
    w = -lam * rational(1, 4)
    return CurvatureTensor.from_dyads([
        dyad(3 * w, ta),
        dyad(w, tb),
    ])


# the largest holonomy algebra each case serves; the operator is
# invariant under it, hence under every admissible subalgebra
CASE_HOLONOMY = {
    "5.1.1": "r+su2c",
    "5.1.2": "so3ir",
    "5.2.1": "so3",
    "5.2.2": "t2",
    "5.3.1-I": "t2",
    "5.3.1-II": "t2",
}


# ---------------------------------------------------------------------------
# spaces of algebraic curvature operators
#
# An operator into span(h) is the vector x with R = sum x[(m, a)] h_a <e_m, .>
# over the coordinate 2-forms e_m and the members h_a of h.

def _unknowns(h: list[MultiVector]) -> list[tuple[Index, int]]:
    return [(m, a) for m in monomials(2) for a in range(len(h))]


def _symmetry_rows(h: list[MultiVector]) -> list[linalg.Row]:
    """The rows <R(e_m), e_n> = <R(e_n), e_m> for m < n."""
    mons = monomials(2)
    rows: list[linalg.Row] = []
    for p, m in enumerate(mons):
        for n in mons[p + 1:]:
            row: linalg.Row = {}
            for a, w in enumerate(h):
                if n in w.terms:
                    row[(m, a)] = w.terms[n]
                if m in w.terms:
                    row[(n, a)] = -w.terms[m]
            if row:
                rows.append(row)
    return rows


def _operator(sol: linalg.Row, h: list[MultiVector]) -> CurvatureTensor:
    """The operator of a solution vector x: column m is sum_a x[(m, a)] h_a."""
    columns: dict[Index, linalg.Row] = defaultdict(dict)
    for (m, a), c in sol.items():
        for n, v in h[a].terms.items():
            add_to(columns[m], n, c * v)
    return CurvatureTensor(columns)


def bianchi_space(h: list[MultiVector], symmetric: bool = True) -> list[CurvatureTensor]:
    """Basis of the operators into span(h) killed by the cyclic sum.

    Symmetry is imposed by default; pass symmetric=False for the raw
    cyclic-sum kernel.  Both dimensions are worth reporting since the
    displayed definition of the space fixes only the cyclic condition.
    """
    if not h:
        return []
    rows: list[linalg.Row] = []
    for i in range(1, DIM + 1):
        for j in range(i + 1, DIM + 1):
            for k in range(j + 1, DIM + 1):
                for v in range(1, DIM + 1):
                    # sum_cyc <R(e_x ^ e_y), e_z ^ e_v> with R(e_m) = sum_a x[(m, a)] h_a
                    row: linalg.Row = {}
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                        if z == v:
                            continue
                        (m, s), (n, t) = _pair(x, y), _pair(z, v)
                        for a, w in enumerate(h):
                            c = w.terms.get(n)
                            if c is not None:
                                add_to(row, (m, a), c if s == t else -c)
                    if row:
                        rows.append(row)
    if symmetric:
        rows += _symmetry_rows(h)
    return [_operator(sol, h) for sol in linalg.nullspace(rows, _unknowns(h))]


@lru_cache(maxsize=None)
def _su2_witness() -> CurvatureTensor:
    p = SPIN7_BASIS
    return CurvatureTensor.from_dyads([dyad(1, p[4]), dyad(-1, p[5])])


def bianchi_dim_positive(name: str) -> bool:
    """Whether the Bianchi space of a catalog algebra is nontrivial.

    Small algebras are settled by full elimination.  The larger ones all
    contain the 3-dim algebra span(e_13+e_24, e_14-e_23, e_12-e_34), and
    a fixed operator into that algebra passes the cyclic-sum test, so a
    witness check suffices.
    """
    h = algebra(name)
    if len(h) >= 6:
        w = _su2_witness()
        if not (w.range_inside(h) and w.is_symmetric() and cyclic_residue(w)):
            raise AssertionError("witness operator failed where elimination was skipped")
        return True
    return len(bianchi_space(h, symmetric=False)) > 0


def invariant_ricci_family(h: list[MultiVector]) -> list[Ricci]:
    """Ricci tensors of symmetric h-invariant operators into span(h), as
    `CurvatureTensor.ricci` maps: an independent set spanning them all."""
    if not h:
        return []
    rows = _symmetry_rows(h)
    # invariance rows: act(w, S(e_m)) - S(act(w, e_m)) = 0, as a map of x
    for w in h:
        rot = rotation(w, 2)
        img = [linalg.apply(rot, ha.terms) for ha in h]
        for m in monomials(2):
            columns = {(m, a): img[a] for a in range(len(h))}
            for n, c in rot.get(m, {}).items():
                for a, ha in enumerate(h):
                    columns[(n, a)] = {slot: -(c * v) for slot, v in ha.terms.items()}
            rows.extend(linalg.transpose(columns).values())
    riccis = [_operator(sol, h).ricci() for sol in linalg.nullspace(rows, _unknowns(h))]
    ech = linalg.Echelon()
    return [ric for ric in riccis if ech.add_row(ric) is not None]
