"""Algebraic curvature operators valued in a subalgebra.

A curvature operator here is a linear map on 2-forms written as a sum of
dyads coeff * left * <right, .>.  The module provides the first Bianchi
solver (with and without operator symmetry), the closed-form curvature
operators attached to the torsion families, Ricci contraction, the
torsion-corrected Bianchi identity, and the families of Ricci tensors
reachable by invariant symmetric operators.

The plain first Bianchi identity fails for a connection with parallel
skew torsion; its cyclic sum equals the associated 4-form instead.  That
corrected identity is the one the family operators satisfy, with the
proportionality constant pinned by the checks in the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .exterior import (DIM, E, MultiVector, evaluate, inner, monomials,
                       sigma_t, to_coords)
from .liealg import SPIN7_BASIS, act_on_form, algebra, in_span
from .scalars import ZERO, Scalar, ScalarLike, SQRT15, add_to, rational
from .structure import FAMILIES, Params, TorsionFamily

Dyad = tuple[Scalar, MultiVector, MultiVector]


class CurvatureTensor:
    """Operator on 2-forms stored as a list of dyads."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[Dyad]):
        self.pieces = [(c, l, r) for (c, l, r) in pieces if not c.is_zero]

    def apply(self, a: MultiVector) -> MultiVector:
        out = MultiVector()
        for c, left, right in self.pieces:
            weight = c * inner(right, a)
            if not weight.is_zero:
                out = out + left * weight
        return out

    def entry(self, i: int, j: int, k: int, l: int) -> Scalar:
        """The 4-tensor value on basis vectors, R(e_i, e_j, e_k, e_l)."""
        if i == j or k == l:
            return ZERO
        sgn = 1
        if i > j:
            i, j, sgn = j, i, -sgn
        if k > l:
            k, l, sgn = l, k, -sgn
        value = inner(self.apply(MultiVector.monomial((i, j))), MultiVector.monomial((k, l)))
        return value if sgn == 1 else -value

    def matrix(self) -> list[list[Scalar]]:
        """Gram matrix over the 28 coordinate 2-forms."""
        grade2 = monomials(2)
        cols = [to_coords(self.apply(MultiVector.monomial(m)), 2) for m in grade2]
        n = len(grade2)
        return [[cols[a].get(b, ZERO) for a in range(n)] for b in range(n)]

    def is_symmetric(self) -> bool:
        m = self.matrix()
        n = len(m)
        return all(m[a][b] == m[b][a] for a in range(n) for b in range(a + 1, n))

    def is_zero(self) -> bool:
        return all(self.apply(MultiVector.monomial(m)).is_zero for m in monomials(2))

    def range_inside(self, h: list[MultiVector]) -> bool:
        return all(in_span(self.apply(MultiVector.monomial(m)), h, 2)
                   for m in monomials(2))

    def invariant_under(self, h: list[MultiVector]) -> bool:
        """Whether the operator commutes with the rotations from h."""
        for w in h:
            for m in monomials(2):
                a = MultiVector.monomial(m)
                lhs = act_on_form(w, self.apply(a))
                rhs = self.apply(act_on_form(w, a))
                if lhs != rhs:
                    return False
        return True

    def ricci(self) -> list[list[Scalar]]:
        """Ric(X, Y) = sum_i R(e_i, X, Y, e_i)."""
        out = [[ZERO] * DIM for _ in range(DIM)]
        for x in range(1, DIM + 1):
            for y in range(x, DIM + 1):
                tot = ZERO
                for i in range(1, DIM + 1):
                    tot = tot + self.entry(i, x, y, i)
                out[x - 1][y - 1] = tot
                out[y - 1][x - 1] = tot
        return out


def dyad(c: ScalarLike, left: MultiVector, right: MultiVector | None = None) -> Dyad:
    return Scalar.coerce(c), left, left if right is None else right


def cyclic_residue(r: CurvatureTensor, t: MultiVector | None = None) -> bool:
    """Whether sum_cyc R(X, Y, Z, V) matches the 4-form of the torsion.

    With t omitted the plain first Bianchi identity is checked.  With a
    parallel torsion t the cyclic sum must equal the evaluation of
    sigma_t(t); the constant in front is 1 in the conventions used here.
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
                        tot = tot - evaluate(sig, [E[i], E[j], E[k], E[v]])
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
    return CurvatureTensor(pieces)


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
        return CurvatureTensor([
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
        return CurvatureTensor([
            dyad(w * rational(1, 2), p[0] + p[4]),
            dyad(w * rational(1, 2), p[1] + p[5]),
            dyad(w, p[6] + p[7]),
        ])
    lam = fam.ricci_diag(assignment)[0]
    w = -lam * rational(1, 4)
    return CurvatureTensor([
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
# An operator into span(h) is the vector x with R = sum x[m * nh + a]
# h_a <e_m, .> over the coordinate 2-forms e_m and the nh members h_a.

def _symmetry_rows(hcoords: list[linalg.Row]) -> list[linalg.Row]:
    """The rows <R(e_m), e_n> = <R(e_n), e_m> for m < n."""
    nmon, nh = len(monomials(2)), len(hcoords)
    rows: list[linalg.Row] = []
    for m in range(nmon):
        for n in range(m + 1, nmon):
            row: linalg.Row = {}
            for a, ha in enumerate(hcoords):
                if n in ha:
                    row[m * nh + a] = ha[n]
                if m in ha:
                    row[n * nh + a] = -ha[m]
            if row:
                rows.append(row)
    return rows


def _operator(sol: linalg.Row, h: list[MultiVector]) -> CurvatureTensor:
    """The operator of a solution vector x."""
    grade2 = monomials(2)
    pieces = []
    for key, c in sol.items():
        m, a = divmod(key, len(h))
        pieces.append((c, h[a], MultiVector.monomial(grade2[m])))
    return CurvatureTensor(pieces)


def bianchi_space(h: list[MultiVector], symmetric: bool = True) -> list[CurvatureTensor]:
    """Basis of the operators into span(h) killed by the cyclic sum.

    Symmetry is imposed by default; pass symmetric=False for the raw
    cyclic-sum kernel.  Both dimensions are worth reporting since the
    displayed definition of the space fixes only the cyclic condition.
    """
    grade2 = monomials(2)
    nh = len(h)
    if nh == 0:
        return []
    hcoords = [to_coords(w, 2) for w in h]
    mono_index = {m: n for n, m in enumerate(grade2)}

    def pair_coeff(a: int, k: int, v: int) -> Scalar:
        # <h_a, e_k ^ e_v> for k != v
        if k < v:
            return hcoords[a].get(mono_index[(k, v)], ZERO)
        return -hcoords[a].get(mono_index[(v, k)], ZERO)

    rows: list[linalg.Row] = []
    for i in range(1, DIM + 1):
        for j in range(i + 1, DIM + 1):
            for k in range(j + 1, DIM + 1):
                for v in range(1, DIM + 1):
                    row: linalg.Row = {}
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                        if z == v:
                            continue
                        sgn = 1
                        xx, yy = x, y
                        if xx > yy:
                            xx, yy, sgn = yy, xx, -sgn
                        m = mono_index[(xx, yy)]
                        for a in range(nh):
                            c = pair_coeff(a, z, v)
                            if not c.is_zero:
                                add_to(row, m * nh + a, c if sgn == 1 else -c)
                    if row:
                        rows.append(row)
    if symmetric:
        rows += _symmetry_rows(hcoords)
    return [_operator(sol, h) for sol in linalg.nullspace(rows, len(grade2) * nh)]


@lru_cache(maxsize=None)
def _su2_witness() -> CurvatureTensor:
    p = SPIN7_BASIS
    return CurvatureTensor([dyad(1, p[4]), dyad(-1, p[5])])


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


def invariant_ricci_family(h: list[MultiVector]) -> list[list[list[Scalar]]]:
    """Basis of Ricci tensors of symmetric h-invariant operators into
    span(h)."""
    grade2 = monomials(2)
    nmon = len(grade2)
    nh = len(h)
    if nh == 0:
        return []
    hcoords = [to_coords(w, 2) for w in h]
    rows = _symmetry_rows(hcoords)
    # invariance rows: act(w, S(e_m)) - S(act(w, e_m)) = 0
    for w in h:
        acted = {m: to_coords(act_on_form(w, MultiVector.monomial(grade2[m])), 2)
                 for m in range(nmon)}
        img = [to_coords(act_on_form(w, ha), 2) for ha in h]
        for m in range(nmon):
            per_slot: dict[int, linalg.Row] = {}
            for a in range(nh):
                for slot, v in img[a].items():
                    per_slot.setdefault(slot, {})[m * nh + a] = v
            for n, c in acted[m].items():
                for a in range(nh):
                    for slot, v in hcoords[a].items():
                        add_to(per_slot.setdefault(slot, {}), n * nh + a, -(c * v))
            rows.extend(r for r in per_slot.values() if r)
    riccis = [_operator(sol, h).ricci() for sol in linalg.nullspace(rows, nmon * nh)]
    # reduce to an independent spanning set of the Ricci span
    keyed = []
    for ric in riccis:
        keyed.append({i * DIM + j: ric[i][j]
                      for i in range(DIM) for j in range(DIM)
                      if not ric[i][j].is_zero})
    ech = linalg.Echelon()
    keep = []
    for ric, row in zip(riccis, keyed):
        if not ech.contains(row):
            ech.add_row(row)
            keep.append(ric)
    return keep


def ricci_span_contains(family: list[list[list[Scalar]]],
                        target: list[list[Scalar]]) -> bool:
    rows: list[linalg.Row] = []
    rhs: list[Scalar] = []
    for i in range(DIM):
        for j in range(DIM):
            row = {n: family[n][i][j] for n in range(len(family))
                   if not family[n][i][j].is_zero}
            rows.append(row)
            rhs.append(target[i][j])
    return linalg.solve(rows, rhs) is not None
