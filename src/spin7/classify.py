"""Admissibility driver and algebraic reconstructions.

The driver walks the torsion families: fix the invariance algebra of a
family, pick a candidate holonomy subalgebra, solve the Ricci system on
its invariant spinors, and, when the candidate has a trivial Bianchi
space, check that the induced curvature operator takes values in the
candidate and commutes with it.  Each emitted row re-runs the exact
computation backing it, so the table is recomputed evidence rather than
a transcription.

The reconstruction half builds Lie algebras out of (torsion, curvature,
holonomy) triples, checks the splitting conditions for product
decompositions, and reassembles the calibration 4-form from a Hermitian
frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .curvature import (CASES, CurvatureTensor, bianchi_nontrivial, build_rc,
                        case_weights, invariant_ricci_family)
from .exterior import (DIM, E, MultiVector, contract, evaluate, form,
                       inner, wedge)
from .liealg import algebra, bracket, express
from .scalars import ONE, SQRT3, ZERO, Scalar, ScalarLike, add_to, rational
from .structure import FAMILIES, Ricci, diagonal, ricci_solver


# ---------------------------------------------------------------------------
# table rows

@dataclass(frozen=True)
class ClassificationRow:
    iso: str
    hol: str
    k_nontrivial: bool
    torsion_family: str
    torsion_constraints: str
    ricci_params: str
    curvature_constraints: str
    admissible: bool
    reason: str = ""

    def key(self) -> tuple[str, str]:
        return (self.iso, self.hol)


# Candidate holonomies carrying a slope are keyed by (name, slope class):
# "l0" is the line through the first torus generator, "k0" the line
# through the second, "kl" a line meeting neither axis.  Admissible
# entries record (locus, curvature constraint, operator case or None).
# Excluded keys are grouped by the outcome their check asserts:
# "inconsistent", no Ricci solution at the generic witness (the
# one-parameter systems scale quadratically, so one witness settles every
# nonzero value); "outside", a solution there outside the invariant Ricci
# family; "escape", key -> (operator case, reason), the case's operator
# at the witness leaks out of the candidate; "locus", key -> reason, the
# exact elimination puts the vanishing weights only where the invariance
# algebra jumps.

_SLOPE_REP = {"l0": (1, 0), "k0": (0, 1), "kl": (1, 1)}
_EXCLUSIONS = ("inconsistent", "outside", "escape", "locus")
_INCONSISTENT = "Ricci system inconsistent (scaling)"
_OUTSIDE = "solved Ricci lies outside the invariant symmetric operator family"
_JUMP = ("r1 = r2 = 0 holds only where the invariance algebra jumps "
         "(a1 = 0, b1 = -a2)")

_ROWS: dict[str, dict] = {
    "g2": {
        "family": "5.1",
        "fixed": {"b1": 0, "b2": 0},
        "witnesses": {"generic": {"a1": 1}},
        "admissible": {
            "g2": ("generic", "", None),
            "su2+su2c": ("generic", "", None),
            "r+su2c": ("generic", "", "5.1.1"),
            "so3ir": ("generic", "", "5.1.2"),
        },
        "inconsistent": ("su3", "u2", "su2", "so3", "so3diag", "t2",
                         ("t1", "l0"), ("t1", "k0"), ("t1", "kl"), "zero"),
        "escape": {"su2c": ("5.1.1", "operator weight r1 = -15/2 a1^2 never vanishes")},
    },
    "so3ir": {
        "family": "5.1",
        "fixed": {"b1": 0, "b2": 0},
        "witnesses": {"generic": {"a1": 1}},
        "admissible": {
            "so3ir": ("generic", "", "5.1.2"),
        },
        "inconsistent": ("zero",),
    },
    "su2+su2c": {
        "family": "5.1",
        "fixed": {"b2": 0},
        "witnesses": {
            "generic": {"a1": 1, "b1": 1},
            "kappa0": {"a1": 4, "b1": 3},
            "r1zero": {"a1": 2, "b1": 5},
            "flat": {"a1": 1, "b1": -1},
        },
        "admissible": {
            "su2+su2c": ("generic", "", None),
            "u2": ("kappa0", "kappa = 0", None),
            "su2": ("kappa0", "kappa = 0", None),
            "r+su2c": ("generic", "", "5.1.1"),
            "su2c": ("r1zero", "r1 = 0", "5.1.1"),
            "so3diag": ("flat", "r1 = r2 = 0", "5.1.1"),
            "t2": ("kappa0", "r2 = 0", "5.1.1"),
            ("t1", "l0"): ("kappa0", "r2 = 0", "5.1.1"),
            ("t1", "k0"): ("flat", "r1 = r2 = 0", "5.1.1"),
            ("t1", "kl"): ("flat", "r1 = r2 = 0", "5.1.1"),
            "zero": ("flat", "r1 = r2 = 0", "5.1.1"),
        },
    },
    "r+su2c": {
        "family": "5.1",
        "fixed": {},
        "witnesses": {
            "generic": {"a1": 1, "b1": 2, "b2": 3},
            "kappa0": {"a1": 4, "b1": 3, "b2": 1},
            "r1zero": {"a1": 1, "b1": 1, "b2": 3},
            "flat": {"a1": 4, "b1": 3, "b2": 7 * Scalar(0, 1)},
        },
        "admissible": {
            "r+su2c": ("generic", "", "5.1.1"),
            "su2c": ("r1zero", "r1 = 0", "5.1.1"),
            "t2": ("kappa0", "r2 = 0", "5.1.1"),
            ("t1", "l0"): ("kappa0", "r2 = 0", "5.1.1"),
            ("t1", "k0"): ("flat", "r1 = r2 = 0", "5.1.1"),
            ("t1", "kl"): ("flat", "r1 = r2 = 0", "5.1.1"),
            "zero": ("flat", "r1 = r2 = 0", "5.1.1"),
        },
    },
    "su3": {
        "family": "5.2-I",
        "fixed": {},
        "witnesses": {"generic": {"a1": 1}},
        "admissible": {
            "su3": ("generic", "", None),
            "u2": ("generic", "", None),
            "so3": ("generic", "", "5.2.1"),
            "t2": ("generic", "", "5.2.2"),
        },
        "inconsistent": ("su2", ("t1", "l0"), ("t1", "kl"), "zero"),
        "escape": {("t1", "k0"): ("5.2.2", "torus operator carries weight -3*lambda/4 "
                                  "on the first generator, forcing T = 0")},
    },
    "so3": {
        "family": "5.2-II",
        "fixed": {},
        "witnesses": {
            "generic": {"a1": 1, "a2": 1, "b1": 1},
            "flat": {"a1": 0, "a2": 1, "b1": 5},
        },
        "admissible": {
            "so3": ("generic", "", "5.2.1"),
            ("t1", "kl"): ("flat", "lambda = 0", "5.2.1"),
            "zero": ("flat", "lambda = 0", "5.2.1"),
        },
    },
    "u2": {
        "family": "5.3-I",
        "fixed": {},
        "witnesses": {
            "generic": {"a1": 1, "a2": 1, "b1": 1},
            "r1zero": {"a1": 1, "a2": -1, "b1": 2},
            "kappa0": {"a1": 3 * Scalar(0, 0, 1), "a2": -5, "b1": 10},
        },
        "admissible": {
            "u2": ("generic", "", None),
            "su2": ("kappa0", "kappa = 0", None),
            "t2": ("generic", "", "5.3.1-I"),
            ("t1", "k0"): ("r1zero", "r1 = 0", "5.3.1-I"),
            ("t1", "l0"): ("kappa0", "r2 = 0", "5.3.1-I"),
        },
        "locus": {("t1", "kl"): _JUMP, "zero": _JUMP},
    },
    "r+su2": {
        "family": "5.4",
        "fixed": {},
        "witnesses": {"generic": {"b1": 1}},
        "admissible": {
            "r+su2": ("generic", "", None),
        },
        "inconsistent": ("su2", ("t1tilde", "l0"), ("t1tilde", "kl"), "zero"),
        "outside": ("t2tilde", ("t1tilde", "k0")),
    },
}

# grouped-view names for entries whose catalog name differs from the
# display label of the column they appear in
_GROUP_LABEL = {"so3diag": "so3"}


def _family_with(row: dict, assignment: dict) -> tuple[dict, MultiVector, str]:
    """The row's fixed parameters completed by the assignment, with its
    torsion and the printed parameter list."""
    fam = FAMILIES[row["family"]]
    full = {**row["fixed"], **assignment}
    text = ", ".join(f"{p} = {Scalar.coerce(full[p])}" for p in fam.params)
    return full, fam.torsion(full), text


def _verify_operator(case: str, assignment: dict, h: list[MultiVector],
                     sol: Ricci, who: str) -> None:
    """A trivial-Bianchi candidate must admit a parallel curvature operator.

    Rebuilds the operator of the case at the witness and checks range,
    equivariance, and agreement with the solved Ricci tensor.
    """
    op = build_rc(case, assignment)
    if not op.range_inside(h):
        raise AssertionError(f"curvature range escapes the span for {who}")
    if not op.invariant_under(h):
        raise AssertionError(f"curvature operator not equivariant for {who}")
    if op.ricci() != sol:
        raise AssertionError(f"operator Ricci disagrees with the solver for {who}")


def run_recipe(iso: str, hol: str, k: ScalarLike = 1, l: ScalarLike = 0) -> ClassificationRow:
    """Decide one (invariance algebra, candidate holonomy) pair.

    k and l select the line for the torus candidates and are ignored for
    the fixed catalog names.  The decision re-runs the computation that
    justifies the row: subspace containment, the Ricci solve at the
    recorded witness point, and the curvature checks where the Bianchi
    space of the candidate is trivial.
    """
    if iso not in _ROWS:
        raise ValueError(f"no decision row for {iso!r}")
    if hol in ("t1", "t1tilde"):
        ks, ls = Scalar.coerce(k), Scalar.coerce(l)
        hol_key = (hol, "l0" if ls.is_zero else "k0" if ks.is_zero else "kl")
        h = algebra(hol, ks, ls)
        label = f"{hol}[{ks},{ls}]"
    else:
        hol_key = hol
        h = algebra(hol)
        label = hol
    row = _ROWS[iso]
    if h:
        span = linalg.echelon([w.terms for w in algebra(iso)])
        if not all(span.contains(w.terms) for w in h):
            raise ValueError(f"{label} is not a subalgebra of {iso}")
    knz = bianchi_nontrivial(hol)
    fam_id = row["family"]
    who = f"({iso}, {label})"

    spec = row["admissible"].get(hol_key)
    if spec is not None:
        locus, constraint, case = spec
        full, t, text = _family_with(row, row["witnesses"][locus])
        if t.is_zero:
            raise AssertionError(f"witness torsion vanished for {who}")
        sol = ricci_solver(t, h)
        if sol is None:
            raise AssertionError(f"witness lost consistency for {who}")
        if case is not None:
            _verify_operator(case, full, h, sol, who)
        diag = ", ".join(str(v) for v in diagonal(sol))
        return ClassificationRow(iso, label, knz, fam_id, text,
                                 f"diag({diag})", constraint, True)

    full, t, text = _family_with(row, row["witnesses"]["generic"])
    if hol_key in row.get("inconsistent", ()):
        if ricci_solver(t, h) is not None:
            raise AssertionError(f"exclusion witness became consistent for {who}")
        reason = _INCONSISTENT
    elif hol_key in row.get("outside", ()):
        sol = ricci_solver(t, h)
        if sol is None or linalg.in_span(invariant_ricci_family(h), sol):
            raise AssertionError(f"solved Ricci no longer outside the invariant "
                                 f"family for {who}")
        reason = _OUTSIDE
    elif hol_key in row.get("escape", ()):
        # the system is consistent, but the candidate operator of the
        # case leaks out of the span unless the torsion vanishes
        case, reason = row["escape"][hol_key]
        if build_rc(case, full).range_inside(h):
            raise AssertionError(f"operator stopped leaking for {who}")
    elif hol_key in row.get("locus", ()):
        reason = row["locus"][hol_key]
        for elim_id in ("5.3-I", "5.3-II"):
            for branch in two_weight_vanishing_locus(elim_id):
                if not branch["excluded"]:
                    raise AssertionError("a weight-vanishing branch became valid")
    else:
        reason = "pair not covered by the decision rows"
    return ClassificationRow(iso, label, knz, fam_id, text, "", "",
                             False, reason)


@lru_cache(maxsize=1)
def _table_rows() -> tuple[ClassificationRow, ...]:
    out = []
    for iso, row in _ROWS.items():
        for group in ("admissible", *_EXCLUSIONS):
            for key in row.get(group, ()):
                hol = (key[0], *_SLOPE_REP[key[1]]) if isinstance(key, tuple) else (key,)
                out.append(run_recipe(iso, *hol))
    return tuple(out)


def admissibility_table() -> list[ClassificationRow]:
    """Every decided pair in row order, admissible and excluded alike.

    Rows are frozen, so the cached tuple is safe to share; the first
    call pays for the full recomputation.
    """
    return list(_table_rows())


def admissible_pairs() -> dict[str, dict[str, list[str]]]:
    """Admissible rows grouped by invariance label and Bianchi column."""
    table: dict[str, dict[str, list[str]]] = {}
    for row in admissibility_table():
        if not row.admissible:
            continue
        bucket = table.setdefault(row.iso, {"k_nonzero": [], "k_zero": []})
        col = "k_nonzero" if row.k_nontrivial else "k_zero"
        base = _GROUP_LABEL.get(row.hol.split("[")[0], row.hol.split("[")[0])
        if base not in bucket[col]:
            bucket[col].append(base)
    return table


# ---------------------------------------------------------------------------
# exact eliminations

class _Poly:
    """Polynomial over Q(sqrt3, sqrt5): sorted variable tuple -> coefficient.

    Zero terms are dropped, so a polynomial is zero exactly when it has
    no terms.  The ring operations are all a family's closed form uses,
    which lets the eliminations evaluate it at polynomial arguments.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[str, ...], Scalar]) -> None:
        self.terms = {m: c for m, c in terms.items() if not c.is_zero}

    @staticmethod
    def lift(x) -> _Poly:
        return x if isinstance(x, _Poly) else _Poly({(): Scalar.coerce(x)})

    def __add__(self, other) -> _Poly:
        out = dict(self.terms)
        for m, c in _Poly.lift(other).terms.items():
            add_to(out, m, c)
        return _Poly(out)

    def __mul__(self, other) -> _Poly:
        out: dict[tuple[str, ...], Scalar] = {}
        rhs = _Poly.lift(other).terms
        for m, c in self.terms.items():
            for n, d in rhs.items():
                add_to(out, tuple(sorted(m + n)), c * d)
        return _Poly(out)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> _Poly:
        return self * -1

    def __sub__(self, other) -> _Poly:
        return self + -_Poly.lift(other)


def _var(name: str) -> _Poly:
    return _Poly({(name,): ONE})


def _weights_at(fam_id: str, case: str, **sub) -> tuple[_Poly, _Poly, _Poly]:
    """(r1, r2, kappa) of a case from the closed form of its family, with
    every parameter its own variable unless sub replaces it."""
    fam = FAMILIES[fam_id]
    diag = fam.closed_form({p: _Poly.lift(sub.get(p, _var(p))) for p in fam.params})
    return (*case_weights(case, diag), diag[4])


def _expect_zero(p: _Poly) -> None:
    if p.terms:
        raise AssertionError(f"elimination identity failed: {p.terms}")


@lru_cache(maxsize=None)
def two_weight_vanishing_locus(fam_id: str) -> tuple[dict, ...]:
    """Solve r1 = r2 = 0 over a three-parameter torus family, exactly.

    The system is reduced branch by branch, with every algebraic identity
    re-verified, instead of trusting a black-box solver to enumerate the
    components of an underdetermined polynomial system.  A branch is
    excluded when it forces a vanishing torsion or a point where the
    invariance algebra jumps, so an all-excluded result rules the full
    torus holonomy out.
    """
    if fam_id not in ("5.3-I", "5.3-II"):
        raise KeyError(f"no torus family {fam_id!r}")
    case = "5.3.1" + fam_id[3:]
    a1, a2, b1 = map(_var, ("a1", "a2", "b1"))
    r1, r2, _ = _weights_at(fam_id, case)
    squares = a1 * a1 + a2 * a2
    if fam_id == "5.3-II":
        # r1 has no mixed terms: 147/16 (a1^2 + a2^2) = 0 forces
        # a1 = a2 = 0, and there r2 = b1^2 (lam = -b1^2)
        _expect_zero(r1 + rational(147, 16) * squares)
        _expect_zero(_weights_at(fam_id, case, a1=0, a2=0)[1] - b1 * b1)
        return ({"family": fam_id,
                 "solution": {"a1": "0", "a2": "0", "b1": "0"},
                 "excluded": True,
                 "note": "147/4 (a1^2 + a2^2) = 0 forces a1 = a2 = 0, "
                         "then lam = -b1^2 forces b1 = 0, so T = 0"},)
    # the combination below factors, so b1 = 0 or a2 = -b1
    _expect_zero(7 * r2 - 5 * r1 - 7 * b1 * (a2 + b1))
    # branch b1 = 0: r1 collapses to a negative sum of squares
    _expect_zero(_weights_at(fam_id, case, b1=0)[0] + rational(7, 2) * squares)
    # branch a2 = -b1: r1 collapses to -7/2 a1^2, so a1 = 0, and r2 follows
    _expect_zero(_weights_at(fam_id, case, a2=-b1)[0] + rational(7, 2) * a1 * a1)
    _expect_zero(_weights_at(fam_id, case, a1=0, a2=-b1)[1])
    return ({"family": fam_id,
             "solution": {"a1": "0", "a2": "0", "b1": "0"},
             "excluded": True,
             "note": "with b1 = 0 the system forces a1 = a2 = 0, so T = 0"},
            {"family": fam_id,
             "solution": {"a1": "0", "a2": "-b1"},
             "excluded": True,
             "note": "the invariance algebra jumps at a1 = 0, b1 = -a2"})


@lru_cache(maxsize=1)
def flat_operator_locus() -> tuple[dict, ...]:
    """Solve r1 = 0, kappa = 0 for the three-generator family, exactly.

    These are the parameter branches where the induced curvature operator
    vanishes identically, opening the row to every small holonomy.  The
    branching follows the factorization of kappa, with each reduction
    re-verified.
    """
    a1, b1, b2 = map(_var, ("a1", "b1", "b2"))
    # kappa factors, so kappa = 0 splits into a1 = -b1 and 3 a1 = 4 b1
    _expect_zero(_weights_at("5.1", "5.1.1")[2] - 4 * (a1 + b1) * (3 * a1 - 4 * b1))
    # branch a1 = -b1: r1 reduces to b2^2
    _expect_zero(_weights_at("5.1", "5.1.1", a1=-b1)[0] - b2 * b2)
    # branch 3 a1 = 4 b1: r1 reduces to b2^2 - 49/3 b1^2, which vanishes
    # at b2 = +-7 sqrt3/3 b1
    a1_root = rational(4, 3) * b1
    _expect_zero(_weights_at("5.1", "5.1.1", a1=a1_root)[0]
                 - (b2 * b2 - rational(49, 3) * b1 * b1))
    for sign in (1, -1):
        b2_root = sign * 7 * SQRT3 / 3 * b1
        _expect_zero(_weights_at("5.1", "5.1.1", a1=a1_root, b2=b2_root)[0])
    return (
        {"a1": "-b1", "b2": "0"},
        {"a1": "4*b1/3", "b2": "7*sqrt(3)*b1/3"},
        {"a1": "4*b1/3", "b2": "-7*sqrt(3)*b1/3"},
    )


# ---------------------------------------------------------------------------
# Lie algebra reconstruction

@dataclass
class ReconstructedAlgebra:
    """Holonomy part plus a vector part, with the bracket stored as the
    column maps ad[i] = {j: [e_i, e_j]} over both orders of i != j; a
    zero bracket is left out."""

    labels: list[str]
    ad: list[dict[int, dict[int, Scalar]]]
    jacobi_ok: bool

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def structure(self) -> dict[tuple[int, int], dict[int, Scalar]]:
        """The brackets [e_i, e_j] with i < j, keyed by (i, j)."""
        return {(i, j): col for i, cols in enumerate(self.ad)
                for j, col in cols.items() if i < j}

    def bracket_vec(self, x: dict[int, Scalar], y: dict[int, Scalar]) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for i, xi in x.items():
            for m, v in linalg.apply(self.ad[i], y).items():
                add_to(out, m, xi * v)
        return out

    def killing_nondegenerate(self) -> bool:
        """Whether the Killing form tr(ad_i ad_j) has full rank."""
        rows = []
        for p in self.ad:
            row = {}
            for j, q in enumerate(self.ad):
                tr = sum((linalg.apply(p, col).get(k, ZERO)
                          for k, col in q.items()), ZERO)
                if not tr.is_zero:
                    row[j] = tr
            rows.append(row)
        return linalg.rank(rows) == self.dim


def reconstruct_lie_algebra(t: MultiVector, r: Optional[CurvatureTensor],
                            h: list[MultiVector],
                            dims: Optional[Sequence[int]] = None) -> ReconstructedAlgebra:
    """Bracket on h + R^n: [A+X, B+Y] = ([A,B] - R(X,Y)) + (A.Y - B.X - T(X,Y)).

    A 2-form acts on a vector by A.Y = bracket(A, Y), half its rotation
    act_on_form(A, Y); T(X,Y) is the metric dual of the doubly contracted
    torsion, and curvature values are re-expressed in the h basis.  dims
    restricts the vector part to a subset of the coordinate directions;
    the bracket must close on it.  Jacobi is verified exactly and
    reported in jacobi_ok rather than raised, so a non-closing input
    still yields a bracket to inspect.
    """
    dims = list(range(1, DIM + 1)) if dims is None else list(dims)
    nv = len(dims)
    pos = {d: i for i, d in enumerate(dims)}
    nh = len(h)
    n = nh + nv
    labels = [f"h{i + 1}" for i in range(nh)] + [f"e{d}" for d in dims]

    def h_coords(w: MultiVector) -> dict[int, Scalar]:
        if w.is_zero:
            return {}
        sol = express(w, h)
        if sol is None:
            raise ValueError("curvature value escapes the holonomy span")
        return sol

    def vec_entry(d: int, c: Scalar, co: dict[int, Scalar]) -> None:
        if c.is_zero:
            return
        if d not in pos:
            raise ValueError(f"bracket leaves the chosen directions at e{d}")
        add_to(co, nh + pos[d], c)

    ad: list[dict[int, dict[int, Scalar]]] = [{} for _ in range(n)]

    def put(i: int, j: int, co: dict[int, Scalar]) -> None:
        if co:
            ad[i][j] = co
            ad[j][i] = {m: -v for m, v in co.items()}

    for a in range(nh):
        for b in range(a + 1, nh):
            put(a, b, h_coords(bracket(h[a], h[b])))
    for a in range(nh):
        for d in dims:
            co: dict[int, Scalar] = {}
            for (i,), c in bracket(h[a], E[d]).terms.items():
                vec_entry(i, c, co)
            put(a, nh + pos[d], co)
    for xi, x in enumerate(dims):
        for y in dims[xi + 1:]:
            co = {}
            if r is not None:
                rv = r.apply(MultiVector.monomial((x, y)))
                for m, v in h_coords(rv).items():
                    co[m] = -v
            for z in range(1, DIM + 1):
                vec_entry(z, -evaluate(t, [E[x], E[y], E[z]]), co)
            put(nh + pos[x], nh + pos[y], co)

    def jacobiator(i: int, j: int, k: int) -> dict[int, Scalar]:
        """sum_cyc [e_k, [e_i, e_j]], which vanishes when Jacobi holds."""
        tot: dict[int, Scalar] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in linalg.apply(ad[c], ad[a].get(b, {})).items():
                add_to(tot, m, v)
        return tot

    jacobi_ok = not any(jacobiator(i, j, k) for i in range(n)
                        for j in range(i + 1, n) for k in range(j + 1, n))
    return ReconstructedAlgebra(labels, ad, jacobi_ok)


class ReconstructionExample(NamedTuple):
    """A worked reconstruction: a torsion family at fixed parameters, the
    curvature case whose operator and holonomy enter (none when flat), the
    coordinate directions kept, and whether the Killing form of the
    rebuilt algebra is non-degenerate."""
    family: str
    params: dict
    killing: bool
    case: Optional[str] = None
    dims: Sequence[int] = range(1, DIM + 1)

    def run(self) -> tuple[MultiVector, ReconstructedAlgebra]:
        t = FAMILIES[self.family].torsion(self.params)
        r, h = ((None, []) if self.case is None else
                (build_rc(self.case, self.params), algebra(CASES[self.case].holonomy)))
        return t, reconstruct_lie_algebra(t, r, h, self.dims)


# keyed by the choices of `spin7 reconstruct --example`
RECONSTRUCTION_EXAMPLES = {
    "1": ReconstructionExample("5.1", {"a1": 1, "b1": -1, "b2": 0}, killing=False),
    "2": ReconstructionExample("5.1", {"a1": rational(4, 7), "b1": rational(3, 7), "b2": SQRT3},
                               killing=True),
    "t2": ReconstructionExample("5.2-I", {"a1": 1}, killing=True, case="5.2.2",
                                dims=range(1, 8)),
}


# ---------------------------------------------------------------------------
# splitting checks

@dataclass(frozen=True)
class SplittingResult:
    holds: bool
    plus_part: MultiVector
    minus_part: MultiVector


def _projector(basis: list[MultiVector]) -> dict[int, MultiVector]:
    """Orthogonal projection onto the span of the given 1-forms, as its
    images P(e_i) = sum_a x_a basis[a], where Gram(basis) x = <basis, e_i>."""
    k = len(basis)
    gram = [{b: g for b in range(k) if not (g := inner(basis[a], basis[b])).is_zero}
            for a in range(k)]
    if linalg.rank(gram) < k:
        raise ValueError("basis vectors are linearly dependent")
    images = {}
    for i in range(1, DIM + 1):
        x = linalg.solve(gram, [b.coeff((i,)) for b in basis])
        images[i] = sum((basis[a] * c for a, c in x.items()), MultiVector())
    return images


def _push_form(t: MultiVector, images: dict[int, MultiVector]) -> MultiVector:
    """t with every e_i replaced by its image."""
    out = MultiVector()
    for idx, coeff in t.terms.items():
        term = None
        for i in idx:
            term = images[i] if term is None else wedge(term, images[i])
        if term is not None and not term.is_zero:
            out = out + term * coeff
    return out


def splitting_check(t: MultiVector, plus: list[MultiVector],
                    minus: list[MultiVector]) -> SplittingResult:
    """Product-splitting test of a 3-form against an orthogonal frame split.

    Requires the two spans to be complementary and orthogonal.  Checks
    that mixed contractions vanish and that same-side contractions stay
    on their side, then returns the two projected parts; their sum
    recovers the input exactly when the test holds.
    """
    if len(plus) + len(minus) != DIM:
        raise ValueError("the two spans must complement each other")
    if linalg.rank([v.terms for v in plus + minus]) != DIM:
        raise ValueError("the combined spans do not fill the model space")
    for p in plus:
        for m in minus:
            if not inner(p, m).is_zero:
                raise ValueError("the two spans must be orthogonal")

    t_plus = _push_form(t, _projector(plus)) if plus else MultiVector()
    t_minus = _push_form(t, _projector(minus)) if minus else MultiVector()

    def slot(v: MultiVector, w: MultiVector) -> MultiVector:
        return contract(w, contract(v, t))

    holds = True
    for p in plus:
        for m in minus:
            if not slot(p, m).is_zero:
                holds = False
    for side in (plus, minus):
        rows = [v.terms for v in side]
        for a in range(len(side)):
            for b in range(a + 1, len(side)):
                if not linalg.in_span(rows, slot(side[a], side[b]).terms):
                    holds = False
    if holds and t != t_plus + t_minus:
        holds = False
    return SplittingResult(holds, t_plus, t_minus)


# ---------------------------------------------------------------------------
# Hermitian reassembly of the calibration form

def phi_from_hermitian() -> MultiVector:
    """Half the squared Kaehler form plus the real part of the (4,0)-form.

    Pairs the coordinates as four complex lines and rebuilds the
    calibration 4-form from that Hermitian data.
    """
    kaehler = form("e_12 + e_34 + e_56 + e_78")
    re_f, im_f = E[1], E[2]
    for a, b in ((3, 4), (5, 6), (7, 8)):
        re_f, im_f = (wedge(re_f, E[a]) - wedge(im_f, E[b]),
                      wedge(re_f, E[b]) + wedge(im_f, E[a]))
    return wedge(kaehler, kaehler) * rational(1, 2) + re_f


# ---------------------------------------------------------------------------
# family bookkeeping

def family_span_dims() -> dict[str, int]:
    """Essential dimension of the torsion space per invariance case.

    Cases whose invariance algebra also preserves a second family count
    the span of the union, so each number is the count of independent
    torsion directions available to that algebra within the families.
    """
    d_sum = form("e_246 - e_145 - e_235 - e_136")
    cases = {
        "g2": [FAMILIES["5.1"].generators[0]],
        "so3ir": [FAMILIES["5.1"].generators[0]],
        "su2+su2c": list(FAMILIES["5.1"].generators[:2]),
        "r+su2c": list(FAMILIES["5.1"].generators),
        "su3": list(FAMILIES["5.2-I"].generators) + [d_sum],
        "so3": list(FAMILIES["5.2-I"].generators) + list(FAMILIES["5.2-II"].generators),
        "u2": list(FAMILIES["5.3-I"].generators) + list(FAMILIES["5.3-II"].generators),
        "r+su2": list(FAMILIES["5.4"].generators),
    }
    return {name: linalg.rank([gen.terms for gen in gens])
            for name, gens in cases.items()}
