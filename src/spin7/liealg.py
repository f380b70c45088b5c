"""so(8) as 2-forms, the stabilizer algebra of the base spinor, and its
catalog of subalgebras.

A 2-form w acts on vectors by the infinitesimal rotation rho(w), stored as
column images: a term c e_ij of w sends e_i to 2c e_j and e_j to -2c e_i.
The factor 2 is fixed so that the Clifford commutator [act(w), act(x)]
equals the Clifford action of the derivation of x by w, for forms and
spinors alike.  The bracket of 2-forms is half that derivation,
[a, b] = act_on_form(a, b) / 2, which is the commutator of the skew
matrices rho(a) / 2 and rho(b) / 2.

The stabilizer of BASE_SPINOR is the 21-dimensional copy of spin(7) spanned
by SPIN7_BASIS, graded by the chain su(3) < g2 < spin(7).  algebra() builds
the named subalgebras used by the classification recipes.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .clifford import BASE_SPINOR, N_SPIN, Spinor, act, basis_spinor
from .exterior import (DIM, KAHLER, Index, MultiVector, form, merge_sign,
                       monomials)
from .scalars import ZERO, Scalar, ScalarLike, SQRT15, add_to, rational

def bracket(a: MultiVector, b: MultiVector) -> MultiVector:
    return act_on_form(a, b) * rational(1, 2)


def act_on_form(w: MultiVector, a: MultiVector) -> MultiVector:
    """Derivation extension of the rotation rho(w) to any multivector."""
    cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(DIM + 1)]
    for (i, j), c in w.terms.items():
        two_c = c * 2
        cols[i].append((j, two_c))
        cols[j].append((i, -two_c))
    terms: dict[tuple[int, ...], Scalar] = {}
    for idx, c in a.terms.items():
        for p, i in enumerate(idx):
            rest = idx[:p] + idx[p + 1:]
            for r, v in cols[i]:
                # e_r in slot p of idx: sort (r,) + rest, then move e_r
                # back past the p factors in front of that slot
                key, sign = merge_sign((r,), rest)
                if p % 2:
                    sign = -sign
                if sign:
                    add_to(terms, key, c * v if sign > 0 else -(c * v))
    return MultiVector(terms)


def rotation(w: MultiVector, grade: int) -> dict[Index, linalg.Row]:
    """Column images of act_on_form(w, .) on the coordinate forms of a grade."""
    columns = {}
    for idx in monomials(grade):
        image = act_on_form(w, MultiVector.monomial(idx)).terms
        if image:
            columns[idx] = image
    return columns


def is_invariant_form(generators: list[MultiVector], a: MultiVector) -> bool:
    return all(act_on_form(w, a).is_zero for w in generators)


# ---------------------------------------------------------------------------
# linear-algebra helpers, with the terms of each form as its coordinates

def express(target: MultiVector, basis: list[MultiVector]):
    """Coefficients of target in the span of basis, or None."""
    rows = linalg.transpose({i: b.terms for i, b in enumerate(basis)})
    t = target.terms
    keys = sorted(set(rows) | set(t))
    return linalg.solve([rows.get(j, {}) for j in keys], [t.get(j, ZERO) for j in keys])


def span_dim(vectors: list[MultiVector]) -> int:
    return linalg.rank([v.terms for v in vectors])


def same_span(a: list[MultiVector], b: list[MultiVector]) -> bool:
    return linalg.span_equal([v.terms for v in a], [v.terms for v in b])


def in_span(v: MultiVector, basis: list[MultiVector]) -> bool:
    return linalg.in_span([b.terms for b in basis], v.terms)


def is_subalgebra(basis: list[MultiVector]) -> bool:
    ech = linalg.echelon([b.terms for b in basis])
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not ech.contains(bracket(basis[i], basis[j]).terms):
                return False
    return True


def invariant_forms(generators: list[MultiVector], grade: int) -> list[MultiVector]:
    """Basis of the joint kernel of act_on_form on the given grade."""
    columns = {}
    for idx in monomials(grade):
        a = MultiVector.monomial(idx)
        columns[idx] = {(g, k): v for g, w in enumerate(generators)
                        for k, v in act_on_form(w, a).terms.items()}
    return [MultiVector(r) for r in linalg.kernel(columns, monomials(grade))]


def invariant_spinors(generators: list[MultiVector]) -> list[Spinor]:
    columns = {col: {(g, k): v for g, w in enumerate(generators)
                     for k, v in act(w, basis_spinor(col)).items()}
               for col in range(N_SPIN)}
    return linalg.kernel(columns, range(N_SPIN))


def stabilizer_in_spin7(a: MultiVector) -> list[MultiVector]:
    """Basis of {w in spin(7) : act_on_form(w, a) = 0}."""
    columns = {i: act_on_form(w, a).terms for i, w in enumerate(SPIN7_BASIS)}
    out = []
    for r in linalg.kernel(columns, range(len(SPIN7_BASIS))):
        w = MultiVector()
        for i, c in r.items():
            w = w + SPIN7_BASIS[i] * c
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# the stabilizer algebra of BASE_SPINOR and its subalgebra catalog

# su(3) tier: rotations fixing the complex structure of C^3 (+) C and the
# base spinor; the last two span the diagonal torus
_SU3 = [form(s) for s in (
    "e_35 + e_46",
    "e_36 - e_45",
    "e_15 + e_26",
    "e_16 - e_25",
    "e_13 + e_24",
    "e_14 - e_23",
    "e_12 - e_34",
    "e_34 - e_56",
)]

# g2 tier: six more rotations moving e_7, completing su(3) to g2
_G2X = [form(s) for s in (
    "2*e_17 - e_35 + e_46",
    "2*e_27 + e_36 + e_45",
    "2*e_37 + e_15 - e_26",
    "2*e_47 - e_16 - e_25",
    "2*e_57 - e_13 + e_24",
    "2*e_67 + e_14 + e_23",
)]

# spin(7) tier: seven more rotations moving e_8
_S7X = [form(s) for s in (
    "e_18 - e_27",
    "e_28 + e_17",
    "e_38 - e_47",
    "e_48 + e_37",
    "e_58 - e_67",
    "e_68 + e_57",
    "e_78 - e_56",
)]

SPIN7_BASIS: list[MultiVector] = _SU3 + _G2X + _S7X


def in_stabilizer(w: MultiVector) -> bool:
    """Whether a 2-form annihilates the base spinor."""
    return not act(w, BASE_SPINOR)


def membership_equations(w: MultiVector) -> list[Scalar]:
    """The seven linear residues that vanish exactly when a 2-form lies in
    the stabilizer of the base spinor.

    Each residue ties the coefficient on an e_i8 plane to three
    coefficients of planes inside span(e_1, ..., e_7).
    """
    c = {}
    for (i, j), v in w.terms.items():
        c[(i, j)] = v

    def g(i: int, j: int) -> Scalar:
        return c.get((i, j), ZERO)

    return [
        g(1, 8) + g(2, 7) - g(3, 6) - g(4, 5),
        g(2, 8) - g(1, 7) - g(3, 5) + g(4, 6),
        g(3, 8) + g(1, 6) + g(2, 5) + g(4, 7),
        g(4, 8) + g(1, 5) - g(2, 6) - g(3, 7),
        g(5, 8) - g(1, 4) - g(2, 3) + g(6, 7),
        g(6, 8) - g(1, 3) + g(2, 4) - g(5, 7),
        g(7, 8) + g(1, 2) + g(3, 4) + g(5, 6),
    ]


@lru_cache(maxsize=None)
def _catalog() -> dict[str, tuple[MultiVector, ...]]:
    p = _SU3
    q = _G2X
    s = _S7X
    # recurring combinations: the two torus generators and their tilde twin
    t_a = p[6]                       # e_12 - e_34
    t_b = p[6] + 2 * p[7]            # e_12 + e_34 - 2 e_56
    t_bt = t_b - 4 * s[6]            # e_12 + e_34 + 2 e_56 - 4 e_78
    c = {
        "spin7": tuple(SPIN7_BASIS),
        "g2": tuple(p + q),
        "su3": tuple(p),
        "su2+su2c": (p[4], p[5], t_a, t_b, q[4], q[5]),
        "u2": (t_b, p[4], p[5], t_a),
        "r+su2c": (t_a, t_b, q[4], q[5]),
        "r+su2": (t_bt, p[4], p[5], t_a),
        "so3": (p[0] + p[4], p[1] + p[5], p[6] + p[7]),
        "so3diag": (p[4] + q[4], p[5] + q[5], 2 * (p[6] + p[7])),
        "so3ir": (p[4] - SQRT15 * rational(1, 5) * q[1],
                  p[5] + SQRT15 * rational(1, 5) * q[0],
                  p[6] + 3 * p[7]),
        "su2": (p[4], p[5], t_a),
        "su2c": (t_b, q[4], q[5]),
        "t2": (t_a, t_b),
        "t2tilde": (t_a, t_bt),
        "zero": (),
    }
    return c


CATALOG_NAMES = ("g2", "su3", "su2+su2c", "u2", "r+su2c", "r+su2", "so3",
                 "so3diag", "so3ir", "su2", "su2c", "t2", "t2tilde",
                 "t1", "t1tilde", "zero", "spin7")


def algebra(name: str, k: ScalarLike = 1, l: ScalarLike = 0) -> list[MultiVector]:
    """Catalog subalgebras of spin(7); t1 and t1tilde take slope (k, l)."""
    cat = _catalog()
    if name in cat:
        return list(cat[name])
    if name == "su4":
        return list(_su4())
    kk, ll = Scalar.coerce(k), Scalar.coerce(l)
    if name == "t1":
        gen = kk * cat["t2"][0] + ll * cat["t2"][1]
    elif name == "t1tilde":
        gen = kk * cat["t2tilde"][0] + ll * cat["t2tilde"][1]
    else:
        raise KeyError(f"unknown algebra {name!r}")
    if gen.is_zero:
        raise ValueError("t1 slope (k, l) must be nonzero")
    return [gen]


def algebra_by_label(label: str) -> tuple[str, list[MultiVector]]:
    """`algebra` by name, or by "t1[k,l]" or "t1tilde[k,l]" for the line
    of slope (k, l), with the label written without blanks around the
    slope values.  A slope on any other name is a ValueError."""
    name, bracket, rest = label.partition("[")
    if not bracket:
        return name, algebra(name)
    if name not in ("t1", "t1tilde"):
        raise ValueError(f"only t1 and t1tilde take a slope, got {label!r}")
    inside, close, tail = rest.partition("]")
    if not close or tail:
        raise ValueError(f"a slope label ends in one ']', got {label!r}")
    slope = inside.split(",")
    if len(slope) != 2:
        raise ValueError(f"a slope label holds two values, got {label!r}")
    shown = ",".join(v.strip() for v in slope)
    return f"{name}[{shown}]", algebra(name, *map(Scalar.parse, slope))


@lru_cache(maxsize=None)
def _su4() -> tuple[MultiVector, ...]:
    """su(4) inside the base-spinor stabilizer: the 2-forms whose rotation
    fixes the Kaehler form of the pairing (12)(34)(56)(78), which is to
    say commutes with its complex structure."""
    columns = {}
    for idx in monomials(2):
        w = MultiVector.monomial(idx)
        image = {("form", k): v for k, v in act_on_form(w, KAHLER).terms.items()}
        image.update((("spinor", k), v) for k, v in act(w, BASE_SPINOR).items())
        columns[idx] = image
    return tuple(MultiVector(r) for r in linalg.kernel(columns, monomials(2)))


def iso_algebra(t: MultiVector) -> tuple[str, list[MultiVector]]:
    """Stabilizer of a 3-form inside spin(7), with its catalog name.

    Returns ("unnamed", basis) when the stabilizer matches no catalog
    entry; one-dimensional stabilizers inside either maximal torus are
    reported as "t1" or "t1tilde".
    """
    basis = stabilizer_in_spin7(t)
    dim = len(basis)
    cat = _catalog()
    for name in CATALOG_NAMES:
        if name in ("t1", "t1tilde"):
            continue
        fixed = list(cat[name])
        if len(fixed) == dim and same_span(basis, fixed):
            return name, basis
    if dim == 1:
        if in_span(basis[0], list(cat["t2"])):
            return "t1", basis
        if in_span(basis[0], list(cat["t2tilde"])):
            return "t1tilde", basis
    return "unnamed", basis
