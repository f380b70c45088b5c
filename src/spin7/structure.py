"""Analysis of torsion 3-forms relative to the base 4-form.

The 3-forms on R^8 split into an 8-dimensional piece, spanned by the
duals of vector wedges with the base form, and a 48-dimensional piece
killed by wedging with it.  Everything in this module is driven by that
splitting: the Lee 1-form, the two scalar curvatures, and the spinor
equations that determine the Ricci tensor of the torsion connection.

The torsion families of the classification live here as well,
as TorsionFamily records mapping parameter values to exact 3-forms and
to the closed-form Ricci diagonal they should produce.

The spinor equations all go through S = t^2 - 7|t_8|^2.  The Clifford
square of a 3-form is t^2 = |t|^2 - 2 sigma_t (Agricola, The Srni
lectures, arXiv:math/0606705), so S = (|t|^2 - 7|t_8|^2) - 2 sigma_t
acts on a spinor through one 4-form.

`ricci_solver` caches S per torsion; `sigma_report` meets streams of
distinct torsions and builds S afresh.  The splitting keeps only the last
torsion it met, so the square map, `scal_pair` and `lee_norm_identity`
project one torsion once between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Optional

from . import linalg
from .clifford import (BASE_SPINOR, N_SPIN, Spinor, act, basis_spinor,
                       gamma_apply)
from .exterior import (CAYLEY, DIM, E, MultiVector, contract, form, hodge,
                       inner, norm_sq, sigma_t, wedge)
from .liealg import invariant_spinors
from .scalars import ZERO, Scalar, ScalarLike, add_to, dot, rational

Params = Mapping[str, ScalarLike]
Ricci = dict[tuple[int, int], Scalar]  # {(i, j): Ric(e_i, e_j)} over i <= j, zero-free


# ---------------------------------------------------------------------------
# the 8 + 48 splitting of 3-forms

@lru_cache(maxsize=1)
def _vector_type_basis() -> tuple[MultiVector, ...]:
    """The eight 3-forms *(e_i ^ base form); pairwise orthogonal of norm
    squared 7, which the projection below relies on."""
    basis = tuple(hodge(wedge(E[i], CAYLEY)) for i in range(1, DIM + 1))
    seven = Scalar(7)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expected = seven if i == j else ZERO
            if inner(a, b) != expected:
                raise AssertionError("vector-type basis is not orthogonal")
    return basis


@lru_cache(maxsize=1)
def project_8_48(t: MultiVector) -> tuple[MultiVector, MultiVector]:
    """Split a 3-form into its vector-type and 48-type components.

    Only the last split is kept: the callers that read one torsion run one
    after another, while a stream of distinct torsions finds no hit, so
    every new torsion runs the wedge test.  The parts are shared between
    callers and never modified.
    """
    if t.grades() - {3}:
        raise ValueError("expected a 3-form")
    small = MultiVector()
    for b in _vector_type_basis():
        small = small + b * (inner(t, b) / 7)
    big = t - small
    if not wedge(big, CAYLEY).is_zero:
        raise AssertionError("48-type component fails its wedge test")
    return small, big


def lee_form(t: MultiVector) -> MultiVector:
    """The 1-form (6/7) * (base form ^ t) steering the W2 class."""
    return hodge(wedge(CAYLEY, t)) * rational(6, 7)


def scal_pair(t: MultiVector) -> tuple[Scalar, Scalar]:
    """Riemannian and torsion-connection scalar curvature of a parallel
    torsion form, derived from the splitting norms."""
    small, big = project_8_48(t)
    n8, n48 = norm_sq(small), norm_sq(big)
    scal_g = rational(27, 2) * n8 - rational(1, 2) * n48
    scal_c = 12 * n8 - 2 * n48
    if scal_c != scal_g - rational(3, 2) * norm_sq(t):
        raise AssertionError("scalar curvature pair violates the defect relation")
    return scal_g, scal_c


def lee_norm_identity(t: MultiVector) -> bool:
    """Norm of the Lee form against the vector-type component: the ratio
    is 36/7 for every 3-form."""
    small, _ = project_8_48(t)
    return norm_sq(lee_form(t)) == rational(36, 7) * norm_sq(small)


def contraction_identity(t: MultiVector) -> bool:
    """sum_i (e_i _| t) ^ (e_i _| (base form ^ t)) vanishes identically."""
    seven = wedge(CAYLEY, t)
    total = MultiVector()
    for i in range(1, DIM + 1):
        total = total + wedge(contract(E[i], t), contract(E[i], seven))
    return total.is_zero


# ---------------------------------------------------------------------------
# spinor equations

def _square_map(t: MultiVector, sig: MultiVector) -> dict[int, Spinor]:
    """Column images of S = t^2 - 7|t_8|^2 = (|t|^2 - 7|t_8|^2) - 2 sigma_t,
    given sig = sigma_t(t): one 4-form action per basis spinor."""
    small, _ = project_8_48(t)
    diag = norm_sq(t) - 7 * norm_sq(small)
    sig = sig * -2
    columns = {}
    for k in range(N_SPIN):
        col = act(sig, basis_spinor(k))
        add_to(col, k, diag)
        if col:
            columns[k] = col
    return columns


def sigma_report(t: MultiVector) -> dict:
    """Where the contracted-square identity and the square condition hold.

    The identity -4 (X _| sigma) psi = (t^2 - 7|t_8|^2) X psi over all
    basis vectors X singles out exactly the spinors satisfying the
    square condition t^2 psi = 7|t_8|^2 psi: for a generic 3-form no
    spinor passes, while the torsion forms of the classification pass on
    their invariant spinors.  Both verdicts are recorded per basis
    spinor and for the base spinor, so callers can compare the two.
    """
    sig = sigma_t(t)
    contractions = [contract(E[i], sig) * -4 for i in range(1, DIM + 1)]
    square = _square_map(t, sig)

    def square_ok(psi: Spinor) -> bool:
        return not linalg.apply(square, psi)

    def identity_ok(psi: Spinor) -> bool:
        for i in range(1, DIM + 1):
            if act(contractions[i - 1], psi) != linalg.apply(square, gamma_apply(i, psi)):
                return False
        return True

    basis = [basis_spinor(k) for k in range(N_SPIN)]
    return {
        "basis_identity": [identity_ok(s) for s in basis],
        "basis_square": [square_ok(s) for s in basis],
        "base_identity": identity_ok(BASE_SPINOR),
        "base_square": square_ok(BASE_SPINOR),
    }


@lru_cache(maxsize=None)
def _spinor_frames(
        h: tuple[MultiVector, ...]) -> tuple[tuple[Spinor, tuple[Spinor, ...], Scalar], ...]:
    """Per h-invariant spinor psi: psi, its Clifford images e_1 psi, ...,
    e_8 psi, and 1 / (-4 |psi|^2).  They depend on h alone."""
    frames = []
    for psi in invariant_spinors(list(h)):
        images = tuple(gamma_apply(j, psi) for j in range(1, DIM + 1))
        frames.append((psi, images, (-4 * dot(psi, psi)).inverse()))
    return tuple(frames)


@lru_cache(maxsize=32)
def _torsion_square(t: MultiVector) -> dict[int, Spinor]:
    """The square map of t, shared by every candidate holonomy solved
    against the same torsion.  Bounded: one classification pass meets 22
    torsions."""
    return _square_map(t, sigma_t(t))


def ricci_solver(t: MultiVector, h: list[MultiVector]) -> Optional[Ricci]:
    """Solve the torsion equations for the Ricci tensor of the torsion
    connection, given a candidate holonomy algebra h.

    Every h-invariant spinor psi and every basis vector e_k contribute the
    equation -4 Ric(e_k) psi = S e_k psi with
    S = t^2 - 7|t_8|^2 = (|t|^2 - 7|t_8|^2) - 2 sigma_t (Agricola,
    arXiv:math/0606705), preceded by the square condition S psi = 0.
    The generators act by skew signed permutations and pairwise
    anticommute, so the eight spinors e_j psi are pairwise orthogonal
    with |e_j psi|^2 = |psi|^2.  The equation for e_k therefore forces
    Ric(e_k, e_j) = <S e_k psi, e_j psi> / (-4 |psi|^2): one invariant
    spinor fixes every unknown.  The entries i <= j are read off the
    first invariant spinor, and the system is consistent exactly when the
    residual S e_k psi + 4 sum_j Ric(e_k, e_j) e_j psi vanishes for every
    invariant spinor psi and every k.  Returns the zero-free map
    {(i, j): Ric(e_i, e_j)} over i <= j in ascending order, or None when
    the system is inconsistent.

    The decisions of the classification solve one witness torsion against
    several candidate holonomies, so the work is kept on both sides: S per
    torsion (`_torsion_square`, bounded) and the invariant spinors with
    their Clifford images per holonomy (`_spinor_frames`).  Both are
    shared between callers and never modified.
    """
    frames = _spinor_frames(tuple(h))
    square = _torsion_square(t)
    if any(linalg.apply(square, psi) for psi, _, _ in frames):
        return None
    if not frames:
        return {}

    _, first, scale = frames[0]
    ric: Ricci = {}
    for k in range(1, DIM + 1):
        target = linalg.apply(square, first[k - 1])
        for j in range(k, DIM + 1):
            value = dot(target, first[j - 1]) * scale
            if not value.is_zero:
                ric[(k, j)] = value
    for _, images, _ in frames:
        for k in range(1, DIM + 1):
            residual = linalg.apply(square, images[k - 1])
            for j in range(1, DIM + 1):
                value = ric.get((min(j, k), max(j, k)))
                if value is not None:
                    for s, v in images[j - 1].items():
                        add_to(residual, s, 4 * value * v)
            if residual:
                return None
    return ric


def diagonal(ric: Ricci) -> list[Scalar]:
    return [ric.get((i, i), ZERO) for i in range(1, DIM + 1)]


def is_diagonal(ric: Ricci) -> bool:
    return all(i == j for i, j in ric)


# ---------------------------------------------------------------------------
# the torsion families of the classification

@dataclass(frozen=True)
class TorsionFamily:
    """A linear family of torsion forms with its closed-form Ricci data.

    generators pair off with params: the torsion at a parameter
    assignment is the sum of value * generator.  ricci_diag returns the
    expected diagonal of the characteristic Ricci tensor, which the
    spinor solver must reproduce independently.  closed_form is that
    diagonal as a function of the parameter values; it only adds and
    multiplies them, so the exact eliminations evaluate it at
    polynomials.
    """

    family_id: str
    iso_name: str
    params: tuple[str, ...]
    generators: tuple[MultiVector, ...]
    closed_form: Callable[[dict[str, Scalar]], list[Scalar]] = field(repr=False)

    def values(self, assignment: Params) -> dict[str, Scalar]:
        out = {}
        for name in self.params:
            if name not in assignment:
                raise KeyError(f"missing parameter {name!r}")
            out[name] = Scalar.coerce(assignment[name])
        extra = set(assignment) - set(self.params)
        if extra:
            raise KeyError(f"unknown parameters {sorted(extra)}")
        return out

    def torsion(self, assignment: Params) -> MultiVector:
        vals = self.values(assignment)
        total = MultiVector()
        for name, gen in zip(self.params, self.generators):
            total = total + gen * vals[name]
        return total

    def ricci_diag(self, assignment: Params) -> list[Scalar]:
        return self.closed_form(self.values(assignment))


def _diag_5_1(v: dict[str, Scalar]) -> list[Scalar]:
    a1, b1, b2 = v["a1"], v["b1"], v["b2"]
    lam = 3 * (a1 + b1) * (4 * a1 - 3 * b1) - b2 * b2
    kap = 4 * (a1 + b1) * (3 * a1 - 4 * b1)
    return [lam, lam, lam, lam, kap, kap, kap, ZERO]


def _diag_5_2_i(v: dict[str, Scalar]) -> list[Scalar]:
    lam = 2 * v["a1"] * v["a1"]
    return [lam] * 6 + [ZERO, ZERO]


def _diag_5_2_ii(v: dict[str, Scalar]) -> list[Scalar]:
    a1, a2, b1 = v["a1"], v["a2"], v["b1"]
    lam = 4 * a1 * a1 + 4 * (2 * a2 + b1) * (5 * a2 - b1)
    return [lam] * 6 + [ZERO, ZERO]


def _diag_5_3_i(v: dict[str, Scalar]) -> list[Scalar]:
    a1, a2, b1 = v["a1"], v["a2"], v["b1"]
    lam = 6 * a1 * a1 + (a2 + b1) * (6 * a2 - b1)
    kap = 10 * a1 * a1 + 2 * (a2 + b1) * (5 * a2 - 2 * b1)
    return [lam, lam, lam, lam, kap, kap, ZERO, ZERO]


def _diag_5_3_ii(v: dict[str, Scalar]) -> list[Scalar]:
    a1, a2, b1 = v["a1"], v["a2"], v["b1"]
    sq = a1 * a1 + a2 * a2
    lam = rational(45, 4) * sq - 2 * a2 * b1 - b1 * b1
    kap = rational(33, 4) * sq - 8 * a2 * b1 - 4 * b1 * b1
    return [lam, lam, lam, lam, kap, kap, ZERO, ZERO]


def _diag_5_4(v: dict[str, Scalar]) -> list[Scalar]:
    b1 = v["b1"]
    neg = -4 * b1 * b1
    return [ZERO, ZERO, ZERO, ZERO, neg, neg, ZERO, ZERO]


# building blocks: the Kaehler-type 2-forms of the coordinate pairing
# (12)(34)(56) and the real and imaginary parts of the complex volume
# form on span(e_1, ..., e_6)
_K4 = form("e_12 + e_34")
_A56 = form("e_56")
_F4 = form("e_12 - e_34")
_K6 = _K4 + _A56
_VOL6_RE = form("e_135 - e_146 - e_236 - e_245")
_VOL6_IM = form("e_136 + e_145 + e_235 - e_246")

_SEVEN_FORM = wedge(_K6, E[7]) - _VOL6_IM          # the 7-dim cross-product form


FAMILIES: dict[str, TorsionFamily] = {
    f.family_id: f for f in (
        TorsionFamily(
            "5.1", "r+su2c", ("a1", "b1", "b2"),
            (_SEVEN_FORM,
             wedge(_K4 - 6 * _A56, E[7]) - _VOL6_IM,
             wedge(_F4, E[8])),
            _diag_5_1),
        TorsionFamily(
            "5.2-I", "su3", ("a1",),
            (wedge(_K6, E[7]),),
            _diag_5_2_i),
        TorsionFamily(
            "5.2-II", "so3", ("a1", "a2", "b1"),
            (-1 * _VOL6_RE,
             form("2*e_246 - 2*e_145 - 5*e_235 - 5*e_136 + 3*e_123 - 3*e_356"),
             form("e_246 - e_145 + e_235 + e_136 - 2*e_123 + 2*e_356")),
            _diag_5_2_ii),
        TorsionFamily(
            "5.3-I", "u2", ("a1", "a2", "b1"),
            (wedge(_K4 + 5 * _A56, E[8]),
             wedge(_K4 + 5 * _A56, E[7]),
             wedge(_K4 - 2 * _A56, E[7])),
            _diag_5_3_i),
        TorsionFamily(
            "5.3-II", "u2", ("a1", "a2", "b1"),
            (wedge(_K4 - 2 * _A56, E[8]) - rational(7, 4) * _VOL6_RE,
             wedge(_K4 - 2 * _A56, E[7]) - rational(7, 4) * _VOL6_IM,
             wedge(_K4 - 2 * _A56, E[7])),
            _diag_5_3_ii),
        TorsionFamily(
            "5.4", "r+su2", ("b1",),
            (form("-e_135 + e_245 - e_146 - e_236"),),
            _diag_5_4),
    )
}
