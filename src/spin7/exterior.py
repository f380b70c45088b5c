"""Sparse exterior algebra of R^8 over Q(sqrt3, sqrt5).

A multivector is a map from strictly increasing index tuples (subsets of
1..8) to scalars; the empty tuple carries the grade-0 part.  The basis
e_1, ..., e_8 is declared orthonormal, vectors and covectors are
identified, and the volume form is e_12345678.  With those conventions the
Hodge star satisfies a ^ star(b) = inner(a, b) * vol on each grade.

The map stores no zero coefficient, so a multivector is zero exactly when
it has no terms; every sum goes through `scalars.add_to`, which keeps
that rule.  The terms are the form's coordinates: `linalg` takes them as
sparse rows keyed by the index tuples, with no renumbering.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .scalars import ZERO, Scalar, ScalarLike, add_to, dot, parse_terms

DIM = 8
Index = tuple[int, ...]


def merge_sign(left: Index, right: Index) -> tuple[Index, int]:
    """Sort the concatenation of two ascending tuples.

    Returns the sorted tuple and the sign of the sorting permutation,
    (-1)^(number of pairs with the left index above the right one), or
    ((), 0) when an index repeats.  With no such pair the concatenation
    is already sorted.
    """
    odd = 0
    for b in right:
        k = bisect_left(left, b)
        if k < len(left) and left[k] == b:
            return (), 0
        odd += len(left) - k
    merged = left + right
    return tuple(sorted(merged)) if odd else merged, -1 if odd & 1 else 1


def _sort_sign(idx: Iterable[int]) -> tuple[Index, int]:
    """idx sorted, merged in one index at a time, with the sign of the
    sorting permutation; ((), 0) when an index repeats."""
    key, sign = (), 1
    for i in idx:
        key, s = merge_sign(key, (i,))
        sign *= s
    return key, sign


class MultiVector:
    """Immutable-by-convention sparse element of Lambda^*(R^8)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Index, Scalar] | None = None) -> None:
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero}

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff: ScalarLike = 1) -> MultiVector:
        idx = tuple(indices)
        if any(not 1 <= i <= DIM for i in idx):
            raise ValueError(f"indices out of range: {idx}")
        key, sign = _sort_sign(idx)
        c = Scalar.coerce(coeff)
        return cls({key: c if sign > 0 else -c} if sign else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def grades(self) -> set[int]:
        return {len(k) for k in self.terms}

    def coeff(self, indices: Iterable[int]) -> Scalar:
        key, sign = _sort_sign(indices)
        v = self.terms.get(key, ZERO) if sign else ZERO
        return v if sign >= 0 else -v

    def __add__(self, other: MultiVector) -> MultiVector:
        terms = dict(self.terms)
        for k, v in other.terms.items():
            add_to(terms, k, v)
        return MultiVector(terms)

    def __sub__(self, other: MultiVector) -> MultiVector:
        return self + (-other)

    def __neg__(self) -> MultiVector:
        return MultiVector({k: -v for k, v in self.terms.items()})

    def __mul__(self, factor: ScalarLike) -> MultiVector:
        f = Scalar.coerce(factor)
        if f.is_zero:
            return MultiVector()
        return MultiVector({k: v * f for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple[Index, Scalar]]:
        return iter(sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])))

    def __repr__(self) -> str:
        return f"MultiVector({format_form(self)!r})"

    def __str__(self) -> str:
        return format_form(self)


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    terms: dict[Index, Scalar] = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            merged, sign = merge_sign(ka, kb)
            if sign == 0:
                continue
            add_to(terms, merged, va * vb if sign > 0 else -(va * vb))
    return MultiVector(terms)


def contract(x: MultiVector, a: MultiVector) -> MultiVector:
    """Interior product x -| a for a 1-vector x: e_i -| e_ij = e_j."""
    for k in x.terms:
        if len(k) != 1:
            raise ValueError("contract expects a grade-1 first argument")
    terms: dict[Index, Scalar] = {}
    for (i,), vx in x.terms.items():
        for ka, va in a.terms.items():
            if i not in ka:
                continue
            pos = ka.index(i)
            rest = ka[:pos] + ka[pos + 1:]
            v = vx * va
            add_to(terms, rest, -v if pos % 2 else v)
    return MultiVector(terms)


def inner(a: MultiVector, b: MultiVector) -> Scalar:
    """Inner product making the basis monomials orthonormal."""
    return dot(a.terms, b.terms)


def norm_sq(a: MultiVector) -> Scalar:
    return inner(a, a)


_FULL = tuple(range(1, DIM + 1))


def hodge(a: MultiVector) -> MultiVector:
    """Hodge star fixed by a ^ star(a) = inner(a, a) * vol."""
    terms: dict[Index, Scalar] = {}
    for k, v in a.terms.items():
        comp = tuple(i for i in _FULL if i not in k)
        _, sign = merge_sign(k, comp)
        terms[comp] = v if sign > 0 else -v
    return MultiVector(terms)


def evaluate(a: MultiVector, vectors: list[MultiVector]) -> Scalar:
    """a(v_1, ..., v_k) in the determinant convention (no 1/k!)."""
    out = a
    for v in vectors:
        out = contract(v, out)
    return out.terms.get((), Scalar(0))


def sigma_t(t: MultiVector) -> MultiVector:
    """The 4-form (1/2) sum_i (e_i -| t) ^ (e_i -| t) of a 3-form t."""
    total = MultiVector()
    for i in range(1, DIM + 1):
        c = contract(E[i], t)
        total = total + wedge(c, c)
    return total * Fraction(1, 2)


# ---------------------------------------------------------------------------
# basis vectors

E = {i: MultiVector.monomial((i,)) for i in range(1, DIM + 1)}
VOL = MultiVector.monomial(_FULL)


# ---------------------------------------------------------------------------
# the basis of a grade, in the order `linalg` pivots on

@lru_cache(maxsize=None)
def monomials(grade: int) -> tuple[Index, ...]:
    return tuple(itertools.combinations(range(1, DIM + 1), grade))


# ---------------------------------------------------------------------------
# string round-trip

def format_form(a: MultiVector) -> str:
    return format_terms(("e_" + "".join(map(str, k)) if k else "", v) for k, v in a)


def format_terms(terms: Iterable[tuple[str, Scalar]]) -> str:
    """'c*x - d*y + ...' of (label, coefficient) pairs, in the grammar that
    `form` reads, with '' labelling a scalar; '0' for no pairs."""
    chunks = []
    for label, v in terms:
        # a coefficient with one coordinate shows its sign outside
        single = sum(1 for x in (v.a, v.b, v.c, v.d) if x) == 1
        negative = single and v.sign() < 0
        body = str(-v if negative else v) if single else f"({v})"
        if label:
            body = label if body == "1" else f"{body}*{label}"
        if chunks:
            chunks.append(f"- {body}" if negative else f"+ {body}")
        else:
            chunks.append(f"-{body}" if negative else body)
    return " ".join(chunks) or "0"


def form(text: str) -> MultiVector:
    """Parse '1/2*e_12 - sqrt3*e_34 + (1 + sqrt5)*e_56 + 2'."""
    terms = parse_terms(text)
    return sum((MultiVector.monomial(k, v) for k, v in terms.items()), MultiVector())


# ---------------------------------------------------------------------------
# distinguished forms; coordinates are paired (12)(34)(56)(78) into C^4

# Kaehler form of R^8 = C^4
KAHLER = form("e_12 + e_34 + e_56 + e_78")

# real part of the complex volume form (e1+ie2)^(e3+ie4)^(e5+ie6)^(e7+ie8)
CPLX_VOL_RE = form(
    "e_1357 - e_2457 - e_2367 - e_2358 - e_1467 - e_1458 - e_1368 + e_2468"
)

# self-dual Cayley 4-form whose stabilizer is the Spin(7) fixed throughout
CAYLEY = wedge(KAHLER, KAHLER) * Fraction(1, 2) + CPLX_VOL_RE
