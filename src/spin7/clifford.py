"""Clifford multiplication on the 16-dimensional real spinor module.

The eight generators square to -1, pairwise anticommute, and act by signed
permutations of a fixed orthonormal spinor basis s_0, ..., s_15, so every
application is index shuffling with signs and stays exact.  A k-form acts
through the ascending product of its generators with no combinatorial
prefactor; that product is itself one signed permutation, composed once
per monomial and kept, so each monomial moves the spinor entries in a
single pass.

A spinor is a sparse map from basis index to coefficient that stores no
zero, so the zero spinor is the empty dict; sums go through
`scalars.add_to`, which keeps that rule.

The basis is rigged so that the Cayley 4-form acts on BASE_SPINOR with
eigenvalue -14; that spinor generates the trivial summand under the copy
of spin(7) singled out in the Lie-algebra module.
"""

from __future__ import annotations

from functools import lru_cache

from .exterior import DIM, Index, MultiVector
from .scalars import Scalar, ScalarLike, add_to

N_SPIN = 16

# sparse spinor: index in 0..15 -> coefficient
Spinor = dict[int, Scalar]

# Each generator g_i (i = 1..7) exchanges the two 8-dimensional halves of
# the spinor space through one signed permutation matrix.  Entries below
# are (row, column, sign) triples, 1-based; the matrix carries -sign at
# (row, column) and +sign at (column, row).  That orientation of the table
# is pinned by requiring the Cayley form to act on BASE_SPINOR with
# eigenvalue -14 (the other reading parks the eigenvector elsewhere).
_HALF_SPECS: dict[int, list[tuple[int, int, int]]] = {
    1: [(1, 8, 1), (2, 7, 1), (3, 6, -1), (4, 5, -1)],
    2: [(1, 7, -1), (2, 8, 1), (3, 5, 1), (4, 6, -1)],
    3: [(1, 6, -1), (2, 5, 1), (3, 8, -1), (4, 7, 1)],
    4: [(1, 5, -1), (2, 6, -1), (3, 7, -1), (4, 8, -1)],
    5: [(1, 3, -1), (2, 4, -1), (5, 7, 1), (6, 8, 1)],
    6: [(1, 4, 1), (2, 3, -1), (5, 8, -1), (6, 7, 1)],
    7: [(1, 2, 1), (3, 4, -1), (5, 6, -1), (7, 8, 1)],
}


def _build_tables() -> tuple[list[list[int]], list[list[int]]]:
    perms: list[list[int]] = [[0] * N_SPIN for _ in range(DIM + 1)]
    signs: list[list[int]] = [[0] * N_SPIN for _ in range(DIM + 1)]
    for i, spec in _HALF_SPECS.items():
        half_perm = [0] * 8
        half_sign = [0] * 8
        for r, c, s in spec:
            # entry -s at (r, c) and s at (c, r)
            half_perm[c - 1] = r - 1
            half_sign[c - 1] = -s
            half_perm[r - 1] = c - 1
            half_sign[r - 1] = s
        for k in range(8):
            # generator swaps halves, acting by the same matrix on each
            perms[i][k] = 8 + half_perm[k]
            signs[i][k] = half_sign[k]
            perms[i][8 + k] = half_perm[k]
            signs[i][8 + k] = half_sign[k]
    # eighth generator: (u, w) -> (w, -u)
    for k in range(8):
        perms[8][k] = 8 + k
        signs[8][k] = -1
        perms[8][8 + k] = k
        signs[8][8 + k] = 1
    return perms, signs


_PERM, _SIGN = _build_tables()


def basis_spinor(k: int) -> Spinor:
    return {k: Scalar(1)}


def gamma_apply(i: int, spinor: Spinor) -> Spinor:
    perm, sign = _PERM[i], _SIGN[i]
    out: Spinor = {}
    for k, v in spinor.items():
        out[perm[k]] = v if sign[k] > 0 else -v
    return out


@lru_cache(maxsize=1 << DIM)
def _monomial_action(idx: Index) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """The ascending generator product e_idx as one signed permutation:
    (perm, flip) with e_idx s_k = -s_perm[k] if flip[k] else s_perm[k]."""
    perm, flip = [], []
    for k in range(N_SPIN):
        p, negative = k, False
        for i in reversed(idx):
            negative ^= _SIGN[i][p] < 0
            p = _PERM[i][p]
        perm.append(p)
        flip.append(negative)
    return tuple(perm), tuple(flip)


def act(a: MultiVector, spinor: Spinor) -> Spinor:
    """Clifford action of a form: one signed permutation per monomial."""
    total: Spinor = {}
    for idx, coeff in a.terms.items():
        perm, flip = _monomial_action(idx)
        minus = -coeff
        for k, v in spinor.items():
            add_to(total, perm[k], v * (minus if flip[k] else coeff))
    return total


def spinor_add(x: Spinor, y: Spinor) -> Spinor:
    out = dict(x)
    for k, v in y.items():
        add_to(out, k, v)
    return out


def spinor_sub(x: Spinor, y: Spinor) -> Spinor:
    return spinor_add(x, spinor_scale(y, Scalar(-1)))


def spinor_scale(x: Spinor, factor: ScalarLike) -> Spinor:
    f = Scalar.coerce(factor)
    if f.is_zero:
        return {}
    return {k: v * f for k, v in x.items()}


# spinor annihilated by the distinguished spin(7) subalgebra
BASE_SPINOR: Spinor = {8: Scalar(1), 9: Scalar(-1)}
