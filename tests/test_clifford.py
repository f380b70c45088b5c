import random

from spin7.clifford import (BASE_SPINOR, N_SPIN, _monomial_action, act,
                            basis_spinor, gamma_apply, spinor_add,
                            spinor_scale, spinor_sub)
from spin7.exterior import CAYLEY, DIM, form, monomials
from spin7.liealg import CATALOG_NAMES, algebra, invariant_spinors
from spin7.scalars import SQRT3, ZERO, Scalar, dot, rational


def test_generators_square_to_minus_one():
    for i in range(1, DIM + 1):
        for k in range(N_SPIN):
            s = basis_spinor(k)
            assert gamma_apply(i, gamma_apply(i, s)) == \
                spinor_scale(s, Scalar(-1))


def test_distinct_generators_anticommute():
    for i, j in ((1, 2), (3, 7), (2, 8), (5, 6)):
        for k in range(N_SPIN):
            s = basis_spinor(k)
            lhs = gamma_apply(i, gamma_apply(j, s))
            rhs = gamma_apply(j, gamma_apply(i, s))
            assert spinor_add(lhs, rhs) == {}


def test_basis_spinors_are_orthonormal():
    for a in range(N_SPIN):
        for b in range(N_SPIN):
            want = Scalar(1 if a == b else 0)
            assert dot(basis_spinor(a), basis_spinor(b)) == want


_COEFFS = [Scalar(1), Scalar(-3), rational(2, 5), SQRT3, 1 - SQRT3]


def test_clifford_images_of_a_spinor_are_orthogonal():
    # the premise of the Ricci read-off in `structure.ricci_solver`: the
    # e_i psi are pairwise orthogonal, each of norm squared |psi|^2
    rng = random.Random(5)
    spinors = [psi for name in CATALOG_NAMES for psi in invariant_spinors(algebra(name))]
    spinors += [{k: rng.choice(_COEFFS) for k in rng.sample(range(N_SPIN), rng.randint(1, 5))}
                for _ in range(60)]
    for psi in spinors:
        images = [gamma_apply(i, psi) for i in range(1, DIM + 1)]
        norm = dot(psi, psi)
        for i, x in enumerate(images):
            for j, y in enumerate(images):
                assert dot(x, y) == (norm if i == j else ZERO), (psi, i + 1, j + 1)


def test_form_action_composes_generator_actions():
    s = basis_spinor(5)
    via_form = act(form("e_27"), s)
    via_gammas = gamma_apply(2, gamma_apply(7, s))
    assert via_form == via_gammas
    mixed = act(form("e_135 + 2*e_2"), s)
    by_hand = spinor_add(
        gamma_apply(1, gamma_apply(3, gamma_apply(5, s))),
        spinor_scale(gamma_apply(2, s), Scalar(2)))
    assert mixed == by_hand


def test_each_monomial_permutation_squares_to_its_sign():
    # (e_i1 ... e_ik)^2 = (-1)^(k(k-1)/2) (-1)^k: k(k-1)/2 swaps, k squares
    for grade in range(DIM + 1):
        want = (-1) ** (grade * (grade + 1) // 2)
        for idx in monomials(grade):
            perm, flip = _monomial_action(idx)
            for k in range(N_SPIN):
                assert perm[perm[k]] == k, (idx, k)
                assert (-1) ** (flip[k] + flip[perm[k]]) == want, (idx, k)


def test_base_spinor_is_calibrated():
    assert act(CAYLEY, BASE_SPINOR) == spinor_scale(BASE_SPINOR, Scalar(-14))


def test_spinor_arithmetic_helpers():
    x = {0: Scalar(1), 3: rational(1, 2)}
    y = {3: rational(1, 2), 7: Scalar(-2)}
    total = spinor_add(x, y)
    assert total == {0: Scalar(1), 3: Scalar(1), 7: Scalar(-2)}
    assert spinor_sub(total, y) == x
    assert spinor_sub(x, x) == {}
    assert spinor_scale(x, Scalar(0)) == {}
