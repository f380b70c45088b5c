import random

import pytest

from spin7.clifford import act
from spin7.exterior import CAYLEY, E, form, inner
from spin7.liealg import (CATALOG_NAMES, SPIN7_BASIS, act_on_form,
                          algebra, bracket,
                          express, in_span, in_stabilizer, invariant_forms,
                          invariant_spinors, iso_algebra,
                          membership_equations, span_dim, is_subalgebra)
from spin7.scalars import Scalar, rational


def test_kernel_basis_has_21_independent_members():
    assert len(SPIN7_BASIS) == 21
    assert span_dim(SPIN7_BASIS) == 21
    for w in SPIN7_BASIS:
        assert in_stabilizer(w)
        assert all(v.is_zero for v in membership_equations(w))


def test_single_monomial_generators_fall_outside_the_kernel():
    for text in ("e_12", "e_78", "e_17"):
        w = form(text)
        assert not in_stabilizer(w)
        assert any(not v.is_zero for v in membership_equations(w))


def test_bracket_is_a_lie_bracket():
    rng = random.Random(8)
    picks = [SPIN7_BASIS[rng.randrange(21)] for _ in range(6)]
    for a, b in zip(picks[::2], picks[1::2]):
        assert bracket(a, b) == -1 * bracket(b, a)
    a, b, c = picks[0], picks[2], picks[4]
    jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
           + bracket(c, bracket(a, b)))
    assert jac.is_zero


def test_two_form_action_is_skew_on_vectors():
    w = SPIN7_BASIS[3]
    for i, j in ((1, 2), (3, 8), (5, 6)):
        lhs = inner(act_on_form(w, E[i]), E[j])
        rhs = inner(E[i], act_on_form(w, E[j]))
        assert lhs == -1 * rhs


def test_action_respects_the_stabilized_form():
    for w in SPIN7_BASIS[:4]:
        assert act_on_form(w, CAYLEY).is_zero


def test_catalog_membership_and_closure():
    for name in CATALOG_NAMES:
        if name in ("t1", "t1tilde"):
            gens = algebra(name, 1, 2)
        else:
            gens = algebra(name)
        assert is_subalgebra(gens)
        for w in gens:
            assert in_stabilizer(w)


def test_t1_slopes_select_distinct_lines():
    a = algebra("t1", 1, 0)[0]
    b = algebra("t1", 0, 1)[0]
    assert not in_span(b, [a])
    assert in_span(algebra("t1", 2, 0)[0], [a])
    with pytest.raises(ValueError):
        algebra("t1", 0, 0)
    with pytest.raises(KeyError):
        algebra("so5")


def test_express_solves_exact_coordinates():
    target = 2 * SPIN7_BASIS[0] + rational(1, 3) * SPIN7_BASIS[5]
    coords = express(target, SPIN7_BASIS)
    assert coords is not None
    live = {k: v for k, v in coords.items() if not v.is_zero}
    assert live == {0: Scalar(2), 5: rational(1, 3)}
    assert express(form("e_12"), SPIN7_BASIS) is None


def test_invariant_spaces_of_the_full_kernel():
    forms4 = invariant_forms(SPIN7_BASIS, 4)
    assert len(forms4) == 1
    assert in_span(CAYLEY, forms4)
    spinors = invariant_spinors(SPIN7_BASIS)
    assert len(spinors) == 1


def test_iso_algebra_recognizes_catalog_stabilizers():
    g2_form = form("e_127 + e_347 + e_567 + e_246 - e_235 - e_145 - e_136")
    name, basis = iso_algebra(g2_form)
    assert name == "g2" and len(basis) == 14
    name, basis = iso_algebra(form("e_135 - e_245 - e_146 - e_236"))
    assert name == "su3" and len(basis) == 8


def test_spinor_action_annihilates_invariant_spinors():
    gens = algebra("su3")
    for s in invariant_spinors(gens):
        for w in gens:
            assert act(w, s) == {}
    assert act(form("e_12"), {8: Scalar(1), 9: Scalar(-1)}) != {}
